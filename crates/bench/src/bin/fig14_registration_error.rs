//! Fig. 14: registration (A-LOAM) translational/rotational error, Base
//! vs CS+DT (paper: +0.01% translation, no rotation change).
//!
//! One 12-sweep sequence through one scene, scanned under
//! [`REALISATIONS`] range-noise realisations: realisation `r` scans
//! sweep `i` with seed `100 + 100·r + i`. The Base vs CS+DT gap of one
//! realisation swings by several points with the noise alone, so the
//! shape check reads the median gap over all of them.

use streamgrid_core::nearest_rank;
use streamgrid_pointcloud::datasets::lidar::{scan, trajectory, LidarConfig, Scene};
use streamgrid_registration::icp::{CorrespondenceMode, IcpConfig};
use streamgrid_registration::odometry::{
    run_odometry, trajectory_error, OdometryConfig, TrajectoryError,
};

/// Noise realisations of the sequence; realisation 0 uses the scan
/// seeds of the single-realisation figure.
const REALISATIONS: u64 = 9;

/// Quantiles 0.25, 0.50 and 0.75 of `values`, each the value at the
/// rank [`nearest_rank`] picks, so floats share the workspace's one
/// percentile definition.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let ranks: Vec<u64> = (1..=sorted.len() as u64).collect();
    [0.25, 0.50, 0.75].map(|q| sorted[nearest_rank(&ranks, q) as usize - 1])
}

fn main() {
    let seed = 11;
    streamgrid_bench::banner(
        "Fig. 14 — registration error (Base vs CS+DT)",
        "CS+DT adds ~0.01% translational error and no rotational error",
        seed,
    );
    let scene = Scene::urban(seed, 45.0, 18, 10);
    let lidar = LidarConfig {
        beams: 12,
        azimuth_steps: 720,
        ..LidarConfig::default()
    };
    let truth = trajectory(12, 0.35, 0.003);
    let variants = [
        ("Base (exact kNN)", CorrespondenceMode::Exact),
        (
            "CS+DT (4 chunks, 25% deadline)",
            CorrespondenceMode::paper_registration(),
        ),
    ];
    println!(
        "sequence: {} sweeps, {REALISATIONS} noise realisations (scan seed 100 + 100·r + sweep)\n",
        truth.len()
    );

    println!(
        "{:>3} {:>10} {:>11} {:>10} {:>11} {:>9} {:>9}",
        "r", "Base tr %", "Base rot °", "CS+DT tr %", "CS+DT rot °", "tr gap", "rot gap"
    );
    // errors[v][r]: variant v's error on realisation r.
    let mut errors: [Vec<TrajectoryError>; 2] = [Vec::new(), Vec::new()];
    for r in 0..REALISATIONS {
        let scans: Vec<_> = truth
            .iter()
            .enumerate()
            .map(|(i, &(p, y))| scan(&scene, &lidar, p, y, 100 + 100 * r + i as u64))
            .collect();
        for (v, (_, mode)) in variants.iter().enumerate() {
            let config = OdometryConfig {
                icp: IcpConfig {
                    mode: mode.clone(),
                    ..IcpConfig::default()
                },
                ..OdometryConfig::default()
            };
            errors[v].push(trajectory_error(&run_odometry(&scans, &config), &truth));
        }
        let (base, csdt) = (&errors[0][r as usize], &errors[1][r as usize]);
        println!(
            "{r:>3} {:>10.2} {:>11.3} {:>10.2} {:>11.3} {:>+9.2} {:>+9.3}",
            base.translation_pct,
            base.rotation_deg,
            csdt.translation_pct,
            csdt.rotation_deg,
            csdt.translation_pct - base.translation_pct,
            csdt.rotation_deg - base.rotation_deg,
        );
    }

    println!(
        "\n{:<34} {:>26} {:>26}",
        "median [quartiles]", "trans err %", "rot deg/frame"
    );
    let column = |f: &dyn Fn(usize) -> f64| {
        quartiles(&(0..REALISATIONS as usize).map(f).collect::<Vec<_>>())
    };
    let row = |label: &str, tr: [f64; 3], rot: [f64; 3]| {
        println!(
            "{label:<34} {:>8.2} [{:>6.2}, {:>6.2}] {:>8.3} [{:>6.3}, {:>6.3}]",
            tr[1], tr[0], tr[2], rot[1], rot[0], rot[2]
        );
    };
    for (v, (label, _)) in variants.iter().enumerate() {
        row(
            label,
            column(&|r| errors[v][r].translation_pct),
            column(&|r| errors[v][r].rotation_deg),
        );
    }
    let tr_gap = column(&|r| errors[1][r].translation_pct - errors[0][r].translation_pct);
    let rot_gap = column(&|r| errors[1][r].rotation_deg - errors[0][r].rotation_deg);
    row("gap (CS+DT − Base)", tr_gap, rot_gap);
    println!(
        "\nshape check: median CS+DT gap {:+.2}% translation / {:+.3} deg of Base (paper: ~+0.01%, +0).",
        tr_gap[1], rot_gap[1],
    );
}
