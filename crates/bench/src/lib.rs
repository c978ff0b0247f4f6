//! Shared helpers for the figure/table harnesses.
//!
//! Every binary under `src/bin/` regenerates one table or figure of the
//! paper (the README's figure/table map is the index) and prints the same
//! rows or series the paper reports, plus the seed it ran with. The
//! [`report`] module defines and validates the records `bench_engine`,
//! `bench_streaming` and `bench_server` write to `BENCH_engine.json`,
//! `BENCH_streaming.json` and `BENCH_server.json`, so the perf trajectory
//! is machine-readable; [`mc_matrix`] holds the model-checker matrix
//! `sg_lint --mc` runs.

pub mod mc_matrix;
pub mod report;

use streamgrid_nn::train::ClsSample;
use streamgrid_pointcloud::datasets::modelnet::{self, ModelNetConfig};

/// Prints a figure banner.
pub fn banner(figure: &str, claim: &str, seed: u64) {
    println!("=== {figure} ===");
    println!("paper: {claim}");
    println!("seed:  {seed}\n");
}

/// Builds a balanced ModelNet-like classification dataset with
/// `per_class` samples over the first `classes` base shapes.
pub fn cls_dataset(per_class: usize, classes: usize, points: usize, seed: u64) -> Vec<ClsSample> {
    let cfg = ModelNetConfig {
        classes: 10,
        points,
        noise: 0.01,
    };
    let mut out = Vec::new();
    for class in 0..classes as u32 {
        for i in 0..per_class {
            let s = modelnet::sample(&cfg, class, seed ^ ((class as u64) << 32) ^ i as u64);
            out.push((s.cloud.points().to_vec(), class));
        }
    }
    out
}

/// Formats a ratio as `x.x×`.
pub fn speedup(baseline: u64, ours: u64) -> String {
    format!("{:.1}x", baseline as f64 / ours.max(1) as f64)
}

/// Formats a relative reduction as a percentage.
pub fn reduction_pct(baseline: f64, ours: f64) -> String {
    format!("{:.1}%", (1.0 - ours / baseline.max(1e-12)) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_formatting() {
        assert_eq!(speedup(100, 50), "2.0x");
        assert_eq!(reduction_pct(100.0, 40.0), "60.0%");
    }

    #[test]
    fn dataset_is_balanced() {
        let d = cls_dataset(3, 4, 32, 1);
        assert_eq!(d.len(), 12);
    }
}
