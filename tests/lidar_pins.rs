//! Pins LiDAR sweeps bit for bit.
//!
//! Every LiDAR-fed test, example and figure binary starts from
//! `datasets::lidar::scan`, so a scanner change meant as a pure speed-up
//! must return the same sweeps to the last bit. These tests fold each
//! sweep (its point count, the `to_bits` of every coordinate, its ring
//! ids and its `sensor_origin`) into an FNV-1a digest and compare it with
//! constants recorded from the brute-force scanner, which casts every ray
//! against every box and pole:
//!
//! - the `lidar-stream` benchmark drive: 512 sweeps of 6 × 300 rays
//!   through `Scene::urban(1, 40.0, 14, 8)`, noise seed 1;
//! - `LidarStream::kitti_like(7, 8)`: 8 sweeps of 16 × 720 rays;
//! - edge cases of the scanner's per-column culling: the sensor inside a
//!   box footprint, inside a pole and just outside one, boxes straddling
//!   the ±π heading and the first azimuth column, one beam, one to three
//!   azimuth columns, and yaws of ±π and up to 1e7.
//!
//! The point totals are pinned alongside each digest, so a failure says
//! whether returns appeared or vanished. On a mismatch the message
//! prints the recomputed table.
//!
//! The digests were re-recorded on purpose once, when the range noise
//! moved from Box–Muller to the ziggurat sampler: every sample changed,
//! so every coordinate moved, while every point total stayed, because
//! noise perturbs a return's range only after the hit test. The totals,
//! and with them every frame size, bucket, design and modelled benchmark
//! metric, did not move. Re-record only for a deliberate change to what
//! the scanner models, never for a speed-up.

use std::f32::consts::PI;

use streamgrid_pointcloud::datasets::lidar::{scan, trajectory, LidarConfig, LidarScan, Scene};
use streamgrid_pointcloud::datasets::stream::LidarStream;
use streamgrid_pointcloud::{Aabb, Point3};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn point(&mut self, p: Point3) {
        for c in [p.x, p.y, p.z] {
            self.word(u64::from(c.to_bits()));
        }
    }

    fn sweep(&mut self, s: &LidarScan) {
        self.word(s.cloud.len() as u64);
        for &p in s.cloud.points() {
            self.point(p);
        }
        self.word(s.rings.len() as u64);
        for &r in &s.rings {
            self.word(u64::from(r));
        }
        self.point(s.sensor_origin);
    }
}

/// One pinned row: what was scanned, its total returns, and the digest
/// of every sweep.
type Pin = (&'static str, u64, u64);

fn digest(sweeps: impl IntoIterator<Item = LidarScan>) -> (u64, u64) {
    let mut h = Fnv::new();
    let mut points = 0;
    for s in sweeps {
        points += s.cloud.len() as u64;
        h.sweep(&s);
    }
    (points, h.0)
}

fn check(pinned: &[Pin], computed: &[(String, u64, u64)]) {
    let same = pinned.len() == computed.len()
        && pinned
            .iter()
            .zip(computed)
            .all(|(p, c)| (p.0, p.1, p.2) == (c.0.as_str(), c.1, c.2));
    if !same {
        let table: String = computed
            .iter()
            .map(|(name, points, digest)| format!("    ({name:?}, {points}, {digest:#018x}),\n"))
            .collect();
        panic!("LiDAR sweeps changed; recomputed pins:\n{table}");
    }
}

#[rustfmt::skip]
const STREAM_PINS: [Pin; 2] = [
    ("lidar-stream/512",         787503, 0xa186c9585dd89d03),
    ("kitti_like/7/8",            84626, 0x18246be4d3b97520),
];

#[test]
fn streams_match_pinned_sweeps() {
    let drive = LidarStream::new(
        Scene::urban(1, 40.0, 14, 8),
        LidarConfig {
            beams: 6,
            azimuth_steps: 300,
            ..LidarConfig::default()
        },
        trajectory(512, 0.4, 0.004),
        1,
    );
    let computed = [
        ("lidar-stream/512", drive),
        ("kitti_like/7/8", LidarStream::kitti_like(7, 8)),
    ]
    .into_iter()
    .map(|(name, stream)| {
        let (points, h) = digest(stream);
        (name.to_owned(), points, h)
    })
    .collect::<Vec<_>>();
    check(&STREAM_PINS, &computed);
}

/// A small urban block plus `boxes` and `poles` placed around the
/// sensor's path.
fn block(boxes: &[([f32; 3], [f32; 3])], poles: &[(f32, f32, f32, f32)]) -> Scene {
    let mut scene = Scene::urban(11, 30.0, 10, 6);
    scene.boxes.extend(boxes.iter().map(|&(lo, hi)| {
        Aabb::new(
            Point3::new(lo[0], lo[1], lo[2]),
            Point3::new(hi[0], hi[1], hi[2]),
        )
    }));
    scene.poles.extend_from_slice(poles);
    scene
}

fn lidar(beams: usize, azimuth_steps: usize) -> LidarConfig {
    LidarConfig {
        beams,
        azimuth_steps,
        ..LidarConfig::default()
    }
}

#[rustfmt::skip]
const EDGE_PINS: [Pin; 15] = [
    ("sensor_inside_box",          2880, 0xad0418b3af722c52),
    ("sensor_above_box",           2450, 0x103487a9c2b7306e),
    ("sensor_inside_pole",         2452, 0xb799472fa49ba15f),
    ("sensor_near_pole",           2546, 0x1e2fc0776411e123),
    ("box_across_pi",              2494, 0xcecd62a0f8bdb7f9),
    ("box_across_first_column",    2488, 0x7fe8cfd717acd11b),
    ("one_beam",                    360, 0x2da89d51641ee6ef),
    ("azimuth_steps_1",               4, 0x96537e16216706c9),
    ("azimuth_steps_2",               9, 0xa57f8230198b78ea),
    ("azimuth_steps_3",              14, 0x969b5944616666b6),
    ("yaw_-pi",                    1640, 0x9df89a3245b4dafa),
    ("yaw_pi",                     1640, 0x2372ad7074ff7e2a),
    ("yaw_1e6",                    1640, 0x86df27e17b06226f),
    ("yaw_-2e6",                   1632, 0x2e72fdab8a103338),
    ("yaw_1e7",                    1634, 0x7deb7b656cf1e0ed),
];

#[test]
fn edge_sweeps_match_pins() {
    let plain = block(&[], &[]);
    let at = Point3::new(3.0, -1.0, 0.0);
    // (name, scene, scanner, pose, yaw)
    let cases: Vec<(&str, Scene, LidarConfig, Point3, f32)> = vec![
        (
            "sensor_inside_box",
            block(&[([-3.0, -2.0, 0.0], [2.0, 3.0, 4.0])], &[]),
            lidar(8, 360),
            Point3::ZERO,
            0.3,
        ),
        (
            "sensor_above_box",
            block(&[([-1.5, -1.0, 0.0], [1.0, 1.5, 1.2])], &[]),
            lidar(8, 360),
            Point3::ZERO,
            -0.7,
        ),
        (
            "sensor_inside_pole",
            block(&[], &[(0.05, -0.03, 0.12, 5.0)]),
            lidar(8, 360),
            Point3::ZERO,
            0.0,
        ),
        (
            "sensor_near_pole",
            block(&[], &[(0.21, 0.0, 0.18, 5.0)]),
            lidar(8, 360),
            Point3::ZERO,
            1.1,
        ),
        (
            "box_across_pi",
            block(&[([-9.0, -1.0, 0.0], [-7.0, 1.5, 5.0])], &[]),
            lidar(8, 360),
            Point3::ZERO,
            0.0,
        ),
        (
            "box_across_first_column",
            block(&[([6.0, -1.2, 0.0], [8.0, 0.8, 5.0])], &[]),
            lidar(8, 360),
            Point3::ZERO,
            0.0,
        ),
        ("one_beam", plain.clone(), lidar(1, 360), at, 0.4),
        ("azimuth_steps_1", plain.clone(), lidar(5, 1), at, 2.0),
        ("azimuth_steps_2", plain.clone(), lidar(5, 2), at, -1.0),
        ("azimuth_steps_3", plain.clone(), lidar(5, 3), at, 0.5),
        ("yaw_-pi", plain.clone(), lidar(8, 240), at, -PI),
        ("yaw_pi", plain.clone(), lidar(8, 240), at, PI),
        ("yaw_1e6", plain.clone(), lidar(8, 240), at, 1e6),
        ("yaw_-2e6", plain.clone(), lidar(8, 240), at, -2e6),
        ("yaw_1e7", plain, lidar(8, 240), at, 1e7),
    ];
    let computed: Vec<_> = cases
        .into_iter()
        .enumerate()
        .map(|(i, (name, scene, config, pose, yaw))| {
            let (points, h) = digest([scan(&scene, &config, pose, yaw, 100 + i as u64)]);
            (name.to_owned(), points, h)
        })
        .collect();
    check(&EDGE_PINS, &computed);
}
