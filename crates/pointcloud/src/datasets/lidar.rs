//! Synthetic rotating-beam LiDAR scans of structured scenes.
//!
//! A scene is a ground plane plus axis-aligned boxes (buildings, cars) and
//! vertical poles. The scanner casts `beams × azimuth_steps` rays per
//! sweep and serializes returns beam-major (all azimuths of scan line 0,
//! then line 1, …), so consecutive points within a scan line are spatial
//! neighbours — the locality the LiDAR split of Sec. 4.1 exploits and the
//! continuity A-LOAM curvature extraction requires.
//!
//! # Column binning
//!
//! All rays of one azimuth column share a heading, and a box or pole can
//! only be hit by rays whose heading lies inside the angle its footprint
//! subtends from the sensor. So [`scan`] works in two steps per sweep:
//!
//! 1. Once per sweep, it takes one `sin_cos` per azimuth column and one
//!    for the sensor-frame rotation, and bins every box and pole into
//!    the columns whose headings can reach its footprint.
//! 2. Per ray, it tests the ground plane and only its column's
//!    candidates, with the same slab and cylinder arithmetic as
//!    [`Scene::raycast`], which stays the brute-force reference.
//!
//! The sweep is bit-identical to casting every ray with
//! [`Scene::raycast`], for three reasons:
//!
//! - Each (ray, primitive) test runs the same f32 operations, and the
//!   range noise is drawn in the same order: one sample per return,
//!   beam-major, in azimuth order, from one generator seeded alike. A
//!   sample may take more than one of the generator's words (see
//!   below), but it takes the same ones in both scanners.
//! - The nearest hit is a minimum under a strict `<`, which does not
//!   depend on the order the candidates are tested in.
//! - The binning is conservative. A hit point lies, in xy, inside the box
//!   footprint or the pole's disk, so the ray's heading lies inside the
//!   angle that footprint subtends from the sensor. f32 rounding can let
//!   a test accept a ray just outside: the slab test by about 3e-7 of the
//!   range, the cylinder test near a tangent by about 7e-4 rad. So each
//!   footprint is widened by 0.05 m plus a millionth of the maximum range
//!   before its angle is taken, and the angle by 2e-3 rad on each side,
//!   which also covers the rounding of the column headings. A widened
//!   footprint that holds the sensor goes into every column. Column
//!   ranges come from the f32 azimuths the rays actually use,
//!   `yaw + TAU * step / steps`, compared in f64, not from the nominal
//!   step angle: at |yaw| ≥ 1e6 the f32 spacing of `yaw` is wider than a
//!   column.
//!
//! A beam at or past vertical does not point along its column's heading,
//! so when a config has one, and under a non-finite `yaw`, every
//! primitive goes into every column.
//!
//! # Range noise
//!
//! Each return's range gets Gaussian noise of `range_noise` sigma,
//! added after the hit test, so noise moves coordinates but never
//! whether a ray returns. The standard-normal samples come from the
//! 128-layer ziggurat of Marsaglia and Tsang (2000): one 64-bit word
//! gives about 97 % of them with a table lookup, a compare and a
//! multiply, and only the rest pay for `exp` or `ln` and further words.

use std::ops::Range;

use rand::{RngCore, RngExt};
use serde::{Deserialize, Serialize};

use crate::aabb::Aabb;
use crate::cloud::PointCloud;
use crate::point::Point3;

/// Slack on every side of a box footprint and on a pole's radius before
/// its heading span is taken, metres; the binning adds a millionth of the
/// maximum range to it.
const FOOTPRINT_MARGIN: f64 = 0.05;

/// Slack on each end of a heading span, radians.
const HEADING_MARGIN: f64 = 2e-3;

/// A static scene the scanner ray-casts against.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scene {
    /// Axis-aligned solid boxes.
    pub boxes: Vec<Aabb>,
    /// Vertical poles `(x, y, radius, height)`.
    pub poles: Vec<(f32, f32, f32, f32)>,
    /// Height of the ground plane (z = this value).
    pub ground_z: f32,
}

impl Scene {
    /// Generates a random urban-like scene within `half_extent` metres of
    /// the origin: a ground plane, `n_boxes` buildings, `n_poles` poles.
    pub fn urban(seed: u64, half_extent: f32, n_boxes: usize, n_poles: usize) -> Self {
        let mut rng = super::rng(seed);
        let mut boxes = Vec::with_capacity(n_boxes);
        for _ in 0..n_boxes {
            // Keep a clear corridor near the origin so the scanner is not
            // inside geometry anywhere along a typical trajectory.
            let (cx, cy) = loop {
                let cx = rng.random_range(-half_extent..half_extent);
                let cy = rng.random_range(-half_extent..half_extent);
                if cy.abs() > 4.0 {
                    break (cx, cy);
                }
            };
            let sx = rng.random_range(2.0f32..10.0);
            let sy = rng.random_range(2.0f32..10.0);
            let sz = rng.random_range(3.0f32..15.0);
            boxes.push(Aabb::new(
                Point3::new(cx - sx / 2.0, cy - sy / 2.0, 0.0),
                Point3::new(cx + sx / 2.0, cy + sy / 2.0, sz),
            ));
        }
        let mut poles = Vec::with_capacity(n_poles);
        for _ in 0..n_poles {
            let x = rng.random_range(-half_extent..half_extent);
            let y = if rng.random_bool(0.5) {
                rng.random_range(2.5..3.8)
            } else {
                rng.random_range(-3.8..-2.5)
            };
            poles.push((
                x,
                y,
                rng.random_range(0.05..0.2),
                rng.random_range(3.0..8.0),
            ));
        }
        Scene {
            boxes,
            poles,
            ground_z: 0.0,
        }
    }

    /// Casts a ray from `origin` along unit `dir`; returns the hit range
    /// (metres) if anything is hit within `max_range`.
    pub fn raycast(&self, origin: Point3, dir: Point3, max_range: f32) -> Option<f32> {
        let mut best = max_range;
        let mut hit = false;
        // Ground plane.
        if dir.z < -1e-6 {
            let t = (self.ground_z - origin.z) / dir.z;
            if t > 0.0 && t < best {
                best = t;
                hit = true;
            }
        }
        // Boxes (slab method).
        for b in &self.boxes {
            if let Some(t) = ray_aabb(origin, dir, b) {
                if t > 0.0 && t < best {
                    best = t;
                    hit = true;
                }
            }
        }
        // Poles as vertical cylinders.
        for &(px, py, r, h) in &self.poles {
            if let Some(t) = ray_cylinder(origin, dir, px, py, r, self.ground_z, self.ground_z + h)
            {
                if t > 0.0 && t < best {
                    best = t;
                    hit = true;
                }
            }
        }
        hit.then_some(best)
    }

    /// [`Scene::raycast`] against the ground plane and the candidates in
    /// `reach` only: bit `i % 64` of word `i / 64` selects box `i`, or
    /// pole `i - boxes.len()` for `i` past the boxes.
    fn raycast_among(
        &self,
        origin: Point3,
        dir: Point3,
        max_range: f32,
        reach: &[u64],
    ) -> Option<f32> {
        let mut best = max_range;
        let mut hit = false;
        if dir.z < -1e-6 {
            let t = (self.ground_z - origin.z) / dir.z;
            if t > 0.0 && t < best {
                best = t;
                hit = true;
            }
        }
        for (word, &bits) in reach.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let i = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let t = match self.boxes.get(i) {
                    Some(b) => ray_aabb(origin, dir, b),
                    None => {
                        let (px, py, r, h) = self.poles[i - self.boxes.len()];
                        ray_cylinder(origin, dir, px, py, r, self.ground_z, self.ground_z + h)
                    }
                };
                if let Some(t) = t {
                    if t > 0.0 && t < best {
                        best = t;
                        hit = true;
                    }
                }
            }
        }
        hit.then_some(best)
    }
}

fn ray_aabb(origin: Point3, dir: Point3, b: &Aabb) -> Option<f32> {
    let mut tmin = f32::NEG_INFINITY;
    let mut tmax = f32::INFINITY;
    for axis in 0..3 {
        let o = origin.axis(axis);
        let d = dir.axis(axis);
        let lo = b.min().axis(axis);
        let hi = b.max().axis(axis);
        if d.abs() < 1e-9 {
            if o < lo || o > hi {
                return None;
            }
        } else {
            let mut t0 = (lo - o) / d;
            let mut t1 = (hi - o) / d;
            if t0 > t1 {
                std::mem::swap(&mut t0, &mut t1);
            }
            tmin = tmin.max(t0);
            tmax = tmax.min(t1);
            if tmin > tmax {
                return None;
            }
        }
    }
    (tmax > 0.0).then_some(if tmin > 0.0 { tmin } else { tmax })
}

fn ray_cylinder(
    origin: Point3,
    dir: Point3,
    cx: f32,
    cy: f32,
    r: f32,
    z_lo: f32,
    z_hi: f32,
) -> Option<f32> {
    // Project onto xy: |o + t d - c|^2 = r^2.
    let ox = origin.x - cx;
    let oy = origin.y - cy;
    let a = dir.x * dir.x + dir.y * dir.y;
    if a < 1e-12 {
        return None;
    }
    let b = 2.0 * (ox * dir.x + oy * dir.y);
    let c = ox * ox + oy * oy - r * r;
    let disc = b * b - 4.0 * a * c;
    if disc < 0.0 {
        return None;
    }
    let t = (-b - disc.sqrt()) / (2.0 * a);
    if t <= 0.0 {
        return None;
    }
    let z = origin.z + t * dir.z;
    (z >= z_lo && z <= z_hi).then_some(t)
}

/// The headings `(start, width)`, radians, under which a ray from the
/// sensor at `o` can reach box `b`'s footprint widened by `margin`;
/// `None` when every heading can: the widened footprint holds the
/// sensor, or is not finite.
fn box_span(o: (f64, f64), b: &Aabb, margin: f64) -> Option<(f64, f64)> {
    let x = [
        f64::from(b.min().x) - margin - o.0,
        f64::from(b.max().x) + margin - o.0,
    ];
    let y = [
        f64::from(b.min().y) - margin - o.1,
        f64::from(b.max().y) + margin - o.1,
    ];
    let misses_sensor = x[0] > 0.0 || x[1] < 0.0 || y[0] > 0.0 || y[1] < 0.0;
    if !(misses_sensor && x.iter().chain(&y).all(|v| v.is_finite())) {
        return None;
    }
    // Corner headings relative to the centre's. A rectangle that misses
    // the sensor subtends less than π, so these do not wrap.
    let (cx, cy) = ((x[0] + x[1]) / 2.0, (y[0] + y[1]) / 2.0);
    let (mut lo, mut hi) = (0.0f64, 0.0f64);
    for (px, py) in [(x[0], y[0]), (x[0], y[1]), (x[1], y[0]), (x[1], y[1])] {
        let a = (cx * py - cy * px).atan2(cx * px + cy * py);
        lo = lo.min(a);
        hi = hi.max(a);
    }
    Some((
        cy.atan2(cx) + lo - HEADING_MARGIN,
        hi - lo + 2.0 * HEADING_MARGIN,
    ))
}

/// [`box_span`] for a pole's disk, its radius widened by `margin`.
fn pole_span(
    o: (f64, f64),
    (px, py, r, _): (f32, f32, f32, f32),
    margin: f64,
) -> Option<(f64, f64)> {
    let (dx, dy) = (f64::from(px) - o.0, f64::from(py) - o.1);
    let d = dx.hypot(dy);
    let reach = f64::from(r).abs() + margin;
    if !(d > reach && d.is_finite()) {
        return None;
    }
    let half = (reach / d).asin() + HEADING_MARGIN;
    Some((dy.atan2(dx) - half, 2.0 * half))
}

/// One sweep's azimuth columns: each column's heading, and the boxes and
/// poles its rays can hit, as bit masks over primitive indices (boxes
/// first, then poles).
struct Columns {
    /// `(sin, cos)` of each column's azimuth.
    headings: Vec<(f32, f32)>,
    /// Column `k`'s candidates are `masks[k * words..][..words]`.
    masks: Vec<u64>,
    words: usize,
}

impl Columns {
    /// Bins `scene`'s primitives into the columns of a sweep from
    /// `origin` at `yaw`. `outward` says that every beam's rays point
    /// along their column's heading (cos pitch > 0).
    fn bin(scene: &Scene, config: &LidarConfig, origin: Point3, yaw: f32, outward: bool) -> Self {
        let steps = config.azimuth_steps;
        let azimuths: Vec<f32> = (0..steps)
            .map(|step| yaw + std::f32::consts::TAU * step as f32 / steps as f32)
            .collect();
        let headings: Vec<(f32, f32)> = azimuths.iter().map(|a| a.sin_cos()).collect();
        let n = scene.boxes.len() + scene.poles.len();
        let words = n.div_ceil(64);
        let mut masks = vec![0u64; steps * words];

        // Column `k` heads `h0 + offset(azimuths[k])` modulo 2π, where
        // `h0` is column 0's heading as its `sin_cos` gives it and the
        // offsets from column 0's azimuth are exact in f64 and
        // non-decreasing in `k`. While the offsets stay below two turns,
        // a span shifted by −1, 0 and +1 turn finds all its columns.
        let turn = std::f64::consts::TAU;
        let a0 = azimuths.first().map_or(0.0, |&a| f64::from(a));
        let h0 = headings
            .first()
            .map_or(0.0, |&(s, c)| f64::from(s).atan2(f64::from(c)));
        let offset = |a: f32| f64::from(a) - a0;
        // Rounding keeps the offsets at most 8 rad for any finite `yaw`;
        // a non-finite one makes them NaN, which fails this.
        let binned = outward && azimuths.last().is_some_and(|&a| offset(a) < 2.0 * turn);

        let o = (f64::from(origin.x), f64::from(origin.y));
        let margin = FOOTPRINT_MARGIN + 1e-6 * f64::from(config.max_range);
        let spans = scene
            .boxes
            .iter()
            .map(|b| box_span(o, b, margin))
            .chain(scene.poles.iter().map(|&p| pole_span(o, p, margin)));
        for (i, span) in spans.enumerate() {
            let mut mark = |cols: Range<usize>| {
                for k in cols {
                    masks[k * words + i / 64] |= 1 << (i % 64);
                }
            };
            match span.filter(|_| binned) {
                None => mark(0..steps),
                Some((start, width)) => {
                    let start = (start - h0).rem_euclid(turn);
                    for lo in [start - turn, start, start + turn] {
                        let begin = azimuths.partition_point(|&a| offset(a) < lo);
                        let end = azimuths.partition_point(|&a| offset(a) <= lo + width);
                        mark(begin..end);
                    }
                }
            }
        }
        Columns {
            headings,
            masks,
            words,
        }
    }

    /// Column `step`'s candidate mask.
    fn reach(&self, step: usize) -> &[u64] {
        &self.masks[step * self.words..][..self.words]
    }
}

/// Scanner intrinsics and noise parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LidarConfig {
    /// Number of scan lines (vertical beams). KITTI's HDL-64E has 64;
    /// 16 keeps experiments laptop-scale.
    pub beams: usize,
    /// Azimuth samples per revolution.
    pub azimuth_steps: usize,
    /// Vertical field of view `(low, high)` in radians.
    pub vertical_fov: (f32, f32),
    /// Maximum range in metres.
    pub max_range: f32,
    /// Gaussian range noise sigma in metres.
    pub range_noise: f32,
    /// Sensor height above ground.
    pub sensor_height: f32,
}

impl Default for LidarConfig {
    fn default() -> Self {
        LidarConfig {
            beams: 16,
            azimuth_steps: 720,
            vertical_fov: (-0.40, 0.05),
            max_range: 80.0,
            range_noise: 0.01,
            sensor_height: 1.7,
        }
    }
}

/// A single LiDAR sweep: serialized points plus per-point scan-line ids.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LidarScan {
    /// Points in sensor-local coordinates, serialized beam-major.
    pub cloud: PointCloud,
    /// Scan line (beam index) of each point.
    pub rings: Vec<u16>,
    /// Sensor pose (translation only; yaw handled by caller) used to
    /// generate the scan, in world coordinates.
    pub sensor_origin: Point3,
}

/// Simulates one sweep at `pose` (sensor position, world frame) with yaw
/// `yaw` radians. Points are returned in the sensor frame.
///
/// Each ray is tested against the ground plane and only the boxes and
/// poles binned into its azimuth column (see the [module docs](self)),
/// and the sweep is bit-identical to casting every ray with
/// [`Scene::raycast`]. An empty config (`beams` or `azimuth_steps` of 0)
/// returns an empty sweep.
///
/// # Examples
///
/// ```
/// use streamgrid_pointcloud::datasets::lidar::{LidarConfig, Scene, scan};
/// use streamgrid_pointcloud::Point3;
///
/// let scene = Scene::urban(7, 40.0, 12, 6);
/// let sweep = scan(&scene, &LidarConfig::default(), Point3::ZERO, 0.0, 42);
/// assert!(sweep.cloud.len() > 1000);
/// ```
pub fn scan(scene: &Scene, config: &LidarConfig, pose: Point3, yaw: f32, seed: u64) -> LidarScan {
    let mut rng = super::rng(seed);
    let origin = pose + Point3::new(0.0, 0.0, config.sensor_height);
    let rays = config.beams * config.azimuth_steps;
    let mut cloud = PointCloud::with_capacity(rays);
    let mut rings = Vec::with_capacity(rays);
    let pitches: Vec<(f32, f32)> = (0..config.beams)
        .map(|beam| {
            let pitch = config.vertical_fov.0
                + (config.vertical_fov.1 - config.vertical_fov.0) * beam as f32
                    / (config.beams.max(2) - 1) as f32;
            pitch.sin_cos()
        })
        .collect();
    let outward = pitches.iter().all(|&(_, cp)| cp > 0.0);
    let columns = Columns::bin(scene, config, origin, yaw, outward);
    // Sensor frame: subtract pose, rotate by -yaw around z.
    let (sy, cy) = (-yaw).sin_cos();
    for (beam, &(sp, cp)) in pitches.iter().enumerate() {
        for (step, &(sa, ca)) in columns.headings.iter().enumerate() {
            let dir = Point3::new(cp * ca, cp * sa, sp);
            let reach = columns.reach(step);
            if let Some(range) = scene.raycast_among(origin, dir, config.max_range, reach) {
                let noisy = range + gauss(&mut rng) * config.range_noise;
                let world = origin + dir * noisy;
                let rel = world - origin;
                let local = Point3::new(rel.x * cy - rel.y * sy, rel.x * sy + rel.y * cy, rel.z);
                cloud.push(local);
                rings.push(beam as u16);
            }
        }
    }
    LidarScan {
        cloud,
        rings,
        sensor_origin: origin,
    }
}

/// Where the ziggurat's base layer meets its tail: the right edge of the
/// widest layer.
const ZIGGURAT_R: f64 = 3.442_619_855_899;

/// Area of each of the ziggurat's 128 layers under `exp(-x²/2)`.
const ZIGGURAT_V: f64 = 9.912_563_035_262_17e-3;

/// The 128-layer ziggurat of Marsaglia and Tsang (2000) over the half
/// density `f(x) = exp(-x²/2)`. Layer `i ≥ 1` spans `[0, x_i]` between
/// heights `f(x_i)` and `f(x_{i-1})`, with `x_127 = R` and `x_0 = 0`;
/// layer 0 is the strip under `f(R)` plus the tail beyond `R`.
struct Ziggurat {
    /// A draw whose `|hz|` is below `k[i]` lies under the curve in layer
    /// `i`: `x_{i-1} / x_i · 2³¹` (layer 0: `R` over the strip's width;
    /// the top layer: 0, since none of it does).
    k: [u32; 128],
    /// Scales `hz` to `x`: `x_i / 2³¹` (layer 0: the strip's width, `V /
    /// f(R)`, over 2³¹).
    w: [f64; 128],
    /// `f(x_i)`, with `f[0] = 1` as the top layer's upper edge.
    f: [f64; 128],
}

impl Ziggurat {
    /// The tables, built on first use.
    fn get() -> &'static Ziggurat {
        static TABLES: std::sync::OnceLock<Ziggurat> = std::sync::OnceLock::new();
        TABLES.get_or_init(Ziggurat::build)
    }

    fn build() -> Ziggurat {
        const M: f64 = 2_147_483_648.0;
        let density = |x: f64| (-0.5 * x * x).exp();
        let mut z = Ziggurat {
            k: [0; 128],
            w: [0.0; 128],
            f: [0.0; 128],
        };
        let strip = ZIGGURAT_V / density(ZIGGURAT_R);
        z.k[0] = (ZIGGURAT_R / strip * M) as u32;
        z.w[0] = strip / M;
        z.f[0] = 1.0;
        z.w[127] = ZIGGURAT_R / M;
        z.f[127] = density(ZIGGURAT_R);
        let mut outer = ZIGGURAT_R;
        for i in (1..127).rev() {
            // Layer i + 1 has area V: x_{i+1} · (f(x_i) − f(x_{i+1})).
            let x = (-2.0 * (ZIGGURAT_V / outer + density(outer)).ln()).sqrt();
            z.k[i + 1] = (x / outer * M) as u32;
            z.w[i] = x / M;
            z.f[i] = density(x);
            outer = x;
        }
        z
    }
}

/// A uniform draw in (0, 1], so that its `ln` is finite.
fn open_unit<R: RngCore>(rng: &mut R) -> f64 {
    ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Standard-normal sample from the [`Ziggurat`]. One 64-bit word gives
/// the layer (its low 7 bits) and a signed 32-bit `hz` (its high 32
/// bits), so the two share no bits. About 97 % of samples are `hz`
/// scaled, from inside a layer's rectangle under the curve; only the top
/// layer, the wedges beside the curve and the tail beyond `R` take `exp`
/// or `ln`, and a rejected wedge point draws again.
fn gauss<R: RngCore>(rng: &mut R) -> f32 {
    let z = Ziggurat::get();
    loop {
        let bits = rng.next_u64();
        let i = (bits & 127) as usize;
        let hz = (bits >> 32) as i32;
        let x = f64::from(hz) * z.w[i];
        if hz.unsigned_abs() < z.k[i] {
            return x as f32;
        }
        if i == 0 {
            // The tail beyond R, by Marsaglia's exponential rejection.
            loop {
                let x = -open_unit(rng).ln() / ZIGGURAT_R;
                let y = -open_unit(rng).ln();
                if y + y >= x * x {
                    return (ZIGGURAT_R + x).copysign(f64::from(hz)) as f32;
                }
            }
        }
        if z.f[i] + open_unit(rng) * (z.f[i - 1] - z.f[i]) < (-0.5 * x * x).exp() {
            return x as f32;
        }
    }
}

/// A straight-line-with-turns ground-truth trajectory for odometry
/// experiments: positions and yaws at each frame.
pub fn trajectory(frames: usize, step: f32, turn_rate: f32) -> Vec<(Point3, f32)> {
    let mut out = Vec::with_capacity(frames);
    let mut pos = Point3::ZERO;
    let mut yaw = 0.0f32;
    for i in 0..frames {
        out.push((pos, yaw));
        // Gentle sinusoidal steering keeps the path inside the scene.
        yaw += turn_rate * (i as f32 * 0.21).sin();
        pos += Point3::new(yaw.cos(), yaw.sin(), 0.0) * step;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scene_generation_is_deterministic() {
        let a = Scene::urban(1, 50.0, 10, 5);
        let b = Scene::urban(1, 50.0, 10, 5);
        assert_eq!(a.boxes.len(), b.boxes.len());
        assert_eq!(a.boxes[0], b.boxes[0]);
        assert_eq!(a.poles, b.poles);
    }

    #[test]
    fn raycast_hits_ground() {
        let scene = Scene {
            boxes: vec![],
            poles: vec![],
            ground_z: 0.0,
        };
        let t = scene
            .raycast(
                Point3::new(0.0, 0.0, 2.0),
                Point3::new(0.0, 0.0, -1.0),
                100.0,
            )
            .unwrap();
        assert!((t - 2.0).abs() < 1e-5);
    }

    #[test]
    fn raycast_hits_box_front_face() {
        let scene = Scene {
            boxes: vec![Aabb::new(
                Point3::new(5.0, -1.0, 0.0),
                Point3::new(7.0, 1.0, 3.0),
            )],
            poles: vec![],
            ground_z: -100.0,
        };
        let t = scene
            .raycast(
                Point3::new(0.0, 0.0, 1.0),
                Point3::new(1.0, 0.0, 0.0),
                100.0,
            )
            .unwrap();
        assert!((t - 5.0).abs() < 1e-5);
    }

    #[test]
    fn raycast_misses_beyond_max_range() {
        let scene = Scene {
            boxes: vec![],
            poles: vec![],
            ground_z: 0.0,
        };
        assert!(scene
            .raycast(
                Point3::new(0.0, 0.0, 2.0),
                Point3::new(1.0, 0.0, -0.001),
                10.0
            )
            .is_none());
    }

    #[test]
    fn raycast_hits_pole() {
        // Horizontal ray at z = 1 through a pole spanning z in [0, 4].
        let scene = Scene {
            boxes: vec![],
            poles: vec![(5.0, 0.0, 0.5, 4.0)],
            ground_z: 0.0,
        };
        let t = scene
            .raycast(
                Point3::new(0.0, 0.0, 1.0),
                Point3::new(1.0, 0.0, 0.0),
                100.0,
            )
            .unwrap();
        assert!((t - 4.5).abs() < 1e-4);
    }

    #[test]
    fn scan_points_within_range_and_serialized_by_ring() {
        let scene = Scene::urban(3, 40.0, 15, 8);
        let cfg = LidarConfig {
            beams: 4,
            azimuth_steps: 180,
            ..LidarConfig::default()
        };
        let sweep = scan(&scene, &cfg, Point3::ZERO, 0.3, 11);
        assert!(!sweep.cloud.is_empty());
        assert_eq!(sweep.cloud.len(), sweep.rings.len());
        // Rings are non-decreasing (beam-major serialization).
        assert!(sweep.rings.windows(2).all(|w| w[0] <= w[1]));
        // All ranges within max range (+noise slack).
        let origin = Point3::new(0.0, 0.0, cfg.sensor_height);
        for &p in sweep.cloud.points() {
            assert!(
                p.dist(Point3::ZERO) <= cfg.max_range + 1.0,
                "{p} vs origin {origin}"
            );
        }
    }

    #[test]
    fn serialized_order_has_locality() {
        // Consecutive returns in the stream should usually be close — the
        // property the serial split relies on.
        let scene = Scene::urban(5, 40.0, 15, 8);
        let cfg = LidarConfig {
            beams: 8,
            azimuth_steps: 360,
            ..LidarConfig::default()
        };
        let sweep = scan(&scene, &cfg, Point3::ZERO, 0.0, 5);
        let pts = sweep.cloud.points();
        let mut near = 0usize;
        let mut total = 0usize;
        for w in pts.windows(2) {
            total += 1;
            if w[0].dist(w[1]) < 5.0 {
                near += 1;
            }
        }
        assert!(near as f32 / total as f32 > 0.8, "locality {near}/{total}");
    }

    /// 10⁶ samples from a fixed seed: every moment and share lies within
    /// at least 5σ of the standard normal's. Only the tail path returns
    /// `|z| ≥ R`, so a wedge or tail that accepts or rejects wrongly fails
    /// here, not only in a digest.
    #[test]
    fn gauss_draws_a_standard_normal() {
        const N: usize = 1_000_000;
        let r = ZIGGURAT_R as f32;
        let mut rng = crate::datasets::rng(0x9a55);
        let mut sums = [0.0f64; 3];
        let (mut within_one, mut positive) = (0usize, 0usize);
        let mut tail = Vec::new();
        for _ in 0..N {
            let z = gauss(&mut rng);
            let x = f64::from(z);
            sums[0] += x;
            sums[1] += x * x;
            sums[2] += x * x * x * x;
            within_one += usize::from(z.abs() < 1.0);
            positive += usize::from(z > 0.0);
            if z.abs() >= r {
                tail.push(z);
            }
        }
        let near = |what: &str, got: f64, want: f64, within: f64| {
            assert!(
                (got - want).abs() < within,
                "{what}: {got}, want {want} ± {within}"
            );
        };
        let n = N as f64;
        let [mean, second, fourth] = sums.map(|s| s / n);
        // Standard errors: 0.001, 0.0014 and 0.0098 for the moments,
        // 0.0005 for each share. Dropping every wedge point leaves the
        // fourth moment at 2.92; accepting every one, the variance at
        // 1.012.
        near("mean", mean, 0.0, 0.005);
        near("variance", second - mean * mean, 1.0, 0.01);
        near("fourth moment", fourth, 3.0, 0.05);
        near("P(|z| < 1)", within_one as f64 / n, 0.6827, 0.003);
        near("positive share", positive as f64 / n, 0.5, 0.003);
        // Beyond R: 5.76e-4 of samples (σ ≈ 24), half of them negative
        // (σ ≈ 0.021) and |z| − R averaging 0.255 (σ ≈ 0.010).
        let count = tail.len() as f64;
        near("samples beyond R", count, 576.0, 150.0);
        let up = tail.iter().filter(|&&z| z > 0.0).count() as f64 / count;
        near("positive share beyond R", up, 0.5, 0.11);
        let excess = tail.iter().map(|&z| f64::from(z.abs() - r)).sum::<f64>() / count;
        near("mean excess beyond R", excess, 0.255, 0.05);
    }

    #[test]
    fn trajectory_has_requested_frames() {
        let traj = trajectory(20, 0.5, 0.01);
        assert_eq!(traj.len(), 20);
        assert_eq!(traj[0].0, Point3::ZERO);
        // Moves forward.
        assert!(traj[19].0.norm() > 5.0);
    }

    /// The brute-force scanner [`scan`] must match bit for bit: every ray
    /// cast with [`Scene::raycast`] against every box and pole, with one
    /// `sin_cos` per ray and one per return.
    fn reference_scan(
        scene: &Scene,
        config: &LidarConfig,
        pose: Point3,
        yaw: f32,
        seed: u64,
    ) -> LidarScan {
        let mut rng = crate::datasets::rng(seed);
        let origin = pose + Point3::new(0.0, 0.0, config.sensor_height);
        let mut cloud = PointCloud::new();
        let mut rings = Vec::new();
        for beam in 0..config.beams {
            let pitch = config.vertical_fov.0
                + (config.vertical_fov.1 - config.vertical_fov.0) * beam as f32
                    / (config.beams.max(2) - 1) as f32;
            let (sp, cp) = pitch.sin_cos();
            for step in 0..config.azimuth_steps {
                let az = yaw + std::f32::consts::TAU * step as f32 / config.azimuth_steps as f32;
                let (sa, ca) = az.sin_cos();
                let dir = Point3::new(cp * ca, cp * sa, sp);
                if let Some(range) = scene.raycast(origin, dir, config.max_range) {
                    let noisy = range + gauss(&mut rng) * config.range_noise;
                    let world = origin + dir * noisy;
                    let rel = world - origin;
                    let (sy, cy) = (-yaw).sin_cos();
                    let local =
                        Point3::new(rel.x * cy - rel.y * sy, rel.x * sy + rel.y * cy, rel.z);
                    cloud.push(local);
                    rings.push(beam as u16);
                }
            }
        }
        LidarScan {
            cloud,
            rings,
            sensor_origin: origin,
        }
    }

    /// The bits of every coordinate, the sensor origin's last.
    fn bits(sweep: &LidarScan) -> Vec<u32> {
        sweep
            .cloud
            .points()
            .iter()
            .chain([&sweep.sensor_origin])
            .flat_map(|p| [p.x, p.y, p.z])
            .map(f32::to_bits)
            .collect()
    }

    #[test]
    fn scan_matches_brute_force_reference_bit_for_bit() {
        use std::f32::consts::{FRAC_PI_2, PI};
        // Yaws from ±π up to where the f32 spacing of `yaw` is wider
        // than a column, then wider than a turn, and not finite.
        const YAWS: [f32; 12] = [
            -PI,
            PI,
            0.0,
            1e3,
            1e6,
            -2e6,
            1e7,
            -3e7,
            1e9,
            1e20,
            f32::INFINITY,
            f32::NAN,
        ];
        let mut rng = crate::datasets::rng(0x11da5);
        for case in 0..200u64 {
            let extent = rng.random_range(10.0f32..60.0);
            let mut scene = Scene::urban(
                case,
                extent,
                rng.random_range(0..30),
                rng.random_range(0..16),
            );
            let pose = Point3::new(
                rng.random_range(-extent..extent),
                rng.random_range(-3.0f32..3.0),
                0.0,
            );
            let mut yaw = if case % 3 == 0 {
                YAWS[(case / 3) as usize % YAWS.len()]
            } else {
                rng.random_range(-10.0..10.0)
            };
            // Geometry at the sensor: a footprint holding it, a pole
            // around it, a pole within the footprint margin of it; or,
            // at yaw 0, a box side and a pole grazing column 0's rays,
            // which only the margins keep in that column.
            match case % 4 {
                0 => scene.boxes.push(Aabb::new(
                    pose + Point3::new(-1.0, -0.5, rng.random_range(-1.0..1.5)),
                    pose + Point3::new(0.5, 1.0, rng.random_range(1.5..6.0)),
                )),
                1 => scene.poles.push((pose.x + 0.03, pose.y - 0.02, 0.1, 4.0)),
                2 => scene
                    .poles
                    .push((pose.x + 0.2, pose.y, rng.random_range(0.12..0.2), 4.0)),
                _ => {
                    yaw = 0.0;
                    let side: f32 = if case % 8 == 3 { 1.0 } else { -1.0 };
                    scene.boxes.push(Aabb::new(
                        pose + Point3::new(5.3, side.min(0.0) * 1.7, 0.0),
                        pose + Point3::new(7.9, side.max(0.0) * 1.7, 4.0),
                    ));
                    scene
                        .poles
                        .push((pose.x + 3.0, pose.y + side * 0.1, 0.1, 4.0));
                }
            }
            let config = LidarConfig {
                beams: rng.random_range(1..17),
                azimuth_steps: match case % 10 {
                    0 => 1,
                    1 => 2,
                    2 => 3,
                    _ => rng.random_range(4..400),
                },
                // Now and then beams at and past vertical.
                vertical_fov: match case % 25 {
                    0 => (-1.8, 1.8),
                    1 => (-FRAC_PI_2, FRAC_PI_2),
                    _ => (rng.random_range(-0.6..-0.1), rng.random_range(-0.1..0.3)),
                },
                max_range: rng.random_range(5.0..120.0),
                range_noise: rng.random_range(0.0..0.05),
                sensor_height: rng.random_range(0.5..3.0),
            };
            let seed = rng.random::<u64>();
            let got = scan(&scene, &config, pose, yaw, seed);
            let want = reference_scan(&scene, &config, pose, yaw, seed);
            assert!(
                bits(&got) == bits(&want) && got.rings == want.rings,
                "case {case}: {} points vs {} from the reference",
                got.cloud.len(),
                want.cloud.len()
            );
        }
    }

    #[test]
    fn empty_configs_return_empty_sweeps() {
        let scene = Scene::urban(3, 40.0, 15, 8);
        let pose = Point3::new(1.0, 2.0, 0.0);
        for (beams, azimuth_steps) in [(0, 360), (16, 0), (0, 0)] {
            let config = LidarConfig {
                beams,
                azimuth_steps,
                ..LidarConfig::default()
            };
            let sweep = scan(&scene, &config, pose, 0.5, 9);
            assert!(sweep.cloud.is_empty() && sweep.rings.is_empty());
            assert_eq!(
                sweep.sensor_origin,
                Point3::new(1.0, 2.0, config.sensor_height)
            );
        }
    }
}
