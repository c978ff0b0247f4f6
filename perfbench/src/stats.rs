//! The benchmark's own arithmetic: percentiles and the tail-sample
//! rule, medians of per-round figures, failure counting, and telling a
//! cache hit from a miss by the solver counter.

use streamgrid_core::nearest_rank;

/// A reported percentile needs at least this many samples strictly
/// beyond it; fewer, and the "tail" is a handful of outliers.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The 1-indexed nearest rank of quantile `q` over `n` samples:
/// `ceil(q·n)` clamped to `[1, n]` — the definition
/// [`streamgrid_core::nearest_rank`] uses (0 when `n == 0`).
pub fn rank(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples ranked strictly beyond the nearest-rank `q` percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Whether `n` samples support reporting the `q` percentile.
pub fn tail_supported(n: usize, q: f64) -> bool {
    samples_beyond(n, q) >= MIN_TAIL_SAMPLES
}

/// Nearest-rank percentile of nanosecond samples, in milliseconds.
pub fn percentile_ms(samples_ns: &[u64], q: f64) -> f64 {
    nearest_rank(samples_ns, q) as f64 / 1e6
}

/// Nearest-rank percentile of nanosecond samples, in microseconds.
pub fn percentile_us(samples_ns: &[u64], q: f64) -> f64 {
    nearest_rank(samples_ns, q) as f64 / 1e3
}

/// The median of per-round figures: the middle value, or the mean of
/// the middle two (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Everything that counts as a failed operation. A frame or request
/// that fails, is shed, or is refused counts once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// Executed frames whose report is not clean (overflow, stall or a
    /// truncated run).
    pub non_clean: u64,
    /// Frames or requests that ended in a compile error.
    pub compile_errors: u64,
    /// Frames the server shed instead of executing.
    pub shed: u64,
    /// Submissions the server refused.
    pub rejected: u64,
}

impl Failures {
    /// Failed operations in total.
    pub fn total(&self) -> u64 {
        self.non_clean + self.compile_errors + self.shed + self.rejected
    }

    /// Failed operations over operations attempted (0 when nothing was
    /// attempted).
    pub fn error_rate(&self, attempted: u64) -> f64 {
        ratio(self.total() as f64, attempted as f64)
    }
}

/// How one `Session::compiled` call was served, read from the session's
/// solver counter around the call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Served from the cache: the counter did not move.
    Hit,
    /// Paid an ILP solve: the counter moved.
    Miss,
}

impl Lookup {
    /// Classifies a lookup from the solver counter before and after it.
    pub fn classify(solves_before: u64, solves_after: u64) -> Lookup {
        if solves_after > solves_before {
            Lookup::Miss
        } else {
            Lookup::Hit
        }
    }
}

/// A tiny deterministic generator (SplitMix64) for the benchmark's
/// inputs: the same seed always yields the same workload.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}
