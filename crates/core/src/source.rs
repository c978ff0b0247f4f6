//! Frame-based ingestion: the streaming counterpart of the one-shot
//! compile→execute surface.
//!
//! StreamGrid's workloads are *streams* — a LiDAR sensor sweeps ten
//! times a second, a renderer draws scene after scene — so the
//! first-class unit of execution is a [`Frame`] (one cloud's worth of
//! source elements) pulled from a [`FrameSource`]. A
//! [`crate::session::Session`] consumes a source with
//! [`crate::session::Session::stream`], executing every frame through
//! the compiled pipeline and returning a [`StreamReport`] with
//! per-frame results and stream-level aggregates.
//!
//! Real frame streams rarely repeat an exact size (every LiDAR sweep
//! returns a slightly different point count), and a naive per-size
//! compile would pay one ILP solve per frame. [`SizeBucketing`] rounds
//! frame sizes *up* to a bucket before compiling, trading a bounded
//! amount of over-provisioned work for compile-cache hits;
//! [`StreamReport::solver_invocations`] records the solves actually
//! paid so the amortization is testable.

use serde::{Deserialize, Serialize};
use streamgrid_pointcloud::PointCloud;
use streamgrid_verify::bucketing_blowup;

use crate::framework::{ExecuteOptions, ExecutionReport};

/// Per-frame payload statistics a source reports alongside the element
/// count (what the scheduler sees) — provenance for reports and
/// admission control, not an input to compilation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrameStats {
    /// Points the payload carries (for synthetic sources: the element
    /// count itself).
    pub points: u64,
    /// Serialized payload size in bytes.
    pub payload_bytes: u64,
}

/// One cloud's worth of streamed input: the unit
/// [`crate::session::Session::stream`] schedules and executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Frame {
    /// Monotone frame id within its source.
    pub id: u64,
    /// Source elements the frame streams through the pipeline (what the
    /// compiler's chunking divides).
    pub elements: u64,
    /// Payload statistics.
    pub stats: FrameStats,
}

impl Frame {
    /// A frame with no real payload behind it, `elements` wide (4-byte
    /// elements, matching the engine's buffer accounting).
    pub fn synthetic(id: u64, elements: u64) -> Self {
        Frame {
            id,
            elements,
            stats: FrameStats {
                points: elements,
                payload_bytes: elements * 4,
            },
        }
    }
}

/// A pull-based stream of [`Frame`]s.
///
/// Sources are consumed once, front to back; a finite source signals
/// exhaustion by returning `None`. Built-in adapters:
/// [`SyntheticSource`] (fixed-size frames), [`ReplaySource`] (a recorded
/// sequence of sizes), and [`DatasetSource`] (frames backed by real
/// generated point clouds, e.g. the dataset iterators in
/// `streamgrid_pointcloud::datasets::stream`).
///
/// # Examples
///
/// A custom source is a few lines — here, a sensor whose sweeps shrink
/// as it spins down:
///
/// ```
/// use streamgrid_core::source::{Frame, FrameSource};
///
/// struct SpinDown {
///     next: u64,
/// }
///
/// impl FrameSource for SpinDown {
///     fn next_frame(&mut self) -> Option<Frame> {
///         let elements = 1024u64.checked_sub(self.next * 256).filter(|&e| e > 0)?;
///         let id = self.next;
///         self.next += 1;
///         Some(Frame::synthetic(id, elements))
///     }
/// }
///
/// let mut source = SpinDown { next: 0 };
/// let sizes: Vec<u64> = std::iter::from_fn(|| source.next_frame())
///     .map(|f| f.elements)
///     .collect();
/// assert_eq!(sizes, [1024, 768, 512, 256]);
/// ```
pub trait FrameSource {
    /// Pulls the next frame, or `None` when the stream is exhausted.
    fn next_frame(&mut self) -> Option<Frame>;

    /// Bounds on the number of frames remaining, `Iterator`-style:
    /// `(lower, upper)` with `None` for "unknown / unbounded".
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }

    /// A cheap projection of how many frames remain, or `None` when the
    /// source cannot say without draining itself — what admission
    /// control (e.g. `streamgrid-serve`) uses to estimate a stream's
    /// load before committing pool capacity to it. The default derives
    /// the upper bound of [`FrameSource::size_hint`], so a source that
    /// implements only [`FrameSource::next_frame`] reports `None` and
    /// keeps its pre-existing behavior everywhere else.
    fn remaining_frames(&self) -> Option<u64> {
        self.size_hint().1.map(|n| n as u64)
    }
}

/// Forwarding impl so a session can stream from a borrowed source
/// without consuming it.
impl<S: FrameSource + ?Sized> FrameSource for &mut S {
    fn next_frame(&mut self) -> Option<Frame> {
        (**self).next_frame()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (**self).size_hint()
    }

    fn remaining_frames(&self) -> Option<u64> {
        (**self).remaining_frames()
    }
}

/// `frames` identical frames of `elements_per_frame` source elements —
/// the streaming spelling of the old scalar `run(total_elements)`
/// surface, and the right source for steady-state throughput studies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticSource {
    elements_per_frame: u64,
    frames: u64,
    next: u64,
}

impl SyntheticSource {
    /// A source of `frames` frames, each `elements_per_frame` wide.
    pub fn new(elements_per_frame: u64, frames: u64) -> Self {
        SyntheticSource {
            elements_per_frame,
            frames,
            next: 0,
        }
    }
}

impl FrameSource for SyntheticSource {
    fn next_frame(&mut self) -> Option<Frame> {
        if self.next >= self.frames {
            return None;
        }
        let frame = Frame::synthetic(self.next, self.elements_per_frame);
        self.next += 1;
        Some(frame)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.frames - self.next) as usize;
        (left, Some(left))
    }
}

/// Replays a recorded sequence of frame sizes — what
/// [`crate::session::Session::run_batch`] wraps, and the source to use
/// when reproducing a trace without its payloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplaySource {
    sizes: Vec<u64>,
    next: usize,
}

impl ReplaySource {
    /// A source replaying `sizes` in order, one frame per entry.
    pub fn new(sizes: &[u64]) -> Self {
        ReplaySource {
            sizes: sizes.to_vec(),
            next: 0,
        }
    }
}

impl FrameSource for ReplaySource {
    fn next_frame(&mut self) -> Option<Frame> {
        let &elements = self.sizes.get(self.next)?;
        let frame = Frame::synthetic(self.next as u64, elements);
        self.next += 1;
        Some(frame)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.sizes.len() - self.next;
        (left, Some(left))
    }
}

/// Bridges any iterator of point clouds (dataset generators, decoded
/// sensor logs) into a [`FrameSource`].
///
/// The bridge lives here rather than in `streamgrid-pointcloud` so the
/// substrate crate never depends on `streamgrid-core`: dataset streams
/// like `datasets::stream::LidarStream` yield their natural item types
/// and convert via `Into<PointCloud>`.
///
/// Each cloud of `n` points becomes a frame of
/// `n × elements_per_point` source elements (default 3 — one element
/// per coordinate, the `[n, 3]` input shape of Tbl. 1) with
/// [`FrameStats`] recording the point count and a 12-byte-per-point
/// payload estimate.
#[derive(Debug, Clone)]
pub struct DatasetSource<I> {
    iter: I,
    elements_per_point: u64,
    next_id: u64,
}

impl<I> DatasetSource<I>
where
    I: Iterator,
    I::Item: Into<PointCloud>,
{
    /// Wraps `iter` with the default 3 elements per point.
    pub fn new(iter: I) -> Self {
        DatasetSource {
            iter,
            elements_per_point: 3,
            next_id: 0,
        }
    }

    /// Overrides how many source elements each point contributes.
    ///
    /// # Panics
    ///
    /// Panics if `elements_per_point` is zero.
    pub fn with_elements_per_point(mut self, elements_per_point: u64) -> Self {
        assert!(elements_per_point > 0, "a point must map to ≥ 1 element");
        self.elements_per_point = elements_per_point;
        self
    }
}

impl<I> FrameSource for DatasetSource<I>
where
    I: Iterator,
    I::Item: Into<PointCloud>,
{
    fn next_frame(&mut self) -> Option<Frame> {
        let cloud: PointCloud = self.iter.next()?.into();
        let points = cloud.len() as u64;
        let frame = Frame {
            id: self.next_id,
            // An empty sweep still occupies a schedule slot: floor at
            // one element so the compiler always has work to place.
            elements: (points * self.elements_per_point).max(1),
            stats: FrameStats {
                points,
                payload_bytes: points * 12,
            },
        };
        self.next_id += 1;
        Some(frame)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.iter.size_hint()
    }
}

/// How frame sizes map to compile-cache buckets.
///
/// Compiling pays one ILP solve per distinct `(config, chunk_elements)`
/// key, so a stream of ever-so-slightly different frame sizes would
/// solve on almost every frame. Bucketing rounds each frame size **up**
/// to a bucket before compiling: the schedule provisions for the bucket
/// (never less than the frame, so deterministic-termination guarantees
/// hold), and all frames in a bucket share one solve. The trade-off is
/// explicit: larger buckets mean more rounded-up work per frame but
/// fewer solves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SizeBucketing {
    /// No rounding: one compile per distinct frame size. Right for
    /// replayed traces with few distinct sizes.
    #[default]
    Exact,
    /// Round up to the next power of two: at most `log2(max/min)`
    /// buckets over any size range, ≤ 2× scheduled overhead per frame.
    Pow2,
    /// Round up to the next multiple of `step` elements: overhead is
    /// bounded by `step - 1` elements per frame.
    Quantize(u64),
}

impl SizeBucketing {
    /// The bucket `elements` falls in — always `>= elements.max(1)`.
    pub fn bucket(self, elements: u64) -> u64 {
        let elements = elements.max(1);
        match self {
            SizeBucketing::Exact => elements,
            SizeBucketing::Pow2 => elements.next_power_of_two(),
            SizeBucketing::Quantize(step) => {
                let step = step.max(1);
                elements.div_ceil(step) * step
            }
        }
    }
}

/// Knobs for [`crate::session::Session::stream`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamOptions {
    /// Frame-size → compile-bucket policy ([`SizeBucketing::Exact`] by
    /// default).
    pub bucketing: SizeBucketing,
    /// Execution options; `None` uses the spec's defaults
    /// ([`ExecuteOptions::for_spec`]).
    pub exec: Option<ExecuteOptions>,
    /// Stop after this many frames even if the source has more — the
    /// way to stream a bounded prefix of an unbounded source.
    pub max_frames: Option<u64>,
    /// Worker threads the frame *executions* fan out across. `0` and
    /// `1` both execute inline; frames are always pulled and compiled
    /// in arrival order on the calling thread, and executions are
    /// deterministic, so every worker count produces a bit-identical
    /// [`StreamReport`].
    pub workers: usize,
}

impl StreamOptions {
    /// Defaults with the given bucketing policy.
    pub fn bucketed(bucketing: SizeBucketing) -> Self {
        StreamOptions {
            bucketing,
            ..StreamOptions::default()
        }
    }

    /// Defaults with frame executions overlapped across `workers`
    /// threads (see [`StreamOptions::workers`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use streamgrid_core::source::StreamOptions;
    ///
    /// let options = StreamOptions::workers(4);
    /// assert_eq!(options.workers, 4);
    /// assert_eq!(options.bucketing, Default::default());
    /// ```
    pub fn workers(workers: usize) -> Self {
        StreamOptions {
            workers,
            ..StreamOptions::default()
        }
    }

    /// Returns the options with explicit execution options.
    pub fn with_exec(mut self, exec: ExecuteOptions) -> Self {
        self.exec = Some(exec);
        self
    }

    /// Returns the options with a frame cap.
    pub fn with_max_frames(mut self, max_frames: u64) -> Self {
        self.max_frames = Some(max_frames);
        self
    }

    /// Returns the options with the execution worker count replaced.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
}

/// One streamed frame's result: the frame, the bucket it was scheduled
/// at, and the full execution report.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameReport {
    /// The frame as the source produced it.
    pub frame: Frame,
    /// Elements the compiled schedule provisioned for (the frame's
    /// [`SizeBucketing`] bucket; `>= frame.elements`).
    pub scheduled_elements: u64,
    /// The frame's compile + run + energy report.
    pub report: ExecutionReport,
}

/// The result of streaming a [`FrameSource`] through a session:
/// per-frame reports plus stream-level aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Per-frame results, in arrival order.
    pub frames: Vec<FrameReport>,
    /// ILP solves this stream paid: the sum of its frames' compile
    /// deltas ([`crate::session::CompiledFrame::solves`]), exact
    /// whenever one thread compiles through the cache. Solves already
    /// cached by earlier session use cost nothing here.
    pub solver_invocations: u64,
    /// The bucketing policy the stream ran under.
    pub bucketing: SizeBucketing,
}

impl StreamReport {
    /// Frames executed.
    pub fn frame_count(&self) -> u64 {
        self.frames.len() as u64
    }

    /// Source elements the frames actually carried.
    pub fn source_elements(&self) -> u64 {
        self.frames.iter().map(|f| f.frame.elements).sum()
    }

    /// Elements the schedules provisioned for (bucket sizes). The
    /// difference to [`StreamReport::source_elements`] is the price of
    /// bucketing.
    pub fn scheduled_elements(&self) -> u64 {
        self.frames.iter().map(|f| f.scheduled_elements).sum()
    }

    /// Total simulated cycles across all frames.
    pub fn total_cycles(&self) -> u64 {
        self.frames.iter().map(|f| f.report.run.cycles).sum()
    }

    /// Total energy across all frames in microjoules.
    pub fn total_uj(&self) -> f64 {
        self.frames.iter().map(|f| f.report.total_uj()).sum()
    }

    /// Frames executed per ILP solve paid — the amortization factor
    /// bucketing buys. Infinite when a non-empty stream hit the cache on
    /// every frame; 0 for an empty stream, which executed nothing.
    pub fn frames_per_solve(&self) -> f64 {
        if self.frames.is_empty() {
            return 0.0;
        }
        self.frames.len() as f64 / self.solver_invocations as f64
    }

    /// Median per-frame cycles (nearest-rank; 0 on an empty stream).
    pub fn p50_frame_cycles(&self) -> u64 {
        self.percentile_frame_cycles(0.50)
    }

    /// 95th-percentile per-frame cycles (nearest-rank; 0 on an empty
    /// stream).
    pub fn p95_frame_cycles(&self) -> u64 {
        self.percentile_frame_cycles(0.95)
    }

    /// 99th-percentile per-frame cycles (nearest-rank; 0 on an empty
    /// stream) — the tail bucket SLO reporting cares about: p95 hides a
    /// 1-in-50 straggler, the max is a single outlier, p99 is the
    /// contract a serving layer can reasonably promise.
    pub fn p99_frame_cycles(&self) -> u64 {
        self.percentile_frame_cycles(0.99)
    }

    /// Worst per-frame cycles (0 on an empty stream).
    pub fn max_frame_cycles(&self) -> u64 {
        self.frames
            .iter()
            .map(|f| f.report.run.cycles)
            .max()
            .unwrap_or(0)
    }

    /// `true` when every frame's report [`ExecutionReport::is_clean`]:
    /// no overflow, no stall, no truncation, stream-wide.
    pub fn all_clean(&self) -> bool {
        self.frames.iter().all(|f| f.report.is_clean())
    }

    /// Lint warnings across the stream: every frame's compile-time
    /// diagnostics, plus a per-frame bucketing-blowup check (SG003) of
    /// the frame's *actual* size against its scheduled bucket — a
    /// finding only the stream can make, since the compiler sees only
    /// the bucket.
    pub fn lint_warning_count(&self) -> u64 {
        self.frames
            .iter()
            .map(|f| {
                f.report.lints.warnings
                    + u64::from(bucketing_blowup(f.frame.elements, f.scheduled_elements).is_some())
            })
            .sum()
    }

    /// Distinct rendered lint messages across the stream, in first-seen
    /// order. Compile lints repeat on every frame sharing a bucket;
    /// deduplication keeps the stream-level view readable.
    pub fn lint_messages(&self) -> Vec<String> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for f in &self.frames {
            let blowup = bucketing_blowup(f.frame.elements, f.scheduled_elements);
            for m in f
                .report
                .lints
                .messages
                .iter()
                .cloned()
                .chain(blowup.map(|d| d.render()))
            {
                if seen.insert(m.clone()) {
                    out.push(m);
                }
            }
        }
        out
    }

    /// Nearest-rank percentile of per-frame cycles, `q` in `[0, 1]`.
    fn percentile_frame_cycles(&self, q: f64) -> u64 {
        let cycles: Vec<u64> = self.frames.iter().map(|f| f.report.run.cycles).collect();
        nearest_rank(&cycles, q)
    }
}

/// Nearest-rank percentile over `samples`, `q` in `[0, 1]`: the
/// smallest sample such that at least `ceil(q·n)` samples are `<=` it
/// (0 on an empty slice). This is the **one** percentile definition the
/// workspace reports against — [`StreamReport`]'s per-frame cycle
/// percentiles delegate here, and `streamgrid-serve`'s wall-clock
/// latency SLOs to [`nearest_rank_sorted`], the rank rule this applies,
/// so a p95 on a `StreamReport` and a p95 on a `ServerReport` can never
/// mean subtly different statistics.
///
/// # Examples
///
/// ```
/// use streamgrid_core::source::nearest_rank;
///
/// let samples: Vec<u64> = (1..=100).collect();
/// assert_eq!(nearest_rank(&samples, 0.50), 50);
/// assert_eq!(nearest_rank(&samples, 0.99), 99);
/// assert_eq!(nearest_rank(&samples, 1.00), 100);
/// assert_eq!(nearest_rank(&[], 0.5), 0);
/// ```
pub fn nearest_rank(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    nearest_rank_sorted(&sorted, q)
}

/// [`nearest_rank`] over samples already sorted ascending, without the
/// copy and sort: a caller reading several percentiles of one sample
/// set sorts it once and reads each here.
///
/// # Examples
///
/// ```
/// use streamgrid_core::source::{nearest_rank, nearest_rank_sorted};
///
/// let samples = [30, 10, 20, 50, 40];
/// let mut sorted = samples.to_vec();
/// sorted.sort_unstable();
/// for q in [0.0, 0.5, 0.95, 1.0] {
///     assert_eq!(nearest_rank_sorted(&sorted, q), nearest_rank(&samples, q));
/// }
/// ```
pub fn nearest_rank_sorted(sorted: &[u64], q: f64) -> u64 {
    debug_assert!(sorted.is_sorted(), "samples must be sorted ascending");
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_source_yields_fixed_frames() {
        let mut s = SyntheticSource::new(1200, 3);
        assert_eq!(s.size_hint(), (3, Some(3)));
        let frames: Vec<Frame> = std::iter::from_fn(|| s.next_frame()).collect();
        assert_eq!(frames.len(), 3);
        assert!(frames.iter().all(|f| f.elements == 1200));
        assert_eq!(
            frames.iter().map(|f| f.id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(s.size_hint(), (0, Some(0)));
    }

    #[test]
    fn replay_source_preserves_order() {
        let mut s = ReplaySource::new(&[5, 9, 2]);
        let sizes: Vec<u64> = std::iter::from_fn(|| s.next_frame())
            .map(|f| f.elements)
            .collect();
        assert_eq!(sizes, vec![5, 9, 2]);
    }

    #[test]
    fn dataset_source_counts_points() {
        use streamgrid_pointcloud::Point3;
        let clouds = vec![
            PointCloud::from_points(vec![Point3::ZERO; 10]),
            PointCloud::from_points(vec![Point3::ZERO; 4]),
            PointCloud::new(),
        ];
        let mut s = DatasetSource::new(clouds.into_iter());
        let a = s.next_frame().unwrap();
        assert_eq!(
            (a.elements, a.stats.points, a.stats.payload_bytes),
            (30, 10, 120)
        );
        let b = s.next_frame().unwrap();
        assert_eq!(b.elements, 12);
        // Empty clouds still schedule one element.
        let c = s.next_frame().unwrap();
        assert_eq!((c.elements, c.stats.points), (1, 0));
        assert!(s.next_frame().is_none());
    }

    #[test]
    fn bucketing_rounds_up() {
        assert_eq!(SizeBucketing::Exact.bucket(937), 937);
        assert_eq!(SizeBucketing::Exact.bucket(0), 1);
        assert_eq!(SizeBucketing::Pow2.bucket(937), 1024);
        assert_eq!(SizeBucketing::Pow2.bucket(1024), 1024);
        assert_eq!(SizeBucketing::Quantize(500).bucket(937), 1000);
        assert_eq!(SizeBucketing::Quantize(500).bucket(1000), 1000);
        assert_eq!(
            SizeBucketing::Quantize(0).bucket(7),
            7,
            "0-step degrades to Exact"
        );
        for policy in [
            SizeBucketing::Exact,
            SizeBucketing::Pow2,
            SizeBucketing::Quantize(64),
        ] {
            for e in [0u64, 1, 63, 64, 65, 1000, 4096] {
                assert!(policy.bucket(e) >= e.max(1), "{policy:?} shrank {e}");
            }
        }
    }

    /// The nearest-rank definition, pinned: rank = ceil(q·n) clamped to
    /// [1, n], 1-indexed into the sorted samples. Shared verbatim by
    /// `StreamReport` cycle percentiles and the serving layer's
    /// wall-clock latency stats.
    #[test]
    fn nearest_rank_percentile_definition() {
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&hundred, 0.50), 50);
        assert_eq!(nearest_rank(&hundred, 0.95), 95);
        assert_eq!(nearest_rank(&hundred, 0.99), 99);
        assert_eq!(nearest_rank(&hundred, 1.00), 100);
        // q = 0 clamps to the first rank, never "zero samples".
        assert_eq!(nearest_rank(&hundred, 0.0), 1);
        // Order of the input never matters.
        assert_eq!(nearest_rank(&[30, 10, 20], 0.50), 20);
        // Small n: ceil(0.5 * 3) = 2 → second-smallest, ceil(0.99 * 3)
        // = 3 → the max; a singleton answers every quantile.
        assert_eq!(nearest_rank(&[7, 3, 5], 0.99), 7);
        assert_eq!(nearest_rank(&[42], 0.01), 42);
        assert_eq!(nearest_rank(&[], 0.99), 0);
    }

    #[test]
    fn remaining_frames_tracks_size_hint() {
        let mut s = SyntheticSource::new(100, 5);
        assert_eq!(s.remaining_frames(), Some(5));
        s.next_frame();
        assert_eq!(s.remaining_frames(), Some(4));
        let mut r = ReplaySource::new(&[5, 9]);
        assert_eq!(r.remaining_frames(), Some(2));
        r.next_frame();
        r.next_frame();
        assert_eq!(r.remaining_frames(), Some(0));
    }

    #[test]
    fn borrowed_sources_stream_without_moving() {
        // The `&mut S` forwarding impl: a generic consumer can take the
        // source by value or by mutable borrow.
        fn pull<S: FrameSource>(mut source: S) -> Option<Frame> {
            source.next_frame()
        }
        let mut s = ReplaySource::new(&[7, 8]);
        assert_eq!(pull(&mut s).unwrap().elements, 7);
        assert_eq!(s.next_frame().unwrap().elements, 8);
    }
}
