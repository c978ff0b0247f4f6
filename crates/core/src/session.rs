//! Reusable pipeline sessions: compile once, execute many clouds —
//! optionally in parallel, optionally over a shared or persistent
//! schedule cache.
//!
//! Bench sweeps execute the same pipeline hundreds of times, and the ILP
//! solve dominates their wall-time. A [`Session`] amortizes it by
//! routing every compile through a [`ScheduleCache`] keyed by
//! `(spec, config, chunk_elements)`: the default [`InMemoryCache`] is
//! the session's private map, a [`crate::cache::SharedCache`] pools
//! solves across sessions, and a [`crate::cache::FileCache`] persists
//! them across processes. Frame *executions* are independent once
//! compiled, so [`Session::stream`] can fan them across worker threads
//! ([`StreamOptions::workers`]) with reports bit-identical to the
//! sequential path.
//!
//! [`InMemoryCache`]: crate::cache::InMemoryCache

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::cache::{spec_fingerprint, CompileRequest, InMemoryCache, ScheduleCache};
use crate::framework::{CompiledPipeline, ExecuteOptions, ExecutionReport};
use crate::pipeline::{CompileError, PipelineSpec};
use crate::source::{
    Frame, FrameReport, FrameSource, ReplaySource, SizeBucketing, StreamOptions, StreamReport,
};
use crate::transform::StreamGridConfig;

/// A reusable execution session over one [`PipelineSpec`].
///
/// Created by [`StreamGrid::session`](crate::framework::StreamGrid::session) (private in-memory cache) or
/// [`StreamGrid::session_builder`](crate::framework::StreamGrid::session_builder) (any [`ScheduleCache`]). The session
/// holds an active [`StreamGridConfig`] (switchable with
/// [`Session::set_config`]); the first run at a given
/// `(config, chunk_elements)` key pays one ILP solve — unless the cache
/// already holds it — and every later run reuses the schedule.
/// [`Session::solver_invocations`] reports the solves the session's
/// cache actually performed, so callers can assert the amortization they
/// expect; with a shared cache that count covers every session sharing
/// it.
///
/// # Examples
///
/// Three cloud sizes that share one chunking compile exactly once:
///
/// ```
/// use streamgrid_core::apps::AppDomain;
/// use streamgrid_core::framework::StreamGrid;
/// use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
///
/// let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
/// let mut session = fw.session(AppDomain::Classification.spec());
/// // 2397 and 2400 source elements both stream as 600-element chunks.
/// let reports = session.run_batch(&[2400, 2397, 2400]).unwrap();
/// assert_eq!(reports.len(), 3);
/// assert_eq!(session.solver_invocations(), 1);
/// assert!(reports.iter().all(|r| r.is_clean()));
/// ```
#[derive(Debug)]
pub struct Session {
    spec: PipelineSpec,
    /// The spec's stable textual identity and its hash, computed once:
    /// every compile request carries both, so caches can key on the
    /// cheap fingerprint and verify hits against the full identity.
    spec_repr: Box<str>,
    spec_fp: u64,
    config: StreamGridConfig,
    cache: Box<dyn ScheduleCache>,
    deny_lints: bool,
}

/// Configures a [`Session`] before opening it — most importantly which
/// [`ScheduleCache`] backs it. Created by [`StreamGrid::session_builder`](crate::framework::StreamGrid::session_builder).
///
/// # Examples
///
/// ```
/// use streamgrid_core::apps::AppDomain;
/// use streamgrid_core::cache::SharedCache;
/// use streamgrid_core::framework::StreamGrid;
/// use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
///
/// let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
/// let shared = SharedCache::new();
/// let mut session = fw
///     .session_builder(AppDomain::Classification.spec())
///     .with_cache(shared.clone())
///     .build();
/// assert!(session.run(4 * 300).unwrap().is_clean());
/// ```
#[derive(Debug)]
pub struct SessionBuilder {
    spec: PipelineSpec,
    config: StreamGridConfig,
    cache: Box<dyn ScheduleCache>,
    deny_lints: bool,
}

impl SessionBuilder {
    pub(crate) fn new(spec: PipelineSpec, config: StreamGridConfig) -> Self {
        SessionBuilder {
            spec,
            config,
            cache: Box::new(InMemoryCache::new()),
            deny_lints: false,
        }
    }

    /// Backs the session with `cache` instead of a fresh private
    /// [`InMemoryCache`] — pass a [`crate::cache::SharedCache`] clone to
    /// pool solves across sessions, or a [`crate::cache::FileCache`] to
    /// persist them across processes.
    pub fn with_cache(mut self, cache: impl ScheduleCache + 'static) -> Self {
        self.cache = Box::new(cache);
        self
    }

    /// Overrides the transform configuration the session starts with
    /// (the framework's config by default).
    pub fn with_config(mut self, config: StreamGridConfig) -> Self {
        self.config = config;
        self
    }

    /// Promotes linter findings (warnings included) to
    /// [`CompileError::LintDenied`]: every compile this session serves —
    /// [`Session::run`], [`Session::stream`], batches — fails instead of
    /// executing a design the linter flagged. Without this, findings
    /// still surface on [`ExecutionReport::lints`](crate::framework::ExecutionReport::lints).
    pub fn deny_lints(mut self) -> Self {
        self.deny_lints = true;
        self
    }

    /// Opens the session.
    pub fn build(self) -> Session {
        let spec_repr: Box<str> = crate::cache::spec_repr(&self.spec).into();
        Session {
            spec_fp: spec_fingerprint(&spec_repr),
            spec_repr,
            spec: self.spec,
            config: self.config,
            cache: self.cache,
            deny_lints: self.deny_lints,
        }
    }
}

impl Session {
    pub(crate) fn new(spec: PipelineSpec, config: StreamGridConfig) -> Self {
        SessionBuilder::new(spec, config).build()
    }

    /// The pipeline this session executes.
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// The active transform configuration.
    pub fn config(&self) -> &StreamGridConfig {
        &self.config
    }

    /// Switches the active transform configuration. Cached compilations
    /// persist — switching back to an earlier config re-hits its cache
    /// entries instead of re-solving.
    pub fn set_config(&mut self, config: StreamGridConfig) {
        self.config = config;
    }

    /// ILP solves the session's cache has performed. For the default
    /// private cache this is exactly the session's own solves (one per
    /// distinct `(config, chunk_elements)` key it compiled); for a
    /// shared or file cache it is the cache's total, which is the point
    /// — hits served by other sessions or a warm directory show up as
    /// solves *not* taken.
    pub fn solver_invocations(&self) -> u64 {
        self.cache.solver_invocations()
    }

    /// Number of distinct compiled designs resident in the cache.
    pub fn compiled_count(&self) -> usize {
        self.cache.compiled_count()
    }

    /// The compiled design for a cloud of `total_elements`, compiling
    /// (one ILP solve) on the first request per `(config,
    /// chunk_elements)` key and serving the cache afterwards.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the compile path.
    pub fn compiled(&mut self, total_elements: u64) -> Result<Arc<CompiledPipeline>, CompileError> {
        let req = CompileRequest::new(
            &self.spec,
            &self.spec_repr,
            self.spec_fp,
            &self.config,
            total_elements,
        );
        let compiled = self.cache.get_or_compile(&req)?;
        // The one choke point every session compile flows through —
        // run/run_batch/stream all land here, so denying lints in one
        // place covers them all (cache hits included: lints are part of
        // the compiled design).
        if self.deny_lints && !compiled.lints.is_empty() {
            let rendered: Vec<String> = compiled.lints.iter().map(|d| d.render()).collect();
            return Err(CompileError::LintDenied(rendered.join("\n")));
        }
        Ok(compiled)
    }

    /// The per-frame step of [`Session::stream`] and of the serving
    /// layer's scheduler: rounds `frame` up to its `bucketing` bucket
    /// and compiles that size through [`Session::compiled`]. The
    /// result's [`CompiledFrame::solves`] is the cache's solve-counter
    /// delta around the compile, exact whenever one thread compiles
    /// through the cache.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the compile path.
    pub fn compile_frame(
        &mut self,
        frame: Frame,
        bucketing: SizeBucketing,
    ) -> Result<CompiledFrame, CompileError> {
        let scheduled_elements = bucketing.bucket(frame.elements);
        let solves_before = self.cache.solver_invocations();
        let design = self.compiled(scheduled_elements)?;
        Ok(CompiledFrame {
            frame,
            scheduled_elements,
            design,
            solves: self.cache.solver_invocations() - solves_before,
        })
    }

    /// Streams every frame of `source` through the compiled pipeline
    /// and returns a [`StreamReport`]: per-frame execution reports plus
    /// stream-level aggregates (total cycles, energy, frames per solve,
    /// p50/p95/max frame cycles).
    ///
    /// Each frame goes through [`Session::compile_frame`], which rounds
    /// its size up to its [`StreamOptions::bucketing`] bucket, so a
    /// stream of near-identical sweep sizes hits the `(config,
    /// chunk_elements)` compile cache instead of paying one ILP solve
    /// per unique frame size. [`StreamReport::solver_invocations`] is
    /// the sum of the frames' compile deltas, exact whenever one thread
    /// compiles through the cache.
    ///
    /// Every frame is pulled and compiled, on the calling thread and in
    /// arrival order, before any executes. With
    /// [`StreamOptions::workers`] > 1 the *executions* then fan out
    /// across that many scoped threads, each writing an ordered result
    /// slot; execution is deterministic, so the report is bit-identical
    /// to the sequential one.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CompileError`] from the compile path.
    ///
    /// # Examples
    ///
    /// A 16-frame stream of jittering sweep sizes costs one solve per
    /// 1024-element bucket, not one per frame — and four workers return
    /// the same report faster:
    ///
    /// ```
    /// use streamgrid_core::apps::AppDomain;
    /// use streamgrid_core::framework::StreamGrid;
    /// use streamgrid_core::source::{ReplaySource, SizeBucketing, StreamOptions};
    /// use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
    ///
    /// let sizes: Vec<u64> = (0..16).map(|i| 3000 + 64 * i).collect();
    /// let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
    /// let options = StreamOptions::bucketed(SizeBucketing::Quantize(1024));
    ///
    /// let mut session = fw.session(AppDomain::Registration.spec());
    /// let report = session.stream(ReplaySource::new(&sizes), &options).unwrap();
    /// assert_eq!(report.frame_count(), 16);
    /// assert!(report.solver_invocations < 16);
    /// assert!(report.all_clean());
    ///
    /// let mut parallel = fw.session(AppDomain::Registration.spec());
    /// let overlapped = parallel
    ///     .stream(ReplaySource::new(&sizes), &options.with_workers(4))
    ///     .unwrap();
    /// assert_eq!(overlapped, report, "workers never change results");
    /// ```
    pub fn stream<S: FrameSource>(
        &mut self,
        mut source: S,
        options: &StreamOptions,
    ) -> Result<StreamReport, CompileError> {
        let exec = options
            .exec
            .unwrap_or_else(|| ExecuteOptions::for_spec(&self.spec));
        // Reserve for the frames this call can pull: the source's hint,
        // at most `max_frames`, and never more than 2^16 up front.
        let (lower, upper) = source.size_hint();
        let capacity = (upper.unwrap_or(lower) as u64)
            .min(options.max_frames.unwrap_or(u64::MAX))
            .min(1 << 16) as usize;
        // Phase 1: pull and compile in arrival order on this thread —
        // cache behavior and solve counts are identical no matter how
        // many workers execute later.
        let mut compiled: Vec<CompiledFrame> = Vec::with_capacity(capacity);
        while options
            .max_frames
            .is_none_or(|max| (compiled.len() as u64) < max)
        {
            let Some(frame) = source.next_frame() else {
                break;
            };
            compiled.push(self.compile_frame(frame, options.bucketing)?);
        }
        // Phase 2: execute — inline, or overlapped across workers with
        // one ordered result slot per frame.
        Ok(StreamReport {
            frames: execute_ordered(&compiled, &exec, options.workers),
            solver_invocations: compiled.iter().map(|f| f.solves).sum(),
            bucketing: options.bucketing,
        })
    }

    /// Executes one cloud with the spec's default options (its datapath
    /// intensity, default energy model and seed), compiling only on a
    /// cache miss. A thin wrapper over [`Session::stream`] with a
    /// single-frame [`ReplaySource`] and exact bucketing.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the compile path.
    pub fn run(&mut self, total_elements: u64) -> Result<ExecutionReport, CompileError> {
        let options = ExecuteOptions::for_spec(&self.spec);
        self.run_with(total_elements, &options)
    }

    /// [`Session::run`] with explicit execution options.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`] from the compile path.
    pub fn run_with(
        &mut self,
        total_elements: u64,
        options: &ExecuteOptions,
    ) -> Result<ExecutionReport, CompileError> {
        let report = self.stream(
            ReplaySource::new(&[total_elements]),
            &StreamOptions::default().with_exec(*options),
        )?;
        Ok(report
            .frames
            .into_iter()
            .next()
            .expect("a one-entry replay yields exactly one frame")
            .report)
    }

    /// Executes many clouds sequentially, compiling each distinct
    /// `(config, chunk_elements)` key exactly once. Reports come back
    /// in input order and equal fresh one-shot [`StreamGrid::execute`](crate::framework::StreamGrid::execute)
    /// calls. A thin wrapper over [`Session::stream`] with a
    /// [`ReplaySource`] and exact bucketing.
    ///
    /// # Errors
    ///
    /// Propagates the first [`CompileError`] from the compile path.
    pub fn run_batch(&mut self, sizes: &[u64]) -> Result<Vec<ExecutionReport>, CompileError> {
        let report = self.stream(ReplaySource::new(sizes), &StreamOptions::default())?;
        Ok(report.frames.into_iter().map(|f| f.report).collect())
    }
}

/// One frame after [`Session::compile_frame`]: bucketed, compiled
/// through the session's cache, and ready to execute.
#[derive(Debug, Clone)]
pub struct CompiledFrame {
    /// The frame as the source produced it.
    pub frame: Frame,
    /// Elements the design provisions for (the frame's bucket;
    /// `>= frame.elements`).
    pub scheduled_elements: u64,
    /// The compiled design for `scheduled_elements`.
    pub design: Arc<CompiledPipeline>,
    /// ILP solves this compile paid: 0 on a cache hit.
    pub solves: u64,
}

impl CompiledFrame {
    /// Executes the frame's design into its [`FrameReport`].
    pub fn execute(&self, options: &ExecuteOptions) -> FrameReport {
        FrameReport {
            frame: self.frame,
            scheduled_elements: self.scheduled_elements,
            report: self.design.execute(options),
        }
    }
}

/// Executes `compiled[i]` for every `i` under shared `options`,
/// returning reports in input order — the executor behind
/// [`Session::stream`].
///
/// `workers <= 1` runs inline. Otherwise at most
/// `min(workers, jobs)` scoped threads drain a shared index counter
/// (a thousand-frame stream never spawns a thousand threads); each
/// worker returns its `(index, report)` pairs through its join handle
/// and the results land in their ordered slots. Execution is
/// deterministic, so the output is bit-identical for every worker
/// count.
fn execute_ordered(
    compiled: &[CompiledFrame],
    options: &ExecuteOptions,
    workers: usize,
) -> Vec<FrameReport> {
    let workers = workers.min(compiled.len());
    if workers <= 1 {
        return compiled.iter().map(|c| c.execute(options)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut reports: Vec<Option<FrameReport>> = vec![None; compiled.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= compiled.len() {
                            break;
                        }
                        done.push((i, compiled[i].execute(options)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            for (i, report) in handle.join().expect("executor workers do not panic") {
                reports[i] = Some(report);
            }
        }
    });
    reports
        .into_iter()
        .map(|r| r.expect("every index was drained from the queue"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::AppDomain;
    use crate::framework::StreamGrid;
    use crate::transform::SplitConfig;

    fn csdt4() -> StreamGrid {
        StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)))
    }

    #[test]
    fn cache_hits_skip_solves() {
        let mut s = csdt4().session(AppDomain::Classification.spec());
        s.run(4 * 300).unwrap();
        s.run(4 * 300).unwrap();
        s.run(4 * 600).unwrap();
        assert_eq!(s.solver_invocations(), 2);
        assert_eq!(s.compiled_count(), 2);
    }

    #[test]
    fn chunk_elements_key_folds_equal_chunkings() {
        let mut s = csdt4().session(AppDomain::Classification.spec());
        // 2397 and 2400 total elements both round up to 600-element
        // chunks; 2401 needs 601-element chunks (ceiling division — no
        // element may be dropped).
        s.run(2400).unwrap();
        s.run(2397).unwrap();
        assert_eq!(s.solver_invocations(), 1);
        s.run(2401).unwrap();
        assert_eq!(s.solver_invocations(), 2);
    }

    #[test]
    fn config_switch_keeps_cache_warm() {
        let csdt = StreamGridConfig::cs_dt(SplitConfig::linear(4, 2));
        let base = StreamGridConfig::base();
        let mut s = StreamGrid::new(csdt).session(AppDomain::Classification.spec());
        s.run(4 * 300).unwrap();
        s.set_config(base);
        s.run(4 * 300).unwrap();
        assert_eq!(s.solver_invocations(), 2);
        // Switching back re-hits the first entry.
        s.set_config(csdt);
        s.run(4 * 300).unwrap();
        assert_eq!(s.solver_invocations(), 2);
    }

    #[test]
    fn session_reports_match_one_shot_execute() {
        let fw = csdt4();
        let mut s = fw.session(AppDomain::Registration.spec());
        let cached = s.run(4 * 400).unwrap();
        let fresh = fw.execute(AppDomain::Registration, 4 * 400).unwrap();
        assert_eq!(cached, fresh);
    }

    #[test]
    fn session_runs_resolve_and_record_exec_mode() {
        use crate::framework::{ExecMode, ExecuteOptions};
        use streamgrid_sim::EngineMode;

        let mut s = csdt4().session(AppDomain::Classification.spec());
        // Default options carry ExecMode::Auto: event-driven under CS+DT.
        let auto = s.run(4 * 300).unwrap();
        assert_eq!(auto.exec_mode, EngineMode::EventDriven);
        // Forcing the oracle through the same session changes the engine
        // but not one bit of the run report.
        let oracle = s
            .run_with(
                4 * 300,
                &ExecuteOptions::for_spec(&AppDomain::Classification.spec())
                    .with_exec_mode(ExecMode::CycleAccurate),
            )
            .unwrap();
        assert_eq!(oracle.exec_mode, EngineMode::CycleAccurate);
        assert_eq!(auto.run, oracle.run);
        // Base (variable latency) resolves Auto to the oracle.
        s.set_config(StreamGridConfig::base());
        assert_eq!(s.run(4 * 300).unwrap().exec_mode, EngineMode::CycleAccurate);
    }

    #[test]
    fn stream_replay_matches_run_batch() {
        use crate::source::{ReplaySource, StreamOptions};

        let sizes = [4 * 300, 4 * 450, 4 * 300, 4 * 600];
        let fw = csdt4();
        let mut batch_session = fw.session(AppDomain::Classification.spec());
        let mut stream_session = fw.session(AppDomain::Classification.spec());
        let batch = batch_session.run_batch(&sizes).unwrap();
        let stream = stream_session
            .stream(ReplaySource::new(&sizes), &StreamOptions::default())
            .unwrap();
        assert_eq!(stream.frame_count(), sizes.len() as u64);
        for (frame, report) in stream.frames.iter().zip(&batch) {
            assert_eq!(&frame.report, report);
            assert_eq!(frame.scheduled_elements, frame.frame.elements);
        }
        assert_eq!(
            stream.solver_invocations,
            batch_session.solver_invocations()
        );
        assert_eq!(stream.source_elements(), sizes.iter().sum::<u64>());
    }

    #[test]
    fn stream_bucketing_amortizes_solves() {
        use crate::source::{ReplaySource, SizeBucketing, StreamOptions};

        // 12 distinct sizes: Exact pays 12 solves, Quantize(1200) folds
        // them into 2 buckets (4800 and 6000).
        let sizes: Vec<u64> = (0..12u64).map(|i| 4000 + 100 * i).collect();
        let fw = csdt4();
        let mut exact = fw.session(AppDomain::Classification.spec());
        let exact_report = exact
            .stream(
                ReplaySource::new(&sizes),
                &StreamOptions::bucketed(SizeBucketing::Exact),
            )
            .unwrap();
        assert_eq!(exact_report.solver_invocations, 12);

        let mut bucketed = fw.session(AppDomain::Classification.spec());
        let bucketed_report = bucketed
            .stream(
                ReplaySource::new(&sizes),
                &StreamOptions::bucketed(SizeBucketing::Quantize(1200)),
            )
            .unwrap();
        assert_eq!(bucketed_report.solver_invocations, 2);
        assert_eq!(bucketed_report.frame_count(), 12);
        assert!(bucketed_report.all_clean());
        // Bucketing rounds work up, never down.
        assert!(bucketed_report.scheduled_elements() >= bucketed_report.source_elements());
        assert_eq!(
            exact_report.scheduled_elements(),
            exact_report.source_elements()
        );
        // Aggregates are well-formed.
        assert!(bucketed_report.frames_per_solve() > 1.0);
        assert!(bucketed_report.p50_frame_cycles() <= bucketed_report.p95_frame_cycles());
        assert!(bucketed_report.p95_frame_cycles() <= bucketed_report.max_frame_cycles());
        assert!(bucketed_report.total_cycles() >= bucketed_report.max_frame_cycles());
    }

    #[test]
    fn stream_solver_invocations_count_only_this_stream() {
        use crate::source::{ReplaySource, StreamOptions};

        let mut s = csdt4().session(AppDomain::Classification.spec());
        // The shared per-frame step: the first compile of a bucket pays
        // its solve, a second one hits and shares the design.
        let frame = Frame::synthetic(0, 4 * 300);
        let first = s.compile_frame(frame, SizeBucketing::Exact).unwrap();
        assert_eq!((first.solves, first.scheduled_elements), (1, 4 * 300));
        let again = s.compile_frame(frame, SizeBucketing::Exact).unwrap();
        assert_eq!(again.solves, 0);
        assert!(Arc::ptr_eq(&first.design, &again.design));
        assert_eq!(s.solver_invocations(), 1);
        // The replayed size is already cached: the stream pays nothing.
        let report = s
            .stream(
                ReplaySource::new(&[4 * 300, 4 * 300]),
                &StreamOptions::default(),
            )
            .unwrap();
        assert_eq!(report.solver_invocations, 0);
        assert_eq!(s.solver_invocations(), 1);
        // Executing the step is the stream's per-frame report.
        assert_eq!(
            again.execute(&ExecuteOptions::for_spec(s.spec())),
            report.frames[0]
        );
        // Every frame hit the cache: infinitely many frames per solve.
        assert_eq!(report.frames_per_solve(), f64::INFINITY);
        // An empty stream pays no solve and executes nothing: 0, not 0/0.
        let empty = s
            .stream(ReplaySource::new(&[]), &StreamOptions::default())
            .unwrap();
        assert_eq!(empty.solver_invocations, 0);
        assert_eq!(empty.frames_per_solve(), 0.0);
    }

    #[test]
    fn stream_respects_max_frames() {
        use crate::source::{StreamOptions, SyntheticSource};

        let mut s = csdt4().session(AppDomain::Classification.spec());
        let report = s
            .stream(
                SyntheticSource::new(4 * 300, 100),
                &StreamOptions::default().with_max_frames(5),
            )
            .unwrap();
        assert_eq!(report.frame_count(), 5);
        assert_eq!(report.solver_invocations, 1);
    }

    #[test]
    fn stream_workers_match_sequential_bit_for_bit() {
        use crate::source::{ReplaySource, SizeBucketing, StreamOptions};

        let sizes: Vec<u64> = (0..10u64).map(|i| 1200 + 40 * i).collect();
        let fw = csdt4();
        let options = StreamOptions::bucketed(SizeBucketing::Quantize(400));
        let mut seq = fw.session(AppDomain::Classification.spec());
        let sequential = seq.stream(ReplaySource::new(&sizes), &options).unwrap();
        for workers in [2usize, 8] {
            let mut par = fw.session(AppDomain::Classification.spec());
            let parallel = par
                .stream(ReplaySource::new(&sizes), &options.with_workers(workers))
                .unwrap();
            assert_eq!(parallel, sequential, "{workers} workers changed the report");
        }
    }

    #[test]
    fn builder_defaults_match_plain_session() {
        let fw = csdt4();
        let mut plain = fw.session(AppDomain::Classification.spec());
        let mut built = fw.session_builder(AppDomain::Classification.spec()).build();
        assert_eq!(plain.run(4 * 300).unwrap(), built.run(4 * 300).unwrap());
        assert_eq!(plain.solver_invocations(), built.solver_invocations());
    }

    #[test]
    fn deny_lints_promotes_findings_to_compile_errors() {
        use crate::transform::TerminationConfig;

        // DT without CS is the SG004 lint: deadlines without bounded
        // chunks cannot keep results deterministic.
        let dt_only = StreamGridConfig {
            splitting: None,
            termination: Some(TerminationConfig::default()),
        };
        let fw = StreamGrid::new(dt_only);

        // A permissive session still runs and surfaces the finding on
        // the report.
        let mut lax = fw.session(AppDomain::Classification.spec());
        let report = lax.run(1200).unwrap();
        assert!(report.lints.warnings >= 1);
        assert!(report.lints.messages.iter().any(|m| m.contains("SG004")));

        // A denying session refuses to execute the same design.
        let mut strict = fw
            .session_builder(AppDomain::Classification.spec())
            .deny_lints()
            .build();
        match strict.run(1200) {
            Err(CompileError::LintDenied(msg)) => assert!(msg.contains("SG004")),
            other => panic!("expected LintDenied, got {other:?}"),
        }
    }

    #[test]
    fn deny_lints_passes_clean_pipelines() {
        let mut s = csdt4()
            .session_builder(AppDomain::Classification.spec())
            .deny_lints()
            .build();
        let report = s.run(4 * 300).unwrap();
        assert!(report.lints.is_clean());
    }
}
