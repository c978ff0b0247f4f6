//! The traced frame path: `Session::stream` re-driven call by call
//! through public functions — pull → bucket → `compiled` → `execute` →
//! fold — with a span around each call, plus the per-layer metrics
//! computed from those spans.

use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use std::time::Instant;

use streamgrid_core::framework::{
    CompileSummary, CompiledPipeline, ExecMode, ExecuteOptions, ExecutionReport,
};
use streamgrid_core::pipeline::CompileError;
use streamgrid_core::session::Session;
use streamgrid_core::source::{FrameReport, FrameSource, StreamOptions, StreamReport};

use crate::metrics::Metrics;
use crate::stats::{percentile_ms, percentile_us, ratio, Lookup};
use crate::trace::{durations, root_time, self_time_by_name, Tracer};
use crate::{engine_index, Checks, Tally};

/// Root span of one traced round (the benchmark's own glue).
pub const ROUND: &str = "bench.round";
/// One call the workload makes into the public API.
pub const REQUEST: &str = "bench.request";
/// `FrameSource::next_frame`.
pub const PULL: &str = "pointcloud.pull";
/// `SizeBucketing::bucket`.
pub const BUCKET: &str = "source.bucket";
/// `Session::compiled` served from the cache.
pub const LOOKUP: &str = "cache.lookup";
/// `Session::compiled` that paid an ILP solve (certification included).
pub const SOLVE: &str = "optimizer.solve";
/// `CompiledPipeline::execute`.
pub const EXECUTE: &str = "sim.execute";
/// Building the `StreamReport` and reading its aggregates.
pub const FOLD: &str = "session.fold";

/// The layers self time is attributed to, with the spans each owns.
pub const LAYERS: &[(&str, &[&str])] = &[
    ("pointcloud", &[PULL]),
    ("core::source", &[BUCKET, FOLD]),
    ("core::cache", &[LOOKUP]),
    ("optimizer+ilp+verify", &[SOLVE]),
    ("sim", &[EXECUTE]),
    ("bench (its own glue)", &[ROUND, REQUEST]),
];

/// What one re-driven round did, beyond its spans.
#[derive(Debug, Default)]
pub struct FrameLog {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that solved.
    pub misses: u64,
    /// The summary of every design a miss produced.
    pub solved: Vec<CompileSummary>,
    /// Distinct designs the round executed, in first-use order.
    pub designs: Vec<Arc<CompiledPipeline>>,
    seen: HashSet<usize>,
    /// Distinct `(pipeline, scheduled elements)` keys.
    pub keys: BTreeSet<(String, u64)>,
    /// Per executed frame: execute nanoseconds, simulated cycles and
    /// the engine's label index.
    pub execs: Vec<(u64, u64, usize)>,
    /// Report sums over the executed frames.
    pub tally: Tally,
    /// Elements the frames carried.
    pub source_elements: u64,
    /// Elements their buckets provisioned.
    pub scheduled_elements: u64,
    /// Every `sample_every`-th executed frame, kept for the oracle check.
    pub samples: Vec<(Arc<CompiledPipeline>, ExecuteOptions, ExecutionReport)>,
    sample_every: u64,
}

impl FrameLog {
    /// An empty log keeping every `sample_every`-th frame for the
    /// oracle check.
    pub fn new(sample_every: u64) -> Self {
        FrameLog {
            sample_every: sample_every.max(1),
            ..FrameLog::default()
        }
    }

    fn note_design(&mut self, design: &Arc<CompiledPipeline>) {
        if self.seen.insert(Arc::as_ptr(design) as usize) {
            self.designs.push(Arc::clone(design));
        }
    }
}

/// Reads the aggregates a caller takes from a `StreamReport`, so the
/// fold costs the same whether traced or not.
pub fn aggregates(report: &StreamReport) {
    std::hint::black_box((
        report.total_cycles(),
        report.total_uj(),
        report.p50_frame_cycles(),
        report.p99_frame_cycles(),
        report.all_clean(),
        report.lint_warning_count(),
    ));
}

/// `Session::stream(source, options)` re-driven call by call, in the
/// order the session runs it (every pull and compile first, then every
/// execute, then the fold), under one [`REQUEST`] span.
///
/// # Errors
///
/// The first [`CompileError`], as `Session::stream` returns it.
pub fn stream<S: FrameSource>(
    tracer: &mut Tracer,
    log: &mut FrameLog,
    session: &mut Session,
    mut source: S,
    options: &StreamOptions,
    request: u64,
) -> Result<StreamReport, CompileError> {
    let root = tracer.enter(REQUEST, request);
    let result = stream_calls(tracer, log, session, &mut source, options, request);
    tracer.exit(root);
    result
}

fn stream_calls<S: FrameSource>(
    tracer: &mut Tracer,
    log: &mut FrameLog,
    session: &mut Session,
    source: &mut S,
    options: &StreamOptions,
    request: u64,
) -> Result<StreamReport, CompileError> {
    let exec = options
        .exec
        .unwrap_or_else(|| ExecuteOptions::for_spec(session.spec()));
    let solves_before = session.solver_invocations();
    let mut pulled = Vec::new();
    let mut designs = Vec::new();
    loop {
        if options
            .max_frames
            .is_some_and(|max| pulled.len() as u64 >= max)
        {
            break;
        }
        let span = tracer.enter(PULL, request);
        let frame = source.next_frame();
        tracer.exit(span);
        let Some(frame) = frame else {
            break;
        };
        tracer.relabel(span, PULL, frame.id);

        let span = tracer.enter(BUCKET, frame.id);
        let scheduled = options.bucketing.bucket(frame.elements);
        tracer.exit(span);

        let before = session.solver_invocations();
        let span = tracer.enter(LOOKUP, frame.id);
        let design = session.compiled(scheduled);
        tracer.exit(span);
        let design = design?;
        match Lookup::classify(before, session.solver_invocations()) {
            Lookup::Hit => log.hits += 1,
            Lookup::Miss => {
                tracer.relabel(span, SOLVE, frame.id);
                log.misses += 1;
                log.solved.push(design.summary());
            }
        }
        log.note_design(&design);
        log.keys
            .insert((session.spec().name().to_owned(), scheduled));
        log.source_elements += frame.elements;
        log.scheduled_elements += scheduled;
        pulled.push((frame, scheduled));
        designs.push(design);
    }

    let mut frames = Vec::with_capacity(pulled.len());
    for ((frame, scheduled_elements), design) in pulled.into_iter().zip(designs) {
        let span = tracer.enter(EXECUTE, frame.id);
        let report = design.execute(&exec);
        tracer.exit(span);
        let ns = tracer.spans()[span].duration_ns();
        log.execs
            .push((ns, report.run.cycles, engine_index(report.exec_mode)));
        if log.tally.frames.is_multiple_of(log.sample_every) {
            log.samples.push((design, exec, report.clone()));
        }
        log.tally.add(&report);
        frames.push(FrameReport {
            frame,
            scheduled_elements,
            report,
        });
    }

    let span = tracer.enter(FOLD, request);
    let report = StreamReport {
        frames,
        solver_invocations: session.solver_invocations() - solves_before,
        bucketing: options.bucketing,
    };
    aggregates(&report);
    tracer.exit(span);
    Ok(report)
}

/// Re-executes every sampled frame on the cycle-accurate oracle; the
/// report must equal the one the frame's own engine produced, the
/// engine tag excepted. Returns `(nanoseconds, cycles)` per oracle run.
pub fn check_oracle(log: &FrameLog, checks: &mut Checks) -> Vec<(u64, u64)> {
    let mut timings = Vec::with_capacity(log.samples.len());
    for (design, exec, report) in &log.samples {
        let t0 = Instant::now();
        let oracle = design.execute(&exec.with_exec_mode(ExecMode::CycleAccurate));
        timings.push((t0.elapsed().as_nanos() as u64, oracle.run.cycles));
        let same = oracle.run == report.run
            && oracle.compile == report.compile
            && oracle.energy == report.energy
            && oracle.lints == report.lints;
        checks.check("oracle re-execution matches the engine", same, || {
            format!(
                "{:?} ran {} cycles, the oracle {}",
                report.exec_mode, report.run.cycles, oracle.run.cycles
            )
        });
    }
    timings
}

/// Certifies every design; each certificate must be accepted. Returns
/// the wall nanoseconds of each `certify()`.
pub fn check_certify(designs: &[Arc<CompiledPipeline>], checks: &mut Checks) -> Vec<u64> {
    designs
        .iter()
        .map(|design| {
            let t0 = Instant::now();
            let cert = design.certify();
            let ns = t0.elapsed().as_nanos() as u64;
            checks.check("every distinct design certifies", cert.accepted(), || {
                cert.render()
            });
            ns
        })
        .collect()
}

/// The per-layer metrics of the frame path, from the traced rounds'
/// spans (timings, pooled over rounds) and the first round's log
/// (counts, which repeat every round).
pub fn layer_metrics(
    metrics: &mut Metrics,
    tracer: &Tracer,
    logs: &[FrameLog],
    certify_ns: &[u64],
    oracle: &[(u64, u64)],
) {
    let spans = tracer.spans();
    let wall = root_time(spans) as f64;
    let own = self_time_by_name(spans);
    let share = |name: &str| ratio(own.get(name).copied().unwrap_or(0) as f64, wall);
    let first = &logs[0];

    metrics.set(
        "pointcloud.pull_us_p50",
        percentile_us(&durations(spans, PULL), 0.5),
    );
    metrics.set("pointcloud.pull_share", share(PULL));
    metrics.set(
        "bucket.scheduled_over_source",
        ratio(
            first.scheduled_elements as f64,
            first.source_elements as f64,
        ),
    );
    metrics.set("bucket.distinct_keys", first.keys.len() as f64);

    let lookups = first.hits + first.misses;
    metrics.set("cache.lookups", lookups as f64);
    metrics.set("cache.hits", first.hits as f64);
    metrics.set("cache.misses", first.misses as f64);
    metrics.set("cache.hit_ratio", ratio(first.hits as f64, lookups as f64));
    metrics.set(
        "cache.hit_us_p50",
        percentile_us(&durations(spans, LOOKUP), 0.5),
    );

    let solves = durations(spans, SOLVE);
    metrics.set("optimizer.solves", first.misses as f64);
    metrics.set("optimizer.solve_ms_p50", percentile_ms(&solves, 0.5));
    metrics.set("optimizer.solve_ms_max", percentile_ms(&solves, 1.0));
    metrics.set("optimizer.solve_share", share(SOLVE));
    metrics.set(
        "ilp.bb_nodes",
        first.solved.iter().map(|s| s.solver_nodes).sum::<u64>() as f64,
    );
    metrics.set(
        "ilp.constraints",
        first
            .solved
            .iter()
            .map(|s| s.constraints as u64)
            .sum::<u64>() as f64,
    );
    metrics.set("verify.certify_ms_p50", percentile_ms(certify_ns, 0.5));

    let executes = durations(spans, EXECUTE);
    metrics.set("sim.exec_us_p50", percentile_us(&executes, 0.5));
    metrics.set("sim.exec_us_p99", percentile_us(&executes, 0.99));
    metrics.set("sim.exec_share", share(EXECUTE));
    // ns per simulated cycle per engine; the oracle also counts the
    // sampled oracle re-executions, so every workload measures it.
    let mut ns = [0u64; 3];
    let mut cycles = [0u64; 3];
    for &(t, c, engine) in logs.iter().flat_map(|l| &l.execs) {
        ns[engine] += t;
        cycles[engine] += c;
    }
    for &(t, c) in oracle {
        ns[1] += t;
        cycles[1] += c;
    }
    for (engine, name) in [
        "sim.ns_per_cycle.event",
        "sim.ns_per_cycle.cycle",
        "sim.ns_per_cycle.sharded",
    ]
    .into_iter()
    .enumerate()
    {
        metrics.set(name, ratio(ns[engine] as f64, cycles[engine] as f64));
    }
    first.tally.set_sim_counters(metrics);
    metrics.set(
        "session.fold_us",
        percentile_us(&durations(spans, FOLD), 0.5),
    );
}
