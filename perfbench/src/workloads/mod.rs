//! The four workloads, and the measuring loop the three `Session`-based
//! ones share.

pub mod cold;
pub mod csvar;
pub mod lidar;
pub mod server;

use std::time::Instant;

use streamgrid_core::framework::ExecutionReport;
use streamgrid_core::source::StreamReport;

use crate::host::{peak_rss_mib, HostSpeed};
use crate::redrive::{self, FrameLog, ROUND};
use crate::stats::{median, percentile_ms, tail_supported};
use crate::trace::{self_times, Tracer};
use crate::{best_half, budgets, measure, run_rounds, setup_secs, Outcome, RunConfig, Tally};

/// Every workload, in the order `--short` runs them.
pub const NAMES: &[&str] = &[lidar::NAME, cold::NAME, server::NAME, csvar::NAME];

/// Runs workload `name`, or returns `None` for an unknown name.
pub fn run(name: &str, config: &RunConfig) -> Option<Outcome> {
    Some(match name {
        lidar::NAME => lidar::run(config),
        cold::NAME => cold::run(config),
        server::NAME => server::run(config),
        csvar::NAME => csvar::run(config),
        _ => return None,
    })
}

/// The percentile `latency_tail_ms` reports.
const TAIL_Q: f64 = 0.99;

/// What a public entry point returned for one call, kept from the first
/// untraced round to compare with the re-drive.
#[derive(Debug, Clone)]
pub enum Observed {
    /// A `Session::stream` result.
    Stream(StreamReport),
    /// A `Session::run` result.
    Run(Box<ExecutionReport>),
}

impl Observed {
    /// Whether the re-driven `StreamReport` equals this result.
    fn matches(&self, redriven: &StreamReport) -> bool {
        match self {
            Observed::Stream(report) => report == redriven,
            Observed::Run(report) => {
                redriven.frames.len() == 1 && redriven.frames[0].report == **report
            }
        }
    }
}

/// One untraced round of a `Session`-based workload.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall nanoseconds of each latency-measured call.
    pub latencies_ns: Vec<u64>,
    /// Report sums over the round's frames.
    pub tally: Tally,
    /// Calls attempted (frames or requests).
    pub attempted: u64,
    /// Calls that ended in a compile error.
    pub compile_errors: u64,
    /// ILP solves the round paid.
    pub solves: u64,
    /// Compile keys the round's sessions had not seen before.
    pub new_keys: u64,
    /// The calls' results, kept only when asked for.
    pub observed: Vec<Observed>,
    /// Host-speed probes taken before each measured call.
    pub speed: HostSpeed,
}

/// A workload that drives `Session`s through the public API, and can
/// re-drive the same round call by call.
pub trait FramePath {
    /// One untraced round; keeps the results when `keep`.
    fn round(&mut self, keep: bool) -> Round;

    /// The same round re-driven through [`redrive::stream`], returning
    /// the `StreamReport` of each call in order.
    fn redrive(&mut self, tracer: &mut Tracer, log: &mut FrameLog) -> Vec<StreamReport>;
}

/// How a `Session`-based workload reports.
#[derive(Debug, Clone, Copy)]
pub struct PathSpec {
    /// What `latency_p50_ms` stands for on this workload.
    pub p50_name: &'static str,
    /// What `latency_tail_ms` stands for on this workload.
    pub tail_name: &'static str,
    /// Threads the workload keeps busy at most.
    pub host_threads: usize,
    /// Keep every n-th re-driven frame for the oracle check.
    pub oracle_every: u64,
    /// Whether set-up ends with one full untraced round, so measured
    /// rounds find the cache warm.
    pub warm_up: bool,
}

/// Measures a `Session`-based workload: untraced rounds, with set-up
/// passes spread among them, for the end-to-end metrics; then the
/// re-drive — once and untimed for the output checks in an untraced
/// run, for half the budget in a traced run.
pub fn run_frame_path<P: FramePath>(
    config: &RunConfig,
    spec: &PathSpec,
    mut setup: impl FnMut() -> P,
) -> Outcome {
    let mut out = Outcome {
        host_threads: spec.host_threads,
        ..Outcome::default()
    };
    let (untraced, traced) = budgets(config);
    let mut warm_ups = Vec::new();
    let measured = measure(
        untraced,
        || {
            let mut path = setup();
            if spec.warm_up {
                warm_ups.push(path.round(false));
            }
            path
        },
        |path, i| path.round(i == 0),
    );
    for warm in &warm_ups {
        out.checks.check(
            "warm-up solves == distinct keys",
            warm.solves == warm.new_keys,
            || format!("{} solves for {} keys", warm.solves, warm.new_keys),
        );
    }
    let mut path = measured.state;
    let rounds = &measured.rounds;
    let first = &rounds[0].0;
    for (round, _) in rounds {
        out.attempted += round.attempted;
        out.failures.non_clean += round.tally.non_clean;
        out.failures.compile_errors += round.compile_errors;
        out.checks.check(
            "solves == distinct keys",
            round.solves == round.new_keys,
            || format!("{} solves for {} new keys", round.solves, round.new_keys),
        );
        out.checks.check(
            "modelled figures repeat every round",
            same_modelled(&round.tally, &first.tally),
            || format!("{:?} vs {:?}", round.tally, first.tally),
        );
    }

    let mut tracer = Tracer::new();
    let mut logs = Vec::new();
    // Traced rounds: (wall seconds, host slowdown read around the round).
    let mut traced_rounds = Vec::new();
    run_rounds(traced, |i| {
        let mut log = FrameLog::new(spec.oracle_every);
        let mut speed = HostSpeed::default();
        speed.probe();
        let t0 = Instant::now();
        let root = tracer.enter(ROUND, i as u64);
        let reports = path.redrive(&mut tracer, &mut log);
        tracer.exit(root);
        let wall = t0.elapsed().as_secs_f64();
        speed.probe();
        traced_rounds.push((wall, speed.slowdown()));
        if i == 0 {
            let same = reports.len() == first.observed.len()
                && first
                    .observed
                    .iter()
                    .zip(&reports)
                    .all(|(o, r)| o.matches(r));
            out.checks
                .check("re-drive equals the public entry point", same, || {
                    format!(
                        "{} re-driven reports vs {} observed, or a report differs",
                        reports.len(),
                        first.observed.len()
                    )
                });
            out.checks.check(
                "re-drive solves == distinct keys",
                log.misses == first.new_keys,
                || format!("{} misses for {} new keys", log.misses, first.new_keys),
            );
        }
        logs.push(log);
    });
    let oracle = redrive::check_oracle(&logs[0], &mut out.checks);
    let certify_ns = redrive::check_certify(&logs[0].designs, &mut out.checks);

    let error_rate = out.failures.error_rate(out.attempted);
    out.note("error_rate", error_rate, "ratio");
    // Each untraced round at a quiet host's speed: (work seconds, the
    // round); the better half of the rounds carries the figures.
    let normalized: Vec<(f64, &Round)> = rounds
        .iter()
        .map(|(round, wall)| {
            let work = wall.as_secs_f64() - round.speed.total_ns() as f64 / 1e9;
            (work / round.speed.slowdown(), round)
        })
        .collect();
    let best = best_half(&normalized, |(secs, _)| -secs);
    let best_secs: Vec<f64> = best.iter().map(|(secs, _)| *secs).collect();
    if config.trace {
        redrive::layer_metrics(&mut out.metrics, &tracer, &logs, &certify_ns, &oracle);
        let traced_secs: Vec<f64> = traced_rounds
            .iter()
            .map(|(wall, slow)| wall / slow)
            .collect();
        let best_traced = best_half(&traced_secs, |secs| -secs);
        let best_traced: Vec<f64> = best_traced.into_iter().copied().collect();
        out.metrics.set(
            "trace.overhead_frac",
            median(&best_traced) / median(&best_secs) - 1.0,
        );
        check_self_time(&tracer, &traced_rounds, &mut out);
        out.tracer = Some(tracer);
    } else {
        let latencies: Vec<u64> = best
            .iter()
            .flat_map(|(_, round)| {
                // Every measured call follows its own reading.
                round
                    .latencies_ns
                    .iter()
                    .enumerate()
                    .map(|(i, &ns)| (ns as f64 / round.speed.slowdown_at(i)) as u64)
            })
            .collect();
        let frames_per_s: Vec<f64> = best
            .iter()
            .map(|(secs, round)| round.tally.frames as f64 / secs)
            .collect();
        if !config.tiny {
            out.checks.check(
                "at least 10 latency samples beyond the tail percentile",
                tail_supported(latencies.len(), TAIL_Q),
                || format!("{} samples for p99", latencies.len()),
            );
        }
        let p50 = percentile_ms(&latencies, 0.5);
        let tail = percentile_ms(&latencies, TAIL_Q);
        let m = &mut out.metrics;
        m.set("setup_s", setup_secs(&measured.setups));
        m.set("frames_per_s", median(&frames_per_s));
        m.set("latency_p50_ms", p50);
        m.set("latency_tail_ms", tail);
        m.set("peak_rss_mib", peak_rss_mib());
        m.set("ok_rate", 1.0 - error_rate);
        first.tally.set_modelled(m);
        out.note(spec.p50_name, p50, "ms");
        out.note(spec.tail_name, tail, "ms");
        out.note(
            "latency samples (better half of rounds)",
            latencies.len() as f64,
            "count",
        );
        let slowdowns: Vec<f64> = rounds.iter().map(|(r, _)| r.speed.slowdown()).collect();
        out.note(
            "host slowdown, median over rounds",
            median(&slowdowns),
            "ratio",
        );
    }
    out.note("rounds", rounds.len() as f64, "count");
    out
}

/// Whether two rounds' modelled-design sums agree exactly.
fn same_modelled(a: &Tally, b: &Tally) -> bool {
    (a.frames, a.onchip_bytes, a.cycles, a.energy_uj.to_bits())
        == (b.frames, b.onchip_bytes, b.cycles, b.energy_uj.to_bits())
}

/// The traced rounds' self times must add up to their wall time, as
/// measured from outside the spans, within the span bookkeeping (1 %).
fn check_self_time(tracer: &Tracer, traced: &[(f64, f64)], out: &mut Outcome) {
    let spans_ns = self_times(tracer.spans()).iter().sum::<u64>() as f64;
    let wall_ns: f64 = traced.iter().map(|(wall, _)| wall * 1e9).sum();
    let gap = (wall_ns - spans_ns).abs() / wall_ns;
    out.checks.check(
        "layer self times add up to the traced wall time",
        gap <= 0.01,
        || format!("spans cover {spans_ns} ns of {wall_ns} ns"),
    );
    out.note("traced wall not covered by spans", gap, "ratio");
}
