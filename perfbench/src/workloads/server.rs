//! `server-mix`: a `StreamServer` with one worker (plus the scheduler
//! thread) and a shared cache serves a 20/40/40 Interactive / Standard
//! / Background fleet over classification and registration at three
//! sizes. Half the fleet arrives through `submit_queued` under a ledger
//! that holds only the other half's projection, so tenants are admitted
//! from the waitlist as others finish; the last quarter brings compile
//! keys nobody has solved yet, which the scheduler thread pays for.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use streamgrid_core::apps::AppDomain;
use streamgrid_core::cache::SharedCache;
use streamgrid_core::framework::{CompileSummary, ExecuteOptions};
use streamgrid_core::source::{Frame, FrameSource, StreamOptions, SyntheticSource};
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_core::StreamGrid;
use streamgrid_serve::{
    LatencyStats, QosClass, ServerConfig, ServerReport, StreamServer, TenantSpec,
};

use crate::host::{peak_rss_mib, HostSpeed};
use crate::redrive::{self, FrameLog, PULL, ROUND};
use crate::stats::{median, percentile_us, ratio, tail_supported, Failures, SplitMix};
use crate::trace::{Span, Tracer};
use crate::{best_half, budgets, measure, run_rounds, setup_secs, Outcome, RunConfig, Tally};

/// The workload's name on the command line.
pub const NAME: &str = "server-mix";

/// Chunks per cloud: `linear(4, 2)` splitting.
const CHUNKS: u64 = 4;

/// The three base frame sizes tenants cycle through.
const SIZES: [u64; 3] = [1200, 2400, 3600];

/// One tenant of the fleet.
#[derive(Debug, Clone, Copy)]
struct Tenant {
    qos: QosClass,
    domain: AppDomain,
    elements: u64,
    /// Arrives through `submit_queued` instead of `submit`.
    queued: bool,
}

/// The seeded fleet.
#[derive(Debug, Clone)]
struct Fleet {
    tenants: Vec<Tenant>,
    frames: u64,
    /// Ledger tokens: the immediately admitted half's projection.
    capacity: u64,
    /// Distinct `(pipeline, chunk elements)` compile keys.
    keys: u64,
}

fn fleet(seed: u64, tenants: usize, frames: u64) -> Fleet {
    let mut rng = SplitMix::new(seed);
    // Each seed shifts the three base sizes by a few chunk elements; the
    // last quarter of the fleet brings sizes no earlier tenant uses.
    let shift: Vec<u64> = SIZES.iter().map(|_| CHUNKS * rng.below(4)).collect();
    let late = CHUNKS * (8 + rng.below(8));
    let tenants: Vec<Tenant> = (0..tenants)
        .map(|i| Tenant {
            qos: match i % 5 {
                0 => QosClass::Interactive,
                1 | 2 => QosClass::Standard,
                _ => QosClass::Background,
            },
            domain: if i % 2 == 0 {
                AppDomain::Classification
            } else {
                AppDomain::Registration
            },
            elements: SIZES[i % 3]
                + if 4 * i >= 3 * tenants {
                    late
                } else {
                    shift[i % 3]
                },
            queued: 2 * i >= tenants,
        })
        .collect();
    let keys: BTreeSet<(&str, u64)> = tenants
        .iter()
        .map(|t| (t.domain.pipeline_name(), t.elements.div_ceil(CHUNKS)))
        .collect();
    Fleet {
        capacity: tenants.iter().filter(|t| !t.queued).count() as u64 * frames,
        keys: keys.len() as u64,
        tenants,
        frames,
    }
}

fn config() -> StreamGridConfig {
    StreamGridConfig::cs_dt(SplitConfig::linear(CHUNKS as u32, 2))
}

/// Pull intervals `(start, end, frame id)` in nanoseconds since the
/// tracer's origin, shared with the scheduler thread.
type PullLog = Arc<Mutex<Vec<(u64, u64, u64)>>>;

/// Each tenant's source reads the host's speed every this many pulls,
/// on the scheduler thread, inside the server's run.
const PROBE_EVERY: u64 = 25;

/// What the fleet's sources share: host-speed readings, and in a traced
/// run the pull timings.
#[derive(Debug, Clone, Default)]
struct Probes {
    speed: Arc<Mutex<HostSpeed>>,
    pulls: Option<(Instant, PullLog)>,
}

/// A tenant's source as the benchmark hands it to the server: it reads
/// the host's speed now and then and, traced, times every pull.
struct ProbedSource {
    inner: SyntheticSource,
    pulled: u64,
    probes: Probes,
}

impl FrameSource for ProbedSource {
    fn next_frame(&mut self) -> Option<Frame> {
        if self.pulled.is_multiple_of(PROBE_EVERY) {
            self.probes
                .speed
                .lock()
                .expect("the probe log is never poisoned")
                .probe();
        }
        self.pulled += 1;
        let Some((origin, pulls)) = &self.probes.pulls else {
            return self.inner.next_frame();
        };
        let start = origin.elapsed().as_nanos() as u64;
        let frame = self.inner.next_frame();
        let end = origin.elapsed().as_nanos() as u64;
        let id = frame.map_or(u64::MAX, |f| f.id);
        pulls
            .lock()
            .expect("the pull log is never poisoned")
            .push((start, end, id));
        frame
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }

    fn remaining_frames(&self) -> Option<u64> {
        self.inner.remaining_frames()
    }
}

/// A server with the whole fleet submitted, every source wrapped in a
/// [`ProbedSource`] sharing `probes`.
fn build(fleet: &Fleet, probes: &Probes) -> StreamServer {
    let mut server = StreamServer::new(
        ServerConfig::default()
            .with_workers(1)
            .with_capacity(fleet.capacity),
    );
    for (i, t) in fleet.tenants.iter().enumerate() {
        let spec = TenantSpec::new(format!("{}-{i}", t.qos.name()), t.domain.spec(), config())
            .with_qos(t.qos);
        let source = ProbedSource {
            inner: SyntheticSource::new(t.elements, fleet.frames),
            pulled: 0,
            probes: probes.clone(),
        };
        // Refusals are counted on the report.
        let _ = if t.queued {
            server.submit_queued(spec, source)
        } else {
            server.submit(spec, source)
        };
    }
    server
}

/// Builds the fleet's server and runs it; returns the report, the run's
/// wall time without the probes, and the host slowdown read during it.
fn serve(fleet: &Fleet, pulls: Option<(Instant, PullLog)>) -> (ServerReport, Duration, f64) {
    let probes = Probes {
        speed: Arc::default(),
        pulls,
    };
    let server = build(fleet, &probes);
    let t0 = Instant::now();
    let report = server.run();
    let wall = t0.elapsed();
    let speed = probes
        .speed
        .lock()
        .expect("the probe log is never poisoned");
    let work = wall.saturating_sub(Duration::from_nanos(speed.total_ns()));
    (report, work, speed.slowdown())
}

/// One run of the fleet, reduced to what the metrics need.
#[derive(Debug)]
struct Summary {
    /// The run's wall time, probes excluded.
    wall: Duration,
    /// How much slower than a quiet host the run went.
    slowdown: f64,
    frames: u64,
    tally: Tally,
    failures: Failures,
    /// Per class, in `QosClass::ALL` order.
    classes: [LatencyStats; 3],
    solves: u64,
    admitted: u64,
    rejected: u64,
    queued_admissions: u64,
    shed: u64,
    degraded: u64,
    source_elements: u64,
    scheduled_elements: u64,
    /// Distinct designs the fleet ran: summary per (pipeline, scheduled).
    designs: BTreeMap<(&'static str, u64), CompileSummary>,
}

impl Summary {
    /// The run's seconds at a quiet host's speed.
    fn secs(&self) -> f64 {
        self.wall.as_secs_f64() / self.slowdown
    }

    /// A wall-clock figure of the run at a quiet host's speed.
    fn normalized(&self, ms: f64) -> f64 {
        ms / self.slowdown
    }
}

fn summarize(report: &ServerReport, fleet: &Fleet, wall: Duration, slowdown: f64) -> Summary {
    let mut tally = Tally::default();
    let mut designs = BTreeMap::new();
    let (mut source_elements, mut scheduled_elements) = (0, 0);
    for t in &report.tenants {
        for f in &t.stream.frames {
            tally.add(&f.report);
            source_elements += f.frame.elements;
            scheduled_elements += f.scheduled_elements;
            let pipeline = fleet_pipeline(fleet, t.id.0).pipeline_name();
            designs.insert((pipeline, f.scheduled_elements), f.report.compile);
        }
    }
    let attempted = fleet.tenants.len() as u64 * fleet.frames;
    let shed = report.shed_frames();
    let rejected = report.rejected * fleet.frames;
    let missing = attempted - tally.frames - shed;
    let classes = QosClass::ALL.map(|qos| report.class(qos).latency);
    Summary {
        wall,
        slowdown,
        frames: report.frame_count(),
        failures: Failures {
            non_clean: tally.non_clean,
            compile_errors: missing.saturating_sub(rejected),
            shed,
            rejected,
        },
        tally,
        classes,
        solves: report.solver_invocations,
        admitted: report.admitted,
        rejected: report.rejected,
        queued_admissions: report.queued_admissions,
        shed,
        degraded: report.degraded_frames(),
        source_elements,
        scheduled_elements,
        designs,
    }
}

/// The pipeline tenant `id` runs (ids follow submission order).
fn fleet_pipeline(fleet: &Fleet, id: u64) -> AppDomain {
    fleet.tenants[id as usize].domain
}

/// Checks every run makes of the server's report.
fn check_run(s: &Summary, fleet: &Fleet, tiny: bool, out: &mut Outcome) {
    let n = fleet.tenants.len() as u64;
    let c = &mut out.checks;
    c.check(
        "every tenant admitted, none refused",
        s.admitted == n && s.rejected == 0,
        || format!("{} admitted, {} rejected of {n}", s.admitted, s.rejected),
    );
    c.check(
        "queued half admitted from the waitlist",
        s.queued_admissions == fleet.tenants.iter().filter(|t| t.queued).count() as u64,
        || format!("{} queued admissions", s.queued_admissions),
    );
    c.check("solves == distinct keys", s.solves == fleet.keys, || {
        format!("{} solves for {} distinct keys", s.solves, fleet.keys)
    });
    c.check(
        "no frame fails, is shed or degraded",
        s.failures.total() == 0 && s.degraded == 0,
        || format!("{:?}, {} degraded", s.failures, s.degraded),
    );
    if !tiny {
        let frames = s.classes[0].frames;
        c.check(
            "at least 10 Interactive samples beyond p99",
            tail_supported(frames as usize, 0.99),
            || format!("{frames} Interactive frames"),
        );
    }
}

/// One-off output checks on a run's full report: a tenant equals a
/// direct `Session::stream` of its source, sampled frames replay
/// identically on the oracle, and every design certifies.
fn check_report(
    report: &ServerReport,
    fleet: &Fleet,
    out: &mut Outcome,
) -> (Vec<(u64, u64)>, Vec<u64>) {
    let fw = StreamGrid::new(config());
    let first = &fleet.tenants[0];
    let direct = fw.session(first.domain.spec()).stream(
        SyntheticSource::new(first.elements, fleet.frames),
        &StreamOptions::default(),
    );
    out.checks.check(
        "tenant 0 equals a direct Session::stream",
        direct
            .as_ref()
            .is_ok_and(|d| *d == report.tenants[0].stream),
        || "the server tenant's StreamReport differs".to_owned(),
    );

    // The designs, compiled again through one cache shared by the
    // checks: every distinct key solves once more.
    let cache = SharedCache::new();
    let mut log = FrameLog::new(1);
    let mut designs = Vec::new();
    let mut seen = BTreeSet::new();
    for t in &report.tenants {
        let domain = fleet_pipeline(fleet, t.id.0);
        let mut session = fw
            .session_builder(domain.spec())
            .with_cache(cache.clone())
            .build();
        for (k, f) in t.stream.frames.iter().enumerate() {
            let Ok(design) = session.compiled(f.scheduled_elements) else {
                continue;
            };
            if seen.insert((domain.pipeline_name(), f.scheduled_elements)) {
                designs.push(Arc::clone(&design));
            }
            if t.id.0 % 16 == 0 && k == 0 {
                log.samples.push((
                    design,
                    ExecuteOptions::for_spec(&domain.spec()),
                    f.report.clone(),
                ));
            }
        }
    }
    let oracle = redrive::check_oracle(&log, &mut out.checks);
    let certify = redrive::check_certify(&designs, &mut out.checks);
    (oracle, certify)
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Outcome {
    let (tenants, frames) = if config.tiny { (10, 4) } else { (64, 100) };
    let mut out = Outcome {
        host_threads: 2,
        ..Outcome::default()
    };
    // Set-up: the fleet, a server with it submitted, and a small
    // throwaway run that starts the threads and warms the code paths.
    let (untraced, traced) = budgets(config);
    let mut first_report = None;
    let measured = measure(
        untraced,
        || {
            let fleet = fleet(config.seed, tenants, frames);
            let warm = Fleet {
                tenants: fleet.tenants.iter().step_by(8).copied().collect(),
                frames: 2,
                capacity: 1 << 20,
                keys: 0,
            };
            let _ = build(&warm, &Probes::default()).run();
            drop(build(&fleet, &Probes::default()));
            fleet
        },
        |fleet, i| {
            let (report, wall, slowdown) = serve(fleet, None);
            let summary = summarize(&report, fleet, wall, slowdown);
            if i == 0 {
                first_report = Some(report);
            }
            summary
        },
    );
    let fleet = measured.state;
    let runs: Vec<Summary> = measured.rounds.into_iter().map(|(s, _)| s).collect();
    for s in &runs {
        out.attempted += fleet.tenants.len() as u64 * fleet.frames;
        let f = &mut out.failures;
        f.non_clean += s.failures.non_clean;
        f.compile_errors += s.failures.compile_errors;
        f.shed += s.failures.shed;
        f.rejected += s.failures.rejected;
        check_run(s, &fleet, config.tiny, &mut out);
        out.checks.check(
            "modelled figures repeat every round",
            s.tally
                == Tally {
                    backoff: s.tally.backoff,
                    ..runs[0].tally
                },
            || "a round's report sums differ".to_owned(),
        );
    }
    let report = first_report.expect("at least one round ran");
    let (oracle, certify_ns) = check_report(&report, &fleet, &mut out);
    drop(report);

    let error_rate = out.failures.error_rate(out.attempted);
    out.note("error_rate", error_rate, "ratio");
    // Medians over the better half of the runs (see `best_half`).
    let best = best_half(&runs, |s| -s.secs());
    let med = |f: &dyn Fn(&Summary) -> f64| median(&best.iter().map(|s| f(s)).collect::<Vec<_>>());
    if config.trace {
        let mut tracer = Tracer::new();
        let pulls: PullLog = Arc::default();
        let traced_runs = run_rounds(traced, |i| {
            let root = tracer.enter(ROUND, i as u64);
            let (report, wall, slowdown) =
                serve(&fleet, Some((tracer.origin(), Arc::clone(&pulls))));
            tracer.exit(root);
            for (start, end, id) in pulls
                .lock()
                .expect("the pull log is never poisoned")
                .drain(..)
            {
                tracer.record(Span {
                    name: PULL,
                    start_ns: start,
                    end_ns: end,
                    parent: Some(root),
                    id,
                });
            }
            summarize(&report, &fleet, wall, slowdown)
        });
        let traced: Vec<Summary> = traced_runs.into_iter().map(|(s, _)| s).collect();
        layer_metrics(&mut out, &tracer, &traced, &fleet, &certify_ns, &oracle);
        let best_traced = best_half(&traced, |s| -s.secs());
        let secs = |rs: &[&Summary]| median(&rs.iter().map(|s| s.secs()).collect::<Vec<_>>());
        out.metrics.set(
            "trace.overhead_frac",
            secs(&best_traced) / secs(&best) - 1.0,
        );
        out.tracer = Some(tracer);
    } else {
        let m = &mut out.metrics;
        m.set("setup_s", setup_secs(&measured.setups));
        m.set("frames_per_s", med(&|s| s.frames as f64 / s.secs()));
        m.set(
            "latency_p50_ms",
            med(&|s| s.normalized(s.classes[0].p50_ms)),
        );
        m.set(
            "latency_tail_ms",
            med(&|s| s.normalized(s.classes[0].p99_ms)),
        );
        m.set("peak_rss_mib", peak_rss_mib());
        m.set("ok_rate", 1.0 - error_rate);
        runs[0].tally.set_modelled(m);
        out.note(
            "interactive_p50_ms (queue + execute)",
            med(&|s| s.normalized(s.classes[0].p50_ms)),
            "ms",
        );
        out.note(
            "interactive_p95_ms (queue + execute)",
            med(&|s| s.normalized(s.classes[0].p95_ms)),
            "ms",
        );
        out.note(
            "interactive_p99_ms (queue + execute)",
            med(&|s| s.normalized(s.classes[0].p99_ms)),
            "ms",
        );
        out.note(
            "background_p99_ms (queue + execute)",
            med(&|s| s.normalized(s.classes[2].p99_ms)),
            "ms",
        );
        out.note(
            "Interactive samples per round",
            runs[0].classes[0].frames as f64,
            "count",
        );
        out.note(
            "host slowdown, median over rounds",
            median(&runs.iter().map(|s| s.slowdown).collect::<Vec<_>>()),
            "ratio",
        );
    }
    out.note("rounds", runs.len() as f64, "count");
    out
}

/// The server's per-layer metrics: the queue / execute split from the
/// `ServerReport`, the scheduler's source time from the timing wrapper,
/// and counts from the first traced run. Compile times inside the
/// server are not visible from outside and read 0.
fn layer_metrics(
    out: &mut Outcome,
    tracer: &Tracer,
    runs: &[Summary],
    fleet: &Fleet,
    certify_ns: &[u64],
    oracle: &[(u64, u64)],
) {
    let first = &runs[0];
    let med = |f: &dyn Fn(&Summary) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let pulls: Vec<u64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == PULL)
        .map(Span::duration_ns)
        .collect();
    let pull_ns: u64 = pulls.iter().sum();
    let wall_ns: f64 = runs.iter().map(|s| s.wall.as_nanos() as f64).sum();
    let exec_ms = |s: &Summary| {
        s.classes
            .iter()
            .map(|c| c.frames as f64 * c.mean_exec_ms)
            .sum::<f64>()
    };
    let exec_ns: f64 = runs.iter().map(|s| exec_ms(s) * 1e6).sum();
    let cycles: u64 = runs.iter().map(|s| s.tally.cycles).sum();
    let lookups = first.frames + first.shed;

    let m = &mut out.metrics;
    m.set("pointcloud.pull_us_p50", percentile_us(&pulls, 0.5));
    m.set("pointcloud.pull_share", ratio(pull_ns as f64, wall_ns));
    m.set(
        "bucket.scheduled_over_source",
        ratio(
            first.scheduled_elements as f64,
            first.source_elements as f64,
        ),
    );
    m.set("bucket.distinct_keys", fleet.keys as f64);
    m.set("cache.lookups", lookups as f64);
    m.set("cache.hits", (lookups - first.solves) as f64);
    m.set("cache.misses", first.solves as f64);
    m.set(
        "cache.hit_ratio",
        ratio((lookups - first.solves) as f64, lookups as f64),
    );
    m.set("optimizer.solves", first.solves as f64);
    m.set(
        "ilp.bb_nodes",
        first.designs.values().map(|d| d.solver_nodes).sum::<u64>() as f64,
    );
    m.set(
        "ilp.constraints",
        first
            .designs
            .values()
            .map(|d| d.constraints as u64)
            .sum::<u64>() as f64,
    );
    m.set(
        "verify.certify_ms_p50",
        crate::stats::percentile_ms(certify_ns, 0.5),
    );
    m.set("sim.exec_share", ratio(exec_ns, wall_ns));
    // Every server frame runs on the event engine (CS+DT); the oracle
    // figure comes from the sampled oracle re-executions.
    m.set("sim.ns_per_cycle.event", ratio(exec_ns, cycles as f64));
    let (oracle_ns, oracle_cycles) = oracle.iter().fold((0, 0), |(n, c), &(t, k)| (n + t, c + k));
    m.set(
        "sim.ns_per_cycle.cycle",
        ratio(oracle_ns as f64, oracle_cycles as f64),
    );
    first.tally.set_sim_counters(m);

    for (i, name) in [
        "server.queue_ms.interactive",
        "server.queue_ms.standard",
        "server.queue_ms.background",
    ]
    .into_iter()
    .enumerate()
    {
        m.set(name, med(&|s| s.classes[i].mean_queue_ms));
    }
    m.set(
        "server.exec_ms",
        med(&|s| ratio(exec_ms(s), s.frames as f64)),
    );
    m.set("server.pull_ms", pull_ns as f64 / 1e6 / runs.len() as f64);
    m.set("server.solves", first.solves as f64);
    m.set("server.distinct_keys", fleet.keys as f64);
    m.set("server.admitted", first.admitted as f64);
    m.set("server.rejected", first.rejected as f64);
    m.set("server.queued_admissions", first.queued_admissions as f64);
    m.set("server.shed", first.shed as f64);
    m.set("server.degraded", first.degraded as f64);
    m.set("server.standard_p50_ms", med(&|s| s.classes[1].p50_ms));
    m.set("server.background_p50_ms", med(&|s| s.classes[2].p50_ms));
    m.set("server.background_p99_ms", med(&|s| s.classes[2].p99_ms));
}
