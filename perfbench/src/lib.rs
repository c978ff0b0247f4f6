//! The repository benchmark: four frame-path workloads driven from the
//! outside, through the crates' public API, with end-to-end metrics
//! from untraced runs and per-layer metrics from traced re-drives.
//!
//! See `README.md` in this directory for the metrics, the workloads and
//! how to run them.

pub mod host;
pub mod metrics;
pub mod redrive;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use streamgrid_core::framework::ExecutionReport;
use streamgrid_sim::EngineMode;

use crate::host::HostSpeed;
use crate::metrics::Metrics;
use crate::stats::Failures;
use crate::trace::Tracer;

/// How one benchmark run is parameterized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Seed every input of the workload derives from.
    pub seed: u64,
    /// Wall seconds the run measures for.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics) or the
    /// untraced one (end-to-end metrics).
    pub trace: bool,
    /// Tiny inputs, for the `--short` shape check.
    pub tiny: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured region.
    pub attempted: u64,
    /// Operations among them that failed.
    pub failures: Failures,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced
    /// run).
    pub metrics: Metrics,
    /// Extra named figures for the printed table: each end-to-end
    /// metric under the workload-specific name it stands for.
    pub notes: Vec<(String, f64, &'static str)>,
    /// Output checks.
    pub checks: Checks,
    /// The traced run's spans, written out at the end.
    pub tracer: Option<Tracer>,
    /// Threads the workload keeps busy at most.
    pub host_threads: usize,
}

impl Outcome {
    /// Adds a figure to the printed table.
    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.notes.push((name.into(), value, unit));
    }
}

/// Named output checks; a check may be evaluated many times and keeps
/// its first failure.
#[derive(Debug, Default)]
pub struct Checks {
    results: BTreeMap<String, (u64, Option<String>)>,
}

impl Checks {
    /// Records one evaluation of check `name`; `detail` explains a
    /// failure.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        let entry = self.results.entry(name.to_owned()).or_insert((0, None));
        entry.0 += 1;
        if !ok && entry.1.is_none() {
            entry.1 = Some(detail());
        }
    }

    /// Whether every check passed.
    pub fn all_passed(&self) -> bool {
        self.results.values().all(|(_, failure)| failure.is_none())
    }

    /// `(name, evaluations, first failure)` for every check.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64, Option<&str>)> {
        self.results
            .iter()
            .map(|(name, (n, failure))| (name.as_str(), *n, failure.as_deref()))
    }
}

/// Running sums over executed frames' reports: the modelled-design
/// figures and the simulator's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Frames folded in.
    pub frames: u64,
    /// Frames whose report is not clean.
    pub non_clean: u64,
    /// Provisioned line-buffer bytes, summed over frames.
    pub onchip_bytes: u64,
    /// Modelled energy, µJ, summed over frames.
    pub energy_uj: f64,
    /// Simulated cycles, summed over frames.
    pub cycles: u64,
    /// On-chip memory stall cycles.
    pub stall_cycles: u64,
    /// Starved cycles.
    pub starved_cycles: u64,
    /// DRAM bytes read and written.
    pub dram_bytes: u64,
    /// Frames per resolved engine, in [`engine_index`] order.
    pub engine_frames: [u64; 3],
    /// Most shard threads any frame ran on.
    pub shard_threads: u64,
    /// Sharded-engine backoff: spins, yields, parks, wakes.
    pub backoff: [u64; 4],
}

impl Tally {
    /// Folds in one executed frame.
    pub fn add(&mut self, report: &ExecutionReport) {
        self.frames += 1;
        self.non_clean += u64::from(!report.is_clean());
        self.onchip_bytes += report.onchip_bytes();
        self.energy_uj += report.total_uj();
        self.cycles += report.run.cycles;
        self.stall_cycles += report.run.stall_cycles;
        self.starved_cycles += report.run.starved_cycles;
        self.dram_bytes += report.dram_bytes();
        self.engine_frames[engine_index(report.exec_mode)] += 1;
        if let EngineMode::Sharded(n) = report.exec_mode {
            self.shard_threads = self.shard_threads.max(u64::from(n));
        }
        let b = &report.run.backoff;
        for (sum, v) in self
            .backoff
            .iter_mut()
            .zip([b.spins, b.yields, b.parks, b.wakes])
        {
            *sum += v;
        }
    }

    /// Records the modelled-design end-to-end metrics: mean provisioned
    /// KiB, µJ and simulated cycles per frame.
    pub fn set_modelled(&self, metrics: &mut Metrics) {
        let n = self.frames.max(1) as f64;
        metrics.set("onchip_kib", self.onchip_bytes as f64 / 1024.0 / n);
        metrics.set("energy_uj_per_frame", self.energy_uj / n);
        metrics.set("sim_cycles_per_frame", self.cycles as f64 / n);
    }

    /// Records one round's simulator counters as per-layer metrics.
    pub fn set_sim_counters(&self, metrics: &mut Metrics) {
        let counters = [
            ("sim.engine.event.frames", self.engine_frames[0]),
            ("sim.engine.cycle.frames", self.engine_frames[1]),
            ("sim.engine.sharded.frames", self.engine_frames[2]),
            ("sim.sharded.threads", self.shard_threads),
            ("sim.backoff.spins", self.backoff[0]),
            ("sim.backoff.yields", self.backoff[1]),
            ("sim.backoff.parks", self.backoff[2]),
            ("sim.backoff.wakes", self.backoff[3]),
            ("sim.stall_cycles", self.stall_cycles),
            ("sim.starved_cycles", self.starved_cycles),
        ];
        for (name, count) in counters {
            metrics.set(name, count as f64);
        }
        metrics.set(
            "sim.dram_kib_per_frame",
            self.dram_bytes as f64 / 1024.0 / self.frames.max(1) as f64,
        );
    }
}

/// The per-layer label index of a resolved engine: event, cycle
/// (the oracle), sharded.
pub fn engine_index(mode: EngineMode) -> usize {
    match mode {
        EngineMode::EventDriven => 0,
        EngineMode::CycleAccurate => 1,
        EngineMode::Sharded(_) => 2,
    }
}

/// Set-up passes per untraced run, spread over its measuring time.
pub const SETUP_REPEATS: usize = 5;

/// One set-up pass: its wall seconds and the host slowdown read
/// around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetupPass {
    /// Wall seconds the pass took.
    pub secs: f64,
    /// [`HostSpeed::slowdown`] read just before and after it.
    pub slowdown: f64,
}

impl SetupPass {
    /// The pass's seconds at a quiet host's speed.
    pub fn normalized_secs(&self) -> f64 {
        self.secs / self.slowdown
    }
}

/// The untraced phase of a run: set-up passes and measured rounds.
#[derive(Debug)]
pub struct Measured<S, T> {
    /// The state the last set-up pass built (the rounds after it used
    /// it).
    pub state: S,
    /// Every set-up pass.
    pub setups: Vec<SetupPass>,
    /// Each round's result and wall time.
    pub rounds: Vec<(T, Duration)>,
}

/// Runs `round` until the rounds have taken `budget` (at least one
/// round). Set-up runs before the first round and again each time
/// another `budget / SETUP_REPEATS` of rounds has passed, so its
/// passes sample the whole run rather than one moment of it; every
/// pass replaces the state the rounds use.
pub fn measure<S, T>(
    budget: Duration,
    mut setup: impl FnMut() -> S,
    mut round: impl FnMut(&mut S, usize) -> T,
) -> Measured<S, T> {
    let mut setups = Vec::new();
    let mut state = None;
    let mut rounds = Vec::new();
    let mut measured = Duration::ZERO;
    loop {
        let due = budget.mul_f64(setups.len() as f64 / SETUP_REPEATS as f64);
        if state.is_none() || (setups.len() < SETUP_REPEATS && measured >= due) {
            drop(state.take());
            let mut speed = HostSpeed::default();
            speed.probe();
            let t0 = Instant::now();
            state = Some(setup());
            let secs = t0.elapsed().as_secs_f64();
            speed.probe();
            setups.push(SetupPass {
                secs,
                slowdown: speed.slowdown(),
            });
        }
        let current = state.as_mut().expect("set up before the first round");
        let t0 = Instant::now();
        let result = round(current, rounds.len());
        let wall = t0.elapsed();
        measured += wall;
        rounds.push((result, wall));
        if measured >= budget {
            break;
        }
    }
    Measured {
        state: state.expect("set up before the first round"),
        setups,
        rounds,
    }
}

/// The normalized set-up seconds a run reports: the median over the
/// faster half of its passes.
pub fn setup_secs(setups: &[SetupPass]) -> f64 {
    let best = best_half(setups, |p| -p.normalized_secs());
    stats::median(&best.iter().map(|p| p.normalized_secs()).collect::<Vec<_>>())
}

/// Runs `round` until `budget` has elapsed (at least once) and returns
/// each round's result with its wall time.
pub fn run_rounds<T>(budget: Duration, mut round: impl FnMut(usize) -> T) -> Vec<(T, Duration)> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let t0 = Instant::now();
        let result = round(out.len());
        out.push((result, t0.elapsed()));
        if start.elapsed() >= budget {
            return out;
        }
    }
}

/// The better half of a run's samples: the `ceil(n / 2)` with the
/// highest `speed`. Every round does the same work; speeds are already
/// corrected by the host-speed probe, and dropping the slower half also
/// drops stretches where outside load slowed the round in ways the
/// probe does not see.
pub fn best_half<T>(samples: &[T], speed: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut sorted: Vec<&T> = samples.iter().collect();
    sorted.sort_by(|a, b| speed(b).total_cmp(&speed(a)));
    sorted.truncate(samples.len().div_ceil(2));
    sorted
}

/// Splits a run's measuring time: an untraced run measures for all of
/// it; a traced run spends half untraced (the overhead baseline) and
/// half traced.
pub fn budgets(config: &RunConfig) -> (Duration, Duration) {
    let total = Duration::from_secs_f64(config.seconds.max(0.0));
    if config.trace {
        (total / 2, total / 2)
    } else {
        (total, Duration::ZERO)
    }
}
