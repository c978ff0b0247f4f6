//! Execution engines for a scheduled streaming pipeline.
//!
//! The engines execute a [`DataflowGraph`] under a schedule produced by
//! `streamgrid-optimizer`: stages issue chunks at the plan's initiation
//! interval, move elements through bounded line buffers at their rational
//! throughputs, and tally DRAM traffic and energy. This is the
//! "cycle-level simulator of the architecture" of Sec. 7, and doubles as
//! the formulation's executable proof: with deterministic termination a
//! correct schedule runs to completion with **zero stalls and zero
//! overflows** (asserted by the integration tests), while variable
//! (non-DT) global-op latency provokes the stalls the paper describes.
//!
//! Two engines share one stepping core (`state.rs`) over one
//! [`EngineLayout`] per design — the validated graph's stepping order
//! and each stage's kind, edges, rates, depth and chunk volumes. A
//! compiled design builds its layout once; each run keeps only
//! flat counters over it and reads start cycles, buffer sizes and `II`
//! from its schedule and plan. [`run_with`] lays the design out for its
//! one run, so every engine and test goes through the same path.
//!
//! * [`EngineMode::CycleAccurate`] (`cycle.rs`) — the reference oracle,
//!   stepping every stage on every cycle;
//! * [`EngineMode::EventDriven`] (`event.rs`) — advances `now` from
//!   event to event and applies closed-form progress across
//!   provably-repeating spans: idle gaps up to the next chunk issue,
//!   micro-periods inside a chunk (between chunk issues, depth-gate
//!   expiries and `II` boundaries, a span of `P` cycles — the lcm of the
//!   moving stages' accumulator periods — that ran without any transfer
//!   cut below its rate repeats, drifting linearly, until an exact
//!   integer bound on some remaining count, buffer margin or read-share
//!   cap margin runs out), and whole initiation intervals once the
//!   steady state repeats as a one-chunk shift, up to and including the
//!   period in which the stages furthest ahead finish, when each of them
//!   is idle at its start and another stage outlasts it. A span opens
//!   only where it can skip: two periods fit before the next event, the
//!   plain step before it was clamp-free, and no stage is draining the
//!   count that cut the last replay short. Stepped cycles
//!   ([`RunReport::stepped_cycles`]) scale with spans × a few `P`, not
//!   with cycles. Under [`GlobalLatencyModel::Deterministic`] it returns
//!   **bit-identical** [`RunReport`]s to the oracle; under variable
//!   latency [`run_with`] falls back to the oracle.

mod cycle;
mod event;
mod state;
mod stats;

use serde::{Deserialize, Serialize};
use streamgrid_dataflow::DataflowGraph;
use streamgrid_optimizer::{EdgeInfo, MultiChunkPlan, Schedule};

use crate::energy::EnergyModel;
use state::EngineState;

pub use state::EngineLayout;
pub use stats::{BackoffStats, RunReport};

/// Latency behavior of global-dependent stages.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum GlobalLatencyModel {
    /// Deterministic termination: fixed per-chunk duration (the DT
    /// transform).
    Deterministic,
    /// Input-dependent latency: each chunk's duration is scaled by a
    /// lognormal-ish factor with the given coefficient of variation —
    /// the canonical algorithms of Sec. 3.
    Variable {
        /// Coefficient of variation of the per-chunk slowdown.
        cv: f64,
        /// RNG seed.
        seed: u64,
    },
}

/// What a full buffer does to its writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BufferPolicy {
    /// A write beyond capacity is an error (validates schedules).
    Strict,
    /// The writer stalls until space frees up (measures the cost of
    /// non-determinism).
    Elastic,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Bytes per buffered element (the paper's pipelines move 32-bit
    /// words).
    pub bytes_per_element: u64,
    /// Chunks to stream.
    pub n_chunks: u64,
    /// Global-stage latency behavior.
    pub global_latency: GlobalLatencyModel,
    /// Buffer overflow policy.
    pub buffer_policy: BufferPolicy,
    /// Safety cap on simulated cycles. A run that exhausts it is
    /// reported with [`RunReport::truncated`] set.
    pub max_cycles: u64,
    /// Datapath intensity: MACs per produced element. DNN pipelines are
    /// operand-traffic heavy (PointNet++ MLPs run thousands of MACs per
    /// element), and each MAC fetches ~2 bytes from on-chip SRAM — this
    /// is what makes SRAM sizing matter for energy (Fig. 17b).
    pub macs_per_element: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            bytes_per_element: 4,
            n_chunks: 1,
            global_latency: GlobalLatencyModel::Deterministic,
            buffer_policy: BufferPolicy::Strict,
            max_cycles: 50_000_000,
            macs_per_element: 16.0,
        }
    }
}

/// Which execution engine to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineMode {
    /// The per-cycle reference oracle (always exact).
    CycleAccurate,
    /// The event-to-event fast path (exact under deterministic latency;
    /// [`run_with`] falls back to the oracle otherwise).
    EventDriven,
    /// Runs the oracle, whatever the count. A placeholder that keeps the
    /// benchmark harness (`perfbench`, which matches on every variant
    /// and reads the count) building; it goes once the benchmark drops
    /// its sharded metrics.
    Sharded(u32),
}

impl EngineMode {
    /// The fastest engine that is still exact for this latency model:
    /// event-driven under deterministic termination, the oracle
    /// otherwise. This is what `Auto` resolves to upstack.
    pub fn fastest_exact(latency: GlobalLatencyModel) -> EngineMode {
        match latency {
            GlobalLatencyModel::Deterministic => EngineMode::EventDriven,
            GlobalLatencyModel::Variable { .. } => EngineMode::CycleAccurate,
        }
    }
}

/// Runs the pipeline on the cycle-accurate reference engine.
///
/// `plan` supplies the initiation interval; per-stage per-chunk issue
/// times are `schedule.start_cycles[i] + c · II`.
///
/// # Panics
///
/// Panics if the graph fails validation or the schedule's dimensions do
/// not match the graph.
pub fn run(
    graph: &DataflowGraph,
    edges: &[EdgeInfo],
    schedule: &Schedule,
    plan: &MultiChunkPlan,
    energy_model: &EnergyModel,
    config: &EngineConfig,
) -> RunReport {
    run_with(
        graph,
        edges,
        schedule,
        plan,
        energy_model,
        config,
        EngineMode::CycleAccurate,
    )
}

/// [`run`] with an explicit engine choice.
///
/// [`EngineMode::EventDriven`] is honored only under
/// [`GlobalLatencyModel::Deterministic`]; variable latency always runs
/// the oracle (the fast path's periodicity argument needs fixed stage
/// rates), and so does the [`EngineMode::Sharded`] placeholder. Reports
/// from both engines are bit-identical whenever each is exact, so the
/// choice is purely a wall-time trade.
///
/// Lays the design out for this one run; a caller that runs one design
/// many times builds its [`EngineLayout`] once and calls
/// [`EngineLayout::run`].
///
/// # Panics
///
/// Panics if the graph fails validation or the schedule's dimensions do
/// not match the graph.
#[allow(clippy::too_many_arguments)]
pub fn run_with(
    graph: &DataflowGraph,
    edges: &[EdgeInfo],
    schedule: &Schedule,
    plan: &MultiChunkPlan,
    energy_model: &EnergyModel,
    config: &EngineConfig,
    mode: EngineMode,
) -> RunReport {
    EngineLayout::new(graph, edges).run(schedule, plan, energy_model, config, mode)
}

impl EngineLayout {
    /// Runs the design under `schedule` and `plan` on the engine `mode`
    /// names — [`run_with`] without the layout step.
    ///
    /// # Panics
    ///
    /// Panics if the schedule's dimensions do not match the layout.
    pub fn run(
        &self,
        schedule: &Schedule,
        plan: &MultiChunkPlan,
        energy_model: &EnergyModel,
        config: &EngineConfig,
        mode: EngineMode,
    ) -> RunReport {
        // One source of truth for the fallback policy: an EventDriven
        // request degrades to whatever `fastest_exact` says is still
        // exact for this latency model (core's `ExecMode::resolve`
        // delegates to the same function, so the recorded mode always
        // matches). The `Sharded` placeholder runs the oracle.
        let mode = match mode {
            EngineMode::EventDriven => EngineMode::fastest_exact(config.global_latency),
            EngineMode::CycleAccurate | EngineMode::Sharded(_) => EngineMode::CycleAccurate,
        };
        let mut state = EngineState::new(self, schedule, plan, config);
        match mode {
            EngineMode::EventDriven => event::run_to_completion(&mut state, config),
            _ => cycle::run_to_completion(&mut state, config),
        }
        state.finalize(energy_model, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamgrid_dataflow::Shape;
    use streamgrid_optimizer::{edge_infos, optimize, plan_multi_chunk};

    fn pipeline() -> DataflowGraph {
        let mut g = DataflowGraph::new();
        let src = g.source("src", Shape::new(1, 3), 1);
        let scale = g.map("scale", Shape::new(1, 3), Shape::new(1, 3), 2);
        let knn = g.global_op("knn", Shape::new(1, 3), 1, Shape::new(1, 3), 1, (1, 1), 8);
        let mlp = g.map("mlp", Shape::new(1, 3), Shape::new(1, 3), 4);
        let sink = g.sink("sink", Shape::new(1, 3), 1);
        g.connect(src, scale);
        g.connect(scale, knn);
        g.connect(knn, mlp);
        g.connect(mlp, sink);
        g
    }

    fn setup(elements: u64) -> (DataflowGraph, Vec<EdgeInfo>, Schedule, MultiChunkPlan) {
        let g = pipeline();
        let edges = edge_infos(&g, elements);
        let schedule = optimize(&g, &edges).unwrap();
        let plan = plan_multi_chunk(&g, &edges);
        (g, edges, schedule, plan)
    }

    #[test]
    fn deterministic_run_is_clean() {
        let (g, edges, schedule, plan) = setup(300);
        let report = run(
            &g,
            &edges,
            &schedule,
            &plan,
            &EnergyModel::default(),
            &EngineConfig {
                n_chunks: 4,
                ..EngineConfig::default()
            },
        );
        assert_eq!(report.overflow_edge, None, "ILP schedule must not overflow");
        assert!(report.is_complete());
        for (i, (&peak, &cap)) in report
            .buffer_peaks
            .iter()
            .zip(&report.buffer_capacities)
            .enumerate()
        {
            assert!(peak <= cap, "edge {i}: peak {peak} > capacity {cap}");
        }
        assert!(report.cycles > 0);
    }

    #[test]
    fn throughput_matches_plan() {
        let (g, edges, schedule, plan) = setup(300);
        let r1 = run(
            &g,
            &edges,
            &schedule,
            &plan,
            &EnergyModel::default(),
            &EngineConfig {
                n_chunks: 1,
                ..EngineConfig::default()
            },
        );
        let r4 = run(
            &g,
            &edges,
            &schedule,
            &plan,
            &EnergyModel::default(),
            &EngineConfig {
                n_chunks: 4,
                ..EngineConfig::default()
            },
        );
        let expected = plan.total_cycles(schedule.makespan, 4);
        // Within a few cycles of the analytic model.
        assert!(
            (r4.cycles as i64 - expected as i64).abs() < 64,
            "simulated {} vs planned {expected}",
            r4.cycles
        );
        assert!(r4.cycles > r1.cycles);
    }

    #[test]
    fn variable_latency_stalls_pipeline() {
        let (g, edges, schedule, plan) = setup(300);
        let det = run(
            &g,
            &edges,
            &schedule,
            &plan,
            &EnergyModel::default(),
            &EngineConfig {
                n_chunks: 4,
                ..EngineConfig::default()
            },
        );
        let var = run(
            &g,
            &edges,
            &schedule,
            &plan,
            &EnergyModel::default(),
            &EngineConfig {
                n_chunks: 4,
                global_latency: GlobalLatencyModel::Variable { cv: 0.8, seed: 7 },
                buffer_policy: BufferPolicy::Elastic,
                ..EngineConfig::default()
            },
        );
        assert!(
            var.cycles > det.cycles,
            "variable latency should be slower: {} vs {}",
            var.cycles,
            det.cycles
        );
        assert!(var.starved_cycles > det.starved_cycles);
    }

    #[test]
    fn dram_traffic_is_endpoints_only() {
        let (g, edges, schedule, plan) = setup(300);
        let report = run(
            &g,
            &edges,
            &schedule,
            &plan,
            &EnergyModel::default(),
            &EngineConfig {
                n_chunks: 2,
                ..EngineConfig::default()
            },
        );
        // Fully streaming: only source reads and sink writes hit DRAM —
        // 2 chunks × 300 elements × 4 bytes each way.
        assert_eq!(report.dram_read_bytes, 2 * 300 * 4);
        assert_eq!(report.dram_write_bytes, 2 * 300 * 4);
    }

    #[test]
    fn undersized_buffers_overflow_in_strict_mode() {
        let (g, edges, mut schedule, plan) = setup(300);
        // Sabotage: shrink the src→scale buffer below its peak.
        schedule.buffer_sizes[0] = schedule.buffer_sizes[0].saturating_sub(2).max(1);
        let report = run(
            &g,
            &edges,
            &schedule,
            &plan,
            &EnergyModel::default(),
            &EngineConfig {
                n_chunks: 1,
                ..EngineConfig::default()
            },
        );
        assert!(report.overflow_edge.is_some() || report.stall_cycles > 0);
    }

    #[test]
    fn energy_includes_all_components() {
        let (g, edges, schedule, plan) = setup(300);
        let report = run(
            &g,
            &edges,
            &schedule,
            &plan,
            &EnergyModel::default(),
            &EngineConfig {
                n_chunks: 2,
                ..EngineConfig::default()
            },
        );
        assert!(report.energy.sram_pj > 0.0);
        assert!(report.energy.dram_pj > 0.0);
        assert!(report.energy.compute_pj > 0.0);
    }

    #[test]
    fn event_engine_matches_oracle_bit_for_bit() {
        let (g, edges, schedule, plan) = setup(300);
        for n_chunks in [1u64, 2, 3, 4, 7, 16, 64] {
            let config = EngineConfig {
                n_chunks,
                ..EngineConfig::default()
            };
            let oracle = run(
                &g,
                &edges,
                &schedule,
                &plan,
                &EnergyModel::default(),
                &config,
            );
            let fast = run_with(
                &g,
                &edges,
                &schedule,
                &plan,
                &EnergyModel::default(),
                &config,
                EngineMode::EventDriven,
            );
            assert_eq!(oracle, fast, "divergence at n_chunks = {n_chunks}");
            // The `Sharded` placeholder runs the oracle: the same report,
            // with every cycle stepped.
            let placeholder = run_with(
                &g,
                &edges,
                &schedule,
                &plan,
                &EnergyModel::default(),
                &config,
                EngineMode::Sharded(4),
            );
            assert_eq!(oracle, placeholder, "placeholder at n_chunks = {n_chunks}");
            assert_eq!(placeholder.stepped_cycles, placeholder.cycles);
        }
    }

    #[test]
    fn event_engine_matches_oracle_on_overflow() {
        let (g, edges, mut schedule, plan) = setup(300);
        schedule.buffer_sizes[0] = schedule.buffer_sizes[0].saturating_sub(2).max(1);
        let config = EngineConfig {
            n_chunks: 4,
            ..EngineConfig::default()
        };
        let oracle = run(
            &g,
            &edges,
            &schedule,
            &plan,
            &EnergyModel::default(),
            &config,
        );
        let fast = run_with(
            &g,
            &edges,
            &schedule,
            &plan,
            &EnergyModel::default(),
            &config,
            EngineMode::EventDriven,
        );
        assert_eq!(oracle, fast);
    }

    #[test]
    fn degenerate_zero_ii_plan_runs_identically_on_both_engines() {
        // `plan_multi_chunk` never emits II = 0, but the plan fields are
        // public: a hand-built zero-interval plan issues every chunk at
        // once. The event engine must refuse to period-skip (periods
        // advance no time there) and still match the oracle exactly.
        let (g, edges, schedule, mut plan) = setup(60);
        plan.initiation_interval = 0;
        for b in plan.bubbles.iter_mut() {
            *b = 0;
        }
        let config = EngineConfig {
            n_chunks: 5,
            buffer_policy: BufferPolicy::Elastic,
            max_cycles: 20_000,
            ..EngineConfig::default()
        };
        let oracle = run(
            &g,
            &edges,
            &schedule,
            &plan,
            &EnergyModel::default(),
            &config,
        );
        let fast = run_with(
            &g,
            &edges,
            &schedule,
            &plan,
            &EnergyModel::default(),
            &config,
            EngineMode::EventDriven,
        );
        assert_eq!(oracle, fast);
    }

    #[test]
    fn event_mode_falls_back_to_oracle_under_variable_latency() {
        let (g, edges, schedule, plan) = setup(300);
        let config = EngineConfig {
            n_chunks: 4,
            global_latency: GlobalLatencyModel::Variable { cv: 0.8, seed: 7 },
            buffer_policy: BufferPolicy::Elastic,
            ..EngineConfig::default()
        };
        let oracle = run(
            &g,
            &edges,
            &schedule,
            &plan,
            &EnergyModel::default(),
            &config,
        );
        let fast = run_with(
            &g,
            &edges,
            &schedule,
            &plan,
            &EnergyModel::default(),
            &config,
            EngineMode::EventDriven,
        );
        assert_eq!(oracle, fast, "variable latency must route to the oracle");
    }

    #[test]
    fn exhausted_cycle_budget_is_flagged_truncated() {
        let (g, edges, schedule, plan) = setup(300);
        for mode in [EngineMode::CycleAccurate, EngineMode::EventDriven] {
            let report = run_with(
                &g,
                &edges,
                &schedule,
                &plan,
                &EnergyModel::default(),
                &EngineConfig {
                    n_chunks: 4,
                    max_cycles: 40,
                    ..EngineConfig::default()
                },
                mode,
            );
            assert!(report.truncated, "{mode:?}: tiny budget must truncate");
            assert!(!report.is_complete());
            assert_eq!(report.cycles, 40, "{mode:?}: run stops at the budget");
            assert_eq!(report.overflow_edge, None);
        }
        // A generous budget is not truncation.
        let clean = run(
            &g,
            &edges,
            &schedule,
            &plan,
            &EnergyModel::default(),
            &EngineConfig {
                n_chunks: 4,
                ..EngineConfig::default()
            },
        );
        assert!(!clean.truncated);
    }

    #[test]
    fn truncated_reports_match_across_engines() {
        let (g, edges, schedule, plan) = setup(300);
        for budget in [1u64, 17, 40, 333, 1000] {
            let config = EngineConfig {
                n_chunks: 8,
                max_cycles: budget,
                ..EngineConfig::default()
            };
            let oracle = run(
                &g,
                &edges,
                &schedule,
                &plan,
                &EnergyModel::default(),
                &config,
            );
            let fast = run_with(
                &g,
                &edges,
                &schedule,
                &plan,
                &EnergyModel::default(),
                &config,
                EngineMode::EventDriven,
            );
            assert_eq!(oracle, fast, "divergence at max_cycles = {budget}");
        }
    }

    #[test]
    fn starvation_counts_distinct_cycles() {
        // A half-rate producer (1 element every 2 cycles) feeding a
        // full-rate consumer: the consumer drains each element the cycle
        // it lands and starves on the producer's off-cycles. Two such
        // consumers downstream must NOT double-count — the field counts
        // distinct starved cycles, not stage×cycle events.
        let mut g = DataflowGraph::new();
        let src = g.source("src", Shape::new(1, 1), 2); // τ_out = 1/2
        let a = g.map("a", Shape::new(1, 1), Shape::new(1, 1), 1); // τ = 1
        let b = g.map("b", Shape::new(1, 1), Shape::new(1, 1), 1);
        let sink = g.sink("sink", Shape::new(1, 1), 1);
        g.connect(src, a);
        g.connect(a, b);
        g.connect(b, sink);
        let edges = edge_infos(&g, 100);
        let mut schedule = optimize(&g, &edges).unwrap();
        // Issue every stage eagerly at cycle 0: the ILP would stagger the
        // starts to hide the rate mismatch, but this test wants sustained
        // starvation, with a, b, and the sink all starving on the same
        // producer off-cycles. (Capacities stay ILP-sized; occupancy only
        // shrinks when consumers start early, so the run stays clean.)
        for s in schedule.start_cycles.iter_mut() {
            *s = 0;
        }
        let plan = plan_multi_chunk(&g, &edges);
        let report = run(
            &g,
            &edges,
            &schedule,
            &plan,
            &EnergyModel::default(),
            &EngineConfig::default(),
        );
        assert!(report.is_complete());
        assert_eq!(report.overflow_edge, None);
        // Distinct-cycle semantics: the count can never exceed the run
        // length, however many stages starve per cycle.
        assert!(
            report.starved_cycles <= report.cycles,
            "starved {} > cycles {}",
            report.starved_cycles,
            report.cycles
        );
        // Regression pin (semantics change detector): the exact value on
        // this schedule, derived once from the reference engine. Each
        // starved cycle is counted once even though up to three stages
        // starve simultaneously; the old stage×cycle accounting reported
        // roughly three times this number.
        assert_eq!(report.starved_cycles, STARVED_PIN);
    }

    /// Pinned distinct-starved-cycle count for the eager-start half-rate
    /// chain above.
    const STARVED_PIN: u64 = 202;
}
