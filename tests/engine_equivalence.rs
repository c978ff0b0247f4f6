//! Equivalence guarantee of the execution layer: under deterministic
//! termination the event-driven engine must reproduce the cycle-accurate
//! oracle's `RunReport` **bit for bit** — on every paper preset, on
//! randomly generated DAG schedules, and under cycle-budget truncation.
//!
//! This is the contract `streamgrid_sim::engine::event` is held to; any
//! divergence here means the fast path changed semantics, not just
//! speed.

use proptest::prelude::*;
use streamgrid_core::apps::AppDomain;
use streamgrid_core::framework::{ExecMode, ExecuteOptions, StreamGrid};
use streamgrid_core::registry::PipelineRegistry;
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_dataflow::{DataflowGraph, Shape};
use streamgrid_optimizer::{edge_infos, optimize, plan_multi_chunk, OptimizeConfig, Schedule};
use streamgrid_sim::{
    run_with, BackoffStats, BufferPolicy, EnergyModel, EngineConfig, EngineLayout, EngineMode,
};

/// Sizes `server-mix` streams at four chunks: its three base sizes and a
/// late compile key of each (the benchmark shifts sizes by multiples of
/// four elements). 1200 (4 × 300) is already in the sweep below.
const SERVER_MIX_SIZES: [u64; 5] = [2400, 3600, 1240, 2440, 3640];

/// Every registry preset, across chunk counts spanning warm-up-only runs
/// (1 chunk) to steady-state-dominated sweeps, and at the sizes
/// `server-mix` runs: both engines, one report.
#[test]
fn registry_presets_equivalent_across_chunk_counts() {
    let registry = PipelineRegistry::with_paper_apps();
    let designs = [1u64, 2, 4, 9, 16, 48]
        .map(|n_chunks| (n_chunks, n_chunks * 300))
        .into_iter()
        .chain(SERVER_MIX_SIZES.map(|elements| (4, elements)));
    for spec in registry.specs() {
        for (n_chunks, elements) in designs.clone() {
            let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(
                n_chunks as u32,
                2,
            )));
            let compiled = fw.compile_spec(spec, elements).expect("preset compiles");
            let oracle = compiled
                .execute(&ExecuteOptions::for_spec(spec).with_exec_mode(ExecMode::CycleAccurate));
            let event =
                compiled.execute(&ExecuteOptions::for_spec(spec).with_exec_mode(ExecMode::Auto));
            assert_eq!(oracle.exec_mode, EngineMode::CycleAccurate);
            assert_eq!(event.exec_mode, EngineMode::EventDriven);
            assert_eq!(
                oracle.run,
                event.run,
                "{} at {} chunks, {} elements: engines diverged",
                spec.name(),
                n_chunks,
                elements
            );
            // Equality skips the placeholder backoff counters the
            // benchmark sums, so their zeros are checked on their own.
            for run in [&oracle.run, &event.run] {
                assert_eq!(
                    run.backoff,
                    BackoffStats::default(),
                    "{} at {} chunks, {} elements: an engine counted backoff",
                    spec.name(),
                    n_chunks,
                    elements
                );
            }
            assert!(oracle.is_clean(), "{}: CS+DT must run clean", spec.name());
        }
    }
}

/// The `Auto` default picks the event engine for deterministic designs
/// and reproduces exactly what the oracle would have reported.
#[test]
fn auto_mode_is_equivalent_to_forced_oracle() {
    let registry = PipelineRegistry::with_paper_apps();
    let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(9, 2)));
    for spec in registry.specs() {
        let mut session = fw.session(spec.clone());
        let auto = session.run(9 * 300).expect("runs");
        let oracle = session
            .run_with(
                9 * 300,
                &ExecuteOptions::for_spec(spec).with_exec_mode(ExecMode::CycleAccurate),
            )
            .expect("runs");
        assert_eq!(auto.exec_mode, EngineMode::EventDriven, "{}", spec.name());
        assert_eq!(auto.run, oracle.run, "{}", spec.name());
    }
}

/// The two designs every streamed LiDAR sweep runs on: registration
/// under CS+DT at four chunks, at the 4608- and 5120-element buckets.
/// The event engine reproduces the oracle and skips most of each run
/// inside chunks, not just across them. The 5120-element design's
/// read-share ratio is not an integer, so its cap margins move by a
/// fractional amount per micro-period.
#[test]
fn lidar_designs_skip_inside_chunks() {
    let spec = AppDomain::Registration.spec();
    let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
    for elements in [4608u64, 5120] {
        let compiled = fw.compile_spec(&spec, elements).expect("design compiles");
        let oracle = compiled
            .execute(&ExecuteOptions::for_spec(&spec).with_exec_mode(ExecMode::CycleAccurate));
        let event =
            compiled.execute(&ExecuteOptions::for_spec(&spec).with_exec_mode(ExecMode::Auto));
        assert_eq!(event.exec_mode, EngineMode::EventDriven);
        assert_eq!(
            oracle.run, event.run,
            "{elements} elements: engines diverged"
        );
        assert!(
            oracle.is_clean(),
            "{elements} elements: CS+DT must run clean"
        );
        assert_eq!(oracle.run.stepped_cycles, oracle.run.cycles);
        assert!(
            event.run.stepped_cycles * 5 <= event.run.cycles,
            "{elements} elements: stepped {} of {} cycles",
            event.run.stepped_cycles,
            event.run.cycles
        );
    }
}

/// A random stage descriptor: (kind, points-per-burst, depth, reuse).
#[derive(Debug, Clone)]
enum StageKind {
    Map { shape: u32, depth: u32 },
    Stencil { reuse: u32, depth: u32 },
    Reduction { factor: u32, depth: u32 },
    Global { group: u32, freq: u32, depth: u32 },
}

fn arb_stage() -> impl Strategy<Value = StageKind> {
    prop_oneof![
        (1u32..4, 0u32..8).prop_map(|(shape, depth)| StageKind::Map { shape, depth }),
        (2u32..5, 0u32..6).prop_map(|(reuse, depth)| StageKind::Stencil { reuse, depth }),
        (2u32..8, 0u32..6).prop_map(|(factor, depth)| StageKind::Reduction { factor, depth }),
        (1u32..6, 1u32..8, 1u32..10).prop_map(|(group, freq, depth)| StageKind::Global {
            group,
            freq,
            depth
        }),
    ]
}

/// Builds a pipeline from random stages. `skip_from` (when in range)
/// adds a second consumer edge partway down the chain, turning the
/// pipeline into a genuine DAG: one producer fans out to the next stage
/// *and* to the final pre-sink stage, which then joins two streams of
/// different volumes.
fn build_pipeline(stages: &[StageKind], skip_from: usize) -> DataflowGraph {
    let mut g = DataflowGraph::new();
    let attrs = 2u32;
    let mut prev = g.source("src", Shape::new(1, attrs), 1);
    let mut nodes = vec![prev];
    for (i, s) in stages.iter().enumerate() {
        let node = match *s {
            StageKind::Map { shape, depth } => g.map(
                &format!("map{i}"),
                Shape::new(1, attrs),
                Shape::new(shape, attrs),
                depth,
            ),
            StageKind::Stencil { reuse, depth } => g.stencil(
                &format!("stencil{i}"),
                Shape::new(1, attrs),
                Shape::new(1, attrs),
                depth,
                (reuse, 1),
            ),
            StageKind::Reduction { factor, depth } => g.reduction(
                &format!("reduce{i}"),
                Shape::new(1, attrs),
                Shape::new(1, attrs),
                depth,
                factor,
            ),
            StageKind::Global { group, freq, depth } => g.global_op(
                &format!("global{i}"),
                Shape::new(1, attrs),
                1,
                Shape::new(group, attrs),
                freq,
                (1, 1),
                depth,
            ),
        };
        g.connect(prev, node);
        prev = node;
        nodes.push(node);
    }
    let sink = g.sink("sink", Shape::new(1, attrs), 1);
    g.connect(prev, sink);
    // Optional fan-out: a mid-chain producer also feeds the last stage
    // directly (attrs are uniform, so the shapes always agree).
    if skip_from + 2 < nodes.len() {
        let from = nodes[skip_from];
        let to = *nodes.last().expect("nonempty");
        if !g.contains_edge(from, to) {
            g.connect(from, to);
        }
    }
    g
}

/// Elements per chunk in the stretched-period sweep: from chunks the ×4
/// reduction and the stencil barely fill to the 300 of the presets.
const STRETCH_SIZES: [u64; 7] = [2, 4, 10, 30, 64, 150, 300];

/// Cycles added to the planned initiation interval.
const II_STRETCHES: [u64; 6] = [0, 1, 2, 5, 50, 500];

/// Small chains (source → one map, ×3 map, ×4 reduction or 3-wide
/// stencil → sink) under `plan_multi_chunk`'s plan with its `II`
/// stretched. A stretch leaves every stage idle at each boundary, so
/// every stage could finish its final chunk inside one more skipped
/// period; the whole-period skip must refuse that period, or the event
/// engine's run ends at the period's end instead of at its last
/// completion. 11,088 runs, each on both engines.
#[test]
fn stretched_periods_end_where_the_oracle_ends() {
    let ops: [fn(u32) -> StageKind; 4] = [
        |depth| StageKind::Map { shape: 1, depth },
        |depth| StageKind::Map { shape: 3, depth },
        |depth| StageKind::Reduction { factor: 4, depth },
        |depth| StageKind::Stencil { reuse: 3, depth },
    ];
    let energy = EnergyModel::default();
    for op in ops {
        for depth in 0..=5 {
            let stage = op(depth);
            // A single stage leaves no room for a fan-out edge.
            let g = build_pipeline(std::slice::from_ref(&stage), 0);
            for elements in STRETCH_SIZES {
                let edges = edge_infos(&g, elements);
                let layout = EngineLayout::new(&g, &edges);
                let schedule = optimize(&g, &OptimizeConfig::new(elements)).expect("chain solves");
                let planned = plan_multi_chunk(&g, &edges);
                for stretch in II_STRETCHES {
                    let mut plan = planned.clone();
                    plan.initiation_interval += stretch;
                    for n_chunks in 1..=11 {
                        let config = EngineConfig {
                            n_chunks,
                            ..EngineConfig::default()
                        };
                        let run = |mode| layout.run(&schedule, &plan, &energy, &config, mode);
                        let oracle = run(EngineMode::CycleAccurate);
                        assert!(!oracle.truncated, "{stage:?} at {elements} elements");
                        assert_eq!(
                            oracle,
                            run(EngineMode::EventDriven),
                            "{stage:?} at {elements} elements, {n_chunks} chunks, \
                             II stretched by {stretch}: engines diverged"
                        );
                    }
                }
            }
        }
    }
}

/// How an adversarial case breaks its ILP schedule, so that clamps bind
/// partway through the event engine's micro-periods instead of never.
#[derive(Debug, Clone)]
enum Sabotage {
    /// One edge's buffer shrunk to `quarters`/4 of its solved size: a
    /// strict run overflows mid-span, an elastic one stalls.
    Shrink { edge: usize, quarters: u64 },
    /// One consumer issued at cycle 0, ahead of its producers: it
    /// starves and reads partially, and its own writes run early.
    EarlyStart { stage: usize },
}

fn arb_sabotage() -> impl Strategy<Value = Sabotage> {
    prop_oneof![
        (0usize..64, 1u64..4).prop_map(|(edge, quarters)| Sabotage::Shrink { edge, quarters }),
        (0usize..64).prop_map(|stage| Sabotage::EarlyStart { stage }),
    ]
}

impl Sabotage {
    /// Breaks `schedule`, the solved schedule of a design with `n_edges`
    /// edges.
    fn apply(&self, schedule: &mut Schedule, n_edges: usize) {
        match *self {
            Sabotage::Shrink { edge, quarters } => {
                let size = &mut schedule.buffer_sizes[edge % n_edges];
                *size = (*size * quarters / 4).max(1);
            }
            Sabotage::EarlyStart { stage } => {
                // Any stage but the source (node 0) consumes something.
                let consumer = 1 + stage % (schedule.start_cycles.len() - 1);
                schedule.start_cycles[consumer] = 0;
            }
        }
    }
}

/// Random designs in the seeded sweep below.
const STRETCHED_DESIGNS: u32 = 1200;

/// Random pipelines from [`arb_stage`] (the proptests' generator), clean
/// or sabotaged, strict or elastic, under `plan_multi_chunk`'s plan with
/// its `II` stretched by 0–40 cycles: 4–300 elements per chunk, 1–16
/// chunks, each run at its full budget, three truncated budgets and one
/// that ends on an `II` boundary (5,950 runs, each on both engines).
/// Besides the refusal the small chains above reach, these designs reach
/// the whole-period skip's other one: a stage that would finish its
/// final chunk in the extra period had started that chunk before the
/// boundary. Without that refusal the event engine diverges on a few of
/// these runs, while every other test here passes.
#[test]
fn stretched_random_designs_run_identically() {
    let mut runner = TestRunner::deterministic("stretched_random_designs_run_identically");
    let sabotages = prop_oneof![Just(None), arb_sabotage().prop_map(Some)];
    let energy = EnergyModel::default();
    for design in 0..STRETCHED_DESIGNS {
        let stages = prop::collection::vec(arb_stage(), 1..6).sample(&mut runner);
        let g = build_pipeline(&stages, (0usize..6).sample(&mut runner));
        let elements = (4u64..301).sample(&mut runner);
        let n_chunks = (1u64..17).sample(&mut runner);
        let stretch = (0u64..41).sample(&mut runner);
        let sabotage = sabotages.sample(&mut runner);
        let buffer_policy = if (0u8..2).sample(&mut runner) == 1 {
            BufferPolicy::Elastic
        } else {
            BufferPolicy::Strict
        };
        if g.validate().is_err() {
            continue;
        }
        let edges = edge_infos(&g, elements);
        if edges.iter().any(|e| e.volume == 0) {
            continue;
        }
        let layout = EngineLayout::new(&g, &edges);
        let mut schedule = optimize(&g, &OptimizeConfig::new(elements)).expect("design solves");
        if let Some(sabotage) = &sabotage {
            sabotage.apply(&mut schedule, edges.len());
        }
        let mut plan = plan_multi_chunk(&g, &edges);
        plan.initiation_interval += stretch;
        let ii = plan.initiation_interval;
        let full = EngineConfig {
            n_chunks,
            buffer_policy,
            // Generous, yet it ends a run stalled for good.
            max_cycles: 4 * plan.total_cycles(schedule.makespan, n_chunks) + 1000,
            ..EngineConfig::default()
        };
        let run = |max_cycles, mode| {
            let config = EngineConfig { max_cycles, ..full };
            layout.run(&schedule, &plan, &energy, &config, mode)
        };
        let oracle = run(full.max_cycles, EngineMode::CycleAccurate);
        let cycles = oracle.cycles.max(2);
        let boundaries = (cycles / ii).max(1);
        let truncated = [
            (1..cycles).sample(&mut runner),
            (1..cycles).sample(&mut runner),
            (1..cycles).sample(&mut runner),
            ii * (1..boundaries + 1).sample(&mut runner),
        ];
        let mut cases = vec![(full.max_cycles, oracle)];
        cases.extend(truncated.map(|budget| (budget, run(budget, EngineMode::CycleAccurate))));
        for (max_cycles, oracle) in cases {
            assert_eq!(
                oracle,
                run(max_cycles, EngineMode::EventDriven),
                "design {design}: {stages:?}, {elements} elements, {n_chunks} chunks, \
                 II stretched by {stretch} to {ii}, {sabotage:?}, {buffer_policy:?}, \
                 budget {max_cycles}: engines diverged"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random DAG schedules, sabotaged: whatever the oracle reports
    /// under a shrunk buffer or an early consumer — overflow, stalls,
    /// starvation, partial reads, truncation — the event engine reports
    /// the same bits.
    #[test]
    fn sabotaged_schedules_run_identically_on_both_engines(
        stages in prop::collection::vec(arb_stage(), 1..6),
        skip_from in 0usize..6,
        chunk_points in 50u64..300,
        n_chunks in 1u64..9,
        sabotage in arb_sabotage(),
        elastic in 0u8..2,
        budget_divisor in 2u64..5,
    ) {
        let g = build_pipeline(&stages, skip_from);
        prop_assume!(g.validate().is_ok());
        let elements = chunk_points * 2;
        let edges = edge_infos(&g, elements);
        prop_assume!(edges.iter().all(|e| e.volume > 0));
        let mut schedule = match optimize(&g, &OptimizeConfig::new(elements)) {
            Ok(s) => s,
            Err(e) => return Err(TestCaseError::fail(format!("optimize failed: {e}"))),
        };
        sabotage.apply(&mut schedule, edges.len());
        let plan = plan_multi_chunk(&g, &edges);
        let energy = EnergyModel::default();
        let policy = if elastic == 1 { BufferPolicy::Elastic } else { BufferPolicy::Strict };
        // A generous budget that still ends a run stalled for good.
        let clean_cycles = plan.total_cycles(schedule.makespan, n_chunks);
        let full = EngineConfig {
            n_chunks,
            buffer_policy: policy,
            max_cycles: 4 * clean_cycles + 1000,
            ..EngineConfig::default()
        };
        let oracle = run_with(&g, &edges, &schedule, &plan, &energy, &full,
                              EngineMode::CycleAccurate);
        let event = run_with(&g, &edges, &schedule, &plan, &energy, &full,
                             EngineMode::EventDriven);
        prop_assert_eq!(&oracle, &event, "full-budget divergence");

        let truncated = EngineConfig {
            max_cycles: (oracle.cycles / budget_divisor).max(1),
            ..full
        };
        let oracle_t = run_with(&g, &edges, &schedule, &plan, &energy, &truncated,
                                EngineMode::CycleAccurate);
        let event_t = run_with(&g, &edges, &schedule, &plan, &energy, &truncated,
                               EngineMode::EventDriven);
        prop_assert_eq!(&oracle_t, &event_t, "truncated-budget divergence");
    }

    /// Random valid DAG schedules: whatever the oracle reports — clean,
    /// starved, overflowing, or truncated — the event engine reports the
    /// same bits.
    #[test]
    fn random_dag_schedules_run_identically_on_both_engines(
        stages in prop::collection::vec(arb_stage(), 1..6),
        skip_from in 0usize..6,
        chunk_points in 50u64..400,
        n_chunks in 1u64..13,
        budget_divisor in 1u64..5,
    ) {
        let g = build_pipeline(&stages, skip_from);
        prop_assume!(g.validate().is_ok());
        let elements = chunk_points * 2;
        let edges = edge_infos(&g, elements);
        prop_assume!(edges.iter().all(|e| e.volume > 0));
        let schedule = match optimize(&g, &OptimizeConfig::new(elements)) {
            Ok(s) => s,
            Err(e) => return Err(TestCaseError::fail(format!("optimize failed: {e}"))),
        };
        let plan = plan_multi_chunk(&g, &edges);
        let energy = EnergyModel::default();
        let full = EngineConfig { n_chunks, ..EngineConfig::default() };
        let oracle = run_with(&g, &edges, &schedule, &plan, &energy, &full,
                              EngineMode::CycleAccurate);
        let event = run_with(&g, &edges, &schedule, &plan, &energy, &full,
                             EngineMode::EventDriven);
        prop_assert_eq!(&oracle, &event, "full-budget divergence");

        // Truncated runs must agree too: slice the budget to a fraction
        // of the observed run length.
        let truncated = EngineConfig {
            n_chunks,
            max_cycles: (oracle.cycles / budget_divisor).max(1),
            ..EngineConfig::default()
        };
        let oracle_t = run_with(&g, &edges, &schedule, &plan, &energy, &truncated,
                                EngineMode::CycleAccurate);
        let event_t = run_with(&g, &edges, &schedule, &plan, &energy, &truncated,
                               EngineMode::EventDriven);
        prop_assert_eq!(&oracle_t, &event_t, "truncated-budget divergence");
        if budget_divisor > 1 && oracle_t.overflow_edge.is_none() && oracle_t.cycles < oracle.cycles {
            prop_assert!(oracle_t.truncated, "partial run must be flagged");
        }
    }
}
