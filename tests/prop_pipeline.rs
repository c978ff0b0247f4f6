//! Property-based tests on the optimizer ↔ simulator contract: any
//! random valid linear pipeline, once scheduled by the ILP, must run on
//! the cycle-level engine without stalls or overflows.

use proptest::prelude::*;
use streamgrid_dataflow::{DataflowGraph, Shape};
use streamgrid_optimizer::{edge_infos, optimize, plan_multi_chunk, validate_schedule};
use streamgrid_sim::{run, EnergyModel, EngineConfig};

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

fn build_pipeline(stages: &[StageKind]) -> DataflowGraph {
    let mut g = DataflowGraph::new();
    let mut attrs = 2u32;
    let mut prev = g.source("src", Shape::new(1, attrs), 1);
    for (i, s) in stages.iter().enumerate() {
        let node = match *s {
            StageKind::Map { shape, depth } => {
                let n = g.map(
                    &format!("map{i}"),
                    Shape::new(1, attrs),
                    Shape::new(shape, attrs),
                    depth,
                );
                n
            }
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
        if let StageKind::Map { shape, .. } = *s {
            // Map may widen the stream; attrs stay, burst shape changes
            // only the rate.
            let _ = shape;
        }
        let _ = &attrs;
        attrs = g.node(node).o_shape.attrs;
    }
    let sink = g.sink("sink", Shape::new(1, attrs), 1);
    g.connect(prev, sink);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn random_pipelines_schedule_and_run_clean(
        stages in prop::collection::vec(arb_stage(), 1..5),
        chunk_points in 50u64..400,
        n_chunks in 1u64..5,
    ) {
        let g = build_pipeline(&stages);
        prop_assume!(g.validate().is_ok());
        let elements = chunk_points * 2;
        let edges = edge_infos(&g, elements);
        // Skip degenerate pipelines where some stage emits nothing.
        prop_assume!(edges.iter().all(|e| e.volume > 0));
        let schedule = match optimize(&g, &edges) {
            Ok(s) => s,
            Err(e) => return Err(TestCaseError::fail(format!("optimize failed: {e}"))),
        };
        prop_assert!(validate_schedule(&edges, &schedule).is_ok());
        let plan = plan_multi_chunk(&g, &edges);
        let report = run(
            &g,
            &edges,
            &schedule,
            &plan,
            &EnergyModel::default(),
            &EngineConfig { n_chunks, ..EngineConfig::default() },
        );
        prop_assert_eq!(report.overflow_edge, None, "overflow on a valid schedule");
        prop_assert_eq!(report.stall_cycles, 0, "stall on a valid schedule");
        for (peak, cap) in report.buffer_peaks.iter().zip(&report.buffer_capacities) {
            prop_assert!(peak <= cap);
        }
    }
}
