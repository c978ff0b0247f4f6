//! Multi-chunk extension: bubble insertion (Fig. 11).
//!
//! Collapsing chunk executions back-to-back lets fast stages run ahead of
//! slow ones and inflates line buffers without improving throughput. The
//! fix: all stages issue chunks at a common initiation interval `II`
//! (the per-chunk busy time of the slowest stage); faster stages idle
//! (`bubble`) for the difference. Buffer occupancy then repeats with
//! period `II` and the single-chunk sizes carry over.

use serde::{Deserialize, Serialize};
use streamgrid_dataflow::{DataflowGraph, OpKind};

use crate::formulation::EdgeInfo;
use crate::schedule::{peak_occupancy, Schedule};

/// Multi-chunk issue plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiChunkPlan {
    /// Cycles between consecutive chunk starts (same for every stage).
    pub initiation_interval: u64,
    /// Idle cycles inserted per chunk per stage (indexed by
    /// `NodeId::index`).
    pub bubbles: Vec<u64>,
    /// Per-chunk busy cycles per stage.
    pub busy: Vec<u64>,
}

impl MultiChunkPlan {
    /// Total cycles to stream `n_chunks` chunks given the single-chunk
    /// makespan.
    pub fn total_cycles(&self, single_chunk_makespan: u64, n_chunks: u64) -> u64 {
        if n_chunks == 0 {
            return 0;
        }
        single_chunk_makespan + (n_chunks - 1) * self.initiation_interval
    }
}

/// Computes the per-stage busy times and the bubble plan.
///
/// A stage's per-chunk busy time is the longer of its read phase and its
/// write phase (pipeline depth + write duration).
pub fn plan_multi_chunk(graph: &DataflowGraph, edges: &[EdgeInfo]) -> MultiChunkPlan {
    let mut busy = vec![0u64; graph.node_count()];
    for e in edges {
        let read = e.read_dur.ceil() as u64;
        let write = (e.depth_p as f64 + e.write_dur).ceil() as u64;
        busy[e.consumer.index()] = busy[e.consumer.index()].max(read);
        busy[e.producer.index()] = busy[e.producer.index()].max(write);
    }
    // Sources with no in-edges still occupy their write duration.
    for (id, n) in graph.nodes() {
        if matches!(n.kind, OpKind::Source) && busy[id.index()] == 0 {
            busy[id.index()] = 1;
        }
    }
    let ii = busy.iter().copied().max().unwrap_or(1).max(1);
    let bubbles = busy.iter().map(|&b| ii - b).collect();
    MultiChunkPlan {
        initiation_interval: ii,
        bubbles,
        busy,
    }
}

/// Peak per-edge occupancy over `n_chunks` chunks when every stage
/// issues at the plan's initiation interval (bubbled) or back-to-back at
/// its own busy time (unbubbled) — the Fig. 11 comparison.
pub fn multi_chunk_peaks(
    edges: &[EdgeInfo],
    schedule: &Schedule,
    plan: &MultiChunkPlan,
    n_chunks: u64,
    bubbled: bool,
) -> Vec<f64> {
    edges
        .iter()
        .map(|e| {
            let tp0 = schedule.start_cycles[e.producer.index()] as f64;
            let tc0 = schedule.start_cycles[e.consumer.index()] as f64;
            let p_period = if bubbled {
                plan.initiation_interval as f64
            } else {
                plan.busy[e.producer.index()].max(1) as f64
            };
            let c_period = if bubbled {
                plan.initiation_interval as f64
            } else {
                plan.busy[e.consumer.index()].max(1) as f64
            };
            let starts: Vec<(f64, f64)> = (0..n_chunks)
                .map(|c| (tp0 + c as f64 * p_period, tc0 + c as f64 * c_period))
                .collect();
            peak_occupancy(e, &starts)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formulation::edge_infos;
    use crate::optimize;
    use streamgrid_dataflow::Shape;

    /// Unbalanced chain: a fast scaling stage feeding a slow MLP.
    fn unbalanced() -> DataflowGraph {
        let mut g = DataflowGraph::new();
        let src = g.source("src", Shape::new(2, 1), 1); // 2 elem/cycle
        let mlp = g.map("mlp", Shape::new(1, 1), Shape::new(1, 1), 4); // 1 elem/cycle
        let sink = g.sink("sink", Shape::new(1, 1), 1);
        g.connect(src, mlp);
        g.connect(mlp, sink);
        g
    }

    #[test]
    fn ii_is_slowest_stage() {
        let g = unbalanced();
        let edges = edge_infos(&g, 200);
        let plan = plan_multi_chunk(&g, &edges);
        // src writes 200 elements at 2/cycle = 100 cycles; mlp reads at
        // 1/cycle (200 cycles) and writes for depth 4 + 200 cycles → II
        // = 204.
        assert_eq!(plan.initiation_interval, 204);
        assert_eq!(plan.bubbles[0], 104); // src idles most of its period
        assert_eq!(plan.bubbles[1], 0); // mlp is the bottleneck
    }

    #[test]
    fn bubbles_keep_single_chunk_buffers() {
        let g = unbalanced();
        let edges = edge_infos(&g, 200);
        let schedule = optimize(&g, &edges).unwrap();
        let plan = plan_multi_chunk(&g, &edges);
        let single = multi_chunk_peaks(&edges, &schedule, &plan, 1, true);
        let bubbled = multi_chunk_peaks(&edges, &schedule, &plan, 6, true);
        for (s, b) in single.iter().zip(&bubbled) {
            assert!(
                b <= &(s + 1e-6),
                "bubbled multi-chunk peak {b} exceeds single-chunk {s}"
            );
        }
    }

    #[test]
    fn unbubbled_buffers_grow() {
        let g = unbalanced();
        let edges = edge_infos(&g, 200);
        let schedule = optimize(&g, &edges).unwrap();
        let plan = plan_multi_chunk(&g, &edges);
        let bubbled = multi_chunk_peaks(&edges, &schedule, &plan, 6, true);
        let unbubbled = multi_chunk_peaks(&edges, &schedule, &plan, 6, false);
        // Fig. 11: the src→mlp buffer grows without bubbles.
        assert!(
            unbubbled[0] > bubbled[0] * 1.5,
            "unbubbled {unbubbled:?} vs bubbled {bubbled:?}"
        );
    }

    #[test]
    fn total_cycles_scale_with_ii() {
        let plan = MultiChunkPlan {
            initiation_interval: 100,
            bubbles: vec![0],
            busy: vec![100],
        };
        assert_eq!(plan.total_cycles(150, 1), 150);
        assert_eq!(plan.total_cycles(150, 4), 150 + 300);
        assert_eq!(plan.total_cycles(150, 0), 0);
    }
}
