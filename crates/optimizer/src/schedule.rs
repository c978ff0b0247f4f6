//! Schedules: the optimizer's output, the ASAP reference schedule, a
//! fluid occupancy evaluator (multi-chunk planning), and the exact
//! discrete validation entry points backed by `streamgrid-verify`.

use serde::{Deserialize, Serialize};
use streamgrid_dataflow::{DataflowGraph, OpKind};
use streamgrid_verify::{certify, CertEdge, Certificate};

use crate::formulation::EdgeInfo;

/// A fully-resolved single-chunk schedule: stage start cycles and line-
/// buffer sizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Start cycle `t_{s,i}` per stage (indexed by `NodeId::index`).
    pub start_cycles: Vec<u64>,
    /// Line-buffer size in elements per edge (indexed by
    /// `EdgeId::index`).
    pub buffer_sizes: Vec<u64>,
    /// Cycle by which every stage has finished one chunk.
    pub makespan: u64,
    /// Σ buffer sizes (the Eqn. 1 objective).
    pub total_buffer_elements: u64,
    /// Constraints in the solved formulation.
    pub constraint_count: usize,
    /// Simplex iterations spent.
    pub lp_iterations: u64,
    /// Branch & bound nodes explored.
    pub solver_nodes: u64,
}

impl Schedule {
    /// Total buffer size in bytes at `bytes_per_element`.
    pub fn total_buffer_bytes(&self, bytes_per_element: u64) -> u64 {
        self.total_buffer_elements * bytes_per_element
    }
}

/// ASAP (as-soon-as-possible) start times: every stage starts the moment
/// its dependency constraints allow. This is the "highest throughput"
/// performance target of Sec. 5.1; its makespan bounds the ILP.
///
/// Returns `(start_times, makespan)` in fractional cycles.
///
/// # Panics
///
/// Panics if the graph fails validation.
pub fn asap_schedule(graph: &DataflowGraph, edges: &[EdgeInfo]) -> (Vec<f64>, f64) {
    let order = graph.topo_order().expect("invalid graph");
    let mut start = vec![0.0f64; graph.node_count()];
    for id in order {
        let node = graph.node(id);
        if matches!(node.kind, OpKind::Source) {
            start[id.index()] = 0.0;
            continue;
        }
        let mut t = 0.0f64;
        for e in edges.iter().filter(|e| e.consumer == id) {
            let t_w = start[e.producer.index()] + e.depth_p as f64;
            let lower = if e.global_consumer {
                t_w + e.write_dur
            } else {
                let startup = (node.i_shape.elements() as f64 / e.tau_out).ceil();
                (t_w + startup).max(t_w + e.write_dur - e.read_dur)
            };
            t = t.max(lower);
        }
        start[id.index()] = t;
    }
    let mut makespan = 0.0f64;
    for e in edges {
        makespan = makespan.max(start[e.consumer.index()] + e.read_dur);
        makespan = makespan.max(start[e.producer.index()] + e.depth_p as f64 + e.write_dur);
    }
    (start, makespan)
}

/// Analytic peak occupancy of one edge's buffer given producer/consumer
/// start times per chunk.
///
/// `chunk_starts` holds `(producer_start, consumer_start)` per chunk.
/// Occupancy is piecewise linear, so the peak lies at one of the event
/// points (write start/end, free start/end of any chunk).
///
/// Global consumers retain `window_chunks · W` by construction, matching
/// the formulation.
pub fn peak_occupancy(edge: &EdgeInfo, chunk_starts: &[(f64, f64)]) -> f64 {
    if edge.global_consumer {
        return (edge.volume * edge.window_chunks as u64) as f64;
    }
    let mut events = Vec::with_capacity(chunk_starts.len() * 4);
    for &(tp, tc) in chunk_starts {
        let t_w = tp + edge.depth_p as f64;
        events.push(t_w);
        events.push(t_w + edge.write_dur);
        events.push(tc);
        events.push(tc + edge.read_dur);
    }
    let occupancy_at = |t: f64| -> f64 {
        let mut occ = 0.0;
        for &(tp, tc) in chunk_starts {
            let t_w = tp + edge.depth_p as f64;
            let written = ((t - t_w) * edge.tau_out).clamp(0.0, edge.volume as f64);
            let freed = ((t - tc) * edge.tau_in).clamp(0.0, edge.volume as f64);
            occ += written - freed;
        }
        occ
    };
    events.into_iter().map(occupancy_at).fold(0.0f64, f64::max)
}

/// Projects [`EdgeInfo`]s onto the certifier's rational-rate view —
/// exactly the fields the discrete occupancy analysis needs, floats
/// dropped.
pub fn cert_edges(edges: &[EdgeInfo]) -> Vec<CertEdge> {
    edges
        .iter()
        .map(|e| CertEdge {
            producer: e.producer.index(),
            consumer: e.consumer.index(),
            tau_out: e.tau_out_rate,
            tau_in: e.tau_in_rate,
            volume: e.volume,
            depth: e.depth_p,
            global_consumer: e.global_consumer,
            window_chunks: e.window_chunks,
        })
        .collect()
}

/// Certifies `schedule`'s buffer sizes against the worst-case *discrete*
/// occupancy of every edge over the chunk lattice `start + c·period` —
/// pure integer arithmetic, no floats, no tolerance. See
/// `streamgrid_verify::certify` for the algorithm and the guarantee.
pub fn certify_schedule(
    edges: &[EdgeInfo],
    schedule: &Schedule,
    period: u64,
    n_chunks: u64,
) -> Certificate {
    certify(
        &cert_edges(edges),
        &schedule.start_cycles,
        &schedule.buffer_sizes,
        period,
        n_chunks,
    )
}

/// Validates that `schedule`'s buffer sizes cover the exact discrete
/// peak occupancy of every edge (single chunk). Returns the first
/// violating edge index.
///
/// Until the verify crate existed this compared against the fluid
/// [`peak_occupancy`] model with a float tolerance; it now delegates to
/// the certifier, so acceptance is exact.
pub fn validate_schedule(edges: &[EdgeInfo], schedule: &Schedule) -> Result<(), usize> {
    match certify_schedule(edges, schedule, 1, 1).first_violation() {
        None => Ok(()),
        Some(v) => Err(v.edge),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formulation::edge_infos;
    use streamgrid_dataflow::Shape;

    fn chain() -> DataflowGraph {
        let mut g = DataflowGraph::new();
        let src = g.source("src", Shape::new(1, 3), 1);
        let knn = g.global_op("knn", Shape::new(1, 3), 1, Shape::new(1, 3), 1, (1, 1), 8);
        let mlp = g.map("mlp", Shape::new(1, 3), Shape::new(1, 3), 4);
        let sink = g.sink("sink", Shape::new(1, 3), 1);
        g.connect(src, knn);
        g.connect(knn, mlp);
        g.connect(mlp, sink);
        g
    }

    #[test]
    fn asap_orders_follow_dependencies() {
        let g = chain();
        let edges = edge_infos(&g, 300);
        let (start, makespan) = asap_schedule(&g, &edges);
        // knn is global: starts after src finishes writing 300 elements
        // at 3/cycle = 100 cycles.
        assert!((start[1] - 100.0).abs() < 1e-9, "{start:?}");
        // mlp local: starts shortly after knn's pipeline fills.
        assert!(start[2] >= start[1] + 8.0);
        assert!(makespan >= start[2] + 100.0);
    }

    #[test]
    fn occupancy_of_matched_rates_is_small() {
        let mut g = DataflowGraph::new();
        let src = g.source("src", Shape::new(1, 1), 1);
        let m = g.map("m", Shape::new(1, 1), Shape::new(1, 1), 2);
        let sink = g.sink("sink", Shape::new(1, 1), 1);
        g.connect(src, m);
        g.connect(m, sink);
        let edges = edge_infos(&g, 100);
        // Producer and consumer both 1 elem/cycle; consumer starts 3
        // cycles late → steady occupancy 3.
        let peak = peak_occupancy(&edges[0], &[(0.0, 3.0)]);
        assert!((peak - 3.0).abs() < 1e-9, "{peak}");
    }

    #[test]
    fn occupancy_peaks_at_write_end_for_fast_producer() {
        let mut g = DataflowGraph::new();
        let src = g.source("src", Shape::new(4, 1), 1); // 4 elem/cycle
        let m = g.map("m", Shape::new(1, 1), Shape::new(1, 1), 0); // 1 elem/cycle
        let sink = g.sink("sink", Shape::new(1, 1), 1);
        g.connect(src, m);
        g.connect(m, sink);
        let edges = edge_infos(&g, 400);
        let peak = peak_occupancy(&edges[0], &[(0.0, 0.0)]);
        // Producer done at 100 cycles having written 400; consumer has
        // read 100 → peak 300.
        assert!((peak - 300.0).abs() < 1e-9, "{peak}");
    }

    #[test]
    fn global_edge_occupancy_is_window_volume() {
        let g = chain();
        let edges = edge_infos(&g, 300);
        assert_eq!(peak_occupancy(&edges[0], &[(0.0, 100.0)]), 300.0);
    }

    #[test]
    fn multi_chunk_occupancy_superposes() {
        let mut g = DataflowGraph::new();
        let src = g.source("src", Shape::new(1, 1), 1);
        let m = g.map("m", Shape::new(1, 1), Shape::new(1, 1), 0);
        let sink = g.sink("sink", Shape::new(1, 1), 1);
        g.connect(src, m);
        g.connect(m, sink);
        let edges = edge_infos(&g, 100);
        // Two chunks, consumer lags 10 cycles each: peaks do not add when
        // chunks are spaced a full period apart.
        let spaced = peak_occupancy(&edges[0], &[(0.0, 10.0), (100.0, 110.0)]);
        assert!((spaced - 10.0).abs() < 1e-9);
        // Overlapping chunks accumulate.
        let overlapped = peak_occupancy(&edges[0], &[(0.0, 10.0), (20.0, 120.0)]);
        assert!(overlapped > spaced);
    }

    #[test]
    fn validate_certifies_exactly_and_rejects_undersizing() {
        let mut g = DataflowGraph::new();
        let src = g.source("src", Shape::new(1, 1), 1);
        let m = g.map("m", Shape::new(1, 1), Shape::new(1, 1), 0);
        let sink = g.sink("sink", Shape::new(1, 1), 1);
        g.connect(src, m);
        g.connect(m, sink);
        let edges = edge_infos(&g, 100);
        // Consumer 10 cycles late at matched unit rates: discrete peak is
        // exactly 10 on the first edge, 1 on the matched second edge.
        let mut schedule = Schedule {
            start_cycles: vec![0, 10, 10],
            buffer_sizes: vec![10, 1],
            makespan: 110,
            total_buffer_elements: 11,
            constraint_count: 0,
            lp_iterations: 0,
            solver_nodes: 0,
        };
        assert_eq!(validate_schedule(&edges, &schedule), Ok(()));
        let cert = certify_schedule(&edges, &schedule, 1, 1);
        assert_eq!(cert.edges[0].certified_peak, 10);
        // One element short is a rejection — no float tolerance absorbs it.
        schedule.buffer_sizes[0] = 9;
        assert_eq!(validate_schedule(&edges, &schedule), Err(0));
    }
}
