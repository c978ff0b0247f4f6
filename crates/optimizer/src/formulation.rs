//! ILP formulation of the line-buffer minimization (Sec. 5.2).
//!
//! Decision variables are the integer start cycles `t_{s,i}` of every
//! stage plus one continuous size variable per line buffer. Constraints:
//!
//! * **data dependency** — local consumers (Eqn. 6, pruned to its two
//!   binding endpoints by monotonicity, Eqn. 8) and global consumers
//!   (Eqn. 7: everything produced before the consumer starts);
//! * **buffer size** — each `LB_e` dominates the peak occupancy
//!   expressions of Eqn. 8, and for global consumers the full retained
//!   volume `window_chunks · W_producer`.
//!
//! [`FormulationKind::Full`] generates the unpruned per-timestep
//! dependency constraints instead — the ablation showing why pruning is
//! needed (PointNet++-scale graphs exceed 100K constraints, Sec. 5.2).

use streamgrid_dataflow::{DataflowGraph, NodeId, OpKind, Rate};
use streamgrid_ilp::{CmpOp, LinExpr, Model, Sense, VarId};

/// Which dependency-constraint formulation to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FormulationKind {
    /// The paper's pruned formulation: two constraints per edge.
    Pruned,
    /// The naive formulation: one constraint per `stride` timesteps of
    /// each consumer's read window.
    Full {
        /// Timestep stride (1 = every cycle).
        stride: u64,
    },
}

/// Derived per-edge constants the formulation and the schedule evaluator
/// share.
///
/// Equality is exact (including the `f64` durations): two `EdgeInfo`s
/// compare equal iff they were derived from identical graphs at the same
/// chunk volume, which is what persistent schedule caches rely on when
/// validating a deserialized entry against a fresh derivation.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeInfo {
    /// Producer stage.
    pub producer: NodeId,
    /// Consumer stage.
    pub consumer: NodeId,
    /// Producer write rate into this buffer (elements/cycle).
    pub tau_out: f64,
    /// Consumer read rate from this buffer (elements/cycle).
    pub tau_in: f64,
    /// Exact producer write rate — the same τ_out the float field
    /// approximates, kept as a rational so the execution engines can run
    /// integer-exact accumulators without re-deriving rates from the
    /// graph.
    pub tau_out_rate: Rate,
    /// Exact consumer read rate (see [`EdgeInfo::tau_out_rate`]).
    pub tau_in_rate: Rate,
    /// Elements the producer writes per chunk (`W_P`).
    pub volume: u64,
    /// Producer pipeline depth (write start offset from `t_{s,P}`).
    pub depth_p: u64,
    /// Producer write duration in cycles (`W_P / τ_out`).
    pub write_dur: f64,
    /// Consumer read duration in cycles (`W_P / τ_in`).
    pub read_dur: f64,
    /// `true` when the consumer is a global op (Eqn. 7 applies).
    pub global_consumer: bool,
    /// Chunk-window retention factor for global consumers (Fig. 7).
    pub window_chunks: u32,
    /// Functional minimum size (one write burst / one reuse window).
    pub min_size: u64,
}

/// The assembled model plus variable handles.
#[derive(Debug)]
pub struct Formulation {
    /// The ILP.
    pub model: Model,
    /// Start-cycle variable of each stage (indexed by `NodeId::index`).
    pub t_vars: Vec<VarId>,
    /// Buffer-size variable of each edge (indexed by `EdgeId::index`).
    pub lb_vars: Vec<VarId>,
    /// Number of dependency + sizing constraints generated.
    pub constraint_count: usize,
}

/// Extracts the per-edge constants from a validated graph.
///
/// # Panics
///
/// Panics if the graph fails validation.
pub fn edge_infos(graph: &DataflowGraph, source_elements: u64) -> Vec<EdgeInfo> {
    graph.validate().expect("invalid dataflow graph");
    let volumes = graph.volumes(source_elements);
    graph
        .edges()
        .map(|(_, p, c)| {
            let prod = graph.node(p);
            let cons = graph.node(c);
            let tau_out_rate = prod.tau_out();
            let tau_in_rate = cons.tau_in();
            let tau_out = tau_out_rate.as_f64();
            let tau_in = tau_in_rate.as_f64();
            assert!(tau_out > 0.0, "producer {} has zero output rate", prod.name);
            assert!(tau_in > 0.0, "consumer {} has zero input rate", cons.name);
            let volume = volumes[p.index()];
            let global_consumer = cons.kind.is_global();
            let min_size =
                (prod.o_shape.elements()).max(cons.i_shape.elements() * cons.beta() as u64);
            EdgeInfo {
                producer: p,
                consumer: c,
                tau_out,
                tau_in,
                tau_out_rate,
                tau_in_rate,
                volume,
                depth_p: prod.stage_depth as u64,
                write_dur: volume as f64 / tau_out,
                read_dur: volume as f64 / tau_in,
                global_consumer,
                window_chunks: cons.window_chunks,
                min_size,
            }
        })
        .collect()
}

/// Builds the ILP for a single-chunk pipeline from `graph`'s per-edge
/// constants at the chunk volume to schedule ([`edge_infos`]).
///
/// `makespan_limit` (cycles) pins the performance target: the sink must
/// finish reading by then. Pass the ASAP makespan for "highest
/// throughput" (Sec. 5.1), or a larger value to trade latency for
/// buffers.
///
/// # Panics
///
/// Panics unless `edges` holds one entry per edge of `graph`.
pub fn build(
    graph: &DataflowGraph,
    edges: &[EdgeInfo],
    kind: FormulationKind,
    makespan_limit: f64,
) -> Formulation {
    assert_eq!(edges.len(), graph.edge_count(), "one EdgeInfo per edge");
    let mut model = Model::new();
    let t_vars: Vec<VarId> = graph
        .nodes()
        .map(|(_, n)| model.add_var(&format!("t_{}", n.name), 0.0, f64::INFINITY, true))
        .collect();
    let lb_vars: Vec<VarId> = graph
        .edges()
        .map(|(e, p, c)| {
            let name = format!(
                "lb_{}_{}__{}",
                e.index(),
                graph.node(p).name,
                graph.node(c).name
            );
            model.add_var(&name, 0.0, f64::INFINITY, false)
        })
        .collect();

    let mut constraint_count = 0usize;
    // Sources start at cycle 0 (the stream begins immediately).
    for (id, n) in graph.nodes() {
        if matches!(n.kind, OpKind::Source) {
            model.add_constraint(
                &format!("src_{}", n.name),
                LinExpr::from(t_vars[id.index()]),
                CmpOp::Eq,
                0.0,
            );
            constraint_count += 1;
        }
    }

    for (i, e) in edges.iter().enumerate() {
        let tp = t_vars[e.producer.index()];
        let tc = t_vars[e.consumer.index()];
        let lb = lb_vars[i];
        let t_w_off = e.depth_p as f64; // t_w = t_P + depth_P
        let cons_name = graph.node(e.consumer).name.clone();
        let prod_name = graph.node(e.producer).name.clone();

        if e.global_consumer {
            // Eqn. 7: t_{s,C} ≥ t_w + W/τ_out.
            model.add_constraint(
                &format!("dep_global_{prod_name}_{cons_name}"),
                LinExpr::from(tc) - LinExpr::from(tp),
                CmpOp::Ge,
                t_w_off + e.write_dur,
            );
            constraint_count += 1;
            // The buffer retains the whole window of chunks.
            model.add_constraint(
                &format!("size_global_{prod_name}_{cons_name}"),
                LinExpr::from(lb),
                CmpOp::Ge,
                (e.volume * e.window_chunks as u64) as f64,
            );
            constraint_count += 1;
        } else {
            match kind {
                FormulationKind::Pruned => {
                    // Eqn. 6 pruned to its two binding points:
                    // (a) the consumer cannot start before the first read
                    //     burst has been written;
                    let startup =
                        (graph.node(e.consumer).i_shape.elements() as f64 / e.tau_out).ceil();
                    model.add_constraint(
                        &format!("dep_start_{prod_name}_{cons_name}"),
                        LinExpr::from(tc) - LinExpr::from(tp),
                        CmpOp::Ge,
                        t_w_off + startup,
                    );
                    // (b) the consumer's last read cannot overtake the
                    //     producer's last write.
                    model.add_constraint(
                        &format!("dep_end_{prod_name}_{cons_name}"),
                        LinExpr::from(tc) - LinExpr::from(tp),
                        CmpOp::Ge,
                        t_w_off + e.write_dur - e.read_dur,
                    );
                    constraint_count += 2;
                }
                FormulationKind::Full { stride } => {
                    // Naive Eqn. 6: ∀τ ∈ [0, read_dur]:
                    // (t_C + τ − t_w)·τ_out ≥ τ·τ_in
                    // → (t_C − t_P)·τ_out ≥ τ·(τ_in − τ_out) + depth·τ_out.
                    // The window ends exactly at read_dur (fractional),
                    // matching the pruned endpoint.
                    let stride = stride.max(1) as f64;
                    let mut tau = 0.0f64;
                    let mut step_idx = 0u64;
                    loop {
                        model.add_constraint(
                            &format!("dep_t{step_idx}_{prod_name}_{cons_name}"),
                            (LinExpr::from(tc) - LinExpr::from(tp)) * e.tau_out,
                            CmpOp::Ge,
                            tau * (e.tau_in - e.tau_out) + t_w_off * e.tau_out,
                        );
                        constraint_count += 1;
                        if tau >= e.read_dur {
                            break;
                        }
                        tau = (tau + stride).min(e.read_dur);
                        step_idx += 1;
                    }
                }
            }
            // Eqn. 8 buffer sizing, term 1: occupancy when overwrites
            // begin (t_o = t_C for local consumers):
            // LB ≥ (t_C − t_P − depth)·τ_out.
            model.add_constraint(
                &format!("size_head_{prod_name}_{cons_name}"),
                LinExpr::from(lb) + (LinExpr::from(tp) - LinExpr::from(tc)) * e.tau_out,
                CmpOp::Ge,
                -t_w_off * e.tau_out,
            );
            // Term 2: occupancy at the producer's last write:
            // LB ≥ W − (t_e − t_C)·τ_in with t_e = t_P + depth + write_dur.
            model.add_constraint(
                &format!("size_tail_{prod_name}_{cons_name}"),
                LinExpr::from(lb) + (LinExpr::from(tp) - LinExpr::from(tc)) * e.tau_in,
                CmpOp::Ge,
                e.volume as f64 - e.tau_in * (t_w_off + e.write_dur),
            );
            constraint_count += 2;
        }
        // Functional minimum (one write burst / one reuse window).
        model.add_constraint(
            &format!("size_min_{prod_name}_{cons_name}"),
            LinExpr::from(lb),
            CmpOp::Ge,
            e.min_size as f64,
        );
        constraint_count += 1;
    }

    // Performance target: every consumer finishes reading by the limit.
    for e in edges {
        let tc = t_vars[e.consumer.index()];
        model.add_constraint(
            &format!("makespan_{}", graph.node(e.consumer).name),
            LinExpr::from(tc),
            CmpOp::Le,
            (makespan_limit - e.read_dur).max(0.0),
        );
        constraint_count += 1;
    }

    // Objective: Eqn. 1 — minimize total line-buffer size.
    let mut objective = LinExpr::new();
    for &lb in &lb_vars {
        objective.add_term(lb, 1.0);
    }
    model.set_objective(objective, Sense::Minimize);

    Formulation {
        model,
        t_vars,
        lb_vars,
        constraint_count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamgrid_dataflow::Shape;
    use streamgrid_ilp::SolveStatus;

    fn chain() -> DataflowGraph {
        let mut g = DataflowGraph::new();
        let src = g.source("src", Shape::new(1, 3), 1);
        let scale = g.map("scale", Shape::new(1, 3), Shape::new(1, 3), 2);
        let sink = g.sink("sink", Shape::new(1, 3), 1);
        g.connect(src, scale);
        g.connect(scale, sink);
        g
    }

    #[test]
    fn pruned_chain_solves_small() {
        let g = chain();
        let f = build(&g, &edge_infos(&g, 300), FormulationKind::Pruned, 1_000.0);
        let sol = f.model.solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        // Matched rates: buffers stay at the functional minimum (3
        // elements each).
        assert!(sol.objective <= 6.0 + 1e-6, "objective {}", sol.objective);
    }

    #[test]
    fn full_formulation_same_optimum_many_more_constraints() {
        let g = chain();
        let edges = edge_infos(&g, 300);
        let pruned = build(&g, &edges, FormulationKind::Pruned, 1_000.0);
        let full = build(&g, &edges, FormulationKind::Full { stride: 1 }, 1_000.0);
        assert!(
            full.constraint_count > 10 * pruned.constraint_count,
            "{} vs {}",
            full.constraint_count,
            pruned.constraint_count
        );
        let a = pruned.model.solve().unwrap();
        let b = full.model.solve().unwrap();
        assert!((a.objective - b.objective).abs() < 1e-6);
    }

    #[test]
    fn global_edge_requires_full_volume() {
        let mut g = DataflowGraph::new();
        let src = g.source("src", Shape::new(1, 3), 1);
        let knn = g.global_op("knn", Shape::new(1, 3), 1, Shape::new(4, 3), 8, (1, 1), 8);
        let sink = g.sink("sink", Shape::new(1, 3), 1);
        g.connect(src, knn);
        g.connect(knn, sink);
        let f = build(&g, &edge_infos(&g, 900), FormulationKind::Pruned, 100_000.0);
        let sol = f.model.solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);
        // The src→knn buffer must hold all 900 elements.
        let lb0 = sol.value(f.lb_vars[0]);
        assert!(lb0 >= 900.0 - 1e-6, "lb0 = {lb0}");
    }

    #[test]
    fn window_chunks_scale_global_buffer() {
        let mut g = DataflowGraph::new();
        let src = g.source("src", Shape::new(1, 3), 1);
        let knn = g.global_op("knn", Shape::new(1, 3), 1, Shape::new(1, 3), 1, (1, 1), 8);
        let sink = g.sink("sink", Shape::new(1, 3), 1);
        g.set_window_chunks(knn, 2);
        g.connect(src, knn);
        g.connect(knn, sink);
        let f = build(&g, &edge_infos(&g, 300), FormulationKind::Pruned, 100_000.0);
        let sol = f.model.solve().unwrap();
        let lb0 = sol.value(f.lb_vars[0]);
        assert!(lb0 >= 600.0 - 1e-6, "window of 2 chunks: lb0 = {lb0}");
    }

    #[test]
    fn rate_mismatch_forces_buffering() {
        // Producer emits 4 elements/cycle, consumer drains 1/cycle: the
        // buffer must absorb the difference over the whole chunk.
        let mut g = DataflowGraph::new();
        let src = g.source("src", Shape::new(4, 1), 1);
        let slow = g.map("slow", Shape::new(1, 1), Shape::new(1, 1), 1);
        let sink = g.sink("sink", Shape::new(1, 1), 1);
        g.connect(src, slow);
        g.connect(slow, sink);
        let f = build(&g, &edge_infos(&g, 400), FormulationKind::Pruned, 10_000.0);
        let sol = f.model.solve().unwrap();
        // Writing 400 elements takes 100 cycles; reading takes 400. The
        // consumer can start immediately, so peak occupancy ≈ W·(1−τin/τout)
        // = 400·(3/4) = 300.
        let lb0 = sol.value(f.lb_vars[0]);
        assert!((lb0 - 300.0).abs() <= 4.0, "lb0 = {lb0}");
    }

    #[test]
    fn tight_makespan_is_infeasible_when_too_small() {
        let g = chain();
        let f = build(&g, &edge_infos(&g, 300), FormulationKind::Pruned, 10.0);
        let sol = f.model.solve().unwrap();
        assert_eq!(sol.status, SolveStatus::Infeasible);
    }

    #[test]
    fn edge_infos_derive_durations() {
        let g = chain();
        let infos = edge_infos(&g, 300);
        assert_eq!(infos.len(), 2);
        // src emits 3 elem/cycle: 300 elements in 100 cycles.
        assert_eq!(infos[0].volume, 300);
        assert!((infos[0].write_dur - 100.0).abs() < 1e-9);
        assert!((infos[0].read_dur - 100.0).abs() < 1e-9);
        assert!(!infos[0].global_consumer);
        // The exact rationals agree with the float rates the ILP uses.
        for e in &infos {
            assert!((e.tau_out_rate.as_f64() - e.tau_out).abs() < 1e-12);
            assert!((e.tau_in_rate.as_f64() - e.tau_in).abs() < 1e-12);
        }
    }
}
