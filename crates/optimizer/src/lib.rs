//! ILP line-buffer optimizer (Sec. 5 of the StreamGrid paper).
//!
//! Given a dataflow-graph description of a (CS/DT-transformed) pipeline
//! and its per-edge constants at one chunk size ([`edge_infos`]), the
//! optimizer finds the schedule — integer start cycles per stage — that
//! minimizes the total line-buffer size while sustaining the highest
//! throughput with zero on-chip stalls:
//!
//! 1. [`formulation`] builds the ILP (Eqns. 1–8), either with the paper's
//!    monotonicity-based *constraint pruning* or the naive per-timestep
//!    constraints (for the ablation);
//! 2. `streamgrid-ilp` solves it exactly ([`optimize`]);
//! 3. [`multichunk`] extends the single-chunk result to streamed chunks
//!    by bubble insertion (Fig. 11);
//! 4. [`provision`] turns the solve into the buffers a design carries:
//!    it applies a non-DT design's latency margin, then certifies the
//!    schedule once against the exact *discrete* occupancy model
//!    (`streamgrid-verify`) over the whole chunk lattice, raising any
//!    buffer the fluid ILP under-sized by a discretization transient.
//!
//! # Examples
//!
//! ```
//! use streamgrid_dataflow::{DataflowGraph, Shape};
//! use streamgrid_optimizer::{certify_schedule, edge_infos, plan_multi_chunk, provision};
//!
//! let mut g = DataflowGraph::new();
//! let src = g.source("reader", Shape::new(1, 3), 1);
//! let knn = g.global_op("knn", Shape::new(1, 3), 1, Shape::new(4, 3), 8, (1, 1), 8);
//! let sten = g.stencil("stencil", Shape::new(1, 3), Shape::new(1, 1), 2, (2, 1));
//! let sink = g.sink("writer", Shape::new(1, 1), 1);
//! g.connect(src, knn);
//! g.connect(knn, sten);
//! g.connect(sten, sink);
//!
//! let edges = edge_infos(&g, 768);
//! let plan = plan_multi_chunk(&g, &edges);
//! let schedule = provision(&g, &edges, &plan, 4, None)?;
//! assert!(schedule.total_buffer_elements >= 768); // kNN buffers its chunk
//! assert!(certify_schedule(&edges, &schedule, plan.initiation_interval, 4).accepted());
//! # Ok::<(), streamgrid_optimizer::OptimizeError>(())
//! ```

pub mod formulation;
pub mod json;
pub mod multichunk;
pub mod schedule;

pub use formulation::{build, edge_infos, EdgeInfo, Formulation, FormulationKind};
pub use multichunk::{multi_chunk_peaks, plan_multi_chunk, MultiChunkPlan};
pub use schedule::{
    asap_schedule, cert_edges, certify_schedule, peak_occupancy, validate_schedule, Schedule,
};

use streamgrid_dataflow::DataflowGraph;
use streamgrid_ilp::{SolveError, SolveStatus};

/// Optimization failures.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizeError {
    /// The underlying solver failed.
    Solver(SolveError),
    /// The formulation is infeasible at the requested performance target.
    Infeasible,
}

impl std::fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizeError::Solver(e) => write!(f, "ILP solver failed: {e}"),
            OptimizeError::Infeasible => {
                write!(f, "no schedule meets the performance target")
            }
        }
    }
}

impl std::error::Error for OptimizeError {}

impl From<SolveError> for OptimizeError {
    fn from(e: SolveError) -> Self {
        OptimizeError::Solver(e)
    }
}

/// Formulates and solves the line-buffer ILP for `graph` at the chunk
/// volume `edges` were derived at ([`edge_infos`]), for the highest
/// throughput: the sink must finish by the ASAP makespan plus one cycle
/// of rounding headroom per stage.
///
/// The result is the ILP's own schedule. The ILP sizes buffers against
/// the fluid occupancy envelope, which a discrete run can transiently
/// exceed; [`provision`] certifies a schedule and raises such bounds.
///
/// # Errors
///
/// Returns [`OptimizeError::Infeasible`] when no schedule meets the
/// performance target and [`OptimizeError::Solver`] on solver failure.
pub fn optimize(graph: &DataflowGraph, edges: &[EdgeInfo]) -> Result<Schedule, OptimizeError> {
    let (_, asap_makespan) = asap_schedule(graph, edges);
    // One cycle of headroom per stage: integer start times round up
    // fractional ASAP bounds, and the rounding accumulates along chains.
    let rounding_slack = graph.node_count() as f64 + 1.0;
    let f = build(
        graph,
        edges,
        FormulationKind::Pruned,
        asap_makespan + rounding_slack,
    );
    let sol = f.model.solve()?;
    match sol.status {
        SolveStatus::Optimal => {}
        SolveStatus::Infeasible => return Err(OptimizeError::Infeasible),
        SolveStatus::Unbounded => {
            unreachable!("minimization with non-negative objective cannot be unbounded")
        }
    }
    let start_cycles: Vec<u64> = f
        .t_vars
        .iter()
        .map(|&v| sol.value(v).round().max(0.0) as u64)
        .collect();
    let buffer_sizes: Vec<u64> = f
        .lb_vars
        .iter()
        .map(|&v| sol.value(v).ceil().max(0.0) as u64)
        .collect();
    let total_buffer_elements = buffer_sizes.iter().sum();
    let mut makespan = 0u64;
    for e in edges {
        let read_end = start_cycles[e.consumer.index()] as f64 + e.read_dur;
        let write_end = start_cycles[e.producer.index()] as f64 + e.depth_p as f64 + e.write_dur;
        makespan = makespan
            .max(read_end.ceil() as u64)
            .max(write_end.ceil() as u64);
    }
    Ok(Schedule {
        start_cycles,
        buffer_sizes,
        makespan,
        total_buffer_elements,
        constraint_count: f.constraint_count,
        lp_iterations: sol.lp_iterations,
        solver_nodes: sol.nodes,
    })
}

/// Provisions a design's line buffers: the only path from an ILP solve
/// to the buffers a design carries.
///
/// Solves the ILP ([`optimize`]); scales every size by `1 +
/// latency_margin` when a margin is given, since a design without
/// deterministic termination cannot trust the ILP sizes at run time;
/// then certifies the schedule once over `n_chunks` chunks issued at the
/// plan's initiation interval and raises every bound the certificate
/// rejects to its certified peak. A certified peak does not depend on
/// the bound it is checked against, so the returned schedule certifies
/// accepting over that lattice without another pass.
///
/// # Errors
///
/// Propagates [`optimize`]'s errors.
pub fn provision(
    graph: &DataflowGraph,
    edges: &[EdgeInfo],
    plan: &MultiChunkPlan,
    n_chunks: u64,
    latency_margin: Option<f64>,
) -> Result<Schedule, OptimizeError> {
    let mut schedule = optimize(graph, edges)?;
    if let Some(margin) = latency_margin {
        for s in &mut schedule.buffer_sizes {
            *s = (*s as f64 * (1.0 + margin)).ceil() as u64;
        }
    }
    let cert = certify_schedule(edges, &schedule, plan.initiation_interval, n_chunks);
    for ec in cert.edges.iter().filter(|ec| !ec.accepted) {
        schedule.buffer_sizes[ec.edge] = ec.certified_peak;
    }
    schedule.total_buffer_elements = schedule.buffer_sizes.iter().sum();
    Ok(schedule)
}
