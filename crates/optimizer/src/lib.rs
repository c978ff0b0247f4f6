//! ILP line-buffer optimizer (Sec. 5 of the StreamGrid paper).
//!
//! Given a dataflow-graph description of a (CS/DT-transformed) pipeline,
//! the optimizer finds the schedule — integer start cycles per stage —
//! that minimizes the total line-buffer size while sustaining the highest
//! throughput with zero on-chip stalls:
//!
//! 1. [`formulation`] builds the ILP (Eqns. 1–8), either with the paper's
//!    monotonicity-based *constraint pruning* or the naive per-timestep
//!    constraints (for the ablation);
//! 2. `streamgrid-ilp` solves it exactly;
//! 3. [`schedule`] certifies the result against the exact *discrete*
//!    occupancy model (`streamgrid-verify`), bumping any buffer the
//!    fluid ILP under-sized by a discretization transient;
//! 4. [`multichunk`] extends the single-chunk result to streamed chunks
//!    by bubble insertion (Fig. 11).
//!
//! # Examples
//!
//! ```
//! use streamgrid_dataflow::{DataflowGraph, Shape};
//! use streamgrid_optimizer::{optimize, OptimizeConfig};
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
//! let schedule = optimize(&g, &OptimizeConfig::new(768))?;
//! assert!(schedule.total_buffer_elements >= 768); // kNN buffers its chunk
//! # Ok::<(), streamgrid_optimizer::OptimizeError>(())
//! ```

pub mod formulation;
pub mod json;
pub mod multichunk;
pub mod schedule;

pub use formulation::{build, edge_infos, EdgeInfo, Formulation, FormulationKind};
pub use multichunk::{multi_chunk_peaks, plan_multi_chunk, MultiChunkPlan};
pub use schedule::{
    asap_schedule, cert_edges, certify_and_raise, certify_schedule, peak_occupancy,
    validate_schedule, Schedule,
};

use std::sync::atomic::{AtomicU64, Ordering};

use streamgrid_dataflow::DataflowGraph;
use streamgrid_ilp::{SolveError, SolveStatus};

/// Process-wide count of [`optimize`] invocations (each performs exactly
/// one ILP solve). Monotonic; callers compare before/after deltas to
/// verify compile-cache behavior (e.g. `streamgrid-core`'s `Session`).
static SOLVE_INVOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The number of ILP solves this process has performed so far.
pub fn solve_invocations() -> u64 {
    SOLVE_INVOCATIONS.load(Ordering::Relaxed)
}

/// Configuration of one optimization run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizeConfig {
    /// Elements each source emits per chunk (chunk size × attributes).
    pub source_elements: u64,
    /// Constraint formulation (pruned by default).
    pub kind: FormulationKind,
    /// Extra makespan allowance as a fraction of the ASAP makespan
    /// (0.0 = highest throughput).
    pub makespan_slack: f64,
}

impl OptimizeConfig {
    /// Highest-throughput pruned configuration for the given chunk
    /// volume.
    pub fn new(source_elements: u64) -> Self {
        OptimizeConfig {
            source_elements,
            kind: FormulationKind::Pruned,
            makespan_slack: 0.0,
        }
    }
}

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

/// Runs the full optimization: formulate → solve → certify.
///
/// The ILP sizes buffers against the fluid occupancy envelope; the
/// discrete stepper can transiently exceed it by an O(τ) visit-order
/// term the continuous model cannot see. After solving, the schedule is
/// certified against the exact discrete model and any marginally
/// over-bound buffer is bumped to its certified peak, so the returned
/// schedule always carries an accepting certificate: a certified peak
/// does not depend on the bound it is checked against, so a bound raised
/// to it is accepted without certifying again.
///
/// # Errors
///
/// Returns [`OptimizeError::Infeasible`] when no schedule meets the
/// performance target and [`OptimizeError::Solver`] on solver failure.
pub fn optimize(graph: &DataflowGraph, config: &OptimizeConfig) -> Result<Schedule, OptimizeError> {
    SOLVE_INVOCATIONS.fetch_add(1, Ordering::Relaxed);
    let edges = edge_infos(graph, config.source_elements);
    let (_, asap_makespan) = asap_schedule(graph, &edges);
    // One cycle of headroom per stage: integer start times round up
    // fractional ASAP bounds, and the rounding accumulates along chains.
    let rounding_slack = graph.node_count() as f64 + 1.0;
    let limit = asap_makespan * (1.0 + config.makespan_slack) + rounding_slack;
    let f = build(graph, config.source_elements, config.kind, limit);
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
    for e in &edges {
        let read_end = start_cycles[e.consumer.index()] as f64 + e.read_dur;
        let write_end = start_cycles[e.producer.index()] as f64 + e.depth_p as f64 + e.write_dur;
        makespan = makespan
            .max(read_end.ceil() as u64)
            .max(write_end.ceil() as u64);
    }
    let mut schedule = Schedule {
        start_cycles,
        buffer_sizes,
        makespan,
        total_buffer_elements,
        constraint_count: f.constraint_count,
        lp_iterations: sol.lp_iterations,
        solver_nodes: sol.nodes,
    };
    // Certify the single-chunk discrete envelope and absorb any
    // discretization transient the fluid formulation under-sized.
    certify_and_raise(&edges, &mut schedule, 1, 1);
    Ok(schedule)
}
