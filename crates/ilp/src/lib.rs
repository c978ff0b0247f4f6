//! Mixed-integer linear programming for the StreamGrid reproduction.
//!
//! The paper solves its line-buffer minimization (Sec. 5) with Google
//! OR-Tools; this crate is the from-scratch substitute: a modeling layer
//! ([`Model`], [`LinExpr`]), a two-phase primal simplex, and best-first
//! branch & bound for integer variables. Any exact solver returns the
//! same optimum, so the substitution preserves the paper's results.
//!
//! Before the first branch & bound node, a presolve rounds the
//! right-hand side of every row whose terms are all integer variables
//! with integer coefficients toward its feasible side (`x − y ≥ 3.7`
//! becomes `x − y ≥ 4`). Only integer values of such a row's left-hand
//! side exist, so the rounding keeps every integer point and every
//! optimum, though the solve may return another optimal vertex than the
//! model as written would. The line-buffer ILPs are built from exactly
//! these rows (integer start cycles, fractional durations), and after
//! rounding their relaxation is almost always integral at the root: a
//! solve takes one node instead of dozens. The model itself is never
//! rewritten.
//!
//! The simplex keeps one flat row-major tableau in a workspace that a
//! solve creates once and reuses for every branch & bound node's LP, and
//! each pivot updates only the pivot row's nonzero columns in the rows
//! that need it. Skipped updates are exactly the ones that would subtract
//! zero, so every pivot, and with it every returned vertex, is the one a
//! dense textbook tableau produces.
//!
//! # Examples
//!
//! ```
//! use streamgrid_ilp::{CmpOp, LinExpr, Model, Sense, SolveStatus};
//!
//! // max 8a + 11b + 6c s.t. 5a + 7b + 4c <= 14, binary.
//! let mut m = Model::new();
//! let a = m.add_var("a", 0.0, 1.0, true);
//! let b = m.add_var("b", 0.0, 1.0, true);
//! let c = m.add_var("c", 0.0, 1.0, true);
//! let cap = LinExpr::from(a) * 5.0 + LinExpr::from(b) * 7.0 + LinExpr::from(c) * 4.0;
//! m.add_constraint("capacity", cap, CmpOp::Le, 14.0);
//! m.set_objective(
//!     LinExpr::from(a) * 8.0 + LinExpr::from(b) * 11.0 + LinExpr::from(c) * 6.0,
//!     Sense::Maximize,
//! );
//! let sol = m.solve()?;
//! assert_eq!(sol.status, SolveStatus::Optimal);
//! # Ok::<(), streamgrid_ilp::SolveError>(())
//! ```

mod branch_bound;
mod expr;
mod model;
mod simplex;

pub use expr::{LinExpr, VarId};
pub use model::{CmpOp, Model, Sense};

use serde::{Deserialize, Serialize};

/// Solver termination status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolveStatus {
    /// An optimal assignment was found.
    Optimal,
    /// No feasible assignment exists.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
}

/// A solve result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Solution {
    /// Termination status; `objective`/`values` are meaningful only for
    /// [`SolveStatus::Optimal`].
    pub status: SolveStatus,
    /// Objective value at the optimum.
    pub objective: f64,
    /// Variable assignment indexed by [`VarId::index`].
    pub values: Vec<f64>,
    /// Total simplex iterations across all branch & bound nodes.
    pub lp_iterations: u64,
    /// Branch & bound nodes explored (1 for pure LPs).
    pub nodes: u64,
}

impl Solution {
    /// The value of `var` in the solution.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    pub(crate) fn infeasible() -> Self {
        Solution {
            status: SolveStatus::Infeasible,
            objective: f64::NAN,
            values: Vec::new(),
            lp_iterations: 0,
            nodes: 0,
        }
    }

    pub(crate) fn unbounded() -> Self {
        Solution {
            status: SolveStatus::Unbounded,
            objective: f64::NAN,
            values: Vec::new(),
            lp_iterations: 0,
            nodes: 0,
        }
    }
}

/// Solver options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolveOptions {
    /// Maximum branch & bound nodes before giving up.
    pub max_nodes: u64,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions { max_nodes: 200_000 }
    }
}

/// Errors returned by [`Model::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The model has no objective; call [`Model::set_objective`] first.
    NoObjective,
    /// Branch & bound exhausted its node budget.
    NodeLimit {
        /// The configured limit.
        max_nodes: u64,
    },
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::NoObjective => write!(f, "model has no objective"),
            SolveError::NodeLimit { max_nodes } => {
                write!(f, "branch and bound exceeded {max_nodes} nodes")
            }
        }
    }
}

impl std::error::Error for SolveError {}
