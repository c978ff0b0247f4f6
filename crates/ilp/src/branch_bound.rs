//! Branch & bound over the simplex LP relaxation.
//!
//! Best-first search on the relaxation bound; branching on the integer
//! variable with the most fractional relaxation value. Every node's
//! relaxation is solved from scratch in one shared `LpWorkspace`, so the
//! tree's order and node count depend only on the model.
//!
//! # Presolve
//!
//! Before the first node, `presolve` rounds the right-hand side of
//! every row whose terms are all integer variables with integer
//! coefficients: its left-hand side can only take integer values, so
//! `expr ≥ 3.7` holds at an integer point exactly when `expr ≥ 4` does.
//! This is a Chvátal–Gomory cut with multiplier 1. It removes no integer
//! point, so no optimum moves, but it removes the fractional vertices
//! such a row creates. The line-buffer rows `t_C − t_P ≥ w` have
//! fractional `w` (write and read durations), and their constraint
//! matrix is difference-like, so after rounding the relaxation is
//! almost always integral at the root: a line-buffer solve at the
//! `cold-compile` benchmark's sizes takes one node, where it took about
//! 38 without the presolve. The solver stays a complete MILP solver:
//! rows with a fractional coefficient or a continuous variable are left
//! as written, and the test suite exercises genuinely fractional
//! instances (knapsacks).

use std::collections::BinaryHeap;

use crate::model::{CmpOp, Model, Sense};
use crate::simplex::{LpOutcome, LpWorkspace};
use crate::{Solution, SolveError, SolveOptions, SolveStatus};

const INT_TOL: f64 = 1e-6;

struct NodeEntry {
    /// Relaxation bound (in minimize direction) — lower is better.
    bound: f64,
    bounds: Vec<(f64, f64)>,
}

impl PartialEq for NodeEntry {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for NodeEntry {}
impl PartialOrd for NodeEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for NodeEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for best-first (smallest bound).
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

/// Each constraint's right-hand side with its expression's constant
/// moved across, `rhs − constant`, rounded toward the feasible side
/// when the row's terms are all integer variables with integer
/// coefficients (`≥` up, `≤` down, to within `INT_TOL`; `=` rows stay).
///
/// The rounding applies to the model's own rows, before any node shifts
/// a variable by its lower bound: the shifted right-hand side
/// `r − Σ aⱼ·loⱼ` is fractional whenever a bound is, and rounding it
/// would cut integer points off.
pub(crate) fn presolve(model: &Model) -> Vec<f64> {
    model
        .constraints
        .iter()
        .map(|c| {
            let r = c.rhs - c.expr.constant();
            let integral = c
                .expr
                .iter()
                .all(|(v, a)| model.vars[v.index()].integer && a == a.round());
            match c.op {
                CmpOp::Ge if integral => (r - INT_TOL).ceil(),
                CmpOp::Le if integral => (r + INT_TOL).floor(),
                _ => r,
            }
        })
        .collect()
}

/// Solves `model` (LP or MILP).
pub(crate) fn solve(model: &Model, options: &SolveOptions) -> Result<Solution, SolveError> {
    if model.sense.is_none() {
        return Err(SolveError::NoObjective);
    }
    let to_min = match model.sense {
        Some(Sense::Maximize) => -1.0,
        _ => 1.0,
    };
    let root_bounds: Vec<(f64, f64)> = model.vars.iter().map(|v| (v.lower, v.upper)).collect();
    let row_rhs = presolve(model);
    let mut lp = LpWorkspace::default();

    // Pure LP fast path.
    if !model.has_integers() {
        return Ok(match lp.solve(model, &row_rhs, &root_bounds) {
            LpOutcome::Optimal {
                values,
                objective,
                iterations,
            } => Solution {
                status: SolveStatus::Optimal,
                objective,
                values,
                lp_iterations: iterations,
                nodes: 1,
            },
            LpOutcome::Infeasible => Solution::infeasible(),
            LpOutcome::Unbounded => Solution::unbounded(),
        });
    }

    let mut heap: BinaryHeap<NodeEntry> = BinaryHeap::new();
    let mut incumbent: Option<(f64, Vec<f64>)> = None; // (min-direction obj, values)
    let mut nodes = 0u64;
    let mut lp_iterations = 0u64;
    let mut root_unbounded = false;

    heap.push(NodeEntry {
        bound: f64::NEG_INFINITY,
        bounds: root_bounds,
    });

    while let Some(NodeEntry { bound, bounds }) = heap.pop() {
        if nodes >= options.max_nodes {
            return Err(SolveError::NodeLimit {
                max_nodes: options.max_nodes,
            });
        }
        nodes += 1;
        // Prune by incumbent.
        if let Some((best, _)) = &incumbent {
            if bound >= *best - INT_TOL {
                continue;
            }
        }
        let (values, obj_min, iters) = match lp.solve(model, &row_rhs, &bounds) {
            LpOutcome::Optimal {
                values,
                objective,
                iterations,
            } => (values, to_min * objective, iterations),
            LpOutcome::Infeasible => continue,
            LpOutcome::Unbounded => {
                if nodes == 1 {
                    root_unbounded = true;
                    break;
                }
                // A child with tighter bounds cannot be unbounded if the
                // root was not; treat as numerically-failed node.
                continue;
            }
        };
        lp_iterations += iters;
        if let Some((best, _)) = &incumbent {
            if obj_min >= *best - INT_TOL {
                continue;
            }
        }
        // Most fractional integer variable.
        let mut branch_var = None;
        let mut best_frac = INT_TOL;
        for (i, v) in model.vars.iter().enumerate() {
            if v.integer {
                let frac = (values[i] - values[i].round()).abs();
                if frac > best_frac {
                    best_frac = frac;
                    branch_var = Some(i);
                }
            }
        }
        match branch_var {
            None => {
                // Integral: round to kill epsilon noise and accept.
                let mut snapped = values;
                for (i, v) in model.vars.iter().enumerate() {
                    if v.integer {
                        snapped[i] = snapped[i].round();
                    }
                }
                let obj = model.objective.eval(&snapped);
                let obj_min = to_min * obj;
                if incumbent
                    .as_ref()
                    .map(|(b, _)| obj_min < *b)
                    .unwrap_or(true)
                {
                    incumbent = Some((obj_min, snapped));
                }
            }
            Some(i) => {
                let x = values[i];
                let mut lo_branch = bounds.clone();
                lo_branch[i].1 = lo_branch[i].1.min(x.floor());
                let mut hi_branch = bounds;
                hi_branch[i].0 = hi_branch[i].0.max(x.ceil());
                heap.push(NodeEntry {
                    bound: obj_min,
                    bounds: lo_branch,
                });
                heap.push(NodeEntry {
                    bound: obj_min,
                    bounds: hi_branch,
                });
            }
        }
    }

    if root_unbounded {
        return Ok(Solution::unbounded());
    }
    Ok(match incumbent {
        Some((_, values)) => {
            let objective = model.objective.eval(&values);
            Solution {
                status: SolveStatus::Optimal,
                objective,
                values,
                lp_iterations,
                nodes,
            }
        }
        None => Solution::infeasible(),
    })
}

#[cfg(test)]
mod tests {
    use super::presolve;
    use crate::expr::LinExpr;
    use crate::model::{CmpOp, Model, Sense};
    use crate::{SolveOptions, SolveStatus};

    #[test]
    fn presolve_rounds_only_integer_rows() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.5, 9.0, true);
        let y = m.add_var("y", 0.0, 9.0, true);
        let z = m.add_var("z", 0.0, 9.0, false);
        let diff = LinExpr::from(x) - LinExpr::from(y);
        m.add_constraint("ge", diff.clone(), CmpOp::Ge, 3.7);
        m.add_constraint("le", diff.clone() * 2.0, CmpOp::Le, 3.7);
        m.add_constraint("eq", diff.clone(), CmpOp::Eq, 3.7);
        m.add_constraint("constant", diff.clone() + 0.5, CmpOp::Ge, 3.7);
        m.add_constraint("noise", diff.clone(), CmpOp::Ge, 3.0 + 1e-9);
        m.add_constraint("half", diff.clone() * 0.5, CmpOp::Ge, 3.7);
        m.add_constraint("continuous", diff + LinExpr::from(z), CmpOp::Ge, 3.7);
        assert_eq!(presolve(&m), [4.0, 3.0, 3.7, 4.0, 3.0, 3.7, 3.7]);
    }

    #[test]
    fn fractional_difference_rows_solve_at_the_root() {
        // A line-buffer-like chain: min t2 s.t. t0 = 0, t1 − t0 ≥ 3.7,
        // t2 − t1 ≥ 2.2. The relaxation of the model as written stops
        // at t = (0, 3.7, 5.9); rounding the rows makes it integral.
        let mut m = Model::new();
        let t: Vec<_> = (0..3)
            .map(|i| m.add_var(&format!("t{i}"), 0.0, f64::INFINITY, true))
            .collect();
        m.add_constraint("src", LinExpr::from(t[0]), CmpOp::Eq, 0.0);
        for (i, w) in [(1, 3.7), (2, 2.2)] {
            let gap = LinExpr::from(t[i]) - LinExpr::from(t[i - 1]);
            m.add_constraint(&format!("dep{i}"), gap, CmpOp::Ge, w);
        }
        m.set_objective(LinExpr::from(t[2]), Sense::Minimize);
        let s = m.solve().unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_eq!(s.values, [0.0, 4.0, 7.0]);
        assert_eq!(s.nodes, 1);
    }

    #[test]
    fn integral_lp_stays_integral() {
        // max x + y, x <= 3, y <= 2, integer: LP optimum already integral.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 3.0, true);
        let y = m.add_var("y", 0.0, 2.0, true);
        m.set_objective(LinExpr::from(x) + LinExpr::from(y), Sense::Maximize);
        let s = m.solve().unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_eq!(s.objective, 5.0);
    }

    #[test]
    fn knapsack_requires_branching() {
        // max 8a + 11b + 6c + 4d, 5a + 7b + 4c + 3d <= 14, binary.
        // Optimum: a=0,b=1,c=1,d=1 → 21 (LP relaxation is fractional).
        let mut m = Model::new();
        let names = ["a", "b", "c", "d"];
        let profit = [8.0, 11.0, 6.0, 4.0];
        let weight = [5.0, 7.0, 4.0, 3.0];
        let vars: Vec<_> = names.iter().map(|n| m.add_var(n, 0.0, 1.0, true)).collect();
        let mut cap = LinExpr::new();
        let mut obj = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            cap.add_term(v, weight[i]);
            obj.add_term(v, profit[i]);
        }
        m.add_constraint("capacity", cap, CmpOp::Le, 14.0);
        m.set_objective(obj, Sense::Maximize);
        let s = m.solve().unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 21.0).abs() < 1e-6, "{}", s.objective);
        assert!(s.nodes > 1, "expected branching, got {} nodes", s.nodes);
        assert!(m.check_feasible(&s.values, 1e-6).is_ok());
    }

    #[test]
    fn integer_rounding_down_matters() {
        // max x s.t. 2x <= 7, integer → x = 3 (LP gives 3.5).
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, true);
        m.add_constraint("c", LinExpr::from(x) * 2.0, CmpOp::Le, 7.0);
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        let s = m.solve().unwrap();
        assert_eq!(s.objective, 3.0);
    }

    #[test]
    fn infeasible_integer_model() {
        // 0.4 <= x <= 0.6, integer: no integer point.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 1.0, true);
        m.add_constraint("lo", LinExpr::from(x), CmpOp::Ge, 0.4);
        m.add_constraint("hi", LinExpr::from(x), CmpOp::Le, 0.6);
        m.set_objective(LinExpr::from(x), Sense::Minimize);
        let s = m.solve().unwrap();
        assert_eq!(s.status, SolveStatus::Infeasible);
    }

    #[test]
    fn no_objective_is_error() {
        let m = Model::new();
        assert!(m.solve().is_err());
    }

    #[test]
    fn node_limit_enforced() {
        // The fractional knapsack from `knapsack_requires_branching`
        // needs more than one node.
        let mut m = Model::new();
        let profit = [8.0, 11.0, 6.0, 4.0];
        let weight = [5.0, 7.0, 4.0, 3.0];
        let mut cap = LinExpr::new();
        let mut obj = LinExpr::new();
        for i in 0..4 {
            let v = m.add_var(&format!("x{i}"), 0.0, 1.0, true);
            cap.add_term(v, weight[i]);
            obj.add_term(v, profit[i]);
        }
        m.add_constraint("cap", cap, CmpOp::Le, 14.0);
        m.set_objective(obj, Sense::Maximize);
        let r = m.solve_with(&SolveOptions { max_nodes: 1 });
        assert!(r.is_err());
    }

    #[test]
    fn minimize_integer_ge() {
        // min 3x + 4y s.t. x + 2y >= 5, 2x + y >= 5, integer → try x=2,y=2: 14.
        // LP relaxation gives x=5/3,y=5/3 obj 35/3 ≈ 11.67 (fractional).
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, true);
        let y = m.add_var("y", 0.0, f64::INFINITY, true);
        m.add_constraint(
            "c1",
            LinExpr::from(x) + LinExpr::from(y) * 2.0,
            CmpOp::Ge,
            5.0,
        );
        m.add_constraint(
            "c2",
            LinExpr::from(x) * 2.0 + LinExpr::from(y),
            CmpOp::Ge,
            5.0,
        );
        m.set_objective(
            LinExpr::from(x) * 3.0 + LinExpr::from(y) * 4.0,
            Sense::Minimize,
        );
        let s = m.solve().unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(m.check_feasible(&s.values, 1e-6).is_ok());
        // Enumerate small grid to verify optimality.
        let mut best = f64::INFINITY;
        for xi in 0..6 {
            for yi in 0..6 {
                let (xf, yf) = (xi as f64, yi as f64);
                if xf + 2.0 * yf >= 5.0 && 2.0 * xf + yf >= 5.0 {
                    best = best.min(3.0 * xf + 4.0 * yf);
                }
            }
        }
        assert!(
            (s.objective - best).abs() < 1e-6,
            "{} vs {best}",
            s.objective
        );
    }

    #[test]
    fn unbounded_integer_model() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, true);
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        let s = m.solve().unwrap();
        assert_eq!(s.status, SolveStatus::Unbounded);
    }
}
