//! The optimization model: variables, constraints, objective.

use serde::{Deserialize, Serialize};

use crate::expr::{LinExpr, VarId};

/// Constraint comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Sense {
    /// Minimize the objective.
    Minimize,
    /// Maximize the objective.
    Maximize,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct VarDef {
    pub name: String,
    pub lower: f64,
    pub upper: f64,
    pub integer: bool,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ConstraintDef {
    pub name: String,
    pub expr: LinExpr,
    pub op: CmpOp,
    pub rhs: f64,
}

/// A mixed-integer linear program.
///
/// # Examples
///
/// ```
/// use streamgrid_ilp::{CmpOp, LinExpr, Model, Sense, SolveStatus};
///
/// let mut m = Model::new();
/// let x = m.add_var("x", 0.0, f64::INFINITY, false);
/// let y = m.add_var("y", 0.0, f64::INFINITY, false);
/// m.add_constraint("c1", LinExpr::from(x) + LinExpr::from(y), CmpOp::Le, 4.0);
/// m.add_constraint("c2", LinExpr::from(x) * 2.0 + LinExpr::from(y), CmpOp::Le, 5.0);
/// m.set_objective(LinExpr::from(x) * 3.0 + LinExpr::from(y) * 2.0, Sense::Maximize);
/// let sol = m.solve().unwrap();
/// assert_eq!(sol.status, SolveStatus::Optimal);
/// assert!((sol.objective - 9.0).abs() < 1e-6); // x=1, y=3
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Model {
    pub(crate) vars: Vec<VarDef>,
    pub(crate) constraints: Vec<ConstraintDef>,
    pub(crate) objective: LinExpr,
    pub(crate) sense: Option<Sense>,
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Adds a variable with bounds `[lower, upper]`; `integer` requests
    /// integrality (enforced by branch & bound).
    ///
    /// # Panics
    ///
    /// Panics if `lower > upper`, `lower` is not finite, or either bound
    /// is NaN. (`upper` may be `f64::INFINITY`.)
    pub fn add_var(&mut self, name: &str, lower: f64, upper: f64, integer: bool) -> VarId {
        assert!(!lower.is_nan() && !upper.is_nan(), "NaN bound on {name}");
        assert!(lower.is_finite(), "lower bound of {name} must be finite");
        assert!(
            lower <= upper,
            "empty domain for {name}: [{lower}, {upper}]"
        );
        self.vars.push(VarDef {
            name: name.to_owned(),
            lower,
            upper,
            integer,
        });
        VarId(self.vars.len() - 1)
    }

    /// Adds the constraint `expr op rhs`.
    pub fn add_constraint(&mut self, name: &str, expr: LinExpr, op: CmpOp, rhs: f64) {
        self.constraints.push(ConstraintDef {
            name: name.to_owned(),
            expr,
            op,
            rhs,
        });
    }

    /// Sets the objective.
    pub fn set_objective(&mut self, objective: LinExpr, sense: Sense) {
        self.objective = objective;
        self.sense = Some(sense);
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// Name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.0].name
    }

    /// `true` when any variable is integer.
    pub fn has_integers(&self) -> bool {
        self.vars.iter().any(|v| v.integer)
    }

    /// Solves the model: LP by two-phase simplex, integrality by branch &
    /// bound.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SolveError`] when the model has no objective or
    /// the branch & bound node limit is exhausted.
    pub fn solve(&self) -> Result<crate::Solution, crate::SolveError> {
        crate::branch_bound::solve(self, &crate::SolveOptions::default())
    }

    /// Solves with explicit options.
    ///
    /// # Errors
    ///
    /// Same as [`Model::solve`].
    pub fn solve_with(
        &self,
        options: &crate::SolveOptions,
    ) -> Result<crate::Solution, crate::SolveError> {
        crate::branch_bound::solve(self, options)
    }

    /// Checks a candidate assignment against all constraints and bounds
    /// (within `tol`); returns the first violated constraint name. An
    /// assignment of the wrong length (such as an infeasible
    /// [`crate::Solution`]'s empty `values`) is an error, not a panic.
    pub fn check_feasible(&self, values: &[f64], tol: f64) -> Result<(), String> {
        if values.len() != self.var_count() {
            return Err(format!(
                "assignment has {} values for {} variables",
                values.len(),
                self.var_count()
            ));
        }
        for (v, &x) in self.vars.iter().zip(values) {
            if x < v.lower - tol || x > v.upper + tol {
                return Err(format!(
                    "variable {} = {x} outside [{}, {}]",
                    v.name, v.lower, v.upper
                ));
            }
            if v.integer && (x - x.round()).abs() > tol {
                return Err(format!("variable {} = {x} not integral", v.name));
            }
        }
        for c in &self.constraints {
            let lhs = c.expr.eval(values);
            let ok = match c.op {
                CmpOp::Le => lhs <= c.rhs + tol,
                CmpOp::Ge => lhs >= c.rhs - tol,
                CmpOp::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return Err(format!(
                    "constraint {} violated: {lhs} vs {}",
                    c.name, c.rhs
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_bookkeeping() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 1.0, true);
        m.add_constraint("c", LinExpr::from(x), CmpOp::Le, 1.0);
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        assert_eq!(m.var_count(), 1);
        assert_eq!(m.constraint_count(), 1);
        assert_eq!(m.var_name(x), "x");
        assert!(m.has_integers());
    }

    #[test]
    fn feasibility_check() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 5.0, true);
        m.add_constraint("cap", LinExpr::from(x), CmpOp::Le, 3.0);
        assert!(m.check_feasible(&[2.0], 1e-9).is_ok());
        assert!(m.check_feasible(&[4.0], 1e-9).is_err()); // violates cap
        assert!(m.check_feasible(&[2.5], 1e-9).is_err()); // not integral
        assert!(m.check_feasible(&[-1.0], 1e-9).is_err()); // below bound
    }

    #[test]
    fn feasibility_check_rejects_wrong_lengths() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 1.0, true);
        m.add_constraint("lo", LinExpr::from(x), CmpOp::Ge, 0.4);
        m.add_constraint("hi", LinExpr::from(x), CmpOp::Le, 0.6);
        m.set_objective(LinExpr::from(x), Sense::Minimize);
        let sol = m.solve().unwrap();
        assert_eq!(sol.status, crate::SolveStatus::Infeasible);
        assert!(sol.values.is_empty());
        assert!(m.check_feasible(&sol.values, 1e-9).is_err());
        assert!(m.check_feasible(&[0.0, 1.0], 1e-9).is_err());
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn inverted_bounds_panic() {
        let mut m = Model::new();
        let _ = m.add_var("x", 2.0, 1.0, false);
    }
}
