//! Two-phase primal simplex on a reusable, flat tableau.
//!
//! Sized for the line-buffer optimizer's problems (tens of variables,
//! up to a few thousand constraints after pruning — see the constraint-
//! pruning ablation). Each constraint's right-hand side arrives from
//! the caller with the expression's constant moved across (and, for
//! integer rows, rounded by the branch & bound presolve). Variables are
//! then shifted to `x = lo + x'` with `x' ≥ 0`; each constraint and
//! each finite upper bound (`x' ≤ hi − lo`) is one row, flipped so its
//! right-hand side is non-negative, with a slack or surplus column and,
//! where no slack can start basic, an artificial column. Phase 1
//! minimizes the artificials, phase 2 the objective. Entering columns
//! follow Dantzig's rule until the iteration count passes a threshold,
//! then Bland's rule guards against cycling.
//!
//! # Workspace
//!
//! [`LpWorkspace`] owns every buffer an LP needs: one row-major `f64`
//! tableau (`stride` = columns + 1; the last column is the right-hand
//! side), the objective row, the basis, the rows' right-hand sides and
//! the pivot row's nonzero pattern. Branch & bound creates one per
//! `Model::solve` and hands it to every node's LP, so after the first
//! node the kernel allocates nothing but the returned values. Rows are
//! written straight from the model's constraints and bounds.
//!
//! # Sparse updates
//!
//! Most tableau entries are zero, and most stay zero. A pivot divides
//! the nonzero entries of its row by the pivot element, records their
//! columns, and updates only those columns, and only in rows (and the
//! objective) whose entry in the pivot column is nonzero. Phase 1's
//! objective is priced out against each artificial's row as the row is
//! written, over the entries that row can have; phase 2's elimination
//! skips zero tableau entries.
//!
//! # Why the pivots are those of a dense tableau
//!
//! A skipped update would compute `x − f·0` or `0 / p`, which equals the
//! entry it replaces except that a zero may change sign. Nothing here
//! tells ±0 apart: the entering and leaving tests compare against
//! tolerances, the ratio test compares quotients, and the read-out adds
//! each value to its lower bound. The Bland threshold still counts one
//! artificial column per row, although only the rows that need one get
//! a column. So every LP makes exactly the pivots a dense textbook
//! tableau makes, with the same iteration count, and returns the same
//! objective and values (bit for bit unless a lower bound is −0).

use crate::model::{CmpOp, Model, Sense};

/// Outcome of an LP relaxation solve.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum LpOutcome {
    /// Optimal assignment in original variable space plus objective value.
    Optimal {
        values: Vec<f64>,
        objective: f64,
        iterations: u64,
    },
    /// No feasible assignment.
    Infeasible,
    /// Objective unbounded in the optimization direction.
    Unbounded,
}

const PIVOT_TOL: f64 = 1e-9;
const COST_TOL: f64 = 1e-9;
const FEAS_TOL: f64 = 1e-7;

enum SimplexEnd {
    Optimal,
    Unbounded,
}

/// Reusable buffers for LP relaxation solves; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct LpWorkspace {
    /// Row-major tableau, `rows × stride`.
    tab: Vec<f64>,
    /// Row length: the columns plus the right-hand side.
    stride: usize,
    /// Objective row (phase 1, then phase 2), `stride` entries.
    obj: Vec<f64>,
    /// Basic column of each row.
    basic: Vec<usize>,
    /// Each row's right-hand side after the bound shift, before the flip.
    rhs: Vec<f64>,
    /// Nonzero columns of the last pivot row, and their values.
    nz_cols: Vec<usize>,
    nz_vals: Vec<f64>,
}

impl LpWorkspace {
    /// Solves the LP relaxation of `model` with constraint `i`'s
    /// right-hand side replaced by `row_rhs[i]` (`expr` without its
    /// constant on the left; see `branch_bound::presolve`) and with
    /// per-variable bound overrides (used by branch & bound).
    pub(crate) fn solve(
        &mut self,
        model: &Model,
        row_rhs: &[f64],
        bounds: &[(f64, f64)],
    ) -> LpOutcome {
        let n = model.var_count();
        debug_assert_eq!(bounds.len(), n);
        debug_assert_eq!(row_rhs.len(), model.constraint_count());
        // Reject empty domains immediately (branching can create them).
        if bounds.iter().any(|&(lo, hi)| lo > hi + FEAS_TOL) {
            return LpOutcome::Infeasible;
        }

        let (art_start, art_end) = self.load(model, row_rhs, bounds);
        let m = self.basic.len();
        let rhs_col = self.stride - 1;
        // The Bland threshold counts one artificial column per row, as a
        // layout that reserves them all would have.
        let nominal_columns = art_start + m;
        let bland_after = 20 * (m as u64 + nominal_columns as u64) + 100;
        let mut iterations = 0u64;

        // Phase 1: minimize sum of artificials.
        if art_end > art_start {
            match self.run(art_end, bland_after, &mut iterations) {
                SimplexEnd::Optimal => {}
                SimplexEnd::Unbounded => return LpOutcome::Infeasible, // phase 1 is bounded below by 0
            }
            // -obj[rhs] is the phase-1 optimum.
            if -self.obj[rhs_col] > FEAS_TOL {
                return LpOutcome::Infeasible;
            }
            // Drive any remaining basic artificials out (degenerate rows).
            for i in 0..m {
                if self.basic[i] >= art_start {
                    let row = &self.tab[i * self.stride..][..art_start];
                    if let Some(j) = row.iter().position(|a| a.abs() > PIVOT_TOL) {
                        self.pivot(i, j);
                    }
                    // If no structural pivot exists the row is redundant
                    // (all-zero); the artificial stays at value 0 harmlessly.
                }
            }
        }

        // Phase 2: original objective over structural columns, as minimize.
        let minimize_sign = match model.sense {
            Some(Sense::Minimize) | None => 1.0,
            Some(Sense::Maximize) => -1.0,
        };
        self.obj.fill(0.0);
        for (v, c) in model.objective.iter() {
            self.obj[v.index()] = minimize_sign * c;
        }
        // Eliminate basic structural costs.
        for i in 0..m {
            let f = self.obj[self.basic[i]];
            if f.abs() > 0.0 {
                self.eliminate(i, f);
            }
        }
        // Artificials may not re-enter.
        match self.run(art_start, bland_after, &mut iterations) {
            SimplexEnd::Optimal => {}
            SimplexEnd::Unbounded => return LpOutcome::Unbounded,
        }

        // Read out structural values and un-shift.
        let mut values = vec![0.0f64; n];
        for (i, &b) in self.basic.iter().enumerate() {
            if b < n {
                values[b] = self.tab[i * self.stride + rhs_col];
            }
        }
        for (x, &(lo, _)) in values.iter_mut().zip(bounds) {
            *x += lo;
        }
        let objective = model.objective.eval(&values);
        LpOutcome::Optimal {
            values,
            objective,
            iterations,
        }
    }

    /// Writes the phase-1 tableau, basis and objective for `model` under
    /// `row_rhs` and `bounds`. Column layout: `[structural n]
    /// [slack/surplus][artificial][rhs]`. Returns the artificial
    /// columns' range.
    fn load(&mut self, model: &Model, row_rhs: &[f64], bounds: &[(f64, f64)]) -> (usize, usize) {
        let n = model.var_count();
        // Shift x = lo + x'. Constraint rows first, then one row
        // x' <= hi - lo per finite upper bound; every bound row is `Le`.
        self.rhs.clear();
        let mut slack_count = 0usize;
        let mut art_count = 0usize;
        for (c, &r) in model.constraints.iter().zip(row_rhs) {
            let mut shift = 0.0;
            for (v, coef) in c.expr.iter() {
                shift += coef * bounds[v.index()].0;
            }
            let rhs = r - shift;
            self.rhs.push(rhs);
            slack_count += usize::from(c.op != CmpOp::Eq);
            art_count += usize::from(needs_artificial(c.op, rhs));
        }
        for &(lo, hi) in bounds {
            if hi.is_finite() {
                let rhs = hi - lo;
                self.rhs.push(rhs);
                slack_count += 1;
                art_count += usize::from(needs_artificial(CmpOp::Le, rhs));
            }
        }

        let m = self.rhs.len();
        let art_start = n + slack_count;
        self.stride = art_start + art_count + 1;
        self.tab.clear();
        self.tab.resize(m * self.stride, 0.0);
        self.obj.clear();
        self.obj.resize(self.stride, 0.0);
        self.basic.clear();

        let mut next_slack = n;
        let mut next_artificial = art_start;
        let bound_rows = bounds
            .iter()
            .enumerate()
            .filter(|(_, &(_, hi))| hi.is_finite());
        let constraint_rows = model.constraints.iter().map(|c| (c.op, None));
        let rows = constraint_rows.chain(bound_rows.map(|(j, _)| (CmpOp::Le, Some(j))));
        for (i, (op, bound_var)) in rows.enumerate() {
            let rhs = self.rhs[i];
            let sgn = if rhs < 0.0 { -1.0 } else { 1.0 };
            let row = &mut self.tab[i * self.stride..][..self.stride];
            match bound_var {
                Some(j) => row[j] += sgn * 1.0,
                None => {
                    for (v, c) in model.constraints[i].expr.iter() {
                        row[v.index()] += sgn * c;
                    }
                }
            }
            row[self.stride - 1] = sgn * rhs;
            let mut slack = None;
            if op != CmpOp::Eq {
                // Le → +1 slack, Ge → -1 surplus (before sign flip).
                let base = if op == CmpOp::Le { 1.0 } else { -1.0 };
                row[next_slack] = sgn * base;
                slack = Some(next_slack);
                next_slack += 1;
            }
            match slack {
                // The slack's coefficient is +1 after the flip.
                Some(s) if !needs_artificial(op, rhs) => self.basic.push(s),
                _ => {
                    let a = next_artificial;
                    row[a] = 1.0;
                    self.basic.push(a);
                    next_artificial += 1;
                    // Phase 1 costs the artificial 1, eliminated against
                    // its own row, whose other nonzeros are structural,
                    // its slack and the right-hand side.
                    self.obj[a] = 1.0;
                    let f = self.obj[a];
                    for j in (0..n).chain(slack).chain([a, self.stride - 1]) {
                        if row[j] != 0.0 {
                            self.obj[j] -= f * row[j];
                        }
                    }
                }
            }
        }
        debug_assert_eq!(next_artificial, art_start + art_count);
        (art_start, next_artificial)
    }

    /// Runs primal simplex iterations until optimality or unboundedness.
    /// Columns at or beyond `limit` may not enter the basis (phase 2
    /// locks out the artificials this way).
    fn run(&mut self, limit: usize, bland_after: u64, iterations: &mut u64) -> SimplexEnd {
        let stride = self.stride;
        let rhs_col = stride - 1;
        loop {
            *iterations += 1;
            let use_bland = *iterations > bland_after;
            // Entering column: most negative reduced cost (Dantzig) or
            // first negative (Bland).
            let mut entering = None;
            let mut best = -COST_TOL;
            for (j, &c) in self.obj[..limit].iter().enumerate() {
                if c < -COST_TOL {
                    if use_bland {
                        entering = Some(j);
                        break;
                    }
                    if c < best {
                        best = c;
                        entering = Some(j);
                    }
                }
            }
            let Some(e) = entering else {
                return SimplexEnd::Optimal;
            };
            // Ratio test.
            let mut leaving: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for (i, row) in self.tab.chunks_exact(stride).enumerate() {
                let a = row[e];
                if a > PIVOT_TOL {
                    let ratio = row[rhs_col] / a;
                    let better = ratio < best_ratio - 1e-12
                        || (use_bland
                            && (ratio - best_ratio).abs() <= 1e-12
                            && leaving.is_some_and(|l| self.basic[i] < self.basic[l]));
                    if better {
                        best_ratio = ratio;
                        leaving = Some(i);
                    }
                }
            }
            let Some(l) = leaving else {
                return SimplexEnd::Unbounded;
            };
            self.pivot(l, e);
        }
    }

    /// Pivots the tableau and the objective row on `(row, col)`.
    fn pivot(&mut self, row: usize, col: usize) {
        let stride = self.stride;
        let pivot_row = &mut self.tab[row * stride..][..stride];
        let p = pivot_row[col];
        debug_assert!(p.abs() > PIVOT_TOL, "pivot on near-zero element");
        self.nz_cols.clear();
        self.nz_vals.clear();
        for (j, a) in pivot_row.iter_mut().enumerate() {
            if *a != 0.0 {
                *a /= p;
                self.nz_cols.push(j);
                self.nz_vals.push(*a);
            }
        }
        for (i, r) in self.tab.chunks_exact_mut(stride).enumerate() {
            if i != row {
                let f = r[col];
                subtract_pivot_row(r, f, &self.nz_cols, &self.nz_vals);
            }
        }
        let f = self.obj[col];
        subtract_pivot_row(&mut self.obj, f, &self.nz_cols, &self.nz_vals);
        self.basic[row] = col;
    }

    /// `obj -= f · row i`, over the row's nonzero entries.
    fn eliminate(&mut self, i: usize, f: f64) {
        let row = &self.tab[i * self.stride..][..self.stride];
        for (o, &a) in self.obj.iter_mut().zip(row) {
            if a != 0.0 {
                *o -= f * a;
            }
        }
    }
}

/// Whether a row with operator `op` and shifted right-hand side `rhs`
/// needs an artificial: after flipping to a non-negative right-hand
/// side, only a `+1` slack can start basic.
fn needs_artificial(op: CmpOp, rhs: f64) -> bool {
    let flip = rhs < 0.0;
    match op {
        CmpOp::Le => flip,
        CmpOp::Ge => !flip,
        CmpOp::Eq => true,
    }
}

/// `target -= f · pivot row` over the pivot row's nonzero columns, when
/// the multiplier `f` is nonzero.
fn subtract_pivot_row(target: &mut [f64], f: f64, cols: &[usize], vals: &[f64]) {
    if f.abs() > 0.0 {
        for (&j, &v) in cols.iter().zip(vals) {
            target[j] -= f * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch_bound::presolve;
    use crate::expr::LinExpr;
    use crate::model::Model;

    fn bounds_of(m: &Model) -> Vec<(f64, f64)> {
        m.vars.iter().map(|v| (v.lower, v.upper)).collect()
    }

    fn solve_lp(m: &Model, bounds: &[(f64, f64)]) -> LpOutcome {
        LpWorkspace::default().solve(m, &presolve(m), bounds)
    }

    #[test]
    fn textbook_maximize() {
        // max 3x + 2y s.t. x + y <= 4, 2x + y <= 5 → x=1, y=3, obj 9.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, false);
        let y = m.add_var("y", 0.0, f64::INFINITY, false);
        m.add_constraint("c1", LinExpr::from(x) + LinExpr::from(y), CmpOp::Le, 4.0);
        m.add_constraint(
            "c2",
            LinExpr::from(x) * 2.0 + LinExpr::from(y),
            CmpOp::Le,
            5.0,
        );
        m.set_objective(
            LinExpr::from(x) * 3.0 + LinExpr::from(y) * 2.0,
            Sense::Maximize,
        );
        match solve_lp(&m, &bounds_of(&m)) {
            LpOutcome::Optimal {
                values, objective, ..
            } => {
                assert!((objective - 9.0).abs() < 1e-6, "{objective}");
                assert!((values[0] - 1.0).abs() < 1e-6);
                assert!((values[1] - 3.0).abs() < 1e-6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn minimize_with_ge_constraints_needs_phase1() {
        // min x + y s.t. x + 2y >= 6, 3x + y >= 9 → intersection at
        // (2.4, 1.8), obj 4.2.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, false);
        let y = m.add_var("y", 0.0, f64::INFINITY, false);
        m.add_constraint(
            "c1",
            LinExpr::from(x) + LinExpr::from(y) * 2.0,
            CmpOp::Ge,
            6.0,
        );
        m.add_constraint(
            "c2",
            LinExpr::from(x) * 3.0 + LinExpr::from(y),
            CmpOp::Ge,
            9.0,
        );
        m.set_objective(LinExpr::from(x) + LinExpr::from(y), Sense::Minimize);
        match solve_lp(&m, &bounds_of(&m)) {
            LpOutcome::Optimal {
                objective, values, ..
            } => {
                assert!((objective - 4.2).abs() < 1e-6, "{objective} at {values:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn equality_constraints() {
        // min 2x + 3y s.t. x + y = 10, x - y = 2 → x=6, y=4, obj 24.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, false);
        let y = m.add_var("y", 0.0, f64::INFINITY, false);
        m.add_constraint("sum", LinExpr::from(x) + LinExpr::from(y), CmpOp::Eq, 10.0);
        m.add_constraint("diff", LinExpr::from(x) - LinExpr::from(y), CmpOp::Eq, 2.0);
        m.set_objective(
            LinExpr::from(x) * 2.0 + LinExpr::from(y) * 3.0,
            Sense::Minimize,
        );
        match solve_lp(&m, &bounds_of(&m)) {
            LpOutcome::Optimal {
                objective, values, ..
            } => {
                assert!((values[0] - 6.0).abs() < 1e-6);
                assert!((values[1] - 4.0).abs() < 1e-6);
                assert!((objective - 24.0).abs() < 1e-6);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, false);
        m.add_constraint("lo", LinExpr::from(x), CmpOp::Ge, 5.0);
        m.add_constraint("hi", LinExpr::from(x), CmpOp::Le, 3.0);
        m.set_objective(LinExpr::from(x), Sense::Minimize);
        assert_eq!(solve_lp(&m, &bounds_of(&m)), LpOutcome::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, false);
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        assert_eq!(solve_lp(&m, &bounds_of(&m)), LpOutcome::Unbounded);
    }

    #[test]
    fn respects_variable_bounds() {
        // max x with x <= 7 via bound only.
        let mut m = Model::new();
        let x = m.add_var("x", 2.0, 7.0, false);
        m.set_objective(LinExpr::from(x), Sense::Maximize);
        match solve_lp(&m, &bounds_of(&m)) {
            LpOutcome::Optimal { values, .. } => assert!((values[0] - 7.0).abs() < 1e-6),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn negative_lower_bounds_shift_correctly() {
        // min x s.t. x >= -5 → -5.
        let mut m = Model::new();
        let x = m.add_var("x", -5.0, 5.0, false);
        m.set_objective(LinExpr::from(x), Sense::Minimize);
        match solve_lp(&m, &bounds_of(&m)) {
            LpOutcome::Optimal { values, .. } => assert!((values[0] + 5.0).abs() < 1e-6),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn negative_rhs_rows_normalize() {
        // x - y <= -1 with x,y in [0,10]: min y → y = x + 1 at x=0 → y=1.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 10.0, false);
        let y = m.add_var("y", 0.0, 10.0, false);
        m.add_constraint("c", LinExpr::from(x) - LinExpr::from(y), CmpOp::Le, -1.0);
        m.set_objective(LinExpr::from(y), Sense::Minimize);
        match solve_lp(&m, &bounds_of(&m)) {
            LpOutcome::Optimal { values, .. } => {
                assert!((values[1] - 1.0).abs() < 1e-6, "{values:?}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reused_workspace_matches_fresh_ones() {
        // One workspace across LPs of different shapes (with and without
        // phase 1, more and fewer rows, a bound override, an infeasible
        // one) must leave nothing stale behind.
        let mut le = Model::new();
        let x = le.add_var("x", 0.0, 4.0, false);
        let y = le.add_var("y", 0.0, f64::INFINITY, false);
        le.add_constraint("c", LinExpr::from(x) + LinExpr::from(y), CmpOp::Le, 5.0);
        le.set_objective(LinExpr::from(x) + LinExpr::from(y) * 2.0, Sense::Maximize);
        let mut ge = Model::new();
        let a = ge.add_var("a", 1.0, 9.0, false);
        let b = ge.add_var("b", 0.0, 9.0, false);
        let c = ge.add_var("c", 0.0, f64::INFINITY, false);
        ge.add_constraint("g", LinExpr::from(a) + LinExpr::from(b), CmpOp::Ge, 3.5);
        ge.add_constraint("e", LinExpr::from(b) - LinExpr::from(c), CmpOp::Eq, 1.0);
        ge.add_constraint("n", LinExpr::from(a) - LinExpr::from(c), CmpOp::Le, -0.5);
        ge.set_objective(
            LinExpr::from(a) * 2.0 + LinExpr::from(b) + LinExpr::from(c),
            Sense::Minimize,
        );
        let mut squeezed = bounds_of(&ge);
        squeezed[1] = (3.0, 9.0);
        let mut infeasible = bounds_of(&ge);
        infeasible[2] = (0.0, 0.0);
        infeasible[0] = (1.0, 1.0);
        let cases = [
            (&ge, bounds_of(&ge)),
            (&le, bounds_of(&le)),
            (&ge, squeezed),
            (&ge, infeasible),
            (&le, bounds_of(&le)),
            (&ge, bounds_of(&ge)),
        ];
        let mut ws = LpWorkspace::default();
        for (m, bounds) in &cases {
            assert_eq!(
                ws.solve(m, &presolve(m), bounds),
                solve_lp(m, bounds),
                "{bounds:?}"
            );
        }
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple redundant constraints through the same vertex.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, false);
        let y = m.add_var("y", 0.0, f64::INFINITY, false);
        for i in 0..6 {
            m.add_constraint(
                &format!("c{i}"),
                LinExpr::from(x) * (1.0 + i as f64 * 1e-9) + LinExpr::from(y),
                CmpOp::Le,
                1.0,
            );
        }
        m.set_objective(LinExpr::from(x) + LinExpr::from(y), Sense::Maximize);
        match solve_lp(&m, &bounds_of(&m)) {
            LpOutcome::Optimal { objective, .. } => assert!((objective - 1.0).abs() < 1e-5),
            other => panic!("{other:?}"),
        }
    }
}
