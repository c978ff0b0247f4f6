//! Branch & bound against exhaustive enumeration on random small MILPs.
//!
//! Each case has 2–4 integer variables whose bounds are multiples of ¼
//! (mostly fractional, spanning two to seven integers) and 1–5
//! constraints over all three operators. Coefficients are integers in
//! `-3..=3`, except that some rows raise one coefficient by ½; right-hand
//! sides are multiples of ¼ of both signs, and half the row expressions
//! carry a constant term. So the presolve meets rows it must round
//! (integer coefficients, fractional right-hand side), rows it must not
//! (a half-integer coefficient), constants it must move across before
//! rounding, and fractional lower bounds it must not round after
//! shifting by. Right-hand sides of both signs also exercise the
//! simplex's row flip, `Eq` rows its artificial columns, and all-zero
//! rows its redundant-row handling.
//!
//! Enumeration works in quarter units, where every row is exact integer
//! arithmetic. The solver's status and optimum must match enumeration of
//! every integer point in the box, and its values must pass
//! `Model::check_feasible`.

use proptest::prelude::*;
use streamgrid_ilp::{CmpOp, LinExpr, Model, Sense, SolveStatus};

/// One constraint in quarter units: `Σ coefs[j]·x_j + constant op rhs`,
/// every number scaled by 4.
struct Row {
    coefs: Vec<i64>,
    constant: i64,
    op: CmpOp,
    rhs: i64,
}

fn op_of(code: u8) -> CmpOp {
    match code {
        0 => CmpOp::Le,
        1 => CmpOp::Ge,
        _ => CmpOp::Eq,
    }
}

fn holds(op: CmpOp, lhs: i64, rhs: i64) -> bool {
    match op {
        CmpOp::Le => lhs <= rhs,
        CmpOp::Ge => lhs >= rhs,
        CmpOp::Eq => lhs == rhs,
    }
}

fn quarters(q: i64) -> f64 {
    q as f64 / 4.0
}

/// The best objective over every integer point of the box `bounds` (in
/// quarter units), or `None` when no point satisfies every row.
fn enumerate(bounds: &[(i64, i64)], rows: &[Row], cost: &[i64], maximize: bool) -> Option<i64> {
    // The integers in [lo/4, hi/4].
    let lo: Vec<i64> = bounds.iter().map(|&(l, _)| (l + 3).div_euclid(4)).collect();
    let hi: Vec<i64> = bounds.iter().map(|&(_, h)| h.div_euclid(4)).collect();
    if lo.iter().zip(&hi).any(|(l, h)| l > h) {
        return None;
    }
    let mut best: Option<i64> = None;
    let mut point = lo.clone();
    loop {
        let dot = |a: &[i64]| a.iter().zip(&point).map(|(c, x)| c * x).sum::<i64>();
        if rows
            .iter()
            .all(|r| holds(r.op, dot(&r.coefs) + r.constant, r.rhs))
        {
            let z = dot(cost);
            best = Some(match best {
                Some(b) if maximize => b.max(z),
                Some(b) => b.min(z),
                None => z,
            });
        }
        // Next point of the box, odometer order.
        let Some(k) = (0..point.len()).find(|&k| point[k] < hi[k]) else {
            return best;
        };
        point[k] += 1;
        point[..k].copy_from_slice(&lo[..k]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn milp_matches_enumeration(
        n in 2usize..5,
        bounds in prop::collection::vec((-6i64..7, 14i64..23), 4..5),
        rows in prop::collection::vec(
            (
                prop::collection::vec(-3i64..4, 4..5),
                // The coefficient raised by ½; none when at least `n`.
                0usize..12,
                prop_oneof![Just(0i64), -8i64..9],
                0u8..3,
                -48i64..49,
            ),
            1..6,
        ),
        cost in prop::collection::vec(-5i64..6, 4..5),
        maximize in 0u8..2,
    ) {
        let maximize = maximize == 1;
        let bounds = &bounds[..n];
        let rows: Vec<Row> = rows
            .into_iter()
            .map(|(a, half, constant, op, rhs)| Row {
                coefs: (0..n).map(|j| 4 * a[j] + if j == half { 2 } else { 0 }).collect(),
                constant,
                op: op_of(op),
                rhs,
            })
            .collect();
        let cost = &cost[..n];

        let mut m = Model::new();
        let vars: Vec<_> = bounds
            .iter()
            .enumerate()
            .map(|(i, &(lo, hi))| m.add_var(&format!("x{i}"), quarters(lo), quarters(hi), true))
            .collect();
        let expr = |coefs: &[i64], scale: fn(i64) -> f64| {
            let mut e = LinExpr::new();
            for (&v, &c) in vars.iter().zip(coefs) {
                e.add_term(v, scale(c));
            }
            e
        };
        for (i, r) in rows.iter().enumerate() {
            let lhs = expr(&r.coefs, quarters) + quarters(r.constant);
            m.add_constraint(&format!("r{i}"), lhs, r.op, quarters(r.rhs));
        }
        let sense = if maximize { Sense::Maximize } else { Sense::Minimize };
        m.set_objective(expr(cost, |c| c as f64), sense);

        let sol = m.solve().unwrap();
        match enumerate(bounds, &rows, cost, maximize) {
            None => prop_assert_eq!(sol.status, SolveStatus::Infeasible),
            Some(best) => {
                prop_assert_eq!(sol.status, SolveStatus::Optimal);
                prop_assert!(
                    (sol.objective - best as f64).abs() < 1e-6,
                    "solver {} vs enumeration {best}", sol.objective
                );
                let feasible = m.check_feasible(&sol.values, 1e-6);
                prop_assert!(feasible.is_ok(), "{feasible:?} at {:?}", sol.values);
            }
        }
    }
}
