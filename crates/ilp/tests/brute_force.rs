//! Branch & bound against exhaustive enumeration on random small MILPs.
//!
//! Each case has 2–4 integer variables in `[0, 5]` and 1–5 constraints
//! with coefficients in `-3..=3` over all three operators. Right-hand
//! sides of both signs exercise the simplex's row flip, `Eq` rows its
//! artificial columns, and all-zero rows its redundant-row handling. The
//! solver's status and optimum must match enumeration of the whole box,
//! and its values must pass `Model::check_feasible`.

use proptest::prelude::*;
use streamgrid_ilp::{CmpOp, LinExpr, Model, Sense, SolveStatus};

const UPPER: i64 = 5;

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

/// The best objective over every integer point of the box, or `None`
/// when no point satisfies every row.
fn enumerate(
    n: usize,
    rows: &[(Vec<i64>, CmpOp, i64)],
    cost: &[i64],
    maximize: bool,
) -> Option<i64> {
    let mut best: Option<i64> = None;
    let mut point = vec![0i64; n];
    loop {
        let dot = |a: &[i64]| a.iter().zip(&point).map(|(c, x)| c * x).sum::<i64>();
        if rows.iter().all(|(a, op, b)| holds(*op, dot(a), *b)) {
            let z = dot(cost);
            best = Some(match best {
                Some(b) if maximize => b.max(z),
                Some(b) => b.min(z),
                None => z,
            });
        }
        // Next point of the box, odometer order.
        let Some(k) = point.iter().position(|&x| x < UPPER) else {
            return best;
        };
        point[k] += 1;
        point[..k].fill(0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn milp_matches_enumeration(
        n in 2usize..5,
        rows in prop::collection::vec(
            (prop::collection::vec(-3i64..4, 4..5), 0u8..3, -12i64..13),
            1..6,
        ),
        cost in prop::collection::vec(-5i64..6, 4..5),
        maximize in 0u8..2,
    ) {
        let maximize = maximize == 1;
        let rows: Vec<(Vec<i64>, CmpOp, i64)> = rows
            .into_iter()
            .map(|(a, op, b)| (a[..n].to_vec(), op_of(op), b))
            .collect();
        let cost = &cost[..n];

        let mut m = Model::new();
        let vars: Vec<_> = (0..n)
            .map(|i| m.add_var(&format!("x{i}"), 0.0, UPPER as f64, true))
            .collect();
        let expr = |coefs: &[i64]| {
            let mut e = LinExpr::new();
            for (&v, &c) in vars.iter().zip(coefs) {
                e.add_term(v, c as f64);
            }
            e
        };
        for (i, (a, op, b)) in rows.iter().enumerate() {
            m.add_constraint(&format!("r{i}"), expr(a), *op, *b as f64);
        }
        let sense = if maximize { Sense::Maximize } else { Sense::Minimize };
        m.set_objective(expr(cost), sense);

        let sol = m.solve().unwrap();
        match enumerate(n, &rows, cost, maximize) {
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
