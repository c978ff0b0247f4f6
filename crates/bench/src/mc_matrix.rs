//! The concurrency model-checker matrix `sg_lint --mc` prints: the serving
//! layer's work/space dispatch, ledger + FIFO waitlist and WFQ pick. Each
//! correct protocol must pass exhaustively within its model's state budget
//! (a truncated exploration fails), and each seeded sabotage must be
//! caught, or a checker lost its teeth. [`check`] holds those rules;
//! `sg_lint --mc` exits nonzero when it fails, and a unit test runs it.

use streamgrid_serve::{
    check_dispatch, check_ledger, check_wfq, DispatchConfig, DispatchVariant, LedgerScenario,
    LedgerVariant, WfqConfig, WfqVariant,
};
use streamgrid_verify::{McConfig, McReport};

/// Per-model state-count budgets: 3.6× the exhaustive count of the
/// largest dispatch row (3,449 states at `2w q3 f4`), 59× the ledger's
/// (17) and 6.2× the WFQ pick's (324). Every row runs under its model's
/// budget, and a truncated exploration never passes — so silent
/// state-space growth (a model edit that blows up exploration) fails CI
/// instead of burning it.
pub const BUDGETS: [(&str, u64); 3] = [
    ("work-space-dispatch", 12_500),
    ("ledger-waitlist", 1_000),
    ("wfq-pick", 2_000),
];

/// The state budget [`BUDGETS`] gives `model`.
fn budget(model: &str) -> Option<u64> {
    BUDGETS
        .iter()
        .find(|(name, _)| *name == model)
        .map(|&(_, b)| b)
}

/// One exploration: a model on one variant at one bounded configuration.
#[derive(Debug, Clone)]
pub struct Row {
    /// `"correct"` for the shipped protocol, else the sabotage's label.
    pub variant: &'static str,
    /// The bounded configuration explored, e.g. `2w q1 f3`.
    pub bounds: String,
    /// The state budget the exploration ran under.
    pub budget: u64,
    /// The exploration's outcome.
    pub report: McReport,
}

impl Row {
    /// `PASS` / `FAIL` for a correct row, `CAUGHT` / `MISSED` for a
    /// sabotage row.
    pub fn verdict(&self) -> &'static str {
        match (self.variant == "correct", &self.report.violation) {
            (true, _) if self.report.passed() => "PASS",
            (true, _) => "FAIL",
            (false, Some(_)) => "CAUGHT",
            (false, None) => "MISSED",
        }
    }
}

/// Runs every exploration of the matrix, in display order.
pub fn matrix() -> Vec<Row> {
    let mut rows = Vec::new();
    let mut run = |model: &str,
                   variant: &'static str,
                   bounds: String,
                   explore: &dyn Fn(&McConfig) -> McReport| {
        let limit = budget(model).expect("every matrix model has a budget");
        rows.push(Row {
            variant,
            bounds,
            budget: limit,
            report: explore(&McConfig::default().with_max_states(limit)),
        });
    };

    // Serving layer: the scheduler↔worker two-condvar dispatch loop.
    let dispatch_bounds =
        |c: &DispatchConfig| format!("{}w q{} f{}", c.workers, c.queue_depth, c.frames);
    for config in [
        DispatchConfig {
            workers: 1,
            queue_depth: 1,
            frames: 2,
        },
        DispatchConfig {
            workers: 2,
            queue_depth: 1,
            frames: 3,
        },
        DispatchConfig::default(),
        // Depth 3 is the first bound at which a pop (3 → 2) skips the
        // watermark wake.
        DispatchConfig {
            workers: 2,
            queue_depth: 3,
            frames: 4,
        },
    ] {
        run(
            "work-space-dispatch",
            "correct",
            dispatch_bounds(&config),
            &|mc| check_dispatch(&config, DispatchVariant::Correct, mc),
        );
    }
    for (label, variant) in [
        ("skip-work-notify", DispatchVariant::SkipWorkNotify),
        ("skip-space-notify", DispatchVariant::SkipSpaceNotify),
        ("notify-one-on-done", DispatchVariant::NotifyOneOnDone),
        ("pop-without-recheck", DispatchVariant::PopWithoutRecheck),
        ("no-finish-notify", DispatchVariant::NoFinishNotify),
    ] {
        let config = DispatchConfig::default();
        run(
            "work-space-dispatch",
            label,
            dispatch_bounds(&config),
            &|mc| check_dispatch(&config, variant, mc),
        );
    }
    // At depth 1 the watermark is 0, so a strict `<` never wakes; at
    // depth 2 the pop that empties the queue still would.
    let depth_one = DispatchConfig {
        workers: 1,
        queue_depth: 1,
        frames: 2,
    };
    run(
        "work-space-dispatch",
        "watermark-off-by-one",
        dispatch_bounds(&depth_one),
        &|mc| check_dispatch(&depth_one, DispatchVariant::WatermarkOffByOne, mc),
    );

    // Serving layer: the token ledger + strict-FIFO waitlist, over the
    // default adversarial scenario (a waiting large tenant a small one
    // could bypass, plus an impossible fit).
    let scenario = LedgerScenario::default();
    let ledger_bounds = format!("cap {} x{}", scenario.capacity, scenario.projections.len());
    for (label, variant) in [
        ("correct", LedgerVariant::Correct),
        ("fifo-bypass", LedgerVariant::FifoBypass),
        ("no-impossible-reject", LedgerVariant::NoImpossibleFitReject),
        ("forget-release", LedgerVariant::ForgetRelease),
    ] {
        run("ledger-waitlist", label, ledger_bounds.clone(), &|mc| {
            check_ledger(&scenario, variant, mc)
        });
    }

    // Serving layer: the WFQ pick, over every bounded arrival order.
    let wfq = WfqConfig::default();
    let wfq_bounds = format!(
        "[{},{},{}] q{}",
        wfq.arrivals[0], wfq.arrivals[1], wfq.arrivals[2], wfq.queue_depth
    );
    for (label, variant) in [
        ("correct", WfqVariant::Correct),
        ("strict-priority", WfqVariant::StrictPriority),
        ("forget-served-incr", WfqVariant::ForgetServedIncrement),
    ] {
        run("wfq-pick", label, wfq_bounds.clone(), &|mc| {
            check_wfq(&wfq, variant, mc)
        });
    }
    rows
}

/// Checks a matrix: every row ran under its model's budget in
/// [`BUDGETS`], explored `0 < states ≤ budget` to a nonzero depth, and
/// reached `PASS` (correct) or `CAUGHT` (sabotage); every budgeted model
/// has a correct and a sabotage row; and none of the 17 rows is lost.
///
/// # Errors
///
/// Describes the first rule broken.
pub fn check(rows: &[Row]) -> Result<(), String> {
    for row in rows {
        let (r, limit) = (&row.report, row.budget);
        let rules = [
            (budget(&r.model) == Some(limit), "not run under its budget"),
            (r.states_explored > 0, "explored no states"),
            (r.states_explored <= limit, "explored past its budget"),
            (r.max_depth > 0, "explored to depth 0"),
            (matches!(row.verdict(), "PASS" | "CAUGHT"), "FAIL or MISSED"),
        ];
        first_broken(
            &format!("{} {} ({}): ", r.model, row.variant, row.bounds),
            &rules,
        )?;
    }
    for (model, _) in BUDGETS {
        let has = |correct: bool| {
            rows.iter()
                .any(|r| r.report.model == model && (r.variant == "correct") == correct)
        };
        let rules = [
            (has(true), "no correct row"),
            (has(false), "no sabotage row"),
        ];
        first_broken(&format!("{model}: "), &rules)?;
    }
    first_broken("", &[(rows.len() == 17, "the matrix lost a row")])
}

/// The first `(holds, rule)` pair that does not hold, as an error
/// prefixed with `context`.
fn first_broken(context: &str, rules: &[(bool, &str)]) -> Result<(), String> {
    match rules.iter().find(|(holds, _)| !holds) {
        Some((_, rule)) => Err(format!("{context}{rule}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_meets_every_rule() {
        let rows = matrix();
        assert_eq!(check(&rows), Ok(()));
    }

    #[test]
    fn check_rejects_a_missed_sabotage_and_a_lost_model() {
        let rows = matrix();
        let mut missed = rows.clone();
        let sabotage = missed
            .iter_mut()
            .find(|r| r.variant != "correct")
            .expect("the matrix has sabotage rows");
        sabotage.report.violation = None;
        assert!(check(&missed).unwrap_err().ends_with("FAIL or MISSED"));
        let without_wfq: Vec<Row> = rows
            .into_iter()
            .filter(|r| r.report.model != "wfq-pick")
            .collect();
        assert_eq!(check(&without_wfq), Err("wfq-pick: no correct row".into()));
    }
}
