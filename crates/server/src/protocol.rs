//! The serving layer's scheduling and admission decisions as pure
//! functions.
//!
//! [`StreamServer::run`] is a thicket of threads, mutexes, and condvars,
//! but the *decisions* it makes — which class a worker dispatches next,
//! whether a queued submission is admitted/waitlisted/rejected, which
//! waitlisted tenants a harvest sweep admits, and when a worker wakes
//! the sleeping scheduler — are pure state transformations. This module
//! is those decisions, factored out so that:
//!
//! 1. the server calls them (they are the shipped code path, not a
//!    parallel re-implementation), and
//! 2. the model checker in [`crate::mc`] instantiates them inside
//!    [`streamgrid_verify::mc::Model`]s and explores every bounded
//!    interleaving around them — so `sg_lint --mc`'s verdicts certify
//!    the functions the server actually runs.
//!
//! [`StreamServer::run`]: crate::StreamServer::run

use std::collections::VecDeque;

use crate::admission::TokenLedger;
use crate::qos::QosClass;

/// Class weights in [`QosClass::ALL`] order, for the workers' WFQ pick.
pub const WEIGHTS: [u64; 3] = [
    QosClass::Interactive.weight(),
    QosClass::Standard.weight(),
    QosClass::Background.weight(),
];

/// Weighted fair pick: among the non-empty class queues, the class with
/// the smallest `served/weight` ratio (compared exactly by
/// cross-multiplication); ties go to the higher-priority (lower-index)
/// class. Returns `None` when every queue is empty. The caller
/// increments `served` for the class it then dispatches.
///
/// This is the fairness kernel of the worker pool: because the pick
/// minimizes `served/weight`, a class that keeps frames queued is
/// dispatched at least in proportion to its weight no matter how hard
/// higher classes push — the no-starvation property
/// `crate::mc::check_wfq` proves over all bounded arrival patterns.
pub fn wfq_pick(nonempty: [bool; 3], served: &[u64; 3]) -> Option<usize> {
    // best = (class index, weight): the non-empty class minimizing
    // served/weight so far.
    let mut best: Option<(usize, u64)> = None;
    for (c, (&ne, &weight)) in nonempty.iter().zip(&WEIGHTS).enumerate() {
        if !ne {
            continue;
        }
        best = match best {
            None => Some((c, weight)),
            Some((b, wb)) if served[c] * wb < served[b] * weight => Some((c, weight)),
            keep => keep,
        };
    }
    best.map(|(c, _)| c)
}

/// What [`queued_admission`] decided for one queued submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueuedDecision {
    /// The tenant fits right now and nobody is ahead of it: its tokens
    /// are committed and it is active immediately.
    Admit,
    /// The tenant joins the FIFO waitlist — either its tokens do not
    /// fit yet, or earlier tenants are already waiting (admitting
    /// around them would break strict FIFO).
    Waitlist,
    /// The projection exceeds the ledger's *total* capacity: the tenant
    /// could never be admitted, so waitlisting it would wedge the queue
    /// behind it forever. Rejected up front — this rejection is what
    /// makes the waitlist's "always drains" obligation provable.
    RejectImpossibleFit,
}

/// The [`StreamServer::submit_queued`] admission decision: commit now,
/// waitlist, or reject an impossible fit. On [`QueuedDecision::Admit`]
/// the tokens are already committed when this returns; the other
/// decisions leave the ledger untouched.
///
/// [`StreamServer::submit_queued`]: crate::StreamServer::submit_queued
pub fn queued_admission(
    ledger: &mut TokenLedger,
    waitlist_nonempty: bool,
    projected: u64,
) -> QueuedDecision {
    if projected > ledger.capacity() {
        return QueuedDecision::RejectImpossibleFit;
    }
    // Join the waitlist even when the tokens would fit right now if
    // earlier tenants are already waiting — admission is strictly
    // FIFO, so a small late tenant cannot starve a large early one.
    if !waitlist_nonempty && ledger.commit(projected).is_ok() {
        return QueuedDecision::Admit;
    }
    QueuedDecision::Waitlist
}

/// The scheduler's harvest-sweep admission: admits waitlisted tenants
/// strictly FIFO while their projections fit, stopping at the first
/// head that does not (never skipping it for a smaller tenant behind
/// it). Returns the admitted indices in admission order; their tokens
/// are committed on return.
pub fn admit_fifo(
    ledger: &mut TokenLedger,
    waitlist: &mut VecDeque<usize>,
    projection: impl Fn(usize) -> u64,
) -> Vec<usize> {
    let mut admitted = Vec::new();
    while let Some(&head) = waitlist.front() {
        if ledger.commit(projection(head)).is_err() {
            break;
        }
        admitted.push(head);
        waitlist.pop_front();
    }
    admitted
}

/// Whether a worker's pop wakes the scheduler: only when it leaves the
/// class queue at or below half its bound (`len_after_pop ≤
/// queue_depth / 2`).
///
/// The scheduler sleeps on `space` only after refilling every pullable
/// queue to full, and workers keep draining a queue until it is empty,
/// so a full queue always passes this watermark on some later pop;
/// waking earlier would only buy a round trip that refills one slot. At
/// depth 1 and 2 every pop wakes; depth 3 is the first bound at which a
/// pop (3 → 2) skips the wake.
pub fn pop_wakes_scheduler(len_after_pop: usize, queue_depth: usize) -> bool {
    len_after_pop <= queue_depth / 2
}

/// Whether a tenant is finished: it will be pulled no more
/// (`exhausted`) and every frame it pulled has completed. The
/// scheduler's harvest releases a finished tenant's tokens, and a
/// worker's completion wakes the scheduler only when it makes this
/// true — the only kind of completion harvest and waitlist admission
/// act on.
pub fn tenant_finished(exhausted: bool, pulled: u64, completed: u64) -> bool {
    exhausted && completed == pulled
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wfq_pick_minimizes_served_over_weight() {
        // All queues loaded, nothing served: highest priority wins the
        // all-zero tie.
        assert_eq!(wfq_pick([true; 3], &[0, 0, 0]), Some(0));
        // Interactive has consumed its 8-share; Standard's 3-share is
        // next (1/3 > 8/8? no: 8/8 = 1 vs 0/3 = 0).
        assert_eq!(wfq_pick([true; 3], &[8, 0, 0]), Some(1));
        // Full 8:3:1 round retired: ratios all equal, tie to the top.
        assert_eq!(wfq_pick([true; 3], &[8, 3, 1]), Some(0));
        // Empty queues are skipped no matter how attractive the ratio.
        assert_eq!(wfq_pick([false, true, true], &[0, 3, 0]), Some(2));
        assert_eq!(wfq_pick([false; 3], &[0, 0, 0]), None);
    }

    #[test]
    fn queued_admission_is_fifo_and_rejects_impossible_fits() {
        let mut ledger = TokenLedger::new(10);
        assert_eq!(
            queued_admission(&mut ledger, false, 11),
            QueuedDecision::RejectImpossibleFit
        );
        assert_eq!(ledger.committed(), 0);
        assert_eq!(
            queued_admission(&mut ledger, false, 6),
            QueuedDecision::Admit
        );
        assert_eq!(ledger.committed(), 6);
        // Does not fit: waitlisted, nothing committed.
        assert_eq!(
            queued_admission(&mut ledger, false, 5),
            QueuedDecision::Waitlist
        );
        // Fits, but someone is ahead: strict FIFO says wait.
        assert_eq!(
            queued_admission(&mut ledger, true, 1),
            QueuedDecision::Waitlist
        );
        assert_eq!(ledger.committed(), 6);
    }

    #[test]
    fn admit_fifo_stops_at_the_first_head_that_does_not_fit() {
        let projections = [5u64, 1, 2];
        let mut ledger = TokenLedger::new(6);
        let mut waitlist: VecDeque<usize> = (0..3).collect();
        // Head (5) fits, then 1 fits, then 2 does not: stop — even
        // though nothing smaller is behind it to tempt a bypass here,
        // the head-only rule is what the FIFO invariant rests on.
        let admitted = admit_fifo(&mut ledger, &mut waitlist, |i| projections[i]);
        assert_eq!(admitted, vec![0, 1]);
        assert_eq!(waitlist, VecDeque::from(vec![2]));
        assert_eq!(ledger.committed(), 6);
        // A release unblocks the head in FIFO order.
        ledger.release(5);
        let admitted = admit_fifo(&mut ledger, &mut waitlist, |i| projections[i]);
        assert_eq!(admitted, vec![2]);
        assert!(waitlist.is_empty());
    }

    #[test]
    fn pops_wake_the_scheduler_at_or_below_half_the_bound() {
        // (depth, queue lengths after a pop that wake the scheduler)
        for (depth, waking) in [(1, 0..=0), (2, 0..=1), (3, 0..=1), (4, 0..=2), (5, 0..=2)] {
            for left in 0..depth {
                assert_eq!(
                    pop_wakes_scheduler(left, depth),
                    waking.contains(&left),
                    "depth {depth}, {left} left"
                );
            }
        }
    }

    #[test]
    fn a_tenant_finishes_when_exhausted_with_nothing_in_flight() {
        assert!(tenant_finished(true, 3, 3));
        assert!(tenant_finished(true, 0, 0));
        assert!(!tenant_finished(true, 3, 2), "a frame is still in flight");
        assert!(!tenant_finished(false, 3, 3), "the source may have more");
    }
}
