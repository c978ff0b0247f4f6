//! The event-driven fast path.
//!
//! Under deterministic termination every stage moves at a fixed rational
//! rate between a finite set of events — chunk issues, depth-gate
//! expiries, buffer fill/drain transitions, accumulator boundaries — so
//! the simulation is piecewise-linear in time and, because all stages
//! share one initiation interval `II`, *periodic* in the steady state.
//! This engine exploits both structures while never re-implementing
//! stage semantics:
//!
//! 1. **Quiescent-gap skip** — when no stage can act at `now` (each is
//!    waiting on a future chunk issue), `now` jumps straight to the next
//!    issue event; nothing can change in between.
//! 2. **Micro-period skip** — between events, the stages that move form
//!    a fixed set, each stepping its rate accumulators. Their joint
//!    phase repeats every micro-period `P`, the lcm of the accumulators'
//!    periods (44 cycles for a stencil reading 3/11 per cycle feeding a
//!    sink at 3/4). Once the next event is more than `P` away the
//!    engine steps one span of `P` cycles through the normal stepper,
//!    watching every `min` in [`super::state::step_stage`] that could
//!    bind to something other than a rate accumulator: a read cut by
//!    the chunk's remaining count or by a short buffer, a write cut by
//!    its remaining count, by the read-share cap, or by free space. A
//!    span with no such clamp that brings every accumulator back to its
//!    starting phase repeats exactly, shifted by its drift: remaining
//!    counts, `read_done` and occupancies move linearly, and so does
//!    every clamp margin. The engine then replays `k` more spans in
//!    closed form, where `k` is the largest count that provably keeps
//!    the regime, by exact integer slack/drift bounds:
//!    - no remaining count runs out (so no chunk completes inside);
//!    - no chunk issue, depth gate, `II` boundary or `max_cycles` falls
//!      inside the skipped spans;
//!    - every read keeps its full `need`; every write keeps its free
//!      space and its read-share-cap margin.
//!
//!    A filling edge's high-water mark rises by `k ×` its drift above
//!    the span's own peak.
//! 3. **Steady-state period skip** — at initiation-interval boundaries
//!    the engine snapshots the full stepper state. Two consecutive
//!    snapshots that match as a one-chunk shift certify periodicity:
//!    the trace of `[t, t+II)` is that of `[t−II, t)` with every chunk
//!    index one higher. This is the micro-period skip's zero-drift,
//!    one-chunk-shift case and goes through the same snapshot and
//!    fast-forward code; it advances whole periods while every stage has
//!    a later chunk ahead and the budget allows.
//!
//! Cycles the engine cannot prove uneventful or repeating — around each
//! event, the clamped cycles, truncated or overflowing runs — go through
//! the same [`EngineState::step_cycle`] the oracle uses, which is why the
//! resulting [`super::RunReport`]s are bit-identical by construction.
//!
//! **Cost model.** Stepped cycles ([`super::RunReport::stepped_cycles`])
//! grow with the number of event-free spans times a few micro-periods —
//! the span's clamped start, the observed period, and the remainder
//! before the next event — not with the cycle count. A span shorter than
//! `2P` is stepped whole, and so is a stretch where clamps keep binding
//! (starvation, a full buffer); there span attempts back off
//! exponentially until the next event, so such a stretch costs within
//! about 1.5× of what the oracle pays. Across chunks, the steady-state
//! skip bounds the spans stepped by O(makespan + II) instead of
//! O(n_chunks × II).
//!
//! The fast path requires [`super::GlobalLatencyModel::Deterministic`];
//! [`super::run_with`] falls back to the oracle for variable latency,
//! whose slow factors gate every cycle with period 1000.

use super::state::{EngineState, Snapshot, SpanWatch, Step};
use super::EngineConfig;

/// Longest micro-period worth observing: a longer one (accumulators with
/// large coprime denominators) rarely fits between two events, and
/// stepping it cycle by cycle is what the engine would do anyway.
const MAX_MICRO_PERIOD: u64 = 4096;

/// Longest wait between two span attempts while clamps keep binding.
const MAX_RETRY_GAP: u64 = 1024;

/// Drives `state` to completion, skipping provably-idle gaps and
/// provably-repeating spans.
pub(super) fn run_to_completion(state: &mut EngineState, config: &EngineConfig) {
    // Last initiation-interval boundary, when the run has stepped from
    // it without a jump.
    let mut boundary = Snapshot::default();
    let mut have_boundary = false;
    // The micro-period being observed: its start snapshot, then its
    // end and the horizon its repeats must stay within.
    let mut span = Snapshot::default();
    let mut watch = SpanWatch::default();
    let mut open: Option<(u64, u64)> = None;
    // No span is tried before `retry_at`: either none fits before the
    // next event, or spans keep clamping and retries back off
    // exponentially until that event, so that clamp-bound stretches
    // cost plain steps, not snapshots.
    let mut retry_at = 0u64;
    let mut backoff = 1u64;
    while state.any_incomplete() {
        if state.now >= config.max_cycles {
            break;
        }
        if open.is_none() {
            // Event 1: next chunk issue, when every stage is idle until it.
            if let Some(next) = state.next_event_if_quiescent() {
                state.now = next.min(config.max_cycles);
                retry_at = 0;
                continue;
            }
        }
        if open.is_none() && state.now >= retry_at {
            // Event 2: an initiation-interval boundary — snapshot, and
            // jump whole periods once two consecutive snapshots certify
            // the steady state. Spans end at boundaries, so none is
            // missed while retries wait.
            if state.ii > 0 && state.now.is_multiple_of(state.ii) {
                if have_boundary && state.is_period_shift_of(&boundary) {
                    let periods = state.skippable_periods(config.max_cycles);
                    if periods > 0 {
                        state.fast_forward(periods, &boundary, None);
                        // The tail (final chunks draining) re-arms
                        // detection from scratch if another steady span
                        // remains.
                        have_boundary = false;
                        continue;
                    }
                }
                boundary.capture(state);
                have_boundary = true;
            }
            // Open a micro-period span when one fits before the next
            // event; otherwise step plainly up to that event.
            let horizon = state.horizon(config.max_cycles);
            match state.micro_period(MAX_MICRO_PERIOD) {
                Some(period) if state.now + period <= horizon => {
                    span.capture(state);
                    watch.reset(&state.buffers);
                    open = Some((state.now + period, horizon));
                }
                _ => retry_at = horizon,
            }
        }
        let step = match open {
            Some(_) => state.step_cycle_watched(config, &mut watch),
            None => state.step_cycle(config),
        };
        if step == Step::Overflow {
            break;
        }
        if let Some((end, horizon)) = open {
            if watch.clamped {
                open = None;
                retry_at = (state.now + backoff - 1).min(horizon);
                // A new event starts a new regime: retry promptly there.
                backoff = if retry_at == horizon {
                    1
                } else {
                    (backoff * 2).min(MAX_RETRY_GAP)
                };
            } else if state.now == end {
                open = None;
                backoff = 1;
                let repeats = state.span_repeats(&span, &watch, horizon);
                if repeats > 0 {
                    state.fast_forward(repeats, &span, Some(&watch));
                }
            }
        }
    }
}
