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
//!    sink at 3/4). Where at least two periods fit before the next event
//!    the engine steps one span of `P` cycles through the normal stepper,
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
//!    fast-forward code. It advances whole periods while every stage has
//!    a later chunk ahead, and one period more, in which the stages
//!    furthest ahead finish their final chunk, when each of them had not
//!    started its chunk at the boundary and some other stage still has a
//!    chunk after that period. Such a stage sat idle in the reference
//!    period from its completion to the period's end, as a finished
//!    stage does, so its missing refill is dead state, and the engine
//!    clears the replayed counts as the oracle leaves them (see
//!    [`EngineState::skippable_periods`]). The budget caps every skip.
//!
//! Cycles the engine cannot prove uneventful or repeating — around each
//! event, the clamped cycles, truncated or overflowing runs — go through
//! the same stage sweep the oracle's [`EngineState::step_cycle`] runs,
//! which is why the resulting [`super::RunReport`]s are bit-identical by
//! construction.
//!
//! **Cost model.** Stepped cycles ([`super::RunReport::stepped_cycles`])
//! grow with the number of event-free spans times a few micro-periods —
//! the span's clamped start, the observed period, and the remainder
//! before the next event — not with the cycle count. Across chunks, the
//! steady-state skip bounds the spans stepped by O(makespan + II)
//! instead of O(n_chunks × II): what is stepped is the periods before the
//! certificate and the drain after the last skipped period. Replaying the
//! final period of the first stages to finish saves one period per run,
//! not per chunk, so it matters at few chunks: at the 4-chunk split every
//! streaming workload uses, registration at 4608 elements steps 376
//! cycles instead of 644, and classification at 1200 steps 95 instead of
//! 122.
//!
//! A plain step costs what the oracle's does, but opening a span also
//! finds the horizon and the micro-period, snapshots the state and
//! re-arms the watch, and closing it bounds the repeats: several plain
//! steps' worth. So a span opens only where it can skip:
//!
//! - at least two periods fit before the horizon: a span with less than
//!   one period left after it gets no repeat by construction;
//! - the plain step just before it was clamp-free: a clamp that bound
//!   one cycle — a chunk's count running out, a starved read, the
//!   read-share cap early in a chunk — mostly binds the next;
//! - no stage is still draining the remaining count that cut the last
//!   replay short: that count runs out within one more span, so no span
//!   repeats until the stage's chunk completes.
//!
//! Only the plain step just before a possible opening notes its clamps
//! ([`EngineState::step_cycle_flagged`]); the others run the oracle's
//! sweep as is. Where clamps keep binding (starvation, a full buffer),
//! span attempts back off exponentially until the next event — after a
//! clamped span and after a clamped plain step alike — so such a stretch
//! costs about what the oracle pays. On `server-mix`'s most common design
//! (classification at `linear(4, 2)` and 1200 elements) the engine used
//! to open a span on 93 of its 118 stepped cycles, nearly all of them
//! one cycle long and 69 of them clamped, and span bookkeeping was about
//! half of the run; it now opens 13 spans, of which 3 clamp and 9
//! replay, and steps 95 cycles.
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
pub(super) fn run_to_completion(state: &mut EngineState<'_>, config: &EngineConfig) {
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
    // next event, or spans or plain steps keep clamping and retries back
    // off exponentially until that event, so that clamp-bound stretches
    // cost plain steps, not snapshots.
    let mut retry_at = 0u64;
    let mut backoff = 1u64;
    // Whether the last plain step clamped: a span opened next would
    // most likely clamp too.
    let mut clamped = false;
    // The stage whose remaining count cut the last replay short, and
    // the chunk it was in: until that chunk completes, every span runs
    // that count out and cannot repeat.
    let mut draining: Option<(usize, u64)> = None;
    while state.any_incomplete() {
        if state.now >= config.max_cycles {
            break;
        }
        if open.is_none() {
            // Event 1: next chunk issue, when every stage is idle until it.
            if let Some(next) = state.next_event_if_quiescent() {
                state.now = next.min(config.max_cycles);
                retry_at = 0;
                clamped = false;
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
                        // The last period may have finished some stages,
                        // whose replayed refill the oracle never made.
                        state.clear_finished();
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
            // Open a micro-period span only where it can skip: after a
            // clamp-free step, with no stage draining the count that cut
            // the last replay short, and with room for the span and at
            // least one repeat before the next event. After a clamped
            // step, back off as after a clamped span; past the horizon a
            // new regime starts.
            let drained = draining.is_none_or(|(si, chunk)| state.stages[si].chunk != chunk);
            if drained {
                let horizon = state.horizon(config.max_cycles);
                if clamped {
                    retry_at = (state.now + backoff).min(horizon);
                    backoff = next_backoff(backoff, retry_at, horizon);
                } else {
                    match state.micro_period(MAX_MICRO_PERIOD) {
                        Some(period) if state.now + 2 * period <= horizon => {
                            span.capture(state);
                            watch.reset(&state.buffers);
                            open = Some((state.now + period, horizon));
                        }
                        _ => retry_at = horizon,
                    }
                }
            }
        }
        let step = if open.is_some() {
            state.step_cycle_watched(config, &mut watch)
        } else if state.now + 1 >= retry_at {
            // The next cycle may open a span: note whether this one
            // clamps.
            let (step, clamps) = state.step_cycle_flagged(config);
            clamped = clamps;
            step
        } else {
            state.step_cycle(config)
        };
        if step == Step::Overflow {
            break;
        }
        if let Some((end, horizon)) = open {
            if watch.clamped {
                open = None;
                retry_at = (state.now + backoff - 1).min(horizon);
                backoff = next_backoff(backoff, retry_at, horizon);
            } else if state.now == end {
                open = None;
                backoff = 1;
                let (repeats, cut_by) = state.span_repeats(&span, &watch, horizon);
                if repeats > 0 {
                    state.fast_forward(repeats, &span, Some(&watch));
                }
                draining = cut_by.map(|si| (si, state.stages[si].chunk));
            }
        }
    }
}

/// The retry gap after `retry_at`: doubled while clamps keep binding,
/// and reset where a new event starts a new regime, so that retries
/// there are prompt.
fn next_backoff(backoff: u64, retry_at: u64, horizon: u64) -> u64 {
    if retry_at == horizon {
        1
    } else {
        (backoff * 2).min(MAX_RETRY_GAP)
    }
}
