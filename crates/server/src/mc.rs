//! Model-checked serving-layer protocols: bounded-exhaustive models of
//! the scheduler↔worker dispatch handshake, the admission ledger with
//! its FIFO waitlist, and the WFQ pick, explored by the
//! [`streamgrid_verify::mc`] harness.
//!
//! The serving layer is the largest concurrency surface in the
//! workspace, and until now its central liveness claim — *a waitlisted
//! tenant always eventually fits, so the waitlist always drains* — was
//! a code comment backed by stress tests. These models turn the claims
//! into machine-checked certificates: every interleaving of a faithful
//! bounded model is explored, so a pass is a proof over the model, not
//! a sampling. Crucially, the models call the *shipped*
//! decision logic — [`wfq_pick`], [`queued_admission`], [`admit_fifo`],
//! [`pop_wakes_scheduler`], [`tenant_finished`], and the real
//! [`TokenLedger`] sit inside the model states — so the certificates
//! cover the functions [`crate::StreamServer::run`] actually executes,
//! with only the thread/lock scaffolding modeled.
//!
//! The dispatch model follows `server.rs` step for step: every notify
//! comes after its unlock, as a step of its own; a pop wakes the
//! scheduler only at or below the watermark (half the queue bound); a
//! completion wakes it only when it finishes the tenant; and the tenant
//! is marked exhausted only when the scheduler's next pull, which needs
//! queue space, finds nothing. Its bounds cover depth 1 (watermark 0),
//! depth 2 (every pop wakes) and depth 3, the first at which a pop
//! skips the wake.
//!
//! Three models, each with seeded sabotage variants that CI must report
//! as caught (`sg_lint --mc`):
//!
//! | model | protocol | obligations |
//! |-------|----------|-------------|
//! | [`check_dispatch`] | the two-condvar `work`/`space` loop of `server.rs`, with its watermark and finish wakes | no lost wakeup, no deadlock at bounded queue depth, workers never dispatch an empty slot, every pulled frame completes |
//! | [`check_ledger`]   | token ledger + strict-FIFO waitlist | tokens never leak or exceed capacity, admission is strictly FIFO, the waitlist always drains (given the up-front impossible-fit rejection) |
//! | [`check_wfq`]      | the served/weight cross-multiplication pick | a nonempty class is never starved: each dispatch goes to a class whose dispatched/weight ratio is minimal |

use std::collections::VecDeque;

use streamgrid_verify::mc::{explore, McCondvar, McConfig, McMutex, McReport, Model};

use crate::admission::TokenLedger;
use crate::protocol::{
    admit_fifo, pop_wakes_scheduler, queued_admission, tenant_finished, wfq_pick, QueuedDecision,
    WEIGHTS,
};

// =====================================================================
// 1. The two-condvar work/space dispatch protocol
// =====================================================================

/// Bounds for one [`check_dispatch`] exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DispatchConfig {
    /// Worker threads (1 or 2 explores every protocol phase; the
    /// protocol is symmetric in additional workers).
    pub workers: usize,
    /// The bounded per-class queue depth.
    pub queue_depth: u8,
    /// Frames the one modeled tenant's source yields; the pull after
    /// the last finds nothing and marks the tenant exhausted.
    pub frames: u8,
}

impl Default for DispatchConfig {
    /// Two workers × depth 2 × three frames: enough that workers race
    /// for the same job, the scheduler hits the full-queue backpressure
    /// sleep, and shutdown happens with sleepers present.
    fn default() -> Self {
        DispatchConfig {
            workers: 2,
            queue_depth: 2,
            frames: 3,
        }
    }
}

/// Which dispatch protocol to check: the shipped one, or a seeded
/// sabotage the checker must catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchVariant {
    /// The protocol `server.rs` implements. The scheduler pushes under
    /// the mutex, unlocks, then `work.notify_one`s. A worker pops under
    /// the mutex, unlocks, then `space.notify_one`s only if the pop left
    /// the queue at or below the watermark ([`pop_wakes_scheduler`]). A
    /// completion is recorded under the mutex and, after the unlock,
    /// `space.notify_one`s only if it finished the tenant
    /// ([`tenant_finished`]). The scheduler marks the tenant exhausted
    /// when a pull, which needs queue space, finds nothing; shutdown
    /// sets `done` under the mutex, unlocks, then `work.notify_all`s.
    Correct,
    /// The scheduler enqueues but never notifies `work` — the classic
    /// lost wakeup: a worker that went to sleep just before the push
    /// sleeps through the job forever.
    SkipWorkNotify,
    /// Workers never notify `space` — neither the watermark wake after
    /// a pop nor the finish wake after a completion. The scheduler
    /// sleeps on a full queue, and nothing ever tells it the queue
    /// drained.
    SkipSpaceNotify,
    /// Shutdown wakes only one worker (`notify_one` instead of
    /// `notify_all`): with two sleepers, the second never observes
    /// `done` and sleeps forever.
    NotifyOneOnDone,
    /// A woken worker trusts its wakeup and pops without re-checking
    /// the queue under the mutex — another worker may have raced it to
    /// the job, so it dispatches an empty slot.
    PopWithoutRecheck,
    /// The pop wake compares with a strict `<` against the watermark.
    /// At depth 1 the watermark is 0, so no pop ever wakes the
    /// scheduler sleeping on its one full slot.
    WatermarkOffByOne,
    /// Completions never wake the scheduler. Once it has marked the
    /// tenant exhausted and sleeps on `space` with only in-flight work
    /// left, the last completion goes unnoticed.
    NoFinishNotify,
}

// Scheduler program counter.
const S_ACQ: u8 = 0; // acquire the state mutex (loop top)
const S_BODY: u8 = 1; // holding: done-check/space-check
const S_PULL: u8 = 2; // unlocked: pull (and compile) the next frame
const S_PUSH_ACQ: u8 = 3; // re-acquire for the push
const S_PUSH: u8 = 4; // holding: enqueue, then unlock
const S_PUSH_NOTIFY: u8 = 5; // unlocked: work.notify_one
const S_SPACE_WAIT: u8 = 6; // asleep on `space`
const S_SPACE_WOKEN: u8 = 7; // woken: re-acquire the mutex
const S_EXH_ACQ: u8 = 8; // the pull found nothing: re-acquire
const S_EXH: u8 = 9; // holding: mark the tenant exhausted, then unlock
const S_DONE_NOTIFY: u8 = 10; // unlocked: wake the workers for shutdown
const S_EXIT: u8 = 11;

// Worker program counter.
const K_ACQ: u8 = 0; // acquire the state mutex (loop top)
const K_LOOP: u8 = 1; // holding: pick/done-check/sleep
const K_POP_NOTIFY: u8 = 2; // unlocked: the watermark wake
const K_EXEC: u8 = 3; // unlocked: execute the job
const K_DONE_ACQ: u8 = 4; // re-acquire to record the completion
const K_DONE: u8 = 5; // holding: completed++, then unlock
const K_DONE_NOTIFY: u8 = 6; // unlocked: the finish wake
const K_WORK_WAIT: u8 = 7; // asleep on `work`
const K_WORK_WOKEN: u8 = 8; // woken: re-acquire the mutex
const K_EXIT: u8 = 9;

/// One dispatch-protocol interleaving state: the modeled lock and
/// condvars plus the counters the real `State` struct carries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct DispatchState {
    mutex: McMutex,
    work: McCondvar,
    space: McCondvar,
    /// Jobs currently queued (jobs are indistinct in the model).
    queue: u8,
    /// Frames the scheduler has enqueued.
    pulled: u8,
    /// Frames workers have completed.
    completed: u8,
    /// A pull found the source empty: no more pulls.
    exhausted: bool,
    done: bool,
    s_pc: u8,
    w_pc: Vec<u8>,
}

struct DispatchModel {
    config: DispatchConfig,
    variant: DispatchVariant,
}

const SCHED: usize = 0;

impl DispatchModel {
    /// Applies one `space.notify_one`: only the scheduler ever waits on
    /// `space`, so the outcome is deterministic.
    fn notify_space(&self, s: &mut DispatchState) {
        if self.variant == DispatchVariant::SkipSpaceNotify {
            return;
        }
        for (cv, tid) in s.space.notify_one() {
            debug_assert_eq!(tid, SCHED, "only the scheduler waits on space");
            debug_assert_eq!(s.s_pc, S_SPACE_WAIT);
            s.space = cv;
            s.s_pc = S_SPACE_WOKEN;
        }
    }

    /// Whether a pop that left `left` jobs queued wakes the scheduler.
    fn pop_wakes(&self, left: u8) -> bool {
        let (left, depth) = (usize::from(left), usize::from(self.config.queue_depth));
        match self.variant {
            DispatchVariant::WatermarkOffByOne => left < depth / 2,
            _ => pop_wakes_scheduler(left, depth),
        }
    }

    /// Whether the completion just recorded in `s` wakes the scheduler.
    fn completion_wakes(&self, s: &DispatchState) -> bool {
        self.variant != DispatchVariant::NoFinishNotify
            && tenant_finished(s.exhausted, s.pulled.into(), s.completed.into())
    }

    /// Pops one job under the mutex and unlocks; worker `tid` then
    /// wakes the scheduler if the pop reached the watermark, and
    /// executes.
    fn pop_and_exec(&self, s: &DispatchState, tid: usize) -> Result<DispatchState, String> {
        let mut n = s.clone();
        if n.queue == 0 {
            return Err(format!(
                "worker dispatched an empty slot: woke for a job another worker \
                 already took (pulled {}, completed {})",
                s.pulled, s.completed
            ));
        }
        n.queue -= 1;
        n.mutex.unlock(tid);
        n.w_pc[tid - 1] = if self.pop_wakes(n.queue) {
            K_POP_NOTIFY
        } else {
            K_EXEC
        };
        Ok(n)
    }

    /// Appends `n` after one `work.notify_one`, once per worker it may
    /// wake — or unchanged when nobody waits (the notify is lost, as in
    /// `std`).
    fn notify_one_worker(n: DispatchState, out: &mut Vec<DispatchState>) {
        let outcomes = n.work.notify_one();
        if outcomes.is_empty() {
            out.push(n);
            return;
        }
        for (cv, wtid) in outcomes {
            let mut m = n.clone();
            m.work = cv;
            m.w_pc[wtid - 1] = K_WORK_WOKEN;
            out.push(m);
        }
    }

    /// Thread `tid`'s acquire step at `s`, if the mutex is free.
    fn acquire(s: &DispatchState, tid: usize, next: u8) -> Option<DispatchState> {
        let mut n = s.clone();
        n.mutex.try_lock(tid).then(|| {
            if tid == SCHED {
                n.s_pc = next;
            } else {
                n.w_pc[tid - 1] = next;
            }
            n
        })
    }
}

impl Model for DispatchModel {
    type State = DispatchState;

    fn name(&self) -> &'static str {
        "work-space-dispatch"
    }

    fn threads(&self) -> usize {
        1 + self.config.workers
    }

    fn initial(&self) -> DispatchState {
        DispatchState {
            mutex: McMutex::unlocked(),
            work: McCondvar::empty(),
            space: McCondvar::empty(),
            queue: 0,
            pulled: 0,
            completed: 0,
            exhausted: false,
            done: false,
            s_pc: S_ACQ,
            w_pc: vec![K_ACQ; self.config.workers],
        }
    }

    fn step(
        &self,
        s: &DispatchState,
        tid: usize,
        out: &mut Vec<DispatchState>,
    ) -> Result<(), String> {
        if tid == SCHED {
            match s.s_pc {
                S_ACQ | S_SPACE_WOKEN => out.extend(Self::acquire(s, tid, S_BODY)),
                S_BODY => {
                    let mut n = s.clone();
                    if tenant_finished(s.exhausted, s.pulled.into(), s.completed.into()) {
                        // Shutdown: set done, unlock, then wake the
                        // workers.
                        n.done = true;
                        n.mutex.unlock(tid);
                        n.s_pc = S_DONE_NOTIFY;
                    } else if !s.exhausted && s.queue < self.config.queue_depth {
                        // Queue space: go pull outside the lock
                        // (Phase C).
                        n.mutex.unlock(tid);
                        n.s_pc = S_PULL;
                    } else {
                        // Backpressure (queue full) or only in-flight
                        // work left: sleep on `space`.
                        n.space.sleep(tid, &mut n.mutex);
                        n.s_pc = S_SPACE_WAIT;
                    }
                    out.push(n);
                }
                S_PULL => {
                    // The source has `frames` frames; the pull after
                    // the last finds nothing.
                    let mut n = s.clone();
                    n.s_pc = if s.pulled < self.config.frames {
                        S_PUSH_ACQ
                    } else {
                        S_EXH_ACQ
                    };
                    out.push(n);
                }
                S_PUSH_ACQ => out.extend(Self::acquire(s, tid, S_PUSH)),
                S_PUSH => {
                    // Phase D: enqueue, unlock, then wake one worker.
                    let mut n = s.clone();
                    n.queue += 1;
                    n.pulled += 1;
                    n.mutex.unlock(tid);
                    n.s_pc = S_PUSH_NOTIFY;
                    out.push(n);
                }
                S_PUSH_NOTIFY => {
                    let mut n = s.clone();
                    n.s_pc = S_ACQ;
                    if self.variant == DispatchVariant::SkipWorkNotify {
                        out.push(n);
                    } else {
                        Self::notify_one_worker(n, out);
                    }
                }
                S_EXH_ACQ => out.extend(Self::acquire(s, tid, S_EXH)),
                S_EXH => {
                    let mut n = s.clone();
                    n.exhausted = true;
                    n.mutex.unlock(tid);
                    n.s_pc = S_ACQ;
                    out.push(n);
                }
                S_DONE_NOTIFY => {
                    let mut n = s.clone();
                    n.s_pc = S_EXIT;
                    if self.variant == DispatchVariant::NotifyOneOnDone {
                        Self::notify_one_worker(n, out);
                    } else {
                        let woken = n.work.notify_all();
                        for w in 0..self.config.workers {
                            if woken & (1 << (w + 1)) != 0 {
                                n.w_pc[w] = K_WORK_WOKEN;
                            }
                        }
                        out.push(n);
                    }
                }
                _ => {}
            }
            return Ok(());
        }

        let w = tid - 1;
        match s.w_pc[w] {
            K_ACQ => out.extend(Self::acquire(s, tid, K_LOOP)),
            K_WORK_WOKEN => {
                let mut n = s.clone();
                if n.mutex.try_lock(tid) {
                    if self.variant == DispatchVariant::PopWithoutRecheck {
                        // Sabotage: trust the wakeup, pop immediately.
                        out.push(self.pop_and_exec(&n, tid)?);
                    } else {
                        // Re-check the predicate under the mutex.
                        n.w_pc[w] = K_LOOP;
                        out.push(n);
                    }
                }
            }
            K_LOOP => {
                if s.queue > 0 {
                    out.push(self.pop_and_exec(s, tid)?);
                } else if s.done {
                    let mut n = s.clone();
                    n.mutex.unlock(tid);
                    n.w_pc[w] = K_EXIT;
                    out.push(n);
                } else {
                    let mut n = s.clone();
                    n.work.sleep(tid, &mut n.mutex);
                    n.w_pc[w] = K_WORK_WAIT;
                    out.push(n);
                }
            }
            K_POP_NOTIFY => {
                let mut n = s.clone();
                self.notify_space(&mut n);
                n.w_pc[w] = K_EXEC;
                out.push(n);
            }
            K_EXEC => {
                let mut n = s.clone();
                n.w_pc[w] = K_DONE_ACQ;
                out.push(n);
            }
            K_DONE_ACQ => out.extend(Self::acquire(s, tid, K_DONE)),
            K_DONE => {
                let mut n = s.clone();
                n.completed += 1;
                n.mutex.unlock(tid);
                n.w_pc[w] = if self.completion_wakes(&n) {
                    K_DONE_NOTIFY
                } else {
                    K_ACQ
                };
                out.push(n);
            }
            K_DONE_NOTIFY => {
                let mut n = s.clone();
                self.notify_space(&mut n);
                n.w_pc[w] = K_ACQ;
                out.push(n);
            }
            _ => {}
        }
        Ok(())
    }

    fn is_terminal(&self, s: &DispatchState) -> bool {
        s.s_pc == S_EXIT && s.w_pc.iter().all(|&pc| pc == K_EXIT)
    }

    fn invariant(&self, s: &DispatchState) -> Result<(), String> {
        if s.queue > self.config.queue_depth {
            return Err(format!(
                "queue overflow: {} jobs in a depth-{} queue",
                s.queue, self.config.queue_depth
            ));
        }
        // Every pulled frame is queued, held by a worker, or completed.
        let held = s
            .w_pc
            .iter()
            .filter(|&&pc| matches!(pc, K_POP_NOTIFY | K_EXEC | K_DONE_ACQ | K_DONE))
            .count() as u8;
        if s.pulled != s.queue + held + s.completed {
            return Err(format!(
                "job accounting broke: pulled {} but queue {} + in-flight {held} \
                 + completed {}",
                s.pulled, s.queue, s.completed
            ));
        }
        Ok(())
    }

    fn on_terminal(&self, s: &DispatchState) -> Result<(), String> {
        if s.completed != self.config.frames || s.queue != 0 {
            return Err(format!(
                "shutdown with unfinished work: {} of {} frames completed, {} queued",
                s.completed, self.config.frames, s.queue
            ));
        }
        Ok(())
    }

    fn deadlock(&self, s: &DispatchState) -> String {
        let sleepers: Vec<String> =
            std::iter::once(("scheduler".to_owned(), s.s_pc == S_SPACE_WAIT, "space"))
                .chain(
                    s.w_pc
                        .iter()
                        .enumerate()
                        .map(|(w, &pc)| (format!("worker {w}"), pc == K_WORK_WAIT, "work")),
                )
                .filter(|&(_, asleep, _)| asleep)
                .map(|(who, _, cv)| format!("{who} on `{cv}`"))
                .collect();
        if sleepers.is_empty() {
            return format!(
                "deadlock: no thread can advance (pulled {}, completed {}, queue {})",
                s.pulled, s.completed, s.queue
            );
        }
        format!(
            "lost wakeup: {} asleep forever (pulled {}, completed {}, queue {}, \
             exhausted {}, done {})",
            sleepers.join(", "),
            s.pulled,
            s.completed,
            s.queue,
            s.exhausted,
            s.done
        )
    }

    fn is_local(&self, s: &DispatchState, tid: usize) -> bool {
        // The unlocked pull/execute steps only advance the thread's own
        // pc (the pull reads `pulled`, which only the scheduler writes):
        // no shared writes, no invariant visibility, no effect on any
        // other thread's enabledness.
        if tid == SCHED {
            s.s_pc == S_PULL
        } else {
            s.w_pc[tid - 1] == K_EXEC
        }
    }

    fn independent(&self, s: &DispatchState, a: usize, b: usize) -> bool {
        self.is_local(s, a) || self.is_local(s, b)
    }
}

/// Exhaustively explores the chosen dispatch [`DispatchVariant`] within
/// `config`'s bounds under `mc`'s state budget.
///
/// # Panics
///
/// Panics when `workers` is zero (or above 8 — the model is symmetric
/// in extra workers, so large counts only burn states) or `frames` or
/// `queue_depth` is zero.
pub fn check_dispatch(
    config: &DispatchConfig,
    variant: DispatchVariant,
    mc: &McConfig,
) -> McReport {
    assert!(
        (1..=8).contains(&config.workers),
        "model needs 1..=8 workers"
    );
    assert!(config.frames > 0, "model needs at least one frame");
    assert!(
        config.queue_depth > 0,
        "model needs at least one queue slot"
    );
    explore(
        &DispatchModel {
            config: *config,
            variant,
        },
        mc,
    )
}

// =====================================================================
// 2. Token ledger + strict-FIFO waitlist
// =====================================================================

/// The admission scenario [`check_ledger`] explores: a pool capacity
/// and a sequence of tenant projections submitted via the queued path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LedgerScenario {
    /// The ledger's token capacity.
    pub capacity: u64,
    /// Projected token cost per tenant, in submission order.
    pub projections: Vec<u64>,
}

impl Default for LedgerScenario {
    /// Capacity 4 with projections `[2, 2, 3, 1, 6]`: the first two are
    /// admitted immediately and fill the pool; tenant 2 waits; tenant 3
    /// *would fit* while tenant 2 still waits (the strict-FIFO trap);
    /// tenant 4 exceeds total capacity (the impossible fit the up-front
    /// rejection must catch).
    fn default() -> Self {
        LedgerScenario {
            capacity: 4,
            projections: vec![2, 2, 3, 1, 6],
        }
    }
}

/// Which admission protocol to check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerVariant {
    /// The shipped protocol: [`queued_admission`] at submit,
    /// harvest-release then [`admit_fifo`] in the scheduler sweep.
    Correct,
    /// The sweep admits *any* waitlisted tenant that fits instead of
    /// stopping at the head — a small late tenant starves a large early
    /// one, breaking strict FIFO.
    FifoBypass,
    /// Submission skips the impossible-fit rejection: a tenant
    /// projecting more than total capacity is waitlisted and wedges the
    /// queue behind it forever.
    NoImpossibleFitReject,
    /// The harvest marks tenants released without returning their
    /// tokens: committed tokens leak and the waitlist starves.
    ForgetRelease,
}

// Tenant lifecycle in the model.
const T_WAITING: u8 = 0; // on the waitlist
const T_ACTIVE: u8 = 1; // admitted, tokens committed, running
const T_FINISHED: u8 = 2; // finished, awaiting the harvest sweep
const T_RELEASED: u8 = 3; // harvested, tokens returned
const T_REJECTED: u8 = 4; // rejected up front (impossible fit)

/// One admission-protocol state: the **real** [`TokenLedger`] plus the
/// waitlist and each tenant's lifecycle stage.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct LedgerState {
    ledger: TokenLedger,
    waitlist: Vec<u8>,
    status: Vec<u8>,
}

struct LedgerModel {
    scenario: LedgerScenario,
    variant: LedgerVariant,
}

impl LedgerModel {
    fn proj(&self, i: usize) -> u64 {
        self.scenario.projections[i]
    }
}

// Thread ids: the scheduler's harvest/admit sweep, and a completer that
// stands in for the worker pool finishing any running tenant. Both act
// under the server's state mutex in reality, so each step is atomic.
const SWEEP: usize = 0;
const COMPLETER: usize = 1;

impl Model for LedgerModel {
    type State = LedgerState;

    fn name(&self) -> &'static str {
        "ledger-waitlist"
    }

    fn threads(&self) -> usize {
        2
    }

    fn initial(&self) -> LedgerState {
        // Submission happens before `run()` on one thread, so the model
        // replays it deterministically into the initial state.
        let mut ledger = TokenLedger::new(self.scenario.capacity);
        let mut waitlist: Vec<u8> = Vec::new();
        let mut status = Vec::new();
        for (i, &p) in self.scenario.projections.iter().enumerate() {
            if self.variant == LedgerVariant::NoImpossibleFitReject {
                // Sabotage: no capacity check — everything queues.
                if waitlist.is_empty() && ledger.commit(p).is_ok() {
                    status.push(T_ACTIVE);
                } else {
                    waitlist.push(i as u8);
                    status.push(T_WAITING);
                }
                continue;
            }
            match queued_admission(&mut ledger, !waitlist.is_empty(), p) {
                QueuedDecision::Admit => status.push(T_ACTIVE),
                QueuedDecision::Waitlist => {
                    waitlist.push(i as u8);
                    status.push(T_WAITING);
                }
                QueuedDecision::RejectImpossibleFit => status.push(T_REJECTED),
            }
        }
        LedgerState {
            ledger,
            waitlist,
            status,
        }
    }

    fn step(&self, s: &LedgerState, tid: usize, out: &mut Vec<LedgerState>) -> Result<(), String> {
        if tid == COMPLETER {
            // Any running tenant may finish next (worker nondeterminism).
            for i in 0..s.status.len() {
                if s.status[i] == T_ACTIVE {
                    let mut n = s.clone();
                    n.status[i] = T_FINISHED;
                    out.push(n);
                }
            }
            return Ok(());
        }

        debug_assert_eq!(tid, SWEEP);
        // The scheduler sweep (Phase A under the state mutex): harvest
        // finished tenants, then admit from the waitlist. One atomic
        // transition, enabled only when it changes something — otherwise
        // the real scheduler is asleep on `space`.
        let mut n = s.clone();
        let mut changed = false;
        for i in 0..n.status.len() {
            if n.status[i] == T_FINISHED {
                n.status[i] = T_RELEASED;
                if self.variant != LedgerVariant::ForgetRelease {
                    n.ledger.release(self.proj(i));
                }
                changed = true;
            }
        }
        if self.variant == LedgerVariant::FifoBypass {
            // Sabotage: admit anything that fits, not just the head.
            let mut k = 0;
            while k < n.waitlist.len() {
                let i = n.waitlist[k] as usize;
                if n.ledger.commit(self.proj(i)).is_ok() {
                    if k != 0 {
                        return Err(format!(
                            "strict-FIFO admission violated: tenant {i} admitted \
                             while tenant {} was still ahead of it on the waitlist",
                            n.waitlist[0]
                        ));
                    }
                    n.waitlist.remove(k);
                    n.status[i] = T_ACTIVE;
                    changed = true;
                } else {
                    k += 1;
                }
            }
        } else {
            let mut deque: VecDeque<usize> = n.waitlist.iter().map(|&i| i as usize).collect();
            let admitted = admit_fifo(&mut n.ledger, &mut deque, |i| self.proj(i));
            for &i in &admitted {
                n.status[i] = T_ACTIVE;
                changed = true;
            }
            n.waitlist = deque.into_iter().map(|i| i as u8).collect();
        }
        if changed {
            out.push(n);
        }
        Ok(())
    }

    fn is_terminal(&self, s: &LedgerState) -> bool {
        s.status
            .iter()
            .all(|&st| st == T_RELEASED || st == T_REJECTED)
    }

    fn invariant(&self, s: &LedgerState) -> Result<(), String> {
        if s.ledger.committed() > s.ledger.capacity() {
            return Err(format!(
                "ledger over-committed: {} of {} tokens",
                s.ledger.committed(),
                s.ledger.capacity()
            ));
        }
        // Conservation: committed tokens are exactly the live tenants'.
        let live: u64 = s
            .status
            .iter()
            .enumerate()
            .filter(|&(_, &st)| st == T_ACTIVE || st == T_FINISHED)
            .map(|(i, _)| self.proj(i))
            .sum();
        if s.ledger.committed() != live {
            return Err(format!(
                "token leak: ledger holds {} committed tokens but live tenants \
                 account for {live}",
                s.ledger.committed()
            ));
        }
        Ok(())
    }

    fn on_terminal(&self, s: &LedgerState) -> Result<(), String> {
        if s.ledger.committed() != 0 {
            return Err(format!(
                "token leak at shutdown: {} tokens never released",
                s.ledger.committed()
            ));
        }
        if !s.waitlist.is_empty() {
            return Err(format!(
                "waitlist not drained at shutdown: {:?}",
                s.waitlist
            ));
        }
        Ok(())
    }

    fn deadlock(&self, s: &LedgerState) -> String {
        if let Some(&head) = s.waitlist.first() {
            return format!(
                "waitlist stuck: head tenant {head} needs {} tokens with {} \
                 available and no tenant still running — it can never be admitted",
                self.proj(head as usize),
                s.ledger.available()
            );
        }
        format!("deadlock: no transition from {s:?}")
    }
}

/// Exhaustively explores the chosen [`LedgerVariant`] over `scenario`
/// under `mc`'s state budget.
///
/// # Panics
///
/// Panics when the scenario has no tenants.
pub fn check_ledger(scenario: &LedgerScenario, variant: LedgerVariant, mc: &McConfig) -> McReport {
    assert!(
        !scenario.projections.is_empty(),
        "scenario needs at least one tenant"
    );
    explore(
        &LedgerModel {
            scenario: scenario.clone(),
            variant,
        },
        mc,
    )
}

// =====================================================================
// 3. The WFQ pick
// =====================================================================

/// Bounds for one [`check_wfq`] exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WfqConfig {
    /// Frames that arrive per class (in [`crate::QosClass::ALL`]
    /// order), in every possible order the bounded queues allow.
    pub arrivals: [u8; 3],
    /// The bounded per-class queue depth.
    pub queue_depth: u8,
}

impl Default for WfqConfig {
    /// Enough Interactive pressure to tempt a broken pick into starving
    /// Background, with every arrival order explored.
    fn default() -> Self {
        WfqConfig {
            arrivals: [3, 2, 2],
            queue_depth: 2,
        }
    }
}

/// Which pick to check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WfqVariant {
    /// The shipped [`wfq_pick`]: smallest `served/weight` by exact
    /// cross-multiplication, ties to the higher class.
    Correct,
    /// Strict priority: always drain the highest nonempty class — the
    /// textbook starvation bug WFQ exists to prevent.
    StrictPriority,
    /// The dispatch loop forgets to increment `served`: every ratio
    /// stays zero, ties always resolve to Interactive, and the pick
    /// degenerates to strict priority while *looking* fair.
    ForgetServedIncrement,
}

/// One WFQ state: queue lengths, remaining arrivals, the protocol's
/// `served` counters, and the ground-truth dispatch counts the fairness
/// invariant is measured against (a sabotage may corrupt `served`, so
/// the invariant must not trust it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct WfqState {
    qlen: [u8; 3],
    remaining: [u8; 3],
    served: [u64; 3],
    dispatched: [u64; 3],
}

struct WfqModel {
    config: WfqConfig,
    variant: WfqVariant,
}

const ARRIVALS: usize = 0;
const DISPATCHER: usize = 1;

impl Model for WfqModel {
    type State = WfqState;

    fn name(&self) -> &'static str {
        "wfq-pick"
    }

    fn threads(&self) -> usize {
        2
    }

    fn initial(&self) -> WfqState {
        WfqState {
            qlen: [0; 3],
            remaining: self.config.arrivals,
            served: [0; 3],
            dispatched: [0; 3],
        }
    }

    fn step(&self, s: &WfqState, tid: usize, out: &mut Vec<WfqState>) -> Result<(), String> {
        if tid == ARRIVALS {
            // The scheduler may enqueue into any class with arrivals
            // left and queue space — every arrival order is explored.
            for c in 0..3 {
                if s.remaining[c] > 0 && s.qlen[c] < self.config.queue_depth {
                    let mut n = *s;
                    n.qlen[c] += 1;
                    n.remaining[c] -= 1;
                    out.push(n);
                }
            }
            return Ok(());
        }

        debug_assert_eq!(tid, DISPATCHER);
        let nonempty = [s.qlen[0] > 0, s.qlen[1] > 0, s.qlen[2] > 0];
        if !nonempty.iter().any(|&ne| ne) {
            return Ok(());
        }
        let c = match self.variant {
            WfqVariant::Correct | WfqVariant::ForgetServedIncrement => {
                wfq_pick(nonempty, &s.served).expect("a queue is nonempty")
            }
            WfqVariant::StrictPriority => nonempty
                .iter()
                .position(|&ne| ne)
                .expect("a queue is nonempty"),
        };
        // The no-starvation obligation, against ground-truth dispatch
        // counts: the dispatched class's dispatched/weight ratio must be
        // minimal among nonempty classes (strictly better than higher
        // classes it ties with — ties resolve upward, never downward).
        for (b, &ne) in nonempty.iter().enumerate() {
            if b == c || !ne {
                continue;
            }
            let lhs = s.dispatched[c] * WEIGHTS[b];
            let rhs = s.dispatched[b] * WEIGHTS[c];
            let fair = if b > c { lhs <= rhs } else { lhs < rhs };
            if !fair {
                return Err(format!(
                    "starvation: class {b} (weight {}, {} dispatched) kept waiting \
                     while class {c} (weight {}, {} dispatched) was served past its \
                     share",
                    WEIGHTS[b], s.dispatched[b], WEIGHTS[c], s.dispatched[c]
                ));
            }
        }
        let mut n = *s;
        n.qlen[c] -= 1;
        n.dispatched[c] += 1;
        if self.variant != WfqVariant::ForgetServedIncrement {
            n.served[c] += 1;
        }
        out.push(n);
        Ok(())
    }

    fn is_terminal(&self, s: &WfqState) -> bool {
        s.remaining == [0; 3] && s.qlen == [0; 3]
    }
}

/// Exhaustively explores the chosen [`WfqVariant`] within `config`'s
/// bounds under `mc`'s state budget.
///
/// # Panics
///
/// Panics when no class has arrivals or the queue depth is zero.
pub fn check_wfq(config: &WfqConfig, variant: WfqVariant, mc: &McConfig) -> McReport {
    assert!(
        config.arrivals.iter().any(|&a| a > 0),
        "model needs at least one arrival"
    );
    assert!(
        config.queue_depth > 0,
        "model needs at least one queue slot"
    );
    explore(
        &WfqModel {
            config: *config,
            variant,
        },
        mc,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_protocol_passes_exhaustively() {
        for config in [
            DispatchConfig::default(),
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
            // The first depth at which a pop skips the watermark wake.
            DispatchConfig {
                workers: 2,
                queue_depth: 3,
                frames: 4,
            },
        ] {
            let report = check_dispatch(&config, DispatchVariant::Correct, &McConfig::default());
            assert!(report.passed(), "{config:?}: {:?}", report.violation);
            assert!(report.states_explored > 50, "{report:?}");
        }
    }

    #[test]
    fn dispatch_reduction_agrees_with_full_exploration() {
        // The sleep-set/ample-set reduction must change the state count,
        // never the verdict.
        let full = McConfig::default().without_reduction();
        let reduced = McConfig::default();
        for variant in [
            DispatchVariant::Correct,
            DispatchVariant::SkipWorkNotify,
            DispatchVariant::PopWithoutRecheck,
            DispatchVariant::NoFinishNotify,
        ] {
            let r = check_dispatch(&DispatchConfig::default(), variant, &reduced);
            let f = check_dispatch(&DispatchConfig::default(), variant, &full);
            assert_eq!(r.passed(), f.passed(), "{variant:?}");
            assert!(r.states_explored <= f.states_explored, "{variant:?}");
        }
    }

    #[test]
    fn skipped_work_notify_is_a_lost_wakeup() {
        let report = check_dispatch(
            &DispatchConfig::default(),
            DispatchVariant::SkipWorkNotify,
            &McConfig::default(),
        );
        let v = report.violation.expect("lost wakeup must be caught");
        assert!(v.contains("lost wakeup"), "{v}");
    }

    #[test]
    fn skipped_space_notify_is_a_lost_wakeup() {
        let report = check_dispatch(
            &DispatchConfig::default(),
            DispatchVariant::SkipSpaceNotify,
            &McConfig::default(),
        );
        let v = report.violation.expect("lost wakeup must be caught");
        assert!(v.contains("lost wakeup") && v.contains("scheduler"), "{v}");
    }

    #[test]
    fn strict_watermark_loses_the_wakeup_at_depth_one() {
        // At depth 1 the watermark is 0, and `0 < 0` never holds: the
        // scheduler sleeps on its one full slot forever.
        let depth_one = DispatchConfig {
            workers: 1,
            queue_depth: 1,
            frames: 2,
        };
        let report = check_dispatch(
            &depth_one,
            DispatchVariant::WatermarkOffByOne,
            &McConfig::default(),
        );
        let v = report.violation.expect("lost wakeup must be caught");
        assert!(v.contains("lost wakeup") && v.contains("scheduler"), "{v}");
        // At depth 2 the pop that empties the queue still wakes it,
        // which is why the sabotage row runs at depth 1.
        let report = check_dispatch(
            &DispatchConfig::default(),
            DispatchVariant::WatermarkOffByOne,
            &McConfig::default(),
        );
        assert!(report.passed(), "{:?}", report.violation);
    }

    #[test]
    fn missing_finish_wake_strands_the_scheduler() {
        // The scheduler marked the tenant exhausted and sleeps with
        // nothing queued; only the last completion could wake it.
        let report = check_dispatch(
            &DispatchConfig::default(),
            DispatchVariant::NoFinishNotify,
            &McConfig::default(),
        );
        let v = report.violation.expect("lost wakeup must be caught");
        assert!(
            v.contains("scheduler on `space`") && v.contains("queue 0, exhausted true"),
            "{v}"
        );
    }

    #[test]
    fn notify_one_at_shutdown_strands_a_worker() {
        // Needs two workers: one is woken and exits, the other sleeps
        // through shutdown.
        let report = check_dispatch(
            &DispatchConfig::default(),
            DispatchVariant::NotifyOneOnDone,
            &McConfig::default(),
        );
        let v = report.violation.expect("stranded sleeper must be caught");
        assert!(v.contains("lost wakeup") && v.contains("worker"), "{v}");
    }

    #[test]
    fn pop_without_recheck_dispatches_an_empty_slot() {
        // Needs two workers: the running one races the woken one to the
        // job.
        let report = check_dispatch(
            &DispatchConfig::default(),
            DispatchVariant::PopWithoutRecheck,
            &McConfig::default(),
        );
        let v = report.violation.expect("empty dispatch must be caught");
        assert!(v.contains("empty slot"), "{v}");
    }

    #[test]
    fn ledger_protocol_passes_exhaustively() {
        let report = check_ledger(
            &LedgerScenario::default(),
            LedgerVariant::Correct,
            &McConfig::default(),
        );
        assert!(report.passed(), "violation: {:?}", report.violation);
        assert!(report.states_explored > 10, "{report:?}");
    }

    #[test]
    fn fifo_bypass_is_caught() {
        let report = check_ledger(
            &LedgerScenario::default(),
            LedgerVariant::FifoBypass,
            &McConfig::default(),
        );
        let v = report.violation.expect("FIFO bypass must be caught");
        assert!(v.contains("FIFO"), "{v}");
    }

    #[test]
    fn unrejected_impossible_fit_wedges_the_waitlist() {
        let report = check_ledger(
            &LedgerScenario::default(),
            LedgerVariant::NoImpossibleFitReject,
            &McConfig::default(),
        );
        let v = report.violation.expect("stuck waitlist must be caught");
        assert!(v.contains("waitlist stuck"), "{v}");
    }

    #[test]
    fn forgotten_release_leaks_tokens() {
        let report = check_ledger(
            &LedgerScenario::default(),
            LedgerVariant::ForgetRelease,
            &McConfig::default(),
        );
        let v = report.violation.expect("token leak must be caught");
        assert!(v.contains("token leak"), "{v}");
    }

    #[test]
    fn wfq_pick_passes_exhaustively() {
        let report = check_wfq(
            &WfqConfig::default(),
            WfqVariant::Correct,
            &McConfig::default(),
        );
        assert!(report.passed(), "violation: {:?}", report.violation);
        assert!(report.states_explored > 100, "{report:?}");
    }

    #[test]
    fn strict_priority_starves_background() {
        let report = check_wfq(
            &WfqConfig::default(),
            WfqVariant::StrictPriority,
            &McConfig::default(),
        );
        let v = report.violation.expect("starvation must be caught");
        assert!(v.contains("starvation"), "{v}");
    }

    #[test]
    fn forgotten_served_increment_starves_background() {
        let report = check_wfq(
            &WfqConfig::default(),
            WfqVariant::ForgetServedIncrement,
            &McConfig::default(),
        );
        let v = report.violation.expect("starvation must be caught");
        assert!(v.contains("starvation"), "{v}");
    }
}
