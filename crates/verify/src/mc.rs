//! `mc`: a reusable bounded-exhaustive model-checking harness.
//!
//! A protocol model is a small multi-threaded program whose shared
//! memory is part of a hashable state; the harness runs a DFS over every
//! interleaving with visited-state memoization, so its verdict is a
//! *proof over the bounded model* rather than a sampled stress run
//! (loom-lite, zero dependencies, like everything else in
//! `crates/verify`). The serving layer's dispatch, admission, and
//! scheduling protocols in `streamgrid-serve` each state a [`Model`]
//! and inherit the explorer.
//!
//! What the harness provides:
//!
//! - **Exhaustive interleaving exploration** of `threads()` logical
//!   threads, each advanced by [`Model::step`], with every
//!   nondeterministic outcome (which condvar waiter wakes, which stale
//!   value a relaxed load returns) enumerated as a distinct successor.
//! - **Safety**: [`Model::invariant`] is checked on every reachable
//!   state, [`Model::step`] may reject a transition outright, and
//!   [`Model::on_terminal`] checks final-state obligations (a drained
//!   waitlist, a zero ledger balance).
//! - **Liveness within the bounds**: a state where no thread can
//!   advance and [`Model::is_terminal`] is false is reported as a
//!   deadlock — which is exactly how a lost wakeup, a stuck waitlist,
//!   or a starved condvar surfaces in a closed model.
//! - **State-count budgets**: exploration stops (and the report is
//!   marked [`McReport::truncated`]) when the visited set exceeds
//!   [`McConfig::max_states`], so CI can gate on an explicit budget
//!   instead of a wall clock.
//!
//! Shared-memory building blocks ([`McMutex`], [`McCondvar`]) model the
//! `std::sync` primitives the real protocols use. Sequentially-consistent
//! shared fields need no machinery beyond the explorer itself — every
//! interleaving of their accesses is explored — so a model keeps them as
//! plain state fields. Condvars deliberately have **no spurious
//! wakeups**: a protocol proven deadlock-free here is deadlock-free
//! without relying on them (spurious wakeups can only rescue a deadlock,
//! never cause one).
//!
//! # Examples
//!
//! A two-thread flag handshake: thread 0 publishes, thread 1 spins.
//! The model states the protocol; the harness proves (within bounds)
//! that every interleaving terminates with the flag observed.
//!
//! ```
//! use streamgrid_verify::mc::{explore, McConfig, Model};
//!
//! #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
//! struct Handshake {
//!     published: bool, // shared flag (SeqCst: plain field, all
//!     observed: bool,  // interleavings explored by the harness)
//! }
//!
//! struct HandshakeModel;
//!
//! impl Model for HandshakeModel {
//!     type State = Handshake;
//!
//!     fn name(&self) -> &'static str {
//!         "handshake"
//!     }
//!
//!     fn threads(&self) -> usize {
//!         2
//!     }
//!
//!     fn initial(&self) -> Handshake {
//!         Handshake {
//!             published: false,
//!             observed: false,
//!         }
//!     }
//!
//!     fn step(
//!         &self,
//!         s: &Handshake,
//!         tid: usize,
//!         out: &mut Vec<Handshake>,
//!     ) -> Result<(), String> {
//!         match tid {
//!             // Publisher: one store, then done (no more transitions).
//!             0 if !s.published => out.push(Handshake {
//!                 published: true,
//!                 ..*s
//!             }),
//!             // Observer: the spin loop only advances once the store
//!             // is visible — before that the thread is simply not
//!             // enabled, which is how a model expresses blocking.
//!             1 if s.published && !s.observed => out.push(Handshake {
//!                 observed: true,
//!                 ..*s
//!             }),
//!             _ => {}
//!         }
//!         Ok(())
//!     }
//!
//!     fn is_terminal(&self, s: &Handshake) -> bool {
//!         s.published && s.observed
//!     }
//!
//!     fn invariant(&self, s: &Handshake) -> Result<(), String> {
//!         // Safety: the flag cannot be observed before it is stored.
//!         if s.observed && !s.published {
//!             return Err("observed an unpublished flag".into());
//!         }
//!         Ok(())
//!     }
//! }
//!
//! let report = explore(&HandshakeModel, &McConfig::default());
//! assert!(report.passed(), "violation: {:?}", report.violation);
//! assert_eq!(report.states_explored, 3); // init, published, observed
//! ```

use std::collections::HashSet;
use std::hash::Hash;

use serde::Serialize;

/// A bounded multi-threaded protocol model the harness can explore
/// exhaustively.
///
/// A model is a set of `threads()` logical threads advancing over a
/// shared [`Model::State`]. The harness owns the interleaving: it asks
/// each thread for its possible next states ([`Model::step`]) and
/// explores every schedule. Blocking is expressed by *not* emitting a
/// successor (a disabled thread); nondeterminism (which waiter a
/// `notify_one` wakes, which stale value a relaxed load returns) by
/// emitting several.
///
/// Obligations a model can state:
///
/// - **safety** — [`Model::invariant`] over every reachable state, plus
///   `Err` returns from [`Model::step`] for per-transition violations;
/// - **termination / deadlock-freedom** — any reachable state where no
///   thread is enabled must satisfy [`Model::is_terminal`], otherwise
///   the harness reports [`Model::deadlock`] (a lost wakeup is exactly
///   such a state);
/// - **final-state obligations** — [`Model::on_terminal`] over every
///   reachable terminal state (e.g. a token ledger's balance is zero).
///
/// See the [module docs](self) for a complete worked example.
pub trait Model {
    /// One interleaving state: shared memory plus every thread's local
    /// state (program counter, loop counters, watermarks).
    type State: Clone + Eq + Hash + std::fmt::Debug;

    /// Stable model name, used in reports and `sg_lint --mc` rows.
    fn name(&self) -> &'static str;

    /// Number of logical threads (thread ids are `0..threads()`).
    fn threads(&self) -> usize;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// Appends every possible next state of thread `tid` at `s` to
    /// `out`. Appending nothing means the thread is blocked (or
    /// finished) at `s`; appending several models a nondeterministic
    /// transition. Returns `Err` when the transition itself witnesses a
    /// violation (a torn read, an overwritten slot, an overflowed
    /// queue).
    fn step(&self, s: &Self::State, tid: usize, out: &mut Vec<Self::State>) -> Result<(), String>;

    /// Whether `s` is an accepting final state (every thread ran to
    /// completion). A state with no enabled thread that is *not*
    /// terminal is a deadlock.
    fn is_terminal(&self, s: &Self::State) -> bool;

    /// Safety invariant checked on every reachable state.
    fn invariant(&self, s: &Self::State) -> Result<(), String> {
        let _ = s;
        Ok(())
    }

    /// Obligation checked on every reachable terminal state (final
    /// balances, drained queues).
    fn on_terminal(&self, s: &Self::State) -> Result<(), String> {
        let _ = s;
        Ok(())
    }

    /// The violation reported for a deadlocked state. Override to name
    /// the protocol-level failure (a lost wakeup, a stuck waitlist)
    /// instead of the generic rendering.
    fn deadlock(&self, s: &Self::State) -> String {
        format!("deadlock: no thread can advance from {s:?}")
    }
}

/// Exploration bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// Visited-state budget: exploration stops (reported as
    /// [`McReport::truncated`], which fails [`McReport::passed`]) once
    /// this many distinct states have been visited. A truncated run is
    /// *not* a proof, so budgets are deliberately part of the verdict.
    pub max_states: u64,
}

impl Default for McConfig {
    /// Five million states: comfortably above every model this
    /// workspace ships (see the budgets in `sg_lint --mc`), small
    /// enough that a runaway model fails fast instead of consuming CI.
    fn default() -> Self {
        McConfig {
            max_states: 5_000_000,
        }
    }
}

impl McConfig {
    /// A config with an explicit state budget.
    pub fn with_max_states(mut self, max_states: u64) -> Self {
        self.max_states = max_states;
        self
    }
}

/// Outcome of one exhaustive exploration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct McReport {
    /// The model's [`Model::name`].
    pub model: String,
    /// Distinct states visited. When [`McReport::truncated`] is false
    /// and no violation aborted the search, this is the *entire*
    /// bounded state space — the verdict is a proof over the model.
    pub states_explored: u64,
    /// Transitions taken (successor edges, counting revisits).
    pub transitions: u64,
    /// Deepest interleaving explored, in transitions from the initial
    /// state.
    pub max_depth: u64,
    /// First violation found, if any: an invariant failure, a rejected
    /// transition, a deadlock, or a terminal-obligation failure.
    pub violation: Option<String>,
    /// The state budget ran out before the space was exhausted. A
    /// truncated exploration proves nothing and never passes.
    pub truncated: bool,
}

impl McReport {
    /// `true` when the whole bounded state space was explored and every
    /// interleaving upheld every obligation.
    pub fn passed(&self) -> bool {
        self.violation.is_none() && !self.truncated
    }
}

/// A modeled mutex: at most one thread holds it; acquisition is a
/// transition that is simply disabled while another thread holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct McMutex {
    owner: Option<u8>,
}

impl McMutex {
    /// An unlocked mutex.
    pub const fn unlocked() -> Self {
        McMutex { owner: None }
    }

    /// Acquires for `tid` when free; returns `false` (leaving the
    /// mutex unchanged) when another thread holds it — the caller
    /// expresses blocking by emitting no successor.
    pub fn try_lock(&mut self, tid: usize) -> bool {
        if self.owner.is_some() {
            return false;
        }
        self.owner = Some(tid as u8);
        true
    }

    /// Releases a mutex `tid` holds.
    pub fn unlock(&mut self, tid: usize) {
        debug_assert_eq!(self.owner, Some(tid as u8), "unlock by non-owner");
        self.owner = None;
    }

    /// Whether `tid` holds the mutex.
    pub fn held_by(&self, tid: usize) -> bool {
        self.owner == Some(tid as u8)
    }

    /// Whether any thread holds the mutex.
    pub fn is_locked(&self) -> bool {
        self.owner.is_some()
    }
}

/// A modeled condition variable: a waiter set, with the wait performed
/// atomically against an [`McMutex`] the way `std::sync::Condvar::wait`
/// is. No spurious wakeups (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct McCondvar {
    waiters: u32,
}

impl McCondvar {
    /// A condvar with no waiters.
    pub const fn empty() -> Self {
        McCondvar { waiters: 0 }
    }

    /// Atomically releases `mutex` (which `tid` must hold) and joins
    /// the waiter set — one indivisible transition, exactly the
    /// atomicity real condvars guarantee and the one the lost-wakeup
    /// sabotages break.
    pub fn sleep(&mut self, tid: usize, mutex: &mut McMutex) {
        debug_assert!(mutex.held_by(tid), "wait without the mutex");
        mutex.unlock(tid);
        self.waiters |= 1 << tid;
    }

    /// Every possible outcome of a `notify_one`: for each current
    /// waiter, the condvar with that waiter removed plus the woken
    /// thread id. Empty when nobody waits (the notify is lost, as in
    /// `std`). The woken thread must re-acquire the mutex before
    /// proceeding — its program counter should move to a re-acquire
    /// step, not straight back into the critical section.
    pub fn notify_one(self) -> Vec<(McCondvar, usize)> {
        (0..32)
            .filter(|tid| self.waiters & (1 << tid) != 0)
            .map(|tid| {
                (
                    McCondvar {
                        waiters: self.waiters & !(1 << tid),
                    },
                    tid,
                )
            })
            .collect()
    }

    /// Wakes every waiter, returning the woken set as a bitmask.
    pub fn notify_all(&mut self) -> u32 {
        std::mem::take(&mut self.waiters)
    }

    /// Whether `tid` is in the waiter set.
    pub fn is_waiting(&self, tid: usize) -> bool {
        self.waiters & (1 << tid) != 0
    }

    /// Whether anybody waits.
    pub fn has_waiters(&self) -> bool {
        self.waiters != 0
    }
}

/// Exhaustively explores `model` within `config`'s budget.
///
/// DFS over interleavings with visited-state memoization; verdicts are
/// proofs over the bounded model when the report is not
/// [`McReport::truncated`]. See [`Model`] for the obligations checked.
pub fn explore<M: Model>(model: &M, config: &McConfig) -> McReport {
    let threads = model.threads();
    assert!(threads >= 1, "model needs at least one thread");

    // Stack entries: (state, depth).
    let initial = model.initial();
    let mut visited: HashSet<M::State> = HashSet::new();
    visited.insert(initial.clone());
    let mut stack: Vec<(M::State, u64)> = vec![(initial, 0)];

    let mut transitions = 0u64;
    let mut max_depth = 0u64;
    let mut violation = None;
    let mut truncated = false;
    // Scratch buffer, reused across expansions.
    let mut succs: Vec<M::State> = Vec::new();

    'dfs: while let Some((s, depth)) = stack.pop() {
        max_depth = max_depth.max(depth);
        if let Err(v) = model.invariant(&s) {
            violation = Some(v);
            break;
        }

        // Every enabled thread's successors, in thread order.
        succs.clear();
        for tid in 0..threads {
            if let Err(v) = model.step(&s, tid, &mut succs) {
                violation = Some(v);
                break 'dfs;
            }
        }

        if succs.is_empty() {
            if !model.is_terminal(&s) {
                violation = Some(model.deadlock(&s));
                break;
            }
            if let Err(v) = model.on_terminal(&s) {
                violation = Some(v);
                break;
            }
            continue;
        }

        for n in succs.drain(..) {
            transitions += 1;
            if visited.contains(&n) {
                continue;
            }
            if visited.len() as u64 >= config.max_states {
                truncated = true;
                break 'dfs;
            }
            stack.push((n.clone(), depth + 1));
            visited.insert(n);
        }
    }

    McReport {
        model: model.name().to_owned(),
        states_explored: visited.len() as u64,
        transitions,
        max_depth,
        violation,
        truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// N threads each increment a shared counter k times under a mutex;
    /// invariant: the counter equals the sum of retired increments.
    /// Exercises McMutex blocking and terminal obligations.
    struct CounterModel {
        threads: usize,
        per_thread: u64,
        /// Seeded bug: increments happen outside the lock (read-modify
        /// -write race → lost updates caught by the invariant).
        racy: bool,
    }

    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct CounterState {
        mutex: McMutex,
        /// Shared; every interleaving of its accesses is explored.
        counter: u64,
        /// Per-thread: (increments retired, pc) where pc 0 = acquire,
        /// 1 = loaded (racy only; holds the stale read), 2 = done-check.
        local: Vec<(u64, u8, u64)>,
    }

    impl Model for CounterModel {
        type State = CounterState;

        fn name(&self) -> &'static str {
            "counter"
        }

        fn threads(&self) -> usize {
            self.threads
        }

        fn initial(&self) -> CounterState {
            CounterState {
                mutex: McMutex::unlocked(),
                counter: 0,
                local: vec![(0, 0, 0); self.threads],
            }
        }

        fn step(
            &self,
            s: &CounterState,
            tid: usize,
            out: &mut Vec<CounterState>,
        ) -> Result<(), String> {
            let (done, pc, stale) = s.local[tid];
            if done == self.per_thread {
                return Ok(());
            }
            if self.racy {
                // load; then store load+1 (no lock): the classic race.
                match pc {
                    0 => {
                        let mut n = s.clone();
                        n.local[tid] = (done, 1, s.counter);
                        out.push(n);
                    }
                    _ => {
                        let mut n = s.clone();
                        n.counter = stale + 1;
                        n.local[tid] = (done + 1, 0, 0);
                        out.push(n);
                    }
                }
                return Ok(());
            }
            // Locked: acquire, then increment-and-release atomically
            // (two transitions; the critical section is one step).
            match pc {
                0 => {
                    let mut n = s.clone();
                    if n.mutex.try_lock(tid) {
                        n.local[tid] = (done, 1, 0);
                        out.push(n);
                    }
                }
                _ => {
                    let mut n = s.clone();
                    n.counter += 1;
                    n.mutex.unlock(tid);
                    n.local[tid] = (done + 1, 0, 0);
                    out.push(n);
                }
            }
            Ok(())
        }

        fn is_terminal(&self, s: &CounterState) -> bool {
            s.local.iter().all(|&(done, _, _)| done == self.per_thread)
        }

        fn on_terminal(&self, s: &CounterState) -> Result<(), String> {
            let expected = self.threads as u64 * self.per_thread;
            if s.counter != expected {
                return Err(format!(
                    "lost update: {expected} retired increments but counter is {}",
                    s.counter
                ));
            }
            Ok(())
        }
    }

    #[test]
    fn locked_counter_passes_exhaustively() {
        let report = explore(
            &CounterModel {
                threads: 3,
                per_thread: 2,
                racy: false,
            },
            &McConfig::default(),
        );
        assert!(report.passed(), "violation: {:?}", report.violation);
        assert!(report.states_explored > 50, "{report:?}");
        assert!(report.max_depth >= 3 * 2 * 2, "{report:?}");
    }

    #[test]
    fn racy_counter_loses_an_update() {
        let report = explore(
            &CounterModel {
                threads: 2,
                per_thread: 1,
                racy: true,
            },
            &McConfig::default(),
        );
        let v = report.violation.expect("the race must be caught");
        assert!(v.contains("lost update"), "{v}");
    }

    #[test]
    fn state_budget_truncates_and_fails() {
        let report = explore(
            &CounterModel {
                threads: 3,
                per_thread: 2,
                racy: false,
            },
            &McConfig::default().with_max_states(10),
        );
        assert!(report.truncated);
        assert!(!report.passed(), "a truncated run is not a proof");
        assert!(report.violation.is_none());
        assert!(report.states_explored <= 11, "{report:?}");
    }

    /// A model that deadlocks: two threads each wait for the other's
    /// flag before setting their own.
    struct DeadlockModel;

    impl Model for DeadlockModel {
        type State = (bool, bool);

        fn name(&self) -> &'static str {
            "deadlock"
        }

        fn threads(&self) -> usize {
            2
        }

        fn initial(&self) -> (bool, bool) {
            (false, false)
        }

        fn step(
            &self,
            s: &(bool, bool),
            tid: usize,
            out: &mut Vec<(bool, bool)>,
        ) -> Result<(), String> {
            match tid {
                0 if s.1 && !s.0 => out.push((true, s.1)),
                1 if s.0 && !s.1 => out.push((s.0, true)),
                _ => {}
            }
            Ok(())
        }

        fn is_terminal(&self, s: &(bool, bool)) -> bool {
            s.0 && s.1
        }
    }

    #[test]
    fn circular_wait_is_reported_as_deadlock() {
        let report = explore(&DeadlockModel, &McConfig::default());
        let v = report.violation.expect("circular wait must be caught");
        assert!(v.contains("deadlock"), "{v}");
        assert_eq!(report.states_explored, 1);
    }

    #[test]
    fn condvar_notify_one_enumerates_every_waiter() {
        let mut cv = McCondvar::empty();
        let mut mx = McMutex::unlocked();
        for tid in [1usize, 3] {
            assert!(mx.try_lock(tid));
            cv.sleep(tid, &mut mx);
            assert!(cv.is_waiting(tid));
            assert!(!mx.is_locked(), "sleep releases the mutex");
        }
        let outcomes = cv.notify_one();
        let woken: Vec<usize> = outcomes.iter().map(|&(_, tid)| tid).collect();
        assert_eq!(woken, vec![1, 3]);
        for (after, tid) in outcomes {
            assert!(!after.is_waiting(tid));
        }
        assert_eq!(cv.notify_all(), (1 << 1) | (1 << 3));
        assert!(!cv.has_waiters());
        assert!(McCondvar::empty().notify_one().is_empty(), "lost notify");
    }

    #[test]
    fn mutex_excludes_and_reports_owner() {
        let mut mx = McMutex::unlocked();
        assert!(mx.try_lock(0));
        assert!(!mx.try_lock(1), "held mutexes refuse other threads");
        assert!(mx.held_by(0) && !mx.held_by(1));
        mx.unlock(0);
        assert!(mx.try_lock(1));
    }
}
