//! The sharded intra-frame engine: contiguous slices of the
//! cycle-stepper's stage `order` run on their own threads, coupled only
//! through the edges that cross a slice boundary.
//!
//! # How it stays bit-identical to the oracle
//!
//! The stage order is the reversed topological order, so for every edge
//! the consumer is visited *before* the producer within a cycle — a
//! same-cycle read frees the space a same-cycle write needs. Cutting
//! that order into contiguous shards therefore puts every cross-shard
//! edge's consumer in an **earlier** shard than its producer, and the
//! per-cycle dependencies form a wavefront:
//!
//! * the consumer at cycle `t` needs the producer's cumulative writes
//!   through cycle `t − 1` (to know the edge occupancy it may drain);
//! * the producer at cycle `t` needs the consumer's cumulative reads
//!   through cycle `t` (same-cycle reads free space, and peak-occupancy
//!   accounting must see the exact post-read occupancy).
//!
//! Ordering shard cycles lexicographically by `(cycle, shard)` makes
//! that dependency graph acyclic: downstream (early-order) shards lead,
//! upstream shards trail by ≥ 0 cycles, and the pipeline never
//! deadlocks. Each cross-shard edge carries two single-writer rings of
//! *cumulative* counters (reads published by the consumer shard, writes
//! by the producer shard), and each shard publishes a `done` cycle
//! counter with release ordering once per cycle. A consumer only spins
//! when its stale lower bound on the producer's writes cannot cover the
//! cycle's demand — in a steady state with slack it sprints ahead
//! without synchronizing, re-checking its neighbors once per
//! `RING_LEN`-cycle epoch (the flow-control analogue of how `event.rs`
//! amortizes quiescent gaps). The producer side owns the real
//! [`LineBuffer`], applies the consumer's exact cycle-`t` reads before
//! its own write phase, and thereby reproduces occupancy, peaks, and
//! traffic byte-for-byte.
//!
//! Every stage still goes through [`super::state::step_stage`] — the
//! same function the oracle drives — so shard semantics cannot drift.
//!
//! # The one sequential event: strict overflow
//!
//! A strict-policy overflow freezes `now` mid-sweep, which has no
//! parallel analogue (it would require every later shard to un-run the
//! current cycle). The sharded run simply aborts and the caller re-runs
//! the sequential oracle — bit-identical by construction, and free on
//! the workloads sharding targets (valid CS+DT schedules never
//! overflow). This mirrors how the event engine defers to the oracle
//! under variable latency.
//!
//! # Tiered backoff: spin → yield → park
//!
//! A blocked wait escalates through three tiers, tuned by
//! [`RingParams`]: a bounded `spin_loop` (absorbs one-cycle skews when
//! the peer runs on another core), exponentially-batched `yield_now`
//! rounds (cheap hand-offs when the peer holds this core), and finally a
//! **park** on the watched shard's `Mutex`/`Condvar`. Parking is what
//! makes oversubscription degrade gracefully: threads beyond the core
//! count sleep instead of round-robining the scheduler, so `Sharded(8)`
//! on one core costs hand-offs, not a ~345× thrash.
//!
//! Lost wakeups are ruled out by a Dekker-style flag-then-recheck
//! handshake, machine-checked by `streamgrid-verify`'s park/wake model:
//! the waiter raises the watched shard's `parked` flag and registers
//! the `done` value it needs in `want` (both `SeqCst` RMWs, under the
//! mutex) and *then* rechecks the condition before sleeping; the
//! publisher stores `done` (`SeqCst`) and *then* loads flag and target,
//! notifying under the same mutex when a parked peer's target is
//! crossed. In the `SeqCst` total order one side always observes the
//! other, and the mutex keeps the notify from landing between the
//! waiter's recheck and its sleep. The `want` gate is what keeps a
//! parked waiter from being woken once per published cycle: it sleeps
//! through the cycles below its target and is notified exactly when the
//! target lands. Exits wake unconditionally (`finished` store then
//! notify, no target check), so abort and completion unwind any parked
//! chain; a defensive park timeout bounds the cost of anything the
//! model missed.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use crate::linebuffer::LineBuffer;

use super::state::{step_stage, CycleAcct, EdgeIo, EngineLayout, EngineState, StageState};
use super::stats::BackoffStats;
use super::{EngineConfig, RingParams};

/// Cap on the tier-2 yield batch growth: round `r` yields
/// `2^min(r, CAP)` times, so late rounds hand the core off in bounded
/// bursts instead of doubling forever.
const YIELD_BATCH_CAP: u32 = 4;

/// Defensive upper bound on one park. The flag-then-recheck handshake
/// is verified lost-wakeup-free, but a bounded sleep keeps an abort (or
/// a protocol regression) from hanging a shard indefinitely.
const PARK_TIMEOUT: Duration = Duration::from_millis(20);

/// Per-shard progress, padded to its own cache line.
#[repr(align(128))]
struct Progress {
    /// Cycles this shard has fully completed (published with `SeqCst`
    /// ordering after the cycle's ring slots are written).
    done: AtomicU64,
    /// Set *after* the final `done` store: `done` is frozen and the
    /// shard's ring slots will never change again.
    finished: AtomicBool,
    /// Number of peers parked on this shard's condvar. Raised
    /// (`SeqCst`, under `lock`) before the waiter's final recheck;
    /// publishers load it after their `done`/`finished` store and
    /// notify only when it is nonzero.
    parked: AtomicU32,
    /// Smallest `done` value any parked peer is waiting for
    /// (`u64::MAX` when none registered a target). Lowered with
    /// `fetch_min` (`SeqCst`, under `lock`) before the waiter's final
    /// recheck; per-cycle publishers skip the notify while
    /// `done < want`, so a waiter whose target is many cycles away is
    /// woken once at its target instead of once per published cycle.
    /// Reset to `u64::MAX` under the lock whenever a notify fires —
    /// still-unsatisfied waiters re-register on their way back to
    /// sleep. Exit wakes ignore it.
    want: AtomicU64,
    /// Guards the park/notify handshake.
    lock: Mutex<()>,
    /// Where peers blocked on this shard's progress sleep.
    cv: Condvar,
}

impl Progress {
    fn new() -> Self {
        Progress {
            done: AtomicU64::new(0),
            finished: AtomicBool::new(false),
            parked: AtomicU32::new(0),
            want: AtomicU64::new(u64::MAX),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }
}

/// SPSC counter rings for one cross-shard edge. Slot `t % ring_len`
/// holds the *cumulative* count through cycle `t` — cumulative values
/// make stale reads safe lower bounds instead of corruption.
struct Channel {
    /// Written by the consumer shard: reads `R_{≤t}` off this edge.
    reads: Box<[AtomicU64]>,
    /// Written by the producer shard: writes `W_{≤t}` onto this edge.
    writes: Box<[AtomicU64]>,
}

impl Channel {
    fn new(ring_len: u64) -> Self {
        let ring = || {
            (0..ring_len)
                .map(|_| AtomicU64::new(0))
                .collect::<Box<[AtomicU64]>>()
        };
        Channel {
            reads: ring(),
            writes: ring(),
        }
    }
}

/// Tiered wait on `p`'s progress: spins, then exponentially-batched
/// yields, then parks on `p`'s condvar, until `satisfied()` holds.
/// `satisfied` must read its inputs with `SeqCst` (the flag-then-recheck
/// argument needs the waiter's loads and the publisher's stores in one
/// total order). `want` is the `done` value the waiter needs —
/// registered before parking so per-cycle publishers can skip notifies
/// until they cross it (`u64::MAX` for waits satisfied only by
/// `finished`/abort, which the unconditional exit wake covers).
fn wait_until<F: FnMut() -> bool>(
    p: &Progress,
    want: u64,
    params: &RingParams,
    bk: &mut BackoffStats,
    mut satisfied: F,
) {
    let mut spins = 0u32;
    let mut rounds = 0u32;
    loop {
        if satisfied() {
            return;
        }
        if spins < params.spin_limit {
            spins += 1;
            bk.spins += 1;
            std::hint::spin_loop();
            continue;
        }
        if rounds < params.yield_limit {
            let batch = 1u64 << rounds.min(YIELD_BATCH_CAP);
            for _ in 0..batch {
                std::thread::yield_now();
            }
            bk.yields += batch;
            rounds += 1;
            continue;
        }
        // Tier 3: park. Raise the flag and register the target under
        // the mutex, recheck, and only then sleep — the publisher's
        // store-then-load on the flag (and on `want`) plus the
        // notify-under-lock makes a lost wakeup impossible: a publisher
        // that misses either register in the `SeqCst` order stored
        // `done` before this recheck, which then bails out.
        let guard = p.lock.lock().expect("progress lock never poisoned");
        p.parked.fetch_add(1, Ordering::SeqCst);
        p.want.fetch_min(want, Ordering::SeqCst);
        if satisfied() {
            p.parked.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        bk.parks += 1;
        let (guard, _timed_out) =
            p.cv.wait_timeout(guard, PARK_TIMEOUT)
                .expect("progress lock never poisoned");
        drop(guard);
        p.parked.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Publisher half of the handshake for per-cycle `done` publishes:
/// notifies under the mutex only when a peer is flagged as parked *and*
/// the published value crosses the smallest registered target, so the
/// uncontended fast path is one atomic load per published cycle and a
/// parked waiter is woken once at its target, not once per cycle.
fn wake_if_waited(p: &Progress, done_now: u64, bk: &mut BackoffStats) {
    if p.parked.load(Ordering::SeqCst) > 0 && p.want.load(Ordering::SeqCst) <= done_now {
        let _guard = p.lock.lock().expect("progress lock never poisoned");
        // Reset under the lock: a waiter this notify does not satisfy
        // re-registers its target (also under the lock) before it can
        // sleep again, so no target is ever forgotten.
        p.want.store(u64::MAX, Ordering::SeqCst);
        p.cv.notify_all();
        bk.wakes += 1;
    }
}

/// Publisher half of the handshake for exit paths (`finished` store,
/// abort): notifies whenever a peer is flagged as parked, regardless of
/// registered targets — this is what unwinds parked chains at the end.
fn wake_if_parked(p: &Progress, bk: &mut BackoffStats) {
    if p.parked.load(Ordering::SeqCst) > 0 {
        let _guard = p.lock.lock().expect("progress lock never poisoned");
        p.want.store(u64::MAX, Ordering::SeqCst);
        p.cv.notify_all();
        bk.wakes += 1;
    }
}

/// Blocks until `p.done >= target`, the shard exits, or the run aborts;
/// returns the freshest `done` observed (the frozen final value when the
/// shard has exited).
fn wait_done(
    p: &Progress,
    target: u64,
    abort: &AtomicBool,
    params: &RingParams,
    bk: &mut BackoffStats,
) -> u64 {
    wait_until(p, target, params, bk, || {
        p.done.load(Ordering::SeqCst) >= target
            || p.finished.load(Ordering::SeqCst)
            || abort.load(Ordering::Relaxed)
    });
    // On a normal wakeup this re-load sees `done >= target`; after an
    // exit it sees the frozen final count (`finished` is stored after
    // the last `done` store); on abort it is a safe monotone bound.
    p.done.load(Ordering::SeqCst)
}

/// Consumer endpoint of a cross-shard edge.
struct XIn<'a> {
    ch: &'a Channel,
    prod: &'a Progress,
    /// Cached (monotone) copy of the producer shard's `done`.
    prod_done: u64,
    /// Monotone lower bound on the producer's cumulative writes.
    w_known: u64,
    /// Cumulative elements this shard has read off the edge.
    r_local: u64,
}

/// Producer endpoint of a cross-shard edge (owns the real line buffer).
struct XOut<'a> {
    e: usize,
    ch: &'a Channel,
    cons: &'a Progress,
    /// Cached (monotone) copy of the consumer shard's `done`.
    cons_done: u64,
    /// Cumulative consumer reads already applied to the owned buffer.
    r_applied: u64,
}

/// One shard's working set: its stages (in global order), the buffers it
/// owns (intra-shard edges + cross-shard edges it produces), and its
/// cross-shard endpoints.
struct Shard<'a> {
    idx: usize,
    stages: Vec<(usize, StageState)>,
    /// A copy of the run's remaining counts, of which only the slots of
    /// this shard's stages move.
    remaining: Vec<u64>,
    bufs: Vec<Option<LineBuffer>>,
    xins: Vec<Option<XIn<'a>>>,
    xin_edges: Vec<usize>,
    xouts: Vec<XOut<'a>>,
}

/// [`EdgeIo`] for a shard: owned edges hit the local buffer, cross-in
/// edges go through the channel protocol.
struct ShardIo<'s, 'a> {
    bufs: &'s mut [Option<LineBuffer>],
    xins: &'s mut [Option<XIn<'a>>],
    abort: &'s AtomicBool,
    ring: RingParams,
    bk: &'s mut BackoffStats,
}

impl EdgeIo for ShardIo<'_, '_> {
    fn read(&mut self, e: usize, need: u64, now: u64) -> u64 {
        let Some(x) = self.xins[e].as_mut() else {
            return self.bufs[e].as_mut().expect("local edge").read(need);
        };
        let mut avail = x.w_known - x.r_local;
        if avail < need && now > 0 {
            // The stale bound cannot cover the demand: synchronize once
            // for the exact occupancy. `W_{≤ now-1}` is final as soon as
            // the producer has completed cycle `now` (it cannot, by the
            // wavefront order, have advanced past this shard's cycle).
            if x.prod_done < now {
                x.prod_done = wait_done(x.prod, now, self.abort, &self.ring, self.bk);
            }
            let d = x.prod_done.min(now);
            if d > 0 {
                let w =
                    x.ch.writes[((d - 1) % self.ring.ring_len) as usize].load(Ordering::Acquire);
                x.w_known = x.w_known.max(w);
            }
            avail = x.w_known - x.r_local;
        }
        // If the fast path held (`avail >= need`), the true occupancy is
        // at least `avail`, so the oracle's `min(need, occupancy)` is
        // `need` — exactness without synchronizing.
        let got = need.min(avail);
        x.r_local += got;
        got
    }

    fn free(&mut self, e: usize, _now: u64) -> u64 {
        // Cross-out edges had the consumer's same-cycle reads applied at
        // the top of the cycle, so `free()` is already exact.
        self.bufs[e].as_ref().expect("owned edge").free()
    }

    fn write(&mut self, e: usize, n: u64) {
        self.bufs[e]
            .as_mut()
            .expect("owned edge")
            .write(n)
            .expect("space checked");
    }
}

/// What one shard thread hands back.
struct ShardResult {
    stages: Vec<(usize, StageState)>,
    remaining: Vec<u64>,
    bufs: Vec<(usize, LineBuffer)>,
    /// Local cycles completed (`now` is the max across shards).
    cycles: u64,
    /// Distinct-cycle stall/starve bitmaps (bit `t` = flagged at `t`);
    /// merged across shards by OR, matching the oracle's per-cycle
    /// semantics.
    stall_bits: Vec<u64>,
    starve_bits: Vec<u64>,
    sram_dynamic_bytes: u64,
    compute_elements: u64,
    dram_read_bytes: u64,
    /// Spin/yield/park/wake counts from this shard's waits.
    backoff: BackoffStats,
}

fn set_bit(bits: &mut Vec<u64>, t: u64) {
    let word = (t / 64) as usize;
    if word >= bits.len() {
        bits.resize(word + 1, 0);
    }
    bits[word] |= 1 << (t % 64);
}

/// Cuts the stage order into `n` contiguous, weight-balanced,
/// never-empty slices; returns the `n + 1` cut positions.
fn cut_points(weights: &[u64], n: usize) -> Vec<usize> {
    let len = weights.len();
    let total: u64 = weights.iter().sum::<u64>().max(1);
    let mut cuts = Vec::with_capacity(n + 1);
    cuts.push(0usize);
    let mut acc = 0u64;
    for (k, &w) in weights.iter().enumerate() {
        acc += w;
        let j = cuts.len(); // next boundary index (1-based)
        if j < n && k + 1 + (n - j) <= len {
            let forced = k + 1 + (n - j) == len;
            let due = acc * n as u64 >= total * j as u64;
            if forced || due {
                cuts.push(k + 1);
            }
        }
    }
    cuts.push(len);
    debug_assert_eq!(cuts.len(), n + 1);
    debug_assert!(cuts.windows(2).all(|w| w[0] < w[1]));
    cuts
}

/// Runs one shard to local completion (all owned stages streamed), the
/// cycle budget, or an abort.
#[allow(clippy::too_many_arguments)]
fn run_shard(
    mut task: Shard<'_>,
    config: &EngineConfig,
    n_chunks: u64,
    ii: u64,
    layout: &EngineLayout,
    ring: RingParams,
    me: &Progress,
    abort: &AtomicBool,
) -> ShardResult {
    let ring_len = ring.ring_len;
    let mut t = 0u64;
    let mut stall_bits = Vec::new();
    let mut starve_bits = Vec::new();
    let mut sram = 0u64;
    let mut compute = 0u64;
    let mut dram_rd = 0u64;
    let mut bk = BackoffStats::default();
    loop {
        if abort.load(Ordering::Relaxed) {
            break;
        }
        if task.stages.iter().all(|(_, st)| st.chunk >= n_chunks) {
            break;
        }
        if t >= config.max_cycles {
            break;
        }
        // Epoch flow control: cycle `t` ends by overwriting ring slot
        // `t % ring_len`, which held cycle `t - ring_len`; the producer
        // behind each cross-in edge must have consumed that slot first.
        if t >= ring_len {
            let target = t - ring_len + 1;
            for &e in &task.xin_edges {
                let x = task.xins[e].as_mut().expect("xin listed");
                if x.prod_done < target {
                    x.prod_done = wait_done(x.prod, target, abort, &ring, &mut bk);
                }
            }
        }
        // Apply the consumer shards' exact cycle-`t` reads to owned
        // cross-shard buffers before the producer stages step — the
        // same-cycle read-then-write sequence the oracle's stage order
        // encodes, and what keeps peak occupancy exact.
        for xo in task.xouts.iter_mut() {
            if xo.cons_done < t + 1 {
                xo.cons_done = wait_done(xo.cons, t + 1, abort, &ring, &mut bk);
            }
            let cum = if xo.cons_done > t {
                xo.ch.reads[(t % ring_len) as usize].load(Ordering::Acquire)
            } else if xo.cons_done == 0 {
                0 // consumer exited before completing any cycle
            } else {
                // Consumer exited: its counters are frozen at its final
                // completed cycle.
                xo.ch.reads[((xo.cons_done - 1) % ring_len) as usize].load(Ordering::Acquire)
            };
            let delta = cum.saturating_sub(xo.r_applied);
            if delta > 0 {
                task.bufs[xo.e].as_mut().expect("owned edge").read(delta);
                xo.r_applied += delta;
            }
        }
        // Step the local slice of the stage order through the shared
        // stepper.
        let mut acct = CycleAcct::default();
        let mut overflow = false;
        {
            let Shard {
                stages,
                remaining,
                bufs,
                xins,
                ..
            } = &mut task;
            let mut io = ShardIo {
                bufs,
                xins,
                abort,
                ring,
                bk: &mut bk,
            };
            for (si, stage) in stages.iter_mut() {
                if !stage.active(t, n_chunks, ii) {
                    continue;
                }
                if !stage.tick() {
                    acct.starved = true;
                    continue;
                }
                if step_stage(
                    layout, *si, stage, remaining, &mut io, t, n_chunks, ii, config, &mut acct,
                )
                .is_some()
                {
                    overflow = true;
                    break;
                }
            }
        }
        if overflow {
            // Strict overflow freezes `now` mid-sweep — inherently
            // sequential. Abort; the caller re-runs the oracle.
            abort.store(true, Ordering::Release);
            break;
        }
        sram += acct.sram_dynamic_bytes;
        compute += acct.compute_elements;
        dram_rd += acct.dram_read_bytes;
        if acct.stalled {
            set_bit(&mut stall_bits, t);
        }
        if acct.starved {
            set_bit(&mut starve_bits, t);
        }
        // Publish cycle `t`: cumulative counters into the rings, then
        // the `SeqCst` store on `done` that makes them visible (SeqCst
        // so the store orders before the parked-flag and `want` loads in
        // `wake_if_waited` — the publisher half of the lost-wakeup
        // handshake).
        let slot = (t % ring_len) as usize;
        for &e in &task.xin_edges {
            let x = task.xins[e].as_ref().expect("xin listed");
            x.ch.reads[slot].store(x.r_local, Ordering::Release);
        }
        for xo in task.xouts.iter() {
            let w = task.bufs[xo.e].as_ref().expect("owned edge").total_writes();
            xo.ch.writes[slot].store(w, Ordering::Release);
        }
        t += 1;
        me.done.store(t, Ordering::SeqCst);
        wake_if_waited(me, t, &mut bk);
    }
    me.done.store(t, Ordering::SeqCst);
    me.finished.store(true, Ordering::SeqCst);
    // Exit wake: peers parked on this shard's progress must observe the
    // frozen `done`/`finished` — this is what unwinds parked chains on
    // abort and at completion.
    wake_if_parked(me, &mut bk);
    // Drain trailing consumer reads: a consumer shard may keep reading
    // off a cross edge after this producer's stages completed, and the
    // oracle applies every one of those reads to the buffer (sink-edge
    // totals feed DRAM write accounting). `finished` is already
    // published, so waiting on the consumers here cannot deadlock —
    // every shard's main loop exits independently of this drain.
    if !abort.load(Ordering::Relaxed) {
        for xo in task.xouts.iter_mut() {
            wait_until(xo.cons, u64::MAX, &ring, &mut bk, || {
                xo.cons.finished.load(Ordering::SeqCst) || abort.load(Ordering::Relaxed)
            });
            let d = xo.cons.done.load(Ordering::SeqCst);
            let cum = if d == 0 {
                0
            } else {
                xo.ch.reads[((d - 1) % ring_len) as usize].load(Ordering::Acquire)
            };
            let delta = cum.saturating_sub(xo.r_applied);
            if delta > 0 {
                task.bufs[xo.e].as_mut().expect("owned edge").read(delta);
                xo.r_applied += delta;
            }
        }
    }
    let _ = task.idx;
    ShardResult {
        stages: task.stages,
        remaining: task.remaining,
        bufs: task
            .bufs
            .into_iter()
            .enumerate()
            .filter_map(|(e, b)| b.map(|b| (e, b)))
            .collect(),
        cycles: t,
        stall_bits,
        starve_bits,
        sram_dynamic_bytes: sram,
        compute_elements: compute,
        dram_read_bytes: dram_rd,
        backoff: bk,
    }
}

/// Runs the pipeline on `shards` threads. Returns `false` when a
/// strict-mode overflow aborted the sharded run — the caller must
/// discard `state` (it is left disassembled) and re-run the sequential
/// oracle on a fresh state for the exact overflow report.
///
/// `shards <= 1` (after clamping to the stage count) runs the sequential
/// oracle directly.
pub(super) fn run_to_completion(
    state: &mut EngineState<'_>,
    config: &EngineConfig,
    shards: usize,
) -> bool {
    let layout = state.layout;
    let n_stages = layout.order.len();
    let n = shards.max(1).min(n_stages.max(1));
    if n <= 1 {
        super::cycle::run_to_completion(state, config);
        return true;
    }

    // Partition the order, weighting stages by how much per-cycle work
    // they do (one accumulator tick plus one unit per touched edge).
    let weights: Vec<u64> = layout
        .order
        .iter()
        .map(|&si| 1 + layout.stages[si].slots().len() as u64)
        .collect();
    let cuts = cut_points(&weights, n);
    let mut shard_of = vec![0usize; state.stages.len()];
    for s in 0..n {
        for k in cuts[s]..cuts[s + 1] {
            shard_of[layout.order[k]] = s;
        }
    }

    // Edge endpoints (each edge has exactly one producer and consumer).
    let n_edges = state.buffers.len();
    let mut prod_of = vec![usize::MAX; n_edges];
    let mut cons_of = vec![usize::MAX; n_edges];
    for (si, shape) in layout.stages.iter().enumerate() {
        for &e in &layout.slot_edges[shape.out_slots()] {
            prod_of[e] = si;
        }
        for &e in &layout.slot_edges[shape.in_slots()] {
            cons_of[e] = si;
        }
    }

    // One channel per cross-shard edge. When the requested shard count
    // oversubscribes the host, spinning and yield-churning only steal
    // the core from the one shard that can make progress — collapse the
    // first two backoff tiers so blocked shards park almost immediately
    // (limits are only ever lowered, never raised, so explicit
    // forced-park configurations keep their meaning).
    let mut ring = config.ring.normalized();
    let host = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    if n > host {
        ring.spin_limit = 0;
        ring.yield_limit = ring.yield_limit.min(1);
    }
    let mut chan_of: Vec<Option<usize>> = vec![None; n_edges];
    let mut channels: Vec<Channel> = Vec::new();
    let mut cross_ends: Vec<(usize, usize)> = Vec::new(); // (cons_shard, prod_shard)
    for e in 0..n_edges {
        let (ps, cs) = (shard_of[prod_of[e]], shard_of[cons_of[e]]);
        if ps != cs {
            debug_assert!(
                cs < ps,
                "reversed-topo order puts consumers in earlier shards"
            );
            chan_of[e] = Some(channels.len());
            channels.push(Channel::new(ring.ring_len));
            cross_ends.push((cs, ps));
        }
    }

    let progress: Vec<Progress> = (0..n).map(|_| Progress::new()).collect();
    let abort = AtomicBool::new(false);

    // Disassemble the engine state into per-shard working sets.
    let mut stage_opts: Vec<Option<StageState>> = std::mem::take(&mut state.stages)
        .into_iter()
        .map(Some)
        .collect();
    let mut buf_opts: Vec<Option<LineBuffer>> = std::mem::take(&mut state.buffers)
        .into_iter()
        .map(Some)
        .collect();
    let mut tasks: Vec<Shard<'_>> = Vec::with_capacity(n);
    for s in 0..n {
        let stages: Vec<(usize, StageState)> = (cuts[s]..cuts[s + 1])
            .map(|k| {
                let si = layout.order[k];
                (si, stage_opts[si].take().expect("each stage in one shard"))
            })
            .collect();
        let mut bufs: Vec<Option<LineBuffer>> = (0..n_edges).map(|_| None).collect();
        let mut xins: Vec<Option<XIn<'_>>> = (0..n_edges).map(|_| None).collect();
        let mut xin_edges = Vec::new();
        let mut xouts = Vec::new();
        for e in 0..n_edges {
            match chan_of[e] {
                None => {
                    if shard_of[prod_of[e]] == s {
                        bufs[e] = buf_opts[e].take();
                    }
                }
                Some(ci) => {
                    let (cs, ps) = cross_ends[ci];
                    if ps == s {
                        bufs[e] = buf_opts[e].take();
                        xouts.push(XOut {
                            e,
                            ch: &channels[ci],
                            cons: &progress[cs],
                            cons_done: 0,
                            r_applied: 0,
                        });
                    }
                    if cs == s {
                        xins[e] = Some(XIn {
                            ch: &channels[ci],
                            prod: &progress[ps],
                            prod_done: 0,
                            w_known: 0,
                            r_local: 0,
                        });
                        xin_edges.push(e);
                    }
                }
            }
        }
        tasks.push(Shard {
            idx: s,
            stages,
            remaining: state.remaining.clone(),
            bufs,
            xins,
            xin_edges,
            xouts,
        });
    }

    let n_chunks = state.n_chunks;
    let ii = state.ii;
    let results: Vec<ShardResult> = std::thread::scope(|scope| {
        let abort = &abort;
        let progress = &progress;
        let mut iter = tasks.into_iter();
        let first = iter.next().expect("n >= 2 shards");
        let handles: Vec<_> = iter
            .map(|task| {
                scope.spawn(move || {
                    let me = &progress[task.idx];
                    run_shard(task, config, n_chunks, ii, layout, ring, me, abort)
                })
            })
            .collect();
        let mut results = vec![run_shard(
            first,
            config,
            n_chunks,
            ii,
            layout,
            ring,
            &progress[0],
            abort,
        )];
        for h in handles {
            results.push(h.join().expect("shard threads do not panic"));
        }
        results
    });

    if abort.load(Ordering::Relaxed) {
        return false;
    }

    // Reassemble: every stage and buffer came from exactly one shard.
    for res in &results {
        state.now = state.now.max(res.cycles);
        state.sram_dynamic_bytes += res.sram_dynamic_bytes;
        state.compute_elements += res.compute_elements;
        state.dram.read(res.dram_read_bytes);
        state.backoff.merge(&res.backoff);
    }
    // Every shard steps every cycle, like the oracle.
    state.stepped_cycles = state.now;
    let mut stall = Vec::new();
    let mut starve = Vec::new();
    for res in &results {
        or_into(&mut stall, &res.stall_bits);
        or_into(&mut starve, &res.starve_bits);
    }
    state.stall_cycles += stall.iter().map(|w| w.count_ones() as u64).sum::<u64>();
    state.starved_cycles += starve.iter().map(|w| w.count_ones() as u64).sum::<u64>();
    for res in results {
        for (si, st) in res.stages {
            let slots = layout.stages[si].slots();
            state.remaining[slots.clone()].copy_from_slice(&res.remaining[slots]);
            stage_opts[si] = Some(st);
        }
        for (e, lb) in res.bufs {
            buf_opts[e] = Some(lb);
        }
    }
    state.stages = stage_opts
        .into_iter()
        .map(|o| o.expect("every stage merged back"))
        .collect();
    state.buffers = buf_opts
        .into_iter()
        .map(|o| o.expect("every buffer merged back"))
        .collect();
    true
}

fn or_into(acc: &mut Vec<u64>, bits: &[u64]) {
    if acc.len() < bits.len() {
        acc.resize(bits.len(), 0);
    }
    for (a, b) in acc.iter_mut().zip(bits) {
        *a |= b;
    }
}

#[cfg(test)]
mod tests {
    use super::cut_points;

    #[test]
    fn cuts_are_contiguous_and_nonempty() {
        for len in 1..20usize {
            let weights: Vec<u64> = (0..len).map(|k| 1 + (k as u64 % 5)).collect();
            for n in 1..=len {
                let cuts = cut_points(&weights, n);
                assert_eq!(cuts.len(), n + 1);
                assert_eq!(cuts[0], 0);
                assert_eq!(cuts[n], len);
                assert!(cuts.windows(2).all(|w| w[0] < w[1]), "{cuts:?}");
            }
        }
    }

    #[test]
    fn cuts_balance_uniform_weights() {
        let weights = vec![1u64; 16];
        let cuts = cut_points(&weights, 4);
        assert_eq!(cuts, vec![0, 4, 8, 12, 16]);
    }
}
