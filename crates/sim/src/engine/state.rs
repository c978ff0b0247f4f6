//! Shared execution state: the per-design engine layout, integer-exact
//! rate accumulators, and the single-cycle stepper that every engine
//! drives.
//!
//! A run splits into what its design fixes and what the run changes.
//! [`EngineLayout`] holds the first — the validated graph's stepping
//! order and each stage's kind, edge slots, rates, depth and chunk
//! volumes — and a compiled design builds it once.
//! [`EngineState`] holds the second as flat counters over that layout:
//! each stage's chunk index, accumulator phases and read progress, one
//! remaining count per edge slot, and the line buffers, with start
//! cycles, buffer sizes and `II` read from the run's schedule and plan.
//!
//! [`step_stage`] is the *only* place simulated work happens; the
//! cycle-accurate oracle calls it for every stage on every cycle
//! (through [`EngineState::step_cycle`]) and the event-driven engine for
//! the cycles it cannot prove uneventful. Keeping one stepper is what
//! makes the engines bit-identical by construction: the fast path never
//! re-implements semantics — it only skips provably-repeating spans,
//! watching the stepper's transfers through an [`EdgeIo`].
//!
//! The event engine's skips share one mechanism: a [`Snapshot`] taken
//! at the start of an observed span, and [`EngineState::fast_forward`],
//! which replays that span `k` more times in closed form from the
//! per-span deltas. What differs is the certificate:
//! [`EngineState::is_period_shift_of`] for whole initiation intervals
//! (zero drift, every chunk index one ahead) and
//! [`EngineState::span_repeats`] for micro-periods inside a chunk (no
//! chunk change, bounded drift), which reads the clamp margins a
//! [`WatchIo`] recorded while the span was stepped.

use std::ops::Range;

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use streamgrid_dataflow::{DataflowGraph, OpKind, Rate};
use streamgrid_optimizer::{EdgeInfo, MultiChunkPlan, Schedule};

use crate::dram::DramModel;
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::linebuffer::LineBuffer;

use super::stats::{BackoffStats, RunReport};
use super::{BufferPolicy, EngineConfig, GlobalLatencyModel};

/// Integer-exact rational rate: a stage side emits `num/den` elements per
/// cycle on average, never fractionally. The rate is pre-split into its
/// whole and fractional parts so a step needs no division; the
/// accumulator's phase lives in the run's [`StageState`].
#[derive(Debug, Clone, Copy)]
struct RateAcc {
    /// `num / den`: elements every step emits.
    whole: u64,
    /// `num % den`: what the phase gains each step.
    frac: u64,
    den: u64,
    /// Steps after which the phase repeats: `den / gcd(num, den)`.
    period: u64,
}

impl RateAcc {
    fn new(rate: Rate) -> Self {
        let num = rate.num().max(0) as u64;
        let den = rate.den().max(1) as u64;
        RateAcc {
            whole: num / den,
            frac: num % den,
            den,
            period: den / gcd(num, den),
        }
    }

    /// Elements this step emits; advances `phase`, which stays `< den`.
    fn step(&self, phase: &mut u64) -> u64 {
        *phase += self.frac;
        if *phase >= self.den {
            *phase -= self.den;
            self.whole + 1
        } else {
            self.whole
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// What one stage does in every run of a design.
#[derive(Debug, Clone)]
struct StageLayout {
    kind: OpKind,
    /// Pipeline depth: write-phase gate offset from the chunk issue.
    depth: u64,
    read_rate: RateAcc,
    write_rate: RateAcc,
    /// Elements to read per chunk (max over in-edges; 0 for sources).
    read_total: u64,
    /// Elements to write per chunk on every out-edge (max over them).
    write_total: u64,
    /// The stage's slots in [`EngineLayout::slot_edges`]: its in-edges
    /// from `first_in`, its out-edges from `first_out`, up to `end`.
    first_in: usize,
    first_out: usize,
    end: usize,
}

impl StageLayout {
    fn in_slots(&self) -> Range<usize> {
        self.first_in..self.first_out
    }

    fn out_slots(&self) -> Range<usize> {
        self.first_out..self.end
    }

    /// Every slot of the stage: in-edges, then out-edges.
    fn slots(&self) -> Range<usize> {
        self.first_in..self.end
    }

    fn reads(&self) -> bool {
        self.first_in < self.first_out
    }

    fn writes(&self) -> bool {
        self.first_out < self.end
    }
}

/// What a compiled design fixes for every run of it: the validated
/// graph's stepping order and each stage's kind, edges, rates, depth and
/// chunk volumes. Build it once per design with [`EngineLayout::new`],
/// then run it under the design's schedule with [`EngineLayout::run`]; a
/// run reads only start cycles, buffer sizes and the initiation interval
/// from its schedule and plan, so a sabotaged copy of the schedule runs
/// on the same layout.
#[derive(Debug, Clone)]
pub struct EngineLayout {
    stages: Vec<StageLayout>,
    /// Each stage's in-edges then out-edges, stage after stage: the edge
    /// behind every count of [`EngineState::remaining`].
    slot_edges: Vec<usize>,
    /// Stage visit order within a cycle: consumers before producers, so
    /// a same-cycle read frees the space a same-cycle write needs —
    /// matching the fluid simultaneity the ILP occupancy model assumes.
    order: Vec<usize>,
    /// Per-edge chunk volume (`W_P`), indexed like the buffers.
    edge_volume: Vec<u64>,
}

impl EngineLayout {
    /// Lays out a design: `edges` are the per-edge constants of `graph`
    /// at the design's chunk size.
    ///
    /// # Panics
    ///
    /// Panics if the graph fails validation.
    pub fn new(graph: &DataflowGraph, edges: &[EdgeInfo]) -> Self {
        graph.validate().expect("invalid graph");
        let mut stages = Vec::with_capacity(graph.node_count());
        let mut slot_edges = Vec::with_capacity(2 * edges.len());
        for (id, node) in graph.nodes() {
            let first_in = slot_edges.len();
            slot_edges.extend((0..edges.len()).filter(|&e| edges[e].consumer == id));
            let first_out = slot_edges.len();
            slot_edges.extend((0..edges.len()).filter(|&e| edges[e].producer == id));
            let (ins, outs) = slot_edges[first_in..].split_at(first_out - first_in);
            // Rates, depths, and volumes come from the optimizer's
            // per-edge constants ([`EdgeInfo`]) — the engine no longer
            // re-derives them from Tbl. 1 parameters. All in-edges share
            // the consumer's τ_in and all out-edges the producer's τ_out
            // and depth, so the first edge of each list is authoritative.
            let read_rate = ins.first().map_or(Rate::ZERO, |&e| edges[e].tau_in_rate);
            let write_rate = outs.first().map_or(Rate::ZERO, |&e| edges[e].tau_out_rate);
            let depth = outs.first().map_or(0, |&e| edges[e].depth_p);
            let read_total = ins.iter().map(|&e| edges[e].volume).max().unwrap_or(0);
            let write_total = outs.iter().map(|&e| edges[e].volume).max().unwrap_or(0);
            stages.push(StageLayout {
                kind: node.kind,
                depth,
                read_rate: RateAcc::new(read_rate),
                write_rate: RateAcc::new(write_rate),
                read_total,
                write_total,
                first_in,
                first_out,
                end: slot_edges.len(),
            });
        }
        let mut order: Vec<usize> = graph
            .topo_order()
            .expect("validated")
            .into_iter()
            .map(|id| id.index())
            .collect();
        order.reverse();
        EngineLayout {
            stages,
            slot_edges,
            order,
            edge_volume: edges.iter().map(|e| e.volume).collect(),
        }
    }

    /// Sets `shape`'s slots of `remaining` to a fresh chunk's counts: the
    /// edge's volume on an in-edge, the stage's write total on an
    /// out-edge.
    fn refill(&self, shape: &StageLayout, remaining: &mut [u64]) {
        for slot in shape.in_slots() {
            remaining[slot] = self.edge_volume[self.slot_edges[slot]];
        }
        remaining[shape.out_slots()].fill(shape.write_total);
    }
}

/// One stage's progress in a run.
#[derive(Debug, Clone, Copy)]
pub(super) struct StageState {
    /// First-chunk issue cycle; chunk `c` issues at `start + c · II`.
    start: u64,
    /// Current chunk index (`n_chunks` = all chunks streamed).
    pub(super) chunk: u64,
    /// Phases of the read and write rate accumulators.
    read_acc: u64,
    write_acc: u64,
    /// Elements read so far this chunk (max over in-edges).
    read_done: u64,
    /// Slowdown: stage advances only when `slow_acc` rolls over.
    slow_num: u64,
    slow_den: u64,
    slow_acc: u64,
}

impl StageState {
    fn issue(&self, chunk: u64, ii: u64) -> u64 {
        self.start + chunk * ii
    }

    fn active(&self, now: u64, n_chunks: u64, ii: u64) -> bool {
        self.chunk < n_chunks && now >= self.issue(self.chunk, ii)
    }

    /// Advances the slowdown accumulator; `true` when the stage may work
    /// this cycle.
    fn tick(&mut self) -> bool {
        self.slow_acc += self.slow_num;
        if self.slow_acc >= self.slow_den {
            self.slow_acc -= self.slow_den;
            true
        } else {
            false
        }
    }
}

/// Outcome of one stepped cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Step {
    /// The cycle completed; `now` advanced.
    Continue,
    /// A strict-mode overflow aborted the run mid-cycle (`now` frozen,
    /// matching the paper semantics of an unschedulable write).
    Overflow,
}

/// How [`step_stage`] reaches an edge's [`LineBuffer`]. Every
/// implementation keeps the buffer contract exactly: `read` returns
/// `min(need, occupancy)`, `free` the space left *after* the consumer's
/// same-cycle read, `write` never exceeds `free`.
///
/// The oracle steps through [`SeqIo`]. The event engine's [`ClampIo`]
/// notes whether a plain step clamped, and its [`WatchIo`] records every
/// clamp and margin it needs to certify a micro-period; the hooks below
/// are no-ops elsewhere and, gated on [`EdgeIo::WATCH`], compile away on
/// the oracle's path.
trait EdgeIo {
    /// Whether [`step_stage`] reports clamps and cap margins.
    const WATCH: bool = false;
    /// Consumer side: drain up to `need` elements from edge `e`; returns
    /// how many were actually available.
    fn read(&mut self, e: usize, need: u64) -> u64;
    /// Producer side: space left on edge `e`.
    fn free(&mut self, e: usize) -> u64;
    /// Producer side: commit `n` elements to edge `e` (space checked).
    fn write(&mut self, e: usize, n: u64);
    /// A transfer was cut below its rate accumulator's output by a
    /// remaining count, the read-share cap, or free space.
    fn clamped(&mut self) {}
    /// A write to edge `e` cleared its read-share cap by `slack` in
    /// scaled units (see [`EdgeWatch::cap_slack`]).
    fn cap_slack(&mut self, _e: usize, _slack: u128) {}
}

/// [`EdgeIo`] over the in-place buffer vector — the oracle.
struct SeqIo<'a> {
    buffers: &'a mut [LineBuffer],
}

impl EdgeIo for SeqIo<'_> {
    fn read(&mut self, e: usize, need: u64) -> u64 {
        self.buffers[e].read(need)
    }

    fn free(&mut self, e: usize) -> u64 {
        self.buffers[e].free()
    }

    fn write(&mut self, e: usize, n: u64) {
        self.buffers[e].write(n).expect("space checked");
    }
}

/// [`SeqIo`] that also notes whether any transfer was clamped — the
/// event engine's plain steps, whose outcome decides whether a span may
/// open next.
struct ClampIo<'a> {
    buffers: &'a mut [LineBuffer],
    clamped: bool,
}

impl EdgeIo for ClampIo<'_> {
    const WATCH: bool = true;

    fn read(&mut self, e: usize, need: u64) -> u64 {
        let got = self.buffers[e].read(need);
        self.clamped |= got < need;
        got
    }

    fn free(&mut self, e: usize) -> u64 {
        self.buffers[e].free()
    }

    fn write(&mut self, e: usize, n: u64) {
        self.buffers[e].write(n).expect("space checked");
    }

    fn clamped(&mut self) {
        self.clamped = true;
    }
}

/// Clamps and margins observed while the event engine steps one
/// micro-period.
#[derive(Debug, Default)]
pub(super) struct SpanWatch {
    /// Some transfer was cut below its accumulator's output.
    pub(super) clamped: bool,
    /// Per edge, indexed like the buffers.
    edges: Vec<EdgeWatch>,
}

/// One edge's margins over a span: minima over its transfers, where a
/// margin that no transfer touched stays at its type's maximum.
#[derive(Debug, Clone, Copy)]
struct EdgeWatch {
    /// Occupancy left over after each full read (`occupancy − need`).
    read_slack: u64,
    /// Free space left over after each write (`free − n`).
    write_slack: u64,
    /// Read-share cap margin of each write, `read_done · volume −
    /// (written + n − 1) · read_total`: the cap admits the write exactly
    /// when this is ≥ 1.
    cap_slack: u128,
    /// Highest occupancy the span reached (after each write), starting
    /// from the occupancy it began with.
    peak: u64,
}

impl SpanWatch {
    /// Re-arms the watch for a span starting at the buffers' current
    /// state. Reuses its vector: no allocation after the first span.
    pub(super) fn reset(&mut self, buffers: &[LineBuffer]) {
        self.clamped = false;
        self.edges.clear();
        self.edges.extend(buffers.iter().map(|b| EdgeWatch {
            read_slack: u64::MAX,
            write_slack: u64::MAX,
            cap_slack: u128::MAX,
            peak: b.occupancy(),
        }));
    }
}

/// [`SeqIo`] that also fills a [`SpanWatch`] — the event engine's
/// observed micro-periods.
struct WatchIo<'a> {
    buffers: &'a mut [LineBuffer],
    watch: &'a mut SpanWatch,
}

impl EdgeIo for WatchIo<'_> {
    const WATCH: bool = true;

    fn read(&mut self, e: usize, need: u64) -> u64 {
        let before = self.buffers[e].occupancy();
        let got = self.buffers[e].read(need);
        if got < need {
            self.watch.clamped = true;
        } else {
            let slack = &mut self.watch.edges[e].read_slack;
            *slack = (*slack).min(before - need);
        }
        got
    }

    fn free(&mut self, e: usize) -> u64 {
        self.buffers[e].free()
    }

    fn write(&mut self, e: usize, n: u64) {
        let buffer = &mut self.buffers[e];
        let watch = &mut self.watch.edges[e];
        watch.write_slack = watch.write_slack.min(buffer.free() - n);
        buffer.write(n).expect("space checked");
        watch.peak = watch.peak.max(buffer.occupancy());
    }

    fn clamped(&mut self) {
        self.watch.clamped = true;
    }

    fn cap_slack(&mut self, e: usize, slack: u128) {
        let min = &mut self.watch.edges[e].cap_slack;
        *min = (*min).min(slack);
    }
}

/// Per-cycle side effects a [`step_stage`] sweep accumulates. Flags are
/// per *cycle* (distinct-cycle stall/starve semantics); byte/element
/// tallies are deltas the caller folds into its monotone counters.
#[derive(Debug, Default)]
struct CycleAcct {
    stalled: bool,
    starved: bool,
    sram_dynamic_bytes: u64,
    compute_elements: u64,
    /// Source-stage DRAM reads (bytes) this cycle.
    dram_read_bytes: u64,
}

/// What the read-share cap allows one write of `want` elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cap {
    /// The whole `want` fits under the cap, with this much margin in the
    /// scaled units of [`EdgeWatch::cap_slack`] (always ≥ 1).
    Full { slack: u128 },
    /// The cap binds: at most this many (fewer than `want`) elements.
    Cut(u64),
}

/// The read-share cap on a write of `want` (≥ 1) elements to an edge of
/// `volume` elements per chunk, `written` of which are out, by a stage
/// that has read `read_done` of its `read_total`: cumulative output may
/// reach `⌈read_done · volume / read_total⌉`. Since `⌈x⌉ ≥ m ⇔ x > m − 1`
/// for whole `m`, the full `want` fits exactly when `read_done · volume >
/// (written + want − 1) · read_total`; that test multiplies only, and
/// the division runs only when the cap binds.
fn read_share_cap(read_done: u64, read_total: u64, volume: u64, written: u64, want: u64) -> Cap {
    let done = read_done as u128 * volume as u128;
    let limit = (written + want - 1) as u128 * read_total as u128;
    if done > limit {
        Cap::Full {
            slack: done - limit,
        }
    } else {
        let share = done.div_ceil(read_total as u128) as u64;
        Cap::Cut(share.saturating_sub(written))
    }
}

/// Steps one stage for cycle `now`: read phase, depth-gated write phase,
/// and chunk-completion check. `si` names the stage in `layout`, and
/// `remaining` holds the run's counts for every slot of the layout. The
/// caller has already verified the stage is [`StageState::active`] and
/// [`StageState::tick`]ed. Returns the overflowing edge when a
/// strict-mode write does not fit — the caller aborts the cycle
/// mid-sweep with `now` frozen, dropping this stage's per-stage
/// stall/starve flags exactly as the pre-extraction stepper did.
///
/// Always inlined into each engine's sweep: left to the optimizer, the
/// oracle's per-cycle loop ran 3–6 % slower (medians of 30 to 200
/// alternating runs on a 2-vCPU Xeon host).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn step_stage<IO: EdgeIo>(
    layout: &EngineLayout,
    si: usize,
    stage: &mut StageState,
    remaining: &mut [u64],
    io: &mut IO,
    now: u64,
    n_chunks: u64,
    ii: u64,
    config: &EngineConfig,
    acct: &mut CycleAcct,
) -> Option<usize> {
    let shape = &layout.stages[si];
    // Read phase.
    let mut stalled = false;
    let mut starved = false;
    if shape.reads() {
        let want = shape.read_rate.step(&mut stage.read_acc);
        let mut max_read = 0u64;
        for slot in shape.in_slots() {
            let e = layout.slot_edges[slot];
            let need = want.min(remaining[slot]);
            if IO::WATCH && need < want {
                io.clamped();
            }
            if need == 0 {
                continue;
            }
            let got = io.read(e, need);
            acct.sram_dynamic_bytes += got * config.bytes_per_element;
            remaining[slot] -= got;
            max_read = max_read.max(got);
            // No data at all while work is pending: starvation (the
            // producer is slower or not yet scheduled) — not an on-chip
            // memory stall.
            if got == 0 && need > 0 {
                starved = true;
            }
        }
        stage.read_done += max_read;
    }
    // Sources are driven purely by the write phase below; each accepted
    // element is one DRAM read.
    // Write phase: gated on pipeline depth and read progress.
    if shape.writes() && now >= stage.issue(stage.chunk, ii) + shape.depth {
        let allowance = shape.write_rate.step(&mut stage.write_acc);
        if allowance > 0 {
            // A stage cannot emit results for data it has not read: cap
            // cumulative output at the proportional share of input
            // consumed (sources are uncapped). The share rounds *up*:
            // the ILP's fluid occupancy model assumes writes track τ_out
            // continuously once the stage depth has elapsed, and
            // flooring here silently discards write allowance for
            // fractional-rate stages (e.g. a ×5 reduction emitting 2
            // elements per 5 cycles), delaying chunk completion past the
            // fluid finish time and overflowing exact-sized upstream
            // buffers in later chunks.
            for slot in shape.out_slots() {
                let e = layout.slot_edges[slot];
                let want = allowance.min(remaining[slot]);
                if IO::WATCH && want < allowance {
                    io.clamped();
                }
                if want == 0 {
                    continue;
                }
                let n = if shape.read_total > 0 {
                    let volume = layout.edge_volume[e];
                    let written = volume - remaining[slot];
                    match read_share_cap(stage.read_done, shape.read_total, volume, written, want) {
                        Cap::Full { slack } => {
                            if IO::WATCH {
                                io.cap_slack(e, slack);
                            }
                            want
                        }
                        Cap::Cut(cap) => {
                            if IO::WATCH {
                                io.clamped();
                            }
                            cap
                        }
                    }
                } else {
                    want
                };
                if n == 0 {
                    continue;
                }
                let space = io.free(e);
                let accepted = n.min(space);
                if accepted < n {
                    if IO::WATCH {
                        io.clamped();
                    }
                    match config.buffer_policy {
                        BufferPolicy::Strict => return Some(e),
                        BufferPolicy::Elastic => {
                            if accepted == 0 {
                                stalled = true;
                            }
                        }
                    }
                }
                if accepted > 0 {
                    io.write(e, accepted);
                    acct.sram_dynamic_bytes += accepted * config.bytes_per_element;
                    acct.compute_elements += accepted;
                    remaining[slot] -= accepted;
                    if matches!(shape.kind, OpKind::Source) {
                        acct.dram_read_bytes += accepted * config.bytes_per_element;
                    }
                }
            }
        }
    }
    if stalled {
        acct.stalled = true;
    }
    if starved {
        acct.starved = true;
    }
    // Chunk completion.
    if remaining[shape.slots()].iter().all(|&r| r == 0) && stage.active(now, n_chunks, ii) {
        stage.chunk += 1;
        if stage.chunk < n_chunks {
            layout.refill(shape, remaining);
            stage.read_done = 0;
            stage.read_acc = 0;
            stage.write_acc = 0;
        }
    }
    None
}

/// One cycle's stage sweep, consumers first. Returns the cycle's
/// tallies and the edge a strict-mode write overflowed, which aborts the
/// sweep mid-cycle.
#[allow(clippy::too_many_arguments)]
fn sweep<IO: EdgeIo>(
    layout: &EngineLayout,
    stages: &mut [StageState],
    remaining: &mut [u64],
    io: &mut IO,
    now: u64,
    n_chunks: u64,
    ii: u64,
    config: &EngineConfig,
) -> (CycleAcct, Option<usize>) {
    let mut acct = CycleAcct::default();
    for &si in &layout.order {
        let stage = &mut stages[si];
        if !stage.active(now, n_chunks, ii) {
            continue;
        }
        if !stage.tick() {
            acct.starved = true;
            continue;
        }
        if let Some(e) = step_stage(
            layout, si, stage, remaining, io, now, n_chunks, ii, config, &mut acct,
        ) {
            return (acct, Some(e));
        }
    }
    (acct, None)
}

/// Everything the stepper's future depends on plus every monotone
/// counter, captured at one cycle. The event engine keeps two and
/// re-captures into them in place, so taking a snapshot allocates
/// nothing after the first.
#[derive(Debug, Default)]
pub(super) struct Snapshot {
    now: u64,
    stages: Vec<StageState>,
    remaining: Vec<u64>,
    buffers: Vec<LineBuffer>,
    sram_dynamic_bytes: u64,
    compute_elements: u64,
    stall_cycles: u64,
    starved_cycles: u64,
    dram_read_bytes: u64,
}

impl Snapshot {
    /// Overwrites this snapshot with `state`'s current state.
    pub(super) fn capture(&mut self, state: &EngineState<'_>) {
        self.now = state.now;
        self.stages.clone_from(&state.stages);
        self.remaining.clone_from(&state.remaining);
        self.buffers.clone_from(&state.buffers);
        self.sram_dynamic_bytes = state.sram_dynamic_bytes;
        self.compute_elements = state.compute_elements;
        self.stall_cycles = state.stall_cycles;
        self.starved_cycles = state.starved_cycles;
        self.dram_read_bytes = state.dram.read_bytes();
    }
}

/// `cur` moved on by `k` more spans of the drift `cur − start` (which
/// may be negative); the callers' bounds keep the result in range.
fn extrapolate(cur: u64, start: u64, k: u64) -> u64 {
    if cur >= start {
        cur + k * (cur - start)
    } else {
        cur - k * (start - cur)
    }
}

/// Largest `k` with `slack − k · drift ≥ 0` (unbounded without drift).
fn spans_within(slack: u64, drift: u64) -> u64 {
    slack.checked_div(drift).unwrap_or(u64::MAX)
}

/// One run's mutable state over its design's [`EngineLayout`], shared by
/// the cycle oracle and the event-driven engine.
pub(super) struct EngineState<'l> {
    layout: &'l EngineLayout,
    pub(super) stages: Vec<StageState>,
    /// Elements left this chunk on every slot of the layout.
    remaining: Vec<u64>,
    pub(super) buffers: Vec<LineBuffer>,
    dram: DramModel,
    pub(super) ii: u64,
    n_chunks: u64,
    pub(super) now: u64,
    stall_cycles: u64,
    starved_cycles: u64,
    overflow_edge: Option<usize>,
    sram_dynamic_bytes: u64,
    compute_elements: u64,
    /// Cycles advanced one at a time (see [`RunReport::stepped_cycles`]).
    stepped_cycles: u64,
}

impl<'l> EngineState<'l> {
    /// Builds a run's initial state: `layout` is the design's, and the
    /// schedule and plan supply start cycles, buffer sizes and `II`.
    ///
    /// # Panics
    ///
    /// Panics if the schedule's dimensions do not match the layout.
    pub(super) fn new(
        layout: &'l EngineLayout,
        schedule: &Schedule,
        plan: &MultiChunkPlan,
        config: &EngineConfig,
    ) -> Self {
        assert_eq!(schedule.start_cycles.len(), layout.stages.len());
        assert_eq!(schedule.buffer_sizes.len(), layout.edge_volume.len());
        let mut rng = match config.global_latency {
            GlobalLatencyModel::Variable { seed, .. } => SmallRng::seed_from_u64(seed),
            GlobalLatencyModel::Deterministic => SmallRng::seed_from_u64(0),
        };
        let stages = layout
            .stages
            .iter()
            .zip(&schedule.start_cycles)
            .map(|(shape, &start)| {
                // Variable latency: global stages run slower by a sampled
                // factor per run (slow_num/slow_den gate active cycles).
                let (slow_num, slow_den) = match (shape.kind, config.global_latency) {
                    (OpKind::GlobalOp, GlobalLatencyModel::Variable { cv, .. }) => {
                        // Sample factor ≥ 1 with the requested dispersion.
                        let u: f64 = rng.random_range(0.0..1.0);
                        let factor = 1.0 + cv * (-2.0 * (1.0 - u).max(1e-9).ln()).sqrt();
                        ((1000.0 / factor) as u64, 1000u64)
                    }
                    _ => (1, 1),
                };
                StageState {
                    start,
                    chunk: 0,
                    read_acc: 0,
                    write_acc: 0,
                    read_done: 0,
                    slow_num,
                    slow_den,
                    slow_acc: 0,
                }
            })
            .collect();
        let mut remaining = vec![0; layout.slot_edges.len()];
        for shape in &layout.stages {
            layout.refill(shape, &mut remaining);
        }
        EngineState {
            layout,
            stages,
            remaining,
            buffers: schedule
                .buffer_sizes
                .iter()
                .map(|&s| LineBuffer::new(s))
                .collect(),
            dram: DramModel::default(),
            ii: plan.initiation_interval,
            n_chunks: config.n_chunks.max(1),
            now: 0,
            stall_cycles: 0,
            starved_cycles: 0,
            overflow_edge: None,
            sram_dynamic_bytes: 0,
            compute_elements: 0,
            stepped_cycles: 0,
        }
    }

    /// `true` while any stage still has chunks to stream.
    pub(super) fn any_incomplete(&self) -> bool {
        self.stages.iter().any(|s| s.chunk < self.n_chunks)
    }

    /// Simulates exactly one cycle: every stage (consumers first) runs
    /// its read phase, depth-gated write phase, and chunk-completion
    /// check. Stall/starve accounting is per *cycle*: a cycle in which at
    /// least one stage was write-blocked (resp. read-starved) adds one to
    /// the respective counter, however many stages were affected.
    pub(super) fn step_cycle(&mut self, config: &EngineConfig) -> Step {
        let io = &mut SeqIo {
            buffers: &mut self.buffers,
        };
        let swept = sweep(
            self.layout,
            &mut self.stages,
            &mut self.remaining,
            io,
            self.now,
            self.n_chunks,
            self.ii,
            config,
        );
        self.settle(swept)
    }

    /// [`EngineState::step_cycle`] that also says whether any transfer
    /// of the cycle was cut below its rate accumulator's output.
    pub(super) fn step_cycle_flagged(&mut self, config: &EngineConfig) -> (Step, bool) {
        let io = &mut ClampIo {
            buffers: &mut self.buffers,
            clamped: false,
        };
        let swept = sweep(
            self.layout,
            &mut self.stages,
            &mut self.remaining,
            io,
            self.now,
            self.n_chunks,
            self.ii,
            config,
        );
        let clamped = io.clamped;
        (self.settle(swept), clamped)
    }

    /// [`EngineState::step_cycle`] that also records into `watch` every
    /// clamp and margin of the cycle's transfers.
    pub(super) fn step_cycle_watched(
        &mut self,
        config: &EngineConfig,
        watch: &mut SpanWatch,
    ) -> Step {
        let io = &mut WatchIo {
            buffers: &mut self.buffers,
            watch,
        };
        let swept = sweep(
            self.layout,
            &mut self.stages,
            &mut self.remaining,
            io,
            self.now,
            self.n_chunks,
            self.ii,
            config,
        );
        self.settle(swept)
    }

    /// Folds one sweep's tallies into the run and, unless a strict-mode
    /// write overflowed, advances `now`.
    fn settle(&mut self, (acct, overflow): (CycleAcct, Option<usize>)) -> Step {
        self.sram_dynamic_bytes += acct.sram_dynamic_bytes;
        self.compute_elements += acct.compute_elements;
        self.dram.read(acct.dram_read_bytes);
        if acct.stalled {
            self.stall_cycles += 1;
        }
        if acct.starved {
            self.starved_cycles += 1;
        }
        match overflow {
            Some(e) => {
                self.overflow_edge.get_or_insert(e);
                Step::Overflow
            }
            None => {
                self.now += 1;
                self.stepped_cycles += 1;
                Step::Continue
            }
        }
    }

    /// When *no* stage can act at `now` (every incomplete stage is
    /// waiting for a future chunk issue), returns the earliest cycle one
    /// can. Until then nothing — reads, writes, accumulators, stall or
    /// starve tallies — can change, so `now` may jump straight there.
    pub(super) fn next_event_if_quiescent(&self) -> Option<u64> {
        let mut next = u64::MAX;
        for s in &self.stages {
            if s.chunk >= self.n_chunks {
                continue;
            }
            let issue = s.issue(s.chunk, self.ii);
            if self.now >= issue {
                return None; // this stage is active: the cycle is eventful
            }
            next = next.min(issue);
        }
        (next != u64::MAX).then_some(next)
    }

    /// `true` when the current state is `prev` advanced by one chunk on
    /// every stage with all phase state (accumulators, remaining work,
    /// buffer occupancies) identical — the steady-state periodicity
    /// certificate for whole initiation intervals.
    pub(super) fn is_period_shift_of(&self, prev: &Snapshot) -> bool {
        self.now == prev.now + self.ii
            && self.stages.iter().zip(&prev.stages).all(|(s, p)| {
                s.chunk == p.chunk + 1
                    && s.read_acc == p.read_acc
                    && s.write_acc == p.write_acc
                    && s.read_done == p.read_done
                    && s.slow_acc == p.slow_acc
            })
            && self.remaining == prev.remaining
            && self
                .buffers
                .iter()
                .zip(&prev.buffers)
                .all(|(b, p)| b.occupancy() == p.occupancy())
    }

    /// Whole periods that can be skipped from `now`, a boundary that
    /// [`EngineState::is_period_shift_of`] certified, without crossing
    /// the cycle budget. Each skipped period replays the certified one
    /// with every chunk index one higher.
    ///
    /// While every stage has a later chunk ahead of the one it completes,
    /// each refills as it did in the reference period, so `min(n_chunks −
    /// 1 − chunk)` periods replay exactly. One period more has the stages
    /// at that minimum finish their final chunk, which skips their refill.
    /// The missing refill is dead state when such a stage has not started
    /// its current chunk before the boundary (`start + chunk · II ≥ now`):
    /// in the reference period it then sat idle from its completion to the
    /// period's end, as a finished stage does, so no other stage can tell
    /// the two apart. The extra period is refused
    ///
    /// - when a finishing stage started its chunk before the boundary: in
    ///   the reference period it worked on its next chunk, which a
    ///   finished stage never does;
    /// - when no stage is still incomplete after it: the run then ends
    ///   inside the period, at its last completion, not at the period's
    ///   end.
    ///
    /// After a skip that takes it, the finished stages' remaining counts
    /// still hold the refill; the caller clears them, as the oracle leaves
    /// them.
    pub(super) fn skippable_periods(&self, max_cycles: u64) -> u64 {
        if self.ii == 0 {
            // A degenerate hand-built plan (plan_multi_chunk never emits
            // II = 0) issues every chunk at once: "periods" do not
            // advance time, so skipping them would desynchronize chunk
            // indices from `now`. Step such runs cycle by cycle.
            return 0;
        }
        if self.stages.iter().any(|s| s.chunk >= self.n_chunks) {
            // A finished stage completed its final chunk in the reference
            // period, which no later period repeats.
            return 0;
        }
        let ahead = |s: &StageState| self.n_chunks - 1 - s.chunk;
        let by_chunks = self.stages.iter().map(ahead).min().unwrap_or(0);
        let finishing_idle = self
            .stages
            .iter()
            .filter(|s| ahead(s) == by_chunks)
            .all(|s| s.issue(s.chunk, self.ii) >= self.now);
        let one_left = self.stages.iter().any(|s| ahead(s) > by_chunks);
        let extra = finishing_idle && one_left;
        let by_budget = max_cycles.saturating_sub(self.now) / self.ii;
        (by_chunks + u64::from(extra)).min(by_budget)
    }

    /// Zeroes the remaining counts of every finished stage, as the oracle
    /// leaves them: a whole-period skip through a stage's final chunk
    /// replays its refill (see [`EngineState::skippable_periods`]).
    pub(super) fn clear_finished(&mut self) {
        for (s, shape) in self.stages.iter().zip(&self.layout.stages) {
            if s.chunk >= self.n_chunks {
                self.remaining[shape.slots()].fill(0);
            }
        }
    }

    /// The micro-period of the stages that move right now: the lcm of
    /// the periods of every rate accumulator that steps each cycle (the
    /// read side of active consumers, the write side of active stages
    /// past their depth gate). `None` when nothing moves or the lcm
    /// exceeds `limit`.
    pub(super) fn micro_period(&self, limit: u64) -> Option<u64> {
        let mut period = 1u64;
        let mut moving = false;
        for (s, shape) in self.stages.iter().zip(&self.layout.stages) {
            if !s.active(self.now, self.n_chunks, self.ii) {
                continue;
            }
            let reads = shape.reads();
            let writes = shape.writes() && self.now >= s.issue(s.chunk, self.ii) + shape.depth;
            for (steps, rate) in [(reads, &shape.read_rate), (writes, &shape.write_rate)] {
                if steps {
                    moving = true;
                    // A whole rate (period 1) or a period that already
                    // divides the running one leaves the lcm as it is.
                    if rate.period > 1 && !period.is_multiple_of(rate.period) {
                        period = (period / gcd(period, rate.period))
                            .checked_mul(rate.period)
                            .filter(|&lcm| lcm <= limit)?;
                    }
                }
            }
        }
        moving.then_some(period)
    }

    /// The first cycle after `now` at which a stage's activity or depth
    /// gate changes, an initiation interval begins (where the engine
    /// takes its whole-period snapshots), or the budget runs out. No
    /// micro-period span may reach past it.
    pub(super) fn horizon(&self, max_cycles: u64) -> u64 {
        let mut horizon = max_cycles;
        if let Some(periods) = self.now.checked_div(self.ii) {
            horizon = horizon.min((periods + 1) * self.ii);
        }
        for (s, shape) in self.stages.iter().zip(&self.layout.stages) {
            if s.chunk >= self.n_chunks {
                continue;
            }
            let issue = s.issue(s.chunk, self.ii);
            if self.now < issue {
                horizon = horizon.min(issue);
            } else if shape.writes() && self.now < issue + shape.depth {
                horizon = horizon.min(issue + shape.depth);
            }
        }
        horizon
    }

    /// How many more times the micro-period just stepped from `start`
    /// provably repeats before `horizon`, and the stage whose remaining
    /// count allows no more than that, if one does. Zero unless the span
    /// was clamp-free (`watch`), changed no chunk index, and brought
    /// every accumulator back to its starting phase. Then each repeat is
    /// the same trace with remaining counts, `read_done` and occupancies
    /// moved by the span's drift, and the repeat count is bounded so that
    /// no remaining count runs out (which could complete a chunk), every
    /// read keeps its full `need`, and every write keeps its free space
    /// and read-share-cap margin.
    ///
    /// A stage named here has at most one span's drift left on that
    /// count once the repeats are replayed, so no later span can repeat
    /// until its chunk completes.
    pub(super) fn span_repeats(
        &self,
        start: &Snapshot,
        watch: &SpanWatch,
        horizon: u64,
    ) -> (u64, Option<usize>) {
        if watch.clamped {
            return (0, None);
        }
        let len = self.now - start.now;
        let mut k = horizon.saturating_sub(self.now) / len;
        // The tightest remaining-count bound and its stage.
        let mut by_count = (u64::MAX, 0);
        for (si, (s, p)) in self.stages.iter().zip(&start.stages).enumerate() {
            if s.chunk != p.chunk
                || s.read_acc != p.read_acc
                || s.write_acc != p.write_acc
                || s.slow_acc != p.slow_acc
            {
                return (0, None);
            }
            let shape = &self.layout.stages[si];
            for slot in shape.slots() {
                let (cur, was) = (self.remaining[slot], start.remaining[slot]);
                // Keep at least one element outstanding, so no chunk
                // completes inside the skipped span.
                let spans = spans_within(cur.saturating_sub(1), was - cur);
                if spans < by_count.0 {
                    by_count = (spans, si);
                }
            }
            // Read-share cap margins, in the scaled units of
            // `EdgeWatch::cap_slack`: they move by `Δread_done · volume −
            // Δwritten · read_total` per span.
            if shape.read_total > 0 {
                let read_total = shape.read_total as u128;
                let read_gain = (s.read_done - p.read_done) as u128;
                for slot in shape.out_slots() {
                    let e = self.layout.slot_edges[slot];
                    let vol = self.layout.edge_volume[e] as u128;
                    let written =
                        (self.buffers[e].total_writes() - start.buffers[e].total_writes()) as u128;
                    let (gain, loss) = (read_gain * vol, written * read_total);
                    if loss > gain {
                        let spans = (watch.edges[e].cap_slack - 1) / (loss - gain);
                        k = k.min(spans.min(u64::MAX as u128) as u64);
                    }
                }
            }
        }
        for (e, (b, p)) in self.buffers.iter().zip(&start.buffers).enumerate() {
            let (occupancy, was) = (b.occupancy(), p.occupancy());
            let edge = &watch.edges[e];
            k = k.min(if occupancy < was {
                spans_within(edge.read_slack, was - occupancy)
            } else {
                spans_within(edge.write_slack, occupancy - was)
            });
        }
        if by_count.0 <= k {
            (by_count.0, Some(by_count.1))
        } else {
            (k, None)
        }
    }

    /// Replays the span from `start` to now `k` more times in closed
    /// form: `now`, chunk indices, remaining counts, `read_done`,
    /// occupancies and every monotone counter move by `k ×` their
    /// per-span delta. With the `watch` the span was stepped under, a
    /// filling edge's high-water mark rises to where the last replay
    /// leaves it; without, occupancies must not drift.
    ///
    /// Valid only under a certificate that the trace repeats —
    /// [`EngineState::is_period_shift_of`] or
    /// [`EngineState::span_repeats`].
    pub(super) fn fast_forward(&mut self, k: u64, start: &Snapshot, watch: Option<&SpanWatch>) {
        self.now = extrapolate(self.now, start.now, k);
        for (s, p) in self.stages.iter_mut().zip(&start.stages) {
            s.chunk = extrapolate(s.chunk, p.chunk, k);
            s.read_done = extrapolate(s.read_done, p.read_done, k);
        }
        for (r, &was) in self.remaining.iter_mut().zip(&start.remaining) {
            *r = extrapolate(*r, was, k);
        }
        for (e, (b, p)) in self.buffers.iter_mut().zip(&start.buffers).enumerate() {
            let reads = k * (b.total_reads() - p.total_reads());
            let writes = k * (b.total_writes() - p.total_writes());
            let drift = b.occupancy().saturating_sub(p.occupancy());
            let peak = match watch {
                Some(watch) if drift > 0 => watch.edges[e].peak + k * drift,
                _ => {
                    debug_assert_eq!(drift, 0, "only a watched span may fill an edge");
                    0
                }
            };
            b.fast_forward(reads, writes, peak);
        }
        self.sram_dynamic_bytes = extrapolate(self.sram_dynamic_bytes, start.sram_dynamic_bytes, k);
        self.compute_elements = extrapolate(self.compute_elements, start.compute_elements, k);
        self.stall_cycles = extrapolate(self.stall_cycles, start.stall_cycles, k);
        self.starved_cycles = extrapolate(self.starved_cycles, start.starved_cycles, k);
        self.dram
            .read(k * (self.dram.read_bytes() - start.dram_read_bytes));
    }

    /// Assembles the [`RunReport`]: drains sink traffic to DRAM, totals
    /// the energy, and flags truncation (the cycle budget ran out with
    /// chunks still in flight and no overflow to blame).
    pub(super) fn finalize(
        mut self,
        energy_model: &EnergyModel,
        config: &EngineConfig,
    ) -> RunReport {
        // Everything a sink consumes goes to DRAM.
        let mut sink_bytes = 0u64;
        for shape in &self.layout.stages {
            if matches!(shape.kind, OpKind::Sink) {
                for &e in &self.layout.slot_edges[shape.in_slots()] {
                    sink_bytes += self.buffers[e].total_reads() * config.bytes_per_element;
                }
            }
        }
        self.dram.write(sink_bytes);

        let buffer_peaks: Vec<u64> = self.buffers.iter().map(|b| b.max_occupancy()).collect();
        let buffer_capacities: Vec<u64> = self.buffers.iter().map(|b| b.capacity()).collect();
        let total_capacity_bytes: u64 =
            buffer_capacities.iter().sum::<u64>() * config.bytes_per_element;

        let macs = (self.compute_elements as f64 * config.macs_per_element) as u64;
        // Each MAC fetches ~2 operand bytes from on-chip SRAM; this
        // operand traffic is what couples buffer capacity to energy.
        let operand_bytes = macs * 2;
        let energy = EnergyBreakdown {
            sram_pj: energy_model.sram_access_pj(
                self.sram_dynamic_bytes + operand_bytes,
                total_capacity_bytes.max(1024),
            ) + energy_model.sram_leak_pj(total_capacity_bytes, self.now),
            dram_pj: energy_model.dram_pj(self.dram.total_bytes()),
            compute_pj: energy_model.compute_pj(macs, self.compute_elements),
        };

        let truncated = self.any_incomplete() && self.overflow_edge.is_none();
        RunReport {
            cycles: self.now,
            buffer_peaks,
            buffer_capacities,
            overflow_edge: self.overflow_edge,
            truncated,
            stall_cycles: self.stall_cycles,
            starved_cycles: self.starved_cycles,
            dram_read_bytes: self.dram.read_bytes(),
            dram_write_bytes: self.dram.write_bytes(),
            energy,
            stepped_cycles: self.stepped_cycles,
            backoff: BackoffStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cap by its definition: the rounded-up share by division, then
    /// `min`, with the margin taken only when it admits the whole write.
    /// Returns `(n, clamped, slack)`.
    fn cap_by_division(
        read_done: u64,
        read_total: u64,
        volume: u64,
        written: u64,
        want: u64,
    ) -> (u64, bool, Option<u128>) {
        let done = read_done as u128 * volume as u128;
        let share = done.div_ceil(read_total as u128) as u64;
        let cap = share.saturating_sub(written);
        if cap < want {
            (want.min(cap), true, None)
        } else {
            let limit = (written + want - 1) as u128 * read_total as u128;
            (want.min(cap), false, Some(done - limit))
        }
    }

    #[test]
    fn read_share_cap_matches_the_division_exhaustively() {
        let mut cuts = 0u64;
        let mut fulls = 0u64;
        for read_done in 0..=24u64 {
            for read_total in 1..=12u64 {
                for volume in 1..=12u64 {
                    for written in 0..=volume {
                        for want in 1..=4u64 {
                            let expected =
                                cap_by_division(read_done, read_total, volume, written, want);
                            let got = match read_share_cap(
                                read_done, read_total, volume, written, want,
                            ) {
                                Cap::Full { slack } => {
                                    fulls += 1;
                                    (want, false, Some(slack))
                                }
                                Cap::Cut(cap) => {
                                    cuts += 1;
                                    assert!(cap < want, "a cut must be below want");
                                    (cap, true, None)
                                }
                            };
                            assert_eq!(
                                got, expected,
                                "read {read_done}/{read_total}, volume {volume}, \
                                 written {written}, want {want}"
                            );
                        }
                    }
                }
            }
        }
        // Both outcomes are exercised, as is a zero cut.
        assert!(cuts > 0 && fulls > 0);
        assert_eq!(read_share_cap(0, 5, 5, 0, 1), Cap::Cut(0));
    }

    /// source → map → sink at `II = 100`, with start cycles and chunk
    /// indices set by hand at a boundary `now`.
    fn periods_at(
        now: u64,
        starts: [u64; 3],
        chunks: [u64; 3],
        n_chunks: u64,
        max_cycles: u64,
    ) -> u64 {
        use streamgrid_dataflow::Shape;
        use streamgrid_optimizer::edge_infos;

        let mut g = DataflowGraph::new();
        let src = g.source("src", Shape::new(1, 1), 1);
        let map = g.map("map", Shape::new(1, 1), Shape::new(1, 1), 2);
        let sink = g.sink("sink", Shape::new(1, 1), 1);
        g.connect(src, map);
        g.connect(map, sink);
        let layout = EngineLayout::new(&g, &edge_infos(&g, 40));
        let schedule = Schedule {
            start_cycles: starts.to_vec(),
            buffer_sizes: vec![40; 2],
            makespan: 0,
            total_buffer_elements: 80,
            constraint_count: 0,
            lp_iterations: 0,
            solver_nodes: 0,
        };
        let plan = MultiChunkPlan {
            initiation_interval: 100,
            bubbles: vec![0; 3],
            busy: vec![40; 3],
        };
        let config = EngineConfig {
            n_chunks,
            ..EngineConfig::default()
        };
        let mut state = EngineState::new(&layout, &schedule, &plan, &config);
        state.now = now;
        for (s, chunk) in state.stages.iter_mut().zip(chunks) {
            s.chunk = chunk;
        }
        state.skippable_periods(max_cycles)
    }

    #[test]
    fn the_final_period_skips_only_when_its_finishers_idle_and_one_stage_remains() {
        const NO_LIMIT: u64 = u64::MAX;
        // Source and map finish in the extra period, both idle at the
        // boundary (their chunks issue at 200 and 210); the sink has a
        // chunk left after it.
        assert_eq!(periods_at(200, [0, 10, 20], [2, 2, 1], 4, NO_LIMIT), 2);
        // The budget still caps the skip: 399 leaves room for one period.
        assert_eq!(periods_at(200, [0, 10, 20], [2, 2, 1], 4, 399), 1);
        assert_eq!(periods_at(200, [0, 10, 20], [2, 2, 1], 4, 400), 2);
        // The map finishes in the extra period but started its chunk at
        // 100, before the boundary: in the reference period it worked
        // on the chunk after, which a finished stage never does.
        assert_eq!(periods_at(200, [150, 0, 20], [1, 1, 0], 3, NO_LIMIT), 1);
        // The same chunks with the map's chunk issuing at the boundary.
        assert_eq!(periods_at(200, [150, 100, 20], [1, 1, 0], 3, NO_LIMIT), 2);
        // Every stage finishes in the extra period: the run ends inside
        // it, so only the periods before it skip.
        assert_eq!(periods_at(200, [0, 10, 20], [2, 2, 2], 4, NO_LIMIT), 1);
        assert_eq!(periods_at(300, [0, 10, 20], [3, 3, 3], 4, NO_LIMIT), 0);
        // A stage that already finished ends every skip.
        assert_eq!(periods_at(400, [0, 10, 20], [4, 3, 2], 4, NO_LIMIT), 0);
    }
}
