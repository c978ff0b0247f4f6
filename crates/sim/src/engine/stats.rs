//! Run statistics: the [`RunReport`] both engines assemble.
//!
//! Stall/starve accounting counts **distinct cycles**: a cycle in which
//! at least one stage was affected adds exactly one, however many stages
//! were blocked in it. (Earlier revisions counted stage×cycle events
//! under the same field names, which overstated multi-stage pipelines.)

use serde::{Deserialize, Serialize};

use crate::energy::EnergyBreakdown;

/// Four counters that always read zero. A placeholder that keeps the
/// benchmark harness (`perfbench`, which sums them into its
/// `sim.backoff.*` metrics) building; it goes once the benchmark drops
/// its sharded metrics. Excluded from [`RunReport`]'s equality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BackoffStats {
    /// Always zero.
    pub spins: u64,
    /// Always zero.
    pub yields: u64,
    /// Always zero.
    pub parks: u64,
    /// Always zero.
    pub wakes: u64,
}

/// Result of one engine run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Cycles until the last element left the pipeline (or the run
    /// stopped — see [`RunReport::overflow_edge`] and
    /// [`RunReport::truncated`]).
    pub cycles: u64,
    /// Peak occupancy per edge buffer.
    pub buffer_peaks: Vec<u64>,
    /// Provisioned capacity per edge buffer.
    pub buffer_capacities: Vec<u64>,
    /// First edge that overflowed under strict buffering (`None` =
    /// clean run).
    pub overflow_edge: Option<usize>,
    /// `true` when the `max_cycles` budget ran out with chunks still in
    /// flight (and no overflow to blame): the report describes a
    /// *partial* run, not a clean finish.
    pub truncated: bool,
    /// Distinct cycles in which at least one stage's write was fully
    /// blocked by a full buffer — on-chip memory stalls in the paper's
    /// sense. Zero for a valid CS+DT schedule.
    pub stall_cycles: u64,
    /// Distinct cycles in which at least one stage wanted input but got
    /// none. Nonzero even in valid schedules when a consumer's peak rate
    /// exceeds a producer's (rate quantization); large under variable
    /// latency.
    pub starved_cycles: u64,
    /// DRAM bytes read (source streams).
    pub dram_read_bytes: u64,
    /// DRAM bytes written (sink streams).
    pub dram_write_bytes: u64,
    /// Energy tally.
    pub energy: EnergyBreakdown,
    /// Cycles the engine advanced one at a time through its per-cycle
    /// stepper; the rest it skipped in closed form. Equals
    /// [`RunReport::cycles`] on the oracle; the event engine's count
    /// measures how much of the run it could skip.
    /// Describes **how** the engine ran, not what it simulated, and is
    /// therefore **excluded from equality**.
    pub stepped_cycles: u64,
    /// Always zero: the placeholder [`BackoffStats`] that the benchmark
    /// harness reads. **Excluded from equality.**
    pub backoff: BackoffStats,
}

/// Manual equality that deliberately skips [`RunReport::stepped_cycles`]
/// and [`RunReport::backoff`]: the step count differs by engine and the
/// placeholder counters simulate nothing, while every engine test
/// asserts `oracle == event` on the simulated results.
impl PartialEq for RunReport {
    fn eq(&self, other: &Self) -> bool {
        self.cycles == other.cycles
            && self.buffer_peaks == other.buffer_peaks
            && self.buffer_capacities == other.buffer_capacities
            && self.overflow_edge == other.overflow_edge
            && self.truncated == other.truncated
            && self.stall_cycles == other.stall_cycles
            && self.starved_cycles == other.starved_cycles
            && self.dram_read_bytes == other.dram_read_bytes
            && self.dram_write_bytes == other.dram_write_bytes
            && self.energy == other.energy
    }
}

impl RunReport {
    /// Total on-chip buffer bytes provisioned.
    pub fn onchip_bytes(&self, bytes_per_element: u64) -> u64 {
        self.buffer_capacities.iter().sum::<u64>() * bytes_per_element
    }

    /// `true` when the run streamed every chunk to completion — no
    /// overflow abort and no cycle-budget truncation.
    pub fn is_complete(&self) -> bool {
        self.overflow_edge.is_none() && !self.truncated
    }
}
