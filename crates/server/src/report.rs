//! SLO reporting: per-tenant and per-class wall-clock latency
//! percentiles, queue-wait vs execute split, and shed/degrade counters,
//! aggregated the way [`StreamReport`] aggregates per-frame cycles.
//!
//! Wall-clock percentiles use the same nearest-rank definition as
//! [`StreamReport::p99_frame_cycles`] — that calls
//! [`streamgrid_core::nearest_rank`], and the serving layer sorts its
//! samples once and reads each percentile with
//! [`streamgrid_core::nearest_rank_sorted`], the rank rule
//! `nearest_rank` applies, so the two cannot drift apart.
//!
//! [`StreamReport`]: streamgrid_core::source::StreamReport
//! [`StreamReport::p99_frame_cycles`]: streamgrid_core::source::StreamReport::p99_frame_cycles

use streamgrid_core::framework::LintSummary;
use streamgrid_core::nearest_rank_sorted;
use streamgrid_core::pipeline::CompileError;
use streamgrid_core::source::StreamReport;

use crate::qos::QosClass;
use crate::tenant::TenantId;

/// One executed frame's wall-clock timing, split into the time it sat
/// in its class queue and the wall time the worker took to produce its
/// report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLatency {
    /// Nanoseconds between enqueue and worker pickup.
    pub queue_ns: u64,
    /// Wall-clock nanoseconds the worker took to produce the frame's
    /// report: an engine run, or, for a deterministic design that an
    /// earlier frame of the run already executed under equal options, a
    /// copy of that run's report. This is not CPU time: it includes any
    /// time the worker was preempted by other threads (the scheduler
    /// compiling, other workers, other processes) meanwhile.
    pub exec_ns: u64,
}

impl FrameLatency {
    /// Total wall-clock nanoseconds (queue wait + execute).
    pub fn total_ns(self) -> u64 {
        self.queue_ns + self.exec_ns
    }
}

/// Wall-clock latency aggregates over a set of executed frames —
/// nearest-rank percentiles of total (queue + execute) latency, plus
/// the mean queue/execute split.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Executed frames the stats cover.
    pub frames: u64,
    /// Median total frame latency, milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile total frame latency, milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile total frame latency, milliseconds.
    pub p99_ms: f64,
    /// Worst total frame latency, milliseconds.
    pub max_ms: f64,
    /// Mean queue wait, milliseconds.
    pub mean_queue_ms: f64,
    /// Mean wall time to produce a frame's report, an engine run or a
    /// copy of one, milliseconds (see [`FrameLatency::exec_ns`]).
    pub mean_exec_ms: f64,
}

const NS_PER_MS: f64 = 1e6;

impl LatencyStats {
    /// Aggregates `samples` (empty samples produce all-zero stats).
    /// Sorts the totals once, for every percentile.
    pub fn from_samples(samples: &[FrameLatency]) -> Self {
        let mut totals: Vec<u64> = samples.iter().map(|s| s.total_ns()).collect();
        totals.sort_unstable();
        let n = samples.len() as u64;
        let mean = |sum: u64| {
            if n == 0 {
                0.0
            } else {
                sum as f64 / n as f64 / NS_PER_MS
            }
        };
        LatencyStats {
            frames: n,
            p50_ms: nearest_rank_sorted(&totals, 0.50) as f64 / NS_PER_MS,
            p95_ms: nearest_rank_sorted(&totals, 0.95) as f64 / NS_PER_MS,
            p99_ms: nearest_rank_sorted(&totals, 0.99) as f64 / NS_PER_MS,
            max_ms: totals.last().copied().unwrap_or(0) as f64 / NS_PER_MS,
            mean_queue_ms: mean(samples.iter().map(|s| s.queue_ns).sum()),
            mean_exec_ms: mean(samples.iter().map(|s| s.exec_ns).sum()),
        }
    }
}

/// One tenant's result: its executed frames as a [`StreamReport`]
/// (bit-identical to a direct [`Session::stream`] run when nothing was
/// shed or degraded), wall-clock SLO stats, and shed/degrade counters.
///
/// [`Session::stream`]: streamgrid_core::session::Session::stream
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// The tenant's server-assigned id.
    pub id: TenantId,
    /// The tenant's display name.
    pub name: String,
    /// The tenant's service tier.
    pub qos: QosClass,
    /// Executed frames in arrival order, with the solves this tenant's
    /// compiles actually paid — the same shape [`Session::stream`]
    /// returns.
    ///
    /// [`Session::stream`]: streamgrid_core::session::Session::stream
    pub stream: StreamReport,
    /// Wall-clock SLO stats over the executed frames.
    pub latency: LatencyStats,
    /// Frames dropped at dispatch because they aged past
    /// [`crate::ServerConfig::shed_after`] (Background only).
    pub shed_frames: u64,
    /// Frames compiled under the coarser
    /// [`crate::ServerConfig::degraded_bucketing`] (Background only).
    pub degraded_frames: u64,
    /// The compile error that terminated the tenant early, if any — the
    /// server keeps serving other tenants when one fails.
    pub error: Option<CompileError>,
    /// Configuration lints against the tenant's spec (currently
    /// `SG006`: Background-only shed/degrade policy set on a
    /// non-Background class). Warnings, not failures —
    /// [`TenantReport::is_clean`] ignores them.
    pub lints: LintSummary,
}

impl TenantReport {
    /// Whether every executed frame terminated cleanly and no compile
    /// error cut the stream short.
    pub fn is_clean(&self) -> bool {
        self.error.is_none() && self.stream.all_clean()
    }
}

/// Per-class aggregates over every tenant admitted under the class.
#[derive(Debug, Clone)]
pub struct ClassReport {
    /// The class.
    pub qos: QosClass,
    /// Tenants admitted under this class.
    pub tenants: u64,
    /// Wall-clock SLO stats over the class's executed frames.
    pub latency: LatencyStats,
    /// Simulated cycles across the class's executed frames.
    pub total_cycles: u64,
    /// Frames shed across the class.
    pub shed_frames: u64,
    /// Frames degraded across the class.
    pub degraded_frames: u64,
}

/// The result of a [`crate::StreamServer::run`]: per-tenant reports,
/// per-class aggregates, and server-level admission counters — shaped
/// like [`StreamReport`] one level up.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// One report per admitted tenant, in admission order.
    pub tenants: Vec<TenantReport>,
    /// One aggregate per class, in [`QosClass::ALL`] order (always all
    /// three, zeroed when the class had no tenants).
    pub classes: Vec<ClassReport>,
    /// Tenants admitted (immediately or from the waitlist).
    pub admitted: u64,
    /// Submissions rejected with an [`crate::AdmissionError`].
    pub rejected: u64,
    /// Tenants that waited on the waitlist before admission.
    pub queued_admissions: u64,
    /// ILP solves the run paid: the sum of the tenants'
    /// [`StreamReport::solver_invocations`], each the sum of its frames'
    /// compile deltas. Exact whenever only the server compiles through
    /// its cache during the run, so on a cold cache
    /// `solver_invocations == distinct compile keys` is the sharing
    /// contract bench drivers assert.
    pub solver_invocations: u64,
    /// Worker threads the run executed on.
    pub workers: usize,
    /// Aggregate of every tenant's configuration lints, so one glance
    /// at the server report shows whether any spec carried inert or
    /// suspicious settings.
    pub lints: LintSummary,
}

impl ServerReport {
    /// Frames executed across all tenants.
    pub fn frame_count(&self) -> u64 {
        self.tenants.iter().map(|t| t.stream.frame_count()).sum()
    }

    /// Simulated cycles across all executed frames.
    pub fn total_cycles(&self) -> u64 {
        self.tenants.iter().map(|t| t.stream.total_cycles()).sum()
    }

    /// Frames shed across all tenants.
    pub fn shed_frames(&self) -> u64 {
        self.tenants.iter().map(|t| t.shed_frames).sum()
    }

    /// Frames degraded across all tenants.
    pub fn degraded_frames(&self) -> u64 {
        self.tenants.iter().map(|t| t.degraded_frames).sum()
    }

    /// Whether every tenant finished cleanly.
    pub fn all_clean(&self) -> bool {
        self.tenants.iter().all(TenantReport::is_clean)
    }

    /// The aggregate for `qos`.
    pub fn class(&self, qos: QosClass) -> &ClassReport {
        &self.classes[qos.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_pin_nearest_rank_and_split() {
        // 100 frames: totals 1..=100 ms, each split 40% queue / 60% exec.
        let samples: Vec<FrameLatency> = (1..=100u64)
            .map(|ms| FrameLatency {
                queue_ns: ms * 400_000,
                exec_ns: ms * 600_000,
            })
            .collect();
        let stats = LatencyStats::from_samples(&samples);
        assert_eq!(stats.frames, 100);
        assert_eq!(stats.p50_ms, 50.0);
        assert_eq!(stats.p95_ms, 95.0);
        assert_eq!(stats.p99_ms, 99.0);
        assert_eq!(stats.max_ms, 100.0);
        // Mean total is 50.5 ms, split 40/60.
        assert!((stats.mean_queue_ms - 20.2).abs() < 1e-9);
        assert!((stats.mean_exec_ms - 30.3).abs() < 1e-9);
    }

    #[test]
    fn empty_samples_are_all_zero() {
        let stats = LatencyStats::from_samples(&[]);
        assert_eq!(stats.frames, 0);
        assert_eq!(stats.p50_ms, 0.0);
        assert_eq!(stats.p99_ms, 0.0);
        assert_eq!(stats.max_ms, 0.0);
        assert_eq!(stats.mean_queue_ms, 0.0);
    }
}
