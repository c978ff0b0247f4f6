//! The metric registry — every name the benchmark reports, with its
//! unit — and the result line the benchmark prints last.
//!
//! `BENCHMARK.json` at the repository root lists the same names; the
//! `--short` self-check fails when the two disagree.

use std::collections::BTreeMap;

/// A reported metric: its name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, reported by untraced runs of every workload.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s"),
    def("frames_per_s", "1/s"),
    def("latency_p50_ms", "ms"),
    def("latency_tail_ms", "ms"),
    def("peak_rss_mib", "MiB"),
    def("ok_rate", "ratio"),
    def("onchip_kib", "KiB"),
    def("energy_uj_per_frame", "uJ"),
    def("sim_cycles_per_frame", "cycles"),
];

/// Per-layer metrics, reported by traced runs of every workload (0 where
/// a layer is not on the workload's path). Counts are per round of the
/// workload.
pub const PER_LAYER: &[MetricDef] = &[
    def("pointcloud.pull_us_p50", "us"),
    def("pointcloud.pull_share", "ratio"),
    def("bucket.scheduled_over_source", "ratio"),
    def("bucket.distinct_keys", "count"),
    def("cache.lookups", "count"),
    def("cache.hits", "count"),
    def("cache.misses", "count"),
    def("cache.hit_ratio", "ratio"),
    def("cache.hit_us_p50", "us"),
    def("optimizer.solves", "count"),
    def("optimizer.solve_ms_p50", "ms"),
    def("optimizer.solve_ms_max", "ms"),
    def("optimizer.solve_share", "ratio"),
    def("ilp.bb_nodes", "count"),
    def("ilp.constraints", "count"),
    def("verify.certify_ms_p50", "ms"),
    def("sim.exec_us_p50", "us"),
    def("sim.exec_us_p99", "us"),
    def("sim.ns_per_cycle.event", "ns"),
    def("sim.ns_per_cycle.cycle", "ns"),
    def("sim.ns_per_cycle.sharded", "ns"),
    def("sim.exec_share", "ratio"),
    def("sim.engine.event.frames", "count"),
    def("sim.engine.cycle.frames", "count"),
    def("sim.engine.sharded.frames", "count"),
    def("sim.sharded.threads", "count"),
    def("sim.backoff.spins", "count"),
    def("sim.backoff.yields", "count"),
    def("sim.backoff.parks", "count"),
    def("sim.backoff.wakes", "count"),
    def("sim.stall_cycles", "count"),
    def("sim.starved_cycles", "count"),
    def("sim.dram_kib_per_frame", "KiB"),
    def("session.fold_us", "us"),
    def("server.queue_ms.interactive", "ms"),
    def("server.queue_ms.standard", "ms"),
    def("server.queue_ms.background", "ms"),
    def("server.exec_ms", "ms"),
    def("server.pull_ms", "ms"),
    def("server.solves", "count"),
    def("server.distinct_keys", "count"),
    def("server.admitted", "count"),
    def("server.rejected", "count"),
    def("server.queued_admissions", "count"),
    def("server.shed", "count"),
    def("server.degraded", "count"),
    def("server.standard_p50_ms", "ms"),
    def("server.background_p50_ms", "ms"),
    def("server.background_p99_ms", "ms"),
    def("trace.overhead_frac", "ratio"),
];

/// Looks a metric up in either list.
pub fn find(name: &str) -> Option<MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|d| d.name == name)
        .copied()
}

/// Measured values by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the registry — a typo in the
    /// benchmark, not a measurement.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(find(name).is_some(), "unregistered metric {name}");
        self.values.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `defs` in order with their values; a per-layer metric the
    /// workload does not touch reads 0.
    pub fn resolve(&self, defs: &[MetricDef]) -> Vec<(MetricDef, Option<f64>)> {
        defs.iter().map(|d| (*d, self.get(d.name))).collect()
    }
}

/// The benchmark's last output line: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricDef, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(d, v)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                d.name,
                json_number(*v),
                d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite `f64` in JSON's number syntax, with every digit Rust's
/// shortest round-trip formatting gives.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metrics are finite");
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}
