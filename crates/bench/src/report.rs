//! Machine-readable bench reports, and the rules they must satisfy.
//!
//! A [`BenchReport`] collects one record per run and serializes them as
//! one JSON document, `{"harness", "seed", "records": [...]}`:
//! `bench_engine` writes a [`RunRecord`] per engine execution to
//! `BENCH_engine.json`, `bench_streaming` a [`StreamRecord`] per
//! `Session::stream` sweep to `BENCH_streaming.json`, and `bench_server` a
//! [`ServerRecord`] per QoS class per tenant sweep to `BENCH_server.json`.
//! A record's struct fields are its JSON keys, in document order, and one
//! macro derives both the writer and the reader from them. [`validate`]
//! reads a document back, requires exact key sets and value types, and
//! checks the rules across its rows; the harnesses run it before writing,
//! and a tier-1 test runs it on the committed files. The JSON is
//! hand-rolled, since the offline vendored serde has no format crate.
//!
//! Override the output paths with the `BENCH_ENGINE_JSON` /
//! `BENCH_STREAMING_JSON` / `BENCH_SERVER_JSON` environment variables
//! (the CI smoke job points them into a scratch directory).

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;
use std::{fs, io};

use streamgrid_core::framework::ExecutionReport;
use streamgrid_core::source::StreamReport;
use streamgrid_optimizer::json::{self, JsonValue};

/// A bench record: one JSON object in a [`BenchReport`] document.
pub trait Record: Sized {
    /// The `harness` field of the documents this record appears in.
    const HARNESS: &'static str;
    /// Default output file, relative to the working directory.
    const PATH: &'static str;
    /// Environment variable that overrides [`Record::PATH`].
    const PATH_ENV: &'static str;

    /// The record as one JSON object, keys in field order.
    fn to_json(&self) -> String;

    /// Reads a record back, requiring exactly its keys, each holding its
    /// field's value type.
    ///
    /// # Errors
    ///
    /// Names the first missing, unknown, duplicate or mistyped key.
    fn from_json(value: &JsonValue) -> Result<Self, String>;
}

/// Declares a record struct, whose fields are its JSON keys in document
/// order, and its [`Record`] impl: the trailing `impl { .. }` supplies the
/// harness constants, and the writer and reader walk the fields.
macro_rules! record {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$field_meta:meta])* pub $field:ident: $ty:ty,)*
        }
        impl { $($consts:tt)* }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            $($(#[$field_meta])* pub $field: $ty,)*
        }

        impl Record for $name {
            $($consts)*

            fn to_json(&self) -> String {
                let fields = [$(
                    format!("\"{}\": {}", stringify!($field), Value::to_json(&self.$field))
                ),*];
                format!("{{{}}}", fields.join(", "))
            }

            fn from_json(value: &JsonValue) -> Result<Self, String> {
                check_keys(value, &[$(stringify!($field)),*])?;
                Ok($name {
                    $($field: field(value, stringify!($field))?,)*
                })
            }
        }
    };
}

record! {
    /// One engine execution's measurements.
    pub struct RunRecord {
        /// Pipeline name (registry key).
        pub pipeline: String,
        /// Chunks streamed.
        pub n_chunks: u64,
        /// Source elements for the whole cloud.
        pub total_elements: u64,
        /// Engine that ran (`"CycleAccurate"` / `"EventDriven"` /
        /// `"Sharded(n)"`) — the *effective* engine after `Auto` resolution
        /// and shard clamping.
        pub exec_mode: String,
        /// Engine selection the caller asked for (`"Auto"`,
        /// `"Sharded(8)"`, …) before resolution — differs from
        /// [`RunRecord::exec_mode`] exactly when the runtime resolved or
        /// clamped the request.
        pub exec_requested: String,
        /// Simulated cycles.
        pub cycles: u64,
        /// Distinct stalled cycles.
        pub stall_cycles: u64,
        /// Distinct starved cycles.
        pub starved_cycles: u64,
        /// `true` when the run hit its cycle budget before finishing.
        pub truncated: bool,
        /// Provisioned on-chip buffer bytes.
        pub onchip_bytes: u64,
        /// Total DRAM traffic in bytes.
        pub dram_bytes: u64,
        /// Total energy in microjoules.
        pub energy_uj: f64,
        /// Host wall time of the engine run in milliseconds.
        pub wall_time_ms: f64,
        /// Hardware threads the host offered (`available_parallelism`);
        /// wall times — especially for sharded or multi-worker runs — are
        /// uninterpretable without it (a 1-core runner shows ~1× speedups
        /// however many threads a sweep asks for).
        pub host_threads: u64,
        /// Wall time of the full-lattice schedule certification
        /// (`CompiledPipeline::certify`) in milliseconds — the static
        /// verifier's cost next to the run it certifies (0 when the harness
        /// did not certify).
        pub certify_ms: f64,
        /// Sharded-engine tier-1 backoff: `spin_loop` iterations across all
        /// shard waits (0 for sequential engines).
        pub spins: u64,
        /// Tier-2 backoff: `yield_now` calls across all shard waits.
        pub yields: u64,
        /// Tier-3 backoff: condvar parks (a shard thread actually slept).
        pub parks: u64,
        /// Wakes publishers issued to parked peers.
        pub wakes: u64,
    }
    impl {
        const HARNESS: &'static str = "bench_engine";
        const PATH: &'static str = "BENCH_engine.json";
        const PATH_ENV: &'static str = "BENCH_ENGINE_JSON";
    }
}

impl RunRecord {
    /// Builds a record from an [`ExecutionReport`], the workload
    /// identity the report cannot recover on its own, and the measured
    /// wall time.
    pub fn from_report(
        pipeline: &str,
        n_chunks: u64,
        total_elements: u64,
        report: &ExecutionReport,
        wall: Duration,
    ) -> Self {
        RunRecord {
            pipeline: pipeline.to_owned(),
            n_chunks,
            total_elements,
            exec_mode: format!("{:?}", report.exec_mode),
            exec_requested: format!("{:?}", report.exec_requested),
            cycles: report.run.cycles,
            stall_cycles: report.run.stall_cycles,
            starved_cycles: report.run.starved_cycles,
            truncated: report.run.truncated,
            onchip_bytes: report.onchip_bytes(),
            dram_bytes: report.dram_bytes(),
            energy_uj: report.total_uj(),
            wall_time_ms: wall.as_secs_f64() * 1e3,
            host_threads: host_threads(),
            certify_ms: 0.0,
            spins: report.run.backoff.spins,
            yields: report.run.backoff.yields,
            parks: report.run.backoff.parks,
            wakes: report.run.backoff.wakes,
        }
    }

    /// Returns the record with the certification wall time attached.
    pub fn with_certify_ms(mut self, certify_ms: f64) -> Self {
        self.certify_ms = certify_ms;
        self
    }
}

/// Hardware threads available to this process, as recorded in every
/// bench record (1 when the host cannot say).
pub fn host_threads() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

record! {
    /// One `Session::stream` sweep's measurements.
    pub struct StreamRecord {
        /// Pipeline name (registry key).
        pub pipeline: String,
        /// Frame source driving the sweep (e.g. `"lidar"`, `"modelnet"`).
        pub source: String,
        /// Bucketing policy (`"Exact"` / `"Pow2"` / `"Quantize(512)"`).
        pub policy: String,
        /// Frames streamed.
        pub frames: u64,
        /// ILP solves the stream paid.
        pub solver_invocations: u64,
        /// Source elements the frames actually carried.
        pub source_elements: u64,
        /// Elements the schedules provisioned for (bucketing overhead =
        /// `scheduled - source`).
        pub scheduled_elements: u64,
        /// Total simulated cycles across all frames.
        pub total_cycles: u64,
        /// Median per-frame cycles.
        pub p50_frame_cycles: u64,
        /// 95th-percentile per-frame cycles.
        pub p95_frame_cycles: u64,
        /// Worst per-frame cycles.
        pub max_frame_cycles: u64,
        /// Total energy in microjoules.
        pub energy_uj: f64,
        /// `true` when every frame ran overflow-, stall- and
        /// truncation-free.
        pub all_clean: bool,
        /// Host wall time of the whole sweep in milliseconds.
        pub wall_time_ms: f64,
        /// Worker threads the frame executions fanned across (1 =
        /// sequential).
        pub workers: u64,
        /// Schedule-cache tier behind the sweep's session (`"private"` for a
        /// session-local in-memory cache, `"file-cold"` / `"file-warm"` for
        /// a `FileCache` sweep before and after its directory is populated).
        pub cache: String,
        /// Engine selection the sweep streamed under (`"Auto"` unless
        /// overridden — e.g. `"Sharded(4)"` for intra-frame sharding). This
        /// is the *requested* selection.
        pub exec: String,
        /// Engine the frames actually executed on after `Auto` resolution
        /// and shard clamping (`"Mixed"` when frames disagree, `"-"` for an
        /// empty stream) — differs from [`StreamRecord::exec`] exactly when
        /// the runtime resolved or clamped the request.
        pub exec_effective: String,
        /// Hardware threads the host offered (`available_parallelism`) —
        /// without it, identical wall times across a worker or shard sweep
        /// cannot be told apart from a genuinely absent speedup.
        pub host_threads: u64,
        /// Wall time spent certifying the sweep's compiled schedules
        /// (`CompiledPipeline::certify`) in milliseconds (0 when the
        /// harness did not certify).
        pub certify_ms: f64,
        /// Sharded-engine tier-1 backoff summed across all frames:
        /// `spin_loop` iterations (0 for sequential engines).
        pub spins: u64,
        /// Tier-2 backoff summed across all frames: `yield_now` calls.
        pub yields: u64,
        /// Tier-3 backoff summed across all frames: condvar parks.
        pub parks: u64,
        /// Wakes publishers issued to parked peers, summed across frames.
        pub wakes: u64,
    }
    impl {
        const HARNESS: &'static str = "bench_streaming";
        const PATH: &'static str = "BENCH_streaming.json";
        const PATH_ENV: &'static str = "BENCH_STREAMING_JSON";
    }
}

impl StreamRecord {
    /// Builds a record from a [`StreamReport`], the workload identity
    /// the report cannot recover on its own, and the measured wall
    /// time. Defaults to `workers = 1` and a `"private"` cache; override
    /// with [`StreamRecord::with_workers`] / [`StreamRecord::with_cache`]
    /// (the report itself is deliberately identical across worker counts
    /// and cache tiers, so it cannot carry them).
    pub fn from_stream_report(
        pipeline: &str,
        source: &str,
        report: &StreamReport,
        wall: Duration,
    ) -> Self {
        let exec_effective = match report.frames.first() {
            None => "-".to_owned(),
            Some(first) => {
                let label = format!("{:?}", first.report.exec_mode);
                if report
                    .frames
                    .iter()
                    .all(|f| format!("{:?}", f.report.exec_mode) == label)
                {
                    label
                } else {
                    "Mixed".to_owned()
                }
            }
        };
        let backoff = report.total_backoff();
        StreamRecord {
            pipeline: pipeline.to_owned(),
            source: source.to_owned(),
            policy: format!("{:?}", report.bucketing),
            frames: report.frame_count(),
            solver_invocations: report.solver_invocations,
            source_elements: report.source_elements(),
            scheduled_elements: report.scheduled_elements(),
            total_cycles: report.total_cycles(),
            p50_frame_cycles: report.p50_frame_cycles(),
            p95_frame_cycles: report.p95_frame_cycles(),
            max_frame_cycles: report.max_frame_cycles(),
            energy_uj: report.total_uj(),
            all_clean: report.all_clean(),
            wall_time_ms: wall.as_secs_f64() * 1e3,
            workers: 1,
            cache: "private".to_owned(),
            exec: "Auto".to_owned(),
            exec_effective,
            host_threads: host_threads(),
            certify_ms: 0.0,
            spins: backoff.spins,
            yields: backoff.yields,
            parks: backoff.parks,
            wakes: backoff.wakes,
        }
    }

    /// Returns the record with the certification wall time attached.
    pub fn with_certify_ms(mut self, certify_ms: f64) -> Self {
        self.certify_ms = certify_ms;
        self
    }

    /// Returns the record with the executing worker count replaced.
    pub fn with_workers(mut self, workers: u64) -> Self {
        self.workers = workers;
        self
    }

    /// Returns the record with the cache-tier label replaced.
    pub fn with_cache(mut self, cache: &str) -> Self {
        self.cache = cache.to_owned();
        self
    }

    /// Returns the record with the engine-selection label replaced.
    pub fn with_exec(mut self, exec: &str) -> Self {
        self.exec = exec.to_owned();
        self
    }
}

record! {
    /// One QoS class's share of a multi-tenant server sweep (plus one
    /// `"direct"` baseline record per single-tenant sweep: the same design
    /// point run through `Session::stream` without the server, which must
    /// be cycle-identical).
    pub struct ServerRecord {
        /// QoS class the record covers (`"interactive"` / `"standard"` /
        /// `"background"`), or `"direct"` for the serverless
        /// `Session::stream` baseline.
        pub qos: String,
        /// Total tenants the sweep submitted (the sweep's x-axis).
        pub sweep_tenants: u64,
        /// Tenants admitted under this class.
        pub tenants: u64,
        /// Tenants the whole sweep admitted.
        pub admitted: u64,
        /// Submissions the whole sweep rejected.
        pub rejected: u64,
        /// Frames this class executed.
        pub frames: u64,
        /// Frames this class shed.
        pub shed: u64,
        /// Frames this class degraded to a coarser bucketing.
        pub degraded: u64,
        /// Simulated cycles across this class's executed frames.
        pub total_cycles: u64,
        /// Median wall-clock frame latency (queue + execute), ms.
        pub p50_ms: f64,
        /// 95th-percentile wall-clock frame latency, ms.
        pub p95_ms: f64,
        /// 99th-percentile wall-clock frame latency, ms.
        pub p99_ms: f64,
        /// Worst wall-clock frame latency, ms.
        pub max_ms: f64,
        /// Mean queue wait, ms.
        pub queue_ms: f64,
        /// Mean execute time, ms.
        pub exec_ms: f64,
        /// ILP solves the whole sweep's shared cache performed.
        pub solver_invocations: u64,
        /// Distinct compile keys the sweep's tenant mix spans — with a
        /// shared cache, `solver_invocations == distinct_keys` is the
        /// sharing contract.
        pub distinct_keys: u64,
        /// Worker threads the server executed on.
        pub workers: u64,
        /// Hardware threads the host offered.
        pub host_threads: u64,
        /// Host wall time of the whole sweep in milliseconds.
        pub wall_time_ms: f64,
        /// `true` when every tenant in the sweep finished cleanly.
        pub all_clean: bool,
    }
    impl {
        const HARNESS: &'static str = "bench_server";
        const PATH: &'static str = "BENCH_server.json";
        const PATH_ENV: &'static str = "BENCH_SERVER_JSON";
    }
}

/// A harness's collected records, serializable as one JSON document.
#[derive(Debug, Clone)]
pub struct BenchReport<R> {
    seed: u64,
    records: Vec<R>,
}

impl<R: Record> BenchReport<R> {
    /// An empty report for `R`'s harness.
    pub fn new(seed: u64) -> Self {
        BenchReport {
            seed,
            records: Vec::new(),
        }
    }

    /// Appends one record.
    pub fn push(&mut self, record: R) {
        self.records.push(record);
    }

    /// Number of collected records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The report as a JSON document, one record per line.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"harness\": {},", json_str(R::HARNESS));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        out.push_str("  \"records\": [\n");
        for (i, record) in self.records.iter().enumerate() {
            let comma = if i + 1 < self.records.len() { "," } else { "" };
            let _ = writeln!(out, "    {}{comma}", record.to_json());
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON document to [`Record::PATH`] (or the path in
    /// [`Record::PATH_ENV`]) and returns the path.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_default(&self) -> io::Result<PathBuf> {
        let path = PathBuf::from(std::env::var(R::PATH_ENV).unwrap_or_else(|_| R::PATH.to_owned()));
        fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Reads a parsed document written for `R`'s harness.
    fn from_value(doc: &JsonValue) -> Result<Self, String> {
        let seed = doc
            .get("seed")
            .and_then(JsonValue::as_u64)
            .ok_or("the seed is not an unsigned integer")?;
        let rows = doc
            .get("records")
            .and_then(JsonValue::as_array)
            .ok_or("the records are not an array")?;
        if rows.is_empty() {
            return Err("the document has no records".to_owned());
        }
        let records = rows
            .iter()
            .enumerate()
            .map(|(i, row)| R::from_json(row).map_err(|e| format!("record {i}: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(BenchReport { seed, records })
    }
}

/// Checks a bench document: its harness is one of the three above, every
/// record has exactly its type's keys with their value types, and the rows
/// satisfy that harness's rules. The rules describe a complete sweep; a
/// run filtered with `--only` writes a partial document that need not pass.
///
/// # Errors
///
/// Describes the first violation found.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    match doc.get("harness").and_then(JsonValue::as_str) {
        Some(RunRecord::HARNESS) => check_engine(&BenchReport::from_value(&doc)?.records),
        Some(StreamRecord::HARNESS) => check_streaming(&BenchReport::from_value(&doc)?.records),
        Some(ServerRecord::HARNESS) => check_server(&BenchReport::from_value(&doc)?.records),
        other => Err(format!("unknown harness {other:?}")),
    }
}

/// The first `(holds, rule)` pair that does not hold, as an error
/// prefixed with `context`.
pub(crate) fn first_broken(context: &str, rules: &[(bool, &str)]) -> Result<(), String> {
    match rules.iter().find(|(holds, _)| !holds) {
        Some((_, rule)) => Err(format!("{context}{rule}")),
        None => Ok(()),
    }
}

/// `true` for a sharded engine label such as `"Sharded(8)"`.
fn is_sharded(exec: &str) -> bool {
    exec.starts_with("Sharded")
}

/// Rules for `BENCH_engine.json`.
fn check_engine(records: &[RunRecord]) -> Result<(), String> {
    // The fields every engine must reproduce bit for bit.
    let simulated = |r: &RunRecord| {
        let counts = [r.cycles, r.stall_cycles, r.starved_cycles];
        let bytes = [r.onchip_bytes, r.dram_bytes];
        (counts, bytes, r.truncated, r.energy_uj)
    };
    for (i, r) in records.iter().enumerate() {
        let sharded = is_sharded(&r.exec_mode);
        let oracle = records.iter().find(|o| {
            (o.exec_mode.as_str(), &o.pipeline, o.n_chunks)
                == ("CycleAccurate", &r.pipeline, r.n_chunks)
        });
        let as_oracle = oracle.is_some_and(|o| simulated(o) == simulated(r));
        let idle = [r.spins, r.yields, r.parks, r.wakes] == [0; 4];
        let rules = [
            (!r.truncated, "the run was truncated"),
            (r.host_threads >= 1, "no host threads"),
            (sharded || idle, "a sequential engine counted backoff"),
            (!sharded || as_oracle, "differs from its oracle row"),
        ];
        first_broken(&format!("record {i}: "), &rules)?;
    }
    let any = |row: &dyn Fn(&RunRecord) -> bool| records.iter().any(row);
    let rules = [
        // The sharded sweep runs clamp-off, so a completed Sharded(8)
        // row is the gate that oversubscribed shards survive.
        (any(&|r| r.exec_mode == "Sharded(8)"), "no Sharded(8) row"),
        // The harness certifies every design point before timing it.
        (any(&|r| r.certify_ms > 0.0), "no certificate timing"),
    ];
    first_broken("", &rules)
}

/// Rules for `BENCH_streaming.json`.
fn check_streaming(records: &[StreamRecord]) -> Result<(), String> {
    // Workers and shards may move wall time, never these.
    let simulated = |r: &StreamRecord| {
        let counts = (r.frames, r.solver_invocations, r.total_cycles);
        let cycles = [r.p50_frame_cycles, r.p95_frame_cycles, r.max_frame_cycles];
        (counts, cycles, r.energy_uj)
    };
    // The first 1-worker row of `r`'s stream that `pick` accepts.
    let baseline = |r: &StreamRecord, pick: &dyn Fn(&StreamRecord) -> bool| {
        records.iter().find(|b| {
            b.workers == 1
                && pick(b)
                && (&b.pipeline, &b.source, &b.policy) == (&r.pipeline, &r.source, &r.policy)
        })
    };
    for (i, r) in records.iter().enumerate() {
        let private = baseline(r, &|b| b.cache == "private");
        let totals = |s: &StreamRecord| (s.total_cycles, s.energy_uj);
        let as_private = private.is_some_and(|b| totals(b) == totals(r));
        let oracle = baseline(r, &|b| b.exec == "CycleAccurate");
        let as_oracle = oracle.is_some_and(|b| simulated(b) == simulated(r));
        // A Sharded(8) request folds to at most the host's core count.
        let shards = r.exec_effective.strip_prefix("Sharded(");
        let shards = shards.and_then(|s| s.strip_suffix(')')?.parse().ok());
        let folded = shards.is_some_and(|s: u64| (1..=r.host_threads.min(8)).contains(&s));
        let tier = ["private", "file-cold", "file-warm"].contains(&r.cache.as_str());
        // The effective engine comes off the executed frames.
        let resolved = !["Auto", ""].contains(&r.exec_effective.as_str());
        let idle = [r.spins, r.yields, r.parks, r.wakes] == [0; 4];
        let (sharded, ran_sharded) = (is_sharded(&r.exec), is_sharded(&r.exec_effective));
        let (cold, warm) = (r.cache == "file-cold", r.cache == "file-warm");
        let covered = r.scheduled_elements >= r.source_elements;
        let solves = r.solver_invocations;
        let rules = [
            (r.all_clean, "a frame did not run clean"),
            (solves <= r.frames, "more solves than frames"),
            (covered, "fewer scheduled than source elements"),
            (r.workers >= 1, "no workers"),
            (r.host_threads >= 1, "no host threads"),
            (tier, "an unknown cache tier"),
            (resolved, "an unresolved effective engine"),
            (ran_sharded || idle, "a sequential engine counted backoff"),
            (!cold || solves > 0, "a file-cold row paid no solves"),
            (!warm || solves == 0, "a file-warm row paid solves"),
            (r.exec != "Sharded(8)" || folded, "Sharded(8) did not fold"),
            (r.workers < 2 || as_private, "differs from its 1-worker row"),
            (!sharded || as_oracle, "differs from its oracle row"),
        ];
        first_broken(&format!("record {i}: "), &rules)?;
    }
    let any = |row: &dyn Fn(&StreamRecord) -> bool| records.iter().any(row);
    let rules = [
        (any(&|r| r.workers > 1), "no parallel-workers row"),
        (any(&|r| r.exec == "Sharded(8)"), "no Sharded(8) row"),
        (any(&|r| r.cache == "file-cold"), "no file-cold row"),
        (any(&|r| r.cache == "file-warm"), "no file-warm row"),
    ];
    first_broken("", &rules)
}

/// The QoS classes every server sweep reports, one row each.
const QOS_CLASSES: [&str; 3] = ["interactive", "standard", "background"];

/// Rules for `BENCH_server.json`.
fn check_server(records: &[ServerRecord]) -> Result<(), String> {
    for (i, r) in records.iter().enumerate() {
        let class = QOS_CLASSES.contains(&r.qos.as_str()) || r.qos == "direct";
        // No shed deadline is configured, so nothing may shed or degrade.
        let served = (r.rejected, r.shed, r.degraded) == (0, 0, 0);
        // The sharing contract: solves track compile keys, not tenants.
        let shared = r.solver_invocations == r.distinct_keys;
        let ordered = r.p50_ms <= r.p95_ms && r.p95_ms <= r.p99_ms && r.p99_ms <= r.max_ms;
        let rules = [
            (class, "an unknown QoS class"),
            (r.all_clean, "a tenant did not finish cleanly"),
            (served, "rejected, shed or degraded work"),
            (shared, "solves differ from distinct keys"),
            (ordered, "latency percentiles out of order"),
        ];
        first_broken(&format!("record {i}: "), &rules)?;
    }
    let mut sweeps: Vec<u64> = records.iter().map(|r| r.sweep_tenants).collect();
    sweeps.sort_unstable();
    sweeps.dedup();
    for &n in &sweeps {
        let in_sweep = |r: &&ServerRecord| r.sweep_tenants == n && r.qos != "direct";
        let rows: Vec<&ServerRecord> = records.iter().filter(in_sweep).collect();
        let complete = QOS_CLASSES.iter().all(|&c| rows.iter().any(|r| r.qos == c));
        let tenants: u64 = rows.iter().map(|r| r.tenants).sum();
        let admitted = rows.iter().all(|r| r.admitted == n);
        let rules = [
            (complete, "a class row is missing"),
            (tenants == n, "class tenants do not sum to the sweep"),
            (admitted, "admissions differ from the sweep"),
        ];
        first_broken(&format!("sweep {n}: "), &rules)?;
    }
    // The equivalence anchor: the serverless Session::stream run is
    // cycle-identical to the single tenant the server ran.
    let anchor = |qos: &str| {
        let r = records
            .iter()
            .find(|r| r.sweep_tenants == 1 && r.qos == qos)?;
        Some((r.total_cycles, r.frames, r.solver_invocations))
    };
    let direct = anchor("direct");
    let rules = [
        (sweeps.contains(&1), "no single-tenant sweep"),
        (direct.is_some(), "no direct row"),
        (direct == anchor("interactive"), "the direct row differs"),
    ];
    first_broken("", &rules)
}

/// A record field's JSON value type.
trait Value: Sized {
    /// The type's name in a reader error.
    const KIND: &'static str;
    fn to_json(&self) -> String;
    fn from_json(value: &JsonValue) -> Option<Self>;
}

impl Value for u64 {
    const KIND: &'static str = "an unsigned integer";
    fn to_json(&self) -> String {
        self.to_string()
    }
    fn from_json(value: &JsonValue) -> Option<Self> {
        value.as_u64()
    }
}

impl Value for f64 {
    const KIND: &'static str = "a non-negative decimal";
    fn to_json(&self) -> String {
        json_f64(*self)
    }
    /// Accepts only a decimal token, as the writer always emits one.
    fn from_json(value: &JsonValue) -> Option<Self> {
        match value {
            JsonValue::Num(raw) if raw.contains(['.', 'e', 'E']) => raw
                .parse()
                .ok()
                .filter(|v: &f64| v.is_finite() && *v >= 0.0),
            _ => None,
        }
    }
}

impl Value for bool {
    const KIND: &'static str = "a boolean";
    fn to_json(&self) -> String {
        self.to_string()
    }
    fn from_json(value: &JsonValue) -> Option<Self> {
        value.as_bool()
    }
}

impl Value for String {
    const KIND: &'static str = "a string";
    fn to_json(&self) -> String {
        json_str(self)
    }
    fn from_json(value: &JsonValue) -> Option<Self> {
        value.as_str().map(str::to_owned)
    }
}

/// Requires `record` to be an object holding each of `keys` exactly once
/// and nothing else.
fn check_keys(record: &JsonValue, keys: &[&str]) -> Result<(), String> {
    let JsonValue::Obj(fields) = record else {
        return Err("not an object".to_owned());
    };
    if let Some((key, _)) = fields.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
        return Err(format!("unknown key {key:?}"));
    }
    for key in keys {
        match fields.iter().filter(|(k, _)| k == key).count() {
            0 => return Err(format!("missing key {key:?}")),
            1 => {}
            _ => return Err(format!("duplicate key {key:?}")),
        }
    }
    Ok(())
}

/// Reads `key` of a record whose key set [`check_keys`] accepted.
fn field<T: Value>(record: &JsonValue, key: &str) -> Result<T, String> {
    record
        .get(key)
        .and_then(T::from_json)
        .ok_or_else(|| format!("{key:?} is not {}", T::KIND))
}

/// JSON string literal with minimal escaping (quotes, backslash,
/// control characters).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite JSON number (JSON has no NaN/Inf; clamp those to 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.0".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str) -> RunRecord {
        RunRecord {
            pipeline: name.to_owned(),
            n_chunks: 4,
            total_elements: 1200,
            exec_mode: "EventDriven".to_owned(),
            exec_requested: "Auto".to_owned(),
            cycles: 1234,
            stall_cycles: 0,
            starved_cycles: 7,
            truncated: false,
            onchip_bytes: 4096,
            dram_bytes: 9600,
            energy_uj: 1.25,
            wall_time_ms: 0.5,
            host_threads: 2,
            certify_ms: 0.125,
            spins: 0,
            yields: 0,
            parks: 0,
            wakes: 0,
        }
    }

    #[test]
    fn json_document_shape() {
        let mut r = BenchReport::new(1);
        r.push(record("classification"));
        r.push(record("registration"));
        let json = r.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"harness\": \"bench_engine\""));
        assert!(json.contains("\"pipeline\": \"classification\""));
        assert!(json.contains("\"exec_mode\": \"EventDriven\""));
        assert!(json.contains("\"exec_requested\": \"Auto\""));
        assert!(json.contains("\"host_threads\": 2"));
        assert!(json.contains("\"certify_ms\": 0.125000"));
        assert!(json.contains("\"spins\": 0"));
        assert!(json.contains("\"yields\": 0"));
        assert!(json.contains("\"parks\": 0"));
        assert!(json.contains("\"wakes\": 0"));
        assert!(json.trim_end().ends_with('}'));
        // Two records, exactly one separating comma between them.
        assert_eq!(json.matches("\"pipeline\"").count(), 2);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn non_finite_numbers_are_clamped() {
        assert_eq!(json_f64(f64::NAN), "0.0");
        assert_eq!(json_f64(f64::INFINITY), "0.0");
        assert!(json_f64(1.5).starts_with("1.5"));
    }

    #[test]
    fn stream_json_document_shape() {
        let mut r = BenchReport::new(1);
        r.push(StreamRecord {
            pipeline: "registration".to_owned(),
            source: "lidar".to_owned(),
            policy: "Quantize(512)".to_owned(),
            frames: 64,
            solver_invocations: 3,
            source_elements: 60000,
            scheduled_elements: 63488,
            total_cycles: 99999,
            p50_frame_cycles: 1500,
            p95_frame_cycles: 1600,
            max_frame_cycles: 1700,
            energy_uj: 2.5,
            all_clean: true,
            wall_time_ms: 12.0,
            workers: 4,
            cache: "file-warm".to_owned(),
            exec: "Sharded(4)".to_owned(),
            exec_effective: "Sharded(2)".to_owned(),
            host_threads: 8,
            certify_ms: 0.25,
            spins: 120,
            yields: 34,
            parks: 5,
            wakes: 5,
        });
        let json = r.to_json();
        assert!(json.contains("\"harness\": \"bench_streaming\""));
        assert!(json.contains("\"policy\": \"Quantize(512)\""));
        assert!(json.contains("\"solver_invocations\": 3"));
        assert!(json.contains("\"all_clean\": true"));
        assert!(json.contains("\"workers\": 4"));
        assert!(json.contains("\"cache\": \"file-warm\""));
        assert!(json.contains("\"exec\": \"Sharded(4)\""));
        assert!(json.contains("\"exec_effective\": \"Sharded(2)\""));
        assert!(json.contains("\"host_threads\": 8"));
        assert!(json.contains("\"certify_ms\": 0.250000"));
        assert!(json.contains("\"spins\": 120"));
        assert!(json.contains("\"yields\": 34"));
        assert!(json.contains("\"parks\": 5"));
        assert!(json.contains("\"wakes\": 5"));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn server_json_document_shape() {
        let mut r = BenchReport::new(1);
        r.push(ServerRecord {
            qos: "interactive".to_owned(),
            sweep_tenants: 64,
            tenants: 13,
            admitted: 64,
            rejected: 0,
            frames: 39,
            shed: 0,
            degraded: 0,
            total_cycles: 123456,
            p50_ms: 1.5,
            p95_ms: 2.5,
            p99_ms: 3.5,
            max_ms: 4.0,
            queue_ms: 0.75,
            exec_ms: 1.25,
            solver_invocations: 6,
            distinct_keys: 6,
            workers: 4,
            host_threads: 1,
            wall_time_ms: 250.0,
            all_clean: true,
        });
        let json = r.to_json();
        assert!(json.contains("\"harness\": \"bench_server\""));
        assert!(json.contains("\"qos\": \"interactive\""));
        assert!(json.contains("\"sweep_tenants\": 64"));
        assert!(json.contains("\"tenants\": 13"));
        assert!(json.contains("\"admitted\": 64"));
        assert!(json.contains("\"shed\": 0"));
        assert!(json.contains("\"p99_ms\": 3.500000"));
        assert!(json.contains("\"queue_ms\": 0.750000"));
        assert!(json.contains("\"solver_invocations\": 6"));
        assert!(json.contains("\"distinct_keys\": 6"));
        assert!(json.contains("\"all_clean\": true"));
        assert!(json.trim_end().ends_with('}'));
    }

    /// Reading a committed document and writing it again reproduces it
    /// byte for byte: the writer's envelope, key order and number
    /// formatting are the ones the committed files were written with.
    #[test]
    fn writer_reproduces_the_committed_documents() {
        fn round_trip<R: Record>(text: &str) -> String {
            let doc = json::parse(text).expect("committed document parses");
            BenchReport::<R>::from_value(&doc)
                .expect("committed document reads")
                .to_json()
        }
        let engine = include_str!("../../../BENCH_engine.json");
        let streaming = include_str!("../../../BENCH_streaming.json");
        let server = include_str!("../../../BENCH_server.json");
        assert_eq!(round_trip::<RunRecord>(engine), engine);
        assert_eq!(round_trip::<StreamRecord>(streaming), streaming);
        assert_eq!(round_trip::<ServerRecord>(server), server);
    }

    #[test]
    fn reader_requires_exact_keys_and_value_types() {
        let good = json::parse(&record("classification").to_json()).expect("record parses");
        assert_eq!(RunRecord::from_json(&good), Ok(record("classification")));
        let JsonValue::Obj(fields) = good else {
            unreachable!("a record is an object")
        };
        let with = |fields: Vec<(String, JsonValue)>| RunRecord::from_json(&JsonValue::Obj(fields));
        let mut duplicate = fields.clone();
        duplicate.push(fields[0].clone());
        assert_eq!(
            with(duplicate),
            Err("duplicate key \"pipeline\"".to_owned())
        );
        let mut retyped = fields.clone();
        retyped[1].1 = JsonValue::Num("4.0".to_owned());
        assert_eq!(
            with(retyped),
            Err("\"n_chunks\" is not an unsigned integer".to_owned())
        );
        let mut integral = fields;
        integral[11].1 = JsonValue::Num("1".to_owned());
        assert_eq!(
            with(integral),
            Err("\"energy_uj\" is not a non-negative decimal".to_owned())
        );
    }

    #[test]
    fn stream_record_flattens_stream_report() {
        use std::time::Duration;
        use streamgrid_core::apps::AppDomain;
        use streamgrid_core::framework::StreamGrid;
        use streamgrid_core::source::{ReplaySource, SizeBucketing, StreamOptions};
        use streamgrid_core::transform::{SplitConfig, StreamGridConfig};

        let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
        let mut session = fw.session(AppDomain::Classification.spec());
        let report = session
            .stream(
                ReplaySource::new(&[1200, 1250, 1300]),
                &StreamOptions::bucketed(SizeBucketing::Quantize(400)),
            )
            .unwrap();
        let record = StreamRecord::from_stream_report(
            "classification",
            "replay",
            &report,
            Duration::from_millis(5),
        );
        assert_eq!(record.frames, 3);
        assert_eq!(record.solver_invocations, report.solver_invocations);
        assert_eq!(record.source_elements, 1200 + 1250 + 1300);
        assert!(record.scheduled_elements >= record.source_elements);
        assert!(record.all_clean);
        assert_eq!(record.policy, "Quantize(400)");
        // Defaults, and the builder-style overrides bench sweeps use.
        assert_eq!((record.workers, record.cache.as_str()), (1, "private"));
        assert_eq!(record.exec, "Auto");
        // The effective engine comes off the frames themselves, so it
        // can never stay at the unresolved "Auto" label.
        assert_eq!(
            record.exec_effective,
            format!("{:?}", report.frames[0].report.exec_mode)
        );
        assert_ne!(record.exec_effective, "Auto");
        // Sequential engines never touch the backoff tiers.
        assert_eq!(
            (record.spins, record.yields, record.parks, record.wakes),
            (0, 0, 0, 0)
        );
        assert_eq!(record.host_threads, host_threads());
        assert!(record.host_threads >= 1);
        assert_eq!(record.certify_ms, 0.0);
        let tagged = record
            .clone()
            .with_workers(8)
            .with_cache("file-cold")
            .with_exec("Sharded(2)")
            .with_certify_ms(1.5);
        assert_eq!((tagged.workers, tagged.cache.as_str()), (8, "file-cold"));
        assert_eq!(tagged.exec, "Sharded(2)");
        assert_eq!(tagged.certify_ms, 1.5);
    }
}
