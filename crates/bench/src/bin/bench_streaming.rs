//! Streaming-runtime benchmark: compile reuse and overlapped execution
//! over dataset-backed frame streams.
//!
//! Three sweeps, all serialized to `BENCH_streaming.json`
//! ([`streamgrid_bench::report::StreamRecord`]); a full run checks the
//! document with [`streamgrid_bench::report::validate`] before writing it:
//!
//! 1. **Bucketing** — for each workload (LiDAR sweeps → registration,
//!    ModelNet samples → classification) the same frame sequence runs
//!    through a fresh `Session` under every `SizeBucketing` policy,
//!    reporting the ILP solves paid and the scheduled-element overhead
//!    bucketing costs.
//! 2. **Workers** — the LiDAR stream re-runs with frame executions
//!    fanned across `StreamOptions::workers` threads; the harness
//!    asserts the parallel `StreamReport` is bit-identical to the
//!    sequential one and records the wall-clock speedup. A companion
//!    sweep shards each frame's engine loop (`ExecMode::Sharded(s)`,
//!    intra-frame parallelism) under the same bit-identity assertion,
//!    including one shards × workers compose row in the full sweep.
//! 3. **Schedule cache** — the same stream through a `FileCache`: a
//!    cold directory pays the solves and persists them, a fresh session
//!    over the warm directory pays **zero** (asserted), so solve reuse
//!    across binaries is visible as `"file-cold"` vs `"file-warm"`
//!    records.
//!
//! `--smoke` runs a short sweep (CI's bench-smoke job); the full sweep
//! streams 64 LiDAR frames, where quantized bucketing should hold the
//! solve count to a small handful. `--only <substring>` keeps only the
//! sweeps whose recorded source label contains the substring
//! (`"lidar"`, `"modelnet"`, `"lidar-dense"`); it composes with
//! `--smoke`, whose sweep sizes it leaves untouched.

use std::time::Instant;

use streamgrid_bench::report::{validate, BenchReport, StreamRecord};
use streamgrid_core::apps::AppDomain;
use streamgrid_core::cache::FileCache;
use streamgrid_core::framework::{ExecMode, ExecuteOptions};
use streamgrid_core::session::Session;
use streamgrid_core::source::{
    DatasetSource, ReplaySource, SizeBucketing, StreamOptions, StreamReport,
};
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_core::StreamGrid;
use streamgrid_pointcloud::datasets::lidar::{trajectory, LidarConfig, Scene};
use streamgrid_pointcloud::datasets::modelnet::ModelNetConfig;
use streamgrid_pointcloud::datasets::stream::{LidarStream, ModelNetStream};

/// The policies the bucketing sweep compares, exact first as the
/// baseline.
const POLICIES: [SizeBucketing; 3] = [
    SizeBucketing::Exact,
    SizeBucketing::Pow2,
    SizeBucketing::Quantize(512),
];

/// The frame sources the sweep benchmarks; the exhaustive match in
/// `main` ties each variant to its stream so a workload can never be
/// recorded under the wrong label.
#[derive(Debug, Clone, Copy)]
enum Workload {
    Lidar,
    ModelNet,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Lidar => "lidar",
            Workload::ModelNet => "modelnet",
        }
    }
}

fn lidar_source(seed: u64, frames: usize) -> LidarStream {
    LidarStream::new(
        Scene::urban(seed, 40.0, 14, 8),
        LidarConfig {
            beams: 6,
            azimuth_steps: 300,
            ..LidarConfig::default()
        },
        trajectory(frames, 0.4, 0.004),
        seed,
    )
}

fn modelnet_source(seed: u64, frames: usize) -> ModelNetStream {
    ModelNetStream::new(
        ModelNetConfig {
            classes: 10,
            points: 400,
            noise: 0.01,
        },
        frames,
        seed,
    )
}

/// Certifies every distinct compiled schedule a stream executed (one
/// per scheduled bucket — all cache hits by now) and returns the total
/// certification wall time in milliseconds. Panics if any certificate
/// rejects: the compile path bumps buffers to their certified peaks, so
/// a rejection here is a verifier/compiler disagreement.
fn certify_stream(session: &mut Session, report: &StreamReport) -> f64 {
    let mut buckets: Vec<u64> = report.frames.iter().map(|f| f.scheduled_elements).collect();
    buckets.sort_unstable();
    buckets.dedup();
    let t0 = Instant::now();
    for &bucket in &buckets {
        let cert = session
            .compiled(bucket)
            .expect("streamed design is cached")
            .certify();
        assert!(
            cert.accepted(),
            "bucket {bucket}: schedule certificate rejected:\n{}",
            cert.render()
        );
    }
    t0.elapsed().as_secs_f64() * 1e3
}

fn header() {
    println!(
        "{:<16} {:<10} {:<14} {:>7} {:>7} {:>7} {:<10} {:>10} {:>10} {:>10}",
        "pipeline",
        "source",
        "policy",
        "frames",
        "solves",
        "workers",
        "cache",
        "p50 cyc",
        "overhead",
        "wall (ms)"
    );
}

#[allow(clippy::too_many_arguments)]
fn row(
    pipeline: &str,
    source: &str,
    policy: SizeBucketing,
    frames: u64,
    solves: u64,
    workers: u64,
    cache: &str,
    p50: u64,
    overhead: u64,
    wall_ms: f64,
) {
    println!(
        "{:<16} {:<10} {:<14} {:>7} {:>7} {:>7} {:<10} {:>10} {:>10} {:>10.2}",
        pipeline,
        source,
        format!("{policy:?}"),
        frames,
        solves,
        workers,
        cache,
        p50,
        overhead,
        wall_ms
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let only: Option<String> = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let selected = |source: &str| only.as_deref().is_none_or(|s| source.contains(s));
    let seed = 1;
    let frames = if smoke { 8 } else { 64 };
    streamgrid_bench::banner(
        "bench_streaming — frame streams: bucketed compile reuse, workers, schedule cache",
        "bucketing amortizes the ILP solve; workers overlap executions; FileCache reuses solves across processes",
        seed,
    );
    let mut out = BenchReport::new(seed);
    let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));

    header();
    // Sweep 1: bucketing policies over both workloads.
    for (domain, workload) in [
        (AppDomain::Registration, Workload::Lidar),
        (AppDomain::Classification, Workload::ModelNet),
    ] {
        let source_name = workload.name();
        if !selected(source_name) {
            continue;
        }
        let mut exact_solves = None;
        for policy in POLICIES {
            let mut session = fw.session(domain.spec());
            let options = StreamOptions::bucketed(policy);
            let t0 = Instant::now();
            let report = match workload {
                Workload::Lidar => session
                    .stream(DatasetSource::new(lidar_source(seed, frames)), &options)
                    .expect("lidar stream compiles and runs"),
                Workload::ModelNet => session
                    .stream(DatasetSource::new(modelnet_source(seed, frames)), &options)
                    .expect("modelnet stream compiles and runs"),
            };
            let wall = t0.elapsed();
            assert_eq!(report.frame_count(), frames as u64);
            assert!(report.all_clean(), "CS+DT streams must run clean");
            // Bucketing can only fold compile keys, never split them.
            match exact_solves {
                None => exact_solves = Some(report.solver_invocations),
                Some(exact) => assert!(
                    report.solver_invocations <= exact,
                    "{source_name}/{policy:?}: bucketed solves exceed exact"
                ),
            }
            let overhead = report.scheduled_elements() - report.source_elements();
            row(
                domain.spec().name(),
                source_name,
                policy,
                report.frame_count(),
                report.solver_invocations,
                1,
                "private",
                report.p50_frame_cycles(),
                overhead,
                wall.as_secs_f64() * 1e3,
            );
            let certify_ms = certify_stream(&mut session, &report);
            out.push(
                StreamRecord::from_stream_report(domain.spec().name(), source_name, &report, wall)
                    .with_certify_ms(certify_ms),
            );
        }
    }

    // Sweep 2: overlapped execution — same LiDAR stream, fanned across
    // workers. Reports must be bit-identical; only wall time may move.
    // The cycle-accurate oracle makes execution the dominant cost (the
    // event-driven engine finishes a frame in microseconds, leaving
    // nothing worth overlapping); under DT both engines are
    // bit-identical anyway.
    let dense_policy = SizeBucketing::Quantize(16 * 512);
    let oracle = ExecuteOptions::for_spec(&AppDomain::Registration.spec())
        .with_exec_mode(ExecMode::CycleAccurate);
    // Sweeps 2 and 2b both record under the "lidar-dense" source label,
    // so one `--only lidar-dense` (or just `dense`) selects the pair —
    // 2b's bit-identity baseline comes out of sweep 2.
    let dense_selected = selected("lidar-dense");
    let worker_counts: &[usize] = if !dense_selected {
        &[]
    } else if smoke {
        &[1, 2]
    } else {
        &[1, 2, 4, 8]
    };
    // Pre-collect the sweep sizes so the timed region is compile +
    // execute, not LiDAR synthesis (which is inherently sequential and
    // identical across worker counts), and scale them 16× — a denser
    // sensor — so per-frame execution, the cost workers overlap, is the
    // dominant term rather than the (amortized-to-one) ILP solve.
    let replay_sizes: Vec<u64> = if dense_selected {
        let mut source = DatasetSource::new(lidar_source(seed, frames));
        std::iter::from_fn(|| streamgrid_core::source::FrameSource::next_frame(&mut source))
            .map(|f| f.elements * 16)
            .collect()
    } else {
        Vec::new()
    };
    let mut sequential = None;
    let mut sequential_wall = 0.0f64;
    for &workers in worker_counts {
        let mut session = fw.session(AppDomain::Registration.spec());
        // Warm the compile cache outside the timed region (as
        // bench_engine does): the solve is identical across worker
        // counts, so the timings isolate what workers actually overlap —
        // the execute phase.
        for &size in &replay_sizes {
            session
                .compiled(dense_policy.bucket(size))
                .expect("CS+DT design compiles");
        }
        let options = StreamOptions::bucketed(dense_policy)
            .with_exec(oracle)
            .with_workers(workers);
        let t0 = Instant::now();
        let report = session
            .stream(ReplaySource::new(&replay_sizes), &options)
            .expect("lidar-sized replay compiles and runs");
        let wall = t0.elapsed();
        let wall_ms = wall.as_secs_f64() * 1e3;
        match &sequential {
            None => {
                sequential = Some(report.clone());
                sequential_wall = wall_ms;
            }
            Some(seq) => assert_eq!(
                &report, seq,
                "{workers} workers changed the StreamReport — determinism is broken"
            ),
        }
        row(
            AppDomain::Registration.spec().name(),
            "lidar-dense",
            dense_policy,
            report.frame_count(),
            report.solver_invocations,
            workers as u64,
            "private",
            report.p50_frame_cycles(),
            report.scheduled_elements() - report.source_elements(),
            wall_ms,
        );
        let certify_ms = certify_stream(&mut session, &report);
        out.push(
            StreamRecord::from_stream_report(
                AppDomain::Registration.spec().name(),
                "lidar-dense",
                &report,
                wall,
            )
            .with_workers(workers as u64)
            .with_exec("CycleAccurate")
            .with_certify_ms(certify_ms),
        );
        if workers > 1 {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            println!(
                "{:>16}   speedup over 1 worker: {:.2}x ({} host core{})",
                "", // aligns under the table
                sequential_wall / wall_ms.max(1e-9),
                cores,
                if cores == 1 { "" } else { "s" }
            );
        }
    }

    // Sweep 2b: intra-frame sharding — the same dense replay with each
    // frame's engine loop split across `ExecMode::Sharded(s)` threads
    // (workers = 1, so the sweep isolates what sharding alone buys a
    // single frame's latency). Reports must stay bit-identical to the
    // sequential oracle baseline; in the full sweep one extra row
    // composes shards with workers to show the two axes multiply.
    let shard_counts: &[u32] = if !dense_selected {
        &[]
    } else if smoke {
        &[1, 2, 8]
    } else {
        &[1, 2, 4, 8]
    };
    let mut shard_runs: Vec<(u32, usize)> = shard_counts.iter().map(|&s| (s, 1)).collect();
    if !smoke && dense_selected {
        shard_runs.push((2, 2)); // Sharded(2) × 2 workers
    }
    for (shards, workers) in shard_runs {
        let baseline = sequential.as_ref().expect("sweep 2 recorded a baseline");
        let mut session = fw.session(AppDomain::Registration.spec());
        for &size in &replay_sizes {
            session
                .compiled(dense_policy.bucket(size))
                .expect("CS+DT design compiles");
        }
        // Default clamp ON: the sweep records what a *user* asking for
        // `Sharded(s)` actually gets — the progress-aware policy folds a
        // request that oversubscribes the host down to the core count
        // (`exec` keeps the requested label, `exec_effective` the engine
        // that ran), which is what keeps Sharded(8) rows within ~2× of
        // Sharded(1) on a 1-core runner. The raw oversubscribed engine
        // is exercised clamp-off by `bench_engine`'s sharded sweep and
        // the shard_backoff stress tests.
        let exec = ExecuteOptions::for_spec(&AppDomain::Registration.spec())
            .with_exec_mode(ExecMode::Sharded(shards));
        let options = StreamOptions::bucketed(dense_policy)
            .with_exec(exec)
            .with_workers(workers);
        let t0 = Instant::now();
        let report = session
            .stream(ReplaySource::new(&replay_sizes), &options)
            .expect("sharded replay compiles and runs");
        let wall = t0.elapsed();
        let wall_ms = wall.as_secs_f64() * 1e3;
        // The whole-report equality must be checked modulo the
        // `exec_mode` tag each frame records — everything simulated
        // (frames, schedules, run reports, energy) must be bit-equal.
        assert_eq!(report.frame_count(), baseline.frame_count());
        assert_eq!(report.solver_invocations, baseline.solver_invocations);
        for (got, want) in report.frames.iter().zip(baseline.frames.iter()) {
            assert_eq!(
                (&got.frame, got.scheduled_elements),
                (&want.frame, want.scheduled_elements)
            );
            assert_eq!(got.report.compile, want.report.compile);
            assert_eq!(
                got.report.run, want.report.run,
                "Sharded({shards}) × {workers} workers changed frame {} — \
                 the sharded engine is not bit-identical",
                got.frame.id
            );
        }
        let exec_label = format!("Sharded({shards})");
        row(
            AppDomain::Registration.spec().name(),
            "lidar-dense",
            dense_policy,
            report.frame_count(),
            report.solver_invocations,
            workers as u64,
            "private",
            report.p50_frame_cycles(),
            report.scheduled_elements() - report.source_elements(),
            wall_ms,
        );
        println!(
            "{:>16}   {exec_label} x {workers} worker(s): {:.2}x vs 1-worker oracle",
            "",
            sequential_wall / wall_ms.max(1e-9)
        );
        let certify_ms = certify_stream(&mut session, &report);
        out.push(
            StreamRecord::from_stream_report(
                AppDomain::Registration.spec().name(),
                "lidar-dense",
                &report,
                wall,
            )
            .with_workers(workers as u64)
            .with_exec(&exec_label)
            .with_certify_ms(certify_ms),
        );
    }

    // Sweep 3: schedule-cache reuse — cold FileCache pays and persists
    // the solves, a fresh session over the warm directory pays zero.
    let cache_dir = std::env::temp_dir().join(format!(
        "streamgrid-bench-schedule-cache-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache_policy = SizeBucketing::Quantize(512);
    let cache_labels: &[&str] = if selected("lidar") {
        &["file-cold", "file-warm"]
    } else {
        &[]
    };
    let mut cold_report = None;
    for &label in cache_labels {
        let mut session = fw
            .session_builder(AppDomain::Registration.spec())
            .with_cache(FileCache::new(&cache_dir))
            .build();
        let t0 = Instant::now();
        let report = session
            .stream(
                DatasetSource::new(lidar_source(seed, frames)),
                &StreamOptions::bucketed(cache_policy),
            )
            .expect("lidar stream compiles and runs");
        let wall = t0.elapsed();
        match label {
            "file-cold" => {
                assert!(
                    session.solver_invocations() > 0,
                    "a cold cache directory must pay real solves"
                );
                cold_report = Some(report.clone());
            }
            _ => {
                assert_eq!(
                    session.solver_invocations(),
                    0,
                    "a warm FileCache must serve every schedule from disk"
                );
                assert_eq!(
                    cold_report.as_ref().map(|r| &r.frames),
                    Some(&report.frames),
                    "warm-cache frames must be bit-identical to the cold run"
                );
            }
        }
        row(
            AppDomain::Registration.spec().name(),
            "lidar",
            cache_policy,
            report.frame_count(),
            session.solver_invocations(),
            1,
            label,
            report.p50_frame_cycles(),
            report.scheduled_elements() - report.source_elements(),
            wall.as_secs_f64() * 1e3,
        );
        let certify_ms = certify_stream(&mut session, &report);
        out.push(
            StreamRecord::from_stream_report(
                AppDomain::Registration.spec().name(),
                "lidar",
                &report,
                wall,
            )
            .with_cache(label)
            .with_certify_ms(certify_ms),
        );
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    // A filtered run is partial, so only a full one is validated.
    if only.is_none() {
        validate(&out.to_json()).expect("the sweep meets every BENCH_streaming.json rule");
    }
    let path = out.write_default().expect("report file is writable");
    println!("\nwrote {} records to {}", out.len(), path.display());
    println!("overhead = scheduled - source elements: the work bucketing rounds up per sweep.");
    println!("workers > 1 rows must match workers = 1 bit-for-bit; file-warm rows pay 0 solves.");
}
