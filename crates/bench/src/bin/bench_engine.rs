//! Engine-loop benchmark: cycle-accurate oracle vs event-driven fast
//! path on the registry presets, across chunk counts.
//!
//! For every `(pipeline, n_chunks)` point both engines execute the same
//! compiled design; the harness asserts their run reports are
//! bit-identical, prints the wall-time speedup, and serializes every run
//! to `BENCH_engine.json` ([`streamgrid_bench::report`]) so the perf
//! trajectory has machine-readable data. A full sweep checks its document
//! with [`streamgrid_bench::report::validate`] before writing it.
//!
//! `--smoke` runs one tiny sweep (CI's bench-smoke job); the full sweep
//! reaches `n_chunks = 256`, where the event engine's steady-state
//! period skip should deliver well over a 10× engine-loop speedup.
//! `--only <substring>` keeps only the pipelines whose registry name
//! contains the substring (composes with `--smoke`, whose sweep sizes
//! it leaves untouched).
//!
//! A second sweep pits the sharded per-cycle engine
//! (`ExecMode::Sharded(n)`) against the oracle on the registration
//! preset at long chunk counts, asserting bit-identity at every shard
//! count and recording the wall-time ratio. Sharded speedups only
//! materialize on multi-core hosts — every record carries
//! `host_threads` so a ~1× row on a 1-core runner reads as what it is.

use std::time::{Duration, Instant};

use streamgrid_bench::report::{validate, BenchReport, RunRecord};
use streamgrid_core::framework::{ExecMode, ExecuteOptions, ExecutionReport};
use streamgrid_core::registry::PipelineRegistry;
use streamgrid_core::session::Session;
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_core::StreamGrid;

/// Elements each chunk streams from the source (paper-scale points×3).
const CHUNK_ELEMENTS: u64 = 300;

fn timed_run(session: &mut Session, elements: u64, mode: ExecMode) -> (ExecutionReport, Duration) {
    // The bench deliberately runs the *requested* shard count, clamp
    // off: oversubscription rows (Sharded(8) on a 1-core runner) are
    // exactly what the backoff tiers exist to keep survivable, and the
    // default clamp would silently fold them into Sharded(1).
    let options = ExecuteOptions::for_spec(session.spec())
        .with_exec_mode(mode)
        .with_shard_clamp(false);
    let t0 = Instant::now();
    let report = session
        .run_with(elements, &options)
        .expect("compiled design executes");
    (report, t0.elapsed())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let only: Option<String> = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let selected = |name: &str| only.as_deref().is_none_or(|s| name.contains(s));
    let seed = 1;
    streamgrid_bench::banner(
        "bench_engine — execution-engine loop, oracle vs event-driven",
        "event-driven engine is bit-identical under DT and ≥10x faster at n_chunks ≥ 256",
        seed,
    );
    let chunk_counts: &[u64] = if smoke { &[4, 16] } else { &[4, 16, 64, 256] };
    let registry = PipelineRegistry::with_paper_apps();
    let mut report = BenchReport::new(seed);

    println!(
        "{:<16} {:>8} {:>10} {:>12} {:>12} {:>9}",
        "pipeline", "chunks", "cycles", "oracle (ms)", "event (ms)", "speedup"
    );
    let mut worst_large_speedup = f64::INFINITY;
    for spec in registry.specs() {
        if !selected(spec.name()) {
            continue;
        }
        for &n in chunk_counts {
            let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(n as u32, 2)));
            let mut session = fw.session(spec.clone());
            let elements = n * CHUNK_ELEMENTS;
            // Warm the compile cache so the timings isolate the engine
            // loop from the (already amortized) ILP solve.
            let compiled = session.compiled(elements).expect("CS+DT design compiles");
            let t_cert = Instant::now();
            let cert = compiled.certify();
            let certify_ms = t_cert.elapsed().as_secs_f64() * 1e3;
            assert!(
                cert.accepted(),
                "{}/{n}: schedule certificate rejected:\n{}",
                spec.name(),
                cert.render()
            );

            let (oracle, t_oracle) = timed_run(&mut session, elements, ExecMode::CycleAccurate);
            let (event, t_event) = timed_run(&mut session, elements, ExecMode::EventDriven);
            assert_eq!(
                oracle.run,
                event.run,
                "{}/{n}: engines diverged — the equivalence guarantee is broken",
                spec.name()
            );
            assert!(oracle.is_clean() && event.is_clean());

            let speedup = t_oracle.as_secs_f64() / t_event.as_secs_f64().max(1e-9);
            if n >= 256 {
                worst_large_speedup = worst_large_speedup.min(speedup);
            }
            println!(
                "{:<16} {:>8} {:>10} {:>12.3} {:>12.3} {:>8.1}x",
                spec.name(),
                n,
                oracle.run.cycles,
                t_oracle.as_secs_f64() * 1e3,
                t_event.as_secs_f64() * 1e3,
                speedup
            );
            report.push(
                RunRecord::from_report(spec.name(), n, elements, &oracle, t_oracle)
                    .with_certify_ms(certify_ms),
            );
            report.push(
                RunRecord::from_report(spec.name(), n, elements, &event, t_event)
                    .with_certify_ms(certify_ms),
            );
        }
    }

    // Sweep 2: sharded engine vs the oracle on one preset at chunk
    // counts long enough that per-cycle stepping dominates. Every shard
    // count must reproduce the oracle's report bit for bit; wall-time
    // ratios are only meaningful when `host_threads` offers real cores.
    let host_threads = streamgrid_bench::report::host_threads();
    let shard_chunks: &[u64] = if smoke { &[16] } else { &[256, 8192] };
    let shard_counts: &[u32] = if smoke { &[1, 2, 8] } else { &[1, 2, 4, 8] };
    let spec = streamgrid_core::apps::AppDomain::Registration.spec();
    if !selected(spec.name()) {
        let path = report.write_default().expect("report file is writable");
        println!(
            "\nwrote {} records to {} (--only {:?} skipped the sharded sweep)",
            report.len(),
            path.display(),
            only.as_deref().unwrap_or("")
        );
        return;
    }
    println!(
        "\n{:<16} {:>8} {:>8} {:>10} {:>12} {:>13} {:>9}",
        "pipeline", "chunks", "shards", "cycles", "oracle (ms)", "sharded (ms)", "ratio"
    );
    for &n in shard_chunks {
        let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(n as u32, 2)));
        let mut session = fw.session(spec.clone());
        let elements = n * CHUNK_ELEMENTS;
        let compiled = session.compiled(elements).expect("CS+DT design compiles");
        let t_cert = Instant::now();
        let cert = compiled.certify();
        let certify_ms = t_cert.elapsed().as_secs_f64() * 1e3;
        assert!(
            cert.accepted(),
            "{}/{n}: schedule certificate rejected:\n{}",
            spec.name(),
            cert.render()
        );
        let (oracle, t_oracle) = timed_run(&mut session, elements, ExecMode::CycleAccurate);
        report.push(
            RunRecord::from_report(spec.name(), n, elements, &oracle, t_oracle)
                .with_certify_ms(certify_ms),
        );
        for &shards in shard_counts {
            let (sharded, t_sharded) = timed_run(&mut session, elements, ExecMode::Sharded(shards));
            assert_eq!(
                oracle.run,
                sharded.run,
                "{}/{n} at {shards} shards: sharded engine diverged from the oracle",
                spec.name()
            );
            assert!(sharded.is_clean());
            println!(
                "{:<16} {:>8} {:>8} {:>10} {:>12.3} {:>13.3} {:>8.1}x",
                spec.name(),
                n,
                shards,
                sharded.run.cycles,
                t_oracle.as_secs_f64() * 1e3,
                t_sharded.as_secs_f64() * 1e3,
                t_oracle.as_secs_f64() / t_sharded.as_secs_f64().max(1e-9)
            );
            report.push(
                RunRecord::from_report(spec.name(), n, elements, &sharded, t_sharded)
                    .with_certify_ms(certify_ms),
            );
        }
    }
    println!(
        "sharded rows ran on {host_threads} host thread{} — expect ~1x ratios below 2",
        if host_threads == 1 { "" } else { "s" }
    );

    // A filtered run is partial, so only a full one is validated.
    if only.is_none() {
        validate(&report.to_json()).expect("the sweep meets every BENCH_engine.json rule");
    }
    let path = report.write_default().expect("report file is writable");
    println!("\nwrote {} records to {}", report.len(), path.display());
    if !smoke && worst_large_speedup.is_finite() {
        println!("worst speedup at n_chunks >= 256: {worst_large_speedup:.1}x (target: >= 10x)");
    }
}
