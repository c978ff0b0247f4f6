//! Multi-tenant server benchmark: tenant-count sweep over one shared
//! schedule cache, serialized to `BENCH_server.json`
//! ([`streamgrid_bench::report::ServerRecord`]) once
//! [`streamgrid_bench::report::validate`] accepts the document.
//!
//! For each tenant count in {1, 16, 64, 256} (`--smoke`: {1, 16}) the
//! harness submits the standard synthetic mix (20% Interactive, 40%
//! Standard, 40% Background, classification/registration pipelines over
//! three frame sizes) to a fresh [`StreamServer`], runs it to
//! completion, and records one [`ServerRecord`] per QoS class: tenants,
//! executed/shed/degraded frames, and wall-clock p50/p95/p99 frame
//! latency with the queue-wait vs execute split.
//!
//! The single-tenant sweep additionally runs the *same* source through
//! `Session::stream` directly and records it as a `"direct"` row — the
//! harness asserts the server tenant's [`streamgrid_core::source::StreamReport`] is
//! **bit-identical** to the direct run (the serving layer adds
//! scheduling, never different results), so the committed JSON carries
//! the equivalence the validator re-checks (cycle-identical rows).
//!
//! Every sweep asserts `solver_invocations == distinct compile keys`:
//! the tenant count scales, the solve count does not.

use std::collections::HashSet;
use std::time::Instant;

use streamgrid_bench::report::{host_threads, validate, BenchReport, ServerRecord};
use streamgrid_core::apps::AppDomain;
use streamgrid_core::source::{StreamOptions, SyntheticSource};
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_core::StreamGrid;
use streamgrid_serve::{
    ClassReport, QosClass, ServerConfig, ServerReport, StreamServer, TenantSpec,
};

/// The frame sizes tenants cycle through — multiples of the 4-chunk
/// split, so the compile keys are exactly `sizes × pipelines`.
const SIZES: [u64; 3] = [1200, 2400, 3600];

/// The tenant mix: index → (QoS class, pipeline, frame size). Index 0
/// is Interactive on classification@1200 — the single-tenant sweep's
/// design point.
fn tenant_shape(i: usize) -> (QosClass, AppDomain, u64) {
    let qos = match i % 5 {
        0 => QosClass::Interactive,
        1 | 2 => QosClass::Standard,
        _ => QosClass::Background,
    };
    let domain = if i.is_multiple_of(2) {
        AppDomain::Classification
    } else {
        AppDomain::Registration
    };
    (qos, domain, SIZES[i % SIZES.len()])
}

/// Runs one sweep: `tenants` mixed tenants, `frames` frames each.
/// Returns the report, the distinct-key count, and the wall time in ms.
fn run_sweep(tenants: usize, frames: u64, config: StreamGridConfig) -> (ServerReport, u64, f64) {
    let mut server = StreamServer::new(ServerConfig::default());
    let mut keys: HashSet<(String, u64)> = HashSet::new();
    for i in 0..tenants {
        let (qos, domain, size) = tenant_shape(i);
        keys.insert((format!("{domain:?}"), size));
        let spec =
            TenantSpec::new(format!("{}-{i}", qos.name()), domain.spec(), config).with_qos(qos);
        server
            .submit(spec, SyntheticSource::new(size, frames))
            .expect("the default ledger admits the whole sweep");
    }
    let t0 = Instant::now();
    let report = server.run();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(report.admitted, tenants as u64);
    assert!(report.all_clean(), "a sweep tenant failed");
    assert_eq!(
        report.solver_invocations,
        keys.len() as u64,
        "{tenants} tenants: solves must track distinct keys, not tenants"
    );
    (report, keys.len() as u64, wall_ms)
}

/// Flattens one class of a sweep into its record.
fn class_record(
    class: &ClassReport,
    sweep_tenants: u64,
    report: &ServerReport,
    distinct_keys: u64,
    wall_ms: f64,
) -> ServerRecord {
    ServerRecord {
        qos: class.qos.name().to_owned(),
        sweep_tenants,
        tenants: class.tenants,
        admitted: report.admitted,
        rejected: report.rejected,
        frames: class.latency.frames,
        shed: class.shed_frames,
        degraded: class.degraded_frames,
        total_cycles: class.total_cycles,
        p50_ms: class.latency.p50_ms,
        p95_ms: class.latency.p95_ms,
        p99_ms: class.latency.p99_ms,
        max_ms: class.latency.max_ms,
        queue_ms: class.latency.mean_queue_ms,
        exec_ms: class.latency.mean_exec_ms,
        solver_invocations: report.solver_invocations,
        distinct_keys,
        workers: report.workers as u64,
        host_threads: host_threads(),
        wall_time_ms: wall_ms,
        all_clean: report.all_clean(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let seed = 1;
    let frames: u64 = if smoke { 2 } else { 4 };
    let sweep: &[usize] = if smoke { &[1, 16] } else { &[1, 16, 64, 256] };
    streamgrid_bench::banner(
        "bench_server — multi-tenant sweep: per-class SLOs over one shared schedule cache",
        "tenant count scales 256×, solve count stays at the distinct compile keys; Interactive keeps the tightest tail",
        seed,
    );
    let config = StreamGridConfig::cs_dt(SplitConfig::linear(4, 2));
    let mut out = BenchReport::new(seed);

    println!(
        "{:>8} {:<13} {:>8} {:>8} {:>6} {:>10} {:>10} {:>10} {:>8}",
        "tenants", "class", "class-n", "frames", "shed", "p50 ms", "p95 ms", "p99 ms", "solves"
    );
    for &tenants in sweep {
        let (report, distinct_keys, wall_ms) = run_sweep(tenants, frames, config);
        for class in &report.classes {
            println!(
                "{:>8} {:<13} {:>8} {:>8} {:>6} {:>10.3} {:>10.3} {:>10.3} {:>8}",
                tenants,
                class.qos.name(),
                class.tenants,
                class.latency.frames,
                class.shed_frames,
                class.latency.p50_ms,
                class.latency.p95_ms,
                class.latency.p99_ms,
                report.solver_invocations,
            );
            out.push(class_record(
                class,
                tenants as u64,
                &report,
                distinct_keys,
                wall_ms,
            ));
        }

        if tenants == 1 {
            // The equivalence anchor: the same source through
            // `Session::stream` directly, fresh private cache. The
            // server tenant's StreamReport must match bit for bit.
            let (_, domain, size) = tenant_shape(0);
            let fw = StreamGrid::new(config);
            let mut session = fw.session(domain.spec());
            let t0 = Instant::now();
            let direct = session
                .stream(
                    SyntheticSource::new(size, frames),
                    &StreamOptions::default(),
                )
                .expect("the baseline design point compiles");
            let direct_wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                report.tenants[0].stream, direct,
                "single-tenant server run diverged from Session::stream"
            );
            println!(
                "{:>8} {:<13} {:>8} {:>8} {:>6} {:>10} {:>10} {:>10} {:>8}",
                1,
                "direct",
                1,
                direct.frame_count(),
                0,
                "-",
                "-",
                "-",
                direct.solver_invocations,
            );
            out.push(ServerRecord {
                qos: "direct".to_owned(),
                sweep_tenants: 1,
                tenants: 1,
                admitted: 1,
                rejected: 0,
                frames: direct.frame_count(),
                shed: 0,
                degraded: 0,
                total_cycles: direct.total_cycles(),
                // Session::stream reports no wall-clock per-frame split;
                // the direct row anchors cycles, not SLOs.
                p50_ms: 0.0,
                p95_ms: 0.0,
                p99_ms: 0.0,
                max_ms: 0.0,
                queue_ms: 0.0,
                exec_ms: 0.0,
                solver_invocations: direct.solver_invocations,
                distinct_keys: 1,
                workers: 1,
                host_threads: host_threads(),
                wall_time_ms: direct_wall_ms,
                all_clean: direct.all_clean(),
            });
        }
    }

    validate(&out.to_json()).expect("the sweep meets every BENCH_server.json rule");
    match out.write_default() {
        Ok(path) => println!("\nwrote {} records to {}", out.len(), path.display()),
        Err(err) => {
            eprintln!("failed to write server bench JSON: {err}");
            std::process::exit(1);
        }
    }
}
