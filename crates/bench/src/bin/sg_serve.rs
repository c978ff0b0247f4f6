//! `sg_serve` — synthetic multi-tenant serving driver.
//!
//! Submits a mixed fleet of synthetic tenants (default 256: 20%
//! Interactive, 40% Standard, 40% Background, alternating
//! classification/registration pipelines over three frame sizes) to one
//! [`StreamServer`] over one shared schedule cache, runs it to
//! completion, and prints the per-class SLO table.
//!
//! The run asserts the serving layer's three core contracts:
//!
//! - **Solve sharing** — total ILP solves equal the *distinct compile
//!   keys* the tenant mix spans (6 for the default mix), not the tenant
//!   count: 256 tenants pay 6 solves, because every tenant's compiles
//!   flow through the same [`SharedCache`].
//! - **Completeness** — every tenant is admitted (the default ledger
//!   fits the fleet), finishes cleanly, and every pulled frame is
//!   accounted for (executed; nothing sheds without a deadline).
//! - **Copies equal runs** — the server runs each deterministic design
//!   once per run and hands later frames on it, from any tenant under
//!   equal options, a copy of that report; every served frame's report
//!   equals one fresh [`CompiledPipeline::execute`] of its design under
//!   its tenant's options.
//!
//! Usage: `sg_serve [--smoke] [--tenants N]`. `--smoke` (CI's verify
//! job) runs 2 frames per tenant instead of 4.
//!
//! [`SharedCache`]: streamgrid_core::cache::SharedCache
//! [`CompiledPipeline::execute`]: streamgrid_core::framework::CompiledPipeline::execute

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use streamgrid_core::apps::AppDomain;
use streamgrid_core::cache::ScheduleCache;
use streamgrid_core::framework::{ExecuteOptions, StreamGrid};
use streamgrid_core::source::SyntheticSource;
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_serve::{QosClass, ServerConfig, StreamServer, TenantSpec};

/// The frame sizes tenants cycle through — multiples of the 4-chunk
/// split, so the compile keys are exactly `sizes × pipelines`.
const SIZES: [u64; 3] = [1200, 2400, 3600];

/// The tenant mix: index → (QoS class, pipeline, frame size).
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

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let tenants: usize = args
        .iter()
        .position(|a| a == "--tenants")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(256);
    let frames_per_tenant = if smoke { 2 } else { 4 };
    let seed = 1;
    streamgrid_bench::banner(
        "sg_serve — multi-tenant streaming server over one shared schedule cache",
        "N tenants on the same design points pay one solve per distinct compile key, not per tenant",
        seed,
    );

    let config = StreamGridConfig::cs_dt(SplitConfig::linear(4, 2));
    let mut server = StreamServer::new(ServerConfig::default());
    let cache = server.cache().clone();
    let mut distinct_keys: HashSet<(String, u64)> = HashSet::new();
    for i in 0..tenants {
        let (qos, domain, size) = tenant_shape(i);
        distinct_keys.insert((format!("{domain:?}"), size));
        let spec =
            TenantSpec::new(format!("{}-{i}", qos.name()), domain.spec(), config).with_qos(qos);
        server
            .submit(spec, SyntheticSource::new(size, frames_per_tenant))
            .expect("the default ledger admits the whole fleet");
    }

    let t0 = Instant::now();
    let report = server.run();
    let wall = t0.elapsed();

    println!(
        "{:<13} {:>8} {:>8} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "class", "tenants", "frames", "shed", "p50 ms", "p95 ms", "p99 ms", "queue ms"
    );
    for class in &report.classes {
        println!(
            "{:<13} {:>8} {:>8} {:>6} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            class.qos.name(),
            class.tenants,
            class.latency.frames,
            class.shed_frames,
            class.latency.p50_ms,
            class.latency.p95_ms,
            class.latency.p99_ms,
            class.latency.mean_queue_ms,
        );
    }
    println!(
        "\n{} tenants / {} frames in {:.1} ms on {} workers: {} solves over {} distinct keys",
        report.admitted,
        report.frame_count(),
        wall.as_secs_f64() * 1e3,
        report.workers,
        report.solver_invocations,
        distinct_keys.len(),
    );

    // The contracts this binary exists to pin.
    assert_eq!(report.admitted, tenants as u64, "every tenant is admitted");
    assert_eq!(report.rejected, 0);
    assert_eq!(
        report.frame_count(),
        (tenants * frames_per_tenant as usize) as u64,
        "every pulled frame executed (no deadline, no sheds)"
    );
    assert_eq!(report.shed_frames(), 0);
    assert_eq!(
        report.solver_invocations,
        distinct_keys.len() as u64,
        "solves must track distinct compile keys, not tenants"
    );
    assert!(report.all_clean(), "every tenant finished cleanly");

    // Each frame's design, from the run's cache (every key hits), run
    // afresh under the tenant's options: the spec's defaults here.
    let fw = StreamGrid::new(config);
    let mut sessions = HashMap::new();
    let mut copies_differ = 0usize;
    for (i, tenant) in report.tenants.iter().enumerate() {
        let (_, domain, _) = tenant_shape(i);
        let session = sessions.entry(domain).or_insert_with(|| {
            fw.session_builder(domain.spec())
                .with_cache(cache.clone())
                .build()
        });
        let options = ExecuteOptions::for_spec(&domain.spec());
        for frame in &tenant.stream.frames {
            let design = session
                .compiled(frame.scheduled_elements)
                .expect("the run compiled this key");
            copies_differ += usize::from(frame.report != design.execute(&options));
        }
    }
    assert_eq!(
        copies_differ, 0,
        "every served report equals a fresh execute of its design"
    );
    assert_eq!(
        cache.solver_invocations(),
        report.solver_invocations,
        "the check compiled nothing new"
    );
    println!("\nsg_serve: OK");
}
