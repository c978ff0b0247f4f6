//! Allocations of a whole `StreamServer::run`, on every thread it
//! starts.
//!
//! The server runs each deterministic-termination design once per run
//! and copies that report to the run's later frames on the design, and
//! it runs an engine for every frame of a design without DT. Reports
//! cannot show the difference (a copy equals a fresh run), so this
//! counts allocations: a DT fleet must pay far less than an engine
//! run's count per frame, and a CS-only fleet at least that much.
//!
//! It also pins what one served frame costs. Each fleet runs twice, at
//! `FRAMES` and at twice that many frames per tenant; the difference
//! between the two runs, over the extra frames, is the count per served
//! frame, with the run's fixed costs (threads, sessions, one report
//! vector per tenant) cancelled. A failure prints the measured table.
//!
//! The counter is process-wide, so this binary holds one test: no other
//! test's threads allocate while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use streamgrid_core::apps::AppDomain;
use streamgrid_core::cache::SharedCache;
use streamgrid_core::framework::{ExecuteOptions, StreamGrid};
use streamgrid_core::source::SyntheticSource;
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_serve::{ServerConfig, StreamServer, TenantSpec};

/// The system allocator, counting every allocation and reallocation in
/// the process.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's
// arguments; counting touches only an atomic, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made in the process while `f` runs. `StreamServer::run`
/// joins every thread it starts before it returns.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (out, ALLOCATIONS.load(Ordering::SeqCst) - before)
}

/// Tenants in each fleet, all on one design.
const TENANTS: u64 = 4;

/// Frames per tenant in the shorter run; the longer run serves twice
/// as many.
const FRAMES: u64 = 16;

#[test]
fn served_frames_copy_dt_reports_and_run_the_rest() {
    let spec = AppDomain::Classification.spec();
    let options = ExecuteOptions::for_spec(&spec);
    let mut table = Vec::new();
    // Each fleet's ceiling on allocations per served frame, at the count
    // measured: a DT copy clones the report's two per-edge vectors, and a
    // CS frame pays one engine run. Lower a ceiling when a change lowers
    // its count.
    for (name, config, ceiling) in [
        (
            "CS+DT",
            StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)),
            2,
        ),
        ("CS", StreamGridConfig::cs(SplitConfig::linear(4, 2)), 5),
    ] {
        // Solve the design before counting, and count one engine run.
        let cache = SharedCache::new();
        let design = StreamGrid::new(config)
            .session_builder(spec.clone())
            .with_cache(cache.clone())
            .build()
            .compiled(1200)
            .expect("preset compiles");
        let cold = design.execute(&options);
        let (_, run) = allocations(|| design.execute(&options));

        let mut served = [0u64; 2];
        for (count, frames) in served.iter_mut().zip([FRAMES, 2 * FRAMES]) {
            let mut server =
                StreamServer::with_cache(ServerConfig::default().with_workers(1), cache.clone());
            for i in 0..TENANTS {
                server
                    .submit(
                        TenantSpec::new(format!("t{i}"), spec.clone(), config),
                        SyntheticSource::new(1200, frames),
                    )
                    .expect("the default ledger admits the fleet");
            }
            let (report, allocated) = allocations(|| server.run());
            assert_eq!(report.frame_count(), TENANTS * frames);
            assert_eq!(report.solver_invocations, 0, "{name}: the design was warm");
            assert!(report.tenants.iter().all(|t| t
                .stream
                .frames
                .iter()
                .all(|f| f.report == cold)));
            *count = allocated;
        }
        table.push((name, design.is_deterministic(), run, served, ceiling));
    }

    let frames = TENANTS * FRAMES;
    let rendered: Vec<String> = table
        .iter()
        .map(|&(name, _, run, [short, long], _)| {
            format!(
                "{name:>5}: one engine run {run:>4}, a {frames}-frame server run {short:>5}, \
                 a {}-frame run {long:>5}, per served frame {:.2}",
                2 * frames,
                (long - short) as f64 / frames as f64
            )
        })
        .collect();
    let rendered = rendered.join("\n");
    println!("{rendered}");
    for &(name, deterministic, run, [short, long], ceiling) in &table {
        let holds = if deterministic {
            short < frames * run / 2
        } else {
            short >= frames * run
        };
        assert!(
            holds,
            "a DT fleet must pay under half an engine run per frame, a CS-only \
             fleet at least one; measured:\n{rendered}"
        );
        assert!(
            long - short <= ceiling * frames,
            "{name}: a served frame allocates more than its ceiling of {ceiling}; \
             measured:\n{rendered}"
        );
    }
}
