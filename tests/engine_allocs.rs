//! Allocation budget of a warm frame's execution.
//!
//! Under deterministic termination a design's engine layout (validated
//! graph, stepping order, per-stage edge lists, rates and volumes) is
//! built once when the design compiles, so a frame's
//! `CompiledPipeline::execute` allocates only its run state, the event
//! engine's two snapshots and span watch, and the report's two per-edge
//! vectors. This test counts the allocations of one warm `execute` on
//! the calling thread, with a counting global allocator, and holds them
//! to [`BUDGET`] on `server-mix`'s six base designs and the
//! 4608-element LiDAR registration design.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use streamgrid_core::apps::AppDomain;
use streamgrid_core::framework::{ExecuteOptions, StreamGrid};
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_sim::EngineMode;

/// Most allocations one warm DT `execute` may make.
const BUDGET: u64 = 16;

/// The system allocator, counting every allocation and reallocation made
/// on the current thread (test threads run side by side).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments; counting touches only a const-initialised thread-local
// `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn warm_dt_execute_stays_within_its_allocation_budget() {
    let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
    let designs = [
        (AppDomain::Classification, 1200u64),
        (AppDomain::Classification, 2400),
        (AppDomain::Classification, 3600),
        (AppDomain::Registration, 1200),
        (AppDomain::Registration, 2400),
        (AppDomain::Registration, 3600),
        (AppDomain::Registration, 4608),
    ];
    let mut over = Vec::new();
    for (domain, elements) in designs {
        let design = fw.compile(domain, elements).expect("preset compiles");
        let options = ExecuteOptions::for_domain(domain);
        let cold = design.execute(&options);
        let (warm, n) = allocations(|| design.execute(&options));
        assert_eq!(warm.exec_mode, EngineMode::EventDriven);
        assert_eq!(warm, cold, "{domain:?} at {elements}: runs differ");
        if n > BUDGET {
            over.push(format!("{domain:?} at {elements}: {n} allocations"));
        }
    }
    assert!(
        over.is_empty(),
        "over the budget of {BUDGET}:\n{}",
        over.join("\n")
    );
}
