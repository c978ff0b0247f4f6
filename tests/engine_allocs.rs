//! Allocation budgets of a warm frame and of a cold request.
//!
//! Under deterministic termination a design's engine layout (validated
//! graph, stepping order, per-stage edge lists, rates and volumes) is
//! built once when the design compiles, so a frame's
//! `CompiledPipeline::execute` allocates only its run state, the event
//! engine's two snapshots and span watch, and the report's two per-edge
//! vectors. A warm `Session::compile_frame` (a cache hit) allocates
//! nothing, and a warm `Session::stream` adds only the frame's share of
//! the report: an engine run per frame, with or without DT. A cold
//! `Session::run` pays the compile: the ILP solve, the certificate, the
//! design's layout and the cache entry.
//! These tests count allocations on the calling thread, with a counting
//! global allocator, on `server-mix`'s six base designs and the
//! 4608-element LiDAR registration design, and on every preset at
//! `cold-compile`'s request sizes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use streamgrid_core::apps::AppDomain;
use streamgrid_core::framework::{ExecuteOptions, StreamGrid};
use streamgrid_core::session::Session;
use streamgrid_core::source::{Frame, SizeBucketing, StreamOptions, SyntheticSource};
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_sim::EngineMode;

/// Most allocations one warm DT `execute` may make.
const BUDGET: u64 = 16;

/// The seven designs every budget runs on: `server-mix`'s six base
/// designs and the 4608-element LiDAR registration design, all under
/// CS+DT `linear(4, 2)`.
const DESIGNS: [(AppDomain, u64); 7] = [
    (AppDomain::Classification, 1200),
    (AppDomain::Classification, 2400),
    (AppDomain::Classification, 3600),
    (AppDomain::Registration, 1200),
    (AppDomain::Registration, 2400),
    (AppDomain::Registration, 3600),
    (AppDomain::Registration, 4608),
];

/// Frames in each budgeted `Session::stream`.
const STREAM_FRAMES: u64 = 64;

/// Most allocations a warm `Session::compile_frame` may make.
const COMPILE_FRAME_CEILING: u64 = 0;

/// Most allocations a warm one-frame `Session::stream` may make: one
/// engine run (12) plus the call's two frame vectors.
const ONE_FRAME_CEILING: u64 = 14;

/// Most allocations a warm 64-frame `Session::stream` may make: the
/// measured count, 12 per frame plus the stream's two frame vectors.
const STREAM_CEILING: u64 = 770;

/// `cold-compile`'s chunk sizes span 256 to 655 elements over 4 chunks.
const COLD_CHUNK_ELEMENTS: [u64; 7] = [256, 300, 360, 455, 512, 600, 655];

/// Most allocations one cold `Session::run` may make, per preset: the
/// measured maximum over [`COLD_CHUNK_ELEMENTS`] in one session (a
/// session's first request and the one that grows its cache's map pay
/// one more than the rest). All but the 14 of a warm one-frame stream
/// are the compile and its cache entry.
const COLD_RUN_CEILINGS: [(AppDomain, u64); 4] = [
    (AppDomain::Classification, 378),
    (AppDomain::Segmentation, 433),
    (AppDomain::Registration, 387),
    (AppDomain::NeuralRendering, 283),
];

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

fn csdt4() -> StreamGrid {
    StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)))
}

#[test]
fn warm_dt_execute_stays_within_its_allocation_budget() {
    let fw = csdt4();
    let mut over = Vec::new();
    for (domain, elements) in DESIGNS {
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

#[test]
fn warm_frames_stay_within_their_allocation_ceilings() {
    let mut table = Vec::new();
    let mut over = false;
    for (domain, elements) in DESIGNS {
        let mut session = csdt4().session(domain.spec());
        let stream = |session: &mut Session, frames: u64| {
            session
                .stream(
                    SyntheticSource::new(elements, frames),
                    &StreamOptions::default(),
                )
                .expect("preset streams")
        };
        // The first stream solves and caches the design.
        let cold = stream(&mut session, STREAM_FRAMES);
        let (frame, compile) = allocations(|| {
            session.compile_frame(Frame::synthetic(0, elements), SizeBucketing::Exact)
        });
        assert_eq!(frame.expect("preset compiles").solves, 0);
        let (one, one_frame) = allocations(|| stream(&mut session, 1));
        assert!(
            one.frames[..] == cold.frames[..1],
            "{domain:?} at {elements}"
        );
        let (warm, streamed) = allocations(|| stream(&mut session, STREAM_FRAMES));
        assert!(
            warm.frames == cold.frames,
            "{domain:?} at {elements}: frames differ"
        );
        assert_eq!(warm.solver_invocations, 0);
        over |= compile > COMPILE_FRAME_CEILING
            || one_frame > ONE_FRAME_CEILING
            || streamed > STREAM_CEILING;
        table.push(format!(
            "{domain:?} at {elements}: compile_frame {compile}, one-frame stream {one_frame}, \
             stream {streamed}"
        ));
    }
    assert!(
        !over,
        "over a ceiling (compile_frame {COMPILE_FRAME_CEILING}, one-frame stream \
         {ONE_FRAME_CEILING}, {STREAM_FRAMES}-frame stream {STREAM_CEILING}); measured:\n{}",
        table.join("\n")
    );
}

/// Without deterministic termination a frame's seeded draw stands for
/// content-dependent latency, so no report may stand in for another's:
/// a CS-only stream allocates at least one engine run's count per frame.
#[test]
fn non_dt_streams_run_an_engine_per_frame() {
    let fw = StreamGrid::new(StreamGridConfig::cs(SplitConfig::linear(4, 2)));
    for (domain, elements) in DESIGNS {
        let mut session = fw.session(domain.spec());
        let design = session.compiled(elements).expect("preset compiles");
        assert!(!design.is_deterministic());
        let options = ExecuteOptions::for_spec(&domain.spec());
        let cold = design.execute(&options);
        let (warm, run) = allocations(|| design.execute(&options));
        assert_eq!(warm, cold, "{domain:?} at {elements}: runs differ");
        let (stream, streamed) = allocations(|| {
            session
                .stream(
                    SyntheticSource::new(elements, STREAM_FRAMES),
                    &StreamOptions::default(),
                )
                .expect("preset streams")
        });
        assert!(stream.frames.iter().all(|f| f.report == cold));
        assert!(
            run > 0 && streamed >= STREAM_FRAMES * run,
            "{domain:?} at {elements}: a {STREAM_FRAMES}-frame stream made {streamed} \
             allocations, under one run's {run} per frame"
        );
    }
}

#[test]
fn cold_runs_stay_within_their_allocation_ceilings() {
    let fw = csdt4();
    let mut table = Vec::new();
    let mut over = false;
    for (domain, ceiling) in COLD_RUN_CEILINGS {
        let mut session = fw.session(domain.spec());
        let mut row = Vec::new();
        for chunk in COLD_CHUNK_ELEMENTS {
            let (report, n) = allocations(|| session.run(4 * chunk));
            assert!(report.expect("preset compiles").is_clean());
            over |= n > ceiling;
            row.push(n.to_string());
        }
        assert_eq!(
            session.solver_invocations(),
            COLD_CHUNK_ELEMENTS.len() as u64
        );
        table.push(format!(
            "{domain:?} (ceiling {ceiling}): {}",
            row.join(", ")
        ));
    }
    assert!(
        !over,
        "a cold Session::run went over its ceiling; measured per request at \
         {COLD_CHUNK_ELEMENTS:?} elements per chunk:\n{}",
        table.join("\n")
    );
}
