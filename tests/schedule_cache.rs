//! Contract tests for the pluggable schedule caches behind `Session`:
//!
//! * the acceptance pins — two sessions over one `SharedCache` pay
//!   exactly one ILP solve between them, and a warm `FileCache` run
//!   pays zero;
//! * the `FileCache` round trip — compile → persist → fresh
//!   process-like load → identical `CompileSummary` bytes and reports;
//! * robustness — corrupt or partial cache files fall back to a clean
//!   solve instead of erroring or poisoning results.

use std::fs;
use std::path::PathBuf;

use streamgrid_core::apps::AppDomain;
use streamgrid_core::cache::{FileCache, ScheduleCache, SharedCache};
use streamgrid_core::framework::StreamGrid;
use streamgrid_core::source::{ReplaySource, SizeBucketing, StreamOptions};
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};

fn csdt4() -> StreamGrid {
    StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)))
}

/// A unique scratch directory per test (tests run concurrently in one
/// process; no tempfile crate offline). Removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "streamgrid-schedule-cache-{}-{tag}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Acceptance pin: two sessions sharing a `SharedCache` over the same
/// spec/config report exactly one ILP solve between them — and their
/// reports are identical to a privately cached session's.
#[test]
fn shared_cache_pays_one_solve_across_sessions() {
    let fw = csdt4();
    let shared = SharedCache::new();
    let mut a = fw
        .session_builder(AppDomain::Classification.spec())
        .with_cache(shared.clone())
        .build();
    let mut b = fw
        .session_builder(AppDomain::Classification.spec())
        .with_cache(shared.clone())
        .build();

    let report_a = a.run(4 * 300).unwrap();
    assert_eq!(shared.solver_invocations(), 1);
    let report_b = b.run(4 * 300).unwrap();
    // b's run hit the schedule a already solved: still one solve total,
    // reported identically through both sessions.
    assert_eq!(shared.solver_invocations(), 1);
    assert_eq!(a.solver_invocations(), 1);
    assert_eq!(b.solver_invocations(), 1);
    assert_eq!(report_a, report_b);

    // Private sessions see the same results; sharing changes accounting,
    // never reports.
    let mut private = fw.session(AppDomain::Classification.spec());
    assert_eq!(private.run(4 * 300).unwrap(), report_a);

    // A new size is one more solve, shared by both sessions again.
    a.run(4 * 600).unwrap();
    b.run(4 * 600).unwrap();
    assert_eq!(shared.solver_invocations(), 2);
    assert_eq!(shared.compiled_count(), 2);
}

/// Different specs through one shared cache never collide: each pays
/// its own solve and gets its own design.
#[test]
fn shared_cache_keys_are_spec_scoped() {
    let fw = csdt4();
    let shared = SharedCache::new();
    let mut cls = fw
        .session_builder(AppDomain::Classification.spec())
        .with_cache(shared.clone())
        .build();
    let mut reg = fw
        .session_builder(AppDomain::Registration.spec())
        .with_cache(shared.clone())
        .build();
    let a = cls.run(4 * 300).unwrap();
    let b = reg.run(4 * 300).unwrap();
    assert_eq!(
        shared.solver_invocations(),
        2,
        "distinct specs must not fold"
    );
    assert_ne!(a, b, "designs from different specs must differ");
    assert_eq!(a, fw.execute(AppDomain::Classification, 4 * 300).unwrap());
    assert_eq!(b, fw.execute(AppDomain::Registration, 4 * 300).unwrap());
}

/// Acceptance pin: compile → persist → fresh process-like load (new
/// `FileCache`, new `Session`) → identical `CompileSummary` bytes and
/// zero new solver invocations.
#[test]
fn file_cache_round_trips_with_zero_warm_solves() {
    let scratch = ScratchDir::new("roundtrip");
    let fw = csdt4();
    let sizes = [4 * 300u64, 4 * 450, 4 * 300];

    // Cold: pays the solves and persists them.
    let mut cold = fw
        .session_builder(AppDomain::Classification.spec())
        .with_cache(FileCache::new(&scratch.0))
        .build();
    let cold_reports = cold.run_batch(&sizes).unwrap();
    assert_eq!(
        cold.solver_invocations(),
        2,
        "two distinct sizes, two solves"
    );
    assert!(
        scratch.0.read_dir().unwrap().count() >= 2,
        "entries persisted"
    );

    // Warm: a fresh cache instance over the same directory — the
    // process-like boundary (nothing shared in memory) — pays nothing.
    let warm_cache = FileCache::new(&scratch.0);
    let mut warm = fw
        .session_builder(AppDomain::Classification.spec())
        .with_cache(warm_cache)
        .build();
    let warm_reports = warm.run_batch(&sizes).unwrap();
    assert_eq!(
        warm.solver_invocations(),
        0,
        "a warm directory must serve every solve"
    );
    assert_eq!(
        warm_reports, cold_reports,
        "loaded designs must execute identically"
    );
    // Identical CompileSummary bytes, frame for frame.
    for (w, c) in warm_reports.iter().zip(&cold_reports) {
        assert_eq!(w.compile, c.compile);
        assert_eq!(format!("{:?}", w.compile), format!("{:?}", c.compile));
    }
}

/// A warm `FileCache` under a whole stream: zero stream solves, report
/// bit-identical to a privately cached session's — including with
/// workers.
#[test]
fn file_cache_streams_warm_and_parallel() {
    let scratch = ScratchDir::new("stream");
    let fw = csdt4();
    let sizes: Vec<u64> = (0..8u64).map(|i| 1500 + 90 * i).collect();
    let options = StreamOptions::bucketed(SizeBucketing::Quantize(600));

    let mut private = fw.session(AppDomain::Registration.spec());
    let expected = private.stream(ReplaySource::new(&sizes), &options).unwrap();

    let mut cold = fw
        .session_builder(AppDomain::Registration.spec())
        .with_cache(FileCache::new(&scratch.0))
        .build();
    let cold_report = cold.stream(ReplaySource::new(&sizes), &options).unwrap();
    assert_eq!(cold_report, expected);

    let mut warm = fw
        .session_builder(AppDomain::Registration.spec())
        .with_cache(FileCache::new(&scratch.0))
        .build();
    let warm_report = warm
        .stream(ReplaySource::new(&sizes), &options.with_workers(4))
        .unwrap();
    assert_eq!(warm.solver_invocations(), 0);
    assert_eq!(warm_report.solver_invocations, 0, "the stream paid nothing");
    assert_eq!(
        warm_report.frames, expected.frames,
        "frames match bit for bit"
    );
}

/// Corrupt, truncated, or garbage cache files are treated as misses: the
/// session re-solves cleanly and produces the same reports as an
/// uncached run, never an error.
#[test]
fn corrupt_cache_files_fall_back_to_clean_solves() {
    let scratch = ScratchDir::new("corrupt");
    let fw = csdt4();

    // Populate the directory.
    let mut cold = fw
        .session_builder(AppDomain::Classification.spec())
        .with_cache(FileCache::new(&scratch.0))
        .build();
    let expected = cold.run(4 * 300).unwrap();
    assert_eq!(cold.solver_invocations(), 1);

    let entries: Vec<PathBuf> = scratch
        .0
        .read_dir()
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert!(!entries.is_empty());

    for (i, mutilate) in [
        // Outright garbage.
        |path: &PathBuf| fs::write(path, "this is not json {{{").unwrap(),
        // Valid JSON, wrong shape.
        |path: &PathBuf| fs::write(path, "{\"version\": 1, \"schedule\": 42}").unwrap(),
        // Partial write: truncate to half.
        |path: &PathBuf| {
            let text = fs::read_to_string(path).unwrap();
            fs::write(path, &text[..text.len() / 2]).unwrap();
        },
        // A well-formed entry from format version 2, whose solver could
        // return another optimal vertex.
        |path: &PathBuf| {
            let text = fs::read_to_string(path).unwrap();
            let old = text.replacen("\"version\": 3,", "\"version\": 2,", 1);
            assert_ne!(old, text, "entries start with their version");
            fs::write(path, old).unwrap();
        },
        // The first buffer cut to one element, with the stored total and
        // summary cut to match: only the certificate can tell.
        |path: &PathBuf| {
            let text = fs::read_to_string(path).unwrap();
            let first = number_after(&text, "\"buffer_sizes\": [");
            assert!(first > 1, "edge 0 needs more than one element");
            let cut = first - 1;
            let text = edit_number(&text, "\"buffer_sizes\": [", |_| 1);
            let text = edit_number(&text, "\"total_buffer_elements\": ", |n| n - cut);
            let text = edit_number(&text, "\"onchip_bytes\": ", |b| b - 4 * cut);
            fs::write(path, text).unwrap();
        },
        // A stored total one element over the buffers' sum, with the
        // summary raised to match: only the sum can tell.
        |path: &PathBuf| {
            let text = fs::read_to_string(path).unwrap();
            let text = edit_number(&text, "\"total_buffer_elements\": ", |n| n + 1);
            let text = edit_number(&text, "\"onchip_bytes\": ", |b| b + 4);
            fs::write(path, text).unwrap();
        },
    ]
    .iter()
    .enumerate()
    {
        for path in &entries {
            mutilate(path);
        }
        let mut session = fw
            .session_builder(AppDomain::Classification.spec())
            .with_cache(FileCache::new(&scratch.0))
            .build();
        let report = session.run(4 * 300).unwrap();
        assert_eq!(
            session.solver_invocations(),
            1,
            "mutation #{i}: the fallback must be a clean solve"
        );
        assert_eq!(report, expected, "mutation #{i}: results must not drift");
    }

    // The fallback solve re-persisted a good entry: warm again.
    let mut healed = fw
        .session_builder(AppDomain::Classification.spec())
        .with_cache(FileCache::new(&scratch.0))
        .build();
    healed.run(4 * 300).unwrap();
    assert_eq!(healed.solver_invocations(), 0, "the cache must self-heal");
}

/// The number right after the first `tag` in `text`.
fn number_after(text: &str, tag: &str) -> u64 {
    let start = text.find(tag).expect("the entry has the field") + tag.len();
    let digits = text[start..].find(|c: char| !c.is_ascii_digit()).unwrap();
    text[start..start + digits].parse().unwrap()
}

/// `text` with the number right after the first `tag` replaced by `f`
/// of it.
fn edit_number(text: &str, tag: &str, f: impl Fn(u64) -> u64) -> String {
    let value = number_after(text, tag);
    let start = text.find(tag).unwrap() + tag.len();
    let end = start + value.to_string().len();
    format!("{}{}{}", &text[..start], f(value), &text[end..])
}

/// A cache entry produced under one config must not satisfy another:
/// base (non-DT, margin-inflated buffers) and CS+DT designs stay
/// separate files and separate solves.
#[test]
fn file_cache_separates_configs() {
    let scratch = ScratchDir::new("configs");
    let csdt = StreamGridConfig::cs_dt(SplitConfig::linear(4, 2));
    let base = StreamGridConfig::base();

    let mut session = StreamGrid::new(csdt)
        .session_builder(AppDomain::Classification.spec())
        .with_cache(FileCache::new(&scratch.0))
        .build();
    let csdt_report = session.run(4 * 300).unwrap();
    session.set_config(base);
    let base_report = session.run(4 * 300).unwrap();
    assert_eq!(session.solver_invocations(), 2);
    assert!(
        base_report.compile.onchip_bytes > csdt_report.compile.onchip_bytes,
        "base must carry the latency margin"
    );

    // Warm in either config order: zero solves, right designs.
    let mut warm = StreamGrid::new(base)
        .session_builder(AppDomain::Classification.spec())
        .with_cache(FileCache::new(&scratch.0))
        .build();
    assert_eq!(warm.run(4 * 300).unwrap(), base_report);
    warm.set_config(csdt);
    assert_eq!(warm.run(4 * 300).unwrap(), csdt_report);
    assert_eq!(warm.solver_invocations(), 0);
}
