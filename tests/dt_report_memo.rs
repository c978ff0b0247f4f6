//! Copies of deterministic-termination reports: `StreamServer`
//! simulates each DT design once per run and hands later frames on the
//! same design, under equal options, a clone of that report. These
//! tests hold every served frame, and every frame of a direct
//! `Session::stream` that returns to its designs, to what a fresh
//! `CompiledPipeline::execute` of its design returns, on every preset
//! under CS+DT `linear(n, 2)` for `n` ∈ {1, 2, 4, 9, 16} and on both
//! engines. They check that no tenant is served a report made under
//! another tenant's options, and that a cache too small for the run's
//! designs, which evicts and recompiles them mid-run, still serves each
//! frame its own design's report.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use streamgrid_core::apps::AppDomain;
use streamgrid_core::cache::SharedCache;
use streamgrid_core::framework::{CompiledPipeline, ExecMode, ExecuteOptions, StreamGrid};
use streamgrid_core::session::Session;
use streamgrid_core::source::{Frame, FrameSource, ReplaySource, StreamOptions, StreamReport};
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_serve::{ServerConfig, StreamServer, TenantSpec};

const CHUNK_COUNTS: [u32; 5] = [1, 2, 4, 9, 16];
const MODES: [ExecMode; 2] = [ExecMode::Auto, ExecMode::CycleAccurate];

/// Five frames over two designs, `n · 300` and `n · 450` elements, each
/// repeated, the second time after the other design ran.
fn sizes(n: u32) -> [u64; 5] {
    let (a, b) = (u64::from(n) * 300, u64::from(n) * 450);
    [a, b, a, a, b]
}

fn csdt(n: u32) -> StreamGridConfig {
    StreamGridConfig::cs_dt(SplitConfig::linear(n, 2))
}

/// `stream` holds one frame per entry of `sizes`, in order, and each
/// carries an execution report equal to a fresh `execute` of its design
/// under `exec`. The design comes from `session`'s cache, so this
/// compiles nothing new.
fn assert_fresh(
    session: &mut Session,
    stream: &StreamReport,
    sizes: &[u64],
    exec: &ExecuteOptions,
    at: &str,
) {
    let streamed: Vec<u64> = stream.frames.iter().map(|f| f.frame.elements).collect();
    assert_eq!(streamed, sizes, "{at}");
    for (k, f) in stream.frames.iter().enumerate() {
        let design = session
            .compiled(f.scheduled_elements)
            .expect("preset compiles");
        assert!(design.is_deterministic(), "{at}");
        assert_eq!(f.report, design.execute(exec), "{at}, frame {k}");
    }
}

/// A stream that returns to its designs gets, frame for frame, what a
/// fresh `CompiledPipeline::execute` returns, inline and on two
/// workers.
#[test]
fn repeated_dt_designs_stream_what_fresh_executes_return() {
    for n in CHUNK_COUNTS {
        let fw = StreamGrid::new(csdt(n));
        for domain in AppDomain::ALL {
            for mode in MODES {
                let exec = ExecuteOptions::for_spec(&domain.spec()).with_exec_mode(mode);
                let mut session = fw.session(domain.spec());
                for workers in [1, 2] {
                    let at = format!("{domain:?}, linear({n}, 2), {mode:?}, {workers} workers");
                    let stream = session
                        .stream(
                            ReplaySource::new(&sizes(n)),
                            &StreamOptions::default()
                                .with_exec(exec)
                                .with_workers(workers),
                        )
                        .expect("preset streams");
                    assert_fresh(&mut session, &stream, &sizes(n), &exec, &at);
                }
            }
        }
    }
}

/// Tenants that share designs each equal their own direct
/// `Session::stream` and fresh executes, with 1 and 3 workers, while one
/// of them runs the shared designs under its own options (double the
/// datapath intensity): no tenant is served another tenant's report.
#[test]
fn served_tenants_on_shared_designs_equal_their_direct_streams() {
    for n in CHUNK_COUNTS {
        let config = csdt(n);
        let fw = StreamGrid::new(config);
        for domain in AppDomain::ALL {
            for mode in MODES {
                let exec = ExecuteOptions::for_spec(&domain.spec()).with_exec_mode(mode);
                let heavy = ExecuteOptions {
                    macs_per_element: 2.0 * exec.macs_per_element,
                    ..exec
                };
                let tenants = [exec, heavy, exec];
                for workers in [1, 3] {
                    let at = format!("{domain:?}, linear({n}, 2), {mode:?}, {workers} workers");
                    let mut server =
                        StreamServer::new(ServerConfig::default().with_workers(workers));
                    for (i, options) in tenants.iter().enumerate() {
                        server
                            .submit(
                                TenantSpec::new(format!("t{i}"), domain.spec(), config)
                                    .with_exec(*options),
                                ReplaySource::new(&sizes(n)),
                            )
                            .expect("the default ledger admits three tenants");
                    }
                    let report = server.run();
                    assert!(report.all_clean(), "{at}");

                    let mut session = fw.session(domain.spec());
                    for (t, options) in report.tenants.iter().zip(&tenants) {
                        let direct = session
                            .stream(
                                ReplaySource::new(&sizes(n)),
                                &StreamOptions::default().with_exec(*options),
                            )
                            .expect("preset streams");
                        assert_eq!(t.stream.frames, direct.frames, "{at}, tenant {}", t.name);
                        assert_fresh(&mut session, &t.stream, &sizes(n), options, &at);
                    }
                    // The options differ where a report shows them.
                    let energy = |t: usize| report.tenants[t].stream.frames[0].report.total_uj();
                    assert!(energy(1) > energy(0), "{at}");
                }
            }
        }
    }
}

/// Replays its sizes and, at the pull that finds them exhausted,
/// records how many strong references `watched` still has.
struct Probe {
    replay: ReplaySource,
    watched: Weak<CompiledPipeline>,
    strong_at_end: Arc<AtomicUsize>,
}

impl FrameSource for Probe {
    fn next_frame(&mut self) -> Option<Frame> {
        let frame = self.replay.next_frame();
        if frame.is_none() {
            self.strong_at_end
                .store(self.watched.strong_count(), Ordering::SeqCst);
        }
        frame
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.replay.size_hint()
    }
}

/// A cache that holds one design while the run switches between three
/// evicts and recompiles designs mid-run: a run of one size hits the
/// cache and copies, and every change of size solves again. Two tenants
/// on the same designs, one under its own options, must each get fresh
/// executes of their own designs, with 1 and 3 workers, and the run's
/// first design, evicted at its first change of size, must be freed
/// before the run ends.
#[test]
fn a_one_design_cache_serves_each_frame_its_own_designs_report() {
    let config = csdt(4);
    let fw = StreamGrid::new(config);
    let (a, b, c) = (1200, 1800, 2400);
    let sizes = [a, a, b, b, b, c, a, a, c, b, a, c, c, a];
    for domain in AppDomain::ALL {
        let exec = ExecuteOptions::for_spec(&domain.spec());
        let heavy = ExecuteOptions {
            macs_per_element: 2.0 * exec.macs_per_element,
            ..exec
        };
        for workers in [1, 3] {
            let at = format!("{domain:?}, {workers} workers");
            let cache = SharedCache::with_capacity(1);
            let first = fw
                .session_builder(domain.spec())
                .with_cache(cache.clone())
                .build()
                .compiled(a)
                .expect("preset compiles");
            let strong_at_end = Arc::new(AtomicUsize::new(usize::MAX));
            let mut server =
                StreamServer::with_cache(ServerConfig::default().with_workers(workers), cache);
            let probe = Probe {
                replay: ReplaySource::new(&sizes),
                watched: Arc::downgrade(&first),
                strong_at_end: Arc::clone(&strong_at_end),
            };
            drop(first);
            let tenant = |name: &str, options| {
                TenantSpec::new(name, domain.spec(), config).with_exec(options)
            };
            server
                .submit(tenant("probe", exec), probe)
                .expect("the default ledger admits two tenants");
            server
                .submit(tenant("heavy", heavy), ReplaySource::new(&sizes))
                .expect("the default ledger admits two tenants");
            let report = server.run();
            assert!(report.all_clean(), "{at}");
            assert!(
                report.solver_invocations > 3,
                "{at}: the cache never evicted"
            );
            // One worker drops each job before it pops the next, so by
            // the probe's last pull every frame on the first design is
            // done; more workers could still hold one.
            if workers == 1 {
                assert_eq!(
                    strong_at_end.load(Ordering::SeqCst),
                    0,
                    "{at}: the evicted first design outlived its frames"
                );
            }
            let mut session = fw.session(domain.spec());
            for (t, options) in report.tenants.iter().zip([exec, heavy]) {
                assert_fresh(&mut session, &t.stream, &sizes, &options, &at);
            }
        }
    }
}
