//! `cold-compile`: each Tbl. 2 pipeline gets a fresh session serving a
//! sequence of `Session::run` requests of distinct sizes under exact
//! bucketing, so every request misses the cache and pays one ILP solve
//! (certification included) plus one short execute.

use std::collections::BTreeSet;
use std::time::Instant;

use streamgrid_core::apps::AppDomain;
use streamgrid_core::source::{ReplaySource, StreamOptions, StreamReport};
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_core::StreamGrid;

use super::{run_frame_path, FramePath, Observed, PathSpec, Round};
use crate::redrive::{self, FrameLog};
use crate::stats::SplitMix;
use crate::trace::Tracer;
use crate::{Outcome, RunConfig};

/// The workload's name on the command line.
pub const NAME: &str = "cold-compile";

/// Chunks per cloud: `linear(4, 2)` splitting.
const CHUNKS: u64 = 4;

struct Cold {
    fw: StreamGrid,
    /// Request sizes per pipeline, in the order they are served.
    requests: Vec<(AppDomain, Vec<u64>)>,
}

/// `n` request sizes for one pipeline: distinct chunk sizes 256 + 4i +
/// (0..4), shuffled, so every request is a new compile key while the
/// mix stays the same from seed to seed.
fn sizes(rng: &mut SplitMix, n: u64) -> Vec<u64> {
    let mut chunks: Vec<u64> = (0..n).map(|i| 256 + 4 * i + rng.below(4)).collect();
    rng.shuffle(&mut chunks);
    chunks.into_iter().map(|c| c * CHUNKS).collect()
}

impl FramePath for Cold {
    fn round(&mut self, keep: bool) -> Round {
        let mut round = Round::default();
        for (domain, sizes) in &self.requests {
            let mut session = self.fw.session(domain.spec());
            for &size in sizes {
                round.speed.probe();
                let t0 = Instant::now();
                let result = session.run(size);
                round.latencies_ns.push(t0.elapsed().as_nanos() as u64);
                round.attempted += 1;
                match result {
                    Ok(report) => {
                        round.tally.add(&report);
                        if keep {
                            round.observed.push(Observed::Run(Box::new(report)));
                        }
                    }
                    Err(_) => round.compile_errors += 1,
                }
            }
            round.solves += session.solver_invocations();
            let keys: BTreeSet<u64> = sizes.iter().map(|s| s.div_ceil(CHUNKS)).collect();
            round.new_keys += keys.len() as u64;
        }
        round
    }

    fn redrive(&mut self, tracer: &mut Tracer, log: &mut FrameLog) -> Vec<StreamReport> {
        let mut reports = Vec::new();
        for (domain, sizes) in &self.requests {
            let mut session = self.fw.session(domain.spec());
            for &size in sizes {
                let id = reports.len() as u64;
                let source = ReplaySource::new(&[size]);
                let options = StreamOptions::default();
                if let Ok(report) = redrive::stream(tracer, log, &mut session, source, &options, id)
                {
                    reports.push(report);
                }
            }
        }
        reports
    }
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Outcome {
    let per_pipeline = if config.tiny { 3 } else { 100 };
    let spec = PathSpec {
        p50_name: "request_p50_ms (Session::run)",
        tail_name: "request_p99_ms (Session::run)",
        host_threads: 1,
        oracle_every: 50,
        warm_up: false,
    };
    let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(
        CHUNKS as u32,
        2,
    )));
    run_frame_path(config, &spec, || {
        let mut rng = SplitMix::new(config.seed);
        let requests: Vec<(AppDomain, Vec<u64>)> = AppDomain::ALL
            .into_iter()
            .map(|domain| (domain, sizes(&mut rng, per_pipeline)))
            .collect();
        // Warm-up off the measured sizes: one throwaway request per
        // pipeline, so the first measured solve does not pay for code
        // and allocator warm-up.
        for domain in AppDomain::ALL {
            let _ = fw.session(domain.spec()).run(CHUNKS * 128);
        }
        Cold {
            fw: fw.clone(),
            requests,
        }
    })
}
