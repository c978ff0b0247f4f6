//! `cs-variable`: the paper's CS-only baseline — splitting without
//! deterministic termination, so global-op latency varies and every
//! frame needs a per-cycle engine. Classification and registration run
//! at `linear(2048, 2)` under the default `ExecMode::Auto`, one frame
//! per `Session::stream` call. The benchmark runs on one CPU (see
//! `host::pin_to_one_cpu`), where `Auto` resolves to the cycle-accurate
//! oracle; on several CPUs it would pick the sharded engine.

use std::collections::BTreeSet;
use std::time::Instant;

use streamgrid_core::apps::AppDomain;
use streamgrid_core::session::Session;
use streamgrid_core::source::{ReplaySource, StreamOptions, StreamReport};
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_core::StreamGrid;

use super::{run_frame_path, FramePath, Observed, PathSpec, Round};
use crate::redrive::{self, FrameLog};
use crate::stats::SplitMix;
use crate::trace::Tracer;
use crate::{Outcome, RunConfig};

/// The workload's name on the command line.
pub const NAME: &str = "cs-variable";

/// Chunks per cloud.
const CHUNKS: u64 = 2048;

/// The pipelines the workload streams.
const DOMAINS: [AppDomain; 2] = [AppDomain::Classification, AppDomain::Registration];

struct CsVariable {
    /// Per pipeline: its warm session, stream options and frame sizes.
    streams: Vec<(Session, StreamOptions, Vec<u64>, BTreeSet<u64>)>,
}

impl FramePath for CsVariable {
    fn round(&mut self, keep: bool) -> Round {
        let mut round = Round::default();
        for (session, options, sizes, seen) in &mut self.streams {
            let mut source = ReplaySource::new(sizes);
            let options = options.with_max_frames(1);
            for _ in 0..sizes.len() {
                round.speed.probe();
                let t0 = Instant::now();
                let result = session.stream(&mut source, &options);
                round.latencies_ns.push(t0.elapsed().as_nanos() as u64);
                round.attempted += 1;
                let Ok(report) = result else {
                    round.compile_errors += 1;
                    continue;
                };
                redrive::aggregates(&report);
                round.solves += report.solver_invocations;
                for f in &report.frames {
                    round.tally.add(&f.report);
                    round.new_keys += u64::from(seen.insert(f.scheduled_elements.div_ceil(CHUNKS)));
                }
                if keep {
                    round.observed.push(Observed::Stream(report));
                }
            }
        }
        round
    }

    fn redrive(&mut self, tracer: &mut Tracer, log: &mut FrameLog) -> Vec<StreamReport> {
        let mut reports = Vec::new();
        for (session, options, sizes, _) in &mut self.streams {
            let mut source = ReplaySource::new(sizes);
            let options = options.with_max_frames(1);
            for _ in 0..sizes.len() {
                let id = reports.len() as u64;
                if let Ok(report) = redrive::stream(tracer, log, session, &mut source, &options, id)
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
    let frames = if config.tiny { 2 } else { 8 };
    let spec = PathSpec {
        p50_name: "frame_p50_ms (Session::stream, 1 frame)",
        tail_name: "frame_p99_ms (Session::stream, 1 frame)",
        host_threads: 1,
        oracle_every: 4,
        warm_up: true,
    };
    let fw = StreamGrid::new(StreamGridConfig::cs(SplitConfig::linear(CHUNKS as u32, 2)));
    run_frame_path(config, &spec, || {
        let mut rng = SplitMix::new(config.seed);
        let streams = DOMAINS
            .into_iter()
            .map(|domain| {
                // Half the frames carry up to one element per chunk,
                // half up to two; the seed picks the order and each
                // frame's exact size. The mix and the variable-latency
                // draw are the same on every run, so the modelled-design
                // figures measure the design, not the luck of a draw.
                let mut sizes: Vec<u64> = (0..frames)
                    .map(|i| CHUNKS * (1 + i % 2) - rng.below(CHUNKS / 2))
                    .collect();
                rng.shuffle(&mut sizes);
                let options = StreamOptions::default().with_workers(1);
                (fw.session(domain.spec()), options, sizes, BTreeSet::new())
            })
            .collect();
        CsVariable { streams }
    })
}
