//! `lidar-stream`: one registration tenant streams seeded urban LiDAR
//! sweeps through `Session::stream`, one sweep per call, under
//! `Quantize(512)` bucketing, one worker and a private cache.
//!
//! After the warm-up (part of set-up) every frame hits the cache, so
//! the host time is source generation plus execution on the event
//! engine: the solver is bypassed.

use std::collections::BTreeSet;
use std::time::Instant;

use streamgrid_core::apps::AppDomain;
use streamgrid_core::session::Session;
use streamgrid_core::source::{DatasetSource, SizeBucketing, StreamOptions, StreamReport};
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_core::StreamGrid;
use streamgrid_pointcloud::datasets::lidar::{trajectory, LidarConfig, Scene};
use streamgrid_pointcloud::datasets::stream::LidarStream;

use super::{run_frame_path, FramePath, Observed, PathSpec, Round};
use crate::redrive::{self, FrameLog};
use crate::trace::Tracer;
use crate::{Outcome, RunConfig};

/// The workload's name on the command line.
pub const NAME: &str = "lidar-stream";

/// Sweeps per `Session::stream` call: a sensor's frames consumed as
/// they arrive, as a continuous stream is. One sweep per call also
/// gives the latency tail the most samples per second.
const WINDOW: u64 = 1;

/// The urban block every run drives through.
const SCENE_SEED: u64 = 1;

struct Lidar {
    seed: u64,
    sweeps: usize,
    session: Session,
    options: StreamOptions,
    /// Buckets the session has compiled.
    seen: BTreeSet<u64>,
}

/// The seeded drive: one fixed urban block, a gently turning
/// trajectory, one sweep per pose; the seed draws every sweep's range
/// noise. The block stays fixed so that the seed moves the frames, not
/// the city: a different city per seed would move the latency tail by
/// a fifth from seed to seed.
fn source(seed: u64, sweeps: usize) -> DatasetSource<LidarStream> {
    DatasetSource::new(LidarStream::new(
        Scene::urban(SCENE_SEED, 40.0, 14, 8),
        LidarConfig {
            beams: 6,
            azimuth_steps: 300,
            ..LidarConfig::default()
        },
        trajectory(sweeps, 0.4, 0.004),
        seed,
    ))
}

impl FramePath for Lidar {
    fn round(&mut self, keep: bool) -> Round {
        let mut round = Round::default();
        let mut src = source(self.seed, self.sweeps);
        let options = self.options.with_max_frames(WINDOW);
        for _ in 0..(self.sweeps as u64).div_ceil(WINDOW) {
            round.speed.probe();
            let t0 = Instant::now();
            let result = self.session.stream(&mut src, &options);
            round.latencies_ns.push(t0.elapsed().as_nanos() as u64);
            round.attempted += WINDOW;
            let report = match result {
                Ok(report) => report,
                Err(_) => {
                    round.compile_errors += WINDOW;
                    continue;
                }
            };
            redrive::aggregates(&report);
            round.solves += report.solver_invocations;
            for f in &report.frames {
                round.tally.add(&f.report);
                round.new_keys += u64::from(self.seen.insert(f.scheduled_elements));
            }
            if keep {
                round.observed.push(Observed::Stream(report));
            }
        }
        round
    }

    fn redrive(&mut self, tracer: &mut Tracer, log: &mut FrameLog) -> Vec<StreamReport> {
        let mut src = source(self.seed, self.sweeps);
        let options = self.options.with_max_frames(WINDOW);
        (0..(self.sweeps as u64).div_ceil(WINDOW))
            .filter_map(|w| {
                redrive::stream(tracer, log, &mut self.session, &mut src, &options, w).ok()
            })
            .collect()
    }
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Outcome {
    let sweeps = if config.tiny { 16 } else { 512 };
    let spec = PathSpec {
        p50_name: "sweep_p50_ms (Session::stream, 1 sweep)",
        tail_name: "sweep_p99_ms (Session::stream, 1 sweep)",
        host_threads: 1,
        oracle_every: 128,
        warm_up: true,
    };
    let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
    run_frame_path(config, &spec, || Lidar {
        seed: config.seed,
        sweeps,
        session: fw.session(AppDomain::Registration.spec()),
        options: StreamOptions::bucketed(SizeBucketing::Quantize(512)).with_workers(1),
        seen: BTreeSet::new(),
    })
}
