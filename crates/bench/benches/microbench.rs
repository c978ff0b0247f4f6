//! Criterion micro-benchmarks of the core kernels: neighbor search
//! variants (the Base vs CS vs CS+DT spectrum), sorting variants, the
//! line-buffer ILP solve, the certification a compile pays, the
//! cycle-level engine's simulation rate, the whole per-frame `execute`
//! call, a warm schedule-cache hit, a whole multi-tenant server run,
//! and the LiDAR scanner's cost per sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use streamgrid_core::apps::AppDomain;
use streamgrid_core::cache::SharedCache;
use streamgrid_core::framework::{ExecuteOptions, StreamGrid};
use streamgrid_core::source::SyntheticSource;
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_optimizer::{edge_infos, optimize, plan_multi_chunk};
use streamgrid_pointcloud::datasets::lidar::{scan, trajectory, LidarConfig, Scene};
use streamgrid_pointcloud::{Aabb, ChunkGrid, GridDims, Point3, WindowSpec};
use streamgrid_serve::{QosClass, ServerConfig, StreamServer, TenantSpec};
use streamgrid_sim::{run, run_with, EnergyModel, EngineConfig, EngineMode};
use streamgrid_spatial::kdtree::{KdTree, StepBudget, TraversalOrder};
use streamgrid_spatial::sort::{bitonic_sort_by_key, hierarchical_depth_sort};
use streamgrid_spatial::ChunkedIndex;

fn lidar_cloud() -> Vec<Point3> {
    let scene = Scene::urban(3, 45.0, 20, 10);
    let cfg = LidarConfig {
        beams: 16,
        azimuth_steps: 720,
        ..LidarConfig::default()
    };
    scan(&scene, &cfg, Point3::ZERO, 0.0, 3)
        .cloud
        .points()
        .to_vec()
}

fn bench_knn(c: &mut Criterion) {
    let pts = lidar_cloud();
    let tree = KdTree::build(&pts);
    let bounds = Aabb::from_points(pts.iter().copied()).unwrap();
    let index = ChunkedIndex::build(&pts, ChunkGrid::new(bounds, GridDims::new(8, 8, 1)));
    let spec = WindowSpec::new((2, 2, 1), (1, 1, 1));
    let queries: Vec<Point3> = pts.iter().step_by(pts.len() / 64).copied().collect();

    let mut g = c.benchmark_group("knn_16");
    g.bench_function("exact_ordered", |b| {
        b.iter(|| {
            for &q in &queries {
                black_box(tree.knn(&pts, q, 16, StepBudget::Unlimited));
            }
        })
    });
    g.bench_function("exact_fixed_order_hw", |b| {
        b.iter(|| {
            for &q in &queries {
                black_box(tree.knn_with_order(
                    &pts,
                    q,
                    16,
                    StepBudget::Unlimited,
                    TraversalOrder::Fixed,
                ));
            }
        })
    });
    g.bench_function("cs_window", |b| {
        b.iter(|| {
            for &q in &queries {
                let win = index.window_for_chunk(index.grid().chunk_of(q), &spec);
                black_box(index.knn_in_window(q, 16, &win, StepBudget::Unlimited));
            }
        })
    });
    g.bench_function("cs_dt_window_capped", |b| {
        b.iter(|| {
            for &q in &queries {
                let win = index.window_for_chunk(index.grid().chunk_of(q), &spec);
                black_box(index.knn_in_window(q, 16, &win, StepBudget::Capped(64)));
            }
        })
    });
    g.finish();
}

fn bench_sort(c: &mut Criterion) {
    let pts = lidar_cloud();
    let depths: Vec<f32> = pts.iter().map(|p| p.x).collect();
    let mut g = c.benchmark_group("sort");
    g.bench_function("std_global", |b| {
        b.iter(|| {
            let mut v = depths.clone();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            black_box(v);
        })
    });
    g.bench_function("bitonic_global", |b| {
        let short: Vec<f32> = depths.iter().copied().take(4096).collect();
        b.iter(|| {
            let mut v = short.clone();
            bitonic_sort_by_key(&mut v, |x| *x);
            black_box(v);
        })
    });
    g.bench_function("hierarchical_chunked", |b| {
        b.iter(|| {
            black_box(hierarchical_depth_sort(
                &pts,
                Point3::new(1.0, 0.0, 0.0),
                64,
            ));
        })
    });
    g.finish();
}

fn bench_optimizer(c: &mut Criterion) {
    // The solve alone: formulation and ILP, with the edges derived
    // outside the loop and no certificate.
    let mut g = c.benchmark_group("line_buffer_ilp");
    for domain in AppDomain::ALL {
        let mut graph = domain.spec().into_graph();
        StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)).apply(&mut graph);
        let edges = edge_infos(&graph, 1200);
        g.bench_function(format!("{domain:?}"), |b| {
            b.iter(|| black_box(optimize(&graph, &edges).unwrap()))
        });
    }
    g.finish();
}

fn bench_certify(c: &mut Criterion) {
    // The one certification every cold compile runs, the full-lattice
    // pass in `provision`, on the designs `line_buffer_ilp` solves.
    let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
    let designs: Vec<_> = AppDomain::ALL
        .into_iter()
        .map(|domain| (domain, fw.compile(domain, 4 * 1200).unwrap()))
        .collect();
    let mut g = c.benchmark_group("certify");
    for (domain, compiled) in &designs {
        g.bench_function(format!("{domain:?}"), |b| {
            b.iter(|| black_box(compiled.certify()))
        });
    }
    g.finish();
}

fn bench_session(c: &mut Criterion) {
    // The amortization the Session cache buys: a warm `run` skips the
    // ILP solve entirely, so this should sit orders of magnitude under
    // `line_buffer_ilp/Classification` + engine time combined.
    let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
    let mut session = fw.session(AppDomain::Classification.spec());
    session.run(4 * 1200).expect("warms the compile cache");
    c.bench_function("session_run_warm_cls", |b| {
        b.iter(|| black_box(session.run(4 * 1200).unwrap()))
    });
}

fn bench_engine(c: &mut Criterion) {
    // Oracle vs event-driven on the same compiled design: the fast
    // path's steady-state period skip makes its cost independent of the
    // chunk count, so the gap must widen with n_chunks (≥10× at 256).
    let mut graph = AppDomain::Classification.spec().into_graph();
    StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)).apply(&mut graph);
    let elements = 1200u64;
    let edges = edge_infos(&graph, elements);
    let schedule = optimize(&graph, &edges).unwrap();
    let plan = plan_multi_chunk(&graph, &edges);
    let energy = EnergyModel::default();
    let mut g = c.benchmark_group("engine_cls");
    for n_chunks in [4u64, 64, 256] {
        let config = EngineConfig {
            n_chunks,
            ..EngineConfig::default()
        };
        g.bench_function(format!("cycle_{n_chunks}chunks"), |b| {
            b.iter(|| black_box(run(&graph, &edges, &schedule, &plan, &energy, &config)))
        });
        g.bench_function(format!("event_{n_chunks}chunks"), |b| {
            b.iter(|| {
                black_box(run_with(
                    &graph,
                    &edges,
                    &schedule,
                    &plan,
                    &energy,
                    &config,
                    EngineMode::EventDriven,
                ))
            })
        });
    }
    g.finish();
}

fn bench_engine_frame(c: &mut Criterion) {
    // The whole call a warm frame pays after its cache hit:
    // `CompiledPipeline::execute` with the domain's default options, so
    // engine selection and report assembly are timed with the run
    // (`engine_cls` calls `run_with` directly). The designs are
    // `server-mix`'s six base designs (1200, 2400 and 3600 elements) and
    // the 4608-element LiDAR sweep bucket `lidar-stream` executes.
    let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
    let mut g = c.benchmark_group("engine_frame");
    for (domain, elements) in [
        (AppDomain::Classification, 1200u64),
        (AppDomain::Classification, 2400),
        (AppDomain::Classification, 3600),
        (AppDomain::Registration, 1200),
        (AppDomain::Registration, 2400),
        (AppDomain::Registration, 3600),
        (AppDomain::Registration, 4608),
    ] {
        let compiled = fw.compile(domain, elements).unwrap();
        let options = ExecuteOptions::for_domain(domain);
        g.bench_function(format!("{domain:?}_{elements}"), |b| {
            b.iter(|| black_box(compiled.execute(&options)))
        });
    }
    g.finish();
}

fn bench_cache_hit(c: &mut Criterion) {
    // A warm `Session::compiled`: the cache lookup every served or
    // streamed frame pays. A private cache's hit compares the session's
    // own spec identity by pointer; a hit on a design another session
    // put in a shared cache compares the identity string.
    let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
    let spec = AppDomain::Registration.spec();
    let mut private = fw.session(spec.clone());
    private.compiled(1200).expect("warms the private cache");
    let shared = SharedCache::new();
    fw.session_builder(spec.clone())
        .with_cache(shared.clone())
        .build()
        .compiled(1200)
        .expect("warms the shared cache");
    let mut other = fw.session_builder(spec).with_cache(shared).build();
    let mut g = c.benchmark_group("cache_hit");
    g.bench_function("private", |b| {
        b.iter(|| black_box(private.compiled(1200).unwrap()))
    });
    g.bench_function("shared_other_session", |b| {
        b.iter(|| black_box(other.compiled(1200).unwrap()))
    });
    g.finish();
}

fn bench_server_run(c: &mut Criterion) {
    // A whole `StreamServer::run` shaped like perfbench's `server-mix`:
    // 64 tenants × 100 frames on one worker, 20/40/40 Interactive /
    // Standard / Background, classification and registration at three
    // sizes, the last quarter on sizes no earlier tenant uses, and half
    // arriving through `submit_queued` under a ledger that holds only the
    // other half's projection. Each iteration builds a server over a
    // cold cache, so it pays each distinct key's solve once and serves
    // the rest of its 6,400 frames as DT copies.
    const TENANTS: usize = 64;
    const FRAMES: u64 = 100;
    let config = StreamGridConfig::cs_dt(SplitConfig::linear(4, 2));
    let server = || {
        let mut server = StreamServer::new(
            ServerConfig::default()
                .with_workers(1)
                .with_capacity(TENANTS as u64 / 2 * FRAMES),
        );
        for i in 0..TENANTS {
            let qos = match i % 5 {
                0 => QosClass::Interactive,
                1 | 2 => QosClass::Standard,
                _ => QosClass::Background,
            };
            let domain = if i % 2 == 0 {
                AppDomain::Classification
            } else {
                AppDomain::Registration
            };
            let late = if 4 * i >= 3 * TENANTS { 48 } else { 0 };
            let spec = TenantSpec::new(format!("t{i}"), domain.spec(), config).with_qos(qos);
            let source = SyntheticSource::new([1200, 2400, 3600][i % 3] + late, FRAMES);
            let admitted = if 2 * i >= TENANTS {
                server.submit_queued(spec, source)
            } else {
                server.submit(spec, source)
            };
            admitted.expect("the ledger admits or waitlists every tenant");
        }
        server
    };
    let mut g = c.benchmark_group("server_run");
    g.bench_function("server_mix_64x100", |b| {
        b.iter(|| black_box(server().run()))
    });
    g.finish();
}

fn bench_lidar_scan(c: &mut Criterion) {
    // One sweep per iteration, cycling through a drive's poses: the
    // `lidar-stream` benchmark's sweep (6 × 300 through a 14-box,
    // 8-pole block) and the `kitti_like` default (16 × 720, 18 boxes,
    // 10 poles).
    let poses = trajectory(512, 0.4, 0.004);
    let drives = [
        (
            "lidar_stream_6x300",
            Scene::urban(1, 40.0, 14, 8),
            LidarConfig {
                beams: 6,
                azimuth_steps: 300,
                ..LidarConfig::default()
            },
        ),
        (
            "default_16x720",
            Scene::urban(7, 45.0, 18, 10),
            LidarConfig::default(),
        ),
    ];
    let mut g = c.benchmark_group("lidar_scan");
    for (name, scene, config) in &drives {
        let mut i = 0;
        g.bench_function(*name, |b| {
            b.iter(|| {
                let (pose, yaw) = poses[i % poses.len()];
                i += 1;
                black_box(scan(scene, config, pose, yaw, i as u64))
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_knn,
    bench_sort,
    bench_optimizer,
    bench_certify,
    bench_session,
    bench_engine,
    bench_engine_frame,
    bench_cache_hit,
    bench_server_run,
    bench_lidar_scan
);
criterion_main!(benches);
