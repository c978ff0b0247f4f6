//! End-to-end integration tests: the Fig. 1 flow across all crates.
//!
//! The central invariant: an ILP schedule from the optimizer, executed
//! by the cycle-level simulator under deterministic termination, runs
//! with zero stalls and zero overflows, at the throughput the
//! multi-chunk plan predicts.

use streamgrid_core::apps::AppDomain;
use streamgrid_core::framework::{ExecuteOptions, StreamGrid};
use streamgrid_core::pipeline::PipelineSpec;
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_dataflow::Shape;
use streamgrid_optimizer::{build, edge_infos, FormulationKind};

#[test]
fn csdt_runs_clean_across_all_domains_and_chunkings() {
    for domain in AppDomain::ALL {
        for n in [2u32, 4, 8] {
            let config = StreamGridConfig::cs_dt(SplitConfig::linear(n, 2));
            let compiled = StreamGrid::new(config)
                .compile(domain, n as u64 * 600)
                .unwrap_or_else(|e| panic!("{domain:?} n={n}: {e}"));
            let report = compiled
                .execute(&ExecuteOptions {
                    seed: 3,
                    ..ExecuteOptions::for_domain(domain)
                })
                .run;
            assert_eq!(report.overflow_edge, None, "{domain:?} n={n} overflowed");
            assert_eq!(report.stall_cycles, 0, "{domain:?} n={n} stalled");
            for (i, (&peak, &cap)) in report
                .buffer_peaks
                .iter()
                .zip(&report.buffer_capacities)
                .enumerate()
            {
                assert!(peak <= cap, "{domain:?} n={n} edge {i}: {peak} > {cap}");
            }
        }
    }
}

#[test]
fn unified_execute_covers_every_domain() {
    // The single compile→execute→report entry point (Fig. 1 end to end):
    // one call must produce a consistent compile summary, run report,
    // and energy tally on every Tbl. 2 domain.
    for domain in AppDomain::ALL {
        let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
        let report = fw
            .execute(domain, 4 * 600)
            .unwrap_or_else(|e| panic!("{domain:?}: {e}"));
        assert!(report.is_clean(), "{domain:?}: CS+DT must run clean");
        assert!(report.run.cycles > 0, "{domain:?}");
        assert_eq!(report.energy, report.run.energy, "{domain:?}");
        assert!(report.total_uj() > 0.0, "{domain:?}");
        let compiled = fw.compile(domain, 4 * 600).unwrap();
        assert_eq!(report.compile, compiled.summary(), "{domain:?}");
    }
}

#[test]
fn simulated_throughput_matches_plan_across_domains() {
    for domain in AppDomain::ALL {
        let config = StreamGridConfig::cs_dt(SplitConfig::linear(4, 2));
        let compiled = StreamGrid::new(config).compile(domain, 4 * 600).unwrap();
        let report = compiled.execute(&ExecuteOptions::for_domain(domain)).run;
        let planned = compiled
            .plan
            .total_cycles(compiled.schedule.makespan, compiled.n_chunks);
        let drift = (report.cycles as f64 - planned as f64).abs() / planned as f64;
        assert!(
            drift < 0.05,
            "{domain:?}: simulated {} vs planned {planned} ({:.1}% drift)",
            report.cycles,
            drift * 100.0
        );
    }
}

#[test]
fn buffer_reduction_holds_for_every_domain() {
    // Fig. 17a's shape: CS+DT shrinks total line-buffer size
    // substantially on every app.
    for domain in AppDomain::ALL {
        let elements = 16 * 600;
        let base = StreamGrid::new(StreamGridConfig::base())
            .compile(domain, elements)
            .unwrap()
            .summary();
        let csdt = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(16, 2)))
            .compile(domain, elements)
            .unwrap()
            .summary();
        let reduction = 1.0 - csdt.onchip_bytes as f64 / base.onchip_bytes as f64;
        assert!(
            reduction > 0.5,
            "{domain:?}: only {:.0}% buffer reduction",
            reduction * 100.0
        );
    }
}

#[test]
fn pruned_and_full_formulations_agree_on_apps() {
    // The constraint-pruning ablation: identical optima, far fewer
    // constraints. The unpruned formulations are thinned to one
    // constraint per `stride` timesteps so they stay quick in debug
    // mode; the count comparison and optimum agreement are unaffected.
    // A thinning drops constraints, so its optimum may sit slightly
    // below the pruned one (registration: by under one element). The
    // release-mode `ablation_constraint_pruning` harness counts the
    // stride-1 formulations and solves stride-1024 thinnings at
    // 30K/100K elements.
    for (domain, elements, stride) in [
        (AppDomain::Classification, 900u64, 4u64),
        (AppDomain::Registration, 600, 16),
    ] {
        let graph = domain.spec().into_graph();
        let edges = edge_infos(&graph, elements);
        let (_, asap) = streamgrid_optimizer::asap_schedule(&graph, &edges);
        let limit = asap + graph.node_count() as f64 + 1.0;
        let pruned = build(&graph, &edges, FormulationKind::Pruned, limit);
        let full = build(&graph, &edges, FormulationKind::Full { stride }, limit);
        let ps = pruned.model.solve().unwrap();
        let fs = full.model.solve().unwrap();
        assert!(
            (ps.objective - fs.objective).abs() <= 1.0 + ps.objective * 0.01,
            "{domain:?}: pruned {} vs full {}",
            ps.objective,
            fs.objective
        );
        assert!(
            full.constraint_count > 5 * pruned.constraint_count,
            "{domain:?}: {} vs {}",
            full.constraint_count,
            pruned.constraint_count
        );
    }
}

#[test]
fn variant_ordering_matches_paper() {
    // On-chip buffers: CS+DT ≤ CS < Base; stalls: CS+DT = 0 < others.
    let split = SplitConfig::linear(4, 2);
    let run = |config| {
        StreamGrid::new(config)
            .execute(AppDomain::Classification, 4 * 900)
            .unwrap()
    };
    let base = run(StreamGridConfig::base());
    let cs = run(StreamGridConfig::cs(split));
    let csdt = run(StreamGridConfig::cs_dt(split));
    assert!(csdt.onchip_bytes() <= cs.onchip_bytes());
    assert!(cs.onchip_bytes() < base.onchip_bytes());
    assert_eq!(csdt.run.stall_cycles, 0);
    assert!(
        base.run.starved_cycles > 0,
        "non-determinism must cost Base bubbles"
    );
    assert!(csdt.energy.total_pj() < base.energy.total_pj());
}

#[test]
fn custom_pipeline_through_public_interface() {
    // A user-defined pipeline via the builder + session surface end to
    // end: the CS+DT transform sets the 2-chunk window on the global op,
    // the session compiles once and executes clean.
    let mut b = PipelineSpec::builder("custom_knn_stencil");
    let src = b.source("in", Shape::new(1, 3), 1);
    let knn = b.global_op("knn", Shape::new(1, 3), 1, Shape::new(4, 3), 8, (1, 1), 8);
    let sten = b.stencil("post", Shape::new(1, 3), Shape::new(1, 1), 2, (2, 1));
    let sink = b.sink("out", Shape::new(1, 1), 1);
    b.connect(src, knn).connect(knn, sten).connect(sten, sink);
    let spec = b.build().expect("a valid custom pipeline");

    let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
    let mut session = fw.session(spec);
    let elements = 768u64;
    let report = session.run(4 * elements).unwrap();
    assert_eq!(report.run.overflow_edge, None);
    assert_eq!(report.run.stall_cycles, 0);
    let compiled = session.compiled(4 * elements).unwrap();
    assert_eq!(compiled.chunk_elements, elements);
    // The kNN window holds 2 chunks of source data.
    assert!(compiled.schedule.buffer_sizes[0] >= 2 * elements);
    // The second cloud is a pure cache hit.
    session.run(4 * elements).unwrap();
    assert_eq!(session.solver_invocations(), 1);
}
