//! The static-verification contract, end to end: every schedule the
//! compile path emits carries an accepting occupancy certificate whose
//! per-edge peaks genuinely bound what the engines observe; the linter
//! stays silent on the paper presets and speaks up (through reports or
//! `deny_lints`) on designs it should flag; and the certifier is not a
//! rubber stamp — sabotaged schedules (shrunk buffers, perturbed rates)
//! are rejected with a pinned, machine-checkable rendering.

use proptest::prelude::*;
use streamgrid_core::framework::{ExecMode, ExecuteOptions, StreamGrid};
use streamgrid_core::registry::PipelineRegistry;
use streamgrid_core::source::{ReplaySource, SizeBucketing, StreamOptions};
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_dataflow::{DataflowGraph, Rate, Shape};
use streamgrid_optimizer::{cert_edges, certify_schedule, edge_infos, optimize};
use streamgrid_verify::certify;

/// Every registry preset, across the same chunk-count matrix the engine
/// equivalence suite sweeps: the compiled schedule's full-lattice
/// certificate accepts, the linter is clean, and the certified per-edge
/// peaks upper-bound the occupancies the oracle actually observes.
#[test]
fn presets_certify_and_bound_observed_occupancy() {
    let registry = PipelineRegistry::with_paper_apps();
    for spec in registry.specs() {
        for n_chunks in [1u64, 2, 4, 9, 16, 48] {
            let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(
                n_chunks as u32,
                2,
            )));
            let compiled = fw
                .compile_spec(spec, n_chunks * 300)
                .expect("preset compiles");
            assert!(
                compiled.lints.is_empty(),
                "{} at {} chunks: unexpected lints {:?}",
                spec.name(),
                n_chunks,
                compiled.lints
            );
            let cert = compiled.certify();
            assert!(
                cert.accepted(),
                "{} at {} chunks: compile-path schedule rejected:\n{}",
                spec.name(),
                n_chunks,
                cert.render()
            );
            let report = compiled
                .execute(&ExecuteOptions::for_spec(spec).with_exec_mode(ExecMode::CycleAccurate));
            assert!(report.lints.is_clean());
            assert_eq!(report.run.buffer_peaks.len(), cert.edges.len());
            for (edge, observed) in cert.edges.iter().zip(&report.run.buffer_peaks) {
                assert!(
                    *observed <= edge.certified_peak,
                    "{} at {} chunks, edge {}: observed peak {} exceeds certified {}",
                    spec.name(),
                    n_chunks,
                    edge.edge,
                    observed,
                    edge.certified_peak
                );
            }
        }
    }
}

/// The ILP's own schedule — no latency margin, no raised bound —
/// certifies over one chunk for every preset under Base, CS and CS+DT
/// at 1 to 48 chunks of `cold-compile`'s sizes (256–655 elements) and
/// of `presets_certify_and_bound_observed_occupancy`'s (300); Base
/// schedules the whole cloud as one chunk. That is why `provision`
/// certifies only the full lattice: a single-chunk pass before it
/// would raise no bound.
#[test]
fn raw_ilp_schedules_certify_for_one_chunk() {
    for spec in PipelineRegistry::with_paper_apps().specs() {
        for n in [1u64, 4, 16, 48] {
            let split = SplitConfig::linear(n as u32, 2);
            for (label, config) in [
                ("base", StreamGridConfig::base()),
                ("cs", StreamGridConfig::cs(split)),
                ("cs_dt", StreamGridConfig::cs_dt(split)),
            ] {
                let mut graph = spec.graph().clone();
                config.apply(&mut graph);
                for chunk in [256u64, 257, 300, 301, 419, 512, 655] {
                    let elements = config.chunk_elements(n * chunk);
                    let edges = edge_infos(&graph, elements);
                    let schedule = optimize(&graph, &edges).expect("preset solves");
                    let cert = certify_schedule(&edges, &schedule, 1, 1);
                    assert!(
                        cert.accepted(),
                        "{} {label} at {n} × {chunk}: raw ILP schedule rejected:\n{}",
                        spec.name(),
                        cert.render()
                    );
                }
            }
        }
    }
}

/// Streams surface findings the compiler cannot see: a frame far below
/// its scheduled bucket is a bucketing blowup (SG003) at the stream
/// level even though each compiled design lints clean.
#[test]
fn stream_reports_surface_bucketing_blowup() {
    let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
    let mut session = fw.session(streamgrid_core::apps::AppDomain::Classification.spec());
    // 600-element frames rounded up to 2048-element schedules: more
    // than 1.5x over-provisioned, so SG003 must fire per frame.
    let report = session
        .stream(
            ReplaySource::new(&[600, 600]),
            &StreamOptions::bucketed(SizeBucketing::Quantize(2048)),
        )
        .expect("stream compiles and runs");
    assert_eq!(report.lint_warning_count(), 2);
    let messages = report.lint_messages();
    assert!(
        messages.iter().any(|m| m.contains("SG003")),
        "expected an SG003 finding, got {messages:?}"
    );

    // A tight bucket scheduled at the frame size raises nothing.
    let clean = session
        .stream(
            ReplaySource::new(&[600, 600]),
            &StreamOptions::bucketed(SizeBucketing::Exact),
        )
        .expect("stream compiles and runs");
    assert_eq!(clean.lint_warning_count(), 0);
    assert!(clean.lint_messages().is_empty());
}

/// A deterministic sabotage: slow one consumer's drain rate after the
/// fact and re-certify against the original buffer bounds. The edge now
/// accumulates far beyond its provisioned capacity, and the certifier
/// must say so.
#[test]
fn perturbed_rate_rejects_against_original_bounds() {
    let mut g = DataflowGraph::new();
    let src = g.source("src", Shape::new(1, 2), 1);
    let map = g.map("map", Shape::new(1, 2), Shape::new(1, 2), 2);
    let sink = g.sink("sink", Shape::new(1, 2), 1);
    g.connect(src, map);
    g.connect(map, sink);
    let edges = edge_infos(&g, 300);
    let schedule = optimize(&g, &edges).expect("optimizes");
    let honest = certify_schedule(&edges, &schedule, 1, 1);
    assert!(honest.accepted(), "{}", honest.render());

    let mut sabotaged = cert_edges(&edges);
    let tau = sabotaged[0].tau_in;
    sabotaged[0].tau_in = Rate::new(tau.num(), tau.den() * 2);
    let cert = certify(
        &sabotaged,
        &schedule.start_cycles,
        &schedule.buffer_sizes,
        1,
        1,
    );
    assert!(
        !cert.accepted(),
        "halving a drain rate must blow the original bound:\n{}",
        cert.render()
    );
    assert_eq!(cert.first_violation().expect("violation").edge, 0);
}

/// Snapshot: the rejected certificate's rendering is a stable,
/// machine-checkable artifact — tooling greps it, so its exact shape is
/// pinned here.
#[test]
fn rejected_certificate_render_snapshot() {
    use streamgrid_verify::CertEdge;
    let edge = CertEdge {
        producer: 0,
        consumer: 1,
        tau_out: Rate::new(1, 1),
        tau_in: Rate::new(1, 1),
        volume: 10,
        depth: 0,
        global_consumer: false,
        window_chunks: 1,
    };
    let cert = certify(&[edge], &[0, 0], &[0], 1, 1);
    assert_eq!(
        cert.render(),
        "certificate REJECTED: 1 edges, 1 chunks, II=1\n  \
         edge 0 (0 -> 1): peak 1 > bound 0 (slack -1, delta 1, witness cycle 0, 1 chunks)\n"
    );
}

/// A random stage for the acceptance/sabotage property: simple chain
/// pipelines whose rates and depths vary enough to exercise fractional
/// lattices.
#[derive(Debug, Clone)]
enum StageKind {
    Map { shape: u32, depth: u32 },
    Stencil { reuse: u32, depth: u32 },
    Reduction { factor: u32, depth: u32 },
}

fn arb_stage() -> impl Strategy<Value = StageKind> {
    prop_oneof![
        (1u32..4, 0u32..8).prop_map(|(shape, depth)| StageKind::Map { shape, depth }),
        (2u32..5, 0u32..6).prop_map(|(reuse, depth)| StageKind::Stencil { reuse, depth }),
        (2u32..8, 0u32..6).prop_map(|(factor, depth)| StageKind::Reduction { factor, depth }),
    ]
}

fn build_chain(stages: &[StageKind]) -> DataflowGraph {
    let mut g = DataflowGraph::new();
    let attrs = 2u32;
    let mut prev = g.source("src", Shape::new(1, attrs), 1);
    for (i, s) in stages.iter().enumerate() {
        let node = match *s {
            StageKind::Map { shape, depth } => g.map(
                &format!("map{i}"),
                Shape::new(1, attrs),
                Shape::new(shape, attrs),
                depth,
            ),
            StageKind::Stencil { reuse, depth } => g.stencil(
                &format!("stencil{i}"),
                Shape::new(1, attrs),
                Shape::new(1, attrs),
                depth,
                (reuse, 1),
            ),
            StageKind::Reduction { factor, depth } => g.reduction(
                &format!("reduce{i}"),
                Shape::new(1, attrs),
                Shape::new(1, attrs),
                depth,
                factor,
            ),
        };
        g.connect(prev, node);
        prev = node;
    }
    let sink = g.sink("sink", Shape::new(1, attrs), 1);
    g.connect(prev, sink);
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The ILP's own schedule over a random pipeline certifies accepting
    /// for one chunk — and the certificate is sharp: shaving a single element off the
    /// busiest buffer flips it to rejected at exactly that edge.
    #[test]
    fn ilp_schedules_certify_and_sabotage_rejects(
        stages in prop::collection::vec(arb_stage(), 1..6),
        chunk_points in 50u64..400,
    ) {
        let g = build_chain(&stages);
        prop_assume!(g.validate().is_ok());
        let elements = chunk_points * 2;
        let edges = edge_infos(&g, elements);
        prop_assume!(edges.iter().all(|e| e.volume > 0));
        let schedule = match optimize(&g, &edges) {
            Ok(s) => s,
            Err(e) => return Err(TestCaseError::fail(format!("optimize failed: {e}"))),
        };
        let cert = certify_schedule(&edges, &schedule, 1, 1);
        prop_assert!(cert.accepted(), "honest schedule rejected:\n{}", cert.render());

        // Sabotage: undercut the busiest edge's certified peak by one.
        let victim = cert
            .edges
            .iter()
            .max_by_key(|e| e.certified_peak)
            .expect("at least one edge");
        prop_assume!(victim.certified_peak > 0);
        let mut buffers = schedule.buffer_sizes.clone();
        buffers[victim.edge] = victim.certified_peak - 1;
        let sabotaged = certify(&cert_edges(&edges), &schedule.start_cycles, &buffers, 1, 1);
        prop_assert!(!sabotaged.accepted(), "undersized buffer accepted");
        prop_assert_eq!(
            sabotaged.first_violation().expect("violation").edge,
            victim.edge
        );
    }
}
