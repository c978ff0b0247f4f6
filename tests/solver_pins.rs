//! Pins the ILP solver's exact trajectory.
//!
//! Which optimal vertex an LP relaxation returns depends on every pivot
//! the simplex makes, and branch & bound branches on that vertex. So a
//! kernel change that keeps every optimum but alters one pivot can still
//! move a start cycle, a buffer size or the node count. These tests fold
//! each solve's full output into an FNV-1a digest and compare it with
//! constants recorded from the sparse kernel with the integer-row
//! presolve (each preset solve takes one node):
//!
//! - every registry preset × {CS, CS+DT} (`linear(4, 2)`) at eight chunk
//!   sizes across the cold-compile workload's range (256–656 elements
//!   per chunk): start cycles, buffer sizes, makespan, simplex pivots and
//!   B&B nodes of each compiled `Schedule`;
//! - two unpruned `Full { stride }` formulations (classification and
//!   registration): the `Solution`'s values and objective bit for bit,
//!   its pivots and its nodes.
//!
//! The pivot and node totals are pinned alongside each digest, so a
//! failure says whether the search itself moved. On a mismatch the
//! message prints the recomputed table.
//!
//! A third table pins only the optimum: the objective of each preset's
//! pruned formulation over the same sizes, to a millionth. A solver
//! change may move the trajectory (another optimal vertex, fewer nodes)
//! on purpose, with the modelled metrics it moves measured, but never
//! the optimum, so this table must never be re-recorded.

use streamgrid_core::apps::AppDomain;
use streamgrid_core::framework::StreamGrid;
use streamgrid_core::registry::PipelineRegistry;
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_dataflow::DataflowGraph;
use streamgrid_ilp::Solution;
use streamgrid_optimizer::{asap_schedule, build, edge_infos, FormulationKind, Schedule};

/// Chunks per cloud, as in the cold-compile workload.
const CHUNKS: u64 = 4;

/// Elements per chunk: eight sizes spread over 256–656.
const CHUNK_SIZES: [u64; 8] = [256, 311, 369, 422, 481, 537, 598, 655];

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, xs: impl ExactSizeIterator<Item = u64>) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x);
        }
    }
}

/// One pinned row: what was solved, its summed simplex pivots and B&B
/// nodes, and the digest of everything it returned.
type Pin = (&'static str, u64, u64, u64);

fn fold_schedule(h: &mut Fnv, s: &Schedule) {
    h.words(s.start_cycles.iter().copied());
    h.words(s.buffer_sizes.iter().copied());
    h.word(s.makespan);
    h.word(s.lp_iterations);
    h.word(s.solver_nodes);
}

fn fold_solution(h: &mut Fnv, s: &Solution) {
    h.words(s.values.iter().map(|v| v.to_bits()));
    h.word(s.objective.to_bits());
    h.word(s.lp_iterations);
    h.word(s.nodes);
}

fn check(pinned: &[Pin], computed: &[(String, u64, u64, u64)]) {
    let same = pinned.len() == computed.len()
        && pinned
            .iter()
            .zip(computed)
            .all(|(p, c)| (p.0, p.1, p.2, p.3) == (c.0.as_str(), c.1, c.2, c.3));
    if !same {
        let table: String = computed
            .iter()
            .map(|(name, pivots, nodes, digest)| {
                format!("    ({name:?}, {pivots}, {nodes}, {digest:#018x}),\n")
            })
            .collect();
        panic!("solver trajectory changed; recomputed pins:\n{table}");
    }
}

/// The two transforms every preset is pinned under.
fn configs() -> [(&'static str, StreamGridConfig); 2] {
    let split = SplitConfig::linear(CHUNKS as u32, 2);
    [
        ("cs", StreamGridConfig::cs(split)),
        ("cs_dt", StreamGridConfig::cs_dt(split)),
    ]
}

#[rustfmt::skip]
const SCHEDULE_PINS: [Pin; 8] = [
    ("classification/cs",      192, 8, 0x50a0aee3bc581dd4),
    ("classification/cs_dt",   192, 8, 0x821c1c575f89fa61),
    ("neural_rendering/cs",    144, 8, 0x805ca8930a466f13),
    ("neural_rendering/cs_dt", 144, 8, 0xcb8a79c719569e9e),
    ("registration/cs",        281, 8, 0xe115cc123d052d71),
    ("registration/cs_dt",     281, 8, 0x642b36bd468cd3ea),
    ("segmentation/cs",        248, 8, 0x0bfbbaef99e5b2e6),
    ("segmentation/cs_dt",     248, 8, 0x823bd3ef961f3d38),
];

#[test]
fn preset_schedules_match_pinned_trajectories() {
    let mut computed = Vec::new();
    for spec in PipelineRegistry::with_paper_apps().specs() {
        for (config_name, config) in configs() {
            let fw = StreamGrid::new(config);
            let mut h = Fnv::new();
            let (mut pivots, mut nodes) = (0, 0);
            for chunk in CHUNK_SIZES {
                let schedule = fw
                    .compile_spec(spec, chunk * CHUNKS)
                    .unwrap_or_else(|e| panic!("{} {config_name} {chunk}: {e}", spec.name()))
                    .schedule;
                fold_schedule(&mut h, &schedule);
                pivots += schedule.lp_iterations;
                nodes += schedule.solver_nodes;
            }
            computed.push((format!("{}/{config_name}", spec.name()), pivots, nodes, h.0));
        }
    }
    check(&SCHEDULE_PINS, &computed);
}

/// Builds `graph`'s ILP at `elements` per chunk under the makespan limit
/// `optimize` uses, and solves it.
fn solve_formulation(graph: &DataflowGraph, elements: u64, kind: FormulationKind) -> Solution {
    let edges = edge_infos(graph, elements);
    let (_, asap) = asap_schedule(graph, &edges);
    let limit = asap + graph.node_count() as f64 + 1.0;
    build(graph, elements, kind, limit).model.solve().unwrap()
}

#[rustfmt::skip]
const FULL_PINS: [Pin; 2] = [
    ("Classification/900/16", 5376,  97, 0x5a46d869bf65d7ba),
    ("Registration/512/64",   4266, 111, 0xc68ce72ddea25340),
];

#[test]
fn full_formulations_match_pinned_trajectories() {
    let mut computed = Vec::new();
    for (domain, elements, stride) in [
        (AppDomain::Classification, 900u64, 16u64),
        (AppDomain::Registration, 512, 64),
    ] {
        let graph = domain.spec().into_graph();
        let sol = solve_formulation(&graph, elements, FormulationKind::Full { stride });
        let mut h = Fnv::new();
        fold_solution(&mut h, &sol);
        computed.push((
            format!("{domain:?}/{elements}/{stride}"),
            sol.lp_iterations,
            sol.nodes,
            h.0,
        ));
    }
    check(&FULL_PINS, &computed);
}

#[rustfmt::skip]
const OBJECTIVE_PINS: [(&str, u64); 8] = [
    ("classification/cs",      0xc6e851d2d15ec92e),
    ("classification/cs_dt",   0xc6e851d2d15ec92e),
    ("neural_rendering/cs",    0x8a5724382cd4cf59),
    ("neural_rendering/cs_dt", 0x8a5724382cd4cf59),
    ("registration/cs",        0x8de50b082b310840),
    ("registration/cs_dt",     0x8de50b082b310840),
    ("segmentation/cs",        0xa6d2ddc148a05a49),
    ("segmentation/cs_dt",     0xa6d2ddc148a05a49),
];

#[test]
fn preset_optima_match_pinned_objectives() {
    let mut computed = Vec::new();
    for spec in PipelineRegistry::with_paper_apps().specs() {
        for (config_name, config) in configs() {
            let mut graph = spec.graph().clone();
            config.apply(&mut graph);
            let mut h = Fnv::new();
            for chunk in CHUNK_SIZES {
                let objective = solve_formulation(&graph, chunk, FormulationKind::Pruned).objective;
                h.word((objective * 1e6).round() as i64 as u64);
            }
            computed.push((format!("{}/{config_name}", spec.name()), h.0));
        }
    }
    let same = computed
        .iter()
        .map(|(name, digest)| (name.as_str(), *digest))
        .eq(OBJECTIVE_PINS.iter().copied());
    if !same {
        let table: String = computed
            .iter()
            .map(|(name, digest)| format!("    ({name:?}, {digest:#018x}),\n"))
            .collect();
        panic!("an optimum moved; recomputed pins:\n{table}");
    }
}
