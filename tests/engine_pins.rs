//! Pins what the engines simulate.
//!
//! `tests/engine_equivalence.rs` holds the engines to each other, but
//! every engine steps stages through the same `step_stage`, so a change
//! to the stepper moves them all together and still passes there. These
//! tests fold each run's simulated result — every field `RunReport`'s
//! equality compares, energy by its bits — into an FNV-1a digest and
//! compare it with recorded constants:
//!
//! - every registry preset under CS+DT `linear(4, 2)` at 1200, 2400,
//!   3600, 4608 and 5120 elements (the `server-mix` and LiDAR sizes), on
//!   `Auto` and on `CycleAccurate`;
//! - every preset CS-only `linear(2048, 2)` at 2048 and 4096 elements,
//!   seeds 1 and 7, on the oracle (variable latency, the `cs-variable`
//!   path);
//! - one undersized-buffer overflow and one truncated cycle budget,
//!   both through [`streamgrid_sim::run_with`].
//!
//! Each row pins its summed cycles alongside the digest, so a failure
//! says whether run lengths moved. On a mismatch the message prints the
//! recomputed table. A speed-up must keep every row; re-record only for
//! a deliberate change to what the engines model, with the modelled
//! metrics it moves reported.

use streamgrid_core::framework::{CompiledPipeline, ExecMode, ExecuteOptions, StreamGrid};
use streamgrid_core::registry::PipelineRegistry;
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_sim::{
    run_with, BufferPolicy, EnergyModel, EngineConfig, EngineMode, GlobalLatencyModel, RunReport,
};

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

    fn words(&mut self, xs: &[u64]) {
        self.word(xs.len() as u64);
        for &x in xs {
            self.word(x);
        }
    }
}

/// Folds every field `RunReport`'s equality compares. The pattern is
/// exhaustive, so a new field breaks this build until it is folded or
/// named as excluded.
fn fold_run(h: &mut Fnv, r: &RunReport) {
    let RunReport {
        cycles,
        buffer_peaks,
        buffer_capacities,
        overflow_edge,
        truncated,
        stall_cycles,
        starved_cycles,
        dram_read_bytes,
        dram_write_bytes,
        energy,
        // How the engine ran, not what it simulated: outside equality.
        stepped_cycles: _,
        backoff: _,
    } = r;
    h.word(*cycles);
    h.words(buffer_peaks);
    h.words(buffer_capacities);
    h.word(overflow_edge.map_or(u64::MAX, |e| e as u64));
    h.word(u64::from(*truncated));
    h.word(*stall_cycles);
    h.word(*starved_cycles);
    h.word(*dram_read_bytes);
    h.word(*dram_write_bytes);
    h.word(energy.sram_pj.to_bits());
    h.word(energy.dram_pj.to_bits());
    h.word(energy.compute_pj.to_bits());
}

/// One pinned row: what ran, its summed simulated cycles, and the
/// digest of every report.
type Pin = (&'static str, u64, u64);

/// A row being computed: its name, cycle total and running digest.
struct Row {
    name: String,
    cycles: u64,
    hash: Fnv,
}

impl Row {
    fn new(name: String) -> Self {
        Row {
            name,
            cycles: 0,
            hash: Fnv::new(),
        }
    }

    fn add(&mut self, r: &RunReport) {
        self.cycles += r.cycles;
        fold_run(&mut self.hash, r);
    }
}

fn check(pinned: &[Pin], computed: &[Row]) {
    let same = pinned.len() == computed.len()
        && pinned
            .iter()
            .zip(computed)
            .all(|(p, c)| (p.0, p.1, p.2) == (c.name.as_str(), c.cycles, c.hash.0));
    if !same {
        let table: String = computed
            .iter()
            .map(|c| format!("    ({:?}, {}, {:#018x}),\n", c.name, c.cycles, c.hash.0))
            .collect();
        panic!("simulated results changed; recomputed pins:\n{table}");
    }
}

/// CS+DT designs at `server-mix`'s base sizes and the two LiDAR buckets.
const DT_SIZES: [u64; 5] = [1200, 2400, 3600, 4608, 5120];

#[rustfmt::skip]
const DT_PINS: [Pin; 8] = [
    ("classification/auto",      7308, 0xb39627900ae3086e),
    ("classification/oracle",    7308, 0xb39627900ae3086e),
    ("neural_rendering/auto",    5037, 0x89886366087762ff),
    ("neural_rendering/oracle",  5037, 0x89886366087762ff),
    ("registration/auto",       64260, 0x7efb5660785eb4c4),
    ("registration/oracle",     64260, 0x7efb5660785eb4c4),
    ("segmentation/auto",       19462, 0xdc041a27a522f109),
    ("segmentation/oracle",     19462, 0xdc041a27a522f109),
];

#[test]
fn cs_dt_presets_match_pinned_runs() {
    let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
    let mut computed = Vec::new();
    for spec in PipelineRegistry::with_paper_apps().specs() {
        let designs: Vec<CompiledPipeline> = DT_SIZES
            .iter()
            .map(|&elements| fw.compile_spec(spec, elements).expect("preset compiles"))
            .collect();
        for (label, mode) in [
            ("auto", ExecMode::Auto),
            ("oracle", ExecMode::CycleAccurate),
        ] {
            let options = ExecuteOptions::for_spec(spec).with_exec_mode(mode);
            let mut row = Row::new(format!("{}/{label}", spec.name()));
            for design in &designs {
                row.add(&design.execute(&options).run);
            }
            computed.push(row);
        }
    }
    check(&DT_PINS, &computed);
}

#[rustfmt::skip]
const CS_PINS: [Pin; 4] = [
    ("classification/cs",    73836, 0xe68ca0327312fc75),
    ("neural_rendering/cs", 139332, 0xf301355bb73cbd01),
    ("registration/cs",      86414, 0x5f7e5bf88f4fcfbc),
    ("segmentation/cs",      73856, 0x467bc533273687f5),
];

#[test]
fn cs_only_variable_latency_matches_pinned_runs() {
    let fw = StreamGrid::new(StreamGridConfig::cs(SplitConfig::linear(2048, 2)));
    let mut computed = Vec::new();
    for spec in PipelineRegistry::with_paper_apps().specs() {
        let mut row = Row::new(format!("{}/cs", spec.name()));
        for elements in [2048u64, 4096] {
            let design = fw.compile_spec(spec, elements).expect("preset compiles");
            for seed in [1u64, 7] {
                let options = ExecuteOptions {
                    seed,
                    ..ExecuteOptions::for_spec(spec).with_exec_mode(ExecMode::CycleAccurate)
                };
                row.add(&design.execute(&options).run);
            }
        }
        computed.push(row);
    }
    check(&CS_PINS, &computed);
}

#[rustfmt::skip]
const BROKEN_PINS: [Pin; 2] = [
    ("registration/overflow",  1113, 0xed1cbdceb58d102f),
    ("registration/truncated", 2294, 0x1b59d77127579015),
];

/// A run that stops early: a strict buffer sized below its need
/// overflows, and a budget of half the clean run truncates.
#[test]
fn overflowing_and_truncated_runs_match_pins() {
    let registry = PipelineRegistry::with_paper_apps();
    let spec = registry.get("registration").expect("a paper preset");
    let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
    let design = fw.compile_spec(spec, 1200).expect("preset compiles");
    let config = EngineConfig {
        n_chunks: design.n_chunks,
        global_latency: GlobalLatencyModel::Deterministic,
        buffer_policy: BufferPolicy::Strict,
        macs_per_element: spec.macs_per_element(),
        ..EngineConfig::default()
    };
    let run = |schedule, config: &EngineConfig| {
        run_with(
            &design.graph,
            &design.edges,
            schedule,
            &design.plan,
            &EnergyModel::default(),
            config,
            EngineMode::CycleAccurate,
        )
    };

    let mut undersized = design.schedule.clone();
    let largest = (0..undersized.buffer_sizes.len())
        .max_by_key(|&e| undersized.buffer_sizes[e])
        .expect("the design has edges");
    undersized.buffer_sizes[largest] /= 2;
    let overflow = run(&undersized, &config);
    assert!(overflow.overflow_edge.is_some(), "{overflow:?}");

    let clean = run(&design.schedule, &config);
    let truncated = run(
        &design.schedule,
        &EngineConfig {
            max_cycles: clean.cycles / 2,
            ..config
        },
    );
    assert!(truncated.truncated, "{truncated:?}");

    let mut computed = Vec::new();
    for (label, report) in [("overflow", &overflow), ("truncated", &truncated)] {
        let mut row = Row::new(format!("registration/{label}"));
        row.add(report);
        computed.push(row);
    }
    check(&BROKEN_PINS, &computed);
}
