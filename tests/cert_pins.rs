//! Pins what the certifier computes.
//!
//! The solver pins see a certificate only through the buffers it bumps,
//! so an accepted edge's peak, `δ` or witness could move without any of
//! them noticing. These tests fold every field of every `EdgeCert` (and
//! the certificate's period and chunk count) into an FNV-1a digest and
//! compare it with recorded constants, in two kinds of row:
//!
//! - `lattice`: the full-lattice certificate, `CompiledPipeline::certify`,
//!   the one certificate a compile pays (`provision` runs it to bump
//!   under-sized edges);
//! - `single`: the certifier at one chunk, `certify_schedule(&edges,
//!   &schedule, 1, 1)` on the compiled schedule. No compile runs it; it
//!   pins the walk where only one track per side is live.
//!
//! The designs are every registry preset under CS and under CS+DT at
//! `linear(n, 2)` and `n · 300` elements, for the chunk counts `n` of
//! `presets_certify_and_bound_observed_occupancy`, and every preset
//! under CS+DT `linear(4, 2)` at `cold-compile`'s request sizes. Each row pins its
//! summed certified peaks alongside the digest, so a failure says
//! whether peaks moved. On a mismatch the message prints the recomputed
//! table. A speed-up must keep every row.
//!
//! The same design groups carry the certifier's work budget: the cycles
//! its walks visit over each group's full-lattice certificates
//! (`certify_counted`) stay under recorded ceilings, so a walk that
//! keeps every digest but visits more cycles fails too.

use streamgrid_core::framework::{CompiledPipeline, StreamGrid};
use streamgrid_core::registry::PipelineRegistry;
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_optimizer::{cert_edges, certify_schedule};
use streamgrid_verify::{certify_counted, Certificate, EdgeCert};

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
}

/// Folds every field of the certificate. The patterns are exhaustive,
/// so a new field breaks this build until it is folded.
fn fold_cert(h: &mut Fnv, cert: &Certificate) {
    let Certificate {
        period,
        n_chunks,
        edges,
    } = cert;
    h.word(*period);
    h.word(*n_chunks);
    h.word(edges.len() as u64);
    for e in edges {
        let EdgeCert {
            edge,
            producer,
            consumer,
            certified_peak,
            bound,
            starve_slack,
            witness_cycle,
            chunks_analyzed,
            accepted,
        } = e;
        h.word(*edge as u64);
        h.word(*producer as u64);
        h.word(*consumer as u64);
        h.word(*certified_peak);
        h.word(*bound);
        h.word(*starve_slack);
        h.word(*witness_cycle as u64);
        h.word(*chunks_analyzed);
        h.word(u64::from(*accepted));
    }
}

/// One pinned row: which designs and pass, its summed certified peaks,
/// and the digest of every certificate.
type Pin = (&'static str, u64, u64);

/// A row being computed: its name, peak total and running digest.
struct Row {
    name: String,
    peaks: u64,
    hash: Fnv,
}

impl Row {
    fn new(name: String) -> Self {
        Row {
            name,
            peaks: 0,
            hash: Fnv::new(),
        }
    }

    fn add(&mut self, cert: &Certificate) {
        self.peaks += cert.edges.iter().map(|e| e.certified_peak).sum::<u64>();
        fold_cert(&mut self.hash, cert);
    }
}

fn check(pinned: &[Pin], computed: &[Row]) {
    let same = pinned.len() == computed.len()
        && pinned
            .iter()
            .zip(computed)
            .all(|(p, c)| (p.0, p.1, p.2) == (c.name.as_str(), c.peaks, c.hash.0));
    if !same {
        let table: String = computed
            .iter()
            .map(|c| format!("    ({:?}, {}, {:#018x}),\n", c.name, c.peaks, c.hash.0))
            .collect();
        panic!("certificates changed; recomputed pins:\n{table}");
    }
}

/// Two rows per group of designs: the full lattice, then one chunk.
///
/// On every edge the single chunk's certified peak is at most the full
/// lattice's: a bound the lattice certificate accepts also holds for
/// one chunk.
fn certify_rows(name: &str, designs: &[CompiledPipeline], computed: &mut Vec<Row>) {
    let mut full = Row::new(format!("{name}/lattice"));
    let mut single = Row::new(format!("{name}/single"));
    for design in designs {
        let lattice = design.certify();
        let chunk = certify_schedule(&design.edges, &design.schedule, 1, 1);
        for (l, c) in lattice.edges.iter().zip(&chunk.edges) {
            assert!(
                c.certified_peak <= l.certified_peak,
                "{name} at {} × {} elements, edge {}: single-chunk peak {} \
                 above the lattice's {}",
                design.n_chunks,
                design.chunk_elements,
                c.edge,
                c.certified_peak,
                l.certified_peak
            );
        }
        full.add(&lattice);
        single.add(&chunk);
    }
    computed.push(full);
    computed.push(single);
}

/// The chunk counts of `presets_certify_and_bound_observed_occupancy`.
const CHUNK_COUNTS: [u64; 6] = [1, 2, 4, 9, 16, 48];

#[rustfmt::skip]
const PRESET_PINS: [Pin; 16] = [
    ("classification/cs/lattice",       4512, 0xe85a30ce1945cd4c),
    ("classification/cs/single",        4512, 0x96b374ae25d6437e),
    ("classification/cs_dt/lattice",    4512, 0x7cc0f7611a639a03),
    ("classification/cs_dt/single",     4512, 0x510eb292f6e2d8e5),
    ("neural_rendering/cs/lattice",     3225, 0x0a54481e1eb4f696),
    ("neural_rendering/cs/single",      3225, 0x19c48118bc225398),
    ("neural_rendering/cs_dt/lattice",  3225, 0x0a351fdcb78489c7),
    ("neural_rendering/cs_dt/single",   3225, 0xb3bb961965b7c219),
    ("registration/cs/lattice",         8899, 0xc8239d78304a473d),
    ("registration/cs/single",          8894, 0x655926ce04722177),
    ("registration/cs_dt/lattice",      8899, 0x27d57fdfdbf12376),
    ("registration/cs_dt/single",       8894, 0xea5aebe634b29c8c),
    ("segmentation/cs/lattice",        16962, 0xc6f44f1db56c6767),
    ("segmentation/cs/single",         16962, 0x09fc8fa65f4f99c2),
    ("segmentation/cs_dt/lattice",     16962, 0x683a0c4a63a98208),
    ("segmentation/cs_dt/single",      16962, 0x8815515c12bc977d),
];

/// A named group of compiled designs.
type Group = (String, Vec<CompiledPipeline>);

/// Every preset under CS, then CS+DT, at `linear(n, 2)` and `n · 300`
/// elements for each of [`CHUNK_COUNTS`]: one group per preset and
/// config.
fn preset_groups() -> Vec<Group> {
    let registry = PipelineRegistry::with_paper_apps();
    let mut groups = Vec::new();
    for spec in registry.specs() {
        for (label, dt) in [("cs", false), ("cs_dt", true)] {
            let designs: Vec<CompiledPipeline> = CHUNK_COUNTS
                .iter()
                .map(|&n| {
                    let split = SplitConfig::linear(n as u32, 2);
                    let config = if dt {
                        StreamGridConfig::cs_dt(split)
                    } else {
                        StreamGridConfig::cs(split)
                    };
                    StreamGrid::new(config)
                        .compile_spec(spec, n * 300)
                        .expect("preset compiles")
                })
                .collect();
            groups.push((format!("{}/{label}", spec.name()), designs));
        }
    }
    groups
}

#[test]
fn preset_certificates_match_pins() {
    let mut computed = Vec::new();
    for (name, designs) in preset_groups() {
        certify_rows(&name, &designs, &mut computed);
    }
    check(&PRESET_PINS, &computed);
}

/// `cold-compile`'s request sizes: 4 chunks of 256 to 655 elements.
const COLD_SIZES: [u64; 6] = [4 * 256, 4 * 257, 4 * 301, 4 * 419, 4 * 512, 4 * 655];

#[rustfmt::skip]
const COLD_PINS: [Pin; 8] = [
    ("classification/cold/lattice",    6365, 0xf86065b6fc39213c),
    ("classification/cold/single",     6362, 0xa4b5803be250a5ed),
    ("neural_rendering/cold/lattice",  4581, 0x7cc2f5fd400bce8b),
    ("neural_rendering/cold/single",   4581, 0x6a125b1632295cfb),
    ("registration/cold/lattice",     12577, 0xd16dfcb872d7d891),
    ("registration/cold/single",      12569, 0x9953d97b50874109),
    ("segmentation/cold/lattice",     22923, 0xd2b99677274cb4b4),
    ("segmentation/cold/single",      22920, 0xb1e922028313c339),
];

/// Every preset under CS+DT `linear(4, 2)` at [`COLD_SIZES`]: one group
/// per preset.
fn cold_groups() -> Vec<Group> {
    let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
    PipelineRegistry::with_paper_apps()
        .specs()
        .map(|spec| {
            let designs = COLD_SIZES
                .iter()
                .map(|&elements| fw.compile_spec(spec, elements).expect("preset compiles"))
                .collect();
            (format!("{}/cold", spec.name()), designs)
        })
        .collect()
}

#[test]
fn cold_compile_certificates_match_pins() {
    let mut computed = Vec::new();
    for (name, designs) in cold_groups() {
        certify_rows(&name, &designs, &mut computed);
    }
    check(&COLD_PINS, &computed);
}

/// One work ceiling: a design group and the most cycles the certifier's
/// walks may visit over its full-lattice certificates.
type Ceiling = (&'static str, u64);

#[rustfmt::skip]
const VISIT_CEILINGS: [Ceiling; 12] = [
    ("classification/cs",      553),
    ("classification/cs_dt",   553),
    ("neural_rendering/cs",    345),
    ("neural_rendering/cs_dt", 345),
    ("registration/cs",        1368),
    ("registration/cs_dt",     1368),
    ("segmentation/cs",        918),
    ("segmentation/cs_dt",     918),
    ("classification/cold",    600),
    ("neural_rendering/cold",  378),
    ("registration/cold",      1526),
    ("segmentation/cold",      1002),
];

/// The certifier's work budget: over each group of `cert_pins`' designs,
/// the cycles visited by the one full-lattice certificate a compile
/// pays stay under the group's ceiling. A change that visits fewer
/// cycles lowers its ceilings; one that raises a ceiling must say why
/// the extra work pays. On a failure the message prints the measured
/// table.
#[test]
fn certifier_visits_stay_under_their_ceilings() {
    let measured: Vec<(String, u64)> = preset_groups()
        .into_iter()
        .chain(cold_groups())
        .map(|(name, designs)| {
            let visited = designs
                .iter()
                .map(|design| {
                    let (cert, visited) = certify_counted(
                        &cert_edges(&design.edges),
                        &design.schedule.start_cycles,
                        &design.schedule.buffer_sizes,
                        design.plan.initiation_interval,
                        design.n_chunks,
                    );
                    assert_eq!(cert, design.certify(), "{name}: one walk, one certificate");
                    visited
                })
                .sum();
            (name, visited)
        })
        .collect();
    let within = measured.len() == VISIT_CEILINGS.len()
        && VISIT_CEILINGS
            .iter()
            .zip(&measured)
            .all(|(&(name, ceiling), (n, visited))| name == n && *visited <= ceiling);
    if !within {
        let table: String = measured
            .iter()
            .map(|(name, visited)| format!("    ({:<25} {visited}),\n", format!("{name:?},")))
            .collect();
        panic!("certifier visits above their ceilings; measured:\n{table}");
    }
}
