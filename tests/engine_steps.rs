//! Ceilings on the cycles the event engine steps.
//!
//! `RunReport`'s equality skips `stepped_cycles`, so neither
//! `tests/engine_equivalence.rs` nor `tests/engine_pins.rs` notices when
//! a change to the event engine's gates makes it skip less: the reports
//! stay bit-identical and only the run gets slower. This test holds the
//! count to a recorded upper bound for every registry preset under CS+DT
//! `linear(4, 2)`, at the sizes `server-mix` streams and at the two LiDAR
//! buckets `lidar-stream` executes. A change that skips more may lower a
//! ceiling; one that raises a ceiling must say why the extra steps pay.
//! On a failure the message prints the recomputed table.

use streamgrid_core::framework::{ExecMode, ExecuteOptions, StreamGrid};
use streamgrid_core::registry::PipelineRegistry;
use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
use streamgrid_sim::EngineMode;

/// `server-mix`'s three base sizes and a late compile key of each, then
/// the 4608- and 5120-element LiDAR buckets.
const SIZES: [u64; 8] = [1200, 2400, 3600, 1240, 2440, 3640, 4608, 5120];

/// One ceiling: preset, source elements, most cycles the event engine
/// may step.
type Ceiling = (&'static str, u64, u64);

#[rustfmt::skip]
const CEILINGS: [Ceiling; 32] = [
    ("classification",    1200, 95),
    ("classification",    2400, 101),
    ("classification",    3600, 104),
    ("classification",    1240, 92),
    ("classification",    2440, 104),
    ("classification",    3640, 101),
    ("classification",    4608, 101),
    ("classification",    5120, 104),
    ("neural_rendering",  1200, 84),
    ("neural_rendering",  2400, 85),
    ("neural_rendering",  3600, 84),
    ("neural_rendering",  1240, 87),
    ("neural_rendering",  2440, 86),
    ("neural_rendering",  3640, 87),
    ("neural_rendering",  4608, 85),
    ("neural_rendering",  5120, 85),
    ("registration",      1200, 268),
    ("registration",      2400, 378),
    ("registration",      3600, 375),
    ("registration",      1240, 294),
    ("registration",      2440, 361),
    ("registration",      3640, 383),
    ("registration",      4608, 376),
    ("registration",      5120, 372),
    ("segmentation",      1200, 129),
    ("segmentation",      2400, 133),
    ("segmentation",      3600, 129),
    ("segmentation",      1240, 133),
    ("segmentation",      2440, 129),
    ("segmentation",      3640, 133),
    ("segmentation",      4608, 133),
    ("segmentation",      5120, 129),
];

#[test]
fn event_engine_steps_stay_under_their_ceilings() {
    let registry = PipelineRegistry::with_paper_apps();
    let fw = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)));
    let mut computed = Vec::new();
    for spec in registry.specs() {
        for elements in SIZES {
            let design = fw.compile_spec(spec, elements).expect("preset compiles");
            let report =
                design.execute(&ExecuteOptions::for_spec(spec).with_exec_mode(ExecMode::Auto));
            assert_eq!(report.exec_mode, EngineMode::EventDriven);
            assert!(report.is_clean(), "{} at {elements}", spec.name());
            computed.push((spec.name().to_string(), elements, report.run.stepped_cycles));
        }
    }
    let within = computed.len() == CEILINGS.len()
        && CEILINGS
            .iter()
            .zip(&computed)
            .all(|(&(name, elements, ceiling), (n, e, stepped))| {
                name == n && elements == *e && *stepped <= ceiling
            });
    if !within {
        let table: String = computed
            .iter()
            .map(|(name, elements, stepped)| {
                format!(
                    "    ({:<19} {elements:>4}, {stepped}),\n",
                    format!("{name:?},")
                )
            })
            .collect();
        panic!("stepped cycles above their ceilings; recomputed:\n{table}");
    }
}
