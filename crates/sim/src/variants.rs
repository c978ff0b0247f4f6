//! The paper's four design points (Sec. 7 "Variants"):
//!
//! * **Base** — line-buffered architecture on the *unsplit* pipeline with
//!   canonical (input-dependent) global operations;
//! * **Base+$** — `Base` with the line buffers replaced by a fully-
//!   associative cache;
//! * **CS** — compulsory splitting only: chunked pipeline, but global
//!   ops keep their variable latency, so buffers must be over-
//!   provisioned and stalls remain;
//! * **CS+DT** — the full design: chunked and deterministic, exact ILP
//!   buffer sizes, zero stalls.

use serde::{Deserialize, Serialize};
use streamgrid_dataflow::DataflowGraph;
use streamgrid_optimizer::{
    certify_and_raise, edge_infos, optimize, plan_multi_chunk, EdgeInfo, MultiChunkPlan,
    OptimizeConfig, OptimizeError, Schedule,
};

use crate::cache::CacheModel;
use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::engine::{
    run_with, BufferPolicy, EngineConfig, EngineMode, GlobalLatencyModel, RunReport,
};

/// The four design points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Variant {
    /// No splitting, no deterministic termination.
    Base,
    /// `Base` with a fully-associative cache instead of line buffers.
    BaseCache,
    /// Compulsory splitting only.
    Cs,
    /// Compulsory splitting + deterministic termination.
    CsDt,
}

impl Variant {
    /// All variants in presentation order.
    pub const ALL: [Variant; 4] = [
        Variant::Base,
        Variant::BaseCache,
        Variant::Cs,
        Variant::CsDt,
    ];

    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            Variant::Base => "Base",
            Variant::BaseCache => "Base+$",
            Variant::Cs => "CS",
            Variant::CsDt => "CS+DT",
        }
    }
}

/// Evaluation result of one variant on one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VariantReport {
    /// Which design point.
    pub variant: Variant,
    /// Provisioned on-chip buffer bytes.
    pub onchip_bytes: u64,
    /// End-to-end cycles for the whole cloud.
    pub cycles: u64,
    /// DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// On-chip memory stall cycles — write-blocked on a full buffer
    /// (0 for CS+DT by construction).
    pub stall_cycles: u64,
    /// Starvation cycles — stages waiting on slower/non-deterministic
    /// producers (the pipeline bubbles of Sec. 3).
    pub starved_cycles: u64,
    /// Energy tally.
    pub energy: EnergyBreakdown,
}

/// Workload/variant evaluation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VariantConfig {
    /// Total input elements for the whole cloud (points × attrs).
    pub total_elements: u64,
    /// Chunks for the CS variants.
    pub n_chunks: u64,
    /// Coefficient of variation of non-DT global-op latency (measured
    /// from traversal-step profiles; Sec. 3 reports ≈ 0.8 on KITTI).
    pub latency_cv: f64,
    /// Bytes per element.
    pub bytes_per_element: u64,
    /// Datapath intensity (MACs per element) — app-specific; see
    /// `EngineConfig::macs_per_element`.
    pub macs_per_element: f64,
    /// RNG seed for the variable-latency model.
    pub seed: u64,
}

impl VariantConfig {
    /// A config for `total_elements` with paper-like defaults
    /// (4 chunks, cv 0.8).
    pub fn new(total_elements: u64) -> Self {
        VariantConfig {
            total_elements,
            n_chunks: 4,
            latency_cv: 0.8,
            bytes_per_element: 4,
            macs_per_element: 256.0,
            seed: 1,
        }
    }
}

/// Sizes `graph`'s buffers at `chunk_elements` as `compile_spec` does:
/// the ILP solve, the latency margin `margin_cv` a non-DT design must
/// carry, then every bound the certificate over `n_chunks` chunks at the
/// plan's initiation interval rejects raised to its certified peak.
fn provision(
    graph: &DataflowGraph,
    chunk_elements: u64,
    n_chunks: u64,
    margin_cv: Option<f64>,
) -> Result<(Vec<EdgeInfo>, Schedule, MultiChunkPlan), OptimizeError> {
    let edges = edge_infos(graph, chunk_elements);
    let mut schedule = optimize(graph, &OptimizeConfig::new(chunk_elements))?;
    let plan = plan_multi_chunk(graph, &edges);
    if let Some(cv) = margin_cv {
        for s in schedule.buffer_sizes.iter_mut() {
            *s = (*s as f64 * (1.0 + cv)).ceil() as u64;
        }
    }
    certify_and_raise(&edges, &mut schedule, plan.initiation_interval, n_chunks);
    Ok((edges, schedule, plan))
}

/// Evaluates one variant of `graph` (the CS-transformed graph should
/// already carry `window_chunks` on its global ops).
///
/// # Errors
///
/// Propagates [`OptimizeError`] from the buffer optimizer.
pub fn evaluate(
    graph: &DataflowGraph,
    variant: Variant,
    config: &VariantConfig,
    energy_model: &EnergyModel,
) -> Result<VariantReport, OptimizeError> {
    // Ceiling division, as `compile_spec` chunks: a floor would leave up
    // to `n - 1` elements unscheduled.
    let n = config.n_chunks.max(1);
    let cs_chunk_elements = config.total_elements.div_ceil(n).max(1);
    let (chunk_elements, n_chunks) = match variant {
        Variant::Base | Variant::BaseCache => (config.total_elements, 1u64),
        Variant::Cs | Variant::CsDt => (cs_chunk_elements, n),
    };
    // CS without DT cannot size buffers exactly offline: provision the
    // ILP result with a variability margin (the cost of non-determinism).
    let margin = matches!(variant, Variant::Cs | Variant::Base).then_some(config.latency_cv);
    let (edges, schedule, plan) = provision(graph, chunk_elements, n_chunks, margin)?;

    let (latency, policy) = match variant {
        Variant::CsDt => (GlobalLatencyModel::Deterministic, BufferPolicy::Strict),
        _ => (
            GlobalLatencyModel::Variable {
                cv: config.latency_cv,
                seed: config.seed,
            },
            BufferPolicy::Elastic,
        ),
    };
    // CS+DT is deterministic, so the event-driven engine is exact (and
    // much faster for chunked sweeps); the others need the oracle.
    let report: RunReport = run_with(
        graph,
        &edges,
        &schedule,
        &plan,
        energy_model,
        &EngineConfig {
            bytes_per_element: config.bytes_per_element,
            n_chunks,
            global_latency: latency,
            buffer_policy: policy,
            macs_per_element: config.macs_per_element,
            ..EngineConfig::default()
        },
        EngineMode::fastest_exact(latency),
    );

    let mut onchip_bytes = report.onchip_bytes(config.bytes_per_element);
    let mut dram_bytes = report.dram_read_bytes + report.dram_write_bytes;
    let mut cycles = report.cycles;
    let mut stall_cycles = report.stall_cycles;
    let starved_cycles = report.starved_cycles;
    let mut energy = report.energy;

    if matches!(variant, Variant::BaseCache) {
        // Replace the line buffers with a cache of the size the CS+DT
        // design would use (the paper's "comparable on-chip buffer").
        let (_, csdt, _) = provision(graph, cs_chunk_elements, n, None)?;
        let cache = CacheModel {
            capacity_bytes: csdt.total_buffer_elements * config.bytes_per_element,
            ..CacheModel::default()
        };
        // Every intermediate edge streams its full volume through the
        // cache.
        let volumes: Vec<u64> = edges
            .iter()
            .map(|e| e.volume * config.bytes_per_element)
            .collect();
        let cr = cache.streams(&volumes);
        onchip_bytes = cache.capacity_bytes;
        dram_bytes += cr.dram_bytes;
        stall_cycles += cr.stall_cycles;
        cycles += cr.stall_cycles;
        energy.dram_pj += energy_model.dram_pj(cr.dram_bytes);
        energy.sram_pj += energy_model.sram_access_pj(cr.hit_bytes, cache.capacity_bytes);
    }

    Ok(VariantReport {
        variant,
        onchip_bytes,
        cycles,
        dram_bytes,
        stall_cycles,
        starved_cycles,
        energy,
    })
}

/// Evaluates all four variants.
///
/// # Errors
///
/// Propagates the first [`OptimizeError`].
pub fn evaluate_all(
    graph: &DataflowGraph,
    config: &VariantConfig,
    energy_model: &EnergyModel,
) -> Result<Vec<VariantReport>, OptimizeError> {
    Variant::ALL
        .iter()
        .map(|&v| evaluate(graph, v, config, energy_model))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamgrid_dataflow::Shape;

    fn pipeline(window: u32) -> DataflowGraph {
        let mut g = DataflowGraph::new();
        let src = g.source("src", Shape::new(1, 3), 1);
        let scale = g.map("scale", Shape::new(1, 3), Shape::new(1, 3), 2);
        let rs = g.global_op("range", Shape::new(1, 3), 1, Shape::new(1, 3), 1, (1, 1), 8);
        let mlp = g.map("mlp", Shape::new(1, 3), Shape::new(1, 3), 4);
        let sink = g.sink("sink", Shape::new(1, 3), 1);
        g.set_window_chunks(rs, window);
        g.connect(src, scale);
        g.connect(scale, rs);
        g.connect(rs, mlp);
        g.connect(mlp, sink);
        g
    }

    #[test]
    fn csdt_uses_less_buffer_than_base() {
        let cfg = VariantConfig {
            n_chunks: 4,
            ..VariantConfig::new(2400)
        };
        let em = EnergyModel::default();
        let base = evaluate(&pipeline(1), Variant::Base, &cfg, &em).unwrap();
        let csdt = evaluate(&pipeline(2), Variant::CsDt, &cfg, &em).unwrap();
        assert!(
            csdt.onchip_bytes < base.onchip_bytes / 2,
            "CS+DT {} vs Base {}",
            csdt.onchip_bytes,
            base.onchip_bytes
        );
    }

    #[test]
    fn csdt_is_stall_free() {
        let cfg = VariantConfig::new(2400);
        let em = EnergyModel::default();
        let csdt = evaluate(&pipeline(2), Variant::CsDt, &cfg, &em).unwrap();
        assert_eq!(csdt.stall_cycles, 0, "DT must eliminate memory stalls");
    }

    #[test]
    fn base_starves_under_variable_latency() {
        let cfg = VariantConfig::new(2400);
        let em = EnergyModel::default();
        let base = evaluate(&pipeline(1), Variant::Base, &cfg, &em).unwrap();
        assert!(
            base.starved_cycles > 0,
            "non-deterministic latency must create pipeline bubbles"
        );
    }

    #[test]
    fn cache_variant_adds_dram_traffic() {
        let cfg = VariantConfig::new(9600);
        let em = EnergyModel::default();
        let base = evaluate(&pipeline(1), Variant::Base, &cfg, &em).unwrap();
        let cache = evaluate(&pipeline(1), Variant::BaseCache, &cfg, &em).unwrap();
        assert!(
            cache.dram_bytes > base.dram_bytes,
            "cache {} vs base {}",
            cache.dram_bytes,
            base.dram_bytes
        );
    }

    #[test]
    fn cs_buffers_between_base_and_csdt() {
        let cfg = VariantConfig::new(2400);
        let em = EnergyModel::default();
        let base = evaluate(&pipeline(1), Variant::Base, &cfg, &em).unwrap();
        let cs = evaluate(&pipeline(2), Variant::Cs, &cfg, &em).unwrap();
        let csdt = evaluate(&pipeline(2), Variant::CsDt, &cfg, &em).unwrap();
        assert!(cs.onchip_bytes > csdt.onchip_bytes);
        assert!(cs.onchip_bytes < base.onchip_bytes);
    }

    #[test]
    fn uneven_clouds_round_chunks_up() {
        // 2,401 elements over 4 chunks need 601-element chunks, the same
        // design 2,404 elements get; 600-element chunks would drop one.
        let (graph, em) = (pipeline(2), EnergyModel::default());
        let at = |elements, variant| {
            evaluate(&graph, variant, &VariantConfig::new(elements), &em).unwrap()
        };
        for variant in [Variant::Cs, Variant::CsDt] {
            assert_eq!(at(2401, variant), at(2404, variant), "{variant:?}");
        }
        // Base+$ sizes its cache from that CS+DT design.
        assert_eq!(
            at(2401, Variant::BaseCache).onchip_bytes,
            at(2404, Variant::BaseCache).onchip_bytes
        );
    }

    #[test]
    fn energy_tracks_buffer_size() {
        let cfg = VariantConfig::new(4800);
        let em = EnergyModel::default();
        let base = evaluate(&pipeline(1), Variant::Base, &cfg, &em).unwrap();
        let csdt = evaluate(&pipeline(2), Variant::CsDt, &cfg, &em).unwrap();
        assert!(
            csdt.energy.total_pj() < base.energy.total_pj(),
            "CS+DT {} vs Base {}",
            csdt.energy.total_pj(),
            base.energy.total_pj()
        );
    }
}
