//! Analytic models of the five prior accelerators compared in Fig. 18.
//!
//! These are substitutes: no prior RTL or simulator is public enough to
//! rebuild exactly, so each accelerator is modeled from its
//! published dataflow, normalized to the same hardware budget the paper
//! uses (256 PEs, comparable on-chip buffers). Cycles and energy are
//! driven by *measured workload statistics* (traversal steps, MAC
//! counts, intermediate volumes from this repository's own substrates),
//! not by the paper's reported ratios — so the comparison shapes are
//! produced, not transcribed.
//!
//! Dataflow summaries the models encode:
//!
//! * **Mesorasi** (MICRO'20): delayed aggregation — neighbor search and
//!   MLP run as separate phases with intermediate feature maps spilled
//!   to DRAM; phases serialize.
//! * **PointAcc** (MICRO'21): sorting-based neighbor units + matrix
//!   units, better phase overlap, but intermediates still travel
//!   off-chip between layers.
//! * **QuickNN** (HPCA'20): kd-tree kNN engine; every query runs a full
//!   traversal; tree banks partially cached, points re-fetched.
//! * **Tigris** (MICRO'19): two-phase culling + fine search for
//!   registration; fewer steps per query than QuickNN but off-chip
//!   intermediates.
//! * **GScore** (ASPLOS'24): 3DGS renderer with hierarchical sorting
//!   units and shading cores; per-tile Gaussian lists written to DRAM.

use serde::{Deserialize, Serialize};

use crate::energy::{EnergyBreakdown, EnergyModel};

/// Measured workload statistics the models consume.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Points per cloud/frame.
    pub points: u64,
    /// Neighbor queries issued per cloud.
    pub queries: u64,
    /// Mean kd-traversal steps per query under the canonical algorithm.
    pub mean_steps_full: f64,
    /// Mean steps under CS+DT (chunk-restricted, deadline-capped).
    pub mean_steps_csdt: f64,
    /// Total MACs per cloud (MLP layers etc.).
    pub macs: u64,
    /// Inter-stage intermediate bytes per cloud (what Base spills).
    pub intermediate_bytes: u64,
    /// Input bytes per cloud.
    pub input_bytes: u64,
    /// Gaussians per frame (3DGS only; 0 otherwise).
    pub gaussians: u64,
}

/// Hardware budget shared by all designs (Sec. 8.3: same PE count,
/// comparable buffers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HwBudget {
    /// Processing elements.
    pub pes: u32,
    /// On-chip buffer bytes.
    pub onchip_bytes: u64,
}

impl Default for HwBudget {
    fn default() -> Self {
        HwBudget {
            pes: 256,
            onchip_bytes: 2 * 1024 * 1024,
        }
    }
}

/// One prior accelerator's modeled cost on a workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PriorReport {
    /// Accelerator name.
    pub name: String,
    /// Modeled cycles per cloud/frame.
    pub cycles: u64,
    /// Modeled DRAM traffic in bytes.
    pub dram_bytes: u64,
    /// Energy tally.
    pub energy: EnergyBreakdown,
}

// Internal tally helper: the argument list IS the report recipe.
#[allow(clippy::too_many_arguments)]
fn finish(
    name: &str,
    cycles: f64,
    dram_bytes: f64,
    sram_bytes: f64,
    macs: u64,
    alu: u64,
    budget: &HwBudget,
    em: &EnergyModel,
) -> PriorReport {
    let cycles = cycles.max(1.0) as u64;
    let dram_bytes = dram_bytes.max(0.0) as u64;
    let energy = EnergyBreakdown {
        sram_pj: em.sram_access_pj(sram_bytes as u64, budget.onchip_bytes)
            + em.sram_leak_pj(budget.onchip_bytes, cycles),
        dram_pj: em.dram_pj(dram_bytes),
        compute_pj: em.compute_pj(macs, alu),
    };
    PriorReport {
        name: name.to_owned(),
        cycles,
        dram_bytes,
        energy,
    }
}

/// Cycles a DRAM transfer of `bytes` costs at LPDDR3-1600×4 bandwidth.
fn dram_cycles(bytes: f64) -> f64 {
    bytes / 25.6
}

/// Mesorasi: delayed aggregation, phases serialized, intermediates
/// off-chip (read + write per intermediate).
pub fn mesorasi(w: &WorkloadProfile, budget: &HwBudget, em: &EnergyModel) -> PriorReport {
    let search = w.queries as f64 * w.mean_steps_full * 2.0 / budget.pes as f64;
    let compute = w.macs as f64 / budget.pes as f64;
    let dram = w.input_bytes as f64 + 2.0 * w.intermediate_bytes as f64;
    // Phases serialize; DRAM partially overlaps compute (50%).
    let cycles = search + compute + 0.5 * dram_cycles(dram);
    let sram = (w.input_bytes + w.intermediate_bytes) as f64 * 2.0;
    finish(
        "Mesorasi",
        cycles,
        dram,
        sram,
        w.macs,
        w.queries * w.mean_steps_full as u64,
        budget,
        em,
    )
}

/// PointAcc: sorting-based neighbor units, tighter overlap, less
/// intermediate traffic.
pub fn pointacc(w: &WorkloadProfile, budget: &HwBudget, em: &EnergyModel) -> PriorReport {
    let search = w.queries as f64 * w.mean_steps_full * 1.0 / budget.pes as f64;
    let compute = w.macs as f64 / budget.pes as f64;
    let dram = w.input_bytes as f64 + 1.2 * w.intermediate_bytes as f64;
    let cycles = search.max(compute) + 0.4 * dram_cycles(dram);
    let sram = (w.input_bytes + w.intermediate_bytes) as f64 * 2.0;
    finish(
        "PointAcc",
        cycles,
        dram,
        sram,
        w.macs,
        w.queries * w.mean_steps_full as u64,
        budget,
        em,
    )
}

/// QuickNN: full kd traversal per query, 2 cycles per step (fetch +
/// compare), tree partially cached on-chip.
pub fn quicknn(w: &WorkloadProfile, budget: &HwBudget, em: &EnergyModel) -> PriorReport {
    let step_cost = 2.0;
    let search = w.queries as f64 * w.mean_steps_full * step_cost / budget.pes as f64;
    let tree_bytes = w.points as f64 * 16.0; // node: point + pointers
    let cached_fraction = (budget.onchip_bytes as f64 / tree_bytes).min(1.0);
    // Un-cached tree levels are re-fetched once per query batch.
    let refetches = (1.0 - cached_fraction) * tree_bytes * (w.queries as f64 / 1024.0).max(1.0);
    let dram = w.input_bytes as f64 + refetches;
    let cycles = search + 0.6 * dram_cycles(dram);
    let sram = w.queries as f64 * w.mean_steps_full * 16.0;
    finish(
        "QuickNN",
        cycles,
        dram,
        sram,
        0,
        (w.queries as f64 * w.mean_steps_full * 2.0) as u64,
        budget,
        em,
    )
}

/// Tigris: two-phase (coarse cull + fine search) registration engine.
pub fn tigris(w: &WorkloadProfile, budget: &HwBudget, em: &EnergyModel) -> PriorReport {
    let search = w.queries as f64 * w.mean_steps_full * 0.6 * 2.0 / budget.pes as f64;
    let dram = w.input_bytes as f64 * 2.0 + 0.5 * w.intermediate_bytes as f64;
    let cycles = search + 0.6 * dram_cycles(dram);
    let sram = w.queries as f64 * w.mean_steps_full * 0.6 * 16.0;
    finish(
        "Tigris",
        cycles,
        dram,
        sram,
        0,
        (w.queries as f64 * w.mean_steps_full * 1.2) as u64,
        budget,
        em,
    )
}

/// GScore: hierarchical sorting + shading for 3DGS; per-tile Gaussian
/// lists round-trip through DRAM.
pub fn gscore(w: &WorkloadProfile, budget: &HwBudget, em: &EnergyModel) -> PriorReport {
    let g = w.gaussians.max(1) as f64;
    let sort = g * g.log2().max(1.0) / (budget.pes as f64 / 4.0);
    let shade = w.macs as f64 / budget.pes as f64;
    let lists = g * 48.0; // projected gaussian + tile list entries
    let dram = w.input_bytes as f64 + 2.0 * lists;
    let cycles = sort + shade + 0.5 * dram_cycles(dram);
    let sram = lists * 2.0;
    finish(
        "GScore",
        cycles,
        dram,
        sram,
        w.macs,
        (g * g.log2().max(1.0)) as u64,
        budget,
        em,
    )
}

/// The StreamGrid design itself under the same analytic lens: chunked,
/// deadline-capped search, fully streaming (input read once, output
/// written once, no intermediate traffic).
pub fn streamgrid_analytic(
    w: &WorkloadProfile,
    budget: &HwBudget,
    em: &EnergyModel,
) -> PriorReport {
    let search = w.queries as f64 * w.mean_steps_csdt * 1.0 / budget.pes as f64;
    let compute = w.macs as f64 / budget.pes as f64;
    let sort = if w.gaussians > 0 {
        let g = w.gaussians as f64;
        // Chunked hierarchical sort: n log(chunk) instead of n log n.
        g * (g / 64.0).log2().max(1.0) / (budget.pes as f64 / 4.0)
    } else {
        0.0
    };
    let dram = w.input_bytes as f64
        + 0.2 * w.intermediate_bytes as f64 * 0.0
        + w.input_bytes as f64 * 0.25; // output stream
    let cycles = search.max(compute).max(sort) + 0.2 * dram_cycles(dram);
    let sram = (w.input_bytes + w.intermediate_bytes) as f64 * 2.0;
    finish(
        "StreamGrid",
        cycles,
        dram,
        sram,
        w.macs,
        (w.queries as f64 * w.mean_steps_csdt) as u64,
        budget,
        em,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dnn_workload() -> WorkloadProfile {
        WorkloadProfile {
            points: 4096,
            queries: 4096,
            mean_steps_full: 800.0,
            mean_steps_csdt: 150.0,
            macs: 40_000_000,
            intermediate_bytes: 6_000_000,
            input_bytes: 4096 * 12,
            gaussians: 0,
        }
    }

    fn knn_workload() -> WorkloadProfile {
        WorkloadProfile {
            points: 100_000,
            queries: 100_000,
            mean_steps_full: 8400.0, // the Sec. 3 KITTI profile
            mean_steps_csdt: 500.0,
            macs: 0,
            intermediate_bytes: 2_000_000,
            input_bytes: 100_000 * 12,
            gaussians: 0,
        }
    }

    #[test]
    fn streamgrid_beats_dnn_priors_moderately() {
        let (b, em) = (HwBudget::default(), EnergyModel::default());
        let w = dnn_workload();
        let ours = streamgrid_analytic(&w, &b, &em);
        let pa = pointacc(&w, &b, &em);
        let me = mesorasi(&w, &b, &em);
        let s_pa = pa.cycles as f64 / ours.cycles as f64;
        let s_me = me.cycles as f64 / ours.cycles as f64;
        // Fig. 18a shape: modest speedups (~1.4×, ~2.4×), Mesorasi slower
        // than PointAcc.
        assert!(s_pa > 1.05 && s_pa < 5.0, "PointAcc speedup {s_pa}");
        assert!(s_me > s_pa, "Mesorasi should be slower than PointAcc");
    }

    #[test]
    fn streamgrid_crushes_knn_priors() {
        let (b, em) = (HwBudget::default(), EnergyModel::default());
        let w = knn_workload();
        let ours = streamgrid_analytic(&w, &b, &em);
        let qn = quicknn(&w, &b, &em);
        let tg = tigris(&w, &b, &em);
        let s_qn = qn.cycles as f64 / ours.cycles as f64;
        let s_tg = tg.cycles as f64 / ours.cycles as f64;
        // Fig. 18c shape: order-of-magnitude speedups from the smaller
        // search range; QuickNN slower than Tigris.
        assert!(s_qn > 10.0, "QuickNN speedup {s_qn}");
        assert!(s_tg > 10.0, "Tigris speedup {s_tg}");
        assert!(s_qn > s_tg, "QuickNN should be the slower prior");
    }

    #[test]
    fn dram_energy_dominates_prior_designs() {
        let (b, em) = (HwBudget::default(), EnergyModel::default());
        let w = dnn_workload();
        let me = mesorasi(&w, &b, &em);
        assert!(me.energy.dram_pj > me.energy.sram_pj);
        let ours = streamgrid_analytic(&w, &b, &em);
        assert!(
            ours.energy.dram_pj < me.energy.dram_pj / 2.0,
            "streaming must slash DRAM energy: {} vs {}",
            ours.energy.dram_pj,
            me.energy.dram_pj
        );
    }

    #[test]
    fn gscore_sorting_dominated() {
        let (b, em) = (HwBudget::default(), EnergyModel::default());
        let w = WorkloadProfile {
            points: 0,
            queries: 0,
            mean_steps_full: 0.0,
            mean_steps_csdt: 0.0,
            macs: 30_000_000,
            intermediate_bytes: 0,
            input_bytes: 500_000 * 32,
            gaussians: 500_000,
        };
        let gs = gscore(&w, &b, &em);
        let ours = streamgrid_analytic(&w, &b, &em);
        let s = gs.cycles as f64 / ours.cycles as f64;
        // Fig. 18d shape: ~2× speedup.
        assert!(s > 1.2 && s < 6.0, "GScore speedup {s}");
    }
}
