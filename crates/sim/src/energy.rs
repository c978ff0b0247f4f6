//! Analytic energy model.
//!
//! Substitutes per-access constants for the paper's PrimeTimePX +
//! Artisan-compiler power flow. The constants follow the public literature
//! the paper cites: DRAM access energy sits two orders of magnitude above SRAM
//! (Tetris \[19\], GANAX \[52\]); SRAM energy per access grows roughly with
//! the square root of capacity (bit-line/word-line length). All variants
//! share one model, so relative comparisons are meaningful even though
//! absolute joules are approximate.

use serde::{Deserialize, Serialize};

/// Energy model constants. [`EnergyModel::default`] is TSMC-16nm-class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// DRAM energy per byte moved (pJ). LPDDR3 ≈ 40 pJ/bit.
    pub dram_pj_per_byte: f64,
    /// SRAM access energy per byte at the 1 KiB reference size (pJ).
    pub sram_base_pj_per_byte: f64,
    /// Exponent of the SRAM energy-vs-capacity scaling
    /// (`energy ∝ (capacity / 1 KiB)^exponent`).
    pub sram_scale_exponent: f64,
    /// SRAM leakage per byte per cycle (pJ) — charges for provisioned
    /// capacity, which is how smaller buffers save static energy.
    pub sram_leak_pj_per_byte_cycle: f64,
    /// Energy per 16-bit MAC (pJ).
    pub mac_pj: f64,
    /// Energy per scalar ALU op / comparison (pJ).
    pub alu_pj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            dram_pj_per_byte: 320.0,
            sram_base_pj_per_byte: 0.30,
            sram_scale_exponent: 0.25,
            sram_leak_pj_per_byte_cycle: 3.0e-6,
            mac_pj: 0.5,
            alu_pj: 0.2,
        }
    }
}

impl EnergyModel {
    /// Dynamic SRAM energy (pJ) for moving `bytes` through a buffer of
    /// `capacity_bytes`.
    pub fn sram_access_pj(&self, bytes: u64, capacity_bytes: u64) -> f64 {
        let cap_kib = (capacity_bytes.max(1024)) as f64 / 1024.0;
        bytes as f64 * self.sram_base_pj_per_byte * cap_kib.powf(self.sram_scale_exponent)
    }

    /// SRAM leakage (pJ) for holding `capacity_bytes` for `cycles`.
    pub fn sram_leak_pj(&self, capacity_bytes: u64, cycles: u64) -> f64 {
        capacity_bytes as f64 * cycles as f64 * self.sram_leak_pj_per_byte_cycle
    }

    /// DRAM energy (pJ) for `bytes` of traffic.
    pub fn dram_pj(&self, bytes: u64) -> f64 {
        bytes as f64 * self.dram_pj_per_byte
    }

    /// Compute energy (pJ) for `macs` MACs and `alu_ops` scalar ops.
    pub fn compute_pj(&self, macs: u64, alu_ops: u64) -> f64 {
        macs as f64 * self.mac_pj + alu_ops as f64 * self.alu_pj
    }
}

/// An energy tally split by component.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// SRAM dynamic + leakage energy (pJ).
    pub sram_pj: f64,
    /// DRAM energy (pJ).
    pub dram_pj: f64,
    /// Datapath energy (pJ).
    pub compute_pj: f64,
}

impl EnergyBreakdown {
    /// Total energy in pJ.
    pub fn total_pj(&self) -> f64 {
        self.sram_pj + self.dram_pj + self.compute_pj
    }

    /// Total energy in µJ.
    pub fn total_uj(&self) -> f64 {
        self.total_pj() / 1e6
    }

    /// Component-wise sum.
    pub fn add(&self, other: &EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            sram_pj: self.sram_pj + other.sram_pj,
            dram_pj: self.dram_pj + other.dram_pj,
            compute_pj: self.compute_pj + other.compute_pj,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_dwarfs_sram() {
        let m = EnergyModel::default();
        // Same bytes through a 256 KiB SRAM vs DRAM: ≥ two orders of
        // magnitude apart (the premise of the paper's Sec. 1).
        let sram = m.sram_access_pj(1024, 256 * 1024);
        let dram = m.dram_pj(1024);
        assert!(dram > 100.0 * sram, "dram {dram} vs sram {sram}");
    }

    #[test]
    fn sram_energy_grows_with_capacity() {
        let m = EnergyModel::default();
        let small = m.sram_access_pj(1024, 16 * 1024);
        let large = m.sram_access_pj(1024, 4 * 1024 * 1024);
        assert!(large > small * 2.0, "large {large} vs small {small}");
    }

    #[test]
    fn leakage_scales_with_capacity_and_time() {
        let m = EnergyModel::default();
        let a = m.sram_leak_pj(1024, 1000);
        let b = m.sram_leak_pj(2048, 1000);
        let c = m.sram_leak_pj(1024, 2000);
        assert!((b - 2.0 * a).abs() < 1e-9);
        assert!((c - 2.0 * a).abs() < 1e-9);
    }

    #[test]
    fn breakdown_totals() {
        let b = EnergyBreakdown {
            sram_pj: 1.0,
            dram_pj: 2.0,
            compute_pj: 3.0,
        };
        assert_eq!(b.total_pj(), 6.0);
        let s = b.add(&b);
        assert_eq!(s.total_pj(), 12.0);
    }
}
