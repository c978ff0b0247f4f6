//! Cycle-level streaming accelerator simulator for StreamGrid.
//!
//! This crate is the Sec. 7 evaluation substrate. It runs designs; it
//! does not build them: the paper's Base, CS and CS+DT design points are
//! `StreamGridConfig`s that `streamgrid-core` compiles, and Fig. 18's
//! `Base+$` overlays [`CacheModel`] on the Base design's run.
//!
//! * [`engine`] — execution of a scheduled dataflow graph with bounded
//!   line buffers, rational stage throughputs, and optional
//!   input-dependent global-op latency. Two engines share one stepping
//!   core: the cycle-accurate oracle and an event-driven fast path that
//!   is bit-identical under deterministic termination
//!   ([`engine::EngineMode`]);
//! * [`linebuffer`], [`sram`], [`dram`], [`cache`] — the memory system:
//!   occupancy-checked FIFOs, banked scratchpads with conflict
//!   stall/elision, LPDDR3-1600×4 bandwidth/energy, and the
//!   fully-associative cache model for `Base+$`;
//! * [`energy`] — the shared analytic energy model;
//! * [`priors`] — analytic models of PointAcc, Mesorasi, QuickNN,
//!   Tigris, and GScore for the Fig. 18 comparison.
//!
//! The key invariant, asserted across the test suite: an ILP schedule
//! from `streamgrid-optimizer` executed with deterministic termination
//! runs with **zero stalls and zero buffer overflows**, while canonical
//! (input-dependent) global operations provoke both.

pub mod cache;
pub mod dram;
pub mod energy;
pub mod engine;
pub mod linebuffer;
pub mod priors;
pub mod sram;

pub use cache::{CacheModel, CacheReport};
pub use dram::DramModel;
pub use energy::{EnergyBreakdown, EnergyModel};
pub use engine::{
    run, run_with, BackoffStats, BufferPolicy, EngineConfig, EngineLayout, EngineMode,
    GlobalLatencyModel, RunReport,
};
pub use linebuffer::LineBuffer;
pub use priors::{HwBudget, PriorReport, WorkloadProfile};
pub use sram::{BankedSram, ConflictPolicy, SramStats};
