//! StreamGrid: streaming point-cloud analytics via compulsory splitting
//! and deterministic termination.
//!
//! This crate is the paper's primary contribution assembled over the
//! workspace's substrates (Fig. 1's flow):
//!
//! 1. **Algorithm transformation** ([`transform`]) — compulsory
//!    splitting (Sec. 4.1) and deterministic termination (Sec. 4.2) as
//!    configuration over a pipeline;
//! 2. **Pipeline description** ([`pipeline`]) — the open Sec. 6
//!    programming interface: a typed [`pipeline::PipelineBuilder`]
//!    produces validated [`pipeline::PipelineSpec`]s, a
//!    [`registry::PipelineRegistry`] names them, and the Tbl. 2
//!    applications ([`apps`]) are presets expressed through the same
//!    builder;
//! 3. **Line-buffer optimization** — delegated to
//!    `streamgrid-optimizer` (Sec. 5's ILP with constraint pruning and
//!    multi-chunk bubbles);
//! 4. **Execution** ([`framework`], [`session`], [`source`], [`cache`])
//!    — the compiled design runs on the cycle-level simulator of
//!    `streamgrid-sim`; a [`session::Session`] routes every compile
//!    through a pluggable [`cache::ScheduleCache`] (private, shared
//!    across sessions, or persisted across processes) so repeated
//!    executions amortize the ILP solve, and
//!    [`session::Session::stream`] pulls [`source::Frame`]s from a
//!    [`source::FrameSource`] (synthetic, replayed, or dataset-backed)
//!    with size-bucketed compile reuse ([`source::SizeBucketing`]) and
//!    optional multi-worker overlapped execution
//!    ([`source::StreamOptions::workers`]).
//!
//! The algorithmic counterparts (how CS/DT change *results*, not just
//! buffers) live in the application substrates: `streamgrid-nn` for
//! PointNet++ (+ integrated co-training, Sec. 4.3),
//! `streamgrid-registration` for A-LOAM, `streamgrid-splat` for 3DGS.
//!
//! # Examples
//!
//! ```
//! use streamgrid_core::apps::AppDomain;
//! use streamgrid_core::framework::StreamGrid;
//! use streamgrid_core::transform::{SplitConfig, StreamGridConfig};
//!
//! // Base vs CS+DT on the classification pipeline: the headline Fig. 17
//! // buffer reduction, end to end.
//! let elements = 9 * 600;
//! let base = StreamGrid::new(StreamGridConfig::base())
//!     .compile(AppDomain::Classification, elements)
//!     .unwrap();
//! let csdt = StreamGrid::new(StreamGridConfig::cs_dt(SplitConfig::paper_cls()))
//!     .compile(AppDomain::Classification, elements)
//!     .unwrap();
//! assert!(csdt.summary().onchip_bytes < base.summary().onchip_bytes);
//! ```

pub mod apps;
pub mod cache;
pub mod framework;
pub mod pipeline;
pub mod registry;
pub mod session;
pub mod source;
pub mod transform;

pub use apps::{table2, AppDomain, AppSpec};
pub use cache::{CacheKey, CompileRequest, FileCache, InMemoryCache, ScheduleCache, SharedCache};
pub use framework::{
    CompileSummary, CompiledPipeline, ExecMode, ExecuteOptions, ExecutionReport, LintSummary,
    StreamGrid,
};
pub use pipeline::{CompileError, PipelineBuilder, PipelineSpec, StageId};
pub use registry::PipelineRegistry;
pub use session::{Session, SessionBuilder};
pub use source::{
    nearest_rank, nearest_rank_sorted, DatasetSource, Frame, FrameReport, FrameSource, FrameStats,
    ReplaySource, SizeBucketing, StreamOptions, StreamReport, SyntheticSource,
};
pub use transform::{SplitConfig, StreamGridConfig, TerminationConfig};
