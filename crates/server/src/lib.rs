//! StreamGrid's serving layer: a multi-tenant streaming server over
//! the shared schedule cache.
//!
//! Everything below this crate already scales: a
//! [`SharedCache`](streamgrid_core::cache::SharedCache) gives N
//! sessions one ILP solve per distinct design point, and frame
//! executions are deterministic and embarrassingly parallel. What this
//! crate adds is the front end the ROADMAP's "millions of users" north
//! star needs — the piece that multiplexes many concurrent
//! [`FrameSource`](streamgrid_core::source::FrameSource) streams onto
//! those shared resources:
//!
//! - **Tenants** ([`TenantSpec`]): one submitted stream plus its
//!   pipeline, transform config, bucketing policy, and QoS class.
//! - **Admission control** ([`TokenLedger`], [`AdmissionError`]): a
//!   token ledger commits each tenant's projected frame count up
//!   front; [`StreamServer::submit`] rejects what does not fit,
//!   [`StreamServer::submit_queued`] waitlists it for FIFO admission
//!   as earlier tenants finish.
//! - **QoS classes** ([`QosClass`]): `Interactive`/`Standard`/
//!   `Background` queues drained by weighted fair queueing, with
//!   per-class bounded queues for backpressure; `Background` alone may
//!   be degraded to a coarser bucketing or shed past a queue-age
//!   deadline under pressure.
//! - **SLO reporting** ([`ServerReport`], [`LatencyStats`]): per-tenant
//!   and per-class p50/p95/p99 wall-clock frame latency with the
//!   queue-wait vs execute split, plus admission/shed/degrade
//!   counters — the same nearest-rank percentile definition
//!   [`StreamReport`](streamgrid_core::source::StreamReport) uses for
//!   cycles.
//!
//! The correctness anchor: a single admitted tenant's per-frame
//! reports are **bit-identical** to running its source through
//! [`Session::stream`](streamgrid_core::session::Session::stream)
//! directly, because the server's per-frame path is the session's own
//! step: [`Session::compile_frame`](streamgrid_core::session::Session::compile_frame)
//! buckets and compiles through the cache, and the returned frame
//! executes with the spec's resolved options.
//!
//! The concurrency anchor: the scheduling and admission decisions are
//! pure functions in [`protocol`], and [`mc`] model-checks the
//! protocols built on them — the work/space dispatch handshake, the
//! ledger + FIFO waitlist, and the WFQ pick — with the
//! [`streamgrid_verify::mc`] harness, over every bounded interleaving.

mod admission;
pub mod mc;
pub mod protocol;
mod qos;
mod report;
mod server;
mod tenant;

pub use admission::{AdmissionError, TokenLedger};
pub use mc::{
    check_dispatch, check_ledger, check_wfq, DispatchConfig, DispatchVariant, LedgerScenario,
    LedgerVariant, WfqConfig, WfqVariant,
};
pub use protocol::{admit_fifo, queued_admission, wfq_pick, QueuedDecision, WEIGHTS};
pub use qos::QosClass;
pub use report::{ClassReport, FrameLatency, LatencyStats, ServerReport, TenantReport};
pub use server::{ServerConfig, StreamServer};
pub use tenant::{TenantId, TenantSpec};
