//! Static verification for StreamGrid designs: analyses that run at
//! compile time (or in CI) and certify properties the execution engines
//! otherwise only exhibit dynamically.
//!
//! Three passes, one per module:
//!
//! 1. [`cert`] — the **schedule certifier**: given a solved schedule
//!    (start cycles + line-buffer bounds) and the exact rational rates
//!    of every edge, it computes each buffer's worst-case *discrete*
//!    occupancy over the multi-chunk issue lattice in pure integer
//!    arithmetic and emits a machine-checkable [`Certificate`] that
//!    occupancy never exceeds the ILP bound. Both execution engines
//!    share one stepper, so one certificate covers cycle-accurate and
//!    event-driven execution.
//! 2. [`lint`] — the **pipeline linter**: structural and
//!    configuration diagnostics ([`Diagnostic`], codes `SG001`–`SG005`)
//!    over a dataflow graph plus its transform context — rate
//!    inconsistency at reconvergent stages, dead or unreachable stages,
//!    bucketing blow-up, deterministic-termination preconditions, and
//!    oversized global windows.
//! 3. [`mc`] — the **unified model-checking harness**: a reusable
//!    hand-rolled bounded exhaustive-interleaving explorer (loom-style,
//!    zero dependencies) with modeled atomics/`Mutex`/`Condvar`, a
//!    visited-state-memoized DFS with a sleep-set/partial-order
//!    reduction, state-count budgets, and a [`Model`] trait stating
//!    safety invariants and termination obligations. The serving
//!    layer's protocol models in `streamgrid-serve` plug into it.
//!
//! The crate depends only on `streamgrid-dataflow` (for [`Rate`]) so
//! the optimizer, the core framework, the serving layer, and the bench
//! harnesses can all call into it without cycles.
//!
//! [`Rate`]: streamgrid_dataflow::Rate

pub mod cert;
pub mod lint;
pub mod mc;

pub use cert::{certify, CertEdge, Certificate, EdgeCert};
pub use lint::{bucketing_blowup, inert_qos_policy, lint_graph, Diagnostic, LintContext, Severity};
pub use mc::{explore, McConfig, McReport, Model};
