//! Dataflow-graph programming interface for point-cloud pipelines.
//!
//! This crate is the paper's Sec. 6 interface: pipelines are described as
//! graphs of abstract operations (`stencil`, `reduction`, `global_op`,
//! plus sources/sinks and elementwise maps) parameterized only by the
//! communication quantities of Tbl. 1 — input/output shapes and
//! frequencies, input reuse, and pipeline depth. The line-buffer
//! optimizer (`streamgrid-optimizer`) consumes the derived throughputs
//! and volumes; it never needs the operations' actual computation.
//!
//! See [`DataflowGraph`] for the Fig. 12 worked example.

pub mod graph;
pub mod shape;

pub use graph::{DataflowGraph, EdgeId, GraphError, NodeId, OpKind, StageNode};
pub use shape::{Rate, RateAcc, Shape};
