//! The algorithm transformation layer (Sec. 4): compulsory splitting and
//! deterministic termination as configuration applied to a pipeline.

use serde::{Deserialize, Serialize};
use streamgrid_dataflow::{DataflowGraph, OpKind};
use streamgrid_pointcloud::{GridDims, WindowSpec};

/// Compulsory-splitting configuration (Sec. 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitConfig {
    /// Uniform chunk grid applied to the input cloud ("When to Split":
    /// one partition shared by every global op in the pipeline).
    pub dims: GridDims,
    /// Chunk window read by global-dependent operations (Fig. 7).
    pub window: WindowSpec,
}

impl SplitConfig {
    /// Number of chunks in the partition.
    pub fn chunk_count(&self) -> u64 {
        self.dims.chunk_count() as u64
    }

    /// Chunks each global op retains on-chip.
    pub fn window_chunks(&self) -> u32 {
        self.window.chunks_per_window() as u32
    }

    /// The paper's classification/segmentation setting: 3×3×1 chunks
    /// with a 2×2 kernel ("equivalent to partitioning into 4 chunks").
    pub fn paper_cls() -> Self {
        SplitConfig {
            dims: GridDims::new(3, 3, 1),
            window: WindowSpec::new((2, 2, 1), (1, 1, 1)),
        }
    }

    /// A 1-D split into `n` chunks read through a `w`-chunk sliding
    /// window (the LiDAR/serial setting).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `w == 0`.
    pub fn linear(n: u32, w: u32) -> Self {
        SplitConfig {
            dims: GridDims::new(n, 1, 1),
            window: WindowSpec::new((w.min(n), 1, 1), (1, 1, 1)),
        }
    }
}

/// Deterministic-termination configuration (Sec. 4.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TerminationConfig {
    /// Deadline as a fraction of the profiled full-traversal step count
    /// (the paper evaluates 1, 1/2, 1/4, 1/8, 1/16; default 1/4).
    pub deadline_fraction: f64,
}

impl Default for TerminationConfig {
    fn default() -> Self {
        TerminationConfig {
            deadline_fraction: 0.25,
        }
    }
}

/// The full StreamGrid transform: which of the paper's techniques are
/// active. This maps one-to-one onto the evaluation variants:
/// `Base` = neither, `CS` = splitting only, `CS+DT` = both.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StreamGridConfig {
    /// Compulsory splitting; `None` = unsplit pipeline.
    pub splitting: Option<SplitConfig>,
    /// Deterministic termination; `None` = canonical (input-dependent)
    /// operations.
    pub termination: Option<TerminationConfig>,
}

impl StreamGridConfig {
    /// The Base variant: no transform.
    pub fn base() -> Self {
        StreamGridConfig::default()
    }

    /// The CS variant.
    pub fn cs(split: SplitConfig) -> Self {
        StreamGridConfig {
            splitting: Some(split),
            termination: None,
        }
    }

    /// The full CS+DT variant with the paper's defaults.
    pub fn cs_dt(split: SplitConfig) -> Self {
        StreamGridConfig {
            splitting: Some(split),
            termination: Some(TerminationConfig::default()),
        }
    }

    /// Chunks the pipeline streams per cloud (1 when unsplit).
    pub fn chunk_count(&self) -> u64 {
        self.splitting.map(|s| s.chunk_count()).unwrap_or(1)
    }

    /// Elements per chunk a design for `total_elements` provisions: the
    /// ceiling of `total_elements / chunk_count()`, and at least 1.
    /// Flooring would drop up to `chunk_count() − 1` source elements from
    /// the schedule; the chunks must always cover the whole cloud. A
    /// compile and its cache key both size chunks here.
    pub fn chunk_elements(&self, total_elements: u64) -> u64 {
        total_elements.div_ceil(self.chunk_count()).max(1)
    }

    /// Applies the transform to a dataflow graph: global ops get their
    /// chunk-window retention set (Fig. 7). The graph itself stays
    /// structurally identical — CS/DT change communication volumes and
    /// determinism, not operator semantics (Sec. 4).
    pub fn apply(&self, graph: &mut DataflowGraph) {
        let window = self.splitting.map(|s| s.window_chunks()).unwrap_or(1);
        let globals: Vec<_> = graph
            .nodes()
            .filter(|(_, n)| matches!(n.kind, OpKind::GlobalOp))
            .map(|(id, _)| id)
            .collect();
        for id in globals {
            graph.set_window_chunks(id, window);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamgrid_dataflow::Shape;

    #[test]
    fn paper_cls_is_four_effective_chunks() {
        let s = SplitConfig::paper_cls();
        assert_eq!(s.chunk_count(), 9);
        assert_eq!(s.window_chunks(), 4);
    }

    #[test]
    fn linear_split_clamps_window() {
        let s = SplitConfig::linear(4, 8);
        assert_eq!(s.window_chunks(), 4);
    }

    #[test]
    fn variant_constructors() {
        assert_eq!(StreamGridConfig::base().chunk_count(), 1);
        let cs = StreamGridConfig::cs(SplitConfig::linear(4, 2));
        assert_eq!(cs.chunk_count(), 4);
        assert!(cs.termination.is_none());
        let csdt = StreamGridConfig::cs_dt(SplitConfig::linear(4, 2));
        assert!(csdt.termination.is_some());
    }

    #[test]
    fn chunk_elements_round_up_and_never_vanish() {
        let cs = StreamGridConfig::cs(SplitConfig::linear(4, 2));
        assert_eq!(cs.chunk_elements(2400), 600);
        assert_eq!(cs.chunk_elements(2401), 601);
        assert_eq!(cs.chunk_elements(3), 1);
        assert_eq!(cs.chunk_elements(0), 1);
        assert_eq!(StreamGridConfig::base().chunk_elements(2401), 2401);
    }

    #[test]
    fn apply_sets_window_on_global_ops_only() {
        let mut g = DataflowGraph::new();
        let src = g.source("src", Shape::new(1, 3), 1);
        let knn = g.global_op("knn", Shape::new(1, 3), 1, Shape::new(1, 3), 1, (1, 1), 4);
        let sink = g.sink("sink", Shape::new(1, 3), 1);
        g.connect(src, knn);
        g.connect(knn, sink);
        StreamGridConfig::cs_dt(SplitConfig::linear(4, 2)).apply(&mut g);
        assert_eq!(g.node(knn).window_chunks, 2);
        assert_eq!(g.node(src).window_chunks, 1);
    }
}
