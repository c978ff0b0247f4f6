//! The Tbl. 2 application registry and per-app pipeline presets.
//!
//! Each of the paper's four domains gets (a) a registry entry carrying
//! the table's columns and (b) a [`PipelineSpec`] preset expressed
//! through the [`crate::pipeline::PipelineBuilder`] over the Sec. 6
//! interface. [`AppDomain`] is a thin alias layer over those presets:
//! [`AppDomain::spec`] resolves the domain to its builder-made spec, and
//! [`crate::registry::PipelineRegistry::with_paper_apps`] pre-registers
//! all four under [`AppDomain::pipeline_name`].

use serde::{Deserialize, Serialize};
use streamgrid_dataflow::Shape;

use crate::pipeline::PipelineSpec;

/// The four application domains of Tbl. 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AppDomain {
    /// PointNet++(c) on ModelNet10/40-like data.
    Classification,
    /// PointNet++(s) on ShapeNet-like data.
    Segmentation,
    /// A-LOAM on KITTI-like sequences.
    Registration,
    /// 3DGS on Tanks&Temples/DeepBlending-like scenes.
    NeuralRendering,
}

impl AppDomain {
    /// All domains in Tbl. 2 order.
    pub const ALL: [AppDomain; 4] = [
        AppDomain::Classification,
        AppDomain::Segmentation,
        AppDomain::Registration,
        AppDomain::NeuralRendering,
    ];

    /// Datapath intensity (MACs per produced element) of the domain's
    /// pipeline — the PointNet++ MLPs dominate the DNN domains, while
    /// registration and splatting are traffic-bound. Feeds
    /// `EngineConfig::macs_per_element` (the Fig. 17b energy knob).
    pub fn macs_per_element(self) -> f64 {
        match self {
            AppDomain::Classification | AppDomain::Segmentation => 2048.0,
            AppDomain::Registration => 256.0,
            AppDomain::NeuralRendering => 512.0,
        }
    }

    /// The domain's registry key (`PipelineRegistry::with_paper_apps`
    /// registers every preset under this name).
    pub fn pipeline_name(self) -> &'static str {
        match self {
            AppDomain::Classification => "classification",
            AppDomain::Segmentation => "segmentation",
            AppDomain::Registration => "registration",
            AppDomain::NeuralRendering => "neural_rendering",
        }
    }

    /// The domain's pipeline preset (thin alias over
    /// [`PipelineSpec::classification`] and friends).
    pub fn spec(self) -> PipelineSpec {
        match self {
            AppDomain::Classification => PipelineSpec::classification(),
            AppDomain::Segmentation => PipelineSpec::segmentation(),
            AppDomain::Registration => PipelineSpec::registration(),
            AppDomain::NeuralRendering => PipelineSpec::neural_rendering(),
        }
    }
}

/// One row of Tbl. 2.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct AppSpec {
    /// Domain.
    pub domain: AppDomain,
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Evaluation datasets, by the paper's names; this repository runs the
    /// seeded synthetic stand-ins in `streamgrid_pointcloud::datasets`.
    pub datasets: &'static [&'static str],
    /// Hardware baselines compared in Fig. 18.
    pub hardware_baselines: &'static [&'static str],
    /// The pipeline's global-dependent operation.
    pub global_dependency: &'static str,
    /// Accuracy metric.
    pub metric: &'static str,
}

/// The benchmark registry (Tbl. 2).
pub fn table2() -> Vec<AppSpec> {
    vec![
        AppSpec {
            domain: AppDomain::Classification,
            algorithm: "PointNet++ (c)",
            datasets: &["ModelNet10-like", "ModelNet40-like"],
            hardware_baselines: &["PointAcc", "Mesorasi"],
            global_dependency: "Range Search",
            metric: "overall accuracy",
        },
        AppSpec {
            domain: AppDomain::Segmentation,
            algorithm: "PointNet++ (s)",
            datasets: &["ShapeNet-like"],
            hardware_baselines: &["PointAcc", "Mesorasi"],
            global_dependency: "Range Search",
            metric: "mIoU",
        },
        AppSpec {
            domain: AppDomain::Registration,
            algorithm: "A-LOAM",
            datasets: &["KITTI-like"],
            hardware_baselines: &["QuickNN", "Tigris"],
            global_dependency: "kNN Search",
            metric: "translation/rotation error",
        },
        AppSpec {
            domain: AppDomain::NeuralRendering,
            algorithm: "3DGS",
            datasets: &["Tanks&Temple-like", "DeepBlending-like"],
            hardware_baselines: &["GScore"],
            global_dependency: "Sorting",
            metric: "PSNR",
        },
    ]
}

/// The Tbl. 2 presets, expressed through the builder. Stage parameters
/// are unchanged from the original hand-wired graphs; the regression
/// test in `tests/pipeline_api.rs` pins the compiled summaries against
/// the legacy construction byte for byte.
impl PipelineSpec {
    /// PointNet++(c): scale → range search → grouped MLP → max-pool
    /// reduction → head MLP. (The Fig. 8 pipeline with its S/R/M stages,
    /// plus the classification tail.)
    pub fn classification() -> PipelineSpec {
        let mut b = PipelineSpec::builder(AppDomain::Classification.pipeline_name());
        b.macs_per_element(AppDomain::Classification.macs_per_element());
        let src = b.source("reader", Shape::new(1, 3), 1);
        let scale = b.map("scale", Shape::new(1, 3), Shape::new(1, 3), 2);
        // Range search: reads one point per cycle, emits a group of 8
        // neighbor features every 8 cycles.
        let rs = b.global_op(
            "range_search",
            Shape::new(1, 3),
            1,
            Shape::new(8, 3),
            8,
            (1, 1),
            8,
        );
        let mlp = b.map("group_mlp", Shape::new(1, 3), Shape::new(1, 16), 4);
        // Max-pool over each 8-neighbor group.
        let pool = b.reduction("max_pool", Shape::new(1, 16), Shape::new(1, 16), 2, 8);
        let head = b.map("head_mlp", Shape::new(1, 16), Shape::new(1, 4), 6);
        let sink = b.sink("logits", Shape::new(1, 4), 1);
        b.connect(src, scale)
            .connect(scale, rs)
            .connect(rs, mlp)
            .connect(mlp, pool)
            .connect(pool, head)
            .connect(head, sink);
        b.build().expect("the classification preset is valid")
    }

    /// PointNet++(s): like [`PipelineSpec::classification`] but with a
    /// feature-propagation stage that interpolates back to full
    /// resolution (stencil over the centroid stream) instead of a
    /// classification head.
    pub fn segmentation() -> PipelineSpec {
        let mut b = PipelineSpec::builder(AppDomain::Segmentation.pipeline_name());
        b.macs_per_element(AppDomain::Segmentation.macs_per_element());
        let src = b.source("reader", Shape::new(1, 3), 1);
        let scale = b.map("scale", Shape::new(1, 3), Shape::new(1, 3), 2);
        let rs = b.global_op(
            "range_search",
            Shape::new(1, 3),
            1,
            Shape::new(8, 3),
            8,
            (1, 1),
            8,
        );
        let mlp = b.map("group_mlp", Shape::new(1, 3), Shape::new(1, 16), 4);
        let pool = b.reduction("max_pool", Shape::new(1, 16), Shape::new(1, 16), 2, 8);
        let fp = b.stencil(
            "feature_prop",
            Shape::new(1, 16),
            Shape::new(8, 8),
            4,
            (3, 1),
        );
        let head = b.map("point_head", Shape::new(1, 8), Shape::new(1, 4), 4);
        let sink = b.sink("labels", Shape::new(1, 4), 1);
        b.connect(src, scale)
            .connect(scale, rs)
            .connect(rs, mlp)
            .connect(mlp, pool)
            .connect(pool, fp)
            .connect(fp, head)
            .connect(head, sink);
        b.build().expect("the segmentation preset is valid")
    }

    /// A-LOAM: curvature stencil → feature selection (reduction) → kNN
    /// correspondence search (global) → Gauss-Newton accumulation
    /// (reduction).
    pub fn registration() -> PipelineSpec {
        let mut b = PipelineSpec::builder(AppDomain::Registration.pipeline_name());
        b.macs_per_element(AppDomain::Registration.macs_per_element());
        let src = b.source("scan_reader", Shape::new(1, 3), 1);
        // 1×11 curvature stencil (±5 neighbors, Fig. 2a).
        let curv = b.stencil("curvature", Shape::new(1, 3), Shape::new(1, 4), 4, (11, 1));
        // Keep the best 1 of every 8 candidates.
        let select = b.reduction("feature_select", Shape::new(1, 4), Shape::new(1, 4), 2, 8);
        let knn = b.global_op(
            "knn_search",
            Shape::new(1, 4),
            1,
            Shape::new(2, 4),
            4,
            (1, 1),
            8,
        );
        let residual = b.map("residual", Shape::new(1, 4), Shape::new(1, 8), 4);
        // Normal-equation accumulation: one 6×6 system per 64
        // correspondences.
        let gn = b.reduction("gauss_newton", Shape::new(1, 8), Shape::new(6, 8), 8, 64);
        let sink = b.sink("pose", Shape::new(6, 8), 1);
        b.connect(src, curv)
            .connect(curv, select)
            .connect(select, knn)
            .connect(knn, residual)
            .connect(residual, gn)
            .connect(gn, sink);
        b.build().expect("the registration preset is valid")
    }

    /// 3DGS: projection → depth sort (global) → tile raster.
    pub fn neural_rendering() -> PipelineSpec {
        let mut b = PipelineSpec::builder(AppDomain::NeuralRendering.pipeline_name());
        b.macs_per_element(AppDomain::NeuralRendering.macs_per_element());
        let src = b.source("gaussian_reader", Shape::new(1, 8), 1);
        let project = b.map("project", Shape::new(1, 8), Shape::new(1, 6), 4);
        let sort = b.global_op(
            "depth_sort",
            Shape::new(1, 6),
            1,
            Shape::new(1, 6),
            1,
            (1, 1),
            16,
        );
        // Rasterize: each sorted splat touches a 2×1 tile window.
        let raster = b.stencil("rasterize", Shape::new(1, 6), Shape::new(1, 3), 8, (2, 1));
        let sink = b.sink("framebuffer", Shape::new(1, 3), 1);
        b.connect(src, project)
            .connect(project, sort)
            .connect(sort, raster)
            .connect(raster, sink);
        b.build().expect("the neural-rendering preset is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_four_domains() {
        let t = table2();
        assert_eq!(t.len(), 4);
        for (spec, domain) in t.iter().zip(AppDomain::ALL) {
            assert_eq!(spec.domain, domain);
        }
    }

    #[test]
    fn all_presets_validate() {
        for domain in AppDomain::ALL {
            let spec = domain.spec();
            assert_eq!(spec.name(), domain.pipeline_name());
            assert!(spec.graph().validate().is_ok(), "{domain:?} graph invalid");
            assert!(
                !spec.globals().is_empty(),
                "{domain:?} must have a global op"
            );
            for &id in spec.globals() {
                assert!(spec.graph().node(id).kind.is_global());
            }
            assert_eq!(spec.macs_per_element(), domain.macs_per_element());
        }
    }

    #[test]
    fn volumes_flow_through_every_preset() {
        for domain in AppDomain::ALL {
            let spec = domain.spec();
            let w = spec.graph().volumes(3 * 1024);
            assert!(w.iter().all(|&v| v > 0), "{domain:?}: {w:?}");
        }
    }

    #[test]
    fn registry_matches_paper_baselines() {
        let t = table2();
        assert!(t[0].hardware_baselines.contains(&"PointAcc"));
        assert!(t[2].hardware_baselines.contains(&"QuickNN"));
        assert_eq!(t[3].hardware_baselines, &["GScore"]);
        assert_eq!(t[2].global_dependency, "kNN Search");
    }
}
