//! Point-cloud substrate for the StreamGrid reproduction.
//!
//! This crate provides the data representations every other crate in the
//! workspace builds on:
//!
//! * [`Point3`], [`Aabb`], [`PointCloud`] — geometry and cloud storage;
//! * [`morton`] — Z-order codes for hierarchical sorting and octrees;
//! * [`grid`] — uniform chunk grids and chunk windows, the substrate of
//!   the paper's *compulsory splitting* (Sec. 4.1);
//! * [`datasets`] — seeded synthetic stand-ins for KITTI / ModelNet /
//!   ShapeNet / Tanks&Temples (the [`datasets`] module docs give the
//!   substitution rationale);
//! * [`codec`] — the quantized wire format points travel in on-chip.
//!
//! # Examples
//!
//! Splitting a cloud into chunks and reading it through 1×2 chunk windows
//! (the Fig. 7 pattern):
//!
//! ```
//! use streamgrid_pointcloud::{ChunkGrid, GridDims, Point3, PointCloud, WindowSpec};
//!
//! let cloud: PointCloud = (0..64)
//!     .map(|i| Point3::new((i % 8) as f32, (i / 8) as f32, 0.0))
//!     .collect();
//! let grid = ChunkGrid::new(cloud.bounds().unwrap(), GridDims::new(4, 1, 1));
//! let partition = grid.partition(cloud.points());
//! let windows = WindowSpec::new((2, 1, 1), (1, 1, 1)).windows(grid.dims());
//! assert_eq!(windows.len(), 3); // {C0,C1}, {C1,C2}, {C2,C3}
//! let first = partition.window_points(&windows[0]);
//! assert!(!first.is_empty());
//! ```

pub mod aabb;
pub mod balanced;
pub mod cloud;
pub mod codec;
pub mod datasets;
pub mod grid;
pub mod morton;
pub mod point;

pub use aabb::Aabb;
pub use balanced::BalancedSplit;
pub use cloud::PointCloud;
pub use grid::{ChunkGrid, ChunkId, ChunkPartition, GridDims, PartitionKind, WindowSpec};
pub use point::Point3;
