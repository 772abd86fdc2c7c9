//! Planar geometry substrate for the FUDJ reproduction.
//!
//! The paper's spatial join (PBSM, Patel & DeWitt) needs: minimum bounding
//! rectangles (MBRs) with union/intersection, a uniform grid that maps an MBR
//! to the tiles it overlaps, point-in-polygon and polygon-polygon
//! intersection tests for the `verify` step, and — for the §VII-F "advanced"
//! operator — a plane-sweep rectangle join used as the local per-tile join.
//!
//! Everything here is exact-arithmetic-free `f64` planar geometry: the
//! datasets are lon/lat treated as a flat plane, exactly as PBSM does.

pub mod grid;
pub mod point;
pub mod polygon;
pub mod rect;
pub mod sweep;

pub use grid::UniformGrid;
pub use point::Point;
pub use polygon::{flat_ring_contains_point, Polygon};
pub use rect::Rect;
pub use sweep::plane_sweep_join;
