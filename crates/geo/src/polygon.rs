//! Simple polygons (single ring, no holes) — enough for the Parks dataset.

use crate::point::{segments_intersect, Point};
use crate::rect::Rect;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A simple polygon given by its ring of vertices in order (either winding).
/// The ring is stored *open* (the closing edge `last → first` is implicit).
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Polygon {
    ring: Vec<Point>,
    mbr: Rect,
}

impl Polygon {
    /// Build a polygon from at least three vertices.
    ///
    /// # Panics
    /// Panics if fewer than three vertices are supplied.
    pub fn new(ring: Vec<Point>) -> Self {
        assert!(
            ring.len() >= 3,
            "polygon needs at least 3 vertices, got {}",
            ring.len()
        );
        let mbr = Rect::from_points(ring.iter());
        Polygon { ring, mbr }
    }

    /// Axis-aligned rectangle as a polygon (counter-clockwise ring).
    pub fn from_rect(r: &Rect) -> Self {
        Polygon::new(vec![
            Point::new(r.min_x, r.min_y),
            Point::new(r.max_x, r.min_y),
            Point::new(r.max_x, r.max_y),
            Point::new(r.min_x, r.max_y),
        ])
    }

    /// The vertex ring (open; the closing edge is implicit).
    #[inline]
    pub fn ring(&self) -> &[Point] {
        &self.ring
    }

    /// Number of vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Always false: construction requires ≥ 3 vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Precomputed minimum bounding rectangle.
    #[inline]
    pub fn mbr(&self) -> Rect {
        self.mbr
    }

    /// Iterator over the closed edge list, including `last → first`.
    pub fn edges(&self) -> impl Iterator<Item = (&Point, &Point)> {
        let n = self.ring.len();
        (0..n).map(move |i| (&self.ring[i], &self.ring[(i + 1) % n]))
    }

    /// Signed area (positive for counter-clockwise rings).
    pub fn signed_area(&self) -> f64 {
        let mut acc = 0.0;
        for (a, b) in self.edges() {
            acc += a.x * b.y - b.x * a.y;
        }
        acc / 2.0
    }

    /// Absolute area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Point-in-polygon by ray casting (boundary points count as inside).
    ///
    /// This is the `ST_Contains(boundary, point)` predicate of Query 1.
    pub fn contains_point(&self, p: &Point) -> bool {
        ring_contains_point(&self.mbr, self.ring.len(), |i| self.ring[i], p)
    }

    /// Whether two polygons intersect (share any point): true when any edges
    /// cross, or when one polygon is nested inside the other.
    pub fn intersects(&self, other: &Polygon) -> bool {
        if !self.mbr.intersects(&other.mbr) {
            return false;
        }
        for (a, b) in self.edges() {
            for (c, d) in other.edges() {
                if segments_intersect(a, b, c, d) {
                    return true;
                }
            }
        }
        // No edge crossings: either disjoint or one contains the other.
        self.contains_point(&other.ring[0]) || other.contains_point(&self.ring[0])
    }

    /// Minimum distance from `p` to this polygon (0 when inside).
    pub fn distance_to_point(&self, p: &Point) -> f64 {
        if self.contains_point(p) {
            return 0.0;
        }
        let mut best = f64::INFINITY;
        for (a, b) in self.edges() {
            best = best.min(p.distance_to_segment(a, b));
        }
        best
    }
}

/// [`Polygon::contains_point`] on a ring given as flat `[x0, y0, x1, y1,
/// ...]` coordinates — at least three vertices, the closing edge implicit —
/// read in place: no `Polygon` is built, nothing is allocated.
pub fn flat_ring_contains_point(coords: &[f64], p: &Point) -> bool {
    let vertex = |i: usize| Point::new(coords[2 * i], coords[2 * i + 1]);
    let n = coords.len() / 2;
    let mut mbr = Rect::empty();
    for i in 0..n {
        mbr.expand_point(&vertex(i));
    }
    ring_contains_point(&mbr, n, vertex, p)
}

/// The one point-in-ring kernel: ray casting over the open ring
/// `vertex(0), …, vertex(n - 1)` whose bounding rectangle is `mbr`, boundary
/// points inside.
#[inline]
fn ring_contains_point(mbr: &Rect, n: usize, vertex: impl Fn(usize) -> Point, p: &Point) -> bool {
    if !mbr.contains_point(p) {
        return false;
    }
    let edge = |i: usize| (vertex(i), vertex((i + 1) % n));
    // Boundary check first: ray casting is unreliable exactly on edges.
    if (0..n).any(|i| {
        let (a, b) = edge(i);
        p.distance_to_segment(&a, &b) == 0.0
    }) {
        return true;
    }
    let mut inside = false;
    for i in 0..n {
        let (a, b) = edge(i);
        // Half-open rule on y avoids double-counting vertices.
        if (a.y > p.y) != (b.y > p.y) {
            let x_cross = a.x + (p.y - a.y) / (b.y - a.y) * (b.x - a.x);
            if p.x < x_cross {
                inside = !inside;
            }
        }
    }
    inside
}

impl fmt::Debug for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Polygon[{} vertices, mbr {:?}]",
            self.ring.len(),
            self.mbr
        )
    }
}

impl fmt::Display for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "POLYGON((")?;
        for (i, p) in self.ring.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", p.x, p.y)?;
        }
        write!(f, "))")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unit_square() -> Polygon {
        Polygon::from_rect(&Rect::new(0.0, 0.0, 1.0, 1.0))
    }

    fn triangle() -> Polygon {
        Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 4.0),
        ])
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn rejects_degenerate_ring() {
        let _ = Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)]);
    }

    #[test]
    fn area_of_square_and_triangle() {
        assert_eq!(unit_square().area(), 1.0);
        assert_eq!(triangle().area(), 8.0);
    }

    #[test]
    fn signed_area_flips_with_winding() {
        let ccw = unit_square();
        let mut ring = ccw.ring().to_vec();
        ring.reverse();
        let cw = Polygon::new(ring);
        assert_eq!(ccw.signed_area(), -cw.signed_area());
    }

    #[test]
    fn contains_interior_boundary_exterior() {
        let sq = unit_square();
        assert!(sq.contains_point(&Point::new(0.5, 0.5)));
        assert!(sq.contains_point(&Point::new(0.0, 0.5))); // on edge
        assert!(sq.contains_point(&Point::new(1.0, 1.0))); // vertex
        assert!(!sq.contains_point(&Point::new(1.5, 0.5)));
        assert!(!sq.contains_point(&Point::new(0.5, -0.0001)));
    }

    #[test]
    fn contains_in_concave_polygon() {
        // A "U" shape: the notch between the prongs is outside.
        let u = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(6.0, 0.0),
            Point::new(6.0, 4.0),
            Point::new(4.0, 4.0),
            Point::new(4.0, 1.0),
            Point::new(2.0, 1.0),
            Point::new(2.0, 4.0),
            Point::new(0.0, 4.0),
        ]);
        assert!(u.contains_point(&Point::new(1.0, 3.0))); // left prong
        assert!(u.contains_point(&Point::new(5.0, 3.0))); // right prong
        assert!(!u.contains_point(&Point::new(3.0, 3.0))); // notch
        assert!(u.contains_point(&Point::new(3.0, 0.5))); // base
    }

    #[test]
    fn polygons_intersect_by_edge_crossing() {
        let a = unit_square();
        let b = Polygon::from_rect(&Rect::new(0.5, 0.5, 2.0, 2.0));
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
    }

    #[test]
    fn polygons_intersect_by_containment() {
        let outer = Polygon::from_rect(&Rect::new(0.0, 0.0, 10.0, 10.0));
        let inner = Polygon::from_rect(&Rect::new(4.0, 4.0, 5.0, 5.0));
        assert!(outer.intersects(&inner));
        assert!(inner.intersects(&outer));
    }

    #[test]
    fn polygons_disjoint() {
        let a = unit_square();
        let b = Polygon::from_rect(&Rect::new(5.0, 5.0, 6.0, 6.0));
        assert!(!a.intersects(&b));
    }

    #[test]
    fn mbr_overlap_but_geometry_disjoint() {
        // A big lower-right triangle (below the main diagonal) and a small
        // triangle tucked in the upper-left corner: MBRs overlap, shapes don't.
        let a = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
        ]);
        let b = Polygon::new(vec![
            Point::new(0.0, 9.0),
            Point::new(1.0, 10.0),
            Point::new(0.0, 10.0),
        ]);
        assert!(a.mbr().intersects(&b.mbr()));
        assert!(!a.intersects(&b));
    }

    #[test]
    fn distance_to_point() {
        let sq = unit_square();
        assert_eq!(sq.distance_to_point(&Point::new(0.5, 0.5)), 0.0);
        assert_eq!(sq.distance_to_point(&Point::new(2.0, 0.5)), 1.0);
        assert!((sq.distance_to_point(&Point::new(4.0, 5.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn display_wkt_like() {
        let t = triangle();
        assert_eq!(t.to_string(), "POLYGON((0 0, 4 0, 0 4))");
    }

    /// Coordinates on a half-unit grid, so rings have horizontal, vertical
    /// and collinear edges and probes land exactly on them.
    fn grid_coord() -> impl Strategy<Value = f64> {
        (-8i32..8).prop_map(|v| f64::from(v) * 0.5)
    }

    proptest! {
        /// The flat-slice entry point is `contains_point` read in place: one
        /// answer on random rings, for random points, every vertex, and a
        /// point on every edge.
        #[test]
        fn flat_ring_kernel_agrees_with_contains_point(
            ring in prop::collection::vec((grid_coord(), grid_coord()), 3..9),
            probes in prop::collection::vec((grid_coord(), grid_coord()), 0..24),
            t in prop::sample::select(vec![0.0, 0.25, 0.5, 1.0 / 3.0, 0.9]),
        ) {
            let ring: Vec<Point> = ring.into_iter().map(|(x, y)| Point::new(x, y)).collect();
            let polygon = Polygon::new(ring.clone());
            let coords: Vec<f64> = ring.iter().flat_map(|p| [p.x, p.y]).collect();
            let on_edges = polygon
                .edges()
                .map(|(a, b)| Point::new(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)));
            let points: Vec<Point> = probes
                .into_iter()
                .map(|(x, y)| Point::new(x, y))
                .chain(ring.iter().copied())
                .chain(on_edges)
                .collect();
            for p in &points {
                prop_assert_eq!(
                    flat_ring_contains_point(&coords, p),
                    polygon.contains_point(p),
                    "{:?} in {:?}", p, ring
                );
            }
        }
    }
}
