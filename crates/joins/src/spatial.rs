//! Spatial FUDJ — the PBSM algorithm in the FUDJ programming model (§V-A).
//!
//! ```text
//! SUMMARIZE(geometry, S):  S ← MBR(geometry) ∪ S
//! DIVIDE(S1, S2, n):       PPlan ← (S1 ∩ S2, n × n grid)
//! ASSIGN(geometry, PPlan): overlapping tile ids of MBR(geometry)
//! MATCH:                   default (tile equality)
//! VERIFY(g1, g2):          intersects(g1, g2)
//! ```
//!
//! Geometries arrive through the external-type boundary as flat coordinate
//! arrays (`[x, y]` for a point, `[x0, y0, x1, y1, ...]` for a polygon ring)
//! — see `fudj_types::ext`.

use fudj_core::{BucketId, DedupMode, FlexibleJoin};
use fudj_geo::{flat_ring_contains_point, Point, Polygon, Rect, UniformGrid};
use fudj_types::{ExtValue, FudjError, Result};
use serde::{Deserialize, Serialize};

/// Duplicate-handling flavor for the spatial join (Fig. 12's subjects).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SpatialDedup {
    /// The framework's default duplicate avoidance (re-run `assign`).
    #[default]
    FrameworkAvoidance,
    /// PBSM's reference-point method, supplied as a custom `dedup`.
    ReferencePoint,
    /// Post-join duplicate elimination.
    Elimination,
}

/// The PBSM spatial join as a FUDJ library class
/// (`"spatial.SpatialJoin"` in [`crate::standard_library`]).
#[derive(Clone, Debug, Default)]
pub struct SpatialFudj {
    dedup: SpatialDedup,
}

/// The spatial `PPlan`: the grid over the joint MBR.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SpatialPPlan {
    pub grid: UniformGrid,
}

/// Default grid side when the query supplies no `n` parameter.
pub const DEFAULT_GRID_SIDE: u32 = 100;

impl SpatialFudj {
    /// PBSM with the framework's default duplicate avoidance.
    pub fn new() -> Self {
        Self::default()
    }

    /// PBSM with a chosen duplicate-handling flavor.
    pub fn with_dedup(dedup: SpatialDedup) -> Self {
        SpatialFudj { dedup }
    }
}

/// A key read from its external coordinate-array form: a point, or a
/// polygon ring borrowed as its flat coordinates.
pub(crate) enum Geom<'a> {
    Point(Point),
    Ring(&'a [f64]),
}

pub(crate) fn decode_geom(key: &ExtValue) -> Result<Geom<'_>> {
    let coords = key.as_double_array()?;
    match coords.len() {
        2 => Ok(Geom::Point(Point::new(coords[0], coords[1]))),
        n if n >= 6 && n % 2 == 0 => Ok(Geom::Ring(coords)),
        n => Err(FudjError::JoinLibrary(format!(
            "spatial key must be [x, y] or a polygon ring, got {n} coordinates"
        ))),
    }
}

/// Whether two keys' geometries share a point. Point × polygon — every
/// pair of Query 5 — reads the ring in place and allocates nothing; only
/// polygon × polygon builds the two polygons.
pub(crate) fn geoms_intersect(a: &Geom<'_>, b: &Geom<'_>) -> bool {
    let polygon = |ring: &[f64]| {
        Polygon::new(
            ring.chunks_exact(2)
                .map(|c| Point::new(c[0], c[1]))
                .collect(),
        )
    };
    match (a, b) {
        (Geom::Point(p), Geom::Point(q)) => p == q,
        (Geom::Point(p), Geom::Ring(ring)) | (Geom::Ring(ring), Geom::Point(p)) => {
            flat_ring_contains_point(ring, p)
        }
        (Geom::Ring(r), Geom::Ring(s)) => polygon(r).intersects(&polygon(s)),
    }
}

impl FlexibleJoin for SpatialFudj {
    type Summary = Rect;
    type PPlan = SpatialPPlan;

    fn name(&self) -> &str {
        "spatial_join"
    }

    fn summarize(&self, key: &ExtValue, summary: &mut Rect) -> Result<()> {
        // MBR(geometry) ∪ S — directly from the coordinate array, without
        // materializing the geometry.
        summary.expand_rect(&key.as_coords_mbr()?);
        Ok(())
    }

    fn merge_summaries(&self, a: Rect, b: Rect) -> Rect {
        a.union(&b)
    }

    fn divide(&self, left: &Rect, right: &Rect, params: &[ExtValue]) -> Result<SpatialPPlan> {
        let n = match params.first() {
            Some(p) => {
                let n = p.as_long()?;
                if n <= 0 || n > u16::MAX as i64 {
                    return Err(FudjError::JoinLibrary(format!(
                        "grid side must be in 1..=65535, got {n}"
                    )));
                }
                n as u32
            }
            None => DEFAULT_GRID_SIDE,
        };
        // PBSM grids only the region both inputs cover; results can only
        // exist there.
        let extent = left.intersection(right);
        Ok(SpatialPPlan {
            grid: UniformGrid::new(extent, n),
        })
    }

    fn assign(&self, key: &ExtValue, pplan: &SpatialPPlan, out: &mut Vec<BucketId>) -> Result<()> {
        let mbr = key.as_coords_mbr()?;
        // A record outside the joint region cannot join: prune it here
        // instead of clamping it onto border tiles.
        let clipped = mbr.intersection(&pplan.grid.extent());
        if !clipped.is_empty() {
            out.extend(pplan.grid.overlapping_tiles(&clipped));
        }
        Ok(())
    }

    fn verify(&self, k1: &ExtValue, k2: &ExtValue, _pplan: &SpatialPPlan) -> Result<bool> {
        Ok(geoms_intersect(&decode_geom(k1)?, &decode_geom(k2)?))
    }

    fn dedup_mode(&self) -> DedupMode {
        match self.dedup {
            SpatialDedup::FrameworkAvoidance => DedupMode::Avoidance,
            SpatialDedup::ReferencePoint => DedupMode::Custom,
            SpatialDedup::Elimination => DedupMode::Elimination,
        }
    }

    fn custom_dedup(
        &self,
        b1: BucketId,
        k1: &ExtValue,
        _b2: BucketId,
        k2: &ExtValue,
        pplan: &SpatialPPlan,
    ) -> Result<bool> {
        // Reference-point method: report the pair only from the tile
        // containing the min corner of the two MBRs' intersection.
        let m1 = k1.as_coords_mbr()?;
        let m2 = k2.as_coords_mbr()?;
        Ok(pplan.grid.is_reference_tile(b1, &m1, &m2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fudj_core::standalone::run_standalone;
    use fudj_core::ProxyJoin;
    use fudj_types::ext::to_external;
    use fudj_types::Value;

    fn point(x: f64, y: f64) -> ExtValue {
        ExtValue::DoubleArray(vec![x, y])
    }

    fn square(x0: f64, y0: f64, side: f64) -> ExtValue {
        ExtValue::DoubleArray(vec![
            x0,
            y0,
            x0 + side,
            y0,
            x0 + side,
            y0 + side,
            x0,
            y0 + side,
        ])
    }

    #[test]
    fn summarize_unions_mbrs() {
        let j = SpatialFudj::new();
        let mut s = Rect::default();
        j.summarize(&point(1.0, 2.0), &mut s).unwrap();
        j.summarize(&square(5.0, 5.0, 2.0), &mut s).unwrap();
        assert_eq!(s, Rect::new(1.0, 2.0, 7.0, 7.0));
    }

    #[test]
    fn divide_intersects_and_grids() {
        let j = SpatialFudj::new();
        let l = Rect::new(0.0, 0.0, 10.0, 10.0);
        let r = Rect::new(5.0, 5.0, 20.0, 20.0);
        let plan = j.divide(&l, &r, &[ExtValue::Long(4)]).unwrap();
        assert_eq!(plan.grid.extent(), Rect::new(5.0, 5.0, 10.0, 10.0));
        assert_eq!(plan.grid.side(), 4);
        assert!(j.divide(&l, &r, &[ExtValue::Long(0)]).is_err());
        assert!(j.divide(&l, &r, &[ExtValue::Long(1 << 20)]).is_err());
    }

    #[test]
    fn assign_prunes_outside_joint_region() {
        let j = SpatialFudj::new();
        let plan = SpatialPPlan {
            grid: UniformGrid::new(Rect::new(0.0, 0.0, 8.0, 8.0), 4),
        };
        let mut out = Vec::new();
        j.assign(&point(100.0, 100.0), &plan, &mut out).unwrap();
        assert!(out.is_empty(), "outside record pruned");
        j.assign(&point(1.0, 1.0), &plan, &mut out).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn verify_point_in_polygon() {
        let j = SpatialFudj::new();
        let plan = SpatialPPlan {
            grid: UniformGrid::new(Rect::new(0.0, 0.0, 1.0, 1.0), 1),
        };
        assert!(j
            .verify(&square(0.0, 0.0, 4.0), &point(2.0, 2.0), &plan)
            .unwrap());
        assert!(!j
            .verify(&square(0.0, 0.0, 4.0), &point(9.0, 9.0), &plan)
            .unwrap());
        assert!(j.verify(&point(1.0, 1.0), &point(1.0, 1.0), &plan).unwrap());
        assert!(j
            .verify(&square(0.0, 0.0, 4.0), &square(3.0, 3.0, 4.0), &plan)
            .unwrap());
        assert!(j
            .verify(&point(0.0, 0.0), &ExtValue::Long(1), &plan)
            .is_err());
    }

    /// End-to-end PBSM through the standalone runner: parks × fire points,
    /// against a brute-force oracle — all three dedup flavors agree.
    #[test]
    fn standalone_all_dedup_flavors_agree_with_oracle() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        let parks: Vec<Polygon> = (0..30)
            .map(|_| {
                let x = rng.gen_range(0.0..80.0);
                let y = rng.gen_range(0.0..80.0);
                let w = rng.gen_range(1.0..15.0);
                let h = rng.gen_range(1.0..15.0);
                Polygon::from_rect(&Rect::new(x, y, x + w, y + h))
            })
            .collect();
        let fires: Vec<Point> = (0..60)
            .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect();

        let left: Vec<ExtValue> = parks
            .iter()
            .map(|p| to_external(&Value::polygon(p.clone())).unwrap())
            .collect();
        let right: Vec<ExtValue> = fires
            .iter()
            .map(|p| to_external(&Value::Point(*p)).unwrap())
            .collect();

        let mut oracle = Vec::new();
        for (i, park) in parks.iter().enumerate() {
            for (j, fire) in fires.iter().enumerate() {
                if park.contains_point(fire) {
                    oracle.push((i, j));
                }
            }
        }
        assert!(!oracle.is_empty(), "fixture produces matches");

        let params = [ExtValue::Long(6)];
        for dedup in [
            SpatialDedup::FrameworkAvoidance,
            SpatialDedup::ReferencePoint,
            SpatialDedup::Elimination,
        ] {
            let alg = ProxyJoin::new(SpatialFudj::with_dedup(dedup));
            let got = run_standalone(&alg, &left, &right, &params).unwrap();
            assert_eq!(got, oracle, "dedup flavor {dedup:?}");
        }
    }

    /// Polygon × polygon self-join shape: overlapping squares multi-assign
    /// across tiles, and avoidance keeps the result exact.
    #[test]
    fn polygon_polygon_join_no_duplicates() {
        let squares = vec![
            square(0.0, 0.0, 10.0),
            square(5.0, 5.0, 10.0),
            square(20.0, 20.0, 3.0),
            square(8.0, 8.0, 4.0),
        ];
        let alg = ProxyJoin::new(SpatialFudj::new());
        let got = run_standalone(&alg, &squares, &squares, &[ExtValue::Long(8)]).unwrap();
        // Expected: every pair whose squares intersect (incl. self-pairs).
        let polys: Vec<Polygon> = squares
            .iter()
            .map(|e| {
                let c = e.as_double_array().unwrap();
                Polygon::new(c.chunks_exact(2).map(|p| Point::new(p[0], p[1])).collect())
            })
            .collect();
        let mut oracle = Vec::new();
        for (i, a) in polys.iter().enumerate() {
            for (j, b) in polys.iter().enumerate() {
                if a.intersects(b) {
                    oracle.push((i, j));
                }
            }
        }
        assert_eq!(got, oracle);
    }

    #[test]
    fn disjoint_datasets_produce_empty_result_fast() {
        // Joint MBR is empty; every record is pruned at assign.
        let left = vec![square(0.0, 0.0, 1.0), square(2.0, 2.0, 1.0)];
        let right = vec![point(100.0, 100.0), point(200.0, 200.0)];
        let alg = ProxyJoin::new(SpatialFudj::new());
        let (pairs, stats) = fudj_core::standalone::run_standalone_with_stats(
            &alg,
            &left,
            &right,
            &[ExtValue::Long(16)],
        )
        .unwrap();
        assert!(pairs.is_empty());
        assert_eq!(stats.verified_pairs, 0, "nothing reaches verify");
    }
}
