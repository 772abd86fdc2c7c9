//! Timeline granules and the OIP packed-bucket encoding.
//!
//! The interval FUDJ's `DIVIDE` splits the unified timeline into
//! `NumberOfBuckets` equal granules; `ASSIGN` maps each interval to the
//! *single* bucket identified by its (start granule, end granule) pair,
//! packed into one integer as `(start << 16) | end` — exactly the paper's
//! single-assign scheme. `MATCH` unpacks two buckets and tests granule-range
//! overlap (a theta match, which is why interval FUDJ ends up on the NLJ
//! bucket-matching path).

use crate::interval::Interval;
use serde::{Deserialize, Serialize};

/// How many low bits hold the end granule in the packed encoding.
pub const GRANULE_BITS: u32 = 16;

/// Maximum granule count representable by the packed encoding.
pub const MAX_GRANULES: u32 = 1 << GRANULE_BITS;

/// Pack a (start, end) granule pair into one bucket id.
#[inline]
pub fn encode_bucket(start_granule: u32, end_granule: u32) -> u64 {
    debug_assert!(start_granule < MAX_GRANULES && end_granule < MAX_GRANULES);
    debug_assert!(start_granule <= end_granule);
    ((start_granule as u64) << GRANULE_BITS) | end_granule as u64
}

/// Unpack a bucket id into its (start, end) granule pair.
#[inline]
pub fn decode_bucket(bucket: u64) -> (u32, u32) {
    (
        (bucket >> GRANULE_BITS) as u32,
        (bucket & (MAX_GRANULES as u64 - 1)) as u32,
    )
}

/// Whether two packed buckets have overlapping granule ranges — the interval
/// FUDJ's `MATCH`.
#[inline]
pub fn buckets_overlap(b1: u64, b2: u64) -> bool {
    let (s1, e1) = decode_bucket(b1);
    let (s2, e2) = decode_bucket(b2);
    s1 <= e2 && e1 >= s2
}

/// The interval FUDJ's `PPlan`: a timeline divided into equal granules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GranuleTimeline {
    range: Interval,
    granules: u32,
    /// Granule length; at least 1 so ids stay bounded for tiny ranges.
    d: i64,
}

impl GranuleTimeline {
    /// Divide `range` into `granules` equal pieces.
    ///
    /// # Panics
    /// Panics when `granules` is zero or exceeds [`MAX_GRANULES`] (the packed
    /// encoding would overflow — the same 16-bit limit as the paper's
    /// `(front << 16) | end` scheme).
    pub fn new(range: Interval, granules: u32) -> Self {
        assert!(granules > 0, "timeline needs at least one granule");
        assert!(
            granules <= MAX_GRANULES,
            "granule count {granules} exceeds the packed-encoding limit {MAX_GRANULES}"
        );
        let span = range.duration().max(1);
        let d = (span / granules as i64).max(1);
        GranuleTimeline { range, granules, d }
    }

    /// The divided range.
    #[inline]
    pub fn range(&self) -> Interval {
        self.range
    }

    /// Number of granules.
    #[inline]
    pub fn granules(&self) -> u32 {
        self.granules
    }

    /// Granule index of time `t`, clamped into `[0, granules)` so every
    /// record gets a bucket even if it falls outside the summarized range
    /// (possible only when summaries were computed on a different snapshot).
    #[inline]
    pub fn granule_of(&self, t: i64) -> u32 {
        let off = t.saturating_sub(self.range.start);
        if off <= 0 {
            return 0;
        }
        ((off / self.d) as u64).min(self.granules as u64 - 1) as u32
    }

    /// The paper's `ASSIGN`: the single packed bucket of an interval —
    /// `(start_granule << 16) | end_granule`.
    #[inline]
    pub fn assign(&self, iv: &Interval) -> u64 {
        let s = self.granule_of(iv.start);
        let e = self.granule_of(iv.end).max(s);
        encode_bucket(s, e)
    }

    /// The time range covered by granule `g`.
    pub fn granule_interval(&self, g: u32) -> Interval {
        debug_assert!(g < self.granules);
        let start = self.range.start + g as i64 * self.d;
        let end = if g + 1 == self.granules {
            self.range.end
        } else {
            self.range.start + (g as i64 + 1) * self.d - 1
        };
        Interval::new(start, end.max(start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tl() -> GranuleTimeline {
        GranuleTimeline::new(Interval::new(0, 1000), 10)
    }

    #[test]
    fn encode_decode_roundtrip() {
        for (s, e) in [(0u32, 0u32), (3, 7), (65535, 65535), (0, 65535)] {
            assert_eq!(decode_bucket(encode_bucket(s, e)), (s, e));
        }
    }

    #[test]
    fn granule_of_boundaries() {
        let t = tl();
        assert_eq!(t.granule_of(0), 0);
        assert_eq!(t.granule_of(99), 0);
        assert_eq!(t.granule_of(100), 1);
        assert_eq!(t.granule_of(999), 9);
        assert_eq!(t.granule_of(1000), 9); // clamped into last granule
        assert_eq!(t.granule_of(-50), 0); // clamped below
        assert_eq!(t.granule_of(5000), 9); // clamped above
    }

    #[test]
    fn assign_packs_start_and_end() {
        let t = tl();
        let b = t.assign(&Interval::new(150, 420));
        assert_eq!(decode_bucket(b), (1, 4));
    }

    #[test]
    fn buckets_overlap_iff_granule_ranges_do() {
        let a = encode_bucket(1, 4);
        assert!(buckets_overlap(a, encode_bucket(4, 9))); // touch
        assert!(buckets_overlap(a, encode_bucket(0, 1)));
        assert!(buckets_overlap(a, encode_bucket(2, 3))); // nested
        assert!(!buckets_overlap(a, encode_bucket(5, 9)));
        assert!(!buckets_overlap(a, encode_bucket(0, 0)));
    }

    #[test]
    fn overlapping_intervals_get_overlapping_buckets() {
        // Soundness of the partitioning: if two intervals overlap, their
        // buckets must match, or the join would miss results.
        let t = tl();
        let pairs = [
            (Interval::new(0, 100), Interval::new(100, 200)),
            (Interval::new(50, 950), Interval::new(940, 1000)),
            (Interval::new(333, 333), Interval::new(0, 1000)),
        ];
        for (a, b) in pairs {
            assert!(a.overlaps(&b));
            assert!(
                buckets_overlap(t.assign(&a), t.assign(&b)),
                "{a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn granule_interval_partition_covers_range() {
        let t = tl();
        assert_eq!(t.granule_interval(0).start, 0);
        assert_eq!(t.granule_interval(9).end, 1000);
        for g in 0..9u32 {
            assert_eq!(
                t.granule_interval(g).end + 1,
                t.granule_interval(g + 1).start
            );
        }
    }

    #[test]
    fn tiny_range_single_granule() {
        let t = GranuleTimeline::new(Interval::new(42, 42), 100);
        assert_eq!(t.assign(&Interval::new(42, 42)), encode_bucket(0, 0));
    }

    #[test]
    #[should_panic(expected = "packed-encoding limit")]
    fn rejects_oversized_granule_count() {
        let _ = GranuleTimeline::new(Interval::new(0, 1_000_000), MAX_GRANULES + 1);
    }
}
