//! The single-machine standalone runner (§VI-D2).
//!
//! The paper ships a standalone prototype so join developers can test and
//! debug a FUDJ library without a running DBMS. This module is that
//! prototype: it drives any [`JoinAlgorithm`] through the full SUMMARIZE →
//! PARTITION → COMBINE flow in plain sequential code and returns matched
//! `(left_index, right_index)` pairs.
//!
//! Beyond debugging, the distributed engine's tests use this runner as the
//! *reference semantics*: for every workload, the cluster execution must
//! produce exactly the pairs this code produces.

use crate::guard::{GuardConfig, GuardedJoin, UdfPolicy, UdfStats};
use crate::model::{avoidance_accepts, BucketId, DedupMode, Join, JoinAlgorithm, Side};
use crate::state::SummaryState;
use fudj_types::{ExtValue, FudjError, Result};
use std::collections::HashMap;

/// Statistics the runner gathers along the way — handy when tuning a new
/// join's partitioning (the paper's "number of buckets" analyses).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StandaloneStats {
    /// Distinct buckets observed on each side.
    pub left_buckets: usize,
    pub right_buckets: usize,
    /// Total assignments (≥ record count when multi-assign).
    pub left_assignments: usize,
    pub right_assignments: usize,
    /// Bucket pairs that matched.
    pub matched_bucket_pairs: usize,
    /// Record pairs that reached `verify`.
    pub verified_pairs: usize,
    /// Record pairs dropped by duplicate handling.
    pub deduped_pairs: usize,
}

/// Run the full three-phase flow over in-memory keys.
///
/// `params` are the query-time parameters (grid size, bucket count,
/// similarity threshold, ...) forwarded to `divide`.
///
/// Like the executor, the runner never invokes user code directly: unless
/// `alg` is already guarded, it is wrapped in a [`GuardedJoin`] with the
/// default fail-fast [`GuardConfig`] — zero-cost for well-behaved libraries,
/// a structured [`FudjError::UdfViolation`] instead of UB for misbehaving
/// ones.
pub fn run_standalone(
    alg: &dyn JoinAlgorithm,
    left_keys: &[ExtValue],
    right_keys: &[ExtValue],
    params: &[ExtValue],
) -> Result<Vec<(usize, usize)>> {
    run_standalone_with_stats(alg, left_keys, right_keys, params).map(|(pairs, _)| pairs)
}

/// [`run_standalone`], also returning execution statistics.
pub fn run_standalone_with_stats(
    alg: &dyn JoinAlgorithm,
    left_keys: &[ExtValue],
    right_keys: &[ExtValue],
    params: &[ExtValue],
) -> Result<(Vec<(usize, usize)>, StandaloneStats)> {
    if alg.guard().is_some() {
        run_flow(alg, left_keys, right_keys, params)
    } else {
        let guarded = GuardedJoin::new(alg, GuardConfig::default());
        run_flow(&guarded, left_keys, right_keys, params)
    }
}

/// Run under an explicit guard configuration, returning the guardrail
/// counters alongside the pairs. Under [`UdfPolicy::FallbackEquality`], a
/// violation in a default-equality-match join degrades to the plain
/// nested-loop equality join on the raw keys.
pub fn run_guarded(
    alg: &dyn JoinAlgorithm,
    config: GuardConfig,
    left_keys: &[ExtValue],
    right_keys: &[ExtValue],
    params: &[ExtValue],
) -> Result<(Vec<(usize, usize)>, UdfStats)> {
    let policy = config.policy;
    let guarded = GuardedJoin::new(alg, config);
    match run_flow(&guarded, left_keys, right_keys, params) {
        Ok((pairs, _)) => Ok((pairs, guarded.stats())),
        Err(FudjError::UdfViolation { .. })
            if policy == UdfPolicy::FallbackEquality && alg.uses_default_match() =>
        {
            guarded.handle().note_fallback();
            let mut pairs = Vec::new();
            for (i, k1) in left_keys.iter().enumerate() {
                for (j, k2) in right_keys.iter().enumerate() {
                    if k1 == k2 {
                        pairs.push((i, j));
                    }
                }
            }
            Ok((pairs, guarded.stats()))
        }
        Err(e) => Err(e),
    }
}

/// The three-phase flow, one key and one pair at a time: each call is a
/// block entry on a block of one. [`run_standalone`] runs it over a guarded
/// algorithm, [`crate::reference_execute`] over an engine join.
pub(crate) fn run_flow<K>(
    alg: &dyn Join<K>,
    left_keys: &[K],
    right_keys: &[K],
    params: &[K],
) -> Result<(Vec<(usize, usize)>, StandaloneStats)> {
    let mut stats = StandaloneStats::default();

    // ---- SUMMARIZE ----------------------------------------------------
    let summarize = |side: Side, keys: &[K]| -> Result<SummaryState> {
        let mut summary = alg.new_summary(side);
        for k in keys {
            alg.local_aggregate(side, k, &mut summary)?;
        }
        Ok(summary)
    };
    let left_summary = summarize(Side::Left, left_keys)?;
    let right_summary = summarize(Side::Right, right_keys)?;

    // ---- DIVIDE --------------------------------------------------------
    let pplan = alg.divide(&left_summary, &right_summary, params)?;

    // ---- PARTITION ------------------------------------------------------
    let bucketize = |side: Side, keys: &[K], assignments: &mut usize| {
        if let Some(g) = alg.guard() {
            g.begin_partition();
        }
        let (mut buckets, mut scratch) = (HashMap::<BucketId, Vec<usize>>::new(), Vec::new());
        for (i, k) in keys.iter().enumerate() {
            alg.assign(side, k, &pplan, &mut scratch)?;
            *assignments += scratch.len();
            for &b in &scratch {
                buckets.entry(b).or_default().push(i);
            }
        }
        Ok::<_, FudjError>(buckets)
    };
    let left_buckets = bucketize(Side::Left, left_keys, &mut stats.left_assignments)?;
    let right_buckets = bucketize(Side::Right, right_keys, &mut stats.right_assignments)?;
    stats.left_buckets = left_buckets.len();
    stats.right_buckets = right_buckets.len();

    // ---- COMBINE ---------------------------------------------------------
    // Match buckets: equality fast path for default-match joins, full
    // cross-check of bucket ids (the theta case) otherwise — the same split
    // the optimizer makes between hash join and NLJ bucket matching.
    let mut matched: Vec<(BucketId, BucketId)> = Vec::new();
    if alg.uses_default_match() {
        for &b in left_buckets.keys() {
            if right_buckets.contains_key(&b) {
                matched.push((b, b));
            }
        }
    } else {
        for &b1 in left_buckets.keys() {
            for &b2 in right_buckets.keys() {
                if alg.matches(b1, b2) {
                    matched.push((b1, b2));
                }
            }
        }
    }
    // Deterministic output order regardless of hash-map iteration.
    matched.sort_unstable();
    stats.matched_bucket_pairs = matched.len();

    let dedup_mode = alg.dedup_mode();
    // Avoidance dedup re-invokes `assign`; give the combine phase its own
    // fan-out window so those re-runs don't count against the partition cap.
    if let Some(g) = alg.guard() {
        g.begin_partition();
    }
    let mut out: Vec<(usize, usize)> = Vec::new();
    for (b1, b2) in matched {
        let lefts = &left_buckets[&b1];
        let rights = &right_buckets[&b2];
        for &i in lefts {
            for &j in rights {
                stats.verified_pairs += 1;
                // Per-pair `verify` on raw keys on purpose: this runner is
                // the oracle the distributed engine is checked against
                // (§VI-D-2), so it verifies blocks of one pair — and since
                // it never prepares, agreeing with it is what cross-checks
                // a library's `prepare` contract.
                if !alg.verify(b1, &left_keys[i], b2, &right_keys[j], &pplan)? {
                    continue;
                }
                let keep = match dedup_mode {
                    DedupMode::None | DedupMode::Elimination => true,
                    DedupMode::Avoidance => {
                        avoidance_accepts(alg, b1, &left_keys[i], b2, &right_keys[j], &pplan)?
                    }
                    DedupMode::Custom => {
                        alg.dedup(b1, &left_keys[i], b2, &right_keys[j], &pplan)?
                    }
                };
                if keep {
                    out.push((i, j));
                } else {
                    stats.deduped_pairs += 1;
                }
            }
        }
    }

    if dedup_mode == DedupMode::Elimination {
        let before = out.len();
        out.sort_unstable();
        out.dedup();
        stats.deduped_pairs += before - out.len();
    } else {
        out.sort_unstable();
    }

    // Surface any violation deferred by a callback with no `Result` channel
    // (e.g. a panicking `matches`) — nothing gets silently swallowed.
    if let Some(g) = alg.guard() {
        g.check()?;
    }
    Ok((out, stats))
}

/// Brute-force reference join: verify every pair under a plan produced by
/// the normal summarize/divide flow. Used by tests to check that the
/// partitioned execution loses no pairs and invents none.
pub fn nested_loop_reference(
    alg: &dyn JoinAlgorithm,
    left_keys: &[ExtValue],
    right_keys: &[ExtValue],
    params: &[ExtValue],
) -> Result<Vec<(usize, usize)>> {
    let mut left_summary = alg.new_summary(Side::Left);
    for k in left_keys {
        alg.local_aggregate(Side::Left, k, &mut left_summary)?;
    }
    let mut right_summary = alg.new_summary(Side::Right);
    for k in right_keys {
        alg.local_aggregate(Side::Right, k, &mut right_summary)?;
    }
    let pplan = alg.divide(&left_summary, &right_summary, params)?;

    let mut out = Vec::new();
    for (i, k1) in left_keys.iter().enumerate() {
        for (j, k2) in right_keys.iter().enumerate() {
            // Bucket ids are irrelevant to the ground truth; verify must not
            // depend on them for correctness (only dedup does).
            if alg.verify(0, k1, 0, k2, &pplan)? {
                out.push((i, j));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flexible::{FlexibleJoin, ProxyJoin};
    use serde::Serialize;

    /// A 1-D "range overlap" join with deliberate multi-assign so the dedup
    /// paths get exercised: keys are `LongArray [start, end]` ranges over a
    /// fixed domain; buckets are fixed-width cells; a range is assigned to
    /// every cell it overlaps; verify is true overlap.
    struct RangeJoin {
        cells: i64,
        mode: DedupMode,
    }

    #[derive(Clone, Debug, Default, Serialize)]
    struct Span {
        lo: i64,
        hi: i64,
        seen: bool,
    }

    #[derive(Clone, Debug, Serialize)]
    struct CellPlan {
        lo: i64,
        width: i64,
        cells: i64,
    }

    impl FlexibleJoin for RangeJoin {
        type Summary = Span;
        type PPlan = CellPlan;

        fn name(&self) -> &str {
            "range_join"
        }

        fn summarize(&self, key: &ExtValue, s: &mut Span) -> Result<()> {
            let iv = key.as_interval()?;
            if !s.seen {
                *s = Span {
                    lo: iv.start,
                    hi: iv.end,
                    seen: true,
                };
            } else {
                s.lo = s.lo.min(iv.start);
                s.hi = s.hi.max(iv.end);
            }
            Ok(())
        }

        fn merge_summaries(&self, a: Span, b: Span) -> Span {
            match (a.seen, b.seen) {
                (false, _) => b,
                (_, false) => a,
                _ => Span {
                    lo: a.lo.min(b.lo),
                    hi: a.hi.max(b.hi),
                    seen: true,
                },
            }
        }

        fn divide(&self, l: &Span, r: &Span, _params: &[ExtValue]) -> Result<CellPlan> {
            let m = self.merge_summaries(l.clone(), r.clone());
            let width = ((m.hi - m.lo).max(1) / self.cells).max(1);
            Ok(CellPlan {
                lo: m.lo,
                width,
                cells: self.cells,
            })
        }

        fn assign(&self, key: &ExtValue, p: &CellPlan, out: &mut Vec<BucketId>) -> Result<()> {
            let iv = key.as_interval()?;
            let c0 = ((iv.start - p.lo) / p.width).clamp(0, p.cells - 1);
            let c1 = ((iv.end - p.lo) / p.width).clamp(0, p.cells - 1);
            for c in c0..=c1 {
                out.push(c as BucketId);
            }
            Ok(())
        }

        fn verify(&self, k1: &ExtValue, k2: &ExtValue, _p: &CellPlan) -> Result<bool> {
            let a = k1.as_interval()?;
            let b = k2.as_interval()?;
            Ok(a.overlaps(&b))
        }

        fn dedup_mode(&self) -> DedupMode {
            self.mode
        }

        fn custom_dedup(
            &self,
            b1: BucketId,
            k1: &ExtValue,
            _b2: BucketId,
            k2: &ExtValue,
            p: &CellPlan,
        ) -> Result<bool> {
            // Reference-point style: emit only from the cell containing the
            // start of the pair's overlap region.
            let a = k1.as_interval()?;
            let b = k2.as_interval()?;
            let start = a.start.max(b.start);
            let cell = ((start - p.lo) / p.width).clamp(0, p.cells - 1) as BucketId;
            Ok(cell == b1)
        }
    }

    fn ranges(data: &[(i64, i64)]) -> Vec<ExtValue> {
        data.iter()
            .map(|&(s, e)| ExtValue::LongArray(vec![s, e]))
            .collect()
    }

    fn expected_pairs(l: &[(i64, i64)], r: &[(i64, i64)]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (i, a) in l.iter().enumerate() {
            for (j, b) in r.iter().enumerate() {
                if a.0 <= b.1 && a.1 >= b.0 {
                    out.push((i, j));
                }
            }
        }
        out
    }

    #[test]
    fn avoidance_returns_exact_result_set() {
        let l = [(0, 50), (10, 15), (90, 100), (40, 60)];
        let r = [(5, 12), (55, 95), (200, 210)];
        let alg = ProxyJoin::new(RangeJoin {
            cells: 8,
            mode: DedupMode::Avoidance,
        });
        let got = run_standalone(&alg, &ranges(&l), &ranges(&r), &[]).unwrap();
        assert_eq!(got, expected_pairs(&l, &r));
    }

    #[test]
    fn elimination_matches_avoidance_result() {
        let l = [(0, 30), (25, 80), (70, 99)];
        let r = [(10, 40), (50, 75)];
        let a1 = ProxyJoin::new(RangeJoin {
            cells: 6,
            mode: DedupMode::Avoidance,
        });
        let a2 = ProxyJoin::new(RangeJoin {
            cells: 6,
            mode: DedupMode::Elimination,
        });
        let g1 = run_standalone(&a1, &ranges(&l), &ranges(&r), &[]).unwrap();
        let g2 = run_standalone(&a2, &ranges(&l), &ranges(&r), &[]).unwrap();
        assert_eq!(g1, g2);
        assert_eq!(g1, expected_pairs(&l, &r));
    }

    #[test]
    fn custom_dedup_matches_default() {
        let l = [(0, 70), (30, 35)];
        let r = [(20, 90), (0, 5)];
        let a1 = ProxyJoin::new(RangeJoin {
            cells: 10,
            mode: DedupMode::Avoidance,
        });
        let a2 = ProxyJoin::new(RangeJoin {
            cells: 10,
            mode: DedupMode::Custom,
        });
        let g1 = run_standalone(&a1, &ranges(&l), &ranges(&r), &[]).unwrap();
        let g2 = run_standalone(&a2, &ranges(&l), &ranges(&r), &[]).unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn no_dedup_overcounts_multi_assigned_pairs() {
        // With dedup disabled, a pair spanning several shared cells is
        // emitted once per matched bucket pair — documenting why the
        // framework defaults to avoidance.
        let l = [(0, 100)];
        let r = [(0, 100)];
        let alg = ProxyJoin::new(RangeJoin {
            cells: 4,
            mode: DedupMode::None,
        });
        let got = run_standalone(&alg, &ranges(&l), &ranges(&r), &[]).unwrap();
        assert_eq!(got.len(), 4, "one emission per shared cell");
    }

    #[test]
    fn stats_reflect_multi_assign() {
        let l = [(0, 100), (10, 20)];
        let r = [(50, 60)];
        let alg = ProxyJoin::new(RangeJoin {
            cells: 4,
            mode: DedupMode::Avoidance,
        });
        let (_pairs, stats) =
            run_standalone_with_stats(&alg, &ranges(&l), &ranges(&r), &[]).unwrap();
        assert!(stats.left_assignments > 2, "(0,100) spans all cells");
        assert_eq!(stats.right_assignments, 1);
        assert!(stats.matched_bucket_pairs >= 1);
    }

    #[test]
    fn agrees_with_nested_loop_reference() {
        let l = [(0, 10), (5, 25), (20, 30), (28, 28), (100, 120)];
        let r = [(8, 22), (29, 40), (95, 105), (50, 60)];
        let alg = ProxyJoin::new(RangeJoin {
            cells: 5,
            mode: DedupMode::Avoidance,
        });
        let got = run_standalone(&alg, &ranges(&l), &ranges(&r), &[]).unwrap();
        let reference = nested_loop_reference(&alg, &ranges(&l), &ranges(&r), &[]).unwrap();
        assert_eq!(got, reference);
    }

    #[test]
    fn empty_sides() {
        let alg = ProxyJoin::new(RangeJoin {
            cells: 4,
            mode: DedupMode::Avoidance,
        });
        assert!(run_standalone(&alg, &[], &ranges(&[(0, 1)]), &[])
            .unwrap()
            .is_empty());
        assert!(run_standalone(&alg, &ranges(&[(0, 1)]), &[], &[])
            .unwrap()
            .is_empty());
        assert!(run_standalone(&alg, &[], &[], &[]).unwrap().is_empty());
    }
}
