//! The engine-facing (internal actor) join interface.

use crate::state::{PPlanState, SummaryState};
use fudj_types::{ExtValue, Result};
use std::fmt;

/// A bucket identifier — the paper's `bucket_id`. Joins may pack structure
/// into it (the interval join packs two granule ids), but the engine only
/// ever hashes and compares it.
pub type BucketId = u64;

/// Which input of the join a per-side function call concerns. Several FUDJ
/// functions come in left/right flavors because the two key types can differ
/// (paper §IV-A: "the framework allows two versions ... one for each side").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Side {
    Left,
    Right,
}

impl Side {
    /// The other side.
    pub fn flip(self) -> Side {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Side::Left => write!(f, "left"),
            Side::Right => write!(f, "right"),
        }
    }
}

/// Duplicate-handling strategy for multi-assign joins (§III-B, §VII-E).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DedupMode {
    /// The join is single-assign: duplicates cannot arise; skip dedup.
    None,
    /// Default: *duplicate avoidance* — the framework re-runs `assign` on
    /// both keys and emits a pair only from its first matching bucket pair.
    Avoidance,
    /// *Duplicate elimination* — the engine removes duplicate output pairs
    /// in an extra post-join stage (costs a shuffle; Fig. 12a measures it).
    Elimination,
    /// The library overrides `dedup` with its own avoidance predicate (e.g.
    /// PBSM's reference-point method, Fig. 12b).
    Custom,
}

/// The type-erased join algorithm the engine executes — the paper's set of
/// *internal actors*. `fudj_exec` and the standalone runner drive this
/// interface; user code implements the typed [`crate::FlexibleJoin`] instead
/// and is adapted by [`crate::ProxyJoin`].
pub trait JoinAlgorithm: Send + Sync {
    /// The join's registered name (diagnostics only).
    fn name(&self) -> &str;

    // ------------------------------------------------------------------
    // SUMMARIZE
    // ------------------------------------------------------------------

    /// Fresh (identity) summary for one side.
    fn new_summary(&self, side: Side) -> SummaryState;

    /// Fold one key into a local summary — the paper's `local_aggregate`.
    fn local_aggregate(&self, side: Side, key: &ExtValue, summary: &mut SummaryState)
        -> Result<()>;

    /// [`Self::local_aggregate`] on every key of a block, in order: the
    /// engine adapter's one crossing per chunk of keys. [`crate::ProxyJoin`]
    /// overrides the per-key loop with one summary downcast per block.
    fn summarize_block(
        &self,
        side: Side,
        keys: &[ExtValue],
        summary: &mut SummaryState,
    ) -> Result<()> {
        keys.iter()
            .try_for_each(|key| self.local_aggregate(side, key, summary))
    }

    /// Merge two partial summaries — the paper's `global_aggregate`.
    fn global_aggregate(
        &self,
        side: Side,
        a: SummaryState,
        b: SummaryState,
    ) -> Result<SummaryState>;

    /// Whether both sides share summarize/assign logic. When true, the
    /// optimizer may summarize a self-join once and replicate the result
    /// (§VI-C's first physical optimization).
    fn symmetric(&self) -> bool;

    // ------------------------------------------------------------------
    // DIVIDE
    // ------------------------------------------------------------------

    /// Combine the two global summaries and the query parameters into the
    /// partitioning plan.
    fn divide(
        &self,
        left: &SummaryState,
        right: &SummaryState,
        params: &[ExtValue],
    ) -> Result<PPlanState>;

    // ------------------------------------------------------------------
    // PARTITION
    // ------------------------------------------------------------------

    /// Bucket ids for a key under the plan, appended to `out` (reused across
    /// calls to keep the hot path allocation-free). One id = single-assign;
    /// several = multi-assign.
    fn assign(
        &self,
        side: Side,
        key: &ExtValue,
        pplan: &PPlanState,
        out: &mut Vec<BucketId>,
    ) -> Result<()>;

    /// [`Self::assign`] on every key of a block, in order: key `i`'s ids are
    /// appended to `out`, then `out.len()` to `offsets` (so they start where
    /// key `i - 1`'s end); on an error both hold the keys before it.
    /// [`crate::ProxyJoin`] overrides the loop with one plan downcast.
    fn assign_block(
        &self,
        side: Side,
        keys: &[ExtValue],
        pplan: &PPlanState,
        out: &mut Vec<BucketId>,
        offsets: &mut Vec<usize>,
    ) -> Result<()> {
        for key in keys {
            self.assign(side, key, pplan, out)?;
            offsets.push(out.len());
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // COMBINE
    // ------------------------------------------------------------------

    /// Whether two buckets should be joined. The default is equality, which
    /// lets the optimizer pick hash partitioning + hash join (§VI-C's second
    /// physical optimization); overriding makes the join a theta multi-join
    /// handled by NLJ bucket matching.
    fn matches(&self, b1: BucketId, b2: BucketId) -> bool {
        b1 == b2
    }

    /// Whether `matches` is the default equality. Libraries overriding
    /// `matches` must return false so the optimizer stops assuming hash
    /// join applies.
    fn uses_default_match(&self) -> bool {
        true
    }

    /// Every `(b1, b2)` of `left` × `right` that [`Self::matches`], appended
    /// to `out` row-major: theta COMBINE's bucket matching, one call per
    /// worker partition. The default is the `matches` loop;
    /// [`crate::ProxyJoin`] overrides it with a loop over the library's own
    /// `matches`.
    fn matching_buckets(
        &self,
        left: &[BucketId],
        right: &[BucketId],
        out: &mut Vec<(BucketId, BucketId)>,
    ) {
        matching_pairs(left, right, |b1, b2| self.matches(b1, b2), out);
    }

    /// Whether a record pair from matched buckets belongs in the result.
    fn verify(
        &self,
        b1: BucketId,
        k1: &ExtValue,
        b2: BucketId,
        k2: &ExtValue,
        pplan: &PPlanState,
    ) -> Result<bool>;

    /// A form of `key` that [`Self::verify`] reads faster than the key — the
    /// text join's token set — or `None` (the default) for "the key
    /// itself". `verify` must accept a prepared form wherever it accepts the
    /// key and give the same answer. Only [`Self::verify_block`] calls this,
    /// once per key per block; single-pair `verify` and `dedup` always get
    /// raw keys.
    fn prepare(
        &self,
        _side: Side,
        _key: &ExtValue,
        _pplan: &PPlanState,
    ) -> Result<Option<ExtValue>> {
        Ok(None)
    }

    /// [`Self::verify`] over one matched bucket pair: `emit(i, j)` for every
    /// `(left[i], right[j])` that belongs in the result, in row-major order.
    /// The engine adapter crosses the Fig. 7 boundary through this method —
    /// each key is translated once per block, not once per candidate pair —
    /// and every per-key step happens here once per block too:
    /// [`Self::prepare`] on each of the m + n keys (none when a side is
    /// empty, since no pair exists), then [`Self::verify_forms`] on the
    /// prepared forms. The guard overrides it to hoist its own per-key work
    /// (the key hashes) and to hand the inner algorithm the whole block.
    fn verify_block(
        &self,
        b1: BucketId,
        left: &[ExtValue],
        b2: BucketId,
        right: &[ExtValue],
        pplan: &PPlanState,
        emit: &mut dyn FnMut(usize, usize),
    ) -> Result<()> {
        if left.is_empty() || right.is_empty() {
            return Ok(());
        }
        let prepare = |side, keys: &[ExtValue]| -> Result<Vec<Option<ExtValue>>> {
            keys.iter()
                .map(|key| self.prepare(side, key, pplan))
                .collect()
        };
        let (left_forms, right_forms) = (prepare(Side::Left, left)?, prepare(Side::Right, right)?);
        let mut accepted = Vec::new();
        let result = self.verify_forms(
            b1,
            &forms_or_keys(left, &left_forms),
            b2,
            &forms_or_keys(right, &right_forms),
            pplan,
            &mut accepted,
        );
        for (i, j) in accepted {
            emit(i, j);
        }
        result
    }

    /// [`Self::verify`] on every pair of a block's keys or their prepared
    /// forms: `(i, j)` is appended to `out`, row-major, for each
    /// `(left[i], right[j])` that belongs in the result. On an error `out`
    /// holds the pairs accepted before it. The default is the `verify` loop;
    /// [`crate::ProxyJoin`] overrides it with one plan downcast and a loop
    /// over the library's own `verify`, so the block pays no per-pair
    /// `dyn` hop.
    fn verify_forms(
        &self,
        b1: BucketId,
        left: &[&ExtValue],
        b2: BucketId,
        right: &[&ExtValue],
        pplan: &PPlanState,
        out: &mut Vec<(usize, usize)>,
    ) -> Result<()> {
        verify_pairs(
            left.len(),
            right.len(),
            |i, j| self.verify(b1, left[i], b2, right[j], pplan),
            |i, j| out.push((i, j)),
        )
    }

    /// Duplicate-handling strategy.
    fn dedup_mode(&self) -> DedupMode {
        DedupMode::Avoidance
    }

    /// Custom dedup predicate, consulted only when [`Self::dedup_mode`] is
    /// [`DedupMode::Custom`]: return true iff the pair should be emitted
    /// from this bucket pair.
    fn dedup(
        &self,
        _b1: BucketId,
        _k1: &ExtValue,
        _b2: BucketId,
        _k2: &ExtValue,
        _pplan: &PPlanState,
    ) -> Result<bool> {
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Guardrail hooks (PR 3)
    // ------------------------------------------------------------------

    /// Exclusive upper bound of the bucket-id range this plan may assign
    /// into, when the library declares one. `None` (the default) disables
    /// the guard layer's range check.
    fn declared_buckets(&self, _pplan: &PPlanState) -> Option<BucketId> {
        None
    }

    /// The guardrail handle, when this algorithm is a
    /// [`crate::guard::GuardedJoin`] (or forwards to one). Engines use it to
    /// surface [`crate::guard::UdfStats`], flush deferred violations, and
    /// decide fallback behavior.
    fn guard(&self) -> Option<&crate::guard::GuardHandle> {
        None
    }
}

/// The candidate loop every block of pairs shares — the default and the
/// proxy's [`JoinAlgorithm::verify_forms`], the guard's per-pair replay,
/// [`crate::EngineJoin::local_join_pairs`]'s default: `emit(i, j)` for each
/// of the m × n pairs `verify(i, j)` accepts, row-major, stopping at the
/// first error.
pub(crate) fn verify_pairs(
    m: usize,
    n: usize,
    mut verify: impl FnMut(usize, usize) -> Result<bool>,
    mut emit: impl FnMut(usize, usize),
) -> Result<()> {
    for i in 0..m {
        for j in 0..n {
            if verify(i, j)? {
                emit(i, j);
            }
        }
    }
    Ok(())
}

/// The bucket-matching loop every [`JoinAlgorithm::matching_buckets`]
/// shares: each `(b1, b2)` of `left` × `right` that `matches`, row-major.
pub(crate) fn matching_pairs(
    left: &[BucketId],
    right: &[BucketId],
    matches: impl Fn(BucketId, BucketId) -> bool,
    out: &mut Vec<(BucketId, BucketId)>,
) {
    for &b1 in left {
        for &b2 in right {
            if matches(b1, b2) {
                out.push((b1, b2));
            }
        }
    }
}

/// What `verify` reads for each key of a block: its prepared form where
/// `prepare` made one, the key itself where it returned `None`.
fn forms_or_keys<'a>(keys: &'a [ExtValue], forms: &'a [Option<ExtValue>]) -> Vec<&'a ExtValue> {
    keys.iter()
        .zip(forms)
        .map(|(key, form)| form.as_ref().unwrap_or(key))
        .collect()
}

/// Forward the whole [`JoinAlgorithm`] surface through a smart pointer or
/// reference, so guards and runners can wrap `Arc<dyn JoinAlgorithm>` and
/// `&dyn JoinAlgorithm` alike.
macro_rules! forward_join_algorithm {
    (($($gen:tt)*), $ty:ty) => {
        impl<$($gen)*> JoinAlgorithm for $ty {
            fn name(&self) -> &str {
                (**self).name()
            }
            fn new_summary(&self, side: Side) -> SummaryState {
                (**self).new_summary(side)
            }
            fn local_aggregate(
                &self,
                side: Side,
                key: &ExtValue,
                summary: &mut SummaryState,
            ) -> Result<()> {
                (**self).local_aggregate(side, key, summary)
            }
            fn summarize_block(
                &self,
                side: Side,
                keys: &[ExtValue],
                summary: &mut SummaryState,
            ) -> Result<()> {
                (**self).summarize_block(side, keys, summary)
            }
            fn global_aggregate(
                &self,
                side: Side,
                a: SummaryState,
                b: SummaryState,
            ) -> Result<SummaryState> {
                (**self).global_aggregate(side, a, b)
            }
            fn symmetric(&self) -> bool {
                (**self).symmetric()
            }
            fn divide(
                &self,
                left: &SummaryState,
                right: &SummaryState,
                params: &[ExtValue],
            ) -> Result<PPlanState> {
                (**self).divide(left, right, params)
            }
            fn assign(
                &self,
                side: Side,
                key: &ExtValue,
                pplan: &PPlanState,
                out: &mut Vec<BucketId>,
            ) -> Result<()> {
                (**self).assign(side, key, pplan, out)
            }
            fn assign_block(
                &self,
                side: Side,
                keys: &[ExtValue],
                pplan: &PPlanState,
                out: &mut Vec<BucketId>,
                offsets: &mut Vec<usize>,
            ) -> Result<()> {
                (**self).assign_block(side, keys, pplan, out, offsets)
            }
            fn matches(&self, b1: BucketId, b2: BucketId) -> bool {
                (**self).matches(b1, b2)
            }
            fn uses_default_match(&self) -> bool {
                (**self).uses_default_match()
            }
            fn matching_buckets(
                &self,
                left: &[BucketId],
                right: &[BucketId],
                out: &mut Vec<(BucketId, BucketId)>,
            ) {
                (**self).matching_buckets(left, right, out)
            }
            fn verify(
                &self,
                b1: BucketId,
                k1: &ExtValue,
                b2: BucketId,
                k2: &ExtValue,
                pplan: &PPlanState,
            ) -> Result<bool> {
                (**self).verify(b1, k1, b2, k2, pplan)
            }
            fn prepare(
                &self,
                side: Side,
                key: &ExtValue,
                pplan: &PPlanState,
            ) -> Result<Option<ExtValue>> {
                (**self).prepare(side, key, pplan)
            }
            fn verify_block(
                &self,
                b1: BucketId,
                left: &[ExtValue],
                b2: BucketId,
                right: &[ExtValue],
                pplan: &PPlanState,
                emit: &mut dyn FnMut(usize, usize),
            ) -> Result<()> {
                (**self).verify_block(b1, left, b2, right, pplan, emit)
            }
            fn verify_forms(
                &self,
                b1: BucketId,
                left: &[&ExtValue],
                b2: BucketId,
                right: &[&ExtValue],
                pplan: &PPlanState,
                out: &mut Vec<(usize, usize)>,
            ) -> Result<()> {
                (**self).verify_forms(b1, left, b2, right, pplan, out)
            }
            fn dedup_mode(&self) -> DedupMode {
                (**self).dedup_mode()
            }
            fn dedup(
                &self,
                b1: BucketId,
                k1: &ExtValue,
                b2: BucketId,
                k2: &ExtValue,
                pplan: &PPlanState,
            ) -> Result<bool> {
                (**self).dedup(b1, k1, b2, k2, pplan)
            }
            fn declared_buckets(&self, pplan: &PPlanState) -> Option<BucketId> {
                (**self).declared_buckets(pplan)
            }
            fn guard(&self) -> Option<&crate::guard::GuardHandle> {
                (**self).guard()
            }
        }
    };
}

forward_join_algorithm!(('a, T: JoinAlgorithm + ?Sized), &'a T);
forward_join_algorithm!((T: JoinAlgorithm + ?Sized), std::sync::Arc<T>);

/// The framework's default duplicate-avoidance predicate (§IV-C): re-run
/// `assign` on both keys, enumerate matching bucket pairs in a canonical
/// order, and accept only when `(b1, b2)` is the first one. Every engine
/// (distributed and standalone) shares this implementation, so avoidance
/// semantics cannot drift between them.
pub fn avoidance_accepts(
    alg: &dyn JoinAlgorithm,
    b1: BucketId,
    k1: &ExtValue,
    b2: BucketId,
    k2: &ExtValue,
    pplan: &PPlanState,
) -> Result<bool> {
    let mut left = Vec::new();
    let mut right = Vec::new();
    alg.assign(Side::Left, k1, pplan, &mut left)?;
    alg.assign(Side::Right, k2, pplan, &mut right)?;
    left.sort_unstable();
    left.dedup();
    right.sort_unstable();
    right.dedup();
    // A pair with no matching bucket pair at all should never have met:
    // `None` drops it.
    let first = first_matching_pair(&left, &right, alg.uses_default_match(), |x, y| {
        alg.matches(x, y)
    });
    Ok(first == Some((b1, b2)))
}

/// The first matching bucket pair of two sorted, deduplicated bucket lists
/// in the canonical order duplicate avoidance accepts from: row-major
/// through `matches`. Under the default equality match that is the smallest
/// common id, found by a merge walk without calling `matches` at all —
/// sound by the same [`JoinAlgorithm::uses_default_match`] promise that
/// hash partitioning relies on.
pub fn first_matching_pair(
    left: &[BucketId],
    right: &[BucketId],
    default_match: bool,
    matches: impl Fn(BucketId, BucketId) -> bool,
) -> Option<(BucketId, BucketId)> {
    if default_match {
        let (mut i, mut j) = (0, 0);
        while i < left.len() && j < right.len() {
            match left[i].cmp(&right[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => return Some((left[i], right[j])),
            }
        }
        return None;
    }
    left.iter()
        .flat_map(|&x| right.iter().map(move |&y| (x, y)))
        .find(|&(x, y)| matches(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn side_flip() {
        assert_eq!(Side::Left.flip(), Side::Right);
        assert_eq!(Side::Right.flip(), Side::Left);
        assert_eq!(Side::Left.to_string(), "left");
    }

    #[test]
    fn dedup_mode_is_copy_eq() {
        let m = DedupMode::Avoidance;
        let n = m;
        assert_eq!(m, n);
        assert_ne!(DedupMode::None, DedupMode::Custom);
    }
}
