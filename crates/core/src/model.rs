//! The engine-facing (internal actor) join interface.

use crate::state::{PPlanState, SummaryState};
use fudj_types::{ExtValue, Result};
use std::fmt;
use std::ops::Deref;

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

/// The type-erased join the engine executes, over keys of type `K` — the
/// paper's set of *internal actors*. It is implemented twice over:
///
/// * over [`ExtValue`] as a [`JoinAlgorithm`]: user code implements the
///   typed [`crate::FlexibleJoin`], adapted by [`crate::ProxyJoin`] and
///   checked by [`crate::GuardedJoin`];
/// * over [`fudj_types::Value`] as a [`crate::EngineJoin`], which the
///   executor drives: [`crate::FudjEngineJoin`] translates keys into a
///   `JoinAlgorithm` (the paper's Fig. 7 boundary), and the hand-built
///   operators in `fudj-joins` implement it directly.
///
/// Each phase has one entry, and it takes a block: the executor calls each
/// once per partition (SUMMARIZE, PARTITION), per worker partition (theta
/// bucket matching) or per matched bucket pair (COMBINE). A per-key call is
/// the same entry on a block of one: see the helpers on `dyn Join<K>`.
pub trait Join<K>: Send + Sync {
    /// The join's registered name (diagnostics only).
    fn name(&self) -> &str;

    // ------------------------------------------------------------------
    // SUMMARIZE
    // ------------------------------------------------------------------

    /// Fresh (identity) summary for one side.
    fn new_summary(&self, side: Side) -> SummaryState;

    /// Fold every key of a block into a local summary, in order — the
    /// paper's `local_aggregate`.
    fn summarize_block(&self, side: Side, keys: &[&K], summary: &mut SummaryState) -> Result<()>;

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
    fn divide(&self, left: &SummaryState, right: &SummaryState, params: &[K])
        -> Result<PPlanState>;

    // ------------------------------------------------------------------
    // PARTITION
    // ------------------------------------------------------------------

    /// Bucket ids for every key of a block under the plan, in order: key
    /// `i`'s ids are appended to `out`, then `out.len()` to `offsets` (so
    /// they start where key `i - 1`'s end); on an error both hold the keys
    /// before it. One id = single-assign; several = multi-assign.
    fn assign_block(
        &self,
        side: Side,
        keys: &[&K],
        pplan: &PPlanState,
        out: &mut Vec<BucketId>,
        offsets: &mut Vec<usize>,
    ) -> Result<()>;

    // ------------------------------------------------------------------
    // COMBINE
    // ------------------------------------------------------------------

    /// Whether bucket matching is the default equality, which lets the
    /// optimizer pick hash partitioning + hash join (§VI-C's second physical
    /// optimization). Joins overriding [`Self::matching_buckets`] must
    /// return false: they are theta multi-joins, handled by NLJ bucket
    /// matching.
    fn uses_default_match(&self) -> bool {
        true
    }

    /// Every `(b1, b2)` of `left` × `right` whose buckets should be joined —
    /// the paper's `match` — appended to `out` row-major. The default is
    /// equality.
    fn matching_buckets(
        &self,
        left: &[BucketId],
        right: &[BucketId],
        out: &mut Vec<(BucketId, BucketId)>,
    ) {
        matching_pairs(left, right, |b1, b2| b1 == b2, out);
    }

    /// The paper's `verify` over one matched bucket pair: `(i, j)` is
    /// appended to `out` for every `(left[i], right[j])` that belongs in the
    /// result, row-major; on an error `out` holds the pairs accepted before
    /// it (dedup is applied by the caller). With
    /// `prepare` set the keys may first be prepared, once each for all their
    /// pairs (see [`JoinAlgorithm::prepare`]); unset, they are verified as
    /// given — raw keys, or forms the caller already prepared. Operators with
    /// a local optimization (plane sweep) use it here, the §VII-F hook.
    #[allow(clippy::too_many_arguments)]
    fn verify_block(
        &self,
        b1: BucketId,
        left: &[&K],
        b2: BucketId,
        right: &[&K],
        pplan: &PPlanState,
        prepare: bool,
        out: &mut Vec<(usize, usize)>,
    ) -> Result<()>;

    /// Duplicate-handling strategy.
    fn dedup_mode(&self) -> DedupMode {
        DedupMode::Avoidance
    }

    /// The dedup predicate consulted under [`DedupMode::Custom`]: true iff
    /// the pair should be emitted from this bucket pair. The default keeps
    /// every pair. [`crate::FudjEngineJoin`] also answers it under
    /// [`DedupMode::Avoidance`], through [`avoidance_accepts`].
    fn dedup(
        &self,
        _b1: BucketId,
        _k1: &K,
        _b2: BucketId,
        _k2: &K,
        _pplan: &PPlanState,
    ) -> Result<bool> {
        Ok(true)
    }

    /// The guardrail handle, when this join is a [`crate::GuardedJoin`] or
    /// forwards to one. Engines use it to surface [`crate::UdfStats`], flush
    /// deferred violations, and decide fallback behavior.
    fn guard(&self) -> Option<&crate::guard::GuardHandle> {
        None
    }
}

/// A [`Join`] over external values: what a join library is adapted to, and
/// what the guard checks. Two hooks have no engine-side counterpart.
pub trait JoinAlgorithm: Join<ExtValue> {
    /// A form of `key` that `verify` reads faster than the key — the text
    /// join's token set — or `None` (the default) for "the key itself".
    /// `verify` must accept a prepared form wherever it accepts the key and
    /// give the same answer.
    fn prepare(
        &self,
        _side: Side,
        _key: &ExtValue,
        _pplan: &PPlanState,
    ) -> Result<Option<ExtValue>> {
        Ok(None)
    }

    /// Exclusive upper bound of the bucket-id range this plan may assign
    /// into, when the library declares one. `None` (the default) disables
    /// the guard layer's range check.
    fn declared_buckets(&self, _pplan: &PPlanState) -> Option<BucketId> {
        None
    }
}

/// The per-key and per-pair calls, each a block entry on a block of one:
/// what the sequential oracle, duplicate avoidance and `fudjbench`'s
/// phase-by-phase replay use.
impl<K> dyn Join<K> + '_ {
    /// Fold one key into a local summary.
    pub fn local_aggregate(&self, side: Side, key: &K, summary: &mut SummaryState) -> Result<()> {
        self.summarize_block(side, &[key], summary)
    }

    /// [`Join::assign_block`] with each key's ids sorted and deduplicated:
    /// `each(i, ids)` in key order; on an error, for the keys before it.
    pub fn assign_sorted(
        &self,
        side: Side,
        keys: &[&K],
        pplan: &PPlanState,
        each: &mut dyn FnMut(usize, &[BucketId]),
    ) -> Result<()> {
        let (mut ids, mut buckets) = (Vec::with_capacity(keys.len()), Vec::new());
        let mut ends = Vec::with_capacity(keys.len());
        let assigned = self.assign_block(side, keys, pplan, &mut ids, &mut ends);
        let mut start = 0;
        for (i, &end) in ends.iter().enumerate() {
            buckets.clear();
            buckets.extend_from_slice(&ids[start..end]);
            buckets.sort_unstable();
            buckets.dedup();
            each(i, &buckets);
            start = end;
        }
        assigned
    }

    /// One key's bucket ids in `out` (cleared first), sorted and
    /// deduplicated.
    pub fn assign(
        &self,
        side: Side,
        key: &K,
        pplan: &PPlanState,
        out: &mut Vec<BucketId>,
    ) -> Result<()> {
        out.clear();
        self.assign_block(side, &[key], pplan, out, &mut Vec::with_capacity(1))?;
        out.sort_unstable();
        out.dedup();
        Ok(())
    }

    /// Whether two buckets should be joined.
    pub fn matches(&self, b1: BucketId, b2: BucketId) -> bool {
        let mut out = Vec::new();
        self.matching_buckets(&[b1], &[b2], &mut out);
        !out.is_empty()
    }

    /// Whether one record pair belongs in the result, verified on the keys
    /// as given: a single-pair call never prepares.
    pub fn verify(
        &self,
        b1: BucketId,
        k1: &K,
        b2: BucketId,
        k2: &K,
        pplan: &PPlanState,
    ) -> Result<bool> {
        let mut accepted = Vec::new();
        self.verify_block(b1, &[k1], b2, &[k2], pplan, false, &mut accepted)?;
        Ok(!accepted.is_empty())
    }
}

/// Lets the helpers on `dyn Join<ExtValue>` be called on a
/// `dyn JoinAlgorithm`.
impl<'a> Deref for dyn JoinAlgorithm + 'a {
    type Target = dyn Join<ExtValue> + 'a;
    fn deref(&self) -> &Self::Target {
        self
    }
}

/// The per-key loop of an [`Join::assign_block`]: `assign` appends one
/// key's bucket ids, then the key's end offset is recorded.
pub fn assign_each<K: ?Sized>(
    keys: &[&K],
    out: &mut Vec<BucketId>,
    offsets: &mut Vec<usize>,
    mut assign: impl FnMut(&K, &mut Vec<BucketId>) -> Result<()>,
) -> Result<()> {
    for key in keys {
        assign(key, out)?;
        offsets.push(out.len());
    }
    Ok(())
}

/// The candidate loop every block of pairs shares — [`crate::ProxyJoin`]'s
/// and the built-in operators' `verify`, the guard's per-pair replay:
/// `emit(i, j)` for each of the m × n pairs `verify(i, j)` accepts,
/// row-major, stopping at the first error.
pub fn verify_pairs(
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

/// The bucket-matching loop every `matching_buckets` shares: each `(b1, b2)`
/// of `left` × `right` that `matches`, row-major.
pub fn matching_pairs(
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

/// The framework's default duplicate-avoidance predicate (§IV-C): re-run
/// `assign` on both keys, enumerate matching bucket pairs in a canonical
/// order, and accept only when `(b1, b2)` is the first one. Every engine
/// (distributed and standalone) shares this implementation, so avoidance
/// semantics cannot drift between them.
pub fn avoidance_accepts<K>(
    alg: &dyn Join<K>,
    b1: BucketId,
    k1: &K,
    b2: BucketId,
    k2: &K,
    pplan: &PPlanState,
) -> Result<bool> {
    let mut left = Vec::new();
    let mut right = Vec::new();
    alg.assign(Side::Left, k1, pplan, &mut left)?;
    alg.assign(Side::Right, k2, pplan, &mut right)?;
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
/// sound by the same [`Join::uses_default_match`] promise that
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
