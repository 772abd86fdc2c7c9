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
    /// [`Self::prepare`] on each of the m + n keys, then `verify` on the
    /// m·n pairs of prepared forms. Wrappers override it to hoist their own
    /// per-key work as well (the proxy's plan downcast, the guard's key
    /// hashes).
    fn verify_block(
        &self,
        b1: BucketId,
        left: &[ExtValue],
        b2: BucketId,
        right: &[ExtValue],
        pplan: &PPlanState,
        emit: &mut dyn FnMut(usize, usize),
    ) -> Result<()> {
        verify_prepared(
            left,
            right,
            |side, key| self.prepare(side, key, pplan),
            |k1, k2| self.verify(b1, k1, b2, k2, pplan),
            emit,
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

/// The candidate loop every [`JoinAlgorithm::verify_block`] shares:
/// `emit(i, j)` for each of the m × n pairs `verify(i, j)` accepts,
/// row-major, stopping at the first error.
pub(crate) fn verify_pairs(
    m: usize,
    n: usize,
    mut verify: impl FnMut(usize, usize) -> Result<bool>,
    emit: &mut dyn FnMut(usize, usize),
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

/// One side of a block after `prepare`: the prepared form where the library
/// returned one, the key itself — borrowed, not cloned — where it returned
/// `None`. `forms` is filled only up to the last key that has a form, so a
/// library that prepares nothing allocates nothing.
struct PreparedSide<'a> {
    keys: &'a [ExtValue],
    forms: Vec<Option<ExtValue>>,
}

impl<'a> PreparedSide<'a> {
    fn new(
        keys: &'a [ExtValue],
        mut prepare: impl FnMut(&ExtValue) -> Result<Option<ExtValue>>,
    ) -> Result<Self> {
        let mut forms = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if let Some(form) = prepare(key)? {
                forms.resize_with(i, || None);
                forms.push(Some(form));
            }
        }
        Ok(PreparedSide { keys, forms })
    }

    fn get(&self, i: usize) -> &ExtValue {
        match self.forms.get(i) {
            Some(Some(form)) => form,
            _ => &self.keys[i],
        }
    }
}

/// The block path of an unguarded algorithm: `prepare` once per key (m + n
/// calls; none when a side is empty, since no pair exists), then `verify` on
/// every pair of prepared forms.
pub(crate) fn verify_prepared(
    left: &[ExtValue],
    right: &[ExtValue],
    mut prepare: impl FnMut(Side, &ExtValue) -> Result<Option<ExtValue>>,
    mut verify: impl FnMut(&ExtValue, &ExtValue) -> Result<bool>,
    emit: &mut dyn FnMut(usize, usize),
) -> Result<()> {
    if left.is_empty() || right.is_empty() {
        return Ok(());
    }
    let left = PreparedSide::new(left, |key| prepare(Side::Left, key))?;
    let right = PreparedSide::new(right, |key| prepare(Side::Right, key))?;
    verify_pairs(
        left.keys.len(),
        right.keys.len(),
        |i, j| verify(left.get(i), right.get(j)),
        emit,
    )
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
            fn matches(&self, b1: BucketId, b2: BucketId) -> bool {
                (**self).matches(b1, b2)
            }
            fn uses_default_match(&self) -> bool {
                (**self).uses_default_match()
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
    for &x in &left {
        for &y in &right {
            if alg.matches(x, y) {
                return Ok((x, y) == (b1, b2));
            }
        }
    }
    // No matching bucket pair at all: the pair should never have met; drop.
    Ok(false)
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
