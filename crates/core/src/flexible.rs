//! The user-facing typed programming model and its proxy adapter.

use crate::model::{matching_pairs, verify_pairs, BucketId, DedupMode, JoinAlgorithm, Side};
use crate::state::{PPlanState, StateObject, SummaryState};
use fudj_types::{ExtValue, FudjError, Result};
use std::fmt;
use std::marker::PhantomData;

/// The FUDJ programming model — what a join developer writes.
///
/// A developer supplies concrete `Summary` and `PPlan` types plus the seven
/// functions of the paper's Fig. 6; the engine-side machinery (distributed
/// aggregation, PPlan broadcast, shuffling, bucket matching, dedup) is
/// inherited. One optional eighth function, [`FlexibleJoin::prepare`], is the
/// original set-similarity algorithm's "project the key once, verify many
/// times": a library whose `verify` starts by decoding its keys can do that
/// decoding once per key instead of once per candidate pair. Compare the
/// paper's ~100–250 LOC per algorithm to the ~2,000 LOC of a hand-integrated
/// operator — Table II, which the bench harness recomputes over this
/// repository's own sources.
///
/// Asymmetric joins (different key types or logic per side) override the
/// `*_right` variants and return `false` from [`FlexibleJoin::symmetric`];
/// the defaults delegate to the left-side functions, which keeps the common
/// symmetric case at one implementation (and lets the optimizer apply the
/// self-join summarize-once rewrite).
pub trait FlexibleJoin: Send + Sync + 'static {
    /// Per-side aggregation state. `Default` is the aggregation identity.
    type Summary: StateObject + Clone + Default;
    /// The partitioning plan produced by `divide`.
    type PPlan: StateObject + Clone;

    /// The join's name (used in error messages; the registry name comes from
    /// `CREATE JOIN`).
    fn name(&self) -> &str;

    /// Fold one left-side key into the summary (`local_aggregate`).
    fn summarize(&self, key: &ExtValue, summary: &mut Self::Summary) -> Result<()>;

    /// Fold one right-side key. Defaults to the left logic.
    fn summarize_right(&self, key: &ExtValue, summary: &mut Self::Summary) -> Result<()> {
        self.summarize(key, summary)
    }

    /// Merge two partial summaries (`global_aggregate`).
    fn merge_summaries(&self, a: Self::Summary, b: Self::Summary) -> Self::Summary;

    /// Whether both sides share summarize/assign logic.
    fn symmetric(&self) -> bool {
        true
    }

    /// Combine both global summaries and query parameters into the plan.
    fn divide(
        &self,
        left: &Self::Summary,
        right: &Self::Summary,
        params: &[ExtValue],
    ) -> Result<Self::PPlan>;

    /// Bucket ids for a left-side key, appended to `out`.
    fn assign(&self, key: &ExtValue, pplan: &Self::PPlan, out: &mut Vec<BucketId>) -> Result<()>;

    /// Bucket ids for a right-side key. Defaults to the left logic.
    fn assign_right(
        &self,
        key: &ExtValue,
        pplan: &Self::PPlan,
        out: &mut Vec<BucketId>,
    ) -> Result<()> {
        self.assign(key, pplan, out)
    }

    /// Bucket matching; default equality (single-join). Override together
    /// with [`FlexibleJoin::uses_default_match`] for theta (multi-join)
    /// matching.
    fn matches(&self, b1: BucketId, b2: BucketId) -> bool {
        b1 == b2
    }

    /// Must return `false` when [`FlexibleJoin::matches`] is overridden.
    fn uses_default_match(&self) -> bool {
        true
    }

    /// Final record-pair check.
    fn verify(&self, k1: &ExtValue, k2: &ExtValue, pplan: &Self::PPlan) -> Result<bool>;

    /// A form of `key` that `verify` reads faster than the key itself, or
    /// `None` (the default) to keep the key. COMBINE calls this once per key
    /// of a matched bucket pair and hands `verify` the result for every
    /// candidate pair the key takes part in. The contract: `verify` accepts
    /// a prepared form wherever it accepts the key — on either side, beside
    /// a raw key or another prepared form — and gives the same answer. The
    /// guard replays a sample of pairs on the raw keys to check it.
    fn prepare(&self, _key: &ExtValue, _pplan: &Self::PPlan) -> Result<Option<ExtValue>> {
        Ok(None)
    }

    /// Duplicate handling; the framework default is avoidance.
    fn dedup_mode(&self) -> DedupMode {
        DedupMode::Avoidance
    }

    /// Custom dedup predicate (used when `dedup_mode` is `Custom`).
    fn custom_dedup(
        &self,
        _b1: BucketId,
        _k1: &ExtValue,
        _b2: BucketId,
        _k2: &ExtValue,
        _pplan: &Self::PPlan,
    ) -> Result<bool> {
        Ok(true)
    }

    /// Exclusive upper bound of the bucket ids `assign` may produce under
    /// this plan, when the library can declare one. The guardrail layer
    /// range-checks `assign` output against it; `None` (the default)
    /// disables the check.
    fn declared_buckets(&self, _pplan: &Self::PPlan) -> Option<BucketId> {
        None
    }
}

/// Adapts a typed [`FlexibleJoin`] to the engine's type-erased
/// [`JoinAlgorithm`] — the paper's *proxy built-in function* (Fig. 7). All
/// `Summary`/`PPlan` state crosses the boundary as [`SummaryState`] /
/// [`PPlanState`] blobs, and a wrong-state downcast surfaces as a
/// `JoinLibrary` error rather than a panic.
pub struct ProxyJoin<J: FlexibleJoin> {
    join: J,
    _marker: PhantomData<fn() -> J>,
}

impl<J: FlexibleJoin> ProxyJoin<J> {
    /// Wrap a join implementation.
    pub fn new(join: J) -> Self {
        ProxyJoin {
            join,
            _marker: PhantomData,
        }
    }

    /// The wrapped implementation.
    pub fn inner(&self) -> &J {
        &self.join
    }

    fn summary<'a>(&self, state: &'a SummaryState, ctx: &str) -> Result<&'a J::Summary> {
        state.downcast_ref::<J::Summary>().ok_or_else(|| {
            FudjError::JoinLibrary(format!(
                "{}: {ctx} received a summary of the wrong concrete type",
                self.join.name()
            ))
        })
    }

    fn pplan<'a>(&self, state: &'a PPlanState, ctx: &str) -> Result<&'a J::PPlan> {
        state.downcast_ref::<J::PPlan>().ok_or_else(|| {
            FudjError::JoinLibrary(format!(
                "{}: {ctx} received a PPlan of the wrong concrete type",
                self.join.name()
            ))
        })
    }
}

impl<J: FlexibleJoin> fmt::Debug for ProxyJoin<J> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ProxyJoin({})", self.join.name())
    }
}

impl<J: FlexibleJoin> JoinAlgorithm for ProxyJoin<J> {
    fn name(&self) -> &str {
        self.join.name()
    }

    fn new_summary(&self, _side: Side) -> SummaryState {
        SummaryState::new(J::Summary::default())
    }

    fn local_aggregate(
        &self,
        side: Side,
        key: &ExtValue,
        summary: &mut SummaryState,
    ) -> Result<()> {
        self.summarize_block(side, std::slice::from_ref(key), summary)
    }

    fn summarize_block(
        &self,
        side: Side,
        keys: &[ExtValue],
        summary: &mut SummaryState,
    ) -> Result<()> {
        // In-place update: local aggregation runs once per record, so the
        // summary must not be cloned here (a per-record hash-map clone would
        // dominate the text join's summarize phase).
        let name = self.join.name();
        let typed = summary.downcast_mut::<J::Summary>().ok_or_else(|| {
            FudjError::JoinLibrary(format!(
                "{name}: local_aggregate received a summary of the wrong concrete type"
            ))
        })?;
        keys.iter().try_for_each(|key| match side {
            Side::Left => self.join.summarize(key, typed),
            Side::Right => self.join.summarize_right(key, typed),
        })
    }

    fn global_aggregate(
        &self,
        _side: Side,
        a: SummaryState,
        b: SummaryState,
    ) -> Result<SummaryState> {
        let ta = self.summary(&a, "global_aggregate")?.clone();
        let tb = self.summary(&b, "global_aggregate")?.clone();
        Ok(SummaryState::new(self.join.merge_summaries(ta, tb)))
    }

    fn symmetric(&self) -> bool {
        self.join.symmetric()
    }

    fn divide(
        &self,
        left: &SummaryState,
        right: &SummaryState,
        params: &[ExtValue],
    ) -> Result<PPlanState> {
        let l = self.summary(left, "divide")?;
        let r = self.summary(right, "divide")?;
        Ok(PPlanState::new(self.join.divide(l, r, params)?))
    }

    fn assign(
        &self,
        side: Side,
        key: &ExtValue,
        pplan: &PPlanState,
        out: &mut Vec<BucketId>,
    ) -> Result<()> {
        let plan = self.pplan(pplan, "assign")?;
        match side {
            Side::Left => self.join.assign(key, plan, out),
            Side::Right => self.join.assign_right(key, plan, out),
        }
    }

    fn assign_block(
        &self,
        side: Side,
        keys: &[ExtValue],
        pplan: &PPlanState,
        out: &mut Vec<BucketId>,
        offsets: &mut Vec<usize>,
    ) -> Result<()> {
        let plan = self.pplan(pplan, "assign")?;
        for key in keys {
            match side {
                Side::Left => self.join.assign(key, plan, out)?,
                Side::Right => self.join.assign_right(key, plan, out)?,
            }
            offsets.push(out.len());
        }
        Ok(())
    }

    fn matches(&self, b1: BucketId, b2: BucketId) -> bool {
        self.join.matches(b1, b2)
    }

    fn uses_default_match(&self) -> bool {
        self.join.uses_default_match()
    }

    fn matching_buckets(
        &self,
        left: &[BucketId],
        right: &[BucketId],
        out: &mut Vec<(BucketId, BucketId)>,
    ) {
        matching_pairs(left, right, |b1, b2| self.join.matches(b1, b2), out);
    }

    fn verify(
        &self,
        _b1: BucketId,
        k1: &ExtValue,
        _b2: BucketId,
        k2: &ExtValue,
        pplan: &PPlanState,
    ) -> Result<bool> {
        let plan = self.pplan(pplan, "verify")?;
        self.join.verify(k1, k2, plan)
    }

    fn prepare(&self, _side: Side, key: &ExtValue, pplan: &PPlanState) -> Result<Option<ExtValue>> {
        let plan = self.pplan(pplan, "prepare")?;
        self.join.prepare(key, plan)
    }

    fn verify_forms(
        &self,
        _b1: BucketId,
        left: &[&ExtValue],
        _b2: BucketId,
        right: &[&ExtValue],
        pplan: &PPlanState,
        out: &mut Vec<(usize, usize)>,
    ) -> Result<()> {
        // One plan downcast per block; the user's `verify` is called on the
        // typed plan directly.
        let plan = self.pplan(pplan, "verify")?;
        verify_pairs(
            left.len(),
            right.len(),
            |i, j| self.join.verify(left[i], right[j], plan),
            |i, j| out.push((i, j)),
        )
    }

    fn dedup_mode(&self) -> DedupMode {
        self.join.dedup_mode()
    }

    fn dedup(
        &self,
        b1: BucketId,
        k1: &ExtValue,
        b2: BucketId,
        k2: &ExtValue,
        pplan: &PPlanState,
    ) -> Result<bool> {
        let plan = self.pplan(pplan, "dedup")?;
        self.join.custom_dedup(b1, k1, b2, k2, plan)
    }

    fn declared_buckets(&self, pplan: &PPlanState) -> Option<BucketId> {
        let plan = self.pplan(pplan, "declared_buckets").ok()?;
        self.join.declared_buckets(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::avoidance_accepts;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A toy modulo equi-join: keys are longs, bucket = key mod n. Exists to
    /// exercise the proxy plumbing, not to be a sensible join.
    struct ModJoin;

    impl FlexibleJoin for ModJoin {
        type Summary = i64; // max |key| observed
        type PPlan = i64; // modulus

        fn name(&self) -> &str {
            "mod_join"
        }

        fn summarize(&self, key: &ExtValue, summary: &mut i64) -> Result<()> {
            *summary = (*summary).max(key.as_long()?.abs());
            Ok(())
        }

        fn merge_summaries(&self, a: i64, b: i64) -> i64 {
            a.max(b)
        }

        fn divide(&self, l: &i64, r: &i64, params: &[ExtValue]) -> Result<i64> {
            let n = params
                .first()
                .map(|p| p.as_long())
                .transpose()?
                .unwrap_or(8);
            Ok(n.min(l.max(r) + 1).max(1))
        }

        fn assign(&self, key: &ExtValue, pplan: &i64, out: &mut Vec<BucketId>) -> Result<()> {
            out.push((key.as_long()?.rem_euclid(*pplan)) as BucketId);
            Ok(())
        }

        fn verify(&self, k1: &ExtValue, k2: &ExtValue, _pplan: &i64) -> Result<bool> {
            Ok(k1.as_long()? == k2.as_long()?)
        }

        fn dedup_mode(&self) -> DedupMode {
            DedupMode::None
        }
    }

    fn proxy() -> ProxyJoin<ModJoin> {
        ProxyJoin::new(ModJoin)
    }

    #[test]
    fn full_flow_through_proxy() {
        let p = proxy();
        let mut s1 = p.new_summary(Side::Left);
        let mut s2 = p.new_summary(Side::Right);
        for k in [3i64, 15, 7] {
            p.local_aggregate(Side::Left, &ExtValue::Long(k), &mut s1)
                .unwrap();
        }
        p.local_aggregate(Side::Right, &ExtValue::Long(9), &mut s2)
            .unwrap();
        let merged = p
            .global_aggregate(Side::Left, s1.clone(), s2.clone())
            .unwrap();
        assert_eq!(merged.downcast_ref::<i64>(), Some(&15));

        let plan = p.divide(&s1, &s2, &[ExtValue::Long(4)]).unwrap();
        assert_eq!(plan.downcast_ref::<i64>(), Some(&4));

        let mut buckets = Vec::new();
        p.assign(Side::Left, &ExtValue::Long(10), &plan, &mut buckets)
            .unwrap();
        assert_eq!(buckets, vec![2]);

        assert!(p.matches(3, 3));
        assert!(!p.matches(3, 4));
        assert!(p.uses_default_match());

        assert!(p
            .verify(2, &ExtValue::Long(10), 2, &ExtValue::Long(10), &plan)
            .unwrap());
        assert!(!p
            .verify(2, &ExtValue::Long(10), 2, &ExtValue::Long(6), &plan)
            .unwrap());
    }

    #[test]
    fn wrong_state_type_is_an_error_not_a_panic() {
        let p = proxy();
        let bogus_summary = SummaryState::new(String::from("not an i64"));
        let good = p.new_summary(Side::Left);
        let err = p
            .global_aggregate(Side::Left, bogus_summary, good)
            .unwrap_err();
        assert!(matches!(err, FudjError::JoinLibrary(_)));

        let bogus_plan = PPlanState::new(vec![1u8]);
        let mut out = Vec::new();
        assert!(p
            .assign(Side::Left, &ExtValue::Long(1), &bogus_plan, &mut out)
            .is_err());
    }

    #[test]
    fn avoidance_on_single_assign_accepts_the_only_pair() {
        let p = proxy();
        let plan = PPlanState::new(4i64);
        let k = ExtValue::Long(10);
        // bucket of 10 mod 4 = 2: the only matching pair is (2, 2).
        assert!(avoidance_accepts(&p, 2, &k, 2, &k, &plan).unwrap());
        // A pair reported from the wrong bucket is rejected.
        assert!(!avoidance_accepts(&p, 3, &k, 3, &k, &plan).unwrap());
    }

    /// Equality on longs whose `prepare` wraps the key in a one-element
    /// array; counts every call and every `verify` operand that arrived raw.
    #[derive(Default)]
    struct PreparingJoin {
        prepares: AtomicUsize,
        verifies: AtomicUsize,
        raw_operands: AtomicUsize,
    }

    impl PreparingJoin {
        fn read(&self, key: &ExtValue) -> Result<i64> {
            match key {
                ExtValue::LongArray(form) => Ok(form[0]),
                raw => {
                    self.raw_operands.fetch_add(1, Ordering::Relaxed);
                    raw.as_long()
                }
            }
        }
    }

    impl FlexibleJoin for PreparingJoin {
        type Summary = i64;
        type PPlan = i64;

        fn name(&self) -> &str {
            "preparing_join"
        }
        fn summarize(&self, _key: &ExtValue, _summary: &mut i64) -> Result<()> {
            Ok(())
        }
        fn merge_summaries(&self, a: i64, _b: i64) -> i64 {
            a
        }
        fn divide(&self, _l: &i64, _r: &i64, _params: &[ExtValue]) -> Result<i64> {
            Ok(1)
        }
        fn assign(&self, _key: &ExtValue, _pplan: &i64, out: &mut Vec<BucketId>) -> Result<()> {
            out.push(0);
            Ok(())
        }
        fn prepare(&self, key: &ExtValue, _pplan: &i64) -> Result<Option<ExtValue>> {
            self.prepares.fetch_add(1, Ordering::Relaxed);
            Ok(Some(ExtValue::LongArray(vec![key.as_long()?])))
        }
        fn verify(&self, k1: &ExtValue, k2: &ExtValue, _pplan: &i64) -> Result<bool> {
            self.verifies.fetch_add(1, Ordering::Relaxed);
            Ok(self.read(k1)? == self.read(k2)?)
        }
    }

    #[test]
    fn block_prepares_each_key_once_and_verifies_prepared_forms() {
        let p = ProxyJoin::new(PreparingJoin::default());
        let plan = PPlanState::new(1i64);
        let longs = |xs: &[i64]| xs.iter().map(|&x| ExtValue::Long(x)).collect::<Vec<_>>();
        let (left, right) = (longs(&[1, 2, 3]), longs(&[3, 1, 3, 9]));
        let count = |c: &AtomicUsize| c.load(Ordering::Relaxed);

        let mut block = Vec::new();
        p.verify_block(0, &left, 0, &right, &plan, &mut |i, j| block.push((i, j)))
            .unwrap();
        let join = p.inner();
        assert_eq!(count(&join.prepares), 3 + 4, "m + n");
        assert_eq!(count(&join.verifies), 3 * 4, "m·n");
        assert_eq!(
            count(&join.raw_operands),
            0,
            "verify saw prepared forms only"
        );

        // Single-pair `verify` is on raw keys, never prepares, and agrees.
        let mut nested = Vec::new();
        for (i, k1) in left.iter().enumerate() {
            for (j, k2) in right.iter().enumerate() {
                if p.verify(0, k1, 0, k2, &plan).unwrap() {
                    nested.push((i, j));
                }
            }
        }
        assert_eq!(block, nested);
        assert_eq!(block, vec![(0, 1), (2, 0), (2, 2)]);
        assert_eq!(count(&join.prepares), 3 + 4, "no prepare outside the block");
        assert_eq!(count(&join.raw_operands), 2 * 3 * 4);

        // No candidate pair, no prepare.
        p.verify_block(0, &left, 0, &[], &plan, &mut |_, _| unreachable!())
            .unwrap();
        assert_eq!(count(&join.prepares), 3 + 4);

        // A join that does not override `prepare` keeps its keys.
        let kept = proxy().prepare(Side::Left, &left[0], &PPlanState::new(4i64));
        assert_eq!(kept.unwrap(), None);
    }

    #[test]
    fn type_error_in_user_code_propagates() {
        let p = proxy();
        let mut s = p.new_summary(Side::Left);
        let err = p.local_aggregate(Side::Left, &ExtValue::Text("x".into()), &mut s);
        assert!(err.is_err());
    }
}
