//! The engine-side join strategy interface.
//!
//! The execution engine drives distributed joins through [`EngineJoin`]: a
//! [`Join`] over native [`Value`] keys. Two families implement it:
//!
//! * [`FudjEngineJoin`] wraps a registered [`JoinAlgorithm`] (i.e. a user's
//!   FUDJ library behind its proxy). Every key crossing into user code is
//!   translated to an [`fudj_types::ExtValue`] first — the paper's Fig. 7
//!   boundary. The adapter counts those translations so the §VII-B overhead
//!   experiment can report the cost of the extensibility layer.
//! * Hand-written *built-in* operators (in the `fudj-joins` crate) implement
//!   it directly on native values with concrete state types — the paper's
//!   from-scratch baseline, which FUDJ is benchmarked against. Their
//!   `verify_block` is the nested `verify` loop ([`crate::verify_pairs`]) or,
//!   for the §VII-F "advanced" operators, a plane sweep.

use crate::model::{avoidance_accepts, BucketId, DedupMode, Join, JoinAlgorithm, Side};
use crate::standalone::run_flow;
use crate::state::{PPlanState, SummaryState};
use fudj_types::{ext, ExtValue, Result, Value};
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Retry/recovery policy for the execution engine: how the cluster reacts
/// to failed tasks, lost shuffle partitions, and stragglers. Plain data,
/// defined here (next to the engine-facing join interface) so every layer
/// — executor, exchanges, SQL session, CLI — shares one vocabulary of
/// knobs without depending on the exec crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retries per task (and per partition delivery) before the
    /// failure escalates as a `FudjError`. The first attempt is free:
    /// `max_retries = 4` allows up to 5 executions.
    pub max_retries: u32,
    /// Base of the simulated exponential backoff: attempt `k` waits
    /// `backoff_base_ms << k` simulated milliseconds. The clock is
    /// simulated — no wall-clock sleeping, so chaos tests stay fast and
    /// decisions stay reproducible.
    pub backoff_base_ms: u64,
    /// A task whose simulated duration exceeds `straggler_multiple` × the
    /// median task duration of its batch is speculatively re-executed on
    /// another worker, and the faster copy wins.
    pub straggler_multiple: u32,
    /// Slowdown factor an injected straggler fault applies to a task's
    /// simulated duration.
    pub straggler_factor: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 6,
            backoff_base_ms: 10,
            straggler_multiple: 3,
            straggler_factor: 10,
        }
    }
}

/// Deterministic fault-injection configuration for the simulated cluster.
///
/// Every probability is an independent per-site chance in `[0, 1]`; the
/// site (seed, dispatch step, worker, task, attempt) fully determines each
/// decision, so a given seed always produces the identical fault schedule
/// regardless of thread scheduling or wall-clock time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Root seed of the fault schedule.
    pub seed: u64,
    /// Chance a task attempt panics mid-flight (exercises the worker
    /// pool's unwind isolation).
    pub panic_prob: f64,
    /// Chance a task attempt fails with a transient (retryable) error.
    pub transient_prob: f64,
    /// Chance the worker running a task attempt is "lost"; the task is
    /// re-executed on the next surviving worker.
    pub worker_loss_prob: f64,
    /// Chance a whole worker dies *permanently* at a stage boundary
    /// (vs. the transient loss above): its resident partitions are gone
    /// and it takes no further tasks. Recovery restores the lost
    /// partitions from stage checkpoints when they cover the loss, and
    /// falls back to a full-stage replay otherwise.
    pub worker_death_prob: f64,
    /// Chance a task runs as a straggler (simulated slowdown by
    /// [`RetryPolicy::straggler_factor`], candidate for speculation).
    pub straggler_prob: f64,
    /// Chance a remote shuffle/broadcast/gather partition delivery is
    /// dropped (recovered by retransmission).
    pub drop_prob: f64,
    /// Chance a remote partition delivery is duplicated (recovered by
    /// receiver-side sequence dedup).
    pub duplicate_prob: f64,
    /// Retry/backoff/speculation policy.
    pub retry: RetryPolicy,
}

impl FaultConfig {
    /// A moderately hostile cluster: every fault class enabled at rates
    /// that exercise all recovery paths while staying comfortably inside
    /// the default retry budget.
    pub fn chaos(seed: u64) -> Self {
        FaultConfig {
            seed,
            panic_prob: 0.04,
            transient_prob: 0.06,
            worker_loss_prob: 0.03,
            worker_death_prob: 0.0,
            straggler_prob: 0.08,
            drop_prob: 0.05,
            duplicate_prob: 0.05,
            retry: RetryPolicy::default(),
        }
    }

    /// [`FaultConfig::chaos`] plus permanent worker deaths at stage
    /// boundaries — the harshest plan: every recovery path including
    /// checkpoint restore / full-stage replay is exercised.
    pub fn chaos_with_deaths(seed: u64) -> Self {
        FaultConfig {
            worker_death_prob: 0.12,
            ..FaultConfig::chaos(seed)
        }
    }

    /// A fault plan that injects nothing — execution must be bit-for-bit
    /// identical to running with no plan at all.
    pub fn quiet(seed: u64) -> Self {
        FaultConfig {
            seed,
            panic_prob: 0.0,
            transient_prob: 0.0,
            worker_loss_prob: 0.0,
            worker_death_prob: 0.0,
            straggler_prob: 0.0,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            retry: RetryPolicy::default(),
        }
    }

    /// Whether any fault class has a non-zero probability.
    pub fn is_active(&self) -> bool {
        self.panic_prob > 0.0
            || self.transient_prob > 0.0
            || self.worker_loss_prob > 0.0
            || self.worker_death_prob > 0.0
            || self.straggler_prob > 0.0
            || self.drop_prob > 0.0
            || self.duplicate_prob > 0.0
    }
}

/// A distributed partition-based join, as the executor sees it: a [`Join`]
/// over native [`Value`] keys.
pub trait EngineJoin: Join<Value> {}

impl<T: Join<Value> + ?Sized> EngineJoin for T {}

/// Lets the helpers on `dyn Join<Value>` be called on a `dyn EngineJoin`.
impl<'a> Deref for dyn EngineJoin + 'a {
    type Target = dyn Join<Value> + 'a;
    fn deref(&self) -> &Self::Target {
        self
    }
}

/// Keys per SUMMARIZE or ASSIGN block call: translated keys held at once
/// never exceed this, however large the partition.
const BLOCK_KEYS: usize = 1024;

/// Adapter: a registered FUDJ algorithm as an [`EngineJoin`].
///
/// Carries the [`Value`] → [`ExtValue`] translation — one block call per
/// 1 024 keys (`BLOCK_KEYS`) in SUMMARIZE and PARTITION, one per matched
/// bucket pair in COMBINE — and counts every key that crosses the boundary.
pub struct FudjEngineJoin {
    alg: Arc<dyn JoinAlgorithm>,
    translations: AtomicU64,
    /// Keeps the originating [`crate::registry::JoinDefinition`] pinned while
    /// a plan holds this strategy, so `DROP JOIN` fails cleanly instead of
    /// half-removing an entry a query still uses.
    _lease: Option<crate::registry::JoinLease>,
}

impl FudjEngineJoin {
    /// Wrap a registered algorithm.
    pub fn new(alg: Arc<dyn JoinAlgorithm>) -> Self {
        FudjEngineJoin {
            alg,
            translations: AtomicU64::new(0),
            _lease: None,
        }
    }

    /// Wrap a registered algorithm while holding a registry lease for the
    /// lifetime of this strategy (i.e. of the physical plan).
    pub fn with_lease(alg: Arc<dyn JoinAlgorithm>, lease: crate::registry::JoinLease) -> Self {
        FudjEngineJoin {
            _lease: Some(lease),
            ..FudjEngineJoin::new(alg)
        }
    }

    /// The wrapped algorithm.
    pub fn algorithm(&self) -> &Arc<dyn JoinAlgorithm> {
        &self.alg
    }

    /// How many engine→external value translations have happened — the
    /// extensibility-boundary traffic the §VII-B experiment quantifies:
    /// one per key per call, and m + n per m × n COMBINE block.
    pub fn translation_count(&self) -> u64 {
        self.translations.load(Ordering::Relaxed)
    }

    /// Translate keys, counted as one crossing per key.
    fn xlate<'v>(&self, keys: impl IntoIterator<Item = &'v Value>) -> Result<Vec<ExtValue>> {
        let mut crossed = 0;
        let keys = keys.into_iter().inspect(|_| crossed += 1);
        let translated = keys.map(ext::to_external).collect();
        self.translations.fetch_add(crossed, Ordering::Relaxed);
        translated
    }

    /// [`Self::xlate`], handing `f` the translated block as the block
    /// entries take it; a block of one (a per-key call) allocates no `Vec`.
    fn with_external<R>(
        &self,
        keys: &[&Value],
        f: impl FnOnce(&[&ExtValue]) -> Result<R>,
    ) -> Result<R> {
        if let [key] = keys {
            self.translations.fetch_add(1, Ordering::Relaxed);
            return f(&[&ext::to_external(key)?]);
        }
        let keys = self.xlate(keys.iter().copied())?;
        f(&keys.iter().collect::<Vec<_>>())
    }
}

impl Join<Value> for FudjEngineJoin {
    fn name(&self) -> &str {
        self.alg.name()
    }

    fn new_summary(&self, side: Side) -> SummaryState {
        self.alg.new_summary(side)
    }

    fn summarize_block(
        &self,
        side: Side,
        keys: &[&Value],
        summary: &mut SummaryState,
    ) -> Result<()> {
        keys.chunks(BLOCK_KEYS).try_for_each(|chunk| {
            self.with_external(chunk, |chunk| {
                self.alg.summarize_block(side, chunk, summary)
            })
        })
    }

    fn global_aggregate(
        &self,
        side: Side,
        a: SummaryState,
        b: SummaryState,
    ) -> Result<SummaryState> {
        self.alg.global_aggregate(side, a, b)
    }

    fn symmetric(&self) -> bool {
        self.alg.symmetric()
    }

    fn divide(
        &self,
        left: &SummaryState,
        right: &SummaryState,
        params: &[Value],
    ) -> Result<PPlanState> {
        self.alg.divide(left, right, &self.xlate(params)?)
    }

    fn assign_block(
        &self,
        side: Side,
        keys: &[&Value],
        pplan: &PPlanState,
        out: &mut Vec<BucketId>,
        offsets: &mut Vec<usize>,
    ) -> Result<()> {
        keys.chunks(BLOCK_KEYS).try_for_each(|chunk| {
            self.with_external(chunk, |chunk| {
                self.alg.assign_block(side, chunk, pplan, out, offsets)
            })
        })
    }

    fn uses_default_match(&self) -> bool {
        self.alg.uses_default_match()
    }

    fn matching_buckets(
        &self,
        left: &[BucketId],
        right: &[BucketId],
        out: &mut Vec<(BucketId, BucketId)>,
    ) {
        self.alg.matching_buckets(left, right, out);
    }

    /// COMBINE crosses the boundary one block at a time: each key of the
    /// matched bucket pair is translated once (m + n translations, not
    /// 2·m·n) and the library sees both sides in one call.
    fn verify_block(
        &self,
        b1: BucketId,
        left: &[&Value],
        b2: BucketId,
        right: &[&Value],
        pplan: &PPlanState,
        prepare: bool,
        out: &mut Vec<(usize, usize)>,
    ) -> Result<()> {
        if left.is_empty() || right.is_empty() {
            return Ok(());
        }
        // Both sides in one translated block: two allocations per block.
        let keys = self.xlate(left.iter().chain(right).copied())?;
        let keys: Vec<&ExtValue> = keys.iter().collect();
        let (left, right) = keys.split_at(left.len());
        self.alg
            .verify_block(b1, left, b2, right, pplan, prepare, out)
    }

    fn dedup_mode(&self) -> DedupMode {
        self.alg.dedup_mode()
    }

    fn dedup(
        &self,
        b1: BucketId,
        k1: &Value,
        b2: BucketId,
        k2: &Value,
        pplan: &PPlanState,
    ) -> Result<bool> {
        let keys = self.xlate([k1, k2])?;
        let (e1, e2) = (&keys[0], &keys[1]);
        match self.alg.dedup_mode() {
            DedupMode::Custom => self.alg.dedup(b1, e1, b2, e2, pplan),
            _ => avoidance_accepts(&**self.alg, b1, e1, b2, e2, pplan),
        }
    }

    fn guard(&self) -> Option<&crate::guard::GuardHandle> {
        self.alg.guard()
    }
}

/// Sequential reference execution of an [`EngineJoin`] over in-memory keys,
/// one key and one pair at a time: the [`crate::standalone`] runner's flow
/// at the engine interface.
///
/// Returns sorted `(left_index, right_index)` result pairs. The distributed
/// engine must produce exactly this set for the same inputs — its tests use
/// this function as the oracle — and built-in operators are validated
/// against their FUDJ twins through it.
pub fn reference_execute(
    ej: &dyn EngineJoin,
    left_keys: &[Value],
    right_keys: &[Value],
    params: &[Value],
) -> Result<Vec<(usize, usize)>> {
    run_flow(ej, left_keys, right_keys, params).map(|(pairs, _)| pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flexible::{FlexibleJoin, ProxyJoin};
    use fudj_types::ExtValue;

    struct EqJoin;
    impl FlexibleJoin for EqJoin {
        type Summary = i64;
        type PPlan = i64;
        fn name(&self) -> &str {
            "eq"
        }
        fn summarize(&self, key: &ExtValue, s: &mut i64) -> Result<()> {
            *s = (*s).max(key.as_long()?.abs());
            Ok(())
        }
        fn merge_summaries(&self, a: i64, b: i64) -> i64 {
            a.max(b)
        }
        fn divide(&self, _: &i64, _: &i64, _: &[ExtValue]) -> Result<i64> {
            Ok(16)
        }
        fn assign(&self, key: &ExtValue, n: &i64, out: &mut Vec<BucketId>) -> Result<()> {
            out.push(key.as_long()?.rem_euclid(*n) as BucketId);
            Ok(())
        }
        fn verify(&self, k1: &ExtValue, k2: &ExtValue, _: &i64) -> Result<bool> {
            Ok(k1.as_long()? == k2.as_long()?)
        }
        fn dedup_mode(&self) -> DedupMode {
            DedupMode::None
        }
    }

    #[test]
    fn adapter_translates_and_counts() {
        let fudj = FudjEngineJoin::new(Arc::new(ProxyJoin::new(EqJoin)));
        let ej: &dyn EngineJoin = &fudj;
        let mut s = ej.new_summary(Side::Left);
        ej.local_aggregate(Side::Left, &Value::Int64(42), &mut s)
            .unwrap();
        assert_eq!(fudj.translation_count(), 1);

        let plan = ej.divide(&s, &s, &[]).unwrap();
        let mut out = Vec::new();
        ej.assign(Side::Left, &Value::Int64(18), &plan, &mut out)
            .unwrap();
        assert_eq!(out, vec![2]);
        assert!(ej
            .verify(2, &Value::Int64(18), 2, &Value::Int64(18), &plan)
            .unwrap());
        assert!(fudj.translation_count() >= 4);
    }

    #[test]
    fn block_join_translates_each_key_once_and_agrees_with_per_pair_verify() {
        let fudj = FudjEngineJoin::new(Arc::new(ProxyJoin::new(EqJoin)));
        let ej: &dyn EngineJoin = &fudj;
        let s = ej.new_summary(Side::Left);
        let plan = ej.divide(&s, &s, &[]).unwrap();
        let left = [Value::Int64(1), Value::Int64(2)];
        let right = [Value::Int64(2), Value::Int64(1), Value::Int64(2)];
        let (left_keys, right_keys): (Vec<_>, Vec<_>) =
            (left.iter().collect(), right.iter().collect());

        let before = fudj.translation_count();
        let mut pairs = Vec::new();
        ej.verify_block(0, &left_keys, 0, &right_keys, &plan, true, &mut pairs)
            .unwrap();
        // m + n crossings for the block; the per-pair loop paid 2·m·n.
        assert_eq!(fudj.translation_count() - before, 2 + 3);
        assert_eq!(pairs, vec![(0, 1), (1, 0), (1, 2)]);

        let mut nested = Vec::new();
        for (i, k1) in left.iter().enumerate() {
            for (j, k2) in right.iter().enumerate() {
                if ej.verify(0, k1, 0, k2, &plan).unwrap() {
                    nested.push((i, j));
                }
            }
        }
        assert_eq!(pairs, nested, "same pairs, same row-major order");

        // A block with an empty side has no candidate pair and crosses nothing.
        let (before, mut none) = (fudj.translation_count(), Vec::new());
        ej.verify_block(0, &left_keys, 0, &[], &plan, true, &mut none)
            .unwrap();
        assert_eq!(none, []);
        assert_eq!(fudj.translation_count(), before);
    }

    #[test]
    fn single_pair_verify_and_dedup_translate_two_keys_per_call() {
        // `fudjbench` derives `core.translations_per_key` by subtracting two
        // translations per single-pair `verify` / `dedup` call from the total.
        let fudj = FudjEngineJoin::new(Arc::new(ProxyJoin::new(EqJoin)));
        let ej: &dyn EngineJoin = &fudj;
        let s = ej.new_summary(Side::Left);
        let plan = ej.divide(&s, &s, &[]).unwrap();
        let (a, b) = (Value::Int64(18), Value::Int64(2));
        for calls in 1..=3u64 {
            let before = fudj.translation_count();
            ej.verify(2, &a, 2, &b, &plan).unwrap();
            assert_eq!(fudj.translation_count() - before, 2, "verify call {calls}");
            let before = fudj.translation_count();
            ej.dedup(2, &a, 2, &b, &plan).unwrap();
            assert_eq!(fudj.translation_count() - before, 2, "dedup call {calls}");
        }
    }

    /// `EqJoin` whose `assign` answers out of order and with a repeat, and
    /// whose dedup is avoidance (which re-runs `assign` on both keys).
    struct Scattered;
    impl FlexibleJoin for Scattered {
        type Summary = i64;
        type PPlan = i64;
        fn name(&self) -> &str {
            "scattered"
        }
        fn summarize(&self, key: &ExtValue, s: &mut i64) -> Result<()> {
            EqJoin.summarize(key, s)
        }
        fn merge_summaries(&self, a: i64, b: i64) -> i64 {
            EqJoin.merge_summaries(a, b)
        }
        fn divide(&self, l: &i64, r: &i64, params: &[ExtValue]) -> Result<i64> {
            EqJoin.divide(l, r, params)
        }
        fn assign(&self, key: &ExtValue, n: &i64, out: &mut Vec<BucketId>) -> Result<()> {
            let b = key.as_long()?.rem_euclid(*n) as BucketId;
            out.extend([b + 1, b, b + 1]);
            Ok(())
        }
        fn verify(&self, k1: &ExtValue, k2: &ExtValue, n: &i64) -> Result<bool> {
            EqJoin.verify(k1, k2, n)
        }
    }

    #[test]
    fn per_key_helpers_cross_the_boundary_as_fudjbench_counts_them() {
        // `fudjbench` derives `core.translations_per_key` by subtracting
        // 2·(candidates + dedup calls) + params from the total: one
        // translation per `local_aggregate` and `assign`, two per `verify`
        // and `dedup`.
        let fudj = FudjEngineJoin::new(Arc::new(ProxyJoin::new(Scattered)));
        let ej: &dyn EngineJoin = &fudj;
        let (a, b) = (Value::Int64(18), Value::Int64(2));
        let mut s = ej.new_summary(Side::Left);
        let before = fudj.translation_count();
        ej.local_aggregate(Side::Left, &a, &mut s).unwrap();
        assert_eq!(fudj.translation_count() - before, 1, "local_aggregate");

        let plan = ej.divide(&s, &s, &[]).unwrap();
        let mut ids = vec![99];
        let before = fudj.translation_count();
        ej.assign(Side::Left, &a, &plan, &mut ids).unwrap();
        assert_eq!(fudj.translation_count() - before, 1, "assign");
        assert_eq!(ids, vec![2, 3], "sorted and deduplicated");

        let before = fudj.translation_count();
        assert!(!ej.verify(2, &a, 2, &b, &plan).unwrap());
        assert_eq!(fudj.translation_count() - before, 2, "verify");
        let before = fudj.translation_count();
        assert!(
            ej.dedup(2, &a, 2, &a, &plan).unwrap(),
            "first shared bucket"
        );
        assert!(!ej.dedup(3, &a, 3, &a, &plan).unwrap(), "a later one");
        assert_eq!(fudj.translation_count() - before, 4, "dedup");
    }

    #[test]
    fn dedup_on_datetime_keys_goes_through_translation() {
        let fudj = FudjEngineJoin::new(Arc::new(ProxyJoin::new(EqJoin)));
        let ej: &dyn EngineJoin = &fudj;
        let s = ej.new_summary(Side::Left);
        let plan = ej.divide(&s, &s, &[]).unwrap();
        // DateTime translates to Long; dedup (avoidance) accepts the single
        // matching bucket pair.
        let k = Value::DateTime(33);
        assert!(ej.dedup(1, &k, 1, &k, &plan).unwrap());
        assert!(!ej.dedup(0, &k, 0, &k, &plan).unwrap());
    }
}
