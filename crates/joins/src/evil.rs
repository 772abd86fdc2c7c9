//! Adversarial join fixtures for the guardrail layer.
//!
//! Real FUDJ deployments run third-party join libraries the engine cannot
//! audit. This module is the test stand-in for the worst of them: an
//! [`EvilJoin`] wrapper that forwards to a well-behaved inner algorithm but
//! misbehaves in one configurable way — panicking, hanging (on the
//! simulated UDF clock), emitting out-of-range buckets, assigning
//! non-deterministically, or over-replicating keys. The guard layer
//! ([`fudj_core::GuardedJoin`]) must turn each of these into a structured
//! [`fudj_types::FudjError::UdfViolation`], never a poisoned worker pool or
//! a silently wrong answer.
//!
//! Misbehavior is *key-scoped* wherever the callback sees a key: only keys
//! matched by [`poisoned`] act up, so Quarantine-policy tests can compute an
//! exact oracle (the clean join minus poisoned keys). Structural callbacks
//! (`divide`) misbehave unconditionally.
//!
//! [`EqualityFudj`] is the deliberately boring inner algorithm: a plain
//! hash-equality join over any key type, with default `matches` — the one
//! shape for which the engine's `FallbackEquality` degradation is sound.
//! [`evil_library`] bundles every mode as CREATE JOIN classes for
//! end-to-end SQL tests.

use fudj_core::{
    assign_each, consume_udf_time, verify_pairs, BucketId, DedupMode, Join, JoinAlgorithm,
    JoinLibrary, PPlanState, Side, SummaryState,
};
use fudj_types::{ExtValue, Result};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// Name of the adversarial library bundle.
pub const EVIL_LIBRARY_NAME: &str = "evillib";

/// Bucket count [`EqualityFudj`] hashes into.
const EQ_BUCKETS: u64 = 8;

/// Out-of-range sentinel: when the inner algorithm does not declare a
/// bucket range, [`EvilJoin`] declares this many and emits it (one past the
/// end) for poisoned keys.
const RANGE_SENTINEL: BucketId = 1 << 20;

// -- poison predicate -------------------------------------------------------

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn fold(h: u64, x: u64) -> u64 {
    splitmix(h ^ x)
}

/// Deterministic structural hash of a key (same spirit as the guard's
/// internal site hash, but independent of it: the fixtures must not share
/// the hash they are trying to defeat).
pub fn key_hash(v: &ExtValue) -> u64 {
    match v {
        ExtValue::Null => splitmix(11),
        ExtValue::Bool(b) => fold(12, *b as u64),
        ExtValue::Long(x) => fold(13, *x as u64),
        ExtValue::Double(x) => fold(14, x.to_bits()),
        ExtValue::Text(s) => s.bytes().fold(splitmix(15), |h, b| fold(h, b as u64)),
        ExtValue::LongArray(xs) => xs.iter().fold(splitmix(16), |h, x| fold(h, *x as u64)),
        ExtValue::DoubleArray(xs) => xs.iter().fold(splitmix(17), |h, x| fold(h, x.to_bits())),
        ExtValue::TextArray(xs) => xs.iter().fold(splitmix(18), |h, s| {
            s.bytes().fold(fold(h, 19), |h, b| fold(h, b as u64))
        }),
    }
}

/// Whether `key` is one of the roughly-one-in-eight keys an [`EvilJoin`]
/// misbehaves on. Deterministic across runs, threads, and retries, so tests
/// can compute exact quarantine oracles.
pub fn poisoned(key: &ExtValue) -> bool {
    key_hash(key).is_multiple_of(8)
}

// -- the evil wrapper -------------------------------------------------------

/// Which user callback the wrapper corrupts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvilPhase {
    /// `local_aggregate` (key-scoped).
    Summarize,
    /// `divide` (structural — misbehaves unconditionally).
    Divide,
    /// `assign` (key-scoped).
    Assign,
    /// `verify` (scoped to the left key of the pair).
    Verify,
}

/// The one way an [`EvilJoin`] misbehaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvilMode {
    /// Forward everything untouched (the control group: a guarded tame
    /// join must be indistinguishable from the unguarded inner join).
    Tame,
    /// Panic in the given callback.
    PanicIn(EvilPhase),
    /// Burn this many simulated milliseconds in the given callback.
    HangIn(EvilPhase, u64),
    /// Emit a bucket id outside the declared range from `assign`.
    OutOfRangeBucket,
    /// Answer a poisoned key with one extra bucket on every `assign` call
    /// after its first, whatever order keys come in (defeats retry safety
    /// and duplicate avoidance).
    NonDeterministicAssign,
    /// Emit every assigned bucket this many extra times.
    OverReplicate(usize),
}

/// A wrapper that forwards to `inner` but misbehaves per [`EvilMode`].
pub struct EvilJoin {
    inner: Arc<dyn JoinAlgorithm>,
    mode: EvilMode,
    /// Poisoned keys (by [`key_hash`]) already assigned once, for
    /// [`EvilMode::NonDeterministicAssign`].
    assigned: Mutex<HashSet<u64>>,
}

impl EvilJoin {
    /// Wrap `inner` with the given misbehavior.
    pub fn new(inner: Arc<dyn JoinAlgorithm>, mode: EvilMode) -> Self {
        EvilJoin {
            inner,
            mode,
            assigned: Mutex::default(),
        }
    }

    fn sabotage(&self, phase: EvilPhase, key: Option<&ExtValue>) {
        let scoped = key.map(poisoned).unwrap_or(true);
        match self.mode {
            EvilMode::PanicIn(p) if p == phase && scoped => {
                panic!("evil library: injected panic in {phase:?}")
            }
            EvilMode::HangIn(p, ms) if p == phase && scoped => consume_udf_time(ms),
            _ => {}
        }
    }
}

impl Join<ExtValue> for EvilJoin {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn new_summary(&self, side: Side) -> SummaryState {
        self.inner.new_summary(side)
    }

    fn summarize_block(
        &self,
        side: Side,
        keys: &[&ExtValue],
        summary: &mut SummaryState,
    ) -> Result<()> {
        for key in keys {
            self.sabotage(EvilPhase::Summarize, Some(key));
        }
        self.inner.summarize_block(side, keys, summary)
    }

    fn global_aggregate(
        &self,
        side: Side,
        a: SummaryState,
        b: SummaryState,
    ) -> Result<SummaryState> {
        self.inner.global_aggregate(side, a, b)
    }

    fn symmetric(&self) -> bool {
        self.inner.symmetric()
    }

    fn divide(
        &self,
        left: &SummaryState,
        right: &SummaryState,
        params: &[ExtValue],
    ) -> Result<PPlanState> {
        self.sabotage(EvilPhase::Divide, None);
        self.inner.divide(left, right, params)
    }

    fn assign_block(
        &self,
        side: Side,
        keys: &[&ExtValue],
        pplan: &PPlanState,
        out: &mut Vec<BucketId>,
        offsets: &mut Vec<usize>,
    ) -> Result<()> {
        assign_each(keys, out, offsets, |key, out| {
            self.assign(side, key, pplan, out)
        })
    }

    fn uses_default_match(&self) -> bool {
        self.inner.uses_default_match()
    }

    fn matching_buckets(
        &self,
        left: &[BucketId],
        right: &[BucketId],
        out: &mut Vec<(BucketId, BucketId)>,
    ) {
        self.inner.matching_buckets(left, right, out)
    }

    fn verify_block(
        &self,
        b1: BucketId,
        left: &[&ExtValue],
        b2: BucketId,
        right: &[&ExtValue],
        pplan: &PPlanState,
        prepare: bool,
        out: &mut Vec<(usize, usize)>,
    ) -> Result<()> {
        // Scoped to the left key, once per pair.
        for key in left {
            for _ in right {
                self.sabotage(EvilPhase::Verify, Some(key));
            }
        }
        self.inner
            .verify_block(b1, left, b2, right, pplan, prepare, out)
    }

    fn dedup_mode(&self) -> DedupMode {
        self.inner.dedup_mode()
    }

    fn dedup(
        &self,
        b1: BucketId,
        k1: &ExtValue,
        b2: BucketId,
        k2: &ExtValue,
        pplan: &PPlanState,
    ) -> Result<bool> {
        self.inner.dedup(b1, k1, b2, k2, pplan)
    }
}

impl JoinAlgorithm for EvilJoin {
    fn declared_buckets(&self, pplan: &PPlanState) -> Option<BucketId> {
        // Out-of-range sabotage needs *some* declared range to violate.
        self.inner.declared_buckets(pplan).or(match self.mode {
            EvilMode::OutOfRangeBucket => Some(RANGE_SENTINEL),
            _ => None,
        })
    }
}

impl EvilJoin {
    /// One key's `assign`, misbehaving per the mode.
    fn assign(
        &self,
        side: Side,
        key: &ExtValue,
        pplan: &PPlanState,
        out: &mut Vec<BucketId>,
    ) -> Result<()> {
        self.sabotage(EvilPhase::Assign, Some(key));
        // The inner join's ids for this key, appended to `out`.
        let inner = |out: &mut Vec<BucketId>| {
            self.inner
                .assign_block(side, &[key], pplan, out, &mut Vec::new())
        };
        match self.mode {
            EvilMode::OutOfRangeBucket if poisoned(key) => {
                // One past the end of whatever range is declared.
                out.push(self.declared_buckets(pplan).unwrap_or(RANGE_SENTINEL));
                Ok(())
            }
            EvilMode::NonDeterministicAssign if poisoned(key) => {
                inner(out)?;
                let mut assigned = self.assigned.lock().expect("evil assigned lock");
                if !assigned.insert(key_hash(key)) {
                    let extra = out.last().copied().unwrap_or(0);
                    out.push(extra);
                }
                Ok(())
            }
            EvilMode::OverReplicate(factor) if poisoned(key) => {
                let start = out.len();
                inner(out)?;
                let assigned: Vec<BucketId> = out[start..].to_vec();
                for _ in 0..factor {
                    out.extend_from_slice(&assigned);
                }
                Ok(())
            }
            _ => inner(out),
        }
    }
}

// -- the boring inner join --------------------------------------------------

/// A plain hash-equality join written against the raw [`JoinAlgorithm`]
/// surface: count summaries, a fixed bucket count, hash single-assign,
/// default `matches`, structural-equality `verify`. Its whole point is
/// predictability — the guard's equality-fallback path must reproduce its
/// results exactly.
pub struct EqualityFudj;

impl Join<ExtValue> for EqualityFudj {
    fn name(&self) -> &str {
        "equality"
    }

    fn new_summary(&self, _side: Side) -> SummaryState {
        SummaryState::new(0i64)
    }

    fn summarize_block(
        &self,
        _side: Side,
        keys: &[&ExtValue],
        summary: &mut SummaryState,
    ) -> Result<()> {
        if let Some(count) = summary.downcast_mut::<i64>() {
            *count += keys.len() as i64;
        }
        Ok(())
    }

    fn global_aggregate(
        &self,
        _side: Side,
        a: SummaryState,
        b: SummaryState,
    ) -> Result<SummaryState> {
        let sum = a.downcast_ref::<i64>().copied().unwrap_or(0)
            + b.downcast_ref::<i64>().copied().unwrap_or(0);
        Ok(SummaryState::new(sum))
    }

    fn symmetric(&self) -> bool {
        true
    }

    fn divide(
        &self,
        _left: &SummaryState,
        _right: &SummaryState,
        _params: &[ExtValue],
    ) -> Result<PPlanState> {
        Ok(PPlanState::new(EQ_BUCKETS as i64))
    }

    fn assign_block(
        &self,
        _side: Side,
        keys: &[&ExtValue],
        _pplan: &PPlanState,
        out: &mut Vec<BucketId>,
        offsets: &mut Vec<usize>,
    ) -> Result<()> {
        assign_each(keys, out, offsets, |key, out| {
            out.push(key_hash(key) % EQ_BUCKETS);
            Ok(())
        })
    }

    fn verify_block(
        &self,
        _b1: BucketId,
        left: &[&ExtValue],
        _b2: BucketId,
        right: &[&ExtValue],
        _pplan: &PPlanState,
        _prepare: bool,
        out: &mut Vec<(usize, usize)>,
    ) -> Result<()> {
        verify_pairs(
            left.len(),
            right.len(),
            |i, j| Ok(left[i] == right[j]),
            |i, j| out.push((i, j)),
        )
    }

    fn dedup_mode(&self) -> DedupMode {
        // Single-assign: duplicates cannot arise.
        DedupMode::None
    }
}

impl JoinAlgorithm for EqualityFudj {
    fn declared_buckets(&self, _pplan: &PPlanState) -> Option<BucketId> {
        Some(EQ_BUCKETS)
    }
}

// -- the library bundle -----------------------------------------------------

/// The adversarial library: every [`EvilMode`] wrapped around
/// [`EqualityFudj`], registered as CREATE JOIN classes. Hang budgets burn
/// 60 simulated seconds (any per-call budget under a minute trips);
/// over-replication emits 64 extra copies (the default per-key cap is
/// far higher — tests lower it via `WITH (max_buckets_per_key = ...)`).
///
/// | class | misbehavior |
/// |---|---|
/// | `evil.Tame` | none (control) |
/// | `evil.PanicSummarize` | panics in `local_aggregate` on poisoned keys |
/// | `evil.PanicDivide` | panics in `divide` |
/// | `evil.PanicAssign` | panics in `assign` on poisoned keys |
/// | `evil.PanicVerify` | panics in `verify` on poisoned left keys |
/// | `evil.HangAssign` | burns 60 simulated s in `assign` on poisoned keys |
/// | `evil.OutOfRange` | emits a bucket past the declared range |
/// | `evil.NonDetAssign` | an extra bucket on every call after a key's first |
/// | `evil.OverReplicate` | 64× replication of poisoned keys |
pub fn evil_library() -> JoinLibrary {
    fn wrap(mode: EvilMode) -> Arc<dyn JoinAlgorithm> {
        Arc::new(EvilJoin::new(Arc::new(EqualityFudj), mode))
    }
    JoinLibrary::builder(EVIL_LIBRARY_NAME)
        .with_class("evil.Tame", || wrap(EvilMode::Tame))
        .with_class("evil.PanicSummarize", || {
            wrap(EvilMode::PanicIn(EvilPhase::Summarize))
        })
        .with_class("evil.PanicDivide", || {
            wrap(EvilMode::PanicIn(EvilPhase::Divide))
        })
        .with_class("evil.PanicAssign", || {
            wrap(EvilMode::PanicIn(EvilPhase::Assign))
        })
        .with_class("evil.PanicVerify", || {
            wrap(EvilMode::PanicIn(EvilPhase::Verify))
        })
        .with_class("evil.HangAssign", || {
            wrap(EvilMode::HangIn(EvilPhase::Assign, 60_000))
        })
        .with_class("evil.OutOfRange", || wrap(EvilMode::OutOfRangeBucket))
        .with_class("evil.NonDetAssign", || {
            wrap(EvilMode::NonDeterministicAssign)
        })
        .with_class("evil.OverReplicate", || wrap(EvilMode::OverReplicate(64)))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fudj_core::standalone::run_standalone;
    use fudj_core::{GuardConfig, GuardedJoin, UdfPolicy};
    use fudj_types::FudjError;

    fn keys(vals: &[i64]) -> Vec<ExtValue> {
        vals.iter().map(|v| ExtValue::Long(*v)).collect()
    }

    /// A poisoned and a clean Long key, found by scanning (the predicate is
    /// hash-based, so the concrete values are not magic numbers).
    fn poison_and_clean() -> (i64, i64) {
        let poison = (0..1000).find(|v| poisoned(&ExtValue::Long(*v))).unwrap();
        let clean = (0..1000).find(|v| !poisoned(&ExtValue::Long(*v))).unwrap();
        (poison, clean)
    }

    #[test]
    fn tame_evil_join_is_a_correct_equality_join() {
        let (poison, clean) = poison_and_clean();
        let left = keys(&[poison, clean, 777]);
        let right = keys(&[clean, poison, clean]);
        let alg = EvilJoin::new(Arc::new(EqualityFudj), EvilMode::Tame);
        let pairs = run_standalone(&alg, &left, &right, &[]).unwrap();
        let mut expect: Vec<(usize, usize)> = Vec::new();
        for (i, l) in left.iter().enumerate() {
            for (j, r) in right.iter().enumerate() {
                if l == r {
                    expect.push((i, j));
                }
            }
        }
        let mut got = pairs;
        got.sort_unstable();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn every_evil_mode_is_caught_as_a_violation() {
        let (poison, clean) = poison_and_clean();
        let left = keys(&[poison, clean]);
        let right = keys(&[clean, poison]);
        let modes = [
            EvilMode::PanicIn(EvilPhase::Summarize),
            EvilMode::PanicIn(EvilPhase::Divide),
            EvilMode::PanicIn(EvilPhase::Assign),
            EvilMode::PanicIn(EvilPhase::Verify),
            EvilMode::HangIn(EvilPhase::Assign, 60_000),
            EvilMode::OutOfRangeBucket,
            EvilMode::OverReplicate(1 << 25),
        ];
        for mode in modes {
            let alg = GuardedJoin::new(
                Box::new(EvilJoin::new(Arc::new(EqualityFudj), mode)),
                GuardConfig::default(),
            );
            let err = run_standalone(&alg, &left, &right, &[]).unwrap_err();
            assert!(
                matches!(err, FudjError::UdfViolation { .. }),
                "{mode:?}: {err}"
            );
        }
    }

    #[test]
    fn nondeterministic_assign_is_caught_when_sampled() {
        let (poison, clean) = poison_and_clean();
        let mut config = GuardConfig::default();
        config.limits.check_sample = 1; // probe every call
        let alg = GuardedJoin::new(
            Box::new(EvilJoin::new(
                Arc::new(EqualityFudj),
                EvilMode::NonDeterministicAssign,
            )),
            config,
        );
        let err = run_standalone(&alg, &keys(&[poison, clean]), &keys(&[clean]), &[]).unwrap_err();
        let FudjError::UdfViolation { phase, detail, .. } = err else {
            panic!("wrong error")
        };
        assert_eq!(phase, "assign");
        assert!(detail.contains("deterministic"), "{detail}");
    }

    #[test]
    fn quarantine_drops_exactly_the_poisoned_keys() {
        let (poison, clean) = poison_and_clean();
        let left = keys(&[poison, clean, poison]);
        let right = keys(&[clean, poison, clean]);
        let config = GuardConfig::with_policy(UdfPolicy::Quarantine);
        let guarded = GuardedJoin::new(
            Box::new(EvilJoin::new(
                Arc::new(EqualityFudj),
                EvilMode::PanicIn(EvilPhase::Assign),
            )),
            config,
        );
        let mut got = run_standalone(&guarded, &left, &right, &[]).unwrap();
        got.sort_unstable();
        // Oracle: the clean equality join minus pairs touching poisoned keys.
        let mut expect: Vec<(usize, usize)> = Vec::new();
        for (i, l) in left.iter().enumerate() {
            for (j, r) in right.iter().enumerate() {
                if l == r && !poisoned(l) && !poisoned(r) {
                    expect.push((i, j));
                }
            }
        }
        expect.sort_unstable();
        assert_eq!(got, expect);
        assert!(guarded.stats().quarantined_rows > 0);
    }

    #[test]
    fn evil_library_lists_and_instantiates_all_classes() {
        let lib = evil_library();
        assert_eq!(lib.name(), EVIL_LIBRARY_NAME);
        assert_eq!(lib.classes().len(), 9);
        for class in lib.classes() {
            assert!(lib.instantiate(&class).is_ok(), "{class}");
        }
    }
}
