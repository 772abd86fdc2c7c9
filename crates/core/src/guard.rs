//! The UDF guardrail layer. FUDJ runs *untrusted* library code behind the
//! paper's proxy functions (§IV, Fig. 7); [`GuardedJoin`] wraps any
//! [`JoinAlgorithm`] and is what the executor and the standalone runner
//! invoke. Every callback is **panic-isolated** (the payload kept in a
//! [`FudjError::UdfViolation`]), **metered** ([`UdfLimits`]: a per-call
//! budget on the *simulated* clock, advanced by [`consume_udf_time`], and
//! caps on PPlan size, buckets per key and assign fan-out per partition) and
//! **contract-checked** (bucket ids inside the declared range; on a seeded
//! sample, a deterministic `assign`, a symmetric `verify` under default
//! dedup over one declared key type, a `prepare` that keeps `verify`'s
//! answer, associative merges).
//!
//! Every phase runs through one block runner: a parked-violation check, one
//! `catch_unwind` around the inner algorithm's whole block, a budget check
//! on the block's simulated time, then the sampled probes. A block that
//! unwinds, errs, goes over budget, fails a probe, holds a dropped key or
//! meets a parked violation is replayed call by call; a single call is the
//! runner with a block of one, its miss counted at its site. A block within
//! the budget in sum holds no call over it, and callbacks are pure by
//! contract, so a replay is sound. Violations resolve per [`UdfPolicy`];
//! structural callbacks (`new_summary`, `merge_summaries`, `divide`) always
//! fail fast. A well-behaved library's guarded run is bit-identical to its
//! unguarded one.

use crate::model::{verify_pairs, BucketId, DedupMode, Join, JoinAlgorithm, Side};
use crate::state::{PPlanState, SummaryState};
use fudj_types::{ExtValue, FudjError, Result};
use std::cell::{Cell, OnceCell};
use std::collections::HashSet;
use std::ops::Deref;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

mod config;
pub use config::{GuardConfig, GuardMode, UdfLimits, UdfPolicy};

thread_local! {
    /// Simulated milliseconds consumed by user callbacks on this thread.
    static UDF_CLOCK_MS: Cell<u64> = const { Cell::new(0) };
    /// Bucket ids emitted by `assign` since the last partition boundary on
    /// this thread (each partition is processed by exactly one worker).
    static ASSIGN_FANOUT: Cell<u64> = const { Cell::new(0) };
}

/// Report simulated time spent inside a user callback, instead of sleeping:
/// the guard meters callbacks on this clock, so hangs are deterministic.
pub fn consume_udf_time(ms: u64) {
    UDF_CLOCK_MS.with(|c| c.set(c.get().saturating_add(ms)));
}

fn udf_clock() -> u64 {
    UDF_CLOCK_MS.with(Cell::get)
}

fudj_types::counters! {
    /// Guardrail counters for one query, per distinct violation *site*
    /// (phase + offending key/pair); several guarded joins `merge` theirs.
    pub struct UdfStats("udf."), cells UdfCounterCells {
        summarize_violations: sum,
        merge_violations: sum,
        divide_violations: sum,
        assign_violations: sum,
        match_violations: sum,
        verify_violations: sum,
        dedup_violations: sum,
        /// Violations that were caught panics.
        caught_panics: sum,
        /// Violations that were budget overruns (time / size / replication).
        budget_overruns: sum,
        /// Violations that were contract-check failures.
        contract_breaches: sum,
        /// Keys/rows/pairs dropped under [`UdfPolicy::Quarantine`].
        quarantined_rows: sum,
        /// Times the engine degraded to the hash-equality fallback path.
        fallback_activations: sum,
    }
}

impl UdfStats {
    /// Total violations across all phases.
    pub fn total_violations(&self) -> u64 {
        let fields = self.fields();
        let by_phase = fields
            .iter()
            .filter(|(name, _)| name.ends_with("_violations"));
        by_phase.map(|(_, count)| count).sum()
    }
}

/// Which callback a violation happened in (lowercased, its phase name).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Summarize,
    Merge,
    Divide,
    Assign,
    Match,
    Verify,
    Dedup,
}

/// Why a call or a block left the runner's happy path: an error returned
/// as it is (a parked violation, a library `Err`), or a violation — a caught
/// panic, a budget overrun, a contract breach — with its detail.
enum Miss {
    Error(FudjError),
    Panic(String),
    Budget(String),
    Contract(String),
}

#[derive(Default)]
struct UdfCells {
    counts: UdfCounterCells,
    /// Violation sites already counted: fault-recovery re-executions of a
    /// partition do not count a site twice.
    seen: Mutex<HashSet<u64>>,
    /// The parked violation of a callback with no `Result` (`matches`).
    pending: Mutex<Option<FudjError>>,
    /// Set once `pending` is: the check before every block is a load.
    has_pending: AtomicBool,
    /// Sampled summaries for the associativity probe, per side.
    assoc_samples: Mutex<[Vec<SummaryState>; 2]>,
    assoc_checked: [AtomicU64; 2],
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fold(h: u64, w: u64) -> u64 {
    splitmix(h ^ w)
}

/// Structural hash of an external value, for seeded sampling and violation
/// sites: deterministic across runs and retries, allocation-free.
fn ext_hash(v: &ExtValue) -> u64 {
    match v {
        ExtValue::Null => splitmix(1),
        ExtValue::Bool(b) => fold(2, *b as u64),
        ExtValue::Long(x) => fold(3, *x as u64),
        ExtValue::Double(x) => fold(4, x.to_bits()),
        ExtValue::Text(s) => s.bytes().fold(splitmix(5), |h, b| fold(h, b as u64)),
        ExtValue::LongArray(xs) => xs.iter().fold(splitmix(6), |h, x| fold(h, *x as u64)),
        ExtValue::DoubleArray(xs) => xs.iter().fold(splitmix(7), |h, x| fold(h, x.to_bits())),
        ExtValue::TextArray(ts) => ts.iter().fold(splitmix(8), |h, t| {
            t.bytes().fold(fold(h, 9), |h, b| fold(h, b as u64))
        }),
    }
}

/// A COMBINE key, hashed and prepared once per block for every pair it is
/// in; sites and probe decisions use the raw key's hash, computed the first
/// time one needs it (a clean block no probe applies to needs none).
struct Hashed<'a> {
    key: &'a ExtValue,
    hash: OnceCell<u64>,
    /// The library's prepared form; `None` reads the key itself.
    form: Option<ExtValue>,
    /// `prepare` violated under quarantine: the key's pairs are dropped.
    dropped: bool,
}

impl<'a> Hashed<'a> {
    fn new(key: &'a ExtValue) -> Self {
        Hashed {
            key,
            hash: OnceCell::new(),
            form: None,
            dropped: false,
        }
    }

    /// The raw key's structural hash.
    fn hash(&self) -> u64 {
        *self.hash.get_or_init(|| ext_hash(self.key))
    }

    /// The value `verify` reads.
    fn value(&self) -> &ExtValue {
        self.form.as_ref().unwrap_or(self.key)
    }
}

/// Whether two keys have one external shape, as the symmetry probe needs
/// beside matching declared types: a null key is exempt.
fn same_shape(k1: &Hashed<'_>, k2: &Hashed<'_>) -> bool {
    std::mem::discriminant(k1.key) == std::mem::discriminant(k2.key)
}

/// The site of one candidate pair: both raw keys' hashes and the bucket ids.
fn pair_site(b1: BucketId, k1: &Hashed<'_>, b2: BucketId, k2: &Hashed<'_>) -> u64 {
    fold(fold(fold(k1.hash(), k2.hash()), b1), b2)
}

/// The site hash of one key's `assign`.
fn assign_site(side: Side, key: &ExtValue) -> u64 {
    fold(ext_hash(key), side as u64 + 10)
}

/// The site of one key's callback: `<side> key <key>`, the key truncated so
/// a pathological one cannot blow up the diagnostic.
fn key_site(side: Side, key: &ExtValue) -> String {
    format!("{side} key {}", short(key))
}

fn short(v: &ExtValue) -> String {
    let s = v.to_string();
    if s.chars().count() > 48 {
        s.chars().take(47).collect::<String>() + "…"
    } else {
        s
    }
}

/// Extract a human-readable message from a panic payload.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// The probe-replay helper: a probe's own inner call, isolated and not
/// metered; `None` if it unwinds or errs.
fn probe<T>(f: impl FnOnce() -> Result<T>) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()?.ok()
}

/// Shared handle to one [`GuardedJoin`]'s configuration and counters, which
/// engines reach through [`Join::guard`].
#[derive(Clone)]
pub struct GuardHandle {
    config: GuardConfig,
    cells: Arc<UdfCells>,
}

impl GuardHandle {
    /// The configured policy.
    pub fn policy(&self) -> UdfPolicy {
        self.config.policy
    }

    /// The configured limits.
    pub fn limits(&self) -> &UdfLimits {
        &self.config.limits
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> UdfStats {
        self.cells.counts.load()
    }

    /// The violation parked by a callback with no `Result` (`matches`):
    /// engines check at the end of each guarded join.
    pub fn check(&self) -> Result<()> {
        let pending = self.cells.pending.lock().expect("guard pending lock");
        pending.clone().map_or(Ok(()), Err)
    }

    /// Reset this thread's assign fan-out: engines call it per partition.
    pub fn begin_partition(&self) {
        ASSIGN_FANOUT.with(|c| c.set(0));
    }

    /// Record that the engine degraded to the hash-equality fallback path.
    pub fn note_fallback(&self) {
        self.cells.counts.fallback_activations.add(1);
    }

    /// Park a callback's violation (the first one wins).
    fn defer(&self, err: FudjError) {
        let mut slot = self.cells.pending.lock().expect("guard pending lock");
        slot.get_or_insert(err);
        // Release, paired with `pending`'s Acquire: the flag implies the slot.
        self.cells.has_pending.store(true, Ordering::Release);
    }

    /// The parked violation, if any: a load, and a lock only once one is.
    fn pending(&self) -> Option<FudjError> {
        let cells = &self.cells;
        let parked = cells.has_pending.load(Ordering::Acquire);
        parked.then(|| cells.pending.lock().expect("guard pending lock").clone())?
    }
}

/// The guardrail wrapper (see the module docs) around a pointer to an
/// algorithm: `GuardedJoin<Arc<dyn JoinAlgorithm>>` on the planned path,
/// `GuardedJoin<&dyn JoinAlgorithm>` in the standalone runner.
pub struct GuardedJoin<J: Deref<Target: JoinAlgorithm>> {
    inner: J,
    handle: GuardHandle,
    /// Whether the join's two declared key types are one type.
    same_key_types: bool,
}

impl<J: Deref<Target: JoinAlgorithm>> GuardedJoin<J> {
    /// Wrap `inner` under `config`, its two key types taken to be one type.
    pub fn new(inner: J, config: GuardConfig) -> Self {
        let cells = Arc::default();
        let handle = GuardHandle { config, cells };
        GuardedJoin {
            inner,
            handle,
            same_key_types: true,
        }
    }

    /// Declare whether the join's two key types are one type, as the join
    /// definition's argument types say. The symmetry probe swaps a pair's
    /// keys, so it runs only when they are: `st_contains(polygon, point)`
    /// swapped would call `verify` on a point and a polygon, outside the
    /// declared signature, though both arrive as a `DoubleArray`.
    pub fn with_same_key_types(self, same: bool) -> Self {
        GuardedJoin {
            same_key_types: same,
            ..self
        }
    }

    /// The engine-facing handle (stats, pending check, fallback note).
    pub fn handle(&self) -> &GuardHandle {
        &self.handle
    }

    /// Counter snapshot.
    pub fn stats(&self) -> UdfStats {
        self.handle.stats()
    }

    /// `f` metered, under the guard's `catch_unwind`: an unwind, a budget
    /// overrun (which outranks a library `Err`) or a library `Err` is a miss.
    fn isolate<T>(&self, f: impl FnOnce() -> Result<T>) -> std::result::Result<T, Miss> {
        let t0 = udf_clock();
        let outcome = catch_unwind(AssertUnwindSafe(f));
        let elapsed = udf_clock().saturating_sub(t0);
        let budget = self.handle.limits().call_budget_ms;
        match outcome {
            Err(payload) => Err(Miss::Panic(format!(
                "callback panicked: {}",
                panic_text(payload)
            ))),
            Ok(_) if elapsed > budget => Err(Miss::Budget(format!(
                "call consumed {elapsed} ms of simulated time (budget {budget} ms)"
            ))),
            Ok(result) => result.map_err(Miss::Error),
        }
    }

    /// The block runner: a parked violation is a miss; else `run_all` under
    /// [`Self::isolate`], then `probes` on its answer, a disagreement being a
    /// contract miss. A block's caller replays a miss call by call.
    fn run_block<T>(
        &self,
        run_all: impl FnOnce() -> Result<T>,
        probes: impl FnOnce(&T) -> Option<String>,
    ) -> std::result::Result<T, Miss> {
        if let Some(err) = self.handle.pending() {
            return Err(Miss::Error(err));
        }
        let value = self.isolate(run_all)?;
        probes(&value).map_or(Ok(value), |detail| Err(Miss::Contract(detail)))
    }

    /// One callback under the guard: the runner with a block of one.
    fn guarded<R>(
        &self,
        phase: Phase,
        site_hash: u64,
        site: impl Fn() -> String,
        quarantine: impl FnOnce() -> Option<R>,
        f: impl FnOnce() -> Result<R>,
    ) -> Result<R> {
        self.run_block(f, |_| None)
            .or_else(|miss| self.resolve(miss, phase, site_hash, site, quarantine))
    }

    /// A single call's miss: an error is returned as it is; a violation is
    /// counted once per distinct site and resolved per policy — `Err` to
    /// abort, or the row-scoped `quarantine` value under quarantine.
    fn resolve<R>(
        &self,
        miss: Miss,
        phase: Phase,
        site_hash: u64,
        site: impl Fn() -> String,
        quarantine: impl FnOnce() -> Option<R>,
    ) -> Result<R> {
        let counts = &self.handle.cells.counts;
        let (kind, detail, by_kind) = match miss {
            Miss::Error(err) => return Err(err),
            Miss::Panic(detail) => (0, detail, &counts.caught_panics),
            Miss::Budget(detail) => (1, detail, &counts.budget_overruns),
            Miss::Contract(detail) => (2, detail, &counts.contract_breaches),
        };
        let full_site = fold(fold(site_hash, phase as u64 + 100), kind + 200);
        let mut seen = self.handle.cells.seen.lock().expect("guard seen lock");
        let is_new = seen.insert(full_site);
        if is_new {
            match phase {
                Phase::Summarize => &counts.summarize_violations,
                Phase::Merge => &counts.merge_violations,
                Phase::Divide => &counts.divide_violations,
                Phase::Assign => &counts.assign_violations,
                Phase::Match => &counts.match_violations,
                Phase::Verify => &counts.verify_violations,
                Phase::Dedup => &counts.dedup_violations,
            }
            .add(1);
            by_kind.add(1);
        }
        match (self.handle.policy(), quarantine()) {
            (UdfPolicy::Quarantine, Some(neutral)) => {
                counts.quarantined_rows.add(is_new as u64);
                Ok(neutral)
            }
            _ => Err(FudjError::UdfViolation {
                phase: format!("{phase:?}").to_lowercase(),
                site: site(),
                detail,
            }),
        }
    }

    /// Whether the seeded 1-in-`stride`·N sampler picks this site for a
    /// contract probe (a stride above 1 thins costly probes).
    fn sampled(&self, stride: u64, salt: u64, site_hash: u64) -> bool {
        let n = self.handle.limits().check_sample.saturating_mul(stride);
        n > 0 && fold(site_hash, salt).is_multiple_of(n)
    }
}

const SALT_DETERMINISM: u64 = 0xD373;
const SALT_SYMMETRY: u64 = 0x5E77;
const SALT_PREPARE: u64 = 0x9A3E;

/// The prepare probe replays `verify` on raw keys, the cost `prepare` saves
/// (~8 µs against ~1 µs on the text join), so it samples 1 in 8·N: ~780
/// replays, ~2 % of `fudjbench`'s `text_join` (1 in N would be ~18 %).
const PREPARE_PROBE_STRIDE: u64 = 8;

impl<J: Deref<Target: JoinAlgorithm> + Send + Sync> Join<ExtValue> for GuardedJoin<J> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn new_summary(&self, side: Side) -> SummaryState {
        // No `Result` and no row: park it, hand back an unused placeholder.
        self.isolate(|| Ok(self.inner.new_summary(side)))
            .unwrap_or_else(|miss| {
                let site_hash = fold(ext_hash(&ExtValue::Null), side as u64);
                let site = || format!("new_summary {side}");
                if let Err(err) =
                    self.resolve::<()>(miss, Phase::Summarize, site_hash, site, || None)
                {
                    self.handle.defer(err);
                }
                SummaryState::new(0i64)
            })
    }

    fn summarize_block(
        &self,
        side: Side,
        keys: &[&ExtValue],
        summary: &mut SummaryState,
    ) -> Result<()> {
        if let [key] = keys {
            // One call, folded in place; quarantine skips the key.
            return self.guarded(
                Phase::Summarize,
                fold(ext_hash(key), side as u64),
                || key_site(side, key),
                || Some(()),
                || self.inner.summarize_block(side, keys, summary),
            );
        }
        // Folded into a copy, so a replayed block folds each key once.
        if keys.len() > 1 {
            let mut block = summary.clone();
            let run_all = || self.inner.summarize_block(side, keys, &mut block);
            if self.run_block(run_all, |_| None).is_ok() {
                *summary = block;
                return Ok(());
            }
        }
        keys.chunks(1)
            .try_for_each(|key| self.summarize_block(side, key, summary))
    }

    fn global_aggregate(
        &self,
        side: Side,
        a: SummaryState,
        b: SummaryState,
    ) -> Result<SummaryState> {
        // Sample inputs for the associativity probe before they are moved.
        let probing = self.handle.limits().check_sample > 0;
        if probing {
            let cells = &self.handle.cells;
            let mut samples = cells.assoc_samples.lock().expect("guard assoc lock");
            let sampled = &mut samples[side as usize];
            for s in [&a, &b] {
                if sampled.len() < 3 {
                    sampled.push(s.clone());
                }
            }
        }
        let merged = self.guarded(
            Phase::Merge,
            fold(splitmix(0x6E6), side as u64),
            || format!("merge_summaries {side}"),
            || None, // structural: never quarantined
            || self.inner.global_aggregate(side, a, b),
        )?;
        if probing {
            self.associativity_probe(side)?;
        }
        Ok(merged)
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
        let site_hash = splitmix(0xD17);
        let pplan = self.guarded(
            Phase::Divide,
            site_hash,
            || "divide".to_owned(),
            || None, // structural: never quarantined
            || self.inner.divide(left, right, params),
        )?;
        let (size, cap) = (pplan.serialized_len(), self.handle.limits().max_pplan_bytes);
        if size > cap {
            let miss = Miss::Budget(format!("PPlan serializes to {size} bytes (cap {cap})"));
            return self.resolve(miss, Phase::Divide, site_hash, || "divide".into(), || None);
        }
        Ok(pplan)
    }

    fn assign_block(
        &self,
        side: Side,
        keys: &[&ExtValue],
        pplan: &PPlanState,
        out: &mut Vec<BucketId>,
        offsets: &mut Vec<usize>,
    ) -> Result<()> {
        let (base, first) = (out.len(), offsets.len());
        // A block that reports anything but one in-order range per key is a
        // miss like any other.
        let run_all = || {
            self.inner.assign_block(side, keys, pplan, out, offsets)?;
            let ends = &offsets[first..];
            let ordered = ends.iter().try_fold(base, |start, &end| {
                (start <= end && end <= out.len()).then_some(end)
            });
            Ok(ends.len() == keys.len() && ordered.is_some())
        };
        let ragged =
            |&ok: &bool| (!ok).then(|| "assign_block did not report one range per key".into());
        if let Err(miss) = self.run_block(run_all, ragged) {
            out.truncate(base);
            offsets.truncate(first);
            if let [key] = keys {
                // One call: quarantine drops whatever buckets it emitted.
                let site = || key_site(side, key);
                self.resolve(miss, Phase::Assign, assign_site(side, key), site, || {
                    Some(())
                })?;
                offsets.push(out.len());
                return Ok(());
            }
            return keys
                .chunks(1)
                .try_for_each(|key| self.assign_block(side, key, pplan, out, offsets));
        }
        // A clean block's answers are the per-key calls', so each key's
        // checks resolve in place, in key order; a quarantined key's ids
        // are squeezed out, and an error leaves the keys before it.
        let (mut start, mut kept) = (base, base);
        for (i, key) in keys.iter().enumerate() {
            let end = offsets[first + i];
            let ids = &out[start..end];
            match self.check_assign(side, key, assign_site(side, key), pplan, ids) {
                Ok(true) => {
                    out.copy_within(start..end, kept);
                    kept += end - start;
                }
                Ok(false) => {}
                Err(err) => {
                    out.truncate(kept);
                    offsets.truncate(first + i);
                    return Err(err);
                }
            }
            offsets[first + i] = kept;
            start = end;
        }
        out.truncate(kept);
        Ok(())
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
        let start = out.len();
        let run_all = || {
            self.inner.matching_buckets(left, right, out);
            Ok(())
        };
        let Err(miss) = (match (left, right) {
            // One call, not behind the parked-violation check: the first
            // violation of a partition is the one parked.
            ([_], [_]) => self.isolate(run_all),
            _ => self.run_block(run_all, |_| None),
        }) else {
            return;
        };
        out.truncate(start);
        if let ([b1], [b2]) = (left, right) {
            let site_hash = fold(fold(splitmix(0x3A7), *b1), *b2);
            let site = || format!("bucket pair ({b1}, {b2})");
            // Quarantine: the bucket pair simply no-matches. No `Result`
            // channel otherwise: park the violation, no-match.
            if let Err(err) = self.resolve(miss, Phase::Match, site_hash, site, || Some(())) {
                self.handle.defer(err);
            }
            return;
        }
        for b1 in left.chunks(1) {
            for b2 in right.chunks(1) {
                self.matching_buckets(b1, b2, out);
            }
        }
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
        // Per key, once per block: the hash and, if asked, a guarded
        // `prepare`. A block of one pair, a block with a dropped key, or one
        // the runner misses, goes by pair.
        if left.is_empty() || right.is_empty() {
            return Ok(());
        }
        let left = self.prepare_side(Side::Left, left, pplan, prepare)?;
        let right = self.prepare_side(Side::Right, right, pplan, prepare)?;
        let by_pair = left.len() * right.len() == 1;
        let block = if by_pair || left.iter().chain(&right).any(|k| k.dropped) {
            None
        } else {
            let left_forms: Vec<_> = left.iter().map(Hashed::value).collect();
            let right_forms: Vec<_> = right.iter().map(Hashed::value).collect();
            let run_all = || {
                let mut accepted = Vec::new();
                self.inner
                    .verify_block(
                        b1,
                        &left_forms,
                        b2,
                        &right_forms,
                        pplan,
                        false,
                        &mut accepted,
                    )
                    .map(|()| accepted)
            };
            let probes =
                |accepted: &Vec<_>| self.probe_block(b1, &left, b2, &right, pplan, accepted);
            self.run_block(run_all, probes).ok()
        };
        match block {
            Some(accepted) => {
                out.extend(accepted);
                Ok(())
            }
            None => self.replay_block(b1, &left, b2, &right, pplan, out),
        }
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
        self.guarded(
            Phase::Dedup,
            fold(fold(fold(ext_hash(k1), ext_hash(k2)), b1 + 7), b2 + 7),
            || format!("pair ({}, {})", short(k1), short(k2)),
            || Some(false), // quarantine: suppress the emission
            || self.inner.dedup(b1, k1, b2, k2, pplan),
        )
    }

    fn guard(&self) -> Option<&GuardHandle> {
        Some(&self.handle)
    }
}

/// The guard reports no prepared form of its own: it prepares inside
/// `verify_block`, where a violation is attributed to the raw key.
impl<J: Deref<Target: JoinAlgorithm> + Send + Sync> JoinAlgorithm for GuardedJoin<J> {
    fn declared_buckets(&self, pplan: &PPlanState) -> Option<BucketId> {
        self.inner.declared_buckets(pplan)
    }
}

impl<J: Deref<Target: JoinAlgorithm>> GuardedJoin<J> {
    /// The checks on one key's `assign` answer, for the per-key and block
    /// paths: range, replication, partition fan-out (taken back whenever the
    /// key is quarantined) and, sampled, determinism. `Ok(false)`: dropped.
    fn check_assign(
        &self,
        side: Side,
        key: &ExtValue,
        site_hash: u64,
        pplan: &PPlanState,
        ids: &[BucketId],
    ) -> Result<bool> {
        let limits = self.handle.limits();
        let added = ids.len();
        let mut charged = 0;
        let breach = (|| {
            if let Some(n) = self.inner.declared_buckets(pplan) {
                if let Some(bad) = ids.iter().find(|&&b| b >= n) {
                    let detail =
                        format!("bucket id {bad} outside the plan's declared range 0..{n}");
                    return Some(Miss::Contract(detail));
                }
            }
            let cap = limits.max_buckets_per_key;
            if added > cap {
                let detail = format!("key replicated to {added} buckets (cap {cap})");
                return Some(Miss::Budget(detail));
            }
            charged = added as u64;
            let fanout = ASSIGN_FANOUT.with(|c| {
                c.set(c.get().saturating_add(charged));
                c.get()
            });
            let cap = limits.max_assign_fanout;
            if fanout > cap {
                let detail = format!("partition assign fan-out reached {fanout} (cap {cap})");
                return Some(Miss::Budget(detail));
            }
            if self.sampled(1, SALT_DETERMINISM, site_hash) {
                let mut again = Vec::with_capacity(added);
                let replayed = probe(|| {
                    self.inner
                        .assign_block(side, &[key], pplan, &mut again, &mut vec![])
                });
                if replayed.is_none() || again != ids {
                    let detail = format!(
                        "assign is not deterministic: first call gave {ids:?}, replay gave {again:?}"
                    );
                    return Some(Miss::Contract(detail));
                }
            }
            None
        })();
        let Some(miss) = breach else {
            return Ok(true);
        };
        let keep = self.resolve(
            miss,
            Phase::Assign,
            site_hash,
            || key_site(side, key),
            || Some(false),
        )?;
        ASSIGN_FANOUT.with(|c| c.set(c.get().saturating_sub(charged)));
        Ok(keep)
    }

    /// One side of a block with, if asked, each key's `prepare` run: the
    /// side's calls as one block, replayed key by key only on a miss. A
    /// key's call is counted under `Phase::Verify` at the raw key's site;
    /// quarantine drops the key.
    fn prepare_side<'a>(
        &self,
        side: Side,
        keys: &[&'a ExtValue],
        pplan: &PPlanState,
        prepare: bool,
    ) -> Result<Vec<Hashed<'a>>> {
        let mut hashed: Vec<Hashed<'a>> = keys.iter().map(|&key| Hashed::new(key)).collect();
        if !prepare {
            return Ok(hashed);
        }
        if keys.len() > 1 {
            let run_all = || {
                let prepare_key = |key: &&ExtValue| self.inner.prepare(side, key, pplan);
                keys.iter().map(prepare_key).collect::<Result<Vec<_>>>()
            };
            if let Ok(forms) = self.run_block(run_all, |_| None) {
                for (key, form) in hashed.iter_mut().zip(forms) {
                    key.form = form;
                }
                return Ok(hashed);
            }
        }
        for key in &mut hashed {
            let raw = key.key;
            key.form = self
                .guarded(
                    Phase::Verify,
                    fold(key.hash(), side as u64 + 20),
                    || key_site(side, raw),
                    || Some(None),
                    || self.inner.prepare(side, raw, pplan).map(Some),
                )?
                .unwrap_or_else(|| {
                    key.dropped = true;
                    None
                });
        }
        Ok(hashed)
    }

    /// The probes over a clean block's answers: [`Self::probe_pair`] on every
    /// pair, accepted or not, that a probe applies to (none in a block under
    /// neither avoidance nor `prepare`, such as the interval join's).
    fn probe_block(
        &self,
        b1: BucketId,
        left: &[Hashed<'_>],
        b2: BucketId,
        right: &[Hashed<'_>],
        pplan: &PPlanState,
        accepted: &[(usize, usize)],
    ) -> Option<String> {
        let symmetry = self.symmetry_probed();
        let prepared = left.iter().chain(right).any(|k| k.form.is_some());
        if self.handle.limits().check_sample == 0 || !(symmetry || prepared) {
            return None;
        }
        let mut answers = accepted.iter().copied().peekable();
        for (i, k1) in left.iter().enumerate() {
            for (j, k2) in right.iter().enumerate() {
                let answer = answers.next_if_eq(&(i, j)).is_some();
                if (symmetry && same_shape(k1, k2)) || k1.form.is_some() || k2.form.is_some() {
                    let detail = self.probe_pair(b1, k1, b2, k2, pplan, answer);
                    if detail.is_some() {
                        return detail;
                    }
                }
            }
        }
        None
    }

    /// A block pair by pair through [`Self::verify_pair`]: the per-call code
    /// a missed block is replayed through.
    fn replay_block(
        &self,
        b1: BucketId,
        left: &[Hashed<'_>],
        b2: BucketId,
        right: &[Hashed<'_>],
        pplan: &PPlanState,
        out: &mut Vec<(usize, usize)>,
    ) -> Result<()> {
        verify_pairs(
            left.len(),
            right.len(),
            |i, j| self.verify_pair(b1, &left[i], b2, &right[j], pplan),
            |i, j| out.push((i, j)),
        )
    }

    /// One guarded `verify` call on keys whose hashes and forms are already
    /// known, then its probes.
    fn verify_pair(
        &self,
        b1: BucketId,
        k1: &Hashed<'_>,
        b2: BucketId,
        k2: &Hashed<'_>,
        pplan: &PPlanState,
    ) -> Result<bool> {
        if k1.dropped || k2.dropped {
            return Ok(false);
        }
        let site = || format!("pair ({}, {})", short(k1.key), short(k2.key));
        self.run_block(
            || self.verify_one(b1, k1.value(), b2, k2.value(), pplan),
            |&accepted| self.probe_pair(b1, k1, b2, k2, pplan, accepted),
        )
        .or_else(|miss| {
            // Quarantine: drop the pair.
            self.resolve(miss, Phase::Verify, pair_site(b1, k1, b2, k2), site, || {
                Some(false)
            })
        })
    }

    /// The inner `verify` on one pair of values as given: its block entry
    /// on a block of one, unguarded.
    fn verify_one(
        &self,
        b1: BucketId,
        k1: &ExtValue,
        b2: BucketId,
        k2: &ExtValue,
        pplan: &PPlanState,
    ) -> Result<bool> {
        let mut accepted = Vec::new();
        self.inner
            .verify_block(b1, &[k1], b2, &[k2], pplan, false, &mut accepted)?;
        Ok(!accepted.is_empty())
    }

    /// Whether the join is one the symmetry probe checks: symmetric, under
    /// the default dedup mode, over one declared key type.
    fn symmetry_probed(&self) -> bool {
        self.same_key_types
            && self.inner.symmetric()
            && self.inner.dedup_mode() == DedupMode::Avoidance
    }

    /// The sampled probes on one pair `verify` answered `accepted`: the first
    /// disagreement's detail. The block and per-pair paths share it.
    fn probe_pair(
        &self,
        b1: BucketId,
        k1: &Hashed<'_>,
        b2: BucketId,
        k2: &Hashed<'_>,
        pplan: &PPlanState,
        accepted: bool,
    ) -> Option<String> {
        let site_hash = pair_site(b1, k1, b2, k2);
        // Symmetry under the default dedup mode, between keys of one
        // declared type and one external shape (polygon × point is exempt,
        // and so is a null key); the swapped call reads the forms the
        // pair's own call read.
        if self.sampled(1, SALT_SYMMETRY, site_hash)
            && self.symmetry_probed()
            && same_shape(k1, k2)
            && probe(|| self.verify_one(b2, k2.value(), b1, k1.value(), pplan)) != Some(accepted)
        {
            return Some(format!(
                "verify is not symmetric: verify(k1, k2) = {accepted}, \
                 swapped call did not agree"
            ));
        }
        // `prepare` must not change `verify`'s answer: replayed on the raw
        // keys, for pairs in which a prepared form took part.
        if (k1.form.is_some() || k2.form.is_some())
            && self.sampled(PREPARE_PROBE_STRIDE, SALT_PREPARE, site_hash)
            && probe(|| self.verify_one(b1, k1.key, b2, k2.key, pplan)) != Some(accepted)
        {
            return Some(format!(
                "prepare changed verify's answer: {accepted} on the prepared \
                 forms, the raw keys did not agree"
            ));
        }
        None
    }

    /// Probe merge associativity once per side, on the first three sampled
    /// summaries: `(a ⊕ b) ⊕ c` and `a ⊕ (b ⊕ c)` must serialize to the same
    /// size, which catches merges that drop or duplicate contributions.
    fn associativity_probe(&self, side: Side) -> Result<()> {
        let idx = side as usize;
        let cells = &self.handle.cells;
        let [s0, s1, s2] = {
            let samples = cells.assoc_samples.lock().expect("guard assoc lock");
            match &samples[idx][..] {
                [a, b, c] if cells.assoc_checked[idx].swap(1, Ordering::Relaxed) == 0 => {
                    [a.clone(), b.clone(), c.clone()]
                }
                _ => return Ok(()),
            }
        };
        let merge = |a, b| probe(|| self.inner.global_aggregate(side, a, b));
        let left_assoc = merge(s0.clone(), s1.clone()).and_then(|ab| merge(ab, s2.clone()));
        let right_assoc = merge(s1, s2).and_then(|bc| merge(s0, bc));
        match (left_assoc, right_assoc) {
            (Some(l), Some(r)) if l.serialized_len() != r.serialized_len() => {
                let detail = format!(
                    "summaries do not merge associatively: (a⊕b)⊕c serializes to {} \
                     bytes, a⊕(b⊕c) to {}",
                    l.serialized_len(),
                    r.serialized_len()
                );
                let (miss, site_hash) =
                    (Miss::Contract(detail), fold(splitmix(0xA550C), side as u64));
                self.resolve(
                    miss,
                    Phase::Merge,
                    site_hash,
                    || format!("merge_summaries {side}"),
                    || None,
                )
            }
            _ => Ok(()),
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::matching_pairs;
    use crate::standalone::{run_guarded, run_standalone};
    use proptest::prelude::*;

    /// A raw hash-mod equality join over `Long` keys with switchable
    /// misbehavior. Key 13 is the poison key: every fault fires only for it,
    /// so quarantine tests can predict the surviving result exactly.
    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Bad {
        None,
        PanicSummarize,
        PanicAssign,
        HangAssign,
        OutOfRange,
        NonDetAssign,
        OverReplicate,
        BigPplan,
        AsymVerify,
        PanicMatches,
        /// A correct `prepare`: the key in a one-element array.
        Prepare,
        /// `prepare` panics / hangs on the poison key, on the left side only.
        PanicPrepare,
        HangPrepare,
        /// `prepare` halves the key, so 2 and 3 verify equal when prepared.
        LossyPrepare,
        /// `verify` panics / fails / hangs when the left key is the poison
        /// key.
        PanicVerify,
        ErrVerify,
        HangVerify,
        /// Every `verify` call burns 3 s of simulated time: within the 10 s
        /// budget per call, over it for a block of four pairs or more.
        SlowVerify,
    }

    struct Wild {
        bad: Bad,
        buckets: u64,
        calls: AtomicU64,
        verifies: AtomicU64,
    }

    impl Wild {
        fn new(bad: Bad) -> Self {
            Wild {
                bad,
                buckets: 4,
                calls: AtomicU64::new(0),
                verifies: AtomicU64::new(0),
            }
        }
    }

    const POISON: i64 = 13;

    impl JoinAlgorithm for Wild {
        fn prepare(
            &self,
            side: Side,
            key: &ExtValue,
            _pplan: &PPlanState,
        ) -> Result<Option<ExtValue>> {
            let k = key.as_long()?;
            let poisoned = k == POISON && side == Side::Left;
            let form = match self.bad {
                Bad::Prepare => k,
                Bad::PanicPrepare if poisoned => panic!("prepare kaboom"),
                Bad::HangPrepare if poisoned => {
                    consume_udf_time(60_000);
                    k
                }
                Bad::PanicPrepare | Bad::HangPrepare => k,
                Bad::LossyPrepare => k / 2,
                _ => return Ok(None),
            };
            Ok(Some(ExtValue::LongArray(vec![form])))
        }

        fn declared_buckets(&self, pplan: &PPlanState) -> Option<BucketId> {
            pplan.downcast_ref::<u64>().copied()
        }
    }

    impl Join<ExtValue> for Wild {
        fn name(&self) -> &str {
            "wild"
        }

        fn new_summary(&self, _side: Side) -> SummaryState {
            SummaryState::new(0i64)
        }

        fn global_aggregate(
            &self,
            _side: Side,
            a: SummaryState,
            b: SummaryState,
        ) -> Result<SummaryState> {
            let sum = a.downcast_ref::<i64>().unwrap() + b.downcast_ref::<i64>().unwrap();
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
            if self.bad == Bad::BigPplan {
                return Ok(PPlanState::new(vec![0u64; 1024]));
            }
            Ok(PPlanState::new(self.buckets))
        }

        fn uses_default_match(&self) -> bool {
            self.bad != Bad::PanicMatches
        }

        fn dedup_mode(&self) -> DedupMode {
            // Single-assign: dedup is unnecessary, except that the symmetry
            // probe only arms under the default avoidance mode.
            if self.bad == Bad::AsymVerify {
                DedupMode::Avoidance
            } else {
                DedupMode::None
            }
        }

        fn summarize_block(
            &self,
            side: Side,
            keys: &[&ExtValue],
            summary: &mut SummaryState,
        ) -> Result<()> {
            keys.iter()
                .try_for_each(|key| self.local_aggregate(side, key, summary))
        }

        fn assign_block(
            &self,
            side: Side,
            keys: &[&ExtValue],
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

        fn matching_buckets(
            &self,
            left: &[BucketId],
            right: &[BucketId],
            out: &mut Vec<(BucketId, BucketId)>,
        ) {
            matching_pairs(left, right, |b1, b2| self.matches(b1, b2), out);
        }

        fn verify_block(
            &self,
            b1: BucketId,
            left: &[&ExtValue],
            b2: BucketId,
            right: &[&ExtValue],
            pplan: &PPlanState,
            _prepare: bool,
            out: &mut Vec<(usize, usize)>,
        ) -> Result<()> {
            let verify = |i: usize, j: usize| self.verify(b1, left[i], b2, right[j], pplan);
            verify_pairs(left.len(), right.len(), verify, |i, j| out.push((i, j)))
        }
    }

    /// The per-call fixture logic the block entries loop over.
    impl Wild {
        fn local_aggregate(
            &self,
            _side: Side,
            key: &ExtValue,
            summary: &mut SummaryState,
        ) -> Result<()> {
            if self.bad == Bad::PanicSummarize && key.as_long()? == POISON {
                panic!("summarize kaboom");
            }
            *summary.downcast_mut::<i64>().unwrap() += 1;
            Ok(())
        }

        fn assign(
            &self,
            _side: Side,
            key: &ExtValue,
            _pplan: &PPlanState,
            out: &mut Vec<BucketId>,
        ) -> Result<()> {
            let k = key.as_long()?;
            if k == POISON {
                match self.bad {
                    Bad::PanicAssign => panic!("assign kaboom"),
                    Bad::HangAssign => consume_udf_time(60_000),
                    Bad::OutOfRange => {
                        out.push(self.buckets + 5);
                        return Ok(());
                    }
                    Bad::NonDetAssign => {
                        out.push(self.calls.fetch_add(1, Ordering::Relaxed) % self.buckets);
                        return Ok(());
                    }
                    Bad::OverReplicate => {
                        // In-range buckets, just far too many of them.
                        out.extend((0..100).map(|i| i % self.buckets));
                        return Ok(());
                    }
                    _ => {}
                }
            }
            out.push((k as u64) % self.buckets);
            Ok(())
        }

        fn matches(&self, b1: BucketId, b2: BucketId) -> bool {
            if self.bad == Bad::PanicMatches && b1 == 1 {
                panic!("matches kaboom");
            }
            b1 == b2
        }

        fn verify(
            &self,
            _b1: BucketId,
            k1: &ExtValue,
            _b2: BucketId,
            k2: &ExtValue,
            _pplan: &PPlanState,
        ) -> Result<bool> {
            // A key, or the form `prepare` made of it.
            let long = |key: &ExtValue| match key {
                ExtValue::LongArray(form) => Ok(form[0]),
                raw => raw.as_long(),
            };
            let (a, b) = (long(k1)?, long(k2)?);
            self.verifies.fetch_add(1, Ordering::Relaxed);
            match self.bad {
                Bad::AsymVerify => return Ok(a <= b),
                Bad::PanicVerify if a == POISON => panic!("verify kaboom"),
                Bad::ErrVerify if a == POISON => {
                    return Err(FudjError::JoinLibrary(
                        "verify refused the poison key".into(),
                    ))
                }
                Bad::HangVerify if a == POISON => consume_udf_time(60_000),
                Bad::SlowVerify => consume_udf_time(3_000),
                _ => {}
            }
            Ok(a == b)
        }
    }

    fn longs(xs: &[i64]) -> Vec<ExtValue> {
        xs.iter().map(|&x| ExtValue::Long(x)).collect()
    }

    /// A block's keys as `verify_block` takes them.
    fn refs(keys: &[ExtValue]) -> Vec<&ExtValue> {
        keys.iter().collect()
    }

    const LEFT: [i64; 5] = [1, 2, 13, 5, 6];
    const RIGHT: [i64; 5] = [2, 13, 7, 5, 13];

    /// Ground truth for `Wild`'s equality semantics, optionally without the
    /// poison key.
    fn equality_pairs(include_poison: bool) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (i, a) in LEFT.iter().enumerate() {
            for (j, b) in RIGHT.iter().enumerate() {
                if a == b && (include_poison || *a != POISON) {
                    out.push((i, j));
                }
            }
        }
        out
    }

    fn run(bad: Bad, config: GuardConfig) -> Result<(Vec<(usize, usize)>, UdfStats)> {
        let wild = Wild::new(bad);
        run_guarded(&wild, config, &longs(&LEFT), &longs(&RIGHT), &[])
    }

    fn phase_of(err: FudjError) -> (String, String) {
        match err {
            FudjError::UdfViolation { phase, detail, .. } => (phase, detail),
            other => panic!("expected UdfViolation, got {other:?}"),
        }
    }

    #[test]
    fn well_behaved_guarded_run_is_clean_and_correct() {
        let (pairs, stats) = run(Bad::None, GuardConfig::default()).unwrap();
        assert_eq!(pairs, equality_pairs(true));
        assert_eq!(stats, UdfStats::default(), "guards must be invisible");
    }

    #[test]
    fn default_run_standalone_is_guarded() {
        // A panicking library surfaces a structured error, not a crash, even
        // through the plain entry point.
        let wild = Wild::new(Bad::PanicSummarize);
        let err = run_standalone(&wild, &longs(&LEFT), &longs(&RIGHT), &[]).unwrap_err();
        let (phase, detail) = phase_of(err);
        assert_eq!(phase, "summarize");
        assert!(detail.contains("kaboom"), "payload preserved: {detail}");
    }

    #[test]
    fn panic_in_summarize_quarantines_the_key() {
        let (pairs, stats) = run(
            Bad::PanicSummarize,
            GuardConfig::with_policy(UdfPolicy::Quarantine),
        )
        .unwrap();
        // Summaries only size the plan here, so the result is still exact.
        assert_eq!(pairs, equality_pairs(true));
        // One violation site per (key, side): the poison key appears on both
        // sides, and its two right-side occurrences collapse into one site.
        assert_eq!(stats.summarize_violations, 2);
        assert_eq!(stats.caught_panics, 2);
        assert_eq!(stats.quarantined_rows, 2);
    }

    #[test]
    fn panic_in_assign_fails_fast_and_quarantines() {
        let (phase, detail) = phase_of(run(Bad::PanicAssign, GuardConfig::default()).unwrap_err());
        assert_eq!(phase, "assign");
        assert!(detail.contains("assign kaboom"));

        let (pairs, stats) = run(
            Bad::PanicAssign,
            GuardConfig::with_policy(UdfPolicy::Quarantine),
        )
        .unwrap();
        assert_eq!(pairs, equality_pairs(false), "poison rows dropped");
        assert!(stats.quarantined_rows >= 1);
        assert_eq!(stats.contract_breaches, 0);
    }

    #[test]
    fn simulated_hang_is_a_budget_violation() {
        let (phase, detail) = phase_of(run(Bad::HangAssign, GuardConfig::default()).unwrap_err());
        assert_eq!(phase, "assign");
        assert!(detail.contains("simulated time"), "{detail}");

        let (pairs, stats) = run(
            Bad::HangAssign,
            GuardConfig::with_policy(UdfPolicy::Quarantine),
        )
        .unwrap();
        assert_eq!(pairs, equality_pairs(false));
        assert!(stats.budget_overruns >= 1);
    }

    #[test]
    fn out_of_range_bucket_is_a_contract_breach() {
        let (phase, detail) = phase_of(run(Bad::OutOfRange, GuardConfig::default()).unwrap_err());
        assert_eq!(phase, "assign");
        assert!(detail.contains("declared range"), "{detail}");

        let (pairs, stats) = run(
            Bad::OutOfRange,
            GuardConfig::with_policy(UdfPolicy::Quarantine),
        )
        .unwrap();
        assert_eq!(pairs, equality_pairs(false));
        assert!(stats.contract_breaches >= 1);
    }

    #[test]
    fn nondeterministic_assign_is_caught_by_the_replay_probe() {
        let mut config = GuardConfig::default();
        config.limits.check_sample = 1; // probe every key
        let (phase, detail) = phase_of(run(Bad::NonDetAssign, config).unwrap_err());
        assert_eq!(phase, "assign");
        assert!(detail.contains("not deterministic"), "{detail}");
    }

    #[test]
    fn over_replication_is_a_budget_violation() {
        let mut config = GuardConfig::default();
        config.limits.max_buckets_per_key = 8;
        let (phase, detail) = phase_of(run(Bad::OverReplicate, config.clone()).unwrap_err());
        assert_eq!(phase, "assign");
        assert!(detail.contains("replicated"), "{detail}");

        config.policy = UdfPolicy::Quarantine;
        let (pairs, stats) = run(Bad::OverReplicate, config).unwrap();
        assert_eq!(pairs, equality_pairs(false));
        assert!(stats.budget_overruns >= 1);
    }

    #[test]
    fn assign_fanout_cap_applies_per_partition() {
        let mut config = GuardConfig::default();
        config.limits.max_assign_fanout = 4;
        // Each side assigns 5 keys (one bucket each); a 4-id cap per
        // partition trips on the fifth.
        let (phase, detail) = phase_of(run(Bad::None, config).unwrap_err());
        assert_eq!(phase, "assign");
        assert!(detail.contains("fan-out"), "{detail}");

        let mut ok = GuardConfig::default();
        ok.limits.max_assign_fanout = 5;
        let (pairs, _) = run(Bad::None, ok).unwrap();
        assert_eq!(pairs, equality_pairs(true), "boundary exactly at the cap");
    }

    #[test]
    fn a_key_the_determinism_probe_quarantines_gives_back_its_fanout() {
        // Four clean keys of one bucket each per partition, at a cap of four:
        // the poison key's buckets, dropped by the determinism probe, must
        // not use up the cap, on the per-key path or in a block.
        let mut config = GuardConfig::with_policy(UdfPolicy::Quarantine);
        config.limits.check_sample = 1;
        config.limits.max_assign_fanout = 4;
        let (pairs, stats) = run(Bad::NonDetAssign, config.clone()).unwrap();
        assert_eq!(pairs, equality_pairs(false));
        assert_eq!((stats.budget_overruns, stats.contract_breaches), (0, 2));

        let guarded = GuardedJoin::new(Box::new(Wild::new(Bad::NonDetAssign)), config);
        guarded.handle().begin_partition();
        let (mut out, mut offsets) = (Vec::new(), Vec::new());
        guarded
            .assign_block(
                Side::Left,
                &refs(&longs(&LEFT)),
                &PPlanState::new(4u64),
                &mut out,
                &mut offsets,
            )
            .unwrap();
        assert_eq!((out, offsets), (vec![1, 2, 1, 2], vec![1, 2, 2, 3, 4]));
        assert_eq!(guarded.stats().budget_overruns, 0);
    }

    #[test]
    fn oversized_pplan_always_fails_fast() {
        let mut config = GuardConfig::default();
        config.limits.max_pplan_bytes = 64;
        let (phase, detail) = phase_of(run(Bad::BigPplan, config.clone()).unwrap_err());
        assert_eq!(phase, "divide");
        assert!(detail.contains("bytes"), "{detail}");

        // Structural violations ignore quarantine: there is no row to drop.
        config.policy = UdfPolicy::Quarantine;
        let (phase, _) = phase_of(run(Bad::BigPplan, config).unwrap_err());
        assert_eq!(phase, "divide");
    }

    #[test]
    fn panicking_matches_is_deferred_and_surfaced() {
        // `matches` has no Result channel: the guard records the violation
        // and the engine's end-of-join check surfaces it.
        let (phase, detail) = phase_of(run(Bad::PanicMatches, GuardConfig::default()).unwrap_err());
        assert_eq!(phase, "match");
        assert!(detail.contains("matches kaboom"), "{detail}");

        // Quarantine treats the bucket pair as a no-match: keys hashing to
        // the poisoned bucket 1 (1, 5, 13) drop out, others survive.
        let (pairs, stats) = run(
            Bad::PanicMatches,
            GuardConfig::with_policy(UdfPolicy::Quarantine),
        )
        .unwrap();
        assert_eq!(pairs, vec![(1, 0)], "only 2 = 2 survives outside bucket 1");
        assert!(stats.match_violations >= 1);
    }

    #[test]
    fn asymmetric_verify_is_caught_by_the_swap_probe() {
        let mut config = GuardConfig::default();
        config.limits.check_sample = 1;
        let (phase, detail) = phase_of(run(Bad::AsymVerify, config).unwrap_err());
        assert_eq!(phase, "verify");
        assert!(detail.contains("not symmetric"), "{detail}");
    }

    /// How a test drives one matched bucket pair through the guard.
    #[derive(Clone, Copy, Debug)]
    enum Path {
        /// `verify_block`: the optimistic block, replayed on any anomaly.
        Block,
        /// The block's forced replay: the same hashes and guarded `prepare`,
        /// then `verify_pair` on every pair.
        Replay,
        /// The single-pair `verify` on raw keys, pair by pair.
        Single,
    }

    /// One matched bucket pair through a fresh guard over `Wild`: the pairs
    /// emitted, the first error, and the counters afterwards.
    fn guarded_block(
        bad: Bad,
        config: GuardConfig,
        (b1, b2): (BucketId, BucketId),
        left: &[ExtValue],
        right: &[ExtValue],
        path: Path,
    ) -> (Vec<(usize, usize)>, Result<()>, UdfStats) {
        let guarded = GuardedJoin::new(Box::new(Wild::new(bad)), config);
        let plan = PPlanState::new(4u64);
        let mut pairs = Vec::new();
        let (left, right) = (refs(left), refs(right));
        let result = match path {
            Path::Block => guarded.verify_block(b1, &left, b2, &right, &plan, true, &mut pairs),
            Path::Replay if left.is_empty() || right.is_empty() => Ok(()),
            Path::Replay => (|| {
                let left = guarded.prepare_side(Side::Left, &left, &plan, true)?;
                let right = guarded.prepare_side(Side::Right, &right, &plan, true)?;
                guarded.replay_block(b1, &left, b2, &right, &plan, &mut pairs)
            })(),
            Path::Single => (|| {
                let single: &dyn JoinAlgorithm = &guarded;
                for (i, k1) in left.iter().enumerate() {
                    for (j, k2) in right.iter().enumerate() {
                        if single.verify(b1, k1, b2, k2, &plan)? {
                            pairs.push((i, j));
                        }
                    }
                }
                Ok(())
            })(),
        };
        (pairs, result, guarded.stats())
    }

    /// A block key: a few values that repeat, so pairs verify, and the
    /// poison key at one draw in seven.
    fn block_key() -> impl Strategy<Value = i64> {
        prop::sample::select(vec![0, 1, 2, 3, 5, 7, POISON])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The optimistic block is the forced per-pair replay, whatever goes
        /// wrong at whichever pair of the block: same pairs (each once,
        /// row-major), same first violation (phase, site, detail), same
        /// counters — for a clean `verify`, one that panics, fails or hangs
        /// on the poison key, an asymmetric one, a correct and a lossy
        /// `prepare`, under both row-scoped policies and every probe rate.
        /// Where `prepare` keeps its contract, both also equal the
        /// single-pair `verify` loop on raw keys.
        #[test]
        fn verify_block_agrees_with_per_pair_verify(
            left in prop::collection::vec(block_key(), 0..7),
            right in prop::collection::vec(block_key(), 0..7),
            bad in prop::sample::select(vec![
                Bad::None,
                Bad::AsymVerify,
                Bad::Prepare,
                Bad::PanicVerify,
                Bad::ErrVerify,
                Bad::HangVerify,
                Bad::SlowVerify,
                Bad::LossyPrepare,
                Bad::PanicPrepare,
            ]),
            policy in prop::sample::select(vec![UdfPolicy::FailFast, UdfPolicy::Quarantine]),
            check_sample in prop::sample::select(vec![0u64, 1, 3, 16]),
            buckets in (0u64..4, 0u64..4),
        ) {
            let mut config = GuardConfig::with_policy(policy);
            config.limits.check_sample = check_sample;
            let (left, right) = (longs(&left), longs(&right));
            let run = |path| guarded_block(bad, config.clone(), buckets, &left, &right, path);
            let block = run(Path::Block);
            prop_assert!(block.0.windows(2).all(|w| w[0] < w[1]), "{:?}", block.0);
            prop_assert_eq!(&block, &run(Path::Replay));
            if !matches!(bad, Bad::LossyPrepare | Bad::PanicPrepare) {
                prop_assert_eq!(&block, &run(Path::Single));
            }
        }
    }

    #[test]
    fn a_block_over_budget_in_sum_only_is_replayed_and_clean() {
        // Four calls of 3 s each: every call within the 10 s budget, the
        // block's 12 s over it. The block is replayed, each call is checked
        // on its own, and nothing is a violation.
        let run = |left: &[i64], right: &[i64]| {
            let guarded =
                GuardedJoin::new(Box::new(Wild::new(Bad::SlowVerify)), GuardConfig::default());
            let plan = PPlanState::new(4u64);
            let mut pairs = Vec::new();
            let (left, right) = (longs(left), longs(right));
            guarded
                .verify_block(1, &refs(&left), 1, &refs(&right), &plan, true, &mut pairs)
                .unwrap();
            let verifies = guarded.inner.verifies.load(Ordering::Relaxed);
            (pairs, verifies, guarded.stats())
        };
        let (pairs, verifies, stats) = run(&[1, 5], &[5, 1]);
        assert_eq!(pairs, vec![(0, 1), (1, 0)]);
        assert_eq!(verifies, 4 + 4, "the block, then its replay");
        assert_eq!(stats, UdfStats::default());

        // Three calls, 9 s: the block stands.
        let (pairs, verifies, stats) = run(&[1, 5, 9], &[5]);
        assert_eq!(pairs, vec![(1, 0)]);
        assert_eq!(verifies, 3);
        assert_eq!(stats, UdfStats::default());
    }

    #[test]
    fn matching_buckets_agrees_with_the_per_call_matches_loop() {
        // Bucket 1 panics in `matches`: the block's unwind is replayed call
        // by call, so the matched pairs, the deferred error and the counters
        // are the per-call loop's.
        for policy in [UdfPolicy::FailFast, UdfPolicy::Quarantine] {
            let run = |whole: bool| {
                let guarded = GuardedJoin::new(
                    Box::new(Wild::new(Bad::PanicMatches)),
                    GuardConfig::with_policy(policy),
                );
                let (left, right) = ([0, 1, 2, 3], [3, 1, 0]);
                let mut matched = Vec::new();
                if whole {
                    guarded.matching_buckets(&left, &right, &mut matched);
                } else {
                    for b1 in left {
                        for b2 in right {
                            if (&guarded as &dyn JoinAlgorithm).matches(b1, b2) {
                                matched.push((b1, b2));
                            }
                        }
                    }
                }
                (matched, guarded.handle().check(), guarded.stats())
            };
            let (matched, deferred, stats) = run(true);
            assert_eq!((matched.clone(), deferred.clone(), stats), run(false));
            assert_eq!(matched, vec![(0, 0), (3, 3)], "{policy}");
            assert_eq!(stats.match_violations, 3, "(1, 3), (1, 1), (1, 0)");
            match (policy, deferred) {
                (UdfPolicy::FailFast, Err(FudjError::UdfViolation { phase, site, .. })) => {
                    assert_eq!(
                        (phase.as_str(), site.as_str()),
                        ("match", "bucket pair (1, 3)")
                    );
                }
                (UdfPolicy::Quarantine, Ok(())) => assert_eq!(stats.quarantined_rows, 3),
                other => panic!("{policy}: {other:?}"),
            }
        }

        // A well-behaved `matches` goes through the inner loop untouched.
        let guarded = GuardedJoin::new(Box::new(Wild::new(Bad::None)), GuardConfig::default());
        let mut matched = Vec::new();
        guarded.matching_buckets(&[0, 1, 2], &[2, 1], &mut matched);
        assert_eq!(matched, vec![(1, 1), (2, 2)]);
        assert_eq!(guarded.stats(), UdfStats::default());
    }

    #[test]
    fn asymmetric_verify_in_a_block_quarantines_exactly_the_offending_pair() {
        // 1 <= 2 but not 2 <= 1: with every pair probed, (1, 2) is a breach
        // and is dropped; (2, 2) in the same block survives.
        let mut config = GuardConfig::with_policy(UdfPolicy::Quarantine);
        config.limits.check_sample = 1;
        let (pairs, result, stats) = guarded_block(
            Bad::AsymVerify,
            config,
            (0, 0),
            &longs(&[1, 2]),
            &longs(&[2]),
            Path::Block,
        );
        assert_eq!(result, Ok(()));
        assert_eq!(pairs, vec![(1, 0)]);
        assert_eq!(stats.verify_violations, 1);
        assert_eq!(stats.contract_breaches, 1);
        assert_eq!(stats.quarantined_rows, 1);
    }

    #[test]
    fn violation_in_prepare_fails_fast_with_the_raw_key_as_site() {
        for (bad, kind) in [
            (Bad::PanicPrepare, "prepare kaboom"),
            (Bad::HangPrepare, "simulated time"),
        ] {
            let (pairs, result, stats) = guarded_block(
                bad,
                GuardConfig::default(),
                (0, 0),
                &longs(&[1, POISON, 5]),
                &longs(&[POISON, 5, 1]),
                Path::Block,
            );
            assert_eq!(pairs, vec![], "prepare runs before the first pair");
            match result {
                Err(FudjError::UdfViolation {
                    phase,
                    site,
                    detail,
                }) => {
                    assert_eq!(phase, "verify");
                    assert_eq!(site, format!("left key {POISON}"));
                    assert!(detail.contains(kind), "{detail}");
                }
                other => panic!("expected a UdfViolation, got {other:?}"),
            }
            assert_eq!(stats.verify_violations, 1);
            assert_eq!(stats.caught_panics + stats.budget_overruns, 1);
        }
    }

    #[test]
    fn violation_in_prepare_quarantines_the_key_once_across_blocks() {
        for bad in [Bad::PanicPrepare, Bad::HangPrepare] {
            let guarded = GuardedJoin::new(
                Box::new(Wild::new(bad)),
                GuardConfig::with_policy(UdfPolicy::Quarantine),
            );
            let plan = PPlanState::new(4u64);
            let (left, right) = (longs(&[1, POISON, 5]), longs(&[POISON, 5, 1]));
            // The poisoned left key recurs in three blocks: its pairs are
            // dropped from each, the other keys' pairs survive, and the site
            // is counted once. The right-side 13 is not poisoned.
            for b in 0..3 {
                let mut pairs = Vec::new();
                guarded
                    .verify_block(b, &refs(&left), b, &refs(&right), &plan, true, &mut pairs)
                    .unwrap();
                assert_eq!(pairs, vec![(0, 2), (2, 1)], "block {b}: (1, 0) dropped");
            }
            let stats = guarded.stats();
            assert_eq!(stats.verify_violations, 1);
            assert_eq!(stats.quarantined_rows, 1);
            assert_eq!(stats.contract_breaches, 0);
        }
    }

    /// The blocks `[2] × [3]` under bucket ids `(b, b)`, `b` in `0..256`:
    /// how many the guard failed with a prepare-contract breach.
    fn prepare_breaches(bad: Bad, check_sample: u64) -> usize {
        let mut config = GuardConfig::default();
        config.limits.check_sample = check_sample;
        (0..256)
            .filter(|&b| {
                let (pairs, result, stats) = guarded_block(
                    bad,
                    config.clone(),
                    (b, b),
                    &longs(&[2]),
                    &longs(&[3]),
                    Path::Block,
                );
                match result {
                    Ok(()) => false,
                    Err(err) => {
                        let (phase, detail) = phase_of(err);
                        assert_eq!(phase, "verify");
                        assert!(
                            detail.contains("prepare changed verify's answer"),
                            "{detail}"
                        );
                        assert_eq!(pairs, vec![]);
                        assert_eq!(stats.contract_breaches, 1);
                        true
                    }
                }
            })
            .count()
    }

    #[test]
    fn wrong_prepare_is_caught_by_the_raw_replay_probe() {
        // 2 / 2 == 3 / 2 but 2 != 3. The probe samples 1 in 8·check_sample
        // prepared pairs, seeded by the site (which the bucket ids are part of).
        let caught = prepare_breaches(Bad::LossyPrepare, 1);
        assert!((16..=48).contains(&caught), "1 in 8 of 256, got {caught}");
        let caught = prepare_breaches(Bad::LossyPrepare, 16);
        assert!((1..=8).contains(&caught), "1 in 128 of 256, got {caught}");
        assert_eq!(prepare_breaches(Bad::LossyPrepare, 0), 0, "probes off");
        assert_eq!(prepare_breaches(Bad::Prepare, 1), 0, "a correct prepare");
    }

    #[test]
    fn fallback_equality_degrades_to_the_plain_join() {
        for bad in [Bad::PanicAssign, Bad::OutOfRange, Bad::HangAssign] {
            let (pairs, stats) =
                run(bad, GuardConfig::with_policy(UdfPolicy::FallbackEquality)).unwrap();
            assert_eq!(pairs, equality_pairs(true), "full, correct result");
            assert_eq!(stats.fallback_activations, 1);
            assert!(stats.total_violations() >= 1);
        }
    }

    #[test]
    fn violation_sites_count_once_across_retries() {
        let wild = Wild::new(Bad::PanicSummarize);
        let guarded = GuardedJoin::new(&wild, GuardConfig::with_policy(UdfPolicy::Quarantine));
        let mut s = guarded.new_summary(Side::Left);
        // The same misbehaving row re-executed (fault recovery) must not
        // inflate the counters.
        for _ in 0..3 {
            (&guarded as &dyn JoinAlgorithm)
                .local_aggregate(Side::Left, &ExtValue::Long(POISON), &mut s)
                .unwrap();
        }
        let stats = guarded.stats();
        assert_eq!(stats.summarize_violations, 1);
        assert_eq!(stats.quarantined_rows, 1);
    }

    /// A merge that drops contributions depending on grouping: concatenates
    /// but truncates to `max(len) + 1`, so association changes the size.
    struct LossyMerge;

    impl JoinAlgorithm for LossyMerge {}

    impl Join<ExtValue> for LossyMerge {
        fn name(&self) -> &str {
            "lossy_merge"
        }
        fn new_summary(&self, _side: Side) -> SummaryState {
            SummaryState::new(Vec::<i64>::new())
        }
        fn summarize_block(
            &self,
            _side: Side,
            keys: &[&ExtValue],
            summary: &mut SummaryState,
        ) -> Result<()> {
            let summary = summary.downcast_mut::<Vec<i64>>().unwrap();
            for key in keys {
                summary.push(key.as_long()?);
            }
            Ok(())
        }
        fn global_aggregate(
            &self,
            _side: Side,
            a: SummaryState,
            b: SummaryState,
        ) -> Result<SummaryState> {
            let x = a.downcast_ref::<Vec<i64>>().unwrap();
            let y = b.downcast_ref::<Vec<i64>>().unwrap();
            let cap = x.len().max(y.len()) + 1;
            let mut merged = x.clone();
            merged.extend_from_slice(y);
            merged.truncate(cap);
            Ok(SummaryState::new(merged))
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
            Ok(PPlanState::new(1u64))
        }
        fn assign_block(
            &self,
            _side: Side,
            keys: &[&ExtValue],
            _pplan: &PPlanState,
            out: &mut Vec<BucketId>,
            offsets: &mut Vec<usize>,
        ) -> Result<()> {
            for _ in keys {
                out.push(0);
                offsets.push(out.len());
            }
            Ok(())
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
                |_, _| Ok(true),
                |i, j| out.push((i, j)),
            )
        }
    }

    #[test]
    fn non_associative_merge_is_caught_by_the_triple_probe() {
        let guarded = GuardedJoin::new(Box::new(LossyMerge), GuardConfig::default());
        let s = |n: usize| SummaryState::new(vec![0i64; n]);
        // Two merges feed the sampler three summaries of distinct sizes; the
        // probe then compares (a⊕b)⊕c against a⊕(b⊕c).
        let err = guarded
            .global_aggregate(Side::Left, s(1), s(2))
            .and_then(|m| guarded.global_aggregate(Side::Left, m, s(8)))
            .unwrap_err();
        let (phase, detail) = phase_of(err);
        assert_eq!(phase, "merge");
        assert!(detail.contains("associatively"), "{detail}");
        assert_eq!(guarded.stats().contract_breaches, 1);
    }

    #[test]
    fn policy_parse_and_display_round_trip() {
        for p in [
            UdfPolicy::FailFast,
            UdfPolicy::Quarantine,
            UdfPolicy::FallbackEquality,
        ] {
            assert_eq!(UdfPolicy::parse(&p.to_string()), Some(p));
        }
        assert_eq!(UdfPolicy::parse("fail-fast"), Some(UdfPolicy::FailFast));
        assert_eq!(
            UdfPolicy::parse("FALLBACK_EQUALITY"),
            Some(UdfPolicy::FallbackEquality)
        );
        assert_eq!(UdfPolicy::parse("lenient"), None);
    }

    #[test]
    fn stats_merge_accumulates_fieldwise() {
        let mut a = UdfStats {
            assign_violations: 1,
            quarantined_rows: 2,
            ..UdfStats::default()
        };
        let b = UdfStats {
            assign_violations: 3,
            caught_panics: 1,
            ..UdfStats::default()
        };
        a.merge(&b);
        assert_eq!(a.assign_violations, 4);
        assert_eq!(a.quarantined_rows, 2);
        assert_eq!(a.caught_panics, 1);
        assert_eq!(a.total_violations(), 4);
        assert!(a.any());
        assert!(!UdfStats::default().any());
    }
}
