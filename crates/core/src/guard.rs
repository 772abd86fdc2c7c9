//! The UDF guardrail layer (PR 3).
//!
//! FUDJ executes *untrusted user code*: the paper's proxy built-in functions
//! (§IV, Fig. 7) mediate between engine internals and the library's
//! SUMMARIZE / DIVIDE / PARTITION / COMBINE callbacks, but nothing in the
//! paper stops a buggy library from panicking mid-phase, spinning forever in
//! `assign`, emitting bucket ids outside its own partitioning plan, or
//! replicating every key to every bucket. [`GuardedJoin`] is the containment
//! layer: it wraps any [`JoinAlgorithm`] (covering both [`crate::ProxyJoin`]
//! and raw implementations) and is what the executor and the standalone
//! reference runner actually invoke. Every user callback is
//!
//! * **panic-isolated** — `catch_unwind` with the payload preserved in a
//!   structured [`FudjError::UdfViolation`];
//! * **metered** — per-call budgets from [`UdfLimits`]: a wall-clock timeout
//!   on the *simulated* clock (libraries report their cost via
//!   [`consume_udf_time`], so "hangs" are deterministic and test-friendly),
//!   a cap on the serialized PPlan size, a buckets-per-key replication cap,
//!   and a total assign fan-out cap per partition;
//! * **contract-checked** — bucket ids must fall inside the range the
//!   library declares for its plan ([`JoinAlgorithm::declared_buckets`]),
//!   `assign` must be deterministic (spot re-invoked on a seeded sample of
//!   keys), `verify` must be symmetric under the default dedup mode and
//!   answer on a `prepare`d form as it does on the raw key (replayed on a
//!   thinner sample), and summaries must merge associatively (probed on a
//!   sampled triple).
//!
//! COMBINE's two hot loops are guarded a block at a time, not a call at a
//! time. [`JoinAlgorithm::verify_block`] hands the inner algorithm a whole
//! matched bucket pair ([`JoinAlgorithm::verify_forms`]) under one
//! `catch_unwind`, one parked-violation check and one simulated-clock budget
//! check, then runs the sampled probes over the block's answers;
//! [`JoinAlgorithm::matching_buckets`] hands it a partition's whole theta
//! bucket-matching pass under one `catch_unwind`. A block that unwinds,
//! errs, goes over budget in sum, fails a probe, holds a quarantined key or
//! meets a parked violation is discarded and replayed call by call through
//! the per-call code, which attributes, counts and resolves each violation
//! exactly as the single-call entry points do. The budget stays per call: a
//! block within it in sum cannot hold a call over it. A replayed block runs
//! its callbacks twice, which is sound only because the contract makes them
//! pure.
//!
//! Violations route through a configurable [`UdfPolicy`]: fail fast with a
//! phase-tagged diagnostic, quarantine the offending key/row and continue,
//! or — for default-equality match predicates — degrade to the engine's
//! plain hash-equality path. Structural callbacks (`new_summary`,
//! `merge_summaries`, `divide`) always fail fast: there is no single row to
//! quarantine when the plan itself is broken.
//!
//! Guards are zero-cost on well-behaved libraries: a guarded run returns
//! bit-identical results and metrics to an unguarded one, which the test
//! suite pins.

use crate::model::{matching_pairs, verify_pairs, BucketId, DedupMode, JoinAlgorithm, Side};
use crate::state::{PPlanState, SummaryState};
use fudj_types::{ExtValue, FudjError, Result};
use std::cell::Cell;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Simulated UDF clock and per-partition fan-out accounting
// ---------------------------------------------------------------------------

thread_local! {
    /// Simulated milliseconds consumed by user callbacks on this thread.
    static UDF_CLOCK_MS: Cell<u64> = const { Cell::new(0) };
    /// Bucket ids emitted by `assign` since the last partition boundary on
    /// this thread (each partition is processed by exactly one worker).
    static ASSIGN_FANOUT: Cell<u64> = const { Cell::new(0) };
}

/// Report simulated time spent inside a user callback. Libraries (and the
/// adversarial fixtures) call this instead of sleeping, so timeout behavior
/// is deterministic: the guard compares the simulated-clock delta of each
/// callback against [`UdfLimits::call_budget_ms`].
pub fn consume_udf_time(ms: u64) {
    UDF_CLOCK_MS.with(|c| c.set(c.get().saturating_add(ms)));
}

fn udf_clock() -> u64 {
    UDF_CLOCK_MS.with(Cell::get)
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Per-call budgets for guarded user callbacks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UdfLimits {
    /// Simulated-clock budget for one callback invocation, in ms. A callback
    /// that [`consume_udf_time`]s more than this in a single call is a
    /// budget violation ("hang").
    pub call_budget_ms: u64,
    /// Maximum serialized size of the PPlan `divide` returns, in bytes.
    pub max_pplan_bytes: usize,
    /// Maximum bucket ids one `assign` call may emit for one key (the
    /// replication factor cap).
    pub max_buckets_per_key: usize,
    /// Maximum total bucket ids `assign` may emit across one partition.
    pub max_assign_fanout: u64,
    /// Contract checks sample 1-in-N keys/pairs (seeded, deterministic);
    /// 0 disables the determinism / symmetry / associativity probes.
    pub check_sample: u64,
}

impl Default for UdfLimits {
    fn default() -> Self {
        UdfLimits {
            call_budget_ms: 10_000,
            max_pplan_bytes: 16 << 20,
            max_buckets_per_key: 4_096,
            max_assign_fanout: 1 << 24,
            check_sample: 16,
        }
    }
}

/// What the engine does when a guarded callback violates its contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum UdfPolicy {
    /// Abort the query with a phase-tagged [`FudjError::UdfViolation`].
    #[default]
    FailFast,
    /// Drop the offending key/row/pair, count it, and continue. Structural
    /// callbacks (`merge_summaries`, `divide`) still fail fast.
    Quarantine,
    /// For joins whose match predicate is default equality, degrade the
    /// whole join to the engine's plain hash-equality path on the raw keys.
    FallbackEquality,
}

impl UdfPolicy {
    /// Parse a user-facing policy name (`failfast`, `quarantine`,
    /// `fallback`), tolerant of `-`/`_` separators.
    pub fn parse(s: &str) -> Option<UdfPolicy> {
        match s.to_ascii_lowercase().replace(['-', '_'], "").as_str() {
            "failfast" => Some(UdfPolicy::FailFast),
            "quarantine" => Some(UdfPolicy::Quarantine),
            "fallback" | "fallbackequality" => Some(UdfPolicy::FallbackEquality),
            _ => None,
        }
    }
}

impl std::fmt::Display for UdfPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UdfPolicy::FailFast => write!(f, "failfast"),
            UdfPolicy::Quarantine => write!(f, "quarantine"),
            UdfPolicy::FallbackEquality => write!(f, "fallback"),
        }
    }
}

/// Limits + policy: everything one join definition's guard needs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GuardConfig {
    pub limits: UdfLimits,
    pub policy: UdfPolicy,
}

impl GuardConfig {
    /// Default limits under the given policy.
    pub fn with_policy(policy: UdfPolicy) -> Self {
        GuardConfig {
            limits: UdfLimits::default(),
            policy,
        }
    }
}

/// Session-level guard selection, consulted by the planner when lowering a
/// FUDJ node (the `\guard` REPL command sets this).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum GuardMode {
    /// Use each join definition's own [`GuardConfig`] (the default).
    #[default]
    PerJoin,
    /// Override every definition with this config.
    Override(GuardConfig),
    /// Do not wrap at all (reference/unguarded runs).
    Off,
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

fudj_types::counters! {
    /// Guardrail counters for one query. Counts are per distinct violation
    /// *site* (phase + offending key/pair), so fault-recovery re-executions of a
    /// partition cannot double-count the same misbehaving row. One query may
    /// run several guarded joins; their stats `merge` field-wise.
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
        /// Violations that were contract-check failures (range, determinism,
        /// symmetry, associativity).
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
        self.summarize_violations
            + self.merge_violations
            + self.divide_violations
            + self.assign_violations
            + self.match_violations
            + self.verify_violations
            + self.dedup_violations
    }
}

/// Which callback a violation happened in.
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

impl Phase {
    fn as_str(self) -> &'static str {
        match self {
            Phase::Summarize => "summarize",
            Phase::Merge => "merge",
            Phase::Divide => "divide",
            Phase::Assign => "assign",
            Phase::Match => "match",
            Phase::Verify => "verify",
            Phase::Dedup => "dedup",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Panic,
    Budget,
    Contract,
}

#[derive(Default)]
struct UdfCells {
    counts: UdfCounterCells,
    /// Distinct violation sites already counted — makes counters idempotent
    /// across fault-recovery re-executions of the same partition.
    seen: Mutex<HashSet<u64>>,
    /// Deferred violation from a callback that cannot return `Result`
    /// (`matches`); surfaced by the next fallible call or by `check()`.
    pending: Mutex<Option<FudjError>>,
    /// Set once `pending` holds a violation, so the check in front of every
    /// guarded call is a load, not a lock.
    has_pending: AtomicBool,
    /// Sampled summaries for the associativity probe, per side.
    assoc_samples: Mutex<[Vec<SummaryState>; 2]>,
    assoc_checked: [AtomicU64; 2],
}

// ---------------------------------------------------------------------------
// Deterministic hashing (seeded sampling + site identity)
// ---------------------------------------------------------------------------

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn fold(h: u64, w: u64) -> u64 {
    splitmix(h ^ w)
}

/// Cheap structural hash of an external value (no allocation; `f64`s hash
/// by bit pattern). Used both for seeded sampling decisions and to identify
/// violation sites, so it must be deterministic across runs and retries.
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

/// What `verify` is handed for one key of a block.
enum Form {
    /// The key itself: `prepare` returned `None`, or was never called
    /// (single-pair `verify`).
    Raw,
    /// The library's prepared form.
    Prepared(ExtValue),
    /// `prepare` violated on this key under [`UdfPolicy::Quarantine`]: every
    /// pair the key takes part in is dropped from the block.
    Dropped,
}

/// A key with its [`ext_hash`] and its [`Form`]: a block hashes and prepares
/// each key once and every pair it takes part in reuses both. The hash, and
/// with it every violation site and probe decision, is always the raw key's.
struct Hashed<'a> {
    key: &'a ExtValue,
    hash: u64,
    form: Form,
}

impl<'a> Hashed<'a> {
    fn new(key: &'a ExtValue) -> Self {
        Hashed {
            key,
            hash: ext_hash(key),
            form: Form::Raw,
        }
    }

    /// The value `verify` reads.
    fn value(&self) -> &ExtValue {
        match &self.form {
            Form::Prepared(form) => form,
            Form::Raw | Form::Dropped => self.key,
        }
    }

    fn prepared(&self) -> bool {
        matches!(self.form, Form::Prepared(_))
    }

    fn dropped(&self) -> bool {
        matches!(self.form, Form::Dropped)
    }
}

/// What `verify` reads for each key of one side of a block.
fn values<'a>(keys: &'a [Hashed<'_>]) -> Vec<&'a ExtValue> {
    keys.iter().map(Hashed::value).collect()
}

/// Whether two keys have the same external shape — the symmetry probe's
/// precondition: a swapped call between a polygon and a point is no test.
fn same_shape(k1: &Hashed<'_>, k2: &Hashed<'_>) -> bool {
    std::mem::discriminant(k1.key) == std::mem::discriminant(k2.key)
}

/// The site of one candidate pair: both raw keys' hashes and the bucket ids.
fn pair_site(b1: BucketId, k1: &Hashed<'_>, b2: BucketId, k2: &Hashed<'_>) -> u64 {
    fold(fold(fold(k1.hash, k2.hash), b1), b2)
}

/// Render a key for a violation site, truncated so a pathological key cannot
/// blow up the diagnostic.
fn short(v: &ExtValue) -> String {
    let s = v.to_string();
    if s.chars().count() > 48 {
        s.chars().take(47).collect::<String>() + "…"
    } else {
        s
    }
}

// ---------------------------------------------------------------------------
// GuardHandle — the engine-facing side of a guard
// ---------------------------------------------------------------------------

/// Shared handle to one [`GuardedJoin`]'s configuration and counters.
/// Engines obtain it through [`JoinAlgorithm::guard`] to surface stats,
/// flush deferred violations, and drive fallback.
#[derive(Clone)]
pub struct GuardHandle {
    config: GuardConfig,
    cells: Arc<UdfCells>,
}

impl GuardHandle {
    fn new(config: GuardConfig) -> Self {
        GuardHandle {
            config,
            cells: Arc::new(UdfCells::default()),
        }
    }

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

    /// Surface a violation deferred by a callback that cannot return
    /// `Result` (`matches`). Engines call this at the end of each guarded
    /// join so no violation is silently swallowed.
    pub fn check(&self) -> Result<()> {
        match &*self.cells.pending.lock().expect("guard pending lock") {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Reset the per-thread assign fan-out counter. Engines call this at
    /// each partition boundary (each partition runs on one worker thread).
    pub fn begin_partition(&self) {
        ASSIGN_FANOUT.with(|c| c.set(0));
    }

    /// Record that the engine degraded to the hash-equality fallback path.
    pub fn note_fallback(&self) {
        self.cells.counts.fallback_activations.add(1);
    }

    /// Count a violation once per distinct site and resolve it per policy:
    /// `Err(UdfViolation)` to abort, or `Ok(quarantined value)` when the
    /// policy quarantines and the callback is row-scoped.
    #[allow(clippy::too_many_arguments)]
    fn violation<R>(
        &self,
        phase: Phase,
        kind: Kind,
        site_hash: u64,
        site: &str,
        detail: String,
        quarantine: Option<R>,
    ) -> Result<R> {
        let full_site = fold(fold(site_hash, phase as u64 + 100), kind as u64 + 200);
        let is_new = self
            .cells
            .seen
            .lock()
            .expect("guard seen lock")
            .insert(full_site);
        let counts = &self.cells.counts;
        if is_new {
            let by_phase = match phase {
                Phase::Summarize => &counts.summarize_violations,
                Phase::Merge => &counts.merge_violations,
                Phase::Divide => &counts.divide_violations,
                Phase::Assign => &counts.assign_violations,
                Phase::Match => &counts.match_violations,
                Phase::Verify => &counts.verify_violations,
                Phase::Dedup => &counts.dedup_violations,
            };
            by_phase.add(1);
            let by_kind = match kind {
                Kind::Panic => &counts.caught_panics,
                Kind::Budget => &counts.budget_overruns,
                Kind::Contract => &counts.contract_breaches,
            };
            by_kind.add(1);
        }
        let err = FudjError::UdfViolation {
            phase: phase.as_str().to_owned(),
            site: site.to_owned(),
            detail,
        };
        match (self.config.policy, quarantine) {
            (UdfPolicy::Quarantine, Some(neutral)) => {
                if is_new {
                    counts.quarantined_rows.add(1);
                }
                Ok(neutral)
            }
            _ => Err(err),
        }
    }

    /// Store a deferred violation (first one wins) for a callback that has
    /// no `Result` channel.
    fn defer(&self, err: FudjError) {
        let mut slot = self.cells.pending.lock().expect("guard pending lock");
        if slot.is_none() {
            *slot = Some(err);
        }
        // Release, paired with the Acquire load in `pending`: a reader that
        // sees the flag then finds the slot filled.
        self.cells.has_pending.store(true, Ordering::Release);
    }

    /// Whether a deferred violation is parked: a load, not a lock.
    fn parked(&self) -> bool {
        self.cells.has_pending.load(Ordering::Acquire)
    }

    fn pending(&self) -> Option<FudjError> {
        if !self.parked() {
            return None;
        }
        self.cells
            .pending
            .lock()
            .expect("guard pending lock")
            .clone()
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

// ---------------------------------------------------------------------------
// GuardedJoin
// ---------------------------------------------------------------------------

/// The guardrail wrapper. Implements [`JoinAlgorithm`] by forwarding to the
/// wrapped algorithm with every callback panic-isolated, metered, and
/// contract-checked (see the module docs). Generic over the ownership of the
/// inner algorithm: `GuardedJoin<Arc<dyn JoinAlgorithm>>` on the planned
/// path, `GuardedJoin<&dyn JoinAlgorithm>` in the standalone runner.
pub struct GuardedJoin<J: JoinAlgorithm> {
    inner: J,
    handle: GuardHandle,
}

impl<J: JoinAlgorithm> GuardedJoin<J> {
    /// Wrap `inner` under `config`.
    pub fn new(inner: J, config: GuardConfig) -> Self {
        GuardedJoin {
            inner,
            handle: GuardHandle::new(config),
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

    /// Run one fallible callback under the guard: surface any deferred
    /// violation first, then catch panics and meter simulated time.
    fn guarded<R>(
        &self,
        phase: Phase,
        site_hash: u64,
        site: impl Fn() -> String,
        quarantine: impl FnOnce() -> Option<R>,
        f: impl FnOnce() -> Result<R>,
    ) -> Result<R> {
        if let Some(err) = self.handle.pending() {
            return Err(err);
        }
        let t0 = udf_clock();
        let outcome = catch_unwind(AssertUnwindSafe(f));
        let elapsed = udf_clock().saturating_sub(t0);
        match outcome {
            Err(payload) => self.handle.violation(
                phase,
                Kind::Panic,
                site_hash,
                &site(),
                format!("callback panicked: {}", panic_text(payload)),
                quarantine(),
            ),
            Ok(result) => {
                let budget = self.handle.limits().call_budget_ms;
                if elapsed > budget {
                    return self.handle.violation(
                        phase,
                        Kind::Budget,
                        site_hash,
                        &site(),
                        format!(
                            "call consumed {elapsed} ms of simulated time (budget {budget} ms)"
                        ),
                        quarantine(),
                    );
                }
                // Library-level `Result` errors are legitimate and pass
                // through unchanged — only panics and blown budgets are
                // violations.
                result
            }
        }
    }

    /// Whether the seeded 1-in-N sampler selects this site for a contract
    /// probe.
    fn sampled(&self, salt: u64, site_hash: u64) -> bool {
        self.sampled_every(1, salt, site_hash)
    }

    /// [`Self::sampled`] thinned to 1 in `stride`·N, for probes whose replay
    /// costs more than the call they check.
    fn sampled_every(&self, stride: u64, salt: u64, site_hash: u64) -> bool {
        let n = self.handle.limits().check_sample.saturating_mul(stride);
        n > 0 && fold(site_hash, salt).is_multiple_of(n)
    }
}

const SALT_DETERMINISM: u64 = 0xD373;
const SALT_SYMMETRY: u64 = 0x5E77;
const SALT_PREPARE: u64 = 0x9A3E;

/// The prepare probe replays `verify` on the raw keys — the very cost
/// `prepare` exists to avoid (~8 µs on the text join against ~1 µs on token
/// sets) — so it samples 1 in 8·`check_sample` prepared pairs: 1 in 128 at
/// the default, ~780 replays on `fudjbench`'s `text_join` (~2 % of its
/// `query_s`; the symmetry probe's 1 in 16 would be ~18 %).
const PREPARE_PROBE_STRIDE: u64 = 8;

impl<J: JoinAlgorithm> JoinAlgorithm for GuardedJoin<J> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn new_summary(&self, side: Side) -> SummaryState {
        // No `Result` channel and no row to quarantine: defer the violation
        // (always fail-fast) and hand back a placeholder the next fallible
        // call will never get to use.
        match catch_unwind(AssertUnwindSafe(|| self.inner.new_summary(side))) {
            Ok(s) => s,
            Err(payload) => {
                let site = format!("new_summary {side}");
                let err = self
                    .handle
                    .violation::<SummaryState>(
                        Phase::Summarize,
                        Kind::Panic,
                        fold(ext_hash(&ExtValue::Null), side as u64),
                        &site,
                        format!("callback panicked: {}", panic_text(payload)),
                        None,
                    )
                    .expect_err("new_summary violations never quarantine");
                self.handle.defer(err);
                SummaryState::new(0i64)
            }
        }
    }

    fn local_aggregate(
        &self,
        side: Side,
        key: &ExtValue,
        summary: &mut SummaryState,
    ) -> Result<()> {
        let site_hash = fold(ext_hash(key), side as u64);
        self.guarded(
            Phase::Summarize,
            site_hash,
            || format!("{side} key {}", short(key)),
            || Some(()), // quarantine: skip this key's contribution
            || self.inner.local_aggregate(side, key, summary),
        )
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
            let mut samples = self
                .handle
                .cells
                .assoc_samples
                .lock()
                .expect("guard assoc lock");
            let bucket = &mut samples[side as usize];
            if bucket.len() < 3 {
                bucket.push(a.clone());
                if bucket.len() < 3 {
                    bucket.push(b.clone());
                }
            }
        }
        let site_hash = fold(splitmix(0x6E6), side as u64);
        let merged = self.guarded(
            Phase::Merge,
            site_hash,
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
        let size = pplan.serialized_len();
        let cap = self.handle.limits().max_pplan_bytes;
        if size > cap {
            return self.handle.violation(
                Phase::Divide,
                Kind::Budget,
                site_hash,
                "divide",
                format!("PPlan serializes to {size} bytes (cap {cap})"),
                None,
            );
        }
        Ok(pplan)
    }

    fn assign(
        &self,
        side: Side,
        key: &ExtValue,
        pplan: &PPlanState,
        out: &mut Vec<BucketId>,
    ) -> Result<()> {
        let site_hash = fold(ext_hash(key), side as u64 + 10);
        let site = || format!("{side} key {}", short(key));
        let start = out.len();
        let ran = self.guarded(
            Phase::Assign,
            site_hash,
            site,
            || Some(false),
            || self.inner.assign(side, key, pplan, out).map(|()| true),
        )?;
        if !ran {
            // Quarantining a misbehaving row means dropping whatever
            // buckets it managed to emit before the violation.
            out.truncate(start);
            return Ok(());
        }
        let added = out.len() - start;

        // Contract: declared bucket range.
        if let Some(n) = self.inner.declared_buckets(pplan) {
            if let Some(&bad) = out[start..].iter().find(|&&b| b >= n) {
                return self
                    .handle
                    .violation(
                        Phase::Assign,
                        Kind::Contract,
                        site_hash,
                        &site(),
                        format!("bucket id {bad} outside the plan's declared range 0..{n}"),
                        Some(()),
                    )
                    .map(|()| out.truncate(start));
            }
        }

        // Budget: replication factor per key.
        let cap = self.handle.limits().max_buckets_per_key;
        if added > cap {
            return self
                .handle
                .violation(
                    Phase::Assign,
                    Kind::Budget,
                    site_hash,
                    &site(),
                    format!("key replicated to {added} buckets (cap {cap})"),
                    Some(()),
                )
                .map(|()| out.truncate(start));
        }

        // Budget: total fan-out per partition.
        let fanout = ASSIGN_FANOUT.with(|c| {
            let v = c.get().saturating_add(added as u64);
            c.set(v);
            v
        });
        let fanout_cap = self.handle.limits().max_assign_fanout;
        if fanout > fanout_cap {
            return self
                .handle
                .violation(
                    Phase::Assign,
                    Kind::Budget,
                    site_hash,
                    &site(),
                    format!("partition assign fan-out reached {fanout} (cap {fanout_cap})"),
                    Some(()),
                )
                .map(|()| {
                    out.truncate(start);
                    ASSIGN_FANOUT.with(|c| c.set(c.get().saturating_sub(added as u64)));
                });
        }

        // Contract: determinism, spot re-invoked on a seeded sample.
        if self.sampled(SALT_DETERMINISM, site_hash) {
            let mut again = Vec::with_capacity(added);
            let replay = catch_unwind(AssertUnwindSafe(|| {
                self.inner.assign(side, key, pplan, &mut again)
            }));
            let deterministic = matches!(replay, Ok(Ok(()))) && again == out[start..];
            if !deterministic {
                return self
                    .handle
                    .violation(
                        Phase::Assign,
                        Kind::Contract,
                        site_hash,
                        &site(),
                        format!(
                            "assign is not deterministic: first call gave {:?}, replay gave {:?}",
                            &out[start..],
                            again
                        ),
                        Some(()),
                    )
                    .map(|()| out.truncate(start));
            }
        }
        Ok(())
    }

    fn matches(&self, b1: BucketId, b2: BucketId) -> bool {
        match catch_unwind(AssertUnwindSafe(|| self.inner.matches(b1, b2))) {
            Ok(v) => v,
            Err(payload) => {
                let site = format!("bucket pair ({b1}, {b2})");
                let site_hash = fold(fold(splitmix(0x3A7), b1), b2);
                match self.handle.violation(
                    Phase::Match,
                    Kind::Panic,
                    site_hash,
                    &site,
                    format!("callback panicked: {}", panic_text(payload)),
                    Some(false), // quarantine: the bucket pair simply no-matches
                ) {
                    Ok(v) => v,
                    Err(err) => {
                        // No `Result` channel here: defer and no-match.
                        self.handle.defer(err);
                        false
                    }
                }
            }
        }
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
        // The inner algorithm's whole loop under one `catch_unwind`. On an
        // unwind its partial output is discarded and the loop replayed call
        // by call through the guarded `matches`, which finds the site and
        // defers or quarantines it as it always has.
        let start = out.len();
        let whole = catch_unwind(AssertUnwindSafe(|| {
            self.inner.matching_buckets(left, right, out)
        }));
        if whole.is_err() {
            out.truncate(start);
            matching_pairs(left, right, |b1, b2| self.matches(b1, b2), out);
        }
    }

    fn verify(
        &self,
        b1: BucketId,
        k1: &ExtValue,
        b2: BucketId,
        k2: &ExtValue,
        pplan: &PPlanState,
    ) -> Result<bool> {
        self.verify_pair(b1, &Hashed::new(k1), b2, &Hashed::new(k2), pplan)
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
        // The per-key work is per block: the key hashes and one guarded
        // `prepare` each. The pairs go to the inner algorithm as one block;
        // only a block that misbehaves is replayed pair by pair through
        // `verify_pair`, which finds, counts and resolves each violation
        // exactly as the single-pair `verify` does.
        if left.is_empty() || right.is_empty() {
            return Ok(());
        }
        let left = self.prepare_side(Side::Left, left, pplan)?;
        let right = self.prepare_side(Side::Right, right, pplan)?;
        match self.optimistic_block(b1, &left, b2, &right, pplan) {
            Some(accepted) => {
                for (i, j) in accepted {
                    emit(i, j);
                }
                Ok(())
            }
            None => self.replay_block(b1, &left, b2, &right, pplan, emit),
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
        let site_hash = fold(fold(fold(ext_hash(k1), ext_hash(k2)), b1 + 7), b2 + 7);
        self.guarded(
            Phase::Dedup,
            site_hash,
            || format!("pair ({}, {})", short(k1), short(k2)),
            || Some(false), // quarantine: suppress the emission
            || self.inner.dedup(b1, k1, b2, k2, pplan),
        )
    }

    fn declared_buckets(&self, pplan: &PPlanState) -> Option<BucketId> {
        self.inner.declared_buckets(pplan)
    }

    fn guard(&self) -> Option<&GuardHandle> {
        Some(&self.handle)
    }
}

impl<J: JoinAlgorithm> GuardedJoin<J> {
    /// One guarded `prepare` call: the key hashed, and its form for the
    /// block. The site is the raw key's, like `assign`'s; a violation counts
    /// under `Phase::Verify` — `prepare` is the first half of `verify` — and
    /// under `Quarantine` marks the key [`Form::Dropped`], once per distinct
    /// key however many blocks it recurs in.
    fn prepare_key<'a>(
        &self,
        side: Side,
        key: &'a ExtValue,
        pplan: &PPlanState,
    ) -> Result<Hashed<'a>> {
        let hash = ext_hash(key);
        let form = self.guarded(
            Phase::Verify,
            fold(hash, side as u64 + 20),
            || format!("{side} key {}", short(key)),
            || Some(Form::Dropped),
            || {
                let form = self.inner.prepare(side, key, pplan)?;
                Ok(form.map_or(Form::Raw, Form::Prepared))
            },
        )?;
        Ok(Hashed { key, hash, form })
    }

    /// [`Self::prepare_key`] on every key of one side of a block.
    fn prepare_side<'a>(
        &self,
        side: Side,
        keys: &'a [ExtValue],
        pplan: &PPlanState,
    ) -> Result<Vec<Hashed<'a>>> {
        keys.iter()
            .map(|key| self.prepare_key(side, key, pplan))
            .collect()
    }

    /// The happy path of [`JoinAlgorithm::verify_block`]: the whole block
    /// through the inner algorithm's `verify_forms` under one
    /// `catch_unwind`, one parked-violation check and one simulated-clock
    /// budget check, then [`Self::probe_pair`] on every pair a probe can
    /// apply to. `None` — replay the block pair by pair — on a parked
    /// violation, a dropped key, an unwind, a library `Err`, a block over
    /// `call_budget_ms` or a probe that disagrees: every case in which some
    /// pair of the per-pair path could fail or violate. The budget stays per
    /// call, since a block within it cannot hold a call over it.
    fn optimistic_block(
        &self,
        b1: BucketId,
        left: &[Hashed<'_>],
        b2: BucketId,
        right: &[Hashed<'_>],
        pplan: &PPlanState,
    ) -> Option<Vec<(usize, usize)>> {
        if self.handle.parked() || left.iter().chain(right).any(Hashed::dropped) {
            return None;
        }
        let (left_forms, right_forms) = (values(left), values(right));
        let mut accepted = Vec::new();
        let t0 = udf_clock();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            self.inner
                .verify_forms(b1, &left_forms, b2, &right_forms, pplan, &mut accepted)
        }));
        let elapsed = udf_clock().saturating_sub(t0);
        if !matches!(outcome, Ok(Ok(()))) || elapsed > self.handle.limits().call_budget_ms {
            return None;
        }

        // The probes sample rejected pairs as well as accepted ones, as the
        // per-pair path does. Site hashes are computed only where a probe
        // can apply: a block under neither avoidance nor `prepare` (the
        // interval join's) skips the loop.
        let symmetry = self.symmetry_probed();
        let prepared = left.iter().chain(right).any(Hashed::prepared);
        if self.handle.limits().check_sample == 0 || !(symmetry || prepared) {
            return Some(accepted);
        }
        let mut answers = accepted.iter().copied().peekable();
        for (i, k1) in left.iter().enumerate() {
            for (j, k2) in right.iter().enumerate() {
                let answer = answers.next_if_eq(&(i, j)).is_some();
                let probed = (symmetry && same_shape(k1, k2)) || k1.prepared() || k2.prepared();
                if probed && self.probe_pair(b1, k1, b2, k2, pplan, answer).is_some() {
                    return None;
                }
            }
        }
        Some(accepted)
    }

    /// A block pair by pair, each pair through [`Self::verify_pair`]: the
    /// path of a block [`Self::optimistic_block`] gave up on.
    fn replay_block(
        &self,
        b1: BucketId,
        left: &[Hashed<'_>],
        b2: BucketId,
        right: &[Hashed<'_>],
        pplan: &PPlanState,
        emit: &mut dyn FnMut(usize, usize),
    ) -> Result<()> {
        verify_pairs(
            left.len(),
            right.len(),
            |i, j| self.verify_pair(b1, &left[i], b2, &right[j], pplan),
            emit,
        )
    }

    /// One guarded `verify` call on keys whose hashes and forms are already
    /// known.
    fn verify_pair(
        &self,
        b1: BucketId,
        k1: &Hashed<'_>,
        b2: BucketId,
        k2: &Hashed<'_>,
        pplan: &PPlanState,
    ) -> Result<bool> {
        if k1.dropped() || k2.dropped() {
            return Ok(false);
        }
        let site_hash = pair_site(b1, k1, b2, k2);
        let (v1, v2) = (k1.value(), k2.value());
        let site = || format!("pair ({}, {})", short(k1.key), short(k2.key));
        let accepted = self.guarded(
            Phase::Verify,
            site_hash,
            site,
            || Some(false), // quarantine: drop the pair
            || self.inner.verify(b1, v1, b2, v2, pplan),
        )?;
        match self.probe_pair(b1, k1, b2, k2, pplan, accepted) {
            None => Ok(accepted),
            Some(detail) => self.handle.violation(
                Phase::Verify,
                Kind::Contract,
                site_hash,
                &site(),
                detail,
                Some(false),
            ),
        }
    }

    /// Whether the join is one the symmetry probe checks: symmetric, under
    /// the default dedup mode.
    fn symmetry_probed(&self) -> bool {
        self.inner.symmetric() && self.inner.dedup_mode() == DedupMode::Avoidance
    }

    /// The sampled contract probes on one verified pair, `accepted` being
    /// `verify`'s answer on it: the detail of the first probe that
    /// disagrees, or `None`. The block path and the per-pair path both ask
    /// this, so their sampling decisions cannot drift apart.
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
        // Contract: symmetry under the default dedup mode. Only meaningful
        // when the join is symmetric and the two keys have the same external
        // shape (mixed-shape joins like polygon × point are exempt). The
        // swapped call reads the same forms the pair's own call read.
        if self.sampled(SALT_SYMMETRY, site_hash) && self.symmetry_probed() && same_shape(k1, k2) {
            let swapped = catch_unwind(AssertUnwindSafe(|| {
                self.inner.verify(b2, k2.value(), b1, k1.value(), pplan)
            }));
            if !matches!(swapped, Ok(Ok(v)) if v == accepted) {
                return Some(format!(
                    "verify is not symmetric: verify(k1, k2) = {accepted}, \
                     swapped call did not agree"
                ));
            }
        }

        // Contract: `prepare` must not change `verify`'s answer. Replayed on
        // the raw keys, for pairs in which a prepared form took part.
        if (k1.prepared() || k2.prepared())
            && self.sampled_every(PREPARE_PROBE_STRIDE, SALT_PREPARE, site_hash)
        {
            let raw = catch_unwind(AssertUnwindSafe(|| {
                self.inner.verify(b1, k1.key, b2, k2.key, pplan)
            }));
            if !matches!(raw, Ok(Ok(v)) if v == accepted) {
                return Some(format!(
                    "prepare changed verify's answer: {accepted} on the prepared \
                     forms, the raw keys did not agree"
                ));
            }
        }
        None
    }

    /// Probe merge associativity once per side, as soon as three summaries
    /// have been sampled: `(a ⊕ b) ⊕ c` and `a ⊕ (b ⊕ c)` must agree. The
    /// states are opaque, so agreement is compared on the serialized size —
    /// an order-independent proxy that still catches merges that drop or
    /// duplicate contributions.
    fn associativity_probe(&self, side: Side) -> Result<()> {
        let idx = side as usize;
        let cells = &self.handle.cells;
        let ready = {
            let samples = cells.assoc_samples.lock().expect("guard assoc lock");
            samples[idx].len() >= 3
        };
        if !ready || cells.assoc_checked[idx].swap(1, Ordering::Relaxed) == 1 {
            return Ok(());
        }
        let (s0, s1, s2) = {
            let samples = cells.assoc_samples.lock().expect("guard assoc lock");
            (
                samples[idx][0].clone(),
                samples[idx][1].clone(),
                samples[idx][2].clone(),
            )
        };
        let merge = |a: SummaryState, b: SummaryState| -> Option<SummaryState> {
            catch_unwind(AssertUnwindSafe(|| self.inner.global_aggregate(side, a, b)))
                .ok()
                .and_then(|r| r.ok())
        };
        let left_assoc = merge(s0.clone(), s1.clone()).and_then(|ab| merge(ab, s2.clone()));
        let right_assoc = merge(s1, s2).and_then(|bc| merge(s0, bc));
        if let (Some(l), Some(r)) = (left_assoc, right_assoc) {
            if l.serialized_len() != r.serialized_len() {
                return self.handle.violation(
                    Phase::Merge,
                    Kind::Contract,
                    fold(splitmix(0xA550C), side as u64),
                    &format!("merge_summaries {side}"),
                    format!(
                        "summaries do not merge associatively: (a⊕b)⊕c serializes to {} \
                         bytes, a⊕(b⊕c) to {}",
                        l.serialized_len(),
                        r.serialized_len()
                    ),
                    None,
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        fn name(&self) -> &str {
            "wild"
        }

        fn new_summary(&self, _side: Side) -> SummaryState {
            SummaryState::new(0i64)
        }

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

        fn uses_default_match(&self) -> bool {
            self.bad != Bad::PanicMatches
        }

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

        fn dedup_mode(&self) -> DedupMode {
            // Single-assign: dedup is unnecessary, except that the symmetry
            // probe only arms under the default avoidance mode.
            if self.bad == Bad::AsymVerify {
                DedupMode::Avoidance
            } else {
                DedupMode::None
            }
        }

        fn declared_buckets(&self, pplan: &PPlanState) -> Option<BucketId> {
            pplan.downcast_ref::<u64>().copied()
        }
    }

    fn longs(xs: &[i64]) -> Vec<ExtValue> {
        xs.iter().map(|&x| ExtValue::Long(x)).collect()
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
        let guarded = GuardedJoin::new(Wild::new(bad), config);
        let plan = PPlanState::new(4u64);
        let mut pairs = Vec::new();
        let mut emit = |i, j| pairs.push((i, j));
        let result = match path {
            Path::Block => guarded.verify_block(b1, left, b2, right, &plan, &mut emit),
            Path::Replay if left.is_empty() || right.is_empty() => Ok(()),
            Path::Replay => (|| {
                let left = guarded.prepare_side(Side::Left, left, &plan)?;
                let right = guarded.prepare_side(Side::Right, right, &plan)?;
                guarded.replay_block(b1, &left, b2, &right, &plan, &mut emit)
            })(),
            Path::Single => (|| {
                for (i, k1) in left.iter().enumerate() {
                    for (j, k2) in right.iter().enumerate() {
                        if guarded.verify(b1, k1, b2, k2, &plan)? {
                            emit(i, j);
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
            let guarded = GuardedJoin::new(Wild::new(Bad::SlowVerify), GuardConfig::default());
            let plan = PPlanState::new(4u64);
            let mut pairs = Vec::new();
            guarded
                .verify_block(1, &longs(left), 1, &longs(right), &plan, &mut |i, j| {
                    pairs.push((i, j))
                })
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
                    Wild::new(Bad::PanicMatches),
                    GuardConfig::with_policy(policy),
                );
                let (left, right) = ([0, 1, 2, 3], [3, 1, 0]);
                let mut matched = Vec::new();
                if whole {
                    guarded.matching_buckets(&left, &right, &mut matched);
                } else {
                    for b1 in left {
                        for b2 in right {
                            if guarded.matches(b1, b2) {
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
        let guarded = GuardedJoin::new(Wild::new(Bad::None), GuardConfig::default());
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
                Wild::new(bad),
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
                    .verify_block(b, &left, b, &right, &plan, &mut |i, j| pairs.push((i, j)))
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
            guarded
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

    impl JoinAlgorithm for LossyMerge {
        fn name(&self) -> &str {
            "lossy_merge"
        }
        fn new_summary(&self, _side: Side) -> SummaryState {
            SummaryState::new(Vec::<i64>::new())
        }
        fn local_aggregate(
            &self,
            _side: Side,
            key: &ExtValue,
            summary: &mut SummaryState,
        ) -> Result<()> {
            summary
                .downcast_mut::<Vec<i64>>()
                .unwrap()
                .push(key.as_long()?);
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
        fn assign(
            &self,
            _side: Side,
            _key: &ExtValue,
            _pplan: &PPlanState,
            out: &mut Vec<BucketId>,
        ) -> Result<()> {
            out.push(0);
            Ok(())
        }
        fn verify(
            &self,
            _b1: BucketId,
            _k1: &ExtValue,
            _b2: BucketId,
            _k2: &ExtValue,
            _pplan: &PPlanState,
        ) -> Result<bool> {
            Ok(true)
        }
    }

    #[test]
    fn non_associative_merge_is_caught_by_the_triple_probe() {
        let guarded = GuardedJoin::new(LossyMerge, GuardConfig::default());
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
