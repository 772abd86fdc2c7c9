//! Whole-worker death, stage checkpointing, and elastic membership.
//!
//! PR 2's fault layer recovers *tasks*: an injected panic, transient
//! error, or worker loss re-executes one attempt and the worker keeps
//! serving. This module makes the failure of a whole worker — permanent,
//! with its resident partitions gone — a first-class, survivable event:
//!
//! * **Stage checkpointing.** At each exchange-producing stage boundary
//!   of the flexible-join pipeline (post-assign shuffle buckets, match
//!   output, the aggregate shuffle), [`stage_boundary`] snapshots every
//!   partition into the cluster's shared [`CheckpointStore`] (serialized
//!   through the wire protocol, keyed by query/stage/partition, bounded
//!   by a byte budget with FIFO eviction) when `checkpoint_stages = all`
//!   or the query is journaled — a resume needs its frames.
//! * **Lineage-scoped partial recovery.** A deterministic
//!   `WorkerDeath` roll (one per boundary, only when
//!   `worker_death_prob > 0`, so death-free fault schedules stay
//!   bit-identical) kills one active worker. The partitions it held are
//!   genuinely dropped, then restored by decoding their checkpoints —
//!   recovery cost proportional to what was lost. Only when no
//!   checkpoint covers a lost partition does the boundary fall back to a
//!   full-stage replay of the producing computation.
//! * **Elastic membership + health.** [`Membership`] tracks each worker
//!   slot's state (active / dead / quarantined / decommissioned) and
//!   routes partition `p` to its home worker `p % n` while that home is
//!   active, else to a rendezvous-hash pick among the survivors — so
//!   unaffected partitions never move when the active set changes. A
//!   per-worker failure counter feeds a circuit breaker: a worker whose
//!   injected-fault count crosses `worker_quarantine_threshold` is
//!   quarantined from new task grants at the next batch boundary
//!   (membership state only changes on the coordinator thread, between
//!   batches, which is what keeps schedules reproducible).
//!
//! Everything here is observable: [`RecoveryStats`] (checkpoints
//! written/read/evicted, partitions restored vs. recomputed, deaths
//! survived, quarantines) folds into
//! [`crate::MetricsSnapshot`] and the deterministic counter fingerprint.

use crate::executor::PartitionedData;
use crate::metrics::QueryMetrics;
use fudj_storage::{CheckpointStore, PutOutcome};
use fudj_types::{FudjError, Result, Row};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fudj_types::counters! {
    /// Counters for the checkpoint/recovery work of one query. Deterministic
    /// per fault seed, like [`crate::FaultStats`]; all zero unless the query
    /// ran with a [`RecoveryContext`] attached.
    pub struct RecoveryStats("recovery."), cells RecoveryCells {
        /// Stage partitions snapshotted into the checkpoint store.
        checkpoints_written: sum,
        /// Wire-encoded bytes of the snapshotted rows (frame headers and
        /// checksums excluded, so comparable to the shuffle byte meters).
        checkpoint_bytes_written: sum,
        /// Checkpoints decoded to restore lost partitions.
        checkpoints_read: sum,
        /// Checkpoints evicted under byte-budget pressure during this query.
        checkpoints_evicted: sum,
        /// Lost partitions restored from checkpoints (no recomputation).
        partitions_restored: sum,
        /// Partitions recomputed because no checkpoint covered a loss.
        partitions_recomputed: sum,
        /// Stage boundaries that fell back to replaying the whole stage.
        full_stage_replays: sum,
        /// Permanent worker deaths injected and survived.
        deaths_survived: sum,
        /// Workers quarantined by the failure-rate circuit breaker.
        workers_quarantined: sum,
        /// Stage boundaries this query resumed from (durable checkpoints
        /// restored instead of re-executing everything upstream).
        stages_resumed: sum,
        /// Rows restored from durable checkpoints by crash-restart resume.
        resume_rows_restored: sum,
        /// Resumes that fell back to full replay because some partition of
        /// the committed stage had no decodable durable checkpoint.
        resume_full_replays: sum,
    }
}

/// Logical counter values captured at a durably committed stage boundary.
/// When a crashed query resumes past that boundary, the skipped upstream
/// work's counters are seeded from here so the resumed run's final
/// [`crate::CounterFingerprint`] matches an uninterrupted execution.
/// Fault/UDF guardrail counters are deliberately not seeded: resume runs
/// under the storage fault plan (whole-process crashes), not the task
/// fault plan, so both sides of the restart differential see zeros there.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterSeed {
    /// `(counter name, value)` pairs — see
    /// [`crate::metrics::flatten_counters`] for the names.
    pub counters: Vec<(String, u64)>,
    /// Phase names completed before the boundary, in completion order.
    pub phases: Vec<String>,
}

/// Where a resumed query restarts: the last durably committed stage
/// boundary plus the counter seed journaled with it.
#[derive(Clone, Debug)]
pub struct ResumeSpec {
    /// Stage name of the committed boundary (e.g. `join:combine`).
    pub stage: String,
    /// Counters journaled at that boundary.
    pub seed: CounterSeed,
}

/// Sink for durable query-journal records emitted at stage boundaries.
/// Implemented over the session's [`fudj_storage::DurableStore`]; a write
/// failure (including an injected crash) aborts the query so a boundary
/// is never treated as committed without the record on disk.
pub trait QueryJournal: Send + Sync {
    /// Durably record that `stage` of the query named by `fingerprint`
    /// committed, with the logical counters observed at the boundary.
    fn stage_committed(
        &self,
        fingerprint: u64,
        stage: &str,
        counters: &[(String, u64)],
        phases: &[String],
    ) -> Result<()>;
}

/// Identity and crash-tolerance state of one journaled query: its stable
/// statement fingerprint (the checkpoint namespace, so durable frames
/// survive a process restart under the same key), the journal sink, and
/// an optional resume point recovered from the journal.
#[derive(Clone)]
pub struct QueryTag {
    /// Stable statement fingerprint — the durable checkpoint namespace.
    pub fingerprint: u64,
    /// Journal sink for `StageCommitted` records.
    pub journal: Arc<dyn QueryJournal>,
    /// Resume point, when this execution re-runs a crashed query.
    pub resume: Option<ResumeSpec>,
}

impl std::fmt::Debug for QueryTag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryTag")
            .field("fingerprint", &self.fingerprint)
            .field("resume", &self.resume)
            .finish_non_exhaustive()
    }
}

/// Lifecycle state of one worker slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkerState {
    /// Serving tasks.
    Active,
    /// Killed by an injected [`FaultContext::worker_death`]
    /// (permanent; resident partitions were lost).
    ///
    /// [`FaultContext::worker_death`]: crate::fault::FaultContext::worker_death
    Dead,
    /// Removed from task grants by the failure-rate circuit breaker.
    Quarantined,
    /// Administratively removed via [`crate::Cluster::decommission_worker`].
    Decommissioned,
}

/// One row of the `\workers` report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerInfo {
    /// Worker slot id (stable pool-thread identity).
    pub worker: usize,
    /// Current membership state.
    pub state: WorkerState,
    /// Injected task faults attributed to this worker since the cluster
    /// (or its replacement in this slot) started.
    pub failures: u64,
}

struct Slot {
    state: WorkerState,
    failures: u64,
    /// Set by worker threads when `failures` crosses the quarantine
    /// threshold; applied (state change) only on the coordinator thread
    /// at the next batch boundary, so in-flight batches keep a frozen
    /// view of the active set.
    pending_quarantine: bool,
}

/// The active-worker set of one cluster, shared by every query running on
/// it. Membership state (dead / quarantined / decommissioned) only
/// changes between pool batches, on the coordinator thread; worker
/// threads may only bump failure counters.
pub struct Membership {
    slots: Mutex<Vec<Slot>>,
    quarantine_threshold: AtomicU64,
}

impl std::fmt::Debug for Membership {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Membership")
            .field("workers", &self.snapshot())
            .finish()
    }
}

/// SplitMix64-style finalizer used for rendezvous (highest-random-weight)
/// routing — deliberately independent of the fault layer's site mixer.
fn hrw_hash(a: u64, b: u64) -> u64 {
    let mut h = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.rotate_left(31));
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 31)
}

impl Membership {
    /// All `workers` slots active, quarantine disabled.
    pub fn new(workers: usize) -> Self {
        Membership {
            slots: Mutex::new(
                (0..workers)
                    .map(|_| Slot {
                        state: WorkerState::Active,
                        failures: 0,
                        pending_quarantine: false,
                    })
                    .collect(),
            ),
            quarantine_threshold: AtomicU64::new(0),
        }
    }

    /// Total worker slots (active or not) — the pool size.
    pub fn size(&self) -> usize {
        self.slots.lock().len()
    }

    /// Number of active workers.
    pub fn active_count(&self) -> usize {
        self.slots
            .lock()
            .iter()
            .filter(|s| s.state == WorkerState::Active)
            .count()
    }

    /// Whether slot `w` is serving tasks.
    pub fn is_active(&self, w: usize) -> bool {
        self.slots
            .lock()
            .get(w)
            .map(|s| s.state == WorkerState::Active)
            .unwrap_or(false)
    }

    /// Route partition `p` to a worker: its home slot `p % size` while
    /// that slot is active, else the rendezvous-hash (highest-random-
    /// weight) pick among active slots. Unaffected partitions never move
    /// when other slots leave or join.
    pub fn route(&self, p: usize) -> usize {
        let slots = self.slots.lock();
        let n = slots.len();
        let home = p % n;
        if slots[home].state == WorkerState::Active {
            return home;
        }
        slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state == WorkerState::Active)
            .max_by_key(|(w, _)| hrw_hash(p as u64, *w as u64))
            .map(|(w, _)| w)
            .unwrap_or(home)
    }

    /// The next active slot after `w` in ring order (for worker-loss
    /// re-execution). Falls back to `w` itself when no other slot is
    /// active.
    pub fn next_active_after(&self, w: usize) -> usize {
        let slots = self.slots.lock();
        let n = slots.len();
        for d in 1..=n {
            let c = (w + d) % n;
            if slots[c].state == WorkerState::Active {
                return c;
            }
        }
        w
    }

    /// Map a deterministic victim-selector word onto the active set.
    /// Returns `None` when fewer than two workers are active — the last
    /// survivor is never killed.
    pub fn pick_victim(&self, selector: u64) -> Option<usize> {
        let slots = self.slots.lock();
        let actives: Vec<usize> = slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.state == WorkerState::Active)
            .map(|(w, _)| w)
            .collect();
        if actives.len() < 2 {
            return None;
        }
        Some(actives[(selector % actives.len() as u64) as usize])
    }

    /// Mark slot `w` permanently dead. Coordinator-thread only.
    pub fn mark_dead(&self, w: usize) {
        let mut slots = self.slots.lock();
        if let Some(s) = slots.get_mut(w) {
            s.state = WorkerState::Dead;
        }
    }

    /// Administratively remove slot `w` from task grants.
    pub fn decommission(&self, w: usize) -> Result<()> {
        let mut slots = self.slots.lock();
        let active = slots
            .iter()
            .filter(|s| s.state == WorkerState::Active)
            .count();
        match slots.get_mut(w) {
            None => Err(FudjError::Execution(format!(
                "no such worker: {w} (cluster has {} slots)",
                slots.len()
            ))),
            Some(s) if s.state != WorkerState::Active => Err(FudjError::Execution(format!(
                "worker {w} is not active ({:?})",
                s.state
            ))),
            Some(_) if active <= 1 => Err(FudjError::Execution(
                "cannot decommission the last active worker".into(),
            )),
            Some(s) => {
                s.state = WorkerState::Decommissioned;
                Ok(())
            }
        }
    }

    /// Bring a replacement worker into the first inactive slot (a new
    /// node adopting the failed node's identity, pool capacity is the
    /// upper bound). Returns the reactivated slot id.
    pub fn add(&self) -> Result<usize> {
        let mut slots = self.slots.lock();
        let slot = slots
            .iter_mut()
            .enumerate()
            .find(|(_, s)| s.state != WorkerState::Active);
        match slot {
            None => Err(FudjError::Execution(
                "every worker slot is already active".into(),
            )),
            Some((w, s)) => {
                s.state = WorkerState::Active;
                s.failures = 0;
                s.pending_quarantine = false;
                Ok(w)
            }
        }
    }

    /// Attribute one injected task fault to slot `w`. Worker-thread safe:
    /// only counters and the pending-quarantine flag change here; the
    /// state transition happens at the next [`Membership::apply_pending`].
    pub fn record_failure(&self, w: usize) {
        let threshold = self.quarantine_threshold.load(Ordering::Relaxed);
        let mut slots = self.slots.lock();
        if let Some(s) = slots.get_mut(w) {
            s.failures += 1;
            if threshold > 0 && s.failures >= threshold && s.state == WorkerState::Active {
                s.pending_quarantine = true;
            }
        }
    }

    /// Apply pending quarantines (coordinator thread, between batches).
    /// Never quarantines the last active worker. Returns how many workers
    /// were newly quarantined.
    pub fn apply_pending(&self) -> u64 {
        let mut slots = self.slots.lock();
        let mut active = slots
            .iter()
            .filter(|s| s.state == WorkerState::Active)
            .count();
        let mut applied = 0;
        for s in slots.iter_mut() {
            if s.pending_quarantine && s.state == WorkerState::Active && active > 1 {
                s.state = WorkerState::Quarantined;
                s.pending_quarantine = false;
                active -= 1;
                applied += 1;
            }
        }
        applied
    }

    /// Set the failure-count circuit-breaker threshold (0 disables).
    pub fn set_quarantine_threshold(&self, threshold: u64) {
        self.quarantine_threshold
            .store(threshold, Ordering::Relaxed);
    }

    /// The current circuit-breaker threshold (0 = disabled).
    pub fn quarantine_threshold(&self) -> u64 {
        self.quarantine_threshold.load(Ordering::Relaxed)
    }

    /// Point-in-time view of every slot, for `\workers`.
    pub fn snapshot(&self) -> Vec<WorkerInfo> {
        self.slots
            .lock()
            .iter()
            .enumerate()
            .map(|(worker, s)| WorkerInfo {
                worker,
                state: s.state,
                failures: s.failures,
            })
            .collect()
    }
}

/// Cluster-wide recovery state: the shared checkpoint store, whether
/// every query checkpoints, and the worker membership. Clones of a
/// [`crate::Cluster`] share one of these.
pub struct ClusterRecovery {
    store: Arc<CheckpointStore>,
    checkpoint_all: AtomicBool,
    membership: Arc<Membership>,
    query_seq: AtomicU64,
}

impl std::fmt::Debug for ClusterRecovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterRecovery")
            .field("checkpoint_all", &self.checkpoint_all())
            .field("store", &self.store)
            .finish()
    }
}

impl ClusterRecovery {
    /// Fresh state for a cluster of `workers` slots: checkpointing off,
    /// unlimited budget, quarantine disabled.
    pub fn new(workers: usize) -> Self {
        ClusterRecovery {
            store: Arc::new(CheckpointStore::new()),
            checkpoint_all: AtomicBool::new(false),
            membership: Arc::new(Membership::new(workers)),
            query_seq: AtomicU64::new(0),
        }
    }

    /// The shared checkpoint store.
    pub fn store(&self) -> &Arc<CheckpointStore> {
        &self.store
    }

    /// The shared worker membership.
    pub fn membership(&self) -> &Arc<Membership> {
        &self.membership
    }

    /// Checkpoint every stage boundary of every query (`true`), or only
    /// those of journaled queries (`false`, the default).
    pub fn set_checkpoint_all(&self, all: bool) {
        self.checkpoint_all.store(all, Ordering::Relaxed);
    }

    /// Whether every query checkpoints its stage boundaries.
    pub fn checkpoint_all(&self) -> bool {
        self.checkpoint_all.load(Ordering::Relaxed)
    }

    /// Attach a per-query recovery context when there is anything for it
    /// to do: a journaled query (`tag`), checkpointing of every query,
    /// deaths armed, quarantine armed, or any slot not active (routing
    /// must consult membership). Otherwise returns `None` and execution is
    /// bit-identical to a cluster without a recovery layer. A tag's
    /// statement fingerprint replaces the per-cluster sequence number as
    /// the checkpoint namespace — stable across a process restart, which
    /// is what lets a resumed execution find the crashed run's frames.
    pub fn attach(
        self: &Arc<Self>,
        faults: Option<&fudj_core::FaultConfig>,
        tag: Option<&QueryTag>,
    ) -> Option<Arc<RecoveryContext>> {
        let deaths_armed = faults.map(|f| f.worker_death_prob > 0.0).unwrap_or(false);
        let needed = tag.is_some()
            || deaths_armed
            || self.checkpoint_all()
            || self.membership.quarantine_threshold() > 0
            || self.membership.active_count() < self.membership.size();
        if !needed {
            return None;
        }
        let query = match tag {
            Some(t) => t.fingerprint,
            None => self.query_seq.fetch_add(1, Ordering::Relaxed),
        };
        Some(Arc::new(RecoveryContext {
            shared: Arc::clone(self),
            query,
            deaths_armed,
            journal: tag.map(|t| t.journal.clone()),
            resume: Mutex::new(tag.and_then(|t| t.resume.clone())),
            consumed_seed: Mutex::new(None),
            cells: RecoveryCells::default(),
        }))
    }
}

/// One query's handle on the recovery subsystem: the shared store and
/// membership, this query's checkpoint namespace, and its counters.
pub struct RecoveryContext {
    shared: Arc<ClusterRecovery>,
    query: u64,
    deaths_armed: bool,
    /// Journal sink for `StageCommitted` records (journaled queries only).
    journal: Option<Arc<dyn QueryJournal>>,
    /// Pending resume point; taken by the first stage that matches it.
    resume: Mutex<Option<ResumeSpec>>,
    /// Counter seed of a consumed resume, applied at snapshot time.
    consumed_seed: Mutex<Option<CounterSeed>>,
    cells: RecoveryCells,
}

impl std::fmt::Debug for RecoveryContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveryContext")
            .field("query", &self.query)
            .field("deaths_armed", &self.deaths_armed)
            .field("stats", &self.stats())
            .finish()
    }
}

impl RecoveryContext {
    /// This query's checkpoint namespace.
    pub fn query(&self) -> u64 {
        self.query
    }

    /// Whether the armed fault plan can inject worker deaths.
    pub fn deaths_armed(&self) -> bool {
        self.deaths_armed
    }

    /// The cluster's shared membership.
    pub fn membership(&self) -> &Arc<Membership> {
        &self.shared.membership
    }

    /// The cluster's shared checkpoint store.
    pub fn store(&self) -> &Arc<CheckpointStore> {
        &self.shared.store
    }

    /// Whether this query's stage boundaries write checkpoints: every
    /// query's under `checkpoint_stages = all`, and always a journaled
    /// one's, whose resume reads them.
    pub fn checkpoints(&self) -> bool {
        self.journal.is_some() || self.shared.checkpoint_all()
    }

    /// The checkpointed rows of partition `p` of dataset `name` at
    /// `stage`; `None` when no intact frame covers it (never written,
    /// evicted, or quarantined as corrupt) — the loss is then uncovered.
    fn restore(&self, stage: &str, name: &str, p: usize) -> Option<Vec<Row>> {
        self.store().get(self.query, &format!("{stage}/{name}"), p)
    }

    /// Route partition `p` onto the active worker set.
    pub fn route(&self, p: usize) -> usize {
        self.shared.membership.route(p)
    }

    /// Coordinator-side batch hook: apply quarantines that worker threads
    /// flagged since the previous batch.
    pub fn on_batch_start(&self) {
        let applied = self.shared.membership.apply_pending();
        if applied > 0 {
            self.cells.workers_quarantined.add(applied);
        }
    }

    /// Attribute one injected task fault to `worker` for the circuit
    /// breaker.
    pub fn note_task_failure(&self, worker: usize) {
        self.shared.membership.record_failure(worker);
    }

    /// Drop this query's checkpoints (its lineage is complete).
    pub fn finish(&self) {
        self.shared.store.remove_query(self.query);
    }

    /// The journal sink, when this query is journaled.
    pub fn journal(&self) -> Option<&Arc<dyn QueryJournal>> {
        self.journal.as_ref()
    }

    /// The counter seed of a consumed resume, if any — applied by
    /// [`crate::metrics::QueryMetrics::snapshot`] so the skipped upstream
    /// work still shows up in the final counters.
    pub fn seed(&self) -> Option<CounterSeed> {
        self.consumed_seed.lock().clone()
    }

    /// Attempt to resume execution at `stage`: when the pending resume
    /// point names this stage, restore every partition of every named
    /// dataset from the checkpoint store. Returns the restored
    /// datasets (in `datasets` order, `nparts` partitions each) on
    /// success. A non-matching stage leaves the resume point pending for
    /// the site that owns it. A matching stage with any missing or
    /// undecodable partition consumes the resume point, counts a
    /// [`RecoveryStats::resume_full_replays`], and returns `None` — the
    /// caller re-executes from scratch, which is always correct.
    pub fn try_resume(
        &self,
        stage: &str,
        datasets: &[&str],
        nparts: usize,
    ) -> Option<Vec<PartitionedData>> {
        let spec = {
            let mut pending = self.resume.lock();
            match pending.as_ref() {
                Some(spec) if spec.stage == stage => pending.take()?,
                _ => return None,
            }
        };
        let mut restored: Vec<PartitionedData> = Vec::with_capacity(datasets.len());
        let mut rows_restored = 0u64;
        for name in datasets {
            let mut parts: PartitionedData = Vec::with_capacity(nparts);
            for p in 0..nparts {
                // An uncovered partition (budget eviction or torn frames)
                // means the committed boundary is lost: replay fully.
                let Some(rows) = self.restore(stage, name, p) else {
                    self.cells.resume_full_replays.add(1);
                    return None;
                };
                rows_restored += rows.len() as u64;
                parts.push(rows);
            }
            restored.push(parts);
        }
        self.cells.stages_resumed.add(1);
        self.cells
            .checkpoints_read
            .add((datasets.len() * nparts) as u64);
        self.cells.resume_rows_restored.add(rows_restored);
        *self.consumed_seed.lock() = Some(spec.seed);
        Some(restored)
    }

    fn note_put(&self, outcome: PutOutcome) {
        self.cells.checkpoints_written.add(1);
        self.cells.checkpoint_bytes_written.add(outcome.bytes);
        self.cells.checkpoints_evicted.add(outcome.evicted);
    }

    /// Copy out the counters.
    pub fn stats(&self) -> RecoveryStats {
        self.cells.load()
    }
}

/// One exchange-producing stage boundary: checkpoint the stage's
/// partitioned outputs (when [`RecoveryContext::checkpoints`]), then roll
/// for a permanent worker death and recover from it.
///
/// `datasets` is the stage's output — one or more named partitioned
/// row sets (the join's partition stage produces two, `left` and
/// `right`); all share one death roll, because a dying worker loses its
/// resident partitions of *every* dataset at once. `replay` recomputes
/// the whole stage from its (still-live) inputs and is only invoked when
/// a death strikes and some lost partition has no covering checkpoint —
/// the full-stage fallback.
///
/// The death roll claims a fault-context dispatch step **only when
/// deaths are armed**, so the fault schedules of death-free configs are
/// bit-identical to clusters without a recovery layer.
pub fn stage_boundary(
    metrics: &QueryMetrics,
    stage: &str,
    datasets: &mut [(&str, &mut PartitionedData)],
    mut replay: impl FnMut() -> Result<Vec<PartitionedData>>,
) -> Result<()> {
    let Some(rec) = metrics.recovery() else {
        return Ok(());
    };

    // 1. Snapshot this stage's partitions, dataset by dataset. A put can
    // fail (a frame write on the WAL's disk hits an injected crash site);
    // the error propagates so a crashed boundary is never journaled as
    // committed.
    if rec.checkpoints() {
        for (name, parts) in datasets.iter() {
            for (p, rows) in parts.iter().enumerate() {
                let outcome = rec
                    .store()
                    .put(rec.query(), &format!("{stage}/{name}"), p, rows)?;
                rec.note_put(outcome);
            }
        }
        // 1b. Journal the boundary as durably committed — strictly after
        // every frame of the stage is on disk, so a `StageCommitted`
        // record always implies restorable coverage (modulo later budget
        // eviction, which resume detects and survives via full replay).
        if let Some(journal) = rec.journal() {
            let snap = metrics.snapshot();
            journal.stage_committed(
                rec.query(),
                stage,
                &crate::metrics::flatten_counters(&snap),
                &snap.phase_names(),
            )?;
        }
    }

    // 2. Roll for a permanent worker death. The step is claimed only when
    // deaths can actually strike (see doc comment).
    if !rec.deaths_armed() {
        return Ok(());
    }
    let Some(fault) = metrics.fault() else {
        return Ok(());
    };
    let step = fault.next_step();
    let Some(selector) = fault.worker_death(step) else {
        return Ok(());
    };
    let membership = rec.membership();
    let Some(victim) = membership.pick_victim(selector) else {
        return Ok(()); // never kill the last survivor
    };

    // Partitions resident on the victim, under the routing that placed
    // this stage's outputs (victim still active).
    let nparts = datasets.iter().map(|(_, p)| p.len()).max().unwrap_or(0);
    let lost: Vec<usize> = (0..nparts)
        .filter(|&p| membership.route(p) == victim)
        .collect();
    membership.mark_dead(victim);
    rec.cells.deaths_survived.add(1);

    // 3. Genuinely drop the victim's partitions, then restore each from
    // its checkpoint. Any uncovered loss forces the full-stage fallback.
    let mut uncovered = false;
    for (name, parts) in datasets.iter_mut() {
        for &p in &lost {
            if p >= parts.len() {
                continue;
            }
            parts[p] = Vec::new();
            match rec.restore(stage, name, p) {
                Some(rows) => {
                    parts[p] = rows;
                    rec.cells.checkpoints_read.add(1);
                    rec.cells.partitions_restored.add(1);
                }
                None => uncovered = true,
            }
        }
    }
    if uncovered {
        let recomputed = replay()?;
        if recomputed.len() != datasets.len() {
            return Err(FudjError::Execution(format!(
                "stage {stage} replay produced {} datasets, expected {}",
                recomputed.len(),
                datasets.len()
            )));
        }
        let mut total = 0u64;
        for ((_, parts), fresh) in datasets.iter_mut().zip(recomputed) {
            total += fresh.len() as u64;
            **parts = fresh;
        }
        rec.cells.partitions_recomputed.add(total);
        rec.cells.full_stage_replays.add(1);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_identity_while_all_active() {
        let m = Membership::new(4);
        for p in 0..16 {
            assert_eq!(m.route(p), p % 4);
        }
        assert_eq!(m.active_count(), 4);
    }

    #[test]
    fn dead_home_reroutes_only_its_partitions() {
        let m = Membership::new(4);
        let before: Vec<usize> = (0..16).map(|p| m.route(p)).collect();
        m.mark_dead(2);
        for (p, &was) in before.iter().enumerate() {
            let now = m.route(p);
            if p % 4 == 2 {
                assert_ne!(now, 2, "partition {p} must leave the dead worker");
                assert!(m.is_active(now));
            } else {
                assert_eq!(now, was, "unaffected partition {p} must not move");
            }
        }
    }

    #[test]
    fn rerouting_is_stable_per_partition() {
        let m = Membership::new(5);
        m.mark_dead(1);
        let a: Vec<usize> = (0..20).map(|p| m.route(p)).collect();
        let b: Vec<usize> = (0..20).map(|p| m.route(p)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn decommission_guards_last_worker_and_unknown_slots() {
        let m = Membership::new(2);
        m.decommission(0).unwrap();
        let err = m.decommission(1).unwrap_err();
        assert!(err.to_string().contains("last active"), "{err}");
        assert!(m.decommission(7).is_err());
        assert!(m.decommission(0).is_err(), "already decommissioned");
    }

    #[test]
    fn add_reactivates_the_freed_slot() {
        let m = Membership::new(3);
        m.decommission(1).unwrap();
        assert_eq!(m.active_count(), 2);
        assert_eq!(m.add().unwrap(), 1, "replacement adopts the freed slot");
        assert_eq!(m.active_count(), 3);
        let err = m.add().unwrap_err();
        assert!(err.to_string().contains("already active"), "{err}");
    }

    #[test]
    fn victim_pick_spares_the_last_survivor() {
        let m = Membership::new(2);
        assert!(m.pick_victim(12345).is_some());
        m.mark_dead(0);
        assert_eq!(m.pick_victim(12345), None);
    }

    #[test]
    fn quarantine_applies_only_at_batch_boundaries() {
        let m = Membership::new(3);
        m.set_quarantine_threshold(2);
        m.record_failure(1);
        assert!(m.is_active(1), "below threshold");
        m.record_failure(1);
        assert!(m.is_active(1), "pending until the coordinator applies it");
        assert_eq!(m.apply_pending(), 1);
        assert!(!m.is_active(1));
        assert_eq!(
            m.snapshot()[1],
            WorkerInfo {
                worker: 1,
                state: WorkerState::Quarantined,
                failures: 2
            }
        );
        assert_eq!(m.apply_pending(), 0, "idempotent");
    }

    #[test]
    fn quarantine_never_empties_the_cluster() {
        let m = Membership::new(2);
        m.set_quarantine_threshold(1);
        m.record_failure(0);
        m.record_failure(1);
        assert_eq!(m.apply_pending(), 1, "one survivor is spared");
        assert_eq!(m.active_count(), 1);
    }

    #[test]
    fn zero_threshold_disables_the_breaker() {
        let m = Membership::new(2);
        for _ in 0..100 {
            m.record_failure(0);
        }
        assert_eq!(m.apply_pending(), 0);
        assert!(m.is_active(0));
        assert_eq!(m.snapshot()[0].failures, 100);
    }

    #[test]
    fn next_active_skips_inactive_slots() {
        let m = Membership::new(4);
        m.mark_dead(1);
        m.mark_dead(2);
        assert_eq!(m.next_active_after(0), 3);
        assert_eq!(m.next_active_after(3), 0);
    }

    #[test]
    fn attach_is_none_when_nothing_is_armed() {
        let shared = Arc::new(ClusterRecovery::new(3));
        assert!(shared.attach(None, None).is_none());
        assert!(
            shared
                .attach(Some(&fudj_core::FaultConfig::chaos(1)), None)
                .is_none(),
            "chaos without deaths needs no recovery layer"
        );
        assert!(shared
            .attach(Some(&fudj_core::FaultConfig::chaos_with_deaths(1)), None)
            .is_some());
        shared.set_checkpoint_all(true);
        assert!(shared.attach(None, None).is_some());
    }

    #[test]
    fn attach_engages_once_membership_shrinks() {
        let shared = Arc::new(ClusterRecovery::new(3));
        shared.membership().decommission(2).unwrap();
        assert!(
            shared.attach(None, None).is_some(),
            "routing must consult membership after a decommission"
        );
    }
}
