//! Query execution metrics.
//!
//! Exchanges report shuffled/broadcast rows and bytes; the FUDJ join
//! operator reports phase timings and verify/dedup counters. A
//! [`QueryMetrics`] is a cheap cloneable handle shared by every operator of
//! one query execution.

use crate::control::{DispatchGate, QueryControl};
use crate::fault::{FaultContext, FaultStats};
use crate::mode::ExecMode;
use crate::recovery::{RecoveryContext, RecoveryStats};
use fudj_core::{FaultConfig, UdfStats};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A simulated network: exchanges charge wall-clock time for the bytes they
/// move, per receiving worker, on that worker's thread — modelling one NIC
/// per node. Without a model (the default), moving bytes costs only their
/// serialization CPU, which understates the paper's cluster-scale effects
/// (e.g. the price of duplicate elimination's extra shuffle).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetworkModel {
    /// Link bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
    /// Fixed per-transfer latency (charged once per non-empty receive).
    pub latency: Duration,
}

impl NetworkModel {
    /// 1 GbE with 100 µs latency — a typical cluster interconnect.
    pub fn gigabit() -> Self {
        NetworkModel {
            bandwidth_bytes_per_sec: 125_000_000,
            latency: Duration::from_micros(100),
        }
    }

    /// 100 Mb Ethernet with 200 µs latency — the paper's era of shared
    /// cluster links, useful to magnify shuffle costs in experiments.
    pub fn fast_ethernet() -> Self {
        NetworkModel {
            bandwidth_bytes_per_sec: 12_500_000,
            latency: Duration::from_micros(200),
        }
    }

    /// Transfer time of `bytes` bytes over this link.
    pub fn transfer_time(&self, bytes: u64) -> Duration {
        if bytes == 0 {
            return Duration::ZERO;
        }
        self.latency + Duration::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec as f64)
    }
}

/// Per-worker activity counters. Worker identity is stable for the
/// lifetime of a [`crate::Cluster`] (one persistent pool thread per
/// worker), so these accumulate across all phases of all queries run
/// against one metrics handle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Rows this worker received from exchanges (shuffle destinations,
    /// broadcast receivers, the gather coordinator).
    pub rows: u64,
    /// Serialized bytes this worker received from exchanges.
    pub bytes: u64,
    /// Wall-clock time this worker spent executing tasks.
    pub busy: Duration,
}

/// Load-balance summary for one named phase: how the busiest worker
/// compares to the average (paper Fig. 10 territory — skew is what
/// DIVIDE's balancing objectives exist to fight).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseSkew {
    /// Phase name (e.g. `partition`, `join`).
    pub phase: String,
    /// Busy time of the most-loaded worker.
    pub max: Duration,
    /// Mean busy time across workers that participated.
    pub mean: Duration,
    /// Number of workers that did any work in this phase.
    pub workers: usize,
}

impl PhaseSkew {
    /// `max / mean` — 1.0 is perfectly balanced; higher means one
    /// straggler dominates the phase's wall-clock time.
    pub fn ratio(&self) -> f64 {
        if self.mean.is_zero() {
            1.0
        } else {
            self.max.as_secs_f64() / self.mean.as_secs_f64()
        }
    }
}

fudj_types::counters! {
    /// Serving-tier counters: plan/result cache effectiveness and admission
    /// outcomes, accumulated per tier (one tier outlives many queries, like
    /// the durable store behind [`fudj_storage::DurabilityStats`]). All zero
    /// unless the query went through `fudj-serve`, which stamps its counters
    /// into each response snapshot.
    pub struct ServingStats("serving.") {
        /// Statements the tier admitted and ran (or answered from cache).
        admissions: sum,
        /// Statements rejected by scheduler admission control.
        rejections: sum,
        /// Statements that reused a cached physical plan (no bind/plan).
        plan_cache_hits: sum,
        /// Statements that had to bind + plan.
        plan_cache_misses: sum,
        /// Plans evicted by the plan cache's LRU bound.
        plan_cache_evictions: sum,
        /// Statements answered from the result cache (no execution).
        result_cache_hits: sum,
        /// Statements that had to execute (no usable cached result).
        result_cache_misses: sum,
        /// Cached results discarded because a table/DDL epoch moved on.
        result_cache_invalidations: sum,
        /// Results evicted by the result cache's LRU bound.
        result_cache_evictions: sum,
        /// Deepest scheduler queue observed while the tier submitted work.
        queue_depth_high_water: max,
    }
}

fudj_types::counters! {
    /// The engine's own per-query counters: exchange volume, join work and
    /// the hybrid-hash spill path. [`MetricsSnapshot`] derefs to this group,
    /// so they read as `snapshot.rows_shuffled`. A spilling COMBINE task
    /// accumulates its `spill_*` counters in a private `EngineStats` and
    /// `merge`s it into the query totals when it succeeds.
    pub struct EngineStats("") {
        /// Rows that crossed worker boundaries in hash/random shuffles.
        rows_shuffled: sum,
        /// Serialized bytes of those rows.
        bytes_shuffled: sum,
        /// Row deliveries performed by broadcasts (rows × receivers).
        rows_broadcast: sum,
        /// Serialized bytes delivered by broadcasts.
        bytes_broadcast: sum,
        /// Bytes of join state (summaries, PPlans) moved between workers.
        state_bytes: sum,
        /// `verify` invocations in join operators.
        verify_calls: sum,
        /// Output pairs dropped by duplicate handling.
        dedup_rejections: sum,
        /// Rows spilled to temporary files by memory-budgeted joins
        /// (eviction + streamed arrivals).
        spilled_rows: sum,
        /// Bytes written to spill files.
        spilled_bytes: sum,
        /// Sub-partitions the hybrid-hash COMBINE kept memory-resident.
        spill_resident_partitions: sum,
        /// Sub-partitions the hybrid-hash COMBINE streamed to disk.
        spill_spilled_partitions: sum,
        /// Partitioning passes run by spilling joins (1 per spill plus 1 per
        /// recursive repartitioning of an over-budget sub-partition).
        spill_passes: sum,
        /// Deepest recursive repartitioning level reached (0 = first pass).
        spill_recursion_depth: max,
        /// Sub-partitions joined by the block-nested-loop fallback (recursion
        /// depth cap hit, or a single hot bucket that rehashing cannot split).
        spill_bnl_fallbacks: sum,
        /// Largest row working set a spilling COMBINE task ever held resident
        /// (slot memory plus unflushed write buffers, or one readback / block
        /// pair downstream); bounded by the budget plus one write batch.
        spill_peak_resident_rows: max,
    }
}

/// Point-in-time copy of the counters.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// The engine's own counters (exchange volume, join work, spill).
    pub engine: EngineStats,
    /// Named phase durations, in completion order (phases repeat per join).
    pub phases: Vec<(String, Duration)>,
    /// Per-worker counters, indexed by worker id. Grows on demand to the
    /// highest worker that reported activity.
    pub per_worker: Vec<WorkerStats>,
    /// Per-phase, per-worker busy time: one entry per phase name (in
    /// first-completion order), each holding a worker-indexed vector.
    /// Repeated phases with the same name accumulate into one entry.
    pub phase_worker_busy: Vec<(String, Vec<Duration>)>,
    /// Injected-fault and recovery counters (all zero unless the query ran
    /// with an armed [`crate::fault::FaultContext`]).
    pub fault: FaultStats,
    /// UDF guardrail counters (all zero unless a guarded join caught a
    /// misbehaving callback).
    pub udf: UdfStats,
    /// Checkpoint/recovery counters (all zero unless the query ran with a
    /// [`crate::recovery::RecoveryContext`] attached).
    pub recovery: RecoveryStats,
    /// Durability counters (all zero unless the session has a durable
    /// store open — stamped by the session after execution, since the WAL
    /// lives at session scope, not query scope).
    pub durability: fudj_storage::DurabilityStats,
    /// Serving-tier counters (all zero unless the statement went through
    /// `fudj-serve`, which stamps its tier-scoped counters into each
    /// response snapshot — like durability, serving outlives one query).
    pub serving: ServingStats,
    /// Simulated milliseconds of query execution: the control-plane clock
    /// when a [`QueryControl`] was attached (every pool batch advances
    /// it), else the fault layer's backoff/straggler clock.
    pub sim_clock_ms: u64,
    /// Evaluation strategy the query ran under. Display-only: it is
    /// deliberately *not* part of [`CounterFingerprint`], because the whole
    /// point of the columnar differential oracle is that both modes produce
    /// identical logical counters.
    pub exec_mode: ExecMode,
}

impl std::ops::Deref for MetricsSnapshot {
    type Target = EngineStats;

    fn deref(&self) -> &EngineStats {
        &self.engine
    }
}

impl std::ops::DerefMut for MetricsSnapshot {
    fn deref_mut(&mut self) -> &mut EngineStats {
        &mut self.engine
    }
}

impl MetricsSnapshot {
    /// Total duration of all phases with the given name.
    pub fn phase_total(&self, name: &str) -> Duration {
        self.phases
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, d)| *d)
            .sum()
    }

    /// Total bytes that touched the simulated network.
    pub fn network_bytes(&self) -> u64 {
        self.bytes_shuffled + self.bytes_broadcast + self.state_bytes
    }

    /// Phase names in completion order (durations dropped).
    pub fn phase_names(&self) -> Vec<String> {
        self.phases.iter().map(|(n, _)| n.clone()).collect()
    }

    /// The deterministic-counter fingerprint of this snapshot — see
    /// [`CounterFingerprint`].
    pub fn fingerprint(&self) -> CounterFingerprint {
        CounterFingerprint {
            engine: self.engine,
            fault: self.fault,
            udf: self.udf,
            recovery: self.recovery,
            durability: self.durability,
            serving: self.serving,
            phases: self.phase_names(),
        }
    }

    /// Per-phase max/mean worker busy time, in first-completion order.
    /// Only workers with non-zero busy time in a phase count toward the
    /// mean — a phase that fanned out to 2 of 8 workers reports 2.
    pub fn skew_report(&self) -> Vec<PhaseSkew> {
        self.phase_worker_busy
            .iter()
            .map(|(phase, busy)| {
                let active: Vec<Duration> = busy.iter().copied().filter(|d| !d.is_zero()).collect();
                let workers = active.len();
                let max = active.iter().copied().max().unwrap_or(Duration::ZERO);
                let total: Duration = active.iter().sum();
                let mean = if workers == 0 {
                    Duration::ZERO
                } else {
                    total / workers as u32
                };
                PhaseSkew {
                    phase: phase.clone(),
                    max,
                    mean,
                    workers,
                }
            })
            .collect()
    }
}

/// The deterministic subset of a [`MetricsSnapshot`]: every counter group
/// — each must be bit-identical between a serial and a concurrent
/// (scheduled) execution of the same query — plus the phase-name sequence.
/// Wall-clock durations, per-worker busy splits, the control-plane clock
/// and the exec mode are deliberately excluded — they legitimately vary
/// with machine load, interleaving and evaluation strategy. This is what
/// the differential suites compare.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterFingerprint {
    /// The engine's own counters.
    pub engine: EngineStats,
    /// Injected-fault and recovery counters.
    pub fault: FaultStats,
    /// UDF guardrail counters.
    pub udf: UdfStats,
    /// Checkpoint/recovery counters.
    pub recovery: RecoveryStats,
    /// Durability counters (WAL/snapshot/recovery work plus injected
    /// storage faults). Zero-by-default, so suites that never arm
    /// durability keep their fingerprints unchanged.
    pub durability: fudj_storage::DurabilityStats,
    /// Serving-tier counters. Zero-by-default like durability; note they
    /// are *tier*-scoped, so differentials comparing a cached tier against
    /// a cache-off oracle zero this field before comparing.
    pub serving: ServingStats,
    /// Phase names in completion order (durations excluded).
    pub phases: Vec<String>,
}

/// Engine counters read flat on the fingerprint too, as on the snapshot.
impl std::ops::Deref for CounterFingerprint {
    type Target = EngineStats;

    fn deref(&self) -> &EngineStats {
        &self.engine
    }
}

impl CounterFingerprint {
    /// Every counter of every group as `(name, value)`: engine counters
    /// bare, the rest prefixed with their group (`fault.`, `udf.`,
    /// `recovery.`, `durability.`, `serving.`).
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        let mut all = self.engine.fields().to_vec();
        all.extend(self.fault.fields());
        all.extend(self.udf.fields());
        all.extend(self.recovery.fields());
        all.extend(self.durability.fields());
        all.extend(self.serving.fields());
        all
    }
}

/// Flatten a snapshot's logical counters into `(name, value)` pairs —
/// the payload of a journaled `StageCommitted` record: the engine group
/// then the recovery group. Fault, UDF, durability, and serving counters
/// are deliberately excluded — the first two are zero under the
/// storage-only crash fault plan, the last two are stamped at
/// session/tier scope after execution and normalized by the restart
/// differential.
pub fn flatten_counters(snap: &MetricsSnapshot) -> Vec<(String, u64)> {
    let (engine, recovery) = (snap.engine.fields(), snap.recovery.fields());
    let fields = engine.iter().chain(&recovery);
    fields.map(|&(name, v)| (name.to_owned(), v)).collect()
}

/// Apply a resume's counter seed to a snapshot: the journaled values of
/// the skipped upstream work fold into this run's counters (by each
/// counter's declared kind: sums for volume counters, `max` for the
/// high-water marks), and the skipped phases are prepended with zero
/// durations so the phase-name sequence — part of the fingerprint —
/// matches an uninterrupted run. Unknown names are ignored (journals
/// written by a newer build replay cleanly).
pub fn apply_seed(snap: &mut MetricsSnapshot, seed: &crate::recovery::CounterSeed) {
    for (name, v) in &seed.counters {
        let _known = snap.engine.fold(name, *v) || snap.recovery.fold(name, *v);
    }
    let mut phases: Vec<(String, Duration)> = seed
        .phases
        .iter()
        .map(|n| (n.clone(), Duration::ZERO))
        .collect();
    phases.append(&mut snap.phases);
    snap.phases = phases;
}

/// Mutable metrics state behind the lock: the public snapshot plus the
/// stack of currently-open phases (used to attribute worker busy time).
#[derive(Default)]
struct MetricsState {
    snap: MetricsSnapshot,
    phase_stack: Vec<String>,
}

/// Shared, thread-safe metrics handle.
#[derive(Clone, Default)]
pub struct QueryMetrics {
    inner: Arc<Mutex<MetricsState>>,
    network: Option<NetworkModel>,
    fault: Option<Arc<FaultContext>>,
    recovery: Option<Arc<RecoveryContext>>,
    control: Option<Arc<QueryControl>>,
    gate: Option<Arc<dyn DispatchGate>>,
    exec_mode: ExecMode,
}

impl QueryMetrics {
    /// Fresh, zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Metrics whose exchanges charge time against a network model.
    pub fn with_network(network: Option<NetworkModel>) -> Self {
        Self::with_config(network, None)
    }

    /// Metrics armed with an optional network model and an optional
    /// deterministic fault plan. A `faults` of `None` (or a quiet config)
    /// makes this identical to [`Self::with_network`].
    pub fn with_config(network: Option<NetworkModel>, faults: Option<FaultConfig>) -> Self {
        QueryMetrics {
            inner: Arc::default(),
            network,
            fault: faults
                .filter(FaultConfig::is_active)
                .map(|c| Arc::new(FaultContext::new(c))),
            recovery: None,
            control: None,
            gate: None,
            exec_mode: ExecMode::default(),
        }
    }

    /// Stamp the evaluation strategy this query runs under. Set once by
    /// the cluster before execution starts; it only labels snapshots.
    pub fn set_exec_mode(&mut self, mode: ExecMode) {
        self.exec_mode = mode;
    }

    /// The evaluation strategy operators should use for vectorizable work.
    pub fn exec_mode(&self) -> ExecMode {
        self.exec_mode
    }

    /// Attach a per-query recovery context (checkpointing, worker-death
    /// survival, membership-aware routing). Attached by the cluster when
    /// its recovery layer has anything to do; plain execution leaves it
    /// unset and behaves exactly as before.
    pub fn attach_recovery(&mut self, recovery: Arc<RecoveryContext>) {
        self.recovery = Some(recovery);
    }

    /// The attached recovery context, if any. The worker pool consults it
    /// for partition routing and failure attribution; stage boundaries
    /// consult it for checkpointing and death injection.
    pub fn recovery(&self) -> Option<&Arc<RecoveryContext>> {
        self.recovery.as_ref()
    }

    /// Attach a scheduler control plane: a per-query cancel/deadline
    /// token and an optional dispatch gate the pool must pass through
    /// before every batch. Used by the query scheduler; the plain
    /// blocking path leaves both unset.
    pub fn attach_control(
        &mut self,
        control: Arc<QueryControl>,
        gate: Option<Arc<dyn DispatchGate>>,
    ) {
        self.control = Some(control);
        self.gate = gate;
    }

    /// The attached cancel/deadline token, if any.
    pub fn control(&self) -> Option<&Arc<QueryControl>> {
        self.control.as_ref()
    }

    /// The attached dispatch gate, if any.
    pub fn gate(&self) -> Option<&Arc<dyn DispatchGate>> {
        self.gate.as_ref()
    }

    /// The active network model, if any.
    pub fn network(&self) -> Option<NetworkModel> {
        self.network
    }

    /// The armed fault context, if any. The worker pool and the exchange
    /// operators consult this at every dispatch.
    pub fn fault(&self) -> Option<&Arc<FaultContext>> {
        self.fault.as_ref()
    }

    /// Charge the simulated network for one worker's receive of `bytes`
    /// bytes: blocks the calling (worker) thread for the transfer time.
    pub fn charge_network(&self, bytes: u64) {
        if let Some(model) = self.network {
            let t = model.transfer_time(bytes);
            if !t.is_zero() {
                std::thread::sleep(t);
            }
        }
    }

    /// Record a shuffle of `rows` rows totalling `bytes` serialized bytes.
    pub fn record_shuffle(&self, rows: u64, bytes: u64) {
        let mut m = self.inner.lock();
        m.snap.engine.rows_shuffled += rows;
        m.snap.engine.bytes_shuffled += bytes;
    }

    /// Record a broadcast delivering `rows` row-copies / `bytes` bytes.
    pub fn record_broadcast(&self, rows: u64, bytes: u64) {
        let mut m = self.inner.lock();
        m.snap.engine.rows_broadcast += rows;
        m.snap.engine.bytes_broadcast += bytes;
    }

    /// Record movement of join state (summary/PPlan) bytes.
    pub fn record_state_bytes(&self, bytes: u64) {
        self.inner.lock().snap.engine.state_bytes += bytes;
    }

    /// Count `n` verify calls.
    pub fn record_verify_calls(&self, n: u64) {
        self.inner.lock().snap.engine.verify_calls += n;
    }

    /// Count `n` pairs dropped by dedup.
    pub fn record_dedup_rejections(&self, n: u64) {
        self.inner.lock().snap.engine.dedup_rejections += n;
    }

    /// Fold one hybrid-hash spill run's counters into the query totals.
    /// Called once per spilling COMBINE task, after it succeeds — volume
    /// and partition counters accumulate, depth and peak-working-set are
    /// high-water marks across tasks.
    pub fn record_spill_run(&self, stats: &EngineStats) {
        self.inner.lock().snap.engine.merge(stats);
    }

    /// Fold one guarded join's guardrail counters into the query totals.
    /// Called by the FUDJ join operator when a guarded join finishes (or
    /// aborts) — once per join, with that guard's final snapshot.
    pub fn record_udf(&self, stats: &UdfStats) {
        self.inner.lock().snap.udf.merge(stats);
    }

    /// Time a phase and record it under `name`. While `f` runs, worker
    /// busy time reported via [`Self::charge_worker_busy`] is attributed
    /// to this phase (innermost phase wins when nested).
    pub fn phase<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        self.inner.lock().phase_stack.push(name.to_owned());
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed();
        let mut m = self.inner.lock();
        m.phase_stack.pop();
        m.snap.phases.push((name.to_owned(), elapsed));
        out
    }

    /// Attribute `busy` wall-clock task time to `worker`, both in the
    /// lifetime per-worker totals and under the currently-open phase (if
    /// any). Called by the worker pool after each task completes.
    pub fn charge_worker_busy(&self, worker: usize, busy: Duration) {
        let mut m = self.inner.lock();
        if m.snap.per_worker.len() <= worker {
            m.snap.per_worker.resize(worker + 1, WorkerStats::default());
        }
        m.snap.per_worker[worker].busy += busy;
        if let Some(phase) = m.phase_stack.last().cloned() {
            let idx = match m
                .snap
                .phase_worker_busy
                .iter()
                .position(|(n, _)| *n == phase)
            {
                Some(i) => i,
                None => {
                    m.snap.phase_worker_busy.push((phase, Vec::new()));
                    m.snap.phase_worker_busy.len() - 1
                }
            };
            let entry = &mut m.snap.phase_worker_busy[idx].1;
            if entry.len() <= worker {
                entry.resize(worker + 1, Duration::ZERO);
            }
            entry[worker] += busy;
        }
    }

    /// Record that `worker` received `rows` rows / `bytes` serialized
    /// bytes from an exchange. Called at shuffle/broadcast destinations
    /// and by the gather coordinator.
    pub fn charge_worker_io(&self, worker: usize, rows: u64, bytes: u64) {
        let mut m = self.inner.lock();
        if m.snap.per_worker.len() <= worker {
            m.snap.per_worker.resize(worker + 1, WorkerStats::default());
        }
        m.snap.per_worker[worker].rows += rows;
        m.snap.per_worker[worker].bytes += bytes;
    }

    /// Copy out the counters (fault/recovery counters included).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.inner.lock().snap.clone();
        if let Some(fault) = &self.fault {
            snap.fault = fault.stats();
        }
        if let Some(recovery) = &self.recovery {
            snap.recovery = recovery.stats();
            // A resumed query seeds the counters of the skipped upstream
            // work, so the final fingerprint matches an uninterrupted run.
            if let Some(seed) = recovery.seed() {
                apply_seed(&mut snap, &seed);
            }
        }
        snap.sim_clock_ms = match &self.control {
            Some(ctrl) => ctrl.sim_clock_ms(),
            None => snap.fault.sim_clock_ms,
        };
        snap.exec_mode = self.exec_mode;
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = QueryMetrics::new();
        m.record_shuffle(10, 100);
        m.record_shuffle(5, 50);
        m.record_broadcast(3, 30);
        m.record_state_bytes(7);
        m.record_verify_calls(2);
        m.record_dedup_rejections(1);
        let s = m.snapshot();
        assert_eq!(s.rows_shuffled, 15);
        assert_eq!(s.bytes_shuffled, 150);
        assert_eq!(s.rows_broadcast, 3);
        assert_eq!(s.network_bytes(), 150 + 30 + 7);
        assert_eq!(s.verify_calls, 2);
        assert_eq!(s.dedup_rejections, 1);
    }

    #[test]
    fn phases_record_and_sum() {
        let m = QueryMetrics::new();
        let slept = Duration::from_millis(5);
        let v = m.phase("summarize", || {
            std::thread::sleep(slept);
            42
        });
        assert_eq!(v, 42);
        m.phase("summarize", || std::thread::sleep(slept));
        m.phase("join", || ());
        let s = m.snapshot();
        assert_eq!(s.phases.len(), 3);
        // The two timed "summarize" phases each slept 5 ms, so their sum
        // must measure at least that — a zero reading would mean the
        // timer never ran.
        assert!(
            s.phase_total("summarize") >= slept * 2,
            "expected >= {:?}, got {:?}",
            slept * 2,
            s.phase_total("summarize")
        );
        assert!(s.phase_total("summarize") > s.phase_total("join"));
        assert_eq!(s.phase_total("missing"), Duration::ZERO);
    }

    #[test]
    fn worker_busy_attributed_to_open_phase() {
        let m = QueryMetrics::new();
        m.phase("partition", || {
            m.charge_worker_busy(0, Duration::from_millis(30));
            m.charge_worker_busy(2, Duration::from_millis(10));
        });
        m.phase("join", || {
            m.charge_worker_busy(0, Duration::from_millis(8));
        });
        // Outside any phase: counted in lifetime totals only.
        m.charge_worker_busy(1, Duration::from_millis(4));

        let s = m.snapshot();
        assert_eq!(s.per_worker.len(), 3);
        assert_eq!(s.per_worker[0].busy, Duration::from_millis(38));
        assert_eq!(s.per_worker[1].busy, Duration::from_millis(4));
        assert_eq!(s.per_worker[2].busy, Duration::from_millis(10));

        let skew = s.skew_report();
        assert_eq!(skew.len(), 2);
        assert_eq!(skew[0].phase, "partition");
        assert_eq!(skew[0].workers, 2, "worker 1 was idle in partition");
        assert_eq!(skew[0].max, Duration::from_millis(30));
        assert_eq!(skew[0].mean, Duration::from_millis(20));
        assert!((skew[0].ratio() - 1.5).abs() < 1e-9);
        assert_eq!(skew[1].phase, "join");
        assert_eq!(skew[1].workers, 1);
        assert!((skew[1].ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_phases_accumulate_worker_busy() {
        let m = QueryMetrics::new();
        for _ in 0..2 {
            m.phase("join", || m.charge_worker_busy(1, Duration::from_millis(3)));
        }
        let s = m.snapshot();
        assert_eq!(
            s.phase_worker_busy.len(),
            1,
            "same-named phases share an entry"
        );
        assert_eq!(s.phase_worker_busy[0].1[1], Duration::from_millis(6));
    }

    #[test]
    fn worker_io_counters_accumulate() {
        let m = QueryMetrics::new();
        m.charge_worker_io(1, 10, 130);
        m.charge_worker_io(1, 5, 65);
        m.charge_worker_io(0, 1, 13);
        let s = m.snapshot();
        assert_eq!(
            s.per_worker[1],
            WorkerStats {
                rows: 15,
                bytes: 195,
                busy: Duration::ZERO
            }
        );
        assert_eq!(s.per_worker[0].rows, 1);
    }

    #[test]
    fn network_model_times() {
        let m = NetworkModel::gigabit();
        assert_eq!(m.transfer_time(0), Duration::ZERO);
        // 125 MB at 125 MB/s = 1 s + latency.
        let t = m.transfer_time(125_000_000);
        assert!(t >= Duration::from_secs(1));
        assert!(t < Duration::from_millis(1_001));
    }

    #[test]
    fn charge_network_without_model_is_free() {
        let m = QueryMetrics::new();
        let start = Instant::now();
        m.charge_network(u64::MAX / 2);
        assert!(start.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn clones_share_state() {
        let m = QueryMetrics::new();
        let m2 = m.clone();
        m2.record_shuffle(1, 1);
        assert_eq!(m.snapshot().rows_shuffled, 1);
    }
}
