//! The session façade: SQL text in, results out.

use crate::ast::{SelectStatement, Statement};
use crate::binder::bind_select;
use crate::durability::{self, JournalHook, WalHook};
use crate::fingerprint;
use crate::parser::parse;
use fudj_core::{GuardConfig, GuardMode, JoinLibrary, JoinRegistry, UdfPolicy};
use fudj_exec::{
    Cluster, CounterSeed, ExecMode, MetricsSnapshot, NetworkModel, PhysicalPlan, QueryTag,
    ResumeSpec, WorkerInfo,
};
use fudj_planner::PlanOptions;
use fudj_sched::{JobHandle, QuerySpec, Scheduler};
use fudj_storage::wal::WalRecord;
use fudj_storage::CheckpointPolicy;
use fudj_storage::{
    fold_journal, Catalog, Dataset, DiskFs, DurableStore, FaultFs, PendingQuery,
    StorageFaultConfig, Vfs, CHECKPOINT_DIR,
};
use fudj_types::{Batch, FudjError, Result};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Interpret the `WITH (key = value, ...)` options of `CREATE JOIN` into a
/// [`GuardConfig`] plus the join's default spill budget. Unknown keys and
/// malformed values are catalog errors so typos fail the DDL instead of
/// silently running unguarded.
fn join_options(options: &[(String, String)]) -> Result<(GuardConfig, Option<usize>)> {
    let mut config = GuardConfig::default();
    let mut budget = None;
    for (key, value) in options {
        let numeric = |what: &str| {
            value.parse::<u64>().map_err(|_| {
                FudjError::Catalog(format!("join option {key} expects {what}, got {value:?}"))
            })
        };
        match key.as_str() {
            "policy" => {
                config.policy = UdfPolicy::parse(value).ok_or_else(|| {
                    FudjError::Catalog(format!(
                        "unknown UDF policy {value:?} (expected failfast, quarantine, \
                         or fallback)"
                    ))
                })?;
            }
            "budget_ms" | "call_budget_ms" => config.limits.call_budget_ms = numeric("ms")?,
            "max_pplan_bytes" => config.limits.max_pplan_bytes = numeric("bytes")? as usize,
            "max_buckets_per_key" => {
                config.limits.max_buckets_per_key = numeric("a count")? as usize
            }
            "max_assign_fanout" => config.limits.max_assign_fanout = numeric("a count")?,
            "check_sample" => config.limits.check_sample = numeric("a count")?,
            "memory_budget_rows" => {
                let rows = numeric("a row count")? as usize;
                budget = (rows > 0).then_some(rows);
            }
            other => {
                return Err(FudjError::Catalog(format!(
                    "unknown join option {other:?} (expected policy, budget_ms, \
                     max_pplan_bytes, max_buckets_per_key, max_assign_fanout, \
                     check_sample, or memory_budget_rows)"
                )))
            }
        }
    }
    Ok((config, budget))
}

/// Per-session variables set with `SET key = value`; applied to queries
/// planned after the `SET`.
#[derive(Clone, Copy, Debug, Default)]
struct SessionVars {
    /// Fair-share weight for submitted queries (0 = scheduler default).
    priority: u32,
    /// Simulated-clock deadline for submitted queries.
    deadline_ms: Option<u64>,
    /// Per-worker spill budget, overriding planner options and any
    /// per-join default.
    memory_budget_rows: Option<usize>,
    /// Hybrid-hash spill fan-out (sub-partitions per pass).
    spill_fanout: Option<usize>,
    /// Hybrid-hash recursive-repartition depth cap.
    spill_recursion_limit: Option<usize>,
    /// Execution mode (row vs columnar); the executor default applies
    /// when unset.
    exec_mode: Option<ExecMode>,
    /// WAL fsync cadence (`SET durability`): 1 = every record, N = every
    /// N records, 0 = never. Remembered here so it also applies to a
    /// store opened *after* the `SET`.
    durability_sync_every: Option<u64>,
    /// Serving-tier plan-cache capacity (`SET plan_cache_entries`).
    plan_cache_entries: Option<usize>,
    /// Serving-tier result-cache capacity (`SET result_cache_entries`).
    result_cache_entries: Option<usize>,
    /// Serving-tier result cache switch (`SET result_cache = on|off`).
    result_cache_enabled: Option<bool>,
    /// Whether stage checkpoints of journaled queries write through to
    /// the durable store (`SET checkpoint_durable = on|off`). Remembered
    /// here so it also arms a store opened *after* the `SET`.
    checkpoint_durable: bool,
}

/// Every `SET` key, once: `(name, value syntax, one-line doc)`.
/// [`Session::apply_set`] names them when it rejects a key, the REPL's
/// `\help` renders its `SET` block from it, and tests keep `apply_set`'s
/// `match` arms and README's knob rows naming exactly these keys.
#[rustfmt::skip]
pub const SETTINGS: &[(&str, &str, &str)] = &[
    ("max_inflight_queries", "N", "admission: concurrent query cap"),
    ("admission_queue_limit", "N", "bounded FIFO wait queue"),
    ("memory_quota_rows", "N|off", "aggregate spill-budget quota of admitted queries"),
    ("stage_slots", "N", "concurrent pool batches across queries"),
    ("priority", "N", "fair-share weight of this session's \\submit jobs"),
    ("deadline_ms", "N|off", "simulated-clock deadline of \\submit jobs"),
    ("memory_budget_rows", "N|off", "per-worker COMBINE row budget; over it the join spills"),
    ("spill_fanout", "N|off", "sub-partitions per spill partitioning pass"),
    ("spill_recursion_limit", "N|off", "repartitioning depth before block-nested-loop (0 = always)"),
    ("exec_mode", "row|columnar|off", "evaluation strategy (off = engine default, columnar)"),
    ("checkpoint_budget_bytes", "N|off", "checkpoint store budget, FIFO eviction past it"),
    ("checkpoint_stages", "all|off|'stage,stage,...'", "stage boundaries to checkpoint"),
    ("checkpoint_durable", "on|off", "journal queries + durable stage checkpoints; a reopened wal_dir resumes them"),
    ("worker_quarantine_threshold", "N|off", "injected-failure count that quarantines a worker"),
    ("wal_dir", "'<path>'|off", "open a crash-consistent store: replay, then WAL appends and CREATE/DROP JOIN"),
    ("durability", "sync|N|off", "fsync every record / every N / never"),
    ("plan_cache_entries", "N|none", "serving plan-cache LRU bound (0 disables, none = default)"),
    ("result_cache_entries", "N|none", "serving result-cache LRU bound (0 disables, none = default)"),
    ("result_cache", "on|off", "bypass result-cache lookup and insert without clearing it"),
];

/// One `SET` key that shapes the physical plan. A resumed query must be
/// re-planned under the same values, so exactly these keys ride in the
/// `QuerySubmitted` journal record — in this order.
struct PlanKnob {
    name: &'static str,
    /// Lay the session's `SET` value, when set, over the planner option.
    overlay: fn(&SessionVars, &mut PlanOptions),
    /// The option's journal text, when set.
    get: fn(&PlanOptions) -> Option<String>,
    /// Restore the option from its journal text.
    set: fn(&mut PlanOptions, &str),
}

const PLAN_KNOBS: &[PlanKnob] = &[
    PlanKnob {
        name: "exec_mode",
        overlay: |v, o| o.exec_mode = v.exec_mode.or(o.exec_mode),
        get: |o| o.exec_mode.map(|m| m.to_string()),
        set: |o, text| o.exec_mode = ExecMode::parse(text),
    },
    PlanKnob {
        name: "memory_budget_rows",
        overlay: |v, o| o.memory_budget_rows = v.memory_budget_rows.or(o.memory_budget_rows),
        get: |o| o.memory_budget_rows.map(|n| n.to_string()),
        set: |o, text| o.memory_budget_rows = text.parse().ok(),
    },
    PlanKnob {
        name: "spill_fanout",
        overlay: |v, o| o.spill_fanout = v.spill_fanout.or(o.spill_fanout),
        get: |o| o.spill_fanout.map(|n| n.to_string()),
        set: |o, text| o.spill_fanout = text.parse().ok(),
    },
    PlanKnob {
        name: "spill_recursion_limit",
        overlay: |v, o| {
            o.spill_recursion_limit = v.spill_recursion_limit.or(o.spill_recursion_limit)
        },
        get: |o| o.spill_recursion_limit.map(|n| n.to_string()),
        set: |o, text| o.spill_recursion_limit = text.parse().ok(),
    },
];

/// Stages a crashed query can resume from: their checkpoints carry the
/// complete post-boundary input (`join:combine` holds the joined rows
/// before duplicate handling, `agg:shuffle` the shuffled partials before
/// the final merge). Earlier boundaries need in-memory state a restart
/// cannot reconstruct, so they fall back to full replay.
const RESUMABLE_STAGES: &[&str] = &["join:combine", "agg:shuffle"];

/// Outcome of one journal-driven resume performed while reopening a WAL:
/// a query that was submitted but not finished when the process died,
/// re-executed to completion (exactly-once — its `QueryFinished` record
/// is logged before the result is handed over).
#[derive(Debug)]
pub struct ResumedQuery {
    /// Stable statement fingerprint from the journal.
    pub fingerprint: u64,
    /// The journaled SQL text, verbatim.
    pub sql: String,
    /// Stage boundary the re-execution restarted from; `None` means no
    /// resumable boundary had committed (full replay). The executor may
    /// still fall back to full replay when the checkpoints under this
    /// boundary turn out lost or corrupt — `RecoveryStats` counts that.
    pub resumed_from: Option<String>,
    /// The re-executed result (rows + metrics — the snapshot carries the
    /// journal's counter seed, so it equals an uninterrupted run's), or
    /// why the resume failed.
    pub result: Result<(Batch, Box<MetricsSnapshot>)>,
}

/// Largest accepted cache capacity: caches are per-tier in-memory maps,
/// so an absurd `SET` is a knob typo, not a provisioning request.
pub const MAX_CACHE_ENTRIES: usize = 1 << 20;

/// Serving-tier cache configuration, assembled from the session's `SET`
/// variables (engine defaults where unset). Read by `fudj-serve` before
/// each statement so live `SET` changes take effect immediately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServingConfig {
    /// Plan-cache LRU capacity (entries).
    pub plan_cache_entries: usize,
    /// Result-cache LRU capacity (entries).
    pub result_cache_entries: usize,
    /// Whether result caching is enabled at all.
    pub result_cache_enabled: bool,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            plan_cache_entries: 256,
            result_cache_entries: 1024,
            result_cache_enabled: true,
        }
    }
}

/// Result of executing one statement.
#[derive(Debug)]
pub enum QueryOutput {
    /// SELECT result with its execution metrics (boxed: the snapshot is
    /// an order of magnitude larger than the other variants).
    Rows(Batch, Box<MetricsSnapshot>),
    /// DDL acknowledgement.
    Ack(String),
    /// EXPLAIN output.
    Plan(String),
}

impl QueryOutput {
    /// The batch of a `Rows` output.
    ///
    /// # Panics
    /// Panics when the statement did not produce rows.
    pub fn batch(&self) -> &Batch {
        match self {
            QueryOutput::Rows(batch, _) => batch,
            other => panic!("statement produced {other:?}, not rows"),
        }
    }

    /// The metrics of a `Rows` output.
    ///
    /// # Panics
    /// Panics when the statement did not produce rows.
    pub fn metrics(&self) -> &MetricsSnapshot {
        match self {
            QueryOutput::Rows(_, m) => m,
            other => panic!("statement produced {other:?}, not rows"),
        }
    }
}

/// A database session: catalog + join registry + cluster + planner options
/// + the concurrent query scheduler behind `\submit`.
pub struct Session {
    catalog: Catalog,
    registry: JoinRegistry,
    cluster: Cluster,
    options: PlanOptions,
    scheduler: Scheduler,
    /// `SET`-table knobs; a `Mutex` because [`Session::execute`] takes
    /// `&self` (sessions are shared with in-flight jobs).
    vars: Mutex<SessionVars>,
    /// The crash-consistent store behind `SET wal_dir`, when open.
    durable: Mutex<Option<Arc<DurableStore>>>,
    /// Armed storage-fault plan (`\chaos disk`): the *next* `SET wal_dir`
    /// opens its store over a fault-injecting in-memory filesystem.
    disk_faults: Mutex<Option<StorageFaultConfig>>,
    /// The simulated disk behind the last fault-armed `SET wal_dir`, keyed
    /// by dir. Reopening the same dir reuses it — that reopen *is* the
    /// process restart, so the surviving bytes (and the query journal)
    /// must still be there for resume.
    fault_disk: Mutex<Option<(String, Arc<FaultFs>)>>,
    /// Named templates from `PREPARE`, consumed by `EXECUTE`.
    prepared: Mutex<HashMap<String, SelectStatement>>,
    /// Results of journal-driven resumes from the last `SET wal_dir`,
    /// drained by [`Session::take_resumed`].
    resumed: Mutex<Vec<ResumedQuery>>,
}

impl Session {
    /// Session over a fresh catalog/registry and a cluster of `workers`.
    pub fn new(workers: usize) -> Self {
        let cluster = Cluster::new(workers);
        Session {
            catalog: Catalog::new(),
            registry: JoinRegistry::new(),
            scheduler: Scheduler::new(cluster.clone()),
            cluster,
            options: PlanOptions::default(),
            vars: Mutex::new(SessionVars::default()),
            durable: Mutex::new(None),
            disk_faults: Mutex::new(None),
            fault_disk: Mutex::new(None),
            prepared: Mutex::new(HashMap::new()),
            resumed: Mutex::new(Vec::new()),
        }
    }

    /// The catalog (register datasets here).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The join registry.
    pub fn registry(&self) -> &JoinRegistry {
        &self.registry
    }

    /// Register a dataset (convenience over `catalog()`).
    pub fn register_dataset(&self, dataset: Dataset) -> Result<Arc<Dataset>> {
        self.catalog.register(dataset)
    }

    /// Upload a join library (the paper's out-of-band JAR upload; `CREATE
    /// JOIN` statements then reference it by name).
    pub fn install_library(&self, library: JoinLibrary) {
        self.registry.install_library(library);
    }

    /// Planner options (on-top forcing, parameter injection, overrides).
    pub fn options(&self) -> &PlanOptions {
        &self.options
    }

    /// Replace the planner options.
    pub fn set_options(&mut self, options: PlanOptions) {
        self.options = options;
    }

    /// How subsequent queries guard user-defined joins: per-join config
    /// (the default), a session-wide override, or no guarding at all.
    pub fn set_guard(&mut self, guard: GuardMode) {
        self.options.guard = guard;
    }

    /// The active guard mode.
    pub fn guard(&self) -> &GuardMode {
        &self.options.guard
    }

    /// Attach a simulated network: subsequent queries charge wall-clock
    /// time for every byte their exchanges move between workers. The
    /// cluster's worker pool (and thus worker thread identity) is kept.
    pub fn set_network(&mut self, network: Option<NetworkModel>) {
        self.cluster.set_network(network);
        self.scheduler.set_cluster(self.cluster.clone());
    }

    /// Arm (or disarm, with `None`) a seeded fault plan: subsequent
    /// queries run under deterministic fault injection and recovery. The
    /// cluster's worker pool is kept, like [`Session::set_network`].
    pub fn set_faults(&mut self, faults: Option<fudj_exec::FaultConfig>) {
        self.cluster.set_faults(faults);
        self.scheduler.set_cluster(self.cluster.clone());
    }

    /// The armed fault plan, if any.
    pub fn faults(&self) -> Option<fudj_exec::FaultConfig> {
        self.cluster.faults()
    }

    /// The cluster this session executes on (a clone shares the same
    /// worker pool — it is the same simulated cluster).
    pub fn cluster(&self) -> Cluster {
        self.cluster.clone()
    }

    /// The concurrent query scheduler (`\submit` / `\jobs` / `\cancel`).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Per-worker membership state and failure counts (`\workers`).
    pub fn workers_status(&self) -> Vec<WorkerInfo> {
        self.cluster.workers_status()
    }

    /// Permanently remove worker `w` from the routing set. Its partitions
    /// deterministically rendezvous-rehash onto the survivors; removing
    /// the last active worker is an error.
    pub fn decommission_worker(&self, w: usize) -> Result<()> {
        self.cluster.decommission_worker(w)
    }

    /// Re-activate a previously decommissioned/dead/quarantined worker
    /// slot (the replacement node adopts the slot's identity). Errors
    /// when the cluster is already at full strength.
    pub fn add_worker(&self) -> Result<usize> {
        self.cluster.add_worker()
    }

    fn vars(&self) -> SessionVars {
        *self.vars.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The serving-tier cache configuration under the current `SET`
    /// variables (engine defaults where unset).
    pub fn serving_config(&self) -> ServingConfig {
        let vars = self.vars();
        let defaults = ServingConfig::default();
        ServingConfig {
            plan_cache_entries: vars
                .plan_cache_entries
                .unwrap_or(defaults.plan_cache_entries),
            result_cache_entries: vars
                .result_cache_entries
                .unwrap_or(defaults.result_cache_entries),
            result_cache_enabled: vars
                .result_cache_enabled
                .unwrap_or(defaults.result_cache_enabled),
        }
    }

    /// Store a `PREPARE`d SELECT template under `name` (replacing any
    /// previous statement of that name, like PostgreSQL's `DEALLOCATE` +
    /// re-`PREPARE` shorthand).
    pub fn prepare_statement(&self, name: &str, select: SelectStatement) {
        self.prepared
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_owned(), select);
    }

    /// Look up a `PREPARE`d template by name.
    pub fn prepared_statement(&self, name: &str) -> Option<SelectStatement> {
        self.prepared
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }

    /// The open durable store, if `SET wal_dir` is active.
    pub fn durable(&self) -> Option<Arc<DurableStore>> {
        self.durable
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Drain the results of journal-driven resumes performed by the last
    /// `SET wal_dir`: each entry is a query the previous process had
    /// submitted but not finished, now re-executed exactly once.
    pub fn take_resumed(&self) -> Vec<ResumedQuery> {
        std::mem::take(&mut *self.resumed.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Arm (or with `None`, disarm) deterministic storage faults. Takes
    /// effect at the *next* `SET wal_dir`, which then opens its store over
    /// a fault-injecting in-memory filesystem instead of the real disk.
    pub fn set_disk_faults(&self, faults: Option<StorageFaultConfig>) {
        *self.disk_faults.lock().unwrap_or_else(|e| e.into_inner()) = faults;
    }

    /// The armed storage-fault plan, if any.
    pub fn disk_faults(&self) -> Option<StorageFaultConfig> {
        self.disk_faults
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Open (or re-open) a crash-consistent store at `dir`: replay its
    /// committed state into the catalog/registry, then WAL every
    /// subsequent catalog, registry, and append mutation. Equivalent to
    /// `SET wal_dir = <dir>`.
    pub fn open_wal(&self, dir: &str) -> Result<()> {
        let armed = self.disk_faults();
        let vfs: Arc<dyn Vfs> = {
            let mut disk = self.fault_disk.lock().unwrap_or_else(|e| e.into_inner());
            match (disk.as_ref(), armed) {
                // Reopening the dir whose simulated disk we already hold:
                // this reopen *is* the process restart. Keep the surviving
                // bytes, clear the crash poison, disarm the fired crash
                // point — `open_wal_with` then journal-resumes whatever
                // the previous incarnation left unfinished. A freshly
                // armed plan still applies (a resume can crash again).
                (Some((d, fs)), cfg) if d == dir => {
                    let fs = fs.clone();
                    fs.reopen_after_crash();
                    fs.set_config(cfg.unwrap_or_else(|| StorageFaultConfig::quiet(0)));
                    fs
                }
                (_, Some(cfg)) => {
                    let fs = FaultFs::new(cfg);
                    *disk = Some((dir.to_owned(), fs.clone()));
                    fs
                }
                (_, None) => Arc::new(DiskFs::new()),
            }
        };
        // A crash plan is one-shot: it poisons the store this open
        // creates, and the reopen that follows plays the restart — so
        // consume it now rather than crash the resume at the same site.
        if self.disk_faults().is_some_and(|c| c.crash_point.is_some()) {
            self.set_disk_faults(None);
        }
        self.open_wal_with(dir, vfs)
    }

    /// [`Session::open_wal`] over a caller-supplied filesystem — the
    /// crash-restart harness passes the same [`FaultFs`] across simulated
    /// process restarts.
    pub fn open_wal_with(&self, dir: &str, vfs: Arc<dyn Vfs>) -> Result<()> {
        self.close_wal();
        let (store, recovered) = DurableStore::open(dir, vfs)?;
        let store = Arc::new(store);
        if let Some(n) = self.vars().durability_sync_every {
            store.set_sync_every(n);
        }
        // Replay first, attach sinks after: recovered state must not be
        // re-logged.
        durability::replay_into(&recovered, &self.catalog, &self.registry)?;
        durability::seed_existing(&store, &recovered, &self.catalog, &self.registry)?;
        let hook = WalHook::new(store.clone());
        for name in self.catalog.names() {
            if let Ok(dataset) = self.catalog.get(&name) {
                dataset.attach_sink(hook.clone());
            }
        }
        self.catalog.set_sink(Some(hook.clone()));
        self.registry.set_sink(Some(hook));
        *self.durable.lock().unwrap_or_else(|e| e.into_inner()) = Some(store.clone());

        // Crash-restart resumption: fold the recovered query journal into
        // pending queries and re-execute each from its last durably
        // committed stage boundary. The durable checkpoint tier attaches
        // first (resume reads its frames); when only the resume needed it
        // — `checkpoint_durable` is off this session — it detaches again
        // and the checkpoint policy reverts.
        let pending = fold_journal(&recovered.journal);
        let durable_vars = self.vars().checkpoint_durable;
        let prior_policy = self.cluster.checkpoint_policy();
        if durable_vars || !pending.is_empty() {
            self.attach_checkpoint_tier(&store)?;
        }
        if !pending.is_empty() {
            let results: Vec<ResumedQuery> = pending
                .into_iter()
                .map(|query| self.resume_pending(&store, query))
                .collect();
            self.resumed
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(results);
            if !durable_vars {
                self.cluster.checkpoints().detach_durable();
                self.cluster.set_checkpoint_policy(prior_policy);
            }
        }
        Ok(())
    }

    /// Route the cluster's checkpoint store through the durable store's
    /// filesystem (same fault plan covers WAL and checkpoints), enabling
    /// checkpointing when it was off — a durable tier with no boundaries
    /// to persist would be inert.
    fn attach_checkpoint_tier(&self, store: &DurableStore) -> Result<()> {
        let dir = store.dir().join(CHECKPOINT_DIR);
        self.cluster
            .checkpoints()
            .attach_durable(store.vfs(), dir)?;
        if matches!(self.cluster.checkpoint_policy(), CheckpointPolicy::Off) {
            self.cluster.set_checkpoint_policy(CheckpointPolicy::All);
        }
        Ok(())
    }

    /// Re-execute one unfinished journaled query during WAL reopen.
    fn resume_pending(&self, store: &Arc<DurableStore>, query: PendingQuery) -> ResumedQuery {
        let resumed_from = query
            .committed
            .iter()
            .rev()
            .find(|c| RESUMABLE_STAGES.contains(&c.stage.as_str()))
            .map(|c| c.stage.clone());
        let result = self.resume_execute(store, &query);
        ResumedQuery {
            fingerprint: query.fingerprint,
            sql: query.sql,
            resumed_from,
            result,
        }
    }

    /// Plan the journaled SQL under its journaled options and execute it
    /// with a resume spec pointing at the last committed resumable stage
    /// (none committed → full replay). Logs `QueryFinished` *before*
    /// returning the rows: a crash in between re-runs the query on the
    /// next reopen, but a delivered result is never re-delivered.
    fn resume_execute(
        &self,
        store: &Arc<DurableStore>,
        query: &PendingQuery,
    ) -> Result<(Batch, Box<MetricsSnapshot>)> {
        let sel = match parse(&query.sql)? {
            Statement::Select(sel) => sel,
            // In-flight EXECUTEs journal their verbatim text; the serving
            // deployment re-PREPAREs its templates at boot (before `SET
            // wal_dir`), so the name resolves again here.
            Statement::Execute { name, params } => {
                let template = self.prepared_statement(&name).ok_or_else(|| {
                    FudjError::Storage(format!(
                        "journaled EXECUTE references unprepared statement {name:?} \
                         (re-PREPARE it before SET wal_dir)"
                    ))
                })?;
                let values = params
                    .iter()
                    .map(fingerprint::literal_value)
                    .collect::<Result<Vec<_>>>()?;
                fingerprint::substitute_params(&template, &values)?
            }
            other => {
                return Err(FudjError::Storage(format!(
                    "query journal replayed a non-SELECT statement: {other:?}"
                )))
            }
        };
        let options = self.options_from_journal(&query.options);
        let logical = bind_select(&sel, &self.catalog)?;
        let physical = fudj_planner::plan(logical, &self.registry, &options)?;
        let resume = query
            .committed
            .iter()
            .rev()
            .find(|c| RESUMABLE_STAGES.contains(&c.stage.as_str()))
            .map(|c| ResumeSpec {
                stage: c.stage.clone(),
                seed: CounterSeed {
                    counters: c.counters.clone(),
                    phases: c.phases.clone(),
                },
            });
        let tag = QueryTag {
            fingerprint: query.fingerprint,
            journal: Some(JournalHook::new(store.clone())),
            resume,
        };
        let (batch, snapshot) =
            self.execute_physical_tagged(&physical, options.exec_mode, Some(tag))?;
        store.append_journal(
            &WalRecord::QueryFinished {
                fingerprint: query.fingerprint,
            },
            "journal:finish",
        )?;
        Ok((batch, Box::new(snapshot)))
    }

    /// The session knobs a resumed query must be re-planned under,
    /// serialized into the `QuerySubmitted` journal record.
    fn journal_options(&self) -> Vec<(String, String)> {
        let options = self.effective_options();
        PLAN_KNOBS
            .iter()
            .filter_map(|knob| Some((knob.name.to_owned(), (knob.get)(&options)?)))
            .collect()
    }

    /// Invert [`Session::journal_options`]: the session's base planner
    /// options with the journaled knobs re-applied. Unknown keys are
    /// ignored (a newer process replaying an older journal).
    fn options_from_journal(&self, pairs: &[(String, String)]) -> PlanOptions {
        let mut options = self.options.clone();
        for (key, value) in pairs {
            if let Some(knob) = PLAN_KNOBS.iter().find(|knob| knob.name == key) {
                (knob.set)(&mut options, value);
            }
        }
        options
    }

    /// Detach the durable store (`SET wal_dir = off`). Already-logged
    /// state stays on disk; subsequent mutations are in-memory only.
    pub fn close_wal(&self) {
        let mut durable = self.durable.lock().unwrap_or_else(|e| e.into_inner());
        if durable.take().is_some() {
            self.catalog.set_sink(None);
            self.registry.set_sink(None);
            for name in self.catalog.names() {
                if let Ok(dataset) = self.catalog.get(&name) {
                    dataset.detach_sink();
                }
            }
        }
    }

    /// Write an atomic snapshot of the current catalog + registry and
    /// compact the WAL behind it (`\persist` in the REPL).
    pub fn persist(&self) -> Result<()> {
        let store = self.durable().ok_or_else(|| {
            FudjError::Storage("no wal_dir open (SET wal_dir = <path> first)".into())
        })?;
        let state = durability::snapshot_state(&self.catalog, &self.registry)?;
        store.snapshot(&state)
    }

    /// Planner options with the session's `SET` variables merged in.
    pub fn effective_options(&self) -> PlanOptions {
        let vars = self.vars();
        let mut options = self.options.clone();
        for knob in PLAN_KNOBS {
            (knob.overlay)(&vars, &mut options);
        }
        options
    }

    /// Bind and optimize a SELECT under the current `SET` variables —
    /// the parse→bind→plan work the serving tier's plan cache amortizes.
    pub fn plan_select(&self, sel: &SelectStatement) -> Result<PhysicalPlan> {
        let logical = bind_select(sel, &self.catalog)?;
        fudj_planner::plan(logical, &self.registry, &self.effective_options())
    }

    /// Execute an already-planned query on the session's cluster, with
    /// durability counters stamped in (the path `execute` and the serving
    /// tier's cache-miss recompute share).
    pub fn execute_physical(
        &self,
        physical: &PhysicalPlan,
        exec_mode: Option<ExecMode>,
    ) -> Result<(Batch, MetricsSnapshot)> {
        self.execute_physical_tagged(physical, exec_mode, None)
    }

    /// [`Session::execute_physical`] plus a crash-tolerance [`QueryTag`]:
    /// the tag pins the checkpoint namespace to the statement fingerprint,
    /// routes stage commits into the query journal, and — when resuming —
    /// carries the journal's resume point.
    pub fn execute_physical_tagged(
        &self,
        physical: &PhysicalPlan,
        exec_mode: Option<ExecMode>,
        tag: Option<QueryTag>,
    ) -> Result<(Batch, MetricsSnapshot)> {
        let mode = exec_mode.unwrap_or_else(ExecMode::from_env);
        let (batch, metrics) = self
            .cluster
            .execute_with_opts(physical, None, None, mode, tag)?;
        let mut snapshot = metrics.snapshot();
        if let Some(store) = self.durable() {
            // Durability is session-scoped (one WAL outlives many
            // queries), so the session stamps the store's counters
            // into each snapshot rather than the executor.
            snapshot.durability = store.stats();
        }
        Ok((batch, snapshot))
    }

    fn run_select(&self, sel: &SelectStatement) -> Result<QueryOutput> {
        let physical = self.plan_select(sel)?;
        let exec_mode = self.effective_options().exec_mode;
        let (batch, snapshot) = self.execute_physical(&physical, exec_mode)?;
        Ok(QueryOutput::Rows(batch, Box::new(snapshot)))
    }

    /// [`Session::run_select`] with the query journal armed when `SET
    /// checkpoint_durable = on` over an open WAL: `QuerySubmitted` is
    /// logged before execution, stage boundaries journal through the
    /// [`QueryTag`], and `QueryFinished` seals the entry after the
    /// result materializes. A crash anywhere in between leaves a journal
    /// the next `SET wal_dir` resumes from.
    fn run_select_journaled(&self, sel: &SelectStatement, sql: &str) -> Result<QueryOutput> {
        let physical = self.plan_select(sel)?;
        let exec_mode = self.effective_options().exec_mode;
        let Some(tag) = self.journal_submit(sql)? else {
            let (batch, snapshot) = self.execute_physical(&physical, exec_mode)?;
            return Ok(QueryOutput::Rows(batch, Box::new(snapshot)));
        };
        let (batch, snapshot) =
            self.execute_physical_tagged(&physical, exec_mode, Some(tag.clone()))?;
        self.journal_finish(&tag)?;
        Ok(QueryOutput::Rows(batch, Box::new(snapshot)))
    }

    /// When the query journal is armed (`SET checkpoint_durable = on`
    /// over an open WAL), log `QuerySubmitted` for `sql` and return the
    /// [`QueryTag`] its execution must carry; `None` when journaling is
    /// off. The caller seals the entry with [`Session::journal_finish`]
    /// once the result has been delivered — a crash in between leaves a
    /// journal the next `SET wal_dir` resumes from.
    pub fn journal_submit(&self, sql: &str) -> Result<Option<QueryTag>> {
        let store = match self.durable() {
            Some(store) if self.vars().checkpoint_durable => store,
            _ => return Ok(None),
        };
        let fingerprint = fingerprint::statement_fingerprint(sql);
        store.append_journal(
            &WalRecord::QuerySubmitted {
                fingerprint,
                sql: sql.to_owned(),
                options: self.journal_options(),
            },
            "journal:submit",
        )?;
        Ok(Some(QueryTag {
            fingerprint,
            journal: Some(JournalHook::new(store)),
            resume: None,
        }))
    }

    /// Seal a journaled query: its result has been delivered, so the
    /// journal entry and its durable checkpoints are dead on replay.
    pub fn journal_finish(&self, tag: &QueryTag) -> Result<()> {
        if let Some(store) = self.durable() {
            store.append_journal(
                &WalRecord::QueryFinished {
                    fingerprint: tag.fingerprint,
                },
                "journal:finish",
            )?;
        }
        Ok(())
    }

    /// Apply one `SET key = value`. Scheduler knobs take effect for every
    /// session sharing the scheduler; query knobs (priority, deadline,
    /// spill budget) stick to this session's subsequent statements.
    fn apply_set(&self, key: &str, value: &str) -> Result<QueryOutput> {
        let numeric = || {
            value.parse::<u64>().map_err(|_| {
                FudjError::Execution(format!("SET {key} expects a number, got {value:?}"))
            })
        };
        // `0`, `none`, and `off` clear optional knobs.
        let cleared =
            value == "0" || value.eq_ignore_ascii_case("none") || value.eq_ignore_ascii_case("off");
        let optional =
            || -> Result<Option<u64>> { Ok(if cleared { None } else { Some(numeric()?) }) };
        let mut vars = self.vars.lock().unwrap_or_else(|e| e.into_inner());
        match key {
            "max_inflight_queries" => {
                let n = numeric()?.max(1) as usize;
                self.scheduler.reconfigure(|c| c.max_inflight = n);
            }
            "admission_queue_limit" => {
                let n = numeric()? as usize;
                self.scheduler.reconfigure(|c| c.queue_limit = n);
            }
            "memory_quota_rows" => {
                let quota = optional()?;
                self.scheduler.reconfigure(|c| c.memory_quota_rows = quota);
            }
            "stage_slots" => {
                let n = numeric()?.max(1) as usize;
                self.scheduler.reconfigure(|c| c.stage_slots = n);
            }
            "priority" => vars.priority = numeric()? as u32,
            "deadline_ms" => vars.deadline_ms = optional()?,
            "memory_budget_rows" => vars.memory_budget_rows = optional()?.map(|n| n as usize),
            "spill_fanout" => vars.spill_fanout = optional()?.map(|n| n as usize),
            "exec_mode" => {
                vars.exec_mode = if cleared {
                    None
                } else {
                    Some(ExecMode::parse(value).ok_or_else(|| {
                        FudjError::Execution(format!(
                            "SET exec_mode expects row or columnar, got {value:?}"
                        ))
                    })?)
                };
            }
            "spill_recursion_limit" => {
                // 0 is a meaningful cap (never recurse, straight to the
                // block-nested-loop fallback), so only none/off clear it.
                vars.spill_recursion_limit =
                    if value.eq_ignore_ascii_case("none") || value.eq_ignore_ascii_case("off") {
                        None
                    } else {
                        Some(numeric()? as usize)
                    };
            }
            // Recovery knobs live on the shared cluster (its recovery
            // layer is one `Arc` across every clone), so no
            // scheduler re-attach is needed.
            "checkpoint_budget_bytes" => self.cluster.set_checkpoint_budget(optional()?),
            "checkpoint_stages" => {
                let policy = if cleared {
                    CheckpointPolicy::Off
                } else if value.eq_ignore_ascii_case("all") {
                    CheckpointPolicy::All
                } else {
                    CheckpointPolicy::Stages(
                        value
                            .split(',')
                            .map(|s| s.trim().to_owned())
                            .filter(|s| !s.is_empty())
                            .collect(),
                    )
                };
                self.cluster.set_checkpoint_policy(policy);
            }
            "checkpoint_durable" => {
                let on = if value.eq_ignore_ascii_case("on") {
                    true
                } else if value.eq_ignore_ascii_case("off") {
                    false
                } else {
                    return Err(FudjError::Execution(format!(
                        "SET checkpoint_durable expects on or off, got {value:?}"
                    )));
                };
                vars.checkpoint_durable = on;
                drop(vars);
                if on {
                    // Arms immediately when a WAL is already open;
                    // otherwise the next `SET wal_dir` attaches the tier
                    // (the knob is remembered, like durability).
                    if let Some(store) = self.durable() {
                        self.attach_checkpoint_tier(&store)?;
                    }
                } else {
                    self.cluster.checkpoints().detach_durable();
                }
            }
            "worker_quarantine_threshold" => {
                self.cluster
                    .set_quarantine_threshold(optional()?.unwrap_or(0));
            }
            "plan_cache_entries" | "result_cache_entries" => {
                // 0 is a meaningful capacity (cache disabled), so like
                // spill_recursion_limit only none/off restore the default.
                let capped =
                    if value.eq_ignore_ascii_case("none") || value.eq_ignore_ascii_case("off") {
                        None
                    } else {
                        let n = numeric()?;
                        if n as usize > MAX_CACHE_ENTRIES {
                            return Err(FudjError::Execution(format!(
                                "SET {key} expects at most {MAX_CACHE_ENTRIES} entries, got {n}"
                            )));
                        }
                        Some(n as usize)
                    };
                if key == "plan_cache_entries" {
                    vars.plan_cache_entries = capped;
                } else {
                    vars.result_cache_entries = capped;
                }
            }
            "result_cache" => {
                vars.result_cache_enabled = if value.eq_ignore_ascii_case("on") {
                    Some(true)
                } else if value.eq_ignore_ascii_case("off") {
                    Some(false)
                } else {
                    return Err(FudjError::Execution(format!(
                        "SET result_cache expects on or off, got {value:?}"
                    )));
                };
            }
            "wal_dir" => {
                drop(vars);
                if cleared {
                    self.close_wal();
                } else {
                    self.open_wal(value)?;
                }
            }
            "durability" => {
                // sync = fsync every record, N = every N records,
                // off/none = never (the OS decides when bytes land).
                let n = if value.eq_ignore_ascii_case("sync") {
                    1
                } else if cleared {
                    0
                } else {
                    numeric()?
                };
                vars.durability_sync_every = Some(n);
                drop(vars);
                if let Some(store) = self.durable() {
                    store.set_sync_every(n);
                }
            }
            other => {
                let (last, rest) = SETTINGS.split_last().expect("SETTINGS is not empty");
                let rest: Vec<&str> = rest.iter().map(|(name, ..)| *name).collect();
                return Err(FudjError::Execution(format!(
                    "unknown SET variable {other:?} (expected {}, or {})",
                    rest.join(", "),
                    last.0
                )));
            }
        }
        Ok(QueryOutput::Ack(format!("set {key} = {value}")))
    }

    /// Submit a SELECT for asynchronous scheduled execution. The query is
    /// planned now (under the current `SET` variables) and competes with
    /// other in-flight queries under the scheduler's admission and
    /// fair-share policies.
    pub fn submit(&self, sql: &str) -> Result<JobHandle> {
        match parse(sql)? {
            Statement::Select(sel) => {
                let logical = bind_select(&sel, &self.catalog)?;
                let options = self.effective_options();
                let physical = fudj_planner::plan(logical, &self.registry, &options)?;
                let vars = self.vars();
                let label: String = sql.split_whitespace().collect::<Vec<_>>().join(" ");
                let label = if label.chars().count() > 48 {
                    let head: String = label.chars().take(47).collect();
                    format!("{head}…")
                } else {
                    label
                };
                let mut spec = QuerySpec::new(Arc::new(physical), label);
                if vars.priority > 0 {
                    spec = spec.with_priority(vars.priority);
                }
                if let Some(deadline) = vars.deadline_ms {
                    spec = spec.with_deadline_ms(deadline);
                }
                if let Some(budget) = options.memory_budget_rows {
                    spec = spec.with_memory_budget_rows(budget as u64);
                }
                if let Some(mode) = options.exec_mode {
                    spec = spec.with_exec_mode(mode);
                }
                self.scheduler.submit(spec)
            }
            other => Err(FudjError::Execution(format!(
                "only SELECT statements can be submitted, got {other:?}"
            ))),
        }
    }

    /// Parse, plan, and execute one statement.
    pub fn execute(&self, sql: &str) -> Result<QueryOutput> {
        match parse(sql)? {
            Statement::CreateJoin {
                name,
                args,
                class,
                library,
                options,
            } => {
                let (guard, budget) = join_options(&options)?;
                let arg_types = args.into_iter().map(|(_, t)| t).collect();
                self.registry
                    .create_join_full(&name, arg_types, class, library, guard, budget)?;
                Ok(QueryOutput::Ack(format!("created join {name}")))
            }
            Statement::DropJoin { name } => {
                self.registry.drop_join(&name)?;
                Ok(QueryOutput::Ack(format!("dropped join {name}")))
            }
            Statement::Set { key, value } => self.apply_set(&key, &value),
            Statement::Select(sel) => self.run_select_journaled(&sel, sql),
            Statement::Prepare { name, select } => {
                let params = fingerprint::param_count(&select);
                self.prepare_statement(&name, select);
                Ok(QueryOutput::Ack(format!(
                    "prepared {name} ({params} parameter{})",
                    if params == 1 { "" } else { "s" }
                )))
            }
            Statement::Execute { name, params } => {
                let select = self.prepared_statement(&name).ok_or_else(|| {
                    FudjError::Execution(format!(
                        "no prepared statement {name:?} (PREPARE it first)"
                    ))
                })?;
                let values = params
                    .iter()
                    .map(fingerprint::literal_value)
                    .collect::<Result<Vec<_>>>()?;
                let bound = fingerprint::substitute_params(&select, &values)?;
                self.run_select(&bound)
            }
            Statement::Explain { select, analyze } => {
                let logical = bind_select(&select, &self.catalog)?;
                let options = self.effective_options();
                let physical = fudj_planner::plan(logical, &self.registry, &options)?;
                let mut text = physical.explain();
                if analyze {
                    use std::fmt::Write as _;
                    let start = std::time::Instant::now();
                    let (batch, metrics) =
                        self.cluster.execute_mode(&physical, options.exec_mode)?;
                    let elapsed = start.elapsed();
                    let m = metrics.snapshot();
                    let _ = writeln!(text, "---");
                    let _ = writeln!(text, "rows: {}; total: {elapsed:?}", batch.len());
                    for (name, d) in &m.phases {
                        let _ = writeln!(text, "phase {name}: {d:?}");
                    }
                    let _ = writeln!(
                        text,
                        "network: {} bytes shuffled, {} broadcast, {} state; \
                         verify calls: {}; dedup rejections: {}; spilled rows: {}",
                        m.bytes_shuffled,
                        m.bytes_broadcast,
                        m.state_bytes,
                        m.verify_calls,
                        m.dedup_rejections,
                        m.spilled_rows,
                    );
                    if let Some(store) = self.durable() {
                        let d = store.stats();
                        let _ = writeln!(
                            text,
                            "durability: {} wal records ({} bytes), {} fsyncs, \
                             {} snapshots, {} replayed",
                            d.wal_records_appended,
                            d.wal_bytes_appended,
                            d.wal_fsyncs,
                            d.snapshots_written,
                            d.wal_records_replayed,
                        );
                    }
                }
                Ok(QueryOutput::Plan(text))
            }
        }
    }

    /// Execute and return the result batch (convenience for SELECTs).
    pub fn query(&self, sql: &str) -> Result<Batch> {
        match self.execute(sql)? {
            QueryOutput::Rows(batch, _) => Ok(batch),
            other => Err(fudj_types::FudjError::Execution(format!(
                "expected a SELECT, statement produced {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fudj_datagen::{amazon_reviews, nyctaxi, parks, wildfires, GeneratorConfig};
    use fudj_joins::standard_library;
    use fudj_types::Value;

    fn session() -> Session {
        let s = Session::new(3);
        s.install_library(standard_library());
        s.register_dataset(parks(GeneratorConfig::new(120, 1, 3)).unwrap())
            .unwrap();
        s.register_dataset(wildfires(GeneratorConfig::new(300, 2, 3)).unwrap())
            .unwrap();
        s.register_dataset(nyctaxi(GeneratorConfig::new(150, 3, 3)).unwrap())
            .unwrap();
        s.register_dataset(amazon_reviews(GeneratorConfig::new(120, 4, 3)).unwrap())
            .unwrap();
        s
    }

    #[test]
    fn create_and_drop_join_via_sql() {
        let s = session();
        let out = s
            .execute(
                r#"CREATE JOIN st_contains(a: polygon, b: point)
                   RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins;"#,
            )
            .unwrap();
        assert!(matches!(out, QueryOutput::Ack(_)));
        assert!(s.registry().get("st_contains").is_some());
        s.execute("DROP JOIN st_contains(a: polygon, b: point);")
            .unwrap();
        assert!(s.registry().get("st_contains").is_none());
    }

    #[test]
    fn create_join_with_options_configures_the_guard() {
        let s = session();
        s.execute(
            r#"CREATE JOIN st_contains(a: polygon, b: point)
               RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins
               WITH (policy = quarantine, budget_ms = 250, check_sample = 1);"#,
        )
        .unwrap();
        let def = s.registry().get("st_contains").unwrap();
        assert_eq!(def.guard().policy, UdfPolicy::Quarantine);
        assert_eq!(def.guard().limits.call_budget_ms, 250);
        assert_eq!(def.guard().limits.check_sample, 1);
    }

    #[test]
    fn create_join_rejects_unknown_options() {
        let s = session();
        let err = s
            .execute(
                r#"CREATE JOIN j(a: polygon, b: point)
                   RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins
                   WITH (polici = quarantine);"#,
            )
            .unwrap_err();
        assert!(err.to_string().contains("unknown join option"), "{err}");
        assert!(s.registry().get("j").is_none(), "DDL must not half-apply");

        let err = s
            .execute(
                r#"CREATE JOIN j(a: polygon, b: point)
                   RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins
                   WITH (policy = lenient);"#,
            )
            .unwrap_err();
        assert!(err.to_string().contains("unknown UDF policy"), "{err}");
    }

    #[test]
    fn query1_runs_fudj_vs_ontop_same_answer() {
        let s = session();
        s.execute(
            r#"CREATE JOIN st_contains(a: polygon, b: point)
               RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins;"#,
        )
        .unwrap();

        let sql = "SELECT p.id, COUNT(w.id) AS num_fires \
                   FROM Parks p, Wildfires w \
                   WHERE ST_Contains(p.boundary, w.location) \
                     AND w.fire_start >= parse_date('01/01/2022', 'M/D/Y') \
                   GROUP BY p.id ORDER BY num_fires DESC";

        // FUDJ plan.
        let explain = s.execute(&format!("EXPLAIN {sql}")).unwrap();
        let QueryOutput::Plan(text) = explain else {
            panic!()
        };
        assert!(text.contains("FudjJoin"), "{text}");

        let fudj = s.query(sql).unwrap();
        assert!(!fudj.is_empty(), "spatial query produced results");

        // On-top plan (same session data, forced NLJ).
        let mut s2 = session();
        s2.set_options(PlanOptions {
            force_on_top: true,
            ..Default::default()
        });
        let ontop = s2.query(sql).unwrap();

        let mut a = fudj.rows().to_vec();
        let mut b = ontop.rows().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn interval_query5_shape() {
        let s = session();
        s.execute(
            r#"CREATE JOIN overlapping_interval(a: interval, b: interval)
               RETURNS boolean AS "interval.OverlappingIntervalJoin" AT flexiblejoins;"#,
        )
        .unwrap();
        let sql = "SELECT COUNT(*) FROM NYCTaxi n1, NYCTaxi n2 \
                   WHERE n1.Vendor = 1 AND n2.Vendor = 2 \
                     AND overlapping_interval(n1.ride_interval, n2.ride_interval)";
        let QueryOutput::Plan(text) = s.execute(&format!("EXPLAIN {sql}")).unwrap() else {
            panic!()
        };
        assert!(
            text.contains("theta-nlj"),
            "interval join is a multi-join: {text}"
        );

        let batch = s.query(sql).unwrap();
        let fudj_count = batch.rows()[0].get(0).clone();

        let mut s2 = session();
        s2.set_options(PlanOptions {
            force_on_top: true,
            ..Default::default()
        });
        let ontop_count = s2.query(sql).unwrap().rows()[0].get(0).clone();
        assert_eq!(fudj_count, ontop_count);
        assert!(fudj_count.as_i64().unwrap() > 0, "overlapping rides exist");
    }

    #[test]
    fn text_similarity_query5_shape() {
        let s = session();
        s.execute(
            r#"CREATE JOIN similarity_jaccard(a: string, b: string, t: double)
               RETURNS boolean AS "setsimilarity.SetSimilarityJoin" AT flexiblejoins;"#,
        )
        .unwrap();
        let sql = "SELECT COUNT(*) FROM AmazonReview r1, AmazonReview r2 \
                   WHERE r1.overall = 5 AND r2.overall = 4 \
                     AND similarity_jaccard(r1.review, r2.review) >= 0.9";
        let fudj_count = s.query(sql).unwrap().rows()[0].get(0).clone();

        let mut s2 = session();
        s2.set_options(PlanOptions {
            force_on_top: true,
            ..Default::default()
        });
        let ontop_count = s2.query(sql).unwrap().rows()[0].get(0).clone();
        assert_eq!(fudj_count, ontop_count);
        assert!(
            fudj_count.as_i64().unwrap() > 0,
            "near-duplicate reviews exist"
        );
    }

    #[test]
    fn self_join_is_detected_in_plan() {
        let s = session();
        s.execute(
            r#"CREATE JOIN st_intersects(a: polygon, b: polygon)
               RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins;"#,
        )
        .unwrap();
        let QueryOutput::Plan(text) = s
            .execute(
                "EXPLAIN SELECT COUNT(*) FROM Parks a, Parks b \
                 WHERE st_intersects(a.boundary, b.boundary)",
            )
            .unwrap()
        else {
            panic!()
        };
        assert!(text.contains("summarize once"), "{text}");
    }

    #[test]
    fn explain_analyze_reports_phases_and_metrics() {
        let s = session();
        s.execute(
            r#"CREATE JOIN st_contains(a: polygon, b: point)
               RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins;"#,
        )
        .unwrap();
        let QueryOutput::Plan(text) = s
            .execute(
                "EXPLAIN ANALYZE SELECT COUNT(*) FROM Parks p, Wildfires w \
                 WHERE st_contains(p.boundary, w.location)",
            )
            .unwrap()
        else {
            panic!()
        };
        assert!(text.contains("FudjJoin"), "{text}");
        assert!(text.contains("phase summarize:"), "{text}");
        assert!(text.contains("phase divide:"), "{text}");
        assert!(text.contains("phase join:"), "{text}");
        assert!(text.contains("rows: 1"), "{text}");
        assert!(text.contains("bytes shuffled"), "{text}");
    }

    #[test]
    fn plain_select_with_limit() {
        let s = session();
        let batch = s.query("SELECT p.id, p.tags FROM Parks p LIMIT 7").unwrap();
        assert_eq!(batch.len(), 7);
        assert_eq!(batch.schema().to_string(), "p.id: uuid, p.tags: string");
    }

    #[test]
    fn errors_surface_cleanly() {
        let s = session();
        assert!(s.execute("SELECT x FROM Ghost g").is_err());
        assert!(s.execute("DROP JOIN never_created").is_err());
        assert!(s
            .query("CREATE JOIN j(a: string, b: string) RETURNS boolean AS \"x.Y\" AT nolib")
            .is_err());
    }

    #[test]
    fn create_join_memory_budget_spills_and_matches_in_memory() {
        let sql = "SELECT p.id, COUNT(w.id) AS num_fires \
                   FROM Parks p, Wildfires w \
                   WHERE ST_Contains(p.boundary, w.location) \
                   GROUP BY p.id ORDER BY num_fires DESC";

        let run = |budget_clause: &str| {
            let s = session();
            s.execute(&format!(
                r#"CREATE JOIN st_contains(a: polygon, b: point)
                   RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins{budget_clause};"#
            ))
            .unwrap();
            let out = s.execute(sql).unwrap();
            let QueryOutput::Rows(batch, metrics) = out else {
                panic!("expected rows")
            };
            // The sort key (num_fires) ties across parks, so normalize the
            // tie order before comparing.
            let mut rows = batch.rows().to_vec();
            rows.sort();
            (rows, metrics.spilled_rows)
        };

        let (in_memory, spilled_none) = run("");
        let (spilled, spilled_rows) = run(" WITH (memory_budget_rows = 4)");
        assert_eq!(spilled_none, 0, "unbudgeted join must not spill");
        assert!(spilled_rows > 0, "budget of 4 rows/worker must spill");
        assert_eq!(in_memory, spilled, "grace spill must not change results");
    }

    #[test]
    fn set_memory_budget_rows_overrides_per_query() {
        let s = session();
        s.execute(
            r#"CREATE JOIN st_contains(a: polygon, b: point)
               RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins;"#,
        )
        .unwrap();
        let sql = "SELECT COUNT(*) FROM Parks p, Wildfires w \
                   WHERE st_contains(p.boundary, w.location)";

        let baseline = s.execute(sql).unwrap();
        assert_eq!(baseline.metrics().spilled_rows, 0);
        let count = baseline.batch().rows()[0].get(0).clone();

        s.execute("SET memory_budget_rows = 4").unwrap();
        let budgeted = s.execute(sql).unwrap();
        assert!(budgeted.metrics().spilled_rows > 0, "SET budget must spill");
        assert_eq!(budgeted.batch().rows()[0].get(0), &count);

        // `none` clears the variable again.
        s.execute("SET memory_budget_rows = none").unwrap();
        let cleared = s.execute(sql).unwrap();
        assert_eq!(cleared.metrics().spilled_rows, 0);
    }

    #[test]
    fn set_spill_knobs_tune_hybrid_hash_and_preserve_results() {
        let s = session();
        s.execute(
            r#"CREATE JOIN st_contains(a: polygon, b: point)
               RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins;"#,
        )
        .unwrap();
        let sql = "SELECT COUNT(*) FROM Parks p, Wildfires w \
                   WHERE st_contains(p.boundary, w.location)";

        s.execute("SET memory_budget_rows = 4").unwrap();
        let default_knobs = s.execute(sql).unwrap();
        let count = default_knobs.batch().rows()[0].get(0).clone();
        assert!(default_knobs.metrics().spilled_rows > 0);

        // A narrow fan-out with recursion allowed still answers correctly.
        s.execute("SET spill_fanout = 2").unwrap();
        let narrow = s.execute(sql).unwrap();
        assert_eq!(narrow.batch().rows()[0].get(0), &count);
        assert!(narrow.metrics().spill_passes >= 1);

        // recursion_limit = 0 forbids repartitioning: over-budget
        // sub-partitions must take the block-nested-loop fallback.
        s.execute("SET spill_recursion_limit = 0").unwrap();
        let bnl = s.execute(sql).unwrap();
        assert_eq!(bnl.batch().rows()[0].get(0), &count);
        assert_eq!(bnl.metrics().spill_recursion_depth, 0);
        assert!(
            bnl.metrics().spill_bnl_fallbacks > 0,
            "depth cap 0 with a 4-row budget must hit the BNL fallback"
        );

        // `off` restores the engine defaults.
        s.execute("SET spill_fanout = off").unwrap();
        s.execute("SET spill_recursion_limit = off").unwrap();
        let restored = s.execute(sql).unwrap();
        assert_eq!(restored.batch().rows()[0].get(0), &count);
    }

    #[test]
    fn set_exec_mode_switches_engine_and_preserves_answers() {
        let s = session();
        s.execute(
            r#"CREATE JOIN st_contains(a: polygon, b: point)
               RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins;"#,
        )
        .unwrap();
        let sql = "SELECT p.id, COUNT(w.id) AS c FROM Parks p, Wildfires w \
                   WHERE st_contains(p.boundary, w.location) \
                     AND w.fire_start >= parse_date('01/01/2022', 'M/D/Y') \
                   GROUP BY p.id ORDER BY p.id";

        s.execute("SET exec_mode = columnar").unwrap();
        let columnar = s.execute(sql).unwrap();
        assert_eq!(columnar.metrics().exec_mode, ExecMode::Columnar);

        s.execute("SET exec_mode = row").unwrap();
        let row = s.execute(sql).unwrap();
        assert_eq!(row.metrics().exec_mode, ExecMode::Row);

        assert_eq!(row.batch().rows(), columnar.batch().rows());
        assert_eq!(
            row.metrics().fingerprint(),
            columnar.metrics().fingerprint(),
            "logical counters must not depend on the execution mode"
        );

        // Bad values error; `off` clears back to the engine default.
        let err = s.execute("SET exec_mode = turbo").unwrap_err();
        assert!(err.to_string().contains("row or columnar"), "{err}");
        s.execute("SET exec_mode = off").unwrap();
        assert!(s.query(sql).is_ok());
    }

    #[test]
    fn set_configures_scheduler_and_rejects_unknown_keys() {
        let s = session();
        s.execute("SET max_inflight_queries = 2").unwrap();
        s.execute("SET admission_queue_limit = 3").unwrap();
        s.execute("SET memory_quota_rows = 500").unwrap();
        s.execute("SET stage_slots = 1").unwrap();
        let config = s.scheduler().config();
        assert_eq!(config.max_inflight, 2);
        assert_eq!(config.queue_limit, 3);
        assert_eq!(config.memory_quota_rows, Some(500));
        assert_eq!(config.stage_slots, 1);

        s.execute("SET memory_quota_rows = off").unwrap();
        assert_eq!(s.scheduler().config().memory_quota_rows, None);

        let err = s.execute("SET warp_drive = 9").unwrap_err();
        assert!(err.to_string().contains("unknown SET variable"), "{err}");
        let err = s.execute("SET priority = fast").unwrap_err();
        assert!(err.to_string().contains("expects a number"), "{err}");
    }

    #[test]
    fn submit_runs_selects_concurrently_with_session_vars() {
        let s = session();
        s.execute("SET priority = 3").unwrap();
        s.execute("SET deadline_ms = 60000").unwrap();

        let sql = "SELECT n1.Vendor, COUNT(*) AS c FROM NYCTaxi n1 \
                   GROUP BY n1.Vendor ORDER BY n1.Vendor";
        let serial = s.query(sql).unwrap();

        let handles: Vec<_> = (0..3).map(|_| s.submit(sql).unwrap()).collect();
        for handle in handles {
            let id = handle.id();
            let (batch, _) = handle.wait().unwrap();
            assert_eq!(batch.rows(), serial.rows());
            let info = s.scheduler().job(id).unwrap();
            assert_eq!(info.priority, 3);
            assert_eq!(info.deadline_ms, Some(60_000));
            assert_eq!(info.state, fudj_sched::JobState::Done);
        }

        // Only SELECTs are submittable.
        let err = s.submit("DROP JOIN nope").unwrap_err();
        assert!(err.to_string().contains("only SELECT"), "{err}");
    }

    fn wal_test_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fudj-wal-session-{}-{tag}", std::process::id()))
    }

    fn kv_dataset() -> Dataset {
        use fudj_types::{DataType, Field, Row, Schema};
        let dataset = fudj_storage::DatasetBuilder::new(
            "kv",
            Schema::shared(vec![
                Field::new("id", DataType::Int64),
                Field::new("tag", DataType::String),
            ]),
        )
        .primary_key("id")
        .partitions(2)
        .build()
        .unwrap();
        dataset
            .insert(Row::new(vec![Value::Int64(1), Value::str("seed")]))
            .unwrap();
        dataset
    }

    #[test]
    fn set_wal_dir_replays_tables_joins_and_appends_across_restart() {
        use fudj_types::Row;
        let dir = wal_test_dir("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let s = Session::new(2);
            s.install_library(standard_library());
            let kv = s.register_dataset(kv_dataset()).unwrap();
            s.execute(&format!("SET wal_dir = '{}'", dir.display()))
                .unwrap();
            // Post-open mutations are WALed: appends, join DDL.
            kv.insert(Row::new(vec![Value::Int64(2), Value::str("waled")]))
                .unwrap();
            kv.insert(Row::new(vec![Value::Int64(3), Value::str("waled")]))
                .unwrap();
            s.execute(
                r#"CREATE JOIN st_contains(a: polygon, b: point)
                   RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins
                   WITH (policy = quarantine, budget_ms = 250, memory_budget_rows = 8);"#,
            )
            .unwrap();
            // The session stamps durability counters into query metrics.
            let out = s.execute("SELECT COUNT(*) FROM kv k").unwrap();
            assert!(out.metrics().durability.wal_records_appended > 0);
            assert!(out.metrics().durability.wal_fsyncs > 0, "default is sync");
        }
        // "Restart": a fresh session recovers tables, rows, and join DDL.
        let s = Session::new(2);
        s.install_library(standard_library());
        s.execute(&format!("SET wal_dir = '{}'", dir.display()))
            .unwrap();
        let kv = s.catalog().get("kv").unwrap();
        assert_eq!(kv.len(), 3, "seeded + 2 WALed rows survive the restart");
        let def = s.registry().get("st_contains").expect("join DDL recovered");
        assert_eq!(def.guard().policy, UdfPolicy::Quarantine);
        assert_eq!(def.guard().limits.call_budget_ms, 250);
        assert_eq!(def.memory_budget_rows(), Some(8));
        let batch = s.query("SELECT COUNT(*) FROM kv k").unwrap();
        assert_eq!(batch.rows()[0].get(0).as_i64().unwrap(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn set_durability_controls_fsync_cadence_and_persist_compacts() {
        use fudj_types::Row;
        let dir = wal_test_dir("persist");
        let _ = std::fs::remove_dir_all(&dir);
        let s = Session::new(2);
        s.install_library(standard_library());
        let kv = s.register_dataset(kv_dataset()).unwrap();
        // The cadence knob is remembered even before the store opens.
        s.execute("SET durability = 16").unwrap();
        s.execute(&format!("SET wal_dir = '{}'", dir.display()))
            .unwrap();
        let store = s.durable().expect("store open");
        assert_eq!(store.sync_every(), 16);
        s.execute("SET durability = sync").unwrap();
        assert_eq!(store.sync_every(), 1);
        s.execute("SET durability = off").unwrap();
        assert_eq!(store.sync_every(), 0);

        for i in 10..30 {
            kv.insert(Row::new(vec![Value::Int64(i), Value::str("bulk")]))
                .unwrap();
        }
        let v0 = store.version();
        s.persist().unwrap();
        assert_eq!(store.version(), v0 + 1, "snapshot advances the version");
        assert!(store.stats().snapshots_written > 0);

        // Recovery from the snapshot (plus empty tail) sees every row.
        let s2 = Session::new(2);
        s2.install_library(standard_library());
        s2.execute(&format!("SET wal_dir = '{}'", dir.display()))
            .unwrap();
        assert_eq!(s2.catalog().get("kv").unwrap().len(), 21);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_durable_journals_and_seals_queries() {
        let dir = wal_test_dir("journal-seal");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let s = Session::new(2);
            s.install_library(standard_library());
            s.register_dataset(kv_dataset()).unwrap();
            // Knob set before the WAL opens is remembered (like
            // durability) and arms the tier at open.
            s.execute("SET checkpoint_durable = on").unwrap();
            s.execute(&format!("SET wal_dir = '{}'", dir.display()))
                .unwrap();
            assert!(s.cluster().checkpoints().durable_enabled());
            let store = s.durable().unwrap();
            let before = store.stats().journal_records_appended;
            let batch = s
                .query("SELECT k.tag, COUNT(*) AS c FROM kv k GROUP BY k.tag")
                .unwrap();
            assert_eq!(batch.len(), 1);
            let stats = store.stats();
            assert!(
                stats.journal_records_appended >= before + 3,
                "submit + at least one stage commit + finish, got {}",
                stats.journal_records_appended - before
            );
            let ckpt = s.cluster().checkpoints().stats();
            assert!(ckpt.durable_frames_written > 0, "{ckpt:?}");
            assert_eq!(
                s.cluster().checkpoints().durable_frames(),
                Vec::<String>::new(),
                "finished queries drop their durable frames eagerly"
            );

            let err = s.execute("SET checkpoint_durable = maybe").unwrap_err();
            assert!(err.to_string().contains("expects on or off"), "{err}");
            s.execute("SET checkpoint_durable = off").unwrap();
            assert!(!s.cluster().checkpoints().durable_enabled());
        }
        // Reopen: every journaled query finished, so nothing resumes.
        let s2 = Session::new(2);
        s2.install_library(standard_library());
        s2.execute(&format!("SET wal_dir = '{}'", dir.display()))
            .unwrap();
        assert!(
            s2.take_resumed().is_empty(),
            "sealed journal resumes nothing"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unfinished_journaled_query_resumes_exactly_once_on_reopen() {
        let dir = wal_test_dir("journal-resume");
        let _ = std::fs::remove_dir_all(&dir);
        let sql = "SELECT COUNT(*) AS c FROM kv k";
        {
            let s = Session::new(2);
            s.install_library(standard_library());
            s.register_dataset(kv_dataset()).unwrap();
            s.execute(&format!("SET wal_dir = '{}'", dir.display()))
                .unwrap();
            // Simulate a crash after submit: the journal holds a
            // QuerySubmitted with no QueryFinished.
            let store = s.durable().unwrap();
            store
                .append_journal(
                    &WalRecord::QuerySubmitted {
                        fingerprint: fingerprint::statement_fingerprint(sql),
                        sql: sql.to_owned(),
                        options: Vec::new(),
                    },
                    "journal:submit",
                )
                .unwrap();
        }
        // First reopen resumes it (full replay — no stage committed)…
        let s2 = Session::new(2);
        s2.install_library(standard_library());
        s2.execute(&format!("SET wal_dir = '{}'", dir.display()))
            .unwrap();
        let mut resumed = s2.take_resumed();
        assert_eq!(resumed.len(), 1, "one pending query");
        let r = resumed.pop().unwrap();
        assert_eq!(r.sql, sql);
        assert_eq!(r.resumed_from, None, "no boundary committed");
        let (batch, _snapshot) = r.result.unwrap();
        assert_eq!(batch.rows()[0].get(0).as_i64().unwrap(), 1);
        assert!(
            !s2.cluster().checkpoints().durable_enabled(),
            "resume-only attach detaches after replay when the knob is off"
        );
        // …and seals it: the second reopen finds a finished journal.
        let s3 = Session::new(2);
        s3.install_library(standard_library());
        s3.execute(&format!("SET wal_dir = '{}'", dir.display()))
            .unwrap();
        assert!(
            s3.take_resumed().is_empty(),
            "QueryFinished sealed the resume — exactly once"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn armed_crash_open_reopens_same_simulated_disk_and_resumes() {
        let sql = "SELECT COUNT(*) AS c FROM kv k";
        let s = Session::new(2);
        s.install_library(standard_library());
        s.register_dataset(kv_dataset()).unwrap();
        s.execute("SET checkpoint_durable = on").unwrap();
        // `\chaos crash`: the next SET wal_dir opens over a simulated
        // disk that dies at the first query submission (journal durable,
        // execution never ran).
        s.set_disk_faults(Some(StorageFaultConfig::crash_at(0, "journal:submit", 1)));
        s.execute("SET wal_dir = '/sim-crash'").unwrap();
        assert!(
            s.disk_faults().is_none(),
            "a crash plan is one-shot — consumed by the open it poisons"
        );
        let err = s.query(sql).unwrap_err();
        assert!(matches!(err, FudjError::Crash(_)), "{err}");
        // Reopening the same dir plays the process restart: the simulated
        // disk (and the query journal on it) survives, the poison clears,
        // and the in-flight query resumes.
        s.execute("SET wal_dir = '/sim-crash'").unwrap();
        let mut resumed = s.take_resumed();
        assert_eq!(resumed.len(), 1, "journal survived the reopen");
        let r = resumed.pop().unwrap();
        assert_eq!(r.sql, sql);
        let (batch, _) = r.result.unwrap();
        assert_eq!(batch.rows()[0].get(0).as_i64().unwrap(), 1);
        // The restarted disk is quiet: the same query now runs clean, and
        // a third reopen finds a sealed journal.
        s.query(sql).unwrap();
        s.execute("SET wal_dir = '/sim-crash'").unwrap();
        assert!(s.take_resumed().is_empty(), "resume sealed exactly once");
    }

    #[test]
    fn set_wal_dir_off_detaches_and_stops_logging() {
        use fudj_types::Row;
        let dir = wal_test_dir("detach");
        let _ = std::fs::remove_dir_all(&dir);
        let s = Session::new(2);
        s.install_library(standard_library());
        let kv = s.register_dataset(kv_dataset()).unwrap();
        s.execute(&format!("SET wal_dir = '{}'", dir.display()))
            .unwrap();
        s.execute("SET wal_dir = off").unwrap();
        assert!(s.durable().is_none());
        kv.insert(Row::new(vec![Value::Int64(99), Value::str("lost")]))
            .unwrap();

        let s2 = Session::new(2);
        s2.execute(&format!("SET wal_dir = '{}'", dir.display()))
            .unwrap();
        assert_eq!(
            s2.catalog().get("kv").unwrap().len(),
            1,
            "rows inserted after detach are not durable"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn set_wal_dir_unwritable_path_is_a_clean_error() {
        // Tests run as root, so permission bits don't block writes; a path
        // nested *under a regular file* fails even for root (ENOTDIR).
        let blocker = wal_test_dir("blocker");
        let _ = std::fs::remove_dir_all(&blocker);
        std::fs::write(&blocker, b"not a directory").unwrap();
        let s = Session::new(2);
        let err = s
            .execute(&format!(
                "SET wal_dir = '{}'",
                blocker.join("nested").display()
            ))
            .unwrap_err();
        assert!(err.to_string().contains("storage error"), "{err}");
        assert!(
            s.durable().is_none(),
            "failed open leaves no half-attached store"
        );
        // The session stays usable.
        s.register_dataset(kv_dataset()).unwrap();
        assert!(s.query("SELECT COUNT(*) FROM kv k").is_ok());
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn prepare_and_execute_match_direct_select() {
        let s = session();
        s.execute(
            "PREPARE vendor_count AS \
             SELECT COUNT(*) AS c FROM NYCTaxi n WHERE n.Vendor = $1",
        )
        .unwrap();
        let prepared = s.execute("EXECUTE vendor_count(1)").unwrap();
        let direct = s
            .query("SELECT COUNT(*) AS c FROM NYCTaxi n WHERE n.Vendor = 1")
            .unwrap();
        assert_eq!(prepared.batch().rows(), direct.rows());

        // A different parameter reaches a different answer.
        let other = s.execute("EXECUTE vendor_count(2)").unwrap();
        let a = prepared.batch().rows()[0].get(0).as_i64().unwrap();
        let b = other.batch().rows()[0].get(0).as_i64().unwrap();
        assert_eq!(a + b, 150, "the two vendors partition the taxi rides");

        // Arity mismatches, unknown names, and raw `$n` outside PREPARE
        // are all clean errors.
        let err = s.execute("EXECUTE vendor_count()").unwrap_err();
        assert!(err.to_string().contains("takes 1 parameter"), "{err}");
        let err = s.execute("EXECUTE vendor_count(1, 2)").unwrap_err();
        assert!(err.to_string().contains("takes 1 parameter"), "{err}");
        let err = s.execute("EXECUTE nope(1)").unwrap_err();
        assert!(err.to_string().contains("no prepared statement"), "{err}");
        let err = s
            .execute("SELECT COUNT(*) FROM NYCTaxi n WHERE n.Vendor = $1")
            .unwrap_err();
        assert!(err.to_string().contains("unbound parameter"), "{err}");
    }

    #[test]
    fn serving_knobs_set_and_error_paths() {
        let s = session();
        assert_eq!(s.serving_config(), ServingConfig::default());
        s.execute("SET plan_cache_entries = 8").unwrap();
        s.execute("SET result_cache_entries = 0").unwrap();
        s.execute("SET result_cache = off").unwrap();
        let cfg = s.serving_config();
        assert_eq!(cfg.plan_cache_entries, 8);
        assert_eq!(cfg.result_cache_entries, 0, "0 disables, not defaults");
        assert!(!cfg.result_cache_enabled);
        s.execute("SET result_cache = on").unwrap();
        s.execute("SET plan_cache_entries = none").unwrap();
        let cfg = s.serving_config();
        assert!(cfg.result_cache_enabled);
        assert_eq!(
            cfg.plan_cache_entries,
            ServingConfig::default().plan_cache_entries,
            "none restores the engine default"
        );

        // Error paths: non-numeric, out-of-range, bad switch value, and
        // the unknown-knob message advertising the serving knobs.
        let err = s.execute("SET plan_cache_entries = many").unwrap_err();
        assert!(err.to_string().contains("expects a number"), "{err}");
        let err = s
            .execute("SET result_cache_entries = 99999999")
            .unwrap_err();
        assert!(err.to_string().contains("at most"), "{err}");
        let err = s.execute("SET result_cache = sometimes").unwrap_err();
        assert!(err.to_string().contains("on or off"), "{err}");
        let err = s.execute("SET plan_cache = 1").unwrap_err();
        assert!(err.to_string().contains("unknown SET variable"), "{err}");
        assert!(err.to_string().contains("result_cache"), "{err}");
    }

    #[test]
    fn aggregates_via_sql() {
        let s = session();
        let batch = s
            .query("SELECT n1.Vendor, COUNT(*) AS c FROM NYCTaxi n1 GROUP BY n1.Vendor ORDER BY n1.Vendor")
            .unwrap();
        assert_eq!(batch.len(), 2);
        let total: i64 = batch
            .rows()
            .iter()
            .map(|r| r.get(1).as_i64().unwrap())
            .sum();
        assert_eq!(total, 150);
        let _ = Value::Int64(0);
    }

    /// `"a" | "b" =>` arm labels of `apply_set`'s `match key`, from this
    /// file's own source.
    fn apply_set_arms() -> Vec<String> {
        let body = include_str!("session.rs")
            .split("fn apply_set")
            .nth(1)
            .and_then(|s| s.split("fn submit").next())
            .expect("apply_set body precedes submit");
        body.lines()
            .map(str::trim_start)
            .filter(|l| l.starts_with('"') && l.contains("=>"))
            .flat_map(|l| l.split("=>").next().unwrap().split('|'))
            .filter_map(|t| t.trim().strip_prefix('"')?.strip_suffix('"'))
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn settings_table_is_the_one_list_of_set_keys() {
        let mut names: Vec<&str> = SETTINGS.iter().map(|(name, ..)| *name).collect();
        assert_eq!(names.len(), 19);
        let mut arms = apply_set_arms();
        names.sort_unstable();
        arms.sort_unstable();
        assert_eq!(arms, names, "apply_set arms vs SETTINGS");
        for knob in PLAN_KNOBS {
            assert!(names.contains(&knob.name), "{} is not a SET key", knob.name);
        }
    }

    #[test]
    fn readme_knob_rows_name_exactly_the_set_keys() {
        let readme = include_str!("../../../README.md");
        let mut documented: Vec<&str> = readme
            .split("SET ")
            .skip(1)
            .filter_map(|rest| {
                let end = rest.find(|c: char| !(c.is_ascii_lowercase() || c == '_'))?;
                rest[end..].starts_with(" =").then_some(&rest[..end])
            })
            .collect();
        documented.sort_unstable();
        documented.dedup();
        let mut names: Vec<&str> = SETTINGS.iter().map(|(name, ..)| *name).collect();
        names.sort_unstable();
        assert_eq!(documented, names);
    }

    #[test]
    fn plan_knobs_round_trip_through_the_journal_in_a_fixed_order() {
        let s = session();
        assert_eq!(
            s.journal_options(),
            Vec::new(),
            "nothing set, nothing journaled"
        );
        s.execute("SET spill_recursion_limit = 0").unwrap();
        s.execute("SET spill_fanout = 4").unwrap();
        s.execute("SET memory_budget_rows = 64").unwrap();
        s.execute("SET exec_mode = row").unwrap();
        let pairs = s.journal_options();
        let text: Vec<(&str, &str)> = pairs
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        assert_eq!(
            text,
            [
                ("exec_mode", "row"),
                ("memory_budget_rows", "64"),
                ("spill_fanout", "4"),
                ("spill_recursion_limit", "0"),
            ]
        );
        let restored = session().options_from_journal(&pairs);
        assert_eq!(restored.exec_mode, Some(ExecMode::Row));
        assert_eq!(restored.memory_budget_rows, Some(64));
        assert_eq!(restored.spill_fanout, Some(4));
        assert_eq!(restored.spill_recursion_limit, Some(0));
    }
}
