//! Admission control, fair-share dispatch, cancellation, and deadlines.
//!
//! One [`Scheduler`] fronts one shared [`Cluster`]. Each submitted query
//! gets its own coordinator thread, its own [`QueryControl`] (cancel
//! token + simulated-clock deadline), and its own metrics/fault context —
//! per-query counters are structurally isolated. What the scheduler
//! multiplexes is *dispatch*: before every pool batch, the engine passes
//! through this crate's [`DispatchGate`], which holds the batch until the
//! weighted-round-robin policy picks its query and a stage slot is free.
//! Batches are the engine's natural task boundary (a batch is one stage's
//! per-partition task fan-out), so interleaving happens exactly where
//! stages begin.
//!
//! Admission is two-dimensional: at most `max_inflight` queries run at
//! once, and (optionally) the sum of the running queries' declared
//! `memory_budget_rows` must stay under an aggregate quota. Queries past
//! either limit wait in a bounded FIFO queue; past the queue, submission
//! fails with [`FudjError::Admission`].
//!
//! A finished job stays listed until [`FINISHED_JOBS_KEPT`] newer jobs
//! have finished after it; queued and running jobs are always listed.

use fudj_exec::{
    panic_message, Cluster, DispatchGate, ExecMode, ExecOptions, MetricsSnapshot, PhysicalPlan,
    QueryControl,
};
use fudj_types::{Batch, FudjError, Result};
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};

/// How many finished jobs [`Scheduler::jobs`] and [`Scheduler::job`] still
/// report; past it the one that finished first is forgotten.
pub const FINISHED_JOBS_KEPT: usize = 1024;

/// Scheduler knobs, adjustable at runtime via
/// [`Scheduler::reconfigure`] (the REPL's `SET` statements land there).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Maximum queries executing concurrently.
    pub max_inflight: usize,
    /// Maximum queries waiting for admission; submissions past this fail.
    pub queue_limit: usize,
    /// Aggregate cap on the running queries' declared
    /// `memory_budget_rows`. `None` disables the quota dimension.
    pub memory_quota_rows: Option<u64>,
    /// Pool batches allowed in flight at once across all queries. `1`
    /// serializes stages (strict weighted round-robin); higher values
    /// overlap stages from different queries on the shared pool.
    pub stage_slots: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_inflight: 4,
            queue_limit: 16,
            memory_quota_rows: None,
            stage_slots: 2,
        }
    }
}

/// Everything the scheduler needs to run one query.
#[derive(Clone)]
pub struct QuerySpec {
    /// The physical plan to execute.
    pub plan: Arc<PhysicalPlan>,
    /// Label used in job listings and error messages.
    pub label: String,
    /// Fair-share weight: a priority-`p` query may dispatch up to `p`
    /// consecutive stages per round-robin turn. Minimum 1.
    pub priority: u32,
    /// Simulated-millisecond deadline; the query aborts with
    /// [`FudjError::Deadline`] when its simulated clock passes it.
    pub deadline_ms: Option<u64>,
    /// Declared memory appetite, charged against the scheduler's
    /// aggregate quota while the query runs.
    pub memory_budget_rows: Option<u64>,
    /// Execution-mode override (`SET exec_mode`); the executor default
    /// applies when unset.
    pub exec_mode: Option<ExecMode>,
    /// Crash-tolerance identity of a journaled query: stable checkpoint
    /// namespace, stage-commit journal sink, and an optional resume point
    /// recovered from the durable query journal. `None` (the default)
    /// executes exactly as before.
    pub tag: Option<fudj_exec::QueryTag>,
}

impl QuerySpec {
    /// A spec with default priority (1), no deadline, no declared budget.
    pub fn new(plan: Arc<PhysicalPlan>, label: impl Into<String>) -> Self {
        QuerySpec {
            plan,
            label: label.into(),
            priority: 1,
            deadline_ms: None,
            memory_budget_rows: None,
            exec_mode: None,
            tag: None,
        }
    }

    /// Set the fair-share priority (clamped to at least 1).
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority.max(1);
        self
    }

    /// Set a simulated-clock deadline.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// Declare a memory budget, in rows.
    pub fn with_memory_budget_rows(mut self, rows: u64) -> Self {
        self.memory_budget_rows = Some(rows);
        self
    }
}

/// Lifecycle of one submitted query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the admission queue.
    Queued,
    /// Admitted and executing.
    Running,
    /// Finished with a result.
    Done,
    /// Finished with an execution error.
    Failed,
    /// Stopped by cancellation.
    Cancelled,
    /// Stopped by its simulated-clock deadline.
    DeadlineExceeded,
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::DeadlineExceeded => "deadline",
        };
        f.write_str(s)
    }
}

/// Point-in-time public view of one job, for `\jobs`-style listings.
#[derive(Clone, Debug)]
pub struct JobInfo {
    /// Scheduler-assigned job id.
    pub id: u64,
    /// The label from the [`QuerySpec`].
    pub label: String,
    /// Current lifecycle state.
    pub state: JobState,
    /// Fair-share priority.
    pub priority: u32,
    /// Pool batches the dispatch gate has let through so far.
    pub batches: usize,
    /// The query's simulated clock, in milliseconds.
    pub sim_clock_ms: u64,
    /// The deadline, if one was set.
    pub deadline_ms: Option<u64>,
    /// Final error message, for failed/cancelled/deadlined jobs.
    pub error: Option<String>,
}

/// What a finished job delivers: the gathered result batch and the
/// query's isolated metrics snapshot.
pub type JobOutput = (Batch, MetricsSnapshot);

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("label", &self.label)
            .finish()
    }
}

/// Async handle to a submitted query.
pub struct JobHandle {
    id: u64,
    label: String,
    inner: Arc<SchedInner>,
    rx: mpsc::Receiver<Result<JobOutput>>,
    /// See [`JobHandle::and_then`].
    on_delivery: Option<Box<dyn FnOnce(JobOutput) -> Result<JobOutput> + Send>>,
}

impl JobHandle {
    /// The scheduler-assigned job id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Request cancellation; the query stops at its next task boundary.
    pub fn cancel(&self) {
        cancel_job(&self.inner, self.id);
    }

    /// Pass the job's output through `f` at delivery: [`JobHandle::wait`]
    /// runs it on the waiter's thread, after the job succeeded and before
    /// the rows are handed over. The session seals a journaled query here,
    /// so an undelivered result is one a restart still resumes.
    pub fn and_then(
        mut self,
        f: impl FnOnce(JobOutput) -> Result<JobOutput> + Send + 'static,
    ) -> Self {
        self.on_delivery = Some(Box::new(f));
        self
    }

    /// Block until the query finishes and take its result.
    pub fn wait(self) -> Result<JobOutput> {
        let output = self.rx.recv().unwrap_or_else(|_| {
            Err(FudjError::Execution(
                "scheduler job thread exited without delivering a result".into(),
            ))
        })?;
        match self.on_delivery {
            Some(f) => f(output),
            None => Ok(output),
        }
    }
}

struct Job {
    label: String,
    priority: u32,
    state: JobState,
    ctrl: Arc<QueryControl>,
    /// Remaining consecutive-dispatch credits in the current WRR turn.
    credits: u32,
    /// Whether the job's coordinator is parked in [`DispatchGate::enter`].
    waiting: bool,
    budget_rows: u64,
    batches: usize,
    error: Option<String>,
}

impl Job {
    /// The public view of this job, whose id is `id`.
    fn info(&self, id: u64) -> JobInfo {
        JobInfo {
            id,
            label: self.label.clone(),
            state: self.state,
            priority: self.priority,
            batches: self.batches,
            sim_clock_ms: self.ctrl.sim_clock_ms(),
            deadline_ms: self.ctrl.deadline_ms(),
            error: self.error.clone(),
        }
    }
}

struct SchedState {
    config: SchedulerConfig,
    next_id: u64,
    jobs: BTreeMap<u64, Job>,
    /// Finished job ids in the order they finished, at most
    /// [`FINISHED_JOBS_KEPT`] of them.
    finished: VecDeque<u64>,
    /// FIFO admission queue (job ids).
    queue: VecDeque<u64>,
    /// Admitted, unfinished job ids, in admission order.
    running: Vec<u64>,
    /// Index into `running` where the next WRR scan starts.
    rr_cursor: usize,
    slots_in_use: usize,
    admitted_budget_rows: u64,
    /// Dispatch grants in order, for fairness diagnostics and tests.
    grant_log: Vec<u64>,
}

impl SchedState {
    /// Whether a query declaring `budget` rows fits right now.
    fn has_capacity(&self, budget: u64) -> bool {
        if self.running.len() >= self.config.max_inflight {
            return false;
        }
        match self.config.memory_quota_rows {
            Some(quota) => self.admitted_budget_rows.saturating_add(budget) <= quota,
            None => true,
        }
    }

    /// Move queued jobs into the running set while capacity allows
    /// (strictly FIFO: stops at the first job that does not fit).
    fn admit_from_queue(&mut self) {
        while let Some(&head) = self.queue.front() {
            let budget = self.jobs.get(&head).map(|j| j.budget_rows).unwrap_or(0);
            if !self.has_capacity(budget) {
                break;
            }
            self.queue.pop_front();
            if let Some(job) = self.jobs.get_mut(&head) {
                // A cancelled-while-queued job was already removed from
                // the queue by `cancel_job`; anything here is admissible.
                job.state = JobState::Running;
            }
            self.running.push(head);
            self.admitted_budget_rows = self.admitted_budget_rows.saturating_add(budget);
        }
    }

    /// Release a finished job's admission resources.
    fn release(&mut self, id: u64) {
        if let Some(pos) = self.running.iter().position(|&r| r == id) {
            self.running.remove(pos);
            if pos < self.rr_cursor {
                self.rr_cursor -= 1;
            }
            if self.rr_cursor >= self.running.len() {
                self.rr_cursor = 0;
            }
            let budget = self.jobs.get(&id).map(|j| j.budget_rows).unwrap_or(0);
            self.admitted_budget_rows = self.admitted_budget_rows.saturating_sub(budget);
        }
    }

    /// Put job `id` in its terminal `state`, and forget the job that
    /// finished first once more than [`FINISHED_JOBS_KEPT`] have.
    fn retire(&mut self, id: u64, state: JobState, error: Option<String>) {
        if let Some(job) = self.jobs.get_mut(&id) {
            job.state = state;
            job.waiting = false;
            job.error = error;
        }
        self.finished.push_back(id);
        if self.finished.len() > FINISHED_JOBS_KEPT {
            if let Some(oldest) = self.finished.pop_front() {
                self.jobs.remove(&oldest);
            }
        }
    }

    /// Weighted-round-robin grant: returns true iff `id` is the next
    /// waiting query the policy picks (and consumes one of its credits).
    /// A query keeps winning until its `priority` credits are spent, then
    /// the cursor moves past it — so between two grants to any waiting
    /// query, every other running query receives at most `priority`
    /// grants: bounded wait.
    fn grant(&mut self, id: u64) -> bool {
        let n = self.running.len();
        for k in 0..n {
            let idx = (self.rr_cursor + k) % n;
            let cand = self.running[idx];
            let Some(job) = self.jobs.get_mut(&cand) else {
                continue;
            };
            if !job.waiting {
                continue;
            }
            if cand != id {
                return false;
            }
            job.credits = job.credits.saturating_sub(1);
            if job.credits == 0 {
                job.credits = job.priority.max(1);
                self.rr_cursor = (idx + 1) % n;
            }
            self.grant_log.push(cand);
            return true;
        }
        false
    }
}

struct SchedInner {
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl SchedInner {
    /// Lock the state, recovering from a poisoned mutex (a panicking
    /// holder leaves the counters intact enough to keep scheduling).
    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, SchedState>) -> MutexGuard<'a, SchedState> {
        self.cv.wait(guard).unwrap_or_else(|e| e.into_inner())
    }
}

/// Cancel a job by id; true if the job exists.
fn cancel_job(inner: &Arc<SchedInner>, id: u64) -> bool {
    let mut st = inner.lock();
    let Some(job) = st.jobs.get_mut(&id) else {
        return false;
    };
    match job.state {
        JobState::Queued => {
            job.ctrl.cancel();
            let error = format!("cancelled before start: {}", job.label);
            st.queue.retain(|&q| q != id);
            st.retire(id, JobState::Cancelled, Some(error));
        }
        JobState::Running => {
            // The coordinator observes the token at its next task
            // boundary and finishes through the normal completion path.
            job.ctrl.cancel();
        }
        // Terminal states: cancellation is an idempotent no-op.
        _ => {}
    }
    drop(st);
    inner.cv.notify_all();
    true
}

/// The per-query gate the worker pool passes through before every batch.
struct SchedGate {
    inner: Arc<SchedInner>,
    id: u64,
    ctrl: Arc<QueryControl>,
}

impl DispatchGate for SchedGate {
    fn enter(&self, _tasks: usize) -> Result<()> {
        let mut st = self.inner.lock();
        if let Some(job) = st.jobs.get_mut(&self.id) {
            job.waiting = true;
        }
        loop {
            if let Err(e) = self.ctrl.check() {
                // Cancelled or deadlined while waiting for a slot: clear
                // the parked flag so the WRR scan skips this query.
                if let Some(job) = st.jobs.get_mut(&self.id) {
                    job.waiting = false;
                }
                drop(st);
                self.inner.cv.notify_all();
                return Err(e);
            }
            if st.slots_in_use < st.config.stage_slots && st.grant(self.id) {
                st.slots_in_use += 1;
                if let Some(job) = st.jobs.get_mut(&self.id) {
                    job.waiting = false;
                }
                return Ok(());
            }
            st = self.inner.wait(st);
        }
    }

    fn exit(&self, _tasks: usize) {
        let mut st = self.inner.lock();
        st.slots_in_use = st.slots_in_use.saturating_sub(1);
        if let Some(job) = st.jobs.get_mut(&self.id) {
            job.batches += 1;
        }
        drop(st);
        self.inner.cv.notify_all();
    }
}

/// The concurrent query scheduler fronting one shared [`Cluster`].
pub struct Scheduler {
    cluster: Cluster,
    inner: Arc<SchedInner>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.inner.lock();
        f.debug_struct("Scheduler")
            .field("config", &st.config)
            .field("running", &st.running.len())
            .field("queued", &st.queue.len())
            .finish()
    }
}

impl Scheduler {
    /// A scheduler with default [`SchedulerConfig`] over `cluster`.
    pub fn new(cluster: Cluster) -> Self {
        Self::with_config(cluster, SchedulerConfig::default())
    }

    /// A scheduler with an explicit configuration.
    pub fn with_config(cluster: Cluster, config: SchedulerConfig) -> Self {
        Scheduler {
            cluster,
            inner: Arc::new(SchedInner {
                state: Mutex::new(SchedState {
                    config,
                    next_id: 1,
                    jobs: BTreeMap::new(),
                    finished: VecDeque::new(),
                    queue: VecDeque::new(),
                    running: Vec::new(),
                    rr_cursor: 0,
                    slots_in_use: 0,
                    admitted_budget_rows: 0,
                    grant_log: Vec::new(),
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Replace the cluster handle subsequent jobs execute on. Cluster
    /// clones share the worker pool but copy the network/fault arming at
    /// clone time, so a session that re-arms faults or swaps the network
    /// model pushes the updated handle here. Jobs already running keep
    /// the configuration they started with.
    pub fn set_cluster(&mut self, cluster: Cluster) {
        self.cluster = cluster;
    }

    /// Current configuration.
    pub fn config(&self) -> SchedulerConfig {
        self.inner.lock().config
    }

    /// Adjust the configuration; loosened limits admit queued queries
    /// immediately.
    pub fn reconfigure(&self, f: impl FnOnce(&mut SchedulerConfig)) {
        let mut st = self.inner.lock();
        f(&mut st.config);
        st.config.max_inflight = st.config.max_inflight.max(1);
        st.config.stage_slots = st.config.stage_slots.max(1);
        st.admit_from_queue();
        drop(st);
        self.inner.cv.notify_all();
    }

    /// Submit a query for asynchronous execution. Fails with
    /// [`FudjError::Admission`] when the admission queue is full or the
    /// query's declared budget can never fit the quota.
    pub fn submit(&self, spec: QuerySpec) -> Result<JobHandle> {
        let budget = spec.memory_budget_rows.unwrap_or(0);
        let priority = spec.priority.max(1);
        let mut st = self.inner.lock();
        if let Some(quota) = st.config.memory_quota_rows {
            if budget > quota {
                return Err(FudjError::Admission(format!(
                    "query {:?} declares memory_budget_rows = {budget}, \
                     above the aggregate quota of {quota} rows",
                    spec.label
                )));
            }
        }
        let admit_now = st.queue.is_empty() && st.has_capacity(budget);
        if !admit_now && st.queue.len() >= st.config.queue_limit {
            return Err(FudjError::Admission(format!(
                "admission queue is full ({} queries waiting, limit {}); \
                 query {:?} rejected",
                st.queue.len(),
                st.config.queue_limit,
                spec.label
            )));
        }
        let id = st.next_id;
        st.next_id += 1;
        let ctrl = Arc::new(QueryControl::new(spec.label.clone(), spec.deadline_ms));
        st.jobs.insert(
            id,
            Job {
                label: spec.label.clone(),
                priority,
                state: if admit_now {
                    JobState::Running
                } else {
                    JobState::Queued
                },
                ctrl: ctrl.clone(),
                credits: priority,
                waiting: false,
                budget_rows: budget,
                batches: 0,
                error: None,
            },
        );
        if admit_now {
            st.running.push(id);
            st.admitted_budget_rows = st.admitted_budget_rows.saturating_add(budget);
        } else {
            st.queue.push_back(id);
        }
        drop(st);
        self.inner.cv.notify_all();

        let (tx, rx) = mpsc::channel();
        let inner = self.inner.clone();
        let cluster = self.cluster.clone();
        let label = spec.label.clone();
        std::thread::Builder::new()
            .name(format!("fudj-sched-job-{id}"))
            .spawn(move || run_job(inner, cluster, spec, id, ctrl, tx))
            .map_err(|e| FudjError::Execution(format!("failed to spawn job thread: {e}")))?;
        Ok(JobHandle {
            id,
            label,
            inner: self.inner.clone(),
            rx,
            on_delivery: None,
        })
    }

    /// Cancel a job by id. Fails if the id was never issued.
    pub fn cancel(&self, id: u64) -> Result<()> {
        if cancel_job(&self.inner, id) {
            Ok(())
        } else {
            Err(FudjError::Execution(format!("no such job: {id}")))
        }
    }

    /// Every queued or running job and the last [`FINISHED_JOBS_KEPT`]
    /// finished ones, in submission order.
    pub fn jobs(&self) -> Vec<JobInfo> {
        let st = self.inner.lock();
        st.jobs.iter().map(|(&id, job)| job.info(id)).collect()
    }

    /// One job's public view; `None` once it is forgotten (see
    /// [`Scheduler::jobs`]).
    pub fn job(&self, id: u64) -> Option<JobInfo> {
        self.inner.lock().jobs.get(&id).map(|job| job.info(id))
    }

    /// How many jobs are queued or running now.
    pub fn in_flight(&self) -> usize {
        let st = self.inner.lock();
        st.queue.len() + st.running.len()
    }

    /// The order in which dispatch slots were granted (job ids), for
    /// fairness diagnostics and the bounded-wait tests.
    pub fn grant_log(&self) -> Vec<u64> {
        self.inner.lock().grant_log.clone()
    }
}

/// Body of one job's coordinator thread: wait for admission, execute the
/// plan under the control plane, classify the outcome, release admission
/// resources, deliver the result. A panic on this thread (user code the
/// pool's per-task isolation does not cover, like an unguarded `divide`)
/// fails the job like an error would, so its slot is still released.
fn run_job(
    inner: Arc<SchedInner>,
    cluster: Cluster,
    spec: QuerySpec,
    id: u64,
    ctrl: Arc<QueryControl>,
    tx: mpsc::Sender<Result<JobOutput>>,
) {
    // Admission wait: parked until the FIFO queue hands this job a slot.
    {
        let mut st = inner.lock();
        loop {
            match st.jobs.get(&id).map(|j| j.state) {
                Some(JobState::Running) => break,
                Some(JobState::Queued) => st = inner.wait(st),
                // Cancelled while queued (or the record vanished): the
                // query never starts.
                _ => {
                    drop(st);
                    let _ = tx.send(Err(FudjError::Cancelled(ctrl.label().to_owned())));
                    return;
                }
            }
        }
    }

    let gate: Arc<dyn DispatchGate> = Arc::new(SchedGate {
        inner: inner.clone(),
        id,
        ctrl: ctrl.clone(),
    });
    let opts = ExecOptions {
        mode: spec.exec_mode,
        control: Some(ctrl),
        gate: Some(gate),
        tag: spec.tag,
    };
    let result = catch_unwind(AssertUnwindSafe(|| cluster.execute_with(&spec.plan, opts)))
        .unwrap_or_else(|payload| {
            Err(FudjError::Execution(format!(
                "query {:?} panicked: {}",
                spec.label,
                panic_message(&*payload)
            )))
        })
        .map(|(batch, metrics)| (batch, metrics.snapshot()));
    // The plan's join leases end with the job, before its caller can see
    // the result (and, say, `DROP JOIN` what it ran).
    drop(spec.plan);

    let final_state = match &result {
        Ok(_) => JobState::Done,
        Err(FudjError::Cancelled(_)) => JobState::Cancelled,
        Err(FudjError::Deadline(_)) => JobState::DeadlineExceeded,
        Err(_) => JobState::Failed,
    };
    let error = result.as_ref().err().map(|e| e.to_string());
    let mut st = inner.lock();
    st.release(id);
    st.retire(id, final_state, error);
    st.admit_from_queue();
    drop(st);
    inner.cv.notify_all();
    let _ = tx.send(result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fudj_exec::{Aggregate, BinOp, BoundExpr};
    use fudj_storage::DatasetBuilder;
    use fudj_types::{DataType, Field, Row, Schema, Value};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn dataset(rows: usize, partitions: usize) -> Arc<fudj_storage::Dataset> {
        let schema = Schema::shared(vec![
            Field::new("id", DataType::Int64),
            Field::new("grp", DataType::Int64),
        ]);
        let d = DatasetBuilder::new("t", schema)
            .partitions(partitions)
            .build()
            .unwrap();
        d.insert_all(
            (0..rows).map(|i| Row::new(vec![Value::Int64(i as i64), Value::Int64((i % 5) as i64)])),
        )
        .unwrap();
        Arc::new(d)
    }

    /// Multi-stage plan: filter (the lower half of the ids) → partial agg
    /// → shuffle → final agg → gather. Enough batches to give the scheduler boundaries to work
    /// with.
    fn agg_plan(rows: usize) -> Arc<PhysicalPlan> {
        Arc::new(PhysicalPlan::hash_aggregate(
            PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::Scan {
                    dataset: dataset(rows, 4),
                }),
                predicate: BoundExpr::Binary {
                    op: BinOp::Lt,
                    left: Box::new(BoundExpr::Column(0)),
                    right: Box::new(BoundExpr::Literal(Value::Int64(rows as i64 / 2))),
                },
            },
            vec![1],
            vec![Aggregate::count_star("c")],
        ))
    }

    /// A plan whose filter blocks every partition until `release` flips —
    /// a query that deterministically occupies its admission slot.
    fn blocking_plan(rows: usize, release: Arc<AtomicBool>) -> Arc<PhysicalPlan> {
        Arc::new(PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan {
                dataset: dataset(rows, 2),
            }),
            predicate: BoundExpr::Call {
                name: "wait_for_release".into(),
                func: Arc::new(move |_| {
                    while !release.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    Ok(Value::Bool(true))
                }),
                args: vec![],
            },
        })
    }

    fn sorted_rows(batch: &Batch) -> Vec<Vec<Value>> {
        let mut rows: Vec<Vec<Value>> = batch.rows().iter().map(|r| r.values().to_vec()).collect();
        rows.sort();
        rows
    }

    #[test]
    fn scheduled_result_matches_serial_execution() {
        let cluster = Cluster::new(3);
        let plan = agg_plan(60);
        let (serial, serial_metrics) = cluster.execute(&plan).unwrap();
        let sched = Scheduler::new(cluster);
        let (batch, snap) = sched
            .submit(QuerySpec::new(plan, "agg"))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(sorted_rows(&batch), sorted_rows(&serial));
        assert_eq!(snap.fingerprint(), serial_metrics.snapshot().fingerprint());
        let job = &sched.jobs()[0];
        assert_eq!(job.state, JobState::Done);
        assert!(job.batches > 0);
        assert!(job.sim_clock_ms > 0, "batches advance the simulated clock");
    }

    #[test]
    fn and_then_runs_at_delivery_and_can_fail_it() {
        let sched = Scheduler::new(Cluster::new(2));
        let delivered = Arc::new(AtomicBool::new(false));
        let flag = delivered.clone();
        let handle = sched
            .submit(QuerySpec::new(agg_plan(20), "sealed"))
            .unwrap()
            .and_then(move |output| {
                flag.store(true, Ordering::Release);
                Ok(output)
            });
        let id = handle.id();
        while sched.job(id).unwrap().state != JobState::Done {
            std::thread::yield_now();
        }
        assert!(
            !delivered.load(Ordering::Acquire),
            "a finished job nobody waited for is not delivered"
        );
        handle.wait().unwrap();
        assert!(delivered.load(Ordering::Acquire));

        let err = sched
            .submit(QuerySpec::new(agg_plan(20), "refused"))
            .unwrap()
            .and_then(|_| Err(FudjError::Storage("seal failed".into())))
            .wait()
            .unwrap_err();
        assert!(matches!(err, FudjError::Storage(_)), "{err}");
    }

    #[test]
    fn admission_queues_fifo_and_rejects_past_the_queue_limit() {
        let cluster = Cluster::new(2);
        let sched = Scheduler::with_config(
            cluster,
            SchedulerConfig {
                max_inflight: 1,
                queue_limit: 1,
                ..SchedulerConfig::default()
            },
        );
        let release = Arc::new(AtomicBool::new(false));
        let blocker = sched
            .submit(QuerySpec::new(blocking_plan(8, release.clone()), "blocker"))
            .unwrap();
        let queued = sched
            .submit(QuerySpec::new(agg_plan(20), "queued"))
            .unwrap();
        // Queue is now full: the third submission is cleanly rejected.
        let err = sched
            .submit(QuerySpec::new(agg_plan(20), "rejected"))
            .unwrap_err();
        assert!(matches!(err, FudjError::Admission(_)), "{err}");
        assert!(err.to_string().contains("queue is full"), "{err}");
        assert_eq!(sched.job(queued.id()).unwrap().state, JobState::Queued);
        assert_eq!(sched.in_flight(), 2, "one running, one queued");

        release.store(true, Ordering::Release);
        blocker.wait().unwrap();
        // The queued query is admitted once the blocker releases its slot.
        queued.wait().unwrap();
        assert_eq!(
            sched
                .jobs()
                .iter()
                .filter(|j| j.state == JobState::Done)
                .count(),
            2
        );
        assert_eq!(sched.in_flight(), 0);
    }

    #[test]
    fn memory_quota_gates_admission() {
        let cluster = Cluster::new(2);
        let sched = Scheduler::with_config(
            cluster,
            SchedulerConfig {
                max_inflight: 8,
                memory_quota_rows: Some(100),
                ..SchedulerConfig::default()
            },
        );
        // A budget the quota can never satisfy is rejected immediately.
        let err = sched
            .submit(QuerySpec::new(agg_plan(20), "too-big").with_memory_budget_rows(150))
            .unwrap_err();
        assert!(matches!(err, FudjError::Admission(_)), "{err}");

        let release = Arc::new(AtomicBool::new(false));
        let big = sched
            .submit(
                QuerySpec::new(blocking_plan(8, release.clone()), "big")
                    .with_memory_budget_rows(80),
            )
            .unwrap();
        let small = sched
            .submit(QuerySpec::new(agg_plan(20), "small").with_memory_budget_rows(30))
            .unwrap();
        // 80 + 30 > 100: the second query waits despite free inflight slots.
        assert_eq!(sched.job(small.id()).unwrap().state, JobState::Queued);
        release.store(true, Ordering::Release);
        big.wait().unwrap();
        small.wait().unwrap();
    }

    #[test]
    fn cancel_before_start_never_executes() {
        let cluster = Cluster::new(2);
        let sched = Scheduler::with_config(
            cluster,
            SchedulerConfig {
                max_inflight: 1,
                ..SchedulerConfig::default()
            },
        );
        let release = Arc::new(AtomicBool::new(false));
        let blocker = sched
            .submit(QuerySpec::new(blocking_plan(8, release.clone()), "blocker"))
            .unwrap();
        let victim = sched
            .submit(QuerySpec::new(agg_plan(20), "victim"))
            .unwrap();
        sched.cancel(victim.id()).unwrap();
        let err = victim.wait().unwrap_err();
        assert!(matches!(err, FudjError::Cancelled(_)), "{err}");
        let info = sched.job(2).unwrap();
        assert_eq!(info.state, JobState::Cancelled);
        assert_eq!(info.batches, 0, "cancelled before any dispatch");

        release.store(true, Ordering::Release);
        blocker.wait().unwrap();
        // The scheduler stays usable and correct after the cancellation.
        let (batch, _) = sched
            .submit(QuerySpec::new(agg_plan(20), "after"))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(batch.len(), 5);
    }

    #[test]
    fn deadline_aborts_and_later_queries_are_unaffected() {
        let cluster = Cluster::new(2);
        let serial = cluster.execute(&agg_plan(40)).unwrap().0;
        let sched = Scheduler::new(cluster);
        // Every fault-free batch advances the simulated clock by
        // SIM_TASK_MS (100 ms); a 150 ms deadline dies at the second
        // batch boundary.
        let err = sched
            .submit(QuerySpec::new(agg_plan(40), "deadlined").with_deadline_ms(150))
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(err, FudjError::Deadline(_)), "{err}");
        assert_eq!(sched.job(1).unwrap().state, JobState::DeadlineExceeded);

        let (batch, _) = sched
            .submit(QuerySpec::new(agg_plan(40), "after"))
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(sorted_rows(&batch), sorted_rows(&serial));
    }

    #[test]
    fn deadline_expires_inside_a_fault_retry_loop() {
        // Certain transient faults + huge backoff: the very first task
        // enters the retry loop and the simulated backoff blows the
        // deadline inside it — the query must stop there, not burn the
        // whole retry budget.
        let mut faults = fudj_exec::FaultConfig::quiet(11);
        faults.transient_prob = 1.0;
        faults.retry.max_retries = 50;
        faults.retry.backoff_base_ms = 10_000;
        let cluster = Cluster::with_faults(2, faults);
        let sched = Scheduler::new(cluster);
        let err = sched
            .submit(QuerySpec::new(agg_plan(40), "retrying").with_deadline_ms(5_000))
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(err, FudjError::Deadline(_)), "{err}");
        let info = sched.job(1).unwrap();
        assert_eq!(info.state, JobState::DeadlineExceeded);
        assert!(
            info.sim_clock_ms >= 5_000,
            "backoff advanced the clock past the deadline: {info:?}"
        );
    }

    #[test]
    fn weighted_round_robin_grants_are_bounded() {
        // Drive the WRR policy directly: two always-waiting queries with
        // priorities 3 and 1 must interleave as A,A,A,B repeating — B
        // waits at most `priority(A)` grants between its turns.
        let sched = Scheduler::with_config(Cluster::new(1), SchedulerConfig::default());
        let (a, b) = (1u64, 2u64);
        let mut st = sched.inner.lock();
        for (id, priority) in [(a, 3u32), (b, 1u32)] {
            st.jobs.insert(
                id,
                Job {
                    label: format!("job-{id}"),
                    priority,
                    state: JobState::Running,
                    ctrl: Arc::new(QueryControl::new("wrr", None)),
                    credits: priority,
                    waiting: true,
                    budget_rows: 0,
                    batches: 0,
                    error: None,
                },
            );
            st.running.push(id);
        }
        let mut order = Vec::new();
        for _ in 0..16 {
            let winner = [a, b]
                .into_iter()
                .find(|&id| st.grant(id))
                .expect("some waiting job must win");
            order.push(winner);
        }
        assert_eq!(
            order,
            vec![a, a, a, b, a, a, a, b, a, a, a, b, a, a, a, b],
            "priority-3 query gets 3 consecutive grants, then priority-1"
        );
        // Bounded wait: the gap between consecutive grants to B never
        // exceeds A's priority.
        let b_positions: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(_, &id)| id == b)
            .map(|(i, _)| i)
            .collect();
        for w in b_positions.windows(2) {
            assert!(w[1] - w[0] <= 4, "unbounded wait: {order:?}");
        }
    }

    #[test]
    fn concurrent_mixed_queries_match_serial() {
        let cluster = Cluster::new(3);
        let plans: Vec<Arc<PhysicalPlan>> = (0..6).map(|i| agg_plan(30 + i * 10)).collect();
        let serial: Vec<Vec<Vec<Value>>> = plans
            .iter()
            .map(|p| sorted_rows(&cluster.execute(p).unwrap().0))
            .collect();
        let sched = Scheduler::with_config(
            cluster,
            SchedulerConfig {
                max_inflight: 6,
                stage_slots: 2,
                ..SchedulerConfig::default()
            },
        );
        let handles: Vec<JobHandle> = plans
            .iter()
            .enumerate()
            .map(|(i, p)| {
                sched
                    .submit(
                        QuerySpec::new(p.clone(), format!("q{i}"))
                            .with_priority(1 + (i % 3) as u32),
                    )
                    .unwrap()
            })
            .collect();
        for (h, expected) in handles.into_iter().zip(&serial) {
            let (batch, _) = h.wait().unwrap();
            assert_eq!(&sorted_rows(&batch), expected);
        }
        assert!(
            !sched.grant_log().is_empty(),
            "dispatch went through the gate"
        );
    }

    #[test]
    fn finished_jobs_past_the_bound_are_forgotten_oldest_first() {
        let sched = Scheduler::new(Cluster::new(1));
        // A job that never finishes is never forgotten, however old.
        sched.inner.lock().jobs.insert(
            0,
            Job {
                label: "parked".into(),
                priority: 1,
                state: JobState::Running,
                ctrl: Arc::new(QueryControl::new("parked", None)),
                credits: 1,
                waiting: false,
                budget_rows: 0,
                batches: 0,
                error: None,
            },
        );
        let plan = Arc::new(PhysicalPlan::Scan {
            dataset: dataset(1, 1),
        });
        let total = FINISHED_JOBS_KEPT as u64 + 10;
        for _ in 0..total {
            let handle = sched.submit(QuerySpec::new(plan.clone(), "tiny")).unwrap();
            handle.wait().unwrap();
        }
        assert_eq!(sched.jobs().len(), FINISHED_JOBS_KEPT + 1);
        assert_eq!(sched.job(0).unwrap().state, JobState::Running);
        assert!(
            (1..=10).all(|id| sched.job(id).is_none()),
            "oldest forgotten"
        );
        assert!(
            (11..=total).all(|id| sched.job(id).is_some()),
            "newest kept"
        );
    }
}
