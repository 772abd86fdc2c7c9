//! Persistent worker pool — the cluster's long-lived "nodes".
//!
//! Earlier revisions spawned a fresh batch of OS threads (via
//! `std::thread::scope`) for every exchange stage and every per-partition
//! operator, so a single FUDJ join created dozens of short-lived threads
//! and no thread identity survived from one phase to the next. The pool
//! replaces that: [`WorkerPool::new`] spawns one thread per simulated
//! worker exactly once (when the [`crate::Cluster`] is built), and every
//! phase of every query dispatches partition `i` to worker `i % size` —
//! the same OS thread plays the same cluster node for the lifetime of the
//! cluster, which is also what makes per-worker busy-time metrics
//! meaningful.
//!
//! Scheduling contract: tasks submitted by one [`WorkerPool::run`] call
//! must not themselves call back into the pool — there is no work
//! stealing, so a worker blocking on sub-tasks queued behind itself would
//! deadlock. Re-entrant calls are detected with a thread-local flag and
//! degrade to inline (sequential) execution instead.
//!
//! A panicking task is caught on the worker, surfaced to the caller as
//! [`FudjError::Execution`], and leaves the worker thread alive — one
//! poisoned query cannot take down the cluster.

use crate::control::{DispatchGate, QueryControl};
use crate::fault::{FaultContext, TaskFault, SIM_TASK_MS};
use crate::metrics::QueryMetrics;
use crate::recovery::RecoveryContext;
use crossbeam::channel::{unbounded, Sender};
use fudj_types::{FudjError, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A unit of work shipped to a worker thread.
type Task = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// Set while this thread is executing a pool task (re-entrancy guard).
    static IN_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Number of dispatch-gate slots this (coordinator) thread currently
    /// holds. A batch nested inside a gated batch — e.g. an operator that
    /// fans out again from the coordinator — must not re-acquire the
    /// gate, or a single-slot scheduler would deadlock against itself.
    static GATE_DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// RAII slot held on the scheduler's dispatch gate for one batch.
struct GateGuard {
    gate: Arc<dyn DispatchGate>,
    tasks: usize,
}

impl GateGuard {
    /// Acquire the gate for a batch of `tasks` tasks, unless this thread
    /// already holds a slot (nested batch) or is a worker thread.
    fn acquire(metrics: Option<&QueryMetrics>, tasks: usize) -> Result<Option<GateGuard>> {
        let Some(gate) = metrics.and_then(|m| m.gate().cloned()) else {
            return Ok(None);
        };
        if IN_WORKER.with(|g| g.get()) || GATE_DEPTH.with(|d| d.get()) > 0 {
            return Ok(None);
        }
        gate.enter(tasks)?;
        GATE_DEPTH.with(|d| d.set(d.get() + 1));
        Ok(Some(GateGuard { gate, tasks }))
    }
}

impl Drop for GateGuard {
    fn drop(&mut self) {
        GATE_DEPTH.with(|d| d.set(d.get() - 1));
        self.gate.exit(self.tasks);
    }
}

/// Fixed-size pool of long-lived worker threads, one per simulated
/// cluster node.
pub struct WorkerPool {
    senders: Vec<Sender<Task>>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.senders.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawn `workers` threads, named `fudj-worker-<i>`.
    ///
    /// # Panics
    /// Panics when `workers` is zero or the OS refuses to spawn a thread.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "worker pool needs at least one worker");
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = unbounded::<Task>();
            let handle = std::thread::Builder::new()
                .name(format!("fudj-worker-{w}"))
                .spawn(move || {
                    // Tasks catch their own panics, so this loop only ends
                    // when the pool drops its sender.
                    while let Ok(task) = rx.recv() {
                        task();
                    }
                })
                .expect("failed to spawn worker thread");
            senders.push(tx);
            handles.push(handle);
        }
        WorkerPool { senders, handles }
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.senders.len()
    }

    /// Run `f(i, item)` for every item, item `i` on worker `i % size`;
    /// blocks until all complete. Equivalent to [`Self::run_metered`]
    /// without metrics.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Result<Vec<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> Result<R> + Sync,
    {
        self.run_metered(items, None, f)
    }

    /// Run `f(i, item)` for every item in parallel and, when metrics are
    /// given, charge each worker's busy time (attributed to the metrics'
    /// active phase). Results come back in item order. A task that
    /// panics yields `Err(FudjError::Execution)` for its slot without
    /// killing its worker thread.
    ///
    /// When the metrics carry an armed [`FaultContext`], every task runs
    /// inside a recovery loop: injected panics/transients are retried
    /// with simulated exponential backoff, an injected worker loss
    /// re-executes the task attributed to the next surviving worker, and
    /// an exhausted retry budget escalates as [`FudjError::Execution`].
    /// After the batch completes, tasks whose simulated duration exceeded
    /// the policy's multiple of the batch median are speculatively
    /// re-executed (the faster copy wins, in simulation).
    pub fn run_metered<T, R, F>(
        &self,
        items: Vec<T>,
        metrics: Option<&QueryMetrics>,
        f: F,
    ) -> Result<Vec<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> Result<R> + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        // Scheduler control plane: stop at this batch boundary if the
        // query was cancelled or blew its deadline, then wait for a
        // dispatch slot (fair-share interleaving happens between batches).
        let ctrl: Option<Arc<QueryControl>> = metrics.and_then(|m| m.control().cloned());
        if let Some(c) = &ctrl {
            c.check()?;
        }
        let _gate = GateGuard::acquire(metrics, n)?;
        // One dispatch step per batch, claimed by the coordinator so the
        // fault schedule is identical across runs of the same query.
        let site: Option<FaultSite> =
            metrics
                .and_then(|m| m.fault().cloned())
                .map(|ctx| FaultSite {
                    step: ctx.next_step(),
                    ctx,
                });
        let size = self.size();
        // Membership-aware routing: partition i goes to its home worker
        // i % size while that worker is active, else to the recovery
        // layer's rendezvous pick among survivors. Quarantines flagged by
        // worker threads since the last batch are applied here, on the
        // coordinator, so the active set is frozen for the whole batch.
        let rec: Option<Arc<RecoveryContext>> = metrics.and_then(|m| m.recovery().cloned());
        if let Some(r) = &rec {
            r.on_batch_start();
        }
        let route = |i: usize| match &rec {
            Some(r) => r.route(i),
            None => i % size,
        };

        // Single partition, or already on a worker thread (re-entrant
        // call): execute inline. Dispatching one task buys nothing, and
        // re-entrant dispatch could deadlock (see module docs).
        if n == 1 || IN_WORKER.with(|g| g.get()) {
            let mut done: Vec<TaskDone<R>> = Vec::with_capacity(n);
            for (i, item) in items.into_iter().enumerate() {
                let start = Instant::now();
                let (worker, sim_ms, result) =
                    run_task_recovered(&site, &ctrl, &rec, &f, route(i), size, i, item);
                if let Some(m) = metrics {
                    m.charge_worker_busy(worker, start.elapsed());
                }
                done.push((i, worker, sim_ms, result));
            }
            return finish_batch(&site, &ctrl, n, done);
        }

        type Sent<R> = (TaskDone<R>, std::time::Duration);
        let (done_tx, done_rx) = unbounded::<Sent<R>>();
        for (i, item) in items.into_iter().enumerate() {
            let worker = route(i);
            let tx = done_tx.clone();
            let f = &f;
            let site = &site;
            let ctrl = &ctrl;
            let rec = &rec;
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                IN_WORKER.with(|g| g.set(true));
                let start = Instant::now();
                let (eff_worker, sim_ms, result) =
                    run_task_recovered(site, ctrl, rec, f, worker, size, i, item);
                IN_WORKER.with(|g| g.set(false));
                // The receiver outlives every task (see below), so this
                // send cannot fail while results are still awaited.
                let _ = tx.send(((i, eff_worker, sim_ms, result), start.elapsed()));
            });
            // SAFETY: the task borrows `f`/`site`/`ctrl`/`rec` and moves
            // `item`/`tx`,
            // all of which live for the rest of this call. Every submitted
            // task sends exactly one completion message and the loop below
            // blocks until all `n` messages arrive, so no task (and no
            // borrow inside it) outlives this stack frame. The worker
            // channels cannot drop tasks unexecuted while `&self` is
            // borrowed, because senders are only closed in `Drop`.
            let task: Task =
                unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, Task>(task) };
            self.senders[worker]
                .send(task)
                .unwrap_or_else(|_| unreachable!("worker channels live as long as the pool"));
        }
        drop(done_tx);

        let mut done: Vec<TaskDone<R>> = Vec::with_capacity(n);
        for _ in 0..n {
            // Cannot disconnect before `n` sends: every task sends once
            // and workers cannot exit while the pool is alive. Must not
            // return before all tasks finish (safety invariant above).
            let (completed, busy) = done_rx
                .recv()
                .expect("every dispatched task reports completion");
            if let Some(m) = metrics {
                // Busy time goes to the *effective* worker — under an
                // injected worker loss the re-executed task's work belongs
                // to the surviving worker that ran it.
                m.charge_worker_busy(completed.1, busy);
            }
            done.push(completed);
        }
        finish_batch(&site, &ctrl, n, done)
    }
}

/// `(slot, effective worker, simulated duration ms, result)` of one task.
type TaskDone<R> = (usize, usize, u64, Result<R>);

/// A batch's fault-injection site: the armed context plus the dispatch
/// step the coordinator claimed for this batch.
struct FaultSite {
    ctx: Arc<FaultContext>,
    step: u64,
}

/// Post-process one batch: apply the speculation policy to simulated
/// straggler durations, advance the simulated clock (both the fault
/// layer's and the control plane's) by the batch makespan, and collect
/// results in slot order.
fn finish_batch<R>(
    site: &Option<FaultSite>,
    ctrl: &Option<Arc<QueryControl>>,
    n: usize,
    done: Vec<TaskDone<R>>,
) -> Result<Vec<R>> {
    let mut slots: Vec<Option<Result<R>>> = (0..n).map(|_| None).collect();
    if let Some(site) = site {
        let policy = site.ctx.config().retry;
        let mut sims: Vec<u64> = done.iter().map(|(_, _, sim, _)| *sim).collect();
        sims.sort_unstable();
        let median = sims[sims.len() / 2].max(1);
        let threshold = median.saturating_mul(policy.straggler_multiple.max(1) as u64);
        let mut makespan = 0u64;
        for (i, _, sim, result) in done {
            let effective = if sim > threshold {
                // Speculative copy launched on another worker; the
                // non-delayed copy finishes first and wins.
                site.ctx.note_speculation();
                SIM_TASK_MS
            } else {
                sim
            };
            makespan = makespan.max(effective);
            slots[i] = Some(result);
        }
        site.ctx.advance_sim_clock(makespan);
        if let Some(c) = ctrl {
            c.advance(makespan);
        }
    } else {
        for (i, _, _, result) in done {
            slots[i] = Some(result);
        }
        if let Some(c) = ctrl {
            // Fault-free batches still take one simulated task round, so
            // deadlines mean something without an armed fault plan.
            c.advance(SIM_TASK_MS);
        }
    }
    slots
        .into_iter()
        .map(|s| {
            s.unwrap_or_else(|| {
                Err(FudjError::Execution(
                    "worker batch lost a task completion (slot never filled)".into(),
                ))
            })
        })
        .collect()
}

/// Execute one task under the recovery loop. Injected faults happen
/// *before* the single real execution of `f` (a lost or panicked attempt
/// never consumed the item), so retrying needs no `Clone` bound and the
/// real work runs exactly once. Returns the effective worker (changes
/// under worker loss), the simulated duration, and the result.
///
/// An attached [`QueryControl`] is checked at the start of every attempt
/// and again after every simulated backoff, so a cancellation or a
/// deadline expiring *inside* the retry loop stops the task there instead
/// of burning the rest of the retry budget.
#[allow(clippy::too_many_arguments)] // internal helper: three optional attachments + task identity
fn run_task_recovered<T, R, F>(
    site: &Option<FaultSite>,
    ctrl: &Option<Arc<QueryControl>>,
    rec: &Option<Arc<RecoveryContext>>,
    f: &F,
    worker: usize,
    pool_size: usize,
    i: usize,
    item: T,
) -> (usize, u64, Result<R>)
where
    F: Fn(usize, T) -> Result<R>,
{
    let Some(site) = site else {
        if let Some(c) = ctrl {
            if let Err(e) = c.check() {
                return (worker, SIM_TASK_MS, Err(e));
            }
        }
        return (worker, SIM_TASK_MS, run_task(f, i, item));
    };
    let ctx = &site.ctx;
    let policy = ctx.config().retry;
    let mut w = worker;
    let mut attempt: u32 = 0;
    loop {
        if let Some(c) = ctrl {
            if let Err(e) = c.check() {
                return (w, SIM_TASK_MS, Err(e));
            }
        }
        let Some(fault) = ctx.task_fault(site.step, w, i, attempt) else {
            // Healthy attempt: run the real task, straggling if injected.
            let sim_ms = if ctx.straggles(site.step, w, i) {
                ctx.note_straggler();
                SIM_TASK_MS * policy.straggler_factor.max(1) as u64
            } else {
                SIM_TASK_MS
            };
            return (w, sim_ms, run_task(f, i, item));
        };
        ctx.note_task_fault(fault);
        if let Some(r) = rec {
            // Health tracking: the injected fault counts against the
            // worker it struck (circuit-breaker input). State changes are
            // deferred to the next batch boundary.
            r.note_task_failure(w);
        }
        let failure = match fault {
            TaskFault::Panic => {
                // Genuinely unwind through the worker's catch path so the
                // panic-isolation machinery is exercised, not simulated.
                match run_task(
                    &|_, _: ()| -> Result<R> {
                        panic!("injected fault: task {i} on worker {w} (attempt {attempt})")
                    },
                    i,
                    (),
                ) {
                    Err(e) => e,
                    Ok(_) => unreachable!("injected panic must surface as an error"),
                }
            }
            TaskFault::Transient => FudjError::Execution(format!(
                "injected fault: transient failure of task {i} on worker {w} (attempt {attempt})"
            )),
            TaskFault::WorkerLoss => FudjError::Execution(format!(
                "injected fault: worker {w} lost while running task {i} (attempt {attempt})"
            )),
        };
        if attempt >= policy.max_retries {
            ctx.note_exhaustion();
            return (
                w,
                SIM_TASK_MS,
                Err(FudjError::Execution(format!(
                    "retry budget exhausted after {} attempts: {failure}",
                    attempt + 1
                ))),
            );
        }
        if fault == TaskFault::WorkerLoss {
            // Re-execute on the next surviving worker — skipping dead or
            // quarantined slots when membership is tracked.
            w = match rec {
                Some(r) => r.membership().next_active_after(w),
                None => (w + 1) % pool_size,
            };
            ctx.note_reexecution();
        }
        let waited_ms = ctx.backoff(attempt);
        if let Some(c) = ctrl {
            // Backoff burns simulated time against this query's deadline.
            c.advance(waited_ms);
        }
        ctx.note_task_retry();
        attempt += 1;
    }
}

/// Run one task body, converting a panic into an execution error.
fn run_task<T, R, F>(f: &F, i: usize, item: T) -> Result<R>
where
    F: Fn(usize, T) -> Result<R>,
{
    catch_unwind(AssertUnwindSafe(|| f(i, item))).unwrap_or_else(|payload| {
        // `&*payload`: downcast the payload itself, not the `Box<dyn Any>`
        // (which is `'static + Sized`, hence itself `Any`, and would
        // shadow the inner string under plain `&payload` coercion).
        Err(FudjError::Execution(format!(
            "worker task panicked: {}",
            panic_message(&*payload)
        )))
    })
}

/// Best-effort extraction of a panic payload's message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channels ends each worker's recv loop.
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc::{self, RecvTimeoutError};

    #[test]
    fn runs_items_in_order_preserving_slots() {
        let pool = WorkerPool::new(4);
        let out = pool
            .run((0..20).collect(), |i, x: i32| Ok((i as i32, x * 2)))
            .unwrap();
        for (i, (idx, doubled)) in out.iter().enumerate() {
            assert_eq!(*idx, i as i32);
            assert_eq!(*doubled, 2 * i as i32);
        }
    }

    #[test]
    fn same_threads_serve_across_calls() {
        // The whole point of the pool: worker i is the same OS thread in
        // every phase of every query on this cluster.
        let pool = WorkerPool::new(3);
        let names = |_: ()| {
            pool.run(vec![0usize, 1, 2], |_, _| {
                Ok(std::thread::current().name().unwrap_or_default().to_owned())
            })
            .unwrap()
        };
        let first = names(());
        let second = names(());
        assert_eq!(first, second);
        assert_eq!(first.len(), 3);
        assert_eq!(
            first.iter().collect::<HashSet<_>>().len(),
            3,
            "three distinct workers"
        );
        assert!(
            first.iter().all(|n| n.starts_with("fudj-worker-")),
            "{first:?}"
        );
    }

    #[test]
    fn borrows_from_caller_stack_work() {
        let pool = WorkerPool::new(2);
        let data = vec![10i64, 20, 30, 40];
        let data_ref = &data;
        let out = pool
            .run(vec![0usize, 1, 2, 3], |_, i| Ok(data_ref[i] + 1))
            .unwrap();
        assert_eq!(out, vec![11, 21, 31, 41]);
    }

    #[test]
    fn panic_surfaces_as_error_without_poisoning_pool() {
        let pool = WorkerPool::new(2);
        let err = pool
            .run(vec![0, 1, 2, 3], |_, x: i32| {
                if x == 2 {
                    panic!("boom on {x}");
                }
                Ok(x)
            })
            .unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("panicked") && msg.contains("boom on 2"),
            "{msg}"
        );

        // The pool keeps working after the panic — no dead worker, no
        // poisoned lock.
        let ok = pool.run(vec![1, 2, 3], |_, x: i32| Ok(x * 10)).unwrap();
        assert_eq!(ok, vec![10, 20, 30]);
    }

    #[test]
    fn error_results_propagate_without_cancelling_other_items() {
        let pool = WorkerPool::new(2);
        let completed = AtomicUsize::new(0);
        let result = pool.run(vec![0, 1, 2, 3], |_, x: i32| {
            if x == 1 {
                Err(FudjError::Execution("bad item".into()))
            } else {
                completed.fetch_add(1, Ordering::SeqCst);
                Ok(x)
            }
        });
        assert!(result.is_err());
        assert_eq!(completed.load(Ordering::SeqCst), 3, "other items still ran");
    }

    #[test]
    fn reentrant_use_degrades_to_inline_not_deadlock() {
        let pool = WorkerPool::new(2);
        // A task that (incorrectly) fans out again: must complete, inline.
        let out = pool
            .run(vec![0usize, 1], |_, _| {
                let inner = pool.run(vec![10i64, 20], |_, v| Ok(v))?;
                Ok(inner.into_iter().sum::<i64>())
            })
            .unwrap();
        assert_eq!(out, vec![30, 30]);
    }

    #[test]
    fn injected_panic_exhaustion_escalates_with_message_and_pool_survives() {
        let pool = WorkerPool::new(2);
        let mut config = fudj_core::FaultConfig::quiet(99);
        config.panic_prob = 1.0;
        config.retry.max_retries = 2;
        let m = QueryMetrics::with_config(None, Some(config));
        let err = pool
            .run_metered(vec![0, 1, 2], Some(&m), |_, x: i32| Ok(x))
            .unwrap_err();
        let msg = err.to_string();
        // The escalation wraps the last underlying failure, so the panic
        // message survives all the way to the caller.
        assert!(
            msg.contains("retry budget exhausted after 3 attempts"),
            "{msg}"
        );
        assert!(msg.contains("panicked"), "{msg}");
        assert!(msg.contains("injected fault"), "{msg}");
        let f = m.snapshot().fault;
        assert_eq!(f.injected_panics, 9, "3 tasks x 3 attempts: {f:?}");
        assert_eq!(f.task_retries, 6);
        assert_eq!(f.retry_exhaustions, 3);

        // Every injected panic genuinely unwound on a worker thread, and
        // the pool is immediately reusable afterwards.
        let ok = pool.run(vec![1, 2, 3], |_, x: i32| Ok(x * 10)).unwrap();
        assert_eq!(ok, vec![10, 20, 30]);
    }

    #[test]
    fn injected_faults_recover_and_counters_reproduce_per_seed() {
        let pool = WorkerPool::new(3);
        let mut config = fudj_core::FaultConfig::chaos(4242);
        config.retry.max_retries = 16; // never exhaust at chaos rates
        let run = || {
            let m = QueryMetrics::with_config(None, Some(config));
            let out = pool
                .run_metered((0..40).collect(), Some(&m), |_, x: i64| Ok(x * 3))
                .unwrap();
            (out, m.snapshot().fault)
        };
        let (out, f) = run();
        assert_eq!(out, (0..40).map(|x| x * 3).collect::<Vec<_>>());
        assert!(f.total_injected() > 0, "chaos must inject: {f:?}");
        assert_eq!(f.retry_exhaustions, 0, "{f:?}");
        // Every non-escalated task fault costs exactly one retry, and
        // every worker loss re-executes on a survivor.
        assert_eq!(
            f.task_retries,
            f.injected_panics + f.injected_transients + f.injected_worker_losses,
            "{f:?}"
        );
        assert_eq!(f.reexecutions, f.injected_worker_losses, "{f:?}");

        // Same seed, fresh context: bit-identical schedule and counters.
        let (out2, f2) = run();
        assert_eq!(out, out2);
        assert_eq!(f, f2);
    }

    #[test]
    fn stragglers_get_speculated_and_advance_the_simulated_clock() {
        let pool = WorkerPool::new(2);
        let mut config = fudj_core::FaultConfig::quiet(7);
        config.straggler_prob = 0.25;
        let m = QueryMetrics::with_config(None, Some(config));
        pool.run_metered((0..32).collect(), Some(&m), |_, x: i32| Ok(x))
            .unwrap();
        let f = m.snapshot().fault;
        assert!(f.injected_stragglers > 0, "{f:?}");
        // At this rate the batch median is a healthy task, so every
        // straggler (10x median) crosses the 3x speculation threshold.
        assert_eq!(f.speculations, f.injected_stragglers, "{f:?}");
        assert!(f.sim_clock_ms >= SIM_TASK_MS, "{f:?}");
    }

    /// Dropping a pool joins its workers, which leave their receive loop
    /// when the channel disconnects. Pools are created and dropped one at
    /// a time, so each drop races a worker that is just parking; a missed
    /// wakeup would block `drop` forever. The pools live on a helper
    /// thread, and the test fails when they have not all dropped within
    /// the watchdog's time instead of hanging.
    #[test]
    fn pools_drop_without_hanging() {
        const POOLS: usize = 300;
        let (done_tx, done_rx) = mpsc::channel();
        let pools = std::thread::spawn(move || {
            for i in 0..POOLS {
                let pool = WorkerPool::new(2);
                if i % 2 == 0 {
                    assert_eq!(pool.run(vec![1, 2], |_, x: i32| Ok(x)).unwrap(), [1, 2]);
                }
                drop(pool);
            }
            let _ = done_tx.send(());
        });
        let timeout = std::time::Duration::from_secs(60);
        if let Err(RecvTimeoutError::Timeout) = done_rx.recv_timeout(timeout) {
            panic!("a worker pool's drop hung: {POOLS} pools not dropped in 60 s");
        }
        pools.join().expect("a pool failed");
    }

    #[test]
    fn empty_and_single_item_fast_paths() {
        let pool = WorkerPool::new(4);
        assert!(pool
            .run(Vec::<i32>::new(), |_, x| Ok(x))
            .unwrap()
            .is_empty());
        assert_eq!(pool.run(vec![7], |_, x: i32| Ok(x + 1)).unwrap(), vec![8]);
    }
}
