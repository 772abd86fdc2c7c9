//! Deterministic fault injection + recovery bookkeeping for the exec layer.
//!
//! A [`FaultContext`] wraps a [`FaultConfig`] (the seed + probabilities +
//! [`fudj_core::RetryPolicy`] knobs defined in `fudj-core`) and answers
//! one question for every injection site: *does a fault happen here?*
//! Sites are fully identified by
//! `(seed, step, worker, task-or-src/dst, attempt)`:
//!
//! * `step` is a per-query dispatch counter taken by the coordinator at
//!   the start of every pool batch and every exchange — the coordinator
//!   drives those sequentially, so the counter is reproducible;
//! * decisions are *pure functions* of the site (a fresh
//!   [`SmallRng`] seeded from the mixed site words), never draws from a
//!   shared stream — so worker-thread interleaving cannot perturb the
//!   schedule, and the same seed always yields the same faults, the same
//!   retries, and the same counters.
//!
//! The clock used by exponential backoff and straggler/speculation
//! accounting is *simulated* (a `u64` of milliseconds): recovery paths are
//! exercised without wall-clock sleeping, and no decision ever reads real
//! time or ambient randomness.
//!
//! Recovery itself lives where the work happens — the per-task retry loop
//! in [`crate::pool::WorkerPool::run_metered`], and
//! retransmission/sequence-dedup in the [`crate::exchange`] operators.
//! This module only decides and counts.

use fudj_core::FaultConfig;
use fudj_types::{FudjError, Result};
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

/// Fault injected into one task attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskFault {
    /// The attempt panics (unwinds through the worker's catch path).
    Panic,
    /// The attempt fails with a retryable execution error.
    Transient,
    /// The worker running the attempt is lost; the task must be
    /// re-executed on a surviving worker.
    WorkerLoss,
}

/// Fault injected into one remote partition delivery attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryFault {
    /// The partition never arrives (sender retransmits).
    Drop,
    /// The partition arrives twice (receiver discards the duplicate).
    Duplicate,
}

fudj_types::counters! {
    /// Counters for injected faults and the recovery work they triggered.
    /// Deterministic per seed: two runs of the same query with the same
    /// [`FaultConfig`] produce identical stats.
    pub struct FaultStats("fault."), cells StatsCells {
        /// Task attempts that panicked by injection.
        injected_panics: sum,
        /// Task attempts that failed with an injected transient error.
        injected_transients: sum,
        /// Task attempts lost to an injected worker failure.
        injected_worker_losses: sum,
        /// Tasks slowed by an injected straggler delay.
        injected_stragglers: sum,
        /// Remote partition deliveries dropped by injection.
        dropped_deliveries: sum,
        /// Remote partition deliveries duplicated by injection.
        duplicated_deliveries: sum,
        /// Duplicate partition copies discarded by receiver sequence dedup.
        duplicates_discarded: sum,
        /// Task retries performed (all fault classes).
        task_retries: sum,
        /// Tasks re-executed on a different worker after a worker loss.
        reexecutions: sum,
        /// Tasks speculatively re-executed because they straggled past the
        /// policy threshold.
        speculations: sum,
        /// Partition retransmissions performed after drops.
        delivery_retries: sum,
        /// Failures that exhausted the retry budget and escalated.
        retry_exhaustions: sum,
        /// Simulated milliseconds spent in backoff + straggler delays.
        sim_clock_ms: sum,
    }
}

impl FaultStats {
    /// Total faults injected across all classes.
    pub fn total_injected(&self) -> u64 {
        self.injected_panics
            + self.injected_transients
            + self.injected_worker_losses
            + self.injected_stragglers
            + self.dropped_deliveries
            + self.duplicated_deliveries
    }

    /// Total recovery actions taken (retries, re-executions, speculation,
    /// retransmissions).
    pub fn total_recoveries(&self) -> u64 {
        self.task_retries + self.reexecutions + self.speculations + self.delivery_retries
    }
}

/// Simulated base duration of one fault-free task, in milliseconds. Only
/// relative magnitudes matter: stragglers multiply this, and speculation
/// compares against the batch median.
pub const SIM_TASK_MS: u64 = 100;

/// Domain-separation salts so a task site and a delivery site with the
/// same numeric coordinates can never share a decision.
const SALT_TASK: u64 = 0x7461736b_66617532; // "task" / "fau2"
const SALT_STRAGGLER: u64 = 0x73747261_67676c65; // "straggle"
const SALT_DELIVERY: u64 = 0x64656c69_76657279; // "delivery"
const SALT_DEATH: u64 = 0x64656164_6e6f6465; // "deadnode"

/// One query's armed fault plan: configuration + deterministic decision
/// oracle + recovery counters + simulated clock.
pub struct FaultContext {
    config: FaultConfig,
    step: AtomicU64,
    stats: StatsCells,
}

impl std::fmt::Debug for FaultContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultContext")
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Mix site words into one seed (SplitMix64-style finalization per word).
fn mix(seed: u64, words: &[u64]) -> u64 {
    let mut h = seed;
    for &w in words {
        h ^= w
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(h << 6)
            .wrapping_add(h >> 2);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

impl FaultContext {
    /// Arm a fault plan for one query execution.
    pub fn new(config: FaultConfig) -> Self {
        FaultContext {
            config,
            step: AtomicU64::new(0),
            stats: StatsCells::default(),
        }
    }

    /// The configuration this context was armed with.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Claim the next dispatch step. Called by the coordinator at the
    /// start of every pool batch / exchange, so the sequence is identical
    /// across runs of the same query.
    pub fn next_step(&self) -> u64 {
        self.step.fetch_add(1, Ordering::Relaxed)
    }

    /// Uniform `[0, 1)` roll for one site — a pure function of
    /// `(seed, salt, words)`.
    fn roll(&self, salt: u64, words: &[u64]) -> f64 {
        let mut rng = SmallRng::seed_from_u64(mix(self.config.seed ^ salt, words));
        rng.gen::<f64>()
    }

    /// Fault (if any) injected into attempt `attempt` of task `task` of
    /// dispatch `step`, running on `worker`. At most one fault per
    /// attempt; the classes partition one roll so their probabilities are
    /// exact and mutually exclusive.
    pub fn task_fault(
        &self,
        step: u64,
        worker: usize,
        task: usize,
        attempt: u32,
    ) -> Option<TaskFault> {
        let c = &self.config;
        let r = self.roll(
            SALT_TASK,
            &[step, worker as u64, task as u64, attempt as u64],
        );
        if r < c.panic_prob {
            Some(TaskFault::Panic)
        } else if r < c.panic_prob + c.worker_loss_prob {
            Some(TaskFault::WorkerLoss)
        } else if r < c.panic_prob + c.worker_loss_prob + c.transient_prob {
            Some(TaskFault::Transient)
        } else {
            None
        }
    }

    /// Whether a *permanent* worker death strikes at the stage boundary
    /// that claimed dispatch `step`. Unlike [`TaskFault::WorkerLoss`]
    /// (transient: the task re-executes and the worker keeps serving),
    /// a death removes the worker and its resident partitions for good —
    /// the recovery layer (`crate::recovery`) restores the lost
    /// partitions from checkpoints or replays the stage.
    ///
    /// Returns a deterministic victim-selector word when a death strikes;
    /// callers map it onto the currently-active worker set. Callers must
    /// only claim a dispatch step for this site when
    /// `worker_death_prob > 0`, so fault schedules of death-free configs
    /// stay bit-identical to earlier revisions.
    pub fn worker_death(&self, step: u64) -> Option<u64> {
        let p = self.config.worker_death_prob;
        if p <= 0.0 || self.roll(SALT_DEATH, &[step]) >= p {
            return None;
        }
        Some(mix(self.config.seed ^ SALT_DEATH, &[step, u64::MAX]))
    }

    /// Whether the (successful) execution of `task` on `worker` straggles.
    pub fn straggles(&self, step: u64, worker: usize, task: usize) -> bool {
        self.config.straggler_prob > 0.0
            && self.roll(SALT_STRAGGLER, &[step, worker as u64, task as u64])
                < self.config.straggler_prob
    }

    /// Fault (if any) injected into delivery attempt `attempt` of the
    /// partition travelling `src → dst` in dispatch `step`.
    pub fn delivery_fault(
        &self,
        step: u64,
        src: usize,
        dst: usize,
        attempt: u32,
    ) -> Option<DeliveryFault> {
        let c = &self.config;
        let r = self.roll(
            SALT_DELIVERY,
            &[step, src as u64, dst as u64, attempt as u64],
        );
        if r < c.drop_prob {
            Some(DeliveryFault::Drop)
        } else if r < c.drop_prob + c.duplicate_prob {
            Some(DeliveryFault::Duplicate)
        } else {
            None
        }
    }

    /// Resolve one remote partition delivery with recovery: dropped
    /// deliveries are retransmitted (with simulated backoff) until they
    /// arrive or the retry budget runs out; a duplicated delivery yields
    /// two copies for the receiver to dedup. Returns how many copies
    /// arrive (1 or 2).
    pub fn deliver(&self, step: u64, src: usize, dst: usize) -> Result<u32> {
        let mut attempt = 0u32;
        loop {
            match self.delivery_fault(step, src, dst, attempt) {
                Some(DeliveryFault::Drop) => {
                    self.stats.dropped_deliveries.add(1);
                    if attempt >= self.config.retry.max_retries {
                        self.stats.retry_exhaustions.add(1);
                        return Err(FudjError::Execution(format!(
                            "injected fault: partition {src} → {dst} lost; \
                             retry budget exhausted after {} retransmissions",
                            attempt
                        )));
                    }
                    self.stats.delivery_retries.add(1);
                    self.backoff(attempt);
                    attempt += 1;
                }
                Some(DeliveryFault::Duplicate) => {
                    self.stats.duplicated_deliveries.add(1);
                    return Ok(2);
                }
                None => return Ok(1),
            }
        }
    }

    /// Advance the simulated clock by the exponential backoff of `attempt`.
    /// Returns the simulated milliseconds added, so callers that track a
    /// per-query clock (scheduler deadlines) can mirror the advance.
    pub fn backoff(&self, attempt: u32) -> u64 {
        let ms = self
            .config
            .retry
            .backoff_base_ms
            .saturating_mul(1u64 << attempt.min(20));
        self.stats.sim_clock_ms.add(ms);
        ms
    }

    /// Advance the simulated clock by `ms` milliseconds.
    pub fn advance_sim_clock(&self, ms: u64) {
        self.stats.sim_clock_ms.add(ms);
    }

    /// Record an injected task fault of the given kind.
    pub fn note_task_fault(&self, fault: TaskFault) {
        match fault {
            TaskFault::Panic => self.stats.injected_panics.add(1),
            TaskFault::Transient => self.stats.injected_transients.add(1),
            TaskFault::WorkerLoss => self.stats.injected_worker_losses.add(1),
        }
    }

    /// Record one task retry.
    pub fn note_task_retry(&self) {
        self.stats.task_retries.add(1);
    }

    /// Record a re-execution on a surviving worker.
    pub fn note_reexecution(&self) {
        self.stats.reexecutions.add(1);
    }

    /// Record an injected straggler.
    pub fn note_straggler(&self) {
        self.stats.injected_stragglers.add(1);
    }

    /// Record a speculative re-execution.
    pub fn note_speculation(&self) {
        self.stats.speculations.add(1);
    }

    /// Record a duplicate partition copy discarded by a receiver.
    pub fn note_duplicate_discarded(&self) {
        self.stats.duplicates_discarded.add(1);
    }

    /// Record a retry-budget exhaustion (escalated failure).
    pub fn note_exhaustion(&self) {
        self.stats.retry_exhaustions.add(1);
    }

    /// Copy out the counters.
    pub fn stats(&self) -> FaultStats {
        self.stats.load()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fudj_core::RetryPolicy;

    #[test]
    fn decisions_are_pure_functions_of_the_site() {
        let a = FaultContext::new(FaultConfig::chaos(42));
        let b = FaultContext::new(FaultConfig::chaos(42));
        for step in 0..50u64 {
            for worker in 0..4 {
                for task in 0..8 {
                    for attempt in 0..3 {
                        assert_eq!(
                            a.task_fault(step, worker, task, attempt),
                            b.task_fault(step, worker, task, attempt)
                        );
                        assert_eq!(
                            a.delivery_fault(step, worker, task, attempt),
                            b.delivery_fault(step, worker, task, attempt)
                        );
                    }
                    assert_eq!(
                        a.straggles(step, worker, task),
                        b.straggles(step, worker, task)
                    );
                }
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultContext::new(FaultConfig::chaos(1));
        let b = FaultContext::new(FaultConfig::chaos(2));
        let schedule = |c: &FaultContext| -> Vec<Option<TaskFault>> {
            (0..200u64)
                .map(|s| c.task_fault(s, (s % 4) as usize, (s % 8) as usize, 0))
                .collect()
        };
        assert_ne!(schedule(&a), schedule(&b));
    }

    #[test]
    fn quiet_config_never_injects() {
        let c = FaultContext::new(FaultConfig::quiet(99));
        assert!(!c.config().is_active());
        for step in 0..100u64 {
            assert_eq!(c.task_fault(step, 0, 0, 0), None);
            assert_eq!(c.delivery_fault(step, 0, 1, 0), None);
            assert!(!c.straggles(step, 0, 0));
        }
        assert_eq!(c.stats(), FaultStats::default());
        assert!(!c.stats().any());
    }

    #[test]
    fn chaos_config_injects_roughly_at_rate() {
        let c = FaultContext::new(FaultConfig::chaos(7));
        let n = 20_000u64;
        let hits = (0..n)
            .filter(|&s| c.task_fault(s, 0, 0, 0).is_some())
            .count() as f64;
        // panic + loss + transient = 0.13 of all attempts.
        let rate = hits / n as f64;
        assert!((0.10..0.16).contains(&rate), "rate={rate}");
    }

    #[test]
    fn dropped_delivery_retransmits_until_arrival() {
        let c = FaultContext::new(FaultConfig {
            drop_prob: 0.5,
            duplicate_prob: 0.0,
            ..FaultConfig::quiet(3)
        });
        let mut copies = 0u32;
        for step in 0..200 {
            copies += c.deliver(step, 1, 0).unwrap();
        }
        assert_eq!(copies, 200, "every delivery eventually arrives once");
        let s = c.stats();
        assert!(s.dropped_deliveries > 0);
        assert_eq!(s.delivery_retries, s.dropped_deliveries);
        assert!(s.sim_clock_ms > 0, "backoff advanced the simulated clock");
    }

    #[test]
    fn certain_drop_exhausts_budget_and_escalates() {
        let c = FaultContext::new(FaultConfig {
            drop_prob: 1.0,
            retry: RetryPolicy {
                max_retries: 3,
                ..RetryPolicy::default()
            },
            ..FaultConfig::quiet(5)
        });
        let err = c.deliver(0, 2, 0).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("retry budget exhausted"), "{msg}");
        assert_eq!(c.stats().retry_exhaustions, 1);
        assert_eq!(c.stats().dropped_deliveries, 4, "initial + 3 retries");
    }

    #[test]
    fn duplicate_delivery_yields_two_copies() {
        let c = FaultContext::new(FaultConfig {
            duplicate_prob: 1.0,
            ..FaultConfig::quiet(8)
        });
        assert_eq!(c.deliver(0, 1, 0).unwrap(), 2);
        assert_eq!(c.stats().duplicated_deliveries, 1);
    }

    #[test]
    fn steps_count_up() {
        let c = FaultContext::new(FaultConfig::quiet(0));
        assert_eq!(c.next_step(), 0);
        assert_eq!(c.next_step(), 1);
        assert_eq!(c.next_step(), 2);
    }

    #[test]
    fn stats_totals_sum_classes() {
        let s = FaultStats {
            injected_panics: 1,
            injected_transients: 2,
            injected_worker_losses: 3,
            injected_stragglers: 4,
            dropped_deliveries: 5,
            duplicated_deliveries: 6,
            task_retries: 7,
            reexecutions: 8,
            speculations: 9,
            delivery_retries: 10,
            ..FaultStats::default()
        };
        assert_eq!(s.total_injected(), 21);
        assert_eq!(s.total_recoveries(), 34);
        assert!(s.any());
    }
}
