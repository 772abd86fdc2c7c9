//! Simulated shared-nothing execution engine.
//!
//! The paper evaluates FUDJ on a 12-node AsterixDB cluster. This crate
//! stands in for that substrate: a [`Cluster`] of N workers (OS threads),
//! each owning one horizontal partition of every intermediate result, with
//! explicit [`exchange`] operators moving rows between them. Every row that
//! crosses workers is serialized through the wire format and the bytes are
//! accounted in [`QueryMetrics`] — the network cost that drives the paper's
//! partitioning design discussion stays visible even though the "network"
//! is a memcpy.
//!
//! Physical operators ([`plan::PhysicalPlan`]):
//!
//! * `Scan`, `Filter`, `Project`, `HashAggregate` (two-step: partial →
//!   shuffle by group → final), `Sort`, `Limit` — the relational scaffolding
//!   the paper's Queries 1–3 and 5 need around their joins, with
//!   predicates and projections as [`expr::BoundExpr`] data;
//! * [`plan::FudjJoinNode`] — the Fig. 8 plan: SUMMARIZE (parallel local
//!   aggregate + gather + global aggregate), DIVIDE (coordinator) +
//!   broadcast of the `PPlan`, ASSIGN/UNNEST + shuffle (hash by bucket for
//!   default-match joins, broadcast of one side for theta multi-joins),
//!   local bucket join with `verify`, and duplicate handling (avoidance
//!   inline, elimination as an extra shuffle + distinct);
//! * `NlJoin` — the *on-top* baseline: broadcast one side, nested-loop with
//!   the join condition as its predicate.
//!
//! Execution is stage-synchronous (operators materialize partitioned
//! results), matching how these plans execute as aggregation/repartition
//! stages in the original system.

//! Workers are *persistent*: a [`Cluster`] owns a [`pool::WorkerPool`]
//! spawned once at construction, and every phase of every query runs
//! partition `i` on the same pool thread `i` — so per-worker counters in
//! [`MetricsSnapshot::per_worker`] describe stable node identities.
//!
//! The cluster can run under a deterministic *fault plan* ([`fault`]):
//! a seeded [`FaultConfig`] injects task panics, transient errors, worker
//! loss, stragglers, and dropped/duplicated deliveries, and the pool and
//! exchanges recover via bounded retries with simulated-clock backoff,
//! re-execution on surviving workers, and speculative re-execution — all
//! reproducible from the single seed.
//!
//! On top of transient faults sits the [`recovery`] layer: optional stage
//! checkpointing into a [`fudj_storage::CheckpointStore`], lineage-scoped
//! partial recovery from permanent *worker deaths* (recompute only the lost
//! partitions, restore the rest from checkpoints), and elastic worker
//! [`Membership`] with decommission/add and a failure-rate quarantine
//! circuit breaker.

pub mod aggregate;
pub mod columnar;
pub mod control;
pub mod exchange;
pub mod executor;
pub mod expr;
pub mod fault;
pub mod fudj_join;
pub mod metrics;
pub mod mode;
pub mod plan;
pub mod pool;
pub mod recovery;
pub mod spill;

pub use control::{DispatchGate, QueryControl};
pub use executor::{Cluster, ExecOptions, PartitionedData};
pub use expr::{BinOp, BoundExpr, ScalarFn};
pub use fault::{DeliveryFault, FaultContext, FaultStats, TaskFault};
pub use fudj_core::{
    FaultConfig, GuardConfig, GuardMode, GuardedJoin, RetryPolicy, UdfLimits, UdfPolicy, UdfStats,
};
pub use metrics::{apply_seed, flatten_counters};
pub use metrics::{
    CounterFingerprint, EngineStats, MetricsSnapshot, NetworkModel, PhaseSkew, QueryMetrics,
    ServingStats, WorkerStats,
};
pub use mode::ExecMode;
pub use plan::{AggFunc, Aggregate, CmpOp, ColumnCompare, FudjJoinNode, PhysicalPlan, SortKey};
pub use pool::{panic_message, WorkerPool};
pub use recovery::{
    ClusterRecovery, CounterSeed, Membership, QueryJournal, QueryTag, RecoveryContext,
    RecoveryStats, ResumeSpec, WorkerInfo, WorkerState,
};
