//! Concurrent query scheduler for the FUDJ cluster.
//!
//! The execution engine (`fudj-exec`) runs one plan at a time: a call to
//! [`fudj_exec::Cluster::execute`] owns every batch the worker pool runs
//! until the query finishes. This crate multiplexes **many** concurrent
//! queries over that same shared pool:
//!
//! * [`Scheduler`] provides admission control (max in-flight queries, an
//!   aggregate memory-budget-rows quota, a bounded FIFO wait queue),
//!   weighted round-robin fair-share dispatch across runnable queries,
//!   per-query cancellation, and simulated-clock deadlines;
//! * [`JobHandle`] is the async side: submit returns immediately, `wait`
//!   blocks for the result, `cancel` stops the query at its next task
//!   boundary.
//!
//! `fudj-sql` runs every SELECT a session executes as one of these jobs,
//! so the job body is the only place a query reaches
//! [`fudj_exec::Cluster::execute_with`].
//!
//! The load-bearing invariant (checked by the differential tests in the
//! umbrella crate): for any batch of queries, concurrent scheduled
//! execution is **result- and per-query-metrics-identical** to running
//! the same queries serially, because each query's counters live in its
//! own [`fudj_exec::QueryMetrics`]/fault context and every decision the
//! engine makes is deterministic per query.

pub mod scheduler;

pub use scheduler::{
    JobHandle, JobInfo, JobOutput, JobState, QuerySpec, Scheduler, SchedulerConfig,
};
