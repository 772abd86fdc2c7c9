//! Multi-tenant serving tier over the FUDJ engine.
//!
//! The paper's §VII-B measures the translation overhead of flexible
//! user-defined joins and argues it is amortized by plan caching in a
//! serving deployment. The plan cache itself is the session's
//! ([`fudj_sql::Session`] binds and optimizes each statement shape once,
//! for every caller); this crate builds the deployment shape around it:
//! thousands of logical tenant sessions multiplexed over one engine
//! (the session + the `fudj-sched` scheduler), with
//!
//! * per-tenant **priorities** and **admission accounting** — admissions,
//!   rejections and the queue-depth high-water, plus the session's plan
//!   cache counters, in [`fudj_exec::ServingStats`], stamped into every
//!   response's `MetricsSnapshot`;
//! * a **result cache** with epoch-based ingest invalidation — every
//!   `Dataset` append and every catalog/registry DDL bumps an epoch, and
//!   cached entries are only served while their recorded epoch vector
//!   still matches, so a stale read is structurally impossible;
//! * a **deterministic workload generator** (seeded tenant mixes with
//!   Zipf-skewed shape popularity) that drives both the differential
//!   tests and `fudjbench`'s `serve_mix` workload.
//!
//! Entry point: [`ServingTier::serve`] — SQL text in, cached-or-computed
//! rows out, bit-identical to what an uncached session would return.

pub mod sample;
pub mod tier;
pub mod workload;

pub use sample::sample_session;
pub use tier::ServingTier;
pub use workload::{generate, MixProfile, Op, QueryClass, WorkloadConfig, Zipf, SHAPES};
