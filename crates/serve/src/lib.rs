//! Multi-tenant serving tier over the FUDJ engine.
//!
//! The paper's §VII-B measures the translation overhead of flexible
//! user-defined joins and argues it is amortized by plan caching in a
//! serving deployment. This crate builds that deployment shape:
//! thousands of logical tenant sessions multiplexed over one engine
//! ([`fudj_sql::Session`] + the `fudj-sched` scheduler), with
//!
//! * a **plan cache** — parse→bind→plan runs once per distinct statement
//!   shape (normalized via [`fudj_sql::fingerprint`]);
//! * a **result cache** with epoch-based ingest invalidation — every
//!   `Dataset` append and every catalog/registry DDL bumps an epoch, and
//!   cached entries are only served while their recorded epoch vector
//!   still matches, so a stale read is structurally impossible;
//! * **latency observability** — fixed-bucket log-scale histograms
//!   (p50/p95/p99/max on the simulated clock) per tenant and global,
//!   plus [`fudj_exec::ServingStats`] counters stamped into every
//!   response's `MetricsSnapshot`;
//! * a **deterministic workload generator** (seeded tenant mixes with
//!   Zipf-skewed shape popularity) that drives both the differential
//!   tests and `fudjbench`'s `serve_mix` workload.
//!
//! Entry point: [`ServingTier::serve`] — SQL text in, cached-or-computed
//! rows out, bit-identical to what an uncached session would return.

pub mod cache;
pub mod histogram;
pub mod sample;
pub mod tier;
pub mod workload;

pub use cache::{CacheCounters, LruCache};
pub use histogram::LatencyHistogram;
pub use sample::sample_session;
pub use tier::ServingTier;
pub use workload::{generate, MixProfile, Op, QueryClass, WorkloadConfig, Zipf, SHAPES};
