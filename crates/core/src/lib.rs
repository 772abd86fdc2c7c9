//! # FUDJ — the Flexible User-Defined Distributed Join programming model
//!
//! This crate is the paper's primary contribution, rebuilt in Rust. A
//! developer adds a new *partition-based distributed join algorithm* to the
//! engine by implementing the small [`FlexibleJoin`] trait — the Rust
//! rendering of the paper's SUMMARIZE / PARTITION / COMBINE functions:
//!
//! | Paper function                       | Trait method                         |
//! |--------------------------------------|--------------------------------------|
//! | `local_aggregate(key, S)`            | [`FlexibleJoin::summarize`]          |
//! | `global_aggregate(S1, S2)`           | [`FlexibleJoin::merge_summaries`]    |
//! | `divide(S1, S2) → PPlan`             | [`FlexibleJoin::divide`]             |
//! | `assign(key, PPlan) → [bucket_id]`   | [`FlexibleJoin::assign`]             |
//! | `match(b1, b2)` (default: equality)  | [`FlexibleJoin::matches`]            |
//! | `verify(k1, k2)`                     | [`FlexibleJoin::verify`]             |
//! | `dedup(...)` (default: avoidance)    | [`FlexibleJoin::custom_dedup`] + [`DedupMode`] |
//!
//! The engine never calls user code directly. It talks to the dyn-safe
//! [`JoinAlgorithm`] interface (the paper's *internal actor*), and
//! [`ProxyJoin`] adapts any `FlexibleJoin` to it (the *proxy built-in
//! function* of Fig. 7), carrying the typed `Summary`/`PPlan` states across
//! the boundary as type-erased, serializable [`state`] objects — the same
//! role AsterixDB's "treat PPlan as a record of type Object" plays.
//!
//! Join libraries are installed and joins created/dropped through the
//! [`JoinRegistry`] — the `CREATE JOIN` / `DROP JOIN` lifecycle — without
//! rebuilding or restarting anything.
//!
//! Finally, [`standalone`] is the paper's single-machine prototype (§VI-D2):
//! it runs any `JoinAlgorithm` through the full three-phase flow in plain
//! sequential code, for debugging new join libraries and as a reference
//! semantics for the distributed engine's tests.

pub mod engine;
pub mod flexible;
pub mod guard;
pub mod library;
pub mod model;
pub mod registry;
pub mod standalone;
pub mod state;

pub use engine::{reference_execute, EngineJoin, FaultConfig, FudjEngineJoin, RetryPolicy};
pub use flexible::{FlexibleJoin, ProxyJoin};
pub use guard::{
    consume_udf_time, GuardConfig, GuardHandle, GuardMode, GuardedJoin, UdfLimits, UdfPolicy,
    UdfStats,
};
pub use library::{JoinLibrary, JoinLibraryBuilder};
pub use model::{avoidance_accepts, first_matching_pair, BucketId, DedupMode, JoinAlgorithm, Side};
pub use registry::{JoinDefinition, JoinLease, JoinRegistry, RegistryEvent, RegistrySink};
pub use state::{PPlanState, StateObject, SummaryState};
