//! Logical plans, the query optimizer, and physical lowering.
//!
//! This crate is the reproduction of §VI-C: given a logical join query, the
//! optimizer detects FUDJ predicates by looking the condition's function
//! calls up in the [`fudj_core::JoinRegistry`], and rewrites the join into
//! the Fig. 8 FUDJ plan. Everything else is the conventional machinery a
//! DBMS wraps around that rewrite:
//!
//! * [`expr`] — an expression tree with the scalar built-ins the paper's
//!   queries use (`ST_Contains`, `ST_MakePoint`, `ST_Distance`,
//!   `jaccard_similarity`, `overlapping_interval`, `parse_date`, ...),
//!   bound against schemas into `fudj_exec`'s [`BoundExpr`] data, with
//!   each function resolved to its body once, at bind time;
//! * [`logical`] — Scan / Filter / Project / Join / Aggregate / Sort /
//!   Limit, plus the post-rewrite `FudjJoin` node;
//! * [`optimizer`] — predicate pushdown, the **FUDJ detection & rewrite
//!   rule**, the self-join summarize-once annotation, and (implicitly, via
//!   `EngineJoin::uses_default_match`) the hash-join selection;
//! * [`physical`] — lowering to `fudj_exec` physical plans whose
//!   predicates and projections are those bound expressions.
//!
//! Joins whose condition contains no registered FUDJ function lower to the
//! *on-top* plan: broadcast NLJ with the condition as its predicate —
//! exactly the baseline the paper measures FUDJ against. [`PlanOptions::force_on_top`]
//! forces that path even when a FUDJ is registered, which is how the
//! experiments produce the on-top series.

pub mod expr;
pub mod functions;
pub mod logical;
pub mod optimizer;
pub mod physical;

pub use expr::{BinOp, BoundExpr, Expr};
pub use logical::LogicalPlan;
pub use optimizer::{optimize, PlanOptions};
pub use physical::lower;

use fudj_core::JoinRegistry;
use fudj_exec::PhysicalPlan;
use fudj_types::Result;

/// One-call pipeline: optimize a logical plan and lower it to a physical
/// plan.
pub fn plan(
    logical: LogicalPlan,
    registry: &JoinRegistry,
    options: &PlanOptions,
) -> Result<PhysicalPlan> {
    let optimized = optimize(logical, registry, options)?;
    lower(&optimized, registry, options)
}
