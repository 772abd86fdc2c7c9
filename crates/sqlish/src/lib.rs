//! SQL front end: lexer, parser, binder, and a session façade.
//!
//! The supported subset is exactly what the paper's statements need:
//!
//! * `CREATE JOIN name(arg: type, ...) RETURNS boolean AS "class" AT lib`
//!   and `DROP JOIN name(...)` — the §VI-A lifecycle (Query 4);
//! * `SELECT ... FROM ds1 a [, ds2 b [, ds3 c]] WHERE ... [GROUP BY ...]
//!   [ORDER BY ... [DESC]] [LIMIT n]` — the shape of Queries 1–3 and 5,
//!   with scalar built-ins and aggregate functions;
//! * `EXPLAIN SELECT ...` — renders the optimized physical plan, which is
//!   how the tests (and a curious user) confirm a FUDJ operator was chosen;
//! * `PREPARE name AS SELECT ... $1 ...` / `EXECUTE name(values...)` —
//!   parse once, run many times; the session's plan cache and the serving
//!   tier's result cache key on the [`fingerprint`] of the normalized
//!   statement.
//!
//! [`Session`] wires the catalog, the join registry, the planner, and a
//! cluster together: `session.execute(sql)` goes from text to a result
//! batch.

pub mod ast;
pub mod binder;
pub mod cache;
mod durability;
pub mod fingerprint;
pub mod lexer;
pub mod parser;
pub mod session;

pub use cache::{CacheCounters, LruCache};
pub use fingerprint::{
    param_count, shape_of, statement_fingerprint, substitute_params, StatementKey, StatementShape,
};
pub use parser::parse;
pub use session::{Knob, QueryOutput, ResumedQuery, Scope, ServingConfig, Session, KNOBS};
