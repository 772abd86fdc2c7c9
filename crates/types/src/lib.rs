//! Value model, schemas, rows, and the FUDJ external-type protocol.
//!
//! This crate is the vocabulary shared by every layer of the reproduction:
//!
//! * [`Value`] / [`DataType`] — the engine-native ("internal", in the
//!   paper's Fig. 7 sense) type system: the role AsterixDB's
//!   `AInt`/`APoint`/... play in the original.
//! * [`Schema`] / [`Row`] / [`Batch`] — tabular data flowing between
//!   operators.
//! * [`FudjError`] — the error type used across the workspace.
//! * [`ext::ExtValue`] — the *simple external types* a FUDJ library sees,
//!   plus the translation protocol converting engine values to them.
//!   This is the paper's proxy-built-in-function serialization boundary.
//! * [`wire`] — a compact binary row format used by exchange operators so
//!   the simulated cluster's shuffled-byte accounting is honest.
//! * [`counters!`] — the declare-once table every counter group (engine,
//!   fault, UDF guard, recovery, durability, serving) is generated from.

pub mod counters;
pub mod datatype;
pub mod error;
pub mod ext;
pub mod row;
pub mod schema;
pub mod value;
pub mod wire;

pub use datatype::DataType;
pub use error::{FudjError, Result};
pub use ext::ExtValue;
pub use row::{Batch, Row};
pub use schema::{Field, Schema, SchemaRef};
pub use value::Value;
