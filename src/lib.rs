//! # fudj-repro — FUDJ: Flexible User-Defined Distributed Joins, in Rust
//!
//! Umbrella crate re-exporting the whole workspace under one name, used by
//! the runnable examples and the cross-crate integration tests. See the
//! individual crates for the real API surface:
//!
//! * [`core`] (`fudj-core`) — the FUDJ programming model (the paper's
//!   contribution): [`core::FlexibleJoin`], the join registry, the
//!   standalone runner;
//! * [`joins`] — the paper's three example join libraries + baselines;
//! * [`exec`] — the simulated shared-nothing cluster;
//! * [`planner`] — the optimizer with the FUDJ rewrite rule;
//! * [`sched`] — the concurrent query scheduler (admission control,
//!   fair-share dispatch, cancellation, deadlines);
//! * [`serve`] — the multi-tenant serving tier (tenant priorities,
//!   admission accounting, a result cache with epoch-based ingest
//!   invalidation);
//! * [`sql`] — the SQL front end (`CREATE JOIN`, SELECT subset, EXPLAIN)
//!   and the session with its plan cache;
//! * [`datagen`] — seeded synthetic datasets standing in for Table I;
//! * [`types`], [`geo`], [`textutil`], [`temporal`], [`storage`] —
//!   substrates.
//!
//! ## Quickstart
//!
//! ```
//! use fudj_repro::sql::Session;
//! use fudj_repro::joins::standard_library;
//! use fudj_repro::datagen::{parks, wildfires, GeneratorConfig};
//!
//! let session = Session::new(4);
//! session.install_library(standard_library());
//! session.register_dataset(parks(GeneratorConfig::new(200, 1, 4)).unwrap()).unwrap();
//! session.register_dataset(wildfires(GeneratorConfig::new(500, 2, 4)).unwrap()).unwrap();
//!
//! session.execute(r#"CREATE JOIN st_contains(a: polygon, b: point)
//!                    RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins"#).unwrap();
//!
//! let damaged = session.query(
//!     "SELECT p.id, COUNT(w.id) AS num_fires \
//!      FROM Parks p, Wildfires w \
//!      WHERE ST_Contains(p.boundary, w.location) \
//!      GROUP BY p.id ORDER BY num_fires DESC LIMIT 10").unwrap();
//! assert!(!damaged.is_empty());
//! ```

pub use fudj_core as core;
pub use fudj_datagen as datagen;
pub use fudj_exec as exec;
pub use fudj_geo as geo;
pub use fudj_joins as joins;
pub use fudj_planner as planner;
pub use fudj_sched as sched;
pub use fudj_serve as serve;
pub use fudj_sql as sql;
pub use fudj_storage as storage;
pub use fudj_temporal as temporal;
pub use fudj_text as textutil;
pub use fudj_types as types;
