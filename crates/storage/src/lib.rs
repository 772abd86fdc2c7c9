//! In-memory partitioned storage and the catalog.
//!
//! The paper runs on a 12-node shared-nothing cluster: every dataset is
//! horizontally partitioned across the nodes, and the engine's exchanges
//! move rows between them. This crate models that storage layer on one
//! machine: a [`Dataset`] owns one row vector per storage partition
//! (hash-partitioned by primary key, as AsterixDB does), and the
//! [`Catalog`] names datasets for the planner and the SQL front end.

pub mod catalog;
pub mod checkpoint;
pub mod csv;
pub mod dataset;
pub mod durable;
pub mod faultfs;
pub mod snapshot;
pub mod wal;

pub use catalog::{Catalog, CatalogSink};
pub use checkpoint::{CheckpointStore, CheckpointStoreStats, PutOutcome, CHECKPOINT_DIR};
pub use csv::{read_csv, write_csv};
pub use dataset::{AppendSink, Dataset, DatasetBuilder};
pub use durable::{
    fold_journal, CommittedStage, DurabilityStats, DurableStore, PendingQuery, RecoveredState,
    CRASH_POINTS, QUERY_CRASH_POINTS,
};
pub use faultfs::{DiskFs, FaultFs, StorageFaultConfig, Vfs, VfsFaultCounters};
pub use snapshot::{SnapshotState, SnapshotTable};
pub use wal::{parse_data_type, replay_wal, GuardSpec, JoinSpec, WalRecord};
