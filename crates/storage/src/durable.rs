//! The durable store: WAL + snapshots + crash recovery, behind one handle.
//!
//! A [`DurableStore`] owns one directory laid out as:
//!
//! ```text
//! MANIFEST                     -- checksummed pointer to the live version
//! snapshot-{v:010}.fsnap       -- atomic state image covering seqs ≤ its last_seq
//! wal-{v:010}.flog             -- records appended since snapshot v
//! ```
//!
//! [`DurableStore::open`] runs the recovery state machine:
//!
//! 1. **locate** — read the manifest; if missing/corrupt (counted), fall
//!    back to scanning the directory for the newest checksum-valid
//!    snapshot;
//! 2. **load** — decode that snapshot; corruption quarantines it (counted)
//!    and falls back to the next older valid one, else the empty state;
//! 3. **replay** — decode every WAL segment at or above the loaded
//!    version, merge records by sequence number, and apply those past the
//!    snapshot's `last_seq`; torn tails are *physically truncated*,
//!    corrupt frames and inconsistent records (duplicate DDL, appends to
//!    unknown tables, width-mismatched rows) are quarantined and counted
//!    — recovery never fails open and never panics.
//!
//! Every counter lands in [`DurabilityStats`], which the session stamps
//! into `MetricsSnapshot` so `\metrics` and the differential fingerprints
//! see durability work.

use crate::faultfs::Vfs;
use crate::snapshot::{
    decode_manifest, decode_snapshot, encode_manifest, encode_snapshot_at, parse_versioned,
    snapshot_name, wal_name, SnapshotState, SnapshotTable, MANIFEST_NAME,
};
use crate::wal::{encode_frame, replay_wal, JoinSpec, WalRecord, WAL_MAGIC};
use fudj_types::Result;
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fudj_types::counters! {
    /// Lifetime durability counters for one store (plus the fault layer's
    /// injection counts). Deterministic per seed and operation sequence.
    pub struct DurabilityStats("durability.") {
        /// WAL records appended.
        wal_records_appended: sum,
        /// WAL bytes appended (framing included — comparable to shuffle and
        /// checkpoint byte meters).
        wal_bytes_appended: sum,
        /// Fsyncs issued against the WAL.
        wal_fsyncs: sum,
        /// Fsyncs the (simulated) disk silently dropped.
        fsyncs_dropped: sum,
        /// Snapshots committed.
        snapshots_written: sum,
        /// Snapshot bytes written.
        snapshot_bytes_written: sum,
        /// WAL records replayed during recovery.
        wal_records_replayed: sum,
        /// Table rows restored via replayed appends.
        rows_replayed: sum,
        /// WAL tails physically truncated as torn.
        torn_tails_truncated: sum,
        /// Corrupt WAL frames skipped (checksum failure with resync).
        corrupt_records_quarantined: sum,
        /// Corrupt snapshot/manifest artifacts set aside during recovery.
        corrupt_snapshots_quarantined: sum,
        /// Replayed records dropped as inconsistent (duplicate DDL, appends
        /// to unknown tables, width-mismatched rows).
        replay_quarantined: sum,
        /// Query-journal records appended (`QuerySubmitted` /
        /// `StageCommitted` / `QueryFinished`).
        journal_records_appended: sum,
        /// Query-journal records recovered during replay.
        journal_records_replayed: sum,
        /// Storage faults injected by the fault layer (bit flips + dropped
        /// fsyncs + simulated crashes).
        faults_injected: sum,
    }
}

/// State handed back by [`DurableStore::open`]: the committed prefix the
/// directory proves.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveredState {
    /// Tables in creation order, rows included.
    pub tables: Vec<SnapshotTable>,
    /// Registered joins in creation order.
    pub joins: Vec<JoinSpec>,
    /// Query-journal records (`QuerySubmitted` / `StageCommitted` /
    /// `QueryFinished`) in sequence order. The session folds these into
    /// pending queries and resumes the unfinished ones; journal records
    /// are never part of the table/join state above.
    pub journal: Vec<(u64, WalRecord)>,
}

impl RecoveredState {
    fn table_mut(&mut self, name: &str) -> Option<&mut SnapshotTable> {
        self.tables.iter_mut().find(|t| t.name == name)
    }

    /// Apply one replayed record. Returns rows restored, or `Err(())` when
    /// the record is inconsistent with the state built so far (the caller
    /// quarantines it).
    fn apply(
        &mut self,
        rec: WalRecord,
        quarantined_rows: &mut u64,
    ) -> std::result::Result<u64, ()> {
        match rec {
            WalRecord::CreateTable {
                name,
                fields,
                primary_key,
                partitions,
            } => {
                if self.table_mut(&name).is_some() {
                    return Err(());
                }
                self.tables.push(SnapshotTable {
                    name,
                    fields,
                    primary_key,
                    partitions,
                    rows: Vec::new(),
                });
                Ok(0)
            }
            WalRecord::DropTable { name } => {
                let before = self.tables.len();
                self.tables.retain(|t| t.name != name);
                if self.tables.len() == before {
                    return Err(());
                }
                Ok(0)
            }
            WalRecord::Append { table, rows } => {
                let Some(t) = self.table_mut(&table) else {
                    return Err(());
                };
                let width = t.fields.len();
                let mut restored = 0;
                for row in rows {
                    if row.len() == width {
                        t.rows.push(row);
                        restored += 1;
                    } else {
                        *quarantined_rows += 1;
                    }
                }
                Ok(restored)
            }
            WalRecord::CreateJoin(spec) => {
                if self.joins.iter().any(|j| j.name == spec.name) {
                    return Err(());
                }
                self.joins.push(spec);
                Ok(0)
            }
            WalRecord::DropJoin { name } => {
                let before = self.joins.len();
                self.joins.retain(|j| j.name != name);
                if self.joins.len() == before {
                    return Err(());
                }
                Ok(0)
            }
            // Journal records are routed into `journal` before apply();
            // reaching here means a caller bug, so quarantine rather than
            // corrupt table/join state.
            WalRecord::QuerySubmitted { .. }
            | WalRecord::StageCommitted { .. }
            | WalRecord::QueryFinished { .. } => Err(()),
        }
    }
}

/// One stage boundary a pending query durably committed.
#[derive(Clone, Debug, PartialEq)]
pub struct CommittedStage {
    /// Stage name (`join:partition`, `join:combine`, `agg:shuffle`).
    pub stage: String,
    /// Flattened logical counters at the boundary.
    pub counters: Vec<(String, u64)>,
    /// Phase names completed before the boundary, in order.
    pub phases: Vec<String>,
}

/// A journaled query that never logged `QueryFinished` — the resume
/// protocol's unit of work after a crash.
#[derive(Clone, Debug, PartialEq)]
pub struct PendingQuery {
    /// Stable statement fingerprint.
    pub fingerprint: u64,
    /// The statement text, verbatim.
    pub sql: String,
    /// `(knob, value)` pairs to re-apply before re-planning.
    pub options: Vec<(String, String)>,
    /// Committed stage boundaries in commit order (deduped by stage —
    /// a second crash during resume re-commits the same boundary).
    pub committed: Vec<CommittedStage>,
}

/// Fold replayed journal records into the set of still-pending queries:
/// `QuerySubmitted` opens one (idempotently — a resume re-submits under
/// the same fingerprint), `StageCommitted` appends a boundary (deduped by
/// stage name), `QueryFinished` closes it. Orphan records whose
/// submission was compacted away by a snapshot are dropped — a documented
/// limitation, never an error.
pub fn fold_journal(records: &[(u64, WalRecord)]) -> Vec<PendingQuery> {
    let mut pending: Vec<PendingQuery> = Vec::new();
    for (_, rec) in records {
        match rec {
            WalRecord::QuerySubmitted {
                fingerprint,
                sql,
                options,
            } if !pending.iter().any(|p| p.fingerprint == *fingerprint) => {
                pending.push(PendingQuery {
                    fingerprint: *fingerprint,
                    sql: sql.clone(),
                    options: options.clone(),
                    committed: Vec::new(),
                });
            }
            WalRecord::StageCommitted {
                fingerprint,
                stage,
                counters,
                phases,
            } => {
                if let Some(p) = pending.iter_mut().find(|p| p.fingerprint == *fingerprint) {
                    if !p.committed.iter().any(|c| &c.stage == stage) {
                        p.committed.push(CommittedStage {
                            stage: stage.clone(),
                            counters: counters.clone(),
                            phases: phases.clone(),
                        });
                    }
                }
            }
            WalRecord::QueryFinished { fingerprint } => {
                pending.retain(|p| p.fingerprint != *fingerprint);
            }
            _ => {}
        }
    }
    pending
}

struct Inner {
    version: u64,
    wal_path: PathBuf,
    next_seq: u64,
    /// Fsync after every N appended records; 0 = never (the OS decides).
    sync_every: u64,
    appends_since_sync: u64,
    stats: DurabilityStats,
}

/// Crash-consistent persistence for the engine's catalog, tables, and
/// registered joins. See the module docs for the protocol.
pub struct DurableStore {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("DurableStore")
            .field("dir", &self.dir)
            .field("version", &inner.version)
            .field("next_seq", &inner.next_seq)
            .finish()
    }
}

impl DurableStore {
    /// Open (or create) a durable directory and recover its committed
    /// prefix. Unwritable directories fail with a clean
    /// [`fudj_types::FudjError::Storage`]; corrupt artifacts are quarantined, never
    /// fatal.
    pub fn open(
        dir: impl Into<PathBuf>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<(DurableStore, RecoveredState)> {
        let dir = dir.into();
        vfs.create_dir_all(&dir)?;
        // Writability probe: fail now with a clean error, not on the
        // first append mid-transaction.
        let probe = dir.join(".fudj-probe");
        vfs.write_file(&probe, b"probe")?;
        vfs.remove(&probe)?;

        let mut stats = DurabilityStats::default();
        let names = vfs.list(&dir)?;
        let snapshot_versions: Vec<u64> = {
            let mut v: Vec<u64> = names
                .iter()
                .filter_map(|n| parse_versioned(n, "snapshot-", ".fsnap"))
                .collect();
            v.sort_unstable();
            v
        };

        // 1. locate: manifest, else newest valid snapshot, else empty.
        let manifest_path = dir.join(MANIFEST_NAME);
        let manifest_version = if vfs.exists(&manifest_path) {
            match vfs.read(&manifest_path).and_then(|b| decode_manifest(&b)) {
                Ok(v) => Some(v),
                Err(_) => {
                    stats.corrupt_snapshots_quarantined += 1;
                    None
                }
            }
        } else {
            None
        };

        // 2. load: try the manifest's snapshot, then fall back down the
        // directory scan.
        let mut base = SnapshotState::default();
        let mut version = manifest_version.unwrap_or(0);
        let mut candidates: Vec<u64> = snapshot_versions.clone();
        if let Some(mv) = manifest_version {
            candidates.retain(|&v| v <= mv);
        }
        while let Some(v) = candidates.pop() {
            let path = dir.join(snapshot_name(v));
            match vfs.read(&path).and_then(|b| decode_snapshot(&b)) {
                Ok(state) => {
                    base = state;
                    version = version.max(v);
                    if manifest_version.is_none() {
                        version = v;
                    }
                    break;
                }
                Err(_) => stats.corrupt_snapshots_quarantined += 1,
            }
        }

        // 3. replay every segment at or above the loaded version, merged
        // by sequence number.
        let mut recovered = RecoveredState {
            tables: base.tables,
            joins: base.joins,
            journal: Vec::new(),
        };
        let mut last_seq = base.last_seq;
        let mut wal_versions: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_versioned(n, "wal-", ".flog"))
            .filter(|&v| v >= version)
            .collect();
        wal_versions.sort_unstable();
        let mut merged: Vec<(u64, WalRecord)> = Vec::new();
        for &wv in &wal_versions {
            let path = dir.join(wal_name(wv));
            let bytes = vfs.read(&path)?;
            let replay = replay_wal(&bytes);
            stats.corrupt_records_quarantined += replay.quarantined;
            if replay.torn_tail {
                stats.torn_tails_truncated += 1;
                vfs.truncate(&path, replay.valid_len)?;
                if replay.valid_len < WAL_MAGIC.len() as u64 {
                    // The header itself was torn: restart the segment.
                    vfs.truncate(&path, 0)?;
                    vfs.append(&path, WAL_MAGIC)?;
                }
            }
            merged.extend(replay.records);
        }
        merged.sort_by_key(|(seq, _)| *seq);
        let mut quarantined_rows = 0u64;
        for (seq, rec) in merged {
            if seq <= base.last_seq {
                continue;
            }
            if matches!(
                rec,
                WalRecord::QuerySubmitted { .. }
                    | WalRecord::StageCommitted { .. }
                    | WalRecord::QueryFinished { .. }
            ) {
                // Journal records bypass table/join state: the session
                // folds them into pending queries for resume.
                stats.wal_records_replayed += 1;
                stats.journal_records_replayed += 1;
                recovered.journal.push((seq, rec));
                last_seq = last_seq.max(seq);
                continue;
            }
            match recovered.apply(rec, &mut quarantined_rows) {
                Ok(rows) => {
                    stats.wal_records_replayed += 1;
                    stats.rows_replayed += rows;
                }
                Err(()) => stats.replay_quarantined += 1,
            }
            last_seq = last_seq.max(seq);
        }
        stats.replay_quarantined += quarantined_rows;

        // The live segment is the newest one; create it if the directory
        // is fresh.
        let current = wal_versions.last().copied().unwrap_or(version);
        let wal_path = dir.join(wal_name(current));
        if !vfs.exists(&wal_path) {
            vfs.write_file(&wal_path, WAL_MAGIC)?;
            vfs.sync(&wal_path)?;
        }

        let store = DurableStore {
            vfs,
            dir,
            inner: Mutex::new(Inner {
                version: current.max(version),
                wal_path,
                next_seq: last_seq + 1,
                sync_every: 1,
                appends_since_sync: 0,
                stats,
            }),
        };
        Ok((store, recovered))
    }

    /// Directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The filesystem this store writes through. The durable checkpoint
    /// tier shares it so one fault plan covers WAL and checkpoints alike.
    pub fn vfs(&self) -> Arc<dyn Vfs> {
        self.vfs.clone()
    }

    /// Current snapshot/segment version.
    pub fn version(&self) -> u64 {
        self.inner.lock().version
    }

    /// Set the fsync cadence: 1 = after every record (full durability),
    /// N = every N records, 0 = never (leave it to the OS).
    pub fn set_sync_every(&self, n: u64) {
        let mut inner = self.inner.lock();
        inner.sync_every = n;
        inner.appends_since_sync = 0;
    }

    /// Current fsync cadence.
    pub fn sync_every(&self) -> u64 {
        self.inner.lock().sync_every
    }

    /// Append one record to the WAL (log-before-apply: callers invoke
    /// this *before* mutating in-memory state).
    pub fn append(&self, record: &WalRecord) -> Result<()> {
        let mut inner = self.inner.lock();
        let frame = encode_frame(inner.next_seq, record);
        self.vfs.append(&inner.wal_path, &frame)?;
        self.vfs.crash_site("wal:append")?;
        inner.next_seq += 1;
        inner.stats.wal_records_appended += 1;
        inner.stats.wal_bytes_appended += frame.len() as u64;
        inner.appends_since_sync += 1;
        if inner.sync_every > 0 && inner.appends_since_sync >= inner.sync_every {
            self.vfs.sync(&inner.wal_path)?;
            self.vfs.crash_site("wal:sync")?;
            inner.stats.wal_fsyncs += 1;
            inner.appends_since_sync = 0;
        }
        Ok(())
    }

    /// Append one query-journal record and force it durable regardless of
    /// the fsync cadence (a stage boundary only counts as committed once
    /// its journal record is on disk), then pass through the named crash
    /// site so the restart harness can kill the process exactly here.
    pub fn append_journal(&self, record: &WalRecord, site: &str) -> Result<()> {
        self.append(record)?;
        self.flush()?;
        self.inner.lock().stats.journal_records_appended += 1;
        self.vfs.crash_site(site)?;
        Ok(())
    }

    /// Flush any unsynced WAL bytes.
    pub fn flush(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        if inner.appends_since_sync > 0 {
            self.vfs.sync(&inner.wal_path)?;
            self.vfs.crash_site("wal:sync")?;
            inner.stats.wal_fsyncs += 1;
            inner.appends_since_sync = 0;
        }
        Ok(())
    }

    /// Commit an atomic snapshot of `state`, rotate the WAL, advance the
    /// manifest, and clean up superseded files. Crash points fire after
    /// every step (see `snapshot.rs` module docs for the protocol). The
    /// image covers every record logged so far, whatever `state.last_seq`
    /// says.
    pub fn snapshot(&self, state: &SnapshotState) -> Result<()> {
        let mut inner = self.inner.lock();
        let next = inner.version + 1;
        let bytes = encode_snapshot_at(inner.next_seq - 1, state);

        // 1-3: snapshot write-temp → fsync → rename.
        let tmp = self.dir.join(format!("{}.tmp", snapshot_name(next)));
        let dst = self.dir.join(snapshot_name(next));
        self.vfs.write_file(&tmp, &bytes)?;
        self.vfs.crash_site("snapshot:write")?;
        self.vfs.sync(&tmp)?;
        self.vfs.crash_site("snapshot:sync")?;
        self.vfs.rename(&tmp, &dst)?;
        self.vfs.crash_site("snapshot:rename")?;

        // 4: fresh WAL segment for records after the snapshot.
        let new_wal = self.dir.join(wal_name(next));
        self.vfs.write_file(&new_wal, WAL_MAGIC)?;
        self.vfs.sync(&new_wal)?;
        self.vfs.crash_site("wal:rotate")?;

        // 5: manifest advance — the commit point.
        let man_tmp = self.dir.join(format!("{MANIFEST_NAME}.tmp"));
        let man = self.dir.join(MANIFEST_NAME);
        self.vfs.write_file(&man_tmp, &encode_manifest(next))?;
        self.vfs.crash_site("manifest:write")?;
        self.vfs.sync(&man_tmp)?;
        self.vfs.rename(&man_tmp, &man)?;
        self.vfs.crash_site("manifest:rename")?;

        // 6: superseded segments and snapshots are garbage now.
        let old_version = inner.version;
        let old_wal = std::mem::replace(&mut inner.wal_path, new_wal);
        inner.version = next;
        inner.appends_since_sync = 0;
        inner.stats.snapshots_written += 1;
        inner.stats.snapshot_bytes_written += bytes.len() as u64;
        self.vfs.remove(&old_wal)?;
        for name in self.vfs.list(&self.dir)? {
            let stale_snap =
                parse_versioned(&name, "snapshot-", ".fsnap").is_some_and(|v| v < next);
            let stale_wal = parse_versioned(&name, "wal-", ".flog").is_some_and(|v| v < next);
            if stale_snap || stale_wal || name == format!("{}.tmp", snapshot_name(old_version)) {
                self.vfs.remove(&self.dir.join(name))?;
            }
        }
        self.vfs.crash_site("compact:cleanup")?;
        Ok(())
    }

    /// Lifetime durability counters, with the fault layer's injection
    /// counts folded in.
    pub fn stats(&self) -> DurabilityStats {
        let mut stats = self.inner.lock().stats;
        let faults = self.vfs.fault_counters();
        stats.fsyncs_dropped = faults.fsyncs_dropped;
        stats.faults_injected = faults.bit_flips + faults.fsyncs_dropped + faults.crashes;
        stats
    }
}

/// Every named crash point the durability protocol passes through, in
/// protocol order. The crash-restart harness iterates this list; DESIGN.md
/// §13 documents each site.
pub const CRASH_POINTS: &[&str] = &[
    "wal:append",
    "wal:sync",
    "snapshot:write",
    "snapshot:sync",
    "snapshot:rename",
    "wal:rotate",
    "manifest:write",
    "manifest:rename",
    "compact:cleanup",
];

/// Crash points specific to the query journal + durable checkpoint tier,
/// in the order a journaled query passes through them. Kept separate from
/// [`CRASH_POINTS`] so the ingest/DDL crash harness stays unchanged; the
/// whole-process restart harness (`tests/restart_differential.rs`)
/// iterates both lists as `\chaos crash` sites.
pub const QUERY_CRASH_POINTS: &[&str] = &[
    "journal:submit",
    "checkpoint:write",
    "checkpoint:sync",
    "journal:stage",
    "journal:finish",
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultfs::{FaultFs, StorageFaultConfig};
    use fudj_types::{FudjError, Row, Value};

    fn create(name: &str) -> WalRecord {
        WalRecord::CreateTable {
            name: name.into(),
            fields: vec![
                ("id".into(), "bigint".into()),
                ("tag".into(), "string".into()),
            ],
            primary_key: "id".into(),
            partitions: 2,
        }
    }

    fn append(table: &str, ids: std::ops::Range<i64>) -> WalRecord {
        WalRecord::Append {
            table: table.into(),
            rows: ids
                .map(|i| Row::new(vec![Value::Int64(i), Value::str(format!("r{i}"))]))
                .collect(),
        }
    }

    fn dir() -> PathBuf {
        PathBuf::from("/durable")
    }

    #[test]
    fn fresh_open_then_reopen_recovers_everything() {
        let fs = FaultFs::new(StorageFaultConfig::quiet(1));
        let (store, recovered) = DurableStore::open(dir(), fs.clone()).unwrap();
        assert!(recovered.tables.is_empty());
        store.append(&create("t")).unwrap();
        store.append(&append("t", 0..5)).unwrap();
        drop(store);
        let (store, recovered) = DurableStore::open(dir(), fs).unwrap();
        assert_eq!(recovered.tables.len(), 1);
        assert_eq!(recovered.tables[0].rows.len(), 5);
        let stats = store.stats();
        assert_eq!(stats.wal_records_replayed, 2);
        assert_eq!(stats.rows_replayed, 5);
        assert_eq!(stats.torn_tails_truncated, 0);
    }

    #[test]
    fn snapshot_compacts_and_recovery_resumes_past_it() {
        let fs = FaultFs::new(StorageFaultConfig::quiet(2));
        let (store, _) = DurableStore::open(dir(), fs.clone()).unwrap();
        store.append(&create("t")).unwrap();
        store.append(&append("t", 0..10)).unwrap();
        let state = SnapshotState {
            last_seq: 0, // overwritten by snapshot()
            joins: vec![],
            tables: vec![SnapshotTable {
                name: "t".into(),
                fields: vec![
                    ("id".into(), "bigint".into()),
                    ("tag".into(), "string".into()),
                ],
                primary_key: "id".into(),
                partitions: 2,
                rows: (0..10)
                    .map(|i| Row::new(vec![Value::Int64(i), Value::str(format!("r{i}"))]))
                    .collect(),
            }],
        };
        store.snapshot(&state).unwrap();
        assert_eq!(store.version(), 1);
        // Post-snapshot appends land in the rotated segment.
        store.append(&append("t", 10..12)).unwrap();
        drop(store);
        let (store, recovered) = DurableStore::open(dir(), fs.clone()).unwrap();
        assert_eq!(recovered.tables[0].rows.len(), 12);
        // Only the snapshot's two appended rows were replayed from WAL.
        assert_eq!(store.stats().rows_replayed, 2);
        // Old segment and old snapshots were compacted away.
        let names = fs.list(&dir()).unwrap();
        assert!(names.contains(&MANIFEST_NAME.to_string()));
        assert!(names.contains(&snapshot_name(1)));
        assert!(names.contains(&wal_name(1)));
        assert_eq!(names.len(), 3, "{names:?}");
    }

    #[test]
    fn torn_tail_is_truncated_on_reopen() {
        let fs = FaultFs::new(StorageFaultConfig::quiet(3));
        let (store, _) = DurableStore::open(dir(), fs.clone()).unwrap();
        store.append(&create("t")).unwrap();
        store.append(&append("t", 0..4)).unwrap();
        drop(store);
        // Tear the tail by hand: chop bytes off the live segment.
        let wal = dir().join(wal_name(0));
        let len = fs.read(&wal).unwrap().len();
        fs.truncate(&wal, len as u64 - 3).unwrap();
        let (store, recovered) = DurableStore::open(dir(), fs.clone()).unwrap();
        assert_eq!(recovered.tables.len(), 1);
        assert!(recovered.tables[0].rows.is_empty(), "torn append dropped");
        assert_eq!(store.stats().torn_tails_truncated, 1);
        // The file is physically clean now: append + reopen works.
        store.append(&append("t", 0..2)).unwrap();
        drop(store);
        let (store, recovered) = DurableStore::open(dir(), fs).unwrap();
        assert_eq!(recovered.tables[0].rows.len(), 2);
        assert_eq!(store.stats().torn_tails_truncated, 0);
    }

    #[test]
    fn crash_at_every_point_recovers_a_committed_prefix() {
        for &site in CRASH_POINTS {
            let fs = FaultFs::new(StorageFaultConfig::crash_at(7, site, 1));
            let (store, _) = DurableStore::open(dir(), fs.clone()).unwrap();
            let mut crashed = store.append(&create("t")).is_err();
            if !crashed {
                crashed |= store.append(&append("t", 0..6)).is_err();
            }
            if !crashed {
                let state = SnapshotState {
                    last_seq: 0,
                    joins: vec![],
                    tables: vec![SnapshotTable {
                        name: "t".into(),
                        fields: vec![
                            ("id".into(), "bigint".into()),
                            ("tag".into(), "string".into()),
                        ],
                        primary_key: "id".into(),
                        partitions: 2,
                        rows: (0..6)
                            .map(|i| Row::new(vec![Value::Int64(i), Value::str(format!("r{i}"))]))
                            .collect(),
                    }],
                };
                crashed |= store.snapshot(&state).is_err();
            }
            assert!(crashed, "crash point {site} never fired");
            drop(store);
            fs.reopen_after_crash();
            // Reopen must succeed and recover a consistent prefix: either
            // nothing, the table alone, or the table with all 6 rows.
            let (_store, recovered) = DurableStore::open(dir(), fs).unwrap();
            match recovered.tables.len() {
                0 => {}
                1 => {
                    let n = recovered.tables[0].rows.len();
                    assert!(
                        n == 0 || n == 6,
                        "{site}: partial append visible ({n} rows)"
                    );
                }
                n => panic!("{site}: {n} tables recovered"),
            }
        }
    }

    #[test]
    fn join_specs_round_trip_through_recovery() {
        let fs = FaultFs::new(StorageFaultConfig::quiet(4));
        let (store, _) = DurableStore::open(dir(), fs.clone()).unwrap();
        let spec = JoinSpec {
            name: "near".into(),
            library: "spatial".into(),
            class: "distance".into(),
            arg_types: vec!["point".into(), "point".into(), "double".into()],
            guard: crate::wal::GuardSpec {
                policy: "fallback".into(),
                call_budget_ms: 9,
                max_pplan_bytes: 512,
                max_buckets_per_key: 4,
                max_assign_fanout: 2,
                check_sample: 3,
            },
            memory_budget_rows: Some(100),
        };
        store.append(&WalRecord::CreateJoin(spec.clone())).unwrap();
        store
            .append(&WalRecord::CreateJoin(JoinSpec {
                name: "gone".into(),
                ..spec.clone()
            }))
            .unwrap();
        store
            .append(&WalRecord::DropJoin {
                name: "gone".into(),
            })
            .unwrap();
        drop(store);
        let (_store, recovered) = DurableStore::open(dir(), fs).unwrap();
        assert_eq!(recovered.joins, vec![spec]);
    }

    #[test]
    fn inconsistent_replay_is_quarantined_not_fatal() {
        let fs = FaultFs::new(StorageFaultConfig::quiet(5));
        let (store, _) = DurableStore::open(dir(), fs.clone()).unwrap();
        store.append(&create("t")).unwrap();
        store.append(&create("t")).unwrap(); // duplicate DDL
        store.append(&append("ghost", 0..3)).unwrap(); // unknown table
        store
            .append(&WalRecord::Append {
                table: "t".into(),
                rows: vec![Row::new(vec![Value::Int64(1)])], // wrong width
            })
            .unwrap();
        drop(store);
        let (store, recovered) = DurableStore::open(dir(), fs).unwrap();
        assert_eq!(recovered.tables.len(), 1);
        assert!(recovered.tables[0].rows.is_empty());
        assert_eq!(store.stats().replay_quarantined, 3);
    }

    #[test]
    fn sync_cadence_batches_fsyncs() {
        let fs = FaultFs::new(StorageFaultConfig::quiet(6));
        let (store, _) = DurableStore::open(dir(), fs).unwrap();
        store.set_sync_every(3);
        store.append(&create("t")).unwrap();
        store.append(&append("t", 0..1)).unwrap();
        assert_eq!(store.stats().wal_fsyncs, 0);
        store.append(&append("t", 1..2)).unwrap();
        assert_eq!(store.stats().wal_fsyncs, 1);
        store.append(&append("t", 2..3)).unwrap();
        store.flush().unwrap();
        assert_eq!(store.stats().wal_fsyncs, 2);
        store.flush().unwrap();
        assert_eq!(store.stats().wal_fsyncs, 2, "flush with nothing pending");
    }

    #[test]
    fn corrupt_manifest_falls_back_to_directory_scan() {
        let fs = FaultFs::new(StorageFaultConfig::quiet(8));
        let (store, _) = DurableStore::open(dir(), fs.clone()).unwrap();
        store.append(&create("t")).unwrap();
        store.append(&append("t", 0..3)).unwrap();
        let state = SnapshotState {
            last_seq: 0,
            joins: vec![],
            tables: vec![SnapshotTable {
                name: "t".into(),
                fields: vec![
                    ("id".into(), "bigint".into()),
                    ("tag".into(), "string".into()),
                ],
                primary_key: "id".into(),
                partitions: 2,
                rows: (0..3)
                    .map(|i| Row::new(vec![Value::Int64(i), Value::str(format!("r{i}"))]))
                    .collect(),
            }],
        };
        store.snapshot(&state).unwrap();
        drop(store);
        // Corrupt the manifest in place.
        let man = dir().join(MANIFEST_NAME);
        let mut bytes = fs.read(&man).unwrap();
        bytes[10] ^= 0xFF;
        fs.write_file(&man, &bytes).unwrap();
        let (store, recovered) = DurableStore::open(dir(), fs).unwrap();
        assert_eq!(recovered.tables[0].rows.len(), 3);
        assert_eq!(store.stats().corrupt_snapshots_quarantined, 1);
    }

    #[test]
    fn unwritable_directory_is_a_clean_storage_error() {
        // A path nested under a regular *file* cannot be created — not
        // even by root (ENOTDIR), unlike a permissions-based setup.
        let blocker = std::env::temp_dir().join(format!("fudj-durable-ro-{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let target = blocker.join("nested");
        let result = DurableStore::open(&target, Arc::new(crate::faultfs::DiskFs::new()));
        let _ = std::fs::remove_file(&blocker);
        match result {
            Err(FudjError::Storage(msg)) => assert!(!msg.is_empty()),
            other => panic!("expected Storage error, got {other:?}"),
        }
    }
}
