//! Stage-output checkpoints for lineage-scoped recovery.
//!
//! The engine's flexible-join pipeline is staged (summarize → divide →
//! partition → combine → dedup), and each exchange-producing stage
//! materializes one row vector per worker. A [`CheckpointStore`] keeps an
//! optional serialized copy of those per-partition outputs, keyed by
//! `(query fingerprint, stage, partition)`, so that a worker that dies
//! *permanently* at a later boundary only costs the recovery layer a
//! deserialize of the partitions it held — not a replay of every upstream
//! stage. Rows are serialized through the same `wire` protocol the
//! exchanges use, so checkpoint bytes are directly comparable to the
//! shuffle byte counters.
//!
//! Every checkpoint is one checksummed `FUDJCKP1` frame file on one
//! [`Vfs`]: a fresh store lives on an in-memory [`FaultFs`] with no faults
//! armed, and [`CheckpointStore::relocate`] moves it onto another
//! filesystem — the WAL's, for checkpoints that must outlive the process.
//! A frame that fails any check reads as a miss, never as wrong rows.
//!
//! The store is shared by every query on a cluster (clones of a
//! `Cluster` share one store) and bounded by a byte budget: inserting past
//! the budget evicts the oldest checkpoints first, FIFO over insertion
//! order. An evicted checkpoint is not an error — recovery simply falls
//! back to full-stage replay for losses it no longer covers.

use crate::faultfs::{FaultFs, StorageFaultConfig, Vfs};
use crate::wal::crc32;
use bytes::{BufMut, BytesMut};
use fudj_types::wire::{self, Cursor};
use fudj_types::{Result, Row};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::Arc;

/// First eight bytes of every checkpoint frame file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"FUDJCKP1";

/// Directory of the checkpoint frames: under the WAL dir once relocated
/// there, and the in-memory filesystem's root directory before.
pub const CHECKPOINT_DIR: &str = "checkpoints";

/// Outcome of one [`CheckpointStore::put`]: how many serialized bytes the
/// checkpoint occupies and how many older checkpoints were evicted to
/// make room for it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PutOutcome {
    /// Wire-encoded size of the stored rows (framing excluded).
    pub bytes: u64,
    /// Checkpoints evicted (FIFO) to fit the byte budget.
    pub evicted: u64,
}

/// Lifetime counters for one store (across all queries that used it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointStoreStats {
    /// Partitions written.
    pub written: u64,
    /// Wire-encoded bytes written.
    pub bytes_written: u64,
    /// Partitions read back.
    pub read: u64,
    /// Partitions evicted under byte-budget pressure.
    pub evicted: u64,
    /// Frames rejected as corrupt (bad magic, framing, checksum, identity,
    /// or row payload) — never mis-decoded, counted and read as misses.
    pub quarantined: u64,
}

/// `ckpt-{query:016x}-{stage}-{partition}.fckpt`, stage sanitized to
/// filename-safe characters (identity is re-verified from the frame body
/// on read, so sanitization collisions cannot alias checkpoints).
fn frame_name(query: u64, stage: &str, partition: usize) -> String {
    let safe: String = stage
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("ckpt-{query:016x}-{safe}-{partition}.fckpt")
}

/// Frame-file prefix of every checkpoint belonging to `query`.
fn query_prefix(query: u64) -> String {
    format!("ckpt-{query:016x}-")
}

/// Encode one frame: magic, then `len | body | crc32(body)` with body =
/// query ++ stage ++ partition ++ row count ++ wire rows, written once
/// behind a length placeholder. Also returns the wire rows' size.
fn encode_frame(query: u64, stage: &str, partition: usize, rows: &[Row]) -> (Vec<u8>, u64) {
    let mut out = BytesMut::with_capacity(48 + rows.len() * 32);
    out.put_slice(CHECKPOINT_MAGIC);
    out.put_u32_le(0);
    let body = out.len();
    out.put_u64_le(query);
    out.put_u32_le(stage.len() as u32);
    out.put_slice(stage.as_bytes());
    out.put_u32_le(partition as u32);
    out.put_u32_le(rows.len() as u32);
    let header = out.len();
    for row in rows {
        wire::encode_row(row, &mut out);
    }
    let len = out.len() - body;
    out[body - 4..body].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = crc32(&out[body..]);
    out.put_u32_le(crc);
    let wire_bytes = (out.len() - 4 - header) as u64;
    (out.into(), wire_bytes)
}

/// Decode one frame, verifying framing, checksum, and identity. Any
/// mismatch is `None` — corrupt frames are never mis-decoded.
fn decode_frame(raw: &[u8], query: u64, stage: &str, partition: usize) -> Option<Vec<Row>> {
    let rest = raw.strip_prefix(CHECKPOINT_MAGIC.as_slice())?;
    let (len, rest) = rest.split_first_chunk::<4>()?;
    let len = u32::from_le_bytes(*len) as usize;
    if rest.len() != len + 4 || crc32(&rest[..len]).to_le_bytes() != rest[len..] {
        return None;
    }
    let mut cur = Cursor::new(&rest[..len]);
    let stored = (
        cur.u64("query").ok()?,
        cur.str("stage").ok()?,
        cur.u32("partition").ok()? as usize,
    );
    if stored != (query, stage, partition) {
        return None;
    }
    let nrows = cur.u32("row count").ok()? as usize;
    let mut rows = Vec::new();
    cur.rows(Some(nrows), &mut rows).ok()?;
    cur.is_empty().then_some(rows)
}

struct Inner {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    /// Frames written at this location and not yet evicted or removed,
    /// oldest first (the FIFO eviction order), with their wire sizes.
    frames: VecDeque<(String, u64)>,
    total_bytes: u64,
    budget_bytes: Option<u64>,
    stats: CheckpointStoreStats,
}

/// A fresh in-memory filesystem with no faults armed, and the store's
/// directory on it.
fn in_memory() -> (Arc<dyn Vfs>, PathBuf) {
    (
        FaultFs::new(StorageFaultConfig::quiet(0)),
        PathBuf::from(CHECKPOINT_DIR),
    )
}

impl Inner {
    /// Switch to a new location; frames at the old one stay behind.
    fn move_to(&mut self, (vfs, dir): (Arc<dyn Vfs>, PathBuf)) {
        self.vfs = vfs;
        self.dir = dir;
        self.frames.clear();
        self.total_bytes = 0;
    }

    /// Evict FIFO until the store fits its budget; returns how many
    /// checkpoints were dropped. Removal is best-effort: a frame a failing
    /// disk keeps is still a correct checkpoint.
    fn evict_to_budget(&mut self) -> u64 {
        let Some(budget) = self.budget_bytes else {
            return 0;
        };
        let mut evicted = 0;
        while self.total_bytes > budget {
            let Some((name, size)) = self.frames.pop_front() else {
                break;
            };
            let _ = self.vfs.remove(&self.dir.join(name));
            self.total_bytes -= size;
            self.stats.evicted += 1;
            evicted += 1;
        }
        evicted
    }
}

/// Byte-budgeted, shared store of stage-partition outputs, one frame file
/// each on the store's [`Vfs`].
pub struct CheckpointStore {
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("CheckpointStore")
            .field("dir", &inner.dir)
            .field("frames", &inner.frames.len())
            .field("total_bytes", &inner.total_bytes)
            .field("budget_bytes", &inner.budget_bytes)
            .finish()
    }
}

impl Default for CheckpointStore {
    fn default() -> Self {
        CheckpointStore::new()
    }
}

impl CheckpointStore {
    /// An empty in-memory store with no byte budget (unlimited).
    pub fn new() -> Self {
        let (vfs, dir) = in_memory();
        CheckpointStore {
            inner: Mutex::new(Inner {
                vfs,
                dir,
                frames: VecDeque::new(),
                total_bytes: 0,
                budget_bytes: None,
                stats: CheckpointStoreStats::default(),
            }),
        }
    }

    /// An empty in-memory store that evicts past `budget_bytes` bytes.
    pub fn with_budget(budget_bytes: u64) -> Self {
        let store = CheckpointStore::new();
        store.inner.lock().budget_bytes = Some(budget_bytes);
        store
    }

    /// Replace the byte budget (`None` = unlimited). Shrinking the budget
    /// evicts immediately until the store fits.
    pub fn set_budget(&self, budget_bytes: Option<u64>) {
        let mut inner = self.inner.lock();
        inner.budget_bytes = budget_bytes;
        inner.evict_to_budget();
    }

    /// The current byte budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.inner.lock().budget_bytes
    }

    /// Keep checkpoints under `dir` on `vfs` from now on — the WAL's
    /// filesystem, so its fault plan and crash sites apply to them too.
    /// Frames already there (a crashed process's) are read and removed
    /// like this store's own; frames at the old location stay behind.
    pub fn relocate(&self, vfs: Arc<dyn Vfs>, dir: impl Into<PathBuf>) -> Result<()> {
        let dir = dir.into();
        vfs.create_dir_all(&dir)?;
        self.inner.lock().move_to((vfs, dir));
        Ok(())
    }

    /// Move the store back onto a fresh in-memory filesystem.
    pub fn relocate_to_memory(&self) {
        self.inner.lock().move_to(in_memory());
    }

    /// Serialize and store one partition of one stage's output as a frame,
    /// overwriting any previous checkpoint with the same key. The frame is
    /// written and fsynced through the `checkpoint:write` /
    /// `checkpoint:sync` crash sites; disk failures — including injected
    /// crashes — surface as the error. Returns the rows' wire size and how
    /// many older checkpoints were evicted.
    pub fn put(
        &self,
        query: u64,
        stage: &str,
        partition: usize,
        rows: &[Row],
    ) -> Result<PutOutcome> {
        let (frame, bytes) = encode_frame(query, stage, partition, rows);
        let name = frame_name(query, stage, partition);
        let mut inner = self.inner.lock();
        let path = inner.dir.join(&name);
        inner.vfs.write_file(&path, &frame)?;
        inner.vfs.crash_site("checkpoint:write")?;
        inner.vfs.sync(&path)?;
        inner.vfs.crash_site("checkpoint:sync")?;
        let inner = &mut *inner;
        match inner.frames.iter_mut().find(|(n, _)| *n == name) {
            // Overwrite: the frame keeps its place in the eviction order
            // and the byte total swaps the old size for the new one.
            Some((_, size)) => {
                inner.total_bytes = inner.total_bytes - *size + bytes;
                *size = bytes;
            }
            None => {
                inner.frames.push_back((name, bytes));
                inner.total_bytes += bytes;
            }
        }
        inner.stats.written += 1;
        inner.stats.bytes_written += bytes;
        let evicted = inner.evict_to_budget();
        Ok(PutOutcome { bytes, evicted })
    }

    /// Decode and return one checkpointed partition, or `None` when no
    /// frame covers `(query, stage, partition)`: never written, evicted,
    /// or corrupt (quarantined).
    pub fn get(&self, query: u64, stage: &str, partition: usize) -> Option<Vec<Row>> {
        let mut inner = self.inner.lock();
        let raw = inner
            .vfs
            .read(&inner.dir.join(frame_name(query, stage, partition)))
            .ok()?;
        let rows = decode_frame(&raw, query, stage, partition);
        match rows {
            Some(_) => inner.stats.read += 1,
            None => inner.stats.quarantined += 1,
        }
        rows
    }

    /// Whether a frame file exists for `(query, stage, partition)`.
    pub fn covers(&self, query: u64, stage: &str, partition: usize) -> bool {
        let inner = self.inner.lock();
        inner
            .vfs
            .exists(&inner.dir.join(frame_name(query, stage, partition)))
    }

    /// Drop every checkpoint belonging to `query` (called when the query
    /// finishes — its lineage can no longer need them), including frames
    /// another process left at this location. Removal is best-effort: a
    /// disk that is failing (or has simulated-crashed) must not turn query
    /// completion into an error, and frames that survive an actual crash
    /// are exactly what resume reads.
    pub fn remove_query(&self, query: u64) {
        let prefix = query_prefix(query);
        let mut inner = self.inner.lock();
        let Inner {
            vfs,
            dir,
            frames,
            total_bytes,
            ..
        } = &mut *inner;
        frames.retain(|(name, size)| {
            let keep = !name.starts_with(&prefix);
            if !keep {
                *total_bytes -= size;
            }
            keep
        });
        for name in vfs.list(dir).unwrap_or_default() {
            if name.starts_with(&prefix) {
                let _ = vfs.remove(&dir.join(name));
            }
        }
    }

    /// Names of the frame files at the store's location.
    pub fn frames(&self) -> Vec<String> {
        let inner = self.inner.lock();
        inner.vfs.list(&inner.dir).unwrap_or_default()
    }

    /// Number of checkpoints this store wrote at its location and has not
    /// evicted or removed.
    pub fn len(&self) -> usize {
        self.inner.lock().frames.len()
    }

    /// Whether [`CheckpointStore::len`] is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wire bytes of those checkpoints.
    pub fn total_bytes(&self) -> u64 {
        self.inner.lock().total_bytes
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CheckpointStoreStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fudj_types::Value;

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int64(i), Value::str("payload")])
    }

    fn rows(n: i64) -> Vec<Row> {
        (0..n).map(row).collect()
    }

    #[test]
    fn put_get_round_trips_rows() {
        let store = CheckpointStore::new();
        let original = rows(5);
        let outcome = store.put(1, "join:partition", 0, &original).unwrap();
        assert!(outcome.bytes > 0);
        assert_eq!(outcome.evicted, 0);
        let back = store.get(1, "join:partition", 0).unwrap();
        assert_eq!(back, original);
        assert!(store.covers(1, "join:partition", 0));
        assert!(!store.covers(1, "join:partition", 1));
        assert!(!store.covers(2, "join:partition", 0));
        assert_eq!(store.stats().written, 1);
        assert_eq!(store.stats().read, 1);
    }

    #[test]
    fn missing_checkpoint_is_none() {
        let store = CheckpointStore::new();
        assert!(store.get(9, "join:combine", 3).is_none());
        assert_eq!(store.stats().read, 0);
        assert_eq!(store.stats().quarantined, 0, "a miss is not corruption");
    }

    #[test]
    fn rewrite_replaces_without_double_counting_bytes() {
        let store = CheckpointStore::new();
        store.put(1, "s", 0, &rows(10)).unwrap();
        let total_after_first = store.total_bytes();
        store.put(1, "s", 0, &rows(2)).unwrap();
        assert!(store.total_bytes() < total_after_first);
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(1, "s", 0).unwrap(), rows(2));
    }

    #[test]
    fn budget_evicts_oldest_first() {
        let store = CheckpointStore::new();
        let one = store.put(1, "s", 0, &rows(4)).unwrap().bytes;
        // Budget fits exactly two checkpoints of this shape.
        store.set_budget(Some(one * 2));
        store.put(1, "s", 1, &rows(4)).unwrap();
        let outcome = store.put(1, "s", 2, &rows(4)).unwrap();
        assert_eq!(outcome.evicted, 1, "third insert evicts the first");
        assert!(!store.covers(1, "s", 0), "oldest evicted");
        assert!(store.covers(1, "s", 1));
        assert!(store.covers(1, "s", 2));
        assert_eq!(store.stats().evicted, 1);
        assert!(store.total_bytes() <= one * 2);
        assert_eq!(store.frames().len(), 2, "eviction removes the frame");
    }

    #[test]
    fn shrinking_budget_evicts_immediately() {
        let store = CheckpointStore::new();
        for p in 0..6 {
            store.put(1, "s", p, &rows(8)).unwrap();
        }
        let per = store.total_bytes() / 6;
        store.set_budget(Some(per * 2));
        assert!(store.total_bytes() <= per * 2);
        assert!(store.len() <= 2);
        assert!(store.stats().evicted >= 4);
    }

    #[test]
    fn remove_query_drops_only_that_query() {
        let store = CheckpointStore::new();
        store.put(1, "s", 0, &rows(3)).unwrap();
        store.put(2, "s", 0, &rows(3)).unwrap();
        store.remove_query(1);
        assert!(!store.covers(1, "s", 0));
        assert!(store.covers(2, "s", 0));
        assert_eq!(store.len(), 1);
        store.remove_query(2);
        assert!(store.is_empty());
        assert_eq!(store.total_bytes(), 0);
        assert!(store.frames().is_empty());
    }

    #[test]
    fn empty_partition_checkpoints_as_empty() {
        let store = CheckpointStore::new();
        let outcome = store.put(1, "s", 0, &[]).unwrap();
        assert_eq!(outcome.bytes, 0);
        assert_eq!(store.get(1, "s", 0).unwrap(), Vec::<Row>::new());
    }

    #[test]
    fn finished_query_checkpoints_never_evict_live_coverage() {
        // Regression: a completed long query's checkpoints are dropped
        // eagerly at finish (remove_query), so they cannot sit in the
        // FIFO and push a live query's recovery coverage out of budget.
        let store = CheckpointStore::new();
        let one = store.put(1, "s", 0, &rows(4)).unwrap().bytes;
        store.set_budget(Some(one * 3));
        for p in 1..3 {
            store.put(1, "s", p, &rows(4)).unwrap();
        }
        // Query 1 finishes: eager drop frees the whole budget.
        store.remove_query(1);
        assert_eq!(store.total_bytes(), 0);
        // Query 2 now fits entirely — zero evictions under the same
        // budget that query 1 had filled.
        let mut evicted = 0;
        for p in 0..3 {
            evicted += store.put(2, "s", p, &rows(4)).unwrap().evicted;
        }
        assert_eq!(evicted, 0, "finished query must not pressure live one");
        assert!((0..3).all(|p| store.covers(2, "s", p)));
    }

    #[test]
    fn relocated_store_writes_frames_on_the_new_filesystem() {
        let fs = FaultFs::new(StorageFaultConfig::quiet(11));
        let store = CheckpointStore::new();
        store.put(7, "join:combine/joined", 0, &rows(2)).unwrap();
        store.relocate(fs.clone(), "/wal/checkpoints").unwrap();
        assert!(store.is_empty(), "the old location's frames stay behind");
        assert!(store.get(7, "join:combine/joined", 0).is_none());
        store.put(7, "join:combine/joined", 2, &rows(6)).unwrap();
        let name = "ckpt-0000000000000007-join_combine_joined-2.fckpt";
        assert_eq!(fs.list("/wal/checkpoints".as_ref()).unwrap(), [name]);
        store.relocate_to_memory();
        assert!(store.frames().is_empty());
        assert!(fs.exists(&PathBuf::from("/wal/checkpoints").join(name)));
    }

    #[test]
    fn corrupt_durable_frames_are_quarantined_not_decoded() {
        let fs = FaultFs::new(StorageFaultConfig::quiet(12));
        let store = CheckpointStore::new();
        store.relocate(fs.clone(), "/wal/checkpoints").unwrap();
        store.put(3, "agg:shuffle/partials", 1, &rows(5)).unwrap();
        let name = store.frames().pop().unwrap();
        let path = std::path::Path::new("/wal/checkpoints").join(&name);
        let mut bytes = fs.read(&path).unwrap();
        // Flip one payload bit: the checksum must catch it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        fs.write_file(&path, &bytes).unwrap();
        assert!(store.get(3, "agg:shuffle/partials", 1).is_none());
        assert_eq!(store.stats().quarantined, 1);
        // Truncation is detected the same way.
        fs.truncate(&path, 9).unwrap();
        assert!(store.get(3, "agg:shuffle/partials", 1).is_none());
        assert_eq!(store.stats().quarantined, 2);
        // Identity is verified: a frame never answers for another key.
        store.put(3, "agg:shuffle/partials", 1, &rows(5)).unwrap();
        fs.rename(
            &path,
            &path.with_file_name(frame_name(4, "agg:shuffle/partials", 1)),
        )
        .unwrap();
        assert!(store.get(4, "agg:shuffle/partials", 1).is_none());
        assert_eq!(store.stats().quarantined, 3);
    }
}
