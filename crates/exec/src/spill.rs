//! COMBINE on one worker: a dynamic hybrid hash join whose in-memory case
//! is the pass that evicts nothing.
//!
//! When a worker's tagged inputs exceed [`crate::FudjJoinNode`]'s
//! `memory_budget_rows`, the join grace-partitions them — but naive grace
//! partitioning (hash everything to disk, then join sub-partition by
//! sub-partition) pays a full write+read of both sides even when most of
//! the input would have fit in memory, and a fixed fan-out leaves
//! over-budget sub-partitions behind on skewed data. This module is the
//! dynamic hybrid hash join the AsterixDB lineage uses instead (*Design
//! Trade-offs for a Robust Dynamic Hybrid Hash Join*, see PAPERS.md):
//!
//! * **Adaptive resident set.** Rows are hashed by bucket id into
//!   `FANOUT` (16) sub-partitions which all start memory-resident.
//!   Whenever the working set (slot memory plus unflushed write
//!   buffers) exceeds the budget, the *largest* resident sub-partition is
//!   evicted to a spill file — so on a Zipf-skewed input the hot
//!   sub-partitions go to disk and the long tail stays in memory, and a
//!   budget just below the input size spills almost nothing.
//! * **Bounded write buffers.** Spilled rows stream through a per-file
//!   buffer flushed every `WRITE_BATCH_ROWS` (128) rows. Nothing ever
//!   buffers a whole side: the working set is bounded by `budget + 1`
//!   rows at every step, by construction.
//! * **Recursive repartitioning.** A spilled sub-partition that still
//!   exceeds the budget is re-read and repartitioned with a depth-salted
//!   hash (so the same keys split differently at each level), up to
//!   `RECURSION_LIMIT` (4) levels.
//! * **Block-nested-loop fallback.** At the depth cap — or when a
//!   sub-partition holds a single hot bucket that no rehashing can ever
//!   split — the pair is joined block-against-block in budget-sized
//!   chunks instead of erroring. Splitting a bucket's rows across blocks
//!   preserves the logical counters exactly: the matched bucket pairs are
//!   the same, and per pair Σᵢⱼ |L∩blockᵢ|·|R∩blockⱼ| = |L|·|R| `verify`
//!   calls, while dedup decisions are per-pair and thus unchanged.
//!
//! At the end of a pass every resident sub-partition joins in one
//! in-memory call over their rows together. A join without a budget runs
//! the same pass with an unbounded one: nothing is evicted, that call sees
//! every row, and no spill counter is recorded.
//!
//! Every spill file lives in its cluster's own [`SpillDir`] and is owned
//! by an RAII `SpillFile` guard that unlinks it on drop, so an error
//! anywhere mid-join (a UDF violation under FailFast, an I/O failure)
//! leaves that directory empty, and dropping the cluster removes it.
//!
//! Hash partitioning is sound for default-match joins: their matches never
//! cross bucket-hash sub-partitions, so the union of per-sub-partition
//! joins is exactly the in-memory join. Theta joins (matches span
//! buckets) route every row to one sub-partition that never counts as
//! splittable: over the budget it is evicted whole and joined block
//! against block, which is sound for any match predicate.
//!
//! The fan-out, depth cap and write batch are fixed: the operator adapts
//! to the input and the budget through eviction, recursion and the BNL
//! fallback, not through tuning.

use crate::exchange;
use crate::fudj_join::{bucket_of, join_worker_partition, CombineContext, PairSink};
use crate::metrics::EngineStats;
use bytes::BytesMut;
use fudj_core::BucketId;
use fudj_types::{wire, FudjError, Result, Row};
use parking_lot::Mutex;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-partitions per partitioning pass.
const FANOUT: usize = 16;

/// Recursive repartitioning depth before the block-nested-loop fallback
/// takes over.
const RECURSION_LIMIT: usize = 4;

/// Rows accumulated in a spill-file write buffer before it is flushed.
const WRITE_BATCH_ROWS: usize = 128;

/// Owns one spill file's path and unlinks it on drop — the cleanup guard
/// that makes every error path leak-free.
struct SpillFile {
    path: PathBuf,
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// One cluster's spill scope: a private `fudj-spill-<pid>-<n>` directory
/// under the temp dir, created by the first task that spills and removed
/// when the cluster is dropped. File names only need to be unique within
/// it, so the sequence is per cluster and nothing two clusters do can
/// collide on disk.
#[derive(Debug, Default)]
pub struct SpillDir {
    path: Mutex<Option<PathBuf>>,
    seq: AtomicU64,
}

impl SpillDir {
    /// The directory, once some task has spilled.
    pub fn path(&self) -> Option<PathBuf> {
        self.path.lock().clone()
    }

    /// The directory, created on first use. `create_dir` fails on an
    /// existing name, so concurrent clusters (and processes sharing a
    /// recycled pid's leftovers) each claim a distinct `<n>`.
    fn ensure(&self) -> Result<PathBuf> {
        let mut path = self.path.lock();
        if let Some(p) = &*path {
            return Ok(p.clone());
        }
        let (base, pid) = (std::env::temp_dir(), std::process::id());
        let mut n = 0u64;
        let created = loop {
            let candidate = base.join(format!("fudj-spill-{pid}-{n}"));
            match std::fs::create_dir(&candidate) {
                Ok(()) => break candidate,
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => n += 1,
                Err(e) => return Err(io_err("directory create", e)),
            }
        };
        *path = Some(created.clone());
        Ok(created)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        if let Some(p) = self.path.get_mut().take() {
            let _ = std::fs::remove_dir_all(p);
        }
    }
}

fn io_err(what: &str, e: std::io::Error) -> FudjError {
    FudjError::Execution(format!("spill {what} failed: {e}"))
}

/// One side's bounded spill writer: rows are length-prefix encoded into a
/// small buffer and flushed every [`WRITE_BATCH_ROWS`] rows
/// (or whenever the caller needs the working set reduced).
struct SideWriter {
    guard: SpillFile,
    file: File,
    buf: BytesMut,
    /// Rows currently encoded in `buf` but not yet on disk.
    buffered_rows: usize,
    /// Total rows written through this writer (buffered included).
    rows: u64,
    /// Total bytes flushed to disk so far.
    bytes: u64,
}

impl SideWriter {
    fn create(dir: &SpillDir, depth: usize, part: usize, side: usize) -> Result<Self> {
        let seq = dir.seq.fetch_add(1, Ordering::Relaxed);
        let path = dir
            .ensure()?
            .join(format!("{seq}-d{depth}-p{part}-s{side}.bin"));
        let file = File::create(&path).map_err(|e| io_err("create", e))?;
        Ok(SideWriter {
            guard: SpillFile { path },
            file,
            buf: BytesMut::new(),
            buffered_rows: 0,
            rows: 0,
            bytes: 0,
        })
    }

    /// Append one row to the write buffer (length-prefixed so the reader
    /// can stream frames back without decoding partial rows).
    fn push(&mut self, row: &Row) {
        let start = self.buf.len();
        self.buf.extend_from_slice(&[0u8; 4]);
        wire::encode_row(row, &mut self.buf);
        let frame = (self.buf.len() - start - 4) as u32;
        self.buf[start..start + 4].copy_from_slice(&frame.to_le_bytes());
        self.buffered_rows += 1;
        self.rows += 1;
    }

    fn flush(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.file
            .write_all(&self.buf)
            .map_err(|e| io_err("write", e))?;
        self.bytes += self.buf.len() as u64;
        self.buf.clear();
        self.buffered_rows = 0;
        Ok(())
    }

    /// Flush and close, keeping the RAII guard (and totals) alive.
    fn finish(mut self) -> Result<ClosedSide> {
        self.flush()?;
        Ok(ClosedSide {
            guard: self.guard,
            rows: self.rows,
            bytes: self.bytes,
        })
    }
}

/// A finished spill file: totals plus the guard that deletes it on drop.
struct ClosedSide {
    guard: SpillFile,
    rows: u64,
    bytes: u64,
}

impl ClosedSide {
    fn path(&self) -> &Path {
        &self.guard.path
    }
}

/// Streaming reader over a spill file's length-prefixed frames — decodes
/// one row at a time where its frame lies in the read buffer, never the
/// whole file.
struct SpillReader {
    file: File,
    /// Read buffer; `buf[start..end]` holds bytes read but not yet decoded.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

const READ_CHUNK: usize = 64 * 1024;

impl SpillReader {
    fn open(path: &Path) -> Result<Self> {
        Ok(SpillReader {
            file: File::open(path).map_err(|e| io_err("open", e))?,
            buf: vec![0; READ_CHUNK],
            start: 0,
            end: 0,
        })
    }

    /// Pull up to `n` rows into a vector (empty at end of file).
    fn read_block(&mut self, n: usize) -> Result<Vec<Row>> {
        let mut out = Vec::new();
        while out.len() < n {
            match self.next() {
                Some(row) => out.push(row?),
                None => break,
            }
        }
        Ok(out)
    }
}

impl Iterator for SpillReader {
    type Item = Result<Row>;

    fn next(&mut self) -> Option<Result<Row>> {
        loop {
            let unread = &self.buf[self.start..self.end];
            if let Some((len, rest)) = unread.split_first_chunk::<4>() {
                let len = u32::from_le_bytes(*len) as usize;
                if let Some(frame) = rest.get(..len) {
                    self.start += 4 + len;
                    return Some(wire::Cursor::new(frame).row());
                }
            }
            // Refill: move the unread tail to the front and read after it,
            // doubling the buffer only for a frame that outgrows it.
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.end == self.buf.len() {
                self.buf.resize(2 * self.buf.len(), 0);
            }
            match self.file.read(&mut self.buf[self.end..]) {
                Ok(0) if self.end == 0 => return None,
                Ok(0) => {
                    return Some(Err(FudjError::Execution(
                        "spill file truncated mid-frame".into(),
                    )))
                }
                Ok(n) => self.end += n,
                Err(e) => return Some(Err(io_err("read", e))),
            }
        }
    }
}

/// Depth-salted sub-partition hash: each recursion level permutes the
/// bucket→slot mapping (a splitmix64 finalizer over the routing hash XOR a
/// level salt), so an over-budget sub-partition actually splits on the
/// next pass instead of rehashing into a single slot again.
fn part_hash(bucket: BucketId, depth: usize) -> u64 {
    let mut x =
        exchange::route_hash(&bucket) ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(depth as u64 + 1);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Memory-resident tagged rows of a pass, per side (left = 0, right = 1),
/// in arrival order: the order the rows were decoded, so the join reads
/// and frees their memory in order.
type Resident = [Vec<Row>; 2];

/// One sub-partition's in-flight state during a partitioning pass.
#[derive(Default)]
struct Slot {
    /// Rows of this slot in the pass's resident set.
    mem_rows: usize,
    /// Writers once evicted; `None` while resident.
    writers: Option<[SideWriter; 2]>,
    /// First bucket id routed here, and whether a second one followed —
    /// only a slot holding two buckets or more can be split by rehashing.
    /// The theta slot tracks no buckets, so it never splits.
    bucket: Option<BucketId>,
    multi_bucket: bool,
}

impl Slot {
    fn buffered_rows(&self) -> usize {
        self.writers
            .as_ref()
            .map(|ws| ws[0].buffered_rows + ws[1].buffered_rows)
            .unwrap_or(0)
    }

    /// Flush both write buffers to disk. Returns the rows they held.
    fn flush(&mut self) -> Result<usize> {
        let flushed = self.buffered_rows();
        for w in self.writers.iter_mut().flatten() {
            w.flush()?;
        }
        Ok(flushed)
    }

    /// Evict slot `part` to disk: create its writers and stream its rows
    /// out of `mem` in write-batch-sized flushes.
    fn evict(
        &mut self,
        part: usize,
        mem: &mut Resident,
        route: impl Fn(BucketId) -> usize,
        dir: &SpillDir,
        depth: usize,
    ) -> Result<()> {
        let mut writers = [
            SideWriter::create(dir, depth, part, 0)?,
            SideWriter::create(dir, depth, part, 1)?,
        ];
        for (w, rows) in writers.iter_mut().zip(mem.iter_mut()) {
            for row in std::mem::take(rows) {
                if route(bucket_of(&row)?) != part {
                    rows.push(row);
                    continue;
                }
                w.push(&row);
                if w.buffered_rows >= WRITE_BATCH_ROWS {
                    w.flush()?;
                }
            }
        }
        self.writers = Some(writers);
        self.mem_rows = 0;
        self.flush()?;
        Ok(())
    }
}

/// COMBINE on one worker under an optional row budget (§III-B spilling):
/// one hybrid-hash pass, whose budget is unbounded when none is set, that
/// hands every accepted pair to `sink` in order. Records the task's spill
/// counters only if the pass evicted a slot; on any error the RAII guards
/// have already unlinked every spill file.
pub(crate) fn combine(
    ctx: &CombineContext<'_>,
    lrows: Vec<Row>,
    rrows: Vec<Row>,
    budget: Option<usize>,
    sink: &mut PairSink,
) -> Result<()> {
    let mut stats = EngineStats::default();
    let rows = |rows: Vec<Row>| rows.into_iter().map(Ok as fn(Row) -> Result<Row>);
    let budget = budget.unwrap_or(usize::MAX);
    pass(ctx, rows(lrows), rows(rrows), budget, 0, &mut stats, sink)?;
    if stats.spill_spilled_partitions > 0 {
        ctx.metrics.record_spill_run(&stats);
    }
    Ok(())
}

/// One partitioning pass at `depth`: stream both sides into fan-out
/// slots, evicting under budget pressure, then join the resident slots in
/// memory and resolve spilled slots (direct readback, recursion, or the
/// block-nested-loop fallback), handing the accepted pairs to `sink`.
fn pass<I>(
    ctx: &CombineContext<'_>,
    left: I,
    right: I,
    budget: usize,
    depth: usize,
    stats: &mut EngineStats,
    sink: &mut PairSink,
) -> Result<()>
where
    I: Iterator<Item = Result<Row>>,
{
    stats.spill_passes += 1;
    stats.spill_recursion_depth = stats.spill_recursion_depth.max(depth as u64);
    let mut slots: Vec<Slot> = (0..FANOUT).map(|_| Slot::default()).collect();
    let mut mem: Resident = Default::default();
    // Working-set accounting: the rows in `mem` plus the `buffered` rows in
    // unflushed write buffers. Their sum is what the budget bounds.
    let working_set = |mem: &Resident, buffered: usize| mem[0].len() + mem[1].len() + buffered;
    // Default match routes by bucket; theta rows all share slot 0.
    let route = |b| {
        if ctx.default_match {
            (part_hash(b, depth) as usize) % FANOUT
        } else {
            0
        }
    };
    let mut buffered = 0usize;

    for (side, rows) in [(0usize, left), (1usize, right)] {
        for row in rows {
            let row = row?;
            let b = bucket_of(&row)?;
            let p = route(b);
            let slot = &mut slots[p];
            if ctx.default_match {
                match slot.bucket {
                    None => slot.bucket = Some(b),
                    Some(first) if first != b => slot.multi_bucket = true,
                    _ => {}
                }
            }
            if let Some(ws) = slot.writers.as_mut() {
                ws[side].push(&row);
                buffered += 1;
            } else {
                mem[side].push(row);
                slot.mem_rows += 1;
            }
            stats.spill_peak_resident_rows = stats
                .spill_peak_resident_rows
                .max(working_set(&mem, buffered) as u64);
            // A spilled slot's buffer flushes once it holds a full batch.
            if slot.buffered_rows() >= WRITE_BATCH_ROWS {
                buffered -= slot.flush()?;
            }
            // Shrink the working set back under the budget: evict the
            // largest resident slot first (skew-friendly — hot slots go
            // to disk, the tail stays resident), then flush the fullest
            // write buffer.
            while working_set(&mem, buffered) > budget {
                let victim = (0..FANOUT)
                    .filter(|&i| slots[i].writers.is_none() && slots[i].mem_rows > 0)
                    .max_by_key(|&i| slots[i].mem_rows);
                if let Some(v) = victim {
                    slots[v].evict(v, &mut mem, route, ctx.spill_dir, depth)?;
                    continue;
                }
                let fullest = (0..FANOUT).max_by_key(|&i| slots[i].buffered_rows());
                match slots[fullest.unwrap_or(0)].flush()? {
                    0 => break, // nothing left to shed
                    flushed => buffered -= flushed,
                }
            }
        }
    }

    // The resident slots join in one call: a default-match bucket lives in
    // one slot and theta has only one, so this is their union exactly —
    // and with nothing evicted, the whole in-memory join.
    stats.spill_resident_partitions += slots
        .iter()
        .filter(|s| s.writers.is_none() && s.mem_rows > 0)
        .count() as u64;
    let [l, r] = mem;
    if !l.is_empty() && !r.is_empty() {
        join_worker_partition(ctx, l, r, sink)?;
    }

    // Spilled slots: read back within budget, recurse, or fall back.
    for slot in slots.iter_mut() {
        let Some([lw, rw]) = slot.writers.take() else {
            continue;
        };
        let lc = lw.finish()?;
        let rc = rw.finish()?;
        stats.spill_spilled_partitions += 1;
        stats.spilled_rows += lc.rows + rc.rows;
        stats.spilled_bytes += lc.bytes + rc.bytes;
        if lc.rows == 0 || rc.rows == 0 {
            // A side with no rows here matches nothing.
            continue;
        }
        let total = (lc.rows + rc.rows) as usize;
        if total <= budget.max(1) {
            let l = SpillReader::open(lc.path())?.read_block(usize::MAX)?;
            let r = SpillReader::open(rc.path())?.read_block(usize::MAX)?;
            stats.spill_peak_resident_rows = stats.spill_peak_resident_rows.max(total as u64);
            join_worker_partition(ctx, l, r, sink)?;
        } else if depth >= RECURSION_LIMIT || !slot.multi_bucket {
            stats.spill_bnl_fallbacks += 1;
            block_nested_join(ctx, &lc, &rc, budget, stats, sink)?;
        } else {
            let (l, r) = (SpillReader::open(lc.path())?, SpillReader::open(rc.path())?);
            pass(ctx, l, r, budget, depth + 1, stats, sink)?;
        }
        // `lc`/`rc` drop here: both files unlinked.
    }
    Ok(())
}

/// Block-nested-loop join of two over-budget spill files, block against
/// block, each block at most half the budget. Correct for any join,
/// default-match or theta: every (left row, right row) pair meets in
/// exactly one block pair, so matched bucket pairs and their group-size
/// products are preserved exactly across the block grid (see module docs).
fn block_nested_join(
    ctx: &CombineContext<'_>,
    lc: &ClosedSide,
    rc: &ClosedSide,
    budget: usize,
    stats: &mut EngineStats,
    sink: &mut PairSink,
) -> Result<()> {
    let block = (budget / 2).max(1);
    let mut lr = SpillReader::open(lc.path())?;
    loop {
        let lblock = lr.read_block(block)?;
        if lblock.is_empty() {
            break;
        }
        let mut rr = SpillReader::open(rc.path())?;
        loop {
            let rblock = rr.read_block(block)?;
            if rblock.is_empty() {
                break;
            }
            stats.spill_peak_resident_rows = stats
                .spill_peak_resident_rows
                .max((lblock.len() + rblock.len()) as u64);
            join_worker_partition(ctx, lblock.clone(), rblock, sink)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fudj_types::Value;

    fn tagged_row(id: i64, bucket: i64) -> Row {
        Row::new(vec![Value::Int64(id), Value::Int64(bucket)])
    }

    #[test]
    fn writer_reader_roundtrip_streams_frames() {
        let dir = SpillDir::default();
        let mut w = SideWriter::create(&dir, 0, 0, 0).unwrap();
        let rows: Vec<Row> = (0..500).map(|i| tagged_row(i, i % 7)).collect();
        for row in &rows {
            w.push(row);
            if w.buffered_rows >= 64 {
                w.flush().unwrap();
            }
        }
        let closed = w.finish().unwrap();
        assert_eq!(closed.rows, 500);
        assert!(closed.bytes > 0);
        let back: Result<Vec<Row>> = SpillReader::open(closed.path()).unwrap().collect();
        assert_eq!(back.unwrap(), rows);
    }

    #[test]
    fn frames_straddling_read_chunks_read_back_identical() {
        use fudj_geo::{Point, Polygon};
        // A 5 000-vertex polygon encodes to ~80 KB: one frame larger than a
        // whole read chunk, between rows whose frames cross chunk edges.
        let ring = (0..5_000)
            .map(|i| {
                let a = i as f64 * std::f64::consts::TAU / 5_000.0;
                Point::new(a.cos(), a.sin())
            })
            .collect();
        let big = Row::new(vec![Value::Int64(-1), Value::polygon(Polygon::new(ring))]);
        let mut rows: Vec<Row> = (0..3_000)
            .map(|i| {
                Row::new(vec![
                    Value::Int64(i),
                    Value::str("x".repeat(i as usize % 97)),
                ])
            })
            .collect();
        rows.insert(1_500, big);
        let dir = SpillDir::default();
        let mut w = SideWriter::create(&dir, 0, 0, 0).unwrap();
        for row in &rows {
            w.push(row);
        }
        let closed = w.finish().unwrap();
        assert!(closed.bytes > 3 * READ_CHUNK as u64);
        let back: Result<Vec<Row>> = SpillReader::open(closed.path()).unwrap().collect();
        assert_eq!(back.unwrap(), rows);
    }

    #[test]
    fn spill_file_cut_mid_frame_is_an_error() {
        let dir = SpillDir::default();
        let mut w = SideWriter::create(&dir, 0, 0, 0).unwrap();
        for i in 0..3 {
            w.push(&tagged_row(i, 0));
        }
        let closed = w.finish().unwrap();
        let full = std::fs::read(closed.path()).unwrap();
        std::fs::write(closed.path(), &full[..full.len() - 1]).unwrap();
        let mut r = SpillReader::open(closed.path()).unwrap();
        assert_eq!(r.read_block(2).unwrap().len(), 2);
        match r.next() {
            Some(Err(FudjError::Execution(msg))) => assert!(msg.contains("truncated mid-frame")),
            other => panic!("expected a truncation error, got {other:?}"),
        }
    }

    #[test]
    fn spill_file_guard_unlinks_on_drop() {
        let dir = SpillDir::default();
        let w = SideWriter::create(&dir, 3, 1, 0).unwrap();
        let path = w.guard.path.clone();
        assert!(path.exists());
        drop(w);
        assert!(!path.exists(), "dropping the writer must unlink its file");
        let scope = dir.path().expect("the writer created the directory");
        assert_eq!(std::fs::read_dir(&scope).unwrap().count(), 0);
        drop(dir);
        assert!(!scope.exists(), "dropping the scope must remove it");
    }

    #[test]
    fn read_block_honors_limit_and_drains() {
        let dir = SpillDir::default();
        let mut w = SideWriter::create(&dir, 0, 0, 1).unwrap();
        for i in 0..10 {
            w.push(&tagged_row(i, 0));
        }
        let closed = w.finish().unwrap();
        let mut r = SpillReader::open(closed.path()).unwrap();
        assert_eq!(r.read_block(4).unwrap().len(), 4);
        assert_eq!(r.read_block(4).unwrap().len(), 4);
        assert_eq!(r.read_block(4).unwrap().len(), 2);
        assert!(r.read_block(4).unwrap().is_empty());
    }

    #[test]
    fn depth_salt_changes_partitioning() {
        // The whole point of the salt: a set of buckets colliding into one
        // slot at depth d must spread at depth d+1.
        let fanout = 8usize;
        let buckets: Vec<BucketId> = (0..64).map(|b| b as BucketId).collect();
        let spread = |depth: usize| -> std::collections::HashSet<usize> {
            buckets
                .iter()
                .map(|&b| (part_hash(b, depth) as usize) % fanout)
                .collect()
        };
        let d0 = spread(0);
        let d1 = spread(1);
        assert!(d0.len() > 1 && d1.len() > 1);
        let moved = buckets
            .iter()
            .filter(|&&b| {
                (part_hash(b, 0) as usize) % fanout != (part_hash(b, 1) as usize) % fanout
            })
            .count();
        assert!(moved > 0, "depth salt must remap at least some buckets");
    }

    /// Run `f` on a COMBINE context for `join` under `pplan`: `(id, key,
    /// bucket)` rows, no dedup. `f` reads what the run recorded through
    /// `ctx.metrics`.
    fn with_ctx<R>(
        join: &dyn fudj_core::EngineJoin,
        pplan: &fudj_core::PPlanState,
        f: impl FnOnce(&CombineContext<'_>) -> R,
    ) -> R {
        let metrics = crate::metrics::QueryMetrics::new();
        let spill_dir = SpillDir::default();
        f(&CombineContext {
            join,
            left_key: 1,
            right_key: 1,
            pplan,
            default_match: join.uses_default_match(),
            dedup_mode: fudj_core::DedupMode::None,
            metrics: &metrics,
            spill_dir: &spill_dir,
        })
    }

    /// A sink of joined rows holding every column of both `(id, key,
    /// bucket)` sides but the tags.
    fn all_columns() -> PairSink {
        PairSink::Rows {
            columns: vec![0, 1, 2, 3],
            left_width: 2,
            rows: Vec::new(),
        }
    }

    /// The in-memory join's rows, in the order it accepts them.
    fn in_memory(ctx: &CombineContext<'_>, l: Vec<Row>, r: Vec<Row>) -> Vec<Row> {
        let mut sink = all_columns();
        join_worker_partition(ctx, l, r, &mut sink).unwrap();
        sink.finish()
    }

    /// `combine`'s rows under `budget`, in the order it accepts them.
    fn combined(
        ctx: &CombineContext<'_>,
        l: Vec<Row>,
        r: Vec<Row>,
        budget: Option<usize>,
    ) -> Vec<Row> {
        let mut sink = all_columns();
        combine(ctx, l, r, budget, &mut sink).unwrap();
        sink.finish()
    }

    /// Key equality, no dedup: rows meet only on equal keys, whatever
    /// bucket tags they carry.
    fn equality_join() -> (fudj_core::FudjEngineJoin, fudj_core::PPlanState) {
        use fudj_core::{Join, Side};
        let join =
            fudj_core::FudjEngineJoin::new(std::sync::Arc::new(fudj_joins::evil::EqualityFudj));
        let s = join.new_summary(Side::Left);
        let pplan = join.divide(&s, &s, &[]).unwrap();
        (join, pplan)
    }

    /// No spill counter moved.
    fn assert_no_spill(ctx: &CombineContext<'_>) {
        let s = ctx.metrics.snapshot();
        for (name, value) in s.fields() {
            assert!(!name.starts_with("spill") || value == 0, "{name} = {value}");
        }
    }

    /// Without a budget, or with one the input fits, `combine` is the
    /// in-memory join: the same rows in the same order, no spill counter.
    fn assert_fitting_runs_are_the_in_memory_join(ctx: &CombineContext<'_>, l: &[Row], r: &[Row]) {
        let in_memory = in_memory(ctx, l.to_vec(), r.to_vec());
        assert!(!in_memory.is_empty());
        for budget in [None, Some(l.len() + r.len())] {
            let rows = combined(ctx, l.to_vec(), r.to_vec(), budget);
            assert_eq!(rows, in_memory, "budget {budget:?}");
        }
        assert_no_spill(ctx);
    }

    #[test]
    fn default_match_within_budget_is_the_in_memory_join_in_order() {
        // 23 buckets spread over every slot; a key's rows share its bucket.
        let tagged = |n: i64, step: i64| -> Vec<Row> {
            (0..n)
                .map(|i| {
                    let key = (i * step) % 23;
                    Row::new(vec![Value::Int64(i), Value::Int64(key), Value::Int64(key)])
                })
                .collect()
        };
        let (join, pplan) = equality_join();
        with_ctx(&join, &pplan, |ctx| {
            assert!(ctx.default_match);
            assert_fitting_runs_are_the_in_memory_join(ctx, &tagged(60, 7), &tagged(40, 5));
        });
    }

    #[test]
    fn theta_within_budget_is_the_in_memory_join_in_order() {
        use fudj_core::Side;
        let interval = fudj_core::FudjEngineJoin::new(std::sync::Arc::new(
            fudj_core::ProxyJoin::new(fudj_joins::IntervalFudj::new()),
        ));
        let join: &dyn fudj_core::EngineJoin = &interval;
        let keys = |seed: i64, n: i64| -> Vec<Value> {
            (0..n)
                .map(|i| {
                    let s = (i * 7_919 + seed) % 5_000;
                    Value::Interval(fudj_temporal::Interval::new(s, s + (i * 31) % 600))
                })
                .collect()
        };
        let (lkeys, rkeys) = (keys(1, 50), keys(2_500, 40));
        let summary = |side: Side, keys: &[Value]| {
            let mut s = join.new_summary(side);
            join.summarize_block(side, &keys.iter().collect::<Vec<_>>(), &mut s)
                .unwrap();
            s
        };
        let pplan = join
            .divide(
                &summary(Side::Left, &lkeys),
                &summary(Side::Right, &rkeys),
                &[Value::Int64(32)],
            )
            .unwrap();
        let tagged = |side: Side, keys: &[Value]| -> Vec<Row> {
            let mut out = Vec::new();
            let refs: Vec<&Value> = keys.iter().collect();
            join.assign_sorted(side, &refs, &pplan, &mut |i, buckets| {
                for &b in buckets {
                    let (id, key) = (Value::Int64(i as i64), keys[i].clone());
                    out.push(Row::new(vec![id, key, Value::Int64(b as i64)]));
                }
            })
            .unwrap();
            out
        };
        let (l, r) = (tagged(Side::Left, &lkeys), tagged(Side::Right, &rkeys));
        with_ctx(join, &pplan, |ctx| {
            assert!(!ctx.default_match);
            assert_fitting_runs_are_the_in_memory_join(ctx, &l, &r);
        });
    }

    #[test]
    fn colliding_buckets_reach_the_recursion_cap_then_join_block_nested() {
        // Two buckets whose depth-salted slots agree at every depth up to
        // the cap: no pass can separate them, so the sub-partition holding
        // both recurses to the cap and only then falls back to BNL.
        let slots = |b: BucketId| -> Vec<usize> {
            (0..=RECURSION_LIMIT)
                .map(|d| (part_hash(b, d) as usize) % FANOUT)
                .collect()
        };
        let mut seen = std::collections::HashMap::new();
        let (b1, b2) = (0..1_000_000 as BucketId)
            .find_map(|b| seen.insert(slots(b), b).map(|first| (first, b)))
            .expect("a colliding pair within the search range");

        // Keys 0..5 repeat on both sides; each row is tagged with one of
        // the two colliding buckets.
        let tagged = |n: i64| -> Vec<Row> {
            (0..n)
                .map(|i| {
                    let b = if i % 2 == 0 { b1 } else { b2 };
                    Row::new(vec![
                        Value::Int64(i),
                        Value::Int64(i % 5),
                        Value::Int64(b as i64),
                    ])
                })
                .collect()
        };
        let sorted = |mut rows: Vec<Row>| {
            rows.sort();
            rows
        };
        let (join, pplan) = equality_join();
        with_ctx(&join, &pplan, |ctx| {
            let in_memory = sorted(in_memory(ctx, tagged(40), tagged(30)));
            assert!(!in_memory.is_empty());
            assert_no_spill(ctx);

            let spilled = sorted(combined(ctx, tagged(40), tagged(30), Some(8)));
            assert_eq!(spilled, in_memory);
            let s = ctx.metrics.snapshot();
            assert_eq!(s.spill_recursion_depth, RECURSION_LIMIT as u64, "{s:?}");
            assert!(s.spill_bnl_fallbacks > 0, "{s:?}");
            assert!(s.spill_peak_resident_rows <= 8 + 1, "{s:?}");
        });
    }
}
