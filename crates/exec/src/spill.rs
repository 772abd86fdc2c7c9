//! Memory-adaptive hybrid-hash spilling for the COMBINE phase.
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
//! Every spill file lives in its cluster's own [`SpillDir`] and is owned
//! by an RAII `SpillFile` guard that unlinks it on drop, so an error
//! anywhere mid-join (a UDF violation under FailFast, an I/O failure)
//! leaves that directory empty, and dropping the cluster removes it.
//!
//! Only default-match joins take the hybrid-hash path: their matches
//! never cross bucket-hash sub-partitions, so the union of
//! per-sub-partition joins is exactly the in-memory join. Theta joins
//! (matches span partitions) spill through `theta_bnl_join` instead:
//! both sides stream to disk whole and join block against block, which
//! is sound for any match predicate. `combine` is the one entry: it
//! makes the budget check and picks the path.
//!
//! The fan-out, depth cap and write batch are fixed: the operator adapts
//! to the input and the budget through eviction, recursion and the BNL
//! fallback, not through tuning.

use crate::exchange;
use crate::fudj_join::{bucket_of, join_worker_partition, CombineContext};
use crate::metrics::EngineStats;
use bytes::{Buf, BytesMut};
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
/// one row at a time from fixed-size read chunks, never the whole file.
struct SpillReader {
    file: File,
    buf: BytesMut,
}

const READ_CHUNK: usize = 64 * 1024;

impl SpillReader {
    fn open(path: &Path) -> Result<Self> {
        Ok(SpillReader {
            file: File::open(path).map_err(|e| io_err("open", e))?,
            buf: BytesMut::new(),
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
            if self.buf.len() >= 4 {
                let frame = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]])
                    as usize;
                if self.buf.len() >= 4 + frame {
                    let mut bytes = self.buf.split_to(4 + frame).freeze();
                    bytes.advance(4);
                    return Some(wire::decode_row(&mut bytes));
                }
            }
            let mut chunk = [0u8; READ_CHUNK];
            match self.file.read(&mut chunk) {
                Ok(0) => {
                    if self.buf.is_empty() {
                        return None;
                    }
                    return Some(Err(FudjError::Execution(
                        "spill file truncated mid-frame".into(),
                    )));
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
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

/// One sub-partition's in-flight state during a partitioning pass.
struct Slot {
    /// Memory-resident rows, per side (left = 0, right = 1).
    mem: [Vec<Row>; 2],
    /// Writers once evicted; `None` while resident.
    writers: Option<[SideWriter; 2]>,
    /// First bucket id routed here, and whether a second one followed —
    /// a single-bucket sub-partition can never be split by rehashing, so
    /// it goes straight to the block-nested-loop fallback.
    bucket: Option<BucketId>,
    multi_bucket: bool,
}

impl Slot {
    fn new() -> Self {
        Slot {
            mem: [Vec::new(), Vec::new()],
            writers: None,
            bucket: None,
            multi_bucket: false,
        }
    }

    fn mem_rows(&self) -> usize {
        self.mem[0].len() + self.mem[1].len()
    }

    fn buffered_rows(&self) -> usize {
        self.writers
            .as_ref()
            .map(|ws| ws[0].buffered_rows + ws[1].buffered_rows)
            .unwrap_or(0)
    }
}

/// COMBINE on one worker under an optional row budget (§III-B spilling).
/// Within the budget the partition joins in memory. Over it, a
/// default-match join grace-partitions through [`hybrid_hash_join`]; a
/// theta join (matches span bucket-hash partitions, so hash partitioning
/// is unsound) streams both sides to disk through [`theta_bnl_join`].
pub(crate) fn combine(
    ctx: &CombineContext<'_>,
    lrows: Vec<Row>,
    rrows: Vec<Row>,
    budget: Option<usize>,
) -> Result<Vec<Row>> {
    match budget {
        Some(budget) if lrows.len() + rrows.len() > budget => {
            if ctx.default_match {
                hybrid_hash_join(ctx, lrows, rrows, budget)
            } else {
                theta_bnl_join(ctx, lrows, rrows, budget)
            }
        }
        _ => join_worker_partition(ctx, lrows, rrows),
    }
}

/// Hybrid-hash join one over-budget worker partition. Records the task's
/// spill counters into the metrics on success; on any error the RAII
/// guards have already unlinked every spill file.
fn hybrid_hash_join(
    ctx: &CombineContext<'_>,
    lrows: Vec<Row>,
    rrows: Vec<Row>,
    budget: usize,
) -> Result<Vec<Row>> {
    let mut stats = EngineStats::default();
    let mut out = Vec::new();
    pass(
        ctx,
        lrows.into_iter().map(Ok as fn(Row) -> Result<Row>),
        rrows.into_iter().map(Ok as fn(Row) -> Result<Row>),
        budget,
        0,
        &mut stats,
        &mut out,
    )?;
    ctx.metrics.record_spill_run(&stats);
    Ok(out)
}

/// Over-budget *theta* joins: matches span bucket-hash
/// sub-partitions, so hash grace-partitioning is unsound for them —
/// instead both sides stream to disk whole and join block against block
/// within the budget. Each (left row, right row) pair is considered in
/// exactly one block pair, so the union over blocks is exactly the
/// in-memory theta join and the logical counters are preserved (see
/// [`block_nested_join`]).
fn theta_bnl_join(
    ctx: &CombineContext<'_>,
    lrows: Vec<Row>,
    rrows: Vec<Row>,
    budget: usize,
) -> Result<Vec<Row>> {
    let spill_side = |rows: Vec<Row>, side: usize| -> Result<ClosedSide> {
        let mut w = SideWriter::create(ctx.spill_dir, 0, 0, side)?;
        for row in rows {
            w.push(&row);
            if w.buffered_rows >= WRITE_BATCH_ROWS {
                w.flush()?;
            }
        }
        w.finish()
    };
    let lc = spill_side(lrows, 0)?;
    let rc = spill_side(rrows, 1)?;
    let mut stats = EngineStats {
        spill_passes: 1,
        spill_spilled_partitions: 1,
        spilled_rows: lc.rows + rc.rows,
        spilled_bytes: lc.bytes + rc.bytes,
        spill_bnl_fallbacks: 1,
        ..EngineStats::default()
    };
    let mut out = Vec::new();
    if lc.rows > 0 && rc.rows > 0 {
        block_nested_join(ctx, &lc, &rc, budget, &mut stats, &mut out)?;
    }
    ctx.metrics.record_spill_run(&stats);
    Ok(out)
}

/// One partitioning pass at `depth`: stream both sides into fan-out
/// slots, evicting under budget pressure, then join resident slots in
/// memory and resolve spilled slots (direct readback, recursion, or the
/// block-nested-loop fallback).
#[allow(clippy::too_many_arguments)]
fn pass<I>(
    ctx: &CombineContext<'_>,
    left: I,
    right: I,
    budget: usize,
    depth: usize,
    stats: &mut EngineStats,
    out: &mut Vec<Row>,
) -> Result<()>
where
    I: Iterator<Item = Result<Row>>,
{
    stats.spill_passes += 1;
    stats.spill_recursion_depth = stats.spill_recursion_depth.max(depth as u64);
    let mut slots: Vec<Slot> = (0..FANOUT).map(|_| Slot::new()).collect();
    // Working-set accounting: `resident` rows live in slot memory,
    // `buffered` rows sit in unflushed write buffers. Their sum is what
    // the budget bounds.
    let mut resident = 0usize;
    let mut buffered = 0usize;

    for (side, rows) in [(0usize, left), (1usize, right)] {
        for row in rows {
            let row = row?;
            let b = bucket_of(&row)?;
            let p = (part_hash(b, depth) as usize) % FANOUT;
            {
                let slot = &mut slots[p];
                match slot.bucket {
                    None => slot.bucket = Some(b),
                    Some(first) if first != b => slot.multi_bucket = true,
                    _ => {}
                }
                if let Some(ws) = slot.writers.as_mut() {
                    ws[side].push(&row);
                    buffered += 1;
                } else {
                    slot.mem[side].push(row);
                    resident += 1;
                }
            }
            stats.spill_peak_resident_rows = stats
                .spill_peak_resident_rows
                .max((resident + buffered) as u64);
            // A spilled slot's buffer flushes once it holds a full batch.
            if slots[p].writers.is_some() && slots[p].buffered_rows() >= WRITE_BATCH_ROWS {
                let ws = slots[p].writers.as_mut().expect("spilled slot has writers");
                buffered -= ws[0].buffered_rows + ws[1].buffered_rows;
                ws[0].flush()?;
                ws[1].flush()?;
            }
            // Shrink the working set back under the budget: evict the
            // largest resident slot first (skew-friendly — hot slots go
            // to disk, the tail stays resident), then flush the fullest
            // write buffer.
            while resident + buffered > budget {
                let victim = (0..FANOUT)
                    .filter(|&i| slots[i].writers.is_none() && slots[i].mem_rows() > 0)
                    .max_by_key(|&i| slots[i].mem_rows());
                if let Some(v) = victim {
                    resident -= evict(&mut slots[v], ctx.spill_dir, depth, v)?;
                } else {
                    let fullest = (0..FANOUT).max_by_key(|&i| slots[i].buffered_rows());
                    match fullest {
                        Some(f) if slots[f].buffered_rows() > 0 => {
                            let ws = slots[f]
                                .writers
                                .as_mut()
                                .expect("buffered slot has writers");
                            buffered -= ws[0].buffered_rows + ws[1].buffered_rows;
                            ws[0].flush()?;
                            ws[1].flush()?;
                        }
                        _ => break, // nothing left to shed
                    }
                }
            }
        }
    }

    // Resident slots: join in memory, the hybrid-hash payoff.
    for slot in slots.iter_mut().filter(|s| s.writers.is_none()) {
        if slot.mem_rows() == 0 {
            continue;
        }
        stats.spill_resident_partitions += 1;
        let l = std::mem::take(&mut slot.mem[0]);
        let r = std::mem::take(&mut slot.mem[1]);
        if !l.is_empty() && !r.is_empty() {
            out.extend(join_worker_partition(ctx, l, r)?);
        }
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
            // Default-match: a side with no rows here matches nothing.
            continue;
        }
        let total = (lc.rows + rc.rows) as usize;
        if total <= budget.max(1) {
            let l = SpillReader::open(lc.path())?.read_block(usize::MAX)?;
            let r = SpillReader::open(rc.path())?.read_block(usize::MAX)?;
            stats.spill_peak_resident_rows = stats.spill_peak_resident_rows.max(total as u64);
            out.extend(join_worker_partition(ctx, l, r)?);
        } else if depth >= RECURSION_LIMIT || !slot.multi_bucket {
            stats.spill_bnl_fallbacks += 1;
            block_nested_join(ctx, &lc, &rc, budget, stats, out)?;
        } else {
            pass(
                ctx,
                SpillReader::open(lc.path())?,
                SpillReader::open(rc.path())?,
                budget,
                depth + 1,
                stats,
                out,
            )?;
        }
        // `lc`/`rc` drop here: both files unlinked.
    }
    Ok(())
}

/// Evict a resident slot to disk: create its writers and stream its rows
/// out in write-batch-sized flushes. Returns the number of rows freed.
fn evict(slot: &mut Slot, dir: &SpillDir, depth: usize, part: usize) -> Result<usize> {
    let mut writers = [
        SideWriter::create(dir, depth, part, 0)?,
        SideWriter::create(dir, depth, part, 1)?,
    ];
    let freed = slot.mem_rows();
    for (side, w) in writers.iter_mut().enumerate() {
        for row in slot.mem[side].drain(..) {
            w.push(&row);
            if w.buffered_rows >= WRITE_BATCH_ROWS {
                w.flush()?;
            }
        }
        w.flush()?;
    }
    slot.writers = Some(writers);
    Ok(freed)
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
    out: &mut Vec<Row>,
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
            out.extend(join_worker_partition(ctx, lblock.clone(), rblock)?);
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
        // Key equality, no dedup: rows meet only on equal keys, whatever
        // bucket tags they carry.
        let join =
            fudj_core::FudjEngineJoin::new(std::sync::Arc::new(fudj_joins::evil::EqualityFudj));
        let pplan = {
            use fudj_core::{Join, Side};
            let s = join.new_summary(Side::Left);
            join.divide(&s, &s, &[]).unwrap()
        };
        let metrics = crate::metrics::QueryMetrics::new();
        let spill_dir = SpillDir::default();
        let ctx = CombineContext {
            join: &join,
            left_key: 1,
            right_key: 1,
            pplan: &pplan,
            default_match: true,
            dedup_mode: fudj_core::DedupMode::None,
            output: &[0, 1, 2, 3],
            left_width: 2,
            metrics: &metrics,
            spill_dir: &spill_dir,
        };
        let sorted = |mut rows: Vec<Row>| {
            rows.sort();
            rows
        };
        let in_memory = sorted(join_worker_partition(&ctx, tagged(40), tagged(30)).unwrap());
        assert!(!in_memory.is_empty());
        assert_eq!(metrics.snapshot().spilled_rows, 0);

        let spilled = sorted(combine(&ctx, tagged(40), tagged(30), Some(8)).unwrap());
        assert_eq!(spilled, in_memory);
        let s = metrics.snapshot();
        assert_eq!(s.spill_recursion_depth, RECURSION_LIMIT as u64, "{s:?}");
        assert!(s.spill_bnl_fallbacks > 0, "{s:?}");
        assert!(s.spill_peak_resident_rows <= 8 + 1, "{s:?}");
    }
}
