//! Exchange operators: how rows move between workers.
//!
//! Rows that stay on their worker are passed through untouched; rows that
//! cross workers are serialized with the wire format, counted against the
//! metrics, and deserialized at the destination — so the byte counters
//! reflect exactly the traffic a real shared-nothing cluster would put on
//! the network, and the CPU cost of (de)serialization is genuinely paid.
//!
//! Faithful to a real cluster, that serialization work happens *in
//! parallel*: every source worker encodes its own outgoing traffic and
//! every destination worker decodes its own incoming traffic on its own
//! [`WorkerPool`] thread. (An earlier serial implementation made exchanges
//! a coordinator bottleneck and produced anti-scaling worker sweeps; a
//! later one spawned fresh OS threads per exchange stage, which is why the
//! pool now comes in as a parameter.)
//!
//! The number of exchange destinations is always the pool size — one
//! partition per simulated worker.
//!
//! **Fault tolerance.** When the metrics carry an armed
//! [`crate::fault::FaultContext`], every remote buffer delivery consults
//! the fault plan: a *dropped* delivery is retransmitted (with simulated
//! backoff) until it arrives or the retry budget escalates, and a
//! *duplicated* delivery reaches the receiver twice — receivers dedup by
//! source id (each source sends at most one buffer per destination per
//! exchange, so the source id is the sequence number) and discard the
//! extra copy. Retransmissions and duplicates are tracked in
//! [`crate::fault::FaultStats`]; the canonical rows/bytes counters keep
//! describing the *logical* traffic, so a fault plan never distorts the
//! wire-size accounting that experiments pin.

use crate::fault::FaultContext;
use crate::metrics::QueryMetrics;
use crate::pool::WorkerPool;
use bytes::{Bytes, BytesMut};
use fudj_types::{wire, Result, Row};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Rows, one vector per worker.
pub type Parts = Vec<Vec<Row>>;

/// Hash of a routing key, stable across the process.
pub fn route_hash<T: Hash + ?Sized>(key: &T) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// What one source worker produced: rows staying local plus one encoded
/// buffer per remote destination.
struct Outbox {
    src: usize,
    local: Vec<Row>,
    remote: Vec<Bytes>, // indexed by destination; empty for dst == src
}

/// One destination's inbox: `(dst, rows staying local, inbound buffers
/// tagged with their source id)`.
type Inbox = (usize, Vec<Row>, Vec<(usize, Bytes)>);

/// Decode every row of one inbound buffer into `out`; returns the count.
fn decode_all(buf: &[u8], out: &mut Vec<Row>) -> Result<usize> {
    wire::Cursor::new(buf).rows(None, out)
}

/// The armed fault context (if any) plus a dispatch step claimed for one
/// exchange — the deterministic key space for its delivery decisions.
fn delivery_site(metrics: &QueryMetrics) -> Option<(Arc<FaultContext>, u64)> {
    metrics.fault().map(|ctx| (ctx.clone(), ctx.next_step()))
}

/// How many copies of the `src → dst` buffer arrive (1 without faults;
/// 2 under a duplicate; drops retransmit internally or escalate).
fn delivered_copies(
    site: &Option<(Arc<FaultContext>, u64)>,
    src: usize,
    dst: usize,
) -> Result<u32> {
    match site {
        Some((ctx, step)) => ctx.deliver(*step, src, dst),
        None => Ok(1),
    }
}

/// Repartition by an arbitrary routing function `route(row) → destination`.
pub fn shuffle_by(
    parts: Parts,
    pool: &WorkerPool,
    metrics: &QueryMetrics,
    route: impl Fn(&Row) -> usize + Sync,
) -> Result<Parts> {
    shuffle_routed(parts, pool, metrics, |_src, _j, row| route(row))
}

/// Repartition with a *positional* routing function `route(src, j, row)`,
/// where `j` is the row's index within its source partition. This lets
/// position-based exchanges (rebalance) pick destinations without
/// smuggling a routing tag through the wire format — only the row's real
/// payload is serialized and counted.
fn shuffle_routed(
    parts: Parts,
    pool: &WorkerPool,
    metrics: &QueryMetrics,
    route: impl Fn(usize, usize, &Row) -> usize + Sync,
) -> Result<Parts> {
    let workers = pool.size();
    // Stage 1 (parallel per source): route and encode outgoing rows.
    let indexed: Vec<(usize, Vec<Row>)> = parts.into_iter().enumerate().collect();
    let outboxes = pool.run_metered(indexed, Some(metrics), |_, (src, rows)| {
        let mut local = Vec::new();
        let mut buffers: Vec<BytesMut> = vec![BytesMut::new(); workers];
        for (j, row) in rows.into_iter().enumerate() {
            let dst = route(src, j, &row) % workers;
            if dst == src {
                local.push(row);
            } else {
                wire::encode_row(&row, &mut buffers[dst]);
            }
        }
        Ok(Outbox {
            src,
            local,
            remote: buffers.into_iter().map(BytesMut::freeze).collect(),
        })
    })?;

    let moved_bytes: u64 = outboxes
        .iter()
        .flat_map(|o| o.remote.iter().map(|b| b.len() as u64))
        .sum();

    // Deliver each remote buffer under the fault plan (coordinator side,
    // deterministic order). A dropped buffer is retransmitted by
    // `deliver`; a duplicated one lands in the inbox twice, tagged with
    // its source id so the receiver can discard the extra copy.
    let site = delivery_site(metrics);
    let mut inboxes: Vec<Inbox> = (0..workers)
        .map(|dst| (dst, Vec::new(), Vec::new()))
        .collect();
    for outbox in outboxes {
        inboxes[outbox.src].1 = outbox.local;
        for (dst, buf) in outbox.remote.into_iter().enumerate() {
            if !buf.is_empty() {
                for _ in 0..delivered_copies(&site, outbox.src, dst)? {
                    inboxes[dst].2.push((outbox.src, buf.clone()));
                }
            }
        }
    }
    let decoded = pool.run_metered(inboxes, Some(metrics), |_, (dst, local, bufs)| {
        // Dedup by source sequence before paying for anything: duplicate
        // copies are discarded at the receiving NIC, and the canonical
        // byte counters describe the logical traffic only.
        let mut seen = vec![false; workers];
        let mut unique: Vec<Bytes> = Vec::with_capacity(bufs.len());
        for (src, buf) in bufs {
            if std::mem::replace(&mut seen[src], true) {
                if let Some((ctx, _)) = &site {
                    ctx.note_duplicate_discarded();
                }
                continue;
            }
            unique.push(buf);
        }
        // Each destination worker pays for the bytes it receives.
        let inbound: u64 = unique.iter().map(|b| b.len() as u64).sum();
        metrics.charge_network(inbound);
        let mut rows = local;
        let mut n = 0usize;
        for buf in unique {
            n += decode_all(&buf, &mut rows)?;
        }
        metrics.charge_worker_io(dst, n as u64, inbound);
        Ok((rows, n))
    })?;

    let mut out = Vec::with_capacity(workers);
    let mut moved_rows = 0u64;
    for (rows, n) in decoded {
        moved_rows += n as u64;
        out.push(rows);
    }
    metrics.record_shuffle(moved_rows, moved_bytes);
    Ok(out)
}

/// Hash-partition by one column's value.
pub fn shuffle_by_column(
    parts: Parts,
    pool: &WorkerPool,
    column: usize,
    metrics: &QueryMetrics,
) -> Result<Parts> {
    let workers = pool.size();
    shuffle_by(parts, pool, metrics, move |row| {
        (route_hash(row.get(column)) as usize) % workers
    })
}

/// Hash-partition by the whole row (used by duplicate elimination).
pub fn shuffle_by_row(parts: Parts, pool: &WorkerPool, metrics: &QueryMetrics) -> Result<Parts> {
    let workers = pool.size();
    shuffle_by(parts, pool, metrics, move |row| {
        (route_hash(row) as usize) % workers
    })
}

/// Deliver every row to every worker. Each row is serialized once by its
/// source; every remote receiver decodes its own copy.
pub fn broadcast(parts: Parts, pool: &WorkerPool, metrics: &QueryMetrics) -> Result<Parts> {
    let workers = pool.size();
    // Stage 1 (parallel per source): encode the partition once.
    let encoded = pool.run_metered(
        parts.into_iter().collect::<Vec<_>>(),
        Some(metrics),
        |_, rows| {
            let mut buf = BytesMut::with_capacity(rows.len() * 32);
            for row in &rows {
                wire::encode_row(row, &mut buf);
            }
            Ok((rows, buf.freeze()))
        },
    )?;

    let mut delivered_rows = 0u64;
    let mut delivered_bytes = 0u64;
    for (rows, buf) in encoded.iter() {
        let receivers = workers.saturating_sub(1) as u64;
        delivered_rows += rows.len() as u64 * receivers;
        delivered_bytes += buf.len() as u64 * receivers;
    }

    // Resolve every src → dst delivery on the coordinator, in a fixed
    // order, before the parallel decode stage: copies[dst][src] is the
    // number of arrived copies (drops retransmit inside `deliver`).
    let site = delivery_site(metrics);
    let mut copies: Vec<Vec<u32>> = vec![vec![1; workers]; workers];
    for (dst, row) in copies.iter_mut().enumerate() {
        for (src, (_, buf)) in encoded.iter().enumerate() {
            if src != dst && !buf.is_empty() {
                row[src] = delivered_copies(&site, src, dst)?;
            }
        }
    }

    // Stage 2 (parallel per destination): local clone + decode all
    // remotes. Each source contributes one buffer, so a duplicated
    // delivery is recognized by its source id and decoded only once.
    let out = pool.run_metered(
        (0..workers).collect::<Vec<usize>>(),
        Some(metrics),
        |_, dst| {
            let inbound: u64 = encoded
                .iter()
                .enumerate()
                .filter(|(src, _)| *src != dst)
                .map(|(_, (_, buf))| buf.len() as u64)
                .sum();
            metrics.charge_network(inbound);
            let mut rows = Vec::new();
            let mut received = 0usize;
            for (src, (local, buf)) in encoded.iter().enumerate() {
                if src == dst {
                    rows.extend(local.iter().cloned());
                } else {
                    if let Some((ctx, _)) = &site {
                        for _ in 1..copies[dst][src] {
                            ctx.note_duplicate_discarded();
                        }
                    }
                    received += decode_all(buf, &mut rows)?;
                }
            }
            metrics.charge_worker_io(dst, received as u64, inbound);
            Ok(rows)
        },
    )?;

    metrics.record_broadcast(delivered_rows, delivered_bytes);
    Ok(out)
}

/// Move everything to worker 0 (final result collection, global sort).
/// Sources encode in parallel; the coordinator decodes.
pub fn gather(parts: Parts, pool: &WorkerPool, metrics: &QueryMetrics) -> Result<Vec<Row>> {
    let indexed: Vec<(usize, Vec<Row>)> = parts.into_iter().enumerate().collect();
    let encoded = pool.run_metered(indexed, Some(metrics), |_, (src, rows)| {
        if src == 0 {
            Ok((rows, Bytes::new()))
        } else {
            let mut buf = BytesMut::with_capacity(rows.len() * 32);
            for row in &rows {
                wire::encode_row(row, &mut buf);
            }
            Ok((Vec::new(), buf.freeze()))
        }
    })?;

    // The coordinator pulls each worker's buffer under the fault plan:
    // drops retransmit inside `deliver`, and a duplicated buffer is
    // recognized by its source id and decoded only once.
    let site = delivery_site(metrics);
    let mut out = Vec::new();
    let mut moved_rows = 0u64;
    let mut moved_bytes = 0u64;
    for (src, (local, buf)) in encoded.into_iter().enumerate() {
        out.extend(local);
        if buf.is_empty() {
            continue;
        }
        for _ in 1..delivered_copies(&site, src, 0)? {
            if let Some((ctx, _)) = &site {
                ctx.note_duplicate_discarded();
            }
        }
        moved_bytes += buf.len() as u64;
        moved_rows += decode_all(&buf, &mut out)? as u64;
    }
    // The coordinator receives everything over its single link.
    metrics.charge_network(moved_bytes);
    metrics.charge_worker_io(0, moved_rows, moved_bytes);
    metrics.record_shuffle(moved_rows, moved_bytes);
    Ok(out)
}

/// Round-robin rows into one partition per worker (random/rebalancing
/// exchange — what the engine does when a theta join needs *some*
/// partitioning). Deterministic *global* round-robin: row `j` of source
/// partition `i` goes to worker `(offset_i + j) % workers` where
/// `offset_i` counts the rows of all earlier sources — so the output is
/// level (sizes differ by at most 1) no matter how skewed the input is.
/// (Per-source round-robin `(i + j) % workers` could stack up to one
/// extra row per source on the same worker.)
///
/// Routing is purely positional — no destination tag is appended to the
/// row, so the shuffle serializes (and the metrics count) exactly the
/// row's real payload. An earlier implementation smuggled the destination
/// through a temporary `Int64` column, inflating `bytes_shuffled` by 9
/// bytes per crossing row.
pub fn rebalance(parts: Parts, pool: &WorkerPool, metrics: &QueryMetrics) -> Result<Parts> {
    let workers = pool.size();
    let mut offsets = Vec::with_capacity(parts.len());
    let mut total = 0usize;
    for p in &parts {
        offsets.push(total);
        total += p.len();
    }
    shuffle_routed(parts, pool, metrics, move |src, j, _row| {
        (offsets[src] + j) % workers
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fudj_types::Value;

    fn rows_of(vals: &[i64]) -> Vec<Row> {
        vals.iter()
            .map(|&v| Row::new(vec![Value::Int64(v)]))
            .collect()
    }

    fn flatten_sorted(parts: Parts) -> Vec<Row> {
        let mut all: Vec<Row> = parts.into_iter().flatten().collect();
        all.sort();
        all
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let parts = vec![rows_of(&[1, 2, 3]), rows_of(&[4, 5]), rows_of(&[6])];
        let m = QueryMetrics::new();
        let pool = WorkerPool::new(4);
        let out = shuffle_by_column(parts, &pool, 0, &m).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(flatten_sorted(out), rows_of(&[1, 2, 3, 4, 5, 6]));
    }

    #[test]
    fn shuffle_routes_equal_keys_together() {
        let parts = vec![rows_of(&[7, 8]), rows_of(&[7, 9, 7])];
        let m = QueryMetrics::new();
        let pool = WorkerPool::new(3);
        let out = shuffle_by_column(parts, &pool, 0, &m).unwrap();
        let with_sevens: Vec<usize> = out
            .iter()
            .enumerate()
            .filter(|(_, p)| p.iter().any(|r| r.get(0) == &Value::Int64(7)))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(with_sevens.len(), 1, "all 7s on one worker");
        assert_eq!(
            out[with_sevens[0]]
                .iter()
                .filter(|r| r.get(0) == &Value::Int64(7))
                .count(),
            3
        );
    }

    #[test]
    fn local_rows_do_not_count_as_network() {
        // One worker: nothing can cross the network.
        let parts = vec![rows_of(&[1, 2, 3])];
        let m = QueryMetrics::new();
        let pool = WorkerPool::new(1);
        shuffle_by_column(parts, &pool, 0, &m).unwrap();
        assert_eq!(m.snapshot().bytes_shuffled, 0);
    }

    #[test]
    fn cross_worker_rows_are_counted() {
        let parts = vec![rows_of(&[1]), rows_of(&[2])];
        let m = QueryMetrics::new();
        let pool = WorkerPool::new(2);
        // Route everything to worker 0: the row from worker 1 crosses.
        shuffle_by(parts, &pool, &m, |_| 0).unwrap();
        let s = m.snapshot();
        assert_eq!(s.rows_shuffled, 1);
        // i64 row: 4 (width) + 1 (tag) + 8 (payload) = 13 bytes.
        assert_eq!(s.bytes_shuffled, 13);
        // The receiving worker's per-worker counters see the same row.
        assert_eq!(s.per_worker[0].rows, 1);
        assert_eq!(s.per_worker[0].bytes, 13);
    }

    #[test]
    fn broadcast_replicates_everywhere() {
        let parts = vec![rows_of(&[1]), rows_of(&[2]), Vec::new()];
        let m = QueryMetrics::new();
        let pool = WorkerPool::new(3);
        let out = broadcast(parts, &pool, &m).unwrap();
        for p in &out {
            assert_eq!(flatten_sorted(vec![p.clone()]), rows_of(&[1, 2]));
        }
        // 2 rows × 2 remote receivers each.
        assert_eq!(m.snapshot().rows_broadcast, 4);
    }

    #[test]
    fn gather_collects_all() {
        let parts = vec![rows_of(&[3]), rows_of(&[1]), rows_of(&[2])];
        let m = QueryMetrics::new();
        let pool = WorkerPool::new(3);
        let mut all = gather(parts, &pool, &m).unwrap();
        all.sort();
        assert_eq!(all, rows_of(&[1, 2, 3]));
        let s = m.snapshot();
        assert_eq!(s.rows_shuffled, 2, "worker 0's row is local");
        assert_eq!(
            s.per_worker[0].rows, 2,
            "gathered rows land on the coordinator"
        );
    }

    /// The decode every receiver (gather's coordinator included) runs on
    /// an inbound buffer: bytes cut off mid-row are an error, never a panic.
    #[test]
    fn truncated_inbound_buffer_is_a_wire_error() {
        let mut buf = BytesMut::new();
        let rows = [
            Row::new(vec![Value::Int64(7), Value::str("seven")]),
            Row::new(vec![Value::Null, Value::Float64(0.5)]),
        ];
        let mut boundaries = vec![0];
        for row in &rows {
            wire::encode_row(row, &mut buf);
            boundaries.push(buf.len());
        }
        let whole = buf.freeze();
        for cut in 0..=whole.len() {
            let mut out = Vec::new();
            let got = decode_all(&whole[..cut], &mut out);
            match boundaries.iter().position(|&b| b == cut) {
                Some(n) => assert_eq!(got.unwrap(), n, "cut at a row boundary"),
                None => assert!(
                    matches!(got, Err(fudj_types::FudjError::Wire(_))),
                    "cut {cut}: {got:?}"
                ),
            }
        }
    }

    #[test]
    fn rebalance_levels_partitions() {
        let parts = vec![rows_of(&(0..10).collect::<Vec<_>>()), Vec::new()];
        let m = QueryMetrics::new();
        let pool = WorkerPool::new(2);
        let out = rebalance(parts, &pool, &m).unwrap();
        assert_eq!(out[0].len(), 5);
        assert_eq!(out[1].len(), 5);
        // Routing is positional: rows keep exactly their original column.
        assert!(out.iter().flatten().all(|r| r.len() == 1));
    }

    #[test]
    fn rebalance_levels_skewed_multi_source_input() {
        // Per-source round-robin `(src + j) % workers` would give worker 1
        // two rows and worker 3 none here; global round-robin levels it.
        let parts = vec![rows_of(&[1, 2]), rows_of(&[3, 4]), Vec::new(), Vec::new()];
        let m = QueryMetrics::new();
        let pool = WorkerPool::new(4);
        let out = rebalance(parts, &pool, &m).unwrap();
        assert!(out.iter().all(|p| p.len() == 1), "{out:?}");
    }

    #[test]
    fn rebalance_counts_untagged_wire_bytes() {
        // Regression: rebalance used to append an Int64 routing column
        // before the shuffle, so every crossing row was serialized 9
        // bytes (1 tag + 8 payload) too large. Row 1 of source 0 goes to
        // worker (0 + 1) % 2 = 1 — exactly one single-column i64 row
        // crosses, and it must be counted at its real wire size:
        // 4 (width) + 1 (tag) + 8 (payload) = 13 bytes, not 22.
        let parts = vec![rows_of(&[1, 2]), Vec::new()];
        let m = QueryMetrics::new();
        let pool = WorkerPool::new(2);
        let out = rebalance(parts, &pool, &m).unwrap();
        assert_eq!(flatten_sorted(out), rows_of(&[1, 2]));
        let s = m.snapshot();
        assert_eq!(s.rows_shuffled, 1);
        assert_eq!(s.bytes_shuffled, 13);
    }

    #[test]
    fn empty_input_shuffles_to_empty() {
        let m = QueryMetrics::new();
        let pool = WorkerPool::new(3);
        let out = shuffle_by(vec![Vec::new(); 3], &pool, &m, |_| 0).unwrap();
        assert!(out.iter().all(Vec::is_empty));
        assert_eq!(m.snapshot().rows_shuffled, 0);
    }
}
