//! Property tests: the checkpoint store round-trips arbitrary rows through
//! the wire format, and its byte accounting agrees with what `encode_row`
//! actually produces (so checkpoint bytes are comparable to the shuffle
//! byte meters) — on a fresh in-memory store and on one relocated onto a
//! `FaultFs` standing in for a WAL directory. Plus the frame format, pinned.

use bytes::BytesMut;
use fudj_geo::{Point, Polygon};
use fudj_storage::{CheckpointStore, FaultFs, StorageFaultConfig, Vfs};
use fudj_temporal::Interval;
use fudj_types::{wire, Row, Value};
use proptest::prelude::*;
use std::path::Path;

/// Where a relocated store keeps its frames.
const WAL_CHECKPOINTS: &str = "/wal/checkpoints";

/// A fresh store with `budget`, in memory or (`on_wal`) relocated onto a
/// simulated disk.
fn store(budget: Option<u64>, on_wal: bool) -> CheckpointStore {
    let store = CheckpointStore::new();
    store.set_budget(budget);
    if on_wal {
        let fs = FaultFs::new(StorageFaultConfig::quiet(0));
        store.relocate(fs, WAL_CHECKPOINTS).unwrap();
    }
    store
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int64),
        // Finite floats only: the engine never stores NaN/inf.
        (-1e15f64..1e15).prop_map(Value::Float64),
        "[a-zA-Z0-9 ]{0,24}".prop_map(Value::str),
        any::<u128>().prop_map(Value::Uuid),
        any::<i64>().prop_map(Value::DateTime),
        (any::<i32>(), 0i32..1_000_000)
            .prop_map(|(s, d)| Value::Interval(Interval::new(s as i64, s as i64 + d as i64))),
        (-1e6f64..1e6, -1e6f64..1e6).prop_map(|(x, y)| Value::Point(Point::new(x, y))),
        prop::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 3..8).prop_map(|pts| {
            Value::polygon(Polygon::new(
                pts.into_iter().map(|(x, y)| Point::new(x, y)).collect(),
            ))
        }),
    ]
}

fn arb_partition() -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        prop::collection::vec(arb_value(), 0..6).prop_map(Row::new),
        0..12,
    )
}

proptest! {
    /// put → get restores the exact rows, and the reported checkpoint
    /// size equals the sum of the rows' wire encodings.
    #[test]
    fn checkpoint_roundtrip_and_byte_accounting(parts in prop::collection::vec(arb_partition(), 1..4), on_wal in any::<bool>()) {
        let store = store(None, on_wal);
        let mut expected_total = 0u64;
        for (p, rows) in parts.iter().enumerate() {
            let outcome = store.put(7, "join:partition/left", p, rows).unwrap();
            let mut buf = BytesMut::new();
            for row in rows {
                wire::encode_row(row, &mut buf);
            }
            prop_assert_eq!(outcome.bytes, buf.len() as u64, "partition {}", p);
            prop_assert_eq!(outcome.evicted, 0);
            expected_total += buf.len() as u64;
        }
        prop_assert_eq!(store.total_bytes(), expected_total);
        prop_assert_eq!(store.stats().bytes_written, expected_total);
        for (p, rows) in parts.iter().enumerate() {
            let restored = store.get(7, "join:partition/left", p).unwrap();
            prop_assert_eq!(&restored, rows, "partition {}", p);
        }
        // Unknown keys stay misses even with data present.
        prop_assert!(store.get(7, "join:partition/right", 0).is_none());
        prop_assert!(store.get(8, "join:partition/left", 0).is_none());
    }

    /// Eviction under a byte budget never corrupts surviving checkpoints,
    /// never reports a total above the budget, and removes what it evicts.
    #[test]
    fn eviction_preserves_survivors(parts in prop::collection::vec(arb_partition(), 2..6), budget in 1u64..4096, on_wal in any::<bool>()) {
        let store = store(Some(budget), on_wal);
        for (p, rows) in parts.iter().enumerate() {
            store.put(1, "agg:shuffle/partials", p, rows).unwrap();
        }
        prop_assert!(store.total_bytes() <= budget);
        prop_assert_eq!(store.frames().len(), store.len());
        for (p, rows) in parts.iter().enumerate() {
            if let Some(restored) = store.get(1, "agg:shuffle/partials", p) {
                prop_assert_eq!(&restored, rows, "partition {}", p);
            }
        }
    }
}

/// Finishing a query drops its checkpoints *eagerly* (not by waiting for
/// global FIFO eviction): under a budget that only fits one query's
/// working set, dropping the finished query's entries must leave the
/// full headroom to the query that is still running.
#[test]
fn finished_query_drop_relieves_eviction_pressure() {
    let row = || {
        Row::new(vec![
            Value::Int64(42),
            Value::str("payload-payload-payload"),
        ])
    };
    let rows: Vec<Row> = (0..8).map(|_| row()).collect();
    let per_part = {
        let probe = CheckpointStore::new();
        probe.put(0, "probe", 0, &rows).unwrap().bytes
    };
    for on_wal in [false, true] {
        // Budget fits ~6 partitions: query 1's four partitions plus a little.
        let store = store(Some(per_part * 6), on_wal);
        for p in 0..4 {
            store.put(1, "join:combine/joined", p, &rows).unwrap();
        }
        // Query 1 finishes → its checkpoints drop eagerly.
        store.remove_query(1);
        assert_eq!(store.len(), 0);
        assert_eq!(store.total_bytes(), 0);
        // Query 2 now writes four partitions of its own. With eager drop the
        // budget holds them all — nothing is evicted. (Under pure global
        // FIFO, query 1's stale entries would have forced evictions here.)
        let mut evicted = 0;
        for p in 0..4 {
            evicted += store
                .put(2, "join:combine/joined", p, &rows)
                .unwrap()
                .evicted;
        }
        assert_eq!(evicted, 0, "eager drop must leave query 2 the full budget");
        for p in 0..4 {
            let restored = store.get(2, "join:combine/joined", p).unwrap();
            assert_eq!(restored, rows);
        }
        // A finished query's keys are really gone, not shadowed.
        assert!(store.get(1, "join:combine/joined", 0).is_none());
    }
}

/// The process that resumes a crashed query is not the one that wrote its
/// frames: a store relocated onto a disk holding another store's frames
/// reads them back, and finishing the query deletes them.
#[test]
fn relocated_store_reads_and_removes_another_stores_frames() {
    let fs = FaultFs::new(StorageFaultConfig::quiet(3));
    let rows: Vec<Row> = (0..3)
        .map(|i| Row::new(vec![Value::Int64(i), Value::str("left behind")]))
        .collect();
    let crashed = CheckpointStore::new();
    crashed.relocate(fs.clone(), WAL_CHECKPOINTS).unwrap();
    for (query, p) in [(9, 0), (9, 1), (10, 0)] {
        crashed
            .put(query, "agg:shuffle/partials", p, &rows)
            .unwrap();
    }

    let fresh = CheckpointStore::new();
    fresh.relocate(fs.clone(), WAL_CHECKPOINTS).unwrap();
    assert!(fresh.is_empty(), "it wrote nothing of its own");
    assert!(fresh.covers(9, "agg:shuffle/partials", 1));
    assert_eq!(fresh.get(9, "agg:shuffle/partials", 1).unwrap(), rows);
    fresh.remove_query(9);
    assert!(fresh.get(9, "agg:shuffle/partials", 0).is_none());
    assert_eq!(
        fs.list(Path::new(WAL_CHECKPOINTS)).unwrap(),
        ["ckpt-000000000000000a-agg_shuffle_partials-0.fckpt"],
        "only the other query's frame is left"
    );
}

/// A frame captured from the build whose store kept a second, in-memory
/// copy of every checkpoint (the bytes a crashed process of that build
/// left on disk): it still restores, and the store writes the same bytes
/// for the same checkpoint.
#[test]
fn frame_bytes_are_pinned() {
    const FRAME: &[u8] = &[
        70, 85, 68, 74, 67, 75, 80, 49, 89, 0, 0, 0, 239, 205, 171, 137, 103, 69, 35, 1, 19, 0, 0,
        0, 106, 111, 105, 110, 58, 99, 111, 109, 98, 105, 110, 101, 47, 106, 111, 105, 110, 101,
        100, 3, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 2, 7, 0, 0, 0, 0, 0, 0, 0, 4, 4, 0, 0, 0, 112, 97,
        114, 107, 0, 3, 0, 0, 0, 2, 255, 255, 255, 255, 255, 255, 255, 255, 4, 0, 0, 0, 0, 3, 0, 0,
        0, 0, 0, 0, 4, 64, 178, 60, 158, 9,
    ];
    let (query, stage, partition) = (0x0123_4567_89ab_cdef, "join:combine/joined", 3);
    let rows = vec![
        Row::new(vec![Value::Int64(7), Value::str("park"), Value::Null]),
        Row::new(vec![Value::Int64(-1), Value::str(""), Value::Float64(2.5)]),
    ];
    let path = Path::new(WAL_CHECKPOINTS).join("ckpt-0123456789abcdef-join_combine_joined-3.fckpt");

    let fs = FaultFs::new(StorageFaultConfig::quiet(0));
    fs.write_file(&path, FRAME).unwrap();
    let store = CheckpointStore::new();
    store.relocate(fs.clone(), WAL_CHECKPOINTS).unwrap();
    assert_eq!(store.get(query, stage, partition).unwrap(), rows);

    store.remove_query(query);
    let outcome = store.put(query, stage, partition, &rows).unwrap();
    assert_eq!(outcome.bytes, 50, "the wire rows, not the frame");
    assert_eq!(fs.read(&path).unwrap(), FRAME);
}
