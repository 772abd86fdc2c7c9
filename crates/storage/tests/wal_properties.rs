//! Property tests for WAL/snapshot corruption detection: any single bit
//! flip or truncation of an encoded record is *detected* by the checksum
//! — replay may drop or quarantine the damaged frame, but it never
//! mis-decodes one into a different record, and it never panics.

use fudj_geo::Point;
use fudj_storage::snapshot::{decode_snapshot, encode_snapshot};
use fudj_storage::wal::{crc32, encode_frame, GuardSpec, JoinSpec, WAL_MAGIC};
use fudj_storage::{replay_wal, SnapshotState, SnapshotTable, WalRecord};
use fudj_types::{Row, Value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int64),
        (-1e15f64..1e15).prop_map(Value::Float64),
        "[a-zA-Z0-9 ]{0,16}".prop_map(Value::str),
        any::<u128>().prop_map(Value::Uuid),
    ]
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    let name = "[a-z]{1,10}";
    prop_oneof![
        (
            name,
            prop::collection::vec(("[a-z]{1,8}", Just("bigint".to_owned())), 1..4),
            1u32..8
        )
            .prop_map(|(n, fields, parts)| {
                let pk = fields[0].0.clone();
                WalRecord::CreateTable {
                    name: n,
                    fields,
                    primary_key: pk,
                    partitions: parts,
                }
            }),
        name.prop_map(|n| WalRecord::DropTable { name: n }),
        (
            name,
            prop::collection::vec(
                prop::collection::vec(arb_value(), 1..4).prop_map(Row::new),
                0..6
            )
        )
            .prop_map(|(table, rows)| WalRecord::Append { table, rows }),
        (name, name, name, 0u64..1000).prop_map(|(n, lib, class, budget)| {
            WalRecord::CreateJoin(JoinSpec {
                name: n,
                library: lib,
                class,
                arg_types: vec!["bigint".into(), "string".into()],
                guard: GuardSpec {
                    policy: "quarantine".into(),
                    call_budget_ms: budget,
                    max_pplan_bytes: 1024,
                    max_buckets_per_key: 8,
                    max_assign_fanout: 4,
                    check_sample: 1,
                },
                memory_budget_rows: (budget % 2 == 0).then_some(budget),
            })
        }),
        name.prop_map(|n| WalRecord::DropJoin { name: n }),
    ]
}

fn segment(records: &[WalRecord]) -> Vec<u8> {
    let mut bytes = WAL_MAGIC.to_vec();
    for (i, rec) in records.iter().enumerate() {
        bytes.extend_from_slice(&encode_frame(i as u64 + 1, rec));
    }
    bytes
}

proptest! {
    /// Flipping any single bit anywhere in a segment never yields a
    /// mis-decoded record: every record that replay *does* return is
    /// byte-identical to the original at its sequence number.
    #[test]
    fn single_bit_flip_never_misdecodes(
        records in prop::collection::vec(arb_record(), 1..6),
        flip in any::<u64>(),
    ) {
        let clean = segment(&records);
        let bit = (flip % (clean.len() as u64 * 8)) as usize;
        let mut damaged = clean.clone();
        damaged[bit / 8] ^= 1 << (bit % 8);
        let replay = replay_wal(&damaged);
        // Detection: the damaged segment must not replay cleanly.
        prop_assert!(
            replay.torn_tail
                || replay.quarantined > 0
                || replay.records.len() < records.len(),
            "flip at bit {} undetected", bit
        );
        // No mis-decode: surviving records match the originals exactly.
        for (seq, rec) in &replay.records {
            prop_assert!(*seq >= 1 && *seq <= records.len() as u64, "alien seq {seq}");
            prop_assert_eq!(rec, &records[(*seq - 1) as usize], "seq {} mis-decoded", seq);
        }
    }

    /// Truncating a segment at any byte yields a clean prefix: replay
    /// returns exactly the records whose frames fit, in order, and flags
    /// the cut as a torn tail (unless the cut lands on a frame boundary).
    #[test]
    fn truncation_recovers_exact_prefix(
        records in prop::collection::vec(arb_record(), 1..6),
        cut in any::<u64>(),
    ) {
        let clean = segment(&records);
        let at = (cut % (clean.len() as u64 + 1)) as usize;
        let replay = replay_wal(&clean[..at]);
        prop_assert!(replay.records.len() <= records.len());
        for (i, (seq, rec)) in replay.records.iter().enumerate() {
            prop_assert_eq!(*seq, i as u64 + 1, "replay is a gapless prefix");
            prop_assert_eq!(rec, &records[i]);
        }
        prop_assert!(replay.valid_len <= at as u64);
        // Replaying the truncated-to-valid prefix is stable (idempotent
        // recovery: a second crash during recovery changes nothing).
        let again = replay_wal(&clean[..replay.valid_len as usize]);
        prop_assert_eq!(again.records, replay.records);
        prop_assert!(!again.torn_tail || replay.valid_len == 0);
    }

    /// Snapshot images detect any single bit flip and any truncation —
    /// decode fails cleanly rather than returning altered state.
    #[test]
    fn snapshot_bit_flip_and_truncation_detected(
        rows in prop::collection::vec(prop::collection::vec(arb_value(), 2..4).prop_map(Row::new), 0..8),
        flip in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let state = SnapshotState {
            last_seq: rows.len() as u64,
            joins: vec![],
            tables: vec![SnapshotTable {
                name: "t".into(),
                fields: vec![("a".into(), "bigint".into()), ("b".into(), "string".into())],
                primary_key: "a".into(),
                partitions: 2,
                rows,
            }],
        };
        let clean = fudj_storage::snapshot::encode_snapshot(&state);
        prop_assert_eq!(fudj_storage::snapshot::decode_snapshot(&clean).unwrap(), state);
        let bit = (flip % (clean.len() as u64 * 8)) as usize;
        let mut damaged = clean.clone();
        damaged[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            fudj_storage::snapshot::decode_snapshot(&damaged).is_err(),
            "flip at bit {} undetected", bit
        );
        let at = (cut % clean.len() as u64) as usize; // strictly shorter than clean
        prop_assert!(fudj_storage::snapshot::decode_snapshot(&clean[..at]).is_err());
    }
}

/// The CRC32 definition itself, one bit at a time: the reflected IEEE
/// polynomial, register preset to all ones and inverted at the end.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

proptest! {
    /// The sliced CRC equals the bitwise definition on every length
    /// 0..=256 at every start offset 0..8, so each split into 8-byte blocks
    /// and a byte tail is covered.
    #[test]
    fn crc32_equals_bytewise_reference(bytes in prop::collection::vec(any::<u8>(), 264..265)) {
        for off in 0..8 {
            for len in 0..=256 {
                let slice = &bytes[off..off + len];
                prop_assert_eq!(crc32(slice), crc32_bitwise(slice), "offset {} length {}", off, len);
            }
        }
    }
}

#[test]
fn crc32_known_vector() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
}

/// A small snapshot image, byte for byte: the encoder must write exactly
/// these bytes and the decoder must read them back to the same state.
#[test]
fn snapshot_bytes_are_pinned() {
    const IMAGE: &[u8] = &[
        70, 85, 68, 74, 83, 78, 80, 49, 9, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 4, 0, 0, 0, 110, 101,
        97, 114, 3, 0, 0, 0, 103, 101, 111, 1, 0, 0, 0, 100, 1, 0, 0, 0, 5, 0, 0, 0, 112, 111, 105,
        110, 116, 8, 0, 0, 0, 102, 97, 105, 108, 102, 97, 115, 116, 5, 0, 0, 0, 0, 0, 0, 0, 6, 0,
        0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
        1, 64, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 116, 2, 0, 0, 0, 2, 0, 0, 0, 105, 100,
        6, 0, 0, 0, 98, 105, 103, 105, 110, 116, 2, 0, 0, 0, 97, 116, 5, 0, 0, 0, 112, 111, 105,
        110, 116, 2, 0, 0, 0, 105, 100, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 0,
        0, 8, 0, 0, 0, 0, 0, 0, 224, 63, 0, 0, 0, 0, 0, 0, 0, 192, 2, 0, 0, 0, 2, 254, 255, 255,
        255, 255, 255, 255, 255, 0, 45, 164, 245, 55,
    ];
    let state = SnapshotState {
        last_seq: 9,
        joins: vec![JoinSpec {
            name: "near".into(),
            library: "geo".into(),
            class: "d".into(),
            arg_types: vec!["point".into()],
            guard: GuardSpec {
                policy: "failfast".into(),
                call_budget_ms: 5,
                max_pplan_bytes: 6,
                max_buckets_per_key: 7,
                max_assign_fanout: 8,
                check_sample: 1,
            },
            memory_budget_rows: Some(64),
        }],
        tables: vec![SnapshotTable {
            name: "t".into(),
            fields: vec![
                ("id".into(), "bigint".into()),
                ("at".into(), "point".into()),
            ],
            primary_key: "id".into(),
            partitions: 2,
            rows: vec![
                Row::new(vec![Value::Int64(1), Value::Point(Point::new(0.5, -2.0))]),
                Row::new(vec![Value::Int64(-2), Value::Null]),
            ],
        }],
    };
    assert_eq!(encode_snapshot(&state), IMAGE);
    assert_eq!(decode_snapshot(IMAGE).unwrap(), state);
}
