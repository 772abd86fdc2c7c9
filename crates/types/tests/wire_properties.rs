//! Property tests: every value round-trips the wire format and the external
//! translation protocol without loss.

use bytes::{Buf, Bytes, BytesMut};
use fudj_geo::{Point, Polygon};
use fudj_temporal::Interval;
use fudj_types::{ext, wire, Batch, DataType, Field, Row, Schema, Value};
use proptest::prelude::*;

fn arb_scalar() -> impl Strategy<Value = Value> {
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
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        4 => arb_scalar(),
        1 => prop::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 3..10)
            .prop_map(|pts| Value::polygon(Polygon::new(
                pts.into_iter().map(|(x, y)| Point::new(x, y)).collect()
            ))),
        1 => prop::collection::vec(arb_scalar(), 0..6).prop_map(Value::list),
    ]
}

fn arb_row() -> impl Strategy<Value = Row> {
    prop::collection::vec(arb_value(), 0..8).prop_map(Row::new)
}

proptest! {
    /// Whole rows round-trip: any mix of the engine's data types survives
    /// decode(encode(r)) bit-for-bit with no bytes left over.
    #[test]
    fn row_roundtrip(row in arb_row()) {
        let mut buf = BytesMut::new();
        wire::encode_row(&row, &mut buf);
        let mut bytes = buf.freeze();
        let back = wire::decode_row(&mut bytes).unwrap();
        prop_assert_eq!(back, row);
        prop_assert!(!bytes.has_remaining());
    }

    /// A row's encoded size is exactly its width prefix plus its values'
    /// encodings — the invariant the exchange and checkpoint byte meters
    /// rely on when they charge `encode_row` output lengths to their
    /// network/storage counters.
    #[test]
    fn row_encoded_size_is_sum_of_value_encodings(row in arb_row()) {
        let mut whole = BytesMut::new();
        wire::encode_row(&row, &mut whole);
        let mut expected = 4; // u32 width prefix
        for v in row.values() {
            let mut one = BytesMut::new();
            wire::encode_value(v, &mut one);
            expected += one.len();
        }
        prop_assert_eq!(whole.len(), expected);
    }

    #[test]
    fn wire_roundtrip(v in arb_value()) {
        let mut buf = BytesMut::new();
        wire::encode_value(&v, &mut buf);
        let mut bytes = buf.freeze();
        let back = wire::decode_value(&mut bytes).unwrap();
        prop_assert_eq!(back, v);
        prop_assert!(!bytes.has_remaining());
    }

    /// Decoding arbitrary garbage must never panic — errors only.
    #[test]
    fn decode_garbage_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let mut b = bytes::Bytes::from(bytes);
        let _ = wire::decode_value(&mut b);
    }

    /// The bulk row entry gives exactly what `decode_row` gives called once
    /// per row, counted or reading to the end of the buffer.
    #[test]
    fn rows_entry_equals_repeated_decode_row(rows in prop::collection::vec(arb_row(), 0..8)) {
        let mut buf = BytesMut::new();
        for row in &rows {
            wire::encode_row(row, &mut buf);
        }
        let mut one_by_one = Vec::new();
        let mut bytes = buf.clone().freeze();
        for _ in 0..rows.len() {
            one_by_one.push(wire::decode_row(&mut bytes).unwrap());
        }
        prop_assert!(!bytes.has_remaining());
        prop_assert_eq!(&one_by_one, &rows);
        for count in [Some(rows.len()), None] {
            let mut cur = wire::Cursor::new(&buf);
            let mut bulk = vec![Row::new(vec![Value::Null])];
            prop_assert_eq!(cur.rows(count, &mut bulk).unwrap(), rows.len());
            prop_assert!(cur.is_empty());
            prop_assert_eq!(&bulk[1..], &one_by_one[..]);
        }
    }

    /// Cutting an encoded multi-row batch anywhere short of its end is an
    /// error, never a panic and never a shorter batch.
    #[test]
    fn every_cut_of_a_multi_row_batch_is_an_error(
        rows in prop::collection::vec(prop::collection::vec(arb_value(), 2..3).prop_map(Row::new), 2..6)
    ) {
        let schema = Schema::shared(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::String),
        ]);
        let whole = wire::encode_batch(&Batch::new(schema.clone(), rows));
        for cut in 0..whole.len() {
            let part = Bytes::from(&whole[..cut]);
            prop_assert!(wire::decode_batch(part, schema.clone()).is_err(), "cut at {}", cut);
        }
    }

    /// Translation to external types and back is lossless for the key types
    /// FUDJ libraries receive.
    #[test]
    fn external_translation_roundtrip(v in arb_value()) {
        let target = v.data_type();
        // Heterogeneous / non-simple lists legitimately fail translation.
        if let Ok(ev) = ext::to_external(&v) {
            if matches!(
                target,
                DataType::Int64
                    | DataType::Float64
                    | DataType::String
                    | DataType::Bool
                    | DataType::Uuid
                    | DataType::DateTime
                    | DataType::Interval
                    | DataType::Point
                    | DataType::Polygon
            ) {
                let back = ext::from_external(&ev, &target).unwrap();
                prop_assert_eq!(back, v);
            }
        }
    }
}
