//! Compact binary row format.
//!
//! Exchange operators in the simulated cluster serialize every row they
//! ship between workers. That keeps the shuffled-byte metrics honest (the
//! paper's partitioning discussion is largely about network cost) and
//! faithfully models the serialization work a real shared-nothing engine
//! performs at each repartitioning. The WAL, snapshots, checkpoints and
//! spill files store rows in the same format.
//!
//! Format per value: a 1-byte tag, then a fixed- or length-prefixed payload.
//! A row is a `u32` width + its values back to back; a batch is a `u32` row
//! count + rows.
//!
//! Encoding appends to a `BytesMut`. Decoding reads through one [`Cursor`]
//! over a `&[u8]`, where the bytes lie: a string is UTF-8-checked in place
//! and copied once, into its `Arc<str>`; a row's values are collected
//! straight into its `Arc<[Value]>` (one allocation, nothing copied after);
//! [`Cursor::rows`] decodes every row of a buffer. Lengths read from the
//! input are checked against the bytes left before anything is allocated,
//! and `List` nesting is capped at [`MAX_NESTING`], so no input can abort
//! the process: a short, corrupt or hostile buffer is a [`FudjError::Wire`].

use crate::error::{FudjError, Result};
use crate::row::{Batch, Row};
use crate::schema::SchemaRef;
use crate::value::Value;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use fudj_geo::{Point, Polygon};
use fudj_temporal::Interval;
use std::sync::Arc;

const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT64: u8 = 2;
const TAG_FLOAT64: u8 = 3;
const TAG_STR: u8 = 4;
const TAG_UUID: u8 = 5;
const TAG_DATETIME: u8 = 6;
const TAG_INTERVAL: u8 = 7;
const TAG_POINT: u8 = 8;
const TAG_POLYGON: u8 = 9;
const TAG_LIST: u8 = 10;

/// Append one value.
pub fn encode_value(v: &Value, buf: &mut BytesMut) {
    match v {
        Value::Null => buf.put_u8(TAG_NULL),
        Value::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(*b as u8);
        }
        Value::Int64(x) => {
            buf.put_u8(TAG_INT64);
            buf.put_i64_le(*x);
        }
        Value::Float64(x) => {
            buf.put_u8(TAG_FLOAT64);
            buf.put_f64_le(*x);
        }
        Value::Str(s) => {
            buf.put_u8(TAG_STR);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        Value::Uuid(u) => {
            buf.put_u8(TAG_UUID);
            buf.put_u128_le(*u);
        }
        Value::DateTime(ms) => {
            buf.put_u8(TAG_DATETIME);
            buf.put_i64_le(*ms);
        }
        Value::Interval(iv) => {
            buf.put_u8(TAG_INTERVAL);
            buf.put_i64_le(iv.start);
            buf.put_i64_le(iv.end);
        }
        Value::Point(p) => {
            buf.put_u8(TAG_POINT);
            buf.put_f64_le(p.x);
            buf.put_f64_le(p.y);
        }
        Value::Polygon(poly) => {
            buf.put_u8(TAG_POLYGON);
            buf.put_u32_le(poly.ring().len() as u32);
            for p in poly.ring() {
                buf.put_f64_le(p.x);
                buf.put_f64_le(p.y);
            }
        }
        Value::List(vs) => {
            buf.put_u8(TAG_LIST);
            buf.put_u32_le(vs.len() as u32);
            for v in vs.iter() {
                encode_value(v, buf);
            }
        }
    }
}

/// Deepest `List` nesting the decoder accepts (a top-level value is depth
/// 0). Decoding recurses once per level, so a crafted buffer of nested
/// list headers would otherwise overflow the worker's stack; the same cap
/// bounds `list<…>` type strings in the storage log.
pub const MAX_NESTING: usize = 128;

/// A read cursor over a byte slice: every decoder in the workspace reads
/// through one, where the bytes lie. Each read checks its length first and
/// moves past what it returns; a short input is a [`FudjError::Wire`],
/// never a panic.
#[derive(Debug)]
pub struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { rest: bytes }
    }

    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Whether every byte has been read.
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// The next `n` bytes, in place.
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.rest.len() < n {
            return Err(truncated(what, n, self.rest.len()));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N]> {
        let (head, tail) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or_else(|| truncated(what, N, self.rest.len()))?;
        self.rest = tail;
        Ok(*head)
    }

    /// One byte.
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.array::<1>(what)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// A little-endian `i64`.
    fn i64(&mut self, what: &str) -> Result<i64> {
        self.array(what).map(i64::from_le_bytes)
    }

    /// A little-endian `f64`.
    fn f64(&mut self, what: &str) -> Result<f64> {
        self.array(what).map(f64::from_le_bytes)
    }

    /// A little-endian `u128`.
    fn u128(&mut self, what: &str) -> Result<u128> {
        self.array(what).map(u128::from_le_bytes)
    }

    /// A `u32`-length-prefixed UTF-8 string, checked where it lies.
    pub fn str(&mut self, what: &str) -> Result<&'a str> {
        let len = self.u32(what)? as usize;
        std::str::from_utf8(self.take(len, what)?)
            .map_err(|e| FudjError::Wire(format!("{what} is not valid UTF-8: {e}")))
    }

    /// One value.
    fn value(&mut self) -> Result<Value> {
        self.value_at(0)
    }

    fn value_at(&mut self, depth: usize) -> Result<Value> {
        Ok(match self.u8("tag")? {
            TAG_NULL => Value::Null,
            TAG_BOOL => Value::Bool(self.u8("bool")? != 0),
            TAG_INT64 => Value::Int64(self.i64("int64")?),
            TAG_FLOAT64 => Value::Float64(self.f64("float64")?),
            TAG_STR => Value::Str(Arc::from(self.str("string")?)),
            TAG_UUID => Value::Uuid(self.u128("uuid")?),
            TAG_DATETIME => Value::DateTime(self.i64("datetime")?),
            TAG_INTERVAL => {
                let [start, end] = [self.i64("interval")?, self.i64("interval")?];
                if start > end {
                    return Err(FudjError::Wire(format!(
                        "inverted interval [{start}, {end}]"
                    )));
                }
                Value::Interval(Interval::new(start, end))
            }
            TAG_POINT => Value::Point(Point::new(self.f64("point")?, self.f64("point")?)),
            TAG_POLYGON => {
                let n = self.u32("polygon vertex count")? as usize;
                if n < 3 {
                    return Err(FudjError::Wire(format!("polygon with {n} vertices")));
                }
                let ring = self
                    .take(n.saturating_mul(16), "polygon vertices")?
                    .chunks_exact(16)
                    .map(|p| {
                        let (x, y) = p.split_at(8);
                        Point::new(le_f64(x), le_f64(y))
                    })
                    .collect();
                Value::polygon(Polygon::new(ring))
            }
            TAG_LIST => {
                let n = self.u32("list length")? as usize;
                if depth >= MAX_NESTING {
                    return Err(FudjError::Wire(format!(
                        "lists nested deeper than {MAX_NESTING}"
                    )));
                }
                Value::List(Arc::new(self.values(n, depth + 1)?))
            }
            other => return Err(FudjError::Wire(format!("unknown value tag {other}"))),
        })
    }

    /// `n` values collected straight into `C`: an exact-size iterator, so a
    /// `Row`'s `Arc<[Value]>` or a list's `Vec` is allocated once, at its
    /// final size, and nothing is copied after.
    fn values<C: FromIterator<Value>>(&mut self, n: usize, depth: usize) -> Result<C> {
        // Every value takes at least its tag byte, which bounds the allocation.
        if n > self.rest.len() {
            return Err(FudjError::Wire(format!(
                "{n} values cannot fit in the {} bytes left",
                self.rest.len()
            )));
        }
        let mut failed = None;
        let values = (0..n)
            .map(|_| match failed {
                Some(_) => Value::Null,
                None => self.value_at(depth).unwrap_or_else(|e| {
                    failed = Some(e);
                    Value::Null
                }),
            })
            .collect();
        failed.map_or(Ok(values), Err)
    }

    /// One row.
    pub fn row(&mut self) -> Result<Row> {
        let n = self.u32("row width")? as usize;
        self.values(n, 0)
    }

    /// The bulk entry every row reader goes through (exchange receive, WAL
    /// replay, snapshot and checkpoint load, batch decode): decode `count`
    /// rows into `out`, or, when `count` is `None`, every row up to the end
    /// of the input. Returns how many rows it decoded.
    pub fn rows(&mut self, count: Option<usize>, out: &mut Vec<Row>) -> Result<usize> {
        let Some(n) = count else {
            let before = out.len();
            while !self.is_empty() {
                out.push(self.row()?);
            }
            return Ok(out.len() - before);
        };
        // Every row takes at least its 4-byte width, which bounds the reservation.
        out.reserve(n.min(self.rest.len() / 4));
        for _ in 0..n {
            out.push(self.row()?);
        }
        Ok(n)
    }
}

fn truncated(what: &str, need: usize, have: usize) -> FudjError {
    FudjError::Wire(format!(
        "truncated input reading {what}: need {need} bytes, have {have}"
    ))
}

fn le_f64(bytes: &[u8]) -> f64 {
    f64::from_le_bytes(bytes.try_into().expect("an 8-byte half of a vertex"))
}

/// Run `read` on a cursor over `buf`'s unread bytes, then advance `buf`
/// past what it consumed.
fn read_through<T>(
    buf: &mut impl Buf,
    read: impl FnOnce(&mut Cursor<'_>) -> Result<T>,
) -> Result<T> {
    let mut cur = Cursor::new(buf.chunk());
    let out = read(&mut cur);
    let used = buf.remaining() - cur.remaining();
    buf.advance(used);
    out
}

/// Decode one value.
pub fn decode_value(buf: &mut impl Buf) -> Result<Value> {
    read_through(buf, |cur| cur.value())
}

/// Append one row (its width is implied by the schema on the decode side).
pub fn encode_row(row: &Row, buf: &mut BytesMut) {
    buf.put_u32_le(row.len() as u32);
    for v in row.values() {
        encode_value(v, buf);
    }
}

/// Decode one row.
pub fn decode_row(buf: &mut impl Buf) -> Result<Row> {
    read_through(buf, |cur| cur.row())
}

/// Serialize a whole batch to a frozen buffer.
pub fn encode_batch(batch: &Batch) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + batch.len() * 32);
    buf.put_u32_le(batch.len() as u32);
    for row in batch.rows() {
        encode_row(row, &mut buf);
    }
    buf.freeze()
}

/// Decode a batch under a known schema.
pub fn decode_batch(bytes: Bytes, schema: SchemaRef) -> Result<Batch> {
    let mut cur = Cursor::new(&bytes);
    let n = cur.u32("batch row count")? as usize;
    let mut rows = Vec::new();
    cur.rows(Some(n), &mut rows)?;
    if !cur.is_empty() {
        return Err(FudjError::Wire(format!(
            "{} trailing bytes after batch",
            cur.remaining()
        )));
    }
    Ok(Batch::new(schema, rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::DataType;

    fn every_value() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Bool(true),
            Value::Int64(-7),
            Value::Float64(3.25),
            Value::str("text with spaces ünicode"),
            Value::Uuid(u128::MAX - 5),
            Value::DateTime(1_700_000_000_000),
            Value::Interval(Interval::new(-10, 10)),
            Value::Point(Point::new(-1.5, 2.5)),
            Value::polygon(Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(0.0, 1.0),
            ])),
            Value::list(vec![Value::Int64(1), Value::str("x"), Value::Null]),
        ]
    }

    #[test]
    fn value_roundtrip_all_variants() {
        for v in every_value() {
            let mut buf = BytesMut::new();
            encode_value(&v, &mut buf);
            let mut b = buf.freeze();
            let back = decode_value(&mut b).unwrap();
            assert_eq!(back, v, "roundtrip of {v}");
            assert!(!b.has_remaining(), "no trailing bytes for {v}");
        }
    }

    #[test]
    fn row_and_batch_roundtrip() {
        let schema = Schema::shared(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::String),
        ]);
        let rows = vec![
            Row::new(vec![Value::Int64(1), Value::str("one")]),
            Row::new(vec![Value::Int64(2), Value::Null]),
        ];
        let batch = Batch::new(schema.clone(), rows);
        let bytes = encode_batch(&batch);
        let back = decode_batch(bytes, schema).unwrap();
        assert_eq!(back, batch);
    }

    #[test]
    fn truncation_is_detected_not_panicking() {
        let mut buf = BytesMut::new();
        encode_value(&Value::str("hello world"), &mut buf);
        let full = buf.freeze();
        for cut in 0..full.len() {
            let mut partial = full.slice(..cut);
            // Must error (or, for cut=0, error about the tag) — never panic.
            assert!(decode_value(&mut partial).is_err(), "cut at {cut}");
        }
    }

    /// `depth` nested list headers of one element each, around a null.
    fn nested_lists(depth: usize) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(depth * 5 + 1);
        for _ in 0..depth {
            bytes.push(TAG_LIST);
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        bytes.push(TAG_NULL);
        bytes
    }

    #[test]
    fn list_nesting_is_capped_not_a_stack_overflow() {
        let at_cap = nested_lists(MAX_NESTING);
        assert!(Cursor::new(&at_cap).value().is_ok());
        let past_cap = nested_lists(MAX_NESTING + 1);
        assert!(matches!(
            Cursor::new(&past_cap).value(),
            Err(FudjError::Wire(_))
        ));
        // Deep enough to overflow any worker stack without the cap.
        let mut row = 1u32.to_le_bytes().to_vec();
        row.extend(nested_lists(100_000));
        assert!(matches!(
            decode_row(&mut Bytes::from(row)),
            Err(FudjError::Wire(_))
        ));
    }

    #[test]
    fn implausible_widths_fail_before_allocating() {
        let mut row = u32::MAX.to_le_bytes().to_vec();
        row.push(TAG_NULL);
        assert!(matches!(Cursor::new(&row).row(), Err(FudjError::Wire(_))));
        let mut list = vec![TAG_LIST];
        list.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Cursor::new(&list).value(),
            Err(FudjError::Wire(_))
        ));
    }

    #[test]
    fn corrupt_tag_rejected() {
        let mut b = Bytes::from_static(&[200u8]);
        assert!(matches!(decode_value(&mut b), Err(FudjError::Wire(_))));
    }

    #[test]
    fn corrupt_interval_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_i64_le(10);
        buf.put_i64_le(5); // end < start
        assert!(decode_value(&mut buf.freeze()).is_err());
    }

    #[test]
    fn trailing_bytes_in_batch_rejected() {
        let schema = Schema::shared(vec![Field::new("a", DataType::Int64)]);
        let batch = Batch::new(schema.clone(), vec![Row::new(vec![Value::Int64(1)])]);
        let mut bytes = BytesMut::from(&encode_batch(&batch)[..]);
        bytes.put_u8(0xEE);
        assert!(decode_batch(bytes.freeze(), schema).is_err());
    }

    #[test]
    fn encoded_size_reflects_payload() {
        // A sanity anchor for the byte-accounting metrics: a row of two i64s
        // costs 4 (width) + 2 × (1 tag + 8 payload) = 22 bytes.
        let row = Row::new(vec![Value::Int64(1), Value::Int64(2)]);
        let mut buf = BytesMut::new();
        encode_row(&row, &mut buf);
        assert_eq!(buf.len(), 22);
    }
}
