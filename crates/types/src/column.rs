//! Columnar batches: typed column vectors, selection bitmaps, and a
//! columnar reader over the row wire format.
//!
//! The columnar execution mode keeps data in [`ColumnVec`]s — one typed
//! vector per column — so operators run cache-friendly strides over
//! primitive slices instead of per-row `Value` dispatch. A
//! [`SelectionBitmap`] carries filter verdicts between kernels without
//! materializing survivors until a pipeline boundary.
//!
//! On the wire there is one format, the row codec in [`crate::wire`]:
//! [`ColumnReader`] decodes a stream of wire rows straight into columns,
//! so every byte-accounting pin (the 13-byte single-i64 row,
//! shuffle/broadcast byte counters) holds in both execution modes by
//! construction.

use crate::error::{FudjError, Result};
use crate::row::Row;
use crate::value::Value;
use crate::wire;
use bytes::{Buf, Bytes};
use std::sync::Arc;

/// One column of values. Homogeneous primitive columns get a typed
/// vector; anything mixed, null-bearing, or non-primitive falls back to
/// [`ColumnVec::Generic`], which preserves exact row semantics.
#[derive(Clone, Debug, PartialEq)]
pub enum ColumnVec {
    /// All values are `Value::Int64`.
    Int64(Vec<i64>),
    /// All values are `Value::Float64`.
    Float64(Vec<f64>),
    /// All values are `Value::Bool`.
    Bool(Vec<bool>),
    /// All values are `Value::Str`.
    Str(Vec<Arc<str>>),
    /// Arbitrary values (mixed types, nulls, geometry, lists, ...).
    Generic(Vec<Value>),
}

impl ColumnVec {
    /// Empty column; the type is inferred from the first pushed value.
    pub fn new() -> Self {
        ColumnVec::Generic(Vec::new())
    }

    /// Build a column from values, choosing the tightest representation.
    pub fn from_values<I>(values: I) -> Self
    where
        I: IntoIterator<Item = Value>,
    {
        let mut col = ColumnVec::new();
        for v in values {
            col.push(v);
        }
        col
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int64(v) => v.len(),
            ColumnVec::Float64(v) => v.len(),
            ColumnVec::Bool(v) => v.len(),
            ColumnVec::Str(v) => v.len(),
            ColumnVec::Generic(v) => v.len(),
        }
    }

    /// Whether the column holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one value, degrading to [`ColumnVec::Generic`] when the
    /// value does not fit the current typed representation. An empty
    /// generic column adopts the first value's type.
    pub fn push(&mut self, v: Value) {
        if let ColumnVec::Generic(vals) = self {
            if vals.is_empty() {
                *self = match v {
                    Value::Int64(x) => ColumnVec::Int64(vec![x]),
                    Value::Float64(x) => ColumnVec::Float64(vec![x]),
                    Value::Bool(x) => ColumnVec::Bool(vec![x]),
                    Value::Str(s) => ColumnVec::Str(vec![s]),
                    other => ColumnVec::Generic(vec![other]),
                };
                return;
            }
        }
        match (&mut *self, v) {
            (ColumnVec::Int64(vals), Value::Int64(x)) => vals.push(x),
            (ColumnVec::Float64(vals), Value::Float64(x)) => vals.push(x),
            (ColumnVec::Bool(vals), Value::Bool(x)) => vals.push(x),
            (ColumnVec::Str(vals), Value::Str(s)) => vals.push(s),
            (ColumnVec::Generic(vals), other) => vals.push(other),
            (_, other) => {
                // Type mismatch: degrade to generic, preserving order.
                let mut vals = self.to_values();
                vals.push(other);
                *self = ColumnVec::Generic(vals);
            }
        }
    }

    /// The value at `i`, cloned out (cheap: payloads are `Arc`-backed).
    ///
    /// # Panics
    /// Panics when `i` is out of bounds, like slice indexing.
    pub fn value(&self, i: usize) -> Value {
        match self {
            ColumnVec::Int64(v) => Value::Int64(v[i]),
            ColumnVec::Float64(v) => Value::Float64(v[i]),
            ColumnVec::Bool(v) => Value::Bool(v[i]),
            ColumnVec::Str(v) => Value::Str(v[i].clone()),
            ColumnVec::Generic(v) => v[i].clone(),
        }
    }

    /// Copy of the sub-column `[from, to)`.
    ///
    /// # Panics
    /// Panics when the range is out of bounds.
    pub fn slice(&self, from: usize, to: usize) -> ColumnVec {
        match self {
            ColumnVec::Int64(v) => ColumnVec::Int64(v[from..to].to_vec()),
            ColumnVec::Float64(v) => ColumnVec::Float64(v[from..to].to_vec()),
            ColumnVec::Bool(v) => ColumnVec::Bool(v[from..to].to_vec()),
            ColumnVec::Str(v) => ColumnVec::Str(v[from..to].to_vec()),
            ColumnVec::Generic(v) => ColumnVec::Generic(v[from..to].to_vec()),
        }
    }

    /// Concatenation of `self` and `other`; mismatched representations
    /// degrade to generic.
    pub fn concat(&self, other: &ColumnVec) -> ColumnVec {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        match (self, other) {
            (ColumnVec::Int64(a), ColumnVec::Int64(b)) => {
                ColumnVec::Int64(a.iter().chain(b).copied().collect())
            }
            (ColumnVec::Float64(a), ColumnVec::Float64(b)) => {
                ColumnVec::Float64(a.iter().chain(b).copied().collect())
            }
            (ColumnVec::Bool(a), ColumnVec::Bool(b)) => {
                ColumnVec::Bool(a.iter().chain(b).copied().collect())
            }
            (ColumnVec::Str(a), ColumnVec::Str(b)) => {
                ColumnVec::Str(a.iter().chain(b).cloned().collect())
            }
            _ => {
                let mut vals = self.to_values();
                vals.extend(other.to_values());
                ColumnVec::Generic(vals)
            }
        }
    }

    /// The rows selected by `sel` (must be the column's length).
    pub fn filter(&self, sel: &SelectionBitmap) -> ColumnVec {
        debug_assert_eq!(sel.len(), self.len(), "selection length mismatch");
        match self {
            ColumnVec::Int64(v) => ColumnVec::Int64(sel.ones().map(|i| v[i]).collect()),
            ColumnVec::Float64(v) => ColumnVec::Float64(sel.ones().map(|i| v[i]).collect()),
            ColumnVec::Bool(v) => ColumnVec::Bool(sel.ones().map(|i| v[i]).collect()),
            ColumnVec::Str(v) => ColumnVec::Str(sel.ones().map(|i| v[i].clone()).collect()),
            ColumnVec::Generic(v) => ColumnVec::Generic(sel.ones().map(|i| v[i].clone()).collect()),
        }
    }

    /// Materialize the column back to values.
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.value(i)).collect()
    }
}

impl Default for ColumnVec {
    fn default() -> Self {
        ColumnVec::new()
    }
}

/// A packed bitmap of row selections, one bit per row.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SelectionBitmap {
    words: Vec<u64>,
    len: usize,
}

impl SelectionBitmap {
    /// Empty bitmap; grow it with [`Self::push`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Bitmap of `len` bits, all set to `value`.
    pub fn filled(len: usize, value: bool) -> Self {
        let fill = if value { u64::MAX } else { 0 };
        let mut b = SelectionBitmap {
            words: vec![fill; len.div_ceil(64)],
            len,
        };
        b.clear_tail();
        b
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one bit.
    pub fn push(&mut self, bit: bool) {
        let (word, shift) = (self.len / 64, self.len % 64);
        if shift == 0 {
            self.words.push(0);
        }
        if bit {
            self.words[word] |= 1u64 << shift;
        }
        self.len += 1;
    }

    /// The bit at `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of bounds.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of bounds ({})", self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Set the bit at `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of bounds.
    pub fn set(&mut self, i: usize, bit: bool) {
        assert!(i < self.len, "bit {i} out of bounds ({})", self.len);
        if bit {
            self.words[i / 64] |= 1u64 << (i % 64);
        } else {
            self.words[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Number of selected rows (popcount over the words).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// In-place intersection with another bitmap of the same length —
    /// how conjunctive filter kernels combine per-predicate verdicts.
    pub fn and_with(&mut self, other: &SelectionBitmap) {
        debug_assert_eq!(self.len, other.len, "bitmap length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// Iterator over selected row indices, ascending.
    pub fn ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + bit)
            })
        })
    }

    fn clear_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }
}

/// A batch of aligned columns — the columnar pipeline's unit of flow.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ColumnarBatch {
    columns: Vec<ColumnVec>,
    rows: usize,
}

impl ColumnarBatch {
    /// Transpose rows into columns. All rows must share one width; a
    /// ragged input is a caller bug surfaced as an error (the row layout
    /// tolerates ragged streams, the columnar layout cannot).
    pub fn from_rows(rows: &[Row]) -> Result<Self> {
        let Some(first) = rows.first() else {
            return Ok(ColumnarBatch::default());
        };
        let width = first.len();
        let mut columns = vec![ColumnVec::new(); width];
        for row in rows {
            if row.len() != width {
                return Err(FudjError::Execution(format!(
                    "ragged batch: expected width {width}, found row of {}",
                    row.len()
                )));
            }
            for (c, v) in columns.iter_mut().zip(row.values()) {
                c.push(v.clone());
            }
        }
        Ok(ColumnarBatch {
            columns,
            rows: rows.len(),
        })
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Column `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of bounds.
    pub fn column(&self, i: usize) -> &ColumnVec {
        &self.columns[i]
    }

    /// The columns.
    pub fn columns(&self) -> &[ColumnVec] {
        &self.columns
    }

    /// Materialize back to rows (transpose).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.rows)
            .map(|i| Row::new(self.columns.iter().map(|c| c.value(i)).collect()))
            .collect()
    }

    /// The rows selected by `sel` (must be the batch's length).
    pub fn filter(&self, sel: &SelectionBitmap) -> ColumnarBatch {
        ColumnarBatch {
            columns: self.columns.iter().map(|c| c.filter(sel)).collect(),
            rows: sel.count_ones(),
        }
    }

    /// New batch keeping only the columns at `indices`, in that order.
    ///
    /// # Panics
    /// Panics when an index is out of bounds.
    pub fn project(&self, indices: &[usize]) -> ColumnarBatch {
        ColumnarBatch {
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
            rows: self.rows,
        }
    }
}

/// Incremental columnar decoder over a stream of wire-format rows (the
/// exchange framing: rows back to back, no count prefix). Values land
/// directly in column vectors; the underlying [`Bytes`] window is a
/// zero-copy view, so readers over sub-slices share one allocation.
#[derive(Default)]
pub struct ColumnReader {
    columns: Vec<ColumnVec>,
    rows: usize,
}

impl ColumnReader {
    /// Fresh reader; width locks in at the first row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rows read so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Read one wire-format row into the columns. The first row fixes
    /// the batch width; later rows must match it.
    fn read_row(&mut self, buf: &mut impl Buf) -> Result<()> {
        if buf.remaining() < 4 {
            return Err(FudjError::Wire("truncated input reading row width".into()));
        }
        let width = buf.get_u32_le() as usize;
        if self.rows == 0 && self.columns.is_empty() {
            self.columns = vec![ColumnVec::new(); width];
        } else if width != self.columns.len() {
            return Err(FudjError::Wire(format!(
                "ragged columnar stream: expected width {}, found {width}",
                self.columns.len()
            )));
        }
        for col in &mut self.columns {
            col.push(wire::decode_value(buf)?);
        }
        self.rows += 1;
        Ok(())
    }

    /// Drain a buffer of back-to-back rows (exchange framing).
    pub fn read_stream(&mut self, buf: &mut Bytes) -> Result<()> {
        while buf.has_remaining() {
            self.read_row(buf)?;
        }
        Ok(())
    }

    /// The accumulated batch.
    pub fn finish(self) -> ColumnarBatch {
        ColumnarBatch {
            rows: self.rows,
            columns: self.columns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn rows_of(values: Vec<Vec<Value>>) -> Vec<Row> {
        values.into_iter().map(Row::new).collect()
    }

    #[test]
    fn typed_columns_round_trip() {
        let rows = rows_of(vec![
            vec![Value::Int64(1), Value::str("a"), Value::Float64(0.5)],
            vec![Value::Int64(2), Value::str("b"), Value::Float64(1.5)],
        ]);
        let batch = ColumnarBatch::from_rows(&rows).unwrap();
        assert!(matches!(batch.column(0), ColumnVec::Int64(_)));
        assert!(matches!(batch.column(1), ColumnVec::Str(_)));
        assert!(matches!(batch.column(2), ColumnVec::Float64(_)));
        assert_eq!(batch.to_rows(), rows);
    }

    #[test]
    fn mixed_column_degrades_to_generic() {
        let mut col = ColumnVec::from_values(vec![Value::Int64(1), Value::Int64(2)]);
        assert!(matches!(col, ColumnVec::Int64(_)));
        col.push(Value::Null);
        assert!(matches!(col, ColumnVec::Generic(_)));
        assert_eq!(
            col.to_values(),
            vec![Value::Int64(1), Value::Int64(2), Value::Null]
        );
    }

    #[test]
    fn ragged_rows_rejected() {
        let rows = rows_of(vec![vec![Value::Int64(1)], vec![]]);
        assert!(ColumnarBatch::from_rows(&rows).is_err());
    }

    #[test]
    fn bitmap_push_get_count() {
        let mut b = SelectionBitmap::new();
        for i in 0..130 {
            b.push(i % 3 == 0);
        }
        assert_eq!(b.len(), 130);
        assert_eq!(b.count_ones(), (0..130).filter(|i| i % 3 == 0).count());
        assert!(b.get(0) && !b.get(1) && b.get(129));
        let ones: Vec<usize> = b.ones().collect();
        assert_eq!(ones, (0..130).filter(|i| i % 3 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn bitmap_filled_and_set() {
        let mut b = SelectionBitmap::filled(70, true);
        assert_eq!(b.count_ones(), 70);
        b.set(69, false);
        assert_eq!(b.count_ones(), 69);
        assert!(!b.get(69));
        assert_eq!(SelectionBitmap::filled(70, false).count_ones(), 0);
    }

    #[test]
    fn bitmap_and_with_intersects() {
        let mut a = SelectionBitmap::new();
        let mut b = SelectionBitmap::new();
        for i in 0..100 {
            a.push(i % 2 == 0);
            b.push(i % 3 == 0);
        }
        a.and_with(&b);
        let ones: Vec<usize> = a.ones().collect();
        assert_eq!(ones, (0..100).filter(|i| i % 6 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn filter_matches_naive_row_filter() {
        let rows = rows_of(
            (0..57)
                .map(|i| vec![Value::Int64(i), Value::str(format!("s{i}"))])
                .collect(),
        );
        let batch = ColumnarBatch::from_rows(&rows).unwrap();
        let mut sel = SelectionBitmap::new();
        for row in &rows {
            sel.push(row.get(0).as_i64().unwrap() % 5 < 2);
        }
        let naive: Vec<Row> = rows
            .iter()
            .filter(|r| r.get(0).as_i64().unwrap() % 5 < 2)
            .cloned()
            .collect();
        assert_eq!(batch.filter(&sel).to_rows(), naive);
    }

    #[test]
    fn slice_concat_round_trip() {
        let col = ColumnVec::from_values((0..10).map(Value::Int64));
        let back = col.slice(0, 4).concat(&col.slice(4, 10));
        assert_eq!(back, col);
    }

    #[test]
    fn project_reorders_columns() {
        let rows = rows_of(vec![vec![
            Value::Int64(1),
            Value::str("x"),
            Value::Bool(true),
        ]]);
        let batch = ColumnarBatch::from_rows(&rows).unwrap();
        let p = batch.project(&[2, 0]);
        assert_eq!(
            p.to_rows(),
            rows_of(vec![vec![Value::Bool(true), Value::Int64(1)]])
        );
    }

    #[test]
    fn column_reader_drains_exchange_framing() {
        // Exchange buffers carry rows back to back with no count prefix.
        let rows = rows_of(vec![
            vec![Value::Int64(1), Value::Bool(true)],
            vec![Value::Int64(2), Value::Bool(false)],
        ]);
        let mut buf = BytesMut::new();
        for r in &rows {
            wire::encode_row(r, &mut buf);
        }
        let mut bytes = buf.freeze();
        let mut reader = ColumnReader::new();
        reader.read_stream(&mut bytes).unwrap();
        assert_eq!(reader.finish().to_rows(), rows);
    }

    #[test]
    fn column_reader_rejects_ragged_stream() {
        let mut buf = BytesMut::new();
        wire::encode_row(&Row::new(vec![Value::Int64(1)]), &mut buf);
        wire::encode_row(&Row::new(vec![Value::Int64(1), Value::Int64(2)]), &mut buf);
        let mut bytes = buf.freeze();
        let mut reader = ColumnReader::new();
        assert!(reader.read_stream(&mut bytes).is_err());
    }
}
