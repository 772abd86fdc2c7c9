//! Rows and batches — the unit of data flow between operators.

use crate::schema::SchemaRef;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// One tuple. The value buffer is `Arc`-shared, so cloning a row is a
/// refcount bump and dropping a shared clone frees nothing — a scan can
/// hand every operator the stored rows without touching the allocator,
/// which used to dominate scan-heavy pipelines. Rows are immutable in
/// exchange: the widening ops ([`Row::push`], [`Row::with_appended`])
/// build a fresh buffer.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Row {
    values: Arc<[Value]>,
}

impl Row {
    /// Row from values.
    pub fn new(values: Vec<Value>) -> Self {
        Row {
            values: values.into(),
        }
    }

    /// The values in column order.
    #[inline]
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at column `i`.
    ///
    /// # Panics
    /// Panics when `i` is out of bounds — operator code resolves column
    /// indices against the schema before touching rows.
    #[inline]
    pub fn get(&self, i: usize) -> &Value {
        &self.values[i]
    }

    /// Number of columns.
    #[inline]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the row has no columns.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Append a value (used when operators widen rows, e.g. UNNEST adds the
    /// bucket id column). Copy-on-write: builds a fresh buffer — prefer
    /// [`Row::with_appended`] when the original row is kept anyway.
    pub fn push(&mut self, v: Value) {
        *self = self.with_appended(v);
    }

    /// This row widened by one trailing value, in a single allocation.
    pub fn with_appended(&self, v: Value) -> Row {
        Row {
            values: self
                .values
                .iter()
                .cloned()
                .chain(std::iter::once(v))
                .collect(),
        }
    }

    /// Concatenate two rows (join output).
    pub fn concat(&self, other: &Row) -> Row {
        Row {
            values: self
                .values
                .iter()
                .chain(other.values.iter())
                .cloned()
                .collect(),
        }
    }

    /// New row keeping only the columns at `indices`, in that order.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row {
            values: indices.iter().map(|&i| self.values[i].clone()).collect(),
        }
    }

    /// Copy out the value vector. (The buffer may be shared with other
    /// clones of this row, so this clones the values.)
    pub fn into_values(self) -> Vec<Value> {
        self.values.to_vec()
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Row {
            values: iter.into_iter().collect(),
        }
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

/// A batch: a schema plus rows. Operators exchange batches, not single rows,
/// to keep per-row overhead off the hot path.
#[derive(Clone, Debug, PartialEq)]
pub struct Batch {
    schema: SchemaRef,
    rows: Vec<Row>,
}

impl Batch {
    /// Batch from a schema and rows.
    ///
    /// Row widths are validated in debug builds only; operators construct
    /// batches in hot loops.
    pub fn new(schema: SchemaRef, rows: Vec<Row>) -> Self {
        debug_assert!(
            rows.iter().all(|r| r.len() == schema.len()),
            "row width does not match schema {schema}",
            schema = schema
        );
        Batch { schema, rows }
    }

    /// Empty batch of a schema.
    pub fn empty(schema: SchemaRef) -> Self {
        Batch {
            schema,
            rows: Vec::new(),
        }
    }

    /// The schema.
    #[inline]
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The rows.
    #[inline]
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the batch has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::schema::{Field, Schema};

    fn schema() -> SchemaRef {
        Schema::shared(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::String),
        ])
    }

    #[test]
    fn row_accessors() {
        let r = Row::new(vec![Value::Int64(1), Value::str("x")]);
        assert_eq!(r.len(), 2);
        assert_eq!(r.get(0), &Value::Int64(1));
        assert_eq!(r.values()[1], Value::str("x"));
    }

    #[test]
    fn concat_and_project() {
        let a = Row::new(vec![Value::Int64(1)]);
        let b = Row::new(vec![Value::str("x"), Value::Bool(true)]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 3);
        let p = c.project(&[2, 0]);
        assert_eq!(p.values(), &[Value::Bool(true), Value::Int64(1)]);
    }

    #[test]
    fn batch_basics() {
        let s = schema();
        let b = Batch::new(
            s.clone(),
            vec![Row::new(vec![Value::Int64(1), Value::str("x")])],
        );
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
        assert!(Batch::empty(s).is_empty());
    }

    #[test]
    fn rows_order_and_eq() {
        let r1 = Row::new(vec![Value::Int64(1)]);
        let r2 = Row::new(vec![Value::Int64(2)]);
        assert!(r1 < r2);
        assert_eq!(r1, r1.clone());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "row width")]
    fn batch_validates_width_in_debug() {
        let _ = Batch::new(schema(), vec![Row::new(vec![Value::Int64(1)])]);
    }
}
