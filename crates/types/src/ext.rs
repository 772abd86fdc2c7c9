//! The external simple-type protocol — the paper's Fig. 7 boundary.
//!
//! A FUDJ library never sees engine-native [`Value`]s. The proxy built-in
//! function deserializes the engine value and hands the library a *simple*
//! type: longs, doubles, text, and flat arrays. This module defines those
//! simple types ([`ExtValue`]) and the translation protocol in both
//! directions. Conventions, mirroring §VI-B:
//!
//! * `interval`  → `LongArray [start, end]` (the paper's own example);
//! * `point`    → `DoubleArray [x, y]`;
//! * `polygon`  → `DoubleArray [x0, y0, x1, y1, ...]` (flattened ring);
//! * `datetime` → `Long` (epoch milliseconds);
//! * `uuid`     → `Text` (hex), since user code only compares/prints ids.
//!
//! Translation is deliberately cheap — the engine value is already
//! deserialized, so this is field extraction, not a re-parse. §VII-B of the
//! paper measures this overhead as near zero for spatial/interval keys and
//! small for text; the `bench` crate repeats that measurement.
//!
//! [`to_external`] builds a fresh value; [`to_external_into`] writes into a
//! slot and keeps the slot's buffer when the variant matches. The engine's
//! adapter translates every block into per-thread slots this way, so the
//! copy of each coordinate or character stays but the allocation per key
//! goes: a point or a polygon overwrites the `Vec<f64>` the slot's previous
//! point or polygon left.

use crate::error::{FudjError, Result};
use crate::value::Value;
use fudj_geo::{Point, Polygon};
use fudj_temporal::Interval;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A value in the external (user-facing) type system.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ExtValue {
    Null,
    Bool(bool),
    Long(i64),
    Double(f64),
    Text(String),
    LongArray(Vec<i64>),
    DoubleArray(Vec<f64>),
    TextArray(Vec<String>),
}

impl ExtValue {
    /// Long payload, or a library-facing error.
    pub fn as_long(&self) -> Result<i64> {
        match self {
            ExtValue::Long(v) => Ok(*v),
            other => Err(lib_err("Long", other)),
        }
    }

    /// Double payload (widening `Long`), or an error.
    pub fn as_double(&self) -> Result<f64> {
        match self {
            ExtValue::Double(v) => Ok(*v),
            ExtValue::Long(v) => Ok(*v as f64),
            other => Err(lib_err("Double", other)),
        }
    }

    /// Text payload, or an error.
    pub fn as_text(&self) -> Result<&str> {
        match self {
            ExtValue::Text(s) => Ok(s),
            other => Err(lib_err("Text", other)),
        }
    }

    /// Long-array payload, or an error.
    pub fn as_long_array(&self) -> Result<&[i64]> {
        match self {
            ExtValue::LongArray(v) => Ok(v),
            other => Err(lib_err("LongArray", other)),
        }
    }

    /// Double-array payload, or an error.
    pub fn as_double_array(&self) -> Result<&[f64]> {
        match self {
            ExtValue::DoubleArray(v) => Ok(v),
            other => Err(lib_err("DoubleArray", other)),
        }
    }

    /// Interpret a `LongArray [start, end]` as an interval (the convention
    /// interval keys arrive under).
    pub fn as_interval(&self) -> Result<Interval> {
        let arr = self.as_long_array()?;
        if arr.len() != 2 || arr[0] > arr[1] {
            return Err(FudjError::JoinLibrary(format!(
                "expected [start, end] long array for interval, got {arr:?}"
            )));
        }
        Ok(Interval::new(arr[0], arr[1]))
    }

    /// Interpret a `DoubleArray` of coordinate pairs as its MBR — the shape
    /// both point and polygon keys share, which is all the spatial FUDJ
    /// needs for summarize/assign.
    pub fn as_coords_mbr(&self) -> Result<fudj_geo::Rect> {
        let arr = self.as_double_array()?;
        if arr.is_empty() || arr.len() % 2 != 0 {
            return Err(FudjError::JoinLibrary(format!(
                "expected flat [x0, y0, ...] coordinate array, got length {}",
                arr.len()
            )));
        }
        let mut r = fudj_geo::Rect::empty();
        for pair in arr.chunks_exact(2) {
            r.expand_point(&Point::new(pair[0], pair[1]));
        }
        Ok(r)
    }
}

fn lib_err(expected: &str, found: &ExtValue) -> FudjError {
    FudjError::JoinLibrary(format!("expected external {expected}, found {found:?}"))
}

impl fmt::Display for ExtValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExtValue::Null => write!(f, "null"),
            ExtValue::Bool(b) => write!(f, "{b}"),
            ExtValue::Long(v) => write!(f, "{v}"),
            ExtValue::Double(v) => write!(f, "{v}"),
            ExtValue::Text(s) => write!(f, "{s:?}"),
            ExtValue::LongArray(v) => write!(f, "{v:?}"),
            ExtValue::DoubleArray(v) => write!(f, "{v:?}"),
            ExtValue::TextArray(v) => write!(f, "{v:?}"),
        }
    }
}

/// Engine value → external simple value (the proxy function's outbound hop).
pub fn to_external(v: &Value) -> Result<ExtValue> {
    Ok(match v {
        Value::Null => ExtValue::Null,
        Value::Bool(b) => ExtValue::Bool(*b),
        Value::Int64(x) => ExtValue::Long(*x),
        Value::Float64(x) => ExtValue::Double(*x),
        Value::Str(s) => ExtValue::Text(s.to_string()),
        Value::Uuid(u) => ExtValue::Text(format!("{u:032x}")),
        Value::DateTime(ms) => ExtValue::Long(*ms),
        Value::Interval(iv) => ExtValue::LongArray(vec![iv.start, iv.end]),
        Value::Point(p) => ExtValue::DoubleArray(vec![p.x, p.y]),
        Value::Polygon(poly) => {
            let mut coords = Vec::new();
            flatten_ring(poly, &mut coords);
            ExtValue::DoubleArray(coords)
        }
        Value::List(vs) => {
            // Lists translate only when homogeneous over simple scalars.
            if vs.iter().all(|v| matches!(v, Value::Str(_))) {
                ExtValue::TextArray(
                    vs.iter()
                        .map(|v| v.as_str().map(str::to_owned))
                        .collect::<Result<_>>()?,
                )
            } else if vs
                .iter()
                .all(|v| matches!(v, Value::Int64(_) | Value::DateTime(_)))
            {
                ExtValue::LongArray(
                    vs.iter()
                        .map(|v| v.as_f64().map(|f| f as i64))
                        .collect::<Result<_>>()?,
                )
            } else if vs.iter().all(|v| matches!(v, Value::Float64(_))) {
                ExtValue::DoubleArray(vs.iter().map(|v| v.as_f64()).collect::<Result<_>>()?)
            } else {
                return Err(FudjError::JoinLibrary(format!(
                    "list value is not translatable to a simple external array: {v}"
                )));
            }
        }
    })
}

/// [`to_external`] into `slot`, reusing the slot's `String` or `Vec` when
/// its variant is the one `v` translates to: translating block after block
/// into the same slots allocates only where a key outgrows its slot. Any
/// other pair of variants is translated afresh, so the slot never holds a
/// stale value; on an error it holds a valid, unspecified one.
pub fn to_external_into(v: &Value, slot: &mut ExtValue) -> Result<()> {
    match (v, &mut *slot) {
        (Value::Str(s), ExtValue::Text(text)) => {
            text.clear();
            text.push_str(s);
        }
        (Value::Uuid(u), ExtValue::Text(text)) => {
            use std::fmt::Write;
            text.clear();
            write!(text, "{u:032x}").expect("writing to a String cannot fail");
        }
        (Value::Interval(iv), ExtValue::LongArray(bounds)) => {
            bounds.clear();
            bounds.extend([iv.start, iv.end]);
        }
        (Value::Point(p), ExtValue::DoubleArray(coords)) => {
            coords.clear();
            coords.extend([p.x, p.y]);
        }
        (Value::Polygon(poly), ExtValue::DoubleArray(coords)) => {
            coords.clear();
            flatten_ring(poly, coords);
        }
        _ => *slot = to_external(v)?,
    }
    Ok(())
}

/// Append a polygon's ring as `[x0, y0, x1, y1, ...]`.
fn flatten_ring(poly: &Polygon, coords: &mut Vec<f64>) {
    coords.reserve(poly.ring().len() * 2);
    for p in poly.ring() {
        coords.push(p.x);
        coords.push(p.y);
    }
}

/// External simple value → engine value under a target type (the proxy
/// function's inbound hop, used when a library hands back derived values).
pub fn from_external(ev: &ExtValue, target: &crate::DataType) -> Result<Value> {
    use crate::DataType as T;
    Ok(match (ev, target) {
        (ExtValue::Null, _) => Value::Null,
        (ExtValue::Bool(b), T::Bool) => Value::Bool(*b),
        (ExtValue::Long(v), T::Int64) => Value::Int64(*v),
        (ExtValue::Long(v), T::DateTime) => Value::DateTime(*v),
        (ExtValue::Long(v), T::Float64) => Value::Float64(*v as f64),
        (ExtValue::Double(v), T::Float64) => Value::Float64(*v),
        (ExtValue::Text(s), T::String) => Value::str(s),
        (ExtValue::Text(s), T::Uuid) => {
            let u = u128::from_str_radix(s, 16)
                .map_err(|e| FudjError::JoinLibrary(format!("bad uuid text {s:?}: {e}")))?;
            Value::Uuid(u)
        }
        (la @ ExtValue::LongArray(_), T::Interval) => Value::Interval(la.as_interval()?),
        (ExtValue::DoubleArray(a), T::Point) if a.len() == 2 => {
            Value::Point(Point::new(a[0], a[1]))
        }
        (ExtValue::DoubleArray(a), T::Polygon) if a.len() >= 6 && a.len() % 2 == 0 => {
            let ring = a.chunks_exact(2).map(|c| Point::new(c[0], c[1])).collect();
            Value::polygon(Polygon::new(ring))
        }
        (ExtValue::TextArray(ts), T::List(inner)) if **inner == T::String => {
            Value::list(ts.iter().map(Value::str).collect())
        }
        (ev, t) => {
            return Err(FudjError::JoinLibrary(format!(
                "cannot translate external {ev} back to engine type {t}"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DataType;

    #[test]
    fn scalar_roundtrips() {
        let cases = vec![
            (Value::Int64(42), DataType::Int64),
            (Value::Float64(2.5), DataType::Float64),
            (Value::str("hello"), DataType::String),
            (Value::Bool(true), DataType::Bool),
            (Value::DateTime(1_000_000), DataType::DateTime),
            (Value::Uuid(0xdeadbeef), DataType::Uuid),
        ];
        for (v, t) in cases {
            let ev = to_external(&v).unwrap();
            assert_eq!(from_external(&ev, &t).unwrap(), v, "{t:?}");
        }
    }

    #[test]
    fn interval_is_long_array() {
        let v = Value::Interval(Interval::new(10, 99));
        let ev = to_external(&v).unwrap();
        assert_eq!(ev, ExtValue::LongArray(vec![10, 99]));
        assert_eq!(ev.as_interval().unwrap(), Interval::new(10, 99));
        assert_eq!(from_external(&ev, &DataType::Interval).unwrap(), v);
    }

    #[test]
    fn point_and_polygon_are_coord_arrays() {
        let p = Value::Point(Point::new(1.0, 2.0));
        let ev = to_external(&p).unwrap();
        assert_eq!(ev, ExtValue::DoubleArray(vec![1.0, 2.0]));
        let mbr = ev.as_coords_mbr().unwrap();
        assert_eq!((mbr.min_x, mbr.max_y), (1.0, 2.0));

        let poly = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 4.0),
        ]);
        let pv = Value::polygon(poly.clone());
        let pev = to_external(&pv).unwrap();
        assert_eq!(pev.as_coords_mbr().unwrap(), poly.mbr());
        assert_eq!(from_external(&pev, &DataType::Polygon).unwrap(), pv);
    }

    #[test]
    fn text_list_roundtrip() {
        let v = Value::list(vec![Value::str("a"), Value::str("b")]);
        let ev = to_external(&v).unwrap();
        assert_eq!(ev, ExtValue::TextArray(vec!["a".into(), "b".into()]));
        let back = from_external(&ev, &DataType::List(Box::new(DataType::String))).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn translating_into_a_used_slot_equals_a_fresh_translation() {
        let poly = |n: usize| {
            let ring = (0..n)
                .map(|i| Point::new(i as f64, (i * i) as f64))
                .collect();
            Value::polygon(Polygon::new(ring))
        };
        // Each value lands in a slot the one before it left: a longer and a
        // shorter ring, a point after a ring, the same variant from another
        // engine type (uuid and string text), and a change of variant.
        let values = [
            poly(9),
            poly(3),
            Value::Point(Point::new(7.0, 8.0)),
            Value::str("a longer string than the uuid"),
            Value::Uuid(0xabc),
            Value::str("x"),
            Value::Interval(Interval::new(3, 4)),
            Value::Int64(5),
            Value::Interval(Interval::new(-1, 1)),
            Value::list(vec![Value::str("a"), Value::str("b")]),
            Value::Null,
            poly(4),
        ];
        let mut slot = ExtValue::Null;
        for v in &values {
            to_external_into(v, &mut slot).unwrap();
            assert_eq!(slot, to_external(v).unwrap(), "{v}");
        }
        let bad = Value::list(vec![Value::Int64(1), Value::str("b")]);
        assert!(to_external_into(&bad, &mut slot).is_err());
    }

    #[test]
    fn bad_translations_error() {
        assert!(ExtValue::Text("x".into()).as_long().is_err());
        assert!(ExtValue::LongArray(vec![5, 1]).as_interval().is_err()); // inverted
        assert!(ExtValue::DoubleArray(vec![1.0]).as_coords_mbr().is_err()); // odd length
        assert!(from_external(&ExtValue::Double(1.0), &DataType::Polygon).is_err());
        assert!(from_external(&ExtValue::Text("zz-not-hex".into()), &DataType::Uuid).is_err());
    }

    #[test]
    fn widening_accessors() {
        assert_eq!(ExtValue::Long(3).as_double().unwrap(), 3.0);
        assert_eq!(ExtValue::Double(3.5).as_double().unwrap(), 3.5);
    }
}
