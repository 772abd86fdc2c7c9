//! Typed evaluation kernels over row slices.
//!
//! The filter and the projection are the one kernel both execution modes
//! run. [`partial_aggregate`] is the one typed fast path
//! [`ExecMode::Columnar`] gates, and it must agree with the row fold it
//! shadows bit-for-bit: same output rows, same errors, same accumulator
//! states (f64 sums are order-sensitive, so it folds values in row order
//! within each group, exactly as the row path does).
//! `tests/columnar_differential.rs` pins that. The typed arms mirror
//! [`Value`]'s total order — same-variant `Int64` comparison goes through
//! f64 `total_cmp` because the numeric variants share one number line —
//! so they can never disagree with the interpreted comparison.

use crate::aggregate::Accumulator;
use crate::mode::ExecMode;
use crate::plan::{AggFunc, Aggregate, ColumnCompare};
use fudj_types::{Result, Row, Value};
use std::collections::HashMap;

/// Apply a compiled conjunction of column comparisons to one partition:
/// one pass, short-circuiting at the first comparison a row fails, rows
/// kept in input order. `_mode` is ignored — both execution modes run
/// this kernel; the parameter stays for callers compiled against the
/// two-mode signature.
pub fn filter_rows(mut rows: Vec<Row>, compares: &[ColumnCompare], _mode: ExecMode) -> Vec<Row> {
    rows.retain(|row| compares.iter().all(|c| holds(c, row)));
    rows
}

/// One comparison on one row. The same-variant arms skip [`Value::cmp`]'s
/// variant dispatch and decide exactly as it does (`Int64` widens through
/// f64 `total_cmp`); any other pairing falls back to it per value, so a
/// mixed column costs nothing extra and the result can never differ from
/// [`ColumnCompare::eval_row`].
#[inline]
fn holds(cmp: &ColumnCompare, row: &Row) -> bool {
    let ord = match (row.get(cmp.column), &cmp.literal) {
        (Value::Int64(x), Value::Int64(lit)) => (*x as f64).total_cmp(&(*lit as f64)),
        (Value::Float64(x), Value::Float64(lit)) => x.total_cmp(lit),
        (Value::Str(x), Value::Str(lit)) => x.as_ref().cmp(lit.as_ref()),
        (v, lit) => v.cmp(lit),
    };
    cmp.op.matches(ord)
}

/// Pure column projection: what a [`crate::PhysicalPlan::Project`] of bare
/// columns runs, in both modes, with no expression evaluated.
pub fn project_rows(rows: Vec<Row>, columns: &[usize]) -> Vec<Row> {
    rows.into_iter().map(|r| r.project(columns)).collect()
}

/// Vectorized partial-aggregation fast path: a single all-`Int64` group
/// key column. Returns `None` when the shape doesn't qualify (zero or
/// several group columns, or any non-`Int64` key) — the caller falls back
/// to the row path.
///
/// The win over the row path is the key handling: one `i64` map probe per
/// row instead of allocating, hashing, and comparing a `Vec<Value>` key,
/// plus one sequential stride per aggregate instead of a strided walk
/// over every group's accumulator vector.
pub fn partial_aggregate(
    rows: &[Row],
    group_by: &[usize],
    aggregates: &[Aggregate],
    float_sum: &[bool],
) -> Option<Result<Vec<Row>>> {
    let [key_col] = group_by else {
        return None;
    };
    // Pass 1: slot per row through an i64-keyed map. Groups are numbered
    // in first-appearance order, so per-group folds below happen in row
    // order — bit-identical f64 sums to the row path. The key-type check
    // is folded into this pass (no separate type scan): the first
    // non-`Int64` key disqualifies the fast path and the caller falls
    // back to the row engine.
    let mut slot_of: HashMap<i64, u32> = HashMap::new();
    let mut keys: Vec<i64> = Vec::new();
    let mut slots: Vec<u32> = Vec::with_capacity(rows.len());
    for row in rows {
        let Value::Int64(k) = row.get(*key_col) else {
            return None;
        };
        let next = keys.len() as u32;
        let slot = *slot_of.entry(*k).or_insert_with(|| {
            keys.push(*k);
            next
        });
        slots.push(slot);
    }
    Some(fold_strides(rows, &keys, &slots, aggregates, float_sum))
}

/// The row path's exact fold for one aggregate: `Accumulator::update`
/// per row, in row order. Used when a typed stride bails mid-column —
/// the accumulators are reset first, so a partial optimistic pass can
/// never double-count.
fn generic_fold(
    rows: &[Row],
    slots: &[u32],
    agg: &Aggregate,
    float_sum: bool,
    input: Option<usize>,
    accs: &mut [Accumulator],
) -> Result<()> {
    for a in accs.iter_mut() {
        *a = Accumulator::new(agg, float_sum);
    }
    for (row, &s) in rows.iter().zip(slots) {
        accs[s as usize].update(input.map(|i| row.get(i)))?;
    }
    Ok(())
}

/// Fold every aggregate over the slotted rows and emit the partials.
fn fold_strides(
    rows: &[Row],
    keys: &[i64],
    slots: &[u32],
    aggregates: &[Aggregate],
    float_sum: &[bool],
) -> Result<Vec<Row>> {
    // Pass 2: one sequential stride per aggregate. Typed strides cover
    // the hot kinds; everything else folds through the shared
    // `Accumulator::update`, which is the row path's exact semantics.
    let mut agg_cols: Vec<Vec<Accumulator>> = Vec::with_capacity(aggregates.len());
    for (agg, &fs) in aggregates.iter().zip(float_sum) {
        let mut accs: Vec<Accumulator> =
            (0..keys.len()).map(|_| Accumulator::new(agg, fs)).collect();
        match (agg.func, agg.input) {
            (AggFunc::Count, None) => {
                for &s in slots {
                    if let Accumulator::Count(c) = &mut accs[s as usize] {
                        *c += 1;
                    }
                }
            }
            // SUM(int column): the row path is `s += v.as_i64()?` per
            // non-null value; an all-Int64 column makes that `s += x` in
            // the same order (same overflow behavior included). The
            // stride is optimistic — the first non-Int64 value rewinds
            // the whole aggregate through the generic fold, so the
            // common case pays no separate type scan.
            (AggFunc::Sum, Some(i)) if !fs => {
                let typed = rows.iter().zip(slots).all(|(row, &s)| {
                    let Value::Int64(x) = row.get(i) else {
                        return false;
                    };
                    if let Accumulator::SumInt(sum) = &mut accs[s as usize] {
                        *sum += *x;
                    }
                    true
                });
                if !typed {
                    generic_fold(rows, slots, agg, fs, Some(i), &mut accs)?;
                }
            }
            // AVG(int column): row path is `sum += v.as_f64()?` — the
            // same `x as f64` widening, in the same order.
            (AggFunc::Avg, Some(i)) => {
                let typed = rows.iter().zip(slots).all(|(row, &s)| {
                    let Value::Int64(x) = row.get(i) else {
                        return false;
                    };
                    if let Accumulator::Avg { sum, count } = &mut accs[s as usize] {
                        *sum += *x as f64;
                        *count += 1;
                    }
                    true
                });
                if !typed {
                    generic_fold(rows, slots, agg, fs, Some(i), &mut accs)?;
                }
            }
            (_, input) => generic_fold(rows, slots, agg, fs, input, &mut accs)?,
        }
        agg_cols.push(accs);
    }

    // Emit: group key then one partial per aggregate — the row path's
    // layout. Emission order is first-appearance instead of the row
    // path's map order, which only the shuffle sees, and it routes by
    // key hash, not position.
    let mut out = Vec::with_capacity(keys.len());
    for (g, key) in keys.iter().enumerate() {
        let mut values = Vec::with_capacity(1 + aggregates.len());
        values.push(Value::Int64(*key));
        values.extend(agg_cols.iter().map(|col| col[g].partial_value()));
        out.push(Row::new(values));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::CmpOp;

    fn rows_of(vals: &[i64]) -> Vec<Row> {
        vals.iter()
            .map(|&v| Row::new(vec![Value::Int64(v), Value::Int64(v * 10)]))
            .collect()
    }

    fn cmp(column: usize, op: CmpOp, lit: Value) -> ColumnCompare {
        ColumnCompare {
            column,
            op,
            literal: lit,
        }
    }

    /// The kernel's definition: every `eval_row` holds, input order kept.
    fn reference(rows: &[Row], compares: &[ColumnCompare]) -> Vec<Row> {
        rows.iter()
            .filter(|r| compares.iter().all(|c| c.eval_row(r)))
            .cloned()
            .collect()
    }

    /// The kernel under both mode arguments, which it must ignore.
    fn filter(rows: &[Row], compares: &[ColumnCompare]) -> Vec<Row> {
        let out = filter_rows(rows.to_vec(), compares, ExecMode::Columnar);
        assert_eq!(out, filter_rows(rows.to_vec(), compares, ExecMode::Row));
        out
    }

    #[test]
    fn filter_modes_agree_on_typed_and_mixed_columns() {
        let mut rows = rows_of(&[1, 5, 3, 9, 5, -2]);
        rows.push(Row::new(vec![Value::Float64(4.5), Value::Null]));
        rows.push(Row::new(vec![Value::Null, Value::Null]));
        for op in [
            CmpOp::Eq,
            CmpOp::NotEq,
            CmpOp::Lt,
            CmpOp::LtEq,
            CmpOp::Gt,
            CmpOp::GtEq,
        ] {
            for lit in [Value::Int64(4), Value::Float64(4.5), Value::Null] {
                let compares = vec![cmp(0, op, lit.clone())];
                assert_eq!(
                    filter(&rows, &compares),
                    reference(&rows, &compares),
                    "op {op:?} literal {lit:?}"
                );
            }
        }
    }

    #[test]
    fn conjunction_filters_like_sequential_application() {
        let rows = rows_of(&[1, 5, 3, 9, 5, -2, 7]);
        let compares = vec![
            cmp(0, CmpOp::Gt, Value::Int64(2)),
            cmp(1, CmpOp::Lt, Value::Int64(80)),
        ];
        let got = filter(&rows, &compares);
        assert_eq!(got, reference(&rows, &compares));
        assert_eq!(got.len(), 4);
        assert_eq!(filter(&rows, &[]), rows, "no compares keeps every row");
    }

    #[test]
    fn string_stride_matches_value_order() {
        let rows: Vec<Row> = ["apple", "pear", "fig"]
            .iter()
            .map(|s| Row::new(vec![Value::str(*s)]))
            .collect();
        let compares = vec![cmp(0, CmpOp::GtEq, Value::str("fig"))];
        let got = filter(&rows, &compares);
        assert_eq!(got, reference(&rows, &compares));
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn partial_aggregate_matches_row_path_states() {
        let rows: Vec<Row> = (0..40)
            .map(|i| Row::new(vec![Value::Int64(i % 4), Value::Int64(i * 3)]))
            .collect();
        let aggregates = vec![
            Aggregate::count_star("c"),
            Aggregate::on(AggFunc::Sum, 1, "s"),
            Aggregate::on(AggFunc::Avg, 1, "a"),
            Aggregate::on(AggFunc::Min, 1, "mn"),
            Aggregate::on(AggFunc::Max, 1, "mx"),
        ];
        let float_sum = vec![false; aggregates.len()];
        let mut fast = partial_aggregate(&rows, &[0], &aggregates, &float_sum)
            .expect("all-i64 key qualifies")
            .unwrap();

        // Row-path reference, re-implemented literally.
        let mut groups: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
        for row in &rows {
            let key = vec![row.get(0).clone()];
            let accs = groups.entry(key).or_insert_with(|| {
                aggregates
                    .iter()
                    .zip(&float_sum)
                    .map(|(a, &fs)| Accumulator::new(a, fs))
                    .collect()
            });
            for (acc, agg) in accs.iter_mut().zip(&aggregates) {
                acc.update(agg.input.map(|i| row.get(i))).unwrap();
            }
        }
        let mut slow: Vec<Row> = groups
            .into_iter()
            .map(|(key, accs)| {
                let mut values = key;
                values.extend(accs.iter().map(Accumulator::partial_value));
                Row::new(values)
            })
            .collect();
        fast.sort();
        slow.sort();
        assert_eq!(fast, slow);
    }

    #[test]
    fn partial_aggregate_declines_awkward_shapes() {
        let rows = rows_of(&[1, 2]);
        let aggregates = vec![Aggregate::count_star("c")];
        assert!(partial_aggregate(&rows, &[], &aggregates, &[false]).is_none());
        assert!(partial_aggregate(&rows, &[0, 1], &aggregates, &[false]).is_none());
        let mixed = vec![Row::new(vec![Value::str("k"), Value::Int64(1)])];
        assert!(partial_aggregate(&mixed, &[0], &aggregates, &[false]).is_none());
    }
}
