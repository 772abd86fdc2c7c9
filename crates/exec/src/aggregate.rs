//! Aggregate accumulators for the two-step hash aggregation, and its
//! Step 1: `PartialAggregate`, one worker's groups.
//!
//! Partial states travel between workers as regular [`Value`]s (`Avg`
//! carries a `[sum, count]` list), matching how the paper treats aggregate
//! state as ordinary records.

use crate::plan::{AggFunc, Aggregate};
use fudj_types::{FudjError, Result, Row, Value};
use std::collections::HashMap;

/// What Step 1 of a hash aggregate reads: its group columns and its
/// aggregates (inputs as column indices of the rows it folds), and for
/// each aggregate whether it is a SUM over doubles.
#[derive(Clone, Debug)]
pub(crate) struct PartialSpec {
    group_by: Vec<usize>,
    aggregates: Vec<Aggregate>,
    float_sum: Vec<bool>,
}

impl PartialSpec {
    pub(crate) fn new(group_by: &[usize], aggregates: &[Aggregate], float_sum: &[bool]) -> Self {
        PartialSpec {
            group_by: group_by.to_vec(),
            aggregates: aggregates.to_vec(),
            float_sum: float_sum.to_vec(),
        }
    }

    /// The same aggregate over rows whose column `columns[c]` holds what
    /// column `c` held.
    pub(crate) fn remap(&self, columns: &[usize]) -> Self {
        let mut spec = self.clone();
        for c in &mut spec.group_by {
            *c = columns[*c];
        }
        for c in spec.aggregates.iter_mut().filter_map(|a| a.input.as_mut()) {
            *c = columns[*c];
        }
        spec
    }
}

/// Step 1 of the two-step hash aggregate on one worker: every input row
/// folded into its group's accumulators, in arrival order. The executor
/// folds an input's rows; COMBINE folds each pair it accepts in place,
/// when the aggregate reads the join directly.
#[derive(Clone)]
pub(crate) struct PartialAggregate {
    spec: PartialSpec,
    groups: HashMap<Vec<Value>, Vec<Accumulator>>,
}

impl PartialAggregate {
    /// A worker's Step 1 under `spec`, before its first row.
    pub(crate) fn new(spec: PartialSpec) -> Self {
        PartialAggregate {
            spec,
            groups: HashMap::new(),
        }
    }

    /// Fold one input row whose column `c` is `column(c)`.
    #[inline]
    pub(crate) fn fold<'v>(&mut self, column: impl Fn(usize) -> &'v Value) -> Result<()> {
        let spec = &self.spec;
        // Without `GROUP BY` every row folds into the one group: no key to
        // hash once it exists.
        let only = if spec.group_by.is_empty() {
            self.groups.values_mut().next()
        } else {
            None
        };
        let accs = match only {
            Some(accs) => accs,
            None => {
                let key: Vec<Value> = spec.group_by.iter().map(|&c| column(c).clone()).collect();
                self.groups.entry(key).or_insert_with(|| {
                    spec.aggregates
                        .iter()
                        .zip(&spec.float_sum)
                        .map(|(a, &fs)| Accumulator::new(a, fs))
                        .collect()
                })
            }
        };
        for (acc, agg) in accs.iter_mut().zip(&spec.aggregates) {
            acc.update(agg.input.map(&column))?;
        }
        Ok(())
    }

    /// The partial rows: each group's values, then one partial state per
    /// aggregate.
    pub(crate) fn finish(self) -> Vec<Row> {
        self.groups
            .into_iter()
            .map(|(mut values, accs)| {
                values.extend(accs.iter().map(Accumulator::partial_value));
                Row::new(values)
            })
            .collect()
    }
}

/// Accumulator for one aggregate column.
#[derive(Clone, Debug)]
pub enum Accumulator {
    Count(i64),
    SumInt(i64),
    SumFloat(f64),
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, count: i64 },
}

impl Accumulator {
    /// Fresh accumulator for a spec (input type decides int vs float sum).
    pub fn new(agg: &Aggregate, input_type_is_float: bool) -> Self {
        match agg.func {
            AggFunc::Count => Accumulator::Count(0),
            AggFunc::Sum if input_type_is_float => Accumulator::SumFloat(0.0),
            AggFunc::Sum => Accumulator::SumInt(0),
            AggFunc::Min => Accumulator::Min(None),
            AggFunc::Max => Accumulator::Max(None),
            AggFunc::Avg => Accumulator::Avg { sum: 0.0, count: 0 },
        }
    }

    /// Fold one input value. `None` means `COUNT(*)` (no input column).
    pub fn update(&mut self, value: Option<&Value>) -> Result<()> {
        match self {
            Accumulator::Count(c) => {
                // COUNT(*) counts rows; COUNT(col) counts non-null values.
                if value.is_none_or_nonnull() {
                    *c += 1;
                }
            }
            Accumulator::SumInt(s) => {
                if let Some(v) = non_null(value) {
                    *s += v.as_i64()?;
                }
            }
            Accumulator::SumFloat(s) => {
                if let Some(v) = non_null(value) {
                    *s += v.as_f64()?;
                }
            }
            Accumulator::Min(cur) => {
                if let Some(v) = non_null(value) {
                    if cur.as_ref().is_none_or(|c| v < c) {
                        *cur = Some(v.clone());
                    }
                }
            }
            Accumulator::Max(cur) => {
                if let Some(v) = non_null(value) {
                    if cur.as_ref().is_none_or(|c| v > c) {
                        *cur = Some(v.clone());
                    }
                }
            }
            Accumulator::Avg { sum, count } => {
                if let Some(v) = non_null(value) {
                    *sum += v.as_f64()?;
                    *count += 1;
                }
            }
        }
        Ok(())
    }

    /// Serialize the partial state into a `Value` for the shuffle.
    pub fn partial_value(&self) -> Value {
        match self {
            Accumulator::Count(c) => Value::Int64(*c),
            Accumulator::SumInt(s) => Value::Int64(*s),
            Accumulator::SumFloat(s) => Value::Float64(*s),
            Accumulator::Min(v) | Accumulator::Max(v) => v.clone().unwrap_or(Value::Null),
            Accumulator::Avg { sum, count } => {
                Value::list(vec![Value::Float64(*sum), Value::Int64(*count)])
            }
        }
    }

    /// Merge a partial state produced by [`Accumulator::partial_value`].
    pub fn merge_partial(&mut self, partial: &Value) -> Result<()> {
        match self {
            Accumulator::Count(c) => *c += partial.as_i64()?,
            Accumulator::SumInt(s) => *s += partial.as_i64()?,
            Accumulator::SumFloat(s) => *s += partial.as_f64()?,
            Accumulator::Min(cur) => {
                if !partial.is_null() && cur.as_ref().is_none_or(|c| partial < c) {
                    *cur = Some(partial.clone());
                }
            }
            Accumulator::Max(cur) => {
                if !partial.is_null() && cur.as_ref().is_none_or(|c| partial > c) {
                    *cur = Some(partial.clone());
                }
            }
            Accumulator::Avg { sum, count } => {
                let parts = partial.as_list()?;
                if parts.len() != 2 {
                    return Err(FudjError::Execution(format!(
                        "avg partial must be [sum, count], got {partial}"
                    )));
                }
                *sum += parts[0].as_f64()?;
                *count += parts[1].as_i64()?;
            }
        }
        Ok(())
    }

    /// Produce the final output value.
    pub fn finalize(&self) -> Value {
        match self {
            Accumulator::Count(c) => Value::Int64(*c),
            Accumulator::SumInt(s) => Value::Int64(*s),
            Accumulator::SumFloat(s) => Value::Float64(*s),
            Accumulator::Min(v) | Accumulator::Max(v) => v.clone().unwrap_or(Value::Null),
            Accumulator::Avg { sum, count } => {
                if *count == 0 {
                    Value::Null
                } else {
                    Value::Float64(*sum / *count as f64)
                }
            }
        }
    }
}

fn non_null(v: Option<&Value>) -> Option<&Value> {
    v.filter(|v| !v.is_null())
}

/// `Option<&Value>` helpers used by the COUNT semantics above.
trait CountInput {
    fn is_none_or_nonnull(&self) -> bool;
}

impl CountInput for Option<&Value> {
    fn is_none_or_nonnull(&self) -> bool {
        match self {
            None => true,            // COUNT(*)
            Some(v) => !v.is_null(), // COUNT(col)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agg(func: AggFunc) -> Aggregate {
        Aggregate {
            func,
            input: Some(0),
            name: "a".into(),
        }
    }

    #[test]
    fn count_star_vs_count_col() {
        let mut star = Accumulator::new(&Aggregate::count_star("c"), false);
        let mut col = Accumulator::new(&agg(AggFunc::Count), false);
        star.update(None).unwrap();
        star.update(None).unwrap();
        col.update(Some(&Value::Int64(1))).unwrap();
        col.update(Some(&Value::Null)).unwrap();
        assert_eq!(star.finalize(), Value::Int64(2));
        assert_eq!(col.finalize(), Value::Int64(1));
    }

    #[test]
    fn sum_int_and_float() {
        let mut s = Accumulator::new(&agg(AggFunc::Sum), false);
        s.update(Some(&Value::Int64(3))).unwrap();
        s.update(Some(&Value::Int64(4))).unwrap();
        assert_eq!(s.finalize(), Value::Int64(7));

        let mut f = Accumulator::new(&agg(AggFunc::Sum), true);
        f.update(Some(&Value::Float64(0.5))).unwrap();
        f.update(Some(&Value::Int64(2))).unwrap();
        assert_eq!(f.finalize(), Value::Float64(2.5));
    }

    #[test]
    fn min_max_ignore_nulls() {
        let mut mn = Accumulator::new(&agg(AggFunc::Min), false);
        let mut mx = Accumulator::new(&agg(AggFunc::Max), false);
        for v in [
            Value::Int64(5),
            Value::Null,
            Value::Int64(2),
            Value::Int64(9),
        ] {
            mn.update(Some(&v)).unwrap();
            mx.update(Some(&v)).unwrap();
        }
        assert_eq!(mn.finalize(), Value::Int64(2));
        assert_eq!(mx.finalize(), Value::Int64(9));
    }

    #[test]
    fn avg_two_step_equals_one_step() {
        // Split {1..6} across two partial accumulators, merge, compare.
        let mut one = Accumulator::new(&agg(AggFunc::Avg), true);
        for v in 1..=6 {
            one.update(Some(&Value::Int64(v))).unwrap();
        }

        let mut p1 = Accumulator::new(&agg(AggFunc::Avg), true);
        let mut p2 = Accumulator::new(&agg(AggFunc::Avg), true);
        for v in 1..=3 {
            p1.update(Some(&Value::Int64(v))).unwrap();
        }
        for v in 4..=6 {
            p2.update(Some(&Value::Int64(v))).unwrap();
        }
        let mut merged = Accumulator::new(&agg(AggFunc::Avg), true);
        merged.merge_partial(&p1.partial_value()).unwrap();
        merged.merge_partial(&p2.partial_value()).unwrap();
        assert_eq!(merged.finalize(), one.finalize());
        assert_eq!(merged.finalize(), Value::Float64(3.5));
    }

    #[test]
    fn empty_avg_is_null() {
        let a = Accumulator::new(&agg(AggFunc::Avg), true);
        assert_eq!(a.finalize(), Value::Null);
    }

    #[test]
    fn merge_partial_count_and_minmax() {
        let mut c = Accumulator::Count(2);
        c.merge_partial(&Value::Int64(3)).unwrap();
        assert_eq!(c.finalize(), Value::Int64(5));

        let mut mn = Accumulator::Min(Some(Value::Int64(4)));
        mn.merge_partial(&Value::Int64(1)).unwrap();
        mn.merge_partial(&Value::Null).unwrap();
        assert_eq!(mn.finalize(), Value::Int64(1));
    }
}
