//! Unbound expression trees and binding.
//!
//! [`Expr`] is the form the SQL binder and tests construct (columns by
//! name). Binding against a schema yields a [`BoundExpr`]: columns by
//! index, and each function call resolved to its body once, so a plan
//! carries the expression as data and evaluates it without looking a
//! name up per row.

use crate::functions;
pub use fudj_exec::expr::{BinOp, BoundExpr};
use fudj_types::{DataType, FudjError, Result, Schema, Value};
use std::collections::BTreeSet;
use std::fmt;

/// An unbound expression (columns referenced by name).
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Column reference, usually qualified (`p.id`).
    Column(String),
    Literal(Value),
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Not(Box<Expr>),
    /// Scalar function call (case-insensitive name).
    Call {
        name: String,
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Literal value.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Function call.
    pub fn call(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call {
            name: name.into(),
            args,
        }
    }

    /// Binary expression.
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// `self AND other`.
    pub fn and(self, other: Expr) -> Expr {
        Expr::binary(BinOp::And, self, other)
    }

    /// `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        Expr::binary(BinOp::Eq, self, other)
    }

    /// All column names referenced by this expression.
    pub fn referenced_columns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Column(name) => {
                out.insert(name.clone());
            }
            Expr::Literal(_) => {}
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::Not(inner) => inner.collect_columns(out),
            Expr::Call { args, .. } => {
                for a in args {
                    a.collect_columns(out);
                }
            }
        }
    }

    /// Split a conjunction into its conjuncts (`a AND b AND c` → `[a,b,c]`).
    pub fn split_conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::Binary {
                op: BinOp::And,
                left,
                right,
            } => {
                let mut out = left.split_conjuncts();
                out.extend(right.split_conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// Rebuild a conjunction from conjuncts; `None` when empty.
    pub fn conjoin(exprs: Vec<Expr>) -> Option<Expr> {
        exprs.into_iter().reduce(Expr::and)
    }

    /// Bind column names to indices in `schema`. A call whose arguments
    /// all bind to literals binds to the literal it evaluates to, so a
    /// plan neither evaluates it per row nor hides a `column op literal`
    /// comparison behind it; a call that errs stays a call, and errs
    /// where it always did.
    pub fn bind(&self, schema: &Schema) -> Result<BoundExpr> {
        Ok(match self {
            Expr::Column(name) => BoundExpr::Column(schema.index_of(name)?),
            Expr::Literal(v) => BoundExpr::Literal(v.clone()),
            Expr::Binary { op, left, right } => BoundExpr::Binary {
                op: *op,
                left: Box::new(left.bind(schema)?),
                right: Box::new(right.bind(schema)?),
            },
            Expr::Not(inner) => BoundExpr::Not(Box::new(inner.bind(schema)?)),
            Expr::Call { name, args } => {
                let lowered = name.to_ascii_lowercase();
                let func = functions::resolve(&lowered)
                    .ok_or_else(|| FudjError::Plan(format!("unknown function {name:?}")))?;
                let args: Vec<BoundExpr> =
                    args.iter().map(|a| a.bind(schema)).collect::<Result<_>>()?;
                let literals: Option<Vec<Value>> = args
                    .iter()
                    .map(|a| match a {
                        BoundExpr::Literal(v) => Some(v.clone()),
                        _ => None,
                    })
                    .collect();
                match literals.map(|values| func(&values)) {
                    Some(Ok(value)) => BoundExpr::Literal(value),
                    _ => BoundExpr::Call {
                        name: lowered,
                        func,
                        args,
                    },
                }
            }
        })
    }

    /// Best-effort output type against a schema (planner schema inference).
    pub fn data_type(&self, schema: &Schema) -> Result<DataType> {
        Ok(match self {
            Expr::Column(name) => schema.field(name)?.data_type.clone(),
            Expr::Literal(v) => v.data_type(),
            Expr::Binary { op, left, .. } => match op {
                BinOp::Eq
                | BinOp::NotEq
                | BinOp::Lt
                | BinOp::LtEq
                | BinOp::Gt
                | BinOp::GtEq
                | BinOp::And
                | BinOp::Or => DataType::Bool,
                BinOp::Div => DataType::Float64,
                _ => left.data_type(schema)?,
            },
            Expr::Not(_) => DataType::Bool,
            Expr::Call { name, .. } => functions::return_type(&name.to_ascii_lowercase()),
        })
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(name) => write!(f, "{name}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            Expr::Not(inner) => write!(f, "NOT ({inner})"),
            Expr::Call { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fudj_types::{Field, Row};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("b", DataType::String),
            Field::new("c", DataType::Float64),
        ])
    }

    fn row() -> Row {
        Row::new(vec![Value::Int64(4), Value::str("hi"), Value::Float64(2.5)])
    }

    fn eval(e: Expr) -> Value {
        e.bind(&schema()).unwrap().eval(&row()).unwrap()
    }

    #[test]
    fn arithmetic_and_comparison() {
        assert_eq!(
            eval(Expr::binary(BinOp::Add, Expr::col("a"), Expr::lit(3i64))),
            Value::Int64(7)
        );
        assert_eq!(
            eval(Expr::binary(BinOp::Mul, Expr::col("c"), Expr::lit(2i64))),
            Value::Float64(5.0)
        );
        assert_eq!(eval(Expr::col("a").eq(Expr::lit(4i64))), Value::Bool(true));
        assert_eq!(
            eval(Expr::binary(BinOp::Lt, Expr::col("a"), Expr::lit(4i64))),
            Value::Bool(false)
        );
    }

    #[test]
    fn division_by_zero_is_error() {
        let e = Expr::binary(BinOp::Div, Expr::col("a"), Expr::lit(0i64))
            .bind(&schema())
            .unwrap();
        assert!(e.eval(&row()).is_err());
    }

    #[test]
    fn logic_short_circuits() {
        // Right side would be a type error; AND must not evaluate it.
        let e = Expr::binary(
            BinOp::And,
            Expr::lit(false),
            Expr::binary(BinOp::Lt, Expr::col("b"), Expr::lit(1i64)).eq(Expr::lit(true)),
        );
        assert_eq!(eval(e), Value::Bool(false));
    }

    #[test]
    fn literal_only_calls_fold_at_bind_and_failing_ones_stay_calls() {
        // Query 1's conjunct: the date parses once, at bind, and the
        // comparison becomes the filter kernel's `column op literal`.
        let dates = Schema::new(vec![Field::new("w.fire_start", DataType::DateTime)]);
        let date = Expr::call(
            "PARSE_DATE",
            vec![Expr::lit("01/01/2022"), Expr::lit("M/D/Y")],
        );
        let conjunct = Expr::binary(BinOp::GtEq, Expr::col("w.fire_start"), date);
        let bound = conjunct.bind(&dates).unwrap();
        let day = fudj_temporal::parse_date("01/01/2022", "M/D/Y").unwrap();
        assert_eq!(bound.to_string(), format!("#0 >= {}", Value::DateTime(day)));
        let compares = bound.compares().expect("a column against a literal");
        assert_eq!(compares.len(), 1);
        assert_eq!(compares[0].literal, Value::DateTime(day));

        // A call over a column, or one whose evaluation errs, stays a call.
        let over_column = Expr::call("abs", vec![Expr::col("a")]);
        assert!(matches!(
            over_column.bind(&schema()).unwrap(),
            BoundExpr::Call { .. }
        ));
        let bad = Expr::call(
            "parse_date",
            vec![Expr::lit("13/40/2022"), Expr::lit("M/D/Y")],
        );
        let bound = bad.bind(&dates).unwrap();
        assert!(matches!(bound, BoundExpr::Call { .. }), "{bound}");
        assert!(bound.eval(&Row::new(vec![Value::DateTime(0)])).is_err());
    }

    #[test]
    fn unknown_column_and_function_fail_at_bind() {
        assert!(Expr::col("zzz").bind(&schema()).is_err());
        assert!(Expr::call("no_such_fn", vec![]).bind(&schema()).is_err());
    }

    #[test]
    fn conjunct_splitting_roundtrip() {
        let e = Expr::col("a")
            .eq(Expr::lit(1i64))
            .and(Expr::col("b").eq(Expr::lit("x")))
            .and(Expr::col("c").eq(Expr::lit(0.5)));
        let parts = e.clone().split_conjuncts();
        assert_eq!(parts.len(), 3);
        assert_eq!(Expr::conjoin(parts).unwrap(), e);
        assert_eq!(Expr::conjoin(vec![]), None);
    }

    #[test]
    fn referenced_columns_are_collected() {
        let e = Expr::call(
            "st_contains",
            vec![
                Expr::col("p.boundary"),
                Expr::call("st_makepoint", vec![Expr::col("w.lat"), Expr::col("w.lon")]),
            ],
        );
        let cols = e.referenced_columns();
        assert_eq!(
            cols.into_iter().collect::<Vec<_>>(),
            vec!["p.boundary", "w.lat", "w.lon"]
        );
    }

    #[test]
    fn display_renders_sql_like() {
        let e = Expr::col("a")
            .eq(Expr::lit(1i64))
            .and(Expr::Not(Box::new(Expr::col("ok"))));
        assert_eq!(e.to_string(), "((a = 1) AND NOT (ok))");
    }
}
