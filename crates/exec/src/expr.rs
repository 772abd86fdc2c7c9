//! Physical expressions: the predicates and computed columns a
//! [`crate::PhysicalPlan`] carries, as data.
//!
//! The planner binds its expression trees into [`BoundExpr`]s (columns by
//! index, scalar functions resolved to their bodies) and puts them in the
//! plan as they are. EXPLAIN prints every one of them, and the executor
//! picks a kernel by an expression's shape: a conjunction of
//! `column op literal` comparisons ([`BoundExpr::compares`]) runs
//! [`crate::columnar::filter_rows`], a projection of bare columns
//! ([`columns_of`]) runs [`crate::columnar::project_rows`], and anything
//! else is interpreted by [`BoundExpr::eval`]. The only closure a plan
//! holds is a scalar function's body inside [`BoundExpr::Call`].

use crate::plan::{CmpOp, ColumnCompare};
use fudj_types::{FudjError, Result, Row, Value};
use std::fmt;
use std::sync::Arc;

/// A scalar function's body, over its already-evaluated arguments.
pub type ScalarFn = Arc<dyn Fn(&[Value]) -> Result<Value> + Send + Sync>;

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
}

impl BinOp {
    /// The filter kernel's operator for the six comparisons.
    fn cmp_op(self) -> Option<CmpOp> {
        Some(match self {
            BinOp::Eq => CmpOp::Eq,
            BinOp::NotEq => CmpOp::NotEq,
            BinOp::Lt => CmpOp::Lt,
            BinOp::LtEq => CmpOp::LtEq,
            BinOp::Gt => CmpOp::Gt,
            BinOp::GtEq => CmpOp::GtEq,
            _ => return None,
        })
    }

    /// Binding strength, so printing needs parentheses only where SQL does.
    fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Add | BinOp::Sub => 4,
            BinOp::Mul | BinOp::Div => 5,
            _ => 3,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Eq => "=",
            BinOp::NotEq => "<>",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        };
        write!(f, "{s}")
    }
}

/// A bound expression: columns by index, functions resolved.
#[derive(Clone)]
pub enum BoundExpr {
    Column(usize),
    Literal(Value),
    Binary {
        op: BinOp,
        left: Box<BoundExpr>,
        right: Box<BoundExpr>,
    },
    Not(Box<BoundExpr>),
    /// A scalar function: its SQL name, for EXPLAIN, and the body it
    /// resolved to when bound.
    Call {
        name: String,
        func: ScalarFn,
        args: Vec<BoundExpr>,
    },
}

impl BoundExpr {
    /// Evaluate against one row.
    pub fn eval(&self, row: &Row) -> Result<Value> {
        match self {
            BoundExpr::Column(i) => Ok(row.get(*i).clone()),
            BoundExpr::Literal(v) => Ok(v.clone()),
            BoundExpr::Binary { op, left, right } => {
                // Short-circuit the logical operators.
                match op {
                    BinOp::And => return Ok(Value::Bool(left.holds(row)? && right.holds(row)?)),
                    BinOp::Or => return Ok(Value::Bool(left.holds(row)? || right.holds(row)?)),
                    _ => {}
                }
                let l = left.eval(row)?;
                let r = right.eval(row)?;
                eval_binary(*op, &l, &r)
            }
            BoundExpr::Not(inner) => Ok(Value::Bool(!inner.holds(row)?)),
            BoundExpr::Call { func, args, .. } => {
                let values = args
                    .iter()
                    .map(|a| a.eval(row))
                    .collect::<Result<Vec<_>>>()?;
                func(&values)
            }
        }
    }

    /// Evaluate as a predicate: whether the row satisfies it.
    pub fn holds(&self, row: &Row) -> Result<bool> {
        self.eval(row)?.as_bool()
    }

    /// This predicate as the filter kernel's comparisons, when it is a
    /// conjunction of `column op literal` or `literal op column`. The
    /// kernel compares through [`Value`]'s total order, as
    /// [`eval_binary`] does, so it keeps exactly the rows [`Self::holds`]
    /// accepts.
    pub fn compares(&self) -> Option<Vec<ColumnCompare>> {
        let mut out = Vec::new();
        self.collect_compares(&mut out).then_some(out)
    }

    fn collect_compares(&self, out: &mut Vec<ColumnCompare>) -> bool {
        let BoundExpr::Binary { op, left, right } = self else {
            return false;
        };
        if *op == BinOp::And {
            return left.collect_compares(out) && right.collect_compares(out);
        }
        let Some(op) = op.cmp_op() else {
            return false;
        };
        let (column, op, literal) = match (left.as_ref(), right.as_ref()) {
            (BoundExpr::Column(c), BoundExpr::Literal(v)) => (*c, op, v),
            (BoundExpr::Literal(v), BoundExpr::Column(c)) => (*c, mirror(op), v),
            _ => return false,
        };
        out.push(ColumnCompare {
            column,
            op,
            literal: literal.clone(),
        });
        true
    }

    /// Print with parentheses where an operator binding at least as
    /// tightly as `outer` needs them.
    fn fmt_in(&self, f: &mut fmt::Formatter<'_>, outer: u8) -> fmt::Result {
        match self {
            BoundExpr::Column(i) => write!(f, "#{i}"),
            BoundExpr::Literal(v) => write!(f, "{v}"),
            BoundExpr::Binary { op, left, right } => {
                let p = op.precedence();
                if p < outer {
                    write!(f, "(")?;
                }
                left.fmt_in(f, p)?;
                write!(f, " {op} ")?;
                right.fmt_in(f, p + 1)?;
                if p < outer {
                    write!(f, ")")?;
                }
                Ok(())
            }
            BoundExpr::Not(inner) => {
                write!(f, "NOT ")?;
                inner.fmt_in(f, u8::MAX)
            }
            BoundExpr::Call { name, args, .. } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    a.fmt_in(f, 0)?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Columns print as `#i`, calls by their SQL name.
impl fmt::Display for BoundExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_in(f, 0)
    }
}

impl fmt::Debug for BoundExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

/// The column indices of a projection that only selects columns.
pub fn columns_of(exprs: &[BoundExpr]) -> Option<Vec<usize>> {
    exprs
        .iter()
        .map(|e| match e {
            BoundExpr::Column(i) => Some(*i),
            _ => None,
        })
        .collect()
}

/// Mirror a comparison so the column lands on the left: `lit < col` ≡
/// `col > lit`.
fn mirror(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::LtEq => CmpOp::GtEq,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::GtEq => CmpOp::LtEq,
        CmpOp::Eq | CmpOp::NotEq => op,
    }
}

/// One non-logical binary operator over evaluated operands.
pub fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    Ok(match op {
        Eq => Value::Bool(l == r),
        NotEq => Value::Bool(l != r),
        Lt => Value::Bool(l < r),
        LtEq => Value::Bool(l <= r),
        Gt => Value::Bool(l > r),
        GtEq => Value::Bool(l >= r),
        Add | Sub | Mul | Div => {
            // Integer arithmetic when both operands are integral. Checked:
            // overflow on user data is a query error, not a panic.
            if let (Value::Int64(a), Value::Int64(b)) = (l, r) {
                let overflow =
                    || FudjError::Execution(format!("integer overflow evaluating {a} {op:?} {b}"));
                match op {
                    Add => Value::Int64(a.checked_add(*b).ok_or_else(overflow)?),
                    Sub => Value::Int64(a.checked_sub(*b).ok_or_else(overflow)?),
                    Mul => Value::Int64(a.checked_mul(*b).ok_or_else(overflow)?),
                    Div => {
                        if *b == 0 {
                            return Err(FudjError::Execution("division by zero".into()));
                        }
                        Value::Float64(*a as f64 / *b as f64)
                    }
                    // The outer arm admits only arithmetic operators; a
                    // mismatch here is a planner defect, surfaced as an
                    // error rather than a query-path panic.
                    other => {
                        return Err(FudjError::Execution(format!(
                            "non-arithmetic operator {other:?} reached integer arithmetic"
                        )))
                    }
                }
            } else {
                let a = l.as_f64()?;
                let b = r.as_f64()?;
                match op {
                    Add => Value::Float64(a + b),
                    Sub => Value::Float64(a - b),
                    Mul => Value::Float64(a * b),
                    Div => {
                        if b == 0.0 {
                            return Err(FudjError::Execution("division by zero".into()));
                        }
                        Value::Float64(a / b)
                    }
                    other => {
                        return Err(FudjError::Execution(format!(
                            "non-arithmetic operator {other:?} reached float arithmetic"
                        )))
                    }
                }
            }
        }
        // `eval` short-circuits the logical operators before calling here;
        // seeing one is a dispatch defect, not grounds for a panic.
        And | Or => {
            return Err(FudjError::Execution(format!(
                "logical operator {op:?} reached eval_binary without short-circuit handling"
            )))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::filter_rows;
    use crate::mode::ExecMode;
    use proptest::prelude::*;

    fn binary(op: BinOp, left: BoundExpr, right: BoundExpr) -> BoundExpr {
        BoundExpr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    fn col(i: usize) -> BoundExpr {
        BoundExpr::Column(i)
    }

    fn lit(v: impl Into<Value>) -> BoundExpr {
        BoundExpr::Literal(v.into())
    }

    /// A cell or literal: the three variants the kernel fast-paths, from
    /// small domains so ties occur, plus `Null`.
    fn arb_value() -> impl Strategy<Value = Value> {
        prop_oneof![
            (-3i64..4).prop_map(Value::Int64),
            (-6i64..7).prop_map(|h| Value::Float64(h as f64 / 2.0)),
            prop::sample::select(vec!["", "a", "ab", "b"]).prop_map(Value::str),
            Just(Value::Null),
        ]
    }

    /// `#c op lit`, or `lit op #c` (the mirrored form).
    fn arb_comparison() -> impl Strategy<Value = BoundExpr> {
        let ops = vec![
            BinOp::Eq,
            BinOp::NotEq,
            BinOp::Lt,
            BinOp::LtEq,
            BinOp::Gt,
            BinOp::GtEq,
        ];
        let parts = (
            0usize..3,
            prop::sample::select(ops),
            arb_value(),
            any::<bool>(),
        );
        parts.prop_map(|(c, op, v, literal_first)| match literal_first {
            true => binary(op, lit(v), col(c)),
            false => binary(op, col(c), lit(v)),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A predicate the executor hands to the filter kernel keeps
        /// exactly the rows the interpreter accepts, in input order.
        #[test]
        fn filter_kernel_keeps_the_rows_eval_accepts(
            cells in prop::collection::vec(prop::collection::vec(arb_value(), 3..4), 0..40),
            conjuncts in prop::collection::vec(arb_comparison(), 1..5),
        ) {
            let predicate = conjuncts
                .into_iter()
                .reduce(|a, b| binary(BinOp::And, a, b))
                .unwrap();
            let compares = predicate.compares().expect("a conjunction of comparisons");
            let rows: Vec<Row> = cells.into_iter().map(Row::new).collect();
            let mut expected = Vec::new();
            for row in &rows {
                if predicate.holds(row).unwrap() {
                    expected.push(row.clone());
                }
            }
            prop_assert_eq!(filter_rows(rows, &compares, ExecMode::default()), expected);
        }
    }

    #[test]
    fn only_column_literal_conjunctions_reach_the_kernel() {
        let kernel = binary(
            BinOp::And,
            binary(BinOp::Lt, lit(3i64), col(1)),
            binary(BinOp::NotEq, col(0), lit("x")),
        );
        let compares = kernel.compares().unwrap();
        assert_eq!(compares.len(), 2);
        assert_eq!((compares[0].column, compares[0].op), (1, CmpOp::Gt));
        for interpreted in [
            binary(BinOp::Lt, col(0), col(1)),
            binary(BinOp::Or, binary(BinOp::Eq, col(0), lit(1i64)), lit(true)),
            BoundExpr::Not(Box::new(binary(BinOp::Eq, col(0), lit(1i64)))),
            lit(true),
        ] {
            assert!(interpreted.compares().is_none(), "{interpreted}");
        }
    }

    #[test]
    fn display_prints_columns_by_index_and_parenthesizes_by_precedence() {
        let sum = binary(BinOp::Add, col(0), lit(1i64));
        assert_eq!(sum.to_string(), "#0 + 1");
        let scaled = binary(BinOp::Mul, sum.clone(), lit(2i64));
        assert_eq!(scaled.to_string(), "(#0 + 1) * 2");
        let nested = binary(BinOp::Sub, col(0), binary(BinOp::Sub, col(1), col(2)));
        assert_eq!(nested.to_string(), "#0 - (#1 - #2)");
        let conj = binary(
            BinOp::And,
            binary(
                BinOp::And,
                binary(BinOp::GtEq, col(1), lit(1i64)),
                lit(true),
            ),
            binary(BinOp::Or, col(2), BoundExpr::Not(Box::new(col(3)))),
        );
        assert_eq!(conj.to_string(), "#1 >= 1 AND true AND (#2 OR NOT #3)");
        let call = BoundExpr::Call {
            name: "st_makepoint".into(),
            func: Arc::new(|_| Ok(Value::Null)),
            args: vec![col(3), scaled],
        };
        assert_eq!(call.to_string(), "st_makepoint(#3, (#0 + 1) * 2)");
        assert_eq!(
            binary(BinOp::Eq, col(0), lit("a")).to_string(),
            "#0 = \"a\""
        );
    }
}
