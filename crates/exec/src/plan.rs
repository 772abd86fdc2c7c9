//! Physical plans: the operator tree the [`crate::Cluster`] executes.
//!
//! Predicates and projections are [`BoundExpr`] data, which EXPLAIN
//! prints and whose shape picks the executor's kernel; group keys, sort
//! keys and aggregate inputs are column indices.

use crate::expr::BoundExpr;
use fudj_core::{DedupMode, EngineJoin};
use fudj_storage::Dataset;
use fudj_types::{DataType, Field, Row, Schema, SchemaRef, Value};
use std::fmt;
use std::sync::Arc;

/// Comparison operator of a vectorized filter kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
}

impl CmpOp {
    /// Whether an `Ordering` of `column <cmp> literal` satisfies this op.
    pub fn matches(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::NotEq => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::LtEq => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::GtEq => ord != Less,
        }
    }
}

/// One `column <op> literal` comparison of a vectorized filter. Semantics
/// are [`Value`]'s total order — exactly what [`crate::expr::eval_binary`]
/// uses — so the typed kernel and the interpreted predicate agree.
#[derive(Clone, Debug)]
pub struct ColumnCompare {
    pub column: usize,
    pub op: CmpOp,
    pub literal: Value,
}

impl ColumnCompare {
    /// Evaluate against one row (the row-mode kernel).
    pub fn eval_row(&self, row: &Row) -> bool {
        self.op.matches(row.get(self.column).cmp(&self.literal))
    }
}

/// Aggregate function kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` when `input` is `None`, else `COUNT(col)` over non-nulls.
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

/// One aggregate column spec.
#[derive(Clone, Debug)]
pub struct Aggregate {
    pub func: AggFunc,
    /// Input column index; `None` only for `Count` (star form).
    pub input: Option<usize>,
    /// Output column name.
    pub name: String,
}

impl Aggregate {
    /// `COUNT(*) AS name`.
    pub fn count_star(name: impl Into<String>) -> Self {
        Aggregate {
            func: AggFunc::Count,
            input: None,
            name: name.into(),
        }
    }

    /// `func(column) AS name`.
    pub fn on(func: AggFunc, column: usize, name: impl Into<String>) -> Self {
        Aggregate {
            func,
            input: Some(column),
            name: name.into(),
        }
    }

    /// Output type of this aggregate.
    pub fn output_type(&self, input_schema: &Schema) -> DataType {
        match self.func {
            AggFunc::Count => DataType::Int64,
            AggFunc::Avg => DataType::Float64,
            AggFunc::Sum => match self.input.map(|i| &input_schema.fields()[i].data_type) {
                Some(DataType::Float64) => DataType::Float64,
                _ => DataType::Int64,
            },
            AggFunc::Min | AggFunc::Max => self
                .input
                .map(|i| input_schema.fields()[i].data_type.clone())
                .unwrap_or(DataType::Null),
        }
    }
}

/// One sort key.
#[derive(Clone, Copy, Debug)]
pub struct SortKey {
    pub column: usize,
    pub descending: bool,
}

impl SortKey {
    /// Ascending sort on a column.
    pub fn asc(column: usize) -> Self {
        SortKey {
            column,
            descending: false,
        }
    }

    /// Descending sort on a column.
    pub fn desc(column: usize) -> Self {
        SortKey {
            column,
            descending: true,
        }
    }
}

/// The FUDJ distributed join node — the physical rendering of Fig. 8.
#[derive(Clone)]
pub struct FudjJoinNode {
    pub left: Box<PhysicalPlan>,
    pub right: Box<PhysicalPlan>,
    /// The join strategy: a FUDJ library behind [`fudj_core::FudjEngineJoin`]
    /// or a hand-built operator.
    pub join: Arc<dyn EngineJoin>,
    /// Join-key column index in the left input.
    pub left_key: usize,
    /// Join-key column index in the right input.
    pub right_key: usize,
    /// Query-time parameters forwarded to `divide`.
    pub params: Vec<Value>,
    /// Set by the optimizer when both inputs are identical and the join is
    /// symmetric: evaluate and summarize the input once (§VI-C).
    pub self_join: bool,
    /// When set, a worker whose tagged rows exceed this budget spills —
    /// §III-B's "memory budget-aware operators that can spill to the
    /// disk". A default-match join runs the memory-adaptive hybrid-hash
    /// COMBINE (as many sub-partitions as fit stay resident, the rest
    /// stream to spill files); a theta join streams both sides to disk and
    /// joins them block-nested within the budget.
    pub memory_budget_rows: Option<usize>,
    /// The columns of `left ++ right` the node emits, in order: COMBINE
    /// builds each output row once, from these columns only. All of them
    /// after [`FudjJoinNode::new`]; [`FudjJoinNode::project`] narrows it.
    pub output: Vec<usize>,
    schema: SchemaRef,
}

impl FudjJoinNode {
    /// Build a FUDJ join node; the output schema is `left ⨝ right`.
    pub fn new(
        left: PhysicalPlan,
        right: PhysicalPlan,
        join: Arc<dyn EngineJoin>,
        left_key: usize,
        right_key: usize,
        params: Vec<Value>,
    ) -> Self {
        let schema = Arc::new(left.schema().join(&right.schema()));
        let output = (0..schema.len()).collect();
        FudjJoinNode {
            left: Box::new(left),
            right: Box::new(right),
            join,
            left_key,
            right_key,
            params,
            self_join: false,
            memory_budget_rows: None,
            output,
            schema,
        }
    }

    /// Fold a column projection into the node: it then emits `columns` of
    /// its current output, under `schema` (which names them, so aliases
    /// survive the fold).
    pub fn project(&mut self, columns: &[usize], schema: SchemaRef) {
        self.output = columns.iter().map(|&c| self.output[c]).collect();
        self.schema = schema;
    }

    /// Output schema.
    pub fn schema(&self) -> SchemaRef {
        self.schema.clone()
    }
}

/// A physical operator tree. Cloning is shallow where it can be: datasets,
/// scalar functions and join strategies are shared `Arc`s.
#[derive(Clone)]
pub enum PhysicalPlan {
    /// Scan a stored dataset.
    Scan { dataset: Arc<Dataset> },
    /// Keep rows satisfying the predicate. A conjunction of
    /// `column <op> literal` comparisons runs
    /// [`crate::columnar::filter_rows`]; any other predicate is interpreted.
    Filter {
        input: Box<PhysicalPlan>,
        predicate: BoundExpr,
    },
    /// One output column per expression, named by `schema`. A projection
    /// of bare columns moves them ([`crate::columnar::project_rows`]).
    Project {
        input: Box<PhysicalPlan>,
        exprs: Vec<BoundExpr>,
        schema: SchemaRef,
    },
    /// The FUDJ distributed join.
    FudjJoin(FudjJoinNode),
    /// On-top baseline: broadcast right side, nested loop with a predicate
    /// over `left ++ right`.
    NlJoin {
        left: Box<PhysicalPlan>,
        right: Box<PhysicalPlan>,
        predicate: BoundExpr,
    },
    /// Two-step hash aggregation over columns of its input: the planner
    /// points `group_by` and every [`Aggregate::input`] straight at the
    /// child's columns, so no projection copies rows for it. `schema`
    /// names the output: the group columns, then one per aggregate.
    HashAggregate {
        input: Box<PhysicalPlan>,
        group_by: Vec<usize>,
        aggregates: Vec<Aggregate>,
        schema: SchemaRef,
    },
    /// Global sort (gathers to one worker).
    Sort {
        input: Box<PhysicalPlan>,
        keys: Vec<SortKey>,
    },
    /// Keep the first `limit` rows (after any sort).
    Limit {
        input: Box<PhysicalPlan>,
        limit: usize,
    },
}

impl PhysicalPlan {
    /// A [`PhysicalPlan::HashAggregate`] whose group columns keep the names
    /// they have in `input`.
    pub fn hash_aggregate(
        input: PhysicalPlan,
        group_by: Vec<usize>,
        aggregates: Vec<Aggregate>,
    ) -> Self {
        let in_schema = input.schema();
        let mut fields: Vec<Field> = group_by
            .iter()
            .map(|&i| in_schema.fields()[i].clone())
            .collect();
        for agg in &aggregates {
            fields.push(Field::new(agg.name.clone(), agg.output_type(&in_schema)));
        }
        PhysicalPlan::HashAggregate {
            input: Box::new(input),
            group_by,
            aggregates,
            schema: Arc::new(Schema::new(fields)),
        }
    }

    /// The FUDJ join that runs Step 1 of a hash aggregate reading this
    /// plan, inside its COMBINE: this plan, when it is a FUDJ join whose
    /// duplicate handling is not elimination (whose distinct pass needs
    /// every joined row). The executor and EXPLAIN both ask here.
    pub fn folds_aggregate(&self) -> Option<&FudjJoinNode> {
        match self {
            PhysicalPlan::FudjJoin(node) if node.join.dedup_mode() != DedupMode::Elimination => {
                Some(node)
            }
            _ => None,
        }
    }

    /// The operator's output schema.
    pub fn schema(&self) -> SchemaRef {
        match self {
            PhysicalPlan::Scan { dataset } => dataset.schema().clone(),
            PhysicalPlan::Filter { input, .. } => input.schema(),
            PhysicalPlan::Project { schema, .. } => schema.clone(),
            PhysicalPlan::FudjJoin(node) => node.schema(),
            PhysicalPlan::NlJoin { left, right, .. } => {
                Arc::new(left.schema().join(&right.schema()))
            }
            PhysicalPlan::HashAggregate { schema, .. } => schema.clone(),
            PhysicalPlan::Sort { input, .. } => input.schema(),
            PhysicalPlan::Limit { input, .. } => input.schema(),
        }
    }

    /// Render the plan tree, one operator per line (EXPLAIN-style).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(0, &mut out);
        out
    }

    fn explain_into(&self, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        match self {
            PhysicalPlan::Scan { dataset } => {
                let _ = writeln!(out, "{pad}DataScan [{}]", dataset.name());
            }
            PhysicalPlan::Filter { input, predicate } => {
                let _ = writeln!(out, "{pad}Filter [{predicate}]");
                input.explain_into(depth + 1, out);
            }
            PhysicalPlan::Project { input, exprs, .. } => {
                let es: Vec<String> = exprs.iter().map(BoundExpr::to_string).collect();
                let _ = writeln!(out, "{pad}Project [{}]", es.join(", "));
                input.explain_into(depth + 1, out);
            }
            PhysicalPlan::FudjJoin(node) => {
                let match_kind = if node.join.uses_default_match() {
                    "hash"
                } else {
                    "theta-nlj"
                };
                let emit: Vec<&str> = node
                    .schema
                    .fields()
                    .iter()
                    .map(|f| f.name.as_str())
                    .collect();
                let _ = writeln!(
                    out,
                    "{pad}FudjJoin [{} | match: {match_kind} | dedup: {:?}{} | emit: [{}]]",
                    node.join.name(),
                    node.join.dedup_mode(),
                    if node.self_join {
                        " | self-join: summarize once"
                    } else {
                        ""
                    },
                    emit.join(", "),
                );
                node.left.explain_into(depth + 1, out);
                node.right.explain_into(depth + 1, out);
            }
            PhysicalPlan::NlJoin {
                left,
                right,
                predicate,
            } => {
                let _ = writeln!(out, "{pad}NestedLoopJoin [{predicate}]");
                left.explain_into(depth + 1, out);
                right.explain_into(depth + 1, out);
            }
            PhysicalPlan::HashAggregate {
                input,
                group_by,
                aggregates,
                ..
            } => {
                // An aggregate that reads a column shows its index: `s(#2)`.
                let aggs: Vec<String> = aggregates
                    .iter()
                    .map(|a| match a.input {
                        Some(c) => format!("{}(#{c})", a.name),
                        None => a.name.clone(),
                    })
                    .collect();
                let folded = if input.folds_aggregate().is_some() {
                    "; step 1 in COMBINE"
                } else {
                    ""
                };
                let _ = writeln!(
                    out,
                    "{pad}HashAggregate [group by {group_by:?}; {aggs:?}{folded}]"
                );
                input.explain_into(depth + 1, out);
            }
            PhysicalPlan::Sort { input, keys } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| format!("#{}{}", k.column, if k.descending { " desc" } else { "" }))
                    .collect();
                let _ = writeln!(out, "{pad}Sort [{}]", ks.join(", "));
                input.explain_into(depth + 1, out);
            }
            PhysicalPlan::Limit { input, limit } => {
                let _ = writeln!(out, "{pad}Limit [{limit}]");
                input.explain_into(depth + 1, out);
            }
        }
    }
}

impl fmt::Debug for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fudj_storage::DatasetBuilder;

    fn scan() -> PhysicalPlan {
        let schema = Schema::shared(vec![
            Field::new("id", DataType::Uuid),
            Field::new("v", DataType::Int64),
        ]);
        PhysicalPlan::Scan {
            dataset: Arc::new(DatasetBuilder::new("t", schema).build().unwrap()),
        }
    }

    #[test]
    fn aggregate_schema() {
        let plan = PhysicalPlan::hash_aggregate(
            scan(),
            vec![0],
            vec![
                Aggregate::count_star("c"),
                Aggregate::on(AggFunc::Avg, 1, "avg_v"),
                Aggregate::on(AggFunc::Max, 1, "max_v"),
            ],
        );
        let s = plan.schema();
        assert_eq!(
            s.to_string(),
            "id: uuid, c: bigint, avg_v: double, max_v: bigint"
        );
    }

    #[test]
    fn filter_preserves_schema() {
        let plan = PhysicalPlan::Filter {
            input: Box::new(scan()),
            predicate: BoundExpr::Literal(Value::Bool(true)),
        };
        assert_eq!(plan.schema().len(), 2);
    }

    #[test]
    fn explain_renders_tree() {
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::Sort {
                input: Box::new(scan()),
                keys: vec![SortKey::desc(1)],
            }),
            limit: 10,
        };
        let text = plan.explain();
        assert!(text.contains("Limit [10]"));
        assert!(text.contains("Sort [#1 desc]"));
        assert!(text.contains("DataScan [t]"));
    }
}
