//! Lowering: optimized logical plans → executable physical plans.
//!
//! Everything symbolic is resolved here: column names bind to indices,
//! expressions compile to closures, FUDJ names resolve to engine join
//! strategies (the registered library behind [`FudjEngineJoin`], or an
//! override from [`PlanOptions::join_overrides`]), and computed join keys
//! become appended key columns the join operator can address by index.

use crate::expr::{BinOp, BoundExpr, Expr};
use crate::logical::LogicalPlan;
use crate::optimizer::PlanOptions;
use fudj_core::{FudjEngineJoin, GuardMode, GuardedJoin, JoinAlgorithm, JoinRegistry};
use fudj_exec::{Aggregate, CmpOp, ColumnCompare, FudjJoinNode, PhysicalPlan, SortKey};
use fudj_types::{Field, FudjError, Result, Row, Schema, SchemaRef, Value};
use std::sync::Arc;

/// Lower an optimized logical plan.
pub fn lower(
    plan: &LogicalPlan,
    registry: &JoinRegistry,
    options: &PlanOptions,
) -> Result<PhysicalPlan> {
    Ok(match plan {
        LogicalPlan::Scan { dataset, .. } => PhysicalPlan::Scan {
            dataset: dataset.clone(),
        },

        LogicalPlan::Filter { input, predicate } => {
            let schema = input.schema()?;
            let bound = predicate.bind(&schema)?;
            lower_filter(lower(input, registry, options)?, bound)
        }

        LogicalPlan::Project { input, exprs } => {
            let in_schema = input.schema()?;
            let out_schema = plan.schema()?;
            let bound: Vec<BoundExpr> = exprs
                .iter()
                .map(|(e, _)| e.bind(&in_schema))
                .collect::<Result<_>>()?;
            let child = lower(input, registry, options)?;
            if let Some(columns) = compile_columns(&bound) {
                project_onto(child, columns, out_schema)
            } else {
                PhysicalPlan::Project {
                    input: Box::new(child),
                    mapper: Arc::new(move |row: &Row| {
                        let mut values = Vec::with_capacity(bound.len());
                        for b in &bound {
                            values.push(b.eval(row)?);
                        }
                        Ok(Row::new(values))
                    }),
                    schema: out_schema,
                }
            }
        }

        LogicalPlan::Join {
            left,
            right,
            condition,
        } => {
            // On-top plan: NLJ with the full condition as a UDF predicate.
            let combined = left.schema()?.join(right.schema()?.as_ref());
            let bound = condition.bind(&combined)?;
            PhysicalPlan::NlJoin {
                left: Box::new(lower(left, registry, options)?),
                right: Box::new(lower(right, registry, options)?),
                predicate: Arc::new(move |l: &Row, r: &Row| bound.eval(&l.concat(r))?.as_bool()),
            }
        }

        LogicalPlan::FudjJoin {
            left,
            right,
            join_name,
            left_key,
            right_key,
            params,
            residual,
            self_join,
        } => lower_fudj_join(
            left, right, join_name, left_key, right_key, params, residual, *self_join, registry,
            options,
        )?,

        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let in_schema = input.schema()?;
            // Pre-project: group expressions first, then aggregate inputs.
            let mut pre_fields: Vec<Field> = Vec::new();
            let mut pre_bound: Vec<BoundExpr> = Vec::new();
            for (e, name) in group_by {
                pre_fields.push(Field::new(name.clone(), e.data_type(&in_schema)?));
                pre_bound.push(e.bind(&in_schema)?);
            }
            let mut exec_aggs: Vec<Aggregate> = Vec::new();
            for (i, agg) in aggregates.iter().enumerate() {
                let input_idx = match &agg.input {
                    Some(e) => {
                        pre_fields.push(Field::new(
                            format!("__agg_in_{i}"),
                            e.data_type(&in_schema)?,
                        ));
                        pre_bound.push(e.bind(&in_schema)?);
                        Some(pre_fields.len() - 1)
                    }
                    None => None,
                };
                exec_aggs.push(Aggregate {
                    func: agg.func,
                    input: input_idx,
                    name: agg.name.clone(),
                });
            }
            let pre_schema: SchemaRef = Arc::new(Schema::new(pre_fields));
            // Named by the binder, not by the child: a child's names may
            // lack an alias (`Schema::join` names the `id` of a second joined
            // input `right.id`, and of a third `right.right.id`).
            let width = group_by.len();
            let mut out_fields = pre_schema.fields()[..width].to_vec();
            for agg in &exec_aggs {
                out_fields.push(Field::new(agg.name.clone(), agg.output_type(&pre_schema)));
            }
            let child = lower(input, registry, options)?;
            let (child, group_by) = match compile_columns(&pre_bound) {
                // A bare-column pre-projection folds into the aggregate's
                // indices, so it reads its input rows in place. Over a FUDJ
                // join it folds into the join's emit list instead, which
                // keeps COMBINE's output rows narrow.
                Some(columns) if !matches!(child, PhysicalPlan::FudjJoin(_)) => {
                    let (child, columns) = match child {
                        PhysicalPlan::VecProject {
                            input,
                            columns: inner,
                            ..
                        } => (*input, columns.iter().map(|&c| inner[c]).collect()),
                        child => (child, columns),
                    };
                    for agg in &mut exec_aggs {
                        agg.input = agg.input.map(|i| columns[i]);
                    }
                    (child, columns[..width].to_vec())
                }
                Some(columns) => (
                    project_onto(child, columns, pre_schema),
                    (0..width).collect(),
                ),
                None => (
                    PhysicalPlan::Project {
                        input: Box::new(child),
                        mapper: Arc::new(move |row: &Row| {
                            let mut values = Vec::with_capacity(pre_bound.len());
                            for b in &pre_bound {
                                values.push(b.eval(row)?);
                            }
                            Ok(Row::new(values))
                        }),
                        schema: pre_schema,
                    },
                    (0..width).collect(),
                ),
            };
            PhysicalPlan::HashAggregate {
                input: Box::new(child),
                group_by,
                aggregates: exec_aggs,
                schema: Arc::new(Schema::new(out_fields)),
            }
        }

        LogicalPlan::Sort { input, keys } => {
            let schema = input.schema()?;
            let mut sort_keys = Vec::with_capacity(keys.len());
            for k in keys {
                match k.expr.bind(&schema)? {
                    BoundExpr::Column(i) => sort_keys.push(SortKey {
                        column: i,
                        descending: k.descending,
                    }),
                    _ => {
                        return Err(FudjError::Plan(format!(
                            "ORDER BY supports column references only, got {}",
                            k.expr
                        )))
                    }
                }
            }
            PhysicalPlan::Sort {
                input: Box::new(lower(input, registry, options)?),
                keys: sort_keys,
            }
        }

        LogicalPlan::Limit { input, limit } => PhysicalPlan::Limit {
            input: Box::new(lower(input, registry, options)?),
            limit: *limit,
        },
    })
}

fn predicate_closure(bound: BoundExpr) -> fudj_exec::RowPredicate {
    Arc::new(move |row: &Row| bound.eval(row)?.as_bool())
}

/// Emit the vectorizable [`PhysicalPlan::VecFilter`] when the predicate is a
/// conjunction of column-vs-literal comparisons, else the interpreted
/// closure [`PhysicalPlan::Filter`]. Both evaluate comparisons through the
/// same [`Value`] total order, so results are identical.
fn lower_filter(child: PhysicalPlan, bound: BoundExpr) -> PhysicalPlan {
    match compile_compares(&bound) {
        Some(compares) => PhysicalPlan::VecFilter {
            input: Box::new(child),
            compares,
        },
        None => PhysicalPlan::Filter {
            input: Box::new(child),
            predicate: predicate_closure(bound),
        },
    }
}

fn cmp_op_of(op: BinOp) -> Option<CmpOp> {
    Some(match op {
        BinOp::Eq => CmpOp::Eq,
        BinOp::NotEq => CmpOp::NotEq,
        BinOp::Lt => CmpOp::Lt,
        BinOp::LtEq => CmpOp::LtEq,
        BinOp::Gt => CmpOp::Gt,
        BinOp::GtEq => CmpOp::GtEq,
        _ => return None,
    })
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

/// Decompose a bound predicate into a conjunction of column-vs-literal
/// comparisons, if that is all it is.
fn compile_compares(bound: &BoundExpr) -> Option<Vec<ColumnCompare>> {
    let mut out = Vec::new();
    collect_compares(bound, &mut out).then_some(out)
}

fn collect_compares(bound: &BoundExpr, out: &mut Vec<ColumnCompare>) -> bool {
    let BoundExpr::Binary { op, left, right } = bound else {
        return false;
    };
    if *op == BinOp::And {
        return collect_compares(left, out) && collect_compares(right, out);
    }
    let Some(op) = cmp_op_of(*op) else {
        return false;
    };
    match (left.as_ref(), right.as_ref()) {
        (BoundExpr::Column(c), BoundExpr::Literal(v)) => {
            out.push(ColumnCompare {
                column: *c,
                op,
                literal: v.clone(),
            });
            true
        }
        (BoundExpr::Literal(v), BoundExpr::Column(c)) => {
            out.push(ColumnCompare {
                column: *c,
                op: mirror(op),
                literal: v.clone(),
            });
            true
        }
        _ => false,
    }
}

/// A projection that only reorders/drops columns compiles to index lookups.
fn compile_columns(bound: &[BoundExpr]) -> Option<Vec<usize>> {
    bound
        .iter()
        .map(|b| match b {
            BoundExpr::Column(i) => Some(*i),
            _ => None,
        })
        .collect()
}

/// Project `child` onto `columns` of its output, named by `schema`. Over a
/// FUDJ join the projection folds into the columns the join emits, over a
/// column projection the two index lists compose, a projection that keeps
/// every column in order under the child's own names (a SELECT list
/// repeating an aggregate's output) is no operator at all, one that only
/// renames an aggregate's columns renames them on the aggregate, and
/// anything else gets a [`PhysicalPlan::VecProject`].
fn project_onto(child: PhysicalPlan, columns: Vec<usize>, schema: SchemaRef) -> PhysicalPlan {
    let identity = columns.iter().copied().eq(0..columns.len());
    let same_types = |own: &Schema| {
        let types = schema.fields().iter().map(|f| &f.data_type);
        own.fields().iter().map(|f| &f.data_type).eq(types)
    };
    match child {
        child if identity && child.schema() == schema => child,
        PhysicalPlan::HashAggregate {
            input,
            group_by,
            aggregates,
            schema: own,
        } if identity && same_types(&own) => PhysicalPlan::HashAggregate {
            input,
            group_by,
            aggregates,
            schema,
        },
        PhysicalPlan::FudjJoin(mut node) => {
            node.project(&columns, schema);
            PhysicalPlan::FudjJoin(node)
        }
        PhysicalPlan::VecProject {
            input,
            columns: inner,
            ..
        } => PhysicalPlan::VecProject {
            input,
            columns: columns.iter().map(|&c| inner[c]).collect(),
            schema,
        },
        child => PhysicalPlan::VecProject {
            input: Box::new(child),
            columns,
            schema,
        },
    }
}

/// Append a computed key column to a child plan.
fn with_key_column(
    child: PhysicalPlan,
    child_schema: &Schema,
    key: &Expr,
    key_name: &str,
) -> Result<(PhysicalPlan, usize, SchemaRef)> {
    let bound = key.bind(child_schema)?;
    let key_type = key.data_type(child_schema)?;
    let mut fields = child_schema.fields().to_vec();
    fields.push(Field::new(key_name.to_owned(), key_type));
    let schema: SchemaRef = Arc::new(Schema::new(fields));
    let key_index = schema.len() - 1;
    let plan = PhysicalPlan::Project {
        input: Box::new(child),
        mapper: Arc::new(move |row: &Row| {
            let mut values = Vec::with_capacity(row.len() + 1);
            values.extend_from_slice(row.values());
            values.push(bound.eval(row)?);
            Ok(Row::new(values))
        }),
        schema: schema.clone(),
    };
    Ok((plan, key_index, schema))
}

#[allow(clippy::too_many_arguments)]
fn lower_fudj_join(
    left: &LogicalPlan,
    right: &LogicalPlan,
    join_name: &str,
    left_key: &Expr,
    right_key: &Expr,
    params: &[Value],
    residual: &Option<Expr>,
    self_join: bool,
    registry: &JoinRegistry,
    options: &PlanOptions,
) -> Result<PhysicalPlan> {
    let lschema = left.schema()?;
    let rschema = right.schema()?;

    // Resolve the engine strategy: override first, else the registry.
    // Registry joins run untrusted library code, so they are wrapped in the
    // guardrail layer (per the session's GuardMode) and hold a lease that
    // blocks DROP JOIN for the plan's lifetime. Overrides are trusted engine
    // strategies and stay unwrapped.
    let mut def_budget = None;
    let strategy = match options.join_overrides.get(join_name) {
        Some(s) => s.clone(),
        None => {
            let def = registry
                .get(join_name)
                .ok_or_else(|| FudjError::JoinNotFound(join_name.to_owned()))?;
            def_budget = def.memory_budget_rows();
            let config = match &options.guard {
                GuardMode::PerJoin => Some(def.guard().clone()),
                GuardMode::Override(config) => Some(config.clone()),
                GuardMode::Off => None,
            };
            let alg: Arc<dyn JoinAlgorithm> = match config {
                Some(config) => {
                    let keys = def.arg_types();
                    let guarded = GuardedJoin::new(def.algorithm().clone(), config)
                        .with_same_key_types(keys.first() == keys.get(1));
                    Arc::new(guarded)
                }
                None => def.algorithm().clone(),
            };
            Arc::new(FudjEngineJoin::with_lease(alg, def.lease()))
        }
    };

    let (lplan, lkey_idx, _) = with_key_column(
        lower(left, registry, options)?,
        &lschema,
        left_key,
        "__fudj_key_left",
    )?;
    let (rplan, rkey_idx, _) = with_key_column(
        lower(right, registry, options)?,
        &rschema,
        right_key,
        "__fudj_key_right",
    )?;

    let mut node = FudjJoinNode::new(lplan, rplan, strategy, lkey_idx, rkey_idx, params.to_vec());
    node.self_join = self_join;
    // Session/query options win; the join definition's own declared
    // budget (`CREATE JOIN ... WITH (memory_budget_rows = N)`) is the
    // fallback.
    node.memory_budget_rows = options.memory_budget_rows.or(def_budget);

    // The join never emits its two key columns, so upper operators see the
    // logical schema.
    let l_len = lschema.len();
    let r_len = rschema.len();
    let logical_schema: SchemaRef = Arc::new(lschema.join(&rschema));
    let keep: Vec<usize> = (0..l_len).chain(l_len + 1..l_len + 1 + r_len).collect();
    node.project(&keep, logical_schema.clone());
    let joined = PhysicalPlan::FudjJoin(node);

    // Residual non-FUDJ conjuncts become a post-join filter.
    Ok(match residual {
        Some(expr) => {
            let bound = expr.bind(&logical_schema)?;
            lower_filter(joined, bound)
        }
        None => joined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{LogicalAggregate, LogicalSortKey};
    use crate::optimize;
    use fudj_datagen::{parks, wildfires, GeneratorConfig};
    use fudj_exec::{AggFunc, Cluster};
    use fudj_joins::standard_library;
    use fudj_types::DataType;

    fn registry() -> JoinRegistry {
        let reg = JoinRegistry::new();
        reg.install_library(standard_library());
        reg.create_join(
            "st_contains",
            vec![DataType::Polygon, DataType::Point],
            "spatial.SpatialJoin",
            "flexiblejoins",
        )
        .unwrap();
        reg
    }

    /// Query 1, end to end through optimizer + lowering + cluster:
    /// SELECT p.id, COUNT(w.id) AS num_fires
    /// FROM Parks p, Wildfires w
    /// WHERE st_contains(p.boundary, w.location) AND w.fire_start >= :jan22
    /// GROUP BY p.id ORDER BY num_fires DESC LIMIT 10
    fn query1() -> LogicalPlan {
        let parks = Arc::new(parks(GeneratorConfig::new(150, 1, 4)).unwrap());
        let fires = Arc::new(wildfires(GeneratorConfig::new(400, 2, 4)).unwrap());
        let join = LogicalPlan::scan(parks, "p").join(
            LogicalPlan::scan(fires, "w"),
            Expr::call(
                "st_contains",
                vec![Expr::col("p.boundary"), Expr::col("w.location")],
            )
            .and(Expr::binary(
                crate::expr::BinOp::GtEq,
                Expr::col("w.fire_start"),
                Expr::lit(Value::DateTime(fudj_datagen::datasets::JAN_2022_MS)),
            )),
        );
        LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(LogicalPlan::Aggregate {
                    input: Box::new(join),
                    group_by: vec![(Expr::col("p.id"), "id".into())],
                    aggregates: vec![LogicalAggregate {
                        func: AggFunc::Count,
                        input: Some(Expr::col("w.id")),
                        name: "num_fires".into(),
                    }],
                }),
                keys: vec![LogicalSortKey {
                    expr: Expr::col("num_fires"),
                    descending: true,
                }],
            }),
            limit: 10,
        }
    }

    #[test]
    fn query1_fudj_and_ontop_agree() {
        let reg = registry();
        let cluster = Cluster::new(3);

        let fudj_plan = crate::plan(query1(), &reg, &PlanOptions::default()).unwrap();
        let (fudj_result, fudj_metrics) = cluster.execute(&fudj_plan).unwrap();

        let ontop_plan = crate::plan(
            query1(),
            &reg,
            &PlanOptions {
                force_on_top: true,
                ..Default::default()
            },
        )
        .unwrap();
        let (ontop_result, ontop_metrics) = cluster.execute(&ontop_plan).unwrap();

        assert_eq!(
            fudj_result.schema().to_string(),
            "id: uuid, num_fires: bigint"
        );
        // LIMIT-free comparison: tie order under equal counts is unspecified.
        let mut a = fudj_result.rows().to_vec();
        let mut b = ontop_result.rows().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b, "plans agree");
        assert!(!fudj_result.is_empty(), "fixture produces grouped results");
        // The on-top plan broadcast rows; the FUDJ plan did not.
        assert!(ontop_metrics.snapshot().rows_broadcast > 0);
        assert_eq!(fudj_metrics.snapshot().rows_broadcast, 0);
    }

    #[test]
    fn explain_shows_fudj_operator() {
        let reg = registry();
        let plan = crate::plan(query1(), &reg, &PlanOptions::default()).unwrap();
        let text = plan.explain();
        assert!(text.contains("FudjJoin"), "{text}");
        assert!(text.contains("match: hash"), "{text}");
    }

    #[test]
    fn join_override_swaps_strategy() {
        use fudj_joins::builtin::BuiltinSpatialJoin;
        let reg = registry();
        let mut options = PlanOptions::default();
        options
            .join_overrides
            .insert("st_contains".into(), Arc::new(BuiltinSpatialJoin::new()));
        let plan = crate::plan(query1(), &reg, &options).unwrap();
        assert!(plan.explain().contains("builtin_spatial_join"));

        // Both strategies produce identical query answers.
        let cluster = Cluster::new(2);
        let (builtin_result, _) = cluster.execute(&plan).unwrap();
        let fudj_plan = crate::plan(query1(), &reg, &PlanOptions::default()).unwrap();
        let (fudj_result, _) = cluster.execute(&fudj_plan).unwrap();
        let mut a = builtin_result.rows().to_vec();
        let mut b = fudj_result.rows().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn order_by_non_column_is_a_plan_error() {
        let reg = registry();
        let parks = Arc::new(parks(GeneratorConfig::new(5, 1, 1)).unwrap());
        let plan = LogicalPlan::Sort {
            input: Box::new(LogicalPlan::scan(parks, "p")),
            keys: vec![LogicalSortKey {
                expr: Expr::call("abs", vec![Expr::col("p.id")]),
                descending: false,
            }],
        };
        let optimized = optimize(plan, &reg, &PlanOptions::default()).unwrap();
        assert!(lower(&optimized, &reg, &PlanOptions::default()).is_err());
    }
}
