//! Lowering: optimized logical plans → executable physical plans.
//!
//! Everything symbolic is resolved here: column names bind to indices and
//! function names to their bodies, FUDJ names resolve to engine join
//! strategies (the registered library behind [`FudjEngineJoin`], or an
//! override from [`PlanOptions::join_overrides`]), and a join key that is
//! a bare column is read where it lies, while a computed one becomes an
//! appended key column the join operator can address by index.

use crate::expr::{BoundExpr, Expr};
use crate::logical::LogicalPlan;
use crate::optimizer::PlanOptions;
use fudj_core::{FudjEngineJoin, GuardMode, GuardedJoin, JoinAlgorithm, JoinRegistry};
use fudj_exec::expr::columns_of;
use fudj_exec::{Aggregate, FudjJoinNode, PhysicalPlan, SortKey};
use fudj_types::{Field, FudjError, Result, Schema, SchemaRef, Value};
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

        LogicalPlan::Filter { input, predicate } => PhysicalPlan::Filter {
            predicate: predicate.bind(input.schema()?.as_ref())?,
            input: Box::new(lower(input, registry, options)?),
        },

        LogicalPlan::Project { input, exprs } => {
            let in_schema = input.schema()?;
            let bound: Vec<BoundExpr> = exprs
                .iter()
                .map(|(e, _)| e.bind(&in_schema))
                .collect::<Result<_>>()?;
            project_onto(lower(input, registry, options)?, bound, plan.schema()?)
        }

        LogicalPlan::Join {
            left,
            right,
            condition,
        } => {
            // On-top plan: NLJ with the full condition as its predicate.
            let combined = left.schema()?.join(right.schema()?.as_ref());
            PhysicalPlan::NlJoin {
                left: Box::new(lower(left, registry, options)?),
                right: Box::new(lower(right, registry, options)?),
                predicate: condition.bind(&combined)?,
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
            let (child, group_by) = match columns_of(&pre_bound) {
                // A bare-column pre-projection folds into the aggregate's
                // indices, so it reads its input rows in place. Over a FUDJ
                // join it folds into the join's emit list instead, which
                // keeps COMBINE's output rows narrow.
                Some(columns) if !matches!(child, PhysicalPlan::FudjJoin(_)) => {
                    let (child, columns) = match child {
                        PhysicalPlan::Project {
                            input,
                            exprs,
                            schema,
                        } => match columns_of(&exprs) {
                            Some(inner) => (*input, columns.iter().map(|&c| inner[c]).collect()),
                            None => (
                                PhysicalPlan::Project {
                                    input,
                                    exprs,
                                    schema,
                                },
                                columns,
                            ),
                        },
                        child => (child, columns),
                    };
                    for agg in &mut exec_aggs {
                        agg.input = agg.input.map(|i| columns[i]);
                    }
                    (child, columns[..width].to_vec())
                }
                _ => (
                    project_onto(child, pre_bound, pre_schema),
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

/// Project `child` onto `exprs` of its output, named by `schema`. A
/// projection that computes anything is a [`PhysicalPlan::Project`]. One
/// of bare columns folds where it can: over a FUDJ join into the columns
/// the join emits, over another column projection by composing the two
/// index lists; one that keeps every column in order under the child's own
/// names (a SELECT list repeating an aggregate's output) is no operator at
/// all, and one that only renames an aggregate's columns renames them on
/// the aggregate.
fn project_onto(child: PhysicalPlan, exprs: Vec<BoundExpr>, schema: SchemaRef) -> PhysicalPlan {
    let Some(columns) = columns_of(&exprs) else {
        return PhysicalPlan::Project {
            input: Box::new(child),
            exprs,
            schema,
        };
    };
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
        PhysicalPlan::Project {
            input,
            exprs: inner,
            ..
        } if columns_of(&inner).is_some() => PhysicalPlan::Project {
            input,
            exprs: columns.iter().map(|&c| inner[c].clone()).collect(),
            schema,
        },
        child => PhysicalPlan::Project {
            input: Box::new(child),
            exprs,
            schema,
        },
    }
}

/// Where `child` holds the join key: in place when the key binds to a bare
/// column, else in a column appended under `key_name` by a
/// [`PhysicalPlan::Project`]. Returns the plan and the key's index.
fn key_column(
    child: PhysicalPlan,
    schema: &Schema,
    key: &Expr,
    key_name: &str,
) -> Result<(PhysicalPlan, usize)> {
    let bound = key.bind(schema)?;
    if let BoundExpr::Column(i) = bound {
        return Ok((child, i));
    }
    let mut fields = schema.fields().to_vec();
    fields.push(Field::new(key_name.to_owned(), key.data_type(schema)?));
    let mut exprs: Vec<BoundExpr> = (0..schema.len()).map(BoundExpr::Column).collect();
    exprs.push(bound);
    let plan = PhysicalPlan::Project {
        input: Box::new(child),
        exprs,
        schema: Arc::new(Schema::new(fields)),
    };
    Ok((plan, schema.len()))
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

    let (lplan, lkey_idx) = key_column(
        lower(left, registry, options)?,
        &lschema,
        left_key,
        "__fudj_key_left",
    )?;
    let (rplan, rkey_idx) = key_column(
        lower(right, registry, options)?,
        &rschema,
        right_key,
        "__fudj_key_right",
    )?;

    // The right input's columns start after the left's, appended key too.
    let r_start = lplan.schema().len();
    let mut node = FudjJoinNode::new(lplan, rplan, strategy, lkey_idx, rkey_idx, params.to_vec());
    node.self_join = self_join;
    // Session/query options win; the join definition's own declared
    // budget (`CREATE JOIN ... WITH (memory_budget_rows = N)`) is the
    // fallback.
    node.memory_budget_rows = options.memory_budget_rows.or(def_budget);

    // The join never emits an appended key column, so upper operators see
    // the logical schema.
    let logical_schema: SchemaRef = Arc::new(lschema.join(&rschema));
    let keep: Vec<usize> = (0..lschema.len())
        .chain(r_start..r_start + rschema.len())
        .collect();
    node.project(&keep, logical_schema.clone());
    let joined = PhysicalPlan::FudjJoin(node);

    // Residual non-FUDJ conjuncts become a post-join filter.
    Ok(match residual {
        Some(expr) => PhysicalPlan::Filter {
            predicate: expr.bind(&logical_schema)?,
            input: Box::new(joined),
        },
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
