//! The optimizer: predicate pushdown and the FUDJ rewrite rule (§VI-C).

use crate::expr::Expr;
use crate::logical::LogicalPlan;
use fudj_core::{EngineJoin, GuardMode, JoinRegistry};
use fudj_types::{FudjError, Result, Schema, Value};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

/// Planner options.
#[derive(Clone, Default)]
pub struct PlanOptions {
    /// Ignore registered FUDJs and lower every join to the on-top NLJ plan —
    /// how the experiments produce the on-top baseline series.
    pub force_on_top: bool,
    /// Extra literal parameters appended to every FUDJ's `divide` call
    /// (grid side / granule count sweeps, Fig. 11) after any parameters the
    /// query itself passes.
    pub extra_join_params: Vec<Value>,
    /// Per-join-name strategy overrides: lower the named FUDJ to this
    /// engine strategy instead of the registered library (how the
    /// experiments swap in the hand-built and advanced operators while
    /// keeping the query text identical).
    pub join_overrides: HashMap<String, Arc<dyn EngineJoin>>,
    /// Per-worker row budget; FUDJ joins exceeding it spill to disk.
    pub memory_budget_rows: Option<usize>,
    /// UDF guardrail selection: each join definition's own config (the
    /// default), a session-wide override, or off (unguarded reference runs).
    /// Applies to registry-resolved joins only — [`Self::join_overrides`]
    /// are trusted engine strategies and are never wrapped.
    pub guard: GuardMode,
    /// Execution-mode override (`SET exec_mode = row|columnar`); the
    /// executor default ([`fudj_exec::ExecMode::from_env`]) applies when
    /// unset. Plans are identical either way — the mode only selects the
    /// evaluation strategy at the executor.
    pub exec_mode: Option<fudj_exec::ExecMode>,
}

impl fmt::Debug for PlanOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlanOptions")
            .field("force_on_top", &self.force_on_top)
            .field("extra_join_params", &self.extra_join_params)
            .field(
                "join_overrides",
                &self.join_overrides.keys().collect::<Vec<_>>(),
            )
            .field("memory_budget_rows", &self.memory_budget_rows)
            .field("guard", &self.guard)
            .field("exec_mode", &self.exec_mode)
            .finish()
    }
}

/// Run the rule pipeline: pushdown, then FUDJ detection/rewrite.
pub fn optimize(
    plan: LogicalPlan,
    registry: &JoinRegistry,
    options: &PlanOptions,
) -> Result<LogicalPlan> {
    rewrite(plan, registry, options)
}

fn rewrite(
    plan: LogicalPlan,
    registry: &JoinRegistry,
    options: &PlanOptions,
) -> Result<LogicalPlan> {
    Ok(match plan {
        LogicalPlan::Scan { .. } => plan,
        LogicalPlan::Filter { input, predicate } => {
            // Flatten filter chains, and merge a filter sitting on a join
            // into the join condition *before* rewriting the join, so
            // pushdown and FUDJ detection see all its conjuncts.
            let mut predicate = predicate;
            let mut input = *input;
            while let LogicalPlan::Filter {
                input: inner,
                predicate: p,
            } = input
            {
                predicate = p.and(predicate);
                input = *inner;
            }
            match input {
                LogicalPlan::Join {
                    left,
                    right,
                    condition,
                } => rewrite(
                    LogicalPlan::Join {
                        left,
                        right,
                        condition: condition.and(predicate),
                    },
                    registry,
                    options,
                )?,
                other => LogicalPlan::Filter {
                    input: Box::new(rewrite(other, registry, options)?),
                    predicate,
                },
            }
        }
        LogicalPlan::Project { input, exprs } => LogicalPlan::Project {
            input: Box::new(rewrite(*input, registry, options)?),
            exprs,
        },
        LogicalPlan::Join {
            left,
            right,
            condition,
        } => {
            let left = rewrite(*left, registry, options)?;
            let right = rewrite(*right, registry, options)?;
            rewrite_join(left, right, condition, registry, options)?
        }
        LogicalPlan::FudjJoin { .. } => plan, // already rewritten
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggregates,
        } => LogicalPlan::Aggregate {
            input: Box::new(rewrite(*input, registry, options)?),
            group_by,
            aggregates,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(rewrite(*input, registry, options)?),
            keys,
        },
        LogicalPlan::Limit { input, limit } => LogicalPlan::Limit {
            input: Box::new(rewrite(*input, registry, options)?),
            limit,
        },
    })
}

/// Which side(s) of a join an expression touches.
fn side_of(cols: &BTreeSet<String>, left: &Schema, right: &Schema) -> (bool, bool) {
    let mut touches_left = false;
    let mut touches_right = false;
    for c in cols {
        if left.index_of(c).is_ok() {
            touches_left = true;
        } else if right.index_of(c).is_ok() {
            touches_right = true;
        }
    }
    (touches_left, touches_right)
}

/// The join rewrite: predicate pushdown + FUDJ detection.
fn rewrite_join(
    left: LogicalPlan,
    right: LogicalPlan,
    condition: Expr,
    registry: &JoinRegistry,
    options: &PlanOptions,
) -> Result<LogicalPlan> {
    let lschema = left.schema()?;
    let rschema = right.schema()?;

    // --- Predicate pushdown: route single-side conjuncts to the children.
    let mut left_filters = Vec::new();
    let mut right_filters = Vec::new();
    let mut cross = Vec::new();
    for conjunct in condition.split_conjuncts() {
        // The binder joins every FROM entry on a literal TRUE. Kept, it
        // would become a residual filter evaluated on every joined row, and
        // that filter would stop column projections folding into the join.
        if matches!(conjunct, Expr::Literal(Value::Bool(true))) {
            continue;
        }
        let cols = conjunct.referenced_columns();
        match side_of(&cols, &lschema, &rschema) {
            (true, false) => left_filters.push(conjunct),
            (false, true) => right_filters.push(conjunct),
            // Other constant conjuncts stay above the join.
            _ => cross.push(conjunct),
        }
    }
    // Re-rewrite children that received pushed-down predicates: a filter
    // landing on a nested join must merge into that join's condition (e.g.
    // Query 3's three-way join, where the spatial conjunct belongs to the
    // inner join).
    let left = match Expr::conjoin(left_filters) {
        Some(p) => rewrite(left.filter(p), registry, options)?,
        None => left,
    };
    let right = match Expr::conjoin(right_filters) {
        Some(p) => rewrite(right.filter(p), registry, options)?,
        None => right,
    };

    // --- FUDJ detection among the cross conjuncts.
    let mut fudj: Option<(usize, FudjMatch)> = None;
    if !options.force_on_top {
        for (i, conjunct) in cross.iter().enumerate() {
            if let Some(m) = match_fudj_predicate(conjunct, registry, &lschema, &rschema)? {
                fudj = Some((i, m));
                break;
            }
        }
    }

    let Some((idx, m)) = fudj else {
        // No FUDJ predicate: leave the join for the on-top NLJ lowering.
        let condition = Expr::conjoin(cross).unwrap_or(Expr::lit(true));
        return Ok(LogicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
            condition,
        });
    };

    cross.remove(idx);
    let residual = Expr::conjoin(cross);

    // --- Self-join annotation: both sides are bare scans of one dataset
    // (pushed-down filters break the equivalence) and the algorithm is
    // symmetric — the engine then summarizes once (§VI-C).
    let self_join = matches!(
        (&left, &right),
        (
            LogicalPlan::Scan { dataset: dl, .. },
            LogicalPlan::Scan { dataset: dr, .. },
        ) if std::sync::Arc::ptr_eq(dl, dr)
    ) && registry
        .get(&m.join_name)
        .is_some_and(|d| d.algorithm().symmetric());

    let mut params = m.params;
    params.extend(options.extra_join_params.iter().cloned());

    Ok(LogicalPlan::FudjJoin {
        left: Box::new(left),
        right: Box::new(right),
        join_name: m.join_name,
        left_key: m.left_key,
        right_key: m.right_key,
        params,
        residual,
        self_join,
    })
}

struct FudjMatch {
    join_name: String,
    left_key: Expr,
    right_key: Expr,
    params: Vec<Value>,
}

/// Try to interpret one conjunct as a FUDJ predicate. Two accepted shapes:
///
/// * `fudj_name(k1, k2, p...)` — a registered boolean join function;
/// * `fudj_name(k1, k2, p...) >= lit` / `> lit` — a registered similarity
///   function compared against a threshold (the threshold becomes the last
///   parameter), which is how Query 2/5's `jaccard_similarity(...) >= t`
///   binds to the text-similarity FUDJ.
fn match_fudj_predicate(
    conjunct: &Expr,
    registry: &JoinRegistry,
    left: &Schema,
    right: &Schema,
) -> Result<Option<FudjMatch>> {
    let (call, threshold) = match conjunct {
        Expr::Call { .. } => (conjunct, None),
        Expr::Binary {
            op: crate::expr::BinOp::GtEq | crate::expr::BinOp::Gt,
            left: l,
            right: r,
        } => match (l.as_ref(), r.as_ref()) {
            (call @ Expr::Call { .. }, Expr::Literal(v)) => (call, Some(v.clone())),
            _ => return Ok(None),
        },
        _ => return Ok(None),
    };
    let Expr::Call { name, args } = call else {
        return Ok(None);
    };
    let lowered = name.to_ascii_lowercase();
    if registry.get(&lowered).is_none() {
        return Ok(None);
    }
    if args.len() < 2 {
        return Err(FudjError::Plan(format!(
            "FUDJ predicate {lowered} needs two key arguments"
        )));
    }

    // Resolve which side each key expression belongs to.
    let k0 = &args[0];
    let k1 = &args[1];
    let s0 = side_of(&k0.referenced_columns(), left, right);
    let s1 = side_of(&k1.referenced_columns(), left, right);
    let (left_key, right_key) = match (s0, s1) {
        ((true, false), (false, true)) => (k0.clone(), k1.clone()),
        ((false, true), (true, false)) => (k1.clone(), k0.clone()),
        _ => {
            // Keys straddle sides (or are constant): not a partitionable
            // FUDJ predicate — let it fall through to the NLJ path.
            return Ok(None);
        }
    };

    // Remaining args (and a comparison threshold) must be literals.
    let mut params = Vec::new();
    for extra in &args[2..] {
        match extra {
            Expr::Literal(v) => params.push(v.clone()),
            other => {
                return Err(FudjError::Plan(format!(
                    "FUDJ parameter must be a literal, got {other}"
                )))
            }
        }
    }
    if let Some(t) = threshold {
        params.push(t);
    }

    Ok(Some(FudjMatch {
        join_name: lowered,
        left_key,
        right_key,
        params,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fudj_joins::standard_library;
    use fudj_storage::{Dataset, DatasetBuilder};
    use fudj_types::{DataType, Field};
    use std::sync::Arc;

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
        reg.create_join(
            "jaccard_similarity",
            vec![DataType::String, DataType::String, DataType::Float64],
            "setsimilarity.SetSimilarityJoin",
            "flexiblejoins",
        )
        .unwrap();
        reg
    }

    fn parks() -> Arc<Dataset> {
        Arc::new(
            DatasetBuilder::new(
                "Parks",
                fudj_types::Schema::shared(vec![
                    Field::new("id", DataType::Uuid),
                    Field::new("boundary", DataType::Polygon),
                    Field::new("tags", DataType::String),
                ]),
            )
            .build()
            .unwrap(),
        )
    }

    fn fires() -> Arc<Dataset> {
        Arc::new(
            DatasetBuilder::new(
                "Wildfires",
                fudj_types::Schema::shared(vec![
                    Field::new("id", DataType::Uuid),
                    Field::new("location", DataType::Point),
                    Field::new("fire_start", DataType::DateTime),
                ]),
            )
            .build()
            .unwrap(),
        )
    }

    fn query1_logical() -> LogicalPlan {
        // Parks p JOIN Wildfires w
        //   ON st_contains(p.boundary, w.location)
        //   AND w.fire_start >= 42
        LogicalPlan::scan(parks(), "p").join(
            LogicalPlan::scan(fires(), "w"),
            Expr::call(
                "st_contains",
                vec![Expr::col("p.boundary"), Expr::col("w.location")],
            )
            .and(Expr::binary(
                crate::expr::BinOp::GtEq,
                Expr::col("w.fire_start"),
                Expr::lit(42i64),
            )),
        )
    }

    #[test]
    fn detects_fudj_and_pushes_filters() {
        let plan = optimize(query1_logical(), &registry(), &PlanOptions::default()).unwrap();
        match plan {
            LogicalPlan::FudjJoin {
                left,
                right,
                join_name,
                residual,
                self_join,
                ..
            } => {
                assert_eq!(join_name, "st_contains");
                assert!(residual.is_none());
                assert!(!self_join);
                assert!(matches!(*left, LogicalPlan::Scan { .. }));
                // The fire_start filter was pushed below the join.
                assert!(matches!(*right, LogicalPlan::Filter { .. }));
            }
            other => panic!("expected FudjJoin, got {other:?}"),
        }
    }

    #[test]
    fn force_on_top_keeps_nlj() {
        let options = PlanOptions {
            force_on_top: true,
            ..Default::default()
        };
        let plan = optimize(query1_logical(), &registry(), &options).unwrap();
        match plan {
            LogicalPlan::Join {
                condition, right, ..
            } => {
                // FUDJ predicate stays in the NLJ condition...
                assert!(condition.to_string().contains("st_contains"));
                // ...but pushdown still applies.
                assert!(matches!(*right, LogicalPlan::Filter { .. }));
            }
            other => panic!("expected Join, got {other:?}"),
        }
    }

    #[test]
    fn threshold_comparison_binds_as_parameter() {
        let reg = registry();
        let parks = parks();
        let plan = LogicalPlan::scan(parks.clone(), "a").join(
            LogicalPlan::scan(parks, "b"),
            Expr::binary(
                crate::expr::BinOp::GtEq,
                Expr::call(
                    "jaccard_similarity",
                    vec![Expr::col("a.tags"), Expr::col("b.tags")],
                ),
                Expr::lit(0.5),
            ),
        );
        match optimize(plan, &reg, &PlanOptions::default()).unwrap() {
            LogicalPlan::FudjJoin {
                join_name,
                params,
                self_join,
                ..
            } => {
                assert_eq!(join_name, "jaccard_similarity");
                assert_eq!(params, vec![Value::Float64(0.5)]);
                assert!(self_join, "same dataset both sides, symmetric join");
            }
            other => panic!("expected FudjJoin, got {other:?}"),
        }
    }

    #[test]
    fn swapped_key_sides_are_normalized() {
        let reg = registry();
        // st_contains(w-side key first? no — keys given right-then-left).
        let plan = LogicalPlan::scan(parks(), "p").join(
            LogicalPlan::scan(fires(), "w"),
            Expr::call(
                "st_contains",
                vec![Expr::col("w.location"), Expr::col("p.boundary")],
            ),
        );
        match optimize(plan, &reg, &PlanOptions::default()).unwrap() {
            LogicalPlan::FudjJoin {
                left_key,
                right_key,
                ..
            } => {
                assert_eq!(left_key, Expr::col("p.boundary"));
                assert_eq!(right_key, Expr::col("w.location"));
            }
            other => panic!("expected FudjJoin, got {other:?}"),
        }
    }

    #[test]
    fn unregistered_function_falls_back_to_nlj() {
        let reg = JoinRegistry::new(); // nothing registered
        let plan = optimize(query1_logical(), &reg, &PlanOptions::default()).unwrap();
        assert!(matches!(plan, LogicalPlan::Join { .. }));
    }

    #[test]
    fn extra_params_are_appended() {
        let options = PlanOptions {
            extra_join_params: vec![Value::Int64(1200)],
            ..Default::default()
        };
        match optimize(query1_logical(), &registry(), &options).unwrap() {
            LogicalPlan::FudjJoin { params, .. } => {
                assert_eq!(params, vec![Value::Int64(1200)]);
            }
            other => panic!("expected FudjJoin, got {other:?}"),
        }
    }

    #[test]
    fn filter_above_join_is_merged_then_pushed() {
        let plan = LogicalPlan::Filter {
            input: Box::new(LogicalPlan::scan(parks(), "p").join(
                LogicalPlan::scan(fires(), "w"),
                Expr::call(
                    "st_contains",
                    vec![Expr::col("p.boundary"), Expr::col("w.location")],
                ),
            )),
            predicate: Expr::binary(
                crate::expr::BinOp::GtEq,
                Expr::col("w.fire_start"),
                Expr::lit(42i64),
            ),
        };
        match optimize(plan, &registry(), &PlanOptions::default()).unwrap() {
            LogicalPlan::FudjJoin { right, .. } => {
                assert!(matches!(*right, LogicalPlan::Filter { .. }));
            }
            other => panic!("expected FudjJoin, got {other:?}"),
        }
    }

    /// `FROM p, w WHERE …` as the binder builds it: the scans joined on a
    /// literal TRUE, the WHERE clause as a filter on top.
    fn comma_join(parks: Arc<Dataset>, fires: Arc<Dataset>, predicate: Expr) -> LogicalPlan {
        LogicalPlan::scan(parks, "p")
            .join(LogicalPlan::scan(fires, "w"), Expr::lit(true))
            .filter(predicate)
    }

    fn st_contains() -> Expr {
        Expr::call(
            "st_contains",
            vec![Expr::col("p.boundary"), Expr::col("w.location")],
        )
    }

    fn fires_after(ms: i64) -> Expr {
        Expr::binary(
            crate::expr::BinOp::GtEq,
            Expr::col("w.fire_start"),
            Expr::lit(Value::DateTime(ms)),
        )
    }

    fn ids_differ() -> Expr {
        Expr::binary(
            crate::expr::BinOp::NotEq,
            Expr::col("p.id"),
            Expr::col("w.id"),
        )
    }

    #[test]
    fn comma_join_true_conjunct_leaves_no_residual() {
        let plan = comma_join(parks(), fires(), st_contains().and(fires_after(42)));
        match optimize(plan, &registry(), &PlanOptions::default()).unwrap() {
            LogicalPlan::FudjJoin {
                left,
                right,
                residual,
                ..
            } => {
                assert_eq!(residual, None);
                assert!(matches!(*left, LogicalPlan::Scan { .. }));
                assert!(matches!(*right, LogicalPlan::Filter { .. }));
            }
            other => panic!("expected FudjJoin, got {other:?}"),
        }
    }

    #[test]
    fn comma_join_cross_side_conjunct_stays_the_residual() {
        let plan = comma_join(
            parks(),
            fires(),
            st_contains().and(fires_after(42)).and(ids_differ()),
        );
        match optimize(plan, &registry(), &PlanOptions::default()).unwrap() {
            LogicalPlan::FudjJoin { residual, .. } => {
                assert_eq!(residual, Some(ids_differ()));
            }
            other => panic!("expected FudjJoin, got {other:?}"),
        }
    }

    /// Dropping the TRUE conjunct changes no answer: with and without a
    /// real residual, the lowered FUDJ plan returns the on-top plan's rows.
    #[test]
    fn comma_join_plans_return_the_on_top_rows() {
        use fudj_datagen::GeneratorConfig;
        let parks = Arc::new(fudj_datagen::parks(GeneratorConfig::new(80, 5, 2)).unwrap());
        let fires = Arc::new(fudj_datagen::wildfires(GeneratorConfig::new(200, 6, 2)).unwrap());
        let jan22 = fudj_datagen::datasets::JAN_2022_MS;
        let cluster = fudj_exec::Cluster::new(2);
        let run = |predicate: Expr, on_top: bool| {
            let options = PlanOptions {
                force_on_top: on_top,
                ..Default::default()
            };
            let logical = comma_join(parks.clone(), fires.clone(), predicate);
            let physical = crate::plan(logical, &registry(), &options).unwrap();
            let mut rows = cluster.execute(&physical).unwrap().0.rows().to_vec();
            rows.sort();
            rows
        };
        for predicate in [
            st_contains().and(fires_after(jan22)),
            st_contains().and(fires_after(jan22)).and(ids_differ()),
        ] {
            let fudj = run(predicate.clone(), false);
            assert!(!fudj.is_empty(), "{predicate}");
            assert_eq!(fudj, run(predicate.clone(), true), "{predicate}");
        }
    }

    #[test]
    fn non_literal_parameter_is_an_error() {
        let reg = registry();
        let plan = LogicalPlan::scan(parks(), "a").join(
            LogicalPlan::scan(parks(), "b"),
            Expr::call(
                "jaccard_similarity",
                vec![Expr::col("a.tags"), Expr::col("b.tags"), Expr::col("a.id")],
            ),
        );
        assert!(optimize(plan, &reg, &PlanOptions::default()).is_err());
    }
}
