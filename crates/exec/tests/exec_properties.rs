//! Property tests: every relational operator, executed on a multi-worker
//! cluster, agrees with a straightforward sequential oracle — and the
//! exchange primitives keep their contracts when the fault plan drops or
//! duplicates partition deliveries (recovery is supposed to be invisible
//! at the result level).

use fudj_core::{FudjEngineJoin, GuardConfig, GuardedJoin, JoinAlgorithm, UdfPolicy};
use fudj_exec::exchange::{gather, rebalance, route_hash, shuffle_by};
use fudj_exec::{
    columnar, AggFunc, Aggregate, BinOp, BoundExpr, Cluster, CmpOp, ColumnCompare, ExecMode,
    FaultConfig, FudjJoinNode, PhysicalPlan, QueryMetrics, SortKey, WorkerPool,
};
use fudj_joins::evil::{EqualityFudj, EvilJoin, EvilMode, EvilPhase};
use fudj_joins::poisoned;
use fudj_storage::DatasetBuilder;
use fudj_types::{DataType, ExtValue, Field, FudjError, Row, Schema, Value};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;

fn dataset(rows: &[(i64, i64, i64)], partitions: usize) -> Arc<fudj_storage::Dataset> {
    let schema = Schema::shared(vec![
        Field::new("id", DataType::Int64),
        Field::new("grp", DataType::Int64),
        Field::new("v", DataType::Int64),
    ]);
    let d = DatasetBuilder::new("t", schema)
        .partitions(partitions)
        .build()
        .unwrap();
    for &(id, grp, v) in rows {
        d.insert(Row::new(vec![
            Value::Int64(id),
            Value::Int64(grp),
            Value::Int64(v),
        ]))
        .unwrap();
    }
    Arc::new(d)
}

fn binary(op: BinOp, left: BoundExpr, right: BoundExpr) -> BoundExpr {
    BoundExpr::Binary {
        op,
        left: Box::new(left),
        right: Box::new(right),
    }
}

fn arb_rows() -> impl Strategy<Value = Vec<(i64, i64, i64)>> {
    prop::collection::vec((0i64..1000, 0i64..7, -100i64..100), 0..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Filter keeps exactly the rows the predicate accepts, on any cluster.
    #[test]
    fn filter_matches_oracle(rows in arb_rows(), threshold in -100i64..100, workers in 1usize..5) {
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan { dataset: dataset(&rows, 3) }),
            predicate: binary(BinOp::LtEq, BoundExpr::Literal(Value::Int64(threshold)), BoundExpr::Column(2)),
        };
        let (batch, _) = Cluster::new(workers).execute(&plan).unwrap();
        let expected = rows.iter().filter(|r| r.2 >= threshold).count();
        prop_assert_eq!(batch.len(), expected);
    }

    /// Two-step grouped aggregation equals a sequential group-by.
    #[test]
    fn aggregate_matches_oracle(rows in arb_rows(), workers in 1usize..5) {
        let plan = PhysicalPlan::hash_aggregate(
            PhysicalPlan::Scan { dataset: dataset(&rows, 4) },
            vec![1],
            vec![
                Aggregate::count_star("c"),
                Aggregate::on(AggFunc::Sum, 2, "s"),
                Aggregate::on(AggFunc::Min, 2, "mn"),
                Aggregate::on(AggFunc::Max, 2, "mx"),
                Aggregate::on(AggFunc::Avg, 2, "a"),
            ],
        );
        let (batch, _) = Cluster::new(workers).execute(&plan).unwrap();

        let mut oracle: HashMap<i64, (i64, i64, i64, i64)> = HashMap::new();
        for &(_, g, v) in &rows {
            let e = oracle.entry(g).or_insert((0, 0, i64::MAX, i64::MIN));
            e.0 += 1;
            e.1 += v;
            e.2 = e.2.min(v);
            e.3 = e.3.max(v);
        }
        prop_assert_eq!(batch.len(), oracle.len());
        for row in batch.rows() {
            let g = row.get(0).as_i64().unwrap();
            let (c, s, mn, mx) = oracle[&g];
            prop_assert_eq!(row.get(1), &Value::Int64(c));
            prop_assert_eq!(row.get(2), &Value::Int64(s));
            prop_assert_eq!(row.get(3), &Value::Int64(mn));
            prop_assert_eq!(row.get(4), &Value::Int64(mx));
            prop_assert_eq!(row.get(5), &Value::Float64(s as f64 / c as f64));
        }
    }

    /// Sort produces a totally ordered result regardless of partitioning.
    #[test]
    fn sort_matches_oracle(rows in arb_rows(), workers in 1usize..5, desc in any::<bool>()) {
        let plan = PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::Scan { dataset: dataset(&rows, 5) }),
            keys: vec![SortKey { column: 2, descending: desc }],
        };
        let (batch, _) = Cluster::new(workers).execute(&plan).unwrap();
        let got: Vec<i64> = batch.rows().iter().map(|r| r.get(2).as_i64().unwrap()).collect();
        let mut expected: Vec<i64> = rows.iter().map(|r| r.2).collect();
        expected.sort_unstable();
        if desc {
            expected.reverse();
        }
        prop_assert_eq!(got, expected);
    }

    /// Limit truncates after a sort deterministically.
    #[test]
    fn limit_truncates(rows in arb_rows(), n in 0usize..20, workers in 1usize..4) {
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::Sort {
                input: Box::new(PhysicalPlan::Scan { dataset: dataset(&rows, 2) }),
                keys: vec![SortKey::asc(0)],
            }),
            limit: n,
        };
        let (batch, _) = Cluster::new(workers).execute(&plan).unwrap();
        prop_assert_eq!(batch.len(), rows.len().min(n));
    }

    /// NLJ equi-predicate equals the brute-force count, and broadcast
    /// metrics reflect the right side.
    #[test]
    fn nl_join_matches_oracle(
        l in prop::collection::vec((0i64..400, 0i64..5, 0i64..10), 0..25),
        r in prop::collection::vec((0i64..400, 0i64..5, 0i64..10), 0..25),
        workers in 1usize..4,
    ) {
        let plan = PhysicalPlan::NlJoin {
            left: Box::new(PhysicalPlan::Scan { dataset: dataset(&l, 2) }),
            right: Box::new(PhysicalPlan::Scan { dataset: dataset(&r, 2) }),
            predicate: binary(BinOp::Eq, BoundExpr::Column(1), BoundExpr::Column(4)),
        };
        let (batch, _) = Cluster::new(workers).execute(&plan).unwrap();
        let expected: usize = l
            .iter()
            .map(|a| r.iter().filter(|b| a.1 == b.1).count())
            .sum();
        prop_assert_eq!(batch.len(), expected);
    }
}

// ---------------------------------------------------------------------------
// Guardrail properties.
//
// The guard layer must be invisible on well-behaved joins (same results,
// same deterministic execution counters) and must catch every injected
// violation with the right phase attribution on misbehaving ones.
// ---------------------------------------------------------------------------

/// `(id, k)` dataset of Long keys.
/// A cell or a literal of the filter property: the three typed variants
/// the kernel fast-paths (drawn from small domains, so equality and ties
/// actually occur) plus `Null`.
fn arb_filter_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-3i64..4).prop_map(Value::Int64),
        (-6i64..7).prop_map(|h| Value::Float64(h as f64 / 2.0)),
        prop::sample::select(vec!["", "a", "ab", "b"]).prop_map(Value::str),
        Just(Value::Null),
    ]
}

fn arb_compare() -> impl Strategy<Value = ColumnCompare> {
    let ops = vec![
        CmpOp::Eq,
        CmpOp::NotEq,
        CmpOp::Lt,
        CmpOp::LtEq,
        CmpOp::Gt,
        CmpOp::GtEq,
    ];
    (0usize..3, prop::sample::select(ops), arb_filter_value()).prop_map(|(column, op, literal)| {
        ColumnCompare {
            column,
            op,
            literal,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one filter kernel is its definition: over columns that mix
    /// `Int64` / `Float64` / `Str` / `Null` cell by cell, it keeps exactly
    /// the rows on which every `ColumnCompare::eval_row` holds, in input
    /// order.
    #[test]
    fn filter_rows_keeps_exactly_the_rows_every_compare_accepts(
        cells in prop::collection::vec(prop::collection::vec(arb_filter_value(), 3..4), 0..40),
        compares in prop::collection::vec(arb_compare(), 0..5),
    ) {
        let rows: Vec<Row> = cells.into_iter().map(Row::new).collect();
        let expected: Vec<Row> = rows
            .iter()
            .filter(|r| compares.iter().all(|c| c.eval_row(r)))
            .cloned()
            .collect();
        let got = columnar::filter_rows(rows, &compares, ExecMode::default());
        prop_assert_eq!(got, expected);
    }
}

fn long_keys_dataset(keys: &[i64], partitions: usize) -> Arc<fudj_storage::Dataset> {
    let schema = Schema::shared(vec![
        Field::new("id", DataType::Int64),
        Field::new("k", DataType::Int64),
    ]);
    let d = DatasetBuilder::new("t", schema)
        .partitions(partitions)
        .build()
        .unwrap();
    for (i, &k) in keys.iter().enumerate() {
        d.insert(Row::new(vec![Value::Int64(i as i64), Value::Int64(k)]))
            .unwrap();
    }
    Arc::new(d)
}

fn equality_join_plan(left: &[i64], right: &[i64], alg: Arc<dyn JoinAlgorithm>) -> PhysicalPlan {
    PhysicalPlan::FudjJoin(FudjJoinNode::new(
        PhysicalPlan::Scan {
            dataset: long_keys_dataset(left, 3),
        },
        PhysicalPlan::Scan {
            dataset: long_keys_dataset(right, 3),
        },
        Arc::new(FudjEngineJoin::new(alg)),
        1,
        1,
        vec![],
    ))
}

fn sorted_id_pairs(batch: &fudj_types::Batch) -> Vec<(i64, i64)> {
    let mut pairs: Vec<(i64, i64)> = batch
        .rows()
        .iter()
        .map(|r| (r.get(0).as_i64().unwrap(), r.get(2).as_i64().unwrap()))
        .collect();
    pairs.sort_unstable();
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On a well-behaved join, the guard is invisible: identical result
    /// pairs and identical deterministic execution counters.
    #[test]
    fn guarded_run_equals_unguarded_run_when_udfs_behave(
        left in prop::collection::vec(0i64..60, 1..50),
        right in prop::collection::vec(0i64..60, 1..50),
        workers in 2usize..5,
    ) {
        let unguarded: Arc<dyn JoinAlgorithm> = Arc::new(EqualityFudj);
        let guarded: Arc<dyn JoinAlgorithm> = Arc::new(GuardedJoin::new(
            Arc::new(EqualityFudj) as Arc<dyn JoinAlgorithm>,
            GuardConfig::default(),
        ));

        let (b1, m1) = Cluster::new(workers)
            .execute(&equality_join_plan(&left, &right, unguarded))
            .unwrap();
        let (b2, m2) = Cluster::new(workers)
            .execute(&equality_join_plan(&left, &right, guarded))
            .unwrap();

        prop_assert_eq!(sorted_id_pairs(&b1), sorted_id_pairs(&b2));
        let (s1, s2) = (m1.snapshot(), m2.snapshot());
        prop_assert_eq!(s1.rows_shuffled, s2.rows_shuffled);
        prop_assert_eq!(s1.bytes_shuffled, s2.bytes_shuffled);
        prop_assert_eq!(s1.rows_broadcast, s2.rows_broadcast);
        prop_assert_eq!(s1.bytes_broadcast, s2.bytes_broadcast);
        prop_assert_eq!(s1.state_bytes, s2.state_bytes);
        prop_assert_eq!(s1.verify_calls, s2.verify_calls);
        prop_assert_eq!(s1.dedup_rejections, s2.dedup_rejections);
        prop_assert!(!s2.udf.any(), "clean run recorded violations: {:?}", s2.udf);
    }

    /// Whatever way the library misbehaves, FailFast always surfaces a
    /// structured violation attributed to the right phase — never a wrong
    /// answer, never a poisoned pool.
    #[test]
    fn injected_violations_are_always_caught_with_the_right_phase(
        left in prop::collection::vec(0i64..60, 1..40),
        right in prop::collection::vec(0i64..60, 1..40),
        workers in 2usize..5,
        mode_idx in 0usize..8,
    ) {
        let (mode, expect_phase) = [
            (EvilMode::PanicIn(EvilPhase::Summarize), "summarize"),
            (EvilMode::PanicIn(EvilPhase::Divide), "divide"),
            (EvilMode::PanicIn(EvilPhase::Assign), "assign"),
            (EvilMode::PanicIn(EvilPhase::Verify), "verify"),
            (EvilMode::HangIn(EvilPhase::Summarize, 60_000), "summarize"),
            (EvilMode::HangIn(EvilPhase::Assign, 60_000), "assign"),
            (EvilMode::OutOfRangeBucket, "assign"),
            (EvilMode::OverReplicate(64), "assign"),
        ][mode_idx];

        // Guarantee the poison set is hit on both sides, and (for the
        // verify mode) that a poisoned pair actually reaches `verify`.
        let poison = (0..1000)
            .find(|v| poisoned(&ExtValue::Long(*v)))
            .unwrap();
        let mut left = left;
        let mut right = right;
        left.push(poison);
        right.push(poison);

        let mut config = GuardConfig::default();
        config.limits.max_buckets_per_key = 16;
        let guarded: Arc<dyn JoinAlgorithm> = Arc::new(GuardedJoin::new(
            Arc::new(EvilJoin::new(Arc::new(EqualityFudj), mode)) as Arc<dyn JoinAlgorithm>,
            config,
        ));
        let result = Cluster::new(workers)
            .execute(&equality_join_plan(&left, &right, guarded));
        match result {
            Err(FudjError::UdfViolation { ref phase, .. }) => {
                prop_assert_eq!(phase, expect_phase, "{:?}", mode)
            }
            Err(other) => {
                prop_assert!(false, "{:?}: expected a UDF violation, got {}", mode, other)
            }
            Ok(_) => prop_assert!(false, "{:?}: misbehaving join produced a result", mode),
        }
    }

    /// Quarantine under a misbehaving assign drops exactly the poisoned
    /// keys — the surviving multiset is the clean equality join minus them.
    #[test]
    fn quarantine_surviving_results_match_the_oracle(
        left in prop::collection::vec(0i64..60, 1..50),
        right in prop::collection::vec(0i64..60, 1..50),
        workers in 2usize..5,
    ) {
        let guarded: Arc<dyn JoinAlgorithm> = Arc::new(GuardedJoin::new(
            Arc::new(EvilJoin::new(
                Arc::new(EqualityFudj),
                EvilMode::PanicIn(EvilPhase::Assign),
            )) as Arc<dyn JoinAlgorithm>,
            GuardConfig::with_policy(UdfPolicy::Quarantine),
        ));
        let (batch, _) = Cluster::new(workers)
            .execute(&equality_join_plan(&left, &right, guarded))
            .unwrap();
        let mut expected: Vec<(i64, i64)> = Vec::new();
        for (i, l) in left.iter().enumerate() {
            for (j, r) in right.iter().enumerate() {
                if l == r && !poisoned(&ExtValue::Long(*l)) {
                    expected.push((i as i64, j as i64));
                }
            }
        }
        expected.sort_unstable();
        prop_assert_eq!(sorted_id_pairs(&batch), expected);
    }
}

// ---------------------------------------------------------------------------
// Exchange contracts under delivery faults.
//
// A fault plan with aggressive drop/duplicate rates hits the exchanges'
// retransmission and sequence-dedup paths on nearly every run; the
// properties below assert those recovery paths preserve each exchange's
// contract exactly.
// ---------------------------------------------------------------------------

/// A delivery-heavy fault plan: no task faults, lots of lost and
/// duplicated partition deliveries. The retry budget is raised so that
/// even a 30% drop rate cannot plausibly exhaust it (0.3^17 ≈ 1e-9) —
/// proptest draws fresh seeds every run, so the properties must hold for
/// *all* seeds, not just lucky ones.
fn lossy(seed: u64) -> FaultConfig {
    let mut config = FaultConfig::quiet(seed);
    config.drop_prob = 0.3;
    config.duplicate_prob = 0.3;
    config.retry.max_retries = 16;
    config
}

fn int_rows(vals: &[i64]) -> Vec<Row> {
    vals.iter()
        .map(|&v| Row::new(vec![Value::Int64(v)]))
        .collect()
}

/// Split `vals` into `parts` round-robin partitions of single-int rows.
fn partitioned(vals: &[i64], parts: usize) -> Vec<Vec<Row>> {
    let mut out = vec![Vec::new(); parts];
    for (j, &v) in vals.iter().enumerate() {
        out[j % parts].push(Row::new(vec![Value::Int64(v)]));
    }
    out
}

fn sorted_multiset(parts: Vec<Vec<Row>>) -> Vec<Row> {
    let mut all: Vec<Row> = parts.into_iter().flatten().collect();
    all.sort();
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Under dropped and duplicated deliveries, `shuffle_by` still
    /// delivers exactly the input multiset, with every row on the worker
    /// its routing hash names.
    #[test]
    fn shuffle_recovers_multiset_and_routing_under_delivery_faults(
        vals in prop::collection::vec(-1000i64..1000, 0..80),
        workers in 2usize..6,
        seed in 0u64..1_000_000,
    ) {
        let pool = WorkerPool::new(workers);
        let m = QueryMetrics::with_config(None, Some(lossy(seed)));
        let out = shuffle_by(partitioned(&vals, workers), &pool, &m, |row| {
            (route_hash(row.get(0)) as usize) % workers
        }).unwrap();
        for (w, part) in out.iter().enumerate() {
            for row in part {
                prop_assert_eq!((route_hash(row.get(0)) as usize) % workers, w);
            }
        }
        let mut expected = int_rows(&vals);
        expected.sort();
        prop_assert_eq!(sorted_multiset(out), expected);
        // Recovery bookkeeping: every drop was either retransmitted or
        // escalated (and none escalated here), and every duplicated
        // delivery had exactly its extra copy discarded by the receiver.
        let f = m.snapshot().fault;
        prop_assert_eq!(f.retry_exhaustions, 0);
        prop_assert_eq!(f.delivery_retries, f.dropped_deliveries);
        prop_assert_eq!(f.duplicates_discarded, f.duplicated_deliveries);
    }

    /// Rebalance levels partitions (max − min ≤ 1) even when deliveries
    /// drop or duplicate.
    #[test]
    fn rebalance_levels_under_delivery_faults(
        vals in prop::collection::vec(-1000i64..1000, 0..80),
        src_parts in 1usize..5,
        workers in 2usize..6,
        seed in 0u64..1_000_000,
    ) {
        let pool = WorkerPool::new(workers);
        let m = QueryMetrics::with_config(None, Some(lossy(seed)));
        let out = rebalance(partitioned(&vals, src_parts.min(workers)), &pool, &m).unwrap();
        let sizes: Vec<usize> = out.iter().map(Vec::len).collect();
        let (mx, mn) = (sizes.iter().max().unwrap(), sizes.iter().min().unwrap());
        prop_assert!(mx - mn <= 1, "sizes {:?}", sizes);
        let mut expected = int_rows(&vals);
        expected.sort();
        prop_assert_eq!(sorted_multiset(out), expected);
    }

    /// Gather collects the exact multiset on the coordinator under
    /// delivery faults.
    #[test]
    fn gather_recovers_multiset_under_delivery_faults(
        vals in prop::collection::vec(-1000i64..1000, 0..80),
        workers in 2usize..6,
        seed in 0u64..1_000_000,
    ) {
        let pool = WorkerPool::new(workers);
        let m = QueryMetrics::with_config(None, Some(lossy(seed)));
        let mut out = gather(partitioned(&vals, workers), &pool, &m).unwrap();
        out.sort();
        let mut expected = int_rows(&vals);
        expected.sort();
        prop_assert_eq!(out, expected);
    }

    /// Task-fault injection (panics, transients, worker loss, stragglers)
    /// is recovered transparently: a filter under heavy task chaos equals
    /// the sequential oracle.
    #[test]
    fn filter_matches_oracle_under_task_faults(
        rows in arb_rows(),
        threshold in -100i64..100,
        workers in 2usize..5,
        seed in 0u64..1_000_000,
    ) {
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan { dataset: dataset(&rows, 3) }),
            predicate: binary(BinOp::GtEq, BoundExpr::Column(2), BoundExpr::Literal(Value::Int64(threshold))),
        };
        let mut cluster = Cluster::new(workers);
        cluster.set_faults(Some(FaultConfig::chaos(seed)));
        let (batch, _) = cluster.execute(&plan).unwrap();
        let expected = rows.iter().filter(|r| r.2 >= threshold).count();
        prop_assert_eq!(batch.len(), expected);
    }
}
