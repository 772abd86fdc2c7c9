//! Property-based equivalence: for random workloads, worker counts, and
//! parameters, the distributed execution of every join strategy returns
//! exactly the pairs of (a) the sequential engine reference and (b) the
//! paper's standalone single-machine runner. This pins the three
//! implementations of the FUDJ semantics to one another.

use fudj_repro::core::{
    reference_execute,
    standalone::{run_standalone, run_standalone_with_stats},
    EngineJoin, FudjEngineJoin, ProxyJoin,
};
use fudj_repro::exec::{Cluster, FudjJoinNode, PhysicalPlan};
use fudj_repro::geo::{Point, Polygon, Rect};
use fudj_repro::joins::{BandJoin, IntervalFudj, SpatialDedup, SpatialFudj, TextSimilarityFudj};
use fudj_repro::storage::DatasetBuilder;
use fudj_repro::temporal::Interval;
use fudj_repro::types::{ext, DataType, ExtValue, Field, Row, Schema, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// Wrap keys in an (id, key) dataset split over `parts` partitions.
fn dataset(name: &str, keys: &[Value], parts: usize) -> Arc<fudj_repro::storage::Dataset> {
    let dt = keys
        .first()
        .map(Value::data_type)
        .unwrap_or(DataType::Int64);
    let schema = Schema::shared(vec![Field::new("id", DataType::Int64), Field::new("k", dt)]);
    let d = DatasetBuilder::new(name, schema)
        .partitions(parts)
        .build()
        .unwrap();
    for (i, k) in keys.iter().enumerate() {
        d.insert(Row::new(vec![Value::Int64(i as i64), k.clone()]))
            .unwrap();
    }
    Arc::new(d)
}

/// Distributed pairs of a join over two key sets.
fn run_distributed(
    join: Arc<dyn EngineJoin>,
    left: &[Value],
    right: &[Value],
    params: Vec<Value>,
    workers: usize,
) -> Vec<(i64, i64)> {
    run_distributed_budgeted(join, left, right, params, workers, None).0
}

/// [`run_distributed`] under a COMBINE memory budget; also the rows spilled.
fn run_distributed_budgeted(
    join: Arc<dyn EngineJoin>,
    left: &[Value],
    right: &[Value],
    params: Vec<Value>,
    workers: usize,
    memory_budget_rows: Option<usize>,
) -> (Vec<(i64, i64)>, u64) {
    let mut node = FudjJoinNode::new(
        PhysicalPlan::Scan {
            dataset: dataset("l", left, workers),
        },
        PhysicalPlan::Scan {
            dataset: dataset("r", right, workers),
        },
        join,
        1,
        1,
        params,
    );
    node.memory_budget_rows = memory_budget_rows;
    let (batch, metrics) = Cluster::new(workers)
        .execute(&PhysicalPlan::FudjJoin(node))
        .unwrap();
    let mut pairs: Vec<(i64, i64)> = batch
        .rows()
        .iter()
        .map(|r| (r.get(0).as_i64().unwrap(), r.get(2).as_i64().unwrap()))
        .collect();
    pairs.sort_unstable();
    (pairs, metrics.snapshot().spilled_rows)
}

/// Standalone-runner pairs (operates on external values).
fn run_via_standalone(
    alg: &dyn fudj_repro::core::JoinAlgorithm,
    left: &[Value],
    right: &[Value],
    params: &[Value],
) -> Vec<(i64, i64)> {
    let el: Vec<ExtValue> = left.iter().map(|v| ext::to_external(v).unwrap()).collect();
    let er: Vec<ExtValue> = right.iter().map(|v| ext::to_external(v).unwrap()).collect();
    let ep: Vec<ExtValue> = params
        .iter()
        .map(|v| ext::to_external(v).unwrap())
        .collect();
    run_standalone(alg, &el, &er, &ep)
        .unwrap()
        .into_iter()
        .map(|(i, j)| (i as i64, j as i64))
        .collect()
}

fn arb_point() -> impl Strategy<Value = Value> {
    (0.0..100.0f64, 0.0..100.0f64).prop_map(|(x, y)| Value::Point(Point::new(x, y)))
}

fn arb_poly() -> impl Strategy<Value = Value> {
    (0.0..90.0f64, 0.0..90.0f64, 0.5..12.0f64, 0.5..12.0f64)
        .prop_map(|(x, y, w, h)| Value::polygon(Polygon::from_rect(&Rect::new(x, y, x + w, y + h))))
}

fn arb_interval() -> impl Strategy<Value = Value> {
    (0i64..50_000, 0i64..3_000).prop_map(|(s, d)| Value::Interval(Interval::new(s, s + d)))
}

fn arb_text() -> impl Strategy<Value = Value> {
    prop::collection::vec(
        prop::sample::select(vec![
            "river", "peak", "camp", "view", "rock", "fern", "lake",
        ]),
        1..6,
    )
    .prop_map(|ws| Value::str(ws.join(" ")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn spatial_join_three_way_agreement(
        polys in prop::collection::vec(arb_poly(), 1..25),
        pts in prop::collection::vec(arb_point(), 1..40),
        n in 2i64..24,
        workers in 1usize..5,
        dedup in prop::sample::select(vec![
            SpatialDedup::FrameworkAvoidance,
            SpatialDedup::ReferencePoint,
            SpatialDedup::Elimination,
        ]),
    ) {
        let params = vec![Value::Int64(n)];
        let alg = Arc::new(ProxyJoin::new(SpatialFudj::with_dedup(dedup)));
        let ej: Arc<dyn EngineJoin> = Arc::new(FudjEngineJoin::new(alg.clone()));

        let distributed = run_distributed(ej.clone(), &polys, &pts, params.clone(), workers);
        let reference: Vec<(i64, i64)> = reference_execute(ej.as_ref(), &polys, &pts, &params)
            .unwrap().into_iter().map(|(i, j)| (i as i64, j as i64)).collect();
        let standalone = run_via_standalone(alg.as_ref(), &polys, &pts, &params);

        prop_assert_eq!(&distributed, &reference);
        prop_assert_eq!(&distributed, &standalone);
    }

    #[test]
    fn interval_join_three_way_agreement(
        l in prop::collection::vec(arb_interval(), 1..30),
        r in prop::collection::vec(arb_interval(), 1..30),
        n in 1i64..200,
        workers in 1usize..5,
    ) {
        let params = vec![Value::Int64(n)];
        let alg = Arc::new(ProxyJoin::new(IntervalFudj::new()));
        let ej: Arc<dyn EngineJoin> = Arc::new(FudjEngineJoin::new(alg.clone()));

        let distributed = run_distributed(ej.clone(), &l, &r, params.clone(), workers);
        let standalone = run_via_standalone(alg.as_ref(), &l, &r, &params);
        prop_assert_eq!(&distributed, &standalone);

        // Ground truth: brute-force interval overlap.
        let mut truth = Vec::new();
        for (i, a) in l.iter().enumerate() {
            for (j, b) in r.iter().enumerate() {
                if a.as_interval().unwrap().overlaps(&b.as_interval().unwrap()) {
                    truth.push((i as i64, j as i64));
                }
            }
        }
        prop_assert_eq!(&distributed, &truth);
    }

    #[test]
    fn text_join_three_way_agreement(
        l in prop::collection::vec(arb_text(), 1..20),
        r in prop::collection::vec(arb_text(), 1..20),
        t in 0.4f64..0.95,
        workers in 1usize..4,
    ) {
        let params = vec![Value::Float64(t)];
        let alg = Arc::new(ProxyJoin::new(TextSimilarityFudj::new()));
        let ej: Arc<dyn EngineJoin> = Arc::new(FudjEngineJoin::new(alg.clone()));

        let distributed = run_distributed(ej.clone(), &l, &r, params.clone(), workers);
        let standalone = run_via_standalone(alg.as_ref(), &l, &r, &params);
        prop_assert_eq!(&distributed, &standalone);
    }

    #[test]
    fn band_join_three_way_agreement(
        l in prop::collection::vec((0.0..500.0f64).prop_map(Value::Float64), 1..30),
        r in prop::collection::vec((0.0..500.0f64).prop_map(Value::Float64), 1..30),
        eps in 0.5f64..30.0,
        workers in 1usize..4,
    ) {
        let params = vec![Value::Float64(eps)];
        let alg = Arc::new(ProxyJoin::new(BandJoin::new()));
        let ej: Arc<dyn EngineJoin> = Arc::new(FudjEngineJoin::new(alg.clone()));

        let distributed = run_distributed(ej.clone(), &l, &r, params.clone(), workers);
        let standalone = run_via_standalone(alg.as_ref(), &l, &r, &params);
        prop_assert_eq!(&distributed, &standalone);

        let mut truth = Vec::new();
        for (i, a) in l.iter().enumerate() {
            for (j, b) in r.iter().enumerate() {
                if (a.as_f64().unwrap() - b.as_f64().unwrap()).abs() <= eps {
                    truth.push((i as i64, j as i64));
                }
            }
        }
        prop_assert_eq!(&distributed, &truth);
    }
}

/// A theta join in which the one left bucket matches every right bucket:
/// COMBINE re-enters the per-block translation of the same left keys once
/// per matched bucket pair, while the standalone oracle verifies pair by
/// pair and never sees a block. The two must still agree.
#[test]
fn theta_join_with_several_matched_right_buckets_per_left_bucket() {
    let iv = |s: i64, e: i64| Value::Interval(Interval::new(s, e));
    let left = vec![iv(5, 995), iv(10, 990), iv(20, 980)];
    let right = vec![
        iv(50, 60),
        iv(55, 70),
        iv(450, 460),
        iv(455, 470),
        iv(930, 940),
        iv(985, 999),
    ];
    let params = vec![Value::Int64(10)];
    let alg = Arc::new(ProxyJoin::new(IntervalFudj::new()));

    let external = |keys: &[Value]| -> Vec<ExtValue> {
        keys.iter().map(|v| ext::to_external(v).unwrap()).collect()
    };
    let (oracle, stats) = run_standalone_with_stats(
        alg.as_ref(),
        &external(&left),
        &external(&right),
        &external(&params),
    )
    .unwrap();
    assert_eq!(stats.left_buckets, 1);
    assert!(stats.right_buckets >= 2, "{stats:?}");
    assert_eq!(stats.matched_bucket_pairs, stats.right_buckets);
    let oracle: Vec<(i64, i64)> = oracle
        .into_iter()
        .map(|(i, j)| (i as i64, j as i64))
        .collect();
    assert_eq!(oracle.len(), 17, "every pair but (20..980, 985..999)");

    for workers in [1, 3] {
        let adapter = Arc::new(FudjEngineJoin::new(alg.clone()));
        let distributed = run_distributed(adapter.clone(), &left, &right, params.clone(), workers);
        assert_eq!(distributed, oracle, "workers={workers}");
        if workers == 1 {
            // SUMMARIZE and PARTITION translate every key once each, DIVIDE
            // its one parameter, and COMBINE the left bucket again for every
            // right bucket it matched — not two keys per candidate pair.
            let keys = (left.len() + right.len()) as u64;
            let combine = (left.len() * stats.right_buckets + right.len()) as u64;
            assert_eq!(adapter.translation_count(), 2 * keys + 1 + combine);
        }
    }
}

/// A text join at a threshold low enough that similar records share several
/// prefix buckets: the same key enters COMBINE in more than one block, so
/// `prepare` is re-run on it per block and avoidance dedup keeps one of the
/// copies. The standalone oracle verifies pair by pair on raw texts and never
/// prepares. They must agree in memory and under a budget that spills.
#[test]
fn text_join_with_keys_in_several_shared_prefix_buckets() {
    const VOCAB: [&str; 44] = [
        "river", "trail", "lake", "peak", "camp", "view", "rock", "fern", "moss", "pine", "creek",
        "ridge", "marsh", "dune", "cove", "glen", "bluff", "ford", "grove", "heath", "knoll",
        "ledge", "mesa", "notch", "oasis", "pond", "quarry", "rapids", "scree", "tarn", "upland",
        "vale", "weir", "yard", "zenith", "arch", "basin", "cliff", "delta", "eddy", "fjord",
        "gorge", "haven", "isle",
    ];
    // Groups of three variants: nine words of the group's window plus one of
    // the variant's own. Same group: Jaccard 9/11; neighbouring groups: 4/16.
    let texts = |variants: std::ops::Range<usize>| -> Vec<Value> {
        (0..8)
            .flat_map(|group| variants.clone().map(move |v| (group, v)))
            .map(|(group, v)| {
                let mut words: Vec<&str> = (0..9).map(|k| VOCAB[(group * 5 + k) % 40]).collect();
                words.push(VOCAB[40 + v]);
                Value::str(words.join(" "))
            })
            .collect()
    };
    let (left, right) = (texts(0..3), texts(1..4));
    let params = vec![Value::Float64(0.5)];
    let alg = Arc::new(ProxyJoin::new(TextSimilarityFudj::new()));

    let external = |keys: &[Value]| -> Vec<ExtValue> {
        keys.iter().map(|v| ext::to_external(v).unwrap()).collect()
    };
    let (oracle, stats) = run_standalone_with_stats(
        alg.as_ref(),
        &external(&left),
        &external(&right),
        &external(&params),
    )
    .unwrap();
    assert!(
        stats.left_assignments >= 2 * left.len(),
        "multi-assign: {stats:?}"
    );
    assert!(
        stats.deduped_pairs >= oracle.len(),
        "every result pair met in at least two shared buckets: {stats:?}"
    );
    let oracle: Vec<(i64, i64)> = oracle
        .into_iter()
        .map(|(i, j)| (i as i64, j as i64))
        .collect();
    assert_eq!(oracle.len(), 8 * 3 * 3, "each group joins itself only");

    for workers in [1, 3] {
        for budget in [None, Some(6)] {
            let adapter: Arc<dyn EngineJoin> = Arc::new(FudjEngineJoin::new(alg.clone()));
            let (distributed, spilled) =
                run_distributed_budgeted(adapter, &left, &right, params.clone(), workers, budget);
            assert_eq!(distributed, oracle, "workers={workers} budget={budget:?}");
            assert_eq!(spilled > 0, budget.is_some(), "workers={workers}");
        }
    }
}
