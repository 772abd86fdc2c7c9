//! Query-shape regression tests: the exact SQL constructs the paper's
//! queries rely on, checked end-to-end against hand-computed semantics.

use fudj_repro::datagen::{amazon_reviews, nyctaxi, parks, wildfires, GeneratorConfig};
use fudj_repro::joins::standard_library;
use fudj_repro::sql::{QueryOutput, Session};
use fudj_repro::textutil::{jaccard_similarity_texts, token_set};
use fudj_repro::types::Value;

fn session() -> Session {
    let s = Session::new(2);
    s.register_dataset(parks(GeneratorConfig::new(250, 301, 2)).unwrap())
        .unwrap();
    s.install_library(standard_library());
    s.execute(
        r#"CREATE JOIN jaccard_similarity(a: string, b: string, t: double)
           RETURNS boolean AS "setsimilarity.SetSimilarityJoin" AT flexiblejoins"#,
    )
    .unwrap();
    s
}

fn explain(s: &Session, sql: &str) -> String {
    let QueryOutput::Plan(plan) = s.execute(&format!("EXPLAIN {sql}")).unwrap() else {
        panic!("EXPLAIN returns a plan")
    };
    plan
}

/// Query 2's `dp.park_id <> p.id` conjunct must survive as a residual filter
/// above the FUDJ join, and the threshold comparison must bind as the
/// join's parameter.
#[test]
fn query2_residual_filter_and_threshold() {
    let s = session();
    let sql = "SELECT a.id, b.id AS other_id \
               FROM Parks a, Parks b \
               WHERE a.id <> b.id AND jaccard_similarity(a.tags, b.tags) >= 0.8 \
               ORDER BY a.id";
    assert_eq!(
        explain(&s, sql),
        "Sort [#0]\n  \
           Project [#0, #3]\n    \
             Filter [#0 <> #3]\n      \
               FudjJoin [text_similarity_join | match: hash | dedup: Avoidance | \
                 self-join: summarize once | \
                 emit: [a.id, a.boundary, a.tags, b.id, b.boundary, b.tags]]\n        \
                 DataScan [Parks]\n        \
                 DataScan [Parks]\n"
    );

    let batch = s.query(sql).unwrap();
    assert!(!batch.is_empty());
    // Semantics: no self-pairs, every pair really ≥ 0.8, symmetric closure.
    let parks_ds = s.catalog().get("Parks").unwrap();
    let tags_of = |id: &Value| -> String {
        parks_ds
            .all_rows()
            .iter()
            .find(|r| r.get(0) == id)
            .map(|r| r.get(2).as_str().unwrap().to_owned())
            .unwrap()
    };
    for row in batch.rows() {
        assert_ne!(row.get(0), row.get(1), "self pair leaked through <>");
        let sim = jaccard_similarity_texts(&tags_of(row.get(0)), &tags_of(row.get(1)));
        assert!(sim >= 0.8, "pair below threshold: {sim}");
    }
    // ORDER BY a.id holds.
    let ids: Vec<&Value> = batch.rows().iter().map(|r| r.get(0)).collect();
    assert!(ids.windows(2).all(|w| w[0] <= w[1]));
}

/// Every qualifying pair is present (completeness against a brute-force
/// scan of the same dataset).
#[test]
fn query2_completeness() {
    let s = session();
    let batch = s
        .query(
            "SELECT a.id, b.id AS other_id FROM Parks a, Parks b \
             WHERE a.id <> b.id AND jaccard_similarity(a.tags, b.tags) >= 0.8",
        )
        .unwrap();
    let rows = s.catalog().get("Parks").unwrap().all_rows();
    let mut expected = 0usize;
    for x in &rows {
        for y in &rows {
            if x.get(0) != y.get(0) {
                let a = token_set(x.get(2).as_str().unwrap());
                let b = token_set(y.get(2).as_str().unwrap());
                if !a.is_empty() && fudj_repro::textutil::jaccard_of_sorted(&a, &b) >= 0.8 {
                    expected += 1;
                }
            }
        }
    }
    assert_eq!(batch.len(), expected);
    assert!(expected > 0, "fixture must have similar parks");
}

/// Aggregates over expressions and unaliased group keys.
#[test]
fn aggregate_over_expression() {
    let s = session();
    let batch = s
        .query(
            "SELECT COUNT(*) AS n, MIN(p.id) AS first_id, MAX(p.id) AS last_id \
             FROM Parks p",
        )
        .unwrap();
    assert_eq!(batch.len(), 1);
    let row = &batch.rows()[0];
    assert_eq!(row.get(0), &Value::Int64(250));
    assert!(row.get(1) <= row.get(2));
}

/// Multi-line statements, comments, and trailing semicolons all parse.
#[test]
fn sql_formatting_robustness() {
    let s = session();
    let batch = s
        .query(
            "SELECT p.id -- choose the key\n\
             FROM Parks p /* the dataset */\n\
             LIMIT 5 ;",
        )
        .unwrap();
    assert_eq!(batch.len(), 5);
}

/// EXPLAIN ANALYZE over the text self-join reports the dedup-relevant
/// counters.
#[test]
fn explain_analyze_text_join() {
    let s = session();
    let QueryOutput::Plan(text) = s
        .execute(
            "EXPLAIN ANALYZE SELECT COUNT(*) FROM Parks a, Parks b \
             WHERE jaccard_similarity(a.tags, b.tags) >= 0.9",
        )
        .unwrap()
    else {
        panic!()
    };
    assert!(text.contains("phase join:"), "{text}");
    assert!(text.contains("dedup rejections:"), "{text}");
}

/// The benchmark's three join workloads (`fudjbench/src/joins.rs`), planned
/// in full: every predicate and projection prints, and each join key is a
/// bare column read where it lies, with no appended `__fudj_key_*` column.
#[test]
fn join_workload_plans_print_every_expression() {
    let s = Session::new(2);
    s.register_dataset(parks(GeneratorConfig::new(50, 1, 2)).unwrap())
        .unwrap();
    s.register_dataset(wildfires(GeneratorConfig::new(90, 2, 2)).unwrap())
        .unwrap();
    s.register_dataset(nyctaxi(GeneratorConfig::new(50, 3, 2)).unwrap())
        .unwrap();
    s.register_dataset(amazon_reviews(GeneratorConfig::new(50, 4, 2)).unwrap())
        .unwrap();
    s.install_library(standard_library());
    for ddl in [
        r#"CREATE JOIN st_contains(a: polygon, b: point)
           RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins"#,
        r#"CREATE JOIN overlapping_interval(a: interval, b: interval)
           RETURNS boolean AS "interval.OverlappingIntervalJoin" AT flexiblejoins"#,
        r#"CREATE JOIN similarity_jaccard(a: string, b: string, t: double)
           RETURNS boolean AS "setsimilarity.SetSimilarityJoin" AT flexiblejoins"#,
    ] {
        s.execute(ddl).unwrap();
    }
    let spatial = "SELECT p.id, COUNT(*) AS c FROM Parks p, Wildfires w \
                   WHERE st_contains(p.boundary, w.location) GROUP BY p.id";
    let interval = "SELECT COUNT(*) FROM NYCTaxi n1, NYCTaxi n2 \
                    WHERE n1.Vendor = 1 AND n2.Vendor = 2 \
                      AND overlapping_interval(n1.ride_interval, n2.ride_interval)";
    let text = "SELECT COUNT(*) FROM AmazonReview r1, AmazonReview r2 \
                WHERE r1.overall = 5 AND r2.overall = 4 \
                  AND similarity_jaccard(r1.review, r2.review) >= 0.9";
    assert_eq!(
        explain(&s, spatial),
        "HashAggregate [group by [0]; [\"c\"]; step 1 in COMBINE]\n  \
           FudjJoin [spatial_join | match: hash | dedup: Avoidance | emit: [p.id]]\n    \
             DataScan [Parks]\n    \
             DataScan [Wildfires]\n"
    );
    assert_eq!(
        explain(&s, interval),
        "HashAggregate [group by []; [\"count\"]; step 1 in COMBINE]\n  \
           FudjJoin [interval_join | match: theta-nlj | dedup: None | emit: []]\n    \
             Filter [#1 = 1]\n      \
               DataScan [NYCTaxi]\n    \
             Filter [#1 = 2]\n      \
               DataScan [NYCTaxi]\n"
    );
    assert_eq!(
        explain(&s, text),
        "HashAggregate [group by []; [\"count\"]; step 1 in COMBINE]\n  \
           FudjJoin [text_similarity_join | match: hash | dedup: Avoidance | emit: []]\n    \
             Filter [#1 = 5]\n      \
               DataScan [AmazonReview]\n    \
             Filter [#1 = 4]\n      \
               DataScan [AmazonReview]\n"
    );
}

/// Query 1's date bound is a call over literals: it folds to a datetime
/// literal when bound, so the filter below the join is the typed kernel's
/// `column >= literal` (`BoundExpr::compares`), not a date parse per row.
#[test]
fn query1_date_bound_folds_to_a_literal() {
    let s = Session::new(2);
    s.register_dataset(parks(GeneratorConfig::new(100, 1, 2)).unwrap())
        .unwrap();
    s.register_dataset(wildfires(GeneratorConfig::new(600, 2, 2)).unwrap())
        .unwrap();
    s.install_library(standard_library());
    s.execute(
        r#"CREATE JOIN st_contains(a: polygon, b: point)
           RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins"#,
    )
    .unwrap();
    let sql = "SELECT p.id, COUNT(w.id) AS num_fires FROM Parks p, Wildfires w \
               WHERE ST_Contains(p.boundary, w.location) \
                 AND w.fire_start >= parse_date('01/01/2022', 'M/D/Y') \
               GROUP BY p.id";
    assert_eq!(
        explain(&s, sql),
        "HashAggregate [group by [0]; [\"num_fires(#1)\"]; step 1 in COMBINE]\n  \
           FudjJoin [spatial_join | match: hash | dedup: Avoidance | emit: [p.id, __agg_in_0]]\n    \
             DataScan [Parks]\n    \
             Filter [#2 >= 2022-01-01 00:00:00]\n      \
               DataScan [Wildfires]\n"
    );
    assert!(!s.query(sql).unwrap().is_empty());
}
