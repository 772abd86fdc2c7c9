//! End-to-end integration tests: the paper's queries, executed through the
//! full SQL → optimizer → distributed-engine stack, with the on-top NLJ
//! plan as the semantic oracle.

use fudj_repro::datagen::{amazon_reviews, nyctaxi, parks, weather, wildfires, GeneratorConfig};
use fudj_repro::exec::PhysicalPlan;
use fudj_repro::joins::standard_library;
use fudj_repro::planner::{plan, PlanOptions};
use fudj_repro::sql::ast::Statement;
use fudj_repro::sql::binder::bind_select;
use fudj_repro::sql::{parse, QueryOutput, Session};
use fudj_repro::types::Row;

/// Build a session with all five datasets and all paper joins registered.
fn session(workers: usize) -> Session {
    let s = Session::new(workers);
    s.register_dataset(parks(GeneratorConfig::new(400, 101, workers.max(2))).unwrap())
        .unwrap();
    s.register_dataset(wildfires(GeneratorConfig::new(900, 102, workers.max(2))).unwrap())
        .unwrap();
    s.register_dataset(nyctaxi(GeneratorConfig::new(400, 103, workers.max(2))).unwrap())
        .unwrap();
    s.register_dataset(amazon_reviews(GeneratorConfig::new(350, 104, workers.max(2))).unwrap())
        .unwrap();
    s.register_dataset(weather(GeneratorConfig::new(500, 105, workers.max(2))).unwrap())
        .unwrap();
    s.install_library(standard_library());
    for ddl in [
        r#"CREATE JOIN st_contains(a: polygon, b: point)
           RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins"#,
        r#"CREATE JOIN overlapping_interval(a: interval, b: interval)
           RETURNS boolean AS "interval.OverlappingIntervalJoin" AT flexiblejoins"#,
        r#"CREATE JOIN similarity_jaccard(a: string, b: string, t: double)
           RETURNS boolean AS "setsimilarity.SetSimilarityJoin" AT flexiblejoins"#,
        r#"CREATE JOIN jaccard_similarity(a: string, b: string, t: double)
           RETURNS boolean AS "setsimilarity.SetSimilarityJoinElimination" AT flexiblejoins"#,
        r#"CREATE JOIN st_intersects(a: polygon, b: polygon)
           RETURNS boolean AS "spatial.SpatialJoinRefPoint" AT flexiblejoins"#,
    ] {
        s.execute(ddl).unwrap();
    }
    s
}

fn sorted_rows(batch: &fudj_repro::types::Batch) -> Vec<Row> {
    let mut rows = batch.rows().to_vec();
    rows.sort();
    rows
}

/// Run `sql` under the FUDJ planner and the forced on-top planner; both must
/// return the same multiset of rows.
fn assert_fudj_equals_ontop(sql: &str, workers: usize) -> usize {
    let fudj_session = session(workers);
    let fudj = fudj_session.query(sql).unwrap();

    let mut ontop_session = session(workers);
    ontop_session.set_options(PlanOptions {
        force_on_top: true,
        ..Default::default()
    });
    let ontop = ontop_session.query(sql).unwrap();

    assert_eq!(sorted_rows(&fudj), sorted_rows(&ontop), "{sql}");
    fudj.len()
}

#[test]
fn paper_query1_spatial_aggregation() {
    let n = assert_fudj_equals_ontop(
        "SELECT p.id, p.tags, COUNT(w.id) AS num_fires \
         FROM Parks p, Wildfires w \
         WHERE ST_Contains(p.boundary, w.location) \
           AND w.fire_start >= parse_date('01/01/2022', 'M/D/Y') \
         GROUP BY p.id, p.tags",
        3,
    );
    assert!(n > 0, "spatial query must produce groups");
}

#[test]
fn paper_query2_text_similarity_with_elimination_dedup() {
    // jaccard_similarity is registered with the *elimination* dedup class;
    // the answer must still match on-top exactly.
    let n = assert_fudj_equals_ontop(
        "SELECT a.id, b.id AS other_id \
         FROM Parks a, Parks b \
         WHERE a.id <> b.id AND jaccard_similarity(a.tags, b.tags) >= 0.8",
        3,
    );
    assert!(n > 0, "similar park pairs exist");
}

#[test]
fn paper_query5_interval_vendor_split() {
    let n = assert_fudj_equals_ontop(
        "SELECT COUNT(*) FROM NYCTaxi n1, NYCTaxi n2 \
         WHERE n1.Vendor = 1 AND n2.Vendor = 2 \
           AND overlapping_interval(n1.ride_interval, n2.ride_interval)",
        3,
    );
    assert_eq!(n, 1, "global count row");
}

#[test]
fn paper_query5_text_similarity_counts() {
    assert_fudj_equals_ontop(
        "SELECT COUNT(*) FROM AmazonReview r1, AmazonReview r2 \
         WHERE r1.overall = 5 AND r2.overall = 4 \
           AND similarity_jaccard(r1.review, r2.review) >= 0.9",
        3,
    );
}

#[test]
fn paper_query3_combined_spatial_and_interval() {
    let n = assert_fudj_equals_ontop(
        "SELECT f.id, COUNT(w.id) AS readings, AVG(w.temp) AS avg_temp \
         FROM Wildfires f, Parks p, Weather w \
         WHERE ST_Contains(p.boundary, f.location) \
           AND overlapping_interval(interval(f.fire_start, f.fire_end), w.reading_interval) \
           AND ST_Distance(f.location, w.location) < 5 \
         GROUP BY f.id",
        3,
    );
    assert!(n > 0, "combined query produces results");
}

#[test]
fn query3_plan_contains_both_fudjs() {
    let s = session(2);
    let QueryOutput::Plan(plan) = s
        .execute(
            "EXPLAIN SELECT COUNT(*) \
             FROM Wildfires f, Parks p, Weather w \
             WHERE ST_Contains(p.boundary, f.location) \
               AND overlapping_interval(interval(f.fire_start, f.fire_end), w.reading_interval)",
        )
        .unwrap()
    else {
        panic!("not a plan")
    };
    assert!(plan.contains("spatial_join"), "{plan}");
    assert!(plan.contains("interval_join"), "{plan}");
    assert!(plan.contains("theta-nlj"), "{plan}");
    assert!(plan.contains("match: hash"), "{plan}");
}

#[test]
fn results_stable_across_worker_counts() {
    let sql = "SELECT p.id, COUNT(w.id) AS n \
               FROM Parks p, Wildfires w \
               WHERE ST_Contains(p.boundary, w.location) GROUP BY p.id";
    let reference = sorted_rows(&session(1).query(sql).unwrap());
    assert!(!reference.is_empty());
    for workers in [2, 4, 8] {
        let got = sorted_rows(&session(workers).query(sql).unwrap());
        assert_eq!(got, reference, "workers={workers}");
    }
}

#[test]
fn self_join_with_reference_point_dedup() {
    // st_intersects is registered with the custom reference-point dedup.
    let n = assert_fudj_equals_ontop(
        "SELECT COUNT(*) FROM Parks a, Parks b \
         WHERE st_intersects(a.boundary, b.boundary)",
        3,
    );
    assert_eq!(n, 1);
    // And the optimizer marked it as summarize-once.
    let s = session(2);
    let QueryOutput::Plan(plan) = s
        .execute(
            "EXPLAIN SELECT COUNT(*) FROM Parks a, Parks b \
             WHERE st_intersects(a.boundary, b.boundary)",
        )
        .unwrap()
    else {
        panic!()
    };
    assert!(plan.contains("summarize once"), "{plan}");
}

#[test]
fn drop_join_reverts_to_on_top() {
    let s = session(2);
    let sql = "EXPLAIN SELECT COUNT(*) FROM Parks p, Wildfires w \
               WHERE ST_Contains(p.boundary, w.location)";
    let QueryOutput::Plan(before) = s.execute(sql).unwrap() else {
        panic!()
    };
    assert!(before.contains("FudjJoin"));

    s.execute("DROP JOIN st_contains").unwrap();
    let QueryOutput::Plan(after) = s.execute(sql).unwrap() else {
        panic!()
    };
    assert!(after.contains("NestedLoopJoin"), "{after}");
    assert!(!after.contains("FudjJoin"));
}

#[test]
fn join_parameters_flow_from_sql_and_options() {
    // Grid side passed as a SQL argument and as an options injection must
    // both work and agree with each other.
    let s1 = session(2);
    let via_sql = s1
        .query(
            "SELECT COUNT(*) FROM Parks p, Wildfires w \
             WHERE st_contains(p.boundary, w.location, 64)",
        )
        .unwrap();

    let mut s2 = session(2);
    s2.set_options(PlanOptions {
        extra_join_params: vec![fudj_repro::types::Value::Int64(64)],
        ..Default::default()
    });
    let via_options = s2
        .query(
            "SELECT COUNT(*) FROM Parks p, Wildfires w \
             WHERE st_contains(p.boundary, w.location)",
        )
        .unwrap();
    assert_eq!(via_sql.rows(), via_options.rows());
}

/// Three inputs that all have an `id` column, joined on top: the physical
/// join schema qualifies the repeated name until it is free (`id`,
/// `right.id`, `right.right.id`), so the plan builds, and the rows come back
/// under the names the query gave them.
#[test]
fn three_way_on_top_join_over_same_named_columns() {
    let sql = "SELECT * \
               FROM Wildfires f, Parks p, Weather w \
               WHERE ST_Contains(p.boundary, f.location) \
                 AND overlapping_interval(interval(f.fire_start, f.fire_end), w.reading_interval) \
                 AND ST_Distance(f.location, w.location) < 5";
    let mut on_top = session(2);
    on_top.set_options(PlanOptions {
        force_on_top: true,
        ..Default::default()
    });
    let batch = on_top.query(sql).unwrap();
    let names: Vec<&str> = batch
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    assert_eq!(
        names,
        [
            "f.id",
            "f.location",
            "f.fire_start",
            "f.fire_end",
            "p.id",
            "p.boundary",
            "p.tags",
            "w.id",
            "w.location",
            "w.reading_interval",
            "w.temp"
        ]
    );
    assert!(!batch.rows().is_empty(), "the fixture joins some rows");
    assert_eq!(
        sorted_rows(&batch),
        sorted_rows(&session(2).query(sql).unwrap())
    );

    // The physical join's own schema, which the projection above it does
    // not need to build.
    let Statement::Select(select) = parse(sql).unwrap() else {
        panic!("not a SELECT")
    };
    let logical = bind_select(&select, on_top.catalog()).unwrap();
    let options = on_top.effective_options();
    let physical = plan(logical, on_top.registry(), &options).unwrap();
    let join = top_nl_join(&physical);
    let schema = join.schema();
    let ids: Vec<&str> = schema
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .filter(|n| n.ends_with("id"))
        .collect();
    assert_eq!(
        ids,
        ["id", "right.id", "right.right.id"],
        "{}",
        join.explain()
    );
}

/// The topmost nested-loop join under `plan`'s single-input operators.
fn top_nl_join(plan: &PhysicalPlan) -> &PhysicalPlan {
    match plan {
        PhysicalPlan::NlJoin { .. } => plan,
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Limit { input, .. } => top_nl_join(input),
        other => panic!("no on-top join:\n{}", other.explain()),
    }
}

/// A FUDJ join whose right key is computed: `st_makepoint(s.x, s.y)` over
/// two double columns. Lowering appends that key with a `Project` on the
/// computed side only; the left key is read where it lies. FUDJ ≡ on-top
/// at 1 and 3 workers, in memory and at a budget that spills.
#[test]
fn computed_join_key_matches_on_top_in_memory_and_spilled() {
    use fudj_repro::storage::DatasetBuilder;
    use fudj_repro::types::{DataType, Field, Schema, Value};

    let sites = |workers: usize| {
        let fires = wildfires(GeneratorConfig::new(600, 102, workers.max(2))).unwrap();
        let d = DatasetBuilder::new(
            "Sites",
            Schema::shared(vec![
                Field::new("id", DataType::Int64),
                Field::new("x", DataType::Float64),
                Field::new("y", DataType::Float64),
            ]),
        )
        .partitions(workers.max(2))
        .build()
        .unwrap();
        let rows = fires.all_rows().into_iter().enumerate().map(|(i, r)| {
            let Value::Point(p) = r.get(1) else {
                panic!("wildfire location is a point")
            };
            Row::new(vec![
                Value::Int64(i as i64),
                Value::Float64(p.x),
                Value::Float64(p.y),
            ])
        });
        d.insert_all(rows).unwrap();
        d
    };
    let sql = "SELECT p.id, s.id AS site FROM Parks p, Sites s \
               WHERE ST_Contains(p.boundary, st_makepoint(s.x, s.y))";
    for workers in [1, 3] {
        for budget in [None, Some(8)] {
            let run = |force_on_top: bool| {
                let mut s = session(workers);
                s.register_dataset(sites(workers)).unwrap();
                s.set_options(PlanOptions {
                    force_on_top,
                    memory_budget_rows: budget,
                    ..Default::default()
                });
                let QueryOutput::Plan(explain) = s.execute(&format!("EXPLAIN {sql}")).unwrap()
                else {
                    panic!("EXPLAIN returns a plan")
                };
                let QueryOutput::Rows(batch, metrics) = s.execute(sql).unwrap() else {
                    panic!("SELECT returns rows")
                };
                (explain, sorted_rows(&batch), metrics.spilled_rows)
            };
            let (plan, fudj, spilled) = run(false);
            let (_, on_top, _) = run(true);
            let ctx = format!("{workers} workers, budget {budget:?}");
            assert!(!fudj.is_empty(), "{ctx}: parks contain sites");
            assert_eq!(fudj, on_top, "{ctx}");
            assert_eq!(
                spilled > 0,
                budget.is_some(),
                "{ctx}: spilled {spilled} rows"
            );
            assert_eq!(
                plan,
                "FudjJoin [spatial_join | match: hash | dedup: Avoidance | emit: [p.id, site]]\n  \
                   DataScan [Parks]\n  \
                   Project [#0, #1, #2, st_makepoint(#1, #2)]\n    \
                     DataScan [Sites]\n",
                "{ctx}"
            );
        }
    }
}
