//! Integration tests for the implemented §VIII future-work features:
//! auto-tuned bucket counts, the forward-scan advanced interval operator,
//! and memory-budget spilling — all driven through the SQL/session layer
//! to prove they compose with the optimizer.

use fudj_repro::datagen::{nyctaxi, parks, wildfires, GeneratorConfig};
use fudj_repro::joins::builtin::AdvancedIntervalJoin;
use fudj_repro::joins::standard_library;
use fudj_repro::planner::PlanOptions;
use fudj_repro::sql::Session;
use std::sync::Arc;

fn session(workers: usize) -> Session {
    let s = Session::new(workers);
    s.register_dataset(parks(GeneratorConfig::new(500, 201, workers)).unwrap())
        .unwrap();
    s.register_dataset(wildfires(GeneratorConfig::new(1_000, 202, workers)).unwrap())
        .unwrap();
    s.register_dataset(nyctaxi(GeneratorConfig::new(500, 203, workers)).unwrap())
        .unwrap();
    s.install_library(standard_library());
    s
}

const SPATIAL_SQL: &str = "SELECT p.id, COUNT(w.id) AS n \
                           FROM Parks p, Wildfires w \
                           WHERE st_contains(p.boundary, w.location) GROUP BY p.id";

const INTERVAL_SQL: &str = "SELECT COUNT(*) FROM NYCTaxi n1, NYCTaxi n2 \
                            WHERE n1.Vendor = 1 AND n2.Vendor = 2 \
                              AND overlapping_interval(n1.ride_interval, n2.ride_interval)";

fn sorted(batch: &fudj_repro::types::Batch) -> Vec<fudj_repro::types::Row> {
    let mut rows = batch.rows().to_vec();
    rows.sort();
    rows
}

#[test]
fn auto_tuned_spatial_join_matches_fixed_grid() {
    let s = session(3);
    s.execute(
        r#"CREATE JOIN st_contains(a: polygon, b: point)
           RETURNS boolean AS "spatial.SpatialJoinAuto" AT flexiblejoins"#,
    )
    .unwrap();
    let auto = s.query(SPATIAL_SQL).unwrap();

    let s2 = session(3);
    s2.execute(
        r#"CREATE JOIN st_contains(a: polygon, b: point)
           RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins"#,
    )
    .unwrap();
    let fixed = s2.query(SPATIAL_SQL).unwrap();
    assert_eq!(sorted(&auto), sorted(&fixed));
    assert!(!auto.is_empty());
}

#[test]
fn auto_tuned_interval_join_matches_fixed_granules() {
    let s = session(3);
    s.execute(
        r#"CREATE JOIN overlapping_interval(a: interval, b: interval)
           RETURNS boolean AS "interval.OverlappingIntervalJoinAuto" AT flexiblejoins"#,
    )
    .unwrap();
    let auto = s.query(INTERVAL_SQL).unwrap();

    let s2 = session(3);
    s2.execute(
        r#"CREATE JOIN overlapping_interval(a: interval, b: interval)
           RETURNS boolean AS "interval.OverlappingIntervalJoin" AT flexiblejoins"#,
    )
    .unwrap();
    let fixed = s2.query(INTERVAL_SQL).unwrap();
    assert_eq!(auto.rows(), fixed.rows());
    assert!(auto.rows()[0].get(0).as_i64().unwrap() > 0);
}

#[test]
fn spilling_through_session_same_answers() {
    let mut s = session(2);
    s.execute(
        r#"CREATE JOIN st_contains(a: polygon, b: point)
           RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins"#,
    )
    .unwrap();
    let in_memory = s.query(SPATIAL_SQL).unwrap();

    s.set_options(PlanOptions {
        memory_budget_rows: Some(50),
        ..Default::default()
    });
    let out = s.execute(SPATIAL_SQL).unwrap();
    let fudj_repro::sql::QueryOutput::Rows(spilled, metrics) = out else {
        panic!()
    };
    assert_eq!(sorted(&in_memory), sorted(&spilled));
    assert!(metrics.spilled_rows > 0, "tiny budget must spill");
}

#[test]
fn advanced_interval_operator_matches_fudj() {
    let s = session(3);
    s.execute(
        r#"CREATE JOIN overlapping_interval(a: interval, b: interval)
           RETURNS boolean AS "interval.OverlappingIntervalJoin" AT flexiblejoins"#,
    )
    .unwrap();
    let fudj = s.query(INTERVAL_SQL).unwrap();

    let mut s2 = session(3);
    s2.execute(
        r#"CREATE JOIN overlapping_interval(a: interval, b: interval)
           RETURNS boolean AS "interval.OverlappingIntervalJoin" AT flexiblejoins"#,
    )
    .unwrap();
    let mut options = PlanOptions::default();
    options.join_overrides.insert(
        "overlapping_interval".into(),
        Arc::new(AdvancedIntervalJoin::new()),
    );
    s2.set_options(options);
    let advanced = s2.query(INTERVAL_SQL).unwrap();
    assert_eq!(fudj.rows(), advanced.rows());
}

#[test]
fn all_extensions_compose() {
    // Auto-tuning + spilling together, still the right answer.
    let mut s = session(2);
    s.execute(
        r#"CREATE JOIN st_contains(a: polygon, b: point)
           RETURNS boolean AS "spatial.SpatialJoinAuto" AT flexiblejoins"#,
    )
    .unwrap();
    let plain = s.query(SPATIAL_SQL).unwrap();

    s.set_options(PlanOptions {
        memory_budget_rows: Some(64),
        ..Default::default()
    });
    let combined = s.query(SPATIAL_SQL).unwrap();
    assert_eq!(sorted(&plain), sorted(&combined));
}
