//! End-to-end tests for the UDF guardrail layer, driven through the SQL
//! session so they exercise parser → planner (guard wrapping + join lease)
//! → distributed execution → metrics surfacing.
//!
//! The adversarial classes come from [`fudj_repro::joins::evil`]: each one
//! wraps a plain hash-equality join and misbehaves in exactly one way on
//! the deterministic one-in-eight [`poisoned`] key set, so every test has
//! an exact oracle computed from the raw rows.

use fudj_repro::exec::GuardMode;
use fudj_repro::joins::evil::{evil_library, EVIL_LIBRARY_NAME};
use fudj_repro::joins::{poisoned, standard_library};
use fudj_repro::serve::ServingTier;
use fudj_repro::sql::Session;
use fudj_repro::storage::DatasetBuilder;
use fudj_repro::types::{DataType, ExtValue, Field, FudjError, Row, Schema, Value};
use std::sync::Arc;

/// Key values for the two sides: a deterministic mix of poisoned and clean
/// longs with enough duplication to make the equality join non-trivial.
fn side_keys(side_salt: i64, n: i64) -> Vec<i64> {
    let poisoned_long = |v: i64| poisoned(&ExtValue::Long(v));
    let mut poison: Vec<i64> = (0..).filter(|v| poisoned_long(*v)).take(4).collect();
    let mut clean: Vec<i64> = (0..).filter(|v| !poisoned_long(*v)).take(12).collect();
    poison.rotate_left((side_salt % 4) as usize);
    clean.rotate_left((side_salt % 12) as usize);
    (0..n)
        .map(|i| {
            if i % 3 == 0 {
                poison[(i / 3) as usize % poison.len()]
            } else {
                clean[i as usize % clean.len()]
            }
        })
        .collect()
}

/// Session with datasets `A(id, k)` and `B(id, k)` plus both libraries.
fn session(workers: usize) -> Session {
    let s = Session::new(workers);
    s.install_library(standard_library());
    s.install_library(evil_library());
    for (name, salt, n) in [("A", 1i64, 60i64), ("B", 2, 45)] {
        let schema = Schema::shared(vec![
            Field::new("id", DataType::Int64),
            Field::new("k", DataType::Int64),
        ]);
        let ds = DatasetBuilder::new(name, schema)
            .partitions(workers)
            .build()
            .unwrap();
        ds.insert_all(
            side_keys(salt, n)
                .into_iter()
                .enumerate()
                .map(|(id, k)| Row::new(vec![Value::Int64(id as i64), Value::Int64(k)])),
        )
        .unwrap();
        s.register_dataset(ds).unwrap();
    }
    s
}

fn create_evil_join(s: &Session, class: &str, with: &str) {
    let ddl = format!(
        r#"CREATE JOIN same_key(a: bigint, b: bigint)
           RETURNS boolean AS "{class}" AT {EVIL_LIBRARY_NAME} {with}"#
    );
    s.execute(&ddl).unwrap();
}

const JOIN_SQL: &str = "SELECT COUNT(*) AS c FROM A a, B b WHERE same_key(a.k, b.k)";

/// Equality-join count oracle; `drop_poisoned` simulates quarantine.
fn oracle(drop_poisoned: bool) -> i64 {
    let left = side_keys(1, 60);
    let right = side_keys(2, 45);
    let mut count = 0i64;
    for l in &left {
        for r in &right {
            if l == r && !(drop_poisoned && poisoned(&ExtValue::Long(*l))) {
                count += 1;
            }
        }
    }
    count
}

fn count_of(s: &Session, sql: &str) -> i64 {
    s.query(sql).unwrap().rows()[0].get(0).as_i64().unwrap()
}

// -- tentpole: the adversarial matrix ---------------------------------------

#[test]
fn failfast_attributes_every_evil_mode_to_its_phase() {
    let cases = [
        ("evil.PanicSummarize", "", "summarize"),
        ("evil.PanicDivide", "", "divide"),
        ("evil.PanicAssign", "", "assign"),
        ("evil.PanicVerify", "", "verify"),
        ("evil.HangAssign", "", "assign"),
        ("evil.OutOfRange", "", "assign"),
        (
            "evil.OverReplicate",
            "WITH (max_buckets_per_key = 16)",
            "assign",
        ),
        ("evil.NonDetAssign", "WITH (check_sample = 1)", "assign"),
    ];
    for (class, with, expect_phase) in cases {
        let s = session(3);
        create_evil_join(&s, class, with);
        let err = s.query(JOIN_SQL).unwrap_err();
        match err {
            FudjError::UdfViolation { ref phase, .. } => {
                assert_eq!(phase, expect_phase, "{class}: {err}")
            }
            other => panic!("{class}: expected a UDF violation, got {other}"),
        }
    }
}

#[test]
fn quarantine_survives_with_exactly_the_clean_results() {
    for class in ["evil.PanicAssign", "evil.HangAssign", "evil.OutOfRange"] {
        let s = session(3);
        create_evil_join(&s, class, "WITH (policy = quarantine)");
        let out = s.execute(JOIN_SQL).unwrap();
        let count = out.batch().rows()[0].get(0).as_i64().unwrap();
        assert_eq!(count, oracle(true), "{class}");
        let udf = &out.metrics().udf;
        assert!(udf.assign_violations > 0, "{class}: {udf:?}");
        assert!(udf.quarantined_rows > 0, "{class}: {udf:?}");
        assert_eq!(udf.fallback_activations, 0, "{class}: {udf:?}");
    }
}

#[test]
fn quarantined_summarize_still_answers() {
    // Summarize quarantine drops the key from the summary but not from the
    // join itself: results must stay complete for this count-only summary.
    let s = session(3);
    create_evil_join(&s, "evil.PanicSummarize", "WITH (policy = quarantine)");
    let out = s.execute(JOIN_SQL).unwrap();
    assert_eq!(
        out.batch().rows()[0].get(0).as_i64().unwrap(),
        oracle(false)
    );
    assert!(out.metrics().udf.summarize_violations > 0);
}

#[test]
fn fallback_equality_recovers_the_full_result() {
    for class in ["evil.PanicAssign", "evil.HangAssign", "evil.OutOfRange"] {
        let s = session(3);
        create_evil_join(&s, class, "WITH (policy = fallback)");
        let out = s.execute(JOIN_SQL).unwrap();
        let count = out.batch().rows()[0].get(0).as_i64().unwrap();
        assert_eq!(count, oracle(false), "{class}");
        assert!(
            out.metrics().udf.fallback_activations > 0,
            "{class}: {:?}",
            out.metrics().udf
        );
    }
}

/// Guard state is per query: a statement the serving tier runs again
/// from the plan cache starts with a fresh guard, so it falls back once
/// per run, not once more per earlier run.
#[test]
fn a_served_fallback_join_falls_back_once_per_run() {
    let tier = ServingTier::new(Arc::new(session(3)));
    create_evil_join(
        tier.session(),
        "evil.PanicAssign",
        "WITH (policy = fallback)",
    );
    tier.session().execute("SET result_cache = off").unwrap();
    for run in 1..=2 {
        let out = tier.serve(1, JOIN_SQL).unwrap();
        assert_eq!(
            out.batch().rows()[0].get(0).as_i64().unwrap(),
            oracle(false)
        );
        let udf = &out.metrics().udf;
        assert_eq!(udf.fallback_activations, 1, "run {run}: {udf:?}");
    }
    assert_eq!(tier.stats().plan_cache_hits, 1);
}

#[test]
fn tame_guarded_run_is_identical_to_unguarded() {
    let s = session(3);
    create_evil_join(&s, "evil.Tame", "");
    let guarded = s.execute(JOIN_SQL).unwrap();

    let mut s2 = session(3);
    create_evil_join(&s2, "evil.Tame", "");
    s2.set_guard(GuardMode::Off);
    let unguarded = s2.execute(JOIN_SQL).unwrap();

    assert_eq!(guarded.batch().rows(), unguarded.batch().rows());
    assert_eq!(
        guarded.batch().rows()[0].get(0).as_i64().unwrap(),
        oracle(false)
    );

    // The guard must not perturb the deterministic execution counters.
    let (g, u) = (guarded.metrics(), unguarded.metrics());
    assert_eq!(g.bytes_shuffled, u.bytes_shuffled);
    assert_eq!(g.bytes_broadcast, u.bytes_broadcast);
    assert_eq!(g.state_bytes, u.state_bytes);
    assert_eq!(g.verify_calls, u.verify_calls);
    assert_eq!(g.dedup_rejections, u.dedup_rejections);
    assert_eq!(g.spilled_rows, u.spilled_rows);
    assert!(!g.udf.any(), "{:?}", g.udf);
    assert!(!u.udf.any());
}

#[test]
fn session_guard_override_beats_per_join_options() {
    // The join is created FailFast (default), but a session-wide Quarantine
    // override must win.
    let mut s = session(3);
    create_evil_join(&s, "evil.PanicAssign", "");
    s.set_guard(GuardMode::Override(
        fudj_repro::exec::GuardConfig::with_policy(fudj_repro::exec::UdfPolicy::Quarantine),
    ));
    assert_eq!(count_of(&s, JOIN_SQL), oracle(true));

    // And turning the guard off turns the panic back into a raw panic —
    // which the pool's recovery layer converts into an execution error, not
    // a crash (but never a clean quarantined answer).
    s.set_guard(GuardMode::Off);
    assert!(s.query(JOIN_SQL).is_err());
}

// -- satellite 1: worker-pool hygiene after guarded failures ----------------

#[test]
fn pool_survives_guarded_failures_and_keeps_answering() {
    let s = session(3);
    create_evil_join(&s, "evil.PanicAssign", "");
    for _ in 0..3 {
        let err = s.query(JOIN_SQL).unwrap_err();
        assert!(matches!(err, FudjError::UdfViolation { .. }), "{err}");
        // The same session (same worker pool) must keep answering plain
        // queries with correct results after every failure.
        assert_eq!(count_of(&s, "SELECT COUNT(*) AS c FROM A a"), 60);
    }
    // And a well-behaved join still runs on the pool that saw the panics.
    s.execute("DROP JOIN same_key").unwrap();
    create_evil_join(&s, "evil.Tame", "");
    assert_eq!(count_of(&s, JOIN_SQL), oracle(false));
}

// -- guard semantics do not depend on `exec_mode` ---------------------------

/// ASSIGN hands the executor a whole partition of keys (`assign_block`);
/// `FudjEngineJoin` makes one guarded `assign_block` call per 1 024 keys
/// and replays a block key by key only when it misbehaves. A guarded evil
/// join panicking partway through a partition must attribute the
/// violation to the `assign` phase with per-call isolation — FailFast errors
/// identically, Quarantine drops exactly the poisoned keys, and the
/// counters are the same under either `exec_mode`.
#[test]
fn columnar_mode_attributes_mid_stride_panics_to_assign() {
    for mode in ["row", "columnar"] {
        let s = session(3);
        s.execute(&format!("SET exec_mode = {mode}")).unwrap();
        create_evil_join(&s, "evil.PanicAssign", "");
        let err = s.query(JOIN_SQL).unwrap_err();
        match err {
            FudjError::UdfViolation { ref phase, .. } => {
                assert_eq!(phase, "assign", "{mode}: {err}")
            }
            other => panic!("{mode}: expected a UDF violation, got {other}"),
        }
    }
}

#[test]
fn columnar_quarantine_matches_row_mode_exactly() {
    let run = |mode: &str| {
        let s = session(3);
        s.execute(&format!("SET exec_mode = {mode}")).unwrap();
        create_evil_join(&s, "evil.PanicAssign", "WITH (policy = quarantine)");
        let out = s.execute(JOIN_SQL).unwrap();
        let count = out.batch().rows()[0].get(0).as_i64().unwrap();
        (count, out.metrics().fingerprint())
    };
    let (count_r, fp_r) = run("row");
    let (count_c, fp_c) = run("columnar");
    assert_eq!(count_r, oracle(true), "row-mode quarantine diverged");
    assert_eq!(count_c, oracle(true), "columnar quarantine diverged");
    assert_eq!(
        fp_r, fp_c,
        "quarantine counters must not depend on the execution mode"
    );
    assert!(fp_r.udf.quarantined_rows > 0, "{:?}", fp_r.udf);
    assert!(fp_r.udf.assign_violations > 0, "{:?}", fp_r.udf);
}

/// Pool hygiene: a panic partway through a partition must not poison the
/// worker pool — the same session keeps answering, in both modes.
#[test]
fn pool_stays_healthy_after_columnar_mid_stride_panics() {
    let s = session(3);
    s.execute("SET exec_mode = columnar").unwrap();
    create_evil_join(&s, "evil.PanicAssign", "");
    for _ in 0..3 {
        let err = s.query(JOIN_SQL).unwrap_err();
        assert!(matches!(err, FudjError::UdfViolation { .. }), "{err}");
        assert_eq!(count_of(&s, "SELECT COUNT(*) AS c FROM A a"), 60);
    }
    // Flipping back to row mode on the same pool also still works.
    s.execute("SET exec_mode = row").unwrap();
    assert_eq!(count_of(&s, "SELECT COUNT(*) AS c FROM B b"), 45);
    s.execute("DROP JOIN same_key").unwrap();
    create_evil_join(&s, "evil.Tame", "");
    assert_eq!(count_of(&s, JOIN_SQL), oracle(false));
}

// -- satellite 2: DROP JOIN on an in-flight definition ----------------------

#[test]
fn drop_join_refuses_while_a_plan_holds_the_definition() {
    let s = session(2);
    create_evil_join(&s, "evil.Tame", "");
    let def = s.registry().get("same_key").unwrap();
    let lease = def.lease();
    let err = s.execute("DROP JOIN same_key").unwrap_err();
    assert!(
        matches!(err, FudjError::Catalog(ref msg) if msg.contains("in-flight")),
        "{err}"
    );
    // The definition is still usable while leased.
    assert_eq!(count_of(&s, JOIN_SQL), oracle(false));
    drop(lease);
    s.execute("DROP JOIN same_key").unwrap();
    assert!(s.registry().get("same_key").is_none());
}

// -- the symmetry probe stays inside the declared signature -----------------

/// `SpatialFudj` whose `verify` decodes its arguments by declared type, a
/// polygon then a point, as a library written against `(polygon, point)`
/// may: swapped arguments are an error.
struct StrictContains(fudj_repro::joins::SpatialFudj);

impl fudj_repro::core::FlexibleJoin for StrictContains {
    type Summary = <fudj_repro::joins::SpatialFudj as fudj_repro::core::FlexibleJoin>::Summary;
    type PPlan = <fudj_repro::joins::SpatialFudj as fudj_repro::core::FlexibleJoin>::PPlan;
    fn name(&self) -> &str {
        "strict_contains"
    }
    fn summarize(&self, key: &ExtValue, s: &mut Self::Summary) -> fudj_repro::types::Result<()> {
        self.0.summarize(key, s)
    }
    fn merge_summaries(&self, a: Self::Summary, b: Self::Summary) -> Self::Summary {
        self.0.merge_summaries(a, b)
    }
    fn divide(
        &self,
        l: &Self::Summary,
        r: &Self::Summary,
        params: &[ExtValue],
    ) -> fudj_repro::types::Result<Self::PPlan> {
        self.0.divide(l, r, params)
    }
    fn assign(
        &self,
        key: &ExtValue,
        plan: &Self::PPlan,
        out: &mut Vec<fudj_repro::core::BucketId>,
    ) -> fudj_repro::types::Result<()> {
        self.0.assign(key, plan, out)
    }
    fn verify(
        &self,
        polygon: &ExtValue,
        point: &ExtValue,
        plan: &Self::PPlan,
    ) -> fudj_repro::types::Result<bool> {
        let (ring, xy) = (polygon.as_double_array()?, point.as_double_array()?);
        if ring.len() < 6 || xy.len() != 2 {
            return Err(FudjError::JoinLibrary(format!(
                "verify(polygon, point) called on {} and {} coordinates",
                ring.len(),
                xy.len()
            )));
        }
        self.0.verify(polygon, point, plan)
    }
}

#[test]
fn the_symmetry_probe_never_swaps_keys_of_two_declared_types() {
    use fudj_repro::core::{JoinLibrary, ProxyJoin};
    use fudj_repro::geo::{flat_ring_contains_point, Point, Polygon, Rect};
    let s = Session::new(3);
    s.install_library(
        JoinLibrary::builder("strict")
            .with_class("Contains", || {
                Arc::new(ProxyJoin::new(StrictContains(
                    fudj_repro::joins::SpatialFudj::new(),
                )))
            })
            .build(),
    );
    let squares: Vec<Polygon> = (0..12)
        .map(|i| {
            let (x, y) = ((i % 4) as f64 * 20.0, (i / 4) as f64 * 25.0);
            Polygon::from_rect(&Rect::new(x, y, x + 30.0, y + 30.0))
        })
        .collect();
    let points: Vec<Point> = (0..40)
        .map(|i| Point::new((i * 37 % 100) as f64 + 0.5, (i * 53 % 90) as f64 + 0.5))
        .collect();
    for (name, field, values) in [
        (
            "P",
            DataType::Polygon,
            squares
                .iter()
                .cloned()
                .map(Value::polygon)
                .collect::<Vec<_>>(),
        ),
        (
            "F",
            DataType::Point,
            points.iter().map(|&p| Value::Point(p)).collect(),
        ),
    ] {
        let schema = Schema::shared(vec![
            Field::new("id", DataType::Int64),
            Field::new("g", field),
        ]);
        let ds = DatasetBuilder::new(name, schema)
            .partitions(3)
            .build()
            .unwrap();
        ds.insert_all(
            values
                .into_iter()
                .enumerate()
                .map(|(id, g)| Row::new(vec![Value::Int64(id as i64), g])),
        )
        .unwrap();
        s.register_dataset(ds).unwrap();
    }
    // Every pair sampled, a violation fails the query.
    s.execute(
        r#"CREATE JOIN strict_contains(a: polygon, b: point)
           RETURNS boolean AS "Contains" AT strict WITH (check_sample = 1)"#,
    )
    .unwrap();
    let sql = "SELECT COUNT(*) AS c FROM P p, F f WHERE strict_contains(p.g, f.g)";
    let contains = |sq: &Polygon, p: &Point| {
        let ring: Vec<f64> = sq.ring().iter().flat_map(|q| [q.x, q.y]).collect();
        flat_ring_contains_point(&ring, p)
    };
    let expected = squares
        .iter()
        .map(|sq| points.iter().filter(|p| contains(sq, p)).count() as i64)
        .sum::<i64>();
    assert!(expected > 0);
    assert_eq!(count_of(&s, sql), expected);
}
