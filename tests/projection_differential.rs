//! Projection differential suite. The planner folds the column projections
//! above a FUDJ join into the join node, so COMBINE builds each joined row
//! once, holding only the columns the plan reads; under duplicate
//! elimination the join projects after its distinct pass instead. For every
//! join class, three query shapes — a bare `COUNT(*)`, a `GROUP BY` on a
//! left-side id, and one column from each side under `ORDER BY … LIMIT` —
//! must return exactly the rows of the on-top plan, in memory and spilling,
//! on one worker and on three. The guard's equality fallback, the join's
//! second emit site, is checked against a plain equality join.

use fudj_repro::datagen::{amazon_reviews, nyctaxi, parks, wildfires, GeneratorConfig};
use fudj_repro::joins::evil::{evil_library, EVIL_LIBRARY_NAME};
use fudj_repro::joins::standard_library;
use fudj_repro::planner::PlanOptions;
use fudj_repro::sql::{QueryOutput, Session};
use fudj_repro::storage::DatasetBuilder;
use fudj_repro::types::{DataType, Field, Row, Schema, Value};

/// One join predicate family: its `CREATE JOIN` signature, named after the
/// scalar function the on-top plan evaluates, and the FROM / WHERE text
/// every shape shares.
struct Kind {
    signature: &'static str,
    from_where: &'static str,
    left_id: &'static str,
    right_id: &'static str,
}

const SPATIAL: Kind = Kind {
    signature: "st_contains(a: polygon, b: point)",
    from_where: "FROM Parks p, Wildfires w WHERE st_contains(p.boundary, w.location)",
    left_id: "p.id",
    right_id: "w.id",
};

const INTERVAL: Kind = Kind {
    signature: "overlapping_interval(a: interval, b: interval)",
    from_where: "FROM NYCTaxi n1, NYCTaxi n2 \
                 WHERE n1.Vendor = 1 AND n2.Vendor = 2 \
                   AND overlapping_interval(n1.ride_interval, n2.ride_interval)",
    left_id: "n1.id",
    right_id: "n2.id",
};

const TEXT: Kind = Kind {
    signature: "similarity_jaccard(a: string, b: string, t: double)",
    from_where: "FROM AmazonReview r1, AmazonReview r2 \
                 WHERE r1.overall = 5 AND r2.overall = 4 \
                   AND similarity_jaccard(r1.review, r2.review) >= 0.5",
    left_id: "r1.id",
    right_id: "r2.id",
};

/// A few hundred to a thousand records per dataset: the on-top nested loop
/// stays cheap.
fn session(workers: usize, on_top: bool) -> Session {
    let mut s = Session::new(workers);
    let cfg = |rows, seed| GeneratorConfig::new(rows, seed, 3);
    s.register_dataset(parks(cfg(300, 71)).unwrap()).unwrap();
    s.register_dataset(wildfires(cfg(1200, 72)).unwrap())
        .unwrap();
    s.register_dataset(nyctaxi(cfg(1200, 73)).unwrap()).unwrap();
    s.register_dataset(amazon_reviews(cfg(400, 74)).unwrap())
        .unwrap();
    s.install_library(standard_library());
    s.install_library(evil_library());
    if on_top {
        s.set_options(PlanOptions {
            force_on_top: true,
            ..Default::default()
        });
    }
    s
}

/// The three query shapes, each with whether its row order is defined.
fn shapes(kind: &Kind) -> [(String, bool); 3] {
    let Kind {
        from_where,
        left_id,
        right_id,
        ..
    } = kind;
    [
        (format!("SELECT COUNT(*) AS c {from_where}"), false),
        (
            format!("SELECT {left_id}, COUNT(*) AS c {from_where} GROUP BY {left_id}"),
            false,
        ),
        (
            format!(
                "SELECT {left_id}, {right_id} AS rid {from_where} \
                 ORDER BY {left_id}, rid LIMIT 40"
            ),
            true,
        ),
    ]
}

fn rows(s: &Session, sql: &str, ordered: bool) -> Vec<Row> {
    let mut rows = s.query(sql).unwrap().rows().to_vec();
    if !ordered {
        rows.sort();
    }
    rows
}

fn explain(s: &Session, sql: &str) -> String {
    match s.execute(&format!("EXPLAIN {sql}")).unwrap() {
        QueryOutput::Plan(text) => text,
        _ => panic!("EXPLAIN returned no plan"),
    }
}

/// `CREATE JOIN` of `kind`'s signature as join class `class`.
fn ddl(kind: &Kind, class: &str) -> String {
    format!(
        r#"CREATE JOIN {} RETURNS boolean AS "{class}" AT flexiblejoins"#,
        kind.signature
    )
}

/// Every shape of `kind` under each join class of `classes` equals the
/// on-top plan, in memory and under `SET memory_budget_rows = 8`, on 1 and
/// 3 workers. The on-top plan evaluates the scalar function the signature
/// is named after, whatever the class, so its rows are computed once.
fn check_classes(kind: &Kind, classes: &[&str]) {
    let oracle = session(3, true);
    oracle.execute(&ddl(kind, classes[0])).unwrap();
    let expected: Vec<Vec<Row>> = shapes(kind)
        .iter()
        .map(|(sql, ordered)| rows(&oracle, sql, *ordered))
        .collect();
    assert!(
        expected[0][0].get(0).as_i64().unwrap() > 0,
        "the fixture must join some rows"
    );
    for class in classes {
        check_class(kind, class, &expected);
    }
}

/// One class of [`check_classes`] against the on-top rows `expected`.
fn check_class(kind: &Kind, class: &str, expected: &[Vec<Row>]) {
    let ddl = ddl(kind, class);
    for workers in [1, 3] {
        for budget in [None, Some(8)] {
            let s = session(workers, false);
            s.execute(&ddl).unwrap();
            if let Some(b) = budget {
                s.execute(&format!("SET memory_budget_rows = {b}")).unwrap();
            }
            for ((sql, ordered), want) in shapes(kind).iter().zip(expected) {
                assert_eq!(
                    &rows(&s, sql, *ordered),
                    want,
                    "{class}, {workers} workers, budget {budget:?}: {sql}"
                );
            }
            // The fold: `COUNT(*)` aggregates straight off a join that
            // emits no column.
            let plan = explain(&s, &shapes(kind)[0].0);
            assert!(
                plan.contains("HashAggregate [group by []; [\"c\"]]\n    FudjJoin")
                    && plan.contains("emit: []"),
                "{class}: {plan}"
            );
        }
    }
}

#[test]
fn spatial_classes_match_on_top() {
    check_classes(
        &SPATIAL,
        &[
            "spatial.SpatialJoin",
            "spatial.SpatialJoinRefPoint",
            "spatial.SpatialJoinElimination",
        ],
    );
}

#[test]
fn interval_class_matches_on_top() {
    check_classes(&INTERVAL, &["interval.OverlappingIntervalJoin"]);
}

#[test]
fn text_classes_match_on_top() {
    check_classes(
        &TEXT,
        &[
            "setsimilarity.SetSimilarityJoin",
            "setsimilarity.SetSimilarityJoinElimination",
        ],
    );
}

/// The degraded path of `policy = fallback` emits through the same column
/// list: a `COUNT(*)` and a right-side column agree with the plain
/// equality join on the raw keys.
#[test]
fn equality_fallback_emits_the_projected_columns() {
    let s = session(3, false);
    for (name, salt) in [("A", 1i64), ("B", 2)] {
        let schema = Schema::shared(vec![
            Field::new("id", DataType::Int64),
            Field::new("k", DataType::Int64),
        ]);
        let ds = DatasetBuilder::new(name, schema)
            .partitions(3)
            .build()
            .unwrap();
        ds.insert_all(
            (0..60i64)
                .map(|i| Row::new(vec![Value::Int64(i), Value::Int64((i * salt + salt) % 13)])),
        )
        .unwrap();
        s.register_dataset(ds).unwrap();
    }
    s.execute(&format!(
        r#"CREATE JOIN same_key(a: bigint, b: bigint)
           RETURNS boolean AS "evil.PanicAssign" AT {EVIL_LIBRARY_NAME}
           WITH (policy = fallback)"#
    ))
    .unwrap();

    for (select, tail) in [("COUNT(*) AS c", ""), ("b.id AS bid", " ORDER BY bid")] {
        let fudj = format!("SELECT {select} FROM A a, B b WHERE same_key(a.k, b.k){tail}");
        let plain = format!("SELECT {select} FROM A a, B b WHERE a.k = b.k{tail}");
        let out = s.execute(&fudj).unwrap();
        assert!(
            out.metrics().udf.fallback_activations > 0,
            "{fudj}: {:?}",
            out.metrics().udf
        );
        let got = out.batch().rows().to_vec();
        assert!(!got.is_empty());
        assert_eq!(got, rows(&s, &plain, true), "{fudj}");
    }
}
