//! Aggregate differential suite. When every group key and aggregate input
//! is a bare column, lowering points `HashAggregate` straight at its
//! child's columns instead of copying each input row through a
//! column `Project`; over a FUDJ join the join's emit list absorbs the
//! projection instead. Aggregates over a scan, a filter the typed kernel
//! runs, an interpreted `Filter`, an on-top nested-loop join whose inputs repeat a column name,
//! and a residual `Filter` over a FUDJ join must return exactly the rows
//! and column names of an oracle computed here, on one worker and on
//! three, in row and in columnar execution mode. The EXPLAIN tests pin
//! where the fold applies and where it defers.

use fudj_repro::datagen::{parks, wildfires, GeneratorConfig};
use fudj_repro::joins::evil::{evil_library, EVIL_LIBRARY_NAME};
use fudj_repro::joins::standard_library;
use fudj_repro::sql::{QueryOutput, Session};
use fudj_repro::storage::DatasetBuilder;
use fudj_repro::types::{DataType, Field, Row, Schema, Value};
use std::collections::BTreeMap;

/// One `T` row: `(id, tag, k, v, x)`.
type TRow = (i64, String, i64, i64, f64);
/// One `U` row: `(id, k, w)`.
type URow = (i64, i64, i64);

fn t_rows() -> Vec<TRow> {
    (0..120i64)
        .map(|i| {
            let tag = format!("t{}", i % 7);
            (
                i,
                tag,
                (i * 5 + 3) % 11,
                (i * 37) % 61,
                (i % 9) as f64 * 0.5,
            )
        })
        .collect()
}

fn u_rows() -> Vec<URow> {
    (0..40i64)
        .map(|i| (i, (i * 3) % 11, (i * 13) % 29))
        .collect()
}

fn int(v: i64) -> Value {
    Value::Int64(v)
}

/// `T`, `U` (both with an `id` column, so a join of them repeats the
/// name), the evil library's tame equality join as `same_key`, and a
/// session on `workers` workers in `mode`.
fn session(workers: usize, mode: &str) -> Session {
    let s = Session::new(workers);
    let t = DatasetBuilder::new(
        "T",
        Schema::shared(vec![
            Field::new("id", DataType::Int64),
            Field::new("tag", DataType::String),
            Field::new("k", DataType::Int64),
            Field::new("v", DataType::Int64),
            Field::new("x", DataType::Float64),
        ]),
    )
    .partitions(3)
    .build()
    .unwrap();
    t.insert_all(t_rows().into_iter().map(|(id, tag, k, v, x)| {
        Row::new(vec![
            int(id),
            Value::from(tag.as_str()),
            int(k),
            int(v),
            Value::Float64(x),
        ])
    }))
    .unwrap();
    s.register_dataset(t).unwrap();
    let u = DatasetBuilder::new(
        "U",
        Schema::shared(vec![
            Field::new("id", DataType::Int64),
            Field::new("k", DataType::Int64),
            Field::new("w", DataType::Int64),
        ]),
    )
    .partitions(3)
    .build()
    .unwrap();
    u.insert_all(
        u_rows()
            .into_iter()
            .map(|(id, k, w)| Row::new(vec![int(id), int(k), int(w)])),
    )
    .unwrap();
    s.register_dataset(u).unwrap();
    s.install_library(evil_library());
    s.execute(&format!(
        r#"CREATE JOIN same_key(a: bigint, b: bigint)
           RETURNS boolean AS "evil.Tame" AT {EVIL_LIBRARY_NAME}"#
    ))
    .unwrap();
    s.execute(&format!("SET exec_mode = {mode}")).unwrap();
    s
}

fn explain(s: &Session, sql: &str) -> String {
    match s.execute(&format!("EXPLAIN {sql}")).unwrap() {
        QueryOutput::Plan(text) => text,
        _ => panic!("EXPLAIN returned no plan"),
    }
}

/// `COUNT(*)`, `SUM`, `MIN`, `MAX` and `AVG` over one group's inputs, in
/// that order.
#[derive(Default)]
struct Acc {
    count: i64,
    sum: i64,
    min: Option<f64>,
    max: Option<i64>,
}

impl Acc {
    fn add(&mut self, sum: i64, min: f64, max: i64) {
        self.count += 1;
        self.sum += sum;
        self.min = Some(self.min.map_or(min, |m| m.min(min)));
        self.max = Some(self.max.map_or(max, |m| m.max(max)));
    }

    fn row(&self, key: Value) -> Vec<Value> {
        vec![
            key,
            int(self.count),
            int(self.sum),
            Value::Float64(self.min.unwrap()),
            int(self.max.unwrap()),
            Value::Float64(self.sum as f64 / self.count as f64),
        ]
    }
}

/// The aggregate list every grouped case selects; `Acc::row` mirrors it.
fn select(key: &str, sum: &str, min: &str, max: &str) -> String {
    format!(
        "SELECT {key}, COUNT(*) AS c, SUM({sum}) AS s, MIN({min}) AS mn, \
         MAX({max}) AS mx, AVG({sum}) AS av"
    )
}

struct Case {
    sql: String,
    /// A line the plan must contain.
    plan: &'static str,
    names: Vec<String>,
    rows: Vec<Row>,
}

fn grouped(sql: String, plan: &'static str, key: &str, groups: BTreeMap<Value, Acc>) -> Case {
    Case {
        sql,
        plan,
        names: [key, "c", "s", "mn", "mx", "av"]
            .map(str::to_owned)
            .to_vec(),
        rows: groups
            .into_iter()
            .map(|(k, acc)| Row::new(acc.row(k)))
            .collect(),
    }
}

fn cases() -> Vec<Case> {
    let t = t_rows();
    let u = u_rows();
    let mut out = Vec::new();

    // Straight off the scan, on a string key.
    let mut groups: BTreeMap<Value, Acc> = BTreeMap::new();
    for (id, tag, _, v, x) in &t {
        groups
            .entry(Value::from(tag.as_str()))
            .or_default()
            .add(*v, *x, *id);
    }
    out.push(grouped(
        format!("{} FROM T a GROUP BY a.tag ORDER BY a.tag", select("a.tag", "a.v", "a.x", "a.id")),
        "HashAggregate [group by [1]; [\"c\", \"s(#3)\", \"mn(#4)\", \"mx(#0)\", \"av(#3)\"]]\n    DataScan [T]",
        "a.tag",
        groups,
    ));

    // Over a kernel filter, on an integer key (the columnar kernel's
    // typed path).
    let mut groups: BTreeMap<Value, Acc> = BTreeMap::new();
    for (id, _, k, v, x) in t.iter().filter(|r| r.3 < 40) {
        groups.entry(int(*k)).or_default().add(*v, *x, *id);
    }
    out.push(grouped(
        format!(
            "{} FROM T a WHERE a.v < 40 GROUP BY a.k ORDER BY a.k",
            select("a.k", "a.v", "a.x", "a.id")
        ),
        "HashAggregate [group by [2]; [\"c\", \"s(#3)\", \"mn(#4)\", \"mx(#0)\", \"av(#3)\"]]\n    Filter [#3 < 40]",
        "a.k",
        groups,
    ));

    // Over an interpreted filter (column against column).
    let mut groups: BTreeMap<Value, Acc> = BTreeMap::new();
    for (id, _, k, v, x) in t.iter().filter(|r| r.3 < r.0) {
        groups.entry(int(*k)).or_default().add(*v, *x, *id);
    }
    out.push(grouped(
        format!(
            "{} FROM T a WHERE a.v < a.id GROUP BY a.k ORDER BY a.k",
            select("a.k", "a.v", "a.x", "a.id")
        ),
        "HashAggregate [group by [2]; [\"c\", \"s(#3)\", \"mn(#4)\", \"mx(#0)\", \"av(#3)\"]]\n    Filter [#3 < #0]",
        "a.k",
        groups,
    ));

    // No GROUP BY: one row straight off the scan.
    out.push(Case {
        sql: "SELECT COUNT(*) AS c, MAX(a.v) AS m FROM T a".to_owned(),
        plan: "HashAggregate [group by []; [\"c\", \"m(#3)\"]]\n  DataScan [T]",
        names: vec!["c".to_owned(), "m".to_owned()],
        rows: vec![Row::new(vec![
            int(t.len() as i64),
            int(t.iter().map(|r| r.3).max().unwrap()),
        ])],
    });

    // On-top nested-loop join of three inputs that each have an `id`
    // column: the joined physical schema names them `id`, `right.id` and
    // `right.right.id` (the shape of the paper's Query 3 on-top plan), so
    // the aggregate must take its names from the binder, not from its child.
    let mut groups: BTreeMap<Value, Acc> = BTreeMap::new();
    for (_, _, k, v, x) in &t {
        for b in u.iter().filter(|b| b.1 == *k) {
            for c in u.iter().filter(|c| c.0 == b.0) {
                groups.entry(int(b.0)).or_default().add(*v, *x, c.2);
            }
        }
    }
    out.push(grouped(
        format!(
            "{} FROM T a, U b, U c WHERE a.k = b.k AND b.id = c.id \
             GROUP BY b.id ORDER BY b.id",
            select("b.id", "a.v", "a.x", "c.w")
        ),
        "HashAggregate [group by [5]; [\"c\", \"s(#3)\", \"mn(#4)\", \"mx(#10)\", \"av(#3)\"]]\n    NestedLoopJoin",
        "b.id",
        groups,
    ));

    // A residual filter over a FUDJ join: the join emits every column the
    // filter reads, and the aggregate reads the filtered rows in place.
    let mut groups: BTreeMap<Value, Acc> = BTreeMap::new();
    for (_, tag, k, v, x) in &t {
        for b in u.iter().filter(|b| b.1 == *k && b.2 != *v) {
            groups
                .entry(Value::from(tag.as_str()))
                .or_default()
                .add(b.2, *x, b.0);
        }
    }
    out.push(grouped(
        format!(
            "{} FROM T a, U b WHERE same_key(a.k, b.k) AND a.v <> b.w \
             GROUP BY a.tag ORDER BY a.tag",
            select("a.tag", "b.w", "a.x", "b.id")
        ),
        "HashAggregate [group by [1]; [\"c\", \"s(#7)\", \"mn(#4)\", \"mx(#5)\", \"av(#7)\"]]\n    Filter [#3 <> #7]\n      FudjJoin",
        "a.tag",
        groups,
    ));
    out
}

#[test]
fn folded_aggregates_match_the_oracle() {
    let cases = cases();
    for case in &cases {
        assert!(
            !case.rows.is_empty(),
            "the fixture must give rows: {}",
            case.sql
        );
    }
    for workers in [1, 3] {
        for mode in ["row", "columnar"] {
            let s = session(workers, mode);
            for case in &cases {
                let ctx = format!("{workers} workers, {mode}: {}", case.sql);
                let plan = explain(&s, &case.sql);
                assert!(plan.contains(case.plan), "{ctx}\n{plan}");
                let batch = s.query(&case.sql).unwrap();
                let names: Vec<&str> = batch
                    .schema()
                    .fields()
                    .iter()
                    .map(|f| f.name.as_str())
                    .collect();
                assert_eq!(names, case.names, "{ctx}");
                assert_eq!(batch.rows(), case.rows.as_slice(), "{ctx}");
            }
        }
    }
}

/// The statement `durable_ingest` reads with, over a `kv(id, tag)` table,
/// and the two `GROUP BY`s of `scan_agg` over `Fact(id, grp, val)`.
fn bench_session() -> Session {
    let s = Session::new(2);
    for (name, fields) in [
        (
            "kv",
            vec![
                Field::new("id", DataType::Int64),
                Field::new("tag", DataType::String),
            ],
        ),
        (
            "Fact",
            vec![
                Field::new("id", DataType::Int64),
                Field::new("grp", DataType::Int64),
                Field::new("val", DataType::Int64),
            ],
        ),
    ] {
        let ds = DatasetBuilder::new(name, Schema::shared(fields))
            .partitions(2)
            .build()
            .unwrap();
        s.register_dataset(ds).unwrap();
    }
    s
}

#[test]
fn explain_aggregates_over_a_scan_or_filter_read_it_in_place() {
    let s = bench_session();
    assert_eq!(
        explain(&s, "SELECT k.tag, COUNT(*) AS c FROM kv k GROUP BY k.tag"),
        "HashAggregate [group by [1]; [\"c\"]]\n  \
           DataScan [kv]\n"
    );
    assert_eq!(
        explain(
            &s,
            "SELECT f.grp, COUNT(*) AS c, SUM(f.val) AS s, AVG(f.val) AS a \
             FROM Fact f GROUP BY f.grp"
        ),
        "HashAggregate [group by [1]; [\"c\", \"s(#2)\", \"a(#2)\"]]\n  \
           DataScan [Fact]\n"
    );
    assert_eq!(
        explain(
            &s,
            "SELECT f.grp, COUNT(*) AS c, SUM(f.val) AS s, AVG(f.val) AS a \
             FROM Fact f WHERE f.val < 9900 GROUP BY f.grp"
        ),
        "HashAggregate [group by [1]; [\"c\", \"s(#2)\", \"a(#2)\"]]\n  \
           Filter [#2 < 9900]\n    \
             DataScan [Fact]\n"
    );
}

#[test]
fn explain_computed_group_key_keeps_its_project() {
    let s = bench_session();
    let plan = explain(
        &s,
        "SELECT f.grp + 1 AS g, COUNT(*) AS c FROM Fact f GROUP BY f.grp + 1",
    );
    assert!(
        plan.contains("HashAggregate [group by [0]; [\"c\"]]\n  Project [#1 + 1]"),
        "{plan}"
    );
}

#[test]
fn rename_only_projection_renames_the_aggregate() {
    // `AS m` only renames the computed key the aggregate groups by: the
    // aggregate carries the new names itself, and no `Project` above it
    // copies every group row to rename one column.
    let s = Session::new(2);
    let kv = DatasetBuilder::new(
        "kv",
        Schema::shared(vec![
            Field::new("id", DataType::Int64),
            Field::new("tag", DataType::String),
        ]),
    )
    .partitions(2)
    .build()
    .unwrap();
    kv.insert_all((0..20i64).map(|i| Row::new(vec![int(i % 10), Value::from("t")])))
        .unwrap();
    s.register_dataset(kv).unwrap();
    let sql = "SELECT k.id + 1 AS m, COUNT(*) AS c FROM kv k GROUP BY k.id + 1";
    assert_eq!(
        explain(&s, sql),
        "HashAggregate [group by [0]; [\"c\"]]\n  \
           Project [#0 + 1]\n    \
             DataScan [kv]\n"
    );
    let batch = s.query(sql).unwrap();
    let names: Vec<&str> = batch
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    assert_eq!(names, ["m", "c"]);
    let mut rows = batch.rows().to_vec();
    rows.sort();
    let expected: Vec<Row> = (1..=10).map(|m| Row::new(vec![int(m), int(2)])).collect();
    assert_eq!(rows, expected);
}

#[test]
fn explain_query5_aggregate_still_folds_into_the_join() {
    let s = Session::new(2);
    let cfg = |rows, seed| GeneratorConfig::new(rows, seed, 2);
    s.register_dataset(parks(cfg(50, 1)).unwrap()).unwrap();
    s.register_dataset(wildfires(cfg(100, 2)).unwrap()).unwrap();
    s.install_library(standard_library());
    s.execute(
        r#"CREATE JOIN st_contains(a: polygon, b: point) RETURNS boolean
           AS "spatial.SpatialJoin" AT flexiblejoins"#,
    )
    .unwrap();
    let plan = explain(
        &s,
        "SELECT p.id, COUNT(*) AS c FROM Parks p, Wildfires w \
         WHERE st_contains(p.boundary, w.location) GROUP BY p.id",
    );
    assert!(
        plan.starts_with(
            "HashAggregate [group by [0]; [\"c\"]; step 1 in COMBINE]\n  \
               FudjJoin [spatial_join | match: hash | dedup: Avoidance | emit: [p.id]]\n"
        ),
        "{plan}"
    );
}
