//! Row-vs-columnar differential oracle for the one fork `exec_mode` still
//! selects: the typed partial-aggregation fast path. Every other kernel
//! (filter, project, exchange decode, ASSIGN) is shared by both modes, so
//! a SQL scan → filter → aggregate query is the whole surface: both modes
//! must produce identical rows AND identical counter fingerprints.

const WORKERS: usize = 3;

/// The relational pipeline around the joins: a SQL query whose plan is a
/// kernel-shaped `Filter` (a conjunction of column-vs-literal
/// comparisons), a column `Project` and a `HashAggregate` must agree
/// across modes through the full front end, and the plan text must show
/// those shapes — the *same* plan serves both modes.
#[test]
fn sql_scan_filter_aggregate_pipeline_agrees_across_modes() {
    use fudj_repro::datagen::{nyctaxi, GeneratorConfig};
    use fudj_repro::sql::Session;

    let run = |mode: &str| {
        let s = Session::new(WORKERS);
        s.register_dataset(nyctaxi(GeneratorConfig::new(240, 3, WORKERS)).unwrap())
            .unwrap();
        s.execute(&format!("SET exec_mode = {mode}")).unwrap();
        // The SELECT list reorders the aggregate's columns, so the plan
        // keeps a `Project` (an identity one is dropped in lowering).
        let sql = "SELECT COUNT(*) AS c, n.Vendor, AVG(n.Vendor) AS avg_v \
                   FROM NYCTaxi n \
                   WHERE n.Vendor >= 1 AND n.Vendor <> 3 \
                   GROUP BY n.Vendor ORDER BY n.Vendor";
        let explain = s.execute(&format!("EXPLAIN {sql}")).unwrap();
        let fudj_repro::sql::QueryOutput::Plan(text) = explain else {
            panic!("expected a plan")
        };
        assert!(text.contains("Filter [#1 >= 1 AND #1 <> 3]"), "{text}");
        assert!(text.contains("Project [#1, #0, #2]"), "{text}");
        let out = s.execute(sql).unwrap();
        let rows = out.batch().rows().to_vec();
        let fp = out.metrics().fingerprint();
        (rows, fp)
    };

    let (rows_r, fp_r) = run("row");
    let (rows_c, fp_c) = run("columnar");
    assert!(!rows_r.is_empty());
    assert_eq!(rows_r, rows_c, "SQL pipeline results diverged across modes");
    assert_eq!(
        fp_r, fp_c,
        "SQL pipeline fingerprints diverged across modes"
    );
}
