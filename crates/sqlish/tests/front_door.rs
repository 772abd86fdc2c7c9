//! One front door: the same SELECT typed as a SELECT, `EXECUTE`d,
//! `submit`ted, served by the tier, measured by `EXPLAIN ANALYZE` or
//! resumed after a crash goes through one run path — it is planned
//! through the session's plan cache and run as a scheduler job — so all
//! of them are journaled, sealed and durability-stamped alike, all of
//! them obey the scheduler's knobs, and none of them runs a plan lowered
//! for an earlier execution.

use fudj_exec::{CounterFingerprint, MetricsSnapshot};
use fudj_planner::PlanOptions;
use fudj_sched::{JobInfo, JobState};
use fudj_serve::{sample_session, ServingTier};
use fudj_sql::{CacheCounters, QueryOutput, Session};
use fudj_storage::wal::WalRecord;
use fudj_storage::{fold_journal, DurableStore, FaultFs, StorageFaultConfig};
use fudj_types::{FudjError, Row, Value};
use std::sync::Arc;

const SELECT: &str = "SELECT n.Vendor, COUNT(*) AS c FROM NYCTaxi n WHERE n.Vendor = 1 \
                      GROUP BY n.Vendor";
const PREPARE: &str = "PREPARE by_vendor AS SELECT n.Vendor, COUNT(*) AS c FROM NYCTaxi n \
                       WHERE n.Vendor = $1 GROUP BY n.Vendor";
const EXECUTE: &str = "EXECUTE by_vendor(1)";

/// The logical counters, without the two groups that are scoped wider
/// than one query (the store's, the tier's).
fn query_counters(snapshot: &MetricsSnapshot) -> CounterFingerprint {
    let mut fingerprint = snapshot.fingerprint();
    fingerprint.durability = Default::default();
    fingerprint.serving = Default::default();
    fingerprint
}

fn rows_and_snapshot(out: QueryOutput) -> (Vec<Row>, MetricsSnapshot) {
    match out {
        QueryOutput::Rows(batch, snapshot) => (batch.rows().to_vec(), *snapshot),
        other => panic!("expected rows, got {other:?}"),
    }
}

#[test]
fn select_execute_submit_and_serve_are_journaled_sealed_and_stamped_alike() {
    let fs = FaultFs::new(StorageFaultConfig::quiet(0));
    let dir = "/front-door";
    let session = Arc::new(sample_session(60, 2).unwrap());
    session.execute(PREPARE).unwrap();
    session.execute("SET checkpoint_durable = on").unwrap();
    session.open_wal_with(dir, fs.clone()).unwrap();

    let submitted = session.submit(SELECT).unwrap().wait().unwrap();
    let tier = ServingTier::new(session.clone());
    let runs = [
        (
            "SELECT",
            rows_and_snapshot(session.execute(SELECT).unwrap()),
        ),
        (
            "EXECUTE",
            rows_and_snapshot(session.execute(EXECUTE).unwrap()),
        ),
        ("submit", (submitted.0.rows().to_vec(), submitted.1)),
        ("tier", rows_and_snapshot(tier.serve(7, SELECT).unwrap())),
    ];

    let (_, (rows, snapshot)) = &runs[0];
    assert_eq!(rows.len(), 1, "one vendor group");
    for (how, (other_rows, other_snapshot)) in &runs {
        assert_eq!(other_rows, rows, "{how}: rows");
        assert_eq!(
            query_counters(other_snapshot),
            query_counters(snapshot),
            "{how}: counters"
        );
        assert!(
            other_snapshot.durability.wal_records_appended > 0,
            "{how}: durability counters were not stamped"
        );
    }

    // Every one of the four opened a journal entry and sealed it.
    drop(tier);
    drop(session);
    let (_store, recovered) = DurableStore::open(dir, fs).unwrap();
    let submissions = recovered
        .journal
        .iter()
        .filter(|(_, record)| matches!(record, WalRecord::QuerySubmitted { .. }))
        .count();
    assert_eq!(submissions, runs.len(), "one QuerySubmitted per run");
    assert_eq!(fold_journal(&recovered.journal), Vec::new());
}

/// The job the session's last statement ran as.
fn last_job(session: &Session) -> JobInfo {
    let jobs = session.scheduler().jobs();
    jobs.last().cloned().expect("the statement ran as a job")
}

#[test]
fn deadline_priority_and_admission_reach_blocking_statements() {
    let session = sample_session(60, 2).unwrap();
    session.execute(PREPARE).unwrap();

    // Every batch advances the simulated clock by 100 ms.
    session.execute("SET deadline_ms = 1").unwrap();
    for statement in [SELECT, EXECUTE] {
        let err = session.execute(statement).unwrap_err();
        assert!(matches!(err, FudjError::Deadline(_)), "{statement}: {err}");
        assert_eq!(last_job(&session).state, JobState::DeadlineExceeded);
    }
    session.execute("SET deadline_ms = off").unwrap();

    session.execute("SET priority = 3").unwrap();
    let out = session.execute(SELECT).unwrap();
    let job = last_job(&session);
    assert_eq!((job.state, job.priority), (JobState::Done, 3));
    assert!(job.sim_clock_ms > 0);
    assert_eq!(
        out.metrics().sim_clock_ms,
        job.sim_clock_ms,
        "the job's clock"
    );

    session.execute("SET memory_quota_rows = 10").unwrap();
    session.execute("SET memory_budget_rows = 100").unwrap();
    let err = session.execute(SELECT).unwrap_err();
    assert!(matches!(err, FudjError::Admission(_)), "{err}");
}

#[test]
fn explain_analyze_and_a_journal_resume_are_jobs() {
    let session = sample_session(60, 2).unwrap();
    session
        .execute(&format!("EXPLAIN ANALYZE {SELECT}"))
        .unwrap();
    let job = last_job(&session);
    assert!(job.label.starts_with("EXPLAIN ANALYZE SELECT"), "{job:?}");
    assert_eq!(job.state, JobState::Done);

    // The disk dies at the first journal write: the statement is
    // journaled but never runs, and reopening the same simulated disk
    // resumes it.
    let open_wal = "SET wal_dir = '/front-door-resume'";
    session.execute("SET checkpoint_durable = on").unwrap();
    session.set_disk_faults(Some(StorageFaultConfig::crash_at(0, "journal:submit", 1)));
    session.execute(open_wal).unwrap();
    let err = session.execute(SELECT).unwrap_err();
    assert!(matches!(err, FudjError::Crash(_)), "{err}");
    let jobs_before = session.scheduler().jobs().len();
    session.execute(open_wal).unwrap();
    let resumed = session.take_resumed();
    assert_eq!(resumed.len(), 1, "the journaled SELECT resumed");
    assert!(resumed[0].result.is_ok());
    assert_eq!(session.scheduler().jobs().len(), jobs_before + 1);
    let job = last_job(&session);
    assert!(job.label.starts_with("SELECT n.Vendor"), "{job:?}");
    assert_eq!(job.state, JobState::Done);
}

const SPATIAL: &str = "SELECT p.id, COUNT(w.id) AS fires FROM Parks p, Wildfires w \
                       WHERE st_contains(p.boundary, w.location) GROUP BY p.id";

fn rows_of(session: &Session, sql: &str) -> Vec<Row> {
    session.query(sql).unwrap().rows().to_vec()
}

#[test]
fn scalar_aggregates_over_empty_input_return_one_row() {
    let session = sample_session(40, 2).unwrap();
    let row = |values: Vec<Value>| vec![Row::new(values)];
    for mode in ["row", "columnar"] {
        session.execute(&format!("SET exec_mode = {mode}")).unwrap();
        let cases = [
            (
                "SELECT COUNT(*) FROM NYCTaxi n WHERE n.Vendor = 999",
                row(vec![Value::Int64(0)]),
            ),
            (
                "SELECT COUNT(*) FROM Parks p, Wildfires w \
                 WHERE st_contains(p.boundary, w.location) AND p.tags = 'no such tag'",
                row(vec![Value::Int64(0)]),
            ),
            (
                "SELECT SUM(n.Vendor), MIN(n.Vendor), MAX(n.Vendor), AVG(n.Vendor), \
                 COUNT(n.Vendor) FROM NYCTaxi n WHERE n.Vendor = 999",
                row(vec![
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Null,
                    Value::Int64(0),
                ]),
            ),
            (
                "SELECT n.Vendor, COUNT(*) FROM NYCTaxi n WHERE n.Vendor = 999 \
                 GROUP BY n.Vendor",
                Vec::new(),
            ),
        ];
        for (sql, want) in cases {
            assert_eq!(rows_of(&session, sql), want, "{mode}: {sql}");
        }
    }
}

#[test]
fn a_served_join_does_not_keep_its_join_from_being_dropped() {
    let tier = ServingTier::new(Arc::new(sample_session(40, 2).unwrap()));
    tier.serve(1, SPATIAL).unwrap();
    tier.serve(1, SPATIAL).unwrap();
    tier.serve(1, "DROP JOIN st_contains").unwrap();
    // `st_contains` is a scalar built-in too: without the join, the same
    // text is re-planned as the on-top nested-loop join.
    let after = tier.serve(1, SPATIAL).unwrap();
    let phases = after.metrics().fingerprint().phases;
    assert!(!phases.iter().any(|p| p == "summarize"), "{phases:?}");
    assert_eq!(tier.stats().plan_cache_misses, 2);
}

#[test]
fn a_served_plan_obeys_the_memory_budget_set_after_it_was_cached() {
    let tier = ServingTier::new(Arc::new(sample_session(400, 2).unwrap()));
    tier.session().execute("SET result_cache = off").unwrap();
    assert_eq!(tier.serve(1, SPATIAL).unwrap().metrics().spilled_rows, 0);
    tier.session()
        .execute("SET memory_budget_rows = 8")
        .unwrap();
    let served = tier.serve(1, SPATIAL).unwrap();
    assert_eq!(
        tier.stats().plan_cache_hits,
        1,
        "the plan came from the cache"
    );

    let fresh = sample_session(400, 2).unwrap();
    fresh.execute("SET memory_budget_rows = 8").unwrap();
    let direct = fresh.execute(SPATIAL).unwrap();
    assert!(direct.metrics().spilled_rows > 0);
    assert_eq!(served.metrics().spilled_rows, direct.metrics().spilled_rows);
}

/// Hits, misses and evictions of `session`'s plan cache.
fn plans(session: &Session) -> (u64, u64, u64) {
    let CacheCounters {
        hits,
        misses,
        evictions,
    } = session.plan_cache_counters();
    (hits, misses, evictions)
}

#[test]
fn repeated_statements_bind_and_optimize_once() {
    for statement in [SELECT, EXECUTE] {
        let session = sample_session(60, 2).unwrap();
        session.execute(PREPARE).unwrap();
        let (rows, first) = rows_and_snapshot(session.execute(statement).unwrap());
        assert_eq!(plans(&session), (0, 1, 0), "{statement}");
        let (again, second) = rows_and_snapshot(session.execute(statement).unwrap());
        assert_eq!(plans(&session), (1, 1, 0), "{statement}");
        assert_eq!(again, rows, "{statement}");
        assert_eq!(
            query_counters(&second),
            query_counters(&first),
            "{statement}"
        );
    }
}

#[test]
fn set_options_empties_the_plan_cache() {
    let mut session = sample_session(40, 2).unwrap();
    let phases = |out: QueryOutput| out.metrics().fingerprint().phases;
    let fudj = phases(session.execute(SPATIAL).unwrap());
    assert!(fudj.iter().any(|p| p == "summarize"), "{fudj:?}");
    session.set_options(PlanOptions {
        force_on_top: true,
        ..PlanOptions::default()
    });
    let on_top = phases(session.execute(SPATIAL).unwrap());
    assert!(!on_top.iter().any(|p| p == "summarize"), "{on_top:?}");
    assert_eq!(plans(&session), (0, 2, 0));
}

#[test]
fn join_and_dataset_ddl_make_the_next_lookup_a_miss() {
    let session = sample_session(40, 2).unwrap();
    let count = "SELECT COUNT(*) AS c FROM NYCTaxi n";
    session.execute(count).unwrap();
    session.execute(count).unwrap();
    assert_eq!(plans(&session), (1, 1, 0));

    session
        .execute(
            r#"CREATE JOIN st_contains2(a: polygon, b: point)
               RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins"#,
        )
        .unwrap();
    session.execute(count).unwrap();
    assert_eq!(plans(&session), (1, 2, 0), "CREATE JOIN");

    // Re-registering the table: the cached plan scans the old dataset.
    let old = session.catalog().get("NYCTaxi").unwrap();
    session.catalog().drop_dataset("NYCTaxi").unwrap();
    let taxi = fudj_datagen::nyctaxi(fudj_datagen::GeneratorConfig::new(7, 3, 2)).unwrap();
    session.register_dataset(taxi).unwrap();
    let after = rows_of(&session, count);
    assert_eq!(plans(&session), (1, 3, 0), "dataset re-registration");
    assert_eq!(after, vec![Row::new(vec![Value::Int64(7)])]);
    assert_ne!(old.len(), 7);
}
