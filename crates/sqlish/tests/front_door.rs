//! One front door: the same SELECT typed as a SELECT, `EXECUTE`d,
//! `submit`ted, served by the tier, measured by `EXPLAIN ANALYZE` or
//! resumed after a crash goes through one run path — it is a scheduler
//! job — so all of them are journaled, sealed and durability-stamped
//! alike, and all of them obey the scheduler's knobs.

use fudj_exec::{CounterFingerprint, MetricsSnapshot};
use fudj_sched::{JobInfo, JobState};
use fudj_serve::{sample_session, ServingTier};
use fudj_sql::{QueryOutput, Session};
use fudj_storage::wal::WalRecord;
use fudj_storage::{fold_journal, DurableStore, FaultFs, StorageFaultConfig};
use fudj_types::{FudjError, Row};
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
