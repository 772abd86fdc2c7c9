//! One front door: the same SELECT typed as a SELECT, `EXECUTE`d,
//! `submit`ted and served by the tier goes through one run path, so all
//! four are journaled, sealed and durability-stamped alike.

use fudj_exec::{CounterFingerprint, MetricsSnapshot};
use fudj_serve::{sample_session, ServingTier};
use fudj_sql::QueryOutput;
use fudj_storage::wal::WalRecord;
use fudj_storage::{fold_journal, DurableStore, FaultFs, StorageFaultConfig};
use fudj_types::Row;
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
