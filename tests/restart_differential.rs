//! Whole-process crash-restart resumption: for every query-journal crash
//! site (and every PR-8 storage crash site, which the journal writes now
//! also traverse), under a pinned seed matrix, run a journaled query
//! workload until the injected crash kills the "process", reopen the same
//! virtual disk, and assert that
//!
//! 1. reopening never panics and never errors — the journal replays,
//!    finished queries are dropped, unfinished queries re-execute,
//! 2. every resumed query's rows AND logical [`CounterFingerprint`] are
//!    identical to an uninterrupted oracle run of the same statement
//!    (the journal's counter seed makes a boundary-resume
//!    indistinguishable from a full run),
//! 3. a second crash during the resume itself is also survivable, and a
//!    further reopen changes nothing (idempotent, exactly-once), and
//! 4. sealed journals leave no durable checkpoint frames behind.
//!
//! Seeds come from `CHAOS_SEEDS` (comma-separated, default pinned matrix)
//! so CI can widen the sweep without a code change.

use fudj_repro::core::FaultConfig;
use fudj_repro::datagen::{parks, wildfires, GeneratorConfig};
use fudj_repro::exec::{CounterFingerprint, MetricsSnapshot};
use fudj_repro::joins::standard_library;
use fudj_repro::sql::{QueryOutput, Session};
use fudj_repro::storage::{
    DatasetBuilder, FaultFs, StorageFaultConfig, Vfs, CHECKPOINT_DIR, CRASH_POINTS,
    QUERY_CRASH_POINTS,
};
use fudj_repro::types::{Batch, DataType, Field, FudjError, Row, Schema, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

fn seeds() -> Vec<u64> {
    std::env::var("CHAOS_SEEDS")
        .unwrap_or_else(|_| "101,202,303,404,505".into())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect()
}

/// The journaled query workload: a UDF join feeding an aggregate (both
/// `join:combine` and `agg:shuffle` boundaries) plus a plain aggregate.
const QUERIES: &[&str] = &[
    "SELECT p.id, COUNT(w.id) AS num_fires FROM Parks p, Wildfires w \
     WHERE ST_Contains(p.boundary, w.location) GROUP BY p.id ORDER BY num_fires DESC",
    "SELECT k.tag, COUNT(*) AS c FROM kv k GROUP BY k.tag ORDER BY k.tag",
    "SELECT COUNT(*) AS c FROM Wildfires w",
];

const CREATE_ST: &str = r#"CREATE JOIN st_contains(a: polygon, b: point)
    RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins"#;

/// A session with the workload's datasets and joins registered — the
/// same deterministic state on every construction, so a fresh in-memory
/// session is a valid oracle for a crashed-and-reopened one.
fn make_session() -> Session {
    let s = Session::new(3);
    s.install_library(standard_library());
    s.register_dataset(parks(GeneratorConfig::new(40, 1, 3)).unwrap())
        .unwrap();
    s.register_dataset(wildfires(GeneratorConfig::new(80, 2, 3)).unwrap())
        .unwrap();
    let kv = DatasetBuilder::new(
        "kv",
        Schema::shared(vec![
            Field::new("id", DataType::Int64),
            Field::new("tag", DataType::String),
        ]),
    )
    .primary_key("id")
    .partitions(3)
    .build()
    .unwrap();
    kv.insert_all(
        (0..24).map(|i| Row::new(vec![Value::Int64(i), Value::str(format!("t{}", i % 4))])),
    )
    .unwrap();
    s.register_dataset(kv).unwrap();
    s.execute(CREATE_ST).unwrap();
    s
}

fn sorted_rows(batch: &Batch) -> Vec<Row> {
    let mut rows = batch.rows().to_vec();
    rows.sort();
    rows
}

/// Normalize a snapshot for logical comparison: resume bookkeeping,
/// checkpoint restore reads, and the session/tier-scoped counter blocks
/// differ by construction between a resumed run and the oracle.
fn logical_fingerprint(snapshot: &MetricsSnapshot) -> CounterFingerprint {
    let mut fp = snapshot.fingerprint();
    fp.recovery.stages_resumed = 0;
    fp.recovery.resume_rows_restored = 0;
    fp.recovery.resume_full_replays = 0;
    fp.recovery.checkpoints_read = 0;
    fp.durability = Default::default();
    fp.serving = Default::default();
    fp
}

/// Oracle rows + normalized fingerprint, keyed by workload statement.
type OracleMap = BTreeMap<&'static str, (Vec<Row>, CounterFingerprint)>;

/// Uninterrupted oracle: each query's rows + normalized fingerprint from
/// a plain in-memory run (no WAL, no journal, no faults). Deterministic,
/// so it is computed once for the whole matrix.
fn oracle() -> Arc<OracleMap> {
    use std::sync::OnceLock;
    static ORACLE: OnceLock<Arc<OracleMap>> = OnceLock::new();
    ORACLE
        .get_or_init(|| {
            let s = make_session();
            // The oracle checkpoints at every boundary too (in-memory
            // tier only), so checkpoint write counters match runs that
            // executed under the durable tier's `All` policy.
            s.execute("SET checkpoint_stages = all").unwrap();
            let mut map = BTreeMap::new();
            for &sql in QUERIES {
                let out = s.execute(sql).unwrap();
                map.insert(
                    sql,
                    (sorted_rows(out.batch()), logical_fingerprint(out.metrics())),
                );
            }
            Arc::new(map)
        })
        .clone()
}

/// Outcome of one crash/reopen cycle, aggregated for non-vacuity checks.
#[derive(Default)]
struct RunTally {
    crashed: bool,
    resumed_queries: usize,
    boundary_resumes: u64,
    full_replays: u64,
}

/// Run the journaled workload until the armed crash fires, reopen the
/// same virtual disk, and check every resumed query against the oracle.
fn run_one(site: &str, seed: u64) -> RunTally {
    // Vary when the crash strikes, bounded by how often each site is
    // traversed: journal sites fire once or twice per query, checkpoint
    // and WAL writes many times per query, snapshot/manifest/rotate
    // sites only during the workload's two `\persist` steps.
    let hit = if site.starts_with("checkpoint:") || site == "wal:append" || site == "wal:sync" {
        1 + seed % 6
    } else if site.starts_with("journal:") {
        1 + seed % 3
    } else {
        1 + seed % 2
    };
    let fs = FaultFs::new(StorageFaultConfig::crash_at(seed, site, hit));
    let dir = format!("/restart-{}-{seed}", site.replace(':', "-"));
    let mut tally = RunTally::default();

    let session = make_session();
    session.execute("SET checkpoint_durable = on").unwrap();
    match session.open_wal_with(&dir, fs.clone()) {
        Ok(()) => {
            // Interleave persists so the snapshot/manifest/rotate crash
            // sites are traversed alongside the query-journal sites.
            let steps: Vec<Option<&str>> = vec![
                Some(QUERIES[0]),
                None, // persist
                Some(QUERIES[1]),
                Some(QUERIES[2]),
                None, // persist
            ];
            for step in steps {
                let result = match step {
                    Some(sql) => session.execute(sql).map(Some),
                    None => session.persist().map(|_| None),
                };
                match result {
                    Ok(Some(out)) => {
                        // An acknowledged result must already be correct.
                        let sql = step.unwrap();
                        let (want_rows, _) = &oracle()[sql];
                        assert_eq!(
                            &sorted_rows(out.batch()),
                            want_rows,
                            "[{site} seed {seed}] pre-crash answer diverges"
                        );
                    }
                    Ok(None) => {}
                    Err(FudjError::Crash(_)) => {
                        tally.crashed = true;
                        break;
                    }
                    Err(e) => panic!("[{site} seed {seed}] non-crash step failure: {e}"),
                }
            }
        }
        Err(e) => {
            assert!(
                matches!(e, FudjError::Crash(_)),
                "[{site} seed {seed}] initial open failed with a non-crash error: {e}"
            );
            tally.crashed = true;
        }
    }
    drop(session);

    // Restart: same virtual disk, crash flag cleared, faults disarmed.
    fs.reopen_after_crash();
    let recovered = make_session();
    recovered.execute("SET checkpoint_durable = on").unwrap();
    recovered
        .open_wal_with(&dir, fs.clone())
        .unwrap_or_else(|e| panic!("[{site} seed {seed}] reopen failed: {e}"));

    for resumed in recovered.take_resumed() {
        tally.resumed_queries += 1;
        let sql = resumed.sql.as_str();
        let (want_rows, want_fp) = oracle()
            .get(sql)
            .cloned()
            .unwrap_or_else(|| panic!("[{site} seed {seed}] journal invented query {sql:?}"));
        let (batch, snapshot) = resumed
            .result
            .unwrap_or_else(|e| panic!("[{site} seed {seed}] resume of {sql:?} failed: {e}"));
        assert_eq!(
            sorted_rows(&batch),
            want_rows,
            "[{site} seed {seed}] resumed rows diverge for {sql:?} \
             (resumed_from {:?})",
            resumed.resumed_from
        );
        assert_eq!(
            logical_fingerprint(&snapshot),
            want_fp,
            "[{site} seed {seed}] resumed counter fingerprint diverges for {sql:?} \
             (resumed_from {:?})",
            resumed.resumed_from
        );
        tally.boundary_resumes += snapshot.recovery.stages_resumed;
        tally.full_replays += snapshot.recovery.resume_full_replays;
    }

    // Exactly-once: every journal entry is now sealed, so one more
    // restart resumes nothing and observes the same catalog state.
    drop(recovered);
    let again = make_session();
    again
        .open_wal_with(&dir, fs.clone())
        .unwrap_or_else(|e| panic!("[{site} seed {seed}] second reopen failed: {e}"));
    assert!(
        again.take_resumed().is_empty(),
        "[{site} seed {seed}] sealed journal re-resumed — results would be delivered twice"
    );
    // Disk hygiene: sealed queries drop their checkpoint frames.
    assert_eq!(
        fs.list(&std::path::Path::new(&dir).join(CHECKPOINT_DIR))
            .unwrap(),
        Vec::<String>::new(),
        "[{site} seed {seed}] checkpoint frames leaked past QueryFinished"
    );
    tally
}

#[test]
fn every_query_crash_site_resumes_to_the_oracle() {
    let seeds = seeds();
    assert!(!seeds.is_empty(), "CHAOS_SEEDS must name at least one seed");
    let mut total = RunTally::default();
    for site in QUERY_CRASH_POINTS.iter().chain(CRASH_POINTS) {
        let mut site_crashes = 0usize;
        for &seed in &seeds {
            let tally = run_one(site, seed);
            site_crashes += tally.crashed as usize;
            total.resumed_queries += tally.resumed_queries;
            total.boundary_resumes += tally.boundary_resumes;
            total.full_replays += tally.full_replays;
        }
        assert!(
            site_crashes > 0,
            "crash site {site} never fired across the seed matrix — the sweep is \
             vacuous for this site"
        );
    }
    // The matrix must exercise the interesting machinery, not just crash
    // before anything was journaled.
    assert!(
        total.resumed_queries > 0,
        "no run left an unfinished journaled query to resume"
    );
    assert!(
        total.boundary_resumes > 0,
        "no resume restored a committed stage boundary — every run fell back to \
         full replay, so the checkpoint path is untested"
    );
    assert!(
        total.full_replays + (total.resumed_queries as u64) > total.boundary_resumes,
        "sanity: tallies are internally consistent"
    );
}

/// A crash during the resume itself (double crash) must leave the journal
/// in a state a *third* process can still recover: resume again, reach the
/// oracle answer, and seal everything exactly once.
#[test]
fn double_crash_during_resume_is_idempotent() {
    for &seed in &seeds() {
        let fs = FaultFs::new(StorageFaultConfig::crash_at(
            seed,
            "journal:stage",
            2 + seed % 2,
        ));
        let dir = format!("/restart-double-{seed}");

        let session = make_session();
        session.execute("SET checkpoint_durable = on").unwrap();
        let mut crashed = session.open_wal_with(&dir, fs.clone()).is_err();
        if !crashed {
            for &sql in QUERIES {
                if session.execute(sql).is_err() {
                    crashed = true;
                    break;
                }
            }
        }
        drop(session);
        if !crashed {
            continue; // this seed never reached the armed site
        }

        // Second process: arm a *different* crash so the resume itself can
        // die mid-flight (checkpoint writes happen during resumed stages).
        fs.reopen_after_crash();
        fs.set_config(StorageFaultConfig::crash_at(
            seed ^ 0xff,
            "checkpoint:write",
            1,
        ));
        let second = make_session();
        second.execute("SET checkpoint_durable = on").unwrap();
        match second.open_wal_with(&dir, fs.clone()) {
            Ok(()) => {
                // Resume results may individually be crash errors; nothing
                // may be a wrong answer.
                for resumed in second.take_resumed() {
                    if let Ok((batch, _)) = resumed.result {
                        let (want_rows, _) = &oracle()[resumed.sql.as_str()];
                        assert_eq!(&sorted_rows(&batch), want_rows, "[double seed {seed}]");
                    }
                }
            }
            Err(e) => assert!(
                matches!(e, FudjError::Crash(_)),
                "[double seed {seed}] second open failed non-crash: {e}"
            ),
        }
        drop(second);

        // Third process: quiet disk; everything left pending resumes to
        // the oracle answer and the journal seals.
        fs.reopen_after_crash();
        fs.set_config(StorageFaultConfig::quiet(seed));
        let third = make_session();
        third.execute("SET checkpoint_durable = on").unwrap();
        third
            .open_wal_with(&dir, fs.clone())
            .unwrap_or_else(|e| panic!("[double seed {seed}] third open failed: {e}"));
        for resumed in third.take_resumed() {
            let (want_rows, want_fp) = &oracle()[resumed.sql.as_str()];
            let (batch, snapshot) = resumed
                .result
                .unwrap_or_else(|e| panic!("[double seed {seed}] final resume failed: {e}"));
            assert_eq!(&sorted_rows(&batch), want_rows, "[double seed {seed}]");
            assert_eq!(
                &logical_fingerprint(&snapshot),
                want_fp,
                "[double seed {seed}] fingerprint diverges after double crash"
            );
        }
        drop(third);

        fs.reopen_after_crash();
        let fourth = make_session();
        fourth.open_wal_with(&dir, fs).unwrap();
        assert!(
            fourth.take_resumed().is_empty(),
            "[double seed {seed}] journal did not seal after the third process"
        );
    }
}

/// Crash-resume cycles on the real filesystem leave no staging litter and
/// no orphaned checkpoint frames in the WAL directory tree.
#[test]
fn crash_resume_cycles_leave_no_disk_litter() {
    let dir = std::env::temp_dir().join(format!("fudj-restart-litter-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let s = make_session();
        s.execute("SET checkpoint_durable = on").unwrap();
        s.open_wal(dir.to_str().unwrap()).unwrap();
        for &sql in QUERIES {
            s.execute(sql).unwrap();
        }
        s.persist().unwrap();
    }
    {
        // Reopen (nothing pending) and run once more.
        let s = make_session();
        s.execute("SET checkpoint_durable = on").unwrap();
        s.open_wal(dir.to_str().unwrap()).unwrap();
        assert!(s.take_resumed().is_empty());
        s.execute(QUERIES[1]).unwrap();
    }
    let mut stack = vec![dir.clone()];
    let mut litter = Vec::new();
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).unwrap().filter_map(|e| e.ok()) {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
                continue;
            }
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.ends_with(".tmp") || name.ends_with(".fudj-probe") || name.ends_with(".fckpt") {
                litter.push(path.display().to_string());
            }
        }
    }
    assert_eq!(
        litter,
        Vec::<String>::new(),
        "sealed queries must leave no checkpoint frames or staging files"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `QUERIES[0]` over tables large enough that the join matches (the
/// workload's 40 parks and 80 fires match nothing). Its aggregate reads
/// the join directly, so its Step 1 runs inside COMBINE and
/// `join:combine` holds partials, not joined rows.
fn folded_session() -> Session {
    let s = Session::new(3);
    s.install_library(standard_library());
    s.register_dataset(parks(GeneratorConfig::new(200, 1, 3)).unwrap())
        .unwrap();
    s.register_dataset(wildfires(GeneratorConfig::new(2000, 2, 3)).unwrap())
        .unwrap();
    s.execute(CREATE_ST).unwrap();
    let QueryOutput::Plan(plan) = s.execute(&format!("EXPLAIN {}", QUERIES[0])).unwrap() else {
        panic!("EXPLAIN returns a plan")
    };
    assert!(
        plan.contains("; step 1 in COMBINE]\n    FudjJoin"),
        "{plan}"
    );
    s
}

/// The uninterrupted folded run: rows and normalized fingerprint, with
/// every boundary checkpointed as under the durable tier.
fn folded_oracle() -> (Vec<Row>, CounterFingerprint) {
    let s = folded_session();
    s.execute("SET checkpoint_stages = all").unwrap();
    let out = s.execute(QUERIES[0]).unwrap();
    let rows = sorted_rows(out.batch());
    assert!(rows.len() > 5, "the join must match: {rows:?}");
    (rows, logical_fingerprint(out.metrics()))
}

/// A folded aggregate crashed at each `journal:stage` write resumes to the
/// uninterrupted run's rows and logical counters; crashed once
/// `join:combine` is journaled, it resumes from the partials that boundary
/// checkpointed, straight into Step 2.
#[test]
fn folded_aggregate_crashed_after_join_combine_resumes_from_its_partials() {
    let (want_rows, want_fp) = folded_oracle();
    let mut from_combine = 0;
    for hit in 1..=3 {
        let fs = FaultFs::new(StorageFaultConfig::crash_at(7, "journal:stage", hit));
        let dir = format!("/restart-folded-{hit}");
        let session = folded_session();
        session.execute("SET checkpoint_durable = on").unwrap();
        session.open_wal_with(&dir, fs.clone()).unwrap();
        match session.execute(QUERIES[0]) {
            Err(FudjError::Crash(_)) => {}
            other => panic!("[hit {hit}] expected a crash, got {:?}", other.map(|_| ())),
        }
        drop(session);

        fs.reopen_after_crash();
        let recovered = folded_session();
        recovered.execute("SET checkpoint_durable = on").unwrap();
        recovered.open_wal_with(&dir, fs.clone()).unwrap();
        let resumed = recovered.take_resumed();
        assert_eq!(resumed.len(), 1, "[hit {hit}]");
        let (batch, snapshot) = resumed[0].result.as_ref().unwrap();
        assert_eq!(sorted_rows(batch), want_rows, "[hit {hit}]");
        assert_eq!(logical_fingerprint(snapshot), want_fp, "[hit {hit}]");
        if resumed[0].resumed_from.as_deref() == Some("join:combine") {
            from_combine += 1;
            // Step 2 starts from the restored partials: no verify call
            // and no pair runs again.
            assert_eq!(snapshot.recovery.stages_resumed, 1, "[hit {hit}]");
            assert!(snapshot.recovery.resume_rows_restored > 0, "[hit {hit}]");
        }
    }
    assert!(from_combine > 0, "no crash resumed at join:combine");
}

/// Worker deaths under chaos, without checkpoints, on a folded aggregate:
/// a death at `join:combine` replays the whole stage, which folds every
/// pair again (its `verify` calls count twice), and every seed returns
/// the quiet run's rows.
#[test]
fn folded_aggregate_survives_worker_deaths_under_chaos() {
    let (want_rows, want_fp) = folded_oracle();
    let (mut deaths, mut combine_replays) = (0, 0);
    for seed in seeds() {
        let mut session = folded_session();
        session.set_faults(Some(FaultConfig {
            worker_death_prob: 0.35,
            ..FaultConfig::chaos(seed)
        }));
        let out = session.execute(QUERIES[0]).unwrap();
        assert_eq!(sorted_rows(out.batch()), want_rows, "[seed {seed}]");
        let snap = out.metrics();
        deaths += snap.recovery.deaths_survived;
        if snap.verify_calls > want_fp.engine.verify_calls {
            combine_replays += 1;
            assert!(snap.recovery.full_stage_replays > 0, "[seed {seed}]");
        }
    }
    assert!(deaths > 0, "no worker died across the seed matrix");
    assert!(
        combine_replays > 0,
        "no death struck join:combine across the seed matrix"
    );
}
