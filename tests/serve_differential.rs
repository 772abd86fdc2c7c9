//! Serving-tier differential suite: the tentpole invariant of the
//! multi-tenant serving tier is that **caching is invisible** — with the
//! session's plan cache and the tier's result cache on, under continuous
//! ingest and under seeded chaos, every response is bit-identical (rows,
//! and execution counters modulo the tier-scoped serving block) to a
//! cache-free oracle session holding the same data.
//!
//! The workload is the seeded multi-tenant generator (Zipf-skewed shape
//! popularity over all four join classes), with a table append injected
//! every few statements into *both* engines — so cached entries go stale
//! mid-run and the tier must invalidate rather than serve the old answer.
//! The chaos variant re-runs the differential under the pinned fault-seed
//! matrix (`CHAOS_SEEDS` overrides it, as in the other suites).

use fudj_repro::exec::FaultConfig;
use fudj_repro::serve::{generate, sample_session, MixProfile, ServingTier, WorkloadConfig};
use fudj_repro::sql::{QueryOutput, Session};
use fudj_repro::storage::{FaultFs, StorageFaultConfig};
use fudj_repro::types::{FudjError, Row, Value};
use std::sync::Arc;

const RECORDS: usize = 60;
const WORKERS: usize = 2;
/// Workload seed, fixed across fault seeds so cache behavior (hits,
/// invalidations) is identical in every chaos run.
const WORKLOAD_SEED: u64 = 9;

/// Seed matrix for the chaos differential (CI pins five seeds via
/// `CHAOS_SEEDS`; the default matches that matrix).
fn seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("CHAOS_SEEDS must be u64s"))
            .collect(),
        Err(_) => vec![101, 202, 303, 404, 505],
    }
}

/// Two identically-seeded engines: the tier's (caches on) and the
/// cache-free oracle's, optionally both under the same fault seed.
fn engines(fault_seed: Option<u64>) -> (ServingTier, Arc<Session>) {
    let mut tiered = sample_session(RECORDS, WORKERS).expect("sample session");
    let mut oracle = sample_session(RECORDS, WORKERS).expect("sample session");
    // Every session caches plans; the oracle binds and optimizes afresh.
    oracle.execute("SET plan_cache_entries = 0").unwrap();
    if let Some(seed) = fault_seed {
        tiered.set_faults(Some(FaultConfig::chaos(seed)));
        oracle.set_faults(Some(FaultConfig::chaos(seed)));
    }
    (ServingTier::new(Arc::new(tiered)), Arc::new(oracle))
}

/// Append one deterministic row to `NYCTaxi` (the most popular shape
/// family's table) in one engine.
fn ingest(session: &Session, step: u64) {
    let taxi = session.catalog().get("NYCTaxi").expect("sample table");
    let mut values = taxi.all_rows()[0].clone().into_values();
    values[0] = Value::Uuid(u128::from(0x5e21_0000 + step));
    taxi.insert(Row::new(values)).expect("append");
}

/// Serve every workload statement through the tier and through the
/// oracle, ingesting into both engines every eighth statement, and demand
/// bit-identical responses throughout.
fn differential(fault_seed: Option<u64>) {
    let (tier, oracle) = engines(fault_seed);
    let ops = generate(&WorkloadConfig {
        tenants: 6,
        ops: 48,
        seed: WORKLOAD_SEED,
        profile: MixProfile::ShapeSkewed(1.1),
        priority_classes: 3,
    });

    for (i, op) in ops.iter().enumerate() {
        if i % 8 == 7 {
            ingest(tier.session(), i as u64);
            ingest(&oracle, i as u64);
        }
        let served = tier
            .serve_with_priority(op.tenant, op.priority, &op.sql)
            .unwrap_or_else(|e| panic!("tier failed op {i} ({}): {e}", op.sql));
        let direct = oracle
            .execute(&op.sql)
            .unwrap_or_else(|e| panic!("oracle failed op {i} ({}): {e}", op.sql));
        match (served, direct) {
            (QueryOutput::Rows(sb, ss), QueryOutput::Rows(ob, os)) => {
                assert_eq!(
                    sb.rows(),
                    ob.rows(),
                    "op {i} ({}) rows diverged from the oracle under seed {fault_seed:?}",
                    op.sql
                );
                let mut sf = ss.fingerprint();
                let mut of = os.fingerprint();
                sf.serving = Default::default();
                of.serving = Default::default();
                assert_eq!(
                    sf, of,
                    "op {i} ({}) execution counters diverged under seed {fault_seed:?}",
                    op.sql
                );
            }
            _ => panic!("op {i} ({}) did not return rows", op.sql),
        }
    }

    // The run must be non-vacuous: the caches answered some statements,
    // and the interleaved ingest forced real invalidations.
    let stats = tier.stats();
    assert!(
        stats.result_cache_hits > 0,
        "differential never hit the result cache: {stats:?}"
    );
    assert!(
        stats.result_cache_invalidations > 0,
        "ingest never invalidated a cached result: {stats:?}"
    );
    assert_eq!(stats.rejections, 0, "no statement may be rejected");
    assert_eq!(
        stats.admissions + stats.result_cache_hits,
        ops.len() as u64,
        "every statement was either executed or served from cache"
    );
}

/// Fault-free differential under continuous ingest.
#[test]
fn cached_serving_matches_uncached_oracle_under_ingest() {
    differential(None);
}

/// The same differential under every pinned chaos seed: injected faults
/// and their recoveries stay invisible through the caches too.
#[test]
fn cached_serving_matches_oracle_under_chaos_seeds() {
    for seed in seeds() {
        differential(Some(seed));
    }
}

/// The no-stale-read guarantee, end to end: an ingest between two
/// identical statements forces a recompute whose answer matches the
/// oracle, with the hit/invalidation counters proving the cache actually
/// participated (warm hit before, invalidation after, no stale hit).
#[test]
fn ingest_between_identical_queries_is_never_stale() {
    let (tier, oracle) = engines(None);
    let sql = "SELECT COUNT(*) AS c FROM NYCTaxi n";
    let count = |out: &QueryOutput| match out {
        QueryOutput::Rows(b, _) => b.rows()[0].get(0).as_i64().unwrap(),
        other => panic!("{other:?}"),
    };

    tier.serve(3, sql).unwrap();
    let warm = tier.serve(3, sql).unwrap();
    assert_eq!(tier.stats().result_cache_hits, 1, "second serve must hit");

    ingest(tier.session(), 1);
    ingest(&oracle, 1);

    let recomputed = tier.serve(3, sql).unwrap();
    let direct = oracle.execute(sql).unwrap();
    assert_eq!(count(&recomputed), count(&direct), "stale read");
    assert_eq!(count(&recomputed), count(&warm) + 1, "new row visible");

    let stats = tier.stats();
    assert_eq!(stats.result_cache_hits, 1, "stale entry must not hit");
    assert_eq!(stats.result_cache_invalidations, 1, "epoch move detected");
    // One hit: the first serve planned it, the second was a result hit
    // that never reached the plan cache, the recompute reused the plan.
    assert_eq!(stats.plan_cache_hits, 1, "recompute reused the cached plan");
}

/// Kill the tier's process mid-workload and restart it: the journaled
/// in-flight EXECUTE is delivered exactly once through `take_resumed`,
/// the recovered epochs admit zero stale result-cache hits (the first
/// post-restart serve recomputes over WAL-recovered data, ingest and
/// all), and the plan cache repopulates on the first re-execution.
#[test]
fn tier_kill_and_restart_resumes_in_flight_execute_without_stale_reads() {
    const PREPARE: &str =
        "PREPARE by_vendor AS SELECT COUNT(*) AS c FROM NYCTaxi n WHERE n.Vendor = $1";
    const COUNT_SQL: &str = "SELECT COUNT(*) AS c FROM NYCTaxi n";
    const EXECUTE_SQL: &str = "EXECUTE by_vendor(1)";
    let count = |out: &QueryOutput| match out {
        QueryOutput::Rows(b, _) => b.rows()[0].get(0).as_i64().unwrap(),
        other => panic!("{other:?}"),
    };

    // Crash on the *second* QuerySubmitted append: the first SELECT seals
    // normally, the EXECUTE's journal entry lands durably but the process
    // dies before the statement runs — the in-flight window the journal
    // exists for.
    let fs = FaultFs::new(StorageFaultConfig::crash_at(7, "journal:submit", 2));
    let dir = "/serve-kill-resume";

    let first = sample_session(RECORDS, WORKERS).expect("sample session");
    first.execute(PREPARE).unwrap();
    first.execute("SET checkpoint_durable = on").unwrap();
    first.open_wal_with(dir, fs.clone()).unwrap();
    let tier = ServingTier::new(Arc::new(first));

    let warm = tier.serve(3, COUNT_SQL).unwrap();
    tier.serve(3, COUNT_SQL).unwrap();
    assert_eq!(
        tier.stats().result_cache_hits,
        1,
        "warm hit before the kill"
    );
    ingest(tier.session(), 1);
    let killed = tier.serve(5, EXECUTE_SQL);
    assert!(
        matches!(killed, Err(FudjError::Crash(_))),
        "the armed journal:finish crash must kill the in-flight EXECUTE: {killed:?}"
    );
    drop(tier);

    // Restart: rebuild the session, re-PREPARE the deployment's templates
    // *before* reopening (journaled EXECUTEs resolve by name), reopen the
    // same virtual disk, and stand up a fresh tier over it.
    fs.reopen_after_crash();
    let second = sample_session(RECORDS, WORKERS).expect("sample session");
    second.execute(PREPARE).unwrap();
    second.execute("SET checkpoint_durable = on").unwrap();
    second.open_wal_with(dir, fs).unwrap();
    let tier = ServingTier::new(Arc::new(second));

    // The in-flight EXECUTE comes back exactly once, with the answer an
    // uninterrupted oracle (same data, same ingest) computes.
    let oracle = sample_session(RECORDS, WORKERS).expect("sample session");
    oracle.execute("SET plan_cache_entries = 0").unwrap();
    oracle.execute(PREPARE).unwrap();
    ingest(&oracle, 1);
    let want = oracle.execute(EXECUTE_SQL).unwrap();
    let resumed = tier.take_resumed();
    assert_eq!(
        resumed.len(),
        1,
        "exactly the one unfinished EXECUTE resumes"
    );
    assert_eq!(resumed[0].sql, EXECUTE_SQL);
    let (batch, _) = resumed[0].result.as_ref().expect("resume must succeed");
    assert_eq!(
        batch.rows(),
        want.batch().rows(),
        "resumed EXECUTE diverges"
    );

    // Zero stale reads: the restarted tier's caches are cold, so the first
    // serve recomputes — over recovered data that includes the pre-crash
    // ingest — instead of replaying the pre-crash cached answer.
    let recomputed = tier.serve(3, COUNT_SQL).unwrap();
    assert_eq!(
        count(&recomputed),
        count(&warm) + 1,
        "restart must not lose the journaled ingest"
    );
    assert_eq!(
        tier.stats().result_cache_hits,
        0,
        "a pre-crash cache entry leaked across the restart"
    );
    tier.serve(3, COUNT_SQL).unwrap();
    assert_eq!(tier.stats().result_cache_hits, 1, "fresh cache works again");

    // The plan cache is the session's, so the resume above already cached
    // the EXECUTE's plan: the first serve of it misses only the result
    // cache and hits that plan, and after an ingest invalidates the result
    // entry, the recompute hits it again. Two hits.
    tier.serve(5, EXECUTE_SQL).unwrap();
    ingest(tier.session(), 2);
    tier.serve(5, EXECUTE_SQL).unwrap();
    let stats = tier.stats();
    assert!(
        stats.result_cache_invalidations >= 1,
        "post-restart ingest must invalidate the cached result: {stats:?}"
    );
    assert_eq!(
        stats.plan_cache_hits, 2,
        "the resume must populate the plan cache: {stats:?}"
    );
}
