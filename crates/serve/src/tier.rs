//! The serving tier: many logical tenants multiplexed over one engine.
//!
//! [`ServingTier`] sits between untrusted statement streams and a shared
//! [`Session`], adding what a deployment of recurring statement shapes
//! needs on top of the session's plan cache (which already runs parse →
//! bind → optimize once per shape, §VII-B): per-tenant priorities,
//! admission accounting, and a result cache that is *provably* never
//! stale — every cached entry carries the epoch vector of the tables
//! (and DDL state) it was computed from, and ingest bumps those epochs,
//! so a lookup whose epochs moved recomputes instead of serving the old
//! answer.
//!
//! ## Cache key
//!
//! The result cache keys on the session plan cache's
//! [`StatementKey`]: `(canonical shape text, literal parameter values)`,
//! see [`fudj_sql::fingerprint`]. Entries additionally store the epoch
//! vector; equality of the stored and current vectors is the freshness
//! proof.
//!
//! ## Concurrency
//!
//! The tier's mutable state lives behind one mutex, released around
//! planning and execution (the expensive parts), so concurrent tenants
//! overlap in the scheduler. Epochs are read *before* execution: if
//! ingest lands mid-query the entry is tagged with the older vector and
//! the next lookup conservatively recomputes — over-invalidation is
//! possible, stale reads are not.

use fudj_exec::{MetricsSnapshot, ServingStats};
use fudj_sql::ast::{SelectStatement, Statement};
use fudj_sql::{parse, LruCache, QueryOutput, Session, StatementKey};
use fudj_types::{Batch, FudjError, Result};
use std::sync::{Arc, Mutex};

/// The versions a cached result was computed from. Equality with the
/// current vector proves freshness.
#[derive(Clone, Debug, PartialEq, Eq)]
struct EpochVec {
    /// (dataset, ingest epoch) for every referenced table, in first-use
    /// order with duplicates removed.
    tables: Vec<(String, u64)>,
    /// Catalog DDL epoch (dataset register/drop).
    catalog_ddl: u64,
    /// Join-registry DDL epoch (CREATE/DROP JOIN).
    registry_ddl: u64,
}

struct CachedResult {
    batch: Batch,
    snapshot: MetricsSnapshot,
    epochs: EpochVec,
}

#[derive(Default)]
struct TierState {
    results: LruCache<StatementKey, CachedResult>,
    invalidations: u64,
    admissions: u64,
    rejections: u64,
    queue_depth_high_water: u64,
}

/// A multi-tenant serving front over one [`Session`].
pub struct ServingTier {
    session: Arc<Session>,
    state: Mutex<TierState>,
}

impl ServingTier {
    pub fn new(session: Arc<Session>) -> Self {
        let mut state = TierState::default();
        state
            .results
            .set_capacity(session.serving_config().result_cache_entries);
        ServingTier {
            session,
            state: Mutex::new(state),
        }
    }

    /// The underlying session (catalog, registry, scheduler).
    pub fn session(&self) -> &Arc<Session> {
        &self.session
    }

    /// Current serving counters: the tier's own, and the session's plan
    /// cache's.
    pub fn stats(&self) -> ServingStats {
        let state = self.lock();
        let p = self.session.plan_cache_counters();
        let r = state.results.counters();
        ServingStats {
            admissions: state.admissions,
            rejections: state.rejections,
            plan_cache_hits: p.hits,
            plan_cache_misses: p.misses,
            plan_cache_evictions: p.evictions,
            result_cache_hits: r.hits,
            result_cache_misses: r.misses,
            result_cache_invalidations: state.invalidations,
            result_cache_evictions: r.evictions,
            queue_depth_high_water: state.queue_depth_high_water,
        }
    }

    /// Serve one statement for `tenant` at scheduler priority 1.
    pub fn serve(&self, tenant: u32, sql: &str) -> Result<QueryOutput> {
        self.serve_with_priority(tenant, 1, sql)
    }

    /// Serve one statement for `tenant` with an explicit fair-share
    /// priority. SELECT and EXECUTE go through the result cache and the
    /// scheduler; PREPARE registers a template; everything else (SET,
    /// DDL, EXPLAIN) passes through to the session.
    pub fn serve_with_priority(
        &self,
        tenant: u32,
        priority: u32,
        sql: &str,
    ) -> Result<QueryOutput> {
        match parse(sql)? {
            Statement::Select(sel) => self.serve_select(tenant, priority, &sel, sql),
            Statement::Execute { name, params } => {
                let bound = self.session.bind_execute(&name, &params)?;
                self.serve_select(tenant, priority, &bound, sql)
            }
            Statement::Prepare { name, select } => {
                self.session.prepare_statement(&name, select);
                Ok(QueryOutput::Ack(format!("prepared {name}")))
            }
            _ => self.session.execute(sql),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TierState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The current epoch vector for `tables` (first-use order, deduped).
    /// `None` when a table is unknown — the planner will produce the
    /// proper error on the uncached path.
    fn current_epochs(&self, tables: &[String]) -> Option<EpochVec> {
        let catalog = self.session.catalog();
        let mut seen: Vec<(String, u64)> = Vec::with_capacity(tables.len());
        for name in tables {
            if seen.iter().any(|(n, _)| n == name) {
                continue;
            }
            let dataset = catalog.get(name).ok()?;
            seen.push((name.clone(), dataset.epoch()));
        }
        Some(EpochVec {
            tables: seen,
            catalog_ddl: catalog.ddl_epoch(),
            registry_ddl: self.session.registry().ddl_epoch(),
        })
    }

    /// Drain the session's journal-driven resume results: queries (SELECT
    /// or EXECUTE) that were in flight when the previous process died,
    /// re-executed exactly once by the reopening `SET wal_dir`. A serving
    /// deployment calls this after restart to deliver the recovered
    /// results; the result cache starts cold, so nothing stale survives.
    pub fn take_resumed(&self) -> Vec<fudj_sql::ResumedQuery> {
        self.session.take_resumed()
    }

    fn serve_select(
        &self,
        tenant: u32,
        priority: u32,
        sel: &SelectStatement,
        sql: &str,
    ) -> Result<QueryOutput> {
        let config = self.session.serving_config();
        let shape = fudj_sql::shape_of(sel);
        let epochs = self.current_epochs(&shape.tables);
        let key = shape.key();
        let results_on = config.result_cache_enabled && config.result_cache_entries > 0;

        if results_on {
            let mut state = self.lock();
            // Live `SET result_cache_entries`.
            state.results.set_capacity(config.result_cache_entries);
            if let Some(now) = &epochs {
                // An entry computed from older epochs (ingest or DDL in
                // between) is dropped and counted as an invalidation; the
                // lookup then counts the miss.
                if state.results.drop_stale(&key, |hit| &hit.epochs == now) {
                    state.invalidations += 1;
                }
                if let Some(hit) = state.results.get(&key) {
                    let batch = hit.batch.clone();
                    let snapshot = hit.snapshot.clone();
                    drop(state);
                    return Ok(self.stamped(batch, snapshot));
                }
            }
        }

        // Plan through the session's cache and execute through the
        // scheduler under the tenant's priority. The session journals the
        // statement (verbatim text) when `checkpoint_durable` is armed: a
        // crash mid-execution leaves it in-flight in the WAL, and the next
        // restart re-executes it exactly once.
        let label = format!("tenant {tenant}: {}", key.text);
        let handle = match self.session.submit_select(sel, sql, &label, Some(priority)) {
            Ok(handle) => {
                let queued = self.session.scheduler().in_flight() as u64;
                let mut state = self.lock();
                state.admissions += 1;
                state.queue_depth_high_water = state.queue_depth_high_water.max(queued);
                handle
            }
            Err(err) => {
                if matches!(err, FudjError::Admission(_)) {
                    self.lock().rejections += 1;
                }
                return Err(err);
            }
        };
        let (batch, snapshot) = handle.wait()?;

        if results_on {
            if let Some(epochs) = epochs {
                let cached = CachedResult {
                    batch: batch.clone(),
                    snapshot: snapshot.clone(),
                    epochs,
                };
                self.lock().results.insert(key, cached);
            }
        }
        Ok(self.stamped(batch, snapshot))
    }

    /// A response, with the serving counters as they are now.
    fn stamped(&self, batch: Batch, mut snapshot: MetricsSnapshot) -> QueryOutput {
        snapshot.serving = self.stats();
        QueryOutput::Rows(batch, Box::new(snapshot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::sample_session;
    use fudj_types::{Row, Value};

    fn tier() -> ServingTier {
        ServingTier::new(Arc::new(sample_session(40, 2).unwrap()))
    }

    fn rows(out: &QueryOutput) -> Vec<Row> {
        out.batch().rows().to_vec()
    }

    #[test]
    fn repeated_query_hits_both_caches_with_identical_rows() {
        let t = tier();
        let sql = "SELECT n.Vendor, COUNT(*) AS c FROM NYCTaxi n \
                   GROUP BY n.Vendor ORDER BY n.Vendor";
        let first = t.serve(1, sql).unwrap();
        let again = t.serve(2, sql).unwrap();
        assert_eq!(rows(&first), rows(&again));
        let stats = t.stats();
        assert_eq!(stats.result_cache_hits, 1);
        assert_eq!(stats.result_cache_misses, 1);
        assert_eq!(stats.plan_cache_misses, 1);
        assert_eq!(stats.admissions, 1, "the hit never reached the engine");
        // Fingerprints match modulo the tier-scoped serving counters.
        let mut a = first.metrics().fingerprint();
        let mut b = again.metrics().fingerprint();
        a.serving = Default::default();
        b.serving = Default::default();
        assert_eq!(a, b);
    }

    #[test]
    fn literal_changes_share_the_plan_shape_not_the_result() {
        let t = tier();
        let a = t
            .serve(1, "SELECT n.id FROM NYCTaxi n WHERE n.Vendor = 1 LIMIT 3")
            .unwrap();
        let b = t
            .serve(1, "SELECT n.id FROM NYCTaxi n WHERE n.Vendor = 2 LIMIT 3")
            .unwrap();
        assert_ne!(rows(&a), rows(&b));
        let stats = t.stats();
        // Same shape, different parameter: both plan-cache keys include
        // the literal values, so no false sharing of either cache.
        assert_eq!(stats.result_cache_hits, 0);
        assert_eq!(stats.plan_cache_hits, 0);
        assert_eq!(stats.admissions, 2);
        // Re-running the first literal is a double hit.
        t.serve(1, "SELECT n.id FROM NYCTaxi n  WHERE n.Vendor = 1 LIMIT 3")
            .unwrap();
        assert_eq!(t.stats().result_cache_hits, 1);
    }

    #[test]
    fn ingest_between_identical_queries_forces_recompute() {
        let t = tier();
        let sql = "SELECT COUNT(*) AS c FROM NYCTaxi n";
        let before = t.serve(7, sql).unwrap();
        t.serve(7, sql).unwrap();
        assert_eq!(t.stats().result_cache_hits, 1, "warm hit before ingest");

        // Append one row directly to the dataset (the serving tier must
        // see the epoch move no matter who ingests).
        let taxi = t.session().catalog().get("NYCTaxi").unwrap();
        let mut values = taxi.all_rows()[0].clone().into_values();
        values[0] = Value::Uuid(0xfeed_beef);
        taxi.insert(Row::new(values)).unwrap();

        let after = t.serve(7, sql).unwrap();
        let stats = t.stats();
        assert_eq!(stats.result_cache_invalidations, 1, "epoch moved");
        assert_eq!(stats.result_cache_hits, 1, "stale entry must not hit");
        let n0 = rows(&before)[0].get(0).as_i64().unwrap();
        let n1 = rows(&after)[0].get(0).as_i64().unwrap();
        assert_eq!(n1, n0 + 1, "recomputed answer sees the new row");

        // And the refreshed entry serves hits again.
        t.serve(7, sql).unwrap();
        assert_eq!(t.stats().result_cache_hits, 2);
    }

    #[test]
    fn ddl_bumps_invalidate_without_table_writes() {
        let t = tier();
        let sql = "SELECT COUNT(*) FROM Parks p, Wildfires w \
                   WHERE st_contains(p.boundary, w.location)";
        t.serve(1, sql).unwrap();
        t.serve(1, sql).unwrap();
        assert_eq!(t.stats().result_cache_hits, 1);
        // CREATE JOIN bumps the registry DDL epoch: cached results may
        // have been planned against the old registry.
        t.serve(
            1,
            r#"CREATE JOIN jaccard_sim2(a: string, b: string, t: double)
               RETURNS boolean AS "setsimilarity.SetSimilarityJoin" AT flexiblejoins"#,
        )
        .unwrap();
        t.serve(1, sql).unwrap();
        assert_eq!(t.stats().result_cache_invalidations, 1);
    }

    #[test]
    fn set_result_cache_off_bypasses_without_stale_risk() {
        let t = tier();
        let sql = "SELECT r.overall, COUNT(*) AS c FROM AmazonReview r \
                   GROUP BY r.overall ORDER BY r.overall";
        t.serve(1, sql).unwrap();
        t.session().execute("SET result_cache = off").unwrap();
        let a = t.serve(1, sql).unwrap();
        let b = t.serve(1, sql).unwrap();
        assert_eq!(rows(&a), rows(&b));
        let stats = t.stats();
        assert_eq!(stats.result_cache_hits, 0, "off means every run executes");
        assert_eq!(stats.admissions, 3);
        // Re-enabling serves the surviving (still-fresh) entry again.
        t.session().execute("SET result_cache = on").unwrap();
        t.serve(1, sql).unwrap();
        t.serve(1, sql).unwrap();
        assert_eq!(t.stats().result_cache_hits, 2, "re-enabled and warm");
    }

    #[test]
    fn prepared_statements_serve_through_the_caches() {
        let t = tier();
        t.serve(
            3,
            "PREPARE by_vendor AS SELECT COUNT(*) AS c FROM NYCTaxi n WHERE n.Vendor = $1",
        )
        .unwrap();
        let a = t.serve(3, "EXECUTE by_vendor(1)").unwrap();
        let b = t.serve(4, "EXECUTE by_vendor(1)").unwrap();
        assert_eq!(rows(&a), rows(&b));
        assert_eq!(t.stats().result_cache_hits, 1);
        // EXECUTE and the equivalent literal SELECT share one shape.
        t.serve(5, "SELECT COUNT(*) AS c FROM NYCTaxi n WHERE n.Vendor = 1")
            .unwrap();
        assert_eq!(t.stats().result_cache_hits, 2);
    }

    #[test]
    fn admission_rejections_are_counted() {
        let t = tier();
        t.session().execute("SET memory_quota_rows = 10").unwrap();
        t.session().execute("SET memory_budget_rows = 100").unwrap();
        let err = t
            .serve(1, "SELECT n.id FROM NYCTaxi n LIMIT 2")
            .unwrap_err();
        assert!(matches!(err, FudjError::Admission(_)), "{err}");
        assert_eq!(t.stats().rejections, 1);
        assert_eq!(t.stats().admissions, 0);
    }

    #[test]
    fn plan_cache_evicts_at_capacity() {
        let t = tier();
        t.session().execute("SET plan_cache_entries = 2").unwrap();
        t.session().execute("SET result_cache = off").unwrap();
        for vendor in [1, 2, 1, 2] {
            t.serve(
                1,
                &format!("SELECT n.id FROM NYCTaxi n WHERE n.Vendor = {vendor} LIMIT 2"),
            )
            .unwrap();
        }
        assert_eq!(t.stats().plan_cache_hits, 2, "both keys fit");
        // A third distinct key evicts the LRU one.
        t.serve(
            1,
            "SELECT r.id FROM AmazonReview r WHERE r.overall = 5 LIMIT 2",
        )
        .unwrap();
        assert_eq!(t.stats().plan_cache_evictions, 1);
    }
}
