//! The session façade: SQL text in, results out.
//!
//! This file is statement dispatch — [`Session::execute`] sends each
//! parsed statement to the module that owns it:
//!
//! * `settings` — the one table of knobs behind `SET` and `CREATE JOIN
//!   … WITH`;
//! * `run` — the plan cache every SELECT is planned through, and the one
//!   function that turns the plan into a scheduler job, which a blocking
//!   statement then waits for;
//! * `lifecycle` — opening, closing and snapshotting the durable store,
//!   and resuming the queries a crash left unfinished.

mod lifecycle;
mod run;
mod settings;

pub use lifecycle::ResumedQuery;
pub use settings::{Knob, Scope, ServingConfig, KNOBS, MAX_CACHE_ENTRIES};

use crate::ast::{AstExpr, SelectStatement, Statement};
use crate::cache::{CacheCounters, LruCache};
use crate::fingerprint;
use crate::parser::parse;
use fudj_core::{GuardMode, JoinLibrary, JoinRegistry};
use fudj_exec::{Cluster, MetricsSnapshot, NetworkModel};
use fudj_planner::PlanOptions;
use fudj_sched::Scheduler;
use fudj_storage::{Catalog, Dataset, DurableStore, FaultFs, StorageFaultConfig};
use fudj_types::{Batch, FudjError, Result};
use settings::SessionVars;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Result of executing one statement.
#[derive(Debug)]
pub enum QueryOutput {
    /// SELECT result with its execution metrics (boxed: the snapshot is
    /// an order of magnitude larger than the other variants).
    Rows(Batch, Box<MetricsSnapshot>),
    /// DDL acknowledgement.
    Ack(String),
    /// EXPLAIN output.
    Plan(String),
}

impl QueryOutput {
    /// The batch of a `Rows` output.
    ///
    /// # Panics
    /// Panics when the statement did not produce rows.
    pub fn batch(&self) -> &Batch {
        match self {
            QueryOutput::Rows(batch, _) => batch,
            other => panic!("statement produced {other:?}, not rows"),
        }
    }

    /// The metrics of a `Rows` output.
    ///
    /// # Panics
    /// Panics when the statement did not produce rows.
    pub fn metrics(&self) -> &MetricsSnapshot {
        match self {
            QueryOutput::Rows(_, m) => m,
            other => panic!("statement produced {other:?}, not rows"),
        }
    }
}

/// A database session: catalog + join registry + cluster + planner options
/// + the concurrent query scheduler every SELECT runs through.
pub struct Session {
    catalog: Catalog,
    registry: JoinRegistry,
    cluster: Cluster,
    options: PlanOptions,
    scheduler: Scheduler,
    /// Where the session-scoped [`KNOBS`] live; a `Mutex` because
    /// [`Session::execute`] takes `&self` (sessions are shared with
    /// in-flight jobs).
    vars: Mutex<SessionVars>,
    /// The crash-consistent store behind `SET wal_dir`, when open.
    durable: Mutex<Option<Arc<DurableStore>>>,
    /// Armed storage-fault plan (`\chaos disk`): the *next* `SET wal_dir`
    /// opens its store over a fault-injecting in-memory filesystem.
    disk_faults: Mutex<Option<StorageFaultConfig>>,
    /// The simulated disk behind the last fault-armed `SET wal_dir`, keyed
    /// by dir. Reopening the same dir reuses it — that reopen *is* the
    /// process restart, so the surviving bytes (and the query journal)
    /// must still be there for resume.
    fault_disk: Mutex<Option<(String, Arc<FaultFs>)>>,
    /// Named templates from `PREPARE`, consumed by `EXECUTE`.
    prepared: Mutex<HashMap<String, SelectStatement>>,
    /// Every SELECT's optimized logical plan, by statement shape; sized
    /// by `SET plan_cache_entries`.
    plans: Mutex<run::PlanCache>,
    /// Results of journal-driven resumes from the last `SET wal_dir`,
    /// drained by [`Session::take_resumed`].
    resumed: Mutex<Vec<ResumedQuery>>,
}

/// Lock session state that every writer leaves valid at every step, so a
/// panicking holder poisons nothing worth refusing.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

impl Session {
    /// Session over a fresh catalog/registry and a cluster of `workers`.
    pub fn new(workers: usize) -> Self {
        let cluster = Cluster::new(workers);
        Session {
            catalog: Catalog::new(),
            registry: JoinRegistry::new(),
            scheduler: Scheduler::new(cluster.clone()),
            cluster,
            options: PlanOptions::default(),
            vars: Mutex::default(),
            durable: Mutex::default(),
            disk_faults: Mutex::default(),
            fault_disk: Mutex::default(),
            prepared: Mutex::default(),
            plans: Mutex::new(LruCache::new(settings::PLAN_CACHE_ENTRIES)),
            resumed: Mutex::default(),
        }
    }

    /// The catalog (register datasets here).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The join registry.
    pub fn registry(&self) -> &JoinRegistry {
        &self.registry
    }

    /// Register a dataset (convenience over `catalog()`).
    pub fn register_dataset(&self, dataset: Dataset) -> Result<Arc<Dataset>> {
        self.catalog.register(dataset)
    }

    /// Upload a join library (the paper's out-of-band JAR upload; `CREATE
    /// JOIN` statements then reference it by name).
    pub fn install_library(&self, library: JoinLibrary) {
        self.registry.install_library(library);
    }

    /// Replace the planner options (on-top forcing, parameter injection,
    /// overrides). Empties the plan cache: `force_on_top` and
    /// `extra_join_params` shape the optimized plans it holds.
    pub fn set_options(&mut self, options: PlanOptions) {
        self.options = options;
        lock(&self.plans).clear();
    }

    /// How subsequent queries guard user-defined joins: per-join config
    /// (the default), a session-wide override, or no guarding at all.
    pub fn set_guard(&mut self, guard: GuardMode) {
        self.options.guard = guard;
    }

    /// The active guard mode.
    pub fn guard(&self) -> &GuardMode {
        &self.options.guard
    }

    /// Attach a simulated network: subsequent queries charge wall-clock
    /// time for every byte their exchanges move between workers. The
    /// cluster's worker pool (and thus worker thread identity) is kept.
    pub fn set_network(&mut self, network: Option<NetworkModel>) {
        self.cluster.set_network(network);
        self.scheduler.set_cluster(self.cluster.clone());
    }

    /// Arm (or disarm, with `None`) a seeded fault plan: subsequent
    /// queries run under deterministic fault injection and recovery. The
    /// cluster's worker pool is kept, like [`Session::set_network`].
    pub fn set_faults(&mut self, faults: Option<fudj_exec::FaultConfig>) {
        self.cluster.set_faults(faults);
        self.scheduler.set_cluster(self.cluster.clone());
    }

    /// The armed fault plan, if any.
    pub fn faults(&self) -> Option<fudj_exec::FaultConfig> {
        self.cluster.faults()
    }

    /// The cluster this session's jobs execute on (a clone shares the same
    /// worker pool and membership — it is the same simulated cluster, so
    /// `\workers` lists, drops and adds workers through it).
    pub fn cluster(&self) -> Cluster {
        self.cluster.clone()
    }

    /// The scheduler every SELECT runs on as a job (`\jobs` / `\cancel`).
    pub fn scheduler(&self) -> &Scheduler {
        &self.scheduler
    }

    /// Hits, misses and evictions of the plan cache so far.
    pub fn plan_cache_counters(&self) -> CacheCounters {
        lock(&self.plans).counters()
    }

    fn vars(&self) -> SessionVars {
        *lock(&self.vars)
    }

    fn vars_mut(&self) -> MutexGuard<'_, SessionVars> {
        lock(&self.vars)
    }

    /// Store a `PREPARE`d SELECT template under `name` (replacing any
    /// previous statement of that name, like PostgreSQL's `DEALLOCATE` +
    /// re-`PREPARE` shorthand).
    pub fn prepare_statement(&self, name: &str, select: SelectStatement) {
        lock(&self.prepared).insert(name.to_owned(), select);
    }

    /// Look up a `PREPARE`d template by name.
    fn prepared_statement(&self, name: &str) -> Option<SelectStatement> {
        lock(&self.prepared).get(name).cloned()
    }

    /// The SELECT that `EXECUTE name(params…)` runs: the `PREPARE`d
    /// template with its `$n` replaced by the literal arguments.
    pub fn bind_execute(&self, name: &str, params: &[AstExpr]) -> Result<SelectStatement> {
        let template = self.prepared_statement(name).ok_or_else(|| {
            FudjError::Execution(format!("no prepared statement {name:?} (PREPARE it first)"))
        })?;
        let values = params
            .iter()
            .map(fingerprint::literal_value)
            .collect::<Result<Vec<_>>>()?;
        fingerprint::substitute_params(&template, &values)
    }

    /// Parse, plan, and execute one statement.
    pub fn execute(&self, sql: &str) -> Result<QueryOutput> {
        match parse(sql)? {
            Statement::CreateJoin {
                name,
                args,
                class,
                library,
                options,
            } => {
                let with = Self::join_options(&options)?;
                let arg_types = args.into_iter().map(|(_, t)| t).collect();
                self.registry.create_join_full(
                    &name,
                    arg_types,
                    class,
                    library,
                    with.guard,
                    with.memory_budget_rows,
                )?;
                Ok(QueryOutput::Ack(format!("created join {name}")))
            }
            Statement::DropJoin { name } => {
                self.registry.drop_join(&name)?;
                Ok(QueryOutput::Ack(format!("dropped join {name}")))
            }
            Statement::Set { key, value } => self.apply_set(&key, &value),
            Statement::Select(sel) => self.run_statement(&sel, sql),
            Statement::Prepare { name, select } => {
                let params = fingerprint::param_count(&select);
                self.prepare_statement(&name, select);
                Ok(QueryOutput::Ack(format!(
                    "prepared {name} ({params} parameter{})",
                    if params == 1 { "" } else { "s" }
                )))
            }
            Statement::Execute { name, params } => {
                self.run_statement(&self.bind_execute(&name, &params)?, sql)
            }
            Statement::Explain { select, analyze } => self.explain(&select, analyze, sql),
        }
    }

    /// Execute and return the result batch (convenience for SELECTs).
    pub fn query(&self, sql: &str) -> Result<Batch> {
        match self.execute(sql)? {
            QueryOutput::Rows(batch, _) => Ok(batch),
            other => Err(FudjError::Execution(format!(
                "expected a SELECT, statement produced {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fudj_datagen::{amazon_reviews, nyctaxi, parks, wildfires, GeneratorConfig};
    use fudj_joins::standard_library;

    /// A three-worker session over the four sample datasets.
    pub(crate) fn session() -> Session {
        let s = Session::new(3);
        s.install_library(standard_library());
        s.register_dataset(parks(GeneratorConfig::new(120, 1, 3)).unwrap())
            .unwrap();
        s.register_dataset(wildfires(GeneratorConfig::new(300, 2, 3)).unwrap())
            .unwrap();
        s.register_dataset(nyctaxi(GeneratorConfig::new(150, 3, 3)).unwrap())
            .unwrap();
        s.register_dataset(amazon_reviews(GeneratorConfig::new(120, 4, 3)).unwrap())
            .unwrap();
        s
    }

    #[test]
    fn create_and_drop_join_via_sql() {
        let s = session();
        let out = s
            .execute(
                r#"CREATE JOIN st_contains(a: polygon, b: point)
                   RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins;"#,
            )
            .unwrap();
        assert!(matches!(out, QueryOutput::Ack(_)));
        assert!(s.registry().get("st_contains").is_some());
        s.execute("DROP JOIN st_contains(a: polygon, b: point);")
            .unwrap();
        assert!(s.registry().get("st_contains").is_none());
    }

    #[test]
    fn query1_runs_fudj_vs_ontop_same_answer() {
        let s = session();
        s.execute(
            r#"CREATE JOIN st_contains(a: polygon, b: point)
               RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins;"#,
        )
        .unwrap();

        let sql = "SELECT p.id, COUNT(w.id) AS num_fires \
                   FROM Parks p, Wildfires w \
                   WHERE ST_Contains(p.boundary, w.location) \
                     AND w.fire_start >= parse_date('01/01/2022', 'M/D/Y') \
                   GROUP BY p.id ORDER BY num_fires DESC";

        // FUDJ plan.
        let explain = s.execute(&format!("EXPLAIN {sql}")).unwrap();
        let QueryOutput::Plan(text) = explain else {
            panic!()
        };
        assert!(text.contains("FudjJoin"), "{text}");

        let fudj = s.query(sql).unwrap();
        assert!(!fudj.is_empty(), "spatial query produced results");

        // On-top plan (same session data, forced NLJ).
        let mut s2 = session();
        s2.set_options(PlanOptions {
            force_on_top: true,
            ..Default::default()
        });
        let ontop = s2.query(sql).unwrap();

        let mut a = fudj.rows().to_vec();
        let mut b = ontop.rows().to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn interval_query5_shape() {
        let s = session();
        s.execute(
            r#"CREATE JOIN overlapping_interval(a: interval, b: interval)
               RETURNS boolean AS "interval.OverlappingIntervalJoin" AT flexiblejoins;"#,
        )
        .unwrap();
        let sql = "SELECT COUNT(*) FROM NYCTaxi n1, NYCTaxi n2 \
                   WHERE n1.Vendor = 1 AND n2.Vendor = 2 \
                     AND overlapping_interval(n1.ride_interval, n2.ride_interval)";
        let QueryOutput::Plan(text) = s.execute(&format!("EXPLAIN {sql}")).unwrap() else {
            panic!()
        };
        assert!(
            text.contains("theta-nlj"),
            "interval join is a multi-join: {text}"
        );

        let batch = s.query(sql).unwrap();
        let fudj_count = batch.rows()[0].get(0).clone();

        let mut s2 = session();
        s2.set_options(PlanOptions {
            force_on_top: true,
            ..Default::default()
        });
        let ontop_count = s2.query(sql).unwrap().rows()[0].get(0).clone();
        assert_eq!(fudj_count, ontop_count);
        assert!(fudj_count.as_i64().unwrap() > 0, "overlapping rides exist");
    }

    #[test]
    fn text_similarity_query5_shape() {
        let s = session();
        s.execute(
            r#"CREATE JOIN similarity_jaccard(a: string, b: string, t: double)
               RETURNS boolean AS "setsimilarity.SetSimilarityJoin" AT flexiblejoins;"#,
        )
        .unwrap();
        let sql = "SELECT COUNT(*) FROM AmazonReview r1, AmazonReview r2 \
                   WHERE r1.overall = 5 AND r2.overall = 4 \
                     AND similarity_jaccard(r1.review, r2.review) >= 0.9";
        let fudj_count = s.query(sql).unwrap().rows()[0].get(0).clone();

        let mut s2 = session();
        s2.set_options(PlanOptions {
            force_on_top: true,
            ..Default::default()
        });
        let ontop_count = s2.query(sql).unwrap().rows()[0].get(0).clone();
        assert_eq!(fudj_count, ontop_count);
        assert!(
            fudj_count.as_i64().unwrap() > 0,
            "near-duplicate reviews exist"
        );
    }

    #[test]
    fn self_join_is_detected_in_plan() {
        let s = session();
        s.execute(
            r#"CREATE JOIN st_intersects(a: polygon, b: polygon)
               RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins;"#,
        )
        .unwrap();
        let QueryOutput::Plan(text) = s
            .execute(
                "EXPLAIN SELECT COUNT(*) FROM Parks a, Parks b \
                 WHERE st_intersects(a.boundary, b.boundary)",
            )
            .unwrap()
        else {
            panic!()
        };
        assert!(text.contains("summarize once"), "{text}");
    }

    #[test]
    fn explain_analyze_reports_phases_and_metrics() {
        let s = session();
        s.execute(
            r#"CREATE JOIN st_contains(a: polygon, b: point)
               RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins;"#,
        )
        .unwrap();
        let QueryOutput::Plan(text) = s
            .execute(
                "EXPLAIN ANALYZE SELECT COUNT(*) FROM Parks p, Wildfires w \
                 WHERE st_contains(p.boundary, w.location)",
            )
            .unwrap()
        else {
            panic!()
        };
        assert!(text.contains("FudjJoin"), "{text}");
        assert!(text.contains("phase summarize:"), "{text}");
        assert!(text.contains("phase divide:"), "{text}");
        assert!(text.contains("phase join:"), "{text}");
        assert!(text.contains("rows: 1"), "{text}");
        assert!(text.contains("bytes shuffled"), "{text}");
    }

    #[test]
    fn plain_select_with_limit() {
        let s = session();
        let batch = s.query("SELECT p.id, p.tags FROM Parks p LIMIT 7").unwrap();
        assert_eq!(batch.len(), 7);
        assert_eq!(batch.schema().to_string(), "p.id: uuid, p.tags: string");
    }

    #[test]
    fn errors_surface_cleanly() {
        let s = session();
        assert!(s.execute("SELECT x FROM Ghost g").is_err());
        assert!(s.execute("DROP JOIN never_created").is_err());
        assert!(s
            .query("CREATE JOIN j(a: string, b: string) RETURNS boolean AS \"x.Y\" AT nolib")
            .is_err());
    }

    #[test]
    fn prepare_and_execute_match_direct_select() {
        let s = session();
        s.execute(
            "PREPARE vendor_count AS \
             SELECT COUNT(*) AS c FROM NYCTaxi n WHERE n.Vendor = $1",
        )
        .unwrap();
        let prepared = s.execute("EXECUTE vendor_count(1)").unwrap();
        let direct = s
            .query("SELECT COUNT(*) AS c FROM NYCTaxi n WHERE n.Vendor = 1")
            .unwrap();
        assert_eq!(prepared.batch().rows(), direct.rows());

        // A different parameter reaches a different answer.
        let other = s.execute("EXECUTE vendor_count(2)").unwrap();
        let a = prepared.batch().rows()[0].get(0).as_i64().unwrap();
        let b = other.batch().rows()[0].get(0).as_i64().unwrap();
        assert_eq!(a + b, 150, "the two vendors partition the taxi rides");

        // Arity mismatches, unknown names, and raw `$n` outside PREPARE
        // are all clean errors.
        let err = s.execute("EXECUTE vendor_count()").unwrap_err();
        assert!(err.to_string().contains("takes 1 parameter"), "{err}");
        let err = s.execute("EXECUTE vendor_count(1, 2)").unwrap_err();
        assert!(err.to_string().contains("takes 1 parameter"), "{err}");
        let err = s.execute("EXECUTE nope(1)").unwrap_err();
        assert!(err.to_string().contains("no prepared statement"), "{err}");
        let err = s
            .execute("SELECT COUNT(*) FROM NYCTaxi n WHERE n.Vendor = $1")
            .unwrap_err();
        assert!(err.to_string().contains("unbound parameter"), "{err}");
    }

    #[test]
    fn aggregates_via_sql() {
        let s = session();
        let batch = s
            .query("SELECT n1.Vendor, COUNT(*) AS c FROM NYCTaxi n1 GROUP BY n1.Vendor ORDER BY n1.Vendor")
            .unwrap();
        assert_eq!(batch.len(), 2);
        let total: i64 = batch
            .rows()
            .iter()
            .map(|r| r.get(1).as_i64().unwrap())
            .sum();
        assert_eq!(total, 150);
    }
}
