//! The run path: every SELECT this session executes — typed at the
//! prompt, `EXECUTE`d, `\submit`ted, served by the tier, resumed after a
//! crash, or measured by `EXPLAIN ANALYZE` — is planned through the one
//! plan cache and run as one scheduler job. The cache holds optimized
//! *logical* plans, so bind and optimize run once per statement shape
//! while lowering runs on every execution, under the `SET` values then in
//! force and with join leases and guard state of that run's own. The
//! job's journal entry is opened and sealed by [`Session::begin`], and
//! [`Session::run`] submits it; a blocking statement waits for the handle.

use super::{lock, QueryOutput, Session};
use crate::ast::{SelectStatement, Statement};
use crate::binder::bind_select;
use crate::cache::LruCache;
use crate::durability::JournalHook;
use crate::fingerprint::{self, StatementKey};
use crate::parser::parse;
use fudj_exec::{CounterSeed, ExecMode, MetricsSnapshot, PhysicalPlan, QueryTag, ResumeSpec};
use fudj_planner::{LogicalPlan, PlanOptions};
use fudj_sched::{JobHandle, JobOutput, QuerySpec};
use fudj_storage::wal::WalRecord;
use fudj_storage::{DurableStore, PendingQuery};
use fudj_types::{Batch, FudjError, Result};
use std::fmt::Write as _;
use std::sync::Arc;

/// The session's plan cache. The `SET` knobs are not in the key,
/// because only lowering and execution read them.
pub(super) type PlanCache = LruCache<StatementKey, CachedPlan>;

/// A bound and optimized SELECT, with the catalog and registry DDL
/// epochs it was planned under: an entry whose epochs moved may name a
/// dropped dataset or miss a new join, so it counts as a miss.
pub(super) struct CachedPlan {
    logical: Arc<LogicalPlan>,
    ddl_epochs: (u64, u64),
}

/// What a run records in the query journal.
pub(super) enum Entry<'a> {
    /// Nothing: not a statement a restart should resume (`EXPLAIN
    /// ANALYZE`, an externally planned [`Session::execute_physical`]).
    Unjournaled,
    /// A new statement, journaled under its verbatim text when `SET
    /// checkpoint_durable = on` over an open WAL, and not otherwise.
    Statement(&'a str),
    /// A statement the previous process left unfinished, re-run from its
    /// last committed resumable stage.
    Resumed(&'a PendingQuery),
}

/// Stages a crashed query can resume from: their checkpoints carry the
/// complete post-boundary input. `join:combine` holds either the joined
/// rows before duplicate handling or, under an aggregate that reads the
/// join directly, the partials COMBINE folded its pairs into (a resume
/// then goes straight to the aggregate's shuffle); `agg:shuffle` holds
/// the shuffled partials before the final merge. Earlier boundaries need
/// in-memory state a restart cannot reconstruct, so they fall back to
/// full replay.
const RESUMABLE_STAGES: &[&str] = &["join:combine", "agg:shuffle"];

/// Where a resumed `query` restarts: its last committed resumable stage
/// with the counters journaled there; `None` means full replay.
pub(super) fn resume_point(query: &PendingQuery) -> Option<ResumeSpec> {
    let commit = query
        .committed
        .iter()
        .rev()
        .find(|c| RESUMABLE_STAGES.contains(&c.stage.as_str()))?;
    Some(ResumeSpec {
        stage: commit.stage.clone(),
        seed: CounterSeed {
            counters: commit.counters.clone(),
            phases: commit.phases.clone(),
        },
    })
}

/// Log `QuerySubmitted` for `sql` with the knobs it was planned under.
/// A crash from here until [`journal_finish`] leaves a journal the next
/// `SET wal_dir` resumes from.
fn journal_submit(store: &DurableStore, sql: &str, options: &PlanOptions) -> Result<u64> {
    let fingerprint = fingerprint::statement_fingerprint(sql);
    store.append_journal(
        &WalRecord::QuerySubmitted {
            fingerprint,
            sql: sql.to_owned(),
            options: Session::journal_options(options),
        },
        "journal:submit",
    )?;
    Ok(fingerprint)
}

/// Seal a journaled query: its result is about to be delivered, so the
/// journal entry and its durable checkpoints are dead on replay.
fn journal_finish(store: &DurableStore, fingerprint: u64) -> Result<()> {
    store.append_journal(&WalRecord::QueryFinished { fingerprint }, "journal:finish")
}

/// How `\jobs` lists statement text `sql`: whitespace collapsed, cut at
/// 48 characters.
pub(super) fn label(sql: &str) -> String {
    let label: String = sql.split_whitespace().collect::<Vec<_>>().join(" ");
    if label.chars().count() > 48 {
        let head: String = label.chars().take(47).collect();
        format!("{head}…")
    } else {
        label
    }
}

impl Session {
    /// Bracket one execution of a planned SELECT: open its journal entry
    /// now, and return the [`QueryTag`] the execution must carry (it pins
    /// the checkpoint namespace to the statement fingerprint, routes stage
    /// commits into the journal, and — when resuming — carries the
    /// journal's resume point) plus the function its output must pass
    /// through on delivery, which stamps the durability counters into the
    /// snapshot and seals the entry. `QueryFinished` is logged *before*
    /// the rows are handed over: a crash in between re-runs the query on
    /// the next reopen, but a delivered result is never re-delivered.
    /// `options` are already overlaid with the `SET` variables — once, by
    /// the caller that planned under them.
    fn begin(
        &self,
        options: &PlanOptions,
        entry: Entry<'_>,
    ) -> Result<(
        Option<QueryTag>,
        impl FnOnce(JobOutput) -> Result<JobOutput> + Send + 'static,
    )> {
        let store = self.durable();
        let journaled = match (&store, entry) {
            (Some(store), Entry::Statement(sql)) if self.vars().checkpoint_durable => {
                Some((store, journal_submit(store, sql, options)?, None))
            }
            (Some(store), Entry::Resumed(query)) => {
                Some((store, query.fingerprint, resume_point(query)))
            }
            _ => None,
        };
        let tag = journaled.map(|(store, fingerprint, resume)| QueryTag {
            fingerprint,
            journal: JournalHook::new(store.clone()),
            resume,
        });
        let seal = tag.as_ref().map(|tag| tag.fingerprint);
        let finish = move |(batch, mut snapshot): JobOutput| {
            if let Some(store) = &store {
                // Durability is session-scoped (one WAL outlives many
                // queries), so the session stamps the store's counters
                // into each snapshot rather than the executor.
                snapshot.durability = store.stats();
                if let Some(fingerprint) = seal {
                    journal_finish(store, fingerprint)?;
                }
            }
            Ok((batch, snapshot))
        };
        Ok((tag, finish))
    }

    /// Run `plan` as a scheduler job listed as `label`, under `SET
    /// deadline_ms` and at `priority` (`None`: `SET priority`); returns
    /// once it is queued, and the handle's `wait()` delivers the rows
    /// through [`Session::begin`]'s seal.
    pub(super) fn run(
        &self,
        plan: Arc<PhysicalPlan>,
        options: &PlanOptions,
        entry: Entry<'_>,
        label: &str,
        priority: Option<u32>,
    ) -> Result<JobHandle> {
        let (tag, finish) = self.begin(options, entry)?;
        let vars = self.vars();
        let mut spec = QuerySpec::new(plan, label).with_priority(priority.unwrap_or(vars.priority));
        spec.deadline_ms = vars.deadline_ms;
        spec.memory_budget_rows = options.memory_budget_rows.map(|rows| rows as u64);
        spec.exec_mode = options.exec_mode;
        spec.tag = tag;
        Ok(self.scheduler.submit(spec)?.and_then(finish))
    }

    /// `sel`'s physical plan under `options`: its optimized logical plan
    /// from the plan cache (bound and optimized on a miss), lowered now.
    pub(super) fn plan_under(
        &self,
        sel: &SelectStatement,
        options: &PlanOptions,
    ) -> Result<PhysicalPlan> {
        let logical = self.optimized(sel, options)?;
        fudj_planner::lower(&logical, &self.registry, options)
    }

    fn optimized(&self, sel: &SelectStatement, options: &PlanOptions) -> Result<Arc<LogicalPlan>> {
        let key = fingerprint::shape_of(sel).key();
        // Read before binding: DDL racing the planning can only make the
        // entry look older than it is.
        let ddl_epochs = (self.catalog.ddl_epoch(), self.registry.ddl_epoch());
        {
            let mut plans = lock(&self.plans);
            plans.drop_stale(&key, |plan| plan.ddl_epochs == ddl_epochs);
            if let Some(plan) = plans.get(&key) {
                return Ok(plan.logical.clone());
            }
        }
        let bound = bind_select(sel, &self.catalog)?;
        let logical = Arc::new(fudj_planner::optimize(bound, &self.registry, options)?);
        let cached = CachedPlan {
            logical: logical.clone(),
            ddl_epochs,
        };
        lock(&self.plans).insert(key, cached);
        Ok(logical)
    }

    /// Plan the SELECT behind statement text `sql` (the SELECT itself, or
    /// the `EXECUTE` it was bound from) through the plan cache and run it
    /// as a job listed as `label`, at `priority` (`None`: `SET priority`).
    pub fn submit_select(
        &self,
        sel: &SelectStatement,
        sql: &str,
        label: &str,
        priority: Option<u32>,
    ) -> Result<JobHandle> {
        let options = self.effective_options();
        let plan = Arc::new(self.plan_under(sel, &options)?);
        self.run(plan, &options, Entry::Statement(sql), label, priority)
    }

    /// Run the SELECT behind statement text `sql` and block until its
    /// rows are in.
    pub(super) fn run_statement(&self, sel: &SelectStatement, sql: &str) -> Result<QueryOutput> {
        let (batch, snapshot) = self.submit_select(sel, sql, &label(sql), None)?.wait()?;
        Ok(QueryOutput::Rows(batch, Box::new(snapshot)))
    }

    /// Run an already-planned query as an unjournaled job and block until
    /// its rows are in, with durability counters stamped in.
    pub fn execute_physical(
        &self,
        physical: &PhysicalPlan,
        exec_mode: Option<ExecMode>,
    ) -> Result<(Batch, MetricsSnapshot)> {
        let options = PlanOptions {
            exec_mode,
            ..PlanOptions::default()
        };
        let plan = Arc::new(physical.clone());
        self.run(plan, &options, Entry::Unjournaled, "physical plan", None)?
            .wait()
    }

    /// Submit a SELECT without waiting for it: the query is planned now
    /// (under the current `SET` variables) and the job's handle returned.
    pub fn submit(&self, sql: &str) -> Result<JobHandle> {
        match parse(sql)? {
            Statement::Select(sel) => self.submit_select(&sel, sql, &label(sql), None),
            other => Err(FudjError::Execution(format!(
                "only SELECT statements can be submitted, got {other:?}"
            ))),
        }
    }

    /// `EXPLAIN [ANALYZE]`: the plan text, and under `ANALYZE` what one
    /// (unjournaled) execution of it, statement text `sql`, measured.
    pub(super) fn explain(
        &self,
        select: &SelectStatement,
        analyze: bool,
        sql: &str,
    ) -> Result<QueryOutput> {
        let options = self.effective_options();
        let physical = self.plan_under(select, &options)?;
        let mut text = physical.explain();
        if analyze {
            let start = std::time::Instant::now();
            let plan = Arc::new(physical);
            let job = self.run(plan, &options, Entry::Unjournaled, &label(sql), None)?;
            let (batch, m) = job.wait()?;
            let elapsed = start.elapsed();
            let _ = writeln!(text, "---");
            let _ = writeln!(text, "rows: {}; total: {elapsed:?}", batch.len());
            for (name, d) in &m.phases {
                let _ = writeln!(text, "phase {name}: {d:?}");
            }
            let _ = writeln!(
                text,
                "network: {} bytes shuffled, {} broadcast, {} state; \
                 verify calls: {}; dedup rejections: {}; spilled rows: {}",
                m.bytes_shuffled,
                m.bytes_broadcast,
                m.state_bytes,
                m.verify_calls,
                m.dedup_rejections,
                m.spilled_rows,
            );
            if self.durable().is_some() {
                let d = &m.durability;
                let _ = writeln!(
                    text,
                    "durability: {} wal records ({} bytes), {} fsyncs, \
                     {} snapshots, {} replayed",
                    d.wal_records_appended,
                    d.wal_bytes_appended,
                    d.wal_fsyncs,
                    d.snapshots_written,
                    d.wal_records_replayed,
                );
            }
        }
        Ok(QueryOutput::Plan(text))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::tests::session;

    #[test]
    fn submit_runs_selects_concurrently_with_session_vars() {
        let s = session();
        s.execute("SET priority = 3").unwrap();
        s.execute("SET deadline_ms = 60000").unwrap();

        let sql = "SELECT n1.Vendor, COUNT(*) AS c FROM NYCTaxi n1 \
                   GROUP BY n1.Vendor ORDER BY n1.Vendor";
        let serial = s.query(sql).unwrap();

        let handles: Vec<_> = (0..3).map(|_| s.submit(sql).unwrap()).collect();
        for handle in handles {
            let id = handle.id();
            let (batch, _) = handle.wait().unwrap();
            assert_eq!(batch.rows(), serial.rows());
            let info = s.scheduler().job(id).unwrap();
            assert_eq!(info.priority, 3);
            assert_eq!(info.deadline_ms, Some(60_000));
            assert_eq!(info.state, fudj_sched::JobState::Done);
        }

        // Only SELECTs are submittable.
        let err = s.submit("DROP JOIN nope").unwrap_err();
        assert!(err.to_string().contains("only SELECT"), "{err}");
    }

    #[test]
    fn create_join_memory_budget_spills_and_matches_in_memory() {
        let sql = "SELECT p.id, COUNT(w.id) AS num_fires \
                   FROM Parks p, Wildfires w \
                   WHERE ST_Contains(p.boundary, w.location) \
                   GROUP BY p.id ORDER BY num_fires DESC";

        let run = |budget_clause: &str| {
            let s = session();
            s.execute(&format!(
                r#"CREATE JOIN st_contains(a: polygon, b: point)
                   RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins{budget_clause};"#
            ))
            .unwrap();
            let out = s.execute(sql).unwrap();
            let QueryOutput::Rows(batch, metrics) = out else {
                panic!("expected rows")
            };
            // The sort key (num_fires) ties across parks, so normalize the
            // tie order before comparing.
            let mut rows = batch.rows().to_vec();
            rows.sort();
            (rows, metrics.spilled_rows)
        };

        let (in_memory, spilled_none) = run("");
        let (spilled, spilled_rows) = run(" WITH (memory_budget_rows = 4)");
        assert_eq!(spilled_none, 0, "unbudgeted join must not spill");
        assert!(spilled_rows > 0, "budget of 4 rows/worker must spill");
        assert_eq!(in_memory, spilled, "grace spill must not change results");
    }

    #[test]
    fn set_memory_budget_rows_overrides_per_query() {
        let s = session();
        s.execute(
            r#"CREATE JOIN st_contains(a: polygon, b: point)
               RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins;"#,
        )
        .unwrap();
        let sql = "SELECT COUNT(*) FROM Parks p, Wildfires w \
                   WHERE st_contains(p.boundary, w.location)";

        let baseline = s.execute(sql).unwrap();
        assert_eq!(baseline.metrics().spilled_rows, 0);
        let count = baseline.batch().rows()[0].get(0).clone();

        s.execute("SET memory_budget_rows = 4").unwrap();
        let budgeted = s.execute(sql).unwrap();
        assert!(budgeted.metrics().spilled_rows > 0, "SET budget must spill");
        assert_eq!(budgeted.batch().rows()[0].get(0), &count);

        // `none` clears the variable again.
        s.execute("SET memory_budget_rows = none").unwrap();
        let cleared = s.execute(sql).unwrap();
        assert_eq!(cleared.metrics().spilled_rows, 0);
    }

    #[test]
    fn single_bucket_input_spills_block_nested_and_preserves_results() {
        let s = session();
        s.execute(
            r#"CREATE JOIN st_contains(a: polygon, b: point)
               RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins;"#,
        )
        .unwrap();
        // A 1 × 1 grid puts every key in one bucket. No rehash can split a
        // single bucket, so an over-budget worker must take the
        // block-nested-loop fallback.
        let sql = "SELECT COUNT(*) FROM Parks p, Wildfires w \
                   WHERE st_contains(p.boundary, w.location, 1)";

        let in_memory = s.execute(sql).unwrap();
        assert_eq!(in_memory.metrics().spilled_rows, 0);
        let count = in_memory.batch().rows()[0].get(0).clone();

        s.execute("SET memory_budget_rows = 4").unwrap();
        let bnl = s.execute(sql).unwrap();
        assert_eq!(bnl.batch().rows()[0].get(0), &count);
        assert_eq!(bnl.metrics().spill_recursion_depth, 0);
        assert!(
            bnl.metrics().spill_bnl_fallbacks > 0,
            "one bucket over a 4-row budget must hit the BNL fallback"
        );
    }

    #[test]
    fn set_exec_mode_switches_engine_and_preserves_answers() {
        let s = session();
        s.execute(
            r#"CREATE JOIN st_contains(a: polygon, b: point)
               RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins;"#,
        )
        .unwrap();
        let sql = "SELECT p.id, COUNT(w.id) AS c FROM Parks p, Wildfires w \
                   WHERE st_contains(p.boundary, w.location) \
                     AND w.fire_start >= parse_date('01/01/2022', 'M/D/Y') \
                   GROUP BY p.id ORDER BY p.id";

        s.execute("SET exec_mode = columnar").unwrap();
        let columnar = s.execute(sql).unwrap();
        assert_eq!(columnar.metrics().exec_mode, ExecMode::Columnar);

        s.execute("SET exec_mode = row").unwrap();
        let row = s.execute(sql).unwrap();
        assert_eq!(row.metrics().exec_mode, ExecMode::Row);

        assert_eq!(row.batch().rows(), columnar.batch().rows());
        assert_eq!(
            row.metrics().fingerprint(),
            columnar.metrics().fingerprint(),
            "logical counters must not depend on the execution mode"
        );

        // Bad values error; `off` clears back to the engine default.
        let err = s.execute("SET exec_mode = turbo").unwrap_err();
        assert!(err.to_string().contains("row or columnar"), "{err}");
        s.execute("SET exec_mode = off").unwrap();
        assert!(s.query(sql).is_ok());
    }
}
