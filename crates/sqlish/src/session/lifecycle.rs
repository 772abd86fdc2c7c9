//! The durable store's lifecycle: `SET wal_dir` opens (or recovers) a
//! crash-consistent store and resumes the queries the previous process
//! left unfinished, `\persist` snapshots it, `SET wal_dir = off` detaches
//! it.

use super::run::{label, resume_point, Entry};
use super::{lock, Session};
use crate::ast::Statement;
use crate::durability::{self, WalHook};
use crate::parser::parse;
use fudj_exec::MetricsSnapshot;
use fudj_sched::JobOutput;
use fudj_storage::{
    fold_journal, DiskFs, DurableStore, FaultFs, PendingQuery, StorageFaultConfig, Vfs,
    CHECKPOINT_DIR,
};
use fudj_types::{Batch, FudjError, Result};
use std::sync::Arc;

/// Outcome of one journal-driven resume performed while reopening a WAL:
/// a query that was submitted but not finished when the process died,
/// re-executed to completion (exactly-once — its `QueryFinished` record
/// is logged before the result is handed over).
#[derive(Debug)]
pub struct ResumedQuery {
    /// Stable statement fingerprint from the journal.
    pub fingerprint: u64,
    /// The journaled SQL text, verbatim.
    pub sql: String,
    /// Stage boundary the re-execution restarted from; `None` means no
    /// resumable boundary had committed (full replay). The executor may
    /// still fall back to full replay when the checkpoints under this
    /// boundary turn out lost or corrupt — `RecoveryStats` counts that.
    pub resumed_from: Option<String>,
    /// The re-executed result (rows + metrics — the snapshot carries the
    /// journal's counter seed, so it equals an uninterrupted run's), or
    /// why the resume failed.
    pub result: Result<(Batch, Box<MetricsSnapshot>)>,
}

impl Session {
    /// The open durable store, if `SET wal_dir` is active.
    pub fn durable(&self) -> Option<Arc<DurableStore>> {
        lock(&self.durable).clone()
    }

    /// Drain the results of journal-driven resumes performed by the last
    /// `SET wal_dir`: each entry is a query the previous process had
    /// submitted but not finished, now re-executed exactly once.
    pub fn take_resumed(&self) -> Vec<ResumedQuery> {
        std::mem::take(&mut *lock(&self.resumed))
    }

    /// Arm (or with `None`, disarm) deterministic storage faults. Takes
    /// effect at the *next* `SET wal_dir`, which then opens its store over
    /// a fault-injecting in-memory filesystem instead of the real disk.
    pub fn set_disk_faults(&self, faults: Option<StorageFaultConfig>) {
        *lock(&self.disk_faults) = faults;
    }

    /// The armed storage-fault plan, if any.
    pub fn disk_faults(&self) -> Option<StorageFaultConfig> {
        lock(&self.disk_faults).clone()
    }

    /// Open (or re-open) a crash-consistent store at `dir`: replay its
    /// committed state into the catalog/registry, then WAL every
    /// subsequent catalog, registry, and append mutation. Equivalent to
    /// `SET wal_dir = <dir>`.
    pub fn open_wal(&self, dir: &str) -> Result<()> {
        let armed = self.disk_faults();
        // A crash plan is one-shot: it poisons the store this open
        // creates, and the reopen that follows plays the restart — so
        // consume it now rather than crash the resume at the same site.
        if armed.as_ref().is_some_and(|c| c.crash_point.is_some()) {
            self.set_disk_faults(None);
        }
        let vfs: Arc<dyn Vfs> = {
            let mut disk = lock(&self.fault_disk);
            match (disk.as_ref(), armed) {
                // Reopening the dir whose simulated disk we already hold:
                // this reopen *is* the process restart. Keep the surviving
                // bytes, clear the crash poison, disarm the fired crash
                // point — `open_wal_with` then journal-resumes whatever
                // the previous incarnation left unfinished. A freshly
                // armed plan still applies (a resume can crash again).
                (Some((d, fs)), cfg) if d == dir => {
                    let fs = fs.clone();
                    fs.reopen_after_crash();
                    fs.set_config(cfg.unwrap_or_else(|| StorageFaultConfig::quiet(0)));
                    fs
                }
                (_, Some(cfg)) => {
                    let fs = FaultFs::new(cfg);
                    *disk = Some((dir.to_owned(), fs.clone()));
                    fs
                }
                (_, None) => Arc::new(DiskFs::new()),
            }
        };
        self.open_wal_with(dir, vfs)
    }

    /// [`Session::open_wal`] over a caller-supplied filesystem — the
    /// crash-restart harness passes the same [`FaultFs`] across simulated
    /// process restarts.
    pub fn open_wal_with(&self, dir: &str, vfs: Arc<dyn Vfs>) -> Result<()> {
        self.close_wal();
        let (store, recovered) = DurableStore::open(dir, vfs)?;
        let store = Arc::new(store);
        let vars = self.vars();
        if let Some(n) = vars.durability_sync_every {
            store.set_sync_every(n);
        }
        // Replay first, attach sinks after: recovered state must not be
        // re-logged.
        durability::replay_into(&recovered, &self.catalog, &self.registry)?;
        durability::seed_existing(&store, &recovered, &self.catalog, &self.registry)?;
        let hook = WalHook::new(store.clone());
        for name in self.catalog.names() {
            if let Ok(dataset) = self.catalog.get(&name) {
                dataset.attach_sink(hook.clone());
            }
        }
        self.catalog.set_sink(Some(hook.clone()));
        self.registry.set_sink(Some(hook));
        *lock(&self.durable) = Some(store.clone());

        // Crash-restart resumption: fold the recovered query journal into
        // pending queries and re-execute each from its last durably
        // committed stage boundary. The resumes read the frames the
        // previous process left on the WAL's disk, so the checkpoint store
        // moves there first; when only the resumes needed it
        // (`checkpoint_durable` is off) it moves back to memory after.
        let pending = fold_journal(&recovered.journal);
        if vars.checkpoint_durable || !pending.is_empty() {
            self.place_checkpoints(true)?;
        }
        if !pending.is_empty() {
            let results: Vec<ResumedQuery> = pending.into_iter().map(|q| self.resume(q)).collect();
            lock(&self.resumed).extend(results);
            if !vars.checkpoint_durable {
                self.place_checkpoints(false)?;
            }
        }
        Ok(())
    }

    /// Keep the cluster's checkpoint store on the open WAL's filesystem,
    /// under `checkpoints/`, when `on_wal` (one fault plan then covers the
    /// WAL and the frames); otherwise, or with no WAL open, on a fresh
    /// in-memory filesystem.
    fn place_checkpoints(&self, on_wal: bool) -> Result<()> {
        let checkpoints = self.cluster.checkpoints();
        match self.durable().filter(|_| on_wal) {
            Some(store) => checkpoints.relocate(store.vfs(), store.dir().join(CHECKPOINT_DIR)),
            None => {
                checkpoints.relocate_to_memory();
                Ok(())
            }
        }
    }

    /// `SET checkpoint_durable`: journal queries and keep checkpoints on
    /// the WAL's disk from now on when a WAL is open; otherwise the next
    /// `SET wal_dir` does (the knob is remembered, like `durability`).
    pub(super) fn set_checkpoint_durable(&self, on: bool) -> Result<()> {
        self.vars_mut().checkpoint_durable = on;
        self.place_checkpoints(on)
    }

    /// Re-execute one unfinished journaled query during WAL reopen.
    fn resume(&self, query: PendingQuery) -> ResumedQuery {
        let result = self
            .resume_execute(&query)
            .map(|(batch, snapshot)| (batch, Box::new(snapshot)));
        ResumedQuery {
            fingerprint: query.fingerprint,
            resumed_from: resume_point(&query).map(|point| point.stage),
            sql: query.sql,
            result,
        }
    }

    /// Plan the journaled SQL through the plan cache, lowered under its
    /// journaled options, and run it with the journal's resume point.
    fn resume_execute(&self, query: &PendingQuery) -> Result<JobOutput> {
        let sel = match parse(&query.sql)? {
            Statement::Select(sel) => sel,
            // In-flight EXECUTEs journal their verbatim text; the serving
            // deployment re-PREPAREs its templates at boot (before `SET
            // wal_dir`), so the name resolves again here.
            Statement::Execute { name, params } => {
                if self.prepared_statement(&name).is_none() {
                    return Err(FudjError::Storage(format!(
                        "journaled EXECUTE references unprepared statement {name:?} \
                         (re-PREPARE it before SET wal_dir)"
                    )));
                }
                self.bind_execute(&name, &params)?
            }
            other => {
                return Err(FudjError::Storage(format!(
                    "query journal replayed a non-SELECT statement: {other:?}"
                )))
            }
        };
        let options = self.options_from_journal(&query.options);
        let plan = Arc::new(self.plan_under(&sel, &options)?);
        let name = label(&query.sql);
        self.run(plan, &options, Entry::Resumed(query), &name, None)?
            .wait()
    }

    /// Detach the durable store (`SET wal_dir = off`). Already-logged
    /// state stays on disk; subsequent mutations and checkpoints are
    /// in-memory only.
    pub fn close_wal(&self) {
        if lock(&self.durable).take().is_some() {
            self.cluster.checkpoints().relocate_to_memory();
            self.catalog.set_sink(None);
            self.registry.set_sink(None);
            for name in self.catalog.names() {
                if let Ok(dataset) = self.catalog.get(&name) {
                    dataset.detach_sink();
                }
            }
        }
    }

    /// Write an atomic snapshot of the current catalog + registry and
    /// compact the WAL behind it (`\persist` in the REPL).
    pub fn persist(&self) -> Result<()> {
        let store = self.durable().ok_or_else(|| {
            FudjError::Storage("no wal_dir open (SET wal_dir = <path> first)".into())
        })?;
        let state = durability::snapshot_state(&self.catalog, &self.registry)?;
        store.snapshot(&state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fingerprint;
    use fudj_core::UdfPolicy;
    use fudj_joins::standard_library;
    use fudj_storage::wal::WalRecord;
    use fudj_storage::Dataset;
    use fudj_types::Value;

    fn wal_test_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("fudj-wal-session-{}-{tag}", std::process::id()))
    }

    fn kv_dataset() -> Dataset {
        use fudj_types::{DataType, Field, Row, Schema};
        let dataset = fudj_storage::DatasetBuilder::new(
            "kv",
            Schema::shared(vec![
                Field::new("id", DataType::Int64),
                Field::new("tag", DataType::String),
            ]),
        )
        .primary_key("id")
        .partitions(2)
        .build()
        .unwrap();
        dataset
            .insert(Row::new(vec![Value::Int64(1), Value::str("seed")]))
            .unwrap();
        dataset
    }

    /// Whether the session's checkpoint store keeps its frames under
    /// `dir`'s `checkpoints/` on the real disk: write a probe frame, look,
    /// and drop it again.
    fn checkpoints_under(s: &Session, dir: &std::path::Path) -> bool {
        let store = s.cluster().checkpoints().clone();
        store.put(u64::MAX, "probe", 0, &[]).unwrap();
        let on_disk = std::fs::read_dir(dir.join(CHECKPOINT_DIR))
            .map(|mut entries| entries.next().is_some())
            .unwrap_or(false);
        store.remove_query(u64::MAX);
        on_disk
    }

    #[test]
    fn set_wal_dir_replays_tables_joins_and_appends_across_restart() {
        use fudj_types::Row;
        let dir = wal_test_dir("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let s = Session::new(2);
            s.install_library(standard_library());
            let kv = s.register_dataset(kv_dataset()).unwrap();
            s.execute(&format!("SET wal_dir = '{}'", dir.display()))
                .unwrap();
            // Post-open mutations are WALed: appends, join DDL.
            kv.insert(Row::new(vec![Value::Int64(2), Value::str("waled")]))
                .unwrap();
            kv.insert(Row::new(vec![Value::Int64(3), Value::str("waled")]))
                .unwrap();
            s.execute(
                r#"CREATE JOIN st_contains(a: polygon, b: point)
                   RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins
                   WITH (policy = quarantine, budget_ms = 250, memory_budget_rows = 8);"#,
            )
            .unwrap();
            // The session stamps durability counters into query metrics.
            let out = s.execute("SELECT COUNT(*) FROM kv k").unwrap();
            assert!(out.metrics().durability.wal_records_appended > 0);
            assert!(out.metrics().durability.wal_fsyncs > 0, "default is sync");
        }
        // "Restart": a fresh session recovers tables, rows, and join DDL.
        let s = Session::new(2);
        s.install_library(standard_library());
        s.execute(&format!("SET wal_dir = '{}'", dir.display()))
            .unwrap();
        let kv = s.catalog().get("kv").unwrap();
        assert_eq!(kv.len(), 3, "seeded + 2 WALed rows survive the restart");
        let def = s.registry().get("st_contains").expect("join DDL recovered");
        assert_eq!(def.guard().policy, UdfPolicy::Quarantine);
        assert_eq!(def.guard().limits.call_budget_ms, 250);
        assert_eq!(def.memory_budget_rows(), Some(8));
        let batch = s.query("SELECT COUNT(*) FROM kv k").unwrap();
        assert_eq!(batch.rows()[0].get(0).as_i64().unwrap(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn set_durability_controls_fsync_cadence_and_persist_compacts() {
        use fudj_types::Row;
        let dir = wal_test_dir("persist");
        let _ = std::fs::remove_dir_all(&dir);
        let s = Session::new(2);
        s.install_library(standard_library());
        let kv = s.register_dataset(kv_dataset()).unwrap();
        // The cadence knob is remembered even before the store opens.
        s.execute("SET durability = 16").unwrap();
        s.execute(&format!("SET wal_dir = '{}'", dir.display()))
            .unwrap();
        let store = s.durable().expect("store open");
        assert_eq!(store.sync_every(), 16);
        s.execute("SET durability = sync").unwrap();
        assert_eq!(store.sync_every(), 1);
        s.execute("SET durability = off").unwrap();
        assert_eq!(store.sync_every(), 0);

        for i in 10..30 {
            kv.insert(Row::new(vec![Value::Int64(i), Value::str("bulk")]))
                .unwrap();
        }
        let v0 = store.version();
        s.persist().unwrap();
        assert_eq!(store.version(), v0 + 1, "snapshot advances the version");
        assert!(store.stats().snapshots_written > 0);

        // Recovery from the snapshot (plus empty tail) sees every row.
        let s2 = Session::new(2);
        s2.install_library(standard_library());
        s2.execute(&format!("SET wal_dir = '{}'", dir.display()))
            .unwrap();
        assert_eq!(s2.catalog().get("kv").unwrap().len(), 21);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_durable_journals_and_seals_queries() {
        let sql = "SELECT k.tag, COUNT(*) AS c FROM kv k GROUP BY k.tag";
        let dir = wal_test_dir("journal-seal");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let s = Session::new(2);
            s.install_library(standard_library());
            s.register_dataset(kv_dataset()).unwrap();
            // Knob set before the WAL opens is remembered (like
            // durability) and arms the tier at open.
            s.execute("SET checkpoint_durable = on").unwrap();
            s.execute(&format!("SET wal_dir = '{}'", dir.display()))
                .unwrap();
            assert!(checkpoints_under(&s, &dir));
            let store = s.durable().unwrap();
            let before = store.stats().journal_records_appended;
            let out = s.execute(sql).unwrap();
            assert_eq!(out.batch().len(), 1);
            let stats = store.stats();
            assert!(
                stats.journal_records_appended >= before + 3,
                "submit + at least one stage commit + finish, got {}",
                stats.journal_records_appended - before
            );
            assert!(out.metrics().recovery.checkpoints_written > 0);
            assert_eq!(
                s.cluster().checkpoints().frames(),
                Vec::<String>::new(),
                "finished queries drop their frames eagerly"
            );

            let err = s.execute("SET checkpoint_durable = maybe").unwrap_err();
            assert!(err.to_string().contains("expects on or off"), "{err}");
            // Toggling the journal over the open WAL moves the checkpoints
            // and leaves `checkpoint_stages` alone: once it is off, a plain
            // SELECT writes none.
            for toggle in ["off", "on", "off"] {
                s.execute(&format!("SET checkpoint_durable = {toggle}"))
                    .unwrap();
                assert_eq!(checkpoints_under(&s, &dir), toggle == "on");
                assert_eq!(s.setting("checkpoint_stages").as_deref(), Some("off"));
            }
            let plain = s.execute(sql).unwrap();
            assert_eq!(plain.metrics().recovery.checkpoints_written, 0);
            let err = s
                .execute("SET checkpoint_stages = 'join:combine,agg:shuffle'")
                .unwrap_err();
            assert!(err.to_string().contains("expects all or off"), "{err}");
        }
        // Reopen: every journaled query finished, so nothing resumes.
        let s2 = Session::new(2);
        s2.install_library(standard_library());
        s2.execute(&format!("SET wal_dir = '{}'", dir.display()))
            .unwrap();
        assert!(
            s2.take_resumed().is_empty(),
            "sealed journal resumes nothing"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unfinished_journaled_query_resumes_exactly_once_on_reopen() {
        let dir = wal_test_dir("journal-resume");
        let _ = std::fs::remove_dir_all(&dir);
        let sql = "SELECT COUNT(*) AS c FROM kv k";
        {
            let s = Session::new(2);
            s.install_library(standard_library());
            s.register_dataset(kv_dataset()).unwrap();
            s.execute(&format!("SET wal_dir = '{}'", dir.display()))
                .unwrap();
            // Simulate a crash after submit: the journal holds a
            // QuerySubmitted with no QueryFinished.
            let store = s.durable().unwrap();
            store
                .append_journal(
                    &WalRecord::QuerySubmitted {
                        fingerprint: fingerprint::statement_fingerprint(sql),
                        sql: sql.to_owned(),
                        options: Vec::new(),
                    },
                    "journal:submit",
                )
                .unwrap();
        }
        // First reopen resumes it (full replay — no stage committed)…
        let s2 = Session::new(2);
        s2.install_library(standard_library());
        s2.execute(&format!("SET wal_dir = '{}'", dir.display()))
            .unwrap();
        let mut resumed = s2.take_resumed();
        assert_eq!(resumed.len(), 1, "one pending query");
        let r = resumed.pop().unwrap();
        assert_eq!(r.sql, sql);
        assert_eq!(r.resumed_from, None, "no boundary committed");
        let (batch, _snapshot) = r.result.unwrap();
        assert_eq!(batch.rows()[0].get(0).as_i64().unwrap(), 1);
        assert!(
            !checkpoints_under(&s2, &dir),
            "resume-only relocation moves back to memory when the knob is off"
        );
        // …and seals it: the second reopen finds a finished journal.
        let s3 = Session::new(2);
        s3.install_library(standard_library());
        s3.execute(&format!("SET wal_dir = '{}'", dir.display()))
            .unwrap();
        assert!(
            s3.take_resumed().is_empty(),
            "QueryFinished sealed the resume — exactly once"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn armed_crash_open_reopens_same_simulated_disk_and_resumes() {
        let sql = "SELECT COUNT(*) AS c FROM kv k";
        let s = Session::new(2);
        s.install_library(standard_library());
        s.register_dataset(kv_dataset()).unwrap();
        s.execute("SET checkpoint_durable = on").unwrap();
        // `\chaos crash`: the next SET wal_dir opens over a simulated
        // disk that dies at the first query submission (journal durable,
        // execution never ran).
        s.set_disk_faults(Some(StorageFaultConfig::crash_at(0, "journal:submit", 1)));
        s.execute("SET wal_dir = '/sim-crash'").unwrap();
        assert!(
            s.disk_faults().is_none(),
            "a crash plan is one-shot — consumed by the open it poisons"
        );
        let err = s.query(sql).unwrap_err();
        assert!(matches!(err, FudjError::Crash(_)), "{err}");
        // Reopening the same dir plays the process restart: the simulated
        // disk (and the query journal on it) survives, the poison clears,
        // and the in-flight query resumes.
        s.execute("SET wal_dir = '/sim-crash'").unwrap();
        let mut resumed = s.take_resumed();
        assert_eq!(resumed.len(), 1, "journal survived the reopen");
        let r = resumed.pop().unwrap();
        assert_eq!(r.sql, sql);
        let (batch, _) = r.result.unwrap();
        assert_eq!(batch.rows()[0].get(0).as_i64().unwrap(), 1);
        // The restarted disk is quiet: the same query now runs clean, and
        // a third reopen finds a sealed journal.
        s.query(sql).unwrap();
        s.execute("SET wal_dir = '/sim-crash'").unwrap();
        assert!(s.take_resumed().is_empty(), "resume sealed exactly once");
    }

    #[test]
    fn set_wal_dir_off_detaches_and_stops_logging() {
        use fudj_types::Row;
        let dir = wal_test_dir("detach");
        let _ = std::fs::remove_dir_all(&dir);
        let s = Session::new(2);
        s.install_library(standard_library());
        let kv = s.register_dataset(kv_dataset()).unwrap();
        s.execute(&format!("SET wal_dir = '{}'", dir.display()))
            .unwrap();
        s.execute("SET wal_dir = off").unwrap();
        assert!(s.durable().is_none());
        kv.insert(Row::new(vec![Value::Int64(99), Value::str("lost")]))
            .unwrap();

        let s2 = Session::new(2);
        s2.execute(&format!("SET wal_dir = '{}'", dir.display()))
            .unwrap();
        assert_eq!(
            s2.catalog().get("kv").unwrap().len(),
            1,
            "rows inserted after detach are not durable"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn set_wal_dir_unwritable_path_is_a_clean_error() {
        // Tests run as root, so permission bits don't block writes; a path
        // nested *under a regular file* fails even for root (ENOTDIR).
        let blocker = wal_test_dir("blocker");
        let _ = std::fs::remove_dir_all(&blocker);
        std::fs::write(&blocker, b"not a directory").unwrap();
        let s = Session::new(2);
        let err = s
            .execute(&format!(
                "SET wal_dir = '{}'",
                blocker.join("nested").display()
            ))
            .unwrap_err();
        assert!(err.to_string().contains("storage error"), "{err}");
        assert!(
            s.durable().is_none(),
            "failed open leaves no half-attached store"
        );
        // The session stays usable.
        s.register_dataset(kv_dataset()).unwrap();
        assert!(s.query("SELECT COUNT(*) FROM kv k").is_ok());
        let _ = std::fs::remove_file(&blocker);
    }
}
