//! The REPL engine: statement accumulation, meta commands, execution.

use crate::render::{
    render_batch, render_durability_stats, render_exec_mode, render_fault_stats,
    render_recovery_stats, render_serving_stats, render_spill_stats, render_udf_stats,
};
use fudj_datagen::GeneratorConfig;
use fudj_exec::{FaultConfig, GuardConfig, GuardMode, UdfPolicy};
use fudj_joins::{evil_library, standard_library};
use fudj_sched::JobHandle;
use fudj_sql::{QueryOutput, Session};
use std::collections::HashMap;
use std::fmt::Write as _;

/// What one line of input amounts to.
#[derive(Debug, PartialEq, Eq)]
pub enum ReplCommand {
    /// Keep buffering (statement not finished with `;` yet).
    Incomplete,
    /// A complete SQL statement to execute.
    Statement(String),
    /// Meta command (`\d`, `\joins`, `\timing`, `\help`, `\q`, `\sample N`).
    Meta(String, Vec<String>),
}

/// The interactive session state.
pub struct Repl {
    session: Session,
    buffer: String,
    timing: bool,
    show_metrics: bool,
    /// Result handles of `\submit`-ed jobs, consumed by `\await`.
    jobs: HashMap<u64, JobHandle>,
}

impl Repl {
    /// Fresh REPL over a cluster of `workers`, with the standard library and
    /// the adversarial `evillib` fixtures (for trying `\guard` policies)
    /// installed.
    pub fn new(workers: usize) -> Self {
        let session = Session::new(workers);
        session.install_library(standard_library());
        session.install_library(evil_library());
        Repl {
            session,
            buffer: String::new(),
            timing: true,
            show_metrics: false,
            jobs: HashMap::new(),
        }
    }

    /// The underlying session (tests and embedding).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Classify one input line, buffering incomplete statements.
    pub fn feed(&mut self, line: &str) -> ReplCommand {
        let trimmed = line.trim();
        if self.buffer.is_empty() && trimmed.starts_with('\\') {
            let mut parts = trimmed[1..].split_whitespace();
            let cmd = parts.next().unwrap_or("").to_string();
            return ReplCommand::Meta(cmd, parts.map(str::to_owned).collect());
        }
        if !self.buffer.is_empty() {
            self.buffer.push('\n');
        }
        self.buffer.push_str(line);
        if self.buffer.trim_end().ends_with(';') {
            let stmt = std::mem::take(&mut self.buffer);
            ReplCommand::Statement(stmt)
        } else {
            ReplCommand::Incomplete
        }
    }

    /// Execute a complete statement and render the outcome.
    pub fn run_statement(&mut self, sql: &str) -> String {
        let start = std::time::Instant::now();
        match self.session.execute(sql) {
            Ok(QueryOutput::Rows(batch, metrics)) => {
                let mut out = render_batch(&batch);
                if self.timing {
                    let _ = writeln!(out, "Time: {:?}", start.elapsed());
                }
                if self.show_metrics {
                    out.push_str(&render_exec_mode(&metrics));
                    let _ = writeln!(
                        out,
                        "Network: {} bytes shuffled, {} broadcast, {} state; verify calls: {}",
                        metrics.bytes_shuffled,
                        metrics.bytes_broadcast,
                        metrics.state_bytes,
                        metrics.verify_calls,
                    );
                    for (w, stats) in metrics.per_worker.iter().enumerate() {
                        let _ = writeln!(
                            out,
                            "  worker {w}: {} rows received, {} bytes received, busy {:?}",
                            stats.rows, stats.bytes, stats.busy,
                        );
                    }
                    for skew in metrics.skew_report() {
                        let _ = writeln!(
                            out,
                            "  phase {}: max {:?} / mean {:?} across {} workers (skew {:.2})",
                            skew.phase,
                            skew.max,
                            skew.mean,
                            skew.workers,
                            skew.ratio(),
                        );
                    }
                    out.push_str(&render_spill_stats(&metrics));
                    out.push_str(&render_fault_stats(&metrics));
                    out.push_str(&render_recovery_stats(&metrics));
                    out.push_str(&render_durability_stats(&metrics));
                    out.push_str(&render_udf_stats(&metrics));
                    out.push_str(&render_serving_stats(&metrics));
                    let plans = self.session.plan_cache_counters();
                    let _ = writeln!(
                        out,
                        "Plan cache: {} hit / {} miss / {} evicted this session",
                        plans.hits, plans.misses, plans.evictions,
                    );
                }
                out
            }
            Ok(QueryOutput::Ack(msg)) => {
                let mut out = format!("{msg}\n");
                // `SET wal_dir` journal-resumes queries the previous
                // incarnation left unfinished; deliver their results here
                // (exactly once — the drain empties the session's buffer).
                for r in self.session.take_resumed() {
                    match &r.result {
                        Ok((batch, _)) => {
                            let how = r
                                .resumed_from
                                .as_deref()
                                .map(|s| format!("from the {s} checkpoint"))
                                .unwrap_or_else(|| "via full replay".to_owned());
                            let _ = writeln!(out, "resumed unfinished query ({how}): {}", r.sql);
                            out.push_str(&render_batch(batch));
                        }
                        Err(e) => {
                            let _ = writeln!(out, "error: resume of {:?} failed: {e}", r.sql);
                        }
                    }
                }
                out
            }
            Ok(QueryOutput::Plan(plan)) => plan,
            Err(e) => format!("error: {e}\n"),
        }
    }

    /// Execute a meta command and render the outcome.
    pub fn run_meta(&mut self, cmd: &str, args: &[String]) -> String {
        match cmd {
            "d" | "datasets" => {
                let mut out = String::new();
                for name in self.session.catalog().names() {
                    // A dataset dropped between names() and get() is not
                    // worth a panic — just skip the stale name.
                    let Ok(ds) = self.session.catalog().get(&name) else {
                        continue;
                    };
                    let _ = writeln!(
                        out,
                        "{name}  ({} rows, {} partitions): {}",
                        ds.len(),
                        ds.partition_count(),
                        ds.schema()
                    );
                }
                if out.is_empty() {
                    out.push_str("no datasets; try \\sample 2000\n");
                }
                out
            }
            "joins" => {
                let mut out = String::new();
                for name in self.session.registry().join_names() {
                    let Some(def) = self.session.registry().get(&name) else {
                        continue;
                    };
                    let _ = writeln!(out, "{def:?}");
                }
                if out.is_empty() {
                    out.push_str("no joins registered; see \\help for a CREATE JOIN example\n");
                }
                out
            }
            "libraries" => {
                format!("{:?}\n", self.session.registry().library_names())
            }
            "timing" => {
                self.timing = !self.timing;
                format!("timing {}\n", if self.timing { "on" } else { "off" })
            }
            "metrics" => {
                self.show_metrics = !self.show_metrics;
                format!("metrics {}\n", if self.show_metrics { "on" } else { "off" })
            }
            "chaos" => match args.first().map(String::as_str) {
                None | Some("off") => {
                    let was_on = self.session.faults().is_some();
                    self.session.set_faults(None);
                    if was_on {
                        "chaos off\n".to_owned()
                    } else {
                        "chaos is off; \\chaos <seed> arms deterministic fault injection\n"
                            .to_owned()
                    }
                }
                Some("disk") => match args.get(1).map(String::as_str) {
                    Some("off") => {
                        self.session.set_disk_faults(None);
                        "disk chaos off; the next SET wal_dir uses the real filesystem \
                         (a dir opened under chaos reopens its simulated disk, quieted)\n"
                            .to_owned()
                    }
                    Some(arg) => match arg.parse::<u64>() {
                        Ok(seed) => {
                            self.session
                                .set_disk_faults(Some(fudj_storage::StorageFaultConfig::chaos(
                                    seed,
                                )));
                            format!(
                                "disk chaos on (seed {seed}): the next SET wal_dir opens its \
                                 store over a fault-injecting filesystem (torn writes, \
                                 dropped fsyncs, bit flips); \\metrics shows durability \
                                 counters\n"
                            )
                        }
                        Err(_) => {
                            format!("error: bad seed {arg:?}; usage: \\chaos disk <seed>|off\n")
                        }
                    },
                    None => "usage: \\chaos disk <seed>|off\n".to_owned(),
                },
                Some("crash") => match args.get(1).map(|a| a.parse::<u64>()) {
                    Some(Ok(seed)) => {
                        // Whole-process crash: the seed deterministically
                        // picks a crash site across the WAL, snapshot,
                        // checkpoint, and query-journal write paths.
                        let sites: Vec<&str> = fudj_storage::QUERY_CRASH_POINTS
                            .iter()
                            .chain(fudj_storage::CRASH_POINTS)
                            .copied()
                            .collect();
                        let site = sites[(seed as usize) % sites.len()];
                        let hit = 1 + seed % 3;
                        self.session
                            .set_disk_faults(Some(fudj_storage::StorageFaultConfig::crash_at(
                                seed, site, hit,
                            )));
                        format!(
                            "crash chaos on (seed {seed}): the next SET wal_dir opens its \
                             store over a filesystem that dies at {site} (hit {hit}); \
                             reopen the same wal_dir to journal-resume in-flight queries\n"
                        )
                    }
                    _ => "usage: \\chaos crash <seed>\n".to_owned(),
                },
                Some("deaths") => match args.get(1).map(|a| a.parse::<u64>()) {
                    Some(Ok(seed)) => {
                        self.session
                            .set_faults(Some(FaultConfig::chaos_with_deaths(seed)));
                        format!(
                            "chaos on with worker deaths (seed {seed}): stage boundaries \
                             may permanently kill a worker; SET checkpoint_stages = all \
                             checkpoints every boundary (in memory, or on the WAL's disk \
                             under checkpoint_durable) for partial recovery, \\workers \
                             shows membership\n"
                        )
                    }
                    _ => "usage: \\chaos deaths <seed>\n".to_owned(),
                },
                Some(arg) => match arg.parse::<u64>() {
                    Ok(seed) => {
                        self.session.set_faults(Some(FaultConfig::chaos(seed)));
                        format!(
                            "chaos on (seed {seed}): queries now run under deterministic \
                             fault injection; \\metrics shows recovery counters\n"
                        )
                    }
                    Err(_) => format!("error: bad seed {arg:?}; usage: \\chaos <seed>\n"),
                },
            },
            "workers" => match args.first().map(String::as_str) {
                None => {
                    let mut out = String::new();
                    for info in self.session.cluster().workers_status() {
                        let state = match info.state {
                            fudj_exec::WorkerState::Active => "active",
                            fudj_exec::WorkerState::Dead => "dead",
                            fudj_exec::WorkerState::Quarantined => "quarantined",
                            fudj_exec::WorkerState::Decommissioned => "decommissioned",
                        };
                        let _ = writeln!(
                            out,
                            "worker {}  {:<14} {} injected failure{}",
                            info.worker,
                            state,
                            info.failures,
                            if info.failures == 1 { "" } else { "s" },
                        );
                    }
                    out
                }
                Some("drop") => match args.get(1).and_then(|a| a.parse::<usize>().ok()) {
                    Some(w) => match self.session.cluster().decommission_worker(w) {
                        Ok(()) => format!(
                            "worker {w} decommissioned; its partitions rehash onto survivors\n"
                        ),
                        Err(e) => format!("error: {e}\n"),
                    },
                    None => "usage: \\workers drop <worker id>\n".to_owned(),
                },
                Some("add") => match self.session.cluster().add_worker() {
                    Ok(w) => format!("worker {w} rejoined the cluster\n"),
                    Err(e) => format!("error: {e}\n"),
                },
                Some(other) => {
                    format!("error: unknown subcommand {other:?}; usage: \\workers [drop <id>|add]\n")
                }
            },
            "guard" => match args.first().map(String::as_str) {
                None => format!("guard mode: {}\n", guard_mode_text(self.session.guard())),
                Some("off") => {
                    self.session.set_guard(GuardMode::Off);
                    "guard off: user-defined joins run unguarded\n".to_owned()
                }
                Some("per-join") | Some("perjoin") | Some("on") => {
                    self.session.set_guard(GuardMode::PerJoin);
                    "guard per-join: each join runs under its CREATE JOIN options\n".to_owned()
                }
                Some(arg) => match UdfPolicy::parse(arg) {
                    Some(policy) => {
                        self.session
                            .set_guard(GuardMode::Override(GuardConfig::with_policy(policy)));
                        format!("guard override: all joins now run under policy {policy}\n")
                    }
                    None => format!(
                        "error: bad guard mode {arg:?}; usage: \\guard \
                         [off|per-join|failfast|quarantine|fallback]\n"
                    ),
                },
            },
            "sample" => {
                let n: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(2_000);
                match self.load_sample(n) {
                    Ok(()) => format!("loaded sample datasets with ~{n} records each\n"),
                    Err(e) => format!("error: {e}\n"),
                }
            }
            "save" => match (args.first(), args.get(1)) {
                (Some(name), Some(path)) => {
                    match self
                        .session
                        .catalog()
                        .get(name)
                        .and_then(|ds| fudj_storage::write_csv(&ds, path))
                    {
                        Ok(rows) => format!("wrote {rows} rows to {path}\n"),
                        Err(e) => format!("error: {e}\n"),
                    }
                }
                _ => "usage: \\save <dataset> <file.csv>\n".to_owned(),
            },
            "load" => match (args.first(), args.get(1)) {
                (Some(name), Some(path)) => match self.load_csv(name, path, args.get(2)) {
                    Ok(rows) => format!("loaded {rows} rows into {name}\n"),
                    Err(e) => format!("error: {e}\n"),
                },
                _ => {
                    "usage: \\load <dataset> <file.csv> [col:type,col:type,...]\n                     (omit the column list to reuse an existing dataset's schema)\n"
                        .to_owned()
                }
            },
            "submit" => {
                if args.is_empty() {
                    return "usage: \\submit <select statement>\n".to_owned();
                }
                let sql = args.join(" ");
                match self.session.submit(&sql) {
                    Ok(handle) => {
                        let id = handle.id();
                        let msg =
                            format!("job {id} submitted; \\jobs tracks it, \\await {id} waits\n");
                        self.jobs.insert(id, handle);
                        msg
                    }
                    Err(e) => format!("error: {e}\n"),
                }
            }
            "jobs" => {
                let jobs = self.session.scheduler().jobs();
                if jobs.is_empty() {
                    return "no jobs; every SELECT runs as one\n".to_owned();
                }
                let mut out = String::new();
                for j in jobs {
                    let deadline = j
                        .deadline_ms
                        .map(|d| format!(", deadline {d} ms"))
                        .unwrap_or_default();
                    let _ = writeln!(
                        out,
                        "job {}  {:<9} prio {}  batches {}  sim {} ms{}  {}",
                        j.id,
                        j.state.to_string(),
                        j.priority,
                        j.batches,
                        j.sim_clock_ms,
                        deadline,
                        j.label,
                    );
                    if let Some(e) = &j.error {
                        let _ = writeln!(out, "    error: {e}");
                    }
                }
                out
            }
            "cancel" => match args.first().and_then(|a| a.parse::<u64>().ok()) {
                Some(id) => match self.session.scheduler().cancel(id) {
                    Ok(()) => format!("job {id} cancel requested\n"),
                    Err(e) => format!("error: {e}\n"),
                },
                None => "usage: \\cancel <job id>\n".to_owned(),
            },
            "await" => match args.first().and_then(|a| a.parse::<u64>().ok()) {
                Some(id) => match self.jobs.remove(&id) {
                    Some(handle) => match handle.wait() {
                        Ok((batch, _)) => render_batch(&batch),
                        Err(e) => format!("error: {e}\n"),
                    },
                    None => format!("error: no pending handle for job {id}\n"),
                },
                None => "usage: \\await <job id>\n".to_owned(),
            },
            "persist" => match self.session.persist() {
                Ok(()) => {
                    let store = self.session.durable().expect("persist succeeded");
                    format!(
                        "snapshot v{} written to {}; WAL compacted\n",
                        store.version(),
                        store.dir().display(),
                    )
                }
                Err(e) => format!("error: {e}\n"),
            },
            "serve" => match args.first().and_then(|a| a.parse::<u64>().ok()) {
                Some(seed) => match crate::serve_demo::run(seed) {
                    Ok(report) => report,
                    Err(e) => format!("error: {e}\n"),
                },
                None => "usage: \\serve <seed>\n".to_owned(),
            },
            "help" | "?" => help(Some(&self.session)),
            "q" | "quit" | "exit" => String::new(),
            other => format!("unknown command \\{other}; try \\help\n"),
        }
    }

    /// Load the synthetic sample datasets and register the paper's joins.
    pub fn load_sample(&mut self, n: usize) -> fudj_types::Result<()> {
        let parts = 4;
        self.session
            .register_dataset(fudj_datagen::parks(GeneratorConfig::new(n, 1, parts))?)?;
        self.session
            .register_dataset(fudj_datagen::wildfires(GeneratorConfig::new(
                2 * n,
                2,
                parts,
            ))?)?;
        self.session
            .register_dataset(fudj_datagen::nyctaxi(GeneratorConfig::new(n, 3, parts))?)?;
        self.session
            .register_dataset(fudj_datagen::amazon_reviews(GeneratorConfig::new(
                n, 4, parts,
            ))?)?;
        self.session
            .register_dataset(fudj_datagen::weather(GeneratorConfig::new(n, 5, parts))?)?;
        for ddl in [
            r#"CREATE JOIN st_contains(a: polygon, b: point)
               RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins"#,
            r#"CREATE JOIN overlapping_interval(a: interval, b: interval)
               RETURNS boolean AS "interval.OverlappingIntervalJoin" AT flexiblejoins"#,
            r#"CREATE JOIN similarity_jaccard(a: string, b: string, t: double)
               RETURNS boolean AS "setsimilarity.SetSimilarityJoin" AT flexiblejoins"#,
            r#"CREATE JOIN jaccard_similarity(a: string, b: string, t: double)
               RETURNS boolean AS "setsimilarity.SetSimilarityJoin" AT flexiblejoins"#,
        ] {
            self.session.execute(ddl)?;
        }
        Ok(())
    }

    /// Load a CSV file into a (possibly new) dataset. With no explicit
    /// column list the schema is copied from an existing dataset of the
    /// same name pattern `<name>` (useful for re-importing a \\save).
    fn load_csv(
        &mut self,
        name: &str,
        path: &str,
        columns: Option<&String>,
    ) -> fudj_types::Result<usize> {
        let schema = match columns {
            Some(spec) => {
                let mut fields = Vec::new();
                for part in spec.split(',') {
                    let (col, ty) = part.split_once(':').ok_or_else(|| {
                        fudj_types::FudjError::Parse(format!("bad column spec {part:?}"))
                    })?;
                    fields.push(fudj_types::Field::new(col.trim(), parse_type(ty.trim())?));
                }
                std::sync::Arc::new(fudj_types::Schema::new(fields))
            }
            None => self
                .session
                .catalog()
                .get(name)
                .map(|ds| ds.schema().clone())?,
        };
        // Re-importing over an existing dataset replaces it.
        let _ = self.session.catalog().drop_dataset(name);
        let pk = schema.fields()[0].name.clone();
        let ds = fudj_storage::read_csv(path, name, schema, &pk, 4)?;
        let rows = ds.len();
        self.session.register_dataset(ds)?;
        Ok(rows)
    }
}

/// Human-readable description of a guard mode for `\guard`.
fn guard_mode_text(mode: &GuardMode) -> String {
    match mode {
        GuardMode::PerJoin => "per-join (each join's CREATE JOIN options)".to_owned(),
        GuardMode::Override(config) => format!("override (policy {})", config.policy),
        GuardMode::Off => "off".to_owned(),
    }
}

/// Parse a column type name (the same vocabulary as CREATE JOIN).
fn parse_type(name: &str) -> fudj_types::Result<fudj_types::DataType> {
    use fudj_types::DataType as T;
    Ok(match name.to_ascii_lowercase().as_str() {
        "string" | "text" => T::String,
        "double" | "float" => T::Float64,
        "bigint" | "int" => T::Int64,
        "boolean" | "bool" => T::Bool,
        "uuid" => T::Uuid,
        "datetime" => T::DateTime,
        "interval" => T::Interval,
        "point" => T::Point,
        "polygon" => T::Polygon,
        other => {
            return Err(fudj_types::FudjError::Parse(format!(
                "unknown type {other:?}"
            )))
        }
    })
}

/// `\help` text: the statement and meta-command reference, then every
/// row of [`fudj_sql::KNOBS`] — the `SET` keys (with the value in force,
/// given a session) and the `CREATE JOIN … WITH` options.
pub fn help(session: Option<&Session>) -> String {
    let mut text = HELP_COMMANDS.to_owned();
    text.push_str("  SET knobs (statements, end with ';'):\n");
    for knob in fudj_sql::KNOBS.iter().filter(|k| k.is_set_key()) {
        let now = session
            .and_then(|s| s.setting(knob.name))
            .map(|value| format!("  [now {value}]"))
            .unwrap_or_default();
        let _ = writeln!(text, "    SET {} = {};{now}", knob.name, knob.syntax);
        let _ = writeln!(text, "        {}", knob.doc);
    }
    text.push_str("  CREATE JOIN ... WITH (option = value, ...):\n");
    for knob in fudj_sql::KNOBS.iter().filter(|k| k.is_join_option()) {
        let _ = writeln!(text, "    {} = {}", knob.name, knob.syntax);
        let _ = writeln!(text, "        {}", knob.doc);
    }
    text.push_str("    \\help         this text            \\q         quit\n");
    text
}

const HELP_COMMANDS: &str = r#"FUDJ shell
  statements end with ';' and may span lines:
    SELECT ... FROM ds a, ds2 b WHERE ... GROUP BY ... ORDER BY ... LIMIT n;
    EXPLAIN SELECT ...;
    CREATE JOIN name(a: type, b: type[, p: type]) RETURNS boolean
      AS "class.Name" AT library;
    DROP JOIN name;
  meta commands:
    \sample [N]   load synthetic Parks/Wildfires/NYCTaxi/AmazonReview/Weather
                  datasets (~N records each) and register the paper's joins
    \d            list datasets        \joins     list registered joins
    \libraries    list join libraries  \timing    toggle query timing
    \metrics      toggle network/verify metrics after each query
    \chaos <seed> run queries under deterministic fault injection (task
                  panics, lost workers, stragglers, dropped/duplicated
                  shuffles) with automatic recovery; \chaos off disarms
    \chaos deaths <seed>              like \chaos, plus permanent worker
                                      deaths at stage boundaries; pair with
                                      SET checkpoint_stages = all for
                                      partial (lineage-scoped) recovery
                                      from checkpoint frames (in memory,
                                      or on the WAL's disk under
                                      checkpoint_durable)
    \workers      per-worker membership (active/dead/quarantined/
                  decommissioned) and failure counts
    \workers drop <id>                decommission a worker (partitions
                                      rehash deterministically onto the
                                      survivors); \workers add rejoins one
    \guard [mode] show or set the UDF guardrail mode: per-join (default,
                  honors CREATE JOIN ... WITH options), off, or a
                  session-wide policy override (failfast, quarantine,
                  fallback); \metrics shows per-query violation counters
    \submit <select ...>              schedule a SELECT without waiting for
                                      it; like every SELECT it honors SET
                                      priority / deadline_ms /
                                      memory_budget_rows
    \jobs                             list every query (each SELECT is a
                                      scheduler job) and its state; the
                                      last 1024 finished ones are kept
    \await <id>                       wait for a submitted job's rows
    \cancel <id>                      cancel a queued or running query
    \serve <seed>                     run a seeded multi-tenant workload
                                      through a fresh serving tier and
                                      report its plan- and result-cache
                                      hits and its admissions
    \persist                          write an atomic snapshot and compact
                                      the WAL behind it
    \chaos disk <seed>                the next SET wal_dir injects seeded
                                      torn writes, dropped fsyncs, and bit
                                      flips; \chaos disk off disarms
    \chaos crash <seed>               the next SET wal_dir dies at a seeded
                                      crash site (WAL, snapshot, checkpoint,
                                      or query-journal write); reopen the
                                      same wal_dir to journal-resume
    \save <ds> <file.csv>             export a dataset to CSV
    \load <ds> <file.csv> [c:t,...]   import CSV (new schema or an
                                      existing dataset's)
"#;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feed_buffers_until_semicolon() {
        let mut r = Repl::new(2);
        assert_eq!(r.feed("SELECT 1"), ReplCommand::Incomplete);
        match r.feed("FROM t;") {
            ReplCommand::Statement(s) => assert_eq!(s, "SELECT 1\nFROM t;"),
            other => panic!("{other:?}"),
        }
        // Buffer resets afterwards.
        assert_eq!(r.feed("\\q"), ReplCommand::Meta("q".into(), vec![]));
    }

    #[test]
    fn meta_commands_parse_with_args() {
        let mut r = Repl::new(2);
        assert_eq!(
            r.feed("\\sample 500"),
            ReplCommand::Meta("sample".into(), vec!["500".into()])
        );
    }

    #[test]
    fn sample_load_and_query_end_to_end() {
        let mut r = Repl::new(2);
        let msg = r.run_meta("sample", &["300".into()]);
        assert!(msg.contains("loaded"), "{msg}");
        let out = r.run_statement(
            "SELECT COUNT(*) AS c FROM NYCTaxi n1, NYCTaxi n2 \
             WHERE n1.Vendor = 1 AND n2.Vendor = 2 \
               AND overlapping_interval(n1.ride_interval, n2.ride_interval);",
        );
        assert!(out.contains("(1 row)"), "{out}");
        assert!(out.contains("Time:"), "{out}");
    }

    #[test]
    fn datasets_and_joins_listings() {
        let mut r = Repl::new(2);
        assert!(r.run_meta("d", &[]).contains("no datasets"));
        r.run_meta("sample", &["200".into()]);
        let d = r.run_meta("d", &[]);
        assert!(d.contains("Parks") && d.contains("Weather"), "{d}");
        let j = r.run_meta("joins", &[]);
        assert!(j.contains("st_contains"), "{j}");
    }

    #[test]
    fn toggles_and_unknown_commands() {
        let mut r = Repl::new(2);
        assert!(r.run_meta("timing", &[]).contains("off"));
        assert!(r.run_meta("timing", &[]).contains("on"));
        assert!(r.run_meta("metrics", &[]).contains("on"));
        assert!(r.run_meta("nonsense", &[]).contains("unknown"));
        assert!(r.run_meta("help", &[]).contains("CREATE JOIN"));
    }

    /// One direction only: every `\command` that `\help` names reaches a
    /// `run_meta` arm. The converse is not checked, so an arm added
    /// without a `\help` line passes unnoticed. Catching it needs the
    /// arms as data; a dispatch table over these closures would be longer
    /// than the `match`, and scanning this file's source for arms (what
    /// this test did before `help` took a session) breaks on any
    /// reformatting of the `match`.
    #[test]
    fn every_command_help_names_is_dispatched() {
        let mut r = Repl::new(2);
        let help = help(None);
        let mut commands: Vec<&str> = help
            .split('\\')
            .skip(1)
            .map(|rest| {
                rest.split(|c: char| !c.is_ascii_lowercase())
                    .next()
                    .unwrap()
            })
            .collect();
        commands.sort_unstable();
        commands.dedup();
        assert!(commands.len() >= 15, "{commands:?}");
        for cmd in commands {
            let out = r.run_meta(cmd, &[]);
            assert!(!out.contains("unknown command"), "\\{cmd}: {out}");
        }
    }

    #[test]
    fn help_lists_every_knob_once_and_the_values_in_force() {
        let text = help(None);
        for knob in fudj_sql::KNOBS {
            let (name, syntax) = (knob.name, knob.syntax);
            if knob.is_set_key() {
                let line = format!("    SET {name} = {syntax};\n");
                assert_eq!(text.matches(&line).count(), 1, "{line}");
            }
            if knob.is_join_option() {
                let line = format!("    {name} = {syntax}\n");
                assert_eq!(text.matches(&line).count(), 1, "{line}");
            }
        }
        let mut r = Repl::new(2);
        r.run_statement("SET stage_slots = 3;");
        let live = r.run_meta("help", &[]);
        assert!(live.contains("SET stage_slots = N;  [now 3]\n"), "{live}");
    }

    #[test]
    fn serve_demo_reports_caches_and_admissions() {
        let mut r = Repl::new(2);
        assert!(r.run_meta("serve", &[]).contains("usage"));
        assert!(r.run_meta("serve", &["x".into()]).contains("usage"));
        let out = r.run_meta("serve", &["5".into()]);
        assert!(out.contains("served 64 statements"), "{out}");
        assert!(out.contains("results"), "{out}");
        assert!(out.contains("admissions"), "{out}");
    }

    #[test]
    fn save_and_load_roundtrip_via_meta_commands() {
        let mut r = Repl::new(2);
        r.run_meta("sample", &["150".into()]);
        let path = std::env::temp_dir()
            .join(format!("fudj-cli-save-{}.csv", std::process::id()))
            .display()
            .to_string();
        let saved = r.run_meta("save", &["Parks".into(), path.clone()]);
        assert!(saved.contains("wrote 150 rows"), "{saved}");

        // Reload into a new dataset using an explicit schema.
        let loaded = r.run_meta(
            "load",
            &[
                "Parks2".into(),
                path.clone(),
                "id:uuid,boundary:polygon,tags:string".into(),
            ],
        );
        assert!(loaded.contains("loaded 150 rows"), "{loaded}");
        let out = r.run_statement("SELECT COUNT(*) AS c FROM Parks2 p;");
        assert!(out.contains("150"), "{out}");

        // Reload over the original (schema inferred from the old dataset).
        let reloaded = r.run_meta("load", &["Parks".into(), path.clone()]);
        assert!(reloaded.contains("loaded 150 rows"), "{reloaded}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn save_load_usage_and_errors() {
        let mut r = Repl::new(2);
        assert!(r.run_meta("save", &[]).contains("usage"));
        assert!(r.run_meta("load", &[]).contains("usage"));
        assert!(r
            .run_meta("save", &["Ghost".into(), "/tmp/x.csv".into()])
            .contains("error"));
        assert!(r
            .run_meta(
                "load",
                &["t".into(), "/nonexistent.csv".into(), "a:bigint".into()]
            )
            .contains("error"));
        assert!(r
            .run_meta("load", &["t".into(), "/tmp/x.csv".into(), "a:wat".into()])
            .contains("error"));
    }

    #[test]
    fn metrics_toggle_shows_per_worker_and_skew() {
        let mut r = Repl::new(2);
        r.run_meta("sample", &["200".into()]);
        r.run_meta("metrics", &[]);
        let out = r.run_statement(
            "SELECT COUNT(*) AS c FROM Parks p, Wildfires w \
             WHERE st_contains(p.boundary, w.location);",
        );
        assert!(out.contains("Network:"), "{out}");
        assert!(
            out.contains("worker 0:") && out.contains("worker 1:"),
            "{out}"
        );
        assert!(out.contains("phase join:") && out.contains("skew"), "{out}");
        let again = r.run_statement(
            "SELECT COUNT(*) AS c FROM Parks p, Wildfires w \
             WHERE st_contains(p.boundary, w.location);",
        );
        assert!(again.contains("Plan cache: 1 hit / 1 miss"), "{again}");
    }

    #[test]
    fn chaos_toggle_arms_and_disarms_fault_plan() {
        let mut r = Repl::new(2);
        assert!(r.run_meta("chaos", &[]).contains("chaos is off"));
        let on = r.run_meta("chaos", &["42".into()]);
        assert!(on.contains("chaos on (seed 42)"), "{on}");
        assert_eq!(r.session().faults().map(|f| f.seed), Some(42));
        assert!(r.run_meta("chaos", &["off".into()]).contains("chaos off"));
        assert!(r.session().faults().is_none());
        assert!(r.run_meta("chaos", &["nope".into()]).contains("error"));
    }

    #[test]
    fn chaos_query_recovers_and_reports_fault_metrics() {
        let mut r = Repl::new(3);
        r.run_meta("sample", &["200".into()]);
        r.run_meta("metrics", &[]);

        // Fault-free baseline for the same query.
        let query = "SELECT COUNT(*) AS c FROM NYCTaxi n1, NYCTaxi n2 \
             WHERE n1.Vendor = 1 AND n2.Vendor = 2 \
               AND overlapping_interval(n1.ride_interval, n2.ride_interval);";
        let clean = r.run_statement(query);
        assert!(!clean.contains("Faults:"), "{clean}");

        // Under chaos the query still answers identically and the fault
        // counters surface. Seed chosen arbitrarily; any seed must work.
        r.run_meta("chaos", &["7".into()]);
        let chaotic = r.run_statement(query);
        assert!(!chaotic.starts_with("error:"), "{chaotic}");
        assert!(chaotic.contains("Faults:"), "{chaotic}");
        let count_of = |s: &str| s.lines().nth(2).map(str::to_owned);
        assert_eq!(count_of(&clean), count_of(&chaotic));
    }

    #[test]
    fn workers_listing_and_membership_commands() {
        let mut r = Repl::new(3);
        let out = r.run_meta("workers", &[]);
        assert!(out.contains("worker 0  active"), "{out}");
        assert!(out.contains("worker 2  active"), "{out}");

        let dropped = r.run_meta("workers", &["drop".into(), "1".into()]);
        assert!(dropped.contains("decommissioned"), "{dropped}");
        let out = r.run_meta("workers", &[]);
        assert!(out.contains("worker 1  decommissioned"), "{out}");

        // Queries still answer with a worker out of the routing set.
        r.run_meta("sample", &["150".into()]);
        let rows = r.run_statement("SELECT COUNT(*) AS c FROM Parks p;");
        assert!(rows.contains("150"), "{rows}");

        let added = r.run_meta("workers", &["add".into()]);
        assert!(added.contains("worker 1 rejoined"), "{added}");
        // At full strength another add is an error, as is dropping the
        // last active worker twice over.
        assert!(r.run_meta("workers", &["add".into()]).contains("error"));
        assert!(r.run_meta("workers", &["drop".into()]).contains("usage"));
        assert!(r.run_meta("workers", &["wat".into()]).contains("error"));
    }

    #[test]
    fn chaos_deaths_arms_death_plan_and_recovers() {
        let mut r = Repl::new(3);
        assert!(r.run_meta("chaos", &["deaths".into()]).contains("usage"));
        let on = r.run_meta("chaos", &["deaths".into(), "11".into()]);
        assert!(on.contains("worker deaths (seed 11)"), "{on}");
        assert!(r.session().faults().map(|f| f.worker_death_prob > 0.0) == Some(true));

        r.run_meta("sample", &["200".into()]);
        r.run_statement("SET checkpoint_stages = all;");
        let out = r.run_statement(
            "SELECT COUNT(*) AS c FROM NYCTaxi n1, NYCTaxi n2 \
             WHERE n1.Vendor = 1 AND n2.Vendor = 2 \
               AND overlapping_interval(n1.ride_interval, n2.ride_interval);",
        );
        assert!(!out.starts_with("error:"), "{out}");
    }

    #[test]
    fn guard_toggle_sets_session_mode() {
        let mut r = Repl::new(2);
        assert!(r.run_meta("guard", &[]).contains("per-join"));
        assert!(r
            .run_meta("guard", &["quarantine".into()])
            .contains("policy quarantine"));
        assert!(matches!(r.session().guard(), GuardMode::Override(c)
            if c.policy == UdfPolicy::Quarantine));
        assert!(r.run_meta("guard", &["off".into()]).contains("unguarded"));
        assert!(matches!(r.session().guard(), GuardMode::Off));
        assert!(r
            .run_meta("guard", &["per-join".into()])
            .contains("per-join"));
        assert!(matches!(r.session().guard(), GuardMode::PerJoin));
        assert!(r.run_meta("guard", &["wat".into()]).contains("error"));
    }

    #[test]
    fn submit_jobs_await_cancel_lifecycle() {
        let mut r = Repl::new(2);
        assert!(r.run_meta("jobs", &[]).contains("no jobs"));
        assert!(r.run_meta("submit", &[]).contains("usage"));
        r.run_meta("sample", &["200".into()]);

        let args: Vec<String> = "SELECT COUNT(*) AS c FROM Parks p"
            .split_whitespace()
            .map(str::to_owned)
            .collect();
        let out = r.run_meta("submit", &args);
        assert!(out.contains("job 1 submitted"), "{out}");

        let awaited = r.run_meta("await", &["1".into()]);
        assert!(awaited.contains("(1 row)"), "{awaited}");
        // The handle is consumed; a second await reports that.
        assert!(r.run_meta("await", &["1".into()]).contains("error"));

        let jobs = r.run_meta("jobs", &[]);
        assert!(jobs.contains("job 1") && jobs.contains("done"), "{jobs}");

        // Cancelling an unknown id is an error, not a panic.
        assert!(r.run_meta("cancel", &["99".into()]).contains("error"));
        assert!(r.run_meta("cancel", &[]).contains("usage"));

        // SET knobs flow through statements into the scheduler.
        r.run_statement("SET max_inflight_queries = 2;");
        assert_eq!(r.session().scheduler().config().max_inflight, 2);
    }

    /// `\jobs` progress is the count of pool batches the job's gate let
    /// through — there is no predicted total it could overshoot (a stage
    /// model beside the engine once made this line read `stages 24/18`).
    #[test]
    fn jobs_line_of_a_finished_join_reports_batches_dispatched() {
        let mut r = Repl::new(4);
        r.run_meta("sample", &["200".into()]);
        let args: Vec<String> = "SELECT p.id, COUNT(w.id) AS fires FROM Parks p, Wildfires w \
                                 WHERE ST_Contains(p.boundary, w.location) GROUP BY p.id"
            .split_whitespace()
            .map(str::to_owned)
            .collect();
        assert!(r.run_meta("submit", &args).contains("job 1 submitted"));
        assert!(!r.run_meta("await", &["1".into()]).contains("error"));

        let jobs = r.run_meta("jobs", &[]);
        let fields: Vec<&str> = jobs.split_whitespace().collect();
        assert_eq!(fields[..5], ["job", "1", "done", "prio", "1"], "{jobs}");
        assert_eq!(fields[5], "batches", "{jobs}");
        let batches: usize = fields[6].parse().expect("a plain count, not done/total");
        let job = r.session().scheduler().job(1).expect("job 1 is listed");
        assert_eq!(batches, job.batches);
        assert!(batches > 0, "a join dispatches pool batches: {jobs}");
    }

    #[test]
    fn chaos_crash_arms_a_seeded_crash_site() {
        let mut r = Repl::new(2);
        assert!(r.run_meta("chaos", &["crash".into()]).contains("usage"));
        assert!(r
            .run_meta("chaos", &["crash".into(), "nope".into()])
            .contains("usage"));
        let on = r.run_meta("chaos", &["crash".into(), "3".into()]);
        assert!(on.contains("crash chaos on (seed 3)"), "{on}");
        let cfg = r.session.disk_faults().expect("fault plan armed");
        let (site, hit) = cfg.crash_point.expect("crash point set");
        assert!(
            fudj_storage::QUERY_CRASH_POINTS.contains(&site.as_str())
                || fudj_storage::CRASH_POINTS.contains(&site.as_str()),
            "{site}"
        );
        assert!((1..=3).contains(&hit));
        // Different seeds can reach every site class.
        let other = r.run_meta("chaos", &["crash".into(), "4".into()]);
        assert!(other.contains("crash chaos on (seed 4)"), "{other}");
        assert!(r
            .run_meta("chaos", &["disk".into(), "off".into()])
            .contains("off"));
    }

    #[test]
    fn chaos_crash_reopen_journal_resumes_in_flight_query() {
        let mut r = Repl::new(2);
        r.run_meta("sample", &["100".into()]);
        r.run_statement("SET checkpoint_durable = on;");
        // Seed 0 → journal:submit, hit 1: the first query's journal
        // entry lands durably, then the simulated disk dies.
        let on = r.run_meta("chaos", &["crash".into(), "0".into()]);
        assert!(on.contains("journal:submit"), "{on}");
        r.run_statement("SET wal_dir = '/repl-crash';");
        assert!(
            r.session().disk_faults().is_none(),
            "the crash plan is consumed by the open it poisons"
        );
        let killed = r.run_statement("SELECT COUNT(*) AS c FROM Parks p;");
        assert!(killed.contains("simulated crash"), "{killed}");
        // Reopening the same wal_dir restarts the simulated disk and
        // delivers the journal-resumed result in the SET's output.
        let reopened = r.run_statement("SET wal_dir = '/repl-crash';");
        assert!(reopened.contains("resumed unfinished query"), "{reopened}");
        assert!(reopened.contains("100"), "{reopened}");
        // Exactly once: a further reopen finds a sealed journal.
        let again = r.run_statement("SET wal_dir = '/repl-crash';");
        assert!(!again.contains("resumed"), "{again}");
    }

    #[test]
    fn persist_and_chaos_disk_meta_commands() {
        let mut r = Repl::new(2);
        // Without an open store, \persist is a clean error.
        assert!(r.run_meta("persist", &[]).contains("error"));
        assert!(r.run_meta("chaos", &["disk".into()]).contains("usage"));
        let on = r.run_meta("chaos", &["disk".into(), "77".into()]);
        assert!(on.contains("disk chaos on (seed 77)"), "{on}");
        assert_eq!(r.session().disk_faults().map(|c| c.seed), Some(77));
        assert!(r
            .run_meta("chaos", &["disk".into(), "off".into()])
            .contains("disk chaos off"));
        assert!(r.session().disk_faults().is_none());
        assert!(r
            .run_meta("chaos", &["disk".into(), "nope".into()])
            .contains("error"));

        // Full round-trip: open a store, see durability counters in the
        // metrics block, snapshot via \persist.
        let dir = std::env::temp_dir().join(format!("fudj-cli-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        r.run_meta("sample", &["150".into()]);
        r.run_meta("metrics", &[]);
        let out = r.run_statement(&format!("SET wal_dir = '{}';", dir.display()));
        assert!(out.contains("set wal_dir"), "{out}");
        let q = r.run_statement("SELECT COUNT(*) AS c FROM Parks p;");
        assert!(q.contains("Durability:"), "{q}");
        let persisted = r.run_meta("persist", &[]);
        assert!(persisted.contains("snapshot v"), "{persisted}");
        assert!(persisted.contains("WAL compacted"), "{persisted}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn errors_render_not_panic() {
        let mut r = Repl::new(2);
        let out = r.run_statement("SELECT x FROM Ghost g;");
        assert!(out.starts_with("error:"), "{out}");
    }

    #[test]
    fn explain_renders_plan() {
        let mut r = Repl::new(2);
        r.run_meta("sample", &["200".into()]);
        let out = r.run_statement(
            "EXPLAIN SELECT COUNT(*) FROM Parks p, Wildfires w \
             WHERE st_contains(p.boundary, w.location);",
        );
        assert!(out.contains("FudjJoin"), "{out}");
    }
}
