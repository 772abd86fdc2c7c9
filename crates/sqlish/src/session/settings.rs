//! Every knob, declared once: [`KNOBS`] has one row per `SET` key and per
//! `CREATE JOIN … WITH` option — name, value syntax, default, scope, doc,
//! and the functions that parse and store a value. `SET` and `WITH`
//! parsing and their error texts, the `QuerySubmitted` journal pairs and
//! their restore, [`ServingConfig`], the REPL's `\help` and README's knob
//! table are all read off the rows, so adding or deleting a knob is
//! adding or deleting a row.

use super::{lock, QueryOutput, Session};
use fudj_core::{GuardConfig, UdfPolicy};
use fudj_exec::ExecMode;
use fudj_planner::PlanOptions;
use fudj_types::{FudjError, Result};
use Scope::*;

/// Where a knob's value lives, and so who sees a change to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// The scheduler's `SchedulerConfig`, effective immediately.
    Scheduler,
    /// This session's variables and its plan cache, read when a SELECT
    /// becomes a job.
    Session,
    /// A session variable laid over `PlanOptions` when a statement is
    /// planned, and journaled with the query so a resume re-plans under it.
    Plan,
    /// The cluster's recovery layer, shared by every clone of the cluster.
    Cluster,
    /// The crash-consistent store (remembered until one opens).
    Store,
    /// [`ServingConfig`], read by the serving tier before each statement.
    Serving,
    /// One join definition: its `GuardConfig` and default spill budget.
    Join,
}

/// One `name = value` being applied, with the value parsers the rows
/// share — every malformed-value text is written once, here.
struct Arg<'a> {
    /// `CREATE JOIN … WITH`, not `SET`: decides how errors name the knob.
    with: bool,
    key: &'a str,
    value: &'a str,
}

impl Arg<'_> {
    fn error(&self, message: String) -> FudjError {
        if self.with {
            FudjError::Catalog(message)
        } else {
            FudjError::Execution(message)
        }
    }

    fn expects(&self, what: &str) -> FudjError {
        let knob = if self.with { "join option" } else { "SET" };
        self.error(format!(
            "{knob} {} expects {what}, got {:?}",
            self.key, self.value
        ))
    }

    fn is(&self, word: &str) -> bool {
        self.value.eq_ignore_ascii_case(word)
    }

    /// `none` and `off` clear a knob — and so does `0`, unless `zero_ok`
    /// says 0 is a meaningful value for it.
    fn is_cleared(&self, zero_ok: bool) -> bool {
        self.is("none") || self.is("off") || (self.value == "0" && !zero_ok)
    }

    fn number(&self, what: &str) -> Result<u64> {
        self.value.parse().map_err(|_| self.expects(what))
    }

    fn optional(&self, zero_ok: bool) -> Result<Option<u64>> {
        if self.is_cleared(zero_ok) {
            Ok(None)
        } else {
            self.number("a number").map(Some)
        }
    }

    /// `yes` (true) or `off` (false).
    fn either(&self, yes: &str) -> Result<bool> {
        match (self.is(yes), self.is("off")) {
            (false, false) => Err(self.expects(&format!("{yes} or off"))),
            (on, _) => Ok(on),
        }
    }

    /// A cache capacity: 0 disables the cache, `none` restores the
    /// default.
    fn capacity(&self) -> Result<Option<usize>> {
        match self.optional(true)? {
            Some(n) if n as usize > MAX_CACHE_ENTRIES => Err(self.error(format!(
                "SET {} expects at most {MAX_CACHE_ENTRIES} entries, got {n}",
                self.key
            ))),
            n => Ok(n.map(|n| n as usize)),
        }
    }
}

/// Largest accepted cache capacity: caches are in-memory maps, so an
/// absurd `SET` is a knob typo, not a provisioning request.
pub const MAX_CACHE_ENTRIES: usize = 1 << 20;

/// The plan cache's capacity on a fresh session.
pub(super) const PLAN_CACHE_ENTRIES: usize = 256;

/// The serving tier's result-cache configuration: where the
/// [`Scope::Serving`] knobs live. Read by `fudj-serve` before each
/// statement, so a live `SET` takes effect immediately.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServingConfig {
    /// Result-cache LRU capacity (entries).
    pub result_cache_entries: usize,
    /// Whether result caching is enabled at all.
    pub result_cache_enabled: bool,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            result_cache_entries: 1024,
            result_cache_enabled: true,
        }
    }
}

/// Where the session-scoped knobs live; applied to statements planned
/// after the `SET`.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct SessionVars {
    /// 0 = the scheduler's default weight.
    pub priority: u32,
    pub deadline_ms: Option<u64>,
    memory_budget_rows: Option<usize>,
    exec_mode: Option<ExecMode>,
    /// WAL fsync cadence: 1 = every record, N = every N records, 0 =
    /// never. Remembered here so it also applies to a store opened
    /// *after* the `SET`; so is `checkpoint_durable`.
    pub durability_sync_every: Option<u64>,
    pub checkpoint_durable: bool,
    serving: ServingConfig,
}

/// What `CREATE JOIN … WITH (…)` configures: where the [`Scope::Join`]
/// knobs live until the join is registered.
#[derive(Default)]
pub(super) struct JoinOptions {
    pub guard: GuardConfig,
    pub memory_budget_rows: Option<usize>,
}

/// The `PlanOptions` field a [`Scope::Plan`] knob overlays. A resumed
/// query must be re-planned under the same values, so exactly these
/// knobs ride in the `QuerySubmitted` journal record.
struct PlanField {
    /// Lay the session's `SET` value, when set, over the planner option.
    overlay: fn(&SessionVars, &mut PlanOptions),
    /// The option's journal text, when set.
    journal: fn(&PlanOptions) -> Option<String>,
    /// Restore the option from its journal text.
    restore: fn(&mut PlanOptions, &str),
}

/// The [`PlanField`] of a knob whose `SessionVars` and `PlanOptions`
/// fields share its name; `$parse` reads the journal text back.
macro_rules! plan_field {
    ($field:ident, $parse:expr) => {
        Some(PlanField {
            overlay: |v, o| o.$field = v.$field.or(o.$field),
            journal: |o| o.$field.map(|x| x.to_string()),
            restore: |o, text| o.$field = $parse(text),
        })
    };
}

/// An optional value, spelled the way `SET` takes it.
fn or_off<T: ToString>(value: Option<T>) -> String {
    value.map_or_else(|| "off".to_owned(), |v| v.to_string())
}

fn on_off(on: bool) -> String {
    if on { "on" } else { "off" }.to_owned()
}

/// One user-facing knob. See the module docs.
pub struct Knob {
    /// The key, as `SET` / `WITH` spell it.
    pub name: &'static str,
    /// Accepted values.
    pub syntax: &'static str,
    /// The value in force on a fresh session, in `syntax`.
    pub default: &'static str,
    /// Where the value lives.
    pub scope: Scope,
    /// One line for `\help` and README.
    pub doc: &'static str,
    /// `SET name = value`: parse and store. `None`: not a `SET` key.
    set: Option<fn(&Session, &Arg<'_>) -> Result<()>>,
    /// The value in force, spelled the way `SET` takes it.
    get: Option<fn(&Session) -> String>,
    /// `CREATE JOIN … WITH (name = value)`: parse and store.
    with: Option<fn(&mut JoinOptions, &Arg<'_>) -> Result<()>>,
    plan: Option<PlanField>,
}

impl Knob {
    /// Whether `SET` takes this knob.
    pub fn is_set_key(&self) -> bool {
        self.set.is_some()
    }

    /// Whether `CREATE JOIN … WITH` takes this knob.
    pub fn is_join_option(&self) -> bool {
        self.with.is_some()
    }

    /// The knob `arg` names, or the unknown-key error listing every knob
    /// its statement accepts.
    fn find(arg: &Arg<'_>) -> Result<&'static Knob> {
        let mut accepted = KNOBS.iter().filter(|k| {
            if arg.with {
                k.is_join_option()
            } else {
                k.is_set_key()
            }
        });
        if let Some(knob) = accepted.clone().find(|k| k.name == arg.key) {
            return Ok(knob);
        }
        let last = accepted.next_back().expect("both statements take knobs");
        let rest: Vec<&str> = accepted.map(|k| k.name).collect();
        let kind = if arg.with {
            "join option"
        } else {
            "SET variable"
        };
        Err(arg.error(format!(
            "unknown {kind} {:?} (expected {}, or {})",
            arg.key,
            rest.join(", "),
            last.name
        )))
    }
}

/// What a row leaves unsaid: a numeric `WITH`-only option.
const KNOB: Knob = Knob {
    name: "",
    syntax: "N",
    default: "",
    scope: Join,
    doc: "",
    set: None,
    get: None,
    with: None,
    plan: None,
};

/// Every knob, once: the `WITH`-only rows, then the `SET` keys (both
/// orders show in the unknown-key errors and in `\help`). A table, so one
/// row per knob rather than rustfmt's one field per line.
#[rustfmt::skip]
pub const KNOBS: &[Knob] = &[
    Knob { name: "policy", syntax: "failfast|quarantine|fallback", default: "failfast",
        doc: "on a guard violation: abort the query, drop the offending row, or degrade to hash equality",
        with: Some(|j, a| UdfPolicy::parse(a.value).map(|p| j.guard.policy = p).ok_or_else(|| a.error(format!(
            "unknown UDF policy {:?} (expected failfast, quarantine, or fallback)", a.value)))),
        ..KNOB },
    Knob { name: "budget_ms", default: "10000", doc: "simulated-clock budget of one callback invocation",
        with: Some(|j, a| a.number("ms").map(|n| j.guard.limits.call_budget_ms = n)), ..KNOB },
    Knob { name: "max_pplan_bytes", default: "16777216", doc: "largest PPlan `divide` may return, serialized",
        with: Some(|j, a| a.number("bytes").map(|n| j.guard.limits.max_pplan_bytes = n as usize)), ..KNOB },
    Knob { name: "max_buckets_per_key", default: "4096", doc: "most buckets one `assign` call may emit for one key",
        with: Some(|j, a| a.number("a count").map(|n| j.guard.limits.max_buckets_per_key = n as usize)), ..KNOB },
    Knob { name: "max_assign_fanout", default: "16777216", doc: "most buckets `assign` may emit across one partition",
        with: Some(|j, a| a.number("a count").map(|n| j.guard.limits.max_assign_fanout = n)), ..KNOB },
    Knob { name: "check_sample", default: "16", doc: "contract probes sample 1 in N keys/pairs (0 disables them)",
        with: Some(|j, a| a.number("a count").map(|n| j.guard.limits.check_sample = n)), ..KNOB },

    Knob { name: "max_inflight_queries", default: "4", scope: Scheduler, doc: "admission: concurrent query cap",
        set: Some(|s, a| a.number("a number").map(|n| s.scheduler.reconfigure(|c| c.max_inflight = n.max(1) as usize))),
        get: Some(|s| s.scheduler.config().max_inflight.to_string()), ..KNOB },
    Knob { name: "admission_queue_limit", default: "16", scope: Scheduler, doc: "bounded FIFO wait queue",
        set: Some(|s, a| a.number("a number").map(|n| s.scheduler.reconfigure(|c| c.queue_limit = n as usize))),
        get: Some(|s| s.scheduler.config().queue_limit.to_string()), ..KNOB },
    Knob { name: "memory_quota_rows", syntax: "N|off", default: "off", scope: Scheduler,
        doc: "aggregate spill-budget quota of admitted queries",
        set: Some(|s, a| a.optional(false).map(|v| s.scheduler.reconfigure(|c| c.memory_quota_rows = v))),
        get: Some(|s| or_off(s.scheduler.config().memory_quota_rows)), ..KNOB },
    Knob { name: "stage_slots", default: "2", scope: Scheduler, doc: "concurrent pool batches across queries",
        set: Some(|s, a| a.number("a number").map(|n| s.scheduler.reconfigure(|c| c.stage_slots = n.max(1) as usize))),
        get: Some(|s| s.scheduler.config().stage_slots.to_string()), ..KNOB },

    Knob { name: "priority", default: "0", scope: Session,
        doc: "fair-share weight of every SELECT this session runs (0 = scheduler default)",
        set: Some(|s, a| a.number("a number").map(|n| s.vars_mut().priority = n as u32)),
        get: Some(|s| s.vars().priority.to_string()), ..KNOB },
    Knob { name: "deadline_ms", syntax: "N|off", default: "off", scope: Session,
        doc: "simulated-clock deadline of every SELECT this session runs",
        set: Some(|s, a| a.optional(false).map(|v| s.vars_mut().deadline_ms = v)),
        get: Some(|s| or_off(s.vars().deadline_ms)), ..KNOB },

    Knob { name: "memory_budget_rows", syntax: "N|off", default: "off", scope: Plan,
        doc: "per-worker COMBINE row budget; over it the join spills (WITH: the join's default, SET overrides it)",
        set: Some(|s, a| a.optional(false).map(|v| s.vars_mut().memory_budget_rows = v.map(|n| n as usize))),
        get: Some(|s| or_off(s.vars().memory_budget_rows)),
        with: Some(|j, a| a.number("a row count").map(|n| j.memory_budget_rows = (n > 0).then_some(n as usize))),
        plan: plan_field!(memory_budget_rows, |t: &str| t.parse().ok()) },
    Knob { name: "exec_mode", syntax: "row|columnar|off", default: "off", scope: Plan,
        doc: "evaluation strategy (off = engine default, columnar)",
        set: Some(|s, a| {
            let mode = ExecMode::parse(a.value);
            if mode.is_none() && !a.is_cleared(false) {
                return Err(a.expects("row or columnar"));
            }
            s.vars_mut().exec_mode = mode;
            Ok(())
        }),
        get: Some(|s| or_off(s.vars().exec_mode)),
        plan: plan_field!(exec_mode, ExecMode::parse), ..KNOB },

    // Recovery knobs live on the shared cluster (its recovery layer is
    // one `Arc` across every clone), so the scheduler's handle sees them.
    Knob { name: "checkpoint_budget_bytes", syntax: "N|off", default: "off", scope: Cluster,
        doc: "checkpoint store budget, FIFO eviction past it",
        set: Some(|s, a| a.optional(false).map(|v| s.cluster.set_checkpoint_budget(v))),
        get: Some(|s| or_off(s.cluster.checkpoints().budget())), ..KNOB },
    Knob { name: "checkpoint_stages", syntax: "all|off", default: "off", scope: Cluster,
        doc: "checkpoint every query's stage boundaries (journaled queries always do)",
        set: Some(|s, a| a.either("all").map(|all| s.cluster.set_checkpoint_all(all))),
        get: Some(|s| if s.cluster.checkpoint_all() { "all" } else { "off" }.to_owned()), ..KNOB },
    Knob { name: "checkpoint_durable", syntax: "on|off", default: "off", scope: Store,
        doc: "journal queries + durable stage checkpoints; a reopened wal_dir resumes them",
        set: Some(|s, a| s.set_checkpoint_durable(a.either("on")?)),
        get: Some(|s| on_off(s.vars().checkpoint_durable)), ..KNOB },
    Knob { name: "worker_quarantine_threshold", syntax: "N|off", default: "off", scope: Cluster,
        doc: "injected-failure count that quarantines a worker",
        set: Some(|s, a| a.optional(false).map(|v| s.cluster.set_quarantine_threshold(v.unwrap_or(0)))),
        get: Some(|s| or_off(Some(s.cluster.membership().quarantine_threshold()).filter(|&n| n > 0))), ..KNOB },
    Knob { name: "wal_dir", syntax: "'<path>'|off", default: "off", scope: Store,
        doc: "open a crash-consistent store: replay, then WAL appends and CREATE/DROP JOIN",
        set: Some(|s, a| if a.is_cleared(false) { s.close_wal(); Ok(()) } else { s.open_wal(a.value) }),
        get: Some(|s| or_off(s.durable().map(|store| store.dir().display().to_string()))), ..KNOB },
    Knob { name: "durability", syntax: "sync|N|off", default: "sync", scope: Store,
        doc: "fsync every record / every N / never",
        set: Some(|s, a| {
            let n = if a.is("sync") { 1 } else { a.optional(false)?.unwrap_or(0) };
            s.vars_mut().durability_sync_every = Some(n);
            if let Some(store) = s.durable() {
                store.set_sync_every(n);
            }
            Ok(())
        }),
        get: Some(|s| match s.vars().durability_sync_every {
            None | Some(1) => "sync".to_owned(),
            Some(n) => or_off(Some(n).filter(|&n| n > 0)),
        }), ..KNOB },

    Knob { name: "plan_cache_entries", syntax: "N|none", default: "256", scope: Session,
        doc: "session plan-cache LRU bound (0 disables, none = default)",
        set: Some(|s, a| a.capacity().map(|n| lock(&s.plans).set_capacity(n.unwrap_or(PLAN_CACHE_ENTRIES)))),
        get: Some(|s| lock(&s.plans).capacity().to_string()), ..KNOB },
    Knob { name: "result_cache_entries", syntax: "N|none", default: "1024", scope: Serving,
        doc: "serving result-cache LRU bound (0 disables, none = default)",
        set: Some(|s, a| a.capacity().map(|n| s.vars_mut().serving.result_cache_entries =
            n.unwrap_or(ServingConfig::default().result_cache_entries))),
        get: Some(|s| s.serving_config().result_cache_entries.to_string()), ..KNOB },
    Knob { name: "result_cache", syntax: "on|off", default: "on", scope: Serving,
        doc: "bypass result-cache lookup and insert without clearing it",
        set: Some(|s, a| a.either("on").map(|on| s.vars_mut().serving.result_cache_enabled = on)),
        get: Some(|s| on_off(s.serving_config().result_cache_enabled)), ..KNOB },
];

fn plan_fields() -> impl Iterator<Item = (&'static str, &'static PlanField)> {
    KNOBS
        .iter()
        .filter_map(|k| Some((k.name, k.plan.as_ref()?)))
}

impl Session {
    /// Apply one `SET key = value`.
    pub(super) fn apply_set(&self, key: &str, value: &str) -> Result<QueryOutput> {
        let arg = Arg {
            with: false,
            key,
            value,
        };
        let set = Knob::find(&arg)?.set.expect("find returns SET keys");
        set(self, &arg)?;
        Ok(QueryOutput::Ack(format!("set {key} = {value}")))
    }

    /// Interpret the `WITH (key = value, ...)` options of `CREATE JOIN`.
    /// Unknown keys and malformed values are catalog errors, so a typo
    /// fails the DDL instead of silently running unguarded.
    pub(super) fn join_options(options: &[(String, String)]) -> Result<JoinOptions> {
        let mut parsed = JoinOptions::default();
        for (key, value) in options {
            let arg = Arg {
                with: true,
                key,
                value,
            };
            let with = Knob::find(&arg)?.with.expect("find returns WITH options");
            with(&mut parsed, &arg)?;
        }
        Ok(parsed)
    }

    /// The value of `SET` key `name` now in force, spelled the way `SET`
    /// takes it; `None` when `name` is not a `SET` key.
    pub fn setting(&self, name: &str) -> Option<String> {
        let get = KNOBS.iter().find(|k| k.name == name)?.get?;
        Some(get(self))
    }

    /// The serving tier's result-cache configuration under the current
    /// `SET` variables.
    pub fn serving_config(&self) -> ServingConfig {
        self.vars().serving
    }

    /// Planner options with the session's `SET` variables merged in.
    pub fn effective_options(&self) -> PlanOptions {
        let vars = self.vars();
        let mut options = self.options.clone();
        for (_, field) in plan_fields() {
            (field.overlay)(&vars, &mut options);
        }
        options
    }

    /// The knobs a resumed query must be re-planned under, as its
    /// `QuerySubmitted` journal record carries them: every [`Scope::Plan`]
    /// knob set in `options`, ordered by name so the record's bytes do
    /// not depend on the table's order.
    pub(super) fn journal_options(options: &PlanOptions) -> Vec<(String, String)> {
        let mut pairs: Vec<(String, String)> = plan_fields()
            .filter_map(|(name, field)| Some((name.to_owned(), (field.journal)(options)?)))
            .collect();
        pairs.sort();
        pairs
    }

    /// Invert [`Session::journal_options`]: the session's base planner
    /// options with the journaled knobs re-applied. Unknown keys are
    /// ignored (a newer process replaying an older journal).
    pub(super) fn options_from_journal(&self, pairs: &[(String, String)]) -> PlanOptions {
        let mut options = self.options.clone();
        for (key, value) in pairs {
            if let Some((_, field)) = plan_fields().find(|(name, _)| name == key) {
                (field.restore)(&mut options, value);
            }
        }
        options
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::tests::session;

    #[test]
    fn create_join_with_options_configures_the_guard() {
        let s = session();
        s.execute(
            r#"CREATE JOIN st_contains(a: polygon, b: point)
               RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins
               WITH (policy = quarantine, budget_ms = 250, check_sample = 1);"#,
        )
        .unwrap();
        let def = s.registry().get("st_contains").unwrap();
        assert_eq!(def.guard().policy, UdfPolicy::Quarantine);
        assert_eq!(def.guard().limits.call_budget_ms, 250);
        assert_eq!(def.guard().limits.check_sample, 1);
    }

    #[test]
    fn create_join_rejects_unknown_options() {
        let s = session();
        let err = s
            .execute(
                r#"CREATE JOIN j(a: polygon, b: point)
                   RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins
                   WITH (polici = quarantine);"#,
            )
            .unwrap_err();
        assert!(err.to_string().contains("unknown join option"), "{err}");
        assert!(s.registry().get("j").is_none(), "DDL must not half-apply");

        let err = s
            .execute(
                r#"CREATE JOIN j(a: polygon, b: point)
                   RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins
                   WITH (policy = lenient);"#,
            )
            .unwrap_err();
        assert!(err.to_string().contains("unknown UDF policy"), "{err}");
    }

    #[test]
    fn set_configures_scheduler_and_rejects_unknown_keys() {
        let s = session();
        s.execute("SET max_inflight_queries = 2").unwrap();
        s.execute("SET admission_queue_limit = 3").unwrap();
        s.execute("SET memory_quota_rows = 500").unwrap();
        s.execute("SET stage_slots = 1").unwrap();
        let config = s.scheduler().config();
        assert_eq!(config.max_inflight, 2);
        assert_eq!(config.queue_limit, 3);
        assert_eq!(config.memory_quota_rows, Some(500));
        assert_eq!(config.stage_slots, 1);

        s.execute("SET memory_quota_rows = off").unwrap();
        assert_eq!(s.scheduler().config().memory_quota_rows, None);

        let err = s.execute("SET warp_drive = 9").unwrap_err();
        assert!(err.to_string().contains("unknown SET variable"), "{err}");
        let err = s.execute("SET priority = fast").unwrap_err();
        assert!(err.to_string().contains("expects a number"), "{err}");
    }

    #[test]
    fn serving_knobs_set_and_error_paths() {
        let s = session();
        assert_eq!(s.serving_config(), ServingConfig::default());
        s.execute("SET plan_cache_entries = 8").unwrap();
        s.execute("SET result_cache_entries = 0").unwrap();
        s.execute("SET result_cache = off").unwrap();
        let cfg = s.serving_config();
        assert_eq!(lock(&s.plans).capacity(), 8);
        assert_eq!(cfg.result_cache_entries, 0, "0 disables, not defaults");
        assert!(!cfg.result_cache_enabled);
        s.execute("SET result_cache = on").unwrap();
        s.execute("SET plan_cache_entries = none").unwrap();
        assert!(s.serving_config().result_cache_enabled);
        assert_eq!(
            lock(&s.plans).capacity(),
            PLAN_CACHE_ENTRIES,
            "none restores the engine default"
        );

        // Error paths: non-numeric, out-of-range, bad switch value, and
        // the unknown-knob message advertising the serving knobs.
        let err = s.execute("SET plan_cache_entries = many").unwrap_err();
        assert!(err.to_string().contains("expects a number"), "{err}");
        let err = s
            .execute("SET result_cache_entries = 99999999")
            .unwrap_err();
        assert!(err.to_string().contains("at most"), "{err}");
        let err = s.execute("SET result_cache = sometimes").unwrap_err();
        assert!(err.to_string().contains("on or off"), "{err}");
        let err = s.execute("SET plan_cache = 1").unwrap_err();
        assert!(err.to_string().contains("unknown SET variable"), "{err}");
        assert!(err.to_string().contains("result_cache"), "{err}");
    }

    #[test]
    fn plan_knobs_round_trip_through_the_journal_in_a_fixed_order() {
        let s = session();
        assert_eq!(
            Session::journal_options(&s.effective_options()),
            Vec::new(),
            "nothing set, nothing journaled"
        );
        s.execute("SET memory_budget_rows = 64").unwrap();
        s.execute("SET exec_mode = row").unwrap();
        let pairs = Session::journal_options(&s.effective_options());
        let text: Vec<(&str, &str)> = pairs
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .collect();
        assert_eq!(text, [("exec_mode", "row"), ("memory_budget_rows", "64")]);
        let restored = session().options_from_journal(&pairs);
        assert_eq!(restored.exec_mode, Some(ExecMode::Row));
        assert_eq!(restored.memory_budget_rows, Some(64));

        // A record journaled before the spill fan-out and recursion cap
        // became constants still carries their pairs: they restore to
        // nothing, and the knobs around them still apply.
        let old: Vec<(String, String)> = [
            ("memory_budget_rows", "64"),
            ("spill_fanout", "4"),
            ("spill_recursion_limit", "0"),
        ]
        .iter()
        .map(|&(k, v)| (k.to_owned(), v.to_owned()))
        .collect();
        let restored = session().options_from_journal(&old);
        assert_eq!(restored.memory_budget_rows, Some(64));
        assert_eq!(
            Session::journal_options(&restored),
            [("memory_budget_rows".to_owned(), "64".to_owned())],
            "only the knob that still exists comes back"
        );
    }

    /// By value syntax: a valid value, the clearing spelling (when there
    /// is one), and a malformed value with the rest of its error text.
    fn sample(knob: &Knob) -> (String, Option<&str>, Option<(&str, String)>) {
        let expects = |bad: &'static str, what| Some((bad, format!("expects {what}, got {bad:?}")));
        let too_many = "expects at most 1048576 entries, got 99999999".to_owned();
        let dir = std::env::temp_dir().join(format!("fudj-knob-{}", std::process::id()));
        match knob.syntax {
            "N" => ("3".into(), None, expects("fast", "a number")),
            "N|off" => ("500".into(), Some("0"), expects("fast", "a number")),
            "N|none" => ("0".into(), Some("none"), Some(("99999999", too_many))),
            "on|off" if knob.default == "on" => {
                ("off".into(), Some("on"), expects("maybe", "on or off"))
            }
            "on|off" => ("on".into(), Some("off"), expects("maybe", "on or off")),
            "row|columnar|off" => (
                "row".into(),
                Some("off"),
                expects("turbo", "row or columnar"),
            ),
            "sync|N|off" => ("16".into(), Some("sync"), expects("fast", "a number")),
            "all|off" => ("all".into(), Some("off"), expects("combine", "all or off")),
            "'<path>'|off" => (format!("'{}'", dir.display()), Some("off"), None),
            other => panic!("no sample for value syntax {other}: add one"),
        }
    }

    #[test]
    fn every_set_key_applies_reads_back_clears_and_rejects_malformed_values() {
        let set_keys: Vec<&Knob> = KNOBS.iter().filter(|k| k.is_set_key()).collect();
        assert_eq!(set_keys.len(), 17);
        for knob in set_keys {
            let name = knob.name;
            let s = Session::new(2);
            let read = || s.setting(name).expect("a SET key has a getter");
            assert_eq!(read(), knob.default, "{name}: documented default");
            let (valid, clear, malformed) = sample(knob);
            let reads = valid.trim_matches('\'');
            s.execute(&format!("SET {name} = {valid}")).unwrap();
            assert_eq!(read(), reads, "{name}: reads back");
            if let Some((bad, text)) = malformed {
                let err = s.execute(&format!("SET {name} = {bad}")).unwrap_err();
                assert_eq!(
                    err.to_string(),
                    format!("execution error: SET {name} {text}")
                );
                assert_eq!(read(), reads, "{name}: a rejected value changes nothing");
            }
            if let Some(clear) = clear {
                s.execute(&format!("SET {name} = {clear}")).unwrap();
                assert_eq!(read(), knob.default, "{name}: {clear} restores the default");
            }
            if name == "wal_dir" {
                let _ = std::fs::remove_dir_all(reads);
            }
        }
        let err = Session::new(1).execute("SET warp_drive = 9").unwrap_err();
        assert_eq!(
            err.to_string(),
            "execution error: unknown SET variable \"warp_drive\" (expected \
             max_inflight_queries, admission_queue_limit, memory_quota_rows, stage_slots, \
             priority, deadline_ms, memory_budget_rows, exec_mode, checkpoint_budget_bytes, \
             checkpoint_stages, checkpoint_durable, worker_quarantine_threshold, wal_dir, \
             durability, plan_cache_entries, result_cache_entries, or result_cache)"
        );
        assert_eq!(Session::new(1).setting("policy"), None, "not a SET key");
    }

    #[test]
    fn every_join_option_configures_the_join_and_rejects_malformed_values() {
        let s = session();
        let create = |with: &str| {
            s.execute(&format!(
                r#"CREATE JOIN j(a: polygon, b: point) RETURNS boolean
                   AS "spatial.SpatialJoin" AT flexiblejoins WITH ({with})"#
            ))
        };
        create(
            "policy = fallback, budget_ms = 7, max_pplan_bytes = 8, max_buckets_per_key = 9, \
             max_assign_fanout = 10, check_sample = 11, memory_budget_rows = 12",
        )
        .unwrap();
        let def = s.registry().get("j").unwrap();
        let limits = &def.guard().limits;
        assert_eq!(def.guard().policy, UdfPolicy::FallbackEquality);
        assert_eq!(
            (
                limits.call_budget_ms,
                limits.max_pplan_bytes,
                limits.max_buckets_per_key
            ),
            (7, 8, 9)
        );
        assert_eq!((limits.max_assign_fanout, limits.check_sample), (10, 11));
        assert_eq!(def.memory_budget_rows(), Some(12));
        s.execute("DROP JOIN j").unwrap();

        let options: Vec<&str> = KNOBS
            .iter()
            .filter(|k| k.is_join_option())
            .map(|k| k.name)
            .collect();
        assert_eq!(options.len(), 7);
        for (name, what) in options
            .iter()
            .zip([
                "",
                "ms",
                "bytes",
                "a count",
                "a count",
                "a count",
                "a row count",
            ])
            .skip(1)
        {
            let err = create(&format!("{name} = soon")).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("catalog error: join option {name} expects {what}, got \"soon\"")
            );
        }
        assert_eq!(
            create("polici = quarantine").unwrap_err().to_string(),
            "catalog error: unknown join option \"polici\" (expected policy, budget_ms, \
             max_pplan_bytes, max_buckets_per_key, max_assign_fanout, check_sample, or \
             memory_budget_rows)"
        );
        assert!(s.registry().get("j").is_none(), "DDL must not half-apply");
    }

    /// README's knob table, generated: the rows between its `knobs`
    /// markers must be exactly this.
    fn readme_table() -> String {
        let mut table = String::from(
            "| knob | statement | values | default | scope | meaning |\n|---|---|---|---|---|---|\n",
        );
        for knob in KNOBS {
            let statement = match (knob.is_set_key(), knob.is_join_option()) {
                (true, true) => "`SET`, `WITH`",
                (true, false) => "`SET`",
                _ => "`WITH`",
            };
            let scope = format!("{:?}", knob.scope).to_lowercase();
            let journaled = if knob.scope == Plan {
                ", journaled"
            } else {
                ""
            };
            table.push_str(&format!(
                "| `{}` | {statement} | `{}` | {} | {scope}{journaled} | {} |\n",
                knob.name,
                knob.syntax.replace('|', "\\|"),
                knob.default,
                knob.doc
            ));
        }
        table
    }

    #[test]
    fn readme_knob_table_is_the_knobs() {
        let readme = include_str!("../../../../README.md");
        let documented = readme
            .split("<!-- knobs:begin -->\n")
            .nth(1)
            .and_then(|rest| rest.split("<!-- knobs:end -->").next())
            .expect("README has the knobs markers");
        let expected = readme_table();
        assert_eq!(
            documented, expected,
            "README's knob table should read:\n{expected}"
        );
    }
}
