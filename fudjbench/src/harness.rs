//! What every workload shares: the run configuration, the closed-loop
//! round loop, output-check bookkeeping and the FUDJ / built-in strategy
//! switch.

use crate::stats::median;
use crate::trace::Tracer;
use fudj_core::EngineJoin;
use fudj_exec::{exchange, MetricsSnapshot, QueryMetrics};
use fudj_joins::builtin::{BuiltinIntervalJoin, BuiltinSpatialJoin, BuiltinTextSimJoin};
use fudj_planner::PlanOptions;
use fudj_sql::ast::Statement;
use fudj_sql::binder::bind_select;
use fudj_sql::{QueryOutput, Session};
use fudj_types::{wire, Batch, FudjError, Result, Row, Value};
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine workers of every session: the sandbox has two cores.
pub const WORKERS: usize = 2;
/// Every workload measures at least this many rounds, however short
/// `--seconds` is.
pub const MIN_ROUNDS: usize = 5;

#[derive(Clone, Debug)]
pub struct Config {
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// `--smoke`: 1/50 input sizes and two rounds, for the unit tests.
    pub smoke: bool,
    /// Directory for WAL files; removed when the run ends.
    pub scratch: PathBuf,
}

impl Config {
    /// Input size at the run's scale.
    pub fn scaled(&self, full: usize) -> usize {
        if self.smoke {
            (full / 50).max(1)
        } else {
            full
        }
    }

    pub fn min_rounds(&self) -> usize {
        if self.smoke {
            2
        } else {
            MIN_ROUNDS
        }
    }

    /// Seed for one generated input: every generator gets its own stream
    /// of the run's `--seed`.
    pub fn seed_for(&self, stream: u64) -> u64 {
        self.seed.wrapping_mul(1_000_003).wrapping_add(stream)
    }
}

/// Which operator a FUDJ predicate is lowered to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// The registered library behind the proxy boundary. (The variants'
    /// order is the index of per-strategy arrays: `[fudj, builtin]`.)
    Fudj,
    /// The hand-integrated operator, through `PlanOptions.join_overrides`.
    /// A statement with no FUDJ predicate plans the same either way, which
    /// makes this the control on the workloads that have none.
    Builtin,
}

impl Strategy {
    /// Order of the two ops of round `i`: alternating, so drift within a
    /// run hits both sides alike.
    pub fn pair_order(round: usize) -> [Strategy; 2] {
        if round.is_multiple_of(2) {
            [Strategy::Fudj, Strategy::Builtin]
        } else {
            [Strategy::Builtin, Strategy::Fudj]
        }
    }
}

/// One of the paper's three joins: its predicate name, the DDL creating
/// it from the standard library, and its hand-integrated twin.
pub struct JoinDef {
    pub name: &'static str,
    pub ddl: &'static str,
    pub builtin: fn() -> Arc<dyn EngineJoin>,
}

pub const SPATIAL: JoinDef = JoinDef {
    name: "st_contains",
    ddl: r#"CREATE JOIN st_contains(a: polygon, b: point)
            RETURNS boolean AS "spatial.SpatialJoin" AT flexiblejoins"#,
    builtin: || Arc::new(BuiltinSpatialJoin::new()),
};
pub const INTERVAL: JoinDef = JoinDef {
    name: "overlapping_interval",
    ddl: r#"CREATE JOIN overlapping_interval(a: interval, b: interval)
            RETURNS boolean AS "interval.OverlappingIntervalJoin" AT flexiblejoins"#,
    builtin: || Arc::new(BuiltinIntervalJoin::new()),
};
pub const TEXT: JoinDef = JoinDef {
    name: "similarity_jaccard",
    ddl: r#"CREATE JOIN similarity_jaccard(a: string, b: string, t: double)
            RETURNS boolean AS "setsimilarity.SetSimilarityJoin" AT flexiblejoins"#,
    builtin: || Arc::new(BuiltinTextSimJoin::new()),
};
pub const JOINS: [&JoinDef; 3] = [&SPATIAL, &INTERVAL, &TEXT];

/// Planner options of one strategy; `extra_join_params` go to `divide`
/// after the query's own parameters.
pub fn plan_options(strategy: Strategy, extra_join_params: Vec<Value>) -> PlanOptions {
    let mut options = PlanOptions {
        extra_join_params,
        ..PlanOptions::default()
    };
    if strategy == Strategy::Builtin {
        for join in JOINS {
            options
                .join_overrides
                .insert(join.name.to_owned(), (join.builtin)());
        }
    }
    options
}

/// Output checks and failed operations of one run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count one operation or check; a failure is reported on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("fudjbench: FAILED {}", what());
            }
        }
    }

    /// Count an operation that must succeed and hand its value on.
    pub fn ok<T>(&mut self, result: Result<T>, what: &str) -> Option<T> {
        match result {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }
}

/// One timed round: the op under each strategy, plus whatever else the
/// workload's round holds. `wall_s` is the sum of the round's timed
/// intervals; output checks sit between them and are not in it.
#[derive(Clone, Copy, Debug)]
pub struct Round {
    pub fudj_s: f64,
    pub builtin_s: f64,
    pub wall_s: f64,
    /// Work units the round completed, the numerator of `ops_per_s`.
    pub units: f64,
}

/// Everything the end-to-end metrics are computed from.
#[derive(Debug, Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub rounds: Vec<Round>,
}

impl Measured {
    /// The end-to-end metrics, in `spec::END_TO_END` order without
    /// `peak_rss_mb` (the caller reads that last).
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let col = |f: fn(&Round) -> f64| self.rounds.iter().map(f).collect::<Vec<_>>();
        vec![
            ("setup_s", median(&self.setup_s)),
            ("query_s", median(&col(|r| r.fudj_s))),
            ("builtin_query_s", median(&col(|r| r.builtin_s))),
            (
                "fudj_over_builtin",
                median(&col(|r| r.fudj_s / r.builtin_s)),
            ),
            ("ops_per_s", median(&col(|r| r.units / r.wall_s))),
        ]
    }
}

/// Closed loop: run `round(i)` back to back until `seconds` have passed
/// and at least `min_rounds` are done.
pub fn run_rounds(
    seconds: f64,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> Result<()>,
) -> Result<usize> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut done = 0;
    while done < min_rounds || Instant::now() < deadline {
        round(done)?;
        done += 1;
    }
    Ok(done)
}

/// Set up several times for a steady `setup_s`: at least three times, then
/// until a second has gone into it (at most fifteen times). Each set-up is
/// dropped before the next starts, so peak memory is one set-up's; the
/// last one is handed back with every set-up's seconds.
pub fn set_up_repeatedly<T>(mut build: impl FnMut(usize) -> Result<T>) -> Result<(T, Vec<f64>)> {
    let mut seconds: Vec<f64> = Vec::new();
    let mut built = None;
    while seconds.len() < 3 || (seconds.iter().sum::<f64>() < 1.0 && seconds.len() < 15) {
        drop(built.take());
        let (result, s) = timed(|| build(seconds.len()));
        built = Some(result?);
        seconds.push(s);
    }
    Ok((built.expect("at least three set-ups ran"), seconds))
}

pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

pub fn sorted_rows(batch: &Batch) -> Vec<Row> {
    let mut rows = batch.rows().to_vec();
    rows.sort();
    rows
}

/// SQL text in, rows out, timed. With tracing off this is
/// `Session::execute`, the path a user's statement takes; with tracing on
/// the same statement is taken apart at the layer boundaries `execute`
/// crosses, one span per layer under an `op` span.
pub fn query(
    session: &Session,
    sql: &str,
    tracer: &mut Tracer,
) -> Result<(Batch, MetricsSnapshot, f64)> {
    if !tracer.enabled() {
        let (out, seconds) = timed(|| session.execute(sql));
        return match out? {
            QueryOutput::Rows(batch, metrics) => Ok((batch, *metrics, seconds)),
            other => Err(FudjError::Execution(format!(
                "expected rows, statement produced {other:?}"
            ))),
        };
    }
    let op = tracer.begin_op("op");
    let result = (|| {
        let statement = tracer.time("sqlish.parse", || fudj_sql::parse(sql))?;
        let Statement::Select(select) = statement else {
            return Err(FudjError::Execution(format!("not a SELECT: {sql}")));
        };
        let logical = tracer.time("sqlish.bind", || bind_select(&select, session.catalog()))?;
        let options = session.effective_options();
        let physical = tracer.time("planner.plan", || {
            fudj_planner::plan(logical, session.registry(), &options)
        })?;
        tracer.time("exec.execute_physical", || {
            session.execute_physical(&physical, options.exec_mode)
        })
    })();
    let seconds = tracer.end(op);
    result.map(|(batch, metrics)| (batch, metrics, seconds))
}

/// Front-end cost of `statements` outside any execution: each one is
/// parsed, fingerprinted, bound and planned inside its own spans (under
/// the caller's open root span).
pub fn trace_front_end(
    session: &Session,
    statements: &[String],
    tracer: &mut Tracer,
) -> Result<()> {
    let options = session.effective_options();
    for sql in statements {
        let statement = tracer.time("sqlish.parse", || fudj_sql::parse(sql))?;
        let Statement::Select(select) = statement else {
            return Err(FudjError::Execution(format!("not a SELECT: {sql}")));
        };
        tracer.time("sqlish.fingerprint", || {
            std::hint::black_box(fudj_sql::shape_of(&select));
            std::hint::black_box(fudj_sql::statement_fingerprint(sql));
        });
        let logical = tracer.time("sqlish.bind", || bind_select(&select, session.catalog()))?;
        tracer.time("planner.plan", || {
            fudj_planner::plan(logical, session.registry(), &options)
        })?;
    }
    Ok(())
}

/// Median duration of the spans called `name`, in the unit `per_second`
/// names (1e6 for µs); 0 when no such span was recorded.
pub fn span_median(tracer: &Tracer, name: &str, per_second: f64) -> f64 {
    let d = tracer.durations_s(name);
    if d.is_empty() {
        0.0
    } else {
        median(&d) * per_second
    }
}

/// Layer metrics every SQL workload reports from its spans.
pub fn front_end_metrics(tracer: &Tracer) -> Vec<(&'static str, f64)> {
    vec![
        ("sqlish.parse_us", span_median(tracer, "sqlish.parse", 1e6)),
        (
            "sqlish.fingerprint_us",
            span_median(tracer, "sqlish.fingerprint", 1e6),
        ),
        ("sqlish.bind_us", span_median(tracer, "sqlish.bind", 1e6)),
        ("planner.plan_us", span_median(tracer, "planner.plan", 1e6)),
        (
            "exec.execute_physical_ms",
            span_median(tracer, "exec.execute_physical", 1e3),
        ),
        ("trace.op_child_coverage", tracer.min_child_coverage("op")),
    ]
}

/// What the engine itself reports about one executed query.
pub fn engine_metrics(m: &MetricsSnapshot) -> Vec<(&'static str, f64)> {
    let phase = |name: &str| m.phase_total(name).as_secs_f64() * 1e3;
    let skew = m
        .skew_report()
        .iter()
        .find(|s| s.phase == "join")
        .map_or(0.0, |s| s.ratio());
    vec![
        ("exec.phase_summarize_ms", phase("summarize")),
        ("exec.phase_divide_ms", phase("divide")),
        ("exec.phase_partition_ms", phase("partition")),
        ("exec.phase_join_ms", phase("join")),
        ("exec.phase_dedup_ms", phase("dedup")),
        ("exec.join_skew", skew),
        ("exec.rows_shuffled", m.rows_shuffled as f64),
        ("exec.bytes_shuffled", m.bytes_shuffled as f64),
        ("exec.bytes_broadcast", m.bytes_broadcast as f64),
        ("exec.verify_calls", m.verify_calls as f64),
        ("exec.dedup_rejections", m.dedup_rejections as f64),
        ("exec.state_bytes", m.state_bytes as f64),
    ]
}

/// Nanoseconds per item of `seconds` spent on `n` items; 0 for none.
pub fn per(seconds: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        seconds * 1e9 / n as f64
    }
}

/// `a / b`, 0 when there is no base.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Wire codec and exchanges on the workload's input tables.
pub fn replay_tables(
    session: &Session,
    tables: &[&str],
    tracer: &mut Tracer,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<()> {
    let (mut rows, mut bytes) = (0usize, 0usize);
    let (mut encode_s, mut decode_s, mut shuffle_s, mut gather_s) = (0.0, 0.0, 0.0, 0.0);
    let cluster = session.cluster();
    for table in tables {
        let dataset = session.catalog().get(table)?;
        let batch = Batch::new(dataset.schema().clone(), dataset.all_rows());
        rows += batch.len();
        let open = tracer.begin("types.wire_encode");
        let encoded = wire::encode_batch(&batch);
        encode_s += tracer.end(open);
        bytes += encoded.len();
        let open = tracer.begin("types.wire_decode");
        let decoded = wire::decode_batch(encoded, dataset.schema().clone())?;
        decode_s += tracer.end(open);
        if decoded.len() != batch.len() {
            return Err(FudjError::Execution(format!(
                "{table}: wire round trip lost rows"
            )));
        }

        let parts = || -> Vec<Vec<Row>> {
            (0..dataset.partition_count())
                .map(|p| dataset.partition_rows(p))
                .collect()
        };
        let metrics = QueryMetrics::new();
        let input = parts();
        let open = tracer.begin("exec.shuffle");
        black_box(exchange::shuffle_by_column(
            input,
            cluster.pool(),
            0,
            &metrics,
        )?);
        shuffle_s += tracer.end(open);
        let input = parts();
        let open = tracer.begin("exec.gather");
        black_box(exchange::gather(input, cluster.pool(), &metrics)?);
        gather_s += tracer.end(open);
    }
    out.extend([
        ("types.wire_encode_ns_per_row", per(encode_s, rows)),
        ("types.wire_decode_ns_per_row", per(decode_s, rows)),
        ("types.wire_bytes_per_row", ratio(bytes as f64, rows as f64)),
        ("exec.shuffle_ns_per_row", per(shuffle_s, rows)),
        ("exec.gather_ns_per_row", per(gather_s, rows)),
    ]);
    Ok(())
}

/// `(traced − untraced) / untraced` of an op's median seconds.
pub fn overhead_share(traced_s: &[f64], untraced_s: &[f64]) -> f64 {
    let base = median(untraced_s);
    (median(traced_s) - base) / base
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_metrics_are_medians_over_rounds() {
        let round = |fudj_s, builtin_s| Round {
            fudj_s,
            builtin_s,
            wall_s: fudj_s + builtin_s,
            units: 2.0,
        };
        let m = Measured {
            setup_s: vec![0.5, 0.3, 0.4],
            rounds: vec![round(0.4, 0.2), round(0.6, 0.2), round(0.5, 0.25)],
        };
        let got: std::collections::HashMap<_, _> = m.end_to_end().into_iter().collect();
        assert_eq!(got["setup_s"], 0.4);
        assert_eq!(got["query_s"], 0.5);
        assert_eq!(got["builtin_query_s"], 0.2);
        assert_eq!(got["fudj_over_builtin"], 2.0);
        assert!((got["ops_per_s"] - 2.0 / 0.75).abs() < 1e-12);
    }

    #[test]
    fn round_loop_honours_minimum_and_deadline() {
        let mut calls = 0;
        let done = run_rounds(0.0, 3, |_| {
            calls += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!((done, calls), (3, 3));
        let done = run_rounds(0.05, 1, |_| {
            std::thread::sleep(Duration::from_millis(20));
            Ok(())
        })
        .unwrap();
        assert!((2..=4).contains(&done), "{done}");
    }

    #[test]
    fn set_up_repeats_until_a_second_or_fifteen_times() {
        let (last, seconds) = set_up_repeatedly(Ok).unwrap();
        assert_eq!(
            (last, seconds.len()),
            (14, 15),
            "instant set-ups stop at fifteen"
        );
        let (_, seconds) = set_up_repeatedly(|_| {
            std::thread::sleep(Duration::from_millis(400));
            Ok(())
        })
        .unwrap();
        assert_eq!(seconds.len(), 3, "slow set-ups stop at three");
    }

    #[test]
    fn pair_order_alternates() {
        assert_eq!(Strategy::pair_order(0), [Strategy::Fudj, Strategy::Builtin]);
        assert_eq!(Strategy::pair_order(1), [Strategy::Builtin, Strategy::Fudj]);
    }

    #[test]
    fn seeds_are_a_pure_function_of_seed_and_stream() {
        let cfg = |seed| Config {
            seed,
            seconds: 0.0,
            smoke: true,
            scratch: PathBuf::new(),
        };
        assert_eq!(cfg(11).seed_for(3), cfg(11).seed_for(3));
        assert_ne!(cfg(11).seed_for(3), cfg(11).seed_for(4));
        assert_ne!(cfg(11).seed_for(3), cfg(12).seed_for(3));
        assert_eq!(cfg(11).scaled(100_000), 2_000);
    }
}
