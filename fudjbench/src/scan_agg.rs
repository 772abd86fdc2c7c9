//! `scan_agg`: three scan / filter / aggregate statements over a
//! million-row integer table. No FUDJ code runs here, so this is the
//! bypass workload of every change to `core`, `joins` or `types`, and the
//! one where `exec::columnar`, the scan and the row sink do the work. The
//! built-in strategy plans the same statements, which makes
//! `fudj_over_builtin` a control that should read 1.

use crate::harness::{
    engine_metrics, front_end_metrics, overhead_share, plan_options, query, replay_tables,
    run_rounds, set_up_repeatedly, timed, trace_front_end, Checks, Config, Measured, Round,
    Strategy, WORKERS,
};
use crate::trace::Tracer;
use fudj_exec::{columnar, AggFunc, Aggregate, CmpOp, ColumnCompare, ExecMode, MetricsSnapshot};
use fudj_sql::Session;
use fudj_storage::DatasetBuilder;
use fudj_types::{Batch, DataType, Field, Result, Row, Schema, Value};
use std::collections::BTreeMap;
use std::hint::black_box;

const ROWS: usize = 1_000_000;
const GROUPS: u64 = 4_096;
const VALUES: u64 = 10_000;

/// Filter + project: about 88.6 % of the rows come back.
const FILTER_PROJECT: &str =
    "SELECT f.grp FROM Fact f WHERE f.grp >= 64 AND f.grp <> 300 AND f.val < 9000";
const GROUP_BY: &str =
    "SELECT f.grp, COUNT(*) AS c, SUM(f.val) AS s, AVG(f.val) AS a FROM Fact f GROUP BY f.grp";
const FILTER_GROUP_BY: &str = "SELECT f.grp, COUNT(*) AS c, SUM(f.val) AS s, AVG(f.val) AS a \
                               FROM Fact f WHERE f.val < 9900 GROUP BY f.grp";
const STATEMENTS: [&str; 3] = [FILTER_PROJECT, GROUP_BY, FILTER_GROUP_BY];

/// The generated `(grp, val)` pairs, row `i` having `id = i`.
fn generate(rows: usize, seed: u64) -> Vec<(i64, i64)> {
    // xorshift64; the state must not be zero.
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..rows)
        .map(|_| ((next() % GROUPS) as i64, (next() % VALUES) as i64))
        .collect()
}

/// Per-group `(COUNT, SUM)` of the pairs `keep` lets through.
fn group_counts(data: &[(i64, i64)], keep: impl Fn(i64, i64) -> bool) -> BTreeMap<i64, (i64, i64)> {
    let mut groups = BTreeMap::new();
    for &(grp, val) in data {
        if keep(grp, val) {
            let entry = groups.entry(grp).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += val;
        }
    }
    groups
}

struct ScanBench {
    session: Session,
    /// What each statement must return, recomputed from the generated data.
    filter_project_rows: usize,
    group_by: BTreeMap<i64, (i64, i64)>,
    filter_group_by: BTreeMap<i64, (i64, i64)>,
}

impl ScanBench {
    fn new(cfg: &Config) -> Result<ScanBench> {
        let data = generate(cfg.scaled(ROWS), cfg.seed_for(70));
        let schema = Schema::shared(vec![
            Field::new("id", DataType::Int64),
            Field::new("grp", DataType::Int64),
            Field::new("val", DataType::Int64),
        ]);
        let fact = DatasetBuilder::new("Fact", schema)
            .primary_key("id")
            .partitions(WORKERS)
            .build()?;
        fact.insert_all(data.iter().enumerate().map(|(i, &(grp, val))| {
            Row::new(vec![
                Value::Int64(i as i64),
                Value::Int64(grp),
                Value::Int64(val),
            ])
        }))?;
        let session = Session::new(WORKERS);
        session.register_dataset(fact)?;
        Ok(ScanBench {
            session,
            filter_project_rows: data
                .iter()
                .filter(|&&(grp, val)| grp >= 64 && grp != 300 && val < 9000)
                .count(),
            group_by: group_counts(&data, |_, _| true),
            filter_group_by: group_counts(&data, |_, val| val < 9900),
        })
    }

    fn check(&self, statement: usize, batch: &Batch, checks: &mut Checks) {
        let grouped = |batch: &Batch| -> Result<BTreeMap<i64, (i64, i64)>> {
            batch
                .rows()
                .iter()
                .map(|r| Ok((r.get(0).as_i64()?, (r.get(1).as_i64()?, r.get(2).as_i64()?))))
                .collect()
        };
        let ok = match statement {
            0 => batch.len() == self.filter_project_rows,
            1 => grouped(batch).is_ok_and(|g| g == self.group_by),
            _ => grouped(batch).is_ok_and(|g| g == self.filter_group_by),
        };
        checks.check(ok, || {
            format!(
                "statement {statement} returned {} rows that differ from the recomputed answer",
                batch.len()
            )
        });
    }

    /// The three statements in sequence: seconds of the whole op and what
    /// the engine reported about the last statement.
    fn op(&self, checks: &mut Checks, tracer: &mut Tracer) -> Result<(f64, MetricsSnapshot)> {
        let mut seconds = 0.0;
        let mut last = None;
        for (i, sql) in STATEMENTS.iter().enumerate() {
            let (batch, metrics, s) = query(&self.session, sql, tracer)?;
            seconds += s;
            self.check(i, &batch, checks);
            last = Some(metrics);
        }
        Ok((seconds, last.expect("the op has statements")))
    }

    fn round(&mut self, i: usize, checks: &mut Checks) -> Result<Round> {
        let mut seconds = [0.0; 2];
        let mut off = Tracer::new(false);
        for strategy in Strategy::pair_order(i) {
            self.session.set_options(plan_options(strategy, Vec::new()));
            seconds[strategy as usize] = self.op(checks, &mut off)?.0;
        }
        let [fudj_s, builtin_s] = seconds;
        Ok(Round {
            fudj_s,
            builtin_s,
            wall_s: fudj_s + builtin_s,
            units: 2.0 * STATEMENTS.len() as f64,
        })
    }
}

pub fn run(cfg: &Config, checks: &mut Checks) -> Result<Measured> {
    // Set-up is everything before the first warm op: fill, register and
    // the first, cold op.
    let (mut bench, setup_s) = set_up_repeatedly(|_| {
        let bench = ScanBench::new(cfg)?;
        bench.op(&mut Checks::default(), &mut Tracer::new(false))?;
        Ok(bench)
    })?;
    let mut measured = Measured {
        setup_s,
        rounds: Vec::new(),
    };

    bench.round(0, &mut Checks::default())?;
    run_rounds(cfg.seconds, cfg.min_rounds(), |i| {
        measured.rounds.push(bench.round(i, checks)?);
        Ok(())
    })?;
    Ok(measured)
}

/// The columnar kernels on `Fact`'s partitions, outside any query.
fn replay_kernels(
    session: &Session,
    tracer: &mut Tracer,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<()> {
    let fact = session.catalog().get("Fact")?;
    let compares = [
        ColumnCompare {
            column: 1,
            op: CmpOp::GtEq,
            literal: Value::Int64(64),
        },
        ColumnCompare {
            column: 1,
            op: CmpOp::NotEq,
            literal: Value::Int64(300),
        },
        ColumnCompare {
            column: 2,
            op: CmpOp::Lt,
            literal: Value::Int64(9000),
        },
    ];
    let aggregates = [
        Aggregate::count_star("c"),
        Aggregate::on(AggFunc::Sum, 2, "s"),
        Aggregate::on(AggFunc::Avg, 2, "a"),
    ];
    let rows = fact.len() as f64;
    let (mut filter_s, mut project_s, mut aggregate_s) = (0.0, 0.0, 0.0);
    for p in 0..fact.partition_count() {
        let input = fact.partition_rows(p);
        let open = tracer.begin("exec.filter");
        black_box(columnar::filter_rows(input, &compares, ExecMode::Columnar));
        filter_s += tracer.end(open);

        let input = fact.partition_rows(p);
        let open = tracer.begin("exec.project");
        black_box(columnar::project_rows(input, &[1]));
        project_s += tracer.end(open);

        let input = fact.partition_rows(p);
        let open = tracer.begin("exec.partial_agg");
        let partials = columnar::partial_aggregate(&input, &[1], &aggregates, &[false; 3])
            .expect("an Int64 group key takes the columnar path")?;
        black_box(partials);
        aggregate_s += tracer.end(open);
    }
    out.extend([
        ("exec.filter_ns_per_row", filter_s * 1e9 / rows),
        ("exec.project_ns_per_row", project_s * 1e9 / rows),
        ("exec.partial_agg_ns_per_row", aggregate_s * 1e9 / rows),
    ]);
    Ok(())
}

pub fn run_traced(
    cfg: &Config,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> Result<Vec<(&'static str, f64)>> {
    let (bench, setup_s) = timed(|| ScanBench::new(cfg));
    let mut bench = bench?;
    let mut out = vec![("datagen.rows_per_s", cfg.scaled(ROWS) as f64 / setup_s)];

    bench
        .session
        .set_options(plan_options(Strategy::Fudj, Vec::new()));
    let mut off = Tracer::new(false);
    bench.op(&mut Checks::default(), &mut off)?;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    run_rounds(cfg.seconds * 0.4, cfg.min_rounds(), |_| {
        untraced.push(bench.op(checks, &mut off)?.0);
        let (seconds, metrics) = bench.op(checks, tracer)?;
        traced.push(seconds);
        last = Some(metrics);
        Ok(())
    })?;
    out.push(("trace.overhead_share", overhead_share(&traced, &untraced)));
    out.extend(engine_metrics(&last.expect("at least one traced op")));

    let root = tracer.begin_op("replay");
    let statements = STATEMENTS.map(str::to_owned);
    trace_front_end(&bench.session, &statements, tracer)?;
    replay_kernels(&bench.session, tracer, &mut out)?;
    replay_tables(&bench.session, &["Fact"], tracer, &mut out)?;
    tracer.end(root);

    out.extend(front_end_metrics(tracer));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fact_rows_are_a_pure_function_of_the_seed() {
        assert_eq!(generate(1_000, 7), generate(1_000, 7));
        assert_ne!(generate(1_000, 7), generate(1_000, 9));
        assert!(generate(1_000, 0)
            .iter()
            .all(|&(g, v)| (0..GROUPS as i64).contains(&g) && (0..VALUES as i64).contains(&v)));
    }

    #[test]
    fn recomputed_groups_count_every_kept_row() {
        let data = [(1, 10), (2, 5), (1, 7), (2, 9_950)];
        let all = group_counts(&data, |_, _| true);
        assert_eq!(all[&1], (2, 17));
        assert_eq!(all[&2], (2, 9_955));
        let kept = group_counts(&data, |_, v| v < 9_900);
        assert_eq!(kept[&2], (1, 5));
    }
}
