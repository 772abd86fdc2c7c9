//! `serve_mix`: reads beside writes on the serving tier. A Zipf-skewed
//! statement stream from twelve tenants runs through `ServingTier`, and
//! before every tenth statement one fresh row is inserted, so results are
//! invalidated and the plan cache gets hits. Inputs are small: parse,
//! fingerprint, plan and scheduling dominate, the opposite of the join
//! workloads.
//!
//! A block is a fresh session and tier taking the whole stream; a round is
//! one block per strategy. Every block does the same work, so the tier's
//! counters must repeat exactly.

use crate::harness::{
    front_end_metrics, overhead_share, plan_options, ratio, run_rounds, sorted_rows, span_median,
    timed, trace_front_end, Checks, Config, Measured, Round, Strategy, JOINS, WORKERS,
};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use fudj_datagen::{amazon_reviews, nyctaxi, parks, weather, wildfires, GeneratorConfig};
use fudj_exec::ServingStats;
use fudj_joins::standard_library;
use fudj_serve::{generate, MixProfile, Op, ServingTier, WorkloadConfig};
use fudj_sql::Session;
use fudj_types::{Result, Row};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Base table size; Wildfires gets twice as many.
const RECORDS: usize = 200;
/// Statements of one block.
const STATEMENTS: usize = 2_000;
const TENANTS: u32 = 12;
const PRIORITY_CLASSES: u32 = 3;
const ZIPF_EXPONENT: f64 = 1.1;
/// A row is inserted before every statement whose index divides by this.
const INSERT_EVERY: usize = 10;
/// Every such statement is re-run uncached and compared.
const VERIFY_EVERY: usize = 50;
/// Tables the inserts go to, round-robin.
const INGEST_TABLES: [&str; 3] = ["NYCTaxi", "AmazonReview", "Wildfires"];

/// The generated inputs of a run: the statement stream and the rows
/// inserted beside it.
struct Inputs {
    records: usize,
    ops: Vec<Op>,
    /// `inserts[i]` goes to `INGEST_TABLES[i % 3]`.
    inserts: Vec<Row>,
}

impl Inputs {
    fn new(cfg: &Config) -> Result<Inputs> {
        // Below 40 records the join shapes stop returning rows.
        let records = cfg.scaled(RECORDS).max(40);
        let statements = if cfg.smoke {
            STATEMENTS / 10
        } else {
            STATEMENTS
        };
        let ops = generate(&WorkloadConfig {
            tenants: TENANTS,
            ops: statements,
            seed: cfg.seed_for(80),
            profile: MixProfile::ShapeSkewed(ZIPF_EXPONENT),
            priority_classes: PRIORITY_CLASSES,
        });
        let per_table = statements / INSERT_EVERY / INGEST_TABLES.len() + 1;
        let gen = |stream| GeneratorConfig::new(per_table, cfg.seed_for(stream), 1);
        let fresh = [
            nyctaxi(gen(81))?.all_rows(),
            amazon_reviews(gen(82))?.all_rows(),
            wildfires(gen(83))?.all_rows(),
        ];
        let inserts = (0..per_table)
            .flat_map(|i| fresh.iter().map(move |rows| rows[i].clone()))
            .collect();
        Ok(Inputs {
            records,
            ops,
            inserts,
        })
    }

    /// The five sample datasets with the paper's joins created: the
    /// universe `fudj_serve::SHAPES` targets, seeded from the run.
    fn session(&self, cfg: &Config, strategy: Strategy) -> Result<Session> {
        let gen = |rows, stream| GeneratorConfig::new(rows, cfg.seed_for(stream), WORKERS);
        let mut session = Session::new(WORKERS);
        session.install_library(standard_library());
        session.register_dataset(parks(gen(self.records, 84))?)?;
        session.register_dataset(wildfires(gen(2 * self.records, 85))?)?;
        session.register_dataset(nyctaxi(gen(self.records, 86))?)?;
        session.register_dataset(amazon_reviews(gen(self.records, 87))?)?;
        session.register_dataset(weather(gen(self.records, 88))?)?;
        for join in JOINS {
            session.execute(join.ddl)?;
        }
        session.set_options(plan_options(strategy, Vec::new()));
        Ok(session)
    }
}

/// The tier counters that must repeat from block to block
/// (`queue_depth_high_water` depends on thread timing and is left out).
fn pinned(s: &ServingStats) -> [u64; 7] {
    [
        s.admissions,
        s.rejections,
        s.plan_cache_hits,
        s.plan_cache_misses,
        s.result_cache_hits,
        s.result_cache_misses,
        s.result_cache_invalidations,
    ]
}

/// One statement as the client saw it.
struct Served {
    seconds: f64,
    /// Answered from the result cache.
    hit: bool,
}

struct Block {
    /// Statements plus inserts; the uncached re-runs are not in it.
    busy_s: f64,
    served: Vec<Served>,
    stats: ServingStats,
}

/// Run the whole stream through a fresh tier over `session`.
fn block(
    inputs: &Inputs,
    session: Session,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> Result<Block> {
    let tier = ServingTier::new(Arc::new(session));
    let mut busy_s = 0.0;
    let mut served = Vec::with_capacity(inputs.ops.len());
    let mut hits_before = 0;
    for (i, op) in inputs.ops.iter().enumerate() {
        if i % INSERT_EVERY == 0 {
            let n = i / INSERT_EVERY;
            let table = tier
                .session()
                .catalog()
                .get(INGEST_TABLES[n % INGEST_TABLES.len()])?;
            let (inserted, s) = timed(|| table.insert(inputs.inserts[n].clone()));
            checks.ok(inserted, "insert");
            busy_s += s;
        }
        let open = tracer.begin_op("serve.serve");
        let out = tier.serve_with_priority(op.tenant, op.priority, &op.sql);
        let seconds = tracer.end(open);
        busy_s += seconds;
        let hits = tier.stats().result_cache_hits;
        served.push(Served {
            seconds,
            hit: hits > hits_before,
        });
        hits_before = hits;
        let Some(out) = checks.ok(out, &op.sql) else {
            continue;
        };
        if i % VERIFY_EVERY == 0 {
            let uncached = tier.session().query(&op.sql)?;
            checks.check(sorted_rows(out.batch()) == sorted_rows(&uncached), || {
                format!(
                    "statement {i} served rows that differ from an uncached run: {}",
                    op.sql
                )
            });
        }
    }
    Ok(Block {
        busy_s,
        served,
        stats: tier.stats(),
    })
}

struct ServeBench {
    inputs: Inputs,
    /// First block's counters per strategy.
    pins: [Option<[u64; 7]>; 2],
}

impl ServeBench {
    /// A block of `strategy` on a fresh session; returns the session's
    /// set-up seconds too.
    fn block(
        &mut self,
        cfg: &Config,
        strategy: Strategy,
        checks: &mut Checks,
        tracer: &mut Tracer,
    ) -> Result<(Block, f64)> {
        let (session, setup_s) = timed(|| self.inputs.session(cfg, strategy));
        let block = block(&self.inputs, session?, checks, tracer)?;
        let now = pinned(&block.stats);
        let first = *self.pins[strategy as usize].get_or_insert(now);
        checks.check(first == now, || {
            format!("{strategy:?} tier counters changed between blocks: {first:?} then {now:?}")
        });
        Ok((block, setup_s))
    }
}

pub fn run(cfg: &Config, checks: &mut Checks) -> Result<Measured> {
    let mut measured = Measured::default();
    let (inputs, inputs_s) = timed(|| Inputs::new(cfg));
    let mut bench = ServeBench {
        inputs: inputs?,
        pins: [None; 2],
    };
    let statements = bench.inputs.ops.len() as f64;

    let mut off = Tracer::new(false);
    bench.block(cfg, Strategy::Fudj, &mut Checks::default(), &mut off)?;
    bench.pins = [None; 2];
    run_rounds(cfg.seconds, cfg.min_rounds(), |i| {
        let mut per_statement = [0.0; 2];
        let mut wall_s = 0.0;
        for strategy in Strategy::pair_order(i) {
            let (block, setup_s) = bench.block(cfg, strategy, checks, &mut off)?;
            // Set-up is the generated inputs plus a session over them.
            measured.setup_s.push(inputs_s + setup_s);
            per_statement[strategy as usize] = block.busy_s / statements;
            wall_s += block.busy_s;
        }
        measured.rounds.push(Round {
            fudj_s: per_statement[Strategy::Fudj as usize],
            builtin_s: per_statement[Strategy::Builtin as usize],
            wall_s,
            units: 2.0 * statements,
        });
        Ok(())
    })?;
    Ok(measured)
}

pub fn run_traced(
    cfg: &Config,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> Result<Vec<(&'static str, f64)>> {
    let (inputs, inputs_s) = timed(|| Inputs::new(cfg));
    let mut bench = ServeBench {
        inputs: inputs?,
        pins: [None; 2],
    };
    let generated = (6 * bench.inputs.records + bench.inputs.inserts.len()) as f64;

    let mut off = Tracer::new(false);
    bench.block(cfg, Strategy::Fudj, &mut Checks::default(), &mut off)?;
    let (mut untraced, mut traced, mut setups) = (Vec::new(), Vec::new(), Vec::new());
    let mut served = Vec::new();
    let mut stats = ServingStats::default();
    run_rounds(cfg.seconds * 0.4, cfg.min_rounds(), |_| {
        let (block, setup_s) = bench.block(cfg, Strategy::Fudj, checks, &mut off)?;
        untraced.push(block.busy_s);
        setups.push(setup_s);
        let (block, setup_s) = bench.block(cfg, Strategy::Fudj, checks, tracer)?;
        traced.push(block.busy_s);
        setups.push(setup_s);
        served.extend(block.served);
        stats = block.stats;
        Ok(())
    })?;

    let latencies = |hit: bool| -> Vec<f64> {
        served
            .iter()
            .filter(|s| s.hit == hit)
            .map(|s| s.seconds)
            .collect()
    };
    let p50 = |samples: Vec<f64>, scale: f64| {
        if samples.is_empty() {
            0.0
        } else {
            median(&samples) * scale
        }
    };
    let all: Vec<f64> = served.iter().map(|s| s.seconds * 1e3).collect();
    let share = |hits: u64, misses: u64| ratio(hits as f64, (hits + misses) as f64);
    let mut out = vec![
        (
            "datagen.rows_per_s",
            generated / (inputs_s + median(&setups)),
        ),
        ("trace.overhead_share", overhead_share(&traced, &untraced)),
        (
            "serve.result_hit_rate",
            share(stats.result_cache_hits, stats.result_cache_misses),
        ),
        (
            "serve.plan_hit_rate",
            share(stats.plan_cache_hits, stats.plan_cache_misses),
        ),
        ("serve.plan_hits", stats.plan_cache_hits as f64),
        (
            "serve.invalidations",
            stats.result_cache_invalidations as f64,
        ),
        ("serve.rejections", stats.rejections as f64),
        ("serve.hit_latency_us_p50", p50(latencies(true), 1e6)),
        ("serve.miss_latency_ms_p50", p50(latencies(false), 1e3)),
        ("serve.latency_ms_p99", percentile(&all, 99.0)),
    ];

    // Front end and scheduler on the stream's distinct statements, outside
    // the tier.
    let root = tracer.begin_op("replay");
    let session = bench.inputs.session(cfg, Strategy::Fudj)?;
    let distinct: Vec<String> = bench
        .inputs
        .ops
        .iter()
        .map(|op| op.sql.clone())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    for _ in 0..5 {
        trace_front_end(&session, &distinct, tracer)?;
    }
    let lookup = "SELECT n.id, n.Vendor FROM NYCTaxi n WHERE n.Vendor = 1 LIMIT 3";
    for _ in 0..200 {
        let open = tracer.begin("sched.roundtrip");
        let result = session.submit(lookup).and_then(|job| job.wait());
        tracer.end(open);
        checks.ok(result, lookup);
    }
    tracer.end(root);
    out.extend(front_end_metrics(tracer));
    out.push((
        "sched.roundtrip_us",
        span_median(tracer, "sched.roundtrip", 1e6),
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn cfg(seed: u64) -> Config {
        Config {
            seed,
            seconds: 0.0,
            smoke: true,
            scratch: PathBuf::new(),
        }
    }

    #[test]
    fn stream_and_inserts_are_a_pure_function_of_the_seed() {
        let key = |i: &Inputs| {
            (
                i.ops
                    .iter()
                    .map(|o| (o.tenant, o.priority, o.sql.clone()))
                    .collect::<Vec<_>>(),
                i.inserts.clone(),
            )
        };
        let a = Inputs::new(&cfg(11)).unwrap();
        assert_eq!(key(&a), key(&Inputs::new(&cfg(11)).unwrap()));
        assert_ne!(key(&a), key(&Inputs::new(&cfg(12)).unwrap()));
        assert_eq!(a.ops.len(), STATEMENTS / 10);
        assert!(a.inserts.len() >= a.ops.len() / INSERT_EVERY);
    }
}
