//! The three join workloads — `spatial_join`, `interval_join`,
//! `text_join` — and their layer breakdown.
//!
//! A round is the workload's query once under the FUDJ strategy and once
//! under the built-in operator, on the same session, in alternating order.

use crate::harness::{
    engine_metrics, front_end_metrics, overhead_share, per, plan_options, query, ratio,
    replay_tables, run_rounds, set_up_repeatedly, sorted_rows, timed, trace_front_end, Checks,
    Config, JoinDef, Measured, Round, Strategy, INTERVAL, SPATIAL, TEXT, WORKERS,
};
use crate::trace::Tracer;
use fudj_core::standalone::run_standalone;
use fudj_core::{BucketId, DedupMode, EngineJoin, FudjEngineJoin, JoinAlgorithm, PPlanState, Side};
use fudj_datagen::{amazon_reviews, nyctaxi, parks, wildfires, GeneratorConfig};
use fudj_exec::MetricsSnapshot;
use fudj_geo::{Rect, UniformGrid};
use fudj_joins::standard_library;
use fudj_sql::Session;
use fudj_storage::Dataset;
use fudj_types::{ext, ExtValue, FudjError, Result, Row, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;

/// Records of the standalone cross-check's inputs.
const STANDALONE_RECORDS: usize = 2_000;
/// Candidate pairs `verify` and `dedup` are timed over.
const CANDIDATE_PAIRS: usize = 200_000;
/// Grid side passed to the spatial join's `divide`.
const SPATIAL_GRID: i64 = 64;
const TEXT_THRESHOLD: f64 = 0.9;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Spatial,
    Interval,
    Text,
}

impl Kind {
    /// Input records at full scale.
    fn records(self) -> usize {
        match self {
            Kind::Spatial => 60_000,
            Kind::Interval => 100_000,
            Kind::Text => 30_000,
        }
    }

    fn join(self) -> &'static JoinDef {
        match self {
            Kind::Spatial => &SPATIAL,
            Kind::Interval => &INTERVAL,
            Kind::Text => &TEXT,
        }
    }

    /// Query 5 of the paper on the synthetic schemas.
    fn sql(self) -> String {
        match self {
            Kind::Spatial => "SELECT p.id, COUNT(*) AS c FROM Parks p, Wildfires w \
                              WHERE st_contains(p.boundary, w.location) GROUP BY p.id"
                .to_owned(),
            Kind::Interval => "SELECT COUNT(*) FROM NYCTaxi n1, NYCTaxi n2 \
                               WHERE n1.Vendor = 1 AND n2.Vendor = 2 \
                                 AND overlapping_interval(n1.ride_interval, n2.ride_interval)"
                .to_owned(),
            Kind::Text => format!(
                "SELECT COUNT(*) FROM AmazonReview r1, AmazonReview r2 \
                 WHERE r1.overall = 5 AND r2.overall = 4 \
                   AND similarity_jaccard(r1.review, r2.review) >= {TEXT_THRESHOLD}"
            ),
        }
    }

    /// Parameters the planner appends to the query's own for `divide`.
    fn extra_join_params(self) -> Vec<Value> {
        match self {
            Kind::Spatial => vec![Value::Int64(SPATIAL_GRID)],
            _ => Vec::new(),
        }
    }

    /// Everything `divide` receives: the query's own parameters, then the
    /// planner's extras.
    fn divide_params(self) -> Vec<Value> {
        let mut params = match self {
            Kind::Text => vec![Value::Float64(TEXT_THRESHOLD)],
            _ => Vec::new(),
        };
        params.extend(self.extra_join_params());
        params
    }

    /// The workload's inputs, `records` in total, seeded from the run.
    fn datasets(self, cfg: &Config, records: usize) -> Result<Vec<Dataset>> {
        let gen = |rows, stream| GeneratorConfig::new(rows, cfg.seed_for(stream), WORKERS);
        match self {
            Kind::Spatial => {
                // Parks : Wildfires = 10 : 18, the paper's dataset ratio.
                let parks_n = records * 10 / 28;
                Ok(vec![
                    parks(gen(parks_n, 51))?,
                    wildfires(gen(records - parks_n, 52))?,
                ])
            }
            Kind::Interval => Ok(vec![nyctaxi(gen(records, 53))?]),
            Kind::Text => Ok(vec![amazon_reviews(gen(records, 54))?]),
        }
    }

    /// Join-key columns of the query's two sides, as the engine sees them
    /// after the query's filters.
    fn keys(self, session: &Session) -> Result<Keys> {
        let column = |table: &str, key: usize, keep: &dyn Fn(&Row) -> bool| -> Result<Vec<Value>> {
            Ok(session
                .catalog()
                .get(table)?
                .all_rows()
                .iter()
                .filter(|r| keep(r))
                .map(|r| r.get(key).clone())
                .collect())
        };
        let int_is = |col: usize, want: i64| move |r: &Row| r.get(col) == &Value::Int64(want);
        let (left, right) = match self {
            Kind::Spatial => (
                column("Parks", 1, &|_| true)?,
                column("Wildfires", 1, &|_| true)?,
            ),
            Kind::Interval => (
                column("NYCTaxi", 2, &int_is(1, 1))?,
                column("NYCTaxi", 2, &int_is(1, 2))?,
            ),
            Kind::Text => (
                column("AmazonReview", 2, &int_is(1, 5))?,
                column("AmazonReview", 2, &int_is(1, 4))?,
            ),
        };
        Ok(Keys { left, right })
    }
}

struct Keys {
    left: Vec<Value>,
    right: Vec<Value>,
}

/// Session over the workload's inputs with its join created.
fn session(kind: Kind, cfg: &Config, records: usize) -> Result<Session> {
    let session = Session::new(WORKERS);
    session.install_library(standard_library());
    for dataset in kind.datasets(cfg, records)? {
        session.register_dataset(dataset)?;
    }
    session.execute(kind.join().ddl)?;
    Ok(session)
}

/// Counters that must not change from one op of a run to the next: the
/// query and its inputs are the same, so a difference means the engine or
/// the workload is not deterministic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Pins {
    bytes_shuffled: u64,
    verify_calls: u64,
    dedup_rejections: u64,
}

impl Pins {
    fn of(m: &MetricsSnapshot) -> Pins {
        Pins {
            bytes_shuffled: m.bytes_shuffled,
            verify_calls: m.verify_calls,
            dedup_rejections: m.dedup_rejections,
        }
    }
}

struct JoinBench {
    kind: Kind,
    session: Session,
    sql: String,
    /// First op's counters per strategy.
    pins: [Option<Pins>; 2],
}

impl JoinBench {
    fn new(kind: Kind, cfg: &Config) -> Result<JoinBench> {
        Ok(JoinBench {
            kind,
            session: session(kind, cfg, cfg.scaled(kind.records()))?,
            sql: kind.sql(),
            pins: [None; 2],
        })
    }

    fn select(&mut self, strategy: Strategy) {
        self.session
            .set_options(plan_options(strategy, self.kind.extra_join_params()));
    }

    fn pin(&mut self, strategy: Strategy, m: &MetricsSnapshot, checks: &mut Checks) {
        let pins = Pins::of(m);
        let first = *self.pins[strategy as usize].get_or_insert(pins);
        checks.check(first == pins, || {
            format!("{strategy:?} counters changed between ops: {first:?} then {pins:?}")
        });
    }

    /// One pair: the query under both strategies, rows compared.
    fn round(&mut self, i: usize, checks: &mut Checks) -> Result<Round> {
        let mut off = Tracer::new(false);
        let mut seconds = [0.0; 2];
        let mut rows = [Vec::new(), Vec::new()];
        for strategy in Strategy::pair_order(i) {
            self.select(strategy);
            let (batch, metrics, s) = query(&self.session, &self.sql, &mut off)?;
            seconds[strategy as usize] = s;
            rows[strategy as usize] = sorted_rows(&batch);
            self.pin(strategy, &metrics, checks);
        }
        checks.check(rows[0] == rows[1] && !rows[0].is_empty(), || {
            format!(
                "round {i}: FUDJ returned {} rows, built-in {}, and they must be equal and not empty",
                rows[0].len(),
                rows[1].len()
            )
        });
        let [fudj_s, builtin_s] = seconds;
        Ok(Round {
            fudj_s,
            builtin_s,
            wall_s: fudj_s + builtin_s,
            units: 2.0,
        })
    }
}

/// Distributed FUDJ rows ≡ `run_standalone` pairs on a small input.
fn standalone_check(kind: Kind, cfg: &Config, checks: &mut Checks) -> Result<()> {
    let records = STANDALONE_RECORDS.min(cfg.scaled(kind.records()));
    let mut session = session(kind, cfg, records)?;
    session.set_options(plan_options(Strategy::Fudj, kind.extra_join_params()));
    let engine_rows = sorted_rows(&session.query(&kind.sql())?);

    let keys = kind.keys(&session)?;
    let external = |keys: &[Value]| {
        keys.iter()
            .map(ext::to_external)
            .collect::<Result<Vec<_>>>()
    };
    let definition = session
        .registry()
        .get(kind.join().name)
        .ok_or_else(|| FudjError::Execution(format!("join {} not registered", kind.join().name)))?;
    let pairs = run_standalone(
        definition.algorithm().as_ref(),
        &external(&keys.left)?,
        &external(&keys.right)?,
        &external(&kind.divide_params())?,
    )?;

    let expected = match kind {
        // Grouped by park: the park ids in key order are the Parks rows'.
        Kind::Spatial => {
            let ids: Vec<Value> = session
                .catalog()
                .get("Parks")?
                .all_rows()
                .iter()
                .map(|r| r.get(0).clone())
                .collect();
            let mut counts: BTreeMap<Value, i64> = BTreeMap::new();
            for (l, _) in &pairs {
                *counts.entry(ids[*l].clone()).or_insert(0) += 1;
            }
            counts
                .into_iter()
                .map(|(id, c)| Row::new(vec![id, Value::Int64(c)]))
                .collect()
        }
        _ => vec![Row::new(vec![Value::Int64(pairs.len() as i64)])],
    };
    checks.check(engine_rows == expected, || {
        format!(
            "standalone cross-check on {records} records: engine {} rows, standalone {} rows ({} pairs)",
            engine_rows.len(),
            expected.len(),
            pairs.len()
        )
    });
    Ok(())
}

/// `--trace 0`: set-up, warm-up, timed pairs, cross-check.
pub fn run(kind: Kind, cfg: &Config, checks: &mut Checks) -> Result<Measured> {
    // Set-up is everything before the first warm op: datagen, register,
    // DDL and the first, cold query. On their own the first three take
    // 20 ms, a figure that is bimodal from process to process (15 or 20 ms
    // on one seed), so two sets of runs would not agree on it.
    let (mut bench, setup_s) = set_up_repeatedly(|_| {
        let mut bench = JoinBench::new(kind, cfg)?;
        bench.select(Strategy::Fudj);
        query(&bench.session, &bench.sql, &mut Tracer::new(false))?;
        Ok(bench)
    })?;
    let mut measured = Measured {
        setup_s,
        rounds: Vec::new(),
    };

    bench.round(0, &mut Checks::default())?;
    bench.pins = [None; 2];
    run_rounds(cfg.seconds, cfg.min_rounds(), |i| {
        measured.rounds.push(bench.round(i, checks)?);
        Ok(())
    })?;
    standalone_check(kind, cfg, checks)?;
    Ok(measured)
}

// ---------------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------------

/// Span names of one phase replay.
struct ReplayNames {
    summarize: &'static str,
    divide: &'static str,
    assign: &'static str,
    verify: &'static str,
    dedup: &'static str,
}

const FUDJ_SPANS: ReplayNames = ReplayNames {
    summarize: "core.summarize",
    divide: "core.divide",
    assign: "core.assign",
    verify: "core.verify",
    dedup: "core.dedup",
};

const BUILTIN_SPANS: ReplayNames = ReplayNames {
    summarize: "joins.builtin_summarize",
    divide: "joins.builtin_divide",
    assign: "joins.builtin_assign",
    verify: "joins.builtin_verify",
    dedup: "joins.builtin_dedup",
};

/// A same-bucket (or matching-bucket) record pair: what COMBINE hands to
/// `verify`.
#[derive(Clone, Copy)]
struct Candidate {
    b1: BucketId,
    left: usize,
    b2: BucketId,
    right: usize,
}

struct Replayed {
    summarize_ns_per_key: f64,
    divide_us: f64,
    assign_ns_per_key: f64,
    fanout: f64,
    verify_ns_per_call: f64,
    dedup_ns_per_call: f64,
    dedup_calls: usize,
    pplan: PPlanState,
    candidates: Vec<Candidate>,
}

/// Seeded sample of candidate pairs from the assigned buckets.
fn sample_candidates(
    join: &dyn EngineJoin,
    left: &[Vec<BucketId>],
    right: &[Vec<BucketId>],
    seed: u64,
    target: usize,
) -> Vec<Candidate> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(target);
    if left.is_empty() || right.is_empty() {
        return out;
    }
    let pick = |rng: &mut SmallRng, buckets: &[Vec<BucketId>]| {
        let i = rng.gen_range(0..buckets.len());
        let b = &buckets[i];
        (!b.is_empty()).then(|| (b[rng.gen_range(0..b.len())], i))
    };
    if join.uses_default_match() {
        // Equality matching: index the right side by bucket.
        let mut by_bucket: HashMap<BucketId, Vec<usize>> = HashMap::new();
        for (i, buckets) in right.iter().enumerate() {
            for &b in buckets {
                by_bucket.entry(b).or_default().push(i);
            }
        }
        for _ in 0..target * 8 {
            if out.len() == target {
                break;
            }
            let Some((b, l)) = pick(&mut rng, left) else {
                continue;
            };
            if let Some(rs) = by_bucket.get(&b) {
                let r = rs[rng.gen_range(0..rs.len())];
                out.push(Candidate {
                    b1: b,
                    left: l,
                    b2: b,
                    right: r,
                });
            }
        }
    } else {
        // Theta matching: rejection-sample bucket pairs through `matches`.
        for _ in 0..target * 100 {
            if out.len() == target {
                break;
            }
            let (Some((b1, l)), Some((b2, r))) = (pick(&mut rng, left), pick(&mut rng, right))
            else {
                continue;
            };
            if join.matches(b1, b2) {
                out.push(Candidate {
                    b1,
                    left: l,
                    b2,
                    right: r,
                });
            }
        }
    }
    out
}

/// Drive one strategy through SUMMARIZE, DIVIDE, PARTITION and the two
/// COMBINE predicates on the workload's own keys, phase by phase.
fn replay(
    join: &dyn EngineJoin,
    keys: &Keys,
    params: &[Value],
    seed: u64,
    candidate_pairs: usize,
    names: &ReplayNames,
    tracer: &mut Tracer,
) -> Result<Replayed> {
    let key_count = keys.left.len() + keys.right.len();

    // Two partial summaries per side, merged, as two workers would.
    let open = tracer.begin(names.summarize);
    let mut summaries = Vec::new();
    for (side, side_keys) in [(Side::Left, &keys.left), (Side::Right, &keys.right)] {
        let (a, b) = side_keys.split_at(side_keys.len() / 2);
        let mut partials = Vec::new();
        for half in [a, b] {
            let mut summary = join.new_summary(side);
            for key in half {
                join.local_aggregate(side, key, &mut summary)?;
            }
            partials.push(summary);
        }
        let second = partials.pop().expect("two partials");
        let first = partials.pop().expect("two partials");
        summaries.push(join.global_aggregate(side, first, second)?);
    }
    let summarize_s = tracer.end(open);

    let open = tracer.begin(names.divide);
    let pplan = join.divide(&summaries[0], &summaries[1], params)?;
    let divide_s = tracer.end(open);

    let open = tracer.begin(names.assign);
    let mut assigned = Vec::new();
    for (side, side_keys) in [(Side::Left, &keys.left), (Side::Right, &keys.right)] {
        let mut per_key: Vec<Vec<BucketId>> = Vec::with_capacity(side_keys.len());
        let mut out = Vec::new();
        for key in side_keys {
            out.clear();
            join.assign(side, key, &pplan, &mut out)?;
            per_key.push(out.clone());
        }
        assigned.push(per_key);
    }
    let assign_s = tracer.end(open);
    let bucket_ids: usize = assigned.iter().flatten().map(Vec::len).sum();

    let candidates = sample_candidates(join, &assigned[0], &assigned[1], seed, candidate_pairs);
    let open = tracer.begin(names.verify);
    for c in &candidates {
        black_box(join.verify(c.b1, &keys.left[c.left], c.b2, &keys.right[c.right], &pplan)?);
    }
    let verify_s = tracer.end(open);
    // A single-assign join has no duplicates and the engine never asks.
    let dedups = if join.dedup_mode() == DedupMode::None {
        &[][..]
    } else {
        &candidates[..]
    };
    let open = tracer.begin(names.dedup);
    for c in dedups {
        black_box(join.dedup(c.b1, &keys.left[c.left], c.b2, &keys.right[c.right], &pplan)?);
    }
    let dedup_s = tracer.end(open);

    Ok(Replayed {
        summarize_ns_per_key: per(summarize_s, key_count),
        divide_us: divide_s * 1e6,
        assign_ns_per_key: per(assign_s, key_count),
        fanout: if key_count == 0 {
            0.0
        } else {
            bucket_ids as f64 / key_count as f64
        },
        verify_ns_per_call: per(verify_s, candidates.len()),
        dedup_ns_per_call: per(dedup_s, dedups.len()),
        dedup_calls: dedups.len(),
        pplan,
        candidates,
    })
}

/// The library called directly on pre-translated keys: what is left of
/// the `core.*` cost once proxy and translation are taken away.
fn replay_udf(
    algorithm: &dyn JoinAlgorithm,
    keys: &Keys,
    fudj: &Replayed,
    tracer: &mut Tracer,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<()> {
    let open = tracer.begin("types.to_external");
    let left: Vec<ExtValue> = keys
        .left
        .iter()
        .map(ext::to_external)
        .collect::<Result<_>>()?;
    let right: Vec<ExtValue> = keys
        .right
        .iter()
        .map(ext::to_external)
        .collect::<Result<_>>()?;
    let translate_s = tracer.end(open);
    let key_count = left.len() + right.len();
    out.push(("types.to_external_ns_per_key", per(translate_s, key_count)));

    let open = tracer.begin("joins.udf_assign");
    let mut buckets = Vec::new();
    for (side, side_keys) in [(Side::Left, &left), (Side::Right, &right)] {
        for key in side_keys {
            buckets.clear();
            algorithm.assign(side, key, &fudj.pplan, &mut buckets)?;
            black_box(&buckets);
        }
    }
    out.push((
        "joins.udf_assign_ns_per_key",
        per(tracer.end(open), key_count),
    ));

    let open = tracer.begin("joins.udf_verify");
    for c in &fudj.candidates {
        black_box(algorithm.verify(c.b1, &left[c.left], c.b2, &right[c.right], &fudj.pplan)?);
    }
    out.push((
        "joins.udf_verify_ns_per_call",
        per(tracer.end(open), fudj.candidates.len()),
    ));
    Ok(())
}

/// The leaf functions both strategies end up in, on the workload's keys.
fn replay_kernels(
    kind: Kind,
    keys: &Keys,
    candidates: &[Candidate],
    tracer: &mut Tracer,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<()> {
    match kind {
        Kind::Spatial => {
            let open = tracer.begin("geo.contains_point");
            for c in candidates {
                let polygon = keys.left[c.left].as_polygon()?;
                black_box(polygon.contains_point(&keys.right[c.right].as_point()?));
            }
            out.push((
                "geo.contains_point_ns",
                per(tracer.end(open), candidates.len()),
            ));

            let mbrs: Vec<Rect> = keys
                .left
                .iter()
                .map(|k| k.as_polygon().map(|p| p.mbr()))
                .collect::<Result<_>>()?;
            let extent = mbrs.iter().fold(Rect::empty(), |acc, r| acc.union(r));
            let grid = UniformGrid::new(extent, SPATIAL_GRID as u32);
            let open = tracer.begin("geo.overlapping_tiles");
            for mbr in &mbrs {
                black_box(grid.overlapping_tiles(mbr));
            }
            out.push((
                "geo.overlapping_tiles_ns",
                per(tracer.end(open), mbrs.len()),
            ));
        }
        Kind::Interval => {
            let open = tracer.begin("temporal.overlaps");
            for c in candidates {
                let a = keys.left[c.left].as_interval()?;
                black_box(a.overlaps(&keys.right[c.right].as_interval()?));
            }
            out.push((
                "temporal.overlaps_ns",
                per(tracer.end(open), candidates.len()),
            ));
        }
        Kind::Text => {
            let open = tracer.begin("textutil.token_set");
            let tokens = |side: &[Value]| -> Result<Vec<Vec<String>>> {
                side.iter()
                    .map(|k| Ok(fudj_text::token_set(k.as_str()?)))
                    .collect()
            };
            let left = tokens(&keys.left)?;
            let right = tokens(&keys.right)?;
            out.push((
                "textutil.token_set_ns_per_doc",
                per(tracer.end(open), left.len() + right.len()),
            ));
            let open = tracer.begin("textutil.jaccard");
            for c in candidates {
                black_box(fudj_text::jaccard_of_sorted(&left[c.left], &right[c.right]));
            }
            out.push((
                "textutil.jaccard_ns_per_pair",
                per(tracer.end(open), candidates.len()),
            ));
        }
    }
    Ok(())
}

/// `--trace 1`: untraced ops for the overhead base, traced ops, then the
/// phase replay and kernels under a `replay` root span.
pub fn run_traced(
    kind: Kind,
    cfg: &Config,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> Result<Vec<(&'static str, f64)>> {
    let (bench, setup_s) = timed(|| JoinBench::new(kind, cfg));
    let mut bench = bench?;
    let records = cfg.scaled(kind.records());
    let mut out = vec![("datagen.rows_per_s", records as f64 / setup_s)];

    bench.select(Strategy::Fudj);
    let sql = bench.sql.clone();
    let mut off = Tracer::new(false);
    query(&bench.session, &sql, &mut off)?;
    // Untraced and traced ops alternate, so both see the same machine.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    run_rounds(cfg.seconds * 0.4, cfg.min_rounds(), |_| {
        let (_, metrics, s) = query(&bench.session, &sql, &mut off)?;
        bench.pin(Strategy::Fudj, &metrics, checks);
        untraced.push(s);
        let (_, metrics, s) = query(&bench.session, &sql, tracer)?;
        bench.pin(Strategy::Fudj, &metrics, checks);
        traced.push(s);
        last = Some(metrics);
        Ok(())
    })?;
    out.push(("trace.overhead_share", overhead_share(&traced, &untraced)));
    out.extend(engine_metrics(&last.expect("at least one traced op")));

    let root = tracer.begin_op("replay");
    let session = &bench.session;
    trace_front_end(session, std::slice::from_ref(&sql), tracer)?;
    let keys = kind.keys(session)?;
    let params = kind.divide_params();
    let definition = session
        .registry()
        .get(kind.join().name)
        .ok_or_else(|| FudjError::Execution(format!("join {} not registered", kind.join().name)))?;
    let adapter = FudjEngineJoin::new(definition.algorithm().clone());
    let seed = cfg.seed_for(60);
    let pairs = cfg.scaled(CANDIDATE_PAIRS);
    let fudj = replay(&adapter, &keys, &params, seed, pairs, &FUDJ_SPANS, tracer)?;
    // Translations of SUMMARIZE and PARTITION: the total less the two per
    // `verify` and per `dedup` call and the one per `divide` parameter.
    let key_count = (keys.left.len() + keys.right.len()) as f64;
    let phase_translations = adapter.translation_count() as f64
        - 2.0 * (fudj.candidates.len() + fudj.dedup_calls) as f64
        - params.len() as f64;
    let builtin = replay(
        (kind.join().builtin)().as_ref(),
        &keys,
        &params,
        seed,
        pairs,
        &BUILTIN_SPANS,
        tracer,
    )?;
    out.extend([
        ("core.summarize_ns_per_key", fudj.summarize_ns_per_key),
        ("core.divide_us", fudj.divide_us),
        ("core.assign_ns_per_key", fudj.assign_ns_per_key),
        ("core.assign_fanout", fudj.fanout),
        ("core.verify_ns_per_call", fudj.verify_ns_per_call),
        ("core.dedup_ns_per_call", fudj.dedup_ns_per_call),
        (
            "core.translations_per_key",
            ratio(phase_translations, key_count),
        ),
        (
            "joins.builtin_summarize_ns_per_key",
            builtin.summarize_ns_per_key,
        ),
        ("joins.builtin_assign_ns_per_key", builtin.assign_ns_per_key),
        (
            "joins.builtin_verify_ns_per_call",
            builtin.verify_ns_per_call,
        ),
        (
            "core.summarize_over_builtin",
            ratio(fudj.summarize_ns_per_key, builtin.summarize_ns_per_key),
        ),
        (
            "core.assign_over_builtin",
            ratio(fudj.assign_ns_per_key, builtin.assign_ns_per_key),
        ),
        (
            "core.verify_over_builtin",
            ratio(fudj.verify_ns_per_call, builtin.verify_ns_per_call),
        ),
    ]);
    checks.check(fudj.fanout == builtin.fanout, || {
        format!(
            "assign fan-out differs: FUDJ {} vs built-in {}",
            fudj.fanout, builtin.fanout
        )
    });
    replay_udf(
        definition.algorithm().as_ref(),
        &keys,
        &fudj,
        tracer,
        &mut out,
    )?;
    replay_kernels(kind, &keys, &fudj.candidates, tracer, &mut out)?;
    let tables: &[&str] = match kind {
        Kind::Spatial => &["Parks", "Wildfires"],
        Kind::Interval => &["NYCTaxi"],
        Kind::Text => &["AmazonReview"],
    };
    replay_tables(session, tables, tracer, &mut out)?;
    tracer.end(root);

    out.extend(front_end_metrics(tracer));
    Ok(out)
}
