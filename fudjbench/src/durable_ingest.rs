//! `durable_ingest`: the write side of `storage` with a read in the same
//! round, so a write-path gain that taxes reads shows.
//!
//! Flush policy, the same on every commit: `SET durability = 64` (fsync
//! every 64 WAL records) plus one explicit flush when the ingest ends. A
//! round is: `insert_all` a million `kv(id, tag)` rows in 500-row batches,
//! flush, aggregate them with the WAL open, drop the session, reopen the
//! directory (WAL replay) and `persist()` a snapshot. Timings are the
//! sandbox's page cache and fsync, not a device's.

use crate::harness::{
    engine_metrics, front_end_metrics, overhead_share, plan_options, query, replay_tables,
    run_rounds, set_up_repeatedly, sorted_rows, timed, trace_front_end, Checks, Config, Measured,
    Round, Strategy, WORKERS,
};
use crate::stats::median;
use crate::trace::Tracer;
use fudj_exec::MetricsSnapshot;
use fudj_sql::Session;
use fudj_storage::snapshot::wal_name;
use fudj_storage::wal::encode_frame;
use fudj_storage::{
    replay_wal, Dataset, DatasetBuilder, DurabilityStats, FaultFs, StorageFaultConfig, WalRecord,
};
use fudj_types::{wire, DataType, Field, FudjError, Result, Row, Schema, Value};
use std::hint::black_box;
use std::path::{Path, PathBuf};

const ROWS: usize = 1_000_000;
const BATCH: usize = 500;
const TAGS: u64 = 7;
const SYNC_EVERY: u64 = 64;
/// Rows of the crash pass on the simulated disk.
const CRASH_ROWS: usize = 20_000;
const READ: &str = "SELECT k.tag, COUNT(*) AS c FROM kv k GROUP BY k.tag";

/// The generated rows and what the read must return for them.
struct Inputs {
    rows: Vec<Row>,
    /// `(tag, COUNT(*))`, sorted.
    histogram: Vec<Row>,
    /// Wire-encoded size of the rows: the user bytes the WAL is compared to.
    user_bytes: u64,
}

fn generate(rows: usize, seed: u64) -> Inputs {
    let tags: Vec<Value> = (0..TAGS).map(|t| Value::str(format!("t{t}"))).collect();
    let mut counts = vec![0i64; TAGS as usize];
    let mut state = seed | 1;
    let rows: Vec<Row> = (0..rows)
        .map(|id| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let tag = (state % TAGS) as usize;
            counts[tag] += 1;
            Row::new(vec![Value::Int64(id as i64), tags[tag].clone()])
        })
        .collect();
    let mut encoded = bytes::BytesMut::new();
    for row in &rows {
        wire::encode_row(row, &mut encoded);
    }
    let mut histogram: Vec<Row> = tags
        .iter()
        .zip(&counts)
        .filter(|(_, &c)| c > 0)
        .map(|(tag, &c)| Row::new(vec![tag.clone(), Value::Int64(c)]))
        .collect();
    histogram.sort();
    Inputs {
        rows,
        histogram,
        user_bytes: encoded.len() as u64,
    }
}

/// Session with the empty `kv` table; `durable` opens the WAL at `dir`
/// first, so the DDL is logged.
fn open_session(dir: Option<&Path>) -> Result<Session> {
    let session = Session::new(WORKERS);
    if let Some(dir) = dir {
        session.execute(&format!("SET durability = {SYNC_EVERY}"))?;
        session.execute(&format!("SET wal_dir = '{}'", dir.display()))?;
    }
    session.register_dataset(kv_table()?)?;
    Ok(session)
}

/// The empty `kv(id, tag)` table.
fn kv_table() -> Result<Dataset> {
    let schema = Schema::shared(vec![
        Field::new("id", DataType::Int64),
        Field::new("tag", DataType::String),
    ]);
    DatasetBuilder::new("kv", schema)
        .primary_key("id")
        .partitions(WORKERS)
        .build()
}

fn remove_dir(dir: &Path) -> Result<()> {
    std::fs::remove_dir_all(dir)
        .map_err(|e| FudjError::Storage(format!("removing {}: {e}", dir.display())))
}

/// `insert_all` every batch, one span each; no flush.
fn ingest(session: &Session, rows: &[Row], tracer: &mut Tracer) -> Result<()> {
    let kv = session.catalog().get("kv")?;
    for batch in rows.chunks(BATCH) {
        let open = tracer.begin("storage.insert_all");
        let inserted = kv.insert_all(batch.iter().cloned());
        tracer.end(open);
        inserted?;
    }
    Ok(())
}

/// What one round measured besides the [`Round`] itself.
struct RoundDetail {
    round: Round,
    ingest_s: f64,
    recovery_s: f64,
    snapshot_s: f64,
    /// Counters of the ingesting store, read before it was dropped.
    ingested: DurabilityStats,
    /// Counters of the reopened store after `persist()`.
    reopened: DurabilityStats,
    read_metrics: MetricsSnapshot,
}

struct DurableBench {
    inputs: Inputs,
    scratch: PathBuf,
    rounds_run: usize,
    /// `(wal_bytes_appended, wal_fsyncs)` of the first round.
    pins: Option<(u64, u64)>,
}

impl DurableBench {
    fn new(cfg: &Config) -> DurableBench {
        DurableBench {
            inputs: generate(cfg.scaled(ROWS), cfg.seed_for(90)),
            scratch: cfg.scratch.clone(),
            rounds_run: 0,
            pins: None,
        }
    }

    fn round(&mut self, i: usize, checks: &mut Checks, tracer: &mut Tracer) -> Result<RoundDetail> {
        let dir = self.scratch.join(format!("wal-{}", self.rounds_run));
        self.rounds_run += 1;
        let mut session = open_session(Some(&dir))?;
        let store = session
            .durable()
            .ok_or_else(|| FudjError::Storage("SET wal_dir left no store open".into()))?;

        let open = tracer.begin_op("storage.ingest");
        ingest(&session, &self.inputs.rows, tracer)?;
        tracer.time("storage.flush", || store.flush())?;
        let ingest_s = tracer.end(open);

        let mut seconds = [0.0; 2];
        let mut read_metrics = None;
        for strategy in Strategy::pair_order(i) {
            session.set_options(plan_options(strategy, Vec::new()));
            let (batch, metrics, s) = query(&session, READ, tracer)?;
            seconds[strategy as usize] = s;
            checks.check(sorted_rows(&batch) == self.inputs.histogram, || {
                format!("round {i}: {strategy:?} read returned a wrong tag histogram")
            });
            if strategy == Strategy::Fudj {
                read_metrics = Some(metrics);
            }
        }
        let ingested = store.stats();
        let pins = (ingested.wal_bytes_appended, ingested.wal_fsyncs);
        let first = *self.pins.get_or_insert(pins);
        checks.check(first == pins, || {
            format!("(wal bytes, fsyncs) changed between rounds: {first:?} then {pins:?}")
        });

        // The "process" goes away; a new one recovers from the directory.
        let open = tracer.begin_op("storage.reopen");
        drop(store);
        drop(session);
        let reopened = Session::new(WORKERS);
        reopened.execute(&format!("SET wal_dir = '{}'", dir.display()))?;
        let recovered_rows = reopened.catalog().get("kv")?.len();
        let recovery_s = tracer.end(open);
        let open = tracer.begin_op("storage.snapshot");
        reopened.persist()?;
        let snapshot_s = tracer.end(open);

        let recovered = reopened.query(READ)?;
        checks.check(
            recovered_rows == self.inputs.rows.len()
                && sorted_rows(&recovered) == self.inputs.histogram,
            || {
                format!(
                    "round {i}: reopened store holds {recovered_rows} rows or a wrong histogram"
                )
            },
        );
        let reopened_stats = reopened.durable().map(|s| s.stats()).unwrap_or_default();
        drop(reopened);
        remove_dir(&dir)?;

        let [fudj_s, builtin_s] = seconds;
        Ok(RoundDetail {
            round: Round {
                fudj_s,
                builtin_s,
                wall_s: ingest_s + fudj_s + builtin_s + recovery_s + snapshot_s,
                units: self.inputs.rows.len() as f64,
            },
            ingest_s,
            recovery_s,
            snapshot_s,
            ingested,
            reopened: reopened_stats,
            read_metrics: read_metrics.expect("the FUDJ-strategy read ran"),
        })
    }
}

/// Durability on a disk that loses unflushed bytes: ingest on `FaultFs`,
/// flush half way, crash at a later append, reopen. Every batch flushed
/// before the crash must be there, whole; nothing torn may be.
fn crash_pass(cfg: &Config, checks: &mut Checks) -> Result<()> {
    let inputs = generate(cfg.scaled(CRASH_ROWS).max(4 * BATCH), cfg.seed_for(91));
    let batches = inputs.rows.len() / BATCH;
    let flushed = batches / 2;
    // Append 1 is the table's DDL, so append `n + 1` is batch `n`.
    let crash_batch = flushed + (batches - flushed) * 3 / 4;
    let fs = FaultFs::new(StorageFaultConfig::crash_at(
        cfg.seed_for(92),
        "wal:append",
        crash_batch as u64 + 1,
    ));
    let dir = "/fudjbench-crash";
    let session = Session::new(WORKERS);
    session.execute(&format!("SET durability = {SYNC_EVERY}"))?;
    session.open_wal_with(dir, fs.clone())?;
    let kv = session.register_dataset(kv_table()?)?;
    let mut acknowledged = 0;
    let mut crashed = false;
    for (n, batch) in inputs.rows.chunks(BATCH).enumerate() {
        if n == flushed {
            session.durable().expect("store is open").flush()?;
        }
        match kv.insert_all(batch.iter().cloned()) {
            Ok(()) => acknowledged += 1,
            Err(FudjError::Crash(_)) => {
                crashed = true;
                break;
            }
            Err(e) => return Err(e),
        }
    }
    drop(session);
    fs.reopen_after_crash();
    let recovered = Session::new(WORKERS);
    recovered.open_wal_with(dir, fs)?;
    let rows = recovered.catalog().get("kv")?.len();
    checks.check(
        crashed
            && rows % BATCH == 0
            && rows >= flushed * BATCH
            && rows <= (acknowledged + 1) * BATCH,
        || {
            format!(
                "crash pass: crashed={crashed}, {rows} rows recovered, {flushed} batches flushed, \
                 {acknowledged} acknowledged"
            )
        },
    );
    Ok(())
}

pub fn run(cfg: &Config, checks: &mut Checks) -> Result<Measured> {
    // Set-up is the generated rows plus a session with the WAL open and
    // the table created.
    let (mut bench, setup_s) = set_up_repeatedly(|i| {
        let bench = DurableBench::new(cfg);
        open_session(Some(&cfg.scratch.join(format!("setup-{i}"))))?;
        Ok(bench)
    })?;
    let mut measured = Measured {
        setup_s,
        rounds: Vec::new(),
    };
    let mut off = Tracer::new(false);

    bench.round(0, &mut Checks::default(), &mut off)?;
    bench.pins = None;
    run_rounds(cfg.seconds, cfg.min_rounds(), |i| {
        measured
            .rounds
            .push(bench.round(i, checks, &mut off)?.round);
        Ok(())
    })?;
    crash_pass(cfg, checks)?;
    Ok(measured)
}

/// WAL encode and replay on their own: every batch framed as the store
/// frames it, and the log one round produced replayed from its bytes.
fn replay_wal_codec(
    bench: &DurableBench,
    tracer: &mut Tracer,
    out: &mut Vec<(&'static str, f64)>,
) -> Result<()> {
    let rows = bench.inputs.rows.len() as f64;
    let open = tracer.begin("storage.encode_frame");
    for (seq, batch) in bench.inputs.rows.chunks(BATCH).enumerate() {
        black_box(encode_frame(
            seq as u64,
            &WalRecord::Append {
                table: "kv".into(),
                rows: batch.to_vec(),
            },
        ));
    }
    out.push((
        "storage.encode_frame_ns_per_row",
        tracer.end(open) * 1e9 / rows,
    ));

    let dir = bench.scratch.join("replay");
    let session = open_session(Some(&dir))?;
    ingest(&session, &bench.inputs.rows, &mut Tracer::new(false))?;
    let store = session.durable().expect("store is open");
    store.flush()?;
    let log = store.vfs().read(&dir.join(wal_name(store.version())))?;
    let open = tracer.begin("storage.replay_wal");
    let replayed = replay_wal(&log);
    let replay_s = tracer.end(open);
    if replayed.torn_tail || replayed.records.len() != bench.inputs.rows.len().div_ceil(BATCH) + 1 {
        return Err(FudjError::Storage(format!(
            "replaying a clean log gave {} records, torn={}",
            replayed.records.len(),
            replayed.torn_tail
        )));
    }
    out.push(("storage.replay_wal_ns_per_row", replay_s * 1e9 / rows));
    replay_tables(&session, &["kv"], tracer, out)?;
    drop(session);
    remove_dir(&dir)
}

pub fn run_traced(
    cfg: &Config,
    checks: &mut Checks,
    tracer: &mut Tracer,
) -> Result<Vec<(&'static str, f64)>> {
    let (bench, setup_s) = timed(|| DurableBench::new(cfg));
    let mut bench = bench;
    let rows = bench.inputs.rows.len() as f64;
    let mut out = vec![("datagen.rows_per_s", rows / setup_s)];
    let mut off = Tracer::new(false);

    bench.round(0, &mut Checks::default(), &mut off)?;
    bench.pins = None;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    run_rounds(cfg.seconds * 0.4, cfg.min_rounds().min(3), |i| {
        untraced.push(bench.round(2 * i, checks, &mut off)?.round.wall_s);
        traced.push(bench.round(2 * i + 1, checks, tracer)?);
        Ok(())
    })?;
    let walls: Vec<f64> = traced.iter().map(|d| d.round.wall_s).collect();
    let med = |f: fn(&RoundDetail) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let last = traced.last().expect("at least one traced round");
    out.extend([
        ("trace.overhead_share", overhead_share(&walls, &untraced)),
        ("storage.ingest_rows_per_s", rows / med(|d| d.ingest_s)),
        ("storage.recovery_s", med(|d| d.recovery_s)),
        ("storage.snapshot_s", med(|d| d.snapshot_s)),
        (
            "storage.wal_bytes_per_user_byte",
            last.ingested.wal_bytes_appended as f64 / bench.inputs.user_bytes as f64,
        ),
        (
            "storage.wal_bytes_appended",
            last.ingested.wal_bytes_appended as f64,
        ),
        ("storage.fsyncs", last.ingested.wal_fsyncs as f64),
        (
            "storage.snapshot_bytes",
            last.reopened.snapshot_bytes_written as f64,
        ),
        (
            "storage.insert_all_us_per_batch",
            crate::harness::span_median(tracer, "storage.insert_all", 1e6),
        ),
    ]);
    checks.check(
        last.reopened.rows_replayed == bench.inputs.rows.len() as u64,
        || format!("reopen replayed {} rows", last.reopened.rows_replayed),
    );
    out.extend(engine_metrics(&last.read_metrics));

    let root = tracer.begin_op("replay");
    // The same ingest loop with no store behind the table.
    let plain = open_session(None)?;
    let open = tracer.begin("storage.ingest_no_wal");
    ingest(&plain, &bench.inputs.rows, &mut off)?;
    let plain_s = tracer.end(open);
    out.push(("storage.wal_tax", med(|d| d.ingest_s) / plain_s));

    // The read with the query journal armed over an open WAL, against the
    // same read without it.
    let dir = bench.scratch.join("journal");
    let journaled = open_session(Some(&dir))?;
    ingest(&journaled, &bench.inputs.rows, &mut off)?;
    let read = |tracer: &mut Tracer, name: &'static str| -> Result<f64> {
        let mut samples = Vec::new();
        for _ in 0..5 {
            let open = tracer.begin(name);
            let result = journaled.query(READ);
            samples.push(tracer.end(open));
            result?;
        }
        Ok(median(&samples))
    };
    let plain_read_s = read(tracer, "storage.read_plain")?;
    journaled.execute("SET checkpoint_durable = on")?;
    let journaled_read_s = read(tracer, "storage.read_journaled")?;
    out.push(("storage.journal_tax", journaled_read_s / plain_read_s));
    drop(journaled);
    remove_dir(&dir)?;

    trace_front_end(&plain, &[READ.to_owned()], tracer)?;
    replay_wal_codec(&bench, tracer, &mut out)?;
    tracer.end(root);

    out.extend(front_end_metrics(tracer));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_rows_are_a_pure_function_of_the_seed() {
        let a = generate(2_000, 5);
        let b = generate(2_000, 5);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.histogram, b.histogram);
        assert_ne!(a.rows, generate(2_000, 6).rows);
        let counted: i64 = a.histogram.iter().map(|r| r.get(1).as_i64().unwrap()).sum();
        assert_eq!(counted, 2_000);
        assert!(a.user_bytes > 2_000 * 8);
    }
}
