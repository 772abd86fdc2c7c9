//! The cluster executor.

use crate::aggregate::Accumulator;
use crate::columnar;
use crate::exchange;
use crate::metrics::QueryMetrics;
use crate::mode::ExecMode;
use crate::plan::{AggFunc, Aggregate, PhysicalPlan, SortKey};
use crate::pool::WorkerPool;
use crate::recovery::{self, ClusterRecovery, Membership, WorkerInfo};
use fudj_storage::CheckpointStore;
use fudj_types::{Batch, DataType, FudjError, Result, Row, Schema, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Rows, one vector per worker — the unit of data flow between operators.
pub type PartitionedData = Vec<Vec<Row>>;

/// A simulated shared-nothing cluster: `workers` nodes, each a persistent
/// [`WorkerPool`] thread spawned once here and reused by every phase of
/// every query, optionally connected by a
/// [`crate::metrics::NetworkModel`] that charges wall-clock time for
/// exchanged bytes. Cloning a `Cluster` shares the pool — clones are the
/// same simulated cluster, not a new one.
#[derive(Clone, Debug)]
pub struct Cluster {
    workers: usize,
    network: Option<crate::metrics::NetworkModel>,
    faults: Option<fudj_core::FaultConfig>,
    pool: Arc<WorkerPool>,
    recovery: Arc<ClusterRecovery>,
    pub(crate) spill: Arc<crate::spill::SpillDir>,
}

/// What one execution carries besides its plan. The default is a plain
/// run: nobody can cancel it, nothing gates its batches, nothing is
/// journaled.
#[derive(Default)]
pub struct ExecOptions {
    /// Evaluation strategy; `None` is the process default,
    /// [`ExecMode::from_env`] (columnar unless `FUDJ_EXEC_MODE=row`) —
    /// what `SET exec_mode` leaves in place when the session never
    /// touched the knob.
    pub mode: Option<ExecMode>,
    /// The query's cancel token and simulated-clock deadline.
    pub control: Option<Arc<crate::control::QueryControl>>,
    /// The scheduler's dispatch gate, consulted by the pool before every
    /// batch. Only read when `control` is set.
    pub gate: Option<Arc<dyn crate::control::DispatchGate>>,
    /// Crash-tolerance identity of a journaled query: stable checkpoint
    /// namespace, `StageCommitted` journal sink, and — when re-running a
    /// crashed query — the resume point recovered from the journal.
    pub tag: Option<crate::recovery::QueryTag>,
}

impl Cluster {
    /// Cluster with `workers` nodes and a free (zero-cost) network.
    ///
    /// # Panics
    /// Panics when `workers` is zero.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "cluster needs at least one worker");
        Cluster {
            workers,
            network: None,
            faults: None,
            pool: Arc::new(WorkerPool::new(workers)),
            recovery: Arc::new(ClusterRecovery::new(workers)),
            spill: Arc::default(),
        }
    }

    /// Cluster whose queries run under the seeded fault plan `config`:
    /// every query draws a fresh deterministic schedule of injected
    /// failures (and recoveries) from the config's seed.
    pub fn with_faults(workers: usize, config: fudj_core::FaultConfig) -> Self {
        let mut c = Cluster::new(workers);
        c.faults = Some(config);
        c
    }

    /// The directory this cluster's spilling joins write to, once one has
    /// spilled. It holds no files between queries — every spill file is
    /// unlinked when its join finishes or fails — and is removed when the
    /// last clone of the cluster drops.
    pub fn spill_dir(&self) -> Option<std::path::PathBuf> {
        self.spill.path()
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Swap the network model without recreating the cluster — the worker
    /// pool (and thus worker thread identity) is preserved.
    pub fn set_network(&mut self, network: Option<crate::metrics::NetworkModel>) {
        self.network = network;
    }

    /// The armed fault plan, if any.
    pub fn faults(&self) -> Option<fudj_core::FaultConfig> {
        self.faults
    }

    /// Arm (or disarm, with `None`) a seeded fault plan. Like
    /// [`Cluster::set_network`], the worker pool is preserved.
    pub fn set_faults(&mut self, faults: Option<fudj_core::FaultConfig>) {
        self.faults = faults;
    }

    /// The persistent worker pool backing this cluster.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The shared stage-checkpoint store (clones share one store).
    pub fn checkpoints(&self) -> &Arc<CheckpointStore> {
        self.recovery.store()
    }

    /// The shared worker membership (clones share one membership).
    pub fn membership(&self) -> &Arc<Membership> {
        self.recovery.membership()
    }

    /// Checkpoint every stage boundary of every query (`true`), or only
    /// those of journaled queries, which need their frames to resume
    /// (`false`, the default).
    pub fn set_checkpoint_all(&self, all: bool) {
        self.recovery.set_checkpoint_all(all);
    }

    /// Whether every query checkpoints its stage boundaries.
    pub fn checkpoint_all(&self) -> bool {
        self.recovery.checkpoint_all()
    }

    /// Bound the checkpoint store (`None` = unlimited). Shrinking evicts
    /// oldest-first immediately.
    pub fn set_checkpoint_budget(&self, budget_bytes: Option<u64>) {
        self.recovery.store().set_budget(budget_bytes);
    }

    /// Set the per-worker failure-count quarantine threshold (0 disables
    /// the circuit breaker).
    pub fn set_quarantine_threshold(&self, threshold: u64) {
        self.membership().set_quarantine_threshold(threshold);
    }

    /// Administratively remove worker `w` from new task grants. Its
    /// partitions reroute to survivors (rendezvous-hashed, so unaffected
    /// partitions don't move); the pool thread stays parked in its slot.
    pub fn decommission_worker(&self, w: usize) -> Result<()> {
        self.membership().decommission(w)
    }

    /// Bring a replacement worker into the first inactive slot (dead,
    /// quarantined, or decommissioned) and return its id. The pool's
    /// provisioned size is the elasticity ceiling.
    pub fn add_worker(&self) -> Result<usize> {
        self.membership().add()
    }

    /// Per-slot membership state + failure counters, for `\workers`.
    pub fn workers_status(&self) -> Vec<WorkerInfo> {
        self.membership().snapshot()
    }

    /// Execute a plan and gather the result on the coordinator, with no
    /// scheduler control, no crash-tolerance tag and the default
    /// evaluation strategy.
    pub fn execute(&self, plan: &PhysicalPlan) -> Result<(Batch, QueryMetrics)> {
        self.execute_with(plan, ExecOptions::default())
    }

    /// Execute a plan under `opts` (see [`ExecOptions`]); the default
    /// options are exactly [`Cluster::execute`].
    pub fn execute_with(
        &self,
        plan: &PhysicalPlan,
        opts: ExecOptions,
    ) -> Result<(Batch, QueryMetrics)> {
        let mut metrics = QueryMetrics::with_config(self.network, self.faults);
        metrics.set_exec_mode(opts.mode.unwrap_or_else(ExecMode::from_env));
        if let Some(ctrl) = opts.control {
            metrics.attach_control(ctrl, opts.gate);
        }
        if let Some(rec) = self
            .recovery
            .attach(self.faults.as_ref(), opts.tag.as_ref())
        {
            metrics.attach_recovery(rec);
        }
        let rows = (|| {
            let parts = self.execute_partitioned(plan, &metrics)?;
            exchange::gather(parts, &self.pool, &metrics)
        })();
        if let Some(rec) = metrics.recovery() {
            // The query's lineage is complete (or abandoned): its
            // checkpoints can never be needed again.
            rec.finish();
        }
        Ok((Batch::new(plan.schema(), rows?), metrics))
    }

    /// Execute a plan, leaving the result partitioned across workers.
    pub(crate) fn execute_partitioned(
        &self,
        plan: &PhysicalPlan,
        metrics: &QueryMetrics,
    ) -> Result<PartitionedData> {
        match plan {
            PhysicalPlan::Scan { dataset } => {
                // Map storage partitions onto workers round-robin: local
                // disk reads, no network cost. Each worker materializes
                // its own partitions in parallel — the read was serial on
                // the coordinator once, which Amdahl-capped every
                // downstream operator's scaling.
                let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); self.workers];
                for p in 0..dataset.partition_count() {
                    assigned[p % self.workers].push(p);
                }
                self.parallel_map(metrics, assigned, |ps| {
                    let mut rows = Vec::new();
                    for p in ps {
                        rows.extend(dataset.partition_rows(p));
                    }
                    Ok(rows)
                })
            }

            PhysicalPlan::Filter { input, predicate } => {
                let parts = self.execute_partitioned(input, metrics)?;
                self.parallel_map(metrics, parts, |rows| {
                    let mut out = Vec::with_capacity(rows.len() / 2);
                    for row in rows {
                        if predicate(&row)? {
                            out.push(row);
                        }
                    }
                    Ok(out)
                })
            }

            PhysicalPlan::VecFilter { input, compares } => {
                let parts = self.execute_partitioned(input, metrics)?;
                self.parallel_map(metrics, parts, |rows| {
                    Ok(columnar::filter_rows(rows, compares, ExecMode::default()))
                })
            }

            PhysicalPlan::VecProject { input, columns, .. } => {
                let parts = self.execute_partitioned(input, metrics)?;
                self.parallel_map(metrics, parts, |rows| {
                    Ok(columnar::project_rows(rows, columns))
                })
            }

            PhysicalPlan::Project { input, mapper, .. } => {
                let parts = self.execute_partitioned(input, metrics)?;
                self.parallel_map(metrics, parts, |rows| {
                    rows.iter().map(|r| mapper(r)).collect::<Result<Vec<Row>>>()
                })
            }

            PhysicalPlan::FudjJoin(node) => crate::fudj_join::execute(self, node, metrics),

            PhysicalPlan::NlJoin {
                left,
                right,
                predicate,
            } => {
                // On-top plan: broadcast the right side, nested-loop with
                // the UDF predicate on every worker.
                let left_parts = self.execute_partitioned(left, metrics)?;
                let right_parts = self.execute_partitioned(right, metrics)?;
                let right_all = exchange::broadcast(right_parts, &self.pool, metrics)?;
                let zipped: Vec<(Vec<Row>, Vec<Row>)> =
                    left_parts.into_iter().zip(right_all).collect();
                self.parallel_map(metrics, zipped, |(lrows, rrows)| {
                    let mut out = Vec::new();
                    for l in &lrows {
                        for r in &rrows {
                            if predicate(l, r)? {
                                out.push(l.concat(r));
                            }
                        }
                    }
                    Ok(out)
                })
            }

            PhysicalPlan::HashAggregate {
                input,
                group_by,
                aggregates,
                schema,
            } => self.execute_aggregate(input, group_by, aggregates, schema, metrics),

            PhysicalPlan::Sort { input, keys } => {
                let parts = self.execute_partitioned(input, metrics)?;
                let mut rows = exchange::gather(parts, &self.pool, metrics)?;
                sort_rows(&mut rows, keys);
                let mut out: PartitionedData = vec![Vec::new(); self.workers];
                out[0] = rows;
                Ok(out)
            }

            PhysicalPlan::Limit { input, limit } => {
                let parts = self.execute_partitioned(input, metrics)?;
                let mut rows = exchange::gather(parts, &self.pool, metrics)?;
                rows.truncate(*limit);
                let mut out: PartitionedData = vec![Vec::new(); self.workers];
                out[0] = rows;
                Ok(out)
            }
        }
    }

    /// Run `f` over every partition on the persistent worker pool
    /// (partition `i` on worker `i`), charging each worker's busy time to
    /// the metrics' active phase.
    pub(crate) fn parallel_map<T: Send, R: Send>(
        &self,
        metrics: &QueryMetrics,
        parts: Vec<T>,
        f: impl Fn(T) -> Result<R> + Sync,
    ) -> Result<Vec<R>> {
        self.pool
            .run_metered(parts, Some(metrics), |_, part| f(part))
    }

    fn execute_aggregate(
        &self,
        input: &PhysicalPlan,
        group_by: &[usize],
        aggregates: &[Aggregate],
        schema: &Schema,
        metrics: &QueryMetrics,
    ) -> Result<PartitionedData> {
        // Only a SUM cares whether its input is a double, and its output
        // column is one exactly then (`Aggregate::output_type`). The
        // aggregate's own schema says so without building its input's.
        let float_sum: Vec<bool> = aggregates
            .iter()
            .zip(&schema.fields()[group_by.len()..])
            .map(|(a, f)| a.func == AggFunc::Sum && f.data_type == DataType::Float64)
            .collect();
        // Crash-restart resume: a durably committed `agg:shuffle` boundary
        // means the shuffled partials survive on disk — skip input
        // evaluation, partial aggregation, and the shuffle entirely and go
        // straight to merge/finalize. A partly covered boundary falls back
        // to the full path below, which is always correct.
        if let Some(mut datasets) = metrics
            .recovery()
            .and_then(|r| r.try_resume("agg:shuffle", &["partials"], self.workers))
        {
            let shuffled = datasets.pop().unwrap_or_default();
            return self.merge_partials(shuffled, group_by, aggregates, &float_sum, metrics);
        }

        let parts = self.execute_partitioned(input, metrics)?;
        let mode = metrics.exec_mode();

        // Step 1: per-worker partial aggregation.
        let partials = self.parallel_map(metrics, parts, |rows| {
            if mode == ExecMode::Columnar {
                // Typed fast path: single-i64-key grouping with typed
                // accumulation; declines (→ row path) on other shapes.
                if let Some(out) =
                    columnar::partial_aggregate(&rows, group_by, aggregates, &float_sum)
                {
                    return out;
                }
            }
            let mut groups: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
            for row in &rows {
                let key: Vec<Value> = group_by.iter().map(|&i| row.get(i).clone()).collect();
                let accs = groups.entry(key).or_insert_with(|| {
                    aggregates
                        .iter()
                        .zip(&float_sum)
                        .map(|(a, &fs)| Accumulator::new(a, fs))
                        .collect()
                });
                for (acc, agg) in accs.iter_mut().zip(aggregates) {
                    acc.update(agg.input.map(|i| row.get(i)))?;
                }
            }
            // Partial rows: group values then one partial value per agg.
            let mut out = Vec::with_capacity(groups.len());
            for (key, accs) in groups {
                let mut values = key;
                values.extend(accs.iter().map(Accumulator::partial_value));
                out.push(Row::new(values));
            }
            Ok(out)
        })?;

        // Step 2: shuffle partials by group key, merge, finalize.
        let width = group_by.len();
        let router =
            |row: &Row| (exchange::route_hash(&row.values()[..width]) as usize) % self.workers;
        // A worker death at the post-shuffle boundary loses that worker's
        // partial groups; without a checkpoint the whole shuffle replays
        // from the (still partition-local) partials.
        let replay_src = match metrics.recovery() {
            Some(r) if r.deaths_armed() => Some(partials.clone()),
            _ => None,
        };
        let mut shuffled = exchange::shuffle_by(partials, &self.pool, metrics, router)?;
        recovery::stage_boundary(
            metrics,
            "agg:shuffle",
            &mut [("partials", &mut shuffled)],
            || {
                let src = replay_src.clone().ok_or_else(|| {
                    FudjError::Execution(
                        "agg:shuffle replay requested without retained inputs".into(),
                    )
                })?;
                Ok(vec![exchange::shuffle_by(
                    src, &self.pool, metrics, router,
                )?])
            },
        )?;
        self.merge_partials(shuffled, group_by, aggregates, &float_sum, metrics)
    }

    /// Step 2 of the hash aggregate: merge shuffled partial rows per
    /// group and finalize. Split out so a crash-restart resume can enter
    /// here directly with partials restored from durable checkpoints.
    /// Without `GROUP BY`, an empty input still aggregates to one row, as
    /// in SQL: `COUNT` 0, every other aggregate NULL.
    fn merge_partials(
        &self,
        shuffled: PartitionedData,
        group_by: &[usize],
        aggregates: &[Aggregate],
        float_sum: &[bool],
        metrics: &QueryMetrics,
    ) -> Result<PartitionedData> {
        let width = group_by.len();
        let mut merged = self.parallel_map(metrics, shuffled, |rows| {
            let mut groups: HashMap<Vec<Value>, Vec<Accumulator>> = HashMap::new();
            for row in &rows {
                let key = row.values()[..width].to_vec();
                let accs = groups.entry(key).or_insert_with(|| {
                    aggregates
                        .iter()
                        .zip(float_sum)
                        .map(|(a, &fs)| Accumulator::new(a, fs))
                        .collect()
                });
                for (i, acc) in accs.iter_mut().enumerate() {
                    acc.merge_partial(row.get(width + i))?;
                }
            }
            let mut out = Vec::with_capacity(groups.len());
            for (key, accs) in groups {
                let mut values = key;
                values.extend(accs.iter().map(Accumulator::finalize));
                out.push(Row::new(values));
            }
            Ok(out)
        })?;
        if width == 0 && merged.iter().all(Vec::is_empty) {
            let empty = aggregates.iter().map(|a| match a.func {
                AggFunc::Count => Value::Int64(0),
                _ => Value::Null,
            });
            if let Some(first) = merged.first_mut() {
                first.push(Row::new(empty.collect()));
            }
        }
        Ok(merged)
    }
}

/// Sort rows by the key list (stable between equal keys).
pub fn sort_rows(rows: &mut [Row], keys: &[SortKey]) {
    rows.sort_by(|a, b| {
        for k in keys {
            let ord = a.get(k.column).cmp(b.get(k.column));
            let ord = if k.descending { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::AggFunc;
    use fudj_storage::DatasetBuilder;
    use fudj_types::{Field, Schema};
    use std::sync::Arc;

    fn dataset(rows: usize, partitions: usize) -> Arc<fudj_storage::Dataset> {
        let schema = Schema::shared(vec![
            Field::new("id", DataType::Int64),
            Field::new("grp", DataType::Int64),
            Field::new("v", DataType::Int64),
        ]);
        let d = DatasetBuilder::new("t", schema)
            .primary_key("id")
            .partitions(partitions)
            .build()
            .unwrap();
        for i in 0..rows {
            d.insert(Row::new(vec![
                Value::Int64(i as i64),
                Value::Int64((i % 3) as i64),
                Value::Int64((i * 2) as i64),
            ]))
            .unwrap();
        }
        Arc::new(d)
    }

    fn scan(rows: usize, parts: usize) -> PhysicalPlan {
        PhysicalPlan::Scan {
            dataset: dataset(rows, parts),
        }
    }

    #[test]
    fn scan_round_robins_partitions() {
        let cluster = Cluster::new(2);
        let (batch, _) = cluster.execute(&scan(100, 8)).unwrap();
        assert_eq!(batch.len(), 100);
    }

    #[test]
    fn filter_and_project() {
        let cluster = Cluster::new(4);
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(scan(50, 4)),
                predicate: Arc::new(|row| Ok(row.get(0).as_i64()? < 10)),
            }),
            mapper: Arc::new(|row| Ok(Row::new(vec![row.get(0).clone()]))),
            schema: Schema::shared(vec![Field::new("id", DataType::Int64)]),
        };
        let (batch, _) = cluster.execute(&plan).unwrap();
        assert_eq!(batch.len(), 10);
        assert!(batch.rows().iter().all(|r| r.len() == 1));
    }

    #[test]
    fn filter_error_propagates_from_worker_threads() {
        let cluster = Cluster::new(4);
        let plan = PhysicalPlan::Filter {
            input: Box::new(scan(50, 4)),
            predicate: Arc::new(|row| row.get(0).as_str().map(|_| true)), // type error
        };
        assert!(cluster.execute(&plan).is_err());
    }

    #[test]
    fn aggregate_group_by_matches_sequential() {
        for workers in [1, 2, 5] {
            let cluster = Cluster::new(workers);
            let plan = PhysicalPlan::hash_aggregate(
                scan(90, 4),
                vec![1],
                vec![
                    Aggregate::count_star("c"),
                    Aggregate::on(AggFunc::Sum, 2, "s"),
                    Aggregate::on(AggFunc::Avg, 2, "a"),
                    Aggregate::on(AggFunc::Min, 0, "mn"),
                    Aggregate::on(AggFunc::Max, 0, "mx"),
                ],
            );
            let (batch, _) = cluster.execute(&plan).unwrap();
            assert_eq!(batch.len(), 3, "workers={workers}");
            for row in batch.rows() {
                let g = row.get(0).as_i64().unwrap();
                assert_eq!(row.get(1), &Value::Int64(30)); // count per group
                                                           // ids g, g+3, ..., g+87; v = 2*id.
                let ids: Vec<i64> = (0..30).map(|k| g + 3 * k).collect();
                let sum: i64 = ids.iter().map(|i| i * 2).sum();
                assert_eq!(row.get(2), &Value::Int64(sum));
                assert_eq!(row.get(3), &Value::Float64(sum as f64 / 30.0));
                assert_eq!(row.get(4), &Value::Int64(g));
                assert_eq!(row.get(5), &Value::Int64(g + 87));
            }
        }
    }

    #[test]
    fn global_aggregate_without_groups() {
        let cluster = Cluster::new(3);
        let plan =
            PhysicalPlan::hash_aggregate(scan(25, 2), vec![], vec![Aggregate::count_star("c")]);
        let (batch, _) = cluster.execute(&plan).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.rows()[0].get(0), &Value::Int64(25));
    }

    #[test]
    fn sort_and_limit() {
        let cluster = Cluster::new(4);
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::Sort {
                input: Box::new(scan(30, 4)),
                keys: vec![SortKey::desc(0)],
            }),
            limit: 5,
        };
        let (batch, _) = cluster.execute(&plan).unwrap();
        let ids: Vec<i64> = batch
            .rows()
            .iter()
            .map(|r| r.get(0).as_i64().unwrap())
            .collect();
        assert_eq!(ids, vec![29, 28, 27, 26, 25]);
    }

    #[test]
    fn nl_join_on_top() {
        let cluster = Cluster::new(3);
        let plan = PhysicalPlan::NlJoin {
            left: Box::new(scan(12, 2)),
            right: Box::new(scan(12, 2)),
            predicate: Arc::new(|l, r| {
                Ok(l.get(0).as_i64()? == r.get(0).as_i64()? && l.get(1).as_i64()? == 0)
            }),
        };
        let (batch, metrics) = cluster.execute(&plan).unwrap();
        // ids ≡ 0 mod 3: 0, 3, 6, 9 → 4 matches.
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.schema().len(), 6);
        assert!(
            metrics.snapshot().rows_broadcast > 0,
            "on-top broadcasts a side"
        );
    }

    #[test]
    fn sort_rows_multi_key() {
        let mut rows = vec![
            Row::new(vec![Value::Int64(1), Value::str("b")]),
            Row::new(vec![Value::Int64(1), Value::str("a")]),
            Row::new(vec![Value::Int64(0), Value::str("z")]),
        ];
        sort_rows(&mut rows, &[SortKey::asc(0), SortKey::asc(1)]);
        assert_eq!(rows[0].get(1), &Value::str("z"));
        assert_eq!(rows[1].get(1), &Value::str("a"));
        assert_eq!(rows[2].get(1), &Value::str("b"));
    }
}
