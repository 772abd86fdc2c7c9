//! Measurement runner: one (workload, strategy, size, workers, params)
//! configuration → wall-clock seconds + engine metrics.

use crate::workloads::Workload;
use fudj_core::EngineJoin;
use fudj_exec::{MetricsSnapshot, NetworkModel};
use fudj_joins::builtin::{
    AdvancedSpatialJoin, BuiltinIntervalJoin, BuiltinSpatialJoin, BuiltinTextSimJoin,
};
use fudj_planner::PlanOptions;
use fudj_types::Value;
use std::sync::Arc;
use std::time::Instant;

/// Join implementation method under measurement (the paper's three series
/// plus the §VII-F advanced operator).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// The FUDJ framework path (library behind the proxy boundary).
    Fudj,
    /// The hand-integrated native operator.
    Builtin,
    /// NLJ with the predicate as a UDF.
    OnTop,
    /// Built-in + plane-sweep local join (spatial only).
    Advanced,
}

impl Strategy {
    /// Series label.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::Fudj => "FUDJ",
            Strategy::Builtin => "Built-in",
            Strategy::OnTop => "On-top",
            Strategy::Advanced => "Adv. Spatial J.",
        }
    }
}

/// Alias kept for readability of experiment code.
pub type JoinKind = Workload;

fn builtin_engine(w: Workload, advanced: bool) -> Arc<dyn EngineJoin> {
    match (w, advanced) {
        (Workload::Spatial, false) => Arc::new(BuiltinSpatialJoin::new()),
        (Workload::Spatial, true) => Arc::new(AdvancedSpatialJoin::new()),
        (Workload::Interval, _) => Arc::new(BuiltinIntervalJoin::new()),
        (Workload::Text, _) => Arc::new(BuiltinTextSimJoin::new()),
    }
}

/// One measurement.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// Wall-clock seconds of query execution (planning included; loading
    /// excluded).
    pub seconds: f64,
    /// Result rows.
    pub rows: usize,
    /// Engine metrics snapshot.
    pub metrics: MetricsSnapshot,
}

/// Configuration for [`measure`].
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: Workload,
    pub strategy: Strategy,
    pub total_records: usize,
    pub workers: usize,
    /// Grid side (spatial) / granule count (interval), when set.
    pub buckets: Option<i64>,
    /// Similarity threshold (text).
    pub threshold: f64,
    /// Dedup library class override (FUDJ strategy only).
    pub dedup_class: Option<&'static str>,
    /// Simulated network; `None` = free (memcpy-speed) exchanges.
    pub network: Option<NetworkModel>,
}

impl RunConfig {
    /// Config with the paper's defaults: 8 workers, n=1200 grid (spatial),
    /// n=1000 granules (interval), t=0.9 — scaled grid defaults are chosen
    /// per experiment instead at call sites.
    pub fn new(workload: Workload, strategy: Strategy, total_records: usize) -> Self {
        RunConfig {
            workload,
            strategy,
            total_records,
            workers: 8,
            buckets: None,
            threshold: 0.9,
            dedup_class: None,
            network: None,
        }
    }
}

/// Execute one configuration and return its measurement, or the error the
/// query failed with (a swept parameter can trip a guard cap). Dataset
/// generation/loading happens before the clock starts.
pub fn measure(cfg: &RunConfig) -> fudj_types::Result<Measurement> {
    let mut session = cfg
        .workload
        .session(cfg.total_records, cfg.workers, cfg.dedup_class);
    session.set_network(cfg.network);

    let mut options = PlanOptions::default();
    match cfg.strategy {
        Strategy::Fudj => {}
        Strategy::OnTop => options.force_on_top = true,
        Strategy::Builtin => {
            options.join_overrides.insert(
                cfg.workload.join_name().to_owned(),
                builtin_engine(cfg.workload, false),
            );
        }
        Strategy::Advanced => {
            options.join_overrides.insert(
                cfg.workload.join_name().to_owned(),
                builtin_engine(cfg.workload, true),
            );
        }
    }
    if let Some(b) = cfg.buckets {
        options.extra_join_params.push(Value::Int64(b));
    }
    session.set_options(options);

    let sql = cfg.workload.sql(cfg.threshold);
    let start = Instant::now();
    let out = session.execute(&sql)?;
    let seconds = start.elapsed().as_secs_f64();
    let fudj_sql::QueryOutput::Rows(batch, metrics) = out else {
        unreachable!()
    };
    Ok(Measurement {
        seconds,
        rows: batch.len(),
        metrics: *metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_strategies_agree_on_small_spatial_workload() {
        let base = RunConfig {
            workers: 2,
            buckets: Some(16),
            ..RunConfig::new(Workload::Spatial, Strategy::Fudj, 400)
        };
        let fudj = measure(&base).unwrap();
        let builtin = measure(&RunConfig {
            strategy: Strategy::Builtin,
            ..base.clone()
        })
        .unwrap();
        let ontop = measure(&RunConfig {
            strategy: Strategy::OnTop,
            ..base.clone()
        })
        .unwrap();
        let adv = measure(&RunConfig {
            strategy: Strategy::Advanced,
            ..base.clone()
        })
        .unwrap();
        assert_eq!(fudj.rows, builtin.rows);
        assert_eq!(fudj.rows, ontop.rows);
        assert_eq!(fudj.rows, adv.rows);
        assert!(fudj.rows > 0);
    }

    /// `figures ext`'s spatial sweep at a 512×512 grid replicates a park
    /// past the guard's per-key cap: `measure` returns the block ASSIGN's
    /// violation, and the sweep reports the setting as over the cap.
    #[test]
    fn a_grid_past_the_replication_cap_is_an_assign_violation() {
        let cfg = RunConfig {
            workers: 4,
            buckets: Some(512),
            ..RunConfig::new(Workload::Spatial, Strategy::Fudj, 6_000)
        };
        match measure(&cfg) {
            Err(fudj_types::FudjError::UdfViolation { phase, detail, .. }) => {
                assert_eq!(phase, "assign");
                assert_eq!(detail, "key replicated to 4484 buckets (cap 4096)");
            }
            other => panic!(
                "expected an assign violation, got {:?}",
                other.map(|m| m.rows)
            ),
        }
    }

    #[test]
    fn measurement_reports_per_worker_metrics() {
        let cfg = RunConfig {
            workers: 2,
            buckets: Some(16),
            ..RunConfig::new(Workload::Spatial, Strategy::Fudj, 300)
        };
        let m = measure(&cfg).unwrap();
        assert_eq!(
            m.metrics.per_worker.len(),
            2,
            "both workers reported activity"
        );
        assert!(m.metrics.per_worker.iter().any(|w| !w.busy.is_zero()));
        let skew = m.metrics.skew_report();
        assert!(skew.iter().any(|s| s.phase == "join"), "{skew:?}");
        assert!(skew.iter().all(|s| s.ratio() >= 1.0 - 1e-9), "{skew:?}");
    }

    #[test]
    fn strategies_agree_on_interval_and_text() {
        for (w, n) in [(Workload::Interval, 250), (Workload::Text, 250)] {
            let base = RunConfig {
                workers: 2,
                buckets: if w == Workload::Interval {
                    Some(64)
                } else {
                    None
                },
                ..RunConfig::new(w, Strategy::Fudj, n)
            };
            let fudj = measure(&base).unwrap();
            let builtin = measure(&RunConfig {
                strategy: Strategy::Builtin,
                ..base.clone()
            })
            .unwrap();
            let ontop = measure(&RunConfig {
                strategy: Strategy::OnTop,
                ..base.clone()
            })
            .unwrap();
            assert_eq!(fudj.rows, builtin.rows, "{w:?}");
            assert_eq!(fudj.rows, ontop.rows, "{w:?}");
        }
    }
}
