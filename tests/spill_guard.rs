//! Spill-file hygiene under failure: a join that dies mid-spill (a UDF
//! violation under the fail-fast guard policy) must leave no spill file
//! behind. The RAII guards inside the hybrid-hash COMBINE own every file
//! from the moment it is created, so cleanup holds on *every* error path,
//! not just the happy one.
//!
//! Spill files are scoped per `Cluster` (each has its own directory), so
//! every assertion here inspects only the directory of the cluster it ran
//! on: empty after any query, gone once the cluster is dropped. Tests in
//! this binary — and anything else spilling in the temp dir — cannot see
//! each other's live files.

use fudj_repro::core::{
    EngineJoin, FudjEngineJoin, GuardConfig, GuardedJoin, JoinAlgorithm, UdfPolicy,
};
use fudj_repro::exec::{Cluster, FudjJoinNode, PhysicalPlan};
use fudj_repro::joins::evil::{EqualityFudj, EvilJoin, EvilMode, EvilPhase};
use fudj_repro::joins::poisoned;
use fudj_repro::storage::DatasetBuilder;
use fudj_repro::types::{ext, DataType, Field, FudjError, Row, Schema, Value};
use std::sync::Arc;

const WORKERS: usize = 3;
const BUDGET: usize = 16;

/// Files still present in `cluster`'s spill directory (none when it never
/// spilled, so no directory exists).
fn spill_litter(cluster: &Cluster) -> Vec<String> {
    let Some(dir) = cluster.spill_dir() else {
        return Vec::new();
    };
    std::fs::read_dir(dir)
        .expect("a live cluster keeps its spill dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect()
}

/// Drop the cluster and require its spill directory (if a task got as
/// far as creating it) to go with it.
fn assert_scope_removed(cluster: Cluster) {
    let dir = cluster.spill_dir();
    drop(cluster);
    if let Some(dir) = dir {
        assert!(!dir.exists(), "{dir:?} outlived its cluster");
    }
}

fn keys() -> Vec<Value> {
    // Repeating longs: plenty of equality matches, and (by construction
    // of the evil fixtures) roughly one key in eight is poisoned.
    (0..240).map(|v: i64| Value::Int64(v % 60)).collect()
}

fn dataset(name: &str, keys: &[Value]) -> Arc<fudj_repro::storage::Dataset> {
    let schema = Schema::shared(vec![
        Field::new("id", DataType::Int64),
        Field::new("k", DataType::Int64),
    ]);
    let d = DatasetBuilder::new(name, schema)
        .partitions(WORKERS)
        .build()
        .unwrap();
    for (i, k) in keys.iter().enumerate() {
        d.insert(Row::new(vec![Value::Int64(i as i64), k.clone()]))
            .unwrap();
    }
    Arc::new(d)
}

/// An equality-join plan over-budget enough to spill, with the inner
/// algorithm misbehaving per `mode` under the fail-fast guard.
fn spilling_plan(mode: EvilMode, tag: &str) -> PhysicalPlan {
    let evil: Arc<dyn JoinAlgorithm> = Arc::new(EvilJoin::new(Arc::new(EqualityFudj), mode));
    let engine: Arc<dyn EngineJoin> = Arc::new(FudjEngineJoin::new(Arc::new(GuardedJoin::new(
        evil,
        GuardConfig::with_policy(UdfPolicy::FailFast),
    ))));
    let ks = keys();
    let mut node = FudjJoinNode::new(
        PhysicalPlan::Scan {
            dataset: dataset(&format!("l_{tag}"), &ks),
        },
        PhysicalPlan::Scan {
            dataset: dataset(&format!("r_{tag}"), &ks),
        },
        engine,
        1,
        1,
        vec![],
    );
    node.memory_budget_rows = Some(BUDGET);
    PhysicalPlan::FudjJoin(node)
}

/// Regression for the leak: an injected UDF violation in `verify` —
/// i.e. in the middle of the spilling COMBINE, while sub-partition files
/// are live on disk — must fail the query *and* leave the temp dir clean.
#[test]
fn failfast_violation_mid_spill_leaves_no_litter() {
    // The workload must contain poisoned keys, or the evil join never
    // fires and the test proves nothing.
    assert!(
        keys()
            .iter()
            .any(|k| poisoned(&ext::to_external(k).unwrap())),
        "fixture drifted: no poisoned keys in the workload"
    );

    // Control: the same plan with a well-behaved inner join both spills
    // and cleans up after itself — so the evil run below really does die
    // while spill files exist.
    let cluster = Cluster::new(WORKERS);
    let (batch, metrics) = cluster
        .execute(&spilling_plan(EvilMode::Tame, "tame"))
        .unwrap();
    assert!(!batch.is_empty());
    let snap = metrics.snapshot();
    assert!(
        snap.spilled_rows > 0,
        "budget {BUDGET} must spill: {snap:?}"
    );
    let scope = cluster
        .spill_dir()
        .expect("a spilling run creates the scope");
    assert!(scope.is_dir());
    assert_eq!(spill_litter(&cluster), Vec::<String>::new());

    // The actual regression: panic inside `verify` on poisoned keys.
    let err = match cluster.execute(&spilling_plan(
        EvilMode::PanicIn(EvilPhase::Verify),
        "verify",
    )) {
        Ok(_) => panic!("fail-fast must surface the verify violation"),
        Err(e) => e,
    };
    assert!(
        matches!(&err, FudjError::UdfViolation { phase, .. } if phase == "verify"),
        "unexpected error: {err:?}"
    );
    assert_eq!(
        spill_litter(&cluster),
        Vec::<String>::new(),
        "mid-spill failure leaked spill files"
    );
    assert_scope_removed(cluster);
}

/// The same guarantee on a second, earlier failure point: a violation in
/// `assign` aborts the COMBINE while write buffers are still streaming.
#[test]
fn failfast_assign_violation_also_leaves_no_litter() {
    let cluster = Cluster::new(WORKERS);
    let err = match cluster.execute(&spilling_plan(
        EvilMode::PanicIn(EvilPhase::Assign),
        "assign",
    )) {
        Ok(_) => panic!("fail-fast must surface the assign violation"),
        Err(e) => e,
    };
    assert!(
        matches!(&err, FudjError::UdfViolation { phase, .. } if phase == "assign"),
        "unexpected error: {err:?}"
    );
    assert_eq!(
        spill_litter(&cluster),
        Vec::<String>::new(),
        "assign failure leaked spill files"
    );
    assert_scope_removed(cluster);
}
