//! Differential oracle for duplicate avoidance in the distributed COMBINE.
//!
//! PARTITION flags each tagged row whose bucket is the first of its key's
//! sorted list, and COMBINE accepts a verified pair on the flags alone when
//! they settle it: under default match when either row is flagged, under a
//! theta match when both are. Every other pair goes through the re-assign
//! path (`fudj_core::first_matching_pair` on both keys' buckets). The
//! oracle is the standalone runner, whose `avoidance_accepts` re-assigns
//! every pair. Four joins cover both branches and the fallback:
//!
//! * polygon × point: points are single-assigned, so every pair settles
//!   and no key is assigned twice;
//! * polygon × polygon: multi-assigned on both sides, so some pairs are
//!   left open and take the fallback;
//! * text similarity (theta match, multi-assign, avoidance);
//! * a test-only theta band join whose keys span several buckets.
//!
//! Each runs with 1 and 3 workers, in memory and spilling, and with worker
//! deaths at the `join:partition` boundary, restored from checkpoints and
//! replayed without them. Results, and the number of pairs avoidance
//! rejects (where no stage is replayed whole), must equal the oracle's.

use fudj_repro::core::standalone::run_standalone_with_stats;
use fudj_repro::core::{
    BucketId, FaultConfig, FlexibleJoin, FudjEngineJoin, JoinAlgorithm, ProxyJoin,
};
use fudj_repro::exec::{Cluster, FudjJoinNode, PhysicalPlan};
use fudj_repro::geo::{Point, Polygon, Rect};
use fudj_repro::joins::{SpatialFudj, TextSimilarityFudj};
use fudj_repro::temporal::Interval;
use fudj_repro::types::{ext, ExtValue, Result, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod common;
use common::{dataset, id_pairs, Gen};

/// A theta join over intervals: each key is assigned to every granule of
/// width `W` it spans, granules match when adjacent or equal, and two keys
/// join when they come within `W` of each other. A pair meets in several
/// matched bucket pairs, so avoidance has work to do on both sides.
struct Band;

impl FlexibleJoin for Band {
    type Summary = i64;
    type PPlan = i64;
    fn name(&self) -> &str {
        "band"
    }
    fn summarize(&self, key: &ExtValue, count: &mut i64) -> Result<()> {
        key.as_interval()?;
        *count += 1;
        Ok(())
    }
    fn merge_summaries(&self, a: i64, b: i64) -> i64 {
        a + b
    }
    fn divide(&self, _: &i64, _: &i64, params: &[ExtValue]) -> Result<i64> {
        params.first().map_or(Ok(10), ExtValue::as_long)
    }
    fn assign(&self, key: &ExtValue, width: &i64, out: &mut Vec<BucketId>) -> Result<()> {
        let iv = key.as_interval()?;
        let granules = iv.start.div_euclid(*width)..=iv.end.div_euclid(*width);
        out.extend(granules.rev().map(|g| g as BucketId));
        Ok(())
    }
    fn matches(&self, b1: BucketId, b2: BucketId) -> bool {
        b1.abs_diff(b2) <= 1
    }
    fn uses_default_match(&self) -> bool {
        false
    }
    fn verify(&self, k1: &ExtValue, k2: &ExtValue, width: &i64) -> Result<bool> {
        let (a, b) = (k1.as_interval()?, k2.as_interval()?);
        Ok(a.start <= b.end + width && b.start <= a.end + width)
    }
}

/// Counts `assign` calls of the algorithm it wraps.
struct Counted<J> {
    inner: J,
    assigns: Arc<AtomicU64>,
}

impl<J: FlexibleJoin> FlexibleJoin for Counted<J> {
    type Summary = J::Summary;
    type PPlan = J::PPlan;
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn summarize(&self, key: &ExtValue, s: &mut J::Summary) -> Result<()> {
        self.inner.summarize(key, s)
    }
    fn merge_summaries(&self, a: J::Summary, b: J::Summary) -> J::Summary {
        self.inner.merge_summaries(a, b)
    }
    fn divide(&self, l: &J::Summary, r: &J::Summary, params: &[ExtValue]) -> Result<J::PPlan> {
        self.inner.divide(l, r, params)
    }
    fn assign(&self, key: &ExtValue, plan: &J::PPlan, out: &mut Vec<BucketId>) -> Result<()> {
        self.assigns.fetch_add(1, Ordering::Relaxed);
        self.inner.assign(key, plan, out)
    }
    fn matches(&self, b1: BucketId, b2: BucketId) -> bool {
        self.inner.matches(b1, b2)
    }
    fn uses_default_match(&self) -> bool {
        self.inner.uses_default_match()
    }
    fn verify(&self, k1: &ExtValue, k2: &ExtValue, plan: &J::PPlan) -> Result<bool> {
        self.inner.verify(k1, k2, plan)
    }
    fn prepare(&self, key: &ExtValue, plan: &J::PPlan) -> Result<Option<ExtValue>> {
        self.inner.prepare(key, plan)
    }
    fn dedup_mode(&self) -> fudj_repro::core::DedupMode {
        self.inner.dedup_mode()
    }
}

struct Workload {
    name: &'static str,
    alg: Arc<dyn JoinAlgorithm>,
    assigns: Arc<AtomicU64>,
    left: Vec<Value>,
    right: Vec<Value>,
    params: Vec<Value>,
}

fn counted<J: FlexibleJoin + 'static>(inner: J) -> (Arc<dyn JoinAlgorithm>, Arc<AtomicU64>) {
    let assigns = Arc::new(AtomicU64::new(0));
    let alg = Counted {
        inner,
        assigns: assigns.clone(),
    };
    (Arc::new(ProxyJoin::new(alg)), assigns)
}

fn workloads() -> Vec<Workload> {
    let mut g = Gen(41);
    let mut polygons = |n: usize| -> Vec<Value> {
        (0..n)
            .map(|_| {
                let (x, y) = (g.f64_in(0.0, 90.0), g.f64_in(0.0, 90.0));
                let (w, h) = (g.f64_in(0.5, 14.0), g.f64_in(0.5, 14.0));
                Value::polygon(Polygon::from_rect(&Rect::new(x, y, x + w, y + h)))
            })
            .collect()
    };
    let parks = polygons(30);
    let lakes = polygons(25);
    let mut g = Gen(43);
    let points: Vec<Value> = (0..90)
        .map(|_| Value::Point(Point::new(g.f64_in(0.0, 100.0), g.f64_in(0.0, 100.0))))
        .collect();
    let vocab = ["river", "trail", "lake", "peak", "camp", "view", "rock"];
    let mut g = Gen(47);
    let mut docs = |n: usize| -> Vec<Value> {
        (0..n)
            .map(|_| {
                let len = g.i64_in(2, 6) as usize;
                let words: Vec<&str> = (0..len)
                    .map(|_| vocab[g.i64_in(0, vocab.len() as i64) as usize])
                    .collect();
                Value::str(words.join(" "))
            })
            .collect()
    };
    let (reviews_a, reviews_b) = (docs(40), docs(30));
    let mut g = Gen(53);
    let mut spans = |n: usize| -> Vec<Value> {
        (0..n)
            .map(|_| {
                let s = g.i64_in(0, 400);
                Value::Interval(Interval::new(s, s + g.i64_in(0, 35)))
            })
            .collect()
    };
    let (rides_a, rides_b) = (spans(40), spans(35));

    let mut out = Vec::new();
    let mut push = |name, (alg, assigns), left, right, params| {
        out.push(Workload {
            name,
            alg,
            assigns,
            left,
            right,
            params,
        })
    };
    let grid = vec![Value::Int64(8)];
    push(
        "polygon x point",
        counted(SpatialFudj::new()),
        parks.clone(),
        points,
        grid.clone(),
    );
    push(
        "polygon x polygon",
        counted(SpatialFudj::new()),
        parks,
        lakes,
        grid,
    );
    push(
        "text",
        counted(TextSimilarityFudj::new()),
        reviews_a,
        reviews_b,
        vec![Value::Float64(0.5)],
    );
    push(
        "theta band",
        counted(Band),
        rides_a,
        rides_b,
        vec![Value::Int64(10)],
    );
    out
}

fn plan(w: &Workload, workers: usize, budget: Option<usize>) -> PhysicalPlan {
    let mut node = FudjJoinNode::new(
        PhysicalPlan::Scan {
            dataset: dataset("l", &w.left, workers),
        },
        PhysicalPlan::Scan {
            dataset: dataset("r", &w.right, workers),
        },
        Arc::new(FudjEngineJoin::new(w.alg.clone())),
        1,
        1,
        w.params.clone(),
    );
    node.memory_budget_rows = budget;
    PhysicalPlan::FudjJoin(node)
}

/// The oracle's result pairs and the number of verified pairs its
/// avoidance rejected.
fn oracle(w: &Workload) -> (Vec<(i64, i64)>, u64) {
    let external = |vs: &[Value]| -> Vec<ExtValue> {
        vs.iter().map(|v| ext::to_external(v).unwrap()).collect()
    };
    let (pairs, stats) = run_standalone_with_stats(
        w.alg.as_ref(),
        &external(&w.left),
        &external(&w.right),
        &external(&w.params),
    )
    .unwrap();
    let mut pairs: Vec<(i64, i64)> = pairs
        .into_iter()
        .map(|(i, j)| (i as i64, j as i64))
        .collect();
    pairs.sort_unstable();
    (pairs, stats.deduped_pairs as u64)
}

#[test]
fn avoidance_flags_agree_with_the_standalone_oracle() {
    for w in workloads() {
        let (expected, rejected) = oracle(&w);
        assert!(!expected.is_empty(), "{}: degenerate workload", w.name);
        // A single-assigned side makes no duplicates to reject.
        let single = w.name == "polygon x point";
        assert_eq!(rejected > 0, !single, "{}: {rejected} rejected", w.name);
        for workers in [1, 3] {
            for budget in [None, Some(6)] {
                let ctx = format!("{}, {workers} workers, budget {budget:?}", w.name);
                let before = w.assigns.load(Ordering::Relaxed);
                let (batch, metrics) = Cluster::new(workers)
                    .execute(&plan(&w, workers, budget))
                    .unwrap();
                let assigns = w.assigns.load(Ordering::Relaxed) - before;
                let s = metrics.snapshot();
                assert_eq!(id_pairs(&batch), expected, "{ctx}");
                assert_eq!(s.dedup_rejections, rejected, "{ctx}");
                if budget.is_some() {
                    assert!(s.spilled_rows > 0, "{ctx}: nothing spilled");
                }
                // PARTITION assigns each key once; COMBINE assigns again
                // only the keys of pairs the flags leave open.
                let keys = (w.left.len() + w.right.len()) as u64;
                if single {
                    assert_eq!(assigns, keys, "{ctx}: a settled pair was re-assigned");
                } else {
                    assert!(assigns > keys, "{ctx}: the fallback never ran");
                }
            }
        }
    }
}

#[test]
fn avoidance_flags_survive_worker_deaths_at_the_partition_boundary() {
    // Every boundary kills a worker (never the last one), so the first
    // death strikes at `join:partition`: its tagged rows, flags included,
    // are restored from checkpoints or rebuilt by replaying ASSIGN.
    let deaths = FaultConfig {
        worker_death_prob: 1.0,
        ..FaultConfig::quiet(7)
    };
    for w in workloads() {
        let (expected, rejected) = oracle(&w);
        for checkpoints in [true, false] {
            for budget in [None, Some(6)] {
                let ctx = format!("{}, checkpoints {checkpoints}, budget {budget:?}", w.name);
                let cluster = Cluster::with_faults(3, deaths);
                cluster.set_checkpoint_all(checkpoints);
                let (batch, metrics) = cluster.execute(&plan(&w, 3, budget)).unwrap();
                let s = metrics.snapshot();
                assert!(s.recovery.deaths_survived > 0, "{ctx}: no death");
                assert_eq!(id_pairs(&batch), expected, "{ctx}");
                // A stage replayed whole counts its rejections again.
                if checkpoints {
                    assert_eq!(s.dedup_rejections, rejected, "{ctx}");
                }
            }
        }
    }
}
