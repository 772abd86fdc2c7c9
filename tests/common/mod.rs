//! Scaffolding the differential suites share: seeded data, the seed
//! matrix, (id, key) datasets, id-pair extraction and the standalone
//! oracle. Each suite keeps its own workloads, perturbation and
//! non-vacuity assertions.
#![allow(dead_code)] // every suite uses a subset

use fudj_repro::core::{standalone::run_standalone, JoinAlgorithm};
use fudj_repro::storage::{Dataset, DatasetBuilder};
use fudj_repro::types::{ext, Batch, DataType, ExtValue, Field, Row, Schema, Value};
use std::sync::Arc;

/// The seed matrix: `CHAOS_SEEDS=1,2,3` overrides `default` (CI pins one
/// fixed matrix for every suite). Replay a failing seed with
/// `CHAOS_SEEDS=<seed> cargo test --test <suite>`.
pub fn seeds(default: impl IntoIterator<Item = u64>) -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(s) => {
            let parsed: Vec<u64> = s
                .split(',')
                .map(|t| t.trim().parse().expect("CHAOS_SEEDS must be u64s"))
                .collect();
            assert!(!parsed.is_empty(), "CHAOS_SEEDS set but empty");
            parsed
        }
        Err(_) => default.into_iter().collect(),
    }
}

/// xorshift64* — workload data must be a pure function of its seed, just
/// like the fault schedule.
pub struct Gen(pub u64);

impl Gen {
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
    }

    pub fn i64_in(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo) as u64) as i64
    }
}

/// Wrap keys in an (id, key) dataset split over `parts` partitions.
pub fn dataset(name: &str, keys: &[Value], parts: usize) -> Arc<Dataset> {
    let dt = keys
        .first()
        .map(Value::data_type)
        .unwrap_or(DataType::Int64);
    let schema = Schema::shared(vec![Field::new("id", DataType::Int64), Field::new("k", dt)]);
    let d = DatasetBuilder::new(name, schema)
        .partitions(parts)
        .build()
        .unwrap();
    for (i, k) in keys.iter().enumerate() {
        d.insert(Row::new(vec![Value::Int64(i as i64), k.clone()]))
            .unwrap();
    }
    Arc::new(d)
}

/// Sorted (left id, right id) pairs of a join over two [`dataset`]s.
pub fn id_pairs(batch: &Batch) -> Vec<(i64, i64)> {
    let mut pairs: Vec<(i64, i64)> = batch
        .rows()
        .iter()
        .map(|r| (r.get(0).as_i64().unwrap(), r.get(2).as_i64().unwrap()))
        .collect();
    pairs.sort_unstable();
    pairs
}

/// Fault-free oracle: the paper's standalone single-machine runner, as
/// sorted (left index, right index) pairs.
pub fn oracle(
    alg: &dyn JoinAlgorithm,
    left: &[Value],
    right: &[Value],
    params: &[Value],
) -> Vec<(i64, i64)> {
    let external = |vs: &[Value]| -> Vec<ExtValue> {
        vs.iter().map(|v| ext::to_external(v).unwrap()).collect()
    };
    let mut pairs: Vec<(i64, i64)> =
        run_standalone(alg, &external(left), &external(right), &external(params))
            .unwrap()
            .into_iter()
            .map(|(i, j)| (i as i64, j as i64))
            .collect();
    pairs.sort_unstable();
    pairs
}
