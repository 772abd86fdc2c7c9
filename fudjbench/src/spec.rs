//! The benchmark's contract: workloads, metrics, units, directions and
//! regression bounds. `BENCHMARK.json` at the repo root is generated from
//! these tables (`fudjbench manifest`) and a test keeps the two equal.

use crate::json::Json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// How long one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u64 = 15;
pub const DEFAULT_SEED: u64 = 11;
/// Directory of the benchmark, relative to the repo root.
pub const BENCH_DIR: &str = "fudjbench";

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "spatial_join",
        why: "Hash-shuffle COMBINE with multi-assign and avoidance dedup on polygon keys: \
              the heaviest ExtValue translation and shuffle bytes, with a grouped result.",
    },
    Workload {
        name: "interval_join",
        why: "Theta path (custom matches: rebalance, broadcast, bucket NLJ) on 16-byte keys: \
              translation is cheap and COMBINE dominates, so a translation change must not move it.",
    },
    Workload {
        name: "text_join",
        why: "String keys: SUMMARIZE is a global token count, verify is tokenise plus Jaccard, \
              translation clones strings; highest FUDJ over built-in ratio today.",
    },
    Workload {
        name: "scan_agg",
        why: "No FUDJ code at all: the bypass for every core/joins/types change and the one where \
              exec::columnar, the scan and the row sink do the work; its ratio is a control at 1.",
    },
    Workload {
        name: "serve_mix",
        why: "Zipf statement stream on the serving tier beside inserts, so results are invalidated \
              and the plan cache hits; small inputs make parse, fingerprint, plan and sched dominate.",
    },
    Workload {
        name: "durable_ingest",
        why: "Write side of storage (WAL encode, fsync every 64 records, snapshot, replay) with a \
              read in the same round, so a write-path gain that taxes reads shows.",
    },
];

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these (see README.md for what the
/// workload's op and work unit are).
pub const END_TO_END: [EndToEnd; 6] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("query_s", "s", Better::Lower, 0.25),
    e2e("builtin_query_s", "s", Better::Lower, 0.25),
    e2e("fudj_over_builtin", "ratio", Better::Lower, 0.2),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.25),
];

const fn lo(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Layer = crate name. A workload reports 0 for a layer it does not run.
pub const PER_LAYER: [Layer; 72] = [
    // Front end, from the spans around parse / shape_of / bind / plan.
    lo("sqlish.parse_us", "us"),
    lo("sqlish.fingerprint_us", "us"),
    lo("sqlish.bind_us", "us"),
    lo("planner.plan_us", "us"),
    lo("sched.roundtrip_us", "us"),
    // Serving tier: exact counts from ServingTier::stats, latencies split
    // by whether the result cache answered.
    hi("serve.result_hit_rate", "ratio"),
    hi("serve.plan_hit_rate", "ratio"),
    hi("serve.plan_hits", "count"),
    lo("serve.invalidations", "count"),
    lo("serve.rejections", "count"),
    lo("serve.hit_latency_us_p50", "us"),
    lo("serve.miss_latency_ms_p50", "ms"),
    lo("serve.latency_ms_p99", "ms"),
    // The ExtValue hop of §VII-B and the wire codec.
    lo("types.to_external_ns_per_key", "ns/key"),
    lo("types.wire_encode_ns_per_row", "ns/row"),
    lo("types.wire_decode_ns_per_row", "ns/row"),
    lo("types.wire_bytes_per_row", "bytes/row"),
    // Phase replay through EngineJoin: FUDJ adapter, built-in, bare UDF.
    lo("core.summarize_ns_per_key", "ns/key"),
    lo("core.divide_us", "us"),
    lo("core.assign_ns_per_key", "ns/key"),
    lo("core.assign_fanout", "ratio"),
    lo("core.verify_ns_per_call", "ns/call"),
    lo("core.dedup_ns_per_call", "ns/call"),
    lo("core.translations_per_key", "ratio"),
    lo("joins.builtin_summarize_ns_per_key", "ns/key"),
    lo("joins.builtin_assign_ns_per_key", "ns/key"),
    lo("joins.builtin_verify_ns_per_call", "ns/call"),
    lo("core.summarize_over_builtin", "ratio"),
    lo("core.assign_over_builtin", "ratio"),
    lo("core.verify_over_builtin", "ratio"),
    lo("joins.udf_assign_ns_per_key", "ns/key"),
    lo("joins.udf_verify_ns_per_call", "ns/call"),
    // Leaf kernels both strategies end up in.
    lo("geo.contains_point_ns", "ns/call"),
    lo("geo.overlapping_tiles_ns", "ns/call"),
    lo("temporal.overlaps_ns", "ns/call"),
    lo("textutil.token_set_ns_per_doc", "ns/doc"),
    lo("textutil.jaccard_ns_per_pair", "ns/pair"),
    // exec as the engine reports it (MetricsSnapshot of a traced op).
    lo("exec.phase_summarize_ms", "ms"),
    lo("exec.phase_divide_ms", "ms"),
    lo("exec.phase_partition_ms", "ms"),
    lo("exec.phase_join_ms", "ms"),
    lo("exec.phase_dedup_ms", "ms"),
    lo("exec.join_skew", "ratio"),
    lo("exec.rows_shuffled", "count"),
    lo("exec.bytes_shuffled", "bytes"),
    lo("exec.bytes_broadcast", "bytes"),
    lo("exec.verify_calls", "count"),
    lo("exec.dedup_rejections", "count"),
    lo("exec.state_bytes", "bytes"),
    // exec from outside.
    lo("exec.execute_physical_ms", "ms"),
    lo("exec.shuffle_ns_per_row", "ns/row"),
    lo("exec.gather_ns_per_row", "ns/row"),
    lo("exec.filter_ns_per_row", "ns/row"),
    lo("exec.project_ns_per_row", "ns/row"),
    lo("exec.partial_agg_ns_per_row", "ns/row"),
    // storage.
    hi("storage.ingest_rows_per_s", "1/s"),
    lo("storage.recovery_s", "s"),
    lo("storage.wal_bytes_per_user_byte", "ratio"),
    lo("storage.insert_all_us_per_batch", "us/batch"),
    lo("storage.encode_frame_ns_per_row", "ns/row"),
    lo("storage.replay_wal_ns_per_row", "ns/row"),
    lo("storage.wal_bytes_appended", "bytes"),
    lo("storage.fsyncs", "count"),
    lo("storage.snapshot_s", "s"),
    lo("storage.snapshot_bytes", "bytes"),
    lo("storage.wal_tax", "ratio"),
    lo("storage.journal_tax", "ratio"),
    hi("datagen.rows_per_s", "1/s"),
    // The benchmark's own tracing.
    lo("trace.overhead_share", "ratio"),
    hi("trace.op_child_coverage", "ratio"),
    hi("trace.spans", "count"),
    hi("trace.timed_ops", "count"),
];

/// Layer metrics that are counts made by the program: on one seed they
/// repeat exactly, and `compare` treats a difference as a failure.
pub const EXACT_COUNTS: [&str; 17] = [
    "exec.rows_shuffled",
    "exec.bytes_shuffled",
    "exec.bytes_broadcast",
    "exec.verify_calls",
    "exec.dedup_rejections",
    "exec.state_bytes",
    "core.assign_fanout",
    "core.translations_per_key",
    "types.wire_bytes_per_row",
    "serve.result_hit_rate",
    "serve.plan_hit_rate",
    "serve.plan_hits",
    "serve.invalidations",
    "serve.rejections",
    "storage.wal_bytes_appended",
    "storage.fsyncs",
    "storage.snapshot_bytes",
];

/// The driver's command, relative to the repo root.
pub fn command() -> Vec<String> {
    ["cargo", "run", "--release", "--quiet", "--manifest-path"]
        .into_iter()
        .map(str::to_owned)
        .chain([format!("{BENCH_DIR}/Cargo.toml"), "--".to_owned()])
        .collect()
}

/// `BENCHMARK.json`, with exactly the keys the driver's contract names.
pub fn manifest() -> Json {
    let strings = |items: Vec<String>| Json::Arr(items.into_iter().map(Json::Str).collect());
    Json::obj([
        ("command", strings(command())),
        ("paths", strings(vec![BENCH_DIR.to_owned()])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_respect_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(is_name(w.name), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
            let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{}: {}",
                w.name,
                why.len()
            );
        }
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        {
            assert!(is_name(name), "{name}");
            assert!(is_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for name in EXACT_COUNTS {
            assert!(
                PER_LAYER.iter().any(|m| m.name == name),
                "{name} is not a layer metric"
            );
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn command_stays_inside_the_benchmark_directory() {
        let command = command();
        assert!(command.len() <= 32);
        for arg in &command {
            assert!(
                arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."),
                "{arg}"
            );
        }
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(committed.len() <= 64 * 1024);
        let parsed = Json::parse(&committed).expect("BENCHMARK.json parses");
        assert_eq!(
            parsed,
            manifest(),
            "regenerate with `fudjbench manifest > BENCHMARK.json`"
        );
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
