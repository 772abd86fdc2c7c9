//! Golden lists for the counter tables. A counter that is dropped,
//! renamed or reordered weakens every differential oracle (they compare
//! `CounterFingerprint`s) and breaks journals already on disk (a
//! `StageCommitted` record persists the flattened names), and neither
//! fails to compile — so the names are pinned here as literals, captured
//! from the build that preceded the `counters!` tables.

use fudj_repro::exec::{
    apply_seed, flatten_counters, CounterSeed, EngineStats, MetricsSnapshot, RecoveryStats,
};
use fudj_repro::storage::{replay_wal, WalRecord};
use proptest::prelude::*;

/// The journal's counter names, in the order `StageCommitted` persists them.
const JOURNAL_NAMES: [&str; 27] = [
    "rows_shuffled",
    "bytes_shuffled",
    "rows_broadcast",
    "bytes_broadcast",
    "state_bytes",
    "verify_calls",
    "dedup_rejections",
    "spilled_rows",
    "spilled_bytes",
    "spill_resident_partitions",
    "spill_spilled_partitions",
    "spill_passes",
    "spill_recursion_depth",
    "spill_bnl_fallbacks",
    "spill_peak_resident_rows",
    "recovery.checkpoints_written",
    "recovery.checkpoint_bytes_written",
    "recovery.checkpoints_read",
    "recovery.checkpoints_evicted",
    "recovery.partitions_restored",
    "recovery.partitions_recomputed",
    "recovery.full_stage_replays",
    "recovery.deaths_survived",
    "recovery.workers_quarantined",
    "recovery.stages_resumed",
    "recovery.resume_rows_restored",
    "recovery.resume_full_replays",
];

/// Every counter of the fingerprint: engine counters bare, the other five
/// groups prefixed.
const FINGERPRINT_NAMES: [&str; 77] = [
    "rows_shuffled",
    "bytes_shuffled",
    "rows_broadcast",
    "bytes_broadcast",
    "state_bytes",
    "verify_calls",
    "dedup_rejections",
    "spilled_rows",
    "spilled_bytes",
    "spill_resident_partitions",
    "spill_spilled_partitions",
    "spill_passes",
    "spill_recursion_depth",
    "spill_bnl_fallbacks",
    "spill_peak_resident_rows",
    "fault.injected_panics",
    "fault.injected_transients",
    "fault.injected_worker_losses",
    "fault.injected_stragglers",
    "fault.dropped_deliveries",
    "fault.duplicated_deliveries",
    "fault.duplicates_discarded",
    "fault.task_retries",
    "fault.reexecutions",
    "fault.speculations",
    "fault.delivery_retries",
    "fault.retry_exhaustions",
    "fault.sim_clock_ms",
    "udf.summarize_violations",
    "udf.merge_violations",
    "udf.divide_violations",
    "udf.assign_violations",
    "udf.match_violations",
    "udf.verify_violations",
    "udf.dedup_violations",
    "udf.caught_panics",
    "udf.budget_overruns",
    "udf.contract_breaches",
    "udf.quarantined_rows",
    "udf.fallback_activations",
    "recovery.checkpoints_written",
    "recovery.checkpoint_bytes_written",
    "recovery.checkpoints_read",
    "recovery.checkpoints_evicted",
    "recovery.partitions_restored",
    "recovery.partitions_recomputed",
    "recovery.full_stage_replays",
    "recovery.deaths_survived",
    "recovery.workers_quarantined",
    "recovery.stages_resumed",
    "recovery.resume_rows_restored",
    "recovery.resume_full_replays",
    "durability.wal_records_appended",
    "durability.wal_bytes_appended",
    "durability.wal_fsyncs",
    "durability.fsyncs_dropped",
    "durability.snapshots_written",
    "durability.snapshot_bytes_written",
    "durability.wal_records_replayed",
    "durability.rows_replayed",
    "durability.torn_tails_truncated",
    "durability.corrupt_records_quarantined",
    "durability.corrupt_snapshots_quarantined",
    "durability.replay_quarantined",
    "durability.journal_records_appended",
    "durability.journal_records_replayed",
    "durability.faults_injected",
    "serving.admissions",
    "serving.rejections",
    "serving.plan_cache_hits",
    "serving.plan_cache_misses",
    "serving.plan_cache_evictions",
    "serving.result_cache_hits",
    "serving.result_cache_misses",
    "serving.result_cache_invalidations",
    "serving.result_cache_evictions",
    "serving.queue_depth_high_water",
];

/// The two engine high-water marks; every other journaled counter sums.
const MAX_KIND: [&str; 2] = ["spill_recursion_depth", "spill_peak_resident_rows"];

/// `FUDJWAL1` magic + one `StageCommitted` frame (seq 7, fingerprint
/// 0xF00DCAFE12345678, stage `join:combine`, the 27 counters valued
/// 101..=127 in journal order, phases summarize/divide/partition), encoded
/// by the parent commit's build.
const PARENT_STAGE_COMMITTED_FRAME: [u8; 985] = [
    209, 3, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 7, 120, 86, 52, 18, 254, 202, 13, 240, 12, 0, 0, 0, 106,
    111, 105, 110, 58, 99, 111, 109, 98, 105, 110, 101, 27, 0, 0, 0, 13, 0, 0, 0, 114, 111, 119,
    115, 95, 115, 104, 117, 102, 102, 108, 101, 100, 101, 0, 0, 0, 0, 0, 0, 0, 14, 0, 0, 0, 98,
    121, 116, 101, 115, 95, 115, 104, 117, 102, 102, 108, 101, 100, 102, 0, 0, 0, 0, 0, 0, 0, 14,
    0, 0, 0, 114, 111, 119, 115, 95, 98, 114, 111, 97, 100, 99, 97, 115, 116, 103, 0, 0, 0, 0, 0,
    0, 0, 15, 0, 0, 0, 98, 121, 116, 101, 115, 95, 98, 114, 111, 97, 100, 99, 97, 115, 116, 104, 0,
    0, 0, 0, 0, 0, 0, 11, 0, 0, 0, 115, 116, 97, 116, 101, 95, 98, 121, 116, 101, 115, 105, 0, 0,
    0, 0, 0, 0, 0, 12, 0, 0, 0, 118, 101, 114, 105, 102, 121, 95, 99, 97, 108, 108, 115, 106, 0, 0,
    0, 0, 0, 0, 0, 16, 0, 0, 0, 100, 101, 100, 117, 112, 95, 114, 101, 106, 101, 99, 116, 105, 111,
    110, 115, 107, 0, 0, 0, 0, 0, 0, 0, 12, 0, 0, 0, 115, 112, 105, 108, 108, 101, 100, 95, 114,
    111, 119, 115, 108, 0, 0, 0, 0, 0, 0, 0, 13, 0, 0, 0, 115, 112, 105, 108, 108, 101, 100, 95,
    98, 121, 116, 101, 115, 109, 0, 0, 0, 0, 0, 0, 0, 25, 0, 0, 0, 115, 112, 105, 108, 108, 95,
    114, 101, 115, 105, 100, 101, 110, 116, 95, 112, 97, 114, 116, 105, 116, 105, 111, 110, 115,
    110, 0, 0, 0, 0, 0, 0, 0, 24, 0, 0, 0, 115, 112, 105, 108, 108, 95, 115, 112, 105, 108, 108,
    101, 100, 95, 112, 97, 114, 116, 105, 116, 105, 111, 110, 115, 111, 0, 0, 0, 0, 0, 0, 0, 12, 0,
    0, 0, 115, 112, 105, 108, 108, 95, 112, 97, 115, 115, 101, 115, 112, 0, 0, 0, 0, 0, 0, 0, 21,
    0, 0, 0, 115, 112, 105, 108, 108, 95, 114, 101, 99, 117, 114, 115, 105, 111, 110, 95, 100, 101,
    112, 116, 104, 113, 0, 0, 0, 0, 0, 0, 0, 19, 0, 0, 0, 115, 112, 105, 108, 108, 95, 98, 110,
    108, 95, 102, 97, 108, 108, 98, 97, 99, 107, 115, 114, 0, 0, 0, 0, 0, 0, 0, 24, 0, 0, 0, 115,
    112, 105, 108, 108, 95, 112, 101, 97, 107, 95, 114, 101, 115, 105, 100, 101, 110, 116, 95, 114,
    111, 119, 115, 115, 0, 0, 0, 0, 0, 0, 0, 28, 0, 0, 0, 114, 101, 99, 111, 118, 101, 114, 121,
    46, 99, 104, 101, 99, 107, 112, 111, 105, 110, 116, 115, 95, 119, 114, 105, 116, 116, 101, 110,
    116, 0, 0, 0, 0, 0, 0, 0, 33, 0, 0, 0, 114, 101, 99, 111, 118, 101, 114, 121, 46, 99, 104, 101,
    99, 107, 112, 111, 105, 110, 116, 95, 98, 121, 116, 101, 115, 95, 119, 114, 105, 116, 116, 101,
    110, 117, 0, 0, 0, 0, 0, 0, 0, 25, 0, 0, 0, 114, 101, 99, 111, 118, 101, 114, 121, 46, 99, 104,
    101, 99, 107, 112, 111, 105, 110, 116, 115, 95, 114, 101, 97, 100, 118, 0, 0, 0, 0, 0, 0, 0,
    28, 0, 0, 0, 114, 101, 99, 111, 118, 101, 114, 121, 46, 99, 104, 101, 99, 107, 112, 111, 105,
    110, 116, 115, 95, 101, 118, 105, 99, 116, 101, 100, 119, 0, 0, 0, 0, 0, 0, 0, 28, 0, 0, 0,
    114, 101, 99, 111, 118, 101, 114, 121, 46, 112, 97, 114, 116, 105, 116, 105, 111, 110, 115, 95,
    114, 101, 115, 116, 111, 114, 101, 100, 120, 0, 0, 0, 0, 0, 0, 0, 30, 0, 0, 0, 114, 101, 99,
    111, 118, 101, 114, 121, 46, 112, 97, 114, 116, 105, 116, 105, 111, 110, 115, 95, 114, 101, 99,
    111, 109, 112, 117, 116, 101, 100, 121, 0, 0, 0, 0, 0, 0, 0, 27, 0, 0, 0, 114, 101, 99, 111,
    118, 101, 114, 121, 46, 102, 117, 108, 108, 95, 115, 116, 97, 103, 101, 95, 114, 101, 112, 108,
    97, 121, 115, 122, 0, 0, 0, 0, 0, 0, 0, 24, 0, 0, 0, 114, 101, 99, 111, 118, 101, 114, 121, 46,
    100, 101, 97, 116, 104, 115, 95, 115, 117, 114, 118, 105, 118, 101, 100, 123, 0, 0, 0, 0, 0, 0,
    0, 28, 0, 0, 0, 114, 101, 99, 111, 118, 101, 114, 121, 46, 119, 111, 114, 107, 101, 114, 115,
    95, 113, 117, 97, 114, 97, 110, 116, 105, 110, 101, 100, 124, 0, 0, 0, 0, 0, 0, 0, 23, 0, 0, 0,
    114, 101, 99, 111, 118, 101, 114, 121, 46, 115, 116, 97, 103, 101, 115, 95, 114, 101, 115, 117,
    109, 101, 100, 125, 0, 0, 0, 0, 0, 0, 0, 29, 0, 0, 0, 114, 101, 99, 111, 118, 101, 114, 121,
    46, 114, 101, 115, 117, 109, 101, 95, 114, 111, 119, 115, 95, 114, 101, 115, 116, 111, 114,
    101, 100, 126, 0, 0, 0, 0, 0, 0, 0, 28, 0, 0, 0, 114, 101, 99, 111, 118, 101, 114, 121, 46,
    114, 101, 115, 117, 109, 101, 95, 102, 117, 108, 108, 95, 114, 101, 112, 108, 97, 121, 115,
    127, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 9, 0, 0, 0, 115, 117, 109, 109, 97, 114, 105, 122, 101,
    6, 0, 0, 0, 100, 105, 118, 105, 100, 101, 9, 0, 0, 0, 112, 97, 114, 116, 105, 116, 105, 111,
    110, 51, 213, 198, 101,
];

fn names<S: AsRef<str>>(pairs: &[(S, u64)]) -> Vec<&str> {
    pairs.iter().map(|(n, _)| n.as_ref()).collect()
}

#[test]
fn journal_names_and_order_are_pinned() {
    let flat = flatten_counters(&MetricsSnapshot::default());
    assert_eq!(names(&flat), JOURNAL_NAMES);
    assert_eq!(EngineStats::LEN + RecoveryStats::LEN, JOURNAL_NAMES.len());
}

#[test]
fn fingerprint_membership_is_pinned() {
    let counters = MetricsSnapshot::default().fingerprint().counters();
    assert_eq!(names(&counters), FINGERPRINT_NAMES);
    // The journal is the engine + recovery slice of the fingerprint.
    let journaled: Vec<&str> = FINGERPRINT_NAMES
        .iter()
        .copied()
        .filter(|n| !n.contains('.') || n.starts_with("recovery."))
        .collect();
    assert_eq!(journaled, JOURNAL_NAMES);
}

#[test]
fn a_journal_frame_written_before_the_tables_still_resumes() {
    let mut segment = b"FUDJWAL1".to_vec();
    segment.extend_from_slice(&PARENT_STAGE_COMMITTED_FRAME);
    let replay = replay_wal(&segment);
    assert!(!replay.torn_tail && replay.quarantined == 0, "{replay:?}");
    let [(
        7,
        WalRecord::StageCommitted {
            fingerprint,
            stage,
            counters,
            phases,
        },
    )] = replay.records.as_slice()
    else {
        panic!(
            "expected one StageCommitted record, got {:?}",
            replay.records
        );
    };
    assert_eq!(*fingerprint, 0xF00D_CAFE_1234_5678);
    assert_eq!(stage, "join:combine");
    let expected: Vec<(String, u64)> = JOURNAL_NAMES
        .iter()
        .zip(101u64..)
        .map(|(n, v)| (n.to_string(), v))
        .collect();
    assert_eq!(counters, &expected);

    let mut snap = MetricsSnapshot::default();
    let seed = CounterSeed {
        counters: counters.clone(),
        phases: phases.clone(),
    };
    apply_seed(&mut snap, &seed);
    assert_eq!(flatten_counters(&snap), expected);
    assert_eq!(snap.rows_shuffled, 101);
    assert_eq!(snap.spill_peak_resident_rows, 115);
    assert_eq!(snap.recovery.checkpoints_written, 116);
    assert_eq!(snap.recovery.resume_full_replays, 127);
    assert_eq!(snap.phase_names(), ["summarize", "divide", "partition"]);
}

proptest! {
    /// For arbitrary counter values, a seed made of `flatten(s)` applied to
    /// an empty snapshot reproduces the engine + recovery groups of `s`;
    /// applied again, volume counters double and high-water marks hold.
    #[test]
    fn seed_round_trip_reproduces_engine_and_recovery_groups(
        values in prop::collection::vec(0u64..(1 << 62), 27..28),
    ) {
        let seed = CounterSeed {
            counters: JOURNAL_NAMES.iter().map(|n| n.to_string()).zip(values.iter().copied()).collect(),
            phases: Vec::new(),
        };
        let mut s = MetricsSnapshot::default();
        apply_seed(&mut s, &seed);
        let flat = flatten_counters(&s);
        prop_assert_eq!(&flat, &seed.counters);

        let mut again = MetricsSnapshot::default();
        apply_seed(&mut again, &CounterSeed { counters: flat.clone(), phases: Vec::new() });
        prop_assert_eq!(again.engine, s.engine);
        prop_assert_eq!(again.recovery, s.recovery);

        apply_seed(&mut again, &CounterSeed { counters: flat, phases: Vec::new() });
        for ((name, twice), once) in flatten_counters(&again).iter().zip(&values) {
            let expected = if MAX_KIND.contains(&name.as_str()) { *once } else { 2 * once };
            prop_assert_eq!(*twice, expected, "{}", name);
        }
    }
}
