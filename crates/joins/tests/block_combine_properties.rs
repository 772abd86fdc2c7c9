//! Property tests: one matched bucket pair through
//! `FudjEngineJoin::local_join_pairs` (adapter → guard → proxy, one
//! `verify_block` call) agrees with the nested loop over the single-pair
//! `EngineJoin::verify` it replaced — on the pairs emitted, on the first
//! error (a `UdfViolation`'s phase, site and detail included) and on every
//! `UdfStats` counter — for the three library joins and for the adversarial
//! `verify` fixtures, under `FailFast` and `Quarantine`.

use fudj_core::{
    BucketId, EngineJoin, FudjEngineJoin, GuardConfig, GuardedJoin, JoinAlgorithm, ProxyJoin, Side,
    UdfPolicy, UdfStats,
};
use fudj_geo::{Point, Polygon, Rect};
use fudj_joins::evil::{EqualityFudj, EvilJoin, EvilMode, EvilPhase};
use fudj_joins::{IntervalFudj, SpatialFudj, TextSimilarityFudj};
use fudj_temporal::Interval;
use fudj_types::{Result, Value};
use proptest::prelude::*;
use std::sync::Arc;

/// Pairs emitted, first error, guard counters.
type Outcome = (Vec<(usize, usize)>, Result<()>, UdfStats);

/// The strategy the planner builds: the algorithm, guarded unless `guard` is
/// `None`, behind the translating adapter.
fn engine_join(alg: Arc<dyn JoinAlgorithm>, guard: Option<GuardConfig>) -> FudjEngineJoin {
    match guard {
        Some(config) => FudjEngineJoin::new(Arc::new(GuardedJoin::new(alg, config))),
        None => FudjEngineJoin::new(alg),
    }
}

/// SUMMARIZE and DIVIDE over both sides, then COMBINE the two sides as one
/// bucket pair: through the block entry point, or pair by pair.
fn combine(
    ej: &FudjEngineJoin,
    params: &[Value],
    (b1, b2): (BucketId, BucketId),
    left: &[Value],
    right: &[Value],
    block: bool,
) -> Outcome {
    let summarize = |side: Side, keys: &[Value]| {
        let mut summary = ej.new_summary(side);
        for key in keys {
            ej.local_aggregate(side, key, &mut summary)
                .expect("summarize");
        }
        summary
    };
    let plan = ej
        .divide(
            &summarize(Side::Left, left),
            &summarize(Side::Right, right),
            params,
        )
        .expect("divide");

    let mut pairs = Vec::new();
    let result = if block {
        ej.local_join_pairs(b1, left, b2, right, &plan, &mut |i, j| pairs.push((i, j)))
    } else {
        (|| {
            for (i, k1) in left.iter().enumerate() {
                for (j, k2) in right.iter().enumerate() {
                    if ej.verify(b1, k1, b2, k2, &plan)? {
                        pairs.push((i, j));
                    }
                }
            }
            Ok(())
        })()
    };
    let stats = ej.guard().map(|g| g.stats()).unwrap_or_default();
    (pairs, result, stats)
}

/// Both paths on fresh strategies (fresh counters), compared field for field.
fn assert_paths_agree(
    make: &dyn Fn() -> Arc<dyn JoinAlgorithm>,
    guard: Option<GuardConfig>,
    params: &[Value],
    buckets: (BucketId, BucketId),
    left: &[Value],
    right: &[Value],
) -> Outcome {
    let run = |block: bool| {
        let ej = engine_join(make(), guard.clone());
        combine(&ej, params, buckets, left, right, block)
    };
    let (by_block, by_pair) = (run(true), run(false));
    assert_eq!(by_block, by_pair, "block path vs per-pair path");
    by_block
}

/// A well-behaved library: no error, and the guard stayed invisible.
fn assert_clean((_, result, stats): Outcome) {
    assert_eq!(result, Ok(()));
    assert_eq!(stats, UdfStats::default());
}

/// `None` = unguarded; otherwise a policy and a contract-probe rate.
fn arb_guard() -> impl Strategy<Value = Option<GuardConfig>> {
    (
        prop::sample::select(vec![
            None,
            Some(UdfPolicy::FailFast),
            Some(UdfPolicy::Quarantine),
        ]),
        prop::sample::select(vec![0u64, 1, 5, 16]),
    )
        .prop_map(|(policy, check_sample)| {
            policy.map(|policy| {
                let mut config = GuardConfig::with_policy(policy);
                config.limits.check_sample = check_sample;
                config
            })
        })
}

fn arb_buckets() -> impl Strategy<Value = (BucketId, BucketId)> {
    (0u64..6, 0u64..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn spatial_block_agrees_with_per_pair(
        parks in prop::collection::vec((0.0f64..90.0, 0.0f64..90.0, 0.5f64..12.0, 0.5f64..12.0), 1..7),
        fires in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..9),
        guard in arb_guard(),
        buckets in arb_buckets(),
    ) {
        let left: Vec<Value> = parks
            .iter()
            .map(|&(x, y, w, h)| Value::polygon(Polygon::from_rect(&Rect::new(x, y, x + w, y + h))))
            .collect();
        let right: Vec<Value> = fires.iter().map(|&(x, y)| Value::Point(Point::new(x, y))).collect();
        assert_clean(assert_paths_agree(
            &|| Arc::new(ProxyJoin::new(SpatialFudj::new())),
            guard,
            &[Value::Int64(8)],
            buckets,
            &left,
            &right,
        ));
    }

    #[test]
    fn interval_block_agrees_with_per_pair(
        left in prop::collection::vec((0i64..5_000, 0i64..900), 1..8),
        right in prop::collection::vec((0i64..5_000, 0i64..900), 1..8),
        guard in arb_guard(),
        buckets in arb_buckets(),
    ) {
        let intervals = |side: &[(i64, i64)]| -> Vec<Value> {
            side.iter().map(|&(s, len)| Value::Interval(Interval::new(s, s + len))).collect()
        };
        assert_clean(assert_paths_agree(
            &|| Arc::new(ProxyJoin::new(IntervalFudj::new())),
            guard,
            &[Value::Int64(16)],
            buckets,
            &intervals(&left),
            &intervals(&right),
        ));
    }

    #[test]
    fn text_block_agrees_with_per_pair(
        left in prop::collection::vec(prop::collection::vec(0usize..6, 1..5), 1..7),
        right in prop::collection::vec(prop::collection::vec(0usize..6, 1..5), 1..7),
        guard in arb_guard(),
        buckets in arb_buckets(),
    ) {
        const VOCAB: [&str; 6] = ["river", "trail", "lake", "peak", "camp", "view"];
        let texts = |side: &[Vec<usize>]| -> Vec<Value> {
            side.iter()
                .map(|words| Value::str(words.iter().map(|&w| VOCAB[w]).collect::<Vec<_>>().join(" ")))
                .collect()
        };
        assert_clean(assert_paths_agree(
            &|| Arc::new(ProxyJoin::new(TextSimilarityFudj::new())),
            guard,
            &[Value::Float64(0.5)],
            buckets,
            &texts(&left),
            &texts(&right),
        ));
    }

    /// A `verify` that panics, or burns simulated time, on poisoned left
    /// keys: the block path must fail on the same pair with the same site
    /// (FailFast) or drop the same pairs and count the same sites
    /// (Quarantine).
    #[test]
    fn evil_verify_block_agrees_with_per_pair(
        left in prop::collection::vec(0i64..40, 1..9),
        right in prop::collection::vec(0i64..40, 1..9),
        mode in prop::sample::select(vec![
            EvilMode::Tame,
            EvilMode::PanicIn(EvilPhase::Verify),
            EvilMode::HangIn(EvilPhase::Verify, 60_000),
            EvilMode::HangIn(EvilPhase::Verify, 4_000),
        ]),
        policy in prop::sample::select(vec![UdfPolicy::FailFast, UdfPolicy::Quarantine]),
        buckets in arb_buckets(),
    ) {
        let longs = |side: &[i64]| -> Vec<Value> { side.iter().map(|&v| Value::Int64(v)).collect() };
        let (_, result, stats) = assert_paths_agree(
            &|| Arc::new(EvilJoin::new(Arc::new(EqualityFudj), mode)),
            Some(GuardConfig::with_policy(policy)),
            &[],
            buckets,
            &longs(&left),
            &longs(&right),
        );
        if policy == UdfPolicy::Quarantine {
            prop_assert_eq!(result, Ok(()));
            prop_assert_eq!(stats.quarantined_rows, stats.verify_violations);
        }
    }
}

/// The property above is not vacuous: on a block with a poisoned left key
/// the two policies do what they say, through the block path.
#[test]
fn panicking_verify_in_a_block_fails_fast_or_drops_the_poisoned_rows() {
    use fudj_joins::poisoned;
    use fudj_types::{ext, FudjError};

    let is_poisoned = |v: &i64| poisoned(&ext::to_external(&Value::Int64(*v)).unwrap());
    let poison = (0..1000).find(is_poisoned).unwrap();
    let clean = (0..1000).find(|v| !is_poisoned(v)).unwrap();
    let left = [Value::Int64(clean), Value::Int64(poison)];
    let right = [Value::Int64(poison), Value::Int64(clean)];
    let make = || -> Arc<dyn JoinAlgorithm> {
        Arc::new(EvilJoin::new(
            Arc::new(EqualityFudj),
            EvilMode::PanicIn(EvilPhase::Verify),
        ))
    };

    let (pairs, result, stats) = assert_paths_agree(
        &make,
        Some(GuardConfig::with_policy(UdfPolicy::FailFast)),
        &[],
        (3, 3),
        &left,
        &right,
    );
    assert_eq!(
        pairs,
        vec![(0, 1)],
        "the clean row's pairs precede the panic"
    );
    assert!(
        matches!(&result, Err(FudjError::UdfViolation { phase, .. }) if phase == "verify"),
        "{result:?}"
    );
    assert_eq!((stats.verify_violations, stats.caught_panics), (1, 1));

    let (pairs, result, stats) = assert_paths_agree(
        &make,
        Some(GuardConfig::with_policy(UdfPolicy::Quarantine)),
        &[],
        (3, 3),
        &left,
        &right,
    );
    assert_eq!(result, Ok(()));
    assert_eq!(
        pairs,
        vec![(0, 1)],
        "both of the poisoned row's pairs dropped"
    );
    assert_eq!((stats.verify_violations, stats.quarantined_rows), (2, 2));
}
