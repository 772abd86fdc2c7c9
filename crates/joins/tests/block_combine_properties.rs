//! Property tests: one matched bucket pair through
//! `FudjEngineJoin::local_join_pairs` (adapter → guard → proxy, one
//! `verify_block` call, which hands the proxy the whole block and replays it
//! pair by pair only when it misbehaves) agrees with the nested loop over
//! the single-pair `EngineJoin::verify` it replaced — on the pairs emitted, on the first
//! error (a `UdfViolation`'s phase, site and detail included) and on every
//! `UdfStats` counter — for the three library joins and for the adversarial
//! `verify` fixtures, under `FailFast` and `Quarantine`. The per-pair path
//! never calls `prepare`, so for the text join the same comparison pins
//! `prepare`'s contract: token sets made once per key per block answer as
//! the raw texts do.

use fudj_core::{
    BucketId, EngineJoin, FlexibleJoin, FudjEngineJoin, GuardConfig, GuardedJoin, JoinAlgorithm,
    ProxyJoin, Side, UdfPolicy, UdfStats,
};
use fudj_geo::{Point, Polygon, Rect};
use fudj_joins::evil::{EqualityFudj, EvilJoin, EvilMode, EvilPhase};
use fudj_joins::{IntervalFudj, SpatialFudj, TextSimilarityFudj};
use fudj_temporal::Interval;
use fudj_text::TokenCounts;
use fudj_types::{ExtValue, FudjError, Result, Value};
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

/// Review-like texts that stress the tokeniser: empty, punctuation-only,
/// repeated tokens, mixed case, non-ASCII, separators of every kind.
fn arb_text() -> impl Strategy<Value = String> {
    const PIECES: [&str; 16] = [
        "river",
        "River",
        "RIVER",
        "trail",
        "lake",
        "peak",
        "...",
        "--",
        "über",
        "ÜBER",
        "日本",
        "café",
        "",
        "trail,trail",
        "a.b",
        "lake!",
    ];
    const SEPARATORS: [&str; 4] = [" ", ", ", "  ", "\t"];
    prop::collection::vec(
        (
            prop::sample::select(PIECES.to_vec()),
            prop::sample::select(SEPARATORS.to_vec()),
        ),
        0..6,
    )
    .prop_map(|pieces| {
        pieces
            .into_iter()
            .flat_map(|(piece, separator)| [piece, separator])
            .collect()
    })
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

    /// The same on texts that stress the tokeniser, at several thresholds:
    /// the block path verifies token sets `prepare` made once per key, the
    /// per-pair path tokenises both raw texts per call.
    #[test]
    fn text_block_on_prepared_token_sets_agrees_with_raw_per_pair(
        left in prop::collection::vec(arb_text(), 1..7),
        right in prop::collection::vec(arb_text(), 1..7),
        threshold in prop::sample::select(vec![0.3f64, 0.5, 0.9, 1.0]),
        guard in arb_guard(),
        buckets in arb_buckets(),
    ) {
        let texts = |side: &[String]| -> Vec<Value> { side.iter().map(Value::str).collect() };
        assert_clean(assert_paths_agree(
            &|| Arc::new(ProxyJoin::new(TextSimilarityFudj::new())),
            guard,
            &[Value::Float64(threshold)],
            buckets,
            &texts(&left),
            &texts(&right),
        ));
    }

    /// `prepare`'s contract on the library itself: a prepared form on both
    /// sides, on either side, or on neither gives one answer — also under a
    /// plan whose rank table has seen none of the tokens.
    #[test]
    fn text_verify_reads_prepared_and_raw_keys_alike(
        a in arb_text(),
        b in arb_text(),
        threshold in prop::sample::select(vec![0.3f64, 0.5, 0.9, 1.0]),
        plan_saw_tokens in any::<bool>(),
    ) {
        let join = TextSimilarityFudj::new();
        let (a, b) = (ExtValue::Text(a), ExtValue::Text(b));
        let mut counts = TokenCounts::new();
        if plan_saw_tokens {
            join.summarize(&a, &mut counts).unwrap();
            join.summarize(&b, &mut counts).unwrap();
        }
        let plan = join.divide(&counts, &counts, &[ExtValue::Double(threshold)]).unwrap();
        let prepare = |key: &ExtValue| join.prepare(key, &plan).unwrap().expect("text prepares");
        let (pa, pb) = (prepare(&a), prepare(&b));

        let raw = join.verify(&a, &b, &plan).unwrap();
        prop_assert_eq!(join.verify(&pa, &pb, &plan).unwrap(), raw);
        prop_assert_eq!(join.verify(&pa, &b, &plan).unwrap(), raw);
        prop_assert_eq!(join.verify(&a, &pb, &plan).unwrap(), raw);
    }

    /// A `verify` that panics, or burns simulated time, on poisoned left
    /// keys wherever they fall in the block: the block path — one
    /// optimistic call, replayed pair by pair once it misbehaves — must fail
    /// on the same pair with the same site (FailFast) or drop the same pairs
    /// and count the same sites (Quarantine), at every probe rate. A 4 s
    /// hang is within the per-call budget, so only a block of three or more
    /// poisoned pairs goes over it in sum, is replayed, and is clean.
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
        check_sample in prop::sample::select(vec![0u64, 1, 3, 16]),
        buckets in arb_buckets(),
    ) {
        let longs = |side: &[i64]| -> Vec<Value> { side.iter().map(|&v| Value::Int64(v)).collect() };
        let mut config = GuardConfig::with_policy(policy);
        config.limits.check_sample = check_sample;
        let (_, result, stats) = assert_paths_agree(
            &|| Arc::new(EvilJoin::new(Arc::new(EqualityFudj), mode)),
            Some(config),
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

/// The text join with a `prepare` that loses the key's last token.
struct DropsAToken(TextSimilarityFudj);

impl FlexibleJoin for DropsAToken {
    type Summary = <TextSimilarityFudj as FlexibleJoin>::Summary;
    type PPlan = <TextSimilarityFudj as FlexibleJoin>::PPlan;

    fn name(&self) -> &str {
        "drops_a_token"
    }
    fn summarize(&self, key: &ExtValue, summary: &mut Self::Summary) -> Result<()> {
        self.0.summarize(key, summary)
    }
    fn merge_summaries(&self, a: Self::Summary, b: Self::Summary) -> Self::Summary {
        self.0.merge_summaries(a, b)
    }
    fn divide(
        &self,
        left: &Self::Summary,
        right: &Self::Summary,
        params: &[ExtValue],
    ) -> Result<Self::PPlan> {
        self.0.divide(left, right, params)
    }
    fn assign(&self, key: &ExtValue, pplan: &Self::PPlan, out: &mut Vec<BucketId>) -> Result<()> {
        self.0.assign(key, pplan, out)
    }
    fn prepare(&self, key: &ExtValue, pplan: &Self::PPlan) -> Result<Option<ExtValue>> {
        Ok(self.0.prepare(key, pplan)?.map(|form| match form {
            ExtValue::TextArray(mut tokens) => {
                tokens.pop();
                ExtValue::TextArray(tokens)
            }
            other => other,
        }))
    }
    fn verify(&self, k1: &ExtValue, k2: &ExtValue, pplan: &Self::PPlan) -> Result<bool> {
        self.0.verify(k1, k2, pplan)
    }
}

/// A `prepare` that breaks its contract is caught by the guard's raw-key
/// replay: every pair below is {alpha} = {alpha} once the distinguishing
/// token is dropped, and 1/3 < 0.5 on the raw texts.
#[test]
fn a_prepare_that_drops_a_token_is_caught_by_the_guard_probe() {
    let texts = |tag: &str| -> Vec<Value> {
        (0..8)
            .map(|i| Value::str(format!("alpha {tag}{i}")))
            .collect()
    };
    let (left, right) = (texts("l"), texts("r"));
    let run = |policy: UdfPolicy, check_sample: u64| {
        let mut config = GuardConfig::with_policy(policy);
        config.limits.check_sample = check_sample;
        let alg: Arc<dyn JoinAlgorithm> =
            Arc::new(ProxyJoin::new(DropsAToken(TextSimilarityFudj::new())));
        let ej = engine_join(alg, Some(config));
        combine(&ej, &[Value::Float64(0.5)], (2, 2), &left, &right, true)
    };

    let (_, result, stats) = run(UdfPolicy::FailFast, 1);
    match result {
        Err(FudjError::UdfViolation { phase, detail, .. }) => {
            assert_eq!(phase, "verify");
            assert!(
                detail.contains("prepare changed verify's answer"),
                "{detail}"
            );
        }
        other => panic!("expected a contract breach, got {other:?}"),
    }
    assert_eq!((stats.verify_violations, stats.contract_breaches), (1, 1));

    // Quarantine drops the pairs the probe sampled (1 in 8 of the 64); the
    // rest are the wrong answer the probe exists to bound, and with the
    // probes off nothing is caught at all.
    let (pairs, result, stats) = run(UdfPolicy::Quarantine, 1);
    assert_eq!(result, Ok(()));
    assert!(stats.quarantined_rows >= 1);
    assert_eq!(stats.quarantined_rows, stats.contract_breaches);
    assert_eq!(pairs.len() as u64 + stats.quarantined_rows, 64);
    let (pairs, result, stats) = run(UdfPolicy::Quarantine, 0);
    assert_eq!(
        (pairs.len(), result, stats),
        (64, Ok(()), UdfStats::default())
    );
}
