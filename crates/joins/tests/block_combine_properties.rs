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
//!
//! The same holds for SUMMARIZE and ASSIGN: `summarize_slice` and
//! `assign_slice`, one block call per chunk of keys through the guard's
//! block runner, agree with the per-key `local_aggregate` and `assign` on
//! the summaries, the PPlan, every key's bucket list, the first error and
//! every counter.

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

// -- SUMMARIZE and ASSIGN: block ≡ per key ------------------------------------

/// An order-insensitive rendering of a state: its `Debug` text with the
/// characters sorted, since hash-map states print their entries in a
/// different order on every run.
fn canonical(state: &impl std::fmt::Debug) -> Vec<char> {
    let mut chars: Vec<char> = format!("{state:?}").chars().collect();
    chars.sort_unstable();
    chars
}

/// Both summaries' serialized sizes and renderings, the PPlan's, each side's
/// `(key index, sorted bucket ids)` list, the first error, guard counters.
type FlowOutcome = (
    Vec<(usize, Vec<char>)>,
    Option<(usize, Vec<char>)>,
    [Vec<(usize, Vec<BucketId>)>; 2],
    Result<()>,
    UdfStats,
);

/// SUMMARIZE, DIVIDE and ASSIGN over both sides: through the slice entry
/// points, one block call per chunk of keys, or key by key through the
/// per-key calls.
fn summarize_and_assign(
    ej: &FudjEngineJoin,
    params: &[Value],
    left: &[Value],
    right: &[Value],
    block: bool,
) -> FlowOutcome {
    let (mut summaries, mut plan_seen, mut buckets) = (Vec::new(), None, [Vec::new(), Vec::new()]);
    let sides = [(Side::Left, left), (Side::Right, right)];
    let result = (|| {
        let mut states = Vec::new();
        for (side, keys) in sides {
            let mut summary = ej.new_summary(side);
            if block {
                ej.summarize_slice(side, &keys.iter().collect::<Vec<_>>(), &mut summary)?;
            } else {
                for key in keys {
                    ej.local_aggregate(side, key, &mut summary)?;
                }
            }
            summaries.push((summary.serialized_len(), canonical(&summary)));
            states.push(summary);
        }
        let plan = ej.divide(&states[0], &states[1], params)?;
        plan_seen = Some((plan.serialized_len(), canonical(&plan)));
        for (s, (side, keys)) in sides.into_iter().enumerate() {
            if let Some(g) = ej.guard() {
                g.begin_partition();
            }
            let seen = &mut buckets[s];
            if block {
                let keys: Vec<&Value> = keys.iter().collect();
                ej.assign_slice(side, &keys, &plan, &mut |i, ids| {
                    seen.push((i, ids.to_vec()))
                })?;
            } else {
                let mut out = Vec::new();
                for (i, key) in keys.iter().enumerate() {
                    out.clear();
                    ej.assign(side, key, &plan, &mut out)?;
                    out.sort_unstable();
                    out.dedup();
                    seen.push((i, out.clone()));
                }
            }
        }
        Ok(())
    })();
    let stats = ej.guard().map(|g| g.stats()).unwrap_or_default();
    (summaries, plan_seen, buckets, result, stats)
}

/// Both paths on fresh strategies, compared field for field; also that the
/// block path crossed the boundary once per key per phase, as the per-key
/// path does.
fn assert_flows_agree(
    make: &dyn Fn() -> Arc<dyn JoinAlgorithm>,
    guard: Option<GuardConfig>,
    params: &[Value],
    left: &[Value],
    right: &[Value],
) -> FlowOutcome {
    let run = |block: bool| {
        let ej = engine_join(make(), guard.clone());
        let outcome = summarize_and_assign(&ej, params, left, right, block);
        (outcome, ej.translation_count())
    };
    let ((by_block, block_xlates), (by_key, key_xlates)) = (run(true), run(false));
    assert_eq!(by_block, by_key, "block path vs per-key path");
    if by_block.3.is_ok() {
        assert_eq!(block_xlates, key_xlates, "translations");
    }
    by_block
}

fn longs(side: &[i64]) -> Vec<Value> {
    side.iter().map(|&v| Value::Int64(v)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn spatial_summarize_and_assign_blocks_agree_with_per_key(
        parks in prop::collection::vec((0.0f64..90.0, 0.0f64..90.0, 0.5f64..30.0, 0.5f64..30.0), 1..20),
        fires in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 1..30),
        guard in arb_guard(),
        grid in prop::sample::select(vec![4i64, 16, 64]),
    ) {
        let left: Vec<Value> = parks
            .iter()
            .map(|&(x, y, w, h)| Value::polygon(Polygon::from_rect(&Rect::new(x, y, x + w, y + h))))
            .collect();
        let right: Vec<Value> = fires.iter().map(|&(x, y)| Value::Point(Point::new(x, y))).collect();
        let (_, _, _, result, stats) = assert_flows_agree(
            &|| Arc::new(ProxyJoin::new(SpatialFudj::new())),
            guard,
            &[Value::Int64(grid)],
            &left,
            &right,
        );
        prop_assert_eq!((result, stats), (Ok(()), UdfStats::default()));
    }

    #[test]
    fn interval_summarize_and_assign_blocks_agree_with_per_key(
        left in prop::collection::vec((0i64..5_000, 0i64..900), 1..30),
        right in prop::collection::vec((0i64..5_000, 0i64..900), 1..30),
        guard in arb_guard(),
        granules in prop::sample::select(vec![4i64, 16, 128]),
    ) {
        let intervals = |side: &[(i64, i64)]| -> Vec<Value> {
            side.iter().map(|&(s, len)| Value::Interval(Interval::new(s, s + len))).collect()
        };
        let (_, _, _, result, stats) = assert_flows_agree(
            &|| Arc::new(ProxyJoin::new(IntervalFudj::new())),
            guard,
            &[Value::Int64(granules)],
            &intervals(&left),
            &intervals(&right),
        );
        prop_assert_eq!((result, stats), (Ok(()), UdfStats::default()));
    }

    #[test]
    fn text_summarize_and_assign_blocks_agree_with_per_key(
        left in prop::collection::vec(arb_text(), 1..20),
        right in prop::collection::vec(arb_text(), 1..20),
        threshold in prop::sample::select(vec![0.3f64, 0.5, 0.9]),
        guard in arb_guard(),
    ) {
        let texts = |side: &[String]| -> Vec<Value> { side.iter().map(Value::str).collect() };
        let (_, _, _, result, stats) = assert_flows_agree(
            &|| Arc::new(ProxyJoin::new(TextSimilarityFudj::new())),
            guard,
            &[Value::Float64(threshold)],
            &texts(&left),
            &texts(&right),
        );
        prop_assert_eq!((result, stats), (Ok(()), UdfStats::default()));
    }

    /// A library that panics or hangs in `local_aggregate` or `assign`, emits
    /// an out-of-range bucket, over-replicates or assigns a key differently
    /// after its first call, on poisoned keys wherever they fall: the block
    /// path must fail at the same key with the same site, or quarantine the
    /// same keys and count the same sites, at every probe rate. A 4 s hang
    /// is within the per-call budget, so only a block holding three or more
    /// poisoned keys goes over it in sum, is replayed, and comes out clean.
    #[test]
    fn evil_summarize_and_assign_blocks_agree_with_per_key(
        left in prop::collection::vec(0i64..60, 1..40),
        right in prop::collection::vec(0i64..60, 1..40),
        mode in prop::sample::select(vec![
            EvilMode::Tame,
            EvilMode::PanicIn(EvilPhase::Summarize),
            EvilMode::PanicIn(EvilPhase::Assign),
            EvilMode::HangIn(EvilPhase::Summarize, 60_000),
            EvilMode::HangIn(EvilPhase::Summarize, 4_000),
            EvilMode::HangIn(EvilPhase::Assign, 60_000),
            EvilMode::HangIn(EvilPhase::Assign, 4_000),
            EvilMode::OutOfRangeBucket,
            EvilMode::OverReplicate(64),
            EvilMode::NonDeterministicAssign,
        ]),
        policy in prop::sample::select(vec![UdfPolicy::FailFast, UdfPolicy::Quarantine]),
        check_sample in prop::sample::select(vec![0u64, 1, 3, 16]),
        max_assign_fanout in prop::sample::select(vec![1u64 << 24, 24]),
    ) {
        let mut config = GuardConfig::with_policy(policy);
        config.limits.check_sample = check_sample;
        config.limits.max_buckets_per_key = 16;
        config.limits.max_assign_fanout = max_assign_fanout;
        let (_, _, _, result, stats) = assert_flows_agree(
            &|| Arc::new(EvilJoin::new(Arc::new(EqualityFudj), mode)),
            Some(config),
            &[],
            &longs(&left),
            &longs(&right),
        );
        if policy == UdfPolicy::Quarantine {
            prop_assert_eq!(result, Ok(()));
            prop_assert_eq!(
                stats.quarantined_rows,
                stats.summarize_violations + stats.assign_violations
            );
        }
    }
}

/// Keys past one block: the slice entry points hand the library more than
/// one chunk, and a misbehaving key in a later chunk is found at its own
/// index, by either policy.
#[test]
fn summarize_and_assign_agree_across_chunks() {
    let keys = longs(&(0..2_500).map(|v| v % 700).collect::<Vec<_>>());
    for mode in [
        EvilMode::Tame,
        EvilMode::PanicIn(EvilPhase::Summarize),
        EvilMode::PanicIn(EvilPhase::Assign),
        EvilMode::NonDeterministicAssign,
    ] {
        for policy in [UdfPolicy::FailFast, UdfPolicy::Quarantine] {
            let mut config = GuardConfig::with_policy(policy);
            config.limits.check_sample = 3;
            let (summaries, _, buckets, result, stats) = assert_flows_agree(
                &|| Arc::new(EvilJoin::new(Arc::new(EqualityFudj), mode)),
                Some(config),
                &[],
                &keys,
                &keys[..1_300],
            );
            if (mode, result.is_ok()) == (EvilMode::Tame, true) {
                assert_eq!(summaries.len(), 2);
                assert_eq!(buckets[0].len(), 2_500);
                assert_eq!(stats, UdfStats::default());
            }
            if policy == UdfPolicy::Quarantine {
                assert_eq!(result, Ok(()), "{mode:?}");
                assert_eq!(buckets[0].len(), 2_500, "{mode:?}: every key is reported");
            } else if mode != EvilMode::Tame {
                assert!(
                    matches!(&result, Err(FudjError::UdfViolation { .. })),
                    "{mode:?}: {result:?}"
                );
            }
        }
    }
}
