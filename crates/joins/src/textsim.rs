//! Text-similarity FUDJ — prefix-filtered set-similarity join (§V-B).
//!
//! ```text
//! SUMMARIZE(text, S):   for token in tokenize(text): S[token] += 1
//! DIVIDE(S1, S2, t):    merge counts, rank tokens rarest-first → PPlan(ranks, t)
//! ASSIGN(text, PPlan):  first p ranks of the record's tokens,
//!                       p = (l − ceil(t·l)) + 1
//! MATCH:                default (rank equality)
//! PREPARE(text):        tokens(text)             (once per record per block)
//! VERIFY(t1, t2):       jaccard(tokens(t1), tokens(t2)) ≥ t
//! ```
//!
//! Prefix assignment multi-assigns, so duplicate handling matters: the
//! default is the framework's avoidance (the paper's Fig. 12a shows it beats
//! the original algorithm's elimination step by ~1.15×); elimination is
//! available for that comparison.
//!
//! Records whose token set is empty are never assigned to a bucket and thus
//! never join — the standard prefix-filtering behavior.

use fudj_core::{DedupMode, FlexibleJoin};
use fudj_text::{jaccard_of_sorted, prefix_length, token_set, tokenize, TokenCounts, TokenRanks};
use fudj_types::{ExtValue, FudjError, Result};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Duplicate-handling flavor for the text join (Fig. 12a's subjects).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum TextDedup {
    /// The framework's default duplicate avoidance.
    #[default]
    Avoidance,
    /// Post-join duplicate elimination (the original algorithm's approach).
    Elimination,
}

/// Set-similarity join with prefix filtering, as a FUDJ library class
/// (`"setsimilarity.SetSimilarityJoin"` in [`crate::standard_library`]).
#[derive(Clone, Debug, Default)]
pub struct TextSimilarityFudj {
    dedup: TextDedup,
}

/// The text `PPlan`: global token ranks + the similarity threshold. The
/// threshold lives in the plan because ASSIGN needs it for the prefix length
/// (the paper embeds it in the caller signature for the same reason).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TextPPlan {
    pub ranks: TokenRanks,
    pub threshold: f64,
}

impl TextSimilarityFudj {
    /// Prefix-filtering join with the framework's default avoidance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prefix-filtering join with a chosen duplicate-handling flavor.
    pub fn with_dedup(dedup: TextDedup) -> Self {
        TextSimilarityFudj { dedup }
    }
}

impl FlexibleJoin for TextSimilarityFudj {
    type Summary = TokenCounts;
    type PPlan = TextPPlan;

    fn name(&self) -> &str {
        "text_similarity_join"
    }

    fn summarize(&self, key: &ExtValue, summary: &mut TokenCounts) -> Result<()> {
        for token in tokenize(key.as_text()?) {
            summary.observe(&token);
        }
        Ok(())
    }

    fn merge_summaries(&self, mut a: TokenCounts, b: TokenCounts) -> TokenCounts {
        a.merge(&b);
        a
    }

    fn divide(
        &self,
        left: &TokenCounts,
        right: &TokenCounts,
        params: &[ExtValue],
    ) -> Result<TextPPlan> {
        let threshold = match params.first() {
            Some(p) => p.as_double()?,
            None => {
                return Err(FudjError::JoinLibrary(
                    "text similarity join requires a threshold parameter".into(),
                ))
            }
        };
        if !(0.0..=1.0).contains(&threshold) || threshold == 0.0 {
            return Err(FudjError::JoinLibrary(format!(
                "similarity threshold must be in (0, 1], got {threshold}"
            )));
        }
        let mut merged = left.clone();
        merged.merge(right);
        Ok(TextPPlan {
            ranks: TokenRanks::from_counts(&merged),
            threshold,
        })
    }

    fn assign(
        &self,
        key: &ExtValue,
        pplan: &TextPPlan,
        out: &mut Vec<fudj_core::BucketId>,
    ) -> Result<()> {
        let tokens = token_set(key.as_text()?);
        let ranked = pplan.ranks.ranked_tokens(&tokens);
        let p = prefix_length(ranked.len(), pplan.threshold);
        out.extend(
            ranked[..p.min(ranked.len())]
                .iter()
                .map(|&r| r as fudj_core::BucketId),
        );
        Ok(())
    }

    fn prepare(&self, key: &ExtValue, _pplan: &TextPPlan) -> Result<Option<ExtValue>> {
        Ok(Some(ExtValue::TextArray(token_set(key.as_text()?))))
    }

    fn verify(&self, k1: &ExtValue, k2: &ExtValue, pplan: &TextPPlan) -> Result<bool> {
        Ok(jaccard_of_sorted(&tokens_of(k1)?, &tokens_of(k2)?) >= pplan.threshold)
    }

    fn dedup_mode(&self) -> DedupMode {
        match self.dedup {
            TextDedup::Avoidance => DedupMode::Avoidance,
            TextDedup::Elimination => DedupMode::Elimination,
        }
    }
}

/// A key's token set: borrowed from the form `prepare` made, tokenised here
/// from a raw text — the same strings either way.
fn tokens_of(key: &ExtValue) -> Result<Cow<'_, [String]>> {
    Ok(match key {
        ExtValue::TextArray(tokens) => Cow::Borrowed(tokens),
        text => Cow::Owned(token_set(text.as_text()?)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fudj_core::standalone::{nested_loop_reference, run_standalone};
    use fudj_core::ProxyJoin;

    fn texts(v: &[&str]) -> Vec<ExtValue> {
        v.iter().map(|s| ExtValue::Text((*s).to_owned())).collect()
    }

    const REVIEWS_A: &[&str] = &[
        "great hiking trail with scenic river views",
        "terrible food cold and late delivery",
        "scenic river hiking trail with great views",
        "the camping spot was quiet and clean",
    ];
    const REVIEWS_B: &[&str] = &[
        "great hiking trail with scenic river views today",
        "quiet clean camping spot",
        "completely unrelated text about databases",
    ];

    fn oracle(l: &[&str], r: &[&str], t: f64) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (i, a) in l.iter().enumerate() {
            for (j, b) in r.iter().enumerate() {
                let sa = token_set(a);
                let sb = token_set(b);
                if !sa.is_empty() && !sb.is_empty() && jaccard_of_sorted(&sa, &sb) >= t {
                    out.push((i, j));
                }
            }
        }
        out
    }

    #[test]
    fn divide_validates_threshold() {
        let j = TextSimilarityFudj::new();
        let c = TokenCounts::new();
        assert!(j.divide(&c, &c, &[]).is_err());
        assert!(j.divide(&c, &c, &[ExtValue::Double(0.0)]).is_err());
        assert!(j.divide(&c, &c, &[ExtValue::Double(1.5)]).is_err());
        assert!(j.divide(&c, &c, &[ExtValue::Double(0.8)]).is_ok());
    }

    #[test]
    fn assign_uses_rarest_prefix() {
        let j = TextSimilarityFudj::new();
        let mut counts = TokenCounts::new();
        // "common" appears 10 times, "rare" once, "mid" three times.
        for _ in 0..10 {
            counts.observe("common");
        }
        for _ in 0..3 {
            counts.observe("mid");
        }
        counts.observe("rare");
        let plan = TextPPlan {
            ranks: TokenRanks::from_counts(&counts),
            threshold: 0.8,
        };
        let mut out = Vec::new();
        // 3 distinct tokens, t=0.8 → p = 3 - ceil(2.4) + 1 = 1 → rarest only.
        j.assign(&ExtValue::Text("common mid rare".into()), &plan, &mut out)
            .unwrap();
        assert_eq!(out, vec![plan.ranks.rank("rare").unwrap() as u64]);
    }

    #[test]
    fn empty_text_gets_no_buckets() {
        let j = TextSimilarityFudj::new();
        let plan = TextPPlan {
            ranks: TokenRanks::default(),
            threshold: 0.9,
        };
        let mut out = Vec::new();
        j.assign(&ExtValue::Text("...".into()), &plan, &mut out)
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn standalone_matches_oracle_both_dedups() {
        for t in [0.5, 0.7, 0.9] {
            for dedup in [TextDedup::Avoidance, TextDedup::Elimination] {
                let alg = ProxyJoin::new(TextSimilarityFudj::with_dedup(dedup));
                let got = run_standalone(
                    &alg,
                    &texts(REVIEWS_A),
                    &texts(REVIEWS_B),
                    &[ExtValue::Double(t)],
                )
                .unwrap();
                assert_eq!(
                    got,
                    oracle(REVIEWS_A, REVIEWS_B, t),
                    "t={t} dedup={dedup:?}"
                );
            }
        }
    }

    #[test]
    fn agrees_with_nested_loop_reference() {
        let alg = ProxyJoin::new(TextSimilarityFudj::new());
        let l = texts(REVIEWS_A);
        let r = texts(REVIEWS_B);
        let params = [ExtValue::Double(0.6)];
        let got = run_standalone(&alg, &l, &r, &params).unwrap();
        let reference = nested_loop_reference(&alg, &l, &r, &params).unwrap();
        assert_eq!(got, reference);
    }

    #[test]
    fn identical_texts_match_at_any_threshold() {
        let alg = ProxyJoin::new(TextSimilarityFudj::new());
        let l = texts(&["alpha beta gamma"]);
        let got = run_standalone(&alg, &l, &l, &[ExtValue::Double(1.0)]).unwrap();
        assert_eq!(got, vec![(0, 0)]);
    }

    #[test]
    fn randomized_against_oracle() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let vocab = [
            "river", "trail", "lake", "peak", "camp", "view", "rock", "wood",
        ];
        let mut rng = SmallRng::seed_from_u64(12);
        let mut gen_side = |n: usize| -> Vec<String> {
            (0..n)
                .map(|_| {
                    let len = rng.gen_range(1..6);
                    (0..len)
                        .map(|_| vocab[rng.gen_range(0..vocab.len())])
                        .collect::<Vec<_>>()
                        .join(" ")
                })
                .collect()
        };
        let a = gen_side(40);
        let b = gen_side(30);
        let ar: Vec<&str> = a.iter().map(String::as_str).collect();
        let br: Vec<&str> = b.iter().map(String::as_str).collect();
        let alg = ProxyJoin::new(TextSimilarityFudj::new());
        let got = run_standalone(&alg, &texts(&ar), &texts(&br), &[ExtValue::Double(0.7)]).unwrap();
        assert_eq!(got, oracle(&ar, &br, 0.7));
    }
}
