//! The `\serve <seed>` REPL demo: a seeded multi-tenant workload pushed
//! through a [`fudj_serve::ServingTier`] over its own sample session,
//! reporting what the caches and admission did. Every line is a
//! deterministic count, so one seed always prints the same report.
//!
//! The demo is self-contained (it builds a fresh engine rather than
//! borrowing the REPL's session) so `\serve` never perturbs the tables or
//! knobs the user is working with.

use fudj_serve::{generate, sample_session, MixProfile, ServingTier, WorkloadConfig};
use fudj_types::Result;
use std::sync::Arc;

/// Tenants in the demo mix.
const TENANTS: u32 = 8;
/// Operations replayed through the tier.
const OPS: usize = 64;

/// Run the serving demo with the given workload seed and return the report.
pub fn run(seed: u64) -> Result<String> {
    let session = Arc::new(sample_session(60, 2)?);
    let tier = ServingTier::new(Arc::clone(&session));
    let ops = generate(&WorkloadConfig {
        tenants: TENANTS,
        ops: OPS,
        seed,
        profile: MixProfile::ShapeSkewed(1.1),
        priority_classes: 3,
    });

    let mut failures = 0usize;
    for op in &ops {
        if tier
            .serve_with_priority(op.tenant, op.priority, &op.sql)
            .is_err()
        {
            failures += 1;
        }
    }

    let stats = tier.stats();
    let mut out = String::new();
    out.push_str(&format!(
        "served {} statements from {} tenants (seed {}, {} failed)\n",
        ops.len(),
        TENANTS,
        seed,
        failures,
    ));
    out.push_str(&format!(
        "plans: {} hit / {} miss / {} evicted; results: {} hit / {} miss / \
         {} evicted, {} invalidated\n",
        stats.plan_cache_hits,
        stats.plan_cache_misses,
        stats.plan_cache_evictions,
        stats.result_cache_hits,
        stats.result_cache_misses,
        stats.result_cache_evictions,
        stats.result_cache_invalidations,
    ));
    out.push_str(&format!(
        "admissions: {} ok / {} rejected; queue depth high-water {}\n",
        stats.admissions, stats.rejections, stats.queue_depth_high_water,
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_report_is_deterministic_and_hits_caches() {
        let a = run(7).expect("demo runs");
        let b = run(7).expect("demo runs");
        assert_eq!(a, b, "same seed must produce the same report");
        assert!(a.contains("served 64 statements"));
        assert!(a.contains("0 failed"), "no statement may fail: {a}");
        // 64 skewed ops over 8 shapes revisit (shape, param) pairs, so the
        // result cache must hit. (A plan hit needs a result miss on a
        // cached shape — invalidation or eviction — and this quiet demo
        // ingests nothing, so plans may legitimately show 0 hits.)
        assert!(!a.contains("results: 0 hit"), "result cache never hit: {a}");
        assert!(a.contains("admissions: "), "{a}");
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(1).expect("demo runs");
        let b = run(2).expect("demo runs");
        assert_ne!(a, b);
    }
}
