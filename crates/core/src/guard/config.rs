//! What a guard is configured with: its budgets, its policy, and the
//! session's choice of guard.

/// Per-call budgets for guarded user callbacks.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UdfLimits {
    /// Simulated-clock budget for one callback call, in ms: a call that
    /// [`super::consume_udf_time`]s more is a budget violation ("hang").
    pub call_budget_ms: u64,
    /// Maximum serialized size of the PPlan `divide` returns, in bytes.
    pub max_pplan_bytes: usize,
    /// Maximum bucket ids one `assign` call may emit for one key.
    pub max_buckets_per_key: usize,
    /// Maximum total bucket ids `assign` may emit across one partition.
    pub max_assign_fanout: u64,
    /// Contract probes sample 1-in-N keys/pairs (seeded); 0 disables them.
    pub check_sample: u64,
}

impl Default for UdfLimits {
    fn default() -> Self {
        UdfLimits {
            call_budget_ms: 10_000,
            max_pplan_bytes: 16 << 20,
            max_buckets_per_key: 4_096,
            max_assign_fanout: 1 << 24,
            check_sample: 16,
        }
    }
}

/// What the engine does when a guarded callback violates its contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum UdfPolicy {
    /// Abort the query with a phase-tagged [`fudj_types::FudjError::UdfViolation`].
    #[default]
    FailFast,
    /// Drop the offending key/row/pair, count it, and continue (structural
    /// callbacks still fail fast).
    Quarantine,
    /// For joins whose match predicate is default equality, degrade the
    /// whole join to the engine's plain hash-equality path on the raw keys.
    FallbackEquality,
}

impl UdfPolicy {
    /// Parse a user-facing policy name (`failfast`, `quarantine`,
    /// `fallback`), tolerant of `-`/`_` separators.
    pub fn parse(s: &str) -> Option<UdfPolicy> {
        match s.to_ascii_lowercase().replace(['-', '_'], "").as_str() {
            "failfast" => Some(UdfPolicy::FailFast),
            "quarantine" => Some(UdfPolicy::Quarantine),
            "fallback" | "fallbackequality" => Some(UdfPolicy::FallbackEquality),
            _ => None,
        }
    }
}

impl std::fmt::Display for UdfPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UdfPolicy::FailFast => write!(f, "failfast"),
            UdfPolicy::Quarantine => write!(f, "quarantine"),
            UdfPolicy::FallbackEquality => write!(f, "fallback"),
        }
    }
}

/// Limits + policy: everything one join definition's guard needs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GuardConfig {
    pub limits: UdfLimits,
    pub policy: UdfPolicy,
}

impl GuardConfig {
    /// Default limits under the given policy.
    pub fn with_policy(policy: UdfPolicy) -> Self {
        let limits = UdfLimits::default();
        GuardConfig { limits, policy }
    }
}

/// Session-level guard selection for the planner (`\guard` at the prompt).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum GuardMode {
    /// Use each join definition's own [`GuardConfig`] (the default).
    #[default]
    PerJoin,
    /// Override every definition with this config.
    Override(GuardConfig),
    /// Do not wrap at all (reference/unguarded runs).
    Off,
}
