//! Bounded retry with a deterministic backoff schedule.

use std::time::Duration;

/// How many times (and how patiently) the artifact store re-attempts a
/// failed read or write before falling back to recomputation.
///
/// The schedule is fully deterministic — exponential growth from
/// the base delay ([`with_base`](RetryPolicy::with_base)) by the multiplier
/// ([`with_multiplier`](RetryPolicy::with_multiplier)),
/// no jitter — so a chaos failure replays identically from its seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    attempts: u32,
    base: Duration,
    multiplier: u32,
}

impl Default for RetryPolicy {
    /// Three attempts total (two retries), 2 ms first backoff, doubling.
    fn default() -> Self {
        RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(2),
            multiplier: 2,
        }
    }
}

impl RetryPolicy {
    /// A policy of `attempts` total attempts (floor 1) with the default
    /// backoff shape.
    pub fn new(attempts: u32) -> Self {
        RetryPolicy {
            attempts: attempts.max(1),
            ..RetryPolicy::default()
        }
    }

    /// No retries at all: one attempt, fail straight to the fallback.
    pub fn none() -> Self {
        RetryPolicy::new(1)
    }

    /// Replaces the first backoff delay.
    pub fn with_base(mut self, base: Duration) -> Self {
        self.base = base;
        self
    }

    /// Replaces the backoff growth factor (floor 1).
    pub fn with_multiplier(mut self, multiplier: u32) -> Self {
        self.multiplier = multiplier.max(1);
        self
    }

    /// Total attempts (the first try plus the retries).
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// Retries after the first attempt.
    pub fn retries(&self) -> u32 {
        self.attempts - 1
    }

    /// The delay before retry `retry` (1-based): `base · multiplierʳ⁻¹`.
    pub fn backoff(&self, retry: u32) -> Duration {
        let factor = self.multiplier.saturating_pow(retry.saturating_sub(1));
        self.base.saturating_mul(factor)
    }
}

/// Snapshot of the store's retry counters (see
/// [`ArtifactCache::retry_stats`](crate::artifact::ArtifactCache::retry_stats)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryStats {
    /// Re-attempts taken (the first attempt of an operation is not counted).
    pub retries: u64,
    /// Operations that failed at least once and then succeeded on a retry.
    pub recovered: u64,
    /// Operations that failed every attempt and fell back (to recomputation
    /// on the read side; to a counted error on the write side).
    pub exhausted: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_three_attempts_doubling_from_two_ms() {
        let policy = RetryPolicy::default();
        assert_eq!(policy.attempts(), 3);
        assert_eq!(policy.retries(), 2);
        assert_eq!(policy.backoff(1), Duration::from_millis(2));
        assert_eq!(policy.backoff(2), Duration::from_millis(4));
        assert_eq!(policy.backoff(3), Duration::from_millis(8));
    }

    #[test]
    fn none_means_a_single_attempt() {
        let policy = RetryPolicy::none();
        assert_eq!(policy.attempts(), 1);
        assert_eq!(policy.retries(), 0);
    }

    #[test]
    fn floors_keep_the_schedule_sane() {
        let policy = RetryPolicy::new(0).with_multiplier(0);
        assert_eq!(policy.attempts(), 1);
        assert_eq!(
            policy.backoff(1),
            policy.backoff(2),
            "multiplier floors to 1"
        );
    }

    #[test]
    fn backoff_is_deterministic_and_saturating() {
        let policy = RetryPolicy::new(64).with_base(Duration::from_secs(1 << 40));
        // Saturates instead of overflowing.
        let _ = policy.backoff(60);
        assert_eq!(policy.backoff(2), policy.backoff(2));
    }
}
