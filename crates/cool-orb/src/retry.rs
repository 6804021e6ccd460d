//! Bounded, deterministic retry policy for remote invocations.
//!
//! A [`RetryPolicy`] on [`crate::OrbConfig`] makes `Stub` invocations
//! replay automatically after retryable errors (see
//! [`crate::OrbError::is_retryable`]): exponential backoff between
//! attempts, a deterministic seeded jitter (chaos runs must replay
//! bit-identically), and two hard bounds — a maximum attempt count and a
//! wall-clock retry budget. The policy is `None` by default: existing
//! callers see exactly one attempt and unchanged error behaviour.

use cool_faults::FaultRng;
use cool_telemetry::blocking;
use cool_telemetry::lockorder::{Locked, Unlocked};
use std::time::{Duration, Instant};

/// Retry bounds and backoff shape for one stub invocation.
///
/// ```
/// use cool_orb::RetryPolicy;
/// use std::time::Duration;
///
/// let policy = RetryPolicy::default();
/// // Attempt 1 failed; the first backoff is near `initial_backoff`.
/// let d = policy.backoff(1);
/// assert!(d >= policy.initial_backoff / 2 && d <= policy.initial_backoff * 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (values below 1 act as 1).
    pub max_attempts: u32,
    /// Backoff after the first failed attempt; doubles per attempt.
    pub initial_backoff: Duration,
    /// Ceiling on any single backoff wait.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1)`: each backoff is scaled by a
    /// deterministic factor in `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Seed for the jitter; equal seeds replay equal backoff sequences.
    pub seed: u64,
    /// Total wall-clock budget across all attempts and backoffs; when the
    /// next wait would overrun it, the last error surfaces instead.
    pub budget: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
            jitter: 0.2,
            seed: 0x7e7_a11,
            budget: Duration::from_secs(10),
        }
    }
}

impl RetryPolicy {
    /// Backoff after the `attempt`-th failure (1-based): exponential,
    /// capped at `max_backoff`, with deterministic jitter.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(20);
        let base = self
            .initial_backoff
            .saturating_mul(1 << shift)
            .min(self.max_backoff);
        let jitter = self.jitter.clamp(0.0, 0.999);
        if jitter == 0.0 {
            return base;
        }
        let unit = FaultRng::new(self.seed.wrapping_add(attempt as u64)).next_f64();
        let factor = 1.0 + jitter * (2.0 * unit - 1.0);
        base.mul_f64(factor)
    }

    /// Decides whether another attempt is allowed after the `attempt`-th
    /// failure, given total `elapsed` time so far. Returns the backoff to
    /// wait, or `None` when the attempt count or budget is exhausted.
    pub fn next_delay(&self, attempt: u32, elapsed: Duration) -> Option<Duration> {
        if attempt >= self.max_attempts.max(1) {
            return None;
        }
        let delay = self.backoff(attempt);
        if elapsed + delay > self.budget {
            return None;
        }
        Some(delay)
    }
}

/// Parks the calling thread for `d` (condvar-free bounded wait; spurious
/// unparks just shorten one lap of the loop).
pub(crate) fn wait_backoff(held: &mut Locked<Unlocked>, d: Duration) {
    let deadline = Instant::now() + d;
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        blocking::park_timeout(held, deadline - now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_exponential() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(3), Duration::from_millis(40));
        // Capped at max_backoff, even for absurd attempt numbers.
        assert_eq!(p.backoff(30), Duration::from_secs(1));

        let q = RetryPolicy::default();
        assert_eq!(q.backoff(2), q.backoff(2), "jitter is deterministic");
        let r = RetryPolicy {
            seed: 999,
            ..RetryPolicy::default()
        };
        assert_ne!(q.backoff(2), r.backoff(2), "seed moves the jitter");
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let p = RetryPolicy {
            jitter: 0.5,
            ..RetryPolicy::default()
        };
        for attempt in 1..10 {
            let d = p.backoff(attempt);
            let base = RetryPolicy {
                jitter: 0.0,
                ..p.clone()
            }
            .backoff(attempt);
            assert!(d >= base.mul_f64(0.5) && d <= base.mul_f64(1.5), "{d:?}");
        }
    }

    #[test]
    fn wait_backoff_waits_at_least_the_duration() {
        let start = Instant::now();
        wait_backoff(Locked::root(), Duration::from_millis(20));
        assert!(start.elapsed() >= Duration::from_millis(20));
    }
}
