//! Time sources driving link shaping.
//!
//! All shaping arithmetic in this crate is expressed against an abstract
//! [`Clock`] so that the same link code runs in two modes:
//!
//! * [`RealClock`] — wall-clock time; `sleep_until` actually sleeps. Used by
//!   the throughput benches that must measure elapsed real time.
//! * [`VirtualClock`] — a discrete simulated clock that jumps forward
//!   instantly whenever someone sleeps. Used by unit and property tests so
//!   that simulating seconds of shaped traffic costs microseconds and is
//!   fully deterministic.

use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic time source measured as a [`Duration`] since an arbitrary
/// epoch.
///
/// Implementations must be thread-safe: links share one clock between both
/// directions and arbitrarily many sender/receiver threads.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Current time since the clock's epoch.
    fn now(&self) -> Duration;

    /// Block (or advance the simulation) until `deadline` has been reached.
    ///
    /// Returns the clock value after waking, which is `>= deadline`.
    fn sleep_until(&self, deadline: Duration) -> Duration;

    /// Whether this clock is simulated (jumps forward instead of blocking).
    ///
    /// Receivers use this to decide between condvar parking (real time) and
    /// simulated sleeping (virtual time).
    fn is_virtual(&self) -> bool {
        false
    }
}

/// Shared handle to a clock, cloneable across endpoints.
pub type SharedClock = Arc<dyn Clock>;

/// Wall-clock implementation of [`Clock`] based on [`Instant`].
#[derive(Debug)]
pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    /// Creates a real clock whose epoch is "now".
    pub fn new() -> Self {
        RealClock {
            epoch: Instant::now(),
        }
    }

    /// Convenience: a shared real clock.
    pub fn shared() -> SharedClock {
        Arc::new(RealClock::new())
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn sleep_until(&self, deadline: Duration) -> Duration {
        let now = self.now();
        if deadline > now {
            #[expect(
                clippy::disallowed_methods,
                reason = "RealClock maps simulated deadlines onto wall-clock delay; this sleep is the wait primitive itself"
            )]
            std::thread::sleep(deadline - now);
        }
        self.now()
    }
}

/// Deterministic simulated clock.
///
/// `sleep_until` advances the clock to the deadline immediately instead of
/// blocking, so shaped traffic is simulated at full CPU speed. Multiple
/// threads may share one `VirtualClock`; time only moves forward.
#[derive(Debug)]
pub struct VirtualClock {
    now: Mutex<Duration>,
}

impl VirtualClock {
    /// Creates a virtual clock starting at time zero.
    pub fn new() -> Self {
        VirtualClock {
            now: Mutex::new(Duration::ZERO),
        }
    }

    /// Convenience: a shared virtual clock.
    pub fn shared() -> Arc<VirtualClock> {
        Arc::new(VirtualClock::new())
    }

    /// Manually advances the clock by `delta` (useful in tests that model
    /// idle periods).
    pub fn advance(&self, delta: Duration) {
        let mut now = self.now.lock();
        *now += delta;
    }
}

impl Default for VirtualClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        *self.now.lock()
    }

    fn sleep_until(&self, deadline: Duration) -> Duration {
        let mut now = self.now.lock();
        if deadline > *now {
            *now = deadline;
        }
        *now
    }

    fn is_virtual(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotone() {
        let c = RealClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn real_clock_sleep_until_reaches_deadline() {
        let c = RealClock::new();
        let deadline = c.now() + Duration::from_millis(5);
        let after = c.sleep_until(deadline);
        assert!(after >= deadline);
    }

    #[test]
    fn real_clock_sleep_until_past_deadline_returns_immediately() {
        let c = RealClock::new();
        let after = c.sleep_until(Duration::ZERO);
        assert!(after >= Duration::ZERO);
    }

    #[test]
    fn virtual_clock_starts_at_zero() {
        let c = VirtualClock::new();
        assert_eq!(c.now(), Duration::ZERO);
    }

    #[test]
    fn virtual_clock_jumps_on_sleep() {
        let c = VirtualClock::new();
        let t = c.sleep_until(Duration::from_secs(10));
        assert_eq!(t, Duration::from_secs(10));
        assert_eq!(c.now(), Duration::from_secs(10));
    }

    #[test]
    fn virtual_clock_never_goes_backwards() {
        let c = VirtualClock::new();
        c.sleep_until(Duration::from_secs(5));
        let t = c.sleep_until(Duration::from_secs(1));
        assert_eq!(t, Duration::from_secs(5));
    }

    #[test]
    fn virtual_clock_manual_advance() {
        let c = VirtualClock::new();
        c.advance(Duration::from_millis(250));
        assert_eq!(c.now(), Duration::from_millis(250));
    }

    #[test]
    fn shared_clock_is_object_safe() {
        let c: SharedClock = Arc::new(VirtualClock::new());
        assert_eq!(c.now(), Duration::ZERO);
    }
}
