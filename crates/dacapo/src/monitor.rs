//! QoS monitoring: the observation half of Da CaPo's management component.
//!
//! *"The management component is responsible for configuring the module
//! graph, monitoring, reconfiguration, and signalling"* (Section 5.1).
//! Configuration and reconfiguration live in [`crate::config`] and
//! [`crate::connection`]; this module adds **monitoring**: a
//! [`QosMonitor`] samples a [`ThroughputMeter`] against the granted
//! operating point and signals degradation/recovery events, which upper
//! layers (the ORB, an adaptive application) answer by renegotiating or
//! reconfiguring — closing the adaptation loop the MULTE project aims at.

use crate::error::DacapoError;
use crate::stats::ThroughputMeter;
use cool_telemetry::blocking;
use cool_telemetry::lockorder::{Locked, Unlocked};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A monitoring signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QosEvent {
    /// Observed throughput fell below the tolerated band.
    Degraded {
        /// Measured bits per second over the last interval.
        observed_bps: f64,
        /// The granted/target bits per second.
        target_bps: u64,
    },
    /// Observed throughput returned into the tolerated band.
    Recovered {
        /// Measured bits per second over the last interval.
        observed_bps: f64,
    },
}

/// Configuration of a [`QosMonitor`].
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Target (granted) throughput in bits per second.
    pub target_bps: u64,
    /// Sampling interval.
    pub interval: Duration,
    /// Fraction of the target below which the flow counts as degraded
    /// (e.g. 0.2 = alarm below 80 % of target).
    pub tolerance: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            target_bps: 1_000_000,
            interval: Duration::from_millis(100),
            tolerance: 0.2,
        }
    }
}

/// A latched stop flag with a condvar, so the sampling thread can park
/// until its next deadline *or* an immediate stop — never a bare sleep.
#[derive(Debug, Default)]
struct StopSignal {
    stopped: Mutex<bool>,
    cv: Condvar,
}

impl StopSignal {
    fn stop(&self) {
        let mut stopped = self.stopped.lock();
        *stopped = true;
        self.cv.notify_all();
    }

    /// Parks until `deadline` or an earlier [`StopSignal::stop`]; returns
    /// whether stop was signalled.
    fn wait_until(&self, held: &mut Locked<Unlocked>, deadline: Instant) -> bool {
        let mut stopped = self.stopped.lock();
        blocking::wait_while_until(held, &self.cv, &mut stopped, deadline, |stopped| !*stopped);
        *stopped
    }
}

/// Watches a meter and emits [`QosEvent`]s with hysteresis.
#[derive(Debug)]
pub struct QosMonitor {
    events: Receiver<QosEvent>,
    stop: Arc<StopSignal>,
    handle: Option<JoinHandle<()>>,
}

impl QosMonitor {
    /// Starts watching `meter` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config.tolerance` lies outside `(0, 1)` or the interval
    /// is zero.
    ///
    /// # Errors
    ///
    /// [`DacapoError::Runtime`] if the sampling thread cannot be spawned.
    pub fn watch(meter: Arc<ThroughputMeter>, config: MonitorConfig) -> Result<Self, DacapoError> {
        assert!(
            config.tolerance > 0.0 && config.tolerance < 1.0,
            "tolerance must lie in (0, 1)"
        );
        assert!(!config.interval.is_zero(), "interval must be nonzero");
        let stop = Arc::new(StopSignal::default());
        // An ignored monitor should drop no alarms, so its queue grows.
        #[expect(
            clippy::disallowed_methods,
            reason = "grows: drained by the owner's `events()`; hysteresis sends at most one event per sampling interval"
        )]
        let (tx, rx) = unbounded();
        let flag = stop.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "joined by `QosMonitor::stop`; a drop sets the stop signal, which ends the loop within one sampling interval"
        )]
        let handle = std::thread::Builder::new()
            .name("dacapo-qos-monitor".into())
            .spawn(move || monitor_loop(meter, config, tx, flag))
            .map_err(|e| DacapoError::Runtime(format!("spawn dacapo-qos-monitor: {e}")))?;
        Ok(QosMonitor {
            events: rx,
            stop,
            handle: Some(handle),
        })
    }

    /// The event stream.
    pub fn events(&self) -> &Receiver<QosEvent> {
        &self.events
    }

    /// Returns a pending event if any.
    pub fn try_event(&self) -> Option<QosEvent> {
        self.events.try_recv().ok()
    }

    /// Stops the monitor and joins its thread (immediately — the sampling
    /// thread is woken out of its deadline wait).
    pub fn stop(mut self) {
        self.stop.stop();
        if let Some(h) = self.handle.take() {
            let _ = blocking::join(Locked::root(), h);
        }
    }
}

impl Drop for QosMonitor {
    fn drop(&mut self) {
        // Signal only; destructors must not block on a join.
        self.stop.stop();
    }
}

fn monitor_loop(
    meter: Arc<ThroughputMeter>,
    config: MonitorConfig,
    tx: Sender<QosEvent>,
    stop: Arc<StopSignal>,
) {
    let mut last_bytes = meter.bytes();
    let mut degraded = false;
    let alarm_threshold = config.target_bps as f64 * (1.0 - config.tolerance);
    // Recovery needs to clear a slightly higher bar (hysteresis) so a flow
    // hovering at the boundary does not flap.
    let recover_threshold = config.target_bps as f64 * (1.0 - config.tolerance / 2.0);
    // Fixed-rate cadence: deadlines advance by the interval, so sampling
    // drift does not accumulate and a stop wakes the thread at once.
    let mut deadline = Instant::now() + config.interval;
    let held = Locked::root();
    loop {
        if stop.wait_until(held, deadline) {
            return;
        }
        deadline += config.interval;
        let bytes = meter.bytes();
        let observed_bps =
            (bytes.saturating_sub(last_bytes)) as f64 * 8.0 / config.interval.as_secs_f64();
        last_bytes = bytes;
        if !degraded && observed_bps < alarm_threshold {
            degraded = true;
            if tx
                .try_send(QosEvent::Degraded {
                    observed_bps,
                    target_bps: config.target_bps,
                })
                .is_err()
            {
                return;
            }
        } else if degraded && observed_bps >= recover_threshold {
            degraded = false;
            if tx.try_send(QosEvent::Recovered { observed_bps }).is_err() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Feeds `meter` continuously at `bps` in 1 ms chunks until told to
    /// stop, so every monitor sampling window sees a steady rate.
    struct Feeder {
        stop: Arc<AtomicBool>,
        handle: Option<JoinHandle<()>>,
    }

    impl Feeder {
        fn start(meter: Arc<ThroughputMeter>, bps: u64) -> Self {
            let stop = Arc::new(AtomicBool::new(false));
            let flag = stop.clone();
            let handle = std::thread::spawn(move || {
                // Self-correcting pacing: record whatever is needed to
                // match the target rate over the elapsed wall time, so
                // sleep jitter never starves the flow.
                let start = std::time::Instant::now();
                let mut recorded: u64 = 0;
                while !flag.load(Ordering::Acquire) {
                    let due = (bps as f64 / 8.0 * start.elapsed().as_secs_f64()) as u64;
                    if due > recorded {
                        meter.record((due - recorded) as usize);
                        recorded = due;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            Feeder {
                stop,
                handle: Some(handle),
            }
        }

        fn stop(mut self) {
            self.stop.store(true, Ordering::Release);
            if let Some(h) = self.handle.take() {
                let _ = h.join();
            }
        }
    }

    #[test]
    fn degradation_and_recovery_are_signalled_once_each() {
        let meter = Arc::new(ThroughputMeter::new());
        let interval = Duration::from_millis(50);
        let config = MonitorConfig {
            target_bps: 8_000_000,
            interval,
            tolerance: 0.25,
        };

        // Healthy feed running before the monitor starts sampling.
        let feeder = Feeder::start(meter.clone(), 8_000_000);
        std::thread::sleep(Duration::from_millis(20));
        let monitor = QosMonitor::watch(meter.clone(), config).unwrap();
        std::thread::sleep(interval * 4);
        assert_eq!(monitor.try_event(), None, "healthy flow emits nothing");

        // Starve the flow: degradation fires.
        feeder.stop();
        let event = monitor
            .events()
            .recv_timeout(Duration::from_secs(3))
            .expect("degradation signalled");
        assert!(matches!(
            event,
            QosEvent::Degraded {
                target_bps: 8_000_000,
                ..
            }
        ));

        // Resume healthy traffic: recovery fires.
        let feeder = Feeder::start(meter.clone(), 16_000_000);
        let event = monitor
            .events()
            .recv_timeout(Duration::from_secs(3))
            .expect("recovery signalled");
        assert!(matches!(event, QosEvent::Recovered { .. }));
        feeder.stop();
        monitor.stop();
    }

    #[test]
    fn no_flapping_at_the_boundary() {
        let meter = Arc::new(ThroughputMeter::new());
        // A wide window: the feeder catches up after scheduler stalls, so
        // only a stall straddling a sampling instant can starve a window,
        // and it must eat >10% of the window to cross the alarm line —
        // ~25 ms here, vs ~4 ms with a 50 ms window, which flapped under
        // a fully loaded test machine.
        let interval = Duration::from_millis(250);
        // Target 8 Mbit/s, tolerance 0.2: alarm < 6.4 M, recover >= 7.2 M.
        let config = MonitorConfig {
            target_bps: 8_000_000,
            interval,
            tolerance: 0.2,
        };

        // Hover inside the hysteresis band: above the alarm line, below
        // the recovery line.
        let feeder = Feeder::start(meter.clone(), 7_100_000);
        std::thread::sleep(Duration::from_millis(20));
        let monitor = QosMonitor::watch(meter.clone(), config).unwrap();
        std::thread::sleep(interval * 6);
        feeder.stop();

        // At 6.9 M (above the 6.4 M alarm) nothing should ever fire.
        assert_eq!(monitor.try_event(), None, "no event in the hysteresis band");
        monitor.stop();
    }

    #[test]
    #[should_panic(expected = "tolerance")]
    fn invalid_tolerance_rejected() {
        let meter = Arc::new(ThroughputMeter::new());
        let _ = QosMonitor::watch(
            meter,
            MonitorConfig {
                tolerance: 1.5,
                ..Default::default()
            },
        );
    }
}
