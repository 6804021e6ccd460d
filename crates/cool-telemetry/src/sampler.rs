//! Periodic gauge sampling: snapshot-only gauges become time series.
//!
//! A [`GaugeSampler`] owns a background thread that copies every gauge in
//! a [`Registry`] into a bounded per-gauge ring every
//! [`DEFAULT_SAMPLE_PERIOD`], so quantities like dispatch-queue depth and
//! transport inbox depth — which a point-in-time snapshot can only ever
//! show as one number — can be read back as a `(t, value)` series over a
//! window. The
//! thread parks on a condvar deadline (no sleep polling) and stops
//! promptly on drop.

use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::blocking;
use crate::lockorder::{rank, Locked, OrderedMutex};
use crate::registry::json_escape;
use crate::ring::Ring;
use crate::Registry;

/// How often the sampler copies the gauges.
pub const DEFAULT_SAMPLE_PERIOD: Duration = Duration::from_millis(20);

/// Samples kept per gauge: 20 s of history at the sampling period.
const SERIES_CAPACITY: usize = 1024;

/// One sample of one gauge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeSample {
    /// Milliseconds since the series store was created.
    pub at_ms: u64,
    /// Gauge value at that instant.
    pub value: f64,
}

/// Bounded per-gauge time series, shared between the sampler thread and
/// readers (the `/gauges` introspection route).
pub struct GaugeSeries {
    series:
        OrderedMutex<BTreeMap<String, Ring<GaugeSample, SERIES_CAPACITY>>, rank::TelemetryGauges>,
    started: Instant,
}

impl GaugeSeries {
    fn new() -> Self {
        GaugeSeries {
            series: OrderedMutex::new(BTreeMap::new()),
            started: Instant::now(),
        }
    }

    /// Appends one sample per gauge, evicting the oldest when full.
    pub fn push_all(&self, gauges: &[(String, f64)]) {
        let at_ms = self.started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
        let (mut series, _) = self.series.lock(Locked::anywhere());
        for (name, value) in gauges {
            series.entry(name.clone()).or_default().push(GaugeSample {
                at_ms,
                value: *value,
            });
        }
    }

    /// Samples of one gauge, oldest first.
    pub fn samples(&self, name: &str) -> Vec<GaugeSample> {
        self.series
            .lock(Locked::anywhere())
            .0
            .get(name)
            .map(|r| r.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Names of every gauge seen so far.
    pub fn names(&self) -> Vec<String> {
        self.series
            .lock(Locked::anywhere())
            .0
            .keys()
            .cloned()
            .collect()
    }

    /// JSON dump `{"window_ms":…,"series":{name:[{at_ms,value}…]}}`,
    /// restricted to the trailing `window` when given.
    pub fn to_json(&self, window: Option<Duration>) -> String {
        let now_ms = self.started.elapsed().as_millis().min(u128::from(u64::MAX)) as u64;
        let cutoff =
            window.map(|w| now_ms.saturating_sub(w.as_millis().min(u128::from(u64::MAX)) as u64));
        let (series, _) = self.series.lock(Locked::anywhere());
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\"window_ms\":{},\"series\":{{",
            window.map_or("null".to_string(), |w| w.as_millis().to_string())
        ));
        for (i, (name, ring)) in series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&json_escape(name));
            out.push_str("\":[");
            let mut first = true;
            for s in ring.iter() {
                if let Some(cut) = cutoff {
                    if s.at_ms < cut {
                        continue;
                    }
                }
                if !first {
                    out.push(',');
                }
                first = false;
                if s.value.is_finite() {
                    out.push_str(&format!("{{\"at_ms\":{},\"value\":{}}}", s.at_ms, s.value));
                } else {
                    out.push_str(&format!("{{\"at_ms\":{},\"value\":null}}", s.at_ms));
                }
            }
            out.push(']');
        }
        out.push_str("}}");
        out
    }
}

struct StopSignal {
    stopped: Mutex<bool>,
    cv: Condvar,
}

/// Background thread sampling a registry's gauges into a [`GaugeSeries`].
pub struct GaugeSampler {
    series: Arc<GaugeSeries>,
    signal: Arc<StopSignal>,
    handle: Option<JoinHandle<()>>,
}

impl GaugeSampler {
    /// Spawns the sampler thread; it takes one pass every
    /// [`DEFAULT_SAMPLE_PERIOD`] until the sampler is stopped or dropped,
    /// keeping the last 1 024 samples of each gauge.
    pub fn start(registry: Arc<Registry>) -> io::Result<Self> {
        let series = Arc::new(GaugeSeries::new());
        let signal = Arc::new(StopSignal {
            stopped: Mutex::new(false),
            cv: Condvar::new(),
        });
        let thread_series = Arc::clone(&series);
        let thread_signal = Arc::clone(&signal);
        let sample_loop = move || {
            let held = Locked::root();
            loop {
                let deadline = Instant::now() + DEFAULT_SAMPLE_PERIOD;
                let mut stopped = thread_signal.stopped.lock();
                blocking::wait_while_until(
                    held,
                    &thread_signal.cv,
                    &mut stopped,
                    deadline,
                    |stopped| !*stopped,
                );
                if *stopped {
                    return;
                }
                drop(stopped);
                thread_series.push_all(&registry.gauge_values());
            }
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "joined by `GaugeSampler::stop`, which drop calls"
        )]
        let handle = std::thread::Builder::new()
            .name("cool-gauge-sampler".to_string())
            .spawn(sample_loop);
        let handle = handle?;
        Ok(GaugeSampler {
            series,
            signal,
            handle: Some(handle),
        })
    }

    /// The shared series store this sampler writes into.
    pub fn series(&self) -> Arc<GaugeSeries> {
        Arc::clone(&self.series)
    }

    /// Stops the thread and waits for it to exit. Idempotent.
    pub fn stop(&mut self) {
        *self.signal.stopped.lock() = true;
        self.signal.cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = blocking::join(Locked::root(), handle);
        }
    }
}

impl Drop for GaugeSampler {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for GaugeSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GaugeSampler")
            .field("series", &self.series.names().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_is_bounded_and_windowed() {
        let series = GaugeSeries::new();
        for i in 0..SERIES_CAPACITY as u32 + 10 {
            series.push_all(&[("depth".to_string(), f64::from(i))]);
        }
        let samples = series.samples("depth");
        assert_eq!(samples.len(), SERIES_CAPACITY);
        assert_eq!(samples.first().map(|s| s.value), Some(10.0));
        assert_eq!(samples.last().map(|s| s.value), Some(1033.0));
        let json = series.to_json(None);
        assert!(json.contains("\"depth\":["));
        assert!(json.contains("\"value\":1033"));
        // A zero-width window excludes everything sampled earlier.
        let windowed = series.to_json(Some(Duration::ZERO));
        assert!(windowed.contains("\"depth\":[")); // series listed, maybe empty
    }

    #[test]
    fn sampler_collects_and_stops() {
        let registry = Arc::new(Registry::new());
        registry.gauge("queue_depth").set(3.0);
        let mut sampler = GaugeSampler::start(Arc::clone(&registry)).expect("spawn sampler");
        let series = sampler.series();
        let deadline = Instant::now() + Duration::from_secs(5);
        while series.samples("queue_depth").is_empty() && Instant::now() < deadline {
            std::thread::yield_now();
        }
        sampler.stop();
        let samples = series.samples("queue_depth");
        assert!(!samples.is_empty(), "sampler never took a pass");
        assert_eq!(samples[0].value, 3.0);
        let len_after_stop = series.samples("queue_depth").len();
        std::thread::sleep(2 * DEFAULT_SAMPLE_PERIOD);
        assert_eq!(series.samples("queue_depth").len(), len_after_stop);
    }
}
