//! What every workload shares: a window's bookkeeping (ops, latency samples,
//! CPU), the blocks a timed run is made of, the traced run's registry
//! sampler, and the [`Workload`] contract the runner drives.

use crate::host;
use crate::stats;
use crate::trace::Recorder;
use crate::yard::Pace;
use cool_telemetry::{Registry, TraceRecord};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A call that outlives this is a hung call: it counts as failed and the
/// run exits non-zero.
pub const HANG_BOUND: Duration = Duration::from_secs(5);

/// Share of a window's ops that may end in an attributed error (see
/// [`Meter::failed_attributed`]) before the run is incorrect.
pub const ATTRIBUTED_SHARE_LIMIT: f64 = 0.001;

/// Ops run before each timed window; they count into `setup_s`.
pub const WARMUP_OPS: u64 = 2_000;

/// What a traced run hands a workload: the registry both ORBs report into
/// and the ledger's own span recorder.
pub struct Tracing {
    pub registry: Arc<Registry>,
    pub recorder: Arc<Recorder>,
}

impl Tracing {
    pub fn new() -> Self {
        Tracing {
            registry: Arc::new(Registry::new()),
            recorder: Arc::new(Recorder::new()),
        }
    }
}

/// Latency samples of one window in bounded memory. The buffer is touched
/// up to its cap when created, so resident memory does not grow with how
/// many ops a faster program completes; past the cap every other kept
/// sample is dropped and the sampling stride doubles. The cap leaves the
/// 99.9th percentile its ten samples beyond, in 128 KiB a caller.
pub struct Samples {
    buf: Vec<u64>,
    stride: u64,
    seen: u64,
}

impl Samples {
    const CAP: usize = 1 << 14;

    pub fn new() -> Self {
        let mut buf = vec![1u64; Self::CAP];
        buf.clear();
        Samples {
            buf,
            stride: 1,
            seen: 0,
        }
    }

    pub fn push(&mut self, ns: u64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.buf.len() == Self::CAP {
                let mut keep = false;
                self.buf.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.stride *= 2;
                if !self.seen.is_multiple_of(self.stride) {
                    self.seen += 1;
                    return;
                }
            }
            self.buf.push(ns);
        }
        self.seen += 1;
    }

    pub fn into_sorted(mut self) -> Vec<u64> {
        self.buf.sort_unstable();
        self.buf
    }
}

/// One caller's view of one timed window.
pub struct Meter {
    start: Instant,
    window: Duration,
    ops: u64,
    bytes: u64,
    samples: Samples,
    pub attempted: u64,
    pub failed: u64,
    /// How many of `failed` the workload's contract permits.
    pub attributed: u64,
    pub hung: bool,
    /// Offset from the window's start of the latest completion.
    last_completion: Duration,
}

impl Meter {
    pub fn start(window: Duration) -> Self {
        Meter::starting_at(Instant::now(), window)
    }

    /// Callers sharing a window share its start.
    pub fn starting_at(start: Instant, window: Duration) -> Self {
        Meter {
            start,
            window,
            ops: 0,
            bytes: 0,
            samples: Samples::new(),
            attempted: 0,
            failed: 0,
            attributed: 0,
            hung: false,
            last_completion: Duration::ZERO,
        }
    }

    pub fn open(&self) -> bool {
        self.start.elapsed() < self.window
    }

    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// An op issued at `issued` completed just now and verified.
    pub fn completed(&mut self, issued: Instant, payload_bytes: usize) {
        self.completed_after(issued.elapsed(), payload_bytes);
    }

    /// A verified op that took `latency`, stamped on the ledger's own clock.
    pub fn completed_after(&mut self, latency: Duration, payload_bytes: usize) {
        self.record(Some(latency), payload_bytes);
        if latency >= HANG_BOUND {
            self.hung = true;
        }
    }

    /// A verified op that has no latency of its own (a one-way).
    pub fn completed_untimed(&mut self, payload_bytes: usize) {
        self.record(None, payload_bytes);
    }

    fn record(&mut self, latency: Option<Duration>, payload_bytes: usize) {
        self.last_completion = self.start.elapsed();
        if let Some(latency) = latency {
            self.samples.push(latency.as_nanos() as u64);
        }
        self.ops += 1;
        self.bytes += payload_bytes as u64;
        self.attempted += 1;
    }

    /// An op that errored, timed out or came back wrong.
    pub fn failed(&mut self, issued: Instant, why: &dyn std::fmt::Display) {
        if self.failed < 5 {
            eprintln!("ledger: op failed: {why}");
        }
        self.attempted += 1;
        self.failed += 1;
        if issued.elapsed() >= HANG_BOUND {
            self.hung = true;
        }
    }

    /// An op that ended in an error naming its cause, where the workload
    /// allows that (a call that meets a killed replica). It counts in
    /// `failed`; up to [`ATTRIBUTED_SHARE_LIMIT`] of the window's ops the
    /// run is still correct.
    pub fn failed_attributed(&mut self, issued: Instant, why: &dyn std::fmt::Display) {
        self.failed(issued, why);
        self.attributed += 1;
    }

    /// Every latency sample of the window, ascending.
    pub fn into_sorted_samples(self) -> Vec<u64> {
        self.samples.into_sorted()
    }
}

/// What one window produced: a block of a timed run, or a block of a traced
/// one. Rates are taken over the time to the last completion of any caller,
/// so an op that straddles the window's end costs what it took, and a slow
/// workload (ten ops in a block) is not read in steps of a tenth.
pub struct WindowResult {
    pub attempted: u64,
    pub failed: u64,
    pub attributed: u64,
    pub hung: bool,
    ops: u64,
    bytes: u64,
    /// Ascending.
    latencies_ns: Vec<u64>,
    /// Process CPU time the window used.
    cpu: Duration,
    /// Resident set size as the window closed, MiB.
    rss_mib: f64,
    /// Window start to the latest completion of any caller.
    busy: Duration,
    /// Workload-specific per-layer readings (blackouts, paced transit).
    pub layer: Vec<(&'static str, f64)>,
}

impl WindowResult {
    /// Folds the callers' meters into one result; `cpu_before` is the
    /// process CPU reading taken as the window opened.
    pub fn collect(meters: Vec<Meter>, cpu_before: Duration) -> Self {
        let mut out = WindowResult {
            attempted: 0,
            failed: 0,
            attributed: 0,
            hung: false,
            ops: 0,
            bytes: 0,
            latencies_ns: Vec::new(),
            cpu: host::cpu_time().saturating_sub(cpu_before),
            rss_mib: host::rss_mib(),
            busy: Duration::ZERO,
            layer: Vec::new(),
        };
        for meter in meters {
            out.busy = out.busy.max(meter.last_completion);
            out.attempted += meter.attempted;
            out.failed += meter.failed;
            out.attributed += meter.attributed;
            out.hung |= meter.hung;
            out.ops += meter.ops;
            out.bytes += meter.bytes;
            out.latencies_ns.extend(meter.samples.into_sorted());
        }
        out.latencies_ns.sort_unstable();
        out
    }

    /// Nothing hung, and nothing failed beyond the attributed errors the
    /// workload permits, those within their share of the ops attempted.
    pub fn acceptable(&self) -> bool {
        !self.hung
            && self.failed == self.attributed
            && self.attributed as f64 <= ATTRIBUTED_SHARE_LIMIT * self.attempted as f64
    }

    pub fn verified_ops(&self) -> u64 {
        self.ops
    }

    pub fn latency_samples(&self) -> usize {
        self.latencies_ns.len()
    }

    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.busy.as_secs_f64().max(1e-9)
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu.as_secs_f64() * 1e6 / self.ops.max(1) as f64
    }

    pub fn rss_mib(&self) -> f64 {
        self.rss_mib
    }

    /// `p`-th latency percentile in µs; 0 with no samples.
    pub fn latency_us(&self, p: f64) -> f64 {
        if self.latencies_ns.is_empty() {
            0.0
        } else {
            stats::percentile(&self.latencies_ns, p) as f64 / 1000.0
        }
    }

    /// The highest percentile up to `cap` that has at least ten samples
    /// beyond it: `lat_p99_us` reports the 99th only where the sample
    /// supports it.
    pub fn tail_percentile(&self, cap: f64) -> f64 {
        stats::highest_supported_percentile(self.latencies_ns.len())
            .unwrap_or(50.0)
            .min(cap)
    }
}

/// One block of a timed window, reduced to its figures so its samples can
/// go, with the host's speed while it ran (see [`crate::yard`]).
#[derive(Clone)]
pub struct Block {
    pub ops: u64,
    pub bytes: u64,
    pub samples: u64,
    /// Block start to the last completion, seconds.
    pub busy_s: f64,
    pub lat_p50_us: f64,
    pub tail_percentile: f64,
    pub lat_tail_us: f64,
    pub cpu_us_per_op: f64,
    pub rss_mib: f64,
    /// Mean of the yardstick's readings either side of the block.
    pub speed: f64,
}

impl Block {
    pub fn of(result: &WindowResult, speed: f64) -> Self {
        let tail_percentile = result.tail_percentile(99.0);
        Block {
            ops: result.ops,
            bytes: result.bytes,
            samples: result.latency_samples() as u64,
            busy_s: result.busy.as_secs_f64(),
            lat_p50_us: result.latency_us(50.0),
            tail_percentile,
            lat_tail_us: result.latency_us(tail_percentile),
            cpu_us_per_op: result.cpu_us_per_op(),
            rss_mib: result.rss_mib(),
            speed,
        }
    }
}

/// The blocks of one timed window and the one figure each metric gets from
/// them: the median over blocks of the block's own figure at speed 1.0 (a
/// rate divided by the block's speed, a time multiplied by it). A workload
/// whose pace is set by timers, not by the CPU, is reported as measured
/// ([`Pace::Timers`]): its times as medians over blocks too, its
/// rates over all blocks together, because a block of it holds ten ops of
/// three different lengths and the median of such blocks follows the mix.
pub struct Blocks {
    pub blocks: Vec<Block>,
    /// Whether figures are brought to speed 1.0.
    pub scaled: bool,
}

impl Blocks {
    /// The blocks that completed anything.
    fn live(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter().filter(|b| b.ops > 0)
    }

    /// `count` per second; 0 when no block completed an op.
    fn rate(&self, count: impl Fn(&Block) -> u64) -> f64 {
        if self.live().next().is_none() {
            return 0.0;
        }
        if !self.scaled {
            let total: u64 = self.live().map(&count).sum();
            return total as f64 / self.live().map(|b| b.busy_s).sum::<f64>().max(1e-9);
        }
        let rates: Vec<f64> = self
            .live()
            .map(|b| count(b) as f64 / b.busy_s.max(1e-9) / b.speed)
            .collect();
        stats::median(&rates)
    }

    /// Median over blocks of `time`; 0 when no block completed an op.
    fn time(&self, time: impl Fn(&Block) -> f64) -> f64 {
        let times: Vec<f64> = self
            .live()
            .map(|b| time(b) * if self.scaled { b.speed } else { 1.0 })
            .collect();
        if times.is_empty() {
            0.0
        } else {
            stats::median(&times)
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        self.rate(|b| b.ops)
    }

    pub fn goodput_mbit_s(&self) -> f64 {
        self.rate(|b| b.bytes) * 8.0 / 1e6
    }

    pub fn lat_p50_us(&self) -> f64 {
        self.time(|b| b.lat_p50_us)
    }

    /// The highest percentile every block supports, and its latency over
    /// the blocks that were read at it.
    pub fn lat_tail_us(&self) -> (f64, f64) {
        let supported = self
            .blocks
            .iter()
            .map(|b| b.tail_percentile)
            .fold(99.0, f64::min);
        let at_it = Blocks {
            blocks: self
                .blocks
                .iter()
                .filter(|b| b.tail_percentile == supported)
                .cloned()
                .collect(),
            scaled: self.scaled,
        };
        (supported, at_it.time(|b| b.lat_tail_us))
    }

    pub fn cpu_us_per_op(&self) -> f64 {
        self.time(|b| b.cpu_us_per_op)
    }

    /// Memory does not follow the host's speed: the median reading.
    pub fn rss_mib(&self) -> f64 {
        let readings: Vec<f64> = self.blocks.iter().map(|b| b.rss_mib).collect();
        stats::median(&readings)
    }

    pub fn ops(&self) -> u64 {
        self.blocks.iter().map(|b| b.ops).sum()
    }

    pub fn samples(&self) -> u64 {
        self.blocks.iter().map(|b| b.samples).sum()
    }
}

/// One benchmark workload. `setup` builds everything up to the first timed
/// op (warm-up included); `run` is one closed-loop window and may be called
/// again; `teardown` stops every thread the workload started.
pub trait Workload: Sized {
    /// What sets this workload's pace: which yardstick its figures are
    /// brought to speed 1.0 by.
    const PACE: Pace;

    fn setup(seed: u64, tracing: Option<&Tracing>) -> Result<Self, String>;

    fn run(&mut self, window: Duration) -> WindowResult;

    /// Extra traced-run measurement that needs the untraced rate (the paced
    /// stream transit). Most workloads have none.
    fn paced(&mut self, _window: Duration, _untraced_ops_per_s: f64) -> Vec<(&'static str, f64)> {
        Vec::new()
    }

    /// Stops everything; returns failures only teardown can see (frames
    /// lost in the tail of a stream).
    fn teardown(self) -> u64;
}

/// What the sampler thread saw of the registry during traced windows.
#[derive(Default)]
pub struct Sampled {
    pub traces: Vec<TraceRecord>,
    pub queue_depth_max: f64,
    pub dispatchers_busy_max: f64,
}

/// Polls the registry while traced windows run: drains the merged-trace
/// ring (128 entries) before it wraps, and keeps the maxima of the two
/// dispatch gauges, which the registry only reports as current values.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Sampled>,
}

impl Sampler {
    const PERIOD: Duration = Duration::from_millis(1);
    /// Merged traces kept; plenty for a median and a 99th percentile.
    const MAX_TRACES: usize = 200_000;

    pub fn start(registry: Arc<Registry>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_seen = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("ledger-sampler".into())
            .spawn(move || {
                let queue_depth = registry.gauge("orb_dispatch_queue_depth");
                let busy = registry.gauge("orb_dispatchers_busy");
                let mut out = Sampled::default();
                let mut seen = std::collections::HashSet::new();
                while !stop_seen.load(Ordering::Acquire) {
                    out.queue_depth_max = out.queue_depth_max.max(queue_depth.get());
                    out.dispatchers_busy_max = out.dispatchers_busy_max.max(busy.get());
                    if out.traces.len() < Self::MAX_TRACES {
                        let recent = registry.recent_traces();
                        let fresh: Vec<TraceRecord> = recent
                            .into_iter()
                            .filter(|t| seen.insert(t.trace_id))
                            .collect();
                        // Ids leave the ring for good; forget the old ones.
                        if seen.len() > 4096 {
                            seen = fresh.iter().map(|t| t.trace_id).collect();
                        }
                        out.traces.extend(fresh);
                    }
                    std::thread::sleep(Self::PERIOD);
                }
                out
            })
            .expect("spawn the sampler thread");
        Sampler { stop, thread }
    }

    pub fn finish(self) -> Sampled {
        self.stop.store(true, Ordering::Release);
        self.thread.join().expect("sampler thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_stay_bounded_and_keep_the_distribution() {
        let mut s = Samples::new();
        let n = Samples::CAP as u64 * 3 + 17;
        for i in 0..n {
            s.push(i);
        }
        let sorted = s.into_sorted();
        assert!(sorted.len() <= Samples::CAP && sorted.len() > Samples::CAP / 4);
        let p50 = stats::percentile(&sorted, 50.0) as f64;
        assert!((p50 / n as f64 - 0.5).abs() < 0.01, "p50 {p50} of {n}");
        // Every kept sample sits on the final stride.
        assert!(sorted.iter().all(|v| v % 4 == 0));
    }

    #[test]
    fn meter_and_result_rates() {
        let window = Duration::from_millis(200);
        let mut meter = Meter::start(window);
        let mut n = 0u64;
        while meter.open() {
            meter.completed(Instant::now(), 100);
            n += 1;
            std::thread::sleep(Duration::from_millis(1));
        }
        let result = WindowResult::collect(vec![meter], host::cpu_time());
        assert_eq!(result.verified_ops(), n);
        assert_eq!(result.attempted, n);
        assert_eq!(result.latency_samples() as u64, n);
        assert!(result.ops_per_s() > 100.0 && result.ops_per_s() < 1100.0);
        let block = Block::of(&result, 1.0);
        assert_eq!((block.ops, block.bytes, block.samples), (n, n * 100, n));
        assert!(block.busy_s > 0.1 && block.busy_s < 0.3);
        assert!(result.latency_us(50.0) < 1000.0);
        assert_eq!(result.tail_percentile(99.0), 90.0);
    }

    #[test]
    fn attributed_errors_are_tolerated_up_to_their_share_and_others_never() {
        let window = Duration::from_secs(1);
        let result_of = |attributed: u64, wrong: u64| {
            let mut meter = Meter::start(window);
            for _ in 0..2_000 - attributed - wrong {
                meter.completed(Instant::now(), 64);
            }
            for _ in 0..attributed {
                meter.failed_attributed(Instant::now(), &"replica down");
            }
            for _ in 0..wrong {
                meter.failed(Instant::now(), &"echo differs");
            }
            WindowResult::collect(vec![meter], host::cpu_time())
        };
        assert!(result_of(0, 0).acceptable());
        // 2 of 2 000 is the limit, 0.001.
        let at_limit = result_of(2, 0);
        assert_eq!((at_limit.failed, at_limit.attempted), (2, 2_000));
        assert!(at_limit.acceptable());
        assert!(!result_of(3, 0).acceptable());
        assert!(!result_of(0, 1).acceptable());
        assert!(!result_of(1, 1).acceptable());
        let mut hung = result_of(0, 0);
        hung.hung = true;
        assert!(!hung.acceptable());
    }

    #[test]
    fn figures_are_medians_over_blocks_at_speed_one() {
        // Nine blocks: five while the host ran at 0.7 of its speed (700
        // ops/s, 14.3 us a call), three at full speed, one stalled outright.
        let block = |ops: u64, lat_p50_us: f64, speed: f64| Block {
            ops,
            bytes: ops * 64,
            samples: ops,
            busy_s: 1.0,
            lat_p50_us,
            tail_percentile: 90.0,
            lat_tail_us: 2.0 * lat_p50_us,
            cpu_us_per_op: lat_p50_us,
            rss_mib: 8.0,
            speed,
        };
        let mut blocks: Vec<Block> = (0..5).map(|_| block(700, 10.0 / 0.7, 0.7)).collect();
        blocks.extend((0..3).map(|_| block(1_000, 10.0, 1.0)));
        blocks.push(block(100, 1_000.0, 1.0));
        blocks[8].rss_mib = 500.0;
        let mut all = Blocks {
            blocks,
            scaled: true,
        };
        let near = |a: f64, b: f64| (a / b - 1.0).abs() < 1e-9;
        assert!(near(all.ops_per_s(), 1_000.0), "{}", all.ops_per_s());
        assert!(near(all.goodput_mbit_s(), 0.512));
        assert!(near(all.lat_p50_us(), 10.0));
        assert!(near(all.cpu_us_per_op(), 10.0));
        let (percentile, tail) = all.lat_tail_us();
        assert!(percentile == 90.0 && near(tail, 20.0));
        // Memory has no speed: the median of the readings.
        assert_eq!(all.rss_mib(), 8.0);
        assert_eq!(all.ops(), 5 * 700 + 3 * 1_000 + 100);
        // A block that supports a lower tail sets the tail reported, and
        // only blocks read at it count.
        all.blocks[8].tail_percentile = 50.0;
        let (percentile, tail) = all.lat_tail_us();
        assert!(percentile == 50.0 && near(tail, 2_000.0));
        // A timer-paced workload is reported as measured, its rates over
        // all blocks together.
        all.scaled = false;
        assert_eq!(all.ops_per_s(), (5 * 700 + 3 * 1_000 + 100) as f64 / 9.0);
        assert_eq!(all.lat_p50_us(), 10.0 / 0.7);
        // A block in which nothing completed has no rate to give.
        all.blocks.iter_mut().for_each(|b| b.ops = 0);
        assert_eq!(all.ops_per_s(), 0.0);
    }
}
