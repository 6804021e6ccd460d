//! `media_stream`: the MULTE use case and Figure 9's subject. One control
//! call opens the flow; after that 4 KiB frames cross Da CaPo's in-process
//! transport through a sequencing + error-detection stack. No netsim
//! shaping. The loop is closed by the ledger: the stack's loopback wire is
//! unbounded, so the source may run at most [`WINDOW_FRAMES`] ahead of the
//! receiver.

use super::orb_config;
use crate::harness::{Meter, Tracing, WindowResult, Workload, HANG_BOUND, WARMUP_OPS};
use crate::host;
use crate::payload::FrameSet;
use crate::stats;
use crate::trace::{self, now_ns, Recorder};
use crate::yard::Pace;
use cool_orb::prelude::*;
use dacapo::config::ConfigContext;
use multe_qos::Reliability;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::{Duration, Instant};

const FRAME_LEN: usize = 4096;

/// Frames the source may have sent beyond what the receiver has taken: the
/// stream's closed loop, as `rpc_load`'s outstanding requests are its. Da
/// CaPo's loopback wire queues without limit (README.md, "Findings"), so
/// without this a source faster than its receiver fills memory and a
/// frame's transit time is the length of that queue. Left alone, the
/// stacks' own bounded queues hold about 300 frames in flight; 256 (1 MiB)
/// sits just under that, costs no throughput, and makes resident memory
/// and the latency tail repeat from run to run.
const WINDOW_FRAMES: u64 = 256;

/// The receiver wakes a waiting source once per this many frames, so the
/// source sends in bursts and the credit path costs one wake per burst.
const CREDIT_BATCH: u64 = WINDOW_FRAMES / 4;

/// The stack the flow QoS {throughput, Checked, ordered} must configure.
const EXPECTED_GRAPH: &str = "seq -> parity";

/// What the ledger shares with the source thread the program runs for it.
struct SourceCtl {
    stop: AtomicBool,
    /// Set between windows, so that each ends with every frame sent
    /// accounted for and the next starts with none in flight.
    paused: AtomicBool,
    finished: AtomicBool,
    sent: AtomicU64,
    /// Frames the receiver has taken off the flow.
    received: AtomicU64,
    /// The thread the program runs the source on, parked while the window
    /// is full.
    source_thread: OnceLock<Thread>,
    /// Nanoseconds between sends; 0 = as fast as backpressure allows.
    pace_ns: AtomicU64,
    frames: FrameSet,
    recorder: Option<Arc<Recorder>>,
}

impl SourceCtl {
    fn pump(&self, flow: FlowHandle) {
        self.source_thread
            .set(std::thread::current())
            .expect("one source per flow");
        let mut due = now_ns();
        let mut seq = 0u64;
        while !self.stop.load(Ordering::Acquire) {
            if self.paused.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            if seq - self.received.load(Ordering::Acquire) >= WINDOW_FRAMES {
                // The timeout covers a credit given between the check and
                // the park, and lets a stop or a pause be seen.
                std::thread::park_timeout(Duration::from_millis(1));
                continue;
            }
            let pace = self.pace_ns.load(Ordering::Relaxed);
            if pace > 0 {
                due = due.max(now_ns().saturating_sub(pace)) + pace;
                while now_ns() < due {
                    std::thread::yield_now();
                }
            }
            let frame = self.frames.frame(seq, now_ns());
            let span = trace::enter(self.recorder.as_deref(), "source.send", seq);
            let sent = flow.send(frame);
            drop(span);
            if sent.is_err() {
                break;
            }
            seq += 1;
            self.sent.store(seq, Ordering::Release);
        }
        // Waits for in-flight frames to clear before tearing down.
        flow.close();
        self.finished.store(true, Ordering::Release);
    }
}

/// Why a receive produced no verified frame.
enum RecvError {
    Timeout,
    /// Closed, corrupt or out of order.
    Bad(String),
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Timeout => write!(f, "no frame within the wait"),
            RecvError::Bad(why) => write!(f, "{why}"),
        }
    }
}

pub struct MediaStream {
    server_orb: Arc<Orb>,
    server: OrbServer,
    client_orb: Arc<Orb>,
    receiver: StreamReceiver,
    ctl: Arc<SourceCtl>,
    next_seq: u64,
}

impl MediaStream {
    /// Receives and checks one frame: hash, then sequence (in order, no
    /// gaps). Returns its transit time.
    fn recv_one(&mut self, timeout: Duration) -> Result<Duration, RecvError> {
        let started = now_ns();
        let frame = self.receiver.recv(timeout).map_err(|e| match e {
            OrbError::Timeout { .. } => RecvError::Timeout,
            other => RecvError::Bad(other.to_string()),
        })?;
        let arrived = now_ns();
        let info = FrameSet::check(&frame)
            .ok_or_else(|| RecvError::Bad("frame body does not hash to its header".to_owned()))?;
        if let Some(recorder) = &self.ctl.recorder {
            recorder.record("receiver.recv", info.seq, started, arrived);
        }
        let expected = self.next_seq;
        self.next_seq = info.seq + 1;
        self.ctl.received.store(self.next_seq, Ordering::Release);
        if self.next_seq.is_multiple_of(CREDIT_BATCH) {
            if let Some(source) = self.ctl.source_thread.get() {
                source.unpark();
            }
        }
        if info.seq != expected {
            return Err(RecvError::Bad(format!(
                "frame {} arrived where {expected} was due",
                info.seq
            )));
        }
        Ok(Duration::from_nanos(arrived.saturating_sub(info.sent_ns)))
    }

    /// Lets the source run for `window`, receiving and checking as fast as
    /// frames arrive, then pauses it and receives what is still in flight.
    fn receive_for(&mut self, window: Duration) -> Meter {
        self.ctl.paused.store(false, Ordering::Release);
        let mut meter = Meter::start(window);
        while meter.open() {
            let started = Instant::now();
            match self.recv_one(HANG_BOUND) {
                Ok(transit) => meter.completed_after(transit, FRAME_LEN),
                Err(why) => {
                    meter.failed(started, &why.to_string());
                    if meter.failed > 100 {
                        break;
                    }
                }
            }
        }
        meter.failed += self.pause_and_drain();
        meter
    }

    /// Pauses the source and receives until every frame it sent is here;
    /// returns how many never came (or came wrong).
    fn pause_and_drain(&mut self) -> u64 {
        self.ctl.paused.store(true, Ordering::Release);
        let deadline = Instant::now() + HANG_BOUND;
        let mut bad = 0u64;
        // `sent` can still rise by the one frame the source was sending.
        let mut quiet = 0;
        while Instant::now() < deadline && quiet < 3 {
            match self.recv_one(Duration::from_millis(5)) {
                Ok(_) => quiet = 0,
                Err(RecvError::Timeout)
                    if self.next_seq >= self.ctl.sent.load(Ordering::Acquire) =>
                {
                    quiet += 1
                }
                Err(RecvError::Timeout) => {}
                Err(RecvError::Bad(_)) => bad += 1,
            }
        }
        bad + self
            .ctl
            .sent
            .load(Ordering::Acquire)
            .saturating_sub(self.next_seq)
    }
}

impl Workload for MediaStream {
    const PACE: Pace = Pace::Compute;

    fn setup(seed: u64, tracing: Option<&Tracing>) -> Result<Self, String> {
        let exchange = LocalExchange::new();
        let config = orb_config(tracing);
        let server_orb =
            Orb::with_exchange_and_config("ledger-media-server", exchange.clone(), config.clone());
        let ctl = Arc::new(SourceCtl {
            stop: AtomicBool::new(false),
            paused: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            sent: AtomicU64::new(0),
            received: AtomicU64::new(0),
            source_thread: OnceLock::new(),
            pace_ns: AtomicU64::new(0),
            frames: FrameSet::new(seed, FRAME_LEN),
            recorder: tracing.map(|t| Arc::clone(&t.recorder)),
        });
        let policy = ServerPolicy::builder()
            .max_throughput_bps(100_000_000)
            .max_reliability(Reliability::Reliable)
            .supports_ordering(true)
            .build();
        let source_ctl = Arc::clone(&ctl);
        serve_source(
            &server_orb,
            "media",
            policy,
            move |flow: FlowHandle, _granted: &GrantedQoS| source_ctl.pump(flow),
        )
        .map_err(|e| format!("serve source: {e}"))?;
        let server = server_orb
            .listen_chorus("media-control")
            .map_err(|e| format!("listen: {e}"))?;

        let client_orb =
            Orb::with_exchange_and_config("ledger-media-client", exchange.clone(), config);
        let flow_qos = QoSSpec::builder()
            .throughput_bps(20_000_000, 1_000_000, 100_000_000)
            .reliability(Reliability::Checked)
            .ordered(true)
            .build();
        let receiver = open_stream(&client_orb, &server.object_ref("media"), flow_qos)
            .map_err(|e| format!("open stream: {e}"))?;
        let requirements = TransportRequirements::from_granted(receiver.granted());
        let graph = exchange
            .configuration_manager()
            .configure(&requirements, &ConfigContext::default())
            .map_err(|e| format!("configure: {e}"))?
            .graph
            .to_string();
        if graph != EXPECTED_GRAPH {
            return Err(format!(
                "flow QoS configured {graph:?}, expected {EXPECTED_GRAPH:?}"
            ));
        }

        let mut me = MediaStream {
            server_orb,
            server,
            client_orb,
            receiver,
            ctl,
            next_seq: 0,
        };
        for _ in 0..WARMUP_OPS {
            me.recv_one(HANG_BOUND)
                .map_err(|e| format!("warm-up: {e}"))?;
        }
        match me.pause_and_drain() {
            0 => Ok(me),
            lost => Err(format!("warm-up: {lost} frames lost")),
        }
    }

    fn run(&mut self, window: Duration) -> WindowResult {
        let cpu_before = host::cpu_time();
        let meter = self.receive_for(window);
        WindowResult::collect(vec![meter], cpu_before)
    }

    /// Transit time with the source paced at half the untraced rate: what a
    /// frame spends in the stack when it does not queue behind others.
    fn paced(&mut self, window: Duration, untraced_ops_per_s: f64) -> Vec<(&'static str, f64)> {
        let period_ns = (2e9 / untraced_ops_per_s.max(1.0)) as u64;
        self.ctl.pace_ns.store(period_ns.max(1), Ordering::Relaxed);
        // The first half lets the full-rate backlog drain; it is not kept.
        let _ = self.receive_for(window / 2);
        let meter = self.receive_for(window / 2);
        self.ctl.pace_ns.store(0, Ordering::Relaxed);
        let transit = meter.into_sorted_samples();
        if transit.is_empty() {
            return Vec::new();
        }
        vec![(
            "dacapo.frame_transit_p50_us",
            stats::percentile(&transit, 50.0) as f64 / 1000.0,
        )]
    }

    fn teardown(self) -> u64 {
        // Every window ended drained, so nothing is in flight; the source
        // sees the stop within a millisecond and closes the flow.
        self.ctl.stop.store(true, Ordering::Release);
        let deadline = Instant::now() + HANG_BOUND;
        while !self.ctl.finished.load(Ordering::Acquire) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let unfinished = u64::from(!self.ctl.finished.load(Ordering::Acquire));
        self.receiver.close();
        self.client_orb.shutdown();
        self.server.close();
        self.server_orb.shutdown();
        unfinished
    }
}
