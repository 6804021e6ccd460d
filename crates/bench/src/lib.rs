//! Shared measurement harness for the paper-reproduction benchmarks.
//!
//! The evaluation section of the paper contains two measurements, both
//! regenerated here (see `DESIGN.md` for the experiment index):
//!
//! * **Figure 9** — Da CaPo throughput for protocol configurations ×
//!   packet sizes ([`measure_throughput`], [`fig9_configs`],
//!   [`fig9_packet_sizes`]).
//! * **"Table 1"** — response time of remote invocations under standard
//!   GIOP 1.0 vs the QoS-extended GIOP 9.9 ([`RttHarness`]).

#![forbid(unsafe_code)]

use bytes::Bytes;
use cool_orb::prelude::*;
use dacapo::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The Figure 9 testbed link: 155 Mbit/s ATM-class bandwidth, 200 µs
/// propagation, and a 60 µs fixed per-frame cost standing in for the
/// era's per-packet protocol/driver overhead (what makes throughput grow
/// with packet size in the paper).
pub fn fig9_link_spec() -> netsim::LinkSpec {
    netsim::LinkSpec::builder()
        .bandwidth_bps(155_000_000)
        .propagation(Duration::from_micros(200))
        .frame_overhead(Duration::from_micros(60))
        .build()
        .expect("valid link spec")
}

/// The packet sizes swept in Figure 9.
pub fn fig9_packet_sizes() -> Vec<usize> {
    vec![512, 1024, 2048, 4096, 8192, 16384, 32768, 65536]
}

/// The protocol configurations of Figure 9: dummy-module chains of
/// increasing depth plus the idle-repeat-request configuration.
pub fn fig9_configs() -> Vec<(String, ModuleGraph)> {
    let mut configs: Vec<(String, ModuleGraph)> = [0usize, 5, 10, 20, 40]
        .into_iter()
        .map(|n| {
            (
                format!("{n}-dummies"),
                ModuleGraph::from_ids(vec!["dummy"; n]),
            )
        })
        .collect();
    configs.push(("irq".to_string(), ModuleGraph::from_ids(["irq"])));
    configs
}

/// Pumps pre-allocated packets of `packet_size` bytes through `graph`
/// over a link with `spec` for `duration`; returns received Mbit/s.
///
/// This is the paper's measuring A-module pair: the sender clones a
/// pre-allocated buffer, the receiver counts packets per interval.
pub fn measure_throughput(
    graph: &ModuleGraph,
    packet_size: usize,
    duration: Duration,
    spec: &netsim::LinkSpec,
) -> f64 {
    let catalog = MechanismCatalog::standard();
    let link = netsim::Link::real_time(spec.clone());
    let (ea, eb) = link.endpoints();
    let tx =
        Connection::establish(graph.clone(), NetsimTransport::new(ea), &catalog).expect("tx up");
    let rx =
        Connection::establish(graph.clone(), NetsimTransport::new(eb), &catalog).expect("rx up");

    let packet = Bytes::from(vec![0x5A; packet_size]);
    let stop = Arc::new(AtomicBool::new(false));
    let sender = {
        let ep = tx.endpoint();
        let packet = packet.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                if ep.try_send(packet.clone()).is_err() {
                    // Load-generator backoff under stack backpressure.
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        })
    };

    // Warm-up: let the pipeline fill and threads settle before measuring.
    let mut warmed = 0;
    while warmed < 4 {
        if rx
            .endpoint()
            .recv_timeout(Duration::from_millis(500))
            .is_ok()
        {
            warmed += 1;
        } else {
            break;
        }
    }

    let meter = ThroughputMeter::new();
    let start = Instant::now();
    loop {
        let remaining = duration.saturating_sub(start.elapsed());
        if remaining.is_zero() {
            break;
        }
        // Never wait past the window end: a trailing timeout would inflate
        // the elapsed time without contributing packets.
        if let Ok(p) = rx
            .endpoint()
            .recv_timeout(remaining.min(Duration::from_millis(100)))
        {
            meter.record(p.len());
        }
    }
    let elapsed = start.elapsed();
    stop.store(true, Ordering::Release);
    let mbps = meter.mbps(elapsed);
    tx.close();
    rx.close();
    let _ = sender.join();
    mbps
}

/// Response-time statistics over a set of samples.
#[derive(Debug, Clone, Copy)]
pub struct RttStats {
    /// Arithmetic mean.
    pub mean: Duration,
    /// Median.
    pub p50: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Sample count.
    pub samples: usize,
}

impl RttStats {
    /// Computes stats from raw samples.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub fn from_samples(mut samples: Vec<Duration>) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        samples.sort_unstable();
        let sum: Duration = samples.iter().sum();
        let n = samples.len();
        RttStats {
            mean: sum / n as u32,
            p50: samples[n / 2],
            p99: samples[(n * 99) / 100],
            samples: n,
        }
    }
}

/// An echo server + bound client stub over loopback TCP, for the
/// GIOP 1.0 vs 9.9 response-time comparison.
pub struct RttHarness {
    server: OrbServer,
    stub: Stub,
    _client_orb: Arc<Orb>,
    _server_orb: Arc<Orb>,
}

impl RttHarness {
    /// Starts the echo server and binds a client stub (loopback TCP).
    pub fn new() -> Self {
        let exchange = LocalExchange::new();
        let server_orb = Orb::with_exchange("rtt-server", exchange.clone());
        server_orb
            .adapter()
            .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
            .expect("register echo");
        let server = server_orb.listen_tcp("127.0.0.1:0").expect("listen");
        let client_orb = Orb::with_exchange("rtt-client", exchange);
        let stub = client_orb.bind(&server.object_ref("echo")).expect("bind");
        RttHarness {
            server,
            stub,
            _client_orb: client_orb,
            _server_orb: server_orb,
        }
    }

    /// Applies a QoS spec with `k` constrained dimensions (0 = standard
    /// GIOP; k up to 16 pads with uninterpreted parameters, exercising the
    /// marshalling cost of a growing `qos_params` sequence).
    pub fn set_qos_dimensions(&self, k: usize) {
        if k == 0 {
            self.stub.clear_qos().expect("clear qos");
            return;
        }
        let mut builder = QoSSpec::builder().throughput_bps(1_000_000, 0, i32::MAX);
        if k >= 2 {
            builder = builder.reliability(multe_qos::Reliability::Checked);
        }
        if k >= 3 {
            builder = builder.ordered(true);
        }
        if k >= 4 {
            builder = builder.latency(
                Duration::from_millis(10),
                Duration::ZERO,
                Duration::from_secs(1),
            );
        }
        for extra in 4..k {
            builder = builder.other(cool_giop::QoSParameter {
                param_type: 1000 + extra as u32,
                request_value: extra as u32,
                max_value: i32::MAX,
                min_value: 0,
            });
        }
        self.stub
            .set_qos_parameter(builder.build())
            .expect("set qos");
    }

    /// Runs `n` echo invocations of `payload` bytes; returns per-call
    /// response times.
    pub fn run(&self, n: usize, payload: usize) -> Vec<Duration> {
        let body = Bytes::from(vec![7u8; payload]);
        // Warm-up: connection establishment and first-call costs.
        for _ in 0..10 {
            self.stub.invoke("echo", body.clone()).expect("warmup call");
        }
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let start = Instant::now();
            self.stub.invoke("echo", body.clone()).expect("echo call");
            samples.push(start.elapsed());
        }
        samples
    }

    /// Shuts the harness down.
    pub fn close(self) {
        self.server.close();
    }
}

impl Default for RttHarness {
    fn default() -> Self {
        RttHarness::new()
    }
}

/// JSON fragment for one [`RttStats`] (µs-resolution fields).
pub fn rtt_stats_json(stats: &RttStats) -> String {
    format!(
        "{{\"samples\":{},\"mean_us\":{},\"p50_us\":{},\"p99_us\":{}}}",
        stats.samples,
        stats.mean.as_micros(),
        stats.p50.as_micros(),
        stats.p99.as_micros()
    )
}

/// Emits one machine-readable result line (`BENCH_JSON {…}`) and mirrors
/// it to `BENCH_<name>.json` in the working directory (gitignored), so a
/// run's numbers can be kept beside its printed table.
pub fn emit_bench_json(name: &str, json: &str) {
    println!("BENCH_JSON {json}");
    let path = format!("BENCH_{name}.json");
    if let Err(e) = std::fs::write(&path, format!("{json}\n")) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtt_stats_computes_percentiles() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_micros).collect();
        let stats = RttStats::from_samples(samples);
        assert_eq!(stats.samples, 100);
        assert_eq!(stats.p50, Duration::from_micros(51));
        assert_eq!(stats.p99, Duration::from_micros(100));
        assert!(stats.mean >= Duration::from_micros(50));
    }

    #[test]
    fn harness_round_trips_with_and_without_qos() {
        let h = RttHarness::new();
        let s0 = h.run(5, 64);
        assert_eq!(s0.len(), 5);
        h.set_qos_dimensions(4);
        let s4 = h.run(5, 64);
        assert_eq!(s4.len(), 5);
        h.set_qos_dimensions(16);
        let s16 = h.run(5, 64);
        assert_eq!(s16.len(), 5);
        h.set_qos_dimensions(0);
        let back = h.run(5, 64);
        assert_eq!(back.len(), 5);
        h.close();
    }

    #[test]
    fn fig9_grid_is_complete() {
        assert_eq!(fig9_packet_sizes().len(), 8);
        let configs = fig9_configs();
        assert_eq!(configs.len(), 6);
        assert_eq!(configs.last().unwrap().0, "irq");
    }

    #[test]
    fn quick_throughput_measurement_runs() {
        let graph = ModuleGraph::empty();
        let mbps = measure_throughput(&graph, 8192, Duration::from_millis(150), &fig9_link_spec());
        assert!(mbps > 1.0, "throughput {mbps} suspiciously low");
        assert!(mbps < 200.0, "throughput {mbps} exceeds the simulated link");
    }
}
