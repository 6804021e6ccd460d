//! Per-layer probes: the ledger calls one public function of one layer
//! directly, on seeded inputs, and reports the median of ten batches. These
//! are the rows of the latency budget that spans around whole calls cannot
//! see. Layers are the crates; a metric is named `<crate>.<what>`.

use crate::harness::HANG_BOUND;
use crate::host;
use crate::rng::Rng;
use crate::stats;
use crate::workloads::qos4_spec;
use bytes::{Bytes, BytesMut};
use cool_giop::prelude::*;
use cool_naming::{DirectoryClient, DirectoryServer};
use cool_orb::message_layer::giop::{interpret_reply, make_request};
use cool_orb::prelude::*;
use cool_orb::transport::{
    ChorusComChannel, ComChannel, DacapoComChannel, FrameInbox, FrameSink, TcpComChannel,
};
use cool_telemetry::{Registry, SpanOutcome, Stage};
use dacapo::config::ConfigContext;
use dacapo::prelude::*;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Channel = Arc<dyn ComChannel>;

const BATCHES: usize = 10;
const KEY: &[u8] = b"svc";

/// One probe reading.
#[derive(Debug, Clone)]
pub struct Reading {
    pub name: &'static str,
    pub value: f64,
    /// Iterations (or samples) behind the value.
    pub n: u64,
}

pub struct Probes {
    /// Time one batch may take; a probe runs ten.
    batch: Duration,
    seed: u64,
    pub readings: Vec<Reading>,
}

/// Times `iters` runs of `op`.
fn time_loop<T>(iters: u64, mut op: impl FnMut() -> T) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(op());
    }
    start.elapsed()
}

impl Probes {
    /// `budget` is the wall time all probes together may take. The slowest
    /// (binds, establishes, the shaped link) have fixed floors, so very
    /// small budgets overrun.
    pub fn new(seed: u64, budget: Duration) -> Self {
        // The probes' weights sum to ~100; ten batches each, plus finding
        // the iteration counts and the set-up between probes.
        Probes {
            batch: budget / 1300,
            seed,
            readings: Vec::new(),
        }
    }

    fn push(&mut self, name: &'static str, value: f64, n: u64) {
        self.readings.push(Reading { name, value, n });
    }

    pub fn value(&self, name: &str) -> f64 {
        self.readings
            .iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.value)
    }

    /// Median over ten batches of the mean time per iteration, in ns.
    /// `run(iters)` returns the time `iters` iterations took (so a probe can
    /// leave its own untimed work out); `weight` scales the batch time for
    /// slow operations.
    fn per_iter_ns(&self, weight: u32, mut run: impl FnMut(u64) -> Duration) -> (f64, u64) {
        let batch = self.batch * weight;
        // Find an iteration count that fills a batch of wall time, the
        // probe's untimed work included.
        let mut wall = |iters: u64| {
            let start = Instant::now();
            run(iters);
            start.elapsed()
        };
        let mut iters = 1u64;
        let mut took = wall(iters);
        while took < batch / 4 && iters < 1 << 26 {
            iters *= 4;
            took = wall(iters);
        }
        let per_iter = (took.as_nanos() as f64 / iters as f64).max(0.1);
        let iters = ((batch.as_nanos() as f64 / per_iter) as u64).max(1);
        let means: Vec<f64> = (0..BATCHES)
            .map(|_| run(iters).as_nanos() as f64 / iters as f64)
            .collect();
        (stats::median(&means), iters * BATCHES as u64)
    }

    fn ns(&mut self, name: &'static str, weight: u32, run: impl FnMut(u64) -> Duration) {
        let (value, n) = self.per_iter_ns(weight, run);
        self.push(name, value, n);
    }

    fn us(&mut self, name: &'static str, weight: u32, run: impl FnMut(u64) -> Duration) {
        let (value, n) = self.per_iter_ns(weight, run);
        self.push(name, value / 1000.0, n);
    }

    pub fn run_all(&mut self) -> Result<(), String> {
        self.giop();
        self.qos()?;
        self.orb_in_process()?;
        self.orb_channels()?;
        self.orb_calls()?;
        self.orb_resolved()?;
        self.dacapo()?;
        self.netsim()?;
        self.naming()?;
        self.chorus();
        self.telemetry();
        Ok(())
    }

    // ---- cool-giop ------------------------------------------------------

    fn request(&self, body_len: usize, qos: Vec<QoSParameter>) -> Message {
        Message::Request {
            header: RequestHeader::builder(7, KEY.to_vec(), "echo")
                .response_expected(true)
                .qos_params(qos)
                .build(),
            body: Bytes::from(Rng::lane(self.seed, 0x50).bytes(body_len)),
        }
    }

    fn reply(&self) -> Message {
        Message::Reply {
            header: ReplyHeader::new(7, ReplyStatus::NoException),
            body: Bytes::from(Rng::lane(self.seed, 0x51).bytes(64)),
        }
    }

    fn giop(&mut self) {
        fn encode(msg: &Message, version: GiopVersion) -> impl FnMut(u64) -> Duration + '_ {
            let mut buf = BytesMut::with_capacity(32 * 1024);
            move |iters| {
                time_loop(iters, || {
                    buf.clear();
                    msg.encode_into(version, ByteOrder::Big, &mut buf)
                        .expect("encode");
                    buf.len()
                })
            }
        }
        let frame_of = |msg: &Message, version: GiopVersion| {
            encode_message(msg, version, ByteOrder::Big).expect("encode")
        };
        let request = self.request(64, Vec::new());
        let request_qos4 = self.request(64, qos4_spec().to_params());
        let request_16k = self.request(16 * 1024, Vec::new());
        let reply = self.reply();
        self.ns(
            "cool-giop.encode_request_ns",
            1,
            encode(&request, GiopVersion::STANDARD),
        );
        self.ns(
            "cool-giop.encode_request_qos4_ns",
            1,
            encode(&request_qos4, GiopVersion::QOS_EXTENDED),
        );
        self.ns(
            "cool-giop.encode_request_16k_ns",
            1,
            encode(&request_16k, GiopVersion::STANDARD),
        );
        self.ns(
            "cool-giop.encode_reply_ns",
            1,
            encode(&reply, GiopVersion::STANDARD),
        );
        for (name, msg) in [
            ("cool-giop.decode_request_ns", &request),
            ("cool-giop.decode_reply_ns", &reply),
        ] {
            let frame = frame_of(msg, GiopVersion::STANDARD);
            self.ns(name, 1, |iters| {
                time_loop(iters, || Message::decode_frame(&frame).expect("decode"))
            });
        }
        let frames: Vec<Bytes> = (0..16)
            .map(|_| frame_of(&request, GiopVersion::STANDARD))
            .collect();
        let batch = join_frames(&frames);
        let (value, n) = self.per_iter_ns(1, |iters| {
            time_loop(iters, || split_frames(&batch).filter(|f| f.is_ok()).count())
        });
        self.push("cool-giop.split_frames_ns_per_frame", value / 16.0, n * 16);
    }

    // ---- multe-qos ------------------------------------------------------

    fn qos(&mut self) -> Result<(), String> {
        let policy = ServerPolicy::builder()
            .max_throughput_bps(10_000_000)
            .min_latency_us(100)
            .max_reliability(multe_qos::Reliability::Reliable)
            .supports_ordering(true)
            .build();
        let spec = qos4_spec();
        let granted = policy
            .negotiate(&spec)
            .map_err(|e| format!("negotiate: {e}"))?;
        let too_much = |bps: u32| {
            QoSSpec::builder()
                .throughput_bps(bps, bps as i32, i32::MAX)
                .build()
        };
        let ladder = [too_much(80_000_000), too_much(40_000_000), spec.clone()];
        if !matches!(policy.negotiate_ladder(&ladder), Ok((2, _))) {
            return Err("the three-rung ladder must land on its last rung".to_owned());
        }
        self.ns("multe-qos.negotiate_ns", 1, |iters| {
            time_loop(iters, || policy.negotiate(&spec))
        });
        self.ns("multe-qos.negotiate_ladder3_ns", 1, |iters| {
            time_loop(iters, || policy.negotiate_ladder(&ladder))
        });
        self.ns("multe-qos.spec_params_roundtrip_ns", 1, |iters| {
            time_loop(iters, || QoSSpec::from_params(&spec.to_params()))
        });
        self.ns("multe-qos.requirements_from_granted_ns", 1, |iters| {
            time_loop(iters, || TransportRequirements::from_granted(&granted))
        });
        Ok(())
    }

    // ---- cool-orb: pieces that never leave the calling thread ------------

    fn orb_in_process(&mut self) -> Result<(), String> {
        let args = Bytes::from(Rng::lane(self.seed, 0x52).bytes(64));
        let orb = Orb::with_exchange("ledger-probe-colocated", LocalExchange::new());
        orb.adapter()
            .register_fn("svc", |_op, args, _ctx| Ok(args.to_vec()))
            .map_err(|e| format!("register: {e}"))?;
        let server = orb
            .listen_chorus("colocated")
            .map_err(|e| format!("listen: {e}"))?;
        let stub = orb
            .bind(&server.object_ref("svc"))
            .map_err(|e| format!("bind: {e}"))?;
        if !stub.is_colocated() {
            return Err("a stub bound to its own ORB's object must be colocated".to_owned());
        }
        self.ns("cool-orb.colocated_call_ns", 1, |iters| {
            time_loop(iters, || {
                stub.invoke("echo", args.clone()).expect("colocated call")
            })
        });
        let best_effort = QoSSpec::best_effort();
        self.ns("cool-orb.adapter_dispatch_ns", 1, |iters| {
            time_loop(iters, || {
                orb.adapter()
                    .dispatch(KEY, "echo", &args, &best_effort, false)
            })
        });
        server.close();

        self.ns("cool-orb.make_request_ns", 1, |iters| {
            time_loop(iters, || {
                make_request(
                    7,
                    KEY,
                    "echo",
                    args.clone(),
                    Vec::new(),
                    true,
                    None,
                    ByteOrder::Big,
                )
            })
        });
        let reply_frame = encode_message(&self.reply(), GiopVersion::STANDARD, ByteOrder::Big)
            .map_err(|e| format!("encode reply: {e}"))?;
        let (Message::Reply { header, body }, _, order) =
            Message::decode_frame(&reply_frame).map_err(|e| format!("decode reply: {e}"))?
        else {
            return Err("a reply frame must decode to a reply".to_owned());
        };
        self.ns("cool-orb.interpret_reply_ns", 1, |iters| {
            time_loop(iters, || interpret_reply(&header, &body, order))
        });
        Ok(())
    }

    // ---- cool-orb: raw channel ping-pong, no ORB --------------------------

    fn orb_channels(&mut self) -> Result<(), String> {
        // FrameInbox: push on this thread wakes a thread blocked in
        // recv_timeout; a round trip is two such handoffs.
        let (there, back) = (Arc::new(FrameInbox::new()), Arc::new(FrameInbox::new()));
        let (echo_in, echo_out) = (Arc::clone(&there), Arc::clone(&back));
        let echo = std::thread::Builder::new()
            .name("ledger-inbox-echo".into())
            .spawn(move || {
                while let Ok(frame) = echo_in.recv_timeout(HANG_BOUND) {
                    echo_out.push(frame);
                }
            })
            .map_err(|e| format!("spawn inbox thread: {e}"))?;
        let frame = Bytes::from_static(&[7u8; 64]);
        let (rtt, n) = self.per_iter_ns(2, |iters| {
            time_loop(iters, || {
                there.push(frame.clone());
                back.recv_timeout(HANG_BOUND).expect("inbox echo")
            })
        });
        self.push("cool-orb.inbox_handoff_ns", rtt / 2.0, n * 2);
        there.close();
        echo.join()
            .map_err(|_| "inbox echo thread panicked".to_owned())?;

        Ok(())
    }

    /// A connected raw channel pair of the given transport, no ORB on it.
    fn channel_pair(transport: &str) -> Result<(Channel, Channel), String> {
        Ok(match transport {
            "tcp" => {
                let listener = TcpComChannel::listen("127.0.0.1:0").map_err(|e| e.to_string())?;
                let addr = listener.local_addr().map_err(|e| e.to_string())?;
                let near = TcpComChannel::connect(addr).map_err(|e| e.to_string())?;
                let (accepted, _) = listener.accept().map_err(|e| e.to_string())?;
                let far = TcpComChannel::from_stream(accepted).map_err(|e| e.to_string())?;
                (Arc::new(near), Arc::new(far))
            }
            "chorus" => {
                let (near, far) = ChorusComChannel::pair();
                (Arc::new(near), Arc::new(far))
            }
            _ => {
                let catalog = MechanismCatalog::standard();
                let (ta, tb) = loopback_pair();
                let a = Connection::establish(ModuleGraph::empty(), ta, &catalog)
                    .map_err(|e| e.to_string())?;
                let b = Connection::establish(ModuleGraph::empty(), tb, &catalog)
                    .map_err(|e| e.to_string())?;
                let (near, far) =
                    DacapoComChannel::pair(a, b, ConfigurationManager::standard(), None)
                        .map_err(|e| e.to_string())?;
                (Arc::new(near), Arc::new(far))
            }
        })
    }

    // ---- cool-orb: whole calls, binds, stream open ------------------------

    /// An idle 64-byte call against the raw frame round trip of the same
    /// transport, in alternating blocks, so a change in how long this host
    /// takes to wake a thread lands on both. The raw pair's far end echoes
    /// from a sink, on whatever thread the transport delivers on: its round
    /// trip holds the transport's own handoffs and the caller's wake but
    /// none of the ORB's. The residual — what of the call's median neither
    /// the frame round trip nor the codec rows explain: dispatcher pool,
    /// demux, waiter — is the median over block pairs.
    fn call_against_frame_rtt(
        &mut self,
        transport: &str,
        call_name: &'static str,
        rtt_name: &'static str,
        residual_name: &'static str,
        call: impl Fn(),
    ) -> Result<(), String> {
        struct Echo(Arc<dyn ComChannel>);
        impl FrameSink for Echo {
            fn on_frame(&self, frame: Bytes) {
                // A failed send means the probe is closing the pair.
                let _ = self.0.send_frame(frame);
            }
            fn on_close(&self) {}
        }
        const BLOCK: usize = 200;
        let (near, far) = Self::channel_pair(transport)?;
        far.set_sink(Arc::new(Echo(Arc::clone(&far))));
        let frame = Bytes::from(Rng::lane(self.seed, 0x53).bytes(64));
        let ping = || {
            near.send_frame(frame.clone()).expect("send");
            near.recv_frame(HANG_BOUND).expect("echo");
        };
        let block = |op: &dyn Fn()| -> Vec<u64> {
            (0..BLOCK)
                .map(|_| {
                    let start = Instant::now();
                    op();
                    start.elapsed().as_nanos() as u64
                })
                .collect()
        };
        let p50 = |samples: &mut Vec<u64>| {
            samples.sort_unstable();
            stats::percentile(samples, 50.0) as f64 / 1000.0
        };
        let codec_us = self.codec_rows_us();
        let deadline = Instant::now() + self.batch * 8 * BATCHES as u32;
        let (mut calls, mut pings, mut residuals) = (Vec::new(), Vec::new(), Vec::new());
        while Instant::now() < deadline || residuals.len() < 4 {
            let (mut c, mut p) = if residuals.len() % 2 == 0 {
                let c = block(&call);
                (c, block(&ping))
            } else {
                let p = block(&ping);
                (block(&call), p)
            };
            residuals.push(p50(&mut c) - p50(&mut p) - codec_us);
            calls.extend(c);
            pings.extend(p);
        }
        // Closing drops the sink, which breaks its cycle with the channel.
        near.close();
        far.close();
        let n = calls.len() as u64;
        self.push(call_name, p50(&mut calls), n);
        self.push(rtt_name, p50(&mut pings), n);
        self.push(
            residual_name,
            stats::median(&residuals),
            residuals.len() as u64,
        );
        Ok(())
    }

    fn orb_calls(&mut self) -> Result<(), String> {
        let args = Bytes::from(Rng::lane(self.seed, 0x54).bytes(64));
        type Listen = fn(&Orb) -> Result<OrbServer, OrbError>;
        let transports: [(&str, [&'static str; 4], Listen); 3] = [
            ("tcp", TCP_NAMES, |orb| orb.listen_tcp("127.0.0.1:0")),
            ("chorus", CHORUS_NAMES, |orb| orb.listen_chorus("probe")),
            ("dacapo", DACAPO_NAMES, |orb| orb.listen_dacapo("probe")),
        ];
        for (transport, [call_name, rtt_name, residual_name, bind_name], listen) in transports {
            let exchange = LocalExchange::new();
            let server_orb = Orb::with_exchange("ledger-probe-server", exchange.clone());
            server_orb
                .adapter()
                .register_fn("svc", |_op, args, _ctx| Ok(args.to_vec()))
                .map_err(|e| format!("register: {e}"))?;
            let server = listen(&server_orb).map_err(|e| format!("listen {transport}: {e}"))?;
            let reference = server.object_ref("svc");
            let client = Orb::with_exchange("ledger-probe-client", exchange);
            let stub = client
                .bind(&reference)
                .map_err(|e| format!("bind {transport}: {e}"))?;
            stub.set_timeout(HANG_BOUND);
            let call = || {
                let reply = stub.invoke("echo", args.clone()).expect("probe call");
                assert_eq!(reply, args, "probe echo differs");
            };
            for _ in 0..500 {
                call();
            }
            self.call_against_frame_rtt(transport, call_name, rtt_name, residual_name, call)?;

            if transport == "tcp" {
                self.ns("cool-orb.oneway_issue_ns", 2, |iters| {
                    // A two-way call after every burst (untimed) keeps the
                    // server from falling behind an unbounded one-way flood.
                    let mut timed = Duration::ZERO;
                    let mut left = iters;
                    while left > 0 {
                        let burst = left.min(32);
                        timed += time_loop(burst, || {
                            stub.invoke_oneway("note", args.clone()).expect("one-way")
                        });
                        stub.invoke("echo", args.clone()).expect("drain call");
                        left -= burst;
                    }
                    timed
                });
                self.ns("cool-orb.deferred_issue_ns", 2, |iters| {
                    let mut timed = Duration::ZERO;
                    for _ in 0..iters {
                        let start = Instant::now();
                        let reply = stub.invoke_deferred("echo", args.clone()).expect("defer");
                        timed += start.elapsed();
                        reply.wait(HANG_BOUND).expect("deferred reply");
                    }
                    timed
                });
                let before = cool_telemetry::allocs::buffer_allocs();
                let calls = 10_000u64;
                for _ in 0..calls {
                    stub.invoke("echo", args.clone()).expect("probe call");
                }
                let allocs = cool_telemetry::allocs::buffer_allocs() - before;
                self.push(
                    "cool-orb.allocs_per_call",
                    allocs as f64 / calls as f64,
                    calls,
                );
            }

            // Bind on a fresh connection each time; the shutdown that makes
            // the next bind dial again is not timed.
            drop(stub);
            client.shutdown();
            self.us(bind_name, 6, |iters| {
                let mut timed = Duration::ZERO;
                for _ in 0..iters {
                    let start = Instant::now();
                    let stub = client.bind(&reference).expect("probe bind");
                    timed += start.elapsed();
                    drop(stub);
                    client.shutdown();
                }
                timed
            });
            server.close();
        }

        // Stream open: control call + rendezvous + data-channel connect.
        let exchange = LocalExchange::new();
        let server_orb = Orb::with_exchange("ledger-probe-stream-server", exchange.clone());
        let policy = ServerPolicy::builder()
            .max_throughput_bps(100_000_000)
            .supports_ordering(true)
            .build();
        // The source returns at once; dropping the handle closes the flow.
        serve_source(
            &server_orb,
            "media",
            policy,
            |_flow: FlowHandle, _granted: &GrantedQoS| {},
        )
        .map_err(|e| format!("serve source: {e}"))?;
        let server = server_orb
            .listen_chorus("probe-stream")
            .map_err(|e| format!("listen: {e}"))?;
        let reference = server.object_ref("media");
        let client = Orb::with_exchange("ledger-probe-stream-client", exchange);
        let flow_qos = QoSSpec::builder()
            .throughput_bps(2_000_000, 0, i32::MAX)
            .ordered(true)
            .build();
        self.us("cool-orb.stream_open_us", 6, |iters| {
            let mut timed = Duration::ZERO;
            for _ in 0..iters {
                let start = Instant::now();
                let receiver =
                    open_stream(&client, &reference, flow_qos.clone()).expect("open stream");
                timed += start.elapsed();
                receiver.close();
            }
            timed
        });
        client.shutdown();
        server.close();
        Ok(())
    }

    /// Steady-state price of the resolved layer: p50 through a one-replica
    /// resolved binding vs a direct stub, in paired blocks whose order flips
    /// so drift lands on both.
    fn orb_resolved(&mut self) -> Result<(), String> {
        let args = Bytes::from(Rng::lane(self.seed, 0x55).bytes(64));
        let exchange = LocalExchange::new();
        let server_orb = Orb::with_exchange("ledger-probe-replica", exchange.clone());
        server_orb
            .adapter()
            .register_fn("svc", |_op, args, _ctx| Ok(args.to_vec()))
            .map_err(|e| format!("register: {e}"))?;
        let server = server_orb
            .listen_chorus("probe-replica")
            .map_err(|e| format!("listen: {e}"))?;
        let reference = server.object_ref("svc");
        let client = Orb::with_exchange("ledger-probe-resolved-client", exchange);
        let direct = client.bind(&reference).map_err(|e| format!("bind: {e}"))?;
        let candidates = [ReplicaCandidate {
            reference,
            match_rung: 0,
        }];
        let resolved = client
            .bind_resolved(&candidates, QoSSpec::best_effort(), Vec::new())
            .map_err(|e| format!("bind resolved: {e}"))?;

        let block_calls = 1_000usize;
        let block_p50 = |call: &dyn Fn()| {
            let mut samples: Vec<u64> = (0..block_calls)
                .map(|_| {
                    let start = Instant::now();
                    call();
                    start.elapsed().as_nanos() as u64
                })
                .collect();
            samples.sort_unstable();
            stats::percentile(&samples, 50.0) as f64
        };
        let via_direct = || drop(direct.invoke("echo", args.clone()).expect("direct call"));
        let via_resolved = || {
            drop(
                resolved
                    .invoke("echo", args.clone())
                    .expect("resolved call"),
            )
        };
        let deadline = Instant::now() + self.batch * 4 * BATCHES as u32;
        let mut overheads = Vec::new();
        while Instant::now() < deadline || overheads.len() < 4 {
            let (d, r) = if overheads.len() % 2 == 0 {
                let d = block_p50(&via_direct);
                (d, block_p50(&via_resolved))
            } else {
                let r = block_p50(&via_resolved);
                (block_p50(&via_direct), r)
            };
            overheads.push((r / d - 1.0) * 100.0);
        }
        let n = (overheads.len() * block_calls * 2) as u64;
        self.push(
            "cool-orb.replica.resolved_overhead_pct",
            stats::median(&overheads),
            n,
        );
        resolved.close();
        client.shutdown();
        server.close();
        Ok(())
    }

    // ---- dacapo ---------------------------------------------------------

    /// Round trip of one payload through a connection pair running `graph`
    /// on both sides, the far side echoing from its own thread.
    fn dacapo_rtt(
        &mut self,
        name: &'static str,
        graph: &ModuleGraph,
        payload_len: usize,
    ) -> Result<(), String> {
        let catalog = MechanismCatalog::standard();
        let (ta, tb) = loopback_pair();
        let near = Connection::establish(graph.clone(), ta, &catalog).map_err(|e| e.to_string())?;
        let far = Connection::establish(graph.clone(), tb, &catalog).map_err(|e| e.to_string())?;
        let stop = Arc::new(AtomicBool::new(false));
        let echo_stop = Arc::clone(&stop);
        let echo = std::thread::Builder::new()
            .name("ledger-dacapo-echo".into())
            .spawn(move || {
                let endpoint = far.endpoint();
                while !echo_stop.load(Ordering::Acquire) {
                    if let Ok(payload) = endpoint.recv_timeout(Duration::from_millis(20)) {
                        if endpoint.send(payload).is_err() {
                            break;
                        }
                    }
                }
                far.close();
            })
            .map_err(|e| format!("spawn echo thread: {e}"))?;
        let payload = Bytes::from(Rng::lane(self.seed, 0x56).bytes(payload_len));
        let endpoint = near.endpoint();
        self.us(name, 2, |iters| {
            time_loop(iters, || {
                endpoint.send(payload.clone()).expect("send");
                endpoint.recv_timeout(HANG_BOUND).expect("echo")
            })
        });
        stop.store(true, Ordering::Release);
        echo.join()
            .map_err(|_| "dacapo echo thread panicked".to_owned())?;
        near.close();
        Ok(())
    }

    fn dacapo(&mut self) -> Result<(), String> {
        let manager = ConfigurationManager::standard();
        let catalog = MechanismCatalog::standard();
        let ctx = ConfigContext::default();
        let checked_ordered = TransportRequirements {
            error_detection: true,
            sequencing: true,
            ..Default::default()
        };
        self.ns("dacapo.configure_ns", 1, |iters| {
            time_loop(iters, || {
                manager
                    .configure(&checked_ordered, &ctx)
                    .expect("configure")
            })
        });
        let stream_graph = manager
            .configure(&checked_ordered, &ctx)
            .map_err(|e| e.to_string())?
            .graph;
        let other_graph = ModuleGraph::from_ids(["crc32"]);

        // Establish and close are timed in the same loop, each on its own
        // clock; the transport's far end stays open and idle.
        let mut close_ns = Vec::new();
        let (establish_ns, n) = self.per_iter_ns(6, |iters| {
            let (mut establishing, mut closing) = (Duration::ZERO, Duration::ZERO);
            for _ in 0..iters {
                let (ta, _tb) = loopback_pair();
                let start = Instant::now();
                let conn =
                    Connection::establish(stream_graph.clone(), ta, &catalog).expect("establish");
                establishing += start.elapsed();
                let start = Instant::now();
                conn.close();
                closing += start.elapsed();
            }
            close_ns.push(closing.as_nanos() as f64 / iters as f64);
            establishing
        });
        self.push("dacapo.establish_us", establish_ns / 1000.0, n);
        // The calibration calls came first; the ten batches are the tail.
        let batches = &close_ns[close_ns.len() - BATCHES..];
        self.push("dacapo.close_us", stats::median(batches) / 1000.0, n);

        let (ta, _tb) = loopback_pair();
        let before = host::thread_count();
        let conn =
            Connection::establish(stream_graph.clone(), ta, &catalog).map_err(|e| e.to_string())?;
        let threads = host::thread_count().saturating_sub(before);
        self.push("dacapo.threads_per_connection", threads as f64, 1);
        let mut flip = false;
        self.us("dacapo.reconfigure_us", 6, |iters| {
            time_loop(iters, || {
                flip = !flip;
                let graph = if flip { &other_graph } else { &stream_graph };
                conn.reconfigure(graph.clone()).expect("reconfigure")
            })
        });
        conn.close();

        self.dacapo_rtt("dacapo.rtt_0mod_us", &ModuleGraph::empty(), 64)?;
        self.dacapo_rtt(
            "dacapo.rtt_8dummy_us",
            &ModuleGraph::from_ids(["dummy"; 8]),
            64,
        )?;
        self.dacapo_rtt("dacapo.rtt_seq_crc_4k_us", &stream_graph, 4096)?;
        // 8 modules, crossed down and up on each side of a round trip.
        let hop =
            (self.value("dacapo.rtt_8dummy_us") - self.value("dacapo.rtt_0mod_us")) * 1000.0 / 32.0;
        self.push("dacapo.hop_ns", hop, 0);

        let body = Bytes::from(Rng::lane(self.seed, 0x57).bytes(4096));
        self.ns("dacapo.packet_push_pop_ns", 1, |iters| {
            time_loop(iters, || {
                let mut packet = Packet::data_shared(body.clone());
                packet.push_header(&[1, 2, 3, 4]);
                packet.push_trailer(&[5, 6, 7, 8]);
                let trailer = packet.pop_trailer(4);
                let header = packet.pop_header(4);
                (trailer, header, packet.len())
            })
        });
        Ok(())
    }

    // ---- netsim ---------------------------------------------------------

    fn netsim(&mut self) -> Result<(), String> {
        // The unshaped cost of one frame crossing an endpoint pair.
        let open = netsim::LinkSpec::builder()
            .bandwidth_bps(u64::MAX / 16)
            .propagation(Duration::ZERO)
            .build()
            .map_err(|e| e.to_string())?;
        let link = netsim::Link::real_time(open);
        let (a, b) = link.endpoints();
        let frame = Bytes::from(Rng::lane(self.seed, 0x58).bytes(64));
        self.ns("netsim.frame_overhead_ns", 1, |iters| {
            time_loop(iters, || {
                a.send(frame.clone()).expect("send");
                b.recv().expect("recv")
            })
        });

        // Figure 9's testbed link under an empty graph with 64 KiB packets:
        // the shaper should deliver ~97.7 % of 155 Mbit/s whatever Da CaPo
        // does above it.
        let spec = netsim::LinkSpec::builder()
            .bandwidth_bps(155_000_000)
            .propagation(Duration::from_micros(200))
            .frame_overhead(Duration::from_micros(60))
            .build()
            .map_err(|e| e.to_string())?;
        let catalog = MechanismCatalog::standard();
        let link = netsim::Link::real_time(spec);
        let (ea, eb) = link.endpoints();
        let tx = Connection::establish(ModuleGraph::empty(), NetsimTransport::new(ea), &catalog)
            .map_err(|e| e.to_string())?;
        let rx = Connection::establish(ModuleGraph::empty(), NetsimTransport::new(eb), &catalog)
            .map_err(|e| e.to_string())?;
        let packet = Bytes::from(Rng::lane(self.seed, 0x59).bytes(64 * 1024));
        let stop = Arc::new(AtomicBool::new(false));
        let sender = {
            let (endpoint, packet, stop) = (tx.endpoint(), packet.clone(), Arc::clone(&stop));
            std::thread::Builder::new()
                .name("ledger-netsim-tx".into())
                .spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        if endpoint.try_send(packet.clone()).is_err() {
                            std::thread::sleep(Duration::from_micros(50));
                        }
                    }
                })
                .map_err(|e| format!("spawn sender: {e}"))?
        };
        let receiver = rx.endpoint();
        for _ in 0..4 {
            receiver
                .recv_timeout(HANG_BOUND)
                .map_err(|e| format!("shaped link warm-up: {e}"))?;
        }
        let window = (self.batch * 80).max(Duration::from_millis(500));
        let (start, mut bytes, mut packets) = (Instant::now(), 0u64, 0u64);
        while let Some(left) = window.checked_sub(start.elapsed()).filter(|d| !d.is_zero()) {
            if let Ok(p) = receiver.recv_timeout(left.min(Duration::from_millis(100))) {
                bytes += p.len() as u64;
                packets += 1;
            }
        }
        let mbit_s = bytes as f64 * 8.0 / start.elapsed().as_secs_f64() / 1e6;
        stop.store(true, Ordering::Release);
        tx.close();
        rx.close();
        sender
            .join()
            .map_err(|_| "netsim sender panicked".to_owned())?;
        self.push("netsim.shaped_goodput_ratio", mbit_s / 155.0, packets);
        Ok(())
    }

    // ---- cool-naming, chorus-sim, cool-telemetry ---------------------------

    fn naming(&mut self) -> Result<(), String> {
        let exchange = LocalExchange::new();
        let orb = Orb::with_exchange("ledger-probe-directory", exchange.clone());
        let server = orb
            .listen_chorus("probe-directory")
            .map_err(|e| format!("listen: {e}"))?;
        let directory = DirectoryServer::serve(&orb, &server).map_err(|e| format!("serve: {e}"))?;
        let client_orb = Orb::with_exchange("ledger-probe-directory-client", exchange);
        let client = DirectoryClient::connect(&client_orb, &directory)
            .map_err(|e| format!("connect: {e}"))?;
        let offered = [qos4_spec(), QoSSpec::best_effort()];
        let replica = ObjectRef::new(OrbAddr::Chorus("replica-0".to_owned()), "svc");
        self.us("cool-naming.register_us", 2, |iters| {
            time_loop(iters, || {
                client
                    .register("svc", &replica, &offered)
                    .expect("register")
            })
        });
        let required = QoSSpec::best_effort();
        self.us("cool-naming.resolve_us", 2, |iters| {
            time_loop(iters, || client.resolve("svc", &required).expect("resolve"))
        });
        client_orb.shutdown();
        server.close();
        Ok(())
    }

    fn chorus(&mut self) {
        use chorus_sim::{IpcMessage, Port};
        let (there, back) = (Port::anonymous(16), Port::anonymous(16));
        let (echo_in, echo_out) = (there.receiver(), back.sender());
        let echo = std::thread::spawn(move || {
            while let Ok(msg) = echo_in.recv_timeout(HANG_BOUND) {
                if msg.body().is_empty() || echo_out.send(msg).is_err() {
                    break;
                }
            }
        });
        let (to_echo, from_echo) = (there.sender(), back.receiver());
        let body = Bytes::from_static(&[7u8; 64]);
        let (rtt, n) = self.per_iter_ns(2, |iters| {
            time_loop(iters, || {
                to_echo
                    .send(IpcMessage::new(body.clone()))
                    .expect("port send");
                from_echo.recv_timeout(HANG_BOUND).expect("port echo")
            })
        });
        // An empty body tells the echo thread to stop.
        let _ = to_echo.send(IpcMessage::new(Bytes::new()));
        let _ = echo.join();
        self.push("chorus-sim.port_handoff_ns", rtt / 2.0, n * 2);
    }

    fn telemetry(&mut self) {
        let registry = Registry::new();
        let counter = registry.counter("ledger_probe_total");
        self.ns("cool-telemetry.counter_inc_ns", 1, |iters| {
            time_loop(iters, || counter.inc())
        });
        let histogram = registry.histogram("ledger_probe_us");
        let mut v = 0u64;
        self.ns("cool-telemetry.histogram_record_ns", 1, |iters| {
            time_loop(iters, || {
                v = (v + 7) % 4096;
                histogram.record(v)
            })
        });
        let mut id = 0u32;
        let stage = Duration::from_micros(3);
        self.ns("cool-telemetry.span_cycle_ns", 1, |iters| {
            time_loop(iters, || {
                id = id.wrapping_add(1);
                registry.span_begin(id, "echo", "tcp");
                registry.span_mark(id, Stage::Marshal, stage);
                registry.span_mark(id, Stage::FrameSend, stage);
                registry.span_mark(id, Stage::ReplyDecode, stage);
                registry.span_finish(id, SpanOutcome::Ok)
            })
        });
    }

    // ---- the stacked budget ----------------------------------------------

    /// The budget rows every transport shares, summed, in µs.
    fn codec_rows_us(&self) -> f64 {
        BUDGET_CODEC_ROWS
            .iter()
            .map(|row| self.value(row))
            .sum::<f64>()
            / 1000.0
    }
}

/// Per transport: the call, frame round trip, residual and bind metrics.
pub const TCP_NAMES: [&str; 4] = [
    "cool-orb.call_tcp_p50_us",
    "cool-orb.tcp_frame_rtt_us",
    "cool-orb.call_residual_us",
    "cool-orb.bind_tcp_us",
];
pub const CHORUS_NAMES: [&str; 4] = [
    "cool-orb.call_chorus_p50_us",
    "cool-orb.chorus_frame_rtt_us",
    "cool-orb.call_residual_chorus_us",
    "cool-orb.bind_chorus_us",
];
pub const DACAPO_NAMES: [&str; 4] = [
    "cool-orb.call_dacapo_p50_us",
    "cool-orb.dacapo_frame_rtt_us",
    "cool-orb.call_residual_dacapo_us",
    "cool-orb.bind_dacapo_us",
];

/// Probe rows (ns) of the stacked budget besides the transport's frame RTT.
pub const BUDGET_CODEC_ROWS: [&str; 5] = [
    "cool-giop.encode_request_ns",
    "cool-giop.decode_request_ns",
    "cool-orb.adapter_dispatch_ns",
    "cool-giop.encode_reply_ns",
    "cool-giop.decode_reply_ns",
];
