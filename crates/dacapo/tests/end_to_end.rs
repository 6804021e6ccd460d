//! End-to-end Da CaPo tests: full stacks over real and simulated
//! transports, including failure injection.

use bytes::Bytes;
use dacapo::config::ConfigContext;
use dacapo::prelude::*;
use multe_qos::TransportRequirements;
use std::time::Duration;

fn netsim_pair(spec: netsim::LinkSpec) -> (NetsimTransport, NetsimTransport) {
    let link = netsim::Link::real_time(spec);
    let (a, b) = link.endpoints();
    (NetsimTransport::new(a), NetsimTransport::new(b))
}

fn fast_link() -> netsim::LinkSpec {
    netsim::LinkSpec::builder()
        .bandwidth_bps(1_000_000_000)
        .propagation(Duration::from_micros(10))
        .build()
        .unwrap()
}

#[test]
fn full_stack_over_netsim_link() {
    let catalog = MechanismCatalog::standard();
    let graph = ModuleGraph::from_ids(["xor-crypt", "go-back-n", "crc32"]);
    let (ta, tb) = netsim_pair(fast_link());
    let a = Connection::establish(graph.clone(), ta, &catalog).unwrap();
    let b = Connection::establish(graph, tb, &catalog).unwrap();

    for i in 0..50u8 {
        a.endpoint().send(Bytes::from(vec![i; 256])).unwrap();
    }
    for i in 0..50u8 {
        let got = b.endpoint().recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(got.len(), 256);
        assert_eq!(got[0], i);
    }
    a.close();
    b.close();
}

#[test]
fn arq_recovers_all_packets_over_lossy_link() {
    // 10% frame loss; go-back-N + CRC32 must still deliver everything in
    // order. This is the failure-injection test for the reliability
    // machinery.
    let spec = netsim::LinkSpec::builder()
        .bandwidth_bps(1_000_000_000)
        .propagation(Duration::from_micros(10))
        .loss_rate(0.10)
        .seed(0xBAD5EED)
        .build()
        .unwrap();
    let catalog = MechanismCatalog::standard();
    let graph = ModuleGraph::from_ids(["go-back-n", "crc32"]);
    let (ta, tb) = netsim_pair(spec);
    let a = Connection::establish(graph.clone(), ta, &catalog).unwrap();
    let b = Connection::establish(graph, tb, &catalog).unwrap();

    let n = 100u32;
    let sender = {
        let ep = a.endpoint();
        std::thread::spawn(move || {
            for i in 0..n {
                ep.send(Bytes::from(i.to_be_bytes().to_vec())).unwrap();
            }
        })
    };
    for i in 0..n {
        let got = b.endpoint().recv_timeout(Duration::from_secs(30)).unwrap();
        let value = u32::from_be_bytes([got[0], got[1], got[2], got[3]]);
        assert_eq!(value, i, "packet {i} lost or reordered despite ARQ");
    }
    sender.join().unwrap();
    a.close();
    b.close();
}

#[test]
fn best_effort_over_lossy_link_loses_but_never_corrupts() {
    // Without ARQ, losses surface as missing packets — but CRC ensures
    // nothing corrupted is ever delivered.
    let spec = netsim::LinkSpec::builder()
        .bandwidth_bps(1_000_000_000)
        .propagation(Duration::from_micros(10))
        .loss_rate(0.3)
        .seed(7)
        .build()
        .unwrap();
    let catalog = MechanismCatalog::standard();
    let graph = ModuleGraph::from_ids(["crc32"]);
    let (ta, tb) = netsim_pair(spec);
    let a = Connection::establish(graph.clone(), ta, &catalog).unwrap();
    let b = Connection::establish(graph, tb, &catalog).unwrap();

    let n = 200;
    for i in 0..n {
        a.endpoint()
            .send(Bytes::from(vec![(i % 251) as u8; 64]))
            .unwrap();
    }
    let mut received = 0;
    while let Ok(got) = b.endpoint().recv_timeout(Duration::from_millis(300)) {
        assert_eq!(got.len(), 64);
        assert!(
            got.iter().all(|&x| x == got[0]),
            "corrupted packet delivered"
        );
        received += 1;
    }
    assert!(received < n, "loss rate 0.3 should drop something");
    assert!(received > n / 4, "should deliver a good fraction");
    a.close();
    b.close();
}

#[test]
fn fragmentation_carries_oversized_packets_across_small_mtu() {
    let spec = netsim::LinkSpec::builder()
        .bandwidth_bps(1_000_000_000)
        .propagation(Duration::from_micros(10))
        .mtu(1500)
        .build()
        .unwrap();
    let catalog = MechanismCatalog::standard();
    // Configure via the manager so the fragment size honours the MTU.
    let config_mgr = ConfigurationManager::new(catalog);
    let req = TransportRequirements::best_effort();
    let ctx = ConfigContext {
        transport_mtu: Some(1500),
        max_packet: 64 * 1024,
        ..Default::default()
    };
    let cfg = config_mgr.configure(&req, &ctx).unwrap();
    assert!(cfg
        .graph
        .mechanisms()
        .iter()
        .any(|m| m.as_str() == "fragment"));

    let (ta, tb) = netsim_pair(spec);
    let resource_mgr = ResourceManager::default();
    let a = Connection::establish_with_qos(&req, &ctx, ta, &config_mgr, &resource_mgr).unwrap();
    let b = Connection::establish_with_qos(&req, &ctx, tb, &config_mgr, &resource_mgr).unwrap();

    let payload: Vec<u8> = (0..20_000).map(|i| (i % 256) as u8).collect();
    a.endpoint().send(Bytes::from(payload.clone())).unwrap();
    let got = b.endpoint().recv_timeout(Duration::from_secs(10)).unwrap();
    assert_eq!(&got[..], &payload[..]);
    a.close();
    b.close();
}

#[test]
fn forty_dummy_modules_still_deliver() {
    // The paper's extreme configuration: 40 dummy modules.
    let catalog = MechanismCatalog::standard();
    let graph: ModuleGraph = ModuleGraph::from_ids(vec!["dummy"; 40]);
    let (ta, tb) = loopback_pair();
    let a = Connection::establish(graph.clone(), ta, &catalog).unwrap();
    let b = Connection::establish(graph, tb, &catalog).unwrap();
    for i in 0..10u8 {
        a.endpoint().send(Bytes::from(vec![i; 1024])).unwrap();
    }
    for i in 0..10u8 {
        assert_eq!(
            b.endpoint().recv_timeout(Duration::from_secs(10)).unwrap()[0],
            i
        );
    }
    a.close();
    b.close();
}

#[test]
fn tcp_transport_full_stack() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let client = std::net::TcpStream::connect(addr).unwrap();
    let (server, _) = listener.accept().unwrap();

    let catalog = MechanismCatalog::standard();
    let graph = ModuleGraph::from_ids(["xor-crypt", "crc16"]);
    let a =
        Connection::establish(graph.clone(), TcpTransport::new(client).unwrap(), &catalog).unwrap();
    let b = Connection::establish(graph, TcpTransport::new(server).unwrap(), &catalog).unwrap();

    a.endpoint()
        .send(Bytes::from_static(b"over real tcp"))
        .unwrap();
    assert_eq!(
        &b.endpoint().recv_timeout(Duration::from_secs(10)).unwrap()[..],
        b"over real tcp"
    );
    b.endpoint().send(Bytes::from_static(b"reply")).unwrap();
    assert_eq!(
        &a.endpoint().recv_timeout(Duration::from_secs(10)).unwrap()[..],
        b"reply"
    );
    a.close();
    b.close();
}

#[test]
fn reconfiguration_under_traffic() {
    let catalog = MechanismCatalog::standard();
    let (ta, tb) = loopback_pair();
    let a = Connection::establish(ModuleGraph::empty(), ta, &catalog).unwrap();
    let b = Connection::establish(ModuleGraph::empty(), tb, &catalog).unwrap();

    a.endpoint().send(Bytes::from_static(b"phase-1")).unwrap();
    assert_eq!(
        &b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..],
        b"phase-1"
    );

    // Quiesce, then upgrade both sides to an encrypted reliable stack.
    let upgraded = ModuleGraph::from_ids(["xor-crypt", "go-back-n", "crc32"]);
    a.reconfigure(upgraded.clone()).unwrap();
    b.reconfigure(upgraded).unwrap();

    a.endpoint().send(Bytes::from_static(b"phase-2")).unwrap();
    assert_eq!(
        &b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..],
        b"phase-2"
    );
    a.close();
    b.close();
}

#[test]
fn throughput_meters_reflect_pipeline() {
    let catalog = MechanismCatalog::standard();
    let (ta, tb) = loopback_pair();
    let a = Connection::establish(ModuleGraph::empty(), ta, &catalog).unwrap();
    let b = Connection::establish(ModuleGraph::empty(), tb, &catalog).unwrap();
    let payload = Bytes::from(vec![0u8; 8192]);
    let count = 100;
    for _ in 0..count {
        a.endpoint().send(payload.clone()).unwrap();
    }
    for _ in 0..count {
        b.endpoint().recv_timeout(Duration::from_secs(10)).unwrap();
    }
    assert_eq!(b.endpoint().rx_meter().packets(), count);
    assert_eq!(b.endpoint().rx_meter().bytes(), count * 8192);
    a.close();
    b.close();
}

#[test]
fn scaler_filter_downscales_a_flow_in_a_live_stack() {
    // The paper's intro scenario: a filter module scales a media flow for
    // a slower network. A (1 keep, 1 drop) scaler halves the packet rate
    // end to end; surviving packets arrive intact.
    use dacapo::catalog::{MechanismCatalog, ModuleParams};
    use dacapo::functions::MechanismId;
    use dacapo::runtime::{build_stack, RuntimeOptions, RxPump};
    use std::sync::Arc;

    let catalog = MechanismCatalog::standard();
    let params = ModuleParams {
        scaling: (1, 1),
        ..Default::default()
    };
    let scaler = catalog
        .get(&MechanismId::new("scaler"))
        .unwrap()
        .instantiate(&params);
    let crc = catalog
        .get(&MechanismId::new("crc32"))
        .unwrap()
        .instantiate(&params);

    let (ta, tb) = loopback_pair();
    let opts = RuntimeOptions::default();
    let tx = build_stack(vec![scaler, crc], Arc::new(ta), &opts);
    // Receiver runs *without* the scaler (it only acts on the way down)
    // but with the matching CRC.
    let rx_crc = catalog
        .get(&MechanismId::new("crc32"))
        .unwrap()
        .instantiate(&params);
    let tb: Arc<dyn Transport> = Arc::new(tb);
    let rx = build_stack(vec![rx_crc], tb.clone(), &opts);
    let rx_pump = RxPump::spawn(tb, &rx, None, || {}).unwrap();

    let n = 60u8;
    for i in 0..n {
        tx.endpoint().send(Bytes::from(vec![i; 32])).unwrap();
    }
    let mut received = Vec::new();
    while let Ok(pkt) = rx.endpoint().recv_timeout(Duration::from_millis(300)) {
        assert_eq!(pkt.len(), 32);
        received.push(pkt[0]);
    }
    assert_eq!(received.len(), n as usize / 2, "1:1 scaler halves the rate");
    // Survivors are the even-indexed packets, in order.
    for (idx, byte) in received.iter().enumerate() {
        assert_eq!(*byte, (idx * 2) as u8);
    }
    rx_pump.shutdown();
}

/// Median wall time of `runs` calls of `op`.
fn median_of(runs: usize, mut op: impl FnMut()) -> Duration {
    let mut times: Vec<Duration> = (0..runs)
        .map(|_| {
            let start = std::time::Instant::now();
            op();
            start.elapsed()
        })
        .collect();
    times.sort();
    times[runs / 2]
}

/// No timer on the reconfiguration or teardown path: with the peer alive
/// and idle — so this side's receive pump is parked in the transport —
/// both cost thread hand-offs, not a wait. (They took a 25 ms grace each
/// when the pump belonged to the stack and polled a shutdown flag.)
const LIFECYCLE_BOUND: Duration = Duration::from_millis(5);

#[test]
fn reconfigure_with_an_idle_peer_takes_no_timer() {
    let catalog = MechanismCatalog::standard();
    let (ta, _tb) = loopback_pair();
    let conn = Connection::establish(ModuleGraph::empty(), ta, &catalog).unwrap();
    let graphs = [ModuleGraph::from_ids(["crc32"]), ModuleGraph::from_ids(["seq", "crc32"])];
    let mut next = 0;
    let median = median_of(20, || {
        conn.reconfigure(graphs[next % 2].clone()).unwrap();
        next += 1;
    });
    assert!(median < LIFECYCLE_BOUND, "reconfigure median {median:?}");
    conn.close();
}

#[test]
fn close_with_an_idle_peer_takes_no_timer() {
    let catalog = MechanismCatalog::standard();
    let graph = ModuleGraph::from_ids(["seq", "crc32"]);
    for (name, pair) in [
        ("loopback", loopback_boxed as fn() -> BoxedPair),
        ("netsim", netsim_boxed),
    ] {
        let mut peers = Vec::new();
        let mut conns: Vec<Connection> = (0..20)
            .map(|_| {
                let (ta, tb) = pair();
                peers.push(tb);
                Connection::establish(graph.clone(), ta, &catalog).unwrap()
            })
            .collect();
        let median = median_of(20, || conns.pop().unwrap().close());
        assert!(median < LIFECYCLE_BOUND, "{name}: close median {median:?}");
    }
}

type BoxedPair = (Box<dyn Transport>, Box<dyn Transport>);

fn loopback_boxed() -> BoxedPair {
    let (a, b) = loopback_pair();
    (Box::new(a), Box::new(b))
}

fn netsim_boxed() -> BoxedPair {
    let (a, b) = netsim_pair(fast_link());
    (Box::new(a), Box::new(b))
}

#[test]
fn peer_close_reaches_the_application_without_a_timeout() {
    let catalog = MechanismCatalog::standard();
    let graph = ModuleGraph::from_ids(["seq", "crc32"]);
    let (ta, tb) = loopback_pair();
    let a = Connection::establish(graph.clone(), ta, &catalog).unwrap();
    let b = Connection::establish(graph, tb, &catalog).unwrap();
    for i in 0..100u8 {
        a.endpoint().send(Bytes::from(vec![i; 64])).unwrap();
    }
    assert!(a.drain(Duration::from_secs(5)));
    a.close();
    // The tail first, in order, then the close — at once.
    let endpoint = b.endpoint();
    for i in 0..100u8 {
        assert_eq!(endpoint.recv_timeout(Duration::from_secs(5)).unwrap()[0], i);
    }
    let start = std::time::Instant::now();
    let end = endpoint.recv_timeout(Duration::from_secs(10));
    assert!(matches!(end, Err(DacapoError::Closed)), "got {end:?}");
    assert!(start.elapsed() < Duration::from_secs(1));
    assert!(b.is_closed(), "closed by the peer");
    assert!(matches!(
        b.reconfigure(ModuleGraph::empty()),
        Err(DacapoError::Closed)
    ));
    b.close();
}

#[test]
fn frames_on_the_wire_during_a_swap_reach_the_new_stack() {
    // The peer keeps sending while this side swaps the empty graph for
    // `dummy` (header-free, so either stack can read the frames). What the
    // old stack had not yet taken in waits in the receive pump for the new
    // one: the receiver — draining each endpoint until it ends, then
    // fetching the next, as the ORB's channel pump does — misses nothing.
    const FRAMES: u32 = 5_000;
    let catalog = MechanismCatalog::standard();
    let (ta, tb) = loopback_pair();
    let a = Connection::establish(ModuleGraph::empty(), ta, &catalog).unwrap();
    let b = std::sync::Arc::new(Connection::establish(ModuleGraph::empty(), tb, &catalog).unwrap());

    // The sender stays at most 64 frames ahead of the receiver, so traffic
    // is in flight — on the wire, in the pump, in the old endpoint —
    // whenever the swap happens.
    let (seen_tx, seen_rx) = std::sync::mpsc::channel::<u32>();
    let (credit_tx, credit_rx) = std::sync::mpsc::channel::<()>();
    for _ in 0..64 {
        credit_tx.send(()).unwrap();
    }
    let receiver = {
        let b = b.clone();
        std::thread::spawn(move || loop {
            let epoch = b.epoch();
            let endpoint = b.endpoint();
            while let Ok(frame) = endpoint.recv() {
                let n = u32::from_be_bytes(frame[..4].try_into().unwrap());
                seen_tx.send(n).unwrap();
                if n == FRAMES - 1 {
                    return;
                }
                let _ = credit_tx.send(());
            }
            assert!(!b.is_closed(), "connection ended before the last frame");
            b.wait_epoch_change(epoch);
        })
    };
    let sender = {
        let endpoint = a.endpoint();
        std::thread::spawn(move || {
            for n in 0..FRAMES {
                credit_rx.recv().unwrap();
                endpoint.send(Bytes::copy_from_slice(&n.to_be_bytes())).unwrap();
            }
        })
    };

    // Swap once traffic is flowing, with most of it still to come.
    let mut expected = 0;
    while expected < FRAMES / 10 {
        assert_eq!(seen_rx.recv_timeout(Duration::from_secs(10)).unwrap(), expected);
        expected += 1;
    }
    b.reconfigure(ModuleGraph::from_ids(["dummy"])).unwrap();
    while expected < FRAMES {
        assert_eq!(
            seen_rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            expected,
            "a frame was lost or reordered across the swap"
        );
        expected += 1;
    }
    sender.join().unwrap();
    receiver.join().unwrap();
    a.close();
    b.close();
}

/// One end of a wire four frames deep in each direction, whose `send`
/// blocks when its direction is full — the loopback transport never does,
/// and a TCP socket only behind megabytes of kernel buffer.
struct NarrowWire {
    tx: std::sync::Mutex<Option<std::sync::mpsc::SyncSender<Bytes>>>,
    /// Dropped by `close`, which fails the peer's sends, blocked ones too.
    rx: std::sync::Mutex<Option<std::sync::mpsc::Receiver<Bytes>>>,
    closed: std::sync::atomic::AtomicBool,
}

fn narrow_pair() -> (NarrowWire, NarrowWire) {
    let end = |tx, rx| NarrowWire {
        tx: std::sync::Mutex::new(Some(tx)),
        rx: std::sync::Mutex::new(Some(rx)),
        closed: std::sync::atomic::AtomicBool::new(false),
    };
    let (a_tx, b_rx) = std::sync::mpsc::sync_channel(4);
    let (b_tx, a_rx) = std::sync::mpsc::sync_channel(4);
    (end(a_tx, a_rx), end(b_tx, b_rx))
}

impl Transport for NarrowWire {
    fn send(&self, frame: Bytes) -> Result<(), DacapoError> {
        // A clone, so that a send blocked on a full wire holds no lock.
        let tx = self.tx.lock().unwrap().clone().ok_or(DacapoError::Closed)?;
        tx.send(frame).map_err(|_| DacapoError::Closed)
    }

    fn recv(&self) -> Result<Bytes, DacapoError> {
        loop {
            match self.recv_timeout(Duration::from_millis(20)) {
                Err(DacapoError::Timeout(_)) => {}
                other => return other,
            }
        }
    }

    /// Its own `close` does not wake it; it looks at the flag between
    /// waits, and the receive thread never waits past its next tick.
    fn recv_timeout(&self, timeout: Duration) -> Result<Bytes, DacapoError> {
        use std::sync::mpsc::RecvTimeoutError;
        if self.closed.load(std::sync::atomic::Ordering::Acquire) {
            return Err(DacapoError::Closed);
        }
        let rx = self.rx.lock().unwrap();
        match rx.as_ref().ok_or(DacapoError::Closed)?.recv_timeout(timeout) {
            Ok(frame) => Ok(frame),
            Err(RecvTimeoutError::Timeout) => Err(DacapoError::Timeout(timeout)),
            Err(RecvTimeoutError::Disconnected) => Err(DacapoError::Closed),
        }
    }

    fn close(&self) {
        self.closed.store(true, std::sync::atomic::Ordering::Release);
        self.tx.lock().unwrap().take();
        // Behind a receive in progress: one tick at most.
        self.rx.lock().unwrap().take();
    }

    fn name(&self) -> &str {
        "narrow"
    }
}

/// Along every `(from, to)` of `directions` at once: `frames` numbered
/// payloads of `len` bytes sent from one thread and received on another;
/// every one must arrive, in order.
fn flood(directions: &[(&Connection, &Connection)], frames: u32, len: usize) {
    let payload = |n: u32| {
        let mut bytes = vec![n as u8; len.max(4)];
        bytes[..4].copy_from_slice(&n.to_be_bytes());
        Bytes::from(bytes)
    };
    std::thread::scope(|scope| {
        for (from, to) in directions {
            let (tx, rx) = (from.endpoint(), to.endpoint());
            scope.spawn(move || {
                for n in 0..frames {
                    tx.send(payload(n)).unwrap();
                }
            });
            scope.spawn(move || {
                for n in 0..frames {
                    let got = rx
                        .recv_timeout(Duration::from_secs(10))
                        .unwrap_or_else(|e| panic!("frame {n} of {frames}: {e}"));
                    assert_eq!(got, payload(n));
                }
            });
        }
    });
}

#[test]
fn a_sender_blocked_on_a_full_wire_does_not_stop_its_side_receiving() {
    // Both senders spend the run blocked on a full wire. Each side's
    // receive thread must keep draining the other direction regardless, or
    // the two ends stop for good, each waiting for the other to read.
    // Writing to the transport under the lock that the receive thread
    // needs to run the modules does exactly that (`crc32`); so does a
    // receive thread that writes what the frames it reads make a module
    // answer — acknowledgements, the packets a window lets go — onto a
    // wire this narrow (`go-back-n`).
    let catalog = MechanismCatalog::standard();
    for graph in [ModuleGraph::from_ids(["crc32"]), ModuleGraph::from_ids(["go-back-n"])] {
        let (ta, tb) = narrow_pair();
        let a = Connection::establish(graph.clone(), ta, &catalog).unwrap();
        let b = Connection::establish(graph.clone(), tb, &catalog).unwrap();
        let start = std::time::Instant::now();
        flood(&[(&a, &b), (&b, &a)], 2_000, 64);
        assert!(start.elapsed() < Duration::from_secs(5), "{graph}: {:?}", start.elapsed());
        a.close();
        b.close();
    }
}

/// What the test keeps of a [`Gated`] transport: the gate, and a count of
/// the frames it has let through.
struct Gate {
    open: std::sync::Mutex<bool>,
    opened: std::sync::Condvar,
    /// Told each time a send arrives at the closed gate.
    waiting: std::sync::Mutex<std::sync::mpsc::Sender<()>>,
    passed: std::sync::atomic::AtomicUsize,
}

/// A loopback end whose `send` waits at a gate the test opens.
struct Gated {
    inner: LoopbackTransport,
    gate: std::sync::Arc<Gate>,
}

impl Transport for Gated {
    fn send(&self, frame: Bytes) -> Result<(), DacapoError> {
        let gate = &self.gate;
        let mut open = gate.open.lock().unwrap();
        if !*open {
            gate.waiting.lock().unwrap().send(()).unwrap();
        }
        while !*open {
            open = gate.opened.wait(open).unwrap();
        }
        drop(open);
        gate.passed.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        self.inner.send(frame)
    }
    fn recv(&self) -> Result<Bytes, DacapoError> {
        self.inner.recv()
    }
    fn recv_timeout(&self, timeout: Duration) -> Result<Bytes, DacapoError> {
        self.inner.recv_timeout(timeout)
    }
    fn close(&self) {
        self.inner.close()
    }
    fn name(&self) -> &str {
        "gated"
    }
}

/// A `go-back-n` connection pair whose first end writes through a closed
/// gate, the gate, and where each send arriving at it is announced.
fn gated_pair() -> (Connection, Connection, std::sync::Arc<Gate>, std::sync::mpsc::Receiver<()>) {
    let catalog = MechanismCatalog::standard();
    let graph = ModuleGraph::from_ids(["go-back-n"]);
    let (ta, tb) = loopback_pair();
    let (waiting_tx, waiting_rx) = std::sync::mpsc::channel();
    let gate = std::sync::Arc::new(Gate {
        open: std::sync::Mutex::new(false),
        opened: std::sync::Condvar::new(),
        waiting: std::sync::Mutex::new(waiting_tx),
        passed: std::sync::atomic::AtomicUsize::new(0),
    });
    let gated = Gated {
        inner: ta,
        gate: gate.clone(),
    };
    let a = Connection::establish(graph.clone(), gated, &catalog).unwrap();
    let b = Connection::establish(graph, tb, &catalog).unwrap();
    (a, b, gate, waiting_rx)
}

#[test]
fn the_receive_thread_does_not_write_what_the_modules_answer() {
    // Nobody sends on `a`, and its wire is shut. The acknowledgement of
    // `b`'s first frame gets as far as the gate — on the connection's
    // writer thread, not on the receive thread, which goes on reading: a
    // receive thread waiting there would have two ends that acknowledge
    // each other over full wires wait for each other for good.
    let (a, b, gate, waiting_rx) = gated_pair();
    b.endpoint().send(Bytes::from_static(b"one")).unwrap();
    assert_eq!(&a.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..], b"one");
    waiting_rx.recv_timeout(Duration::from_secs(5)).expect("the acknowledgement, at the gate");
    b.endpoint().send(Bytes::from_static(b"two")).unwrap();
    assert_eq!(&a.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..], b"two");
    assert!(!b.drain(Duration::from_millis(20)), "nothing passes a closed gate");

    *gate.open.lock().unwrap() = true;
    gate.opened.notify_all();
    assert!(b.drain(Duration::from_secs(5)));
    a.close();
    b.close();
}

#[test]
fn the_receive_thread_leaves_what_it_has_for_the_wire_to_the_sender_holding_it() {
    // A sender stuck inside the transport's `send` while the receive thread
    // of its side has something for the wire (the acknowledgement of what
    // it has just received): no second writer is needed — the sender, once
    // through, finds the acknowledgement and writes it before it returns.
    use std::sync::atomic::Ordering;
    let (a, b, gate, waiting_rx) = gated_pair();

    let sender = {
        let endpoint = a.endpoint();
        std::thread::spawn(move || endpoint.send(Bytes::from_static(b"held at the gate")).unwrap())
    };
    waiting_rx.recv_timeout(Duration::from_secs(5)).unwrap();

    // With `a`'s sender inside `send`, `b`'s frame still reaches `a`'s
    // application; its acknowledgement cannot pass the gate.
    b.endpoint().send(Bytes::from_static(b"from b")).unwrap();
    assert_eq!(
        &a.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..],
        b"from b"
    );
    assert!(!b.drain(Duration::from_millis(20)), "nothing passes a closed gate");
    assert_eq!(gate.passed.load(Ordering::SeqCst), 0);

    *gate.open.lock().unwrap() = true;
    gate.opened.notify_all();
    sender.join().unwrap();
    // The sender's own frame and the acknowledgement it found afterwards;
    // a retransmission that would draw a second one is three ticks away.
    assert_eq!(gate.passed.load(Ordering::SeqCst), 2);
    assert_eq!(
        &b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..],
        b"held at the gate"
    );
    assert!(b.drain(Duration::from_secs(5)));
    a.close();
    b.close();
}

#[test]
fn a_reply_sent_from_inside_a_delivery_does_not_wait_for_its_own_thread() {
    // The far end answers every frame twice from inside its sink, which
    // runs on its receive thread. `irq` lets one packet out per
    // acknowledgement, so the second answer finds the module not ready —
    // and the acknowledgement that would make it ready can only arrive on
    // the thread that is sending. The send must queue and return.
    struct EchoTwice(AppEndpoint);
    impl Sink for EchoTwice {
        fn deliver(&self, payload: Bytes) {
            self.0.send(payload.clone()).unwrap();
            self.0.send(payload).unwrap();
        }
        fn closed(&self) {}
    }
    const FRAMES: u32 = 500;
    let catalog = MechanismCatalog::standard();
    let graph = ModuleGraph::from_ids(["irq"]);
    let (ta, tb) = loopback_pair();
    let near = Connection::establish(graph.clone(), ta, &catalog).unwrap();
    let far = Connection::establish(graph, tb, &catalog).unwrap();
    far.set_sink(std::sync::Arc::new(EchoTwice(far.endpoint())));

    std::thread::scope(|scope| {
        let tx = near.endpoint();
        scope.spawn(move || {
            for n in 0..FRAMES {
                tx.send(Bytes::copy_from_slice(&n.to_be_bytes())).unwrap();
            }
        });
        let rx = near.endpoint();
        for n in 0..2 * FRAMES {
            let got = rx
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|e| panic!("echo {n}: {e}"));
            assert_eq!(&got[..], &(n / 2).to_be_bytes(), "echo {n} out of order");
        }
    });
    assert!(far.drain(Duration::from_secs(5)));
    near.close();
    far.close();
}

#[test]
fn a_reply_from_a_delivery_is_the_receive_threads_own_across_a_reconfiguration() {
    // The sink reconfigures its connection from inside `deliver` and then
    // answers twice through the stack that is installed *now*. What makes
    // a send the receive thread's own is the connection, not the stack it
    // was delivering for: the second answer stands before `irq`, and a send
    // that waited there would wait for its own thread.
    struct SwapThenEchoTwice(std::sync::Weak<Connection>);
    impl Sink for SwapThenEchoTwice {
        fn deliver(&self, payload: Bytes) {
            let conn = self.0.upgrade().unwrap();
            // `dummy` adds nothing to the wire: the peer stays as it is.
            conn.reconfigure(ModuleGraph::from_ids(["irq", "dummy"])).unwrap();
            conn.endpoint().send(payload.clone()).unwrap();
            conn.endpoint().send(payload).unwrap();
        }
        fn closed(&self) {}
    }
    let catalog = MechanismCatalog::standard();
    let graph = ModuleGraph::from_ids(["irq"]);
    let (ta, tb) = loopback_pair();
    let near = Connection::establish(graph.clone(), ta, &catalog).unwrap();
    let far = std::sync::Arc::new(Connection::establish(graph, tb, &catalog).unwrap());
    far.set_sink(std::sync::Arc::new(SwapThenEchoTwice(std::sync::Arc::downgrade(&far))));

    near.endpoint().send(Bytes::from_static(b"ping")).unwrap();
    for _ in 0..2 {
        let got = near.endpoint().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&got[..], b"ping");
    }
    near.close();
    far.close();
}

#[test]
fn bidirectional_flood_over_real_tcp() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (server, _) = listener.accept().unwrap();
    let catalog = MechanismCatalog::standard();
    let graph = ModuleGraph::from_ids(["go-back-n", "crc32"]);
    let a =
        Connection::establish(graph.clone(), TcpTransport::new(client).unwrap(), &catalog).unwrap();
    let b = Connection::establish(graph, TcpTransport::new(server).unwrap(), &catalog).unwrap();
    flood(&[(&a, &b), (&b, &a)], 200, 48 * 1024);
    a.close();
    b.close();
}
