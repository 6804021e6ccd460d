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
    let tx = build_stack(vec![scaler, crc], Arc::new(ta), &opts).unwrap();
    // Receiver runs *without* the scaler (it only acts on the way down)
    // but with the matching CRC.
    let rx_crc = catalog
        .get(&MechanismId::new("crc32"))
        .unwrap()
        .instantiate(&params);
    let tb: Arc<dyn Transport> = Arc::new(tb);
    let rx = build_stack(vec![rx_crc], tb.clone(), &opts).unwrap();
    let rx_pump = RxPump::spawn(tb, rx.uplink(), None, || {}).unwrap();

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
    tx.shutdown();
    rx_pump.shutdown();
    rx.shutdown();
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
