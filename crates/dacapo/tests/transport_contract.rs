//! The [`Transport`] close contract, one test body run over every
//! implementation. Connection teardown and reconfiguration rely on it
//! instead of timers: the receive pump parks in `Transport::recv` with no
//! deadline, so a `close` that did not wake it would hang the join.

use bytes::Bytes;
use dacapo::prelude::*;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Pair = (Arc<dyn Transport>, Arc<dyn Transport>);

fn loopback() -> Pair {
    let (a, b) = loopback_pair();
    (Arc::new(a), Arc::new(b))
}

fn tcp() -> Pair {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (server, _) = listener.accept().unwrap();
    (
        Arc::new(TcpTransport::new(client).unwrap()),
        Arc::new(TcpTransport::new(server).unwrap()),
    )
}

fn netsim() -> Pair {
    let link = netsim::Link::real_time(
        netsim::LinkSpec::builder()
            .bandwidth_bps(1_000_000_000)
            .propagation(Duration::from_micros(10))
            .build()
            .unwrap(),
    );
    let (a, b) = link.endpoints();
    (
        Arc::new(NetsimTransport::new(a)),
        Arc::new(NetsimTransport::new(b)),
    )
}

/// How long a woken receive may take to return: scheduling, not a timer.
const WAKE_BOUND: Duration = Duration::from_millis(5);
/// Bounds a wait that the contract says cannot block; a hang fails here.
const HANG_BOUND: Duration = Duration::from_secs(10);

/// `close` wakes a receive blocked on the closing side itself.
fn close_wakes_own_receiver(pair: fn() -> Pair) {
    // The median of a few runs: one late wakeup on a busy machine is
    // scheduling noise, a timer in the path moves all of them.
    let mut waits: Vec<Duration> = (0..9)
        .map(|_| {
            let (a, _b) = pair();
            let (parked_tx, parked_rx) = std::sync::mpsc::channel();
            let receiver = {
                let a = a.clone();
                std::thread::spawn(move || {
                    parked_tx.send(()).unwrap();
                    let outcome = a.recv();
                    (outcome, Instant::now())
                })
            };
            parked_rx.recv().unwrap();
            // Let the receiver get from its signal into the wait itself.
            std::thread::sleep(Duration::from_millis(2));
            let closed_at = Instant::now();
            a.close();
            let (outcome, woke_at) = receiver.join().unwrap();
            assert!(
                matches!(outcome, Err(DacapoError::Closed)),
                "got {outcome:?}"
            );
            woke_at.saturating_duration_since(closed_at)
        })
        .collect();
    waits.sort();
    assert!(
        waits[waits.len() / 2] < WAKE_BOUND,
        "own receiver woke late: {waits:?}"
    );
}

/// The peer receives every frame sent before the close, in order, and then
/// `Closed` — without waiting for anything to expire.
fn peer_drains_then_reads_closed(pair: fn() -> Pair) {
    let (a, b) = pair();
    for i in 0..32u8 {
        a.send(Bytes::from(vec![i; 48])).unwrap();
    }
    a.close();
    for i in 0..32u8 {
        let frame = b.recv_timeout(HANG_BOUND).unwrap();
        assert_eq!((frame.len(), frame[0]), (48, i));
    }
    let start = Instant::now();
    let end = b.recv();
    assert!(matches!(end, Err(DacapoError::Closed)), "got {end:?}");
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "peer close came late"
    );
    // And it stays closed.
    assert!(matches!(
        b.recv_timeout(HANG_BOUND),
        Err(DacapoError::Closed)
    ));
}

/// A peer already parked in `recv` when the close happens is woken by it.
fn close_wakes_a_parked_peer(pair: fn() -> Pair) {
    let (a, b) = pair();
    let receiver = std::thread::spawn(move || b.recv());
    std::thread::sleep(Duration::from_millis(2));
    a.close();
    let outcome = receiver.join().unwrap();
    assert!(
        matches!(outcome, Err(DacapoError::Closed)),
        "got {outcome:?}"
    );
}

/// `send` after `close` is `Closed`, and `close` is idempotent.
fn send_after_close_is_closed(pair: fn() -> Pair) {
    let (a, _b) = pair();
    a.close();
    a.close();
    let sent = a.send(Bytes::from_static(b"late"));
    assert!(matches!(sent, Err(DacapoError::Closed)), "got {sent:?}");
    assert!(matches!(a.recv(), Err(DacapoError::Closed)));
}

fn contract(pair: fn() -> Pair) {
    close_wakes_own_receiver(pair);
    peer_drains_then_reads_closed(pair);
    close_wakes_a_parked_peer(pair);
    send_after_close_is_closed(pair);
}

#[test]
fn loopback_transport_keeps_the_close_contract() {
    contract(loopback);
}

#[test]
fn tcp_transport_keeps_the_close_contract() {
    contract(tcp);
}

#[test]
fn netsim_transport_keeps_the_close_contract() {
    contract(netsim);
}
