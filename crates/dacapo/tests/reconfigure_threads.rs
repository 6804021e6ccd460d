//! A Da CaPo connection is one thread however often it is reconfigured — a
//! stack swap spawns and joins nothing — plus one, started once, on an end
//! whose modules answer what they receive (acknowledgements).
//!
//! One test, alone in its binary: it counts the process's threads.

use bytes::Bytes;
use dacapo::prelude::*;
use std::time::Duration;

#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

#[cfg(target_os = "linux")]
#[test]
fn reconfiguring_spawns_no_thread_not_even_a_short_lived_one() {
    let catalog = MechanismCatalog::standard();
    let (ta, tb) = loopback_pair();
    let before = thread_count();
    let conn = Connection::establish(ModuleGraph::empty(), ta, &catalog).unwrap();
    let established = thread_count();
    assert_eq!(established, before + 1, "the receive thread, and nothing else");

    // Counted *during* the flips, not only after them: an executor spawned
    // and joined per swap would be back to this count by the end.
    let graphs = [
        ModuleGraph::from_ids(["seq", "crc32"]),
        ModuleGraph::from_ids(["go-back-n", "dummy", "dummy", "crc32"]),
    ];
    for flip in 0..200 {
        conn.reconfigure(graphs[flip % 2].clone()).unwrap();
        assert_eq!(thread_count(), established, "after flip {flip}");
    }

    // The receiving end of a graph that acknowledges needs somebody to
    // write the acknowledgements — the receive thread must not: one writer
    // thread, started by the first of them and kept across every swap.
    let peer = Connection::establish(graphs[1].clone(), tb, &catalog).unwrap();
    let both = thread_count();
    assert_eq!(both, established + 1, "the peer's receive thread");
    let other = ModuleGraph::from_ids(["go-back-n", "crc32"]);
    for round in 0..50 {
        for n in 0..4u8 {
            conn.endpoint().send(Bytes::from(vec![n; 32])).unwrap();
            peer.endpoint().recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert!(conn.drain(Duration::from_secs(5)), "acknowledged");
        assert_eq!(thread_count(), both + 1, "the peer's writer, in round {round}");
        let graph = if round % 2 == 0 { &other } else { &graphs[1] };
        conn.reconfigure(graph.clone()).unwrap();
        peer.reconfigure(graph.clone()).unwrap();
    }
    peer.close();
    conn.close();
}
