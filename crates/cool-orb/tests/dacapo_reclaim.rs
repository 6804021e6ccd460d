//! Regression for the perf ledger's Finding 1: the server's end of a
//! Da CaPo binding is reclaimed when the client goes — the stack, the
//! connection's receive thread and the admission grant — without
//! `OrbServer::close`.
//!
//! One test, alone in its binary: it counts the process's threads.

use bytes::Bytes;
use cool_orb::prelude::*;
use std::time::{Duration, Instant};

#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// The server's side of a closed binding winds down on its own threads,
/// so "reclaimed" is reached shortly after the client's `shutdown`
/// returns, not before it. This waits for it — bounded; a leak runs into
/// the bound and fails on the assert that follows.
fn settle(mut reclaimed: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !reclaimed() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn one_dacapo_server_survives_bind_shutdown_cycles_without_growth() {
    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("reclaim-server", exchange.clone());
    server_orb
        .adapter()
        .register_with_policy(
            "echo",
            std::sync::Arc::new(cool_orb::servant::FnServant::new(|_op, args, _ctx| {
                Ok(args.to_vec())
            })),
            ServerPolicy::builder()
                .max_throughput_bps(10_000_000)
                .build(),
        )
        .unwrap();
    // The one listener: never closed, never restarted.
    let server = server_orb.listen_dacapo("reclaim").unwrap();
    let reference = server.object_ref("echo");
    let client_orb = Orb::with_exchange("reclaim-client", exchange.clone());
    let resources = exchange.resource_manager().clone();

    let cycle = |n: u32| {
        let stub = client_orb.bind(&reference).unwrap();
        // 4 Mbit/s a side: the 155 Mbit/s budget is gone near cycle 20
        // if the server's grants are not given back.
        stub.set_qos_parameter(
            QoSSpec::builder()
                .throughput_bps(4_000_000, 0, i32::MAX)
                .build(),
        )
        .unwrap_or_else(|e| panic!("cycle {n}: set qos: {e}"));
        let reply = stub
            .invoke("echo", Bytes::from(n.to_be_bytes().to_vec()))
            .unwrap_or_else(|e| panic!("cycle {n}: invoke: {e}"));
        assert_eq!(&reply[..], &n.to_be_bytes());
        assert!(
            resources.used_bandwidth() >= 8_000_000,
            "both ends admitted"
        );
        client_orb.shutdown();
    };

    // One cycle first, so that whatever starts once (dispatchers, lazily
    // spawned helpers) is part of the baseline.
    cycle(0);
    settle(|| resources.used_bandwidth() == 0);
    #[cfg(target_os = "linux")]
    let threads_before = thread_count();

    for n in 1..=64 {
        cycle(n);
    }

    settle(|| resources.used_bandwidth() == 0);
    assert_eq!(
        resources.used_bandwidth(),
        0,
        "the server's ends still hold admission grants"
    );
    #[cfg(target_os = "linux")]
    {
        // `<=`: the baseline may itself have caught a thread of cycle 0
        // on its way out. A leak is 3 threads a cycle.
        settle(|| thread_count() <= threads_before);
        assert!(
            thread_count() <= threads_before,
            "{} threads left behind by 64 bind/shutdown cycles",
            thread_count() - threads_before
        );
    }
    server.close();
}
