//! A connection's receive thread is one the last connection left parked
//! (`dacapo::pool`): bind → call → shutdown, over and over, is served by a
//! handful of threads, not by a new one per connection, over Da CaPo and
//! over TCP alike; and once the process is idle the threads go.
//!
//! One test, alone in its binary: it counts the process's threads.

use bytes::Bytes;
use cool_orb::prelude::*;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

const CYCLES: u32 = 64;

/// Distinct threads that may deliver the requests of all cycles. A thread
/// is spawned only when none is parked, so it is the most connection ends
/// alive or still on their way out at one moment — four on an idle host (a
/// cycle's two, the last cycle's two), a few more on a loaded one, where a
/// closed end takes longer to wind down — and it does not grow with the
/// number of cycles. A thread per connection would be one a cycle.
const MOST_THREADS: usize = 16;

/// What the process may take, past the pool's linger, to end its idle
/// threads.
const SLACK: Duration = Duration::from_secs(1);

#[derive(Debug, Clone, Copy)]
enum Transport {
    Dacapo,
    Tcp,
}

#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// A server ORB serving `echo` on `transport`, and a client ORB that can
/// reach it. The servant notes the thread it ran on whenever that is the
/// one that delivered the request (not a `cool-dispatch-N` worker).
fn serve(
    transport: Transport,
    delivered_on: &Arc<Mutex<Option<ThreadId>>>,
) -> (Arc<Orb>, Arc<Orb>, OrbServer) {
    let (server_orb, client_orb) = match transport {
        Transport::Dacapo => {
            let exchange = LocalExchange::new();
            (
                Orb::with_exchange("threads-server", exchange.clone()),
                Orb::with_exchange("threads-client", exchange),
            )
        }
        Transport::Tcp => (Orb::new("threads-server"), Orb::new("threads-client")),
    };
    let noted = Arc::clone(delivered_on);
    server_orb
        .adapter()
        .register_fn("echo", move |_op, args, _ctx| {
            let me = std::thread::current();
            if !me.name().is_some_and(|n| n.starts_with("cool-dispatch")) {
                *noted.lock().unwrap() = Some(me.id());
            }
            Ok(args.to_vec())
        })
        .expect("register echo");
    let server = match transport {
        Transport::Dacapo => server_orb.listen_dacapo("threads"),
        Transport::Tcp => server_orb.listen_tcp("127.0.0.1:0"),
    }
    .expect("listen");
    (server_orb, client_orb, server)
}

/// Binds, calls until a request runs on the thread that delivered it,
/// shuts the client down; returns that thread. A cold object's requests
/// run on the dispatcher pool until its last 64 upcalls were all cheap —
/// from cycle 0's 65th call on, and, the object staying warm, from the
/// first call of every later cycle.
fn cycle(
    client_orb: &Arc<Orb>,
    reference: &ObjectRef,
    delivered_on: &Mutex<Option<ThreadId>>,
    n: u32,
) -> ThreadId {
    let stub = client_orb
        .bind(reference)
        .unwrap_or_else(|e| panic!("cycle {n}: bind: {e}"));
    let args = Bytes::from(n.to_be_bytes().to_vec());
    let on = (0..1_000).find_map(|_| {
        let reply = stub
            .invoke("echo", args.clone())
            .unwrap_or_else(|e| panic!("cycle {n}: invoke: {e}"));
        assert_eq!(reply, args);
        delivered_on.lock().unwrap().take()
    });
    client_orb.shutdown();
    on.unwrap_or_else(|| panic!("cycle {n}: no request ran on its delivering thread"))
}

#[cfg(target_os = "linux")]
#[test]
fn bind_call_shutdown_cycles_are_served_by_a_handful_of_receive_threads() {
    for transport in [Transport::Dacapo, Transport::Tcp] {
        let baseline = thread_count();
        let delivered_on = Arc::new(Mutex::new(None));
        let (server_orb, client_orb, server) = serve(transport, &delivered_on);
        let reference = server.object_ref("echo");

        let threads: HashSet<ThreadId> = (0..CYCLES)
            .map(|n| cycle(&client_orb, &reference, &delivered_on, n))
            .collect();
        assert!(
            threads.len() <= MOST_THREADS,
            "{transport:?}: {} threads delivered the requests of {CYCLES} connections",
            threads.len()
        );

        server.close();
        client_orb.shutdown();
        server_orb.shutdown();
        drop((server, client_orb, server_orb));
        let deadline = Instant::now() + dacapo::pool::LINGER + SLACK;
        while thread_count() > baseline && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            thread_count(),
            baseline,
            "{transport:?}: threads left {:?} after the last connection closed",
            dacapo::pool::LINGER + SLACK
        );
    }
}
