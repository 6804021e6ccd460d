//! Failure injection: servers vanishing mid-call, cancelled requests,
//! reconnection after restart, and hostile wire input.

use bytes::Bytes;
use multe::orb::prelude::*;
use multe::telemetry::flight::event as flight_event;
use multe::telemetry::{names, Registry};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn server_close_fails_pending_calls() {
    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("dying-server", exchange.clone());
    let gate = Arc::new(AtomicBool::new(false));
    let gate_clone = gate.clone();
    server_orb
        .adapter()
        .register_fn("slow", move |_op, args, _ctx| {
            // Hold the invocation until the test kills the server.
            while !gate_clone.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(10));
            }
            Ok(args.to_vec())
        })
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let client_orb = Orb::with_exchange("client", exchange);
    let stub = client_orb.bind(&server.object_ref("slow")).unwrap();
    stub.set_timeout(Duration::from_secs(2));

    let deferred = stub
        .invoke_deferred("work", Bytes::from_static(b"x"))
        .unwrap();
    // Give the request time to reach the worker, then yank the server.
    std::thread::sleep(Duration::from_millis(100));
    gate.store(true, Ordering::Release); // unblock the servant thread
    server.close();

    // The pending call either completed just before the teardown or fails
    // cleanly — it must never hang.
    let outcome = deferred.wait(Duration::from_secs(5));
    match outcome {
        Ok(_)
        | Err(OrbError::Closed)
        | Err(OrbError::Timeout { .. })
        | Err(OrbError::Transport(_)) => {}
        other => panic!("unexpected outcome {other:?}"),
    }
}

#[test]
fn invocation_after_server_close_errors_quickly() {
    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("gone-server", exchange.clone());
    server_orb
        .adapter()
        .register_fn("echo", |_op, a, _c| Ok(a.to_vec()))
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let client_orb = Orb::with_exchange("client", exchange);
    let stub = client_orb.bind(&server.object_ref("echo")).unwrap();
    assert!(stub.invoke("echo", Bytes::from_static(b"up")).is_ok());

    server.close();
    stub.set_timeout(Duration::from_secs(2));
    let mut failed = false;
    // The binding may need a call or two to observe the closed socket.
    for _ in 0..5 {
        if stub.invoke("echo", Bytes::from_static(b"down")).is_err() {
            failed = true;
            break;
        }
    }
    assert!(failed, "calls against a closed server must fail");
}

/// Pins the retry-budget attribution contract: when a `RetryPolicy`
/// gives up, the caller gets `RetriesExhausted` carrying the attempt
/// count and the *last underlying cause* — never a bare budget error.
#[test]
fn retry_exhaustion_surfaces_last_cause_and_attempt_count() {
    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("dying-server", exchange.clone());
    server_orb
        .adapter()
        .register_fn("echo", |_op, a, _c| Ok(a.to_vec()))
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let client_orb = Orb::with_exchange_and_config(
        "client",
        exchange,
        OrbConfig {
            retry: Some(RetryPolicy {
                max_attempts: 3,
                initial_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(4),
                budget: Duration::from_secs(10),
                ..RetryPolicy::default()
            }),
            ..OrbConfig::default()
        },
    );
    let stub = client_orb.bind(&server.object_ref("echo")).unwrap();
    assert!(stub.invoke("echo", Bytes::from_static(b"up")).is_ok());

    server.close();
    stub.set_timeout(Duration::from_secs(2));
    // The binding may need a call to observe the closed socket; once it
    // does, the policy retries (reconnecting against nothing) until its
    // attempts run out.
    let mut exhausted = None;
    for _ in 0..5 {
        if let Err(err) = stub.invoke("echo", Bytes::from_static(b"down")) {
            exhausted = Some(err);
            break;
        }
    }
    match exhausted.expect("calls against a closed server must fail") {
        OrbError::RetriesExhausted { attempts, last } => {
            assert_eq!(attempts, 3, "every budgeted attempt must be accounted");
            assert!(
                matches!(*last, OrbError::Closed | OrbError::Transport(_)),
                "last cause must be the real failure, got {last:?}"
            );
        }
        other => panic!("expected RetriesExhausted, got {other:?}"),
    }
}

#[test]
fn rebinding_after_server_restart_works() {
    let exchange = LocalExchange::new();
    let client_orb = Orb::with_exchange("client", exchange.clone());

    // First server lifetime.
    let addr;
    {
        let server_orb = Orb::with_exchange("server-1", exchange.clone());
        server_orb
            .adapter()
            .register_fn("obj", |_o, _a, _c| Ok(b"gen-1".to_vec()))
            .unwrap();
        let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
        addr = server.addr().clone();
        let stub = client_orb
            .bind(&ObjectRef::new(addr.clone(), "obj"))
            .unwrap();
        assert_eq!(&stub.invoke("get", Bytes::new()).unwrap()[..], b"gen-1");
        server.close();
    }

    // Second server on the *same port* (restart).
    let hostport = match &addr {
        OrbAddr::Tcp(hp) => hp.clone(),
        other => panic!("unexpected {other:?}"),
    };
    let server_orb = Orb::with_exchange("server-2", exchange);
    server_orb
        .adapter()
        .register_fn("obj", |_o, _a, _c| Ok(b"gen-2".to_vec()))
        .unwrap();
    // The port may linger in TIME_WAIT briefly; retry.
    let mut server = None;
    for _ in 0..50 {
        match server_orb.listen_tcp(&hostport) {
            Ok(s) => {
                server = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
    let server = server.expect("port reusable after close");

    // A fresh bind eventually reaches the new generation: the stale cached
    // binding may serve one last reply while the old worker drains, then
    // is detected as closed and replaced.
    let mut reached_gen_2 = false;
    for _ in 0..50 {
        let stub = client_orb
            .bind(&ObjectRef::new(addr.clone(), "obj"))
            .unwrap();
        stub.set_timeout(Duration::from_secs(1));
        if let Ok(r) = stub.invoke("get", Bytes::new()) {
            if &r[..] == b"gen-2" {
                reached_gen_2 = true;
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(reached_gen_2, "client never reached the restarted server");
    server.close();
}

/// Starts `orb` serving over `transport` at `at`, and again at the same
/// address once it has been closed (a TCP port may linger in TIME_WAIT).
fn listen_at(orb: &Orb, transport: &str, at: &str) -> OrbServer {
    for _ in 0..50 {
        let server = match transport {
            "tcp" => orb.listen_tcp(at),
            "chorus" => orb.listen_chorus(at),
            _ => orb.listen_dacapo(at),
        };
        match server {
            Ok(server) => return server,
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
    panic!("{transport}: {at} not reusable after close");
}

/// A restarted server is reached again by the stubs bound to its first
/// lifetime: their next call replaces the lost binding. One replacement
/// however many threads and stubs find the binding lost, the stubs' QoS on
/// the replacement's transport, and nothing replaces a binding the ORB
/// closed itself.
#[test]
fn a_stub_rebinds_once_after_its_server_restarts_on_every_transport() {
    for transport in ["tcp", "chorus", "dacapo"] {
        let exchange = LocalExchange::new();
        let calls = Arc::new(std::sync::atomic::AtomicU32::new(0));
        let server_orb = Orb::with_exchange("restarting-server", exchange.clone());
        let counted = Arc::clone(&calls);
        server_orb
            .adapter()
            .register_fn("obj", move |_o, _a, _c| {
                counted.fetch_add(1, Ordering::Relaxed);
                Ok(b"up".to_vec())
            })
            .unwrap();
        let first = match transport {
            "tcp" => "127.0.0.1:0".to_owned(),
            _ => format!("rebind-{transport}"),
        };
        let server = listen_at(&server_orb, transport, &first);
        let at = match server.addr() {
            OrbAddr::Tcp(hostport) => hostport.clone(),
            _ => first,
        };
        let registry = Arc::new(Registry::new());
        let client_orb = Orb::with_exchange_and_config(
            "client",
            exchange.clone(),
            OrbConfig {
                call_timeout: Duration::from_secs(2),
                telemetry: Some(Arc::clone(&registry)),
                retry: Some(RetryPolicy {
                    max_attempts: 5,
                    initial_backoff: Duration::from_millis(2),
                    max_backoff: Duration::from_millis(20),
                    budget: Duration::from_secs(5),
                    ..RetryPolicy::default()
                }),
                ..OrbConfig::default()
            },
        );
        // Two stubs on one cached binding. Over Da CaPo each asks for
        // 4 Mbit/s, which each end of a connection holds as an admission
        // grant.
        let stubs: Vec<Stub> = (0..2)
            .map(|_| {
                let stub = client_orb.bind(&server.object_ref("obj")).unwrap();
                if transport == "dacapo" {
                    let qos = QoSSpec::builder().throughput_bps(4_000_000, 0, i32::MAX);
                    stub.set_qos_parameter(qos.build()).unwrap();
                }
                stub.invoke("get", Bytes::new()).unwrap();
                stub
            })
            .collect();
        let (stub, other) = (&stubs[0], &stubs[1]);

        server.close();
        let server = listen_at(&server_orb, transport, &at);
        std::thread::scope(|s| {
            let callers: Vec<_> = (0..2)
                .map(|_| s.spawn(|| stub.invoke("get", Bytes::new())))
                .collect();
            for caller in callers {
                let reply = caller.join().unwrap();
                assert_eq!(&reply.unwrap()[..], b"up", "{transport}: recovered");
            }
        });
        // The other stub still holds the lost binding, which the cache no
        // longer does: it takes the replacement, and drops its last hold on
        // the lost one.
        assert_eq!(&other.invoke("get", Bytes::new()).unwrap()[..], b"up");

        let reconnects = registry.snapshot().counter(names::RECONNECTS_TOTAL);
        assert_eq!(reconnects, Some(1), "{transport}: one replacement");
        let events = registry.flight().events();
        let flights = events.iter().filter(|e| e.kind == flight_event::RECONNECT);
        assert_eq!(flights.count(), 1, "{transport}: {events:?}");
        assert!(
            format!("{client_orb:?}").contains("bindings: 1"),
            "{transport}: one binding cached: {client_orb:?}"
        );
        if transport == "dacapo" {
            // The first connection's grants went with it; the replacement's
            // two ends hold the stubs' 4 Mbit/s each.
            let resources = exchange.resource_manager();
            assert_eq!(resources.used_bandwidth(), 8_000_000, "{transport}");
        }

        // A binding the ORB closed is not replaced: the call fails without
        // a dial, which would have cached a binding and reached the servant.
        client_orb.shutdown();
        let before = calls.load(Ordering::Relaxed);
        for stub in &stubs {
            match stub.invoke("get", Bytes::new()) {
                Err(OrbError::RetriesExhausted { last, .. }) => {
                    assert!(matches!(*last, OrbError::Closed), "{transport}: {last:?}");
                }
                unexpected => panic!("{transport}: expected RetriesExhausted, got {unexpected:?}"),
            }
        }
        assert_eq!(calls.load(Ordering::Relaxed), before, "{transport}");
        assert!(
            format!("{client_orb:?}").contains("bindings: 0"),
            "{transport}: nothing dialed: {client_orb:?}"
        );
        assert_eq!(
            registry.snapshot().counter(names::RECONNECTS_TOTAL),
            Some(1),
            "{transport}"
        );
        server.close();
    }
}

#[test]
fn cancelled_request_never_delivers_its_reply() {
    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("server", exchange.clone());
    server_orb
        .adapter()
        .register_fn("slow", |_op, args, _ctx| {
            std::thread::sleep(Duration::from_millis(200));
            Ok(args.to_vec())
        })
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let client_orb = Orb::with_exchange("client", exchange);
    let stub = client_orb.bind(&server.object_ref("slow")).unwrap();

    let delivered = Arc::new(AtomicBool::new(false));
    let delivered_clone = delivered.clone();
    let request_id = stub
        .invoke_async("op", Bytes::from_static(b"x"), move |result| {
            if result.is_ok() {
                delivered_clone.store(true, Ordering::Release);
            }
        })
        .unwrap();
    assert!(stub.cancel(request_id));
    // Wait past the servant's completion: the late reply must be dropped
    // by the demux (its slot is gone), not delivered as success.
    std::thread::sleep(Duration::from_millis(500));
    assert!(
        !delivered.load(Ordering::Acquire),
        "cancelled reply leaked through"
    );
    server.close();
}

#[test]
fn garbage_on_the_wire_does_not_crash_the_server() {
    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("robust-server", exchange.clone());
    server_orb
        .adapter()
        .register_fn("echo", |_o, a, _c| Ok(a.to_vec()))
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let hostport = match server.addr() {
        OrbAddr::Tcp(hp) => hp.clone(),
        other => panic!("unexpected {other:?}"),
    };

    // Throw raw garbage at the port (valid length-framing, invalid GIOP).
    use std::io::Write;
    for payload in [
        &b"GARBAGE!"[..],
        &[0xFF; 64][..],
        &b"GIOP\x02\x00\x00\x00"[..],
    ] {
        if let Ok(mut s) = std::net::TcpStream::connect(&hostport) {
            let len = (payload.len() as u32).to_be_bytes();
            let _ = s.write_all(&len);
            let _ = s.write_all(payload);
        }
    }
    std::thread::sleep(Duration::from_millis(200));

    // The server survives and serves real clients.
    let client_orb = Orb::with_exchange("client", exchange);
    let stub = client_orb.bind(&server.object_ref("echo")).unwrap();
    assert_eq!(
        &stub
            .invoke("echo", Bytes::from_static(b"still alive"))
            .unwrap()[..],
        b"still alive"
    );
    server.close();
}

#[test]
fn many_concurrent_deferred_requests_demultiplex_correctly() {
    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("server", exchange.clone());
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let client_orb = Orb::with_exchange("client", exchange);
    let stub = client_orb.bind(&server.object_ref("echo")).unwrap();

    // Fire a burst of deferred requests, then collect out of order.
    let n = 64u32;
    let mut pending = Vec::new();
    for i in 0..n {
        let deferred = stub
            .invoke_deferred("echo", Bytes::from(i.to_be_bytes().to_vec()))
            .unwrap();
        pending.push((i, deferred));
    }
    pending.reverse(); // collect in reverse issue order
    for (i, deferred) in pending {
        let (body, _) = deferred.wait(Duration::from_secs(10)).unwrap();
        let got = u32::from_be_bytes([body[0], body[1], body[2], body[3]]);
        assert_eq!(got, i, "reply correlated to the wrong request");
    }
    server.close();
}

#[test]
fn concurrent_server_close_never_deadlocks() {
    // Regression for a teardown deadlock: `OrbServer::close` used to join
    // the acceptor and dispatcher threads while still holding the locks
    // over their handles, and wrote CloseConnection frames with
    // `server.conns` held. The lock-order tokens make a join under a lock
    // a compile error (DESIGN.md §7); this test exercises the dynamic
    // side — closes racing each other and a graceful shutdown, with calls
    // in flight, must finish within the watchdog instead of parking
    // forever on a handle lock.
    let (finished_tx, finished_rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let exchange = LocalExchange::new();
        let server_orb = Orb::with_exchange("racing-server", exchange.clone());
        server_orb
            .adapter()
            .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
            .unwrap();
        let server = Arc::new(server_orb.listen_tcp("127.0.0.1:0").unwrap());
        let client_orb = Orb::with_exchange("client", exchange);
        let stub = client_orb.bind(&server.object_ref("echo")).unwrap();
        stub.set_timeout(Duration::from_secs(2));

        // Keep requests in flight while the closes race.
        let mut pending = Vec::new();
        for i in 0..16u32 {
            pending.push(stub.invoke_deferred("echo", Bytes::from(i.to_be_bytes().to_vec())));
        }
        let closers: Vec<_> = (0..3)
            .map(|i| {
                let server = Arc::clone(&server);
                std::thread::spawn(move || {
                    if i == 0 {
                        server.shutdown_graceful(Duration::from_millis(200));
                    } else {
                        server.close();
                    }
                })
            })
            .collect();
        for c in closers {
            c.join().unwrap();
        }
        // In-flight calls complete or fail attributed; none may hang.
        for p in pending.into_iter().flatten() {
            let _ = p.wait(Duration::from_secs(5));
        }
        finished_tx.send(()).unwrap();
    });
    finished_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("server teardown deadlocked: close() is holding a handle lock across a join");
    worker.join().unwrap();
}

/// Every `OrbError` variant, one row each, produced through the public
/// API. `variant` matches on `OrbError` with no `_` arm: a new variant
/// does not compile until it has an arm there, and `VARIANTS`, kept
/// beside the arms, then asks for the row that produces it.
#[test]
fn every_orb_error_variant_has_a_row() {
    use multe::naming::{DirectoryClient, DirectoryServer};

    /// The arms of `variant`.
    const VARIANTS: usize = 13;
    fn variant(err: &OrbError) -> &'static str {
        match err {
            OrbError::QosNotSupported(_) => "QosNotSupported",
            OrbError::ObjectNotFound(_) => "ObjectNotFound",
            OrbError::OperationUnknown { .. } => "OperationUnknown",
            OrbError::UserException { .. } => "UserException",
            OrbError::Marshal(_) => "Marshal",
            OrbError::Transport(_) => "Transport",
            OrbError::Closed => "Closed",
            OrbError::Timeout { .. } => "Timeout",
            OrbError::Cancelled => "Cancelled",
            OrbError::RetriesExhausted { .. } => "RetriesExhausted",
            OrbError::Protocol(_) => "Protocol",
            OrbError::SystemException { .. } => "SystemException",
            OrbError::BadAddress(_) => "BadAddress",
        }
    }

    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("errors-server", exchange.clone());
    let adapter = server_orb.adapter();
    adapter
        .register_fn("echo", |_op, a, _c| Ok(a.to_vec()))
        .unwrap();
    adapter
        .register_fn("slow", |_op, a, _c| {
            std::thread::sleep(Duration::from_millis(300));
            Ok(a.to_vec())
        })
        .unwrap();
    // Replies a directory client cannot read: no byte-order flag at all,
    // and a flag with no body behind it.
    adapter
        .register_fn("mute", |_op, _a, _c| Ok(Vec::new()))
        .unwrap();
    adapter
        .register_fn("flag", |_op, _a, _c| Ok(vec![0]))
        .unwrap();
    adapter
        .register_fn("capped", |_op, a, _c| Ok(a.to_vec()))
        .unwrap();
    adapter
        .register_fn("relay", |_op, _a, _c| {
            Err(OrbError::Transport("downstream call failed".into()))
        })
        .unwrap();
    adapter.set_policy(
        &"capped".into(),
        ServerPolicy::builder().max_throughput_bps(64_000).build(),
    );
    let server = server_orb.listen_chorus("errors").unwrap();
    let directory = DirectoryServer::serve(&server_orb, &server).unwrap();
    let doomed = server_orb.listen_chorus("errors-doomed").unwrap();

    let client = Orb::with_exchange("errors-client", exchange.clone());
    let retrying = Orb::with_exchange_and_config(
        "errors-retrying",
        exchange,
        OrbConfig {
            retry: Some(RetryPolicy {
                max_attempts: 2,
                initial_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                budget: Duration::from_secs(5),
                ..RetryPolicy::default()
            }),
            ..OrbConfig::default()
        },
    );
    let bind = |key: &str| client.bind(&server.object_ref(key)).unwrap();
    let directory_at =
        |key: &str| DirectoryClient::connect(&client, &server.object_ref(key)).unwrap();

    let nacked = bind("capped");
    nacked
        .set_qos_parameter(
            QoSSpec::builder()
                .throughput_bps(1_000_000, 800_000, 2_000_000)
                .build(),
        )
        .unwrap();
    let slow = bind("slow");
    slow.set_timeout(Duration::from_millis(20));
    let cancelled = {
        let stub = bind("slow");
        let deferred = stub.invoke_deferred("op", Bytes::new()).unwrap();
        assert!(stub.cancel(deferred.request_id()));
        deferred.wait(Duration::from_secs(5))
    };
    let on_doomed = client.bind(&doomed.object_ref("echo")).unwrap();
    let retried = retrying.bind(&doomed.object_ref("echo")).unwrap();
    doomed.close();
    let refused = {
        // A port that was bound a moment ago and is not any more.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        ObjectRef::from_uri(&format!("cool:tcp://{addr}#echo")).and_then(|r| client.bind(&r))
    };

    let rows: Vec<OrbError> = vec![
        nacked.invoke("op", Bytes::new()).unwrap_err(),
        bind("nobody").invoke("op", Bytes::new()).unwrap_err(),
        client
            .bind(&directory)
            .unwrap()
            // A big-endian flag, as every directory request begins.
            .invoke("no_such_operation", Bytes::from_static(&[0]))
            .unwrap_err(),
        // The directory's NotFound user exception.
        DirectoryClient::connect(&client, &directory)
            .unwrap()
            .resolve("nothing-here", &QoSSpec::best_effort())
            .unwrap_err(),
        directory_at("flag")
            .resolve("x", &QoSSpec::best_effort())
            .unwrap_err(),
        refused.unwrap_err(),
        on_doomed.invoke("echo", Bytes::new()).unwrap_err(),
        slow.invoke("op", Bytes::new()).unwrap_err(),
        cancelled.unwrap_err(),
        retried.invoke("echo", Bytes::new()).unwrap_err(),
        directory_at("mute")
            .resolve("x", &QoSSpec::best_effort())
            .unwrap_err(),
        // A relay whose downstream call failed: the server's own failure.
        bind("relay").invoke("op", Bytes::new()).unwrap_err(),
        ObjectRef::from_uri("not a reference").unwrap_err(),
    ];
    let produced: Vec<&str> = rows.iter().map(variant).collect();
    let mut distinct = produced.clone();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(
        distinct.len(),
        VARIANTS,
        "one row per OrbError variant, each a different one: {produced:?} from {rows:?}"
    );

    retrying.shutdown();
    client.shutdown();
    server.close();
}

/// A server's errors reach the client as the server's system exceptions,
/// over either message protocol: a directory request with no byte-order
/// flag, or whose arguments do not unmarshal, as `Marshal` — the client's
/// own malformed argument — and a servant's own failure as `Internal`.
/// None arrives as a protocol violation, and none is retried.
#[test]
fn a_servers_own_errors_arrive_as_its_system_exceptions() {
    use multe::giop::GiopError;
    use multe::naming::DirectoryServer;
    use multe::orb::message_layer::WireProtocol;

    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("sysex-server", exchange.clone());
    server_orb
        .adapter()
        .register_fn("relay", |_op, _a, _c| {
            Err(OrbError::Transport("downstream call failed".into()))
        })
        .unwrap();
    let server = server_orb.listen_chorus("sysex").unwrap();
    let directory = DirectoryServer::serve(&server_orb, &server).unwrap();
    let client = Orb::with_exchange("sysex-client", exchange);
    for protocol in [WireProtocol::Giop, WireProtocol::Cool] {
        let stub = client.bind_with_protocol(&directory, protocol).unwrap();
        let flagless = stub.invoke("resolve", Bytes::new()).unwrap_err();
        let garbled = stub
            .invoke("resolve", Bytes::from_static(&[7, 0, 0]))
            .unwrap_err();
        for marshal in [&flagless, &garbled] {
            assert!(
                matches!(marshal, OrbError::Marshal(GiopError::PeerMarshal(_))),
                "{protocol:?}: {marshal:?}"
            );
        }
        let relay = client
            .bind_with_protocol(&server.object_ref("relay"), protocol)
            .unwrap();
        let failed = relay.invoke("op", Bytes::new()).unwrap_err();
        assert!(
            matches!(&failed, OrbError::SystemException { kind, .. } if kind == "Internal"),
            "{protocol:?}: {failed:?}"
        );
        assert!(![flagless, garbled, failed]
            .iter()
            .any(OrbError::is_retryable));
    }
    client.shutdown();
    server.close();
}
