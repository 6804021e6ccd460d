//! End-to-end ORB tests: full invocations over every transport, the QoS
//! negotiation scenarios of Figure 3, and all five invocation modes.

use bytes::Bytes;
use cool_orb::message_layer::WireProtocol;
use cool_orb::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn echo_orb(name: &str, exchange: LocalExchange) -> Arc<Orb> {
    let orb = Orb::with_exchange(name, exchange);
    orb.adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    orb
}

#[test]
fn tcp_giop_invocation() {
    let exchange = LocalExchange::new();
    let server_orb = echo_orb("server", exchange.clone());
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let reference = server.object_ref("echo");

    let client_orb = Orb::with_exchange("client", exchange);
    let stub = client_orb.bind(&reference).unwrap();
    assert!(!stub.is_colocated());
    let reply = stub
        .invoke("ping", Bytes::from_static(b"over tcp"))
        .unwrap();
    assert_eq!(&reply[..], b"over tcp");
    server.close();
}

#[test]
fn chorus_ipc_invocation() {
    let exchange = LocalExchange::new();
    let server_orb = echo_orb("server", exchange.clone());
    let server = server_orb.listen_chorus("chorus-echo").unwrap();
    let reference = server.object_ref("echo");

    let client_orb = Orb::with_exchange("client", exchange);
    let stub = client_orb.bind(&reference).unwrap();
    let reply = stub
        .invoke("ping", Bytes::from_static(b"over chorus ipc"))
        .unwrap();
    assert_eq!(&reply[..], b"over chorus ipc");
    server.close();
}

#[test]
fn a_server_that_loses_the_race_for_a_name_leaves_the_winner_serving() {
    let exchange = LocalExchange::new();
    let named = |name: &str, reply: &'static [u8]| {
        let orb = Orb::with_exchange(name, exchange.clone());
        orb.adapter()
            .register_fn("svc", move |_op, _args, _ctx| Ok(reply.to_vec()))
            .unwrap();
        orb
    };
    let winner = named("winner", b"winner");
    let server = winner.listen_chorus("contested").unwrap();
    let loser = named("loser", b"loser");
    assert!(matches!(
        loser.listen_chorus("contested"),
        Err(OrbError::BadAddress(_))
    ));
    // The losing server unregistered nothing, and its ORB does not count
    // the address as its own: from it too, the name reaches the winner.
    let client = Orb::with_exchange("client", exchange.clone());
    for orb in [&loser, &client] {
        let stub = orb.bind(&server.object_ref("svc")).unwrap();
        assert!(!stub.is_colocated(), "{}", orb.name());
        assert_eq!(&stub.invoke("who", Bytes::new()).unwrap()[..], b"winner");
    }
    server.close();
}

#[test]
fn dacapo_invocation_with_qos() {
    let exchange = LocalExchange::new();
    let server_orb = echo_orb("server", exchange.clone());
    let server = server_orb.listen_dacapo("dacapo-echo").unwrap();
    let reference = server.object_ref("echo");

    let client_orb = Orb::with_exchange("client", exchange);
    let stub = client_orb.bind(&reference).unwrap();

    // Plain best-effort first (standard GIOP over Da CaPo).
    let reply = stub.invoke("ping", Bytes::from_static(b"plain")).unwrap();
    assert_eq!(&reply[..], b"plain");

    // Now request QoS: encrypted, checked, ordered. The transport
    // reconfigures (unilateral) and the server negotiates (bilateral).
    let spec = QoSSpec::builder()
        .reliability(Reliability::Checked)
        .ordered(true)
        .encrypted(true)
        .build();
    stub.set_qos_parameter(spec).unwrap();
    let reply = stub
        .invoke("ping", Bytes::from_static(b"with qos"))
        .unwrap();
    assert_eq!(&reply[..], b"with qos");
    let granted = stub.last_granted().expect("granted qos reported");
    assert_eq!(granted.encrypted(), Some(true));
    assert_eq!(granted.ordered(), Some(true));
    server.close();
}

#[test]
fn qos_nack_scenario_figure_3() {
    // Figure 3-i: the server cannot satisfy the requested QoS and NACKs
    // with the CORBA exception mechanism.
    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("server", exchange.clone());
    let weak_policy = ServerPolicy::builder().max_throughput_bps(1_000).build();
    server_orb
        .adapter()
        .register_with_policy(
            "constrained",
            Arc::new(cool_orb::servant::FnServant::new(
                |_o, a, _c| Ok(a.to_vec()),
            )),
            weak_policy,
        )
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let reference = server.object_ref("constrained");

    let client_orb = Orb::with_exchange("client", exchange);
    let stub = client_orb.bind(&reference).unwrap();

    // Feasible: throughput within the server's capability.
    let modest = QoSSpec::builder().throughput_bps(800, 100, 1_000).build();
    stub.set_qos_parameter(modest).unwrap();
    let ok = stub.invoke("get", Bytes::new());
    assert!(ok.is_ok(), "feasible qos must be granted: {ok:?}");

    // Infeasible: demands far more than the server can give -> NACK.
    let greedy = QoSSpec::builder()
        .throughput_bps(10_000_000, 5_000_000, 20_000_000)
        .build();
    stub.set_qos_parameter(greedy).unwrap();
    match stub.invoke("get", Bytes::new()) {
        Err(OrbError::QosNotSupported(reason)) => {
            assert!(reason.to_string().contains("throughput"));
        }
        other => panic!("expected NACK, got {other:?}"),
    }

    // Figure 3-ii: after lowering the request, the invocation succeeds.
    stub.clear_qos().unwrap();
    assert!(stub.invoke("get", Bytes::new()).is_ok());
    server.close();
}

#[test]
fn per_binding_vs_per_method_qos() {
    // Section 4.1: setQoSParameter once = QoS per binding; before every
    // invocation = QoS per method.
    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("server", exchange.clone());
    server_orb
        .adapter()
        .register_fn("probe", |_op, _args, ctx| {
            // Report back the throughput this invocation was granted.
            Ok(ctx
                .granted()
                .throughput_bps()
                .unwrap_or(0)
                .to_be_bytes()
                .to_vec())
        })
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let client_orb = Orb::with_exchange("client", exchange);
    let stub = client_orb.bind(&server.object_ref("probe")).unwrap();

    let granted_tp = |reply: Bytes| u32::from_be_bytes([reply[0], reply[1], reply[2], reply[3]]);

    // Per-binding: one spec, many invocations at the same grant.
    stub.set_qos_parameter(
        QoSSpec::builder()
            .throughput_bps(1_000, 0, i32::MAX)
            .build(),
    )
    .unwrap();
    for _ in 0..3 {
        let tp = granted_tp(stub.invoke("get", Bytes::new()).unwrap());
        assert_eq!(tp, 1_000);
    }

    // Per-method: change before each invocation.
    for target in [2_000u32, 3_000, 4_000] {
        stub.set_qos_parameter(
            QoSSpec::builder()
                .throughput_bps(target, 0, i32::MAX)
                .build(),
        )
        .unwrap();
        let tp = granted_tp(stub.invoke("get", Bytes::new()).unwrap());
        assert_eq!(tp, target);
    }
    server.close();
}

#[test]
fn colocated_stub_short_circuits() {
    let exchange = LocalExchange::new();
    let orb = echo_orb("both", exchange);
    let server = orb.listen_tcp("127.0.0.1:0").unwrap();
    let reference = server.object_ref("echo");
    let stub = orb.bind(&reference).unwrap();
    assert!(stub.is_colocated());
    let reply = stub.invoke("ping", Bytes::from_static(b"local")).unwrap();
    assert_eq!(&reply[..], b"local");
    server.close();
}

#[test]
fn invocation_modes_oneway_defer_notify_cancel() {
    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("server", exchange.clone());
    let hits = Arc::new(AtomicU32::new(0));
    let hits_clone = hits.clone();
    server_orb
        .adapter()
        .register_fn("worker", move |op, args, _ctx| {
            hits_clone.fetch_add(1, Ordering::SeqCst);
            match op {
                "slow" => {
                    std::thread::sleep(Duration::from_millis(300));
                    Ok(b"slow done".to_vec())
                }
                _ => Ok(args.to_vec()),
            }
        })
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let client_orb = Orb::with_exchange("client", exchange);
    let stub = client_orb.bind(&server.object_ref("worker")).unwrap();

    // One-way: returns immediately, server still executes it.
    stub.invoke_oneway("fire", Bytes::from_static(b"x"))
        .unwrap();

    // Deferred synchronous.
    let mut deferred = stub
        .invoke_deferred("defer-me", Bytes::from_static(b"d"))
        .unwrap();
    // Poll may or may not be ready instantly; wait resolves it.
    let _ = deferred.poll();
    let (body, _) = deferred.wait(Duration::from_secs(10)).unwrap();
    assert_eq!(&body[..], b"d");

    // Asynchronous notify.
    let (tx, rx) = crossbeam::channel::bounded(1);
    stub.invoke_async("notify-me", Bytes::from_static(b"n"), move |result| {
        tx.send(result.map(|b| b.to_vec())).unwrap();
    })
    .unwrap();
    assert_eq!(
        rx.recv_timeout(Duration::from_secs(10)).unwrap().unwrap(),
        b"n"
    );

    // Cancel: a slow call abandoned before completion.
    let request_id = stub
        .invoke_async("slow", Bytes::new(), move |result| {
            // Must observe cancellation, not success.
            assert!(matches!(result, Err(OrbError::Cancelled)));
        })
        .unwrap();
    assert!(stub.cancel(request_id));
    assert!(!stub.cancel(request_id), "second cancel is a no-op");

    // Everything reached the servant eventually (except possibly the
    // cancelled one, which may or may not have started).
    let mut seen = hits.load(Ordering::SeqCst);
    for _ in 0..50 {
        if seen >= 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
        seen = hits.load(Ordering::SeqCst);
    }
    assert!(seen >= 3, "only {seen} invocations reached the servant");
    server.close();
}

#[test]
fn cool_protocol_invocation() {
    let exchange = LocalExchange::new();
    let server_orb = echo_orb("server", exchange.clone());
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let client_orb = Orb::with_exchange("client", exchange);
    let stub = client_orb
        .bind_with_protocol(&server.object_ref("echo"), WireProtocol::Cool)
        .unwrap();
    let reply = stub
        .invoke("ping", Bytes::from_static(b"proprietary"))
        .unwrap();
    assert_eq!(&reply[..], b"proprietary");

    // The COOL protocol cannot carry QoS: setting QoS then invoking fails.
    stub.set_qos_parameter(QoSSpec::builder().ordered(true).build())
        .unwrap();
    assert!(matches!(
        stub.invoke("ping", Bytes::new()),
        Err(OrbError::Protocol(_))
    ));
    server.close();
}

#[test]
fn unknown_object_and_operation_errors() {
    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("server", exchange.clone());
    server_orb
        .adapter()
        .register_fn("picky", |op, args, _ctx| {
            if op == "only-this" {
                Ok(args.to_vec())
            } else {
                Err(OrbError::OperationUnknown {
                    object: "picky".into(),
                    operation: op.into(),
                })
            }
        })
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let client_orb = Orb::with_exchange("client", exchange);

    let ghost = ObjectRef::new(server.addr().clone(), "ghost");
    let stub = client_orb.bind(&ghost).unwrap();
    assert!(matches!(
        stub.invoke("x", Bytes::new()),
        Err(OrbError::ObjectNotFound(_))
    ));

    let picky = client_orb.bind(&server.object_ref("picky")).unwrap();
    assert!(picky.invoke("only-this", Bytes::new()).is_ok());
    match picky.invoke("something-else", Bytes::new()) {
        Err(OrbError::OperationUnknown { operation, .. }) => {
            assert_eq!(operation, "something-else");
        }
        other => panic!("unexpected {other:?}"),
    }
    server.close();
}

#[test]
fn dacapo_transport_admission_rejection_reaches_client() {
    // Unilateral negotiation failure (Section 4.3): the transport cannot
    // reserve resources and the client gets an exception.
    let exchange = LocalExchange::new();
    let server_orb = echo_orb("server", exchange.clone());
    let server = server_orb.listen_dacapo("limited").unwrap();
    let client_orb = Orb::with_exchange("client", exchange.clone());
    let stub = client_orb.bind(&server.object_ref("echo")).unwrap();

    // Soak up nearly all bandwidth with a competing reservation.
    let budget = exchange.resource_manager().budget().bandwidth_bps;
    let hog_spec = QoSSpec::builder()
        .throughput_bps((budget - 10) as u32, 0, i32::MAX)
        .build();
    // Note: two connections share the budget; this spec alone nearly
    // exhausts it through the client-side admission.
    let result = stub.set_qos_parameter(hog_spec);
    // Either the set_qos admission already failed, or a later larger one
    // will; assert the failure shape on an outright impossible request.
    let impossible = QoSSpec::builder()
        .throughput_bps(i32::MAX as u32, 0, i32::MAX)
        .build();
    let err = match stub.set_qos_parameter(impossible) {
        Err(e) => e,
        Ok(()) => panic!("impossible bandwidth must be rejected (first attempt: {result:?})"),
    };
    assert!(matches!(err, OrbError::QosNotSupported(_)), "got {err:?}");
    server.close();
}

#[test]
fn stringified_reference_round_trip_and_bind() {
    let exchange = LocalExchange::new();
    let server_orb = echo_orb("server", exchange.clone());
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let uri = server.object_ref("echo").to_uri();

    let parsed = ObjectRef::from_uri(&uri).unwrap();
    let client_orb = Orb::with_exchange("client", exchange);
    let stub = client_orb.bind(&parsed).unwrap();
    assert_eq!(
        &stub.invoke("ping", Bytes::from_static(b"via uri")).unwrap()[..],
        b"via uri"
    );
    server.close();
}

#[test]
fn bindings_are_cached_per_address() {
    let exchange = LocalExchange::new();
    let server_orb = echo_orb("server", exchange.clone());
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let client_orb = Orb::with_exchange("client", exchange);
    let a = client_orb.bind(&server.object_ref("echo")).unwrap();
    let b = client_orb.bind(&server.object_ref("echo")).unwrap();
    // Both stubs work over the shared cached binding.
    assert!(a.invoke("p", Bytes::from_static(b"1")).is_ok());
    assert!(b.invoke("p", Bytes::from_static(b"2")).is_ok());
    server.close();
}

#[test]
fn concurrent_clients_one_server() {
    let exchange = LocalExchange::new();
    let server_orb = echo_orb("server", exchange.clone());
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let reference = server.object_ref("echo");

    let mut handles = Vec::new();
    for i in 0..4 {
        let exchange = exchange.clone();
        let reference = reference.clone();
        handles.push(std::thread::spawn(move || {
            let orb = Orb::with_exchange(&format!("client-{i}"), exchange);
            let stub = orb.bind(&reference).unwrap();
            for j in 0..20u8 {
                let payload = Bytes::from(vec![i as u8, j]);
                let reply = stub.invoke("echo", payload.clone()).unwrap();
                assert_eq!(reply, payload);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    server.close();
}

#[test]
fn orb_shutdown_closes_cached_bindings() {
    let exchange = LocalExchange::new();
    let server_orb = echo_orb("server", exchange.clone());
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let client_orb = Orb::with_exchange("client", exchange);
    let stub = client_orb.bind(&server.object_ref("echo")).unwrap();
    assert!(stub.invoke("p", Bytes::from_static(b"up")).is_ok());

    client_orb.shutdown();
    stub.set_timeout(Duration::from_millis(500));
    assert!(
        stub.invoke("p", Bytes::from_static(b"down")).is_err(),
        "stubs on closed bindings must fail"
    );

    // A fresh bind re-establishes service (the cache replaces the closed
    // binding).
    let stub2 = client_orb.bind(&server.object_ref("echo")).unwrap();
    assert!(stub2.invoke("p", Bytes::from_static(b"again")).is_ok());
    server.close();
}

#[test]
fn qos_changes_across_an_arq_graph_leave_no_straggler_for_the_new_stack() {
    // A reliable graph acknowledges the reply after the caller already has
    // it. If the next `set_qos_parameter` swapped the stacks under that
    // acknowledgement, the new graph would read it as data and the server
    // would drop the connection over a garbage frame; the channel
    // quiesces both ends first.
    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange("server", exchange.clone());
    server_orb
        .adapter()
        .register_with_policy(
            "echo",
            Arc::new(cool_orb::servant::FnServant::new(|_op, args, _ctx| {
                Ok(args.to_vec())
            })),
            ServerPolicy::builder()
                .max_reliability(multe_qos::Reliability::Reliable)
                .supports_encryption(true)
                .build(),
        )
        .unwrap();
    let server = server_orb.listen_dacapo("arq-churn").unwrap();
    let client_orb = Orb::with_exchange("client", exchange);
    let stub = client_orb.bind(&server.object_ref("echo")).unwrap();
    let reliable = QoSSpec::builder()
        .reliability(multe_qos::Reliability::Reliable)
        .build();
    let encrypted = QoSSpec::builder().encrypted(true).build();
    for n in 0..100u32 {
        let spec = if n % 2 == 0 { &reliable } else { &encrypted };
        stub.set_qos_parameter(spec.clone())
            .unwrap_or_else(|e| panic!("change {n}: {e}"));
        let reply = stub
            .invoke("echo", Bytes::from(n.to_be_bytes().to_vec()))
            .unwrap_or_else(|e| panic!("call after change {n}: {e}"));
        assert_eq!(&reply[..], &n.to_be_bytes());
    }
    client_orb.shutdown();
    server.close();
}
