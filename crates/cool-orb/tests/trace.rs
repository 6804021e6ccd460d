//! Cross-process distributed tracing over real loopback TCP (and one
//! Chorus case, where both halves are stamped on the caller's thread).
//!
//! Unlike `tests/telemetry.rs` (which shares one registry between both
//! ORBs, so spans merge in-process), these tests give the client and the
//! server **separate** registries — the only way the server's stage
//! timings can reach the client is over the wire, piggybacked in GIOP
//! service contexts. That is exactly what a two-process deployment looks
//! like, minus the clock skew.

use bytes::Bytes;
use cool_orb::exchange::LocalExchange;
use cool_orb::message_layer::WireProtocol;
use cool_orb::{IntrospectPolicy, Orb, OrbConfig, OrbServer, Stub};
use cool_telemetry::{names, Registry};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Client and server ORB over loopback TCP with *disjoint* registries:
/// trace data crosses only via the wire.
fn split_registry_pair() -> (Arc<Registry>, Arc<Registry>, OrbServer, Stub) {
    let client_reg = Arc::new(Registry::new());
    let server_reg = Arc::new(Registry::new());
    let server_orb = Orb::with_exchange_and_config(
        "server",
        LocalExchange::new(),
        OrbConfig {
            telemetry: Some(Arc::clone(&server_reg)),
            ..Default::default()
        },
    );
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let reference = server.object_ref("echo");
    let client_orb = Orb::with_exchange_and_config(
        "client",
        LocalExchange::new(),
        OrbConfig {
            telemetry: Some(Arc::clone(&client_reg)),
            ..Default::default()
        },
    );
    let stub = client_orb.bind(&reference).unwrap();
    (client_reg, server_reg, server, stub)
}

#[test]
fn each_invocation_yields_one_merged_trace_with_server_stages_and_wire_gaps() {
    let (client_reg, server_reg, _server, stub) = split_registry_pair();
    const CALLS: usize = 32;
    for i in 0..CALLS {
        let body = stub
            .invoke("echo", Bytes::from(format!("payload-{i}")))
            .unwrap();
        assert_eq!(&body[..], format!("payload-{i}").as_bytes());
    }

    let traces = client_reg.recent_traces();
    assert_eq!(traces.len(), CALLS, "one merged trace per invocation");

    let mut ids = std::collections::HashSet::new();
    for t in &traces {
        assert!(
            t.is_merged(),
            "trace must carry both halves and wire gaps: {t:?}"
        );
        assert!(ids.insert(t.trace_id), "trace ids must be unique: {t:?}");

        // Client stages were measured locally on the caller thread.
        assert_eq!(&*t.span.operation, "echo");
        assert!(
            t.span.stage(cool_telemetry::Stage::Marshal).is_some(),
            "client marshal stage missing: {t:?}"
        );
        assert!(
            t.span.stage(cool_telemetry::Stage::ReplyDecode).is_some(),
            "client reply-decode stage missing: {t:?}"
        );

        // Server stages only exist because the reply service context
        // carried them — the registries are disjoint.
        let server = t.server.expect("server half");
        assert!(server.sent_at_ns >= server.recv_at_ns, "{server:?}");

        // Wire gaps are the wall-clock deltas around the server's work;
        // on one host they are small but must be present and sane
        // (saturating at zero when clocks jitter backwards).
        let out = t.wire_out_us.expect("outbound gap");
        let back = t.wire_back_us.expect("return gap");
        assert!(out < 5_000_000, "implausible outbound gap {out}µs");
        assert!(back < 5_000_000, "implausible return gap {back}µs");
    }

    // The server joined every inbound trace and accounted for the
    // context bytes in both directions.
    let server_snap = server_reg.snapshot();
    assert_eq!(
        server_snap.counter(names::TRACE_JOINS_TOTAL),
        Some(CALLS as u64),
        "server must join each traced request: {}",
        server_reg.render_text()
    );
    let server_ctx_bytes = server_snap.counter(names::SERVICE_CONTEXT_BYTES).unwrap();
    assert_eq!(
        server_ctx_bytes,
        (CALLS * (21 + 37)) as u64,
        "request (21B) + reply (37B) context per call"
    );
    let client_ctx_bytes = client_reg
        .snapshot()
        .counter(names::SERVICE_CONTEXT_BYTES)
        .unwrap();
    assert_eq!(client_ctx_bytes, (CALLS * 21) as u64);

    // The server must NOT have produced client-side spans of its own —
    // its half of the story travels on the reply only.
    assert_eq!(server_reg.recent_traces().len(), 0);
}

#[test]
fn a_traced_chorus_call_has_non_negative_wire_gaps() {
    // Over Chorus the server runs inside the caller's send (once the object
    // is admitted to the delivering thread, §5 of DESIGN.md): every stamp
    // comes from one thread, so the two halves must nest exactly.
    let exchange = LocalExchange::new();
    let (client_reg, server_reg) = (Arc::new(Registry::new()), Arc::new(Registry::new()));
    let config = |registry: &Arc<Registry>| OrbConfig {
        telemetry: Some(Arc::clone(registry)),
        ..Default::default()
    };
    let server_orb = Orb::with_exchange_and_config("server", exchange.clone(), config(&server_reg));
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    let server = server_orb.listen_chorus("traced").unwrap();
    let client_orb = Orb::with_exchange_and_config("client", exchange, config(&client_reg));
    let stub = client_orb.bind(&server.object_ref("echo")).unwrap();
    // At least CALLS calls, and on until the object is admitted to the
    // caller's thread: admission takes 64 upcalls in a row under 20 µs,
    // which a loaded host may deny for a while, but not for ADMISSION_BOUND.
    const CALLS: usize = 100;
    const ADMISSION_BOUND: usize = 10_000;
    let inline = || {
        server_reg
            .snapshot()
            .counter(names::DISPATCH_INLINE_TOTAL)
            .unwrap_or(0)
    };
    let mut calls = 0;
    while calls < CALLS || inline() == 0 {
        assert!(
            calls < ADMISSION_BOUND,
            "the warmed-up object never ran on the caller's thread"
        );
        stub.invoke("echo", Bytes::from_static(b"x")).unwrap();
        calls += 1;
    }

    // One trace per call: on the ring, or evicted from it.
    let traces = client_reg.recent_traces();
    let evicted = client_reg.snapshot().counter(names::SPANS_DROPPED_TOTAL);
    assert_eq!(traces.len() as u64 + evicted.unwrap_or(0), calls as u64);
    for t in &traces {
        assert!(t.is_merged(), "{t:?}");
        let server = t.server.expect("server half");
        let server_us = (server.sent_at_ns - server.recv_at_ns) / 1_000;
        assert!(
            u64::from(server.queue_wait_us + server.negotiate_us + server.execute_us)
                <= server_us + 1,
            "the server's stages fit between its stamps: {t:?}"
        );
        // A negative gap would have been clamped to zero; what is left of
        // the call around the server's work bounds both gaps from above.
        let (out, back) = (t.wire_out_us.unwrap(), t.wire_back_us.unwrap());
        assert!(out + server_us + back <= t.span.total_us + 2, "{t:?}");
    }
    assert_eq!(
        server_reg.snapshot().counter(names::TRACE_JOINS_TOTAL),
        Some(calls as u64)
    );
}

#[test]
fn untraced_server_leaves_client_traces_unmerged() {
    // Server without telemetry: no trace join, no reply context. The
    // client still records its own half and completes the trace record,
    // just without server stages or wire gaps.
    let server_orb =
        Orb::with_exchange_and_config("server", LocalExchange::new(), OrbConfig::default());
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let client_reg = Arc::new(Registry::new());
    let client_orb = Orb::with_exchange_and_config(
        "client",
        LocalExchange::new(),
        OrbConfig {
            telemetry: Some(Arc::clone(&client_reg)),
            ..Default::default()
        },
    );
    let stub = client_orb.bind(&server.object_ref("echo")).unwrap();
    stub.invoke("echo", Bytes::from_static(b"x")).unwrap();

    let traces = client_reg.recent_traces();
    assert_eq!(traces.len(), 1);
    assert!(!traces[0].is_merged());
    assert!(traces[0].server.is_none());
}

/// Finished calls the span store keeps.
const RECENT_CALLS: usize = 128;

/// Client and server ORB over loopback TCP reporting into one registry,
/// the client bound with `protocol`.
fn shared_registry_stub(protocol: WireProtocol) -> (Arc<Registry>, OrbServer, Stub) {
    let registry = Arc::new(Registry::new());
    let config = OrbConfig {
        telemetry: Some(Arc::clone(&registry)),
        ..Default::default()
    };
    let server_orb = Orb::with_exchange_and_config("server", LocalExchange::new(), config.clone());
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let client_orb = Orb::with_exchange_and_config("client", LocalExchange::new(), config);
    let stub = client_orb
        .bind_with_protocol(&server.object_ref("echo"), protocol)
        .unwrap();
    (registry, server, stub)
}

#[test]
fn a_traced_call_is_one_record_seen_as_a_span_and_as_a_trace() {
    let (registry, _server, stub) = shared_registry_stub(WireProtocol::Giop);
    const CALLS: usize = RECENT_CALLS + 72;
    for _ in 0..CALLS {
        stub.invoke("echo", Bytes::from_static(b"x")).unwrap();
    }

    let spans = registry.recent_spans();
    let traces = registry.recent_traces();
    assert_eq!(spans.len(), RECENT_CALLS);
    assert_eq!(
        traces.len(),
        RECENT_CALLS,
        "every GIOP call carried a trace"
    );
    for (span, trace) in spans.iter().zip(&traces) {
        // The same call, not two copies that could disagree.
        assert_eq!(span.request_id, trace.span.request_id);
        assert_eq!(span.stages, trace.span.stages);
        assert_eq!(span.total_us, trace.span.total_us);
        assert!(
            span.is_complete(),
            "shared registry: all six stages {span:?}"
        );
    }
    assert_eq!(
        registry.snapshot().counter(names::SPANS_DROPPED_TOTAL),
        Some((CALLS - RECENT_CALLS) as u64),
        "one eviction per call beyond the ring, traced or not"
    );
}

#[test]
fn a_cool_protocol_call_is_a_span_without_a_trace() {
    let (registry, _server, stub) = shared_registry_stub(WireProtocol::Cool);
    const CALLS: usize = 5;
    for _ in 0..CALLS {
        stub.invoke("echo", Bytes::from_static(b"x")).unwrap();
    }
    assert_eq!(registry.recent_spans().len(), CALLS);
    assert!(
        registry.recent_traces().is_empty(),
        "the COOL protocol carries no trace context"
    );
}

/// Minimal HTTP/1.0 GET against the introspection endpoint.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn introspection_endpoint_serves_all_four_resources() {
    let server_orb =
        Orb::with_exchange_and_config("server", LocalExchange::new(), OrbConfig::default());
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();

    let client_orb = Orb::with_exchange_and_config(
        "client",
        LocalExchange::new(),
        OrbConfig {
            introspect: Some(IntrospectPolicy::default()),
            ..Default::default()
        },
    );
    let addr = client_orb
        .introspect_addr()
        .expect("introspect endpoint must be live");
    let stub = client_orb.bind(&server.object_ref("echo")).unwrap();
    stub.invoke("echo", Bytes::from_static(b"hello")).unwrap();

    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("orb_invocations_total"),
        "metrics body: {metrics}"
    );

    let (status, spans) = http_get(addr, "/spans");
    assert_eq!(status, 200);
    assert!(spans.contains("\"spans\""), "spans body: {spans}");
    assert!(
        spans.contains("\"operation\":\"echo\""),
        "spans must show the call: {spans}"
    );
    assert!(spans.contains("\"traces\""), "spans body: {spans}");

    let (status, flight) = http_get(addr, "/flight");
    assert_eq!(status, 200);
    assert!(flight.contains("\"events\""), "flight body: {flight}");

    // Let the sampler tick at least once, then ask for a window.
    std::thread::sleep(Duration::from_millis(50));
    let (status, gauges) = http_get(addr, "/gauges?window=60000");
    assert_eq!(status, 200);
    assert!(
        gauges.contains("\"window_ms\":60000"),
        "gauges body: {gauges}"
    );

    let (status, _) = http_get(addr, "/nope");
    assert_eq!(status, 404);

    client_orb.shutdown();
    assert!(
        TcpStream::connect(addr).is_err(),
        "endpoint must close on shutdown"
    );
}

#[test]
fn introspection_absent_by_default() {
    let orb = Orb::with_exchange("lonely", LocalExchange::new());
    assert!(
        orb.introspect_addr().is_none(),
        "no introspect policy, no endpoint"
    );
}
