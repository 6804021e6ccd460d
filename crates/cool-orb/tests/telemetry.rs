//! End-to-end observability: a client and server ORB sharing one
//! `cool_telemetry::Registry` produce complete invocation spans (all six
//! stages, over TCP, Chorus and Da CaPo), consistent QoS negotiation
//! counters, and populated latency histograms — over real loopback TCP.

use bytes::Bytes;
use cool_orb::exchange::LocalExchange;
use cool_orb::{Orb, OrbConfig, OrbServer, Stub};
use cool_telemetry::{Registry, SpanOutcome, SpanRecord, Stage};
use multe_qos::QoSSpec;
use std::sync::Arc;

/// Client + server ORB pair over loopback TCP, both reporting into the
/// same registry so spans carry the server-side stages too.
fn tcp_pair(registry: &Arc<Registry>) -> (OrbServer, Stub) {
    tcp_pair_serving(registry, |_op, args, _ctx| Ok(args.to_vec()))
}

/// [`tcp_pair`] with the servant behind `"echo"` supplied by the caller.
fn tcp_pair_serving(
    registry: &Arc<Registry>,
    servant: impl Fn(&str, &[u8], &cool_orb::InvocationCtx) -> Result<Vec<u8>, cool_orb::OrbError>
        + Send
        + Sync
        + 'static,
) -> (OrbServer, Stub) {
    let config = OrbConfig {
        telemetry: Some(Arc::clone(registry)),
        ..Default::default()
    };
    let server_orb = Orb::with_exchange_and_config("server", LocalExchange::new(), config.clone());
    server_orb.adapter().register_fn("echo", servant).unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let reference = server.object_ref("echo");
    let client_orb = Orb::with_exchange_and_config("client", LocalExchange::new(), config);
    let stub = client_orb.bind(&reference).unwrap();
    (server, stub)
}

/// Orderings that hold causally regardless of thread scheduling: the
/// client-side marks are sequenced on the calling thread, the server-side
/// marks on the dispatcher thread, and the reply decode happens after the
/// servant ran. (Client `frame_send` vs. server `queue_wait` is a genuine
/// race between two threads and is deliberately not asserted.)
fn assert_stage_invariants(span: &SpanRecord) {
    assert!(span.is_complete(), "incomplete span: {span:?}");
    let offset = |stage: Stage| span.stage(stage).unwrap().offset_us;
    assert!(
        offset(Stage::Marshal) <= offset(Stage::FrameSend),
        "{span:?}"
    );
    assert!(
        offset(Stage::QueueWait) <= offset(Stage::QosNegotiate),
        "{span:?}"
    );
    assert!(
        offset(Stage::QosNegotiate) <= offset(Stage::ServantExecute),
        "{span:?}"
    );
    assert!(
        offset(Stage::ServantExecute) <= offset(Stage::ReplyDecode),
        "{span:?}"
    );
    assert!(offset(Stage::ReplyDecode) <= span.total_us, "{span:?}");
}

/// Client + server ORB pair reporting into one registry, with distributed
/// tracing on or off, the echo object served on `transport` (`"tcp"`,
/// `"chorus"` or `"dacapo"`).
fn pair_over(registry: &Arc<Registry>, tracing: bool, transport: &str) -> (OrbServer, Stub) {
    let config = OrbConfig {
        telemetry: Some(Arc::clone(registry)),
        tracing,
        ..Default::default()
    };
    let exchange = LocalExchange::new();
    let server_orb = Orb::with_exchange_and_config("server", exchange.clone(), config.clone());
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .unwrap();
    let server = match transport {
        "tcp" => server_orb.listen_tcp("127.0.0.1:0"),
        "chorus" => server_orb.listen_chorus("echo-server"),
        _ => server_orb.listen_dacapo("echo-server"),
    }
    .unwrap();
    let client_orb = Orb::with_exchange_and_config("client", exchange, config);
    let stub = client_orb.bind(&server.object_ref("echo")).unwrap();
    (server, stub)
}

#[test]
fn loopback_call_produces_a_complete_six_stage_span() {
    // The echo object runs on the delivering thread (§5 of DESIGN.md) once
    // its last 64 upcalls were each cheap, so the first call goes through
    // the dispatcher pool and a later one does not; the calls go on until
    // one has. Both kinds of span keep all six stages, whether or not the
    // request carries a trace context.
    const MAX_CALLS: usize = 1_000;
    // What `Registry::recent_spans` keeps.
    const RING: usize = 128;
    let runs = [true, false]
        .into_iter()
        .flat_map(|tracing| ["tcp", "chorus", "dacapo"].map(|transport| (tracing, transport)));
    for (tracing, transport) in runs {
        let what = format!("{transport} (tracing {tracing})");
        let registry = Arc::new(Registry::new());
        let (_server, stub) = pair_over(&registry, tracing, transport);
        stub.set_qos_parameter(QoSSpec::builder().ordered(true).build())
            .unwrap();
        let inline = || {
            registry
                .snapshot()
                .counter(cool_telemetry::names::DISPATCH_INLINE_TOTAL)
                .unwrap_or(0)
        };
        let echo = || {
            let reply = stub.invoke("echo", Bytes::from_static(b"ping")).unwrap();
            assert_eq!(&reply[..], b"ping");
        };
        echo();
        assert_eq!(inline(), 0, "{what}: a cold object runs on the pool");
        let pooled = registry
            .recent_spans()
            .pop()
            .expect("the first call's span");
        let mut calls = 1;
        while inline() == 0 {
            assert!(
                calls < MAX_CALLS,
                "{what}: {calls} calls and the object never ran on the delivering thread"
            );
            echo();
            calls += 1;
        }
        // Calls are synchronous: the one that ticked the counter is the last.
        let inlined = registry.recent_spans().pop().expect("the last call's span");

        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("qos_negotiations_accepted"),
            Some(calls as u64),
            "{what}: every negotiation recorded: {}",
            registry.render_text()
        );
        let spans: Vec<SpanRecord> = registry
            .recent_spans()
            .into_iter()
            .filter(|s| &*s.operation == "echo")
            .collect();
        assert_eq!(spans.len(), calls.min(RING), "{what}");
        for span in spans.iter().chain([&pooled, &inlined]) {
            assert_eq!(&*span.operation, "echo", "{what}");
            assert_eq!(span.transport, transport);
            assert!(matches!(span.outcome, SpanOutcome::Ok), "{what}");
            assert_stage_invariants(span);
        }
    }
}

#[test]
fn thousand_calls_fill_counters_histograms_and_span_ring() {
    let registry = Arc::new(Registry::new());
    let (_server, stub) = tcp_pair(&registry);
    stub.set_qos_parameter(QoSSpec::builder().ordered(true).build())
        .unwrap();
    const CALLS: u64 = 1000;
    for i in 0..CALLS {
        let body = stub
            .invoke("echo", Bytes::from(i.to_be_bytes().to_vec()))
            .unwrap();
        assert_eq!(&body[..], &i.to_be_bytes());
    }

    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("orb_invocations_total{transport=\"tcp\"}"),
        Some(CALLS)
    );
    assert_eq!(snap.counter("qos_negotiations_accepted"), Some(CALLS));
    assert_eq!(snap.counter("qos_negotiations_nacked"), None);
    // Interned by the binding at construction, but never incremented.
    assert_eq!(snap.counter("orb_timeouts_total"), Some(0));

    let latency = snap
        .histogram("orb_invocation_latency_us{transport=\"tcp\"}")
        .expect("latency histogram");
    assert_eq!(latency.count, CALLS);
    assert!(latency.p99 > 0, "p99 must be non-zero: {latency:?}");
    assert!(latency.p50 <= latency.p99);

    // Server-side histograms saw every request too.
    assert_eq!(
        snap.histogram("orb_servant_execute_us").unwrap().count,
        CALLS
    );
    assert_eq!(
        snap.histogram("orb_dispatch_queue_wait_us").unwrap().count,
        CALLS
    );

    // The bounded ring retains per-stage timings for at least the last 64
    // invocations, every one a complete Ok span.
    let recent: Vec<SpanRecord> = registry
        .recent_spans()
        .into_iter()
        .filter(|s| matches!(s.outcome, SpanOutcome::Ok))
        .collect();
    assert!(recent.len() >= 64, "only {} recent spans", recent.len());
    for span in &recent {
        assert_stage_invariants(span);
    }

    // Transport counters agree with the invocation count: one request
    // frame out, one reply frame in, per call.
    assert!(
        snap.counter("transport_frames_sent_total{kind=\"tcp\"}")
            .unwrap_or(0)
            >= CALLS
    );
    assert!(
        snap.counter("transport_frames_recv_total{kind=\"tcp\"}")
            .unwrap_or(0)
            >= CALLS
    );

    // And the whole lot renders.
    let text = registry.render_text();
    assert!(text.contains("orb_invocations_total"));
    let prom = registry.render_prometheus();
    assert!(prom.contains("orb_invocation_latency_us"));
}

#[test]
fn inline_counter_tells_which_path_requests_took() {
    let inline_after = |calls: u32, servant_sleep: Option<std::time::Duration>| {
        let registry = Arc::new(Registry::new());
        let (_server, stub) = tcp_pair_serving(&registry, move |_op, args, _ctx| {
            if let Some(nap) = servant_sleep {
                std::thread::sleep(nap);
            }
            Ok(args.to_vec())
        });
        for _ in 0..calls {
            stub.invoke("op", Bytes::from_static(b"x")).unwrap();
        }
        let snap = registry.snapshot();
        // Either way every request left a queue-wait sample (zero when it
        // skipped the queue), which keeps its span at six stages.
        assert_eq!(
            snap.histogram("orb_dispatch_queue_wait_us").unwrap().count,
            u64::from(calls)
        );
        snap.counter(cool_telemetry::names::DISPATCH_INLINE_TOTAL)
    };
    // An echo servant is observed cheap within its first hundred calls and
    // runs on the connection's reader thread from then on; one that sleeps
    // a millisecond never builds the streak, however many calls it serves.
    let warmed = inline_after(1000, None).unwrap_or(0);
    assert!(warmed > 0 && warmed < 1000, "inline dispatches: {warmed}");
    assert_eq!(
        inline_after(100, Some(std::time::Duration::from_millis(1))),
        Some(0)
    );
}

#[test]
fn timeouts_are_attributed_and_counted() {
    let registry = Arc::new(Registry::new());
    let config = OrbConfig {
        telemetry: Some(Arc::clone(&registry)),
        ..Default::default()
    };
    let server_orb = Orb::with_exchange_and_config("server", LocalExchange::new(), config.clone());
    server_orb
        .adapter()
        .register_fn("slow", |_op, _args, _ctx| {
            std::thread::sleep(std::time::Duration::from_millis(200));
            Ok(Vec::new())
        })
        .unwrap();
    let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
    let client_orb = Orb::with_exchange_and_config("client", LocalExchange::new(), config);
    let stub = client_orb.bind(&server.object_ref("slow")).unwrap();
    stub.set_timeout(std::time::Duration::from_millis(20));

    let err = stub.invoke("s", Bytes::new()).unwrap_err();
    match err {
        cool_orb::OrbError::Timeout(t) => {
            assert!(t.request_id().is_some(), "timeout must name the request");
            assert!(t.elapsed() >= std::time::Duration::from_millis(20));
        }
        other => panic!("expected timeout, got {other:?}"),
    }
    let snap = registry.snapshot();
    assert_eq!(snap.counter("orb_timeouts_total"), Some(1));
    let spans = registry.recent_spans();
    assert!(
        spans
            .iter()
            .any(|s| matches!(s.outcome, SpanOutcome::Timeout)),
        "ring should hold the timed-out span: {spans:?}"
    );
}
