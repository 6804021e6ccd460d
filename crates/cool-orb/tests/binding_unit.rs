//! Focused tests for the client binding: demultiplexing, invocation modes
//! and teardown, driven over an in-process Chorus channel pair (and, where
//! who reads the connection matters, a loopback TCP pair) with a
//! hand-rolled server loop (no ORB server machinery, so failures localise
//! to the binding itself).

use bytes::Bytes;
use cool_giop::prelude::*;
use cool_orb::binding::Binding;
use cool_orb::message_layer::WireProtocol;
use cool_orb::transport::{ChorusComChannel, ComChannel, FrameInbox, TcpComChannel};
use cool_orb::OrbError;
use std::sync::Arc;
use std::time::Duration;

/// Runs a minimal GIOP echo server on `channel` for `n` requests, with a
/// per-request artificial delay.
fn echo_server(channel: Arc<dyn ComChannel>, n: usize, delay: Duration) {
    std::thread::spawn(move || {
        for _ in 0..n {
            let frame = loop {
                match channel.recv_frame(Duration::from_millis(100)) {
                    Ok(f) => break f,
                    Err(OrbError::Timeout { .. }) => continue,
                    Err(_) => return,
                }
            };
            let Ok((msg, version, order)) = Message::decode_frame(&frame) else {
                return;
            };
            if let Message::Request { header, body } = msg {
                if !header.response_expected {
                    continue;
                }
                std::thread::sleep(delay);
                let reply = Message::Reply {
                    header: ReplyHeader::new(header.request_id, ReplyStatus::NoException),
                    body,
                };
                let Ok(frame) = encode_message(&reply, version, order) else {
                    return;
                };
                if channel.send_frame(frame).is_err() {
                    return;
                }
            }
        }
    });
}

fn pair() -> (Arc<dyn ComChannel>, Arc<dyn ComChannel>) {
    let (a, b) = ChorusComChannel::pair();
    (Arc::new(a), Arc::new(b))
}

#[test]
fn call_round_trips() {
    // A reply sent from the server's own thread finds the caller waiting,
    // parked in its entry once the server takes its time — with a
    // deadline or without one.
    let timeouts = [
        (Duration::ZERO, Duration::from_secs(5)),
        (Duration::from_millis(30), Duration::from_secs(5)),
        (Duration::from_millis(30), Duration::MAX),
    ];
    for (delay, timeout) in timeouts {
        let (client, server) = pair();
        echo_server(server, 1, delay);
        let binding = Binding::new(client, WireProtocol::Giop);
        let (body, granted) = binding
            .call(b"key", "op", Bytes::from_static(b"payload"), &[], timeout)
            .unwrap();
        assert_eq!(&body[..], b"payload", "{delay:?} {timeout:?}");
        assert!(granted.is_none(), "echo server attaches no qos context");
    }
}

#[test]
fn call_times_out_against_silent_server() {
    let (client, _server) = pair();
    let binding = Binding::new(client, WireProtocol::Giop);
    let err = binding
        .call(b"key", "op", Bytes::new(), &[], Duration::from_millis(100))
        .unwrap_err();
    assert!(matches!(err, OrbError::Timeout { .. }));
}

#[test]
fn oneway_send_does_not_wait() {
    let (client, server) = pair();
    // No server at all: a one-way send still succeeds locally.
    let binding = Binding::new(client, WireProtocol::Giop);
    binding
        .send(b"key", "fire", Bytes::from_static(b"x"), &[])
        .unwrap();
    // The frame really is on the wire.
    let frame = server.recv_frame(Duration::from_secs(1)).unwrap();
    let (msg, _, _) = Message::decode_frame(&frame).unwrap();
    match msg {
        Message::Request { header, .. } => assert!(!header.response_expected),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn interleaved_replies_demultiplex_by_request_id() {
    let (client, server) = pair();
    // Server that answers requests in REVERSE order of arrival.
    let server_channel = server;
    std::thread::spawn(move || {
        let mut pending = Vec::new();
        for _ in 0..3 {
            let frame = loop {
                match server_channel.recv_frame(Duration::from_millis(100)) {
                    Ok(f) => break f,
                    Err(OrbError::Timeout { .. }) => continue,
                    Err(_) => return,
                }
            };
            let (msg, version, order) = Message::decode_frame(&frame).unwrap();
            if let Message::Request { header, body } = msg {
                pending.push((header.request_id, body, version, order));
            }
        }
        pending.reverse();
        for (request_id, body, version, order) in pending {
            let reply = Message::Reply {
                header: ReplyHeader::new(request_id, ReplyStatus::NoException),
                body,
            };
            let frame = encode_message(&reply, version, order).unwrap();
            server_channel.send_frame(frame).unwrap();
        }
    });

    let binding = Binding::new(client, WireProtocol::Giop);
    let d1 = binding
        .defer(b"k", "op", Bytes::from_static(b"one"), &[])
        .unwrap();
    let d2 = binding
        .defer(b"k", "op", Bytes::from_static(b"two"), &[])
        .unwrap();
    let d3 = binding
        .defer(b"k", "op", Bytes::from_static(b"three"), &[])
        .unwrap();
    // Replies arrive reversed; each deferred handle still gets its own.
    assert_eq!(&d1.wait(Duration::from_secs(5)).unwrap().0[..], b"one");
    assert_eq!(&d2.wait(Duration::from_secs(5)).unwrap().0[..], b"two");
    assert_eq!(&d3.wait(Duration::from_secs(5)).unwrap().0[..], b"three");
}

#[test]
fn close_fails_pending_and_subsequent_calls() {
    let (client, _server) = pair();
    let binding = Binding::new(client, WireProtocol::Giop);
    let deferred = binding.defer(b"k", "op", Bytes::new(), &[]).unwrap();
    binding.close();
    assert!(matches!(
        deferred.wait(Duration::from_secs(1)),
        Err(OrbError::Closed)
    ));
    assert!(matches!(
        binding.call(b"k", "op", Bytes::new(), &[], Duration::from_secs(1)),
        Err(OrbError::Closed)
    ));
    assert!(binding.is_closed());
}

/// Has `server` send CloseConnection to `binding`, whose channel is
/// `client`: the binding closes its channel, which the server's end hears
/// as the connection's end. Asking the binding takes in what an idle TCP
/// connection holds.
fn close_connection_closes_the_channel(
    binding: &Binding,
    client: &dyn ComChannel,
    server: &dyn ComChannel,
) {
    let frame = encode_message(
        &Message::CloseConnection,
        GiopVersion::STANDARD,
        ByteOrder::Big,
    )
    .unwrap();
    server.send_frame(frame).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while !(binding.is_closed() && server.is_closed()) && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        binding.is_closed(),
        "binding did not observe CloseConnection"
    );
    assert!(client.is_closed(), "the binding's channel is still open");
    assert!(
        server.is_closed(),
        "the server's end did not hear the close"
    );
    assert!(matches!(
        server.send_frame(Bytes::from_static(b"late")),
        Err(OrbError::Closed)
    ));
}

#[test]
fn server_close_connection_message_closes_binding() {
    let (client, server) = pair();
    let binding = Binding::new(Arc::clone(&client), WireProtocol::Giop);
    close_connection_closes_the_channel(&binding, &*client, &*server);
}

/// A loopback TCP pair: the client half for a binding, the server half in
/// pull mode for a hand-rolled server.
fn tcp_pair() -> (Arc<dyn ComChannel>, Arc<dyn ComChannel>) {
    let listener = TcpComChannel::listen("127.0.0.1:0").unwrap();
    let client = TcpComChannel::connect(listener.local_addr().unwrap()).unwrap();
    let server = TcpComChannel::from_stream(listener.accept().unwrap().0).unwrap();
    (Arc::new(client), Arc::new(server))
}

/// A TCP binding after one call, so that nobody reads its connection: the
/// caller read its own reply and the reader thread has nothing owed to it.
/// Returns the binding, its channel and the server's end.
fn idle_tcp_binding() -> (Arc<Binding>, Arc<dyn ComChannel>, Arc<dyn ComChannel>) {
    let (client, server) = tcp_pair();
    echo_server(server.clone(), 1, Duration::ZERO);
    let binding = Binding::new(Arc::clone(&client), WireProtocol::Giop);
    binding
        .call(b"key", "op", Bytes::new(), &[], Duration::from_secs(5))
        .unwrap();
    std::thread::sleep(Duration::from_millis(20));
    (binding, client, server)
}

#[test]
fn server_close_connection_message_closes_an_idle_tcp_binding() {
    let (binding, client, server) = idle_tcp_binding();
    close_connection_closes_the_channel(&binding, &*client, &*server);
}

#[test]
fn a_tcp_server_that_vanishes_fails_the_next_call_attributed() {
    let (binding, _, server) = idle_tcp_binding();
    // The socket goes away without a CloseConnection.
    server.close();
    let timeout = Duration::from_secs(2);
    let start = std::time::Instant::now();
    let outcome = binding.call(b"key", "op", Bytes::new(), &[], timeout);
    assert!(
        matches!(outcome, Err(OrbError::Closed | OrbError::Transport(_))),
        "{outcome:?}"
    );
    assert!(start.elapsed() < timeout, "took {:?}", start.elapsed());
}

#[test]
fn notify_callback_runs_on_reply() {
    let (client, server) = pair();
    echo_server(server, 1, Duration::from_millis(20));
    let binding = Binding::new(client, WireProtocol::Giop);
    let (tx, rx) = crossbeam::channel::bounded(1);
    binding
        .notify(
            b"k",
            "op",
            Bytes::from_static(b"async"),
            &[],
            move |result| {
                tx.send(result.map(|(b, _)| b.to_vec())).unwrap();
            },
        )
        .unwrap();
    let result = rx.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
    assert_eq!(result, b"async");
}

#[test]
fn cancel_completes_waiter_with_cancelled() {
    let (client, server) = pair();
    echo_server(server, 1, Duration::from_millis(300));
    let binding = Binding::new(client, WireProtocol::Giop);
    let (tx, rx) = crossbeam::channel::bounded(1);
    let id = binding
        .notify(b"k", "slow", Bytes::new(), &[], move |result| {
            tx.send(result.map(|_| ())).unwrap();
        })
        .unwrap();
    assert!(binding.cancel(id));
    let outcome = rx.recv_timeout(Duration::from_secs(2)).unwrap();
    assert!(matches!(outcome, Err(OrbError::Cancelled)));
}

// ---------------------------------------------------------------------------
// Modes × protocols: the four invocation modes are one issue path, and the
// message protocol is invisible above the message layer.
// ---------------------------------------------------------------------------

use cool_orb::message_layer::cool::CoolMessage;
use cool_orb::message_layer::giop;
use cool_orb::{LocalExchange, Orb, OrbServer};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

const PROTOCOLS: [WireProtocol; 2] = [WireProtocol::Giop, WireProtocol::Cool];
const LONG: Duration = Duration::from_secs(5);

/// A channel that records what is sent (or refuses to send) and never
/// delivers anything.
#[derive(Default)]
struct RecordingChannel {
    sent: Mutex<Vec<Bytes>>,
    refuse: bool,
    inbox: FrameInbox,
}

impl ComChannel for RecordingChannel {
    fn send_frame(&self, frame: Bytes) -> Result<(), OrbError> {
        if self.refuse {
            return Err(OrbError::Transport("wire is down".into()));
        }
        self.sent.lock().unwrap().push(frame);
        Ok(())
    }
    fn inbox(&self) -> &FrameInbox {
        &self.inbox
    }
    fn close(&self) {}
    fn kind(&self) -> &'static str {
        "recording"
    }
}

/// How many requests the binding still has registered (its `Debug` says).
fn pending(binding: &Binding) -> String {
    let debug = format!("{binding:?}");
    let at = debug
        .find("pending: ")
        .expect("Debug names the pending map");
    debug[at..].trim_end_matches([' ', '}']).to_owned()
}

/// Issues one request in each mode — `call`, `send`, `defer`, `notify`, in
/// that order, so they take request ids 1 to 4 — and returns what each
/// reported at issue time.
fn issue_in_every_mode(binding: &Binding, qos: &[QoSParameter]) -> Vec<Result<(), OrbError>> {
    let args = || Bytes::from_static(b"args");
    vec![
        match binding.call(b"key", "call", args(), qos, Duration::from_millis(20)) {
            Err(OrbError::Timeout { .. }) => Ok(()), // on the wire, never answered
            other => other.map(|_| ()),
        },
        binding.send(b"key", "send", args(), qos),
        binding.defer(b"key", "defer", args(), qos).map(drop),
        binding
            .notify(b"key", "notify", args(), qos, |result| {
                assert!(matches!(result, Err(OrbError::Closed)), "nobody answers");
            })
            .map(|_| ()),
    ]
}

#[test]
fn every_mode_puts_the_message_layers_frame_on_the_wire() {
    let throughput = [QoSParameter::new(ParamKind::Throughput, 1_000, 10, 2_000)];
    let modes = [
        ("call", true),
        ("send", false),
        ("defer", true),
        ("notify", true),
    ];
    for (protocol, qos) in [
        (WireProtocol::Giop, &[][..]),
        (WireProtocol::Giop, &throughput[..]), // GIOP 9.9
        (WireProtocol::Cool, &[][..]),
    ] {
        let channel = Arc::new(RecordingChannel::default());
        let binding = Binding::new(channel.clone(), protocol);
        for (issued, (mode, _)) in issue_in_every_mode(&binding, qos).iter().zip(modes) {
            assert!(issued.is_ok(), "{mode} over {protocol:?}: {issued:?}");
        }
        let sent = channel.sent.lock().unwrap();
        assert_eq!(sent.len(), modes.len());
        for (i, (operation, response_expected)) in modes.into_iter().enumerate() {
            let request_id = i as u32 + 1;
            let args = Bytes::from_static(b"args");
            let expected = match protocol {
                WireProtocol::Giop => giop::make_request(
                    request_id,
                    b"key",
                    operation,
                    args,
                    qos,
                    response_expected,
                    None,
                    ByteOrder::Big,
                )
                .unwrap(),
                WireProtocol::Cool => CoolMessage::Request {
                    request_id,
                    object_key: b"key".to_vec(),
                    operation: operation.into(),
                    one_way: !response_expected,
                    args,
                }
                .encode()
                .unwrap(),
            };
            assert_eq!(sent[i], expected, "{operation} over {protocol:?}");
        }
    }
}

#[test]
fn a_request_that_never_reaches_the_wire_leaves_nothing_pending() {
    let throughput = [QoSParameter::new(ParamKind::Throughput, 1_000, 10, 2_000)];
    for protocol in PROTOCOLS {
        // The send fails.
        let channel = Arc::new(RecordingChannel {
            refuse: true,
            ..RecordingChannel::default()
        });
        let binding = Binding::new(channel, protocol);
        for issued in issue_in_every_mode(&binding, &[]) {
            assert!(matches!(issued, Err(OrbError::Transport(_))), "{issued:?}");
        }
        assert_eq!(pending(&binding), "pending: 0", "{protocol:?}");
    }
    // The encode fails: COOL has no field for QoS parameters.
    let channel = Arc::new(RecordingChannel::default());
    let binding = Binding::new(channel.clone(), WireProtocol::Cool);
    for issued in issue_in_every_mode(&binding, &throughput) {
        assert!(matches!(issued, Err(OrbError::Protocol(_))), "{issued:?}");
    }
    // Nor does a key too long for COOL's 16-bit length prefix: it fails
    // here instead of going out with a wrapped length.
    let key = vec![b'k'; 70_000];
    let issued = binding.send(&key, "send", Bytes::new(), &[]);
    assert!(
        matches!(
            issued,
            Err(OrbError::Marshal(GiopError::LengthOverflow {
                declared: 70_000,
                ..
            }))
        ),
        "{issued:?}"
    );
    assert_eq!(pending(&binding), "pending: 0");
    assert!(channel.sent.lock().unwrap().is_empty());
}

#[test]
fn a_timeout_names_its_request_in_call_and_in_deferred_wait_alike() {
    for protocol in PROTOCOLS {
        // A channel that never delivers, and the two whose waits differ:
        // over Chorus the caller parks, over TCP it reads its own
        // connection.
        let recording: Arc<dyn ComChannel> = Arc::new(RecordingChannel::default());
        let [chorus, tcp] = silent_pairs();
        for (transport, client, _server) in
            [("recording", recording.clone(), recording), chorus, tcp]
        {
            let binding = Binding::new(client, protocol);
            let brief = Duration::from_millis(20);
            let from_call = binding.call(b"k", "op", Bytes::new(), &[], brief);
            let deferred = binding.defer(b"k", "op", Bytes::new(), &[]).unwrap();
            let deferred_id = deferred.request_id();
            let from_wait = deferred.wait(brief);
            for (result, request_id) in [(from_call, 1), (from_wait, deferred_id)] {
                match result {
                    Err(OrbError::Timeout(t)) => {
                        assert_eq!(t.request_id(), Some(request_id), "{transport} {protocol:?}");
                        let elapsed = t.elapsed();
                        assert!(elapsed >= brief, "{transport} {protocol:?}: {elapsed:?}");
                    }
                    other => panic!(
                        "{transport} {protocol:?}: expected an attributed timeout, got {other:?}"
                    ),
                }
            }
            assert_eq!(deferred_id, 2);
            assert_eq!(pending(&binding), "pending: 0", "{transport} {protocol:?}");
        }
    }
}

/// A real `OrbServer` on a Chorus endpoint, serving one object: `echo`
/// returns its arguments, `count` bumps `counted`, `slow` takes 300 ms,
/// `nack` refuses with the QoS exception.
fn served(counted: Arc<AtomicUsize>) -> (Arc<Orb>, OrbServer, LocalExchange) {
    let exchange = LocalExchange::new();
    let orb = Orb::with_exchange("modes", exchange.clone());
    orb.adapter()
        .register_fn("obj", move |op, args, _ctx| match op {
            "echo" => Ok(args.to_vec()),
            "count" => {
                counted.fetch_add(1, Ordering::SeqCst);
                Ok(Vec::new())
            }
            "slow" => {
                std::thread::sleep(Duration::from_millis(300));
                Ok(args.to_vec())
            }
            "nack" => Err(OrbError::QosNotSupported(multe_qos::QosError::Rejected(
                "not today".into(),
            ))),
            other => Err(OrbError::OperationUnknown {
                object: "obj".into(),
                operation: other.into(),
            }),
        })
        .unwrap();
    let server = orb.listen_chorus("modes").unwrap();
    (orb, server, exchange)
}

/// What a reply looks like to the caller, comparable across protocols.
fn shape(result: Result<(Bytes, Option<multe_qos::GrantedQoS>), OrbError>) -> String {
    match result {
        Ok((body, granted)) => format!("ok {:?} {granted:?}", &body[..]),
        Err(err) => format!("err {err:?}"),
    }
}

#[test]
fn every_mode_and_cancel_behave_the_same_under_giop_and_cool() {
    let counted = Arc::new(AtomicUsize::new(0));
    let (_orb, server, exchange) = served(counted.clone());
    let mut transcripts = Vec::new();
    for protocol in PROTOCOLS {
        let binding = Binding::new(exchange.connect_chorus("modes").unwrap(), protocol);
        let payload = || Bytes::from_static(b"payload");
        // call: a result, the two errors an adapter hands back itself, and
        // the QoS NACK.
        let mut seen = vec![
            shape(binding.call(b"obj", "echo", payload(), &[], LONG)),
            shape(binding.call(b"obj", "nope", payload(), &[], LONG)),
            shape(binding.call(b"ghost", "echo", payload(), &[], LONG)),
            shape(binding.call(b"obj", "nack", payload(), &[], LONG)),
        ];

        // send: nothing comes back, but the servant runs (on a dispatcher
        // of its own, so it is waited for, not assumed).
        let before = counted.load(Ordering::SeqCst);
        binding.send(b"obj", "count", Bytes::new(), &[]).unwrap();
        let deadline = std::time::Instant::now() + LONG;
        while counted.load(Ordering::SeqCst) == before {
            assert!(
                std::time::Instant::now() < deadline,
                "{protocol:?}: one-way never ran"
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        // defer: collected by wait, and by poll-then-wait.
        let deferred = binding.defer(b"obj", "echo", payload(), &[]).unwrap();
        seen.push(shape(deferred.wait(LONG)));
        let mut deferred = binding.defer(b"obj", "nope", payload(), &[]).unwrap();
        let polled = loop {
            match deferred.poll() {
                Some(result) => break result,
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        };
        seen.push(shape(polled));
        seen.push(shape(deferred.wait(LONG)));

        // notify: the callback gets the same result a caller would.
        let (tx, rx) = crossbeam::channel::bounded(2);
        for operation in ["echo", "nope"] {
            let tx = tx.clone();
            binding
                .notify(b"obj", operation, payload(), &[], move |result| {
                    tx.send(shape(result)).unwrap();
                })
                .unwrap();
            seen.push(rx.recv_timeout(LONG).unwrap());
        }

        // cancel, of a callback and of a deferred handle: the waiter is
        // released at once, the late reply is dropped, nothing stays
        // registered.
        let id = binding
            .notify(b"obj", "slow", payload(), &[], move |result| {
                tx.send(shape(result)).unwrap();
            })
            .unwrap();
        seen.push(format!("cancel {}", binding.cancel(id)));
        seen.push(rx.recv_timeout(LONG).unwrap());
        seen.push(format!("cancel again {}", binding.cancel(id)));
        binding
            .defer(b"obj", "slow", payload(), &[])
            .unwrap()
            .cancel();
        seen.push(pending(&binding));
        // The connection is still good after the cancelled requests.
        seen.push(shape(binding.call(b"obj", "echo", payload(), &[], LONG)));

        transcripts.push(seen);
    }
    let (giop, cool) = (&transcripts[0], &transcripts[1]);
    assert_eq!(giop, cool);
    assert_eq!(giop[0], format!("ok {:?} None", b"payload"));
    assert!(giop[1].contains("OperationUnknown"), "{}", giop[1]);
    assert!(giop[2].contains("ObjectNotFound"), "{}", giop[2]);
    assert!(giop[3].starts_with("err QosNotSupported"), "{}", giop[3]);
    assert!(giop.contains(&"err Cancelled".to_owned()), "{giop:?}");
    assert!(giop.contains(&"pending: 0".to_owned()), "{giop:?}");
    server.close();
}

// ---------------------------------------------------------------------------
// Every way the reply rendezvous ends, on Chorus and on TCP. Over Chorus a
// reply the server sends from inside the request's delivery is in before
// the caller waits; one sent from another thread finds the caller parked.
// Over TCP the caller reads its own connection, or parks when another
// thread reads it.
// ---------------------------------------------------------------------------

/// Waits until `binding` has `n` requests registered: a caller issued its
/// request and is (or is about to be) waiting for the reply.
fn await_pending(binding: &Binding, n: usize) {
    let deadline = std::time::Instant::now() + LONG;
    while pending(binding) != format!("pending: {n}") {
        assert!(std::time::Instant::now() < deadline, "{}", pending(binding));
        std::thread::yield_now();
    }
}

/// A Chorus server that answers every request on the thread delivering
/// it, inside the client's `send_frame`: the reply is in before the
/// caller looks for it.
struct AnswerInline(std::sync::Weak<dyn ComChannel>);

impl cool_orb::transport::FrameSink for AnswerInline {
    fn on_frame(&self, frame: Bytes) {
        let Some(channel) = self.0.upgrade() else {
            return;
        };
        let Ok((Message::Request { header, body }, version, order)) = Message::decode_frame(&frame)
        else {
            return;
        };
        let reply = Message::Reply {
            header: ReplyHeader::new(header.request_id, ReplyStatus::NoException),
            body,
        };
        channel
            .send_frame(encode_message(&reply, version, order).unwrap())
            .unwrap();
    }
    fn on_close(&self) {}
}

#[test]
fn a_reply_sent_inside_the_request_delivery_is_collected_over_chorus() {
    let (client, server) = pair();
    server.set_sink(Arc::new(AnswerInline(Arc::downgrade(&server))));
    let binding = Binding::new(client, WireProtocol::Giop);
    for timeout in [LONG, Duration::MAX] {
        let (body, _) = binding
            .call(b"k", "op", Bytes::from_static(b"inline"), &[], timeout)
            .unwrap();
        assert_eq!(&body[..], b"inline");
    }
    let mut deferred = binding
        .defer(b"k", "op", Bytes::from_static(b"deferred"), &[])
        .unwrap();
    let polled = deferred.poll().expect("in before the first poll");
    assert_eq!(&polled.unwrap().0[..], b"deferred");
    assert_eq!(&deferred.wait(LONG).unwrap().0[..], b"deferred");
    assert_eq!(pending(&binding), "pending: 0");
}

/// A transport's name, a client half for a binding and a server half.
type NamedPair = (&'static str, Arc<dyn ComChannel>, Arc<dyn ComChannel>);

/// The two transports whose waits differ, each a client half for a
/// binding and a server half nobody answers on.
fn silent_pairs() -> [NamedPair; 2] {
    let (chorus_client, chorus_server) = pair();
    let (tcp_client, tcp_server) = tcp_pair();
    [
        ("chorus", chorus_client, chorus_server),
        ("tcp", tcp_client, tcp_server),
    ]
}

#[test]
fn close_releases_a_waiting_caller_with_closed_on_chorus_and_tcp() {
    for (transport, client, _server) in silent_pairs() {
        let binding = Binding::new(client, WireProtocol::Giop);
        let caller = {
            let binding = Arc::clone(&binding);
            std::thread::spawn(move || {
                let start = std::time::Instant::now();
                let result = binding.call(b"k", "op", Bytes::new(), &[], Duration::from_secs(30));
                (result, start.elapsed())
            })
        };
        await_pending(&binding, 1);
        binding.close();
        let (result, waited) = caller.join().unwrap();
        assert!(
            matches!(result, Err(OrbError::Closed)),
            "{transport}: {result:?}"
        );
        assert!(waited < LONG, "{transport}: released after {waited:?}");
    }
}

#[test]
fn cancel_releases_a_waiting_caller_with_cancelled_on_chorus_and_tcp() {
    for (transport, client, _server) in silent_pairs() {
        let binding = Binding::new(client, WireProtocol::Giop);
        // A TCP caller reading its own connection sees the cancel when its
        // read returns, at the latest at its deadline: the cancel still
        // wins over the timeout.
        let timeout = Duration::from_millis(300);
        let caller = {
            let binding = Arc::clone(&binding);
            std::thread::spawn(move || binding.call(b"k", "op", Bytes::new(), &[], timeout))
        };
        await_pending(&binding, 1);
        assert!(binding.cancel(1), "{transport}: request 1 was pending");
        let result = caller.join().unwrap();
        assert!(
            matches!(result, Err(OrbError::Cancelled)),
            "{transport}: {result:?}"
        );
        assert!(!binding.cancel(1), "{transport}: cancelled once");
        assert_eq!(pending(&binding), "pending: 0", "{transport}");
    }
}

#[test]
fn poll_then_wait_returns_the_same_reply_over_tcp() {
    let (client, server) = tcp_pair();
    echo_server(server, 1, Duration::ZERO);
    let binding = Binding::new(client, WireProtocol::Giop);
    let mut deferred = binding
        .defer(b"k", "op", Bytes::from_static(b"polled"), &[])
        .unwrap();
    // The connection's reader thread reads a deferred reply.
    let deadline = std::time::Instant::now() + LONG;
    let polled = loop {
        if let Some(result) = deferred.poll() {
            break result;
        }
        assert!(std::time::Instant::now() < deadline, "never polled a reply");
        std::thread::yield_now();
    };
    assert_eq!(&polled.unwrap().0[..], b"polled");
    assert_eq!(&deferred.wait(LONG).unwrap().0[..], b"polled");
    assert_eq!(pending(&binding), "pending: 0");
}

#[test]
fn eight_threads_share_one_chorus_binding_and_lose_no_reply() {
    const THREADS: u32 = 8;
    const CALLS: u32 = 500;
    let (_orb, server, exchange) = served(Arc::new(AtomicUsize::new(0)));
    let binding = Binding::new(
        exchange.connect_chorus("modes").unwrap(),
        WireProtocol::Giop,
    );
    let callers: Vec<_> = (0..THREADS)
        .map(|thread| {
            let binding = Arc::clone(&binding);
            std::thread::spawn(move || {
                for call in 0..CALLS {
                    let args = Bytes::from(format!("{thread}/{call}"));
                    let (body, _) = binding
                        .call(b"obj", "echo", args.clone(), &[], LONG)
                        .unwrap_or_else(|e| panic!("call {thread}/{call}: {e:?}"));
                    assert_eq!(body, args, "a reply went to the wrong caller");
                }
            })
        })
        .collect();
    for caller in callers {
        caller.join().unwrap();
    }
    assert_eq!(pending(&binding), "pending: 0");
    server.close();
}
