//! Pipelined invocations on a single connection.
//!
//! The event-driven server dispatches requests from a shared pool, so two
//! requests pipelined on one binding are serviced *concurrently* — the
//! seed's per-connection inline dispatch would have serialized them
//! (head-of-line blocking). These tests prove the concurrency, the
//! request/reply matching under out-of-order completion, and that
//! cancelling one in-flight request leaves its neighbours untouched.
//!
//! The second half is about the one exception to the pool: an object whose
//! recent upcalls were all cheap has its next request run on the thread
//! that delivered it. Nothing declares a servant cheap, so these tests
//! switch one from instant to a 250 ms sleep under the server's feet and
//! check what that costs: one request, not the concurrency, not a hang,
//! not the drain, not a cancel.

use bytes::Bytes;
use cool_giop::prelude::{
    decode_message, encode_message, join_frames, split_frames, ByteOrder, GiopVersion, Message,
    RequestHeader,
};
use cool_orb::message_layer::WireProtocol;
use cool_orb::prelude::*;
use cool_orb::transport::{ComChannel, TcpComChannel};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn orb_pair(tag: &str) -> (std::sync::Arc<Orb>, std::sync::Arc<Orb>) {
    let exchange = LocalExchange::new();
    let config = OrbConfig {
        dispatcher_threads: 8,
        ..OrbConfig::default()
    };
    let server = Orb::with_exchange_and_config(&format!("{tag}-server"), exchange.clone(), config);
    let client = Orb::with_exchange_and_config(&format!("{tag}-client"), exchange, OrbConfig::default());
    (server, client)
}

/// Servant that sleeps for `args[0] * 10ms` and echoes its args back, so
/// earlier requests with larger first bytes finish *after* later ones.
fn register_sleepy(orb: &Orb, key: &str) {
    orb.adapter()
        .register_fn(key, |_op, args, _ctx| {
            let ticks = args.first().copied().unwrap_or(0) as u64;
            std::thread::sleep(Duration::from_millis(ticks * 10));
            Ok(args.to_vec())
        })
        .expect("register servant");
}

#[test]
fn two_pipelined_requests_are_serviced_concurrently() {
    let (server_orb, client_orb) = orb_pair("pipeline-tcp");
    server_orb
        .adapter()
        .register_fn("sleepy", |_op, args, _ctx| {
            std::thread::sleep(Duration::from_millis(250));
            Ok(args.to_vec())
        })
        .expect("register servant");
    let server = server_orb.listen_tcp("127.0.0.1:0").expect("listen");
    let stub = client_orb.bind(&server.object_ref("sleepy")).expect("bind");

    // Warm the connection so setup cost is outside the measured window.
    stub.invoke("warm", Bytes::from_static(b"")).expect("warmup");

    let start = Instant::now();
    let a = stub
        .invoke_deferred("work", Bytes::from_static(b"a"))
        .expect("defer a");
    let b = stub
        .invoke_deferred("work", Bytes::from_static(b"b"))
        .expect("defer b");
    let ra = a.wait(Duration::from_secs(5)).expect("reply a");
    let rb = b.wait(Duration::from_secs(5)).expect("reply b");
    let wall = start.elapsed();

    assert_eq!(&ra.0[..], b"a");
    assert_eq!(&rb.0[..], b"b");
    // Two 250ms servant sleeps on ONE connection: serialized dispatch
    // would need >= 500ms; concurrent dispatch finishes in ~250ms.
    assert!(
        wall < Duration::from_millis(450),
        "pipelined requests were serialized: {wall:?}"
    );

    server.close();
    client_orb.shutdown();
}

#[test]
fn out_of_order_replies_match_their_requests() {
    let (server_orb, client_orb) = orb_pair("ooo-tcp");
    register_sleepy(&server_orb, "sleepy");
    let server = server_orb.listen_tcp("127.0.0.1:0").expect("listen");
    let stub = client_orb.bind(&server.object_ref("sleepy")).expect("bind");

    // First-submitted requests sleep longest, so replies return in
    // roughly reverse submission order; each must still match its own id.
    let payloads: Vec<Vec<u8>> = (0..6u8).map(|i| vec![5 - i, b'#', i]).collect();
    let pending: Vec<DeferredReply> = payloads
        .iter()
        .map(|p| {
            stub.invoke_deferred("work", Bytes::from(p.clone()))
                .expect("defer")
        })
        .collect();
    for (reply, payload) in pending.into_iter().zip(&payloads) {
        let (body, _) = reply.wait(Duration::from_secs(5)).expect("reply");
        assert_eq!(&body[..], &payload[..], "reply matched the wrong request");
    }

    server.close();
    client_orb.shutdown();
}

#[test]
fn cancel_of_one_in_flight_request_leaves_neighbours_untouched() {
    let (server_orb, client_orb) = orb_pair("cancel-tcp");
    register_sleepy(&server_orb, "sleepy");
    let server = server_orb.listen_tcp("127.0.0.1:0").expect("listen");
    let stub = client_orb.bind(&server.object_ref("sleepy")).expect("bind");

    let first = stub
        .invoke_deferred("work", Bytes::from_static(b"\x05first"))
        .expect("defer first");
    let doomed = stub
        .invoke_deferred("work", Bytes::from_static(b"\x05doomed"))
        .expect("defer doomed");
    let last = stub
        .invoke_deferred("work", Bytes::from_static(b"\x05last"))
        .expect("defer last");

    let doomed_id = doomed.request_id();
    assert!(stub.cancel(doomed_id), "request should still be pending");
    assert!(
        matches!(doomed.wait(Duration::from_secs(5)), Err(OrbError::Cancelled)),
        "cancelled request must report cancellation"
    );

    let (body, _) = first.wait(Duration::from_secs(5)).expect("first survives");
    assert_eq!(&body[..], b"\x05first");
    let (body, _) = last.wait(Duration::from_secs(5)).expect("last survives");
    assert_eq!(&body[..], b"\x05last");

    server.close();
    client_orb.shutdown();
}

#[test]
fn pipelining_works_over_chorus_ipc_too() {
    let (server_orb, client_orb) = orb_pair("pipeline-chorus");
    register_sleepy(&server_orb, "sleepy");
    let server = server_orb.listen_chorus("pipeline").expect("listen");
    let stub = client_orb.bind(&server.object_ref("sleepy")).expect("bind");

    let slow = stub
        .invoke_deferred("work", Bytes::from_static(b"\x0aslow"))
        .expect("defer slow");
    let fast = stub
        .invoke_deferred("work", Bytes::from_static(b"\x00fast"))
        .expect("defer fast");
    let (fast_body, _) = fast.wait(Duration::from_secs(5)).expect("fast reply");
    assert_eq!(&fast_body[..], b"\x00fast");
    let (slow_body, _) = slow.wait(Duration::from_secs(5)).expect("slow reply");
    assert_eq!(&slow_body[..], b"\x0aslow");

    server.close();
    client_orb.shutdown();
}

#[test]
fn a_full_dispatch_queue_does_not_stop_a_dacapo_binding() {
    // One dispatcher, a reliable (ARQ) graph, and more requests pipelined
    // than the dispatch queue holds — a hundred to a frame, so that the
    // delivery thread meets the full queue in the middle of one, with the
    // client's acknowledgements behind it on the wire. Over TCP that
    // thread would wait for room; over Da CaPo it also brings the
    // acknowledgements the one dispatcher needs to get its replies past
    // the ARQ window, so it must not: what finds no room overflows, and
    // the connection keeps moving.
    const FRAMES: u32 = 4;
    const PER_FRAME: u32 = 100;
    const REQUESTS: u32 = FRAMES * PER_FRAME;
    let exchange = LocalExchange::new();
    let server_config = OrbConfig {
        dispatcher_threads: 1,
        ..OrbConfig::default()
    };
    let server_orb =
        Orb::with_exchange_and_config("overflow-server", exchange.clone(), server_config);
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| {
            // Over the inline budget: every request goes to the pool.
            std::thread::sleep(Duration::from_micros(100));
            Ok(args.to_vec())
        })
        .expect("register servant");
    let server = server_orb.listen_dacapo("overflow").expect("listen");
    let reliable = TransportRequirements {
        error_detection: true,
        retransmission: true,
        sequencing: true,
        ..TransportRequirements::default()
    };
    let channel = exchange
        .connect_dacapo("overflow", &reliable)
        .expect("connect");

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let pipeline_channel = Arc::clone(&channel);
    let pipeline = std::thread::spawn(move || {
        let request = |n: u32| {
            let header = RequestHeader::builder(n, b"echo".to_vec(), "work").build();
            let body = Bytes::from(n.to_be_bytes().to_vec());
            encode_message(
                &Message::Request { header, body },
                GiopVersion::STANDARD,
                ByteOrder::Big,
            )
            .expect("encode")
        };
        for frame in 0..FRAMES {
            let requests: Vec<Bytes> = (frame * PER_FRAME..(frame + 1) * PER_FRAME)
                .map(request)
                .collect();
            pipeline_channel
                .send_frame(join_frames(&requests))
                .expect("send a frame of requests");
        }
        let mut replies = 0;
        while replies < REQUESTS {
            let frame = pipeline_channel
                .recv_frame(Duration::from_secs(20))
                .expect("a reply frame");
            for reply in split_frames(&frame) {
                let Message::Reply { header, body } =
                    decode_message(&reply.expect("a whole reply")).expect("decode")
                else {
                    panic!("not a reply");
                };
                assert_eq!(&body[..], &header.request_id.to_be_bytes());
                replies += 1;
            }
        }
        let _ = done_tx.send(());
    });
    let Ok(()) = done_rx.recv_timeout(Duration::from_secs(30)) else {
        // Closing would wait for the wedged server threads: leave them.
        std::mem::forget((server, channel));
        panic!("the connection stopped with its dispatch queue full");
    };
    pipeline.join().unwrap();

    channel.close();
    server.close();
}

// ---------------------------------------------------------------------------
// Run-to-completion dispatch: admitted by observation, demoted by one overrun
// ---------------------------------------------------------------------------

const SLOW: Duration = Duration::from_millis(250);

/// An echo servant that answers at once until `slow` is set and sleeps
/// [`SLOW`] from then on, noting what kind of thread ran each upcall.
#[derive(Default)]
struct Switchable {
    slow: AtomicBool,
    calls: AtomicUsize,
    /// Whether the latest instant upcall ran off the dispatcher pool.
    fast_inline: AtomicBool,
    /// Sleeping upcalls begun — tests wait on this, not on a timer.
    slow_started: AtomicUsize,
    /// Sleeping upcalls that ran off the dispatcher pool.
    slow_inline: AtomicUsize,
}

impl Switchable {
    fn register(orb: &Orb, key: &str) -> Arc<Self> {
        let sw = Arc::new(Switchable::default());
        let servant = sw.clone();
        orb.adapter()
            .register_fn(key, move |_op, args, _ctx| {
                let inline = !std::thread::current()
                    .name()
                    .is_some_and(|n| n.starts_with("cool-dispatch"));
                servant.calls.fetch_add(1, Ordering::SeqCst);
                if servant.slow.load(Ordering::SeqCst) {
                    if inline {
                        servant.slow_inline.fetch_add(1, Ordering::SeqCst);
                    }
                    servant.slow_started.fetch_add(1, Ordering::SeqCst);
                    std::thread::sleep(SLOW);
                } else {
                    servant.fast_inline.store(inline, Ordering::SeqCst);
                }
                Ok(args.to_vec())
            })
            .expect("register servant");
        sw
    }

    /// Calls until the server has taken the object off the pool (eight
    /// upcalls in a row on a delivery thread); returns the calls made.
    fn warm(&self, call: impl Fn()) -> usize {
        let mut in_a_row = 0;
        for made in 1..=20_000 {
            call();
            in_a_row = if self.fast_inline.load(Ordering::SeqCst) {
                in_a_row + 1
            } else {
                0
            };
            if in_a_row == 8 {
                return made;
            }
        }
        panic!("an instant servant was never run on the delivering thread");
    }

    fn warm_stub(&self, stub: &Stub) {
        self.warm(|| {
            stub.invoke("warm", Bytes::from_static(b"w"))
                .expect("warm call");
        });
    }
}

/// The request caught by the switch is the only one a delivery thread
/// sleeps through: it zeroes the object's streak, so the pair pipelined
/// right behind it is back on the pool and overlaps.
fn a_servant_turned_slow_costs_one_request(listen: impl Fn(&Orb) -> OrbServer, tag: &str) {
    let (server_orb, client_orb) = orb_pair(tag);
    let sw = Switchable::register(&server_orb, "switch");
    let server = listen(&server_orb);
    let stub = client_orb.bind(&server.object_ref("switch")).expect("bind");
    sw.warm_stub(&stub);

    sw.slow.store(true, Ordering::SeqCst);
    stub.invoke("work", Bytes::from_static(b"caught"))
        .expect("caught call");

    let start = Instant::now();
    let a = stub
        .invoke_deferred("work", Bytes::from_static(b"a"))
        .expect("defer a");
    let b = stub
        .invoke_deferred("work", Bytes::from_static(b"b"))
        .expect("defer b");
    a.wait(Duration::from_secs(5)).expect("reply a");
    b.wait(Duration::from_secs(5)).expect("reply b");
    let wall = start.elapsed();

    assert!(
        sw.slow_inline.load(Ordering::SeqCst) <= 1,
        "more than one sleeping upcall ran on a delivery thread"
    );
    assert!(
        wall < Duration::from_millis(450),
        "pipelined requests were serialized after the demotion: {wall:?}"
    );

    server.close();
    client_orb.shutdown();
}

#[test]
fn a_servant_turned_slow_costs_one_request_over_tcp() {
    a_servant_turned_slow_costs_one_request(
        |orb| orb.listen_tcp("127.0.0.1:0").expect("listen"),
        "demote-tcp",
    );
}

#[test]
fn a_servant_turned_slow_costs_one_request_over_chorus() {
    a_servant_turned_slow_costs_one_request(
        |orb| orb.listen_chorus("demote").expect("listen"),
        "demote-chorus",
    );
}

#[test]
fn chorus_call_caught_by_the_switch_returns_late_and_the_next_times_out() {
    let (server_orb, client_orb) = orb_pair("overrun-chorus");
    let sw = Switchable::register(&server_orb, "switch");
    let server = server_orb.listen_chorus("overrun").expect("listen");
    let stub = client_orb.bind(&server.object_ref("switch")).expect("bind");
    let call_timeout = Duration::from_millis(100);
    stub.set_timeout(call_timeout);
    sw.warm_stub(&stub);

    // Over Chorus the delivering thread is the caller's own: it sleeps
    // inside its send and finds the reply waiting — late, but not lost. (A
    // last warm-up call preempted past the budget would have sent this one
    // to the pool instead; then it times out like the one after it.)
    sw.slow.store(true, Ordering::SeqCst);
    let start = Instant::now();
    let caught = stub.invoke("work", Bytes::from_static(b"caught"));
    let took = start.elapsed();
    match (caught, sw.slow_inline.load(Ordering::SeqCst)) {
        (Ok(body), 1) => {
            assert_eq!(&body[..], b"caught");
            assert!(
                took >= SLOW,
                "an inline upcall cannot beat its own sleep: {took:?}"
            );
        }
        (Err(OrbError::Timeout { .. }), 0) => {}
        (other, inline) => panic!("caught call: {other:?} with {inline} inline upcalls"),
    }

    // The overrun sent the object back to the pool: the caller waits on
    // its slot again and gives up on time.
    let start = Instant::now();
    let next = stub.invoke("work", Bytes::from_static(b"next"));
    let took = start.elapsed();
    assert!(matches!(next, Err(OrbError::Timeout { .. })), "{next:?}");
    assert!(
        took >= call_timeout && took < SLOW,
        "timeout not by call_timeout: {took:?}"
    );
    assert!(sw.slow_inline.load(Ordering::SeqCst) <= 1);

    server.close();
    client_orb.shutdown();
}

#[test]
fn graceful_shutdown_waits_for_a_job_on_the_delivery_thread() {
    let (server_orb, client_orb) = orb_pair("drain-inline");
    let sw = Switchable::register(&server_orb, "switch");
    let server = server_orb.listen_tcp("127.0.0.1:0").expect("listen");
    let stub = client_orb.bind(&server.object_ref("switch")).expect("bind");
    sw.warm_stub(&stub);

    sw.slow.store(true, Ordering::SeqCst);
    let in_flight = stub
        .invoke_deferred("work", Bytes::from_static(b"in flight"))
        .expect("defer");
    let deadline = Instant::now() + Duration::from_secs(5);
    while sw.slow_started.load(Ordering::SeqCst) == 0 {
        assert!(
            Instant::now() < deadline,
            "the request never reached the servant"
        );
        std::thread::yield_now();
    }

    let start = Instant::now();
    assert!(
        server.shutdown_graceful(Duration::from_secs(2)),
        "the drain gave up on a 250 ms job"
    );
    assert!(
        start.elapsed() >= Duration::from_millis(200),
        "the drain did not wait for the job: {:?}",
        start.elapsed()
    );
    let (body, _) = in_flight
        .wait(Duration::from_secs(1))
        .expect("the reply went out before the close");
    assert_eq!(&body[..], b"in flight");

    client_orb.shutdown();
}

#[test]
fn a_cancel_that_arrives_first_suppresses_an_inline_upcall() {
    let (server_orb, _) = orb_pair("cancel-inline");
    let sw = Switchable::register(&server_orb, "switch");
    let server = server_orb.listen_tcp("127.0.0.1:0").expect("listen");
    let channel: Arc<dyn ComChannel> =
        Arc::new(TcpComChannel::connect(server.addr().target()).expect("connect"));
    let binding = Binding::new(channel.clone(), WireProtocol::Giop);
    let call = |timeout| binding.call(b"switch", "work", Bytes::from_static(b"x"), &[], timeout);

    // A fresh binding numbers its requests from 1.
    let made = sw.warm(|| {
        call(Duration::from_secs(5)).expect("warm call");
    });
    let cancel = Message::CancelRequest {
        request_id: made as u32 + 1,
    };
    channel
        .send_frame(encode_message(&cancel, GiopVersion::STANDARD, ByteOrder::Big).expect("encode"))
        .expect("send cancel");
    let outcome = call(Duration::from_millis(200));
    assert!(
        matches!(outcome, Err(OrbError::Timeout { .. })),
        "{outcome:?}"
    );
    assert_eq!(
        sw.calls.load(Ordering::SeqCst),
        made,
        "a request cancelled before it arrived reached the servant"
    );

    binding.close();
    server.close();
}

#[test]
fn callers_sharing_a_chorus_binding_are_not_held_to_serve_each_other() {
    const CALLERS: usize = 4;
    const CALLS: usize = 10_000;
    let call_timeout = Duration::from_secs(1);
    let (server_orb, client_orb) = orb_pair("shared-chorus");
    server_orb
        .adapter()
        .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
        .expect("register servant");
    let server = server_orb.listen_chorus("shared").expect("listen");
    let reference = server.object_ref("echo");

    // One binding under all four stubs (the ORB caches it per address).
    // Whoever is inside the server's inbox drains what the others push
    // meanwhile; it runs its own request inline and only enqueues theirs,
    // so no caller is kept from its reply for long.
    let start = Barrier::new(CALLERS);
    let slowest = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|_| {
                scope.spawn(|| {
                    let stub = client_orb.bind(&reference).expect("bind");
                    stub.set_timeout(call_timeout);
                    start.wait();
                    let mut slowest = Duration::ZERO;
                    for i in 0..CALLS {
                        let sent = Instant::now();
                        let body = stub
                            .invoke("echo", Bytes::from(i.to_be_bytes().to_vec()))
                            .expect("call on a shared binding");
                        slowest = slowest.max(sent.elapsed());
                        assert_eq!(&body[..], &i.to_be_bytes());
                    }
                    slowest
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|c| c.join().expect("caller"))
            .max()
            .expect("callers")
    });
    assert!(slowest < call_timeout, "a call took {slowest:?}");

    server.close();
    client_orb.shutdown();
}
