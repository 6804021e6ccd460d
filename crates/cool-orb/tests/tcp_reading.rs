//! Who reads a TCP connection (leader/followers), and who writes it, over
//! real loopback TCP.
//!
//! A caller waiting for its reply reads the socket itself when nobody else
//! is reading; the connection's reader, a pooled `conn-rx` thread, reads
//! only while some reply is owed to a thread that is not reading. These tests pin what that must keep: a lone
//! caller wakes nobody, a read cut short by a timeout loses nothing, a
//! caller that found someone else reading is still served, replies nobody
//! waits for yet are read while more requests go out, `notify` needs no
//! caller at all, one frame carrying two replies completes both requests,
//! and a caller without a deadline is served. What the reading thread
//! sends while it delivers the frames of one read leaves in one write.

use bytes::Bytes;
use cool_giop::prelude::*;
use cool_orb::message_layer::WireProtocol;
use cool_orb::prelude::*;
use cool_orb::transport::{ComChannel, FrameInbox, FrameSink, ReadDemand, TcpComChannel};
use cool_telemetry::lockorder::{Locked, Unlocked};
use dacapo::tlayer::{write_frames, FrameReader};
use std::io::Write;
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

const LONG: Duration = Duration::from_secs(5);

/// A server ORB on loopback TCP whose `echo` object returns its arguments
/// after spinning for `args[0] * 10` µs.
fn echo_server() -> (Arc<Orb>, OrbServer) {
    let orb = Orb::new("tcp-reading-server");
    orb.adapter()
        .register_fn("echo", |_op, args, _ctx| {
            let spin = Duration::from_micros(10 * u64::from(args.first().copied().unwrap_or(0)));
            let start = Instant::now();
            while start.elapsed() < spin {
                std::hint::spin_loop();
            }
            Ok(args.to_vec())
        })
        .expect("register echo");
    let server = orb.listen_tcp("127.0.0.1:0").expect("listen");
    (orb, server)
}

/// This thread's kernel id (`/proc/thread-self` → `<pid>/task/<tid>`).
fn tid() -> String {
    let link = std::fs::read_link("/proc/thread-self").expect("/proc/thread-self");
    link.file_name()
        .expect("a tid")
        .to_string_lossy()
        .into_owned()
}

/// How often thread `tid` of this process has given up the CPU to wait.
fn voluntary_switches(tid: &str) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/self/task/{tid}/status")).expect("status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("voluntary_ctxt_switches")
}

/// Records which thread delivered each frame, then passes it on.
struct Recording {
    inner: Arc<dyn FrameSink>,
    delivered_on: Arc<Mutex<Vec<ThreadId>>>,
}

impl FrameSink for Recording {
    fn on_frame(&self, frame: Bytes) {
        self.delivered_on
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        self.inner.on_frame(frame);
    }
    fn on_close(&self) {
        self.inner.on_close();
    }
}

/// A channel whose sink is wrapped in [`Recording`]; everything else is the
/// TCP channel underneath.
struct Watched {
    inner: Arc<dyn ComChannel>,
    delivered_on: Arc<Mutex<Vec<ThreadId>>>,
}

impl ComChannel for Watched {
    fn send_frame(&self, frame: Bytes) -> Result<(), OrbError> {
        self.inner.send_frame(frame)
    }
    fn inbox(&self) -> &FrameInbox {
        self.inner.inbox()
    }
    fn set_sink(&self, sink: Arc<dyn FrameSink>) {
        let delivered_on = Arc::clone(&self.delivered_on);
        self.inner.set_sink(Arc::new(Recording {
            inner: sink,
            delivered_on,
        }));
    }
    fn read_turn(
        &self,
        held: &mut Locked<Unlocked>,
        deadline: Instant,
        done: &dyn Fn(&mut Locked<Unlocked>) -> bool,
    ) -> bool {
        self.inner.read_turn(held, deadline, done)
    }
    fn hand_over_demand(&self) -> Option<Arc<ReadDemand>> {
        self.inner.hand_over_demand()
    }
    fn close(&self) {
        self.inner.close();
    }
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

/// Learns the kernel id of `channel`'s reader thread: before any binding
/// takes its demand over, that thread delivers everything, so it delivers
/// the one frame `peer` sends now.
fn reader_thread_of(channel: &TcpComChannel, peer: &TcpComChannel) -> String {
    struct Tell(Mutex<Option<crossbeam::channel::Sender<String>>>);
    impl FrameSink for Tell {
        fn on_frame(&self, _frame: Bytes) {
            if let Some(tx) = self.0.lock().unwrap().take() {
                tx.send(tid()).unwrap();
            }
        }
        fn on_close(&self) {}
    }
    let (tx, rx) = crossbeam::channel::bounded(1);
    channel.set_sink(Arc::new(Tell(Mutex::new(Some(tx)))));
    peer.send_frame(Bytes::from_static(b"who reads?")).unwrap();
    rx.recv_timeout(LONG).expect("the reader thread delivered")
}

/// Answers every GIOP request on `channel` with its own body, until the
/// channel closes.
fn serve_echo(channel: Arc<TcpComChannel>) {
    std::thread::spawn(move || {
        while let Ok(frame) = channel.recv_frame(Duration::from_secs(30)) {
            let Ok((Message::Request { header, body }, version, order)) =
                Message::decode_frame(&frame)
            else {
                continue;
            };
            let reply = Message::Reply {
                header: ReplyHeader::new(header.request_id, ReplyStatus::NoException),
                body,
            };
            if channel
                .send_frame(encode_message(&reply, version, order).unwrap())
                .is_err()
            {
                return;
            }
        }
    });
}

#[test]
fn a_lone_caller_reads_its_own_replies_and_wakes_no_reader() {
    let listener = TcpComChannel::listen("127.0.0.1:0").unwrap();
    let client = TcpComChannel::connect(listener.local_addr().unwrap()).unwrap();
    let server = Arc::new(TcpComChannel::from_stream(listener.accept().unwrap().0).unwrap());
    let reader = reader_thread_of(&client, &server);
    serve_echo(server);

    let delivered_on = Arc::new(Mutex::new(Vec::new()));
    let watched = Watched {
        inner: Arc::new(client),
        delivered_on: Arc::clone(&delivered_on),
    };
    let binding = Binding::new(Arc::new(watched), WireProtocol::Giop);
    let call = |n: u32| {
        let args = Bytes::from(n.to_be_bytes().to_vec());
        let (body, _) = binding
            .call(b"echo", "echo", args.clone(), &[], LONG)
            .expect("call");
        assert_eq!(body, args);
    };
    // The reader may still be inside the read it began before the binding
    // took its demand over: the first reply can be its to deliver.
    call(0);
    std::thread::sleep(Duration::from_millis(20));
    delivered_on.lock().unwrap().clear();
    let switches = voluntary_switches(&reader);

    for n in 1..=500 {
        call(n);
    }
    let me = std::thread::current().id();
    let delivered_on = delivered_on.lock().unwrap();
    assert_eq!(delivered_on.len(), 500);
    assert!(
        delivered_on.iter().all(|t| *t == me),
        "{} of 500 replies were delivered by another thread",
        delivered_on.iter().filter(|t| **t != me).count()
    );
    assert_eq!(
        voluntary_switches(&reader) - switches,
        0,
        "the client's reader thread woke during 500 lone calls"
    );
    binding.close();
}

#[test]
fn a_reply_cut_by_a_timeout_is_finished_by_the_next_reader() {
    // A raw server, so a reply can stop halfway: request 1 is answered at
    // once, request 2 with its prefix and half its body, then — after the
    // caller gave up — the rest, and request 3 at once again.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut requests = FrameReader::new();
        for n in 1..=3 {
            let frame = requests
                .read_next(&mut stream.try_clone().unwrap())
                .unwrap();
            let (Message::Request { header, body }, version, order) =
                Message::decode_frame(&frame).unwrap()
            else {
                panic!("not a request");
            };
            let reply = Message::Reply {
                header: ReplyHeader::new(header.request_id, ReplyStatus::NoException),
                body,
            };
            let reply = encode_message(&reply, version, order).unwrap();
            let mut wire = (reply.len() as u32).to_be_bytes().to_vec();
            wire.extend_from_slice(&reply);
            if n == 2 {
                let half = 4 + reply.len() / 2;
                stream.write_all(&wire[..half]).unwrap();
                std::thread::sleep(Duration::from_millis(400));
                stream.write_all(&wire[half..]).unwrap();
            } else {
                stream.write_all(&wire).unwrap();
            }
        }
    });
    let channel = Arc::new(TcpComChannel::connect(addr).unwrap());
    let binding = Binding::new(channel, WireProtocol::Giop);
    let body = |byte| Bytes::from(vec![byte; 5000]);

    // Settle who reads: after this the reader thread is parked, and the
    // next caller reads for itself.
    binding
        .call(b"k", "op", body(1), &[], LONG)
        .expect("warm-up call");
    std::thread::sleep(Duration::from_millis(20));

    let cut = binding.call(b"k", "op", body(2), &[], Duration::from_millis(150));
    assert!(matches!(cut, Err(OrbError::Timeout { .. })), "{cut:?}");
    let (reply, _) = binding
        .call(b"k", "op", body(3), &[], LONG)
        .expect("the next reply arrives intact");
    assert_eq!(reply, body(3));
    server.join().unwrap();
    binding.close();
}

#[test]
fn callers_that_find_the_reading_taken_are_still_served() {
    const CALLERS: usize = 8;
    const CALLS: usize = 500;
    let (_server_orb, server) = echo_server();
    let client_orb = Orb::new("tcp-reading-followers");
    let reference = server.object_ref("echo");
    // Every stub shares the ORB's one cached binding to the server.
    let stub = || {
        let stub = client_orb.bind(&reference).expect("bind");
        stub.set_timeout(Duration::from_secs(2));
        stub
    };
    let failures: Vec<String> = std::thread::scope(|scope| {
        let mut callers: Vec<_> = (0..CALLERS)
            .map(|caller| {
                let stub = stub();
                scope.spawn(move || {
                    let mut failures = Vec::new();
                    for call in 0..CALLS {
                        // 0–200 µs of servant time, different per caller.
                        let args = Bytes::from(vec![((call * 7 + caller * 3) % 21) as u8; 8]);
                        match stub.invoke("echo", args.clone()) {
                            Ok(body) if body == args => {}
                            other => {
                                failures.push(format!("caller {caller} call {call}: {other:?}"))
                            }
                        }
                    }
                    failures
                })
            })
            .collect();
        let deferred = stub();
        callers.push(scope.spawn(move || {
            let mut failures = Vec::new();
            for call in 0..CALLS {
                let args = Bytes::from(vec![(call % 21) as u8; 8]);
                let outcome = deferred
                    .invoke_deferred("echo", args.clone())
                    .and_then(|reply| reply.wait(Duration::from_secs(2)));
                match outcome {
                    Ok((body, _)) if body == args => {}
                    other => failures.push(format!("deferred call {call}: {other:?}")),
                }
            }
            failures
        }));
        callers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect()
    });
    assert!(
        failures.is_empty(),
        "{} failed, first: {:?}",
        failures.len(),
        failures.first()
    );
    server.close();
    client_orb.shutdown();
}

#[test]
fn deferred_replies_are_read_while_requests_still_go_out() {
    // 2 000 requests of 16 KiB issued before any is waited for: 32 MiB
    // each way, far past both socket buffers. Unless replies nobody waits
    // for yet are read meanwhile, the server stops in a write, stops
    // reading, and the issuing thread stops in a write too.
    const REQUESTS: usize = 2_000;
    let (_server_orb, server) = echo_server();
    let client_orb = Orb::new("tcp-reading-deferred");
    let stub = client_orb.bind(&server.object_ref("echo")).expect("bind");
    let (done_tx, done_rx) = crossbeam::channel::bounded(1);
    std::thread::spawn(move || {
        let args = Bytes::from(vec![0u8; 16 * 1024]);
        let replies: Vec<_> = (0..REQUESTS)
            .map(|_| stub.invoke_deferred("echo", args.clone()).expect("defer"))
            .collect();
        let intact = replies
            .into_iter()
            .map(|reply| reply.wait(LONG))
            .filter(|reply| matches!(reply, Ok((body, _)) if body.len() == 16 * 1024))
            .count();
        let _ = done_tx.send(intact);
    });
    let Ok(intact) = done_rx.recv_timeout(Duration::from_secs(10)) else {
        // Closing would wait for the wedged server threads: leave them.
        std::mem::forget((server, client_orb));
        panic!("deadlocked: the replies were not read while requests went out");
    };
    assert_eq!(intact, REQUESTS);
    server.close();
    client_orb.shutdown();
}

#[test]
fn notify_runs_its_callback_with_no_caller_waiting() {
    let (_server_orb, server) = echo_server();
    let channel = Arc::new(TcpComChannel::connect(server.addr().target()).expect("connect"));
    let binding = Binding::new(channel, WireProtocol::Giop);
    let (tx, rx) = crossbeam::channel::bounded(1);
    binding
        .notify(
            b"echo",
            "echo",
            Bytes::from_static(b"\x00async"),
            &[],
            move |result| {
                let _ = tx.send(result.map(|(body, _)| body));
            },
        )
        .expect("notify");
    let body = rx
        .recv_timeout(LONG)
        .expect("the callback ran")
        .expect("reply");
    assert_eq!(&body[..], b"\x00async");
    binding.close();
    server.close();
}

#[test]
fn one_frame_carrying_two_replies_completes_both_deferred_calls() {
    // A raw peer answers two deferred requests with one transport frame:
    // the client's demux splits it and hands each reply to its request.
    let listener = TcpComChannel::listen("127.0.0.1:0").unwrap();
    let client = TcpComChannel::connect(listener.local_addr().unwrap()).unwrap();
    let server = TcpComChannel::from_stream(listener.accept().unwrap().0).unwrap();
    let binding = Binding::new(Arc::new(client), WireProtocol::Giop);
    let first = binding
        .defer(b"echo", "echo", Bytes::from_static(b"first"), &[])
        .expect("defer first");
    let second = binding
        .defer(b"echo", "echo", Bytes::from_static(b"second"), &[])
        .expect("defer second");

    let replies: Vec<Bytes> = (0..2)
        .map(|_| {
            let frame = server.recv_frame(LONG).expect("a request");
            let (Message::Request { header, body }, version, order) =
                Message::decode_frame(&frame).unwrap()
            else {
                panic!("not a request");
            };
            let reply = Message::Reply {
                header: ReplyHeader::new(header.request_id, ReplyStatus::NoException),
                body,
            };
            encode_message(&reply, version, order).unwrap()
        })
        .collect();
    server
        .send_frame(join_frames(&replies))
        .expect("send both replies");

    let (body, _) = first.wait(LONG).expect("first reply");
    assert_eq!(&body[..], b"first");
    let (body, _) = second.wait(LONG).expect("second reply");
    assert_eq!(&body[..], b"second");
    binding.close();
}

#[test]
fn the_replies_to_one_read_leave_in_one_write() {
    // A raw client writes 8 frames at once; the server channel's sink
    // echoes each through the channel. The reader thread delivers all 8
    // from one read, so all 8 echoes leave in one write, and the client's
    // first read finds every one of them.
    const FRAMES: usize = 8;
    const ROUNDS: usize = 20;
    struct Echo(Mutex<Option<Arc<TcpComChannel>>>);
    impl FrameSink for Echo {
        fn on_frame(&self, frame: Bytes) {
            if let Some(channel) = &*self.0.lock().unwrap() {
                channel.send_frame(frame).expect("echo");
            }
        }
        fn on_close(&self) {
            self.0.lock().unwrap().take();
        }
    }
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut client = std::net::TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    client.set_read_timeout(Some(LONG)).unwrap();
    let server = Arc::new(TcpComChannel::from_stream(listener.accept().unwrap().0).unwrap());
    server.set_sink(Arc::new(Echo(Mutex::new(Some(Arc::clone(&server))))));

    let mut replies = FrameReader::new();
    let mut whole_rounds = 0;
    for round in 0..ROUNDS {
        let frames: Vec<Bytes> = (0..FRAMES)
            .map(|i| Bytes::from(format!("round {round} frame {i}")))
            .collect();
        let mut wire = Vec::new();
        write_frames(&mut wire, &frames).unwrap();
        client.write_all(&wire).unwrap();
        // One read, then what it brought.
        replies.fill(&mut client).expect("a read");
        let mut echoed = Vec::new();
        while let Some(frame) = replies.next_frame().unwrap() {
            echoed.push(frame);
        }
        if echoed.len() == FRAMES {
            whole_rounds += 1;
        }
        // The rest of the round, so that the next one starts clean.
        while echoed.len() < FRAMES {
            echoed.push(replies.read_next(&mut client).expect("a reply"));
        }
        assert_eq!(echoed, frames);
    }
    assert_eq!(
        whole_rounds, ROUNDS,
        "the first read brought all {FRAMES} replies in {whole_rounds} of {ROUNDS} rounds"
    );
    server.close();
}

#[test]
fn a_call_with_duration_max_waits_without_a_deadline() {
    let (_server_orb, server) = echo_server();
    let client_orb = Orb::new("tcp-reading-no-deadline");
    let stub = client_orb.bind(&server.object_ref("echo")).expect("bind");
    stub.set_timeout(Duration::MAX);
    let body = stub
        .invoke("echo", Bytes::from_static(b"\x00unbounded"))
        .expect("a call with no deadline");
    assert_eq!(&body[..], b"\x00unbounded");
    server.close();
    client_orb.shutdown();
}
