//! Who reads a Da CaPo connection (leader/followers), as over TCP.
//!
//! A caller waiting for its reply holds the connection's receive turn when
//! nobody else does: it reads the transport, runs the protocol timer's due
//! ticks, runs what arrives up the module stack and delivers it, its own
//! reply included. The connection's pooled loop (a `conn-rx` job) reads
//! only while something is owed to it — a reply to a thread that is not
//! reading, a drain — or a module is not idle. These tests pin what that
//! must keep: a lone caller wakes no other thread of its side, replies
//! nobody waits for (`defer`, `notify`) are still read, a turn cut short
//! by its deadline loses no frame, and a go-back-n binding over a lossy
//! link still retransmits while its callers read.

use bytes::Bytes;
use cool_giop::prelude::*;
use cool_orb::message_layer::WireProtocol;
use cool_orb::prelude::*;
use cool_orb::transport::{ComChannel, DacapoComChannel, FrameInbox, FrameSink, ReadDemand};
use cool_telemetry::lockorder::{Locked, Unlocked};
use dacapo::config::ConfigurationManager;
use dacapo::tlayer::{FrameReader, TcpTransport, Transport};
use dacapo::{loopback_pair, Connection, MechanismCatalog, ModuleGraph, NetsimTransport};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

const LONG: Duration = Duration::from_secs(5);

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

/// A client and a server channel over two connections running `graph`.
fn channel_pair(
    graph: &ModuleGraph,
    client: impl Transport,
    server: impl Transport,
) -> (DacapoComChannel, Arc<DacapoComChannel>) {
    let catalog = MechanismCatalog::standard();
    let client = Connection::establish(graph.clone(), client, &catalog).expect("client end");
    let server = Connection::establish(graph.clone(), server, &catalog).expect("server end");
    let (client, server) =
        DacapoComChannel::pair(client, server, ConfigurationManager::standard(), None)
            .expect("pair");
    (client, Arc::new(server))
}

/// The GIOP reply that echoes `request`, if it is a request that expects
/// one.
fn echo_of(request: &Bytes) -> Option<Bytes> {
    let (Message::Request { header, body }, version, order) =
        Message::decode_frame(request).ok()?
    else {
        return None;
    };
    if !header.response_expected {
        return None;
    }
    let reply = Message::Reply {
        header: ReplyHeader::new(header.request_id, ReplyStatus::NoException),
        body,
    };
    encode_message(&reply, version, order).ok()
}

/// Answers every request on `server` from its sink, on the thread that
/// delivers it.
fn serve_echo(server: &Arc<DacapoComChannel>) {
    struct Echo(Mutex<Option<Arc<DacapoComChannel>>>);
    impl FrameSink for Echo {
        fn on_frame(&self, frame: Bytes) {
            let channel = self.0.lock().unwrap().clone();
            if let (Some(channel), Some(reply)) = (channel, echo_of(&frame)) {
                let _ = channel.send_frame(reply);
            }
        }
        fn on_close(&self) {
            self.0.lock().unwrap().take();
        }
    }
    server.set_sink(Arc::new(Echo(Mutex::new(Some(Arc::clone(server))))));
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
/// Da CaPo channel underneath.
struct Watched {
    inner: DacapoComChannel,
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

/// Learns the kernel id of the thread that runs `channel`'s receive loop:
/// before any binding takes its demand over, that loop delivers
/// everything, so it delivers the one frame `peer` sends now.
fn loop_thread_of(channel: &DacapoComChannel, peer: &DacapoComChannel) -> String {
    struct Tell(Mutex<Option<mpsc::SyncSender<String>>>);
    impl FrameSink for Tell {
        fn on_frame(&self, _frame: Bytes) {
            if let Some(tx) = self.0.lock().unwrap().take() {
                tx.send(tid()).unwrap();
            }
        }
        fn on_close(&self) {}
    }
    let (tx, rx) = mpsc::sync_channel(1);
    channel.set_sink(Arc::new(Tell(Mutex::new(Some(tx)))));
    peer.send_frame(Bytes::from_static(b"who reads?")).unwrap();
    rx.recv_timeout(LONG).expect("the receive loop delivered")
}

#[test]
fn a_lone_caller_reads_its_own_replies_and_wakes_no_other_thread() {
    let (ta, tb) = loopback_pair();
    let (client, server) = channel_pair(&ModuleGraph::empty(), ta, tb);
    let receive_loop = loop_thread_of(&client, &server);
    serve_echo(&server);

    let delivered_on = Arc::new(Mutex::new(Vec::new()));
    let watched = Watched {
        inner: client,
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
    // The hand-over wakes the loop out of its receive; let it park.
    call(0);
    std::thread::sleep(Duration::from_millis(20));
    delivered_on.lock().unwrap().clear();
    let switches = voluntary_switches(&receive_loop);

    for n in 1..=200 {
        call(n);
    }
    let me = std::thread::current().id();
    let delivered_on = delivered_on.lock().unwrap();
    assert_eq!(delivered_on.len(), 200);
    assert!(
        delivered_on.iter().all(|t| *t == me),
        "{} of 200 replies were delivered by another thread",
        delivered_on.iter().filter(|t| **t != me).count()
    );
    assert_eq!(
        voluntary_switches(&receive_loop) - switches,
        0,
        "the client's receive loop woke during 200 lone calls"
    );
    binding.close();
}

#[test]
fn replies_nobody_waits_for_are_still_delivered() {
    let (ta, tb) = loopback_pair();
    let (client, server) = channel_pair(&ModuleGraph::from_ids(["crc32"]), ta, tb);
    serve_echo(&server);
    let binding = Binding::new(Arc::new(client), WireProtocol::Giop);
    // Settle who reads: after this the loop is parked.
    binding
        .call(b"echo", "echo", Bytes::from_static(b"warm"), &[], LONG)
        .expect("warm-up call");
    std::thread::sleep(Duration::from_millis(20));

    // Deferred: nobody waits, so the loop must read the reply in.
    let mut deferred = binding
        .defer(b"echo", "echo", Bytes::from_static(b"deferred"), &[])
        .expect("defer");
    let deadline = Instant::now() + LONG;
    let polled = loop {
        if let Some(reply) = deferred.poll() {
            break reply;
        }
        assert!(
            Instant::now() < deadline,
            "the deferred reply was never read"
        );
        std::thread::sleep(Duration::from_millis(1));
    };
    assert_eq!(&polled.expect("deferred reply").0[..], b"deferred");

    // Notify: the callback runs with no caller at all.
    let (tx, rx) = mpsc::sync_channel(1);
    binding
        .notify(
            b"echo",
            "echo",
            Bytes::from_static(b"async"),
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
    assert_eq!(&body[..], b"async");
    binding.close();
}

#[test]
fn a_turn_cut_short_by_its_deadline_loses_no_frame() {
    // Da CaPo over its TCP transport, an empty graph, and a raw server, so
    // a reply can stop halfway: request 1 is answered at once, request 2
    // with its prefix and half its body, then — after the caller gave up —
    // the rest, and request 3 at once again.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut requests = FrameReader::new();
        for n in 1..=3 {
            let frame = requests
                .read_next(&mut stream.try_clone().unwrap())
                .unwrap();
            let reply = echo_of(&frame).expect("a request");
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
    let transport = TcpTransport::new(TcpStream::connect(addr).unwrap()).unwrap();
    // The pair's other end is never used: the raw server stands in for it.
    let (unused, _) = loopback_pair();
    let (client, _unused) = channel_pair(&ModuleGraph::empty(), transport, unused);
    let binding = Binding::new(Arc::new(client), WireProtocol::Giop);
    let body = |byte| Bytes::from(vec![byte; 5000]);

    binding
        .call(b"k", "op", body(1), &[], LONG)
        .expect("warm-up call");
    // Over TCP the hand-over reaches the loop at its next tick.
    std::thread::sleep(Duration::from_millis(50));

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
fn a_go_back_n_binding_over_a_lossy_link_completes_its_calls() {
    // 5 % of the frames each way are lost. A lost request or reply is
    // resent only by the protocol timer: the caller that holds the turn
    // runs it on the client's side, the server's loop on the server's.
    let spec = netsim::LinkSpec::builder()
        .bandwidth_bps(1_000_000_000)
        .propagation(Duration::ZERO)
        .loss_rate(0.05)
        .seed(42)
        .build()
        .unwrap();
    let link = netsim::Link::real_time(spec);
    let (ea, eb) = link.endpoints();
    let (client, server) = channel_pair(
        &ModuleGraph::from_ids(["go-back-n"]),
        NetsimTransport::new(ea),
        NetsimTransport::new(eb),
    );
    serve_echo(&server);
    let binding = Binding::new(Arc::new(client), WireProtocol::Giop);
    for n in 0..200u32 {
        let args = Bytes::from(n.to_be_bytes().to_vec());
        let (body, _) = binding
            .call(b"echo", "echo", args.clone(), &[], LONG)
            .unwrap_or_else(|e| panic!("call {n}: {e}"));
        assert_eq!(body, args, "call {n}");
    }
    binding.close();
}
