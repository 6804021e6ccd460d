//! The end of a connection, as every channel tells it: one table over
//! {TCP, Chorus, Da CaPo, a fault-injecting channel over Chorus} ×
//! {closed here, closed by the peer}. Within a bound, on *both* ends, the
//! channel reads as closed, a send fails [`OrbError::Closed`] (not `Ok`,
//! not a transport error), a receive reports the close, the sink hears
//! `on_close` exactly once, and a fault engine consumes no decision after
//! the end. And the end a server's close gives the connections attached to
//! it, however a connect races that close.

use bytes::Bytes;
use cool_orb::transport::{
    ChorusComChannel, ComChannel, DacapoComChannel, FaultChannel, FrameSink, TcpComChannel,
};
use cool_orb::{FaultEngine, FaultPlan, LocalExchange, Orb, OrbError, OrbServer};
use dacapo::config::ConfigurationManager;
use dacapo::prelude::*;
use multe_qos::TransportRequirements;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// How long an end may take to be heard on the other side.
const BOUND: Duration = Duration::from_secs(5);

#[derive(Clone, Copy, Debug)]
enum Transport {
    Tcp,
    Chorus,
    Dacapo,
    /// Chorus, with the near end wrapped in a [`FaultChannel`] whose plan
    /// injects nothing: every send asks the engine.
    FaultedChorus,
}

#[derive(Clone, Copy, Debug)]
enum Closer {
    /// The near end closes itself.
    Local,
    /// The far end closes.
    Peer,
}

/// A connected pair, and the engine behind the near end when it has one.
struct Ends {
    near: Arc<dyn ComChannel>,
    far: Arc<dyn ComChannel>,
    engine: Option<Arc<FaultEngine>>,
}

fn ends(transport: Transport) -> Ends {
    let chorus = || {
        let (near, far) = ChorusComChannel::pair();
        (Arc::new(near), Arc::new(far))
    };
    let (near, far, engine): (Arc<dyn ComChannel>, Arc<dyn ComChannel>, _) = match transport {
        Transport::Tcp => {
            let listener = TcpComChannel::listen("127.0.0.1:0").unwrap();
            let near = TcpComChannel::connect(listener.local_addr().unwrap()).unwrap();
            let far = TcpComChannel::from_stream(listener.accept().unwrap().0).unwrap();
            (Arc::new(near), Arc::new(far), None)
        }
        Transport::Chorus => {
            let (near, far) = chorus();
            (near, far, None)
        }
        Transport::Dacapo => {
            let catalog = MechanismCatalog::standard();
            let (ta, tb) = loopback_pair();
            let a = Connection::establish(ModuleGraph::empty(), ta, &catalog).unwrap();
            let b = Connection::establish(ModuleGraph::empty(), tb, &catalog).unwrap();
            let (near, far) =
                DacapoComChannel::pair(a, b, ConfigurationManager::standard(), None).unwrap();
            (Arc::new(near), Arc::new(far), None)
        }
        Transport::FaultedChorus => {
            let (near, far) = chorus();
            let engine = Arc::new(FaultEngine::new(FaultPlan::builder().build().unwrap()));
            let near = Arc::new(FaultChannel::new(near, Arc::clone(&engine), None));
            (near, far, Some(engine))
        }
    };
    Ends { near, far, engine }
}

/// Counts the frames and the closes it hears, and says when it closes.
struct Watch {
    frames: AtomicUsize,
    closes: AtomicUsize,
    closed: Mutex<Sender<()>>,
}

impl Watch {
    fn on(channel: &dyn ComChannel) -> (Arc<Watch>, Receiver<()>) {
        let (tx, rx) = mpsc::channel();
        let watch = Arc::new(Watch {
            frames: AtomicUsize::new(0),
            closes: AtomicUsize::new(0),
            closed: Mutex::new(tx),
        });
        channel.set_sink(Arc::clone(&watch) as Arc<dyn FrameSink>);
        (watch, rx)
    }
}

impl FrameSink for Watch {
    fn on_frame(&self, _frame: Bytes) {
        self.frames.fetch_add(1, Ordering::SeqCst);
    }
    fn on_close(&self) {
        self.closes.fetch_add(1, Ordering::SeqCst);
        let _ = self.closed.lock().unwrap().send(());
    }
}

#[test]
fn every_channel_tells_its_end_the_same_way_on_both_ends() {
    let transports = [
        Transport::Tcp,
        Transport::Chorus,
        Transport::Dacapo,
        Transport::FaultedChorus,
    ];
    for transport in transports {
        for closer in [Closer::Local, Closer::Peer] {
            let case = format!("{transport:?}, closed by {closer:?}");
            let Ends { near, far, engine } = ends(transport);
            let (near_watch, near_closed) = Watch::on(&*near);
            let (far_watch, far_closed) = Watch::on(&*far);

            // Open, both ways.
            near.send_frame(Bytes::from_static(b"ping")).unwrap();
            far.send_frame(Bytes::from_static(b"pong")).unwrap();
            for (end, watch) in [("near", &near_watch), ("far", &far_watch)] {
                let heard = || watch.frames.load(Ordering::SeqCst) == 1;
                let deadline = std::time::Instant::now() + BOUND;
                while !heard() && std::time::Instant::now() < deadline {
                    std::thread::sleep(Duration::from_millis(1));
                }
                assert!(heard(), "{case}: the {end} end never heard its frame");
            }
            assert!(!near.is_closed() && !far.is_closed(), "{case}");
            let decided = engine.as_ref().map(|e| e.frames_seen());
            assert_eq!(decided.unwrap_or(1), 1, "{case}: one send, one decision");

            match closer {
                Closer::Local => near.close(),
                Closer::Peer => far.close(),
            }
            for (end, channel, closed) in
                [("near", &near, &near_closed), ("far", &far, &far_closed)]
            {
                closed
                    .recv_timeout(BOUND)
                    .unwrap_or_else(|_| panic!("{case}: the {end} end's sink never heard the end"));
                assert!(channel.is_closed(), "{case}: the {end} end reads as open");
                for _ in 0..3 {
                    let sent = channel.send_frame(Bytes::from_static(b"late"));
                    assert!(
                        matches!(sent, Err(OrbError::Closed)),
                        "{case}: a send on the {end} end after the end: {sent:?}"
                    );
                }
                let received = channel.recv_frame(Duration::from_millis(10));
                assert!(
                    matches!(received, Err(OrbError::Closed)),
                    "{case}: a receive on the {end} end after the end: {received:?}"
                );
            }
            assert_eq!(
                engine.as_ref().map(|e| e.frames_seen()),
                decided,
                "{case}: the engine was asked after the end"
            );

            // Closing again, from either side, is heard by no sink.
            near.close();
            far.close();
            for (end, watch) in [("near", &near_watch), ("far", &far_watch)] {
                assert_eq!(
                    watch.closes.load(Ordering::SeqCst),
                    1,
                    "{case}: the {end} end's on_close"
                );
            }
        }
    }
}

/// Threads connecting while a server closes, and closes per transport.
const CONNECTORS: usize = 4;
const CLOSES: usize = 20;
/// More connects than any connector makes before a close refuses it.
const CONNECT_CAP: usize = 10_000;

#[test]
fn a_connect_racing_its_servers_close_is_refused_or_ends() {
    type Listen = fn(&Orb) -> Result<OrbServer, OrbError>;
    type Connect = fn(&LocalExchange) -> Result<Arc<dyn ComChannel>, OrbError>;
    let transports: [(&str, Listen, Connect); 2] = [
        (
            "chorus",
            |orb| orb.listen_chorus("closing"),
            |exchange| exchange.connect_chorus("closing"),
        ),
        (
            "dacapo",
            |orb| orb.listen_dacapo("closing"),
            |exchange| exchange.connect_dacapo("closing", &TransportRequirements::best_effort()),
        ),
    ];
    for (transport, listen, connect) in transports {
        for round in 0..CLOSES {
            let case = format!("{transport}, close {round}");
            let exchange = LocalExchange::new();
            let orb = Orb::with_exchange("closing", exchange.clone());
            let server = listen(&orb).unwrap();
            let start = Arc::new(Barrier::new(CONNECTORS + 1));
            let connectors: Vec<_> = (0..CONNECTORS)
                .map(|_| {
                    let (exchange, start) = (exchange.clone(), Arc::clone(&start));
                    std::thread::spawn(move || {
                        start.wait();
                        // Connect until refused, so that connects span the
                        // whole close.
                        let mut made = Vec::new();
                        for _ in 0..CONNECT_CAP {
                            match connect(&exchange) {
                                Ok(channel) => made.push(channel),
                                Err(refused) => return (made, refused),
                            }
                        }
                        panic!("{CONNECT_CAP} connects, and the closed server took them all");
                    })
                })
                .collect();
            start.wait();
            // On its own thread, so that a close that never returns fails
            // here instead of hanging the suite.
            let (closed_tx, closed) = mpsc::channel();
            let closer = std::thread::spawn(move || {
                server.close();
                closed_tx.send(()).unwrap();
            });
            closed
                .recv_timeout(BOUND)
                .unwrap_or_else(|_| panic!("{case}: close did not return within {BOUND:?}"));
            closer.join().unwrap();
            for connector in connectors {
                let (made, refused) = connector.join().unwrap();
                // `Closed` from an attach that found the server closing,
                // `BadAddress` once the close has given the name back.
                assert!(
                    matches!(refused, OrbError::Closed | OrbError::BadAddress(_)),
                    "{case}: a connect was refused with {refused:?}"
                );
                for channel in made {
                    let deadline = Instant::now() + BOUND;
                    while !channel.is_closed() && Instant::now() < deadline {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    assert!(
                        channel.is_closed(),
                        "{case}: a connection attached to the server outlived its close"
                    );
                }
            }
        }
    }
}
