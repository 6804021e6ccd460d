//! Da CaPo channel: the paper's `_DacapoComChannel` — the one transport
//! that implements `set_qos`.
//!
//! ## Delivery
//!
//! The channel *"handles its own buffers in the Da CaPo runtime
//! environment"*, and it has no thread of its own: it installs a
//! [`dacapo::Sink`] on its connection, so the connection's one receive
//! thread (`dacapo-t-rx`) — having run a frame up the module stack — pushes
//! the payload straight into the channel's [`FrameInbox`], which wakes
//! `recv_frame` waiters or runs the registered [`FrameSink`] there and
//! then. The sink is the connection's, not a stack's: a live
//! reconfiguration swaps the stack underneath and the channel notices
//! nothing. There is no poll slice and no timer. That thread also brings
//! the acknowledgements a sender stuck behind a full ARQ window waits for,
//! so a sink must not keep it waiting for such a sender
//! ([`ComChannel::delivery_may_wait`] is `false` here, and the server's
//! sink overflows its dispatch queue instead of blocking on it).
//!
//! ## Teardown
//!
//! `close` closes the Da CaPo connection, which closes the transport and
//! so ends the wait of the peer's receive thread. That thread then brings
//! up everything that was sent before the close, and last the close
//! itself, on which the peer's sink closes its own side — from the receive
//! thread, which is why nothing joins that thread: stack stopped, resource
//! grant released, inbox closed (→ the sink's `on_close`). The server end
//! of a binding is reclaimed that way when the client goes, without
//! `OrbServer::close`.
//!
//! ## Reconfiguration protocol
//!
//! Changing QoS mid-binding requires *both* peers to swap to the same new
//! module graph (Section 4.1: changes in QoS *"have to be reflected in
//! reconfigurations of the transport connection"*). The coordination runs
//! over the signalling facility of Da CaPo's management component
//! (Figure 5) — here a direct control-path reference between the two ends
//! of the pair, never the data path that is being torn down:
//!
//! 0. both ends quiesce: the outgoing graph's own protocol traffic (an ARQ
//!    acknowledgement for the last reply, say) is given the moment it needs
//!    to arrive. A frame that crosses the swap is not lost — the
//!    connection's receive thread holds it for the new stack — so a
//!    straggler of the old protocol would be read by the new one as data;
//! 1. the initiator asks the peer management side to swap first: the peer
//!    re-runs configuration *and resource admission* for the new
//!    requirements and rebuilds its stack;
//! 2. a peer-side failure surfaces to the initiator as the
//!    unilateral-negotiation NACK of Section 4.3, with both sides left on
//!    their previous graphs and grants;
//! 3. on success the initiator admits and rebuilds its own side.
//!
//! The ORB calls `set_qos` only between invocations (no application frames
//! in flight), so the swap is lossless. Compared to the seed, which routed
//! this handshake through channels served inside a polled `recv_frame`,
//! the control path is now synchronous — `set_qos` needs no thread to be
//! parked in `recv_frame` on the peer.

use crate::error::OrbError;
use crate::transport::{ComChannel, FrameInbox, FrameSink, InboxMetrics, SendMetrics};
use bytes::Bytes;
use cool_telemetry::Registry;
use dacapo::config::ConfigurationManager;
use dacapo::{Connection, ResourceManager};
use multe_qos::{QosError, TransportRequirements};
use cool_telemetry::lockorder::OrderedMutex;
use cool_telemetry::lockorder::rank as lock_rank;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

/// How long `set_qos` waits for either end's stack to quiesce before it
/// swaps them anyway. A deadline for hang-freedom, not a grace period: the
/// wait is event-driven and ends when the stack is quiet.
const QUIESCE_BOUND: Duration = Duration::from_secs(2);

/// One side of the pair: everything the channel handle, the connection's
/// sink and the peer's control path need to share.
struct Inner {
    connection: Connection,
    config_mgr: ConfigurationManager,
    resource_mgr: Option<ResourceManager>,
    inbox: Arc<FrameInbox>,
    closed: AtomicBool,
    /// Control path to the other end of the pair (the management
    /// signalling facility). Weak: a dropped peer must read as gone, not
    /// be kept alive by our side.
    peer: OrderedMutex<Weak<Inner>>,
    send_metrics: Option<SendMetrics>,
}

impl Inner {
    /// Reconfigures this side: configuration, admission — the connection
    /// exchanges the grant it holds — then the stack swap. A refusal leaves
    /// this side as it was.
    fn apply_requirements(&self, req: &TransportRequirements) -> Result<(), OrbError> {
        self.connection
            .reconfigure_with_qos(req, &self.config_mgr, self.resource_mgr.as_ref())
            .map_err(OrbError::from)
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.connection.close();
        self.inbox.close();
    }
}

/// What the connection's receive thread calls: frames into the inbox, and
/// on the transport's end — closed here, or by the peer — this side closed.
/// If it was the peer that closed, nobody else will reclaim this side;
/// after a local close this finds everything already gone.
struct InboxSink {
    inbox: Arc<FrameInbox>,
    /// Weak: the connection owns its sink, and `Inner` owns the
    /// connection.
    inner: Weak<Inner>,
}

impl dacapo::Sink for InboxSink {
    fn deliver(&self, frame: Bytes) {
        self.inbox.push(frame);
    }

    fn closed(&self) {
        if let Some(inner) = self.inner.upgrade() {
            inner.close();
        }
    }
}

/// A frame channel over a Da CaPo connection, QoS-reconfigurable.
pub struct DacapoComChannel {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for DacapoComChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DacapoComChannel")
            .field("graph", &self.inner.connection.graph().to_string())
            .finish()
    }
}

impl DacapoComChannel {
    /// Wires two established Da CaPo connections (the two ends of one
    /// transport) into a channel pair with a shared control path.
    ///
    /// When a `resource_mgr` is supplied, every reconfiguration re-runs
    /// admission against it; each connection holds its side's grant, from
    /// establishment if it was established with one, until it closes.
    ///
    /// # Errors
    ///
    /// None today: pairing spawns nothing (the signature predates that).
    pub fn pair(
        client_conn: Connection,
        server_conn: Connection,
        config_mgr: ConfigurationManager,
        resource_mgr: Option<ResourceManager>,
    ) -> Result<(DacapoComChannel, DacapoComChannel), OrbError> {
        DacapoComChannel::pair_with(client_conn, server_conn, config_mgr, resource_mgr, None)
    }

    /// Like [`DacapoComChannel::pair`], with channel-level frame/byte
    /// counters reported into `telemetry` when given (both endpoints feed
    /// the same `kind="dacapo"` series; the module stacks below report
    /// separately via [`dacapo::runtime::RuntimeOptions::telemetry`]).
    ///
    /// # Errors
    ///
    /// None today: pairing spawns nothing (the signature predates that).
    pub fn pair_with(
        client_conn: Connection,
        server_conn: Connection,
        config_mgr: ConfigurationManager,
        resource_mgr: Option<ResourceManager>,
        telemetry: Option<&Registry>,
    ) -> Result<(DacapoComChannel, DacapoComChannel), OrbError> {
        let send_metrics = telemetry.map(|r| SendMetrics::resolve(r, "dacapo"));
        let inbox_metrics = telemetry.map(|r| InboxMetrics::resolve(r, "dacapo"));
        let make_inner = |connection: Connection| {
            // lint: allow(A005, §7.4: the connection's receive thread pushes each payload as it reaches the top of the stack; the sink or `recv_frame` drains per frame)
            let inbox = Arc::new(FrameInbox::new());
            if let Some(m) = &inbox_metrics {
                inbox.set_metrics(m.clone());
            }
            Arc::new(Inner {
                connection,
                config_mgr: config_mgr.clone(),
                resource_mgr: resource_mgr.clone(),
                inbox,
                closed: AtomicBool::new(false),
                peer: OrderedMutex::new(lock_rank::CHAN_PEER, Weak::new()),
                send_metrics: send_metrics.clone(),
            })
        };
        let a = make_inner(client_conn);
        let b = make_inner(server_conn);
        *a.peer.lock() = Arc::downgrade(&b);
        *b.peer.lock() = Arc::downgrade(&a);
        for inner in [&a, &b] {
            inner.connection.set_sink(Arc::new(InboxSink {
                inbox: inner.inbox.clone(),
                inner: Arc::downgrade(inner),
            }));
        }
        Ok((DacapoComChannel { inner: a }, DacapoComChannel { inner: b }))
    }

    /// The module graph currently running below this channel.
    pub fn graph(&self) -> dacapo::ModuleGraph {
        self.inner.connection.graph()
    }
}

impl ComChannel for DacapoComChannel {
    fn send_frame(&self, frame: Bytes) -> Result<(), OrbError> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(OrbError::Closed);
        }
        let len = frame.len();
        self.inner
            .connection
            .endpoint()
            .send(frame)
            .map_err(OrbError::from)?;
        if let Some(m) = &self.inner.send_metrics {
            m.record(len);
        }
        Ok(())
    }

    fn recv_frame(&self, timeout: Duration) -> Result<Bytes, OrbError> {
        self.inner.inbox.recv_timeout(timeout)
    }

    fn set_sink(&self, sink: Arc<dyn FrameSink>) {
        self.inner.inbox.set_sink(sink);
    }

    fn drain(&self, timeout: Duration) -> bool {
        self.inner.connection.drain(timeout)
    }

    fn close(&self) {
        self.inner.close();
    }

    fn kind(&self) -> &'static str {
        "dacapo"
    }

    fn supports_qos(&self) -> bool {
        true
    }

    /// The sink runs on the connection's receive thread (`InboxSink`), and
    /// while it does, no acknowledgement is processed on this connection.
    fn delivery_may_wait(&self) -> bool {
        false
    }

    fn set_qos(&self, requirements: &TransportRequirements) -> Result<(), OrbError> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(OrbError::Closed);
        }
        let peer = self.inner.peer.lock().upgrade().ok_or(OrbError::Closed)?;
        if peer.closed.load(Ordering::Acquire) {
            return Err(OrbError::Closed);
        }
        // Phase 0: quiesce both ends. Each wait ends the instant that
        // side's stack holds no packet and its ARQ window is acknowledged
        // — normally at once; the bound is for a wire that no longer
        // delivers, over which the swap goes ahead regardless and loses
        // what was in flight, as `Connection::reconfigure` documents.
        self.inner.connection.drain(QUIESCE_BOUND);
        peer.connection.drain(QUIESCE_BOUND);
        // Phase 1: the peer swaps first — configuration, admission, stack
        // rebuild — over the management control path. Phase 2: a failure
        // there is the unilateral-negotiation NACK.
        peer.apply_requirements(requirements).map_err(|reason| {
            OrbError::QosNotSupported(QosError::Rejected(format!(
                "peer rejected transport reconfiguration: {reason}"
            )))
        })?;
        // Phase 3: swap our own side.
        self.inner.apply_requirements(requirements)
    }
}

impl Drop for DacapoComChannel {
    fn drop(&mut self) {
        self.inner.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dacapo::config::ConfigContext;
    use dacapo::prelude::*;
    use dacapo::resource::ResourceBudget;

    fn channel_pair_with(
        resource_mgr: Option<ResourceManager>,
    ) -> (DacapoComChannel, DacapoComChannel) {
        let catalog = MechanismCatalog::standard();
        let (ta, tb) = loopback_pair();
        let a = Connection::establish(ModuleGraph::empty(), ta, &catalog).unwrap();
        let b = Connection::establish(ModuleGraph::empty(), tb, &catalog).unwrap();
        DacapoComChannel::pair(a, b, ConfigurationManager::standard(), resource_mgr).unwrap()
    }

    fn channel_pair() -> (DacapoComChannel, DacapoComChannel) {
        channel_pair_with(None)
    }

    #[test]
    fn data_round_trip() {
        let (a, b) = channel_pair();
        a.send_frame(Bytes::from_static(b"giop frame")).unwrap();
        assert_eq!(
            &b.recv_frame(Duration::from_secs(5)).unwrap()[..],
            b"giop frame"
        );
        assert_eq!(a.kind(), "dacapo");
        assert!(a.supports_qos());
        a.close();
        b.close();
    }

    #[test]
    fn set_qos_reconfigures_both_sides() {
        let (a, b) = channel_pair();
        assert!(a.graph().is_empty());
        let req = TransportRequirements {
            error_detection: true,
            encryption: true,
            ..Default::default()
        };
        // The control path is synchronous: no thread needs to be receiving.
        a.set_qos(&req).unwrap();
        assert!(!a.graph().is_empty(), "client side reconfigured");
        assert_eq!(a.graph(), b.graph(), "peers agree on the configuration");

        a.send_frame(Bytes::from_static(b"after-reconfig")).unwrap();
        assert_eq!(
            &b.recv_frame(Duration::from_secs(5)).unwrap()[..],
            b"after-reconfig"
        );
        a.close();
        b.close();
    }

    #[test]
    fn best_effort_set_qos_returns_to_empty_graph() {
        let (a, b) = channel_pair();
        let strong = TransportRequirements {
            encryption: true,
            ..Default::default()
        };
        a.set_qos(&strong).unwrap();
        assert!(!a.graph().is_empty());
        a.set_qos(&TransportRequirements::best_effort()).unwrap();
        assert!(a.graph().is_empty());
        assert!(b.graph().is_empty());
        a.close();
        b.close();
    }

    #[test]
    fn set_qos_fails_without_peer() {
        let (a, b) = channel_pair();
        drop(b);
        let req = TransportRequirements {
            error_detection: true,
            ..Default::default()
        };
        assert!(a.set_qos(&req).is_err());
        a.close();
    }

    #[test]
    fn admission_is_enforced_and_released_on_reconfigure() {
        let mgr = ResourceManager::new(ResourceBudget {
            cpu_units: 1_000,
            memory_bytes: 1 << 30,
            bandwidth_bps: 10_000,
        });
        let (a, b) = channel_pair_with(Some(mgr.clone()));

        // Feasible bandwidth: both sides admit.
        let ok_req = TransportRequirements {
            bandwidth_bps: Some(4_000),
            ..Default::default()
        };
        a.set_qos(&ok_req).unwrap();
        assert_eq!(mgr.used_bandwidth(), 8_000, "both sides hold a grant");

        // Infeasible: the peer rejects, the initiator reports the NACK.
        let bad_req = TransportRequirements {
            bandwidth_bps: Some(9_000),
            ..Default::default()
        };
        match a.set_qos(&bad_req) {
            Err(OrbError::QosNotSupported(_)) => {}
            other => panic!("expected admission rejection, got {other:?}"),
        }

        a.close();
        b.close();
        assert_eq!(mgr.used_bandwidth(), 0, "grants released on close");
    }

    #[test]
    fn each_side_holds_one_grant_from_establishment_through_renegotiation_to_close() {
        // As `LocalExchange::connect_dacapo` builds the pair: both
        // connections established with QoS against the manager the channel
        // then renegotiates against.
        let mgr = ResourceManager::default();
        let config_mgr = ConfigurationManager::standard();
        // Above 1 Mbit/s the requirements also ask for error detection, so
        // that the renegotiation swaps the graph as well as the grant.
        let mbit = |n: u64| TransportRequirements {
            error_detection: n > 1,
            bandwidth_bps: Some(n * 1_000_000),
            ..Default::default()
        };
        let ctx = ConfigContext::default();
        let (ta, tb) = loopback_pair();
        let a = Connection::establish_with_qos(&mbit(1), &ctx, ta, &config_mgr, &mgr).unwrap();
        let b = Connection::establish_with_qos(&mbit(1), &ctx, tb, &config_mgr, &mgr).unwrap();
        let (a, b) = DacapoComChannel::pair(a, b, config_mgr, Some(mgr.clone())).unwrap();
        assert_eq!(mgr.used_bandwidth(), 2_000_000);

        a.set_qos(&mbit(2)).unwrap();
        assert_eq!(mgr.used_bandwidth(), 4_000_000, "2 Mbit/s in place of 1, per side");
        let graph = a.graph();
        assert!(!graph.is_empty());

        // Refused by the peer's admission: books and graphs stay put.
        let too_much = TransportRequirements {
            bandwidth_bps: Some(u64::MAX / 4),
            ..Default::default()
        };
        match a.set_qos(&too_much) {
            Err(OrbError::QosNotSupported(_)) => {}
            other => panic!("expected admission rejection, got {other:?}"),
        }
        assert_eq!(mgr.used_bandwidth(), 4_000_000);
        assert_eq!((a.graph(), b.graph()), (graph.clone(), graph));

        a.close();
        b.close();
        assert_eq!(mgr.used_bandwidth(), 0);
    }

    #[test]
    fn graph_changing_set_qos_with_an_idle_peer_takes_no_timer() {
        // Both sides swap stacks per call while both receive threads sit
        // parked in the transport; nothing on that path waits out a timer
        // (it took one 25 ms grace per side when the pumps died with the
        // stacks).
        let (a, b) = channel_pair();
        let checked = TransportRequirements {
            error_detection: true,
            ..Default::default()
        };
        let encrypted = TransportRequirements {
            encryption: true,
            ..Default::default()
        };
        let mut times: Vec<Duration> = (0..20)
            .map(|i| {
                let req = if i % 2 == 0 { &checked } else { &encrypted };
                let before = a.graph();
                let start = std::time::Instant::now();
                a.set_qos(req).unwrap();
                let took = start.elapsed();
                assert_ne!(a.graph(), before, "every call changes the graph");
                took
            })
            .collect();
        times.sort();
        assert!(
            times[10] < Duration::from_millis(5),
            "set_qos median {:?}",
            times[10]
        );
        a.close();
        b.close();
    }

    #[test]
    fn peer_close_reclaims_this_side() {
        struct Closes(std::sync::mpsc::Sender<()>);
        impl FrameSink for Closes {
            fn on_frame(&self, _frame: Bytes) {}
            fn on_close(&self) {
                let _ = self.0.send(());
            }
        }

        let mgr = ResourceManager::new(ResourceBudget {
            cpu_units: 1_000,
            memory_bytes: 1 << 30,
            bandwidth_bps: 10_000,
        });
        let (a, b) = channel_pair_with(Some(mgr.clone()));
        a.set_qos(&TransportRequirements {
            bandwidth_bps: Some(4_000),
            ..Default::default()
        })
        .unwrap();
        assert_eq!(mgr.used_bandwidth(), 8_000, "both sides hold a grant");
        let (closed_tx, closed_rx) = std::sync::mpsc::channel();
        b.set_sink(Arc::new(Closes(closed_tx)));

        // Only the client side closes; the server side is never touched.
        a.close();
        closed_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the peer's close never reached this side's sink");
        assert_eq!(mgr.used_bandwidth(), 0, "this side's grant went with it");
        assert!(matches!(
            b.send_frame(Bytes::from_static(b"late")),
            Err(OrbError::Closed)
        ));
    }

    #[test]
    fn frames_arrive_across_a_reconfiguration() {
        let (a, b) = channel_pair();
        a.send_frame(Bytes::from_static(b"before")).unwrap();
        assert_eq!(&b.recv_frame(Duration::from_secs(5)).unwrap()[..], b"before");
        a.set_qos(&TransportRequirements {
            error_detection: true,
            ..Default::default()
        })
        .unwrap();
        a.send_frame(Bytes::from_static(b"after")).unwrap();
        assert_eq!(&b.recv_frame(Duration::from_secs(5)).unwrap()[..], b"after");
        a.close();
        b.close();
    }
}
