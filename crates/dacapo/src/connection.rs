//! Connection management: assembling, running, reconfiguring and tearing
//! down per-connection module stacks.

use crate::alayer::AppEndpoint;
use crate::catalog::{MechanismCatalog, ModuleParams};
use crate::config::{ConfigContext, Configuration, ConfigurationManager};
use crate::error::DacapoError;
use crate::graph::ModuleGraph;
use crate::module::Module;
use crate::pool::ReadDemand;
use crate::resource::{ResourceGrant, ResourceManager};
use crate::runtime::{build_stack, RuntimeOptions, RxPump, Sink, StackHandle};
use crate::tlayer::Transport;
use cool_telemetry::flight::event as flight_event;
use cool_telemetry::lockorder::{rank, Locked, OrderedMutex, Unlocked};
use multe_qos::TransportRequirements;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One side of a Da CaPo connection: a module stack over a transport.
///
/// Both peers must run the *same* module graph; in COOL this is guaranteed
/// because both derive their configuration deterministically from the
/// QoS parameters agreed during bilateral negotiation.
///
/// The connection owns the transport and, with it, its receive side (the
/// [`RxPump`]): a turn, held by whichever thread reads the transport and
/// runs what comes off it up the modules and into the application — a
/// thread waiting for a reply ([`Connection::read_turn`]), or the
/// connection's loop on a pooled thread, which reads while it is wanted.
/// (An end whose modules answer what they receive — acknowledgements —
/// gets a writer job as well, which writes those: the turn holder must
/// never wait for the wire.) Module stacks come and go above the receive
/// side as the connection is reconfigured — a stack has no thread of its
/// own, so a swap spawns and joins nothing. Nothing on the reconfiguration
/// or teardown path waits out a timer: a reader is woken by
/// [`Transport::close`].
///
/// What a renegotiation changes — the running stack, its graph and
/// parameters, the resource grant — changes as one record, under one lock
/// (`connection.state`), which is never held across a wait, a join or
/// transport I/O. Besides it there is only the receive side's slot
/// (`connection.uplink`), which the turn holder holds while it runs a frame
/// up the modules: a sender never waits behind it.
pub struct Connection {
    running: OrderedMutex<Running, rank::ConnectionState>,
    pump: RxPump,
    /// What the connection was established with beyond its requirements
    /// (the transport's MTU above all): every renegotiation configures
    /// under it again.
    ctx: ConfigContext,
    transport: Arc<dyn Transport>,
    catalog: MechanismCatalog,
    opts: RuntimeOptions,
    /// Closed by [`Connection::close`], or by the peer (a turn holder read
    /// the transport's end); shared with the receive side.
    closed: Arc<AtomicBool>,
}

/// What a reconfiguration replaces, together.
struct Running {
    /// The current module stack. Stopped by [`Connection::close`] but kept:
    /// its endpoint is the connection's, which then reports `Closed`.
    stack: StackHandle,
    graph: ModuleGraph,
    params: ModuleParams,
    /// This side's one resource grant, from establishment to close.
    grant: Option<ResourceGrant>,
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field(
                "graph",
                &self.running.lock(Locked::root()).0.graph.to_string(),
            )
            .field("transport", &self.transport.name())
            .finish()
    }
}

impl Connection {
    /// Establishes a connection running `graph` over `transport`.
    ///
    /// # Errors
    ///
    /// [`DacapoError::InvalidGraph`] if the graph fails validation.
    pub fn establish(
        graph: ModuleGraph,
        transport: impl Transport,
        catalog: &MechanismCatalog,
    ) -> Result<Self, DacapoError> {
        Connection::establish_with(
            graph,
            ModuleParams::default(),
            ConfigContext::for_mtu(transport.mtu()),
            transport,
            catalog,
            None,
            RuntimeOptions::default(),
        )
    }

    /// Establishes a connection from QoS-derived transport requirements:
    /// configuration (mapping requirements to a module graph) followed by
    /// unilateral resource admission.
    ///
    /// # Errors
    ///
    /// [`DacapoError::NoFeasibleConfiguration`] if no mechanism combination
    /// fits; [`DacapoError::ResourceDenied`] if admission fails — both are
    /// reported to the calling client as exceptions by the ORB.
    pub fn establish_with_qos(
        requirements: &TransportRequirements,
        ctx: &ConfigContext,
        transport: impl Transport,
        config_mgr: &ConfigurationManager,
        resource_mgr: &ResourceManager,
    ) -> Result<Self, DacapoError> {
        Connection::establish_with_qos_opts(
            requirements,
            ctx,
            transport,
            config_mgr,
            resource_mgr,
            RuntimeOptions::default(),
        )
    }

    /// Like [`Connection::establish_with_qos`], but with explicit runtime
    /// options — in particular a telemetry registry the stack and the
    /// receive side report into. The options survive
    /// [`Connection::reconfigure`], so a reconfigured stack keeps feeding
    /// the same registry.
    pub fn establish_with_qos_opts(
        requirements: &TransportRequirements,
        ctx: &ConfigContext,
        transport: impl Transport,
        config_mgr: &ConfigurationManager,
        resource_mgr: &ResourceManager,
        opts: RuntimeOptions,
    ) -> Result<Self, DacapoError> {
        let Configuration { graph, params } = config_mgr.configure(requirements, ctx)?;
        let grant = resource_mgr.admit(&graph, config_mgr.catalog(), requirements)?;
        Connection::establish_with(
            graph,
            params,
            ctx.clone(),
            transport,
            config_mgr.catalog(),
            Some(grant),
            opts,
        )
    }

    fn establish_with(
        graph: ModuleGraph,
        params: ModuleParams,
        ctx: ConfigContext,
        transport: impl Transport,
        catalog: &MechanismCatalog,
        grant: Option<ResourceGrant>,
        opts: RuntimeOptions,
    ) -> Result<Self, DacapoError> {
        graph.validate(catalog)?;
        let transport: Arc<dyn Transport> = Arc::new(transport);
        let modules = instantiate(&graph, &params, catalog)?;
        let stack = build_stack(modules, transport.clone(), &opts);
        let closed = Arc::new(AtomicBool::new(false));
        let pump = {
            let closed = closed.clone();
            let telemetry = opts.telemetry.clone();
            RxPump::spawn(
                transport.clone(),
                &stack,
                opts.telemetry.as_deref(),
                move || {
                    // The flag goes up before the close sentinel does:
                    // whoever sees the endpoint end already reads the
                    // connection as closed.
                    let by_peer = !closed.swap(true, Ordering::AcqRel);
                    if let (true, Some(r)) = (by_peer, &telemetry) {
                        r.flight_event(
                            flight_event::TRANSPORT_DEAD,
                            None,
                            "dacapo rx pump: transport closed by the peer or failed".to_owned(),
                        );
                    }
                },
            )?
        };
        Ok(Connection {
            running: OrderedMutex::new(Running {
                stack,
                graph,
                params,
                grant,
            }),
            pump,
            ctx,
            transport,
            catalog: catalog.clone(),
            opts,
            closed,
        })
    }

    /// The application endpoint (clone it freely; clones share the
    /// connection).
    pub fn endpoint(&self) -> AppEndpoint {
        self.running.lock(Locked::root()).0.stack.endpoint().clone()
    }

    /// Has the holder of the receive turn call `sink` with everything that reaches the
    /// top of the stack from now on, instead of queueing it for
    /// [`AppEndpoint::recv`]. The sink is the connection's, not a stack's:
    /// it stays through every reconfiguration, where an endpoint ends with
    /// its stack. What the current endpoint's
    /// queue already holds is delivered first, in order, on the calling
    /// thread.
    pub fn set_sink(&self, sink: Arc<dyn Sink>) {
        self.pump.set_sink(sink);
    }

    /// Lets a thread waiting for a reply read the connection itself
    /// (leader/followers), running due protocol ticks: see
    /// [`Turn::read_turn`](crate::pool::Turn::read_turn).
    pub fn read_turn(
        &self,
        held: &mut Locked<Unlocked>,
        deadline: Instant,
        done: &dyn Fn(&mut Locked<Unlocked>) -> bool,
    ) -> bool {
        self.pump.turn.read_turn(held, deadline, done)
    }

    /// Hands the receive loop's demand to whoever waits for replies: see
    /// [`Turn::hand_over`](crate::pool::Turn::hand_over).
    pub fn hand_over_demand(&self) -> Arc<ReadDemand> {
        self.pump.turn.hand_over()
    }

    /// The module graph currently running.
    pub fn graph(&self) -> ModuleGraph {
        self.running.lock(Locked::root()).0.graph.clone()
    }

    /// The transport below the stack.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// Replaces the running module graph while keeping the transport —
    /// the dynamic *re*configuration that RT-CORBA cannot do after binding
    /// time (Section 3) and Da CaPo can.
    ///
    /// Packets inside the old stack's module queues are dropped (callers
    /// quiesce first; the ORB re-negotiates QoS before reconfiguring, so
    /// the request/reply protocol above tolerates the gap). Frames the peer
    /// puts on the wire during the swap are not: the turn holder keeps
    /// them for the new stack. The swap itself is a record exchange under
    /// the connection's lock and the receive side's slot — no thread is
    /// spawned or joined, and nothing can fail once the graph has
    /// validated.
    ///
    /// # Errors
    ///
    /// [`DacapoError::InvalidGraph`] if the new graph fails validation; the
    /// old stack keeps running in that case. [`DacapoError::Closed`] after
    /// close or peer close.
    pub fn reconfigure(&self, new_graph: ModuleGraph) -> Result<(), DacapoError> {
        let (mut running, held) = self.running.lock(Locked::root());
        self.swap(held, &mut running, new_graph, None)
    }

    /// The stack swap behind both reconfigurations, under `connection.state`:
    /// to `new_graph`, its modules instantiated with `new_params` if given
    /// — which become the connection's — and with the ones it has
    /// otherwise.
    fn swap(
        &self,
        held: &mut Locked<rank::ConnectionState>,
        running: &mut Running,
        new_graph: ModuleGraph,
        new_params: Option<ModuleParams>,
    ) -> Result<(), DacapoError> {
        new_graph.validate(&self.catalog)?;
        let params = match new_params {
            // The same modules with other parameters (an ARQ window, an
            // MTU) are another configuration: rebuild them.
            Some(fresh) if fresh != running.params => fresh,
            _ if new_graph == running.graph => return Ok(()), // fast path: already running this configuration
            _ => running.params.clone(),
        };
        if self.is_closed() {
            return Err(DacapoError::Closed);
        }
        let modules = instantiate(&new_graph, &params, &self.catalog)?;
        let new = build_stack(modules, self.transport.clone(), &self.opts);
        // The turn holder parks on this guard with any frame it reads
        // meanwhile, and is out of the old stack once we hold it.
        let (uplink, held) = self.pump.swap(held, &new);
        running.graph = new_graph;
        running.params = params;
        // Stopped here, under the guard: the old endpoint's queue ends
        // behind everything the turn holder delivered into it.
        std::mem::replace(&mut running.stack, new).stack.stop(held);
        drop(uplink);
        Ok(())
    }

    /// Reconfigures from QoS-derived transport requirements, as
    /// [`Connection::establish_with_qos`] establishes and under the context
    /// it established with: configuration, then unilateral admission, then
    /// the stack swap with the new configuration's module parameters. The
    /// connection's grant is exchanged for one covering the new
    /// configuration ([`ResourceManager::exchange`]); the connection is the
    /// only holder of its side's resources, from establishment to close.
    /// The exchange and the swap happen under one guard.
    ///
    /// # Errors
    ///
    /// [`DacapoError::NoFeasibleConfiguration`] or
    /// [`DacapoError::ResourceDenied`], with the previous grant, graph and
    /// parameters left in place; otherwise as [`Connection::reconfigure`].
    pub fn reconfigure_with_qos(
        &self,
        requirements: &TransportRequirements,
        config_mgr: &ConfigurationManager,
        resource_mgr: Option<&ResourceManager>,
    ) -> Result<(), DacapoError> {
        let Configuration { graph, params } = config_mgr.configure(requirements, &self.ctx)?;
        let (mut running, held) = self.running.lock(Locked::root());
        if let Some(mgr) = resource_mgr {
            // `close` raises the flag before it takes the grant: a grant
            // booked past this check is still there for it to release.
            if self.is_closed() {
                return Err(DacapoError::Closed);
            }
            mgr.exchange(&mut running.grant, &graph, &self.catalog, requirements)?;
        }
        self.swap(held, &mut running, graph, Some(params))
    }

    /// Waits up to `timeout` for the running stack to quiesce (all queues
    /// empty, no ARQ window outstanding); returns whether it did. A close
    /// after a successful drain loses no in-flight data. The wait holds no
    /// lock, and ends early when the stack is swapped out or closed.
    pub fn drain(&self, timeout: std::time::Duration) -> bool {
        let held = Locked::root();
        let stack = self.running.lock(held).0.stack.stack.clone();
        stack.drain(held, timeout)
    }

    /// Whether the connection is closed: by [`Connection::close`], or by
    /// the peer (what the peer sent before closing can still be received
    /// from [`Connection::endpoint`], which then reports `Closed`).
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Tears the connection down: closes the transport — which ends the
    /// readers' waits on both sides, so the peer learns of it without being
    /// told — and stops the stack. Nothing is joined (this may be the turn
    /// holder itself, closing from a [`Sink`] callback): the receive loop
    /// is on its way out when this returns. Idempotent.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        // Before the lock: the transport's close is I/O, and a swap
        // holding the lock ends sooner for it.
        self.pump.shutdown();
        let (mut running, held) = self.running.lock(Locked::root());
        running.stack.stack.stop(held);
        running.grant.take();
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        self.close();
    }
}

fn instantiate(
    graph: &ModuleGraph,
    params: &ModuleParams,
    catalog: &MechanismCatalog,
) -> Result<Vec<Box<dyn Module>>, DacapoError> {
    graph
        .mechanisms()
        .iter()
        .map(|id| {
            catalog
                .get(id)
                .map(|e| e.instantiate(params))
                .ok_or_else(|| DacapoError::InvalidGraph(format!("unknown mechanism {id}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tlayer::loopback_pair;
    use bytes::Bytes;
    use std::time::Duration;

    fn pair(graph: &ModuleGraph) -> (Connection, Connection) {
        let catalog = MechanismCatalog::standard();
        let (ta, tb) = loopback_pair();
        let a = Connection::establish(graph.clone(), ta, &catalog).unwrap();
        let b = Connection::establish(graph.clone(), tb, &catalog).unwrap();
        (a, b)
    }

    #[test]
    fn empty_graph_connection() {
        let (a, b) = pair(&ModuleGraph::empty());
        a.endpoint().send(Bytes::from_static(b"x")).unwrap();
        assert_eq!(
            &b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"x"
        );
        a.close();
        b.close();
    }

    #[test]
    fn qos_driven_connection() {
        let catalog = MechanismCatalog::standard();
        let config_mgr = ConfigurationManager::new(catalog);
        let resource_mgr = ResourceManager::default();
        let req = TransportRequirements {
            error_detection: true,
            retransmission: true,
            sequencing: true,
            encryption: true,
            bandwidth_bps: Some(1_000_000),
            ..Default::default()
        };
        let (ta, tb) = loopback_pair();
        let ctx = ConfigContext::default();
        let a = Connection::establish_with_qos(&req, &ctx, ta, &config_mgr, &resource_mgr).unwrap();
        let b = Connection::establish_with_qos(&req, &ctx, tb, &config_mgr, &resource_mgr).unwrap();
        assert_eq!(a.graph(), b.graph(), "deterministic configuration");
        assert!(resource_mgr.used_bandwidth() >= 2_000_000);
        for i in 0..5u8 {
            a.endpoint().send(Bytes::from(vec![i; 32])).unwrap();
        }
        for i in 0..5u8 {
            assert_eq!(
                b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[0],
                i
            );
        }
        a.close();
        b.close();
        assert_eq!(resource_mgr.used_bandwidth(), 0, "grants released on close");
    }

    #[test]
    fn admission_failure_reported() {
        let catalog = MechanismCatalog::standard();
        let config_mgr = ConfigurationManager::new(catalog);
        let resource_mgr = ResourceManager::new(crate::resource::ResourceBudget {
            cpu_units: 1000,
            memory_bytes: 1 << 30,
            bandwidth_bps: 10,
        });
        let req = TransportRequirements {
            bandwidth_bps: Some(100),
            ..Default::default()
        };
        let (ta, _tb) = loopback_pair();
        let err = Connection::establish_with_qos(
            &req,
            &ConfigContext::default(),
            ta,
            &config_mgr,
            &resource_mgr,
        )
        .unwrap_err();
        assert!(matches!(err, DacapoError::ResourceDenied { .. }));
    }

    /// One end of a loopback pair, established for a reliable 4 kbit/s
    /// flow against a 10 kbit/s budget.
    fn reliable_4k() -> (
        Connection,
        ConfigurationManager,
        ResourceManager,
        TransportRequirements,
    ) {
        let config_mgr = ConfigurationManager::standard();
        let resource_mgr = ResourceManager::new(crate::resource::ResourceBudget {
            cpu_units: 1000,
            memory_bytes: 1 << 30,
            bandwidth_bps: 10_000,
        });
        let req = TransportRequirements {
            error_detection: true,
            retransmission: true,
            sequencing: true,
            bandwidth_bps: Some(4_000),
            ..Default::default()
        };
        let (ta, _tb) = loopback_pair();
        let ctx = ConfigContext::default();
        let conn = Connection::establish_with_qos(&req, &ctx, ta, &config_mgr, &resource_mgr);
        (conn.unwrap(), config_mgr, resource_mgr, req)
    }

    #[test]
    fn renegotiation_installs_the_new_configurations_module_parameters() {
        let (conn, config_mgr, resource_mgr, throughput) = reliable_4k();
        assert_eq!(conn.running.lock(Locked::root()).0.params.window, 32);
        let graph = conn.graph();
        let before = conn.running.lock(Locked::root()).0.stack.stack.clone();

        // The same functions under a 500 us latency budget: the same
        // modules, with the short ARQ window such a budget asks for.
        let latency_critical = TransportRequirements {
            latency_budget_us: Some(500),
            ..throughput
        };
        conn.reconfigure_with_qos(&latency_critical, &config_mgr, Some(&resource_mgr))
            .unwrap();
        assert_eq!(conn.running.lock(Locked::root()).0.params.window, 4);
        assert_eq!(conn.graph(), graph);
        let after = conn.running.lock(Locked::root()).0.stack.stack.clone();
        assert!(
            !Arc::ptr_eq(&before, &after),
            "the modules were rebuilt with it"
        );
        conn.close();
    }

    #[test]
    fn refused_renegotiation_leaves_graph_and_parameters_as_they_were() {
        let (conn, config_mgr, resource_mgr, _) = reliable_4k();
        let graph = conn.graph();
        let greedy = TransportRequirements {
            bandwidth_bps: Some(u64::MAX / 4),
            latency_budget_us: Some(500),
            ..Default::default()
        };
        let err = conn
            .reconfigure_with_qos(&greedy, &config_mgr, Some(&resource_mgr))
            .unwrap_err();
        assert!(matches!(err, DacapoError::ResourceDenied { .. }), "{err:?}");
        assert_eq!(conn.running.lock(Locked::root()).0.params.window, 32);
        assert_eq!(conn.graph(), graph);
        assert_eq!(resource_mgr.used_bandwidth(), 4_000, "and the grant");
        conn.close();
    }

    #[test]
    fn invalid_graph_rejected_at_establish() {
        let catalog = MechanismCatalog::standard();
        let (ta, _tb) = loopback_pair();
        let err = Connection::establish(ModuleGraph::from_ids(["nope"]), ta, &catalog).unwrap_err();
        assert!(matches!(err, DacapoError::InvalidGraph(_)));
    }

    #[test]
    fn reconfigure_swaps_graph_on_live_transport() {
        let (a, b) = pair(&ModuleGraph::empty());
        a.endpoint().send(Bytes::from_static(b"before")).unwrap();
        assert_eq!(
            &b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"before"
        );

        // Both sides switch to a CRC-protected configuration.
        let new_graph = ModuleGraph::from_ids(["crc32"]);
        a.reconfigure(new_graph.clone()).unwrap();
        b.reconfigure(new_graph.clone()).unwrap();
        assert_eq!(a.graph(), new_graph);

        a.endpoint().send(Bytes::from_static(b"after")).unwrap();
        assert_eq!(
            &b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"after"
        );
        a.close();
        b.close();
    }

    #[test]
    fn reconfigure_to_invalid_graph_keeps_old_stack() {
        let (a, b) = pair(&ModuleGraph::empty());
        assert!(a.reconfigure(ModuleGraph::from_ids(["bogus"])).is_err());
        a.endpoint()
            .send(Bytes::from_static(b"still works"))
            .unwrap();
        assert_eq!(
            &b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"still works"
        );
        a.close();
        b.close();
    }

    #[test]
    fn a_sink_installed_late_gets_what_was_queued_first_then_the_rest_across_a_swap() {
        struct Collect(std::sync::mpsc::Sender<Option<u8>>);
        impl Sink for Collect {
            fn deliver(&self, payload: Bytes) {
                let _ = self.0.send(Some(payload[0]));
            }
            fn closed(&self) {
                let _ = self.0.send(None);
            }
        }
        let (a, b) = pair(&ModuleGraph::from_ids(["seq"]));
        for i in 0..10u8 {
            a.endpoint().send(Bytes::from(vec![i])).unwrap();
        }
        // All ten are in `b`'s endpoint queue, none received.
        assert!(a.drain(Duration::from_secs(5)));
        while b.endpoint().queued() < 10 {
            std::thread::yield_now();
        }
        let (seen_tx, seen_rx) = std::sync::mpsc::channel();
        b.set_sink(Arc::new(Collect(seen_tx)));
        for i in 10..20u8 {
            a.endpoint().send(Bytes::from(vec![i])).unwrap();
        }
        let expect = |range: std::ops::Range<u8>| {
            for i in range {
                assert_eq!(
                    seen_rx.recv_timeout(Duration::from_secs(5)).unwrap(),
                    Some(i)
                );
            }
        };
        expect(0..20);
        // The sink is the connection's: it outlives the stack it was
        // installed over.
        let checked = ModuleGraph::from_ids(["seq", "crc32"]);
        a.reconfigure(checked.clone()).unwrap();
        b.reconfigure(checked).unwrap();
        for i in 20..30u8 {
            a.endpoint().send(Bytes::from(vec![i])).unwrap();
        }
        a.close();
        expect(20..30);
        assert_eq!(seen_rx.recv_timeout(Duration::from_secs(5)).unwrap(), None);
        assert!(b.is_closed());
        b.close();
    }

    #[test]
    fn close_does_not_wait_out_a_drain_on_another_thread() {
        // The far end is never established: nothing acknowledges, so the
        // window stays outstanding and the drain has nothing to wait for
        // but its timeout — or the close.
        let catalog = MechanismCatalog::standard();
        let (ta, _tb) = loopback_pair();
        let graph = ModuleGraph::from_ids(["go-back-n"]);
        let conn = Arc::new(Connection::establish(graph, ta, &catalog).unwrap());
        conn.endpoint()
            .send(Bytes::from_static(b"never acknowledged"))
            .unwrap();
        let drainer = {
            let conn = conn.clone();
            std::thread::spawn(move || {
                let started = std::time::Instant::now();
                (conn.drain(Duration::from_secs(10)), started.elapsed())
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        let started = std::time::Instant::now();
        conn.close();
        let closing = started.elapsed();
        assert!(closing < Duration::from_secs(1), "close waited {closing:?}");
        let (drained, draining) = drainer.join().unwrap();
        assert!(!drained, "the window was still outstanding");
        assert!(
            draining < Duration::from_secs(2),
            "the drain outlived the close: {draining:?}"
        );
    }

    /// A loopback transport whose timed receives wait 5 s whatever they
    /// are asked for: only a wake ends one early.
    struct SlowTicks(crate::tlayer::LoopbackTransport);

    impl Transport for SlowTicks {
        fn send(&self, frame: Bytes) -> Result<(), DacapoError> {
            self.0.send(frame)
        }
        fn recv(&self) -> Result<Bytes, DacapoError> {
            self.0.recv()
        }
        fn recv_timeout(&self, _timeout: Duration) -> Result<Bytes, DacapoError> {
            self.0.recv_timeout(Duration::from_secs(5))
        }
        fn close(&self) {
            self.0.close()
        }
        fn wake_receiver(&self) {
            self.0.wake_receiver()
        }
        fn notify_arrival(&self, waker: Option<crate::tlayer::Waker>) -> bool {
            self.0.notify_arrival(waker)
        }
        fn name(&self) -> &str {
            "slow-ticks"
        }
    }

    #[test]
    fn a_hand_over_frees_the_turn_of_a_loop_blocked_in_a_receive_at_once() {
        let catalog = MechanismCatalog::standard();
        let (ta, tb) = loopback_pair();
        let a = Connection::establish(ModuleGraph::empty(), ta, &catalog).unwrap();
        let b = Connection::establish(ModuleGraph::empty(), SlowTicks(tb), &catalog).unwrap();
        // A frame has come: `b`'s loop, not handed over, has delivered it
        // and waits in a receive for the next one.
        let (delivered, took) = std::sync::mpsc::channel();
        b.set_sink(Arc::new(Tell(std::sync::Mutex::new(delivered))));
        a.endpoint().send(Bytes::from_static(b"x")).unwrap();
        took.recv_timeout(Duration::from_secs(5)).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let handed_over = std::time::Instant::now();
        b.hand_over_demand();
        let held = Locked::root();
        while !b.read_turn(held, std::time::Instant::now(), &|_| true) {
            std::thread::yield_now();
        }
        assert!(
            handed_over.elapsed() < Duration::from_secs(2),
            "the loop held the turn for {:?} after the hand-over",
            handed_over.elapsed()
        );
        a.close();
        b.close();
    }

    /// A sink that tells of each delivery.
    struct Tell(std::sync::Mutex<std::sync::mpsc::Sender<()>>);

    impl Sink for Tell {
        fn deliver(&self, _payload: Bytes) {
            let _ = self.0.lock().unwrap().send(());
        }
        fn closed(&self) {}
    }

    #[test]
    fn close_is_idempotent_and_send_fails_after() {
        let (a, b) = pair(&ModuleGraph::empty());
        a.close();
        a.close();
        assert!(a.endpoint().send(Bytes::new()).is_err());
        b.close();
    }
}
