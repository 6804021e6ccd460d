//! Connection management: assembling, running, reconfiguring and tearing
//! down per-connection module stacks.

use crate::alayer::AppEndpoint;
use crate::catalog::{MechanismCatalog, ModuleParams};
use crate::config::{ConfigContext, Configuration, ConfigurationManager};
use crate::error::DacapoError;
use crate::graph::ModuleGraph;
use crate::module::Module;
use crate::resource::{ResourceGrant, ResourceManager};
use crate::runtime::{build_stack, RuntimeOptions, RxPump, Sink, StackHandle};
use crate::tlayer::Transport;
use multe_qos::TransportRequirements;
use cool_telemetry::flight::event as flight_event;
use cool_telemetry::lockorder::OrderedMutex;
use cool_telemetry::lockorder::rank as lock_rank;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One side of a Da CaPo connection: a module stack over a transport.
///
/// Both peers must run the *same* module graph; in COOL this is guaranteed
/// because both derive their configuration deterministically from the
/// QoS parameters agreed during bilateral negotiation.
///
/// The connection owns the transport and, with it, its thread: the one
/// that receives from the transport (the [`RxPump`]) and runs whatever
/// comes off it up the modules and into the application. (An end whose
/// modules answer what they receive — acknowledgements — gets a second,
/// which writes those: the receive thread must never wait for the wire.)
/// Module stacks come and go above that thread as the connection is
/// reconfigured — a stack has no thread of its own, so a swap spawns and
/// joins nothing. Nothing on the reconfiguration or teardown path waits out
/// a timer: the receive thread is woken by [`Transport::close`].
pub struct Connection {
    /// The current module stack; `None` once closed.
    stack: OrderedMutex<Option<StackHandle>>,
    pump: RxPump,
    endpoint: OrderedMutex<AppEndpoint>,
    graph: OrderedMutex<ModuleGraph>,
    params: OrderedMutex<ModuleParams>,
    /// What the connection was established with beyond its requirements
    /// (the transport's MTU above all): every renegotiation configures
    /// under it again.
    ctx: ConfigContext,
    transport: Arc<dyn Transport>,
    catalog: MechanismCatalog,
    opts: RuntimeOptions,
    grant: OrderedMutex<Option<ResourceGrant>>,
    life: Arc<Lifecycle>,
}

/// Lifecycle state shared with the receive thread.
#[derive(Default)]
struct Lifecycle {
    /// Closed by [`Connection::close`], or by the peer (the receive thread
    /// read the transport's end).
    closed: AtomicBool,
    /// Bumped (and broadcast) whenever the stack under
    /// [`Connection::endpoint`] changes or ends: reconfiguration swaps,
    /// close, peer close. Receive loops blocked in a dead endpoint wait on
    /// this instead of sleep-polling for the new stack.
    epoch: Mutex<u64>,
    epoch_cv: Condvar,
}

impl Lifecycle {
    fn bump_epoch(&self) {
        let mut epoch = self.epoch.lock();
        *epoch += 1;
        self.epoch_cv.notify_all();
    }
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("graph", &self.graph.lock().to_string())
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
    /// receive thread report into. The options survive
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
        let endpoint = stack.endpoint().clone();
        let life = Arc::new(Lifecycle::default());
        let pump = {
            let life = life.clone();
            let telemetry = opts.telemetry.clone();
            RxPump::spawn(
                transport.clone(),
                &stack,
                opts.telemetry.as_deref(),
                move || {
                    // The flag goes up before the close sentinel does:
                    // whoever sees the endpoint end already reads the
                    // connection as closed.
                    let by_peer = !life.closed.swap(true, Ordering::AcqRel);
                    if let (true, Some(r)) = (by_peer, &telemetry) {
                        r.flight_event(
                            flight_event::TRANSPORT_DEAD,
                            None,
                            "dacapo rx pump: transport closed by the peer or failed".to_owned(),
                        );
                    }
                    life.bump_epoch();
                },
            )?
        };
        Ok(Connection {
            stack: OrderedMutex::new(lock_rank::CONNECTION_STACK, Some(stack)),
            pump,
            endpoint: OrderedMutex::new(lock_rank::CONNECTION_ENDPOINT, endpoint),
            graph: OrderedMutex::new(lock_rank::CONNECTION_GRAPH, graph),
            params: OrderedMutex::new(lock_rank::CONNECTION_PARAMS, params),
            ctx,
            transport,
            catalog: catalog.clone(),
            opts,
            grant: OrderedMutex::new(lock_rank::CONNECTION_GRANT, grant),
            life,
        })
    }

    /// The current stack epoch. Take it *before* grabbing
    /// [`Connection::endpoint`]; if that endpoint then dies,
    /// [`Connection::wait_epoch_change`] with this value blocks only while
    /// the stack swap is still in flight.
    pub fn epoch(&self) -> u64 {
        *self.life.epoch.lock()
    }

    /// Blocks until the stack epoch differs from `seen`; returns the epoch
    /// observed on wakeup. No timeout: reconfiguration, close and peer
    /// close all broadcast.
    pub fn wait_epoch_change(&self, seen: u64) -> u64 {
        let mut epoch = self.life.epoch.lock();
        while *epoch == seen {
            self.life.epoch_cv.wait(&mut epoch);
        }
        *epoch
    }

    /// The application endpoint (clone it freely; clones share the
    /// connection).
    pub fn endpoint(&self) -> AppEndpoint {
        self.endpoint.lock().clone()
    }

    /// Has the receive thread call `sink` with everything that reaches the
    /// top of the stack from now on, instead of queueing it for
    /// [`AppEndpoint::recv`]. The sink is the connection's, not a stack's:
    /// it stays through every reconfiguration, so a push-mode consumer
    /// needs no [`Connection::epoch`] loop. What the current endpoint's
    /// queue already holds is delivered first, in order, on the calling
    /// thread.
    pub fn set_sink(&self, sink: Arc<dyn Sink>) {
        self.pump.set_sink(sink);
    }

    /// The module graph currently running.
    pub fn graph(&self) -> ModuleGraph {
        self.graph.lock().clone()
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
    /// puts on the wire during the swap are not: the receive thread holds
    /// them for the new stack. The swap itself is a struct exchange under
    /// two locks — no thread is spawned or joined, and nothing can fail
    /// once the graph has validated.
    ///
    /// # Errors
    ///
    /// [`DacapoError::InvalidGraph`] if the new graph fails validation; the
    /// old stack keeps running in that case. [`DacapoError::Closed`] after
    /// close or peer close.
    pub fn reconfigure(&self, new_graph: ModuleGraph) -> Result<(), DacapoError> {
        self.swap(new_graph, None)
    }

    /// The stack swap behind both reconfigurations: to `new_graph`, its
    /// modules instantiated with `new_params` if given — which become the
    /// connection's — and with the ones it has otherwise.
    fn swap(
        &self,
        new_graph: ModuleGraph,
        new_params: Option<ModuleParams>,
    ) -> Result<(), DacapoError> {
        new_graph.validate(&self.catalog)?;
        let same_graph = new_graph == *self.graph.lock();
        let params = {
            let mut current = self.params.lock();
            match new_params {
                // The same modules with other parameters (an ARQ window,
                // an MTU) are another configuration: rebuild them.
                Some(fresh) if fresh != *current => *current = fresh,
                _ if same_graph => return Ok(()), // fast path: already running this configuration
                _ => {}
            }
            current.clone()
        };
        let modules = instantiate(&new_graph, &params, &self.catalog)?;
        let mut stack = self.stack.lock();
        if stack.is_none() || self.is_closed() {
            return Err(DacapoError::Closed);
        }
        let new = build_stack(modules, self.transport.clone(), &self.opts);
        // The receive thread parks on this guard with any frame it reads
        // meanwhile, and is out of the old stack once we hold it.
        let mut uplink = self.pump.swap();
        *uplink = Some(new.stack.clone());
        *self.endpoint.lock() = new.endpoint().clone();
        *self.graph.lock() = new_graph;
        // Dropped here, under the guard: the old endpoint's queue ends
        // behind everything the receive thread delivered into it.
        *stack = Some(new);
        drop(uplink);
        // Wake receive loops parked in the old (now ended) endpoint.
        self.life.bump_epoch();
        Ok(())
    }

    /// Reconfigures from QoS-derived transport requirements, as
    /// [`Connection::establish_with_qos`] establishes and under the context
    /// it established with: configuration, then unilateral admission, then
    /// the stack swap with the new configuration's module parameters. The
    /// connection's grant is exchanged for one covering the new
    /// configuration ([`ResourceManager::exchange`]); the connection is the
    /// only holder of its side's resources, from establishment to close.
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
        if let Some(mgr) = resource_mgr {
            let mut grant = self.grant.lock();
            // `close` raises the flag before it takes the grant: a grant
            // booked past this check is still there for it to release.
            if self.is_closed() {
                return Err(DacapoError::Closed);
            }
            mgr.exchange(&mut grant, &graph, &self.catalog, requirements)?;
        }
        self.swap(graph, Some(params))
    }

    /// Waits up to `timeout` for the running stack to quiesce (all queues
    /// empty, no ARQ window outstanding); returns whether it did. A close
    /// after a successful drain loses no in-flight data.
    pub fn drain(&self, timeout: std::time::Duration) -> bool {
        match self.stack.lock().as_ref() {
            Some(stack) => stack.drain(timeout),
            None => true,
        }
    }

    /// Whether the connection is closed: by [`Connection::close`], or by
    /// the peer (what the peer sent before closing can still be received
    /// from [`Connection::endpoint`], which then reports `Closed`).
    pub fn is_closed(&self) -> bool {
        self.life.closed.load(Ordering::Acquire)
    }

    /// Tears the connection down: closes the transport — which ends the
    /// receive threads' waits on both sides, so the peer learns of it
    /// without being told — and stops the stack. Nothing is joined (this
    /// may be the receive thread itself, closing from a [`Sink`] callback):
    /// the receive thread is on its way out when this returns. Idempotent.
    pub fn close(&self) {
        self.life.closed.store(true, Ordering::Release);
        // Before the lock: a drain or swap holding it ends sooner for it.
        self.pump.shutdown();
        self.stack.lock().take();
        self.grant.lock().take();
        self.life.bump_epoch();
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
    fn reliable_4k() -> (Connection, ConfigurationManager, ResourceManager, TransportRequirements) {
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
        assert_eq!(conn.params.lock().window, 32);
        let (graph, epoch) = (conn.graph(), conn.epoch());

        // The same functions under a 500 us latency budget: the same
        // modules, with the short ARQ window such a budget asks for.
        let latency_critical = TransportRequirements {
            latency_budget_us: Some(500),
            ..throughput
        };
        conn.reconfigure_with_qos(&latency_critical, &config_mgr, Some(&resource_mgr))
            .unwrap();
        assert_eq!(conn.params.lock().window, 4);
        assert_eq!(conn.graph(), graph);
        assert_ne!(conn.epoch(), epoch, "the modules were rebuilt with it");
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
        assert_eq!(conn.params.lock().window, 32);
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
                assert_eq!(seen_rx.recv_timeout(Duration::from_secs(5)).unwrap(), Some(i));
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
    fn close_is_idempotent_and_send_fails_after() {
        let (a, b) = pair(&ModuleGraph::empty());
        a.close();
        a.close();
        assert!(a.endpoint().send(Bytes::new()).is_err());
        b.close();
    }
}
