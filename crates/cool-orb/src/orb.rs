//! The ORB façade and client stubs.

use crate::adapter::ObjectAdapter;
use crate::binding::{Binding, DeferredReply};
use crate::config::OrbConfig;
use crate::error::OrbError;
use crate::exchange::LocalExchange;
use crate::invoke::{emit, Endpoint, Invoker, Target, Targets};
use crate::message_layer::WireProtocol;
use crate::object::{ObjectKey, ObjectRef, OrbAddr};
use crate::server::OrbServer;
use crate::transport::{ComChannel, FaultChannel, FaultMetrics};
use bytes::Bytes;
use cool_faults::FaultEngine;
use cool_telemetry::flight::event as flight_event;
use cool_telemetry::lockorder::{rank, Locked, OrderedMutex, Unlocked};
use cool_telemetry::{names, IntrospectServer, Registry};
use multe_qos::{GrantedQoS, QoSSpec, TransportRequirements};
use std::collections::HashMap;
use std::sync::{Arc, Weak};
use std::time::Duration;

/// The Object Request Broker: one per process role (client, server, or
/// both — the adapter exists on both sides, as in COOL).
pub struct Orb {
    name: String,
    adapter: Arc<ObjectAdapter>,
    exchange: LocalExchange,
    config: OrbConfig,
    bindings: OrderedMutex<HashMap<(String, WireProtocol), Arc<Binding>>, rank::OrbBindings>,
    served: OrderedMutex<Vec<OrbAddr>, rank::OrbServed>,
    /// Per-target engines materialized lazily from
    /// [`OrbConfig::fault_plans`], cached under the address display string
    /// so a binding that replaces a lost one continues the same
    /// deterministic fault schedule instead of restarting it.
    fault_engines: OrderedMutex<HashMap<String, Arc<FaultEngine>>, rank::OrbFaultEngines>,
    /// The live introspection endpoint (`OrbConfig::introspect`); absent —
    /// no listener, no sampler thread — unless explicitly configured.
    introspect: OrderedMutex<Option<IntrospectServer>, rank::OrbIntrospect>,
}

impl std::fmt::Debug for Orb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Orb")
            .field("name", &self.name)
            .field("objects", &self.adapter.len())
            .field("bindings", &self.bindings.lock(Locked::root()).0.len())
            .finish()
    }
}

impl Orb {
    /// Creates an ORB attached to the process-global exchange.
    pub fn new(name: &str) -> Arc<Self> {
        Orb::with_exchange(name, LocalExchange::global())
    }

    /// Creates an ORB with explicit timing/sizing knobs (see
    /// [`OrbConfig`]), attached to the process-global exchange.
    pub fn with_config(name: &str, config: OrbConfig) -> Arc<Self> {
        Orb::with_exchange_and_config(name, LocalExchange::global(), config)
    }

    /// Creates an ORB attached to an explicit exchange (isolated tests).
    pub fn with_exchange(name: &str, exchange: LocalExchange) -> Arc<Self> {
        Orb::with_exchange_and_config(name, exchange, OrbConfig::default())
    }

    /// Creates an ORB with both an explicit exchange and explicit
    /// configuration.
    pub fn with_exchange_and_config(
        name: &str,
        exchange: LocalExchange,
        mut config: OrbConfig,
    ) -> Arc<Self> {
        // An introspection endpoint needs data behind it: an ORB configured
        // with `introspect` but no telemetry gets a private registry, which
        // everything this ORB creates then reports into.
        if config.introspect.is_some() && config.telemetry.is_none() {
            config.telemetry = Some(Arc::new(Registry::new()));
        }
        let introspect = match (&config.introspect, &config.telemetry) {
            (Some(policy), Some(registry)) => {
                match IntrospectServer::start(Arc::clone(registry), &policy.bind_addr) {
                    Ok(server) => Some(server),
                    Err(e) => {
                        // Degrade rather than fail ORB construction; the
                        // recorder keeps the evidence.
                        registry.flight_event(
                            flight_event::TRANSPORT_DEAD,
                            None,
                            format!("introspect endpoint failed to start: {e}"),
                        );
                        None
                    }
                }
            }
            _ => None,
        };
        Arc::new(Orb {
            name: name.to_owned(),
            adapter: Arc::new(ObjectAdapter::with_telemetry(config.telemetry.clone())),
            exchange,
            config,
            bindings: OrderedMutex::new(HashMap::new()),
            served: OrderedMutex::new(Vec::new()),
            fault_engines: OrderedMutex::new(HashMap::new()),
            introspect: OrderedMutex::new(introspect),
        })
    }

    /// Where the live introspection endpoint listens, when
    /// [`OrbConfig::introspect`] is set and the endpoint started. `None`
    /// means no endpoint exists (the default — zero cost, no thread).
    pub fn introspect_addr(&self) -> Option<std::net::SocketAddr> {
        self.introspect
            .lock(Locked::root())
            .0
            .as_ref()
            .map(IntrospectServer::local_addr)
    }

    /// The configuration this ORB threads through its servers and
    /// bindings.
    pub fn config(&self) -> &OrbConfig {
        &self.config
    }

    /// This ORB's name (diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The object adapter (register servants here).
    pub fn adapter(&self) -> &Arc<ObjectAdapter> {
        &self.adapter
    }

    /// The exchange used for in-process transports.
    pub fn exchange(&self) -> &LocalExchange {
        &self.exchange
    }

    /// Serves this ORB's adapter on a TCP endpoint.
    ///
    /// # Errors
    ///
    /// [`OrbError::Transport`] if binding fails.
    pub fn listen_tcp(&self, addr: &str) -> Result<OrbServer, OrbError> {
        let adapter = self.adapter.clone();
        self.served_by(OrbServer::start_tcp(adapter, addr, &self.config))
    }

    /// Serves this ORB's adapter on a Chorus IPC endpoint.
    ///
    /// # Errors
    ///
    /// [`OrbError::BadAddress`] if the name is taken.
    pub fn listen_chorus(&self, name: &str) -> Result<OrbServer, OrbError> {
        self.listen_exchange(OrbAddr::Chorus(name.to_owned()))
    }

    /// Serves this ORB's adapter on a Da CaPo endpoint (QoS-capable).
    ///
    /// # Errors
    ///
    /// [`OrbError::BadAddress`] if the name is taken.
    pub fn listen_dacapo(&self, name: &str) -> Result<OrbServer, OrbError> {
        self.listen_exchange(OrbAddr::Dacapo(name.to_owned()))
    }

    fn listen_exchange(&self, addr: OrbAddr) -> Result<OrbServer, OrbError> {
        let adapter = self.adapter.clone();
        let exchange = self.exchange.clone();
        self.served_by(OrbServer::start_exchange(
            adapter,
            addr,
            exchange,
            &self.config,
        ))
    }

    /// Records the address of a server that started as served (so binds to
    /// it go colocated); a failed start — a name this ORB did not get —
    /// records nothing.
    fn served_by(&self, server: Result<OrbServer, OrbError>) -> Result<OrbServer, OrbError> {
        let server = server?;
        self.served
            .lock(Locked::root())
            .0
            .push(server.addr().clone());
        Ok(server)
    }

    /// Binds to an object reference, returning a client stub.
    ///
    /// The binding is *implicit* (established lazily and cached per
    /// address); calling [`Stub::set_qos_parameter`] later turns it into
    /// an explicit, client-controlled binding as described in Section 4.1.
    /// Colocated objects short-circuit through the local adapter.
    ///
    /// # Errors
    ///
    /// Connection establishment failures.
    pub fn bind(self: &Arc<Self>, reference: &ObjectRef) -> Result<Stub, OrbError> {
        self.bind_with_protocol(reference, WireProtocol::Giop)
    }

    /// Like [`Orb::bind`] but selecting the message protocol (the COOL
    /// protocol carries no QoS).
    ///
    /// # Errors
    ///
    /// Connection establishment failures.
    pub fn bind_with_protocol(
        self: &Arc<Self>,
        reference: &ObjectRef,
        protocol: WireProtocol,
    ) -> Result<Stub, OrbError> {
        let endpoint = self.endpoint_for(Locked::root(), reference, protocol)?;
        let offered = QoSSpec::best_effort();
        Ok(Stub {
            orb: Arc::downgrade(self),
            reference: reference.clone(),
            protocol,
            invoker: Invoker::new(&self.config, offered, Vec::new(), Some(endpoint)),
        })
    }

    /// Binds `reference`: the colocated adapter when this ORB serves the
    /// object itself (the adapter is on the client side too), otherwise
    /// the cached binding to its address.
    pub(crate) fn endpoint_for(
        &self,
        held: &mut Locked<Unlocked>,
        reference: &ObjectRef,
        protocol: WireProtocol,
    ) -> Result<Arc<Endpoint>, OrbError> {
        let key = reference.key.clone();
        let colocated = self.served.lock(held).0.contains(&reference.addr);
        let target = if colocated && self.adapter.contains(&key) {
            Target::Local(self.adapter.clone())
        } else {
            Target::Remote(self.binding_for(held, &reference.addr, protocol)?)
        };
        Ok(Arc::new(Endpoint { target, key }))
    }

    /// Dials `addr`, consulting the fault engine (connect refusal) and
    /// wrapping the channel in a [`FaultChannel`] when a plan is active.
    fn dial(
        &self,
        held: &mut Locked<Unlocked>,
        addr: &OrbAddr,
    ) -> Result<Arc<dyn ComChannel>, OrbError> {
        let engine = self.engine_for(held, addr);
        let telemetry = self.config.telemetry.as_ref();
        if let Some(engine) = &engine {
            if !engine.allow_connect() {
                if let Some(registry) = telemetry {
                    FaultMetrics::resolve(registry).record_refuse();
                    registry.flight_event(
                        flight_event::FAULT_INJECTED,
                        None,
                        "refuse_connect injected at dial".to_string(),
                    );
                }
                return Err(OrbError::Transport(
                    "fault injection: connection refused".into(),
                ));
            }
        }
        let raw: Arc<dyn ComChannel> = match addr {
            OrbAddr::Tcp(hostport) => Arc::new(crate::transport::TcpComChannel::connect_with(
                held,
                hostport.as_str(),
                telemetry.map(Arc::as_ref),
            )?),
            OrbAddr::Chorus(name) => self
                .exchange
                .connect_chorus_with(name, telemetry.map(Arc::as_ref))?,
            OrbAddr::Dacapo(name) => self.exchange.connect_dacapo_with(
                name,
                &TransportRequirements::best_effort(),
                telemetry,
            )?,
        };
        Ok(match engine {
            Some(engine) => Arc::new(FaultChannel::new(raw, engine, telemetry)),
            None => raw,
        })
    }

    /// The fault engine governing `addr`, from [`OrbConfig::fault_plans`]
    /// (created once per target and cached). `None` means no faults for
    /// this target.
    fn engine_for(&self, held: &mut Locked<Unlocked>, addr: &OrbAddr) -> Option<Arc<FaultEngine>> {
        let plans = self.config.fault_plans.as_ref()?;
        let target = addr.to_string();
        let plan = plans.plan_for(&target)?.clone();
        let (mut engines, _) = self.fault_engines.lock(held);
        let engine = engines
            .entry(target)
            .or_insert_with(|| Arc::new(FaultEngine::new(plan)));
        Some(Arc::clone(engine))
    }

    /// The cached binding to `addr`, or a fresh dial when there is none or
    /// the cached one is closed. Replacing a closed binding counts as a
    /// reconnect (`reconnects_total`, flight `reconnect`). Callers racing
    /// to replace one keep the first fresh binding cached, and close
    /// their own.
    fn binding_for(
        &self,
        held: &mut Locked<Unlocked>,
        addr: &OrbAddr,
        protocol: WireProtocol,
    ) -> Result<Arc<Binding>, OrbError> {
        let cache_key = (addr.to_string(), protocol);
        // Asked with the cache unlocked: over TCP the question takes in
        // what the connection received, and may run reply callbacks.
        let cached = self.bindings.lock(held).0.get(&cache_key).cloned();
        if let Some(existing) = &cached {
            if !existing.is_closed() {
                return Ok(Arc::clone(existing));
            }
        }
        let binding = Binding::with_config(self.dial(held, addr)?, protocol, &self.config);
        let (mut bindings, _) = self.bindings.lock(held);
        let current = bindings.get(&cache_key);
        let replaced = match (current, &cached) {
            (Some(current), Some(closed)) if Arc::ptr_eq(current, closed) => true,
            (None, _) => false,
            // Another caller's fresh binding got in first.
            (Some(current), _) => {
                let kept = Arc::clone(current);
                drop(bindings);
                binding.close();
                return Ok(kept);
            }
        };
        let displaced = bindings.insert(cache_key, Arc::clone(&binding));
        // The closed binding goes with the cache unlocked.
        drop(bindings);
        drop(displaced);
        if replaced {
            let detail = format!("{addr} rebound after its connection was lost");
            let counter = Some(names::RECONNECTS_TOTAL);
            emit(
                &self.config.telemetry,
                counter,
                flight_event::RECONNECT,
                detail,
            );
        }
        Ok(binding)
    }

    /// Closes all cached client bindings and stops the introspection
    /// endpoint (when one is running).
    pub fn shutdown(&self) {
        // Drain, then close with the cache unlocked.
        let held = Locked::root();
        let bindings = std::mem::take(&mut *self.bindings.lock(held).0);
        for binding in bindings.into_values() {
            binding.close();
        }
        // Take the handle out, then stop with the lock released — stop
        // joins the accept and sampler threads.
        let introspect = self.introspect.lock(held).0.take();
        if let Some(mut server) = introspect {
            server.stop();
        }
    }
}

/// A client proxy for one remote (or colocated) object.
///
/// This is what Chic-generated stubs wrap: `invoke` carries marshalled
/// parameters, and `set_qos_parameter` is the method the modified Chic
/// compiler adds to every stub (Section 4.1).
///
/// Its endpoint is held in its pipeline's state (`Invoker`); the ORB,
/// reference and protocol are what binds the object afresh when the
/// endpoint's connection is lost.
pub struct Stub {
    orb: Weak<Orb>,
    reference: ObjectRef,
    protocol: WireProtocol,
    pub(crate) invoker: Invoker,
}

impl std::fmt::Debug for Stub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stub")
            .field("key", &self.key().to_string())
            .field("colocated", &self.is_colocated())
            .finish()
    }
}

/// A plain stub is the one-target case of the invocation pipeline.
impl Targets for Stub {
    fn locate(
        &self,
        _held: &mut Locked<Unlocked>,
        _idx: usize,
    ) -> Result<(Arc<Orb>, ObjectRef, WireProtocol), OrbError> {
        let orb = self.orb.upgrade().ok_or(OrbError::Closed)?;
        Ok((orb, self.reference.clone(), self.protocol))
    }
}

impl Stub {
    /// The object key this stub addresses.
    pub fn key(&self) -> &ObjectKey {
        &self.reference.key
    }

    /// Whether this stub short-circuits to a colocated object.
    pub fn is_colocated(&self) -> bool {
        self.invoker
            .endpoint(Locked::root(), 0)
            .is_some_and(|endpoint| matches!(endpoint.target, Target::Local(_)))
    }

    /// Sets the reply timeout for synchronous calls.
    pub fn set_timeout(&self, timeout: Duration) {
        self.invoker.per_stub.lock(Locked::root()).0.timeout = timeout;
    }

    /// The paper's `setQoSParameter`: specifies the QoS for subsequent
    /// invocations. Calling it once yields QoS-per-binding; calling it
    /// before every invocation yields QoS-per-method (Section 4.1).
    ///
    /// The requested QoS is immediately propagated to the transport layer
    /// (unilateral negotiation, Section 4.3); the bilateral negotiation
    /// with the server happens on the next invocation.
    ///
    /// # Errors
    ///
    /// [`OrbError::QosNotSupported`] if the spec is invalid or the
    /// transport cannot provide the mapped requirements.
    pub fn set_qos_parameter(&self, spec: QoSSpec) -> Result<(), OrbError> {
        spec.validate().map_err(OrbError::QosNotSupported)?;
        let held = Locked::root();
        // Without an endpoint, the next bind applies it.
        if let Some(endpoint) = self.invoker.endpoint(held, 0) {
            endpoint.apply_qos(held, &spec)?;
        }
        self.invoker.per_stub.lock(held).0.offered = spec;
        Ok(())
    }

    /// Clears any QoS specification: subsequent invocations use standard
    /// GIOP 1.0.
    ///
    /// # Errors
    ///
    /// Transport reconfiguration failures.
    pub fn clear_qos(&self) -> Result<(), OrbError> {
        self.set_qos_parameter(QoSSpec::best_effort())
    }

    /// The QoS granted by the server on the most recent invocation, if
    /// any.
    pub fn last_granted(&self) -> Option<GrantedQoS> {
        self.invoker.per_stub.lock(Locked::root()).0.granted.clone()
    }

    /// Installs a graceful-degradation ladder: when an invocation fails
    /// with [`OrbError::QosNotSupported`] (the server NACKed the
    /// negotiation), the stub steps down to the next fallback spec — most
    /// preferred first — applies it as [`Stub::set_qos_parameter`] would
    /// and retries the call. The ladder is consumed rung by rung; once
    /// empty, the NACK surfaces to the caller.
    pub fn set_qos_ladder(&self, fallbacks: Vec<QoSSpec>) {
        let (mut state, _) = self.invoker.per_stub.lock(Locked::root());
        state.fallbacks = fallbacks.into();
        state.steps.clear();
    }

    /// The degradation rungs applied so far, in the order they were taken.
    pub fn degradation_steps(&self) -> Vec<QoSSpec> {
        self.invoker.per_stub.lock(Locked::root()).0.steps.clone()
    }

    /// Two-way synchronous invocation with marshalled parameters.
    ///
    /// With [`crate::OrbConfig::retry`] set, retryable failures (see
    /// [`OrbError::is_retryable`]) are replayed with bounded backoff; when
    /// the binding's connection was lost, the replay binds the object
    /// afresh and offers the new binding the current QoS. A binding closed
    /// locally ([`Orb::shutdown`]) is not replaced.
    /// With a QoS ladder installed ([`Stub::set_qos_ladder`]), a server
    /// NACK steps the QoS down instead of failing. Both are off by
    /// default, giving exactly one attempt.
    ///
    /// # Errors
    ///
    /// The server's exception (including the QoS NACK once any ladder is
    /// exhausted), marshalling or transport failures, [`OrbError::Timeout`],
    /// or — a retry policy gave up — [`OrbError::RetriesExhausted`].
    pub fn invoke(&self, operation: &str, args: Bytes) -> Result<Bytes, OrbError> {
        self.invoker.invoke(Locked::root(), self, operation, args)
    }

    /// One-way invocation (`send`): no reply, errors after the send are
    /// invisible.
    ///
    /// # Errors
    ///
    /// Local marshalling/transport failures only.
    pub fn invoke_oneway(&self, operation: &str, args: Bytes) -> Result<(), OrbError> {
        let held = Locked::root();
        let attempt = self.invoker.bound(held, self, 0)?;
        match &attempt.endpoint.target {
            Target::Local(adapter) => {
                adapter.dispatch(self.key(), operation, &args, &attempt.offered, true);
                Ok(())
            }
            Target::Remote(binding) => {
                let params = attempt.offered.to_params();
                binding.send(self.key().as_bytes(), operation, args, &params)
            }
        }
    }

    /// Deferred synchronous invocation (`defer`): collect the reply later.
    ///
    /// # Errors
    ///
    /// Send-time failures. Colocated stubs do not support deferral (the
    /// call would already be complete) and return
    /// [`OrbError::Protocol`].
    pub fn invoke_deferred(&self, operation: &str, args: Bytes) -> Result<DeferredReply, OrbError> {
        let held = Locked::root();
        let attempt = self.invoker.bound(held, self, 0)?;
        match &attempt.endpoint.target {
            Target::Local(_) => Err(OrbError::Protocol(
                "deferred invocation on a colocated object is meaningless".into(),
            )),
            Target::Remote(binding) => {
                let params = attempt.offered.to_params();
                binding.defer(self.key().as_bytes(), operation, args, &params)
            }
        }
    }

    /// Asynchronous invocation (`notify`): `callback` runs when the reply
    /// arrives. Returns the request id usable with [`Stub::cancel`].
    ///
    /// # Errors
    ///
    /// Send-time failures; colocated stubs run the callback synchronously
    /// and return request id 0.
    pub fn invoke_async(
        &self,
        operation: &str,
        args: Bytes,
        callback: impl FnOnce(Result<Bytes, OrbError>) + Send + 'static,
    ) -> Result<u32, OrbError> {
        let held = Locked::root();
        let attempt = self.invoker.bound(held, self, 0)?;
        match &attempt.endpoint.target {
            Target::Local(_) => {
                callback(
                    self.invoker
                        .invoke_once(held, attempt, operation, &args, None),
                );
                Ok(0)
            }
            Target::Remote(binding) => {
                let params = attempt.offered.to_params();
                binding.notify(
                    self.key().as_bytes(),
                    operation,
                    args,
                    &params,
                    move |result| callback(result.map(|(body, _)| body)),
                )
            }
        }
    }

    /// Cancels a pending asynchronous request (`cancel`).
    ///
    /// Returns whether the request was still pending.
    pub fn cancel(&self, request_id: u32) -> bool {
        let held = Locked::root();
        match self
            .invoker
            .endpoint(held, 0)
            .as_deref()
            .map(|endpoint| &endpoint.target)
        {
            Some(Target::Remote(binding)) => binding.cancel(request_id),
            _ => false,
        }
    }
}
