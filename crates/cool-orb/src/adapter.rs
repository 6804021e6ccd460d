//! The Object Adapter.
//!
//! Registers servants under object keys, holds each object's QoS policy,
//! and dispatches incoming requests: bilateral negotiation first (NACK on
//! failure, Figure 3-i), then the servant upcall. As in COOL, the adapter
//! exists on the client side too — stubs bound to a colocated object
//! dispatch straight into it, skipping message and transport layers
//! (Section 2: *"The Object Adapter is designed to optimize colocated
//! scenarios"*).

use crate::error::OrbError;
use crate::object::ObjectKey;
use crate::servant::{FnServant, InvocationCtx, Servant};
use crate::server::{INLINE_ADMIT_STREAK, INLINE_UPCALL_BUDGET};
use cool_telemetry::flight::event as flight_event;
use cool_telemetry::trace::duration_as_u32_us;
use cool_telemetry::{Histogram, Registry, Stage};
use multe_qos::{GrantedQoS, QoSSpec, ServerPolicy};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An object as the table holds it. A request looks it up once
/// ([`ObjectAdapter::lookup`]) and carries the copy to its upcall.
#[derive(Clone)]
pub(crate) struct Registration {
    /// One `Arc` for what a dispatch takes out of the table: the servant
    /// and the streak its upcall feeds.
    target: Arc<Target>,
    policy: ServerPolicy,
}

impl Registration {
    /// Whether the object's recent upcalls were all cheap enough for its
    /// next request to run on the delivering thread (see
    /// [`crate::server`]'s threading model).
    pub(crate) fn is_cheap(&self) -> bool {
        self.target.cheap.admitted()
    }
}

struct Target {
    servant: Arc<dyn Servant>,
    cheap: CheapStreak,
}

/// How many upcalls in a row an object has answered inside
/// [`INLINE_UPCALL_BUDGET`]: what the server reads to decide whether the
/// next request may run on the thread that delivered it. Observed, never
/// declared — nothing a servant or a registration can set. A statistic
/// that publishes no other data, hence `Relaxed`; a lost update between
/// racing dispatchers costs one upcall of admission either way.
#[derive(Default)]
struct CheapStreak(AtomicU32);

impl CheapStreak {
    fn observe(&self, took: Duration) {
        if took > INLINE_UPCALL_BUDGET {
            self.0.store(0, Ordering::Relaxed);
        } else if !self.admitted() {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn admitted(&self) -> bool {
        self.0.load(Ordering::Relaxed) >= INLINE_ADMIT_STREAK
    }
}

/// Pre-resolved adapter-side metric handles.
struct AdapterTelemetry {
    registry: Arc<Registry>,
    execute_us: Arc<Histogram>,
}

/// Maps object keys to servants and QoS policies.
#[derive(Default)]
pub struct ObjectAdapter {
    objects: RwLock<HashMap<ObjectKey, Registration>>,
    telemetry: Option<AdapterTelemetry>,
}

impl std::fmt::Debug for ObjectAdapter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectAdapter")
            .field("objects", &self.objects.read().len())
            .finish()
    }
}

/// How long the adapter-level stages of one dispatch took — the server
/// half of a distributed trace (echoed to the client in the reply's
/// trace service context, DESIGN.md §6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchTimings {
    /// Time spent in bilateral QoS negotiation, in microseconds (zero for
    /// best-effort requests — no negotiation takes place — and from an
    /// adapter without telemetry, which does not time it).
    pub negotiate_us: u32,
    /// Time spent in the servant upcall, in microseconds.
    pub execute_us: u32,
}

/// Outcome of adapter-level request handling, before marshalling.
#[derive(Debug)]
pub enum DispatchOutcome {
    /// The servant produced a result; the granted QoS should ride back in
    /// the Reply service context.
    Success {
        /// Marshalled results.
        body: Vec<u8>,
        /// Outcome of bilateral negotiation for this invocation.
        granted: GrantedQoS,
    },
    /// Bilateral negotiation failed: send the QoS NACK.
    QosNack(multe_qos::QosError),
    /// The servant (or adapter) raised an error to report as an exception.
    Error(OrbError),
}

impl ObjectAdapter {
    /// Creates an empty adapter.
    pub fn new() -> Self {
        ObjectAdapter::default()
    }

    /// Creates an empty adapter reporting into `telemetry` (negotiation
    /// outcome counters, the `orb_servant_execute_us` histogram, and the
    /// server-side span stages of traced dispatches).
    pub fn with_telemetry(telemetry: Option<Arc<Registry>>) -> Self {
        ObjectAdapter {
            objects: RwLock::new(HashMap::new()),
            telemetry: telemetry.map(|registry| AdapterTelemetry {
                execute_us: registry.histogram("orb_servant_execute_us"),
                registry,
            }),
        }
    }

    /// Registers (activates) a servant under `key` with a permissive QoS
    /// policy.
    ///
    /// # Errors
    ///
    /// [`OrbError::BadAddress`] if the key is already taken.
    pub fn register(
        &self,
        key: impl Into<ObjectKey>,
        servant: Arc<dyn Servant>,
    ) -> Result<(), OrbError> {
        self.register_with_policy(key, servant, ServerPolicy::permissive())
    }

    /// Registers a servant with an explicit QoS policy.
    ///
    /// # Errors
    ///
    /// [`OrbError::BadAddress`] if the key is already taken.
    pub fn register_with_policy(
        &self,
        key: impl Into<ObjectKey>,
        servant: Arc<dyn Servant>,
        policy: ServerPolicy,
    ) -> Result<(), OrbError> {
        let key = key.into();
        let mut objects = self.objects.write();
        if objects.contains_key(&key) {
            return Err(OrbError::BadAddress(format!(
                "object key {key} already registered"
            )));
        }
        objects.insert(
            key,
            Registration {
                target: Arc::new(Target {
                    servant,
                    cheap: CheapStreak::default(),
                }),
                policy,
            },
        );
        Ok(())
    }

    /// Registers a closure-backed servant (permissive policy).
    ///
    /// # Errors
    ///
    /// [`OrbError::BadAddress`] if the key is already taken.
    pub fn register_fn(
        &self,
        key: impl Into<ObjectKey>,
        f: impl Fn(&str, &[u8], &InvocationCtx) -> Result<Vec<u8>, OrbError> + Send + Sync + 'static,
    ) -> Result<(), OrbError> {
        self.register(key, Arc::new(FnServant::new(f)))
    }

    /// Deactivates an object; returns whether it existed.
    pub fn deactivate(&self, key: &ObjectKey) -> bool {
        self.objects.write().remove(key).is_some()
    }

    /// Whether an object is registered under `key`. Accepts any byte view
    /// of a key (`&ObjectKey`, `&[u8]`, `&Vec<u8>`), so demux paths can
    /// probe with the raw wire bytes without allocating an [`ObjectKey`].
    pub fn contains(&self, key: impl AsRef<[u8]>) -> bool {
        self.objects.read().contains_key(key.as_ref())
    }

    /// The object registered under `key` — the one table lookup a request
    /// makes — or [`OrbError::ObjectNotFound`].
    pub(crate) fn lookup(&self, key: &[u8]) -> Result<Registration, OrbError> {
        // Lookups go through `Borrow<[u8]>`, so a request header's raw key
        // bytes index the map directly — no per-request `ObjectKey`.
        self.objects
            .read()
            .get(key)
            .cloned()
            .ok_or_else(|| OrbError::ObjectNotFound(String::from_utf8_lossy(key).into_owned()))
    }

    /// Replaces an object's QoS policy; returns whether it existed.
    pub fn set_policy(&self, key: &ObjectKey, policy: ServerPolicy) -> bool {
        match self.objects.write().get_mut(key) {
            Some(reg) => {
                reg.policy = policy;
                true
            }
            None => false,
        }
    }

    /// Number of active objects.
    pub fn len(&self) -> usize {
        self.objects.read().len()
    }

    /// Whether no objects are active.
    pub fn is_empty(&self) -> bool {
        self.objects.read().is_empty()
    }

    /// Handles one incoming invocation: negotiate, upcall, classify.
    ///
    /// `spec` is the QoS specification unmarshalled from the (extended)
    /// Request header — empty for standard-GIOP requests.
    pub fn dispatch(
        &self,
        key: impl AsRef<[u8]>,
        operation: &str,
        args: &[u8],
        spec: &QoSSpec,
        one_way: bool,
    ) -> DispatchOutcome {
        self.dispatch_traced_timed(key, operation, args, spec, one_way, None)
            .0
    }

    /// Like [`ObjectAdapter::dispatch`], attributing the server-side span
    /// stages (`qos_negotiate`, `servant_execute`) to `request_id` when the
    /// adapter has telemetry — the marks land only if the client opened its
    /// span in the *same* registry (loopback setups sharing one registry) —
    /// and reporting how long negotiation and the servant upcall took, so
    /// the server can echo its half of a distributed trace to the client.
    pub fn dispatch_traced_timed(
        &self,
        key: impl AsRef<[u8]>,
        operation: &str,
        args: &[u8],
        spec: &QoSSpec,
        one_way: bool,
        request_id: Option<u32>,
    ) -> (DispatchOutcome, DispatchTimings) {
        let registration = self.lookup(key.as_ref());
        self.dispatch_to(registration, operation, args, spec, one_way, request_id)
    }

    /// [`ObjectAdapter::dispatch_traced_timed`] for a request whose object
    /// was looked up already.
    pub(crate) fn dispatch_to(
        &self,
        registration: Result<Registration, OrbError>,
        operation: &str,
        args: &[u8],
        spec: &QoSSpec,
        one_way: bool,
        request_id: Option<u32>,
    ) -> (DispatchOutcome, DispatchTimings) {
        let mut timings = DispatchTimings::default();
        let Registration { target, policy } = match registration {
            Ok(registration) => registration,
            Err(err) => return (DispatchOutcome::Error(err), timings),
        };

        // Bilateral negotiation (Figure 3): only engaged when the client
        // actually specified QoS. Best-effort requests still get the span
        // mark (a ~zero-length stage) but do not tick negotiation counters
        // — no negotiation took place. Timed only for telemetry: the span
        // mark and the trace a traced server echoes.
        let neg_start = self.telemetry.as_ref().map(|t| (t, Instant::now()));
        let negotiated = if spec.is_best_effort() {
            None
        } else {
            Some(policy.negotiate(spec))
        };
        if let Some((t, neg_start)) = neg_start {
            let neg_took = neg_start.elapsed();
            timings.negotiate_us = duration_as_u32_us(neg_took);
            if let Some(result) = &negotiated {
                multe_qos::telemetry::record_negotiation(&t.registry, spec, result);
            }
            if let Some(id) = request_id {
                t.registry.span_mark(id, Stage::QosNegotiate, neg_took);
            }
        }
        let granted = match negotiated {
            None => GrantedQoS::best_effort(),
            Some(Ok(granted)) => granted,
            Some(Err(reason)) => {
                if let Some(t) = &self.telemetry {
                    t.registry.flight_event(
                        flight_event::QOS_NACK,
                        request_id,
                        format!("{operation}: {reason}"),
                    );
                }
                return (DispatchOutcome::QosNack(reason), timings);
            }
        };

        let ctx = InvocationCtx::new(granted.clone(), one_way);
        let exec_start = Instant::now();
        let result = target.servant.dispatch(operation, args, &ctx);
        let took = exec_start.elapsed();
        target.cheap.observe(took);
        timings.execute_us = duration_as_u32_us(took);
        if let Some(t) = &self.telemetry {
            t.execute_us.record_duration_us(took);
            if let Some(id) = request_id {
                t.registry.span_mark(id, Stage::ServantExecute, took);
            }
        }
        let outcome = match result {
            Ok(body) => DispatchOutcome::Success { body, granted },
            Err(e) => DispatchOutcome::Error(e),
        };
        (outcome, timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multe_qos::Reliability;

    fn echo_adapter() -> ObjectAdapter {
        let adapter = ObjectAdapter::new();
        adapter
            .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
            .unwrap();
        adapter
    }

    #[test]
    fn register_and_dispatch() {
        let adapter = echo_adapter();
        assert!(adapter.contains(ObjectKey::from("echo")));
        assert_eq!(adapter.len(), 1);
        match adapter.dispatch(
            ObjectKey::from("echo"),
            "any",
            b"data",
            &QoSSpec::best_effort(),
            false,
        ) {
            DispatchOutcome::Success { body, granted } => {
                assert_eq!(body, b"data");
                assert!(granted.is_best_effort());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn duplicate_key_rejected() {
        let adapter = echo_adapter();
        assert!(adapter
            .register_fn("echo", |_o, a, _c| Ok(a.to_vec()))
            .is_err());
    }

    #[test]
    fn unknown_object_reported() {
        let adapter = ObjectAdapter::new();
        match adapter.dispatch(
            ObjectKey::from("ghost"),
            "op",
            b"",
            &QoSSpec::best_effort(),
            false,
        ) {
            DispatchOutcome::Error(OrbError::ObjectNotFound(k)) => assert_eq!(k, "ghost"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn deactivate_removes() {
        let adapter = echo_adapter();
        assert!(adapter.deactivate(&ObjectKey::from("echo")));
        assert!(!adapter.deactivate(&ObjectKey::from("echo")));
        assert!(adapter.is_empty());
    }

    #[test]
    fn negotiation_grants_within_policy() {
        let adapter = ObjectAdapter::new();
        let policy = ServerPolicy::builder()
            .max_throughput_bps(1_000_000)
            .max_reliability(Reliability::Reliable)
            .build();
        adapter
            .register_with_policy(
                "media",
                Arc::new(FnServant::new(|_o, _a, ctx| {
                    // The servant can see the granted operating point.
                    Ok(ctx
                        .granted()
                        .throughput_bps()
                        .unwrap_or(0)
                        .to_be_bytes()
                        .to_vec())
                })),
                policy,
            )
            .unwrap();
        let spec = QoSSpec::builder()
            .throughput_bps(5_000_000, 500_000, 10_000_000)
            .build();
        match adapter.dispatch(ObjectKey::from("media"), "get", b"", &spec, false) {
            DispatchOutcome::Success { body, granted } => {
                assert_eq!(granted.throughput_bps(), Some(1_000_000));
                assert_eq!(body, 1_000_000u32.to_be_bytes());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn negotiation_nack_when_infeasible() {
        let adapter = ObjectAdapter::new();
        let policy = ServerPolicy::builder().max_throughput_bps(100).build();
        adapter
            .register_with_policy(
                "weak",
                Arc::new(FnServant::new(|_o, a, _c| Ok(a.to_vec()))),
                policy,
            )
            .unwrap();
        let spec = QoSSpec::builder()
            .throughput_bps(1_000_000, 500_000, 2_000_000)
            .build();
        match adapter.dispatch(ObjectKey::from("weak"), "get", b"", &spec, false) {
            DispatchOutcome::QosNack(reason) => {
                assert!(reason.to_string().contains("throughput"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn set_policy_changes_future_negotiations() {
        let adapter = echo_adapter();
        let key = ObjectKey::from("echo");
        adapter.set_policy(&key, ServerPolicy::builder().build()); // supports nothing
        let spec = QoSSpec::builder().ordered(true).build();
        assert!(matches!(
            adapter.dispatch(&key, "op", b"", &spec, false),
            DispatchOutcome::QosNack(_)
        ));
        assert!(!adapter.set_policy(&ObjectKey::from("ghost"), ServerPolicy::permissive()));
    }

    #[test]
    fn telemetry_counts_negotiations_and_execute_time() {
        let registry = Arc::new(Registry::new());
        let adapter = ObjectAdapter::with_telemetry(Some(registry.clone()));
        adapter
            .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
            .unwrap();
        let key = ObjectKey::from("echo");
        // Best-effort: servant runs, but no negotiation counters tick.
        adapter.dispatch(&key, "op", b"", &QoSSpec::best_effort(), false);
        // A real spec at the permissive policy's operating point: accepted.
        let spec = QoSSpec::builder().ordered(true).build();
        adapter.dispatch(&key, "op", b"", &spec, false);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("qos_negotiations_accepted"), Some(1));
        assert_eq!(snap.counter("qos_negotiations_nacked"), None);
        let execute = snap.histogram("orb_servant_execute_us").unwrap();
        assert_eq!(execute.count, 2);
    }

    #[test]
    fn servant_errors_become_exceptions() {
        let adapter = ObjectAdapter::new();
        adapter
            .register_fn("picky", |op, _a, _c| {
                Err(OrbError::OperationUnknown {
                    object: "picky".into(),
                    operation: op.into(),
                })
            })
            .unwrap();
        match adapter.dispatch(
            ObjectKey::from("picky"),
            "nope",
            b"",
            &QoSSpec::best_effort(),
            false,
        ) {
            DispatchOutcome::Error(OrbError::OperationUnknown { operation, .. }) => {
                assert_eq!(operation, "nope");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
