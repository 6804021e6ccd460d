//! Replicated bindings: one logical object, many replicas, transparent
//! failover.
//!
//! [`crate::orb::Orb::bind_resolved`] takes the candidate replica set a
//! directory resolve produced (see the `cool-naming` crate) and returns a
//! [`ResolvedStub`]: the invocation pipeline of a plain
//! [`crate::orb::Stub`] (`invoke.rs`) run over the replica table kept here
//! instead of one target (DESIGN.md §8.3):
//!
//! * **Best-match binding** — calls go to a replica whose offered ladder
//!   matched the requirement at the lowest (best) rung, rotating across
//!   equally-ranked replicas so load spreads without coordination.
//! * **One bound replica** — switching to a replica binds it afresh and
//!   applies the pipeline's current QoS operating point to its transport,
//!   so a failover target never re-promotes.
//! * **One failure machine per replica** — consecutive failures evict a
//!   replica, and a prober re-admits it once it answers after a backoff;
//!   a breaker may hold a failing one back for a cooldown (the pure `step`,
//!   applied by `apply`; [`crate::config::FailoverPolicy`]).

use crate::config::FailoverPolicy;
use crate::error::OrbError;
use crate::invoke::{emit, Invoker, Targets};
use crate::message_layer::WireProtocol;
use crate::object::ObjectRef;
use crate::orb::Orb;
use bytes::Bytes;
use cool_telemetry::blocking;
use cool_telemetry::flight::event;
use cool_telemetry::lockorder::{rank, Locked, OrderedMutex, Unlocked};
use cool_telemetry::{names, Gauge, Registry};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One replica produced by a directory resolve: where it lives and how
/// well its offered ladder matched the requirement (0 = matched at the
/// replica's best rung).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaCandidate {
    /// The replica's object reference.
    pub reference: ObjectRef,
    /// Rung of the replica's offered ladder that satisfied the
    /// requirement; lower is better.
    pub match_rung: u32,
}

/// One replica's standing in its failure machine (DESIGN.md §8.3): a count
/// of consecutive failures (any success resets it) or an instant. Only
/// `breaker_threshold < suspect_threshold` reaches `Blocked` and `Trial`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Standing {
    /// In rotation after this many failures (0: healthy); breaker closed.
    Serving(u32),
    /// In rotation, breaker open since the instant: calls skip it for
    /// `breaker_cooldown`.
    Blocked(Instant, u32),
    /// In rotation, breaker half-open: one trial call may pass.
    Trial(u32),
    /// Out of rotation since the instant; breaker open.
    Out(Instant),
    /// Out since the instant; breaker half-open, backoff not yet over.
    Cooled(Instant),
    /// Out, taken by the prober for a re-admission probe; breaker half-open.
    Probing,
}

/// What befalls one replica: a call succeeds, a probe answers, either
/// fails; a call's look for a target half-opens cooled breakers, and the
/// prober's sweep also takes out replicas whose backoff is over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    CallOk,
    ProbeOk,
    Failed(Instant),
    Look(Instant),
    Sweep(Instant),
}

/// What one step emits besides the new standing: the `breaker_state`
/// gauge's value when it moved (to open: flight `breaker_open`); ±1 as the
/// replica joins or leaves rotation (`replicas_healthy`; leaving is an
/// eviction: `replica_evictions_total`, flight `replica_evicted`); and
/// whether a probe re-admitted it (`replica_readmissions_total`, flight
/// `replica_readmitted`).
struct Effects {
    breaker: Option<u8>,
    rotation: i8,
    readmitted: bool,
}

/// Breaker names by `breaker_state` gauge value (DESIGN.md §6).
const BREAKER: [&str; 3] = ["closed", "half-open", "open"];

impl Standing {
    /// Whether a call may go to this replica.
    fn eligible(self) -> bool {
        matches!(self, Standing::Serving(_) | Standing::Trial(_))
    }

    /// Eligible, or held back by its breaker.
    fn in_rotation(self) -> bool {
        self.eligible() || matches!(self, Standing::Blocked(..))
    }

    /// The snapshot's health name and the `breaker_state` gauge value.
    fn names(self) -> (&'static str, u8) {
        match self {
            Standing::Serving(0) => ("healthy", 0),
            Standing::Serving(_) => ("suspect", 0),
            Standing::Blocked(..) => ("suspect", 2),
            Standing::Trial(_) => ("suspect", 1),
            Standing::Out(_) => ("evicted", 2),
            Standing::Cooled(_) => ("evicted", 1),
            Standing::Probing => ("probing", 1),
        }
    }
}

/// The failure machine, written once: `event` befalls a replica standing
/// at `standing`. Takes no lock, reads no clock, touches no registry.
fn step(standing: Standing, event: Event, policy: &FailoverPolicy) -> (Standing, Effects) {
    use Event::*;
    use Standing::*;
    // At a look: how long since the standing's instant.
    let stood = match (standing, event) {
        (Blocked(since, _) | Out(since) | Cooled(since), Look(now) | Sweep(now)) => now - since,
        _ => Duration::ZERO,
    };
    let next = match (standing, event) {
        (_, CallOk | ProbeOk) => Serving(0),
        (Serving(n) | Blocked(_, n) | Trial(n), Failed(now)) => {
            let n = n.saturating_add(1);
            match standing {
                _ if n >= policy.suspect_threshold => Out(now),
                Blocked(since, _) => Blocked(since, n),
                Serving(_) if n < policy.breaker_threshold => Serving(n),
                _ => Blocked(now, n),
            }
        }
        (Probing, Failed(at)) | (Cooled(at), Failed(_)) => Out(at),
        (Out(_) | Cooled(_), Sweep(_)) if stood >= policy.readmit_backoff => Probing,
        (Blocked(_, n), Look(_) | Sweep(_)) if stood >= policy.breaker_cooldown => Trial(n),
        (Out(since), Look(_) | Sweep(_)) if stood >= policy.breaker_cooldown => Cooled(since),
        _ => standing,
    };
    let effects = Effects {
        breaker: Some(next.names().1).filter(|&b| b != standing.names().1),
        rotation: i8::from(next.in_rotation()) - i8::from(standing.in_rotation()),
        readmitted: event == ProbeOk && !standing.in_rotation(),
    };
    (next, effects)
}

/// The replica a call may take, and succeed against, without the table
/// lock: the active one while it stands `Serving(0)` and every replica is
/// eligible. Then a `Look` moves nothing, so `pick` would return it, and a
/// `CallOk` on it is the identity with no effects.
fn steady(active: Option<usize>, standings: impl Iterator<Item = Standing>) -> Option<usize> {
    let mut calm = active.is_some();
    for (idx, standing) in standings.enumerate() {
        calm &= match active == Some(idx) {
            true => standing == Standing::Serving(0),
            false => standing.eligible(),
        };
    }
    active.filter(|_| calm)
}

/// What [`ResolvedStub::steady`] holds while no replica is steady.
const UNSTEADY: usize = usize::MAX;

struct ReplicaState {
    reference: ObjectRef,
    match_rung: u32,
    standing: Standing,
    /// `breaker_state{replica="<addr>"}`, resolved at construction, holding
    /// this binding's share until `close`.
    breaker_gauge: Option<Arc<Gauge>>,
}

/// The mutable core of a [`ResolvedStub`]: replica table, the active
/// replica, the rotation cursor and the prober. The one bound replica's
/// endpoint is the pipeline's (`Invoker`).
struct SetState {
    replicas: Vec<ReplicaState>,
    /// The replica calls go to until one against it fails.
    active: Option<usize>,
    /// Rotation cursor for spreading calls across equally-ranked replicas.
    rr: usize,
    /// The liveness prober's thread; taken by [`ResolvedStub::close`],
    /// which joins it with the table released.
    prober: Option<JoinHandle<()>>,
    /// `replicas_healthy`, holding this binding's share until `close`.
    healthy_gauge: Option<Arc<Gauge>>,
}

/// Point-in-time view of one replica, for tests and diagnostics.
#[derive(Debug, Clone)]
pub struct ReplicaSnapshot {
    /// The replica's object reference.
    pub reference: ObjectRef,
    /// Match quality carried over from the resolve.
    pub match_rung: u32,
    /// Health state name: `healthy`, `suspect`, `evicted` or `probing`.
    pub health: &'static str,
    /// Breaker state name: `closed`, `half-open` or `open`.
    pub breaker: &'static str,
}

/// Spreads *initial* replica choices of independently created resolved
/// bindings across equally-ranked candidates.
static ROTATION: AtomicUsize = AtomicUsize::new(0);

/// A stub over a whole replica set (see the module docs): binds to the
/// best-matching replica, load-balances fresh bindings across equivalent
/// ones and fails over mid-traffic. Created by [`Orb::bind_resolved`].
pub struct ResolvedStub {
    orb: Arc<Orb>,
    /// The set's one QoS operating point, timeout and retry policy.
    invoker: Invoker,
    policy: FailoverPolicy,
    replica_set: OrderedMutex<SetState, rank::ResolvedState>,
    /// [`steady`] of the table as its lock holder last left it, or
    /// [`UNSTEADY`]: stored (`Release`) under the table lock, loaded
    /// (`Acquire`) without it. It publishes no other data.
    steady: AtomicUsize,
    stop_tx: crossbeam::channel::Sender<()>,
    registry: Option<Arc<Registry>>,
}

impl std::fmt::Debug for ResolvedStub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResolvedStub")
            .field("active", &self.active_replica())
            .field("consumed", &self.consumed_rungs())
            .finish()
    }
}

impl Orb {
    /// Binds a whole candidate replica set (from a directory resolve) as
    /// one logical stub. `required` is the preferred operating point and
    /// `ladder` the degradation fallbacks, as for
    /// [`crate::Stub::set_qos_parameter`] / [`crate::Stub::set_qos_ladder`].
    ///
    /// Health-probe and breaker thresholds come from
    /// [`crate::OrbConfig::failover`]; a `probe_period` of zero disables
    /// the background prober (evicted replicas then stay evicted).
    ///
    /// # Errors
    ///
    /// [`OrbError::BadAddress`] when `candidates` is empty. Connection
    /// establishment is lazy, so an unreachable replica surfaces on the
    /// first [`ResolvedStub::invoke`], not here.
    pub fn bind_resolved(
        self: &Arc<Self>,
        candidates: &[ReplicaCandidate],
        required: multe_qos::QoSSpec,
        ladder: Vec<multe_qos::QoSSpec>,
    ) -> Result<Arc<ResolvedStub>, OrbError> {
        if candidates.is_empty() {
            return Err(OrbError::BadAddress(format!(
                "cannot bind an empty replica candidate set (required QoS {required:?}, \
                 {} degradation rung(s))",
                ladder.len()
            )));
        }
        let registry = self.config().telemetry.clone();
        let replicas: Vec<ReplicaState> = candidates
            .iter()
            .map(|c| ReplicaState {
                reference: c.reference.clone(),
                match_rung: c.match_rung,
                // Closed: the breaker adds nothing to the gauge yet.
                standing: Standing::Serving(0),
                breaker_gauge: registry.as_ref().map(|r| {
                    r.gauge(&Registry::labeled(
                        names::BREAKER_STATE,
                        &[("replica", &c.reference.addr.to_string())],
                    ))
                }),
            })
            .collect();
        let healthy_gauge = registry.as_ref().map(|r| r.gauge(names::REPLICAS_HEALTHY));
        if let Some(gauge) = &healthy_gauge {
            gauge.add(replicas.len() as f64);
        }
        let period = self.config().failover.probe_period;
        let (stop_tx, stop_rx) = crossbeam::channel::bounded::<()>(1);
        let resolved = Arc::new(ResolvedStub {
            orb: Arc::clone(self),
            invoker: Invoker::new(self.config(), required, ladder, None),
            policy: self.config().failover.clone(),
            replica_set: OrderedMutex::new(SetState {
                replicas,
                active: None,
                rr: ROTATION.fetch_add(1, Ordering::Relaxed),
                prober: None,
                healthy_gauge,
            }),
            steady: AtomicUsize::new(UNSTEADY),
            stop_tx,
            registry,
        });
        // The first pick rotates across the best-ranked candidates from a
        // process-wide cursor, so independent clients spread their load
        // without coordination.
        let held = Locked::root();
        let first = resolved.pick(held, &[], "bind").ok();
        resolved.replica_set.lock(held).0.active = first;
        if period > Duration::ZERO {
            let weak: Weak<ResolvedStub> = Arc::downgrade(&resolved);
            let probe_loop = move || {
                let held = Locked::root();
                while let Err(crossbeam::channel::RecvTimeoutError::Timeout) =
                    blocking::recv_timeout(held, &stop_rx, period)
                {
                    // The binding owns us via a JoinHandle; once every
                    // strong reference is gone we stop.
                    let Some(me) = weak.upgrade() else { break };
                    me.probe_all(held);
                }
            };
            // A failed spawn (resource exhaustion) leaves the binding
            // without a prober rather than failing the bind.
            #[expect(
                clippy::disallowed_methods,
                reason = "joined by `ResolvedStub::close`, which drop calls; one that drops the last reference itself ends at its next tick"
            )]
            let prober = std::thread::Builder::new()
                .name("resolved-prober".into())
                .spawn(probe_loop);
            resolved.replica_set.lock(held).0.prober = prober.ok();
        }
        Ok(resolved)
    }
}

impl ResolvedStub {
    /// The replica currently serving traffic, once a call has succeeded
    /// (or the initial load-balanced choice before that).
    pub fn active_replica(&self) -> Option<ObjectRef> {
        let (state, _) = self.replica_set.lock(Locked::root());
        state
            .active
            .and_then(|i| state.replicas.get(i))
            .map(|r| r.reference.clone())
    }

    /// Degradation rungs consumed so far across the whole replica set
    /// (0 = still at the original requirement).
    pub fn consumed_rungs(&self) -> usize {
        self.invoker.per_stub.lock(Locked::root()).0.steps.len()
    }

    /// Point-in-time health/breaker view of every replica.
    pub fn replicas(&self) -> Vec<ReplicaSnapshot> {
        self.replica_set
            .lock(Locked::root())
            .0
            .replicas
            .iter()
            .map(|r| ReplicaSnapshot {
                reference: r.reference.clone(),
                match_rung: r.match_rung,
                health: r.standing.names().0,
                breaker: BREAKER[usize::from(r.standing.names().1)],
            })
            .collect()
    }

    /// Two-way invocation: [`crate::Stub::invoke`] with the replica table
    /// as its targets. Tries the active (or best-ranked) replica first;
    /// once the retry policy is spent on a retryable failure the call
    /// replays on the next one in rotation, each replica at most once.
    ///
    /// # Errors
    ///
    /// The first non-retryable error from any replica (at-most-once:
    /// attributed timeouts and user exceptions are never replayed), or the
    /// last replica's failure once every eligible replica has been tried —
    /// attributed, never a hang.
    pub fn invoke(&self, operation: &str, args: Bytes) -> Result<Bytes, OrbError> {
        self.invoker.invoke(Locked::root(), self, operation, args)
    }

    /// Stops the background prober and joins it, and takes the binding's
    /// replicas out of `replicas_healthy` and its breakers out of
    /// `breaker_state`. Called automatically on drop; safe to call multiple
    /// times.
    pub fn close(&self) {
        let held = Locked::root();
        let handle = {
            let (mut state, _) = self.replica_set.lock(held);
            if let Some(gauge) = state.healthy_gauge.take() {
                let serving = state.replicas.iter().filter(|r| r.standing.in_rotation());
                gauge.add(-(serving.count() as f64));
            }
            for replica in &mut state.replicas {
                if let Some(gauge) = replica.breaker_gauge.take() {
                    gauge.add(-f64::from(replica.standing.names().1));
                }
            }
            state.prober.take()
        };
        let _ = self.stop_tx.try_send(());
        if let Some(h) = handle {
            // The last strong reference can be dropped *by* the prober
            // thread (its `upgrade` briefly owns one); joining ourselves
            // would deadlock — the loop exits on its own in that case.
            if h.thread().id() != std::thread::current().id() {
                let _ = blocking::join(held, h);
            }
        }
    }

    /// The one place the failure machine moves: steps replica `idx` by
    /// `what`, under the table lock the caller holds, emits the effects and
    /// publishes what is [`steady`] now. A caller that moves the active
    /// replica does so first.
    fn apply(&self, state: &mut SetState, idx: usize, what: Event) {
        let replica = &mut state.replicas[idx];
        let (next, effects) = step(replica.standing, what, &self.policy);
        let before = replica.standing.names().1;
        replica.standing = next;
        if let (Some(value), Some(gauge)) = (effects.breaker, &replica.breaker_gauge) {
            gauge.add(f64::from(value) - f64::from(before));
        }
        let addr = &replica.reference.addr;
        if effects.breaker == Some(2) {
            let detail = format!("breaker open for replica {addr}");
            emit(&self.registry, None, event::BREAKER_OPEN, detail);
        }
        if effects.rotation < 0 {
            let detail = format!("replica {addr} evicted after consecutive failures");
            let counter = Some(names::REPLICA_EVICTIONS_TOTAL);
            emit(&self.registry, counter, event::REPLICA_EVICTED, detail);
        }
        if effects.readmitted {
            let detail = format!("replica {addr} re-admitted after probe");
            let counter = Some(names::REPLICA_READMISSIONS_TOTAL);
            emit(&self.registry, counter, event::REPLICA_READMITTED, detail);
        }
        match &state.healthy_gauge {
            Some(gauge) if effects.rotation != 0 => gauge.add(effects.rotation.into()),
            _ => {}
        }
        let steady = steady(state.active, state.replicas.iter().map(|r| r.standing));
        self.steady
            .store(steady.unwrap_or(UNSTEADY), Ordering::Release);
    }

    /// The replica [`steady`] named when the table lock was last let go.
    fn steady_replica(&self) -> Option<usize> {
        Some(self.steady.load(Ordering::Acquire)).filter(|&idx| idx != UNSTEADY)
    }

    /// Steps every replica by a call's `Look` or the prober's `Sweep`; reads
    /// the clock only while some replica is blocked or out (none else moves).
    fn step_all(&self, state: &mut SetState, at: fn(Instant) -> Event) {
        if state.replicas.iter().any(|r| !r.standing.eligible()) {
            let event = at(Instant::now());
            (0..state.replicas.len()).for_each(|idx| self.apply(state, idx, event));
        }
    }

    /// One sweep of the prober (tests drive it directly): half-opens
    /// cooled-down breakers, starts re-admission probes for evicted replicas
    /// whose backoff elapsed, and probes every replica not sitting out.
    pub(crate) fn probe_all(&self, held: &mut Locked<Unlocked>) {
        let due: Vec<(usize, ObjectRef)> = {
            let (mut state, _) = self.replica_set.lock(held);
            self.step_all(&mut state, Event::Sweep);
            let replicas = state.replicas.iter().enumerate();
            replicas
                .filter(|(_, r)| !matches!(r.standing, Standing::Out(_) | Standing::Cooled(_)))
                .map(|(idx, r)| (idx, r.reference.clone()))
                .collect()
        };
        for (idx, reference) in due {
            let what = if self.probe_one(held, &reference) {
                Event::ProbeOk
            } else {
                Event::Failed(Instant::now())
            };
            self.apply(&mut self.replica_set.lock(held).0, idx, what);
        }
    }

    /// Whether `reference` answers at all: any reply proving a live server
    /// — including "no such operation" for servants without a `_ping` —
    /// counts as alive; only transport-level failures count as dead.
    fn probe_one(&self, held: &mut Locked<Unlocked>, reference: &ObjectRef) -> bool {
        let Ok(stub) = self.orb.bind(reference) else {
            return false;
        };
        stub.set_timeout(self.policy.probe_timeout);
        let pong = stub
            .invoker
            .bound(held, &stub, 0)
            .and_then(|attempt| stub.invoker.invoke_once(held, attempt, "_ping", &[], None));
        match pong {
            Ok(_) => true,
            // A servant-level answer proves liveness.
            Err(cause) => matches!(
                cause,
                OrbError::OperationUnknown { .. }
                    | OrbError::ObjectNotFound(_)
                    | OrbError::UserException { .. }
                    | OrbError::QosNotSupported(_)
                    | OrbError::SystemException { .. }
                    | OrbError::Marshal(_)
                    | OrbError::Protocol(_)
            ),
        }
    }
}

impl ResolvedStub {
    /// [`Targets::pick`] under the table lock.
    fn pick_locked(
        &self,
        state: &mut SetState,
        failed: &[usize],
        operation: &str,
    ) -> Result<usize, OrbError> {
        self.step_all(state, Event::Look);
        let eligible = |i: &usize| !failed.contains(i) && state.replicas[*i].standing.eligible();
        if let Some(active) = state.active.filter(eligible) {
            return Ok(active);
        }
        let rung = |i: &usize| state.replicas[*i].match_rung;
        let Some(best_rung) = (0..state.replicas.len())
            .filter(eligible)
            .map(|i| rung(&i))
            .min()
        else {
            let members: Vec<String> = state
                .replicas
                .iter()
                .map(|r| r.reference.to_string())
                .collect();
            return Err(OrbError::Transport(format!(
                "no healthy replica available for `{operation}`: all {} candidate(s) evicted \
                 or breaker-open [{}]",
                members.len(),
                members.join(", ")
            )));
        };
        let best: Vec<usize> = (0..state.replicas.len())
            .filter(|i| eligible(i) && rung(i) == best_rung)
            .collect();
        state.rr = state.rr.wrapping_add(1);
        Ok(best[state.rr % best.len()])
    }
}

/// The replica table as the invocation pipeline's targets.
impl Targets for ResolvedStub {
    /// The active replica when still eligible, otherwise the best-ranked
    /// eligible one, rotating among equals. A first pick takes the
    /// [`steady`] replica without the lock, when there is one.
    fn pick(
        &self,
        held: &mut Locked<Unlocked>,
        failed: &[usize],
        operation: &str,
    ) -> Result<usize, OrbError> {
        match self.steady_replica() {
            Some(idx) if failed.is_empty() => Ok(idx),
            _ => self.pick_locked(&mut self.replica_set.lock(held).0, failed, operation),
        }
    }

    /// Replica `idx`, spoken to over GIOP. Switching to a replica binds it
    /// afresh, with the set's *current* operating point.
    fn locate(
        &self,
        held: &mut Locked<Unlocked>,
        idx: usize,
    ) -> Result<(Arc<Orb>, ObjectRef, WireProtocol), OrbError> {
        let reference = self.replica_set.lock(held).0.replicas[idx]
            .reference
            .clone();
        Ok((Arc::clone(&self.orb), reference, WireProtocol::Giop))
    }

    fn others_left(&self, held: &mut Locked<Unlocked>, idx: usize, failed: &[usize]) -> bool {
        let (mut state, _) = self.replica_set.lock(held);
        self.step_all(&mut state, Event::Look);
        (0..state.replicas.len())
            .any(|i| i != idx && !failed.contains(&i) && state.replicas[i].standing.eligible())
    }

    /// The replica becomes the active one; for the [`steady`] one, which is
    /// already, that changes nothing, and takes no lock.
    fn succeeded(&self, held: &mut Locked<Unlocked>, idx: usize) {
        if self.steady_replica() == Some(idx) {
            return;
        }
        let (mut state, _) = self.replica_set.lock(held);
        state.active = Some(idx);
        self.apply(&mut state, idx, Event::CallOk);
    }

    /// Also clears the active slot when it held `idx`, and drops the
    /// replica's endpoint, so that the next use binds it afresh.
    fn failed(&self, held: &mut Locked<Unlocked>, idx: usize) -> String {
        let addr = {
            let (mut state, _) = self.replica_set.lock(held);
            state.active = state.active.filter(|&active| active != idx);
            self.apply(&mut state, idx, Event::Failed(Instant::now()));
            state.replicas[idx].reference.addr.to_string()
        };
        self.invoker.unbind(held, idx);
        addr
    }
}

impl Drop for ResolvedStub {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OrbConfig;
    use crate::exchange::LocalExchange;
    use crate::object::OrbAddr;
    use crate::retry::RetryPolicy;
    use crate::server::OrbServer;
    use multe_qos::{QoSSpec, ServerPolicy};
    use std::time::Duration;

    /// Fast-failing client config with no background prober, so each test
    /// drives the state machine deterministically.
    fn client_config(registry: Option<Arc<Registry>>) -> OrbConfig {
        OrbConfig {
            call_timeout: Duration::from_millis(500),
            retry: Some(RetryPolicy {
                max_attempts: 2,
                initial_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(2),
                budget: Duration::from_secs(1),
                ..RetryPolicy::default()
            }),
            telemetry: registry,
            failover: crate::config::FailoverPolicy {
                probe_period: Duration::ZERO,
                probe_timeout: Duration::from_millis(100),
                suspect_threshold: 1,
                readmit_backoff: Duration::ZERO,
                breaker_threshold: 1,
                breaker_cooldown: Duration::from_millis(20),
            },
            ..OrbConfig::default()
        }
    }

    fn echo_server(exchange: &LocalExchange, name: &str) -> (Arc<Orb>, OrbServer) {
        let orb = Orb::with_exchange(&format!("server-{name}"), exchange.clone());
        orb.adapter()
            .register_fn("svc", |_op, args, _ctx| Ok(args.to_vec()))
            .expect("register");
        let server = orb.listen_chorus(name).expect("listen");
        (orb, server)
    }

    fn candidate(server: &OrbServer, rung: u32) -> ReplicaCandidate {
        ReplicaCandidate {
            reference: server.object_ref("svc"),
            match_rung: rung,
        }
    }

    #[test]
    fn failover_replays_on_next_replica() {
        let exchange = LocalExchange::new();
        let (_orb_a, server_a) = echo_server(&exchange, "rep-a");
        let (_orb_b, server_b) = echo_server(&exchange, "rep-b");
        let registry = Arc::new(Registry::new());
        let client = Orb::with_exchange_and_config(
            "client",
            exchange,
            client_config(Some(Arc::clone(&registry))),
        );
        // Unequal ranks make the initial pick deterministic: A is best.
        let resolved = client
            .bind_resolved(
                &[candidate(&server_a, 0), candidate(&server_b, 1)],
                QoSSpec::best_effort(),
                Vec::new(),
            )
            .expect("bind");
        let reply = resolved
            .invoke("echo", Bytes::from_static(b"one"))
            .expect("first call");
        assert_eq!(&reply[..], b"one");
        assert_eq!(
            resolved.active_replica().expect("active").addr.to_string(),
            "chorus://rep-a"
        );

        // Kill the active replica; the same logical stub must answer via B.
        server_a.close();
        let reply = resolved
            .invoke("echo", Bytes::from_static(b"two"))
            .expect("failover call");
        assert_eq!(&reply[..], b"two");
        assert_eq!(
            resolved.active_replica().expect("active").addr.to_string(),
            "chorus://rep-b"
        );
        let snap = registry.snapshot();
        assert!(snap.counter(names::FAILOVERS_TOTAL).unwrap_or(0) >= 1);
        assert!(snap.counter(names::REPLICA_EVICTIONS_TOTAL).unwrap_or(0) >= 1);
        resolved.close();
        server_b.close();
    }

    #[test]
    fn qos_reoffer_degrades_on_weaker_failover_target() {
        let exchange = LocalExchange::new();
        let (orb_a, server_a) = echo_server(&exchange, "qos-a");
        let (orb_b, server_b) = echo_server(&exchange, "qos-b");
        // A grants anything; B caps throughput at 64 kbit/s, so the
        // preferred 1 Mbit/s spec NACKs there and must degrade.
        orb_a
            .adapter()
            .set_policy(&"svc".into(), ServerPolicy::permissive());
        orb_b.adapter().set_policy(
            &"svc".into(),
            ServerPolicy::builder().max_throughput_bps(64_000).build(),
        );
        let client = Orb::with_exchange_and_config("client", exchange, client_config(None));
        let preferred = QoSSpec::builder()
            .throughput_bps(1_000_000, 800_000, 2_000_000)
            .build();
        let fallback = QoSSpec::builder()
            .throughput_bps(64_000, 1_000, 64_000)
            .build();
        let resolved = client
            .bind_resolved(
                &[candidate(&server_a, 0), candidate(&server_b, 1)],
                preferred,
                vec![fallback],
            )
            .expect("bind");
        resolved
            .invoke("echo", Bytes::from_static(b"hi"))
            .expect("call against A at full QoS");
        assert_eq!(resolved.consumed_rungs(), 0, "A granted the preferred spec");

        server_a.close();
        resolved
            .invoke("echo", Bytes::from_static(b"ho"))
            .expect("failover to B degrades");
        assert_eq!(
            resolved.active_replica().expect("active").addr.to_string(),
            "chorus://qos-b"
        );
        assert_eq!(
            resolved.consumed_rungs(),
            1,
            "B's NACK consumed the fallback rung"
        );
        resolved.close();
        server_b.close();
    }

    /// A degradation taken on one replica survives a failover away from
    /// it: A NACKs the preferred spec, the set degrades one rung, A's link
    /// severs, the retries are spent — and B must be offered the fallback
    /// A had already degraded to, not the preferred spec again.
    #[test]
    fn degradation_taken_before_a_failover_is_kept() {
        let exchange = LocalExchange::new();
        let (orb_a, server_a) = echo_server(&exchange, "keep-a");
        // B grants anything and answers with the throughput it granted,
        // so the test sees what B was actually offered.
        let orb_b = Orb::with_exchange("server-keep-b", exchange.clone());
        orb_b
            .adapter()
            .register_fn("svc", |_op, _args, ctx| {
                Ok(format!("{:?}", ctx.granted().throughput_bps()).into_bytes())
            })
            .expect("register");
        let server_b = orb_b.listen_chorus("keep-b").expect("listen");
        let registry = Arc::new(Registry::new());
        let plans = cool_faults::PlanSet::default().set(
            "chorus://keep-a",
            cool_faults::FaultPlan::builder()
                .sever_after(Some(2))
                .build()
                .expect("valid plan"),
        );
        let mut config = client_config(Some(Arc::clone(&registry)));
        config.fault_plans = Some(Arc::new(plans));
        let client = Orb::with_exchange_and_config("client", exchange.clone(), config);
        let preferred = QoSSpec::builder()
            .throughput_bps(1_000_000, 800_000, 2_000_000)
            .build();
        let fallback = QoSSpec::builder()
            .throughput_bps(64_000, 1_000, 64_000)
            .build();
        let resolved = client
            .bind_resolved(
                &[candidate(&server_a, 0), candidate(&server_b, 1)],
                preferred,
                vec![fallback],
            )
            .expect("bind");
        resolved
            .invoke("echo", Bytes::from_static(b"one"))
            .expect("A grants the preferred spec");
        assert_eq!(resolved.consumed_rungs(), 0);

        // A now NACKs the preferred spec (frame 2), grants the fallback —
        // whose request (frame 3) severs the link — and cannot be redialled.
        orb_a.adapter().set_policy(
            &"svc".into(),
            ServerPolicy::builder().max_throughput_bps(64_000).build(),
        );
        exchange.unlisten("chorus", "keep-a");
        let reply = resolved
            .invoke("echo", Bytes::from_static(b"two"))
            .expect("failover to B");
        assert_eq!(
            resolved.active_replica().expect("active").addr.to_string(),
            "chorus://keep-b"
        );
        assert_eq!(&reply[..], b"Some(64000)", "B was offered the fallback");
        assert_eq!(
            resolved.consumed_rungs(),
            1,
            "the rung A consumed stays consumed"
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter(names::QOS_DEGRADATIONS_TOTAL), Some(1));
        assert_eq!(snap.counter(names::FAILOVERS_TOTAL), Some(1));
        let kinds: Vec<&str> = registry.flight().events().iter().map(|e| e.kind).collect();
        assert!(
            kinds.contains(&event::QOS_DEGRADE) && kinds.contains(&event::FAILOVER),
            "{kinds:?}"
        );
        resolved.close();
        server_a.close();
        server_b.close();
    }

    /// What one call came to: the reply, or the error's variant and (for
    /// `RetriesExhausted`) its attempt count.
    fn shape(result: Result<Bytes, OrbError>) -> String {
        match result {
            Ok(body) => format!("ok {body:?}"),
            Err(OrbError::RetriesExhausted { attempts, .. }) => {
                format!("retries exhausted after {attempts}")
            }
            Err(other) => format!("{:?}", std::mem::discriminant(&other)),
        }
    }

    /// One seeded run — a NACK that degrades, a sever healed by a retry,
    /// then the server gone for good — through `bind`, returning each
    /// call's shape and the retry/degradation counters.
    fn pipeline_run(
        bind: impl FnOnce(
            &Arc<Orb>,
            &OrbServer,
            QoSSpec,
            Vec<QoSSpec>,
        ) -> Box<dyn Fn() -> Result<Bytes, OrbError>>,
    ) -> (Vec<String>, Option<u64>, Option<u64>) {
        let exchange = LocalExchange::new();
        let (orb, server) = echo_server(&exchange, "same");
        orb.adapter().set_policy(
            &"svc".into(),
            ServerPolicy::builder().max_throughput_bps(64_000).build(),
        );
        let registry = Arc::new(Registry::new());
        let mut config = client_config(Some(Arc::clone(&registry)));
        let plan = cool_faults::FaultPlan::builder()
            .seed(0x5A3E)
            .delay(0.3, Duration::from_millis(1))
            .sever_after(Some(3))
            .build()
            .expect("valid plan");
        config.fault_plans = Some(Arc::new(cool_faults::PlanSet::default().with_default(plan)));
        // Health must not cut the comparison short: a plain stub has none.
        config.failover.suspect_threshold = u32::MAX;
        config.failover.breaker_threshold = u32::MAX;
        let client = Orb::with_exchange_and_config("client", exchange, config);
        let preferred = QoSSpec::builder()
            .throughput_bps(1_000_000, 800_000, 2_000_000)
            .build();
        let fallback = QoSSpec::builder()
            .throughput_bps(64_000, 1_000, 64_000)
            .build();
        let call = bind(&client, &server, preferred, vec![fallback]);
        let mut shapes: Vec<String> = (0..3).map(|_| shape(call())).collect();
        server.close();
        shapes.extend((0..2).map(|_| shape(call())));
        let snap = registry.snapshot();
        (
            shapes,
            snap.counter(names::RETRIES_TOTAL),
            snap.counter(names::QOS_DEGRADATIONS_TOTAL),
        )
    }

    #[test]
    fn plain_stub_is_the_one_replica_case() {
        let plain = pipeline_run(|client, server, preferred, ladder| {
            let stub = client.bind(&server.object_ref("svc")).expect("bind");
            stub.set_qos_parameter(preferred).expect("qos");
            stub.set_qos_ladder(ladder);
            Box::new(move || stub.invoke("echo", Bytes::from_static(b"x")))
        });
        let resolved = pipeline_run(|client, server, preferred, ladder| {
            let stub = client
                .bind_resolved(&[candidate(server, 0)], preferred, ladder)
                .expect("bind");
            Box::new(move || stub.invoke("echo", Bytes::from_static(b"x")))
        });
        assert_eq!(plain, resolved);
        let (shapes, retries, degradations) = plain;
        assert_eq!(degradations, Some(1), "the NACK degraded once");
        assert!(
            retries >= Some(3),
            "one healed sever, two exhausted calls: {retries:?}"
        );
        assert!(
            shapes[..3].iter().all(|s| s.starts_with("ok")),
            "{shapes:?}"
        );
        assert!(
            shapes[3..].iter().all(|s| s == "retries exhausted after 2"),
            "{shapes:?}"
        );
    }

    /// Walks one replica through every health and breaker transition,
    /// reading the two gauges and the flight events each one emits.
    #[test]
    fn breaker_opens_then_probe_readmits_after_restart() {
        let exchange = LocalExchange::new();
        let (_orb_a, server_a) = echo_server(&exchange, "cycle-a");
        let registry = Arc::new(Registry::new());
        let mut config = client_config(Some(Arc::clone(&registry)));
        // Two strikes: the first failure leaves the replica suspect and its
        // breaker closed.
        config.failover.suspect_threshold = 2;
        config.failover.breaker_threshold = 2;
        let cooldown = config.failover.breaker_cooldown;
        let client = Orb::with_exchange_and_config("client", exchange.clone(), config);
        let breaker_gauge = Registry::labeled(
            names::BREAKER_STATE,
            &[("replica", &server_a.object_ref("svc").addr.to_string())],
        );
        let resolved = client
            .bind_resolved(
                &[candidate(&server_a, 0)],
                QoSSpec::best_effort(),
                Vec::new(),
            )
            .expect("bind");
        let gauges = || {
            let snap = registry.snapshot();
            (
                snap.gauge(names::REPLICAS_HEALTHY),
                snap.gauge(&breaker_gauge),
            )
        };
        let states = || {
            let snap = resolved.replicas();
            (snap[0].health, snap[0].breaker)
        };
        let flights = |kind: &str| {
            registry
                .flight()
                .events()
                .iter()
                .filter(|e| e.kind == kind)
                .count()
        };
        let fail = |what: &'static str| {
            let err = resolved
                .invoke("echo", Bytes::from_static(b"down"))
                .expect_err(what);
            assert!(
                !matches!(err, OrbError::Timeout { .. }),
                "{what}: must fail attributed, got {err:?}"
            );
        };
        assert_eq!(
            gauges(),
            (Some(1.0), Some(0.0)),
            "registered: healthy, closed"
        );
        resolved
            .invoke("echo", Bytes::from_static(b"up"))
            .expect("healthy call");

        server_a.close();
        fail("first strike");
        assert_eq!(states(), ("suspect", "closed"));
        assert_eq!(
            gauges(),
            (Some(1.0), Some(0.0)),
            "a suspect replica stays in rotation"
        );
        let (_orb_a2, server_a2) = echo_server(&exchange, "cycle-a");
        resolved
            .invoke("echo", Bytes::from_static(b"back"))
            .expect("a call resets the streak");
        assert_eq!(states(), ("healthy", "closed"));

        server_a2.close();
        fail("first strike again");
        fail("second strike");
        assert_eq!(states(), ("evicted", "open"));
        assert_eq!(gauges(), (Some(0.0), Some(2.0)));
        assert_eq!(flights(event::REPLICA_EVICTED), 1);
        assert_eq!(flights(event::BREAKER_OPEN), 1);

        // Cooled down, the breaker half-opens for the sweep's one probe;
        // the probe fails, the breaker re-opens, the replica stays out.
        std::thread::sleep(cooldown + Duration::from_millis(10));
        resolved.probe_all(Locked::root());
        assert_eq!(states(), ("evicted", "open"));
        assert_eq!(
            flights(event::BREAKER_OPEN),
            2,
            "the failed trial re-opened it"
        );
        assert_eq!(gauges(), (Some(0.0), Some(2.0)));

        // Restart the replica under the same name; a probe sweep (the
        // prober thread's body, driven directly here) re-admits it.
        let (_orb_a3, server_a3) = echo_server(&exchange, "cycle-a");
        std::thread::sleep(cooldown + Duration::from_millis(10));
        resolved.probe_all(Locked::root());
        assert_eq!(states(), ("healthy", "closed"));
        assert_eq!(gauges(), (Some(1.0), Some(0.0)));
        assert_eq!(flights(event::REPLICA_READMITTED), 1);
        resolved
            .invoke("echo", Bytes::from_static(b"back"))
            .expect("call after re-admission");
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter(names::REPLICA_READMISSIONS_TOTAL), Some(1));
        assert_eq!(snapshot.counter(names::REPLICA_EVICTIONS_TOTAL), Some(1));
        resolved.close();
        server_a3.close();
    }

    #[test]
    fn empty_candidate_set_is_rejected() {
        let client = Orb::with_exchange("client", LocalExchange::new());
        match client.bind_resolved(&[], QoSSpec::best_effort(), Vec::new()) {
            Err(OrbError::BadAddress(msg)) => {
                // The rejection is attributed: it says what the binding
                // asked for, not just that the set was empty.
                assert!(msg.contains("required QoS"), "unattributed: {msg}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn exhausted_replica_set_error_names_the_candidates() {
        let exchange = LocalExchange::new();
        let (_orb_a, server_a) = echo_server(&exchange, "attr-a");
        let (_orb_b, server_b) = echo_server(&exchange, "attr-b");
        let client = Orb::with_exchange_and_config("client", exchange, client_config(None));
        let resolved = client
            .bind_resolved(
                &[candidate(&server_a, 0), candidate(&server_b, 0)],
                QoSSpec::best_effort(),
                Vec::new(),
            )
            .expect("bind");
        // Kill both replicas: the first invoke evicts them (threshold 1,
        // no prober to re-admit), so the second finds nothing eligible on
        // its first lap and must fall back to the attributed summary.
        server_a.close();
        server_b.close();
        let _ = resolved.invoke("echo", Bytes::from_static(b"x"));
        match resolved.invoke("echo", Bytes::from_static(b"y")) {
            Err(OrbError::Transport(msg)) => {
                assert!(
                    msg.contains("all 2 candidate(s)") && msg.contains("attr-a"),
                    "unattributed: {msg}"
                );
            }
            other => panic!("expected attributed Transport error, got {other:?}"),
        }
        resolved.close();
    }

    #[test]
    fn fresh_bindings_rotate_across_equal_replicas() {
        let exchange = LocalExchange::new();
        let (_orb_a, server_a) = echo_server(&exchange, "rot-a");
        let (_orb_b, server_b) = echo_server(&exchange, "rot-b");
        let client = Orb::with_exchange_and_config("client", exchange, client_config(None));
        let candidates = [candidate(&server_a, 0), candidate(&server_b, 0)];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..4 {
            let resolved = client
                .bind_resolved(&candidates, QoSSpec::best_effort(), Vec::new())
                .expect("bind");
            if let Some(reference) = resolved.active_replica() {
                seen.insert(reference.addr.to_string());
            }
            resolved.close();
        }
        assert_eq!(
            seen.len(),
            2,
            "initial picks rotate across equals: {seen:?}"
        );
        server_a.close();
        server_b.close();
    }

    /// Two resolved bindings on one registry: `replicas_healthy` is the sum
    /// of their replicas in rotation, and a closed binding takes its share
    /// back once, however often it is closed.
    #[test]
    fn replicas_healthy_sums_the_bindings_of_a_registry() {
        let exchange = LocalExchange::new();
        let (_orb_a, server_a) = echo_server(&exchange, "sum-a");
        let (_orb_b, server_b) = echo_server(&exchange, "sum-b");
        let registry = Arc::new(Registry::new());
        let config = client_config(Some(Arc::clone(&registry)));
        let client = Orb::with_exchange_and_config("client", exchange, config);
        let healthy = || registry.snapshot().gauge(names::REPLICAS_HEALTHY);
        let bind = |candidates: &[ReplicaCandidate]| {
            client
                .bind_resolved(candidates, QoSSpec::best_effort(), Vec::new())
                .expect("bind")
        };
        let both = bind(&[candidate(&server_a, 0), candidate(&server_b, 1)]);
        let only_b = bind(&[candidate(&server_b, 0)]);
        assert_eq!(healthy(), Some(3.0), "two bindings, three replicas");

        server_a.close();
        both.invoke("echo", Bytes::from_static(b"x"))
            .expect("fails over to B");
        assert_eq!(healthy(), Some(2.0), "A evicted from the first binding");
        only_b.close();
        only_b.close();
        drop(only_b);
        assert_eq!(healthy(), Some(1.0), "the second binding's share is back");
        both.close();
        assert_eq!(healthy(), Some(0.0));
        server_b.close();
    }

    /// Two resolved bindings of one replica on one registry:
    /// `breaker_state{replica}` is the sum of their breakers, and a closed
    /// binding takes its breaker back once, however often it is closed.
    #[test]
    fn breaker_state_sums_the_bindings_of_a_replica() {
        let exchange = LocalExchange::new();
        let (_orb_a, server_a) = echo_server(&exchange, "brk-a");
        let registry = Arc::new(Registry::new());
        let config = client_config(Some(Arc::clone(&registry)));
        let client = Orb::with_exchange_and_config("client", exchange, config);
        let breaker = Registry::labeled(
            names::BREAKER_STATE,
            &[("replica", &server_a.object_ref("svc").addr.to_string())],
        );
        let open = || registry.snapshot().gauge(&breaker);
        let bind = || {
            client
                .bind_resolved(
                    &[candidate(&server_a, 0)],
                    QoSSpec::best_effort(),
                    Vec::new(),
                )
                .expect("bind")
        };
        let first = bind();
        server_a.close();
        first
            .invoke("echo", Bytes::from_static(b"x"))
            .expect_err("its one replica is gone");
        assert_eq!(open(), Some(2.0), "the first binding's breaker opened");
        let second = bind();
        assert_eq!(
            open(),
            Some(2.0),
            "a second binding's closed breaker adds 0"
        );
        second
            .invoke("echo", Bytes::from_static(b"x"))
            .expect_err("its one replica is gone");
        assert_eq!(open(), Some(4.0), "both breakers open");
        first.close();
        first.close();
        drop(first);
        assert_eq!(open(), Some(2.0), "the first binding's share is back");
        second.close();
        assert_eq!(open(), Some(0.0));
    }

    /// The parent's two machines per replica, `Health` and `Breaker`, kept
    /// as the reference `step` is explored against. Their transition code
    /// is as it stood in `note_success`, `note_failure`,
    /// `note_probe_success`, `half_open_cooled` and `probe_all`, but for
    /// the clock (`now`, the exploration's) and the registry (`log`, the
    /// flight events in the order they were emitted; each counter goes with
    /// its event). The breaker gauge was always the breaker's encoding, and
    /// `replicas_healthy` the count in rotation.
    mod pair {
        use crate::config::FailoverPolicy;
        use cool_telemetry::flight::event;
        use std::time::Instant;

        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub(super) enum Health {
            Healthy,
            Suspect(u32),
            Evicted,
            Probing,
        }

        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub(super) enum Breaker {
            Closed(u32),
            Open(Instant),
            HalfOpen,
        }

        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub(super) struct ReplicaState {
            pub(super) health: Health,
            pub(super) breaker: Breaker,
            pub(super) evicted_at: Option<Instant>,
        }

        impl ReplicaState {
            pub(super) const REGISTERED: Self = ReplicaState {
                health: Health::Healthy,
                breaker: Breaker::Closed(0),
                evicted_at: None,
            };

            pub(super) fn in_rotation(&self) -> bool {
                matches!(self.health, Health::Healthy | Health::Suspect(_))
            }

            pub(super) fn eligible(&self) -> bool {
                self.in_rotation() && !matches!(self.breaker, Breaker::Open(_))
            }

            fn set_breaker(&mut self, breaker: Breaker) {
                self.breaker = breaker;
            }

            /// The snapshot's names and the breaker gauge's value.
            pub(super) fn names(&self) -> (&'static str, u8) {
                let health = match self.health {
                    Health::Healthy => "healthy",
                    Health::Suspect(_) => "suspect",
                    Health::Evicted => "evicted",
                    Health::Probing => "probing",
                };
                let breaker = match self.breaker {
                    Breaker::Closed(_) => 0,
                    Breaker::HalfOpen => 1,
                    Breaker::Open(_) => 2,
                };
                (health, breaker)
            }

            /// `half_open_cooled`, for one replica.
            pub(super) fn half_open_cooled(&mut self, now: Instant, policy: &FailoverPolicy) {
                if matches!(self.breaker, Breaker::Open(since)
                    if now.duration_since(since) >= policy.breaker_cooldown)
                {
                    self.set_breaker(Breaker::HalfOpen);
                }
            }

            /// `note_success`, for one replica.
            pub(super) fn note_success(&mut self) {
                let replica = self;
                replica.health = Health::Healthy;
                replica.evicted_at = None;
                replica.set_breaker(Breaker::Closed(0));
            }

            /// `note_failure`, for one replica.
            pub(super) fn note_failure(
                &mut self,
                now: Instant,
                policy: &FailoverPolicy,
                log: &mut Vec<&'static str>,
            ) {
                let replica = self;
                match replica.breaker {
                    Breaker::Closed(failures) if failures + 1 < policy.breaker_threshold => {
                        replica.set_breaker(Breaker::Closed(failures + 1));
                    }
                    // The threshold is reached, or a trial call failed: (re-)open.
                    Breaker::Closed(_) | Breaker::HalfOpen => {
                        replica.set_breaker(Breaker::Open(now));
                        log.push(event::BREAKER_OPEN);
                    }
                    Breaker::Open(_) => {}
                }
                let evict = match replica.health {
                    Health::Healthy | Health::Suspect(_) => {
                        let streak = match replica.health {
                            Health::Suspect(n) => n + 1,
                            _ => 1,
                        };
                        let evict = streak >= policy.suspect_threshold;
                        replica.health = if evict {
                            Health::Evicted
                        } else {
                            Health::Suspect(streak)
                        };
                        evict
                    }
                    // A failed re-admission probe sends it back to evicted (the
                    // backoff clock restarts).
                    Health::Probing => {
                        replica.health = Health::Evicted;
                        replica.evicted_at = Some(now);
                        false
                    }
                    Health::Evicted => false,
                };
                if evict {
                    replica.evicted_at = Some(now);
                    log.push(event::REPLICA_EVICTED);
                }
            }

            /// `probe_all`'s sweep, for one replica: whether it is probed.
            pub(super) fn sweep(&mut self, now: Instant, policy: &FailoverPolicy) -> bool {
                self.half_open_cooled(now, policy);
                let replica = self;
                let sat_out = replica
                    .evicted_at
                    .is_none_or(|at| now.duration_since(at) >= policy.readmit_backoff);
                if replica.health == Health::Evicted && sat_out {
                    replica.health = Health::Probing;
                }
                replica.health != Health::Evicted
            }

            /// `note_probe_success`, for one replica.
            pub(super) fn note_probe_success(&mut self, log: &mut Vec<&'static str>) {
                let replica = self;
                let was_out = matches!(replica.health, Health::Probing | Health::Evicted);
                replica.health = Health::Healthy;
                replica.evicted_at = None;
                replica.set_breaker(Breaker::Closed(0));
                if was_out {
                    log.push(event::REPLICA_READMITTED);
                }
            }
        }
    }

    /// Replicas in an explored table.
    const R: usize = 2;

    /// One event of the exploration: the clock advancing one unit, a call's
    /// look, the prober's sweep, or a call or probe of replica `.0`
    /// answering (`.1`) or failing. A call looks first, as `pick` does.
    #[derive(Debug, Clone, Copy)]
    enum Ev {
        Tick,
        Look,
        Sweep,
        Call(usize, bool),
        Probe(usize, bool),
    }

    const EVENTS: [Ev; 3 + 4 * R] = [
        Ev::Tick,
        Ev::Look,
        Ev::Sweep,
        Ev::Call(0, true),
        Ev::Call(0, false),
        Ev::Call(1, true),
        Ev::Call(1, false),
        Ev::Probe(0, true),
        Ev::Probe(0, false),
        Ev::Probe(1, true),
        Ev::Probe(1, false),
    ];

    /// Both models of one table after the same events.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct World {
        now: u64,
        pair: [pair::ReplicaState; R],
        standing: [Standing; R],
        /// The breaker gauges and `replicas_healthy` as `step`'s effects
        /// left them.
        gauges: [u8; R],
        healthy: i64,
        /// The active replica: a call's success makes it so, its failure
        /// clears it.
        active: Option<usize>,
        /// Whether each event so far is one the code can bring about in
        /// order: a call's result for a replica a call may pick, a probe's
        /// for one the sweep probes. A result that lands after its
        /// replica moved on (another thread's event in between) is not.
        sequential: bool,
    }

    /// Flight events of one step, by replica.
    type Log = Vec<(usize, &'static str)>;

    /// What the apply site emits for `effects`, in its order.
    fn emitted(effects: &Effects) -> Vec<&'static str> {
        let mut kinds = Vec::new();
        if effects.breaker == Some(2) {
            kinds.push(event::BREAKER_OPEN);
        }
        if effects.rotation < 0 {
            kinds.push(event::REPLICA_EVICTED);
        }
        if effects.readmitted {
            kinds.push(event::REPLICA_READMITTED);
        }
        kinds
    }

    impl World {
        fn new() -> Self {
            World {
                now: 0,
                pair: [pair::ReplicaState::REGISTERED; R],
                standing: [Standing::Serving(0); R],
                gauges: [0; R],
                healthy: R as i64,
                active: Some(0),
                sequential: true,
            }
        }

        /// `ResolvedStub::apply` on the model: steps replica `r` and
        /// applies the effects to the gauges; returns the flight events.
        fn apply(&mut self, r: usize, event: Event, policy: &FailoverPolicy) -> Vec<&'static str> {
            let (next, effects) = step(self.standing[r], event, policy);
            self.standing[r] = next;
            if let Some(value) = effects.breaker {
                self.gauges[r] = value;
            }
            self.healthy += i64::from(effects.rotation);
            emitted(&effects)
        }

        /// Which replicas a call may pick now, by each model.
        fn callable(&self, at: Instant, policy: &FailoverPolicy) -> ([bool; R], [bool; R]) {
            let mut pair = self.pair;
            pair.iter_mut().for_each(|p| p.half_open_cooled(at, policy));
            let new = self
                .standing
                .map(|s| step(s, Event::Look(at), policy).0.eligible());
            (pair.map(|p| p.eligible()), new)
        }

        /// Which replicas a sweep now would probe, by each model.
        fn swept(&self, at: Instant, policy: &FailoverPolicy) -> ([bool; R], [bool; R]) {
            let mut pair = self.pair;
            let old = std::array::from_fn(|r| pair[r].sweep(at, policy));
            let new = self.standing.map(|s| {
                let next = step(s, Event::Sweep(at), policy).0;
                !matches!(next, Standing::Out(_) | Standing::Cooled(_))
            });
            (old, new)
        }

        /// Both models after `ev`, with each one's flight events.
        fn after(&self, ev: Ev, base: Instant, policy: &FailoverPolicy) -> (World, Log, Log) {
            let mut w = self.clone();
            let at = base + Duration::from_millis(w.now);
            let (mut old_log, mut new_log) = (Vec::new(), Vec::new());
            let look = |w: &mut World, log: &mut Log| {
                for r in 0..R {
                    w.pair[r].half_open_cooled(at, policy);
                    let kinds = w.apply(r, Event::Look(at), policy);
                    log.extend(kinds.into_iter().map(|k| (r, k)));
                }
            };
            match ev {
                Ev::Tick => w.now += 1,
                Ev::Look => look(&mut w, &mut new_log),
                Ev::Sweep => {
                    for r in 0..R {
                        w.pair[r].sweep(at, policy);
                        let kinds = w.apply(r, Event::Sweep(at), policy);
                        new_log.extend(kinds.into_iter().map(|k| (r, k)));
                    }
                }
                Ev::Call(r, ok) | Ev::Probe(r, ok) => {
                    let call = matches!(ev, Ev::Call(..));
                    if call {
                        look(&mut w, &mut new_log);
                        w.sequential &= w.pair[r].eligible();
                    } else {
                        w.sequential &= w.pair[r].health != pair::Health::Evicted;
                    }
                    let mut log = Vec::new();
                    if call {
                        w.active = Some(r).filter(|_| ok).or(w.active.filter(|&a| a != r));
                    }
                    let event = match (ok, call) {
                        (true, true) => {
                            w.pair[r].note_success();
                            Event::CallOk
                        }
                        (true, false) => {
                            w.pair[r].note_probe_success(&mut log);
                            Event::ProbeOk
                        }
                        (false, _) => {
                            w.pair[r].note_failure(at, policy, &mut log);
                            Event::Failed(at)
                        }
                    };
                    old_log.extend(log.into_iter().map(|k| (r, k)));
                    let kinds = w.apply(r, event, policy);
                    new_log.extend(kinds.into_iter().map(|k| (r, k)));
                }
            }
            (w, old_log, new_log)
        }
    }

    /// Where the two models may part, for one config: `None` when they
    /// agree on everything observable. Calls and sweeps agree always; so
    /// do the health names, `replicas_healthy` and the eviction and
    /// re-admission events. The breaker's names, gauge and `breaker_open`
    /// events agree where `breaker_threshold == suspect_threshold`,
    /// `readmit_backoff >= breaker_cooldown` and the events came in order.
    fn disagreement(
        before: &World,
        after: &World,
        logs: (&Log, &Log),
        base: Instant,
        policy: &FailoverPolicy,
    ) -> Option<String> {
        let at = base + Duration::from_millis(after.now);
        let (old_call, new_call) = after.callable(at, policy);
        if old_call != new_call {
            return Some(format!("callable: pair {old_call:?}, step {new_call:?}"));
        }
        let (old_swept, new_swept) = after.swept(at, policy);
        if old_swept != new_swept {
            return Some(format!("swept: pair {old_swept:?}, step {new_swept:?}"));
        }
        for r in 0..R {
            let (old, new) = (after.pair[r].names(), after.standing[r].names());
            if old.0 != new.0 {
                return Some(format!("replica {r} health: pair {old:?}, step {new:?}"));
            }
            if after.gauges[r] != new.1 {
                return Some(format!(
                    "replica {r}: gauge {} for {new:?}",
                    after.gauges[r]
                ));
            }
            // A look or sweep moves no replica a call may pick: `step_all`
            // skips the clock while every replica is callable.
            let s = before.standing[r];
            for moved in [Event::Look(at), Event::Sweep(at)].map(|e| step(s, e, policy).0) {
                if s.eligible() && moved != s {
                    return Some(format!("replica {r}: a look moved {s:?} to {moved:?}"));
                }
            }
        }
        let in_rotation = after.pair.iter().filter(|p| p.in_rotation()).count() as i64;
        let standing = after.standing.iter().filter(|s| s.in_rotation()).count() as i64;
        if (in_rotation, standing) != (after.healthy, after.healthy) {
            return Some(format!(
                "replicas_healthy: pair {in_rotation}, step {} ({standing} in rotation)",
                after.healthy
            ));
        }
        let strict = policy.breaker_threshold == policy.suspect_threshold
            && policy.readmit_backoff >= policy.breaker_cooldown
            && after.sequential;
        let shown = |log: &Log| -> Log {
            let kept = log
                .iter()
                .filter(|(_, k)| strict || *k != event::BREAKER_OPEN);
            kept.copied().collect()
        };
        if shown(logs.0) != shown(logs.1) {
            return Some(format!("events: pair {:?}, step {:?}", logs.0, logs.1));
        }
        let breakers = |w: &World| w.pair.map(|p| p.names().1);
        if strict && breakers(after) != after.gauges {
            return Some(format!(
                "breakers: pair {:?}, step {:?}",
                breakers(after),
                after.gauges
            ));
        }
        None
    }

    /// Where [`steady`] is wrong for the world `w`, on the table of `stub`:
    /// if it names replica `idx`, a locked pick with no target failed must
    /// return `idx` and move no replica, and a call's success on `idx` must
    /// be the identity with no effects.
    fn unsteady(w: &World, stub: &ResolvedStub, policy: &FailoverPolicy) -> Option<String> {
        let idx = steady(w.active, w.standing.iter().copied())?;
        let (mut state, _) = stub.replica_set.lock(Locked::root());
        state.active = w.active;
        for (replica, standing) in state.replicas.iter_mut().zip(w.standing) {
            replica.standing = standing;
        }
        let picked = stub.pick_locked(&mut state, &[], "explore");
        if !matches!(picked, Ok(i) if i == idx) {
            return Some(format!("steady {idx}: a locked pick gave {picked:?}"));
        }
        if !state.replicas.iter().map(|r| r.standing).eq(w.standing) {
            return Some(format!("steady {idx}: a locked pick moved a replica"));
        }
        let (next, effects) = step(w.standing[idx], Event::CallOk, policy);
        if next != w.standing[idx] || !emitted(&effects).is_empty() || effects.breaker.is_some() {
            let was = w.standing[idx];
            return Some(format!("steady {idx}: a success moved {was:?} to {next:?}"));
        }
        None
    }

    /// Drives the failure machine and the pair it replaced, breadth first,
    /// over every sequence of `EVENTS` to depth 8 on a two-replica table,
    /// for every threshold pair in {1,2,3}² and a cooldown shorter than,
    /// longer than and equal to (both zero) the re-admission backoff; after
    /// every step the two must agree (`disagreement`), and the replica
    /// [`steady`] names must be one a locked pick returns and a success
    /// leaves alone (`unsteady`, on a stub of the same policy). A failure
    /// prints the config and the event sequence that parts them.
    #[test]
    fn failure_machine_agrees_with_the_pair_it_replaced() {
        const DEPTH: usize = 8;
        let base = Instant::now();
        let mut worlds = 0;
        for suspect_threshold in 1..=3 {
            for breaker_threshold in 1..=3 {
                for (cooldown, backoff) in [(1, 2), (2, 1), (0, 0)] {
                    let policy = FailoverPolicy {
                        probe_period: Duration::ZERO,
                        probe_timeout: Duration::ZERO,
                        suspect_threshold,
                        readmit_backoff: Duration::from_millis(backoff),
                        breaker_threshold,
                        breaker_cooldown: Duration::from_millis(cooldown),
                    };
                    let config = OrbConfig {
                        failover: policy.clone(),
                        ..OrbConfig::default()
                    };
                    let orb =
                        Orb::with_exchange_and_config("explore", LocalExchange::new(), config);
                    let candidates: Vec<ReplicaCandidate> = (0..R)
                        .map(|r| ReplicaCandidate {
                            reference: ObjectRef::new(OrbAddr::Chorus(format!("r{r}")), "svc"),
                            match_rung: 0,
                        })
                        .collect();
                    let stub = orb
                        .bind_resolved(&candidates, QoSSpec::best_effort(), Vec::new())
                        .expect("bind");
                    let mut seen = std::collections::HashSet::new();
                    let mut frontier = vec![(World::new(), Vec::new())];
                    seen.insert(World::new());
                    for _ in 0..DEPTH {
                        let mut next = Vec::new();
                        for (world, trace) in &frontier {
                            for ev in EVENTS {
                                let (after, old, new) = world.after(ev, base, &policy);
                                let mut trace: Vec<Ev> = trace.clone();
                                trace.push(ev);
                                if let Some(why) =
                                    disagreement(world, &after, (&old, &new), base, &policy)
                                        .or_else(|| unsteady(&after, &stub, &policy))
                                {
                                    panic!("{policy:?}\nafter {trace:?}:\n{why}");
                                }
                                if seen.insert(after.clone()) {
                                    next.push((after, trace));
                                }
                            }
                        }
                        frontier = next;
                    }
                    worlds += seen.len();
                }
            }
        }
        println!("{worlds} worlds explored");
    }
}
