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
//! * **Health and breakers** — consecutive failures evict a replica
//!   (healthy → suspect → evicted); a background prober re-admits it after
//!   backoff once it answers again; a per-replica circuit breaker opens
//!   under repeated failure and half-opens after a cooldown
//!   ([`crate::config::FailoverPolicy`]).

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
use std::time::Instant;

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

/// Health of one replica within a resolved binding (DESIGN.md §8.3:
/// healthy → suspect → evicted → probing → re-admitted). Each variant
/// names the transitions into it, the function making each, and what it
/// emits beyond the `replicas_healthy` gauge (replicas in rotation), which
/// every transition refreshes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Health {
    /// In rotation, no recent failures. Entered when the replica is
    /// registered (`bind_resolved`), when a call succeeds and resets a
    /// `Suspect` streak (`note_success`), and when a probe reply proves a
    /// `Probing` replica alive (`note_probe_success`: also
    /// `replica_readmissions_total` and flight `replica_readmitted`).
    Healthy,
    /// In rotation with this many consecutive failures: a failure below
    /// `suspect_threshold` (`note_failure`).
    Suspect(u32),
    /// Out of rotation; only the prober may touch it. Entered at
    /// `suspect_threshold` consecutive failures (`note_failure`: also
    /// `replica_evictions_total` and flight `replica_evicted`), and back
    /// from `Probing` when the probe fails (`note_failure`).
    Evicted,
    /// An evicted replica currently being probed for re-admission: its
    /// `readmit_backoff` elapsed and the prober took it (`probe_all`).
    Probing,
}

/// Per-replica circuit breaker. Every transition sets the
/// `breaker_state{replica}` gauge (0 closed, 1 half-open, 2 open).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Breaker {
    /// Calls flow; counts consecutive failures. Entered when the replica
    /// is registered (`bind_resolved`), from any state when a call
    /// succeeds (`note_success`) or a probe reply proves the server alive
    /// (`note_probe_success`); a failure below `breaker_threshold` bumps
    /// the count (`note_failure`).
    Closed(u32),
    /// Calls blocked since the given instant. Entered at
    /// `breaker_threshold` consecutive failures, or when the one trial
    /// call of `HalfOpen` fails (`note_failure`: also flight
    /// `breaker_open`).
    Open(Instant),
    /// Cooldown elapsed; one trial call may pass. Entered once
    /// `breaker_cooldown` has passed since opening, as a call picks a
    /// target or the prober sweeps (`half_open_cooled`).
    HalfOpen,
}

struct ReplicaState {
    reference: ObjectRef,
    match_rung: u32,
    health: Health,
    breaker: Breaker,
    evicted_at: Option<Instant>,
    /// `breaker_state{replica="<addr>"}`, resolved at construction.
    breaker_gauge: Option<Arc<Gauge>>,
}

impl ReplicaState {
    fn in_rotation(&self) -> bool {
        matches!(self.health, Health::Healthy | Health::Suspect(_))
    }

    /// Whether calls may go to this replica.
    fn eligible(&self) -> bool {
        self.in_rotation() && !matches!(self.breaker, Breaker::Open(_))
    }

    /// Moves the breaker, and its gauge with it (encoding: DESIGN.md §6).
    fn set_breaker(&mut self, breaker: Breaker) {
        self.breaker = breaker;
        if let Some(gauge) = &self.breaker_gauge {
            gauge.set(match breaker {
                Breaker::Closed(_) => 0.0,
                Breaker::HalfOpen => 1.0,
                Breaker::Open(_) => 2.0,
            });
        }
    }
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
    stop_tx: crossbeam::channel::Sender<()>,
    healthy_gauge: Option<Arc<Gauge>>,
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
                health: Health::Healthy,
                breaker: Breaker::Closed(0),
                evicted_at: None,
                breaker_gauge: registry.as_ref().map(|r| {
                    let gauge = r.gauge(&Registry::labeled(
                        names::BREAKER_STATE,
                        &[("replica", &c.reference.addr.to_string())],
                    ));
                    gauge.set(0.0);
                    gauge
                }),
            })
            .collect();
        let healthy_gauge = registry.as_ref().map(|r| {
            let gauge = r.gauge(names::REPLICAS_HEALTHY);
            gauge.set(replicas.len() as f64);
            gauge
        });
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
            }),
            stop_tx,
            healthy_gauge,
            registry,
        });
        // The first pick rotates across the best-ranked candidates from a
        // process-wide cursor, so independent clients spread their load
        // without coordination.
        let held = Locked::root();
        let first = resolved.pick(held, &[], "bind").ok();
        resolved.replica_set.lock(held).0.active = first;
        if period > std::time::Duration::ZERO {
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
                health: match r.health {
                    Health::Healthy => "healthy",
                    Health::Suspect(_) => "suspect",
                    Health::Evicted => "evicted",
                    Health::Probing => "probing",
                },
                breaker: match r.breaker {
                    Breaker::Closed(_) => "closed",
                    Breaker::HalfOpen => "half-open",
                    Breaker::Open(_) => "open",
                },
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

    /// Stops the background prober and joins it. Called automatically on
    /// drop; safe to call multiple times.
    pub fn close(&self) {
        let held = Locked::root();
        let handle = self.replica_set.lock(held).0.prober.take();
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

    /// Half-opens every breaker whose cooldown has elapsed, letting one
    /// trial call or probe through. Reads the clock only while a breaker
    /// is open.
    fn half_open_cooled(&self, state: &mut SetState) {
        let open = |replica: &ReplicaState| matches!(replica.breaker, Breaker::Open(_));
        if !state.replicas.iter().any(open) {
            return;
        }
        let now = Instant::now();
        for replica in &mut state.replicas {
            if matches!(replica.breaker, Breaker::Open(since)
                if now.duration_since(since) >= self.policy.breaker_cooldown)
            {
                replica.set_breaker(Breaker::HalfOpen);
            }
        }
    }

    /// Success bookkeeping: the replica becomes the active one, and its
    /// health and breaker reset.
    fn note_success(&self, held: &mut Locked<Unlocked>, idx: usize) {
        let (mut guard, _) = self.replica_set.lock(held);
        let state = &mut *guard;
        state.active = Some(idx);
        let replica = &mut state.replicas[idx];
        replica.health = Health::Healthy;
        replica.evicted_at = None;
        replica.set_breaker(Breaker::Closed(0));
        self.update_healthy_gauge(state);
    }

    /// Advances one replica's breaker and health state machines after a
    /// failed call or probe, and returns the replica's address. A failed
    /// call also clears the active slot.
    fn note_failure(&self, held: &mut Locked<Unlocked>, idx: usize, from_call: bool) -> String {
        let (mut guard, _) = self.replica_set.lock(held);
        let state = &mut *guard;
        let replica = &mut state.replicas[idx];
        let addr = replica.reference.addr.to_string();
        match replica.breaker {
            Breaker::Closed(failures) if failures + 1 < self.policy.breaker_threshold => {
                replica.set_breaker(Breaker::Closed(failures + 1));
            }
            // The threshold is reached, or a trial call failed: (re-)open.
            Breaker::Closed(_) | Breaker::HalfOpen => {
                replica.set_breaker(Breaker::Open(Instant::now()));
                let detail = format!("breaker open for replica {addr}");
                emit(&self.registry, None, event::BREAKER_OPEN, detail);
            }
            Breaker::Open(_) => {}
        }
        let evict = match replica.health {
            Health::Healthy | Health::Suspect(_) => {
                let streak = match replica.health {
                    Health::Suspect(n) => n + 1,
                    _ => 1,
                };
                let evict = streak >= self.policy.suspect_threshold;
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
                replica.evicted_at = Some(Instant::now());
                false
            }
            Health::Evicted => false,
        };
        if evict {
            replica.evicted_at = Some(Instant::now());
            let detail = format!("replica {addr} evicted after consecutive failures");
            let counter = Some(names::REPLICA_EVICTIONS_TOTAL);
            emit(&self.registry, counter, event::REPLICA_EVICTED, detail);
        }
        if from_call && state.active == Some(idx) {
            state.active = None;
        }
        self.update_healthy_gauge(state);
        addr
    }

    fn update_healthy_gauge(&self, state: &SetState) {
        if let Some(gauge) = &self.healthy_gauge {
            gauge.set(state.replicas.iter().filter(|r| r.in_rotation()).count() as f64);
        }
    }

    /// One sweep of the prober (tests drive it directly): half-opens
    /// cooled-down breakers, starts re-admission probes for evicted replicas
    /// whose backoff elapsed, and probes every replica not sitting out.
    pub(crate) fn probe_all(&self, held: &mut Locked<Unlocked>) {
        let now = Instant::now();
        let due: Vec<(usize, ObjectRef)> = {
            let (mut guard, _) = self.replica_set.lock(held);
            let state = &mut *guard;
            self.half_open_cooled(state);
            let mut due = Vec::new();
            for (i, replica) in state.replicas.iter_mut().enumerate() {
                let sat_out = replica
                    .evicted_at
                    .is_none_or(|at| now.duration_since(at) >= self.policy.readmit_backoff);
                if replica.health == Health::Evicted && sat_out {
                    replica.health = Health::Probing;
                }
                if replica.health != Health::Evicted {
                    due.push((i, replica.reference.clone()));
                }
            }
            due
        };
        for (idx, reference) in due {
            if self.probe_one(held, &reference) {
                self.note_probe_success(held, idx);
            } else {
                self.note_failure(held, idx, false);
            }
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
        let pong = stub.invoker.bound(held, &stub, 0).and_then(|attempt| {
            stub.invoker
                .invoke_once(held, attempt, "_ping", Bytes::new())
        });
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

    /// A probe answered: re-admit the replica (when it was out) and reset
    /// its breaker.
    fn note_probe_success(&self, held: &mut Locked<Unlocked>, idx: usize) {
        let (mut guard, _) = self.replica_set.lock(held);
        let state = &mut *guard;
        let replica = &mut state.replicas[idx];
        let was_out = matches!(replica.health, Health::Probing | Health::Evicted);
        replica.health = Health::Healthy;
        replica.evicted_at = None;
        replica.set_breaker(Breaker::Closed(0));
        if was_out {
            let detail = format!("replica {} re-admitted after probe", replica.reference.addr);
            let counter = Some(names::REPLICA_READMISSIONS_TOTAL);
            emit(&self.registry, counter, event::REPLICA_READMITTED, detail);
        }
        self.update_healthy_gauge(state);
    }
}

/// The replica table as the invocation pipeline's targets.
impl Targets for ResolvedStub {
    /// The active replica when still eligible, otherwise the best-ranked
    /// eligible one, rotating among equals.
    fn pick(
        &self,
        held: &mut Locked<Unlocked>,
        failed: &[usize],
        operation: &str,
    ) -> Result<usize, OrbError> {
        let (mut guard, _) = self.replica_set.lock(held);
        let state = &mut *guard;
        self.half_open_cooled(state);
        let eligible = |i: &usize| !failed.contains(i) && state.replicas[*i].eligible();
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
        self.half_open_cooled(&mut state);
        (0..state.replicas.len())
            .any(|i| i != idx && !failed.contains(&i) && state.replicas[i].eligible())
    }

    fn succeeded(&self, held: &mut Locked<Unlocked>, idx: usize) {
        self.note_success(held, idx);
    }

    /// Also drops the replica's endpoint, so that the next use binds it
    /// afresh.
    fn failed(&self, held: &mut Locked<Unlocked>, idx: usize) -> String {
        let addr = self.note_failure(held, idx, true);
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
        // A value left by an earlier binding of the same replica.
        registry.gauge(&breaker_gauge).set(2.0);
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
}
