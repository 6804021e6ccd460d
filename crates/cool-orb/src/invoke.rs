//! The one invocation pipeline (DESIGN.md §8.2–§8.3).
//!
//! A two-way invocation through a plain [`crate::orb::Stub`] and through
//! a replicated [`crate::replica::ResolvedStub`] is the same loop: run one
//! attempt against the current target, and on failure ask the pure
//! function [`decide`] for the next [`Step`]. A plain stub is the loop
//! over a one-element [`Targets`] set with no health bookkeeping; a
//! resolved stub is the loop over its replica table.
//!
//! The QoS operating point lives here, once per *logical* stub, so a
//! target the loop switches to is offered what the previous one had
//! degraded to — never the preferred spec again. So does the one bound
//! target's endpoint: a target is bound afresh, with that operating
//! point, when the loop switches to it or its binding's connection was
//! lost — never repaired in place.

use crate::adapter::{DispatchOutcome, ObjectAdapter};
use crate::binding::Binding;
use crate::config::OrbConfig;
use crate::error::OrbError;
use crate::message_layer::WireProtocol;
use crate::object::{ObjectKey, ObjectRef};
use crate::orb::Orb;
use crate::retry::{wait_backoff, RetryPolicy};
use bytes::Bytes;
use cool_telemetry::flight::event;
use cool_telemetry::lockorder::{rank, Locked, OrderedMutex, Unlocked};
use cool_telemetry::{names, Registry};
use multe_qos::{GrantedQoS, QoSSpec, ServerPolicy, TransportRequirements};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub(crate) enum Target {
    Local(Arc<ObjectAdapter>),
    Remote(Arc<Binding>),
}

/// One bound object: where its requests go and the key they address.
pub(crate) struct Endpoint {
    pub(crate) target: Target,
    pub(crate) key: ObjectKey,
}

impl Endpoint {
    /// Pushes the transport requirements `spec` maps to down the channel
    /// (unilateral negotiation, Section 4.3): permissive negotiation takes
    /// the request as-is. Colocated objects have no transport.
    pub(crate) fn apply_qos(
        &self,
        held: &mut Locked<Unlocked>,
        spec: &QoSSpec,
    ) -> Result<(), OrbError> {
        let Target::Remote(binding) = &self.target else {
            return Ok(());
        };
        if spec.is_best_effort() {
            return binding.set_transport_qos(held, &TransportRequirements::best_effort());
        }
        let optimistic = ServerPolicy::permissive()
            .negotiate(spec)
            .map_err(OrbError::QosNotSupported)?;
        binding.set_transport_qos(held, &TransportRequirements::from_granted(&optimistic))
    }
}

/// What the pipeline does after a failed attempt. [`decide`] is the only
/// place one is made, afresh from each error; each variant names when it
/// is taken and what [`Invoker::invoke`] emits for it.
#[derive(Debug, PartialEq)]
pub(crate) enum Step {
    /// Wait this long, then replay against the same target, bound afresh
    /// when its binding's connection was lost: a retryable failure with
    /// attempts and wall-clock budget left on this target. Emits
    /// `retries_total`.
    RetrySame(Duration),
    /// This target's attempts or budget are spent on a retryable failure
    /// and another target is eligible; replay there. Emits
    /// `failovers_total` and flight `failover`.
    NextTarget,
    /// The server NACKed the QoS and a fallback rung is left; step one
    /// rung down and replay. Emits `qos_degradations_total` and flight
    /// `qos_degrade`.
    Degrade,
    /// Surface the error. A retryable failure with attempts or budget
    /// spent and no other target becomes `RetriesExhausted` (unchanged
    /// without a retry policy); anything else — a NACK with the ladder
    /// empty (`QosNotSupported`), an attributed timeout, a user exception
    /// — surfaces as it is.
    Fail,
}

/// The decision table of the pipeline. A QoS NACK degrades while rungs
/// are left (without consuming retry attempts); a retryable error (see
/// [`OrbError::is_retryable`]) is replayed on the same target while
/// `retry` allows, then on another target while one is left; everything
/// else — attributed timeouts, user exceptions, a NACK with the ladder
/// empty — fails: at-most-once holds across the whole target set.
pub(crate) fn decide(
    err: &OrbError,
    attempt: u32,
    elapsed: Duration,
    retry: Option<&RetryPolicy>,
    rungs_left: bool,
    targets_left: bool,
) -> Step {
    if rungs_left && matches!(err, OrbError::QosNotSupported(_)) {
        return Step::Degrade;
    }
    if !err.is_retryable() {
        return Step::Fail;
    }
    match retry.and_then(|policy| policy.next_delay(attempt, elapsed)) {
        Some(delay) => Step::RetrySame(delay),
        None if targets_left => Step::NextTarget,
        None => Step::Fail,
    }
}

/// The targets one logical stub may invoke, by index. The defaults are
/// the plain stub's: one target, no health to keep.
pub(crate) trait Targets {
    /// Where target `idx` is bound from: the ORB that binds it, its
    /// reference and the protocol it is spoken to in.
    fn locate(
        &self,
        held: &mut Locked<Unlocked>,
        idx: usize,
    ) -> Result<(Arc<Orb>, ObjectRef, WireProtocol), OrbError>;

    /// The target for the next attempt, none of `failed`; an attributed
    /// error when no eligible target exists.
    fn pick(
        &self,
        _held: &mut Locked<Unlocked>,
        _failed: &[usize],
        _operation: &str,
    ) -> Result<usize, OrbError> {
        Ok(0)
    }

    /// Whether a target besides `idx` and `failed` is still eligible.
    fn others_left(&self, _held: &mut Locked<Unlocked>, _idx: usize, _failed: &[usize]) -> bool {
        false
    }

    /// A call against target `idx` completed.
    fn succeeded(&self, _held: &mut Locked<Unlocked>, _idx: usize) {}

    /// The pipeline gave up on target `idx` after a retryable failure;
    /// returns the target's address for the flight record.
    fn failed(&self, _held: &mut Locked<Unlocked>, _idx: usize) -> String {
        String::new()
    }
}

/// Counts one event (where it has a `counter`, looked up by name: every
/// caller is on a failure path) and records it in the flight recorder.
pub(crate) fn emit(
    registry: &Option<Arc<Registry>>,
    counter: Option<&str>,
    kind: &'static str,
    detail: String,
) {
    let Some(registry) = registry else { return };
    if let Some(name) = counter {
        registry.counter(name).inc();
    }
    registry.flight_event(kind, None, detail);
}

/// What one logical stub carries from call to call.
pub(crate) struct State {
    /// Offered with every request; best-effort means standard GIOP 1.0.
    pub(crate) offered: QoSSpec,
    /// Fallback rungs not yet taken, most preferred first.
    pub(crate) fallbacks: VecDeque<QoSSpec>,
    /// Rungs taken so far, in the order taken.
    pub(crate) steps: Vec<QoSSpec>,
    /// The QoS the server granted on the most recent invocation.
    pub(crate) granted: Option<GrantedQoS>,
    /// Reply timeout of a two-way call.
    pub(crate) timeout: Duration,
    /// The one target bound, by index, and its endpoint: read under the
    /// lock a call takes anyway. Fixed until a failure drops it; the next
    /// attempt then binds the target afresh ([`Invoker::bind`]).
    bound: Option<(usize, Arc<Endpoint>)>,
}

/// What one attempt takes from the stub's state, in one acquisition: its
/// target's endpoint, the QoS offered and the reply timeout.
pub(crate) struct Attempt {
    pub(crate) endpoint: Arc<Endpoint>,
    pub(crate) offered: QoSSpec,
    pub(crate) timeout: Duration,
}

/// The invocation pipeline of one logical stub: its [`State`] — above all
/// the QoS operating point — and the loop that applies the retry policy.
pub(crate) struct Invoker {
    pub(crate) per_stub: OrderedMutex<State, rank::StubState>,
    retry: Option<RetryPolicy>,
    registry: Option<Arc<Registry>>,
}

impl Invoker {
    /// A pipeline offering `offered`, with target 0 already bound to
    /// `bound` when given; nothing touches a transport yet.
    pub(crate) fn new(
        config: &OrbConfig,
        offered: QoSSpec,
        fallbacks: Vec<QoSSpec>,
        bound: Option<Arc<Endpoint>>,
    ) -> Self {
        let state = State {
            offered,
            fallbacks: fallbacks.into(),
            steps: Vec::new(),
            granted: None,
            timeout: config.call_timeout,
            bound: bound.map(|endpoint| (0, endpoint)),
        };
        Invoker {
            per_stub: OrderedMutex::new(state),
            retry: config.retry.clone(),
            registry: config.telemetry.clone(),
        }
    }

    pub(crate) fn offered(&self, held: &mut Locked<Unlocked>) -> QoSSpec {
        self.per_stub.lock(held).0.offered.clone()
    }

    /// The endpoint held for target `idx`, if any.
    pub(crate) fn endpoint(
        &self,
        held: &mut Locked<Unlocked>,
        idx: usize,
    ) -> Option<Arc<Endpoint>> {
        match &self.per_stub.lock(held).0.bound {
            Some((bound, endpoint)) if *bound == idx => Some(Arc::clone(endpoint)),
            _ => None,
        }
    }

    /// Drops the endpoint held for target `idx`: the next attempt binds the
    /// target afresh. Dropped with the state unlocked, like any endpoint
    /// that leaves it: a binding closes with its last endpoint, and closing
    /// takes `binding.pending`, ranked below the state.
    pub(crate) fn unbind(&self, held: &mut Locked<Unlocked>, idx: usize) {
        let unbound = self
            .per_stub
            .lock(held)
            .0
            .bound
            .take_if(|(bound, _)| *bound == idx);
        drop(unbound);
    }

    /// Drops target `idx`'s endpoint when its binding's connection was
    /// lost. A binding closed here (retired) is kept, and keeps failing
    /// `Closed`: nothing replaces it. Asked with the state unlocked: over
    /// TCP the question reads the socket.
    fn unbind_lost(&self, held: &mut Locked<Unlocked>, idx: usize) {
        let endpoint = self.endpoint(held, idx);
        if endpoint.is_some_and(|e| matches!(&e.target, Target::Remote(b) if b.is_lost(held))) {
            self.unbind(held, idx);
        }
    }

    /// Binds target `idx` afresh and applies the current offered QoS to its
    /// transport: the one rebinding routine, behind a replica switch and
    /// the replacement of a lost binding alike.
    fn bind<T: Targets>(
        &self,
        held: &mut Locked<Unlocked>,
        targets: &T,
        idx: usize,
    ) -> Result<Arc<Endpoint>, OrbError> {
        let (orb, reference, protocol) = targets.locate(held, idx)?;
        // No such listener (yet, or any more) is as retryable, and as worth
        // failing over from, as a refused connection.
        let endpoint = orb
            .endpoint_for(held, &reference, protocol)
            .map_err(|err| match err {
                OrbError::BadAddress(why) => {
                    OrbError::Transport(format!("{} unreachable: {why}", reference.addr))
                }
                other => other,
            })?;
        let offered = self.offered(held);
        endpoint.apply_qos(held, &offered)?;
        Ok(endpoint)
    }

    /// What an attempt against target `idx` takes from the state: the
    /// endpoint held, or one bound afresh when none is.
    pub(crate) fn bound<T: Targets>(
        &self,
        held: &mut Locked<Unlocked>,
        targets: &T,
        idx: usize,
    ) -> Result<Attempt, OrbError> {
        let attempt = |state: &State, endpoint: &Arc<Endpoint>| Attempt {
            endpoint: Arc::clone(endpoint),
            offered: state.offered.clone(),
            timeout: state.timeout,
        };
        {
            let (state, _) = self.per_stub.lock(held);
            if let Some((bound, endpoint)) = &state.bound {
                if *bound == idx {
                    return Ok(attempt(&state, endpoint));
                }
            }
        }
        let endpoint = self.bind(held, targets, idx)?;
        let (mut state, _) = self.per_stub.lock(held);
        let replaced = state.bound.replace((idx, Arc::clone(&endpoint)));
        let bound = attempt(&state, &endpoint);
        drop(state);
        drop(replaced);
        Ok(bound)
    }

    /// Makes the next fallback rung the offered QoS, recording the step.
    /// Only called on [`Step::Degrade`], which a non-empty ladder gates.
    fn step_down(&self, held: &mut Locked<Unlocked>, operation: &str) {
        let rung = {
            let (mut state, _) = self.per_stub.lock(held);
            let Some(rung) = state.fallbacks.pop_front() else {
                return;
            };
            state.steps.push(rung.clone());
            state.offered = rung.clone();
            rung
        };
        let detail = format!("`{operation}`: stepped down to {rung:?}");
        let counter = Some(names::QOS_DEGRADATIONS_TOTAL);
        emit(&self.registry, counter, event::QOS_DEGRADE, detail);
    }

    /// Two-way invocation over `targets`: the one loop.
    ///
    /// Bounded: every lap ends the call or takes a [`Step`], and each
    /// step consumes something finite — `RetrySame` an attempt of the
    /// `RetryPolicy` (or its wall-clock budget), `Degrade` a ladder rung,
    /// `NextTarget` a target (each is tried at most once per call; attempt
    /// count and budget restart on it).
    pub(crate) fn invoke<T: Targets>(
        &self,
        held: &mut Locked<Unlocked>,
        targets: &T,
        operation: &str,
        args: Bytes,
    ) -> Result<Bytes, OrbError> {
        // Grows only when a target fails: the success path allocates nothing.
        let mut failed: Vec<usize> = Vec::new();
        let mut idx = targets.pick(held, &failed, operation)?;
        let mut degrade = false;
        let (mut attempts, mut start) = (1u32, Instant::now());
        // The first request begins where the retry budget does, on the one
        // clock read; a later lap's reads its own.
        let mut began = Some(start);
        loop {
            let attempt = self.attempt(held, targets, idx, degrade, operation, &args, began.take());
            let err = match attempt {
                Ok(body) => {
                    targets.succeeded(held, idx);
                    return Ok(body);
                }
                Err(err) => err,
            };
            degrade = false;
            let rungs_left = !self.per_stub.lock(held).0.fallbacks.is_empty();
            let targets_left = targets.others_left(held, idx, &failed);
            let (elapsed, retry) = (start.elapsed(), self.retry.as_ref());
            match decide(&err, attempts, elapsed, retry, rungs_left, targets_left) {
                Step::RetrySame(delay) => {
                    if let Some(registry) = &self.registry {
                        registry.counter(names::RETRIES_TOTAL).inc();
                    }
                    attempts += 1;
                    wait_backoff(held, delay);
                    // A failed rebind surfaces on the next attempt as an
                    // attributed Transport error.
                    self.unbind_lost(held, idx);
                }
                Step::Degrade => degrade = true,
                Step::NextTarget => {
                    let replica = targets.failed(held, idx);
                    let detail = format!("replica {replica} failed ({err}); failing over");
                    let counter = Some(names::FAILOVERS_TOTAL);
                    emit(&self.registry, counter, event::FAILOVER, detail);
                    failed.push(idx);
                    idx = targets.pick(held, &failed, operation)?;
                    (attempts, start) = (1, Instant::now());
                }
                Step::Fail if !err.is_retryable() => return Err(err),
                Step::Fail => {
                    targets.failed(held, idx);
                    // Without a policy there was only ever one attempt. One
                    // that gave up says *what kept failing*, and how often.
                    if self.retry.is_none() {
                        return Err(err);
                    }
                    let last = Box::new(err);
                    return Err(OrbError::RetriesExhausted { attempts, last });
                }
            }
        }
    }

    /// One lap of [`Invoker::invoke`]: step the QoS down first when the
    /// last lap was NACKed, bind target `idx` if none is held for it.
    #[expect(
        clippy::too_many_arguments,
        reason = "the lap's target, QoS step and start, and the call's parts"
    )]
    fn attempt<T: Targets>(
        &self,
        held: &mut Locked<Unlocked>,
        targets: &T,
        idx: usize,
        degrade: bool,
        operation: &str,
        args: &[u8],
        began: Option<Instant>,
    ) -> Result<Bytes, OrbError> {
        if degrade {
            self.step_down(held, operation);
            if let Some(endpoint) = self.endpoint(held, idx) {
                let offered = self.offered(held);
                endpoint.apply_qos(held, &offered)?;
            }
        }
        let attempt = self.bound(held, targets, idx)?;
        self.invoke_once(held, attempt, operation, args, began)
    }

    /// One attempt, with no resilience applied. A remote request begins at
    /// `began` when the caller has read the clock already, else now.
    pub(crate) fn invoke_once(
        &self,
        held: &mut Locked<Unlocked>,
        attempt: Attempt,
        operation: &str,
        args: &[u8],
        began: Option<Instant>,
    ) -> Result<Bytes, OrbError> {
        let Attempt {
            endpoint,
            offered,
            timeout,
        } = attempt;
        match &endpoint.target {
            Target::Local(adapter) => {
                match adapter.dispatch(&endpoint.key, operation, args, &offered, false) {
                    DispatchOutcome::Success { body, granted } => {
                        self.per_stub.lock(held).0.granted = Some(granted);
                        Ok(Bytes::from(body))
                    }
                    DispatchOutcome::QosNack(reason) => Err(OrbError::QosNotSupported(reason)),
                    DispatchOutcome::Error(err) => Err(err),
                }
            }
            Target::Remote(binding) => {
                let params = offered.to_params();
                let key = endpoint.key.as_bytes();
                let began = began.unwrap_or_else(Instant::now);
                let (body, granted) =
                    binding.call_since(began, key, operation, args, &params, timeout)?;
                if granted.is_some() {
                    self.per_stub.lock(held).0.granted = granted;
                }
                Ok(body)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`decide`] over {retryable, attributed timeout, QoS NACK, user
    /// exception} × {attempts left?} × {rungs left?} × {targets left?}.
    #[test]
    fn decide_is_one_table() {
        let policy = RetryPolicy {
            max_attempts: 2,
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let retryable = OrbError::Closed;
        let attributed = OrbError::request_timeout(7, Duration::from_millis(5));
        let nack = OrbError::QosNotSupported(multe_qos::QosError::Infeasible {
            dimension: "throughput",
            requested: 1_000_000,
            offered: Some(64_000),
        });
        let user = OrbError::UserException {
            repo_id: "IDL:test/Boom:1.0".into(),
            body: Vec::new(),
        };
        for attempts_left in [true, false] {
            for rungs_left in [true, false] {
                for targets_left in [true, false] {
                    let attempt = if attempts_left { 1 } else { 2 };
                    let step = |err: &OrbError| {
                        decide(
                            err,
                            attempt,
                            Duration::ZERO,
                            Some(&policy),
                            rungs_left,
                            targets_left,
                        )
                    };
                    // Same target, then the next one, then give up —
                    // whatever the ladder holds.
                    let expected = match (attempts_left, targets_left) {
                        (true, _) => Step::RetrySame(policy.initial_backoff),
                        (false, true) => Step::NextTarget,
                        (false, false) => Step::Fail,
                    };
                    assert_eq!(step(&retryable), expected);
                    // The ladder alone answers a NACK: no attempt, no
                    // target is spent on it.
                    let expected = if rungs_left {
                        Step::Degrade
                    } else {
                        Step::Fail
                    };
                    assert_eq!(step(&nack), expected);
                    // At-most-once: the server may have run these.
                    assert_eq!(step(&attributed), Step::Fail);
                    assert_eq!(step(&user), Step::Fail);
                }
            }
        }

        // No policy: one attempt per target.
        let one_shot =
            |targets_left| decide(&retryable, 1, Duration::ZERO, None, true, targets_left);
        assert_eq!(one_shot(true), Step::NextTarget);
        assert_eq!(one_shot(false), Step::Fail);
        // `max_attempts` below 1 acts as 1.
        let zero = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        };
        assert_eq!(
            decide(&retryable, 1, Duration::ZERO, Some(&zero), false, false),
            Step::Fail
        );
        // A backoff that would overrun the wall-clock budget counts as
        // attempts spent.
        let tight = RetryPolicy {
            budget: Duration::from_millis(50),
            max_attempts: 100,
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        let after = |elapsed| decide(&retryable, 1, elapsed, Some(&tight), false, true);
        assert_eq!(
            after(Duration::from_millis(10)),
            Step::RetrySame(tight.initial_backoff)
        );
        assert_eq!(after(Duration::from_millis(45)), Step::NextTarget);
    }
}
