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
//! degraded to — never the preferred spec again.

use crate::adapter::{DispatchOutcome, ObjectAdapter};
use crate::binding::Binding;
use crate::config::OrbConfig;
use crate::error::OrbError;
use crate::object::ObjectKey;
use crate::retry::{wait_backoff, RetryPolicy};
use bytes::Bytes;
use cool_telemetry::flight::event;
use cool_telemetry::lockorder::rank as lock_rank;
use cool_telemetry::lockorder::OrderedMutex;
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
    pub(crate) fn apply_qos(&self, spec: &QoSSpec) -> Result<(), OrbError> {
        let Target::Remote(binding) = &self.target else {
            return Ok(());
        };
        if spec.is_best_effort() {
            return binding.set_transport_qos(&TransportRequirements::best_effort());
        }
        let optimistic = ServerPolicy::permissive()
            .negotiate(spec)
            .map_err(OrbError::QosNotSupported)?;
        binding.set_transport_qos(&TransportRequirements::from_granted(&optimistic))
    }
}

/// What the pipeline does after a failed attempt. [`decide`] is the only
/// place one is made, afresh from each error; each variant names when it
/// is taken and what [`Invoker::invoke`] emits for it.
#[derive(Debug, PartialEq)]
pub(crate) enum Step {
    /// Wait this long, then replay against the same target: a retryable
    /// failure with attempts and wall-clock budget left on this target.
    /// Emits `retries_total`.
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
    /// Target `idx` bound, its transport carrying the offered QoS.
    fn endpoint(&self, idx: usize) -> Result<Arc<Endpoint>, OrbError>;

    /// The target for the next attempt, none of `failed`; an attributed
    /// error when no eligible target exists.
    fn pick(&self, _failed: &[usize], _operation: &str) -> Result<usize, OrbError> {
        Ok(0)
    }

    /// Whether a target besides `idx` and `failed` is still eligible.
    fn others_left(&self, _idx: usize, _failed: &[usize]) -> bool {
        false
    }

    /// A call against target `idx` completed.
    fn succeeded(&self, _idx: usize) {}

    /// The pipeline gave up on target `idx` after a retryable failure;
    /// returns the target's address for the flight record.
    fn failed(&self, _idx: usize) -> String {
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
}

/// The invocation pipeline of one logical stub: its [`State`] — above all
/// the QoS operating point — and the loop that applies the retry policy.
pub(crate) struct Invoker {
    pub(crate) per_stub: OrderedMutex<State>,
    retry: Option<RetryPolicy>,
    registry: Option<Arc<Registry>>,
}

impl Invoker {
    /// A pipeline offering `offered`; nothing touches a transport yet.
    pub(crate) fn new(config: &OrbConfig, offered: QoSSpec, fallbacks: Vec<QoSSpec>) -> Self {
        let state = State {
            offered,
            fallbacks: fallbacks.into(),
            steps: Vec::new(),
            granted: None,
            timeout: config.call_timeout,
        };
        Invoker {
            per_stub: OrderedMutex::new(lock_rank::STUB_STATE, state),
            retry: config.retry.clone(),
            registry: config.telemetry.clone(),
        }
    }

    pub(crate) fn offered(&self) -> QoSSpec {
        self.per_stub.lock().offered.clone()
    }

    pub(crate) fn qos_params(&self) -> Vec<cool_giop::QoSParameter> {
        self.per_stub.lock().offered.to_params()
    }

    /// Makes the next fallback rung the offered QoS, recording the step.
    /// Only called on [`Step::Degrade`], which a non-empty ladder gates.
    fn step_down(&self, operation: &str) {
        let rung = {
            let mut state = self.per_stub.lock();
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
        targets: &T,
        operation: &str,
        args: Bytes,
    ) -> Result<Bytes, OrbError> {
        // Grows only when a target fails: the success path allocates nothing.
        let mut failed: Vec<usize> = Vec::new();
        let mut idx = targets.pick(&failed, operation)?;
        let mut endpoint: Option<Arc<Endpoint>> = None;
        let mut degrade = false;
        let (mut attempts, mut start) = (1u32, Instant::now());
        loop {
            let err = match self.attempt(targets, idx, &mut endpoint, degrade, operation, &args) {
                Ok(body) => {
                    targets.succeeded(idx);
                    return Ok(body);
                }
                Err(err) => err,
            };
            degrade = false;
            let rungs_left = !self.per_stub.lock().fallbacks.is_empty();
            let targets_left = targets.others_left(idx, &failed);
            let (elapsed, retry) = (start.elapsed(), self.retry.as_ref());
            match decide(&err, attempts, elapsed, retry, rungs_left, targets_left) {
                Step::RetrySame(delay) => {
                    if let Some(registry) = &self.registry {
                        registry.counter(names::RETRIES_TOTAL).inc();
                    }
                    attempts += 1;
                    wait_backoff(delay);
                    match endpoint.as_deref().map(|e| &e.target) {
                        // A failed redial surfaces on the next attempt as
                        // an attributed Closed/Transport error.
                        Some(Target::Remote(binding)) if binding.is_closed() => {
                            let _ = binding.reconnect();
                        }
                        _ => {}
                    }
                }
                Step::Degrade => degrade = true,
                Step::NextTarget => {
                    let replica = targets.failed(idx);
                    let detail = format!("replica {replica} failed ({err}); failing over");
                    let counter = Some(names::FAILOVERS_TOTAL);
                    emit(&self.registry, counter, event::FAILOVER, detail);
                    failed.push(idx);
                    idx = targets.pick(&failed, operation)?;
                    endpoint = None;
                    (attempts, start) = (1, Instant::now());
                }
                Step::Fail if !err.is_retryable() => return Err(err),
                Step::Fail => {
                    targets.failed(idx);
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
    /// last lap was NACKed, bind target `idx` if this call has not yet.
    fn attempt<T: Targets>(
        &self,
        targets: &T,
        idx: usize,
        endpoint: &mut Option<Arc<Endpoint>>,
        degrade: bool,
        operation: &str,
        args: &Bytes,
    ) -> Result<Bytes, OrbError> {
        if degrade {
            self.step_down(operation);
            if let Some(bound) = endpoint.as_ref() {
                bound.apply_qos(&self.offered())?;
            }
        }
        let endpoint = match endpoint {
            Some(bound) => bound,
            // A fresh endpoint is offered the current QoS as it binds.
            None => endpoint.insert(targets.endpoint(idx)?),
        };
        self.invoke_once(endpoint, operation, args.clone())
    }

    /// One attempt, with no resilience applied.
    pub(crate) fn invoke_once(
        &self,
        endpoint: &Endpoint,
        operation: &str,
        args: Bytes,
    ) -> Result<Bytes, OrbError> {
        match &endpoint.target {
            Target::Local(adapter) => {
                match adapter.dispatch(&endpoint.key, operation, &args, &self.offered(), false) {
                    DispatchOutcome::Success { body, granted } => {
                        self.per_stub.lock().granted = Some(granted);
                        Ok(Bytes::from(body))
                    }
                    DispatchOutcome::QosNack(reason) => Err(OrbError::QosNotSupported(reason)),
                    DispatchOutcome::Error(err) => Err(err),
                }
            }
            Target::Remote(binding) => {
                let (params, timeout) = {
                    let state = self.per_stub.lock();
                    (state.offered.to_params(), state.timeout)
                };
                let key = endpoint.key.as_bytes();
                let (body, granted) = binding.call(key, operation, args, &params, timeout)?;
                if granted.is_some() {
                    self.per_stub.lock().granted = granted;
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
