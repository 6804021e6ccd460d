//! Tunable timing and sizing knobs for an ORB instance.
//!
//! The seed implementation scattered its timing behaviour across hard-coded
//! poll intervals in the client demux, the server's accept and worker
//! loops, and the Da CaPo channel's sliced waits.
//! The event-driven refactor removed the poll loops entirely; what remains
//! are genuine policy knobs — how long a synchronous `call` may wait, how
//! many dispatcher threads a server runs — collected here and threaded
//! through [`crate::orb::Orb`], [`crate::server::OrbServer`] and
//! [`crate::binding::Binding`].

use crate::retry::RetryPolicy;
use cool_faults::PlanSet;
use cool_telemetry::Registry;
use std::sync::Arc;
use std::time::Duration;

/// Configuration shared by an [`crate::orb::Orb`] and everything it creates.
///
/// Obtain the defaults with [`OrbConfig::default`] and override individual
/// fields; pass the result to [`crate::orb::Orb::with_config`].
#[derive(Debug, Clone)]
pub struct OrbConfig {
    /// Default deadline for synchronous invocations (`call`) and the initial
    /// timeout of every [`crate::orb::Stub`]. This is a *real* deadline on a
    /// blocking wait, not a poll interval: replies wake the caller
    /// immediately.
    pub call_timeout: Duration,
    /// Number of request-dispatcher threads an [`crate::server::OrbServer`]
    /// runs. All connections share the pool, so requests pipelined on one
    /// connection are serviced concurrently (no head-of-line blocking).
    /// Values below 1 are treated as 1.
    pub dispatcher_threads: usize,
    /// Telemetry sink for everything this ORB creates: bindings, servers,
    /// transports and the Da CaPo stacks below them. `None` (the default)
    /// disables instrumentation entirely — the hot path then only branches
    /// on absent handles. Share one [`Registry`] between a client and a
    /// server ORB to see both halves of each invocation span.
    pub telemetry: Option<Arc<Registry>>,
    /// Whether invocations carry distributed-trace service contexts on the
    /// wire (DESIGN.md §6). On by default whenever `telemetry` is set;
    /// turning it off keeps every local metric and span but attaches no
    /// trace context to requests and joins none on the server — for
    /// deployments that must not leak timing data across process
    /// boundaries. (What telemetry costs with tracing on, against a run
    /// with neither, is the ledger's `cool-telemetry.traced_overhead_pct`.)
    /// Ignored when `telemetry` is `None`.
    pub tracing: bool,
    /// Automatic retry for remote invocations. `None` (the default) keeps
    /// the historical single-attempt behaviour; `Some` makes every stub
    /// replay retryable errors (see [`crate::OrbError::is_retryable`]) with
    /// bounded exponential backoff, binding afresh when a connection was
    /// lost.
    pub retry: Option<RetryPolicy>,
    /// Fault-injection test hook. `None` (the default) adds **nothing** to
    /// the invocation path; `Some` wraps every client channel to a target
    /// the set has a plan for in a `FaultChannel` decorator executing it
    /// (DESIGN.md §8). Keyed by the transport address display string (e.g.
    /// `"chorus://rep-b"`), so one replica can be lossy while its siblings
    /// stay healthy; `PlanSet::default().with_default(plan)` applies one
    /// plan to every target. Engines are cached per target so a binding
    /// that replaces a lost one continues the same deterministic fault
    /// schedule. Production configs
    /// must leave this `None`.
    pub fault_plans: Option<Arc<PlanSet>>,
    /// Live introspection endpoint. `None` (the default) starts nothing —
    /// no listener, no sampler thread, zero cost. `Some` makes the ORB
    /// serve `/metrics`, `/spans`, `/flight` and `/gauges?window=` over a
    /// tiny hand-rolled loopback HTTP server (DESIGN.md §6); an ORB
    /// configured this way without a telemetry registry gets a private
    /// one so the endpoint always has data behind it.
    pub introspect: Option<IntrospectPolicy>,
    /// Health-checking and failover behaviour of replicated bindings
    /// created with [`crate::orb::Orb::bind_resolved`]. The default is a
    /// production-shaped policy (quarter-second probes, three strikes);
    /// plain single-replica stubs never consult it.
    pub failover: FailoverPolicy,
}

/// Health-probe, eviction and circuit-breaker thresholds for replicated
/// bindings (see [`crate::replica::ResolvedStub`] and DESIGN.md §8.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverPolicy {
    /// Period of the background liveness probe over the replica set.
    /// `Duration::ZERO` disables the prober thread entirely — evicted
    /// replicas then stay evicted and breakers only half-open on the
    /// invocation path, which is what deterministic tests want.
    pub probe_period: Duration,
    /// Per-probe call timeout (kept far below `call_timeout` so a probe
    /// sweep over a dead replica set stays cheap).
    pub probe_timeout: Duration,
    /// Consecutive failures (calls or probes) that evict a replica from
    /// rotation. The first failure already makes it suspect; any success
    /// resets the count.
    pub suspect_threshold: u32,
    /// How long an evicted replica sits out before a probe may re-admit it.
    pub readmit_backoff: Duration,
    /// Consecutive failures before the per-replica circuit breaker opens
    /// (calls stop flowing to the replica even if not yet evicted). It only
    /// acts while it is below `suspect_threshold`: at or above it, the
    /// failure that would open the breaker evicts the replica first.
    pub breaker_threshold: u32,
    /// How long an open breaker waits before half-opening to let one
    /// trial call or probe through.
    pub breaker_cooldown: Duration,
}

impl Default for FailoverPolicy {
    fn default() -> Self {
        FailoverPolicy {
            probe_period: Duration::from_millis(250),
            probe_timeout: Duration::from_millis(100),
            suspect_threshold: 3,
            readmit_backoff: Duration::from_secs(1),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(500),
        }
    }
}

/// Where the introspection endpoint listens (see
/// [`OrbConfig::introspect`]). Its `/gauges` series are sampled every
/// [`cool_telemetry::DEFAULT_SAMPLE_PERIOD`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntrospectPolicy {
    /// Bind address; keep it loopback (`127.0.0.1:0` by default — the
    /// real port is available from `Orb::introspect_addr`). The endpoint
    /// is unauthenticated by design, for local operators and smoke tests.
    pub bind_addr: String,
}

impl Default for IntrospectPolicy {
    fn default() -> Self {
        IntrospectPolicy {
            bind_addr: "127.0.0.1:0".to_string(),
        }
    }
}

impl PartialEq for OrbConfig {
    fn eq(&self, other: &Self) -> bool {
        let same_registry = match (&self.telemetry, &other.telemetry) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        let same_plans = match (&self.fault_plans, &other.fault_plans) {
            (None, None) => true,
            (Some(a), Some(b)) => a == b,
            _ => false,
        };
        self.call_timeout == other.call_timeout
            && self.dispatcher_threads == other.dispatcher_threads
            && same_registry
            && self.tracing == other.tracing
            && self.retry == other.retry
            && same_plans
            && self.introspect == other.introspect
            && self.failover == other.failover
    }
}

impl Default for OrbConfig {
    fn default() -> Self {
        OrbConfig {
            call_timeout: Duration::from_secs(30),
            dispatcher_threads: 4,
            telemetry: None,
            tracing: true,
            retry: None,
            fault_plans: None,
            introspect: None,
            failover: FailoverPolicy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = OrbConfig::default();
        assert_eq!(c.call_timeout, Duration::from_secs(30));
        assert!(c.dispatcher_threads >= 1);
        assert!(c.telemetry.is_none());
        assert!(c.tracing, "tracing is on by default when telemetry is");
        assert!(c.retry.is_none(), "retry must be opt-in");
        assert!(c.fault_plans.is_none(), "fault injection must be opt-in");
        assert!(c.introspect.is_none(), "introspection must be opt-in");
        assert!(c.failover.probe_period > Duration::ZERO);
        assert!(c.failover.probe_timeout < c.call_timeout);
        assert!(c.failover.suspect_threshold >= 1);
        assert!(c.failover.breaker_threshold >= 1);
    }

    #[test]
    fn tracing_off_on_either_side_keeps_local_spans_and_joins_no_trace() {
        use cool_telemetry::names;
        const CALLS: usize = 8;
        // Disjoint registries, as in two processes: the only way a trace
        // could be joined is over the wire.
        for (client_tracing, server_tracing) in [(false, true), (true, false)] {
            let side = |tracing| {
                let registry = Arc::new(Registry::new());
                let config = OrbConfig {
                    telemetry: Some(Arc::clone(&registry)),
                    tracing,
                    ..OrbConfig::default()
                };
                (registry, config)
            };
            let (server_reg, server_config) = side(server_tracing);
            let (client_reg, client_config) = side(client_tracing);
            let exchange = crate::LocalExchange::new();
            let server_orb =
                crate::Orb::with_exchange_and_config("server", exchange.clone(), server_config);
            server_orb
                .adapter()
                .register_fn("echo", |_op, args, _ctx| Ok(args.to_vec()))
                .unwrap();
            let server = server_orb.listen_tcp("127.0.0.1:0").unwrap();
            let client_orb =
                crate::Orb::with_exchange_and_config("client", exchange, client_config);
            let stub = client_orb.bind(&server.object_ref("echo")).unwrap();
            for _ in 0..CALLS {
                stub.invoke("echo", bytes::Bytes::from_static(b"x"))
                    .unwrap();
            }

            let case = format!("client tracing {client_tracing}, server tracing {server_tracing}");
            let server_snap = server_reg.snapshot();
            assert_eq!(
                server_snap.counter(names::TRACE_JOINS_TOTAL).unwrap_or(0),
                0,
                "{case}"
            );
            assert_eq!(
                server_snap
                    .counter(names::SERVICE_CONTEXT_BYTES)
                    .unwrap_or(0),
                0,
                "{case}"
            );
            assert!(
                client_reg.recent_traces().iter().all(|t| !t.is_merged()),
                "{case}"
            );
            assert_eq!(
                client_reg.recent_spans().len(),
                CALLS,
                "{case}: local spans stay"
            );
            client_orb.shutdown();
            server.close();
        }
    }

    #[test]
    fn equality_covers_introspect() {
        let a = OrbConfig::default();
        let b = OrbConfig {
            introspect: Some(IntrospectPolicy::default()),
            ..OrbConfig::default()
        };
        assert_ne!(a, b);
        let c = OrbConfig {
            introspect: Some(IntrospectPolicy::default()),
            ..OrbConfig::default()
        };
        assert_eq!(b, c);
        let d = OrbConfig {
            introspect: Some(IntrospectPolicy {
                bind_addr: "127.0.0.1:9100".to_string(),
            }),
            ..OrbConfig::default()
        };
        assert_ne!(b, d);
    }

    #[test]
    fn equality_covers_resilience_fields() {
        let a = OrbConfig::default();
        let b = OrbConfig {
            retry: Some(RetryPolicy::default()),
            ..OrbConfig::default()
        };
        assert_ne!(a, b);
        let c = OrbConfig {
            retry: Some(RetryPolicy::default()),
            ..OrbConfig::default()
        };
        assert_eq!(b, c);

        let set = Arc::new(
            PlanSet::default().set(
                "chorus://rep-b",
                cool_faults::FaultPlan::builder()
                    .drop_rate(0.1)
                    .build()
                    .unwrap(),
            ),
        );
        let f = OrbConfig {
            fault_plans: Some(Arc::clone(&set)),
            ..OrbConfig::default()
        };
        assert_ne!(a, f);
        let g = OrbConfig {
            fault_plans: Some(set),
            ..OrbConfig::default()
        };
        assert_eq!(f, g);

        let h = OrbConfig {
            failover: FailoverPolicy {
                probe_period: Duration::ZERO,
                ..FailoverPolicy::default()
            },
            ..OrbConfig::default()
        };
        assert_ne!(a, h);
    }

    #[test]
    fn equality_compares_registry_identity() {
        let a = OrbConfig::default();
        let b = OrbConfig::default();
        assert_eq!(a, b);

        let reg = Arc::new(Registry::new());
        let c = OrbConfig {
            telemetry: Some(Arc::clone(&reg)),
            ..OrbConfig::default()
        };
        assert_ne!(a, c);
        let d = OrbConfig {
            telemetry: Some(Arc::clone(&reg)),
            ..OrbConfig::default()
        };
        assert_eq!(c, d);
        let e = OrbConfig {
            telemetry: Some(Arc::new(Registry::new())),
            ..OrbConfig::default()
        };
        assert_ne!(c, e);
    }
}
