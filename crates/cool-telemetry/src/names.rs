//! Well-known metric names shared across crates.
//!
//! The resilience layer (retry/backoff, reconnection, QoS degradation and
//! fault injection — DESIGN.md §8) reports through ordinary registry
//! counters; the names live here so cool-orb, the benches and the chaos
//! suite all agree on the exact strings. Every counter appears in
//! [`crate::Registry::render_prometheus`], [`crate::TelemetrySnapshot`]
//! and the snapshot's JSON as soon as it is first resolved.

/// Invocation attempts replayed by a `RetryPolicy` after a retryable error.
pub const RETRIES_TOTAL: &str = "retries_total";

/// Successful transparent re-establishments of a dead binding channel.
pub const RECONNECTS_TOTAL: &str = "reconnects_total";

/// QoS ladder steps taken after a `QosNotSupported` NACK.
pub const QOS_DEGRADATIONS_TOTAL: &str = "qos_degradations_total";

/// Faults injected by a `FaultPlan` (also exported per kind via the
/// `kind` label, e.g. `faults_injected_total{kind="drop"}`).
pub const FAULTS_INJECTED_TOTAL: &str = "faults_injected_total";

/// Inbound requests whose service context carried a trace id the server
/// joined its stage timings to (distributed tracing, DESIGN.md §6).
pub const TRACE_JOINS_TOTAL: &str = "trace_joins_total";

/// Total bytes of trace service-context entries put on the wire, both
/// request (client) and reply (server) side.
pub const SERVICE_CONTEXT_BYTES: &str = "service_context_bytes";

/// Requests a server ran to completion on the thread that delivered them
/// instead of handing them to its dispatcher pool — objects whose recent
/// upcalls were all cheap (DESIGN.md §5, "Threading model").
pub const DISPATCH_INLINE_TOTAL: &str = "orb_dispatch_inline_total";

/// Writes a channel made to its transport, with a `kind` label; beside
/// `transport_frames_sent_total` it tells how many frames a write carried
/// (over TCP, the replies of one read leave in one write: DESIGN.md §5).
pub const TRANSPORT_WRITES_TOTAL: &str = "transport_writes_total";

/// Finished calls evicted from the span store's bounded ring to make room
/// for newer ones — every evicted call, traced or not, counted once.
pub const SPANS_DROPPED_TOTAL: &str = "spans_dropped_total";

/// Flight-recorder events evicted from the bounded ring to make room for
/// newer ones.
pub const FLIGHT_EVENTS_DROPPED_TOTAL: &str = "flight_events_dropped_total";

/// Mid-traffic switches of a replicated binding to another replica after
/// the active one failed (DESIGN.md §8.3).
pub const FAILOVERS_TOTAL: &str = "failovers_total";

/// Replicas evicted from a replicated binding's candidate set after
/// consecutive failures crossed the suspect threshold.
pub const REPLICA_EVICTIONS_TOTAL: &str = "replica_evictions_total";

/// Evicted replicas re-admitted after a successful liveness probe.
pub const REPLICA_READMISSIONS_TOTAL: &str = "replica_readmissions_total";

/// Per-replica circuit-breaker state gauge, exported with a `replica`
/// label (0 = closed, 1 = half-open, 2 = open), e.g.
/// `breaker_state{replica="chorus://rep-a"}`.
pub const BREAKER_STATE: &str = "breaker_state";

/// Gauge: replicas currently considered healthy in a replicated binding.
pub const REPLICAS_HEALTHY: &str = "replicas_healthy";

/// Histogram (µs): latency of directory `resolve` calls as observed by
/// the client, including the ORB round trip.
pub const RESOLVE_LATENCY_US: &str = "resolve_latency_us";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    /// The resilience counters round-trip through every exporter.
    #[test]
    fn resilience_counters_round_trip() {
        let r = Registry::new();
        r.counter(RETRIES_TOTAL).add(3);
        r.counter(RECONNECTS_TOTAL).inc();
        r.counter(QOS_DEGRADATIONS_TOTAL).add(2);
        r.counter(FAULTS_INJECTED_TOTAL).add(7);
        r.counter(&Registry::labeled(
            FAULTS_INJECTED_TOTAL,
            &[("kind", "drop")],
        ))
        .add(5);

        r.counter(TRACE_JOINS_TOTAL).add(9);
        r.counter(SERVICE_CONTEXT_BYTES).add(203);

        r.counter(FAILOVERS_TOTAL).inc();
        r.counter(REPLICA_EVICTIONS_TOTAL).add(2);
        r.counter(REPLICA_READMISSIONS_TOTAL).inc();
        r.gauge(&Registry::labeled(BREAKER_STATE, &[("replica", "chorus://rep-a")]))
            .set(2.0);
        r.gauge(REPLICAS_HEALTHY).set(3.0);
        r.histogram(RESOLVE_LATENCY_US).record(180);

        let snap = r.snapshot();
        assert_eq!(snap.counter(RETRIES_TOTAL), Some(3));
        assert_eq!(snap.counter(TRACE_JOINS_TOTAL), Some(9));
        assert_eq!(snap.counter(SERVICE_CONTEXT_BYTES), Some(203));
        // The bounded stores' eviction counters are synthesized into every
        // snapshot even before anything is recorded.
        assert_eq!(snap.counter(FLIGHT_EVENTS_DROPPED_TOTAL), Some(0));
        assert_eq!(snap.counter(SPANS_DROPPED_TOTAL), Some(0));
        assert_eq!(snap.counter(RECONNECTS_TOTAL), Some(1));
        assert_eq!(snap.counter(QOS_DEGRADATIONS_TOTAL), Some(2));
        assert_eq!(snap.counter(FAULTS_INJECTED_TOTAL), Some(7));
        assert_eq!(
            snap.counter("faults_injected_total{kind=\"drop\"}"),
            Some(5)
        );

        let prom = snap.render_prometheus();
        assert!(prom.contains("retries_total 3"));
        assert!(prom.contains("reconnects_total 1"));
        assert!(prom.contains("qos_degradations_total 2"));
        assert!(prom.contains("faults_injected_total 7"));
        assert!(prom.contains("faults_injected_total{kind=\"drop\"} 5"));

        let json = snap.to_json();
        assert!(json.contains("\"retries_total\":3"));
        assert!(json.contains("\"reconnects_total\":1"));
        assert!(json.contains("\"qos_degradations_total\":2"));
        assert!(json.contains("\"faults_injected_total\":7"));
    }

    /// The replication metrics (failover counters, breaker/health gauges,
    /// resolve latency) round-trip through every exporter too.
    #[test]
    fn replication_metrics_round_trip() {
        let r = Registry::new();
        r.counter(FAILOVERS_TOTAL).inc();
        r.counter(REPLICA_EVICTIONS_TOTAL).inc();
        r.counter(REPLICA_READMISSIONS_TOTAL).inc();
        let breaker = Registry::labeled(BREAKER_STATE, &[("replica", "chorus://rep-b")]);
        r.gauge(&breaker).set(1.0);
        r.gauge(REPLICAS_HEALTHY).set(2.0);
        r.histogram(RESOLVE_LATENCY_US).record(250);

        let snap = r.snapshot();
        assert_eq!(snap.counter(FAILOVERS_TOTAL), Some(1));
        assert_eq!(snap.counter(REPLICA_EVICTIONS_TOTAL), Some(1));
        assert_eq!(snap.counter(REPLICA_READMISSIONS_TOTAL), Some(1));
        let hist = snap.histogram(RESOLVE_LATENCY_US).expect("resolve latency");
        assert_eq!(hist.count, 1);

        let prom = snap.render_prometheus();
        assert!(prom.contains("failovers_total 1"));
        assert!(prom.contains("replica_evictions_total 1"));
        assert!(prom.contains("replica_readmissions_total 1"));
        assert!(prom.contains("breaker_state{replica=\"chorus://rep-b\"} 1"));
        assert!(prom.contains("replicas_healthy 2"));
    }
}
