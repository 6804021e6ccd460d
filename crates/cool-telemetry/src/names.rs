//! Well-known metric names shared across crates.
//!
//! The resilience layer (retry/backoff, reconnection, QoS degradation and
//! fault injection — DESIGN.md §8) reports through ordinary registry
//! counters; the names live here so cool-orb, the benches and the chaos
//! suite all agree on the exact strings. Every counter appears in
//! [`crate::Registry::render_prometheus`], [`crate::TelemetrySnapshot`]
//! and the snapshot's JSON as soon as it is first resolved.
//!
//! One macro declares the constants and [`ALL`], so no name is left off
//! the list. Tests hold the list to two promises: every name is
//! documented in DESIGN.md §6, and every name shows up in a registry's
//! Prometheus render after the scenario that emits it (`tests/chaos.rs`,
//! `tests/failover_chaos.rs`).

/// Declares each name as a constant, and [`ALL`] as the list of them.
macro_rules! names {
    ($($(#[$doc:meta])* $name:ident = $value:literal;)*) => {
        $($(#[$doc])* pub const $name: &str = $value;)*

        /// Every name above, in declaration order.
        pub const ALL: &[&str] = &[$($name),*];
    };
}

names! {
    /// Invocation attempts replayed by a `RetryPolicy` after a retryable error.
    RETRIES_TOTAL = "retries_total";

    /// Successful transparent re-establishments of a dead binding channel.
    RECONNECTS_TOTAL = "reconnects_total";

    /// QoS ladder steps taken after a `QosNotSupported` NACK.
    QOS_DEGRADATIONS_TOTAL = "qos_degradations_total";

    /// Faults injected by a `FaultPlan` (also exported per kind via the
    /// `kind` label, e.g. `faults_injected_total{kind="drop"}`).
    FAULTS_INJECTED_TOTAL = "faults_injected_total";

    /// Inbound requests whose service context carried a trace id the server
    /// joined its stage timings to (distributed tracing, DESIGN.md §6).
    TRACE_JOINS_TOTAL = "trace_joins_total";

    /// Total bytes of trace service-context entries put on the wire, both
    /// request (client) and reply (server) side.
    SERVICE_CONTEXT_BYTES = "service_context_bytes";

    /// Requests a server ran to completion on the thread that delivered them
    /// instead of handing them to its dispatcher pool — objects whose recent
    /// upcalls were all cheap (DESIGN.md §5, "Threading model").
    DISPATCH_INLINE_TOTAL = "orb_dispatch_inline_total";

    /// Writes a channel made to its transport, with a `kind` label; beside
    /// `transport_frames_sent_total` it tells how many frames a write carried
    /// (over TCP, the replies of one read leave in one write: DESIGN.md §5).
    TRANSPORT_WRITES_TOTAL = "transport_writes_total";

    /// Finished calls evicted from the span store's bounded ring to make room
    /// for newer ones — every evicted call, traced or not, counted once.
    SPANS_DROPPED_TOTAL = "spans_dropped_total";

    /// Flight-recorder events evicted from the bounded ring to make room for
    /// newer ones.
    FLIGHT_EVENTS_DROPPED_TOTAL = "flight_events_dropped_total";

    /// Mid-traffic switches of a replicated binding to another replica after
    /// the active one failed (DESIGN.md §8.3).
    FAILOVERS_TOTAL = "failovers_total";

    /// Replicas evicted from a replicated binding's candidate set after
    /// consecutive failures crossed the suspect threshold.
    REPLICA_EVICTIONS_TOTAL = "replica_evictions_total";

    /// Evicted replicas re-admitted after a successful liveness probe.
    REPLICA_READMISSIONS_TOTAL = "replica_readmissions_total";

    /// Per-replica circuit-breaker state gauge, exported with a `replica`
    /// label (0 = closed, 1 = half-open, 2 = open), e.g.
    /// `breaker_state{replica="chorus://rep-a"}`: summed over the
    /// registry's replicated bindings of that replica; a closed binding
    /// takes its share back.
    BREAKER_STATE = "breaker_state";

    /// Gauge: replicas in rotation (healthy or suspect), summed over the
    /// registry's replicated bindings; a closed binding takes its share back.
    REPLICAS_HEALTHY = "replicas_healthy";

    /// Histogram (µs): latency of directory `resolve` calls as observed by
    /// the client, including the ORB round trip.
    RESOLVE_LATENCY_US = "resolve_latency_us";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    /// DESIGN.md §6, the catalogue an operator reads: from its heading to
    /// the next section's.
    fn design_section_6() -> &'static str {
        let design = include_str!("../../../DESIGN.md");
        let start = design.find("\n## 6.").expect("DESIGN.md has a §6");
        let rest = &design[start + 1..];
        let end = rest.find("\n## ").map_or(rest.len(), |e| e + 1);
        &rest[..end]
    }

    #[test]
    fn every_name_is_documented_in_design_section_6() {
        let catalogue = design_section_6();
        let missing: Vec<&str> = ALL
            .iter()
            .copied()
            .filter(|name| !catalogue.contains(&format!("`{name}")))
            .collect();
        assert!(missing.is_empty(), "not in DESIGN.md §6: {missing:?}");
    }

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
        r.gauge(&Registry::labeled(
            BREAKER_STATE,
            &[("replica", "chorus://rep-a")],
        ))
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
