//! Negotiation-outcome telemetry.
//!
//! Records the result of a bilateral negotiation (client spec vs. server
//! policy) into a shared [`cool_telemetry::Registry`]:
//!
//! * `qos_negotiations_accepted` — negotiations that produced a grant.
//! * `qos_negotiations_downgraded` — accepted negotiations where at least
//!   one dimension was granted below the client's requested operating
//!   point (still within its `[min, max]` range). These are a subset of
//!   `accepted`.
//! * `qos_negotiations_nacked` — negotiations the server rejected.
//! * `qos_negotiation_outcomes_total{dimension="…",outcome="…"}` — the
//!   same, broken out per QoS parameter dimension (throughput, latency,
//!   jitter, reliability, ordered, encrypted).

use crate::error::QosError;
use crate::negotiation::GrantedQoS;
use crate::spec::QoSSpec;
use cool_telemetry::Registry;

/// Counter incremented for every negotiation that produced a grant.
pub const ACCEPTED: &str = "qos_negotiations_accepted";
/// Counter incremented when a grant fell short of a requested value.
pub const DOWNGRADED: &str = "qos_negotiations_downgraded";
/// Counter incremented for every server NACK.
pub const NACKED: &str = "qos_negotiations_nacked";

fn dim_counter(registry: &Registry, dimension: &str, outcome: &str) {
    registry
        .counter(&Registry::labeled(
            "qos_negotiation_outcomes_total",
            &[("dimension", dimension), ("outcome", outcome)],
        ))
        .inc();
}

/// Per-dimension outcome of an accepted negotiation: was the granted value
/// exactly what was requested, or a downgrade within range?
fn record_granted_dimensions(registry: &Registry, spec: &QoSSpec, granted: &GrantedQoS) -> bool {
    let mut downgraded = false;
    let mut range_dim = |name: &str, requested: Option<u32>, got: Option<u32>| {
        if let (Some(req), Some(got)) = (requested, got) {
            if got < req {
                downgraded = true;
                dim_counter(registry, name, "downgraded");
            } else {
                dim_counter(registry, name, "accepted");
            }
        }
    };
    range_dim(
        "throughput",
        spec.throughput().map(|r| r.requested),
        granted.throughput_bps(),
    );
    // For latency and jitter "more" is worse: a grant above the requested
    // bound is the downgrade direction.
    let mut bound_dim = |name: &str, requested: Option<u32>, got: Option<u32>| {
        if let (Some(req), Some(got)) = (requested, got) {
            if got > req {
                downgraded = true;
                dim_counter(registry, name, "downgraded");
            } else {
                dim_counter(registry, name, "accepted");
            }
        }
    };
    bound_dim(
        "latency",
        spec.latency().map(|r| r.requested),
        granted.latency_us(),
    );
    bound_dim(
        "jitter",
        spec.jitter().map(|r| r.requested),
        granted.jitter_us(),
    );
    if let (Some(want), Some(got)) = (spec.reliability(), granted.reliability()) {
        if got < want {
            downgraded = true;
            dim_counter(registry, "reliability", "downgraded");
        } else {
            dim_counter(registry, "reliability", "accepted");
        }
    }
    if let (Some(want), Some(got)) = (spec.ordered(), granted.ordered()) {
        if want && !got {
            downgraded = true;
            dim_counter(registry, "ordered", "downgraded");
        } else {
            dim_counter(registry, "ordered", "accepted");
        }
    }
    if let (Some(want), Some(got)) = (spec.encrypted(), granted.encrypted()) {
        if want && !got {
            downgraded = true;
            dim_counter(registry, "encrypted", "downgraded");
        } else {
            dim_counter(registry, "encrypted", "accepted");
        }
    }
    downgraded
}

/// Records a completed bilateral negotiation into `registry`.
///
/// Call with the spec that was negotiated and the result the server
/// produced. Returns whether the outcome counted as a downgrade (useful
/// for callers that log).
pub fn record_negotiation(
    registry: &Registry,
    spec: &QoSSpec,
    result: &Result<GrantedQoS, QosError>,
) -> bool {
    match result {
        Ok(granted) => {
            registry.counter(ACCEPTED).inc();
            let downgraded = record_granted_dimensions(registry, spec, granted);
            if downgraded {
                registry.counter(DOWNGRADED).inc();
            }
            downgraded
        }
        Err(_) => {
            registry.counter(NACKED).inc();
            for (name, constrained) in [
                ("throughput", spec.throughput().is_some()),
                ("latency", spec.latency().is_some()),
                ("jitter", spec.jitter().is_some()),
                ("reliability", spec.reliability().is_some()),
                ("ordered", spec.ordered().is_some()),
                ("encrypted", spec.encrypted().is_some()),
            ] {
                if constrained {
                    dim_counter(registry, name, "nacked");
                }
            }
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ServerPolicy;
    use crate::spec::Reliability;

    #[test]
    fn accepted_at_requested_point() {
        let registry = Registry::new();
        let spec = QoSSpec::builder()
            .throughput_bps(1_000, 500, 2_000)
            .ordered(true)
            .build();
        let policy = ServerPolicy::builder()
            .max_throughput_bps(5_000)
            .supports_ordering(true)
            .build();
        let result = policy.negotiate(&spec);
        assert!(!record_negotiation(&registry, &spec, &result));
        let snap = registry.snapshot();
        assert_eq!(snap.counter(ACCEPTED), Some(1));
        assert_eq!(snap.counter(DOWNGRADED), None);
        assert_eq!(
            snap.counter(
                "qos_negotiation_outcomes_total{dimension=\"throughput\",outcome=\"accepted\"}"
            ),
            Some(1)
        );
    }

    #[test]
    fn downgrade_detected_when_grant_below_request() {
        let registry = Registry::new();
        let spec = QoSSpec::builder()
            .throughput_bps(10_000, 1_000, 20_000)
            .build();
        // Server caps at 4000: grant lands below the requested 10000 but
        // inside [1000, 20000].
        let policy = ServerPolicy::builder().max_throughput_bps(4_000).build();
        let result = policy.negotiate(&spec);
        assert!(result.is_ok());
        assert!(record_negotiation(&registry, &spec, &result));
        let snap = registry.snapshot();
        assert_eq!(snap.counter(ACCEPTED), Some(1));
        assert_eq!(snap.counter(DOWNGRADED), Some(1));
        assert_eq!(
            snap.counter(
                "qos_negotiation_outcomes_total{dimension=\"throughput\",outcome=\"downgraded\"}"
            ),
            Some(1)
        );
    }

    #[test]
    fn nack_counts_per_constrained_dimension() {
        let registry = Registry::new();
        let spec = QoSSpec::builder()
            .throughput_bps(1_000, 1_000, 2_000)
            .reliability(Reliability::Reliable)
            .build();
        // Policy supports neither the floor nor reliability.
        let policy = ServerPolicy::builder().max_throughput_bps(10).build();
        let result = policy.negotiate(&spec);
        assert!(result.is_err());
        record_negotiation(&registry, &spec, &result);
        let snap = registry.snapshot();
        assert_eq!(snap.counter(NACKED), Some(1));
        assert_eq!(snap.counter(ACCEPTED), None);
        assert_eq!(
            snap.counter(
                "qos_negotiation_outcomes_total{dimension=\"throughput\",outcome=\"nacked\"}"
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter(
                "qos_negotiation_outcomes_total{dimension=\"reliability\",outcome=\"nacked\"}"
            ),
            Some(1)
        );
    }
}
