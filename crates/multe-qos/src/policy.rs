//! Server-side QoS policy and the bilateral negotiation rules.
//!
//! The object implementation (or its adapter) owns a [`ServerPolicy`]
//! describing what it can support. When a QoS-extended Request arrives, the
//! skeleton runs [`ServerPolicy::negotiate`]:
//!
//! * if every dimension can be met inside the client's range, a
//!   [`GrantedQoS`] comes back and the invocation proceeds (Figure 3-ii);
//! * otherwise a [`QosError::Infeasible`] describes the first failing
//!   dimension, and the ORB sends it to the client as a CORBA user
//!   exception — the NACK of Figure 3-i.
//!
//! Negotiation is *capability clipping*: for "bigger is better" dimensions
//! (throughput, reliability) the server offers
//! `min(requested, capability)`; for "smaller is better" dimensions
//! (latency, jitter) it offers `max(requested, floor)`. The offer succeeds
//! iff it stays inside the client's `[min, max]`.

use crate::error::QosError;
use crate::negotiation::GrantedQoS;
use crate::spec::{QoSSpec, Reliability};

/// What a server can support, per dimension.
///
/// Missing capabilities mean "cannot constrain that dimension at all": any
/// request that *requires* it (min above the floor) is NACKed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerPolicy {
    max_throughput_bps: Option<u32>,
    min_latency_us: Option<u32>,
    min_jitter_us: Option<u32>,
    max_reliability: Reliability,
    supports_ordering: bool,
    supports_encryption: bool,
}

impl Default for ServerPolicy {
    /// A permissive policy: unlimited throughput, zero latency/jitter
    /// floors, full reliability, ordering and encryption supported.
    fn default() -> Self {
        ServerPolicy {
            max_throughput_bps: Some(u32::MAX),
            min_latency_us: Some(0),
            min_jitter_us: Some(0),
            max_reliability: Reliability::Reliable,
            supports_ordering: true,
            supports_encryption: true,
        }
    }
}

impl ServerPolicy {
    /// Starts building a policy from a *restrictive* baseline: nothing is
    /// supported until declared.
    pub fn builder() -> ServerPolicyBuilder {
        ServerPolicyBuilder {
            policy: ServerPolicy {
                max_throughput_bps: None,
                min_latency_us: None,
                min_jitter_us: None,
                max_reliability: Reliability::BestEffort,
                supports_ordering: false,
                supports_encryption: false,
            },
        }
    }

    /// A policy that accepts anything (useful for colocated objects).
    pub fn permissive() -> Self {
        ServerPolicy::default()
    }

    /// Runs bilateral negotiation against a client spec.
    ///
    /// # Errors
    ///
    /// [`QosError::InvalidRange`] if the spec is inconsistent;
    /// [`QosError::Infeasible`] naming the first dimension that cannot be
    /// met (the NACK payload).
    pub fn negotiate(&self, spec: &QoSSpec) -> Result<GrantedQoS, QosError> {
        spec.validate()?;
        let mut granted = GrantedQoS::best_effort();

        if let Some(range) = spec.throughput() {
            let capability = self.max_throughput_bps.unwrap_or(0);
            // Bigger is better: clip the request to our capability.
            let offer = range.requested.min(capability);
            if (offer as i64) < range.min as i64 {
                return Err(QosError::Infeasible {
                    dimension: "throughput",
                    requested: range.requested as i64,
                    offered: self.max_throughput_bps.map(|c| c as i64),
                });
            }
            granted.set_throughput(offer);
        }

        if let Some(range) = spec.latency() {
            match self.min_latency_us {
                Some(floor) => {
                    // Smaller is better: we cannot go below our floor.
                    let offer = range.requested.max(floor);
                    if offer as i64 > range.max as i64 {
                        return Err(QosError::Infeasible {
                            dimension: "latency",
                            requested: range.requested as i64,
                            offered: Some(floor as i64),
                        });
                    }
                    granted.set_latency(offer);
                }
                None => {
                    return Err(QosError::Infeasible {
                        dimension: "latency",
                        requested: range.requested as i64,
                        offered: None,
                    })
                }
            }
        }

        if let Some(range) = spec.jitter() {
            match self.min_jitter_us {
                Some(floor) => {
                    let offer = range.requested.max(floor);
                    if offer as i64 > range.max as i64 {
                        return Err(QosError::Infeasible {
                            dimension: "jitter",
                            requested: range.requested as i64,
                            offered: Some(floor as i64),
                        });
                    }
                    granted.set_jitter(offer);
                }
                None => {
                    return Err(QosError::Infeasible {
                        dimension: "jitter",
                        requested: range.requested as i64,
                        offered: None,
                    })
                }
            }
        }

        if let Some(wanted) = spec.reliability() {
            if self.max_reliability < wanted {
                return Err(QosError::Infeasible {
                    dimension: "reliability",
                    requested: wanted.level() as i64,
                    offered: Some(self.max_reliability.level() as i64),
                });
            }
            granted.set_reliability(wanted);
        }

        if let Some(wanted) = spec.ordered() {
            if wanted && !self.supports_ordering {
                return Err(QosError::Infeasible {
                    dimension: "ordering",
                    requested: 1,
                    offered: Some(0),
                });
            }
            granted.set_ordered(wanted);
        }

        if let Some(wanted) = spec.encrypted() {
            if wanted && !self.supports_encryption {
                return Err(QosError::Infeasible {
                    dimension: "encryption",
                    requested: 1,
                    offered: Some(0),
                });
            }
            granted.set_encrypted(wanted);
        }

        debug_assert!(
            granted.satisfies(spec),
            "negotiation postcondition violated"
        );
        Ok(granted)
    }

    /// Walks a degradation ladder — the client's preferred spec first,
    /// followed by progressively weaker fallbacks — and grants the first
    /// feasible rung.
    ///
    /// Returns the granted rung's index (0 = preferred spec) alongside the
    /// grant so callers can report how far the call degraded.
    ///
    /// # Errors
    ///
    /// [`QosError::InvalidRange`] immediately if a rung is internally
    /// inconsistent (a malformed ladder is a caller bug, not a negotiation
    /// outcome); otherwise the [`QosError::Infeasible`] NACK of the *last*
    /// rung when every rung is refused, or a generic `Infeasible` for an
    /// empty ladder.
    pub fn negotiate_ladder(&self, rungs: &[QoSSpec]) -> Result<(usize, GrantedQoS), QosError> {
        let mut last_nack = None;
        for (i, rung) in rungs.iter().enumerate() {
            match self.negotiate(rung) {
                Ok(granted) => return Ok((i, granted)),
                Err(e @ QosError::InvalidRange { .. }) => return Err(e),
                Err(e) => last_nack = Some(e),
            }
        }
        Err(last_nack.unwrap_or(QosError::Infeasible {
            dimension: "ladder",
            requested: 0,
            offered: None,
        }))
    }
}

/// Builder for [`ServerPolicy`] (restrictive baseline).
#[derive(Debug)]
pub struct ServerPolicyBuilder {
    policy: ServerPolicy,
}

impl ServerPolicyBuilder {
    /// Declares the maximum sustainable throughput.
    pub fn max_throughput_bps(mut self, bps: u32) -> Self {
        self.policy.max_throughput_bps = Some(bps);
        self
    }

    /// Declares the best (lowest) latency achievable, in microseconds.
    pub fn min_latency_us(mut self, us: u32) -> Self {
        self.policy.min_latency_us = Some(us);
        self
    }

    /// Declares the best (lowest) jitter achievable, in microseconds.
    pub fn min_jitter_us(mut self, us: u32) -> Self {
        self.policy.min_jitter_us = Some(us);
        self
    }

    /// Declares the strongest reliability class available.
    pub fn max_reliability(mut self, r: Reliability) -> Self {
        self.policy.max_reliability = r;
        self
    }

    /// Declares ordering support.
    pub fn supports_ordering(mut self, yes: bool) -> Self {
        self.policy.supports_ordering = yes;
        self
    }

    /// Declares encryption support.
    pub fn supports_encryption(mut self, yes: bool) -> Self {
        self.policy.supports_encryption = yes;
        self
    }

    /// Finishes the policy.
    pub fn build(self) -> ServerPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn best_effort_always_granted() {
        let policy = ServerPolicy::builder().build(); // supports nothing
        let granted = policy.negotiate(&QoSSpec::best_effort()).unwrap();
        assert!(granted.is_best_effort());
    }

    #[test]
    fn throughput_clipped_to_capability() {
        let policy = ServerPolicy::builder()
            .max_throughput_bps(8_000_000)
            .build();
        let spec = QoSSpec::builder()
            .throughput_bps(10_000_000, 1_000_000, 20_000_000)
            .build();
        let granted = policy.negotiate(&spec).unwrap();
        assert_eq!(granted.throughput_bps(), Some(8_000_000));
    }

    #[test]
    fn throughput_below_client_minimum_nacked() {
        let policy = ServerPolicy::builder().max_throughput_bps(500_000).build();
        let spec = QoSSpec::builder()
            .throughput_bps(10_000_000, 1_000_000, 20_000_000)
            .build();
        let err = policy.negotiate(&spec).unwrap_err();
        assert_eq!(
            err,
            QosError::Infeasible {
                dimension: "throughput",
                requested: 10_000_000,
                offered: Some(500_000)
            }
        );
    }

    #[test]
    fn ladder_prefers_the_first_feasible_rung() {
        let policy = ServerPolicy::builder().max_throughput_bps(500_000).build();
        let preferred = QoSSpec::builder()
            .throughput_bps(10_000_000, 1_000_000, 20_000_000)
            .build();
        let fallback = QoSSpec::builder()
            .throughput_bps(400_000, 100_000, 1_000_000)
            .build();
        let (rung, granted) = policy.negotiate_ladder(&[preferred, fallback]).unwrap();
        assert_eq!(rung, 1);
        assert_eq!(granted.throughput_bps(), Some(400_000));
    }

    #[test]
    fn ladder_does_not_degrade_when_preferred_is_feasible() {
        let policy = ServerPolicy::permissive();
        let preferred = QoSSpec::builder()
            .throughput_bps(10_000_000, 1_000_000, 20_000_000)
            .build();
        let (rung, _) = policy
            .negotiate_ladder(&[preferred, QoSSpec::best_effort()])
            .unwrap();
        assert_eq!(rung, 0);
    }

    #[test]
    fn exhausted_ladder_returns_the_last_nack() {
        let policy = ServerPolicy::builder().max_throughput_bps(100).build();
        let rung0 = QoSSpec::builder()
            .throughput_bps(10_000_000, 1_000_000, 20_000_000)
            .build();
        let rung1 = QoSSpec::builder()
            .throughput_bps(5_000, 1_000, 10_000)
            .build();
        let err = policy.negotiate_ladder(&[rung0, rung1]).unwrap_err();
        assert_eq!(
            err,
            QosError::Infeasible {
                dimension: "throughput",
                requested: 5_000,
                offered: Some(100)
            }
        );
    }

    #[test]
    fn empty_ladder_is_infeasible() {
        let err = ServerPolicy::permissive()
            .negotiate_ladder(&[])
            .unwrap_err();
        assert!(matches!(
            err,
            QosError::Infeasible {
                dimension: "ladder",
                ..
            }
        ));
    }

    #[test]
    fn latency_raised_to_floor() {
        let policy = ServerPolicy::builder().min_latency_us(2000).build();
        let spec = QoSSpec::builder()
            .latency(
                Duration::from_millis(1),
                Duration::ZERO,
                Duration::from_millis(10),
            )
            .build();
        let granted = policy.negotiate(&spec).unwrap();
        assert_eq!(granted.latency_us(), Some(2000));
    }

    #[test]
    fn latency_floor_above_client_maximum_nacked() {
        let policy = ServerPolicy::builder().min_latency_us(50_000).build();
        let spec = QoSSpec::builder()
            .latency(
                Duration::from_millis(1),
                Duration::ZERO,
                Duration::from_millis(10),
            )
            .build();
        assert!(matches!(
            policy.negotiate(&spec),
            Err(QosError::Infeasible {
                dimension: "latency",
                ..
            })
        ));
    }

    #[test]
    fn unsupported_dimension_nacked_with_no_offer() {
        let policy = ServerPolicy::builder().max_throughput_bps(1).build(); // no latency support
        let spec = QoSSpec::builder()
            .latency(
                Duration::from_millis(1),
                Duration::ZERO,
                Duration::from_millis(10),
            )
            .build();
        assert!(matches!(
            policy.negotiate(&spec),
            Err(QosError::Infeasible {
                dimension: "latency",
                offered: None,
                ..
            })
        ));
    }

    #[test]
    fn reliability_gate() {
        let policy = ServerPolicy::builder()
            .max_reliability(Reliability::Checked)
            .build();
        let ok = QoSSpec::builder().reliability(Reliability::Checked).build();
        assert_eq!(
            policy.negotiate(&ok).unwrap().reliability(),
            Some(Reliability::Checked)
        );
        let too_much = QoSSpec::builder()
            .reliability(Reliability::Reliable)
            .build();
        assert!(matches!(
            policy.negotiate(&too_much),
            Err(QosError::Infeasible {
                dimension: "reliability",
                ..
            })
        ));
    }

    #[test]
    fn boolean_dimensions() {
        let policy = ServerPolicy::builder().supports_ordering(true).build();
        let ordered = QoSSpec::builder().ordered(true).build();
        assert_eq!(policy.negotiate(&ordered).unwrap().ordered(), Some(true));
        let encrypted = QoSSpec::builder().encrypted(true).build();
        assert!(matches!(
            policy.negotiate(&encrypted),
            Err(QosError::Infeasible {
                dimension: "encryption",
                ..
            })
        ));
        // Explicitly waived encryption is fine even without support.
        let waived = QoSSpec::builder().encrypted(false).build();
        assert_eq!(policy.negotiate(&waived).unwrap().encrypted(), Some(false));
    }

    #[test]
    fn invalid_spec_rejected_before_negotiation() {
        let policy = ServerPolicy::permissive();
        let broken = QoSSpec::builder().throughput_bps(10, 100, 5).build();
        assert!(matches!(
            policy.negotiate(&broken),
            Err(QosError::InvalidRange { .. })
        ));
    }

    #[test]
    fn permissive_policy_grants_everything() {
        let policy = ServerPolicy::permissive();
        let spec = QoSSpec::builder()
            .throughput_bps(i32::MAX as u32, 0, i32::MAX)
            .latency(Duration::ZERO, Duration::ZERO, Duration::from_secs(1))
            .jitter(Duration::ZERO, Duration::ZERO, Duration::from_secs(1))
            .reliability(Reliability::Reliable)
            .ordered(true)
            .encrypted(true)
            .build();
        let granted = policy.negotiate(&spec).unwrap();
        assert!(granted.satisfies(&spec));
    }
}
