//! Property-based tests for QoS negotiation invariants.

use multe_qos::prelude::*;
use proptest::prelude::*;

/// Generates an always-consistent range.
fn arb_range() -> impl Strategy<Value = (u32, i32, i32)> {
    (0i32..=i32::MAX, 0i32..=i32::MAX)
        .prop_map(|(a, b)| (a.min(b), a.max(b)))
        .prop_flat_map(|(min, max)| (min..=max).prop_map(move |req| (req as u32, min, max)))
}

fn arb_reliability() -> impl Strategy<Value = Reliability> {
    prop_oneof![
        Just(Reliability::BestEffort),
        Just(Reliability::Checked),
        Just(Reliability::Reliable),
    ]
}

fn arb_spec() -> impl Strategy<Value = QoSSpec> {
    (
        proptest::option::of(arb_range()),
        proptest::option::of(arb_range()),
        proptest::option::of(arb_range()),
        proptest::option::of(arb_reliability()),
        proptest::option::of(any::<bool>()),
        proptest::option::of(any::<bool>()),
    )
        .prop_map(|(tp, lat, jit, rel, ord, enc)| {
            let mut b = QoSSpec::builder();
            if let Some((req, min, max)) = tp {
                b = b.throughput_bps(req, min, max);
            }
            if let Some((req, min, max)) = lat {
                b = b.latency(
                    std::time::Duration::from_micros(req as u64),
                    std::time::Duration::from_micros(min as u64),
                    std::time::Duration::from_micros(max as u64),
                );
            }
            if let Some((req, min, max)) = jit {
                b = b.jitter(
                    std::time::Duration::from_micros(req as u64),
                    std::time::Duration::from_micros(min as u64),
                    std::time::Duration::from_micros(max as u64),
                );
            }
            if let Some(r) = rel {
                b = b.reliability(r);
            }
            if let Some(o) = ord {
                b = b.ordered(o);
            }
            if let Some(e) = enc {
                b = b.encrypted(e);
            }
            b.build()
        })
}

fn arb_policy() -> impl Strategy<Value = ServerPolicy> {
    (
        proptest::option::of(any::<u32>()),
        proptest::option::of(0u32..10_000_000),
        proptest::option::of(0u32..10_000_000),
        arb_reliability(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(tp, lat, jit, rel, ord, enc)| {
            let mut b = ServerPolicy::builder()
                .max_reliability(rel)
                .supports_ordering(ord)
                .supports_encryption(enc);
            if let Some(t) = tp {
                b = b.max_throughput_bps(t);
            }
            if let Some(l) = lat {
                b = b.min_latency_us(l);
            }
            if let Some(j) = jit {
                b = b.min_jitter_us(j);
            }
            b.build()
        })
}

proptest! {
    /// Whatever the server grants always lies inside the client's ranges.
    #[test]
    fn grants_always_satisfy_the_spec(spec in arb_spec(), policy in arb_policy()) {
        if let Ok(granted) = policy.negotiate(&spec) {
            prop_assert!(granted.satisfies(&spec));
        }
    }

    /// The permissive policy accepts every valid spec.
    #[test]
    fn permissive_policy_never_nacks_valid_specs(spec in arb_spec()) {
        prop_assert!(ServerPolicy::permissive().negotiate(&spec).is_ok());
    }

    /// Spec <-> wire-parameter conversion round-trips the constrained
    /// dimensions (reliability ranges are canonicalised, values survive).
    #[test]
    fn spec_params_round_trip(spec in arb_spec()) {
        let params = spec.to_params();
        let back = QoSSpec::from_params(&params);
        prop_assert_eq!(back.throughput(), spec.throughput());
        prop_assert_eq!(back.latency(), spec.latency());
        prop_assert_eq!(back.jitter(), spec.jitter());
        prop_assert_eq!(back.reliability(), spec.reliability());
        prop_assert_eq!(back.ordered(), spec.ordered());
        prop_assert_eq!(back.encrypted(), spec.encrypted());
    }

    /// Monotonicity: granting more server capability never turns a feasible
    /// request infeasible (throughput dimension).
    #[test]
    fn more_throughput_capability_never_hurts(
        spec in arb_spec(),
        cap in any::<u32>(),
        extra in any::<u32>(),
    ) {
        let small = ServerPolicy::builder()
            .max_throughput_bps(cap)
            .min_latency_us(0)
            .min_jitter_us(0)
            .max_reliability(Reliability::Reliable)
            .supports_ordering(true)
            .supports_encryption(true)
            .build();
        let big = ServerPolicy::builder()
            .max_throughput_bps(cap.saturating_add(extra))
            .min_latency_us(0)
            .min_jitter_us(0)
            .max_reliability(Reliability::Reliable)
            .supports_ordering(true)
            .supports_encryption(true)
            .build();
        if small.negotiate(&spec).is_ok() {
            prop_assert!(big.negotiate(&spec).is_ok());
        }
    }

    /// Transport requirements are monotone in reliability: a stronger class
    /// never needs fewer functions.
    #[test]
    fn requirements_monotone_in_reliability(ordered in any::<bool>(), encrypted in any::<bool>()) {
        let classes = [Reliability::BestEffort, Reliability::Checked, Reliability::Reliable];
        let mut last = 0;
        for class in classes {
            let spec = QoSSpec::builder()
                .reliability(class)
                .ordered(ordered)
                .encrypted(encrypted)
                .build();
            let granted = ServerPolicy::permissive().negotiate(&spec).unwrap();
            let req = TransportRequirements::from_granted(&granted);
            prop_assert!(req.function_count() >= last);
            last = req.function_count();
        }
    }
}
