//! Property-based tests for netsim invariants.

use bytes::Bytes;
use netsim::{Link, LinkSpec};
use proptest::prelude::*;
use std::time::Duration;

proptest! {
    /// Frames always arrive unmodified and in order, for any mix of sizes.
    #[test]
    fn frames_arrive_intact_and_in_order(sizes in proptest::collection::vec(1usize..4096, 1..40)) {
        let link = Link::virtual_time(LinkSpec::default());
        let (a, b) = link.endpoints();
        for (i, size) in sizes.iter().enumerate() {
            let byte = (i % 251) as u8;
            a.send(Bytes::from(vec![byte; *size])).unwrap();
        }
        for (i, size) in sizes.iter().enumerate() {
            let f = b.recv().unwrap();
            prop_assert_eq!(f.len(), *size);
            prop_assert!(f.iter().all(|&x| x == (i % 251) as u8));
        }
    }

    /// Shaping never delivers faster than the configured bandwidth: total
    /// clock time >= total bits / bandwidth.
    #[test]
    fn bandwidth_is_an_upper_bound(
        bw in 1_000_000u64..1_000_000_000,
        sizes in proptest::collection::vec(64usize..16384, 1..30),
    ) {
        let spec = LinkSpec::builder()
            .bandwidth_bps(bw)
            .propagation(Duration::ZERO)
            .build()
            .unwrap();
        let link = Link::virtual_time(spec);
        let clock = link.clock();
        let (a, b) = link.endpoints();
        let total_bits: u64 = sizes.iter().map(|s| *s as u64 * 8).sum();
        for size in &sizes {
            a.send(Bytes::from(vec![0u8; *size])).unwrap();
        }
        for _ in &sizes {
            b.recv().unwrap();
        }
        let min_time = Duration::from_nanos((total_bits as u128 * 1_000_000_000 / bw as u128) as u64);
        // Allow 1 microsecond of integer-rounding slack.
        prop_assert!(clock.now() + Duration::from_micros(1) >= min_time,
            "clock {:?} < minimum {:?}", clock.now(), min_time);
    }

    /// Delivered + dropped always equals sent, for any loss rate.
    #[test]
    fn loss_accounting_is_conserved(loss in 0.0f64..0.9, n in 1usize..200, seed in any::<u64>()) {
        let spec = LinkSpec::builder().loss_rate(loss).seed(seed).build().unwrap();
        let link = Link::virtual_time(spec);
        let (a, b) = link.endpoints();
        for _ in 0..n {
            a.send(Bytes::from_static(b"payload")).unwrap();
        }
        drop(a);
        let mut delivered = 0u64;
        while b.recv().is_ok() {
            delivered += 1;
        }
        let st = link.stats_a_to_b();
        prop_assert_eq!(st.frames_sent(), n as u64);
        prop_assert_eq!(st.frames_delivered(), delivered);
        prop_assert_eq!(st.frames_delivered() + st.frames_dropped(), n as u64);
    }

    /// Identical seeds reproduce identical loss patterns.
    #[test]
    fn loss_is_deterministic_per_seed(seed in any::<u64>()) {
        let run = || {
            let spec = LinkSpec::builder().loss_rate(0.5).seed(seed).build().unwrap();
            let link = Link::virtual_time(spec);
            let (a, b) = link.endpoints();
            for _ in 0..50 {
                a.send(Bytes::from_static(b"x")).unwrap();
            }
            drop(a);
            let mut pattern = Vec::new();
            while b.recv().is_ok() {
                pattern.push(true);
            }
            (pattern.len(), link.stats_a_to_b().frames_dropped())
        };
        prop_assert_eq!(run(), run());
    }
}
