//! The five workloads and what they share.

pub mod churn;
pub mod failover;
pub mod rpc;
pub mod stream;

use crate::harness::Tracing;
use cool_orb::prelude::*;
use multe_qos::Reliability;
use std::sync::Arc;
use std::time::Duration;

/// Name and the window `ledger run` gives it, in seconds. Why each exists
/// is told in `BENCHMARK.json` and README.md.
pub const WORKLOADS: [(&str, u64); 5] = [
    ("rpc_small", 20),
    ("rpc_load", 20),
    ("media_stream", 20),
    ("qos_churn", 20),
    ("replica_failover", 20),
];

/// Timed runs use `OrbConfig::default()` (telemetry off); traced runs add
/// the shared registry (distributed tracing is on by default and does
/// nothing without one).
pub fn orb_config(tracing: Option<&Tracing>) -> OrbConfig {
    OrbConfig {
        telemetry: tracing.map(|t| Arc::clone(&t.registry)),
        ..OrbConfig::default()
    }
}

/// The 4-dimension QoS binding of `rpc_load`'s second stub (and the probes'
/// `qos4` inputs): throughput, reliability, ordering, latency.
pub fn qos4_spec() -> QoSSpec {
    QoSSpec::builder()
        .throughput_bps(1_000_000, 0, i32::MAX)
        .reliability(Reliability::Checked)
        .ordered(true)
        .latency(
            Duration::from_millis(10),
            Duration::ZERO,
            Duration::from_secs(1),
        )
        .build()
}
