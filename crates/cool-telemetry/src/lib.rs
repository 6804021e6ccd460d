//! `cool-telemetry` — zero-dependency observability for the COOL ORB.
//!
//! The paper's central claim is that QoS becomes *visible and negotiable*
//! at every layer of the ORB. This crate is the "visible" half: a shared
//! [`Registry`] of named counters/gauges/histograms plus per-invocation
//! [spans](span) that record where each call's latency went — marshal,
//! frame send, dispatch-queue wait, QoS negotiation, servant execution,
//! reply decode.
//!
//! Design rules:
//! - **No dependencies.** std only, so every runtime crate (netsim,
//!   multe-qos, dacapo, cool-orb, bench) can depend on it without
//!   widening the graph.
//! - **Lock-free hot path.** Metric updates are relaxed atomics on
//!   pre-resolved `Arc` handles; the registry mutex is only taken at
//!   handle-resolution and snapshot time. Span operations take one short
//!   mutex but run only on call boundaries, not per frame.
//! - **Optional everywhere.** Instrumented components hold
//!   `Option<…Metrics>`; with `OrbConfig::telemetry = None` the cost is a
//!   branch on a `None`.

#![forbid(unsafe_code)]

pub mod allocs;
pub mod flight;
pub mod introspect;
pub mod lockorder;
pub mod metrics;
pub mod names;
pub mod registry;
mod ring;
pub mod sampler;
pub mod span;
pub mod trace;

pub use flight::{FlightEvent, FlightRecorder};
pub use introspect::IntrospectServer;
pub use metrics::{bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot, BUCKET_COUNT, OVERFLOW_BUCKET};
pub use registry::{Registry, TelemetrySnapshot};
pub use sampler::{GaugeSample, GaugeSampler, GaugeSeries, DEFAULT_SAMPLE_PERIOD};
pub use span::{SpanOutcome, SpanRecord, Stage, StageTiming, STAGES};
pub use trace::{
    duration_as_u32_us, duration_as_u64_ns, next_trace_id, now_wall_ns, ClientTrace, ServerTraceTiming, TraceRecord,
};
