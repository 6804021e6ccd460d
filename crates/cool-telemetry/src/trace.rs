//! Distributed traces: one record per invocation spanning both processes.
//!
//! The client allocates a [`next_trace_id`] per invocation and attaches it
//! (plus its send wall clock) to the active invocation span as a
//! [`ClientTrace`]; when the reply comes back carrying the server's stage
//! timings (piggybacked in a GIOP service context — see
//! `cool_giop::trace`), the demux thread stashes them on the same span,
//! and closing the span merges client stages, server stages and the two
//! wire gaps into one [`TraceRecord`]. That record *is* the call's entry
//! on the span store's ring — there is no second store — so tracing adds
//! no lock acquisition of its own to the invocation path.
//!
//! Wall-clock gaps are only meaningful when both ends share a clock (one
//! host — exactly the loopback scenarios the bench and e2e suites run).
//! Across hosts the stage *durations* remain exact; the gaps inherit
//! whatever clock skew exists, which is the standard distributed-tracing
//! trade-off.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::span::SpanRecord;

/// Clamps a duration to whole microseconds in a `u32` — the wire width of
/// the per-stage fields in the trace service contexts.
pub fn duration_as_u32_us(d: std::time::Duration) -> u32 {
    d.as_micros().min(u128::from(u32::MAX)) as u32
}

/// Clamps a duration to whole nanoseconds in a `u64` — used to derive a
/// second wall stamp from one wall read plus a monotonic gap, instead of
/// paying (and trusting) a second wall-clock read.
pub fn duration_as_u64_ns(d: std::time::Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// Current wall clock as nanoseconds since the Unix epoch.
pub fn now_wall_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos().min(u128::from(u64::MAX)) as u64)
        .unwrap_or(0)
}

/// Allocates a process-unique trace id. The sequence is seeded from the
/// wall clock (scrambled) so two processes started near-simultaneously
/// still produce disjoint id ranges with high probability.
pub fn next_trace_id() -> u64 {
    static NEXT: OnceLock<AtomicU64> = OnceLock::new();
    let next = NEXT.get_or_init(|| {
        let mut z = now_wall_ns().wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        AtomicU64::new(z ^ (z >> 31))
    });
    next.fetch_add(1, Ordering::Relaxed)
}

/// Client half of a distributed trace, created at send time and carried
/// on the active invocation span until the span closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientTrace {
    /// Trace id attached to the outbound request service context.
    pub trace_id: u64,
    /// Client wall clock (ns since epoch) just before the frame was sent.
    pub sent_at_ns: u64,
    /// Monotonic twin of `sent_at_ns`; the client receive stamp is
    /// derived as `sent_at_ns` plus the monotonic gap to the reply.
    pub sent_mono: std::time::Instant,
}

/// Server-side half of a trace, as carried back on the reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerTraceTiming {
    /// Server wall clock (ns since epoch) when the request was decoded.
    pub recv_at_ns: u64,
    /// Server wall clock (ns since epoch) just before the reply was sent.
    pub sent_at_ns: u64,
    /// Dispatcher-queue wait, µs.
    pub queue_wait_us: u32,
    /// QoS negotiation, µs.
    pub negotiate_us: u32,
    /// Servant execution, µs.
    pub execute_us: u32,
}

/// One merged distributed trace: the client's invocation span, the server
/// timings echoed on the reply, and the wire gaps between them.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Trace id carried in the request service context.
    pub trace_id: u64,
    /// The client-side invocation span (on a shared-registry loopback this
    /// already contains the server stages too).
    pub span: SpanRecord,
    /// Server half, when the server echoed one back.
    pub server: Option<ServerTraceTiming>,
    /// Outbound wire gap: server receive minus client send, µs.
    pub wire_out_us: Option<u64>,
    /// Return wire gap: client receive minus server send, µs.
    pub wire_back_us: Option<u64>,
}

impl TraceRecord {
    /// Merges a finished span with the client half attached at send time
    /// and, when a traced reply arrived, the server half plus the client
    /// receive stamp; the wire gaps are the wall-clock deltas around the
    /// server's work, clamped at zero.
    pub(crate) fn merge(
        trace: ClientTrace,
        span: SpanRecord,
        server_reply: Option<(ServerTraceTiming, u64)>,
    ) -> TraceRecord {
        let gap_us = |later: u64, earlier: u64| Some(later.saturating_sub(earlier) / 1_000);
        let (wire_out_us, wire_back_us) = match &server_reply {
            Some((s, client_recv_ns)) => (
                gap_us(s.recv_at_ns, trace.sent_at_ns),
                gap_us(*client_recv_ns, s.sent_at_ns),
            ),
            None => (None, None),
        };
        TraceRecord {
            trace_id: trace.trace_id,
            span,
            server: server_reply.map(|(s, _)| s),
            wire_out_us,
            wire_back_us,
        }
    }

    /// True when both halves are present and the gaps were computed.
    pub fn is_merged(&self) -> bool {
        self.server.is_some() && self.wire_out_us.is_some() && self.wire_back_us.is_some()
    }

    /// Single-line JSON object for exporters and the `/spans` endpoint:
    /// the span's fields with its stages under `"client"`, then the server
    /// half and the wire gaps.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(320);
        out.push_str(&format!("{{\"trace_id\":{},", self.trace_id));
        self.span.push_json_fields(&mut out, "client");
        out.push_str(",\"server\":");
        match &self.server {
            Some(s) => out.push_str(&format!(
                "{{\"recv_at_ns\":{},\"sent_at_ns\":{},\"queue_wait_us\":{},\"negotiate_us\":{},\"execute_us\":{}}}",
                s.recv_at_ns, s.sent_at_ns, s.queue_wait_us, s.negotiate_us, s.execute_us
            )),
            None => out.push_str("null"),
        }
        out.push_str(&format!(
            ",\"wire_out_us\":{},\"wire_back_us\":{}}}",
            self.wire_out_us
                .map_or("null".to_string(), |v| v.to_string()),
            self.wire_back_us
                .map_or("null".to_string(), |v| v.to_string())
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanOutcome;

    fn span(request_id: u32) -> SpanRecord {
        SpanRecord {
            request_id,
            operation: "echo".into(),
            transport: "tcp",
            stages: [None; 6],
            total_us: 250,
            outcome: SpanOutcome::Ok,
        }
    }

    #[test]
    fn merge_computes_wire_gaps() {
        let rec = TraceRecord::merge(
            ClientTrace {
                trace_id: 42,
                sent_at_ns: 1_000_000,
                sent_mono: std::time::Instant::now(),
            },
            span(1),
            Some((
                ServerTraceTiming {
                    recv_at_ns: 1_080_000,
                    sent_at_ns: 1_200_000,
                    queue_wait_us: 5,
                    negotiate_us: 1,
                    execute_us: 90,
                },
                1_275_000,
            )),
        );
        assert!(rec.is_merged());
        assert_eq!(rec.trace_id, 42);
        assert_eq!(rec.wire_out_us, Some(80));
        assert_eq!(rec.wire_back_us, Some(75));
        let json = rec.to_json();
        assert!(
            json.starts_with("{\"trace_id\":42,\"request_id\":1,"),
            "{json}"
        );
        assert!(json.contains("\"total_us\":250,\"client\":{}"), "{json}");
        assert!(json.contains("\"queue_wait_us\":5"));
        assert!(json.contains("\"wire_out_us\":80"));
    }

    #[test]
    fn replyless_trace_has_no_server_half() {
        let rec = TraceRecord::merge(
            ClientTrace {
                trace_id: 7,
                sent_at_ns: 500,
                sent_mono: std::time::Instant::now(),
            },
            span(2),
            None,
        );
        assert!(!rec.is_merged());
        assert_eq!(rec.server, None);
        assert!(rec.to_json().contains("\"server\":null"));
    }

    #[test]
    fn trace_ids_are_unique_and_increasing() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, b);
    }
}
