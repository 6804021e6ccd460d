//! Invocation spans: per-call stage timings carried by request id.
//!
//! A span is opened when the client starts marshalling a request and
//! closed when the reply is decoded (or the call times out / errors /
//! is cancelled). In between, the instrumented layers mark stages as they
//! complete. Client-side stages (`Marshal`, `FrameSend`, `ReplyDecode`)
//! and server-side stages (`QueueWait`, `QosNegotiate`, `ServantExecute`)
//! are recorded by different threads; on a loopback call that shares one
//! registry both sides land in the same span, giving the full six-stage
//! picture the paper's layered-QoS story calls for.
//!
//! A finished call is kept once, on one bounded ring: as its
//! [`SpanRecord`], or — when a [`ClientTrace`] rode the span — as the
//! [`TraceRecord`] that wraps the span with the server half and the wire
//! gaps. `Registry::recent_spans` and `Registry::recent_traces` are two
//! views of that ring, and its eviction count is `spans_dropped_total`.
//!
//! Spans are keyed by the GIOP/COOL request id alone. Two bindings that
//! share a registry and happen to reuse an id concurrently will merge
//! their marks — acceptable for an observability ring, and irrelevant for
//! the single-binding bench/test scenarios that consume this data.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::lockorder::{rank, OrderedMutex};
use crate::registry::json_escape;
use crate::ring::Ring;
use crate::trace::{ClientTrace, ServerTraceTiming, TraceRecord};

/// Pipeline stages of one invocation, in chronological order.
///
/// Note the order differs slightly from a naive reading of the GIOP flow:
/// in this ORB, QoS negotiation runs inside the server dispatcher *after*
/// the request has waited in the dispatch queue, so `QueueWait` precedes
/// `QosNegotiate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// Client: CDR-encode the request body and GIOP header.
    Marshal,
    /// Client: hand the frame to the transport (`send_frame` returned).
    FrameSend,
    /// Server: time spent queued before a dispatcher picked the job up.
    QueueWait,
    /// Server: bilateral QoS negotiation against the servant policy.
    QosNegotiate,
    /// Server: servant method execution.
    ServantExecute,
    /// Client: reply frame matched and CDR-decoded.
    ReplyDecode,
}

/// All stages, in chronological order.
pub const STAGES: [Stage; 6] = [
    Stage::Marshal,
    Stage::FrameSend,
    Stage::QueueWait,
    Stage::QosNegotiate,
    Stage::ServantExecute,
    Stage::ReplyDecode,
];

impl Stage {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Marshal => "marshal",
            Stage::FrameSend => "frame_send",
            Stage::QueueWait => "queue_wait",
            Stage::QosNegotiate => "qos_negotiate",
            Stage::ServantExecute => "servant_execute",
            Stage::ReplyDecode => "reply_decode",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Timing of one completed stage within a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTiming {
    /// Microseconds from span start to the moment the stage *completed*.
    pub offset_us: u64,
    /// How long the stage itself took, in microseconds.
    pub duration_us: u64,
}

/// How an invocation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// Reply decoded successfully.
    Ok,
    /// The call failed (transport error, NACK, servant exception…).
    Error,
    /// The client gave up waiting.
    Timeout,
    /// The request was cancelled before completing.
    Cancelled,
}

impl SpanOutcome {
    /// Stable lowercase name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            SpanOutcome::Ok => "ok",
            SpanOutcome::Error => "error",
            SpanOutcome::Timeout => "timeout",
            SpanOutcome::Cancelled => "cancelled",
        }
    }
}

/// A finished (or in-flight) invocation span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// GIOP/COOL request id the span is keyed by.
    pub request_id: u32,
    /// Operation name from the request header. Shared, so cloning a
    /// record (snapshots, `/spans`) never re-allocates it.
    pub operation: Arc<str>,
    /// Transport kind the call travelled over ("tcp", "chorus", "dacapo").
    pub transport: &'static str,
    /// Per-stage timings, indexed by [`Stage`] order; `None` while the
    /// stage has not completed (one-way calls never record the server or
    /// reply stages, timed-out calls stop wherever they got to).
    pub stages: [Option<StageTiming>; 6],
    /// Microseconds from span start to `span_finish`.
    pub total_us: u64,
    /// Final outcome.
    pub outcome: SpanOutcome,
}

impl SpanRecord {
    /// Timing for one stage, if it completed.
    pub fn stage(&self, s: Stage) -> Option<StageTiming> {
        self.stages[s.index()]
    }

    /// True when every one of the six stages has a timing.
    pub fn is_complete(&self) -> bool {
        self.stages.iter().all(Option::is_some)
    }

    /// Single-line JSON object for exporters and the `/spans` endpoint.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        self.push_json_fields(&mut out, "stages");
        out.push('}');
        out
    }

    /// Writes the span's fields into an open JSON object, its completed
    /// stages as an object under `stages_key` — the one stage renderer,
    /// shared with [`TraceRecord::to_json`].
    pub(crate) fn push_json_fields(&self, out: &mut String, stages_key: &str) {
        out.push_str(&format!(
            "\"request_id\":{},\"operation\":\"{}\",\"transport\":\"{}\",\"outcome\":\"{}\",\"total_us\":{},\"{stages_key}\":{{",
            self.request_id,
            json_escape(&self.operation),
            self.transport,
            self.outcome.name(),
            self.total_us
        ));
        let mut first = true;
        for stage in STAGES {
            if let Some(t) = self.stage(stage) {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!(
                    "\"{}\":{{\"offset_us\":{},\"duration_us\":{}}}",
                    stage.name(),
                    t.offset_us,
                    t.duration_us
                ));
            }
        }
        out.push('}');
    }
}

struct ActiveSpan {
    started: Instant,
    record: SpanRecord,
    /// Client half of a distributed trace, attached at send time. Riding
    /// the active span (instead of a separate pending table) means tracing
    /// takes no lock acquisition of its own.
    trace: Option<ClientTrace>,
    /// Server half plus the client receive wall clock, stashed by the
    /// reply demux thread.
    server_reply: Option<(ServerTraceTiming, u64)>,
}

impl ActiveSpan {
    /// Ends the span with `outcome`: its total is taken now, and the trace
    /// halves are merged in when a client trace was attached.
    fn close(self, outcome: SpanOutcome) -> Finished {
        let mut record = self.record;
        record.total_us = as_us(self.started.elapsed());
        record.outcome = outcome;
        match self.trace {
            Some(trace) => Finished::Traced(TraceRecord::merge(trace, record, self.server_reply)),
            None => Finished::Span(record),
        }
    }
}

/// One finished call as the ring keeps it: its span, or the merged trace
/// that holds the span.
enum Finished {
    Span(SpanRecord),
    Traced(TraceRecord),
}

impl Finished {
    fn span(&self) -> &SpanRecord {
        match self {
            Finished::Span(span) => span,
            Finished::Traced(trace) => &trace.span,
        }
    }

    fn trace(&self) -> Option<&TraceRecord> {
        match self {
            Finished::Span(_) => None,
            Finished::Traced(trace) => Some(trace),
        }
    }
}

/// Active spans are bounded: an abandoned span (a `notify` with no reply,
/// a `DeferredReply` that is never waited on) must not leak. When the map
/// is full the oldest span is evicted, finished as `Cancelled`, and pushed
/// to the ring.
const MAX_ACTIVE_SPANS: usize = 1024;

/// Finished calls the ring keeps.
const RECENT_CALLS: usize = 128;

type FinishedRing = Ring<Finished, RECENT_CALLS>;

#[derive(Default)]
struct SpanStoreInner {
    active: HashMap<u32, ActiveSpan>,
    /// FIFO of active request ids, for eviction. May contain stale ids of
    /// spans that already finished; those are skipped at eviction time.
    order: VecDeque<u32>,
    finished: FinishedRing,
}

/// Bounded store of invocation spans: an active map keyed by request id
/// plus the ring of the most recently finished calls.
pub(crate) struct SpanStore {
    inner: OrderedMutex<SpanStoreInner>,
}

impl Default for SpanStore {
    fn default() -> Self {
        SpanStore {
            inner: OrderedMutex::new(rank::TELEMETRY_SPANS, SpanStoreInner::default()),
        }
    }
}

impl SpanStore {
    /// Opens a span for `request_id`. If a span with the same id is
    /// already active it is finished as `Cancelled` and pushed to the
    /// ring first.
    pub(crate) fn begin(&self, request_id: u32, operation: &str, transport: &'static str) {
        let started = Instant::now();
        let mut inner = self.inner.lock();
        if let Some(prev) = inner.active.remove(&request_id) {
            inner.finished.push(prev.close(SpanOutcome::Cancelled));
        }
        if inner.active.len() >= MAX_ACTIVE_SPANS {
            // Evict the oldest still-active span.
            while let Some(old_id) = inner.order.pop_front() {
                if let Some(old) = inner.active.remove(&old_id) {
                    inner.finished.push(old.close(SpanOutcome::Cancelled));
                    break;
                }
            }
        }
        inner.order.push_back(request_id);
        // `finish` leaves stale ids behind in `order`; compact it once it
        // holds more stale entries than live ones, so a long begin/finish
        // workload cannot grow it without bound.
        if inner.order.len() >= MAX_ACTIVE_SPANS * 2 {
            let SpanStoreInner { active, order, .. } = &mut *inner;
            order.retain(|id| active.contains_key(id));
        }
        inner.active.insert(
            request_id,
            ActiveSpan {
                started,
                record: SpanRecord {
                    request_id,
                    operation: Arc::from(operation),
                    transport,
                    stages: [None; 6],
                    total_us: 0,
                    outcome: SpanOutcome::Ok,
                },
                trace: None,
                server_reply: None,
            },
        );
    }

    /// Marks `stage` as completed for `request_id`, with the stage's own
    /// duration, and attaches whichever trace half is given, in one
    /// acquisition. The completion offset is taken from the span clock
    /// now. No-op if the span is unknown (evicted, or telemetry attached
    /// mid-call).
    pub(crate) fn mark(
        &self,
        request_id: u32,
        stage: Stage,
        duration: Duration,
        trace: Option<ClientTrace>,
        server_reply: Option<(ServerTraceTiming, Instant)>,
    ) {
        let mut inner = self.inner.lock();
        if let Some(span) = inner.active.get_mut(&request_id) {
            let offset = span.started.elapsed();
            span.record.stages[stage.index()] = Some(StageTiming {
                offset_us: as_us(offset),
                duration_us: as_us(duration),
            });
            if trace.is_some() {
                span.trace = trace;
            }
            if let Some((timing, recv_mono)) = server_reply {
                // Replies are only stashed on spans that sent a trace out;
                // a reply context with no client half has nothing to merge
                // against and is dropped here.
                if let Some(trace) = span.trace {
                    let wire_and_server = recv_mono.saturating_duration_since(trace.sent_mono);
                    let recv_ns = trace
                        .sent_at_ns
                        .saturating_add(crate::trace::duration_as_u64_ns(wire_and_server));
                    span.server_reply = Some((timing, recv_ns));
                }
            }
        }
    }

    /// Closes the span and keeps it on the ring — merged with its trace
    /// halves when a client trace was attached, under this one lock
    /// acquisition. Returns the span's total time when the span was known.
    pub(crate) fn finish(&self, request_id: u32, outcome: SpanOutcome) -> Option<Duration> {
        let mut inner = self.inner.lock();
        let finished = inner.active.remove(&request_id)?.close(outcome);
        let total = Duration::from_micros(finished.span().total_us);
        inner.finished.push(finished);
        Some(total)
    }

    /// Spans of the most recently finished calls, oldest first.
    pub(crate) fn recent_spans(&self) -> Vec<SpanRecord> {
        spans_of(&self.inner.lock().finished)
    }

    /// Traces of the most recently finished calls that carried one,
    /// oldest first.
    pub(crate) fn recent_traces(&self) -> Vec<TraceRecord> {
        traces_of(&self.inner.lock().finished)
    }

    /// Both views of the ring and the number of calls it has evicted,
    /// read in one acquisition so the three agree.
    pub(crate) fn history(&self) -> (Vec<SpanRecord>, Vec<TraceRecord>, u64) {
        let inner = self.inner.lock();
        (
            spans_of(&inner.finished),
            traces_of(&inner.finished),
            inner.finished.dropped(),
        )
    }

    #[cfg(test)]
    fn active_len(&self) -> usize {
        self.inner.lock().active.len()
    }

    #[cfg(test)]
    fn order_len(&self) -> usize {
        self.inner.lock().order.len()
    }
}

impl std::fmt::Debug for SpanStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("SpanStore")
            .field("active", &inner.active.len())
            .field("finished", &inner.finished.len())
            .field("dropped", &inner.finished.dropped())
            .finish()
    }
}

fn spans_of(ring: &FinishedRing) -> Vec<SpanRecord> {
    ring.iter().map(|f| f.span().clone()).collect()
}

fn traces_of(ring: &FinishedRing) -> Vec<TraceRecord> {
    ring.iter().filter_map(Finished::trace).cloned().collect()
}

fn as_us(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_span_records_all_stages_in_order() {
        let store = SpanStore::default();
        store.begin(7, "echo", "tcp");
        for stage in STAGES {
            store.mark(7, stage, Duration::from_micros(3), None, None);
            std::thread::sleep(Duration::from_micros(200));
        }
        let total = store.finish(7, SpanOutcome::Ok).expect("span known");
        assert!(total >= Duration::from_micros(6 * 200 - 200));

        let recent = store.recent_spans();
        assert_eq!(recent.len(), 1);
        let span = &recent[0];
        assert_eq!(span.request_id, 7);
        assert_eq!(&*span.operation, "echo");
        assert_eq!(span.transport, "tcp");
        assert_eq!(span.outcome, SpanOutcome::Ok);
        assert!(span.is_complete());
        // Completion offsets must be monotonically non-decreasing in
        // chronological stage order, since we marked them in order.
        let offsets: Vec<u64> = STAGES
            .iter()
            .map(|&s| span.stage(s).unwrap().offset_us)
            .collect();
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets not monotonic: {offsets:?}"
        );
        assert!(span.total_us >= *offsets.last().unwrap());
    }

    #[test]
    fn unknown_span_marks_and_finishes_are_noops() {
        let store = SpanStore::default();
        store.mark(99, Stage::Marshal, Duration::ZERO, None, None);
        assert!(store.finish(99, SpanOutcome::Ok).is_none());
        assert!(store.recent_spans().is_empty());
    }

    #[test]
    fn active_map_is_bounded() {
        let store = SpanStore::default();
        for id in 0..(MAX_ACTIVE_SPANS as u32 + 50) {
            store.begin(id, "leaky", "tcp");
        }
        assert!(store.active_len() <= MAX_ACTIVE_SPANS);
        // Evicted spans surface in the ring as cancelled.
        assert!(store
            .recent_spans()
            .iter()
            .all(|s| s.outcome == SpanOutcome::Cancelled));
    }

    #[test]
    fn order_queue_is_bounded_under_begin_finish_churn() {
        // Regression: `finish` leaves its id behind in the eviction FIFO,
        // which used to grow without bound under a normal begin/finish
        // workload that never fills the active map.
        let store = SpanStore::default();
        for id in 0..(MAX_ACTIVE_SPANS as u32 * 8) {
            store.begin(id, "churn", "tcp");
            store.finish(id, SpanOutcome::Ok);
        }
        assert!(
            store.order_len() <= MAX_ACTIVE_SPANS * 2,
            "eviction FIFO grew to {}",
            store.order_len()
        );
    }

    #[test]
    fn dropped_is_exact_under_concurrent_begin_past_capacity() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 2 * MAX_ACTIVE_SPANS as u64;
        let store = Arc::new(SpanStore::default());
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        // Distinct ids across all threads: no same-id
                        // cancellation, so every begin either stays active
                        // or is evicted into the ring exactly once.
                        store.begin((t * PER_THREAD + i) as u32, "flood", "tcp");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("flood thread");
        }
        let total = THREADS * PER_THREAD;
        let active = store.active_len() as u64;
        let (in_ring, _, dropped) = store.history();
        // Every span pushed to the ring beyond its capacity bumps
        // `dropped` exactly once, under any interleaving.
        assert_eq!(dropped, total - active - in_ring.len() as u64);
        assert!(active <= MAX_ACTIVE_SPANS as u64);
    }

    #[test]
    fn finish_returns_the_total_of_the_record_it_keeps() {
        let store = SpanStore::default();
        store.begin(5, "echo", "tcp");
        store.mark(5, Stage::Marshal, Duration::from_micros(7), None, None);
        let total = store.finish(5, SpanOutcome::Ok).expect("span known");
        let rec = store.recent_spans().pop().expect("record on the ring");
        assert_eq!(Duration::from_micros(rec.total_us), total);
        assert_eq!(rec.request_id, 5);
        assert_eq!(rec.outcome, SpanOutcome::Ok);
        assert_eq!(rec.stage(Stage::Marshal).unwrap().duration_us, 7);
        assert!(rec.stage(Stage::ReplyDecode).is_none());
    }

    #[test]
    fn rebegin_same_id_cancels_previous() {
        let store = SpanStore::default();
        store.begin(1, "first", "tcp");
        store.begin(1, "second", "tcp");
        store.finish(1, SpanOutcome::Ok);
        let recent = store.recent_spans();
        assert_eq!(recent.len(), 2);
        assert_eq!(&*recent[0].operation, "first");
        assert_eq!(recent[0].outcome, SpanOutcome::Cancelled);
        assert_eq!(&*recent[1].operation, "second");
        assert_eq!(recent[1].outcome, SpanOutcome::Ok);
    }

    #[test]
    fn a_traced_call_is_one_record_seen_by_both_views() {
        let store = SpanStore::default();
        let sent_mono = Instant::now();
        store.begin(1, "traced", "tcp");
        let trace = ClientTrace {
            trace_id: 99,
            sent_at_ns: 1_000_000,
            sent_mono,
        };
        store.mark(1, Stage::Marshal, Duration::from_micros(4), Some(trace), None);
        let server = ServerTraceTiming {
            recv_at_ns: 1_030_000,
            sent_at_ns: 1_050_000,
            queue_wait_us: 1,
            negotiate_us: 1,
            execute_us: 10,
        };
        let received = sent_mono + Duration::from_micros(90);
        store.mark(1, Stage::ReplyDecode, Duration::from_micros(2), None, Some((server, received)));
        store.finish(1, SpanOutcome::Ok);
        store.begin(2, "plain", "tcp");
        store.finish(2, SpanOutcome::Ok);

        let (spans, traces, dropped) = store.history();
        assert_eq!(dropped, 0);
        let ids: Vec<u32> = spans.iter().map(|s| s.request_id).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(traces.len(), 1, "only the traced call is a trace");
        let trace = &traces[0];
        assert_eq!(trace.trace_id, 99);
        assert_eq!(trace.span.stages, spans[0].stages);
        assert_eq!(trace.span.total_us, spans[0].total_us);
        // Client receive = send + 90 µs of monotonic time.
        assert_eq!(trace.wire_out_us, Some(30));
        assert_eq!(trace.wire_back_us, Some(40));
        assert_eq!(store.recent_traces().len(), 1);
    }
}
