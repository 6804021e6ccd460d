//! The [`Registry`]: a process-wide (or per-ORB) table of named metrics
//! plus the invocation-span store and the flight recorder, with
//! text/Prometheus/JSON exporters.
//!
//! Components resolve their metric handles once at construction time
//! (`registry.counter("transport_frames_sent_total{kind=\"tcp\"}")`) and
//! keep the returned `Arc` — the name lookup takes a mutex, the updates
//! afterwards are relaxed atomics.
//!
//! Labels are part of the metric name, encoded Prometheus-style
//! (`name{label="value"}`); [`Registry::labeled`] builds such names.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::flight::FlightRecorder;
use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use crate::names;
use crate::span::{SpanOutcome, SpanRecord, SpanStore, Stage, STAGES};
use crate::trace::{ClientTrace, ServerTraceTiming, TraceRecord};

/// Locks `m`, recovering the data from a poisoned lock: telemetry must
/// keep reporting even after a panic elsewhere, and every guarded value
/// here stays internally consistent under any interleaving.
pub(crate) fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Named-metric table + span store (one record per finished call, traced
/// or not) + flight recorder. Cheap to share via `Arc`.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    spans: SpanStore,
    flight: FlightRecorder,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Builds a labeled metric name: `labeled("x", &[("k", "v")])` →
    /// `x{k="v"}`.
    pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
        if labels.is_empty() {
            return name.to_string();
        }
        let mut out = String::with_capacity(name.len() + 16 * labels.len());
        out.push_str(name);
        out.push('{');
        for (i, (k, v)) in labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(v);
            out.push('"');
        }
        out.push('}');
        out
    }

    /// Returns (interning on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = locked(&self.counters);
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Returns (interning on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = locked(&self.gauges);
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// Returns (interning on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = locked(&self.histograms);
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Opens an invocation span keyed by `request_id`; an active span
    /// with the same id is closed as cancelled first. At most 1 024 spans
    /// are active: beyond that the oldest is closed as cancelled.
    pub fn span_begin(&self, request_id: u32, operation: &str, transport: &'static str) {
        self.spans.begin(request_id, operation, transport);
    }

    /// Marks `stage` complete on an active span, `duration` being the
    /// stage's own length; its offset is taken from the span clock now.
    /// No-op when the span is unknown (evicted, or telemetry attached
    /// mid-call).
    pub fn span_mark(&self, request_id: u32, stage: Stage, duration: Duration) {
        self.spans.mark(request_id, stage, duration, None, None);
    }

    /// Marks a stage and stashes the server half of a distributed trace in
    /// one lock acquisition. The `Instant` is when the reply reached the
    /// demux thread: the client receive wall stamp is derived from it and
    /// the attached [`ClientTrace`]'s send stamps, so no second wall-clock
    /// read is involved. A reply half on a span that sent no trace is
    /// dropped.
    pub fn span_mark_reply(
        &self,
        request_id: u32,
        stage: Stage,
        duration: Duration,
        server_reply: Option<(ServerTraceTiming, std::time::Instant)>,
    ) {
        self.spans.mark(request_id, stage, duration, None, server_reply);
    }

    /// Marks a stage and attaches the client half of a distributed trace
    /// in one lock acquisition — the client marks `Marshal` right after
    /// stamping the outbound context.
    pub fn span_mark_attach(
        &self,
        request_id: u32,
        stage: Stage,
        duration: Duration,
        trace: Option<ClientTrace>,
    ) {
        self.spans.mark(request_id, stage, duration, trace, None);
    }

    /// Closes a span — the one way to — and keeps the call on the ring of
    /// the last 128 finished calls: when a [`ClientTrace`] was attached,
    /// as a [`TraceRecord`] merging both halves and the wire gaps, all
    /// under the span store's one lock. Returns the span's total time when
    /// the span was known.
    pub fn span_finish(&self, request_id: u32, outcome: SpanOutcome) -> Option<Duration> {
        self.spans.finish(request_id, outcome)
    }

    /// The traces of the last 128 finished calls that carried one, oldest
    /// first.
    pub fn recent_traces(&self) -> Vec<TraceRecord> {
        self.spans.recent_traces()
    }

    /// Records a flight-recorder event. See [`FlightRecorder::record`].
    pub fn flight_event(&self, kind: &'static str, request_id: Option<u32>, detail: impl Into<String>) {
        self.flight.record(kind, request_id, detail.into());
    }

    /// Direct access to the flight recorder (dumping, inspection).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// `(name, value)` for every gauge — the sampler's input; cheaper
    /// than a full snapshot.
    pub fn gauge_values(&self) -> Vec<(String, f64)> {
        locked(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect()
    }

    /// The spans of the last 128 finished calls, oldest first.
    pub fn recent_spans(&self) -> Vec<SpanRecord> {
        self.spans.recent_spans()
    }

    /// The `/spans` body: `{"spans":[…],"traces":[…]}`, both views read
    /// in one acquisition.
    pub(crate) fn spans_json(&self) -> String {
        let (spans, traces, _) = self.spans.history();
        let mut out = String::from("{");
        push_spans_and_traces(&mut out, &spans, &traces);
        out.push('}');
        out
    }

    /// Point-in-time copy of every metric and the finished-call ring.
    /// Overflow accounting of the bounded stores is synthesized in as
    /// counters ([`names::SPANS_DROPPED_TOTAL`],
    /// [`names::FLIGHT_EVENTS_DROPPED_TOTAL`]) so it survives into every
    /// exporter.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let (spans, traces, spans_dropped) = self.spans.history();
        let mut counters: Vec<(String, u64)> = locked(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        counters.push((names::SPANS_DROPPED_TOTAL.to_string(), spans_dropped));
        counters.push((
            names::FLIGHT_EVENTS_DROPPED_TOTAL.to_string(),
            self.flight.dropped(),
        ));
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        counters.dedup_by(|dup, keep| {
            // A component that interned the synthesized names directly
            // would otherwise produce duplicate keys; keep the larger.
            if dup.0 == keep.0 {
                keep.1 = keep.1.max(dup.1);
                true
            } else {
                false
            }
        });
        let gauges = locked(&self.gauges)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = locked(&self.histograms)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        TelemetrySnapshot {
            counters,
            gauges,
            histograms,
            spans,
            traces,
        }
    }

    /// Prometheus text exposition of every counter, gauge and histogram
    /// (histograms as summaries with `quantile` labels).
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }

    /// Human-oriented multi-section dump: counters, gauges, histogram
    /// percentiles, then the recent spans with per-stage timings.
    pub fn render_text(&self) -> String {
        self.snapshot().render_text()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("counters", &locked(&self.counters).len())
            .field("gauges", &locked(&self.gauges).len())
            .field("histograms", &locked(&self.histograms).len())
            .field("spans", &self.spans)
            .finish()
    }
}

/// Point-in-time view of a [`Registry`], sorted by metric name.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, f64)>,
    /// `(name, snapshot)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Spans of the finished-call ring, oldest first.
    pub spans: Vec<SpanRecord>,
    /// Traces of the ring's calls that carried one, oldest first.
    pub traces: Vec<TraceRecord>,
}

impl TelemetrySnapshot {
    /// Value of the counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Value of the gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Snapshot of the histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Sum of every counter whose name starts with `prefix` (use to
    /// aggregate across labels: `counter_prefixed("orb_invocations_total")`).
    pub fn counter_prefixed(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Serializes the snapshot as a single-line JSON object (hand-rolled;
    /// this crate is dependency-free). Histograms carry count/mean and the
    /// percentile summary, spans carry per-stage offsets/durations.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_key(&mut out, name);
            out.push_str(&v.to_string());
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_key(&mut out, name);
            push_json_f64(&mut out, *v);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_key(&mut out, name);
            out.push_str(&format!(
                "{{\"count\":{},\"mean_us\":{:.1},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{}}}",
                h.count,
                h.mean(),
                h.p50,
                h.p90,
                h.p99,
                h.max
            ));
        }
        out.push_str("},");
        push_spans_and_traces(&mut out, &self.spans, &self.traces);
        out.push('}');
        out
    }

    /// Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {} counter\n{} {}\n", base_name(name), name, v));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {} gauge\n{} {}\n", base_name(name), name, v));
        }
        for (name, h) in &self.histograms {
            let base = base_name(name);
            out.push_str(&format!("# TYPE {base} summary\n"));
            for (q, v) in [("0.5", h.p50), ("0.9", h.p90), ("0.99", h.p99)] {
                out.push_str(&format!("{} {}\n", with_label(name, "quantile", q), v));
            }
            out.push_str(&format!("{base}_count {}\n", h.count));
            out.push_str(&format!("{base}_sum {}\n", h.sum));
        }
        out
    }

    /// Pretty multi-section dump for humans; see DESIGN.md §6 for how to
    /// read it.
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("== counters ==\n");
        for (name, v) in &self.counters {
            out.push_str(&format!("  {name:<56} {v}\n"));
        }
        out.push_str("== gauges ==\n");
        for (name, v) in &self.gauges {
            out.push_str(&format!("  {name:<56} {v}\n"));
        }
        out.push_str("== histograms (µs) ==\n");
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "  {name:<56} n={} mean={:.1} p50={} p90={} p99={} max={}\n",
                h.count,
                h.mean(),
                h.p50,
                h.p90,
                h.p99,
                h.max
            ));
        }
        out.push_str(&format!("== recent spans ({}) ==\n", self.spans.len()));
        for span in &self.spans {
            out.push_str(&format!(
                "  #{} {} [{}] {} total={}µs\n",
                span.request_id,
                span.operation,
                span.transport,
                span.outcome.name(),
                span.total_us
            ));
            for stage in STAGES {
                if let Some(t) = span.stage(stage) {
                    out.push_str(&format!(
                        "      {:<16} @{:>8}µs  took {:>8}µs\n",
                        stage.name(),
                        t.offset_us,
                        t.duration_us
                    ));
                }
            }
        }
        out
    }
}

/// Strips a `{label="v"}` suffix: `x{k="v"}` → `x`.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Adds one more label to a possibly-already-labeled name.
fn with_label(name: &str, key: &str, value: &str) -> String {
    match name.strip_suffix('}') {
        Some(head) => format!("{head},{key}=\"{value}\"}}"),
        None => format!("{name}{{{key}=\"{value}\"}}"),
    }
}

/// Writes `"spans":[…],"traces":[…]` into an open JSON object.
fn push_spans_and_traces(out: &mut String, spans: &[SpanRecord], traces: &[TraceRecord]) {
    out.push_str("\"spans\":");
    push_json_array(out, spans.iter().map(SpanRecord::to_json));
    out.push_str(",\"traces\":");
    push_json_array(out, traces.iter().map(TraceRecord::to_json));
}

fn push_json_array(out: &mut String, objects: impl Iterator<Item = String>) {
    out.push('[');
    for (i, object) in objects.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&object);
    }
    out.push(']');
}

fn push_json_key(out: &mut String, name: &str) {
    out.push('"');
    out.push_str(&json_escape(name));
    out.push_str("\":");
}

fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push_str("null");
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_returns_same_metric() {
        let r = Registry::new();
        let a = r.counter("hits");
        let b = r.counter("hits");
        a.inc();
        b.add(2);
        assert_eq!(r.snapshot().counter("hits"), Some(3));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn labeled_name_building() {
        assert_eq!(Registry::labeled("x", &[]), "x");
        assert_eq!(
            Registry::labeled("x", &[("kind", "tcp"), ("dir", "tx")]),
            "x{kind=\"tcp\",dir=\"tx\"}"
        );
        assert_eq!(with_label("x", "quantile", "0.5"), "x{quantile=\"0.5\"}");
        assert_eq!(
            with_label("x{kind=\"tcp\"}", "quantile", "0.5"),
            "x{kind=\"tcp\",quantile=\"0.5\"}"
        );
        assert_eq!(base_name("x{kind=\"tcp\"}"), "x");
    }

    #[test]
    fn snapshot_prefix_aggregation() {
        let r = Registry::new();
        r.counter("orb_invocations_total{transport=\"tcp\"}").add(3);
        r.counter("orb_invocations_total{transport=\"chorus\"}").add(4);
        let snap = r.snapshot();
        assert_eq!(snap.counter_prefixed("orb_invocations_total"), 7);
    }

    #[test]
    fn exporters_cover_all_metric_kinds() {
        let r = Registry::new();
        r.counter("frames_total{kind=\"tcp\"}").add(5);
        r.gauge("queue_depth").set(3.0);
        r.histogram("latency_us").record(100);
        r.span_begin(1, "echo", "tcp");
        r.span_mark(1, Stage::Marshal, Duration::from_micros(10));
        r.span_finish(1, SpanOutcome::Ok);

        let prom = r.render_prometheus();
        assert!(prom.contains("# TYPE frames_total counter"));
        assert!(prom.contains("frames_total{kind=\"tcp\"} 5"));
        assert!(prom.contains("queue_depth 3"));
        assert!(prom.contains("latency_us{quantile=\"0.99\"}"));
        assert!(prom.contains("latency_us_count 1"));

        let text = r.render_text();
        assert!(text.contains("== counters =="));
        assert!(text.contains("#1 echo [tcp] ok"));
        assert!(text.contains("marshal"));

        let json = r.snapshot().to_json();
        assert!(json.contains("\"frames_total{kind=\\\"tcp\\\"}\":5"));
        assert!(json.contains("\"p99_us\":"));
        assert!(json.contains("\"request_id\":1"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
