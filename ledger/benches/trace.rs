//! The ledger's own span recorder, used only in traced runs: one span
//! around every call the benchmark makes into a layer, kept in memory and
//! written out when the run ends. Spans inside the program are a later
//! issue; these sit at the layer boundaries the ledger can reach.

use crate::json::Json;
use crate::stats;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Spans kept per run; past this they are counted, not stored.
const MAX_SPANS: usize = 4_000_000;

/// Raw spans written to the trace file (the summary covers all of them).
const MAX_SPANS_WRITTEN: usize = 20_000;

/// Nanoseconds since the first call in this process: one clock for span
/// stamps and for the send stamps carried in stream frames.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The op id carried in the payload's first 8 bytes.
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    /// Open spans per op, innermost last: a new span's parent is the
    /// innermost open span of its op, whichever thread opened it.
    open: HashMap<u64, Vec<u32>>,
    dropped: u64,
}

#[derive(Default)]
pub struct Recorder {
    inner: Mutex<Inner>,
}

/// Ends its span when dropped.
pub struct SpanGuard<'a> {
    recorder: &'a Recorder,
    id: Option<u32>,
    op: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("span recorder lock poisoned by a panicking workload thread")
    }

    /// Opens a span now; it ends when the guard drops.
    pub fn enter(&self, name: &'static str, op: u64) -> SpanGuard<'_> {
        let mut inner = self.lock();
        if inner.spans.len() >= MAX_SPANS {
            inner.dropped += 1;
            return SpanGuard {
                recorder: self,
                id: None,
                op,
            };
        }
        let id = inner.spans.len() as u32;
        let parent = inner.open.get(&op).and_then(|stack| stack.last().copied());
        let start_ns = now_ns();
        inner.spans.push(Span {
            name,
            op,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        inner.open.entry(op).or_default().push(id);
        SpanGuard {
            recorder: self,
            id: Some(id),
            op,
        }
    }

    /// Records a span whose op id was only known once it had ended (a
    /// receive). Its parent is the innermost span of that op still open.
    pub fn record(&self, name: &'static str, op: u64, start_ns: u64, end_ns: u64) {
        let mut inner = self.lock();
        if inner.spans.len() >= MAX_SPANS {
            inner.dropped += 1;
            return;
        }
        let parent = inner.open.get(&op).and_then(|stack| stack.last().copied());
        inner.spans.push(Span {
            name,
            op,
            start_ns,
            end_ns,
            parent,
        });
    }

    pub fn take(&self) -> (Vec<Span>, u64) {
        let mut inner = self.lock();
        inner.open.clear();
        (std::mem::take(&mut inner.spans), inner.dropped)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        let end_ns = now_ns();
        let mut inner = self.recorder.lock();
        inner.spans[id as usize].end_ns = end_ns;
        if let Some(stack) = inner.open.get_mut(&self.op) {
            stack.retain(|open| *open != id);
            if stack.is_empty() {
                inner.open.remove(&self.op);
            }
        }
    }
}

/// Opens a span when the run is traced; `None` costs one branch.
pub fn enter<'a>(
    recorder: Option<&'a Recorder>,
    name: &'static str,
    op: u64,
) -> Option<SpanGuard<'a>> {
    recorder.map(|r| r.enter(name, op))
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: count, median and tail of duration and of self time.
pub fn summarize(spans: &[Span]) -> Json {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(&selfs) {
        let entry = by_name.entry(span.name).or_default();
        entry.0.push(span.end_ns - span.start_ns);
        entry.1.push(*self_ns);
    }
    Json::Obj(
        by_name
            .into_iter()
            .map(|(name, (mut durations, mut selfs))| {
                durations.sort_unstable();
                selfs.sort_unstable();
                let n = durations.len();
                let tail = stats::highest_supported_percentile(n).unwrap_or(50.0);
                let us = |ns: u64| Json::Num(ns as f64 / 1000.0);
                (
                    name.to_owned(),
                    Json::obj([
                        ("count", Json::Num(n as f64)),
                        ("duration_p50_us", us(stats::percentile(&durations, 50.0))),
                        ("self_p50_us", us(stats::percentile(&selfs, 50.0))),
                        ("tail_percentile", Json::Num(tail)),
                        ("duration_tail_us", us(stats::percentile(&durations, tail))),
                        (
                            "self_total_ms",
                            Json::Num(selfs.iter().sum::<u64>() as f64 / 1e6),
                        ),
                    ]),
                )
            })
            .collect(),
    )
}

/// The trace file body: the summary over every span and the first
/// [`MAX_SPANS_WRITTEN`] spans raw.
pub fn to_json(spans: &[Span], dropped: u64) -> Json {
    let raw = spans
        .iter()
        .take(MAX_SPANS_WRITTEN)
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("op", Json::Num(s.op as f64)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                ),
            ])
        })
        .collect();
    Json::obj([
        ("spans_recorded", Json::Num(spans.len() as f64)),
        ("spans_dropped", Json::Num(dropped as f64)),
        ("by_name", summarize(spans)),
        ("spans", Json::Arr(raw)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            op: 1,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("call", 0, 100, None),
            span("servant", 20, 40, Some(0)),
            // Overlaps the first child: 30..60 adds only 40..60.
            span("servant", 30, 60, Some(0)),
            // Pokes out of the parent: only 90..100 counts.
            span("late", 90, 130, Some(0)),
            span("inner", 32, 38, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 30 - 6, 40, 6]);
    }

    #[test]
    fn parent_is_the_innermost_open_span_of_the_same_op() {
        let rec = Recorder::new();
        {
            let _cycle = rec.enter("cycle", 7);
            let _other = rec.enter("call", 8);
            {
                let _call = rec.enter("call", 7);
                // As if from a server thread, while the call is open.
                let _servant = rec.enter("servant", 7);
            }
            let _shutdown = rec.enter("shutdown", 7);
        }
        rec.record("receiver.recv", 9, 5, 6);
        let (spans, dropped) = rec.take();
        assert_eq!(dropped, 0);
        let parents: Vec<(&str, Option<u32>)> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![
                ("cycle", None),
                ("call", None),
                ("call", Some(0)),
                ("servant", Some(2)),
                ("shutdown", Some(0)),
                ("receiver.recv", None),
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let summary = summarize(&spans);
        assert_eq!(
            summary
                .get("call")
                .and_then(|c| c.get("count"))
                .and_then(Json::as_f64),
            Some(2.0)
        );
    }
}
