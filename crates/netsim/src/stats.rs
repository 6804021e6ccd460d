//! Per-direction link statistics.

use cool_telemetry::{Counter, Gauge, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Registry handles a stats block feeds after
/// [`LinkStats::attach_registry`].
#[derive(Debug)]
struct LinkTelemetry {
    frames_sent: Arc<Counter>,
    frames_dropped: Arc<Counter>,
    frames_corrupted: Arc<Counter>,
    frames_reordered: Arc<Counter>,
    frames_delivered: Arc<Counter>,
    bytes_sent: Arc<Counter>,
    bytes_delivered: Arc<Counter>,
    observed_loss: Arc<Gauge>,
}

/// Counters for one direction of a link.
///
/// All counters are monotonically increasing and updated with relaxed
/// atomics — they are observability data, not synchronisation points.
/// A stats block can additionally mirror itself into a shared
/// [`cool_telemetry::Registry`] (see [`LinkStats::attach_registry`]) so
/// netsim numbers show up in the same snapshot as the ORB's.
#[derive(Debug, Default)]
pub struct LinkStats {
    frames_sent: AtomicU64,
    frames_dropped: AtomicU64,
    frames_corrupted: AtomicU64,
    frames_reordered: AtomicU64,
    frames_delivered: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_delivered: AtomicU64,
    telemetry: OnceLock<LinkTelemetry>,
}

impl LinkStats {
    /// Creates a zeroed stats block.
    pub fn new() -> Arc<Self> {
        Arc::new(LinkStats::default())
    }

    /// Mirrors this stats block into `registry` under
    /// `netsim_*{link="<link>"}` metric names, backfilling whatever was
    /// recorded before the attachment. Subsequent records update the
    /// registry in real time. Attaching twice is a no-op (the first
    /// registry wins).
    pub fn attach_registry(&self, registry: &Registry, link: &str) {
        let labels: &[(&str, &str)] = &[("link", link)];
        let t = LinkTelemetry {
            frames_sent: registry.counter(&Registry::labeled("netsim_frames_sent_total", labels)),
            frames_dropped: registry
                .counter(&Registry::labeled("netsim_frames_dropped_total", labels)),
            frames_corrupted: registry
                .counter(&Registry::labeled("netsim_frames_corrupted_total", labels)),
            frames_reordered: registry
                .counter(&Registry::labeled("netsim_frames_reordered_total", labels)),
            frames_delivered: registry
                .counter(&Registry::labeled("netsim_frames_delivered_total", labels)),
            bytes_sent: registry.counter(&Registry::labeled("netsim_bytes_sent_total", labels)),
            bytes_delivered: registry
                .counter(&Registry::labeled("netsim_bytes_delivered_total", labels)),
            observed_loss: registry.gauge(&Registry::labeled("netsim_observed_loss", labels)),
        };
        // Backfill everything recorded before attachment.
        t.frames_sent.add(self.frames_sent());
        t.frames_dropped.add(self.frames_dropped());
        t.frames_corrupted.add(self.frames_corrupted());
        t.frames_reordered.add(self.frames_reordered());
        t.frames_delivered.add(self.frames_delivered());
        t.bytes_sent.add(self.bytes_sent());
        t.bytes_delivered.add(self.bytes_delivered());
        t.observed_loss.set(self.observed_loss());
        let _ = self.telemetry.set(t);
    }

    pub(crate) fn record_send(&self, len: usize) {
        self.frames_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(len as u64, Ordering::Relaxed);
        if let Some(t) = self.telemetry.get() {
            t.frames_sent.inc();
            t.bytes_sent.add(len as u64);
            t.observed_loss.set(self.observed_loss());
        }
    }

    pub(crate) fn record_drop(&self) {
        self.frames_dropped.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.telemetry.get() {
            t.frames_dropped.inc();
            t.observed_loss.set(self.observed_loss());
        }
    }

    pub(crate) fn record_corrupt(&self) {
        self.frames_corrupted.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.telemetry.get() {
            t.frames_corrupted.inc();
        }
    }

    pub(crate) fn record_reorder(&self) {
        self.frames_reordered.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = self.telemetry.get() {
            t.frames_reordered.inc();
        }
    }

    pub(crate) fn record_delivery(&self, len: usize) {
        self.frames_delivered.fetch_add(1, Ordering::Relaxed);
        self.bytes_delivered
            .fetch_add(len as u64, Ordering::Relaxed);
        if let Some(t) = self.telemetry.get() {
            t.frames_delivered.inc();
            t.bytes_delivered.add(len as u64);
        }
    }

    /// Frames accepted by the sender (including ones later lost).
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent.load(Ordering::Relaxed)
    }

    /// Frames dropped by the loss process.
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped.load(Ordering::Relaxed)
    }

    /// Frames delivered with an injected single-bit error.
    pub fn frames_corrupted(&self) -> u64 {
        self.frames_corrupted.load(Ordering::Relaxed)
    }

    /// Frames delivered ahead of an earlier-queued frame.
    pub fn frames_reordered(&self) -> u64 {
        self.frames_reordered.load(Ordering::Relaxed)
    }

    /// Frames handed to the receiver.
    pub fn frames_delivered(&self) -> u64 {
        self.frames_delivered.load(Ordering::Relaxed)
    }

    /// Payload bytes accepted by the sender.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Payload bytes handed to the receiver.
    pub fn bytes_delivered(&self) -> u64 {
        self.bytes_delivered.load(Ordering::Relaxed)
    }

    /// Observed loss ratio so far (`dropped / sent`), or 0 if nothing was
    /// sent.
    pub fn observed_loss(&self) -> f64 {
        let sent = self.frames_sent() as f64;
        if sent == 0.0 {
            0.0
        } else {
            self.frames_dropped() as f64 / sent
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = LinkStats::new();
        s.record_send(100);
        s.record_send(50);
        s.record_drop();
        s.record_delivery(100);
        assert_eq!(s.frames_sent(), 2);
        assert_eq!(s.bytes_sent(), 150);
        assert_eq!(s.frames_dropped(), 1);
        assert_eq!(s.frames_delivered(), 1);
        assert_eq!(s.bytes_delivered(), 100);
    }

    #[test]
    fn observed_loss_handles_zero_sent() {
        let s = LinkStats::new();
        assert_eq!(s.observed_loss(), 0.0);
        s.record_send(1);
        s.record_drop();
        assert_eq!(s.observed_loss(), 1.0);
    }

    #[test]
    fn registry_attachment_backfills_and_tracks() {
        let s = LinkStats::new();
        s.record_send(100);
        s.record_drop();

        let registry = Registry::new();
        s.attach_registry(&registry, "ab");

        // Backfill of pre-attachment history.
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("netsim_frames_sent_total{link=\"ab\"}"),
            Some(1)
        );
        assert_eq!(
            snap.counter("netsim_bytes_sent_total{link=\"ab\"}"),
            Some(100)
        );
        assert_eq!(
            snap.counter("netsim_frames_dropped_total{link=\"ab\"}"),
            Some(1)
        );
        assert_eq!(snap.gauge("netsim_observed_loss{link=\"ab\"}"), Some(1.0));

        // Live updates after attachment.
        s.record_send(50);
        s.record_delivery(50);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("netsim_frames_sent_total{link=\"ab\"}"),
            Some(2)
        );
        assert_eq!(
            snap.counter("netsim_frames_delivered_total{link=\"ab\"}"),
            Some(1)
        );
        assert_eq!(
            snap.counter("netsim_bytes_delivered_total{link=\"ab\"}"),
            Some(50)
        );
        assert_eq!(snap.gauge("netsim_observed_loss{link=\"ab\"}"), Some(0.5));

        // Second attachment is ignored; counters keep feeding the first.
        let other = Registry::new();
        s.attach_registry(&other, "ab");
        s.record_send(10);
        assert_eq!(
            registry
                .snapshot()
                .counter("netsim_frames_sent_total{link=\"ab\"}"),
            Some(3)
        );
        assert_eq!(
            other
                .snapshot()
                .counter("netsim_frames_sent_total{link=\"ab\"}"),
            Some(2),
            "backfill only, no live feed to the losing registry"
        );
    }
}
