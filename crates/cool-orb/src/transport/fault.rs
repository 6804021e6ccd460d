//! Fault-injecting [`ComChannel`] decorator.
//!
//! When [`crate::OrbConfig::fault_plans`] has a plan for a target,
//! `Orb::binding_for` wraps every client channel it creates to that target
//! in a [`FaultChannel`] executing the plan's [`cool_faults::FaultEngine`].
//! The engine is kept per target and shared across channel incarnations
//! (reconnects), so the fault sequence is a deterministic function of the
//! plan seed and the outbound frame sequence — rerunning a chaos scenario
//! with the same seed injects bit-identical faults.
//!
//! Faults apply to the **send** side only: drops, delays, duplicates,
//! reorders and bit-flips act on outbound frames, and a sever closes the
//! underlying channel. The receive path (read turns and the reader's
//! demand included), sink registration and QoS propagation delegate
//! untouched. A target without a plan gets no `FaultChannel` at all — the
//! clean path pays nothing.

use crate::error::OrbError;
use crate::transport::{ComChannel, FrameSink, ReadDemand};
use bytes::Bytes;
use cool_faults::{FaultAction, FaultEngine};
use cool_giop::prelude::Message;
use cool_telemetry::flight::event as flight_event;
use cool_telemetry::{names, Counter, Registry};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pre-resolved fault counters (`faults_injected_total` plus one labeled
/// counter per fault kind).
#[derive(Clone)]
pub struct FaultMetrics {
    total: Arc<Counter>,
    drop: Arc<Counter>,
    delay: Arc<Counter>,
    duplicate: Arc<Counter>,
    reorder: Arc<Counter>,
    corrupt: Arc<Counter>,
    sever: Arc<Counter>,
    refuse: Arc<Counter>,
}

impl FaultMetrics {
    /// Resolves the fault counters in `registry`.
    pub fn resolve(registry: &Registry) -> Self {
        let kind = |k: &str| {
            registry.counter(&Registry::labeled(
                names::FAULTS_INJECTED_TOTAL,
                &[("kind", k)],
            ))
        };
        FaultMetrics {
            total: registry.counter(names::FAULTS_INJECTED_TOTAL),
            drop: kind("drop"),
            delay: kind("delay"),
            duplicate: kind("duplicate"),
            reorder: kind("reorder"),
            corrupt: kind("corrupt"),
            sever: kind("sever"),
            refuse: kind("refuse_connect"),
        }
    }

    /// Counts one refused connection attempt (injected at dial time by the
    /// ORB rather than by a channel).
    pub fn record_refuse(&self) {
        self.total.inc();
        self.refuse.inc();
    }

    fn record(&self, action: &FaultAction) {
        self.total.inc();
        match action {
            FaultAction::Drop => self.drop.inc(),
            FaultAction::Delay(_) => self.delay.inc(),
            FaultAction::Duplicate => self.duplicate.inc(),
            FaultAction::Reorder => self.reorder.inc(),
            FaultAction::Corrupt { .. } => self.corrupt.inc(),
            FaultAction::Sever => self.sever.inc(),
        }
    }
}

/// A [`ComChannel`] wrapper that injects the faults an engine decides.
pub struct FaultChannel {
    inner: Arc<dyn ComChannel>,
    engine: Arc<FaultEngine>,
    /// Set once the engine severs this incarnation; subsequent sends fail
    /// without consuming engine decisions, keeping fault counts independent
    /// of how quickly callers observe the close.
    severed: AtomicBool,
    /// Frame held back by a reorder, sent after its successor. Never held
    /// across an `inner` call.
    stash: Mutex<Option<Bytes>>,
    metrics: Option<FaultMetrics>,
    /// Kept for the flight recorder: every injected fault lands there with
    /// the request ids it hit, so a post-mortem dump names the fault behind
    /// each failed request.
    registry: Option<Arc<Registry>>,
}

impl FaultChannel {
    /// Wraps `inner`, injecting whatever `engine` decides per frame.
    pub fn new(
        inner: Arc<dyn ComChannel>,
        engine: Arc<FaultEngine>,
        registry: Option<&Arc<Registry>>,
    ) -> Self {
        FaultChannel {
            inner,
            engine,
            severed: AtomicBool::new(false),
            stash: Mutex::new(None),
            metrics: registry.map(|r| FaultMetrics::resolve(r)),
            registry: registry.cloned(),
        }
    }

    /// Flight-records an injected fault, attributed to the GIOP request
    /// `frame` carries when it is one. Runs only on fault paths, so the
    /// decode cost never touches clean sends.
    fn note_fault(&self, action: &FaultAction, frame: &Bytes) {
        let Some(registry) = &self.registry else {
            return;
        };
        let kind = match action {
            FaultAction::Drop => "drop",
            FaultAction::Delay(_) => "delay",
            FaultAction::Duplicate => "duplicate",
            FaultAction::Reorder => "reorder",
            FaultAction::Corrupt { .. } => "corrupt",
            FaultAction::Sever => "sever",
        };
        if let Ok((Message::Request { header, .. }, _, _)) = Message::decode_frame(frame) {
            registry.flight_event(
                flight_event::FAULT_INJECTED,
                Some(header.request_id),
                format!("{kind} injected on request {}", header.request_id),
            );
        } else {
            registry.flight_event(
                flight_event::FAULT_INJECTED,
                None,
                format!("{kind} injected on non-request frame"),
            );
        }
    }

    /// Sends `frame`, then flushes any frame a previous reorder held back.
    fn forward(&self, frame: Bytes) -> Result<(), OrbError> {
        self.inner.send_frame(frame)?;
        let held = self.stash.lock().take();
        match held {
            Some(stashed) => self.inner.send_frame(stashed),
            None => Ok(()),
        }
    }

    /// Best-effort delivery of a held-back reorder frame (on drain/close, so
    /// a trailing reorder cannot swallow the last frame of a stream).
    fn flush_stash(&self) {
        if let Some(stashed) = self.stash.lock().take() {
            let _ = self.inner.send_frame(stashed);
        }
    }
}

impl ComChannel for FaultChannel {
    fn send_frame(&self, frame: Bytes) -> Result<(), OrbError> {
        if self.severed.load(Ordering::Acquire) {
            return Err(OrbError::Closed);
        }
        let action = self.engine.on_frame(frame.len());
        if let Some(a) = &action {
            if let Some(m) = &self.metrics {
                m.record(a);
            }
            self.note_fault(a, &frame);
        }
        match action {
            None => self.forward(frame),
            Some(FaultAction::Drop) => Ok(()),
            Some(FaultAction::Delay(extra)) => {
                crate::retry::wait_backoff(extra);
                self.forward(frame)
            }
            Some(FaultAction::Duplicate) => {
                // lint: allow(L007, Bytes::clone is a refcount bump, not a copy)
                self.forward(frame.clone())?;
                self.forward(frame)
            }
            Some(FaultAction::Reorder) => {
                // Hold this frame back; it follows the next send. A second
                // reorder before that flushes the first frame immediately.
                let previous = self.stash.lock().replace(frame);
                match previous {
                    Some(stashed) => self.inner.send_frame(stashed),
                    None => Ok(()),
                }
            }
            Some(FaultAction::Corrupt { bit }) => {
                // lint: allow(L007, corruption injection needs a mutable copy)
                let mut buf = frame.to_vec();
                FaultEngine::apply_corrupt(&mut buf, bit);
                self.forward(Bytes::from(buf))
            }
            Some(FaultAction::Sever) => {
                self.severed.store(true, Ordering::Release);
                self.inner.close();
                Err(OrbError::Transport("fault injection: link severed".into()))
            }
        }
    }

    fn recv_frame(&self, timeout: Duration) -> Result<Bytes, OrbError> {
        self.inner.recv_frame(timeout)
    }

    fn set_sink(&self, sink: Arc<dyn FrameSink>) {
        self.inner.set_sink(sink);
    }

    fn read_turn(&self, deadline: Instant, done: &dyn Fn() -> bool) -> bool {
        self.inner.read_turn(deadline, done)
    }

    fn hand_over_demand(&self) -> Option<Arc<ReadDemand>> {
        self.inner.hand_over_demand()
    }

    fn drain(&self, timeout: Duration) -> bool {
        self.flush_stash();
        self.inner.drain(timeout)
    }

    fn close(&self) {
        self.flush_stash();
        self.inner.close();
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn supports_qos(&self) -> bool {
        self.inner.supports_qos()
    }

    fn delivery_may_wait(&self) -> bool {
        self.inner.delivery_may_wait()
    }

    fn set_qos(&self, requirements: &multe_qos::TransportRequirements) -> Result<(), OrbError> {
        self.inner.set_qos(requirements)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_faults::FaultPlan;

    /// Inner channel that records what actually reaches the wire.
    struct RecordingChannel {
        sent: Mutex<Vec<Bytes>>,
        closed: AtomicBool,
    }

    impl RecordingChannel {
        fn new() -> Arc<Self> {
            Arc::new(RecordingChannel {
                sent: Mutex::new(Vec::new()),
                closed: AtomicBool::new(false),
            })
        }
    }

    impl ComChannel for RecordingChannel {
        fn send_frame(&self, frame: Bytes) -> Result<(), OrbError> {
            if self.closed.load(Ordering::Acquire) {
                return Err(OrbError::Closed);
            }
            self.sent.lock().push(frame);
            Ok(())
        }
        fn recv_frame(&self, timeout: Duration) -> Result<Bytes, OrbError> {
            Err(OrbError::timeout(timeout))
        }
        fn set_sink(&self, _sink: Arc<dyn FrameSink>) {}
        fn close(&self) {
            self.closed.store(true, Ordering::Release);
        }
        fn kind(&self) -> &'static str {
            "mock"
        }
    }

    fn channel(
        plan: FaultPlan,
        registry: Option<&Arc<Registry>>,
    ) -> (FaultChannel, Arc<RecordingChannel>) {
        let inner = RecordingChannel::new();
        let engine = Arc::new(FaultEngine::new(plan));
        (
            FaultChannel::new(inner.clone(), engine, registry),
            inner,
        )
    }

    #[test]
    fn noop_plan_passes_frames_through_unchanged() {
        let (ch, inner) = channel(FaultPlan::builder().build().unwrap(), None);
        for i in 0..10u8 {
            ch.send_frame(Bytes::from(vec![i; 4])).unwrap();
        }
        let sent = inner.sent.lock();
        assert_eq!(sent.len(), 10);
        assert!(sent.iter().enumerate().all(|(i, f)| f[0] == i as u8));
    }

    #[test]
    fn drops_thin_the_stream_and_are_counted() {
        let registry = Arc::new(Registry::new());
        let plan = FaultPlan::builder().seed(5).drop_rate(0.5).build().unwrap();
        let (ch, inner) = channel(plan, Some(&registry));
        for i in 0..100u8 {
            ch.send_frame(Bytes::from(vec![i])).unwrap();
        }
        let delivered = inner.sent.lock().len() as u64;
        let snap = registry.snapshot();
        let dropped = snap
            .counter("faults_injected_total{kind=\"drop\"}")
            .unwrap_or(0);
        assert_eq!(delivered + dropped, 100);
        assert!(dropped > 20 && dropped < 80, "{dropped}");
        assert_eq!(snap.counter(names::FAULTS_INJECTED_TOTAL), Some(dropped));
    }

    #[test]
    fn sever_closes_inner_and_freezes_the_engine() {
        let plan = FaultPlan::builder().sever_after(Some(3)).build().unwrap();
        let inner = RecordingChannel::new();
        let engine = Arc::new(FaultEngine::new(plan));
        let ch = FaultChannel::new(inner.clone(), engine.clone(), None);
        for i in 0..3u8 {
            ch.send_frame(Bytes::from(vec![i])).unwrap();
        }
        let err = ch.send_frame(Bytes::from_static(b"x")).unwrap_err();
        assert!(matches!(err, OrbError::Transport(_)), "{err}");
        assert!(inner.closed.load(Ordering::Acquire));
        // Post-sever sends fail Closed without consuming engine decisions:
        // the count stays timing-independent.
        let frames_at_sever = engine.frames_seen();
        for _ in 0..5 {
            assert!(matches!(
                ch.send_frame(Bytes::from_static(b"y")),
                Err(OrbError::Closed)
            ));
        }
        assert_eq!(engine.frames_seen(), frames_at_sever);
    }

    #[test]
    fn duplicate_sends_twice() {
        let plan = FaultPlan::builder()
            .seed(1)
            .duplicate_rate(0.99)
            .build()
            .unwrap();
        let (ch, inner) = channel(plan, None);
        ch.send_frame(Bytes::from_static(b"a")).unwrap();
        assert!(inner.sent.lock().len() >= 2);
    }

    #[test]
    fn corrupt_flips_exactly_one_bit() {
        let plan = FaultPlan::builder()
            .seed(1)
            .corrupt_rate(0.99)
            .build()
            .unwrap();
        let (ch, inner) = channel(plan, None);
        ch.send_frame(Bytes::from(vec![0u8; 8])).unwrap();
        let sent = inner.sent.lock();
        let ones: u32 = sent[0].iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
    }

    #[test]
    fn reorder_breaks_fifo_but_loses_nothing() {
        let plan = FaultPlan::builder()
            .seed(3)
            .reorder_rate(0.35)
            .build()
            .unwrap();
        let (ch, inner) = channel(plan, None);
        for i in 0..20u8 {
            ch.send_frame(Bytes::from(vec![i])).unwrap();
        }
        // Close flushes a trailing stashed frame, so nothing is lost.
        ch.close();
        let sent = inner.sent.lock();
        assert_eq!(sent.len(), 20);
        let mut seen: Vec<u8> = sent.iter().map(|f| f[0]).collect();
        assert!(!seen.is_sorted(), "expected at least one swap: {seen:?}");
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn same_seed_same_wire_sequence() {
        let plan = || {
            FaultPlan::builder()
                .seed(77)
                .drop_rate(0.2)
                .corrupt_rate(0.1)
                .duplicate_rate(0.1)
                .reorder_rate(0.1)
                .build()
                .unwrap()
        };
        let run = |plan| {
            let (ch, inner) = channel(plan, None);
            for i in 0..100u8 {
                ch.send_frame(Bytes::from(vec![i; 4])).unwrap();
            }
            let sent = inner.sent.lock();
            sent.iter().map(|f| f.to_vec()).collect::<Vec<_>>()
        };
        assert_eq!(run(plan()), run(plan()));
    }
}
