//! Opportunistic frame batching: a [`ComChannel`] decorator that coalesces
//! small GIOP frames into one transport frame.
//!
//! The paper's Figure 9 shows throughput collapsing at small packet sizes:
//! per-frame overhead (syscalls, link framing, per-send latency) dominates
//! when payloads shrink. Batching amortises that overhead. GIOP frames are
//! self-delimiting (`message_size` in the fixed 12-byte header), so the
//! receiver needs no negotiation or extra framing — the demux layers split
//! every inbound frame with [`cool_giop::codec::split_frames`]
//! unconditionally, batched peer or not.
//!
//! Policy ([`BatchingPolicy`]): a queued batch is flushed inline when it
//! reaches `max_frames` or `max_bytes`; a background flusher thread bounds
//! the wait of the oldest queued frame to `max_delay` (a blocking wait
//! with a real deadline — no polling). Frames that are not GIOP frames, or
//! that alone reach `max_bytes`, flush the queue and pass straight
//! through, preserving order.
//!
//! Semantics note: a queued frame reports success to its sender before the
//! wire accepts it; a transport error then surfaces on the flushing send
//! (or as the caller's reply timeout). This is inherent to batching and
//! the reason it is strictly opt-in (`OrbConfig::batching = None` by
//! default).
//!
//! Lock discipline (DESIGN.md §7): the queue mutex (`chan.batch`, rank 42)
//! is drained to a local vector and released *before* the inner
//! `send_frame` runs — no blocking I/O under the lock.

use crate::config::BatchingPolicy;
use crate::error::OrbError;
use crate::transport::{ComChannel, FrameSink, ReadDemand};
use bytes::Bytes;
use cool_giop::codec::{join_frames, HEADER_LEN, MAGIC};
use cool_telemetry::flight::event as flight_event;
use cool_telemetry::lockorder::{rank, OrderedMutex};
use cool_telemetry::Registry;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Pending batch state under the `chan.batch` mutex.
struct BatchState {
    frames: Vec<Bytes>,
    bytes: usize,
    /// When the oldest queued frame must be on the wire.
    deadline: Option<Instant>,
}

/// State shared between the channel handle and its flusher thread.
struct Core {
    inner: Arc<dyn ComChannel>,
    policy: BatchingPolicy,
    queue: OrderedMutex<BatchState>,
    closed: AtomicBool,
    /// Flight-records coalesced flushes (≥ 2 frames); single-frame flushes
    /// are the ordinary non-batched case and stay out of the ring.
    registry: Option<Arc<Registry>>,
}

impl Core {
    /// Takes the pending batch (empties the queue) — lock, drain, unlock.
    fn take_pending(&self) -> Vec<Bytes> {
        let mut q = self.queue.lock();
        q.bytes = 0;
        q.deadline = None;
        std::mem::take(&mut q.frames)
    }

    /// Coalesces and sends a drained batch. No locks held.
    fn send_batch(&self, frames: Vec<Bytes>) -> Result<(), OrbError> {
        if frames.is_empty() {
            return Ok(());
        }
        if frames.len() > 1 {
            if let Some(r) = &self.registry {
                let bytes: usize = frames.iter().map(Bytes::len).sum();
                r.flight_event(
                    flight_event::BATCH_FLUSH,
                    None,
                    format!("{} frames coalesced, {bytes} bytes", frames.len()),
                );
            }
        }
        self.inner.send_frame(join_frames(&frames))
    }

    /// Flushes whatever is queued right now.
    fn flush(&self) -> Result<(), OrbError> {
        let pending = self.take_pending();
        self.send_batch(pending)
    }
}

/// A [`ComChannel`] decorator coalescing small GIOP frames (see the module
/// docs). Construct via [`BatchingChannel::wrap`].
pub struct BatchingChannel {
    core: Arc<Core>,
    /// Wakes the flusher when a frame starts a fresh batch (dropping the
    /// sender on channel drop lets the flusher exit).
    tick: Sender<()>,
    /// The flusher thread's handle (`chan.flusher`, rank 43), reaped by
    /// [`ComChannel::close`] so shutdown never leaks the thread.
    flusher: OrderedMutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for BatchingChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchingChannel")
            .field("kind", &self.core.inner.kind())
            .field("policy", &self.core.policy)
            .finish()
    }
}

impl BatchingChannel {
    /// Wraps `inner` behind the coalescer and starts the flusher thread.
    pub fn wrap(inner: Arc<dyn ComChannel>, policy: BatchingPolicy) -> Arc<Self> {
        Self::wrap_with(inner, policy, None)
    }

    /// Like [`BatchingChannel::wrap`], additionally flight-recording
    /// coalesced flushes into `registry`.
    pub fn wrap_with(
        inner: Arc<dyn ComChannel>,
        policy: BatchingPolicy,
        registry: Option<&Arc<Registry>>,
    ) -> Arc<Self> {
        let core = Arc::new(Core {
            inner,
            policy,
            queue: OrderedMutex::new(
                rank::CHAN_BATCH,
                BatchState {
                    frames: Vec::new(),
                    bytes: 0,
                    deadline: None,
                },
            ),
            closed: AtomicBool::new(false),
            registry: registry.cloned(),
        });
        // lint: allow(A005, §7.4: zero-sized wake ticks, at most one outstanding per batch, drained every flusher pass)
        let (tick, wake) = unbounded();
        let flusher_core = Arc::clone(&core);
        // Thread-spawn failure would mean the process is already resource
        // exhausted; degrade to inline-only flushing rather than erroring
        // the whole channel.
        let handle = std::thread::Builder::new()
            .name("cool-batch-flush".into())
            .spawn(move || flusher_loop(&flusher_core, &wake))
            .ok();
        Arc::new(BatchingChannel {
            core,
            tick,
            flusher: OrderedMutex::new(rank::CHAN_FLUSHER, handle),
        })
    }

    /// Whether `frame` is a whole GIOP frame (and thus safe to coalesce —
    /// the receiver can split on the self-delimiting header).
    fn coalescable(frame: &[u8]) -> bool {
        frame.len() >= HEADER_LEN && frame[..4] == MAGIC
    }
}

/// Sleeps until the oldest queued frame's deadline (or a new-batch tick),
/// then flushes. Exits when the channel closes or its handle drops.
fn flusher_loop(core: &Core, wake: &Receiver<()>) {
    loop {
        if core.closed.load(Ordering::Acquire) {
            return;
        }
        let deadline = core.queue.lock().deadline;
        match deadline {
            None => match wake.recv() {
                Ok(()) => continue,
                Err(_) => return, // handle dropped; close() already flushed
            },
            Some(d) => {
                let now = Instant::now();
                if d <= now {
                    // Transport errors surface on the next caller send.
                    let _ = core.flush();
                    continue;
                }
                match wake.recv_timeout(d - now) {
                    Ok(()) | Err(RecvTimeoutError::Timeout) => continue,
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
        }
    }
}

impl ComChannel for BatchingChannel {
    fn send_frame(&self, frame: Bytes) -> Result<(), OrbError> {
        if self.core.closed.load(Ordering::Acquire) {
            return Err(OrbError::Closed);
        }
        let policy = self.core.policy;
        if !Self::coalescable(&frame) || frame.len() >= policy.max_bytes {
            // Flush queued frames first so order is preserved, then send
            // this one as its own transport frame.
            self.core.flush()?;
            return self.core.inner.send_frame(frame);
        }
        let (flush_now, first_in_batch) = {
            let mut q = self.core.queue.lock();
            q.bytes += frame.len();
            q.frames.push(frame);
            let first = q.deadline.is_none();
            if first {
                q.deadline = Some(Instant::now() + policy.max_delay);
            }
            (
                q.frames.len() >= policy.max_frames || q.bytes >= policy.max_bytes,
                first,
            )
        };
        if flush_now {
            self.core.flush()
        } else {
            if first_in_batch {
                // Arm the flusher for the new batch's deadline.
                let _ = self.tick.send(());
            }
            Ok(())
        }
    }

    fn recv_frame(&self, timeout: Duration) -> Result<Bytes, OrbError> {
        self.core.inner.recv_frame(timeout)
    }

    fn set_sink(&self, sink: Arc<dyn FrameSink>) {
        self.core.inner.set_sink(sink);
    }

    fn read_turn(&self, deadline: Instant, done: &dyn Fn() -> bool) -> bool {
        self.core.inner.read_turn(deadline, done)
    }

    fn hand_over_demand(&self) -> Option<Arc<ReadDemand>> {
        self.core.inner.hand_over_demand()
    }

    fn drain(&self, timeout: Duration) -> bool {
        let _ = self.core.flush();
        self.core.inner.drain(timeout)
    }

    fn close(&self) {
        if !self.core.closed.swap(true, Ordering::AcqRel) {
            let _ = self.core.flush();
        }
        // Unblock the flusher so it observes the closed flag.
        let _ = self.tick.send(());
        self.core.inner.close();
        // Reap the flusher: take the handle out of the mutex, join outside
        // it. The inner channel is closed above, so a flusher mid-flush
        // fails fast instead of blocking the join.
        let handle = self.flusher.lock().take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }

    fn kind(&self) -> &'static str {
        self.core.inner.kind()
    }

    fn supports_qos(&self) -> bool {
        self.core.inner.supports_qos()
    }

    fn delivery_may_wait(&self) -> bool {
        self.core.inner.delivery_may_wait()
    }

    fn set_qos(&self, requirements: &multe_qos::TransportRequirements) -> Result<(), OrbError> {
        self.core.inner.set_qos(requirements)
    }
}

impl Drop for BatchingChannel {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cool_giop::codec::split_frames;
    use cool_giop::prelude::*;
    use parking_lot::Mutex;

    struct RecordingChannel {
        sent: Mutex<Vec<Bytes>>,
    }

    impl RecordingChannel {
        fn new() -> Arc<Self> {
            Arc::new(RecordingChannel {
                sent: Mutex::new(Vec::new()),
            })
        }
        fn sent(&self) -> Vec<Bytes> {
            self.sent.lock().clone()
        }
    }

    impl ComChannel for RecordingChannel {
        fn send_frame(&self, frame: Bytes) -> Result<(), OrbError> {
            self.sent.lock().push(frame);
            Ok(())
        }
        fn recv_frame(&self, timeout: Duration) -> Result<Bytes, OrbError> {
            Err(OrbError::timeout(timeout))
        }
        fn set_sink(&self, _sink: Arc<dyn FrameSink>) {}
        fn close(&self) {}
        fn kind(&self) -> &'static str {
            "mock"
        }
    }

    fn giop_frame(request_id: u32) -> Bytes {
        encode_message(
            &Message::CancelRequest { request_id },
            GiopVersion::STANDARD,
            ByteOrder::Big,
        )
        .unwrap()
    }

    fn policy(max_frames: usize, max_bytes: usize, max_delay: Duration) -> BatchingPolicy {
        BatchingPolicy {
            max_frames,
            max_bytes,
            max_delay,
        }
    }

    #[test]
    fn small_frames_coalesce_into_one_transport_frame() {
        let inner = RecordingChannel::new();
        let chan = BatchingChannel::wrap(
            inner.clone() as Arc<dyn ComChannel>,
            policy(3, 64 * 1024, Duration::from_secs(10)),
        );
        let frames: Vec<Bytes> = (0..3).map(giop_frame).collect();
        for f in &frames {
            chan.send_frame(f.clone()).unwrap();
        }
        let sent = inner.sent();
        assert_eq!(sent.len(), 1, "three small frames → one batch");
        let split: Vec<Bytes> = split_frames(&sent[0]).collect::<Result<_, _>>().unwrap();
        assert_eq!(split, frames);
    }

    #[test]
    fn large_frame_flushes_queue_then_passes_through_in_order() {
        let inner = RecordingChannel::new();
        let chan = BatchingChannel::wrap(
            inner.clone() as Arc<dyn ComChannel>,
            policy(100, 64, Duration::from_secs(10)),
        );
        let small = giop_frame(1);
        chan.send_frame(small.clone()).unwrap();
        // A Reply with a body larger than max_bytes.
        let big = encode_message(
            &Message::Reply {
                header: ReplyHeader::new(2, ReplyStatus::NoException),
                body: Bytes::from(vec![0u8; 256]),
            },
            GiopVersion::STANDARD,
            ByteOrder::Big,
        )
        .unwrap();
        chan.send_frame(big.clone()).unwrap();
        let sent = inner.sent();
        assert_eq!(sent.len(), 2);
        assert_eq!(sent[0], small, "queued frame flushed first");
        assert_eq!(sent[1], big, "large frame sent as its own frame");
    }

    #[test]
    fn non_giop_frame_is_never_held_back() {
        let inner = RecordingChannel::new();
        let chan = BatchingChannel::wrap(
            inner.clone() as Arc<dyn ComChannel>,
            policy(100, 64 * 1024, Duration::from_secs(10)),
        );
        let raw = Bytes::from_static(b"COOLctl\x00not giop");
        chan.send_frame(raw.clone()).unwrap();
        assert_eq!(inner.sent(), vec![raw]);
    }

    #[test]
    fn max_delay_flushes_a_lone_frame() {
        let inner = RecordingChannel::new();
        let chan = BatchingChannel::wrap(
            inner.clone() as Arc<dyn ComChannel>,
            policy(100, 64 * 1024, Duration::from_millis(20)),
        );
        let f = giop_frame(7);
        chan.send_frame(f.clone()).unwrap();
        assert!(inner.sent().is_empty(), "held for batching at first");
        let deadline = Instant::now() + Duration::from_secs(5);
        while inner.sent().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(inner.sent(), vec![f], "flusher sent it after max_delay");
    }

    #[test]
    fn close_flushes_pending_frames() {
        let inner = RecordingChannel::new();
        let chan = BatchingChannel::wrap(
            inner.clone() as Arc<dyn ComChannel>,
            policy(100, 64 * 1024, Duration::from_secs(10)),
        );
        let f = giop_frame(9);
        chan.send_frame(f.clone()).unwrap();
        chan.close();
        assert_eq!(inner.sent(), vec![f]);
        assert!(matches!(
            chan.send_frame(giop_frame(10)),
            Err(OrbError::Closed)
        ));
    }

    #[test]
    fn close_joins_the_flusher_thread() {
        let inner = RecordingChannel::new();
        let chan = BatchingChannel::wrap(
            inner.clone() as Arc<dyn ComChannel>,
            policy(100, 64 * 1024, Duration::from_secs(10)),
        );
        chan.send_frame(giop_frame(1)).unwrap();
        chan.close();
        // close() joined the flusher, so its end of the wake channel is
        // already dropped — deterministically, not eventually.
        assert!(chan.tick.send(()).is_err(), "flusher exited before close returned");
        assert!(chan.flusher.lock().is_none(), "handle was reaped");
    }

    #[test]
    fn byte_limit_triggers_inline_flush() {
        let inner = RecordingChannel::new();
        let frame = giop_frame(1);
        let max_bytes = frame.len() * 2; // two frames reach the limit
        let chan = BatchingChannel::wrap(
            inner.clone() as Arc<dyn ComChannel>,
            policy(100, max_bytes, Duration::from_secs(10)),
        );
        chan.send_frame(giop_frame(1)).unwrap();
        assert!(inner.sent().is_empty());
        chan.send_frame(giop_frame(2)).unwrap();
        assert_eq!(inner.sent().len(), 1, "byte cap flushed the pair");
    }
}
