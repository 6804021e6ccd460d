//! The generic transport protocol layer: COOL's `_COOL_ComChannel`
//! hierarchy (paper, Figure 8).
//!
//! A [`ComChannel`] moves whole frames between two ORB endpoints. Three
//! concrete channels exist, mirroring the paper exactly:
//!
//! * [`TcpComChannel`] — real TCP with length-prefixed frames (its buffer
//!   handling, the `_TcpBuffer` role, is a read token held by whichever
//!   thread reads: a caller waiting for its reply, or the reader thread);
//! * [`ChorusComChannel`] — Chorus IPC, where *"buffering is done
//!   transparent by the communication subsystem"*;
//! * [`DacapoComChannel`] — a Da CaPo connection, which *"handles its own
//!   buffers in the Da CaPo runtime environment"* and is the only channel
//!   implementing `set_qos` (Section 4.3).
//!
//! `set_qos` is the unilateral message-layer → transport-layer
//! negotiation: the default implementation ignores the request (TCP and
//! Chorus IPC cannot shape traffic), while the Da CaPo channel maps the
//! requirements to a new protocol configuration and reconfigures both
//! sides of the connection.
//!
//! ## Threading model: push first, pull as a veneer
//!
//! Frame delivery is *event-driven*. Every channel owns a [`FrameInbox`];
//! whatever thread discovers an inbound frame (over TCP the holder of the
//! connection's read token — a caller reading its own reply
//! ([`ComChannel::read_turn`]) or the reader thread; the peer's sending
//! thread for the in-process Chorus transport; a Da CaPo connection's
//! receive thread) pushes it into the inbox, which either
//!
//! * hands it synchronously to a registered [`FrameSink`] (push mode — the
//!   client demux and the server dispatcher run this way), or
//! * queues it and wakes any thread blocked in [`ComChannel::recv_frame`]
//!   (pull mode — used by streams and by tests that drive a channel half
//!   by hand).
//!
//! There is no polling anywhere on this path: `recv_frame` is a true
//! blocking wait on a condition variable with a real deadline, and a sink
//! runs the instant a frame arrives. This diverges from the seed design,
//! which had consumers re-poll `recv_frame` on short fixed intervals at
//! the demux, server-worker and Da CaPo layers — all of those poll
//! constants are gone.
//!
//! Sink callbacks run on the delivering thread and are serialized per
//! channel. They must not block on a synchronous invocation over the
//! *same* channel (the delivering thread — over TCP, the one holding the
//! read token — is the one that would unblock it) —
//! the same re-entrancy rule the seed's demux thread had. The rule has a
//! servant under it now: the server's sink runs a request for an object it
//! has observed cheap to completion inside `on_frame` (see
//! [`crate::server`]), so such a servant executes on the delivery thread —
//! over Chorus, inside the caller's `send_frame` — and must not wait for a
//! later frame of the connection that delivered its request. Nor, over
//! TCP, for the peer to answer anything it sends on that connection: a
//! frame sent from a sink callback on its own channel leaves when the
//! delivery run ends ([`ComChannel::send_frame`]).
//!
//! A thread that pushes while another is still inside the sink only
//! enqueues; the thread inside drains those frames when its callback
//! returns, as [`FrameSink::on_queued_frame`] — so a sink can tell the
//! frame its thread brought from the ones it is handed on others' behalf.

pub mod chorus;
pub mod dacapo_chan;
pub mod fault;
pub mod tcp;

pub use chorus::ChorusComChannel;
pub use dacapo_chan::DacapoComChannel;
pub use fault::{FaultChannel, FaultMetrics};
pub use tcp::TcpComChannel;

use crate::error::OrbError;
use bytes::Bytes;
use cool_telemetry::{names, Counter, Registry};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The furthest ahead a wait's deadline is placed: a longer timeout
/// (`Duration::MAX` included) is a wait without a deadline in effect.
const FAR_HORIZON: Duration = Duration::from_secs(100 * 365 * 24 * 60 * 60);

/// The deadline of a wait that starts now and lasts `timeout`, capped at
/// [`FAR_HORIZON`] so that no timeout overflows an `Instant`.
pub(crate) fn deadline_after(timeout: Duration) -> Instant {
    Instant::now() + timeout.min(FAR_HORIZON)
}

/// Pre-resolved receive-side counters for one channel's [`FrameInbox`].
///
/// All three transports deliver inbound frames through an inbox, so
/// attaching metrics here instruments the receive path uniformly.
#[derive(Clone)]
pub struct InboxMetrics {
    frames: Arc<Counter>,
    bytes: Arc<Counter>,
    dropped: Arc<Counter>,
}

impl InboxMetrics {
    /// Resolves the `transport_*_recv_total` / `transport_frames_dropped_total`
    /// counters for a channel of the given kind.
    pub fn resolve(registry: &Registry, kind: &str) -> Self {
        let labels: &[(&str, &str)] = &[("kind", kind)];
        InboxMetrics {
            frames: registry.counter(&Registry::labeled("transport_frames_recv_total", labels)),
            bytes: registry.counter(&Registry::labeled("transport_bytes_recv_total", labels)),
            dropped: registry.counter(&Registry::labeled("transport_frames_dropped_total", labels)),
        }
    }
}

/// Consumer of inbound frames, registered with [`ComChannel::set_sink`].
///
/// Callbacks run on the transport's delivery thread; see the module docs
/// for the re-entrancy rule.
pub trait FrameSink: Send + Sync {
    /// A complete frame arrived on the channel.
    fn on_frame(&self, frame: Bytes);
    /// A frame some *other* thread pushed while this one was inside
    /// [`FrameSink::on_frame`] (several callers sharing a Chorus binding),
    /// or one that queued before the sink was registered: the calling
    /// thread is draining it on the pusher's behalf. Same frame, same
    /// order; a sink that would do real work on the delivering thread
    /// overrides this to do only what that thread can be held for.
    fn on_queued_frame(&self, frame: Bytes) {
        self.on_frame(frame);
    }
    /// The channel closed (locally or by the peer). Called at most once,
    /// after the last `on_frame`.
    fn on_close(&self);
}

/// A frame-preserving duplex channel between two ORB endpoints.
pub trait ComChannel: Send + Sync {
    /// Sends one message frame.
    ///
    /// A frame sent from this channel's own sink callback may leave only
    /// when the callback's delivery run ends (TCP corks what a callback
    /// sends while more frames of the same read are to come, and writes it
    /// with the next write, in send order — `tcp.rs`), and an error writing
    /// it is then heard by nobody: a callback must not wait for the peer to
    /// act on what it sent.
    ///
    /// # Errors
    ///
    /// [`OrbError::Closed`] after close; [`OrbError::Transport`] on I/O
    /// failure.
    fn send_frame(&self, frame: Bytes) -> Result<(), OrbError>;

    /// Receives the next frame, blocking until one arrives, the channel
    /// closes, or `timeout` elapses. A real blocking wait with a real
    /// deadline — arrival wakes the caller immediately.
    ///
    /// Not meaningful once a sink is registered: frames then flow to the
    /// sink instead.
    ///
    /// # Errors
    ///
    /// [`OrbError::Timeout`] on expiry; [`OrbError::Closed`] once the
    /// channel is torn down.
    fn recv_frame(&self, timeout: Duration) -> Result<Bytes, OrbError>;

    /// Registers a push consumer. Frames already queued (and a pending
    /// close) are replayed into the sink immediately, in order; subsequent
    /// frames are pushed as they arrive. A channel has at most one sink;
    /// registering a new one replaces the old.
    fn set_sink(&self, sink: Arc<dyn FrameSink>);

    /// Waits up to `timeout` for in-flight traffic to clear so that a
    /// subsequent [`ComChannel::close`] loses nothing; returns whether the
    /// channel quiesced. Channels without buffering (TCP, Chorus) are
    /// always quiescent.
    fn drain(&self, timeout: Duration) -> bool {
        let _ = timeout;
        true
    }

    /// Whether the thread that delivers this channel's frames to its sink
    /// may be kept waiting there — which is how a server whose dispatch
    /// queue is full makes backpressure reach the peer (TCP's reader stops
    /// reading, a Chorus caller waits). `false` when that thread also
    /// carries what the wait would depend on: Da CaPo's receive thread
    /// brings the acknowledgements that a dispatcher blocked in
    /// `send_frame` behind a full ARQ window is waiting for.
    fn delivery_may_wait(&self) -> bool {
        true
    }

    /// Lets a thread waiting for a reply read the channel itself
    /// (leader/followers): if no other thread is reading, reads and
    /// delivers every frame — through the inbox and the sink, in wire
    /// order — until `done()` holds, `deadline` passes or the channel
    /// ends, and returns `true`. Returns `false` at once when another
    /// thread is reading, or the channel ended. With a `deadline` already
    /// past it takes in only what has arrived, without blocking.
    ///
    /// The default never reads: Chorus delivers on the sender's thread
    /// and Da CaPo on its receive thread, so a waiter just waits.
    fn read_turn(&self, deadline: Instant, done: &dyn Fn() -> bool) -> bool {
        let _ = (deadline, done);
        false
    }

    /// Hands the demand of the channel's reader thread to whoever waits
    /// for replies (the binding): from then on the thread reads only
    /// while some reply is owed to a thread that is not reading
    /// ([`ReadDemand`]). `None` — the default — for a channel whose
    /// delivery does not depend on demand.
    fn hand_over_demand(&self) -> Option<Arc<ReadDemand>> {
        None
    }

    /// Closes the channel (idempotent); unblocks both sides.
    fn close(&self);

    /// Transport kind for diagnostics (`"tcp"`, `"chorus"`, `"dacapo"`).
    fn kind(&self) -> &'static str;

    /// Whether this transport honours `set_qos`.
    fn supports_qos(&self) -> bool {
        false
    }

    /// Propagates QoS requirements into the transport (unilateral
    /// negotiation). The default implementation accepts and ignores them —
    /// the behaviour of TCP and Chorus IPC in the paper, which simply do
    /// not implement the method.
    ///
    /// # Errors
    ///
    /// Implementations that *do* support QoS report admission or
    /// configuration failures as [`OrbError::QosNotSupported`].
    fn set_qos(&self, requirements: &multe_qos::TransportRequirements) -> Result<(), OrbError> {
        let _ = requirements;
        Ok(())
    }
}

/// Pre-resolved send-side counters for a channel.
#[derive(Clone)]
pub struct SendMetrics {
    frames: Arc<Counter>,
    bytes: Arc<Counter>,
    writes: Arc<Counter>,
}

impl SendMetrics {
    /// Resolves the `transport_*_sent_total` and `transport_writes_total`
    /// counters for a channel of the given kind.
    pub fn resolve(registry: &Registry, kind: &str) -> Self {
        let labels: &[(&str, &str)] = &[("kind", kind)];
        SendMetrics {
            frames: registry.counter(&Registry::labeled("transport_frames_sent_total", labels)),
            bytes: registry.counter(&Registry::labeled("transport_bytes_sent_total", labels)),
            writes: registry.counter(&Registry::labeled(names::TRANSPORT_WRITES_TOTAL, labels)),
        }
    }

    /// Counts one outbound frame of `len` bytes, written on its own.
    pub fn record(&self, len: usize) {
        self.frames.inc();
        self.bytes.add(len as u64);
        self.writes.inc();
    }

    /// Counts one write that carried `frames`.
    pub fn record_write(&self, frames: &[Bytes]) {
        self.frames.add(frames.len() as u64);
        self.bytes
            .add(frames.iter().map(|frame| frame.len() as u64).sum());
        self.writes.inc();
    }
}

// ---------------------------------------------------------------------------
// ReadDemand
// ---------------------------------------------------------------------------

/// How much a channel's reader thread is wanted.
///
/// Until [`ComChannel::hand_over_demand`] the reader always reads: a server
/// connection, or a pull-mode channel. After it, the reader reads only
/// while some reply is owed to a thread that is not reading itself — a
/// deferred reply nobody waits for yet, a `notify` callback, a caller that
/// found another thread reading. Each such reply holds an `Owed` for as
/// long as it is owed; the reader parks while none is.
pub struct ReadDemand {
    state: Mutex<DemandState>,
    changed: Condvar,
}

struct DemandState {
    owed: usize,
    handed_over: bool,
    closed: bool,
}

/// One reply owed to a channel's reader thread; dropping it releases the
/// demand.
pub(crate) struct Owed(Arc<ReadDemand>);

impl Drop for Owed {
    fn drop(&mut self) {
        self.0.state.lock().owed -= 1;
    }
}

impl ReadDemand {
    pub(crate) fn new() -> Self {
        ReadDemand {
            state: Mutex::new(DemandState {
                owed: 0,
                handed_over: false,
                closed: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// From now on the reader reads only while a reply is owed.
    pub(crate) fn hand_over(&self) {
        self.state.lock().handed_over = true;
    }

    /// One more reply owed to the reader; the first wakes it. Raised under
    /// the lock the reader checks before it parks, so no wake-up is lost.
    pub(crate) fn raise(self: &Arc<Self>) -> Owed {
        let mut st = self.state.lock();
        st.owed += 1;
        if st.owed == 1 {
            self.changed.notify_one();
        }
        Owed(Arc::clone(self))
    }

    /// Whether the reader should be reading now.
    pub(crate) fn wanted(&self) -> bool {
        let st = self.state.lock();
        !st.handed_over || st.owed > 0
    }

    /// Parks the reader until it is wanted; `false` once the channel has
    /// closed.
    pub(crate) fn park_until_wanted(&self) -> bool {
        let mut st = self.state.lock();
        while !st.closed && st.handed_over && st.owed == 0 {
            self.changed.wait(&mut st);
        }
        !st.closed
    }

    /// The channel is gone: the reader stops parking and ends.
    pub(crate) fn close(&self) {
        self.state.lock().closed = true;
        self.changed.notify_all();
    }
}

// ---------------------------------------------------------------------------
// FrameInbox
// ---------------------------------------------------------------------------

struct InboxState {
    queue: VecDeque<Bytes>,
    sink: Option<Arc<dyn FrameSink>>,
    /// True while some thread is draining `queue` into the sink with the
    /// lock released. Concurrent pushers then only enqueue, which keeps
    /// sink callbacks serialized and in FIFO order.
    delivering: bool,
    closed: bool,
    close_notified: bool,
    metrics: Option<InboxMetrics>,
}

/// The per-channel delivery core shared by all three transports: a
/// condvar-backed frame queue supporting both blocking pull
/// ([`FrameInbox::recv`]) and sink push.
///
/// Invariant: while a sink is registered and no delivery is in flight, the
/// queue is empty — every push drains synchronously.
pub struct FrameInbox {
    state: Mutex<InboxState>,
    arrived: Condvar,
}

impl Default for FrameInbox {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameInbox {
    /// Creates an empty, open inbox.
    pub fn new() -> Self {
        FrameInbox {
            state: Mutex::new(InboxState {
                queue: VecDeque::new(),
                sink: None,
                delivering: false,
                closed: false,
                close_notified: false,
                metrics: None,
            }),
            arrived: Condvar::new(),
        }
    }

    /// Attaches receive-side counters; every subsequent [`FrameInbox::push`]
    /// counts the frame and its bytes (or a drop, when pushed after close).
    pub fn set_metrics(&self, metrics: InboxMetrics) {
        self.state.lock().metrics = Some(metrics);
    }

    /// Delivers one inbound frame: straight to the sink when one is
    /// registered, otherwise queued for [`FrameInbox::recv`]. Frames pushed
    /// after the close has been observed are dropped.
    pub fn push(&self, frame: Bytes) {
        let mut st = self.state.lock();
        if st.close_notified {
            if let Some(m) = &st.metrics {
                m.dropped.inc();
            }
            return;
        }
        if let Some(m) = &st.metrics {
            m.frames.inc();
            m.bytes.add(frame.len() as u64);
        }
        st.queue.push_back(frame);
        if st.sink.is_some() && !st.delivering {
            // The invariant below: the queue held nothing before this
            // push, so the first frame out is the caller's own.
            self.deliver(st, true);
        } else {
            self.arrived.notify_one();
        }
    }

    /// Blocks until a frame is available, the inbox closes, or the timeout
    /// elapses. Queued frames are drained before the close is reported.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Bytes, OrbError> {
        let deadline = deadline_after(timeout);
        let mut st = self.state.lock();
        loop {
            if let Some(frame) = st.queue.pop_front() {
                return Ok(frame);
            }
            if st.closed {
                return Err(OrbError::Closed);
            }
            if self.arrived.wait_until(&mut st, deadline).timed_out()
                && st.queue.is_empty()
                && !st.closed
            {
                // lint: allow(A010, the inbox sits below the request layer — no request exists here; invoke_once rewraps this as request_timeout with the id)
                return Err(OrbError::timeout(timeout));
            }
        }
    }

    /// Registers the push consumer, replaying any queued frames (and a
    /// pending close) into it before returning.
    pub fn set_sink(&self, sink: Arc<dyn FrameSink>) {
        let mut st = self.state.lock();
        st.sink = Some(sink);
        if !st.delivering {
            self.deliver(st, false);
        }
    }

    /// Closes the inbox: wakes all `recv` waiters and, in sink mode, fires
    /// `on_close` once any queued frames have been delivered. Idempotent.
    pub fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        self.arrived.notify_all();
        if st.sink.is_some() && !st.delivering {
            self.deliver(st, false);
        }
    }

    /// Whether the inbox has been closed.
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }

    /// Drains the queue into the sink with the lock released around each
    /// callback, then fires `on_close` (once) if the inbox is closed.
    /// `own` says the first frame out is one the calling thread pushed;
    /// every later one waited behind it and arrives as
    /// [`FrameSink::on_queued_frame`].
    fn deliver<'a>(&'a self, mut st: MutexGuard<'a, InboxState>, mut own: bool) {
        let Some(sink) = st.sink.clone() else { return };
        st.delivering = true;
        while let Some(frame) = st.queue.pop_front() {
            drop(st);
            if std::mem::take(&mut own) {
                sink.on_frame(frame);
            } else {
                sink.on_queued_frame(frame);
            }
            st = self.state.lock();
        }
        st.delivering = false;
        if st.closed && !st.close_notified {
            st.close_notified = true;
            // Release the sink so anything it owns (dispatcher queue
            // handles, connection state) is freed even while other parties
            // still hold the inbox alive.
            st.sink = None;
            drop(st);
            sink.on_close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;

    struct CountingSink {
        frames: AtomicUsize,
        closes: AtomicUsize,
        seen: Mutex<Vec<Bytes>>,
    }

    impl CountingSink {
        fn new() -> Arc<Self> {
            Arc::new(CountingSink {
                frames: AtomicUsize::new(0),
                closes: AtomicUsize::new(0),
                seen: Mutex::new(Vec::new()),
            })
        }
    }

    impl FrameSink for CountingSink {
        fn on_frame(&self, frame: Bytes) {
            self.frames.fetch_add(1, Ordering::SeqCst);
            self.seen.lock().push(frame);
        }
        fn on_close(&self) {
            self.closes.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn recv_wakes_on_push_without_polling() {
        let inbox = Arc::new(FrameInbox::new());
        let i2 = Arc::clone(&inbox);
        let t = thread::spawn(move || i2.recv_timeout(Duration::from_secs(5)));
        thread::sleep(Duration::from_millis(20));
        let start = Instant::now();
        inbox.push(Bytes::from_static(b"hi"));
        let got = t.join().unwrap().unwrap();
        assert_eq!(&got[..], b"hi");
        // The waiter must wake promptly, not on some 50ms poll boundary.
        assert!(start.elapsed() < Duration::from_millis(40));
    }

    #[test]
    fn recv_times_out_with_real_deadline() {
        let inbox = FrameInbox::new();
        let start = Instant::now();
        let err = inbox.recv_timeout(Duration::from_millis(60)).unwrap_err();
        assert!(matches!(err, OrbError::Timeout { .. }));
        assert!(start.elapsed() >= Duration::from_millis(55));
    }

    #[test]
    fn recv_with_duration_max_returns_a_pushed_frame() {
        let inbox = FrameInbox::new();
        inbox.push(Bytes::from_static(b"late"));
        assert_eq!(&inbox.recv_timeout(Duration::MAX).unwrap()[..], b"late");
    }

    #[test]
    fn sink_receives_backlog_then_live_frames_in_order() {
        let inbox = FrameInbox::new();
        inbox.push(Bytes::from_static(b"a"));
        inbox.push(Bytes::from_static(b"b"));
        let sink = CountingSink::new();
        inbox.set_sink(sink.clone());
        inbox.push(Bytes::from_static(b"c"));
        let seen = sink.seen.lock();
        assert_eq!(
            seen.iter().map(|b| b[0]).collect::<Vec<_>>(),
            vec![b'a', b'b', b'c']
        );
        assert_eq!(sink.closes.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn close_fires_on_close_exactly_once_after_frames() {
        let inbox = FrameInbox::new();
        let sink = CountingSink::new();
        inbox.set_sink(sink.clone());
        inbox.push(Bytes::from_static(b"x"));
        inbox.close();
        inbox.close();
        assert_eq!(sink.frames.load(Ordering::SeqCst), 1);
        assert_eq!(sink.closes.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn close_after_queueing_replays_then_closes_new_sink() {
        let inbox = FrameInbox::new();
        inbox.push(Bytes::from_static(b"x"));
        inbox.close();
        let sink = CountingSink::new();
        inbox.set_sink(sink.clone());
        assert_eq!(sink.frames.load(Ordering::SeqCst), 1);
        assert_eq!(sink.closes.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn inbox_metrics_count_recv_and_drops() {
        let registry = Registry::new();
        let inbox = FrameInbox::new();
        inbox.set_metrics(InboxMetrics::resolve(&registry, "tcp"));
        inbox.push(Bytes::from_static(b"abcd"));
        inbox.push(Bytes::from_static(b"ef"));
        // Drain queue + close so pushes afterwards count as drops.
        let sink = CountingSink::new();
        inbox.set_sink(sink);
        inbox.close();
        inbox.push(Bytes::from_static(b"late"));
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("transport_frames_recv_total{kind=\"tcp\"}"),
            Some(2)
        );
        assert_eq!(
            snap.counter("transport_bytes_recv_total{kind=\"tcp\"}"),
            Some(6)
        );
        assert_eq!(
            snap.counter("transport_frames_dropped_total{kind=\"tcp\"}"),
            Some(1)
        );
    }

    #[test]
    fn queued_frames_drain_before_closed_error() {
        let inbox = FrameInbox::new();
        inbox.push(Bytes::from_static(b"tail"));
        inbox.close();
        assert_eq!(&inbox.recv_timeout(Duration::from_millis(10)).unwrap()[..], b"tail");
        assert!(matches!(
            inbox.recv_timeout(Duration::from_millis(10)),
            Err(OrbError::Closed)
        ));
    }
}
