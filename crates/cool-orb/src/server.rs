//! The server side of the ORB: blocking acceptors, push-mode connection
//! sinks, and a shared dispatcher pool.
//!
//! ## Threading model
//!
//! The server is event-driven end to end:
//!
//! * **The acceptor blocks** — one loop over an accept source: the TCP
//!   listener's `accept()` (woken at shutdown by a loopback self-connect)
//!   or the exchange's acceptor queue (a blocking `recv`, woken by the
//!   exchange dropping its sender on `unlisten`). No accept poll.
//! * **Each connection registers a [`ConnSink`]** as its channel's
//!   [`FrameSink`]: the transport's delivery thread has
//!   [`crate::message_layer`] decode each frame the moment it arrives —
//!   which protocol the peer speaks is not visible here — and either
//!   answers protocol chatter inline (locate probes, cancels), runs the
//!   decoded request to completion itself (below), or enqueues it on the
//!   shared dispatcher queue.
//! * **A shared pool of dispatcher threads** (size
//!   [`OrbConfig::dispatcher_threads`]) executes requests and marshals
//!   replies. Requests pipelined on one connection run *concurrently*;
//!   replies are matched by request id, so out-of-order completion is
//!   fine. The queue is bounded ([`DISPATCH_QUEUE_DEPTH`]): when servants
//!   fall behind, delivery threads block on enqueue and backpressure
//!   reaches the peer instead of buffering without bound. The exception is
//!   a delivery thread that must not wait
//!   ([`ComChannel::delivery_may_wait`] — Da CaPo's receive thread, which
//!   also brings the acknowledgements a dispatcher blocked in a reply is
//!   waiting for): what it finds no room for goes to an overflow the
//!   dispatchers empty first, paced by Da CaPo's own flow control as the
//!   connection's receive queue always was.
//! * **A servant observed cheap runs on the delivering thread.** Handing
//!   a request to the pool and the reply back costs thread wake-ups that
//!   dwarf a short upcall, so an object whose last
//!   [`INLINE_ADMIT_STREAK`] upcalls each finished inside
//!   [`INLINE_UPCALL_BUDGET`] has its next request executed right where
//!   the frame was decoded: the same [`run_job`], called directly, reply
//!   written by the thread that ran the servant. Over Chorus that is the
//!   *caller's* thread — the whole call happens on it. Nothing declares a
//!   servant cheap: the adapter counts the streak from the execute time
//!   it measures anyway, and one upcall over budget sends the object back
//!   to the pool from its next request on. That one upcall holds its
//!   connection's delivery thread for as long as it runs — requests
//!   behind it on the same connection wait, and a Chorus caller sleeps
//!   inside its own send and comes back with a late reply rather than a
//!   timeout. Frames the delivering thread is merely draining for other
//!   pushers ([`FrameSink::on_queued_frame`]) always go to the pool, so a
//!   caller sharing a Chorus binding is never kept running other callers'
//!   servants.
//!
//! Per-connection cancel bookkeeping is bounded too ([`CANCEL_HISTORY`]):
//! cancels for requests that never arrive evict oldest-first rather than
//! growing a set forever.

use crate::adapter::ObjectAdapter;
use crate::config::OrbConfig;
use crate::error::OrbError;
use crate::exchange::{Inbound, LocalExchange};
use crate::message_layer::{self, Event, InboundRequest};
use crate::object::{ObjectKey, ObjectRef, OrbAddr};
use crate::transport::{deadline_after, ComChannel, FrameSink, TcpComChannel};
use bytes::Bytes;
use cool_giop::prelude::{ReplyTraceContext, RequestTraceContext};
use cool_telemetry::flight::event as flight_event;
use cool_telemetry::trace::duration_as_u32_us;
use cool_telemetry::{names, Counter, Gauge, Histogram, Registry, Stage};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender, TrySendError};
use multe_qos::QoSSpec;
use cool_telemetry::lockorder::OrderedMutex;
use cool_telemetry::lockorder::rank as lock_rank;
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Capacity of a server's shared request queue: when full, delivery threads
/// block on enqueue, so backpressure reaches the peer.
const DISPATCH_QUEUE_DEPTH: usize = 256;

/// What an upcall may take and still count as cheap: about four thread
/// handoffs (the ledger's `inbox_handoff_ns` ≈ 5 µs), so running it on the
/// delivery thread holds that thread no longer than a few enqueues would.
pub(crate) const INLINE_UPCALL_BUDGET: Duration = Duration::from_micros(20);

/// Consecutive upcalls inside [`INLINE_UPCALL_BUDGET`] before an object's
/// requests run on the delivering thread; one over budget starts the count
/// again from zero.
pub(crate) const INLINE_ADMIT_STREAK: u32 = 64;

/// Cancelled request ids remembered per connection, oldest evicted first.
const CANCEL_HISTORY: usize = 1024;

/// A running ORB endpoint serving objects from an adapter.
pub struct OrbServer {
    addr: OrbAddr,
    adapter: Arc<ObjectAdapter>,
    shutdown: Arc<AtomicBool>,
    acceptor: OrderedMutex<Option<JoinHandle<()>>>,
    dispatchers: OrderedMutex<Vec<JoinHandle<()>>>,
    /// Dropped at close so dispatchers see disconnection once every
    /// connection sink has released its clone.
    jobs_tx: OrderedMutex<Option<Sender<Job>>>,
    conns: Arc<OrderedMutex<Vec<Weak<ConnState>>>>,
    /// Pops the acceptor out of its blocking wait; fired by
    /// [`OrbServer::close`] once the shutdown flag is set.
    wake: Box<dyn Fn() + Send + Sync>,
    /// While set, connection sinks refuse *new* Requests (drained clients
    /// see a timeout and may retry elsewhere) but replies for accepted
    /// work still flow.
    draining: Arc<AtomicBool>,
    /// Counts accepted-but-unfinished requests, so a graceful shutdown can
    /// wait for the pipeline to empty.
    tracker: Arc<JobTracker>,
}

impl std::fmt::Debug for OrbServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrbServer")
            .field("addr", &self.addr.to_string())
            .finish()
    }
}

impl OrbServer {
    /// Starts a TCP endpoint. `addr` may use port 0; the actual bound
    /// address is reported by [`OrbServer::addr`].
    ///
    /// # Errors
    ///
    /// [`OrbError::Transport`] if binding fails or a server thread cannot
    /// be spawned.
    pub fn start_tcp(
        adapter: Arc<ObjectAdapter>,
        addr: &str,
        config: &OrbConfig,
    ) -> Result<Self, OrbError> {
        let listener = TcpComChannel::listen(addr)?;
        let local = listener
            .local_addr()
            .map_err(|e| OrbError::Transport(format!("local addr: {e}")))?;
        let telemetry = config.telemetry.clone();
        let accept = move |shutdown: &AtomicBool| loop {
            let (stream, _peer) = listener.accept().ok()?;
            if shutdown.load(Ordering::Acquire) {
                return None; // shutdown self-connect (or a late client)
            }
            if let Ok(channel) = TcpComChannel::from_stream_with(stream, telemetry.as_deref()) {
                return Some(Arc::new(channel) as Inbound);
            }
        };
        // A loopback self-connect returns `accept()`. Bounded: the accept
        // loop is local, so a second is ample; an unbounded connect could
        // wedge `close` behind a half-dead loopback stack.
        let wake = move || {
            let _ = std::net::TcpStream::connect_timeout(&local, Duration::from_secs(1));
        };
        let addr = OrbAddr::Tcp(local.to_string());
        OrbServer::start(adapter, addr, "cool-tcp-acceptor", config, accept, wake)
    }

    /// Starts an endpoint fed by a [`LocalExchange`] acceptor queue
    /// (Chorus or Da CaPo transports).
    ///
    /// # Errors
    ///
    /// [`OrbError::Transport`] if a server thread cannot be spawned.
    pub fn start_exchange(
        adapter: Arc<ObjectAdapter>,
        addr: OrbAddr,
        acceptor: Receiver<Inbound>,
        exchange: LocalExchange,
        config: &OrbConfig,
    ) -> Result<Self, OrbError> {
        let (scheme, name) = (addr.scheme(), addr.target().to_owned());
        // Blocking recv: `unlisten` drops the exchange's sender, which
        // disconnects this receiver and ends the thread — no poll.
        let wake = move || exchange.unlisten(scheme, &name);
        let accept = move |shutdown: &AtomicBool| loop {
            let channel = acceptor.recv().ok()?;
            if !shutdown.load(Ordering::Acquire) {
                return Some(channel);
            }
            channel.close(); // connector raced the shutdown
        };
        OrbServer::start(adapter, addr, "cool-exchange-acceptor", config, accept, wake)
    }

    /// The one constructor: the dispatcher pool, then an acceptor thread
    /// that attaches every channel `accept` yields until it yields `None`.
    /// `accept` blocks; it is handed the shutdown flag [`OrbServer::close`]
    /// sets before it fires `wake`.
    fn start(
        adapter: Arc<ObjectAdapter>,
        addr: OrbAddr,
        acceptor_name: &str,
        config: &OrbConfig,
        mut accept: impl FnMut(&AtomicBool) -> Option<Inbound> + Send + 'static,
        wake: impl Fn() + Send + Sync + 'static,
    ) -> Result<Self, OrbError> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Arc<OrderedMutex<Vec<Weak<ConnState>>>> =
            Arc::new(OrderedMutex::new(lock_rank::SERVER_CONNS, Vec::new()));
        let metrics = config
            .telemetry
            .as_ref()
            .map(|r| ServerMetrics::resolve(Arc::clone(r), config.tracing));
        let Pool {
            jobs: jobs_tx,
            overflow,
            threads: dispatchers,
        } = start_dispatchers(&adapter, config, metrics.as_ref())?;
        let intake = Intake {
            adapter: adapter.clone(),
            jobs: jobs_tx.clone(),
            overflow,
            metrics,
            draining: Arc::new(AtomicBool::new(false)),
            tracker: JobTracker::new(),
        };
        let (draining, tracker) = (intake.draining.clone(), intake.tracker.clone());
        let (flag, acceptor_conns) = (shutdown.clone(), conns.clone());
        let acceptor = std::thread::Builder::new()
            .name(acceptor_name.into())
            .spawn(move || {
                while let Some(channel) = accept(&flag) {
                    attach_connection(channel, intake.clone(), &acceptor_conns);
                }
            })
            .map_err(|e| OrbError::Transport(format!("spawn {acceptor_name}: {e}")))?;

        Ok(OrbServer {
            addr,
            adapter,
            shutdown,
            acceptor: OrderedMutex::new(lock_rank::SERVER_ACCEPTOR, Some(acceptor)),
            dispatchers: OrderedMutex::new(lock_rank::SERVER_DISPATCHERS, dispatchers),
            jobs_tx: OrderedMutex::new(lock_rank::SERVER_JOBS_TX, Some(jobs_tx)),
            conns,
            wake: Box::new(wake),
            draining,
            tracker,
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> &OrbAddr {
        &self.addr
    }

    /// The adapter serving this endpoint.
    pub fn adapter(&self) -> &Arc<ObjectAdapter> {
        &self.adapter
    }

    /// Builds an object reference for a key served here.
    pub fn object_ref(&self, key: impl Into<ObjectKey>) -> ObjectRef {
        ObjectRef::new(self.addr.clone(), key)
    }

    /// Graceful shutdown: stops taking *new* requests, waits up to
    /// `drain_timeout` for every accepted request to finish (replies
    /// included), then closes. Returns whether the pipeline drained fully
    /// in time; `false` means in-flight work was cut off by [`close`].
    ///
    /// [`close`]: OrbServer::close
    pub fn shutdown_graceful(&self, drain_timeout: Duration) -> bool {
        self.draining.store(true, Ordering::Release);
        let drained = self.tracker.wait_idle(drain_timeout);
        self.close();
        drained
    }

    /// Stops accepting and serving. Idempotent.
    pub fn close(&self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // 1. Stop the intake: pop the acceptor out of its blocking wait
        //    (unregister from the exchange, or poke the TCP accept).
        (self.wake)();
        // Take the handle out first, then join with the lock released: a
        // join under `server.acceptor` would stall any thread touching the
        // handle slot for as long as the accept loop takes to notice.
        let acceptor = self.acceptor.lock().take();
        if let Some(h) = acceptor {
            let _ = h.join();
        }
        // 2. Orderly shutdown: tell each peer before going away so
        //    clients fail outstanding work immediately instead of timing
        //    out (Figure 2-i's CloseConnection message). Closing the
        //    channel also releases its sink (and that sink's queue handle).
        //    Drain the list under the lock, write to sockets without it —
        //    send_frame can block on a slow peer, and connection teardown
        //    paths take `server.conns` too.
        let conns: Vec<_> = self.conns.lock().drain(..).collect();
        for weak in conns {
            if let Some(conn) = weak.upgrade() {
                if let Some(frame) = message_layer::close_connection_frame() {
                    let _ = conn.channel.send_frame(frame);
                }
                conn.channel.close();
            }
        }
        // 3. With every sender gone, dispatchers drain the queue and exit.
        //    Same discipline: collect the handles, join unlocked, so a
        //    dispatcher still executing a servant never waits on a thread
        //    that holds `server.dispatchers`.
        self.jobs_tx.lock().take();
        let dispatchers: Vec<_> = self.dispatchers.lock().drain(..).collect();
        for t in dispatchers {
            let _ = t.join();
        }
    }
}

impl Drop for OrbServer {
    fn drop(&mut self) {
        self.close();
    }
}

// ---------------------------------------------------------------------------
// Connections and the dispatcher pool
// ---------------------------------------------------------------------------

/// Counts requests between acceptance and completion, with a condvar wait
/// for the drain in [`OrbServer::shutdown_graceful`]. Guard-based: a
/// [`JobGuard`] rides in the [`Job`] itself, so a job dropped unexecuted
/// (dispatchers exiting) still counts down. The count is an atomic — a
/// request pays two of those — and the mutex and condvar, which only a
/// drain ever waits on, are touched on the edge to zero alone.
struct JobTracker {
    active: AtomicUsize,
    /// Orders the edge's notify after a drain's check of `active`: the
    /// waiter checks under it, the last guard notifies under it.
    gate: parking_lot::Mutex<()>,
    idle: parking_lot::Condvar,
}

impl JobTracker {
    fn new() -> Arc<Self> {
        Arc::new(JobTracker {
            active: AtomicUsize::new(0),
            gate: parking_lot::Mutex::new(()),
            idle: parking_lot::Condvar::new(),
        })
    }

    fn track(self: &Arc<Self>) -> JobGuard {
        self.active.fetch_add(1, Ordering::SeqCst);
        JobGuard(Arc::clone(self))
    }

    /// Blocks until no request is in flight, or `timeout` elapses.
    /// Returns whether the pipeline is idle.
    fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = deadline_after(timeout);
        let mut gate = self.gate.lock();
        while self.active.load(Ordering::SeqCst) > 0 {
            if self.idle.wait_until(&mut gate, deadline).timed_out() {
                return self.active.load(Ordering::SeqCst) == 0;
            }
        }
        true
    }
}

struct JobGuard(Arc<JobTracker>);

impl Drop for JobGuard {
    fn drop(&mut self) {
        if self.0.active.fetch_sub(1, Ordering::SeqCst) == 1 {
            let _gate = self.0.gate.lock();
            self.0.idle.notify_all();
        }
    }
}

/// Per-connection server state, shared between the connection's sink and
/// any in-flight dispatcher jobs.
struct ConnState {
    channel: Arc<dyn ComChannel>,
    cancelled: OrderedMutex<CancelSet>,
}

/// Bounded memory of `CancelRequest` ids (the newest [`CANCEL_HISTORY`];
/// oldest evicted first), so a client spraying cancels for requests that
/// never arrive cannot grow server state without limit.
#[derive(Default)]
struct CancelSet {
    ids: HashSet<u32>,
    order: VecDeque<u32>,
}

impl CancelSet {
    fn insert(&mut self, id: u32) {
        if self.ids.insert(id) {
            self.order.push_back(id);
            while self.order.len() > CANCEL_HISTORY {
                if let Some(old) = self.order.pop_front() {
                    self.ids.remove(&old);
                }
            }
        }
    }

    fn remove(&mut self, id: u32) -> bool {
        // A stale id may linger in `order` until evicted; both structures
        // stay bounded by `CANCEL_HISTORY` regardless.
        self.ids.remove(&id)
    }
}

/// Pre-resolved dispatch metric handles, shared by the dispatcher threads
/// and the connection sinks of one server.
#[derive(Clone)]
struct ServerMetrics {
    registry: Arc<Registry>,
    queue_depth: Arc<Gauge>,
    /// Pool threads inside a job; a delivery thread running one inline is
    /// not a dispatcher and does not count.
    busy: Arc<Gauge>,
    queue_wait: Arc<Histogram>,
    /// Requests run to completion on the thread that delivered them.
    inline: Arc<Counter>,
    trace_joins: Arc<Counter>,
    ctx_bytes: Arc<Counter>,
    /// Deepest dispatcher queue seen so far; a new maximum lands in the
    /// flight recorder (the ring keeps high-water marks, not every sample).
    queue_high_water: Arc<AtomicUsize>,
    /// Whether this server joins inbound distributed traces
    /// ([`OrbConfig::tracing`]); off means requests are answered without
    /// a reply trace context even when the client sent one.
    tracing: bool,
}

impl ServerMetrics {
    fn resolve(registry: Arc<Registry>, tracing: bool) -> Self {
        ServerMetrics {
            queue_depth: registry.gauge("orb_dispatch_queue_depth"),
            busy: registry.gauge("orb_dispatchers_busy"),
            queue_wait: registry.histogram("orb_dispatch_queue_wait_us"),
            inline: registry.counter(names::DISPATCH_INLINE_TOTAL),
            trace_joins: registry.counter(names::TRACE_JOINS_TOTAL),
            ctx_bytes: registry.counter(names::SERVICE_CONTEXT_BYTES),
            queue_high_water: Arc::new(AtomicUsize::new(0)),
            registry,
            tracing,
        }
    }

    /// Records the queue depth observed at dequeue; a fresh high-water
    /// mark becomes a flight-recorder event.
    fn note_queue_depth(&self, depth: usize) {
        self.queue_depth.set(depth as f64);
        if depth > 0 && depth > self.queue_high_water.fetch_max(depth, Ordering::Relaxed) {
            self.registry.flight_event(
                flight_event::QUEUE_HIGH_WATER,
                None,
                format!("dispatch queue depth reached {depth}"),
            );
        }
    }
}

/// A decoded request on its way to [`run_job`]: through the dispatcher
/// queue, or straight from the delivery thread.
struct Job {
    conn: Arc<ConnState>,
    request: InboundRequest,
    /// Wall clock captured at decode when the request carried a trace
    /// context — the server half's `recv_at_ns`. `None` for untraced
    /// requests (no clock read on that path).
    recv_at_ns: Option<u64>,
    /// When the delivery thread accepted this request — a dispatcher
    /// measures queue wait from it, a traced reply its send stamp.
    enqueued: Instant,
    /// Keeps the server's drain accounting exact: dropped on completion
    /// *or* when the job dies unexecuted in a closing queue.
    _guard: JobGuard,
}

/// What every connection of one server feeds: cloned from the acceptor
/// into each connection's sink.
#[derive(Clone)]
struct Intake {
    adapter: Arc<ObjectAdapter>,
    jobs: Sender<Job>,
    /// Where a delivery thread that must not wait puts what `jobs` has no
    /// room for.
    overflow: Sender<Job>,
    /// Here as well as in the pool, so a job run inline keeps its
    /// `QueueWait` mark and its trace join.
    metrics: Option<ServerMetrics>,
    /// While set, sinks refuse new requests; see `OrbServer::draining`.
    draining: Arc<AtomicBool>,
    tracker: Arc<JobTracker>,
}

/// The per-connection [`FrameSink`]: decodes frames on the transport's
/// delivery thread and feeds the shared dispatcher queue.
///
/// Holds the connection state behind an `Option` cleared on close, so the
/// `channel → inbox → sink → ConnState → channel` loop is broken the
/// moment the connection ends.
struct ConnSink {
    conn: OrderedMutex<Option<Arc<ConnState>>>,
    intake: Intake,
}

impl Intake {
    /// Hands `job` to the dispatcher pool from the thread that delivers
    /// `channel`'s frames; `false` when the pool is gone (the server is
    /// closing).
    fn enqueue(&self, job: Job, channel: &dyn ComChannel) -> bool {
        if channel.delivery_may_wait() {
            // Blocks while the queue is full: backpressure.
            return self.jobs.send(job).is_ok();
        }
        match self.jobs.try_send(job) {
            Ok(()) => true,
            Err(TrySendError::Full(job)) => self.overflow.send(job).is_ok(),
            Err(TrySendError::Disconnected(_)) => false,
        }
    }
}

impl ConnSink {
    fn frame(&self, frame: &Bytes, own: bool) {
        let Some(conn) = self.conn.lock().clone() else {
            return;
        };
        if !process_frame(&conn, &self.intake, frame, own) {
            self.conn.lock().take();
            conn.channel.close();
        }
    }
}

impl FrameSink for ConnSink {
    fn on_frame(&self, frame: Bytes) {
        self.frame(&frame, true);
    }

    fn on_queued_frame(&self, frame: Bytes) {
        self.frame(&frame, false);
    }

    fn on_close(&self) {
        if let Some(conn) = self.conn.lock().take() {
            conn.channel.close();
        }
    }
}

/// The dispatcher pool: the two ways into it ([`Intake::enqueue`]) and its
/// threads.
struct Pool {
    jobs: Sender<Job>,
    overflow: Sender<Job>,
    threads: Vec<JoinHandle<()>>,
}

fn start_dispatchers(
    adapter: &Arc<ObjectAdapter>,
    config: &OrbConfig,
    metrics: Option<&ServerMetrics>,
) -> Result<Pool, OrbError> {
    let (tx, rx) = bounded::<Job>(DISPATCH_QUEUE_DEPTH);
    // lint: allow(A005, §7.4: only a delivery thread that must not wait — Da CaPo's receive thread — puts here what the bounded queue has no room for; every dispatcher empties it after each job, and the peer's sends are paced by the Da CaPo stack below, as they were when this backlog stood in the connection's receive queue)
    let (overflow_tx, overflow_rx) = unbounded::<Job>();
    let mut threads = Vec::new();
    for i in 0..config.dispatcher_threads.max(1) {
        let (rx, overflow_rx) = (rx.clone(), overflow_rx.clone());
        let adapter = adapter.clone();
        let metrics = metrics.cloned();
        let handle = std::thread::Builder::new()
            .name(format!("cool-dispatch-{i}"))
            // Blocking recv; ends when every sender (server handle,
            // acceptor, connection sinks) is gone.
            .spawn(move || {
                let run = |job: Job| {
                    let waited = job.enqueued.elapsed();
                    if let Some(m) = &metrics {
                        // Sampled at dequeue: what is still waiting
                        // behind the job this thread just took.
                        m.note_queue_depth(rx.len() + overflow_rx.len());
                        m.busy.inc();
                    }
                    run_job(&adapter, job, waited, metrics.as_ref());
                    if let Some(m) = &metrics {
                        m.busy.dec();
                    }
                };
                while let Ok(job) = rx.recv() {
                    run(job);
                    // The overflow fills only while the queue is full, so
                    // there is always a job that ends here to find it.
                    while let Ok(job) = overflow_rx.try_recv() {
                        run(job);
                    }
                }
            })
            .map_err(|e| OrbError::Transport(format!("spawn dispatcher: {e}")))?;
        threads.push(handle);
    }
    Ok(Pool {
        jobs: tx,
        overflow: overflow_tx,
        threads,
    })
}

fn attach_connection(
    channel: Arc<dyn ComChannel>,
    intake: Intake,
    conns: &Arc<OrderedMutex<Vec<Weak<ConnState>>>>,
) {
    let conn = Arc::new(ConnState {
        channel: channel.clone(),
        cancelled: OrderedMutex::new(lock_rank::SERVER_CONN_CANCELLED, CancelSet::default()),
    });
    {
        let mut list = conns.lock();
        list.retain(|w| w.strong_count() > 0);
        list.push(Arc::downgrade(&conn));
    }
    channel.set_sink(Arc::new(ConnSink {
        conn: OrderedMutex::new(lock_rank::SERVER_SINK_CONN, Some(conn)),
        intake,
    }));
}

/// Handles one inbound frame on the delivery thread, event by event in
/// wire order; `false` ends the connection. Cheap protocol chatter is
/// answered inline, and so is a request for an object whose recent upcalls
/// were all cheap, provided this thread brought the frame itself (`own`);
/// every other request goes to the dispatcher pool ([`Intake::enqueue`]:
/// blocking when the queue is full — backpressure — if this thread may).
fn process_frame(conn: &Arc<ConnState>, intake: &Intake, frame: &Bytes, own: bool) -> bool {
    message_layer::decode_frame(frame, |event| match event {
        Event::Request(request) => {
            if intake.draining.load(Ordering::Acquire) {
                // Draining: refuse new work but keep the connection open
                // so replies for already-accepted requests still flow.
                true
            } else if conn.cancelled.lock().remove(request.request_id) {
                true // client abandoned it before we started
            } else {
                let recv_at_ns = request.trace.map(|_| cool_telemetry::now_wall_ns());
                let job = Job {
                    conn: conn.clone(),
                    request,
                    recv_at_ns,
                    enqueued: Instant::now(),
                    _guard: intake.tracker.track(),
                };
                if own && intake.adapter.runs_inline(&job.request.object_key) {
                    if let Some(m) = &intake.metrics {
                        m.inline.inc();
                    }
                    run_job(
                        &intake.adapter,
                        job,
                        Duration::ZERO,
                        intake.metrics.as_ref(),
                    );
                    true
                } else {
                    intake.enqueue(job, &*conn.channel)
                }
            }
        }
        Event::Cancel(request_id) => {
            conn.cancelled.lock().insert(request_id);
            true
        }
        // Raw-bytes probe: no ObjectKey allocation on this path.
        Event::Locate {
            request_id,
            object_key,
            reply_format,
        } => {
            let here = intake.adapter.contains(&object_key);
            message_layer::encode_locate_reply(request_id, here, reply_format)
                .is_some_and(|frame| conn.channel.send_frame(frame).is_ok())
        }
        // The peer is leaving, reported an error, or sent what only servers
        // send: the connection ends quietly.
        Event::Reply { .. } | Event::Closing | Event::Unexpected => false,
        Event::Malformed => {
            if let Some(frame) = message_layer::message_error_frame() {
                let _ = conn.channel.send_frame(frame);
            }
            false
        }
    })
}

/// Executes one request — upcall, marshal, reply — on the calling thread: a
/// dispatcher, or the delivery thread itself for a job that skipped the
/// queue (`waited` is then zero, read off no clock).
fn run_job(
    adapter: &Arc<ObjectAdapter>,
    job: Job,
    waited: Duration,
    metrics: Option<&ServerMetrics>,
) {
    let request = job.request;
    if let Some(m) = metrics {
        m.queue_wait.record_duration_us(waited);
        m.registry
            .span_mark(request.request_id, Stage::QueueWait, waited);
    }
    // Re-check cancellation: the cancel may have arrived while this request
    // sat in the dispatch queue.
    if job.conn.cancelled.lock().remove(request.request_id) {
        return;
    }
    // Join the client's distributed trace: a request-side trace context
    // names the trace id this server's stage timings belong to; they ride
    // back in the reply's trace context (DESIGN.md §6).
    let trace_in = match (metrics, request.trace, job.recv_at_ns) {
        (Some(m), Some(ctx), Some(recv_at_ns)) if m.tracing => {
            m.trace_joins.inc();
            m.ctx_bytes.add(RequestTraceContext::WIRE_LEN as u64);
            Some((ctx.trace_id, recv_at_ns))
        }
        _ => None,
    };
    let spec = QoSSpec::from_params(&request.qos_params);
    // Dispatch by the request's raw key bytes — the demux map lookup
    // borrows them, so no per-request ObjectKey clone.
    let (outcome, timings) = adapter.dispatch_traced_timed(
        &request.object_key,
        &request.operation,
        &request.args,
        &spec,
        request.one_way,
        Some(request.request_id),
    );
    if request.one_way {
        return;
    }
    let trace_out = trace_in.map(|(trace_id, recv_at_ns)| {
        if let Some(m) = metrics {
            m.ctx_bytes.add(ReplyTraceContext::WIRE_LEN as u64);
        }
        ReplyTraceContext {
            trace_id,
            recv_at_ns,
            // Derived from the receive stamp plus the monotonic time since
            // enqueue (taken in the same breath as `recv_at_ns`): one wall
            // read per request, and the recv/sent pair cannot be reordered
            // by a clock step.
            sent_at_ns: recv_at_ns
                .saturating_add(cool_telemetry::duration_as_u64_ns(job.enqueued.elapsed())),
            queue_wait_us: duration_as_u32_us(waited),
            negotiate_us: timings.negotiate_us,
            execute_us: timings.execute_us,
        }
    });
    let reply = message_layer::encode_reply(
        request.request_id,
        outcome,
        trace_out.as_ref(),
        request.reply_format,
    );
    match reply {
        Ok(frame) => {
            let _ = job.conn.channel.send_frame(frame);
        }
        Err(_) => job.conn.channel.close(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_tracker_waits_for_inflight_work() {
        let tracker = JobTracker::new();
        assert!(tracker.wait_idle(Duration::ZERO), "idle at rest");

        let guard = tracker.track();
        assert!(
            !tracker.wait_idle(Duration::from_millis(10)),
            "one job in flight"
        );

        // `Duration::MAX` is a drain without a deadline, not an overflow.
        let t = tracker.clone();
        let waiter = std::thread::spawn(move || t.wait_idle(Duration::MAX));
        drop(guard);
        assert!(waiter.join().expect("waiter"), "drain completes on dec");
    }

    #[test]
    fn job_tracker_wakes_a_drain_only_on_the_edge_to_zero() {
        let tracker = JobTracker::new();
        let pooled = tracker.track();
        // The last job out is one a delivery thread ran itself: its guard
        // drops there, not on a dispatcher, and must still end the drain.
        let inline = tracker.track();
        let t = tracker.clone();
        let waiter = std::thread::spawn(move || t.wait_idle(Duration::from_secs(5)));
        drop(pooled);
        assert!(
            !tracker.wait_idle(Duration::from_millis(10)),
            "one of two jobs done is not idle"
        );
        std::thread::spawn(move || drop(inline))
            .join()
            .expect("delivery thread");
        assert!(
            waiter.join().expect("waiter"),
            "the last guard ends the drain"
        );
        assert!(tracker.wait_idle(Duration::ZERO));
    }

    #[test]
    fn cancel_set_is_bounded_with_oldest_evicted() {
        let mut set = CancelSet::default();
        let sprayed = 4 * CANCEL_HISTORY as u32;
        for id in 0..sprayed {
            set.insert(id);
        }
        assert!(set.order.len() <= CANCEL_HISTORY);
        assert!(set.ids.len() <= CANCEL_HISTORY);
        assert!(!set.remove(0), "oldest ids were evicted");
        assert!(set.remove(sprayed - 1), "newest ids survive");
    }
}
