//! Client-side bindings: a connection to a server endpoint plus the
//! request/reply machinery for every invocation mode.
//!
//! A binding owns one [`ComChannel`] and registers a reply demultiplexer
//! as the channel's [`FrameSink`]: the thread that delivers an inbound
//! frame pushes it straight into the demux, which matches Replies to
//! outstanding requests by id and completes the waiter *on arrival*. There
//! is no demux thread and no poll interval. A waiting caller first offers
//! to read the channel itself ([`ComChannel::read_turn`]): over TCP, when
//! no other thread is reading, it delivers whatever arrives — its own
//! reply included — on its own thread (leader/followers). Otherwise, and
//! over Chorus and Da CaPo, it blocks on a rendezvous channel with a true
//! deadline and wakes the moment its reply lands; a TCP binding then owes
//! the reply to the channel's reader thread ([`ReadDemand`]), as it does
//! every deferred or `notify` reply nobody waits for yet. Telemetry and
//! tracing policy come from [`crate::config::OrbConfig`], threaded in via
//! [`Binding::with_config`].
//!
//! On top of this the five invocation styles of the paper's
//! `_DacapoComChannel` (Section 5.2) are provided:
//!
//! * [`Binding::call`] — two-way synchronous invocation;
//! * [`Binding::send`] — one-way, no reply expected;
//! * [`Binding::defer`] — deferred synchronous: returns a
//!   [`DeferredReply`] the caller polls or waits on later;
//! * [`Binding::notify`] — asynchronous: a callback runs on the
//!   transport's delivery thread when the reply arrives — over TCP that
//!   may be another caller of the binding, reading inside its own wait
//!   (it must not make a blocking invocation over the same binding — the
//!   delivering thread is the one that would complete it);
//! * [`DeferredReply::cancel`] / [`Binding::cancel`] — abandon a pending
//!   request (sends GIOP `CancelRequest`).
//!
//! All four are one sequence, written once in `Binding::issue`: they
//! differ only in whether a reply is expected and in the slot that
//! receives it. Which message protocol the binding speaks is the business
//! of [`crate::message_layer`]; nothing here can tell.

use crate::config::OrbConfig;
use crate::error::OrbError;
use crate::message_layer::{self, Event, WireProtocol};
use crate::transport::{deadline_after, ComChannel, FrameSink, Owed, ReadDemand};
use bytes::Bytes;
use cool_giop::prelude::{ByteOrder, QoSParameter, RequestTraceContext};
use cool_telemetry::flight::event as flight_event;
use cool_telemetry::{
    names, ClientTrace, Counter, Histogram, Registry, ServerTraceTiming, SpanOutcome, Stage,
};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use multe_qos::TransportRequirements;
use cool_telemetry::lockorder::OrderedMutex;
use cool_telemetry::lockorder::rank as lock_rank;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

pub use crate::message_layer::ReplyResult;

/// Requests go out big-endian; a server answers in the order it was asked.
const ORDER: ByteOrder = ByteOrder::Big;

enum Slot {
    Sync(Sender<ReplyResult>),
    Callback(Box<dyn FnOnce(ReplyResult) + Send>),
}

/// Who collects a request's reply.
enum Collect {
    /// One-way: nothing comes back.
    Nothing,
    /// The issuing thread, which waits for it (and may read it) at once.
    Caller(Slot),
    /// Somebody later — a [`DeferredReply`] nobody waits on yet, or a
    /// callback — so the reply is owed to the channel's reader thread from
    /// the start.
    Later(Slot),
}

/// The rendezvous a synchronous or deferred caller blocks on: the demux
/// sends exactly one reply into it.
fn sync_slot() -> (Slot, Receiver<ReplyResult>) {
    let (tx, rx) = bounded(1);
    (Slot::Sync(tx), rx)
}

/// A request awaiting its reply.
struct Entry {
    slot: Slot,
    /// Held while the reply is owed to a channel's reader thread; dropped
    /// with the entry, however the request ends.
    owed: Option<Owed>,
}

/// The outstanding requests of a binding, shared with its reply
/// demultiplexer and every [`DeferredReply`] — never holding the channel,
/// so the `channel → inbox → sink` chain contains no reference cycle.
struct Pending {
    slots: OrderedMutex<HashMap<u32, Entry>>,
    telemetry: Option<ClientMetrics>,
}

impl Pending {
    fn take(&self, request_id: u32) -> Option<Slot> {
        self.slots
            .lock()
            .remove(&request_id)
            .map(|entry| entry.slot)
    }

    /// A waiter that found someone else reading owes its reply to the
    /// reader thread (unless the reply is in already).
    fn owe(&self, request_id: u32, demand: &Arc<ReadDemand>) {
        if let Some(entry) = self.slots.lock().get_mut(&request_id) {
            entry.owed.get_or_insert_with(|| demand.raise());
        }
    }

    /// A thread waits for `request_id` now: the reply is owed to it.
    fn claim(&self, request_id: u32) {
        if let Some(entry) = self.slots.lock().get_mut(&request_id) {
            entry.owed = None;
        }
    }

    /// Hands `result` to a slot taken out of the table. A blocked caller
    /// closes its own span once it wakes; behind a callback nobody waits,
    /// so the span closes here (and the invocation counters tick) before
    /// the user code runs — still on the transport's delivery thread.
    fn complete(&self, request_id: u32, slot: Slot, result: ReplyResult) {
        match slot {
            Slot::Sync(tx) => {
                let _ = tx.send(result);
            }
            Slot::Callback(f) => {
                if let Some(t) = &self.telemetry {
                    t.finish_invocation(request_id, &result);
                }
                f(result)
            }
        }
    }

    /// Fails every outstanding request with [`OrbError::Closed`]. Drains
    /// first, so each slot completes once however many teardowns race here.
    fn fail_all(&self) {
        let entries: Vec<(u32, Entry)> = self.slots.lock().drain().collect();
        for (request_id, entry) in entries {
            self.complete(request_id, entry.slot, Err(OrbError::Closed));
        }
    }

    /// The one blocking wait, behind [`Binding::call`] and
    /// [`DeferredReply::wait`]. While nobody else reads `conn`'s channel
    /// the caller reads it itself, delivering whatever arrives, until its
    /// own reply is in ([`ComChannel::read_turn`]); otherwise it owes the
    /// reply to the reader and parks on its slot, which the delivering
    /// thread completes. A timeout is attributed to the request, with the
    /// time waited since `since`.
    fn wait_timeout(
        &self,
        rx: &Receiver<ReplyResult>,
        request_id: u32,
        since: Instant,
        timeout: Duration,
        conn: &ConnHandle,
    ) -> ReplyResult {
        let deadline = deadline_after(timeout);
        let received = loop {
            if !conn.channel.read_turn(deadline, &|| !rx.is_empty()) {
                if let Some(demand) = &conn.demand {
                    self.owe(request_id, demand);
                }
                break rx.recv_deadline(deadline);
            }
            match rx.try_recv() {
                Ok(result) => break Ok(result),
                Err(TryRecvError::Disconnected) => break Err(RecvTimeoutError::Disconnected),
                Err(TryRecvError::Empty) if Instant::now() >= deadline => {
                    break Err(RecvTimeoutError::Timeout)
                }
                Err(TryRecvError::Empty) => {}
            }
        };
        let result = match received {
            Ok(result) => result,
            Err(RecvTimeoutError::Timeout) => {
                self.take(request_id);
                Err(OrbError::request_timeout(request_id, since.elapsed()))
            }
            Err(RecvTimeoutError::Disconnected) => Err(OrbError::Closed),
        };
        if let Some(t) = &self.telemetry {
            t.finish_invocation(request_id, &result);
        }
        result
    }
}

/// Pre-resolved client-side metric handles (one lookup per binding, then
/// relaxed atomics on the hot path).
struct ClientMetrics {
    registry: Arc<Registry>,
    invocations: Arc<Counter>,
    latency: Arc<Histogram>,
    timeouts: Arc<Counter>,
    reconnects: Arc<Counter>,
    ctx_bytes: Arc<Counter>,
}

impl ClientMetrics {
    fn resolve(registry: Arc<Registry>, transport: &str) -> Self {
        let labels: &[(&str, &str)] = &[("transport", transport)];
        ClientMetrics {
            invocations: registry.counter(&Registry::labeled("orb_invocations_total", labels)),
            latency: registry.histogram(&Registry::labeled("orb_invocation_latency_us", labels)),
            timeouts: registry.counter("orb_timeouts_total"),
            reconnects: registry.counter(names::RECONNECTS_TOTAL),
            ctx_bytes: registry.counter(names::SERVICE_CONTEXT_BYTES),
            registry,
        }
    }

    /// Stamps the client half of a distributed trace — a fresh trace id
    /// plus the send timestamp — as the context the request carries, so the
    /// server can join its half (DESIGN.md §6), and as the record the span
    /// keeps until the reply's half arrives.
    fn open_trace(&self, started: Instant) -> (RequestTraceContext, ClientTrace) {
        let trace_id = cool_telemetry::next_trace_id();
        let sent_mono = Instant::now();
        let sent_at_ns = cool_telemetry::now_wall_ns();
        let ctx = RequestTraceContext {
            trace_id,
            sent_at_ns,
            marshal_us: cool_telemetry::duration_as_u32_us(
                sent_mono.saturating_duration_since(started),
            ),
        };
        self.ctx_bytes.add(RequestTraceContext::WIRE_LEN as u64);
        let client = ClientTrace {
            trace_id,
            sent_at_ns,
            sent_mono,
        };
        (ctx, client)
    }

    /// Closes the span for a completed invocation (merging the distributed
    /// trace when one is pending) and feeds the invocation counter +
    /// end-to-end latency histogram.
    fn finish_invocation(&self, request_id: u32, result: &ReplyResult) {
        let total_us = self
            .registry
            .span_finish_traced(request_id, outcome_of(result));
        self.invocations.inc();
        if matches!(result, Err(OrbError::Timeout { .. })) {
            self.timeouts.inc();
        }
        if result.is_ok() {
            if let Some(total_us) = total_us {
                self.latency.record(total_us);
            }
        }
    }

    /// Closes the span (and any pending trace) for an invocation that
    /// never completed normally — encode or send failure, cancellation.
    fn abort_invocation(&self, request_id: u32, outcome: SpanOutcome) {
        self.registry.span_finish_traced(request_id, outcome);
    }
}

fn outcome_of(result: &ReplyResult) -> SpanOutcome {
    match result {
        Ok(_) => SpanOutcome::Ok,
        Err(OrbError::Cancelled) => SpanOutcome::Cancelled,
        Err(OrbError::Timeout { .. }) => SpanOutcome::Timeout,
        Err(_) => SpanOutcome::Error,
    }
}

/// How a binding re-establishes its transport after the connection dies:
/// a dial closure installed by the ORB (it re-resolves the address and
/// re-wraps the channel exactly as the original dial did).
pub type Reconnector = Arc<dyn Fn() -> Result<Arc<dyn ComChannel>, OrbError> + Send + Sync>;

/// One incarnation of the binding's transport. The closed flag is *per
/// connection* so a stale `on_close` from a replaced channel can never
/// mark its successor dead.
#[derive(Clone)]
struct ConnHandle {
    channel: Arc<dyn ComChannel>,
    closed: Arc<AtomicBool>,
    /// The channel reader thread's demand, when it reads on demand (TCP).
    demand: Option<Arc<ReadDemand>>,
}

/// A client connection to one server endpoint.
pub struct Binding {
    /// Serialises reconnection; held across the whole re-establishment so
    /// concurrent callers observe either the old (closed) or the fully
    /// wired new connection, never a half-built one.
    reconnect_gate: OrderedMutex<()>,
    conn: OrderedMutex<ConnHandle>,
    /// Transport QoS the application last pushed down (via
    /// [`Binding::set_transport_qos`]); replayed onto the new channel after
    /// a reconnect so the renegotiated binding keeps its operating point.
    last_qos: OrderedMutex<Option<TransportRequirements>>,
    protocol: WireProtocol,
    next_id: AtomicU32,
    pending: Arc<Pending>,
    /// Permanent shutdown: once set, [`Binding::reconnect`] refuses to
    /// resurrect the binding.
    retired: AtomicBool,
    reconnector: OnceLock<Reconnector>,
    /// Whether requests carry a trace context: telemetry is on,
    /// [`OrbConfig::tracing`] has not switched it off, and the protocol
    /// has room for one. Otherwise the wire bytes are those of an
    /// untraced build.
    tracing: bool,
}

impl std::fmt::Debug for Binding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Binding")
            .field("transport", &self.conn.lock().channel.kind())
            .field("protocol", &self.protocol)
            .field("pending", &self.pending.slots.lock().len())
            .finish()
    }
}

/// The reply demultiplexer, installed as the channel's [`FrameSink`].
/// Runs on the transport's delivery thread.
struct DemuxSink {
    pending: Arc<Pending>,
    closed: Arc<AtomicBool>,
}

impl FrameSink for DemuxSink {
    fn on_frame(&self, frame: Bytes) {
        let decode_start = Instant::now();
        message_layer::decode_frame(&frame, |event| match event {
            Event::Reply {
                request_id,
                trace,
                reply,
            } => {
                // A reply nobody waits for any more (cancelled, timed out)
                // is dropped here, uninterpreted.
                let Some(slot) = self.pending.take(request_id) else {
                    return true;
                };
                let result = reply.interpret();
                if let Some(t) = &self.pending.telemetry {
                    // The `ReplyDecode` mark covers the decode + interpret
                    // work; the span itself is owned by the caller that
                    // opened it. A traced server echoes its half of the
                    // span with the reply; stash it on the active span
                    // (same lock as the mark) so the span finish merges
                    // both halves into one TraceRecord. The reply's arrival
                    // instant stands in for the client receive stamp,
                    // derived against the span's send stamp under that same
                    // lock.
                    let server_half = trace.map(|ctx| {
                        let timing = ServerTraceTiming {
                            recv_at_ns: ctx.recv_at_ns,
                            sent_at_ns: ctx.sent_at_ns,
                            queue_wait_us: ctx.queue_wait_us,
                            negotiate_us: ctx.negotiate_us,
                            execute_us: ctx.execute_us,
                        };
                        (timing, decode_start)
                    });
                    t.registry.span_mark_reply(
                        request_id,
                        Stage::ReplyDecode,
                        decode_start.elapsed(),
                        server_half,
                    );
                }
                self.pending.complete(request_id, slot, result);
                true
            }
            Event::Closing => {
                self.on_close();
                true
            }
            // What only clients send, and what nobody can read: ignored.
            _ => true,
        });
    }

    fn on_close(&self) {
        self.closed.store(true, Ordering::Release);
        self.pending.fail_all();
    }
}

impl Binding {
    /// Wraps a connected channel with the default configuration.
    pub fn new(channel: Arc<dyn ComChannel>, protocol: WireProtocol) -> Arc<Self> {
        Binding::with_config(channel, protocol, &OrbConfig::default())
    }

    /// Wraps a connected channel and registers the reply demultiplexer as
    /// its frame sink. Telemetry and tracing come from `config`.
    pub fn with_config(
        channel: Arc<dyn ComChannel>,
        protocol: WireProtocol,
        config: &OrbConfig,
    ) -> Arc<Self> {
        let telemetry = config
            .telemetry
            .as_ref()
            .map(|r| ClientMetrics::resolve(Arc::clone(r), channel.kind()));
        let tracing = telemetry.is_some() && config.tracing && protocol.carries_trace();
        let pending = Arc::new(Pending {
            slots: OrderedMutex::new(lock_rank::BINDING_PENDING, HashMap::new()),
            telemetry,
        });
        let conn = attach(channel, &pending);
        Arc::new(Binding {
            reconnect_gate: OrderedMutex::new(lock_rank::BINDING_RECONNECT, ()),
            conn: OrderedMutex::new(lock_rank::BINDING_CONN, conn),
            last_qos: OrderedMutex::new(lock_rank::BINDING_LAST_QOS, None),
            protocol,
            next_id: AtomicU32::new(1),
            pending,
            retired: AtomicBool::new(false),
            reconnector: OnceLock::new(),
            tracing,
        })
    }

    /// Installs the dial closure used by [`Binding::reconnect`]. Set once
    /// by the ORB right after construction; later calls are ignored.
    pub fn set_reconnector(&self, reconnector: Reconnector) {
        let _ = self.reconnector.set(reconnector);
    }

    fn current(&self) -> ConnHandle {
        self.conn.lock().clone()
    }

    /// Whether the binding has been closed (permanently retired, or its
    /// current connection died and no reconnect has succeeded yet).
    ///
    /// An idle TCP connection has nobody reading it, so what the peer said
    /// last — a CloseConnection, the end of the stream — is taken in here
    /// first, without blocking.
    pub fn is_closed(&self) -> bool {
        if self.retired.load(Ordering::Acquire) {
            return true;
        }
        let conn = self.current();
        conn.channel.read_turn(Instant::now(), &|| false);
        conn.closed.load(Ordering::Acquire)
    }

    /// Pushes transport QoS requirements down the current channel and
    /// remembers them for replay after a reconnect.
    ///
    /// # Errors
    ///
    /// Whatever the transport's `set_qos` raises.
    pub fn set_transport_qos(&self, requirements: &TransportRequirements) -> Result<(), OrbError> {
        let conn = self.current();
        *self.last_qos.lock() = Some(*requirements);
        conn.channel.set_qos(requirements)
    }

    /// Re-establishes the transport after the connection died: fails all
    /// pending requests with an attributed [`OrbError::Closed`], dials a
    /// fresh channel via the installed [`Reconnector`], replays the last
    /// transport QoS, and swaps the connection in.
    ///
    /// Idempotent under concurrency — callers racing on a dead connection
    /// serialise on the reconnect gate, and whoever arrives after a
    /// successful reconnect returns immediately.
    ///
    /// # Errors
    ///
    /// [`OrbError::Closed`] if the binding was retired or no reconnector
    /// is installed; otherwise the dial or QoS-replay failure.
    pub fn reconnect(&self) -> Result<(), OrbError> {
        if self.retired.load(Ordering::Acquire) {
            return Err(OrbError::Closed);
        }
        let _gate = self.reconnect_gate.lock();
        if !self.current().closed.load(Ordering::Acquire) {
            return Ok(()); // someone else already reconnected
        }
        let reconnector = self.reconnector.get().ok_or(OrbError::Closed)?.clone();
        // Pending requests belonged to the dead connection; fail them now,
        // attributed, instead of letting them run out their deadlines.
        self.pending.fail_all();
        let conn = attach(reconnector()?, &self.pending);
        if let Some(requirements) = *self.last_qos.lock() {
            conn.channel.set_qos(&requirements)?;
        }
        *self.conn.lock() = conn;
        if let Some(t) = &self.pending.telemetry {
            t.reconnects.inc();
            t.registry.flight_event(
                flight_event::RECONNECT,
                None,
                format!("channel {} redialed", self.current().channel.kind()),
            );
        }
        Ok(())
    }

    /// The one issue path behind every invocation mode: closed check →
    /// request id → span begin → encode → register the slot → send,
    /// unwinding registration and span if the request never reaches the
    /// wire. Hands back the request's id, when the invocation began (the
    /// origin of its span and its timeout) and the connection the request
    /// went out on.
    fn issue(
        &self,
        object_key: &[u8],
        operation: &str,
        args: Bytes,
        qos_params: &[QoSParameter],
        collect: Collect,
    ) -> Result<(u32, Instant, ConnHandle), OrbError> {
        let response_expected = !matches!(collect, Collect::Nothing);
        let conn = self.current();
        if self.retired.load(Ordering::Acquire) || conn.closed.load(Ordering::Acquire) {
            return Err(OrbError::Closed);
        }
        let started = Instant::now();
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let telemetry = self.pending.telemetry.as_ref();
        if let Some(t) = telemetry {
            t.registry
                .span_begin(request_id, operation, conn.channel.kind());
        }
        // The context rides in the request; the client half is attached to
        // the span while marking `Marshal` — one lock for both.
        let (ctx, client_trace) = telemetry
            .filter(|_| self.tracing)
            .map(|t| t.open_trace(started))
            .unzip();
        let sent = message_layer::encode_request(
            self.protocol,
            request_id,
            object_key,
            operation,
            args,
            qos_params,
            response_expected,
            ctx.as_ref(),
            ORDER,
        )
        .and_then(|frame| {
            if let Some(t) = telemetry {
                t.registry.span_mark_attach(
                    request_id,
                    Stage::Marshal,
                    started.elapsed(),
                    client_trace,
                );
            }
            let entry = match collect {
                Collect::Nothing => None,
                Collect::Caller(slot) => Some(Entry { slot, owed: None }),
                Collect::Later(slot) => Some(Entry {
                    slot,
                    owed: conn.demand.as_ref().map(|demand| demand.raise()),
                }),
            };
            if let Some(entry) = entry {
                self.pending.slots.lock().insert(request_id, entry);
            }
            let send_start = Instant::now();
            conn.channel.send_frame(frame)?;
            if let Some(t) = telemetry {
                t.registry
                    .span_mark(request_id, Stage::FrameSend, send_start.elapsed());
            }
            Ok(())
        });
        if sent.is_err() {
            self.pending.take(request_id);
        }
        if let Some(t) = telemetry {
            match &sent {
                // One-way: the span ends once the request is on the wire
                // (this also retires the trace entry the request opened —
                // there is no reply to merge).
                Ok(()) if !response_expected => {
                    t.registry.span_finish_traced(request_id, SpanOutcome::Ok);
                    t.invocations.inc();
                }
                Ok(()) => {}
                Err(_) => t.abort_invocation(request_id, SpanOutcome::Error),
            }
        }
        sent.map(|()| (request_id, started, conn))
    }

    /// Two-way synchronous invocation.
    ///
    /// # Errors
    ///
    /// [`OrbError::Timeout`] if no reply arrives in `timeout`; any
    /// exception the server raised; [`OrbError::Closed`] on teardown.
    pub fn call(
        &self,
        object_key: &[u8],
        operation: &str,
        args: Bytes,
        qos_params: &[QoSParameter],
        timeout: Duration,
    ) -> ReplyResult {
        let (slot, rx) = sync_slot();
        let collect = Collect::Caller(slot);
        let (request_id, started, conn) =
            self.issue(object_key, operation, args, qos_params, collect)?;
        self.pending
            .wait_timeout(&rx, request_id, started, timeout, &conn)
    }

    /// One-way invocation: returns as soon as the request is on the wire.
    ///
    /// # Errors
    ///
    /// [`OrbError::Closed`] or transport failures; server-side errors are
    /// invisible by design.
    pub fn send(
        &self,
        object_key: &[u8],
        operation: &str,
        args: Bytes,
        qos_params: &[QoSParameter],
    ) -> Result<(), OrbError> {
        self.issue(object_key, operation, args, qos_params, Collect::Nothing)
            .map(|_| ())
    }

    /// Deferred synchronous invocation: the reply is collected later via
    /// the returned [`DeferredReply`].
    ///
    /// # Errors
    ///
    /// [`OrbError::Closed`] or transport failures at send time.
    pub fn defer(
        &self,
        object_key: &[u8],
        operation: &str,
        args: Bytes,
        qos_params: &[QoSParameter],
    ) -> Result<DeferredReply, OrbError> {
        let (slot, rx) = sync_slot();
        let (request_id, _, conn) = self.issue(
            object_key,
            operation,
            args,
            qos_params,
            Collect::Later(slot),
        )?;
        Ok(DeferredReply {
            request_id,
            rx,
            pending: self.pending.clone(),
            conn,
            done: false,
            ready: None,
        })
    }

    /// Asynchronous invocation: `callback` runs when the reply or an error
    /// arrives, on the thread that delivers it — the transport's delivery
    /// thread, or over TCP a caller of the same binding reading replies
    /// inside its own wait.
    ///
    /// # Errors
    ///
    /// [`OrbError::Closed`] or transport failures at send time.
    pub fn notify(
        &self,
        object_key: &[u8],
        operation: &str,
        args: Bytes,
        qos_params: &[QoSParameter],
        callback: impl FnOnce(ReplyResult) + Send + 'static,
    ) -> Result<u32, OrbError> {
        let collect = Collect::Later(Slot::Callback(Box::new(callback)));
        self.issue(object_key, operation, args, qos_params, collect)
            .map(|(request_id, ..)| request_id)
    }

    /// Cancels a pending request: notifies the server (GIOP
    /// `CancelRequest`) and completes the local waiter with
    /// [`OrbError::Cancelled`].
    ///
    /// Returns whether the request was still pending.
    pub fn cancel(&self, request_id: u32) -> bool {
        let Some(slot) = self.pending.take(request_id) else {
            return false;
        };
        self.pending
            .complete(request_id, slot, Err(OrbError::Cancelled));
        send_cancel(&*self.current().channel, request_id);
        true
    }

    /// Closes the binding permanently; all pending requests complete with
    /// [`OrbError::Closed`] and [`Binding::reconnect`] refuses to revive
    /// it.
    pub fn close(&self) {
        self.retired.store(true, Ordering::Release);
        let conn = self.current();
        conn.closed.store(true, Ordering::Release);
        // Closing the channel fires the sink's `on_close`, which also
        // fails the pending map; doing it here too covers transports whose
        // teardown is asynchronous. `fail_all` drains, so slots complete
        // exactly once.
        conn.channel.close();
        self.pending.fail_all();
    }
}

impl Drop for Binding {
    fn drop(&mut self) {
        self.close();
    }
}

/// Wires a (possibly fresh) channel to the binding's demultiplexer with
/// its own per-connection closed flag, and takes over its reader's demand.
fn attach(channel: Arc<dyn ComChannel>, pending: &Arc<Pending>) -> ConnHandle {
    let closed = Arc::new(AtomicBool::new(false));
    channel.set_sink(Arc::new(DemuxSink {
        pending: pending.clone(),
        closed: closed.clone(),
    }));
    let demand = channel.hand_over_demand();
    ConnHandle {
        channel,
        closed,
        demand,
    }
}

/// Tells the server a request was abandoned. Best effort: the local
/// waiter is already released.
fn send_cancel(channel: &dyn ComChannel, request_id: u32) {
    if let Some(frame) = message_layer::cancel_frame(request_id) {
        let _ = channel.send_frame(frame);
    }
}

/// Handle to a deferred-synchronous invocation.
pub struct DeferredReply {
    request_id: u32,
    rx: Receiver<ReplyResult>,
    pending: Arc<Pending>,
    conn: ConnHandle,
    done: bool,
    /// A reply observed by `poll` is stashed here so a later `wait` (or
    /// another `poll`) still returns it — with event-driven delivery a
    /// reply can land microseconds after the request is sent, making
    /// poll-then-wait a common interleaving rather than a rare race.
    ready: Option<ReplyResult>,
}

impl std::fmt::Debug for DeferredReply {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeferredReply")
            .field("request_id", &self.request_id)
            .field("done", &self.done)
            .finish()
    }
}

impl DeferredReply {
    /// The id of the pending request.
    pub fn request_id(&self) -> u32 {
        self.request_id
    }

    /// Returns the reply if it has arrived (non-blocking). The reply is
    /// retained: a subsequent `poll` or [`DeferredReply::wait`] returns it
    /// again, so discarding one poll's result loses nothing.
    pub fn poll(&mut self) -> Option<ReplyResult> {
        if self.ready.is_none() {
            if let Ok(result) = self.rx.try_recv() {
                self.done = true;
                if let Some(t) = &self.pending.telemetry {
                    t.finish_invocation(self.request_id, &result);
                }
                self.ready = Some(result);
            }
        }
        self.ready.clone()
    }

    /// Blocks for the reply.
    ///
    /// # Errors
    ///
    /// [`OrbError::Timeout`] on expiry; otherwise whatever the invocation
    /// produced.
    pub fn wait(mut self, timeout: Duration) -> ReplyResult {
        if let Some(result) = self.ready.take() {
            return result;
        }
        // Timed out, closed or answered: either way the slot is gone.
        self.done = true;
        self.pending.claim(self.request_id);
        self.pending.wait_timeout(
            &self.rx,
            self.request_id,
            Instant::now(),
            timeout,
            &self.conn,
        )
    }

    /// Cancels the pending request (sends GIOP `CancelRequest`).
    pub fn cancel(self) {
        if self.pending.take(self.request_id).is_some() {
            send_cancel(&*self.conn.channel, self.request_id);
        }
        // Dropping `self` closes the span, as for any abandoned handle.
    }
}

impl Drop for DeferredReply {
    fn drop(&mut self) {
        if !self.done {
            // Abandoned without waiting: drop the slot so the pending map
            // does not hold a dead sender forever.
            self.pending.take(self.request_id);
            if let Some(t) = &self.pending.telemetry {
                t.abort_invocation(self.request_id, SpanOutcome::Cancelled);
            }
        }
    }
}
