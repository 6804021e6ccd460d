//! Client-side bindings: a connection to a server endpoint plus the
//! request/reply machinery for every invocation mode.
//!
//! A binding owns one [`ComChannel`] and registers a reply demultiplexer
//! as the channel's [`FrameSink`]: the thread that delivers an inbound
//! frame pushes it straight into the demux, which matches Replies to
//! outstanding requests by id and completes the waiter *on arrival*. There
//! is no demux thread and no poll interval. The table of outstanding
//! requests is the rendezvous: the demux puts a reply into its request's
//! entry, and the caller takes it out. Over Chorus the reply is in before
//! the caller looks. Otherwise — over TCP and over Da CaPo — a waiting
//! caller first asks for the channel's receive turn
//! ([`ComChannel::read_turn`]; who gets it is [`dacapo::pool::step`]'s to
//! say) and delivers whatever arrives, its own reply included. Refused, it
//! parks in its entry with a true deadline, owing the reply to the
//! channel's loop ([`ReadDemand`]) as every deferred or `notify` reply
//! nobody waits for yet is owed. Telemetry and
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
//!   transport's delivery thread when the reply arrives — over TCP and Da
//!   CaPo that may be another caller of the binding, reading inside its
//!   own wait
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
use cool_telemetry::blocking;
use cool_telemetry::lockorder::{rank, Locked, OrderedMutex, Unlocked};
use cool_telemetry::{
    names, ClientTrace, Counter, Histogram, Registry, ServerTraceTiming, SpanOutcome, Stage,
};
use multe_qos::TransportRequirements;
use std::collections::{hash_map, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Weak};
use std::thread::Thread;
use std::time::{Duration, Instant};

pub use crate::message_layer::ReplyResult;

/// Requests go out big-endian; a server answers in the order it was asked.
const ORDER: ByteOrder = ByteOrder::Big;

/// Where a request's reply goes. A synchronous or deferred caller collects
/// it from the pending table itself: the entry is the rendezvous.
enum Slot {
    /// Nobody has the reply yet, and nobody sleeps on it.
    Expecting,
    /// Its collector sleeps until the reply is in: whoever fills the entry
    /// wakes this thread.
    Parked(Thread),
    /// The reply, or the error that ended the request, until collected.
    Ready(ReplyResult),
    /// Runs with the reply on the thread that delivers it.
    Callback(Box<dyn FnOnce(ReplyResult) + Send>),
}

/// Who collects a request's reply.
enum Collect {
    /// One-way: nothing comes back.
    Nothing,
    /// The issuing thread, which waits for it (and may read it) at once.
    Caller,
    /// Somebody later — a [`DeferredReply`] nobody waits on yet, or a
    /// callback — so the reply is owed to the channel's reader loop from
    /// the start.
    Later(Slot),
}

/// A request awaiting its reply.
struct Entry {
    slot: Slot,
    /// Held while the reply is owed to a channel's reader loop; dropped
    /// once the reply is in, or with the entry, however the request ends.
    owed: Option<Owed>,
}

impl Entry {
    fn into_ready(self) -> Option<ReplyResult> {
        match self.slot {
            Slot::Ready(result) => Some(result),
            _ => None,
        }
    }
}

/// Hashes a request id with one multiply (Fibonacci hashing). Only the
/// binding inserts, its own ids handed out in sequence, so no peer can
/// place keys that collide (a reply's id is only looked up), and SipHash's
/// keyed mixing buys nothing.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u32(b.into()));
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = (self.0 ^ u64::from(id)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// The pending table: request id → entry.
type Slots = HashMap<u32, Entry, BuildHasherDefault<IdHasher>>;

/// The outstanding requests of a binding, shared with its reply
/// demultiplexer and every [`DeferredReply`] — never holding the channel,
/// so the `channel → inbox → sink` chain contains no reference cycle.
struct Pending {
    slots: OrderedMutex<Slots, rank::BindingPending>,
    telemetry: Option<ClientMetrics>,
}

/// Takes the reply out of `request_id`'s entry, and the entry out of the
/// table, if the reply is in. An entry already gone reads as
/// [`OrbError::Closed`]: nothing is left to wait for.
fn take_ready(slots: &mut Slots, request_id: u32) -> Option<ReplyResult> {
    match slots.entry(request_id) {
        hash_map::Entry::Vacant(_) => Some(Err(OrbError::Closed)),
        hash_map::Entry::Occupied(entry) => match entry.get().slot {
            Slot::Ready(_) => entry.remove().into_ready(),
            _ => None,
        },
    }
}

impl Pending {
    fn take(&self, held: &mut Locked<Unlocked>, request_id: u32) -> Option<Slot> {
        self.slots
            .lock(held)
            .0
            .remove(&request_id)
            .map(|entry| entry.slot)
    }

    /// The reply, if it is in; collecting it removes the entry.
    #[inline]
    fn collect(&self, held: &mut Locked<Unlocked>, request_id: u32) -> Option<ReplyResult> {
        take_ready(&mut self.slots.lock(held).0, request_id)
    }

    /// Whether `request_id`'s reply is still to come.
    fn expecting(&self, held: &mut Locked<Unlocked>, request_id: u32) -> bool {
        matches!(
            self.slots.lock(held).0.get(&request_id),
            Some(Entry {
                slot: Slot::Expecting,
                ..
            })
        )
    }

    /// A thread waits for `request_id` now: the reply is owed to it.
    fn claim(&self, held: &mut Locked<Unlocked>, request_id: u32) {
        if let Some(entry) = self.slots.lock(held).0.get_mut(&request_id) {
            entry.owed = None;
        }
    }

    /// Hands the reply `reply` produces to whoever collects `request_id`,
    /// and returns whether the request was still waiting for one. `reply`
    /// runs under the table's lock, and only then: a reply nobody waits
    /// for any more (cancelled, timed out, already failed) is dropped
    /// uninterpreted, and one that lands at a waiter's deadline is either
    /// in before the waiter looks or found gone by it — never both lost.
    ///
    /// A caller's entry is filled in place, and its thread woken only if
    /// it parked. Behind a callback nobody waits, so the span closes here
    /// (and the invocation counters tick) before the user code runs —
    /// outside the lock, still on the transport's delivery thread.
    #[inline]
    fn complete(
        &self,
        held: &mut Locked<Unlocked>,
        request_id: u32,
        reply: impl FnOnce() -> ReplyResult,
    ) -> bool {
        let (mut slots, _) = self.slots.lock(held);
        let Some(entry) = slots.get_mut(&request_id) else {
            return false;
        };
        match entry.slot {
            Slot::Ready(_) => false,
            Slot::Expecting | Slot::Parked(_) => {
                entry.owed = None;
                let waiter = std::mem::replace(&mut entry.slot, Slot::Ready(reply()));
                drop(slots);
                if let Slot::Parked(thread) = waiter {
                    thread.unpark();
                }
                true
            }
            Slot::Callback(_) => {
                let result = reply();
                let callback = slots.remove(&request_id).map(|entry| entry.slot);
                drop(slots);
                if let Some(Slot::Callback(f)) = callback {
                    if let Some(t) = &self.telemetry {
                        t.finish_invocation(request_id, &result);
                    }
                    f(result);
                }
                true
            }
        }
    }

    /// Fails every outstanding request with [`OrbError::Closed`]. Each
    /// completes once however many teardowns race here: an entry already
    /// answered keeps its answer.
    fn fail_all(&self, held: &mut Locked<Unlocked>) {
        let request_ids: Vec<u32> = self.slots.lock(held).0.keys().copied().collect();
        for request_id in request_ids {
            self.complete(held, request_id, || Err(OrbError::Closed));
        }
    }

    /// The one blocking wait, behind [`Binding::call`] and
    /// [`DeferredReply::wait`]. A timeout is attributed to the request,
    /// with the time waited since `since`.
    fn wait_timeout(
        &self,
        held: &mut Locked<Unlocked>,
        request_id: u32,
        since: Instant,
        timeout: Duration,
        conn: &ConnHandle,
    ) -> ReplyResult {
        let result = self.rendezvous(held, request_id, since, timeout, conn);
        if let Some(t) = &self.telemetry {
            t.finish_invocation(request_id, &result);
        }
        result
    }

    /// Collects `request_id`'s reply. Over Chorus it is in before the wait
    /// begins, and no deadline is computed. Otherwise, while nobody else
    /// reads `conn`'s channel the caller reads it itself, delivering
    /// whatever arrives, until its own reply is in
    /// ([`ComChannel::read_turn`]); once somebody else reads it, the caller
    /// owes the reply to the reader and parks in its entry until the
    /// delivering thread fills it or the deadline passes. At the deadline
    /// the entry is removed under the lock the demux fills it under, so a
    /// reply that is in is returned, not lost.
    fn rendezvous(
        &self,
        held: &mut Locked<Unlocked>,
        request_id: u32,
        since: Instant,
        timeout: Duration,
        conn: &ConnHandle,
    ) -> ReplyResult {
        if let Some(result) = self.collect(held, request_id) {
            return result;
        }
        let deadline = deadline_after(timeout);
        let mut reading = true;
        loop {
            if reading {
                reading = conn
                    .channel
                    .read_turn(held, deadline, &|held| !self.expecting(held, request_id));
            }
            let (mut slots, _) = self.slots.lock(held);
            if let Some(result) = take_ready(&mut slots, request_id) {
                return result;
            }
            let now = Instant::now();
            if now >= deadline {
                slots.remove(&request_id);
                return Err(OrbError::request_timeout(request_id, since.elapsed()));
            }
            if !reading {
                if let Some(entry) = slots.get_mut(&request_id) {
                    entry.slot = Slot::Parked(std::thread::current());
                    if let Some(demand) = &conn.demand {
                        entry.owed.get_or_insert_with(|| demand.raise());
                    }
                }
                drop(slots);
                blocking::park_timeout(held, deadline - now);
            }
        }
    }
}

/// Pre-resolved client-side metric handles (one lookup per binding, then
/// relaxed atomics on the hot path).
struct ClientMetrics {
    registry: Arc<Registry>,
    invocations: Arc<Counter>,
    latency: Arc<Histogram>,
    timeouts: Arc<Counter>,
    ctx_bytes: Arc<Counter>,
}

impl ClientMetrics {
    fn resolve(registry: Arc<Registry>, transport: &str) -> Self {
        let labels: &[(&str, &str)] = &[("transport", transport)];
        ClientMetrics {
            invocations: registry.counter(&Registry::labeled("orb_invocations_total", labels)),
            latency: registry.histogram(&Registry::labeled("orb_invocation_latency_us", labels)),
            timeouts: registry.counter("orb_timeouts_total"),
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
        let total = self.registry.span_finish(request_id, outcome_of(result));
        self.invocations.inc();
        if matches!(result, Err(OrbError::Timeout { .. })) {
            self.timeouts.inc();
        }
        if result.is_ok() {
            if let Some(total) = total {
                self.latency.record_duration_us(total);
            }
        }
    }

    /// Closes the span (and any pending trace) for an invocation that
    /// never completed normally — encode or send failure, cancellation.
    fn abort_invocation(&self, request_id: u32, outcome: SpanOutcome) {
        self.registry.span_finish(request_id, outcome);
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

/// The binding's transport, fixed for the binding's life. Whether it has
/// ended is its channel's to say ([`ComChannel::is_closed`]).
#[derive(Clone)]
struct ConnHandle {
    channel: Arc<dyn ComChannel>,
    /// The channel reader loop's demand, when it reads on demand (TCP, Da
    /// CaPo).
    demand: Option<Arc<ReadDemand>>,
}

/// A client connection to one server endpoint.
pub struct Binding {
    conn: ConnHandle,
    protocol: WireProtocol,
    next_id: AtomicU32,
    pending: Arc<Pending>,
    /// Closed here ([`Binding::close`]), not lost: the ORB never replaces
    /// a retired binding.
    retired: AtomicBool,
    /// Whether requests carry a trace context: telemetry is on,
    /// [`OrbConfig::tracing`] has not switched it off, and the protocol
    /// has room for one. Otherwise the wire bytes are those of an
    /// untraced build.
    tracing: bool,
}

impl std::fmt::Debug for Binding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Binding")
            .field("transport", &self.conn.channel.kind())
            .field("protocol", &self.protocol)
            .field("pending", &self.pending.slots.lock(Locked::root()).0.len())
            .finish()
    }
}

/// The reply demultiplexer, installed as the channel's [`FrameSink`].
/// Runs on the transport's delivery thread.
struct DemuxSink {
    pending: Arc<Pending>,
    /// Closed when the server says CloseConnection. Weak: the channel owns
    /// its sink.
    channel: Weak<dyn ComChannel>,
}

impl FrameSink for DemuxSink {
    fn on_frame(&self, frame: Bytes) {
        let held = Locked::root();
        // Timed only for the `ReplyDecode` mark.
        let decode_start = self.pending.telemetry.as_ref().map(|_| Instant::now());
        message_layer::decode_frame(&frame, |event| match event {
            Event::Reply {
                request_id,
                trace,
                reply,
            } => {
                self.pending.complete(held, request_id, || {
                    let result = reply.interpret();
                    if let (Some(t), Some(decode_start)) = (&self.pending.telemetry, decode_start) {
                        // The `ReplyDecode` mark covers the decode +
                        // interpret work, and lands before the waiter can
                        // close the span it opened. A traced server echoes
                        // its half of the span with the reply; stash it on
                        // the active span (same lock as the mark) so the
                        // span finish merges both halves into one
                        // TraceRecord. The reply's arrival instant stands
                        // in for the client receive stamp, derived against
                        // the span's send stamp under that same lock.
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
                    result
                });
                true
            }
            // The channel's close reaches `on_close` once this delivery
            // run is over.
            Event::Closing => {
                if let Some(channel) = self.channel.upgrade() {
                    channel.close();
                }
                true
            }
            // What only clients send, and what nobody can read: ignored.
            _ => true,
        });
    }

    fn on_close(&self) {
        self.pending.fail_all(Locked::root());
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
            slots: OrderedMutex::new(Slots::default()),
            telemetry,
        });
        Arc::new(Binding {
            conn: attach(channel, &pending),
            protocol,
            next_id: AtomicU32::new(1),
            pending,
            retired: AtomicBool::new(false),
            tracing,
        })
    }

    /// Whether the binding is closed: by [`Binding::close`], or because its
    /// connection ended. A binding is never repaired; the ORB replaces one
    /// whose connection ended with a fresh dial.
    ///
    /// An idle TCP or Da CaPo connection has nobody reading it, so what the peer said
    /// last — a CloseConnection, the end of the stream — is taken in here
    /// first, without blocking.
    pub fn is_closed(&self) -> bool {
        self.retired.load(Ordering::Acquire) || self.is_lost(Locked::root())
    }

    /// Whether the connection ended without [`Binding::close`]: the peer
    /// closed it, or the wire failed. Such a binding is replaced, a
    /// retired one never.
    pub(crate) fn is_lost(&self, held: &mut Locked<Unlocked>) -> bool {
        if self.retired.load(Ordering::Acquire) {
            return false;
        }
        self.conn
            .channel
            .read_turn(held, Instant::now(), &|_| false);
        self.conn.channel.is_closed()
    }

    /// Pushes transport QoS requirements down the channel.
    ///
    /// # Errors
    ///
    /// Whatever the transport's `set_qos` raises.
    pub fn set_transport_qos(
        &self,
        held: &mut Locked<Unlocked>,
        requirements: &TransportRequirements,
    ) -> Result<(), OrbError> {
        self.conn.channel.set_qos(held, requirements)
    }

    /// The one issue path behind every invocation mode: closed check →
    /// request id → span begin → encode → register the slot → send,
    /// unwinding registration and span if the request never reaches the
    /// wire. Hands back the request's id. The invocation began at `started`
    /// (the origin of its `Marshal` mark and of the time its timeout
    /// reports), read by the caller: a stub's pipeline reads one instant
    /// for its retry budget and its first request.
    #[expect(
        clippy::too_many_arguments,
        reason = "the request's parts, who collects its reply, and when it began"
    )]
    #[inline]
    fn issue(
        &self,
        held: &mut Locked<Unlocked>,
        started: Instant,
        object_key: &[u8],
        operation: &str,
        args: &[u8],
        qos_params: &[QoSParameter],
        collect: Collect,
    ) -> Result<u32, OrbError> {
        let response_expected = !matches!(collect, Collect::Nothing);
        let conn = &self.conn;
        if self.retired.load(Ordering::Acquire) || conn.channel.is_closed() {
            return Err(OrbError::Closed);
        }
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
                Collect::Caller => Some(Entry {
                    slot: Slot::Expecting,
                    owed: None,
                }),
                Collect::Later(slot) => Some(Entry {
                    slot,
                    owed: conn.demand.as_ref().map(|demand| demand.raise()),
                }),
            };
            if let Some(entry) = entry {
                self.pending.slots.lock(held).0.insert(request_id, entry);
            }
            let send_start = telemetry.map(|t| (t, Instant::now()));
            conn.channel.send_frame(frame)?;
            if let Some((t, send_start)) = send_start {
                t.registry
                    .span_mark(request_id, Stage::FrameSend, send_start.elapsed());
            }
            Ok(())
        });
        if sent.is_err() {
            self.pending.take(held, request_id);
        }
        if let Some(t) = telemetry {
            match &sent {
                // One-way: the span ends once the request is on the wire
                // (this also retires the trace entry the request opened —
                // there is no reply to merge).
                Ok(()) if !response_expected => {
                    t.registry.span_finish(request_id, SpanOutcome::Ok);
                    t.invocations.inc();
                }
                Ok(()) => {}
                Err(_) => t.abort_invocation(request_id, SpanOutcome::Error),
            }
        }
        sent.map(|()| request_id)
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
        args: impl AsRef<[u8]>,
        qos_params: &[QoSParameter],
        timeout: Duration,
    ) -> ReplyResult {
        let (started, args) = (Instant::now(), args.as_ref());
        self.call_since(started, object_key, operation, args, qos_params, timeout)
    }

    /// [`Binding::call`] for an invocation that began at `started`.
    pub(crate) fn call_since(
        &self,
        started: Instant,
        object_key: &[u8],
        operation: &str,
        args: &[u8],
        qos_params: &[QoSParameter],
        timeout: Duration,
    ) -> ReplyResult {
        let held = Locked::root();
        let request_id = self.issue(
            held,
            started,
            object_key,
            operation,
            args,
            qos_params,
            Collect::Caller,
        )?;
        self.pending
            .wait_timeout(held, request_id, started, timeout, &self.conn)
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
        self.issue(
            Locked::root(),
            Instant::now(),
            object_key,
            operation,
            &args,
            qos_params,
            Collect::Nothing,
        )
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
        let request_id = self.issue(
            Locked::root(),
            Instant::now(),
            object_key,
            operation,
            &args,
            qos_params,
            Collect::Later(Slot::Expecting),
        )?;
        Ok(DeferredReply {
            request_id,
            pending: self.pending.clone(),
            conn: self.conn.clone(),
            done: false,
            ready: None,
        })
    }

    /// Asynchronous invocation: `callback` runs when the reply or an error
    /// arrives, on the thread that delivers it — the transport's delivery
    /// thread, or over TCP and Da CaPo a caller of the same binding reading
    /// replies inside its own wait.
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
        self.issue(
            Locked::root(),
            Instant::now(),
            object_key,
            operation,
            &args,
            qos_params,
            collect,
        )
    }

    /// Cancels a pending request: notifies the server (GIOP
    /// `CancelRequest`) and completes the local waiter with
    /// [`OrbError::Cancelled`].
    ///
    /// Returns whether the request was still pending.
    pub fn cancel(&self, request_id: u32) -> bool {
        if !self
            .pending
            .complete(Locked::root(), request_id, || Err(OrbError::Cancelled))
        {
            return false;
        }
        send_cancel(&*self.conn.channel, request_id);
        true
    }

    /// Closes the binding for good; all pending requests complete with
    /// [`OrbError::Closed`], and so does every later call: the ORB does not
    /// replace a binding closed here.
    pub fn close(&self) {
        self.retired.store(true, Ordering::Release);
        // Closing the channel fires the sink's `on_close`, which also
        // fails the pending map; doing it here too covers transports whose
        // teardown is asynchronous. An answered entry keeps its answer, so
        // requests complete exactly once.
        self.conn.channel.close();
        self.pending.fail_all(Locked::root());
    }
}

impl Drop for Binding {
    fn drop(&mut self) {
        self.close();
    }
}

/// Wires a channel to the binding's demultiplexer, and takes over its
/// reader's demand.
fn attach(channel: Arc<dyn ComChannel>, pending: &Arc<Pending>) -> ConnHandle {
    channel.set_sink(Arc::new(DemuxSink {
        pending: pending.clone(),
        channel: Arc::downgrade(&channel),
    }));
    let demand = channel.hand_over_demand();
    ConnHandle { channel, demand }
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
            if let Some(result) = self.pending.collect(Locked::root(), self.request_id) {
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
        // Timed out, closed or answered: either way the entry is gone.
        self.done = true;
        let held = Locked::root();
        self.pending.claim(held, self.request_id);
        self.pending
            .wait_timeout(held, self.request_id, Instant::now(), timeout, &self.conn)
    }

    /// Cancels the pending request (sends GIOP `CancelRequest`).
    pub fn cancel(self) {
        // An answered request is not cancelled on the wire.
        let slot = self.pending.take(Locked::root(), self.request_id);
        if slot.is_some_and(|slot| !matches!(slot, Slot::Ready(_))) {
            send_cancel(&*self.conn.channel, self.request_id);
        }
        // Dropping `self` closes the span, as for any abandoned handle.
    }
}

impl Drop for DeferredReply {
    fn drop(&mut self) {
        if !self.done {
            // Abandoned without waiting: drop the entry so the pending
            // map does not hold it forever.
            self.pending.take(Locked::root(), self.request_id);
            if let Some(t) = &self.pending.telemetry {
                t.abort_invocation(self.request_id, SpanOutcome::Cancelled);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChorusComChannel;

    #[test]
    fn a_reply_the_demux_holds_at_the_deadline_is_returned() {
        let pending = Arc::new(Pending {
            slots: OrderedMutex::new(Slots::default()),
            telemetry: None,
        });
        let entry = Entry {
            slot: Slot::Expecting,
            owed: None,
        };
        let held = Locked::root();
        pending.slots.lock(held).0.insert(1, entry);
        let (client, _server) = ChorusComChannel::pair();
        let conn = attach(Arc::new(client), &pending);
        let waiter = {
            let pending = Arc::clone(&pending);
            std::thread::spawn(move || {
                let held = Locked::root();
                pending.wait_timeout(held, 1, Instant::now(), Duration::from_millis(10), &conn)
            })
        };
        // Once the caller sleeps in its entry, the demux takes the entry in
        // hand and is still interpreting the reply at 50 ms, well past the
        // caller's deadline.
        while pending.expecting(held, 1) {
            std::thread::yield_now();
        }
        let filled = pending.complete(held, 1, || {
            std::thread::sleep(Duration::from_millis(50));
            Ok((Bytes::from_static(b"late"), None))
        });
        assert!(filled, "the demux reached the entry before the deadline");
        let (body, _) = waiter
            .join()
            .expect("waiter")
            .expect("a reply in hand at the deadline is returned, not a timeout");
        assert_eq!(&body[..], b"late");
        assert_eq!(
            pending.slots.lock(held).0.len(),
            0,
            "the caller took its entry"
        );
    }
}
