//! The module-graph runtime: a stack is a monitor, not a thread.
//!
//! The paper's Figure 6 gives each module a thread and two message queues
//! (*"Each module in Da CaPo is executed by a single thread … Modules
//! exchange pointers to packets over message queues"*). The queues are
//! still here — one per module and direction (down = towards the wire,
//! up = towards the application), control packets sharing them and told
//! apart by module-level header tags, which keeps the wire format
//! self-describing — but they are `VecDeque`s behind one **stack lock**,
//! and no thread belongs to a stack. Whoever brings a packet runs it
//! through the chain:
//!
//! * **down** on the sender's thread: [`AppEndpoint::send`] takes the stack
//!   lock, runs the packet module by module to the bottom, and writes what
//!   arrives there to the transport;
//! * **up**, and the protocol timer, on the connection's one receive
//!   thread ([`RxPump`]), which runs every frame it reads through whichever
//!   stack is installed and then — holding nothing — hands the payloads to
//!   the application: to the connection's [`Sink`] if one is installed,
//!   into the endpoint's queue otherwise.
//!
//! A packet crosses the whole chain without a thread handoff in either
//! direction, and a stack swap spawns and joins nothing. What that gives
//! up: a send pays its module work inline, and the two directions of one
//! stack no longer overlap (DESIGN §2).
//!
//! Three rules keep the monitor from hanging, each the difference between
//! this and the obvious way of writing it:
//!
//! 1. The stack lock is never held across a transport write, a wait or an
//!    application callback. Frames bound for the wire go to an in-order
//!    deque under the lock and are written after it is released, under a
//!    separate **writer lock** that senders wait for — a full wire is
//!    their backpressure. **What the modules answer, the receive thread
//!    never writes**: a [`Transport::send`] may block for as long as the
//!    peer does not read, and two ends whose receive threads both sat in
//!    one — each with an acknowledgement for the other — would wait for
//!    each other for good. What a frame or a tick makes the modules send —
//!    an acknowledgement, a retransmission, a packet a window let go — the
//!    receive thread leaves in the deque: for the sender that holds the
//!    writer lock at that moment (it looks at the deque again after
//!    unlocking), else for the connection's `WireWriter`, a thread
//!    started the first time that happens. So the receive thread keeps
//!    draining the wire whatever this side's senders are stuck on; it waits
//!    for module work and for its [`Sink`]'s callbacks, nothing else. (A
//!    callback that *sends* is a sender: its frames it does write, if
//!    nobody else is writing — see [`Sink`].)
//! 2. A module whose [`Module::ready_for_down`] returns `false` leaves its
//!    queue standing, and while anything stands a sender waits (and
//!    `try_send` refuses) — that is how the IRQ configuration throttles
//!    Figure 9's sender, and what the stack buffers is one packet's
//!    fan-out. The exception is a send from inside a delivery (the reply
//!    of a request the receive thread ran to completion): the
//!    acknowledgement that frees the window arrives on that very thread,
//!    so its packet queues behind what stands and the send returns.
//! 3. Only the receive thread delivers, so what the application sees is in
//!    wire order, and nothing joins that thread: `close` can run on it (a
//!    sink reacting to the peer's close) or on a thread it is waiting for.

use crate::alayer::AppEndpoint;
use crate::module::{Module, Outputs};
use crate::packet::{Packet, PacketKind};
use crate::stats::ThroughputMeter;
use crate::tlayer::Transport;
use crate::DacapoError;
use bytes::Bytes;
use cool_telemetry::flight::event as flight_event;
use cool_telemetry::lockorder::{rank as lock_rank, OrderedMutex, OrderedMutexGuard};
use cool_telemetry::{Counter, Gauge, Registry};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Interval between [`Module::on_tick`] callbacks. This is a protocol
/// timer (it drives ARQ retransmission), *not* a data-path poll: a frame
/// wakes the receive thread at once. It runs by deadline, checked after
/// every frame, so traffic cannot starve it.
const TICK_INTERVAL: Duration = Duration::from_millis(20);

/// What a running stack reports to.
#[derive(Debug, Clone, Default)]
pub struct RuntimeOptions {
    /// When set, the stack reports per module its per-direction
    /// frame/byte throughput (`dacapo_module_frames_total{module,dir}`,
    /// `dacapo_module_bytes_total{module,dir}`) and the depth of the queues
    /// in front of it (`dacapo_module_queue_depth{module}`), and it and the
    /// connection's [`RxPump`] report wire traffic
    /// (`dacapo_wire_frames_total{dir}`, `dacapo_wire_bytes_total{dir}`)
    /// into this registry.
    pub telemetry: Option<Arc<Registry>>,
}

/// Pre-resolved registry handles for one module.
struct ModuleTelemetry {
    down_frames: Arc<Counter>,
    down_bytes: Arc<Counter>,
    up_frames: Arc<Counter>,
    up_bytes: Arc<Counter>,
    queue_depth: Arc<Gauge>,
}

impl ModuleTelemetry {
    fn new(registry: &Registry, module: &str) -> Self {
        let labeled = |name: &str, dir: &str| {
            registry.counter(&Registry::labeled(name, &[("module", module), ("dir", dir)]))
        };
        ModuleTelemetry {
            down_frames: labeled("dacapo_module_frames_total", "down"),
            down_bytes: labeled("dacapo_module_bytes_total", "down"),
            up_frames: labeled("dacapo_module_frames_total", "up"),
            up_bytes: labeled("dacapo_module_bytes_total", "up"),
            queue_depth: registry.gauge(&Registry::labeled(
                "dacapo_module_queue_depth",
                &[("module", module)],
            )),
        }
    }
}

/// Quiescence bookkeeping shared by everything that touches a stack's
/// packets: a count of the packets inside the stack, and a generation
/// counter bumped whenever a thread has finished moving packets through it
/// (a send, a frame or tick on the receive thread, a receive by the
/// application), so [`StackHandle::drain`] — and a sender waiting behind a
/// stalled module — can park in a condvar instead of sleep-polling.
///
/// A packet is *inside* from the moment a sender is about to queue it
/// (application send, receive thread) until it has left for good (handed to
/// the transport, received by the application, consumed by a module) — so
/// also while a module holds it between two queues, which looking at the
/// queues alone would miss: a drain that saw them all empty at that moment
/// would let a close cut off the last frame of a stream.
#[derive(Debug, Default)]
pub(crate) struct QuiesceSignal {
    in_flight: AtomicUsize,
    generation: Mutex<u64>,
    cv: Condvar,
}

impl QuiesceSignal {
    /// `n` packets are about to enter the stack (or a module is about to
    /// emit `n` more than it took in).
    pub(crate) fn enter(&self, n: usize) {
        self.in_flight.fetch_add(n, Ordering::SeqCst);
    }

    /// `n` packets have left the stack for good.
    pub(crate) fn leave(&self, n: usize) {
        self.in_flight.fetch_sub(n, Ordering::SeqCst);
    }

    fn is_empty(&self) -> bool {
        self.in_flight.load(Ordering::SeqCst) == 0
    }

    /// Announces "state changed, look again" to any drainer or waiting
    /// sender.
    pub(crate) fn pulse(&self) {
        let mut generation = self.generation.lock();
        *generation += 1;
        self.cv.notify_all();
    }

    fn generation(&self) -> u64 {
        *self.generation.lock()
    }

    /// Waits for a pulse newer than `seen`; false when `deadline` passes
    /// first.
    fn wait_newer(&self, seen: u64, deadline: Instant) -> bool {
        let mut generation = self.generation.lock();
        while *generation == seen {
            if self.cv.wait_until(&mut generation, deadline).timed_out() {
                return false;
            }
        }
        true
    }

    /// Waits for a pulse newer than `seen`, however long that takes: for a
    /// sender behind a stalled module. The receive thread pulses after
    /// every event — an acknowledgement that ran the queues dry, the
    /// transport's end — and so do [`Stack::stop`] and a failed write.
    fn wait_for_room(&self, seen: u64) {
        let mut generation = self.generation.lock();
        while *generation == seen {
            self.cv.wait(&mut generation);
        }
    }
}

/// Where a connection's receive thread hands what it brings to the top of
/// the stack, when the application would rather be called than pull from
/// [`AppEndpoint::recv`]. Installed with [`crate::Connection::set_sink`]; it
/// belongs to the connection, not to a stack, and survives reconfiguration.
///
/// Both callbacks run on the receive thread, one at a time and in wire
/// order, with no lock of the connection held — so a callback may send on
/// the connection and may close it. While a callback runs, nothing else of
/// the connection's receive side does: no frame is read, no acknowledgement
/// processed, no protocol timer fires. So it must not block on something
/// only a later frame of this connection can bring — which includes a
/// thread that is itself waiting in a send on this connection behind a full
/// ARQ window — and it must not own the connection (hold it weakly): the
/// connection owns the sink.
///
/// A send from a callback never waits behind a stalled module or another
/// writer (the module header, rule 2), but it is a send: with nobody else
/// writing, the frames go onto the transport there and then — which is
/// what makes a request answered from its delivery a round trip of three
/// thread handoffs — and a full wire holds the callback, and with it this
/// side's reading, until the peer has read. That is safe as long as the
/// peer's reading does not in turn wait for this side's (a client whose
/// callbacks only take replies; a relay onto another connection); two ends
/// that *both* answer from their callbacks over a transport that can fill
/// up should hand the answer to a thread of their own.
pub trait Sink: Send + Sync {
    /// A payload reached the top of the stack.
    fn deliver(&self, payload: Bytes);
    /// The transport is gone — closed by the peer, severed, failed — and
    /// everything that arrived before has been delivered. Called at most
    /// once.
    fn closed(&self);
}

/// The connection's sink, if the application installed one. Deliveries
/// into the endpoint's queue happen under this lock, so that a sink being
/// installed finds everything that went to the queue before it.
type SinkSlot = Mutex<Option<Arc<dyn Sink>>>;

thread_local! {
    /// The connection whose [`Sink`] callbacks this thread runs — its
    /// receive thread, for that thread's whole life, or a thread replaying
    /// the endpoint's queue in [`RxPump::set_sink`] — named by its
    /// transport ([`transport_id`]), which outlives every stack; 0 on any
    /// other thread.
    static RECEIVING_FOR: Cell<usize> = const { Cell::new(0) };
}

/// What names a connection across its stacks: where its transport lives.
fn transport_id(transport: &Arc<dyn Transport>) -> usize {
    Arc::as_ptr(transport) as *const () as usize
}

/// Runs `f` as a thread that delivers for `transport`'s connection.
fn receiving_for<R>(transport: &Arc<dyn Transport>, f: impl FnOnce() -> R) -> R {
    let outer = RECEIVING_FOR.with(|r| r.replace(transport_id(transport)));
    let out = f();
    RECEIVING_FOR.with(|r| r.set(outer));
    out
}

/// What the receive thread brings to a stack.
enum RxEvent {
    /// A frame off the wire.
    Frame(Bytes),
    /// The protocol timer, this long after the receive thread started.
    Tick(Duration),
    /// The transport reported its end.
    WireEnded,
}

/// One module's place in the chain, with the queues in front of it.
struct Stage {
    module: Box<dyn Module>,
    /// Packets on their way down, waiting for this module. Stands while
    /// the module is not [`Module::ready_for_down`].
    down: VecDeque<Packet>,
    /// Packets on their way up, waiting for this module.
    up: VecDeque<Packet>,
    telemetry: Option<ModuleTelemetry>,
}

/// What the stack lock guards: the modules and every queue of the stack.
struct Chain {
    /// Top (application side) to bottom (wire side).
    stages: Vec<Stage>,
    /// Packets standing in the stages' queues. Up queues always run dry,
    /// so between two events this counts what stalled modules hold back.
    queued: usize,
    out: Outputs,
    /// Frames that reached the bottom, in order, until a holder of the
    /// writer lock takes them to the transport.
    wire: VecDeque<Packet>,
    /// Payloads (and the close sentinel) that reached the top, in order,
    /// until the receive thread takes them to the application.
    top: Vec<Packet>,
    /// The endpoint's queue. Dropped when the stack stops, so the queue
    /// *ends* behind what it holds; a delivery in flight keeps a clone
    /// until it is done.
    to_app: Option<Sender<Packet>>,
    /// The receive thread has read the transport's end: nothing will come
    /// up any more — no acknowledgement either — so nothing goes down.
    wire_ended: bool,
}

/// A module stack bound to a transport: everything its endpoint, its
/// handle and the connection's receive thread share.
pub(crate) struct Stack {
    chain: OrderedMutex<Chain>,
    /// Held while writing to the transport; its content is the writer's
    /// scratch deque (swapped with [`Chain::wire`], so neither allocates in
    /// steady state).
    writer: OrderedMutex<VecDeque<Packet>>,
    transport: Arc<dyn Transport>,
    /// Set (under the stack lock) once the stack is replaced or torn down:
    /// nothing enters it any more.
    stopped: AtomicBool,
    /// Per module: no deferred state (window, reorder buffer, reassembly).
    idle: Vec<AtomicBool>,
    quiesce: QuiesceSignal,
    /// Set once the application has been told the transport is gone: by a
    /// failed write, or when the close sentinel is delivered.
    transport_dead: AtomicBool,
    pub(crate) from_stack: Receiver<Packet>,
    pub(crate) tx_meter: Arc<ThroughputMeter>,
    pub(crate) rx_meter: Arc<ThroughputMeter>,
    wire_tx: Option<(Arc<Counter>, Arc<Counter>)>,
    registry: Option<Arc<Registry>>,
}

impl std::fmt::Debug for Stack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stack")
            .field("transport", &self.transport.name())
            .field("stopped", &self.stopped)
            .field("transport_dead", &self.transport_dead)
            .finish_non_exhaustive()
    }
}

impl Chain {
    /// Queues `pkt` for stage `to` on its way down; below the last stage
    /// is the wire.
    fn push_down(&mut self, to: usize, pkt: Packet) {
        match self.stages.get_mut(to) {
            Some(stage) => {
                stage.down.push_back(pkt);
                self.queued += 1;
            }
            None => self.wire.push_back(pkt),
        }
    }

    /// Queues `pkt`, on its way up from stage `from` (or from the wire,
    /// `from` = the number of stages), for the stage above; above the
    /// first stage is the application.
    fn push_up(&mut self, from: usize, pkt: Packet) {
        match from.checked_sub(1) {
            Some(to) => {
                self.stages[to].up.push_back(pkt);
                self.queued += 1;
            }
            None => self.top.push(pkt),
        }
    }

    /// Runs every queued packet that can run: up queues bottom to top,
    /// then down queues top to bottom past every module that is ready,
    /// again until nothing moves. Returns with all queues empty, or with
    /// what a module that is not ready leaves standing.
    fn settle(&mut self, stack: &Stack) {
        while self.queued > 0 {
            let mut moved = false;
            for i in (0..self.stages.len()).rev() {
                while let Some(pkt) = self.stages[i].up.pop_front() {
                    self.queued -= 1;
                    moved = true;
                    let stage = &mut self.stages[i];
                    if pkt.is_close_sentinel() {
                        // Not the module's to interpret: hand it on behind
                        // what this module has already emitted.
                        self.out.push_up(pkt);
                    } else {
                        if let Some(t) = &stage.telemetry {
                            t.up_frames.inc();
                            t.up_bytes.add(pkt.len() as u64);
                        }
                        stage.module.process_up(pkt, &mut self.out);
                    }
                    self.forward(stack, i, 1);
                }
            }
            for i in 0..self.stages.len() {
                while self.stages[i].module.ready_for_down() {
                    let stage = &mut self.stages[i];
                    let Some(pkt) = stage.down.pop_front() else {
                        break;
                    };
                    self.queued -= 1;
                    moved = true;
                    if let Some(t) = &stage.telemetry {
                        t.down_frames.inc();
                        t.down_bytes.add(pkt.len() as u64);
                    }
                    stage.module.process_down(pkt, &mut self.out);
                    self.forward(stack, i, 1);
                }
            }
            if !moved {
                break;
            }
        }
    }

    /// The protocol timer: every module's [`Module::on_tick`]; the caller
    /// then settles whatever that set moving (a retransmission, say).
    fn tick(&mut self, stack: &Stack, now: Duration) {
        for i in 0..self.stages.len() {
            self.stages[i].module.on_tick(now, &mut self.out);
            self.forward(stack, i, 0);
        }
    }

    /// Moves what stage `i` emitted for one event, in which it took `took`
    /// packets in, to its neighbours' queues.
    fn forward(&mut self, stack: &Stack, i: usize, took: usize) {
        // Settle the books before anything moves on: whoever can see a
        // packet this module sent (the peer acknowledging it, say) must
        // also see what it left behind here. The stack's packet count takes
        // the difference between what came in and what goes out — a packet
        // passed through stays counted all along — and an ARQ window reads
        // "not idle" from before its data leaves until the acknowledgement
        // has come back.
        let emitted = self.out.len();
        if emitted > took {
            stack.quiesce.enter(emitted - took);
        } else if emitted < took {
            stack.quiesce.leave(took - emitted);
        }
        let stage = &self.stages[i];
        stack.idle[i].store(stage.module.is_idle(), Ordering::Release);
        if let Some(t) = &stage.telemetry {
            t.queue_depth.set((stage.down.len() + stage.up.len()) as f64);
        }
        // Emptied and handed back, so the lists keep their capacity.
        let mut down = std::mem::take(&mut self.out.down);
        for pkt in down.drain(..) {
            self.push_down(i + 1, pkt);
        }
        self.out.down = down;
        let mut up = std::mem::take(&mut self.out.up);
        for pkt in up.drain(..) {
            self.push_up(i, pkt);
        }
        self.out.up = up;
    }
}

impl Stack {
    fn stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }

    pub(crate) fn transport_closed(&self) -> bool {
        self.transport_dead.load(Ordering::Acquire)
    }

    /// The send path: `payload` down the chain on the caller's thread, and
    /// what reaches the bottom onto the transport. With `wait`, blocks
    /// while a stalled module keeps anything standing and while another
    /// writer holds a full wire; without, refuses instead.
    pub(crate) fn send(&self, payload: Bytes, wait: bool) -> Result<(), DacapoError> {
        // The caller is this connection's own receive thread, in a sink
        // callback: no send may keep that thread waiting for something only
        // it can bring.
        let own_thread = RECEIVING_FOR.with(Cell::get) == transport_id(&self.transport);
        // Taken before the look at the queues: a pulse landing between
        // that look and the wait advances it, so the wait returns at once.
        let mut seen = None;
        loop {
            if self.transport_closed() {
                return Err(DacapoError::Closed);
            }
            let mut chain = self.chain.lock();
            if self.stopped() || chain.wire_ended {
                return Err(DacapoError::Closed);
            }
            let clear = chain.queued == 0 && (wait || chain.wire.is_empty());
            if clear || own_thread {
                // The payload enters the stack as a shared view — no copy
                // unless a module below needs to mutate it.
                self.quiesce.enter(1);
                self.tx_meter.record(payload.len());
                chain.push_down(0, Packet::data_shared(payload));
                chain.settle(self);
                let for_the_wire = !chain.wire.is_empty();
                drop(chain);
                if for_the_wire {
                    self.flush_wire(wait && !own_thread);
                }
                self.quiesce.pulse();
                return if self.transport_closed() {
                    Err(DacapoError::Closed)
                } else {
                    Ok(())
                };
            }
            drop(chain);
            if !wait {
                return Err(DacapoError::Timeout(Duration::ZERO));
            }
            match seen.take() {
                Some(seen) => self.quiesce.wait_for_room(seen),
                None => seen = Some(self.quiesce.generation()),
            }
        }
    }

    /// Hands the frames the receive thread queued for the wire in
    /// [`Stack::run_up`], and must not write itself, to a thread that may
    /// block — unless one has them already.
    fn leave_wire_to(self: &Arc<Self>, writer: &Arc<WireWriter>) {
        // Taken along since, by a sender or by what a sink callback sent.
        if self.chain.lock().wire.is_empty() {
            return;
        }
        // A thread that holds the writer lock looks at the deque again
        // after unlocking; only when there is none must the writer come.
        let nobody_writing = self.writer.try_lock().is_some();
        if nobody_writing {
            writer.write_for(self.clone());
        }
    }

    /// Writes what stands for the wire, in order. `wait`: queue up behind
    /// another writer (a sender's backpressure); otherwise leave the frames
    /// to it — it looks again after unlocking. The receive thread gets here
    /// only with what a sink callback sent, never with what the modules
    /// answered.
    fn flush_wire(&self, wait: bool) {
        loop {
            let mut batch = if wait {
                self.writer.lock()
            } else {
                match self.writer.try_lock() {
                    Some(batch) => batch,
                    None => return,
                }
            };
            std::mem::swap(&mut *batch, &mut self.chain.lock().wire);
            for pkt in batch.drain(..) {
                self.transmit(pkt);
            }
            drop(batch);
            // A thread whose try failed while this one held the lock has
            // left its frames behind.
            if self.chain.lock().wire.is_empty() {
                return;
            }
        }
    }

    /// One frame onto the transport. It stays counted as inside the stack
    /// until the transport has taken it.
    fn transmit(&self, pkt: Packet) {
        if self.stopped() || self.transport_closed() {
            self.quiesce.leave(1);
            return;
        }
        let wire_len = pkt.len() as u64;
        let sent = self.transport.send(pkt.into_bytes());
        self.quiesce.leave(1);
        match sent {
            Ok(()) => {
                if let Some((frames, bytes)) = &self.wire_tx {
                    frames.inc();
                    bytes.add(wire_len);
                }
            }
            // Our own teardown closes the transport under a send in flight.
            Err(_) if self.stopped() => {}
            Err(_) => self.wire_failed("transport send failed"),
        }
    }

    /// The wire no longer takes what the application sends: tell it now —
    /// sends fail from here on — and close the transport, which wakes this
    /// side's receive thread to carry the close sentinel up behind whatever
    /// has arrived.
    fn wire_failed(&self, why: &str) {
        self.transport_dead.store(true, Ordering::Release);
        if let Some(r) = &self.registry {
            r.flight_event(flight_event::TRANSPORT_DEAD, None, format!("dacapo stack: {why}"));
        }
        self.transport.close();
        self.quiesce.pulse();
    }

    /// One event on the receive thread run through the chain. What reaches
    /// the top is appended to `tops`; what reaches the bottom stays in the
    /// wire deque. Returns, if there is something to deliver, the endpoint's
    /// queue for [`Stack::deliver`] — taken while the stack was certainly
    /// running, so the queue cannot end in front of this delivery — and
    /// whether the caller owes the deque a writer ([`Stack::leave_wire_to`]):
    /// it does for frames queued onto an *empty* deque; ones already
    /// standing there have a writer on its way — the sender that put them
    /// there, between the stack lock and the writer lock — which takes
    /// along whatever is queued behind them.
    fn run_up(
        self: &Arc<Self>,
        event: RxEvent,
        tops: &mut Vec<Packet>,
    ) -> (Option<Sender<Packet>>, bool) {
        let mut chain = self.chain.lock();
        if self.stopped() {
            return (None, false);
        }
        let writer_on_its_way = !chain.wire.is_empty();
        let from_the_wire = chain.stages.len();
        match event {
            RxEvent::Frame(frame) => {
                self.quiesce.enter(1);
                chain.push_up(from_the_wire, Packet::from_shared(frame, PacketKind::Data));
            }
            RxEvent::Tick(now) => chain.tick(self, now),
            RxEvent::WireEnded => {
                // Sends fail from here on, and a sender waiting behind a
                // stalled module is released by this event's pulse: the
                // acknowledgement it waited for will not come. The close
                // sentinel goes up *behind* the frames already received,
                // through every module's queue in order, so the application
                // receives the tail of the traffic and then `Closed`.
                chain.wire_ended = true;
                self.quiesce.enter(1);
                chain.push_up(from_the_wire, Packet::close_sentinel());
            }
        }
        chain.settle(self);
        tops.append(&mut chain.top);
        let to_app = if tops.is_empty() {
            None
        } else {
            chain.to_app.clone()
        };
        let owes_a_writer = !writer_on_its_way && !chain.wire.is_empty();
        drop(chain);
        self.quiesce.pulse();
        (to_app, owes_a_writer)
    }

    /// Hands `tops` to the application, in order, holding no lock of the
    /// stack: to the sink if there is one, into the endpoint's queue
    /// otherwise.
    fn deliver(&self, tops: &mut Vec<Packet>, to_app: &Sender<Packet>, sink: &SinkSlot) {
        let sink = {
            let slot = sink.lock();
            match &*slot {
                Some(sink) => sink.clone(),
                None => {
                    for pkt in tops.drain(..) {
                        // Counted out by the endpoint that receives it
                        // (the stack holds a receiver: the send succeeds).
                        let _ = to_app.send(pkt);
                    }
                    return;
                }
            }
        };
        self.hand_to(&*sink, tops.drain(..));
    }

    /// `pkts` into `sink`, on a thread that is [`receiving_for`] this
    /// stack's connection.
    fn hand_to(&self, sink: &dyn Sink, pkts: impl Iterator<Item = Packet>) {
        for pkt in pkts {
            self.received(&pkt);
            if pkt.is_close_sentinel() {
                sink.closed();
            } else {
                sink.deliver(pkt.into_bytes());
            }
        }
    }

    /// The books for one packet off the top that the application now has:
    /// it has left the stack, which can complete quiescence, and if it is
    /// the close sentinel the application has been told.
    pub(crate) fn received(&self, pkt: &Packet) {
        if pkt.is_close_sentinel() {
            self.transport_dead.store(true, Ordering::Release);
        } else {
            self.rx_meter.record(pkt.len());
        }
        self.quiesce.leave(1);
        self.quiesce.pulse();
    }

    /// Nothing enters the stack any more: sends fail, the receive thread
    /// passes it by, senders waiting behind a stalled module are released
    /// and the endpoint's queue ends behind what it holds. Waits for
    /// whoever is inside the chain to come out.
    fn stop(&self) {
        let mut chain = self.chain.lock();
        self.stopped.store(true, Ordering::Release);
        chain.to_app.take();
        drop(chain);
        self.quiesce.pulse();
    }
}

/// A module stack bound to a transport. It has no thread of its own:
/// senders run it downwards, the transport's [`RxPump`] — one per
/// transport, outliving every stack built on it — runs it upwards.
/// Dropping the handle stops the stack; the transport itself is *not*
/// closed — the owner may build a new stack on it (reconfiguration).
#[derive(Debug)]
pub struct StackHandle {
    app: AppEndpoint,
    pub(crate) stack: Arc<Stack>,
    module_names: Vec<String>,
}

impl StackHandle {
    /// The application endpoint of this stack.
    pub fn endpoint(&self) -> &AppEndpoint {
        &self.app
    }

    /// Names of the running modules, top to bottom.
    pub fn module_names(&self) -> &[String] {
        &self.module_names
    }

    /// Whether the application has been told that the transport underneath
    /// this stack is gone (closed by the peer, severed, I/O error): a send
    /// failed, or every inbound frame that preceded the close has been
    /// received. New sends fail with [`DacapoError::Closed`].
    pub fn transport_closed(&self) -> bool {
        self.stack.transport_closed()
    }

    /// Whether no packet is inside the stack — queued, in the hands of a
    /// module, standing for the wire or on its way to the application —
    /// and every module reports no deferred state: all application traffic
    /// has reached the transport (or the application) and no ARQ window is
    /// outstanding.
    pub fn is_quiescent(&self) -> bool {
        self.stack.quiesce.is_empty() && self.stack.idle.iter().all(|f| f.load(Ordering::Acquire))
    }

    /// Waits up to `timeout` for the stack to quiesce; returns whether it
    /// did. Used for graceful teardown: close after `drain` loses nothing.
    ///
    /// Event-driven: every thread that moves packets through the stack
    /// pulses [`QuiesceSignal`] when it is done, so this parks in a condvar
    /// between re-checks instead of sleep-polling. It never takes the stack
    /// lock.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            // Generation before the check: a pulse landing between the
            // check and the wait advances it, so the wait returns
            // immediately rather than missing the wakeup.
            let seen = self.stack.quiesce.generation();
            if self.is_quiescent() {
                return true;
            }
            if !self.stack.quiesce.wait_newer(seen, deadline) {
                return self.is_quiescent();
            }
        }
    }
}

impl Drop for StackHandle {
    fn drop(&mut self) {
        self.stack.stop();
    }
}

/// The thread that writes what the connection's receive thread must not
/// (rule 1 of the module header): one per connection at most, started the
/// first time the modules answer what the receive thread brought them with
/// no sender there to take the answer to the wire — a connection over a
/// graph that acknowledges nothing never has one — and, like the receive
/// thread, there for as long as the transport is, whatever stacks come and
/// go. The receive thread owns it and joins it on its way out.
struct WireWriter {
    transport: Arc<dyn Transport>,
    state: Mutex<WriterState>,
    work: Condvar,
}

#[derive(Default)]
struct WriterState {
    /// The stack in whose wire deque frames were left. One slot is enough:
    /// when a newer stack's frames displace an older one's, the older stack
    /// has been stopped, and what a stopped stack still held is dropped
    /// wherever it stands ([`crate::Connection::reconfigure`]).
    stack: Option<Arc<Stack>>,
    thread: Option<std::thread::JoinHandle<()>>,
    /// The transport has ended: nothing can be written any more.
    ended: bool,
}

impl WireWriter {
    fn new(transport: Arc<dyn Transport>) -> Arc<Self> {
        Arc::new(WireWriter {
            transport,
            state: Mutex::default(),
            work: Condvar::new(),
        })
    }

    /// Has the writer thread write what stands in `stack`'s wire deque,
    /// starting it if this is the first time. If it cannot be started the
    /// frames can never leave: that is a failed wire.
    fn write_for(self: &Arc<Self>, stack: Arc<Stack>) {
        let mut state = self.state.lock();
        if state.ended {
            return;
        }
        if state.thread.is_none() {
            let writer = self.clone();
            let spawned = std::thread::Builder::new()
                .name("dacapo-t-wr".into())
                .spawn(move || writer.write_loop());
            match spawned {
                Ok(thread) => state.thread = Some(thread),
                Err(e) => {
                    drop(state);
                    stack.wire_failed(&format!("spawn dacapo-t-wr: {e}"));
                    return;
                }
            }
        }
        state.stack = Some(stack);
        self.work.notify_one();
    }

    fn write_loop(&self) {
        loop {
            let stack = {
                let mut state = self.state.lock();
                loop {
                    if state.ended {
                        return;
                    }
                    if let Some(stack) = state.stack.take() {
                        break stack;
                    }
                    self.work.wait(&mut state);
                }
            };
            stack.flush_wire(true);
            stack.quiesce.pulse();
        }
    }

    /// The transport has ended: ends the writer thread, and waits for it.
    /// Called by the receive thread as the last thing it does — nothing
    /// waits for *that* thread, so a write that does not return holds up
    /// nobody.
    fn stop(&self) {
        let thread = {
            let mut state = self.state.lock();
            state.ended = true;
            state.stack = None;
            self.work.notify_one();
            state.thread.take()
        };
        if let Some(thread) = thread {
            // A write still blocked on the ended transport returns once
            // this side is closed as well.
            self.transport.close();
            let _ = thread.join();
        }
    }
}

/// The connection's receive thread: one per transport, for as long as the
/// transport lives (a [`crate::Connection`] owns it), whatever stacks come
/// and go above it. It waits in [`Transport::recv_timeout`] — woken by a
/// frame, by [`Transport::close`] on either side, or by the next protocol
/// tick — and runs each frame up whichever stack is installed in its slot,
/// under the slot's lock: a swap waits for the frame in hand, and a frame
/// read during a swap goes to the new stack instead of dying with the old.
/// Then, the lock released, it delivers. It never writes to the transport
/// (the module header, rule 1).
///
/// Nothing joins this thread. It ends as soon as the transport does, but
/// `shutdown` can run on the thread itself (a [`Sink`] closing its
/// connection when the peer has) and on a thread it is waiting for (a sink
/// blocked on a full dispatch queue whose one worker is closing the
/// connection).
pub struct RxPump {
    transport: Arc<dyn Transport>,
    slot: Arc<OrderedMutex<Option<Arc<Stack>>>>,
    sink: Arc<SinkSlot>,
}

impl RxPump {
    /// Starts the receive thread on `transport`, running `stack`. When the
    /// transport reports its end (closed by either side, I/O error) the
    /// thread runs `on_closed`, then sends the close sentinel up the
    /// current stack, and exits.
    ///
    /// # Errors
    ///
    /// [`DacapoError::Runtime`] if the OS thread cannot be spawned.
    pub fn spawn(
        transport: Arc<dyn Transport>,
        stack: &StackHandle,
        telemetry: Option<&Registry>,
        on_closed: impl FnOnce() + Send + 'static,
    ) -> Result<Self, DacapoError> {
        let pump = RxPump {
            slot: Arc::new(OrderedMutex::new(
                lock_rank::CONNECTION_UPLINK,
                Some(stack.stack.clone()),
            )),
            sink: Arc::new(SinkSlot::default()),
            transport,
        };
        let wire = telemetry.map(|r| wire_counters(r, "rx"));
        let (transport, slot, sink) = (pump.transport.clone(), pump.slot.clone(), pump.sink.clone());
        let writer = WireWriter::new(transport.clone());
        std::thread::Builder::new()
            .name("dacapo-t-rx".into())
            // lint: allow(A007, ends as soon as Transport::close ends the receive it waits in, which shutdown() calls; shutdown() also runs on this thread itself — a sink closing its connection on peer close — and on dispatcher threads a sink callback may be waiting for, so joining it there could deadlock)
            .spawn(move || {
                receiving_for(&transport, || {
                    rx_pump_loop(&*transport, &slot, &sink, &writer, wire, on_closed)
                })
            })
            .map_err(|e| DacapoError::Runtime(format!("spawn dacapo-t-rx: {e}")))?;
        Ok(pump)
    }

    /// Locks the slot for a stack swap. While the guard is held the
    /// receive thread parks with the frame it has just read; once it
    /// drops, that frame and every later one go up the stack the guard
    /// left behind (`None` drops them).
    pub(crate) fn swap(&self) -> OrderedMutexGuard<'_, Option<Arc<Stack>>> {
        self.slot.lock()
    }

    /// Installs the connection's sink. What the current stack's endpoint
    /// queue already holds goes to the sink first, in order, on the calling
    /// thread (with the receive thread held off: those callbacks must not
    /// install a sink themselves); everything after that on the receive
    /// thread.
    pub fn set_sink(&self, sink: Arc<dyn Sink>) {
        let mut slot = self.sink.lock();
        // The receive thread queues under the sink lock: nothing can be
        // added behind what is replayed here.
        let current = self.slot.lock().clone();
        if let Some(stack) = current {
            // The acknowledgement a callback's send might wait for cannot
            // get past the lock held here: this thread sends as the
            // receive thread does.
            receiving_for(&self.transport, || {
                stack.hand_to(&*sink, stack.from_stack.try_iter())
            });
        }
        *slot = Some(sink);
    }

    /// Closes the transport — which ends the receive thread, wherever it
    /// waits — and takes the stack out of its reach.
    pub fn shutdown(&self) {
        self.transport.close();
        self.slot.lock().take();
    }
}

fn rx_pump_loop(
    transport: &dyn Transport,
    slot: &OrderedMutex<Option<Arc<Stack>>>,
    sink: &SinkSlot,
    writer: &Arc<WireWriter>,
    wire: Option<(Arc<Counter>, Arc<Counter>)>,
    on_closed: impl FnOnce(),
) {
    let mut tops = Vec::new();
    // One event in three steps: up the installed stack under the slot
    // lock; then — the lock released — what that brought to the top into
    // the application; then what it brought to the bottom to a writer. In
    // that order, so that a callback that answers what it is given takes
    // the acknowledgement along with its answer and no other thread wakes.
    let mut upcall = |event: RxEvent| {
        let (stack, to_app, owes_a_writer) = {
            let installed = slot.lock();
            let Some(stack) = installed.as_ref() else {
                return;
            };
            let (to_app, owes_a_writer) = stack.run_up(event, &mut tops);
            if to_app.is_none() && !owes_a_writer {
                return;
            }
            (stack.clone(), to_app, owes_a_writer)
        };
        if let Some(to_app) = to_app {
            stack.deliver(&mut tops, &to_app, sink);
        }
        if owes_a_writer {
            stack.leave_wire_to(writer);
        }
    };
    let start = Instant::now();
    let mut next_tick = start + TICK_INTERVAL;
    loop {
        let now = Instant::now();
        if now >= next_tick {
            next_tick = now + TICK_INTERVAL;
            upcall(RxEvent::Tick(now - start));
        }
        match transport.recv_timeout(next_tick - now) {
            Ok(frame) => {
                if let Some((frames, bytes)) = &wire {
                    frames.inc();
                    bytes.add(frame.len() as u64);
                }
                upcall(RxEvent::Frame(frame));
            }
            Err(DacapoError::Timeout(_)) => {}
            Err(_) => break,
        }
    }
    on_closed();
    upcall(RxEvent::WireEnded);
    writer.stop();
}

fn wire_counters(registry: &Registry, dir: &str) -> (Arc<Counter>, Arc<Counter>) {
    (
        registry.counter(&Registry::labeled("dacapo_wire_frames_total", &[("dir", dir)])),
        registry.counter(&Registry::labeled("dacapo_wire_bytes_total", &[("dir", dir)])),
    )
}

/// Builds a stack: `modules` top-to-bottom between the application and
/// `transport`. Spawns nothing, so it cannot fail.
pub fn build_stack(
    modules: Vec<Box<dyn Module>>,
    transport: Arc<dyn Transport>,
    opts: &RuntimeOptions,
) -> StackHandle {
    let module_names: Vec<String> = modules.iter().map(|m| m.name().to_owned()).collect();
    // lint: allow(A005, §7.4: filled by the receive thread at the pace of the wire and drained by the app endpoint; the receive thread must never block on the application)
    let (to_app, from_stack) = unbounded::<Packet>();
    let stages: Vec<Stage> = modules
        .into_iter()
        .map(|module| Stage {
            // Same-named modules (within a stack or across the two peers
            // of a connection sharing one registry) aggregate into one
            // time series.
            telemetry: opts
                .telemetry
                .as_ref()
                .map(|r| ModuleTelemetry::new(r, module.name())),
            module,
            down: VecDeque::new(),
            up: VecDeque::new(),
        })
        .collect();
    let stack = Arc::new(Stack {
        idle: stages.iter().map(|_| AtomicBool::new(true)).collect(),
        chain: OrderedMutex::new(
            lock_rank::STACK_CHAIN,
            Chain {
                stages,
                queued: 0,
                out: Outputs::new(),
                wire: VecDeque::new(),
                top: Vec::new(),
                to_app: Some(to_app),
                wire_ended: false,
            },
        ),
        writer: OrderedMutex::new(lock_rank::STACK_WRITER, VecDeque::new()),
        transport,
        stopped: AtomicBool::new(false),
        quiesce: QuiesceSignal::default(),
        transport_dead: AtomicBool::new(false),
        from_stack,
        tx_meter: Arc::new(ThroughputMeter::new()),
        rx_meter: Arc::new(ThroughputMeter::new()),
        wire_tx: opts.telemetry.as_deref().map(|r| wire_counters(r, "tx")),
        registry: opts.telemetry.clone(),
    });
    StackHandle {
        app: AppEndpoint::new(stack.clone()),
        stack,
        module_names,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{MechanismCatalog, ModuleParams};
    use crate::functions::MechanismId;
    use crate::tlayer::loopback_pair;

    fn modules_from(ids: &[&str]) -> Vec<Box<dyn Module>> {
        let catalog = MechanismCatalog::standard();
        let params = ModuleParams::default();
        ids.iter()
            .map(|id| {
                catalog
                    .get(&MechanismId::new(id))
                    .unwrap()
                    .instantiate(&params)
            })
            .collect()
    }

    /// A stack with the receive pump a `Connection` would run under it.
    struct Piped {
        stack: StackHandle,
        pump: RxPump,
    }

    impl std::ops::Deref for Piped {
        type Target = StackHandle;
        fn deref(&self) -> &StackHandle {
            &self.stack
        }
    }

    impl Piped {
        fn shutdown(self) {
            self.pump.shutdown();
        }
    }

    fn piped(modules: Vec<Box<dyn Module>>, transport: impl Transport, opts: &RuntimeOptions) -> Piped {
        let transport: Arc<dyn Transport> = Arc::new(transport);
        let stack = build_stack(modules, transport.clone(), opts);
        let pump =
            RxPump::spawn(transport, &stack, opts.telemetry.as_deref(), || {}).unwrap();
        Piped { stack, pump }
    }

    fn stack_pair(ids: &[&str]) -> (Piped, Piped) {
        let (ta, tb) = loopback_pair();
        let opts = RuntimeOptions::default();
        (
            piped(modules_from(ids), ta, &opts),
            piped(modules_from(ids), tb, &opts),
        )
    }

    #[test]
    fn empty_stack_round_trip() {
        let (a, b) = stack_pair(&[]);
        a.endpoint().send(Bytes::from_static(b"hi")).unwrap();
        let got = b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&got[..], b"hi");
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn dummy_chain_round_trip() {
        let (a, b) = stack_pair(&["dummy", "dummy", "dummy"]);
        for i in 0..20u8 {
            a.endpoint().send(Bytes::from(vec![i; 100])).unwrap();
        }
        for i in 0..20u8 {
            let got = b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got[0], i);
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn crc_stack_round_trip() {
        let (a, b) = stack_pair(&["crc32"]);
        a.endpoint().send(Bytes::from_static(b"checked")).unwrap();
        assert_eq!(
            &b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"checked"
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn encrypted_reliable_stack_round_trip() {
        let (a, b) = stack_pair(&["xor-crypt", "go-back-n", "crc32"]);
        for i in 0..10u8 {
            a.endpoint().send(Bytes::from(vec![i; 64])).unwrap();
        }
        for i in 0..10u8 {
            let got = b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got[0], i, "packet {i} corrupted or reordered");
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn bidirectional_traffic() {
        let (a, b) = stack_pair(&["crc16"]);
        a.endpoint().send(Bytes::from_static(b"to-b")).unwrap();
        b.endpoint().send(Bytes::from_static(b"to-a")).unwrap();
        assert_eq!(
            &b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"to-b"
        );
        assert_eq!(
            &a.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"to-a"
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn irq_stalls_sender_until_ack() {
        let (a, b) = stack_pair(&["irq"]);
        // The IRQ window is 1: sends serialise on acks, but all arrive.
        for i in 0..5u8 {
            a.endpoint().send(Bytes::from(vec![i])).unwrap();
        }
        for i in 0..5u8 {
            let got = b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got[0], i);
        }
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn meters_count_traffic() {
        let (a, b) = stack_pair(&[]);
        a.endpoint().send(Bytes::from(vec![0u8; 500])).unwrap();
        b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(a.endpoint().tx_meter().bytes(), 500);
        assert_eq!(b.endpoint().rx_meter().bytes(), 500);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn shutdown_with_flooded_queues_does_not_deadlock() {
        // A sender flooding the stack is inside the chain, or writing, at
        // any moment: shutdown must get past it, and the sender must see
        // the stack end instead of waiting on it.
        let (ta, tb) = loopback_pair();
        let opts = RuntimeOptions::default();
        let a = piped(modules_from(&["dummy"; 5]), ta, &opts);
        let b = piped(modules_from(&[]), tb, &opts);
        let ep = a.endpoint().clone();
        let flooder = std::thread::spawn(move || {
            for _ in 0..10_000 {
                if ep.send(Bytes::from(vec![0u8; 1024])).is_err() {
                    return;
                }
            }
        });
        std::thread::sleep(Duration::from_millis(50));
        let start = Instant::now();
        a.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown deadlocked with full queues"
        );
        b.shutdown();
        let _ = flooder.join();
    }

    #[test]
    fn a_packet_in_a_modules_hands_is_not_quiescence() {
        // Every queue is empty while a module holds the one packet in
        // flight; a drain that called that quiet would let the close that
        // follows it cut off the last frame of a stream.
        struct Gate {
            entered: std::sync::mpsc::Sender<()>,
            release: std::sync::mpsc::Receiver<()>,
        }
        impl Module for Gate {
            fn name(&self) -> &str {
                "gate"
            }
            fn process_down(&mut self, pkt: Packet, out: &mut Outputs) {
                self.entered.send(()).unwrap();
                self.release.recv().unwrap();
                out.push_down(pkt);
            }
            fn process_up(&mut self, pkt: Packet, out: &mut Outputs) {
                out.push_up(pkt);
            }
        }
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let gate = Gate {
            entered: entered_tx,
            release: release_rx,
        };
        let (ta, tb) = loopback_pair();
        let a = piped(vec![Box::new(gate)], ta, &RuntimeOptions::default());
        assert!(a.is_quiescent());
        // The send is *in* the module while the gate holds it.
        let sender = {
            let endpoint = a.endpoint().clone();
            std::thread::spawn(move || endpoint.send(Bytes::from_static(b"last frame")).unwrap())
        };
        entered_rx.recv().unwrap();
        assert!(!a.is_quiescent(), "the gate module holds a packet");
        assert!(!a.drain(Duration::from_millis(20)));
        release_tx.send(()).unwrap();
        assert!(a.drain(Duration::from_secs(5)));
        assert_eq!(
            &tb.recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"last frame"
        );
        sender.join().unwrap();
        a.shutdown();
    }

    #[test]
    fn a_stalled_module_mid_chain_stalls_send_and_lets_its_acks_climb() {
        // The peer's stack runs but nothing feeds it yet, so no
        // acknowledgement comes back: `irq` (window 1) lets one packet out
        // and stops taking its queue.
        let chain = ["dummy", "irq", "dummy"];
        let (ta, tb) = loopback_pair();
        let opts = RuntimeOptions::default();
        let a = piped(modules_from(&chain), ta, &opts);
        let tb: Arc<dyn Transport> = Arc::new(tb);
        let b = build_stack(modules_from(&chain), tb.clone(), &opts);

        // One packet on the wire, one standing in front of `irq`: `send`
        // stalls at exactly that.
        let mut sent = 0u32;
        let mut refused_since = Instant::now();
        while refused_since.elapsed() < Duration::from_millis(50) {
            match a.endpoint().try_send(Bytes::from(sent.to_be_bytes().to_vec())) {
                Ok(()) => {
                    sent += 1;
                    refused_since = Instant::now();
                }
                Err(DacapoError::Timeout(_)) => std::thread::yield_now(),
                Err(e) => panic!("send failed: {e}"),
            }
        }
        assert_eq!(sent, 2);
        assert!(!a.is_quiescent());

        // The peer starts reading. Its acknowledgements climb `a` past
        // the bottom `dummy` to `irq` while `a`'s down queues stand, and
        // each one lets the next packet through.
        let b_pump = RxPump::spawn(tb, &b, None, || {}).unwrap();
        a.endpoint().send(Bytes::from(sent.to_be_bytes().to_vec())).unwrap();
        for i in 0..=sent {
            let got = b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(&got[..], &i.to_be_bytes());
        }
        assert!(a.drain(Duration::from_secs(5)));
        a.shutdown();
        b_pump.shutdown();
    }

    #[test]
    fn one_packet_fanning_out_past_the_window_arrives_whole_and_in_order() {
        use crate::modules::{ArqModule, FragmentModule};
        // 40 fragments against a window of 4: the fragments stand in
        // `go-back-n`'s queue and leave as acknowledgements arrive; the
        // second packet is not admitted until the first has left.
        let chain = || -> Vec<Box<dyn Module>> {
            vec![
                Box::new(FragmentModule::new(16)),
                Box::new(ArqModule::go_back_n(4)),
            ]
        };
        let (ta, tb) = loopback_pair();
        let opts = RuntimeOptions::default();
        let a = piped(chain(), ta, &opts);
        let b = piped(chain(), tb, &opts);
        let first: Vec<u8> = (0..640u32).map(|i| i as u8).collect();
        let second: Vec<u8> = (0..640u32).map(|i| (i * 7) as u8).collect();
        a.endpoint().send(Bytes::from(first.clone())).unwrap();
        a.endpoint().send(Bytes::from(second.clone())).unwrap();
        assert_eq!(&b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..], &first[..]);
        assert_eq!(&b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..], &second[..]);
        assert!(a.drain(Duration::from_secs(5)));
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn ticks_are_not_starved_by_traffic() {
        /// Swallows the first frame sent, passes every other.
        struct LosesTheFirst {
            inner: crate::tlayer::LoopbackTransport,
            lost: AtomicBool,
        }
        impl Transport for LosesTheFirst {
            fn send(&self, frame: Bytes) -> Result<(), DacapoError> {
                if self.lost.swap(true, Ordering::AcqRel) {
                    self.inner.send(frame)
                } else {
                    Ok(())
                }
            }
            fn recv(&self) -> Result<Bytes, DacapoError> {
                self.inner.recv()
            }
            fn recv_timeout(&self, timeout: Duration) -> Result<Bytes, DacapoError> {
                self.inner.recv_timeout(timeout)
            }
            fn close(&self) {
                self.inner.close()
            }
            fn name(&self) -> &str {
                "loses-the-first"
            }
        }
        let (ta, tb) = loopback_pair();
        let ta = LosesTheFirst {
            inner: ta,
            lost: AtomicBool::new(false),
        };
        let opts = RuntimeOptions::default();
        let a = piped(modules_from(&["go-back-n"]), ta, &opts);
        let b = piped(modules_from(&["go-back-n"]), tb, &opts);

        // A's one frame is lost; only a retransmission, which only a tick
        // starts, can deliver it. Meanwhile B keeps A's receive thread
        // busy: a packet every millisecond, so A is never silent for a
        // tick interval.
        a.endpoint().send(Bytes::from_static(b"lost once")).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let chatter = {
            let (stop, b_end) = (stop.clone(), b.endpoint().clone());
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    b_end.send(Bytes::from_static(b"chatter")).unwrap();
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };
        let got = b.endpoint().recv_timeout(Duration::from_millis(500));
        stop.store(true, Ordering::Release);
        chatter.join().unwrap();
        assert_eq!(&got.expect("retransmitted under traffic")[..], b"lost once");
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn shutdown_joins_quickly() {
        let (a, b) = stack_pair(&["dummy"; 8]);
        let start = Instant::now();
        a.shutdown();
        b.shutdown();
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    #[test]
    fn peer_shutdown_reaches_the_application_at_once() {
        let (a, b) = stack_pair(&["dummy", "dummy"]);
        let start = Instant::now();
        a.shutdown();
        // Closing a's transport wakes b's pump; the sentinel climbs b's
        // modules and ends the receive long before its timeout.
        let r = b.endpoint().recv_timeout(Duration::from_secs(10));
        assert!(matches!(r, Err(DacapoError::Closed)), "got {r:?}");
        assert!(start.elapsed() < Duration::from_secs(5));
        b.shutdown();
    }

    #[test]
    fn close_sentinel_stays_behind_the_data_it_followed() {
        // Every frame on the wire before the close is delivered through
        // the module queues before the application reads `Closed`.
        let (ta, tb) = loopback_pair();
        let b = piped(modules_from(&["dummy"; 6]), tb, &RuntimeOptions::default());
        for i in 0..200u8 {
            ta.send(Bytes::from(vec![i; 16])).unwrap();
        }
        ta.close();
        for i in 0..200u8 {
            let got = b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(got[0], i);
        }
        let r = b.endpoint().recv_timeout(Duration::from_secs(5));
        assert!(matches!(r, Err(DacapoError::Closed)), "got {r:?}");
        assert!(b.transport_closed());
        b.shutdown();
    }

    #[test]
    fn telemetry_counts_module_and_wire_traffic() {
        let (ta, tb) = loopback_pair();
        let registry = Arc::new(Registry::new());
        let opts = RuntimeOptions {
            telemetry: Some(registry.clone()),
        };
        let a = piped(modules_from(&["crc32"]), ta, &opts);
        let b = piped(modules_from(&["crc32"]), tb, &opts);
        for i in 0..10u8 {
            a.endpoint().send(Bytes::from(vec![i; 64])).unwrap();
        }
        for _ in 0..10 {
            b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap();
        }
        a.shutdown();
        b.shutdown();
        let snap = registry.snapshot();
        let down = snap
            .counter("dacapo_module_frames_total{module=\"crc32\",dir=\"down\"}")
            .unwrap_or(0);
        let up = snap
            .counter("dacapo_module_frames_total{module=\"crc32\",dir=\"up\"}")
            .unwrap_or(0);
        assert!(down >= 10, "down frames through crc32: {down}");
        assert!(up >= 10, "up frames through crc32: {up}");
        assert!(
            snap.counter("dacapo_module_bytes_total{module=\"crc32\",dir=\"down\"}")
                .unwrap_or(0)
                >= 640
        );
        assert!(
            snap.counter("dacapo_wire_frames_total{dir=\"tx\"}").unwrap_or(0) >= 10
        );
        assert!(
            snap.counter("dacapo_wire_frames_total{dir=\"rx\"}").unwrap_or(0) >= 10
        );
        assert!(snap.gauge("dacapo_module_queue_depth{module=\"crc32\"}").is_some());
    }

    #[test]
    fn transport_death_signals_application_promptly() {
        let (ta, tb) = loopback_pair();
        let b = piped(modules_from(&[]), tb, &RuntimeOptions::default());
        // Data in flight before the wire dies is still delivered.
        ta.send(Bytes::from_static(b"last words")).unwrap();
        assert_eq!(
            &b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"last words"
        );
        // Sever the wire: the close wakes b's RX pump, which must surface
        // it to the application instead of dying silently and leaving
        // receives to idle out their timeout.
        ta.close();
        let start = Instant::now();
        let r = b.endpoint().recv_timeout(Duration::from_secs(10));
        assert!(matches!(r, Err(DacapoError::Closed)), "got {r:?}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "closure not surfaced promptly: {:?}",
            start.elapsed()
        );
        assert!(b.transport_closed());
        // Sends after death fail attributed, not swallowed.
        assert!(matches!(
            b.endpoint().send(Bytes::from_static(b"x")),
            Err(DacapoError::Closed)
        ));
        b.shutdown();
    }

    #[test]
    fn a_sender_parked_behind_a_stalled_module_is_released_when_the_peer_closes() {
        // Send-only, and nobody receives: the close sentinel will sit in
        // the endpoint's queue unread. The parked sender must hear of the
        // transport's end from the receive thread itself — the
        // acknowledgement it waits for will never come.
        let (ta, tb) = loopback_pair();
        let a = piped(modules_from(&["irq"]), ta, &RuntimeOptions::default());
        // One on the wire, one standing before `irq`; the third parks.
        a.endpoint().send(Bytes::from_static(b"1")).unwrap();
        a.endpoint().send(Bytes::from_static(b"2")).unwrap();
        let parked = {
            let endpoint = a.endpoint().clone();
            std::thread::spawn(move || endpoint.send(Bytes::from_static(b"3")))
        };
        std::thread::sleep(Duration::from_millis(50));
        assert!(!parked.is_finished(), "the third send went through a stalled module");
        let start = Instant::now();
        tb.close();
        let r = parked.join().unwrap();
        assert!(matches!(r, Err(DacapoError::Closed)), "got {r:?}");
        assert!(start.elapsed() < Duration::from_secs(1), "{:?}", start.elapsed());
        a.shutdown();
    }

    #[test]
    fn module_names_reported() {
        let (a, b) = stack_pair(&["xor-crypt", "crc32"]);
        assert_eq!(
            a.module_names(),
            &["xor-crypt".to_string(), "crc32".to_string()]
        );
        a.shutdown();
        b.shutdown();
    }
}
