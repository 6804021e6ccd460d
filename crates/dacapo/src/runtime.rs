//! The module-graph runtime: one executor thread per stack, a queue in
//! front of every module.
//!
//! The paper's Figure 6 gives each module a thread and two message queues
//! (*"Each module in Da CaPo is executed by a single thread … Modules
//! exchange pointers to packets over message queues"*). The queues are
//! still here — one per module and direction (down = towards the wire,
//! up = towards the application), control packets sharing them and told
//! apart by module-level header tags, which keeps the wire format
//! self-describing — but they are `VecDeque`s owned by the stack's single
//! `dacapo-stack` thread, which runs every module inline and writes to the
//! transport itself. A packet crosses the whole chain without a thread
//! handoff, and the executor keeps taking input until both its sources are
//! dry before it parks again, so under load a wake-up is paid per burst,
//! not per packet per module. What that gives up: the stages of one stack
//! no longer overlap on different cores (DESIGN §2).
//!
//! The executor has two inputs, both channels because other threads feed
//! them: the application's **down** queue and the wire's **up** queue (the
//! connection's [`RxPump`]). An empty graph has only the first: with no
//! module to run on the way up, the pump's frames go straight to the
//! application's queue.
//!
//! Backpressure discipline: the application's down queue is bounded. A
//! module whose [`Module::ready_for_down`] returns `false` leaves its own
//! queue standing, and the executor admits a new application packet only
//! while no packet stands in any module's queue — so a stalled module
//! stalls everything above it up to the application's `send` (that is how
//! the IRQ configuration throttles Figure 9's sender), and what the stack
//! buffers is bounded by that one queue plus the fan-out of one packet.
//! The **up** direction is unbounded: the wire already paces it, the
//! acknowledgements that release a stalled module arrive on it, and the
//! receive pump may forward under its slot lock without ever blocking.

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
use crossbeam::channel::{bounded, unbounded, Receiver, Select, Sender, TryRecvError};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Capacity of the application's bounded down queue: a stalled module
/// backpressures the application's `send` within this many packets.
const CHANNEL_CAPACITY: usize = 128;

/// Interval between [`Module::on_tick`] callbacks. This is a protocol
/// timer (it drives ARQ retransmission), *not* a data-path poll: packet
/// arrival wakes the executor immediately via its queue select. It runs
/// by deadline, checked after every batch, so traffic cannot starve it.
const TICK_INTERVAL: Duration = Duration::from_millis(20);

/// Packets the executor takes in before it looks at the clock, the
/// shutdown flag and the quiescence signal again.
const BATCH: usize = 64;

/// What a running stack reports to.
#[derive(Debug, Clone, Default)]
pub struct RuntimeOptions {
    /// When set, the executor reports per module its per-direction
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
/// counter bumped by the executor after every batch (and by the application
/// endpoint after every receive), so [`StackHandle::drain`] can park in a
/// condvar instead of sleep-polling.
///
/// A packet is *inside* from the moment a sender is about to queue it
/// (application send, receive pump) until it has left for good (handed to
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

    /// Announces "state changed, re-check quiescence" to any drainer.
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
}

/// A running module stack bound to a transport: the executor thread that
/// runs the modules and sends on the transport. The receiving side of the
/// transport is not the stack's — one [`RxPump`] per transport outlives
/// every stack built on it and feeds whichever one is current through its
/// [`Uplink`].
#[derive(Debug)]
pub struct StackHandle {
    app: AppEndpoint,
    uplink: Uplink,
    shutdown: Arc<AtomicBool>,
    executor: Option<JoinHandle<()>>,
    module_names: Vec<String>,
    /// Per-module idle flags maintained by the executor.
    idle_flags: Vec<Arc<AtomicBool>>,
    /// Counts the packets inside the stack; pulsed by the executor
    /// whenever that may have changed.
    quiesce: Arc<QuiesceSignal>,
    /// Shutdown wakeup: the executor selects on the matching receiver.
    /// Dropping this sender disconnects the channel and wakes it out of
    /// its select, so shutdown never waits for a tick to come round.
    wake: Option<Sender<()>>,
    /// Set once the application has been told the transport is gone: by
    /// the executor on a send failure, by the endpoint when the close
    /// sentinel reaches it.
    transport_dead: Arc<AtomicBool>,
}

impl StackHandle {
    /// The application endpoint of this stack.
    pub fn endpoint(&self) -> &AppEndpoint {
        &self.app
    }

    /// Where the transport's [`RxPump`] delivers into this stack.
    pub fn uplink(&self) -> Uplink {
        self.uplink.clone()
    }

    /// Names of the running modules, top to bottom.
    pub fn module_names(&self) -> &[String] {
        &self.module_names
    }

    /// Number of threads the stack runs: its executor, whatever the
    /// number of modules.
    pub fn thread_count(&self) -> usize {
        1
    }

    /// Whether the application has been told that the transport underneath
    /// this stack is gone (closed by the peer, severed, I/O error): a send
    /// failed, or every inbound frame that preceded the close has been
    /// received. New sends fail with [`DacapoError::Closed`].
    pub fn transport_closed(&self) -> bool {
        self.transport_dead.load(Ordering::Acquire)
    }

    /// Whether no packet is inside the stack — queued, or in the hands of
    /// a module or the receive pump — and every module reports no deferred
    /// state: all application traffic has reached the transport (or the
    /// application) and no ARQ window is outstanding.
    pub fn is_quiescent(&self) -> bool {
        self.quiesce.is_empty() && self.idle_flags.iter().all(|f| f.load(Ordering::Acquire))
    }

    /// Waits up to `timeout` for the stack to quiesce; returns whether it
    /// did. Used for graceful teardown: close after `drain` loses nothing.
    ///
    /// Event-driven: the executor pulses [`QuiesceSignal`] after each batch
    /// of work, so this parks in a condvar between re-checks instead of
    /// sleep-polling.
    pub fn drain(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            // Generation before the check: a pulse landing between the
            // check and the wait advances it, so the wait returns
            // immediately rather than missing the wakeup.
            let seen = self.quiesce.generation();
            if self.is_quiescent() {
                return true;
            }
            if !self.quiesce.wait_newer(seen, deadline) {
                return self.is_quiescent();
            }
        }
    }

    /// Stops the executor and joins it. The transport itself is *not*
    /// closed — the caller may rebuild a new stack on it
    /// (reconfiguration).
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Dropping the wake sender disconnects the executor's wake
        // receiver, popping it out of a blocking select immediately.
        self.wake.take();
        if let Some(executor) = self.executor.take() {
            let _ = executor.join();
        }
    }
}

impl Drop for StackHandle {
    fn drop(&mut self) {
        // Signal but do not join: destructors must not block. An explicit
        // `shutdown()` joins cleanly.
        self.shutdown.store(true, Ordering::Release);
        self.wake.take();
    }
}

/// Where wire frames enter a stack: the bottom of its up chain. Held by the
/// transport's [`RxPump`], replaced when the stack is.
#[derive(Debug, Clone)]
pub struct Uplink {
    up_bottom: Sender<Packet>,
    quiesce: Arc<QuiesceSignal>,
}

impl Uplink {
    fn send(&self, pkt: Packet) {
        self.quiesce.enter(1);
        // A stack that is gone takes no more packets; its successor's
        // uplink is installed before the pump reads on.
        if self.up_bottom.send(pkt).is_err() {
            self.quiesce.leave(1);
        }
    }

    fn forward(&self, frame: Bytes) {
        self.send(Packet::from_shared(frame, PacketKind::Data));
    }

    /// The wire closed: the close sentinel goes up *behind* the frames
    /// already forwarded, through every module's queue in order, so the
    /// application receives the tail of the traffic and then `Closed`.
    fn close(&self) {
        self.send(Packet::close_sentinel());
    }
}

/// The transport receive pump: one thread per transport, for as long as
/// the transport lives (a [`crate::Connection`] owns it). It blocks in
/// [`Transport::recv`] — woken by a frame or by [`Transport::close`] on
/// either side, never by a timer — and forwards each frame into whichever
/// stack's [`Uplink`] is installed in its forward slot. Reconfiguration
/// therefore stops and joins only the stack's executor, which selects on
/// the stack's wake channel, and a frame that arrives between two stacks
/// waits for the new one instead of dying with the old.
pub struct RxPump {
    transport: Arc<dyn Transport>,
    slot: Arc<OrderedMutex<Option<Uplink>>>,
    thread: JoinHandle<()>,
}

impl RxPump {
    /// Starts the pump on `transport`, delivering into `uplink`. When the
    /// transport reports its end (closed by either side, I/O error) the
    /// pump runs `on_closed`, then sends the close sentinel up the current
    /// stack, and exits.
    ///
    /// # Errors
    ///
    /// [`DacapoError::Runtime`] if the OS thread cannot be spawned.
    pub fn spawn(
        transport: Arc<dyn Transport>,
        uplink: Uplink,
        telemetry: Option<&Registry>,
        on_closed: impl FnOnce() + Send + 'static,
    ) -> Result<Self, DacapoError> {
        let slot = Arc::new(OrderedMutex::new(
            lock_rank::CONNECTION_UPLINK,
            "connection.uplink",
            Some(uplink),
        ));
        let wire = telemetry.map(|r| wire_counters(r, "rx"));
        let (pump_transport, pump_slot) = (transport.clone(), slot.clone());
        let thread = std::thread::Builder::new()
            .name("dacapo-t-rx".into())
            .spawn(move || rx_pump_loop(&*pump_transport, &pump_slot, wire, on_closed))
            .map_err(|e| DacapoError::Runtime(format!("spawn dacapo-t-rx: {e}")))?;
        Ok(RxPump {
            transport,
            slot,
            thread,
        })
    }

    /// Locks the forward slot for a stack swap. While the guard is held the
    /// pump parks with the frame it has just read; once it drops, that
    /// frame and every later one go to the uplink the guard left behind
    /// (`None` drops them).
    pub fn swap(&self) -> OrderedMutexGuard<'_, Option<Uplink>> {
        self.slot.lock()
    }

    /// Closes the transport — the one thing that wakes the pump — and
    /// joins it.
    pub fn shutdown(self) {
        self.transport.close();
        let _ = self.thread.join();
    }
}

fn rx_pump_loop(
    transport: &dyn Transport,
    slot: &OrderedMutex<Option<Uplink>>,
    wire: Option<(Arc<Counter>, Arc<Counter>)>,
    on_closed: impl FnOnce(),
) {
    while let Ok(frame) = transport.recv() {
        if let Some((frames, bytes)) = &wire {
            frames.inc();
            bytes.add(frame.len() as u64);
        }
        // The up queue is unbounded, so the send under the slot lock
        // never blocks; a swap in progress holds the lock and parks the
        // pump until the new stack is in.
        if let Some(uplink) = slot.lock().as_ref() {
            uplink.forward(frame);
        }
    }
    on_closed();
    if let Some(uplink) = slot.lock().as_ref() {
        uplink.close();
    }
}

fn wire_counters(registry: &Registry, dir: &str) -> (Arc<Counter>, Arc<Counter>) {
    (
        registry.counter(&Registry::labeled("dacapo_wire_frames_total", &[("dir", dir)])),
        registry.counter(&Registry::labeled("dacapo_wire_bytes_total", &[("dir", dir)])),
    )
}

/// Builds and starts a stack: `modules` top-to-bottom between the
/// application and `transport`.
///
/// # Errors
///
/// [`DacapoError::Runtime`] if the executor's OS thread cannot be spawned.
pub fn build_stack(
    modules: Vec<Box<dyn Module>>,
    transport: Arc<dyn Transport>,
    opts: &RuntimeOptions,
) -> Result<StackHandle, DacapoError> {
    let shutdown = Arc::new(AtomicBool::new(false));
    let quiesce = Arc::new(QuiesceSignal::default());
    let transport_dead = Arc::new(AtomicBool::new(false));
    // Never sent on: exists only so that dropping `wake_tx` (at shutdown)
    // disconnects the receiver and wakes the executor's select. It
    // carries no data, its capacity is irrelevant, and nothing can queue
    // on it — boundedness is moot.
    // lint: allow(A005, §7.4: never sent on — exists only so drop disconnects and wakes the executor's select)
    let (wake_tx, wake_rx) = unbounded::<()>();
    let module_names: Vec<String> = modules.iter().map(|m| m.name().to_owned()).collect();

    // The executor's two inputs and its one output to another thread.
    let (app_down_tx, app_down_rx) = bounded::<Packet>(CHANNEL_CAPACITY);
    // lint: allow(A005, §7.4: filled by the executor at the pace of the wire and drained by the app endpoint; the executor must never block on the application)
    let (app_up_tx, app_up_rx) = unbounded::<Packet>();
    // An empty graph has nothing to run on the way up: what the receive
    // pump reads is the application's as it stands, and goes to its queue
    // without a stop at the executor.
    let (wire_up_tx, wire_up_rx) = if modules.is_empty() {
        (app_up_tx.clone(), None)
    } else {
        // Unbounded by design (module header): the wire paces the up
        // direction, the acknowledgements that unstall a module travel on
        // it, and the receive pump forwards under its slot lock.
        // lint: allow(A005, §7.4: up direction is wire-paced and drained by the executor whatever else stalls; the receive pump forwards under its slot lock and must not block)
        let (tx, rx) = unbounded::<Packet>();
        (tx, Some(rx))
    };

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
            idle: Arc::new(AtomicBool::new(true)),
        })
        .collect();
    let idle_flags = stages.iter().map(|s| s.idle.clone()).collect();
    let executor = Executor {
        stages,
        queued: 0,
        out: Outputs::new(),
        transport,
        app_up: app_up_tx,
        shutdown: shutdown.clone(),
        quiesce: quiesce.clone(),
        transport_dead: transport_dead.clone(),
        wire: opts.telemetry.as_deref().map(|r| wire_counters(r, "tx")),
        registry: opts.telemetry.clone(),
    };
    let executor = std::thread::Builder::new()
        .name("dacapo-stack".into())
        .spawn(move || {
            // Told to stop or out of things to serve: either way it is over.
            let _ = executor.run(&app_down_rx, wire_up_rx.as_ref(), &wake_rx);
        })
        .map_err(|e| DacapoError::Runtime(format!("spawn dacapo-stack: {e}")))?;

    let app = AppEndpoint::new(
        app_down_tx,
        app_up_rx,
        Arc::new(ThroughputMeter::new()),
        Arc::new(ThroughputMeter::new()),
        quiesce.clone(),
        transport_dead.clone(),
    );
    let uplink = Uplink {
        up_bottom: wire_up_tx,
        quiesce: quiesce.clone(),
    };
    Ok(StackHandle {
        app,
        uplink,
        shutdown,
        executor: Some(executor),
        module_names,
        idle_flags,
        quiesce,
        wake: Some(wake_tx),
        transport_dead,
    })
}

/// One module's place in the chain, with the queues in front of it.
struct Stage {
    module: Box<dyn Module>,
    /// Packets on their way down, waiting for this module. Stands while
    /// the module is not [`Module::ready_for_down`].
    down: VecDeque<Packet>,
    /// Packets on their way up, waiting for this module.
    up: VecDeque<Packet>,
    idle: Arc<AtomicBool>,
    telemetry: Option<ModuleTelemetry>,
}

/// The executor has nothing left to serve: the transport no longer takes
/// frames, or the handle and everything that fed the stack are gone.
struct Ended;

/// The next packet queued on `rx`, if there is one.
fn try_take(rx: &Receiver<Packet>) -> Result<Option<Packet>, Ended> {
    match rx.try_recv() {
        Ok(pkt) => Ok(Some(pkt)),
        Err(TryRecvError::Empty) => Ok(None),
        Err(TryRecvError::Disconnected) => Err(Ended),
    }
}

/// Everything a stack's one thread owns: the modules, the queues between
/// them and the transport's send side.
struct Executor {
    /// Top (application side) to bottom (wire side).
    stages: Vec<Stage>,
    /// Packets standing in the stages' queues. Up queues always run dry,
    /// so between two inputs this counts what stalled modules hold back.
    queued: usize,
    out: Outputs,
    transport: Arc<dyn Transport>,
    app_up: Sender<Packet>,
    shutdown: Arc<AtomicBool>,
    quiesce: Arc<QuiesceSignal>,
    transport_dead: Arc<AtomicBool>,
    wire: Option<(Arc<Counter>, Arc<Counter>)>,
    registry: Option<Arc<Registry>>,
}

impl Executor {
    /// The executor's thread: takes packets from the application and the
    /// wire, a batch at a time, for as long as either has any; parks in a
    /// select over both when they are dry. `wire_up` is `None` for an empty
    /// graph, whose up direction does not come this way.
    fn run(
        mut self,
        app_down: &Receiver<Packet>,
        wire_up: Option<&Receiver<Packet>>,
        wake: &Receiver<()>,
    ) -> Result<(), Ended> {
        let start = Instant::now();
        let mut next_tick = start + TICK_INTERVAL;
        let bottom = self.stages.len();
        while !self.shutdown.load(Ordering::Acquire) {
            let mut taken = 0;
            while taken < BATCH {
                let before = taken;
                // The wire first: what it brings (acknowledgements) is
                // what lets a stalled module take the next packet down.
                let from_wire = match wire_up {
                    Some(wire_up) => try_take(wire_up)?,
                    None => None,
                };
                if let Some(pkt) = from_wire {
                    taken += 1;
                    self.push_up(bottom, pkt);
                    self.settle_queues()?;
                }
                if self.queued == 0 {
                    if let Some(pkt) = try_take(app_down)? {
                        taken += 1;
                        self.push_down(0, pkt)?;
                        self.settle_queues()?;
                    }
                }
                if taken == before {
                    break;
                }
            }

            let now = Instant::now();
            let ticked = now >= next_tick;
            if ticked {
                next_tick = now + TICK_INTERVAL;
                self.tick(now - start)?;
            }
            if taken > 0 || ticked {
                // Whatever this batch moved on has moved: a drainer may
                // now observe quiescence.
                self.quiesce.pulse();
            }
            if taken == BATCH {
                continue;
            }

            // Both inputs dry (or the application held off by a stalled
            // module): park until either has something, shutdown
            // disconnects the wake channel, or the next tick is due. What
            // woke it is not taken here; the loop above looks again.
            let mut sel = Select::new();
            sel.recv(wake);
            if let Some(wire_up) = wire_up {
                sel.recv(wire_up);
            }
            if self.queued == 0 {
                sel.recv(app_down);
            }
            let _ = sel.select_timeout(next_tick.saturating_duration_since(now));
        }
        Ok(())
    }

    /// Queues `pkt` for stage `to` on its way down; below the last stage
    /// is the wire.
    fn push_down(&mut self, to: usize, pkt: Packet) -> Result<(), Ended> {
        match self.stages.get_mut(to) {
            Some(stage) => {
                stage.down.push_back(pkt);
                self.queued += 1;
                Ok(())
            }
            None => self.transmit(pkt),
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
            // The application's queue is unbounded; a closed one just
            // means the application side is gone — keep running so
            // in-flight ARQ traffic can still drain.
            None => {
                if self.app_up.send(pkt).is_err() {
                    self.quiesce.leave(1);
                }
            }
        }
    }

    fn transmit(&mut self, pkt: Packet) -> Result<(), Ended> {
        let wire_len = pkt.len() as u64;
        let sent = self.transport.send(pkt.into_bytes());
        self.quiesce.leave(1);
        if sent.is_err() {
            // The wire no longer takes what the application sends: tell it
            // now, ahead of anything still climbing the up queues (a failed
            // send is not an orderly close), unless this is our own
            // teardown.
            if !self.shutdown.load(Ordering::Acquire) {
                self.transport_dead.store(true, Ordering::Release);
                if let Some(r) = &self.registry {
                    r.flight_event(
                        flight_event::TRANSPORT_DEAD,
                        None,
                        "dacapo executor: transport send failed".to_owned(),
                    );
                }
                self.quiesce.enter(1);
                let _ = self.app_up.send(Packet::close_sentinel());
                self.quiesce.pulse();
            }
            return Err(Ended);
        }
        if let Some((frames, bytes)) = &self.wire {
            frames.inc();
            bytes.add(wire_len);
        }
        Ok(())
    }

    /// Runs every queued packet that can run: up queues bottom to top,
    /// then down queues top to bottom past every module that is ready,
    /// again until nothing moves. Returns with all queues empty, or with
    /// what a module that is not ready leaves standing.
    fn settle_queues(&mut self) -> Result<(), Ended> {
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
                    self.forward(i, 1)?;
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
                    self.forward(i, 1)?;
                }
            }
            if !moved {
                break;
            }
        }
        Ok(())
    }

    /// The protocol timer: every module's [`Module::on_tick`], then
    /// whatever that set moving (a retransmission, say).
    fn tick(&mut self, now: Duration) -> Result<(), Ended> {
        for i in 0..self.stages.len() {
            self.stages[i].module.on_tick(now, &mut self.out);
            self.forward(i, 0)?;
        }
        self.settle_queues()
    }

    /// Moves what stage `i` emitted for one event, in which it took `took`
    /// packets in, to its neighbours' queues.
    fn forward(&mut self, i: usize, took: usize) -> Result<(), Ended> {
        // Settle the books before anything moves on: whoever can see a
        // packet this module sent (the peer acknowledging it, say) must
        // also see what it left behind here. The stack's packet count takes
        // the difference between what came in and what goes out — a packet
        // passed through stays counted all along — and an ARQ window reads
        // "not idle" from before its data leaves until the acknowledgement
        // has come back.
        let emitted = self.out.len();
        if emitted > took {
            self.quiesce.enter(emitted - took);
        } else {
            self.quiesce.leave(took - emitted);
        }
        let stage = &self.stages[i];
        stage.idle.store(stage.module.is_idle(), Ordering::Release);
        if let Some(t) = &stage.telemetry {
            t.queue_depth.set((stage.down.len() + stage.up.len()) as f64);
        }
        for pkt in self.out.take_down() {
            self.push_down(i + 1, pkt)?;
        }
        for pkt in self.out.take_up() {
            self.push_up(i, pkt);
        }
        Ok(())
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
            self.stack.shutdown();
        }
    }

    fn piped(modules: Vec<Box<dyn Module>>, transport: impl Transport, opts: &RuntimeOptions) -> Piped {
        let transport: Arc<dyn Transport> = Arc::new(transport);
        let stack = build_stack(modules, transport.clone(), opts).unwrap();
        let pump =
            RxPump::spawn(transport, stack.uplink(), opts.telemetry.as_deref(), || {}).unwrap();
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
        assert_eq!(a.thread_count(), 1);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn dummy_chain_round_trip() {
        let (a, b) = stack_pair(&["dummy", "dummy", "dummy"]);
        assert_eq!(a.thread_count(), 1);
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
        // Regression: a sender flooding the stack leaves bounded queues
        // full; shutdown must still unblock modules stuck in `send`.
        let (ta, tb) = loopback_pair();
        // A transport that swallows sends keeps the wire from draining.
        let opts = RuntimeOptions::default();
        let a = piped(modules_from(&["dummy"; 5]), ta, &opts);
        let b = piped(modules_from(&[]), tb, &opts);
        // Flood until the app-side send would block, then a bit more from
        // a background thread to guarantee blocked module sends.
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
        a.endpoint().send(Bytes::from_static(b"last frame")).unwrap();
        entered_rx.recv().unwrap();
        assert!(!a.is_quiescent(), "the gate module holds a packet");
        assert!(!a.drain(Duration::from_millis(20)));
        release_tx.send(()).unwrap();
        assert!(a.drain(Duration::from_secs(5)));
        assert_eq!(
            &tb.recv_timeout(Duration::from_secs(5)).unwrap()[..],
            b"last frame"
        );
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
        let b = build_stack(modules_from(&chain), tb.clone(), &opts).unwrap();

        // One packet on the wire, one standing in front of `irq`, and the
        // application's queue behind them: `send` stalls at exactly that.
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
        assert_eq!(sent as usize, CHANNEL_CAPACITY + 2);
        assert!(!a.is_quiescent());

        // The peer starts reading. Its acknowledgements climb `a` past
        // the bottom `dummy` to `irq` while `a`'s down queues stand, and
        // each one lets the next packet through.
        let b_pump = RxPump::spawn(tb, b.uplink(), None, || {}).unwrap();
        a.endpoint().send(Bytes::from(sent.to_be_bytes().to_vec())).unwrap();
        for i in 0..=sent {
            let got = b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(&got[..], &i.to_be_bytes());
        }
        assert!(a.drain(Duration::from_secs(5)));
        a.shutdown();
        b_pump.shutdown();
        b.shutdown();
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
    fn a_backlog_is_moved_in_batches_not_packet_by_packet() {
        // Holds the executor inside the first packet until released, and
        // counts what it has passed up.
        struct Hold {
            entered: std::sync::mpsc::Sender<()>,
            release: std::sync::mpsc::Receiver<()>,
            passed: Arc<AtomicUsize>,
        }
        impl Module for Hold {
            fn name(&self) -> &str {
                "hold"
            }
            fn process_down(&mut self, pkt: Packet, out: &mut Outputs) {
                out.push_down(pkt);
            }
            fn process_up(&mut self, pkt: Packet, out: &mut Outputs) {
                if self.passed.load(Ordering::Acquire) == 0 {
                    self.entered.send(()).unwrap();
                    self.release.recv().unwrap();
                }
                out.push_up(pkt);
                self.passed.fetch_add(1, Ordering::AcqRel);
            }
        }
        const BACKLOG: usize = 1000;
        let (entered_tx, entered_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let passed = Arc::new(AtomicUsize::new(0));
        let hold = Hold {
            entered: entered_tx,
            release: release_rx,
            passed: passed.clone(),
        };
        let (ta, tb) = loopback_pair();
        let mut modules = modules_from(&["dummy"]);
        modules.insert(0, Box::new(hold));
        let b = piped(modules, tb, &RuntimeOptions::default());
        for i in 0..BACKLOG as u32 {
            ta.send(Bytes::from(i.to_be_bytes().to_vec())).unwrap();
        }
        // The pump counts a packet in before it queues it: once all are
        // counted (and the executor is held inside the first), the
        // backlog is in the executor's up queue.
        entered_rx.recv().unwrap();
        while b.quiesce.in_flight.load(Ordering::SeqCst) < BACKLOG {
            std::thread::yield_now();
        }
        let before = b.quiesce.generation();
        release_tx.send(()).unwrap();
        while passed.load(Ordering::Acquire) < BACKLOG {
            std::thread::yield_now();
        }
        // The application has taken nothing yet, so every pulse so far is
        // the executor's: one a batch, not one a packet (let alone one a
        // packet a module).
        let pulses = b.quiesce.generation() - before;
        assert!(
            pulses as usize <= 2 * BACKLOG / BATCH + 2,
            "{pulses} pulses for {BACKLOG} packets"
        );
        for i in 0..BACKLOG as u32 {
            let got = b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(&got[..], &i.to_be_bytes());
        }
        assert!(b.drain(Duration::from_secs(5)));
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
        // starts, can deliver it. Meanwhile B keeps A's executor busy: a
        // packet every millisecond, so A is never silent for a tick
        // interval.
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
            ..RuntimeOptions::default()
        };
        let a = piped(modules_from(&["crc32"]), ta, &opts);
        let b = piped(modules_from(&["crc32"]), tb, &opts);
        for i in 0..10u8 {
            a.endpoint().send(Bytes::from(vec![i; 64])).unwrap();
        }
        for _ in 0..10 {
            b.endpoint().recv_timeout(Duration::from_secs(5)).unwrap();
        }
        // Joined first: a pump counts a frame after handing it on, so the
        // receiver can have the tenth before its sender has counted it.
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
