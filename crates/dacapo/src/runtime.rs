//! The module-graph runtime: one thread per module, message queues in
//! between.
//!
//! This is the paper's Figure 6 materialised: *"Each module in Da CaPo is
//! executed by a single thread … Modules exchange pointers to packets over
//! message queues. Each module has two message queues associated: one for
//! data and one for control information."* Here the two directions (down =
//! towards the wire, up = towards the application) are the two queues;
//! control packets share the queues and are told apart by module-level
//! header tags, which keeps the wire format self-describing.
//!
//! Backpressure discipline: **down** channels are bounded — a module whose
//! [`Module::ready_for_down`] returns `false` simply stops draining its
//! down queue, which stalls everything above it up to the application
//! (that is how the IRQ configuration throttles Figure 9's sender).
//! **Up** channels are unbounded: the wire already paces them, and keeping
//! them non-blocking rules out send/send deadlock between neighbouring
//! threads.

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
use crossbeam::channel::{bounded, unbounded, Receiver, Select, Sender};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Capacity of each bounded down-direction queue: a stalled module
/// backpressures the application's `send` within this many packets a hop.
const CHANNEL_CAPACITY: usize = 128;

/// Interval between [`Module::on_tick`] callbacks. This is a protocol
/// timer (it drives ARQ retransmission), *not* a data-path poll: packet
/// arrival wakes a module immediately via its queue select.
const TICK_INTERVAL: Duration = Duration::from_millis(20);

/// What a running stack reports to.
#[derive(Debug, Clone, Default)]
pub struct RuntimeOptions {
    /// When set, every module thread reports per-direction frame/byte
    /// throughput (`dacapo_module_frames_total{module,dir}`,
    /// `dacapo_module_bytes_total{module,dir}`) and its input-queue depth
    /// (`dacapo_module_queue_depth{module}`), and the transport pumps (the
    /// stack's TX pump, the connection's [`RxPump`]) report wire traffic
    /// (`dacapo_wire_frames_total{dir}`, `dacapo_wire_bytes_total{dir}`)
    /// into this registry.
    pub telemetry: Option<Arc<Registry>>,
}

/// Pre-resolved registry handles for one module thread.
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
/// counter bumped by every stack thread (and the application endpoint)
/// after it moves work on, so [`StackHandle::drain`] can park in a condvar
/// instead of sleep-polling.
///
/// A packet is *inside* from the moment a sender is about to queue it
/// (application send, receive pump) until it has left for good (handed to
/// the transport, received by the application, consumed by a module) — so
/// also while a thread holds it between two queues, which looking at the
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

/// A running module stack bound to a transport: the module threads and the
/// transport TX pump. The receiving side of the transport is not the
/// stack's — one [`RxPump`] per transport outlives every stack built on it
/// and feeds whichever one is current through its [`Uplink`].
#[derive(Debug)]
pub struct StackHandle {
    app: AppEndpoint,
    uplink: Uplink,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    module_names: Vec<String>,
    /// Per-module idle flags maintained by the module threads.
    idle_flags: Vec<Arc<AtomicBool>>,
    /// Counts the packets inside the stack; pulsed by stack threads
    /// whenever that may have changed.
    quiesce: Arc<QuiesceSignal>,
    /// Shutdown wakeup: every stack thread selects on a clone of the
    /// matching receiver. Dropping this sender disconnects the channel and
    /// wakes all threads blocked in a select, so shutdown never waits for
    /// a tick or poll interval to expire.
    wake: Option<Sender<()>>,
    /// Set once the application has been told the transport is gone: by
    /// the TX pump on a send failure, by the endpoint when the close
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

    /// Number of worker threads (modules + the transport TX pump).
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Whether the application has been told that the transport underneath
    /// this stack is gone (closed by the peer, severed, I/O error): a send
    /// failed, or every inbound frame that preceded the close has been
    /// received. New sends fail with [`DacapoError::Closed`].
    pub fn transport_closed(&self) -> bool {
        self.transport_dead.load(Ordering::Acquire)
    }

    /// Whether no packet is inside the stack — queued, or in the hands of
    /// a module or pump thread — and every module reports no deferred
    /// state: all application traffic has reached the transport (or the
    /// application) and no ARQ window is outstanding.
    pub fn is_quiescent(&self) -> bool {
        self.quiesce.is_empty() && self.idle_flags.iter().all(|f| f.load(Ordering::Acquire))
    }

    /// Waits up to `timeout` for the stack to quiesce; returns whether it
    /// did. Used for graceful teardown: close after `drain` loses nothing.
    ///
    /// Event-driven: stack threads pulse [`QuiesceSignal`] after draining
    /// work, so this parks in a condvar between re-checks instead of
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

    /// Stops all stack threads and joins them. The transport itself is
    /// *not* closed — the caller may rebuild a new stack on it
    /// (reconfiguration).
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Dropping the wake sender disconnects every thread's wake
        // receiver, popping them out of blocking selects immediately.
        self.wake.take();
        for t in self.threads.drain(..) {
            let _ = t.join();
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
    /// already forwarded, through every module queue in order, so the
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
/// therefore stops and joins only threads that select on the stack's wake
/// channel, and a frame that arrives between two stacks waits for the new
/// one instead of dying with the old.
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
        // The up queues are unbounded, so the send under the slot lock
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

/// Tears down a partially built stack after a spawn failure: signals
/// shutdown, disconnects the wake channel and joins what already started.
fn abort_partial_stack(
    shutdown: &AtomicBool,
    wake_tx: &mut Option<Sender<()>>,
    threads: &mut Vec<JoinHandle<()>>,
) {
    shutdown.store(true, Ordering::Release);
    wake_tx.take();
    for t in threads.drain(..) {
        let _ = t.join();
    }
}

/// Builds and starts a stack: `modules` top-to-bottom between the
/// application and `transport`.
///
/// # Errors
///
/// [`DacapoError::Runtime`] if an OS thread cannot be spawned; threads
/// already started are torn down before returning.
pub fn build_stack(
    modules: Vec<Box<dyn Module>>,
    transport: Arc<dyn Transport>,
    opts: &RuntimeOptions,
) -> Result<StackHandle, DacapoError> {
    let shutdown = Arc::new(AtomicBool::new(false));
    let quiesce = Arc::new(QuiesceSignal::default());
    let transport_dead = Arc::new(AtomicBool::new(false));
    // Never sent on: exists only so that dropping `wake_tx` (at shutdown)
    // disconnects the receivers and wakes every blocked select below. It
    // carries no data, its capacity is irrelevant, and nothing can queue
    // on it — boundedness is moot.
    // lint: allow(A005, §7.4: never sent on — exists only so drop disconnects and wakes blocked selects)
    let (wake_tx, wake_rx) = unbounded::<()>();
    let mut wake_tx = Some(wake_tx);
    let module_names: Vec<String> = modules.iter().map(|m| m.name().to_owned()).collect();
    let mut threads = Vec::new();
    let mut idle_flags: Vec<Arc<AtomicBool>> = Vec::new();

    let n = modules.len();
    // Down channels: d[0] = app -> first module … d[n] = last module -> T.
    let mut down_tx = Vec::with_capacity(n + 1);
    let mut down_rx = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        let (tx, rx) = bounded::<Packet>(CHANNEL_CAPACITY);
        down_tx.push(tx);
        down_rx.push(rx);
    }
    // Up channels: u[0] = first module -> app … u[n] = T -> last module.
    // Unbounded by design (module header): the wire already paces the up
    // direction, and a bounded up queue could deadlock two neighbouring
    // module threads against each other in `send`.
    let mut up_tx = Vec::with_capacity(n + 1);
    let mut up_rx = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        // lint: allow(A005, §7.4: up direction is wire-paced and drained by the app endpoint; a bound risks send/send deadlock)
        let (tx, rx) = unbounded::<Packet>();
        up_tx.push(tx);
        up_rx.push(rx);
    }

    // Module threads. Module i consumes down_rx[i] and up_rx[i+1], and
    // produces into down_tx[i+1] and up_tx[i].
    let mut down_rx_iter = down_rx.into_iter();
    // lint: allow(L002, n+1 down channels were just created above; the iterator cannot be empty)
    let first_down_rx = down_rx_iter.next().expect("at least one down channel");
    let mut prev_down_rx = first_down_rx;
    for (i, module) in modules.into_iter().enumerate() {
        let down_in = prev_down_rx;
        // lint: allow(L002, loop runs n times over n+1 channels; one receiver per module by construction)
        prev_down_rx = down_rx_iter.next().expect("down channel per module");
        let up_in = up_rx[i + 1].clone();
        let down_out = down_tx[i + 1].clone();
        let up_out = up_tx[i].clone();
        let flag = shutdown.clone();
        let idle = Arc::new(AtomicBool::new(true));
        idle_flags.push(idle.clone());
        let wake = wake_rx.clone();
        // Same-named modules (within a stack or across the two peers of a
        // connection sharing one registry) aggregate into one time series.
        let telemetry = opts
            .telemetry
            .as_ref()
            .map(|r| ModuleTelemetry::new(r, module.name()));
        let name = format!("dacapo-mod-{}", module.name());
        let module_quiesce = quiesce.clone();
        let spawned = std::thread::Builder::new().name(name.clone()).spawn(move || {
            module_loop(
                module, down_in, up_in, down_out, up_out, flag, idle, wake,
                module_quiesce, telemetry,
            )
        });
        match spawned {
            Ok(handle) => threads.push(handle),
            Err(e) => {
                abort_partial_stack(&shutdown, &mut wake_tx, &mut threads);
                return Err(DacapoError::Runtime(format!("spawn {name}: {e}")));
            }
        }
    }
    // The remaining down receiver feeds the transport TX pump.
    let t_down_rx = prev_down_rx;

    // Transport TX pump: blocks in a select over the bottom down queue and
    // the shutdown wake channel — no timeout, no polling. (The RX side is
    // the transport's [`RxPump`], which delivers into `up_tx[n]`.)
    {
        let flag = shutdown.clone();
        let wake = wake_rx.clone();
        let tx_quiesce = quiesce.clone();
        let dead = transport_dead.clone();
        let app_up = up_tx[0].clone();
        let flight_reg = opts.telemetry.clone();
        let wire = opts.telemetry.as_deref().map(|r| wire_counters(r, "tx"));
        let spawned = std::thread::Builder::new()
            .name("dacapo-t-tx".into())
            .spawn(move || loop {
                if flag.load(Ordering::Acquire) {
                    return;
                }
                let mut sel = Select::new();
                let wake_idx = sel.recv(&wake);
                let down_idx = sel.recv(&t_down_rx);
                let op = sel.select();
                if op.index() == down_idx {
                    match op.recv(&t_down_rx) {
                        Ok(pkt) => {
                            let wire_len = pkt.len() as u64;
                            let sent = transport.send(pkt.into_bytes());
                            tx_quiesce.leave(1);
                            if sent.is_err() {
                                // The wire no longer takes what the
                                // application sends: tell it now, ahead of
                                // anything still climbing the up queues (a
                                // failed send is not an orderly close),
                                // unless this is our own teardown.
                                if !flag.load(Ordering::Acquire) {
                                    dead.store(true, Ordering::Release);
                                    if let Some(r) = &flight_reg {
                                        r.flight_event(
                                            flight_event::TRANSPORT_DEAD,
                                            None,
                                            "dacapo tx pump: transport send failed".to_owned(),
                                        );
                                    }
                                    tx_quiesce.enter(1);
                                    let _ = app_up.send(Packet::close_sentinel());
                                    tx_quiesce.pulse();
                                }
                                return;
                            }
                            if let Some((frames, bytes)) = &wire {
                                frames.inc();
                                bytes.add(wire_len);
                            }
                            // The bottom down queue just shrank; a drainer
                            // may now observe quiescence.
                            tx_quiesce.pulse();
                        }
                        Err(_) => return,
                    }
                } else {
                    debug_assert_eq!(op.index(), wake_idx);
                    // Disconnected wake channel: shutdown was signalled;
                    // the flag check at the top of the loop returns.
                    let _ = op.recv(&wake);
                }
            });
        match spawned {
            Ok(handle) => threads.push(handle),
            Err(e) => {
                abort_partial_stack(&shutdown, &mut wake_tx, &mut threads);
                return Err(DacapoError::Runtime(format!("spawn dacapo-t-tx: {e}")));
            }
        }
    }

    let tx_meter = Arc::new(ThroughputMeter::new());
    let rx_meter = Arc::new(ThroughputMeter::new());
    let app = AppEndpoint::new(
        down_tx[0].clone(),
        up_rx[0].clone(),
        tx_meter,
        rx_meter,
        quiesce.clone(),
        transport_dead.clone(),
    );

    let uplink = Uplink {
        up_bottom: up_tx[n].clone(),
        quiesce: quiesce.clone(),
    };

    // Drop our copies of intermediate senders so threads observe
    // disconnection when their upstream exits.
    drop(down_tx);
    drop(up_tx);
    drop(up_rx);

    Ok(StackHandle {
        app,
        uplink,
        shutdown,
        threads,
        module_names,
        idle_flags,
        quiesce,
        wake: wake_tx,
        transport_dead,
    })
}

/// One module's event loop.
#[allow(clippy::too_many_arguments)]
fn module_loop(
    mut module: Box<dyn Module>,
    down_in: Receiver<Packet>,
    up_in: Receiver<Packet>,
    down_out: Sender<Packet>,
    up_out: Sender<Packet>,
    shutdown: Arc<AtomicBool>,
    idle: Arc<AtomicBool>,
    wake: Receiver<()>,
    quiesce: Arc<QuiesceSignal>,
    telemetry: Option<ModuleTelemetry>,
) {
    let start = Instant::now();
    let mut out = Outputs::new();
    let mut down_open = true;
    let mut up_open = true;

    loop {
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        if !down_open && !up_open {
            return;
        }

        // Select over the currently admissible inputs. The shutdown wake
        // receiver always participates, so a blocked module pops out of
        // this select the instant teardown starts; the timeout is purely
        // the module's protocol timer (ARQ retransmission), never a poll.
        let take_down = down_open && module.ready_for_down();
        let mut sel = Select::new();
        let wake_idx = sel.recv(&wake);
        let up_idx = if up_open {
            Some(sel.recv(&up_in))
        } else {
            None
        };
        let down_idx = if take_down {
            Some(sel.recv(&down_in))
        } else {
            None
        };
        let _ = down_idx;

        // One event: at most one packet taken in, any number emitted.
        let took = match sel.select_timeout(TICK_INTERVAL) {
            Ok(op) if op.index() == wake_idx => {
                // Disconnection of the wake channel signals shutdown; the
                // flag check at the top of the loop handles it.
                let _ = op.recv(&wake);
                0
            }
            Ok(op) if Some(op.index()) == up_idx => match op.recv(&up_in) {
                // Not the module's to interpret: hand it on behind what
                // this module has already emitted.
                Ok(pkt) if pkt.is_close_sentinel() => {
                    out.push_up(pkt);
                    1
                }
                Ok(pkt) => {
                    if let Some(t) = &telemetry {
                        t.up_frames.inc();
                        t.up_bytes.add(pkt.len() as u64);
                    }
                    module.process_up(pkt, &mut out);
                    1
                }
                Err(_) => {
                    up_open = false;
                    0
                }
            },
            Ok(op) => match op.recv(&down_in) {
                Ok(pkt) => {
                    if let Some(t) = &telemetry {
                        t.down_frames.inc();
                        t.down_bytes.add(pkt.len() as u64);
                    }
                    module.process_down(pkt, &mut out);
                    1
                }
                Err(_) => {
                    down_open = false;
                    0
                }
            },
            Err(_) => {
                module.on_tick(start.elapsed(), &mut out);
                0
            }
        };
        if let Some(t) = &telemetry {
            t.queue_depth.set((down_in.len() + up_in.len()) as f64);
        }

        // Settle the books before anything moves on: whoever can see a
        // packet this module sent (the peer acknowledging it, say) must
        // also see what it left behind here. The stack's packet count takes
        // the difference between what came in and what goes out — a packet
        // passed through stays counted all along — and an ARQ window reads
        // "not idle" from before its data leaves until the acknowledgement
        // has come back.
        let emitted = out.len();
        if emitted > took {
            quiesce.enter(emitted - took);
        } else {
            quiesce.leave(took - emitted);
        }
        idle.store(module.is_idle(), Ordering::Release);
        for pkt in out.take_down() {
            if down_out.send(pkt).is_err() {
                return; // downstream gone: the stack is dead
            }
        }
        for pkt in out.take_up() {
            // Up channels are unbounded; a closed upstream just means the
            // application side is gone — keep running so in-flight ARQ
            // traffic can still drain.
            if up_out.send(pkt).is_err() {
                quiesce.leave(1);
            }
        }
        // Each iteration is event-driven (select wakeup), so this pulse is
        // bounded by the event and tick rate — cheap, and it guarantees a
        // drainer re-checks after the final packet of a burst moves on.
        quiesce.pulse();
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
        assert_eq!(a.thread_count(), 4);
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
