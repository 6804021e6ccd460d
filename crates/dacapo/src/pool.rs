//! Receive threads, kept for the next connection.
//!
//! A connection's receive loop — Da CaPo's
//! [`RxPump`](crate::runtime::RxPump) and its wire writer, the ORB's TCP
//! reader — lives as long as its connection, and nothing joins it: it ends
//! when its transport does, and the close that ends it may run on that
//! very thread. Such a loop is handed to [`spawn`]. It runs
//! on a thread parked here by a loop that has returned; a thread is spawned
//! only when none is parked. So a connection set up and torn down again —
//! a binding made and shut down — costs no thread creation and exit once
//! the process has as many threads as it has connections at a time. A parked thread that gets no job within
//! [`LINGER`] exits: an idle process goes back to the threads it had.
//!
//! Every thread of the pool is named `conn-rx`, whatever connection it
//! serves. A job starts in the state a fresh thread has. It is handed a
//! root token ([`cool_telemetry::lockorder::Locked::root`]), minted when
//! the previous job returned — which debug builds refuse while the thread
//! holds a lock guard — and in debug builds the pool checks that the job
//! left no connection's sink callbacks marked as this thread's. A job that
//! panics ends its thread, which the pool never counted as parked.
//!
//! A connection's receive loop need not read all the time: whoever waits
//! for a reply can read it itself (leader/followers). Who reads, and when,
//! is one pure machine, [`step`] over a [`TurnState`], for Da CaPo's
//! connections and the ORB's TCP channels alike; [`Turn`] applies it
//! (DESIGN §5, "Who reads"). The machine is public, and hidden from the
//! docs, only for its exploration (`tests/turn_machine.rs`).

use crate::runtime::TICK_INTERVAL;
use crate::tlayer::Waker;
use cool_telemetry::blocking;
use cool_telemetry::lockorder::{Locked, Unlocked};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a thread whose job has returned waits for the next one before
/// it exits.
pub const LINGER: Duration = Duration::from_millis(100);

/// The name every thread of the pool carries.
const THREAD_NAME: &str = "conn-rx";

type Job = Box<dyn FnOnce(&mut Locked<Unlocked>) + Send>;

/// The process's receive threads.
static RECEIVE_THREADS: Pool = Pool::new();

/// Runs `job` on a parked thread of the pool, or on a new one if none is
/// parked. Nothing joins it: `job` must end on its own (its connection's
/// end ends it).
///
/// # Errors
///
/// The OS error if a thread was needed and could not be spawned; `job` is
/// dropped unrun.
pub fn spawn(job: impl FnOnce(&mut Locked<Unlocked>) + Send + 'static) -> std::io::Result<()> {
    RECEIVE_THREADS.spawn(Box::new(job))
}

struct Pool {
    /// The parked threads, the one that parked last on top: it gets the
    /// next job, so the pool keeps as many threads as connections come and
    /// go at a time and the ones below run out their linger.
    parked: Mutex<Vec<Arc<Slot>>>,
}

/// Where a parked thread waits for its next job.
#[derive(Default)]
struct Slot {
    job: Mutex<Option<Job>>,
    handed: Condvar,
}

impl Pool {
    const fn new() -> Self {
        Pool {
            parked: Mutex::new(Vec::new()),
        }
    }

    fn spawn(&'static self, job: Job) -> std::io::Result<()> {
        let mut parked = self.parked.lock();
        if let Some(slot) = parked.pop() {
            // Handed over before the thread can look for itself among the
            // parked: one that finds itself gone finds its job.
            *slot.job.lock() = Some(job);
            slot.handed.notify_one();
            return Ok(());
        }
        drop(parked);
        #[expect(
            clippy::disallowed_methods,
            reason = "detached by design: a thread ends after LINGER without a job, and a job ends with its connection's transport, closed from any thread, the job's own included, so nothing may join one"
        )]
        let spawned = std::thread::Builder::new()
            .name(THREAD_NAME.into())
            .spawn(move || self.serve(job));
        spawned.map(drop)
    }

    /// A pool thread: `job`, then each job handed to it while it is
    /// parked, until none comes within [`LINGER`].
    fn serve(&self, mut job: Job) {
        let slot = Arc::new(Slot::default());
        let mut held = Locked::root();
        loop {
            job(held);
            // Before the thread parks: a job that returned holding a guard
            // ends its thread here (debug builds), not the next job's.
            held = Locked::root();
            debug_assert!(
                crate::runtime::receives_for_nobody(),
                "a `{THREAD_NAME}` job returned marked as a connection's receive thread"
            );
            match self.park(held, &slot) {
                Some(next) => job = next,
                None => return,
            }
        }
    }

    /// Parks in `slot` until a job is handed over or [`LINGER`] passes
    /// without one.
    fn park(&self, held: &mut Locked<Unlocked>, slot: &Arc<Slot>) -> Option<Job> {
        self.parked.lock().push(Arc::clone(slot));
        let deadline = Instant::now() + LINGER;
        let mut job = slot.job.lock();
        loop {
            let empty = |job: &mut Option<Job>| job.is_none();
            if !blocking::wait_while_until(held, &slot.handed, &mut job, deadline, empty) {
                return job.take();
            }
            drop(job);
            let mut parked = self.parked.lock();
            if let Some(at) = parked.iter().position(|p| Arc::ptr_eq(p, slot)) {
                parked.remove(at);
                return None;
            }
            drop(parked);
            // Taken off the stack at the deadline: the job is in the slot
            // already.
            job = slot.job.lock();
        }
    }
}

/// Who holds a connection's receive turn.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Holder {
    /// The turn is free.
    #[default]
    Nobody,
    /// A thread waiting for a reply reads it itself.
    Caller,
    /// The connection's pooled loop.
    Loop,
}

/// What a reader saw of the modules above the transport when it looked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Modules {
    /// No module at all (TCP, an empty graph).
    #[default]
    None,
    /// Every module idle.
    Idle,
    /// A module holds deferred state (an ARQ window): the protocol timer
    /// must run, so someone must read.
    Busy,
}

/// The demand on a connection's receive loop and who holds its receive
/// turn: what [`step`] moves. A value: no lock, clock or transport.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TurnState {
    /// Who reads.
    pub holder: Holder,
    /// A binding has taken the demand over.
    pub handed_over: bool,
    /// The transport has had something to receive, or cannot tell.
    pub arrived: bool,
    /// Replies owed to threads that are not reading, drains and senders
    /// behind a stalled module.
    pub owed: u32,
    /// What the last reader to look saw.
    pub seen: Modules,
    /// The loop has been woken to look again and has not looked yet.
    pub nudged: bool,
    /// The connection has been closed here: the next reader reads its end.
    pub closed: bool,
    /// The transport's end has been read: nobody reads any more.
    pub ended: bool,
    /// The loop has returned.
    pub gone: bool,
}

impl TurnState {
    /// A connection whose loop has yet to look.
    pub fn start() -> Self {
        TurnState {
            nudged: true,
            ..TurnState::default()
        }
    }

    /// Whether someone must read: the loop, unless a caller does. Until
    /// the hand-over that is from the first arrival on.
    fn wanted(&self) -> bool {
        (!self.handed_over && self.arrived)
            || self.owed > 0
            || self.seen == Modules::Busy
            || self.closed
    }
}

/// What happens to a connection's receive side.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TurnEvent {
    /// A caller waiting for a reply wants the turn.
    Want,
    /// The caller's turn is over: its reply is in, or its deadline passed.
    Released(Modules),
    /// The loop, reading, is through a frame or a tick.
    Frame(Modules),
    /// The loop, nudged or at its recheck, looks before it parks.
    Look(Modules),
    /// A reply is owed to a thread that is not reading, or a drain or a
    /// sender behind a stalled module waits for a reader.
    Owe,
    /// An owed reply is settled.
    Paid,
    /// A drain or a stalled sender waits no more: a loop reading only for
    /// it may be woken out of its receive.
    Unstall,
    /// A binding takes the demand over.
    HandOver,
    /// The transport has something to receive for the first time.
    Arrival,
    /// The connection is closed here, its transport first.
    Close,
    /// The reader read the transport's end.
    End,
}

/// What [`step`] has the thread that brought the event do. Waking the
/// parked loop is the step setting [`TurnState::nudged`].
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TurnAction {
    /// Do not read: a caller parks in its entry, the loop until nudged.
    Nothing,
    /// Take the turn, or keep it, and read.
    Read,
    /// Return to the pool (the loop).
    Return,
    /// Wake the loop out of its receive: it is wanted no more.
    WakeReceiver,
    /// Run `on_closed`, still holding the turn.
    OnClosed,
}

/// The receive turn, written once: `event` applied to `s`, and what the
/// thread that brought it does.
#[doc(hidden)]
pub fn step(mut s: TurnState, event: TurnEvent) -> (TurnState, TurnAction) {
    use TurnAction::*;
    use TurnEvent::*;
    // What the event tells.
    match event {
        Released(seen) | Frame(seen) => s.seen = seen,
        Look(seen) => (s.seen, s.nudged) = (seen, false),
        Owe => s.owed += 1,
        Paid | Unstall => s.owed = s.owed.saturating_sub(1),
        HandOver => s.handed_over = true,
        Arrival => s.arrived = true,
        Close => s.closed = true,
        Want | End => {}
    }
    // What its thread does, and who reads from now on.
    let (free, looping) = (s.holder == Holder::Nobody, s.holder == Holder::Loop);
    let action = match event {
        Want if free && !s.ended => {
            s.holder = Holder::Caller;
            Read
        }
        Frame(_) if s.wanted() => Read,
        Released(_) | Frame(_) => {
            s.holder = Holder::Nobody;
            Nothing
        }
        Look(_) if s.ended => {
            s.gone = true;
            Return
        }
        Look(_) if free && s.wanted() => {
            s.holder = Holder::Loop;
            Read
        }
        HandOver | Unstall if looping && s.owed == 0 && s.handed_over => WakeReceiver,
        End if !s.ended => {
            s.ended = true;
            s.gone = looping;
            s.holder = Holder::Nobody;
            OnClosed
        }
        _ => Nothing,
    };
    // The loop parks whenever it neither reads nor has returned: left
    // parked, wanted and with the turn free, it is nudged.
    if !s.gone && !s.nudged && s.holder == Holder::Nobody && (s.wanted() || s.ended) {
        s.nudged = true;
    }
    (s, action)
}

/// A connection's [`TurnState`] under a lock, stepped by [`step`]: where
/// the loop parks, and what a binding owes it ([`ReadDemand::raise`]).
pub struct ReadDemand {
    state: Mutex<TurnState>,
    nudged: Condvar,
}

/// One reply owed to a connection's receive loop; dropping it settles it.
#[must_use = "the demand ends when this is dropped"]
pub struct Owed(Arc<ReadDemand>);

impl Drop for Owed {
    fn drop(&mut self) {
        self.0.apply(TurnEvent::Paid);
    }
}

impl ReadDemand {
    /// One more reply owed to the loop.
    pub fn raise(self: &Arc<Self>) -> Owed {
        self.apply(TurnEvent::Owe);
        Owed(Arc::clone(self))
    }

    /// [`step`] under the lock, waking the loop if the step nudged it.
    #[inline]
    pub(crate) fn apply(&self, event: TurnEvent) -> TurnAction {
        let mut state = self.state.lock();
        let (next, action) = step(*state, event);
        let nudged = next.nudged && !state.nudged;
        *state = next;
        drop(state);
        if nudged {
            self.nudged.notify_one();
        }
        action
    }

    /// Parks the loop until it is nudged or `recheck` has passed.
    fn park(&self, held: &mut Locked<Unlocked>, recheck: Option<Duration>) {
        let mut state = self.state.lock();
        let unwoken = |s: &mut TurnState| !s.nudged;
        match recheck {
            #[expect(
                clippy::disallowed_methods,
                reason = "woken by every step that nudges the loop, the transport's end and a close included"
            )]
            None => blocking::wait_while(held, &self.nudged, &mut state, unwoken),
            Some(after) => {
                let deadline = Instant::now() + after;
                blocking::wait_while_until(held, &self.nudged, &mut state, deadline, unwoken);
            }
        }
    }
}

/// What a transport gives the [`Turn`]: reading until a deadline, and
/// what it knows of the modules above it.
pub trait ReadSide: Send + Sync + 'static {
    /// What the holder of the turn reads with.
    type Reader: Send + 'static;

    /// Reads and delivers in wire order until `done` holds, `deadline`
    /// passes (one already past takes in only what has arrived) or the
    /// transport's end is read; returns whether it was the end.
    fn read(
        &self,
        held: &mut Locked<Unlocked>,
        reader: &mut Self::Reader,
        deadline: Option<Instant>,
        done: &mut dyn FnMut(&mut Locked<Unlocked>) -> bool,
    ) -> bool;

    /// What the reader sees of the modules above the transport.
    fn modules(&self, _held: &mut Locked<Unlocked>) -> Modules {
        Modules::None
    }

    /// Run, under the turn, by whoever read the transport's end.
    fn on_end(&self, _held: &mut Locked<Unlocked>, _reader: &mut Self::Reader) {}

    /// [`Transport::wake_receiver`](crate::tlayer::Transport::wake_receiver).
    fn wake_receiver(&self) {}

    /// [`Transport::notify_arrival`](crate::tlayer::Transport::notify_arrival).
    fn notify_arrival(&self, waker: Option<Waker>) -> bool {
        drop(waker);
        false
    }
}

/// A connection's receive turn, leader/followers: [`step`] decides who
/// reads, this applies it, for Da CaPo's connections and the ORB's TCP
/// channels alike.
pub struct Turn<S: ReadSide> {
    side: S,
    /// Locked only by whoever [`step`] gave the turn: never waited for.
    reader: Mutex<S::Reader>,
    /// For whoever waits for what only a reader brings.
    pub(crate) demand: Arc<ReadDemand>,
}

impl<S: ReadSide> Turn<S> {
    /// Starts the connection's loop on the pool. The transport's first
    /// arrival is watched from here on, so a binding that hands the demand
    /// over right after the connect finds no receive to end.
    ///
    /// # Errors
    ///
    /// The OS error if no thread is parked and none can be spawned.
    pub fn start(side: S, reader: S::Reader) -> std::io::Result<Arc<Self>> {
        let demand = Arc::new(ReadDemand {
            state: Mutex::new(TurnState::start()),
            nudged: Condvar::new(),
        });
        let arrival = Arc::clone(&demand);
        let waker: Waker = Box::new(move || {
            arrival.apply(TurnEvent::Arrival);
        });
        if !side.notify_arrival(Some(waker)) {
            demand.apply(TurnEvent::Arrival);
        }
        let turn = Arc::new(Turn {
            side,
            reader: Mutex::new(reader),
            demand,
        });
        let looping = Arc::clone(&turn);
        spawn(move |held| looping.serve(held))?;
        Ok(turn)
    }

    /// The read side.
    pub fn side(&self) -> &S {
        &self.side
    }

    /// The loop, until the transport's end has been read.
    fn serve(&self, held: &mut Locked<Unlocked>) {
        let mut seen = self.side.modules(held);
        let mut action = self.demand.apply(TurnEvent::Look(seen));
        while action != TurnAction::Return {
            if action == TurnAction::Read {
                let mut reader = self.reader.lock();
                let mut stop = |held: &mut Locked<Unlocked>| {
                    seen = self.side.modules(held);
                    self.demand.apply(TurnEvent::Frame(seen)) != TurnAction::Read
                };
                if self.side.read(held, &mut reader, None, &mut stop) {
                    return self.end(held, &mut reader);
                }
            }
            // The protocol timer must run while modules are there.
            let recheck = (seen != Modules::None).then_some(TICK_INTERVAL);
            self.demand.park(held, recheck);
            seen = self.side.modules(held);
            action = self.demand.apply(TurnEvent::Look(seen));
        }
    }

    /// A thread waiting for a reply reads the connection itself, if
    /// [`step`] lets it: until `done(held)`, `deadline` or the transport's
    /// end, returning `true`; `false` at once otherwise.
    #[inline]
    pub fn read_turn(
        &self,
        held: &mut Locked<Unlocked>,
        deadline: Instant,
        done: &dyn Fn(&mut Locked<Unlocked>) -> bool,
    ) -> bool {
        if self.demand.apply(TurnEvent::Want) != TurnAction::Read {
            return false;
        }
        let mut reader = self.reader.lock();
        if self
            .side
            .read(held, &mut reader, Some(deadline), &mut |h| done(h))
        {
            self.end(held, &mut reader);
            return true;
        }
        drop(reader);
        let seen = self.side.modules(held);
        self.demand.apply(TurnEvent::Released(seen));
        true
    }

    /// Hands the loop's demand to whoever waits for replies.
    pub fn hand_over(&self) -> Arc<ReadDemand> {
        if self.demand.apply(TurnEvent::HandOver) == TurnAction::WakeReceiver {
            self.side.wake_receiver();
        }
        self.side.notify_arrival(None);
        Arc::clone(&self.demand)
    }

    /// The connection is closed here, its transport already: whoever reads
    /// next reads the end.
    pub fn close(&self) {
        self.demand.apply(TurnEvent::Close);
    }

    fn end(&self, held: &mut Locked<Unlocked>, reader: &mut S::Reader) {
        if self.demand.apply(TurnEvent::End) == TurnAction::OnClosed {
            self.side.on_end(held, reader);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{receives_for_nobody, receiving_for};
    use crate::tlayer::{loopback_pair, Transport};
    use cool_telemetry::lockorder::{rank, OrderedMutex};
    use std::cell::RefCell;
    use std::sync::mpsc::{self, RecvTimeoutError};
    use std::thread::ThreadId;

    const LONG: Duration = Duration::from_secs(5);

    impl Pool {
        /// Waits until `n` threads are parked.
        fn wait_parked(&self, n: usize) {
            let deadline = Instant::now() + LONG;
            while self.parked.lock().len() != n {
                assert!(Instant::now() < deadline, "{n} threads never parked");
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        /// Runs `job` on the pool and waits for what it returns.
        fn run<R: Send + 'static>(
            &'static self,
            job: impl FnOnce(&mut Locked<Unlocked>) -> R + Send + 'static,
        ) -> R {
            let (tx, rx) = mpsc::channel();
            self.spawn(Box::new(move |held: &mut Locked<Unlocked>| {
                tx.send(job(held)).unwrap()
            }))
            .unwrap();
            rx.recv_timeout(LONG).expect("the job ran")
        }
    }

    /// What a fresh thread starts with: no connection's receive side, the
    /// pool's name (and a root token, which is not minted under a guard).
    fn starts_clean(_held: &mut Locked<Unlocked>) -> (ThreadId, bool) {
        let me = std::thread::current();
        let clean = receives_for_nobody() && me.name() == Some(THREAD_NAME);
        (me.id(), clean)
    }

    thread_local! {
        /// Dropped when the thread exits.
        static ON_EXIT: RefCell<Option<mpsc::Sender<()>>> = const { RefCell::new(None) };
    }

    /// A receiver that disconnects once the calling thread has exited.
    fn exit_of_this_thread() -> mpsc::Receiver<()> {
        let (tx, rx) = mpsc::channel();
        ON_EXIT.with(|slot| *slot.borrow_mut() = Some(tx));
        rx
    }

    #[test]
    fn a_second_job_runs_on_the_parked_thread_and_starts_clean() {
        static POOL: Pool = Pool::new();
        let first = POOL.run(|held| {
            let started = starts_clean(held);
            // What a receive loop does to its thread, undone on the way out.
            let (transport, _peer) = loopback_pair();
            let transport: Arc<dyn Transport> = Arc::new(transport);
            let lock = OrderedMutex::<(), rank::ConnectionUplink>::new(());
            receiving_for(&transport, || {
                let _uplink = lock.lock(held);
                assert!(!receives_for_nobody());
            });
            started
        });
        assert!(first.1, "the first job started dirty");
        POOL.wait_parked(1);
        let second = POOL.run(starts_clean);
        assert_eq!(second.0, first.0, "the second job got a new thread");
        assert!(
            second.1,
            "the second job started with the first one's state"
        );
    }

    #[test]
    fn a_thread_with_no_job_exits_after_the_linger() {
        static POOL: Pool = Pool::new();
        let (exited, parked_at) = POOL.run(|_| (exit_of_this_thread(), Instant::now()));
        assert_eq!(
            exited.recv_timeout(LONG),
            Err(RecvTimeoutError::Disconnected)
        );
        assert!(
            parked_at.elapsed() >= LINGER,
            "exited after {:?}",
            parked_at.elapsed()
        );
        assert_eq!(POOL.parked.lock().len(), 0);
    }

    #[test]
    fn a_panicking_job_leaves_no_parked_entry_and_the_next_job_runs() {
        static POOL: Pool = Pool::new();
        let (tx, rx) = mpsc::channel();
        POOL.spawn(Box::new(move |_: &mut Locked<Unlocked>| {
            tx.send((std::thread::current().id(), exit_of_this_thread()))
                .unwrap();
            panic!("a job that panics");
        }))
        .unwrap();
        let (panicked_on, exited) = rx.recv_timeout(LONG).unwrap();
        assert_eq!(
            exited.recv_timeout(LONG),
            Err(RecvTimeoutError::Disconnected)
        );
        assert_eq!(
            POOL.parked.lock().len(),
            0,
            "the panicked thread is counted as parked"
        );

        let (next_on, exited) = POOL.run(|_| (std::thread::current().id(), exit_of_this_thread()));
        assert_ne!(next_on, panicked_on);
        assert_eq!(
            exited.recv_timeout(LONG),
            Err(RecvTimeoutError::Disconnected)
        );
        assert_eq!(POOL.parked.lock().len(), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_job_that_returns_holding_a_lock_does_not_pass_its_thread_on() {
        static POOL: Pool = Pool::new();
        static LOCK: OrderedMutex<(), rank::ConnectionUplink> = OrderedMutex::new(());
        let leaked_on = POOL.run(|held| {
            std::mem::forget(LOCK.lock(held));
            std::thread::current().id()
        });
        let (next_on, clean) = POOL.run(starts_clean);
        assert_ne!(next_on, leaked_on, "a dirty thread took the next job");
        assert!(clean);
    }
}
