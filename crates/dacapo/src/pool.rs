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
//! left no connection's sink callbacks marked as this thread's; a job with
//! thread-local state of its own checks that before it returns. A job that panics ends its thread,
//! which the pool never counted as parked.
//!
//! A connection's receive loop need not read all the time: whoever waits
//! for a reply can read it itself (leader/followers). [`ReadDemand`] is how
//! much the loop is wanted — the one such type for Da CaPo's connections
//! and the ORB's TCP channels.

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

/// How much a connection's pooled receive loop is wanted.
///
/// Until [`ReadDemand::hand_over`] the loop always reads: a server's end, a
/// pull-mode end. After it, whoever waits for a reply reads the connection
/// itself when nobody else is, and the loop reads only while some reply is
/// owed to a thread that is not reading — a deferred reply nobody waits for
/// yet, a `notify` callback, a caller that found another thread reading, a
/// drain or a sender waiting for the peer's acknowledgements. Each holds an
/// [`Owed`] for as long as it waits; the loop parks while none does, unless
/// [`ReadDemand::nudge`]d to look at something else it may be wanted for.
pub struct ReadDemand {
    state: Mutex<DemandState>,
    changed: Condvar,
}

struct DemandState {
    owed: usize,
    handed_over: bool,
    /// The loop has been asked to look again.
    nudged: bool,
    closed: bool,
}

/// One reply (or drain) owed to a connection's receive loop; dropping it
/// releases the demand.
#[must_use = "the demand ends when this is dropped"]
pub struct Owed(Arc<ReadDemand>);

impl Drop for Owed {
    fn drop(&mut self) {
        self.0.state.lock().owed -= 1;
    }
}

impl Default for ReadDemand {
    fn default() -> Self {
        ReadDemand::new()
    }
}

impl ReadDemand {
    /// A loop that reads until handed over.
    pub fn new() -> Self {
        ReadDemand {
            state: Mutex::new(DemandState {
                owed: 0,
                handed_over: false,
                nudged: false,
                closed: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// From now on the loop reads only while something is owed to it.
    pub fn hand_over(&self) {
        self.state.lock().handed_over = true;
    }

    /// One more reply owed to the loop; the first wakes it. Raised under
    /// the lock the loop checks before it parks, so no wake-up is lost.
    pub fn raise(self: &Arc<Self>) -> Owed {
        let mut st = self.state.lock();
        st.owed += 1;
        if st.owed == 1 {
            self.changed.notify_one();
        }
        Owed(Arc::clone(self))
    }

    /// Whether the loop should be reading now for a reply owed to it.
    pub fn wanted(&self) -> bool {
        let st = self.state.lock();
        !st.handed_over || st.owed > 0
    }

    /// Wakes the parked loop to look again at whether it is wanted for
    /// something this type does not count. Remembered until it does.
    pub fn nudge(&self) {
        self.state.lock().nudged = true;
        self.changed.notify_one();
    }

    /// Whether the demand has been handed over.
    pub fn is_handed_over(&self) -> bool {
        self.state.lock().handed_over
    }

    /// Parks the loop until it is wanted, nudged, or — if given — `recheck`
    /// has passed; `false` once the connection has closed.
    pub fn park_until_wanted(
        &self,
        held: &mut Locked<Unlocked>,
        recheck: Option<Duration>,
    ) -> bool {
        self.park(held, recheck, true)
    }

    /// Parks a loop that has nothing to read yet until it is nudged — by
    /// its transport when something arrives — a reply is owed to it, or
    /// `recheck` has passed, whether or not the demand has been handed
    /// over; `false` once the connection has closed.
    pub fn park_until_nudged(
        &self,
        held: &mut Locked<Unlocked>,
        recheck: Option<Duration>,
    ) -> bool {
        self.park(held, recheck, false)
    }

    /// `wanted_until_handed_over`: a demand not yet handed over ends the
    /// wait at once.
    fn park(
        &self,
        held: &mut Locked<Unlocked>,
        recheck: Option<Duration>,
        wanted_until_handed_over: bool,
    ) -> bool {
        let unwanted = |st: &mut DemandState| {
            !st.closed
                && (st.handed_over || !wanted_until_handed_over)
                && st.owed == 0
                && !std::mem::take(&mut st.nudged)
        };
        let mut st = self.state.lock();
        match recheck {
            #[expect(
                clippy::disallowed_methods,
                reason = "woken by the demand's 0 -> 1, a nudge, and `close`, which the connection's end always reaches"
            )]
            None => blocking::wait_while(held, &self.changed, &mut st, unwanted),
            Some(after) => {
                blocking::wait_while_until(
                    held,
                    &self.changed,
                    &mut st,
                    Instant::now() + after,
                    unwanted,
                );
            }
        }
        !st.closed
    }

    /// The connection is gone: the loop stops parking and ends.
    pub fn close(&self) {
        self.state.lock().closed = true;
        self.changed.notify_all();
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
