//! Runtime lock-order deadlock detection.
//!
//! Every lock that participates in the ORB's cross-thread protocols is
//! wrapped in an [`OrderedMutex`] or [`OrderedRwLock`] carrying a numeric
//! **rank** and a name. In debug builds each acquisition is checked
//! against a process-global acquisition-order graph:
//!
//! * acquiring a lock while holding another adds the edge
//!   `held → acquired` to the graph;
//! * if that edge closes a cycle — some thread previously acquired these
//!   ranks in the opposite order — the process panics immediately with a
//!   report naming both locks, instead of deadlocking some unlucky night
//!   later;
//! * acquiring two locks of the **same rank** at once is always rejected
//!   (self-deadlock on reentry, or an AB/BA pair hidden inside one rank).
//!
//! The intended discipline is the rank table in `DESIGN.md` §7: ranks
//! strictly increase along every legal acquisition path, so the graph
//! stays acyclic by construction and the checker only ever fires on a
//! genuine ordering bug.
//!
//! In release builds all bookkeeping compiles away; the wrappers are
//! plain mutexes (non-poisoning: a panic elsewhere never wedges the ORB).

use std::sync::{
    Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError,
};

/// The project-wide lock rank table. Ranks strictly increase along every
/// legal acquisition path; gaps leave room to slot new locks in without
/// renumbering. The full table with rationale lives in `DESIGN.md` §7.
pub mod rank {
    /// `ResolvedStub::state` — replica health/breaker table of a
    /// replicated binding; outermost of all: picking a replica precedes
    /// (and never overlaps) taking any ORB or binding lock.
    pub const RESOLVED_STATE: u32 = 5;
    /// `ResolvedStub::prober` — liveness-probe thread handle, taken (then
    /// joined outside the lock) at close.
    pub const RESOLVED_PROBER: u32 = 7;
    /// `Orb::bindings` — client binding cache; outermost, held while
    /// tearing bindings down.
    pub const ORB_BINDINGS: u32 = 10;
    /// `Orb::served` — addresses served by collocated servers.
    pub const ORB_SERVED: u32 = 11;
    /// `Orb::introspect` — the live introspection endpoint handle; taken
    /// only at shutdown, never while serving a request.
    pub const ORB_INTROSPECT: u32 = 12;
    /// `Orb::fault_engines` — per-target fault engines, cached so a
    /// reconnect replays the same deterministic fault schedule.
    pub const ORB_FAULT_ENGINES: u32 = 13;
    /// `Exchange::registry` — in-process transport listener registry.
    pub const EXCHANGE_REGISTRY: u32 = 20;
    /// `OrbServer::conns` — live server-side connection list.
    pub const SERVER_CONNS: u32 = 30;
    /// `OrbServer::acceptor` — acceptor thread handle.
    pub const SERVER_ACCEPTOR: u32 = 31;
    /// `OrbServer::dispatchers` — dispatcher thread handles.
    pub const SERVER_DISPATCHERS: u32 = 32;
    /// `OrbServer::jobs_tx` — dispatch queue sender.
    pub const SERVER_JOBS_TX: u32 = 33;
    /// `ConnState::cancelled` — per-connection cancel set.
    pub const SERVER_CONN_CANCELLED: u32 = 35;
    /// `ConnSink::conn` — sink's handle on its connection state.
    pub const SERVER_SINK_CONN: u32 = 36;
    /// `Binding::reconnect_gate` — serializes reconnect attempts; held
    /// across the whole re-establishment (conn swap, pending flush, QoS
    /// replay), so it sits below every other binding lock.
    pub const BINDING_RECONNECT: u32 = 37;
    /// `Binding::conn` — current channel incarnation (swapped on
    /// reconnect).
    pub const BINDING_CONN: u32 = 38;
    /// `Binding::last_qos` — transport requirements to replay after a
    /// reconnect.
    pub const BINDING_LAST_QOS: u32 = 39;
    /// `Binding::pending` — in-flight request slots.
    pub const BINDING_PENDING: u32 = 40;
    /// `BatchingChannel::queue` — frames coalescing toward one transport
    /// frame. Above the binding locks (send paths hold none deeper) and
    /// below the channel locks the inner `send_frame` may take.
    pub const CHAN_BATCH: u32 = 42;
    /// `BatchingChannel::flusher` — the flusher thread's `JoinHandle`,
    /// taken (then joined outside the lock) at close. Sits just above
    /// `chan.batch`: close flushes the queue before reaping the thread.
    pub const CHAN_FLUSHER: u32 = 43;
    /// `Invoker::per_stub` — what one logical stub carries from call to
    /// call: QoS operating point (offered spec, degradation ladder, steps
    /// taken), last granted QoS, call timeout. Never held across a call.
    pub const STUB_STATE: u32 = 44;
    /// `dacapo_chan::Inner::peer` — control path to the pair's other end.
    pub const CHAN_PEER: u32 = 50;
    /// `Connection::stack` — running module stack (held across rebuild).
    pub const CONNECTION_STACK: u32 = 60;
    /// `dacapo::runtime::RxPump` forward slot — the uplink of the stack the
    /// connection's receive thread currently runs (held across a stack
    /// swap, under `connection.stack`; taken per frame and per tick by the
    /// receive thread, for as long as it runs that stack's modules).
    pub const CONNECTION_UPLINK: u32 = 61;
    /// `Connection::endpoint` — application endpoint of the stack.
    pub const CONNECTION_ENDPOINT: u32 = 62;
    /// `dacapo::runtime` writer lock of a stack — whoever holds it writes
    /// the stack's wire-bound frames to the transport, in order. Senders
    /// and the connection's writer thread wait for it (a full wire is their
    /// backpressure); the receive thread only ever tries it — to learn
    /// whether somebody is writing, and to write what a sink callback sent.
    pub const STACK_WRITER: u32 = 63;
    /// `Connection::graph` — module graph currently running.
    pub const CONNECTION_GRAPH: u32 = 64;
    /// `dacapo::runtime` stack lock — the modules of a stack and the queues
    /// between them. Taken under `connection.uplink` by the receive thread
    /// and under `stack.writer` to fetch what is to be written; never held
    /// across a transport call, a wait or an application callback.
    pub const STACK_CHAIN: u32 = 65;
    /// `Connection::params` — module parameters.
    pub const CONNECTION_PARAMS: u32 = 66;
    /// `Connection::grant` — the resource grant of this side of the
    /// connection (held while it is exchanged at a renegotiation).
    pub const CONNECTION_GRANT: u32 = 68;
    /// `ResourceManager`/`ResourceGrant` usage ledger — innermost; taken
    /// by admission and by every grant drop.
    pub const RESOURCE_USAGE: u32 = 70;
    /// `TraceStore::inner` — merged distributed-trace store. Leaf: taken
    /// with no other telemetry lock held, from code that may hold any of
    /// the locks above.
    pub const TELEMETRY_TRACES: u32 = 90;
    /// `FlightRecorder::inner` — bounded event ring. Leaf; events are
    /// recorded from arbitrary call sites, so it must sit below nothing.
    pub const TELEMETRY_FLIGHT: u32 = 92;
    /// `GaugeSeries::inner` — sampled gauge time series. Leaf; written by
    /// the sampler thread, read by the introspection endpoint.
    pub const TELEMETRY_GAUGES: u32 = 94;
}

#[cfg(debug_assertions)]
mod check {
    use std::cell::RefCell;
    use std::collections::{HashMap, HashSet};
    use std::sync::{Mutex, OnceLock, PoisonError};

    /// Directed acquisition-order graph over ranks, plus rank → name for
    /// reporting. Grows monotonically for the life of the process.
    #[derive(Default)]
    struct Graph {
        edges: HashMap<u32, HashSet<u32>>,
        names: HashMap<u32, &'static str>,
    }

    impl Graph {
        /// Is `to` reachable from `from` along recorded edges?
        fn reaches(&self, from: u32, to: u32) -> bool {
            let mut stack = vec![from];
            let mut seen = HashSet::new();
            while let Some(n) = stack.pop() {
                if n == to {
                    return true;
                }
                if seen.insert(n) {
                    if let Some(next) = self.edges.get(&n) {
                        stack.extend(next.iter().copied());
                    }
                }
            }
            false
        }
    }

    fn graph() -> &'static Mutex<Graph> {
        static GRAPH: OnceLock<Mutex<Graph>> = OnceLock::new();
        GRAPH.get_or_init(|| Mutex::new(Graph::default()))
    }

    thread_local! {
        /// Locks currently held by this thread, in acquisition order.
        static HELD: RefCell<Vec<(u32, &'static str)>> = const { RefCell::new(Vec::new()) };
    }

    /// Records (and validates) an acquisition; the returned token must be
    /// dropped when the guard is released.
    #[derive(Debug)]
    pub(super) struct Token {
        rank: u32,
    }

    impl Drop for Token {
        fn drop(&mut self) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|&(r, _)| r == self.rank) {
                    held.remove(pos);
                }
            });
        }
    }

    /// Checks `rank`/`name` against everything this thread already holds,
    /// recording new edges. Panics on a same-rank acquisition or on any
    /// edge that closes a cycle in the global graph.
    pub(super) fn acquire(rank: u32, name: &'static str) -> Token {
        HELD.with(|held| {
            let snapshot: Vec<(u32, &'static str)> = held.borrow().clone();
            if !snapshot.is_empty() {
                // Check + insert must be one atomic step: two threads
                // racing an AB/BA pair must serialize here so exactly the
                // second edge is caught closing the cycle.
                let mut g = graph()
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                g.names.insert(rank, name);
                for &(held_rank, held_name) in &snapshot {
                    assert!(
                        held_rank != rank,
                        "lock-order violation: acquiring `{name}` (rank {rank}) while \
                         holding `{held_name}` (rank {held_rank}); same-rank \
                         acquisition is never allowed"
                    );
                    if g.reaches(rank, held_rank) {
                        let path_hint = g
                            .names
                            .get(&held_rank)
                            .copied()
                            .unwrap_or("<unnamed>");
                        panic!(
                            "lock-order cycle: acquiring `{name}` (rank {rank}) while \
                             holding `{held_name}` (rank {held_rank}), but the order \
                             rank {rank} -> rank {held_rank} (`{name}` before \
                             `{path_hint}`) is already established elsewhere"
                        );
                    }
                    g.edges.entry(held_rank).or_default().insert(rank);
                }
            } else {
                let mut g = graph()
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                g.names.insert(rank, name);
            }
            held.borrow_mut().push((rank, name));
        });
        Token { rank }
    }
}

/// A mutex with a lock-order rank, checked in debug builds.
#[derive(Debug, Default)]
pub struct OrderedMutex<T> {
    rank: u32,
    name: &'static str,
    inner: Mutex<T>,
}

/// Guard for [`OrderedMutex`]; releases the rank on drop.
#[derive(Debug)]
pub struct OrderedMutexGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    _token: check::Token,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` under `rank`/`name` (see the rank table in
    /// `DESIGN.md` §7).
    pub const fn new(rank: u32, name: &'static str, value: T) -> Self {
        OrderedMutex {
            rank,
            name,
            inner: Mutex::new(value),
        }
    }

    /// Acquires the lock, panicking (debug builds) on any acquisition
    /// that contradicts the established lock order. Non-poisoning: a
    /// panic in another holder never wedges this lock.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        // Validate before blocking: an ordering bug reports instead of
        // deadlocking.
        #[cfg(debug_assertions)]
        let token = check::acquire(self.rank, self.name);
        OrderedMutexGuard {
            guard: self
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            _token: token,
        }
    }

    /// Acquires the lock if it is free, `None` if another thread holds it.
    /// The order is validated as for [`OrderedMutex::lock`]: a try that
    /// cannot deadlock today still records the edge a blocking acquisition
    /// on the same path would.
    pub fn try_lock(&self) -> Option<OrderedMutexGuard<'_, T>> {
        #[cfg(debug_assertions)]
        let token = check::acquire(self.rank, self.name);
        let guard = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(OrderedMutexGuard {
            guard,
            #[cfg(debug_assertions)]
            _token: token,
        })
    }

    /// This lock's rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// This lock's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A reader-writer lock with a lock-order rank, checked in debug builds.
///
/// Readers and writers are ranked identically: a read acquisition can
/// participate in exactly the same deadlock cycles as a write.
#[derive(Debug, Default)]
pub struct OrderedRwLock<T> {
    rank: u32,
    name: &'static str,
    inner: RwLock<T>,
}

/// Read guard for [`OrderedRwLock`].
#[derive(Debug)]
pub struct OrderedReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    #[cfg(debug_assertions)]
    _token: check::Token,
}

/// Write guard for [`OrderedRwLock`].
#[derive(Debug)]
pub struct OrderedWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    #[cfg(debug_assertions)]
    _token: check::Token,
}

impl<T> OrderedRwLock<T> {
    /// Wraps `value` under `rank`/`name`.
    pub const fn new(rank: u32, name: &'static str, value: T) -> Self {
        OrderedRwLock {
            rank,
            name,
            inner: RwLock::new(value),
        }
    }

    /// Acquires shared access under the lock-order check.
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = check::acquire(self.rank, self.name);
        OrderedReadGuard {
            guard: self
                .inner
                .read()
                .unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            _token: token,
        }
    }

    /// Acquires exclusive access under the lock-order check.
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = check::acquire(self.rank, self.name);
        OrderedWriteGuard {
            guard: self
                .inner
                .write()
                .unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            _token: token,
        }
    }

    /// This lock's rank.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// This lock's name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

impl<T> std::ops::Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> std::ops::DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;
    use std::sync::Arc;

    // Each test uses its own rank band: the acquisition-order graph is
    // process-global, so shared ranks would couple unrelated tests.

    #[test]
    fn ordered_acquisition_passes() {
        let a = OrderedMutex::new(9010, "test.a", 1);
        let b = OrderedMutex::new(9011, "test.b", 2);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
    }

    #[test]
    fn release_and_reacquire_is_clean() {
        let a = OrderedMutex::new(9020, "test.re", 0);
        for _ in 0..3 {
            let mut g = a.lock();
            *g += 1;
        }
        assert_eq!(*a.lock(), 3);
    }

    #[test]
    #[should_panic(expected = "rank 9031")]
    fn ab_ba_inversion_panics_naming_both_ranks() {
        let a = Arc::new(OrderedMutex::new(9030, "test.ab.a", ()));
        let b = Arc::new(OrderedMutex::new(9031, "test.ab.b", ()));
        // Establish a -> b.
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        // Invert: b -> a must die with a cycle report. The message names
        // both ranks (9030 asserted via the expected fragment of the
        // sibling test below; 9031 here).
        let _gb = b.lock();
        let _ga = a.lock();
    }

    #[test]
    #[should_panic(expected = "rank 9040")]
    fn same_rank_acquisition_panics() {
        let a = OrderedMutex::new(9040, "test.same.a", ());
        let b = OrderedMutex::new(9040, "test.same.b", ());
        let _ga = a.lock();
        let _gb = b.lock();
    }

    #[test]
    #[should_panic(expected = "lock-order cycle")]
    fn rwlock_participates_in_cycles() {
        let m = OrderedMutex::new(9050, "test.rw.m", ());
        let rw = OrderedRwLock::new(9051, "test.rw.rw", ());
        {
            let _gm = m.lock();
            let _gr = rw.read();
        }
        let _gw = rw.write();
        let _gm = m.lock();
    }

    #[test]
    fn cross_thread_inversion_is_caught() {
        // Thread 1 establishes a -> b; thread 2 then tries b -> a and
        // must panic. Joined sequentially so the order is deterministic.
        let a = Arc::new(OrderedMutex::new(9060, "test.x.a", ()));
        let b = Arc::new(OrderedMutex::new(9061, "test.x.b", ()));
        {
            let (a, b) = (a.clone(), b.clone());
            std::thread::spawn(move || {
                let _ga = a.lock();
                let _gb = b.lock();
            })
            .join()
            .expect("establishing thread");
        }
        let inverted = std::thread::spawn(move || {
            let _gb = b.lock();
            let _ga = a.lock();
        })
        .join();
        assert!(inverted.is_err(), "inverted order must panic");
    }
}
