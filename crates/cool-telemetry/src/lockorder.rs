//! Runtime lock-order deadlock detection.
//!
//! Every lock that participates in the ORB's cross-thread protocols is
//! wrapped in an [`OrderedMutex`] or [`OrderedRwLock`] carrying a
//! [`Rank`]: a number and the lock's name. In debug builds each
//! acquisition is checked against a process-global acquisition-order
//! graph:
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
//! The intended discipline is the table in [`rank`]: ranks strictly
//! increase along every legal acquisition path, so the graph stays
//! acyclic by construction and the checker only ever fires on a genuine
//! ordering bug. cool-analyze's A001 proves the same order statically.
//!
//! In release builds all bookkeeping compiles away; the wrappers are
//! plain mutexes (non-poisoning: a panic elsewhere never wedges the ORB).

use std::sync::{
    Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError,
};

/// A lock's place in the acquisition order, and the name lock-order
/// reports give it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rank {
    value: u32,
    name: &'static str,
}

impl Rank {
    /// Rank `value` for the lock called `name`; lower values are taken
    /// first.
    pub const fn new(value: u32, name: &'static str) -> Self {
        Rank { value, name }
    }

    /// Position in the order.
    pub const fn value(self) -> u32 {
        self.value
    }

    /// The lock's name.
    pub const fn name(self) -> &'static str {
        self.name
    }
}

/// The project-wide lock order, outermost first: ranks strictly increase
/// along every legal acquisition path. Gaps leave room to slot new locks
/// in without renumbering — a new lock takes the band matching where in
/// the call graph it is acquired, and its constant here is the one place
/// its rank and name are written down.
///
/// The Da CaPo band (60–68) interleaves a connection's locks with the two
/// locks of the module stack it runs (63, 65; `dacapo::runtime`).
pub mod rank {
    use super::Rank;

    /// `ResolvedStub::replica_set` — a replicated binding's replica table:
    /// health, breaker, active index and the one bound endpoint. Outermost
    /// of all: failure bookkeeping runs under it and records flight events,
    /// and picking a replica precedes (never overlaps) any ORB or binding
    /// lock.
    pub const RESOLVED_STATE: Rank = Rank::new(5, "resolved.state");
    /// `ResolvedStub::prober` — liveness-probe thread handle, taken (then
    /// joined outside the lock) at close.
    pub const RESOLVED_PROBER: Rank = Rank::new(7, "resolved.prober");
    /// `Orb::bindings` — client binding cache; held while tearing down
    /// everything below.
    pub const ORB_BINDINGS: Rank = Rank::new(10, "orb.bindings");
    /// `Orb::served` — addresses served by collocated servers.
    pub const ORB_SERVED: Rank = Rank::new(11, "orb.served");
    /// `Orb::introspect` — the live introspection endpoint handle; taken
    /// only at shutdown, never while serving a request.
    pub const ORB_INTROSPECT: Rank = Rank::new(12, "orb.introspect");
    /// `Orb::fault_engines` — per-target fault engines
    /// (`OrbConfig::fault_plans`), cached so a reconnect replays the same
    /// deterministic fault schedule; taken briefly at dial time.
    pub const ORB_FAULT_ENGINES: Rank = Rank::new(13, "orb.fault_engines");
    /// `Exchange::registry` — in-process transport listener registry.
    pub const EXCHANGE_REGISTRY: Rank = Rank::new(20, "exchange.registry");
    /// `OrbServer::conns` — live server-side connection list.
    pub const SERVER_CONNS: Rank = Rank::new(30, "server.conns");
    /// `OrbServer::acceptor` — acceptor thread handle.
    pub const SERVER_ACCEPTOR: Rank = Rank::new(31, "server.acceptor");
    /// `OrbServer::dispatchers` — dispatcher thread handles.
    pub const SERVER_DISPATCHERS: Rank = Rank::new(32, "server.dispatchers");
    /// `OrbServer::jobs_tx` — dispatch queue sender.
    pub const SERVER_JOBS_TX: Rank = Rank::new(33, "server.jobs_tx");
    /// `ConnState::cancelled` — per-connection cancel set.
    pub const SERVER_CONN_CANCELLED: Rank = Rank::new(35, "server.conn.cancelled");
    /// `ConnSink::conn` — sink's handle on its connection state.
    pub const SERVER_SINK_CONN: Rank = Rank::new(36, "server.sink.conn");
    /// `Binding::reconnect_gate` — serializes reconnect attempts; held
    /// across the whole re-establishment (conn swap, pending flush, QoS
    /// replay), so it sits below every other binding lock.
    pub const BINDING_RECONNECT: Rank = Rank::new(37, "binding.reconnect_gate");
    /// `Binding::conn` — current channel incarnation (swapped on
    /// reconnect).
    pub const BINDING_CONN: Rank = Rank::new(38, "binding.conn");
    /// `Binding::last_qos` — transport requirements to replay after a
    /// reconnect.
    pub const BINDING_LAST_QOS: Rank = Rank::new(39, "binding.last_qos");
    /// `Binding::pending` — in-flight request slots (the reply demux).
    pub const BINDING_PENDING: Rank = Rank::new(40, "binding.pending");
    /// `Invoker::per_stub` — what one logical stub carries from call to
    /// call: QoS operating point (offered spec, degradation ladder, steps
    /// taken), last granted QoS, call timeout. A resolved binding has one
    /// for all its replicas. Never held across a call.
    pub const STUB_STATE: Rank = Rank::new(44, "stub.state");
    /// `dacapo_chan::Inner::peer` — control path to the pair's other end.
    pub const CHAN_PEER: Rank = Rank::new(50, "chan.peer");
    /// `Connection::stack` — running module stack, held across a stack
    /// swap.
    pub const CONNECTION_STACK: Rank = Rank::new(60, "connection.stack");
    /// `dacapo::runtime::RxPump` forward slot — the uplink through which
    /// the connection's receive thread enters the current stack. Taken
    /// under `connection.stack` for the swap itself, which parks the
    /// receive thread with any frame it reads meanwhile; taken per frame
    /// and per tick by the receive thread, for as long as it runs that
    /// stack's modules.
    pub const CONNECTION_UPLINK: Rank = Rank::new(61, "connection.uplink");
    /// `Connection::endpoint` — application endpoint of the stack.
    pub const CONNECTION_ENDPOINT: Rank = Rank::new(62, "connection.endpoint");
    /// `dacapo::runtime` writer lock of a stack — whoever holds it writes
    /// the stack's wire-bound frames to the transport, in order, and takes
    /// `stack.chain` under it to fetch them, never the other way round.
    /// Senders and the connection's writer thread wait for it, holding
    /// nothing else (a full wire is their backpressure); the receive
    /// thread takes it right after `connection.uplink` and only ever tries
    /// it — to learn whether somebody is writing, and to write what a sink
    /// callback sent.
    pub const STACK_WRITER: Rank = Rank::new(63, "stack.writer");
    /// `Connection::graph` — module graph currently running.
    pub const CONNECTION_GRAPH: Rank = Rank::new(64, "connection.graph");
    /// `dacapo::runtime` stack lock — the modules of a stack, their
    /// queues, and the deques for the wire and for the application. Taken
    /// under `connection.uplink` by the receive thread and under
    /// `stack.writer` to fetch what is to be written; never held across a
    /// transport write, a wait or an application callback.
    pub const STACK_CHAIN: Rank = Rank::new(65, "stack.chain");
    /// `Connection::params` — module parameters.
    pub const CONNECTION_PARAMS: Rank = Rank::new(66, "connection.params");
    /// `Connection::grant` — this side's one resource grant, from
    /// establishment to close; held while a renegotiation exchanges it on
    /// the ledger below.
    pub const CONNECTION_GRANT: Rank = Rank::new(68, "connection.grant");
    /// `ResourceManager`/`ResourceGrant` usage ledger — admission;
    /// innermost of the data path, taken by every grant drop.
    pub const RESOURCE_USAGE: Rank = Rank::new(70, "resource.usage");
    /// `SpanStore::inner` — active spans and the ring of finished calls
    /// (traced ones with their merged trace). Leaf: taken with no other
    /// telemetry lock held, from code that may hold any of the locks above.
    pub const TELEMETRY_SPANS: Rank = Rank::new(90, "telemetry.spans");
    /// `FlightRecorder::events` — bounded event ring. Leaf; events are
    /// recorded from arbitrary call sites, so it must sit below nothing.
    pub const TELEMETRY_FLIGHT: Rank = Rank::new(92, "telemetry.flight");
    /// `GaugeSeries::series` — sampled gauge time series; innermost of
    /// all. Written by the sampler thread, read by the introspection
    /// endpoint.
    pub const TELEMETRY_GAUGES: Rank = Rank::new(94, "telemetry.gauges");
}

#[cfg(debug_assertions)]
mod check {
    use super::Rank;
    use std::cell::RefCell;
    use std::collections::{HashMap, HashSet};
    use std::sync::{Mutex, OnceLock, PoisonError};

    /// Directed acquisition-order graph over rank values. Grows
    /// monotonically for the life of the process.
    #[derive(Default)]
    struct Graph {
        edges: HashMap<u32, HashSet<u32>>,
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
        static HELD: RefCell<Vec<Rank>> = const { RefCell::new(Vec::new()) };
    }

    /// Records (and validates) an acquisition; the returned token must be
    /// dropped when the guard is released.
    #[derive(Debug)]
    pub(super) struct Token {
        rank: Rank,
    }

    impl Drop for Token {
        fn drop(&mut self) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|&r| r == self.rank) {
                    held.remove(pos);
                }
            });
        }
    }

    /// Checks `acquired` against everything this thread already holds,
    /// recording new edges. Panics on a same-rank acquisition or on any
    /// edge that closes a cycle in the global graph.
    pub(super) fn acquire(acquired: Rank) -> Token {
        HELD.with(|held| {
            let snapshot: Vec<Rank> = held.borrow().clone();
            let (rank, name) = (acquired.value(), acquired.name());
            if !snapshot.is_empty() {
                // Check + insert must be one atomic step: two threads
                // racing an AB/BA pair must serialize here so exactly the
                // second edge is caught closing the cycle.
                let mut g = graph().lock().unwrap_or_else(PoisonError::into_inner);
                for held_lock in &snapshot {
                    let (held_rank, held_name) = (held_lock.value(), held_lock.name());
                    assert!(
                        held_rank != rank,
                        "lock-order violation: acquiring `{name}` (rank {rank}) while \
                         holding `{held_name}` (rank {held_rank}); same-rank \
                         acquisition is never allowed"
                    );
                    assert!(
                        !g.reaches(rank, held_rank),
                        "lock-order cycle: acquiring `{name}` (rank {rank}) while \
                         holding `{held_name}` (rank {held_rank}), but the order \
                         rank {rank} -> rank {held_rank} is already established \
                         elsewhere"
                    );
                    g.edges.entry(held_rank).or_default().insert(rank);
                }
            }
            held.borrow_mut().push(acquired);
        });
        Token { rank: acquired }
    }
}

/// A mutex with a lock-order rank, checked in debug builds.
#[derive(Debug)]
pub struct OrderedMutex<T> {
    rank: Rank,
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
    /// Wraps `value` under `rank` (one of the [`rank`] constants).
    pub const fn new(rank: Rank, value: T) -> Self {
        OrderedMutex {
            rank,
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
        let token = check::acquire(self.rank);
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
        let token = check::acquire(self.rank);
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

    /// This lock's rank and name.
    pub fn rank(&self) -> Rank {
        self.rank
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
#[derive(Debug)]
pub struct OrderedRwLock<T> {
    rank: Rank,
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
    /// Wraps `value` under `rank`.
    pub const fn new(rank: Rank, value: T) -> Self {
        OrderedRwLock {
            rank,
            inner: RwLock::new(value),
        }
    }

    /// Acquires shared access under the lock-order check.
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        let token = check::acquire(self.rank);
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
        let token = check::acquire(self.rank);
        OrderedWriteGuard {
            guard: self
                .inner
                .write()
                .unwrap_or_else(PoisonError::into_inner),
            #[cfg(debug_assertions)]
            _token: token,
        }
    }

    /// This lock's rank and name.
    pub fn rank(&self) -> Rank {
        self.rank
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
        let (r_a, r_b) = (Rank::new(9010, "test.a"), Rank::new(9011, "test.b"));
        let a = OrderedMutex::new(r_a, 1);
        let b = OrderedMutex::new(r_b, 2);
        let ga = a.lock();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
    }

    #[test]
    fn release_and_reacquire_is_clean() {
        let r_re = Rank::new(9020, "test.re");
        let a = OrderedMutex::new(r_re, 0);
        for _ in 0..3 {
            let mut g = a.lock();
            *g += 1;
        }
        assert_eq!(*a.lock(), 3);
    }

    #[test]
    #[should_panic(
        expected = "acquiring `test.ab.a` (rank 9030) while holding `test.ab.b` (rank 9031)"
    )]
    fn ab_ba_inversion_panics_naming_both_ranks() {
        let (r_a, r_b) = (Rank::new(9030, "test.ab.a"), Rank::new(9031, "test.ab.b"));
        let a = Arc::new(OrderedMutex::new(r_a, ()));
        let b = Arc::new(OrderedMutex::new(r_b, ()));
        // Establish a -> b.
        {
            let _ga = a.lock();
            let _gb = b.lock();
        }
        // Invert: b -> a must die with a cycle report naming both locks,
        // each by the name its `Rank` carries.
        let _gb = b.lock();
        let _ga = a.lock();
    }

    #[test]
    #[should_panic(
        expected = "acquiring `test.same.b` (rank 9040) while holding `test.same.a` (rank 9040)"
    )]
    fn same_rank_acquisition_panics() {
        let (r_a, r_b) = (
            Rank::new(9040, "test.same.a"),
            Rank::new(9040, "test.same.b"),
        );
        let a = OrderedMutex::new(r_a, ());
        let b = OrderedMutex::new(r_b, ());
        let _ga = a.lock();
        let _gb = b.lock();
    }

    #[test]
    #[should_panic(expected = "lock-order cycle")]
    fn rwlock_participates_in_cycles() {
        let (r_m, r_rw) = (Rank::new(9050, "test.rw.m"), Rank::new(9051, "test.rw.rw"));
        let m = OrderedMutex::new(r_m, ());
        let rw = OrderedRwLock::new(r_rw, ());
        {
            let _gm = m.lock();
            let _gr = rw.read();
        }
        let _gw = rw.write();
        let _gm = m.lock();
    }

    #[test]
    fn cross_thread_inversion_is_caught() {
        let (r_a, r_b) = (Rank::new(9060, "test.x.a"), Rank::new(9061, "test.x.b"));
        // Thread 1 establishes a -> b; thread 2 then tries b -> a and
        // must panic. Joined sequentially so the order is deterministic.
        let a = Arc::new(OrderedMutex::new(r_a, ()));
        let b = Arc::new(OrderedMutex::new(r_b, ()));
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
