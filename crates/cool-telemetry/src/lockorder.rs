//! Lock order and blocking under a lock, checked by the compiler.
//!
//! Every lock that participates in the ORB's cross-thread protocols is an
//! [`OrderedMutex`] whose second type parameter is its rank: one of the
//! zero-sized types in [`rank`]. Locking takes a token, `&mut Locked<L>`,
//! that says which rank the thread last took (`L`), and compiles only when
//! `L: LockBefore<R>` — when the lock's rank `R` comes after it in the
//! order [`rank`] declares. It hands back the guard and a token for `R`,
//! which borrows the token it was given: while the guard lives, the only
//! way to take another lock is to go further down the order. An
//! acquisition against the order is a type error, on every path, whether
//! tests run it or not, closures and callbacks included (a closure that
//! locks is handed its token as an argument; a token cannot cross
//! threads).
//!
//! Blocking follows from the same borrow. A channel send that may wait, a
//! receive, a condvar wait, a park, a join and a TCP connect go through
//! [`crate::blocking`], whose
//! functions take the unlocked token, `&mut Locked<Unlocked>`. While any
//! guard lives that token is borrowed, so such a call under a ranked lock
//! does not compile; a function that blocks says so by taking the token.
//! `clippy.toml` lists the raw methods, denied in library code.
//!
//! Tokens come from two places:
//! - [`Locked::root`] — "this thread holds no lock" — is minted where a
//!   thread starts (a pool job, a dispatcher, the prober, the sampler, the
//!   acceptor) and where a public entry point starts. Debug builds count
//!   the guards a thread holds and panic if a root is minted while it
//!   holds one, which is the one thing the types cannot see.
//! - [`Locked::anywhere`] is for code that may run under any lock
//!   (telemetry's API, a grant's drop): it admits only the leaves, and
//!   blocks nowhere.
//!
//! A *leaf* rank is one nothing is taken under. Any token admits it, and
//! the token it hands back admits nothing.
//!
//! Each refusal below sits beside its compiling twin.
//!
//! ```compile_fail
//! // `stack.chain` taken before `connection.uplink`: refused.
//! use cool_telemetry::lockorder::{rank, Locked, OrderedMutex};
//! let uplink = OrderedMutex::<(), rank::ConnectionUplink>::new(());
//! let chain = OrderedMutex::<(), rank::StackChain>::new(());
//! let (_chain, held) = chain.lock(Locked::root());
//! let _uplink = uplink.lock(held);
//! ```
//! ```
//! // Its twin, in the declared order: compiles.
//! use cool_telemetry::lockorder::{rank, Locked, OrderedMutex};
//! let uplink = OrderedMutex::<(), rank::ConnectionUplink>::new(());
//! let chain = OrderedMutex::<(), rank::StackChain>::new(());
//! let (_uplink, held) = uplink.lock(Locked::root());
//! let _chain = chain.lock(held);
//! ```
//! ```compile_fail
//! // A lock taken under a leaf (`telemetry.flight`): refused.
//! use cool_telemetry::lockorder::{rank, Locked, OrderedMutex};
//! let flight = OrderedMutex::<(), rank::TelemetryFlight>::new(());
//! let pending = OrderedMutex::<(), rank::BindingPending>::new(());
//! let (_events, held) = flight.lock(Locked::root());
//! let _slots = pending.lock(held);
//! ```
//! ```
//! // Its twin, the leaf taken last: compiles.
//! use cool_telemetry::lockorder::{rank, Locked, OrderedMutex};
//! let flight = OrderedMutex::<(), rank::TelemetryFlight>::new(());
//! let pending = OrderedMutex::<(), rank::BindingPending>::new(());
//! let (_slots, held) = pending.lock(Locked::root());
//! let _events = flight.lock(held);
//! ```
//! ```compile_fail
//! // A closure that locks with a token it was not handed: refused.
//! use cool_telemetry::lockorder::{rank, Locked, OrderedMutex, Unlocked};
//! use std::sync::Arc;
//! fn on_another_thread(job: impl FnOnce(&mut Locked<Unlocked>) + Send + 'static) {
//!     std::thread::spawn(move || job(Locked::root()));
//! }
//! let pending = Arc::new(OrderedMutex::<(), rank::BindingPending>::new(()));
//! let held = Locked::root();
//! on_another_thread(move |_| drop(pending.lock(held)));
//! ```
//! ```
//! // Its twin, locking with the token it is handed: compiles.
//! use cool_telemetry::lockorder::{rank, Locked, OrderedMutex, Unlocked};
//! use std::sync::Arc;
//! fn on_another_thread(job: impl FnOnce(&mut Locked<Unlocked>) + Send + 'static) {
//!     std::thread::spawn(move || job(Locked::root()));
//! }
//! let pending = Arc::new(OrderedMutex::<(), rank::BindingPending>::new(()));
//! on_another_thread(move |held| drop(pending.lock(held)));
//! ```
//! ```compile_fail
//! // A channel receive while a guard lives: `held` is borrowed by it.
//! use cool_telemetry::blocking;
//! use cool_telemetry::lockorder::{rank, Locked, OrderedMutex};
//! let pending = OrderedMutex::<(), rank::BindingPending>::new(());
//! let (_tx, rx) = crossbeam::channel::bounded::<()>(1);
//! let held = Locked::root();
//! let (slots, _) = pending.lock(held);
//! let _ = blocking::recv_timeout(held, &rx, std::time::Duration::ZERO);
//! drop(slots);
//! ```
//! ```
//! // Its twin, the guard released first: compiles.
//! use cool_telemetry::blocking;
//! use cool_telemetry::lockorder::{rank, Locked, OrderedMutex};
//! let pending = OrderedMutex::<(), rank::BindingPending>::new(());
//! let (_tx, rx) = crossbeam::channel::bounded::<()>(1);
//! let held = Locked::root();
//! let (slots, _) = pending.lock(held);
//! drop(slots);
//! let _ = blocking::recv_timeout(held, &rx, std::time::Duration::ZERO);
//! ```
//! ```compile_fail
//! // A send that waits for room, under `server.conns`: refused.
//! use cool_telemetry::blocking;
//! use cool_telemetry::lockorder::{rank, Locked, OrderedMutex};
//! let conns = OrderedMutex::<(), rank::ServerConns>::new(());
//! let (tx, _rx) = crossbeam::channel::bounded::<()>(1);
//! let held = Locked::root();
//! let (list, _) = conns.lock(held);
//! let _ = blocking::send(held, &tx, ());
//! drop(list);
//! ```
//! ```
//! // Its twin, the guard released first: compiles.
//! use cool_telemetry::blocking;
//! use cool_telemetry::lockorder::{rank, Locked, OrderedMutex};
//! let conns = OrderedMutex::<(), rank::ServerConns>::new(());
//! let (tx, _rx) = crossbeam::channel::bounded::<()>(1);
//! let held = Locked::root();
//! let (list, _) = conns.lock(held);
//! drop(list);
//! let _ = blocking::send(held, &tx, ());
//! ```
//! ```compile_fail
//! // A park under `binding.pending`, as the parked reply wait would be
//! // if it kept its slots: refused.
//! use cool_telemetry::blocking;
//! use cool_telemetry::lockorder::{rank, Locked, OrderedMutex};
//! let pending = OrderedMutex::<(), rank::BindingPending>::new(());
//! let held = Locked::root();
//! let (slots, _) = pending.lock(held);
//! blocking::park_timeout(held, std::time::Duration::ZERO);
//! drop(slots);
//! ```
//! ```
//! // Its twin, the slots dropped before the park: compiles.
//! use cool_telemetry::blocking;
//! use cool_telemetry::lockorder::{rank, Locked, OrderedMutex};
//! let pending = OrderedMutex::<(), rank::BindingPending>::new(());
//! let held = Locked::root();
//! let (slots, _) = pending.lock(held);
//! drop(slots);
//! blocking::park_timeout(held, std::time::Duration::ZERO);
//! ```
//! ```compile_fail
//! // A join under `server.threads`, as a server's close once had it.
//! use cool_telemetry::blocking;
//! use cool_telemetry::lockorder::{rank, Locked, OrderedMutex};
//! let threads = OrderedMutex::<_, rank::ServerThreads>::new(Some(std::thread::spawn(|| {})));
//! let held = Locked::root();
//! let (mut slot, _) = threads.lock(held);
//! if let Some(thread) = slot.take() {
//!     let _ = blocking::join(held, thread);
//! }
//! ```
//! ```
//! // Its twin, the handle taken out and joined with the lock released:
//! // compiles.
//! use cool_telemetry::blocking;
//! use cool_telemetry::lockorder::{rank, Locked, OrderedMutex};
//! let threads = OrderedMutex::<_, rank::ServerThreads>::new(Some(std::thread::spawn(|| {})));
//! let held = Locked::root();
//! let thread = threads.lock(held).0.take();
//! if let Some(thread) = thread {
//!     let _ = blocking::join(held, thread);
//! }
//! ```
//! ```compile_fail
//! // A closure that blocks with a token it was not handed: refused.
//! use cool_telemetry::blocking;
//! use cool_telemetry::lockorder::{Locked, Unlocked};
//! fn on_another_thread(job: impl FnOnce(&mut Locked<Unlocked>) + Send + 'static) {
//!     std::thread::spawn(move || job(Locked::root()));
//! }
//! let (_tx, rx) = crossbeam::channel::bounded::<()>(1);
//! let held = Locked::root();
//! on_another_thread(move |_| drop(blocking::recv_timeout(held, &rx, std::time::Duration::ZERO)));
//! ```
//! ```
//! // Its twin, blocking with the token it is handed: compiles.
//! use cool_telemetry::blocking;
//! use cool_telemetry::lockorder::{Locked, Unlocked};
//! fn on_another_thread(job: impl FnOnce(&mut Locked<Unlocked>) + Send + 'static) {
//!     std::thread::spawn(move || job(Locked::root()));
//! }
//! let (_tx, rx) = crossbeam::channel::bounded::<()>(1);
//! on_another_thread(move |held| drop(blocking::recv_timeout(held, &rx, std::time::Duration::ZERO)));
//! ```
//! ```compile_fail
//! // A condvar wait with no predicate: there is no such call.
//! use cool_telemetry::blocking;
//! use cool_telemetry::lockorder::Locked;
//! let (done, cv) = (parking_lot::Mutex::new(true), parking_lot::Condvar::new());
//! let mut done = done.lock();
//! blocking::wait_while(Locked::root(), &cv, &mut done);
//! ```
//! ```
//! // Its twin, waiting while the predicate holds: compiles.
//! use cool_telemetry::blocking;
//! use cool_telemetry::lockorder::Locked;
//! let (done, cv) = (parking_lot::Mutex::new(true), parking_lot::Condvar::new());
//! let mut done = done.lock();
//! blocking::wait_while(Locked::root(), &cv, &mut done, |done| !*done);
//! ```
//!
//! Release builds keep nothing: tokens are zero-sized and the wrappers are
//! plain mutexes (non-poisoning: a panic elsewhere never wedges the ORB).

use std::marker::PhantomData;
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};

/// `Self` may be held while `R` is taken. Implemented for every pair the
/// order in [`rank`] allows, and for no other.
pub trait LockBefore<R> {}

/// `Self` is taken after `A`: what [`rank`]'s declarations state, from
/// which [`LockBefore`] follows.
pub trait LockAfter<A> {}

impl<B: LockAfter<A>, A> LockBefore<B> for A {}

/// A rank a token may carry while it still admits a leaf: every rank but
/// the leaves.
pub trait Admits {}

/// Declares `$b` the rank taken right after `$a` (and so after everything
/// before `$a`).
macro_rules! impl_lock_after {
    ($a:ty => $b:ty) => {
        impl LockAfter<$a> for $b {}
        impl<X: LockBefore<$a>> LockAfter<X> for $b {}
        impl Admits for $b {}
    };
}

/// Declares `$b` a leaf: taken under anything but another leaf.
macro_rules! impl_leaf {
    ($b:ty) => {
        impl<X: Admits> LockAfter<X> for $b {}
    };
}

/// The rank of a thread that holds no lock: what [`Locked::root`] carries.
pub struct Unlocked;
impl Admits for Unlocked {}

/// The rank of code that may run under any lock: what
/// [`Locked::anywhere`] carries. It admits the leaves only.
pub struct Anywhere;
impl Admits for Anywhere {}

/// The project-wide lock order, outermost first: each type is a lock's
/// rank, and the declarations below (`impl_lock_after!(A => B)`: `B` is
/// taken after `A`) are the one place the order is written down. A new
/// lock gets a type here, a line in the order where the call graph takes
/// it, and the doc comment saying what it guards.
pub mod rank {
    use super::{Admits, LockAfter, LockBefore, Unlocked};

    /// `resolved.state` — `ResolvedStub::replica_set`, a replicated
    /// binding's replica table: each replica's failure machine, the active
    /// index, the rotation cursor and the liveness prober's thread handle
    /// (taken at close, then joined outside the lock). Failure bookkeeping
    /// runs under it and records flight events; picking a replica precedes
    /// (never overlaps) any ORB or binding lock.
    pub struct ResolvedState;
    /// `orb.bindings` — `Orb::bindings`, the client binding cache. Nothing
    /// is dialed or closed under it: shutdown drains it and closes the
    /// bindings with it released, and a binding an insert displaces is
    /// dropped after the guard.
    pub struct OrbBindings;
    /// `orb.served` — `Orb::served`, addresses served by collocated
    /// servers.
    pub struct OrbServed;
    /// `orb.introspect` — `Orb::introspect`, the live introspection
    /// endpoint handle; taken only at shutdown, never while serving a
    /// request.
    pub struct OrbIntrospect;
    /// `orb.fault_engines` — `Orb::fault_engines`, per-target fault
    /// engines (`OrbConfig::fault_plans`), cached so a reconnect replays the
    /// same deterministic fault schedule; taken briefly at dial time.
    pub struct OrbFaultEngines;
    /// `server.threads` — `OrbServer::threads`, the TCP acceptor's and the
    /// dispatchers' thread handles and the dispatch queue's sender: written
    /// at start, taken out together by close, which joins with it
    /// released.
    pub struct ServerThreads;
    /// `server.conn.cancelled` — `ConnState::cancelled`, a connection's
    /// cancel set.
    pub struct ServerConnCancelled;
    /// `binding.pending` — `Binding::pending`, in-flight request slots (the
    /// reply demux); a binding's one ranked lock, since its channel is fixed
    /// for its life. Taken by callers and by the thread delivering replies;
    /// only span bookkeeping is taken under it.
    pub struct BindingPending;
    /// `server.conns` — `OrbServer::conns`, the live server-side connection
    /// list. Taken by an attach, which runs on the thread that made the
    /// connection (a dial, with no lock held), and by the server's close.
    pub struct ServerConns;
    /// `exchange.registry` — `Exchange::registry`, the in-process transport
    /// listener registry, taken by a dial (with no lock held) to look a
    /// listener up; the listener runs with it released.
    pub struct ExchangeRegistry;
    /// `stub.state` — `Invoker::per_stub`, what one logical stub carries
    /// from call to call: QoS operating point (offered spec, degradation
    /// ladder, steps taken), last granted QoS, call timeout, the bound
    /// endpoint. A resolved binding has one for all its replicas. Never held
    /// across a call.
    pub struct StubState;
    /// `connection.state` — `Connection::running`, what a reconfiguration
    /// replaces as one record: the running module stack (whose endpoint
    /// every send reads), the module graph and parameters, and this side's
    /// one resource grant, from establishment to close. Held across a stack
    /// swap and while a renegotiation exchanges the grant; never across a
    /// wait, a join or transport I/O (a drain clones the stack and waits
    /// with it released).
    pub struct ConnectionState;
    /// `connection.uplink` — the `dacapo::runtime::RxPump` slot through
    /// which the holder of the connection's receive turn enters the current
    /// stack. Taken under `connection.state` for the swap itself, which
    /// parks the turn holder with any frame it reads meanwhile; taken per
    /// frame and per tick by the turn holder, for as long as it runs that
    /// stack's modules — which is why it is not part of the state: a sender
    /// must not wait behind it.
    pub struct ConnectionUplink;
    /// `stack.writer` — a `dacapo::runtime` stack's writer lock: whoever
    /// holds it writes the stack's wire-bound frames to the transport, in
    /// order, and takes `stack.chain` under it to fetch them. Senders and
    /// the connection's writer job wait for it, holding nothing else (a
    /// full wire is their backpressure); the receive turn's holder only
    /// ever tries it, to learn whether somebody is writing.
    pub struct StackWriter;
    /// `stack.chain` — a `dacapo::runtime` stack's modules, their queues,
    /// and the deques for the wire and for the application. Taken under
    /// `connection.uplink` by the receive turn's holder and under `stack.writer`
    /// to fetch what is to be written; never held across a transport write,
    /// a wait or an application callback.
    pub struct StackChain;
    /// `resource.usage` — the `ResourceManager`/`ResourceGrant` usage
    /// ledger: admission. A leaf, taken by every grant drop.
    pub struct ResourceUsage;
    /// `telemetry.spans` — `SpanStore::inner`, active spans and the ring of
    /// finished calls (traced ones with their merged trace). A leaf, taken
    /// from code that may hold any lock above.
    pub struct TelemetrySpans;
    /// `telemetry.flight` — `FlightRecorder::events`, the bounded event
    /// ring. A leaf: events are recorded from arbitrary call sites.
    pub struct TelemetryFlight;
    /// `telemetry.gauges` — `GaugeSeries::series`, sampled gauge time
    /// series. A leaf, written by the sampler thread and read by the
    /// introspection endpoint.
    pub struct TelemetryGauges;

    impl_lock_after!(Unlocked => ResolvedState);
    impl_lock_after!(ResolvedState => OrbBindings);
    impl_lock_after!(OrbBindings => OrbServed);
    impl_lock_after!(OrbServed => OrbIntrospect);
    impl_lock_after!(OrbIntrospect => OrbFaultEngines);
    impl_lock_after!(OrbFaultEngines => ServerThreads);
    impl_lock_after!(ServerThreads => ServerConnCancelled);
    impl_lock_after!(ServerConnCancelled => BindingPending);
    impl_lock_after!(BindingPending => ServerConns);
    impl_lock_after!(ServerConns => ExchangeRegistry);
    impl_lock_after!(ExchangeRegistry => StubState);
    impl_lock_after!(StubState => ConnectionState);
    impl_lock_after!(ConnectionState => ConnectionUplink);
    impl_lock_after!(ConnectionUplink => StackWriter);
    impl_lock_after!(StackWriter => StackChain);
    impl_leaf!(ResourceUsage);
    impl_leaf!(TelemetrySpans);
    impl_leaf!(TelemetryFlight);
    impl_leaf!(TelemetryGauges);
}

/// The token a thread locks with: it last took a lock of rank `L` (or, for
/// [`Unlocked`], holds none). Zero-sized, handed around as `&mut`, and
/// neither `Send` nor `Sync`: a token stays on the thread it was minted on.
pub struct Locked<L> {
    rank: PhantomData<fn() -> L>,
    on_this_thread: PhantomData<*const ()>,
}

impl<L> Locked<L> {
    /// A fresh token. Boxing a zero-sized value allocates nothing, and
    /// leaking the box yields a borrow as long as the caller needs.
    fn mint<'a>() -> &'a mut Self
    where
        Self: 'a,
    {
        Box::leak(Box::new(Locked {
            rank: PhantomData,
            on_this_thread: PhantomData,
        }))
    }
}

impl Locked<Unlocked> {
    /// The token of a thread that holds no lock: minted at a thread's start
    /// and at a public entry point. Panics in debug builds if this thread
    /// holds a guard.
    pub fn root() -> &'static mut Self {
        #[cfg(debug_assertions)]
        depth::HELD.with(|held| {
            assert_eq!(
                held.get(),
                0,
                "lock-order violation: a root token minted while this thread holds \
                 {} lock guard(s); hand the caller's token down instead",
                held.get()
            );
        });
        Self::mint()
    }
}

impl Locked<Anywhere> {
    /// The token of code that may run under any lock: it takes the leaves
    /// only.
    pub fn anywhere() -> &'static mut Self {
        Self::mint()
    }
}

/// Debug builds count the guards each thread holds, so that a root minted
/// under one is caught.
#[cfg(debug_assertions)]
mod depth {
    use std::cell::Cell;

    thread_local! {
        pub(super) static HELD: Cell<u32> = const { Cell::new(0) };
    }

    /// One guard's share of the count.
    #[derive(Debug)]
    pub(super) struct Held(());

    impl Held {
        pub(super) fn take() -> Self {
            HELD.with(|held| held.set(held.get() + 1));
            Held(())
        }
    }

    impl Drop for Held {
        fn drop(&mut self) {
            HELD.with(|held| held.set(held.get() - 1));
        }
    }
}

/// A mutex whose rank is the type `R`.
pub struct OrderedMutex<T, R> {
    inner: Mutex<T>,
    rank: PhantomData<fn() -> R>,
}

impl<T: std::fmt::Debug, R> std::fmt::Debug for OrderedMutex<T, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

/// Guard for [`OrderedMutex`].
#[derive(Debug)]
pub struct OrderedMutexGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: depth::Held,
}

impl<'a, T> OrderedMutexGuard<'a, T> {
    fn new(guard: MutexGuard<'a, T>) -> Self {
        OrderedMutexGuard {
            guard,
            #[cfg(debug_assertions)]
            _held: depth::Held::take(),
        }
    }
}

impl<T, R> OrderedMutex<T, R> {
    /// Wraps `value` under the rank `R`.
    pub const fn new(value: T) -> Self {
        OrderedMutex {
            inner: Mutex::new(value),
            rank: PhantomData,
        }
    }

    /// Acquires the lock with `held`, which stays borrowed while the guard
    /// and the returned token live. Non-poisoning: a panic in another
    /// holder never wedges this lock.
    pub fn lock<'a, L: LockBefore<R>>(
        &'a self,
        held: &'a mut Locked<L>,
    ) -> (OrderedMutexGuard<'a, T>, &'a mut Locked<R>) {
        let _ = held;
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        (OrderedMutexGuard::new(guard), Locked::mint())
    }

    /// Acquires the lock if it is free, `None` if another thread holds it.
    pub fn try_lock<'a, L: LockBefore<R>>(
        &'a self,
        held: &'a mut Locked<L>,
    ) -> Option<(OrderedMutexGuard<'a, T>, &'a mut Locked<R>)> {
        let _ = held;
        let guard = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some((OrderedMutexGuard::new(guard), Locked::mint()))
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

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "a root token minted while this thread holds 1 lock guard(s)")]
    fn a_root_minted_under_a_guard_panics() {
        let pending = OrderedMutex::<(), rank::BindingPending>::new(());
        let _slots = pending.lock(Locked::root());
        let _ = Locked::root();
    }
}
