//! MPMC channels with `Select`, shimming `crossbeam::channel`.
//!
//! Implementation: a `VecDeque` behind a mutex with two condvars
//! (not-empty / not-full) and a per-`Select` waker registered with every
//! participating channel so a push or disconnect wakes the selector.
//!
//! `std::sync::Condvar::notify_*` is a `FUTEX_WAKE` whether or not anyone
//! waits, so every condvar here is signalled only when the state under its
//! mutex says a thread is parked on it: `recv_waiting` / `send_waiting`
//! for a channel, `parked` for a select. Each is set by the waiter while
//! it still holds the lock and read by the notifier under the same lock.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::marker::PhantomData;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, Instant};

/// Creates an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_capacity(None)
}

/// Creates a bounded channel with capacity `cap`.
///
/// Like crossbeam, `cap == 0` would mean a rendezvous channel; this shim
/// treats it as capacity 1 (the workspace never creates zero-capacity
/// channels).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    with_capacity(Some(cap.max(1)))
}

fn with_capacity<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let core = Arc::new(Core {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            cap,
            senders: 1,
            receivers: 1,
            recv_waiting: 0,
            send_waiting: 0,
            wakers: Vec::new(),
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            core: Arc::clone(&core),
        },
        Receiver { core },
    )
}

struct State<T> {
    queue: VecDeque<T>,
    cap: Option<usize>,
    senders: usize,
    receivers: usize,
    /// Threads parked on `not_empty` / `not_full` right now.
    recv_waiting: usize,
    send_waiting: usize,
    wakers: Vec<Weak<SelectWaker>>,
}

impl<T> State<T> {
    fn wake_selects(&mut self) {
        self.wakers.retain(|w| match w.upgrade() {
            Some(w) => {
                w.notify();
                true
            }
            None => false,
        });
    }
}

struct Core<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

type Locked<'a, T> = std::sync::MutexGuard<'a, State<T>>;

impl<T> Core<T> {
    fn lock(&self) -> Locked<'_, T> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Queues `value` and wakes whoever waits for one: selectors, and a
    /// receiver if one is parked.
    fn push(&self, st: &mut State<T>, value: T) {
        st.queue.push_back(value);
        st.wake_selects();
        if st.recv_waiting > 0 {
            self.not_empty.notify_one();
        }
    }

    /// Takes the oldest message, releasing a sender parked on a full queue.
    fn pop(&self, st: &mut State<T>) -> Option<T> {
        let value = st.queue.pop_front()?;
        if st.send_waiting > 0 {
            self.not_full.notify_one();
        }
        Some(value)
    }

    /// Parks a receiver until a push or the last sender's drop, or until
    /// `timeout` has passed.
    fn wait_not_empty<'a>(
        &self,
        mut st: Locked<'a, T>,
        timeout: Option<Duration>,
    ) -> Locked<'a, T> {
        st.recv_waiting += 1;
        let mut st = match timeout {
            Some(t) => {
                self.not_empty
                    .wait_timeout(st, t)
                    .unwrap_or_else(|e| e.into_inner())
                    .0
            }
            None => self.not_empty.wait(st).unwrap_or_else(|e| e.into_inner()),
        };
        st.recv_waiting -= 1;
        st
    }
}

/// The sending half of a channel. Cloneable (multi-producer).
pub struct Sender<T> {
    core: Arc<Core<T>>,
}

/// The receiving half of a channel. Cloneable (multi-consumer).
pub struct Receiver<T> {
    core: Arc<Core<T>>,
}

impl<T> Sender<T> {
    /// Blocks until the value is enqueued; errors when all receivers are gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.core.lock();
        loop {
            if st.receivers == 0 {
                return Err(SendError(value));
            }
            if st.cap.map_or(true, |c| st.queue.len() < c) {
                self.core.push(&mut st, value);
                return Ok(());
            }
            st.send_waiting += 1;
            st = self
                .core
                .not_full
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
            st.send_waiting -= 1;
        }
    }

    /// Enqueues without blocking, or reports why it can't.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let mut st = self.core.lock();
        if st.receivers == 0 {
            return Err(TrySendError::Disconnected(value));
        }
        if st.cap.is_some_and(|c| st.queue.len() >= c) {
            return Err(TrySendError::Full(value));
        }
        self.core.push(&mut st, value);
        Ok(())
    }

    /// True when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.core.lock().queue.is_empty()
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.core.lock().queue.len()
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.core.lock().senders += 1;
        Sender {
            core: Arc::clone(&self.core),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.core.lock();
        st.senders -= 1;
        if st.senders == 0 {
            st.wake_selects();
            if st.recv_waiting > 0 {
                self.core.not_empty.notify_all();
            }
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> Receiver<T> {
    /// Blocks until a message arrives; errors when the channel is empty and
    /// all senders are gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.core.lock();
        loop {
            if let Some(v) = self.core.pop(&mut st) {
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st = self.core.wait_not_empty(st, None);
        }
    }

    /// Blocks with a timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.recv_deadline(Instant::now() + timeout)
    }

    /// Blocks until the given deadline.
    pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
        let mut st = self.core.lock();
        loop {
            if let Some(v) = self.core.pop(&mut st) {
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            st = self.core.wait_not_empty(st, Some(deadline - now));
        }
    }

    /// Receives without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.core.lock();
        if let Some(v) = self.core.pop(&mut st) {
            return Ok(v);
        }
        if st.senders == 0 {
            return Err(TryRecvError::Disconnected);
        }
        Err(TryRecvError::Empty)
    }

    /// Drains currently queued messages without blocking.
    pub fn try_iter(&self) -> TryIter<'_, T> {
        TryIter { receiver: self }
    }

    /// True when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.core.lock().queue.is_empty()
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.core.lock().queue.len()
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.core.lock().receivers += 1;
        Receiver {
            core: Arc::clone(&self.core),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.core.lock();
        st.receivers -= 1;
        if st.receivers == 0 && st.send_waiting > 0 {
            self.core.not_full.notify_all();
        }
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

/// Iterator over currently available messages (see [`Receiver::try_iter`]).
pub struct TryIter<'a, T> {
    receiver: &'a Receiver<T>,
}

impl<T> Iterator for TryIter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.receiver.try_recv().ok()
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Error for [`Sender::send`]: all receivers disconnected.
#[derive(PartialEq, Eq, Clone, Copy)]
pub struct SendError<T>(pub T);

impl<T> SendError<T> {
    /// Returns the message that could not be sent.
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T> Error for SendError<T> {}

/// Error for [`Sender::try_send`].
#[derive(PartialEq, Eq, Clone, Copy)]
pub enum TrySendError<T> {
    /// The channel is full.
    Full(T),
    /// All receivers disconnected.
    Disconnected(T),
}

impl<T> TrySendError<T> {
    /// Returns the message that could not be sent.
    pub fn into_inner(self) -> T {
        match self {
            TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
        }
    }

    /// True for the `Full` variant.
    pub fn is_full(&self) -> bool {
        matches!(self, TrySendError::Full(_))
    }

    /// True for the `Disconnected` variant.
    pub fn is_disconnected(&self) -> bool {
        matches!(self, TrySendError::Disconnected(_))
    }
}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("Full(..)"),
            TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
        }
    }
}

impl<T> fmt::Display for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("sending on a full channel"),
            TrySendError::Disconnected(_) => f.write_str("sending on a disconnected channel"),
        }
    }
}

impl<T> Error for TrySendError<T> {}

/// Error for [`Receiver::recv`]: channel empty and all senders disconnected.
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl Error for RecvError {}

/// Error for [`Receiver::try_recv`].
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// Channel empty and all senders disconnected.
    Disconnected,
}

impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryRecvError::Empty => f.write_str("receiving on an empty channel"),
            TryRecvError::Disconnected => {
                f.write_str("receiving on an empty and disconnected channel")
            }
        }
    }
}

impl Error for TryRecvError {}

/// Error for [`Receiver::recv_timeout`].
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
pub enum RecvTimeoutError {
    /// The timeout elapsed with no message.
    Timeout,
    /// Channel empty and all senders disconnected.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("timed out waiting on channel"),
            RecvTimeoutError::Disconnected => {
                f.write_str("receiving on an empty and disconnected channel")
            }
        }
    }
}

impl Error for RecvTimeoutError {}

// ---------------------------------------------------------------------------
// Select
// ---------------------------------------------------------------------------

#[derive(Default)]
struct WakerState {
    signalled: bool,
    /// The selecting thread is inside `cv`'s wait.
    parked: bool,
}

struct SelectWaker {
    state: Mutex<WakerState>,
    cv: Condvar,
}

impl SelectWaker {
    fn new() -> Self {
        SelectWaker {
            state: Mutex::new(WakerState::default()),
            cv: Condvar::new(),
        }
    }

    fn notify(&self) {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        s.signalled = true;
        if s.parked {
            self.cv.notify_all();
        }
    }

    /// Waits until signalled or the deadline passes. Returns true on timeout.
    fn wait_deadline(&self, deadline: Instant) -> bool {
        let mut s = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if s.signalled {
                s.signalled = false;
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return true;
            }
            s.parked = true;
            s = self
                .cv
                .wait_timeout(s, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
            s.parked = false;
        }
    }
}

trait SelectHandle {
    /// True when an operation on this channel would not block:
    /// a message is queued or the channel is disconnected.
    fn ready(&self) -> bool;
    fn register(&self, waker: &Arc<SelectWaker>);
}

impl<T> SelectHandle for Receiver<T> {
    fn ready(&self) -> bool {
        let st = self.core.lock();
        !st.queue.is_empty() || st.senders == 0
    }

    fn register(&self, waker: &Arc<SelectWaker>) {
        let mut st = self.core.lock();
        st.wakers.retain(|w| w.strong_count() > 0);
        st.wakers.push(Arc::downgrade(waker));
    }
}

/// Error for [`Select::select_timeout`]: no operation became ready in time.
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
pub struct SelectTimeoutError;

impl fmt::Display for SelectTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("select timed out")
    }
}

impl Error for SelectTimeoutError {}

/// Waits over multiple receive operations (shim of `crossbeam::channel::Select`,
/// receive side only).
pub struct Select<'a> {
    handles: Vec<&'a dyn SelectHandle>,
}

impl<'a> Select<'a> {
    /// Creates an empty selector.
    pub fn new() -> Self {
        Select {
            handles: Vec::new(),
        }
    }

    /// Adds a receive operation; returns its index.
    pub fn recv<T>(&mut self, receiver: &'a Receiver<T>) -> usize {
        self.handles.push(receiver);
        self.handles.len() - 1
    }

    /// Blocks until one registered operation is ready.
    pub fn select(&mut self) -> SelectedOperation<'a> {
        loop {
            if let Ok(op) = self.select_timeout(Duration::from_secs(3600)) {
                return op;
            }
        }
    }

    /// Blocks until one registered operation is ready or the timeout elapses.
    pub fn select_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<SelectedOperation<'a>, SelectTimeoutError> {
        assert!(!self.handles.is_empty(), "selecting on no operations");
        let deadline = Instant::now() + timeout;
        let waker = Arc::new(SelectWaker::new());
        for h in &self.handles {
            h.register(&waker);
        }
        loop {
            if let Some(index) = self.scan() {
                return Ok(SelectedOperation {
                    index,
                    _marker: PhantomData,
                });
            }
            if waker.wait_deadline(deadline) {
                // Timed out: one last scan to close the race between the
                // final check and the deadline.
                return match self.scan() {
                    Some(index) => Ok(SelectedOperation {
                        index,
                        _marker: PhantomData,
                    }),
                    None => Err(SelectTimeoutError),
                };
            }
        }
    }

    fn scan(&self) -> Option<usize> {
        self.handles.iter().position(|h| h.ready())
    }
}

impl Default for Select<'_> {
    fn default() -> Self {
        Select::new()
    }
}

/// A ready operation returned by [`Select`]. Complete it with
/// [`SelectedOperation::recv`].
pub struct SelectedOperation<'a> {
    index: usize,
    _marker: PhantomData<&'a ()>,
}

impl SelectedOperation<'_> {
    /// Index of the ready operation (as returned by [`Select::recv`]).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Completes the receive.
    ///
    /// "Ready" can mean a queued message was consumed by another receiver
    /// between the scan and this call; in that rare case this blocks until
    /// the next message (matching crossbeam's retry semantics closely enough
    /// for single-consumer-per-channel use).
    pub fn recv<T>(self, receiver: &Receiver<T>) -> Result<T, RecvError> {
        match receiver.try_recv() {
            Ok(v) => Ok(v),
            Err(TryRecvError::Disconnected) => Err(RecvError),
            Err(TryRecvError::Empty) => receiver.recv(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn round_trip_unbounded() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
    }

    #[test]
    fn bounded_blocks_and_unblocks() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        assert!(tx.try_send(2).unwrap_err().is_full());
        let t = thread::spawn(move || tx.send(2));
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        t.join().unwrap().unwrap();
    }

    /// Spins until `parked` reads true under the channel's lock: the
    /// waiter counts are raised with that lock held, so from then on the
    /// other thread is inside its condvar wait.
    fn until_parked<T>(core: &Core<T>, parked: fn(&State<T>) -> bool) {
        while !parked(&core.lock()) {
            thread::yield_now();
        }
    }

    #[test]
    fn a_sender_parked_on_a_full_channel_is_released_by_every_exit() {
        // What the receiving side does once the sender is parked; `None`
        // is "the last receiver goes away".
        let exits: [Option<fn(&Receiver<u8>) -> u8>; 3] = [
            Some(|rx| rx.recv().unwrap()),
            Some(|rx| rx.try_recv().unwrap()),
            None,
        ];
        for (case, take) in exits.into_iter().enumerate() {
            let (tx, rx) = bounded(1);
            tx.send(1).unwrap();
            let core = Arc::clone(&tx.core);
            let t = thread::spawn(move || tx.send(2));
            until_parked(&core, |st| st.send_waiting == 1);
            // Parked for ever if the notify was skipped.
            match take {
                Some(take) => {
                    assert_eq!(take(&rx), 1);
                    t.join().unwrap().unwrap();
                    assert_eq!(rx.recv().unwrap(), 2);
                }
                None => {
                    drop(rx);
                    assert!(t.join().unwrap().is_err(), "case {case}");
                }
            }
            assert_eq!(core.lock().send_waiting, 0);
        }
    }

    #[test]
    fn a_receiver_parked_on_an_empty_channel_is_released_by_every_exit() {
        let release: [fn(Sender<u8>); 3] = [
            |tx| tx.send(7).unwrap(),
            |tx| tx.try_send(7).unwrap(),
            drop,
        ];
        for (case, release) in release.into_iter().enumerate() {
            for timed in [false, true] {
                let (tx, rx) = bounded(1);
                let core = Arc::clone(&tx.core);
                let t = thread::spawn(move || {
                    if timed {
                        rx.recv_timeout(Duration::from_secs(60)).ok()
                    } else {
                        rx.recv().ok()
                    }
                });
                until_parked(&core, |st| st.recv_waiting == 1);
                release(tx);
                let expected = if case < 2 { Some(7) } else { None };
                assert_eq!(t.join().unwrap(), expected, "case {case}, timed {timed}");
                assert_eq!(core.lock().recv_waiting, 0);
            }
        }
    }

    #[test]
    fn a_parked_select_is_woken_by_send_and_by_disconnect() {
        for disconnect in [false, true] {
            let (tx, rx) = unbounded::<u8>();
            let (_idle_tx, idle_rx) = unbounded::<u8>();
            let core = Arc::clone(&tx.core);
            let t = thread::spawn(move || {
                let mut sel = Select::new();
                sel.recv(&idle_rx);
                let i = sel.recv(&rx);
                let op = sel.select_timeout(Duration::from_secs(60)).unwrap();
                assert_eq!(op.index(), i);
                op.recv(&rx).ok()
            });
            // Registered, then parked: the waker's own flag says when.
            until_parked(&core, |st| {
                st.wakers.iter().filter_map(Weak::upgrade).any(|w| {
                    w.state.lock().unwrap_or_else(|e| e.into_inner()).parked
                })
            });
            if disconnect {
                drop(tx);
                assert_eq!(t.join().unwrap(), None);
            } else {
                tx.send(9).unwrap();
                assert_eq!(t.join().unwrap(), Some(9));
            }
        }
    }

    #[test]
    fn a_message_sent_before_the_receive_is_never_slept_through() {
        // One slot, two threads, no timeout: each side parks whenever it
        // gets ahead, 100k times over. A notify gated on a stale waiter
        // count would strand one of them and hang the test.
        const ROUNDS: u32 = 100_000;
        let (tx, rx) = bounded(1);
        let t = thread::spawn(move || {
            for i in 0..ROUNDS {
                tx.send(i).unwrap();
            }
        });
        for i in 0..ROUNDS {
            assert_eq!(rx.recv().unwrap(), i);
        }
        t.join().unwrap();
    }

    #[test]
    fn disconnect_semantics() {
        let (tx, rx) = unbounded();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap(), 7);
        assert_eq!(rx.recv().unwrap_err(), RecvError);

        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = unbounded();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            RecvTimeoutError::Timeout
        );
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            tx.send(9).unwrap();
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 9);
        t.join().unwrap();
    }

    #[test]
    fn mpmc_receiver_clones_share_stream() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let a = rx.recv().unwrap();
        let b = rx2.recv().unwrap();
        assert_eq!(a + b, 3);
    }

    #[test]
    fn select_wakes_on_send() {
        let (tx1, rx1) = unbounded::<u8>();
        let (_tx2, rx2) = unbounded::<u8>();
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            tx1.send(42).unwrap();
        });
        let mut sel = Select::new();
        let i1 = sel.recv(&rx1);
        let _i2 = sel.recv(&rx2);
        let op = sel.select_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(op.index(), i1);
        assert_eq!(op.recv(&rx1).unwrap(), 42);
        t.join().unwrap();
    }

    #[test]
    fn select_times_out() {
        let (_tx, rx) = unbounded::<u8>();
        let mut sel = Select::new();
        sel.recv(&rx);
        assert!(sel.select_timeout(Duration::from_millis(10)).is_err());
    }

    #[test]
    fn select_sees_disconnect() {
        let (tx, rx) = unbounded::<u8>();
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            drop(tx);
        });
        let mut sel = Select::new();
        let i = sel.recv(&rx);
        let op = sel.select_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(op.index(), i);
        assert!(op.recv(&rx).is_err());
        t.join().unwrap();
    }
}
