//! Minimal offline stand-in for `parking_lot`, backed by `std::sync`.
//!
//! Matches the parking_lot API shape the workspace uses: non-poisoning
//! `Mutex`/`RwLock` whose `lock()`/`read()`/`write()` return guards directly,
//! and a `Condvar` whose wait methods take `&mut MutexGuard`.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// A mutual exclusion primitive (non-poisoning wrapper over `std::sync::Mutex`).
pub struct Mutex<T: ?Sized> {
    inner: sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: sync::Mutex::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// Attempts to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.inner.try_lock() {
            Ok(g) => Some(MutexGuard { inner: Some(g) }),
            Err(sync::TryLockError::Poisoned(e)) => Some(MutexGuard {
                inner: Some(e.into_inner()),
            }),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Returns a mutable reference to the underlying data.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

/// RAII guard for [`Mutex`].
///
/// The inner `Option` is always `Some` except transiently inside
/// [`Condvar`] waits, which must move the std guard by value.
pub struct MutexGuard<'a, T: ?Sized> {
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard taken")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard taken")
    }
}

/// A reader-writer lock (non-poisoning wrapper over `std::sync::RwLock`).
pub struct RwLock<T: ?Sized> {
    inner: sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard {
            inner: self.inner.read().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Acquires an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard {
            inner: self.inner.write().unwrap_or_else(|e| e.into_inner()),
        }
    }

    /// Returns a mutable reference to the underlying data.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        RwLock::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").field("data", &&*self.read()).finish()
    }
}

/// RAII read guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized> {
    inner: sync::RwLockReadGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

/// RAII write guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized> {
    inner: sync::RwLockWriteGuard<'a, T>,
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// Result of a timed condition-variable wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the wait returned because the timeout elapsed.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable whose wait methods take `&mut MutexGuard`
/// (parking_lot style).
///
/// Like the real `parking_lot`, a notify with nobody waiting returns
/// without a system call (`std::sync::Condvar` always issues a
/// `FUTEX_WAKE`). `waiters` is raised while the waiter still holds the
/// mutex and lowered after its wait returns, so a notifier that changed
/// the predicate under that mutex either ran before the waiter's check or
/// sees the count: no wakeup is lost that the std condvar would deliver.
pub struct Condvar {
    inner: sync::Condvar,
    waiters: AtomicUsize,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Wakes one waiting thread.
    pub fn notify_one(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_one();
        }
    }

    /// Wakes all waiting threads.
    pub fn notify_all(&self) {
        if self.waiters.load(Ordering::SeqCst) != 0 {
            self.inner.notify_all();
        }
    }

    /// Blocks until notified.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard taken");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let inner = self.inner.wait(inner).unwrap_or_else(|e| e.into_inner());
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
    }

    /// Blocks until notified or the timeout elapses.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("guard taken");
        self.waiters.fetch_add(1, Ordering::SeqCst);
        let (inner, result) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(|e| e.into_inner());
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        guard.inner = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }

    /// Blocks until notified or the deadline passes.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let now = Instant::now();
        if now >= deadline {
            return WaitTimeoutResult(true);
        }
        self.wait_for(guard, deadline - now)
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn mutex_round_trip() {
        let m = Mutex::new(41);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 42);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }

    /// Parks a waiter, and only then sets the predicate and notifies with
    /// `notify`: a gate that mistook a parked waiter for nobody would leave
    /// it asleep and the join below would hang.
    fn wakes_a_parked_waiter(notify: fn(&Condvar), timed: bool) {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut done = m.lock();
            while !*done {
                if timed {
                    cv.wait_for(&mut done, Duration::from_secs(60));
                } else {
                    cv.wait(&mut done);
                }
            }
        });
        let (m, cv) = &*pair;
        // The count rises under the mutex, so once it reads 1 and the
        // mutex can be taken the waiter is inside its wait.
        while cv.waiters.load(Ordering::SeqCst) == 0 {
            thread::yield_now();
        }
        *m.lock() = true;
        notify(cv);
        t.join().unwrap();
        assert_eq!(cv.waiters.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn each_notify_flavour_wakes_a_parked_waiter() {
        wakes_a_parked_waiter(Condvar::notify_one, false);
        wakes_a_parked_waiter(Condvar::notify_all, false);
        wakes_a_parked_waiter(Condvar::notify_one, true);
        wakes_a_parked_waiter(Condvar::notify_all, true);
    }

    #[test]
    fn notify_with_nobody_waiting_is_harmless() {
        let cv = Condvar::new();
        cv.notify_one();
        cv.notify_all();
        let m = Mutex::new(());
        let mut g = m.lock();
        // Nothing was stored up: the wait still runs to its timeout.
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)).timed_out());
    }

    #[test]
    fn a_predicate_set_under_the_mutex_is_never_slept_through() {
        // Ping-pong on one turn counter, 100k rounds a side, with no
        // timeout anywhere: one notify skipped while the other side was
        // between its check and its wait would hang the test.
        const ROUNDS: u64 = 100_000;
        let pair = Arc::new((Mutex::new(0u64), Condvar::new()));
        let play = |pair: Arc<(Mutex<u64>, Condvar)>, parity: u64| {
            move || {
                let (m, cv) = &*pair;
                let mut turn = m.lock();
                while *turn < 2 * ROUNDS {
                    if *turn % 2 == parity {
                        *turn += 1;
                        cv.notify_one();
                    } else {
                        cv.wait(&mut turn);
                    }
                }
            }
        };
        let a = thread::spawn(play(Arc::clone(&pair), 0));
        let b = thread::spawn(play(Arc::clone(&pair), 1));
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(*pair.0.lock(), 2 * ROUNDS);
    }

    #[test]
    fn wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let res = cv.wait_for(&mut g, Duration::from_millis(10));
        assert!(res.timed_out());
    }

    #[test]
    fn rwlock_readers_and_writer() {
        let l = RwLock::new(7);
        assert_eq!(*l.read(), 7);
        *l.write() = 9;
        assert_eq!(*l.read(), 9);
    }
}
