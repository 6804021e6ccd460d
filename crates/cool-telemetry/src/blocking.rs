//! Blocking, only with no lock held.
//!
//! A channel send or receive, a condvar wait, a park, a thread join and a
//! TCP connect go through this module, and each of its functions takes
//! the thread's unlocked token, `&mut Locked<Unlocked>` (see
//! [`crate::lockorder`]). While an
//! [`OrderedMutex`](crate::lockorder::OrderedMutex) guard lives, that
//! token is mutably borrowed by it, so one of these calls under a ranked
//! lock does not compile. `clippy.toml` lists the raw methods, and library
//! code is linted with them denied: this module is their one caller. It
//! denies the waits here that have no bound as well — [`recv`], [`send`]
//! and [`wait_while`] — so each library site carries an `#[expect]` whose
//! reason names what ends the wait. Other blocking is not here: a socket
//! read, and a TCP accept, which `clippy.toml` denies in the same way.
//!
//! A queue's policy when full is in its code too: a bounded queue whose
//! sender waits uses [`send`]; one that drops uses `try_send`; one that
//! grows is built by `crossbeam::channel::unbounded`, which `clippy.toml`
//! denies, under an `#[expect]` whose reason names its drain.
//!
//! A condvar is waited on only with the predicate that ends the wait
//! ([`wait_while`], [`wait_while_until`]), so a bare wait, which misses a
//! notify that came early and returns on a spurious wakeup, cannot be
//! written. A TCP connect exists only with a timeout.
#![expect(
    clippy::disallowed_methods,
    reason = "the one place the raw blocking methods are called, each behind the unlocked token"
)]

use crate::lockorder::{Locked, Unlocked};
use crossbeam::channel::{Receiver, RecvError, RecvTimeoutError, SendError, Sender};
use parking_lot::{Condvar, MutexGuard};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Sends `value` on `tx`, waiting while a bounded channel is full: an
/// error once every receiver is gone.
pub fn send<T>(held: &mut Locked<Unlocked>, tx: &Sender<T>, value: T) -> Result<(), SendError<T>> {
    let _ = held;
    tx.send(value)
}

/// Receives from `rx`, waiting for as long as it takes: an error once every
/// sender is gone and the channel is drained.
pub fn recv<T>(held: &mut Locked<Unlocked>, rx: &Receiver<T>) -> Result<T, RecvError> {
    let _ = held;
    rx.recv()
}

/// Receives from `rx`, waiting at most `timeout`.
pub fn recv_timeout<T>(
    held: &mut Locked<Unlocked>,
    rx: &Receiver<T>,
    timeout: Duration,
) -> Result<T, RecvTimeoutError> {
    let _ = held;
    rx.recv_timeout(timeout)
}

/// Receives from `rx`, waiting until `deadline` at the latest.
pub fn recv_deadline<T>(
    held: &mut Locked<Unlocked>,
    rx: &Receiver<T>,
    deadline: Instant,
) -> Result<T, RecvTimeoutError> {
    let _ = held;
    rx.recv_deadline(deadline)
}

/// Waits on `cv` for as long as `condition` holds of the guarded value
/// (checked first, and again after every wakeup).
pub fn wait_while<T>(
    held: &mut Locked<Unlocked>,
    cv: &Condvar,
    guard: &mut MutexGuard<'_, T>,
    mut condition: impl FnMut(&mut T) -> bool,
) {
    let _ = held;
    while condition(&mut **guard) {
        cv.wait(guard);
    }
}

/// [`wait_while`], giving up at `deadline`: true when the deadline came
/// first (the condition is not looked at again then).
pub fn wait_while_until<T>(
    held: &mut Locked<Unlocked>,
    cv: &Condvar,
    guard: &mut MutexGuard<'_, T>,
    deadline: Instant,
    mut condition: impl FnMut(&mut T) -> bool,
) -> bool {
    let _ = held;
    while condition(&mut **guard) {
        if cv.wait_until(guard, deadline).timed_out() {
            return true;
        }
    }
    false
}

/// Parks the calling thread for at most `timeout`; an unpark, or a
/// spurious wakeup, ends it sooner.
pub fn park_timeout(held: &mut Locked<Unlocked>, timeout: Duration) {
    let _ = held;
    thread::park_timeout(timeout);
}

/// Waits for the thread of `handle` to finish.
pub fn join<T>(held: &mut Locked<Unlocked>, handle: JoinHandle<T>) -> thread::Result<T> {
    let _ = held;
    handle.join()
}

/// Opens a TCP connection to `addr`, giving up after `timeout`.
pub fn connect_timeout(
    held: &mut Locked<Unlocked>,
    addr: &SocketAddr,
    timeout: Duration,
) -> io::Result<TcpStream> {
    let _ = held;
    TcpStream::connect_timeout(addr, timeout)
}
