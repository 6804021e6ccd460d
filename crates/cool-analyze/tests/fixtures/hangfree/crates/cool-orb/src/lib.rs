//! A008 fixture: unbounded blocking on the data path (`blocking::` calls,
//! receives by method name) vs every exemption — timeout variants,
//! shutdown joins, the §8.5 drain registry, inline allows — plus a
//! closure-body site and a stale registry entry.

/// Violation: a bare receive with no deadline and no documented drain.
pub fn serve(held: &mut Locked<Unlocked>, rx: &Receiver) {
    let _ = blocking::recv(held, rx);
}

/// Clean: the deadline variant bounds the wait by name.
pub fn serve_bounded(held: &mut Locked<Unlocked>, rx: &Receiver) {
    let _ = blocking::recv_timeout(held, rx, TIMEOUT);
}

/// Clean: `lib.rs::pump_loop` is in the §8.5 drain registry.
pub fn pump_loop(held: &mut Locked<Unlocked>, rx: &Receiver) {
    while let Ok(_f) = blocking::recv(held, rx) {}
}

/// Clean: a shutdown root may join — the threads it waits for are the
/// ones the close sentinels drain.
pub fn close(held: &mut Locked<Unlocked>, h: Handle) {
    let _ = blocking::join(held, h);
}

/// Violation, attributed to this function: the blocking call sits in a
/// closure body, which runs wherever the closure is called.
pub fn spawn_worker(rx: Receiver) {
    let _worker = move |held: &mut Locked<Unlocked>| {
        let _ = blocking::recv(held, &rx);
    };
}

/// Clean: a TCP connect exists only with a timeout.
pub fn dial(held: &mut Locked<Unlocked>, addr: &SocketAddr) {
    let _ = blocking::connect_timeout(held, addr, TIMEOUT);
}

/// Violation: a transport's receive takes no token, but it blocks; its
/// deadline variant is clean.
pub fn read_transport(t: &Transport) {
    let _ = t.recv();
    let _ = t.recv_timeout(TIMEOUT);
}

/// Clean: a reasoned inline allow names the wakeup source.
pub fn wait_forever(held: &mut Locked<Unlocked>, rx: &Receiver) {
    // lint: allow(A008, fixture: the teardown pump pushes a sentinel that wakes this receiver)
    let _ = blocking::recv(held, rx);
}

#[cfg(test)]
mod tests {
    /// Test code may block without a deadline; A008 must not look here.
    fn blocking_helper(rx: &super::Receiver) {
        let _ = blocking::recv(Locked::root(), rx);
    }
}
