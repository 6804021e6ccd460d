//! A010 fixture, request half: timeouts carry request ids, retry
//! exhaustion carries its history, and `error.rs` stays exempt.

/// Violation: a request exists here, so the id-less helper loses it.
pub fn invoke_times_out(timeout: Duration) -> OrbError {
    OrbError::timeout(timeout)
}

/// Clean: the allow's reason names why no request id exists yet.
pub fn preamble_times_out(timeout: Duration) -> OrbError {
    // lint: allow(A010, fixture: connection preamble — no request exists before the first frame)
    OrbError::timeout(timeout)
}

/// Violation: the literal bypasses the helpers that keep the payload
/// fields mandatory.
pub fn literal_timeout(elapsed: Duration) -> OrbError {
    OrbError::Timeout {
        request_id: 0,
        elapsed,
    }
}

/// Clean: the attributed helper.
pub fn attributed_timeout(id: u64, elapsed: Duration) -> OrbError {
    OrbError::request_timeout(id, elapsed)
}

/// Clean: both attribution fields present.
pub fn exhausted(attempts: u32, last: OrbError) -> OrbError {
    OrbError::RetriesExhausted {
        attempts,
        last: Box::new(last),
    }
}

/// Clean: a static `Transport` outside `replica.rs` is not on the
/// failover path — other rules own generic message quality.
pub fn plain_transport() -> OrbError {
    OrbError::Transport("link severed".into())
}
