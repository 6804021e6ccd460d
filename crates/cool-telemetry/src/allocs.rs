//! Data-path buffer-allocation accounting.
//!
//! The zero-copy refactor's invariant is that one invocation allocates at
//! most two data-path buffers end to end: the request frame on the client
//! and the reply frame on the server. Every site that materialises a fresh
//! data-path buffer (a new frame `BytesMut`, a copying decode, a `Packet`
//! copy-on-write) calls [`record_buffer_alloc`]; the root package's
//! `tests/alloc_budget.rs` reads the counter around a run of calls and
//! asserts the per-call delta is exactly two (the ledger reports the same
//! figure as `cool-orb.allocs_per_call`).
//!
//! This is a count of those sites, not of the heap: a frame's `Arc`, the
//! servant's result `Vec` or an owned copy made anywhere else goes unseen
//! here. `tests/heap_budget.rs` counts every heap allocation of a call at
//! a counting global allocator (at most 5 over Chorus and Da CaPo, 9 over
//! TCP).
//!
//! A process-global relaxed atomic rather than a [`crate::Registry`]
//! metric: the count must be observable on paths (cool-giop) that have no
//! registry handle, and a relaxed `fetch_add` is cheap enough to leave on
//! unconditionally.

use std::sync::atomic::{AtomicU64, Ordering};

static DATA_PATH_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Records one data-path buffer allocation (fresh frame buffer, copying
/// decode, packet copy-on-write).
#[inline]
pub fn record_buffer_alloc() {
    DATA_PATH_ALLOCS.fetch_add(1, Ordering::Relaxed);
}

/// Total data-path buffer allocations since process start. Subtract two
/// readings to meter a region; divide by calls for allocations per
/// invocation.
pub fn buffer_allocs() -> u64 {
    DATA_PATH_ALLOCS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotonic_and_observable() {
        let before = buffer_allocs();
        record_buffer_alloc();
        record_buffer_alloc();
        // Other tests may record concurrently; the delta is at least ours.
        assert!(buffer_allocs() >= before + 2);
    }
}
