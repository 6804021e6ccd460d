//! The one bounded ring behind every telemetry store: finished calls,
//! flight events and each sampled gauge series.
//!
//! A [`Ring`] holds at most `N` entries; a push into a full ring evicts
//! the oldest and counts it. It has no lock of its own — the store that
//! owns it locks it with the rest of its state, so one acquisition reads
//! the entries and the eviction count together, and they always agree.

use std::collections::VecDeque;

/// At most `N` entries, oldest first, plus an exact count of evictions.
#[derive(Debug)]
pub(crate) struct Ring<T, const N: usize> {
    entries: VecDeque<T>,
    dropped: u64,
}

impl<T, const N: usize> Default for Ring<T, N> {
    fn default() -> Self {
        Ring {
            entries: VecDeque::new(),
            dropped: 0,
        }
    }
}

impl<T, const N: usize> Ring<T, N> {
    /// Appends `entry`, evicting (and counting) the oldest when full.
    pub(crate) fn push(&mut self, entry: T) {
        if self.entries.len() >= N {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(entry);
    }

    /// The entries, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.entries.iter()
    }

    /// Entries currently held.
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Entries evicted to make room, ever.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn keeps_the_newest_n_oldest_first_and_counts_every_eviction() {
        let mut ring = Ring::<u32, 4>::default();
        for i in 0..3 {
            ring.push(i);
        }
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(ring.dropped(), 0);
        for i in 3..10 {
            ring.push(i);
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert_eq!(ring.dropped(), 6);
    }

    #[test]
    fn dropped_is_exact_under_concurrent_pushes() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 2_000;
        let ring = Arc::new(Mutex::new(Ring::<u64, 16>::default()));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        ring.lock().unwrap().push(t * PER_THREAD + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("push thread");
        }
        let ring = ring.lock().unwrap();
        assert_eq!(ring.len(), 16);
        assert_eq!(ring.dropped(), THREADS * PER_THREAD - 16);
        // Each thread's entries stay in the order it pushed them.
        for t in 0..THREADS {
            let mine: Vec<u64> = ring
                .iter()
                .copied()
                .filter(|v| v / PER_THREAD == t)
                .collect();
            assert!(mine.windows(2).all(|w| w[0] < w[1]), "{mine:?}");
        }
    }
}
