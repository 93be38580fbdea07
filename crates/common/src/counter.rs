//! Single-writer statistics counters.
//!
//! The hot paths count events (hardware commits, flushes, persisted words)
//! millions of times a second. A shared `AtomicU64::fetch_add` makes each
//! of those a locked read-modify-write on a cache line every thread
//! writes. The counters here are instead laid out **one cell per thread
//! slot** (cache-line padded by their owners) and bumped with a plain
//! load + store; readers sum the cells.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing statistic with **one writer at a time**.
///
/// [`OwnedCounter::add`] is a relaxed load followed by a relaxed store —
/// no locked instruction — so it is exact only if calls never overlap:
/// one thread owns the counter (a thread slot's cell, by the same
/// one-thread-per-`tid` contract the flush queues already impose), or
/// successive writers are ordered by some other synchronization.
/// Overlapping writers cannot corrupt memory, only lose increments. Any
/// thread may [`OwnedCounter::get`]; a reader racing the writer sees a
/// value at most one update stale.
#[derive(Debug, Default)]
pub struct OwnedCounter(AtomicU64);

impl OwnedCounter {
    /// Adds `n`. The caller must be the counter's only writer right now.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0
            .store(self.0.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates() {
        let c = OwnedCounter::default();
        c.add(2);
        c.add(5);
        assert_eq!(c.get(), 7);
    }
}
