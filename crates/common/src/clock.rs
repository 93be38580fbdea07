//! Monotonic logical timestamps.
//!
//! The paper timestamps `LOGGED` and `COMMITTED` undo-log entries with
//! RDTSC values and relies only on Lamport ordering: if two events are
//! ordered by happens-before, their timestamps must be correspondingly
//! ordered (Section 4.1, footnote 1). A process-wide atomic counter gives
//! exactly that property while staying deterministic across runs, so the
//! simulation uses a counter rather than the host TSC.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A logical timestamp drawn from a [`Clock`].
///
/// Timestamp 0 is reserved as "never" / "uninitialized"; [`Clock::now`]
/// always returns values ≥ 1.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The zero timestamp, ordered before every timestamp a clock produces.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp from a raw counter value.
    #[inline]
    pub const fn from_raw(v: u64) -> Self {
        Timestamp(v)
    }

    /// Returns the raw counter value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns this timestamp advanced by `delta` ticks.
    #[inline]
    pub const fn plus(self, delta: u64) -> Self {
        Timestamp(self.0 + delta)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ts:{}", self.0)
    }
}

/// A process-wide monotonic logical clock (the simulation's RDTSC).
///
/// `now()` strictly increases across all threads, so any two calls are
/// totally ordered and the order is consistent with happens-before. A
/// default clock's first timestamp is tick 1.
#[derive(Debug, Default)]
pub struct Clock {
    counter: AtomicU64,
}

impl Clock {
    /// Creates a clock whose first timestamp follows `ts`.
    pub fn after(ts: Timestamp) -> Self {
        Clock {
            counter: AtomicU64::new(ts.raw()),
        }
    }

    /// Returns a fresh, strictly increasing timestamp (`getTimestamp()` in
    /// the paper's algorithms).
    #[inline]
    pub fn now(&self) -> Timestamp {
        Timestamp(self.counter.fetch_add(1, Ordering::SeqCst) + 1)
    }

    /// Returns the most recently issued timestamp without advancing the
    /// clock (`currentTS()` in Section 5.2).
    #[inline]
    pub fn current(&self) -> Timestamp {
        Timestamp(self.counter.load(Ordering::SeqCst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn now_is_strictly_increasing() {
        let c = Clock::default();
        let a = c.now();
        let b = c.now();
        let d = c.now();
        assert!(a < b && b < d);
        assert!(a > Timestamp::ZERO);
    }

    #[test]
    fn current_does_not_advance() {
        let c = Clock::default();
        let a = c.now();
        assert_eq!(c.current(), a);
        assert_eq!(c.current(), a);
        assert!(c.now() > a);
    }

    #[test]
    fn timestamps_are_unique_across_threads() {
        let clock = Arc::new(Clock::default());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let clock = Arc::clone(&clock);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| clock.now()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<Timestamp> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("clock thread panicked"))
            .collect();
        let n = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), n, "duplicate timestamps issued");
    }

    #[test]
    fn raw_round_trip_and_plus() {
        let t = Timestamp::from_raw(41).plus(1);
        assert_eq!(t.raw(), 42);
        assert_eq!(format!("{t}"), "ts:42");
    }
}
