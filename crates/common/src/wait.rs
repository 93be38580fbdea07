//! The one way a thread waits for another: every spin, yield and backoff
//! in the workspace is a call into this module, so the places a thread
//! can wait are exactly its callers. Each site keeps its own policy:
//!
//! * [`until`] — poll a condition, yielding between polls;
//! * [`Backoff`] — the lock-word ramp: doubling processor hints, then
//!   yields;
//! * [`deadline`] — the modelled media latency: spin until a point in
//!   time, not for a duration;
//! * [`yield_now`] — a yield point before a retry.

use std::time::{Duration, Instant};

/// Polls `cond` until it holds, yielding the thread between polls. Yield,
/// don't spin: the thread being waited on needs a core to make the
/// condition true, and on a host with fewer cores than threads a spinning
/// waiter is what keeps it from getting one. A condition already true on
/// the first poll costs one call and no yield.
#[inline]
pub fn until(mut cond: impl FnMut() -> bool) {
    while !cond() {
        yield_now();
    }
}

/// A yield point: hands the core to another runnable thread before the
/// caller retries.
#[inline]
pub fn yield_now() {
    std::thread::yield_now();
}

/// Spins until `ns` nanoseconds after `issued`: a deadline, not a sleep.
/// Whatever the caller did since `issued` counts toward the wait, so an
/// operation lasts at least `ns`, about one clock read more (or, if the
/// caller's own work alone overran that, returns after one clock read).
/// The deadline is computed once; each poll is one clock read and one
/// comparison, back to back with no processor hint between polls: the
/// waits are sub-microsecond, and a PAUSE there only adds to how far
/// past its deadline a wait ends. `None` waits for nothing and reads no
/// clock.
#[inline]
pub fn deadline(issued: Option<Instant>, ns: u64) {
    let Some(issued) = issued else { return };
    let end = issued + Duration::from_nanos(ns);
    while Instant::now() < end {}
}

/// Exponential backoff for a contended lock word.
///
/// Each call to [`Backoff::spin`] or [`Backoff::snooze`] busy-waits for an
/// exponentially growing number of processor hints, capped so a long wait
/// never turns into an unbounded pause; once the cap is reached, `snooze`
/// yields the thread instead — on a machine with fewer cores than spinning
/// threads, descheduling the waiter is what lets the thread being waited
/// on actually run.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

/// `spin` doubles the pause up to 2^6 hint iterations.
const SPIN_LIMIT: u32 = 6;
/// `snooze` keeps doubling up to 2^10, then starts yielding.
const YIELD_LIMIT: u32 = 10;

impl Backoff {
    /// Creates a fresh backoff state.
    pub fn new() -> Self {
        Backoff::default()
    }

    /// Backs off with processor hints only, for waits expected to resolve
    /// quickly (a lost compare-and-swap against a thread that is running).
    /// The pause doubles per call, capped at `2^6` hints.
    pub fn spin(&mut self) {
        for _ in 0..1u32 << self.step.min(SPIN_LIMIT) {
            std::hint::spin_loop();
        }
        if self.step <= SPIN_LIMIT {
            self.step += 1;
        }
    }

    /// Backs off, eventually yielding the thread: spins with doubling
    /// pauses up to `2^10` hints, then yields on every later call.
    pub fn snooze(&mut self) {
        if self.step <= YIELD_LIMIT {
            for _ in 0..1u32 << self.step {
                std::hint::spin_loop();
            }
            self.step += 1;
        } else {
            yield_now();
        }
    }

    /// True once the backoff has reached its cap and `snooze` yields.
    pub fn is_completed(&self) -> bool {
        self.step > YIELD_LIMIT
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn spin_saturates_and_never_completes() {
        let mut b = Backoff::new();
        for _ in 0..64 {
            b.spin();
        }
        assert!(!b.is_completed(), "spin alone must not reach the yield cap");
    }

    #[test]
    fn snooze_reaches_completion_then_yields() {
        let mut b = Backoff::new();
        let mut iterations = 0;
        while !b.is_completed() {
            b.snooze();
            iterations += 1;
            assert!(iterations < 1000, "snooze must reach the cap quickly");
        }
        // Further snoozes are yields; they must not panic or overflow.
        b.snooze();
        b.snooze();
        assert!(b.is_completed());
    }

    #[test]
    fn deadline_is_a_deadline_not_a_sleep() {
        // A start that is already `ns` in the past: nothing left to wait
        // (a sleep would take `ns` again; the margin is for a busy host).
        const NS: u64 = 200_000_000;
        let issued = Instant::now();
        std::thread::sleep(std::time::Duration::from_nanos(NS));
        let before = Instant::now();
        deadline(Some(issued), NS);
        assert!(
            (before.elapsed().as_nanos() as u64) < NS / 2,
            "time already spent counts toward the deadline"
        );
        // A fresh start lasts the whole of it.
        let issued = Instant::now();
        deadline(Some(issued), 200_000);
        assert!(issued.elapsed().as_nanos() >= 200_000);
        // No start, no wait.
        deadline(None, u64::MAX);
    }

    #[test]
    fn deadline_never_returns_early() {
        // A lower bound only: how far past the deadline a wait ends is up
        // to the host's scheduler and is not asserted.
        for ns in [0, 1, 50, 299, 300, 301, 1777] {
            for _ in 0..2000 {
                let issued = Instant::now();
                deadline(Some(issued), ns);
                let waited = issued.elapsed().as_nanos();
                assert!(waited >= u128::from(ns), "{ns} ns wait ended at {waited}");
            }
        }
    }

    #[test]
    fn until_returns_once_another_thread_sets_the_flag() {
        let flag = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| flag.store(true, Ordering::Release));
            until(|| flag.load(Ordering::Acquire));
        });
    }
}
