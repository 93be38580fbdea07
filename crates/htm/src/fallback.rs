//! Software fallback transactions with **per-line write locking**.
//!
//! The classic HTM fallback is a single global lock: the fallback path
//! takes it, and every hardware transaction subscribes to it, so one
//! capacity abort serializes the whole system. This module provides the
//! scalable alternative (cf. *Persistent HyTM via Fast Path Fine-Grained
//! Locking*): a [`FallbackTxn`] acquires write locks on **exactly the
//! lines in its write set**, using the versioned line locks the runtime
//! already maintains for hardware commits, and validates its read
//! versions before publishing. Hardware transactions need no global
//! subscription — their per-line reads already watch the lock word of
//! every line they touch, and the fallback's `FALLBACK_BIT` aborts them
//! exactly as a committing transaction's transient lock bit would.
//!
//! # Lock word layout
//!
//! ```text
//!   bit 63  LOCK_BIT      transient: held by a hardware commit or a
//!                         non-transactional operation, bounded hold
//!   bit 62  FALLBACK_BIT  fallback write lock: held across the fallback's
//!                         undo-durability and publish windows
//!   bits 61..0            version (global version-clock value)
//! ```
//!
//! # Protocol
//!
//! 1. **Begin** — snapshot the global version clock (`rv`), exactly like a
//!    hardware transaction.
//! 2. **Read** — a line is readable when neither lock bit is set and its
//!    version is at most `rv`; otherwise the caller must retry the whole
//!    body with a fresh snapshot (opacity: every value handed to the body
//!    is consistent at `rv`).
//! 3. **Write** — buffered in the descriptor, invisible until publish.
//! 4. **Lock** — [`FallbackTxn::lock_write_set`] acquires `FALLBACK_BIT`
//!    on the distinct write-set lines in **sorted line order** with
//!    bounded-exponential backoff. Sorted acquisition cannot deadlock
//!    against other fallbacks (they sort too), and the only other holders
//!    — hardware commits and non-transactional operations — never block
//!    while holding a line.
//! 5. **Validate** — every read-set line must still be at most `rv`
//!    (lock acquisition preserves the version bits, so this covers lines
//!    the transaction now write-locks itself) and free of foreign locks.
//! 6. **Publish / release** — the caller interleaves its durability
//!    actions (undo-log append, flush, drain) with
//!    [`FallbackTxn::publish`] while the locks are held, then
//!    [`FallbackTxn::commit_release`] stamps every held line with a fresh
//!    commit version.
//!
//! Each lock acquire, the validation pass, and the release advance the
//! fault clock ([`MemorySpace::fault_event`](crafty_pmem::MemorySpace::fault_event)),
//! so torture drivers enumerate crash points that land *inside* the
//! lock-hold window. The lock words themselves are volatile runtime state:
//! a crash image never contains them, and a rebooted heap starts with
//! every line unlocked by construction — the torture suites audit this by
//! running a second engine life over recovered images.
//!
//! The steps are [`FallbackTxn`]'s methods, in the order an engine's
//! software commit calls them; it interleaves its durability actions —
//! undo-log append, flush, drain — between
//! [`FallbackTxn::validate_reads`] and [`FallbackTxn::publish`], while
//! every written line is held.

use std::sync::atomic::Ordering;

use crafty_common::{LineId, PAddr};

use crate::runtime::{
    acquire_lock_bit, AbortCode, HtmRuntime, FALLBACK_BIT, LOCKED_MASK, VERSION_MASK,
};
use crate::scratch::{self, TxnScratch, HELD};

impl HtmRuntime {
    /// Begins a software fallback transaction for thread `tid`.
    ///
    /// Borrows the calling thread's reusable descriptor (the same one
    /// hardware transactions use — the fallback hot path is equally
    /// allocation-free) and snapshots the version clock. Unlike
    /// [`HtmRuntime::begin`], this neither drains pending flushes nor
    /// consumes the thread's abort-injection schedule: the fallback is
    /// software, it cannot spuriously abort, and the caller sequences its
    /// own fences.
    pub fn begin_fallback(&self, tid: usize) -> FallbackTxn<'_> {
        FallbackTxn {
            rt: self,
            tid,
            rv: self.version_clock.load(Ordering::Acquire),
            scratch: Some(scratch::checkout()),
            committed: false,
        }
    }
}

/// An in-flight software fallback transaction (see the module docs for the
/// protocol). Obtain one from [`HtmRuntime::begin_fallback`]; dropping it
/// before [`FallbackTxn::commit_release`] releases any held line locks
/// without bumping versions (abort), panic-safe.
pub struct FallbackTxn<'rt> {
    rt: &'rt HtmRuntime,
    tid: usize,
    rv: u64,
    /// The descriptor lent by the calling thread for the life of the
    /// transaction; `Drop` takes it to hand it back.
    scratch: Option<Box<TxnScratch>>,
    committed: bool,
}

impl std::fmt::Debug for FallbackTxn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.scratch();
        f.debug_struct("FallbackTxn")
            .field("tid", &self.tid)
            .field("rv", &self.rv)
            .field("read_log", &s.reads.len())
            .field("writes", &s.words_written)
            .field("locked", &s.locked)
            .finish()
    }
}

impl FallbackTxn<'_> {
    #[inline]
    fn scratch(&self) -> &TxnScratch {
        self.scratch.as_ref().expect("descriptor present")
    }

    #[inline]
    fn s(&mut self) -> &mut TxnScratch {
        self.scratch.as_mut().expect("descriptor present")
    }

    /// The thread id this transaction belongs to.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Reads the word at `addr` for the transaction body: the body's own
    /// buffered write if there is one, memory otherwise (step 2).
    ///
    /// # Errors
    ///
    /// [`AbortCode::Conflict`] when the line is locked or has been
    /// committed past the begin snapshot; the caller retries the whole
    /// body under a fresh transaction. No lock is held at read time, so a
    /// conflicting retry never blocks anyone.
    pub fn read(&mut self, addr: PAddr) -> Result<u64, AbortCode> {
        if let Some(value) = self.s().read_buffered(addr) {
            return Ok(value);
        }
        self.rt
            .versioned_read(addr, self.rv, u64::MAX)
            .ok_or(AbortCode::Conflict)
    }

    /// Buffers a write of `value` to `addr` (step 3); it becomes visible
    /// only at [`FallbackTxn::publish`]. The software path has no capacity
    /// limit — that is the point of a fallback.
    pub fn write(&mut self, addr: PAddr, value: u64) {
        self.s().buffer_write(addr, value);
    }

    /// The distinct written words: lines in first-write order, the words
    /// of a line in address order.
    pub fn written_words(&self) -> impl Iterator<Item = PAddr> + '_ {
        self.scratch().written()
    }

    /// True if the body buffered at least one write.
    pub fn has_writes(&self) -> bool {
        self.written_words().next().is_some()
    }

    /// Acquires the fallback write lock on every distinct write-set line
    /// (step 4), in sorted line order (deadlock avoidance) with
    /// bounded-exponential backoff per line. Returns once every lock is
    /// held: no other thread can read or write a written line until
    /// [`FallbackTxn::commit_release`]. Ticks the fault clock once per
    /// acquired line.
    pub fn lock_write_set(&mut self) {
        let rt = self.rt;
        let s = self.s();
        s.lock_order.sort_unstable();
        for (i, &line) in s.lock_order.iter().enumerate() {
            acquire_lock_bit(rt.lock_word(line), FALLBACK_BIT);
            s.locked = i + 1;
            rt.mem.fault_event();
        }
    }

    /// Validates the read log while the write locks are held (step 5):
    /// every line this transaction read must be unchanged since the begin
    /// snapshot, and unlocked unless this transaction itself holds its
    /// write lock.
    ///
    /// Lines both read and written get the version check too — acquisition
    /// preserves the version bits under `FALLBACK_BIT`, so a commit that
    /// slipped in between our read and our lock is still visible here.
    /// Skipping them would publish values derived from a stale read. Only
    /// a line whose sole lock bit is `FALLBACK_BIT` is looked up among the
    /// held lines; a `LOCK_BIT` is always foreign (impossible on a line we
    /// hold, but checked for robustness).
    ///
    /// Ticks the fault clock once.
    ///
    /// # Errors
    ///
    /// [`AbortCode::Conflict`] after releasing every held write lock,
    /// versions unchanged (nothing was published); the caller retries the
    /// whole body.
    pub fn validate_reads(&mut self) -> Result<(), AbortCode> {
        let rt = self.rt;
        let rv = self.rv;
        let s = self.s();
        let stale = s.reads.iter().any(|&entry| {
            // Its lock acquisition checks no version: a HELD line is
            // validated like any other.
            let line = entry & !HELD;
            let v = rt.version_of(LineId::new(line));
            (v & VERSION_MASK) > rv
                || match v & LOCKED_MASK {
                    0 => false,
                    FALLBACK_BIT => !s.holds(line),
                    _ => true,
                }
        });
        if stale {
            release_locked(rt, s);
        }
        rt.mem.fault_event();
        if stale {
            Err(AbortCode::Conflict)
        } else {
            Ok(())
        }
    }

    /// The pre-publish ("old") value of a write-set word, for undo-log
    /// entries. Sound only between [`FallbackTxn::lock_write_set`] and
    /// [`FallbackTxn::publish`]: a plain load, because the held
    /// `FALLBACK_BIT` excludes every writer (hardware commits abort,
    /// non-transactional stores wait).
    pub fn read_locked(&self, addr: PAddr) -> u64 {
        self.rt.mem.read(addr)
    }

    /// Publishes every buffered write in place, line by line, while the
    /// write locks are held (step 6). Deliberately plain stores — taking
    /// the line locks here (as `nontx_write` would) would self-deadlock on
    /// our own held `FALLBACK_BIT`; exclusion is already guaranteed by the
    /// held locks, and concurrent readers see either the lock bit
    /// (abort/wait) or, after release, the new commit version.
    pub fn publish(&mut self) {
        for slot in self.scratch().lines.slots() {
            self.rt
                .mem
                .write_line(LineId::new(slot.line()), &slot.words, slot.mask);
        }
    }

    /// Ends the transaction: draws a fresh commit version and stamps every
    /// held line with it, releasing the locks. Ticks the fault clock once —
    /// the last crash point of the lock-hold window.
    pub fn commit_release(&mut self) {
        let rt = self.rt;
        let s = self.s();
        let wv = rt.version_clock.fetch_add(1, Ordering::AcqRel) + 1;
        for &line in &s.lock_order[..s.locked] {
            rt.lock_word(line).store(wv, Ordering::Release);
        }
        s.locked = 0;
        self.committed = true;
        rt.mem.fault_event();
    }
}

/// Releases every held fallback lock *without* bumping versions (the abort
/// path: nothing was published, so readers must not be invalidated).
fn release_locked(rt: &HtmRuntime, s: &mut TxnScratch) {
    for &line in &s.lock_order[..s.locked] {
        let slot = rt.lock_word(line);
        let v = slot.load(Ordering::Acquire);
        slot.store(v & !FALLBACK_BIT, Ordering::Release);
    }
    s.locked = 0;
}

impl Drop for FallbackTxn<'_> {
    fn drop(&mut self) {
        if let Some(mut scratch) = self.scratch.take() {
            if !self.committed && scratch.locked > 0 {
                // Abandoned mid-commit (abort or panic): free the lines,
                // versions unchanged, so no reader is wedged or invalidated.
                release_locked(self.rt, &mut scratch);
                self.rt.mem.fault_event();
            }
            scratch::give_back(scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crafty_common::BreakdownRecorder;
    use crafty_pmem::{MemorySpace, PmemConfig};

    use super::*;
    use crate::HtmConfig;

    /// "Lines both read and written get the version check too": a line
    /// the fallback read and a hardware commit then bumped fails
    /// validation whether or not the fallback also writes — and so holds —
    /// it, and the failed validation releases every lock at the version
    /// it had.
    #[test]
    fn a_read_line_bumped_by_a_hardware_commit_fails_validation_held_or_not() {
        for also_write in [false, true] {
            let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
            let rt = HtmRuntime::new(
                mem,
                HtmConfig::skylake(),
                Arc::new(BreakdownRecorder::new()),
            );
            let (read, other) = (PAddr::new(64), PAddr::new(128));
            let mut fallback = rt.begin_fallback(0);
            assert_eq!(fallback.read(read), Ok(0));
            fallback.write(other, 1);
            if also_write {
                fallback.write(read.add(1), 2);
            }
            let mut hw = rt.begin(1);
            hw.write(read.add(2), 3).unwrap();
            hw.commit().unwrap();

            fallback.lock_write_set();
            let held = [read.line(), other.line()];
            let locked: Vec<u64> = held.iter().map(|&l| rt.version_of(l)).collect();
            assert_eq!(
                locked[1] & FALLBACK_BIT,
                FALLBACK_BIT,
                "the written line is held"
            );
            assert_eq!(locked[0] & FALLBACK_BIT != 0, also_write);
            assert_eq!(
                fallback.validate_reads(),
                Err(AbortCode::Conflict),
                "also_write: {also_write}"
            );
            let released: Vec<u64> = held.iter().map(|&l| rt.version_of(l)).collect();
            let unlocked: Vec<u64> = locked.iter().map(|v| v & !FALLBACK_BIT).collect();
            assert_eq!(released, unlocked, "versions unchanged, locks gone");
        }
    }
}
