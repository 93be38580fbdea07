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

use std::sync::atomic::Ordering;

use crafty_common::{LineId, PAddr};
use crossbeam::utils::Backoff;

use crate::runtime::{AbortCode, HtmRuntime, FALLBACK_BIT, LOCKED_MASK, VERSION_MASK};
use crate::scratch::{self, TxnScratch, DATA, READ};

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
            .field("read_lines", &s.read_count)
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

    /// Reads the word at `addr` with snapshot consistency at the begin
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`AbortCode::Conflict`] when the line is locked or has been
    /// committed past the snapshot; the caller must retry the whole body
    /// under a fresh [`HtmRuntime::begin_fallback`]. The transaction holds
    /// no locks at read time, so a conflicting retry never blocks anyone.
    pub fn read(&mut self, addr: PAddr) -> Result<u64, AbortCode> {
        if let Some(value) = self.s().read_buffered(addr) {
            return Ok(value);
        }
        let line = addr.line();
        let v1 = self.rt.version_of(line);
        if v1 & LOCKED_MASK != 0 || (v1 & VERSION_MASK) > self.rv {
            return Err(AbortCode::Conflict);
        }
        let value = self.rt.mem.read(addr);
        if self.rt.version_of(line) != v1 {
            return Err(AbortCode::Conflict);
        }
        Ok(value)
    }

    /// Buffers a write of `value` to `addr`; it becomes visible only at
    /// [`FallbackTxn::publish`]. The software path has no capacity limit —
    /// that is the point of a fallback.
    pub fn write(&mut self, addr: PAddr, value: u64) {
        self.s().buffer_write(addr, value);
    }

    /// True if the body buffered at least one write.
    pub fn has_writes(&self) -> bool {
        self.scratch().words_written > 0
    }

    /// The distinct written words: lines in first-write order, the words
    /// of a line in address order.
    pub fn written_words(&self) -> impl Iterator<Item = PAddr> + '_ {
        self.scratch().lines.slots().iter().flat_map(|slot| {
            LineId::new(slot.line())
                .words()
                .enumerate()
                .filter(move |(i, _)| slot.mask & (1 << i) != 0)
                .map(|(_, addr)| addr)
        })
    }

    /// Acquires the fallback write lock on every distinct write-set line,
    /// in sorted line order (deadlock avoidance) with bounded-exponential
    /// backoff per line. Blocks until every lock is held; ticks the fault
    /// clock once per acquired line.
    pub fn lock_write_set(&mut self) {
        let rt = self.rt;
        let s = self.s();
        s.lock_order.sort_unstable();
        for (i, &line) in s.lock_order.iter().enumerate() {
            let slot = rt.line_versions.get(line);
            let mut backoff = Backoff::new();
            loop {
                let v = slot.load(Ordering::Acquire);
                if v & LOCKED_MASK != 0 {
                    backoff.snooze();
                    continue;
                }
                if slot
                    .compare_exchange(v, v | FALLBACK_BIT, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    break;
                }
                backoff.spin();
            }
            s.locked = i + 1;
            rt.mem.fault_event();
        }
    }

    /// Validates the read set while the write locks are held: every line
    /// this transaction read must be unchanged since the begin snapshot,
    /// and unlocked unless this transaction itself holds its write lock.
    ///
    /// Lines both read and written get the version check too — acquisition
    /// preserves the version bits under `FALLBACK_BIT`, so a commit that
    /// slipped in between our read and our lock is still visible here.
    /// Skipping them would publish values derived from a stale read.
    ///
    /// # Errors
    ///
    /// Returns [`AbortCode::Conflict`] after releasing every held write
    /// lock (versions unchanged — nothing was published); the caller
    /// retries the whole body.
    pub fn validate_reads(&mut self) -> Result<(), AbortCode> {
        let rt = self.rt;
        let rv = self.rv;
        let s = self.s();
        let stale = s.lines.slots().iter().any(|slot| {
            if slot.flags & READ == 0 {
                return false;
            }
            let v = rt.version_of(LineId::new(slot.line()));
            let foreign_lock = if slot.flags & DATA != 0 {
                // We hold this line's FALLBACK_BIT; only a concurrent
                // LOCK_BIT holder (impossible while we hold the line, but
                // checked for robustness) would be foreign.
                v & LOCKED_MASK & !FALLBACK_BIT != 0
            } else {
                v & LOCKED_MASK != 0
            };
            foreign_lock || (v & VERSION_MASK) > rv
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

    /// Reads a word directly from memory while the write locks are held —
    /// the pre-publish ("old") value of a write-set word, for undo-log
    /// entries. Sound only between [`FallbackTxn::lock_write_set`] and
    /// [`FallbackTxn::publish`]: the held `FALLBACK_BIT` excludes every
    /// writer (hardware commits abort, non-transactional stores wait).
    pub fn read_locked(&self, addr: PAddr) -> u64 {
        self.rt.mem.read(addr)
    }

    /// Publishes every buffered write in place, line by line, while the
    /// write locks are held. Deliberately plain stores — taking the line
    /// locks here (as `nontx_write` would) would self-deadlock on our own
    /// held `FALLBACK_BIT`; exclusion is already guaranteed by the held
    /// locks, and concurrent readers see either the lock bit (abort/wait)
    /// or, after release, the new commit version.
    pub fn publish(&mut self) {
        for slot in self.scratch().lines.slots() {
            self.rt
                .mem
                .write_line(LineId::new(slot.line()), &slot.words, slot.mask);
        }
    }

    /// Draws a fresh commit version, stamps every held line with it
    /// (releasing the locks), and returns it. Ticks the fault clock once —
    /// the last crash point of the lock-hold window.
    pub fn commit_release(&mut self) -> u64 {
        let rt = self.rt;
        let s = self.s();
        let wv = rt.version_clock.fetch_add(1, Ordering::AcqRel) + 1;
        for &line in &s.lock_order[..s.locked] {
            rt.line_versions.get(line).store(wv, Ordering::Release);
        }
        s.locked = 0;
        self.committed = true;
        rt.mem.fault_event();
        wv
    }
}

/// Releases every held fallback lock *without* bumping versions (the abort
/// path: nothing was published, so readers must not be invalidated).
fn release_locked(rt: &HtmRuntime, s: &mut TxnScratch) {
    for &line in &s.lock_order[..s.locked] {
        let slot = rt.line_versions.get(line);
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
