//! The simulated HTM runtime and hardware transactions.
//!
//! # What is being simulated
//!
//! Crafty relies on four properties of commodity RTM (Section 2.3, 3, 4):
//!
//! 1. **Write containment** — a hardware transaction's stores are invisible
//!    to other threads *and to the persistence domain* until the transaction
//!    commits. This is the property nondestructive undo logging exploits:
//!    the Log phase can write and roll back freely, knowing nothing leaked.
//! 2. **Conflict detection** — concurrently conflicting transactions abort.
//! 3. **No progress guarantee** — any transaction may abort for capacity or
//!    spurious reasons, so a software fallback is required.
//! 4. **Fence semantics** — `xbegin`/`xend` behave like `SFENCE` for the
//!    issuing thread's outstanding CLWBs.
//!
//! [`HtmRuntime`] provides all four with a TL2-style software
//! implementation: per-cache-line versioned locks, a global version clock,
//! lazy write buffering in the [`HwTxn`], commit-time lock acquisition and
//! read-set validation, plus configurable capacity limits and probabilistic
//! "zero" aborts. It is *not* a high-performance STM — it is a faithful
//! stand-in for the hardware interface on machines without working TSX.
//!
//! RTM tracks the footprint per cache line, so the [`HwTxn`] serves runs
//! of word accesses by the line as well: [`HwTxn::read_words`] reads a run
//! with one read-log entry and one versioned read per line, and the write
//! batches (`write_words`, `write_lines`, ...) buffer by the line. Each is
//! indistinguishable from its word-wise run to every check and count, the
//! injected-abort countdown included, which still ticks once per word.

use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crafty_common::trace::{self, TraceEventKind};
use crafty_common::wait::{self, Backoff};
use crafty_common::{
    BreakdownRecorder, HwTxnOutcome, LineId, LineSlot, PAddr, SplitMix64, TxnPhase, WORDS_PER_LINE,
};
use crafty_pmem::MemorySpace;

use crate::config::HtmConfig;
use crate::scratch::{self, Journalled, TxnScratch, DATA, FLUSH, HELD, SINK};

/// Why a hardware transaction aborted.
///
/// Matches the abort classification in the paper's appendix: conflict,
/// capacity, explicit (`xabort` with a code), and "zero" aborts.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbortCode {
    /// Another transaction or a non-transactional store touched a line in
    /// this transaction's footprint.
    Conflict,
    /// The transaction's read or write footprint exceeded HTM capacity.
    Capacity,
    /// The program explicitly aborted the transaction with a code
    /// (Crafty's failed Redo/Validate checks use this).
    Explicit(u32),
    /// A spurious abort (interrupt, page fault, ...).
    Zero,
}

impl AbortCode {
    /// The breakdown category this abort falls into.
    pub fn outcome(self) -> HwTxnOutcome {
        match self {
            AbortCode::Conflict => HwTxnOutcome::Conflict,
            AbortCode::Capacity => HwTxnOutcome::Capacity,
            AbortCode::Explicit(_) => HwTxnOutcome::Explicit,
            AbortCode::Zero => HwTxnOutcome::Zero,
        }
    }
}

/// Transient lock bit: set while a hardware commit (or a non-transactional
/// operation) holds a line for a bounded critical section. Holders never
/// block while it is set, so waiting on it is deadlock-free.
pub(crate) const LOCK_BIT: u64 = 1 << 63;

/// Fallback write-lock bit: set by a software fallback transaction
/// ([`HtmRuntime::begin_fallback`]) on each line of its write set, and held
/// across the fallback's undo-durability and publish windows — arbitrarily
/// long. Hardware transactions treat it exactly like [`LOCK_BIT`]
/// (subscribe-and-abort); other fallbacks wait on it in sorted line order.
pub(crate) const FALLBACK_BIT: u64 = 1 << 62;

/// Either lock bit: a line is unavailable when any of these is set.
pub(crate) const LOCKED_MASK: u64 = LOCK_BIT | FALLBACK_BIT;

/// The version number carried by a lock word, lock bits stripped.
pub(crate) const VERSION_MASK: u64 = !LOCKED_MASK;

/// The portion of a line's lock word the HTM fast path *subscribes to*.
/// Normally the whole word, so a fallback acquiring [`FALLBACK_BIT`] on a
/// line aborts every hardware transaction that read it. The
/// `no-fallback-subscription` teeth feature masks the fallback bit out of
/// the fast path's view — and out of the fast path's view ONLY; the
/// non-transactional paths always honor both bits — so the conflict
/// stress tests can prove they fail without the subscription.
#[cfg(not(feature = "no-fallback-subscription"))]
pub(crate) const SUBSCRIBE_VIEW: u64 = u64::MAX;
/// Teeth-mode subscribe view: the fallback lock bit is invisible to
/// hardware transactions (see the non-feature doc above).
#[cfg(feature = "no-fallback-subscription")]
pub(crate) const SUBSCRIBE_VIEW: u64 = !FALLBACK_BIT;

/// Sets `bit` ([`LOCK_BIT`] or [`FALLBACK_BIT`]) in the lock word `slot`
/// once neither lock bit is set there, keeping its version bits. A held
/// line gets [`Backoff::snooze`] and a lost CAS [`Backoff::spin`]: a tight
/// unpaced retry hammers the holder's cache line, and on a host with fewer
/// cores than threads it can be what keeps the holder from running.
#[inline]
pub(crate) fn acquire_lock_bit(slot: &AtomicU64, bit: u64) {
    let mut backoff = Backoff::new();
    loop {
        let v = slot.load(Ordering::Acquire);
        if v & LOCKED_MASK != 0 {
            backoff.snooze();
            continue;
        }
        if slot
            .compare_exchange(v, v | bit, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return;
        }
        backoff.spin();
    }
}

/// The first line run of `len` words stored contiguously from word `at`:
/// the line, the mask of the words the run covers, and their count.
#[inline]
fn line_run(at: u64, len: usize) -> (LineId, u8, usize) {
    let first = (at % WORDS_PER_LINE) as usize;
    let n = len.min(WORDS_PER_LINE as usize - first);
    let bits = (((1u16 << n) - 1) << first) as u8;
    (LineId::new(at / WORDS_PER_LINE), bits, n)
}

/// Splits `words`, stored contiguously from `addr`, at line boundaries and
/// hands `f` each line, the mask of the words its run covers, and the run;
/// stops at the first error.
#[inline]
fn for_each_line_run<E>(
    addr: PAddr,
    mut words: &[u64],
    mut f: impl FnMut(LineId, u8, &[u64]) -> Result<(), E>,
) -> Result<(), E> {
    let mut at = addr.word();
    while !words.is_empty() {
        let (line, bits, n) = line_run(at, words.len());
        let (run, rest) = words.split_at(n);
        f(line, bits, run)?;
        at += n as u64;
        words = rest;
    }
    Ok(())
}

/// The shared state of the simulated HTM: one versioned lock per cache line
/// plus a global version clock.
///
/// The lock words are the memory space's ([`MemorySpace::line_lock`]): a
/// dense, demand-zero table beside the space's words, where a line never
/// locked reads as version 0 — unlocked and older than every snapshot —
/// and costs nothing until its page is first written.
pub struct HtmRuntime {
    pub(crate) mem: Arc<MemorySpace>,
    cfg: HtmConfig,
    pub(crate) version_clock: AtomicU64,
    recorder: Arc<BreakdownRecorder>,
    /// Per-thread-slot abort-injection state. It lives here, not in the
    /// transaction descriptors, so a thread slot's spurious-abort stream
    /// continues across transactions whichever descriptor (or OS thread)
    /// serves them: reuse can never rewind a thread's abort schedule.
    abort_schedules: Box<[AbortSchedule]>,
}

/// One thread slot's abort-injection state: plain words written only by
/// the thread currently using the slot (and only when injection is
/// configured), padded so that neighbouring slots do not share a line.
#[repr(align(64))]
struct AbortSchedule {
    /// State of the slot's spurious-abort [`SplitMix64`] stream.
    zero_rng: AtomicU64,
    /// Lifetime count of hardware transactions begun on the slot; drives
    /// the phase of abort-storm injection ([`HtmConfig::storm_burst`]).
    begin_count: AtomicU64,
}

impl std::fmt::Debug for HtmRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HtmRuntime")
            .field("config", &self.cfg)
            .finish()
    }
}

/// The seed of thread `tid`'s spurious-abort stream: the configured seed
/// XORed with a per-thread multiplicative spread, so streams are
/// independent yet each is a pure function of `(seed, tid)` — reruns with
/// the same configuration reproduce the same per-thread abort schedule
/// regardless of thread interleaving.
fn zero_rng_seed(seed: u64, tid: usize) -> u64 {
    seed ^ 0x51_0D0A ^ (tid as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl HtmRuntime {
    /// Creates an HTM runtime over `mem`, recording hardware-transaction
    /// outcomes into `recorder`. The runtime's version clock starts at 0
    /// and versions `mem`'s lock words, so a space serves one runtime: a
    /// second would find lines versioned past its own clock.
    pub fn new(mem: Arc<MemorySpace>, cfg: HtmConfig, recorder: Arc<BreakdownRecorder>) -> Self {
        let threads = mem.config().max_threads;
        HtmRuntime {
            mem,
            version_clock: AtomicU64::new(0),
            recorder,
            abort_schedules: (0..threads)
                .map(|tid| AbortSchedule {
                    zero_rng: AtomicU64::new(zero_rng_seed(cfg.seed, tid)),
                    begin_count: AtomicU64::new(0),
                })
                .collect(),
            cfg,
        }
    }

    /// The memory space transactions operate on.
    pub fn mem(&self) -> &Arc<MemorySpace> {
        &self.mem
    }

    /// The runtime's configuration.
    pub fn config(&self) -> &HtmConfig {
        &self.cfg
    }

    /// The recorder hardware-transaction outcomes are reported to.
    pub fn recorder(&self) -> &Arc<BreakdownRecorder> {
        &self.recorder
    }

    /// Begins a hardware transaction for thread `tid`.
    ///
    /// Like `xbegin`, this has SFENCE semantics for the issuing thread: any
    /// CLWBs it issued earlier are drained (completing their persistence)
    /// before the transaction starts.
    pub fn begin(&self, tid: usize) -> HwTxn<'_> {
        if self.mem.pending_flushes(tid) > 0 {
            self.recorder
                .timed(tid, TxnPhase::Drain, || self.mem.drain(tid));
        }
        let schedule = &self.abort_schedules[tid];
        let storm_doomed = {
            let burst = self.cfg.storm_burst;
            if burst > 0 {
                // Clamp so every cycle has at least one clean begin:
                // internal commit paths retry hardware transactions in
                // bounded loops and need an abort-free window to stay live.
                let period = u64::from(self.cfg.storm_period.max(burst + 1));
                let count = schedule.begin_count.load(Ordering::Relaxed);
                schedule.begin_count.store(count + 1, Ordering::Relaxed);
                count % period < u64::from(burst)
            } else {
                false
            }
        };
        let p = self.cfg.zero_abort_probability;
        let doomed_after = if storm_doomed || p > 0.0 {
            let mut rng = SplitMix64::new(schedule.zero_rng.load(Ordering::Relaxed));
            let doomed = storm_doomed || rng.chance(p);
            let after = doomed.then(|| rng.next_below(24) as u32 + 1);
            schedule.zero_rng.store(rng.state(), Ordering::Relaxed);
            after
        } else {
            None
        };
        trace::record(tid, TraceEventKind::HtmAttempt, 0);
        HwTxn {
            rt: self,
            tid,
            rv: self.version_clock.load(Ordering::Acquire),
            scratch: Some(scratch::checkout()),
            failed: None,
            finished: false,
            doomed_after,
        }
    }

    /// Draws a fresh commit-order version — greater than the commit
    /// version of every transaction that has already committed, smaller
    /// than that of any that commits later — and stores it at `addr` in
    /// one versioned-lock critical section: the containing line is locked,
    /// the version drawn *while the line is held*, the word written, and
    /// the line released at that version.
    ///
    /// Drawing the version and storing it with a separate
    /// [`HtmRuntime::nontx_write`] would only be monotonic under a global
    /// lock (two racing callers can interleave draw/store and publish a
    /// *smaller* version last). The per-line fallback has no global lock,
    /// so its `gLastRedoTS` bump goes through this combined operation;
    /// hardware transactions subscribed to the line abort the moment it is
    /// taken, exactly as with `nontx_write`.
    pub fn nontx_bump_commit_version(&self, addr: PAddr) -> u64 {
        self.nontx_store(addr.line(), |wv| {
            self.mem.write(addr, wv);
            wv
        })
    }

    /// Performs a non-transactional store that is still visible to the
    /// conflict-detection machinery (running transactions that have the
    /// line in their footprint will abort, as they would under RTM's strong
    /// atomicity): the one-word case of [`HtmRuntime::nontx_write_words`].
    pub fn nontx_write(&self, addr: PAddr, value: u64) {
        self.nontx_store(addr.line(), |_| self.mem.write(addr, value));
    }

    /// Stores `words` contiguously from `addr` outside any transaction, by
    /// the line as [`HwTxn::commit`] publishes: each line locked once, its
    /// words stored by one [`MemorySpace::write_line`], one fresh version.
    pub fn nontx_write_words(&self, addr: PAddr, words: &[u64]) {
        let Ok(()) = for_each_line_run(addr, words, |line, bits, run| {
            let mut image = [0; WORDS_PER_LINE as usize];
            let first = bits.trailing_zeros() as usize;
            image[first..first + run.len()].copy_from_slice(run);
            self.nontx_store(line, |_| self.mem.write_line(line, &image, bits));
            Ok::<_, Infallible>(())
        });
    }

    /// [`HtmRuntime::nontx_write_words`] for every line of a line image
    /// that has written words — an [`ExclusiveTxn`](crate::ExclusiveTxn)'s
    /// write buffer, or the redo image [`HwTxn::roll_back`] took (Crafty's
    /// thread-unsafe Redo).
    pub fn nontx_write_lines(&self, image: &[LineSlot]) {
        for slot in image.iter().filter(|slot| slot.mask != 0) {
            let line = LineId::new(slot.line());
            self.nontx_store(line, |_| self.mem.write_line(line, &slot.words, slot.mask));
        }
    }

    /// The locked-line section of every non-transactional store: lock
    /// `line`, draw a fresh version while it is held, run `store` (handed
    /// that version, so a store that publishes it stays monotonic), and
    /// release the line at it.
    fn nontx_store<T>(&self, line: LineId, store: impl FnOnce(u64) -> T) -> T {
        let slot = self.lock_line(line);
        let wv = self.version_clock.fetch_add(1, Ordering::AcqRel) + 1;
        let stored = store(wv);
        slot.store(wv, Ordering::Release);
        stored
    }

    /// Performs a non-transactional compare-and-swap that participates in
    /// the versioned-lock machinery, mirroring [`HtmRuntime::nontx_write`]:
    /// the containing line is locked for the duration of the CAS, running
    /// transactions with the line in their footprint abort (strong
    /// atomicity), and a successful swap bumps the line's version.
    ///
    /// This is what the baselines build their lock on: their single global
    /// lock is just a word in simulated memory, and CASing it through this
    /// method gives mutual exclusion *and* HTM subscription without any
    /// host-level mutex.
    pub fn nontx_compare_exchange(&self, addr: PAddr, current: u64, new: u64) -> Result<u64, u64> {
        let slot = self.lock_line(addr.line());
        let result = self.mem.compare_exchange(addr, current, new);
        match result {
            Ok(_) => {
                let wv = self.version_clock.fetch_add(1, Ordering::AcqRel) + 1;
                slot.store(wv, Ordering::Release);
            }
            Err(_) => {
                // Nothing was written: release the lock bit, leaving the
                // version unchanged so readers are not spuriously aborted.
                let v = slot.load(Ordering::Acquire);
                slot.store(v & !LOCK_BIT, Ordering::Release);
            }
        }
        result
    }

    /// Acquires a lock *word* in simulated memory (0 = free, 1 = held) —
    /// the baselines' single-global-lock acquisition. The CAS goes through
    /// [`HtmRuntime::nontx_compare_exchange`], so subscribed hardware
    /// transactions abort the moment the word is taken; between failed
    /// attempts the waiter spins with plain versioned reads
    /// (test-and-test-and-set), because a CAS retry loop would transiently
    /// lock the word's line on every failed attempt and spuriously abort
    /// the very transactions that are still making progress.
    ///
    /// The returned guard releases the word when dropped — including
    /// during unwinding, so a panic inside the locked section cannot wedge
    /// the word at 1 and leave every other thread spinning forever (the
    /// liveness the old host `Mutex` provided through its own guard).
    #[must_use = "the lock word is released when the guard drops"]
    pub fn nontx_acquire_lock_word(&self, addr: PAddr) -> LockWordGuard<'_> {
        loop {
            if self.nontx_compare_exchange(addr, 0, 1).is_ok() {
                return LockWordGuard { rt: self, addr };
            }
            wait::until(|| self.nontx_read(addr) == 0);
        }
    }

    /// Acquires the versioned lock of `line` for a non-transactional
    /// operation and returns its slot (with the lock bit set).
    fn lock_line(&self, line: LineId) -> &AtomicU64 {
        let slot = self.mem.line_lock(line);
        acquire_lock_bit(slot, LOCK_BIT);
        slot
    }

    /// Reads a word non-transactionally. The read is atomic with respect to
    /// committing transactions (it never observes a commit's partially
    /// published write set), mirroring the strong atomicity of real RTM:
    /// if the containing line is locked by an in-flight commit, the read
    /// waits for the commit to finish.
    /// The wait for an in-flight commit to release the line uses the same
    /// [`Backoff`] as the line-locking path: `snooze` while the line is
    /// locked, `spin` after a torn read.
    pub fn nontx_read(&self, addr: PAddr) -> u64 {
        let line = addr.line();
        let mut backoff = Backoff::new();
        loop {
            let v1 = self.version_of(line);
            if v1 & LOCKED_MASK != 0 {
                backoff.snooze();
                continue;
            }
            let value = self.mem.read(addr);
            if self.version_of(line) == v1 {
                return value;
            }
            backoff.spin();
        }
    }

    /// The versioned lock word of the line with index `line`.
    #[inline]
    pub(crate) fn lock_word(&self, line: u64) -> &AtomicU64 {
        self.mem.line_lock(LineId::new(line))
    }

    /// The line's current versioned-lock word.
    pub(crate) fn version_of(&self, line: LineId) -> u64 {
        self.mem.line_lock(line).load(Ordering::Acquire)
    }

    /// The line's lock word as the HTM fast path observes it — the full
    /// word normally, the fallback bit masked out under the
    /// `no-fallback-subscription` teeth feature (see [`SUBSCRIBE_VIEW`]).
    #[inline]
    fn subscribed_version_of(&self, line: LineId) -> u64 {
        self.version_of(line) & SUBSCRIBE_VIEW
    }

    /// Loads the word at `addr` for a transaction with snapshot `rv` that
    /// sees lock words through `view`: `None` (a conflict) if the line is
    /// locked, versioned past the snapshot, or changes under the load.
    /// One lookup serves both loads of the lock word.
    #[inline]
    pub(crate) fn versioned_read(&self, addr: PAddr, rv: u64, view: u64) -> Option<u64> {
        let slot = self.mem.line_lock(addr.line());
        let v1 = slot.load(Ordering::Acquire) & view;
        if v1 & LOCKED_MASK != 0 || (v1 & VERSION_MASK) > rv {
            return None;
        }
        let value = self.mem.read(addr);
        let v2 = slot.load(Ordering::Acquire) & view;
        (v2 == v1).then_some(value)
    }

    /// [`HtmRuntime::versioned_read`] of the `out.len()` words from `addr`,
    /// all of one line: the two loads of the lock word bracket every word,
    /// so the run is one snapshot of the line. False is a conflict.
    #[inline]
    fn versioned_read_run(&self, addr: PAddr, out: &mut [u64], rv: u64, view: u64) -> bool {
        let slot = self.mem.line_lock(addr.line());
        let v1 = slot.load(Ordering::Acquire) & view;
        if v1 & LOCKED_MASK != 0 || (v1 & VERSION_MASK) > rv {
            return false;
        }
        for (i, word) in out.iter_mut().enumerate() {
            *word = self.mem.read(addr.add(i as u64));
        }
        slot.load(Ordering::Acquire) & view == v1
    }
}

/// Holds a lock word in simulated memory acquired through
/// [`HtmRuntime::nontx_acquire_lock_word`]; releases it (a versioned
/// non-transactional store of 0) when dropped, panic-safe.
#[derive(Debug)]
pub struct LockWordGuard<'rt> {
    rt: &'rt HtmRuntime,
    addr: PAddr,
}

impl Drop for LockWordGuard<'_> {
    fn drop(&mut self) {
        self.rt.nontx_write(self.addr, 0);
    }
}

/// An in-flight simulated hardware transaction.
///
/// Obtain one from [`HtmRuntime::begin`]; use [`HwTxn::read`] and
/// [`HwTxn::write`] for every shared-memory access inside the transaction;
/// finish with [`HwTxn::commit`] or [`HwTxn::abort_explicit`]. Once a read,
/// write, or commit reports an [`AbortCode`], the transaction is dead: its
/// buffered writes are discarded and it must be dropped.
pub struct HwTxn<'rt> {
    rt: &'rt HtmRuntime,
    tid: usize,
    rv: u64,
    /// The descriptor lent by the calling thread for the life of the
    /// transaction; `Drop` takes it to hand it back.
    scratch: Option<Box<TxnScratch>>,
    failed: Option<AbortCode>,
    finished: bool,
    doomed_after: Option<u32>,
}

impl std::fmt::Debug for HwTxn<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.scratch.as_ref().expect("descriptor present");
        f.debug_struct("HwTxn")
            .field("tid", &self.tid)
            .field("read_log", &s.reads.len())
            .field("writes", &s.words_written)
            .field("failed", &self.failed)
            .finish()
    }
}

impl<'rt> HwTxn<'rt> {
    fn fail(&mut self, code: AbortCode) -> AbortCode {
        if self.failed.is_none() {
            self.failed = Some(code);
            self.finished = true;
            let explicit = match code {
                AbortCode::Explicit(c) => u64::from(c),
                _ => 0,
            };
            self.rt
                .recorder
                .record_hw(self.tid, code.outcome(), explicit);
        }
        code
    }

    fn tick_doom(&mut self) -> Option<AbortCode> {
        if let Some(left) = self.doomed_after.as_mut() {
            if *left == 0 {
                return Some(AbortCode::Zero);
            }
            *left -= 1;
        }
        None
    }

    #[inline]
    fn s(&mut self) -> &mut TxnScratch {
        self.scratch.as_mut().expect("descriptor present")
    }

    /// Number of distinct words written so far.
    pub fn write_set_len(&self) -> usize {
        self.scratch
            .as_ref()
            .expect("descriptor present")
            .words_written
    }

    /// The thread id this transaction belongs to.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Transactionally reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns the abort code if the transaction must abort (conflict,
    /// capacity, or spurious abort). The transaction is dead afterwards.
    pub fn read(&mut self, addr: PAddr) -> Result<u64, AbortCode> {
        if let Some(code) = self.failed {
            return Err(code);
        }
        if let Some(code) = self.tick_doom() {
            return Err(self.fail(code));
        }
        let (rt, rv) = (self.rt, self.rv);
        let s = self.s();
        if let Some(value) = s.read_buffered(addr) {
            return Ok(value);
        }
        let over_capacity = s.reads_exceed(rt.cfg.read_capacity_lines);
        // Per-line subscription: the fast path watches exactly this line's
        // lock word — both the transient commit lock and the fallback
        // write lock — instead of any global fallback indicator. A line
        // locked either way, or versioned past the snapshot, aborts.
        let Some(value) = rt.versioned_read(addr, rv, SUBSCRIBE_VIEW) else {
            return Err(self.fail(AbortCode::Conflict));
        };
        if over_capacity {
            return Err(self.fail(AbortCode::Capacity));
        }
        Ok(value)
    }

    /// Transactionally writes `value` to the word at `addr`. The store is
    /// buffered and becomes visible (and evictable to persistent memory)
    /// only if the transaction commits.
    ///
    /// # Errors
    ///
    /// Returns the abort code if the transaction must abort.
    pub fn write(&mut self, addr: PAddr, value: u64) -> Result<(), AbortCode> {
        if let Some(code) = self.failed {
            return Err(code);
        }
        if let Some(code) = self.tick_doom() {
            return Err(self.fail(code));
        }
        let write_capacity = self.rt.cfg.write_capacity_lines;
        let s = self.s();
        // Capacity counts *data* lines only: version-sink lines are
        // lock-ordering entries, not HTM footprint.
        if s.buffer_write(addr, value) && s.data_count > write_capacity {
            return Err(self.fail(AbortCode::Capacity));
        }
        Ok(())
    }

    /// Explicitly aborts the transaction (the simulated `xabort`), carrying
    /// `code` back to the fallback handler. All buffered writes are
    /// discarded.
    pub fn abort_explicit(&mut self, code: u32) -> AbortCode {
        self.fail(AbortCode::Explicit(code))
    }

    /// Arranges for this transaction's *commit version* — the value the
    /// global version clock is advanced to when the transaction commits —
    /// to be stored at `addr` as part of the commit. The commit version is
    /// assigned inside the commit's critical section, so values published
    /// this way are ordered consistently with the order in which
    /// transactions' writes become visible (something a timestamp read
    /// earlier inside the transaction cannot guarantee under a software
    /// TM). Crafty uses this for `gLastRedoTS`.
    ///
    /// # Errors
    ///
    /// Returns the abort code if the transaction has already aborted.
    pub fn publish_commit_version(&mut self, addr: PAddr) -> Result<(), AbortCode> {
        if let Some(code) = self.failed {
            return Err(code);
        }
        let s = self.s();
        s.version_sinks.push(addr);
        // The sink's line must be locked at commit like any written line.
        s.flag_line(addr, SINK);
        Ok(())
    }

    /// Requests a CLWB of the line containing `addr`, to be issued as part
    /// of a successful commit (after the buffered writes are published,
    /// while the commit is still atomic with respect to other
    /// transactions). The flush is *not* drained — exactly the
    /// flush-without-drain pattern Crafty's Redo/Validate phases use; this
    /// thread's next drain completes it.
    ///
    /// A request is a flag on the line's descriptor entry, so a
    /// transaction that writes several words of one line issues a single
    /// commit-time CLWB for it. Word precision is not lost — publication
    /// marks exactly the written words in the line's dirty mask, so the
    /// eventual drain copies the words this transaction wrote, not the
    /// whole line. Flushing a volatile address is a no-op.
    ///
    /// # Errors
    ///
    /// Returns the abort code if the transaction has already aborted.
    pub fn flush_on_commit(&mut self, addr: PAddr) -> Result<(), AbortCode> {
        if let Some(code) = self.failed {
            return Err(code);
        }
        if self.rt.mem.is_persistent(addr) {
            self.s().flag_line(addr, FLUSH);
        }
        Ok(())
    }

    /// Attempts to commit. On success all buffered writes are published
    /// atomically to the memory space, the thread's outstanding flushes
    /// are drained (SFENCE semantics), and the transaction's commit
    /// version is returned. A transaction that wrote nothing and
    /// registered no version sink has nothing to order after its snapshot:
    /// it returns the snapshot version and leaves the global version clock
    /// alone (TL2's read-only rule), so read-only commits never serialize
    /// on the clock's cache line.
    ///
    /// The order is TL2's: lock the written lines, draw the commit
    /// version, validate the read set, publish. Every line the commit
    /// vouches for is therefore either held or was checked *after* the
    /// draw, so any writer to it that the check missed locked it later and
    /// drew a larger version — commit versions order commits consistently
    /// with what each of them observed, which Crafty's Redo check relies
    /// on (see the comment at the draw).
    ///
    /// # Errors
    ///
    /// Returns the abort code if validation fails or the transaction had
    /// already aborted.
    pub fn commit(mut self) -> Result<u64, AbortCode> {
        if let Some(code) = self.failed {
            return Err(code);
        }
        if let Some(code) = self.tick_doom() {
            return Err(self.fail(code));
        }
        let rt = self.rt;
        let rv = self.rv;
        let s = self.scratch.as_mut().expect("descriptor present");

        let release = |locked: &[u64], version: Option<u64>| {
            for &line in locked {
                let slot = rt.lock_word(line);
                match version {
                    Some(wv) => slot.store(wv, Ordering::Release),
                    None => {
                        let v = slot.load(Ordering::Acquire);
                        slot.store(v & !LOCK_BIT, Ordering::Release);
                    }
                }
            }
        };

        // Lock in first-touch order, as the lines were collected. No
        // canonical order is needed: a hardware commit never waits on a
        // line — one that is locked or versioned past `rv` aborts it, and
        // it releases what it took — so no cycle of waiters can form.
        let mut conflict = false;
        for (i, &line) in s.lock_order.iter().enumerate() {
            let slot = rt.lock_word(line);
            let v = slot.load(Ordering::Acquire);
            let lockable = v & SUBSCRIBE_VIEW & LOCKED_MASK == 0 && (v & VERSION_MASK) <= rv;
            let acquired = lockable
                && slot
                    .compare_exchange(v, v | LOCK_BIT, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok();
            if !acquired {
                conflict = true;
                break;
            }
            s.locked = i + 1;
        }

        // Draw the commit version with the write lines held and *before*
        // validating the read set — TL2's order, and load-bearing: a line
        // that is only validated (anything read, and every line a roll-back
        // demoted) is not protected by a lock between its check and the
        // draw, so a writer to it could slip into a validate-then-draw
        // window and receive the *smaller* version while this transaction
        // commits over what that writer replaced. Crafty's Redo check
        // (`gLastRedoTS >= log_commit_version`) would then pass over a stale
        // Log snapshot. Drawn first, the version is below that of every
        // writer this validation does not see (writers lock, then draw). A
        // failed validation merely skips a clock value; a commit with
        // nothing to lock has nothing to order and draws none.
        let wv = if conflict || s.lock_order.is_empty() {
            rv
        } else {
            rt.version_clock.fetch_add(1, Ordering::AcqRel) + 1
        };

        // Validate the read log: a line tagged HELD was checked when it was
        // locked; any other gets the version check, and only one that fails
        // it is looked up in the write table, whose flags say whether this
        // commit holds it (then it was checked when it was locked, too).
        conflict = conflict
            || s.reads.iter().any(|&line| {
                if line & HELD != 0 {
                    return false;
                }
                let v = rt.subscribed_version_of(LineId::new(line));
                (v & LOCKED_MASK != 0 || (v & VERSION_MASK) > rv) && !s.holds(line)
            });
        if conflict {
            release(&s.lock_order[..s.locked], None);
            return Err(self.fail(AbortCode::Conflict));
        }

        // Publish the buffered writes, line by line (and the commit version
        // itself into any registered sinks).
        for slot in s.lines.slots().iter().filter(|slot| slot.mask != 0) {
            rt.mem
                .write_line(LineId::new(slot.line()), &slot.words, slot.mask);
        }
        for addr in &s.version_sinks {
            rt.mem.write(*addr, wv);
        }
        // Fence semantics for flushes issued before the transaction (they
        // were normally already drained at begin), then enqueue the
        // commit-time flush requests — still inside the critical section so
        // that the enqueue is atomic with the publication of the writes.
        if rt.mem.pending_flushes(self.tid) > 0 {
            rt.mem.drain(self.tid);
        }
        rt.mem.clwb_lines(
            self.tid,
            s.lines
                .slots()
                .iter()
                .filter(|slot| slot.flags & FLUSH != 0)
                .map(|slot| LineId::new(slot.line())),
        );
        release(&s.lock_order, Some(wv));

        self.finished = true;
        rt.recorder
            .record_hw(self.tid, HwTxnOutcome::Commit, s.words_written as u64);
        Ok(wv)
    }
}

/// The batch entry points — the line reads a body makes through
/// [`HwTxn::read_words`], and those Crafty's Log → Redo hand-off uses:
/// each does the work of a run of [`HwTxn::read`]/[`HwTxn::write`] calls
/// with one descriptor lookup per *line*, and is indistinguishable from
/// that run to everything that counts — version checks, capacity checks, the read log,
/// flags, and the injected-abort countdown, which still ticks once per
/// word access. A batch that ticked once would let doomed transactions
/// survive (`doomed_after` is at most 24) and move every abort-dependent
/// count.
///
/// Kept in an `impl` of their own, out of line, so the text of
/// `read`/`write`/`commit` — all a read-only transaction runs — stays as
/// it was.
impl HwTxn<'_> {
    /// `n` ticks of the injected-abort countdown at once.
    fn tick(&mut self, n: usize) -> Result<(), AbortCode> {
        if let Some(left) = self.doomed_after.as_mut() {
            match (*left as usize).checked_sub(n) {
                Some(rest) => *left = rest as u32,
                None => return Err(self.fail(AbortCode::Zero)),
            }
        }
        Ok(())
    }

    /// [`HwTxn::read`] for each of the `out.len()` words from `addr`, one
    /// line at a time. Per line: one `failed` check, one buffered-word
    /// lookup (only once the transaction has written something), and — for
    /// a run with a word not served from the buffer — one read-log entry,
    /// one capacity check and one versioned read of the run. The countdown
    /// still ticks once per word, and a line's checks fall where the
    /// word-wise run makes them: at its first word not served from the
    /// buffer. An empty run does nothing.
    ///
    /// # Errors
    ///
    /// Returns the abort code the word-wise reads would have; `out` is
    /// then unspecified.
    #[inline(never)]
    pub fn read_words(&mut self, addr: PAddr, mut out: &mut [u64]) -> Result<(), AbortCode> {
        let (rt, rv) = (self.rt, self.rv);
        let mut at = addr.word();
        while !out.is_empty() {
            if let Some(code) = self.failed {
                return Err(code);
            }
            let (line, bits, n) = line_run(at, out.len());
            let (run, rest) = std::mem::take(&mut out).split_at_mut(n);
            let first = bits.trailing_zeros() as usize;
            let (idx, buffered) = self.s().buffered_words(line.index(), bits);
            match bits & !buffered {
                0 => self.tick(n)?,
                from_memory => {
                    let before = from_memory.trailing_zeros() as usize - first;
                    self.tick(before + 1)?;
                    let s = self.s();
                    s.log_read(line.index());
                    let over_capacity = s.reads_exceed(rt.cfg.read_capacity_lines);
                    if !rt.versioned_read_run(PAddr::new(at), run, rv, SUBSCRIBE_VIEW) {
                        return Err(self.fail(AbortCode::Conflict));
                    }
                    if over_capacity {
                        return Err(self.fail(AbortCode::Capacity));
                    }
                    self.tick(n - before - 1)?;
                }
            }
            if buffered != 0 {
                let words = &self.s().lines.slots()[idx].words;
                let mut bits = buffered;
                while bits != 0 {
                    let word = bits.trailing_zeros() as usize;
                    run[word - first] = words[word];
                    bits &= bits - 1;
                }
            }
            at += n as u64;
            out = rest;
        }
        Ok(())
    }

    /// Transactionally replaces the word at `addr` with `value` and returns
    /// what it held: [`HwTxn::read`] then [`HwTxn::write`] from a single
    /// descriptor lookup, journalled so [`HwTxn::roll_back`] can undo it.
    ///
    /// # Errors
    ///
    /// Returns the abort code the `read` or the `write` would have.
    #[inline(never)]
    pub fn exchange(&mut self, addr: PAddr, value: u64) -> Result<u64, AbortCode> {
        if let Some(code) = self.failed {
            return Err(code);
        }
        self.tick(1)?;
        let (rt, rv) = (self.rt, self.rv);
        let line = addr.line().index();
        let word = (addr.word() % WORDS_PER_LINE) as usize;
        let s = self.s();
        let idx = s.lines.entry(line);
        let old = match s.buffered_at(idx, word) {
            Some(buffered) => buffered,
            None => {
                s.log_read(line);
                let over_capacity = s.reads_exceed(rt.cfg.read_capacity_lines);
                let Some(current) = rt.versioned_read(addr, rv, SUBSCRIBE_VIEW) else {
                    return Err(self.fail(AbortCode::Conflict));
                };
                if over_capacity {
                    return Err(self.fail(AbortCode::Capacity));
                }
                current
            }
        };
        self.tick(1)?;
        let s = self.s();
        if s.write_at(idx, word, value, 0) && s.data_count > rt.cfg.write_capacity_lines {
            return Err(self.fail(AbortCode::Capacity));
        }
        s.journal.push(Journalled {
            slot: idx as u32,
            word: word as u8,
            old,
        });
        Ok(old)
    }

    /// Every [`HwTxn::exchange`] so far as `(address, old value)`, in
    /// program order.
    pub fn exchanged(&self) -> impl Iterator<Item = (PAddr, u64)> + '_ {
        let s = self.scratch.as_ref().expect("descriptor present");
        s.journal.iter().map(|j| {
            let line = LineId::new(s.lines.slots()[j.slot as usize].line());
            (line.first_word().add(u64::from(j.word)), j.old)
        })
    }

    /// Copies the descriptor's lines into `image` in one block — line id,
    /// final words, written-word mask: the write buffer *is* the redo log;
    /// a line with no written word may come along, and
    /// [`HwTxn::write_lines`] and [`HtmRuntime::nontx_write_lines`] skip
    /// it — and then undoes every [`HwTxn::exchange`], newest first, so the
    /// transaction commits the values it found. Returns how many exchanges
    /// that was. Stands for one `read` and one `write` per exchange (the
    /// old word-wise roll-back), so it ticks the countdown twice for each.
    ///
    /// A line that only exchanges wrote to — each served from memory under
    /// the version check, no [`HwTxn::write`] underneath, no version sink —
    /// is back to exactly what the transaction read, so it is **demoted**
    /// to a read: [`HwTxn::commit`] validates it with the read set instead
    /// of locking it, storing the old values over themselves and bumping
    /// its version (which could only abort transactions whose reads of it
    /// are still valid). It still counts toward the write capacity and
    /// [`HwTxn::write_set_len`] — real HTM would have held it in the write
    /// set — and a later write makes it a written line again.
    ///
    /// # Errors
    ///
    /// Returns the abort code if the transaction has aborted or the
    /// countdown runs out.
    #[inline(never)]
    pub fn roll_back(&mut self, image: &mut Vec<LineSlot>) -> Result<usize, AbortCode> {
        if let Some(code) = self.failed {
            return Err(code);
        }
        let s = self.s();
        let exchanges = s.journal.len();
        s.roll_back(image);
        self.tick(2 * exchanges)?;
        Ok(exchanges)
    }

    /// [`HwTxn::write`] for each of `words`, stored contiguously from
    /// `addr`: one descriptor lookup per line, and per line the first
    /// word's tick, the capacity check its `write` would make, then the
    /// other words' ticks.
    ///
    /// # Errors
    ///
    /// Returns the abort code the word-wise writes would have.
    #[inline(never)]
    pub fn write_words(&mut self, addr: PAddr, words: &[u64]) -> Result<(), AbortCode> {
        if let Some(code) = self.failed {
            return Err(code);
        }
        let write_capacity = self.rt.cfg.write_capacity_lines;
        for_each_line_run(addr, words, |line, bits, run| {
            self.tick(1)?;
            let s = self.s();
            let (buffer, new_data_line) = s.claim_words(line.index(), bits);
            let first = bits.trailing_zeros() as usize;
            buffer[first..first + run.len()].copy_from_slice(run);
            if new_data_line && s.data_count > write_capacity {
                return Err(self.fail(AbortCode::Capacity));
            }
            self.tick(run.len() - 1)
        })
    }

    /// Buffers the written words of every line of `image` (taken by
    /// [`HwTxn::roll_back`], possibly in an earlier transaction): the Redo
    /// of `exchanges` logged writes, as if by [`HwTxn::write`] of each
    /// image word, line by line, and then once more for every exchange
    /// that hit an already-written word.
    ///
    /// Each line with written words is claimed with one lookup, through
    /// the rule [`HwTxn::write_words`] uses, and takes the image's words on
    /// top of whatever the descriptor already buffered for it. The ticks
    /// follow the word-wise order: a line that takes the write set past its
    /// capacity aborts after the ticks of the words before it plus its
    /// first word's; otherwise the countdown ticks once per *logged write*,
    /// so a word exchanged twice still counts twice, as it did when the
    /// redo log was replayed word by word.
    ///
    /// # Errors
    ///
    /// Returns the abort code the word-wise writes would have.
    #[inline(never)]
    pub fn write_lines(&mut self, image: &[LineSlot], exchanges: usize) -> Result<(), AbortCode> {
        if let Some(code) = self.failed {
            return Err(code);
        }
        let write_capacity = self.rt.cfg.write_capacity_lines;
        let s = self.s();
        let mut words = 0;
        for src in image.iter().filter(|src| src.mask != 0) {
            let (buffer, new_data_line) = s.claim_words(src.line(), src.mask);
            let mut bits = src.mask;
            while bits != 0 {
                let word = bits.trailing_zeros() as usize;
                buffer[word] = src.words[word];
                bits &= bits - 1;
            }
            if new_data_line && s.data_count > write_capacity {
                self.tick(words + 1)?;
                return Err(self.fail(AbortCode::Capacity));
            }
            words += src.mask.count_ones() as usize;
        }
        self.tick(words.max(exchanges))
    }

    /// [`HwTxn::flush_on_commit`] for every persistent line the
    /// transaction has written so far: one walk of the descriptor instead
    /// of one lookup per written word.
    ///
    /// # Errors
    ///
    /// Returns the abort code if the transaction has already aborted.
    #[inline(never)]
    pub fn flush_writes_on_commit(&mut self) -> Result<(), AbortCode> {
        if let Some(code) = self.failed {
            return Err(code);
        }
        let rt = self.rt;
        let s = self.s();
        for idx in 0..s.lines.len() {
            let slot = s.lines.slot_mut(idx);
            if slot.flags & DATA == 0 {
                continue;
            }
            // The persistent region is a prefix of the space, so a line
            // has a persistent written word iff its lowest one is.
            let lowest = u64::from(slot.mask.trailing_zeros());
            if rt
                .mem
                .is_persistent(LineId::new(slot.line()).first_word().add(lowest))
            {
                slot.flags |= FLUSH;
            }
        }
        Ok(())
    }
}

impl Drop for HwTxn<'_> {
    fn drop(&mut self) {
        // A transaction abandoned without commit or explicit abort counts
        // as an explicit abort: the program chose not to finish it.
        if !self.finished {
            self.fail(AbortCode::Explicit(0));
        }
        // Hand the descriptor back for the thread's next transaction.
        if let Some(scratch) = self.scratch.take() {
            scratch::give_back(scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crafty_pmem::PmemConfig;

    fn runtime(cfg: HtmConfig) -> HtmRuntime {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        HtmRuntime::new(mem, cfg, Arc::new(BreakdownRecorder::new()))
    }

    #[test]
    fn committed_writes_become_visible() {
        let rt = runtime(HtmConfig::skylake());
        let a = PAddr::new(64);
        let mut t = rt.begin(0);
        assert_eq!(t.read(a).unwrap(), 0);
        t.write(a, 5).unwrap();
        assert_eq!(
            t.read(a).unwrap(),
            5,
            "reads must observe own buffered writes"
        );
        assert_eq!(rt.mem().read(a), 0, "buffered writes must stay invisible");
        t.commit().unwrap();
        assert_eq!(rt.mem().read(a), 5);
        let s = rt.recorder().snapshot();
        assert_eq!(s.hw(HwTxnOutcome::Commit), 1);
    }

    #[test]
    fn aborted_writes_are_discarded() {
        let rt = runtime(HtmConfig::skylake());
        let a = PAddr::new(64);
        let mut t = rt.begin(0);
        t.write(a, 5).unwrap();
        let code = t.abort_explicit(3);
        assert_eq!(code, AbortCode::Explicit(3));
        drop(t);
        assert_eq!(rt.mem().read(a), 0);
        let s = rt.recorder().snapshot();
        assert_eq!(s.hw(HwTxnOutcome::Explicit), 1);
        assert_eq!(s.hw(HwTxnOutcome::Commit), 0);
    }

    #[test]
    fn conflicting_writer_aborts_reader_at_commit() {
        let rt = runtime(HtmConfig::skylake());
        let a = PAddr::new(64);
        let mut reader = rt.begin(0);
        assert_eq!(reader.read(a).unwrap(), 0);
        // Another thread commits a write to the same line in between.
        let mut writer = rt.begin(1);
        writer.write(a, 9).unwrap();
        writer.commit().unwrap();
        // The reader's commit must now fail validation.
        let err = reader.commit().unwrap_err();
        assert_eq!(err, AbortCode::Conflict);
    }

    #[test]
    fn reader_aborts_eagerly_after_conflicting_commit() {
        let rt = runtime(HtmConfig::skylake());
        let a = PAddr::new(64);
        let b = PAddr::new(256);
        let mut t = rt.begin(0);
        t.read(a).unwrap();
        let mut other = rt.begin(1);
        other.write(b, 1).unwrap();
        other.commit().unwrap();
        // Line of `b` now has a newer version than t's snapshot.
        assert_eq!(t.read(b).unwrap_err(), AbortCode::Conflict);
    }

    #[test]
    fn write_write_conflicts_abort_one_transaction() {
        let rt = runtime(HtmConfig::skylake());
        let a = PAddr::new(64);
        let mut t1 = rt.begin(0);
        let mut t2 = rt.begin(1);
        t1.write(a, 1).unwrap();
        t2.write(a, 2).unwrap();
        t1.commit().unwrap();
        assert_eq!(t2.commit().unwrap_err(), AbortCode::Conflict);
        assert_eq!(rt.mem().read(a), 1);
    }

    /// Runs one transaction doing `ops` reads and reports whether it
    /// committed.
    fn try_txn(rt: &HtmRuntime, ops: u64) -> bool {
        let mut t = rt.begin(0);
        for i in 0..ops {
            if t.read(PAddr::new(64 + i * 8)).is_err() {
                drop(t);
                return false;
            }
        }
        t.commit().is_ok()
    }

    #[test]
    fn abort_storm_dooms_bursts_but_leaves_clean_windows() {
        let rt = runtime(HtmConfig::skylake().with_abort_storm(2, 3, 11));
        // Phase repeats doomed, doomed, clean; 30 reads each guarantees
        // every doomed transaction hits its injected abort (doom fires
        // within the first 24 operations).
        let outcomes: Vec<bool> = (0..9).map(|_| try_txn(&rt, 30)).collect();
        let expected: Vec<bool> = (0..9).map(|i| i % 3 == 2).collect();
        assert_eq!(outcomes, expected, "storm phase must be deterministic");
    }

    #[test]
    fn storm_period_is_clamped_to_keep_a_clean_window() {
        // period <= burst would doom every begin; the clamp to burst + 1
        // must leave one clean begin per cycle.
        let rt = runtime(HtmConfig::skylake().with_abort_storm(3, 0, 11));
        let outcomes: Vec<bool> = (0..8).map(|_| try_txn(&rt, 30)).collect();
        let expected: Vec<bool> = (0..8).map(|i| i % 4 == 3).collect();
        assert_eq!(outcomes, expected);
    }

    #[test]
    fn abort_schedule_survives_descriptor_and_thread_changes() {
        let cfg = HtmConfig::skylake()
            .with_zero_aborts(0.5, 7)
            .with_abort_storm(2, 5, 7);
        let reference = runtime(cfg);
        let expected: Vec<bool> = (0..40).map(|_| try_txn(&reference, 30)).collect();
        assert!(expected.contains(&true) && expected.contains(&false));

        // The same begins on tid 0, but served by three different
        // descriptors: a spawned thread's, this thread's, and — while an
        // outer transaction on another tid holds this thread's — a nested
        // begin's fresh one. The schedule lives in the runtime, so the
        // outcomes must not notice.
        let rt = runtime(cfg);
        let mut outcomes: Vec<bool> = std::thread::scope(|s| {
            s.spawn(|| (0..15).map(|_| try_txn(&rt, 30)).collect())
                .join()
                .expect("first leg")
        });
        outcomes.extend((15..30).map(|_| try_txn(&rt, 30)));
        let outer = rt.begin(1);
        outcomes.extend((30..40).map(|_| try_txn(&rt, 30)));
        drop(outer);
        assert_eq!(outcomes, expected);
    }

    #[test]
    fn capacity_abort_when_write_set_exceeds_budget() {
        let rt = runtime(HtmConfig::tiny());
        let mut t = rt.begin(0);
        let mut result = Ok(());
        for i in 0..64 {
            result = t.write(PAddr::new(64 + i * 8), i);
            if result.is_err() {
                break;
            }
        }
        assert_eq!(result.unwrap_err(), AbortCode::Capacity);
    }

    #[test]
    fn version_sinks_do_not_count_toward_write_capacity() {
        let rt = runtime(HtmConfig::tiny()); // write capacity: 4 lines
        let mut t = rt.begin(0);
        for i in 0..4 {
            t.write(PAddr::new(64 + i * 8), i).unwrap();
        }
        // A sink on a fifth line is a lock-ordering entry, not HTM write
        // footprint: it must not trip the capacity check.
        t.publish_commit_version(PAddr::new(64 + 4 * 8)).unwrap();
        // A fifth *data* line still does — even though its line is already
        // tracked for locking via the sink.
        assert_eq!(
            t.write(PAddr::new(64 + 4 * 8), 9).unwrap_err(),
            AbortCode::Capacity
        );
    }

    #[test]
    fn zero_aborts_are_injected_probabilistically() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let rt = HtmRuntime::new(
            mem,
            HtmConfig::skylake().with_zero_aborts(1.0, 3),
            Arc::new(BreakdownRecorder::new()),
        );
        let mut zero_seen = false;
        for _ in 0..8 {
            let mut t = rt.begin(0);
            let mut failed = None;
            for i in 0..64 {
                if let Err(e) = t.write(PAddr::new(64 + i), 1) {
                    failed = Some(e);
                    break;
                }
            }
            let outcome = match failed {
                Some(code) => Err(code),
                None => t.commit(),
            };
            if outcome == Err(AbortCode::Zero) {
                zero_seen = true;
            }
        }
        assert!(
            zero_seen,
            "with probability 1.0 every transaction is doomed"
        );
    }

    #[test]
    fn nontx_write_aborts_concurrent_transactions_on_that_line() {
        let rt = runtime(HtmConfig::skylake());
        let a = PAddr::new(64);
        let mut t = rt.begin(0);
        t.read(a).unwrap();
        rt.nontx_write(a, 77);
        assert_eq!(rt.nontx_read(a), 77);
        assert_eq!(t.commit().unwrap_err(), AbortCode::Conflict);
    }

    #[test]
    fn write_less_commits_leave_the_version_clock_alone() {
        let rt = runtime(HtmConfig::skylake());
        let (a, b) = (PAddr::new(64), PAddr::new(256));
        let mut writer = rt.begin(0);
        writer.write(a, 1).unwrap();
        let wv = writer.commit().unwrap();
        assert_eq!(rt.version_clock.load(Ordering::Relaxed), wv);
        // TL2's read-only rule: nothing to order after the snapshot, so a
        // commit without writes or version sinks returns the snapshot
        // version and never touches the shared clock — flush requests
        // included (they publish nothing).
        for _ in 0..100 {
            let mut reader = rt.begin(0);
            assert_eq!(reader.read(a).unwrap(), 1);
            reader.read(b).unwrap();
            reader.flush_on_commit(a).unwrap();
            assert_eq!(reader.commit().unwrap(), wv);
        }
        assert_eq!(rt.version_clock.load(Ordering::Relaxed), wv);
        // It still validates: a reader overtaken by a writer aborts.
        let mut reader = rt.begin(0);
        reader.read(a).unwrap();
        rt.nontx_write(a, 2);
        assert_eq!(reader.commit().unwrap_err(), AbortCode::Conflict);
        // A version sink alone is a write.
        let mut sink = rt.begin(0);
        sink.publish_commit_version(b).unwrap();
        let sv = sink.commit().unwrap();
        assert_eq!((sv, rt.mem().read(b)), (wv + 2, wv + 2));
    }

    #[test]
    fn commit_drains_pending_flushes() {
        let rt = runtime(HtmConfig::skylake());
        let a = PAddr::new(64);
        // A previous transaction-ish store, flushed but not drained.
        rt.mem().write(a, 5);
        rt.mem().clwb(0, a);
        assert_eq!(rt.mem().read_persisted(a), 0);
        let mut t = rt.begin(0); // xbegin has SFENCE semantics
        assert_eq!(rt.mem().read_persisted(a), 5);
        t.write(PAddr::new(128), 1).unwrap();
        t.commit().unwrap();
    }

    #[test]
    fn abandoned_transaction_counts_as_explicit_abort() {
        let rt = runtime(HtmConfig::skylake());
        {
            let mut t = rt.begin(0);
            t.write(PAddr::new(64), 1).unwrap();
            // dropped without commit
        }
        let s = rt.recorder().snapshot();
        assert_eq!(s.hw(HwTxnOutcome::Explicit), 1);
    }

    #[test]
    fn failed_transaction_rejects_further_use() {
        let rt = runtime(HtmConfig::skylake());
        let mut t = rt.begin(0);
        t.abort_explicit(1);
        assert!(t.read(PAddr::new(64)).is_err());
        assert!(t.write(PAddr::new(64), 1).is_err());
    }

    #[test]
    fn concurrent_increments_preserve_atomicity() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let rt = Arc::new(HtmRuntime::new(
            Arc::clone(&mem),
            HtmConfig::skylake(),
            Arc::new(BreakdownRecorder::new()),
        ));
        let counter = PAddr::new(64);
        let threads = 4;
        let increments_per_thread = 500;
        std::thread::scope(|s| {
            for tid in 0..threads {
                let rt = Arc::clone(&rt);
                s.spawn(move || {
                    for _ in 0..increments_per_thread {
                        loop {
                            let mut t = rt.begin(tid);
                            let ok = (|| {
                                let v = t.read(counter)?;
                                t.write(counter, v + 1)?;
                                Ok::<_, AbortCode>(())
                            })();
                            if ok.is_ok() && t.commit().is_ok() {
                                break;
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(mem.read(counter), (threads * increments_per_thread) as u64);
    }
}
