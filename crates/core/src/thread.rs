//! Per-thread execution of persistent transactions: the Log, Redo, and
//! Validate phases, the software fallbacks, and the thread-unsafe mode.
//!
//! The control flow follows Figures 3 and 4 of the paper:
//!
//! * **Thread-safe mode** — run the Log phase (nondestructive undo logging)
//!   in a hardware transaction, flush the undo entries, then try to commit
//!   the program's writes with the Redo phase; if its conservative
//!   timestamp check fails, re-execute the body under the Validate phase;
//!   after repeated failures fall back to software. The default fallback
//!   ([`FallbackPolicy::PerLine`]) locks exactly the transaction's
//!   write-set lines through the HTM's versioned line locks, so nothing
//!   system-wide is serialized; the paper's single global lock survives as
//!   [`FallbackPolicy::Sgl`], the differential reference.
//! * **Thread-unsafe mode** — the program already provides atomicity, so
//!   the Redo phase runs unconditionally and Validate is never needed.
//!
//! One deliberate implementation difference from the paper: inside the
//! software fallbacks this implementation buffers the body's writes
//! instead of re-running chunked hardware transactions. The guarantee
//! (undo log persisted before any program write reaches persistent
//! memory) and the cost profile (a single drain per transaction) are the
//! same; only the mechanism differs, because closure-based bodies cannot
//! be resumed from a mid-transaction point the way the paper's
//! compiler-instrumented transactions can.

use crafty_common::trace::{self, AbortCause, TraceEventKind, TxnPhase};
use crafty_common::{CompletionPath, PAddr, TmThread, TxAbort, TxnBody, TxnOps, TxnReport};
use crafty_htm::{FallbackTxn, GenMap, HwTxn};
use crafty_pmem::{MemorySpace, PmemAllocator};

use crate::alloc_log::AllocLog;
use crate::config::{CraftyVariant, FallbackPolicy, ThreadingMode};
use crate::engine::{Crafty, ABORT_REDO_TS_CHECK, ABORT_SGL_HELD, ABORT_VALIDATE_MISMATCH};
use crate::undo_log::MarkerKind;

/// One program write captured by the Log phase.
#[derive(Clone, Copy, Debug)]
struct UndoRecord {
    addr: PAddr,
    old_value: u64,
    persistent: bool,
}

/// Metadata the Redo/Validate phases need about a logged transaction. The
/// bulk data — the undo records, the redo log, and the persistent entries —
/// lives in [`CraftyThread`]'s reusable buffers (`undo_buf`, `redo_buf`,
/// `entries_buf`), filled by the Log phase and read by the later phases, so
/// no per-transaction `Vec`s are allocated.
#[derive(Clone, Copy, Debug)]
struct LoggedSeq {
    marker_abs: u64,
    /// The Log phase's hardware-transaction commit version: the point in
    /// the global commit order at which the undo log entries (and the
    /// values they captured) became current. The Redo phase's `gLastRedoTS`
    /// check compares against this (see `redo_phase`).
    log_commit_version: u64,
    persistent_writes: u64,
}

enum LogOutcome {
    ReadOnly,
    Aborted,
    Logged(LoggedSeq),
}

enum CommitOutcome {
    Committed,
    Failed,
}

/// A worker thread's handle onto a [`Crafty`] engine.
///
/// Obtained from [`crafty_common::PersistentTm::register_thread`]; executes
/// persistent transactions via [`TmThread::execute`].
pub struct CraftyThread<'c> {
    engine: &'c Crafty,
    tid: usize,
    /// True while executing a durability-deferred transaction
    /// ([`TmThread::execute_deferred`]): the begin/commit SFENCE drains
    /// that would make the *previous* transaction's commit durable are
    /// skipped, so a group of transactions shares one drain barrier. The
    /// mandatory drains — undo entries durable before any in-place write —
    /// are unaffected.
    deferred_mode: bool,
    alloc_log: AllocLog,
    /// All writes of the current transaction in program order (persistent
    /// and volatile), captured by the Log phase. Reused across
    /// transactions; cleared (capacity-preserving) at each Log attempt.
    undo_buf: Vec<UndoRecord>,
    /// Redo log built while rolling back (reverse program order); the Redo
    /// phase applies it back-to-front. Reused across transactions.
    redo_buf: Vec<(PAddr, u64)>,
    /// The persistent subset of `undo_buf` as `<addr, oldValue>` pairs:
    /// what the Log phase appends to the undo log and what the Validate
    /// phase checks re-executed writes against. Reused across transactions.
    entries_buf: Vec<(PAddr, u64)>,
    /// Buffered write values for SGL / thread-unsafe fallback execution
    /// (word → value), with O(1) generation clear.
    buffered_vals: GenMap,
    /// First-write order of the buffered execution's distinct words.
    buffered_order: Vec<PAddr>,
    /// Persistent addresses written by the buffered execution.
    persistent_addrs_buf: Vec<PAddr>,
}

impl std::fmt::Debug for CraftyThread<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CraftyThread")
            .field("tid", &self.tid)
            .finish()
    }
}

impl<'c> CraftyThread<'c> {
    pub(crate) fn new(engine: &'c Crafty, tid: usize) -> Self {
        CraftyThread {
            engine,
            tid,
            deferred_mode: false,
            alloc_log: AllocLog::new(),
            undo_buf: Vec::new(),
            redo_buf: Vec::new(),
            entries_buf: Vec::new(),
            buffered_vals: GenMap::new(),
            buffered_order: Vec::new(),
            persistent_addrs_buf: Vec::new(),
        }
    }

    /// The worker thread id this handle belongs to.
    pub fn tid(&self) -> usize {
        self.tid
    }

    // ------------------------------------------------------------------
    // Thread-safe mode (Figure 3)
    // ------------------------------------------------------------------

    fn execute_thread_safe(&mut self, body: &mut TxnBody<'_>) -> TxnReport {
        let engine = self.engine;
        let mut hw_attempts = 0u32;
        let mut restarts = 0u32;
        if engine.cfg.force_fallback {
            return self.execute_fallback(body, &mut hw_attempts);
        }
        loop {
            if restarts > engine.cfg.max_phase_restarts {
                return self.execute_fallback(body, &mut hw_attempts);
            }
            if engine.cfg.fallback == FallbackPolicy::Sgl {
                self.wait_for_sgl_free();
            }
            let log_t0 = trace::phase_start();
            let logged = self.log_phase(body, &mut hw_attempts);
            if let Some(t0) = log_t0 {
                engine.recorder.record_phase_cycles(
                    self.tid,
                    TxnPhase::Log,
                    trace::phase_elapsed(t0),
                );
            }
            let seq = match logged {
                LogOutcome::ReadOnly => {
                    self.alloc_log.clear();
                    engine
                        .recorder
                        .record_completion(self.tid, CompletionPath::ReadOnly);
                    return TxnReport::new(CompletionPath::ReadOnly, hw_attempts);
                }
                LogOutcome::Aborted => {
                    restarts += 1;
                    continue;
                }
                LogOutcome::Logged(seq) => seq,
            };

            if engine.cfg.variant != CraftyVariant::NoRedo {
                let redo_t0 = trace::phase_start();
                let redo = self.redo_phase(&seq, &mut hw_attempts);
                if let Some(t0) = redo_t0 {
                    engine.recorder.record_phase_cycles(
                        self.tid,
                        TxnPhase::Redo,
                        trace::phase_elapsed(t0),
                    );
                }
                if let CommitOutcome::Committed = redo {
                    return self.finish(CompletionPath::Redo, &seq, hw_attempts);
                }
                if engine.cfg.variant == CraftyVariant::NoValidate {
                    restarts += 1;
                    continue;
                }
            }
            let validate_t0 = trace::phase_start();
            let validated = self.validate_phase(body, &seq, &mut hw_attempts);
            if let Some(t0) = validate_t0 {
                engine.recorder.record_phase_cycles(
                    self.tid,
                    TxnPhase::Validate,
                    trace::phase_elapsed(t0),
                );
            }
            match validated {
                CommitOutcome::Committed => {
                    return self.finish(CompletionPath::Validate, &seq, hw_attempts);
                }
                CommitOutcome::Failed => {
                    restarts += 1;
                    continue;
                }
            }
        }
    }

    fn finish(&mut self, path: CompletionPath, seq: &LoggedSeq, hw_attempts: u32) -> TxnReport {
        let engine = self.engine;
        self.alloc_log.apply_frees(&engine.allocator);
        engine
            .recorder
            .record_persistent_writes(self.tid, seq.persistent_writes);
        engine.recorder.record_completion(self.tid, path);
        TxnReport::new(path, hw_attempts)
    }

    fn wait_for_sgl_free(&self) {
        let engine = self.engine;
        while engine.htm.nontx_read(engine.sgl_addr) != 0 {
            std::thread::yield_now();
        }
    }

    /// The Log phase (Algorithm 1): execute the body in a hardware
    /// transaction, recording each write's old value; roll every write back
    /// (building the redo log) before committing; append the undo entries
    /// plus a LOGGED marker to the persistent undo log; after the hardware
    /// transaction commits, flush the entries (no drain — the next hardware
    /// transaction's fence semantics complete the persist).
    fn log_phase(&mut self, body: &mut TxnBody<'_>, hw_attempts: &mut u32) -> LogOutcome {
        let engine = self.engine;
        let undo_log = engine.threads[self.tid].undo_log;
        for _ in 0..=engine.cfg.htm_retries_per_phase {
            *hw_attempts += 1;
            // Allocations recorded by a previous failed attempt would leak;
            // hand them back before re-executing the body.
            self.alloc_log.release_allocations(&engine.allocator);
            // Deferred mode: the previous transaction's commit write-backs
            // stay pending here and ride this transaction's pre-Redo drain
            // (or the group's flush_deferred barrier) instead of paying
            // their own fence at begin. The Log phase publishes no new
            // in-place values (its writes are rolled back before commit),
            // so nothing that needs a durable undo entry can persist early.
            let mut txn = if self.deferred_mode {
                engine.htm.begin_deferred(self.tid)
            } else {
                engine.htm.begin(self.tid)
            };
            // Under the SGL policy every hardware phase subscribes to the
            // global lock word. The per-line policy drops this global
            // subscription entirely: fallback transactions announce
            // themselves through the lock words of exactly the lines they
            // write, and the per-line reads above already watch those.
            if engine.cfg.fallback == FallbackPolicy::Sgl {
                match txn.read(engine.sgl_addr) {
                    Ok(0) => {}
                    Ok(_) => {
                        txn.abort_explicit(ABORT_SGL_HELD);
                        drop(txn);
                        self.wait_for_sgl_free();
                        continue;
                    }
                    Err(_) => continue,
                }
            }

            self.undo_buf.clear();
            {
                let mut ctx = LogCtx {
                    txn: &mut txn,
                    mem: &engine.mem,
                    allocator: &engine.allocator,
                    alloc_log: &mut self.alloc_log,
                    undo: &mut self.undo_buf,
                };
                if body(&mut ctx).is_err() {
                    continue;
                }
            }

            if self.undo_buf.is_empty()
                && self.alloc_log.allocations() == 0
                && self.alloc_log.deferred_frees() == 0
            {
                // Read-only transactions skip logging, persisting, and the
                // Redo/Validate phases entirely (Section 4.1).
                match txn.commit() {
                    Ok(_) => return LogOutcome::ReadOnly,
                    Err(_) => continue,
                }
            }

            // Roll back the writes in reverse order, building the redo log
            // from the values visible just before each rollback step.
            self.redo_buf.clear();
            let mut rolled_back = true;
            for idx in (0..self.undo_buf.len()).rev() {
                let rec = self.undo_buf[idx];
                let current = match txn.read(rec.addr) {
                    Ok(v) => v,
                    Err(_) => {
                        rolled_back = false;
                        break;
                    }
                };
                self.redo_buf.push((rec.addr, current));
                if txn.write(rec.addr, rec.old_value).is_err() {
                    rolled_back = false;
                    break;
                }
            }
            if !rolled_back {
                continue;
            }

            self.entries_buf.clear();
            self.entries_buf.extend(
                self.undo_buf
                    .iter()
                    .filter(|r| r.persistent)
                    .map(|r| (r.addr, r.old_value)),
            );
            let log_ts = engine.timestamp();
            let info = match undo_log.append_sequence(&mut txn, &self.entries_buf, log_ts) {
                Ok(info) => info,
                Err(_) => continue,
            };
            // `commit` consumes the transaction: by the time it returns,
            // the HwTxn has been dropped and the thread's descriptor is
            // back in the runtime pool, so the maintenance below (which
            // begins refresh transactions on this tid) reuses it rather
            // than taking the nested-begin allocation path.
            let log_commit_version = match txn.commit() {
                Ok(wv) => wv,
                Err(_) => continue,
            };

            let flushed_lines =
                undo_log.flush_entries(&engine.mem, self.tid, info.first_abs, info.marker_abs);
            engine
                .recorder
                .record_flushed_lines(self.tid, flushed_lines);
            engine.note_sequence(self.tid, log_ts);
            trace::record(
                self.tid,
                TraceEventKind::UndoAppend,
                self.entries_buf.len() as u64,
            );

            // Section 5.2 housekeeping: this append crossed into the other
            // half of the circular log, so the thread is about to start
            // overwriting previous-lap entries. Every other thread must log
            // a sequence at least as recent as this one before that happens,
            // so that the recovery cutoff can never fall back onto entries
            // that get discarded. The MAX_LAG bound is re-established at the
            // same point.
            let crossed = undo_log.crosses_half(info.first_abs, self.entries_buf.len() as u64 + 1);
            let lag_exceeded = engine.clock.current().raw()
                >= engine
                    .ts_lower_bound
                    .load(std::sync::atomic::Ordering::Acquire)
                    .saturating_add(engine.cfg.max_lag);
            if crossed || lag_exceeded {
                engine.maintain_ts_lower_bound(self.tid, log_ts.raw());
            }

            return LogOutcome::Logged(LoggedSeq {
                persistent_writes: self.entries_buf.len() as u64,
                marker_abs: info.marker_abs,
                log_commit_version,
            });
        }
        LogOutcome::Aborted
    }

    /// The Redo phase (Algorithm 2, thread-safe variant): check that no
    /// other thread committed writes since this transaction's Log phase,
    /// then perform the logged writes, advance `gLastRedoTS`, and turn the
    /// LOGGED marker into COMMITTED — all inside one hardware transaction.
    ///
    /// The paper's check compares RDTSC values: `gLastRedoTS` holds the
    /// timestamp of the last committed writer and must still be below this
    /// transaction's LOGGED timestamp. That is sound on real RTM, where
    /// conflicting transactions cannot overlap. Under the simulated
    /// (commit-time-validated) HTM a transaction can publish *after*
    /// another transaction's Log phase committed while carrying an earlier
    /// pre-drawn timestamp, so the same comparison is performed on
    /// hardware-transaction *commit versions* instead, which are assigned
    /// at the commit point and therefore ordered consistently with
    /// visibility.
    fn redo_phase(&mut self, seq: &LoggedSeq, hw_attempts: &mut u32) -> CommitOutcome {
        let engine = self.engine;
        let undo_log = engine.threads[self.tid].undo_log;
        for _ in 0..=engine.cfg.htm_retries_per_phase {
            *hw_attempts += 1;
            let mut txn = engine.htm.begin(self.tid);
            if engine.cfg.fallback == FallbackPolicy::Sgl {
                match txn.read(engine.sgl_addr) {
                    Ok(0) => {}
                    Ok(_) => {
                        txn.abort_explicit(ABORT_SGL_HELD);
                        return CommitOutcome::Failed;
                    }
                    Err(_) => continue,
                }
            }
            let g_last = match txn.read(engine.g_last_redo_ts_addr) {
                Ok(v) => v,
                Err(_) => continue,
            };
            if g_last >= seq.log_commit_version {
                // Conservative conflict check failed: some thread committed
                // writes after our Log phase. Necessary but not sufficient
                // for a real conflict — the Validate phase decides.
                txn.abort_explicit(ABORT_REDO_TS_CHECK);
                return CommitOutcome::Failed;
            }
            let foreign_append = match self.touch_log_head(&mut txn, seq) {
                Ok(v) => v,
                Err(()) => continue,
            };
            let commit_ts = engine.timestamp();
            let mut ok = true;
            for &(addr, value) in self.redo_buf.iter().rev() {
                if txn.write(addr, value).is_err() {
                    ok = false;
                    break;
                }
            }
            if !ok {
                continue;
            }
            if txn
                .publish_commit_version(engine.g_last_redo_ts_addr)
                .is_err()
            {
                continue;
            }
            if undo_log
                .commit_marker_txn(&mut txn, seq.marker_abs, seq.persistent_writes, commit_ts)
                .is_err()
            {
                continue;
            }
            if self.flush_writes_on_commit(&mut txn, seq).is_err() {
                continue;
            }
            if txn.commit().is_err() {
                continue;
            }
            self.after_commit(foreign_append);
            engine.note_sequence(self.tid, commit_ts);
            trace::record(
                self.tid,
                TraceEventKind::RedoApply,
                self.redo_buf.len() as u64,
            );
            return CommitOutcome::Committed;
        }
        CommitOutcome::Failed
    }

    /// The Validate phase (Algorithm 3): re-execute the body, checking each
    /// persistent write against the undo log entry persisted by the Log
    /// phase; any mismatch means another thread committed conflicting
    /// writes in between, so the whole transaction restarts from the Log
    /// phase.
    fn validate_phase(
        &mut self,
        body: &mut TxnBody<'_>,
        seq: &LoggedSeq,
        hw_attempts: &mut u32,
    ) -> CommitOutcome {
        let engine = self.engine;
        let undo_log = engine.threads[self.tid].undo_log;
        // The expected `<addr, oldValue>` pairs are exactly the persistent
        // entries the Log phase left in `entries_buf` (untouched since).
        for _ in 0..=engine.cfg.htm_retries_per_phase {
            *hw_attempts += 1;
            let mut txn = engine.htm.begin(self.tid);
            if engine.cfg.fallback == FallbackPolicy::Sgl {
                match txn.read(engine.sgl_addr) {
                    Ok(0) => {}
                    Ok(_) => {
                        txn.abort_explicit(ABORT_SGL_HELD);
                        return CommitOutcome::Failed;
                    }
                    Err(_) => continue,
                }
            }
            self.alloc_log.start_replay();
            let (body_result, consumed, mismatch) = {
                let mut ctx = ValidateCtx {
                    txn: &mut txn,
                    mem: &engine.mem,
                    expected: &self.entries_buf,
                    next: 0,
                    mismatch: false,
                    alloc_log: &mut self.alloc_log,
                };
                let r = body(&mut ctx);
                (r, ctx.next, ctx.mismatch)
            };
            if mismatch {
                return CommitOutcome::Failed;
            }
            if body_result.is_err() {
                continue;
            }
            if consumed != self.entries_buf.len() {
                // Fewer writes than log entries: the control flow diverged,
                // so the persisted undo log no longer matches (Algorithm 3
                // line 8 checks the next entry is the LOGGED marker).
                txn.abort_explicit(ABORT_VALIDATE_MISMATCH);
                return CommitOutcome::Failed;
            }
            let foreign_append = match self.touch_log_head(&mut txn, seq) {
                Ok(v) => v,
                Err(()) => continue,
            };
            let commit_ts = engine.timestamp();
            if txn
                .publish_commit_version(engine.g_last_redo_ts_addr)
                .is_err()
            {
                continue;
            }
            if undo_log
                .commit_marker_txn(&mut txn, seq.marker_abs, seq.persistent_writes, commit_ts)
                .is_err()
            {
                continue;
            }
            if self.flush_writes_on_commit(&mut txn, seq).is_err() {
                continue;
            }
            if txn.commit().is_err() {
                continue;
            }
            self.after_commit(foreign_append);
            engine.note_sequence(self.tid, commit_ts);
            return CommitOutcome::Committed;
        }
        CommitOutcome::Failed
    }

    /// Reads the thread's own log head inside the committing transaction
    /// and writes it back unchanged. This (a) detects whether another
    /// thread appended a refresh sequence to this log since the Log phase
    /// (Section 5.2 forcing), which means this sequence will no longer be
    /// the log's latest and its writes must be drained eagerly, and (b)
    /// orders such refresh appends with this commit so the forcing thread's
    /// subsequent drain covers the flushes enqueued here.
    fn touch_log_head(&self, txn: &mut crafty_htm::HwTxn<'_>, seq: &LoggedSeq) -> Result<bool, ()> {
        let engine = self.engine;
        let head_addr = engine.threads[self.tid].undo_log.head_addr();
        let head = txn.read(head_addr).map_err(|_| ())?;
        txn.write(head_addr, head).map_err(|_| ())?;
        Ok(head != seq.marker_abs + 1)
    }

    /// Requests CLWBs (no drain) for every persistent address the
    /// transaction wrote plus its marker entry, enqueued atomically with
    /// the commit. The next hardware transaction this thread starts
    /// completes the persist, and recovery always rolls back the thread's
    /// latest sequence in case these write-backs had not finished
    /// (Section 4.2).
    fn flush_writes_on_commit(
        &self,
        txn: &mut crafty_htm::HwTxn<'_>,
        seq: &LoggedSeq,
    ) -> Result<(), ()> {
        let engine = self.engine;
        for rec in &self.undo_buf {
            if rec.persistent {
                txn.flush_on_commit(rec.addr).map_err(|_| ())?;
            }
        }
        let marker_addr = engine.threads[self.tid]
            .undo_log
            .geometry()
            .slot_addr(seq.marker_abs);
        txn.flush_on_commit(marker_addr).map_err(|_| ())?;
        Ok(())
    }

    /// Post-commit handling: if another thread appended to this thread's
    /// log while the transaction was in flight, this sequence is no longer
    /// the latest one (the one recovery rolls back), so its writes must be
    /// made durable immediately.
    fn after_commit(&self, foreign_append: bool) {
        if foreign_append {
            self.engine.mem.drain(self.tid);
            self.engine.recorder.record_drain(self.tid);
        }
    }

    // ------------------------------------------------------------------
    // Software fallbacks and thread-unsafe mode (Figure 4)
    // ------------------------------------------------------------------

    /// Dispatches to the configured software fallback once the hardware
    /// phases have exhausted their restart budget (or immediately, under
    /// `force_fallback`).
    fn execute_fallback(&mut self, body: &mut TxnBody<'_>, hw_attempts: &mut u32) -> TxnReport {
        match self.engine.cfg.fallback {
            FallbackPolicy::Sgl => self.execute_sgl(body, hw_attempts),
            FallbackPolicy::PerLine => self.execute_per_line(body, hw_attempts),
        }
    }

    /// Per-line locking fallback: run the body against a snapshot with
    /// versioned reads and buffered writes, lock exactly the write-set
    /// lines (sorted order), bump `gLastRedoTS`, validate the read set,
    /// persist the undo log, publish, and release at a fresh commit
    /// version. No global lock is taken and nothing system-wide is
    /// serialized: two fallbacks with disjoint footprints run fully in
    /// parallel, and hardware transactions abort only if they actually
    /// touched one of the locked lines.
    ///
    /// The `gLastRedoTS` bump sits *after* lock acquisition and *before*
    /// read validation, and this ordering is load-bearing. A concurrent
    /// Redo phase never re-reads its body's lines — the `gLastRedoTS`
    /// check is its only conflict test — so the fallback must guarantee:
    /// any Log phase that committed before the fallback's locks were all
    /// held has a commit version below the bump (its Redo then fails the
    /// check), and any Log phase committing after sees the fallback's
    /// lock bits on every line it shares (its commit-time validation
    /// aborts). A Redo that read `gLastRedoTS` before the bump and
    /// commits after is aborted by its subscription to the bumped line.
    ///
    /// Durability ordering is the same as every other path: undo entries
    /// appended, flushed, and **drained** strictly before the first
    /// in-place write — here the whole sequence happens inside the
    /// lock-hold window, which is why the fault clock ticks at each lock
    /// transition (crash points land inside the window).
    fn execute_per_line(&mut self, body: &mut TxnBody<'_>, hw_attempts: &mut u32) -> TxnReport {
        let engine = self.engine;
        let undo_log = engine.threads[self.tid].undo_log;
        // Entering the fallback is a taxonomy event regardless of which
        // fallback it is: the phase machinery gave up.
        engine
            .recorder
            .record_abort_cause(self.tid, AbortCause::SglFallback);
        trace::record(
            self.tid,
            TraceEventKind::Abort,
            AbortCause::SglFallback.index() as u64,
        );
        let fb_t0 = trace::phase_start();
        let mut body_failures = 0u32;
        let report = loop {
            self.alloc_log.release_allocations(&engine.allocator);
            let mut fb = engine.htm.begin_fallback(self.tid);
            let conflicted = {
                let mut ctx = FallbackCtx {
                    fb: &mut fb,
                    allocator: &engine.allocator,
                    alloc_log: &mut self.alloc_log,
                    conflicted: false,
                };
                match body(&mut ctx) {
                    Ok(()) => None,
                    Err(_) => Some(ctx.conflicted),
                }
            };
            if let Some(conflicted) = conflicted {
                drop(fb);
                if !conflicted {
                    // A body failure that was not a snapshot conflict is the
                    // program refusing to commit; mirror the SGL path's
                    // bounded patience instead of spinning forever.
                    body_failures += 1;
                    assert!(
                        body_failures < 16,
                        "transaction body kept aborting in the per-line fallback; bodies must eventually succeed when run in isolation"
                    );
                }
                // Conflicts mean another transaction committed or holds a
                // lock — system-wide progress exists; yield and retry with
                // a fresh snapshot.
                std::thread::yield_now();
                continue;
            }
            if !fb.has_writes()
                && self.alloc_log.allocations() == 0
                && self.alloc_log.deferred_frees() == 0
            {
                // Read-only: every value handed to the body was consistent
                // at the begin snapshot; nothing to lock or persist.
                self.alloc_log.clear();
                engine
                    .recorder
                    .record_completion(self.tid, CompletionPath::ReadOnly);
                break TxnReport::new(CompletionPath::ReadOnly, *hw_attempts);
            }

            fb.lock_write_set();
            engine
                .htm
                .nontx_bump_commit_version(engine.g_last_redo_ts_addr);
            if fb.validate_reads().is_err() {
                drop(fb);
                std::thread::yield_now();
                continue;
            }

            // Undo entries: the pre-publish values of the persistent
            // write-set words, read under the held locks.
            self.persistent_addrs_buf.clear();
            self.persistent_addrs_buf
                .extend(fb.written_words().filter(|a| engine.mem.is_persistent(*a)));
            self.entries_buf.clear();
            self.entries_buf.extend(
                self.persistent_addrs_buf
                    .iter()
                    .map(|a| (*a, fb.read_locked(*a))),
            );
            let log_ts = engine.timestamp();
            let info = undo_log.append_sequence_nontx(
                &engine.htm,
                &self.entries_buf,
                MarkerKind::Logged,
                log_ts,
            );
            undo_log.flush_entries(&engine.mem, self.tid, info.first_abs, info.marker_abs);
            engine.mem.drain(self.tid);
            engine.recorder.record_drain(self.tid);
            trace::record(
                self.tid,
                TraceEventKind::UndoAppend,
                self.entries_buf.len() as u64,
            );
            if undo_log.crosses_half(info.first_abs, self.entries_buf.len() as u64 + 1) {
                engine.maintain_ts_lower_bound(self.tid, log_ts.raw());
            }

            fb.publish();
            for addr in &self.persistent_addrs_buf {
                engine.mem.clwb(self.tid, *addr);
            }
            let commit_ts = engine.timestamp();
            undo_log.commit_marker_nontx(
                &engine.htm,
                info.marker_abs,
                info.data_entries,
                commit_ts,
            );
            undo_log.flush_marker(&engine.mem, self.tid, info.marker_abs);
            if !self.deferred_mode {
                engine.mem.drain(self.tid);
                engine.recorder.record_drain(self.tid);
            }
            fb.commit_release();
            drop(fb);
            engine.note_sequence(self.tid, commit_ts);

            self.alloc_log.apply_frees(&engine.allocator);
            engine
                .recorder
                .record_persistent_writes(self.tid, self.entries_buf.len() as u64);
            engine
                .recorder
                .record_completion(self.tid, CompletionPath::Sgl);
            break TxnReport::new(CompletionPath::Sgl, *hw_attempts);
        };
        if let Some(t0) = fb_t0 {
            engine
                .recorder
                .record_phase_cycles(self.tid, TxnPhase::Sgl, trace::phase_elapsed(t0));
        }
        report
    }

    fn execute_sgl(&mut self, body: &mut TxnBody<'_>, hw_attempts: &mut u32) -> TxnReport {
        let engine = self.engine;
        // Entering the fallback is itself a taxonomy entry: the phase
        // machinery gave up, which is the signal an adaptive mode switcher
        // would act on.
        engine
            .recorder
            .record_abort_cause(self.tid, AbortCause::SglFallback);
        trace::record(
            self.tid,
            TraceEventKind::Abort,
            AbortCause::SglFallback.index() as u64,
        );
        let sgl_t0 = trace::phase_start();
        let sgl = engine.acquire_sgl();
        let report = self.run_buffered_durable(body, CompletionPath::Sgl, hw_attempts, true);
        drop(sgl);
        if let Some(t0) = sgl_t0 {
            engine
                .recorder
                .record_phase_cycles(self.tid, TxnPhase::Sgl, trace::phase_elapsed(t0));
        }
        report
    }

    fn execute_thread_unsafe(&mut self, body: &mut TxnBody<'_>) -> TxnReport {
        let engine = self.engine;
        let mut hw_attempts = 0u32;
        match self.log_phase(body, &mut hw_attempts) {
            LogOutcome::ReadOnly => {
                self.alloc_log.clear();
                engine
                    .recorder
                    .record_completion(self.tid, CompletionPath::ReadOnly);
                TxnReport::new(CompletionPath::ReadOnly, hw_attempts)
            }
            LogOutcome::Logged(seq) => {
                // Thread-unsafe Redo: no other thread can move gLastRedoTS,
                // so the phase always succeeds and needs no hardware
                // transaction (Section 4.4). Ensure the undo entries are
                // durable before performing the in-place writes.
                engine.mem.drain(self.tid);
                engine.recorder.record_drain(self.tid);
                let undo_log = engine.threads[self.tid].undo_log;
                for &(addr, value) in self.redo_buf.iter().rev() {
                    engine.htm.nontx_write(addr, value);
                }
                for rec in &self.undo_buf {
                    if rec.persistent {
                        engine.mem.clwb(self.tid, rec.addr);
                    }
                }
                let commit_ts = engine.timestamp();
                undo_log.commit_marker_nontx(
                    &engine.htm,
                    seq.marker_abs,
                    seq.persistent_writes,
                    commit_ts,
                );
                undo_log.flush_marker(&engine.mem, self.tid, seq.marker_abs);
                // Outside hardware transactions there is no later fence to
                // piggyback on, so complete the write-backs here — unless
                // the transaction is durability-deferred, in which case the
                // group's shared drain barrier covers them.
                if !self.deferred_mode {
                    engine.mem.drain(self.tid);
                    engine.recorder.record_drain(self.tid);
                }
                engine.note_sequence(self.tid, commit_ts);
                trace::record(
                    self.tid,
                    TraceEventKind::RedoApply,
                    self.redo_buf.len() as u64,
                );
                self.finish(CompletionPath::Redo, &seq, hw_attempts)
            }
            LogOutcome::Aborted => {
                // HTM keeps failing (capacity, spurious aborts): fall back
                // to the non-speculative durable path.
                self.run_buffered_durable(body, CompletionPath::Sgl, &mut hw_attempts, false)
            }
        }
    }

    /// Durable execution without hardware transactions: buffer the body's
    /// writes, persist the undo log (old values) with a single drain, then
    /// perform and flush the writes. Used inside SGL sections and as the
    /// final fallback of thread-unsafe mode, where atomicity is already
    /// guaranteed by the lock / the program.
    fn run_buffered_durable(
        &mut self,
        body: &mut TxnBody<'_>,
        path: CompletionPath,
        hw_attempts: &mut u32,
        bump_global_ts: bool,
    ) -> TxnReport {
        let engine = self.engine;
        let undo_log = engine.threads[self.tid].undo_log;
        for _ in 0..16 {
            self.alloc_log.release_allocations(&engine.allocator);
            self.buffered_vals.clear();
            self.buffered_order.clear();
            {
                let mut ctx = BufferedCtx {
                    htm: &engine.htm,
                    mem: &engine.mem,
                    allocator: &engine.allocator,
                    alloc_log: &mut self.alloc_log,
                    buffer: &mut self.buffered_vals,
                    order: &mut self.buffered_order,
                };
                if body(&mut ctx).is_err() {
                    continue;
                }
            }
            if self.buffered_order.is_empty()
                && self.alloc_log.allocations() == 0
                && self.alloc_log.deferred_frees() == 0
            {
                engine
                    .recorder
                    .record_completion(self.tid, CompletionPath::ReadOnly);
                return TxnReport::new(CompletionPath::ReadOnly, *hw_attempts);
            }

            self.persistent_addrs_buf.clear();
            self.persistent_addrs_buf.extend(
                self.buffered_order
                    .iter()
                    .copied()
                    .filter(|a| engine.mem.is_persistent(*a)),
            );
            self.entries_buf.clear();
            self.entries_buf.extend(
                self.persistent_addrs_buf
                    .iter()
                    .map(|a| (*a, engine.htm.nontx_read(*a))),
            );
            let log_ts = engine.timestamp();
            let info = undo_log.append_sequence_nontx(
                &engine.htm,
                &self.entries_buf,
                MarkerKind::Logged,
                log_ts,
            );
            undo_log.flush_entries(&engine.mem, self.tid, info.first_abs, info.marker_abs);
            engine.mem.drain(self.tid);
            engine.recorder.record_drain(self.tid);
            trace::record(
                self.tid,
                TraceEventKind::UndoAppend,
                self.entries_buf.len() as u64,
            );
            if undo_log.crosses_half(info.first_abs, self.entries_buf.len() as u64 + 1) {
                engine.maintain_ts_lower_bound(self.tid, log_ts.raw());
            }

            for addr in &self.buffered_order {
                let value = self
                    .buffered_vals
                    .get(addr.word())
                    .expect("buffered write present");
                engine.htm.nontx_write(*addr, value);
            }
            for addr in &self.persistent_addrs_buf {
                engine.mem.clwb(self.tid, *addr);
            }
            let commit_ts = engine.timestamp();
            if bump_global_ts {
                // Publish a fresh commit-order version so that concurrent
                // threads' Redo checks observe that writes were committed
                // while the lock was held.
                let version = engine.htm.nontx_commit_version();
                engine.htm.nontx_write(engine.g_last_redo_ts_addr, version);
            }
            undo_log.commit_marker_nontx(
                &engine.htm,
                info.marker_abs,
                info.data_entries,
                commit_ts,
            );
            undo_log.flush_marker(&engine.mem, self.tid, info.marker_abs);
            // Outside hardware transactions there is no later fence to
            // piggyback on, so complete the write-backs before returning —
            // unless durability is deferred to the group's shared drain.
            if !self.deferred_mode {
                engine.mem.drain(self.tid);
                engine.recorder.record_drain(self.tid);
            }
            engine.note_sequence(self.tid, commit_ts);

            self.alloc_log.apply_frees(&engine.allocator);
            engine
                .recorder
                .record_persistent_writes(self.tid, self.entries_buf.len() as u64);
            engine.recorder.record_completion(self.tid, path);
            return TxnReport::new(path, *hw_attempts);
        }
        panic!("transaction body kept aborting outside hardware transactions; bodies must eventually succeed when run in isolation");
    }
}

impl TmThread for CraftyThread<'_> {
    fn execute(&mut self, body: &mut TxnBody<'_>) -> TxnReport {
        match self.engine.cfg.mode {
            ThreadingMode::ThreadSafe => self.execute_thread_safe(body),
            ThreadingMode::ThreadUnsafe => self.execute_thread_unsafe(body),
        }
    }

    fn execute_deferred(&mut self, body: &mut TxnBody<'_>) -> TxnReport {
        // Group commit: run the transaction with the begin/commit SFENCE
        // drains relaxed. The transaction still logs, persists its undo
        // entries before any in-place write (the pre-Redo drain is
        // unconditional), and marks COMMITTED; only the drain that would
        // ack *durability* is left to the shared barrier. The flag must
        // not survive a panicking body (a caller catching the unwind and
        // reusing the handle would silently keep deferring), so the reset
        // sits on the unwind path too.
        self.deferred_mode = true;
        let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.execute(body)));
        self.deferred_mode = false;
        match report {
            Ok(report) => report,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }

    fn flush_deferred(&mut self) {
        // The shared drain barrier: one drain of this thread's queue covers
        // every deferred transaction's data write-backs and COMMITTED
        // markers — all were enqueued atomically with their commits.
        if self.engine.mem.pending_flushes(self.tid) > 0 {
            let t0 = trace::phase_start();
            self.engine.mem.drain(self.tid);
            self.engine.recorder.record_drain(self.tid);
            if let Some(t0) = t0 {
                self.engine.recorder.record_phase_cycles(
                    self.tid,
                    TxnPhase::Drain,
                    trace::phase_elapsed(t0),
                );
            }
        }
    }
}

// ----------------------------------------------------------------------
// TxnOps contexts for the three execution flavours
// ----------------------------------------------------------------------

/// Log-phase context: performs writes in place (inside the hardware
/// transaction) while recording old values for the undo log.
struct LogCtx<'a, 'rt> {
    txn: &'a mut HwTxn<'rt>,
    mem: &'a MemorySpace,
    allocator: &'a PmemAllocator,
    alloc_log: &'a mut AllocLog,
    /// Borrowed from [`CraftyThread::undo_buf`] so the record storage is
    /// reused across transactions.
    undo: &'a mut Vec<UndoRecord>,
}

impl TxnOps for LogCtx<'_, '_> {
    fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
        self.txn.read(addr).map_err(|_| TxAbort::hardware())
    }

    fn write(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
        let old_value = self.txn.read(addr).map_err(|_| TxAbort::hardware())?;
        self.undo.push(UndoRecord {
            addr,
            old_value,
            persistent: self.mem.is_persistent(addr),
        });
        self.txn.write(addr, value).map_err(|_| TxAbort::hardware())
    }

    fn alloc(&mut self, words: u64) -> Result<PAddr, TxAbort> {
        let addr = self
            .allocator
            .alloc(words)
            .expect("persistent heap exhausted; increase CraftyConfig::heap_words");
        self.alloc_log.record_alloc(addr, words);
        Ok(addr)
    }

    fn dealloc(&mut self, addr: PAddr, words: u64) -> Result<(), TxAbort> {
        self.alloc_log.record_free(addr, words);
        Ok(())
    }
}

/// Validate-phase context: re-executes the body, checking each persistent
/// write against the corresponding persisted undo entry (address and old
/// value) before performing it.
struct ValidateCtx<'a, 'rt> {
    txn: &'a mut HwTxn<'rt>,
    mem: &'a MemorySpace,
    expected: &'a [(PAddr, u64)],
    next: usize,
    mismatch: bool,
    alloc_log: &'a mut AllocLog,
}

impl ValidateCtx<'_, '_> {
    fn fail_validation(&mut self) -> TxAbort {
        self.mismatch = true;
        self.txn.abort_explicit(ABORT_VALIDATE_MISMATCH);
        TxAbort::inconsistent()
    }
}

impl TxnOps for ValidateCtx<'_, '_> {
    fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
        self.txn.read(addr).map_err(|_| TxAbort::hardware())
    }

    fn write(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
        if self.mem.is_persistent(addr) {
            let Some(&(expected_addr, expected_value)) = self.expected.get(self.next) else {
                return Err(self.fail_validation());
            };
            let current = self.txn.read(addr).map_err(|_| TxAbort::hardware())?;
            if addr != expected_addr || current != expected_value {
                return Err(self.fail_validation());
            }
            self.next += 1;
        }
        self.txn.write(addr, value).map_err(|_| TxAbort::hardware())
    }

    fn alloc(&mut self, words: u64) -> Result<PAddr, TxAbort> {
        match self.alloc_log.replay_alloc(words) {
            Some(addr) => Ok(addr),
            None => Err(self.fail_validation()),
        }
    }

    fn dealloc(&mut self, _addr: PAddr, _words: u64) -> Result<(), TxAbort> {
        // The frees were already recorded during the Log phase; performing
        // them is deferred to commit either way (Section 6).
        Ok(())
    }
}

/// Per-line fallback context: reads are snapshot-consistent versioned
/// reads through the [`FallbackTxn`], writes stay buffered in the fallback
/// descriptor until the undo log has been persisted under the held line
/// locks.
struct FallbackCtx<'a, 'rt> {
    fb: &'a mut FallbackTxn<'rt>,
    allocator: &'a PmemAllocator,
    alloc_log: &'a mut AllocLog,
    /// Set when a read lost a version race: the body's failure is then a
    /// snapshot conflict (retried without limit — some other transaction
    /// made progress), not a program abort (bounded patience).
    conflicted: bool,
}

impl TxnOps for FallbackCtx<'_, '_> {
    fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
        match self.fb.read(addr) {
            Ok(v) => Ok(v),
            Err(_) => {
                self.conflicted = true;
                Err(TxAbort::hardware())
            }
        }
    }

    fn write(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
        self.fb.write(addr, value);
        Ok(())
    }

    fn alloc(&mut self, words: u64) -> Result<PAddr, TxAbort> {
        let addr = self
            .allocator
            .alloc(words)
            .expect("persistent heap exhausted; increase CraftyConfig::heap_words");
        self.alloc_log.record_alloc(addr, words);
        Ok(addr)
    }

    fn dealloc(&mut self, addr: PAddr, words: u64) -> Result<(), TxAbort> {
        self.alloc_log.record_free(addr, words);
        Ok(())
    }
}

/// Buffered durable context (SGL sections and the thread-unsafe fallback):
/// reads come from the buffer or memory, writes stay in the buffer until
/// the undo log has been persisted.
struct BufferedCtx<'a> {
    htm: &'a crafty_htm::HtmRuntime,
    mem: &'a MemorySpace,
    allocator: &'a PmemAllocator,
    alloc_log: &'a mut AllocLog,
    /// Borrowed from [`CraftyThread::buffered_vals`] /
    /// [`CraftyThread::buffered_order`] so the buffers are reused across
    /// transactions.
    buffer: &'a mut GenMap,
    order: &'a mut Vec<PAddr>,
}

impl TxnOps for BufferedCtx<'_> {
    fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
        if let Some(v) = self.buffer.get(addr.word()) {
            return Ok(v);
        }
        Ok(self.htm.nontx_read(addr))
    }

    fn write(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
        if self.buffer.insert(addr.word(), value).is_none() {
            self.order.push(addr);
        }
        let _ = self.mem; // the buffer is volatile; nothing touches memory here
        Ok(())
    }

    fn alloc(&mut self, words: u64) -> Result<PAddr, TxAbort> {
        let addr = self
            .allocator
            .alloc(words)
            .expect("persistent heap exhausted; increase CraftyConfig::heap_words");
        self.alloc_log.record_alloc(addr, words);
        Ok(addr)
    }

    fn dealloc(&mut self, addr: PAddr, words: u64) -> Result<(), TxAbort> {
        self.alloc_log.record_free(addr, words);
        Ok(())
    }
}
