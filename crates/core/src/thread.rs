//! Per-thread execution of persistent transactions: one commit pipeline —
//! buffer the body's writes, make their undo entries durable, publish in
//! place, stamp the sequence's marker with the commit time — parameterised
//! by who keeps other threads out meanwhile.
//!
//! The control flow follows Figures 3 and 4 of the paper:
//!
//! * **Thread-safe mode** — run the Log phase (nondestructive undo logging)
//!   in a hardware transaction, flush the undo entries, then try to commit
//!   the program's writes with the Redo phase; if its conservative
//!   timestamp check fails, re-execute the body under the Validate phase;
//!   after repeated failures commit in software. The software commit locks
//!   exactly the transaction's write-set lines through the HTM's versioned
//!   line locks, so nothing system-wide is serialized and the hardware
//!   phases subscribe to no global word (where the paper's design has one
//!   global lock).
//! * **Thread-unsafe mode** — the program already provides atomicity, so
//!   the Redo phase runs unconditionally and Validate is never needed.
//!
//! Atomicity therefore comes from a hardware transaction (`log_phase`,
//! then `commit_phase` for Redo and Validate alike), from per-line locks,
//! or from the program. The last two share `software_commit`, generic over
//! a [`crafty_htm::Exclusion`] strategy.
//! Every route appends through the one undo-log writer, and everything
//! written outside a hardware transaction goes by the line. Every undo
//! append is followed by `after_undo_append`, and every commit outside a
//! hardware transaction ends in `stamp_committed`.
//!
//! One deliberate implementation difference from the paper: the software
//! commit buffers the body's writes instead of re-running chunked hardware
//! transactions. The guarantee (undo log persisted before any program
//! write reaches persistent memory) and the cost profile (two drains per
//! transaction — the one before `publish` that makes the undo entries
//! durable, and `stamp_committed`'s after the marker — the same 2.0
//! `drains_per_op` the hardware path shows) are the same, and so is the
//! ordering recovery relies on: a transaction's in-place writes are
//! durable before the thread's next undo sequence can be, because every
//! route drains (or begins a hardware transaction, whose SFENCE drains)
//! before it appends again. Only the mechanism differs, because
//! closure-based bodies cannot be resumed from a mid-transaction point the
//! way the paper's compiler-instrumented transactions can.

use std::sync::atomic::Ordering;

use crafty_common::trace::{self, TraceEventKind, TxnPhase};
use crafty_common::{
    wait, CompletionPath, LineSlot, PAddr, Timestamp, TmThread, TxAbort, TxnBody, TxnOps,
};
use crafty_htm::{AbortCode, Exclusion, HwTxn};
use crafty_pmem::{MemorySpace, PmemAllocator};

use crate::alloc_log::AllocLog;
use crate::config::{CraftyVariant, ThreadingMode};
use crate::engine::{Crafty, ABORT_LOG_MOVED, ABORT_REDO_TS_CHECK, ABORT_VALIDATE_MISMATCH};
use crate::undo_log::AppendInfo;

/// How many times an individual hardware transaction is retried within one
/// phase attempt before the attempt counts as failed. Every configuration
/// has always run with this one value (PhTM\*'s `HTM_MAX_RETRIES` is the
/// same decision), so it is a constant rather than an option.
const HTM_RETRIES_PER_PHASE: u32 = 4;
/// How many times a thread-safe persistent transaction restarts its phases
/// before committing in software.
const MAX_PHASE_RESTARTS: u32 = 8;
/// How many times a software commit re-runs a body that fails for a reason
/// other than a snapshot conflict before concluding the program is broken.
const MAX_BODY_FAILURES: u32 = 16;

/// Metadata the Redo/Validate phases need about a logged transaction. The
/// bulk data — the redo image and the persistent entries — lives in
/// [`CraftyThread`]'s reusable buffers (`redo_buf`, `entries_buf`), filled
/// by the Log phase and read by the later phases, so no per-transaction
/// `Vec`s are allocated.
#[derive(Clone, Copy, Debug)]
struct LoggedSeq {
    marker_abs: u64,
    /// How many writes the body made (persistent or not, a word written
    /// twice counted twice): what the Redo phase stands for.
    writes: usize,
    /// The Log phase's hardware-transaction commit version: the point in
    /// the global commit order at which the undo log entries (and the
    /// values they captured) became current. The Redo phase's `gLastRedoTS`
    /// check compares against this (see `redo_check`).
    log_commit_version: u64,
    persistent_writes: u64,
}

enum LogOutcome {
    ReadOnly,
    Aborted,
    Logged(LoggedSeq),
}

/// Why a hardware commit attempt stopped short of committing.
enum Stop {
    /// The hardware transaction aborted; the phase retries within its
    /// budget.
    Retry,
    /// The phase's own check failed (`gLastRedoTS` moved, validation
    /// mismatch, a refresh appended behind the sequence): retrying the
    /// same phase cannot help.
    Fail,
}

impl From<AbortCode> for Stop {
    fn from(_: AbortCode) -> Self {
        Stop::Retry
    }
}

/// A worker thread's handle onto a [`Crafty`] engine.
///
/// Obtained from [`crafty_common::PersistentTm::register_thread`]; executes
/// persistent transactions via [`TmThread::execute`].
pub struct CraftyThread<'c> {
    engine: &'c Crafty,
    tid: usize,
    alloc_log: AllocLog,
    /// The redo log: the Log transaction's write buffer as it stood before
    /// roll-back, one entry per written line (persistent or volatile) with
    /// the final words and their mask. The Redo phase buffers it back by
    /// the line. Reused across transactions.
    redo_buf: Vec<LineSlot>,
    /// The sequence's `<addr, oldValue>` undo entries, one per persistent
    /// write in program order: what the Log phase or the software commit
    /// appends to the undo log, what the Validate phase checks re-executed
    /// writes against (the Log transaction and its journal are gone by
    /// then), and whose lines a commit outside a hardware transaction
    /// CLWBs. Reused across transactions.
    entries_buf: Vec<(PAddr, u64)>,
    /// `entries_buf` and its marker as encoded log words, between
    /// [`crate::undo_log::UndoLog::append_sequence`] encoding them and its
    /// store (hardware or not) taking them.
    log_words: Vec<u64>,
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
            alloc_log: AllocLog::new(),
            redo_buf: Vec::new(),
            entries_buf: Vec::new(),
            log_words: Vec::new(),
        }
    }

    /// The worker thread id this handle belongs to.
    pub fn tid(&self) -> usize {
        self.tid
    }

    fn drain(&self) {
        self.engine.mem.drain(self.tid);
    }

    // ------------------------------------------------------------------
    // Control flow (Figures 3 and 4)
    // ------------------------------------------------------------------

    fn execute_thread_safe(&mut self, body: &mut TxnBody<'_>) {
        let (cfg, rec, tid) = (&self.engine.cfg, &self.engine.recorder, self.tid);
        if cfg.force_fallback {
            return self.execute_software(body);
        }
        for _ in 0..=MAX_PHASE_RESTARTS {
            let seq = match rec.timed(tid, TxnPhase::Log, || self.log_phase(body)) {
                LogOutcome::ReadOnly => return self.finish_read_only(),
                LogOutcome::Aborted => continue,
                LogOutcome::Logged(seq) => seq,
            };
            if cfg.variant != CraftyVariant::NoRedo {
                if rec.timed(tid, TxnPhase::Redo, || self.commit_phase(&seq, None)) {
                    return self.finish(CompletionPath::Redo, seq.persistent_writes);
                }
                if cfg.variant == CraftyVariant::NoValidate {
                    continue;
                }
            }
            let validate = || self.commit_phase(&seq, Some(&mut *body));
            if rec.timed(tid, TxnPhase::Validate, validate) {
                return self.finish(CompletionPath::Validate, seq.persistent_writes);
            }
        }
        self.execute_software(body)
    }

    fn execute_thread_unsafe(&mut self, body: &mut TxnBody<'_>) {
        let (rec, tid) = (&self.engine.recorder, self.tid);
        match rec.timed(tid, TxnPhase::Log, || self.log_phase(body)) {
            LogOutcome::ReadOnly => self.finish_read_only(),
            LogOutcome::Logged(seq) => {
                rec.timed(tid, TxnPhase::Redo, || self.redo_thread_unsafe(&seq));
                self.finish(CompletionPath::Redo, seq.persistent_writes)
            }
            // HTM keeps failing (capacity, spurious aborts): commit in
            // software — the program already keeps other threads out.
            LogOutcome::Aborted => self.execute_software(body),
        }
    }

    /// The software entry step, once the hardware phases have exhausted
    /// their budget (or immediately, under `force_fallback`): runs the one
    /// software commit under per-line locks (thread-safe) or under the
    /// program's own exclusion (thread-unsafe). Cold: placed among the
    /// hardware phases it cost read-only transactions 2%.
    #[cold]
    #[inline(never)]
    fn execute_software(&mut self, body: &mut TxnBody<'_>) {
        let engine = self.engine;
        let (htm, rec, tid) = (&engine.htm, &engine.recorder, self.tid);
        // Entering the fallback is an event of its own, whichever mode
        // commits: the phase machinery gave up, which is the signal an
        // adaptive mode switcher would act on.
        trace::record(tid, TraceEventKind::Fallback, 0);
        rec.timed(tid, TxnPhase::Sgl, || match engine.cfg.mode {
            ThreadingMode::ThreadSafe => self.software_commit(body, || htm.begin_fallback(tid)),
            ThreadingMode::ThreadUnsafe => self.software_commit(body, || htm.begin_exclusive()),
        })
    }

    fn finish(&mut self, path: CompletionPath, persistent_writes: u64) {
        let engine = self.engine;
        self.alloc_log.apply_frees(&engine.allocator);
        engine
            .recorder
            .record_persistent_writes(self.tid, persistent_writes);
        engine.recorder.record_completion(self.tid, path);
    }

    /// Read-only transactions skip logging, persisting, and the commit
    /// phases entirely (Section 4.1).
    fn finish_read_only(&mut self) {
        self.alloc_log.clear();
        self.engine
            .recorder
            .record_completion(self.tid, CompletionPath::ReadOnly);
    }

    // ------------------------------------------------------------------
    // Atomicity from a hardware transaction: Log, then Redo or Validate
    // ------------------------------------------------------------------

    /// The Log phase (Algorithm 1): execute the body in a hardware
    /// transaction whose descriptor journals each write's old value; keep
    /// the write buffer as the redo log and roll every write back before
    /// committing; append the undo entries plus a marker to the
    /// persistent undo log; after the hardware transaction commits, flush
    /// the entries (no drain — the next hardware transaction's fence
    /// semantics complete the persist).
    ///
    /// The roll-back leaves the body's lines exactly as the transaction
    /// read them, so the commit is a reader's commit plus a log append:
    /// the data lines are validated, not locked, re-stored and
    /// re-versioned ([`HwTxn::roll_back`]'s demotion rule). The Log↔Redo
    /// conflict test is `gLastRedoTS` + Validate, never a Log–Log
    /// conflict on a line neither changed. What keeps that sound is that
    /// `log_commit_version` is drawn *before* those lines are validated
    /// ([`HwTxn::commit`]'s order): a Redo the validation did not see drew
    /// a larger version, so `redo_check` catches it.
    ///
    /// No hardware phase subscribes to a global word: a software commit
    /// announces itself through the lock words of exactly the lines it
    /// writes, and the phases' per-line reads already watch those.
    fn log_phase(&mut self, body: &mut TxnBody<'_>) -> LogOutcome {
        let engine = self.engine;
        let undo_log = engine.threads[self.tid].undo_log;
        for _ in 0..=HTM_RETRIES_PER_PHASE {
            // Allocations recorded by a previous failed attempt would leak;
            // hand them back before re-executing the body.
            self.alloc_log.release_allocations(&engine.allocator);
            // `begin`'s SFENCE drains the previous transaction's commit
            // write-backs before this sequence's undo entries can reach
            // the log: recovery rolls back only the latest sequence, so the
            // one before it must be whole in persistent memory.
            let mut txn = engine.htm.begin(self.tid);
            let mut ctx = Ctx {
                access: LogAccess { txn: &mut txn },
                allocator: &engine.allocator,
                alloc_log: &mut self.alloc_log,
            };
            if body(&mut ctx).is_err() {
                continue;
            }

            if txn.write_set_len() == 0 && self.alloc_log.is_empty() {
                match txn.commit() {
                    Ok(_) => return LogOutcome::ReadOnly,
                    Err(_) => continue,
                }
            }

            self.entries_buf.clear();
            self.entries_buf.extend(
                txn.exchanged()
                    .filter(|&(addr, _)| engine.mem.is_persistent(addr)),
            );
            let Ok(writes) = txn.roll_back(&mut self.redo_buf) else {
                continue;
            };
            let log_ts = engine.timestamp();
            let appended =
                undo_log.append_sequence(&mut txn, &self.entries_buf, log_ts, &mut self.log_words);
            let Ok(info) = appended else {
                continue;
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
            self.after_undo_append(&info, log_ts);
            return LogOutcome::Logged(LoggedSeq {
                persistent_writes: info.data_entries,
                marker_abs: info.marker_abs,
                writes,
                log_commit_version,
            });
        }
        LogOutcome::Aborted
    }

    /// The step after every undo append, hardware or software: request
    /// write-backs for the appended entries, note the sequence, and do the
    /// Section 5.2 housekeeping.
    #[inline]
    fn after_undo_append(&self, info: &AppendInfo, log_ts: Timestamp) {
        let engine = self.engine;
        let undo_log = engine.threads[self.tid].undo_log;
        undo_log.flush_entries(&engine.mem, self.tid, info.first_abs, info.marker_abs);
        engine.note_sequence(self.tid, log_ts);
        trace::record(self.tid, TraceEventKind::UndoAppend, info.data_entries);

        // Section 5.2 housekeeping: this append crossed into the other
        // half of the circular log, so the thread is about to start
        // overwriting previous-lap entries. Every other thread must log
        // a sequence at least as recent as this one before that happens,
        // so that the recovery cutoff can never fall back onto entries
        // that get discarded. The MAX_LAG bound is re-established at the
        // same point.
        let crossed = undo_log.crosses_half(info.first_abs, info.data_entries + 1);
        let lag_exceeded = engine.clock.current().raw()
            >= engine
                .ts_lower_bound
                .load(Ordering::Acquire)
                .saturating_add(engine.cfg.max_lag);
        if crossed || lag_exceeded {
            engine.maintain_ts_lower_bound(self.tid, log_ts.raw());
        }
    }

    /// Runs one hardware commit phase over a logged sequence — Redo
    /// (`body` is `None`) or Validate (re-executing `body`) — within the
    /// per-phase retry budget. Returns whether the transaction committed.
    ///
    /// Inlined (with `commit_attempt`) into its two call sites, so Redo and
    /// Validate each run a copy specialised for their `body`: one shared
    /// out-of-line copy costs every write transaction a few nanoseconds.
    #[inline(always)]
    fn commit_phase(&mut self, seq: &LoggedSeq, mut body: Option<&mut TxnBody<'_>>) -> bool {
        for _ in 0..=HTM_RETRIES_PER_PHASE {
            match self.commit_attempt(seq, body.as_deref_mut()) {
                Ok(()) => return true,
                Err(Stop::Fail) => return false,
                Err(Stop::Retry) => {}
            }
        }
        false
    }

    /// One hardware transaction of the Redo or Validate phase: the phase's
    /// own conflict check, then the commit tail both share.
    #[inline(always)]
    fn commit_attempt(
        &mut self,
        seq: &LoggedSeq,
        body: Option<&mut TxnBody<'_>>,
    ) -> Result<(), Stop> {
        let engine = self.engine;
        let mut txn = engine.htm.begin(self.tid);
        let redo = body.is_none();
        match body {
            None => self.redo_check(&mut txn, seq)?,
            Some(body) => self.revalidate(&mut txn, body)?,
        }

        self.touch_log_head(&mut txn, seq)?;
        let commit_ts = engine.timestamp();
        if redo {
            txn.write_lines(&self.redo_buf, seq.writes)?;
        }
        txn.publish_commit_version(engine.g_last_redo_ts_addr)?;
        engine.threads[self.tid]
            .undo_log
            .commit_marker(&mut txn, seq.marker_abs, commit_ts)?;
        // CLWBs (no drain) for every persistent line written — the undo
        // entries' lines plus the marker's — enqueued atomically with the
        // commit. The next hardware transaction this thread starts
        // completes the persist, and recovery always rolls back the
        // thread's latest sequence in case these write-backs had not
        // finished (Section 4.2).
        txn.flush_writes_on_commit()?;
        txn.commit()?;
        engine.note_sequence(self.tid, commit_ts);
        if redo {
            trace::record(self.tid, TraceEventKind::RedoApply, seq.writes as u64);
        }
        Ok(())
    }

    /// The Redo phase's check (Algorithm 2, thread-safe variant): no other
    /// thread may have committed writes since this transaction's Log
    /// phase. If so, the commit tail performs the logged writes, advances
    /// `gLastRedoTS`, and stamps the marker with the commit time — all
    /// inside this one hardware transaction.
    ///
    /// The paper's check compares RDTSC values: `gLastRedoTS` holds the
    /// timestamp of the last committed writer and must still be below this
    /// transaction's Log timestamp. That is sound on real RTM, where
    /// conflicting transactions cannot overlap. Under the simulated
    /// (commit-time-validated) HTM a transaction can publish *after*
    /// another transaction's Log phase committed while carrying an earlier
    /// pre-drawn timestamp, so the same comparison is performed on
    /// hardware-transaction *commit versions* instead, which are assigned
    /// at the commit point and therefore ordered consistently with
    /// visibility.
    fn redo_check(&self, txn: &mut HwTxn<'_>, seq: &LoggedSeq) -> Result<(), Stop> {
        if txn.read(self.engine.g_last_redo_ts_addr)? >= seq.log_commit_version {
            // Conservative conflict check failed: some thread committed
            // writes after our Log phase. Necessary but not sufficient
            // for a real conflict — the Validate phase decides.
            txn.abort_explicit(ABORT_REDO_TS_CHECK);
            return Err(Stop::Fail);
        }
        Ok(())
    }

    /// The Validate phase's check (Algorithm 3): re-execute the body,
    /// checking each persistent write against the undo log entry persisted
    /// by the Log phase (exactly the entries it left in `entries_buf`,
    /// untouched since); any mismatch means another thread committed
    /// conflicting writes in between, so the whole transaction restarts
    /// from the Log phase.
    fn revalidate(&mut self, txn: &mut HwTxn<'_>, body: &mut TxnBody<'_>) -> Result<(), Stop> {
        let engine = self.engine;
        self.alloc_log.start_replay();
        let mut ctx = Ctx {
            access: ValidateAccess {
                txn,
                mem: &engine.mem,
                expected: &self.entries_buf,
                next: 0,
                mismatch: false,
            },
            allocator: &engine.allocator,
            alloc_log: &mut self.alloc_log,
        };
        let body_result = body(&mut ctx);
        let access = ctx.access;
        if access.mismatch {
            return Err(Stop::Fail);
        }
        if body_result.is_err() {
            return Err(Stop::Retry);
        }
        if access.next != self.entries_buf.len() {
            // Fewer writes than log entries: the control flow diverged,
            // so the persisted undo log no longer matches (Algorithm 3
            // line 8 checks the next entry is the LOGGED marker).
            access.txn.abort_explicit(ABORT_VALIDATE_MISMATCH);
            return Err(Stop::Fail);
        }
        Ok(())
    }

    /// Reads the thread's own log head inside the committing transaction
    /// and writes it back unchanged. If another thread appended a refresh
    /// sequence to this log since the Log phase (Section 5.2 forcing),
    /// this sequence is no longer the log's latest — the one recovery
    /// rolls back — so its in-place writes must not happen: the attempt
    /// aborts with [`ABORT_LOG_MOVED`] and the phase fails, and the
    /// transaction re-logs behind the refresh. The write-back orders a
    /// refresh that read the head before this commit after it: that
    /// refresh's validation fails.
    fn touch_log_head(&self, txn: &mut HwTxn<'_>, seq: &LoggedSeq) -> Result<(), Stop> {
        let head_addr = self.engine.threads[self.tid].undo_log.head_addr();
        let head = txn.read(head_addr)?;
        if head != seq.marker_abs + 1 {
            txn.abort_explicit(ABORT_LOG_MOVED);
            return Err(Stop::Fail);
        }
        txn.write(head_addr, head)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Atomicity from line locks or the program (Figure 4)
    // ------------------------------------------------------------------

    /// Thread-unsafe Redo: no other thread can move `gLastRedoTS`, so the
    /// phase always succeeds and needs no hardware transaction
    /// (Section 4.4).
    fn redo_thread_unsafe(&mut self, seq: &LoggedSeq) {
        // The undo entries must be durable before the in-place writes.
        self.drain();
        self.engine.htm.nontx_write_lines(&self.redo_buf);
        self.stamp_committed(seq.marker_abs);
        trace::record(self.tid, TraceEventKind::RedoApply, seq.writes as u64);
    }

    /// The one software commit: run the body against buffered writes, let
    /// the exclusion strategy `X` keep other threads out of the write set,
    /// bump `gLastRedoTS`, validate the reads, persist the undo log,
    /// publish, stamp the marker, and release. Under
    /// [`crafty_htm::FallbackTxn`] that is the per-line fallback: versioned
    /// snapshot reads, exactly the write-set lines locked (sorted order),
    /// released at a fresh commit version — no global lock is taken and
    /// nothing system-wide is serialized: two fallbacks with disjoint
    /// footprints run fully in parallel, and hardware transactions abort
    /// only if they actually touched one of the locked lines. Under
    /// [`crafty_htm::ExclusiveTxn`] locking and validation are no-ops
    /// because the program serializes (thread-unsafe mode).
    ///
    /// The `gLastRedoTS` bump sits *after* lock acquisition and *before*
    /// read validation, and this ordering is load-bearing. A concurrent
    /// Redo phase never re-reads its body's lines — the `gLastRedoTS`
    /// check is its only conflict test — so the software commit must
    /// guarantee: any Log phase that *validated* before exclusion was
    /// complete drew its commit version before validating
    /// ([`HwTxn::commit`] locks, draws, then validates), hence below the
    /// bump (its Redo then fails the check), and any Log phase validating
    /// after sees the lock bits on every line it shares — its data lines
    /// are validated, not locked — and aborts. A Redo that read `gLastRedoTS` before the bump and
    /// commits after is aborted by its subscription to the bumped line.
    ///
    /// Durability ordering is the same as every other path: undo entries
    /// appended, flushed, and **drained** strictly before the first
    /// in-place write — under line locks the whole sequence happens inside
    /// the lock-hold window, which is why the fault clock ticks at each
    /// lock transition (crash points land inside the window).
    fn software_commit<X: Exclusion>(
        &mut self,
        body: &mut TxnBody<'_>,
        mut begin: impl FnMut() -> X,
    ) {
        let engine = self.engine;
        let undo_log = engine.threads[self.tid].undo_log;
        let mut body_failures = 0u32;
        loop {
            self.alloc_log.release_allocations(&engine.allocator);
            let mut x = begin();
            let mut ctx = Ctx {
                access: Buffered {
                    x: &mut x,
                    conflicted: false,
                },
                allocator: &engine.allocator,
                alloc_log: &mut self.alloc_log,
            };
            if body(&mut ctx).is_err() {
                // A failure that was not a snapshot conflict is the program
                // refusing to commit: bounded patience. Conflicts mean
                // another transaction committed or holds a lock —
                // system-wide progress exists; yield and retry with a
                // fresh snapshot.
                body_failures += u32::from(!ctx.access.conflicted);
                assert!(
                    body_failures < MAX_BODY_FAILURES,
                    "transaction body kept aborting in the software commit; bodies must eventually succeed when run in isolation"
                );
                wait::yield_now();
                continue;
            }
            if !x.has_writes() && self.alloc_log.is_empty() {
                // Every value handed to the body was consistent at the
                // begin snapshot; nothing to lock or persist.
                return self.finish_read_only();
            }

            x.lock_write_set();
            engine
                .htm
                .nontx_bump_commit_version(engine.g_last_redo_ts_addr);
            if x.validate_reads().is_err() {
                wait::yield_now();
                continue;
            }

            // Undo entries: the pre-publish values of the persistent
            // write-set words, read with exclusion complete.
            self.entries_buf.clear();
            self.entries_buf.extend(
                x.written_words()
                    .filter(|addr| engine.mem.is_persistent(*addr))
                    .map(|addr| (addr, x.read_locked(addr))),
            );
            let log_ts = engine.timestamp();
            let Ok(info) = undo_log.append_sequence(
                &engine.htm,
                &self.entries_buf,
                log_ts,
                &mut self.log_words,
            );
            self.after_undo_append(&info, log_ts);
            self.drain();

            x.publish();
            self.stamp_committed(info.marker_abs);
            x.commit_release();
            drop(x);
            return self.finish(CompletionPath::Sgl, info.data_entries);
        }
    }

    /// The tail of every commit published outside a hardware transaction:
    /// CLWB the lines of the persistent words written (the addresses of
    /// the sequence's undo entries, still in `entries_buf`) in one batch,
    /// stamp its marker with the commit timestamp, and flush it.
    fn stamp_committed(&self, marker_abs: u64) {
        let engine = self.engine;
        let undo_log = engine.threads[self.tid].undo_log;
        let lines = self.entries_buf.iter().map(|(addr, _)| addr.line());
        engine.mem.clwb_lines(self.tid, lines);
        let commit_ts = engine.timestamp();
        let Ok(()) = undo_log.commit_marker(&engine.htm, marker_abs, commit_ts);
        undo_log.flush_marker(&engine.mem, self.tid, marker_abs);
        // Outside hardware transactions there is no later fence to
        // piggyback on, so complete the write-backs here.
        self.drain();
        engine.note_sequence(self.tid, commit_ts);
    }
}

impl TmThread for CraftyThread<'_> {
    fn execute(&mut self, body: &mut TxnBody<'_>) {
        match self.engine.cfg.mode {
            ThreadingMode::ThreadSafe => self.execute_thread_safe(body),
            ThreadingMode::ThreadUnsafe => self.execute_thread_unsafe(body),
        }
    }
}

// ----------------------------------------------------------------------
// The transaction context: one `TxnOps`, generic over how loads and
// stores are served
// ----------------------------------------------------------------------

/// How a [`Ctx`] serves the body's loads and stores in one phase.
trait Access {
    fn load(&mut self, addr: PAddr) -> Result<u64, TxAbort>;
    /// [`Access::load`] of each of the `out.len()` words from `addr`.
    fn load_words(&mut self, addr: PAddr, out: &mut [u64]) -> Result<(), TxAbort> {
        for (i, word) in out.iter_mut().enumerate() {
            *word = self.load(addr.add(i as u64))?;
        }
        Ok(())
    }
    fn store(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort>;
    /// The re-executed body asked for an allocation the Log phase did not
    /// make (only possible while the allocation log replays).
    fn diverged(&mut self) -> TxAbort {
        TxAbort::inconsistent()
    }
}

/// What a transaction body runs against in every phase. Allocation is the
/// same everywhere — the [`AllocLog`] knows whether it is recording or
/// replaying — and the frees it logs are performed at commit (Section 6).
struct Ctx<'a, A> {
    access: A,
    allocator: &'a PmemAllocator,
    alloc_log: &'a mut AllocLog,
}

impl<A: Access> TxnOps for Ctx<'_, A> {
    fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
        self.access.load(addr)
    }

    fn read_words(&mut self, addr: PAddr, out: &mut [u64]) -> Result<(), TxAbort> {
        self.access.load_words(addr, out)
    }

    fn write(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
        self.access.store(addr, value)
    }

    fn alloc(&mut self, words: u64) -> Result<PAddr, TxAbort> {
        match self.alloc_log.alloc(self.allocator, words) {
            Some(addr) => Ok(addr),
            None => Err(self.access.diverged()),
        }
    }

    fn dealloc(&mut self, addr: PAddr, words: u64) -> Result<(), TxAbort> {
        self.alloc_log.free(addr, words);
        Ok(())
    }
}

/// Log phase: performs writes in place (inside the hardware transaction),
/// whose descriptor journals the old values for the undo log.
struct LogAccess<'a, 'rt> {
    txn: &'a mut HwTxn<'rt>,
}

impl Access for LogAccess<'_, '_> {
    fn load(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
        self.txn.read(addr).map_err(|_| TxAbort::hardware())
    }

    fn load_words(&mut self, addr: PAddr, out: &mut [u64]) -> Result<(), TxAbort> {
        self.txn
            .read_words(addr, out)
            .map_err(|_| TxAbort::hardware())
    }

    fn store(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
        let exchanged = self.txn.exchange(addr, value);
        exchanged.map(drop).map_err(|_| TxAbort::hardware())
    }
}

/// Validate phase: re-executes the body, checking each persistent write
/// against the corresponding persisted undo entry (address and old value)
/// before performing it.
struct ValidateAccess<'a, 'rt> {
    txn: &'a mut HwTxn<'rt>,
    mem: &'a MemorySpace,
    expected: &'a [(PAddr, u64)],
    next: usize,
    mismatch: bool,
}

impl Access for ValidateAccess<'_, '_> {
    fn load(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
        self.txn.read(addr).map_err(|_| TxAbort::hardware())
    }

    fn load_words(&mut self, addr: PAddr, out: &mut [u64]) -> Result<(), TxAbort> {
        self.txn
            .read_words(addr, out)
            .map_err(|_| TxAbort::hardware())
    }

    fn store(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
        if !self.mem.is_persistent(addr) {
            return self.txn.write(addr, value).map_err(|_| TxAbort::hardware());
        }
        match self.expected.get(self.next) {
            Some(&(expected_addr, expected_value)) if expected_addr == addr => {
                let exchanged = self.txn.exchange(addr, value);
                if exchanged.map_err(|_| TxAbort::hardware())? != expected_value {
                    return Err(self.diverged());
                }
                self.next += 1;
                Ok(())
            }
            _ => Err(self.diverged()),
        }
    }

    fn diverged(&mut self) -> TxAbort {
        self.mismatch = true;
        self.txn.abort_explicit(ABORT_VALIDATE_MISMATCH);
        TxAbort::inconsistent()
    }
}

/// Software commit: loads are served by the exclusion strategy (own
/// buffered writes first), stores stay buffered in it until the undo log
/// has been persisted.
struct Buffered<'a, X> {
    x: &'a mut X,
    /// Set when a load lost a version race: the body's failure is then a
    /// snapshot conflict (retried without limit — some other transaction
    /// made progress), not a program abort (bounded patience).
    conflicted: bool,
}

impl<X: Exclusion> Access for Buffered<'_, X> {
    fn load(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
        self.x.read(addr).map_err(|_| {
            self.conflicted = true;
            TxAbort::hardware()
        })
    }

    fn store(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
        self.x.write(addr, value);
        Ok(())
    }
}

#[cfg(test)]
mod tests;
