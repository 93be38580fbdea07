//! The Crafty engine: shared state, layout, and thread registration.
//!
//! A [`Crafty`] instance owns the simulated HTM runtime, the per-thread
//! circular undo logs, the global variables of the algorithm
//! (`gLastRedoTS`, `tsLowerBound`), and the
//! persistent log directory that the recovery observer starts from. Worker
//! threads obtain a [`crate::thread::CraftyThread`] via
//! [`PersistentTm::register_thread`] and run persistent transactions
//! through it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crafty_common::wait::Backoff;
use crafty_common::{
    trace, BreakdownRecorder, BreakdownSnapshot, Clock, PAddr, PersistentTm, Timestamp, TmThread,
    TraceEventKind, TxnPhase,
};
use crafty_htm::{HtmConfig, HtmRuntime};
use crafty_pmem::{Heap, MemorySpace};

use crate::config::CraftyConfig;
use crate::recovery::{parse_sequences, resume_at};
use crate::thread::CraftyThread;
use crate::undo_log::{LogDirectory, LogGeometry, UndoLog};

/// Explicit abort code: the Redo phase's `gLastRedoTS` check failed.
pub(crate) const ABORT_REDO_TS_CHECK: u32 = 2;
/// Explicit abort code: a Validate-phase check failed.
pub(crate) const ABORT_VALIDATE_MISMATCH: u32 = 3;
/// Explicit abort code: the log a transaction works on moved under it — a
/// refresh was appended behind a Redo's or Validate's sequence, or a
/// refresh found its target's head or latest marker changed.
pub(crate) const ABORT_LOG_MOVED: u32 = 4;

/// Per-thread state shared between the owning worker and other threads
/// (other threads read the undo log handle and the last sequence timestamp
/// for the Section 5.2 lag maintenance, and may force a refresh entry).
pub(crate) struct ThreadShared {
    /// The thread's circular persistent undo log.
    pub(crate) undo_log: UndoLog,
    /// Timestamp of the latest sequence this life appended to the log (its
    /// Log time, raised to its commit time once stamped; 0 before the first).
    pub(crate) last_seq_ts: AtomicU64,
}

/// The Crafty persistent-transaction engine (the paper's contribution).
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use crafty_common::{PersistentTm, PAddr};
/// use crafty_pmem::{MemorySpace, PmemConfig};
/// use crafty_core::{Crafty, CraftyConfig};
///
/// let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
/// let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests());
/// let cell = mem.reserve_persistent(1);
///
/// let mut thread = crafty.register_thread(0);
/// thread.execute(&mut |ops| {
///     let v = ops.read(cell)?;
///     ops.write(cell, v + 1)?;
///     Ok(())
/// });
/// assert_eq!(mem.read(cell), 1);
/// ```
pub struct Crafty {
    pub(crate) mem: Arc<MemorySpace>,
    pub(crate) htm: HtmRuntime,
    pub(crate) clock: Clock,
    pub(crate) cfg: CraftyConfig,
    pub(crate) recorder: Arc<BreakdownRecorder>,
    /// The persistent heap serving [`crafty_common::TxnOps::alloc`].
    pub(crate) heap: Heap,
    /// Volatile simulated word: `gLastRedoTS`, the timestamp of the last
    /// writes committed by any thread (Section 4.2).
    pub(crate) g_last_redo_ts_addr: PAddr,
    /// Persistent address of the log directory (recovery's root object).
    directory_addr: PAddr,
    /// `tsLowerBound` (Section 5.2): a lazily maintained lower bound on the
    /// earliest timestamp recovery might need to roll back to. It starts
    /// at the recovery floor, below which recovery rolls nothing back.
    pub(crate) ts_lower_bound: AtomicU64,
    pub(crate) threads: Vec<ThreadShared>,
}

impl std::fmt::Debug for Crafty {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Crafty")
            .field("variant", &self.cfg.variant)
            .field("threads", &self.threads.len())
            .finish()
    }
}

impl Crafty {
    /// Creates a Crafty engine over `mem`, reserving its logs, global
    /// variables, and persistent heap, and persisting the log directory.
    ///
    /// Over an image [`crate::recover`] recovered, it resumes each log one
    /// past its latest marker and the clock at the directory's floor.
    ///
    /// Uses a Skylake-like HTM configuration; see
    /// [`Crafty::with_htm_config`] to override it.
    pub fn new(mem: Arc<MemorySpace>, cfg: CraftyConfig) -> Self {
        Crafty::with_htm_config(mem, cfg, HtmConfig::skylake())
    }

    /// Creates a Crafty engine with an explicit HTM configuration.
    ///
    /// # Panics
    ///
    /// Panics if the persistent or volatile region is too small for the
    /// requested logs, heap, and directory.
    pub fn with_htm_config(mem: Arc<MemorySpace>, cfg: CraftyConfig, htm_cfg: HtmConfig) -> Self {
        assert!(cfg.max_threads >= 1, "need at least one worker thread");
        assert!(
            cfg.undo_log_entries >= 8,
            "undo log must hold at least a few entries"
        );
        let recorder = Arc::new(BreakdownRecorder::with_threads(mem.config().max_threads));
        let htm = HtmRuntime::new(Arc::clone(&mem), htm_cfg, Arc::clone(&recorder));

        // Persistent layout: directory, per-thread logs, heap.
        let directory_addr = mem.reserve_persistent(LogDirectory::words_needed(cfg.max_threads));
        let mut geometries = Vec::with_capacity(cfg.max_threads);
        for _ in 0..cfg.max_threads {
            let start = mem.reserve_persistent(cfg.undo_log_entries * 2);
            geometries.push(LogGeometry {
                start,
                capacity: cfg.undo_log_entries,
            });
        }
        let heap = Heap::new(mem.reserve_persistent(cfg.heap_words), cfg.heap_words);

        // Volatile layout: gLastRedoTS, one log-head word per thread.
        let g_last_redo_ts_addr = mem.reserve_volatile(1);
        let threads: Vec<ThreadShared> = geometries
            .iter()
            .map(|&geometry| {
                let head_addr = mem.reserve_volatile(1);
                ThreadShared {
                    undo_log: UndoLog::new(geometry, head_addr),
                    last_seq_ts: AtomicU64::new(0),
                }
            })
            .collect();

        let directory = LogDirectory { logs: geometries };
        let floor = directory.store(&mem, 0, directory_addr);
        if floor != 0 {
            for log in threads.iter().map(|t| t.undo_log) {
                let g = log.geometry();
                let words: Vec<u64> = (0..2 * g.capacity)
                    .map(|w| mem.read(g.start.add(w)))
                    .collect();
                mem.write(log.head_addr(), resume_at(&parse_sequences(&words)));
            }
        }

        Crafty {
            mem,
            htm,
            clock: Clock::after(Timestamp::from_raw(floor)),
            cfg,
            recorder,
            heap,
            g_last_redo_ts_addr,
            directory_addr,
            ts_lower_bound: AtomicU64::new(floor),
            threads,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &CraftyConfig {
        &self.cfg
    }

    /// The memory space the engine operates on.
    pub fn mem(&self) -> &Arc<MemorySpace> {
        &self.mem
    }

    /// The persistent address of the log directory — pass this to
    /// [`crate::recovery::recover`] after a crash.
    pub fn directory_addr(&self) -> PAddr {
        self.directory_addr
    }

    /// The persistent heap serving [`crafty_common::TxnOps::alloc`]: its
    /// state is in the heap's header line, which a booted image keeps.
    pub fn heap(&self) -> Heap {
        self.heap
    }

    /// Issues a fresh timestamp (`getTimestamp()`).
    pub(crate) fn timestamp(&self) -> Timestamp {
        self.clock.now()
    }

    /// Reads `gLastRedoTS` non-transactionally (diagnostics and tests).
    pub fn g_last_redo_ts(&self) -> u64 {
        self.mem.read(self.g_last_redo_ts_addr)
    }

    /// Records that thread `tid`'s latest sequence carries `ts`. Uses a
    /// max so that a concurrent forced refresh (Section 5.2) can never move
    /// the recorded timestamp backwards.
    pub(crate) fn note_sequence(&self, tid: usize, ts: Timestamp) {
        self.threads[tid]
            .last_seq_ts
            .fetch_max(ts.raw(), Ordering::AcqRel);
    }

    /// Section 5.2 lag maintenance. Called by a thread after appending a
    /// sequence that crossed into the other half of its circular log (it is
    /// about to start overwriting entries from the previous lap), or whose
    /// timestamp raced too far ahead of `tsLowerBound`.
    ///
    /// Every other thread whose latest sequence is older than
    /// `threshold_ts` is forced to append an empty, committed sequence
    /// (using a hardware transaction to synchronize with the owner). This
    /// guarantees that the recovery cutoff — the minimum over threads of
    /// their latest sequence timestamp — can never drop below the
    /// timestamps of entries that are about to be overwritten, so recovery
    /// never needs a discarded entry.
    pub(crate) fn maintain_ts_lower_bound(&self, calling_tid: usize, threshold_ts: u64) {
        for (tid, shared) in self.threads.iter().enumerate() {
            if tid == calling_tid {
                continue;
            }
            // Retry until either our forced sequence lands or the owner
            // itself commits something newer than the threshold.
            let mut attempts_left = 64;
            self.force_empty_sequence(tid, calling_tid, || {
                attempts_left -= 1;
                attempts_left >= 0 && shared.last_seq_ts.load(Ordering::Acquire) < threshold_ts
            });
        }
        // Threads that have never logged a sequence have nothing recovery
        // could roll back, so they do not constrain the bound.
        let min_ts = self
            .threads
            .iter()
            .map(|t| t.last_seq_ts.load(Ordering::Acquire))
            .filter(|&ts| ts > 0)
            .min()
            .unwrap_or(0);
        self.ts_lower_bound.fetch_max(min_ts, Ordering::AcqRel);
    }

    /// On-demand immediate persistence (Section 5.2): makes every thread's
    /// latest sequence durable and appends an empty, committed sequence
    /// behind it (using hardware transactions to synchronize with the
    /// owners), all through the calling thread's own flushes and drains.
    /// After it returns, every persistent transaction
    /// that had completed before the call is guaranteed to survive a crash:
    /// each thread's latest sequence is now empty, so the rollback recovery
    /// performs cannot undo any completed transaction. Invoke this before
    /// externally visible, irrevocable actions (system calls).
    pub fn persist_now(&self, calling_tid: usize) {
        for tid in 0..self.threads.len() {
            self.force_empty_sequence(tid, calling_tid, || true);
        }
    }

    /// Appends an empty committed sequence to `target_tid`'s log through
    /// `via_tid`'s own flush queue and hardware-transaction context, by one
    /// rule for every target, `via_tid`'s own log included: make the
    /// target's latest sequence durable ([`UndoLog::persist_latest`]),
    /// then append the refresh in a hardware transaction that aborts if the
    /// target's head or latest marker moved since
    /// ([`UndoLog::tip_unmoved`]), then flush and drain the refresh. Once
    /// the refresh is the target's latest sequence, recovery stops rolling
    /// back the one before it, whose writes are then already durable; the
    /// owner's queue, which only the owner drains (a core completes only
    /// its own write-backs), is left alone. The refresh and an owner's
    /// Redo or Validate are ordered whichever commits first, with no
    /// line written by both: the owner's commit stamps the marker this
    /// refresh read, which fails its validation, and an owner's commit
    /// after the refresh reads the moved head and re-logs behind it
    /// (`touch_log_head`).
    /// Retries until the refresh commits or `still_wanted`,
    /// asked before every attempt, says no, and backs off after each
    /// failed attempt: against a busy log-head line, back-to-back attempts
    /// would keep the line's owner from running on a host with fewer cores
    /// than threads.
    fn force_empty_sequence(
        &self,
        target_tid: usize,
        via_tid: usize,
        mut still_wanted: impl FnMut() -> bool,
    ) {
        let shared = &self.threads[target_tid];
        let log = shared.undo_log;
        let mut backoff = Backoff::new();
        while still_wanted() {
            let tip = log.persist_latest(&self.htm, via_tid);
            let ts = self.clock.now();
            let mut txn = self.htm.begin(via_tid);
            let appended = match log.tip_unmoved(&mut txn, tip) {
                Ok(true) => log.append_sequence(&mut txn, &[], ts, &mut Vec::new()),
                Ok(false) => Err(txn.abort_explicit(ABORT_LOG_MOVED)),
                Err(code) => Err(code),
            };
            if let Ok(info) = appended.and_then(|info| txn.commit().map(|_| info)) {
                log.flush_marker(&self.mem, via_tid, info.marker_abs);
                self.mem.drain(via_tid);
                shared.last_seq_ts.fetch_max(ts.raw(), Ordering::AcqRel);
                return;
            }
            backoff.snooze();
        }
    }

    /// Appends an empty committed sequence non-transactionally. Used during
    /// quiesce, when no other thread is running.
    fn persist_now_quiesced(&self, tid: usize) {
        let shared = &self.threads[tid];
        let ts = self.clock.now();
        let Ok(info) = shared
            .undo_log
            .append_sequence(&self.htm, &[], ts, &mut Vec::new());
        shared
            .undo_log
            .flush_marker(&self.mem, tid, info.marker_abs);
        self.mem.drain(tid);
        shared.last_seq_ts.fetch_max(ts.raw(), Ordering::AcqRel);
    }
}

impl PersistentTm for Crafty {
    fn name(&self) -> &str {
        self.cfg.variant.engine_name()
    }

    fn register_thread(&self, tid: usize) -> Box<dyn TmThread + '_> {
        assert!(
            tid < self.cfg.max_threads,
            "thread id {tid} exceeds configured max_threads {}",
            self.cfg.max_threads
        );
        Box::new(CraftyThread::new(self, tid))
    }

    fn breakdown(&self) -> BreakdownSnapshot {
        self.recorder.snapshot()
    }

    fn is_durable(&self) -> bool {
        true
    }

    fn quiesce(&self) {
        // Complete every thread's outstanding flushes and pin each thread's
        // latest sequence to an empty one, so that all work finished before
        // quiesce survives a subsequent crash (the evaluation measures
        // steady-state throughput; quiesce marks the end of a run).
        for tid in 0..self.cfg.max_threads {
            self.mem.drain(tid);
            self.persist_now_quiesced(tid);
        }
    }

    fn persist_fence(&self, calling_tid: usize) {
        self.recorder.timed(calling_tid, TxnPhase::Fence, || {
            self.persist_now(calling_tid)
        });
        trace::record(calling_tid, TraceEventKind::PersistFence, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crafty_pmem::PmemConfig;

    fn engine() -> (Arc<MemorySpace>, Crafty) {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests());
        (mem, crafty)
    }

    #[test]
    fn layout_reserves_disjoint_logs_per_thread() {
        let (_, crafty) = engine();
        let mut starts: Vec<u64> = crafty
            .threads
            .iter()
            .map(|t| t.undo_log.geometry().start.word())
            .collect();
        let n = starts.len();
        starts.sort();
        starts.dedup();
        assert_eq!(starts.len(), n);
        assert_eq!(n, crafty.config().max_threads);
    }

    #[test]
    fn directory_is_persisted_at_construction() {
        let (mem, crafty) = engine();
        let image = mem.crash();
        let dir = LogDirectory::load(&image, crafty.directory_addr()).expect("directory persisted");
        assert_eq!(dir.logs.len(), crafty.config().max_threads);
        assert_eq!(dir.logs[0], crafty.threads[0].undo_log.geometry());
    }

    #[test]
    fn engine_name_follows_variant() {
        let (mem, _) = engine();
        let crafty = Crafty::new(
            Arc::clone(&mem),
            CraftyConfig::small_for_tests().with_variant(crate::CraftyVariant::NoRedo),
        );
        assert_eq!(crafty.name(), "Crafty-NoRedo");
        assert!(crafty.is_durable());
    }

    #[test]
    fn glastredots_starts_zero() {
        let (_, crafty) = engine();
        assert_eq!(crafty.g_last_redo_ts(), 0);
    }

    #[test]
    fn persist_now_appends_an_empty_committed_sequence() {
        let (mem, crafty) = engine();
        let before = crafty.threads[0].undo_log.head(&mem);
        crafty.persist_now(0);
        let after = crafty.threads[0].undo_log.head(&mem);
        assert_eq!(after, before + 1);
        assert!(crafty.threads[0].last_seq_ts.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn maintain_ts_lower_bound_refreshes_idle_threads() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let cfg = CraftyConfig::small_for_tests().with_max_threads(2);
        let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig { max_lag: 4, ..cfg });
        // Advance the clock well past MAX_LAG with thread 1 idle.
        for _ in 0..32 {
            crafty.clock.now();
        }
        let threshold = crafty.clock.current().raw();
        crafty.maintain_ts_lower_bound(0, threshold);
        assert!(
            crafty.threads[1].last_seq_ts.load(Ordering::Relaxed) > 0,
            "idle thread must have been forced to commit an empty sequence"
        );
        assert!(crafty.ts_lower_bound.load(Ordering::Relaxed) > 0);
    }

    /// The end-to-end twin: the `MAX_LAG` check follows *every* undo
    /// append, so an idle thread is refreshed whether the busy thread
    /// commits in hardware or (forced) in software.
    #[test]
    fn every_commit_route_refreshes_idle_threads_past_max_lag() {
        for force_fallback in [false, true] {
            let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
            let cfg = CraftyConfig::small_for_tests()
                .with_max_threads(2)
                .with_force_fallback(force_fallback);
            let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig { max_lag: 4, ..cfg });
            let cell = mem.reserve_persistent(1);
            let idle_head = crafty.threads[1].undo_log.head(&mem);
            let mut busy = crafty.register_thread(0);
            for i in 0..20 {
                busy.execute(&mut |ops| ops.write(cell, i));
            }
            assert!(
                crafty.threads[1].undo_log.head(&mem) > idle_head,
                "force_fallback = {force_fallback}: the idle thread was never refreshed"
            );
        }
    }

    #[test]
    #[should_panic(expected = "exceeds configured max_threads")]
    fn registering_out_of_range_thread_panics() {
        let (_, crafty) = engine();
        let _ = crafty.register_thread(crafty.config().max_threads);
    }
}
