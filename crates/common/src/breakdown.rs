//! Execution breakdown counters.
//!
//! The paper's appendix (Figures 9–21) reports, for every benchmark and
//! engine, (a) how each *persistent* transaction was completed and (b) the
//! outcome of every *hardware* transaction. These enums and the
//! [`BreakdownRecorder`] reproduce those categories. Engines record into a
//! shared recorder (one private set of cells per thread slot); the figure
//! harness snapshots it after a run.

use std::fmt;
use std::time::Instant;

use crate::counter::OwnedCounter;
use crate::trace::{self, TraceEventKind, TxnPhase};

/// How a persistent transaction ultimately committed.
///
/// Mirrors the stacked-bar categories of the paper's persistent-transaction
/// breakdowns: `Non-Crafty` (baseline engines), `Read Only`, `Redo`,
/// `Validate`, and `SGL`, which here is the software commit (labelled
/// `software`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CompletionPath {
    /// Committed by a non-Crafty engine's ordinary path (Non-durable,
    /// NV-HTM, DudeTM).
    NonCrafty,
    /// A read-only transaction: Crafty skips the Redo and Validate phases.
    ReadOnly,
    /// Committed by Crafty's Redo phase.
    Redo,
    /// Committed by Crafty's Validate phase.
    Validate,
    /// Committed in software: Crafty's software commit under per-line
    /// locks, or a baseline's single global lock. The variant name is the
    /// paper's.
    Sgl,
}

impl CompletionPath {
    /// All paths, in the order the paper's figures stack them.
    pub const ALL: [CompletionPath; 5] = [
        CompletionPath::NonCrafty,
        CompletionPath::ReadOnly,
        CompletionPath::Redo,
        CompletionPath::Validate,
        CompletionPath::Sgl,
    ];

    /// A short, stable label used in tables and CSV output.
    pub const fn label(self) -> &'static str {
        match self {
            CompletionPath::NonCrafty => "non-crafty",
            CompletionPath::ReadOnly => "read-only",
            CompletionPath::Redo => "redo",
            CompletionPath::Validate => "validate",
            CompletionPath::Sgl => "software",
        }
    }

    const fn index(self) -> usize {
        match self {
            CompletionPath::NonCrafty => 0,
            CompletionPath::ReadOnly => 1,
            CompletionPath::Redo => 2,
            CompletionPath::Validate => 3,
            CompletionPath::Sgl => 4,
        }
    }
}

impl fmt::Display for CompletionPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The outcome of one simulated hardware transaction attempt.
///
/// Mirrors the paper's hardware-transaction breakdowns: commit, conflict
/// abort, capacity abort, explicit abort, and "zero" abort (page fault,
/// system call, interrupt — anything RTM reports with no cause bits set).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HwTxnOutcome {
    /// The hardware transaction committed.
    Commit,
    /// Aborted because another transaction accessed a conflicting line.
    Conflict,
    /// Aborted because the transaction's footprint exceeded HTM capacity.
    Capacity,
    /// Aborted explicitly by the program (failed Redo/Validate check).
    Explicit,
    /// Aborted for an unclassified reason (emulating interrupts etc.).
    Zero,
}

impl HwTxnOutcome {
    /// All outcomes, in the order the paper's figures stack them.
    pub const ALL: [HwTxnOutcome; 5] = [
        HwTxnOutcome::Commit,
        HwTxnOutcome::Conflict,
        HwTxnOutcome::Capacity,
        HwTxnOutcome::Explicit,
        HwTxnOutcome::Zero,
    ];

    /// A short, stable label used in tables and CSV output.
    pub const fn label(self) -> &'static str {
        match self {
            HwTxnOutcome::Commit => "commit",
            HwTxnOutcome::Conflict => "conflict",
            HwTxnOutcome::Capacity => "capacity",
            HwTxnOutcome::Explicit => "explicit",
            HwTxnOutcome::Zero => "zero",
        }
    }

    /// Dense index: the outcome's position in [`HwTxnOutcome::ALL`], and
    /// the low byte of its [`TraceEventKind::Abort`] event's argument.
    pub const fn index(self) -> usize {
        match self {
            HwTxnOutcome::Commit => 0,
            HwTxnOutcome::Conflict => 1,
            HwTxnOutcome::Capacity => 2,
            HwTxnOutcome::Explicit => 3,
            HwTxnOutcome::Zero => 4,
        }
    }
}

impl fmt::Display for HwTxnOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One thread slot's counters, on cache lines of their own so that no two
/// threads ever write the same line.
#[derive(Debug, Default)]
#[repr(align(128))]
struct ThreadCells {
    persistent: [OwnedCounter; 5],
    hardware: [OwnedCounter; 5],
    persistent_writes: OwnedCounter,
    /// Accumulated virtual cycles (ns) per [`TxnPhase`]. Only populated
    /// while [`crate::trace::counters_enabled`] — the phase timers that
    /// feed it are the Counters-level cost.
    phase_cycles: [OwnedCounter; 6],
}

/// Counters shared between an engine and the measurement harness — the one
/// recording API: each fact about a transaction is one call here, which
/// counts it and, when tracing is armed, times it or pushes its ring event.
///
/// Every `record_*` call names the recording thread's slot (`tid`) and
/// bumps that slot's private, cache-line-padded cells with a plain
/// load + store ([`OwnedCounter`]): no locked instruction and no line
/// shared between threads on the commit path. The contract is the one the
/// flush queues already impose — one OS thread per `tid` at a time.
/// [`BreakdownRecorder::snapshot`] sums the cells; it is exact once the
/// recording threads are quiescent (or when the caller is the only
/// recorder), which is when the harness takes it.
#[derive(Debug)]
pub struct BreakdownRecorder {
    cells: Box<[ThreadCells]>,
}

impl Default for BreakdownRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl BreakdownRecorder {
    /// Thread slots of a recorder made with [`BreakdownRecorder::new`].
    pub const DEFAULT_THREADS: usize = 64;

    /// Creates a recorder for thread ids below
    /// [`BreakdownRecorder::DEFAULT_THREADS`], all counters at zero.
    pub fn new() -> Self {
        Self::with_threads(Self::DEFAULT_THREADS)
    }

    /// Creates a recorder for thread ids `0..threads`.
    pub fn with_threads(threads: usize) -> Self {
        BreakdownRecorder {
            cells: (0..threads).map(|_| ThreadCells::default()).collect(),
        }
    }

    /// Records the completion of one persistent transaction.
    ///
    /// # Panics
    ///
    /// This and every other `record_*` method panics if `tid` is not below
    /// the recorder's thread count.
    #[inline]
    pub fn record_completion(&self, tid: usize, path: CompletionPath) {
        self.cells[tid].persistent[path.index()].add(1);
    }

    /// Records how one hardware transaction attempt ended and, at
    /// [`trace::TraceLevel::Events`], pushes its ring event:
    /// [`TraceEventKind::HtmCommit`] carrying `detail` (the write-set size)
    /// for a commit, [`TraceEventKind::Abort`] carrying the outcome's
    /// [`HwTxnOutcome::index`] with `detail` (an explicit abort's code)
    /// in the bits above it for an abort.
    // Forced inline: `HwTxn::commit` calls it on every hardware commit,
    // and left out of line it cost `bank-1t` 1% of its throughput.
    #[inline(always)]
    pub fn record_hw(&self, tid: usize, outcome: HwTxnOutcome, detail: u64) {
        self.cells[tid].hardware[outcome.index()].add(1);
        let (kind, arg) = match outcome {
            HwTxnOutcome::Commit => (TraceEventKind::HtmCommit, detail),
            _ => (TraceEventKind::Abort, outcome.index() as u64 | detail << 8),
        };
        trace::record(tid, kind, arg);
    }

    /// Records `n` program writes to persistent memory (Table 1 input).
    #[inline]
    pub fn record_persistent_writes(&self, tid: usize, n: u64) {
        self.cells[tid].persistent_writes.add(n);
    }

    /// Accumulates `cycles` virtual cycles (ns) spent in `phase`.
    #[inline]
    pub fn record_phase_cycles(&self, tid: usize, phase: TxnPhase, cycles: u64) {
        self.cells[tid].phase_cycles[phase.index()].add(cycles);
    }

    /// Runs `f`, charging its duration to `phase` on thread `tid` when
    /// phase timing is armed ([`trace::TraceLevel::Counters`] or above).
    /// Disarmed, the whole cost is one relaxed load and a branch.
    #[inline]
    pub fn timed<R>(&self, tid: usize, phase: TxnPhase, f: impl FnOnce() -> R) -> R {
        let start = trace::counters_enabled().then(Instant::now);
        let result = f();
        if let Some(start) = start {
            self.record_phase_cycles(tid, phase, start.elapsed().as_nanos() as u64);
        }
        result
    }

    /// Takes a point-in-time copy of all counters, summed over threads.
    pub fn snapshot(&self) -> BreakdownSnapshot {
        let mut s = BreakdownSnapshot::default();
        let sum = |into: &mut [u64], from: &[OwnedCounter]| {
            for (total, cell) in into.iter_mut().zip(from) {
                *total += cell.get();
            }
        };
        for c in self.cells.iter() {
            sum(&mut s.persistent, &c.persistent);
            sum(&mut s.hardware, &c.hardware);
            s.persistent_writes += c.persistent_writes.get();
            sum(&mut s.phase_cycles, &c.phase_cycles);
        }
        s
    }
}

/// A point-in-time copy of a [`BreakdownRecorder`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BreakdownSnapshot {
    persistent: [u64; 5],
    hardware: [u64; 5],
    /// Total number of program writes to persistent memory.
    pub persistent_writes: u64,
    phase_cycles: [u64; 6],
}

impl BreakdownSnapshot {
    /// Number of persistent transactions completed via `path`.
    pub fn completions(&self, path: CompletionPath) -> u64 {
        self.persistent[path.index()]
    }

    /// Number of hardware transactions that ended with `outcome`.
    pub fn hw(&self, outcome: HwTxnOutcome) -> u64 {
        self.hardware[outcome.index()]
    }

    /// Total persistent transactions completed, across all paths.
    pub fn total_persistent(&self) -> u64 {
        self.persistent.iter().sum()
    }

    /// Total hardware transactions attempted, across all outcomes.
    pub fn total_hardware(&self) -> u64 {
        self.hardware.iter().sum()
    }

    /// Total hardware aborts (everything except commits).
    pub fn total_hw_aborts(&self) -> u64 {
        self.total_hardware() - self.hw(HwTxnOutcome::Commit)
    }

    /// Virtual cycles (ns) accumulated in `phase`. Zero unless the run
    /// was traced at [`crate::trace::TraceLevel::Counters`] or above.
    pub fn phase_cycles(&self, phase: TxnPhase) -> u64 {
        self.phase_cycles[phase.index()]
    }

    /// Total virtual cycles across all phases.
    pub fn total_phase_cycles(&self) -> u64 {
        self.phase_cycles.iter().sum()
    }

    /// Average program writes per persistent transaction (Table 1).
    pub fn writes_per_txn(&self) -> f64 {
        let txns = self.total_persistent();
        if txns == 0 {
            0.0
        } else {
            self.persistent_writes as f64 / txns as f64
        }
    }

    /// Returns the difference `self - earlier`, counter by counter.
    pub fn since(&self, earlier: &BreakdownSnapshot) -> BreakdownSnapshot {
        BreakdownSnapshot {
            persistent: core::array::from_fn(|i| self.persistent[i] - earlier.persistent[i]),
            hardware: core::array::from_fn(|i| self.hardware[i] - earlier.hardware[i]),
            persistent_writes: self.persistent_writes - earlier.persistent_writes,
            phase_cycles: core::array::from_fn(|i| self.phase_cycles[i] - earlier.phase_cycles[i]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_counters_accumulate() {
        let r = BreakdownRecorder::new();
        r.record_completion(0, CompletionPath::Redo);
        r.record_completion(0, CompletionPath::Redo);
        r.record_completion(0, CompletionPath::Validate);
        r.record_completion(0, CompletionPath::Sgl);
        let s = r.snapshot();
        assert_eq!(s.completions(CompletionPath::Redo), 2);
        assert_eq!(s.completions(CompletionPath::Validate), 1);
        assert_eq!(s.completions(CompletionPath::Sgl), 1);
        assert_eq!(s.completions(CompletionPath::ReadOnly), 0);
        assert_eq!(s.total_persistent(), 4);
    }

    #[test]
    fn hw_counters_accumulate() {
        let r = BreakdownRecorder::new();
        r.record_hw(0, HwTxnOutcome::Commit, 0);
        r.record_hw(0, HwTxnOutcome::Conflict, 0);
        r.record_hw(0, HwTxnOutcome::Conflict, 0);
        r.record_hw(0, HwTxnOutcome::Capacity, 0);
        r.record_hw(0, HwTxnOutcome::Explicit, 0);
        r.record_hw(0, HwTxnOutcome::Zero, 0);
        let s = r.snapshot();
        assert_eq!(s.hw(HwTxnOutcome::Commit), 1);
        assert_eq!(s.hw(HwTxnOutcome::Conflict), 2);
        assert_eq!(s.total_hardware(), 6);
        assert_eq!(s.total_hw_aborts(), 5);
    }

    #[test]
    fn writes_per_txn_divides_by_transactions() {
        let r = BreakdownRecorder::new();
        r.record_persistent_writes(0, 10);
        r.record_persistent_writes(0, 10);
        r.record_completion(0, CompletionPath::Redo);
        r.record_completion(0, CompletionPath::Validate);
        let s = r.snapshot();
        assert!((s.writes_per_txn() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn writes_per_txn_with_no_transactions_is_zero() {
        let s = BreakdownRecorder::new().snapshot();
        assert_eq!(s.writes_per_txn(), 0.0);
    }

    #[test]
    fn since_subtracts_counters() {
        let r = BreakdownRecorder::new();
        r.record_hw(0, HwTxnOutcome::Commit, 0);
        r.record_persistent_writes(0, 3);
        let first = r.snapshot();
        r.record_hw(0, HwTxnOutcome::Commit, 0);
        r.record_hw(0, HwTxnOutcome::Conflict, 0);
        r.record_persistent_writes(0, 2);
        let delta = r.snapshot().since(&first);
        assert_eq!(delta.hw(HwTxnOutcome::Commit), 1);
        assert_eq!(delta.hw(HwTxnOutcome::Conflict), 1);
        assert_eq!(delta.persistent_writes, 2);
    }

    #[test]
    fn labels_are_unique_and_nonempty() {
        let mut labels: Vec<&str> = CompletionPath::ALL.iter().map(|p| p.label()).collect();
        labels.extend(HwTxnOutcome::ALL.iter().map(|o| o.label()));
        assert!(labels.iter().all(|l| !l.is_empty()));
        let n = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), n);
    }

    #[test]
    fn phase_cycles_accumulate_and_subtract() {
        let r = BreakdownRecorder::new();
        r.record_phase_cycles(0, TxnPhase::Log, 100);
        r.record_phase_cycles(0, TxnPhase::Log, 50);
        r.record_phase_cycles(0, TxnPhase::Redo, 25);
        let first = r.snapshot();
        assert_eq!(first.phase_cycles(TxnPhase::Log), 150);
        assert_eq!(first.phase_cycles(TxnPhase::Redo), 25);
        assert_eq!(first.phase_cycles(TxnPhase::Validate), 0);
        assert_eq!(first.total_phase_cycles(), 175);
        r.record_phase_cycles(0, TxnPhase::Fence, 10);
        let delta = r.snapshot().since(&first);
        assert_eq!(delta.phase_cycles(TxnPhase::Log), 0);
        assert_eq!(delta.phase_cycles(TxnPhase::Fence), 10);
        assert_eq!(delta.total_phase_cycles(), 10);
    }

    #[test]
    fn snapshot_sums_every_threads_cells() {
        let r = BreakdownRecorder::with_threads(3);
        r.record_hw(0, HwTxnOutcome::Commit, 0);
        r.record_hw(2, HwTxnOutcome::Commit, 0);
        r.record_hw(2, HwTxnOutcome::Zero, 0);
        r.record_persistent_writes(1, 7);
        r.record_phase_cycles(1, TxnPhase::Redo, 40);
        r.record_phase_cycles(2, TxnPhase::Redo, 2);
        let s = r.snapshot();
        assert_eq!(s.hw(HwTxnOutcome::Commit), 2);
        assert_eq!(s.total_hardware(), 3);
        assert_eq!(s.persistent_writes, 7);
        assert_eq!(s.phase_cycles(TxnPhase::Redo), 42);
    }
}
