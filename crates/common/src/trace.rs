//! Lock-free transaction-lifecycle tracing: per-thread event rings and the
//! runtime trace level.
//!
//! The paper's whole argument is *where the cycles go* — HTM attempts vs.
//! aborts, logging vs. checkpointing, drains vs. fences — so the repro
//! carries an always-available observability layer that can decompose
//! every committed transaction into per-phase costs without perturbing
//! the hot path it measures. How transactions completed and how hardware
//! attempts ended is counted at every level, by the engine's
//! [`crate::BreakdownRecorder`]; the level adds to that, and is selected
//! by [`set_level`] (or for a scope, [`LevelGuard`]):
//!
//! - [`TraceLevel::Off`] (the default): a single relaxed atomic load and a
//!   predictable branch per instrumentation site — the same disarmed-fast-
//!   path discipline as `crafty-pmem`'s `fault_tick`. Every end-to-end
//!   number of the repository benchmark is measured at this level.
//! - [`TraceLevel::Counters`]: phase timers run
//!   ([`crate::BreakdownRecorder::timed`]). Each engine phase (Log / Redo
//!   / Validate / software / drain / fence) is timed in virtual cycles —
//!   monotonic nanoseconds that *include* the simulated NVM latencies,
//!   since the memory space busy-waits them in real time — and
//!   accumulated in the recorder. No rings are installed.
//! - [`TraceLevel::Events`]: additionally, every lifecycle event (txn
//!   begin/end, HTM attempt/commit/abort, software fallback, undo append,
//!   redo apply, flush enqueue, drain, ranged CLWB, persist fence) is
//!   recorded in a per-thread [`EventRing`] — a fixed-capacity,
//!   allocation-free flight recorder whose tail survives to a crash report
//!   or a chrome://tracing dump. The rings are installed by the first
//!   `set_level(Events)`.
//!
//! # Ring discipline
//!
//! The rings reuse the single-owner discipline of the pmem flush queues:
//! each thread id owns one ring, which only that thread pushes to (a
//! drain's events included: only a queue's owner drains it). Positions
//! are absolute counters masked by a power-of-two capacity, and overflow
//! *overwrites the oldest event* while [`EventRing::dropped_events`]
//! counts exactly how many were lost. A push is three plain stores, and
//! steady-state pushes never allocate — the counting-allocator tests
//! enforce this across the whole traced commit path.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// How much the tracing layer records, from nothing to full event rings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum TraceLevel {
    /// No timers, no events: one atomic load per instrumentation site.
    Off = 0,
    /// Phase timers feed the [`crate::BreakdownRecorder`]'s per-phase
    /// cycle accumulators.
    Counters = 1,
    /// Counters plus per-thread lifecycle event rings.
    Events = 2,
}

impl TraceLevel {
    /// Parses the CLI spelling (`off` / `counters` / `events`).
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "counters" => Some(TraceLevel::Counters),
            "events" => Some(TraceLevel::Events),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn label(self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Counters => "counters",
            TraceLevel::Events => "events",
        }
    }
}

/// The engine phases whose virtual-cycle costs the breakdown decomposes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TxnPhase {
    /// Crafty's Log phase (nondestructive undo logging in HTM) — or, for
    /// baseline engines, the transactional execution itself.
    Log,
    /// Crafty's Redo phase (checkpointing the logged writes).
    Redo,
    /// Crafty's Validate phase (re-execution against the persisted log).
    Validate,
    /// Crafty's software commit under per-line locks. The variant name is
    /// the paper's.
    Sgl,
    /// Flush-queue drains (SFENCE + write-backs).
    Drain,
    /// Explicit persist fences (`persist_fence` / `persist_now`).
    Fence,
}

impl TxnPhase {
    /// Every phase, in display order.
    pub const ALL: [TxnPhase; 6] = [
        TxnPhase::Log,
        TxnPhase::Redo,
        TxnPhase::Validate,
        TxnPhase::Sgl,
        TxnPhase::Drain,
        TxnPhase::Fence,
    ];

    /// Stable human-readable label.
    pub const fn label(self) -> &'static str {
        match self {
            TxnPhase::Log => "log",
            TxnPhase::Redo => "redo",
            TxnPhase::Validate => "validate",
            TxnPhase::Sgl => "software",
            TxnPhase::Drain => "drain",
            TxnPhase::Fence => "fence",
        }
    }

    /// Dense array index for the recorder's accumulators.
    pub(crate) const fn index(self) -> usize {
        match self {
            TxnPhase::Log => 0,
            TxnPhase::Redo => 1,
            TxnPhase::Validate => 2,
            TxnPhase::Sgl => 3,
            TxnPhase::Drain => 4,
            TxnPhase::Fence => 5,
        }
    }
}

impl std::fmt::Display for TxnPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One kind of lifecycle event an [`EventRing`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum TraceEventKind {
    /// A persistent transaction started (argument: 0).
    TxnBegin = 0,
    /// A hardware transaction attempt began (argument: 0).
    HtmAttempt = 1,
    /// A hardware transaction committed (argument: its write-set size).
    HtmCommit = 2,
    /// A hardware transaction aborted (argument: the
    /// [`crate::HwTxnOutcome::index`] of how, in the low 8 bits, and an
    /// explicit abort's code in the bits above them).
    Abort = 3,
    /// An undo-log sequence was appended (argument: entry count).
    UndoAppend = 4,
    /// Logged writes were checkpointed by the Redo phase (argument:
    /// write count).
    RedoApply = 5,
    /// A line write-back was enqueued on a flush queue (argument: the
    /// line index).
    Enqueue = 6,
    /// A flush-queue drain completed (argument: lines persisted).
    Drain = 7,
    /// A coalesced ranged CLWB was issued (argument: lines in the run).
    RangedClwb = 8,
    /// An explicit persist fence completed (argument: 0).
    PersistFence = 9,
    /// A persistent transaction finished (argument: 0).
    TxnEnd = 10,
    /// A persistent transaction gave up on its hardware phases and entered
    /// the software commit (argument: 0).
    Fallback = 11,
}

impl TraceEventKind {
    /// Every event kind, in numeric order.
    pub const ALL: [TraceEventKind; 12] = [
        TraceEventKind::TxnBegin,
        TraceEventKind::HtmAttempt,
        TraceEventKind::HtmCommit,
        TraceEventKind::Abort,
        TraceEventKind::UndoAppend,
        TraceEventKind::RedoApply,
        TraceEventKind::Enqueue,
        TraceEventKind::Drain,
        TraceEventKind::RangedClwb,
        TraceEventKind::PersistFence,
        TraceEventKind::TxnEnd,
        TraceEventKind::Fallback,
    ];

    /// Stable human-readable label.
    pub const fn label(self) -> &'static str {
        match self {
            TraceEventKind::TxnBegin => "txn-begin",
            TraceEventKind::HtmAttempt => "htm-attempt",
            TraceEventKind::HtmCommit => "htm-commit",
            TraceEventKind::Abort => "abort",
            TraceEventKind::UndoAppend => "undo-append",
            TraceEventKind::RedoApply => "redo-apply",
            TraceEventKind::Enqueue => "enqueue",
            TraceEventKind::Drain => "drain",
            TraceEventKind::RangedClwb => "ranged-clwb",
            TraceEventKind::PersistFence => "persist-fence",
            TraceEventKind::TxnEnd => "txn-end",
            TraceEventKind::Fallback => "fallback",
        }
    }

    /// Decodes the on-ring kind byte.
    fn from_u8(v: u8) -> Option<TraceEventKind> {
        TraceEventKind::ALL.get(v as usize).copied()
    }
}

impl std::fmt::Display for TraceEventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One decoded event from a ring snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: TraceEventKind,
    /// The kind-specific argument (56 significant bits).
    pub arg: u64,
    /// Nanoseconds since the tracer's epoch (virtual cycles).
    pub t_ns: u64,
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:>12} ns] {} ({})", self.t_ns, self.kind, self.arg)
    }
}

/// Argument bits preserved per event (the kind byte takes the low 8).
const ARG_BITS: u32 = 56;
/// Mask of the preserved argument bits.
const ARG_MASK: u64 = (1 << ARG_BITS) - 1;
/// Default per-thread ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 4096;
/// Thread ids the global tracer keeps rings for; higher tids fall off the
/// recorder (counted nowhere — the harness never exceeds this).
pub const MAX_TRACE_THREADS: usize = 64;

/// A fixed-capacity, allocation-free, overwrite-oldest event ring — the
/// per-thread flight recorder behind [`TraceLevel::Events`].
///
/// One thread at a time owns each ring's write side (the pmem flush-queue
/// discipline), so pushes are plain stores. Reads
/// ([`EventRing::snapshot`]) are best-effort while a writer is active and
/// exact once the writer is quiescent.
#[derive(Debug)]
pub struct EventRing {
    /// Packed `kind | arg << 8` words, indexed by masked position.
    words: Box<[AtomicU64]>,
    /// Event timestamps (ns since the tracer epoch), same indexing.
    times: Box<[AtomicU64]>,
    /// Absolute count of events ever pushed.
    head: AtomicU64,
}

impl EventRing {
    /// Creates a ring holding `capacity` events (rounded up to a power of
    /// two, minimum 2).
    pub fn new(capacity: usize) -> EventRing {
        let cap = capacity.max(2).next_power_of_two();
        EventRing {
            words: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            times: (0..cap).map(|_| AtomicU64::new(0)).collect(),
            head: AtomicU64::new(0),
        }
    }

    /// The ring's (power-of-two) capacity in events.
    pub fn capacity(&self) -> usize {
        self.words.len()
    }

    /// Records one event. Allocation-free; overwrites the oldest event
    /// when the ring is full. The caller must be the ring's only writer.
    #[inline]
    pub fn push(&self, kind: TraceEventKind, arg: u64, t_ns: u64) {
        let pos = self.head.load(Ordering::Relaxed);
        let i = (pos & (self.words.len() as u64 - 1)) as usize;
        self.words[i].store(kind as u64 | ((arg & ARG_MASK) << 8), Ordering::Relaxed);
        self.times[i].store(t_ns, Ordering::Relaxed);
        // Release: `recorded`'s Acquire load then sees the event's words.
        self.head.store(pos + 1, Ordering::Release);
    }

    /// Total events ever pushed.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events lost to overwriting: everything pushed beyond the last
    /// `capacity` events. Reconciles exactly against an unbounded shadow
    /// oracle (`recorded - snapshot.len()`).
    pub fn dropped_events(&self) -> u64 {
        self.recorded().saturating_sub(self.capacity() as u64)
    }

    /// The retained tail, oldest first: the last
    /// `min(recorded, capacity)` events.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let head = self.recorded();
        let cap = self.words.len() as u64;
        let start = head.saturating_sub(cap);
        (start..head)
            .filter_map(|pos| {
                let i = (pos & (cap - 1)) as usize;
                let w = self.words[i].load(Ordering::Relaxed);
                let t = self.times[i].load(Ordering::Relaxed);
                TraceEventKind::from_u8((w & 0xFF) as u8).map(|kind| TraceEvent {
                    kind,
                    arg: w >> 8,
                    t_ns: t,
                })
            })
            .collect()
    }

    /// Empties the ring (owner-side only; not safe against a concurrent
    /// writer).
    pub fn clear(&self) {
        self.head.store(0, Ordering::Release);
    }
}

/// The process-wide rings and the epoch their timestamps count from.
struct GlobalTracer {
    epoch: Instant,
    rings: Vec<EventRing>,
}

/// The armed trace level; checked (one relaxed load) at every
/// instrumentation site.
static LEVEL: AtomicU8 = AtomicU8::new(TraceLevel::Off as u8);
/// Lazily installed rings + epoch. A `OnceLock` keeps the crate
/// `forbid(unsafe_code)`-clean; install happens off the hot path.
static TRACER: OnceLock<GlobalTracer> = OnceLock::new();

/// Sets the trace level. The first `Events` installs the rings (with
/// [`DEFAULT_RING_CAPACITY`] events per thread); lower levels never do.
pub fn set_level(level: TraceLevel) {
    if level >= TraceLevel::Events {
        // Arm the rings *before* publishing the level, so no recording
        // site can observe Events with the rings still uninstalled.
        TRACER.get_or_init(|| GlobalTracer {
            epoch: Instant::now(),
            rings: (0..MAX_TRACE_THREADS)
                .map(|_| EventRing::new(DEFAULT_RING_CAPACITY))
                .collect(),
        });
    }
    LEVEL.store(level as u8, Ordering::Release);
}

/// Arms a trace level for a scope: saves the current level, sets the new
/// one, and restores the saved one when dropped — on unwind too, so a
/// panicking test or suite cannot leave the process-global level armed
/// for whatever runs next in the process.
#[must_use = "the previous level is restored when the guard drops"]
#[derive(Debug)]
pub struct LevelGuard {
    previous: TraceLevel,
}

impl LevelGuard {
    /// Saves the current level and arms `level`.
    pub fn arm(level: TraceLevel) -> LevelGuard {
        let previous = self::level();
        set_level(level);
        LevelGuard { previous }
    }
}

impl Drop for LevelGuard {
    fn drop(&mut self) {
        set_level(self.previous);
    }
}

/// The currently armed level.
pub fn level() -> TraceLevel {
    match LEVEL.load(Ordering::Relaxed) {
        0 => TraceLevel::Off,
        1 => TraceLevel::Counters,
        _ => TraceLevel::Events,
    }
}

/// Whether phase timers should run.
#[inline]
pub fn counters_enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) >= TraceLevel::Counters as u8
}

/// Whether per-event ring recording should run.
#[inline]
pub fn events_enabled() -> bool {
    LEVEL.load(Ordering::Relaxed) >= TraceLevel::Events as u8
}

/// Records one event on thread `tid`'s ring, if [`TraceLevel::Events`] is
/// armed and `tid` is within [`MAX_TRACE_THREADS`]. One relaxed load and
/// a branch when disarmed.
#[inline]
pub fn record(tid: usize, kind: TraceEventKind, arg: u64) {
    if !events_enabled() {
        return;
    }
    if let Some(tracer) = TRACER.get() {
        if let Some(ring) = tracer.rings.get(tid) {
            ring.push(kind, arg, tracer.epoch.elapsed().as_nanos() as u64);
        }
    }
}

/// The retained event tail of thread `tid`'s ring (empty when rings were
/// never installed or `tid` is out of range).
pub fn ring_snapshot(tid: usize) -> Vec<TraceEvent> {
    TRACER
        .get()
        .and_then(|t| t.rings.get(tid))
        .map(|r| r.snapshot())
        .unwrap_or_default()
}

/// Events thread `tid`'s ring lost to overwriting.
pub fn ring_dropped(tid: usize) -> u64 {
    TRACER
        .get()
        .and_then(|t| t.rings.get(tid))
        .map(|r| r.dropped_events())
        .unwrap_or(0)
}

/// One thread's flight-recorder state as returned by
/// [`ring_snapshot_all`]: the thread id, its retained event tail (oldest
/// first), and how many older events the ring overwrote.
pub type ThreadTrace = (usize, Vec<TraceEvent>, u64);

/// Snapshots every installed ring that recorded at least one event — the
/// whole process's flight-recorder state in one call. The fault-injection
/// machinery uses this to freeze what every thread was doing at the exact
/// tick a crash image is trapped.
pub fn ring_snapshot_all() -> Vec<ThreadTrace> {
    let Some(tracer) = TRACER.get() else {
        return Vec::new();
    };
    tracer
        .rings
        .iter()
        .enumerate()
        .filter(|(_, r)| r.recorded() > 0)
        .map(|(tid, r)| (tid, r.snapshot(), r.dropped_events()))
        .collect()
}

/// Clears every installed ring (between benchmark points / torture
/// replays; callers must be quiescent).
pub fn reset_rings() {
    if let Some(tracer) = TRACER.get() {
        for ring in &tracer.rings {
            ring.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(TraceLevel::Off < TraceLevel::Counters);
        assert!(TraceLevel::Counters < TraceLevel::Events);
        for level in [TraceLevel::Off, TraceLevel::Counters, TraceLevel::Events] {
            assert_eq!(TraceLevel::parse(level.label()), Some(level));
        }
        assert_eq!(TraceLevel::parse("bogus"), None);
    }

    #[test]
    fn ring_retains_tail_and_counts_drops() {
        let ring = EventRing::new(4);
        assert_eq!(ring.capacity(), 4);
        for i in 0..10u64 {
            ring.push(TraceEventKind::Enqueue, i, i * 100);
        }
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped_events(), 6);
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(
            snap.iter().map(|e| e.arg).collect::<Vec<_>>(),
            vec![6, 7, 8, 9]
        );
        assert!(snap.iter().all(|e| e.kind == TraceEventKind::Enqueue));
        assert_eq!(snap[0].t_ns, 600);
        ring.clear();
        assert_eq!(ring.recorded(), 0);
        assert!(ring.snapshot().is_empty());
    }

    #[test]
    fn ring_rounds_its_capacity_up_to_a_power_of_two() {
        assert_eq!(EventRing::new(0).capacity(), 2);
        assert_eq!(EventRing::new(3).capacity(), 4);
        assert_eq!(EventRing::new(1000).capacity(), 1024);
    }

    #[test]
    fn arg_truncates_to_56_bits() {
        let ring = EventRing::new(2);
        ring.push(TraceEventKind::HtmCommit, u64::MAX, 1);
        let snap = ring.snapshot();
        assert_eq!(snap[0].arg, ARG_MASK);
        assert_eq!(snap[0].kind, TraceEventKind::HtmCommit);
    }

    #[test]
    fn taxonomy_labels_are_unique() {
        let phases: std::collections::HashSet<_> =
            TxnPhase::ALL.iter().map(|p| p.label()).collect();
        assert_eq!(phases.len(), TxnPhase::ALL.len());
        let kinds: std::collections::HashSet<_> =
            TraceEventKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(kinds.len(), TraceEventKind::ALL.len());
        for (i, kind) in TraceEventKind::ALL.iter().enumerate() {
            assert_eq!(*kind as u8 as usize, i);
            assert_eq!(TraceEventKind::from_u8(*kind as u8), Some(*kind));
        }
    }

    #[test]
    fn global_recording_respects_level() {
        set_level(TraceLevel::Off);
        record(63, TraceEventKind::TxnBegin, 7);
        assert!(!events_enabled());
        {
            let _events = LevelGuard::arm(TraceLevel::Events);
            reset_rings();
            assert!(counters_enabled());
            assert!(events_enabled());
            record(63, TraceEventKind::TxnBegin, 7);
            record(63, TraceEventKind::TxnEnd, 0);
            let snap = ring_snapshot(63);
            assert_eq!(snap.len(), 2);
            assert_eq!(snap[0].kind, TraceEventKind::TxnBegin);
            assert_eq!(snap[0].arg, 7);
            assert_eq!(ring_dropped(63), 0);
            // Out-of-range tids are ignored, not a panic.
            record(MAX_TRACE_THREADS + 1, TraceEventKind::TxnBegin, 0);
            assert!(ring_snapshot(MAX_TRACE_THREADS + 1).is_empty());
        }
        assert_eq!(level(), TraceLevel::Off, "the guard restores the level");
        assert!(!counters_enabled());
    }
}
