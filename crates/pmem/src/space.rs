//! The simulated memory space: a volatile (cache/DRAM) view over a
//! persistent image, with explicit flush/drain persist operations and a
//! **word-granular persistence pipeline**.
//!
//! # Model
//!
//! The space is an array of 64-bit words split into a *persistent region*
//! `[0, persistent_words)` and a *volatile region* above it. Every load and
//! store — transactional or not — operates on the **volatile view**, which
//! plays the role of the processor caches plus DRAM. A separate
//! **persistent image** holds what would survive a power failure.
//!
//! Data moves from the volatile view to the persistent image when:
//!
//! * a cache line is flushed ([`MemorySpace::clwb`]) and a subsequent drain
//!   ([`MemorySpace::drain`]) completes — the CLWB + SFENCE persist
//!   operation of Section 2.2; or
//! * the simulated cache spontaneously evicts a dirty line (controlled by
//!   [`CrashModel::eviction_probability`]) — the behaviour that makes
//!   unlogged in-place updates unsafe.
//!
//! A [`MemorySpace::crash`] resolves all remaining dirty words according to
//! the crash model (each dirty *word* persists with a configured
//! probability, since the hardware guarantees only word-granularity
//! persistence, Section 5.2) and returns the [`PersistentImage`] a recovery
//! observer would see.
//!
//! # Word-granular dirty masks
//!
//! Crafty's design argument — and the reason HTPM-style systems fight
//! write amplification at the persist boundary — is that persistence cost
//! should follow *words written*, not *lines touched*. The pipeline
//! therefore tracks one `u64` **dirty-word mask per persistent line**
//! (bit *i* = word *i* of the line was stored since the line's last
//! write-back):
//!
//! * A one-word store ([`MemorySpace::write`],
//!   [`MemorySpace::compare_exchange`]) ORs exactly its word's bit into the
//!   mask; a line-granular publish ([`MemorySpace::write_line`] — every
//!   commit, and the stack's non-transactional stores of several words)
//!   ORs the bits of all the words it stored to a line at once, after the
//!   last of them. The mask
//!   doubles as the dirty flag: mask ≠ 0 ⇔ dirty.
//! * A write-back (`persist_line`) takes the mask by CASing it to
//!   `WRITING_BACK`, copies only the masked words into the persistent
//!   image, then clears that bit; a concurrent write-back of the same line
//!   waits for the clear. Unmasked words are *provably identical* in both
//!   views (they have not been stored since the last write-back), so the
//!   result is observably identical to copying the whole line.
//!   `tests/persist_oracle.rs` pins this against a word-by-word model kept
//!   in the test: the images at every drain, the crash images, and the
//!   exact `words_persisted` count.
//! * Re-flushing a line that is already pending does not take a second
//!   queue slot; the new store's bit is simply OR-merged into the line's
//!   mask, which the eventual drain reads. Dedup therefore *merges masks*.
//! * The crash models resolve only masked words, so strict / relaxed /
//!   adversarial crash states are exact over the words actually written.
//!   Each word's coin is drawn from its own seeded stream (keyed by the
//!   word index), so crash resolution is independent of mask iteration
//!   order and of which other words are dirty.
//! * Latency follows suit: a drain lasts
//!   [`crate::LatencyModel::drain_ns`] plus one
//!   [`crate::LatencyModel::clwb_range`] per coalesced run it issues (see
//!   "Batched drains" below), whose per-word component covers only the
//!   words actually copied — measured from the drain's issue, so the
//!   simulator's own sort/copy bookkeeping runs inside that time,
//!   not on top of it — and
//!   [`PmemStats::words_persisted`] / [`PmemStats::line_words_persisted`]
//!   report the measured write amplification
//!   (`words_persisted / line_words_persisted`; 1.0 means every persisted
//!   line was fully dirty).
//! * The drain before a publication fills its wait with that
//!   publication's cache misses: [`MemorySpace::drain_warming`] loads the
//!   dirty mask of each line the caller names, after the write-backs and
//!   before the deadline, so the commit's mask OR that follows finds the
//!   line's `(dirty mask, flush stamp)` pair in the cache. The loads
//!   change nothing anyone can observe — no count, fault tick, trace
//!   event or view moves — and under the `instant` model, which has no
//!   wait, they are skipped.
//!
//! # Batched drains: ranged CLWB coalescing
//!
//! A drain takes its queue's whole pending range, and the write-back of
//! those lines is *batched*: the pending line ids are
//! snapshotted into a reusable per-thread scratch buffer, sorted, and
//! coalesced into **maximal runs of adjacent lines**. For each run the
//! drain first performs all of the run's masked word copies, then adds a
//! single ranged-flush cost to its deadline
//! ([`crate::LatencyModel::clwb_range`]: a per-run base, a per-line
//! component, and the per-word media cost) — so a transaction whose
//! undo-log entries span four adjacent lines pays one flush base instead
//! of four. [`PmemStats::flush_ranges`] and
//! [`PmemStats::range_lines`] make the coalescing efficiency measurable
//! (`flush_ranges < lines_persisted` means runs longer than one line were
//! found; [`PmemStats::lines_per_range`] is the average run length).
//!
//! Two properties keep this a pure optimization:
//!
//! * **The runs exactly partition the drained range.** Every drained
//!   position's line is persisted exactly once; sorting changes only the
//!   *order* of the masked copies, and crash resolution is keyed per word
//!   (independent of write-back order), so the persistent and crash-visible
//!   images are those of writing the drained lines back one at a time in
//!   enqueue order. `tests/flush_queue_properties.rs` pins the partition,
//!   and `tests/persist_oracle.rs` pins the images and the exact
//!   `flush_ranges` / `range_lines` counts against its word-by-word model.
//! * **The scratch is allocation-free in steady state.** It is grown once
//!   to the flush-queue capacity (the upper bound of any drained range) on
//!   a thread's first drain, so the commit path's zero-allocation guarantee
//!   holds through the batched pipeline.
//!
//! # The sharded, lock-free persistence domain
//!
//! Crafty's premise is that persistence tracking must never serialize the
//! HTM fast path, so the persist operations here are engineered the same
//! way:
//!
//! * **Per-thread single-owner flush queues.** Each thread slot owns a
//!   fixed-capacity ring of pending line ids ([`PmemConfig::flush_queue_capacity`]
//!   entries, allocated once at construction). Only the owning thread
//!   enqueues ([`MemorySpace::clwb`] with its own `tid`) and only the
//!   owning thread drains ([`MemorySpace::drain`] with its own `tid`), as
//!   on x86, where a CLWB is completed by the SFENCE of the core that
//!   issued it and by no other. The ring has two cursors, both written by
//!   the owner alone: `tail` (next enqueue) and `drained` (everything
//!   below it is durable). There is no mutex, CAS or wait on the flush
//!   path.
//! * **O(1) generation-stamped dedup.** Duplicate flushes of a pending line
//!   are absorbed by one *flush stamp* per persistent line, tagged with the
//!   enqueuing queue and its ring position: `(tid + 1) << 48 | (pos + 1)`
//!   (0 = never flushed). A queue skips a CLWB only when the stamp carries
//!   its own tag at or past its `drained` cursor, so the cursor acts as the
//!   stamp generation: a drain logically invalidates every stamp below it
//!   in O(1), exactly the generation-stamp discipline of
//!   [`crafty_common::genset`] (the design this table generalizes), with
//!   no `Vec::contains` scan. The skip needs no fence: the pending enqueue
//!   it relies on is drained by the same thread, after the stores that
//!   preceded the skipped flush in program order. The stamp is shared by
//!   every queue: a line last enqueued by another thread is queued again,
//!   so a line two threads flush in turn can sit twice in one drained
//!   range, and the drain writes it back once.
//! * **Drains.** [`MemorySpace::drain`] persists the pending range
//!   `[drained, tail)` and moves `drained` to the tail. Two queues' drains
//!   may write the same line back at once (a line both flushed); the
//!   line's dirty mask arbitrates that (see `persist_line`).
//! * **Ring overflow = early write-back.** If a queue is full, `clwb`
//!   writes the line back immediately instead of queueing it. Real hardware
//!   may complete a CLWB at any point before the fence, so persisting early
//!   is always legal; the event is counted in
//!   [`PmemStats::overflow_writebacks`].
//! * **Flat, page-granular line metadata.** Two dense tables hold the
//!   per-line state: one versioned lock word per line of the whole space
//!   (the HTM's, reached through [`MemorySpace::line_lock`]; packed
//!   alone because read-only transactions validate nothing else), and
//!   one `(dirty mask, flush stamp)` pair per persistent line (a commit's
//!   publication and its CLWB write the two together). Both are carved
//!   out of the volatile view's own allocation, behind its last word.
//! * **Demand-zero word arrays.** That allocation and the persistent
//!   image are zeroed memory no page of which is written before a store
//!   lands on it (in optimised builds; see `zeroed_words`), and
//!   [`MemorySpace::crash_with`] and [`MemorySpace::boot`] copy only
//!   non-zero words. A space, its metadata, its crash image and its
//!   reboot cost the pages the workload touched; a page's first-touch
//!   fault is paid at its first store, not in [`MemorySpace::new`]. The
//!   tables ride in the view's allocation rather than in their own
//!   because glibc raises its mmap threshold to the size of any freed
//!   mapped chunk up to 32 MiB: a program that builds spaces over and
//!   over would get each later table from the heap, which `calloc`
//!   zeroes page by page. The view's allocation is past that ceiling on
//!   every benchmark rig (40 MiB and up), so it is always a fresh mapping.
//!
//! * **Per-queue, single-writer statistics.** [`PmemStats`] is the sum of
//!   one cache-line-aligned set of plain [`OwnedCounter`] cells per flush
//!   queue, all bumped by the queue's owner (flushes, overflows and
//!   drains alike), plus a few shared cells for spontaneous evictions,
//!   which any thread may cause. No locked instruction counts a flush or
//!   a drain, and no increment can be lost
//!   (`crates/htm/tests/per_thread_counters.rs` runs four committing and
//!   draining threads and checks every total exactly).
//!
//! Concurrency contract: all methods are safe to call from any thread,
//! but the persist operations on one `tid` — `clwb(tid, ..)`,
//! `clwb_lines(tid, ..)`, `drain(tid)`, `persist(tid, ..)` and
//! `persist_ranges(tid, ..)` — must come from a single thread at a time:
//! the queue's owner. Every engine in the workspace follows this
//! discipline — a thread flushes and drains only its own slot, and the
//! NV-HTM checkpointer owns a dedicated slot. Setup code and the engines'
//! `quiesce` may drain any slot while no owner runs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crafty_common::trace::{self, TraceEventKind};
use crafty_common::wait;
use crafty_common::{mix64, LineId, OwnedCounter, PAddr, SplitMix64, WORDS_PER_LINE};

use crate::config::{CrashModel, LatencyModel, PmemConfig, NO_EVICTING_IMAGE};
use crate::image::PersistentImage;

/// Counters describing the persist traffic a run generated.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PmemStats {
    /// Number of drain (SFENCE-after-CLWB) operations performed.
    pub drains: u64,
    /// Number of cache-line flushes (CLWB) requested.
    pub flushes: u64,
    /// Number of lines written back to the persistent image by drains.
    pub lines_persisted: u64,
    /// Number of lines written back by spontaneous eviction.
    pub evictions: u64,
    /// Number of lines written back immediately because the issuing
    /// thread's flush queue was full (legal early CLWB completion).
    pub overflow_writebacks: u64,
    /// Number of words actually copied into the persistent image by
    /// write-backs (drains, evictions, and overflow write-backs): the
    /// numerator of the write-amplification ratio.
    pub words_persisted: u64,
    /// Number of words whole-line write-backs would have copied for the
    /// same events (the in-bounds line width, normally 8, per write-back):
    /// the denominator of the write-amplification ratio.
    pub line_words_persisted: u64,
    /// Number of ranged flushes issued by drains: one per maximal run of
    /// adjacent distinct drained lines. The gap between this and
    /// [`PmemStats::lines_persisted`] is the coalescing win — every run
    /// longer than one line saved a flush base cost.
    pub flush_ranges: u64,
    /// Number of distinct lines those ranged flushes covered.
    /// `range_lines / flush_ranges` is the average run length.
    pub range_lines: u64,
}

impl PmemStats {
    /// The traffic accumulated since an `earlier` snapshot of the same
    /// space (component-wise difference) — e.g. the steady-state portion
    /// of a benchmark, excluding setup/prefill persists.
    pub fn since(&self, earlier: &PmemStats) -> PmemStats {
        PmemStats {
            drains: self.drains - earlier.drains,
            flushes: self.flushes - earlier.flushes,
            lines_persisted: self.lines_persisted - earlier.lines_persisted,
            evictions: self.evictions - earlier.evictions,
            overflow_writebacks: self.overflow_writebacks - earlier.overflow_writebacks,
            words_persisted: self.words_persisted - earlier.words_persisted,
            line_words_persisted: self.line_words_persisted - earlier.line_words_persisted,
            flush_ranges: self.flush_ranges - earlier.flush_ranges,
            range_lines: self.range_lines - earlier.range_lines,
        }
    }

    /// Average number of adjacent lines each of the drains' ranged flushes
    /// covered (`range_lines / flush_ranges`): the measured coalescing
    /// efficiency. 1.0 means no two drained lines were ever adjacent;
    /// higher is better — each
    /// extra line in a run rode an already-paid flush base cost. Returns
    /// 1.0 when no ranged flush was issued.
    pub fn lines_per_range(&self) -> f64 {
        if self.flush_ranges == 0 {
            return 1.0;
        }
        self.range_lines as f64 / self.flush_ranges as f64
    }

    /// Measured write amplification of the persist traffic:
    /// `words_persisted / line_words_persisted`, i.e. the fraction of
    /// whole-line write-back bandwidth the word-granular pipeline actually
    /// used. 1.0 means every persisted line was fully dirty; a KV-style
    /// workload updating one or two words per 8-word line sits well below
    /// 0.5. Returns 1.0 when nothing was persisted.
    pub fn write_amplification(&self) -> f64 {
        if self.line_words_persisted == 0 {
            return 1.0;
        }
        self.words_persisted as f64 / self.line_words_persisted as f64
    }
}

/// One flush queue's share of the [`PmemStats`] counters. Plain
/// single-writer cells ([`OwnedCounter`]), all written by the queue's
/// owner (see the module docs for the one-thread-per-`tid` contract): the
/// persist path executes no locked instruction to count, and
/// [`MemorySpace::stats`] sums the queues.
#[derive(Default)]
struct QueueStats {
    flushes: OwnedCounter,
    overflow_writebacks: OwnedCounter,
    overflow_words: OwnedCounter,
    overflow_line_words: OwnedCounter,
    drains: OwnedCounter,
    lines_persisted: OwnedCounter,
    words_persisted: OwnedCounter,
    line_words_persisted: OwnedCounter,
    flush_ranges: OwnedCounter,
    range_lines: OwnedCounter,
}

/// Counters for the one event that has no exclusive writer: spontaneous
/// evictions (any thread, any line). They are off the commit path, so a
/// shared RMW is affordable.
#[derive(Default)]
struct SharedStats {
    evictions: AtomicU64,
    evicted_words: AtomicU64,
    evicted_line_words: AtomicU64,
}

/// What one drain's write-back of its pending range amounted to.
#[derive(Default)]
struct DrainSums {
    cost_ns: u64,
    words: u64,
    line_words: u64,
    ranges: u64,
    range_lines: u64,
}

/// One thread slot's pending-flush state. See the module docs for the
/// design: the owner thread alone writes every field, and other threads
/// only read the cursors (e.g. [`MemorySpace::pending_flushes`]). Aligned
/// so that neighbouring queues' cursors and counters never share a cache
/// line.
#[repr(align(128))]
struct FlushQueue {
    /// Ring of pending line ids; absolute position `p` lives in slot
    /// `p & (capacity - 1)`. Allocated eagerly (it is small and hot) so the
    /// steady-state flush path never allocates.
    slots: Box<[AtomicU64]>,
    /// Next absolute enqueue position.
    tail: AtomicU64,
    /// Positions below this have been persisted by a drain (their ring
    /// slots are reusable). Doubles as the flush-stamp generation cursor.
    drained: AtomicU64,
    stats: QueueStats,
}

impl FlushQueue {
    fn new(capacity: usize) -> Self {
        FlushQueue {
            slots: (0..capacity).map(|_| AtomicU64::new(0)).collect(),
            tail: AtomicU64::new(0),
            drained: AtomicU64::new(0),
            stats: QueueStats::default(),
        }
    }

    #[inline]
    fn slot(&self, pos: u64) -> &AtomicU64 {
        &self.slots[(pos & (self.slots.len() as u64 - 1)) as usize]
    }

    /// Lines enqueued but not yet drained — what the SFENCE paths
    /// (`HtmRuntime::begin`) check to decide whether a drain is needed.
    #[inline]
    fn pending(&self) -> u64 {
        let tail = self.tail.load(Ordering::Acquire);
        tail.saturating_sub(self.drained.load(Ordering::Acquire))
    }
}

/// The simulated memory system shared by all engines and workloads.
///
/// See the module documentation for the model and for the lock-free
/// persistence-domain design. Flush queues are indexed by the
/// caller-supplied thread id; each id's enqueues and drains come from one
/// thread at a time, its owner.
///
/// # Example: reserve → write → drain
///
/// The canonical persist operation — a store reaches the persistent image
/// only after its line is flushed (CLWB) *and* the flush is drained
/// (SFENCE):
///
/// ```
/// use crafty_pmem::{MemorySpace, PmemConfig};
///
/// let mem = MemorySpace::new(PmemConfig::small_for_tests());
/// let slot = mem.reserve_persistent(1); // line-aligned reservation
/// mem.write(slot, 42);
///
/// // Written but neither flushed nor drained: not durable yet.
/// assert_eq!(mem.read(slot), 42);
/// assert_eq!(mem.read_persisted(slot), 0);
///
/// mem.clwb(0, slot);     // request the write-back on thread 0's queue
/// assert_eq!(mem.read_persisted(slot), 0); // still pending
/// mem.drain(0);          // SFENCE: complete thread 0's flushes
/// assert_eq!(mem.read_persisted(slot), 42);
/// assert_eq!(mem.crash().read(slot), 42); // survives a power failure
/// ```
pub struct MemorySpace {
    cfg: PmemConfig,
    /// One demand-zero allocation of three tables, in this order:
    /// * the volatile view, one word per word of the space;
    /// * from `lock_base`, one versioned lock word per line of the space
    ///   ([`MemorySpace::line_lock`]);
    /// * from `pairs_base` to the end, one `(dirty mask, flush stamp)`
    ///   pair per persistent line. The mask's bit `i` = word `i` stored
    ///   since the line's last write-back (0 = clean; it doubles as the
    ///   dirty flag). The stamp is the flush queues' dedup tag,
    ///   `stamp_tag(tid) | (pos + 1)` of the latest enqueue.
    words: Box<[AtomicU64]>,
    lock_base: usize,
    pairs_base: usize,
    persistent_image: Box<[AtomicU64]>,
    flush_queues: Box<[FlushQueue]>,
    /// Reservation cursors (word indices). Plain atomics: reservations are
    /// rare (setup-time) but formerly shared a mutex with the store hot
    /// path.
    reserve_persistent: AtomicU64,
    reserve_volatile: AtomicU64,
    /// Striped eviction-sampling RNG states, each a SplitMix64 stream
    /// seeded from this space's crash-model seed (see
    /// [`MemorySpace::evict_chance`]).
    evict_stripes: Box<[AtomicU64]>,
    shared_stats: SharedStats,
    /// Persistence-step counter for deterministic fault injection: every
    /// durability-relevant event (store to pmem, CLWB enqueue, drain start,
    /// per-line persist, SFENCE) ticks this clock when the configured
    /// [`FaultPlan`](crate::FaultPlan) is armed. Disarmed plans cost one
    /// predictable branch per event.
    fault_step: AtomicU64,
    /// Crash image captured when the fault clock hits the plan's
    /// `crash_at_step` tick. Taken (once) via
    /// [`MemorySpace::take_fault_image`].
    fault_image: Mutex<Option<PersistentImage>>,
    /// Per-thread trace-event tails frozen at the same tick as
    /// `fault_image`, so a torture failure report can show what every
    /// thread was doing right before the injected crash. Empty unless the
    /// trace subsystem was at `Events` level when the trap fired.
    fault_trace: Mutex<Vec<trace::ThreadTrace>>,
    /// Set (and never cleared) the instant the fault trap fires. Cheap to
    /// poll, unlike the image mutex, so a live service can use it as a
    /// *power rail*: the run continues past the non-destructive trap, and
    /// any durability ack issued after this flag rises would be promising
    /// state the captured crash image does not contain.
    fault_tripped: AtomicBool,
    /// Set once the trap's image capture has finished. Between the trip
    /// and this flag, every *other* thread that reaches a fault tick parks
    /// (see [`MemorySpace::fault_tick_armed`]): the capture loop photographs
    /// the whole space word by word, and a concurrently running thread
    /// could otherwise complete further transactions *during* the
    /// photograph — leaking post-crash state into some regions of the
    /// image while others (already photographed) predate it, a torn,
    /// causally impossible crash state no real power failure can produce.
    fault_capture_done: AtomicBool,
}

/// Where a flush stamp's queue tag starts: the bits below hold a ring
/// position (`pos + 1`), the bits from here `tid + 1`.
const STAMP_TAG_SHIFT: u32 = 48;

/// The ring-position bits of a flush stamp.
const STAMP_POS: u64 = (1 << STAMP_TAG_SHIFT) - 1;

/// Thread `tid`'s queue tag, the high bits of every flush stamp it writes.
#[inline]
fn stamp_tag(tid: usize) -> u64 {
    (tid as u64 + 1) << STAMP_TAG_SHIFT
}

/// Set in a line's dirty mask while a write-back copies the words it took
/// from the mask (see `persist_line`). Above every word's bit, so the
/// crash models, which read only those, never see it.
const WRITING_BACK: u64 = 1 << 63;

/// `n` zero words as demand-zero memory. `vec![0u64; n]` is a zeroed
/// allocation (large ones come straight from the kernel's zero pages), and
/// mapping it into `AtomicU64` — same size, same alignment — collects in
/// place into a `Vec`: optimised builds drop the identity loop, so no page
/// is written until a store lands on it and a space costs what the
/// workload touches. (Collecting straight into a `Box<[_]>` writes every
/// page.) Unoptimised builds run the loop and touch every page; nothing
/// but the footprint depends on which happens, and the release-only
/// `tests/demand_zero_footprint.rs` pins the optimised form.
fn zeroed_words(n: usize) -> Box<[AtomicU64]> {
    vec![0u64; n]
        .into_iter()
        .map(AtomicU64::new)
        .collect::<Vec<_>>()
        .into_boxed_slice()
}

/// Whether `word`, still dirty at a crash resolved under `model`, reaches
/// the image with its volatile value: one coin from the word's own stream,
/// keyed by `(model.seed, word)`, so the outcome does not depend on which
/// other words are dirty or on the order they are visited.
fn dirty_word_persists(model: &CrashModel, word: u64) -> bool {
    SplitMix64::new(model.seed ^ 0xC2A5_11FE ^ mix64(word))
        .chance(model.dirty_word_persist_probability)
}

/// Stripe count for eviction sampling; lines hash onto stripes, so
/// unrelated lines rarely contend on the same stream.
const EVICT_STRIPES: usize = 64;

impl std::fmt::Debug for MemorySpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySpace")
            .field("persistent_words", &self.cfg.persistent_words)
            .field("volatile_words", &self.cfg.volatile_words)
            .field("max_threads", &self.cfg.max_threads)
            .finish()
    }
}

impl MemorySpace {
    /// Creates a zero-initialized memory space. Its word arrays are
    /// demand-zero (see `zeroed_words`): in an optimised build no page of
    /// them is written here, each is faulted in by its first store.
    pub fn new(cfg: PmemConfig) -> Self {
        assert!(
            cfg.max_threads < 1 << (64 - STAMP_TAG_SHIFT),
            "a flush stamp tags at most 2^16 - 1 threads"
        );
        let total = cfg.total_words() as usize;
        let persistent = cfg.persistent_words as usize;
        let line = WORDS_PER_LINE as usize;
        let pairs_base = total + total.div_ceil(line);
        let queue_capacity = cfg.flush_queue_capacity.next_power_of_two().max(2);
        MemorySpace {
            words: zeroed_words(pairs_base + 2 * persistent.div_ceil(line)),
            lock_base: total,
            pairs_base,
            persistent_image: zeroed_words(persistent),
            flush_queues: (0..cfg.max_threads)
                .map(|_| FlushQueue::new(queue_capacity))
                .collect(),
            reserve_persistent: AtomicU64::new(WORDS_PER_LINE), // word 0 / line 0 reserved
            reserve_volatile: AtomicU64::new(cfg.persistent_words),
            evict_stripes: (0..EVICT_STRIPES as u64)
                .map(|i| {
                    AtomicU64::new(
                        cfg.crash.seed ^ 0xE51C_7A0D ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    )
                })
                .collect(),
            shared_stats: SharedStats::default(),
            fault_step: AtomicU64::new(0),
            fault_image: Mutex::new(None),
            fault_trace: Mutex::new(Vec::new()),
            fault_tripped: AtomicBool::new(false),
            fault_capture_done: AtomicBool::new(false),
            cfg,
        }
    }

    /// Creates a memory space whose persistent region is initialized from a
    /// recovered [`PersistentImage`] — the post-restart state of the
    /// machine. The volatile region is zeroed and reservation cursors are
    /// reset; callers re-establish their layout exactly as a restarted
    /// program would.
    pub fn boot(image: &PersistentImage, cfg: PmemConfig) -> Self {
        assert_eq!(
            image.len_words(),
            cfg.persistent_words,
            "image size must match the configured persistent region"
        );
        let space = MemorySpace::new(cfg);
        // The fresh space already reads zero everywhere: storing only the
        // image's non-zero words leaves every page the image never wrote
        // untouched (see `zeroed_words`).
        for (w, &v) in image.as_words().iter().enumerate() {
            if v != 0 {
                space.words[w].store(v, Ordering::Relaxed);
                space.persistent_image[w].store(v, Ordering::Relaxed);
            }
        }
        space
    }

    /// Returns the configuration this space was built with.
    pub fn config(&self) -> &PmemConfig {
        &self.cfg
    }

    /// Number of words in the persistent region.
    pub fn persistent_words(&self) -> u64 {
        self.cfg.persistent_words
    }

    /// Returns true if `addr` lies in the persistent region.
    #[inline]
    pub fn is_persistent(&self, addr: PAddr) -> bool {
        addr.word() < self.cfg.persistent_words
    }

    fn check_bounds(&self, addr: PAddr) {
        if addr.word() >= self.cfg.total_words() {
            self.out_of_bounds(addr);
        }
    }

    #[cold]
    fn out_of_bounds(&self, addr: PAddr) -> ! {
        panic!(
            "address {addr} out of bounds (total {} words)",
            self.cfg.total_words()
        )
    }

    /// Reads the word at `addr` from the volatile view (what the CPU sees).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds.
    #[inline]
    pub fn read(&self, addr: PAddr) -> u64 {
        // The line tables follow the view in its allocation, so the view's
        // end is checked here, not the allocation's.
        let w = addr.word();
        if w >= self.lock_base as u64 {
            self.out_of_bounds(addr);
        }
        self.words[w as usize].load(Ordering::Acquire)
    }

    /// The versioned lock word of `line`, a line anywhere in the space: 0
    /// until first written. The space only stores these words; their
    /// encoding and protocol belong to the conflict detection built on
    /// them (`crafty-htm`'s runtime), which must start from a space whose
    /// lock words no other runtime has versioned. They sit densely apart
    /// from the persistent lines' metadata, so a read-only transaction's
    /// version checks touch only them.
    ///
    /// # Panics
    ///
    /// Panics if `line` is past the end of the space.
    #[inline]
    pub fn line_lock(&self, line: LineId) -> &AtomicU64 {
        let i = line.index();
        if i >= (self.pairs_base - self.lock_base) as u64 {
            self.out_of_bounds(line.first_word());
        }
        &self.words[self.lock_base + i as usize]
    }

    /// The dirty-word mask of persistent `line`.
    #[inline]
    fn dirty_mask(&self, line: LineId) -> &AtomicU64 {
        &self.words[self.pairs_base + 2 * line.index() as usize]
    }

    /// The flush stamp of persistent `line`: `stamp_tag(tid) | (pos + 1)`
    /// of its latest enqueue, on whichever queue; 0 if never enqueued.
    #[inline]
    fn stamp(&self, line: LineId) -> &AtomicU64 {
        &self.words[self.pairs_base + 2 * line.index() as usize + 1]
    }

    /// Marks `addr`'s word dirty in its line's mask. Must happen *after*
    /// the data store: a concurrent write-back that swaps the mask out
    /// before this OR lands re-dirties the word, so the next write-back or
    /// crash still covers the new value (the OR-after-store order makes the
    /// unmasked ⇒ views-identical invariant race-free; the reverse order
    /// could persist a stale value and then drop the bit).
    #[inline]
    fn mark_written(&self, addr: PAddr) {
        self.dirty_mask(addr.line())
            .fetch_or(1 << (addr.word() % WORDS_PER_LINE), Ordering::AcqRel);
    }

    /// Writes `value` to the word at `addr` in the volatile view.
    ///
    /// If `addr` is persistent its word is marked in the containing line's
    /// dirty mask and the line may be spontaneously evicted to the
    /// persistent image, per the crash model.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds.
    #[inline]
    pub fn write(&self, addr: PAddr, value: u64) {
        self.check_bounds(addr);
        self.words[addr.word() as usize].store(value, Ordering::Release);
        if self.is_persistent(addr) {
            self.mark_written(addr);
            let line = addr.line();
            let p = self.cfg.crash.eviction_probability;
            if p > 0.0 && self.evict_chance(line, p) {
                self.evict(line);
            }
            self.fault_tick();
        }
    }

    /// Publishes a line's worth of stores at once: for every bit `i` set in
    /// `mask`, word `i` of `line` takes `words[i]` — what that many
    /// [`MemorySpace::write`] calls would do, except that the line's dirty
    /// mask is ORed **once**, after the last data store (the same
    /// OR-after-store order `mark_written` relies on), instead of once per
    /// word. The fault clock still ticks once per persistent store, after
    /// the mask is in place, and each store still draws its own eviction
    /// coin (the write-back, if any coin comes up, happens once, after the
    /// whole line is stored). This is the hardware-transaction commit's
    /// publication step: a transaction that wrote five words of a line
    /// pays one locked instruction for it, not five.
    ///
    /// # Panics
    ///
    /// Panics if a masked word is out of bounds.
    pub fn write_line(&self, line: LineId, words: &[u64; WORDS_PER_LINE as usize], mask: u8) {
        if mask == 0 {
            return;
        }
        let base = line.first_word();
        self.check_bounds(base.add(u64::from(mask.ilog2())));
        for i in 0..WORDS_PER_LINE {
            if mask & (1 << i) != 0 {
                self.words[(base.word() + i) as usize].store(words[i as usize], Ordering::Release);
            }
        }
        // The persistent words among them (a line straddles the boundary
        // only when the region size is not a multiple of the line size).
        let persistent_words = self.cfg.persistent_words.saturating_sub(base.word());
        let pmask = if persistent_words >= WORDS_PER_LINE {
            mask
        } else {
            mask & ((1u8 << persistent_words) - 1)
        };
        if pmask == 0 {
            return;
        }
        self.dirty_mask(line)
            .fetch_or(u64::from(pmask), Ordering::AcqRel);
        let stores = pmask.count_ones();
        let p = self.cfg.crash.eviction_probability;
        if p > 0.0 && (0..stores).filter(|_| self.evict_chance(line, p)).count() > 0 {
            self.evict(line);
        }
        for _ in 0..stores {
            self.fault_tick();
        }
    }

    /// Spontaneously writes `line` back (the crash model's eviction).
    #[cold]
    fn evict(&self, line: LineId) {
        let (words, line_words) = self.persist_line(line);
        let shared = &self.shared_stats;
        shared.evictions.fetch_add(1, Ordering::Relaxed);
        shared.evicted_words.fetch_add(words, Ordering::Relaxed);
        shared
            .evicted_line_words
            .fetch_add(line_words, Ordering::Relaxed);
    }

    /// Draws one eviction-sampling coin flip from one of this space's
    /// striped SplitMix64 streams, lock-free. SplitMix64 advances its state
    /// by a constant, so a single `fetch_add` *is* the stream step — no
    /// mutex is taken on the store hot path (the old implementation locked
    /// a global `Mutex<SplitMix64>` on every probabilistic store).
    ///
    /// The stripe is chosen by the *written line*, not the calling thread,
    /// so sampling is a pure function of the space's crash-model seed and
    /// the per-stripe draw order: a single-threaded run replays exactly
    /// given the same seed (no process-global state is involved). With
    /// several threads storing to lines of one stripe concurrently, the
    /// interleaving of their draws is scheduling-dependent — as it already
    /// was for the old single global stream under concurrency.
    fn evict_chance(&self, line: LineId, p: f64) -> bool {
        let stripe =
            (line.index().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) as usize % EVICT_STRIPES;
        // SplitMix64's state step is `state += GOLDEN`; fetch_add returns
        // the previous state, and `chance` performs the same step before
        // mixing, so consecutive draws on a stripe reproduce the seeded
        // stream exactly.
        let prev = self.evict_stripes[stripe].fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed);
        SplitMix64::new(prev).chance(p)
    }

    /// Atomically compare-and-swap the word at `addr` in the volatile view.
    /// Used for lock words (e.g. the single global lock) that live in the
    /// simulated memory. Returns the previous value on success, or the
    /// observed value on failure, matching [`AtomicU64::compare_exchange`].
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds.
    pub fn compare_exchange(&self, addr: PAddr, current: u64, new: u64) -> Result<u64, u64> {
        self.check_bounds(addr);
        let r = self.words[addr.word() as usize].compare_exchange(
            current,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        );
        if r.is_ok() && self.is_persistent(addr) {
            self.mark_written(addr);
        }
        r
    }

    /// Requests a write-back (CLWB) of the line containing `addr`. The line
    /// is persisted when thread `tid`'s queue next drains. Flushing a
    /// volatile address is a no-op, as on real hardware where it simply
    /// would not reach a persistence domain.
    ///
    /// A one-line [`MemorySpace::clwb_lines`]; see there for the queue
    /// protocol and the single-thread-per-`tid` contract.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of bounds or `tid >= max_threads`.
    pub fn clwb(&self, tid: usize, addr: PAddr) {
        self.check_bounds(addr);
        if self.is_persistent(addr) {
            self.clwb_lines(tid, std::iter::once(addr.line()));
        }
    }

    /// Requests write-backs (CLWBs) of a batch of lines on thread `tid`'s
    /// queue, at most one queue slot per line; volatile lines are skipped.
    /// Returns the number of persistent lines requested.
    ///
    /// Lock-free and O(1) per line: a per-line generation stamp absorbs
    /// flushes of a line still pending on this queue, and an enqueue is
    /// three plain atomic stores. Calls for one `tid` must come from its
    /// owner (see the module docs); every `tid` may flush concurrently
    /// with every other.
    ///
    /// # Panics
    ///
    /// Panics if a line is out of bounds or `tid >= max_threads`.
    pub fn clwb_lines(&self, tid: usize, lines: impl IntoIterator<Item = LineId>) -> u64 {
        let q = &self.flush_queues[tid];
        let tag = stamp_tag(tid);
        let drained = q.drained.load(Ordering::Relaxed);
        let mut requested = 0u64;
        for line in lines {
            self.check_bounds(line.first_word());
            if !self.is_persistent(line.first_word()) {
                continue;
            }
            requested += 1;
            self.fault_tick();
            let stamp = self.stamp(line);
            let s = stamp.load(Ordering::Relaxed);
            if s & !STAMP_POS == tag && s & STAMP_POS > drained {
                // The stamp carries this queue's tag, so it is this queue's
                // latest enqueue of the line: every queue writes the stamp
                // of a line it enqueues, and once another queue has, this
                // thread reads that stamp or a later one (coherence orders
                // this thread's own stores before it), never its own older
                // tag. A stamp tagged by another queue, or 0, enqueues the
                // line here as well. That enqueue is not drained yet, and
                // the drain that will persist it is this thread's, after
                // every store that preceded this flush: it covers this
                // flush too.
                continue;
            }
            let pos = q.tail.load(Ordering::Relaxed);
            if pos - drained >= q.slots.len() as u64 {
                // Ring full: complete the write-back immediately. CLWB may
                // finish at any point before the fence on real hardware, so an
                // early write-back is always legal; it is just not
                // deduplicated, and — unlike an asynchronous eviction — the
                // issuing thread is stalled on the full buffer, so it pays the
                // per-word media-write cost here instead of at a later drain.
                let issued = self.issue_time();
                let (words, line_words) = self.persist_line(line);
                q.stats.overflow_writebacks.add(1);
                q.stats.overflow_words.add(words);
                q.stats.overflow_line_words.add(line_words);
                wait::deadline(issued, self.cfg.latency.clwb_range(1, words));
                continue;
            }
            q.slot(pos).store(line.index(), Ordering::Relaxed);
            // Release: a drain on another thread (setup, `quiesce`) reads
            // the slot after its Acquire load of the tail.
            q.tail.store(pos + 1, Ordering::Release);
            stamp.store(tag | (pos + 1), Ordering::Relaxed);
            trace::record(tid, TraceEventKind::Enqueue, line.index());
        }
        q.stats.flushes.add(requested);
        requested
    }

    /// Completes all of thread `tid`'s outstanding flushes (SFENCE).
    /// Returns the number of lines this call persisted.
    ///
    /// The call *lasts* what the latency model says a drain costs —
    /// [`LatencyModel::drain_ns`] plus one [`LatencyModel::clwb_range`] per
    /// run written back — measured from entry: the write-backs are the
    /// simulator standing in for work the hardware does during that round
    /// trip, so they run inside the modelled time rather than before it.
    ///
    /// Only `tid`'s owner drains its queue, as only a core's own SFENCE
    /// completes its CLWBs; setup code and `quiesce` may drain any slot
    /// while no owner runs (see the module docs).
    ///
    /// The pending lines are written back as coalesced ranged flushes —
    /// see the module docs ("Batched drains") for the pipeline and the
    /// latency accounting.
    ///
    /// A [`MemorySpace::drain_warming`] with no lines to warm.
    ///
    /// # Panics
    ///
    /// Panics if `tid >= max_threads`.
    #[inline]
    pub fn drain(&self, tid: usize) -> u64 {
        self.drain_warming(tid, &mut std::iter::empty())
    }

    /// [`MemorySpace::drain`], which also loads the dirty mask of each
    /// persistent line in `lines` after its write-backs and before its
    /// modelled time runs out: a commit that publishes to those lines
    /// right after this fence then ORs into masks already in the cache,
    /// and the miss it would have paid there is paid inside the wait.
    ///
    /// The warm is plain loads and nothing else: no count, fault-clock
    /// tick or trace event; volatile lines, lines past the space and
    /// repeats are skipped or harmless. Under the `instant` latency model
    /// there is no wait to fill, and `lines` is not walked. The lines come
    /// as a trait object so that every drain runs one copy of this code:
    /// the iterator's calls are made inside the wait.
    ///
    /// # Panics
    ///
    /// Panics if `tid >= max_threads`.
    pub fn drain_warming(&self, tid: usize, lines: &mut dyn Iterator<Item = LineId>) -> u64 {
        let issued = self.issue_time();
        let q = &self.flush_queues[tid];
        let drained = q.drained.load(Ordering::Relaxed);
        let target = q.tail.load(Ordering::Acquire);
        let count = target - drained;
        let mut cost_ns = 0u64;
        if count > 0 {
            self.fault_tick();
            let sums = self.persist_pending(tid, q, drained, target);
            cost_ns = sums.cost_ns;
            q.stats.lines_persisted.add(count);
            q.stats.words_persisted.add(sums.words);
            q.stats.line_words_persisted.add(sums.line_words);
            q.stats.flush_ranges.add(sums.ranges);
            q.stats.range_lines.add(sums.range_lines);
            q.drained.store(target, Ordering::Release);
        }
        q.stats.drains.add(1);
        self.fault_tick();
        if issued.is_some() {
            self.warm_masks(lines);
        }
        wait::deadline(issued, self.cfg.latency.drain_ns + cost_ns);
        trace::record(tid, TraceEventKind::Drain, count);
        count
    }

    /// Loads the dirty mask of every persistent line in `lines` and drops
    /// the value: the line's `(dirty mask, flush stamp)` pair is then in
    /// this core's cache for the publication that ORs into it next. The
    /// load is `Relaxed` and orders nothing; `black_box` keeps it.
    fn warm_masks(&self, lines: &mut dyn Iterator<Item = LineId>) {
        for line in lines {
            if self.is_persistent(line.first_word()) {
                std::hint::black_box(self.dirty_mask(line).load(Ordering::Relaxed));
            }
        }
    }

    /// Batched write-back: snapshots the pending
    /// positions' line ids into a reusable thread-local scratch buffer,
    /// sorts them, and walks maximal runs of adjacent line ids — performing
    /// every run's masked word copies, then charging one
    /// [`crate::LatencyModel::clwb_range`] for the whole run. The runs
    /// exactly partition the drained range's distinct lines: each is
    /// persisted exactly once. A line can sit twice in one range when
    /// another thread enqueued it between this queue's two enqueues (the
    /// flush stamp then carried the other queue's tag); its second
    /// position is skipped, so it adds to neither the run nor its cost.
    /// Returns what was written and its accumulated flush cost.
    fn persist_pending(&self, tid: usize, q: &FlushQueue, from: u64, target: u64) -> DrainSums {
        thread_local! {
            /// Per-thread drain scratch: pending line ids awaiting the
            /// coalescing sort. Grown once to the queue capacity (the upper
            /// bound of any drained range), so steady-state drains stay
            /// allocation-free — the guarantee the counting-allocator tests
            /// enforce across the whole commit path.
            static DRAIN_SCRATCH: std::cell::RefCell<Vec<u64>> =
                const { std::cell::RefCell::new(Vec::new()) };
        }
        DRAIN_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            scratch.clear();
            let want = q.slots.len();
            if scratch.capacity() < want {
                scratch.reserve_exact(want);
            }
            for pos in from..target {
                scratch.push(q.slot(pos).load(Ordering::Relaxed));
            }
            scratch.sort_unstable();
            let mut sums = DrainSums::default();
            let mut i = 0usize;
            while i < scratch.len() {
                let mut prev = scratch[i];
                let mut run_lines = 1u64;
                let (mut run_words, mut run_line_words) = self.persist_line(LineId::new(prev));
                i += 1;
                while i < scratch.len() {
                    let id = scratch[i];
                    if id == prev {
                        i += 1; // never persist a line twice
                        continue;
                    }
                    if id != prev + 1 {
                        break;
                    }
                    let (words, line_words) = self.persist_line(LineId::new(id));
                    run_words += words;
                    run_line_words += line_words;
                    run_lines += 1;
                    prev = id;
                    i += 1;
                }
                sums.cost_ns += self.cfg.latency.clwb_range(run_lines, run_words);
                sums.words += run_words;
                sums.line_words += run_line_words;
                sums.ranges += 1;
                sums.range_lines += run_lines;
                trace::record(tid, TraceEventKind::RangedClwb, run_lines);
            }
            sums
        })
    }

    /// Convenience: flush the line of `addr` and drain immediately (a full
    /// persist operation for one location).
    pub fn persist(&self, tid: usize, addr: PAddr) {
        self.clwb(tid, addr);
        self.drain(tid);
    }

    /// Bulk persist: flushes every line overlapping the word ranges
    /// `(start, words)` on thread `tid`'s queue and returns once all of
    /// them are durable.
    ///
    /// A whole-table write-back (a store's `persist_all`) can be far longer
    /// than the flush ring, and a CLWB into a full ring is a synchronous
    /// early write-back (see [`MemorySpace::clwb_lines`]). So this drains
    /// whenever the ring is full, keeping every line on the queued path
    /// that drains coalesce into ranged flushes, and drains once more at
    /// the end.
    ///
    /// # Panics
    ///
    /// Panics if a range is out of bounds or `tid >= max_threads`.
    pub fn persist_ranges(&self, tid: usize, ranges: &[(PAddr, u64)]) {
        let q = &self.flush_queues[tid];
        let capacity = q.slots.len() as u64;
        for &(start, words) in ranges {
            if words == 0 {
                continue;
            }
            let first = start.line().index();
            let last = start.add(words - 1).line().index();
            for line in first..=last {
                if q.pending() >= capacity {
                    self.drain(tid);
                }
                self.clwb_lines(tid, std::iter::once(LineId::new(line)));
            }
        }
        self.drain(tid);
    }

    /// Number of lines queued by `tid` and not yet persisted by a drain.
    #[inline]
    pub fn pending_flushes(&self, tid: usize) -> usize {
        self.flush_queues[tid].pending() as usize
    }

    /// The clock at the issue of a persist operation whose modelled cost
    /// [`wait::deadline`] will wait out — or `None`, without reading the
    /// clock, when the latency model charges nothing at all. Whatever the
    /// simulator's own write-back bookkeeping costs after the issue counts
    /// toward the modelled latency, so an operation lasts at least what
    /// [`LatencyModel`] says it costs, and about one clock read more.
    #[inline]
    fn issue_time(&self) -> Option<Instant> {
        (self.cfg.latency != LatencyModel::instant()).then(Instant::now)
    }

    /// Completes a write-back of `line`: atomically takes the line's
    /// dirty-word mask and copies exactly the masked words from the
    /// volatile view into the persistent image. Returns `(words copied,
    /// in-bounds line width)` — `(0, 0)` for a clean line, whose views are
    /// already identical — for the caller to account: drains and ring
    /// overflows into their queue's cells, evictions into the shared ones.
    ///
    /// Taking the mask *before* copying means a store racing this
    /// write-back either lands its value in time to be copied or re-ORs
    /// its bit after the take and stays dirty — no combination loses a
    /// word (see `mark_written`). The take leaves [`WRITING_BACK`] in the
    /// mask until the copy is done, and a write-back that finds it set
    /// waits: otherwise a drain whose line another thread's write-back (an
    /// eviction, or another queue's drain of a line both flushed) had
    /// just taken would find it clean and return — its SFENCE complete —
    /// before that copy reached the image. The bit's clearing
    /// is a release that the waiter's acquire load pairs with, so the
    /// copy is visible to a waiter that sees the bit gone.
    fn persist_line(&self, line: LineId) -> (u64, u64) {
        let slot = self.dirty_mask(line);
        let mut seen = slot.load(Ordering::Acquire);
        let dirty = loop {
            if seen & WRITING_BACK != 0 {
                wait::yield_now();
                seen = slot.load(Ordering::Acquire);
                continue;
            }
            if seen == 0 {
                return (0, 0);
            }
            match slot.compare_exchange_weak(
                seen,
                WRITING_BACK,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break seen,
                Err(now) => seen = now,
            }
        };
        // Only the line straddling the end of the persistent region is
        // narrower than a full line; dirty bits past it are dropped.
        let base = line.first_word().word();
        let line_words = WORDS_PER_LINE.min(self.cfg.persistent_words.saturating_sub(base));
        let mut mask = dirty & ((1 << line_words) - 1);
        let words = u64::from(mask.count_ones());
        while mask != 0 {
            let w = (base + u64::from(mask.trailing_zeros())) as usize;
            let v = self.words[w].load(Ordering::Acquire);
            self.persistent_image[w].store(v, Ordering::Release);
            mask &= mask - 1;
        }
        slot.fetch_and(!WRITING_BACK, Ordering::Release);
        self.fault_tick();
        (words, line_words)
    }

    /// Reads the *persistent image* (not the volatile view) at `addr`.
    /// Useful in tests to check what would survive a crash right now,
    /// without actually crashing.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a persistent address.
    pub fn read_persisted(&self, addr: PAddr) -> u64 {
        assert!(self.is_persistent(addr), "{addr} is not persistent");
        self.persistent_image[addr.word() as usize].load(Ordering::Acquire)
    }

    /// Simulates a crash / power failure and returns the memory a recovery
    /// observer would find after restart.
    ///
    /// Words already written back are present exactly. Every still-dirty
    /// (masked) word is resolved individually: it keeps its persisted value
    /// or takes its latest volatile value with
    /// [`CrashModel::dirty_word_persist_probability`]. Only masked words
    /// are considered — clean words hold the same value in both views, so
    /// the crash state is exact over the words actually written. The
    /// volatile region is lost entirely.
    pub fn crash(&self) -> PersistentImage {
        self.resolve_crash(&self.cfg.crash)
    }

    /// Like [`MemorySpace::crash`], with an explicit crash model (e.g. to
    /// sweep the persist probability in property tests).
    ///
    /// The image reads only the model's dirty-word lottery. Evictions
    /// happen during a run, under the space's own model, so a model that
    /// evicts is refused here rather than silently resolved as
    /// [`CrashModel::relaxed`] with the same seed.
    ///
    /// Each dirty word's persist coin comes from its own seeded stream,
    /// keyed by `(model.seed, word index)`: the resolution of one word is
    /// independent of how many other words are dirty or in which order the
    /// masks are walked.
    ///
    /// The copy is word by word and stops nobody: on a space that other
    /// threads are writing it returns a smear no power failure produces
    /// (the logs copied before the data: a KV migration step's in-place
    /// writes without their undo entries). Call it on a quiet space. To
    /// crash a space under load, arm [`FaultPlan::crash_at`](crate::FaultPlan::crash_at),
    /// as the `service` torture suite does: its capture parks every other
    /// thread's next persistence step until the image is complete.
    pub fn crash_with(&self, model: CrashModel) -> PersistentImage {
        assert!(model.eviction_probability == 0.0, "{NO_EVICTING_IMAGE}");
        self.resolve_crash(&model)
    }

    /// The image a crash resolved under `model`'s dirty-word lottery
    /// leaves (see [`MemorySpace::crash_with`]).
    fn resolve_crash(&self, model: &CrashModel) -> PersistentImage {
        let words = self.cfg.persistent_words;
        // A zeroed allocation, like the space's own views: copying only
        // the non-zero words keeps the image as small as what was written.
        let mut image = vec![0u64; words as usize];
        for (dst, src) in image.iter_mut().zip(self.persistent_image.iter()) {
            let v = src.load(Ordering::Acquire);
            if v != 0 {
                *dst = v;
            }
        }
        // Every other word of the pair table is a line's dirty mask; loads
        // of never-written pages write nothing.
        let masks = self.words[self.pairs_base..].iter().step_by(2);
        for (line_idx, mask) in masks.enumerate() {
            let mask = mask.load(Ordering::Acquire);
            if mask == 0 {
                continue;
            }
            for (i, addr) in LineId::new(line_idx as u64).words().enumerate() {
                if addr.word() >= words {
                    break;
                }
                if mask & (1 << i) == 0 {
                    continue;
                }
                if dirty_word_persists(model, addr.word()) {
                    image[addr.word() as usize] =
                        self.words[addr.word() as usize].load(Ordering::Acquire);
                }
            }
        }
        PersistentImage::from_words(image)
    }

    /// Advances the fault clock by one persistence step and, when the
    /// armed [`FaultPlan`](crate::FaultPlan) names this step, captures the
    /// crash image of this exact moment. The run then *continues* — the
    /// trap is non-destructive, so a driver replays a deterministic
    /// workload once per step and harvests the image afterwards with
    /// [`MemorySpace::take_fault_image`].
    ///
    /// Disarmed plans (the default) return after a single predictable
    /// branch, keeping the hot path cost-free.
    #[inline]
    fn fault_tick(&self) {
        if !self.cfg.fault.armed {
            return;
        }
        self.fault_tick_armed();
    }

    /// Cold half of [`MemorySpace::fault_tick`], kept out of line so the
    /// disarmed fast path stays a lone branch.
    #[cold]
    fn fault_tick_armed(&self) {
        let step = self.fault_step.fetch_add(1, Ordering::Relaxed) + 1;
        let Some(target) = self.cfg.fault.crash_at_step else {
            return;
        };
        if step == target {
            // Raise the power rail FIRST. The capture loop below runs
            // concurrently with other threads' drains and fences; a fence
            // that completes while the image is being photographed may be
            // only partially in it. Flag-first makes the ack rule sound:
            // a fence that then polls the rail reads `true` and withholds
            // its ack, while a fence whose poll read `false` completed
            // strictly before this store — and therefore before every
            // capture read — so its write-backs are all in the image.
            self.fault_tripped.store(true, Ordering::SeqCst);
            // SC-fence pairing with [`MemorySpace::fault_tripped`]: the
            // flag store alone does not order this thread's *subsequent
            // capture loads* against another thread's write-backs (the
            // store-buffer litmus — both sides may read old). With a
            // SeqCst fence here and one before the poller's load, either
            // the poller reads `true`, or every write-back it issued
            // before its fence is visible to the capture loads below.
            std::sync::atomic::fence(Ordering::SeqCst);
            // Freeze the flight recorders before the image: the image is
            // the "capture complete" signal ([`MemorySpace::take_fault_image`]
            // returning `Some` implies the trace is already in place).
            *self.fault_trace.lock().unwrap() = trace::ring_snapshot_all();
            let image = self.crash_with(self.cfg.fault.crash_model);
            *self.fault_image.lock().unwrap() = Some(image);
            self.fault_capture_done.store(true, Ordering::Release);
        } else if step > target {
            // Capture barrier. The trap is non-destructive and other
            // threads keep running, but the photograph must be a *moment*:
            // a thread that kept mutating pmem while the capture loop
            // walked the space would leak post-crash transactions into the
            // regions photographed late, while regions photographed early
            // still predate them — a torn image whose log can even miss
            // sequences whose effects it contains. Parking every
            // subsequent tick until the capture finishes bounds the leak
            // to at most each thread's single in-flight operation, and an
            // in-flight store is exactly a dirty word at crash — the coin
            // resolution the model already applies. Single-threaded
            // suites never wait here: the capturing thread sets the flag
            // before its own next tick.
            wait::until(|| self.fault_capture_done.load(Ordering::Acquire));
        }
    }

    /// Advances the fault clock for an event that is *not* a persistence
    /// action on this space — a lock-word transition in the simulated HTM
    /// runtime, for example. Fallback transactions hold per-line write
    /// locks across their undo-durability and publish windows; ticking at
    /// lock acquire / validate / release lets torture drivers enumerate
    /// crash points that land *inside* a lock-hold window, even though the
    /// lock words themselves are volatile and never appear in a crash
    /// image. Disarmed plans (the default) return after a single
    /// predictable branch, exactly like the internal persistence ticks.
    pub fn fault_event(&self) {
        self.fault_tick();
    }

    /// Number of persistence steps the fault clock has counted so far.
    /// Always 0 when the configured plan is disarmed.
    pub fn fault_steps(&self) -> u64 {
        self.fault_step.load(Ordering::Relaxed)
    }

    /// Takes the crash image captured at the plan's `crash_at_step` tick,
    /// if that step was reached. Returns `None` for disarmed or count-only
    /// plans, when the run finished before the chosen step, or when the
    /// image was already taken.
    pub fn take_fault_image(&self) -> Option<PersistentImage> {
        self.fault_image.lock().unwrap().take()
    }

    /// Takes the per-thread trace-event tails frozen at the same tick as
    /// the [`MemorySpace::take_fault_image`] crash image. Empty when no
    /// trap fired, or when event tracing was disarmed during the run.
    pub fn take_fault_trace(&self) -> Vec<trace::ThreadTrace> {
        std::mem::take(&mut self.fault_trace.lock().unwrap())
    }

    /// Whether the armed plan's crash step has been reached. The trap is
    /// non-destructive — the run continues — so this is the *power rail* a
    /// live service polls: a fence whose post-fence poll reads `false`
    /// completed strictly before the image capture began and is fully in
    /// the image; once a poll reads `true`, the fence may have raced the
    /// capture, so no durability ack may be issued from that point on.
    /// The flag is raised *before* the capture runs, so a supervisor that
    /// observes it must wait for [`MemorySpace::take_fault_image`] to
    /// return `Some` (the capture-complete signal; the frozen trace is in
    /// place by then too). Stays `true` even after the image is taken;
    /// always `false` under disarmed or count-only plans.
    pub fn fault_tripped(&self) -> bool {
        // SC-fence pairing with the capture in `fault_tick_armed`: drain
        // this thread's preceding write-backs before reading the flag. A
        // SeqCst *load* alone may be satisfied before earlier stores
        // leave the store buffer (x86-TSO store→load reordering), which
        // would let a fence poll `false` while the concurrent capture
        // missed its write-backs — an acked-but-lost batch. With fences
        // on both sides, reading `false` guarantees the capture sees
        // every store this thread issued before the poll.
        std::sync::atomic::fence(Ordering::SeqCst);
        self.fault_tripped.load(Ordering::SeqCst)
    }

    /// Reserves `words` consecutive words of persistent memory for a static
    /// structure (a log, a data array). Reservations are line-aligned so
    /// that unrelated structures never share a cache line.
    ///
    /// # Panics
    ///
    /// Panics if the persistent region is exhausted.
    pub fn reserve_persistent(&self, words: u64) -> PAddr {
        let aligned = words.div_ceil(WORDS_PER_LINE) * WORDS_PER_LINE;
        let start = self
            .reserve_persistent
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                cur.checked_add(aligned)
                    .filter(|&end| end <= self.cfg.persistent_words)
            })
            .unwrap_or_else(|cur| {
                panic!(
                    "persistent region exhausted: need {aligned} words at {cur}, have {}",
                    self.cfg.persistent_words
                )
            });
        PAddr::new(start)
    }

    /// Reserves `words` consecutive words of volatile memory (line-aligned).
    ///
    /// # Panics
    ///
    /// Panics if the volatile region is exhausted.
    pub fn reserve_volatile(&self, words: u64) -> PAddr {
        let aligned = words.div_ceil(WORDS_PER_LINE) * WORDS_PER_LINE;
        let start = self
            .reserve_volatile
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                cur.checked_add(aligned)
                    .filter(|&end| end <= self.cfg.total_words())
            })
            .unwrap_or_else(|cur| {
                panic!(
                    "volatile region exhausted: need {aligned} words at {cur}, have {}",
                    self.cfg.total_words()
                )
            });
        PAddr::new(start)
    }

    /// Returns the persist-traffic counters accumulated so far: the sum of
    /// every flush queue's cells plus the shared eviction ones. Exact once the persisting threads are quiescent, or when the
    /// caller is the only one persisting.
    pub fn stats(&self) -> PmemStats {
        let shared = &self.shared_stats;
        let mut s = PmemStats {
            evictions: shared.evictions.load(Ordering::Relaxed),
            words_persisted: shared.evicted_words.load(Ordering::Relaxed),
            line_words_persisted: shared.evicted_line_words.load(Ordering::Relaxed),
            ..PmemStats::default()
        };
        for q in self.flush_queues.iter() {
            let c = &q.stats;
            s.drains += c.drains.get();
            s.flushes += c.flushes.get();
            s.lines_persisted += c.lines_persisted.get();
            s.overflow_writebacks += c.overflow_writebacks.get();
            s.words_persisted += c.words_persisted.get() + c.overflow_words.get();
            s.line_words_persisted += c.line_words_persisted.get() + c.overflow_line_words.get();
            s.flush_ranges += c.flush_ranges.get();
            s.range_lines += c.range_lines.get();
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatencyModel;

    fn space() -> MemorySpace {
        MemorySpace::new(PmemConfig::small_for_tests())
    }

    #[test]
    fn read_write_round_trip() {
        let m = space();
        let a = PAddr::new(64);
        assert_eq!(m.read(a), 0);
        m.write(a, 0xDEAD_BEEF);
        assert_eq!(m.read(a), 0xDEAD_BEEF);
    }

    #[test]
    fn disarmed_fault_plan_counts_nothing() {
        let m = space();
        let a = PAddr::new(64);
        m.write(a, 1);
        m.persist(0, a);
        assert_eq!(m.fault_steps(), 0);
        assert!(m.take_fault_image().is_none());
    }

    /// Runs one write+persist of `ops` locations under the given plan and
    /// returns the step count.
    fn counted_run(plan: crate::FaultPlan, ops: u64) -> (MemorySpace, u64) {
        let m = MemorySpace::new(PmemConfig::small_for_tests().with_fault_plan(plan));
        for i in 0..ops {
            let a = PAddr::new(64 + i * WORDS_PER_LINE);
            m.write(a, i + 1);
            m.clwb(0, a);
        }
        m.drain(0);
        let steps = m.fault_steps();
        (m, steps)
    }

    #[test]
    fn fault_clock_counts_deterministically() {
        let (_, a) = counted_run(crate::FaultPlan::count_only(), 5);
        let (_, b) = counted_run(crate::FaultPlan::count_only(), 5);
        assert_eq!(a, b, "same single-threaded run, same step count");
        // 5 writes + 5 clwbs + drain start + 5 persists + sfence = 17 ticks.
        assert_eq!(a, 17);
    }

    #[test]
    fn fault_trap_captures_the_mid_pipeline_image() {
        let (_, total) = counted_run(crate::FaultPlan::count_only(), 3);
        // Crash at every step: the image captured before the final drain
        // must miss at least the last value; the final step has everything.
        let (m, _) = counted_run(crate::FaultPlan::crash_at(1, CrashModel::strict()), 3);
        let img = m.take_fault_image().expect("step 1 is reached");
        assert_eq!(img.read(PAddr::new(64)), 0, "nothing drained at step 1");
        let (m, _) = counted_run(crate::FaultPlan::crash_at(total, CrashModel::strict()), 3);
        let img = m.take_fault_image().expect("final step is reached");
        for i in 0..3 {
            assert_eq!(img.read(PAddr::new(64 + i * WORDS_PER_LINE)), i + 1);
        }
        // A step beyond the run captures nothing.
        let (m, _) = counted_run(
            crate::FaultPlan::crash_at(total + 1, CrashModel::strict()),
            3,
        );
        assert!(m.take_fault_image().is_none());
    }

    #[test]
    fn writes_do_not_persist_without_flush_and_drain() {
        let m = space();
        let a = PAddr::new(64);
        m.write(a, 7);
        assert_eq!(m.read_persisted(a), 0);
        let img = m.crash();
        assert_eq!(
            img.read(a),
            0,
            "unflushed write must not persist under strict model"
        );
    }

    #[test]
    fn flush_alone_does_not_persist_but_drain_does() {
        let m = space();
        let a = PAddr::new(64);
        m.write(a, 7);
        m.clwb(0, a);
        assert_eq!(m.read_persisted(a), 0);
        assert_eq!(m.pending_flushes(0), 1);
        let persisted = m.drain(0);
        assert_eq!(persisted, 1);
        assert_eq!(m.read_persisted(a), 7);
        assert_eq!(m.pending_flushes(0), 0);
        assert_eq!(m.crash().read(a), 7);
    }

    #[test]
    fn drain_only_affects_calling_threads_queue() {
        let m = space();
        let a = PAddr::new(64);
        let b = PAddr::new(128);
        m.write(a, 1);
        m.write(b, 2);
        m.clwb(0, a);
        m.clwb(1, b);
        m.drain(0);
        assert_eq!(m.read_persisted(a), 1);
        assert_eq!(m.read_persisted(b), 0);
        m.drain(1);
        assert_eq!(m.read_persisted(b), 2);
    }

    #[test]
    fn duplicate_flushes_of_same_line_are_deduplicated() {
        let m = space();
        let a = PAddr::new(64);
        let b = PAddr::new(65); // same line
        m.write(a, 1);
        m.write(b, 2);
        m.clwb(0, a);
        m.clwb(0, b);
        assert_eq!(m.pending_flushes(0), 1);
        assert_eq!(m.drain(0), 1);
        assert_eq!(m.read_persisted(a), 1);
        assert_eq!(m.read_persisted(b), 2);
    }

    #[test]
    fn reflushing_after_a_drain_enqueues_again() {
        let m = space();
        let a = PAddr::new(64);
        m.write(a, 1);
        m.clwb(0, a);
        assert_eq!(m.drain(0), 1);
        // The stamp from the first enqueue is now below the drained cursor,
        // so a fresh flush of the same line must re-enqueue it.
        m.write(a, 2);
        m.clwb(0, a);
        assert_eq!(m.pending_flushes(0), 1);
        assert_eq!(m.drain(0), 1);
        assert_eq!(m.read_persisted(a), 2);
    }

    #[test]
    fn full_queue_overflow_writes_back_immediately() {
        let cfg = PmemConfig::small_for_tests().with_flush_queue_capacity(8);
        let m = MemorySpace::new(cfg);
        let lines = 20u64;
        for i in 0..lines {
            let a = PAddr::new(64 + i * WORDS_PER_LINE);
            m.write(a, i + 1);
            m.clwb(0, a);
        }
        let s = m.stats();
        assert!(
            s.overflow_writebacks > 0,
            "a 8-deep queue cannot hold 20 lines"
        );
        assert_eq!(m.pending_flushes(0), 8);
        m.drain(0);
        for i in 0..lines {
            assert_eq!(
                m.read_persisted(PAddr::new(64 + i * WORDS_PER_LINE)),
                i + 1,
                "line {i} lost (queued and overflowed lines must both persist)"
            );
        }
    }

    #[test]
    fn owner_threads_drain_their_own_queues() {
        let m = space();
        let a = PAddr::new(64);
        let b = PAddr::new(128);
        // Thread 2's owner runs on its own OS thread, beside thread 1's:
        // each completes only the flushes it issued.
        std::thread::scope(|s| {
            for (tid, addr, value) in [(2, a, 5), (1, b, 6)] {
                let m = &m;
                s.spawn(move || {
                    m.write(addr, value);
                    m.clwb(tid, addr);
                    assert_eq!(m.drain(tid), 1);
                });
            }
        });
        assert_eq!(m.read_persisted(a), 5);
        assert_eq!(m.read_persisted(b), 6);
        assert_eq!(m.pending_flushes(2), 0);
        assert_eq!(m.pending_flushes(1), 0);
    }

    #[test]
    fn volatile_addresses_are_never_persisted_and_lost_on_crash() {
        let m = space();
        let v = PAddr::new(m.persistent_words()); // first volatile word
        assert!(!m.is_persistent(v));
        m.write(v, 42);
        m.clwb(0, v);
        m.drain(0);
        assert_eq!(m.read(v), 42);
        let img = m.crash();
        assert_eq!(img.len_words(), m.persistent_words());
    }

    #[test]
    fn persist_helper_flushes_and_drains() {
        let m = space();
        let a = PAddr::new(72);
        m.write(a, 9);
        m.persist(0, a);
        assert_eq!(m.read_persisted(a), 9);
    }

    #[test]
    fn whole_line_persists_on_drain() {
        let m = space();
        // Words 64..72 share a line; flushing any one persists all eight.
        for i in 0..8 {
            m.write(PAddr::new(64 + i), 100 + i);
        }
        m.persist(0, PAddr::new(67));
        for i in 0..8 {
            assert_eq!(m.read_persisted(PAddr::new(64 + i)), 100 + i);
        }
    }

    #[test]
    fn adversarial_crash_persists_some_dirty_words() {
        let cfg = PmemConfig::small_for_tests().with_crash(CrashModel {
            eviction_probability: 0.0,
            dirty_word_persist_probability: 0.5,
            seed: 11,
        });
        let m = MemorySpace::new(cfg);
        let n = 512u64;
        for i in 0..n {
            m.write(PAddr::new(64 + i), 1);
        }
        let img = m.crash();
        let persisted: u64 = (0..n).map(|i| img.read(PAddr::new(64 + i))).sum();
        assert!(persisted > 0, "some dirty words should persist");
        assert!(persisted < n, "not all dirty words should persist");
    }

    #[test]
    fn eviction_can_persist_unflushed_writes() {
        let cfg = PmemConfig::small_for_tests().with_crash(CrashModel {
            eviction_probability: 1.0,
            dirty_word_persist_probability: 0.0,
            seed: 5,
        });
        let m = MemorySpace::new(cfg);
        let a = PAddr::new(64);
        m.write(a, 3);
        assert_eq!(
            m.read_persisted(a),
            3,
            "eviction should have written the line back"
        );
        assert!(m.stats().evictions >= 1);
    }

    /// A space that evicts still crashes under its own model; an explicit
    /// image model may not evict, since the image reads only its lottery.
    #[test]
    #[should_panic(expected = "dirty words only")]
    fn crash_with_refuses_a_model_that_evicts() {
        let cfg = PmemConfig::small_for_tests().with_crash(CrashModel::adversarial(5));
        let m = MemorySpace::new(cfg);
        m.write(PAddr::new(64), 3);
        m.crash();
        m.crash_with(cfg.crash);
    }

    #[test]
    fn boot_restores_persistent_region_and_clears_volatile() {
        let m = space();
        let a = PAddr::new(64);
        m.write(a, 77);
        m.persist(0, a);
        let v = PAddr::new(m.persistent_words() + 8);
        m.write(v, 123);
        let img = m.crash();
        let rebooted = MemorySpace::boot(&img, *m.config());
        assert_eq!(rebooted.read(a), 77);
        assert_eq!(rebooted.read_persisted(a), 77);
        assert_eq!(rebooted.read(v), 0);
    }

    #[test]
    fn reservations_are_line_aligned_and_disjoint() {
        let m = space();
        let a = m.reserve_persistent(3);
        let b = m.reserve_persistent(9);
        let c = m.reserve_volatile(1);
        assert_eq!(a.word() % WORDS_PER_LINE, 0);
        assert_eq!(b.word() % WORDS_PER_LINE, 0);
        assert!(b.word() >= a.word() + WORDS_PER_LINE);
        assert!(c.word() >= m.persistent_words());
        assert!(a.word() >= WORDS_PER_LINE, "line 0 is reserved");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let m = space();
        m.read(PAddr::new(m.config().total_words()));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn line_lock_past_the_space_panics() {
        // The lock table is followed by the line pairs in the same
        // allocation, so its end is checked, not the allocation's.
        let m = space();
        let lines = m.config().total_words().div_ceil(WORDS_PER_LINE);
        assert_eq!(
            m.line_lock(LineId::new(lines - 1)).load(Ordering::Relaxed),
            0
        );
        m.line_lock(LineId::new(lines));
    }

    #[test]
    fn compare_exchange_swaps_only_on_a_match() {
        let m = space();
        let a = PAddr::new(64);
        assert_eq!(m.compare_exchange(a, 0, 5), Ok(0));
        assert_eq!(m.compare_exchange(a, 0, 9), Err(5));
        assert_eq!(m.read(a), 5);
    }

    #[test]
    fn stats_count_persist_traffic() {
        let m = space();
        let a = PAddr::new(64);
        m.write(a, 1);
        m.clwb(0, a);
        m.drain(0);
        m.drain(0); // empty drain still counts as a drain
        let s = m.stats();
        assert_eq!(s.flushes, 1);
        assert_eq!(s.drains, 2);
        assert_eq!(s.lines_persisted, 1);
        assert_eq!(s.overflow_writebacks, 0);
        // One word of an 8-word line was written, so the word-granular
        // pipeline copied exactly one word where whole lines would have
        // copied eight.
        assert_eq!(s.words_persisted, 1);
        assert_eq!(s.line_words_persisted, 8);
        assert!((s.write_amplification() - 0.125).abs() < 1e-12);
    }

    #[test]
    fn masked_writeback_covers_unflushed_words_of_the_line() {
        // The mask lives on the line, not in the queue: a word written
        // after its line was enqueued is still covered by the drain.
        let m = space();
        m.write(PAddr::new(64), 1);
        m.clwb(0, PAddr::new(64));
        m.write(PAddr::new(65), 2); // same line, after the flush
        m.drain(0);
        assert_eq!(m.read_persisted(PAddr::new(64)), 1);
        assert_eq!(m.read_persisted(PAddr::new(65)), 2);
        assert_eq!(m.stats().words_persisted, 2);
    }

    #[test]
    fn drain_latency_is_charged() {
        let cfg = PmemConfig::small_for_tests().with_latency(LatencyModel {
            drain_ns: 200_000,
            ..LatencyModel::instant()
        });
        let m = MemorySpace::new(cfg);
        m.write(PAddr::new(64), 1);
        m.clwb(0, PAddr::new(64));
        let start = Instant::now();
        m.drain(0);
        assert!(start.elapsed().as_nanos() >= 200_000);
        assert!(m.issue_time().is_some());
        // The instant model waits for nothing and never reads the clock.
        assert!(space().issue_time().is_none());
    }

    #[test]
    fn overflow_writebacks_charge_the_per_word_cost() {
        // A full ring completes the write-back synchronously, so the
        // issuing thread must pay the same per-word media cost a drain
        // would — overflow must never be a cheaper way to persist.
        let cfg = PmemConfig::small_for_tests()
            .with_flush_queue_capacity(2)
            .with_latency(LatencyModel {
                clwb_word_ns: 50_000,
                ..LatencyModel::instant()
            });
        let m = MemorySpace::new(cfg);
        // Fill the 2-slot ring, then overflow with a third dirty line.
        for l in 0..3 {
            m.write(PAddr::new(64 + l * WORDS_PER_LINE), l + 1);
            if l < 2 {
                m.clwb(0, PAddr::new(64 + l * WORDS_PER_LINE));
            }
        }
        let start = Instant::now();
        m.clwb(0, PAddr::new(64 + 2 * WORDS_PER_LINE));
        assert!(m.stats().overflow_writebacks >= 1);
        assert!(
            start.elapsed().as_nanos() >= 50_000,
            "the overflowed line's dirty word must be charged"
        );
    }

    #[test]
    fn adjacent_lines_coalesce_into_one_ranged_flush() {
        let m = space();
        // Four adjacent lines plus one far-away line: two runs.
        for l in 0..4 {
            let a = PAddr::new(64 + l * WORDS_PER_LINE);
            m.write(a, l + 1);
            m.clwb(0, a);
        }
        let far = PAddr::new(64 + 100 * WORDS_PER_LINE);
        m.write(far, 99);
        m.clwb(0, far);
        assert_eq!(m.drain(0), 5);
        let s = m.stats();
        assert_eq!(s.lines_persisted, 5);
        assert_eq!(s.flush_ranges, 2, "one run of 4 adjacent lines + 1 far");
        assert_eq!(s.range_lines, 5);
        assert!((s.lines_per_range() - 2.5).abs() < 1e-12);
        for l in 0..4 {
            assert_eq!(m.read_persisted(PAddr::new(64 + l * WORDS_PER_LINE)), l + 1);
        }
        assert_eq!(m.read_persisted(far), 99);
    }

    #[test]
    fn coalescing_ignores_enqueue_order() {
        let m = space();
        // Enqueue adjacent lines out of order; the sort still finds the run.
        for l in [3u64, 0, 2, 1] {
            let a = PAddr::new(64 + l * WORDS_PER_LINE);
            m.write(a, l + 1);
            m.clwb(0, a);
        }
        m.drain(0);
        let s = m.stats();
        assert_eq!(s.flush_ranges, 1);
        assert_eq!(s.range_lines, 4);
    }

    #[test]
    fn ranged_flush_base_cost_is_charged_per_run() {
        let cfg = PmemConfig::small_for_tests().with_latency(LatencyModel {
            clwb_range_ns: 200_000,
            ..LatencyModel::instant()
        });
        let m = MemorySpace::new(cfg);
        // Two adjacent dirty lines: one run, so exactly one base charge.
        for l in 0..2 {
            let a = PAddr::new(64 + l * WORDS_PER_LINE);
            m.write(a, 1);
            m.clwb(0, a);
        }
        let start = Instant::now();
        m.drain(0);
        assert!(
            start.elapsed().as_nanos() >= 200_000,
            "the coalesced run must pay its flush base cost"
        );
        assert_eq!(m.stats().flush_ranges, 1);
    }

    #[test]
    fn per_word_latency_is_charged_for_persisted_words() {
        let cfg = PmemConfig::small_for_tests().with_latency(LatencyModel {
            clwb_word_ns: 50_000,
            ..LatencyModel::instant()
        });
        let m = MemorySpace::new(cfg);
        for i in 0..4 {
            m.write(PAddr::new(64 + i), i);
        }
        m.clwb(0, PAddr::new(64));
        let start = Instant::now();
        m.drain(0);
        assert!(
            start.elapsed().as_nanos() >= 4 * 50_000,
            "four dirty words must each be charged"
        );
    }

    #[test]
    fn bulk_persist_drains_at_the_ring_instead_of_overflowing() {
        let m = space();
        let capacity = m.config().flush_queue_capacity as u64;
        // Two ranges, the first longer than the ring and not line-aligned
        // at either end, the second empty.
        let lines = capacity * 5 / 2;
        let start = PAddr::new(64 + 3);
        let words = lines * WORDS_PER_LINE - 6;
        for i in 0..words {
            m.write(start.add(i), i + 1);
        }
        m.persist_ranges(0, &[(start, words), (PAddr::new(8), 0)]);
        let s = m.stats();
        assert_eq!(s.flushes, lines, "every overlapped line, once");
        assert_eq!(s.overflow_writebacks, 0, "no CLWB met a full ring");
        assert_eq!(s.lines_persisted, lines);
        assert_eq!(s.drains, lines.div_ceil(capacity));
        assert_eq!(m.pending_flushes(0), 0);
        let image = m.crash();
        for i in 0..words {
            assert_eq!(image.read(start.add(i)), i + 1);
        }
    }

    /// A big space, a few hundred scattered words, some persisted and some
    /// still dirty: `crash_with` under every model equals an image built
    /// word by word from the test's own record of each word's persisted
    /// and volatile value, and booting it restores every word in both
    /// views with nothing dirty. `crash_with` and `boot` skip zero words
    /// (the space and the image start zeroed), so the cases that would
    /// catch a wrong skip are pinned by name: a non-zero word in the last
    /// persistent line, a persisted word later persisted back to 0, and a
    /// dirty 0 over a non-zero persisted value.
    #[test]
    fn sparse_crash_and_boot_match_a_word_by_word_reference() {
        use std::collections::{BTreeMap, BTreeSet};

        let cfg = PmemConfig {
            persistent_words: 1 << 20,
            volatile_words: 1 << 12,
            ..PmemConfig::small_for_tests()
        };
        let m = MemorySpace::new(cfg);
        let relaxed = CrashModel::relaxed(11);
        let models = [CrashModel::strict(), relaxed, CrashModel::relaxed(12)];
        // What the test knows of every word it touched.
        let mut persisted: BTreeMap<u64, u64> = BTreeMap::new();
        let mut volatile: BTreeMap<u64, u64> = BTreeMap::new();
        let mut dirty: BTreeSet<u64> = BTreeSet::new();
        let mut store = |w: u64, v: u64, persist: bool| {
            m.write(PAddr::new(w), v);
            volatile.insert(w, v);
            if persist {
                m.persist(0, PAddr::new(w));
                persisted.insert(w, v);
                dirty.remove(&w);
            } else {
                dirty.insert(w);
            }
        };

        let lines = cfg.persistent_words / WORDS_PER_LINE;
        let last = cfg.persistent_words - 1;
        store(last, 0xE17D, true);
        let back_to_zero = 8 * WORDS_PER_LINE;
        store(back_to_zero, 5, true);
        store(back_to_zero, 0, true);
        // A line whose word the relaxed model resolves to the volatile
        // value, so the dirty 0 lands in that image and not in the strict
        // one.
        let dirty_zero = (16..lines)
            .map(|l| l * WORDS_PER_LINE)
            .find(|&w| dirty_word_persists(&relaxed, w))
            .unwrap();
        store(dirty_zero, 7, true);
        store(dirty_zero, 0, false);

        // Scattered words on lines of their own, away from the named ones:
        // a third written twice with a drain between, a third persisted,
        // a third left dirty.
        let named = [last, back_to_zero, dirty_zero].map(|w| w / WORDS_PER_LINE);
        let mut rng = SplitMix64::new(0x5EA5);
        let mut used = BTreeSet::from(named);
        for i in 0..300u64 {
            let line = loop {
                let l = 1 + rng.next_below(lines - 2);
                if used.insert(l) {
                    break l;
                }
            };
            let w = line * WORDS_PER_LINE + rng.next_below(WORDS_PER_LINE);
            let v = rng.next_u64() | 1;
            match i % 3 {
                0 => {
                    store(w, v, true);
                    store(w, v.rotate_left(7), false);
                }
                1 => store(w, v, true),
                _ => store(w, v, false),
            }
        }
        assert_eq!(m.read_persisted(PAddr::new(last)), 0xE17D);
        assert_eq!(m.read_persisted(PAddr::new(back_to_zero)), 0);
        assert_eq!(m.read_persisted(PAddr::new(dirty_zero)), 7);
        assert_eq!(m.read(PAddr::new(dirty_zero)), 0);

        for model in models {
            let reference: Vec<u64> = (0..cfg.persistent_words)
                .map(|w| {
                    if dirty.contains(&w) && dirty_word_persists(&model, w) {
                        volatile[&w]
                    } else {
                        persisted.get(&w).copied().unwrap_or(0)
                    }
                })
                .collect();
            let image = m.crash_with(model);
            assert!(image.as_words() == reference.as_slice(), "{model:?}");

            let booted = MemorySpace::boot(&image, cfg);
            for (w, &v) in reference.iter().enumerate() {
                let addr = PAddr::new(w as u64);
                assert_eq!(booted.read(addr), v, "{model:?}: word {w}");
                assert_eq!(booted.read_persisted(addr), v, "{model:?}: word {w}");
            }
            for w in cfg.persistent_words..cfg.total_words() {
                assert_eq!(booted.read(PAddr::new(w)), 0, "volatile word {w}");
            }
            for line in 0..lines {
                assert_eq!(
                    booted.dirty_mask(LineId::new(line)).load(Ordering::Relaxed),
                    0,
                    "{model:?}: a booted space starts with line {line} clean"
                );
            }
        }
        // The relaxed image took the dirty 0; the strict one kept the 7.
        assert_eq!(m.crash_with(relaxed).read(PAddr::new(dirty_zero)), 0);
        assert_eq!(m.crash().read(PAddr::new(dirty_zero)), 7);
    }
}
