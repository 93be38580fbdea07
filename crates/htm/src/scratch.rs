//! Reusable transaction descriptor state.
//!
//! Real HTM/STM runtimes keep one transaction descriptor per thread and
//! reuse it across transactions (cf. phasedTM's `__thread`-local descriptor
//! state); allocating a fresh read set and write buffer per `xbegin` would
//! dwarf the cost of the transaction itself. Real RTM also tracks its
//! footprint per *cache line*, for free — the read set rides in the L1 at
//! no cost per access. This module provides the same discipline for the
//! simulated RTM:
//!
//! * [`TxnScratch`] — everything a hardware, fallback or exclusive
//!   transaction needs to remember: the **read log** (TL2's read set: the
//!   line of every read served from memory, appended, never indexed, and
//!   walked once at commit), one [`LineTable`] entry per line the
//!   transaction writes, sinks or flushes (buffered words, written-word
//!   mask, and the `DATA`/`SINK`/`FLUSH`/`PLAIN`/`DEMOTED` flags), the
//!   lock order, the version sinks, and the journal of exchanged words'
//!   old values. A read consults the table only once the transaction has
//!   written something, so a read-only transaction's read is one version
//!   check and one log append — and a run of reads of one line
//!   ([`crate::HwTxn::read_words`]) is one lookup, one version check and
//!   one log append for the whole line.
//! * A thread-local spare — `checkout` takes the calling thread's
//!   descriptor and `give_back` returns it: a `Cell` swap, no atomic
//!   instruction. A descriptor has no identity (per-thread-slot state such
//!   as the spurious-abort stream lives in the runtime), so any thread's
//!   descriptor serves any runtime and thread id.
//!
//! In steady state a committed transaction performs **zero heap
//! allocations**: every structure here retains its capacity across reuse.

use std::cell::Cell;

use crafty_common::{LineId, LineSlot, LineTable, PAddr, WORDS_PER_LINE};

/// [`LineSlot::flags`](crafty_common::LineSlot::flags) bit: a data write
/// is buffered for the line (it counts toward the write capacity and is
/// locked at commit).
pub(crate) const DATA: u8 = 1;
/// Flags bit: a version sink lives on the line (locked at commit, but not
/// HTM write footprint).
pub(crate) const SINK: u8 = 1 << 1;
/// Flags bit: a commit-time CLWB was requested for the line.
pub(crate) const FLUSH: u8 = 1 << 2;
/// Flags bit: a plain write (anything but an [`crate::HwTxn::exchange`])
/// is buffered for the line, so rolling the exchanges back does not return
/// its buffer to what the transaction read.
pub(crate) const PLAIN: u8 = 1 << 3;
/// Flags bit: the line was a [`DATA`] line until
/// [`TxnScratch::roll_back`] demoted it. It stays counted in
/// [`TxnScratch::data_count`] — the footprint was real — but is neither
/// locked nor published unless a later write makes it a data line again.
pub(crate) const DEMOTED: u8 = 1 << 4;
/// Lines carrying either of these flags are locked at commit.
pub(crate) const LOCKS: u8 = DATA | SINK;

/// Read-log tag on a line that entered the lock set right after it was
/// read — the read-then-write of one line. Locking it checks its version
/// against the snapshot, which is all its validation would, so the
/// hardware commit skips the entry instead of finding it among the lines
/// it holds. A roll-back (which can demote the line out of the lock set)
/// and a compaction strip every tag; line ids never reach this bit.
pub(crate) const HELD: u64 = 1 << 63;

const INITIAL_CAPACITY: usize = 64;

/// One [`crate::HwTxn::exchange`]: which word it replaced and what the
/// word held (transactionally) before. Dense entry indexes are stable for
/// the life of a transaction, so roll-back needs no lookup.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Journalled {
    pub(crate) slot: u32,
    pub(crate) word: u8,
    pub(crate) old: u64,
}

/// A reusable transaction descriptor: the line-granular footprint and the
/// commit-time buffers of one in-flight transaction.
///
/// All capacity survives reuse, so steady-state transactions allocate
/// nothing.
#[derive(Debug)]
pub struct TxnScratch {
    /// The line of every read served from memory, in program order except
    /// that a run of reads of one line is logged once — until the log
    /// outgrows the read capacity or its allocation, when it is sorted and
    /// deduplicated in place ([`TxnScratch::reads_exceed`],
    /// [`TxnScratch::log_read`]). An entry may carry the [`HELD`] tag.
    pub(crate) reads: Vec<u64>,
    /// One entry per line written, sunk or flushed, in first-touch order.
    pub(crate) lines: LineTable,
    /// Number of lines flagged [`DATA`] (the write-capacity count; sink
    /// lines never count toward capacity).
    pub(crate) data_count: usize,
    /// Number of distinct words with a buffered write.
    pub(crate) words_written: usize,
    /// Ids of the lines to lock at commit ([`LOCKS`]), in first-touch
    /// order. A hardware commit locks them in that order; only
    /// [`crate::FallbackTxn`], which waits while holding locks, sorts them
    /// first.
    pub(crate) lock_order: Vec<u64>,
    /// How many lines at the front of `lock_order` are currently locked.
    pub(crate) locked: usize,
    /// Addresses to receive the commit version.
    pub(crate) version_sinks: Vec<PAddr>,
    /// Every exchange of the transaction, in program order.
    pub(crate) journal: Vec<Journalled>,
}

impl TxnScratch {
    fn new() -> Self {
        TxnScratch {
            reads: Vec::with_capacity(INITIAL_CAPACITY),
            lines: LineTable::new(),
            data_count: 0,
            words_written: 0,
            lock_order: Vec::with_capacity(INITIAL_CAPACITY),
            locked: 0,
            version_sinks: Vec::with_capacity(4),
            journal: Vec::with_capacity(INITIAL_CAPACITY),
        }
    }

    /// Readies the descriptor for a fresh transaction. O(1): the line
    /// table clears by generation bump and the `Vec`s keep their capacity.
    fn reset(&mut self) {
        self.reads.clear();
        self.lines.clear();
        self.data_count = 0;
        self.words_written = 0;
        self.lock_order.clear();
        self.locked = 0;
        self.version_sinks.clear();
        self.journal.clear();
    }

    /// Marks the words `bits` of entry `idx` written, flagging it [`DATA`]
    /// and `how` ([`PLAIN`] or nothing): a line not in the lock order
    /// enters it ([`enter_lock_order`]), and each newly written word counts
    /// in [`TxnScratch::words_written`]. Returns true if it made the line a
    /// [`DATA`] line for the first time (counted in
    /// [`TxnScratch::data_count`]; the caller's cue to check write
    /// capacity); a [`DEMOTED`] line has been one, and re-enters the lock
    /// order without being counted again.
    #[inline]
    fn claim_at(&mut self, idx: usize, bits: u8, how: u8) -> bool {
        let slot = self.lines.slot_mut(idx);
        let before = slot.flags;
        slot.flags |= DATA | how;
        self.words_written += (bits & !slot.mask).count_ones() as usize;
        slot.mask |= bits;
        enter_lock_order(slot.line(), before, &mut self.lock_order, &mut self.reads);
        let new_data_line = before & (DATA | DEMOTED) == 0;
        self.data_count += usize::from(new_data_line);
        new_data_line
    }

    /// Sets `flag` on the entry of `addr`'s line (created if the line is
    /// new); the first [`LOCKS`] flag a line gets also enters it in the
    /// lock order ([`enter_lock_order`]).
    #[inline]
    pub(crate) fn flag_line(&mut self, addr: PAddr, flag: u8) {
        let idx = self.lines.entry(addr.line().index());
        let slot = self.lines.slot_mut(idx);
        let before = slot.flags;
        slot.flags |= flag;
        if flag & LOCKS != 0 {
            enter_lock_order(slot.line(), before, &mut self.lock_order, &mut self.reads);
        }
    }

    /// The buffered value of word `word` of entry `idx`, if the
    /// transaction wrote it.
    #[inline]
    pub(crate) fn buffered_at(&self, idx: usize, word: usize) -> Option<u64> {
        let slot = &self.lines.slots()[idx];
        (slot.mask & (1 << word) != 0).then_some(slot.words[word])
    }

    /// The buffered value of `addr`, if the transaction wrote it. Looks
    /// the line up only if the transaction has written anything, and then
    /// without inserting it.
    #[inline]
    pub(crate) fn buffered(&mut self, addr: PAddr) -> Option<u64> {
        if self.words_written == 0 {
            return None;
        }
        let idx = self.lines.find(addr.line().index())?;
        self.buffered_at(idx, (addr.word() % WORDS_PER_LINE) as usize)
    }

    /// Which of the words `bits` of `line` the transaction wrote, as a
    /// mask, with the line's entry index (meaningful only if the mask is
    /// not empty). Like [`TxnScratch::buffered`], it looks the line up only
    /// if the transaction has written anything, and never inserts it.
    #[inline]
    pub(crate) fn buffered_words(&mut self, line: u64, bits: u8) -> (usize, u8) {
        if self.words_written == 0 {
            return (0, 0);
        }
        self.lines
            .find(line)
            .map_or((0, 0), |idx| (idx, self.lines.slots()[idx].mask & bits))
    }

    /// Logs a read of `line` served from memory (a caller whose memory
    /// read then fails abandons the transaction, log and all). A full log
    /// is compacted before it grows, so a software transaction's — which
    /// has no read capacity to trigger compaction — stays within twice its
    /// distinct lines however often it re-reads them.
    #[inline]
    pub(crate) fn log_read(&mut self, line: u64) {
        if self.reads.last().map(|last| last & !HELD) != Some(line) {
            if self.reads.len() == self.reads.capacity() {
                self.make_room();
            }
            self.reads.push(line);
        }
    }

    /// Compacts the full read log, and lets it grow (by doubling) only if
    /// that freed less than half of it: amortised O(log n) per read.
    #[cold]
    fn make_room(&mut self) {
        let capacity = self.reads.capacity();
        if self.compact_reads() * 2 > capacity {
            self.reads.reserve(capacity);
        }
    }

    /// Starts a transactional read of `addr`: the buffered value if the
    /// transaction wrote the word; otherwise `None` — the caller reads
    /// memory — with the line logged.
    #[inline]
    pub(crate) fn read_buffered(&mut self, addr: PAddr) -> Option<u64> {
        let buffered = self.buffered(addr);
        if buffered.is_none() {
            self.log_read(addr.line().index());
        }
        buffered
    }

    /// True if the read log holds more than `capacity` distinct lines.
    /// Its length bounds that count from above, so only a log longer than
    /// `capacity` is compacted and counted — the check fires at the very
    /// read that brings the distinct count past `capacity`.
    #[inline]
    pub(crate) fn reads_exceed(&mut self, capacity: usize) -> bool {
        self.reads.len() > capacity && self.compact_reads() > capacity
    }

    /// Drops every [`HELD`] tag: the entries are validated like any read.
    fn strip_held(&mut self) {
        for entry in &mut self.reads {
            *entry &= !HELD;
        }
    }

    /// True if the transaction holds `line`'s lock: the line's own entry
    /// carries a [`LOCKS`] flag (O(1), in whatever order the lines were
    /// locked). Validation asks it of a logged read that failed its
    /// version check, once every line of the lock order is locked.
    #[inline]
    pub(crate) fn holds(&self, line: u64) -> bool {
        debug_assert_eq!(self.locked, self.lock_order.len(), "lock set held");
        self.lines
            .get(line)
            .is_some_and(|slot| slot.flags & LOCKS != 0)
    }

    /// Sorts and deduplicates the read log in place (no allocation) and
    /// returns its distinct line count.
    #[cold]
    fn compact_reads(&mut self) -> usize {
        self.strip_held();
        self.reads.sort_unstable();
        self.reads.dedup();
        self.reads.len()
    }

    /// The batch form of [`TxnScratch::buffer_write`]: marks the words
    /// `bits` of `line` written with one lookup and hands their buffer to
    /// the caller to fill, with the same flags.
    #[inline]
    pub(crate) fn claim_words(
        &mut self,
        line: u64,
        bits: u8,
    ) -> (&mut [u64; WORDS_PER_LINE as usize], bool) {
        let idx = self.lines.entry(line);
        let new_data_line = self.claim_at(idx, bits, PLAIN);
        (&mut self.lines.slot_mut(idx).words, new_data_line)
    }

    /// Buffers `value` for word `word` of entry `idx`: a [`PLAIN`] write,
    /// or (`how` = 0) the store of an exchange. Returns true if this made
    /// the line a [`DATA`] line for the first time.
    #[inline]
    pub(crate) fn write_at(&mut self, idx: usize, word: usize, value: u64, how: u8) -> bool {
        let new_data_line = self.claim_at(idx, 1 << word, how);
        self.lines.slot_mut(idx).words[word] = value;
        new_data_line
    }

    /// [`TxnScratch::write_at`] for `addr`, looking its line up.
    #[inline]
    pub(crate) fn buffer_write(&mut self, addr: PAddr, value: u64) -> bool {
        let idx = self.lines.entry(addr.line().index());
        self.write_at(idx, (addr.word() % WORDS_PER_LINE) as usize, value, PLAIN)
    }

    /// Copies every live entry into `image` in one block — line id, final
    /// words, written-word mask; lines with no written word (a sink or a
    /// flush request only) come along, and every consumer of the image
    /// skips them — then undoes the journalled exchanges newest first, and
    /// **demotes** every line whose buffer that returns to what the
    /// transaction read: a [`DATA`] line with no [`PLAIN`] write and no
    /// [`SINK`] had each of its words first written by an exchange whose
    /// load was served from memory under the version check, so after the
    /// restore it holds exactly the values commit-time validation of the
    /// read set vouches for. Such a line has nothing to publish: it leaves
    /// the lock order, its mask is cleared, and it is validated with the
    /// rest of the read log (that first exchange logged it; the roll-back
    /// strips the [`HELD`] tags). It keeps counting toward the write
    /// capacity and the written-word count.
    pub(crate) fn roll_back(&mut self, image: &mut Vec<LineSlot>) {
        image.clear();
        image.extend_from_slice(self.lines.slots());
        self.strip_held();
        self.lock_order.clear();
        let slots = self.lines.slots_mut();
        for slot in slots.iter_mut() {
            if slot.flags & (DATA | PLAIN | SINK) == DATA {
                slot.flags = (slot.flags & !DATA) | DEMOTED;
                slot.mask = 0;
            } else if slot.flags & LOCKS != 0 {
                self.lock_order.push(slot.line());
            }
        }
        for j in self.journal.iter().rev() {
            slots[j.slot as usize].words[j.word as usize] = j.old;
        }
    }

    /// The addresses of the distinct buffered writes: lines in first-write
    /// order, the words of a line in address order.
    pub(crate) fn written(&self) -> impl Iterator<Item = PAddr> + '_ {
        self.lines.slots().iter().flat_map(|slot| {
            let words = LineId::new(slot.line()).words().enumerate();
            words.filter_map(|(i, addr)| (slot.mask & (1 << i) != 0).then_some(addr))
        })
    }

    /// Total capacity across the descriptor's table and buffers. Stable
    /// across transactions once the workload's footprint has been seen.
    pub fn capacity_signature(&self) -> usize {
        self.reads.capacity()
            + self.lines.slot_capacity()
            + self.lock_order.capacity()
            + self.version_sinks.capacity()
            + self.journal.capacity()
    }
}

/// Enters `line`, whose flags were `before`, in the lock order if it is
/// not there yet (no [`LOCKS`] flag), tagging it [`HELD`] if it is the
/// line `reads` logged last.
#[inline]
fn enter_lock_order(line: u64, before: u8, lock_order: &mut Vec<u64>, reads: &mut [u64]) {
    if before & LOCKS == 0 {
        lock_order.push(line);
        if let Some(last) = reads.last_mut().filter(|last| **last == line) {
            *last |= HELD;
        }
    }
}

thread_local! {
    /// The calling thread's idle descriptor. A transaction takes it at
    /// begin and puts it back when it ends; a nested begin finds the cell
    /// empty and allocates a descriptor of its own, discarded afterwards.
    static SPARE: Cell<Option<Box<TxnScratch>>> = const { Cell::new(None) };
}

/// Takes the calling thread's descriptor (allocating one on the thread's
/// first transaction, or for a nested begin), reset and ready.
pub(crate) fn checkout() -> Box<TxnScratch> {
    let mut scratch = SPARE
        .try_with(Cell::take)
        .ok()
        .flatten()
        .unwrap_or_else(|| Box::new(TxnScratch::new()));
    scratch.reset();
    scratch
}

/// Hands a descriptor back for the calling thread's next transaction.
pub(crate) fn give_back(scratch: Box<TxnScratch>) {
    // During thread teardown the cell may already be gone; the descriptor
    // is then simply dropped.
    let _ = SPARE.try_with(|spare| spare.set(Some(scratch)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_reset_preserves_capacity_signature() {
        let mut scratch = TxnScratch::new();
        for k in 0..300u64 {
            scratch.buffer_write(PAddr::new(k * 8), k);
        }
        scratch.reset();
        let sig = scratch.capacity_signature();
        for _ in 0..1000 {
            scratch.reset();
            scratch.buffer_write(PAddr::new(24), 4);
        }
        assert_eq!(scratch.capacity_signature(), sig);
    }

    #[test]
    fn buffer_write_counts_words_lines_and_lock_order_once() {
        let mut s = TxnScratch::new();
        assert!(s.buffer_write(PAddr::new(64), 1), "first word of a line");
        assert!(!s.buffer_write(PAddr::new(65), 2), "same line again");
        assert!(!s.buffer_write(PAddr::new(64), 3), "overwrite");
        assert_eq!((s.words_written, s.data_count), (2, 1));
        assert_eq!(s.lock_order, vec![8]);
        let slot = s.lines.slots()[0];
        assert_eq!((slot.mask, slot.words[0], slot.words[1]), (0b11, 3, 2));
    }

    #[test]
    fn roll_back_demotes_exactly_the_exchange_only_lines() {
        let mut s = TxnScratch::new();
        // An exchange = a read served from memory, then a non-PLAIN write.
        let exchange = |s: &mut TxnScratch, addr: PAddr, old: u64, new: u64| {
            let idx = s.lines.entry(addr.line().index());
            let word = (addr.word() % WORDS_PER_LINE) as usize;
            assert_eq!(s.buffered_at(idx, word), None);
            s.log_read(addr.line().index());
            s.write_at(idx, word, new, 0);
            s.journal.push(Journalled {
                slot: idx as u32,
                word: word as u8,
                old,
            });
        };
        exchange(&mut s, PAddr::new(64), 10, 11); // line 8: exchanges only
        exchange(&mut s, PAddr::new(72), 20, 21); // line 9: + a plain write
        s.buffer_write(PAddr::new(73), 5);
        exchange(&mut s, PAddr::new(80), 30, 31); // line 10: + a sink
        s.flag_line(PAddr::new(81), SINK);
        assert_eq!((s.data_count, s.words_written), (3, 4));

        let mut image = Vec::new();
        s.roll_back(&mut image);
        assert_eq!(image.len(), 3);
        assert_eq!((image[0].mask, image[0].words[0]), (1, 11), "redo image");
        let slots = s.lines.slots();
        assert_eq!((slots[0].mask, slots[0].flags), (0, DEMOTED));
        assert_eq!(s.reads, vec![8, 9, 10], "validated as reads");
        assert_eq!((slots[1].mask, slots[1].words[0]), (0b11, 20), "restored");
        assert_eq!((slots[2].mask, slots[2].words[0]), (1, 30));
        assert_eq!(s.lock_order, vec![9, 10], "line 8 left the lock order");
        assert_eq!((s.data_count, s.words_written), (3, 4), "counts stay");

        // A later write re-promotes line 8: locked again, not counted again.
        assert!(!s.buffer_write(PAddr::new(65), 7), "not a new data line");
        assert_eq!(s.data_count, 3);
        assert_eq!(s.lock_order, vec![9, 10, 8]);
        assert_eq!(s.lines.slots()[0].mask, 0b10);
    }

    #[test]
    fn only_reads_served_from_memory_join_the_read_log() {
        let mut s = TxnScratch::new();
        assert_eq!(s.read_buffered(PAddr::new(128)), None);
        assert!(s.lines.is_empty(), "nothing written: the table is skipped");
        s.buffer_write(PAddr::new(64), 7);
        assert_eq!(s.read_buffered(PAddr::new(64)), Some(7));
        assert_eq!(s.reads, vec![16], "a buffered read is not logged");
        assert_eq!(
            s.read_buffered(PAddr::new(65)),
            None,
            "other word, same line"
        );
        assert_eq!(s.read_buffered(PAddr::new(66)), None);
        assert_eq!(s.reads, vec![16, 8], "a run of one line is logged once");
        assert_eq!(s.read_buffered(PAddr::new(136)), None);
        assert_eq!(s.read_buffered(PAddr::new(67)), None);
        assert_eq!(s.reads, vec![16, 8, 17, 8]);
        assert_eq!(s.lines.len(), 1, "a read never inserts");
        assert_eq!(s.lines.slots()[0].flags, DATA | PLAIN);
    }

    #[test]
    fn the_read_log_is_compacted_past_capacity_and_before_growing() {
        let mut s = TxnScratch::new();
        for line in [1, 2, 1, 2, 1] {
            s.log_read(line);
            assert!(!s.reads_exceed(2), "two distinct lines fit");
        }
        assert_eq!(s.reads, vec![1, 2], "every third entry compacts");
        s.log_read(3);
        assert!(s.reads_exceed(2), "the third distinct line does not");
        assert_eq!(s.reads, vec![1, 2, 3]);

        // No capacity check at all (a software transaction): re-reads of
        // 20 lines never grow the log; 200 distinct lines do.
        s.reset();
        let allocated = s.reads.capacity();
        for i in 0..10_000u64 {
            s.log_read(i % 20);
        }
        assert_eq!(s.reads.capacity(), allocated);
        for line in 0..10_000u64 {
            s.log_read(line % 200);
        }
        assert!((200..=4 * 200).contains(&s.reads.capacity()));
    }

    #[test]
    fn nested_checkout_gets_its_own_descriptor() {
        let outer = checkout();
        let inner = checkout();
        give_back(inner);
        give_back(outer);
        // Whichever came back last is the spare; one checkout empties it.
        let _a = checkout();
        assert!(SPARE.with(Cell::take).is_none());
    }
}
