//! A generation-stamped open-addressed line table with O(1) clear.
//!
//! [`LineTable`] backs every transaction descriptor in the workspace —
//! structures that must be emptied once per transaction without touching
//! their storage: each index slot carries a *generation* stamp, and a slot
//! is occupied only while its stamp equals the table's current generation.
//! Clearing is a single counter bump; growth doubles the index (the only
//! allocation, and only until the table reaches the workload's steady-state
//! footprint).
//!
//! The index is keyed by cache *line*, and each entry carries the line's
//! buffered words, written-word mask and flags, so one lookup answers
//! every question a hardware or fallback transaction asks about a line it
//! wrote (written? to be locked? to be flushed?). Lines a
//! transaction only reads stay out of it: the descriptor logs them
//! instead. Entries are plain `Copy` values, so one table's lines can be
//! taken out with a slice copy ([`LineTable::slots`]): Crafty's redo image
//! leaves the Log transaction's descriptor that way, and the Redo's
//! descriptor takes it back one [`LineTable::entry`] per line, the one
//! insertion path. The persistence domain's flush-queue dedup stamps apply
//! the same idea with the queue's drained cursor as the generation.

use crate::WORDS_PER_LINE;

/// Multiplicative hash spreading keys across the table (Fibonacci hashing).
#[inline]
fn spread(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

const INITIAL_CAPACITY: usize = 64;
/// Grow when occupancy passes 3/4.
const LOAD_NUM: usize = 3;
const LOAD_DEN: usize = 4;

/// One cache line's entry in a [`LineTable`]: the line id, an 8-word value
/// buffer with a written-word mask, and a byte of caller-defined flags.
///
/// `words[i]` is meaningful only while bit `i` of `mask` is set; a reused
/// entry keeps stale values in its unmasked words.
#[derive(Clone, Copy, Debug)]
pub struct LineSlot {
    line: u64,
    /// Buffered values, indexed by word-within-line.
    pub words: [u64; WORDS_PER_LINE as usize],
    /// Bit `i` set: `words[i]` holds a buffered value.
    pub mask: u8,
    /// Caller-defined per-line flags; zero on a fresh entry.
    pub flags: u8,
}

impl LineSlot {
    /// The cache-line index this entry describes.
    #[inline]
    pub fn line(&self) -> u64 {
        self.line
    }
}

/// A slot of the [`LineTable`]'s sparse index: occupied while `gen` equals
/// the table's generation, and then naming entry `idx` of the dense array.
#[derive(Clone, Copy)]
struct IndexSlot {
    gen: u64,
    idx: u32,
}

/// A line-keyed transaction footprint table: one [`LineSlot`] per distinct
/// cache line, found in O(1) and kept in first-touch order.
///
/// Entries live densely in insertion order (so commit-time walks visit
/// exactly the lines touched, not the table's slot count) and are located
/// through a generation-stamped open-addressed index over line ids —
/// clearing is a generation bump plus a length reset. A one-entry cache
/// of the last line looked up makes runs of accesses to one line
/// (sequential log appends, read-then-write of one word) skip the probe
/// entirely, and a [`LineTable::find`] that misses keeps the empty
/// position it stopped at, so the [`LineTable::entry`] that usually
/// follows (a read of a line, then a write to it) inserts without probing
/// again.
#[derive(Clone)]
pub struct LineTable {
    /// Entry storage; only `..len` is live. Entries past `len` are kept
    /// so that reuse never re-initializes a 64-byte buffer.
    slots: Vec<LineSlot>,
    len: usize,
    index: Vec<IndexSlot>,
    gen: u64,
    /// Dense index of the most recently looked-up entry.
    last: usize,
    /// The line the last [`LineTable::find`] missed and the empty index
    /// position its probe ended at; valid until the index next changes.
    vacant: Option<(u64, usize)>,
}

impl std::fmt::Debug for LineTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.slots()).finish()
    }
}

impl LineTable {
    /// Creates an empty table with the default initial capacity.
    pub fn new() -> Self {
        LineTable::with_capacity(INITIAL_CAPACITY)
    }

    /// Creates an empty table able to hold roughly `capacity` lines before
    /// its index grows.
    pub fn with_capacity(capacity: usize) -> Self {
        let index_slots = (capacity.max(4) * LOAD_DEN / LOAD_NUM).next_power_of_two();
        LineTable {
            slots: Vec::with_capacity(capacity),
            len: 0,
            // Generation 0 is never current, so fresh index slots are empty.
            index: vec![IndexSlot { gen: 0, idx: 0 }; index_slots],
            gen: 1,
            last: 0,
            vacant: None,
        }
    }

    /// Number of distinct lines in the table.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table holds no line.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocated capacity (index slots plus entry storage); stable across
    /// [`LineTable::clear`] once the workload's footprint has been seen.
    pub fn slot_capacity(&self) -> usize {
        self.index.len() + self.slots.capacity()
    }

    /// Logically empties the table in O(1).
    #[inline]
    pub fn clear(&mut self) {
        self.gen += 1;
        self.len = 0;
        self.vacant = None;
    }

    /// The live entries, in first-touch order.
    #[inline]
    pub fn slots(&self) -> &[LineSlot] {
        &self.slots[..self.len]
    }

    /// The entry at dense index `idx` (as returned by [`LineTable::entry`]).
    #[inline]
    pub fn slot_mut(&mut self, idx: usize) -> &mut LineSlot {
        &mut self.slots[..self.len][idx]
    }

    /// The live entries, mutably (their line ids stay read-only).
    #[inline]
    pub fn slots_mut(&mut self) -> &mut [LineSlot] {
        &mut self.slots[..self.len]
    }

    /// Probes the index for `line`: the dense index of its entry, or the
    /// empty index position where it would go.
    #[inline]
    fn probe(&self, line: u64) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        // The product's high bits: its low bits depend only on the line
        // id's low bits, and line ids are often strided.
        let mut i = (spread(line) >> (64 - self.index.len().trailing_zeros())) as usize;
        loop {
            let slot = self.index[i];
            if slot.gen != self.gen {
                return Err(i);
            }
            if self.slots[slot.idx as usize].line == line {
                return Ok(slot.idx as usize);
            }
            i = (i + 1) & mask;
        }
    }

    /// True if `line` is the line looked up last (its index is `last`).
    #[inline]
    fn is_last(&self, line: u64) -> bool {
        self.slots()
            .get(self.last)
            .is_some_and(|slot| slot.line == line)
    }

    /// `line`'s entry, if the table has one: a read-only
    /// [`LineTable::find`] that neither moves the last-line cache nor
    /// remembers a miss.
    #[inline]
    pub fn get(&self, line: u64) -> Option<&LineSlot> {
        self.probe(line).ok().map(|idx| &self.slots[idx])
    }

    /// The dense index of `line`'s entry, if the table has one. Never
    /// inserts; a miss remembers where `line` would go, for an
    /// [`LineTable::entry`] of the same line right after.
    ///
    /// Always inlined: with a second caller in the read path
    /// (`HwTxn::read_words`) the compiler outlined it, and every word
    /// `HwTxn::read` takes from a written transaction's buffer paid a call.
    #[inline(always)]
    pub fn find(&mut self, line: u64) -> Option<usize> {
        if self.is_last(line) {
            return Some(self.last);
        }
        match self.probe(line) {
            Ok(idx) => {
                self.last = idx;
                Some(idx)
            }
            Err(pos) => {
                self.vacant = Some((line, pos));
                None
            }
        }
    }

    /// The dense index of `line`'s entry, inserting a fresh one (`mask` and
    /// `flags` zero) if the line is new. At most one probe, none when
    /// `line` is the line looked up last or the one a [`LineTable::find`]
    /// just missed.
    #[inline]
    pub fn entry(&mut self, line: u64) -> usize {
        if self.is_last(line) {
            return self.last;
        }
        self.last = match self.vacant {
            Some((missed, pos)) if missed == line => self.insert_at(pos, line),
            _ => match self.probe(line) {
                Ok(idx) => idx,
                Err(pos) => self.insert_at(pos, line),
            },
        };
        self.last
    }

    fn insert_at(&mut self, mut pos: usize, line: u64) -> usize {
        self.vacant = None;
        if (self.len + 1) * LOAD_DEN >= self.index.len() * LOAD_NUM {
            self.grow_index();
            pos = self.probe(line).expect_err("line is new");
        }
        let idx = self.len;
        match self.slots.get_mut(idx) {
            Some(slot) => {
                slot.line = line;
                slot.mask = 0;
                slot.flags = 0;
            }
            None => self.slots.push(LineSlot {
                line,
                words: [0; WORDS_PER_LINE as usize],
                mask: 0,
                flags: 0,
            }),
        }
        self.len += 1;
        self.index[pos] = IndexSlot {
            gen: self.gen,
            idx: idx as u32,
        };
        idx
    }

    #[cold]
    fn grow_index(&mut self) {
        let new_slots = self.index.len() * 2;
        self.index.clear();
        self.index.resize(new_slots, IndexSlot { gen: 0, idx: 0 });
        self.gen = 1;
        for idx in 0..self.len {
            let pos = self
                .probe(self.slots[idx].line)
                .expect_err("dense entries are distinct");
            self.index[pos] = IndexSlot {
                gen: self.gen,
                idx: idx as u32,
            };
        }
    }
}

impl Default for LineTable {
    fn default() -> Self {
        LineTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_table_entry_is_find_or_insert() {
        let mut t = LineTable::new();
        let a = t.entry(7);
        assert_eq!(t.entry(7), a, "last-line cache hit");
        let b = t.entry(0);
        assert_ne!(a, b, "zero must be a usable line id");
        assert_eq!(t.entry(7), a, "probe hit after another line intervened");
        assert_eq!(t.len(), 2);
        t.slot_mut(a).words[3] = 9;
        t.slot_mut(a).mask = 1 << 3;
        t.slot_mut(a).flags = 5;
        t.clear();
        assert!(t.is_empty());
        let again = t.entry(7);
        assert_eq!(
            (t.slots()[again].mask, t.slots()[again].flags),
            (0, 0),
            "a reused entry starts unmasked and unflagged"
        );
    }

    #[test]
    fn find_never_inserts_and_its_miss_feeds_the_next_entry() {
        let mut t = LineTable::with_capacity(4);
        assert_eq!(t.find(7), None);
        assert!(t.is_empty(), "a miss inserts nothing");
        let a = t.entry(7);
        assert_eq!((t.find(7), t.len()), (Some(a), 1));
        // A miss, then an entry of another line: the kept position is
        // not the other line's, and is spent by the insert anyway.
        assert_eq!(t.find(9), None);
        assert_eq!(t.entry(3), a + 1);
        assert_eq!(t.find(9), None);
        t.clear();
        assert_eq!(t.entry(9), 0, "a clear forgets the kept position");
        assert_eq!(t.find(9), Some(0));
        // Misses followed by inserts that grow the index mid-run.
        for k in 0..100u64 {
            assert_eq!(t.find(k * 5 + 1), None);
            t.entry(k * 5 + 1);
        }
        for k in 0..100u64 {
            assert_eq!(t.find(k * 5 + 1), Some(k as usize + 1));
            assert_eq!(t.get(k * 5 + 1).map(LineSlot::line), Some(k * 5 + 1));
        }
        assert!(t.get(2).is_none(), "get misses like find");
    }

    #[test]
    fn line_table_grows_and_keeps_first_touch_order() {
        let mut t = LineTable::with_capacity(4);
        let before = t.slot_capacity();
        for k in 0..500u64 {
            let idx = t.entry(k * 3);
            assert_eq!(idx, k as usize);
            t.slot_mut(idx).words[0] = k;
        }
        assert!(t.slot_capacity() > before);
        for k in 0..500u64 {
            let idx = t.entry(k * 3);
            assert_eq!(idx, k as usize, "line {} lost in growth", k * 3);
        }
        let lines: Vec<u64> = t.slots().iter().map(LineSlot::line).collect();
        assert_eq!(lines, (0..500).map(|k| k * 3).collect::<Vec<_>>());
    }
}
