//! The persistent heap: data in the image, allocated by the transaction
//! that needs a block.
//!
//! A [`Heap`] keeps no state of its own. Its bump cursor and free lists
//! are words of the heap's first line, and [`Heap::alloc`] and
//! [`Heap::dealloc`] read and write them only through the calling
//! transaction's [`TxnOps`]. Whatever makes a body's writes atomic and
//! durable therefore covers the allocator too: an aborted attempt neither
//! leaks a block nor frees one twice, a re-executed body that finds the
//! header unchanged gets the same address, and a rebooted image keeps its
//! heap.
//!
//! **Layout.** The region's first line is the header: word 0 is the
//! cursor (words handed out past the header), and word `n`, for `n` in
//! `1..=`[`MAX_BLOCK_LINES`], heads the free list of `n`-line blocks (0
//! when empty). Requests are rounded up to whole lines, so independently
//! allocated objects never share a line, and a free block's word 0 links
//! to the next free block of its size. A region of zeros is an empty heap,
//! so an engine reserves it and writes nothing into it.

use crafty_common::{PAddr, TxAbort, TxnOps, WORDS_PER_LINE};

/// The largest block the heap serves, in lines: one free list per size
/// fills the header's words after the cursor.
pub const MAX_BLOCK_LINES: u64 = WORDS_PER_LINE - 1;

/// A handle onto a persistent heap laid out as the [module](self) docs
/// describe. It holds only addresses; the heap's state is in memory.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Heap {
    header: PAddr,
    /// Words available for blocks, past the header line.
    words: u64,
}

impl Heap {
    /// The heap over `[region, region + words)`, its header line included.
    ///
    /// # Panics
    ///
    /// Panics if `region` is not line-aligned or `words` leaves no room
    /// past the header.
    pub fn new(region: PAddr, words: u64) -> Self {
        assert_eq!(region.word() % WORDS_PER_LINE, 0, "heap region unaligned");
        assert!(
            words > WORDS_PER_LINE,
            "a heap of {words} words is all header"
        );
        Heap {
            header: region,
            words: words - WORDS_PER_LINE,
        }
    }

    /// The header's first word, the cursor; the free-list head of `n`-line
    /// blocks is `header().add(n)`.
    pub fn header(self) -> PAddr {
        self.header
    }

    /// The first block's address: the cursor counts words from here.
    pub fn start(self) -> PAddr {
        self.header.add(WORDS_PER_LINE)
    }

    /// Allocates `words` consecutive words, rounded up to whole lines, from
    /// the free list of their size or else from the cursor. The block holds
    /// whatever its last owner left (zeros, if it was never handed out).
    ///
    /// # Errors
    ///
    /// Returns the [`TxAbort`] of a read or write of the heap's words.
    ///
    /// # Panics
    ///
    /// Panics if `words` spans more than [`MAX_BLOCK_LINES`] lines, or when
    /// the heap is exhausted.
    pub fn alloc(self, ops: &mut dyn TxnOps, words: u64) -> Result<PAddr, TxAbort> {
        let lines = block_lines(words);
        let head = ops.read(self.header.add(lines))?;
        if head != 0 {
            let next = ops.read(PAddr::new(head))?;
            ops.write(self.header.add(lines), next)?;
            return Ok(PAddr::new(head));
        }
        let cursor = ops.read(self.header)?;
        let size = lines * WORDS_PER_LINE;
        assert!(
            cursor + size <= self.words,
            "persistent heap exhausted: {cursor} of {} words used, {size} more asked",
            self.words
        );
        ops.write(self.header, cursor + size)?;
        Ok(self.start().add(cursor))
    }

    /// Pushes the block at `addr`, allocated with the same `words`, onto
    /// the free list of its size, overwriting its word 0 with the link.
    ///
    /// # Errors
    ///
    /// Returns the [`TxAbort`] of a read or write of the heap's words.
    ///
    /// # Panics
    ///
    /// Panics if `words` spans more than [`MAX_BLOCK_LINES`] lines.
    pub fn dealloc(self, ops: &mut dyn TxnOps, addr: PAddr, words: u64) -> Result<(), TxAbort> {
        let list = self.header.add(block_lines(words));
        let head = ops.read(list)?;
        ops.write(addr, head)?;
        ops.write(list, addr.word())
    }
}

/// The size class of a `words`-word request, in lines.
fn block_lines(words: u64) -> u64 {
    let lines = words.max(1).div_ceil(WORDS_PER_LINE);
    assert!(
        lines <= MAX_BLOCK_LINES,
        "a heap block holds at most {MAX_BLOCK_LINES} lines; {words} words asked"
    );
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Memory that reads zeros where nothing was written: the heap's state
    /// is only what these ops hold.
    #[derive(Default)]
    struct Words(HashMap<u64, u64>);

    impl TxnOps for Words {
        fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
            Ok(self.0.get(&addr.word()).copied().unwrap_or(0))
        }
        fn write(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
            self.0.insert(addr.word(), value);
            Ok(())
        }
        fn alloc(&mut self, _: u64) -> Result<PAddr, TxAbort> {
            unreachable!("the heap allocates through reads and writes")
        }
        fn dealloc(&mut self, _: PAddr, _: u64) -> Result<(), TxAbort> {
            unreachable!("the heap frees through reads and writes")
        }
    }

    fn heap() -> (Heap, Words) {
        (Heap::new(PAddr::new(1024), 4096), Words::default())
    }

    #[test]
    fn allocations_are_disjoint_and_line_aligned() {
        let (h, mut m) = heap();
        let blocks = [3, 19, 1].map(|words| h.alloc(&mut m, words).unwrap());
        assert_eq!(blocks, [0, 1, 4].map(|line| h.start().add(line * 8)));
        assert_eq!(m.read(h.header()).unwrap(), 5 * WORDS_PER_LINE);
    }

    #[test]
    fn freed_blocks_are_reused() {
        let (h, mut m) = heap();
        let [a, b, big] = [8, 8, 20].map(|words| h.alloc(&mut m, words).unwrap());
        let cursor = m.read(h.header()).unwrap();
        for (block, words) in [(a, 8), (big, 20), (b, 8)] {
            h.dealloc(&mut m, block, words).unwrap();
        }
        assert_eq!(
            m.read(b).unwrap(),
            a.word(),
            "the list links through word 0"
        );
        let again = [5, 1, 17].map(|words| h.alloc(&mut m, words).unwrap());
        assert_eq!(again, [b, a, big], "each size's list, last freed first");
        assert_eq!(m.read(h.header()).unwrap(), cursor, "reuse bumps nothing");
    }

    #[test]
    #[should_panic(expected = "persistent heap exhausted")]
    fn exhaustion_panics() {
        let (h, mut m) = (Heap::new(PAddr::new(0), 24), Words::default());
        for _ in 0..3 {
            h.alloc(&mut m, 8).unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "at most 7 lines; 57 words asked")]
    fn a_block_past_the_largest_size_class_panics() {
        let (h, mut m) = heap();
        let _ = h.alloc(&mut m, 57);
    }
}
