//! A simple thread-safe allocator over a region of the persistent heap.
//!
//! Dynamic structures in the workloads (B+-tree nodes, reservation records,
//! hash-table buckets) allocate from this. The design is intentionally
//! simple — a bump pointer plus size-class free lists — because allocator
//! policy is not under evaluation; what matters is that engines can log and
//! replay allocation decisions (Section 6, "Memory management").

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crafty_common::{PAddr, WORDS_PER_LINE};

/// A thread-safe bump + free-list allocator over `[start, start+words)`.
#[derive(Debug)]
pub struct PmemAllocator {
    start: PAddr,
    words: u64,
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    cursor: u64,
    free_lists: HashMap<u64, Vec<PAddr>>,
    live_allocations: u64,
}

impl PmemAllocator {
    /// Creates an allocator serving the region `[start, start + words)`.
    pub fn new(start: PAddr, words: u64) -> Self {
        PmemAllocator {
            start,
            words,
            inner: Mutex::new(Inner {
                cursor: 0,
                free_lists: HashMap::new(),
                live_allocations: 0,
            }),
        }
    }

    /// Allocates `words` consecutive words (rounded up to a whole cache
    /// line so that independently allocated objects never share a line,
    /// matching the cache-line-aligned objects used in the paper's
    /// microbenchmarks). Returns `None` when the region is exhausted.
    pub fn alloc(&self, words: u64) -> Option<PAddr> {
        let size = Self::size_class(words);
        let mut inner = self.lock();
        if let Some(addr) = inner.free_lists.get_mut(&size).and_then(Vec::pop) {
            inner.live_allocations += 1;
            return Some(addr);
        }
        if inner.cursor + size > self.words {
            return None;
        }
        let addr = self.start.add(inner.cursor);
        inner.cursor += size;
        inner.live_allocations += 1;
        Some(addr)
    }

    /// Returns `addr` (previously returned by [`PmemAllocator::alloc`] with
    /// the same `words`) to the allocator.
    pub fn free(&self, addr: PAddr, words: u64) {
        let size = Self::size_class(words);
        let mut inner = self.lock();
        inner.free_lists.entry(size).or_default().push(addr);
        inner.live_allocations = inner.live_allocations.saturating_sub(1);
    }

    /// Number of allocations currently live (allocated and not freed).
    pub fn live_allocations(&self) -> u64 {
        self.lock().live_allocations
    }

    /// Words already consumed from the region (monotone; freed blocks are
    /// recycled but never returned to the bump cursor).
    pub fn used_words(&self) -> u64 {
        self.lock().cursor
    }

    /// No update of [`Inner`] can panic halfway, so a lock poisoned by a
    /// panic elsewhere still guards a valid state.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn size_class(words: u64) -> u64 {
        words.max(1).div_ceil(WORDS_PER_LINE) * WORDS_PER_LINE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allocator() -> PmemAllocator {
        PmemAllocator::new(PAddr::new(1024), 4096)
    }

    #[test]
    fn allocations_are_disjoint_and_line_aligned() {
        let a = allocator();
        let x = a.alloc(3).expect("alloc");
        let y = a.alloc(3).expect("alloc");
        assert_ne!(x, y);
        assert_eq!(x.word() % WORDS_PER_LINE, 0);
        assert_eq!(y.word() % WORDS_PER_LINE, 0);
        assert!(y.word() >= x.word() + WORDS_PER_LINE || x.word() >= y.word() + WORDS_PER_LINE);
    }

    #[test]
    fn freed_blocks_are_reused() {
        let a = allocator();
        let x = a.alloc(8).expect("alloc");
        a.free(x, 8);
        let y = a.alloc(8).expect("alloc");
        assert_eq!(x, y, "free list should be recycled before bumping");
    }

    #[test]
    fn exhaustion_returns_none() {
        let a = PmemAllocator::new(PAddr::new(0), 16);
        assert!(a.alloc(8).is_some());
        assert!(a.alloc(8).is_some());
        assert!(a.alloc(8).is_none());
    }

    #[test]
    fn live_and_used_counters() {
        let a = allocator();
        assert_eq!(a.live_allocations(), 0);
        let x = a.alloc(1).expect("alloc");
        let _y = a.alloc(1).expect("alloc");
        assert_eq!(a.live_allocations(), 2);
        assert_eq!(a.used_words(), 2 * WORDS_PER_LINE);
        a.free(x, 1);
        assert_eq!(a.live_allocations(), 1);
    }

    #[test]
    fn concurrent_allocations_do_not_overlap() {
        use std::collections::HashSet;
        use std::sync::Arc;
        let a = Arc::new(PmemAllocator::new(PAddr::new(0), 64 * 1024));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let a = Arc::clone(&a);
            handles.push(std::thread::spawn(move || {
                (0..256)
                    .map(|_| a.alloc(2).expect("alloc").word())
                    .collect::<Vec<_>>()
            }));
        }
        let mut seen = HashSet::new();
        for h in handles {
            for w in h.join().expect("allocator thread panicked") {
                assert!(seen.insert(w), "address {w} handed out twice");
            }
        }
    }
}
