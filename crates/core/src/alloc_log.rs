//! Allocation logging for re-executable transaction bodies.
//!
//! Because Crafty's Log and Validate phases execute the same body twice,
//! the implementation "logs allocations during the Log phase and reuses the
//! allocated memory at corresponding malloc calls during the Validate
//! phase. Similarly, \[it\] logs free calls during the Log phase, and either
//! performs the logged frees after completing the Redo phase or allows the
//! Validate phase to perform free calls and then discards logged frees"
//! (Section 6). [`AllocLog`] implements exactly that bookkeeping.

use crafty_common::PAddr;
use crafty_pmem::PmemAllocator;

/// Per-transaction record of allocator activity. It is either *recording*
/// (Log phase and software commits: allocations are made and logged) or
/// *replaying* (Validate phase, after [`AllocLog::start_replay`]: the
/// logged allocations are handed back in order), so a transaction context
/// serves `alloc`/`dealloc` the same way in every phase.
#[derive(Clone, Debug, Default)]
pub struct AllocLog {
    allocations: Vec<(PAddr, u64)>,
    frees: Vec<(PAddr, u64)>,
    /// `Some(next)` while replaying: index of the next allocation to hand
    /// back.
    replay_cursor: Option<usize>,
}

impl AllocLog {
    /// Creates an empty allocation log.
    pub fn new() -> Self {
        AllocLog::default()
    }

    /// Serves one allocation request of the transaction body. Recording:
    /// allocates from `allocator` and logs it. Replaying: returns the next
    /// logged allocation, or `None` if the re-executed body diverged
    /// (asked for a different size, or for more allocations than were
    /// logged) — a validation failure.
    ///
    /// # Panics
    ///
    /// Panics when the persistent heap is exhausted.
    pub fn alloc(&mut self, allocator: &PmemAllocator, words: u64) -> Option<PAddr> {
        if let Some(next) = self.replay_cursor {
            let &(addr, logged_words) = self.allocations.get(next)?;
            if logged_words != words {
                return None;
            }
            self.replay_cursor = Some(next + 1);
            return Some(addr);
        }
        let addr = allocator
            .alloc(words)
            .expect("persistent heap exhausted; increase CraftyConfig::heap_words");
        self.allocations.push((addr, words));
        Some(addr)
    }

    /// Serves one free request of the transaction body: logged while
    /// recording, and released only once the persistent transaction
    /// commits. Ignored while replaying — the Log phase already logged it,
    /// and the release is deferred to commit either way (Section 6).
    pub fn free(&mut self, addr: PAddr, words: u64) {
        if self.replay_cursor.is_none() {
            self.frees.push((addr, words));
        }
    }

    /// Number of deferred frees recorded so far.
    pub fn deferred_frees(&self) -> usize {
        self.frees.len()
    }

    /// True when the transaction neither allocated nor freed.
    pub fn is_empty(&self) -> bool {
        self.allocations.is_empty() && self.frees.is_empty()
    }

    /// Prepares for a Validate-phase re-execution: subsequent
    /// [`AllocLog::alloc`] calls hand back the Log phase's allocations in
    /// order.
    pub fn start_replay(&mut self) {
        self.replay_cursor = Some(0);
    }

    /// Releases every logged allocation back to the allocator. Called when
    /// the whole persistent transaction is abandoned and restarted from the
    /// Log phase, so that failed attempts do not leak persistent memory.
    pub fn release_allocations(&mut self, allocator: &PmemAllocator) {
        for (addr, words) in self.allocations.drain(..) {
            allocator.free(addr, words);
        }
        self.replay_cursor = None;
        self.frees.clear();
    }

    /// Performs the deferred frees. Called once the persistent transaction
    /// has committed (after the Redo or Validate phase, or a software commit).
    pub fn apply_frees(&mut self, allocator: &PmemAllocator) {
        for (addr, words) in self.frees.drain(..) {
            allocator.free(addr, words);
        }
        self.allocations.clear();
        self.replay_cursor = None;
    }

    /// Discards all records without touching the allocator (used for
    /// read-only transactions).
    pub fn clear(&mut self) {
        self.allocations.clear();
        self.frees.clear();
        self.replay_cursor = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allocator() -> PmemAllocator {
        PmemAllocator::new(PAddr::new(64), 1024)
    }

    #[test]
    fn replay_returns_same_addresses_in_order() {
        let a = allocator();
        let mut log = AllocLog::new();
        let x = log.alloc(&a, 4).expect("alloc");
        let y = log.alloc(&a, 8).expect("alloc");
        log.start_replay();
        assert_eq!(log.alloc(&a, 4), Some(x));
        assert_eq!(log.alloc(&a, 8), Some(y));
        assert_eq!(log.alloc(&a, 8), None, "no more allocations were logged");
        assert_eq!(a.live_allocations(), 2, "replay allocates nothing");
    }

    #[test]
    fn replay_with_diverging_size_fails() {
        let a = allocator();
        let mut log = AllocLog::new();
        log.alloc(&a, 4).expect("alloc");
        log.start_replay();
        assert_eq!(log.alloc(&a, 8), None);
    }

    #[test]
    fn release_allocations_returns_memory_and_resumes_recording() {
        let a = allocator();
        let mut log = AllocLog::new();
        log.alloc(&a, 4).expect("alloc");
        log.start_replay();
        assert_eq!(a.live_allocations(), 1);
        log.release_allocations(&a);
        assert_eq!(a.live_allocations(), 0);
        assert!(log.is_empty());
        log.alloc(&a, 4).expect("recording again");
        assert_eq!(a.live_allocations(), 1);
    }

    #[test]
    fn frees_are_deferred_until_applied_and_not_logged_twice() {
        let a = allocator();
        let mut log = AllocLog::new();
        let x = a.alloc(4).expect("alloc");
        log.free(x, 4);
        log.start_replay();
        log.free(x, 4);
        assert_eq!(log.deferred_frees(), 1, "replayed frees are not re-logged");
        assert_eq!(a.live_allocations(), 1, "free must be deferred");
        log.apply_frees(&a);
        assert_eq!(a.live_allocations(), 0);
        assert_eq!(log.deferred_frees(), 0);
    }

    #[test]
    fn clear_discards_everything() {
        let a = allocator();
        let mut log = AllocLog::new();
        log.alloc(&a, 4).expect("alloc");
        log.free(PAddr::new(200), 4);
        log.clear();
        assert!(log.is_empty());
    }
}
