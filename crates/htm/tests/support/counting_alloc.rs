//! The counting global allocator behind the three `alloc_free_*` test
//! binaries (`crates/htm/tests/alloc_free_hot_path.rs` and
//! `crates/core/tests/alloc_free_{engine,traced}.rs`). Not a test target
//! of its own: each binary pulls it in with `#[path]` and installs
//! [`CountingAllocator`] as its `#[global_allocator]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

std::thread_local! {
    /// Allocations made by the current thread. Per-thread because the
    /// libtest harness's main thread blocks on an event channel while the
    /// test thread runs and may allocate at any moment (mpmc waker
    /// registration) — a process-global count races against it on small
    /// machines. Const-initialized so the thread-local itself never
    /// allocates on first use.
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Heap allocations (and reallocations) the calling thread has made.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(|c| c.get())
}

/// The system allocator, counting each thread's `alloc` and `realloc`
/// calls.
pub struct CountingAllocator;

// SAFETY: every method hands its arguments unchanged to `System` and
// returns what `System` returns, so `System`'s `GlobalAlloc` guarantees
// carry over. The count is a `Cell` in a const-initialised thread-local:
// updating it neither allocates nor unwinds, and `try_with` skips it
// during thread teardown.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: as for `dealloc`; the caller upholds the rest of
        // `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
