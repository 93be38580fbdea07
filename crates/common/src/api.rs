//! The engine-generic persistent-transaction interface.
//!
//! Crafty, its ablation variants, and every baseline engine (Non-durable,
//! NV-HTM, DudeTM, software undo/redo logging) implement [`PersistentTm`].
//! Workloads are written once against [`TxnOps`] and run unchanged on every
//! engine, exactly as the paper runs the same benchmarks over all
//! configurations.
//!
//! Transaction bodies must be **idempotent**: engines are free to execute a
//! body multiple times (Crafty's Log and Validate phases re-execute it, HTM
//! retries re-execute it), so bodies must not have side effects outside the
//! [`TxnOps`] interface other than overwriting function-local state
//! (Section 6, "Mixed-mode accesses").
//!
//! # Example
//!
//! ```
//! use crafty_common::{PAddr, TxAbort, TxnOps};
//!
//! // A transaction body that transfers one unit between two accounts.
//! fn transfer(ops: &mut dyn TxnOps, from: PAddr, to: PAddr) -> Result<(), TxAbort> {
//!     let a = ops.read(from)?;
//!     let b = ops.read(to)?;
//!     ops.write(from, a.wrapping_sub(1))?;
//!     ops.write(to, b.wrapping_add(1))?;
//!     Ok(())
//! }
//! ```

use crate::addr::PAddr;
use crate::breakdown::BreakdownSnapshot;
use crate::error::TxAbort;

/// Operations available to a transaction body.
///
/// All memory named by [`PAddr`] is accessed through this trait while inside
/// a transaction; engines interpose logging, validation, or shadowing as
/// needed. Reads and writes are 64-bit and word-aligned, matching the
/// paper's implementation in which "all writes are expressed as 8-byte,
/// aligned stores".
pub trait TxnOps {
    /// Reads the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`TxAbort`] if the enclosing (simulated) hardware transaction
    /// aborted or the engine requires the body to restart; the body must
    /// propagate the error immediately.
    fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort>;

    /// Reads `out.len()` consecutive words from `addr` into `out`: what
    /// that many [`TxnOps::read`] calls, in address order, would return.
    /// Engines that track reads per cache line serve a run with one check
    /// per line; the default makes the word-wise calls.
    ///
    /// # Errors
    ///
    /// Returns [`TxAbort`] under the same conditions as [`TxnOps::read`];
    /// `out` is then unspecified.
    fn read_words(&mut self, addr: PAddr, out: &mut [u64]) -> Result<(), TxAbort> {
        for (i, word) in out.iter_mut().enumerate() {
            *word = self.read(addr.add(i as u64))?;
        }
        Ok(())
    }

    /// Writes `value` to the word at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`TxAbort`] under the same conditions as [`TxnOps::read`].
    fn write(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort>;

    /// Allocates `words` consecutive words of persistent memory and returns
    /// the address of the first. Engines that re-execute bodies guarantee
    /// that the same call site observes the same address on re-execution
    /// (Section 6, "Memory management").
    ///
    /// # Errors
    ///
    /// Returns [`TxAbort`] under the same conditions as [`TxnOps::read`],
    /// or if the persistent heap is exhausted.
    fn alloc(&mut self, words: u64) -> Result<PAddr, TxAbort>;

    /// Frees `words` consecutive words starting at `addr`. The release is
    /// deferred until the persistent transaction commits so that aborted or
    /// re-executed bodies do not leak or double-free.
    ///
    /// # Errors
    ///
    /// Returns [`TxAbort`] under the same conditions as [`TxnOps::read`].
    fn dealloc(&mut self, addr: PAddr, words: u64) -> Result<(), TxAbort>;
}

/// A transaction body: a re-executable closure over [`TxnOps`].
pub type TxnBody<'a> = dyn FnMut(&mut dyn TxnOps) -> Result<(), TxAbort> + 'a;

/// A per-thread handle onto an engine.
///
/// Engines keep per-thread state (undo/redo logs, retry counters); worker
/// threads obtain a `TmThread` via [`PersistentTm::register_thread`] and run
/// every persistent transaction through it.
pub trait TmThread {
    /// Executes one persistent transaction to completion, retrying and
    /// falling back internally as the engine requires. The body may be
    /// invoked any number of times. How it completed, and how every
    /// hardware attempt on the way ended, is counted in the engine's
    /// [`PersistentTm::breakdown`].
    ///
    /// A transaction that has returned is atomic under a crash, not yet
    /// guaranteed durable: recovery may roll back each thread's latest
    /// sequence. Group commit amortises the step that pins it — run a batch
    /// through `execute`, then one [`PersistentTm::persist_fence`] before
    /// acknowledging any of them — and never the drains inside `execute`,
    /// which order one transaction's in-place writes before the next one's
    /// undo entries.
    fn execute(&mut self, body: &mut TxnBody<'_>);
}

/// A persistent-transaction engine.
///
/// Implementations must be shareable across threads; per-thread mutable
/// state lives behind [`PersistentTm::register_thread`].
pub trait PersistentTm: Send + Sync {
    /// Human-readable engine name as used in the paper's legends
    /// (e.g. `"Crafty"`, `"NV-HTM"`, `"Non-durable"`).
    fn name(&self) -> &str;

    /// Registers worker thread `tid` (0-based, dense) and returns its
    /// engine handle. Each tid must be registered at most once per run.
    fn register_thread(&self, tid: usize) -> Box<dyn TmThread + '_>;

    /// Returns a snapshot of the engine's breakdown counters.
    fn breakdown(&self) -> BreakdownSnapshot;

    /// Whether the engine provides failure atomicity (durability). The
    /// Non-durable baseline returns `false`.
    fn is_durable(&self) -> bool {
        true
    }

    /// Called once after all worker threads have finished a measurement
    /// run; engines with background threads (NV-HTM, DudeTM) drain their
    /// pipelines here so that all committed transactions are persisted.
    fn quiesce(&self) {}

    /// Pins every transaction that has completed before the call so that it
    /// survives a crash, callable **while other threads keep running**
    /// (unlike [`PersistentTm::quiesce`]). Invoke this before an externally
    /// visible, irrevocable action — acknowledging a network request,
    /// issuing a system call — whose observer must never see the
    /// acknowledged work disappear.
    ///
    /// The paper's recovery gives prefix consistency: each thread's
    /// *latest* logged sequence is rolled back (its data write-backs may be
    /// torn), and the timestamp cut can drag further committed-but-unpinned
    /// work down with it. Crafty therefore implements this as Section 5.2's
    /// on-demand persistence: an empty committed sequence is appended to
    /// every thread's log, so the rollback has nothing real left to undo.
    ///
    /// The default is a no-op, which is correct for engines whose committed
    /// transactions are already stable once their commit-path drains have
    /// completed (and trivially for the non-durable baseline, which makes
    /// no durability promise to pin).
    fn persist_fence(&self, calling_tid: usize) {
        let _ = calling_tid;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakdown::{BreakdownRecorder, CompletionPath};
    use std::collections::HashMap;

    /// A trivial in-memory engine used to exercise the trait object
    /// interface itself.
    struct MapTm {
        recorder: BreakdownRecorder,
    }

    struct MapThread<'a> {
        store: HashMap<u64, u64>,
        next: u64,
        tid: usize,
        recorder: &'a BreakdownRecorder,
    }

    struct MapOps<'a> {
        store: &'a mut HashMap<u64, u64>,
        next: &'a mut u64,
    }

    impl TxnOps for MapOps<'_> {
        fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
            Ok(*self.store.get(&addr.word()).unwrap_or(&0))
        }
        fn write(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
            self.store.insert(addr.word(), value);
            Ok(())
        }
        fn alloc(&mut self, words: u64) -> Result<PAddr, TxAbort> {
            let a = *self.next;
            *self.next += words;
            Ok(PAddr::new(a))
        }
        fn dealloc(&mut self, _addr: PAddr, _words: u64) -> Result<(), TxAbort> {
            Ok(())
        }
    }

    impl TmThread for MapThread<'_> {
        fn execute(&mut self, body: &mut TxnBody<'_>) {
            let mut ops = MapOps {
                store: &mut self.store,
                next: &mut self.next,
            };
            body(&mut ops).expect("map engine never aborts");
            self.recorder
                .record_completion(self.tid, CompletionPath::NonCrafty);
        }
    }

    impl PersistentTm for MapTm {
        fn name(&self) -> &str {
            "map"
        }
        fn register_thread(&self, tid: usize) -> Box<dyn TmThread + '_> {
            Box::new(MapThread {
                store: HashMap::new(),
                next: 1,
                tid,
                recorder: &self.recorder,
            })
        }
        fn breakdown(&self) -> BreakdownSnapshot {
            self.recorder.snapshot()
        }
        fn is_durable(&self) -> bool {
            false
        }
    }

    #[test]
    fn bodies_run_through_trait_objects() {
        let tm = MapTm {
            recorder: BreakdownRecorder::new(),
        };
        let mut thread = tm.register_thread(0);
        let target = PAddr::new(100);
        thread.execute(&mut |ops| {
            let v = ops.read(target)?;
            ops.write(target, v + 7)?;
            Ok(())
        });
        assert_eq!(tm.breakdown().completions(CompletionPath::NonCrafty), 1);
        let mut read_back = 0;
        thread.execute(&mut |ops| {
            read_back = ops.read(target)?;
            Ok(())
        });
        assert_eq!(read_back, 7);
        assert_eq!(tm.breakdown().total_persistent(), 2);
        assert!(!tm.is_durable());
        tm.quiesce();
    }

    #[test]
    fn alloc_returns_distinct_addresses() {
        let tm = MapTm {
            recorder: BreakdownRecorder::new(),
        };
        let mut thread = tm.register_thread(0);
        let mut first = PAddr::NULL;
        let mut second = PAddr::NULL;
        thread.execute(&mut |ops| {
            first = ops.alloc(4)?;
            second = ops.alloc(4)?;
            Ok(())
        });
        assert_ne!(first, second);
        assert!(second.word() >= first.word() + 4);
    }
}
