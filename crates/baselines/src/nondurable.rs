//! The Non-durable baseline: plain hardware transactions, no persistence.

use std::sync::Arc;

use crafty_common::{
    BreakdownRecorder, BreakdownSnapshot, CompletionPath, PAddr, PersistentTm, TmThread, TxAbort,
    TxnBody, TxnOps,
};
use crafty_htm::{HtmConfig, HtmRuntime, HwTxn};
use crafty_pmem::{MemorySpace, PmemAllocator};

use crate::MAX_HTM_ATTEMPTS;

/// Executes each persistent transaction in a hardware transaction with a
/// global-lock fallback, exactly like the `Non-durable` configuration of
/// the NV-HTM artifact: it provides thread atomicity but **no**
/// crash-consistency guarantees (nothing is ever flushed).
pub struct NonDurable {
    mem: Arc<MemorySpace>,
    htm: HtmRuntime,
    recorder: Arc<BreakdownRecorder>,
    allocator: PmemAllocator,
    sgl_addr: PAddr,
}

impl std::fmt::Debug for NonDurable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NonDurable").finish()
    }
}

impl NonDurable {
    /// Creates a Non-durable engine over `mem` with a heap of `heap_words`
    /// for transactional allocation.
    pub fn new(mem: Arc<MemorySpace>, heap_words: u64) -> Self {
        let recorder = Arc::new(BreakdownRecorder::with_threads(mem.config().max_threads));
        let htm = HtmRuntime::new(
            Arc::clone(&mem),
            HtmConfig::skylake(),
            Arc::clone(&recorder),
        );
        let heap = mem.reserve_persistent(heap_words);
        let sgl_addr = mem.reserve_volatile(1);
        NonDurable {
            mem,
            htm,
            recorder,
            allocator: PmemAllocator::new(heap, heap_words),
            sgl_addr,
        }
    }

    /// The memory space the engine operates on.
    pub fn mem(&self) -> &Arc<MemorySpace> {
        &self.mem
    }
}

struct NonDurableThread<'e> {
    engine: &'e NonDurable,
    tid: usize,
}

struct HtmOps<'a, 'rt> {
    txn: &'a mut HwTxn<'rt>,
    allocator: &'a PmemAllocator,
}

impl TxnOps for HtmOps<'_, '_> {
    fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
        self.txn.read(addr).map_err(|_| TxAbort::hardware())
    }
    fn write(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
        self.txn.write(addr, value).map_err(|_| TxAbort::hardware())
    }
    fn alloc(&mut self, words: u64) -> Result<PAddr, TxAbort> {
        Ok(self
            .allocator
            .alloc(words)
            .expect("persistent heap exhausted"))
    }
    fn dealloc(&mut self, addr: PAddr, words: u64) -> Result<(), TxAbort> {
        self.allocator.free(addr, words);
        Ok(())
    }
}

struct LockedOps<'a> {
    htm: &'a HtmRuntime,
    allocator: &'a PmemAllocator,
}

impl TxnOps for LockedOps<'_> {
    fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
        Ok(self.htm.nontx_read(addr))
    }
    fn write(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
        self.htm.nontx_write(addr, value);
        Ok(())
    }
    fn alloc(&mut self, words: u64) -> Result<PAddr, TxAbort> {
        Ok(self
            .allocator
            .alloc(words)
            .expect("persistent heap exhausted"))
    }
    fn dealloc(&mut self, addr: PAddr, words: u64) -> Result<(), TxAbort> {
        self.allocator.free(addr, words);
        Ok(())
    }
}

impl TmThread for NonDurableThread<'_> {
    fn execute(&mut self, body: &mut TxnBody<'_>) {
        let engine = self.engine;
        let mut attempts = 0;
        while attempts < MAX_HTM_ATTEMPTS {
            while engine.htm.nontx_read(engine.sgl_addr) != 0 {
                std::thread::yield_now();
            }
            attempts += 1;
            let mut txn = engine.htm.begin(self.tid);
            let subscribed = matches!(txn.read(engine.sgl_addr), Ok(0));
            if !subscribed {
                continue;
            }
            let ok = {
                let mut ops = HtmOps {
                    txn: &mut txn,
                    allocator: &engine.allocator,
                };
                body(&mut ops).is_ok()
            };
            if ok && txn.commit().is_ok() {
                engine
                    .recorder
                    .record_completion(self.tid, CompletionPath::NonCrafty);
                return;
            }
        }
        // Global-lock fallback: the SGL word in simulated memory *is* the
        // lock — no host mutex. Acquiring it through the versioned-lock
        // machinery aborts every subscribed hardware transaction; the
        // guard releases the word on drop (panic-safe).
        let sgl = engine.htm.nontx_acquire_lock_word(engine.sgl_addr);
        let mut ops = LockedOps {
            htm: &engine.htm,
            allocator: &engine.allocator,
        };
        body(&mut ops).expect("transaction body must succeed under the global lock");
        drop(sgl);
        engine
            .recorder
            .record_completion(self.tid, CompletionPath::Sgl);
    }
}

impl PersistentTm for NonDurable {
    fn name(&self) -> &str {
        "Non-durable"
    }
    fn register_thread(&self, tid: usize) -> Box<dyn TmThread + '_> {
        Box::new(NonDurableThread { engine: self, tid })
    }
    fn breakdown(&self) -> BreakdownSnapshot {
        self.recorder.snapshot()
    }
    fn is_durable(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crafty_common::WORDS_PER_LINE;
    use crafty_pmem::PmemConfig;

    #[test]
    fn increments_are_atomic_across_threads() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let engine = Arc::new(NonDurable::new(Arc::clone(&mem), 1 << 12));
        let cell = mem.reserve_persistent(1);
        std::thread::scope(|s| {
            for tid in 0..4 {
                let engine = Arc::clone(&engine);
                s.spawn(move || {
                    let mut t = engine.register_thread(tid);
                    for _ in 0..250 {
                        t.execute(&mut |ops| {
                            let v = ops.read(cell)?;
                            ops.write(cell, v + 1)?;
                            Ok(())
                        });
                    }
                });
            }
        });
        assert_eq!(mem.read(cell), 1000);
        assert!(!engine.is_durable());
        assert_eq!(engine.breakdown().total_persistent(), 1000);
    }

    #[test]
    fn nothing_is_persisted() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let engine = NonDurable::new(Arc::clone(&mem), 1 << 12);
        let cell = mem.reserve_persistent(1);
        let mut t = engine.register_thread(0);
        t.execute(&mut |ops| {
            ops.write(cell, 99)?;
            Ok(())
        });
        assert_eq!(mem.read(cell), 99);
        assert_eq!(
            mem.crash().read(cell),
            0,
            "non-durable writes must not survive"
        );
    }

    #[test]
    fn oversized_transactions_fall_back_to_the_lock() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let engine = NonDurable::new(Arc::clone(&mem), 1 << 12);
        // One word in each of more lines than a hardware transaction may
        // write.
        let lines = HtmConfig::skylake().write_capacity_lines as u64 + 1;
        let base = mem.reserve_persistent(lines * WORDS_PER_LINE);
        let mut t = engine.register_thread(0);
        t.execute(&mut |ops| {
            for i in 0..lines {
                ops.write(base.add(i * WORDS_PER_LINE), i)?;
            }
            Ok(())
        });
        let b = engine.breakdown();
        assert_eq!(b.total_persistent(), 1);
        assert_eq!(b.completions(CompletionPath::Sgl), 1);
        assert_eq!(b.total_hardware(), u64::from(MAX_HTM_ATTEMPTS));
        assert_eq!(mem.read(base.add((lines - 1) * WORDS_PER_LINE)), lines - 1);
    }

    #[test]
    fn alloc_and_dealloc_are_immediate() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let engine = NonDurable::new(Arc::clone(&mem), 1 << 12);
        let mut t = engine.register_thread(0);
        t.execute(&mut |ops| {
            let a = ops.alloc(4)?;
            ops.write(a, 1)?;
            ops.dealloc(a, 4)?;
            Ok(())
        });
        assert_eq!(engine.allocator.live_allocations(), 0);
    }
}
