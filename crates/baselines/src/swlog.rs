//! The textbook software crash-consistency mechanisms of Figure 1.
//!
//! These engines provide thread atomicity with a global lock and failure
//! atomicity with either undo logging (persist the old value before every
//! in-place write — one drain per write) or redo logging (buffer writes,
//! persist the log once, then write back — one drain per transaction, but
//! every read must consult the buffered writes). They are not part of the
//! paper's measured configurations; they exist to demonstrate the
//! per-write versus per-transaction persist-cost trade-off the paper's
//! Section 2.2 describes (the unit tests below count the drains).

use std::collections::HashMap;
use std::sync::Arc;

use crafty_common::{
    BreakdownRecorder, BreakdownSnapshot, CompletionPath, PAddr, PersistentTm, TmThread, TxAbort,
    TxnBody, TxnOps, TxnReport,
};
use crafty_pmem::{MemorySpace, PmemAllocator};
use parking_lot::Mutex;

/// Which Figure 1 mechanism an [`SwLogTm`] instance uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Mechanism {
    Undo,
    Redo,
}

/// Lock-based software undo logging (Figure 1(b)).
pub struct SwUndoLog;

/// Lock-based software redo logging (Figure 1(c)).
pub struct SwRedoLog;

/// Shared implementation of the two lock-based software engines.
pub struct SwLogTm {
    mem: Arc<MemorySpace>,
    recorder: Arc<BreakdownRecorder>,
    allocator: PmemAllocator,
    mechanism: Mechanism,
    lock: Mutex<()>,
    /// Persistent log region used by whichever thread holds the lock.
    log_region: PAddr,
    log_words: u64,
}

impl std::fmt::Debug for SwLogTm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SwLogTm")
            .field("mechanism", &self.mechanism)
            .finish()
    }
}

impl SwUndoLog {
    /// Creates a lock-based undo-logging engine over `mem`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(mem: Arc<MemorySpace>, heap_words: u64) -> SwLogTm {
        SwLogTm::new(mem, heap_words, Mechanism::Undo)
    }
}

impl SwRedoLog {
    /// Creates a lock-based redo-logging engine over `mem`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(mem: Arc<MemorySpace>, heap_words: u64) -> SwLogTm {
        SwLogTm::new(mem, heap_words, Mechanism::Redo)
    }
}

impl SwLogTm {
    fn new(mem: Arc<MemorySpace>, heap_words: u64, mechanism: Mechanism) -> Self {
        let recorder = Arc::new(BreakdownRecorder::with_threads(mem.config().max_threads));
        let heap = mem.reserve_persistent(heap_words);
        let log_words = 1 << 14;
        let log_region = mem.reserve_persistent(log_words);
        SwLogTm {
            mem,
            recorder,
            allocator: PmemAllocator::new(heap, heap_words),
            mechanism,
            lock: Mutex::new(()),
            log_region,
            log_words,
        }
    }
}

struct SwThread<'e> {
    engine: &'e SwLogTm,
    tid: usize,
}

/// Undo-logging ops: persist `<addr, old>` before each in-place write.
struct UndoOps<'e> {
    engine: &'e SwLogTm,
    tid: usize,
    log_cursor: u64,
    writes: u64,
}

impl TxnOps for UndoOps<'_> {
    fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
        Ok(self.engine.mem.read(addr))
    }
    fn write(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
        let e = self.engine;
        let old = e.mem.read(addr);
        let slot = e.log_region.add((self.log_cursor * 2) % e.log_words);
        e.mem.write(slot, addr.word());
        e.mem.write(slot.add(1), old);
        // Persist the log entry before the in-place update (Figure 1(b)).
        e.mem.clwb(self.tid, slot);
        e.mem.drain(self.tid);
        e.recorder.record_drain(self.tid);
        e.mem.write(addr, value);
        e.mem.clwb(self.tid, addr);
        self.log_cursor += 1;
        self.writes += 1;
        Ok(())
    }
    fn alloc(&mut self, words: u64) -> Result<PAddr, TxAbort> {
        Ok(self
            .engine
            .allocator
            .alloc(words)
            .expect("persistent heap exhausted"))
    }
    fn dealloc(&mut self, addr: PAddr, words: u64) -> Result<(), TxAbort> {
        self.engine.allocator.free(addr, words);
        Ok(())
    }
}

/// Redo-logging ops: buffer writes; reads must look them up first.
struct RedoOps<'e> {
    engine: &'e SwLogTm,
    buffer: HashMap<u64, u64>,
    order: Vec<PAddr>,
}

impl TxnOps for RedoOps<'_> {
    fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
        if let Some(&v) = self.buffer.get(&addr.word()) {
            return Ok(v);
        }
        Ok(self.engine.mem.read(addr))
    }
    fn write(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
        if self.buffer.insert(addr.word(), value).is_none() {
            self.order.push(addr);
        }
        Ok(())
    }
    fn alloc(&mut self, words: u64) -> Result<PAddr, TxAbort> {
        Ok(self
            .engine
            .allocator
            .alloc(words)
            .expect("persistent heap exhausted"))
    }
    fn dealloc(&mut self, addr: PAddr, words: u64) -> Result<(), TxAbort> {
        self.engine.allocator.free(addr, words);
        Ok(())
    }
}

impl TmThread for SwThread<'_> {
    fn execute(&mut self, body: &mut TxnBody<'_>) -> TxnReport {
        let engine = self.engine;
        let _guard = engine.lock.lock();
        let writes = match engine.mechanism {
            Mechanism::Undo => {
                let mut ops = UndoOps {
                    engine,
                    tid: self.tid,
                    log_cursor: 0,
                    writes: 0,
                };
                body(&mut ops).expect("lock-based transactions cannot abort");
                // COMMITTED record, persisted.
                let slot = engine
                    .log_region
                    .add((ops.log_cursor * 2) % engine.log_words);
                engine.mem.write(slot, u64::MAX);
                engine.mem.persist(self.tid, slot);
                engine.recorder.record_drain(self.tid);
                ops.writes
            }
            Mechanism::Redo => {
                let mut ops = RedoOps {
                    engine,
                    buffer: HashMap::new(),
                    order: Vec::new(),
                };
                body(&mut ops).expect("lock-based transactions cannot abort");
                // Persist the whole redo log with one drain, then write back.
                for (i, addr) in ops.order.iter().enumerate() {
                    let slot = engine.log_region.add((i as u64 * 2) % engine.log_words);
                    engine.mem.write(slot, addr.word());
                    engine.mem.write(slot.add(1), ops.buffer[&addr.word()]);
                    engine.mem.clwb(self.tid, slot);
                }
                engine.mem.drain(self.tid);
                engine.recorder.record_drain(self.tid);
                for addr in &ops.order {
                    engine.mem.write(*addr, ops.buffer[&addr.word()]);
                    engine.mem.clwb(self.tid, *addr);
                }
                engine.mem.drain(self.tid);
                engine.recorder.record_drain(self.tid);
                ops.order.len() as u64
            }
        };
        engine.recorder.record_persistent_writes(self.tid, writes);
        engine
            .recorder
            .record_completion(self.tid, CompletionPath::NonCrafty);
        TxnReport::new(CompletionPath::NonCrafty, 0)
    }
}

impl PersistentTm for SwLogTm {
    fn name(&self) -> &str {
        match self.mechanism {
            Mechanism::Undo => "SW-UndoLog",
            Mechanism::Redo => "SW-RedoLog",
        }
    }
    fn register_thread(&self, tid: usize) -> Box<dyn TmThread + '_> {
        Box::new(SwThread { engine: self, tid })
    }
    fn breakdown(&self) -> BreakdownSnapshot {
        self.recorder.snapshot()
    }
    fn quiesce(&self) {
        for tid in 0..8 {
            self.mem.drain(tid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crafty_pmem::PmemConfig;

    #[test]
    fn both_mechanisms_apply_and_persist_writes() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        for engine in [
            SwUndoLog::new(Arc::clone(&mem), 1 << 12),
            SwRedoLog::new(Arc::clone(&mem), 1 << 12),
        ] {
            let cell = mem.reserve_persistent(1);
            let mut t = engine.register_thread(0);
            t.execute(&mut |ops| {
                let v = ops.read(cell)?;
                ops.write(cell, v + 5)?;
                let v = ops.read(cell)?;
                assert_eq!(v, 5, "{}: reads must see earlier writes", engine.name());
                ops.write(cell, v + 5)?;
                Ok(())
            });
            engine.quiesce();
            assert_eq!(mem.read(cell), 10);
            assert_eq!(mem.crash().read(cell), 10, "{}", engine.name());
        }
    }

    #[test]
    fn undo_logging_drains_per_write_redo_once_per_txn() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let undo = SwUndoLog::new(Arc::clone(&mem), 1 << 12);
        let redo = SwRedoLog::new(Arc::clone(&mem), 1 << 12);
        let cells = mem.reserve_persistent(16);
        for (engine, expect_more_drains) in [(&undo, true), (&redo, false)] {
            let before = engine.breakdown().persist_drains;
            let mut t = engine.register_thread(0);
            t.execute(&mut |ops| {
                for i in 0..10 {
                    ops.write(cells.add(i), i)?;
                }
                Ok(())
            });
            let drains = engine.breakdown().persist_drains - before;
            if expect_more_drains {
                assert!(drains >= 10, "undo logging drains per write, saw {drains}");
            } else {
                assert!(
                    drains <= 3,
                    "redo logging drains per transaction, saw {drains}"
                );
            }
        }
    }

    #[test]
    fn totals_preserved_under_contention() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let engine = Arc::new(SwUndoLog::new(Arc::clone(&mem), 1 << 12));
        let base = mem.reserve_persistent(4);
        for i in 0..4 {
            mem.write(base.add(i), 50);
        }
        crossbeam::scope(|s| {
            for tid in 0..3 {
                let engine = Arc::clone(&engine);
                s.spawn(move |_| {
                    let mut t = engine.register_thread(tid);
                    let mut rng = crafty_common::SplitMix64::new(tid as u64);
                    for _ in 0..100 {
                        let from = base.add(rng.next_below(4));
                        let to = base.add(rng.next_below(4));
                        t.execute(&mut |ops| {
                            let a = ops.read(from)?;
                            ops.write(from, a - 1)?;
                            let b = ops.read(to)?;
                            ops.write(to, b + 1)?;
                            Ok(())
                        });
                    }
                });
            }
        })
        .expect("threads");
        let total: u64 = (0..4).map(|i| mem.read(base.add(i))).sum();
        assert_eq!(total, 200);
    }
}
