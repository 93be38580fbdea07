//! NV-HTM and DudeTM: HTM-compatible persistent transactions based on
//! shadow paging / copy-on-write with background persistence.
//!
//! Both systems decouple persistence from HTM concurrency control
//! (Section 2.3): the hardware transaction reads and writes *shadow*
//! memory in place — in this simulation, the volatile view of the memory
//! space, whose contents reach the persistent image only when flushed —
//! and persistence happens after commit, through per-thread redo logs and
//! a background checkpointer that applies committed transactions to
//! persistent memory in timestamp order.
//!
//! The two scalability bottlenecks the paper attributes to NV-HTM are
//! modelled directly:
//!
//! 1. **Commit-time wait** — a transaction may not durably write its
//!    COMMIT record until no ongoing transaction might still commit an
//!    earlier timestamp ([`ShadowPagingTm`] waits on the other threads'
//!    in-flight timestamps).
//! 2. **Serialized background persistence** — a single checkpointer thread
//!    write-backs every committed transaction's data, one transaction at a
//!    time. At full machine utilization this extra thread also competes
//!    with worker threads for a core, which is what makes the measured
//!    NV-HTM/DudeTM curves collapse at 16 threads in the paper.
//!
//! DudeTM differs in how it obtains the transaction order: it increments a
//! global counter *inside* the hardware transaction, so any two concurrent
//! update transactions conflict on that counter's cache line.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use crafty_common::{
    BreakdownRecorder, BreakdownSnapshot, Clock, CompletionPath, PAddr, PersistentTm, TmThread,
    TxAbort, TxnBody, TxnOps,
};
use crafty_htm::{HtmConfig, HtmRuntime, HwTxn};
use crafty_pmem::{MemorySpace, PmemAllocator};
use parking_lot::{Condvar, Mutex};

use crate::MAX_HTM_ATTEMPTS;

/// Which copy-on-write system to emulate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CowFlavor {
    NvHtm,
    DudeTm,
}

/// Configuration shared by [`NvHtm`] and [`DudeTm`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CowConfig {
    /// Number of worker threads the engine will serve.
    pub max_threads: usize,
    /// Persistent heap size in words for transactional allocation.
    pub heap_words: u64,
    /// Per-thread redo log capacity in words.
    pub redo_log_words: u64,
}

impl CowConfig {
    /// Small configuration for unit tests.
    pub fn small_for_tests() -> Self {
        CowConfig {
            max_threads: 4,
            heap_words: 1 << 12,
            redo_log_words: 1 << 10,
        }
    }
}

/// A unit of work for the background checkpointer: one committed
/// transaction's written addresses, to be written back in order.
struct CheckpointJob {
    addrs: Vec<PAddr>,
}

struct CheckpointQueue {
    jobs: Mutex<VecDeque<CheckpointJob>>,
    available: Condvar,
    submitted: AtomicU64,
    completed: AtomicU64,
    stop: AtomicBool,
}

impl CheckpointQueue {
    fn new() -> Self {
        CheckpointQueue {
            jobs: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        }
    }

    fn submit(&self, job: CheckpointJob) {
        self.submitted.fetch_add(1, Ordering::AcqRel);
        self.jobs.lock().push_back(job);
        self.available.notify_one();
    }

    fn next(&self) -> Option<CheckpointJob> {
        let mut jobs = self.jobs.lock();
        loop {
            if let Some(job) = jobs.pop_front() {
                return Some(job);
            }
            if self.stop.load(Ordering::Acquire) {
                return None;
            }
            self.available
                .wait_for(&mut jobs, std::time::Duration::from_millis(1));
        }
    }

    fn drained(&self) -> bool {
        self.completed.load(Ordering::Acquire) >= self.submitted.load(Ordering::Acquire)
    }
}

/// The shared implementation behind [`NvHtm`] and [`DudeTm`].
pub struct ShadowPagingTm {
    mem: Arc<MemorySpace>,
    htm: Arc<HtmRuntime>,
    recorder: Arc<BreakdownRecorder>,
    allocator: PmemAllocator,
    cfg: CowConfig,
    flavor: CowFlavor,
    clock: Clock,
    /// Volatile word incremented inside hardware transactions (DudeTM).
    dude_counter_addr: PAddr,
    sgl_addr: PAddr,
    /// Per-thread persistent redo log region and its capacity in words.
    redo_logs: Vec<PAddr>,
    /// Timestamp of each thread's transaction that has committed in HTM but
    /// not yet durably written its COMMIT record (0 = none). Used for
    /// NV-HTM's commit-time wait.
    in_flight: Vec<AtomicU64>,
    queue: Arc<CheckpointQueue>,
    checkpointer: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for ShadowPagingTm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShadowPagingTm")
            .field("flavor", &self.flavor)
            .finish()
    }
}

/// The NV-HTM baseline.
pub struct NvHtm;

/// The DudeTM baseline.
pub struct DudeTm;

impl NvHtm {
    /// Creates an NV-HTM engine over `mem`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(mem: Arc<MemorySpace>, cfg: CowConfig) -> ShadowPagingTm {
        ShadowPagingTm::new(mem, cfg, CowFlavor::NvHtm)
    }
}

impl DudeTm {
    /// Creates a DudeTM engine over `mem`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(mem: Arc<MemorySpace>, cfg: CowConfig) -> ShadowPagingTm {
        ShadowPagingTm::new(mem, cfg, CowFlavor::DudeTm)
    }
}

impl ShadowPagingTm {
    fn new(mem: Arc<MemorySpace>, cfg: CowConfig, flavor: CowFlavor) -> Self {
        let recorder = Arc::new(BreakdownRecorder::with_threads(mem.config().max_threads));
        let htm = Arc::new(HtmRuntime::new(
            Arc::clone(&mem),
            HtmConfig::skylake(),
            Arc::clone(&recorder),
        ));
        let heap = mem.reserve_persistent(cfg.heap_words);
        let redo_logs = (0..cfg.max_threads)
            .map(|_| mem.reserve_persistent(cfg.redo_log_words))
            .collect();
        let dude_counter_addr = mem.reserve_volatile(1);
        let sgl_addr = mem.reserve_volatile(1);
        let queue = Arc::new(CheckpointQueue::new());

        // The background checkpointer: applies committed transactions'
        // writes to persistent memory, one at a time (serialized), using a
        // flush-queue slot of its own (the last one the memory space has).
        let checkpointer = {
            let queue = Arc::clone(&queue);
            let mem = Arc::clone(&mem);
            let checkpoint_tid = cfg.max_threads.min(mem.config().max_threads - 1);
            std::thread::spawn(move || {
                while let Some(job) = queue.next() {
                    for addr in &job.addrs {
                        mem.clwb(checkpoint_tid, *addr);
                    }
                    mem.drain(checkpoint_tid);
                    queue.completed.fetch_add(1, Ordering::AcqRel);
                    // Hand the core back between jobs. On hosts with fewer
                    // cores than workers the checkpointer otherwise chews
                    // through a deep backlog without ever descheduling,
                    // starving the very workers that feed it (the
                    // multi-thread collapse the tracked benchmark showed on
                    // a single-core container). One yield per job bounds
                    // the checkpointer to one drain per scheduling quantum
                    // under contention while costing nothing when cores
                    // are plentiful and the queue is short.
                    std::thread::yield_now();
                }
            })
        };

        ShadowPagingTm {
            mem,
            htm,
            recorder,
            allocator: PmemAllocator::new(heap, cfg.heap_words),
            cfg,
            flavor,
            clock: Clock::new(),
            dude_counter_addr,
            sgl_addr,
            redo_logs,
            in_flight: (0..cfg.max_threads).map(|_| AtomicU64::new(0)).collect(),
            queue,
            checkpointer: Mutex::new(Some(checkpointer)),
        }
    }

    /// The memory space the engine operates on.
    pub fn mem(&self) -> &Arc<MemorySpace> {
        &self.mem
    }

    fn persist_redo_log(&self, tid: usize, cursor: &mut u64, writes: &[(PAddr, u64)], ts: u64) {
        // Append <addr, value> pairs plus a COMMIT record to the thread's
        // redo log region, wrapping when full (recovery for the baselines
        // is out of scope; the cost of writing and persisting the log is
        // what matters for the comparison).
        let base = self.redo_logs[tid];
        let capacity = self.cfg.redo_log_words;
        let needed = writes.len() as u64 * 2 + 2;
        if *cursor + needed > capacity {
            *cursor = 0;
        }
        let start = *cursor;
        for (i, &(addr, value)) in writes.iter().enumerate() {
            self.mem.write(base.add(start + i as u64 * 2), addr.word());
            self.mem.write(base.add(start + i as u64 * 2 + 1), value);
        }
        for w in (0..needed - 2).step_by(8) {
            self.mem.clwb(tid, base.add(start + w));
        }
        self.mem.drain(tid);

        if self.flavor == CowFlavor::NvHtm {
            // Commit-time wait: another thread may still be about to
            // durably commit an earlier transaction.
            loop {
                let earlier_in_flight = self.in_flight.iter().enumerate().any(|(other, slot)| {
                    other != tid && {
                        let v = slot.load(Ordering::Acquire);
                        v != 0 && v < ts
                    }
                });
                if !earlier_in_flight {
                    break;
                }
                // Yield, don't spin: the thread being waited on needs a
                // core to finish its durable commit, and on few-core hosts
                // a spinning waiter is exactly what keeps it from getting
                // one (the NV-HTM multi-thread collapse).
                std::thread::yield_now();
            }
        }

        // Durable COMMIT record.
        self.mem.write(base.add(start + needed - 2), u64::MAX);
        self.mem.write(base.add(start + needed - 1), ts);
        self.mem.clwb(tid, base.add(start + needed - 2));
        self.mem.drain(tid);
        *cursor = start + needed;
    }

    fn complete_transaction(
        &self,
        tid: usize,
        cursor: &mut u64,
        writes: Vec<(PAddr, u64)>,
        ts: u64,
        path: CompletionPath,
    ) {
        self.recorder
            .record_persistent_writes(tid, writes.len() as u64);
        if !writes.is_empty() {
            self.persist_redo_log(tid, cursor, &writes, ts);
            let addrs = writes.iter().map(|&(a, _)| a).collect();
            self.queue.submit(CheckpointJob { addrs });
        }
        self.in_flight[tid].store(0, Ordering::Release);
        self.recorder.record_completion(tid, path);
    }
}

impl Drop for ShadowPagingTm {
    fn drop(&mut self) {
        self.queue.stop.store(true, Ordering::Release);
        self.queue.available.notify_one();
        if let Some(handle) = self.checkpointer.lock().take() {
            let _ = handle.join();
        }
    }
}

struct CowThread<'e> {
    engine: &'e ShadowPagingTm,
    tid: usize,
    log_cursor: u64,
}

/// Collects the transaction's writes while executing them in place inside
/// the hardware transaction (shadow-memory execution).
struct ShadowOps<'a, 'rt> {
    txn: &'a mut HwTxn<'rt>,
    allocator: &'a PmemAllocator,
    mem: &'a MemorySpace,
    writes: Vec<(PAddr, u64)>,
}

impl TxnOps for ShadowOps<'_, '_> {
    fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
        self.txn.read(addr).map_err(|_| TxAbort::hardware())
    }
    fn write(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
        if self.mem.is_persistent(addr) {
            self.writes.push((addr, value));
        }
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

struct LockedShadowOps<'a> {
    htm: &'a HtmRuntime,
    allocator: &'a PmemAllocator,
    mem: &'a MemorySpace,
    writes: Vec<(PAddr, u64)>,
}

impl TxnOps for LockedShadowOps<'_> {
    fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
        Ok(self.htm.nontx_read(addr))
    }
    fn write(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
        if self.mem.is_persistent(addr) {
            self.writes.push((addr, value));
        }
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

impl TmThread for CowThread<'_> {
    fn execute(&mut self, body: &mut TxnBody<'_>) {
        let engine = self.engine;
        let mut attempts = 0;
        while attempts < MAX_HTM_ATTEMPTS {
            while engine.htm.nontx_read(engine.sgl_addr) != 0 {
                std::thread::yield_now();
            }
            attempts += 1;
            let mut txn = engine.htm.begin(self.tid);
            if !matches!(txn.read(engine.sgl_addr), Ok(0)) {
                continue;
            }
            let mut ops = ShadowOps {
                txn: &mut txn,
                allocator: &engine.allocator,
                mem: &engine.mem,
                writes: Vec::new(),
            };
            if body(&mut ops).is_err() {
                continue;
            }
            let writes = std::mem::take(&mut ops.writes);
            drop(ops);
            // Obtain the transaction's position in the global order.
            let ts = match engine.flavor {
                CowFlavor::DudeTm => {
                    // A global counter incremented inside the hardware
                    // transaction: the source of DudeTM's extra conflicts.
                    let current = match txn.read(engine.dude_counter_addr) {
                        Ok(v) => v,
                        Err(_) => continue,
                    };
                    if txn.write(engine.dude_counter_addr, current + 1).is_err() {
                        continue;
                    }
                    current + 1
                }
                CowFlavor::NvHtm => engine.clock.now().raw(),
            };
            engine.in_flight[self.tid].store(ts, Ordering::Release);
            if txn.commit().is_err() {
                engine.in_flight[self.tid].store(0, Ordering::Release);
                continue;
            }
            if writes.is_empty() {
                engine.in_flight[self.tid].store(0, Ordering::Release);
                engine
                    .recorder
                    .record_completion(self.tid, CompletionPath::ReadOnly);
                return;
            }
            return engine.complete_transaction(
                self.tid,
                &mut self.log_cursor,
                writes,
                ts,
                CompletionPath::NonCrafty,
            );
        }

        // Global-lock fallback: acquire the simulated SGL word itself (no
        // host mutex); subscribed hardware transactions abort on
        // acquisition, and the guard releases the word on drop
        // (panic-safe).
        let sgl = engine.htm.nontx_acquire_lock_word(engine.sgl_addr);
        let mut ops = LockedShadowOps {
            htm: &engine.htm,
            allocator: &engine.allocator,
            mem: &engine.mem,
            writes: Vec::new(),
        };
        body(&mut ops).expect("transaction body must succeed under the global lock");
        let writes = ops.writes;
        let ts = engine.clock.now().raw();
        // Release before the (slow) durable completion, as before.
        drop(sgl);
        self.engine.complete_transaction(
            self.tid,
            &mut self.log_cursor,
            writes,
            ts,
            CompletionPath::Sgl,
        )
    }
}

impl PersistentTm for ShadowPagingTm {
    fn name(&self) -> &str {
        match self.flavor {
            CowFlavor::NvHtm => "NV-HTM",
            CowFlavor::DudeTm => "DudeTM",
        }
    }

    fn register_thread(&self, tid: usize) -> Box<dyn TmThread + '_> {
        assert!(tid < self.cfg.max_threads, "thread id out of range");
        Box::new(CowThread {
            engine: self,
            tid,
            log_cursor: 0,
        })
    }

    fn breakdown(&self) -> BreakdownSnapshot {
        self.recorder.snapshot()
    }

    fn quiesce(&self) {
        while !self.queue.drained() {
            std::thread::yield_now();
        }
        let slots = self.mem.config().max_threads.min(self.cfg.max_threads + 1);
        for tid in 0..slots {
            self.mem.drain(tid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crafty_pmem::PmemConfig;

    fn engines(mem: &Arc<MemorySpace>) -> Vec<ShadowPagingTm> {
        vec![
            NvHtm::new(Arc::clone(mem), CowConfig::small_for_tests()),
            DudeTm::new(Arc::clone(mem), CowConfig::small_for_tests()),
        ]
    }

    #[test]
    fn names_match_paper_legends() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let e = engines(&mem);
        assert_eq!(e[0].name(), "NV-HTM");
        assert_eq!(e[1].name(), "DudeTM");
        assert!(e[0].is_durable());
    }

    #[test]
    fn committed_writes_are_eventually_persisted_by_the_checkpointer() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        for engine in engines(&mem) {
            let cell = mem.reserve_persistent(1);
            let mut t = engine.register_thread(0);
            t.execute(&mut |ops| {
                let v = ops.read(cell)?;
                ops.write(cell, v + 41)?;
                Ok(())
            });
            engine.quiesce();
            assert_eq!(mem.read(cell), 41);
            assert_eq!(
                mem.crash().read(cell),
                41,
                "{}: checkpointed data must be durable",
                engine.name()
            );
        }
    }

    #[test]
    fn concurrent_transfers_preserve_totals() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        for engine in engines(&mem) {
            let engine = Arc::new(engine);
            let accounts = 8u64;
            let base = mem.reserve_persistent(accounts);
            for i in 0..accounts {
                mem.write(base.add(i), 100);
            }
            std::thread::scope(|s| {
                for tid in 0..3 {
                    let engine = Arc::clone(&engine);
                    s.spawn(move || {
                        let mut t = engine.register_thread(tid);
                        let mut rng = crafty_common::SplitMix64::new(tid as u64 + 7);
                        for _ in 0..200 {
                            let from = base.add(rng.next_below(accounts));
                            let to = base.add(rng.next_below(accounts));
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
            });
            engine.quiesce();
            let total: u64 = (0..accounts).map(|i| mem.read(base.add(i))).sum();
            assert_eq!(
                total,
                accounts * 100,
                "{} must preserve the total",
                engine.name()
            );
            assert_eq!(engine.breakdown().total_persistent(), 600);
        }
    }

    #[test]
    fn read_only_transactions_are_classified_separately() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let engine = NvHtm::new(Arc::clone(&mem), CowConfig::small_for_tests());
        let cell = mem.reserve_persistent(1);
        let mut t = engine.register_thread(0);
        t.execute(&mut |ops| {
            ops.read(cell)?;
            Ok(())
        });
        assert_eq!(engine.breakdown().completions(CompletionPath::ReadOnly), 1);
    }

    #[test]
    fn dudetm_orders_transactions_with_the_in_htm_counter() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let engine = DudeTm::new(Arc::clone(&mem), CowConfig::small_for_tests());
        let cell = mem.reserve_persistent(1);
        let mut t = engine.register_thread(0);
        for _ in 0..5 {
            t.execute(&mut |ops| {
                let v = ops.read(cell)?;
                ops.write(cell, v + 1)?;
                Ok(())
            });
        }
        engine.quiesce();
        assert_eq!(mem.read(engine.dude_counter_addr), 5);
    }
}
