//! The baseline engine: Non-durable, NV-HTM and DudeTM run one
//! hardware-transaction-then-lock loop and differ only in what a commit
//! persists.
//!
//! Every configuration waits for the global lock (SGL) word to be free,
//! begins a hardware transaction that subscribes to it, runs the body in
//! place against the volatile view, and after `MAX_HTM_ATTEMPTS` failed
//! attempts takes the lock word and runs the body under it. Non-durable
//! stops there. NV-HTM and DudeTM decouple persistence from HTM
//! concurrency control (Section 2.3): the volatile view is their shadow
//! memory, and after the commit they persist a per-thread redo log and a
//! COMMIT record and leave the data to a background checkpointer, which
//! writes committed transactions back in timestamp order.
//!
//! The two scalability bottlenecks the paper attributes to NV-HTM are
//! modelled directly:
//!
//! 1. **Commit-time wait** — a transaction may not durably write its
//!    COMMIT record until no ongoing transaction might still commit an
//!    earlier timestamp (it waits on the other threads' in-flight
//!    timestamps).
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use crafty_common::{
    wait, BreakdownRecorder, BreakdownSnapshot, Clock, CompletionPath, PAddr, PersistentTm,
    TmThread, TxAbort, TxnBody, TxnOps,
};
use crafty_htm::{HtmConfig, HtmRuntime, HwTxn};
use crafty_pmem::{Heap, MemorySpace};

use crate::MAX_HTM_ATTEMPTS;

/// Configuration shared by [`NvHtm`] and [`DudeTm`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CowConfig {
    /// Number of worker threads the engine will serve.
    pub max_threads: usize,
    /// Persistent heap size in words for transactional allocation, its
    /// header line included.
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

/// Committed transactions' written addresses, queued for the background
/// checkpointer to write back one transaction at a time, in order.
#[derive(Default)]
struct CheckpointQueue {
    jobs: Mutex<Jobs>,
    available: Condvar,
    submitted: AtomicU64,
    completed: AtomicU64,
}

/// The queue and the stop request, under one lock: a stop set under it
/// cannot land between [`CheckpointQueue::next`]'s check and its wait.
#[derive(Default)]
struct Jobs {
    queue: VecDeque<Vec<PAddr>>,
    stop: bool,
}

impl CheckpointQueue {
    /// No update of [`Jobs`] can panic halfway, so a lock poisoned by a
    /// panic elsewhere still guards a valid queue.
    fn lock(&self) -> MutexGuard<'_, Jobs> {
        self.jobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn submit(&self, job: Vec<PAddr>) {
        self.submitted.fetch_add(1, Ordering::AcqRel);
        self.lock().queue.push_back(job);
        self.available.notify_one();
    }

    /// Blocks while the queue is empty; `None` once it is empty and
    /// stopped.
    fn next(&self) -> Option<Vec<PAddr>> {
        let mut jobs = self
            .available
            .wait_while(self.lock(), |j| j.queue.is_empty() && !j.stop)
            .unwrap_or_else(PoisonError::into_inner);
        jobs.queue.pop_front()
    }

    fn drained(&self) -> bool {
        self.completed.load(Ordering::Acquire) >= self.submitted.load(Ordering::Acquire)
    }
}

/// What NV-HTM and DudeTM add to the common loop: the transaction order,
/// per-thread redo logs and the background checkpointer.
struct Durable {
    clock: Clock,
    /// Volatile word incremented inside hardware transactions (DudeTM).
    dude_counter_addr: PAddr,
    /// Per-thread persistent redo log regions of `redo_log_words` each.
    redo_logs: Vec<PAddr>,
    redo_log_words: u64,
    /// Timestamp of each thread's transaction that has committed in HTM but
    /// not yet durably written its COMMIT record (0 = none). Used for
    /// NV-HTM's commit-time wait.
    in_flight: Vec<AtomicU64>,
    queue: Arc<CheckpointQueue>,
    checkpointer: Option<JoinHandle<()>>,
}

impl Durable {
    /// Reserves the redo logs and the DudeTM counter word, and starts the
    /// checkpointer.
    fn new(mem: &Arc<MemorySpace>, cfg: CowConfig) -> Self {
        let redo_logs = (0..cfg.max_threads)
            .map(|_| mem.reserve_persistent(cfg.redo_log_words))
            .collect();
        let dude_counter_addr = mem.reserve_volatile(1);
        let queue = Arc::new(CheckpointQueue::default());

        // The background checkpointer: applies committed transactions'
        // writes to persistent memory, one at a time (serialized), using a
        // flush-queue slot of its own (the last one the memory space has).
        let checkpointer = {
            let queue = Arc::clone(&queue);
            let mem = Arc::clone(mem);
            let checkpoint_tid = cfg.max_threads.min(mem.config().max_threads - 1);
            std::thread::spawn(move || {
                while let Some(addrs) = queue.next() {
                    for addr in addrs {
                        mem.clwb(checkpoint_tid, addr);
                    }
                    mem.drain(checkpoint_tid);
                    queue.completed.fetch_add(1, Ordering::AcqRel);
                    // Hand the core back between jobs: on hosts with fewer
                    // cores than workers, a checkpointer chewing through a
                    // deep backlog starves the very workers that feed it
                    // (the multi-thread collapse seen on a single core);
                    // one yield per job costs nothing when cores are free.
                    wait::yield_now();
                }
            })
        };

        Durable {
            clock: Clock::default(),
            dude_counter_addr,
            redo_logs,
            redo_log_words: cfg.redo_log_words,
            in_flight: (0..cfg.max_threads).map(|_| AtomicU64::new(0)).collect(),
            queue,
            checkpointer: Some(checkpointer),
        }
    }

    /// NV-HTM's commit-time wait: another thread may still be about to
    /// durably commit an earlier transaction. It yields: a spinning waiter
    /// is what collapsed NV-HTM at more threads than cores.
    fn wait_for_earlier_commits(&self, tid: usize, ts: u64) {
        wait::until(|| {
            self.in_flight.iter().enumerate().all(|(other, slot)| {
                let v = slot.load(Ordering::Acquire);
                other == tid || v == 0 || v >= ts
            })
        });
    }
}

impl Drop for Durable {
    fn drop(&mut self) {
        self.queue.lock().stop = true;
        self.queue.available.notify_one();
        if let Some(handle) = self.checkpointer.take() {
            let _ = handle.join();
        }
    }
}

/// Which baseline the engine is: everything the three do differently.
enum Config {
    /// Collects and persists nothing.
    NonDurable,
    /// Draws its order from the clock and waits for earlier in-flight
    /// commits before writing its COMMIT record.
    NvHtm(Durable),
    /// Draws its order from a counter incremented inside the hardware
    /// transaction.
    DudeTm(Durable),
}

impl Config {
    fn durable(&self) -> Option<&Durable> {
        match self {
            Config::NonDurable => None,
            Config::NvHtm(d) | Config::DudeTm(d) => Some(d),
        }
    }
}

/// The engine behind [`NonDurable`], [`NvHtm`] and [`DudeTm`].
pub struct BaselineTm {
    mem: Arc<MemorySpace>,
    htm: HtmRuntime,
    recorder: Arc<BreakdownRecorder>,
    heap: Heap,
    sgl_addr: PAddr,
    config: Config,
}

impl std::fmt::Debug for BaselineTm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("BaselineTm").field(&self.name()).finish()
    }
}

/// The Non-durable baseline, the normaliser of every figure: hardware
/// transactions with a global-lock fallback and **no** crash-consistency
/// guarantees (nothing is ever flushed).
pub struct NonDurable;

/// The NV-HTM baseline.
pub struct NvHtm;

/// The DudeTM baseline.
pub struct DudeTm;

impl NonDurable {
    /// Creates a Non-durable engine over `mem` with a heap of `heap_words`
    /// for transactional allocation.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(mem: Arc<MemorySpace>, heap_words: u64) -> BaselineTm {
        BaselineTm::new(mem, heap_words, |_| Config::NonDurable)
    }
}

impl NvHtm {
    /// Creates an NV-HTM engine over `mem`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(mem: Arc<MemorySpace>, cfg: CowConfig) -> BaselineTm {
        BaselineTm::new(mem, cfg.heap_words, |mem| {
            Config::NvHtm(Durable::new(mem, cfg))
        })
    }
}

impl DudeTm {
    /// Creates a DudeTM engine over `mem`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(mem: Arc<MemorySpace>, cfg: CowConfig) -> BaselineTm {
        BaselineTm::new(mem, cfg.heap_words, |mem| {
            Config::DudeTm(Durable::new(mem, cfg))
        })
    }
}

impl BaselineTm {
    /// Reserves the heap, then what `config` reserves, then the SGL word —
    /// the order every address a workload reserves afterwards depends on.
    fn new(
        mem: Arc<MemorySpace>,
        heap_words: u64,
        config: impl FnOnce(&Arc<MemorySpace>) -> Config,
    ) -> Self {
        let recorder = Arc::new(BreakdownRecorder::with_threads(mem.config().max_threads));
        let htm = HtmRuntime::new(
            Arc::clone(&mem),
            HtmConfig::skylake(),
            Arc::clone(&recorder),
        );
        let heap = Heap::new(mem.reserve_persistent(heap_words), heap_words);
        let config = config(&mem);
        let sgl_addr = mem.reserve_volatile(1);
        BaselineTm {
            mem,
            htm,
            recorder,
            heap,
            sgl_addr,
            config,
        }
    }

    /// The memory space the engine operates on.
    pub fn mem(&self) -> &Arc<MemorySpace> {
        &self.mem
    }

    /// Draws the transaction's position in the commit order — inside `txn`
    /// for DudeTM, where `None` means that aborted it.
    fn order(&self, txn: &mut HwTxn<'_>) -> Option<u64> {
        match &self.config {
            Config::NonDurable => Some(0),
            Config::NvHtm(d) => Some(d.clock.now().raw()),
            Config::DudeTm(d) => {
                // A global counter incremented inside the hardware
                // transaction: the source of DudeTM's extra conflicts.
                let current = txn.read(d.dude_counter_addr).ok()?;
                txn.write(d.dude_counter_addr, current + 1).ok()?;
                Some(current + 1)
            }
        }
    }

    fn set_in_flight(&self, tid: usize, ts: u64) {
        if let Some(d) = self.config.durable() {
            d.in_flight[tid].store(ts, Ordering::Release);
        }
    }
}

/// How a configuration collects the body's persistent writes: Non-durable
/// not at all (`()`), NV-HTM and DudeTM in program order (`Vec`). A type
/// rather than a run-time check, because every `write` of the body pays
/// for it: as a branch it cost the Non-durable baseline 1-2% of its
/// `bank-1t` throughput.
trait WriteSet: Default {
    fn record(&mut self, mem: &MemorySpace, addr: PAddr, value: u64);
    fn into_vec(self) -> Vec<(PAddr, u64)>;
}

impl WriteSet for () {
    fn record(&mut self, _: &MemorySpace, _: PAddr, _: u64) {}
    fn into_vec(self) -> Vec<(PAddr, u64)> {
        Vec::new()
    }
}

impl WriteSet for Vec<(PAddr, u64)> {
    fn record(&mut self, mem: &MemorySpace, addr: PAddr, value: u64) {
        if mem.is_persistent(addr) {
            self.push((addr, value));
        }
    }
    fn into_vec(self) -> Vec<(PAddr, u64)> {
        self
    }
}

/// The body's view of memory inside the hardware transaction.
struct HtmOps<'a, 'rt, W> {
    engine: &'a BaselineTm,
    txn: &'a mut HwTxn<'rt>,
    writes: W,
}

impl<W: WriteSet> TxnOps for HtmOps<'_, '_, W> {
    fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
        self.txn.read(addr).map_err(|_| TxAbort::hardware())
    }
    fn read_words(&mut self, addr: PAddr, out: &mut [u64]) -> Result<(), TxAbort> {
        self.txn
            .read_words(addr, out)
            .map_err(|_| TxAbort::hardware())
    }
    fn write(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
        self.writes.record(&self.engine.mem, addr, value);
        self.txn.write(addr, value).map_err(|_| TxAbort::hardware())
    }
    fn alloc(&mut self, words: u64) -> Result<PAddr, TxAbort> {
        self.engine.heap.alloc(self, words)
    }
    fn dealloc(&mut self, addr: PAddr, words: u64) -> Result<(), TxAbort> {
        self.engine.heap.dealloc(self, addr, words)
    }
}

/// The body's view of memory under the global lock.
struct LockedOps<'a, W> {
    engine: &'a BaselineTm,
    writes: W,
}

impl<W: WriteSet> TxnOps for LockedOps<'_, W> {
    fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
        Ok(self.engine.htm.nontx_read(addr))
    }
    fn write(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
        self.writes.record(&self.engine.mem, addr, value);
        self.engine.htm.nontx_write(addr, value);
        Ok(())
    }
    fn alloc(&mut self, words: u64) -> Result<PAddr, TxAbort> {
        self.engine.heap.alloc(self, words)
    }
    fn dealloc(&mut self, addr: PAddr, words: u64) -> Result<(), TxAbort> {
        self.engine.heap.dealloc(self, addr, words)
    }
}

struct BaselineThread<'e> {
    engine: &'e BaselineTm,
    tid: usize,
    log_cursor: u64,
}

impl TmThread for BaselineThread<'_> {
    fn execute(&mut self, body: &mut TxnBody<'_>) {
        if self.engine.is_durable() {
            self.run::<Vec<(PAddr, u64)>>(body)
        } else {
            self.run::<()>(body)
        }
    }
}

impl BaselineThread<'_> {
    /// The one loop: up to `MAX_HTM_ATTEMPTS` hardware attempts, then the
    /// global lock.
    fn run<W: WriteSet>(&mut self, body: &mut TxnBody<'_>) {
        let engine = self.engine;
        for _ in 0..MAX_HTM_ATTEMPTS {
            wait::until(|| engine.htm.nontx_read(engine.sgl_addr) == 0);
            let mut txn = engine.htm.begin(self.tid);
            if !matches!(txn.read(engine.sgl_addr), Ok(0)) {
                continue;
            }
            let mut ops = HtmOps {
                engine,
                txn: &mut txn,
                writes: W::default(),
            };
            if body(&mut ops).is_err() {
                continue;
            }
            let writes = ops.writes.into_vec();
            let Some(ts) = engine.order(&mut txn) else {
                continue;
            };
            engine.set_in_flight(self.tid, ts);
            if txn.commit().is_err() {
                engine.set_in_flight(self.tid, 0);
                continue;
            }
            return self.complete(writes, ts, CompletionPath::NonCrafty);
        }

        // Global-lock fallback: acquire the simulated SGL word itself (no
        // host mutex); subscribed hardware transactions abort on
        // acquisition, and the guard releases the word on drop
        // (panic-safe).
        let sgl = engine.htm.nontx_acquire_lock_word(engine.sgl_addr);
        let mut ops = LockedOps {
            engine,
            writes: W::default(),
        };
        body(&mut ops).expect("transaction body must succeed under the global lock");
        let ts = engine.config.durable().map_or(0, |d| d.clock.now().raw());
        // Release before the (slow) durable completion.
        drop(sgl);
        self.complete(ops.writes.into_vec(), ts, CompletionPath::Sgl)
    }

    /// Records a committed transaction. The durable configurations first
    /// persist it; a hardware commit that wrote nothing counts as
    /// read-only there.
    // Forced inline, with `persist` kept out of line: as a call, this cost
    // the Non-durable baseline 1-2% of its `bank-1t` throughput.
    #[inline(always)]
    fn complete(&mut self, writes: Vec<(PAddr, u64)>, ts: u64, mut path: CompletionPath) {
        let (recorder, tid) = (&self.engine.recorder, self.tid);
        if let Some(d) = self.engine.config.durable() {
            if writes.is_empty() && path == CompletionPath::NonCrafty {
                path = CompletionPath::ReadOnly;
            }
            recorder.record_persistent_writes(tid, writes.len() as u64);
            if !writes.is_empty() {
                self.persist(d, &writes, ts);
            }
            d.in_flight[tid].store(0, Ordering::Release);
        }
        recorder.record_completion(tid, path);
    }

    /// Appends the redo log and the COMMIT record, then hands the write set
    /// to the checkpointer.
    #[inline(never)]
    fn persist(&mut self, d: &Durable, writes: &[(PAddr, u64)], ts: u64) {
        let (mem, tid) = (&self.engine.mem, self.tid);
        // Append <addr, value> pairs plus a COMMIT record to the thread's
        // redo log region, wrapping when full (recovery for the baselines
        // is out of scope; the cost of writing and persisting the log is
        // what matters for the comparison).
        let base = d.redo_logs[tid];
        let needed = writes.len() as u64 * 2 + 2;
        if self.log_cursor + needed > d.redo_log_words {
            self.log_cursor = 0;
        }
        let start = self.log_cursor;
        for (i, &(addr, value)) in writes.iter().enumerate() {
            mem.write(base.add(start + i as u64 * 2), addr.word());
            mem.write(base.add(start + i as u64 * 2 + 1), value);
        }
        for w in (0..needed - 2).step_by(8) {
            mem.clwb(tid, base.add(start + w));
        }
        mem.drain(tid);

        if let Config::NvHtm(d) = &self.engine.config {
            d.wait_for_earlier_commits(tid, ts);
        }

        // Durable COMMIT record.
        mem.write(base.add(start + needed - 2), u64::MAX);
        mem.write(base.add(start + needed - 1), ts);
        mem.clwb(tid, base.add(start + needed - 2));
        mem.drain(tid);
        self.log_cursor = start + needed;

        // A copy, so `writes` is freed by the thread that allocated it:
        // collecting it in place hands its allocation to the checkpointer,
        // and that costs NV-HTM ~10% of its throughput.
        d.queue
            .submit(writes.iter().map(|&(addr, _)| addr).collect());
    }
}

impl PersistentTm for BaselineTm {
    fn name(&self) -> &str {
        match self.config {
            Config::NonDurable => "Non-durable",
            Config::NvHtm(_) => "NV-HTM",
            Config::DudeTm(_) => "DudeTM",
        }
    }

    fn register_thread(&self, tid: usize) -> Box<dyn TmThread + '_> {
        if let Some(d) = self.config.durable() {
            assert!(tid < d.in_flight.len(), "thread id out of range");
        }
        Box::new(BaselineThread {
            engine: self,
            tid,
            log_cursor: 0,
        })
    }

    fn breakdown(&self) -> BreakdownSnapshot {
        self.recorder.snapshot()
    }

    fn is_durable(&self) -> bool {
        self.config.durable().is_some()
    }

    fn quiesce(&self) {
        let Some(d) = self.config.durable() else {
            return;
        };
        wait::until(|| d.queue.drained());
        let slots = self.mem.config().max_threads.min(d.in_flight.len() + 1);
        for tid in 0..slots {
            self.mem.drain(tid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crafty_common::WORDS_PER_LINE;
    use crafty_pmem::{PmemConfig, PmemStats};

    fn fresh_space() -> Arc<MemorySpace> {
        Arc::new(MemorySpace::new(PmemConfig::small_for_tests()))
    }

    /// The two durable configurations, over one memory space.
    fn engines(mem: &Arc<MemorySpace>) -> Vec<BaselineTm> {
        vec![
            NvHtm::new(Arc::clone(mem), CowConfig::small_for_tests()),
            DudeTm::new(Arc::clone(mem), CowConfig::small_for_tests()),
        ]
    }

    /// All three configurations, each over a fresh memory space, with redo
    /// logs large enough for a transaction past the hardware's capacity.
    fn each_config() -> [BaselineTm; 3] {
        let cfg = CowConfig {
            redo_log_words: 1 << 11,
            ..CowConfig::small_for_tests()
        };
        [
            NonDurable::new(fresh_space(), cfg.heap_words),
            NvHtm::new(fresh_space(), cfg),
            DudeTm::new(fresh_space(), cfg),
        ]
    }

    #[test]
    fn names_match_paper_legends() {
        let mem = fresh_space();
        let e = engines(&mem);
        assert_eq!(e[0].name(), "NV-HTM");
        assert_eq!(e[1].name(), "DudeTM");
        assert!(e[0].is_durable());
        let non_durable = NonDurable::new(mem, 1 << 12);
        assert_eq!(non_durable.name(), "Non-durable");
        assert!(!non_durable.is_durable());
    }

    #[test]
    fn increments_are_atomic_across_threads() {
        for engine in each_config() {
            let mem = Arc::clone(engine.mem());
            let cell = mem.reserve_persistent(1);
            std::thread::scope(|s| {
                for tid in 0..4 {
                    let engine = &engine;
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
            assert_eq!(mem.read(cell), 1000, "{}", engine.name());
            assert_eq!(engine.breakdown().total_persistent(), 1000);
        }
    }

    #[test]
    fn nothing_is_persisted() {
        let mem = fresh_space();
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

    /// Non-durable is the normaliser: it reserves its heap and one volatile
    /// SGL word and nothing else (every workload address stays where it
    /// is), records every hardware commit as `NonCrafty` and no persistent
    /// writes, and causes no persist traffic at all — not even an idle
    /// drain at `quiesce`.
    #[test]
    fn non_durable_reserves_its_heap_and_lock_and_persists_nothing() {
        let mem = fresh_space();
        let heap_words = 1 << 12;
        let engine = NonDurable::new(Arc::clone(&mem), heap_words);
        // Line 0 belongs to the space; the heap follows it.
        let cell = mem.reserve_persistent(1);
        assert_eq!(cell, PAddr::new(WORDS_PER_LINE + heap_words));
        assert_eq!(engine.sgl_addr, PAddr::new(mem.config().persistent_words));
        assert_eq!(mem.reserve_volatile(1), engine.sgl_addr.add(WORDS_PER_LINE));

        let mut t = engine.register_thread(0);
        for _ in 0..10 {
            t.execute(&mut |ops| {
                let v = ops.read(cell)?;
                ops.write(cell, v + 1)?;
                Ok(())
            });
        }
        t.execute(&mut |ops| {
            ops.read(cell)?;
            Ok(())
        });
        drop(t);
        engine.quiesce();

        assert_eq!(mem.read(cell), 10);
        let b = engine.breakdown();
        assert_eq!(b.completions(CompletionPath::NonCrafty), 11);
        assert_eq!(b.persistent_writes, 0);
        assert_eq!(mem.stats(), PmemStats::default());
    }

    /// A transaction past the hardware's write capacity aborts every
    /// hardware attempt and completes under the global lock, in every
    /// configuration; the durable ones log and checkpoint it like any other.
    #[test]
    fn oversized_transactions_fall_back_to_the_lock() {
        for engine in each_config() {
            let name = engine.name().to_string();
            let mem = Arc::clone(engine.mem());
            // One word in each of more lines than a hardware transaction
            // may write.
            let lines = HtmConfig::skylake().write_capacity_lines as u64 + 1;
            let base = mem.reserve_persistent(lines * WORDS_PER_LINE);
            let word = |i: u64| base.add(i * WORDS_PER_LINE);
            let mut t = engine.register_thread(0);
            t.execute(&mut |ops| {
                for i in 0..lines {
                    ops.write(word(i), i + 1)?;
                }
                Ok(())
            });
            drop(t);
            engine.quiesce();
            let b = engine.breakdown();
            assert_eq!(b.total_persistent(), 1, "{name}");
            assert_eq!(b.completions(CompletionPath::Sgl), 1, "{name}");
            assert_eq!(b.total_hardware(), u64::from(MAX_HTM_ATTEMPTS), "{name}");
            assert!((0..lines).all(|i| mem.read(word(i)) == i + 1), "{name}");
            // The durable configurations log and checkpoint the locked
            // write set; Non-durable persists none of it.
            let durable = u64::from(engine.is_durable());
            assert_eq!(b.persistent_writes, durable * lines, "{name}");
            let image = mem.crash();
            assert!(
                (0..lines).all(|i| image.read(word(i)) == durable * (i + 1)),
                "{name}"
            );
        }
    }

    /// A committed `dealloc` makes its block the next `alloc` of its size:
    /// after 20 frees, 20 allocations return exactly the freed blocks and
    /// bump nothing.
    #[test]
    fn alloc_and_dealloc_are_immediate() {
        for engine in each_config() {
            let (mem, cursor) = (engine.mem(), engine.heap.header());
            let mut t = engine.register_thread(0);
            let alloc = |t: &mut Box<dyn TmThread + '_>| {
                let mut blocks = Vec::new();
                t.execute(&mut |ops| {
                    blocks = (0..20).map(|_| ops.alloc(4)).collect::<Result<_, _>>()?;
                    Ok(())
                });
                blocks.sort_unstable();
                blocks
            };
            let blocks = alloc(&mut t);
            let used = mem.read(cursor);
            t.execute(&mut |ops| blocks.iter().try_for_each(|&b| ops.dealloc(b, 4)));
            assert_eq!(alloc(&mut t), blocks, "{}", engine.name());
            assert_eq!(mem.read(cursor), used, "{}", engine.name());
        }
    }

    #[test]
    fn committed_writes_are_eventually_persisted_by_the_checkpointer() {
        let mem = fresh_space();
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
        let mem = fresh_space();
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
        let mem = fresh_space();
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
        let mem = fresh_space();
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
        let Config::DudeTm(d) = &engine.config else {
            unreachable!("DudeTm::new builds a DudeTM engine")
        };
        assert_eq!(mem.read(d.dude_counter_addr), 5);
    }
}
