//! Every mix's body is re-executable: run twice from one seed against
//! identical reads, it makes identical calls.
//!
//! Crafty's Validate phase (Algorithm 3) re-executes the body and commits
//! only if each write matches the undo entry the Log phase persisted, and
//! every hardware retry re-executes it too. [`crafty_workloads::drive`]
//! makes the rng half of that true by construction (one seed per
//! transaction, every body run started from it); this test catches the
//! other half — a mix that keeps state outside `ops`.

use std::collections::HashMap;
use std::sync::Arc;

use crafty_baselines::NonDurable;
use crafty_common::{PAddr, SplitMix64, TxAbort, TxnOps};
use crafty_pmem::{MemorySpace, PmemConfig};
use crafty_workloads::{
    drive, BankWorkload, BtreeVariant, BtreeWorkload, Contention, StampKernel, StampWorkload,
    Workload, YcsbMix, YcsbWorkload,
};

/// Words of scratch heap the recorder's `alloc` hands out per body run.
const SCRATCH_WORDS: u64 = 1 << 10;

/// One `TxnOps` call: `(op, address, value)` — the value read, written,
/// or the word count of an `alloc`/`dealloc`.
type Call = (&'static str, PAddr, u64);

/// Records every call of one body run. Reads are served from the prepared
/// space under the run's own buffered writes, and nothing is ever applied
/// to the space, so a second run is served exactly the reads the first was.
struct Recorder<'m> {
    mem: &'m MemorySpace,
    writes: HashMap<PAddr, u64>,
    scratch: PAddr,
    allocated: u64,
    calls: Vec<Call>,
}

impl TxnOps for Recorder<'_> {
    fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
        let value = self
            .writes
            .get(&addr)
            .copied()
            .unwrap_or_else(|| self.mem.read(addr));
        self.calls.push(("read", addr, value));
        Ok(value)
    }

    fn write(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
        self.writes.insert(addr, value);
        self.calls.push(("write", addr, value));
        Ok(())
    }

    fn alloc(&mut self, words: u64) -> Result<PAddr, TxAbort> {
        assert!(
            self.allocated + words <= SCRATCH_WORDS,
            "body outgrew the scratch heap"
        );
        let addr = self.scratch.add(self.allocated);
        self.allocated += words;
        self.calls.push(("alloc", addr, words));
        Ok(addr)
    }

    fn dealloc(&mut self, addr: PAddr, words: u64) -> Result<(), TxAbort> {
        self.calls.push(("dealloc", addr, words));
        Ok(())
    }
}

fn every_workload() -> Vec<Box<dyn Workload>> {
    let mut all: Vec<Box<dyn Workload>> = Vec::new();
    for contention in [Contention::High, Contention::Medium, Contention::None] {
        all.push(Box::new(BankWorkload::paper(contention, 2)));
    }
    for variant in [BtreeVariant::InsertOnly, BtreeVariant::Mixed] {
        all.push(Box::new(BtreeWorkload {
            variant,
            key_space: 256,
        }));
    }
    for mix in YcsbMix::ALL {
        all.push(Box::new(YcsbWorkload::small_for_tests(mix)));
    }
    for kernel in StampKernel::ALL {
        all.push(Box::new(StampWorkload::new(kernel)));
    }
    all
}

#[test]
fn every_body_repeats_its_calls_when_rerun_from_the_same_seed() {
    for workload in every_workload() {
        let name = workload.name();
        let mem = Arc::new(MemorySpace::new(PmemConfig {
            persistent_words: 1 << 19,
            ..PmemConfig::small_for_tests()
        }));
        let engine = NonDurable::new(Arc::clone(&mem), 1 << 16);
        let mix = workload.prepare(&mem);
        // Age the state first, so the recorded bodies walk a grown tree, a
        // churned store and moved balances rather than the empty layout.
        drive(&engine, mix.as_ref(), 2, 150, 3);
        let scratch = mem.reserve_persistent(SCRATCH_WORDS);

        let record = |tid: usize, index: u64, seed: u64| {
            let mut ops = Recorder {
                mem: &mem,
                writes: HashMap::new(),
                scratch,
                allocated: 0,
                calls: Vec::new(),
            };
            mix.run_txn(tid, index, &mut SplitMix64::new(seed), &mut ops)
                .expect("a recorder never aborts");
            ops.calls
        };
        let mut seeds = SplitMix64::new(0xE5EC);
        let mut calls = 0;
        for index in 0..64 {
            let (tid, seed) = (index as usize % 2, seeds.next_u64());
            let first = record(tid, index, seed);
            let again = record(tid, index, seed);
            assert_eq!(
                first, again,
                "{name}: transaction {index} diverged on re-execution"
            );
            calls += first.len();
        }
        assert!(calls > 0, "{name}: the bodies made no calls");
    }
}
