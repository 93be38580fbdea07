//! STAMP-like transactional kernels (Section 7.1, Figure 8).
//!
//! The paper evaluates on the STAMP suite, treating every transaction as a
//! persistent transaction and all shared accesses inside transactions as
//! persistent accesses. Porting the full C benchmarks is out of scope for
//! this reproduction; instead each kernel below reproduces the
//! characteristics that drive the figures — average writes per transaction
//! (Table 1), read/write mix, transaction length, and contention profile —
//! on the same persistent-heap API:
//!
//! | kernel     | writes/txn target | contention                |
//! |------------|-------------------|---------------------------|
//! | kmeans     | ≈25               | high (few clusters) / low |
//! | vacation   | ≈8 / ≈5.5         | high / low                |
//! | labyrinth  | ≈177              | low, huge transactions    |
//! | ssca2      | ≈2                | very low                  |
//! | genome     | ≈2                | low–moderate              |
//! | intruder   | ≈1.8              | high (shared queue)       |
//!
//! `ARCHITECTURE.md` records this substitution.

use std::sync::Arc;

use crafty_common::{PAddr, SplitMix64, TxAbort, TxnOps, WORDS_PER_LINE};
use crafty_pmem::MemorySpace;

use crate::driver::{TxnMix, Workload};

/// Which STAMP-like kernel to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StampKernel {
    /// K-means clustering with shared cluster centroids (high contention).
    KmeansHigh,
    /// K-means with many centroids (low contention).
    KmeansLow,
    /// Travel reservations touching several tables (high contention).
    VacationHigh,
    /// Travel reservations over a larger database (low contention).
    VacationLow,
    /// Maze routing: very long transactions claiming a path of grid cells.
    Labyrinth,
    /// Graph kernel: two-write edge insertions, negligible contention.
    Ssca2,
    /// Gene-segment deduplication into a hash table.
    Genome,
    /// Network-packet reassembly around a shared work queue.
    Intruder,
}

impl StampKernel {
    /// Every kernel, in the order of Figure 8.
    pub const ALL: [StampKernel; 8] = [
        StampKernel::KmeansHigh,
        StampKernel::KmeansLow,
        StampKernel::VacationHigh,
        StampKernel::VacationLow,
        StampKernel::Labyrinth,
        StampKernel::Ssca2,
        StampKernel::Genome,
        StampKernel::Intruder,
    ];

    /// The figure caption for this kernel.
    pub fn label(self) -> &'static str {
        match self {
            StampKernel::KmeansHigh => "kmeans (high contention)",
            StampKernel::KmeansLow => "kmeans (low contention)",
            StampKernel::VacationHigh => "vacation (high contention)",
            StampKernel::VacationLow => "vacation (low contention)",
            StampKernel::Labyrinth => "labyrinth",
            StampKernel::Ssca2 => "ssca2",
            StampKernel::Genome => "genome",
            StampKernel::Intruder => "intruder",
        }
    }

    /// The average writes per transaction reported in Table 1, used by the
    /// harness to sanity-check the kernels.
    pub fn paper_writes_per_txn(self) -> f64 {
        match self {
            StampKernel::KmeansHigh | StampKernel::KmeansLow => 25.0,
            StampKernel::VacationHigh => 8.0,
            StampKernel::VacationLow => 5.5,
            StampKernel::Labyrinth => 177.0,
            StampKernel::Ssca2 => 2.0,
            StampKernel::Genome => 2.1,
            StampKernel::Intruder => 1.8,
        }
    }
}

/// A STAMP-like workload.
#[derive(Clone, Copy, Debug)]
pub struct StampWorkload {
    /// The kernel to run.
    pub kernel: StampKernel,
}

impl StampWorkload {
    /// Creates the workload for the given kernel.
    pub fn new(kernel: StampKernel) -> Self {
        StampWorkload { kernel }
    }
}

/// Prepared state for all kernels: a shared region whose interpretation
/// depends on the kernel, plus the shape parameters.
pub struct StampMix {
    kernel: StampKernel,
    /// Shared "hot" region (centroids, tables, queue heads...).
    hot: PAddr,
    hot_slots: u64,
    /// Large "cold" region (points, grid, hash buckets...).
    cold: PAddr,
    cold_slots: u64,
}

impl Workload for StampWorkload {
    fn name(&self) -> String {
        self.kernel.label().to_string()
    }

    fn prepare(&self, mem: &Arc<MemorySpace>) -> Box<dyn TxnMix> {
        let (hot_slots, cold_slots) = match self.kernel {
            StampKernel::KmeansHigh => (8 * 26, 1 << 14),
            StampKernel::KmeansLow => (64 * 26, 1 << 14),
            StampKernel::VacationHigh => (256, 1 << 14),
            StampKernel::VacationLow => (4096, 1 << 16),
            StampKernel::Labyrinth => (64, 1 << 16),
            StampKernel::Ssca2 => (64, 1 << 16),
            StampKernel::Genome => (64, 1 << 15),
            StampKernel::Intruder => (16, 1 << 14),
        };
        let hot = mem.reserve_persistent(hot_slots * WORDS_PER_LINE);
        let cold = mem.reserve_persistent(cold_slots);
        Box::new(StampMix {
            kernel: self.kernel,
            hot,
            hot_slots,
            cold,
            cold_slots,
        })
    }
}

impl StampMix {
    fn hot_addr(&self, slot: u64) -> PAddr {
        self.hot.add((slot % self.hot_slots) * WORDS_PER_LINE)
    }

    fn cold_addr(&self, slot: u64) -> PAddr {
        self.cold.add(slot % self.cold_slots)
    }

    /// Read-modify-write of a hot slot.
    fn bump_hot(&self, ops: &mut dyn TxnOps, slot: u64, delta: u64) -> Result<(), TxAbort> {
        let addr = self.hot_addr(slot);
        let v = ops.read(addr)?;
        ops.write(addr, v.wrapping_add(delta))
    }

    fn kmeans(
        &self,
        clusters: u64,
        rng: &mut SplitMix64,
        ops: &mut dyn TxnOps,
    ) -> Result<(), TxAbort> {
        // Pick a point (cold read-mostly), find the "nearest" centroid by
        // scanning a few centroids (reads), then update that centroid's 24
        // accumulator dimensions plus its membership count (25 writes).
        let dims = 24u64;
        let point = rng.next_below(self.cold_slots);
        let mut acc = 0u64;
        for d in 0..4 {
            acc ^= ops.read(self.cold_addr(point + d))?;
        }
        let cluster = (acc ^ rng.next_u64()) % clusters;
        let base_slot = cluster * (dims + 2);
        for d in 0..dims {
            self.bump_hot(ops, base_slot + d, (point + d) & 0xFF)?;
        }
        self.bump_hot(ops, base_slot + dims, 1)
    }

    fn vacation(
        &self,
        tables: u64,
        writes: u64,
        rng: &mut SplitMix64,
        ops: &mut dyn TxnOps,
    ) -> Result<(), TxAbort> {
        // A reservation touches a customer record and a few resource
        // records spread over the "tables" (hot region), reading
        // availability before decrementing it.
        for _ in 0..writes {
            let record = rng.next_below(tables);
            // A couple of reads per write: price lookups along the way.
            let _ = ops.read(self.cold_addr(rng.next_below(self.cold_slots)))?;
            self.bump_hot(ops, record, 1)?;
        }
        Ok(())
    }

    fn labyrinth(&self, rng: &mut SplitMix64, ops: &mut dyn TxnOps) -> Result<(), TxAbort> {
        // Claim a long path of grid cells: ~177 writes spread over the cold
        // region, with a read of each cell first (collision check).
        let len = 170 + rng.next_below(16);
        let start = rng.next_below(self.cold_slots);
        let stride = 1 + rng.next_below(7);
        for i in 0..len {
            let addr = self.cold_addr(start + i * stride);
            let v = ops.read(addr)?;
            ops.write(addr, v.wrapping_add(1))?;
        }
        Ok(())
    }

    fn ssca2(&self, rng: &mut SplitMix64, ops: &mut dyn TxnOps) -> Result<(), TxAbort> {
        // Insert one edge: append to a node's adjacency cursor — two writes
        // to essentially random (conflict-free) locations.
        let node = rng.next_below(self.cold_slots / 2);
        let cursor = ops.read(self.cold_addr(node))?;
        ops.write(self.cold_addr(node), cursor + 1)?;
        ops.write(
            self.cold_addr(self.cold_slots / 2 + node + cursor % 8),
            rng.next_u64(),
        )
    }

    fn genome(&self, rng: &mut SplitMix64, ops: &mut dyn TxnOps) -> Result<(), TxAbort> {
        // Deduplicate a gene segment into a hash table: probe a few buckets
        // (reads), then insert the segment and bump the chain length.
        let segment = rng.next_u64();
        let bucket = segment % (self.cold_slots / 2);
        let mut probe = bucket;
        for _ in 0..3 {
            let occupied = ops.read(self.cold_addr(probe))?;
            if occupied == 0 {
                break;
            }
            probe = (probe + 1) % (self.cold_slots / 2);
        }
        ops.write(self.cold_addr(probe), segment | 1)?;
        self.bump_hot(ops, bucket % self.hot_slots, 1)
    }

    fn intruder(&self, rng: &mut SplitMix64, ops: &mut dyn TxnOps) -> Result<(), TxAbort> {
        // Packet reassembly: take a work item from a shared queue head
        // (hot, contended) and, four times out of five, store a fragment.
        let queue = rng.next_below(self.hot_slots);
        self.bump_hot(ops, queue, 1)?;
        if rng.next_below(5) < 4 {
            let slot = rng.next_below(self.cold_slots);
            ops.write(self.cold_addr(slot), rng.next_u64())?;
        }
        Ok(())
    }
}

impl TxnMix for StampMix {
    fn run_txn(
        &self,
        _tid: usize,
        _txn_index: u64,
        rng: &mut SplitMix64,
        ops: &mut dyn TxnOps,
    ) -> Result<(), TxAbort> {
        match self.kernel {
            StampKernel::KmeansHigh => self.kmeans(8, rng, ops),
            StampKernel::KmeansLow => self.kmeans(64, rng, ops),
            StampKernel::VacationHigh => self.vacation(self.hot_slots, 8, rng, ops),
            StampKernel::VacationLow => {
                // Alternate 5 and 6 writes to land at ≈5.5 on average.
                let writes = 5 + (rng.next_below(2));
                self.vacation(self.hot_slots, writes, rng, ops)
            }
            StampKernel::Labyrinth => self.labyrinth(rng, ops),
            StampKernel::Ssca2 => self.ssca2(rng, ops),
            StampKernel::Genome => self.genome(rng, ops),
            StampKernel::Intruder => self.intruder(rng, ops),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_mix;
    use crate::engines::{build_engine, EngineKind};
    use crafty_common::PersistentTm;
    use crafty_core::{Crafty, CraftyConfig};
    use crafty_pmem::PmemConfig;

    #[test]
    fn labels_are_unique_and_match_figure_captions() {
        let mut labels: Vec<_> = StampKernel::ALL.iter().map(|k| k.label()).collect();
        let n = labels.len();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), n);
        assert_eq!(StampWorkload::new(StampKernel::Genome).name(), "genome");
    }

    #[test]
    fn write_counts_track_table_1() {
        // NV-HTM and Crafty both record every persistent write of a
        // committed transaction, which is exactly the Table 1 metric.
        let mem = Arc::new(MemorySpace::new(
            PmemConfig::benchmark().with_latency(crafty_pmem::LatencyModel::instant()),
        ));
        for kernel in [
            StampKernel::KmeansHigh,
            StampKernel::VacationHigh,
            StampKernel::VacationLow,
            StampKernel::Ssca2,
            StampKernel::Intruder,
        ] {
            for kind in [EngineKind::NvHtm, EngineKind::Crafty] {
                let engine = build_engine(kind, &mem, 1);
                let mix = StampWorkload::new(kernel).prepare(&mem);
                run_mix(engine.as_ref(), mix.as_ref(), 1, 200, 5);
                let measured = engine.breakdown().writes_per_txn();
                let expected = kernel.paper_writes_per_txn();
                assert!(
                    (measured - expected).abs() / expected < 0.35,
                    "{} on {}: measured {measured:.1} writes/txn, paper reports {expected:.1}",
                    kernel.label(),
                    kind.label()
                );
            }
        }
    }

    #[test]
    fn labyrinth_transactions_are_very_large() {
        let mem = Arc::new(MemorySpace::new(PmemConfig {
            persistent_words: 1 << 18,
            ..PmemConfig::small_for_tests()
        }));
        let engine = build_engine(EngineKind::Crafty, &mem, 1);
        let mix = StampWorkload::new(StampKernel::Labyrinth).prepare(&mem);
        run_mix(engine.as_ref(), mix.as_ref(), 1, 20, 5);
        assert!(engine.breakdown().writes_per_txn() > 150.0);
    }

    #[test]
    fn kernels_run_on_crafty_without_losing_transactions() {
        let mem = Arc::new(MemorySpace::new(PmemConfig {
            persistent_words: 1 << 18,
            ..PmemConfig::small_for_tests()
        }));
        let engine = Crafty::new(
            Arc::clone(&mem),
            CraftyConfig::small_for_tests().with_max_threads(2),
        );
        let mix = StampWorkload::new(StampKernel::Ssca2).prepare(&mem);
        run_mix(&engine, mix.as_ref(), 2, 100, 9);
        assert_eq!(engine.breakdown().total_persistent(), 200);
    }
}
