//! YCSB-style key-value workloads over the [`crafty_kv`] store.
//!
//! Persistent-memory systems are judged on KV-store traffic with skewed
//! key popularity; this module provides the standard read-heavy YCSB core
//! mixes over [`crafty_kv::ShardedKv`], pluggable into the existing
//! [`Workload`]/[`TxnMix`] driver so one configuration runs unchanged on
//! every engine:
//!
//! | mix  | operations                          | YCSB analogue        |
//! |------|-------------------------------------|----------------------|
//! | A    | 50% read, 50% update                | workload A           |
//! | B    | 95% read, 5% update                 | workload B           |
//! | C    | 100% read                           | workload C           |
//! | E    | 95% short scan, 5% insert           | workload E           |
//!
//! Group commit is not a mix: it batches the durability acknowledgement,
//! which only a server has (`crafty-server`'s `group_commit`, one
//! `persist_fence` per pipelined batch); every transaction here runs the
//! engine's one fenced pipeline.
//!
//! Keys are drawn zipfian ([`crafty_common::Zipfian`], θ = 0.99) and
//! scattered across the key space by hashing the rank (YCSB's "scrambled
//! zipfian"), so hot keys land on arbitrary shards. Every transaction
//! derives its randomness from `(seed, tid, txn_index)` — re-executions of
//! the same body (Crafty's Log and Validate phases both run it) draw the
//! same keys, keeping bodies idempotent by construction.

use std::sync::Arc;

use crafty_common::{mix64, SplitMix64, TxAbort, TxnOps, Zipfian, YCSB_THETA};
use crafty_kv::{DirectOps, KvConfig, ShardedKv};
use crafty_pmem::MemorySpace;

use crate::driver::{TxnMix, Workload};

/// Which YCSB core mix to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum YcsbMix {
    /// 50% reads, 50% updates (update heavy).
    A,
    /// 95% reads, 5% updates (read heavy).
    B,
    /// 100% reads (read only).
    C,
    /// 95% short scans, 5% inserts (scan heavy).
    E,
}

impl YcsbMix {
    /// Every mix, in evaluation order.
    pub const ALL: [YcsbMix; 4] = [YcsbMix::A, YcsbMix::B, YcsbMix::C, YcsbMix::E];

    /// Short mix label (`"A"`, `"B"`, ...).
    pub fn label(self) -> &'static str {
        match self {
            YcsbMix::A => "A",
            YcsbMix::B => "B",
            YcsbMix::C => "C",
            YcsbMix::E => "E",
        }
    }

    /// Human-readable description of the operation blend.
    pub fn blend(self) -> &'static str {
        match self {
            YcsbMix::A => "50% read / 50% update",
            YcsbMix::B => "95% read / 5% update",
            YcsbMix::C => "100% read",
            YcsbMix::E => "95% scan / 5% insert",
        }
    }
}

/// The YCSB workload configuration.
#[derive(Clone, Copy, Debug)]
pub struct YcsbWorkload {
    /// Operation mix.
    pub mix: YcsbMix,
    /// Records loaded before measurement; reads draw from this population.
    pub records: u64,
    /// Zipfian skew (`0 < theta < 1`; YCSB's default is 0.99).
    pub theta: f64,
    /// Store shard count.
    pub shards: usize,
    /// Key-selection seed (fixed across engines so they see the same
    /// traffic).
    pub seed: u64,
}

impl YcsbWorkload {
    /// The benchmark-scale configuration for a mix.
    pub fn paper(mix: YcsbMix) -> Self {
        YcsbWorkload {
            mix,
            records: 20_000,
            theta: YCSB_THETA,
            shards: 16,
            seed: 0x5C5B,
        }
    }

    /// A small configuration for unit tests.
    pub fn small_for_tests(mix: YcsbMix) -> Self {
        YcsbWorkload {
            mix,
            records: 400,
            theta: YCSB_THETA,
            shards: 4,
            seed: 7,
        }
    }

    /// Scrambles a zipfian rank into a key: hot ranks map to arbitrary
    /// points of the key space (collisions merge ranks, as in YCSB's
    /// scrambled zipfian; the key domain is 4× the record count to keep
    /// them rare).
    fn scramble(&self, rank: u64) -> u64 {
        mix64(rank.wrapping_add(self.seed)) % (self.records * 4)
    }
}

/// The prepared store plus the sampling state shared by worker threads.
pub struct YcsbKvMix {
    kv: ShardedKv,
    workload: YcsbWorkload,
    zipf: Zipfian,
}

impl YcsbKvMix {
    /// The store handle (tests and diagnostics).
    pub fn kv(&self) -> &ShardedKv {
        &self.kv
    }
}

impl YcsbWorkload {
    /// [`Workload::prepare`] with the concrete mix type (tests and tools
    /// that need the [`ShardedKv`] handle use this).
    pub fn prepare_kv(&self, mem: &Arc<MemorySpace>) -> YcsbKvMix {
        let kv = ShardedKv::create(mem, &KvConfig::benchmark(self.records, self.shards));
        // Setup-time prefill, then an explicit persist: the measured region
        // starts from a durable, loaded store.
        let mut ops = DirectOps::new(mem);
        for rank in 0..self.records {
            let key = self.scramble(rank);
            kv.put(&mut ops, key, mix64(key))
                .expect("direct prefill cannot abort");
        }
        kv.persist_all(mem, 0);
        YcsbKvMix {
            kv,
            workload: *self,
            zipf: Zipfian::new(self.records, self.theta),
        }
    }
}

impl Workload for YcsbWorkload {
    fn name(&self) -> String {
        format!("YCSB-{} ({})", self.mix.label(), self.mix.blend())
    }

    fn prepare(&self, mem: &Arc<MemorySpace>) -> Box<dyn TxnMix> {
        Box::new(self.prepare_kv(mem))
    }
}

impl TxnMix for YcsbKvMix {
    fn run_txn(
        &self,
        tid: usize,
        txn_index: u64,
        _rng: &mut SplitMix64,
        ops: &mut dyn TxnOps,
    ) -> Result<(), TxAbort> {
        let w = &self.workload;
        // Per-transaction stream: a pure function of (seed, tid, index), so
        // engine-driven re-executions of this body replay identically.
        let mut rng =
            SplitMix64::new(w.seed ^ mix64(((tid as u64) << 40) | txn_index.wrapping_add(1)));
        let dice = rng.next_below(100);
        let key = w.scramble(self.zipf.sample(&mut rng));
        match w.mix {
            YcsbMix::A | YcsbMix::B => {
                let read_pct = if w.mix == YcsbMix::B { 95 } else { 50 };
                if dice < read_pct {
                    self.kv.get(ops, key)?;
                } else {
                    self.kv.put(ops, key, mix64(key ^ txn_index))?;
                }
            }
            YcsbMix::C => {
                self.kv.get(ops, key)?;
            }
            YcsbMix::E => {
                if dice < 95 {
                    let limit = 1 + rng.next_below(8);
                    self.kv.scan(ops, key, limit)?;
                } else {
                    // Fresh keys above the scrambled domain, partitioned by
                    // thread so inserts never collide across threads.
                    let fresh = w.records * 4 + (tid as u64) * (1 << 32) + txn_index;
                    self.kv.put(ops, fresh, mix64(fresh))?;
                }
            }
        }
        Ok(())
    }

    fn verify(&self, mem: &MemorySpace) -> Result<(), String> {
        self.kv.check_integrity(mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_mix;
    use crate::engines::{build_engine, EngineKind};
    use crafty_pmem::PmemConfig;

    fn space() -> Arc<MemorySpace> {
        Arc::new(MemorySpace::new(
            PmemConfig::small_for_tests().with_max_threads(8),
        ))
    }

    #[test]
    fn every_mix_runs_on_every_engine() {
        for mix in YcsbMix::ALL {
            for kind in [
                EngineKind::NonDurable,
                EngineKind::DudeTm,
                EngineKind::NvHtm,
                EngineKind::Crafty,
            ] {
                let mem = space();
                let engine = build_engine(kind, &mem, 2);
                let workload = YcsbWorkload::small_for_tests(mix);
                let prepared = workload.prepare(&mem);
                run_mix(engine.as_ref(), prepared.as_ref(), 2, 60, 3);
                engine.quiesce();
                assert_eq!(
                    engine.breakdown().total_persistent(),
                    120,
                    "{} on {:?}",
                    workload.name(),
                    kind
                );
                assert!(
                    prepared.verify(&mem).is_ok(),
                    "{} on {:?}: {:?}",
                    workload.name(),
                    kind,
                    prepared.verify(&mem)
                );
            }
        }
    }

    #[test]
    fn prefill_loads_the_configured_population() {
        let mem = space();
        let workload = YcsbWorkload::small_for_tests(YcsbMix::C);
        let mix = workload.prepare_kv(&mem);
        let len = mix.kv().stats(&mem).len;
        // Collisions in the scrambled key space merge a few ranks, so the
        // live count is close to (and never above) the record count.
        assert!(len <= workload.records);
        assert!(
            len > workload.records * 8 / 10,
            "prefill only loaded {len} of {} records",
            workload.records
        );
        assert!(mix.verify(&mem).is_ok());
    }

    #[test]
    fn workload_names_and_blends_are_stable() {
        assert_eq!(
            YcsbWorkload::paper(YcsbMix::A).name(),
            "YCSB-A (50% read / 50% update)"
        );
        assert_eq!(YcsbMix::ALL.len(), 4);
        assert_eq!(YcsbMix::E.blend(), "95% scan / 5% insert");
    }

    #[test]
    fn identical_configs_prepare_identical_stores() {
        // Cross-engine comparability: two prepares with the same config
        // must load exactly the same key-value population.
        let mem_a = space();
        let mem_b = space();
        let w = YcsbWorkload::small_for_tests(YcsbMix::A);
        let a = w.prepare_kv(&mem_a);
        let b = w.prepare_kv(&mem_b);
        let mut pairs_a = a.kv().collect_pairs(&mem_a);
        let mut pairs_b = b.kv().collect_pairs(&mem_b);
        pairs_a.sort_unstable();
        pairs_b.sort_unstable();
        assert_eq!(pairs_a, pairs_b);
        assert!(!pairs_a.is_empty());
    }

    #[test]
    fn e_mix_inserts_grow_the_store() {
        let mem = space();
        let engine = build_engine(EngineKind::NonDurable, &mem, 1);
        let w = YcsbWorkload::small_for_tests(YcsbMix::E);
        let mix = w.prepare_kv(&mem);
        let before = mix.kv().stats(&mem).len;
        run_mix(&*engine, &mix, 1, 400, 5);
        engine.quiesce();
        let after = mix.kv().stats(&mem).len;
        assert!(
            after > before,
            "5% inserts must add keys: {before} -> {after}"
        );
        assert!(mix.verify(&mem).is_ok(), "{:?}", mix.verify(&mem));
    }
}
