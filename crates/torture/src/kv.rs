//! Crash-point torture of the durable sharded KV store.
//!
//! A single thread drives puts and removes over a small key space on a
//! deliberately small [`ShardedKv`] (one shard of 16 slots), so the run
//! crosses several table resizes, and its removes hit both tables while a
//! migration is in flight. Every crash image
//! is recovered, booted, deep-checked with
//! [`ShardedKv::check_integrity`], and compared against a prefix of the
//! shadow oracle's map states.

use std::collections::BTreeMap;
use std::sync::Arc;

use crafty_common::trace::{self, ThreadTrace};
use crafty_common::{PersistentTm, SplitMix64};
use crafty_core::{Crafty, CraftyConfig};
use crafty_kv::{KvConfig, ShardedKv};
use crafty_pmem::{CrashModel, FaultPlan, LatencyModel, MemorySpace, PersistentImage, PmemConfig};

use crate::bank::recover_checked;
use crate::{enumerate, Replay, TortureConfig, TortureReport};

/// Key space; small enough that overwrites, removes, and rehash churn all
/// happen within a short run, large enough to outgrow [`suite_cfg`]'s
/// table three times.
const KEYS: u64 = 48;

/// One oracle operation: `(key, Some(value))` is a put, `(key, None)` a
/// remove.
type KvOp = (u64, Option<u64>);

/// The memory configuration of a store rig with `workers` engine threads
/// (shared with [`crate::service`]).
pub(crate) fn pmem_cfg(plan: FaultPlan, workers: usize) -> PmemConfig {
    PmemConfig {
        persistent_words: 1 << 16,
        volatile_words: 1 << 14,
        max_threads: workers + 2,
        latency: LatencyModel::instant(),
        crash: CrashModel::strict(),
        ..PmemConfig::small_for_tests()
    }
    .with_fault_plan(plan)
}

pub(crate) fn crafty_cfg(workers: usize) -> CraftyConfig {
    CraftyConfig::small_for_tests()
        .with_max_threads(workers)
        .with_undo_log_entries(128)
}

pub(crate) fn kv_cfg() -> KvConfig {
    KvConfig::small_for_tests()
        .with_shards(2)
        .with_initial_capacity(8)
}

/// This suite's store: one shard starting at 16 slots, so every
/// migration spans two or more mutations and the operations between them
/// reach both tables.
fn suite_cfg() -> KvConfig {
    KvConfig::small_for_tests()
        .with_shards(1)
        .with_initial_capacity(16)
}

/// Draws the deterministic operation list: mostly puts (with values unique
/// per operation so prefixes are distinguishable), some removes.
fn draw_ops(seed: u64, txns: u64) -> Vec<KvOp> {
    let mut rng = SplitMix64::new(seed ^ 0x00DD_BA11_CAFE_D00D);
    (0..txns)
        .map(|i| {
            let key = rng.next_below(KEYS);
            if rng.chance(0.2) {
                (key, None)
            } else {
                (key, Some(1_000 + i))
            }
        })
        .collect()
}

/// Record of one (possibly trapped) single-threaded Crafty run, the kv and
/// heap suites' replay.
pub(crate) struct CraftyRun {
    setup_steps: u64,
    total_steps: u64,
    pub(crate) dir_addr: crafty_common::PAddr,
    pub(crate) image: Option<PersistentImage>,
    /// Flight-recorder state frozen at the same tick as `image`.
    trace: Vec<ThreadTrace>,
}

impl CraftyRun {
    /// Takes the run's trapped image and trace from `mem` once it is done.
    pub(crate) fn finish(
        mem: &MemorySpace,
        setup_steps: u64,
        dir_addr: crafty_common::PAddr,
    ) -> Self {
        CraftyRun {
            setup_steps,
            total_steps: mem.fault_steps(),
            dir_addr,
            image: mem.take_fault_image(),
            trace: mem.take_fault_trace(),
        }
    }
}

impl Replay for CraftyRun {
    fn setup_steps(&self) -> u64 {
        self.setup_steps
    }
    fn total_steps(&self) -> u64 {
        self.total_steps
    }
    fn trapped(&self) -> bool {
        self.image.is_some()
    }
    fn trace(&self) -> &[ThreadTrace] {
        &self.trace
    }
}

/// Runs the KV workload once under `plan`. The event rings are reset
/// first, so a trapped run's frozen tail shows only this replay's events.
fn run_once(ops: &[KvOp], plan: FaultPlan) -> CraftyRun {
    trace::reset_rings();
    let mem = Arc::new(MemorySpace::new(pmem_cfg(plan, 1)));
    let engine = Crafty::new(Arc::clone(&mem), crafty_cfg(1));
    let dir_addr = engine.directory_addr();
    let kv = ShardedKv::create(&mem, &suite_cfg());
    let mut thread = engine.register_thread(0);
    let setup_steps = mem.fault_steps();
    for &(key, value) in ops {
        thread.execute(&mut |txn| {
            match value {
                Some(v) => {
                    kv.put(txn, key, v)?;
                }
                None => {
                    kv.remove(txn, key)?;
                }
            }
            Ok(())
        });
    }
    drop(thread);
    CraftyRun::finish(&mem, setup_steps, dir_addr)
}

/// Audits the run's trapped image: recovers and boots it, replays the
/// layout constructors, deep-checks store structure, and requires the
/// surviving pairs to equal the shadow map after some prefix of the
/// operation list.
fn audit(run: &mut CraftyRun, ops: &[KvOp]) -> Result<(), String> {
    let image = run.image.take().expect("an audited run trapped its image");
    let recovered = recover_checked(image, run.dir_addr)?;
    let mem = Arc::new(MemorySpace::boot(
        &recovered,
        pmem_cfg(FaultPlan::inactive(), 1),
    ));
    let _engine = Crafty::new(Arc::clone(&mem), crafty_cfg(1));
    let kv = ShardedKv::open(&mem, &suite_cfg());
    kv.check_integrity(&mem)
        .map_err(|e| format!("store integrity violated: {e}"))?;
    let mut pairs = kv.collect_pairs(&mem);
    pairs.sort_unstable();
    let mut shadow: BTreeMap<u64, u64> = BTreeMap::new();
    for k in 0..=ops.len() {
        if k > 0 {
            let (key, value) = ops[k - 1];
            match value {
                Some(v) => {
                    shadow.insert(key, v);
                }
                None => {
                    shadow.remove(&key);
                }
            }
        }
        if pairs.len() == shadow.len()
            && pairs
                .iter()
                .all(|&(key, value)| shadow.get(&key) == Some(&value))
        {
            return Ok(());
        }
    }
    Err(format!(
        "recovered pairs ({} live keys) match no prefix of the operation order",
        pairs.len()
    ))
}

/// Runs the KV torture suite: step counting, crash-point replay, and the
/// full recover/boot/integrity/prefix audit per image.
pub fn run_kv_torture(cfg: &TortureConfig) -> TortureReport {
    let ops = draw_ops(cfg.seed, cfg.txns);
    enumerate(
        "kv",
        cfg,
        |step| cfg.adversary(step),
        |plan| run_once(&ops, plan),
        |run, _| audit(run, &ops),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crafty_kv::DirectOps;

    #[test]
    fn the_operation_mix_crosses_a_resize() {
        // The integrity audit only bites if the run reaches the rehash
        // machinery: a fault-free run of the CI mix must put, and remove a
        // present key, while a resize is in flight.
        let ops = draw_ops(1, 80);
        let mem = MemorySpace::new(pmem_cfg(FaultPlan::inactive(), 1));
        let kv = ShardedKv::create(&mem, &suite_cfg());
        let mut direct = DirectOps::new(&mem);
        let mut shadow = BTreeMap::new();
        let (mut puts, mut removes) = (0, 0);
        for &(key, value) in &ops {
            let resizing = kv.resize_in_flight(&mem);
            match value {
                Some(v) => {
                    puts += u64::from(resizing);
                    kv.put(&mut direct, key, v).unwrap();
                    shadow.insert(key, v);
                }
                None => {
                    removes += u64::from(resizing && shadow.contains_key(&key));
                    kv.remove(&mut direct, key).unwrap();
                    shadow.remove(&key);
                }
            }
        }
        assert!(puts >= 1, "no put while a resize was in flight");
        assert!(removes >= 1, "no remove of a present key mid-resize");
    }

    #[test]
    fn final_step_image_passes_the_full_audit() {
        let ops = draw_ops(9, 30);
        let count = run_once(&ops, FaultPlan::count_only());
        let mut run = run_once(
            &ops,
            FaultPlan::crash_at(count.total_steps, CrashModel::strict()),
        );
        audit(&mut run, &ops).expect("audit");
    }
}
