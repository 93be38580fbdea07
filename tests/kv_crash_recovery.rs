//! Crash consistency of the sharded KV store across lives: a store
//! crashed, recovered and rebooted once keeps every guarantee through a
//! second crash. The scenario runs under the strict, relaxed (word-lossy)
//! and adversarial persistence models, then recovers, reboots, reattaches
//! and checks every committed pair. A crash mid-rehash is the `kv`
//! torture suite's job: it crashes at every persistence step of a run
//! that crosses two resizes. A group-commit batch's `persist_fence` is the
//! `[bank/fenced]` torture route's: its audit requires every crash image
//! to keep all the transactions the last returned fence covered.

use std::sync::Arc;

use crafty_core::recover;
use crafty_repro::prelude::*;

const SHARDS: usize = 2;

fn pmem_cfg(model: CrashModel) -> PmemConfig {
    PmemConfig {
        persistent_words: 1 << 18,
        volatile_words: 1 << 14,
        max_threads: 4,
        latency: LatencyModel::instant(),
        // The model governs the whole run (spontaneous evictions, for the
        // models that have them), not just the final crash.
        crash: model,
        ..PmemConfig::small_for_tests()
    }
}

fn crafty_cfg() -> CraftyConfig {
    CraftyConfig::small_for_tests().with_max_threads(2)
}

fn kv_cfg() -> KvConfig {
    // Small initial tables; the arena has room for their doubling
    // schedule.
    KvConfig::small_for_tests()
        .with_shards(SHARDS)
        .with_initial_capacity(32)
        .with_arena_words(1 << 13)
}

/// Double-crash contract: a store that has already been crashed and
/// recovered once offers the same durability guarantees in its second
/// life. Committed-and-quiesced pairs from *both* lives survive the second
/// crash exactly; unquiesced turbulence before either crash is
/// all-or-nothing; and the store stays structurally intact throughout.
fn double_crash_and_recover(model: CrashModel, seed: u64) {
    // --- First life: committed base load, turbulence, crash. ------------
    let mem = Arc::new(MemorySpace::new(pmem_cfg(model)));
    let crafty = Crafty::new(Arc::clone(&mem), crafty_cfg());
    let kv = ShardedKv::create(&mem, &kv_cfg());
    let mut thread = crafty.register_thread(0);
    let first_pairs: Vec<(u64, u64)> = (0..24).map(|i| (seed * 613 + i, i * 11 + 1)).collect();
    for &(k, v) in &first_pairs {
        thread.execute(&mut |ops| kv.put(ops, k, v).map(|_| ()));
    }
    crafty.quiesce();
    // Unquiesced tail: may survive atomically or roll back.
    let tail1: Vec<u64> = (0..3).map(|i| (1 << 24) + seed * 17 + i).collect();
    for &k in &tail1 {
        thread.execute(&mut |ops| kv.put(ops, k, k ^ 0xAAAA).map(|_| ()));
    }
    drop(thread);
    let mut image = mem.crash();
    recover(&mut image, crafty.directory_addr()).expect("first recovery");

    // --- Second life: reboot, verify, more committed work, crash again. -
    let mem2 = Arc::new(MemorySpace::boot(&image, pmem_cfg(model)));
    let crafty2 = Crafty::new(Arc::clone(&mem2), crafty_cfg());
    let kv2 = ShardedKv::open(&mem2, &kv_cfg());
    kv2.check_integrity(&mem2)
        .unwrap_or_else(|e| panic!("store failed integrity after first crash: {e}"));
    for &(k, v) in &first_pairs {
        assert_eq!(
            kv2.get_direct(&mem2, k),
            Some(v),
            "first-life committed key {k} lost in the first crash"
        );
    }
    let mut thread2 = crafty2.register_thread(0);
    let second_pairs: Vec<(u64, u64)> = (0..24)
        .map(|i| ((1 << 25) + seed * 419 + i, i * 7 + 3))
        .collect();
    for &(k, v) in &second_pairs {
        thread2.execute(&mut |ops| kv2.put(ops, k, v).map(|_| ()));
    }
    // Also overwrite a first-life key, committed and quiesced: the second
    // crash must keep the *new* value.
    let (rewrite_key, _) = first_pairs[0];
    let rewrite_value = 0xBEEF ^ seed;
    thread2.execute(&mut |ops| kv2.put(ops, rewrite_key, rewrite_value).map(|_| ()));
    crafty2.quiesce();
    let tail2: Vec<u64> = (0..3).map(|i| (1 << 26) + seed * 23 + i).collect();
    for &k in &tail2 {
        thread2.execute(&mut |ops| kv2.put(ops, k, k ^ 0xBBBB).map(|_| ()));
    }
    drop(thread2);
    let mut image2 = mem2.crash();
    recover(&mut image2, crafty2.directory_addr()).expect("second recovery");

    // --- Third life: everything quiesced in either life survives. -------
    let mem3 = Arc::new(MemorySpace::boot(&image2, pmem_cfg(CrashModel::strict())));
    let _crafty3 = Crafty::new(Arc::clone(&mem3), crafty_cfg());
    let kv3 = ShardedKv::open(&mem3, &kv_cfg());
    kv3.check_integrity(&mem3)
        .unwrap_or_else(|e| panic!("store failed integrity after second crash: {e}"));
    for &(k, v) in &first_pairs {
        let expect = if k == rewrite_key { rewrite_value } else { v };
        assert_eq!(
            kv3.get_direct(&mem3, k),
            Some(expect),
            "first-life key {k} lost or stale after the second crash"
        );
    }
    for &(k, v) in &second_pairs {
        assert_eq!(
            kv3.get_direct(&mem3, k),
            Some(v),
            "second-life committed key {k} lost in the second crash"
        );
    }
    for &k in tail1.iter().chain(&tail2) {
        let got = kv3.get_direct(&mem3, k);
        let expect1 = k ^ 0xAAAA;
        let expect2 = k ^ 0xBBBB;
        assert!(
            got.is_none() || got == Some(expect1) || got == Some(expect2),
            "unquiesced key {k} tore across a crash: {got:?}"
        );
    }
}

#[test]
fn double_crash_recovers_under_strict_model() {
    double_crash_and_recover(CrashModel::strict(), 1);
}

#[test]
fn double_crash_recovers_under_relaxed_model() {
    for seed in 0..3 {
        double_crash_and_recover(CrashModel::relaxed(seed + 70), seed + 30);
    }
}

#[test]
fn double_crash_recovers_under_adversarial_model() {
    for seed in 0..3 {
        double_crash_and_recover(CrashModel::adversarial(seed + 80), seed + 40);
    }
}
