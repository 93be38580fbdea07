//! Crash consistency of the sharded KV store, including mid-resize: drive
//! the store with Crafty until a shard's incremental rehash is in flight,
//! crash under strict and relaxed (word-lossy) persistence models, run the
//! recovery observer, reboot, reattach — every committed key/value pair
//! must survive exactly, no aborted or post-quiesce partial write may be
//! visible, and the half-migrated shard must finish its resize and keep
//! serving.

use std::collections::HashMap;
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
    // Small initial tables so inserts reach a resize within a few dozen
    // transactions, but larger than one migration batch so the rehash
    // stays in flight across several mutations (the crash lands with
    // entries genuinely split across the old and new tables); the arena
    // has room for the full doubling schedule.
    KvConfig::small_for_tests()
        .with_shards(SHARDS)
        .with_initial_capacity(32)
        .with_arena_words(1 << 13)
}

/// Runs the scenario under one crash model and checks every guarantee.
/// `seed` varies the key stream and the crash model's word lottery.
fn crash_mid_rehash_and_recover(model: CrashModel, seed: u64) {
    // --- First life: load the store until a rehash is mid-flight. -------
    let mem = Arc::new(MemorySpace::new(pmem_cfg(model)));
    let crafty = Crafty::new(Arc::clone(&mem), crafty_cfg());
    let kv = ShardedKv::create(&mem, &kv_cfg());
    let mut committed: HashMap<u64, u64> = HashMap::new();
    let mut thread = crafty.register_thread(0);
    let mut key_stream = crafty_repro::common::SplitMix64::new(seed);

    // Insert until some shard has a resize in flight, then a few more so
    // the migration cursor sits strictly inside the old table.
    let mut after_resize_started = 0;
    while after_resize_started < 3 {
        let key = key_stream.next_below(1 << 20);
        let value = key ^ 0xC0FFEE ^ seed;
        thread.execute(&mut |ops| kv.put(ops, key, value).map(|_| ()));
        committed.insert(key, value);
        if kv.resize_in_flight(&mem) {
            after_resize_started += 1;
        }
        assert!(
            committed.len() < 10_000,
            "store never started a resize; sizing bug in the test"
        );
    }
    assert!(kv.resize_in_flight(&mem), "must crash mid-rehash");

    // Everything committed so far must survive: quiesce pins it (Crafty's
    // durability guarantee is prefix-consistency for unquiesced work).
    crafty.quiesce();

    // Post-quiesce, pre-crash turbulence: updates of existing keys and
    // brand-new inserts that are *not* quiesced. Each may survive the crash
    // atomically or be rolled back — but nothing in between.
    let update_key = *committed.keys().next().expect("store is loaded");
    let old_update_value = committed[&update_key];
    let new_update_value = old_update_value ^ 0xDEAD_BEEF;
    thread.execute(&mut |ops| kv.put(ops, update_key, new_update_value).map(|_| ()));
    let fresh_keys: Vec<u64> = (0..4).map(|i| (1 << 21) + seed * 131 + i).collect();
    for &k in &fresh_keys {
        thread.execute(&mut |ops| kv.put(ops, k, k ^ 0xF00D).map(|_| ()));
    }

    // --- Power failure. -------------------------------------------------
    let mut image = mem.crash_with(model);
    recover(&mut image, crafty.directory_addr()).expect("recovery");

    // --- Second life: reboot, replay constructors, reattach. ------------
    // The second life runs under the strict model: the crash already
    // happened; what matters now is exact behaviour on the recovered data.
    let rebooted = Arc::new(MemorySpace::boot(&image, pmem_cfg(CrashModel::strict())));
    let crafty2 = Crafty::new(Arc::clone(&rebooted), crafty_cfg());
    let kv2 = ShardedKv::open(&rebooted, &kv_cfg());

    kv2.check_integrity(&rebooted)
        .unwrap_or_else(|e| panic!("recovered store failed integrity: {e}"));

    // Every committed (quiesced) pair survives with its exact value...
    for (&key, &value) in &committed {
        if key == update_key {
            continue; // checked separately below
        }
        assert_eq!(
            kv2.get_direct(&rebooted, key),
            Some(value),
            "committed key {key} lost or corrupted"
        );
    }
    // ...the unquiesced update is all-or-nothing...
    let recovered_update = kv2.get_direct(&rebooted, update_key);
    assert!(
        recovered_update == Some(old_update_value) || recovered_update == Some(new_update_value),
        "update was torn: {recovered_update:?}"
    );
    // ...and unquiesced inserts are present-with-correct-value or absent.
    for &k in &fresh_keys {
        let got = kv2.get_direct(&rebooted, k);
        assert!(
            got.is_none() || got == Some(k ^ 0xF00D),
            "partial insert visible for key {k}: {got:?}"
        );
    }
    // No phantom keys: everything live in the store was committed by us.
    for (key, _) in kv2.collect_pairs(&rebooted) {
        assert!(
            committed.contains_key(&key) || fresh_keys.contains(&key),
            "aborted or phantom key {key} is visible after recovery"
        );
    }

    // --- Third life: the half-migrated shard keeps serving and finishes
    // its rehash under new transactions.
    let mut thread2 = crafty2.register_thread(0);
    let mut extra = 0u64;
    while kv2.resize_in_flight(&rebooted) {
        let key = (1 << 22) + extra;
        thread2.execute(&mut |ops| kv2.put(ops, key, key + 7).map(|_| ()));
        extra += 1;
        assert!(extra < 10_000, "post-recovery rehash never completed");
    }
    crafty2.quiesce();
    kv2.check_integrity(&rebooted)
        .unwrap_or_else(|e| panic!("post-recovery store failed integrity: {e}"));
    for (&key, &value) in &committed {
        if key == update_key {
            continue;
        }
        assert_eq!(
            kv2.get_direct(&rebooted, key),
            Some(value),
            "key {key} lost while finishing the recovered rehash"
        );
    }
    for i in 0..extra {
        let key = (1 << 22) + i;
        assert_eq!(kv2.get_direct(&rebooted, key), Some(key + 7));
    }
}

/// Group commit's crash contract, as the server runs it: a batch of
/// transactions closed by one `persist_fence` survives a crash in full;
/// transactions after it, with no fence, may be lost, but each one
/// atomically — every recovered value is either the pre-batch or the
/// post-batch value, never torn, and the store stays structurally intact.
fn group_commit_batch_crash(model: CrashModel, seed: u64) {
    let mem = Arc::new(MemorySpace::new(pmem_cfg(model)));
    let crafty = Crafty::new(Arc::clone(&mem), crafty_cfg());
    let kv = ShardedKv::create(&mem, &kv_cfg());
    let mut thread = crafty.register_thread(0);

    // Acked batch: the fence pins the thread's latest sequence so
    // recovery cannot roll the batch's tail back.
    let acked: Vec<(u64, u64)> = (0..32).map(|i| (seed * 977 + i, i * 3 + 1)).collect();
    for &(k, v) in &acked {
        thread.execute(&mut |ops| kv.put(ops, k, v).map(|_| ()));
    }
    crafty.persist_fence(0);

    // Unacked trailing puts, no fence — overwrite half the acked keys and
    // add fresh ones, then pull the plug.
    let overwritten: Vec<(u64, u64)> = acked.iter().take(16).map(|&(k, v)| (k, v + 500)).collect();
    let fresh: Vec<(u64, u64)> = (0..8).map(|i| ((1 << 23) + seed * 31 + i, i + 9)).collect();
    for &(k, v) in overwritten.iter().chain(&fresh) {
        thread.execute(&mut |ops| kv.put(ops, k, v).map(|_| ()));
    }
    let mut image = mem.crash_with(model);
    recover(&mut image, crafty.directory_addr()).expect("recovery");

    let rebooted = Arc::new(MemorySpace::boot(&image, pmem_cfg(CrashModel::strict())));
    // Replay the reservation sequence of the first life (engine first,
    // store second) so the store attaches at the same addresses.
    let _crafty2 = Crafty::new(Arc::clone(&rebooted), crafty_cfg());
    let kv2 = ShardedKv::open(&rebooted, &kv_cfg());
    kv2.check_integrity(&rebooted)
        .unwrap_or_else(|e| panic!("recovered store failed integrity: {e}"));

    // The acked batch survives in full; keys the unacked batch overwrote
    // hold exactly one of the two committed values.
    let overwritten_keys: Vec<u64> = overwritten.iter().map(|&(k, _)| k).collect();
    for &(k, v) in &acked {
        let got = kv2.get_direct(&rebooted, k);
        if overwritten_keys.contains(&k) {
            assert!(
                got == Some(v) || got == Some(v + 500),
                "unacked overwrite of key {k} tore: {got:?}"
            );
        } else {
            assert_eq!(got, Some(v), "acked key {k} lost or corrupted");
        }
    }
    // Unacked fresh inserts: present with the exact value, or absent.
    for &(k, v) in &fresh {
        let got = kv2.get_direct(&rebooted, k);
        assert!(
            got.is_none() || got == Some(v),
            "partial unacked insert visible for key {k}: {got:?}"
        );
    }
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
    let mut image = mem.crash_with(model);
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
    let mut image2 = mem2.crash_with(model);
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

#[test]
fn group_commit_batches_recover_under_every_model() {
    group_commit_batch_crash(CrashModel::strict(), 1);
    for seed in 0..3 {
        group_commit_batch_crash(CrashModel::relaxed(seed + 40), seed + 2);
        group_commit_batch_crash(CrashModel::adversarial(seed + 50), seed + 5);
    }
}

#[test]
fn mid_rehash_crash_recovers_under_strict_model() {
    crash_mid_rehash_and_recover(CrashModel::strict(), 1);
}

#[test]
fn mid_rehash_crash_recovers_under_relaxed_model() {
    for seed in 0..4 {
        crash_mid_rehash_and_recover(CrashModel::relaxed(seed), seed + 10);
    }
}

#[test]
fn mid_rehash_crash_recovers_under_adversarial_model() {
    // Harsher than the issue asks: spontaneous evictions during the run
    // plus the word lottery at the crash.
    for seed in 0..2 {
        crash_mid_rehash_and_recover(CrashModel::adversarial(seed), seed + 20);
    }
}
