//! Functional tests for the sharded KV store: map semantics against a
//! `HashMap` reference model under randomized op sequences (including
//! forced incremental resizes), engine-genericity, concurrency on Crafty,
//! and create/open round trips.

use std::collections::HashMap;
use std::sync::Arc;

use crafty_baselines::NonDurable;
use crafty_common::{PersistentTm, SplitMix64, TmThread};
use crafty_core::{Crafty, CraftyConfig};
use crafty_kv::{DirectOps, KvConfig, ShardedKv, KEY_MAX};
use crafty_pmem::{CrashModel, MemorySpace, PmemConfig};
use proptest::prelude::*;

fn small_space() -> Arc<MemorySpace> {
    Arc::new(MemorySpace::new(PmemConfig::small_for_tests()))
}

#[test]
fn put_get_remove_round_trip_on_nondurable() {
    let mem = small_space();
    let engine = NonDurable::new(Arc::clone(&mem), 1 << 12);
    let kv = ShardedKv::create(&mem, &KvConfig::small_for_tests());
    let mut t = engine.register_thread(0);

    let mut outcome = (None, None, None, None);
    t.execute(&mut |ops| {
        let fresh = kv.put(ops, 1, 10)?;
        let updated = kv.put(ops, 1, 11)?;
        let read = kv.get(ops, 1)?;
        let missing = kv.get(ops, 2)?;
        outcome = (fresh, updated, read, missing);
        Ok(())
    });
    assert_eq!(outcome, (None, Some(10), Some(11), None));

    let mut removed = (None, None);
    t.execute(&mut |ops| {
        removed = (kv.remove(ops, 1)?, kv.remove(ops, 1)?);
        Ok(())
    });
    assert_eq!(removed, (Some(11), None));
    assert!(kv.check_integrity(&mem).is_ok());
}

/// Group commit, spelled out: each update is its own transaction with its
/// durability deferred, and one barrier acknowledges them all.
fn put_batch(kv: &ShardedKv, thread: &mut dyn TmThread, updates: &[(u64, u64)]) {
    for &(key, value) in updates {
        thread.execute_deferred(&mut |ops| kv.put(ops, key, value).map(drop));
    }
    thread.flush_deferred();
}

/// What a power cut right now would leave of `key`: the store as the
/// persisted words alone describe it, with no recovery run.
fn persisted(mem: &MemorySpace, key: u64) -> Option<u64> {
    let image = mem.crash_with(CrashModel::strict());
    let booted = Arc::new(MemorySpace::boot(&image, PmemConfig::small_for_tests()));
    let _engine = Crafty::new(Arc::clone(&booted), CraftyConfig::small_for_tests());
    ShardedKv::open(&booted, &KvConfig::small_for_tests()).get_direct(&booted, key)
}

#[test]
fn apply_batch_group_commits_and_is_durable_after_the_barrier() {
    let mem = small_space();
    let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests());
    let kv = ShardedKv::create(&mem, &KvConfig::small_for_tests());
    let mut t = crafty.register_thread(0);

    let updates: Vec<(u64, u64)> = (0..24).map(|k| (k, k * 100 + 1)).collect();
    for &(key, value) in &updates {
        t.execute_deferred(&mut |ops| kv.put(ops, key, value).map(drop));
    }
    let (last_key, last_value) = updates[23];
    // Committed and visible, but its drain is still owed...
    assert_eq!(kv.get_direct(&mem, last_key), Some(last_value));
    assert_eq!(
        persisted(&mem, last_key),
        None,
        "durable before the barrier"
    );
    // ...and the barrier pays it for the whole batch at once.
    t.flush_deferred();
    for &(key, value) in &updates {
        assert_eq!(kv.get_direct(&mem, key), Some(value));
        assert_eq!(persisted(&mem, key), Some(value), "key {key} not durable");
    }
    let grouped_drains = mem.stats().drains;
    assert!(kv.check_integrity(&mem).is_ok());

    // Re-batching over existing keys updates in place.
    let overwrite: Vec<(u64, u64)> = (0..24).map(|k| (k, k + 7)).collect();
    put_batch(&kv, &mut *t, &overwrite);
    assert_eq!(kv.get_direct(&mem, 3), Some(10));

    // The same updates executed one durable transaction at a time drain
    // once each: the group shared its drains.
    let mem1 = small_space();
    let crafty1 = Crafty::new(Arc::clone(&mem1), CraftyConfig::small_for_tests());
    let kv1 = ShardedKv::create(&mem1, &KvConfig::small_for_tests());
    let mut t1 = crafty1.register_thread(0);
    for &(key, value) in &updates {
        t1.execute(&mut |ops| kv1.put(ops, key, value).map(drop));
    }
    let per_txn_drains = mem1.stats().drains;
    assert!(
        grouped_drains < per_txn_drains,
        "group commit must share drains: {grouped_drains} grouped vs {per_txn_drains} per-txn"
    );

    // A body that panics mid-group unwinds out and leaves the handle
    // working.
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        t.execute_deferred(&mut |_| panic!("boom mid-batch"))
    }));
    assert!(caught.is_err(), "the body's panic must unwind out");
    t.execute(&mut |ops| kv.put(ops, 99, 9).map(drop));
    crafty.quiesce();
    assert_eq!(persisted(&mem, 99), Some(9));

    // The two calls degrade gracefully on engines without a deferral path.
    let mem2 = small_space();
    let nd = NonDurable::new(Arc::clone(&mem2), 1 << 12);
    let kv2 = ShardedKv::create(&mem2, &KvConfig::small_for_tests());
    let mut t2 = nd.register_thread(0);
    put_batch(&kv2, &mut *t2, &updates);
    assert_eq!(kv2.get_direct(&mem2, 5), Some(501));
}

#[test]
fn grows_through_incremental_resizes() {
    let mem = small_space();
    let engine = NonDurable::new(Arc::clone(&mem), 1 << 12);
    // One shard so every insert lands in the same table and growth is
    // forced repeatedly.
    let cfg = KvConfig::small_for_tests().with_shards(1);
    let kv = ShardedKv::create(&mem, &cfg);
    let mut t = engine.register_thread(0);
    let n = 500u64;
    for key in 0..n {
        t.execute(&mut |ops| kv.put(ops, key, key * 3).map(|_| ()));
    }
    let stats = kv.stats(&mem);
    assert!(stats.capacity > 8, "one shard must have grown: {stats:?}");
    assert_eq!(stats.len, n);
    let mut all = None;
    t.execute(&mut |ops| {
        let mut good = 0;
        for key in 0..n {
            if kv.get(ops, key)? == Some(key * 3) {
                good += 1;
            }
        }
        all = Some(good);
        Ok(())
    });
    assert_eq!(all, Some(n), "every key must survive the resizes");
    assert!(kv.check_integrity(&mem).is_ok());
}

#[test]
fn reads_work_mid_resize() {
    let mem = small_space();
    let engine = NonDurable::new(Arc::clone(&mem), 1 << 12);
    let cfg = KvConfig::small_for_tests().with_shards(1);
    let kv = ShardedKv::create(&mem, &cfg);
    let mut t = engine.register_thread(0);
    // Fill to just past the resize trigger, then stop mutating: the shard
    // stays mid-resize (migration only advances on mutations).
    let mut inserted = 0u64;
    while !kv.resize_in_flight(&mem) {
        let key = inserted;
        t.execute(&mut |ops| kv.put(ops, key, key + 100).map(|_| ()));
        inserted += 1;
    }
    assert!(kv.resize_in_flight(&mem));
    let mut hits = 0;
    t.execute(&mut |ops| {
        hits = 0;
        for key in 0..inserted {
            if kv.get(ops, key)? == Some(key + 100) {
                hits += 1;
            }
        }
        Ok(())
    });
    assert_eq!(
        hits, inserted,
        "every key readable while split across tables"
    );
    assert!(
        kv.check_integrity(&mem).is_ok(),
        "{:?}",
        kv.check_integrity(&mem)
    );

    // Updates and removals of keys on both sides of the migration cursor
    // must behave like a map.
    for key in 0..inserted {
        let mut old = None;
        t.execute(&mut |ops| {
            old = kv.put(ops, key, key + 200)?;
            Ok(())
        });
        assert_eq!(old, Some(key + 100), "key {key}");
    }
    assert!(kv.check_integrity(&mem).is_ok());
}

#[test]
fn scan_sees_live_entries_and_skips_dead() {
    let mem = small_space();
    let engine = NonDurable::new(Arc::clone(&mem), 1 << 12);
    let cfg = KvConfig::small_for_tests().with_shards(1);
    let kv = ShardedKv::create(&mem, &cfg);
    let mut t = engine.register_thread(0);
    for key in 0..6u64 {
        t.execute(&mut |ops| kv.put(ops, key, key).map(|_| ()));
    }
    t.execute(&mut |ops| kv.remove(ops, 3).map(|_| ()));
    let mut result = (0, 0);
    t.execute(&mut |ops| {
        result = kv.scan(ops, 0, 100)?;
        Ok(())
    });
    assert_eq!(result.0, 5, "scan must count exactly the live entries");
    let mut bounded = (0, 0);
    t.execute(&mut |ops| {
        bounded = kv.scan(ops, 0, 2)?;
        Ok(())
    });
    assert_eq!(bounded.0, 2, "scan must honour its limit");
}

#[test]
fn open_attaches_to_existing_store() {
    let cfg = KvConfig::small_for_tests();
    let pmem_cfg = PmemConfig::small_for_tests();
    let mem = Arc::new(MemorySpace::new(pmem_cfg));
    let engine = NonDurable::new(Arc::clone(&mem), 1 << 12);
    let kv = ShardedKv::create(&mem, &cfg);
    let mut t = engine.register_thread(0);
    for key in 0..50u64 {
        t.execute(&mut |ops| kv.put(ops, key, !key).map(|_| ()));
    }
    kv.persist_all(&mem, 0);

    // Reboot from the persistent image and replay the layout.
    let image = mem.crash();
    let rebooted = Arc::new(MemorySpace::boot(&image, pmem_cfg));
    let _engine2 = NonDurable::new(Arc::clone(&rebooted), 1 << 12);
    let kv2 = ShardedKv::open(&rebooted, &cfg);
    for key in 0..50u64 {
        assert_eq!(kv2.get_direct(&rebooted, key), Some(!key));
    }
    assert!(kv2.check_integrity(&rebooted).is_ok());
}

#[test]
#[should_panic(expected = "no store found")]
fn open_rejects_uninitialized_space() {
    let mem = small_space();
    let _ = ShardedKv::open(&mem, &KvConfig::small_for_tests());
}

#[test]
#[should_panic(expected = "different arena size")]
fn open_rejects_mismatched_arena_geometry() {
    let cfg = KvConfig::small_for_tests();
    let pmem_cfg = PmemConfig::small_for_tests();
    let mem = Arc::new(MemorySpace::new(pmem_cfg));
    let kv = ShardedKv::create(&mem, &cfg);
    kv.persist_all(&mem, 0);
    let image = mem.crash();
    let rebooted = MemorySpace::boot(&image, pmem_cfg);
    // Replaying with a smaller arena would desynchronize the recorded
    // arena extent from the reservation layout; open must refuse.
    let _ = ShardedKv::open(&rebooted, &cfg.with_arena_words(cfg.arena_words / 2));
}

#[test]
fn key_max_is_storable_and_beyond_panics() {
    let mem = small_space();
    let kv = ShardedKv::create(&mem, &KvConfig::small_for_tests());
    let mut ops = DirectOps::new(&mem);
    kv.put(&mut ops, KEY_MAX, 5).unwrap();
    assert_eq!(kv.get(&mut ops, KEY_MAX).unwrap(), Some(5));
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut ops = DirectOps::new(&mem);
        let _ = kv.put(&mut ops, KEY_MAX + 1, 5);
    }));
    assert!(caught.is_err(), "keys beyond KEY_MAX must be rejected");
}

#[test]
fn concurrent_crafty_threads_keep_map_semantics() {
    let mem = Arc::new(MemorySpace::new(
        PmemConfig::small_for_tests().with_max_threads(6),
    ));
    let engine = Arc::new(Crafty::new(
        Arc::clone(&mem),
        CraftyConfig::small_for_tests().with_max_threads(4),
    ));
    let kv = ShardedKv::create(&mem, &KvConfig::small_for_tests().with_shards(8));
    let threads = 4usize;
    let per_thread = 300u64;
    std::thread::scope(|s| {
        for tid in 0..threads {
            let engine = Arc::clone(&engine);
            s.spawn(move || {
                let mut t = engine.register_thread(tid);
                // Disjoint key ranges: every thread owns keys
                // tid*10_000 .. tid*10_000+per_thread.
                for i in 0..per_thread {
                    let key = tid as u64 * 10_000 + i;
                    t.execute(&mut |ops| kv.put(ops, key, key ^ 0xFACE).map(|_| ()));
                }
            });
        }
    });
    engine.quiesce();
    let stats = kv.stats(&mem);
    assert_eq!(stats.len, threads as u64 * per_thread);
    for tid in 0..threads as u64 {
        for i in 0..per_thread {
            let key = tid * 10_000 + i;
            assert_eq!(kv.get_direct(&mem, key), Some(key ^ 0xFACE), "key {key}");
        }
    }
    assert!(
        kv.check_integrity(&mem).is_ok(),
        "{:?}",
        kv.check_integrity(&mem)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary op sequences agree with a `HashMap` reference model, with
    /// tiny tables so resizes interleave everything.
    #[test]
    fn agrees_with_hashmap_reference(seed: u64, ops_count in 1usize..600) {
        let mem = small_space();
        let engine = NonDurable::new(Arc::clone(&mem), 1 << 12);
        let kv = ShardedKv::create(&mem, &KvConfig::small_for_tests().with_shards(2));
        let mut t = engine.register_thread(0);
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut rng = SplitMix64::new(seed);
        for step in 0..ops_count {
            let key = rng.next_below(97); // small domain: collisions + reuse
            let value = rng.next_u64();
            match rng.next_below(10) {
                0..=4 => {
                    let mut got = None;
                    t.execute(&mut |ops| { got = kv.put(ops, key, value)?; Ok(()) });
                    prop_assert_eq!(got, reference.insert(key, value), "step {}", step);
                }
                5..=6 => {
                    let mut got = None;
                    t.execute(&mut |ops| { got = kv.remove(ops, key)?; Ok(()) });
                    prop_assert_eq!(got, reference.remove(&key), "step {}", step);
                }
                _ => {
                    let mut got = None;
                    t.execute(&mut |ops| { got = kv.get(ops, key)?; Ok(()) });
                    prop_assert_eq!(got, reference.get(&key).copied(), "step {}", step);
                }
            }
        }
        let mut len = 0;
        t.execute(&mut |ops| { len = kv.len(ops)?; Ok(()) });
        prop_assert_eq!(len as usize, reference.len());
        prop_assert!(kv.check_integrity(&mem).is_ok(),
            "integrity: {:?}", kv.check_integrity(&mem));
        let mut pairs = kv.collect_pairs(&mem);
        pairs.sort_unstable();
        let mut expected: Vec<(u64, u64)> = reference.into_iter().collect();
        expected.sort_unstable();
        prop_assert_eq!(pairs, expected);
    }
}
