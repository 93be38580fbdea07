//! Functional tests for the sharded KV store: map semantics against a
//! `HashMap` reference model under randomized op sequences (including
//! forced incremental resizes), engine-genericity, concurrency on Crafty,
//! and create/open round trips.

use std::collections::HashMap;
use std::sync::Arc;

use crafty_baselines::NonDurable;
use crafty_common::{
    mix64, CompletionPath, PAddr, PersistentTm, SplitMix64, TmThread, TxAbort, TxnOps,
    WORDS_PER_LINE,
};
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

/// Group commit, spelled out: each update is its own transaction, and one
/// fence pins them all before any is acknowledged.
fn put_batch(
    engine: &dyn PersistentTm,
    kv: &ShardedKv,
    thread: &mut dyn TmThread,
    updates: &[(u64, u64)],
) {
    for &(key, value) in updates {
        thread.execute(&mut |ops| kv.put(ops, key, value).map(drop));
    }
    engine.persist_fence(0);
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
fn batch_is_not_persisted_before_persist_fence_and_is_after() {
    let mem = small_space();
    let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests());
    let kv = ShardedKv::create(&mem, &KvConfig::small_for_tests());
    let mut t = crafty.register_thread(0);

    let updates: Vec<(u64, u64)> = (0..24).map(|k| (k, k * 100 + 1)).collect();
    for &(key, value) in &updates {
        t.execute(&mut |ops| kv.put(ops, key, value).map(drop));
    }
    let (last_key, last_value) = updates[23];
    // Committed and visible, but its write-backs are still owed...
    assert_eq!(kv.get_direct(&mem, last_key), Some(last_value));
    assert_eq!(persisted(&mem, last_key), None, "durable before the fence");
    // ...and the fence pins the whole batch at once.
    crafty.persist_fence(0);
    for &(key, value) in &updates {
        assert_eq!(kv.get_direct(&mem, key), Some(value));
        assert_eq!(persisted(&mem, key), Some(value), "key {key} not durable");
    }
    assert!(kv.check_integrity(&mem).is_ok());

    // Re-batching over existing keys updates in place.
    let overwrite: Vec<(u64, u64)> = (0..24).map(|k| (k, k + 7)).collect();
    put_batch(&crafty, &kv, &mut *t, &overwrite);
    assert_eq!(kv.get_direct(&mem, 3), Some(10));
    assert_eq!(persisted(&mem, 3), Some(10));

    // The same batch on an engine whose fence has nothing to pin.
    let mem2 = small_space();
    let nd = NonDurable::new(Arc::clone(&mem2), 1 << 12);
    let kv2 = ShardedKv::create(&mem2, &KvConfig::small_for_tests());
    let mut t2 = nd.register_thread(0);
    put_batch(&nd, &kv2, &mut *t2, &updates);
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

/// A store several times the flush ring persists through queued,
/// coalesced drains — no CLWB meets a full ring and writes back
/// synchronously — and the crash image taken right after holds every word.
#[test]
fn persist_all_of_a_table_larger_than_the_flush_ring_never_overflows() {
    let mem = small_space();
    let cfg = KvConfig::small_for_tests()
        .with_initial_capacity(2048)
        .with_arena_words(1 << 15);
    let kv = ShardedKv::create(&mem, &cfg);
    let mut ops = DirectOps::new(&mem);
    for key in 0..2000u64 {
        kv.put(&mut ops, key, !key).unwrap();
    }
    let ring = mem.config().flush_queue_capacity as u64;
    assert!(kv.stats(&mem).arena_used > ring * WORDS_PER_LINE);

    let before = mem.stats();
    kv.persist_all(&mem, 0);
    let persisted = mem.stats().since(&before);
    assert!(persisted.flushes > ring, "{persisted:?}");
    assert_eq!(persisted.overflow_writebacks, 0, "{persisted:?}");

    let image = mem.crash();
    for w in 0..mem.persistent_words() {
        assert_eq!(
            image.read(PAddr::new(w)),
            mem.read(PAddr::new(w)),
            "word {w}"
        );
    }
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

/// A put and a get of the same key in one Crafty transaction: the get's
/// line reads meet the words the put wrote (an updated value, a fresh
/// pair, a raised counter) and must return them from the write buffer.
#[test]
fn a_get_after_a_put_in_one_crafty_transaction_reads_the_new_value() {
    let mem = small_space();
    let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests());
    let kv = ShardedKv::create(&mem, &KvConfig::small_for_tests());
    let mut t = crafty.register_thread(0);
    t.execute(&mut |ops| kv.put(ops, 1, 10).map(drop));
    let mut seen = (None, None, None);
    t.execute(&mut |ops| {
        kv.put(ops, 1, 11)?;
        kv.put(ops, 2, 20)?;
        seen = (kv.get(ops, 1)?, kv.get(ops, 2)?, kv.get(ops, 3)?);
        Ok(())
    });
    assert_eq!(seen, (Some(11), Some(20), None));
    let breakdown = crafty.breakdown();
    assert_eq!(
        breakdown.completions(CompletionPath::Redo),
        2,
        "both committed in hardware: {breakdown:?}"
    );
    assert_eq!(kv.get_direct(&mem, 1), Some(11));
    assert_eq!(kv.get_direct(&mem, 2), Some(20));
}

/// Gets, puts and scans under Crafty, checked against a model at every
/// step while one shard migrates to its new table.
#[test]
fn get_put_and_scan_agree_with_a_model_while_a_resize_is_in_flight() {
    let mem = small_space();
    let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests());
    // One 64-slot shard: a migration spans eight mutations.
    let cfg = KvConfig::small_for_tests()
        .with_shards(1)
        .with_initial_capacity(64);
    let kv = ShardedKv::create(&mem, &cfg);
    let mut t = crafty.register_thread(0);
    let mut model: HashMap<u64, u64> = HashMap::new();
    let mut key = 0;
    while !kv.resize_in_flight(&mem) {
        t.execute(&mut |ops| kv.put(ops, key, key).map(drop));
        model.insert(key, key);
        key += 1;
    }
    let mut rng = SplitMix64::new(5);
    let mut mid_resize = 0;
    while kv.resize_in_flight(&mem) {
        mid_resize += 1;
        let key = rng.next_below(2 * key);
        match rng.next_below(3) {
            0 => {
                let value = rng.next_u64();
                let mut old = None;
                t.execute(&mut |ops| {
                    old = kv.put(ops, key, value)?;
                    Ok(())
                });
                assert_eq!(old, model.insert(key, value), "put {key}");
            }
            1 => {
                let mut got = None;
                t.execute(&mut |ops| {
                    got = kv.get(ops, key)?;
                    Ok(())
                });
                assert_eq!(got, model.get(&key).copied(), "get {key}");
            }
            _ => {
                let mut scanned = (0, 0);
                t.execute(&mut |ops| {
                    scanned = kv.scan(ops, key, u64::MAX)?;
                    Ok(())
                });
                let checksum = model.iter().fold(0u64, |sum, (&k, &v)| {
                    sum.wrapping_add(mix64(k).wrapping_add(v))
                });
                assert_eq!(scanned, (model.len() as u64, checksum), "scan");
            }
        }
    }
    assert!(mid_resize >= 8, "{mid_resize} operations met the resize");
    let mut pairs = kv.collect_pairs(&mem);
    pairs.sort_unstable();
    let mut expected: Vec<(u64, u64)> = model.into_iter().collect();
    expected.sort_unstable();
    assert_eq!(pairs, expected);
    assert!(kv.check_integrity(&mem).is_ok());
}

/// Direct reads that remember every address read, one word at a time.
struct Recording<'a> {
    mem: &'a MemorySpace,
    reads: Vec<PAddr>,
}

impl TxnOps for Recording<'_> {
    fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
        self.reads.push(addr);
        Ok(self.mem.read(addr))
    }
    fn write(&mut self, _: PAddr, _: u64) -> Result<(), TxAbort> {
        unreachable!("a get writes nothing")
    }
    fn alloc(&mut self, _: u64) -> Result<PAddr, TxAbort> {
        unreachable!("a get allocates nothing")
    }
    fn dealloc(&mut self, _: PAddr, _: u64) -> Result<(), TxAbort> {
        unreachable!("a get frees nothing")
    }
}

/// A get of a present key reads the key's value word last, in either live
/// table: tools locate a key's value word that way (through the default,
/// word-by-word `read_words`) to corrupt it in a crash image.
#[test]
fn a_get_of_a_present_key_reads_its_value_word_last() {
    let mem = small_space();
    let cfg = KvConfig::small_for_tests()
        .with_shards(1)
        .with_initial_capacity(64);
    let kv = ShardedKv::create(&mem, &cfg);
    let mut ops = DirectOps::new(&mem);
    let mut keys = 0;
    // Past the resize trigger, and one put more: it migrates a batch, so
    // the keys live in both tables.
    while !kv.resize_in_flight(&mem) {
        kv.put(&mut ops, keys, 1000 + keys).unwrap();
        keys += 1;
    }
    kv.put(&mut ops, keys, 1000 + keys).unwrap();
    keys += 1;
    assert!(kv.resize_in_flight(&mem));
    for key in 0..keys {
        let mut rec = Recording {
            mem: &mem,
            reads: Vec::new(),
        };
        assert_eq!(kv.get(&mut rec, key).unwrap(), Some(1000 + key));
        let last = *rec.reads.last().expect("a get reads");
        assert_eq!(mem.read(last), 1000 + key, "key {key}");
        mem.write(last, 7);
        assert_eq!(kv.get_direct(&mem, key), Some(7), "key {key}");
        mem.write(last, 1000 + key);
    }
}

/// Direct access that counts its `TxnOps` calls by kind: `[read,
/// read_words, write]`.
struct Counting<'a> {
    direct: DirectOps<'a>,
    calls: [u32; 3],
}

impl TxnOps for Counting<'_> {
    fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
        self.calls[0] += 1;
        self.direct.read(addr)
    }
    fn read_words(&mut self, addr: PAddr, out: &mut [u64]) -> Result<(), TxAbort> {
        self.calls[1] += 1;
        self.direct.read_words(addr, out)
    }
    fn write(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
        self.calls[2] += 1;
        self.direct.write(addr, value)
    }
    fn alloc(&mut self, _: u64) -> Result<PAddr, TxAbort> {
        unreachable!("a put that starts no resize allocates nothing")
    }
    fn dealloc(&mut self, _: PAddr, _: u64) -> Result<(), TxAbort> {
        unreachable!("a put frees nothing")
    }
}

/// An insert reads the free slot's tag once, in the probe, and the
/// header's capacity, length and tombstone count with one call. A
/// fresh-key put: the live tables, the home slot (empty), the length, and
/// the resize check's header words; the tag, the value and the length
/// written. Reusing a tombstone adds the next slot (empty, ending the
/// probe) and the tombstone count, read and written back.
#[test]
fn an_insert_reads_the_free_slot_and_the_header_counts_once() {
    let mem = small_space();
    let cfg = KvConfig::small_for_tests()
        .with_shards(1)
        .with_initial_capacity(1 << 10);
    let kv = ShardedKv::create(&mem, &cfg);
    let put = |key: u64| {
        let mut ops = Counting {
            direct: DirectOps::new(&mem),
            calls: [0; 3],
        };
        assert_eq!(kv.put(&mut ops, key, key + 1).unwrap(), None);
        ops.calls
    };
    assert_eq!(put(7), [1, 3, 3], "fresh key into an empty home slot");
    assert_eq!(kv.remove(&mut DirectOps::new(&mem), 7).unwrap(), Some(8));
    assert_eq!(kv.stats(&mem).tombstones, 1);
    assert_eq!(put(7), [2, 4, 4], "fresh key into its home's tombstone");
    assert_eq!(kv.stats(&mem).tombstones, 0);
    assert_eq!(kv.get_direct(&mem, 7), Some(8));
    assert!(kv.check_integrity(&mem).is_ok());
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
