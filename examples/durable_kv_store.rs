//! A durable key-value service end to end on `crafty-kv`: concurrent
//! clients load a sharded, persistently resizable store through Crafty
//! transactions, the power fails mid-flight under an adversarial
//! persistence model, recovery rolls back incomplete work, and the store
//! reopens on the rebooted memory with every committed pair intact — then
//! keeps serving.
//!
//! ```text
//! cargo run --release --example durable_kv_store
//! ```

use std::sync::Arc;

use crafty_repro::prelude::*;

fn main() {
    let pmem_cfg = PmemConfig::benchmark().with_crash(CrashModel::adversarial(0x5EED));
    // Five thread slots: four loader clients plus one for the unquiesced
    // pre-crash traffic (each tid registers at most once per run).
    let crafty_cfg = CraftyConfig::benchmark(5);
    // Sized for the ~20k keys the clients load: initial tables start at
    // half the need, so the load phase drives every shard through at least
    // one full incremental rehash.
    let kv_cfg = KvConfig::benchmark(20_000, 16);

    let mem = Arc::new(MemorySpace::new(pmem_cfg));
    let crafty = Crafty::new(Arc::clone(&mem), crafty_cfg);
    let kv = ShardedKv::create(&mem, &kv_cfg);

    // Four "client" threads insert disjoint key ranges; the store grows
    // through incremental, crash-consistent rehashes while they run.
    let per_client = 5_000u64;
    std::thread::scope(|s| {
        for tid in 0..4usize {
            let crafty = &crafty;
            let kv = &kv;
            s.spawn(move || {
                let mut thread = crafty.register_thread(tid);
                for i in 0..per_client {
                    let key = (tid as u64) << 32 | i;
                    thread.execute(&mut |ops| kv.put(ops, key, key ^ 0xABCD).map(|_| ()));
                }
            });
        }
    });
    crafty.quiesce();

    let stats = kv.stats(&mem);
    let b = crafty.breakdown();
    println!(
        "loaded {} keys across {} shards ({} words of table arena used, \
         {} transactions, {:.1} persistent writes each)",
        stats.len,
        kv.shard_count(),
        stats.arena_used,
        b.total_persistent(),
        b.writes_per_txn()
    );

    // A little more unquiesced traffic, then the power fails.
    {
        let mut thread = crafty.register_thread(4);
        for i in 0..500u64 {
            let key = (9u64 << 32) | i;
            thread.execute(&mut |ops| kv.put(ops, key, key).map(|_| ()));
        }
    }
    println!("crash! resolving dirty lines per the adversarial crash model...");
    let mut image = mem.crash();
    let report =
        crafty_repro::core::recover(&mut image, crafty.directory_addr()).expect("recovery");
    println!(
        "recovery scanned {} logs, rolled back {} sequences ({} entries)",
        report.threads_scanned, report.sequences_rolled_back, report.entries_rolled_back
    );

    // Reboot: replay the constructors, reattach to the store, verify.
    let rebooted = Arc::new(MemorySpace::boot(&image, pmem_cfg));
    let crafty2 = Crafty::new(Arc::clone(&rebooted), crafty_cfg);
    let kv2 = ShardedKv::open(&rebooted, &kv_cfg);
    kv2.check_integrity(&rebooted)
        .unwrap_or_else(|e| panic!("recovered store is inconsistent: {e}"));
    for tid in 0..4u64 {
        for i in 0..per_client {
            let key = tid << 32 | i;
            assert_eq!(
                kv2.get_direct(&rebooted, key),
                Some(key ^ 0xABCD),
                "committed key {key} lost"
            );
        }
    }
    println!(
        "recovered store verified: {} keys intact, integrity clean",
        kv2.stats(&rebooted).len
    );

    // And it still serves: read-modify-write traffic on the rebooted store.
    let mut thread = crafty2.register_thread(0);
    let mut observed = None;
    thread.execute(&mut |ops| {
        let key = 7u64;
        let old = kv2.put(ops, key, 777)?;
        observed = Some((old, kv2.get(ops, key)?));
        Ok(())
    });
    crafty2.quiesce();
    println!("post-recovery transaction committed: {observed:?}");
}
