//! End-to-end tests of the networked KV service front-end: protocol round
//! trips over a real loopback socket, pipelined batches, and — the
//! durability contract the server exists to honour — killing the machine
//! mid-load and verifying that every write the server *acknowledged*
//! survives recovery, under the strict and the adversarial crash models.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crafty_repro::prelude::*;

const WORKERS: usize = 2;

fn pmem_cfg(model: CrashModel) -> PmemConfig {
    PmemConfig {
        persistent_words: 1 << 18,
        volatile_words: 1 << 14,
        max_threads: WORKERS + 2,
        latency: LatencyModel::instant(),
        // The model governs the whole run (spontaneous evictions, for the
        // models that have them), not just the final crash.
        crash: model,
        ..PmemConfig::small_for_tests()
    }
}

fn crafty_cfg() -> CraftyConfig {
    CraftyConfig::small_for_tests().with_max_threads(WORKERS)
}

fn kv_cfg() -> KvConfig {
    KvConfig::small_for_tests()
        .with_shards(2)
        .with_initial_capacity(64)
        .with_arena_words(1 << 15)
}

#[test]
fn round_trips_and_pipelining_over_loopback() {
    let mem = Arc::new(MemorySpace::new(pmem_cfg(CrashModel::strict())));
    let crafty = Crafty::new(Arc::clone(&mem), crafty_cfg());
    let kv = ShardedKv::create(&mem, &kv_cfg());
    let sessions = SessionTable::create(&mem, 16);
    let engine: Arc<dyn PersistentTm> = Arc::new(crafty);
    let server = KvServer::start(
        Arc::clone(&engine),
        kv,
        sessions,
        ServerConfig::loopback(WORKERS, true),
    )
    .expect("server starts");

    let mut client = KvClient::connect(server.local_addr()).expect("connect");

    // Single-request round trips of every opcode.
    assert_eq!(client.put(7, 700).expect("put"), None);
    assert_eq!(client.put(7, 701).expect("put"), Some(700));
    assert_eq!(client.get(7).expect("get"), Some(701));
    assert_eq!(client.get(8).expect("get"), None);
    assert_eq!(client.delete(7).expect("delete"), Some(701));
    assert_eq!(client.get(7).expect("get"), None);
    client.flush().expect("flush");

    // A pipelined batch: 32 puts sent in one burst, responses read in
    // order. Acks arrive only after the batch's durability fence.
    let keys: Vec<u64> = (0..32).map(|i| 1_000 + i).collect();
    let requests: Vec<Request> = keys
        .iter()
        .map(|&k| Request::Put {
            key: k,
            value: k * 3,
        })
        .collect();
    client.send(&requests).expect("pipelined send");
    let responses = client.recv(requests.len()).expect("pipelined recv");
    assert_eq!(responses.len(), 32);
    assert!(
        responses.iter().all(|r| *r == Response::Missing),
        "all pipelined keys were fresh"
    );
    for &k in &keys {
        assert_eq!(client.get(k).expect("get"), Some(k * 3));
    }
    // The key's shard holds entries, so a bounded scan finds at least one.
    let (count, _sum) = client.scan(1_000, 8).expect("scan");
    assert!((1..=8).contains(&count), "scan found {count} entries");

    let stats = server.shutdown();
    assert!(stats.connections >= 1);
    // 6 singles + flush + 32 pipelined + 32 gets + scan.
    assert!(stats.requests >= 72, "served {} requests", stats.requests);
    assert!(stats.batches >= 1 && stats.batches <= stats.requests);
    assert!(stats.flushes >= 1, "write batches must fence");
    assert_eq!(stats.protocol_errors, 0);
    assert!(stats.mean_batch() >= 1.0);
}

/// The durability contract under fire: loader threads stream puts with
/// unique keys through real connections, recording each pair only once its
/// ack has arrived; mid-load we pull the plug (snapshot a crash image with
/// the server still running), recover it, and require every pair acked
/// *before* the snapshot to be present with its exact value. Ack-after-
/// fence makes this sound: the ack is written only after the batch's
/// `persist_fence` pin, so an acked write can never be taken back by
/// recovery's latest-sequence rollback.
fn acked_writes_survive_mid_load_crash(model: CrashModel) {
    const OPS_PER_LOADER: u64 = 250;
    const CRASH_AFTER_ACKS: usize = 100;

    let mem = Arc::new(MemorySpace::new(pmem_cfg(model)));
    let crafty = Crafty::new(Arc::clone(&mem), crafty_cfg());
    let directory = crafty.directory_addr();
    let kv = ShardedKv::create(&mem, &kv_cfg());
    let sessions = SessionTable::create(&mem, 16);
    let engine: Arc<dyn PersistentTm> = Arc::new(crafty);
    let server = KvServer::start(
        Arc::clone(&engine),
        kv,
        sessions,
        ServerConfig::loopback(WORKERS, true),
    )
    .expect("server starts");
    let addr = server.local_addr();

    let acked: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let halt = Arc::new(AtomicBool::new(false));
    let loaders: Vec<_> = (0..WORKERS as u64)
        .map(|c| {
            let acked = Arc::clone(&acked);
            let halt = Arc::clone(&halt);
            std::thread::spawn(move || {
                let mut client = KvClient::connect(addr).expect("loader connects");
                for i in 0..OPS_PER_LOADER {
                    if halt.load(Ordering::Relaxed) {
                        break;
                    }
                    let key = c * 1_000_000 + i;
                    let value = key ^ 0x5AFE_F00D;
                    if client.put(key, value).is_err() {
                        break; // server shut down under us
                    }
                    acked.lock().unwrap().push((key, value));
                }
            })
        })
        .collect();

    // Let real load build up, then photograph the power failure while the
    // server is still serving. Every pair in the snapshot was acked — and
    // therefore fenced — strictly before the image was taken.
    while acked.lock().unwrap().len() < CRASH_AFTER_ACKS {
        std::thread::yield_now();
    }
    let snapshot: Vec<(u64, u64)>;
    let mut image: PersistentImage;
    {
        let guard = acked.lock().unwrap();
        snapshot = guard.clone();
        image = mem.crash_with(model);
    }
    assert!(snapshot.len() >= CRASH_AFTER_ACKS);

    // Wind the first life down (it no longer matters to the verdict).
    halt.store(true, Ordering::Relaxed);
    for l in loaders {
        l.join().expect("loader");
    }
    server.shutdown();

    // Second life: recover the image, reboot, replay the reservation
    // sequence (engine first, store second), and audit.
    recover(&mut image, directory).expect("recovery");
    let rebooted = Arc::new(MemorySpace::boot(&image, pmem_cfg(CrashModel::strict())));
    let crafty2 = Crafty::new(Arc::clone(&rebooted), crafty_cfg());
    let kv2 = ShardedKv::open(&rebooted, &kv_cfg());
    kv2.check_integrity(&rebooted)
        .unwrap_or_else(|e| panic!("recovered store failed integrity: {e}"));
    for &(key, value) in &snapshot {
        assert_eq!(
            kv2.get_direct(&rebooted, key),
            Some(value),
            "acked key {key} lost or corrupted by the crash"
        );
    }

    // The recovered store keeps serving: new writes land next to the
    // survivors.
    let mut thread = crafty2.register_thread(0);
    thread.execute(&mut |ops| kv2.put(ops, 9_999_999, 42).map(|_| ()));
    crafty2.quiesce();
    assert_eq!(kv2.get_direct(&rebooted, 9_999_999), Some(42));
    kv2.check_integrity(&rebooted)
        .unwrap_or_else(|e| panic!("post-recovery store failed integrity: {e}"));
}

#[test]
fn acked_writes_survive_mid_load_crash_strict() {
    acked_writes_survive_mid_load_crash(CrashModel::strict());
}

#[test]
fn acked_writes_survive_mid_load_crash_adversarial() {
    for seed in 0..3 {
        acked_writes_survive_mid_load_crash(CrashModel::adversarial(seed));
    }
}
