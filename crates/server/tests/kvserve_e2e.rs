//! End-to-end service test: boot a real Crafty engine behind the TCP
//! front-end, load it over the wire, and read the live metrics back
//! through the protocol's `Stats` request.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use crafty_common::PersistentTm;
use crafty_core::{Crafty, CraftyConfig};
use crafty_kv::{DirectOps, KvConfig, SessionTable, ShardedKv};
use crafty_pmem::{MemorySpace, PmemConfig};
#[cfg(not(feature = "no-session-dedup"))]
use crafty_server::ClientError;
use crafty_server::{KvClient, KvServer, Request, Response, ServerConfig, ServerStats};

const RECORDS: u64 = 256;
const WORKERS: usize = 2;

/// Boots a prefilled store behind a loopback server, Crafty engine,
/// group commit on.
fn boot() -> (Arc<MemorySpace>, Arc<Crafty>, KvServer) {
    boot_with(true)
}

fn boot_with(group_commit: bool) -> (Arc<MemorySpace>, Arc<Crafty>, KvServer) {
    let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
    let engine = Arc::new(Crafty::new(
        Arc::clone(&mem),
        CraftyConfig::small_for_tests().with_max_threads(WORKERS),
    ));
    let kv = ShardedKv::create(&mem, &KvConfig::benchmark(RECORDS, 16));
    {
        let mut ops = DirectOps::new(&mem);
        for key in 0..RECORDS {
            kv.put(&mut ops, key, key * 3).expect("direct prefill");
        }
        kv.persist_all(&mem, 0);
    }
    let sessions = SessionTable::create(&mem, 64);
    let server = KvServer::start(
        Arc::clone(&engine) as Arc<dyn crafty_common::PersistentTm>,
        kv,
        sessions,
        ServerConfig::loopback(WORKERS, group_commit),
    )
    .expect("bind loopback server");
    (mem, engine, server)
}

/// Sends `bursts` pipelined bursts of `per_burst` puts and waits for every
/// ack; returns the server's final counters.
fn serve_put_bursts(group_commit: bool, bursts: u64, per_burst: u64) -> ServerStats {
    let (_mem, engine, server) = boot_with(group_commit);
    let mut client = KvClient::connect(server.local_addr()).expect("connect");
    for b in 0..bursts {
        let reqs: Vec<Request> = (0..per_burst)
            .map(|i| Request::Put {
                key: (b * per_burst + i) % RECORDS,
                value: b,
            })
            .collect();
        client.send(&reqs).expect("send burst");
        let responses = client.recv(reqs.len()).expect("recv burst");
        assert!(responses
            .iter()
            .all(|r| matches!(r, Response::Found { .. })));
    }
    drop(client);
    let stats = server.shutdown();
    engine.quiesce();
    assert_eq!(stats.requests, bursts * per_burst);
    stats
}

/// The server's two batchings. Under group commit a pipelined burst is
/// acked after one fence per batch; without it a batch is one request,
/// fenced and acked alone.
#[test]
fn group_commit_fences_once_per_batch_and_per_request_without_it() {
    let grouped = serve_put_bursts(true, 16, 32);
    assert!(grouped.flushes >= 1);
    assert!(
        grouped.flushes <= grouped.batches,
        "more than one fence per batch: {grouped:?}"
    );

    let single = serve_put_bursts(false, 4, 32);
    assert_eq!(single.mean_batch(), 1.0, "{single:?}");
    assert_eq!(single.flushes, single.requests, "one fence per write");
}

#[test]
fn stats_reports_live_percentiles_from_a_loaded_server() {
    let (_mem, engine, server) = boot();
    let mut client = KvClient::connect(server.local_addr()).expect("connect");

    // A fresh server has counted nothing but this connection.
    let idle = client.stats().expect("stats on idle server");
    assert_eq!(idle.requests, 0, "stats must reflect only completed work");
    assert_eq!(idle.latency_count, 0);
    assert_eq!(idle.latency_p999_ns, 0);

    // Load it: pipelined mixed batches, so the server sees real
    // group-commit windows and every request lands in the histogram.
    const BATCHES: u64 = 20;
    const PER_BATCH: u64 = 8;
    for b in 0..BATCHES {
        let mut reqs = Vec::new();
        for i in 0..PER_BATCH {
            let key = (b * PER_BATCH + i) % RECORDS;
            if i % 2 == 0 {
                reqs.push(Request::Put {
                    key,
                    value: key + 1000,
                });
            } else {
                reqs.push(Request::Get { key });
            }
        }
        client.send(&reqs).expect("send batch");
        let responses = client.recv(reqs.len()).expect("recv batch");
        assert_eq!(responses.len(), reqs.len());
    }

    let loaded = client.stats().expect("stats on loaded server");
    let served = BATCHES * PER_BATCH;
    // The idle Stats request itself was served too.
    assert!(
        loaded.requests > served,
        "requests {} must count the {served} loaded ops",
        loaded.requests
    );
    assert!(loaded.connections >= 1);
    assert!(
        loaded.flushes >= 1,
        "group-commit write batches must have fenced"
    );
    assert!(
        loaded.latency_count >= served,
        "every served request must land in the histogram (got {})",
        loaded.latency_count
    );
    // Live percentiles: nonzero, ordered, bounded by the exact maximum.
    assert!(loaded.latency_p50_ns > 0, "p50 of a loaded server is not 0");
    assert!(loaded.latency_p50_ns <= loaded.latency_p99_ns);
    assert!(loaded.latency_p99_ns <= loaded.latency_p999_ns);
    assert!(loaded.latency_p999_ns <= loaded.latency_max_ns);
    assert!(loaded.latency_mean_ns > 0);
    assert_eq!(loaded.protocol_errors, 0);

    // The wire report and the in-process snapshot agree on the counters.
    let local = server.stats();
    assert_eq!(local.connections, loaded.connections);
    assert_eq!(local.flushes, loaded.flushes);

    // The loaded writes actually took: durable reads see them.
    assert_eq!(client.get(0).expect("get"), Some(1000));

    server.shutdown();
    engine.quiesce();
}

/// The live exactly-once contract, no crash involved: a replayed
/// sequenced batch (lost-ack simulation) must return the *cached*
/// responses and re-apply nothing — even for a non-idempotent increment.
#[cfg(not(feature = "no-session-dedup"))]
#[test]
fn replayed_batch_returns_cached_replies_without_reapplying() {
    let (_mem, engine, server) = boot();
    let mut client = KvClient::connect(server.local_addr()).expect("connect");

    let (sid, last_seq) = client.hello(0).expect("handshake");
    assert!(sid > 0, "fresh session granted");
    assert_eq!(last_seq, 0);

    let batch = [
        Request::Incr {
            key: 9000,
            delta: 5,
            session: sid,
            seq: 1,
        },
        Request::SeqPut {
            key: 9001,
            value: 77,
            session: sid,
            seq: 2,
        },
    ];
    client.send(&batch).expect("send");
    let first = client.recv(2).expect("recv");
    assert_eq!(first[0], Response::Found { value: 5 });
    assert_eq!(first[1], Response::Missing, "no previous value at 9001");

    // The client "lost the ack": replay the identical batch. The session
    // table must serve both responses from its cache.
    client.send(&batch).expect("replay");
    let second = client.recv(2).expect("recv replay");
    assert_eq!(second, first, "replayed batch must get the cached replies");

    // And the store shows exactly one application.
    assert_eq!(client.get(9000).expect("get"), Some(5), "no double-apply");
    assert_eq!(client.get(9001).expect("get"), Some(77));

    // A resumed session reports the applied high-water mark.
    let mut resumed = KvClient::connect(server.local_addr()).expect("reconnect");
    assert_eq!(resumed.hello(sid).expect("resume"), (sid, 2));

    server.shutdown();
    engine.quiesce();
}

/// Teeth: with the session-table lookup feature-gated out, the same
/// replay double-applies — proving the lookup is what provides
/// exactly-once, exactly as the fence teeth test proves the fence.
#[cfg(feature = "no-session-dedup")]
#[test]
fn dedup_teeth_replay_double_applies_without_the_lookup() {
    let (_mem, engine, server) = boot();
    let mut client = KvClient::connect(server.local_addr()).expect("connect");
    let (sid, _) = client.hello(0).expect("handshake");

    let batch = [Request::Incr {
        key: 9000,
        delta: 5,
        session: sid,
        seq: 1,
    }];
    client.send(&batch).expect("send");
    assert_eq!(
        client.recv(1).expect("recv")[0],
        Response::Found { value: 5 }
    );
    client.send(&batch).expect("replay");
    let replayed = client.recv(1).expect("recv replay")[0];

    assert_eq!(
        replayed,
        Response::Found { value: 10 },
        "without the dedup lookup the replay must double-apply — if this \
         fails, the teeth test is no longer exercising the gated path"
    );
    assert_eq!(client.get(9000).expect("get"), Some(10));

    server.shutdown();
    engine.quiesce();
}

/// Sequence gaps are protocol violations: the server drops the
/// connection without acking rather than applying out of order.
#[cfg(not(feature = "no-session-dedup"))]
#[test]
fn sequence_gap_drops_the_connection() {
    let (_mem, engine, server) = boot();
    let mut client = KvClient::connect(server.local_addr()).expect("connect");
    let (sid, _) = client.hello(0).expect("handshake");

    client
        .send(&[Request::Incr {
            key: 9000, // outside the prefilled range
            delta: 1,
            session: sid,
            seq: 7, // the session has applied nothing; seq 7 is a gap
        }])
        .expect("send");
    match client.recv(1) {
        Err(ClientError::Disconnected) => {}
        other => panic!("gap must close the connection, got {other:?}"),
    }

    let mut fresh = KvClient::connect(server.local_addr()).expect("connect");
    let stats = fresh.stats().expect("stats");
    assert!(
        stats.protocol_errors >= 1,
        "the violation must be counted, got {stats:?}"
    );
    assert_eq!(
        fresh.get(9000).expect("get"),
        None,
        "the gapped write must not have been applied"
    );

    server.shutdown();
    engine.quiesce();
}

/// Under an in-flight budget of one, concurrent pipelined batches are
/// shed with `Busy` — and a shed batch is *not* recorded, so resending
/// it succeeds.
#[test]
fn overloaded_server_sheds_whole_batches_with_busy() {
    let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
    let engine = Arc::new(Crafty::new(
        Arc::clone(&mem),
        CraftyConfig::small_for_tests().with_max_threads(WORKERS),
    ));
    let kv = ShardedKv::create(&mem, &KvConfig::benchmark(RECORDS, 16));
    let sessions = SessionTable::create(&mem, 64);
    let server = KvServer::start(
        Arc::clone(&engine) as Arc<dyn crafty_common::PersistentTm>,
        kv,
        sessions,
        ServerConfig::loopback(WORKERS, true).with_inflight_budget(1),
    )
    .expect("bind loopback server");
    let addr = server.local_addr();

    // Two connections hammer wide write batches; with one budget slot and
    // two workers, overlapping windows force the loser onto the shed
    // path. Keep going until a Busy is observed (bounded, not timed).
    let shed_seen = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut drivers = Vec::new();
    for t in 0..2u64 {
        let shed_seen = Arc::clone(&shed_seen);
        drivers.push(std::thread::spawn(move || {
            let mut client = KvClient::connect(addr).expect("connect");
            let batch: Vec<Request> = (0..64)
                .map(|i| Request::Put {
                    key: t * 1000 + i,
                    value: i,
                })
                .collect();
            for _ in 0..200 {
                if shed_seen.load(std::sync::atomic::Ordering::Relaxed) {
                    return;
                }
                client.send(&batch).expect("send");
                let responses = client.recv(batch.len()).expect("recv");
                if responses.iter().any(|r| matches!(r, Response::Busy)) {
                    // The whole batch is shed together, never partially.
                    assert!(
                        responses.iter().all(|r| matches!(r, Response::Busy)),
                        "a shed batch must be Busy for every request"
                    );
                    shed_seen.store(true, std::sync::atomic::Ordering::Relaxed);
                    return;
                }
            }
        }));
    }
    for d in drivers {
        d.join().expect("driver");
    }
    assert!(
        shed_seen.load(std::sync::atomic::Ordering::Relaxed),
        "two colliding pipelines against a budget of one never shed"
    );
    let stats = server.shutdown();
    assert!(stats.shed_batches >= 1, "shed counter must record it");
    engine.quiesce();
}

#[test]
fn desynced_stream_is_dropped_and_counted() {
    let (_mem, engine, server) = boot();

    // Feed the server a response opcode (0x85, the stats reply): a
    // desynchronized stream. The high bit makes it an unknown request
    // opcode, so the server must drop the connection without replying.
    let mut raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.write_all(&[1, 0, 0, 0, 0x85]).expect("write bad frame");
    let mut buf = [0u8; 16];
    let n = raw.read(&mut buf).expect("read until server closes");
    assert_eq!(n, 0, "server must close a desynced connection, not answer");

    // The drop is visible in the live metrics.
    let mut client = KvClient::connect(server.local_addr()).expect("connect");
    let stats = client.stats().expect("stats");
    assert!(
        stats.protocol_errors >= 1,
        "protocol error counter must record the dropped connection"
    );

    server.shutdown();
    engine.quiesce();
}
