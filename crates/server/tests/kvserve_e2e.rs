//! End-to-end service test: boot a real Crafty engine behind the TCP
//! front-end, load it over the wire, and read the live metrics back
//! through the protocol's `Stats` request.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use crafty_common::PersistentTm;
use crafty_core::{Crafty, CraftyConfig};
use crafty_kv::KEY_MAX;
use crafty_kv::{DirectOps, KvConfig, SessionTable, ShardedKv};
use crafty_pmem::{MemorySpace, PmemConfig};
use crafty_server::{
    ClientError, KvClient, KvServer, Request, Response, ServerConfig, ServerStats,
};

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

/// Every opcode round-trips over a real loopback socket, and a pipelined
/// burst is answered in order. The keys sit above the prefilled range.
#[test]
fn round_trips_and_pipelining_over_loopback() {
    let (_mem, engine, server) = boot();
    let mut client = KvClient::connect(server.local_addr()).expect("connect");

    // Single-request round trips of every opcode.
    let key = RECORDS + 7;
    assert_eq!(client.put(key, 700).expect("put"), None);
    assert_eq!(client.put(key, 701).expect("put"), Some(700));
    assert_eq!(client.get(key).expect("get"), Some(701));
    assert_eq!(client.get(key + 1).expect("get"), None);
    assert_eq!(client.delete(key).expect("delete"), Some(701));
    assert_eq!(client.get(key).expect("get"), None);
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
    engine.quiesce();
    assert!(stats.connections >= 1);
    // 6 singles + flush + 32 pipelined + 32 gets + scan.
    assert!(stats.requests >= 72, "served {} requests", stats.requests);
    assert!(stats.batches >= 1 && stats.batches <= stats.requests);
    assert!(stats.flushes >= 1, "write batches must fence");
    assert_eq!(stats.protocol_errors, 0);
    assert!(stats.mean_batch() >= 1.0);
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

    // One snapshot in process and on the wire: with nothing in flight,
    // `server.stats()` is the reply plus the `Stats` batch that carried
    // it — one more request, batch and latency sample, which may move the
    // latency summary by that one sample.
    let local = server.stats();
    assert_eq!(
        local,
        ServerStats {
            requests: loaded.requests + 1,
            batches: loaded.batches + 1,
            latency_count: loaded.latency_count + 1,
            latency_mean_ns: local.latency_mean_ns,
            latency_p50_ns: local.latency_p50_ns,
            latency_p99_ns: local.latency_p99_ns,
            latency_p999_ns: local.latency_p999_ns,
            latency_max_ns: local.latency_max_ns,
            ..loaded
        }
    );
    assert!(local.latency_max_ns >= loaded.latency_max_ns);
    assert_eq!(local.shed_batches, 0, "the retired shed counter stays 0");

    // The loaded writes actually took: durable reads see them.
    assert_eq!(client.get(0).expect("get"), Some(1000));

    server.shutdown();
    engine.quiesce();
}

/// The live exactly-once contract, no crash involved: a replayed
/// sequenced batch (lost-ack simulation) must return the *cached*
/// responses and re-apply nothing — even for a non-idempotent increment.
/// The batch covers every reply shape a sequenced write caches: an
/// increment's new value, a put's `Missing`, a delete's `Found` and a
/// delete's `Missing`.
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
        Request::SeqDelete {
            key: 7, // prefilled with 7 * 3
            session: sid,
            seq: 3,
        },
        Request::SeqDelete {
            key: 9002,
            session: sid,
            seq: 4,
        },
    ];
    client.send(&batch).expect("send");
    let first = client.recv(4).expect("recv");
    assert_eq!(first[0], Response::Found { value: 5 });
    assert_eq!(first[1], Response::Missing, "no previous value at 9001");
    assert_eq!(first[2], Response::Found { value: 21 }, "7 was present");
    assert_eq!(first[3], Response::Missing, "9002 was absent");

    // The client "lost the ack": replay the identical batch. The session
    // table must serve both responses from its cache.
    client.send(&batch).expect("replay");
    let second = client.recv(4).expect("recv replay");
    assert_eq!(second, first, "replayed batch must get the cached replies");

    // And the store shows exactly one application.
    assert_eq!(client.get(9000).expect("get"), Some(5), "no double-apply");
    assert_eq!(client.get(9001).expect("get"), Some(77));
    assert_eq!(client.get(7).expect("get"), None);

    // A resumed session reports the applied high-water mark.
    let mut resumed = KvClient::connect(server.local_addr()).expect("reconnect");
    assert_eq!(resumed.hello(sid).expect("resume"), (sid, 4));

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

/// A key the store cannot hold is a protocol violation, not a panic:
/// each such request drops its own connection, unacked, and every worker
/// stays up to serve the next client.
#[test]
fn out_of_range_key_drops_the_connection_not_the_worker() {
    let (_mem, engine, server) = boot();
    for _ in 0..WORKERS {
        let mut hostile = KvClient::connect(server.local_addr()).expect("connect");
        hostile
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .expect("timeout");
        hostile
            .send(&[Request::Get { key: KEY_MAX + 1 }])
            .expect("send");
        match hostile.recv(1) {
            Err(ClientError::Disconnected) => {}
            other => panic!("an out-of-range key must close the connection, got {other:?}"),
        }
    }

    let mut client = KvClient::connect(server.local_addr()).expect("a worker is still serving");
    client
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("timeout");
    assert_eq!(
        client.stats().expect("stats").protocol_errors,
        WORKERS as u64
    );
    assert_eq!(client.get(1).expect("get"), Some(3));

    server.shutdown();
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
