//! The thread-per-core TCP server over a [`ShardedKv`].
//!
//! # Architecture
//!
//! [`KvServer::start`] binds one `TcpListener` and spawns `workers`
//! accept-and-serve threads, each holding a clone of the listener (the
//! kernel load-balances `accept` across them) and one registered
//! [`TmThread`] handle. A worker serves one connection at a time, start to
//! finish; with as many connections as workers every core runs its own
//! connection — the thread-per-core shape, with no cross-thread handoff
//! per request.
//!
//! # Batches are acknowledgement windows
//!
//! Every request runs as one persistent transaction through
//! [`TmThread::execute`], the engine's one fenced pipeline. What a batch
//! shares is the acknowledgement: a batch that contained any write ends
//! with one [`PersistentTm::persist_fence`] *before any of its response
//! bytes are written*. A returned transaction is not yet an ackable one:
//! the paper's recovery is prefix-consistent — it rolls back each thread's
//! latest logged sequence (and the timestamp cut can take
//! committed-but-unpinned work of *other* threads with it), so an acked
//! write could still be undone after a crash. The fence pins everything
//! completed so far (Section 5.2's on-demand persistence), making the ack
//! mean what a client thinks it means: this write survives any crash from
//! now on.
//!
//! Under [`ServerConfig::group_commit`] a worker decodes **every complete
//! frame** buffered from the socket and serves that run of pipelined
//! requests as one batch, so the fence amortizes over it — the deeper
//! clients pipeline, the cheaper acknowledged durability gets per write.
//! With `group_commit` off a batch is one request: fenced and acked alone,
//! the per-request baseline the latency benchmark compares against (frames
//! already buffered are served, one at a time, before the next socket
//! read). Group commit batches the fence, never the drains inside a
//! transaction: those order one transaction's in-place writes before the
//! next one's undo entries, which recovery's latest-sequence rollback
//! depends on.
//!
//! Batching is *emergent*: nothing waits to fill a window. An idle server
//! sees one-request batches and behaves like a per-request server; a
//! loaded one finds deep pipelines in its socket buffer and amortizes
//! accordingly. This is exactly the group-commit bargain measured by the
//! `kvserve` benchmark.
//!
//! # Exactly-once sessions
//!
//! The server owns a persistent [`SessionTable`] living in the same heap
//! as the store. `Hello` allocates or resumes a session *in a persistent
//! transaction*, fenced before the `Welcome` leaves (an acked session id
//! survives any crash). Sequenced writes (`Incr`, `SeqPut`, `SeqDelete`)
//! run their dedup check, their store mutation, and their session-record
//! update **inside one transaction**, so "applied" and "recorded as
//! applied" are crash-atomic — a replayed batch after a lost ack
//! re-applies nothing and gets its cached responses back. Sequence-number
//! violations (gaps, replays older than the reply window, unknown
//! sessions) drop the connection and count as protocol errors: a correct
//! client never produces them, and inventing an answer would silently
//! break the contract.
//!
//! # Degrading under overload and failure
//!
//! Three mechanisms keep the durability pipeline honest when the world
//! misbehaves. **Shedding**: an optional in-flight-batch budget
//! ([`ServerConfig::max_inflight_batches`]) answers every request of an
//! over-budget batch with `Busy` — nothing executed, nothing recorded,
//! the client backs off and resends; the pipeline sheds load instead of
//! queueing toward collapse. **Write deadlines**
//! ([`ServerConfig::write_timeout`]): a client that stops draining its
//! socket cannot pin a worker forever; the connection is dropped (its
//! unacked responses are replayable by construction). **The power rail**
//! ([`ServerConfig::power`]): under the simulated-pmem fault clock, after
//! a batch's fence and *before* any response byte is written, the worker
//! polls [`MemorySpace::fault_tripped`] — if the simulated power is gone,
//! the ack is withheld, because an ack must only describe states that
//! exist in the crash image. (Causally sound: the fence itself advances
//! the fault clock, so a trap during or before the fence is visible by
//! the time we poll; a clean poll means the fence fully preceded the
//! cut and its effects are in the image.) Graceful [`KvServer::shutdown`]
//! ends every worker with a final fence, so nothing it executed is left
//! unpinned when the sockets close.
//!
//! # Live metrics
//!
//! Workers record every batch's service time (decode → fence) into a
//! shared [`LatencyHistogram`], one sample per request. The protocol's
//! `Stats` request ([`crate::protocol::StatsReport`]) returns those
//! percentiles plus the lifetime counters, answered from shared state
//! without touching the engine — a live, remote view of the same numbers
//! [`KvServer::stats`] exposes in-process.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crafty_common::{PersistentTm, TmThread};
use crafty_kv::{CachedReply, SeqCheck, SessionTable, ShardedKv};
use crafty_pmem::MemorySpace;
use crafty_stats::LatencyHistogram;

use crate::protocol::{frame_payload_len, Request, Response, StatsReport, HEADER_LEN};

/// How a [`KvServer`] listens, persists, and degrades.
#[derive(Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"` (port 0 picks a free port;
    /// read the result from [`KvServer::local_addr`]).
    pub addr: String,
    /// Accept-and-serve worker threads. Each registers one engine thread,
    /// so this must not exceed the engine's configured thread limit, and
    /// the server owns tids `0..workers` while it runs.
    pub workers: usize,
    /// Whether a batch is every complete buffered frame, acked after one
    /// shared durability fence (group commit), or one request, fenced and
    /// acked alone.
    pub group_commit: bool,
    /// In-flight pipelined-batch budget; batches beyond it are shed with
    /// `Busy` before any engine work. `0` disables shedding.
    pub max_inflight_batches: usize,
    /// Deadline for writing a batch's responses. A client that stops
    /// draining its socket is dropped instead of pinning a worker.
    /// `None` blocks forever.
    pub write_timeout: Option<Duration>,
    /// The power rail: when serving a simulated-pmem space with an armed
    /// fault clock, poll [`MemorySpace::fault_tripped`] after each fence
    /// and withhold acks once the simulated power is gone. `None` (the
    /// default, and the only sane choice on a space without an armed
    /// fault plan) never withholds.
    pub power: Option<Arc<MemorySpace>>,
}

impl ServerConfig {
    /// Loopback on an ephemeral port, group commit per the flag, no
    /// shedding budget, a 5 s write deadline, no power rail.
    pub fn loopback(workers: usize, group_commit: bool) -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: workers.max(1),
            group_commit,
            max_inflight_batches: 0,
            write_timeout: Some(Duration::from_secs(5)),
            power: None,
        }
    }

    /// Sets the in-flight-batch budget (see
    /// [`ServerConfig::max_inflight_batches`]).
    #[must_use]
    pub fn with_inflight_budget(mut self, batches: usize) -> Self {
        self.max_inflight_batches = batches;
        self
    }

    /// Attaches the power rail (see [`ServerConfig::power`]).
    #[must_use]
    pub fn with_power(mut self, mem: Arc<MemorySpace>) -> Self {
        self.power = Some(mem);
        self
    }
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("addr", &self.addr)
            .field("workers", &self.workers)
            .field("group_commit", &self.group_commit)
            .field("max_inflight_batches", &self.max_inflight_batches)
            .field("write_timeout", &self.write_timeout)
            .field("power", &self.power.is_some())
            .finish()
    }
}

/// Poll interval for noticing shutdown while blocked in `read`.
const READ_POLL: Duration = Duration::from_millis(25);

/// Monotone counters shared by all workers, plus the live service-latency
/// histogram behind the `Stats` protocol request. The histogram counts,
/// per request, the time from its batch's decode to the durability fence
/// that releases its response — the server-side component of what a client
/// observes. Workers touch the mutex once per batch, off the per-request
/// path.
#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    batches: AtomicU64,
    flushes: AtomicU64,
    protocol_errors: AtomicU64,
    shed_batches: AtomicU64,
    sessions: AtomicU64,
    /// Batches currently between decode and ack, for the shedding budget.
    inflight: AtomicU64,
    latency: Mutex<LatencyHistogram>,
}

impl Counters {
    /// Snapshot of counters and latency percentiles as a wire-ready
    /// [`StatsReport`].
    fn report(&self) -> StatsReport {
        let lat = self
            .latency
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        StatsReport {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            shed_batches: self.shed_batches.load(Ordering::Relaxed),
            sessions: self.sessions.load(Ordering::Relaxed),
            latency_count: lat.count(),
            latency_mean_ns: lat.mean() as u64,
            latency_p50_ns: lat.percentile(0.5),
            latency_p99_ns: lat.percentile(0.99),
            latency_p999_ns: lat.percentile(0.999),
            latency_max_ns: lat.max(),
        }
    }

    fn stats(&self) -> ServerStats {
        ServerStats {
            connections: self.connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            shed_batches: self.shed_batches.load(Ordering::Relaxed),
            sessions: self.sessions.load(Ordering::Relaxed),
        }
    }
}

/// A snapshot of the server's lifetime counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Requests executed.
    pub requests: u64,
    /// Pipelined batches served (each at most one durability fence).
    pub batches: u64,
    /// Durability fences issued, one per batch containing a write or a
    /// `Flush`.
    pub flushes: u64,
    /// Connections dropped for malformed frames or sequence violations.
    pub protocol_errors: u64,
    /// Batches answered `Busy` under the in-flight budget, untouched by
    /// the engine. Nominal-load runs must keep this at zero.
    pub shed_batches: u64,
    /// Client sessions allocated by `Hello` over this server's lifetime.
    pub sessions: u64,
}

impl ServerStats {
    /// Mean pipelined-batch depth — the amortization factor group commit
    /// achieved. `1.0` means the server never saw a pipeline.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// A running KV service front-end. Dropping without calling
/// [`KvServer::shutdown`] leaks the worker threads until process exit;
/// call `shutdown` for an orderly stop.
pub struct KvServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    workers: Vec<JoinHandle<()>>,
}

impl KvServer {
    /// Binds `cfg.addr` and starts serving `kv` through `engine`, with
    /// `sessions` providing the persistent exactly-once dedup state
    /// (created next to the store via [`SessionTable::create`], or
    /// reattached after a crash via [`SessionTable::open`]).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from binding or cloning the listener.
    ///
    /// # Panics
    ///
    /// Worker threads panic (on their own threads) if `cfg.workers`
    /// exceeds the engine's configured thread limit.
    pub fn start(
        engine: Arc<dyn PersistentTm>,
        kv: ShardedKv,
        sessions: SessionTable,
        cfg: ServerConfig,
    ) -> std::io::Result<KvServer> {
        let listener = TcpListener::bind(&*cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let mut workers = Vec::with_capacity(cfg.workers.max(1));
        for tid in 0..cfg.workers.max(1) {
            let listener = listener.try_clone()?;
            let engine = Arc::clone(&engine);
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            let cfg = cfg.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("kv-worker-{tid}"))
                    .spawn(move || {
                        worker_loop(
                            &*engine, kv, sessions, tid, &listener, &stop, &counters, &cfg,
                        )
                    })?,
            );
        }
        Ok(KvServer {
            local_addr,
            stop,
            counters,
            workers,
        })
    }

    /// The bound address — connect clients here.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the lifetime counters.
    pub fn stats(&self) -> ServerStats {
        self.counters.stats()
    }

    /// Stops accepting, drains the workers, and returns the final
    /// counters. In-flight batches finish (their acks stay honest), each
    /// worker issues a final durability fence before it exits, and idle
    /// connections are dropped.
    pub fn shutdown(self) -> ServerStats {
        self.stop.store(true, Ordering::SeqCst);
        // Wake every worker that is blocked in accept(): one dummy
        // connection per worker, immediately dropped.
        for _ in &self.workers {
            let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_millis(200));
        }
        for w in self.workers {
            let _ = w.join();
        }
        self.counters.stats()
    }
}

impl std::fmt::Debug for KvServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvServer")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.workers.len())
            .finish()
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    engine: &dyn PersistentTm,
    kv: ShardedKv,
    sessions: SessionTable,
    tid: usize,
    listener: &TcpListener,
    stop: &AtomicBool,
    counters: &Counters,
    cfg: &ServerConfig,
) {
    let mut handle = engine.register_thread(tid);
    while !stop.load(Ordering::SeqCst) {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if stop.load(Ordering::SeqCst) {
            break; // the shutdown wake-up connection
        }
        counters.connections.fetch_add(1, Ordering::Relaxed);
        serve_connection(
            engine,
            &kv,
            &sessions,
            handle.as_mut(),
            tid,
            stream,
            stop,
            counters,
            cfg,
        );
    }
    // Graceful exit: whatever this worker executed and never fenced (a
    // connection dropped mid-batch) gets one last fence before the thread
    // dies. Shutdown must never leave acknowledged-adjacent state unpinned.
    engine.persist_fence(tid);
}

/// Serves one connection until EOF, error, sequence violation, or
/// shutdown.
#[allow(clippy::too_many_arguments)]
fn serve_connection(
    engine: &dyn PersistentTm,
    kv: &ShardedKv,
    sessions: &SessionTable,
    handle: &mut dyn TmThread,
    tid: usize,
    mut stream: TcpStream,
    stop: &AtomicBool,
    counters: &Counters,
    cfg: &ServerConfig,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(cfg.write_timeout);
    let mut inbox: Vec<u8> = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    let mut batch: Vec<Request> = Vec::new();
    let mut outbox: Vec<u8> = Vec::with_capacity(4096);
    loop {
        // Decode the next batch from the frames already buffered: every
        // complete one under group commit, else the first.
        batch.clear();
        let mut consumed = 0;
        while cfg.group_commit || batch.is_empty() {
            match frame_payload_len(&inbox[consumed..]) {
                Ok(Some(len)) => {
                    let payload = &inbox[consumed + HEADER_LEN..consumed + HEADER_LEN + len];
                    match Request::decode(payload) {
                        Ok(req) => batch.push(req),
                        Err(_) => {
                            counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                            return;
                        }
                    }
                    consumed += HEADER_LEN + len;
                }
                Ok(None) => break,
                Err(_) => {
                    counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
        inbox.drain(..consumed);
        if batch.is_empty() {
            match stream.read(&mut chunk) {
                Ok(0) => return, // client closed
                Ok(n) => inbox.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return,
            }
            continue;
        }

        // Overload shedding: claim a slot in the in-flight budget or
        // answer the whole batch `Busy` — no engine work, no session
        // record, so resending the identical batch later is safe.
        if cfg.max_inflight_batches > 0 {
            let claimed = counters.inflight.fetch_add(1, Ordering::AcqRel);
            if claimed >= cfg.max_inflight_batches as u64 {
                counters.inflight.fetch_sub(1, Ordering::AcqRel);
                counters.shed_batches.fetch_add(1, Ordering::Relaxed);
                outbox.clear();
                for _ in &batch {
                    Response::Busy.encode(&mut outbox);
                }
                if stream.write_all(&outbox).is_err() {
                    return;
                }
                continue;
            }
        }

        outbox.clear();
        // An explicit Flush requests the fence even in a read-only batch.
        let wrote = batch
            .iter()
            .any(|r| r.is_write() || matches!(r, Request::Flush));
        let batch_start = Instant::now();
        let mut doomed = false;
        for req in &batch {
            // Stats is answered from shared state, never from the engine:
            // polling a loaded server must not contend on its transactions.
            let response = match *req {
                Request::Stats => Response::Stats {
                    report: counters.report(),
                },
                req => match execute_request(kv, sessions, handle, req, counters) {
                    Some(resp) => resp,
                    None => {
                        // Sequence violation: a correct client never sends
                        // this. Drop the connection without acking the
                        // batch — but finish the durability epilogue so the
                        // worker's handle is clean for the next connection.
                        counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        doomed = true;
                        break;
                    }
                },
            };
            response.encode(&mut outbox);
        }
        // The ack-after-fence rule: pin the whole batch against recovery's
        // latest-sequence rollback — no response byte leaves before every
        // acked write survives any future crash.
        if wrote {
            engine.persist_fence(tid);
            counters.flushes.fetch_add(1, Ordering::Relaxed);
        }
        if cfg.max_inflight_batches > 0 {
            counters.inflight.fetch_sub(1, Ordering::AcqRel);
        }
        if doomed {
            return;
        }
        counters.batches.fetch_add(1, Ordering::Relaxed);
        counters
            .requests
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        // Every response in the batch is released by the same fence, so
        // each request's server-side service time is the batch's: one
        // sample per request, one mutex acquisition per batch.
        let service_ns = batch_start.elapsed().as_nanos() as u64;
        {
            let mut lat = counters
                .latency
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            for _ in 0..batch.len() {
                lat.record(service_ns);
            }
        }
        // The power rail: if the simulated power was cut, the crash image
        // is already frozen — anything this batch did may not be in it.
        // Withholding the ack keeps the acked-implies-persisted contract;
        // the client will time out and replay against the restarted
        // server, where the session table dedups whatever *did* survive.
        if let Some(power) = &cfg.power {
            if power.fault_tripped() {
                return;
            }
        }
        if stream.write_all(&outbox).is_err() {
            return;
        }
    }
}

/// The dedup classification for `(session, seq)` — the session-table
/// lookup that makes replays at-most-once. The `no-session-dedup` feature
/// (teeth test only) removes it: every sequenced request then looks
/// fresh, a replayed batch double-applies, and the exactly-once audit
/// must catch it.
#[cfg(not(feature = "no-session-dedup"))]
fn dedup_check(
    sessions: &SessionTable,
    ops: &mut dyn crafty_common::TxnOps,
    session: u64,
    seq: u64,
) -> Result<SeqCheck, crafty_common::TxAbort> {
    sessions.check(ops, session, seq)
}

#[cfg(feature = "no-session-dedup")]
fn dedup_check(
    _sessions: &SessionTable,
    _ops: &mut dyn crafty_common::TxnOps,
    _session: u64,
    _seq: u64,
) -> Result<SeqCheck, crafty_common::TxAbort> {
    Ok(SeqCheck::Fresh)
}

/// Executes one sequenced write under session dedup: check, apply, and
/// record in **one** transaction. `apply` runs only on a `Fresh`
/// classification and returns the reply to cache; replays return the
/// cached reply without touching the store. Returns `None` on a sequence
/// violation (drop the connection).
fn execute_sequenced(
    sessions: &SessionTable,
    handle: &mut dyn TmThread,
    session: u64,
    seq: u64,
    apply: &mut dyn FnMut(
        &mut dyn crafty_common::TxnOps,
    ) -> Result<CachedReply, crafty_common::TxAbort>,
) -> Option<Response> {
    let mut verdict = SeqCheck::Unknown;
    let mut reply = CachedReply::missing();
    let mut body = |ops: &mut dyn crafty_common::TxnOps| {
        verdict = dedup_check(sessions, ops, session, seq)?;
        match verdict {
            SeqCheck::Fresh => {
                reply = apply(ops)?;
                #[cfg(not(feature = "no-session-dedup"))]
                sessions.record(ops, session, seq, reply)?;
            }
            SeqCheck::Replay(cached) => reply = cached,
            _ => {}
        }
        Ok(())
    };
    handle.execute(&mut body);
    match verdict {
        SeqCheck::Fresh | SeqCheck::Replay(_) => Some(if reply.found {
            Response::Found { value: reply.value }
        } else {
            Response::Missing
        }),
        SeqCheck::Gap { .. } | SeqCheck::Stale | SeqCheck::Unknown => None,
    }
}

/// Executes one request as one persistent transaction and forms its
/// response; the caller fences the batch before acking. `None` means a
/// sequence violation: the caller drops the connection.
fn execute_request(
    kv: &ShardedKv,
    sessions: &SessionTable,
    handle: &mut dyn TmThread,
    req: Request,
    counters: &Counters,
) -> Option<Response> {
    match req {
        Request::Get { key } => {
            let mut got = None;
            handle.execute(&mut |ops| {
                got = kv.get(ops, key)?;
                Ok(())
            });
            Some(match got {
                Some(value) => Response::Found { value },
                None => Response::Missing,
            })
        }
        Request::Put { key, value } => {
            let mut prev = None;
            handle.execute(&mut |ops| {
                prev = kv.put(ops, key, value)?;
                Ok(())
            });
            Some(match prev {
                Some(value) => Response::Found { value },
                None => Response::Missing,
            })
        }
        Request::Delete { key } => {
            let mut prev = None;
            handle.execute(&mut |ops| {
                prev = kv.remove(ops, key)?;
                Ok(())
            });
            Some(match prev {
                Some(value) => Response::Found { value },
                None => Response::Missing,
            })
        }
        Request::Scan { key, limit } => {
            let mut result = (0, 0);
            handle.execute(&mut |ops| {
                result = kv.scan(ops, key, limit)?;
                Ok(())
            });
            Some(Response::Scanned {
                count: result.0,
                sum: result.1,
            })
        }
        Request::Hello { session } => {
            // Session allocation/resume is itself a persistent
            // transaction; `is_write` makes the batch fence before the
            // Welcome leaves, so an acked session id survives any crash.
            let mut granted = None;
            handle.execute(&mut |ops| {
                granted = sessions.begin(ops, session)?;
                Ok(())
            });
            Some(match granted {
                Some((sid, last_seq)) => {
                    if session == 0 {
                        counters.sessions.fetch_add(1, Ordering::Relaxed);
                    }
                    Response::Welcome {
                        session: sid,
                        last_seq,
                    }
                }
                // Refused resume: the client must start a fresh session.
                None => Response::Welcome {
                    session: 0,
                    last_seq: 0,
                },
            })
        }
        Request::Incr {
            key,
            delta,
            session,
            seq,
        } => execute_sequenced(sessions, handle, session, seq, &mut |ops| {
            // Read-modify-write in the guarded transaction: exactly the
            // shape that makes a double-applied replay visible.
            let current = kv.get(ops, key)?.unwrap_or(0);
            let next = current.wrapping_add(delta);
            kv.put(ops, key, next)?;
            Ok(CachedReply::found(next))
        }),
        Request::SeqPut {
            key,
            value,
            session,
            seq,
        } => execute_sequenced(sessions, handle, session, seq, &mut |ops| {
            Ok(match kv.put(ops, key, value)? {
                Some(prev) => CachedReply::found(prev),
                None => CachedReply::missing(),
            })
        }),
        Request::SeqDelete { key, session, seq } => {
            execute_sequenced(sessions, handle, session, seq, &mut |ops| {
                Ok(match kv.remove(ops, key)? {
                    Some(prev) => CachedReply::found(prev),
                    None => CachedReply::missing(),
                })
            })
        }
        // The batch's fence, which a Flush always requests, is the barrier.
        Request::Flush => Some(Response::Flushed),
        // Unreachable: serve_connection answers Stats from shared state
        // before dispatching to the engine.
        Request::Stats => Some(Response::Stats {
            report: StatsReport::default(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_config_defaults() {
        let cfg = ServerConfig::loopback(0, true);
        assert_eq!(cfg.workers, 1, "worker count is clamped to at least one");
        assert!(cfg.group_commit);
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert_eq!(cfg.max_inflight_batches, 0, "shedding defaults off");
        assert!(cfg.power.is_none());
        let budgeted = cfg.with_inflight_budget(3);
        assert_eq!(budgeted.max_inflight_batches, 3);
    }

    #[test]
    fn stats_mean_batch_handles_empty() {
        let empty = ServerStats {
            connections: 0,
            requests: 0,
            batches: 0,
            flushes: 0,
            protocol_errors: 0,
            shed_batches: 0,
            sessions: 0,
        };
        assert_eq!(empty.mean_batch(), 0.0);
        let busy = ServerStats {
            requests: 64,
            batches: 8,
            ..empty
        };
        assert_eq!(busy.mean_batch(), 8.0);
    }
}
