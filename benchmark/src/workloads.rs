//! The workloads: set-up, seeded input generation, the ops themselves,
//! the shadow model their results are checked against, and the audit
//! (live, then crash → recover → reboot → reopen).
//!
//! Everything here goes through the repository's public API. The seed stays
//! on the generator's side of the line: transaction bodies and the server
//! only ever see generated keys, values and per-transaction pick seeds.

use std::sync::Arc;
use std::time::Instant;

use crafty_common::{mix64, PersistentTm, SplitMix64, TmThread, TxAbort, TxnOps, Zipfian};
use crafty_core::{recover, Crafty, CraftyConfig};
use crafty_htm::HtmConfig;
use crafty_kv::{DirectOps, KvConfig, SessionTable, ShardedKv, KEY_MAX};
use crafty_pmem::{LatencyModel, MemorySpace, PmemConfig};
use crafty_server::{KvClient, KvServer, Request, Response, ServerConfig};
use crafty_workloads::{build_engine, BankWorkload, Contention, EngineKind, TxnMix, Workload};

use crate::driver::Worker;
use crate::trace::{now_ns, TimedOps, TraceSink};

/// Zipfian skew of the KV key popularity (YCSB's default).
pub const THETA: f64 = 0.99;
/// Shards of the KV store.
pub const SHARDS: usize = 16;
/// Requests the `serve-pipe` client keeps in flight (its window) ...
pub const PIPE_WINDOW: usize = 128;
/// ... and how many it sends and receives at a time. The window slides, and
/// it is deep, so that the server always has requests queued while the
/// client sleeps in `recv`, wakes up and refills. "Send 32, wait, receive
/// 32" measured the virtual machine's idle-wake-up latency instead of the
/// server: windows of one run split into two modes a factor of two apart.
/// A sliding window of 32 still did: 600k req/s when wake-ups were quick,
/// 410k when the host made them slow, for minutes at a time. At 128 the
/// same slow spell costs far less (and still too much to gate on: see
/// [`WorkloadId::ServePipe`]).
pub const PIPE_SLIDE: usize = 8;
/// Session slots of the served store (the server needs a table; the
/// workload opens no session).
const SESSION_SLOTS: u64 = 64;

/// What the simulated HTM injects on `bank-aborts`: every hardware
/// transaction suffers a spurious abort with this probability (retried
/// inside its phase), ...
pub const ABORT_PROBABILITY: f64 = 0.5;
/// ... and of every [`STORM_PERIOD`] hardware transactions the first
/// [`STORM_BURST`] are doomed in a row: more than the 9 × 5 attempts a
/// transaction makes before it gives up on the hardware, so one
/// transaction per storm commits through the per-line fallback.
pub const STORM_BURST: u32 = 48;
pub const STORM_PERIOD: u32 = 512;
/// Seed of the injector's own stream: a constant of the workload, so the
/// abort schedule is a pure function of the op stream.
const ABORT_SEED: u64 = 0xAB0;

/// What the benchmark can run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadId {
    Bank1t,
    BankAborts,
    KvRead,
    KvUpdate,
    /// The served store: not one of [`WorkloadId::ALL`], because a client
    /// and a server thread waking each other across this host's two
    /// virtual CPUs do not repeat (`ops_per_s` spread 11–13% between runs
    /// of the same binary under every statistic tried). Every `--trace 1`
    /// run measures it for the `server.*` rows and audits it.
    ServePipe,
}

impl WorkloadId {
    /// The workloads of `BENCHMARK.json`: in-process, one busy thread.
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::Bank1t,
        WorkloadId::BankAborts,
        WorkloadId::KvRead,
        WorkloadId::KvUpdate,
    ];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::Bank1t => "bank-1t",
            WorkloadId::BankAborts => "bank-aborts",
            WorkloadId::KvRead => "kv-read",
            WorkloadId::KvUpdate => "kv-update",
            WorkloadId::ServePipe => "serve-pipe",
        }
    }

    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }

    fn is_kv(self) -> bool {
        !matches!(self, WorkloadId::Bank1t | WorkloadId::BankAborts)
    }
}

/// The fixed sizes of a run. [`Scale::full`] is what `BENCHMARK.json` runs;
/// tests shrink it.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Records prefilled into the KV store.
    pub records: u64,
    /// Persistent words of the KV workloads' memory space.
    pub kv_persistent_words: u64,
    /// Persistent words of the bank workloads' memory space.
    pub bank_persistent_words: u64,
    /// Measured windows per `--seconds`.
    pub windows_per_second: u64,
    /// Warm-up windows that end every rig's set-up: a fixed count (5% of
    /// the windows of a 10 s run), so set-up is the same work whatever
    /// `--seconds` says, and at least 0.25 s of it on every workload.
    pub warmup_windows: u64,
    /// Ops per window, by workload.
    pub bank_1t_txns: u64,
    pub bank_aborts_txns: u64,
    pub kv_read_ops: u64,
    pub kv_update_ops: u64,
    pub serve_requests: u64,
    /// Times a run builds the workload afresh, by workload family. Each
    /// rig is set up, warmed up and measured for its share of the windows.
    pub bank_rigs: u64,
    pub kv_rigs: u64,
}

impl Scale {
    pub const fn full() -> Scale {
        Scale {
            records: 250_000,
            kv_persistent_words: 1 << 23,
            bank_persistent_words: 1 << 22,
            windows_per_second: 48,
            warmup_windows: 24,
            bank_1t_txns: 2_700,
            bank_aborts_txns: 1_800,
            kv_read_ops: 80_000,
            kv_update_ops: 6_000,
            serve_requests: 9_600,
            bank_rigs: 9,
            kv_rigs: 5,
        }
    }

    /// Small enough for `cargo test` in debug builds.
    #[cfg(test)]
    pub const fn tiny() -> Scale {
        Scale {
            records: 2_000,
            kv_persistent_words: 1 << 18,
            bank_persistent_words: 1 << 18,
            windows_per_second: 10,
            warmup_windows: 1,
            bank_1t_txns: 40,
            bank_aborts_txns: 40,
            kv_read_ops: 100,
            kv_update_ops: 60,
            serve_requests: 96,
            bank_rigs: 1,
            kv_rigs: 1,
        }
    }

    /// Ops per window.
    pub fn window_ops(&self, id: WorkloadId) -> u64 {
        match id {
            WorkloadId::Bank1t => self.bank_1t_txns,
            WorkloadId::BankAborts => self.bank_aborts_txns,
            WorkloadId::KvRead => self.kv_read_ops,
            WorkloadId::KvUpdate => self.kv_update_ops,
            WorkloadId::ServePipe => self.serve_requests,
        }
    }

    pub fn rigs(&self, id: WorkloadId) -> u64 {
        if id.is_kv() {
            self.kv_rigs
        } else {
            self.bank_rigs
        }
    }

    /// Measured windows of one rig: its share of `windows_per_second ×
    /// seconds`, in whole pairs of a T-window and an L-window.
    pub fn measured_windows(&self, id: WorkloadId, seconds: u64) -> u64 {
        (self.windows_per_second * seconds / self.rigs(id) / 2).max(1) * 2
    }
}

/// Key of popularity rank `rank`: a bijective scramble, so hot ranks land on
/// arbitrary shards and no two ranks share a key.
fn key_of(key_base: u64, rank: u64) -> u64 {
    let key = mix64(key_base.wrapping_add(rank));
    assert!(
        key <= KEY_MAX,
        "scrambled key collides with the tag encoding"
    );
    key
}

/// A built workload: memory, engine, prepared data, and (for `serve-pipe`)
/// the running server.
pub struct Rig {
    pub id: WorkloadId,
    pub mem: Arc<MemorySpace>,
    pub engine: Arc<dyn PersistentTm>,
    /// The engine under test when it is Crafty (recovery needs its log
    /// directory); `None` for the baseline engines.
    crafty: Option<Arc<Crafty>>,
    pmem_cfg: PmemConfig,
    crafty_cfg: CraftyConfig,
    data: Data,
    window_ops: u64,
    seed: u64,
}

enum Data {
    Bank {
        mix: Box<dyn TxnMix>,
    },
    Kv {
        kv: ShardedKv,
        kv_cfg: KvConfig,
        records: u64,
        key_base: u64,
        zipf: Zipfian,
        server: Option<KvServer>,
    },
}

/// `build_engine`'s sizing, applied to `Crafty::new` directly: the audit
/// needs `Crafty::directory_addr`, which the boxed trait object hides.
fn crafty_config(mem: &MemorySpace, max_threads: usize) -> CraftyConfig {
    let heap_words = (mem.persistent_words() / 4).min(1 << 21);
    let per_thread_log_words =
        (mem.persistent_words() / (4 * max_threads as u64)).clamp(64, 1 << 16);
    CraftyConfig::benchmark(max_threads)
        .with_heap_words(heap_words)
        .with_undo_log_entries(per_thread_log_words / 2)
        .with_max_threads(max_threads)
}

impl Rig {
    /// Builds `id` on the Crafty engine: `MemorySpace::new`, engine build,
    /// prefill, `persist_all`, server boot. Everything set-up pays for
    /// except the warm-up, which the caller runs through the driver.
    pub fn build(id: WorkloadId, scale: &Scale, seed: u64) -> Rig {
        Rig::build_on(id, scale, seed, None)
    }

    /// As [`Rig::build`], on a baseline engine when `baseline` is set (such
    /// a rig cannot be audited: only Crafty exposes its log directory).
    pub fn build_on(id: WorkloadId, scale: &Scale, seed: u64, baseline: Option<EngineKind>) -> Rig {
        let pmem_cfg = PmemConfig {
            persistent_words: if id.is_kv() {
                scale.kv_persistent_words
            } else {
                scale.bank_persistent_words
            },
            volatile_words: 1 << 20,
            // The worker, plus the baselines' background persister.
            max_threads: 3,
            latency: LatencyModel::nvm_300ns(),
            ..PmemConfig::benchmark()
        };
        let mem = Arc::new(MemorySpace::new(pmem_cfg));
        let crafty_cfg = crafty_config(&mem, 1);
        let htm_cfg = if id == WorkloadId::BankAborts {
            HtmConfig::skylake()
                .with_zero_aborts(ABORT_PROBABILITY, ABORT_SEED)
                .with_abort_storm(STORM_BURST, STORM_PERIOD, ABORT_SEED)
        } else {
            HtmConfig::skylake()
        };
        let (engine, crafty): (Arc<dyn PersistentTm>, _) = match baseline {
            None => {
                let crafty = Arc::new(Crafty::with_htm_config(
                    Arc::clone(&mem),
                    crafty_cfg,
                    htm_cfg,
                ));
                (Arc::clone(&crafty) as Arc<dyn PersistentTm>, Some(crafty))
            }
            Some(kind) => (Arc::from(build_engine(kind, &mem, 1)), None),
        };
        let data = match id {
            // Both bank workloads run the same mix, so what separates their
            // numbers is the abort path alone.
            WorkloadId::Bank1t | WorkloadId::BankAborts => Data::Bank {
                mix: BankWorkload::paper(Contention::Medium, 1).prepare(&mem),
            },
            _ => {
                let kv_cfg = KvConfig::benchmark(scale.records, SHARDS);
                let kv = ShardedKv::create(&mem, &kv_cfg);
                // 48 bits, so `key_base + rank` never wraps.
                let key_base = mix64(seed ^ 0x6B65_7973) >> 16;
                let mut direct = DirectOps::new(&mem);
                for rank in 0..scale.records {
                    let key = key_of(key_base, rank);
                    kv.put(&mut direct, key, mix64(key))
                        .expect("direct prefill cannot abort");
                }
                kv.persist_all(&mem, 0);
                let server = (id == WorkloadId::ServePipe).then(|| {
                    let sessions = SessionTable::create(&mem, SESSION_SLOTS);
                    KvServer::start(
                        Arc::clone(&engine),
                        kv,
                        sessions,
                        ServerConfig::loopback(1, true),
                    )
                    .expect("bind the loopback server")
                });
                Data::Kv {
                    kv,
                    kv_cfg,
                    records: scale.records,
                    key_base,
                    zipf: Zipfian::new(scale.records, THETA),
                    server,
                }
            }
        };
        Rig {
            id,
            mem,
            engine,
            crafty,
            pmem_cfg,
            crafty_cfg,
            data,
            window_ops: scale.window_ops(id),
            seed,
        }
    }

    /// Live keys ÷ table slots of the KV store (0 on bank).
    pub fn kv_load_factor(&self) -> f64 {
        match &self.data {
            Data::Bank { .. } => 0.0,
            Data::Kv { kv, .. } => {
                let s = kv.stats(&self.mem);
                s.len as f64 / s.capacity as f64
            }
        }
    }

    /// Address the server listens on (`serve-pipe` only).
    pub fn server_addr(&self) -> Option<std::net::SocketAddr> {
        match &self.data {
            Data::Kv {
                server: Some(server),
                ..
            } => Some(server.local_addr()),
            _ => None,
        }
    }

    /// Builds the worker that drives the workload from the caller's thread.
    pub fn worker(&self) -> Box<dyn Worker + '_> {
        let n = self.window_ops as usize;
        // One generator stream, continuing across windows.
        let rng = SplitMix64::new(mix64(self.seed));
        match &self.data {
            Data::Bank { mix } => Box::new(InProc::new(
                self.engine.as_ref(),
                BankOps { mix: mix.as_ref() },
                rng,
                n,
                Vec::new(),
            )),
            Data::Kv {
                kv,
                records,
                key_base,
                zipf,
                server,
                ..
            } => {
                let shadow: Vec<u64> = (0..*records)
                    .map(|rank| mix64(key_of(*key_base, rank)))
                    .collect();
                let keys = KeyGen {
                    zipf,
                    key_base: *key_base,
                };
                match server {
                    Some(server) => Box::new(PipeClient {
                        client: KvClient::connect(server.local_addr())
                            .expect("connect to the loopback server"),
                        keys,
                        rng,
                        ranks: Vec::with_capacity(n),
                        requests: Vec::with_capacity(n),
                        responses: Vec::with_capacity(n),
                        shadow,
                        n,
                        digest: 0,
                    }),
                    None => Box::new(InProc::new(
                        self.engine.as_ref(),
                        KvOps {
                            kv: *kv,
                            keys,
                            update: self.id == WorkloadId::KvUpdate,
                        },
                        rng,
                        n,
                        shadow,
                    )),
                }
            }
        }
    }

    /// Stops the server, if any, and returns its lifetime counters.
    pub fn shutdown_server(&mut self) -> Option<crafty_server::ServerStats> {
        match &mut self.data {
            Data::Kv { server, .. } => server.take().map(KvServer::shutdown),
            Data::Bank { .. } => None,
        }
    }
}

// --------------------------------------------------------------------
// In-process workloads: bank and KV through `TmThread::execute`.
// --------------------------------------------------------------------

/// What an in-process workload supplies: seeded input generation, the
/// transaction body, and the shadow-model check.
trait OpSet {
    type Op: Copy;
    type Out: Copy + Default;
    fn generate(&self, rng: &mut SplitMix64) -> Self::Op;
    /// The op as one word, for the stream digest.
    fn word(op: &Self::Op) -> u64;
    fn body(&self, t: &mut dyn TxnOps, op: &Self::Op) -> Result<Self::Out, TxAbort>;
    /// Returns whether `out` is what the shadow predicts, and advances it.
    fn check(&self, shadow: &mut [u64], op: &Self::Op, out: &Self::Out) -> bool;
    /// Name of the body's span in the exported trace.
    const BODY_SPAN: &'static str;
    /// Consecutive ops timed as one latency sample (reported per op).
    fn latency_group(&self) -> u32 {
        1
    }
}

struct InProc<'e, S: OpSet> {
    handle: Box<dyn TmThread + 'e>,
    set: S,
    rng: SplitMix64,
    ops: Vec<S::Op>,
    outs: Vec<S::Out>,
    shadow: Vec<u64>,
    n: usize,
    digest: u64,
}

impl<'e, S: OpSet> InProc<'e, S> {
    fn new(
        engine: &'e dyn PersistentTm,
        set: S,
        rng: SplitMix64,
        n: usize,
        shadow: Vec<u64>,
    ) -> Self {
        InProc {
            handle: engine.register_thread(0),
            set,
            rng,
            ops: Vec::with_capacity(n),
            outs: vec![S::Out::default(); n],
            shadow,
            n,
            digest: 0,
        }
    }
}

impl<S: OpSet> InProc<'_, S> {
    /// Runs every prepared op as one transaction, calling `after` when each
    /// has committed.
    fn execute_all(&mut self, mut after: impl FnMut()) {
        let set = &self.set;
        for (op, out) in self.ops.iter().zip(self.outs.iter_mut()) {
            self.handle.execute(&mut |t| {
                *out = set.body(t, op)?;
                Ok(())
            });
            after();
        }
    }
}

impl<S: OpSet> Worker for InProc<'_, S> {
    fn prepare(&mut self) {
        self.ops.clear();
        for _ in 0..self.n {
            let op = self.set.generate(&mut self.rng);
            self.digest = mix64(self.digest ^ S::word(&op));
            self.ops.push(op);
        }
    }

    fn run_block(&mut self) {
        self.execute_all(|| {});
    }

    fn run_timed(&mut self, latencies_ns: &mut Vec<u64>) {
        let group = self.set.latency_group();
        latencies_ns.reserve(self.n / group as usize);
        // One clock read per sample: each runs from the previous sample's
        // end to the end of its last op.
        let mut last = Instant::now();
        let mut pending = 0;
        self.execute_all(|| {
            pending += 1;
            if pending == group {
                let now = Instant::now();
                latencies_ns.push((now - last).as_nanos() as u64 / u64::from(group));
                last = now;
                pending = 0;
            }
        });
    }

    fn run_traced(&mut self, sink: &mut TraceSink) {
        let set = &self.set;
        for (op, out) in self.ops.iter().zip(self.outs.iter_mut()) {
            let e0 = now_ns();
            let exec = sink.open("core.execute", e0, None);
            self.handle.execute(&mut |t| {
                let b0 = now_ns();
                let body = sink.open(S::BODY_SPAN, b0, exec);
                let result = set.body(
                    &mut TimedOps {
                        inner: t,
                        sink: &mut *sink,
                        parent: body,
                    },
                    op,
                );
                let b1 = now_ns();
                sink.close(body, b1);
                sink.times.body_ns += b1 - b0;
                sink.times.body_runs += 1;
                *out = result?;
                Ok(())
            });
            let e1 = now_ns();
            sink.close(exec, e1);
            sink.times.execute_ns += e1 - e0;
        }
    }

    fn check(&mut self) -> (u64, u64) {
        let mut failed = 0;
        for (op, out) in self.ops.iter().zip(&self.outs) {
            failed += u64::from(!self.set.check(&mut self.shadow, op, out));
        }
        (self.ops.len() as u64, failed)
    }

    fn stream_digest(&self) -> u64 {
        self.digest
    }

    fn into_shadow(self: Box<Self>) -> Vec<u64> {
        self.shadow
    }
}

/// Bank transfers. The op is the seed of one transaction's account picks,
/// so a re-executed body (Crafty's Validate phase, HTM retries) touches the
/// same accounts. Conservation is checked by the audit, not per op.
struct BankOps<'m> {
    mix: &'m dyn TxnMix,
}

impl OpSet for BankOps<'_> {
    type Op = u64;
    type Out = ();
    const BODY_SPAN: &'static str = "workloads.body";

    fn generate(&self, rng: &mut SplitMix64) -> u64 {
        rng.next_u64()
    }
    fn word(picks: &u64) -> u64 {
        *picks
    }
    fn body(&self, t: &mut dyn TxnOps, picks: &u64) -> Result<(), TxAbort> {
        self.mix.run_txn(0, 0, &mut SplitMix64::new(*picks), t)
    }
    fn check(&self, _: &mut [u64], _: &u64, _: &()) -> bool {
        true
    }
}

/// Scrambled-zipfian key generation shared by the KV workloads.
#[derive(Clone, Copy)]
struct KeyGen<'z> {
    zipf: &'z Zipfian,
    key_base: u64,
}

impl KeyGen<'_> {
    fn next(&self, rng: &mut SplitMix64) -> (u32, u64) {
        let rank = self.zipf.sample(rng);
        (rank as u32, key_of(self.key_base, rank))
    }
}

#[derive(Clone, Copy)]
struct KvOp {
    rank: u32,
    key: u64,
    /// The value to store (`kv-update`); unused by reads.
    value: u64,
}

/// `ShardedKv::get` in read-only transactions, or `ShardedKv::put` to
/// existing keys.
struct KvOps<'z> {
    kv: ShardedKv,
    keys: KeyGen<'z>,
    update: bool,
}

impl OpSet for KvOps<'_> {
    type Op = KvOp;
    type Out = Option<u64>;
    const BODY_SPAN: &'static str = "kv.body";

    fn generate(&self, rng: &mut SplitMix64) -> KvOp {
        let (rank, key) = self.keys.next(rng);
        let value = if self.update { rng.next_u64() } else { 0 };
        KvOp { rank, key, value }
    }
    fn word(op: &KvOp) -> u64 {
        op.key ^ op.value.rotate_left(32)
    }
    fn body(&self, t: &mut dyn TxnOps, op: &KvOp) -> Result<Option<u64>, TxAbort> {
        if self.update {
            self.kv.put(t, op.key, op.value)
        } else {
            self.kv.get(t, op.key)
        }
    }
    /// A clock read costs 30–50 ns on this host, a third of a `get`, and
    /// by how much changes from run to run: timed one by one, `kv-read`'s
    /// `p50_us` was 129 ns in one run and 150 ns in the next while its
    /// throughput agreed within 1%. Sixteen gets share one clock read.
    fn latency_group(&self) -> u32 {
        if self.update {
            1
        } else {
            16
        }
    }
    fn check(&self, shadow: &mut [u64], op: &KvOp, out: &Option<u64>) -> bool {
        let slot = &mut shadow[op.rank as usize];
        let ok = *out == Some(*slot);
        if self.update {
            *slot = op.value;
        }
        ok
    }
}

// --------------------------------------------------------------------
// serve-pipe: one pipelining client against the loopback server.
// --------------------------------------------------------------------

struct PipeClient<'z> {
    client: KvClient,
    keys: KeyGen<'z>,
    rng: SplitMix64,
    ranks: Vec<u32>,
    requests: Vec<Request>,
    responses: Vec<Response>,
    shadow: Vec<u64>,
    n: usize,
    digest: u64,
}

/// When one slide of the pipe was sent and received, in trace-clock ns.
#[derive(Clone, Copy, Default)]
struct SlideTimes {
    send_start: u64,
    send_end: u64,
    recv_start: u64,
    recv_end: u64,
}

impl PipeClient<'_> {
    /// Runs the window's requests through the pipe: up to [`PIPE_WINDOW`]
    /// in flight, sent and received [`PIPE_SLIDE`] at a time; drained when
    /// it returns. With `CLOCK`, returns each slide's timestamps. A
    /// transport error ends the window early, and the missing responses
    /// count as failures in `check`.
    fn pump<const CLOCK: bool>(&mut self) -> Vec<SlideTimes> {
        let clock = || if CLOCK { now_ns() } else { 0 };
        let slides: Vec<&[Request]> = self.requests.chunks(PIPE_SLIDE).collect();
        let mut times = vec![SlideTimes::default(); if CLOCK { slides.len() } else { 0 }];
        let ahead = PIPE_WINDOW / PIPE_SLIDE;
        let mut sent = 0;
        for (index, slide) in slides.iter().enumerate() {
            while sent < slides.len() && sent < index + ahead {
                let send_start = clock();
                if self.client.send(slides[sent]).is_err() {
                    return times;
                }
                if CLOCK {
                    times[sent].send_start = send_start;
                    times[sent].send_end = clock();
                }
                sent += 1;
            }
            let recv_start = clock();
            match self.client.recv(slide.len()) {
                Ok(r) => self.responses.extend(r),
                Err(_) => return times,
            }
            if CLOCK {
                times[index].recv_start = recv_start;
                times[index].recv_end = clock();
            }
        }
        times
    }
}

impl Worker for PipeClient<'_> {
    fn prepare(&mut self) {
        self.ranks.clear();
        self.requests.clear();
        self.responses.clear();
        for _ in 0..self.n {
            let (rank, key) = self.keys.next(&mut self.rng);
            let draw = self.rng.next_u64();
            self.digest = mix64(self.digest ^ key ^ draw.rotate_left(32));
            self.ranks.push(rank);
            // 50% Get / 50% Put, decided by the low bit; the whole draw is
            // the value.
            self.requests.push(if draw & 1 == 0 {
                Request::Get { key }
            } else {
                Request::Put { key, value: draw }
            });
        }
    }

    fn run_block(&mut self) {
        self.pump::<false>();
    }

    fn run_timed(&mut self, latencies_ns: &mut Vec<u64>) {
        // A request's latency runs from the send of its slide to the
        // arrival of its response.
        for (t, slide) in self
            .pump::<true>()
            .iter()
            .zip(self.requests.chunks(PIPE_SLIDE))
        {
            let ns = t.recv_end.saturating_sub(t.send_start);
            latencies_ns.extend(std::iter::repeat_n(ns, slide.len()));
        }
    }

    fn run_traced(&mut self, sink: &mut TraceSink) {
        for t in self.pump::<true>() {
            let send = sink.open("server.client_send", t.send_start, None);
            sink.close(send, t.send_end);
            let recv = sink.open("server.client_recv", t.recv_start, None);
            sink.close(recv, t.recv_end);
            sink.times.send_ns += t.send_end - t.send_start;
            sink.times.recv_ns += t.recv_end.saturating_sub(t.recv_start);
        }
    }

    fn check(&mut self) -> (u64, u64) {
        let mut failed = (self.requests.len() - self.responses.len()) as u64;
        for ((req, resp), rank) in self.requests.iter().zip(&self.responses).zip(&self.ranks) {
            let slot = &mut self.shadow[*rank as usize];
            // `Busy`, `Missing` and a wrong value all miss the prediction.
            failed += u64::from(*resp != Response::Found { value: *slot });
            if let Request::Put { value, .. } = req {
                *slot = *value;
            }
        }
        (self.requests.len() as u64, failed)
    }

    fn stream_digest(&self) -> u64 {
        self.digest
    }

    fn into_shadow(self: Box<Self>) -> Vec<u64> {
        self.shadow
    }
}

// --------------------------------------------------------------------
// The audit.
// --------------------------------------------------------------------

/// What the audit found.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Keys / invariants found wrong, live and after recovery.
    pub wrong: u64,
    /// Keys / invariants checked.
    pub checked: u64,
    pub recover_ms: f64,
    pub recover_sequences: u64,
    /// Descriptions of the first few violations.
    pub notes: Vec<String>,
}

impl AuditReport {
    fn fail(&mut self, count: u64, note: String) {
        self.wrong += count;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

impl Rig {
    /// Audits the workload after its last window: the live invariant, then
    /// `crash()` → `recover` → `boot` → reopen, checking conservation or
    /// "every acknowledged put is readable" against `shadow` — that is,
    /// from only the bytes flushed before the crash. `tamper` edits the
    /// crash image before recovery (the audit's own teeth test).
    pub fn audit(&self, shadow: &[u64], tamper: Option<&crate::run::Tamper>) -> AuditReport {
        let mut report = AuditReport::default();
        let crafty = self
            .crafty
            .as_ref()
            .expect("only the engine under test is audited");

        // In-process callers are acknowledged by `execute` returning, but
        // recovery may still roll back each thread's *latest* sequence;
        // the fence pins it, as the server does before every ack. The
        // server's acks are already fenced, so its store is crashed as is —
        // with the server still up.
        if self.id != WorkloadId::ServePipe {
            self.engine.persist_fence(0);
        }
        let live = match &self.data {
            Data::Bank { .. } => None,
            Data::Kv { kv, .. } => Some(*kv),
        };
        self.check_state(&self.mem, live, shadow, "live", &mut report);

        let mut image = self.mem.crash();
        if let Some(tamper) = tamper {
            tamper(self, &mut image);
        }
        let started = Instant::now();
        match recover(&mut image, crafty.directory_addr()) {
            Ok(r) => report.recover_sequences = r.sequences_found as u64,
            Err(e) => report.fail(1, format!("recovery failed: {e}")),
        }
        report.recover_ms = started.elapsed().as_secs_f64() * 1e3;

        let rebooted = Arc::new(MemorySpace::boot(&image, self.pmem_cfg));
        // Replay the reservations in set-up order so `open` finds the store.
        let _engine = Crafty::new(Arc::clone(&rebooted), self.crafty_cfg);
        let reopened = match &self.data {
            Data::Bank { .. } => None,
            Data::Kv { kv_cfg, .. } => Some(ShardedKv::open(&rebooted, kv_cfg)),
        };
        self.check_state(&rebooted, reopened, shadow, "recovered", &mut report);
        report
    }

    /// Checks `mem` (with the store handle that belongs to it, on KV rigs)
    /// against the workload's invariant and the shadow model.
    fn check_state(
        &self,
        mem: &MemorySpace,
        kv: Option<ShardedKv>,
        shadow: &[u64],
        what: &str,
        r: &mut AuditReport,
    ) {
        match &self.data {
            Data::Bank { mix } => {
                r.checked += 1;
                if let Err(e) = mix.verify(mem) {
                    r.fail(1, format!("{what}: {e}"));
                }
            }
            Data::Kv { key_base, .. } => {
                let kv = kv.expect("a KV rig is checked through its store");
                r.checked += 1;
                if let Err(e) = kv.check_integrity(mem) {
                    r.fail(1, format!("{what}: integrity: {e}"));
                }
                for (rank, expected) in shadow.iter().enumerate() {
                    r.checked += 1;
                    let key = key_of(*key_base, rank as u64);
                    let got = kv.get_direct(mem, key);
                    if got != Some(*expected) {
                        r.fail(
                            1,
                            format!("{what}: key {key:#x} holds {got:?}, expected {expected:#x}"),
                        );
                    }
                }
            }
        }
    }

    /// Persistent address of the value word of the key of popularity rank
    /// `rank`, found by reading the store through a recording `TxnOps`
    /// (tests corrupt it in the crash image).
    #[cfg(test)]
    pub fn value_word_of_rank(&self, rank: u64) -> crafty_common::PAddr {
        let Data::Kv { kv, key_base, .. } = &self.data else {
            panic!("bank has no keys");
        };
        let mut rec = Recording::new(&self.mem);
        kv.get(&mut rec, key_of(*key_base, rank))
            .expect("direct read");
        *rec.reads
            .last()
            .expect("a found key ends on its value word")
    }

    /// The value the prefill stored under the key of rank `rank`.
    #[cfg(test)]
    pub fn prefill_value_of_rank(&self, rank: u64) -> u64 {
        let Data::Kv { key_base, .. } = &self.data else {
            panic!("bank has no keys");
        };
        mix64(key_of(*key_base, rank))
    }

    /// Persistent address of one bank balance, found by running a transfer
    /// body through a recording `TxnOps`.
    #[cfg(test)]
    pub fn some_bank_balance(&self) -> crafty_common::PAddr {
        let Data::Bank { mix } = &self.data else {
            panic!("only bank has balances");
        };
        let mut rec = Recording::new(&self.mem);
        mix.run_txn(0, 0, &mut SplitMix64::new(1), &mut rec)
            .expect("direct transfer");
        rec.reads[0]
    }
}

/// A `TxnOps` that reads memory directly and records the addresses read;
/// writes are dropped.
#[cfg(test)]
pub struct Recording<'m> {
    mem: &'m MemorySpace,
    pub reads: Vec<crafty_common::PAddr>,
    pub written: Vec<u64>,
}

#[cfg(test)]
impl<'m> Recording<'m> {
    pub fn new(mem: &'m MemorySpace) -> Self {
        Recording {
            mem,
            reads: Vec::new(),
            written: Vec::new(),
        }
    }
}

#[cfg(test)]
impl TxnOps for Recording<'_> {
    fn read(&mut self, addr: crafty_common::PAddr) -> Result<u64, TxAbort> {
        self.reads.push(addr);
        Ok(self.mem.read(addr))
    }
    fn write(&mut self, _: crafty_common::PAddr, value: u64) -> Result<(), TxAbort> {
        self.written.push(value);
        Ok(())
    }
    fn alloc(&mut self, _: u64) -> Result<crafty_common::PAddr, TxAbort> {
        unreachable!("the benchmark's bodies never allocate")
    }
    fn dealloc(&mut self, _: crafty_common::PAddr, _: u64) -> Result<(), TxAbort> {
        unreachable!("the benchmark's bodies never allocate")
    }
}
