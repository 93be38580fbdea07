//! The open-loop service benchmark behind `figures kvserve` and its local
//! `BENCH_kvserve.json` output.
//!
//! Boots the networked KV front-end (`crafty-server`) over a prefilled
//! [`crafty_kv::ShardedKv`] on loopback, offers it an **open-loop**
//! schedule ([`crafty_workloads::openloop`]) at a sweep of arrival rates,
//! and reports latency percentiles (p50/p99/p999) per engine per rate.
//! Latency is measured from each operation's *intended* send time, so a
//! server that falls behind charges the backlog to the requests that
//! queued — coordinated omission stays visible, which is the entire point
//! of driving the store through a service instead of the closed-loop
//! driver. A point the server could not keep up with
//! ([`KvServePoint::saturated`]) reports no percentile at all: there the
//! numbers measure how long the run was, not how fast the server answers.
//!
//! Three engine configurations bound the durability trade:
//!
//! * **Non-durable** — the floor: no persistence work at all.
//! * **Crafty** — per-request acknowledgement: every write is fenced and
//!   acked alone, putting the full fence on every write's critical path.
//! * **Crafty+gc** — the server's group-commit window: a batch of
//!   pipelined requests shares one fence, issued before any of the
//!   batch's acks. Same durability statement per ack, amortized fence
//!   cost.
//!
//! The drain dominates the service time by construction (the default
//! [`KvServeConfig`] uses a deliberately expensive fence,
//! [`KvServeConfig::SERVICE_DRAIN_NS`]), so the per-txn vs group-commit
//! gap shows up above loopback and scheduler noise: the per-transaction
//! engine saturates at a rate the group-commit server, amortizing the same
//! fences across naturally deepening pipelines, still keeps up with.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crafty_common::wait;
use crafty_kv::{DirectOps, KvConfig, SessionTable, ShardedKv};
use crafty_pmem::{LatencyModel, MemorySpace, PmemConfig};
use crafty_server::{KvClient, KvServer, Request, ServerConfig};
use crafty_stats::{Json, LatencyHistogram};
use crafty_workloads::{build_engine, ArrivalProcess, EngineKind, OpKind, OpenLoopConfig};

use crate::{artifact, round2, round4};

/// The engine configurations the service benchmark sweeps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KvServeEngine {
    /// No durability at all (the latency floor).
    NonDurable,
    /// Crafty with per-request acknowledgement: each write is fenced and
    /// acked alone.
    Crafty,
    /// Crafty behind the server's group-commit window: one fence per
    /// pipelined batch.
    CraftyGc,
}

impl KvServeEngine {
    /// All three configurations, legend order.
    pub const ALL: [KvServeEngine; 3] = [
        KvServeEngine::NonDurable,
        KvServeEngine::Crafty,
        KvServeEngine::CraftyGc,
    ];

    /// The legend label.
    pub fn label(self) -> &'static str {
        match self {
            KvServeEngine::NonDurable => "Non-durable",
            KvServeEngine::Crafty => "Crafty",
            KvServeEngine::CraftyGc => "Crafty+gc",
        }
    }

    /// Parses a label as written on the command line.
    ///
    /// # Errors
    ///
    /// Names the unknown label and the legal ones.
    pub fn from_label(s: &str) -> Result<Self, String> {
        match s {
            "Non-durable" | "non-durable" | "nondurable" => Ok(KvServeEngine::NonDurable),
            "Crafty" | "crafty" => Ok(KvServeEngine::Crafty),
            "Crafty+gc" | "crafty+gc" | "crafty-gc" => Ok(KvServeEngine::CraftyGc),
            other => Err(format!(
                "unknown kvserve engine `{other}` (expected non-durable, crafty, or crafty-gc)"
            )),
        }
    }

    fn kind(self) -> EngineKind {
        match self {
            KvServeEngine::NonDurable => EngineKind::NonDurable,
            KvServeEngine::Crafty | KvServeEngine::CraftyGc => EngineKind::Crafty,
        }
    }

    fn group_commit(self) -> bool {
        matches!(self, KvServeEngine::CraftyGc)
    }
}

impl std::str::FromStr for KvServeEngine {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        KvServeEngine::from_label(s)
    }
}

/// Parameters of one `kvserve` sweep.
#[derive(Clone, Debug)]
pub struct KvServeConfig {
    /// Engine configurations to sweep.
    pub engines: Vec<KvServeEngine>,
    /// Offered arrival rates (operations/second), one point per rate.
    pub rates: Vec<u64>,
    /// Operations per point.
    pub ops: u64,
    /// Prefilled record population (zipfian reads draw from it).
    pub records: u64,
    /// Client connections; the schedule round-robins across them.
    pub connections: usize,
    /// Server accept-and-serve workers.
    pub workers: usize,
    /// Percentage of operations that are reads.
    pub read_pct: u32,
    /// Zipfian skew of the key popularity.
    pub theta: f64,
    /// The arrival process (fixed-rate or Poisson).
    pub arrival: ArrivalProcess,
    /// Schedule and key-mix seed.
    pub seed: u64,
    /// Persistence latency model of the simulated NVM.
    pub latency: LatencyModel,
}

impl KvServeConfig {
    /// Drain cost of the default service configuration: 50 µs, an
    /// expensive fence (remote persistence domain, UPS-backed flush, or a
    /// replicated ack). Large on purpose — it puts the durability cost
    /// well above loopback RTT and scheduler jitter, so the per-txn vs
    /// group-commit ordering is a property of the design, not of the
    /// machine the benchmark happens to run on.
    pub const SERVICE_DRAIN_NS: u64 = 50_000;

    /// The default sweep: rates chosen around the per-transaction
    /// engine's drain-bound capacity (2 workers × 50 µs write fences ⇒
    /// roughly 80 k mixed ops/s), so the sweep crosses it while the
    /// group-commit server still has headroom.
    pub fn quick() -> Self {
        KvServeConfig {
            engines: KvServeEngine::ALL.to_vec(),
            rates: vec![20_000, 40_000, 80_000],
            ops: 12_000,
            records: 4_000,
            connections: 2,
            workers: 2,
            read_pct: 50,
            theta: crafty_common::YCSB_THETA,
            arrival: ArrivalProcess::Poisson,
            seed: 0x5E17,
            latency: LatencyModel {
                drain_ns: Self::SERVICE_DRAIN_NS,
                ..LatencyModel::nvm_300ns()
            },
        }
    }

    fn open_loop(&self, rate: u64) -> OpenLoopConfig {
        OpenLoopConfig {
            rate_per_sec: rate,
            ops: self.ops,
            seed: self.seed,
            records: self.records,
            theta: self.theta,
            read_pct: self.read_pct,
            arrival: self.arrival,
        }
    }

    fn pmem_config(&self) -> PmemConfig {
        PmemConfig {
            persistent_words: 1 << 22,
            volatile_words: 1 << 20,
            max_threads: self.workers + 2,
            latency: self.latency,
            ..PmemConfig::benchmark()
        }
    }
}

/// One (engine, rate) sample: the latency distribution plus the served
/// throughput and batching the server actually achieved.
#[derive(Clone, Debug)]
pub struct KvServePoint {
    /// Engine legend label.
    pub engine: String,
    /// Offered arrival rate (ops/s).
    pub rate_per_sec: u64,
    /// Operations completed.
    pub ops: u64,
    /// Completed operations per wall-clock second (≤ offered rate when
    /// the server keeps up; the backlog drains after the schedule ends
    /// when it does not).
    pub achieved_rate: f64,
    /// Mean pipelined-batch depth the server saw (its group-commit
    /// amortization factor).
    pub mean_batch: f64,
    /// The full latency distribution, measured from intended send times.
    pub latency: LatencyHistogram,
}

impl KvServePoint {
    /// Whether the server fell behind the offered schedule (achieved less
    /// than 95% of it). The backlog then grows for as long as the run
    /// lasts, so a "latency" percentile is a queue length set by `ops`,
    /// not a property of the server.
    pub fn saturated(&self) -> bool {
        self.achieved_rate < 0.95 * self.rate_per_sec as f64
    }

    /// `(p50, p99, p999)` in nanoseconds; `None` for a
    /// [saturated](Self::saturated) point.
    pub fn percentiles(&self) -> Option<(u64, u64, u64)> {
        (!self.saturated()).then(|| {
            (
                self.latency.percentile(0.50),
                self.latency.percentile(0.99),
                self.latency.percentile(0.999),
            )
        })
    }
}

/// Runs the full sweep: every engine at every rate, a fresh memory space
/// and server per point (like the paper's per-point process runs).
pub fn run_kvserve(cfg: &KvServeConfig) -> Vec<KvServePoint> {
    let mut points = Vec::new();
    for &engine in &cfg.engines {
        for &rate in &cfg.rates {
            points.push(run_kvserve_point(cfg, engine, rate));
        }
    }
    points
}

/// Runs one (engine, rate) point end to end: boot, prefill, serve the
/// schedule open-loop, shut down, verify store integrity.
pub fn run_kvserve_point(cfg: &KvServeConfig, engine: KvServeEngine, rate: u64) -> KvServePoint {
    let mem = Arc::new(MemorySpace::new(cfg.pmem_config()));
    let tm: Arc<dyn crafty_common::PersistentTm> =
        Arc::from(build_engine(engine.kind(), &mem, cfg.workers));
    let kv = ShardedKv::create(&mem, &KvConfig::benchmark(cfg.records, 16));

    // Prefill the schedule's key population directly (setup time, not
    // measured), then persist so the run starts from a durable store.
    let schedule_cfg = cfg.open_loop(rate);
    {
        let mut ops = DirectOps::new(&mem);
        for rank in 0..cfg.records {
            let key = schedule_cfg.scrambled_key(rank);
            kv.put(&mut ops, key, crafty_common::mix64(key))
                .expect("direct prefill cannot abort");
        }
        kv.persist_all(&mem, 0);
    }

    let sessions = SessionTable::create(&mem, 64);
    let server = KvServer::start(
        Arc::clone(&tm),
        kv,
        sessions,
        ServerConfig::loopback(cfg.workers, engine.group_commit()),
    )
    .expect("bind loopback server");
    let addr = server.local_addr();

    let schedule = Arc::new(schedule_cfg.schedule());
    let connections = cfg.connections.max(1);
    let start = Instant::now();
    let elapsed_ns = Arc::new(AtomicU64::new(0));

    // One sender + one receiver thread per connection; the schedule is
    // dealt round-robin so every connection carries the configured rate
    // share. Latency = receive time − intended send time.
    let histogram = std::thread::scope(|s| {
        let mut receivers = Vec::new();
        for conn in 0..connections {
            let client = KvClient::connect(addr).expect("connect load client");
            let mut tx = client.split().expect("split client");
            let mut rx = client;
            let send_schedule = Arc::clone(&schedule);
            let recv_schedule = Arc::clone(&schedule);
            let elapsed_ns = Arc::clone(&elapsed_ns);
            let my_ops: Vec<usize> = (conn..schedule.len()).step_by(connections).collect();
            let send_ops = my_ops.clone();
            s.spawn(move || {
                for &i in &send_ops {
                    let op = send_schedule[i];
                    // Wait for the intended send time (coarse sleep, fine
                    // spin); a late sender just fires immediately — the
                    // lateness is charged to the op's latency, not hidden.
                    loop {
                        let ahead = op.at_ns.saturating_sub(start.elapsed().as_nanos() as u64);
                        if ahead <= 200_000 {
                            break;
                        }
                        std::thread::sleep(Duration::from_nanos(ahead / 2));
                    }
                    wait::deadline(Some(start), op.at_ns);
                    let req = match op.kind {
                        OpKind::Get { key } => Request::Get { key },
                        OpKind::Put { key, value } => Request::Put { key, value },
                    };
                    if tx.send(std::slice::from_ref(&req)).is_err() {
                        return;
                    }
                }
            });
            receivers.push(s.spawn(move || {
                let mut h = LatencyHistogram::new();
                for &i in &my_ops {
                    match rx.recv(1) {
                        Ok(_) => {
                            let now = start.elapsed().as_nanos() as u64;
                            h.record(now.saturating_sub(recv_schedule[i].at_ns));
                            elapsed_ns.fetch_max(now, Ordering::Relaxed);
                        }
                        Err(_) => return h,
                    }
                }
                h
            }));
        }
        let mut total = LatencyHistogram::new();
        for r in receivers {
            total.merge(&r.join().expect("receiver thread panicked"));
        }
        total
    });

    let stats = server.shutdown();
    tm.quiesce();
    kv.check_integrity(&mem)
        .unwrap_or_else(|e| panic!("store integrity after {} load: {e}", engine.label()));

    let wall_s = (elapsed_ns.load(Ordering::Relaxed).max(1)) as f64 / 1e9;
    KvServePoint {
        engine: engine.label().to_string(),
        rate_per_sec: rate,
        ops: histogram.count(),
        achieved_rate: histogram.count() as f64 / wall_s,
        mean_batch: stats.mean_batch(),
        latency: histogram,
    }
}

/// Renders the sweep as the `BENCH_kvserve.json` artifact: one point per
/// (engine, rate) with the latency columns the figures plot — or
/// `"saturated": true` in their place where the server fell behind.
pub fn render_kvserve_json(cfg: &KvServeConfig, points: &[KvServePoint]) -> String {
    let points = points
        .iter()
        .map(|p| {
            let o = Json::object()
                .with("engine", Json::from(p.engine.as_str()))
                .with("rate_per_sec", Json::from(p.rate_per_sec))
                .with("ops", Json::from(p.ops))
                .with("achieved_rate", Json::Float(round2(p.achieved_rate)))
                .with("mean_batch", Json::Float(round4(p.mean_batch)));
            match p.percentiles() {
                Some((p50, p99, p999)) => o
                    .with("p50_ns", Json::UInt(p50))
                    .with("p99_ns", Json::UInt(p99))
                    .with("p999_ns", Json::UInt(p999))
                    .with("mean_ns", Json::Float(round2(p.latency.mean())))
                    .with("max_ns", Json::UInt(p.latency.max())),
                None => o.with("saturated", Json::Bool(true)),
            }
        })
        .collect();
    artifact(
        "open-loop kv service",
        Json::object()
            .with("ops", Json::from(cfg.ops))
            .with("records", Json::from(cfg.records))
            .with("connections", Json::from(cfg.connections))
            .with("workers", Json::from(cfg.workers))
            .with("read_pct", Json::from(cfg.read_pct as u64))
            .with("zipf_theta", Json::Float(cfg.theta))
            .with("arrival", Json::from(cfg.arrival.label()))
            .with("seed", Json::from(cfg.seed))
            .with("drain_latency_ns", Json::from(cfg.latency.drain_ns)),
        points,
    )
}

/// Renders the human-readable table printed by `figures kvserve`.
pub fn render_kvserve_table(points: &[KvServePoint]) -> String {
    let mut out = format!(
        "{:<14} {:>10} {:>12} {:>8} {:>10} {:>10} {:>10}\n",
        "engine", "rate/s", "achieved/s", "batch", "p50 µs", "p99 µs", "p999 µs"
    );
    for p in points {
        out.push_str(&format!(
            "{:<14} {:>10} {:>12.0} {:>8.2} ",
            p.engine, p.rate_per_sec, p.achieved_rate, p.mean_batch,
        ));
        out.push_str(&match p.percentiles() {
            Some((p50, p99, p999)) => format!(
                "{:>10.1} {:>10.1} {:>10.1}\n",
                p50 as f64 / 1e3,
                p99 as f64 / 1e3,
                p999 as f64 / 1e3,
            ),
            None => format!("{:>32}\n", "saturated"),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crafty_server::Response;

    fn tiny() -> KvServeConfig {
        KvServeConfig {
            engines: vec![KvServeEngine::NonDurable],
            rates: vec![50_000],
            ops: 400,
            records: 200,
            connections: 2,
            workers: 2,
            read_pct: 50,
            theta: 0.99,
            arrival: ArrivalProcess::Poisson,
            seed: 3,
            latency: LatencyModel::instant(),
        }
    }

    #[test]
    fn one_point_serves_the_whole_schedule() {
        let _serial = crate::trace_test_lock();
        let cfg = tiny();
        let p = run_kvserve_point(&cfg, KvServeEngine::NonDurable, 50_000);
        assert_eq!(p.ops, 400, "every scheduled op must be served and acked");
        assert_eq!(p.engine, "Non-durable");
        assert!(p.achieved_rate > 0.0);
        assert!(p.latency.percentile(0.99) >= p.latency.percentile(0.50));
        // Saturation is exactly "achieved under 95% of offered", and a
        // saturated point has no percentile to report.
        assert_eq!(p.saturated(), p.achieved_rate < 0.95 * 50_000.0);
        assert_eq!(p.percentiles().is_none(), p.saturated());
        assert!(p.mean_batch >= 1.0);
    }

    #[test]
    fn labels_parse_round_trip() {
        for e in KvServeEngine::ALL {
            assert_eq!(KvServeEngine::from_label(e.label()).unwrap(), e);
        }
        assert_eq!(
            "crafty-gc".parse::<KvServeEngine>().unwrap(),
            KvServeEngine::CraftyGc
        );
        assert!("turbo".parse::<KvServeEngine>().is_err());
        assert!(KvServeEngine::CraftyGc.group_commit());
        assert!(!KvServeEngine::Crafty.group_commit());
    }

    #[test]
    fn json_and_table_carry_the_percentile_columns() {
        let _serial = crate::trace_test_lock();
        let cfg = tiny();
        let mut points = run_kvserve(&cfg);
        assert_eq!(points.len(), 1);
        // Pin the one point on each side of the saturation line, whatever
        // this host achieved: the renderers must follow the flag alone.
        points[0].achieved_rate = points[0].rate_per_sec as f64;
        let json = render_kvserve_json(&cfg, &points);
        for key in [
            "\"engine\"",
            "\"rate_per_sec\"",
            "\"p50_ns\"",
            "\"p99_ns\"",
            "\"p999_ns\"",
            "\"mean_batch\"",
            "\"arrival\"",
            "\"nproc\"",
            "\"revision\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains("\"saturated\""));
        let table = render_kvserve_table(&points);
        assert!(table.contains("p999 µs"));
        assert!(table.contains("Non-durable"));
        assert!(!table.contains("saturated"));

        points[0].achieved_rate = 0.94 * points[0].rate_per_sec as f64;
        let json = render_kvserve_json(&cfg, &points);
        assert!(json.contains("\"saturated\": true"));
        for key in ["p50_ns", "p99_ns", "p999_ns", "mean_ns", "max_ns"] {
            assert!(!json.contains(key), "saturated point reports {key}");
        }
        let row = render_kvserve_table(&points);
        let row = row.lines().nth(1).expect("one data row");
        assert!(row.ends_with("saturated"), "{row}");
    }

    #[test]
    fn response_type_is_reexported_for_consumers() {
        // The bench crate's public surface should let a caller express
        // protocol-level assertions without importing crafty-server.
        let r = Response::Missing;
        assert_eq!(r, Response::Missing);
    }
}
