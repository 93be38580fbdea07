//! The forced-fallback contention benchmark behind `BENCH_contention.json`.
//!
//! Every transaction is pushed through the software fallback
//! ([`CraftyConfig::with_force_fallback`]) so the two
//! [`FallbackPolicy`] designs are compared directly, with no hardware
//! fast path diluting the signal: a zipfian-skewed transfer mix over a
//! shared account array at 2–16 threads. Under the single global lock
//! every fallback serializes against every other, so throughput flatlines
//! (or degrades, from cacheline ping-pong) as threads are added; the
//! per-line policy locks only each transaction's write set, so
//! transactions with disjoint footprints — the common case even under
//! zipfian skew, given enough accounts — commit concurrently and
//! throughput scales.
//!
//! Every point runs the conservation-of-money audit after the sweep: the
//! account sum must be exactly `accounts × INITIAL` (wrapping transfers
//! preserve the sum only if no update is lost), and the hot-counter cell
//! every transaction increments must equal the total transaction count.
//! A point that fails its audit is reported with `conserved: false` and
//! the render panics — a benchmark that loses updates has no business
//! producing an artifact.

use std::sync::Arc;
use std::time::Instant;

use crafty_common::{PersistentTm, SplitMix64, Zipfian};
use crafty_core::{Crafty, CraftyConfig, FallbackPolicy};
use crafty_pmem::{LatencyModel, MemorySpace, PmemConfig};
use crafty_stats::Json;

use crate::{artifact, round2};

/// Initial balance per account.
const INITIAL: u64 = 1_000;

/// Parameters of one contention sweep.
#[derive(Clone, Debug)]
pub struct ContentionConfig {
    /// Thread counts to sweep (the paper-style ladder, 2–16 by default).
    pub thread_counts: Vec<usize>,
    /// Transfer transactions per thread at each point.
    pub txns_per_thread: u64,
    /// Accounts in the shared array (each on its own line).
    pub accounts: u64,
    /// Zipfian skew of the account picks (`0.99` = YCSB-hot).
    pub theta: f64,
    /// Workload seed (fixed across policies so both see the same picks).
    pub seed: u64,
    /// Emulated NVM latency model.
    pub latency: LatencyModel,
}

impl ContentionConfig {
    /// A sweep small enough for CI smokes: 2/4/8 threads, a few thousand
    /// transactions per thread, instant persistence (the contention being
    /// measured is lock-word contention, not drain latency).
    pub fn quick() -> Self {
        ContentionConfig {
            thread_counts: vec![2, 4, 8],
            txns_per_thread: 2_000,
            accounts: 256,
            theta: 0.9,
            seed: 42,
            latency: LatencyModel::instant(),
        }
    }
}

/// One (policy, thread count) sample of the contention sweep.
#[derive(Clone, Debug)]
pub struct ContentionPoint {
    /// Fallback policy label (`"sgl"` or `"per-line"`).
    pub policy: &'static str,
    /// Worker thread count.
    pub threads: usize,
    /// Transfer transactions committed across all threads.
    pub transactions: u64,
    /// Transactions per second over the measured region.
    pub ops_per_sec: f64,
    /// Whether the conservation-of-money and exact-count audits passed.
    pub conserved: bool,
}

/// Runs one (policy, thread count) point: a fresh space and engine, the
/// zipfian transfer mix, and the conservation audit.
pub fn run_contention_point(
    cfg: &ContentionConfig,
    policy: FallbackPolicy,
    threads: usize,
) -> ContentionPoint {
    let mem = Arc::new(MemorySpace::new(PmemConfig {
        persistent_words: 1 << 18,
        volatile_words: 1 << 16,
        max_threads: threads + 1,
        latency: cfg.latency,
        ..PmemConfig::small_for_tests()
    }));
    let engine = Arc::new(Crafty::new(
        Arc::clone(&mem),
        CraftyConfig::small_for_tests()
            .with_max_threads(threads)
            .with_undo_log_entries(256)
            .with_fallback(policy)
            .with_force_fallback(true),
    ));
    let base = mem.reserve_persistent(cfg.accounts * 8);
    for i in 0..cfg.accounts {
        mem.write(base.add(i * 8), INITIAL);
        mem.clwb(0, base.add(i * 8));
    }
    let hot = mem.reserve_persistent(1);
    mem.write(hot, 0);
    mem.clwb(0, hot);
    mem.drain(0);

    let accounts = cfg.accounts;
    let theta = cfg.theta;
    let txns = cfg.txns_per_thread;
    let seed = cfg.seed;
    let t0 = Instant::now();
    crossbeam::scope(|s| {
        for tid in 0..threads {
            let engine = Arc::clone(&engine);
            s.spawn(move |_| {
                let zipf = Zipfian::new(accounts, theta);
                let mut rng = SplitMix64::new(seed ^ (tid as u64 + 1).wrapping_mul(0x9E37));
                let mut thread = engine.register_thread(tid);
                for i in 0..txns {
                    let from = zipf.sample(&mut rng);
                    let to = zipf.sample(&mut rng);
                    let amount = rng.next_below(9) + 1;
                    // One transfer in 16 also bumps the shared hot counter,
                    // keeping a guaranteed-overlapping line in the mix
                    // without fully serializing the per-line policy.
                    let bump_hot = i % 16 == 0;
                    thread.execute(&mut |ops| {
                        let a = base.add(from * 8);
                        let b = base.add(to * 8);
                        let va = ops.read(a)?;
                        ops.write(a, va.wrapping_sub(amount))?;
                        let vb = ops.read(b)?;
                        ops.write(b, vb.wrapping_add(amount))?;
                        if bump_hot {
                            let h = ops.read(hot)?;
                            ops.write(hot, h + 1)?;
                        }
                        Ok(())
                    });
                }
            });
        }
    })
    .expect("contention workers");
    let elapsed = t0.elapsed();
    engine.quiesce();

    let transactions = threads as u64 * cfg.txns_per_thread;
    let total: u64 = (0..cfg.accounts)
        .map(|i| mem.read(base.add(i * 8)))
        .fold(0u64, |s, v| s.wrapping_add(v));
    let expected_hot: u64 = threads as u64 * cfg.txns_per_thread.div_ceil(16);
    let conserved = total == cfg.accounts * INITIAL && mem.read(hot) == expected_hot;
    ContentionPoint {
        policy: policy.label(),
        threads,
        transactions,
        ops_per_sec: transactions as f64 / elapsed.as_secs_f64().max(1e-9),
        conserved,
    }
}

/// Runs the full sweep: both policies at every configured thread count.
pub fn run_contention(cfg: &ContentionConfig) -> Vec<ContentionPoint> {
    let mut points = Vec::new();
    for policy in [FallbackPolicy::Sgl, FallbackPolicy::PerLine] {
        for &threads in &cfg.thread_counts {
            points.push(run_contention_point(cfg, policy, threads));
        }
    }
    points
}

/// Renders the sweep as the `BENCH_contention.json` artifact. Panics if
/// any point failed its conservation audit — corrupt numbers must never
/// become a committed baseline.
pub fn render_contention_json(cfg: &ContentionConfig, points: &[ContentionPoint]) -> String {
    let points = points
        .iter()
        .map(|p| {
            assert!(
                p.conserved,
                "contention point ({}, {} threads) lost updates — not rendering",
                p.policy, p.threads
            );
            Json::object()
                .with("policy", Json::from(p.policy))
                .with("threads", Json::from(p.threads))
                .with("transactions", Json::from(p.transactions))
                .with("ops_per_sec", Json::Float(round2(p.ops_per_sec)))
                .with("conserved", Json::Bool(p.conserved))
        })
        .collect();
    artifact(
        "forced-fallback zipfian transfers (sgl vs per-line)",
        Json::object()
            .with("txns_per_thread", Json::from(cfg.txns_per_thread))
            .with("accounts", Json::from(cfg.accounts))
            .with("theta", Json::Float(cfg.theta))
            .with("drain_latency_ns", Json::from(cfg.latency.drain_ns))
            .with("seed", Json::from(cfg.seed)),
        points,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_policies_sweep_cleanly_and_render() {
        let cfg = ContentionConfig {
            thread_counts: vec![2, 4],
            txns_per_thread: 150,
            ..ContentionConfig::quick()
        };
        let points = run_contention(&cfg);
        assert_eq!(points.len(), 4);
        assert!(
            points.iter().all(|p| p.conserved),
            "audit failed: {points:?}"
        );
        assert!(points.iter().all(|p| p.ops_per_sec > 0.0));
        let json = render_contention_json(&cfg, &points);
        assert!(json.contains("\"policy\": \"per-line\""));
        assert!(json.contains("\"policy\": \"sgl\""));
        assert!(json.contains("\"conserved\": true"));
    }
}
