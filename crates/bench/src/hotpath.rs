//! The tracked hot-path benchmark behind `BENCH_hotpath.json`.
//!
//! Every PR that touches the transaction hot path regenerates this
//! artifact (`cargo run --release -p crafty-bench --bin figures -- hotpath`)
//! so the repository carries a perf trajectory: single-point bank-workload
//! throughput per engine per thread count, plus the hardware-transaction
//! abort breakdown that explains throughput shifts.

use crafty_common::{CompletionPath, HwTxnOutcome};
use crafty_stats::Json;
use crafty_workloads::{BankWorkload, Contention};

use crate::{round2, round4, run_point, HarnessConfig};

/// One (engine, thread count) sample of the tracked hot-path benchmark.
#[derive(Clone, Debug)]
pub struct HotpathPoint {
    /// Engine legend label.
    pub engine: String,
    /// Worker thread count.
    pub threads: usize,
    /// Persistent transactions executed across all threads.
    pub transactions: u64,
    /// Transactions per second.
    pub ops_per_sec: f64,
    /// Completion-path counts (read-only / redo / validate / sgl / …).
    pub completions: Vec<(&'static str, u64)>,
    /// Hardware-transaction outcome counts (commit / conflict / …).
    pub hw_outcomes: Vec<(&'static str, u64)>,
    /// Words actually copied to the persistent image by write-backs.
    pub words_persisted: u64,
    /// Words whole-line write-backs would have copied for the same events.
    pub line_words_persisted: u64,
    /// Measured write amplification (`words / line_words`; 1.0 = fully
    /// dirty lines, lower = the word-granular pipeline saved bandwidth).
    pub write_amplification: f64,
    /// Lines written back by drains.
    pub lines_persisted: u64,
    /// Ranged flushes the drains issued; `< lines_persisted` means the
    /// coalescing pipeline found adjacent runs.
    pub flush_ranges: u64,
    /// Average adjacent-line run length (`range_lines / flush_ranges`).
    pub lines_per_range: f64,
}

/// Runs the tracked benchmark: the medium-contention bank workload (the
/// paper's Figure 6b configuration) on every engine at every configured
/// thread count.
pub fn run_hotpath(cfg: &HarnessConfig) -> Vec<HotpathPoint> {
    let max_threads = cfg.thread_counts.iter().copied().max().unwrap_or(1);
    let workload = BankWorkload::paper(Contention::Medium, max_threads);
    let mut points = Vec::new();
    for &kind in &cfg.engines {
        for &threads in &cfg.thread_counts {
            let (m, breakdown, pmem) = run_point(&workload, kind, threads, cfg);
            points.push(HotpathPoint {
                engine: kind.label().to_string(),
                threads,
                transactions: m.transactions,
                ops_per_sec: m.throughput(),
                completions: CompletionPath::ALL
                    .iter()
                    .map(|&p| (p.label(), breakdown.completions(p)))
                    .collect(),
                hw_outcomes: HwTxnOutcome::ALL
                    .iter()
                    .map(|&o| (o.label(), breakdown.hw(o)))
                    .collect(),
                words_persisted: pmem.words_persisted,
                line_words_persisted: pmem.line_words_persisted,
                write_amplification: pmem.write_amplification(),
                lines_persisted: pmem.lines_persisted,
                flush_ranges: pmem.flush_ranges,
                lines_per_range: pmem.lines_per_range(),
            });
        }
    }
    points
}

/// Renders the hot-path samples as the committed JSON artifact.
pub fn render_hotpath_json(cfg: &HarnessConfig, points: &[HotpathPoint]) -> String {
    let mut arr = Vec::with_capacity(points.len());
    for p in points {
        let mut completions = Json::object();
        for (label, count) in &p.completions {
            completions.set(label, Json::UInt(*count));
        }
        let mut hw = Json::object();
        for (label, count) in &p.hw_outcomes {
            hw.set(label, Json::UInt(*count));
        }
        arr.push(
            Json::object()
                .with("engine", Json::from(p.engine.as_str()))
                .with("threads", Json::from(p.threads))
                .with("transactions", Json::from(p.transactions))
                .with("ops_per_sec", Json::Float(round2(p.ops_per_sec)))
                .with("words_persisted", Json::UInt(p.words_persisted))
                .with(
                    "write_amplification",
                    Json::Float(round4(p.write_amplification)),
                )
                .with("lines_persisted", Json::UInt(p.lines_persisted))
                .with("flush_ranges", Json::UInt(p.flush_ranges))
                .with("lines_per_range", Json::Float(round4(p.lines_per_range)))
                .with("completions", completions)
                .with("hw_outcomes", hw),
        );
    }
    Json::object()
        .with("benchmark", Json::from("bank (medium contention)"))
        .with(
            "config",
            Json::object()
                .with("txns_per_thread", Json::from(cfg.txns_per_thread))
                .with("drain_latency_ns", Json::from(cfg.latency.drain_ns))
                .with("seed", Json::from(cfg.seed))
                // Multi-thread points mean nothing without it: on fewer
                // CPUs than threads they measure the scheduler.
                .with(
                    "nproc",
                    Json::from(std::thread::available_parallelism().map_or(0, |n| n.get())),
                ),
        )
        .with("points", Json::Array(arr))
        .render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crafty_pmem::LatencyModel;
    use crafty_workloads::EngineKind;

    #[test]
    fn hotpath_points_and_json_are_produced() {
        let cfg = HarnessConfig {
            engines: vec![EngineKind::NonDurable, EngineKind::Crafty],
            thread_counts: vec![1],
            txns_per_thread: 50,
            latency: LatencyModel::instant(),
            persistent_words: 1 << 18,
            seed: 1,
        };
        let points = run_hotpath(&cfg);
        assert_eq!(points.len(), 2);
        assert!(points.iter().all(|p| p.transactions == 50));
        assert!(points.iter().all(|p| p.ops_per_sec > 0.0));
        let json = render_hotpath_json(&cfg, &points);
        assert!(json.contains("\"engine\": \"Crafty\""));
        assert!(json.contains("\"nproc\""));
        assert!(json.contains("\"ops_per_sec\""));
        assert!(json.contains("\"conflict\""));
        // The Crafty point must account for every transaction in its
        // completion breakdown.
        let crafty = &points[1];
        let total: u64 = crafty.completions.iter().map(|(_, c)| c).sum();
        assert_eq!(total, crafty.transactions);
    }
}
