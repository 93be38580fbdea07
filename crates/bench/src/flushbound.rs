//! The `flushbound` hot-path variant: a microbenchmark that stresses the
//! persistence domain (`clwb`/`drain`) instead of transaction begin/commit.
//!
//! Each worker thread owns a disjoint persistent region and repeats the
//! canonical persist pattern — write a batch of lines, CLWB each line
//! (including duplicate flushes, which the queue must absorb in O(1)),
//! then drain — with no transactions anywhere. Throughput is reported in
//! persisted lines per second, so the number isolates exactly the code the
//! sharded, lock-free flush-queue refactor changed: with the old
//! `Mutex<Vec<LineId>>` queues this benchmark spends its time in the
//! per-flush `Vec::contains` scan and the queue mutex; with the sharded
//! domain it is bounded by the drain latency model and raw store
//! throughput.
//!
//! Each batch's lines are adjacent, which makes this the cleanest probe
//! of the batched drain pipeline too: every drain should coalesce its
//! [`LINES_PER_BATCH`] lines into a single ranged flush, so the reported
//! `flush_ranges` is the drain count and `lines_per_range` ≈ 16.

use std::sync::Arc;
use std::time::Instant;

use crafty_common::WORDS_PER_LINE;
use crafty_pmem::MemorySpace;
use crafty_stats::Json;

use crate::{artifact, round2, round4, HarnessConfig};

/// Lines written + flushed per drain by each thread. Chosen to look like a
/// mid-size transaction's write-back set (cf. Table 1's writes/txn).
pub const LINES_PER_BATCH: u64 = 16;

/// Duplicate flushes issued per line per batch (beyond the first), so the
/// dedup path is exercised, not just the enqueue path.
pub const DUPLICATE_FLUSHES: u64 = 2;

/// One (thread count) sample of the flush-bound microbenchmark.
#[derive(Clone, Debug)]
pub struct FlushboundPoint {
    /// Worker thread count.
    pub threads: usize,
    /// Batches (drains) executed per thread.
    pub batches_per_thread: u64,
    /// Total lines persisted across all threads.
    pub lines_persisted: u64,
    /// Total words actually copied to the persistent image.
    pub words_persisted: u64,
    /// Persisted lines per second across all threads.
    pub lines_per_sec: f64,
    /// Drains per second across all threads.
    pub drains_per_sec: f64,
    /// Measured write amplification (`words_persisted / line_words`);
    /// each batch stores one word per line, so the word-granular pipeline
    /// should report 1/8 here.
    pub write_amplification: f64,
    /// Ranged flushes the drains issued. Each batch's lines are adjacent,
    /// so the coalescing pipeline should issue one range per drain —
    /// `flush_ranges` ≪ `lines_persisted`.
    pub flush_ranges: u64,
    /// Average adjacent-line run length (`range_lines / flush_ranges`);
    /// should approach [`LINES_PER_BATCH`] here.
    pub lines_per_range: f64,
}

/// Runs the flush-bound microbenchmark at every configured thread count.
/// `txns_per_thread` is reused as the batch budget so `--txns` scales this
/// benchmark too.
pub fn run_flushbound(cfg: &HarnessConfig) -> Vec<FlushboundPoint> {
    cfg.thread_counts
        .iter()
        .map(|&threads| run_flushbound_point(cfg, threads))
        .collect()
}

fn run_flushbound_point(cfg: &HarnessConfig, threads: usize) -> FlushboundPoint {
    let mem = Arc::new(MemorySpace::new(cfg.pmem_config(threads)));
    let batches = cfg.txns_per_thread;
    let region_words = LINES_PER_BATCH * WORDS_PER_LINE;
    let regions: Vec<_> = (0..threads)
        .map(|_| mem.reserve_persistent(region_words))
        .collect();

    let start = Instant::now();
    crossbeam::scope(|s| {
        for (tid, &base) in regions.iter().enumerate() {
            let mem = Arc::clone(&mem);
            s.spawn(move |_| {
                for batch in 0..batches {
                    for l in 0..LINES_PER_BATCH {
                        let addr = base.add(l * WORDS_PER_LINE);
                        mem.write(addr, batch);
                        for dup in 0..=DUPLICATE_FLUSHES {
                            mem.clwb(tid, addr.add(dup % WORDS_PER_LINE));
                        }
                    }
                    mem.drain(tid);
                }
            });
        }
    })
    .expect("flushbound worker threads");
    let elapsed = start.elapsed().as_secs_f64().max(1e-9);

    let stats = mem.stats();
    let total_drains = threads as u64 * batches;
    FlushboundPoint {
        threads,
        batches_per_thread: batches,
        lines_persisted: stats.lines_persisted,
        words_persisted: stats.words_persisted,
        lines_per_sec: stats.lines_persisted as f64 / elapsed,
        drains_per_sec: total_drains as f64 / elapsed,
        write_amplification: stats.write_amplification(),
        flush_ranges: stats.flush_ranges,
        lines_per_range: stats.lines_per_range(),
    }
}

/// Renders the flush-bound samples as the `BENCH_flushbound.json`
/// artifact (local; CI uploads its smoke run's copy), so the persistence
/// domain's raw throughput and write amplification are inspectable per run.
pub fn render_flushbound_json(cfg: &HarnessConfig, points: &[FlushboundPoint]) -> String {
    let points = points
        .iter()
        .map(|p| {
            Json::object()
                .with("threads", Json::from(p.threads))
                .with("batches_per_thread", Json::from(p.batches_per_thread))
                .with("lines_persisted", Json::UInt(p.lines_persisted))
                .with("words_persisted", Json::UInt(p.words_persisted))
                .with("lines_per_sec", Json::Float(round2(p.lines_per_sec)))
                .with("drains_per_sec", Json::Float(round2(p.drains_per_sec)))
                .with(
                    "write_amplification",
                    Json::Float(round4(p.write_amplification)),
                )
                .with("flush_ranges", Json::UInt(p.flush_ranges))
                .with("lines_per_range", Json::Float(round4(p.lines_per_range)))
        })
        .collect();
    artifact(
        "flushbound (clwb/drain, no txns)",
        Json::object()
            .with("batches_per_thread", Json::from(cfg.txns_per_thread))
            .with("lines_per_batch", Json::from(LINES_PER_BATCH))
            .with("drain_latency_ns", Json::from(cfg.latency.drain_ns))
            .with("clwb_word_ns", Json::from(cfg.latency.clwb_word_ns)),
        points,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crafty_pmem::LatencyModel;

    #[test]
    fn flushbound_persists_exactly_the_batched_lines() {
        let cfg = HarnessConfig {
            thread_counts: vec![1, 2],
            txns_per_thread: 50,
            latency: LatencyModel::instant(),
            persistent_words: 1 << 18,
            seed: 1,
        };
        let points = run_flushbound(&cfg);
        assert_eq!(points.len(), 2);
        for p in &points {
            // Every batch drains exactly LINES_PER_BATCH distinct lines:
            // duplicate flushes must be absorbed by the O(1) dedup, never
            // persisted twice, and no line may be lost.
            assert_eq!(
                p.lines_persisted,
                p.threads as u64 * p.batches_per_thread * LINES_PER_BATCH,
                "{} threads: dedup must absorb duplicates without losing lines",
                p.threads
            );
            assert!(p.lines_per_sec > 0.0);
            assert!(p.drains_per_sec > 0.0);
            // One word stored per line per batch: the word-granular
            // pipeline persists exactly one word where a whole line would
            // have cost eight.
            assert_eq!(p.words_persisted, p.lines_persisted);
            assert!((p.write_amplification - 0.125).abs() < 1e-12);
            // Each batch's 16 lines are adjacent: exactly one ranged flush
            // per drain, so coalescing divides the flush count by 16.
            assert_eq!(
                p.flush_ranges,
                p.threads as u64 * p.batches_per_thread,
                "{} threads: adjacent batches must coalesce to one range per drain",
                p.threads
            );
            assert!((p.lines_per_range - LINES_PER_BATCH as f64).abs() < 1e-12);
        }
        let json = render_flushbound_json(&cfg, &points);
        assert!(json.contains("\"write_amplification\": 0.125"));
        assert!(json.contains("\"lines_per_sec\""));
        assert!(json.contains("\"flush_ranges\""));
    }
}
