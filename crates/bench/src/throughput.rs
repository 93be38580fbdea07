//! One measured point, and the normalization Figures 6–8 apply to a list
//! of them.
//!
//! The paper defines throughput as the inverse of wall-clock execution
//! time and normalizes every series to the single-thread throughput of the
//! Non-durable configuration of the same benchmark (Section 7.1).

use std::collections::BTreeSet;
use std::time::Duration;

use crafty_common::BreakdownSnapshot;
use crafty_pmem::PmemStats;
use crafty_workloads::EngineKind;

/// One measured (workload, engine, thread count) run — the unit every
/// table, figure and artifact of this crate is derived from.
#[derive(Clone, Debug)]
pub struct Point {
    /// The workload's name as the paper's figures caption it
    /// (`"bank (medium contention)"`, `"YCSB-A (…)"`).
    pub workload: String,
    /// The engine's name as the paper's legends label it (`"Crafty"`).
    pub engine: String,
    /// Worker threads.
    pub threads: usize,
    /// Persistent transactions executed across all threads.
    pub transactions: u64,
    /// Wall-clock time of the measured run.
    pub elapsed: Duration,
    /// The engine's completion-path and hardware-outcome counters; phase
    /// times too when the run was traced.
    pub breakdown: BreakdownSnapshot,
    /// Persist traffic of the *measured run only* (setup and prefill are
    /// snapshotted away, so `words_persisted / line_words_persisted` is
    /// the steady-state write amplification of the point).
    pub pmem: PmemStats,
}

impl Point {
    /// Transactions per second: the paper's throughput, the inverse of
    /// execution time (Section 7.1). Zero for a run that took no time.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.transactions as f64 / self.elapsed.as_secs_f64()
    }
}

/// The throughput a figure's points are divided by: Non-durable at its
/// lowest thread count, or 1 — raw throughput — when `points` hold no
/// Non-durable point that ran.
pub fn baseline(points: &[Point]) -> f64 {
    points
        .iter()
        .filter(|p| p.engine == EngineKind::NonDurable.label())
        .min_by_key(|p| p.threads)
        .map(Point::throughput)
        .filter(|&tps| tps > 0.0)
        .unwrap_or(1.0)
}

/// The engines of `points` in first-appearance order: a figure's columns.
pub fn engines(points: &[Point]) -> Vec<&str> {
    let mut engines: Vec<&str> = Vec::new();
    for p in points {
        if !engines.contains(&p.engine.as_str()) {
            engines.push(&p.engine);
        }
    }
    engines
}

/// The thread counts of `points`, ascending and each once: a figure's rows.
pub fn thread_counts(points: &[Point]) -> Vec<usize> {
    let counts: BTreeSet<usize> = points.iter().map(|p| p.threads).collect();
    counts.into_iter().collect()
}

/// A point of `transactions` over one second, with no counters.
#[cfg(test)]
pub(crate) fn synthetic(workload: &str, engine: &str, threads: usize, transactions: u64) -> Point {
    Point {
        workload: workload.to_string(),
        engine: engine.to_string(),
        threads,
        transactions,
        elapsed: Duration::from_secs(1),
        breakdown: BreakdownSnapshot::default(),
        pmem: PmemStats::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::render_figure;

    /// Without a Non-durable point there is nothing to normalize to: the
    /// baseline is 1, so the table and the CSV's normalized column carry
    /// raw throughput.
    #[test]
    fn missing_baseline_falls_back_to_raw_throughput() {
        let points = [("NV-HTM", 1, 500), ("Crafty", 2, 1200), ("Crafty", 1, 700)]
            .map(|(engine, threads, txns)| synthetic("kv", engine, threads, txns));
        assert_eq!(baseline(&points), 1.0);
        let (table, csv) = render_figure("kv", &points);
        assert_eq!(
            table,
            concat!(
                "# kv\n",
                " threads              NV-HTM              Crafty\n",
                "       1             500.000             700.000\n",
                "       2                   -            1200.000\n",
            ),
        );
        assert_eq!(
            csv,
            concat!(
                "benchmark,threads,engine,normalized_throughput,raw_tps\n",
                "kv,1,NV-HTM,500.000000,500.000\n",
                "kv,2,Crafty,1200.000000,1200.000\n",
                "kv,1,Crafty,700.000000,700.000\n",
            ),
        );
    }

    #[test]
    fn throughput_is_transactions_per_second() {
        let half_second = Point {
            elapsed: Duration::from_millis(500),
            ..synthetic("t", "x", 1, 500)
        };
        assert!((half_second.throughput() - 1000.0).abs() < 1e-6);
        let instant = Point {
            elapsed: Duration::ZERO,
            ..synthetic("t", "x", 1, 5)
        };
        assert_eq!(instant.throughput(), 0.0);
    }

    #[test]
    fn normalization_uses_single_thread_baseline() {
        let points = [
            ("Non-durable", 2, 1800), // a faster baseline, but not one-thread
            ("Non-durable", 1, 1000), // 1000 tx/s
            ("Crafty", 1, 800),       // 0.8 normalized
            ("Crafty", 2, 1600),      // 1.6 normalized
        ]
        .map(|(engine, threads, txns)| synthetic("bank", engine, threads, txns));
        let base = baseline(&points);
        assert!((base - 1000.0).abs() < 1e-9);
        assert!((points[2].throughput() / base - 0.8).abs() < 1e-9);
        assert!((points[3].throughput() / base - 1.6).abs() < 1e-9);
    }

    #[test]
    fn engines_and_thread_counts_enumerate_cleanly() {
        let points = [("A", 4, 1), ("B", 1, 1), ("A", 1, 1)]
            .map(|(engine, threads, txns)| synthetic("t", engine, threads, txns));
        assert_eq!(engines(&points), ["A", "B"]);
        assert_eq!(thread_counts(&points), [1, 4]);
    }
}
