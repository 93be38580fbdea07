//! Throughput measurement and normalization.
//!
//! The paper defines throughput as the inverse of wall-clock execution time
//! and normalizes every series to the single-thread throughput of the
//! Non-durable configuration of the same benchmark (Section 7.1). These
//! types carry one measured point, a per-engine series over thread counts,
//! and a whole figure (several engines on one benchmark).

use std::collections::BTreeMap;
use std::time::Duration;

/// The thread counts every figure in the paper sweeps.
pub const PAPER_THREAD_COUNTS: [usize; 7] = [1, 2, 4, 8, 12, 15, 16];

/// One measured run: an engine, a thread count, how much work was done and
/// how long it took.
#[derive(Clone, PartialEq, Debug)]
pub struct Measurement {
    /// Engine name as used in the figure legends (e.g. `"Crafty"`).
    pub engine: String,
    /// Number of worker threads.
    pub threads: usize,
    /// Number of persistent transactions executed across all threads.
    pub transactions: u64,
    /// Wall-clock time of the measured region.
    pub elapsed: Duration,
}

impl Measurement {
    /// A throughput-only measurement (the closed-loop benchmarks).
    pub fn throughput_only(
        engine: impl Into<String>,
        threads: usize,
        transactions: u64,
        elapsed: Duration,
    ) -> Self {
        Measurement {
            engine: engine.into(),
            threads,
            transactions,
            elapsed,
        }
    }

    /// Transactions per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.transactions as f64 / self.elapsed.as_secs_f64()
    }
}

/// A figure: one benchmark, several engines, several thread counts.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Figure {
    /// Figure title (e.g. `"bank (high contention)"`).
    pub title: String,
    /// All collected measurements.
    pub points: Vec<Measurement>,
}

impl Figure {
    /// Creates an empty figure with the given title.
    pub fn new(title: impl Into<String>) -> Self {
        Figure {
            title: title.into(),
            points: Vec::new(),
        }
    }

    /// Adds one measurement.
    pub fn push(&mut self, m: Measurement) {
        self.points.push(m);
    }

    /// The baseline used for normalization: the single-thread throughput of
    /// `baseline_engine` (the paper uses Non-durable). Falls back to the
    /// smallest thread count present for that engine.
    pub fn baseline_throughput(&self, baseline_engine: &str) -> Option<f64> {
        self.points
            .iter()
            .filter(|p| p.engine == baseline_engine)
            .min_by_key(|p| p.threads)
            .map(Measurement::throughput)
    }

    /// Returns `engine`'s normalized throughput per thread count, ordered
    /// by thread count. Normalization divides by
    /// [`Figure::baseline_throughput`]; if the baseline is missing the raw
    /// throughput is reported.
    pub fn normalized_series(&self, engine: &str, baseline_engine: &str) -> Vec<(usize, f64)> {
        let base = self.baseline_throughput(baseline_engine).unwrap_or(1.0);
        let base = if base > 0.0 { base } else { 1.0 };
        let mut by_threads: BTreeMap<usize, f64> = BTreeMap::new();
        for p in self.points.iter().filter(|p| p.engine == engine) {
            by_threads.insert(p.threads, p.throughput() / base);
        }
        by_threads.into_iter().collect()
    }

    /// All engine names present, in first-appearance order.
    pub fn engines(&self) -> Vec<String> {
        let mut seen = Vec::new();
        for p in &self.points {
            if !seen.contains(&p.engine) {
                seen.push(p.engine.clone());
            }
        }
        seen
    }

    /// All thread counts present, ascending.
    pub fn thread_counts(&self) -> Vec<usize> {
        let mut t: Vec<usize> = self.points.iter().map(|p| p.threads).collect();
        t.sort_unstable();
        t.dedup();
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(engine: &str, threads: usize, txns: u64, millis: u64) -> Measurement {
        Measurement::throughput_only(engine, threads, txns, Duration::from_millis(millis))
    }

    #[test]
    fn throughput_is_transactions_per_second() {
        assert!((m("x", 1, 500, 500).throughput() - 1000.0).abs() < 1e-6);
        assert_eq!(
            Measurement {
                elapsed: Duration::ZERO,
                ..m("x", 1, 5, 1)
            }
            .throughput(),
            0.0
        );
    }

    #[test]
    fn normalization_uses_single_thread_baseline() {
        let mut fig = Figure::new("bank");
        fig.push(m("Non-durable", 1, 1000, 1000)); // 1000 tx/s
        fig.push(m("Crafty", 1, 800, 1000)); // 0.8 normalized
        fig.push(m("Crafty", 2, 1600, 1000)); // 1.6 normalized
        let series = fig.normalized_series("Crafty", "Non-durable");
        assert_eq!(series.len(), 2);
        assert!((series[0].1 - 0.8).abs() < 1e-9);
        assert!((series[1].1 - 1.6).abs() < 1e-9);
    }

    #[test]
    fn engines_and_thread_counts_enumerate_cleanly() {
        let mut fig = Figure::new("t");
        fig.push(m("A", 4, 1, 1));
        fig.push(m("B", 1, 1, 1));
        fig.push(m("A", 1, 1, 1));
        assert_eq!(fig.engines(), vec!["A".to_string(), "B".to_string()]);
        assert_eq!(fig.thread_counts(), vec![1, 4]);
    }

    #[test]
    fn missing_baseline_falls_back_to_raw_throughput() {
        let mut fig = Figure::new("t");
        fig.push(m("A", 1, 100, 1000));
        let series = fig.normalized_series("A", "Non-durable");
        assert!((series[0].1 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn paper_thread_counts_match_figures() {
        assert_eq!(PAPER_THREAD_COUNTS, [1, 2, 4, 8, 12, 15, 16]);
    }
}
