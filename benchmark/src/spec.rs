//! What the benchmark declares in `BENCHMARK.json`, as code: the end-to-end
//! metrics with their directions and bounds. A test keeps the two in step.

use crate::estimator::Better;

/// An end-to-end metric: gated by `bound`, the share of the parent's median
/// by which it may get worse.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The gated metrics, the same for every workload. A bound is per metric,
/// not per workload, and has to hold in the host's bad hours, so each is at
/// least three times the widest spread (interquartile range ÷ median of ten
/// runs with ten seeds) any workload showed in the worst hour measured
/// (`evidence/bad-hour.txt`: `ops_per_s` 6.2%, `p50_us` 4.1%, the tail
/// percentile 10%; `kv-read`'s medians moved 5% from that hour to the
/// next), and `p90_us` and `setup_s` sit at 0.25, the most a bound may be.
/// In an ordinary hour (`evidence/selfcheck-{1,2}.txt`) every spread is
/// below 3% and two sets of ten runs agree within 2%, so a change far
/// smaller than the bound is visible in a self-check's table.
///
/// `nvm_ns_per_op`, `pm_bytes_per_op` and `fail_ratio` are end-to-end in
/// kind but are reported with the per-layer metrics: a gated metric may
/// never read 0, and the first two are exactly 0 on `kv-read` (that is
/// the point of `kv-read`) while the third is 0 on every healthy run.
/// Failures still gate every run through `correct` / `failed`.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: Better::Higher,
        bound: 0.20,
    },
    EndToEnd {
        name: "p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "p90_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.03,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];
