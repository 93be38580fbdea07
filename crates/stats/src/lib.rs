//! Measurement and reporting for the Crafty reproduction.
//!
//! This crate turns raw runs into the numbers the paper reports:
//!
//! * [`Measurement`] / [`Figure`] — throughput points and per-benchmark
//!   series, normalized to single-thread Non-durable throughput exactly as
//!   in Section 7.1.
//! * [`latency`] — the log-bucketed, mergeable, allocation-free-in-steady-
//!   state latency histogram behind the service benchmarks' tail-latency
//!   reporting.
//! * [`report`] — text/CSV rendering of every figure and of the
//!   persistent/hardware transaction breakdowns (Figures 9–21).
//! * [`json`] — a dependency-free JSON builder for machine-readable
//!   benchmark artifacts such as `BENCH_hotpath.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod latency;
pub mod report;
pub mod throughput;

pub use json::Json;
pub use latency::LatencyHistogram;
pub use report::{render_breakdown, render_figure, render_figure_csv};
pub use throughput::{Figure, Measurement, PAPER_THREAD_COUNTS};
