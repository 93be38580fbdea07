//! Reporting building blocks for the Crafty reproduction, shared by the
//! figure harness, the networked server and the repository benchmark:
//!
//! * [`latency`] — the log-bucketed, mergeable, allocation-free-in-steady-
//!   state latency histogram behind the service benchmarks' tail-latency
//!   reporting.
//! * [`report`] — text rendering of the persistent/hardware transaction
//!   breakdowns (Figures 9–21).
//! * [`json`] — a dependency-free JSON builder for machine-readable
//!   benchmark artifacts such as `BENCH_hotpath.json`.
//!
//! The normalized-throughput figures (Figures 6–8) are rendered by
//! `crafty-bench`, from the points it measures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod latency;
pub mod report;

pub use json::Json;
pub use latency::LatencyHistogram;
pub use report::render_breakdown;
