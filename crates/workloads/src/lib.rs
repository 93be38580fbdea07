//! Benchmark workloads for the Crafty reproduction.
//!
//! Everything the paper's evaluation runs, written once against the
//! engine-generic [`crafty_common::TxnOps`] interface:
//!
//! * [`bank`] — the bank microbenchmark at the paper's three contention
//!   levels (Figure 6).
//! * [`btree`] — the B+-tree microbenchmark, insert-only and mixed
//!   (Figure 7).
//! * [`stamp`] — STAMP-like kernels with transaction sizes and contention
//!   matched to Table 1 (Figure 8).
//! * [`ycsb`] — YCSB-style key-value mixes (A/B/C read-heavy, E scan) over
//!   the durable sharded [`crafty_kv::ShardedKv`] store, with zipfian key
//!   popularity.
//! * [`openloop`] — deterministic open-loop arrival schedules (fixed-rate
//!   and Poisson) for the service benchmarks, where latency is measured
//!   from intended send times so coordinated omission stays visible.
//! * [`driver`] — the engine-generic runner that times a mix's
//!   transactions on any engine, for the figure harness and the examples.
//! * [`engines`] — constructors for every engine configuration evaluated
//!   in the paper, by name.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bank;
pub mod btree;
pub mod driver;
pub mod engines;
pub mod openloop;
pub mod stamp;
pub mod ycsb;

pub use bank::{BankWorkload, Contention};
pub use btree::{BtreeVariant, BtreeWorkload};
pub use driver::{drive, run_mix, TxnMix, Workload};
pub use engines::{build_engine, EngineKind};
pub use openloop::{ArrivalProcess, OpKind, OpenLoopConfig, ScheduledOp};
pub use stamp::{StampKernel, StampWorkload};
pub use ycsb::{YcsbKvMix, YcsbMix, YcsbWorkload};
