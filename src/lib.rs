//! Umbrella crate for the Crafty reproduction.
//!
//! Re-exports the public API of every workspace crate so that examples,
//! integration tests, and downstream users can depend on a single crate:
//!
//! * [`core`] ([`crafty_core`]) — the Crafty engine itself (nondestructive
//!   undo logging, Log/Redo/Validate phases, recovery).
//! * [`pmem`] / [`htm`] — the simulated persistent memory and the simulated
//!   RTM the engines run on.
//! * [`baselines`] — Non-durable, NV-HTM, and DudeTM: three configurations
//!   of one engine, differing only in what a commit persists.
//! * [`kv`] ([`crafty_kv`]) — the durable, sharded key-value store built on
//!   the persistent-transaction interface (the workspace's application
//!   layer).
//! * [`server`] ([`crafty_server`]) — the networked front-end over the KV
//!   store: a thread-per-core TCP server speaking a pipelined binary
//!   protocol, where each pipelined batch of writes shares one
//!   group-commit durability window and the ack is sent only after the
//!   batch's drain fence. Persistent client sessions dedup replayed
//!   sequence numbers, so the retrying [`prelude::SessionClient`] is
//!   **exactly-once** end to end — through timeouts, disconnects and
//!   server crash-restart, even for non-idempotent increments.
//! * [`workloads`] / [`stats`] — the paper's benchmarks, the YCSB-style KV
//!   mixes, the open-loop arrival schedules behind the service benchmark,
//!   and the reporting blocks (JSON artifacts, the transaction-breakdown
//!   text, and the log-bucketed latency histogram behind the p50/p99/p999
//!   columns). The figure harness that measures and normalizes the
//!   paper's points is `crafty-bench`.
//!
//! See `README.md` for the quickstart and benchmark guide, and
//! `ARCHITECTURE.md` for the crate layers, the life of a transaction, and
//! the crash-model table.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use crafty_repro::prelude::*;
//!
//! let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
//! let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests());
//! let cell = mem.reserve_persistent(1);
//!
//! let mut thread = crafty.register_thread(0);
//! thread.execute(&mut |ops| {
//!     let v = ops.read(cell)?;
//!     ops.write(cell, v + 1)?;
//!     Ok(())
//! });
//! assert_eq!(mem.read(cell), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use crafty_baselines as baselines;
pub use crafty_common as common;
pub use crafty_core as core;
pub use crafty_htm as htm;
pub use crafty_kv as kv;
pub use crafty_pmem as pmem;
pub use crafty_server as server;
pub use crafty_stats as stats;
pub use crafty_workloads as workloads;

/// The most commonly used types, importable with a single `use`.
pub mod prelude {
    pub use crafty_baselines::{BaselineTm, DudeTm, NonDurable, NvHtm};
    pub use crafty_common::{
        BreakdownSnapshot, CompletionPath, PAddr, PersistentTm, TmThread, TxAbort, TxnOps, Zipfian,
    };
    pub use crafty_core::{recover, Crafty, CraftyConfig, CraftyVariant};
    pub use crafty_kv::{DirectOps, KvConfig, SeqCheck, SessionTable, ShardedKv};
    pub use crafty_pmem::{CrashModel, LatencyModel, MemorySpace, PersistentImage, PmemConfig};
    pub use crafty_server::{
        ClientError, FaultConfig, FaultyStream, KvClient, KvServer, NetStream, ProtocolError,
        Request, Response, RetryPolicy, ServerConfig, ServerStats, SessionClient, WriteOp,
    };
    pub use crafty_stats::LatencyHistogram;
    pub use crafty_workloads::{
        build_engine, ArrivalProcess, EngineKind, OpKind, OpenLoopConfig, ScheduledOp, Workload,
        YcsbMix, YcsbWorkload,
    };
}
