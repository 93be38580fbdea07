//! `crafty-server`: a networked front-end for the durable KV store.
//!
//! This crate turns [`crafty_kv::ShardedKv`] into a service: a
//! thread-per-core TCP server ([`KvServer`]) speaking a pipelined,
//! length-prefixed binary protocol ([`protocol`]), and a blocking
//! pipelining client ([`KvClient`]) for load generators and tests. It is
//! built on `std::net` only — no async runtime, no framework — because the
//! point is to measure the *engine's* durability cost at the tail, not an
//! I/O stack's.
//!
//! # Why a network front-end in a TM paper reproduction?
//!
//! The paper evaluates Crafty with closed-loop microbenchmarks: N threads
//! each issuing the next transaction the moment the previous one returns.
//! That measures throughput but hides the latency cost of durability —
//! under a closed loop, a slow drain just slows the arrival of the next
//! request. A service sees **open-loop** arrivals: requests arrive on a
//! schedule the server does not control, queueing delay compounds, and
//! every drain barrier shows up in some request's tail latency. The
//! `kvserve` benchmark (in `crafty-bench`) drives this server open-loop
//! and reports p50/p99/p999, making the group-commit trade visible: per-
//! request acknowledgement pays a durability fence on every write's
//! critical path, while the server's batch-wide acknowledgement window
//! ([`server`] module docs) amortizes one fence across a pipelined batch
//! — lower tails at the same offered load.
//!
//! # Durability contract
//!
//! A response to a `Put`/`Delete` is written only after the durability
//! fence covering that write. Acked ⇒ durable, at every crash point; the
//! workspace's crash tests kill the server mid-load and verify every
//! acked write survives recovery.
//!
//! # Exactly-once contract
//!
//! Durability alone leaves retries ambiguous: a client whose ack was lost
//! cannot tell "never applied" from "applied, ack dropped". The session
//! layer closes that hole. [`SessionClient`] (module [`retry`])
//! handshakes a session, sequences every write, and replays unacked
//! batches through reconnects with bounded exponential backoff; the
//! server persists each session's applied high-water mark and cached
//! responses in the same heap — and the same transactions — as the data
//! ([`crafty_kv::SessionTable`]), so replays are deduplicated across
//! server crash-restarts. Retry + persistent dedup = **exactly-once for
//! acked writes**, including non-idempotent increments, which the
//! torture `service` suite audits under seeded network faults
//! ([`FaultyStream`], module [`faults`]) and fault-clock crash-restarts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod faults;
pub mod protocol;
pub mod retry;
pub mod server;

pub use client::{ClientError, KvClient, NetStream};
pub use faults::{FaultConfig, FaultyStream};
pub use protocol::{ProtocolError, Request, Response, ServerStats};
pub use retry::{RetryPolicy, SessionClient, WriteOp};
pub use server::{KvServer, ServerConfig};
