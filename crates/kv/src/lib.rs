//! `crafty-kv`: a durable, sharded key-value store on persistent
//! transactions.
//!
//! This crate is the workspace's application layer: a key-value store whose
//! entire state — shard directory, hash tables, and the allocation cursor
//! tables grow from — lives in the persistent heap, and whose every
//! mutation runs as one persistent transaction through the engine-generic
//! [`crafty_common::TxnOps`] interface. Run it on Crafty and a crash at any
//! instant, *including in the middle of a table resize*, recovers to a
//! consistent map; run it on the Non-durable baseline and the same code
//! measures the cost of durability.
//!
//! # Design
//!
//! **Sharding.** The store is an array of independent shards; a key's shard
//! is chosen by the high bits of its mixed hash. Transactions on different
//! shards touch disjoint cache lines (each shard header is line-aligned and
//! tables never share lines), so unrelated operations neither conflict in
//! HTM nor contend on undo-log traffic — the property that lets throughput
//! scale with threads.
//!
//! **Open-addressed persistent tables.** Each shard is one open-addressed
//! hash table with linear probing: a power-of-two array of two-word slots
//! `[tag, value]`, where the tag is the key offset by 2 (`0` = empty, `1` =
//! tombstone). Lookups probe from the key's home slot to the first empty
//! slot; removals write a tombstone; insertions reuse the first tombstone
//! on their probe path. Everything is plain 64-bit words accessed through
//! [`crafty_common::TxnOps`], exactly the access granularity the engines
//! log and persist.
//!
//! **Incremental, crash-consistent resize.** When a shard's occupancy
//! (live keys + tombstones) crosses ¾ of capacity, one transaction
//! allocates a fresh table from the store's persistent arena and records it
//! in the shard header (`resize_table`, `resize_capacity`, `migrate_pos`).
//! No bulk copy happens: every subsequent *mutation* of that shard first
//! migrates a small batch of slots from the old table to the new one
//! (tombstoning each migrated slot so a key is live in at most one table),
//! then performs its own operation against the new table. Reads stay
//! read-only: they probe the new table, then the old. When the migration
//! cursor reaches the end, the same transaction that migrates the final
//! batch atomically swings the header to the new table. Because each step —
//! start, every batch, and the final swing — is its own persistent
//! transaction, a crash anywhere leaves the header and both tables
//! mutually consistent, and recovery resumes the migration where it
//! stopped.
//!
//! **Persistent arena.** Tables come from a bump arena whose cursor is a
//! persistent word in the store's root block, advanced in the same
//! transaction that installs the new table. Old tables are abandoned in
//! place after a resize completes (the arena is sized for the growth
//! schedule at construction); this keeps allocation crash-consistent
//! without needing a persistent free list, and keeps the store independent
//! of any engine's volatile heap allocator — after a crash, [`ShardedKv::open`]
//! on the rebooted space continues exactly where the arena cursor points.
//!
//! **Recovery.** [`ShardedKv::create`] lays the store out with deterministic
//! reservations and persists the root; [`ShardedKv::open`] replays the same
//! reservations on a rebooted space, checks the root magic, and attaches
//! without touching data. [`DirectOps`] adapts raw memory access to the
//! `TxnOps` interface for setup-time prefill and post-recovery inspection.
//!
//! **Group commit.** K logically independent store transactions can share
//! one acknowledgement: run each through
//! [`TmThread::execute`](crafty_common::TmThread::execute) and pin them all
//! with one
//! [`PersistentTm::persist_fence`](crafty_common::PersistentTm::persist_fence)
//! before acknowledging any. The server's pipelined batches do exactly
//! that. A crash before the fence may lose the batch's latest transaction
//! — atomically, never partially (`tests/kv_crash_recovery.rs` pins the
//! contract).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use crafty_common::PersistentTm;
//! use crafty_pmem::{MemorySpace, PmemConfig};
//! use crafty_kv::{KvConfig, ShardedKv};
//! # use crafty_core::{Crafty, CraftyConfig};
//!
//! let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
//! let engine = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests());
//! let kv = ShardedKv::create(&mem, &KvConfig::small_for_tests());
//!
//! let mut thread = engine.register_thread(0);
//! let mut previous = None;
//! thread.execute(&mut |ops| {
//!     kv.put(ops, 7, 700)?;
//!     previous = kv.get(ops, 7)?;
//!     Ok(())
//! });
//! assert_eq!(previous, Some(700));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod direct;
pub mod session;
pub mod store;

pub use direct::DirectOps;
pub use session::{CachedReply, SeqCheck, SessionTable, REPLY_WINDOW};
pub use store::{KvConfig, KvStats, ShardedKv, KEY_MAX};
