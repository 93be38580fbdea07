//! Simulated byte-addressable persistent memory — a lock-free, sharded
//! persistence domain.
//!
//! The Crafty paper evaluates on DRAM-emulated NVM: persistent memory is
//! ordinary memory, and the round-trip persist latency is emulated by busy
//! waiting 300 ns at each drain (SFENCE) operation. This crate reproduces
//! that methodology and adds what the paper's artifact lacks — an actual
//! crash model — so that recovery (Section 5) can be implemented and tested:
//!
//! * [`MemorySpace`] — a word-addressable space with a persistent and a
//!   volatile region, a cache-like volatile view, CLWB/SFENCE persist
//!   operations, spontaneous evictions, and latency emulation.
//! * [`PersistentImage`] — what survives a [`MemorySpace::crash`]; the
//!   input to the recovery observer.
//! * [`Heap`] — a persistent heap whose cursor and free lists are words of
//!   its own first line, allocated through the calling transaction's reads
//!   and writes.
//!
//! # Persistence must not serialize the fast path
//!
//! Crafty's core claim is that persistence tracking can ride along with the
//! HTM fast path instead of serializing it, so the simulated persistence
//! domain is built the same way:
//!
//! * **[`MemorySpace::clwb`] and [`MemorySpace::drain`] are mutex-free.**
//!   Each thread slot owns a flush-queue ring that only its owner fills
//!   and drains, as only a core's own SFENCE completes its CLWBs;
//!   duplicate flushes of a line still pending on a queue are absorbed in
//!   O(1) by a per-line flush stamp tagged with that queue and its ring
//!   position (the generation-stamp idea of [`crafty_common::genset`]
//!   applied to shared memory: a drain's cursor bump invalidates every
//!   stamp behind it at once).
//! * **A commit publishes and flushes by the line.**
//!   [`MemorySpace::write_line`] stores a line's written words and ORs its
//!   dirty mask once; [`MemorySpace::clwb_lines`] enqueues a batch of
//!   lines. Both are pinned observably identical to their word-by-word /
//!   line-by-line counterparts.
//! * **Counting is free of locked instructions.** [`PmemStats`] is summed
//!   from per-queue single-writer cells: the owner bumps its flush and
//!   drain counts with plain stores (see the [`space`] module docs).
//! * **Persistence is word-granular.** Every store marks exactly its word
//!   in a per-line dirty-word mask; write-backs copy (and the latency
//!   model charges for) only the masked words, and the crash models
//!   resolve only words actually written. [`PmemStats::words_persisted`] /
//!   [`PmemStats::line_words_persisted`] turn write amplification at the
//!   persist boundary into a measured number. See the [`space`] module
//!   docs for the invariant that makes this observably identical to
//!   whole-line write-back; `tests/persist_oracle.rs` checks the space
//!   against a word-by-word model of what each store, flush and drain
//!   must persist.
//! * **Drains are batched: adjacent CLWBs coalesce into ranged flushes.**
//!   A drain sorts the lines it claimed and writes them back as maximal
//!   runs of adjacent line ids, charging one
//!   [`LatencyModel::clwb_range`] (per-run base + per-line + per-word)
//!   per run — consecutive undo-log lines share one flush base cost
//!   instead of paying it per line. [`PmemStats::flush_ranges`] /
//!   [`PmemStats::range_lines`] measure the coalescing, and the same
//!   oracle predicts both counts exactly.
//! * **A space costs what the workload touches.** The per-line metadata —
//!   the HTM's versioned lock words ([`MemorySpace::line_lock`]), and a
//!   dirty-word mask and flush stamp per persistent line — lives in flat
//!   tables carved out of the volatile view's own allocation. That
//!   allocation and the persistent image are demand-zero memory that
//!   crashes and reboots copy sparsely, so very large simulated spaces
//!   pay memory by the page they *touch*, not by their size.
//! * **The flush path performs no heap allocation** — the same
//!   counting-allocator-enforced guarantee the transaction descriptors in
//!   `crafty-htm` carry.
//!
//! See the [`space`] module docs for the full design, including the ring
//! overflow rule (a full queue completes write-backs immediately, which is
//! a legal early CLWB completion) and the single-writer contract on
//! `clwb(tid, ..)`.
//!
//! # Example
//!
//! ```
//! use crafty_common::PAddr;
//! use crafty_pmem::{MemorySpace, PmemConfig};
//!
//! let mem = MemorySpace::new(PmemConfig::small_for_tests());
//! let slot = mem.reserve_persistent(1);
//! mem.write(slot, 42);
//! // Not yet durable: it has not been flushed.
//! assert_eq!(mem.crash().read(slot), 0);
//! mem.persist(0, slot);
//! assert_eq!(mem.crash().read(slot), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod config;
pub mod image;
pub mod space;

pub use alloc::{Heap, MAX_BLOCK_LINES};
pub use config::{CrashModel, FaultPlan, LatencyModel, PmemConfig};
pub use image::PersistentImage;
pub use space::{MemorySpace, PmemStats};
