//! A software-simulated restricted transactional memory (RTM).
//!
//! Crafty targets commodity Intel TSX. Working TSX hardware cannot be
//! assumed, so this crate provides a drop-in software simulation of the RTM
//! interface with the properties Crafty relies on: buffered (contained)
//! transactional writes, conflict detection, capacity and spurious aborts,
//! explicit aborts with codes, and SFENCE semantics at transaction
//! boundaries. See `ARCHITECTURE.md` at the repository root for the
//! fidelity argument behind this substitution.
//!
//! # Hot-path design: a line-granular, reusable descriptor
//!
//! The transaction hot path is allocation-free and, outside the commit's
//! per-line lock and dirty-mask updates, free of locked instructions —
//! mirroring how real HTM/STM runtimes keep a per-thread transaction
//! descriptor (cf. phasedTM's `__thread`-local descriptor state) and how
//! real RTM tracks its footprint per cache line:
//!
//! * **A read log and a write table** — a [`TxnScratch`] logs the line of
//!   every read served from memory (TL2's read set: appended, never
//!   indexed, compacted in place only past the read capacity) and holds
//!   one [`crafty_common::LineTable`] entry per line it writes, sinks or
//!   flushes: the line's buffered words, a written-word mask, and data /
//!   sink / flush flags. A read of a transaction that has written nothing
//!   is one version check and one log append; a write is one O(1) lookup
//!   (none at all when it hits the line looked up last: sequential
//!   undo-log appends); capacity checks are counters; commit validates the
//!   log and walks the table — lock, publish the line's written words with
//!   one dirty-mask update ([`crafty_pmem::MemorySpace::write_line`]),
//!   enqueue one CLWB per flagged line as a single batch
//!   ([`crafty_pmem::MemorySpace::clwb_lines`]).
//! * **Batch entry points, ticking per word** — [`HwTxn::exchange`],
//!   [`HwTxn::roll_back`], [`HwTxn::write_words`], [`HwTxn::write_lines`]
//!   and [`HwTxn::flush_writes_on_commit`] do the work of runs of
//!   `read`/`write`/`flush_on_commit` calls with one lookup per line, with
//!   every check and every tick of the injected-abort countdown where the
//!   word-wise run had it — `tests/batch_entry_points.rs` holds the two
//!   interfaces to the same abort at the same access. In the Log → Redo
//!   hand-off the roll-back copies the descriptor's lines out in one block
//!   (and restores by entry index, no lookup), and `write_lines` loads them
//!   into the Redo descriptor one line at a time, each claimed with one
//!   lookup through the rule every other write uses.
//! * **O(1) epoch clear** — the table clears by generation bump, the log
//!   by a length reset, and both only allocate when they grow past the
//!   workload's observed footprint, so a
//!   warmed-up transaction allocates nothing — a property asserted by the
//!   `alloc_free_hot_path` integration test with a counting global
//!   allocator.
//! * **Descriptor checkout without atomics** — the descriptor a
//!   transaction uses is the *calling OS thread's* spare, kept in a
//!   thread-local cell: [`HtmRuntime::begin`] takes it and the finished
//!   transaction puts it back, a plain pointer swap. A descriptor carries
//!   no identity, so it serves whichever runtime and thread id the thread
//!   uses next. If a thread begins a nested transaction while its
//!   descriptor is out (which no engine path does in steady state), a
//!   fresh descriptor is allocated for the inner transaction and dropped
//!   afterwards.
//! * **Per-thread-slot abort schedules** — the spurious-abort ("zero
//!   abort") injector draws from a [`crafty_common::SplitMix64`] stream
//!   whose state lives in the *runtime*, one padded word per thread id,
//!   seeded as `cfg.seed ^ 0x51_0D0A ^ (tid + 1) · 0x9E3779B97F4A7C15`.
//!   Each thread id's abort schedule is a pure function of `(seed, tid)`
//!   and of how many transactions it has begun: reruns reproduce it
//!   regardless of interleaving, of which OS thread or descriptor serves
//!   a transaction, and of nesting — it cannot rewind. No RNG lock is
//!   taken at `begin`.
//! * **Read-only commits are local** — a transaction that wrote nothing
//!   validates its reads and returns its snapshot version without
//!   touching the global version clock (TL2's read-only rule).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use crafty_common::{BreakdownRecorder, PAddr};
//! use crafty_pmem::{MemorySpace, PmemConfig};
//! use crafty_htm::{HtmConfig, HtmRuntime};
//!
//! let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
//! let htm = HtmRuntime::new(mem.clone(), HtmConfig::skylake(), Arc::new(BreakdownRecorder::new()));
//!
//! let slot = mem.reserve_persistent(1);
//! let mut txn = htm.begin(0);
//! let v = txn.read(slot)?;
//! txn.write(slot, v + 1)?;
//! txn.commit()?;
//! assert_eq!(mem.read(slot), 1);
//! # Ok::<(), crafty_htm::AbortCode>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod fallback;
pub mod runtime;
pub mod scratch;

pub use config::HtmConfig;
pub use fallback::FallbackTxn;
pub use runtime::{AbortCode, HtmRuntime, HwTxn, LockWordGuard};
pub use scratch::TxnScratch;
