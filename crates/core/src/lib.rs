//! Crafty: efficient, HTM-compatible persistent transactions.
//!
//! This crate is the core of the reproduction of *Crafty: Efficient,
//! HTM-Compatible Persistent Transactions* (Genç, Bond, Xu — PLDI 2020).
//! It implements **nondestructive undo logging** — running a persistent
//! transaction's body inside a hardware transaction that records undo
//! entries and then rolls its own writes back before committing, so the
//! undo log can be persisted *before* any program write becomes visible —
//! and the full Crafty engine built on it:
//!
//! * the **Log**, **Redo**, and **Validate** phases of thread-safe mode
//!   and its software fallback — one software commit under per-line write
//!   locks, where the paper takes a single global lock (Sections 3–4,
//!   Figure 3). Thread-safe mode is the only mode: the paper's
//!   thread-unsafe mode (Section 4.4, Figure 4) is not built;
//! * per-thread **circular persistent undo logs** with wraparound bits,
//!   merged LOGGED/COMMITTED markers, and the `tsLowerBound`/`MAX_LAG`
//!   bookkeeping (Sections 5.2 and 6);
//! * the **recovery observer** (Section 5), which the paper's artifact
//!   leaves unimplemented;
//! * the ablation variants **Crafty-NoRedo** and **Crafty-NoValidate**
//!   used in the evaluation;
//! * **on-demand persistence** (Section 5.2) through
//!   [`crafty_common::PersistentTm::persist_fence`], the one step a group
//!   commit batches: every transaction still runs the fenced pipeline, and
//!   one fence pins the batch before any of it is acknowledged.
//!
//! The engine runs on the simulated substrates in [`crafty_pmem`]
//! (DRAM-emulated NVM with an explicit crash model) and [`crafty_htm`]
//! (an RTM-like software HTM); see `ARCHITECTURE.md` at the repository
//! root for the substitution rationale.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use crafty_common::PersistentTm;
//! use crafty_pmem::{MemorySpace, PmemConfig};
//! use crafty_core::{recover, Crafty, CraftyConfig};
//!
//! // A persistent heap and a Crafty engine over it.
//! let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
//! let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests());
//! let counter = mem.reserve_persistent(1);
//!
//! // Run a persistent transaction.
//! let mut thread = crafty.register_thread(0);
//! thread.execute(&mut |ops| {
//!     let v = ops.read(counter)?;
//!     ops.write(counter, v + 1)?;
//!     Ok(())
//! });
//! crafty.quiesce();
//!
//! // Crash, recover, and observe a consistent state.
//! let mut image = mem.crash();
//! recover(&mut image, crafty.directory_addr())?;
//! assert!(image.read(counter) <= 1);
//! # Ok::<(), crafty_core::RecoveryError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod recovery;
pub mod thread;
pub mod undo_log;

pub use config::{CraftyConfig, CraftyVariant};
pub use engine::Crafty;
pub use recovery::{
    parse_sequences, recover, recover_interrupted, recovery_floor, InterruptedRecovery,
    RecoveryError, RecoveryReport, Sequence,
};
pub use thread::CraftyThread;
pub use undo_log::{Entry, LogDirectory, LogGeometry, SlotState, UndoLog};
