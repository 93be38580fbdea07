//! Shared foundation types for the Crafty reproduction.
//!
//! This crate holds the vocabulary used by every other crate in the
//! workspace:
//!
//! * [`PAddr`] / [`LineId`] — word-granular addresses into the simulated
//!   memory space and the cache lines that contain them.
//! * [`Clock`] / [`Timestamp`] — the RDTSC-like monotonic timestamp source
//!   the paper uses for `LOGGED`/`COMMITTED` entries and `gLastRedoTS`.
//! * [`api`] — the object-safe engine interface ([`PersistentTm`],
//!   [`TmThread`], [`TxnOps`]) implemented by Crafty and all baselines so
//!   that workloads and the figure harness are engine-generic.
//! * [`breakdown`] — per-thread counters that record how each persistent
//!   transaction completed and how each hardware transaction ended,
//!   mirroring the categories of the paper's appendix figures — the one
//!   recording API, which also times phases and pushes ring events when
//!   tracing is armed.
//! * [`counter`] — the single-writer counter cell those (and the
//!   persistence domain's statistics) are built from.
//! * [`genset`] — the generation-stamped open-addressed line table with
//!   O(1) clear that every transaction descriptor is built on.
//! * [`trace`] — the runtime-leveled observability layer: the trace
//!   level that arms [`BreakdownRecorder`]'s virtual-cycle phase timers,
//!   and the per-thread lock-free event rings behind the `figures trace`
//!   report and the torture suites' flight-recorder tails.
//! * [`wait`] — the one way a thread waits for another: every spin,
//!   yield and backoff in the workspace is a call into it.
//! * [`zipf`] — the YCSB-style zipfian key-popularity distribution used by
//!   the KV-store workloads.
//!
//! # Example
//!
//! ```
//! use crafty_common::{PAddr, Clock};
//!
//! let clock = Clock::default();
//! let a = clock.now();
//! let b = clock.now();
//! assert!(a < b);
//!
//! let addr = PAddr::new(12);
//! assert_eq!(addr.line().first_word(), PAddr::new(8));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod api;
pub mod breakdown;
pub mod clock;
pub mod counter;
pub mod error;
pub mod genset;
pub mod rng;
pub mod trace;
pub mod wait;
pub mod zipf;

pub use addr::{LineId, PAddr, WORDS_PER_LINE};
pub use api::{PersistentTm, TmThread, TxnBody, TxnOps};
pub use breakdown::{BreakdownRecorder, BreakdownSnapshot, CompletionPath, HwTxnOutcome};
pub use clock::{Clock, Timestamp};
pub use counter::OwnedCounter;
pub use error::TxAbort;
pub use genset::{LineSlot, LineTable};
pub use rng::{mix64, SplitMix64};
pub use trace::{EventRing, TraceEvent, TraceEventKind, TraceLevel, TxnPhase};
pub use zipf::{Zipfian, YCSB_THETA};
