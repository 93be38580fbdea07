//! Baseline persistent-transaction engines the paper compares against.
//!
//! All engines implement [`crafty_common::PersistentTm`], so every workload
//! and the whole figure harness run unchanged on them:
//!
//! * [`NonDurable`] — each persistent transaction simply runs in a hardware
//!   transaction (with a global-lock fallback); no logging, no flushing, no
//!   crash-consistency guarantees. This is the normalization baseline of
//!   every figure in the paper.
//! * [`NvHtm`] — a reproduction of NV-HTM (Castro et al., IPDPS 2018):
//!   hardware transactions execute in place against the volatile view
//!   (shadow memory), persist a per-thread redo log after commit, wait for
//!   earlier transactions before durably marking commit, and hand the
//!   persist work to a background checkpointer that applies logs in
//!   timestamp order.
//! * [`DudeTm`] — a reproduction of DudeTM (Liu et al., ASPLOS 2017) as
//!   configured in the NV-HTM artifact: like NV-HTM but the transaction
//!   order comes from a global counter incremented *inside* the hardware
//!   transaction, which makes every pair of concurrent transactions
//!   conflict on that counter.
//!
//! The engines share the simulated substrates ([`crafty_pmem`],
//! [`crafty_htm`]) with Crafty so that comparisons measure algorithmic
//! differences, not substrate differences.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cow;
pub mod nondurable;

pub use cow::{CowConfig, DudeTm, NvHtm, ShadowPagingTm};
pub use nondurable::NonDurable;

/// How many times an engine of this crate tries a transaction in hardware
/// before it takes its global lock. Every configuration has always run
/// with this one value, so it is a constant rather than an option.
const MAX_HTM_ATTEMPTS: u32 = 8;
