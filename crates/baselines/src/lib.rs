//! Baseline persistent-transaction engines the paper compares against.
//!
//! One engine, [`BaselineTm`], runs all three: a hardware transaction with
//! a global-lock fallback, tried `MAX_HTM_ATTEMPTS` (8) times before the
//! lock is taken. The configurations differ only in what a commit persists
//! (see [`cow`]):
//!
//! * [`NonDurable`] — nothing: no logging, no flushing, no
//!   crash-consistency guarantees. The normalization baseline of every
//!   figure in the paper.
//! * [`NvHtm`] — NV-HTM (Castro et al., IPDPS 2018): a per-thread redo log
//!   persisted after the hardware commit, a wait for earlier transactions
//!   before the durable COMMIT record, and a background checkpointer that
//!   writes the data back in timestamp order.
//! * [`DudeTm`] — DudeTM (Liu et al., ASPLOS 2017) as configured in the
//!   NV-HTM artifact: like NV-HTM, but ordered by a global counter
//!   incremented *inside* the hardware transaction, on which every pair
//!   of concurrent transactions conflicts.
//!
//! All implement [`crafty_common::PersistentTm`] over the simulated
//! substrates ([`crafty_pmem`], [`crafty_htm`]) Crafty runs on, so
//! comparisons measure algorithmic differences, not substrate differences.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cow;

pub use cow::{BaselineTm, CowConfig, DudeTm, NonDurable, NvHtm};

/// How many times a baseline tries a transaction in hardware before it
/// takes its global lock. Every configuration has always run with this one
/// value, so it is a constant rather than an option.
const MAX_HTM_ATTEMPTS: u32 = 8;
