//! The persist pipeline against a word-by-word oracle.
//!
//! Seeded random schedules of `write`, `write_line`, `clwb`, `clwb_lines`
//! and `drain` on two thread slots drive the production [`MemorySpace`]
//! beside the exact model of `oracle/mod.rs`, which knows nothing of
//! masks, rings or runs. After every step the space's [`PmemStats`] must
//! equal the model's, and at every drain the space's persisted image and
//! volatile view must equal the model's word for word.
//!
//! At the end the crash images are compared under [`CrashModel::strict`]
//! (only what was written back) and under a model in which every dirty
//! word persists; together they pin the dirty set exactly. The per-word
//! lottery between those two extremes is pinned by the space's unit test
//! `sparse_crash_and_boot_match_a_word_by_word_reference`.
//!
//! [`MemorySpace`]: crafty_pmem::MemorySpace
//! [`PmemStats`]: crafty_pmem::PmemStats

mod oracle;

use crafty_pmem::CrashModel;
use oracle::{run_against_oracle, Reference};
use proptest::prelude::*;

/// The ring capacities every schedule runs at: one no schedule fills, and
/// one that overflows within a few flushes.
const CAPACITIES: [usize; 2] = [1 << 10, 4];

/// The model of the production pipeline itself: no reference relaxes it.
const EXACT: Reference = Reference {
    whole_line: false,
    per_line_drain: false,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Nothing persists but what is flushed and drained.
    #[test]
    fn the_space_follows_the_oracle_under_strict(seed: u64, ops in 1usize..400) {
        for capacity in CAPACITIES {
            run_against_oracle(seed, ops, CrashModel::strict(), capacity, EXACT);
        }
    }

    /// No evictions during the run; the word lottery waits for a crash.
    #[test]
    fn the_space_follows_the_oracle_under_relaxed(seed: u64, ops in 1usize..400) {
        for capacity in CAPACITIES {
            run_against_oracle(seed, ops, CrashModel::relaxed(seed ^ 0x51), capacity, EXACT);
        }
    }

    /// Spontaneous evictions mid-run, which the oracle learns step by step.
    #[test]
    fn the_space_follows_the_oracle_under_adversarial(seed: u64, ops in 1usize..400) {
        for capacity in CAPACITIES {
            run_against_oracle(seed, ops, CrashModel::adversarial(seed ^ 0xA5), capacity, EXACT);
        }
    }
}
