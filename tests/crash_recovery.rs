//! Workspace-level crash-consistency tests: run real workloads on Crafty,
//! crash at an arbitrary point under an adversarial persistence model, run
//! the recovery observer, and check application invariants on the recovered
//! image. Property-based cases sweep seeds, thread counts, and crash
//! models.

use std::sync::Arc;

use crafty_core::recover;
use crafty_repro::prelude::*;
use crafty_repro::workloads::{drive, BankWorkload, Contention};
use proptest::prelude::*;

/// Runs a multi-threaded bank run on Crafty, crashes without quiescing,
/// recovers, and checks conservation of money on the booted image.
fn bank_crash_run(
    seed: u64,
    threads: usize,
    txns_per_thread: u64,
    crash: CrashModel,
    variant: CraftyVariant,
) -> Result<(), String> {
    let pmem_cfg = PmemConfig {
        persistent_words: 1 << 18,
        volatile_words: 1 << 14,
        max_threads: threads + 2,
        latency: LatencyModel::instant(),
        crash,
        ..PmemConfig::small_for_tests()
    };
    let mem = Arc::new(MemorySpace::new(pmem_cfg));
    let crafty_cfg = CraftyConfig {
        variant,
        undo_log_entries: 512,
        ..CraftyConfig::small_for_tests().with_max_threads(threads)
    };
    let crafty = Crafty::new(Arc::clone(&mem), crafty_cfg);
    let workload = BankWorkload {
        contention: Contention::High,
        transfers_per_txn: 3,
        initial_balance: 500,
        max_threads: threads,
    };
    let mix = workload.prepare(&mem);
    drive(&crafty, mix.as_ref(), threads, txns_per_thread, seed);

    // Crash mid-steady-state (no quiesce), then recover.
    let mut image = mem.crash();
    recover(&mut image, crafty.directory_addr()).expect("recovery");
    mix.verify(&MemorySpace::boot(&image, pmem_cfg))
}

#[test]
fn bank_invariant_survives_a_strict_crash() {
    bank_crash_run(1, 3, 150, CrashModel::strict(), CraftyVariant::Full).expect("conservation");
}

#[test]
fn bank_invariant_survives_an_adversarial_crash() {
    for seed in 0..4 {
        bank_crash_run(
            seed,
            3,
            150,
            CrashModel::adversarial(seed),
            CraftyVariant::Full,
        )
        .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
}

#[test]
fn ablation_variants_are_also_crash_consistent() {
    for variant in [CraftyVariant::NoRedo, CraftyVariant::NoValidate] {
        bank_crash_run(7, 2, 120, CrashModel::adversarial(7), variant)
            .unwrap_or_else(|e| panic!("{variant:?}: {e}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fuzz seeds, thread counts, and word-persist probabilities: the
    /// recovered bank is always balanced.
    #[test]
    fn recovered_bank_is_always_balanced(
        seed in 0u64..1_000,
        threads in 1usize..4,
        persist_prob in 0.0f64..1.0,
    ) {
        let crash = CrashModel {
            eviction_probability: 0.01,
            dirty_word_persist_probability: persist_prob,
            seed,
        };
        prop_assert_eq!(bank_crash_run(seed, threads, 80, crash, CraftyVariant::Full), Ok(()));
    }

    /// A committed-and-quiesced counter value is never lost, and the
    /// recovered value never exceeds what was executed.
    #[test]
    fn recovered_counter_is_a_consistent_prefix(seed in 0u64..1_000, committed in 1u64..60) {
        let mem = Arc::new(MemorySpace::new(PmemConfig {
            persistent_words: 1 << 16,
            volatile_words: 1 << 13,
            max_threads: 4,
            latency: LatencyModel::instant(),
            crash: CrashModel::adversarial(seed),
            ..PmemConfig::small_for_tests()
        }));
        let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests().with_max_threads(2));
        let cell = mem.reserve_persistent(1);
        let mut thread = crafty.register_thread(0);
        for _ in 0..committed {
            thread.execute(&mut |ops| {
                let v = ops.read(cell)?;
                ops.write(cell, v + 1)?;
                Ok(())
            });
        }
        crafty.quiesce();
        // A little more uncommitted-at-crash work.
        for _ in 0..5 {
            thread.execute(&mut |ops| {
                let v = ops.read(cell)?;
                ops.write(cell, v + 1)?;
                Ok(())
            });
        }
        let mut image = mem.crash();
        recover(&mut image, crafty.directory_addr()).expect("recovery");
        let recovered = image.read(cell);
        prop_assert!(recovered >= committed, "quiesced work lost: {recovered} < {committed}");
        prop_assert!(recovered <= committed + 5);
    }
}
