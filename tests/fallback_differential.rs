//! Differential property tests: every route through the one software
//! commit is observably identical to the transfers applied in order.
//!
//! The reference is a sequential model in the test: every account starts
//! at [`INITIAL`], and each transfer subtracts from one account and adds
//! to another. The per-line software commit takes write locks on exactly
//! the write set plus read-version validation; a transaction reaches it
//! either forced ([`Route::PerLine`]) or because an abort storm exhausted
//! its hardware retry budget ([`Route::Storm`], where the rest of the
//! transactions commit in hardware on the same log). These tests drive
//! the *same seeded workload* — torture's miniature bank,
//! [`crafty_torture::bank`] — down each [`Route`] and assert:
//!
//! * the committed final state equals the model's word-for-word, and
//! * crash images trapped across each route's own run pass the identical
//!   audit — recovery succeeds and writes only what was in flight,
//!   re-recovery is a no-op, and the recovered accounts equal a prefix of the commit
//!   order — under the strict, relaxed, and adversarial crash models
//!   (the last on a space that evicts lines mid-run).
//!
//! The routes tick the fault clock differently (per-line adds
//! lock-transition events), so crash *steps* are sampled per route over
//! that route's own step range; what must agree is the audit verdict,
//! not the byte-level images. This mirrors the structure of
//! `crates/pmem/tests/masked_persistence_differential.rs`, one layer up.

use crafty_common::CompletionPath;
use crafty_pmem::{CrashModel, FaultPlan};
use crafty_torture::bank::{draw_picks, run_once, Route, Transfer, ACCOUNTS, INITIAL};
use crafty_torture::{enumerate, TortureConfig};
use proptest::prelude::*;

/// Every route that reaches the software commit.
const ROUTES: [Route; 2] = [Route::PerLine, Route::Storm];

/// The sequential reference: the picks applied in order to accounts that
/// all start at [`INITIAL`].
fn sequential(picks: &[Vec<Transfer>]) -> Vec<u64> {
    let mut accounts = vec![INITIAL; ACCOUNTS as usize];
    for &(from, to, amount) in picks.iter().flatten() {
        accounts[from as usize] = accounts[from as usize].wrapping_sub(amount);
        accounts[to as usize] = accounts[to as usize].wrapping_add(amount);
    }
    accounts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fault-free completion: every route commits the same seeded
    /// workload to the sequential model's final state, with money
    /// conserved.
    #[test]
    fn final_state_is_route_independent(seed: u64, txns in 2u64..12) {
        let picks = draw_picks(seed, txns);
        let reference = sequential(&picks);
        for route in ROUTES {
            let run = run_once(route, seed, &picks, CrashModel::strict(), FaultPlan::inactive());
            prop_assert_eq!(
                &reference, &run.accounts,
                "{:?} committed a different final state than the transfers in order", route
            );
        }
        let total: u64 = reference.iter().fold(0u64, |s, &v| s.wrapping_add(v));
        prop_assert_eq!(total, ACCOUNTS * INITIAL, "conservation violated");
    }
}

/// Crash-image audits: for each route, trap images at seeded steps of
/// that route's own run under every crash model, and demand the audit
/// verdict be identical — a clean pass everywhere. A route-specific
/// durability-ordering bug (undo log not persisted before publication,
/// say) would fail its side only.
///
/// Each model is a pair: the one the route's space runs under, and the
/// one its images are resolved under. The adversarial case runs the space
/// under [`CrashModel::adversarial`] — one eviction stream per run, so the
/// counting run and every replay evict the same lines — and resolves its
/// images under the same word lottery as the relaxed case.
#[test]
fn crash_audits_agree_across_models_and_routes() {
    type Model = fn(u64) -> CrashModel;
    let strict: Model = |_| CrashModel::strict();
    let models: [(&str, Model, Model); 3] = [
        ("strict", strict, strict),
        ("relaxed", strict, CrashModel::relaxed),
        ("adversarial", CrashModel::adversarial, CrashModel::relaxed),
    ];
    for seed in [41u64, 42, 43] {
        let cfg = TortureConfig {
            txns: 8,
            max_crash_points: 4,
            ..TortureConfig::quick(seed)
        };
        let picks = draw_picks(seed, cfg.txns);
        for route in ROUTES {
            for (label, space, image) in models {
                let report = enumerate(
                    route.suite(),
                    &cfg,
                    |step| image(seed ^ step),
                    |plan| run_once(route, seed, &picks, space(seed), plan),
                    |run, _| run.recover_to_prefix(&picks).map(drop),
                );
                assert_eq!(report.crash_points_tested, 4, "{route:?} ({label})");
                assert!(
                    report.ok(),
                    "{route:?} failed the {label} audit: {:?}",
                    report.failures
                );
            }
        }
    }
}

/// Every route is really taken: the forced per-line route commits every
/// transaction in software, the storm route the two of six its bursts
/// catch at this seed (two of eight at each of the crash audits' seeds),
/// the rest in hardware.
#[test]
fn every_route_is_really_taken() {
    let picks = draw_picks(7, 6);
    let commits = |route| {
        run_once(
            route,
            7,
            &picks,
            CrashModel::strict(),
            FaultPlan::inactive(),
        )
        .breakdown
        .completions(CompletionPath::Sgl)
    };
    assert_eq!(commits(Route::PerLine), 6);
    assert_eq!(commits(Route::Storm), 2, "the bursts catch two");
}
