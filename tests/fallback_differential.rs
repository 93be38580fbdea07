//! Differential property tests: every route through the one software
//! commit is observably identical to the single-global-lock reference.
//!
//! The SGL fallback is simple enough to trust by inspection: one lock
//! serializes every fallback transaction and every hardware phase
//! subscribes to it. The per-line policy replaces that with write locks on
//! exactly the fallback's write set plus read-version validation — far
//! more concurrency, far more room for ordering bugs — and thread-unsafe
//! mode drops the lock altogether (the program serializes), committing
//! either through a hardware Log phase plus a software Redo or, when the
//! HTM is too small, through the same software commit as the SGL. These
//! tests drive the *same seeded workload* — torture's miniature bank,
//! [`crafty_torture::bank`] — down each [`Route`] and assert:
//!
//! * the committed final states are identical word-for-word, and
//! * crash images trapped across each route's own run pass the identical
//!   audit — recovery succeeds, logs decode clean, re-recovery is a
//!   no-op, and the recovered accounts equal a prefix of the commit
//!   order — under the strict, relaxed, and adversarial crash models.
//!
//! The routes tick the fault clock differently (per-line adds
//! lock-transition events), so crash *steps* are sampled per route over
//! that route's own step range; what must agree is the audit verdict,
//! not the byte-level images. This mirrors the structure of
//! `crates/pmem/tests/masked_persistence_differential.rs`, one layer up.

use crafty_common::CompletionPath;
use crafty_pmem::{CrashModel, FaultPlan};
use crafty_torture::bank::{draw_picks, run_once, Route, ACCOUNTS, INITIAL};
use crafty_torture::{enumerate, TortureConfig};
use proptest::prelude::*;

/// Every way for a transaction to commit outside a Redo/Validate hardware
/// transaction, the SGL reference first.
const ROUTES: [Route; 4] = [
    Route::Sgl,
    Route::PerLine,
    Route::ThreadUnsafe,
    Route::ThreadUnsafeTiny,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fault-free completion: every route commits the same seeded
    /// workload to the identical final state, with money conserved.
    #[test]
    fn final_state_is_route_independent(seed: u64, txns in 2u64..12) {
        let picks = draw_picks(seed, txns);
        let reference = run_once(Route::Sgl, seed, &picks, FaultPlan::inactive());
        for route in ROUTES {
            let run = run_once(route, seed, &picks, FaultPlan::inactive());
            prop_assert_eq!(
                &reference.accounts, &run.accounts,
                "{:?} committed a different final state than the SGL reference", route
            );
        }
        let total: u64 = reference
            .accounts
            .iter()
            .fold(0u64, |s, &v| s.wrapping_add(v));
        prop_assert_eq!(total, ACCOUNTS * INITIAL, "conservation violated");
    }
}

/// Crash-image audits: for each route, trap images at seeded steps of
/// that route's own run under every crash model, and demand the audit
/// verdict be identical — a clean pass everywhere. A route-specific
/// durability-ordering bug (undo log not persisted before publication,
/// say) would fail its side only.
#[test]
fn crash_audits_agree_across_models_and_routes() {
    type Model = fn(u64) -> CrashModel;
    let models: [(&str, Model); 3] = [
        ("strict", |_| CrashModel::strict()),
        ("relaxed", CrashModel::relaxed),
        ("adversarial", CrashModel::adversarial),
    ];
    for seed in [41u64, 42, 43] {
        let cfg = TortureConfig {
            txns: 8,
            max_crash_points: 4,
            ..TortureConfig::quick(seed)
        };
        let picks = draw_picks(seed, cfg.txns);
        for route in ROUTES {
            for (label, model) in models {
                let report = enumerate(
                    route.suite(),
                    &cfg,
                    |step| model(seed ^ step),
                    |plan| run_once(route, seed, &picks, plan),
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

/// The per-line and SGL routes genuinely execute different code: per-line
/// runs tick extra fault-clock events (lock transitions), so its step
/// count must strictly exceed the SGL's on the same workload. Guards
/// against the differential silently comparing one policy with itself.
#[test]
fn per_line_runs_tick_lock_transition_events() {
    let picks = draw_picks(7, 6);
    let sgl = run_once(Route::Sgl, 7, &picks, FaultPlan::count_only());
    let per_line = run_once(Route::PerLine, 7, &picks, FaultPlan::count_only());
    assert_eq!(sgl.accounts, per_line.accounts);
    assert!(
        per_line.total_steps - per_line.setup_steps > sgl.total_steps - sgl.setup_steps,
        "per-line ({}) should tick more steps than sgl ({}) on the same workload",
        per_line.total_steps - per_line.setup_steps,
        sgl.total_steps - sgl.setup_steps,
    );
}

/// Every route is really taken: the forced routes and the tiny HTM commit
/// in software, plain thread-unsafe mode (hardware Log, software Redo)
/// never does.
#[test]
fn every_route_is_really_taken() {
    let picks = draw_picks(7, 6);
    let commits = |route| {
        run_once(route, 7, &picks, FaultPlan::inactive())
            .breakdown
            .completions(CompletionPath::Sgl)
    };
    assert_eq!(commits(Route::Sgl), 6);
    assert_eq!(commits(Route::PerLine), 6);
    assert_eq!(
        commits(Route::ThreadUnsafe),
        0,
        "the Log phase fits a real HTM"
    );
    assert!(
        commits(Route::ThreadUnsafeTiny) > 0,
        "the tiny HTM never took thread-unsafe mode's capacity fallback"
    );
}
