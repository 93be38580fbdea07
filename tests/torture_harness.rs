//! Workspace-level drive of the fault-injection torture harness: the same
//! suites `figures -- torture` runs, pinned here so `cargo test` exercises
//! an exhaustive enumeration of every bank route and of the heap suite,
//! sampled KV and crash-during-recovery runs, and the harness's own
//! injected-violation self-check.

use std::collections::BTreeSet;

use crafty_common::CompletionPath;
use crafty_pmem::{CrashModel, FaultPlan};
use crafty_torture::bank::{draw_picks, run_once, run_route, ROUTES};
use crafty_torture::heap;
use crafty_torture::{
    injected_violation_is_caught, run_heap_torture, run_kv_torture, run_recovery_torture,
    run_service_torture, Route, TortureConfig,
};

/// Exhaustive enumeration of `routes` of the bank rig at one seed: every
/// persistence step of the workload is a crash point, and every crash
/// image must come from a run that completed every transaction, recover
/// to a prefix of the committed-transaction order with clean, idempotent
/// logs, and boot into a second life that keeps running with conservation
/// intact.
fn enumerate_exhaustively(routes: &[Route], seed: u64) {
    for &route in routes {
        let report = run_route(route, &TortureConfig::quick(seed));
        assert_eq!(report.suite, route.suite());
        assert!(
            report.ok(),
            "{} violations at seed {seed}: {:?}",
            report.suite,
            report.failures
        );
        assert_eq!(
            report.crash_points_tested,
            report.total_steps - report.setup_steps,
            "exhaustive mode must audit every post-setup step"
        );
        assert!(report.crash_points_tested > 100, "run too small to matter");
    }
}

/// The hardware-phase routes: the hardware phases alone, with a
/// `persist_fence` closing every 4th transaction (the server's group
/// commit), and under abort storms (hardware and software commits on one
/// log). `bank` reports first.
#[test]
fn bank_exhaustive_enumeration_is_violation_free() {
    assert_eq!(ROUTES[0].suite(), "bank");
    enumerate_exhaustively(&ROUTES[..3], 21);
}

/// The forced per-line route, which commits every transaction outside a
/// Redo/Validate hardware transaction: the per-line fallback's lock-word
/// transitions tick the fault clock, so its enumerated steps include
/// crash points strictly inside lock-hold windows, and the second life
/// proves a rebooted heap never sees a stuck lock.
#[test]
fn fallback_exhaustive_enumeration_is_violation_free() {
    enumerate_exhaustively(&ROUTES[3..], 21);
}

/// Exhaustive enumeration of the heap suite at the seed CI runs: a seeded
/// stack whose pushes allocate and whose pops free, audited at every crash
/// point for a prefix of the stack, a header that agrees with it, and a
/// second life whose pushes alias no live node.
#[test]
fn heap_exhaustive_enumeration_is_violation_free() {
    let report = run_heap_torture(&TortureConfig::quick(1));
    assert!(report.ok(), "violations: {:?}", report.failures);
    assert_eq!(
        report.crash_points_tested,
        report.total_steps - report.setup_steps
    );
    assert!(report.crash_points_tested > 100, "run too small to matter");
}

/// The heap suite only bites if its runs reach every path of the heap: at
/// the seeds CI and the test above run, a push reuses a popped node of
/// each size, and pushes of each size bump the cursor.
#[test]
fn heap_seeds_reach_the_bump_path_and_both_free_lists() {
    for seed in [1, 21] {
        let (mut stack, mut freed) = (Vec::new(), Vec::new());
        let (mut reused, mut bumped) = (BTreeSet::new(), BTreeSet::new());
        for op in heap::draw_ops(seed, TortureConfig::quick(seed).txns) {
            let Some(words) = op else {
                freed.extend(stack.pop());
                continue;
            };
            match freed.iter().rposition(|&w| w == words) {
                Some(i) => reused.insert(freed.remove(i)),
                None => bumped.insert(words),
            };
            stack.push(words);
        }
        let both = BTreeSet::from([heap::SMALL, heap::LARGE]);
        assert_eq!((&reused, &bumped), (&both, &both), "seed {seed}");
    }
}

/// Stratified sampling of the KV suite: structural integrity, exact
/// committed pairs, and prefix consistency at every sampled crash point.
/// At seed 22 the first resize starts within 20 transactions; 30 carry
/// the run through its migration.
#[test]
fn kv_sampled_crash_points_are_violation_free() {
    let cfg = TortureConfig {
        txns: 30,
        max_crash_points: 48,
        ..TortureConfig::quick(22)
    };
    let report = run_kv_torture(&cfg);
    assert!(report.ok(), "violations: {:?}", report.failures);
    assert!(report.crash_points_tested > 0);
}

/// Crash-during-recovery: recovery interrupted at every write budget must
/// converge to the uninterrupted recovery image when re-run.
#[test]
fn interrupted_recovery_converges_at_sampled_crash_points() {
    let report = run_recovery_torture(&TortureConfig::quick(23));
    assert!(report.ok(), "violations: {:?}", report.failures);
    assert!(report.crash_points_tested > 0);
}

/// Abort storms: sustained doomed-transaction bursts must force the
/// software fallback without losing liveness — every transaction of the
/// storm route completes, some in software. (Durability is the
/// enumeration's audit above.)
#[test]
fn abort_storms_keep_the_engine_live_and_durable() {
    let picks = draw_picks(24, 10);
    let run = run_once(
        Route::Storm,
        24,
        &picks,
        CrashModel::strict(),
        FaultPlan::inactive(),
    );
    assert_eq!(run.breakdown.total_persistent(), 10, "liveness");
    assert!(
        run.breakdown.completions(CompletionPath::Sgl) > 0,
        "storm too weak: no transaction fell back to software"
    );
}

/// The networked service suite, sampled: resilient sequenced clients
/// drive non-idempotent increments through fault-injected connections
/// while the fault clock kills and restarts the server; every sampled
/// crash point must stay exactly-once (final counters equal the sum of
/// acked increments — no loss, no double-apply).
#[test]
fn service_sampled_crash_points_stay_exactly_once() {
    let cfg = TortureConfig {
        max_crash_points: 3,
        ..TortureConfig::quick(26)
    };
    let report = run_service_torture(&cfg);
    assert!(report.ok(), "violations: {:?}", report.failures);
    assert_eq!(report.crash_points_tested, 3);
}

/// The auditor itself is exercised: silently corrupting one committed
/// account in a crash image must produce a reproducible `(seed, step)`
/// failure.
#[test]
fn harness_catches_an_injected_violation() {
    let failure = injected_violation_is_caught(&TortureConfig::quick(25))
        .expect("the auditor must flag the injected corruption");
    assert_eq!(failure.seed, 25);
    assert!(failure.step > 0);
    let shown = failure.to_string();
    assert!(
        shown.contains("seed 25") && shown.contains("step"),
        "failure display must carry the replay coordinates: {shown}"
    );
}
