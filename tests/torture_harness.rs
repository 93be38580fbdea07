//! Workspace-level drive of the fault-injection torture harness: the same
//! suites `figures -- torture` runs, pinned here so `cargo test` exercises
//! an exhaustive small-bank enumeration, sampled KV and crash-during-
//! recovery runs, an abort-storm run, and the harness's own
//! injected-violation self-check.

use crafty_torture::{
    injected_violation_is_caught, run_bank_torture, run_fallback_torture, run_kv_torture,
    run_recovery_torture, run_service_torture, run_storm_torture, TortureConfig,
};

/// Exhaustive enumeration of a small bank run, once through the hardware
/// phases and once with a `persist_fence` closing every 4th transaction
/// (the server's group commit): every persistence step of the workload is
/// a crash point, and every crash image must recover to a prefix of the
/// committed-transaction order with clean, idempotent logs.
#[test]
fn bank_exhaustive_enumeration_is_violation_free() {
    for seed in [21, 1] {
        let reports = run_bank_torture(&TortureConfig::quick(seed));
        let suites: Vec<&str> = reports.iter().map(|r| r.suite).collect();
        assert_eq!(suites, ["bank", "bank/fenced"]);
        for report in &reports {
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
}

/// Exhaustive enumeration of the bank run committed outside a Redo/Validate
/// hardware transaction, route by route (forced per-line, forced SGL,
/// thread-unsafe on a tiny HTM and on a real-sized one): the
/// per-line fallback's lock-word transitions tick the fault clock, so its
/// enumerated steps include crash points strictly inside lock-hold
/// windows. Every crash image must recover to a commit-order prefix AND
/// boot into a second life that keeps running with conservation intact —
/// a rebooted heap must never see a stuck lock.
#[test]
fn fallback_exhaustive_enumeration_is_violation_free() {
    let reports = run_fallback_torture(&TortureConfig::quick(27));
    assert_eq!(reports.len(), 4, "one report per software route");
    assert_eq!(reports[0].suite, "fallback", "per-line reports first");
    for report in &reports {
        assert!(
            report.ok(),
            "{} violations: {:?}",
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

/// Stratified sampling of the KV suite: structural integrity, exact
/// committed pairs, and prefix consistency at every sampled crash point.
#[test]
fn kv_sampled_crash_points_are_violation_free() {
    let cfg = TortureConfig {
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

/// Abort storms: sustained doomed-transaction bursts must force the SGL
/// fallback without losing liveness or durability.
#[test]
fn abort_storms_keep_the_engine_live_and_durable() {
    let report = run_storm_torture(&TortureConfig::quick(24));
    assert!(report.ok(), "violations: {:?}", report.failures);
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
