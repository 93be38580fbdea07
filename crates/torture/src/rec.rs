//! Crash-during-recovery torture: recovery must converge when it is
//! itself interrupted.
//!
//! For a handful of stratified crash points of the bank workload, the
//! suite takes the trapped image, runs one uninterrupted recovery to get
//! the reference image, then re-runs
//! [`crafty_core::recover_interrupted`] at *every* write budget from 0 to
//! the full write count, follows each interrupted pass with a normal
//! recovery, and requires byte-for-byte convergence to the reference —
//! recovery is idempotent and restartable at any point of its own write
//! stream (an interrupt during rollback leaves the logs intact so the
//! re-run re-derives the same plan; an interrupt during log zeroing is
//! detected via the directory's persistent phase word and the re-run only
//! finishes the zeroing — see [`crafty_core::recover_interrupted`]).

use crafty_common::trace::ThreadTrace;
use crafty_core::{logs_are_clean, recover, recover_interrupted};
use crafty_pmem::{CrashModel, FaultPlan};

use crate::bank::{draw_picks, prefix_check, run_once, Route};
use crate::{crash_points, EventTraceArm, TortureConfig, TortureFailure, TortureReport};

/// Trap points per run: each spawns a full budget sweep, so a few spread
/// over the run suffice (`crash_step` still pins an exact one for
/// reproduction).
const TRAP_POINTS: u64 = 6;

/// Runs the crash-during-recovery suite over the bank workload.
pub fn run_recovery_torture(cfg: &TortureConfig) -> TortureReport {
    let _trace = EventTraceArm::arm();
    let picks = draw_picks(cfg.seed, cfg.txns);
    let count = run_once(Route::Hardware, &picks, FaultPlan::count_only());
    let max_points = if cfg.max_crash_points == 0 {
        TRAP_POINTS
    } else {
        cfg.max_crash_points.min(TRAP_POINTS * 4)
    };
    let points = crash_points(
        cfg.seed,
        count.setup_steps,
        count.total_steps,
        max_points,
        cfg.crash_step,
    );
    let mut failures = Vec::new();
    let mut fail = |step: u64, detail: String, trace: &[ThreadTrace]| {
        failures.push(TortureFailure::capture(cfg.seed, step, detail, trace))
    };
    for &step in &points {
        let run = run_once(
            Route::Hardware,
            &picks,
            FaultPlan::crash_at(step, CrashModel::adversarial(cfg.seed ^ step)),
        );
        let Some(pristine) = run.image else {
            fail(step, "no crash image captured".to_string(), &run.trace);
            continue;
        };
        // Reference: one uninterrupted recovery.
        let mut reference = pristine.clone();
        let full = match recover_interrupted(&mut reference, run.dir_addr, u64::MAX) {
            Ok(r) => r,
            Err(e) => {
                fail(step, format!("reference recovery failed: {e}"), &run.trace);
                continue;
            }
        };
        if let Err(detail) = prefix_check(&reference, run.base, &picks) {
            fail(step, detail, &run.trace);
            continue;
        }
        for budget in 0..=full.writes_applied {
            let mut image = pristine.clone();
            let partial = match recover_interrupted(&mut image, run.dir_addr, budget) {
                Ok(r) => r,
                Err(e) => {
                    fail(
                        step,
                        format!("budget {budget}: interrupted pass failed: {e}"),
                        &run.trace,
                    );
                    continue;
                }
            };
            let rerun = match recover(&mut image, run.dir_addr) {
                Ok(r) => r,
                Err(e) => {
                    fail(
                        step,
                        format!("budget {budget}: re-recovery failed: {e}"),
                        &run.trace,
                    );
                    continue;
                }
            };
            if image != reference {
                fail(
                    step,
                    format!(
                        "budget {budget}: re-recovery did not converge to the reference \
                         image ({} writes were applied before the interrupt)",
                        partial.writes_applied
                    ),
                    &run.trace,
                );
                continue;
            }
            // The second pass's cut may only move up: nothing that
            // survived the first cut is ever rolled back later.
            if let (Some(second), Some(first)) = (rerun.cutoff_ts, full.report.cutoff_ts) {
                if second < first {
                    fail(
                        step,
                        format!(
                            "budget {budget}: timestamp cut regressed ({second:?} < {first:?})"
                        ),
                        &run.trace,
                    );
                }
            }
            if !logs_are_clean(&image, run.dir_addr) {
                fail(
                    step,
                    format!("budget {budget}: logs dirty after convergence"),
                    &run.trace,
                );
            }
        }
    }
    TortureReport {
        suite: "recovery",
        seed: cfg.seed,
        setup_steps: count.setup_steps,
        total_steps: count.total_steps,
        crash_points_tested: points.len() as u64,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_converges_under_every_interrupt_budget() {
        let report = run_recovery_torture(&TortureConfig::quick(2));
        assert!(report.ok(), "{:?}", report.failures);
        assert!(report.crash_points_tested > 0);
    }
}
