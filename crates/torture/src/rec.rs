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
//! stream (a pass interrupted before its last write, the directory's
//! floor, leaves the floor it read, so the re-run parses the same
//! sequences, repeats the same rollback and finishes the invalidation; a
//! pass that wrote the floor leaves nothing to find — see
//! [`crafty_core::recover_interrupted`]).

use crafty_core::{recover, recover_interrupted};

use crate::bank::{
    check_recovered, draw_picks, prefix_check, run_once, BankRun, Route, Transfer, SPACE_MODEL,
};
use crate::{enumerate, TortureConfig, TortureReport};

/// Trap points per run: each spawns a full budget sweep, so a few spread
/// over the run suffice (`crash_step` still pins an exact one for
/// reproduction).
const TRAP_POINTS: u64 = 6;

/// The budget sweep over one trapped image; reports the first budget that
/// fails to converge.
fn audit(run: &mut BankRun, picks: &[Vec<Transfer>]) -> Result<(), String> {
    let pristine = run.image.take().expect("an audited run trapped its image");
    // Reference: one uninterrupted recovery.
    let mut reference = pristine.clone();
    let full = recover_interrupted(&mut reference, run.dir_addr, u64::MAX)
        .map_err(|e| format!("reference recovery failed: {e}"))?;
    check_recovered(&reference, run.dir_addr, &full)?;
    prefix_check(&reference, run.base, picks)?;
    for budget in 0..=full.writes_applied {
        let mut image = pristine.clone();
        let partial = recover_interrupted(&mut image, run.dir_addr, budget)
            .map_err(|e| format!("budget {budget}: interrupted pass failed: {e}"))?;
        let rerun = recover(&mut image, run.dir_addr)
            .map_err(|e| format!("budget {budget}: re-recovery failed: {e}"))?;
        if image != reference {
            return Err(format!(
                "budget {budget}: re-recovery did not converge to the reference \
                 image ({} writes were applied before the interrupt)",
                partial.writes_applied
            ));
        }
        // The second pass's cut may only move up: nothing that
        // survived the first cut is ever rolled back later.
        if let (Some(second), Some(first)) = (rerun.cutoff_ts, full.report.cutoff_ts) {
            if second < first {
                return Err(format!(
                    "budget {budget}: timestamp cut regressed ({second:?} < {first:?})"
                ));
            }
        }
    }
    Ok(())
}

/// Runs the crash-during-recovery suite over the bank workload.
pub fn run_recovery_torture(cfg: &TortureConfig) -> TortureReport {
    let picks = draw_picks(cfg.seed, cfg.txns);
    let sampled = TortureConfig {
        max_crash_points: match cfg.max_crash_points {
            0 => TRAP_POINTS,
            n => n.min(TRAP_POINTS * 4),
        },
        ..*cfg
    };
    enumerate(
        "recovery",
        &sampled,
        |step| cfg.adversary(step),
        |plan| run_once(Route::Hardware, cfg.seed, &picks, SPACE_MODEL, plan),
        |run, _| audit(run, &picks),
    )
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
