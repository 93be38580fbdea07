//! Exhaustive crash-point torture of the software commit, one [`Route`]
//! at a time.
//!
//! Structurally the twin of [`crate::bank`], but every transfer
//! transaction commits outside a Redo/Validate hardware transaction:
//! forced through the per-line fallback
//! ([`crafty_core::CraftyConfig::with_force_fallback`]), forced through
//! the SGL reference, or run in thread-unsafe mode — on an HTM too small
//! for the Log phase, and on a real-sized one, where a hardware Log is
//! followed by a software Redo. The per-line route ticks the fault clock at every
//! lock-word transition (acquire, validate, release — see
//! [`crafty_pmem::MemorySpace::fault_event`]), so its enumerated crash
//! points land *inside* lock-hold windows: after some locks of a sorted
//! acquisition sweep are taken, between the undo append and publication,
//! and between publication and release. The other routes share the same
//! undo-append → drain → publish → stamp sequence without line locks.
//!
//! On top of the bank suite's recovery-and-prefix audit, every crash image
//! gets a **second-life audit**: the recovered image is booted into a
//! fresh [`MemorySpace`], a new engine of the same route is laid out over it
//! (reservation cursors are deterministic, so every address comes back
//! identical), and a further batch of transfers is run. The run completing
//! with conservation of money intact proves a rebooted heap never sees a
//! stuck lock — the lock words live in the volatile region and in the
//! runtime's version array, neither of which survives into the image, and
//! this audit demonstrates that by construction rather than asserting it.

use std::sync::Arc;

use crafty_common::{PersistentTm, SplitMix64};
use crafty_pmem::{FaultPlan, MemorySpace, PersistentImage};

use crate::bank::{draw_picks, pmem_cfg, run_once, transfer, Route, Transfer, ACCOUNTS, INITIAL};
use crate::{enumerate, TortureConfig, TortureReport};

/// Transfers run by the second-life audit after booting a crash image.
const SECOND_LIFE_TXNS: u64 = 4;

/// The routes that commit outside a Redo/Validate hardware transaction,
/// in report order. Per-line stays first: its `[fallback]` report line is
/// the one earlier runs are compared with.
pub const SOFTWARE_ROUTES: [Route; 4] = [
    Route::PerLine,
    Route::Sgl,
    Route::ThreadUnsafeTiny,
    Route::ThreadUnsafe,
];

/// Second-life audit: boots `recovered` into a fresh space, rebuilds the
/// route's engine over it, runs [`SECOND_LIFE_TXNS`] more transfer
/// transactions, and checks conservation of money end to end. A stuck lock
/// word would either hang the first fallback that touches its line (the
/// sorted acquisition loop spins on `LOCKED_MASK`) or corrupt an account;
/// completing cleanly proves the rebooted heap carries no lock state.
fn second_life(
    route: Route,
    recovered: &PersistentImage,
    seed: u64,
    step: u64,
) -> Result<(), String> {
    let mem = Arc::new(MemorySpace::boot(
        recovered,
        pmem_cfg(FaultPlan::inactive()),
    ));
    let engine = route.engine(&mem);
    // Re-establish the layout exactly as a restarted program would; the
    // reservation cursor hands back the same base the first life used.
    let base = mem.reserve_persistent(ACCOUNTS * 8);
    let total = || {
        (0..ACCOUNTS)
            .map(|i| mem.read(base.add(i * 8)))
            .fold(0u64, u64::wrapping_add)
    };
    let before = total();
    if before != ACCOUNTS * INITIAL {
        return Err(format!(
            "second life booted with a non-conserved bank: total {before} vs {}",
            ACCOUNTS * INITIAL
        ));
    }
    let mut rng = SplitMix64::new(seed ^ step ^ 0x5EC0_11D1_F300_0001);
    let mut thread = engine.register_thread(0);
    for _ in 0..SECOND_LIFE_TXNS {
        let from = rng.next_below(ACCOUNTS);
        let to = rng.next_below(ACCOUNTS);
        let amount = rng.next_below(9) + 1;
        thread.execute(&mut |ops| transfer(ops, base, (from, to, amount)));
    }
    drop(thread);
    engine.quiesce();
    let after = total();
    if after != ACCOUNTS * INITIAL {
        return Err(format!(
            "second life broke conservation: total {after} vs {}",
            ACCOUNTS * INITIAL
        ));
    }
    Ok(())
}

/// Enumerates one route: the bank suite's recovery-and-prefix audit, then
/// a full second life over the recovered state.
fn audit_route(route: Route, cfg: &TortureConfig, picks: &[Vec<Transfer>]) -> TortureReport {
    enumerate(
        route.suite(),
        cfg,
        |step| cfg.adversary(step),
        |plan| run_once(route, picks, plan),
        |run, step| second_life(route, &run.recover_to_prefix(picks)?, cfg.seed, step),
    )
}

/// Runs the software-commit torture suite, one report per route of
/// [`SOFTWARE_ROUTES`]: counts the route's persistence steps (lock-word
/// transitions included), replays it crashing at every enumerated step,
/// and audits each crash image. A pinned `crash_step` replays on every
/// route whose run reaches that step.
pub fn run_fallback_torture(cfg: &TortureConfig) -> Vec<TortureReport> {
    let picks = draw_picks(cfg.seed, cfg.txns);
    SOFTWARE_ROUTES
        .map(|route| audit_route(route, cfg, &picks))
        .into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_runs_are_deterministic_and_only_per_line_ticks_lock_windows() {
        let picks = draw_picks(3, 6);
        let steps = SOFTWARE_ROUTES.map(|route| {
            let a = run_once(route, &picks, FaultPlan::count_only());
            let b = run_once(route, &picks, FaultPlan::count_only());
            assert_eq!(a.total_steps, b.total_steps);
            assert_eq!(a.setup_steps, b.setup_steps);
            assert!(a.total_steps > a.setup_steps, "the run must tick");
            a.total_steps - a.setup_steps
        });
        assert!(
            steps[0] > steps[1],
            "per-line ticks lock transitions the SGL reference does not have"
        );
    }

    #[test]
    fn a_final_step_image_passes_the_second_life_audit_on_every_route() {
        let picks = draw_picks(5, 6);
        for route in SOFTWARE_ROUTES {
            let total = run_once(route, &picks, FaultPlan::count_only()).total_steps;
            let pinned = TortureConfig {
                crash_step: Some(total),
                txns: 6,
                ..TortureConfig::quick(5)
            };
            let report = audit_route(route, &pinned, &picks);
            assert_eq!(report.crash_points_tested, 1, "{route:?}");
            assert!(report.ok(), "{route:?}: {:?}", report.failures);
        }
    }
}
