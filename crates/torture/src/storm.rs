//! Abort-storm torture: sustained doomed-transaction bursts.
//!
//! [`crafty_htm::HtmConfig::with_abort_storm`] dooms long consecutive runs
//! of hardware transactions. Under a burst longer than the engine's whole
//! retry budget, a transaction can only complete through the software
//! fallback (Section 4's restart-budget path), which uses no hardware
//! transactions — so the suite asserts three things: every transaction
//! completes (liveness), at least one completed in software (the
//! storm actually bit), and the final counter survives a quiesce + crash +
//! recovery (durability is not weakened by the fallback).

use std::sync::Arc;

use crafty_common::trace::{self, TraceLevel};
use crafty_common::{CompletionPath, PersistentTm};
use crafty_core::{recover, Crafty, CraftyConfig};
use crafty_htm::HtmConfig;
use crafty_pmem::{CrashModel, LatencyModel, MemorySpace, PmemConfig};

use crate::{TortureConfig, TortureFailure, TortureReport};

/// Consecutive doomed hardware transactions per storm cycle: far beyond
/// the engine's retry budget (9 phase rounds × 5 hardware attempts, fixed
/// in `crafty-core`'s `thread.rs`), so a transaction starting inside a
/// burst must fall back to software.
const BURST: u32 = 96;
/// Storm cycle length: leaves a clean window after each burst so the
/// engine's bounded internal hardware-transaction loops stay live.
const PERIOD: u32 = 128;

/// Runs the abort-storm suite. `cfg.txns` counter increments are executed
/// under storms; crash-point fields are unused (storms exercise the HTM
/// layer, not the fault clock).
pub fn run_storm_torture(cfg: &TortureConfig) -> TortureReport {
    let _events = trace::LevelGuard::arm(TraceLevel::Events);
    trace::reset_rings();
    let mut failures = Vec::new();
    let mem = Arc::new(MemorySpace::new(PmemConfig {
        persistent_words: 1 << 15,
        volatile_words: 1 << 13,
        max_threads: 3,
        latency: LatencyModel::instant(),
        crash: CrashModel::strict(),
        ..PmemConfig::small_for_tests()
    }));
    let engine = Crafty::with_htm_config(
        Arc::clone(&mem),
        CraftyConfig::small_for_tests().with_max_threads(1),
        HtmConfig::skylake().with_abort_storm(BURST, PERIOD, cfg.seed),
    );
    // The storm dooms a transaction 1–24 operations after it begins; a
    // body shorter than that fuse would often commit before its doom
    // fires. Touching a few dozen words guarantees every doomed
    // hardware transaction actually aborts.
    let cells = mem.reserve_persistent(32);
    let mut thread = engine.register_thread(0);
    for _ in 0..cfg.txns {
        thread.execute(&mut |ops| {
            for i in 0..32 {
                let a = cells.add(i);
                let v = ops.read(a)?;
                ops.write(a, v + 1)?;
            }
            Ok(())
        });
    }
    drop(thread);
    // No fault clock here: the tail is the live flight-recorder state at
    // the end of the stormed run.
    let tail = trace::ring_snapshot_all();

    let breakdown = engine.breakdown();
    if breakdown.total_persistent() != cfg.txns {
        failures.push(TortureFailure::capture(
            cfg.seed,
            0,
            format!(
                "liveness violated: {} of {} transactions completed under storms",
                breakdown.total_persistent(),
                cfg.txns
            ),
            &tail,
        ));
    }
    if breakdown.completions(CompletionPath::Sgl) == 0 {
        failures.push(TortureFailure::capture(
            cfg.seed,
            0,
            format!(
                "storm too weak: no transaction fell back to the SGL \
                 (burst {BURST}, period {PERIOD})"
            ),
            &tail,
        ));
    }

    engine.quiesce();
    let mut image = mem.crash();
    match recover(&mut image, engine.directory_addr()) {
        Err(e) => failures.push(TortureFailure::capture(
            cfg.seed,
            0,
            format!("recovery failed after the storm run: {e}"),
            &tail,
        )),
        Ok(_) => {
            let recovered = image.read(cells);
            if recovered != cfg.txns {
                failures.push(TortureFailure::capture(
                    cfg.seed,
                    0,
                    format!(
                        "durability violated: counter {recovered} after quiesce + crash, \
                         expected {}",
                        cfg.txns
                    ),
                    &tail,
                ));
            }
        }
    }

    TortureReport {
        suite: "storm",
        seed: cfg.seed,
        setup_steps: 0,
        total_steps: 0,
        crash_points_tested: 0,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storms_force_the_sgl_and_stay_durable() {
        let report = run_storm_torture(&TortureConfig::quick(5));
        assert!(report.ok(), "{:?}", report.failures);
    }
}
