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
//! tests drive the *same seeded workload* down each [`Route`] and assert:
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

use std::sync::Arc;

use crafty_common::{CompletionPath, PAddr, PersistentTm, SplitMix64};
use crafty_core::{logs_are_clean, recover, Crafty, CraftyConfig, FallbackPolicy, ThreadingMode};
use crafty_htm::HtmConfig;
use crafty_pmem::{CrashModel, FaultPlan, LatencyModel, MemorySpace, PersistentImage, PmemConfig};
use proptest::prelude::*;

const ACCOUNTS: u64 = 16;
const INITIAL: u64 = 1_000;
const TRANSFERS_PER_TXN: usize = 4;

type Transfer = (u64, u64, u64);

fn draw_picks(seed: u64, txns: u64) -> Vec<Vec<Transfer>> {
    let mut rng = SplitMix64::new(seed ^ 0xD1FF_E2E4_71A1_5EED);
    (0..txns)
        .map(|_| {
            (0..TRANSFERS_PER_TXN)
                .map(|_| {
                    (
                        rng.next_below(ACCOUNTS),
                        rng.next_below(ACCOUNTS),
                        rng.next_below(9) + 1,
                    )
                })
                .collect()
        })
        .collect()
}

/// One way for a transaction to commit outside a Redo/Validate hardware
/// transaction.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Route {
    /// Thread-safe, every transaction forced through the per-line fallback.
    PerLine,
    /// Thread-safe, every transaction forced through the SGL reference.
    Sgl,
    /// Thread-unsafe mode: hardware Log phase, software Redo.
    ThreadUnsafe,
    /// Thread-unsafe mode on an HTM too small for the Log phase: the
    /// capacity fallback, i.e. the software commit without any lock.
    ThreadUnsafeTiny,
}

const ROUTES: [Route; 4] = [
    Route::Sgl,
    Route::PerLine,
    Route::ThreadUnsafe,
    Route::ThreadUnsafeTiny,
];

impl Route {
    fn engine(self, mem: &Arc<MemorySpace>) -> Crafty {
        let cfg = CraftyConfig::small_for_tests()
            .with_max_threads(1)
            .with_undo_log_entries(64);
        let (cfg, htm) = match self {
            Route::PerLine => (cfg.with_force_fallback(true), HtmConfig::skylake()),
            Route::Sgl => (
                cfg.with_force_fallback(true)
                    .with_fallback(FallbackPolicy::Sgl),
                HtmConfig::skylake(),
            ),
            Route::ThreadUnsafe => (
                cfg.with_mode(ThreadingMode::ThreadUnsafe),
                HtmConfig::skylake(),
            ),
            Route::ThreadUnsafeTiny => (
                cfg.with_mode(ThreadingMode::ThreadUnsafe),
                HtmConfig::tiny(),
            ),
        };
        Crafty::with_htm_config(Arc::clone(mem), cfg, htm)
    }
}

/// Result of one run down a route: the final (or trapped) state plus
/// everything the auditor needs.
struct RouteRun {
    setup_steps: u64,
    total_steps: u64,
    base: PAddr,
    dir_addr: PAddr,
    final_accounts: Vec<u64>,
    /// Transactions that completed through the software commit.
    software_commits: u64,
    image: Option<PersistentImage>,
}

/// Runs the seeded bank workload down `route`, under `plan`.
fn run_route(picks: &[Vec<Transfer>], route: Route, plan: FaultPlan) -> RouteRun {
    let mem = Arc::new(MemorySpace::new(
        PmemConfig {
            persistent_words: 1 << 15,
            volatile_words: 1 << 13,
            max_threads: 3,
            latency: LatencyModel::instant(),
            crash: CrashModel::strict(),
            ..PmemConfig::small_for_tests()
        }
        .with_fault_plan(plan),
    ));
    let engine = route.engine(&mem);
    let dir_addr = engine.directory_addr();
    let base = mem.reserve_persistent(ACCOUNTS * 8);
    for i in 0..ACCOUNTS {
        mem.write(base.add(i * 8), INITIAL);
        mem.clwb(0, base.add(i * 8));
    }
    mem.drain(0);
    let mut thread = engine.register_thread(0);
    let setup_steps = mem.fault_steps();
    for txn in picks {
        thread.execute(&mut |ops| {
            for &(from, to, amount) in txn {
                let a = base.add(from * 8);
                let b = base.add(to * 8);
                let va = ops.read(a)?;
                ops.write(a, va.wrapping_sub(amount))?;
                let vb = ops.read(b)?;
                ops.write(b, vb.wrapping_add(amount))?;
            }
            Ok(())
        });
    }
    drop(thread);
    engine.quiesce();
    RouteRun {
        setup_steps,
        total_steps: mem.fault_steps(),
        base,
        dir_addr,
        final_accounts: (0..ACCOUNTS).map(|i| mem.read(base.add(i * 8))).collect(),
        software_commits: engine.breakdown().completions(CompletionPath::Sgl),
        image: mem.take_fault_image(),
    }
}

/// The audit every trapped crash image must pass, identically for every
/// route: recovery, clean logs, idempotent re-recovery, and prefix
/// consistency against the shadow oracle.
fn audit(
    mut image: PersistentImage,
    run: &RouteRun,
    picks: &[Vec<Transfer>],
) -> Result<u64, String> {
    recover(&mut image, run.dir_addr).map_err(|e| format!("recovery failed: {e}"))?;
    if !logs_are_clean(&image, run.dir_addr) {
        return Err("logs are not clean after recovery".to_string());
    }
    let once = image.clone();
    let second = recover(&mut image, run.dir_addr).map_err(|e| format!("re-recovery: {e}"))?;
    if second.sequences_found != 0 || second.entries_rolled_back != 0 || image != once {
        return Err("second recovery is not a no-op".to_string());
    }
    let recovered: Vec<u64> = (0..ACCOUNTS)
        .map(|i| image.read(run.base.add(i * 8)))
        .collect();
    let mut shadow = vec![INITIAL; ACCOUNTS as usize];
    for k in 0..=picks.len() {
        if k > 0 {
            for &(from, to, amount) in &picks[k - 1] {
                shadow[from as usize] = shadow[from as usize].wrapping_sub(amount);
                shadow[to as usize] = shadow[to as usize].wrapping_add(amount);
            }
        }
        if recovered == shadow {
            return Ok(k as u64);
        }
    }
    Err("recovered accounts match no prefix of the commit order".to_string())
}

/// Samples `n` crash steps evenly over `(setup, total]`, seeded.
fn sample_steps(seed: u64, setup: u64, total: u64, n: u64) -> Vec<u64> {
    let span = total - setup;
    assert!(span > n, "run too short to sample");
    let mut rng = SplitMix64::new(seed ^ 0x5A4D_73E9_0000_0001);
    (0..n)
        .map(|i| {
            let lo = setup + 1 + i * span / n;
            let hi = setup + (i + 1) * span / n;
            lo + rng.next_below(hi - lo + 1)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Fault-free completion: every route commits the same seeded
    /// workload to the identical final state, with money conserved.
    #[test]
    fn final_state_is_route_independent(seed: u64, txns in 2u64..12) {
        let picks = draw_picks(seed, txns);
        let reference = run_route(&picks, Route::Sgl, FaultPlan::inactive());
        for route in ROUTES {
            let run = run_route(&picks, route, FaultPlan::inactive());
            prop_assert_eq!(
                &reference.final_accounts, &run.final_accounts,
                "{:?} committed a different final state than the SGL reference", route
            );
        }
        let total: u64 = reference
            .final_accounts
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
    for seed in [41u64, 42, 43] {
        let picks = draw_picks(seed, 8);
        for route in ROUTES {
            let count = run_route(&picks, route, FaultPlan::count_only());
            let steps = sample_steps(seed, count.setup_steps, count.total_steps, 4);
            for step in steps {
                for (label, model) in [
                    ("strict", CrashModel::strict()),
                    ("relaxed", CrashModel::relaxed(seed ^ step)),
                    ("adversarial", CrashModel::adversarial(seed ^ step)),
                ] {
                    let mut run = run_route(&picks, route, FaultPlan::crash_at(step, model));
                    let image = run.image.take().unwrap_or_else(|| {
                        panic!("{route:?} trapped no image at step {step} ({label})")
                    });
                    if let Err(detail) = audit(image, &run, &picks) {
                        panic!(
                            "{route:?} failed the {label} audit at step {step} \
                             (seed {seed}): {detail}"
                        );
                    }
                }
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
    let sgl = run_route(&picks, Route::Sgl, FaultPlan::count_only());
    let per_line = run_route(&picks, Route::PerLine, FaultPlan::count_only());
    assert_eq!(sgl.final_accounts, per_line.final_accounts);
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
    let commits = |route| run_route(&picks, route, FaultPlan::inactive()).software_commits;
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
