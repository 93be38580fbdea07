//! Exhaustive crash-point torture of a miniature bank workload.
//!
//! The workload is deliberately self-contained and single-threaded: one
//! thread runs `txns` transfer transactions over a small line-aligned
//! account array, with every pick pre-drawn from a seeded stream. A
//! single-threaded run makes the persistence-step stream a pure function
//! of the seed, so crashing at step *s* on a replay reproduces exactly the
//! machine state the counting run passed through at step *s* — the whole
//! harness is deterministic end to end.
//!
//! The engine the workload runs on is picked by a [`Route`]: the hardware
//! phases (this suite), or one of the routes through the software commit
//! that [`crate::fallback`] audits with the same run and audit code.
//!
//! The rig is public — [`Route`], [`draw_picks`], [`run_once`] /
//! [`BankRun`], [`recover_checked`], [`prefix_check`] — so a test that
//! compares routes (`tests/fallback_differential.rs`) drives this bank
//! rather than a copy of it.

use std::sync::Arc;

use crafty_common::trace::{self, ThreadTrace, TraceLevel};
use crafty_common::{BreakdownSnapshot, PAddr, PersistentTm, SplitMix64, TxAbort, TxnOps};
use crafty_core::{logs_are_clean, recover, Crafty, CraftyConfig, FallbackPolicy, ThreadingMode};
use crafty_htm::HtmConfig;
use crafty_pmem::{CrashModel, FaultPlan, LatencyModel, MemorySpace, PersistentImage, PmemConfig};

use crate::{enumerate, Replay, TortureConfig, TortureFailure, TortureReport};

/// Accounts in the bank (each on its own cache line).
pub const ACCOUNTS: u64 = 16;
/// Initial balance per account.
pub const INITIAL: u64 = 1_000;
/// Transfers per transaction.
pub const TRANSFERS_PER_TXN: usize = 4;

/// One transfer: `(from, to, amount)`.
pub type Transfer = (u64, u64, u64);

/// Draws the full deterministic pick list for a run: `txns` transactions
/// of [`TRANSFERS_PER_TXN`] transfers each.
pub fn draw_picks(seed: u64, txns: u64) -> Vec<Vec<Transfer>> {
    let mut rng = SplitMix64::new(seed ^ 0xBA2C_0DE5_0001_F00D);
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

/// One transfer over the account array at `base`, inside a transaction body.
pub(crate) fn transfer(
    ops: &mut dyn TxnOps,
    base: PAddr,
    (from, to, amount): Transfer,
) -> Result<(), TxAbort> {
    let (a, b) = (base.add(from * 8), base.add(to * 8));
    let va = ops.read(a)?;
    ops.write(a, va.wrapping_sub(amount))?;
    let vb = ops.read(b)?;
    ops.write(b, vb.wrapping_add(amount))
}

/// Applies one transaction's transfers to a shadow account vector with
/// the same arithmetic the transactional body uses.
fn apply_shadow(shadow: &mut [u64], txn: &[Transfer]) {
    for &(from, to, amount) in txn {
        shadow[from as usize] = shadow[from as usize].wrapping_sub(amount);
        shadow[to as usize] = shadow[to as usize].wrapping_add(amount);
    }
}

/// How the bank's transactions commit: who provides atomicity meanwhile.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Route {
    /// The hardware phases (Log, then Redo or Validate): the `bank` suite.
    Hardware,
    /// Forced through the (default) per-line fallback.
    PerLine,
    /// Forced through the single-global-lock reference.
    Sgl,
    /// Thread-unsafe mode on [`HtmConfig::tiny`]: the Log phase rarely fits
    /// a transaction's account lines plus their undo entries, so most
    /// transactions take the capacity fallback — the software commit with
    /// no lock at all — and the rest a hardware Log plus a software Redo.
    ThreadUnsafeTiny,
    /// Thread-unsafe mode on a real-sized HTM: every transaction is a
    /// hardware Log plus a software Redo, none takes the software commit.
    ThreadUnsafe,
}

impl Route {
    /// The suite name of the route's report.
    pub const fn suite(self) -> &'static str {
        match self {
            Route::Hardware => "bank",
            Route::PerLine => "fallback",
            Route::Sgl => "fallback/sgl",
            Route::ThreadUnsafeTiny => "fallback/thread-unsafe",
            Route::ThreadUnsafe => "fallback/thread-unsafe-hw",
        }
    }

    /// Lays a small single-thread engine committing through this route
    /// out over `mem`.
    pub(crate) fn engine(self, mem: &Arc<MemorySpace>) -> Crafty {
        let cfg = CraftyConfig::small_for_tests()
            .with_max_threads(1)
            .with_undo_log_entries(64);
        let forced = cfg.with_force_fallback(true);
        let unlocked = cfg.with_mode(ThreadingMode::ThreadUnsafe);
        let (cfg, htm) = match self {
            Route::Hardware => (cfg, HtmConfig::skylake()),
            Route::PerLine => (forced, HtmConfig::skylake()),
            Route::Sgl => (
                forced.with_fallback(FallbackPolicy::Sgl),
                HtmConfig::skylake(),
            ),
            Route::ThreadUnsafeTiny => (unlocked, HtmConfig::tiny()),
            Route::ThreadUnsafe => (unlocked, HtmConfig::skylake()),
        };
        Crafty::with_htm_config(Arc::clone(mem), cfg, htm)
    }
}

/// The memory configuration of every run (and of the fallback suite's
/// second lives: sizes must match so [`MemorySpace::boot`] accepts the
/// image).
pub(crate) fn pmem_cfg(plan: FaultPlan) -> PmemConfig {
    PmemConfig {
        persistent_words: 1 << 15,
        volatile_words: 1 << 13,
        max_threads: 3,
        latency: LatencyModel::instant(),
        crash: CrashModel::strict(),
        ..PmemConfig::small_for_tests()
    }
    .with_fault_plan(plan)
}

/// Everything a completed (possibly trapped) bank run hands to the
/// auditor.
pub struct BankRun {
    /// Fault-clock value after engine construction, prefill, and thread
    /// registration — the first enumerable crash step is `setup_steps + 1`.
    pub setup_steps: u64,
    /// Fault-clock value when the run finished.
    pub total_steps: u64,
    /// First word of the account array.
    pub base: PAddr,
    /// The engine's log-directory address (recovery's entry point).
    pub dir_addr: PAddr,
    /// The committed account balances when the run finished.
    pub accounts: Vec<u64>,
    /// The engine's counters when the run finished.
    pub breakdown: BreakdownSnapshot,
    /// The image trapped at the plan's crash step, if one was armed and
    /// reached.
    pub image: Option<PersistentImage>,
    /// Flight-recorder state frozen at the same tick as `image` (empty
    /// when no trap fired or event tracing was disarmed).
    pub trace: Vec<ThreadTrace>,
}

impl Replay for BankRun {
    fn setup_steps(&self) -> u64 {
        self.setup_steps
    }
    fn total_steps(&self) -> u64 {
        self.total_steps
    }
    fn trapped(&self) -> bool {
        self.image.is_some()
    }
    fn trace(&self) -> &[ThreadTrace] {
        &self.trace
    }
}

impl BankRun {
    /// The audit every route's crash image must pass: takes the trapped
    /// image through [`recover_checked`] and [`prefix_check`] and returns
    /// it recovered.
    ///
    /// # Panics
    ///
    /// If the run trapped no image ([`enumerate`] audits trapped runs only).
    pub fn recover_to_prefix(
        &mut self,
        picks: &[Vec<Transfer>],
    ) -> Result<PersistentImage, String> {
        let image = self.image.take().expect("an audited run trapped its image");
        let recovered = recover_checked(image, self.dir_addr)?;
        prefix_check(&recovered, self.base, picks)?;
        Ok(recovered)
    }
}

/// Runs the bank workload once down `route` under `plan` and returns the
/// run record. The event rings are reset first, so a trapped run's frozen
/// tail shows only this replay's events. The engine is not quiesced: the
/// run's last fault-clock tick is its last commit's.
pub fn run_once(route: Route, picks: &[Vec<Transfer>], plan: FaultPlan) -> BankRun {
    trace::reset_rings();
    let mem = Arc::new(MemorySpace::new(pmem_cfg(plan)));
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
        thread.execute(&mut |ops| txn.iter().try_for_each(|&t| transfer(ops, base, t)));
    }
    drop(thread);
    BankRun {
        setup_steps,
        total_steps: mem.fault_steps(),
        base,
        dir_addr,
        accounts: (0..ACCOUNTS).map(|i| mem.read(base.add(i * 8))).collect(),
        breakdown: engine.breakdown(),
        image: mem.take_fault_image(),
        trace: mem.take_fault_trace(),
    }
}

/// Recovers `image` and checks the generic log invariants: recovery
/// succeeds, the logs decode clean afterwards, and a second recovery is a
/// byte-for-byte no-op. Returns the recovered image.
pub fn recover_checked(
    mut image: PersistentImage,
    dir_addr: PAddr,
) -> Result<PersistentImage, String> {
    recover(&mut image, dir_addr).map_err(|e| format!("recovery failed: {e}"))?;
    if !logs_are_clean(&image, dir_addr) {
        return Err("logs are not clean after recovery".to_string());
    }
    let once = image.clone();
    let second = recover(&mut image, dir_addr).map_err(|e| format!("re-recovery failed: {e}"))?;
    if second.sequences_found != 0 || second.entries_rolled_back != 0 {
        return Err(format!(
            "recovery is not a no-op the second time: {second:?}"
        ));
    }
    if image != once {
        return Err("second recovery changed the image".to_string());
    }
    Ok(image)
}

/// Global-cut consistency: the recovered account array must equal the
/// shadow oracle's state after some prefix of the committed-transaction
/// order (single-threaded, so commit order is program order). Returns the
/// matching prefix length.
pub fn prefix_check(
    image: &PersistentImage,
    base: PAddr,
    picks: &[Vec<Transfer>],
) -> Result<u64, String> {
    let recovered: Vec<u64> = (0..ACCOUNTS).map(|i| image.read(base.add(i * 8))).collect();
    let mut shadow = vec![INITIAL; ACCOUNTS as usize];
    for k in 0..=picks.len() {
        if k > 0 {
            apply_shadow(&mut shadow, &picks[k - 1]);
        }
        if recovered == shadow {
            return Ok(k as u64);
        }
    }
    Err(format!(
        "recovered accounts match no prefix of the commit order \
         (total {} vs expected {})",
        recovered.iter().sum::<u64>(),
        ACCOUNTS * INITIAL,
    ))
}

/// Runs the bank torture suite: counts the workload's persistence steps,
/// replays it crashing at every enumerated step, and audits each crash
/// image. See the crate docs for the invariants.
pub fn run_bank_torture(cfg: &TortureConfig) -> TortureReport {
    let picks = draw_picks(cfg.seed, cfg.txns);
    enumerate(
        Route::Hardware.suite(),
        cfg,
        |step| cfg.adversary(step),
        |plan| run_once(Route::Hardware, &picks, plan),
        |run, _| run.recover_to_prefix(&picks).map(drop),
    )
}

/// Self-test of the auditor: traps a mid-run image, corrupts one account
/// word of the *recovered* state, and checks that the prefix audit flags
/// it. Returns the failure the auditor produced (proving an injected
/// violation is caught and reported), or an error if it slipped through.
pub fn injected_violation_is_caught(cfg: &TortureConfig) -> Result<TortureFailure, String> {
    let _events = trace::LevelGuard::arm(TraceLevel::Events);
    let picks = draw_picks(cfg.seed, cfg.txns);
    let count = run_once(Route::Hardware, &picks, FaultPlan::count_only());
    let step = count.setup_steps + (count.total_steps - count.setup_steps) / 2;
    let run = run_once(
        Route::Hardware,
        &picks,
        FaultPlan::crash_at(step, CrashModel::strict()),
    );
    let image = run
        .image
        .ok_or_else(|| "no crash image captured for the self-test".to_string())?;
    let mut recovered = recover_checked(image, run.dir_addr)?;
    // Inject the violation: one account silently gains money, breaking
    // conservation (no prefix of the commit order can match).
    let victim = run.base;
    recovered.write(victim, recovered.read(victim).wrapping_add(1));
    match prefix_check(&recovered, run.base, &picks) {
        Err(detail) => Ok(TortureFailure::capture(cfg.seed, step, detail, &run.trace)),
        Ok(k) => Err(format!(
            "auditor accepted a corrupted image as prefix {k} — injected violations go unreported"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_run_is_deterministic() {
        let picks = draw_picks(3, 6);
        let a = run_once(Route::Hardware, &picks, FaultPlan::count_only());
        let b = run_once(Route::Hardware, &picks, FaultPlan::count_only());
        assert_eq!(a.total_steps, b.total_steps);
        assert_eq!(a.setup_steps, b.setup_steps);
        assert!(a.total_steps > a.setup_steps, "the run must tick");
    }

    /// The crash-point counts CI greps for at `--seed 1`, and why the two
    /// hardware-Log routes sit where they do. While the Log commit still
    /// published what it had rolled back, it stored every rolled-back
    /// persistent word over itself and ticked the fault clock for it:
    /// `bank` counted 582 points and `fallback/thread-unsafe-hw` 604. Now
    /// a rolled-back line is validated, not published, and exactly those
    /// ticks are gone — one per distinct account a transaction touched.
    /// No coverage went with them: the image at such a tick was its
    /// predecessor's (an old value stored over itself dirties nothing new).
    #[test]
    fn seed_1_anchors_moved_by_exactly_the_rolled_back_words() {
        let cfg = TortureConfig::quick(1);
        let picks = draw_picks(cfg.seed, cfg.txns);
        let rolled_back: u64 = picks
            .iter()
            .map(|txn| {
                let mut accounts: Vec<u64> = txn.iter().flat_map(|&(a, b, _)| [a, b]).collect();
                accounts.sort_unstable();
                accounts.dedup();
                accounts.len() as u64
            })
            .sum();
        let points = |route| {
            let run = run_once(route, &picks, FaultPlan::count_only());
            run.total_steps - run.setup_steps
        };
        assert_eq!(582 - points(Route::Hardware), rolled_back);
        assert_eq!(604 - points(Route::ThreadUnsafe), rolled_back);
        // The routes that never run a hardware Log commit did not move.
        assert_eq!(points(Route::PerLine), 578);
        assert_eq!(points(Route::Sgl), 490);
        assert_eq!(points(Route::ThreadUnsafeTiny), 490);
    }

    #[test]
    fn a_final_step_image_recovers_to_the_full_run() {
        let picks = draw_picks(5, 6);
        let count = run_once(Route::Hardware, &picks, FaultPlan::count_only());
        let run = run_once(
            Route::Hardware,
            &picks,
            FaultPlan::crash_at(count.total_steps, CrashModel::strict()),
        );
        let image = run.image.expect("final step is reached");
        let recovered = recover_checked(image, run.dir_addr).expect("audit");
        let k = prefix_check(&recovered, run.base, &picks).expect("prefix");
        // The final step is after every commit; at most the last (not yet
        // drained) transactions may roll back.
        assert!(k <= picks.len() as u64);
    }

    #[test]
    fn self_test_catches_an_injected_violation() {
        let failure = injected_violation_is_caught(&TortureConfig::quick(11)).expect("caught");
        assert_eq!(failure.seed, 11);
        assert!(failure.step > 0);
    }
}
