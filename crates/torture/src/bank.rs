//! Exhaustive crash-point torture of a miniature bank workload, one
//! [`Route`] at a time.
//!
//! The workload is deliberately self-contained and single-threaded: one
//! thread runs `txns` transfer transactions over a small line-aligned
//! account array, with every pick pre-drawn from a seeded stream. A
//! single-threaded run makes the persistence-step stream a pure function
//! of the seed, so crashing at step *s* on a replay reproduces exactly the
//! machine state the counting run passed through at step *s* — the whole
//! harness is deterministic end to end.
//!
//! The engine the workload runs on is picked by a [`Route`], one row of
//! [`ROUTES`] and one `bank/<route>` report each. The per-line fallback
//! route ticks the fault clock at every lock-word transition
//! ([`crafty_pmem::MemorySpace::fault_event`]), so its crash points land
//! *inside* lock-hold windows: mid-acquisition, between the undo append and
//! publication, and between publication and release.
//!
//! Every route's crash images pass one audit ([`run_route`]): the replay
//! completed every transaction, the image recovers to a prefix of the
//! commit order, and the recovered image boots into a second life that
//! keeps running, crashes and recovers again with money conserved. The
//! lock words live in the volatile region and the runtime's version array,
//! so a rebooted heap never sees a stuck lock; the second life shows it by
//! construction.
//!
//! The rig is public — [`Route`], [`draw_picks`], [`run_once`] /
//! [`BankRun`], [`recover_checked`], [`prefix_check`] — so a test that
//! compares routes (`tests/fallback_differential.rs`) drives this bank
//! rather than a copy of it.

use std::sync::Arc;

use crafty_common::trace::{self, ThreadTrace, TraceLevel};
use crafty_common::{BreakdownSnapshot, PAddr, PersistentTm, SplitMix64, TxAbort, TxnOps};
use crafty_core::{
    parse_sequences, recover, recover_interrupted, recovery_floor, Crafty, CraftyConfig,
    InterruptedRecovery, LogDirectory, Sequence,
};
use crafty_htm::HtmConfig;
use crafty_pmem::{CrashModel, FaultPlan, LatencyModel, MemorySpace, PersistentImage, PmemConfig};

use crate::{enumerate, Replay, TortureConfig, TortureFailure, TortureReport};

/// Accounts in the bank (each on its own cache line).
pub const ACCOUNTS: u64 = 16;
/// Initial balance per account.
pub const INITIAL: u64 = 1_000;
/// Transfers per transaction.
pub const TRANSFERS_PER_TXN: usize = 4;
/// Transactions per fenced batch on [`Route::Fenced`].
pub const FENCED_BATCH: usize = 4;
/// Consecutive doomed hardware transactions per storm cycle on
/// [`Route::Storm`]: far beyond the engine's retry budget (9 phase rounds
/// × 5 hardware attempts, fixed in `crafty-core`'s `thread.rs`), so a
/// transaction starting inside a burst must fall back to software.
pub const STORM_BURST: u32 = 96;
/// Storm cycle length: leaves a clean window after each burst so the
/// engine's bounded internal hardware-transaction loops stay live.
pub const STORM_PERIOD: u32 = 128;
/// Transfers run by the second-life audit after booting a crash image.
const SECOND_LIFE_TXNS: u64 = 4;

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
fn transfer(
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
    /// The hardware phases (Log, then Redo or Validate).
    Hardware,
    /// The hardware phases with `persist_fence(0)` after every
    /// [`FENCED_BATCH`]th transaction: a group-committing server's batch.
    Fenced,
    /// The hardware phases on an HTM that dooms [`STORM_BURST`] of every
    /// [`STORM_PERIOD`] hardware transactions (placed by the suite seed):
    /// a transaction caught in a burst exhausts its retry budget and
    /// commits through the per-line software fallback, the rest in
    /// hardware, all on one log.
    Storm,
    /// Forced through the per-line software commit.
    PerLine,
}

impl Route {
    /// The suite name of the route's report.
    pub const fn suite(self) -> &'static str {
        match self {
            Route::Hardware => "bank",
            Route::Fenced => "bank/fenced",
            Route::Storm => "bank/storm",
            Route::PerLine => "bank/per-line",
        }
    }

    /// Lays a small single-thread engine committing through this route
    /// out over `mem`; `seed` places the storms of [`Route::Storm`].
    fn engine(self, mem: &Arc<MemorySpace>, seed: u64) -> Crafty {
        let cfg = CraftyConfig::small_for_tests()
            .with_max_threads(1)
            .with_undo_log_entries(64);
        let forced = cfg.with_force_fallback(true);
        let skylake = HtmConfig::skylake();
        let (cfg, htm) = match self {
            Route::Hardware | Route::Fenced => (cfg, skylake),
            Route::Storm => (
                cfg,
                skylake.with_abort_storm(STORM_BURST, STORM_PERIOD, seed),
            ),
            Route::PerLine => (forced, skylake),
        };
        Crafty::with_htm_config(Arc::clone(mem), cfg, htm)
    }
}

/// Every route of the bank suite, in report order: `bank` stays first.
pub const ROUTES: [Route; 4] = [Route::Hardware, Route::Fenced, Route::Storm, Route::PerLine];

/// The model the suite's spaces run under: strict, so no line is evicted
/// mid-run and each crash image faces only the word lottery of
/// [`TortureConfig::adversary`](crate::TortureConfig::adversary).
pub(crate) const SPACE_MODEL: CrashModel = CrashModel::strict();

/// The memory configuration of every run and every second life (sizes
/// must match so [`MemorySpace::boot`] accepts the image), with the space
/// running under `crash`.
fn pmem_cfg(crash: CrashModel, plan: FaultPlan) -> PmemConfig {
    PmemConfig {
        persistent_words: 1 << 15,
        volatile_words: 1 << 13,
        max_threads: 3,
        latency: LatencyModel::instant(),
        crash,
        ..PmemConfig::small_for_tests()
    }
    .with_fault_plan(plan)
}

/// A fresh space under `crash` and `plan` with a `route` engine and a
/// drained, prefilled account array laid out over it.
fn open_bank(
    route: Route,
    seed: u64,
    crash: CrashModel,
    plan: FaultPlan,
) -> (Arc<MemorySpace>, Crafty, PAddr) {
    let mem = Arc::new(MemorySpace::new(pmem_cfg(crash, plan)));
    let engine = route.engine(&mem, seed);
    let base = mem.reserve_persistent(ACCOUNTS * 8);
    for i in 0..ACCOUNTS {
        mem.write(base.add(i * 8), INITIAL);
        mem.clwb(0, base.add(i * 8));
    }
    mem.drain(0);
    (mem, engine, base)
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
    /// One `(step, transactions)` per `persist_fence` the run made: the
    /// fault-clock value when the fence returned, and how many
    /// transactions had committed before it (all of them durable from
    /// that step on).
    pub fences: Vec<(u64, u64)>,
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
    /// Takes the trapped image through [`recover_checked`] and
    /// [`prefix_check`] and returns it recovered, with the length of the
    /// prefix it recovered to.
    ///
    /// # Panics
    ///
    /// If the run trapped no image ([`enumerate`] audits trapped runs only).
    pub fn recover_to_prefix(
        &mut self,
        picks: &[Vec<Transfer>],
    ) -> Result<(PersistentImage, u64), String> {
        let image = self.image.take().expect("an audited run trapped its image");
        let recovered = recover_checked(image, self.dir_addr)?;
        let prefix = prefix_check(&recovered, self.base, picks)?;
        Ok((recovered, prefix))
    }

    /// How many transactions a crash at fault step `step` must keep: all
    /// those the last fence that had returned by then covered.
    pub fn fenced_at(&self, step: u64) -> u64 {
        self.fences
            .iter()
            .take_while(|&&(returned, _)| returned <= step)
            .last()
            .map_or(0, |&(_, covered)| covered)
    }
}

/// Runs the bank workload once down `route` on a space running under
/// `crash` (strict in the suite; a model that evicts lines mid-run evicts
/// the same ones in every run of one seed) and `plan`, and returns the run
/// record; `seed` places [`Route::Storm`]'s storms. The event rings
/// are reset first, so a trapped run's frozen tail shows only this
/// replay's events. The engine is not quiesced: the run's last fault-clock
/// tick is its last commit's.
pub fn run_once(
    route: Route,
    seed: u64,
    picks: &[Vec<Transfer>],
    crash: CrashModel,
    plan: FaultPlan,
) -> BankRun {
    trace::reset_rings();
    let (mem, engine, base) = open_bank(route, seed, crash, plan);
    let dir_addr = engine.directory_addr();
    let mut thread = engine.register_thread(0);
    let setup_steps = mem.fault_steps();
    let mut fences = Vec::new();
    for (i, txn) in picks.iter().enumerate() {
        thread.execute(&mut |ops| txn.iter().try_for_each(|&t| transfer(ops, base, t)));
        if route == Route::Fenced && (i + 1) % FENCED_BATCH == 0 {
            engine.persist_fence(0);
            fences.push((mem.fault_steps(), i as u64 + 1));
        }
    }
    drop(thread);
    BankRun {
        setup_steps,
        total_steps: mem.fault_steps(),
        base,
        dir_addr,
        accounts: (0..ACCOUNTS).map(|i| mem.read(base.add(i * 8))).collect(),
        breakdown: engine.breakdown(),
        fences,
        image: mem.take_fault_image(),
        trace: mem.take_fault_trace(),
    }
}

/// Recovers `image` and checks the recovery protocol's invariants on it
/// (`check_recovered`). Returns the recovered image.
pub fn recover_checked(
    mut image: PersistentImage,
    dir_addr: PAddr,
) -> Result<PersistentImage, String> {
    let run = recover_interrupted(&mut image, dir_addr, u64::MAX)
        .map_err(|e| format!("recovery failed: {e}"))?;
    check_recovered(&image, dir_addr, &run)?;
    Ok(image)
}

/// Checks `image`, which the complete pass `run` recovered: the pass wrote
/// only what was in flight — the entries it rolled back, the log words it
/// invalidated and the floor — and a second recovery finds no sequence and
/// leaves the image byte for byte unchanged (a floor left unwritten would
/// let it roll back again).
pub(crate) fn check_recovered(
    image: &PersistentImage,
    dir_addr: PAddr,
    run: &InterruptedRecovery,
) -> Result<(), String> {
    let in_flight = run.report.entries_rolled_back as u64 + run.words_invalidated + 1;
    if run.writes_applied > in_flight {
        return Err(format!(
            "recovery made {} writes for {in_flight} in flight",
            run.writes_applied
        ));
    }
    let mut again = image.clone();
    let second = recover(&mut again, dir_addr).map_err(|e| format!("re-recovery failed: {e}"))?;
    if second.sequences_found != 0 || second.entries_rolled_back != 0 {
        return Err(format!(
            "recovery is not a no-op the second time: {second:?}"
        ));
    }
    if again != *image {
        return Err("second recovery changed the image".to_string());
    }
    Ok(())
}

/// Every fully persisted sequence of every log in `image`.
fn all_sequences(image: &PersistentImage, dir_addr: PAddr) -> Vec<Sequence> {
    LogDirectory::load(image, dir_addr)
        .map(|dir| dir.logs)
        .unwrap_or_default()
        .iter()
        .flat_map(|g| parse_sequences(g.region(image)))
        .collect()
}

/// Global-cut consistency: the recovered account array must equal the
/// shadow oracle's state after some prefix of the committed-transaction
/// order (single-threaded, so commit order is program order). Returns the
/// longest matching prefix length: a transaction whose transfers cancel
/// out leaves the state of the prefix before it, and a fence that covered
/// it must still count it as kept.
pub fn prefix_check(
    image: &PersistentImage,
    base: PAddr,
    picks: &[Vec<Transfer>],
) -> Result<u64, String> {
    let recovered: Vec<u64> = (0..ACCOUNTS).map(|i| image.read(base.add(i * 8))).collect();
    let mut shadow = vec![INITIAL; ACCOUNTS as usize];
    let mut longest = None;
    for k in 0..=picks.len() {
        if k > 0 {
            apply_shadow(&mut shadow, &picks[k - 1]);
        }
        if recovered == shadow {
            longest = Some(k as u64);
        }
    }
    longest.ok_or_else(|| {
        format!(
            "recovered accounts match no prefix of the commit order \
             (total {} vs expected {})",
            recovered.iter().sum::<u64>(),
            ACCOUNTS * INITIAL,
        )
    })
}

/// Second-life audit: boots `recovered` into a fresh space, rebuilds the
/// route's engine over it (reservation cursors are deterministic, so every
/// address comes back identical), runs [`SECOND_LIFE_TXNS`] more transfer
/// transactions, and crashes again under `CrashModel::relaxed(seed ^
/// step)` without quiescing, so the last transaction may be in flight.
/// The second crash image must recover through [`recover_checked`] with
/// money conserved, and every sequence the second life logged must be
/// stamped at or above the floor it booted with and below the floor its
/// recovery wrote. A stuck lock word would either hang the first fallback
/// that touches its line (the sorted acquisition loop spins on
/// `LOCKED_MASK`) or corrupt an account.
fn second_life(
    route: Route,
    recovered: &PersistentImage,
    seed: u64,
    step: u64,
) -> Result<(), String> {
    let mem = Arc::new(MemorySpace::boot(
        recovered,
        pmem_cfg(SPACE_MODEL, FaultPlan::inactive()),
    ));
    let engine = route.engine(&mem, seed);
    // Re-establish the layout exactly as a restarted program would; the
    // reservation cursor hands back the same base the first life used.
    let base = mem.reserve_persistent(ACCOUNTS * 8);
    let total = |read: &dyn Fn(PAddr) -> u64| {
        (0..ACCOUNTS)
            .map(|i| read(base.add(i * 8)))
            .fold(0u64, u64::wrapping_add)
    };
    let before = total(&|a| mem.read(a));
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
    let crashed = mem.crash_with(CrashModel::relaxed(seed ^ step));
    let dir_addr = engine.directory_addr();
    let first_life = all_sequences(recovered, dir_addr);
    let logged: Vec<Sequence> = all_sequences(&crashed, dir_addr)
        .into_iter()
        .filter(|s| !first_life.contains(s))
        .collect();
    let image = recover_checked(crashed, dir_addr).map_err(|e| format!("second crash: {e}"))?;
    let after = total(&|a| image.read(a));
    if after != ACCOUNTS * INITIAL {
        return Err(format!(
            "second crash broke conservation: total {after} vs {}",
            ACCOUNTS * INITIAL
        ));
    }
    let floors = recovery_floor(recovered, dir_addr)..recovery_floor(&image, dir_addr);
    if let Some(s) = logged.iter().find(|s| !floors.contains(&s.ts.raw())) {
        return Err(format!(
            "a second-life sequence is stamped {}, outside the floors {floors:?}",
            s.ts
        ));
    }
    Ok(())
}

/// Enumerates one route: counts its persistence steps (lock-word
/// transitions included), replays it crashing at every enumerated step,
/// and gives each crash image the suite's one audit — every transaction
/// completed, recovery to a commit-order prefix that keeps every
/// transaction a returned fence covered, then a second life.
pub fn run_route(route: Route, cfg: &TortureConfig) -> TortureReport {
    let picks = draw_picks(cfg.seed, cfg.txns);
    enumerate(
        route.suite(),
        cfg,
        |step| cfg.adversary(step),
        |plan| run_once(route, cfg.seed, &picks, SPACE_MODEL, plan),
        |run, step| {
            let completed = run.breakdown.total_persistent();
            if completed != cfg.txns {
                return Err(format!(
                    "liveness violated: {completed} of {} transactions completed",
                    cfg.txns
                ));
            }
            let (recovered, prefix) = run.recover_to_prefix(&picks)?;
            let fenced = run.fenced_at(step);
            if prefix < fenced {
                return Err(format!(
                    "a returned fence covered {fenced} transactions, \
                     recovery kept {prefix}"
                ));
            }
            second_life(route, &recovered, cfg.seed, step)
        },
    )
}

/// Runs the bank torture suite, one [`run_route`] report per route of
/// [`ROUTES`]. A pinned `crash_step` replays on every route whose run
/// reaches that step.
pub fn run_bank_torture(cfg: &TortureConfig) -> Vec<TortureReport> {
    ROUTES.map(|route| run_route(route, cfg)).into()
}

/// Self-test of the auditor: traps a mid-run image, corrupts one account
/// word of the *recovered* state, and checks that the prefix audit flags
/// it. Returns the failure the auditor produced (proving an injected
/// violation is caught and reported), or an error if it slipped through.
pub fn injected_violation_is_caught(cfg: &TortureConfig) -> Result<TortureFailure, String> {
    let _events = trace::LevelGuard::arm(TraceLevel::Events);
    let picks = draw_picks(cfg.seed, cfg.txns);
    let count = run_once(
        Route::Hardware,
        cfg.seed,
        &picks,
        SPACE_MODEL,
        FaultPlan::count_only(),
    );
    let step = count.setup_steps + (count.total_steps - count.setup_steps) / 2;
    let run = run_once(
        Route::Hardware,
        cfg.seed,
        &picks,
        SPACE_MODEL,
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
    use crafty_common::CompletionPath;

    use super::*;

    #[test]
    fn counting_run_is_deterministic() {
        let picks = draw_picks(3, 6);
        for route in ROUTES {
            let a = run_once(route, 3, &picks, SPACE_MODEL, FaultPlan::count_only());
            let b = run_once(route, 3, &picks, SPACE_MODEL, FaultPlan::count_only());
            assert_eq!(a.total_steps, b.total_steps, "{route:?}");
            assert_eq!(a.setup_steps, b.setup_steps, "{route:?}");
            assert!(
                a.total_steps > a.setup_steps,
                "{route:?}: the run must tick"
            );
        }
    }

    /// The crash-point counts CI greps for at `--seed 1`, derived from
    /// the counts they moved from. While the Log commit still published
    /// what it had rolled back, it stored every rolled-back persistent
    /// word over itself and ticked the fault clock for it: `bank` counted
    /// 582 points. Now a rolled-back line
    /// is validated, not published, and exactly those ticks are gone —
    /// one per distinct account a transaction touched. While the commit
    /// stamp still rewrote a marker's meta word beside its value word, it
    /// persisted two words: now it persists one, and every route lost one
    /// tick per committed transaction. No coverage went with either: the
    /// image at such a tick was its predecessor's (a word stored over
    /// itself dirties nothing new).
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
        let stamps = picks.len() as u64;
        let run = |route| {
            run_once(
                route,
                cfg.seed,
                &picks,
                SPACE_MODEL,
                FaultPlan::count_only(),
            )
        };
        let points = |route| {
            let run = run(route);
            run.total_steps - run.setup_steps
        };
        assert_eq!(582 - points(Route::Hardware), rolled_back + stamps);
        // The per-line software commit is the unlocked commit's count plus
        // its lock transitions. The unlocked commit's count, 490 − stamps,
        // is the same buffered commit with no lock taken (thread-unsafe
        // mode's, since removed): it ran no hardware Log commit, so it
        // moved by the stamps alone. The lock transitions are one tick per
        // locked line (every account on a line of its own), and two per
        // transaction, for the read validation and the release.
        assert_eq!(
            points(Route::PerLine),
            490 - stamps + rolled_back + 2 * stamps
        );
        // The fenced batch adds its two fences and nothing else. A fence
        // first re-flushes the fenced transaction's lines — one tick per
        // undo entry (each transfer logs its two writes, a repeated
        // account too) and one for the marker, all still queued and
        // absorbed by the dedup — and drains them: the drain the next
        // transaction's begin would have issued. Then it appends one empty
        // sequence (two stored words), flushes and drains it (1 + 3
        // ticks). Until the fence stopped draining the target's queue,
        // each fence took 7 ticks: the same append, flush and drain, and
        // an empty drain of the target's queue — the fencing thread's own
        // here — instead of the re-flushes.
        let fenced: u64 = picks
            .iter()
            .skip(FENCED_BATCH - 1)
            .step_by(FENCED_BATCH)
            .map(|txn| 2 * txn.len() as u64 + 1 + 2 + 1 + 3)
            .sum();
        assert_eq!(points(Route::Fenced), points(Route::Hardware) + fenced);
        // The storm bites: of the ten transactions, two exhaust their
        // hardware budget and commit in software, the rest in hardware.
        assert_eq!(points(Route::Storm), 518 - stamps);
        let storm = run(Route::Storm).breakdown;
        assert_eq!(storm.completions(CompletionPath::Sgl), 2);
        assert_eq!(storm.total_persistent(), cfg.txns);
    }

    #[test]
    fn a_final_step_image_recovers_to_the_full_run() {
        let picks = draw_picks(5, 6);
        let count = run_once(
            Route::Hardware,
            5,
            &picks,
            SPACE_MODEL,
            FaultPlan::count_only(),
        );
        let run = run_once(
            Route::Hardware,
            5,
            &picks,
            SPACE_MODEL,
            FaultPlan::crash_at(count.total_steps, CrashModel::strict()),
        );
        let image = run.image.expect("final step is reached");
        let recovered = recover_checked(image, run.dir_addr).expect("audit");
        let k = prefix_check(&recovered, run.base, &picks).expect("prefix");
        // The final step is after every commit; at most the last (not yet
        // drained) transactions may roll back.
        assert!(k <= picks.len() as u64);
    }

    /// A transaction whose transfers cancel out leaves the state of the
    /// prefix before it; the audit counts it as kept, so a fence that
    /// covered it is not reported broken.
    #[test]
    fn prefix_check_reports_the_longest_matching_prefix() {
        let picks = vec![vec![(0, 1, 5)], vec![(2, 3, 4), (3, 2, 4)]];
        let mut run = run_once(
            Route::Hardware,
            1,
            &picks,
            SPACE_MODEL,
            FaultPlan::count_only(),
        );
        let total = run.total_steps;
        run = run_once(
            Route::Hardware,
            1,
            &picks,
            SPACE_MODEL,
            FaultPlan::crash_at(total, CrashModel::strict()),
        );
        let (_, prefix) = run.recover_to_prefix(&picks).expect("audit");
        assert_eq!(prefix, 2);
    }

    #[test]
    fn a_final_step_image_passes_the_second_life_audit_on_every_route() {
        let picks = draw_picks(5, 6);
        for route in ROUTES {
            let total =
                run_once(route, 5, &picks, SPACE_MODEL, FaultPlan::count_only()).total_steps;
            let pinned = TortureConfig {
                crash_step: Some(total),
                txns: 6,
                ..TortureConfig::quick(5)
            };
            let report = run_route(route, &pinned);
            assert_eq!(report.crash_points_tested, 1, "{route:?}");
            assert!(report.ok(), "{route:?}: {:?}", report.failures);
        }
    }

    /// Sustained doomed-transaction bursts force the software fallback
    /// without costing liveness or durability: every transaction
    /// completes, some in software, and once the engine is quiesced a
    /// crash recovers the whole run.
    #[test]
    fn storms_force_the_software_commit_and_stay_durable() {
        let picks = draw_picks(5, 10);
        let (mem, engine, base) = open_bank(Route::Storm, 5, SPACE_MODEL, FaultPlan::inactive());
        let mut thread = engine.register_thread(0);
        for txn in &picks {
            thread.execute(&mut |ops| txn.iter().try_for_each(|&t| transfer(ops, base, t)));
        }
        drop(thread);
        let breakdown = engine.breakdown();
        assert_eq!(breakdown.total_persistent(), 10, "liveness");
        assert!(
            breakdown.completions(CompletionPath::Sgl) > 0,
            "storm too weak: no transaction fell back to software \
             (burst {STORM_BURST}, period {STORM_PERIOD})"
        );
        engine.quiesce();
        let recovered = recover_checked(mem.crash(), engine.directory_addr()).expect("recovery");
        for i in 0..ACCOUNTS {
            let addr = base.add(i * 8);
            assert_eq!(recovered.read(addr), mem.read(addr), "account {i}");
        }
    }

    #[test]
    fn self_test_catches_an_injected_violation() {
        let failure = injected_violation_is_caught(&TortureConfig::quick(11)).expect("caught");
        assert_eq!(failure.seed, 11);
        assert!(failure.step > 0);
    }
}
