//! Deterministic fault-injection torture harness for the Crafty stack.
//!
//! Crafty's crash-consistency argument (Sections 5.1–5.2 of the paper) is
//! a claim about *every* interleaved flush/drain/marker state, but
//! hand-choreographed crash tests only visit a handful of them. This crate
//! closes the gap systematically:
//!
//! * **Crash-point enumeration** — the [`crafty_pmem::FaultPlan`] fault
//!   clock ticks once per durability-relevant event (pmem store, CLWB
//!   enqueue, drain claim, per-line persist, SFENCE). A workload is run
//!   once under a count-only plan to measure its step count, then replayed
//!   once per step with a plan that snapshots the crash image at exactly
//!   that tick. That loop is [`enumerate`], written once; a suite
//!   ([`bank::run_bank_torture`], [`kv::run_kv_torture`], ...) supplies the
//!   run and the audit. Exhaustive for small runs; seeded stratified
//!   sampling otherwise.
//! * **Recovery auditing** — every snapshot is recovered and checked:
//!   recovery succeeds and writes only what was in flight (the entries
//!   it rolls back, the log words it invalidates, the floor), a second
//!   recovery finds nothing and is a byte no-op, and the recovered
//!   application state equals a *prefix* of the committed-transaction
//!   order replayed against a shadow oracle (plus
//!   [`crafty_kv::ShardedKv::check_integrity`] deep structure checks for
//!   the KV suite).
//! * **One bank rig, four routes** — [`bank::run_bank_torture`] runs the
//!   same seeded bank down every [`Route`] of [`bank::ROUTES`]: the
//!   hardware phases, with a group-commit `persist_fence` every few
//!   transactions, and under abort storms
//!   ([`crafty_htm::HtmConfig::with_abort_storm`]: hardware and software
//!   commits on one log); and forced through the per-line fallback
//!   ([`crafty_core::CraftyConfig::with_force_fallback`]), whose lock-word
//!   transitions tick the fault clock, so crash points land while line
//!   locks are held. Every route gets the same audit: every transaction
//!   completed, the prefix check, and a *second life* — the recovered
//!   image is booted and must run more transactions, crash again and
//!   recover with conservation intact (a rebooted heap never sees a
//!   stuck lock), every second-life sequence stamped between the two
//!   recoveries' floors.
//! * **Crash-during-recovery** — [`rec::run_recovery_torture`] interrupts
//!   [`crafty_core::recover_interrupted`] at every write budget and checks
//!   that re-running recovery converges to the uninterrupted image.
//! * **Networked exactly-once** — [`service::run_service_torture`] puts
//!   the whole service stack on the rack: resilient sequenced clients
//!   ([`crafty_server::SessionClient`]) issue non-idempotent increments
//!   and puts of fresh keys over fault-injected connections while the
//!   fault clock kills the server mid-load, often mid-migration of a
//!   growing store; a supervisor recovers the crash image and restarts
//!   the server over it, and the audit demands every counter equal the
//!   sum of *acked* increments exactly — no loss, no double-apply — and
//!   every *acked* put be present with its value. It is the one check
//!   that crashes a live server.
//!
//! Every failure carries a `(seed, step)` pair; replaying the same suite
//! with that seed and `crash_step = Some(step)` reproduces it exactly —
//! the runs are single-threaded and every random choice is drawn from
//! seeded [`crafty_common::SplitMix64`] streams. (The networked `service`
//! suite is the one exception: threads and sockets make its step clock
//! non-deterministic, so `(seed, step)` re-runs the same adversary
//! strategy rather than a byte-identical schedule, and its audited
//! invariants are ones that must hold under any interleaving.)
//!
//! Every suite also runs its replays with the trace subsystem armed at
//! [`crafty_common::trace::TraceLevel::Events`], and the fault clock
//! freezes the per-thread event rings at the same tick it traps the crash
//! image — so each [`TortureFailure`] carries a **flight-recorder tail**:
//! the last [`TAIL_EVENTS`] trace events before the injected crash step,
//! rendered under the failure line by its `Display` impl.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use crafty_common::trace::{self, ThreadTrace, TraceLevel};
use crafty_common::SplitMix64;
use crafty_pmem::{CrashModel, FaultPlan};

pub mod bank;
pub mod heap;
pub mod kv;
pub mod rec;
pub mod service;

pub use bank::{injected_violation_is_caught, run_bank_torture, Route};
pub use heap::run_heap_torture;
pub use kv::run_kv_torture;
pub use rec::run_recovery_torture;
pub use service::run_service_torture;

/// Parameters shared by every torture suite.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TortureConfig {
    /// Master seed: workload picks, crash-image resolution, stratified
    /// sampling, and the storm route's storm placement all derive from it.
    pub seed: u64,
    /// Transactions the driven workload executes.
    pub txns: u64,
    /// Upper bound on crash points to test. 0 means exhaustive — one
    /// replay per persistence step of the workload. Nonzero means seeded
    /// stratified sampling: the step range is cut into that many strata
    /// and one step is drawn per stratum.
    pub max_crash_points: u64,
    /// Replay a single crash step instead of enumerating (the
    /// reproduction path printed with every failure).
    pub crash_step: Option<u64>,
}

impl TortureConfig {
    /// A small configuration suited to exhaustive enumeration in tests.
    pub fn quick(seed: u64) -> Self {
        TortureConfig {
            seed,
            txns: 10,
            max_crash_points: 0,
            crash_step: None,
        }
    }

    /// The crash model the suites resolve the image of `step` under: each
    /// crash point faces a lossy failure of its own, the word lottery of
    /// [`CrashModel::relaxed`]. The suites' spaces run strict, so no line
    /// is evicted mid-run.
    pub fn adversary(&self, step: u64) -> CrashModel {
        CrashModel::relaxed(self.seed ^ step)
    }
}

/// Trace events kept per thread in a failure's flight-recorder tail.
pub const TAIL_EVENTS: usize = 12;

/// One audited invariant violation, with everything needed to replay it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TortureFailure {
    /// The master seed of the failing run.
    pub seed: u64,
    /// The persistence step whose crash image violated an invariant.
    pub step: u64,
    /// Human-readable description of the violated invariant.
    pub detail: String,
    /// Flight-recorder tail: per thread, the last [`TAIL_EVENTS`] trace
    /// events recorded before the injected crash step (one header line per
    /// thread followed by its events, oldest first). Empty when the
    /// failing replay trapped no image, or recorded no events.
    pub trace_tail: Vec<String>,
}

impl TortureFailure {
    /// Builds a failure report with the flight-recorder tail attached.
    /// `trace` is the per-thread ring state frozen by the fault clock at
    /// the injected crash step ([`crafty_pmem::MemorySpace::take_fault_trace`]).
    pub fn capture(seed: u64, step: u64, detail: String, trace: &[ThreadTrace]) -> Self {
        TortureFailure {
            seed,
            step,
            detail,
            trace_tail: format_tails(trace),
        }
    }
}

/// Renders frozen ring states as report lines: one header per thread,
/// then its last [`TAIL_EVENTS`] events, oldest first.
fn format_tails(trace: &[ThreadTrace]) -> Vec<String> {
    let mut lines = Vec::new();
    for (tid, events, dropped) in trace {
        let skip = events.len().saturating_sub(TAIL_EVENTS);
        let total = events.len() as u64 + dropped;
        lines.push(format!(
            "trace tail [tid {tid}]: last {} of {total} events ({dropped} overwritten)",
            events.len() - skip,
        ));
        for e in &events[skip..] {
            lines.push(format!("  {e}"));
        }
    }
    lines
}

impl fmt::Display for TortureFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "(seed {}, step {}): {}",
            self.seed, self.step, self.detail
        )?;
        for line in &self.trace_tail {
            write!(f, "\n    {line}")?;
        }
        Ok(())
    }
}

/// Outcome of one torture suite.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TortureReport {
    /// Which suite ran (`"bank"`, `"heap"`, `"kv"`, `"recovery"`,
    /// `"service"`); the
    /// bank suite's routes past the first report as `"bank/<route>"`
    /// ([`bank::Route::suite`]).
    pub suite: &'static str,
    /// The master seed the suite ran under.
    pub seed: u64,
    /// Persistence steps consumed by deterministic setup (engine
    /// construction, prefill); crash points below this are not enumerated
    /// because the logging machinery does not exist yet.
    pub setup_steps: u64,
    /// Total persistence steps of the whole run, setup included.
    pub total_steps: u64,
    /// Crash points actually replayed and audited.
    pub crash_points_tested: u64,
    /// Invariant violations found, in step order.
    pub failures: Vec<TortureFailure>,
}

impl TortureReport {
    /// True when every audited crash image satisfied every invariant.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// What one run of a suite's workload under a [`FaultPlan`] reports back to
/// [`enumerate`].
pub trait Replay {
    /// True (the default) for single-threaded runs, whose fault clock is a
    /// pure function of their inputs: a replay must then repeat the
    /// counting run's total and trap an image at every in-range step.
    /// False for runs with threads and sockets, whose clock moves with the
    /// interleaving: their step range is a scale estimate, a replay that
    /// never reaches its step audits a crash-free life, and so does the
    /// counting run itself.
    const REPEATABLE: bool = true;

    /// Fault-clock value after deterministic setup (engine construction,
    /// prefill, thread registration): the first enumerable crash step is
    /// one past it.
    fn setup_steps(&self) -> u64;

    /// Fault-clock value when the run finished.
    fn total_steps(&self) -> u64;

    /// Whether the plan's crash step was reached and an image trapped.
    fn trapped(&self) -> bool;

    /// Flight-recorder state frozen at the trap (empty without one).
    fn trace(&self) -> &[ThreadTrace];
}

/// The one crash-point enumeration every suite shares. Runs
/// `run(FaultPlan::count_only())` to measure the workload's step range,
/// picks the crash steps `cfg` asks for (all of them, a stratified sample,
/// or the one pinned step — which replays only past setup, and on a
/// [`Replay::REPEATABLE`] run only if the run reaches it), replays the run
/// once per step with the image resolved under `model(step)`, and hands each replay that repeated the
/// counting run and trapped its image to `audit(run, step)`. Every `Err`
/// becomes a [`TortureFailure`] carrying the replay's trace tail: event
/// tracing is armed for the duration.
///
/// A suite supplies `run` and `audit` and nothing else; the `service`
/// suite's cut is the one way the repository crashes a live server, and
/// the schedule explorer (ROADMAP) is this function's next customer.
pub fn enumerate<R: Replay>(
    suite: &'static str,
    cfg: &TortureConfig,
    model: impl Fn(u64) -> CrashModel,
    run: impl Fn(FaultPlan) -> R,
    audit: impl Fn(&mut R, u64) -> Result<(), String>,
) -> TortureReport {
    let _events = trace::LevelGuard::arm(TraceLevel::Events);
    let mut count = run(FaultPlan::count_only());
    let (setup_steps, total_steps) = (count.setup_steps(), count.total_steps());
    let mut points = crash_points(
        cfg.seed,
        setup_steps,
        total_steps,
        cfg.max_crash_points,
        cfg.crash_step,
    );
    let mut failures = Vec::new();
    if R::REPEATABLE {
        points.retain(|&step| step <= total_steps);
    } else if let Err(detail) = audit(&mut count, 0) {
        let detail = format!("fault-free run: {detail}");
        failures.push(TortureFailure::capture(cfg.seed, 0, detail, count.trace()));
    }
    for &step in &points {
        let mut replay = run(FaultPlan::crash_at(step, model(step)));
        let verdict = if R::REPEATABLE && replay.total_steps() != total_steps {
            Err(format!(
                "replay diverged: {} steps vs {total_steps} in the counting run",
                replay.total_steps()
            ))
        } else if R::REPEATABLE && !replay.trapped() {
            Err("no crash image captured at an in-range step".to_string())
        } else {
            audit(&mut replay, step)
        };
        if let Err(detail) = verdict {
            failures.push(TortureFailure::capture(
                cfg.seed,
                step,
                detail,
                replay.trace(),
            ));
        }
    }
    TortureReport {
        suite,
        seed: cfg.seed,
        setup_steps,
        total_steps,
        crash_points_tested: points.len() as u64,
        failures,
    }
}

/// Picks the crash steps to test inside `(setup, total]`: all of them when
/// `max_points` is 0 or covers the span, otherwise one seeded draw per
/// stratum of a `max_points`-way partition (so samples stay spread over
/// the whole run instead of clustering). `only` short-circuits to a single
/// step for failure reproduction — none when it falls inside setup, where
/// no log exists to audit yet. A pinned step past `total` is kept: only
/// [`enumerate`] knows whether the run's count is exact enough to drop it.
fn crash_points(seed: u64, setup: u64, total: u64, max_points: u64, only: Option<u64>) -> Vec<u64> {
    if let Some(step) = only {
        return if step > setup { vec![step] } else { Vec::new() };
    }
    let span = total.saturating_sub(setup);
    if span == 0 {
        return Vec::new();
    }
    if max_points == 0 || max_points >= span {
        return (setup + 1..=total).collect();
    }
    let mut rng = SplitMix64::new(seed ^ 0x5A3B_17E5_D00F_CAFE);
    (0..max_points)
        .map(|i| {
            let lo = setup + 1 + i * span / max_points;
            let hi = setup + (i + 1) * span / max_points;
            lo + rng.next_below(hi - lo + 1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_points_cover_the_span() {
        let pts = crash_points(1, 10, 15, 0, None);
        assert_eq!(pts, vec![11, 12, 13, 14, 15]);
    }

    #[test]
    fn sampling_is_stratified_and_deterministic() {
        let a = crash_points(7, 100, 1100, 10, None);
        let b = crash_points(7, 100, 1100, 10, None);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        for (i, &p) in a.iter().enumerate() {
            let lo = 101 + i as u64 * 100;
            assert!(p >= lo && p < lo + 100, "point {p} outside stratum {i}");
        }
    }

    #[test]
    fn a_single_step_short_circuits() {
        assert_eq!(crash_points(1, 0, 100, 0, Some(42)), vec![42]);
    }

    /// A pinned step inside setup replays nothing; one inside the range
    /// replays alone; one past it is kept for [`enumerate`], which drops
    /// it on a repeatable run and replays it on a run whose count is only
    /// an estimate.
    #[test]
    fn a_pinned_step_before_inside_and_after_the_range() {
        assert!(crash_points(1, 60, 100, 0, Some(3)).is_empty());
        assert!(crash_points(1, 60, 100, 0, Some(60)).is_empty());
        assert_eq!(crash_points(1, 60, 100, 0, Some(61)), vec![61]);
        assert_eq!(crash_points(1, 60, 100, 0, Some(100)), vec![100]);
        assert_eq!(crash_points(1, 60, 100, 0, Some(101)), vec![101]);
    }

    #[test]
    fn empty_span_yields_no_points() {
        assert!(crash_points(1, 5, 5, 0, None).is_empty());
    }
}
