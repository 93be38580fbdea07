//! The layers' counters must agree: over one window on one thread, the
//! event ring, the engine's [`crafty_common::BreakdownRecorder`] and the
//! persistence domain's [`crafty_pmem::PmemStats`] describe the same run,
//! so every fact each of them records must be recorded by the others the
//! same number of times — hardware attempts, commits, aborts per hardware
//! outcome, software fallbacks, drains and ranged write-backs.
//!
//! This lives in its own test binary because the event rings are
//! process-global (as with `crafty-torture`'s `trace_tail.rs`).

use std::sync::Arc;

use crafty_common::trace::{self, TraceLevel};
use crafty_common::{
    CompletionPath, HwTxnOutcome, PAddr, PersistentTm, SplitMix64, TraceEventKind, TxAbort, TxnOps,
};
use crafty_core::{Crafty, CraftyConfig};
use crafty_htm::HtmConfig;
use crafty_pmem::{MemorySpace, PmemConfig};

const ACCOUNTS: u64 = 64;
const TXNS: u64 = 60;

fn transfers(ops: &mut dyn TxnOps, pairs: &[(PAddr, PAddr)]) -> Result<(), TxAbort> {
    for &(from, to) in pairs {
        let a = ops.read(from)?;
        ops.write(from, a.wrapping_sub(1))?;
        let b = ops.read(to)?;
        ops.write(to, b.wrapping_add(1))?;
    }
    Ok(())
}

#[test]
fn ring_events_reconcile_with_the_recorder_and_the_persistence_counters() {
    let _events = trace::LevelGuard::arm(TraceLevel::Events);
    let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
    // Half the attempts are doomed, and a storm of 48 doomed begins in
    // every 512 outlasts a transaction's whole hardware budget, so the
    // window sees every abort outcome and some software fallbacks.
    let htm = HtmConfig::skylake()
        .with_zero_aborts(0.5, 3)
        .with_abort_storm(48, 512, 3);
    let crafty = Crafty::with_htm_config(
        Arc::clone(&mem),
        CraftyConfig::small_for_tests().with_max_threads(1),
        htm,
    );
    let accounts = mem.reserve_persistent(ACCOUNTS * 8);
    let mut thread = crafty.register_thread(0);
    let mut rng = SplitMix64::new(5);

    trace::reset_rings();
    let (b0, pm0) = (crafty.breakdown(), mem.stats());
    for _ in 0..TXNS {
        let mut pick = || accounts.add(rng.next_below(ACCOUNTS) * 8);
        let pairs = [(pick(), pick()), (pick(), pick())];
        thread.execute(&mut |ops| transfers(ops, &pairs));
    }
    let b = crafty.breakdown().since(&b0);
    let pm = mem.stats().since(&pm0);

    assert_eq!(trace::ring_dropped(0), 0, "the window must fit one ring");
    let events = trace::ring_snapshot(0);
    let count = |kind| events.iter().filter(|e| e.kind == kind).count() as u64;
    assert_eq!(count(TraceEventKind::HtmAttempt), b.total_hardware());
    assert_eq!(count(TraceEventKind::HtmCommit), b.hw(HwTxnOutcome::Commit));
    for outcome in &HwTxnOutcome::ALL[1..] {
        let aborts = events
            .iter()
            .filter(|e| e.kind == TraceEventKind::Abort && e.arg & 0xFF == outcome.index() as u64)
            .count() as u64;
        assert_eq!(aborts, b.hw(*outcome), "{outcome} aborts");
    }
    assert_eq!(
        count(TraceEventKind::Abort),
        b.total_hw_aborts(),
        "an abort event names no outcome"
    );
    assert_eq!(
        count(TraceEventKind::Fallback),
        b.completions(CompletionPath::Sgl)
    );
    assert!(
        b.completions(CompletionPath::Sgl) > 0,
        "the storm must push some transaction into the software fallback"
    );
    assert_eq!(count(TraceEventKind::Drain), pm.drains);
    assert_eq!(count(TraceEventKind::RangedClwb), pm.flush_ranges);
    assert_eq!(b.total_persistent(), TXNS);
}
