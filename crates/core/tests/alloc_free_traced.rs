//! Allocation check for the trace subsystem: with tracing armed — first
//! at `Counters` (phase timers only), then at `Events` (full event-ring
//! recording) — a committed steady-state transaction still performs
//! **zero heap allocations**. `Counters` is measured before `Events` is
//! ever armed, because arming it must install nothing: its timers are two
//! `Instant` reads and a per-thread counter add. The rings are
//! preallocated by the first `set_level(Events)` and pushes only store
//! into them. This test is the enforcement of that contract.
//!
//! This file intentionally holds a single `#[test]` so no concurrent test
//! thread can pollute the allocation counters, and lives in its own
//! binary so the process-global trace level cannot leak into the untraced
//! allocation test (`alloc_free_engine.rs`).

use std::sync::Arc;

use crafty_common::trace::{self, TraceLevel};
use crafty_common::{PersistentTm, SplitMix64, TraceEventKind, TxAbort, TxnOps};
use crafty_core::{Crafty, CraftyConfig};
use crafty_pmem::{MemorySpace, PmemConfig};

#[path = "../../htm/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{thread_allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn transfer(
    ops: &mut dyn TxnOps,
    from: crafty_common::PAddr,
    to: crafty_common::PAddr,
) -> Result<(), TxAbort> {
    let a = ops.read(from)?;
    ops.write(from, a.wrapping_sub(1))?;
    let b = ops.read(to)?;
    ops.write(to, b.wrapping_add(1))?;
    Ok(())
}

#[test]
fn steady_state_traced_transactions_do_not_allocate() {
    let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
    let crafty = Crafty::new(
        Arc::clone(&mem),
        CraftyConfig {
            undo_log_entries: 1024,
            ..CraftyConfig::small_for_tests().with_max_threads(1)
        },
    );
    let accounts_n = 64u64;
    let accounts = mem.reserve_persistent(accounts_n * 8);
    for i in 0..accounts_n {
        mem.write(accounts.add(i * 8), 1_000);
    }
    let mut thread = crafty.register_thread(0);
    let mut rng = SplitMix64::new(41);
    let mut run = |n: u64| {
        for i in 0..n {
            trace::record(0, TraceEventKind::TxnBegin, i);
            let from = accounts.add(rng.next_below(accounts_n) * 8);
            let to = accounts.add(rng.next_below(accounts_n) * 8);
            thread.execute(&mut |ops| transfer(ops, from, to));
            trace::record(0, TraceEventKind::TxnEnd, i);
        }
    };

    // Warmup untraced: grows every reusable engine buffer to its
    // steady-state footprint.
    run(2_000);

    // Measure at each armed level, Counters first: nothing may have
    // installed the rings for it. Off is covered by alloc_free_engine.rs.
    for level in [TraceLevel::Counters, TraceLevel::Events] {
        trace::set_level(level);
        let before = thread_allocations();
        run(10_000);
        let after = thread_allocations();
        assert_eq!(
            after - before,
            0,
            "traced hot path at {:?} allocated {} times over 10k transactions",
            level,
            after - before
        );
    }
    trace::set_level(TraceLevel::Off);

    // The tracer actually observed the run: events were recorded (and the
    // flight recorder wrapped), phases accumulated cycles.
    assert!(
        trace::ring_dropped(0) > 0,
        "10k traced transactions must have wrapped a {}-event ring",
        trace::ring_snapshot(0).len()
    );
    assert!(
        crafty.breakdown().total_phase_cycles() > 0,
        "Counters-level run must have accumulated phase cycles"
    );

    crafty.quiesce();
    let total: u64 = (0..accounts_n).map(|i| mem.read(accounts.add(i * 8))).sum();
    assert_eq!(
        total,
        accounts_n * 1_000,
        "transfers must conserve the total"
    );
}
