//! The two [`Exclusion`] strategies driven by one generic software commit,
//! the way `crafty-core` drives them: whatever differs between
//! [`crafty_htm::FallbackTxn`] and [`crafty_htm::ExclusiveTxn`] must be
//! concurrency control only — the values buffered, reported as old, and
//! published are the same.

use std::sync::Arc;

use crafty_common::{BreakdownRecorder, PAddr};
use crafty_htm::{Exclusion, HtmConfig, HtmRuntime};
use crafty_pmem::{FaultPlan, MemorySpace, PmemConfig};

fn runtime() -> (Arc<MemorySpace>, HtmRuntime) {
    let cfg = PmemConfig::small_for_tests().with_fault_plan(FaultPlan::count_only());
    let mem = Arc::new(MemorySpace::new(cfg));
    let rt = HtmRuntime::new(
        Arc::clone(&mem),
        HtmConfig::skylake(),
        Arc::new(BreakdownRecorder::new()),
    );
    (mem, rt)
}

/// One software commit of `x`: increments every cell, and returns the
/// `(address, old value)` pairs an engine would log, in log order.
fn increment_all<X: Exclusion>(mut x: X, cells: &[PAddr]) -> Vec<(PAddr, u64)> {
    assert!(!x.has_writes());
    for &cell in cells {
        let v = x.read(cell).expect("uncontended read");
        x.write(cell, v + 1);
        assert_eq!(x.read(cell), Ok(v + 1), "reads see the body's own writes");
    }
    assert!(x.has_writes());
    x.lock_write_set();
    x.validate_reads().expect("nothing else is running");
    let old: Vec<_> = x
        .written_words()
        .map(|addr| (addr, x.read_locked(addr)))
        .collect();
    x.publish();
    x.commit_release();
    old
}

/// Three cells on two lines, written out of address order.
fn cells(mem: &MemorySpace) -> [PAddr; 3] {
    let base = mem.reserve_persistent(16);
    [base.add(9), base.add(1), base]
}

#[test]
fn both_strategies_log_and_publish_the_same_values() {
    let (mem, rt) = runtime();
    let cells = cells(&mem);
    for (i, &cell) in cells.iter().enumerate() {
        rt.nontx_write(cell, 10 * i as u64);
    }
    // Lines in first-write order, words of a line in address order.
    let logged = [cells[0], cells[2], cells[1]];
    let per_line = increment_all(rt.begin_fallback(0), &cells);
    assert_eq!(per_line, [(logged[0], 0), (logged[1], 20), (logged[2], 10)]);
    let exclusive = increment_all(rt.begin_exclusive(), &cells);
    assert_eq!(
        exclusive,
        [(logged[0], 1), (logged[1], 21), (logged[2], 11)]
    );
    let values: Vec<u64> = cells.iter().map(|&c| mem.read(c)).collect();
    assert_eq!(values, [2, 12, 22]);
}

/// The reference strategy shares no concurrency control with the per-line
/// one: it ticks none of the lock-transition fault events (one per locked
/// line, one for validation, one for release).
#[test]
fn only_the_per_line_strategy_ticks_lock_transitions() {
    let (mem, rt) = runtime();
    let cells = cells(&mem);
    let before = mem.fault_steps();
    increment_all(rt.begin_exclusive(), &cells);
    let exclusive_steps = mem.fault_steps() - before;
    increment_all(rt.begin_fallback(0), &cells);
    let per_line_steps = mem.fault_steps() - before - exclusive_steps;
    assert_eq!(per_line_steps, exclusive_steps + 2 + 2, "two lines locked");
}

/// An exclusive publish goes through the non-transactional store, so a
/// hardware transaction that slipped past the caller's lock still sees a
/// conflict.
#[test]
fn exclusive_publish_dooms_a_hardware_reader_of_the_line() {
    let (mem, rt) = runtime();
    let cells = cells(&mem);
    let mut txn = rt.begin(1);
    assert_eq!(txn.read(cells[0]), Ok(0));
    txn.write(cells[1], 99).expect("buffered");
    increment_all(rt.begin_exclusive(), &cells[..1]);
    assert!(txn.commit().is_err(), "the read line changed under it");
    assert_eq!(mem.read(cells[1]), 0, "the doomed write never landed");
}

/// An exclusive publish stores by the line: however many words of a line
/// the body wrote, the line is locked once and released at one fresh
/// version — and a hardware transaction that read either line before the
/// publish still aborts.
#[test]
fn exclusive_publish_advances_the_version_clock_once_per_line() {
    let (mem, rt) = runtime();
    // Reservations are line-aligned: three words on each of two lines.
    let base = mem.reserve_persistent(16);
    let written = [0, 1, 2, 8, 9, 10].map(|w| base.add(w));
    let clock = mem.reserve_volatile(1);
    for read in [written[0], written[3]] {
        let mut reader = rt.begin(1);
        reader.read(read).expect("uncontended read");
        let before = rt.nontx_bump_commit_version(clock);
        let mut x = rt.begin_exclusive();
        for &cell in &written {
            x.write(cell, 7);
        }
        x.lock_write_set();
        x.validate_reads().expect("nothing to validate");
        x.publish();
        x.commit_release();
        let after = rt.nontx_bump_commit_version(clock);
        assert_eq!(after - before, 1 + 2, "one version per line, one bump");
        assert!(reader.commit().is_err(), "a reader of {read} must abort");
    }
}
