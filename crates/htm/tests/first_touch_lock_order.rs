//! `HwTxn::commit` locks its lines in first-touch order, not a canonical
//! sorted one. That is safe because a hardware commit never waits on a
//! line: a line that is locked or versioned past the snapshot aborts it,
//! and it releases what it took. Two things must hold from outside: a
//! commit whose lock order descends still recognises its own locks when
//! it validates, and two threads locking the same lines in opposite
//! orders both finish with every increment landed.
//!
//! The software fallback, which sorts its locks, has an order of its own
//! to keep: a software commit hands its caller the written words — to log
//! their old values — with lines in first-write order and a line's words
//! in address order, and ticks the fault clock once per line it locks.

use std::sync::Arc;

use crafty_common::{wait, BreakdownRecorder, PAddr};
use crafty_htm::{AbortCode, HtmConfig, HtmRuntime};
use crafty_pmem::{FaultPlan, MemorySpace, PmemConfig};

fn runtime(plan: FaultPlan) -> (Arc<MemorySpace>, HtmRuntime) {
    let cfg = PmemConfig::small_for_tests().with_fault_plan(plan);
    let mem = Arc::new(MemorySpace::new(cfg));
    let rt = HtmRuntime::new(
        Arc::clone(&mem),
        HtmConfig::skylake(),
        Arc::new(BreakdownRecorder::new()),
    );
    (mem, rt)
}

/// The version clock as a transaction begun now sees it: a read-only
/// commit returns its snapshot and advances nothing.
fn clock(rt: &HtmRuntime) -> u64 {
    rt.begin(1)
        .commit()
        .expect("a read-only commit cannot conflict")
}

#[test]
fn a_descending_lock_order_still_recognises_its_own_locks() {
    let (mem, rt) = runtime(FaultPlan::inactive());
    let base = mem.reserve_persistent(3 * 8);
    // Three lines, B below A below C.
    let (b, a, c) = (base, base.add(8), base.add(16));
    assert!(b.line().index() < a.line().index());
    for (addr, v) in [(a, 10), (b, 20), (c, 30)] {
        rt.nontx_write(addr, v);
    }
    let before = clock(&rt);

    let mut txn = rt.begin(0);
    assert_eq!(txn.read(a), Ok(10));
    // Reading C in between keeps A's log entry untagged: it is not the
    // line read last when A enters the lock set, so validation must look
    // A up among the lines this commit holds.
    assert_eq!(txn.read(c), Ok(30));
    txn.write(a, 11).unwrap();
    // First-touch lock order [A, B]: descending.
    txn.write(b, 21).unwrap();
    let wv = txn.commit().expect("the only locks on A and B are its own");

    assert_eq!((mem.read(a), mem.read(b), mem.read(c)), (11, 21, 30));
    assert_eq!(wv, before + 1, "one commit version drawn");
    assert_eq!(clock(&rt), wv, "and the clock advanced once");
}

/// Commits per thread: enough for the two threads' commit windows to
/// overlap many times, few enough to keep an unoptimised build quick.
const COMMITS: u64 = if cfg!(debug_assertions) {
    20_000
} else {
    200_000
};
/// Hardware attempts before a commit takes the software fallback.
const HW_ATTEMPTS: u32 = 8;

/// Increments `first` then `second` in one hardware transaction, falling
/// back to a per-line-locking software transaction after
/// [`HW_ATTEMPTS`] aborts. Returns true if the hardware committed.
fn increment_both(rt: &HtmRuntime, tid: usize, first: PAddr, second: PAddr) -> bool {
    for _ in 0..HW_ATTEMPTS {
        let mut txn = rt.begin(tid);
        let body = (|| {
            for addr in [first, second] {
                let v = txn.read(addr)?;
                txn.write(addr, v + 1)?;
            }
            Ok::<(), AbortCode>(())
        })();
        if body.is_ok() && txn.commit().is_ok() {
            return true;
        }
    }
    loop {
        let mut fb = rt.begin_fallback(tid);
        let body = [first, second].into_iter().try_for_each(|addr| {
            let v = fb.read(addr)?;
            fb.write(addr, v + 1);
            Ok::<(), AbortCode>(())
        });
        if body.is_ok() {
            fb.lock_write_set();
            if fb.validate_reads().is_ok() {
                fb.publish();
                fb.commit_release();
                return false;
            }
        }
        wait::yield_now();
    }
}

#[test]
fn opposite_first_touch_orders_both_finish_and_lose_nothing() {
    let (mem, rt) = runtime(FaultPlan::inactive());
    let base = mem.reserve_persistent(2 * 8);
    // One word on each of two lines.
    let (x, y) = (base, base.add(8));

    let hardware: u64 = std::thread::scope(|s| {
        let rt = &rt;
        let workers = [(0, x, y), (1, y, x)].map(|(tid, first, second)| {
            s.spawn(move || {
                (0..COMMITS)
                    .map(|_| u64::from(increment_both(rt, tid, first, second)))
                    .sum::<u64>()
            })
        });
        workers.into_iter().map(|w| w.join().unwrap()).sum()
    });

    assert_eq!(mem.read(x), 2 * COMMITS, "every increment of x landed");
    assert_eq!(mem.read(y), 2 * COMMITS, "every increment of y landed");
    assert!(hardware > 0, "the hardware path committed too");
}

/// One software commit over `cells`, the way an engine drives it:
/// increments every cell, and returns the `(address, old value)` pairs
/// the engine would log, in log order.
fn increment_in_software(rt: &HtmRuntime, cells: &[PAddr]) -> Vec<(PAddr, u64)> {
    let mut fb = rt.begin_fallback(0);
    assert!(!fb.has_writes());
    for &cell in cells {
        let v = fb.read(cell).expect("uncontended read");
        fb.write(cell, v + 1);
        assert_eq!(fb.read(cell), Ok(v + 1), "reads see the body's own writes");
    }
    assert!(fb.has_writes());
    fb.lock_write_set();
    fb.validate_reads().expect("nothing else is running");
    let old = fb
        .written_words()
        .map(|addr| (addr, fb.read_locked(addr)))
        .collect();
    fb.publish();
    fb.commit_release();
    old
}

/// Three cells on two lines, written out of address order: the higher
/// line first, then the lower line's second word before its first.
fn cells(mem: &MemorySpace) -> [PAddr; 3] {
    // Reservations are line-aligned.
    let base = mem.reserve_persistent(16);
    [base.add(9), base.add(1), base]
}

#[test]
fn a_software_commit_logs_lines_in_first_write_order_then_publishes() {
    let (mem, rt) = runtime(FaultPlan::inactive());
    let cells = cells(&mem);
    for (i, &cell) in cells.iter().enumerate() {
        rt.nontx_write(cell, 10 * i as u64);
    }
    let logged = increment_in_software(&rt, &cells);
    assert_eq!(logged, [(cells[0], 0), (cells[2], 20), (cells[1], 10)]);
    let published: Vec<u64> = cells.iter().map(|&c| mem.read(c)).collect();
    assert_eq!(published, [1, 11, 21]);
}

#[test]
fn a_software_commit_ticks_once_per_locked_line_plus_validate_and_release() {
    let (mem, rt) = runtime(FaultPlan::count_only());
    let cells = cells(&mem);
    let before = mem.fault_steps();
    increment_in_software(&rt, &cells);
    let (stores, locked_lines) = (3, 2);
    assert_eq!(mem.fault_steps() - before, stores + locked_lines + 2);
}
