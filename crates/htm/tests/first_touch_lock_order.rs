//! `HwTxn::commit` locks its lines in first-touch order, not a canonical
//! sorted one. That is safe because a hardware commit never waits on a
//! line: a line that is locked or versioned past the snapshot aborts it,
//! and it releases what it took. Two things must hold from outside: a
//! commit whose lock order descends still recognises its own locks when
//! it validates, and two threads locking the same lines in opposite
//! orders both finish with every increment landed.

use std::sync::Arc;

use crafty_common::{wait, BreakdownRecorder, PAddr};
use crafty_htm::{AbortCode, Exclusion, HtmConfig, HtmRuntime};
use crafty_pmem::{MemorySpace, PmemConfig};

fn runtime() -> (Arc<MemorySpace>, HtmRuntime) {
    let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
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
    let (mem, rt) = runtime();
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
    let (mem, rt) = runtime();
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
