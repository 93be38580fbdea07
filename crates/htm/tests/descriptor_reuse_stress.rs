//! Multi-thread stress test: transaction isolation is unchanged by
//! descriptor reuse. Threads repeatedly run read-modify-write transactions
//! through the same per-thread descriptors (thousands of checkouts each),
//! with overlapping footprints, and every invariant a fresh-allocation
//! implementation provided must still hold.

use std::sync::Arc;

use crafty_common::{BreakdownRecorder, SplitMix64};
use crafty_htm::{AbortCode, HtmConfig, HtmRuntime};
use crafty_pmem::{MemorySpace, PmemConfig};

#[test]
fn isolation_holds_across_descriptor_reuse() {
    let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
    let rt = Arc::new(HtmRuntime::new(
        Arc::clone(&mem),
        HtmConfig::skylake(),
        Arc::new(BreakdownRecorder::new()),
    ));
    // Shared counters on distinct lines plus one hot shared cell.
    let hot = mem.reserve_persistent(1);
    let cells = mem.reserve_persistent(4 * 8);
    let threads = 4;
    let txns_per_thread = 2_000;

    std::thread::scope(|s| {
        for tid in 0..threads {
            let rt = Arc::clone(&rt);
            s.spawn(move || {
                let mut rng = SplitMix64::new(tid as u64 + 99);
                for _ in 0..txns_per_thread {
                    loop {
                        let mut txn = rt.begin(tid);
                        let ok = (|| {
                            // Increment the hot cell and a random per-line
                            // cell inside one transaction; read a third cell
                            // to keep a non-trivial read set.
                            let h = txn.read(hot)?;
                            let pick = rng.next_below(4);
                            let cell = cells.add(pick * 8);
                            let c = txn.read(cell)?;
                            let _ = txn.read(cells.add(((pick + 1) % 4) * 8))?;
                            txn.write(hot, h + 1)?;
                            txn.write(cell, c + 1)?;
                            Ok::<_, AbortCode>(())
                        })();
                        if ok.is_ok() && txn.commit().is_ok() {
                            break;
                        }
                    }
                }
            });
        }
    });

    // Atomicity: the hot counter saw every increment exactly once, and the
    // per-cell counters sum to the same transaction count.
    let expected = (threads * txns_per_thread) as u64;
    assert_eq!(
        mem.read(hot),
        expected,
        "lost or duplicated hot-cell updates"
    );
    let cell_sum: u64 = (0..4).map(|i| mem.read(cells.add(i * 8))).sum();
    assert_eq!(cell_sum, expected, "lost or duplicated cell updates");
}

#[test]
fn abandoned_and_aborted_transactions_leave_clean_descriptors() {
    let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
    let rt = HtmRuntime::new(
        Arc::clone(&mem),
        HtmConfig::skylake(),
        Arc::new(BreakdownRecorder::new()),
    );
    let a = mem.reserve_persistent(1);
    let b = mem.reserve_persistent(1);
    for round in 0..500u64 {
        // Abandon a transaction with buffered state...
        {
            let mut txn = rt.begin(0);
            txn.write(a, round).unwrap();
            txn.write(b, round).unwrap();
            let _ = txn.read(a).unwrap();
            // dropped uncommitted
        }
        // ...then explicitly abort one...
        {
            let mut txn = rt.begin(0);
            txn.write(a, 4_000 + round).unwrap();
            txn.abort_explicit(7);
        }
        // ...and verify the reused descriptor carries nothing over: the
        // next transaction sees only committed state and commits cleanly.
        let mut txn = rt.begin(0);
        assert_eq!(
            txn.read(a).unwrap(),
            if round == 0 { 0 } else { round - 1 + 1000 }
        );
        txn.write(a, round + 1000).unwrap();
        txn.commit().unwrap();
        assert_eq!(mem.read(a), round + 1000);
        assert_eq!(mem.read(b), 0, "abandoned buffered write leaked");
    }
}
