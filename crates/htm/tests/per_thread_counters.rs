//! The statistics counters are per-thread cells bumped without a locked
//! instruction ([`crafty_common::OwnedCounter`]): `BreakdownRecorder` keeps
//! one set per thread id, `MemorySpace` one per flush queue, all bumped
//! by the queue's owner. This test runs four committing threads that also
//! drain their own queues between commits, all flushing one shared line,
//! and demands that every total is exact and that the two layers' counts
//! reconcile with each other and with what the threads counted
//! themselves.

use std::sync::{Arc, Barrier};

use crafty_common::{BreakdownRecorder, HwTxnOutcome, WORDS_PER_LINE};
use crafty_htm::{AbortCode, HtmConfig, HtmRuntime};
use crafty_pmem::{MemorySpace, PmemConfig};

const WORKERS: usize = 4;
const TXNS_PER_WORKER: u64 = 20_000;
/// A worker drains its own queue itself after every this many commits.
const DRAIN_EVERY: u64 = 3;

#[test]
fn per_thread_cells_lose_nothing_and_layers_reconcile() {
    let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
    let recorder = Arc::new(BreakdownRecorder::with_threads(WORKERS));
    let rt = HtmRuntime::new(
        Arc::clone(&mem),
        HtmConfig::skylake(),
        Arc::clone(&recorder),
    );
    // One contended cell (so that some attempts abort) and two private
    // lines per worker.
    let hot = mem.reserve_persistent(1);
    let cells = mem.reserve_persistent(2 * WORKERS as u64 * WORDS_PER_LINE);
    let start = Barrier::new(WORKERS);

    let (attempts, own_drains) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|tid| {
                let (rt, mem, start) = (&rt, &mem, &start);
                s.spawn(move || {
                    let mine = cells.add(2 * tid as u64 * WORDS_PER_LINE);
                    let (mut attempts, mut drains) = (0u64, 0u64);
                    start.wait();
                    for n in 0..TXNS_PER_WORKER {
                        loop {
                            attempts += 1;
                            let mut txn = rt.begin(tid);
                            let ok = (|| {
                                let h = txn.read(hot)?;
                                txn.write(hot, h + 1)?;
                                txn.write(mine.add(n % WORDS_PER_LINE), n)?;
                                txn.write(mine.add(WORDS_PER_LINE), n)?;
                                txn.flush_on_commit(hot)?;
                                txn.flush_on_commit(mine)?;
                                txn.flush_on_commit(mine.add(WORDS_PER_LINE))?;
                                Ok::<_, AbortCode>(())
                            })();
                            if ok.is_ok() && txn.commit().is_ok() {
                                break;
                            }
                        }
                        if n % DRAIN_EVERY == 0 {
                            mem.drain(tid);
                            drains += 1;
                        }
                    }
                    (attempts, drains)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("worker"))
            .fold((0, 0), |(a, d), (wa, wd)| (a + wa, d + wd))
    });
    for tid in 0..WORKERS {
        mem.drain(tid);
    }

    let commits = WORKERS as u64 * TXNS_PER_WORKER;
    let hw = recorder.snapshot();
    assert_eq!(mem.read(hot), commits, "atomicity");
    assert_eq!(
        hw.hw(HwTxnOutcome::Commit),
        commits,
        "a commit count was lost"
    );
    assert_eq!(
        hw.total_hardware(),
        attempts,
        "an attempt's outcome was lost"
    );

    let pm = mem.stats();
    assert_eq!(pm.flushes, 3 * commits, "a flush count was lost");
    // Every drain is one this test issued (each worker's own, then one
    // per queue after the workers are done) or a transaction's begin
    // fence, and `begin` fences only behind flushes its thread's last
    // commit left queued: at most one per commit, and none behind a commit
    // its worker drained itself.
    let issued = own_drains + WORKERS as u64;
    assert!(pm.drains >= issued, "a drain count was lost");
    assert_eq!(
        own_drains,
        WORKERS as u64 * TXNS_PER_WORKER.div_ceil(DRAIN_EVERY)
    );
    assert!(
        pm.drains - issued <= commits - own_drains,
        "more fences than commits to fence"
    );
    assert_eq!(pm.overflow_writebacks, 0);
    // Every queue is drained: each queued line was written back exactly
    // once, in some drain's range, and nothing is left dirty.
    assert_eq!(pm.range_lines, pm.lines_persisted);
    assert!(pm.lines_persisted <= pm.flushes, "dedup only ever absorbs");
    assert!(pm.lines_persisted >= 3, "the flushes reached a drain");
    assert!(pm.words_persisted <= pm.line_words_persisted);
    // (The hot line sits in all four queues; whichever drain reaches it
    // second finds it clean and copies nothing.)
    assert!(pm.line_words_persisted <= pm.lines_persisted * WORDS_PER_LINE);
    assert_eq!(mem.read_persisted(hot), commits);
    let image = mem.crash();
    for w in 0..2 * WORKERS as u64 * WORDS_PER_LINE {
        assert_eq!(image.read(cells.add(w)), mem.read(cells.add(w)));
    }
}
