//! The statistics counters are per-thread cells bumped without a locked
//! instruction ([`crafty_common::OwnedCounter`]): `BreakdownRecorder` keeps
//! one set per thread id, `MemorySpace` one per flush queue, with a drain's
//! sums published inside its retirement window. This test runs four
//! committing threads against a fifth that keeps draining *their* queues
//! (the Section 5.2 forcing pattern), and demands that every total is
//! exact and that the two layers' counts reconcile with each other and
//! with what the threads counted themselves.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use crafty_common::{BreakdownRecorder, HwTxnOutcome, WORDS_PER_LINE};
use crafty_htm::{AbortCode, HtmConfig, HtmRuntime};
use crafty_pmem::{MemorySpace, PmemConfig};

const WORKERS: usize = 4;
const TXNS_PER_WORKER: u64 = 20_000;

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
    let start = Barrier::new(WORKERS + 1);
    let done = AtomicBool::new(false);

    let (attempts, foreign_drains) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|tid| {
                let (rt, start) = (&rt, &start);
                s.spawn(move || {
                    let mine = cells.add(2 * tid as u64 * WORDS_PER_LINE);
                    let mut attempts = 0u64;
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
                    }
                    attempts
                })
            })
            .collect();
        let drainer = s.spawn(|| {
            let mut drains = 0u64;
            start.wait();
            while !done.load(Ordering::Acquire) {
                for tid in 0..WORKERS {
                    mem.drain(tid);
                    drains += 1;
                }
            }
            drains
        });
        let attempts: u64 = workers.into_iter().map(|w| w.join().expect("worker")).sum();
        done.store(true, Ordering::Release);
        (attempts, drainer.join().expect("drainer"))
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
    // Every drain is one this test issued or a transaction's begin fence,
    // and `begin` fences only behind flushes its thread's last commit left
    // queued: at most one per commit.
    let issued = foreign_drains + WORKERS as u64;
    assert!(pm.drains >= issued, "a drain count was lost");
    assert!(
        pm.drains - issued <= commits,
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
