//! Teeth test for the hardware fast path's fallback-lock subscription.
//!
//! The per-line fallback's correctness argument has one load-bearing HTM
//! ingredient: hardware transactions **subscribe to the lock words of the
//! lines they read**, so a fallback holding [`FALLBACK_BIT`] on a line
//! aborts every hardware transaction that touches it — exactly as the old
//! design's global SGL subscription did, but only where the fallback
//! actually writes.
//!
//! Tests that only exercise the protected configuration cannot tell a
//! working subscription from a workload that never conflicts. So, like
//! `no-session-dedup` for the server's replay dedup, the
//! `no-fallback-subscription` cargo feature compiles the fallback bit OUT
//! of the fast path's subscription (reads, commit locking, and commit
//! validation stop observing it; the non-transactional paths still honor
//! it), and this file flips polarity with the feature:
//!
//! * default build — the conflict choreography and the mixed
//!   fallback/hardware stress must PASS (locked lines abort hardware
//!   readers; counts stay exact);
//! * `--features no-fallback-subscription` — the same choreography must
//!   produce the failure the subscription exists to prevent: a hardware
//!   transaction reads straight through a held fallback lock, commits,
//!   and its update is lost when the fallback publishes. The test asserts
//!   the lost update *happens*, deterministically — proving the teeth are
//!   real and the protection is the subscription, not an accident of
//!   scheduling.

use std::sync::Arc;

use crafty_common::BreakdownRecorder;
use crafty_htm::{HtmConfig, HtmRuntime};
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

/// The conflict choreography both builds share, probing the lock-hold
/// window that only the subscription protects. A fallback blind-writes
/// `x` (no read — so its own commit-time validation is out of play),
/// locks it, publishes, and *while the lock is still held*:
///
/// 1. a hardware transaction reads `x` — with the subscription this is a
///    conflict abort; without it, a **dirty read** of the not-yet-stamped
///    publish (`60`);
/// 2. a hardware transaction blind-writes `x = 70` and commits — with the
///    subscription its commit-time try-lock sees the held line and
///    aborts; without it, the commit **clobbers** the fallback's write
///    inside the lock window.
///
/// Returns `(final_x, dirty_read, clobber_committed)`.
fn run_choreography() -> (u64, Option<u64>, bool) {
    let (mem, rt) = runtime();
    let x = mem.reserve_persistent(1);
    rt.nontx_write(x, 100);

    let mut fb = rt.begin_fallback(0);
    fb.write(x, 60);
    fb.lock_write_set();
    fb.validate_reads()
        .expect("empty read set always validates");
    fb.publish();

    // Probe 1: a hardware read of the locked, just-published line.
    let dirty_read = {
        let mut txn = rt.begin(1);
        txn.read(x).ok()
        // Dropped uncommitted either way; only the read outcome matters.
    };

    // Probe 2: a hardware blind write trying to commit into the window.
    let clobber_committed = {
        let mut txn = rt.begin(1);
        txn.write(x, 70).expect("buffered write never conflicts");
        txn.commit().is_ok()
    };

    fb.commit_release();
    (rt.nontx_read(x), dirty_read, clobber_committed)
}

/// Protected build: both probes must abort — the held fallback lock is
/// part of every hardware transaction's read subscription and commit
/// try-lock — and the fallback's write is the only update that lands.
#[cfg(not(feature = "no-fallback-subscription"))]
#[test]
fn fallback_held_lines_abort_hardware_readers_and_committers() {
    let (final_x, dirty_read, clobber_committed) = run_choreography();
    assert_eq!(
        dirty_read, None,
        "a hardware transaction read straight through a held fallback lock"
    );
    assert!(
        !clobber_committed,
        "a hardware commit write-locked a line the fallback holds"
    );
    assert_eq!(final_x, 60, "only the fallback's write applies");
}

/// Teeth build: with the subscription compiled out, the identical
/// choreography MUST exhibit both failures — the hardware read observes
/// the uncommitted publish (dirty read), and the hardware commit clobbers
/// the fallback's write inside its lock window (lost update). If this
/// test ever fails, the feature no longer disables anything and the
/// protected-build test proves nothing.
#[cfg(feature = "no-fallback-subscription")]
#[test]
fn missing_subscription_admits_dirty_reads_and_lost_updates() {
    let (final_x, dirty_read, clobber_committed) = run_choreography();
    assert_eq!(
        dirty_read,
        Some(60),
        "the hardware read was expected to observe the uncommitted publish"
    );
    assert!(
        clobber_committed,
        "the hardware commit was expected to lock through the fallback's hold"
    );
    assert_eq!(
        final_x, 70,
        "the fallback's write must be clobbered inside its own lock window \
         (a lost update) — got {final_x}"
    );
}

/// Protected build only: a mixed stress — hardware increments racing
/// software fallback increments on shared cells — must keep counts exact.
/// Under `no-fallback-subscription` this invariant does not hold (that is
/// the point of the feature), so the stress is compiled out rather than
/// left to fail nondeterministically; the deterministic choreography
/// above is the teeth assertion.
#[cfg(not(feature = "no-fallback-subscription"))]
#[test]
fn mixed_fallback_and_hardware_stress_keeps_counts_exact() {
    use crafty_common::SplitMix64;

    let (mem, rt) = runtime();
    let rt = Arc::new(rt);
    let cells = mem.reserve_persistent(4 * 8);
    let threads = 4;
    let txns_per_thread = 1_000;

    std::thread::scope(|s| {
        for tid in 0..threads {
            let rt = Arc::clone(&rt);
            s.spawn(move || {
                let mut rng = SplitMix64::new(0xBEA7 + tid as u64);
                for i in 0..txns_per_thread {
                    let cell = cells.add(rng.next_below(4) * 8);
                    // Half the threads go through the software fallback,
                    // half through hardware transactions, all contending.
                    if tid % 2 == 0 {
                        loop {
                            let mut fb = rt.begin_fallback(tid);
                            let Ok(v) = fb.read(cell) else { continue };
                            fb.write(cell, v + 1);
                            fb.lock_write_set();
                            if fb.validate_reads().is_err() {
                                continue;
                            }
                            fb.publish();
                            fb.commit_release();
                            break;
                        }
                    } else {
                        loop {
                            let mut txn = rt.begin(tid);
                            let Ok(v) = txn.read(cell) else { continue };
                            if txn.write(cell, v + 1).is_err() {
                                continue;
                            }
                            if txn.commit().is_ok() {
                                break;
                            }
                        }
                    }
                    // Keep the interleaving varied.
                    if i % 64 == 0 {
                        std::thread::yield_now();
                    }
                }
            });
        }
    });

    let total: u64 = (0..4).map(|i| mem.read(cells.add(i * 8))).sum();
    assert_eq!(
        total,
        (threads * txns_per_thread) as u64,
        "lost or duplicated updates in the fallback/hardware mix"
    );
}
