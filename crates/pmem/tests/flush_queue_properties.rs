//! Property and stress tests for the lock-free sharded flush path.
//!
//! The per-thread flush queues replaced a `Mutex<Vec<LineId>>` (with a
//! linear `contains` scan per flush) by a single-writer ring plus a
//! generation-stamped per-line dedup table. These tests pin the behaviours
//! the engines rely on:
//!
//! * the queue's pending set always agrees with a `HashSet` reference
//!   model under arbitrary clwb/drain interleavings (dedup is exact);
//! * a drain persists each pending line exactly once (no lost and no
//!   double-persisted lines), which the multi-thread stress test checks
//!   through the space's `lines_persisted` counter;
//! * each queue is drained by its owner alone, and owners draining the
//!   same lines through their own queues race only on the lines'
//!   write-backs, without losing or double-copying a store;
//! * ring overflow falls back to immediate write-back without losing data;
//! * the per-line flush stamp is shared by every queue and tagged with the
//!   one that wrote it: a queue absorbs a re-flush of a line only while
//!   its own enqueue is pending, so threads flushing one line never lose a
//!   store, and a line two threads flush in turn may sit twice in one
//!   claimed range, which a drain counts and charges as pinned below.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crafty_common::{PAddr, WORDS_PER_LINE};
use crafty_pmem::{LatencyModel, MemorySpace, PmemConfig};
use proptest::prelude::*;

fn line_addr(line: u64) -> PAddr {
    PAddr::new(line * WORDS_PER_LINE)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Single-owner clwb/drain sequences agree with a HashSet reference
    /// model of the pending set: duplicate flushes of a pending line are
    /// absorbed, drains persist exactly the distinct pending lines, and a
    /// line re-flushed after a drain is pending again.
    #[test]
    fn pending_set_agrees_with_hashset_reference(seed: u64, ops in 1usize..300) {
        let mem = MemorySpace::new(PmemConfig::small_for_tests());
        let mut rng = crafty_common::SplitMix64::new(seed);
        let mut reference: HashSet<u64> = HashSet::new();
        // Lines 8..40: small domain so duplicates are common; line values
        // are seeded uniquely per step so drains persist fresh data.
        for step in 0..ops {
            let raw = rng.next_u64();
            if raw.is_multiple_of(5) {
                let drained = mem.drain(0);
                prop_assert_eq!(
                    drained as usize,
                    reference.len(),
                    "step {}: drain count must equal the distinct pending lines",
                    step
                );
                for &line in &reference {
                    prop_assert_eq!(
                        mem.read_persisted(line_addr(line)),
                        mem.read(line_addr(line)),
                        "step {}: line {} not persisted with its latest value",
                        step, line
                    );
                }
                reference.clear();
            } else {
                let line = 8 + raw % 32;
                mem.write(line_addr(line), line * 1_000 + step as u64);
                mem.clwb(0, line_addr(line));
                reference.insert(line);
            }
            prop_assert_eq!(
                mem.pending_flushes(0),
                reference.len(),
                "step {}: pending count diverged from the reference model",
                step
            );
        }
    }
}

/// Counts the maximal runs of adjacent line ids in a pending set — the
/// reference partition the coalescing drain must reproduce exactly.
fn expected_runs(pending: &HashSet<u64>) -> u64 {
    let mut lines: Vec<u64> = pending.iter().copied().collect();
    lines.sort_unstable();
    let mut runs = 0u64;
    let mut prev = None;
    for &l in &lines {
        if prev != Some(l - 1) {
            runs += 1;
        }
        prev = Some(l);
    }
    runs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The coalesced run boundaries exactly partition each drain's claimed
    /// range: `range_lines` advances by exactly the distinct pending lines
    /// (no line skipped, none flushed twice — a double-flushed line would
    /// appear in two runs and overcount), and `flush_ranges` advances by
    /// exactly the number of maximal adjacent runs in the pending set,
    /// under random interleaved enqueues (with duplicates) and a tiny ring
    /// that forces overflow write-backs.
    #[test]
    fn coalesced_runs_partition_the_claimed_range(
        seed: u64,
        ops in 1usize..400,
        capacity_pow in 2u32..6,
    ) {
        let capacity = 1usize << capacity_pow;
        let mem = MemorySpace::new(
            PmemConfig::small_for_tests().with_flush_queue_capacity(capacity),
        );
        let mut rng = crafty_common::SplitMix64::new(seed);
        let mut pending: HashSet<u64> = HashSet::new();
        for step in 0..ops {
            let raw = rng.next_u64();
            if raw.is_multiple_of(7) {
                let before = mem.stats();
                let drained = mem.drain(0);
                let after = mem.stats();
                prop_assert_eq!(drained as usize, pending.len());
                prop_assert_eq!(
                    after.range_lines - before.range_lines,
                    pending.len() as u64,
                    "step {}: every claimed line in exactly one run",
                    step
                );
                prop_assert_eq!(
                    after.flush_ranges - before.flush_ranges,
                    expected_runs(&pending),
                    "step {}: run count must match the maximal-adjacent partition",
                    step
                );
                for &line in &pending {
                    prop_assert_eq!(
                        mem.read_persisted(line_addr(line)),
                        mem.read(line_addr(line)),
                        "step {}: line {} skipped by the coalesced drain",
                        step, line
                    );
                }
                pending.clear();
            } else {
                // A small, clustered domain (adjacent lines are common) so
                // runs of every length appear.
                let line = 8 + raw % 24;
                mem.write(line_addr(line), line * 1_000 + step as u64);
                if pending.contains(&line) {
                    mem.clwb(0, line_addr(line)); // dedup: mask merge only
                } else if pending.len() >= capacity {
                    // Ring full: the clwb completes as an overflow
                    // write-back and never becomes pending.
                    let before = mem.stats();
                    mem.clwb(0, line_addr(line));
                    prop_assert_eq!(
                        mem.stats().overflow_writebacks,
                        before.overflow_writebacks + 1
                    );
                    prop_assert_eq!(
                        mem.read_persisted(line_addr(line)),
                        mem.read(line_addr(line))
                    );
                } else {
                    mem.clwb(0, line_addr(line));
                    pending.insert(line);
                }
            }
            prop_assert_eq!(mem.pending_flushes(0), pending.len());
        }
        // Final drain: whatever is left still partitions exactly.
        let before = mem.stats();
        mem.drain(0);
        let after = mem.stats();
        prop_assert_eq!(after.range_lines - before.range_lines, pending.len() as u64);
        prop_assert_eq!(
            after.flush_ranges - before.flush_ranges,
            expected_runs(&pending)
        );
    }
}

/// Multi-thread stress: each thread owns a disjoint line range and runs
/// write-batch → clwb (with duplicates) → drain cycles. Afterwards every
/// written value is persisted, and `lines_persisted` equals the exact
/// number of distinct (thread, batch, line) persists — no lost lines, no
/// double persists from the dedup.
#[test]
fn concurrent_clwb_drain_cycles_lose_nothing_and_double_persist_nothing() {
    let threads = 4usize;
    let batches = 200u64;
    let lines_per_batch = 8u64;
    let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
    std::thread::scope(|s| {
        for tid in 0..threads {
            let mem = Arc::clone(&mem);
            s.spawn(move || {
                let first_line = 16 + tid as u64 * 64;
                for batch in 0..batches {
                    for l in 0..lines_per_batch {
                        let addr = line_addr(first_line + l);
                        mem.write(addr, batch + 1);
                        // Duplicate flushes must be deduplicated.
                        mem.clwb(tid, addr);
                        mem.clwb(tid, addr.add(3));
                    }
                    mem.drain(tid);
                    for l in 0..lines_per_batch {
                        assert_eq!(
                            mem.read_persisted(line_addr(first_line + l)),
                            batch + 1,
                            "tid {tid} batch {batch}: line {l} lost"
                        );
                    }
                }
            });
        }
    });
    let stats = mem.stats();
    assert_eq!(
        stats.lines_persisted,
        threads as u64 * batches * lines_per_batch,
        "every batch must persist exactly its distinct lines"
    );
    assert_eq!(stats.overflow_writebacks, 0);
    assert_eq!(
        stats.flushes,
        threads as u64 * batches * lines_per_batch * 2,
        "every clwb call is counted, deduplicated or not"
    );
    // Each batch's 8 lines are adjacent, so every drain coalesces them
    // into exactly one ranged flush — also under concurrency.
    assert_eq!(
        stats.flush_ranges,
        threads as u64 * batches,
        "adjacent batches must coalesce into one range per drain"
    );
    assert_eq!(stats.range_lines, stats.lines_persisted);
}

/// Two owners flush and drain the same lines through their own queues
/// at once (what a fence does to another thread's latest lines): their
/// drains race on each line's write-back without losing or
/// double-persisting a store. Each queue persists exactly the positions
/// it enqueued, each stored word is copied exactly once, and the owner's
/// last values end up durable.
#[test]
fn owner_drains_race_another_queues_drains_exactly() {
    let rounds = 300u64;
    let lines = 6u64;
    let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
    std::thread::scope(|s| {
        // The owner stores to `lines` lines per round, flushes, drains.
        {
            let mem = Arc::clone(&mem);
            s.spawn(move || {
                for round in 0..rounds {
                    for l in 0..lines {
                        let addr = line_addr(16 + l);
                        mem.write(addr, round + 1);
                        mem.clwb(0, addr);
                    }
                    mem.drain(0);
                    for l in 0..lines {
                        assert!(
                            mem.read_persisted(line_addr(16 + l)) > round,
                            "owner drain must cover its own enqueues (round {round})"
                        );
                    }
                }
            });
        }
        // A second thread keeps flushing the same lines on its own queue
        // and draining them.
        {
            let mem = Arc::clone(&mem);
            s.spawn(move || {
                for _ in 0..rounds {
                    for l in 0..lines {
                        mem.clwb(1, line_addr(16 + l));
                    }
                    mem.drain(1);
                    std::thread::yield_now();
                }
            });
        }
    });
    let stats = mem.stats();
    // Every round enqueues each line once on each queue (a queue drains
    // before it flushes again), and a drain counts every position it
    // takes, clean or not.
    assert_eq!(stats.flushes, 2 * rounds * lines);
    assert_eq!(stats.lines_persisted, 2 * rounds * lines);
    // Each of the owner's stores dirtied one word, and exactly one
    // write-back — whichever queue's drain took the mask — copied it.
    assert_eq!(stats.words_persisted, rounds * lines);
    assert_eq!(mem.pending_flushes(0), 0);
    assert_eq!(mem.pending_flushes(1), 0);
    for l in 0..lines {
        assert_eq!(
            mem.read_persisted(line_addr(16 + l)),
            rounds,
            "final value of line {l} must be durable after the last drain"
        );
    }
}

/// The dedup path merges dirty-word masks instead of taking a second ring
/// slot: re-flushing a still-pending line after writing another of its
/// words leaves exactly one queue entry, and the single write-back covers
/// both words (the line's mask accumulated the second bit).
#[test]
fn dedup_merges_masks_instead_of_requeueing() {
    let mem = MemorySpace::new(PmemConfig::small_for_tests());
    let a = line_addr(8); // word 0 of line 8
    let b = a.add(3); // word 3, same line
    mem.write(a, 11);
    mem.clwb(0, a);
    mem.write(b, 22);
    mem.clwb(0, b); // stamp hit: mask-merge, no second slot
    assert_eq!(
        mem.pending_flushes(0),
        1,
        "the re-flush must be absorbed by the dedup stamp"
    );
    assert_eq!(mem.drain(0), 1, "one line persisted");
    assert_eq!(mem.read_persisted(a), 11);
    assert_eq!(mem.read_persisted(b), 22);
    let stats = mem.stats();
    assert_eq!(stats.lines_persisted, 1);
    assert_eq!(
        stats.words_persisted, 2,
        "exactly the two written words are copied — merged, not whole-line"
    );
    assert_eq!(stats.line_words_persisted, 8);
}

/// Word counters stay exact across drains, evictionless re-dirtying, and
/// queue-side dedup: every copied word is counted once.
#[test]
fn word_counters_track_exactly_what_was_copied() {
    let mem = MemorySpace::new(PmemConfig::small_for_tests());
    // Fully dirty line: 8 words.
    for i in 0..WORDS_PER_LINE {
        mem.write(line_addr(8).add(i), i + 1);
    }
    mem.clwb(0, line_addr(8));
    mem.drain(0);
    // Re-dirty one word of the now-clean line: 1 more word.
    mem.write(line_addr(8).add(5), 99);
    mem.clwb(0, line_addr(8));
    mem.drain(0);
    let stats = mem.stats();
    assert_eq!(stats.words_persisted, WORDS_PER_LINE + 1);
    assert_eq!(stats.line_words_persisted, 2 * WORDS_PER_LINE);
    assert_eq!(stats.lines_persisted, 2);
}

/// With a deliberately tiny ring, overflowing flushes complete immediately
/// instead of being dropped, and a final drain leaves everything durable.
#[test]
fn overflowing_queue_never_loses_lines() {
    let cfg = PmemConfig::small_for_tests().with_flush_queue_capacity(4);
    let mem = MemorySpace::new(cfg);
    let lines = 64u64;
    for l in 0..lines {
        let addr = line_addr(8 + l);
        mem.write(addr, l + 7);
        mem.clwb(0, addr);
    }
    let stats = mem.stats();
    assert_eq!(
        stats.overflow_writebacks,
        lines - 4,
        "all but a ringful must have written back eagerly"
    );
    mem.drain(0);
    for l in 0..lines {
        assert_eq!(mem.read_persisted(line_addr(8 + l)), l + 7);
    }
}

/// A thread re-flushing a line its own queue still holds is absorbed by
/// the line's stamp, on any thread slot: one queue slot, one write-back of
/// both written words, and both requests counted as flushes.
#[test]
fn a_reflush_of_a_line_the_queue_still_holds_is_absorbed() {
    for tid in [0, 5] {
        let mem = MemorySpace::new(PmemConfig::small_for_tests());
        let a = line_addr(8);
        mem.write(a, 11);
        mem.clwb(tid, a);
        mem.write(a.add(6), 22);
        mem.clwb(tid, a.add(6));
        assert_eq!(mem.pending_flushes(tid), 1, "tid {tid}: one slot");
        assert_eq!(mem.drain(tid), 1, "tid {tid}: one write-back");
        assert_eq!(mem.read_persisted(a), 11);
        assert_eq!(mem.read_persisted(a.add(6)), 22);
        let stats = mem.stats();
        assert_eq!(stats.flushes, 2, "tid {tid}: both requests count");
        assert_eq!(stats.lines_persisted, 1);
        assert_eq!(stats.words_persisted, 2);
    }
}

/// Two threads store to one line and flush it, in both orders, and then
/// both drain, in both orders: the second flush finds the first queue's
/// stamp and enqueues on its own queue, and whichever drain runs first,
/// the persistent image ends with the last value.
#[test]
fn two_threads_flushing_one_line_leave_the_last_value() {
    for (first, second) in [(1, 2), (2, 1)] {
        for drains in [[first, second], [second, first]] {
            let mem = MemorySpace::new(PmemConfig::small_for_tests());
            let a = line_addr(16);
            mem.write(a, 1);
            mem.clwb(first, a);
            mem.write(a, 2);
            mem.clwb(second, a);
            let case = format!("flushed by {first} then {second}");
            assert_eq!(mem.pending_flushes(first), 1, "{case}");
            assert_eq!(mem.pending_flushes(second), 1, "{case}");
            for tid in drains {
                mem.drain(tid);
            }
            assert_eq!(mem.read_persisted(a), 2, "{case}, drained {drains:?}");
            assert_eq!(mem.crash().read(a), 2, "{case}, drained {drains:?}");
            assert_eq!(mem.stats().lines_persisted, 2, "{case}");
        }
    }
}

/// A line queue 0 flushed, then queue 1, then queue 0 again sits twice in
/// queue 0's ring: the stamp named queue 1 at the second flush. One drain
/// claims both positions, counts both in `lines_persisted`, copies the
/// words once and skips the duplicate id — one range of one line, charged
/// once.
#[test]
fn a_duplicate_line_in_one_claimed_range_is_counted_and_charged() {
    const RANGE_NS: u64 = 50_000_000;
    let cfg = PmemConfig::small_for_tests().with_latency(LatencyModel {
        clwb_range_ns: RANGE_NS,
        ..LatencyModel::instant()
    });
    let mem = MemorySpace::new(cfg);
    let a = line_addr(16);
    mem.write(a, 1);
    mem.clwb(0, a);
    mem.clwb(1, a);
    mem.write(a.add(1), 2);
    mem.clwb(0, a.add(1));
    assert_eq!(mem.pending_flushes(0), 2);

    let start = Instant::now();
    assert_eq!(mem.drain(0), 2, "both positions claimed");
    let took = start.elapsed();
    let stats = mem.stats();
    assert_eq!(stats.lines_persisted, 2);
    assert_eq!(stats.words_persisted, 2);
    assert_eq!(stats.line_words_persisted, WORDS_PER_LINE);
    assert_eq!((stats.flush_ranges, stats.range_lines), (1, 1));
    let range = Duration::from_nanos(RANGE_NS);
    assert!(took >= range && took < 2 * range, "charged {took:?}");
    assert_eq!(mem.read_persisted(a), 1);
    assert_eq!(mem.read_persisted(a.add(1)), 2);
    // Queue 1's enqueue finds the line clean: a position, no words.
    assert_eq!(mem.drain(1), 1);
    let after = mem.stats();
    assert_eq!(after.lines_persisted, 3);
    assert_eq!(after.words_persisted, 2);
}

/// Threads storing to words of the same lines and flushing them through
/// their own queues: after each thread's own drain, its stores are
/// durable, whichever queue last stamped the lines — a queue never skips a
/// flush on another queue's pending enqueue.
#[test]
fn threads_sharing_lines_make_their_own_stores_durable() {
    let threads = 4usize;
    let rounds = 300u64;
    let lines = 4u64;
    let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
    std::thread::scope(|s| {
        for tid in 0..threads {
            let mem = Arc::clone(&mem);
            s.spawn(move || {
                for round in 1..=rounds {
                    for l in 0..lines {
                        let addr = line_addr(16 + l).add(tid as u64);
                        mem.write(addr, round);
                        mem.clwb(tid, addr);
                        mem.clwb(tid, addr);
                    }
                    mem.drain(tid);
                    for l in 0..lines {
                        let addr = line_addr(16 + l).add(tid as u64);
                        assert_eq!(mem.read_persisted(addr), round, "tid {tid} line {l}");
                    }
                }
            });
        }
    });
    for tid in 0..threads {
        assert_eq!(mem.pending_flushes(tid), 0);
    }
}
