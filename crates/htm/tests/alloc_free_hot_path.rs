//! Verifies the headline property of the reusable descriptor design: in
//! steady state, a committed hardware transaction performs **zero heap
//! allocations**. A counting global allocator observes the begin → read →
//! write → commit cycle after a warmup phase that lets every scratch
//! structure reach its steady-state capacity — the read log included, past
//! its initial capacity and through its in-place compaction.

use std::sync::Arc;

use crafty_common::{BreakdownRecorder, PAddr};
use crafty_htm::{HtmConfig, HtmRuntime};
use crafty_pmem::{MemorySpace, PmemConfig};

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{thread_allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// One bank-like transfer between two accounts spread over distinct lines,
/// through the full transactional API (reads, buffered writes, commit-time
/// flush requests).
fn transfer(rt: &HtmRuntime, tid: usize, accounts: PAddr, from: u64, to: u64) {
    loop {
        let mut txn = rt.begin(tid);
        let result = (|| {
            // Sequential read-modify-write pairs, so `from == to` is a
            // harmless no-op (the second read observes the buffered write).
            let a = txn.read(accounts.add(from * 8))?;
            txn.write(accounts.add(from * 8), a.wrapping_sub(1))?;
            let b = txn.read(accounts.add(to * 8))?;
            txn.write(accounts.add(to * 8), b.wrapping_add(1))?;
            txn.flush_on_commit(accounts.add(from * 8))?;
            txn.flush_on_commit(accounts.add(to * 8))?;
            Ok::<_, crafty_htm::AbortCode>(())
        })();
        if result.is_ok() && txn.commit().is_ok() {
            return;
        }
    }
}

#[test]
fn steady_state_transactions_do_not_allocate() {
    let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
    let rt = HtmRuntime::new(
        Arc::clone(&mem),
        HtmConfig::skylake(),
        Arc::new(BreakdownRecorder::new()),
    );
    let accounts = mem.reserve_persistent(64 * 8);
    for i in 0..64 {
        mem.write(accounts.add(i * 8), 1_000);
    }

    // Warmup: lets the descriptor tables, flush queues, and write-order
    // buffers grow to the workload's footprint.
    let mut key = 7u64;
    for _ in 0..1_000 {
        key = key.wrapping_mul(6364136223846793005).wrapping_add(1);
        transfer(&rt, 0, accounts, key % 64, (key >> 8) % 64);
    }
    mem.drain(0);

    let before = thread_allocations();
    for _ in 0..10_000 {
        key = key.wrapping_mul(6364136223846793005).wrapping_add(1);
        transfer(&rt, 0, accounts, key % 64, (key >> 8) % 64);
    }
    let after = thread_allocations();

    assert_eq!(
        after - before,
        0,
        "hot path allocated {} times over 10k steady-state transactions",
        after - before
    );

    // Sanity: the workload actually ran (conservation of the total).
    mem.drain(0);
    let total: u64 = (0..64).map(|i| mem.read(accounts.add(i * 8))).sum();
    assert_eq!(total, 64 * 1_000);
}

/// One read-only transaction over `lines` distinct lines from `base` —
/// more than the read log's initial capacity of 64 — then interleaved
/// re-reads of two of them, which keep appending to the log until it
/// outgrows the read capacity and is compacted in place.
fn scan(rt: &HtmRuntime, base: PAddr, lines: u64, rereads: u64) -> u64 {
    let mut txn = rt.begin(0);
    let mut sum = 0u64;
    for line in 0..lines {
        sum = sum.wrapping_add(txn.read(base.add(line * 8)).expect("uncontended"));
    }
    for i in 0..rereads {
        let line = i % 2 * (lines - 1);
        sum = sum.wrapping_add(txn.read(base.add(line * 8 + 1)).expect("uncontended"));
    }
    txn.commit().expect("read-only, within capacity");
    sum
}

#[test]
fn steady_state_read_only_transactions_do_not_allocate() {
    let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
    // A read capacity the re-reads overrun many times over: the log is
    // sorted and deduplicated in place each time it passes 128 entries.
    let cfg = HtmConfig {
        read_capacity_lines: 128,
        ..HtmConfig::skylake()
    };
    let rt = HtmRuntime::new(Arc::clone(&mem), cfg, Arc::new(BreakdownRecorder::new()));
    let base = mem.reserve_persistent(100 * 8);
    for line in 0..100 {
        mem.write(base.add(line * 8), line);
    }

    for _ in 0..100 {
        scan(&rt, base, 100, 1_000);
    }
    let before = thread_allocations();
    let mut sum = 0u64;
    for _ in 0..1_000 {
        sum = sum.wrapping_add(scan(&rt, base, 100, 1_000));
    }
    let after = thread_allocations();
    assert_eq!(
        after - before,
        0,
        "read-only path allocated {} times over 1k steady-state transactions",
        after - before
    );
    assert_eq!(sum, 1_000 * (0..100).sum::<u64>(), "the scans read memory");
}
