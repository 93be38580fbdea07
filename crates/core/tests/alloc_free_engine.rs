//! End-to-end allocation check for the Crafty engine: after warmup, a
//! committed persistent transaction on the bank-workload hot path (Log
//! phase → undo-log append → flush → Redo phase) performs **zero heap
//! allocations** — and so does the forced per-line software commit, which
//! borrows the same descriptor. This is the acceptance bar for the
//! reusable-descriptor / scratch-buffer design across the HTM → core →
//! pmem stack.
//!
//! Each route also runs a body that allocates a block and frees it again:
//! the heap's cursor and free lists are persistent words the body reads
//! and writes, so allocation adds no Rust allocation either.
//!
//! Each route runs twice: with instant drains, and with
//! [`LatencyModel::nvm_100ns`], under which every drain before a
//! publication also warms the lines it will publish to — a path the
//! instant model, having no wait to fill, never takes.
//!
//! This file intentionally holds a single `#[test]` so no concurrent test
//! thread can pollute the allocation counters.

use std::sync::Arc;

use crafty_common::{PersistentTm, SplitMix64, TxAbort, TxnOps};
use crafty_core::{Crafty, CraftyConfig};
use crafty_pmem::{LatencyModel, MemorySpace, PmemConfig};

#[path = "../../htm/tests/support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{thread_allocations, CountingAllocator};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn transfer(
    ops: &mut dyn TxnOps,
    from: crafty_common::PAddr,
    to: crafty_common::PAddr,
    allocating: bool,
) -> Result<(), TxAbort> {
    let a = ops.read(from)?;
    ops.write(from, a.wrapping_sub(1))?;
    let b = ops.read(to)?;
    ops.write(to, b.wrapping_add(1))?;
    if allocating {
        // A B+-tree node's size: three lines.
        let node = ops.alloc(19)?;
        ops.write(node.add(1), a)?;
        ops.dealloc(node, 19)?;
    }
    Ok(())
}

#[test]
fn steady_state_bank_transactions_do_not_allocate() {
    let base = CraftyConfig::small_for_tests().with_max_threads(1);
    for latency in [LatencyModel::instant(), LatencyModel::nvm_100ns()] {
        for (route, cfg) in [
            ("hardware", base),
            ("forced per-line", base.with_force_fallback(true)),
        ] {
            for allocating in [false, true] {
                run_route(route, cfg, latency, allocating);
            }
        }
    }
}

fn run_route(route: &str, cfg: CraftyConfig, latency: LatencyModel, allocating: bool) {
    let mem = Arc::new(MemorySpace::new(
        PmemConfig::small_for_tests().with_latency(latency),
    ));
    // A roomy undo log postpones half-crossing maintenance; the test spans
    // several crossings anyway, which must also be allocation-free.
    let crafty = Crafty::new(
        Arc::clone(&mem),
        CraftyConfig {
            undo_log_entries: 1024,
            ..cfg
        },
    );
    let accounts_n = 64u64;
    let accounts = mem.reserve_persistent(accounts_n * 8);
    for i in 0..accounts_n {
        mem.write(accounts.add(i * 8), 1_000);
    }
    let mut thread = crafty.register_thread(0);
    let mut rng = SplitMix64::new(41);

    // Warmup: grows every reusable buffer (descriptor tables, undo/redo
    // buffers, flush queues) to the workload's steady-state footprint and
    // crosses the undo log's half boundary at least once.
    for _ in 0..2_000 {
        let from = accounts.add(rng.next_below(accounts_n) * 8);
        let to = accounts.add(rng.next_below(accounts_n) * 8);
        thread.execute(&mut |ops| transfer(ops, from, to, allocating));
    }

    let before = thread_allocations();
    for _ in 0..10_000 {
        let from = accounts.add(rng.next_below(accounts_n) * 8);
        let to = accounts.add(rng.next_below(accounts_n) * 8);
        thread.execute(&mut |ops| transfer(ops, from, to, allocating));
    }
    let after = thread_allocations();

    assert_eq!(
        after - before,
        0,
        "{route}, {latency:?}, allocating {allocating}: engine hot path allocated {} times \
         over 10k steady-state transactions",
        after - before
    );

    crafty.quiesce();
    let total: u64 = (0..accounts_n).map(|i| mem.read(accounts.add(i * 8))).sum();
    assert_eq!(
        total,
        accounts_n * 1_000,
        "transfers must conserve the total"
    );
}
