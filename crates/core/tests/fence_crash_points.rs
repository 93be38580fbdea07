//! A persist fence must not tear another thread's last commit.
//!
//! `persist_fence` appends a refresh sequence to every thread's log. Once
//! a refresh is a log's latest sequence, recovery stops rolling back the
//! sequence before it, so that sequence's in-place writes must be durable
//! before the refresh is. The fence makes them durable on the fencing
//! thread's own flush queue, then appends the refresh; the owner's queue,
//! which only the owner drains, is left alone.
//!
//! The rig is deterministic on one OS thread: logical threads 1.. each
//! commit one transfer (100/0 → 90/10) on two accounts of their own, then
//! thread 0 fences. A crash at every fault-clock step of the fence, under
//! the strict model and sixteen relaxed seeds, must recover every pair
//! of accounts to 100/0 or 90/10, and to 90/10 once the fence is done.

use std::sync::Arc;

use crafty_common::{PAddr, PersistentTm, WORDS_PER_LINE};
use crafty_core::{recover, Crafty, CraftyConfig};
use crafty_pmem::{CrashModel, FaultPlan, MemorySpace, PersistentImage, PmemConfig};

/// One run of the rig: the fence's fault-clock window and, if the plan
/// named a step, the image captured there.
struct FenceRun {
    /// Fault-clock value right before the fence.
    fence_from: u64,
    /// Fault-clock value when the fence returned.
    fence_to: u64,
    dir: PAddr,
    base: PAddr,
    image: Option<PersistentImage>,
}

/// Thread `t`'s account `i` (0: pays, 1: is paid), each on its own line.
fn account(base: PAddr, t: usize, i: u64) -> PAddr {
    base.add((2 * t as u64 + i) * WORDS_PER_LINE)
}

fn run(threads: usize, plan: FaultPlan) -> FenceRun {
    let mem = Arc::new(MemorySpace::new(
        PmemConfig::small_for_tests().with_fault_plan(plan),
    ));
    let crafty = Crafty::new(
        Arc::clone(&mem),
        CraftyConfig::small_for_tests().with_max_threads(threads),
    );
    let base = mem.reserve_persistent(2 * threads as u64 * WORDS_PER_LINE);
    for t in 1..threads {
        mem.write(account(base, t, 0), 100);
        mem.persist(0, account(base, t, 0));
    }
    for t in 1..threads {
        let (from, to) = (account(base, t, 0), account(base, t, 1));
        crafty.register_thread(t).execute(&mut |ops| {
            let a = ops.read(from)?;
            ops.write(from, a - 10)?;
            let b = ops.read(to)?;
            ops.write(to, b + 10)
        });
    }
    let pending: Vec<usize> = (1..threads).map(|t| mem.pending_flushes(t)).collect();
    assert!(
        pending.iter().all(|&p| p > 0),
        "each commit leaves its write-backs queued"
    );
    let fence_from = mem.fault_steps();
    crafty.persist_fence(0);
    let fence_to = mem.fault_steps();
    assert_eq!(
        (1..threads)
            .map(|t| mem.pending_flushes(t))
            .collect::<Vec<_>>(),
        pending,
        "the fence drains no other thread's queue"
    );
    FenceRun {
        fence_from,
        fence_to,
        dir: crafty.directory_addr(),
        base,
        image: mem.take_fault_image(),
    }
}

/// Crashes at every step of the fence under every model and counts the
/// recovered images with a torn pair of accounts, or with a pair the
/// finished fence should have kept at 90/10.
fn torn_images(threads: usize) -> usize {
    let count = run(threads, FaultPlan::count_only());
    assert!(count.fence_to > count.fence_from, "the fence persists");
    let models = std::iter::once(CrashModel::strict()).chain((0..16).map(CrashModel::relaxed));
    let mut torn = 0;
    for model in models {
        for step in count.fence_from + 1..=count.fence_to {
            let crashed = run(threads, FaultPlan::crash_at(step, model));
            let mut image = crashed.image.expect("the fence reaches every step");
            recover(&mut image, crashed.dir).expect("recovery");
            let bad = (1..threads).any(|t| {
                let pair = (
                    image.read(account(crashed.base, t, 0)),
                    image.read(account(crashed.base, t, 1)),
                );
                let done = step == count.fence_to;
                pair != (90, 10) && (done || pair != (100, 0))
            });
            torn += usize::from(bad);
        }
    }
    torn
}

#[test]
fn a_fence_keeps_another_threads_last_commit_whole() {
    assert_eq!(torn_images(2), 0);
}

#[test]
fn a_fence_keeps_every_other_threads_last_commit_whole() {
    for threads in [3, 4] {
        assert_eq!(torn_images(threads), 0, "{threads} logical threads");
    }
}
