//! Deadlock-freedom and lost-update stress for the per-line software
//! fallback under real multi-thread contention.
//!
//! Every transaction is forced through the fallback
//! ([`CraftyConfig::with_force_fallback`]) while several threads run
//! zipfian-skewed transfers over a shared account array, and some
//! transactions also bump one hot global counter. Two inputs:
//!
//! * **Hot spot** — 16 accounts and every transaction bumps the counter,
//!   so every lock set overlaps every other one.
//! * **Mostly disjoint** — 256 accounts and one transaction in 16 bumps
//!   the counter, so most per-line lock sets are disjoint and per-line
//!   fallbacks really commit concurrently, with a guaranteed-overlapping
//!   line still in the mix.
//!
//! What must hold on both:
//!
//! * **Liveness** — every thread completes its bounded transaction count.
//!   The fallback's sorted lock acquisition cannot deadlock against
//!   other fallbacks, and its validation-failure retries always have a
//!   committed conflictor; the test finishing at all is the assertion (a
//!   deadlock or livelock hangs it).
//! * **Zero lost updates** — the hot counter equals the number of
//!   transactions that bumped it exactly, and conservation of money holds
//!   over the accounts.
//! * **Durability** — the same invariants hold in the recovered image of a
//!   post-quiesce crash.

use std::sync::Arc;

use crafty_common::{PersistentTm, SplitMix64, Zipfian};
use crafty_core::{recover, Crafty, CraftyConfig};
use crafty_pmem::{LatencyModel, MemorySpace, PmemConfig};

const INITIAL: u64 = 1_000;
const THREADS: usize = 4;
const TXNS_PER_THREAD: u64 = 150;

/// Runs the forced-fallback transfer mix over `accounts` accounts, every
/// `hot_every`-th transaction of a thread also bumping the hot counter,
/// and audits the live state and the recovered crash image.
fn run_contention(accounts: u64, hot_every: u64) {
    let mem = Arc::new(MemorySpace::new(PmemConfig {
        persistent_words: 1 << 16,
        volatile_words: 1 << 14,
        latency: LatencyModel::instant(),
        ..PmemConfig::small_for_tests()
    }));
    let engine = Arc::new(Crafty::new(
        Arc::clone(&mem),
        CraftyConfig::small_for_tests()
            .with_max_threads(THREADS)
            .with_force_fallback(true),
    ));
    let base = mem.reserve_persistent(accounts * 8);
    for i in 0..accounts {
        mem.write(base.add(i * 8), INITIAL);
        mem.clwb(0, base.add(i * 8));
    }
    let hot = mem.reserve_persistent(1);
    mem.write(hot, 0);
    mem.clwb(0, hot);
    mem.drain(0);

    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let engine = Arc::clone(&engine);
            s.spawn(move || {
                // Zipfian-skewed picks concentrate the write sets on a few
                // hot accounts, so overlapping lock sets happen by design,
                // not by coincidence.
                let zipf = Zipfian::new(accounts, 0.9);
                let mut rng = SplitMix64::new(0xC0_47E4_7104 ^ tid as u64);
                let mut thread = engine.register_thread(tid);
                for i in 0..TXNS_PER_THREAD {
                    let from = zipf.sample(&mut rng);
                    let to = zipf.sample(&mut rng);
                    let amount = rng.next_below(9) + 1;
                    let bump_hot = i % hot_every == 0;
                    thread.execute(&mut |ops| {
                        let a = base.add(from * 8);
                        let b = base.add(to * 8);
                        let va = ops.read(a)?;
                        ops.write(a, va.wrapping_sub(amount))?;
                        let vb = ops.read(b)?;
                        ops.write(b, vb.wrapping_add(amount))?;
                        if bump_hot {
                            let h = ops.read(hot)?;
                            ops.write(hot, h + 1)?;
                        }
                        Ok(())
                    });
                }
            });
        }
    });
    engine.quiesce();

    let expected_hot = THREADS as u64 * TXNS_PER_THREAD.div_ceil(hot_every);
    assert_eq!(
        mem.read(hot),
        expected_hot,
        "[{accounts} accounts] lost or duplicated hot-counter updates"
    );
    let total: u64 = (0..accounts)
        .map(|i| mem.read(base.add(i * 8)))
        .fold(0u64, |s, v| s.wrapping_add(v));
    assert_eq!(
        total,
        accounts * INITIAL,
        "[{accounts} accounts] conservation of money violated"
    );

    // The same invariants must be durable: crash after quiesce, recover,
    // and audit the image.
    let mut image = mem.crash();
    recover(&mut image, engine.directory_addr()).expect("recovery succeeds");
    assert_eq!(
        image.read(hot),
        expected_hot,
        "[{accounts} accounts] recovered hot counter diverged"
    );
    let recovered_total: u64 = (0..accounts)
        .map(|i| image.read(base.add(i * 8)))
        .fold(0u64, |s, v| s.wrapping_add(v));
    assert_eq!(
        recovered_total,
        accounts * INITIAL,
        "[{accounts} accounts] recovered image broke conservation"
    );
}

/// The per-line fallback: overlapping sorted lock acquisitions across 4
/// threads must neither deadlock nor lose an update.
#[test]
fn per_line_fallback_contention_is_live_and_exact() {
    run_contention(16, 1);
}

/// The per-line fallback where its lock sets are mostly disjoint, so
/// fallbacks overlap in time instead of queueing on one line.
#[test]
fn per_line_fallback_mostly_disjoint_is_live_and_exact() {
    run_contention(256, 16);
}
