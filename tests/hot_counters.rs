//! Lost-update stress for the hardware path under real contention: two
//! threads, every transaction read-increments the same four persistent
//! words, and the sums must come out exact.
//!
//! This is the test the commit order of `HwTxn::commit` answers to. The
//! Log transaction rolls its writes back and commits them as *reads*
//! (validated, not locked), and the Redo phase's only conflict test is
//! `gLastRedoTS >= log_commit_version`. That is sound only if the Log
//! commit draws its version *before* it validates: drawn after, a
//! concurrent Redo can publish between the two, receive the smaller
//! version, and the check passes over a stale snapshot — a few increments
//! in a million vanish, on every configuration that runs Redo, while every
//! other test in the workspace stays green. `CraftyVariant::NoRedo`
//! commits through Validate (which re-reads the data) and is the control.

use std::sync::Arc;

use crafty_common::{PAddr, PersistentTm};
use crafty_core::{Crafty, CraftyConfig, CraftyVariant};
use crafty_htm::HtmConfig;
use crafty_pmem::{LatencyModel, MemorySpace, PmemConfig};

const THREADS: usize = 2;
const WORDS: u64 = 4;
/// Transactions per thread: enough in release for the validate-then-draw
/// window (a few lost updates per million) to be hit in every run; a count
/// that keeps an unoptimised build quick.
const TXNS_PER_THREAD: u64 = if cfg!(debug_assertions) {
    100_000
} else {
    300_000
};

fn hammer(label: &str, cfg: CraftyConfig, htm: HtmConfig) {
    let mem = Arc::new(MemorySpace::new(PmemConfig {
        persistent_words: 1 << 16,
        volatile_words: 1 << 14,
        latency: LatencyModel::instant(),
        ..PmemConfig::small_for_tests()
    }));
    let cfg = cfg.with_max_threads(THREADS).with_undo_log_entries(1 << 12);
    let engine = Crafty::with_htm_config(Arc::clone(&mem), cfg, htm);
    // One word per cache line: four lines every transaction contends on.
    let base = mem.reserve_persistent(WORDS * 8);
    let word = |i: u64| -> PAddr { base.add((i % WORDS) * 8) };

    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let engine = &engine;
            s.spawn(move || {
                let mut thread = engine.register_thread(tid);
                for n in 0..TXNS_PER_THREAD {
                    // Rotating order, opposite phase per thread, so lock
                    // and validation orders differ between the two.
                    let first = n + 2 * tid as u64;
                    thread.execute(&mut |ops| {
                        for i in 0..WORDS {
                            let at = word(first + i);
                            let v = ops.read(at)?;
                            ops.write(at, v + 1)?;
                        }
                        Ok(())
                    });
                }
            });
        }
    });
    engine.quiesce();

    let expected = THREADS as u64 * TXNS_PER_THREAD;
    let sums: Vec<u64> = (0..WORDS).map(|i| mem.read(word(i))).collect();
    assert_eq!(
        sums,
        vec![expected; WORDS as usize],
        "[{label}] lost or duplicated increments"
    );
}

fn injected_aborts() -> HtmConfig {
    HtmConfig::skylake()
        .with_zero_aborts(0.5, 11)
        .with_abort_storm(48, 512, 11)
}

#[test]
fn default_configuration_loses_no_increment() {
    hammer(
        "per-line",
        CraftyConfig::small_for_tests(),
        HtmConfig::skylake(),
    );
}

#[test]
fn injected_aborts_lose_no_increment_per_line() {
    hammer(
        "per-line, injected aborts",
        CraftyConfig::small_for_tests(),
        injected_aborts(),
    );
}

#[test]
fn no_redo_variant_loses_no_increment() {
    let cfg = CraftyConfig::small_for_tests().with_variant(CraftyVariant::NoRedo);
    hammer("no-redo", cfg, HtmConfig::skylake());
}
