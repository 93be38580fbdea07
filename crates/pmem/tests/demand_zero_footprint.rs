//! A simulated space costs the memory its workload touches, not its size.
//!
//! `MemorySpace::new` allocates its volatile view — with the per-line
//! lock, dirty-mask and flush-stamp tables behind it — and its persistent
//! image as demand-zero memory, and `crash` and `boot` store only non-zero
//! words, so a gigabyte-sized space whose workload writes a few hundred
//! pages is resident at a few megabytes, and so is every space a program
//! builds after dropping the one before. The property depends on the
//! optimiser (an unoptimised build runs the zero-to-atomic mapping loop
//! and touches every page), so this binary compiles to nothing outside
//! release builds, and it reads `/proc/self/status`, so it is Linux-only.
//! It holds one test: the harness runs the tests of one binary on parallel
//! threads, whose allocations would move the same counters, and the
//! rebuild check reads the peak (`VmHWM`), which must not have been raised
//! by the gigabyte check first.
#![cfg(all(not(debug_assertions), target_os = "linux"))]

use std::sync::Arc;

use crafty_common::{BreakdownRecorder, PAddr};
use crafty_htm::{HtmConfig, HtmRuntime};
use crafty_pmem::{MemorySpace, PmemConfig};

const MIB: u64 = 1 << 20;
const PAGE_BYTES: u64 = 4096;
const PAGE_WORDS: u64 = PAGE_BYTES / 8;
/// What building a space may add to the resident set, whatever its size:
/// the flush queues' rings.
const BOUND: u64 = 8 * MIB;
/// How far the peak may rise while spaces are rebuilt after the first.
const REBUILD_BOUND: u64 = 3 * MIB;

/// One `/proc/self/status` field (`VmRSS`, `VmHWM`) in bytes.
fn status_bytes(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} line"));
    kb * 1024
}

/// This process's resident set in bytes.
fn rss_bytes() -> u64 {
    status_bytes("VmRSS")
}

#[test]
fn a_space_is_resident_at_the_pages_its_workload_touched() {
    rebuilt_spaces_stay_demand_zero();
    a_gigabyte_space_is_resident_at_the_pages_its_workload_touched();
}

/// Builds a bank rig's space (32 MiB persistent, 8 MiB volatile: a
/// 53 MiB allocation of view and line tables, and a 32 MiB image) with
/// its HTM runtime, commits a few hundred transactions that each write
/// and flush a line of their own page, drains, drops both, and does it
/// again: after the first round, the peak resident set stays where it
/// was. Every round pays the same few hundred touched pages. Line tables
/// allocated on their own would fail this: each is under 32 MiB, so once
/// one is freed, glibc serves the next of that size from the heap and
/// `calloc` zeroes every page of it.
fn rebuilt_spaces_stay_demand_zero() {
    let cfg = PmemConfig {
        persistent_words: 1 << 22,
        volatile_words: 1 << 20,
        max_threads: 3,
        ..PmemConfig::small_for_tests()
    };
    let lines = 300u64;
    let round = || {
        let mem = Arc::new(MemorySpace::new(cfg));
        let htm = HtmRuntime::new(
            Arc::clone(&mem),
            HtmConfig::skylake(),
            Arc::new(BreakdownRecorder::new()),
        );
        let base = mem.reserve_persistent(lines * PAGE_WORDS);
        for i in 0..lines {
            let addr = base.add(i * PAGE_WORDS);
            let mut txn = htm.begin(0);
            let v = txn.read(addr).expect("uncontended read");
            txn.write(addr, v + i + 1).expect("uncontended write");
            txn.flush_on_commit(addr).expect("live transaction");
            txn.commit().expect("uncontended commit");
        }
        mem.drain(0);
        assert_eq!(
            mem.read_persisted(base.add((lines - 1) * PAGE_WORDS)),
            lines
        );
        assert_eq!(mem.stats().lines_persisted, lines);
    };
    round();
    let first = status_bytes("VmHWM");
    for _ in 0..5 {
        round();
    }
    let grew = status_bytes("VmHWM").saturating_sub(first);
    assert!(
        grew < REBUILD_BOUND,
        "five rebuilds of a space raised the peak resident set by {} KiB",
        grew / 1024
    );
}

fn a_gigabyte_space_is_resident_at_the_pages_its_workload_touched() {
    // 512 MiB persistent + 512 MiB volatile: a 1 GiB space, and 1.5 GiB
    // of word arrays (the view spans both regions; the image the first).
    let cfg = PmemConfig {
        persistent_words: 1 << 26,
        volatile_words: 1 << 26,
        ..PmemConfig::small_for_tests()
    };
    assert!(cfg.total_words() * 8 >= 1 << 30);

    let before = rss_bytes();
    let mem = MemorySpace::new(cfg);
    let built = rss_bytes();
    assert!(
        built.saturating_sub(before) < BOUND,
        "MemorySpace::new of a 1 GiB space raised VmRSS by {} MiB",
        built.saturating_sub(before) / MIB
    );

    // One word on each of `pages` consecutive pages, flushed and drained.
    let pages = 512u64;
    let base = mem.reserve_persistent(pages * PAGE_WORDS);
    let addr = |i: u64| base.add(i * PAGE_WORDS);
    for i in 0..pages {
        mem.write(addr(i), i + 1);
        mem.clwb(0, addr(i));
    }
    mem.drain(0);
    let written = rss_bytes();
    // Each write dirties one page of the volatile view and its drain one
    // of the persistent image; the line tables' touched pages (one dirty
    // mask and one flush stamp per line) are a few hundred KiB more.
    let touched = 2 * pages * PAGE_BYTES;
    let grew = written.saturating_sub(built);
    assert!(
        grew >= touched * 9 / 10 && grew < touched + BOUND,
        "writing one word on each of {pages} pages raised VmRSS by {} KiB \
         (expected about {} KiB)",
        grew / 1024,
        touched / 1024
    );

    // The crash image and the rebooted space's two views each hold the
    // same pages, and nothing else.
    let image = mem.crash();
    let booted = MemorySpace::boot(&image, cfg);
    let rebooted = rss_bytes();
    let grew = rebooted.saturating_sub(written);
    assert!(
        grew < 3 * pages * PAGE_BYTES + BOUND,
        "crash + boot raised VmRSS by {} KiB (expected about {} KiB)",
        grew / 1024,
        3 * pages * PAGE_BYTES / 1024
    );
    for i in 0..pages {
        assert_eq!(booted.read(addr(i)), i + 1);
        assert_eq!(booted.read_persisted(addr(i)), i + 1);
    }
    assert_eq!(booted.read(PAddr::new(cfg.total_words() - 1)), 0);
}
