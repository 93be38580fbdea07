//! A simulated space costs the memory its workload touches, not its size.
//!
//! `MemorySpace::new` allocates its volatile view and persistent image as
//! demand-zero memory, and `crash` and `boot` store only non-zero words, so
//! a gigabyte-sized space whose workload writes a few hundred pages is
//! resident at a few megabytes. The property depends on the optimiser (an
//! unoptimised build runs the zero-to-atomic mapping loop and touches every
//! page), so this binary compiles to nothing outside release builds, and it
//! reads `VmRSS`, so it is Linux-only. It holds one test: the harness runs
//! the tests of one binary on parallel threads, whose allocations would
//! move the same counter.
#![cfg(all(not(debug_assertions), target_os = "linux"))]

use crafty_common::PAddr;
use crafty_pmem::{MemorySpace, PmemConfig};

const MIB: u64 = 1 << 20;
const PAGE_BYTES: u64 = 4096;
const PAGE_WORDS: u64 = PAGE_BYTES / 8;
/// What building a space may add to the resident set, whatever its size:
/// the flush queues' rings and the lazy metadata arrays' segment tables.
const BOUND: u64 = 8 * MIB;

/// This process's resident set in bytes (`VmRSS`).
fn rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line");
    kb * 1024
}

#[test]
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
    // of the persistent image; the touched metadata segments (dirty masks,
    // dedup stamps) are a few hundred KiB more.
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
