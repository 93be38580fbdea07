//! The paper's motivating scenario end to end: concurrent bank transfers on
//! persistent memory, a power failure in the middle of the run, recovery,
//! and an invariant check on the recovered state.
//!
//! The crash model is adversarial: unflushed cache lines may or may not
//! have reached persistent memory, word by word. Without Crafty's
//! nondestructive undo logging the recovered bank would be unbalanced.
//!
//! ```text
//! cargo run --release --example bank_crash_recovery
//! ```

use std::sync::Arc;

use crafty_repro::prelude::*;
use crafty_repro::workloads::{drive, BankWorkload, Contention};

fn main() {
    let threads = 4usize;
    let cfg = PmemConfig::benchmark().with_crash(CrashModel::adversarial(0xC4A5));
    let mem = Arc::new(MemorySpace::new(cfg));
    let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::benchmark(threads));

    let workload = BankWorkload::paper(Contention::High, threads);
    let mix = workload.prepare(&mem);
    drive(&crafty, mix.as_ref(), threads, 3_000, 99);

    // Note: no quiesce — the "power failure" interrupts steady state.
    println!("crash! resolving dirty lines per the adversarial crash model...");
    let mut image = mem.crash();
    let report =
        crafty_repro::core::recover(&mut image, crafty.directory_addr()).expect("recovery");
    println!(
        "recovery scanned {} logs, found {} sequences, rolled back {} ({} entries)",
        report.threads_scanned,
        report.sequences_found,
        report.sequences_rolled_back,
        report.entries_rolled_back
    );

    // Check the invariant on the *recovered* image by booting it: the mix
    // reads its accounts at the addresses it reserved in the first life.
    if let Err(violation) = mix.verify(&MemorySpace::boot(&image, cfg)) {
        eprintln!("recovered bank is corrupt: {violation}");
        std::process::exit(1);
    }
    println!("recovered bank verified: every transfer is all-or-nothing");
}
