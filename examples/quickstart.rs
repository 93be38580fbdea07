//! Quickstart: run durable transactions with Crafty, crash, and recover.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use crafty_repro::prelude::*;

fn main() {
    // 1. A simulated persistent heap (DRAM-emulated NVM, 300 ns drains) and
    //    a Crafty engine providing full ACID persistent transactions.
    let mem = Arc::new(MemorySpace::new(PmemConfig::benchmark()));
    let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::benchmark(4));

    // 2. Persistent application state: a counter and a small array.
    let counter = mem.reserve_persistent(1);
    let history = mem.reserve_persistent(16);

    // 3. Run persistent transactions from a few threads.
    std::thread::scope(|s| {
        for tid in 0..4 {
            let crafty = &crafty;
            s.spawn(move || {
                let mut thread = crafty.register_thread(tid);
                for _ in 0..1_000 {
                    thread.execute(&mut |ops| {
                        let v = ops.read(counter)?;
                        ops.write(counter, v + 1)?;
                        ops.write(history.add(v % 16), v)?;
                        Ok(())
                    });
                }
            });
        }
    });

    println!(
        "counter after 4 threads x 1000 transactions: {}",
        mem.read(counter)
    );
    let breakdown = crafty.breakdown();
    println!(
        "commit paths — redo: {}, validate: {}, software: {}, read-only: {}",
        breakdown.completions(CompletionPath::Redo),
        breakdown.completions(CompletionPath::Validate),
        breakdown.completions(CompletionPath::Sgl),
        breakdown.completions(CompletionPath::ReadOnly),
    );

    // 4. Crash (dirty state resolves per the crash model), then run the
    //    recovery observer and inspect the recovered state.
    let mut image = mem.crash();
    let report = crafty_repro::core::recover(&mut image, crafty.directory_addr())
        .expect("recovery over a Crafty heap");
    println!(
        "recovery rolled back {} sequences ({} undo entries); recovered counter = {}",
        report.sequences_rolled_back,
        report.entries_rolled_back,
        image.read(counter)
    );
    assert!(image.read(counter) <= 4_000);
}
