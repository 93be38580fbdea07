//! A miniature version of the paper's Figure 6: run the bank benchmark on
//! every engine (Non-durable, DudeTM, NV-HTM, Crafty and its two ablation
//! variants) and print the normalized-throughput table.
//!
//! ```text
//! cargo run --release --example engine_shootout [threads...]
//! ```

use crafty_bench::{render_figure, run_point, HarnessConfig};
use crafty_repro::prelude::*;
use crafty_repro::workloads::{BankWorkload, Contention};

fn main() {
    let thread_counts: Vec<usize> = {
        let args: Vec<usize> = std::env::args()
            .skip(1)
            .filter_map(|a| a.parse().ok())
            .collect();
        if args.is_empty() {
            vec![1, 2, 4]
        } else {
            args
        }
    };
    let cfg = HarnessConfig {
        thread_counts,
        ..HarnessConfig::quick()
    };
    let workload =
        BankWorkload::paper(Contention::Medium, *cfg.thread_counts.iter().max().unwrap());

    let mut points = Vec::new();
    for kind in EngineKind::ALL {
        for &threads in &cfg.thread_counts {
            let p = run_point(&workload, kind, threads, &cfg);
            println!(
                "{:<18} {:>2} threads: {:>10.0} txn/s",
                kind.label(),
                threads,
                p.throughput()
            );
            points.push(p);
        }
    }

    let (table, _csv) = render_figure(workload.contention.label(), &points);
    println!();
    println!("{table}");
    println!("(values normalized to single-thread Non-durable, as in the paper)");
}
