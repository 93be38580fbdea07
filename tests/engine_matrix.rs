//! Cross-crate integration: run every engine configuration on every
//! workload family and check the invariants that hold regardless of engine
//! (transaction counts, workload invariants, durability after quiesce for
//! the durable engines).

use std::sync::Arc;

use crafty_common::CompletionPath;
use crafty_repro::prelude::*;
use crafty_repro::workloads::{
    run_mix, BankWorkload, BtreeVariant, BtreeWorkload, Contention, StampKernel, StampWorkload,
};

fn small_space(threads: usize) -> Arc<MemorySpace> {
    Arc::new(MemorySpace::new(PmemConfig {
        persistent_words: 1 << 19,
        volatile_words: 1 << 15,
        max_threads: threads + 2,
        latency: LatencyModel::instant(),
        crash: CrashModel::strict(),
        ..PmemConfig::small_for_tests()
    }))
}

#[test]
fn every_engine_completes_the_bank_workload_and_preserves_the_total() {
    let threads = 3;
    let txns = 120;
    for kind in EngineKind::ALL {
        let mem = small_space(threads);
        let engine = build_engine(kind, &mem, threads);
        let workload = BankWorkload {
            contention: Contention::High,
            transfers_per_txn: 5,
            initial_balance: 100,
            max_threads: threads,
        };
        let mix = Workload::prepare(&workload, &mem);
        run_mix(engine.as_ref(), mix.as_ref(), threads, txns, 3);
        mix.verify(&mem)
            .unwrap_or_else(|e| panic!("{}: {e}", kind.label()));
        let b = engine.breakdown();
        assert_eq!(
            b.total_persistent(),
            threads as u64 * txns,
            "{}: every transaction completes exactly once",
            kind.label()
        );
        // Table 1 is collected from the durable engines, which log every
        // persistent write; the Non-durable baseline does not track them.
        if kind != EngineKind::NonDurable {
            assert!(
                (b.writes_per_txn() - 10.0).abs() < 0.5,
                "{}: bank runs 10 writes per transaction, measured {:.2}",
                kind.label(),
                b.writes_per_txn()
            );
        }
    }
}

#[test]
fn every_engine_completes_the_btree_and_ssca2_workloads() {
    let threads = 2;
    for kind in EngineKind::ALL {
        for workload in [
            Box::new(BtreeWorkload {
                variant: BtreeVariant::Mixed,
                key_space: 1 << 12,
            }) as Box<dyn Workload>,
            Box::new(StampWorkload::new(StampKernel::Ssca2)),
        ] {
            let mem = small_space(threads);
            let engine = build_engine(kind, &mem, threads);
            let mix = workload.prepare(&mem);
            run_mix(engine.as_ref(), mix.as_ref(), threads, 100, 17);
            assert_eq!(
                engine.breakdown().total_persistent(),
                200,
                "{} on {}",
                kind.label(),
                workload.name()
            );
        }
    }
}

#[test]
fn durable_engines_survive_a_crash_after_quiesce() {
    let threads = 2;
    for kind in [EngineKind::Crafty, EngineKind::NvHtm, EngineKind::DudeTm] {
        let mem = small_space(threads);
        let engine = build_engine(kind, &mem, threads);
        let cell = mem.reserve_persistent(1);
        let mut t = engine.register_thread(0);
        for _ in 0..25 {
            t.execute(&mut |ops| {
                let v = ops.read(cell)?;
                ops.write(cell, v + 1)?;
                Ok(())
            });
        }
        drop(t);
        engine.quiesce();
        assert!(engine.is_durable(), "{}", kind.label());
        let image = mem.crash();
        assert_eq!(
            image.read(cell),
            25,
            "{}: quiesced state must survive a crash",
            kind.label()
        );
    }
}

#[test]
fn crafty_breakdown_distinguishes_commit_paths_under_contention() {
    let threads = 4;
    let mem = small_space(threads);
    let engine = build_engine(EngineKind::Crafty, &mem, threads);
    let workload = BankWorkload {
        contention: Contention::High,
        transfers_per_txn: 2,
        initial_balance: 100,
        max_threads: threads,
    };
    let mix = Workload::prepare(&workload, &mem);
    run_mix(engine.as_ref(), mix.as_ref(), threads, 250, 23);
    let b = engine.breakdown();
    assert!(
        b.completions(CompletionPath::Redo) > 0,
        "redo path must be exercised"
    );
    let non_redo = b.completions(CompletionPath::Validate) + b.completions(CompletionPath::Sgl);
    assert!(
        b.completions(CompletionPath::Redo) + non_redo == 1000,
        "all updating transactions commit through exactly one path"
    );
    // A transaction only leaves the Redo path after a failed check, which
    // aborts a hardware transaction — so non-Redo completions imply aborts.
    // The converse is scheduling-dependent: on a single core the threads
    // can serialize so perfectly that no conflict ever materializes, so
    // zero aborts with 100% Redo completions is a legitimate outcome.
    assert!(
        non_redo == 0 || b.total_hw_aborts() > 0,
        "non-Redo completions require hardware aborts"
    );
}

/// A body that frees a block and then aborts on its first run is run again
/// by every engine, on the hardware route and on Crafty's forced software
/// route. Only the run that commits may free the block, so the next two
/// allocations of its size are the block and a fresh one.
#[test]
fn a_retried_body_frees_once() {
    let mut engines: Vec<(&str, Box<dyn PersistentTm>)> = EngineKind::ALL
        .iter()
        .map(|&kind| (kind.label(), build_engine(kind, &small_space(1), 1)))
        .collect();
    let forced = CraftyConfig::small_for_tests()
        .with_max_threads(1)
        .with_force_fallback(true);
    let engine = Crafty::new(small_space(1), forced);
    engines.push(("Crafty, forced software commit", Box::new(engine)));

    for (label, engine) in &engines {
        let mut t = engine.register_thread(0);
        let block = alloc_block(t.as_mut());
        let mut runs = 0;
        t.execute(&mut |ops| {
            runs += 1;
            ops.dealloc(block, 20)?;
            if runs == 1 {
                return Err(TxAbort::inconsistent());
            }
            Ok(())
        });
        assert!(runs >= 2, "{label}: the aborted body was not run again");
        let (first, second) = (alloc_block(t.as_mut()), alloc_block(t.as_mut()));
        assert_eq!(first, block, "{label}: the freed block is reused first");
        assert_ne!(second, block, "{label}: the block was freed twice");
    }
}

/// Allocates one three-line block in a transaction of its own.
fn alloc_block(t: &mut dyn TmThread) -> PAddr {
    let mut got = PAddr::NULL;
    t.execute(&mut |ops| {
        got = ops.alloc(20)?;
        Ok(())
    });
    got
}
