//! End-to-end behaviour of the Crafty engine: phase selection, atomicity,
//! durability, ablation variants, and crash recovery.

use std::sync::Arc;

use crafty_common::trace::{self, TraceLevel, TxnPhase};
use crafty_common::{CompletionPath, PAddr, PersistentTm, TxAbort, TxnOps};
use crafty_core::{recover, Crafty, CraftyConfig, CraftyVariant};
use crafty_htm::HtmConfig;
use crafty_pmem::{CrashModel, MemorySpace, PmemConfig};

fn small_mem() -> Arc<MemorySpace> {
    Arc::new(MemorySpace::new(PmemConfig::small_for_tests()))
}

fn transfer(ops: &mut dyn TxnOps, from: PAddr, to: PAddr, amount: u64) -> Result<(), TxAbort> {
    // Sequential read-modify-write so that `from == to` is a harmless no-op.
    let a = ops.read(from)?;
    ops.write(from, a.wrapping_sub(amount))?;
    let b = ops.read(to)?;
    ops.write(to, b.wrapping_add(amount))?;
    Ok(())
}

#[test]
fn single_thread_updates_commit_via_redo() {
    let mem = small_mem();
    let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests());
    let cell = mem.reserve_persistent(1);
    let mut thread = crafty.register_thread(0);
    for _ in 0..100 {
        thread.execute(&mut |ops| {
            let v = ops.read(cell)?;
            ops.write(cell, v + 1)?;
            Ok(())
        });
    }
    assert_eq!(mem.read(cell), 100);
    let b = crafty.breakdown();
    assert_eq!(b.completions(CompletionPath::Redo), 100);
    assert_eq!(b.completions(CompletionPath::Validate), 0);
    assert_eq!(b.completions(CompletionPath::Sgl), 0);
    assert!((b.writes_per_txn() - 1.0).abs() < 1e-9);
}

#[test]
fn read_only_transactions_skip_redo_and_validate() {
    let mem = small_mem();
    let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests());
    let cell = mem.reserve_persistent(1);
    mem.write(cell, 42);
    let mut thread = crafty.register_thread(0);
    let mut seen = 0;
    thread.execute(&mut |ops| {
        seen = ops.read(cell)?;
        Ok(())
    });
    assert_eq!(seen, 42);
    let b = crafty.breakdown();
    assert_eq!(b.total_persistent(), 1);
    assert_eq!(b.completions(CompletionPath::ReadOnly), 1);
    assert_eq!(
        crafty.g_last_redo_ts(),
        0,
        "read-only transactions never advance gLastRedoTS"
    );
}

#[test]
fn concurrent_transfers_preserve_the_total_balance() {
    let mem = small_mem();
    let crafty = Arc::new(Crafty::new(
        Arc::clone(&mem),
        CraftyConfig::small_for_tests(),
    ));
    let accounts = 16u64;
    let base = mem.reserve_persistent(accounts);
    for i in 0..accounts {
        mem.write(base.add(i), 1000);
    }
    let threads = 4;
    let txns_per_thread = 300;
    std::thread::scope(|s| {
        for tid in 0..threads {
            let crafty = Arc::clone(&crafty);
            s.spawn(move || {
                let mut handle = crafty.register_thread(tid);
                let mut rng = crafty_common::SplitMix64::new(tid as u64 + 1);
                for _ in 0..txns_per_thread {
                    let from = base.add(rng.next_below(accounts));
                    let to = base.add(rng.next_below(accounts));
                    handle.execute(&mut |ops| transfer(ops, from, to, 1));
                }
            });
        }
    });
    crafty.quiesce();
    let total: u64 = (0..accounts).map(|i| mem.read(base.add(i))).sum();
    assert_eq!(total, accounts * 1000, "transfers must conserve the total");
    let b = crafty.breakdown();
    assert_eq!(
        b.total_persistent(),
        (threads * txns_per_thread) as u64,
        "every transaction must complete exactly once"
    );
}

#[test]
fn contention_exercises_the_validate_path() {
    // A sizable drain latency keeps each thread spinning in the drain that
    // `begin` issues between its Log commit and its Redo phase — exactly the
    // window in which another thread's commit makes the conservative
    // gLastRedoTS check fail. Without it a single-core host almost never
    // preempts inside that window and every transaction commits via Redo.
    let mem = Arc::new(MemorySpace::new(
        PmemConfig::small_for_tests().with_latency(crafty_pmem::LatencyModel {
            drain_ns: 30_000,
            ..crafty_pmem::LatencyModel::instant()
        }),
    ));
    let crafty = Arc::new(Crafty::new(
        Arc::clone(&mem),
        CraftyConfig::small_for_tests(),
    ));
    // Each thread hammers its own cell on its own cache line: no true data
    // conflicts (and no HTM line conflicts), but gLastRedoTS advances
    // constantly, so Redo's conservative check fails and Validate succeeds
    // (the scenario of Figure 6(c) in the paper). A thousand transactions
    // per thread: at two hundred, on two cores shared with the binary's
    // other tests, the four runs sometimes never overlapped and about one
    // run in ten saw no Validate at all.
    let threads = 4;
    let cells = mem.reserve_persistent(threads as u64 * crafty_common::WORDS_PER_LINE);
    std::thread::scope(|s| {
        for tid in 0..threads {
            let crafty = Arc::clone(&crafty);
            s.spawn(move || {
                let mut handle = crafty.register_thread(tid);
                let cell = cells.add(tid as u64 * crafty_common::WORDS_PER_LINE);
                for _ in 0..1000 {
                    handle.execute(&mut |ops| {
                        let v = ops.read(cell)?;
                        ops.write(cell, v + 1)?;
                        Ok(())
                    });
                }
            });
        }
    });
    for tid in 0..threads {
        assert_eq!(
            mem.read(cells.add(tid as u64 * crafty_common::WORDS_PER_LINE)),
            1000
        );
    }
    let b = crafty.breakdown();
    assert!(
        b.completions(CompletionPath::Validate) > 0,
        "expected some transactions to commit through Validate; breakdown: redo={} validate={} software={}",
        b.completions(CompletionPath::Redo),
        b.completions(CompletionPath::Validate),
        b.completions(CompletionPath::Sgl)
    );
}

#[test]
fn no_redo_variant_commits_through_validate() {
    let mem = small_mem();
    let cfg = CraftyConfig::small_for_tests().with_variant(CraftyVariant::NoRedo);
    let crafty = Crafty::new(Arc::clone(&mem), cfg);
    let cell = mem.reserve_persistent(1);
    let mut thread = crafty.register_thread(0);
    for _ in 0..50 {
        thread.execute(&mut |ops| {
            let v = ops.read(cell)?;
            ops.write(cell, v + 1)?;
            Ok(())
        });
    }
    assert_eq!(mem.read(cell), 50);
    let b = crafty.breakdown();
    assert_eq!(b.completions(CompletionPath::Redo), 0);
    assert_eq!(b.completions(CompletionPath::Validate), 50);
}

#[test]
fn no_validate_variant_still_completes_under_contention() {
    let mem = small_mem();
    let cfg = CraftyConfig::small_for_tests().with_variant(CraftyVariant::NoValidate);
    let crafty = Arc::new(Crafty::new(Arc::clone(&mem), cfg));
    let counter = mem.reserve_persistent(1);
    let threads = 3;
    let per_thread = 150;
    std::thread::scope(|s| {
        for tid in 0..threads {
            let crafty = Arc::clone(&crafty);
            s.spawn(move || {
                let mut handle = crafty.register_thread(tid);
                for _ in 0..per_thread {
                    handle.execute(&mut |ops| {
                        let v = ops.read(counter)?;
                        ops.write(counter, v + 1)?;
                        Ok(())
                    });
                }
            });
        }
    });
    assert_eq!(mem.read(counter), (threads * per_thread) as u64);
    assert_eq!(crafty.breakdown().completions(CompletionPath::Validate), 0);
}

#[test]
fn transactional_allocation_builds_a_persistent_list() {
    let mem = small_mem();
    let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests());
    // head -> node(value, next) -> ...
    let head = mem.reserve_persistent(1);
    let mut thread = crafty.register_thread(0);
    for value in 1..=20u64 {
        thread.execute(&mut |ops| {
            let node = ops.alloc(2)?;
            ops.write(node, value)?;
            let old_head = ops.read(head)?;
            ops.write(node.add(1), old_head)?;
            ops.write(head, node.word())?;
            Ok(())
        });
    }
    // Walk the list non-transactionally.
    let mut seen = Vec::new();
    let mut nodes = Vec::new();
    let mut cursor = mem.read(head);
    while cursor != 0 {
        nodes.push(cursor);
        seen.push(mem.read(PAddr::new(cursor)));
        cursor = mem.read(PAddr::new(cursor).add(1));
    }
    assert_eq!(seen, (1..=20u64).rev().collect::<Vec<_>>());
    // Free them all in one transaction.
    thread.execute(&mut |ops| {
        let mut cursor = ops.read(head)?;
        while cursor != 0 {
            let node = PAddr::new(cursor);
            cursor = ops.read(node.add(1))?;
            ops.dealloc(node, 2)?;
        }
        ops.write(head, 0)?;
        Ok(())
    });
    // Twenty allocations hand back exactly the freed nodes, and bump
    // nothing.
    let cursor_word = crafty.heap().header();
    let used = mem.read(cursor_word);
    let mut again = Vec::new();
    for _ in 0..20 {
        thread.execute(&mut |ops| {
            let node = ops.alloc(2)?;
            again.push(node.word());
            Ok(())
        });
    }
    nodes.sort_unstable();
    again.sort_unstable();
    assert_eq!(again, nodes);
    assert_eq!(
        mem.read(cursor_word),
        used,
        "reuse must not move the cursor"
    );
}

/// The Validate phase re-executes the body over the header the Log phase
/// rolled back, so its allocations are the Log phase's, in order.
#[test]
fn validate_reexecution_gets_the_log_phase_addresses() {
    let mem = small_mem();
    let crafty = Crafty::new(
        Arc::clone(&mem),
        CraftyConfig::small_for_tests().with_variant(CraftyVariant::NoRedo),
    );
    let mut thread = crafty.register_thread(0);
    let mut runs: Vec<(PAddr, PAddr)> = Vec::new();
    thread.execute(&mut |ops| {
        let first = ops.alloc(4)?;
        let second = ops.alloc(12)?;
        ops.write(first, 1)?;
        ops.write(second, 2)?;
        runs.push((first, second));
        Ok(())
    });
    let b = crafty.breakdown();
    assert_eq!(b.completions(CompletionPath::Validate), 1);
    assert_eq!(runs.len(), 2, "a Log run and a Validate run");
    assert_eq!(runs[0], runs[1]);
    let (first, second) = runs[0];
    assert_eq!(second, first.add(8));
    assert_eq!(
        mem.read(crafty.heap().header()),
        3 * 8,
        "three lines bumped once"
    );
}

#[test]
fn concurrent_allocations_do_not_overlap() {
    let mem = small_mem();
    let crafty = Crafty::new(
        Arc::clone(&mem),
        CraftyConfig::small_for_tests().with_max_threads(4),
    );
    let per_thread = 100;
    let addrs: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..4)
            .map(|tid| {
                let crafty = &crafty;
                s.spawn(move || {
                    let mut thread = crafty.register_thread(tid);
                    let mut mine = Vec::new();
                    for i in 0..per_thread {
                        let mut got = PAddr::NULL;
                        thread.execute(&mut |ops| {
                            got = ops.alloc(3)?;
                            // Every tenth block goes straight back, so the
                            // free list is contended as well as the cursor.
                            if i % 10 == 9 {
                                ops.dealloc(got, 3)?;
                            }
                            Ok(())
                        });
                        if i % 10 != 9 {
                            mine.push(got.word());
                        }
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut all: Vec<u64> = addrs.into_iter().flatten().collect();
    let held = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), held, "a block was handed out twice");
}

#[test]
fn committed_and_quiesced_state_survives_a_strict_crash() {
    let mem = small_mem();
    let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests());
    let cell = mem.reserve_persistent(1);
    let mut thread = crafty.register_thread(0);
    for _ in 0..10 {
        thread.execute(&mut |ops| {
            let v = ops.read(cell)?;
            ops.write(cell, v + 1)?;
            Ok(())
        });
    }
    crafty.quiesce();
    let mut image = mem.crash();
    let report = recover(&mut image, crafty.directory_addr()).expect("recovery");
    assert_eq!(image.read(cell), 10, "quiesced state must survive in full");
    assert_eq!(
        report.entries_rolled_back, 0,
        "empty latest sequences roll back nothing"
    );
}

#[test]
fn crash_without_quiesce_recovers_a_consistent_prefix() {
    let mem = small_mem();
    let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests());
    let a = mem.reserve_persistent(1);
    let b = mem.reserve_persistent(1);
    mem.write(a, 500);
    mem.write(b, 500);
    mem.persist(0, a);
    mem.persist(0, b);
    let mut thread = crafty.register_thread(0);
    for _ in 0..50 {
        thread.execute(&mut |ops| transfer(ops, a, b, 1));
    }
    // No quiesce: crash in the middle of steady state.
    let mut image = mem.crash();
    recover(&mut image, crafty.directory_addr()).expect("recovery");
    let total = image.read(a) + image.read(b);
    assert_eq!(total, 1000, "recovered state must preserve the invariant");
    assert!(image.read(b) >= 500 && image.read(b) <= 550);
}

#[test]
fn persist_now_makes_preceding_transactions_durable() {
    let mem = small_mem();
    let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests());
    let cell = mem.reserve_persistent(1);
    let mut thread = crafty.register_thread(0);
    for _ in 0..7 {
        thread.execute(&mut |ops| {
            let v = ops.read(cell)?;
            ops.write(cell, v + 1)?;
            Ok(())
        });
    }
    crafty.persist_now(0);
    let mut image = mem.crash();
    recover(&mut image, crafty.directory_addr()).expect("recovery");
    assert_eq!(
        image.read(cell),
        7,
        "on-demand persistence must pin completed work"
    );
}

/// A sequence far past 4095 entries (the width the marker's count field
/// once had) still rolls back whole: recovery walks back every entry of
/// the latest sequence, not the count modulo the field.
#[test]
fn a_long_sequence_rolls_back_whole() {
    let mem = Arc::new(MemorySpace::new(
        PmemConfig::small_for_tests().with_crash(CrashModel::strict()),
    ));
    let cfg = CraftyConfig::small_for_tests()
        .with_max_threads(1)
        .with_undo_log_entries(8192);
    let crafty = Crafty::new(Arc::clone(&mem), cfg);
    let words = 5000u64;
    let base = mem.reserve_persistent(words);
    let mut thread = crafty.register_thread(0);
    // 625 written lines overflow the hardware write capacity, so the
    // transaction commits in software as one sequence of 5000 entries.
    thread.execute(&mut |ops| {
        for i in 0..words {
            ops.write(base.add(i), i + 1)?;
        }
        Ok(())
    });
    assert_eq!(crafty.breakdown().completions(CompletionPath::Sgl), 1);
    let mut image = mem.crash();
    let report = recover(&mut image, crafty.directory_addr()).expect("recovery");
    assert_eq!(report.entries_rolled_back, 5000);
    let torn = (0..words).filter(|&i| image.read(base.add(i)) != 0).count();
    assert_eq!(torn, 0, "words left written after recovery");
}

#[test]
fn adversarial_concurrent_crash_preserves_the_bank_invariant() {
    // Evictions may persist arbitrary dirty lines, and at the crash every
    // dirty word persists with probability one half. Recovery must still
    // produce a balanced bank.
    for seed in 0..5u64 {
        let cfg = PmemConfig::small_for_tests().with_crash(CrashModel {
            eviction_probability: 0.02,
            dirty_word_persist_probability: 0.5,
            seed,
        });
        let mem = Arc::new(MemorySpace::new(cfg));
        let crafty = Arc::new(Crafty::new(
            Arc::clone(&mem),
            CraftyConfig::small_for_tests(),
        ));
        let accounts = 8u64;
        let base = mem.reserve_persistent(accounts);
        for i in 0..accounts {
            mem.write(base.add(i), 100);
            mem.persist(0, base.add(i));
        }
        let threads = 3;
        std::thread::scope(|s| {
            for tid in 0..threads {
                let crafty = Arc::clone(&crafty);
                s.spawn(move || {
                    let mut handle = crafty.register_thread(tid);
                    let mut rng = crafty_common::SplitMix64::new(seed * 31 + tid as u64);
                    for _ in 0..120 {
                        let from = base.add(rng.next_below(accounts));
                        let to = base.add(rng.next_below(accounts));
                        handle.execute(&mut |ops| transfer(ops, from, to, 1));
                    }
                });
            }
        });
        // Crash *without* quiescing.
        let mut image = mem.crash();
        recover(&mut image, crafty.directory_addr()).expect("recovery");
        let total: u64 = (0..accounts).map(|i| image.read(base.add(i))).sum();
        assert_eq!(
            total,
            accounts * 100,
            "seed {seed}: recovered bank must be balanced"
        );
    }
}

#[test]
fn software_fallback_is_used_when_htm_capacity_is_exceeded() {
    use crafty_htm::HtmConfig;
    let mem = small_mem();
    let crafty = Crafty::with_htm_config(
        Arc::clone(&mem),
        CraftyConfig::small_for_tests(),
        HtmConfig::tiny(),
    );
    let base = mem.reserve_persistent(1024);
    let mut thread = crafty.register_thread(0);
    // 200 writes far exceed the tiny HTM's 4-line write capacity, so the
    // transaction can only complete through the per-line software
    // commit, which counts as a `CompletionPath::Sgl` completion.
    thread.execute(&mut |ops| {
        for i in 0..200u64 {
            ops.write(base.add(i), i)?;
        }
        Ok(())
    });
    for i in 0..200u64 {
        assert_eq!(mem.read(base.add(i)), i);
    }
    let b = crafty.breakdown();
    assert_eq!(b.total_persistent(), 1);
    assert_eq!(b.completions(CompletionPath::Sgl), 1);
}

/// Every route into the one software commit keeps the same books as the
/// hardware path: flushed undo-log lines are counted, every transaction is
/// a software completion timed as a phase, and a body that never succeeds
/// is given the same software patience on both. The capacity fallback
/// first spends the hardware budget: every Log attempt of every phase
/// round, `(MAX_PHASE_RESTARTS + 1) × (HTM_RETRIES_PER_PHASE + 1)` runs
/// (8 and 4 in `thread.rs`).
#[test]
fn software_commit_routes_keep_the_same_books() {
    // Phase timing is process-wide; other tests in this binary merely
    // record a few cycles more.
    let _counters = trace::LevelGuard::arm(TraceLevel::Counters);
    let base = CraftyConfig::small_for_tests().with_max_threads(1);
    let capacity_hw_runs = (8 + 1) * (4 + 1);
    for (route, cfg, htm, hw_runs) in [
        (
            "forced per-line",
            base.with_force_fallback(true),
            HtmConfig::skylake(),
            0,
        ),
        (
            "capacity, tiny HTM",
            base,
            HtmConfig::tiny(),
            capacity_hw_runs,
        ),
    ] {
        let mem = small_mem();
        let crafty = Crafty::with_htm_config(Arc::clone(&mem), cfg, htm);
        let cells = mem.reserve_persistent(64 * 8);
        let mut thread = crafty.register_thread(0);
        for round in 0..5u64 {
            thread.execute(&mut |ops| {
                for i in 0..64 {
                    ops.write(cells.add(i * 8), round)?;
                }
                Ok(())
            });
        }
        let b = crafty.breakdown();
        assert_eq!(b.total_persistent(), 5, "{route}");
        assert_eq!(b.completions(CompletionPath::Sgl), 5, "{route}");
        assert!(b.phase_cycles(TxnPhase::Sgl) > 0, "{route}: no phase time");
        assert!(
            mem.stats().flushes > 0,
            "{route}: undo-log flushes not counted"
        );
        assert_eq!(b.persistent_writes, 5 * 64, "{route}");

        let mut runs = 0u32;
        let gave_up = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            thread.execute(&mut |_ops| {
                runs += 1;
                Err(TxAbort::inconsistent())
            })
        }));
        assert!(gave_up.is_err(), "{route}: a hopeless body must panic");
        assert_eq!(runs, hw_runs + 16, "{route}: software patience differs");
    }
}
