//! The Log → Redo/Validate hand-off, phase by phase on one thread.

use std::sync::Arc;

use crafty_common::{HwTxnOutcome, PersistentTm};
use crafty_pmem::PmemConfig;

use super::*;
use crate::config::CraftyConfig;

/// A body over one persistent line and one volatile word: writes word 0
/// twice, then word 1 of the same line, then the volatile word.
fn fixture() -> (Arc<MemorySpace>, Crafty, PAddr, PAddr) {
    let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
    let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests());
    let (line, volatile) = (mem.reserve_persistent(8), mem.reserve_volatile(1));
    mem.write(line, 10);
    mem.write(line.add(1), 20);
    mem.write(volatile, 30);
    (mem, crafty, line, volatile)
}

fn body(line: PAddr, volatile: PAddr) -> impl FnMut(&mut dyn TxnOps) -> Result<(), TxAbort> {
    move |ops| {
        let v = ops.read(line)?;
        ops.write(line, v + 1)?;
        ops.write(line, v + 2)?;
        ops.write(line.add(1), 21)?;
        ops.write(volatile, 31)
    }
}

fn logged(thread: &mut CraftyThread<'_>, body: &mut TxnBody<'_>) -> LoggedSeq {
    match thread.log_phase(body) {
        LogOutcome::Logged(seq) => seq,
        _ => panic!("an undisturbed Log phase logs"),
    }
}

#[test]
fn log_phase_hands_redo_one_image_per_written_line() {
    let (mem, crafty, line, volatile) = fixture();
    let mut thread = CraftyThread::new(&crafty, 0);
    let mut body = body(line, volatile);
    let seq = logged(&mut thread, &mut body);

    assert_eq!((seq.writes, seq.persistent_writes), (4, 3));
    assert_eq!(
        thread.entries_buf,
        [(line, 10), (line, 11), (line.add(1), 20)],
        "one undo entry per persistent write, in program order"
    );
    let written = |slot: &LineSlot| {
        let words = slot.words.into_iter().enumerate();
        let written = words.filter(|(i, _)| slot.mask & (1 << i) != 0);
        (slot.line(), written.collect::<Vec<_>>())
    };
    assert_eq!(
        thread.redo_buf.iter().map(written).collect::<Vec<_>>(),
        [
            (line.line().index(), vec![(0, 12), (1, 21)]),
            (volatile.line().index(), vec![(0, 31)]),
        ],
        "final words by the line; the volatile line rides along"
    );
    let found = [mem.read(line), mem.read(line.add(1)), mem.read(volatile)];
    assert_eq!(found, [10, 20, 30], "the Log phase rolled everything back");

    let flushes = mem.stats().flushes;
    assert!(thread.commit_phase(&seq, None));
    let found = [mem.read(line), mem.read(line.add(1)), mem.read(volatile)];
    assert_eq!(found, [12, 21, 31]);
    assert_eq!(
        mem.stats().flushes - flushes,
        2,
        "the data line and the marker's; never the volatile line"
    );
    mem.drain(0);
    assert_eq!(mem.read_persisted(line), 12);
    assert_eq!(mem.read_persisted(line.add(1)), 21);
}

#[test]
fn validate_commits_through_the_exchange_and_flushes_the_entries_lines() {
    let (mem, crafty, line, volatile) = fixture();
    let mut thread = CraftyThread::new(&crafty, 0);
    let mut body = body(line, volatile);
    let seq = logged(&mut thread, &mut body);

    // Another thread's commit lands between Log and Redo.
    crafty
        .htm
        .nontx_bump_commit_version(crafty.g_last_redo_ts_addr);
    assert!(!thread.commit_phase(&seq, None), "Redo must fail");
    let explicit = crafty.breakdown().hw(HwTxnOutcome::Explicit);
    assert_eq!(explicit, 1, "by its own check, once");

    let flushes = mem.stats().flushes;
    assert!(thread.commit_phase(&seq, Some(&mut body)));
    let found = [mem.read(line), mem.read(line.add(1)), mem.read(volatile)];
    assert_eq!(found, [12, 21, 31]);
    assert_eq!(mem.stats().flushes - flushes, 2, "data line and marker");
    mem.drain(0);
    assert_eq!(mem.read_persisted(line), 12);
    assert_eq!(mem.read_persisted(line.add(1)), 21);

    // A write that no longer matches its undo entry fails the phase.
    let seq = logged(&mut thread, &mut body);
    crafty.htm.nontx_write(line.add(1), 99);
    assert!(!thread.commit_phase(&seq, Some(&mut body)));
    assert_eq!(mem.read(line), 12, "nothing of the failed Validate lands");
}
