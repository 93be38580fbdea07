//! The Log → Redo/Validate hand-off, phase by phase on one thread, and
//! the phases against a forced refresh or a foreign commit interleaved by
//! hand.

use std::sync::Arc;

use crafty_common::{HwTxnOutcome, PersistentTm};
use crafty_pmem::{CrashModel, PmemConfig};

use super::*;
use crate::config::CraftyConfig;
use crate::recovery::recover;
use crate::undo_log::UndoLog;

/// An engine over one persistent line (10, 20, persisted) and one
/// volatile word (30).
fn fixture() -> (Arc<MemorySpace>, Crafty, PAddr, PAddr) {
    let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
    let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests());
    let (line, volatile) = (mem.reserve_persistent(8), mem.reserve_volatile(1));
    mem.write(line, 10);
    mem.write(line.add(1), 20);
    mem.write(volatile, 30);
    mem.persist(0, line);
    (mem, crafty, line, volatile)
}

/// A body over the fixture's line and volatile word: writes word 0
/// twice, then word 1 of the same line, then the volatile word.
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

// ----------------------------------------------------------------------
// Window (a): a forced refresh against the owner's Redo, in both orders
// ----------------------------------------------------------------------

/// Crashes `mem` under the strict model and eight relaxed seeds and
/// requires every recovered image to hold the body's line whole: the
/// values before the transaction, or the ones it commits.
fn assert_recovers_whole(mem: &MemorySpace, crafty: &Crafty, line: PAddr, step: &str) {
    let models = (0..8).map(CrashModel::relaxed);
    for model in [CrashModel::strict()].into_iter().chain(models) {
        let mut image = mem.crash_with(model);
        recover(&mut image, crafty.directory_addr()).expect("recovery");
        let found = [image.read(line), image.read(line.add(1))];
        assert!(
            found == [10, 20] || found == [12, 21],
            "{step}: {model:?} recovered {found:?}"
        );
    }
}

/// Thread 1 logs the body; the returned sequence's marker is the last
/// slot of its line, so a refresh appended behind it writes only lines
/// the Redo does not: whatever orders the two must be read, not written.
fn owner_logged<'c>(
    crafty: &'c Crafty,
    body: &mut TxnBody<'_>,
) -> (CraftyThread<'c>, UndoLog, LoggedSeq) {
    let mut owner = CraftyThread::new(crafty, 1);
    let seq = logged(&mut owner, body);
    let log = crafty.threads[1].undo_log;
    let slot_line = |abs: u64| log.geometry().slot_addr(abs).line();
    assert_ne!(
        slot_line(seq.marker_abs),
        slot_line(seq.marker_abs + 1),
        "the refresh's slot shares no line with the marker"
    );
    (owner, log, seq)
}

#[test]
fn a_refresh_that_read_the_tip_before_the_redo_fails_to_commit() {
    let (mem, crafty, line, volatile) = fixture();
    let mut body = body(line, volatile);
    let (mut owner, log, seq) = owner_logged(&crafty, &mut body);
    assert_recovers_whole(&mem, &crafty, line, "logged");

    // Thread 0's refresh of thread 1's log, `force_empty_sequence`'s
    // steps by hand, up to its commit.
    let tip = log.persist_latest(&crafty.htm, 0);
    assert_recovers_whole(&mem, &crafty, line, "latest persisted");
    let mut refresh = crafty.htm.begin(0);
    assert_eq!(log.tip_unmoved(&mut refresh, tip), Ok(true));
    let appended = log.append_sequence(&mut refresh, &[], crafty.timestamp(), &mut Vec::new());
    assert!(appended.is_ok());

    assert!(owner.commit_phase(&seq, None), "the Redo commits first");
    assert_eq!(mem.read(line), 12);
    assert_recovers_whole(&mem, &crafty, line, "Redo committed");

    assert_eq!(
        refresh.commit(),
        Err(AbortCode::Conflict),
        "the marker the Redo stamped is in the refresh's read set"
    );
    assert_eq!(
        log.head(&mem),
        seq.marker_abs + 1,
        "the refresh left no trace"
    );
    assert_recovers_whole(&mem, &crafty, line, "refresh failed");
    mem.drain(1);
    assert_recovers_whole(&mem, &crafty, line, "Redo drained");
}

#[test]
fn a_refresh_that_commits_first_makes_the_redo_re_log_behind_it() {
    let (mem, crafty, line, volatile) = fixture();
    let mut body = body(line, volatile);
    let (mut owner, log, seq) = owner_logged(&crafty, &mut body);

    let tip = log.persist_latest(&crafty.htm, 0);
    let mut refresh = crafty.htm.begin(0);
    assert_eq!(log.tip_unmoved(&mut refresh, tip), Ok(true));
    let appended = log.append_sequence(&mut refresh, &[], crafty.timestamp(), &mut Vec::new());
    let info = appended.expect("the refresh appends");
    assert!(refresh.commit().is_ok(), "the refresh commits first");
    log.flush_marker(&mem, 0, info.marker_abs);
    mem.drain(0);
    assert_recovers_whole(&mem, &crafty, line, "refresh committed");

    assert!(
        matches!(owner.commit_attempt(&seq, None), Err(Stop::Fail)),
        "the Redo reads the moved head and fails its phase"
    );
    assert_eq!(crafty.breakdown().hw(HwTxnOutcome::Explicit), 1);
    assert_eq!(mem.read(line), 10, "nothing of the failed Redo lands");
    assert_recovers_whole(&mem, &crafty, line, "Redo failed");

    let relogged = logged(&mut owner, &mut body);
    assert_eq!(
        relogged.marker_abs,
        info.marker_abs + 1 + relogged.persistent_writes,
        "the re-log lands right behind the refresh"
    );
    assert_recovers_whole(&mem, &crafty, line, "re-logged");
    assert!(owner.commit_phase(&relogged, None));
    assert_eq!([mem.read(line), mem.read(line.add(1))], [12, 21]);
    assert_recovers_whole(&mem, &crafty, line, "Redo committed");
    mem.drain(1);
    assert_recovers_whole(&mem, &crafty, line, "Redo drained");
}

// ----------------------------------------------------------------------
// The Validate phase, reached by a foreign commit between Log and Redo
// ----------------------------------------------------------------------

/// Thread 0 adds `delta` to the word at `at` in one whole transaction.
fn foreign_commit(crafty: &Crafty, at: PAddr, delta: u64) {
    crafty.register_thread(0).execute(&mut |ops| {
        let v = ops.read(at)?;
        ops.write(at, v + delta)
    });
}

#[test]
fn a_foreign_commit_on_a_disjoint_line_sends_the_transaction_to_validate() {
    let (mem, crafty, line, volatile) = fixture();
    let elsewhere = mem.reserve_persistent(8);
    let mut body = body(line, volatile);
    let mut owner = CraftyThread::new(&crafty, 1);
    let seq = logged(&mut owner, &mut body);

    let ts = crafty.g_last_redo_ts();
    foreign_commit(&crafty, elsewhere, 5);
    assert!(
        crafty.g_last_redo_ts() > ts,
        "the foreign Redo moved gLastRedoTS"
    );

    assert!(
        matches!(owner.commit_attempt(&seq, None), Err(Stop::Fail)),
        "the Redo fails its gLastRedoTS check"
    );
    assert!(
        owner.commit_phase(&seq, Some(&mut body)),
        "Validate commits"
    );
    owner.finish(CompletionPath::Validate, seq.persistent_writes);

    assert_eq!([mem.read(line), mem.read(line.add(1))], [12, 21]);
    assert_eq!(mem.read(elsewhere), 5);
    let b = crafty.breakdown();
    let completions = [
        CompletionPath::Redo,
        CompletionPath::Validate,
        CompletionPath::Sgl,
        CompletionPath::ReadOnly,
    ]
    .map(|path| b.completions(path));
    assert_eq!(
        completions,
        [1, 1, 0, 0],
        "Redo, Validate, software, read-only"
    );
    // Thread 0's Log and Redo; thread 1's Log and Validate. The one
    // explicit abort is the failed check.
    assert_eq!(
        [
            HwTxnOutcome::Commit,
            HwTxnOutcome::Explicit,
            HwTxnOutcome::Conflict
        ]
        .map(|o| b.hw(o)),
        [4, 1, 0]
    );
}

#[test]
fn a_foreign_commit_on_the_same_line_fails_validate_and_restarts_the_phases() {
    let (mem, crafty, line, volatile) = fixture();
    let mut body = body(line, volatile);
    let mut owner = CraftyThread::new(&crafty, 1);
    let seq = logged(&mut owner, &mut body);

    foreign_commit(&crafty, line, 100);
    assert!(!owner.commit_phase(&seq, None), "the Redo check fails");
    assert!(
        matches!(owner.commit_attempt(&seq, Some(&mut body)), Err(Stop::Fail)),
        "the re-executed write no longer matches its undo entry"
    );
    assert_eq!(mem.read(line), 110, "nothing of the failed Validate lands");

    // The phases restart from the Log, over the foreign commit's value.
    let seq = logged(&mut owner, &mut body);
    assert_eq!(owner.entries_buf[0], (line, 110));
    assert!(owner.commit_phase(&seq, None), "the Redo commits");
    owner.finish(CompletionPath::Redo, seq.persistent_writes);
    assert_eq!([mem.read(line), mem.read(line.add(1))], [112, 21]);

    let b = crafty.breakdown();
    let completions = [
        CompletionPath::Redo,
        CompletionPath::Validate,
        CompletionPath::Sgl,
    ]
    .map(|path| b.completions(path));
    assert_eq!(
        completions,
        [2, 0, 0],
        "both by the Redo, the second after a restart"
    );
    // Thread 0's Log and Redo; thread 1's two Logs and a Redo. The Redo
    // check and the Validate mismatch are the two explicit aborts.
    assert_eq!(
        [
            HwTxnOutcome::Commit,
            HwTxnOutcome::Explicit,
            HwTxnOutcome::Conflict
        ]
        .map(|o| b.hw(o)),
        [5, 2, 0]
    );
}
