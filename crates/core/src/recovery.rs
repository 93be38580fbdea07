//! The recovery observer (Section 5).
//!
//! After a crash, [`recover`] restores the persistent image to a state
//! corresponding to a prefix of the committed-transaction order:
//!
//! 1. Read the persistent log directory to find every thread's circular
//!    undo log.
//! 2. Parse each log into *fully persisted sequences*: every marker
//!    records its sequence's entry count in its meta word and its
//!    timestamp (the Log time, or the commit time once stamped) in its
//!    value word, and a sequence is accepted only when all of those slots
//!    hold current-lap `<addr, oldValue>` entries. Wraparound parity codes distinguish the
//!    current lap from stale or torn slots (Section 5.2), and the count
//!    rejects sequences that lost entries to the crash — those were never
//!    drained, so their in-place writes never started (see
//!    [`parse_sequences`]).
//! 3. Roll back the *latest* sequence of every thread (its writes may have
//!    only partially persisted because Crafty flushes without draining),
//!    plus — to reach a globally consistent cut — every sequence whose
//!    timestamp is at or after the earliest timestamp being rolled back.
//!    Rollback applies old values in reverse timestamp order, entries in
//!    reverse order within a sequence (Section 5.1).
//! 4. Zero the log regions so the restarted program begins with clean
//!    logs, bracketed by a persistent phase word so that a crash *during*
//!    recovery itself converges on re-run (see [`recover_interrupted`]).
//!
//! The paper's artifact implements the logging needed for recovery but not
//! recovery itself ("we have not implemented the actual recovery logic,
//! leaving it and its evaluation to future work", Section 6); this module
//! implements it so the crash-injection tests can close the loop.

use std::error::Error;
use std::fmt;

use crafty_common::{PAddr, Timestamp};
use crafty_pmem::PersistentImage;

use crate::undo_log::{Entry, LogDirectory, LogGeometry, SlotState, RECOVERY_FLAG_WORD};

/// Value of the directory's recovery phase word while log zeroing is in
/// flight. Set only after a recovery pass has applied its *entire*
/// rollback, cleared again once every log slot is zeroed.
const FLAG_ZEROING: u64 = 1;

/// A fully persisted sequence reconstructed from a thread's log.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Sequence {
    /// The sequence timestamp (Log time, stamped over with commit time).
    pub ts: Timestamp,
    /// Undo entries in append (program) order.
    pub entries: Vec<(PAddr, u64)>,
}

/// Statistics describing what recovery did.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RecoveryReport {
    /// Number of per-thread logs scanned.
    pub threads_scanned: usize,
    /// Fully persisted sequences found across all logs.
    pub sequences_found: usize,
    /// Sequences rolled back (per-thread latest plus the timestamp cut).
    pub sequences_rolled_back: usize,
    /// Individual `<addr, oldValue>` entries applied during rollback.
    pub entries_rolled_back: usize,
    /// The timestamp cut: every sequence at or after it was rolled back.
    pub cutoff_ts: Option<Timestamp>,
}

/// Why recovery could not run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RecoveryError {
    /// No log directory was found at the given address — either the crash
    /// predates engine construction or the address is wrong.
    MissingDirectory {
        /// The address that was probed.
        at: PAddr,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::MissingDirectory { at } => {
                write!(f, "no persisted log directory found at {at}")
            }
        }
    }
}

impl Error for RecoveryError {}

/// Decodes every slot of one log from the image.
fn slot_states(image: &PersistentImage, geometry: &LogGeometry) -> Vec<SlotState> {
    (0..geometry.capacity)
        .map(|s| geometry.read_slot(image, s))
        .collect()
}

/// Parses one thread's circular log from a crashed image into its fully
/// persisted sequences, oldest first.
///
/// Every marker records the number of data entries its sequence appended,
/// so each sequence is checked independently: anchor at the marker and
/// walk backward exactly that many slots (flipping the expected lap parity
/// when the walk wraps past slot 0). The sequence is accepted only if
/// every one of those slots holds a current-lap data entry. Any hole
/// (dropped line), torn word, or stale-lap slot means the append never
/// fully persisted — Crafty drains a sequence's undo entries before
/// performing any of its in-place writes, so such a transaction never
/// modified program data and discarding it is the correct recovery. This
/// also covers circular-wraparound truncation: a partially overwritten old
/// sequence fails its count check because its leading slots now carry the
/// newer lap.
///
/// Per-thread timestamps are strictly increasing in append order, so the
/// accepted sequences are returned sorted by timestamp and the last one is
/// the thread's latest.
pub fn parse_sequences(image: &PersistentImage, geometry: &LogGeometry) -> Vec<Sequence> {
    let capacity = geometry.capacity;
    if capacity == 0 {
        return Vec::new();
    }
    let states = slot_states(image, geometry);
    let mut sequences: Vec<Sequence> = Vec::new();
    for (slot, state) in states.iter().enumerate() {
        let SlotState::Valid {
            parity,
            entry: Entry::Marker { ts, data_entries },
        } = *state
        else {
            continue;
        };
        if data_entries >= capacity {
            // Cannot fit in this log at all: a corrupt count.
            continue;
        }
        let mut entries: Vec<(PAddr, u64)> = Vec::with_capacity(data_entries as usize);
        let mut expected_parity = parity;
        let mut at = slot as u64;
        let complete = (0..data_entries).all(|_| {
            if at == 0 {
                at = capacity - 1;
                expected_parity ^= 1;
            } else {
                at -= 1;
            }
            match states[at as usize] {
                SlotState::Valid {
                    parity: p,
                    entry: Entry::Data { addr, old_value },
                } if p == expected_parity => {
                    entries.push((addr, old_value));
                    true
                }
                _ => false,
            }
        });
        if complete {
            entries.reverse();
            sequences.push(Sequence { ts, entries });
        }
    }
    sequences.sort_by_key(|s| s.ts);
    sequences
}

/// Outcome of a budget-limited recovery pass (see [`recover_interrupted`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InterruptedRecovery {
    /// What the pass did within its budget. `entries_rolled_back` counts
    /// only undo entries actually applied; `sequences_rolled_back` counts
    /// sequences whose entries were *all* applied.
    pub report: RecoveryReport,
    /// Total image writes performed (rollback entries plus log-zeroing
    /// words).
    pub writes_applied: u64,
    /// True when the pass finished without exhausting its budget — i.e.
    /// this was a complete recovery.
    pub completed: bool,
}

/// An image writer that stops after a fixed number of writes, emulating a
/// power failure partway through recovery itself. Writes past the budget
/// are silently skipped (after a real crash they simply never happened).
struct BudgetedWriter<'a> {
    image: &'a mut PersistentImage,
    remaining: u64,
    applied: u64,
    skipped: bool,
}

impl BudgetedWriter<'_> {
    /// Performs the write if budget remains; returns whether it happened.
    fn write(&mut self, addr: PAddr, value: u64) -> bool {
        if self.remaining == 0 {
            self.skipped = true;
            return false;
        }
        self.remaining -= 1;
        self.applied += 1;
        self.image.write(addr, value);
        true
    }
}

/// Runs the recovery observer over a crashed image. `directory_addr` is the
/// address the engine's [`crate::Crafty::directory_addr`] reported (the
/// first persistent allocation the engine made).
///
/// # Errors
///
/// Returns [`RecoveryError::MissingDirectory`] if no directory is persisted
/// at `directory_addr`.
pub fn recover(
    image: &mut PersistentImage,
    directory_addr: PAddr,
) -> Result<RecoveryReport, RecoveryError> {
    let run = recover_interrupted(image, directory_addr, u64::MAX)?;
    debug_assert!(run.completed, "an unbounded recovery always completes");
    Ok(run.report)
}

/// Like [`recover`], but performs at most `write_budget` image writes and
/// then stops — emulating a crash *during recovery*. Re-running recovery
/// on the resulting image always converges to the image an uninterrupted
/// recovery produces, via a two-phase protocol around the directory's
/// persistent recovery phase word:
///
/// * **Rollback phase** (phase word clear): while any rollback write is
///   still outstanding the logs are untouched, so a re-run re-parses the
///   *same* sequences and re-applies the *same* rollback from the top —
///   old-value writes are idempotent and applied newest-first, so the
///   final value of every address is the oldest logged old value either
///   way.
/// * **Zeroing phase** (phase word set): the phase word is set only once
///   the rollback is fully applied, and cleared only after every log slot
///   is zeroed. A pass that finds it set does *not* re-parse the logs —
///   a half-zeroed log can present a rolled-back sequence stripped of the
///   older sequence that shared its addresses, and re-applying it would
///   clobber the completed rollback. Instead the pass only finishes the
///   zeroing and clears the phase word.
///
/// The re-run's timestamp cut therefore never moves below the interrupted
/// run's cut, and no sequence that survived the first cut is ever rolled
/// back by a later pass.
///
/// # Errors
///
/// Returns [`RecoveryError::MissingDirectory`] if no directory is persisted
/// at `directory_addr`.
pub fn recover_interrupted(
    image: &mut PersistentImage,
    directory_addr: PAddr,
    write_budget: u64,
) -> Result<InterruptedRecovery, RecoveryError> {
    let directory = LogDirectory::load(image, directory_addr)
        .ok_or(RecoveryError::MissingDirectory { at: directory_addr })?;
    let flag_addr = directory_addr.add(RECOVERY_FLAG_WORD);
    let resuming = image.read(flag_addr) == FLAG_ZEROING;

    // With the phase word set, a previous pass already applied its whole
    // rollback and died zeroing the logs; the half-zeroed content must not
    // be parsed (let alone rolled back) again.
    let per_thread: Vec<Vec<Sequence>> = if resuming {
        Vec::new()
    } else {
        directory
            .logs
            .iter()
            .map(|g| parse_sequences(image, g))
            .collect()
    };
    let sequences_found = per_thread.iter().map(Vec::len).sum();

    // The timestamp cut: the earliest timestamp among each thread's latest
    // sequence. Everything at or after it is rolled back.
    let cutoff = per_thread
        .iter()
        .filter_map(|seqs| seqs.last().map(|s| s.ts))
        .min();

    let mut report = RecoveryReport {
        threads_scanned: directory.logs.len(),
        sequences_found,
        sequences_rolled_back: 0,
        entries_rolled_back: 0,
        cutoff_ts: cutoff,
    };
    let mut writer = BudgetedWriter {
        image,
        remaining: write_budget,
        applied: 0,
        skipped: false,
    };

    if let Some(cutoff) = cutoff {
        let mut to_roll_back: Vec<&Sequence> = per_thread
            .iter()
            .flatten()
            .filter(|s| s.ts >= cutoff)
            .collect();
        // Reverse timestamp order: newest first (Section 5.1).
        to_roll_back.sort_by_key(|s| std::cmp::Reverse(s.ts));
        for seq in to_roll_back {
            let mut whole_sequence = true;
            for &(addr, old_value) in seq.entries.iter().rev() {
                if writer.write(addr, old_value) {
                    report.entries_rolled_back += 1;
                } else {
                    whole_sequence = false;
                }
            }
            if whole_sequence {
                report.sequences_rolled_back += 1;
            }
        }
    }

    // Enter the zeroing phase. The budgeted writer skips this (and every
    // later write) if the budget died mid-rollback, so a set phase word
    // always means the rollback above landed completely.
    if !resuming {
        writer.write(flag_addr, FLAG_ZEROING);
    }

    // Start the next run with clean logs so stale entries cannot be
    // confused with new ones after the clock restarts. Each slot's meta
    // word is cleared before its value word: a slot with a zero meta word
    // already decodes as absent, so no intermediate state ever presents a
    // torn slot.
    for g in &directory.logs {
        for slot in 0..g.capacity {
            let a = g.slot_addr(slot);
            writer.write(a, 0);
            writer.write(a.add(1), 0);
        }
    }

    // Leave the zeroing phase: from here a fresh pass may parse (the now
    // empty) logs again.
    writer.write(flag_addr, 0);

    let completed = !writer.skipped;
    let writes_applied = writer.applied;
    Ok(InterruptedRecovery {
        report,
        writes_applied,
        completed,
    })
}

/// The directory's recovery phase word in `image`: nonzero only while a
/// recovery pass is zeroing the logs, so 0 after every completed pass. A
/// word left set would make the next recovery resume zeroing instead of
/// parsing, and roll nothing back.
pub fn recovery_phase_word(image: &PersistentImage, directory_addr: PAddr) -> u64 {
    image.read(directory_addr.add(RECOVERY_FLAG_WORD))
}

/// Convenience wrapper: checks whether the image still decodes every log
/// slot as absent (i.e. [`recover`] has zeroed the logs).
pub fn logs_are_clean(image: &PersistentImage, directory_addr: PAddr) -> bool {
    let Some(directory) = LogDirectory::load(image, directory_addr) else {
        return false;
    };
    directory
        .logs
        .iter()
        .all(|g| (0..g.capacity).all(|s| matches!(g.read_slot(image, s), SlotState::Absent)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::undo_log::{decode, LogGeometry, UndoLog};
    use crafty_common::BreakdownRecorder;
    use crafty_htm::{HtmConfig, HtmRuntime};
    use crafty_pmem::{MemorySpace, PmemConfig};
    use std::sync::Arc;

    struct Fixture {
        mem: Arc<MemorySpace>,
        htm: HtmRuntime,
        logs: Vec<UndoLog>,
        dir_addr: PAddr,
    }

    fn fixture(threads: usize, capacity: u64) -> Fixture {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let htm = HtmRuntime::new(
            Arc::clone(&mem),
            HtmConfig::skylake(),
            Arc::new(BreakdownRecorder::new()),
        );
        let dir_addr = mem.reserve_persistent(LogDirectory::words_needed(threads));
        let mut logs = Vec::new();
        for _ in 0..threads {
            let start = mem.reserve_persistent(capacity * 2);
            let head = mem.reserve_volatile(1);
            logs.push(UndoLog::new(LogGeometry { start, capacity }, head));
        }
        LogDirectory {
            logs: logs.iter().map(|l| l.geometry()).collect(),
        }
        .store(&mem, 0, dir_addr);
        Fixture {
            mem,
            htm,
            logs,
            dir_addr,
        }
    }

    /// Appends a fully persisted sequence non-transactionally and persists
    /// it, emulating a completed Log (+Redo) for the given writes.
    fn persist_sequence(f: &Fixture, tid: usize, entries: &[(PAddr, u64)], ts: u64) {
        let Ok(info) =
            f.logs[tid].append_sequence(&f.htm, entries, Timestamp::from_raw(ts), &mut Vec::new());
        f.logs[tid].flush_entries(&f.mem, 0, info.first_abs, info.marker_abs);
        f.mem.drain(0);
    }

    #[test]
    fn empty_logs_yield_no_sequences_and_no_rollback() {
        let f = fixture(2, 16);
        let mut image = f.mem.crash();
        let report = recover(&mut image, f.dir_addr).expect("recover");
        assert_eq!(report.threads_scanned, 2);
        assert_eq!(report.sequences_found, 0);
        assert_eq!(report.sequences_rolled_back, 0);
        assert_eq!(report.cutoff_ts, None);
    }

    #[test]
    fn missing_directory_is_an_error() {
        let f = fixture(1, 16);
        let mut image = f.mem.crash();
        let err = recover(&mut image, PAddr::new(4096)).unwrap_err();
        assert!(matches!(err, RecoveryError::MissingDirectory { .. }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn parse_finds_sequences_in_append_order() {
        let f = fixture(1, 16);
        let a = PAddr::new(2048);
        persist_sequence(&f, 0, &[(a, 1), (a.add(1), 2)], 5);
        persist_sequence(&f, 0, &[(a, 3)], 9);
        let image = f.mem.crash();
        let seqs = parse_sequences(&image, &f.logs[0].geometry());
        assert_eq!(seqs.len(), 2);
        assert_eq!(seqs[0].ts.raw(), 5);
        assert_eq!(seqs[0].entries, vec![(a, 1), (a.add(1), 2)]);
        assert_eq!(seqs[1].ts.raw(), 9);
    }

    #[test]
    fn latest_sequence_of_each_thread_is_rolled_back() {
        let f = fixture(1, 16);
        let x = PAddr::new(2048);
        // Transaction 1: x: 0 -> 10 (old value 0 logged), fully persisted.
        persist_sequence(&f, 0, &[(x, 0)], 3);
        f.mem.write(x, 10);
        f.mem.persist(0, x);
        // Transaction 2: x: 10 -> 20 (old value 10 logged); its data write
        // only partially persisted (never flushed).
        persist_sequence(&f, 0, &[(x, 10)], 7);
        f.mem.write(x, 20);
        // no flush of x — emulates the flush-without-drain window
        let mut image = f.mem.crash();
        assert_eq!(image.read(x), 10);
        let report = recover(&mut image, f.dir_addr).expect("recover");
        // The latest sequence (ts 7) is rolled back: x returns to 10, the
        // state after transaction 1 — a consistent prefix.
        assert_eq!(image.read(x), 10);
        assert_eq!(report.sequences_rolled_back, 1);
        assert_eq!(report.cutoff_ts, Some(Timestamp::from_raw(7)));
        assert!(logs_are_clean(&image, f.dir_addr));
    }

    #[test]
    fn timestamp_cut_rolls_back_other_threads_later_sequences() {
        let f = fixture(2, 16);
        let x = PAddr::new(2048);
        let y = PAddr::new(2056);
        // Thread 0 commits at ts 4 (x: 0 -> 1, persisted).
        persist_sequence(&f, 0, &[(x, 0)], 4);
        f.mem.write(x, 1);
        f.mem.persist(0, x);
        // Thread 1 commits at ts 6 (y: 0 -> 2, persisted).
        persist_sequence(&f, 1, &[(y, 0)], 6);
        f.mem.write(y, 2);
        f.mem.persist(0, y);
        let mut image = f.mem.crash();
        let report = recover(&mut image, f.dir_addr).expect("recover");
        // Cut = min(4, 6) = 4: both sequences are rolled back.
        assert_eq!(report.cutoff_ts, Some(Timestamp::from_raw(4)));
        assert_eq!(report.sequences_rolled_back, 2);
        assert_eq!(image.read(x), 0);
        assert_eq!(image.read(y), 0);
    }

    #[test]
    fn earlier_sequences_below_the_cut_survive() {
        let f = fixture(2, 16);
        let x = PAddr::new(2048);
        let y = PAddr::new(2056);
        // Thread 0: two committed transactions on x.
        persist_sequence(&f, 0, &[(x, 0)], 2);
        f.mem.write(x, 1);
        f.mem.persist(0, x);
        persist_sequence(&f, 0, &[(x, 1)], 8);
        f.mem.write(x, 2);
        f.mem.persist(0, x);
        // Thread 1: one committed transaction on y at ts 5.
        persist_sequence(&f, 1, &[(y, 0)], 5);
        f.mem.write(y, 7);
        f.mem.persist(0, y);
        let mut image = f.mem.crash();
        let report = recover(&mut image, f.dir_addr).expect("recover");
        // Cut = min(8, 5) = 5: thread 0's ts-8 and thread 1's ts-5 roll
        // back; thread 0's ts-2 survives.
        assert_eq!(report.cutoff_ts, Some(Timestamp::from_raw(5)));
        assert_eq!(report.sequences_rolled_back, 2);
        assert_eq!(image.read(x), 1, "transaction at ts 2 must survive");
        assert_eq!(image.read(y), 0);
    }

    #[test]
    fn torn_marker_invalidates_only_its_own_sequence() {
        let f = fixture(1, 16);
        let x = PAddr::new(2048);
        persist_sequence(&f, 0, &[(x, 0)], 3);
        f.mem.write(x, 1);
        f.mem.persist(0, x);
        // Handcraft a second sequence whose marker is torn: write the data
        // entry and only the meta word of the marker.
        let g = f.logs[0].geometry();
        let data_slot = g.slot_addr(2);
        let marker_slot = g.slot_addr(3);
        // Data entry for x with old value 1, parity 0, encoded by the crate.
        let Ok(info) =
            f.logs[0].append_sequence(&f.htm, &[(x, 1)], Timestamp::from_raw(9), &mut Vec::new());
        assert_eq!(info.marker_abs, 3);
        f.logs[0].flush_entries(&f.mem, 0, info.first_abs, info.marker_abs);
        f.mem.drain(0);
        let mut image = f.mem.crash();
        // Tear the marker: flip its value word's parity bit so the two
        // words disagree.
        let torn_value = image.read(marker_slot.add(1)) ^ 1;
        image.write(marker_slot.add(1), torn_value);
        assert!(matches!(
            decode(image.read(marker_slot), image.read(marker_slot.add(1))),
            SlotState::Torn
        ));
        assert!(matches!(
            decode(image.read(data_slot), image.read(data_slot.add(1))),
            SlotState::Valid { .. }
        ));
        let report = recover(&mut image, f.dir_addr).expect("recover");
        // Only the first (intact) sequence exists; it is the latest, so it
        // is rolled back. The torn sequence's data entry must NOT have been
        // applied on its own.
        assert_eq!(report.sequences_found, 1);
        assert_eq!(report.sequences_rolled_back, 1);
        assert_eq!(image.read(x), 0);
    }

    #[test]
    fn wrapped_log_discards_the_unanchored_oldest_group() {
        let f = fixture(1, 8); // tiny log: 8 entries
        let x = PAddr::new(2048);
        // Each sequence takes 3 slots (2 data + marker); three sequences
        // wrap the 8-entry log.
        persist_sequence(&f, 0, &[(x, 0), (x.add(1), 0)], 2);
        persist_sequence(&f, 0, &[(x, 1), (x.add(1), 1)], 4);
        persist_sequence(&f, 0, &[(x, 2), (x.add(1), 2)], 6);
        let image = f.mem.crash();
        let seqs = parse_sequences(&image, &f.logs[0].geometry());
        // The first sequence was partially overwritten by the third; only
        // fully intact, anchored sequences may be reported.
        assert!(seqs.iter().all(|s| s.entries.len() == 2));
        assert!(seqs.iter().any(|s| s.ts.raw() == 6));
        assert!(
            !seqs.iter().any(|s| s.ts.raw() == 2),
            "the overwritten oldest sequence must not reappear"
        );
    }

    #[test]
    fn recovery_zeroes_logs_for_the_next_run() {
        let f = fixture(1, 16);
        let x = PAddr::new(2048);
        persist_sequence(&f, 0, &[(x, 0)], 2);
        let mut image = f.mem.crash();
        recover(&mut image, f.dir_addr).expect("recover");
        assert!(logs_are_clean(&image, f.dir_addr));
        // A second recovery over the cleaned image is a no-op.
        let report = recover(&mut image, f.dir_addr).expect("recover");
        assert_eq!(report.sequences_found, 0);
    }

    /// Builds a two-thread fixture with committed-and-persisted work plus a
    /// partially persisted latest transaction, crashes, and returns the
    /// fixture and the two data addresses.
    fn interrupted_setup() -> (Fixture, PAddr, PAddr, PersistentImage) {
        let f = fixture(2, 16);
        let x = PAddr::new(2048);
        let y = PAddr::new(2056);
        // Thread 0: x: 0 -> 1 at ts 2 (persisted), then x: 1 -> 2 at ts 8
        // (data write never flushed).
        persist_sequence(&f, 0, &[(x, 0)], 2);
        f.mem.write(x, 1);
        f.mem.persist(0, x);
        persist_sequence(&f, 0, &[(x, 1)], 8);
        f.mem.write(x, 2);
        // Thread 1: y: 0 -> 7 at ts 5 (persisted).
        persist_sequence(&f, 1, &[(y, 0)], 5);
        f.mem.write(y, 7);
        f.mem.persist(0, y);
        let image = f.mem.crash();
        (f, x, y, image)
    }

    /// Satellite: recovery is idempotent — a second `recover` over an
    /// already-recovered image is a complete no-op (no sequences, no
    /// rollback, same bytes).
    #[test]
    fn recovery_is_idempotent() {
        let (f, _, _, mut image) = interrupted_setup();
        let first = recover(&mut image, f.dir_addr).expect("first recovery");
        assert!(first.sequences_rolled_back > 0, "fixture must roll back");
        let once = image.clone();
        let second = recover(&mut image, f.dir_addr).expect("second recovery");
        assert_eq!(second.sequences_found, 0);
        assert_eq!(second.sequences_rolled_back, 0);
        assert_eq!(second.entries_rolled_back, 0);
        assert_eq!(second.cutoff_ts, None);
        assert_eq!(image, once, "second recovery must not change the image");
    }

    /// Every completed pass clears the phase word: a first recovery, and a
    /// re-run over an image whose pass died zeroing the logs (the word
    /// still set).
    #[test]
    fn recovery_leaves_its_phase_word_clear() {
        let (f, _, _, pristine) = interrupted_setup();
        let mut image = pristine.clone();
        let full = recover_interrupted(&mut image, f.dir_addr, u64::MAX).expect("full");
        assert_eq!(recovery_phase_word(&image, f.dir_addr), 0);

        let mut image = pristine;
        let died_zeroing =
            recover_interrupted(&mut image, f.dir_addr, full.writes_applied - 1).expect("bounded");
        assert!(!died_zeroing.completed);
        assert_eq!(recovery_phase_word(&image, f.dir_addr), FLAG_ZEROING);
        recover(&mut image, f.dir_addr).expect("re-recovery");
        assert_eq!(recovery_phase_word(&image, f.dir_addr), 0);
    }

    /// Crash *during* recovery at every possible write count: re-running
    /// recovery on the interrupted image always converges to the image a
    /// single uninterrupted recovery produces.
    #[test]
    fn interrupted_recovery_converges_from_every_budget() {
        let (f, x, y, pristine) = interrupted_setup();
        // Reference: what a full recovery produces.
        let mut reference = pristine.clone();
        let full = recover_interrupted(&mut reference, f.dir_addr, u64::MAX).expect("full");
        assert!(full.completed);
        assert_eq!(reference.read(x), 1, "ts-2 survives, ts-8/ts-5 roll back");
        assert_eq!(reference.read(y), 0);
        for budget in 0..full.writes_applied + 2 {
            let mut image = pristine.clone();
            let run = recover_interrupted(&mut image, f.dir_addr, budget).expect("bounded");
            assert_eq!(run.writes_applied, budget.min(full.writes_applied));
            assert_eq!(run.completed, budget >= full.writes_applied);
            // Second (uninterrupted) recovery over the partial image.
            let rerun = recover(&mut image, f.dir_addr).expect("re-recovery");
            assert_eq!(
                image, reference,
                "budget {budget}: re-recovery must converge to the full-recovery image"
            );
            // The re-run's cut never drops below the first run's cut: no
            // transaction that survived the first cut is rolled back later.
            if let (Some(a), Some(b)) = (rerun.cutoff_ts, full.report.cutoff_ts) {
                assert!(a >= b, "budget {budget}: cutoff regressed");
            }
            assert!(logs_are_clean(&image, f.dir_addr));
            // And a third pass is a no-op.
            let third = recover(&mut image, f.dir_addr).expect("third");
            assert_eq!(third.sequences_found, 0);
        }
    }

    /// A budget that covers only part of the rollback applies exactly that
    /// many entry writes and reports the truncation.
    #[test]
    fn interrupted_recovery_reports_partial_rollback() {
        let (f, _, _, pristine) = interrupted_setup();
        let mut image = pristine.clone();
        let run = recover_interrupted(&mut image, f.dir_addr, 1).expect("bounded");
        assert!(!run.completed);
        assert_eq!(run.writes_applied, 1);
        assert_eq!(run.report.entries_rolled_back, 1);
        assert!(run.report.sequences_rolled_back <= 1);
        assert!(
            !logs_are_clean(&image, f.dir_addr),
            "zeroing cannot have finished on a 1-write budget"
        );
    }
}
