//! The recovery observer (Section 5).
//!
//! After a crash, [`recover`] restores the persistent image to a state
//! corresponding to a prefix of the committed-transaction order:
//!
//! 1. Read the persistent log directory to find every thread's circular
//!    undo log and the recovery *floor*: every sequence stamped below it
//!    belongs to a life an earlier recovery already closed, and is ignored.
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
//! 4. Commit with one word, leaving the logs for the next life to resume
//!    ([`crate::Crafty::new`] puts each head one past its latest marker):
//!    clear every word ahead of that marker that already carries the lap
//!    parity the next life writes there — an append the crash cut short —
//!    then write the floor as one past the largest timestamp parsed (see
//!    [`recover_interrupted`]).
//!
//! The paper's artifact implements the logging needed for recovery but not
//! recovery itself ("we have not implemented the actual recovery logic,
//! leaving it and its evaluation to future work", Section 6); this module
//! implements it so the crash-injection tests can close the loop.

use std::error::Error;
use std::fmt;

use crafty_common::{PAddr, Timestamp};
use crafty_pmem::PersistentImage;

use crate::undo_log::{decode, words_on_lap, Entry, LogDirectory, SlotState, RECOVERY_FLOOR_WORD};

/// A fully persisted sequence reconstructed from a thread's log.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Sequence {
    /// The sequence timestamp (Log time, stamped over with commit time).
    pub ts: Timestamp,
    /// The absolute index of the sequence's marker modulo two laps (its
    /// slot, plus the capacity on an odd lap): where its log resumes from.
    pub marker_abs: u64,
    /// Undo entries in append (program) order.
    pub entries: Vec<(PAddr, u64)>,
}

/// Statistics describing what recovery did.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RecoveryReport {
    /// Number of per-thread logs scanned.
    pub threads_scanned: usize,
    /// Fully persisted sequences found at or above the recovery floor
    /// across all logs.
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

/// Parses one thread's circular log — its words, two per slot, as
/// [`crate::LogGeometry::region`] returns them from an image — into its fully
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
/// Per-thread timestamps are strictly increasing in append order, and a
/// resumed log's clock starts above every timestamp it holds, so the
/// accepted sequences are returned sorted by timestamp and the last one is
/// the thread's latest.
pub fn parse_sequences(words: &[u64]) -> Vec<Sequence> {
    let capacity = words.len() as u64 / 2;
    let states: Vec<SlotState> = words.chunks_exact(2).map(|w| decode(w[0], w[1])).collect();
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
            sequences.push(Sequence {
                ts,
                marker_abs: slot as u64 + parity * capacity,
                entries,
            });
        }
    }
    sequences.sort_by_key(|s| s.ts);
    sequences
}

/// Where a log whose accepted sequences are `sequences` (oldest first)
/// resumes: one past its latest marker, or at 0 if it holds none.
pub(crate) fn resume_at(sequences: &[Sequence]) -> u64 {
    sequences.last().map_or(0, |s| s.marker_abs + 1)
}

/// Outcome of a budget-limited recovery pass (see [`recover_interrupted`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InterruptedRecovery {
    /// What the pass did within its budget. `entries_rolled_back` counts
    /// only undo entries actually applied; `sequences_rolled_back` counts
    /// sequences whose entries were *all* applied before the budget ran
    /// out.
    pub report: RecoveryReport,
    /// Log words cleared ahead of each log's latest marker (the remains of
    /// an unfinished append).
    pub words_invalidated: u64,
    /// Total image writes performed: the rollback's entries, the
    /// invalidated log words, and the floor (none when it is unchanged).
    pub writes_applied: u64,
    /// True when the pass finished without exhausting its budget — i.e.
    /// this was a complete recovery.
    pub completed: bool,
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

/// Like [`recover`], but performs at most `write_budget` image writes —
/// emulating a crash *during recovery*: the pass plans its writes from
/// what it parsed and applies a prefix of the plan. Re-running recovery
/// on the result converges to the image an uninterrupted recovery
/// produces, because the plan's last write is the directory's floor:
///
/// * **Before it**, nothing written changes what a re-run parses (the
///   rollback writes only program data, the invalidation only words no
///   accepted sequence holds), so the re-run re-applies the *same*
///   rollback — old-value writes are idempotent and applied newest-first —
///   and finishes the invalidation.
/// * **After it**, every parsed sequence is below the floor: a re-run
///   finds nothing and writes nothing.
///
/// So a re-run's cut never moves below the interrupted run's, and no
/// sequence that survived the first cut is rolled back later.
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
    // Everything is read before the plan's first write.
    let view: &PersistentImage = image;
    let floor_addr = directory_addr.add(RECOVERY_FLOOR_WORD);
    let floor = view.read(floor_addr);
    let per_thread: Vec<Vec<Sequence>> = directory
        .logs
        .iter()
        .map(|g| parse_sequences(g.region(view)))
        .collect();
    let live = |s: &&Sequence| s.ts.raw() >= floor;

    // The timestamp cut: the earliest timestamp among each thread's latest
    // sequence. Everything at or after it is rolled back, newest first
    // (Section 5.1).
    let cutoff = per_thread
        .iter()
        .filter_map(|seqs| seqs.last().filter(live).map(|s| s.ts))
        .min();
    let mut to_roll_back: Vec<&Sequence> = per_thread
        .iter()
        .flatten()
        .filter(|s| cutoff.is_some_and(|cut| s.ts >= cut))
        .collect();
    to_roll_back.sort_by_key(|s| std::cmp::Reverse(s.ts));
    let rollback = to_roll_back.iter().flat_map(|s| s.entries.iter().rev());

    // The next life writes each slot first with the parity of its lap from
    // the resume point: the resume point's lap from there on, the next lap
    // before it. Earlier laps' entries carry the other parity; a word that
    // already carries this one is left over from an append the crash cut
    // short, and is cleared.
    let mut stale: Vec<PAddr> = Vec::new();
    for (g, seqs) in directory.logs.iter().zip(&per_thread) {
        let next = resume_at(seqs);
        let (resume_slot, lap) = (next % g.capacity, g.parity(next));
        for (w, slot) in g.region(view).chunks_exact(2).zip(0..) {
            let [meta, value] = words_on_lap(w[0], w[1], lap ^ u64::from(slot < resume_slot));
            let at = g.start.add(2 * slot);
            for (addr, on_lap) in [(at, meta), (at.add(1), value)] {
                if on_lap {
                    stale.push(addr);
                }
            }
        }
    }

    // The commit point: one past every parsed timestamp, written last.
    let next_floor = per_thread
        .iter()
        .flatten()
        .map(|s| s.ts.raw() + 1)
        .fold(floor, u64::max);
    let commit = (next_floor != floor).then_some((floor_addr, next_floor));

    let plan: Vec<(PAddr, u64)> = rollback
        .copied()
        .chain(stale.iter().map(|&a| (a, 0)))
        .chain(commit)
        .collect();
    let applied = plan
        .len()
        .min(usize::try_from(write_budget).unwrap_or(usize::MAX));
    for &(addr, value) in &plan[..applied] {
        image.write(addr, value);
    }
    let rollback_len = plan.len() - stale.len() - usize::from(commit.is_some());
    let entries_rolled_back = applied.min(rollback_len);
    let sequences_rolled_back = to_roll_back
        .iter()
        .scan(0, |end, s| {
            *end += s.entries.len();
            Some(*end)
        })
        .filter(|&end| end <= applied)
        .count();
    Ok(InterruptedRecovery {
        report: RecoveryReport {
            threads_scanned: directory.logs.len(),
            sequences_found: per_thread.iter().flatten().filter(live).count(),
            sequences_rolled_back,
            entries_rolled_back,
            cutoff_ts: cutoff,
        },
        words_invalidated: (applied - entries_rolled_back).min(stale.len()) as u64,
        writes_applied: applied as u64,
        completed: applied == plan.len(),
    })
}

/// The directory's recovery floor in `image`: 0 until a recovery has run,
/// then one past the largest timestamp the last recovery parsed. Every
/// sequence stamped below it is ignored by the next recovery.
pub fn recovery_floor(image: &PersistentImage, directory_addr: PAddr) -> u64 {
    image.read(directory_addr.add(RECOVERY_FLOOR_WORD))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::undo_log::{decode, LogGeometry, UndoLog};
    use crafty_common::{BreakdownRecorder, PersistentTm};
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
        let seqs = parse_sequences(f.logs[0].geometry().region(&image));
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
        assert_eq!(recovery_floor(&image, f.dir_addr), 8);
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
        let seqs = parse_sequences(f.logs[0].geometry().region(&image));
        // The first sequence was partially overwritten by the third; only
        // fully intact, anchored sequences may be reported.
        assert!(seqs.iter().all(|s| s.entries.len() == 2));
        assert!(seqs.iter().any(|s| s.ts.raw() == 6));
        assert!(
            !seqs.iter().any(|s| s.ts.raw() == 2),
            "the overwritten oldest sequence must not reappear"
        );
    }

    /// Recovery leaves the logs as they are and closes them with the
    /// floor: the sequence still parses, but a second recovery ignores it.
    #[test]
    fn recovery_keeps_the_logs_for_the_next_life() {
        let f = fixture(1, 16);
        let x = PAddr::new(2048);
        persist_sequence(&f, 0, &[(x, 0)], 2);
        let mut image = f.mem.crash();
        recover(&mut image, f.dir_addr).expect("recover");
        let seqs = parse_sequences(f.logs[0].geometry().region(&image));
        assert_eq!(seqs.len(), 1);
        assert_eq!((seqs[0].ts.raw(), seqs[0].marker_abs), (2, 1));
        assert_eq!(resume_at(&seqs), 2);
        assert_eq!(recovery_floor(&image, f.dir_addr), 3);
        // A second recovery over the recovered image is a no-op.
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

    /// The floor is every pass's last write: one past the largest parsed
    /// timestamp after a complete pass, still 0 after a pass that died one
    /// write short, and written by the re-run.
    #[test]
    fn recovery_commits_with_its_floor() {
        let (f, _, _, pristine) = interrupted_setup();
        let mut image = pristine.clone();
        let full = recover_interrupted(&mut image, f.dir_addr, u64::MAX).expect("full");
        assert_eq!(recovery_floor(&image, f.dir_addr), 9);
        assert_eq!(full.words_invalidated, 0, "no append was cut short");
        assert_eq!(
            full.writes_applied,
            full.report.entries_rolled_back as u64 + 1
        );

        let mut image = pristine;
        let short =
            recover_interrupted(&mut image, f.dir_addr, full.writes_applied - 1).expect("bounded");
        assert!(!short.completed);
        assert_eq!(recovery_floor(&image, f.dir_addr), 0);
        recover(&mut image, f.dir_addr).expect("re-recovery");
        assert_eq!(recovery_floor(&image, f.dir_addr), 9);
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
            // And a third pass is a no-op.
            let third = recover(&mut image, f.dir_addr).expect("third");
            assert_eq!(third.sequences_found, 0);
            assert_eq!(image, reference, "budget {budget}: the third pass wrote");
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
        assert_eq!(
            recovery_floor(&image, f.dir_addr),
            0,
            "the floor is the last write, not the first"
        );
    }

    /// The remains of an append the crash cut short must not outlive
    /// recovery. The first life's image holds one `Valid` data slot past
    /// its latest marker, naming `y` with a stale old value. The second
    /// life resumes on that slot: its first transaction logs its write of
    /// `x` there, and the second crash keeps that sequence's marker but not
    /// all of its data slot (neither word, only the meta word, or only the
    /// value word). Recovery must reject the sequence, so neither address
    /// moves: a data slot completed by the leftover's words would roll back
    /// a value no transaction wrote.
    #[test]
    fn a_cut_short_append_cannot_complete_a_next_life_sequence() {
        let cfg = crate::CraftyConfig::small_for_tests().with_max_threads(1);
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let crafty = crate::Crafty::new(Arc::clone(&mem), cfg);
        let (x, y) = (mem.reserve_persistent(1), mem.reserve_persistent(1));
        let mut thread = crafty.register_thread(0);
        thread.execute(&mut |ops| {
            ops.write(x, 5)?;
            ops.write(y, 42)
        });
        drop(thread);
        crafty.quiesce();
        // The cut-short append: its data slot persisted, its marker did not.
        let log = crafty.threads[0].undo_log;
        let g = log.geometry();
        let Ok(cut) = log.append_sequence(
            &crafty.htm,
            &[(y, 111)],
            crafty.clock.now(),
            &mut Vec::new(),
        );
        log.flush_entries(&mem, 0, cut.first_abs, cut.marker_abs);
        mem.drain(0);
        let mut image = mem.crash();
        let lost = g.slot_addr(cut.marker_abs);
        image.write(lost, 0);
        image.write(lost.add(1), 0);
        recover(&mut image, crafty.directory_addr()).expect("first recovery");

        let mem2 = Arc::new(MemorySpace::boot(&image, PmemConfig::small_for_tests()));
        let crafty2 = crate::Crafty::new(Arc::clone(&mem2), cfg);
        let next = crafty2.threads[0].undo_log.head(&mem2);
        let mut thread = crafty2.register_thread(0);
        thread.execute(&mut |ops| ops.write(x, 7));
        drop(thread);
        let crashed = mem2.crash();
        let (data, marker) = (g.slot_addr(next), g.slot_addr(next + 1));
        assert!(matches!(
            decode(crashed.read(data), crashed.read(data.add(1))),
            SlotState::Valid {
                entry: Entry::Data { addr, old_value: 5 },
                ..
            } if addr == x
        ));
        for persisted in [vec![], vec![data], vec![data.add(1)]] {
            let mut image2 = image.clone();
            for a in persisted.iter().copied().chain([marker, marker.add(1)]) {
                image2.write(a, crashed.read(a));
            }
            recover(&mut image2, crafty2.directory_addr()).expect("second recovery");
            assert_eq!(
                (image2.read(x), image2.read(y)),
                (5, 42),
                "data-slot words persisted: {persisted:?}"
            );
        }
    }
}
