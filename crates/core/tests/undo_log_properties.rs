//! Property-based tests of the undo-log entry encoding and the recovery
//! observer's sequence parser (Sections 5.1–5.2). These are the invariants
//! the crash tests rely on, exercised directly and exhaustively.

use crafty_common::{BreakdownRecorder, PAddr, Timestamp};
use crafty_core::recovery::parse_sequences;
use crafty_core::undo_log::{decode, Entry, LogGeometry, UndoLog};
use crafty_htm::{HtmConfig, HtmRuntime};
use crafty_pmem::{MemorySpace, PmemConfig};
use proptest::prelude::*;
use std::sync::Arc;

fn fixture(capacity: u64) -> (Arc<MemorySpace>, HtmRuntime, UndoLog) {
    let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
    let htm = HtmRuntime::new(
        Arc::clone(&mem),
        HtmConfig::skylake(),
        Arc::new(BreakdownRecorder::new()),
    );
    let start = mem.reserve_persistent(capacity * 2);
    let head = mem.reserve_volatile(1);
    let log = UndoLog::new(LogGeometry { start, capacity }, head);
    (mem, htm, log)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Torn entries (any single word failing to persist) are always
    /// detected: flipping either word of an encoded entry to a stale value
    /// with the other lap's parity never decodes as a valid entry of the
    /// current lap.
    #[test]
    fn stale_word_is_never_accepted(addr in 1u64..(1 << 40), value: u64, parity in 0u64..2) {
        let (mem, htm, log) = fixture(16);
        // Write one data entry with the chosen parity by preloading the
        // head so that the absolute index lands on the right lap.
        let head_preload = parity * 16;
        htm.nontx_write(log.head_addr(), head_preload);
        let Ok(info) = log.append_sequence(
            &htm,
            &[(PAddr::new(addr % (1 << 20)), value)],
            Timestamp::from_raw(7),
            &mut Vec::new(),
        );
        log.flush_entries(&mem, 0, info.first_abs, info.marker_abs);
        mem.drain(0);
        let slot = log.geometry().slot_addr(info.first_abs);
        let meta = mem.read(slot);
        let val = mem.read(slot.add(1));
        // Both words present: decodes as valid with the requested parity.
        match decode(meta, val) {
            crafty_core::SlotState::Valid { parity: p, entry } => {
                prop_assert_eq!(p, parity & 1);
                let is_data = matches!(entry, Entry::Data { .. });
                prop_assert!(is_data);
            }
            other => return Err(TestCaseError::fail(format!("expected valid, got {other:?}"))),
        }
        // Value word from the other lap (stale): must be torn or decode to
        // the other parity, never a current-lap entry with wrong contents.
        let stale_val = val ^ 1;
        match decode(meta, stale_val) {
            crafty_core::SlotState::Torn => {}
            crafty_core::SlotState::Absent => {}
            crafty_core::SlotState::Valid { parity: p, .. } => {
                prop_assert_ne!(p, parity & 1, "stale word accepted as current lap");
            }
        }
    }

    /// Appending N sequences and crashing after persisting them always
    /// yields exactly the sequences that fit in the log, in order, with
    /// their timestamps and entries intact — for any mix of sequence sizes.
    #[test]
    fn parser_recovers_persisted_sequences_exactly(
        sizes in prop::collection::vec(0usize..5, 1..6),
    ) {
        let capacity = 64;
        let (mem, htm, log) = fixture(capacity);
        let mut expected = Vec::new();
        for (i, &size) in sizes.iter().enumerate() {
            let entries: Vec<(PAddr, u64)> = (0..size)
                .map(|j| (PAddr::new(4096 + (i * 8 + j) as u64), (i * 100 + j) as u64))
                .collect();
            let ts = Timestamp::from_raw((i as u64 + 1) * 10);
            let Ok(info) = log.append_sequence(&htm, &entries, ts, &mut Vec::new());
            log.flush_entries(&mem, 0, info.first_abs, info.marker_abs);
            mem.drain(0);
            expected.push((ts, entries));
        }
        let image = mem.crash();
        let sequences = parse_sequences(log.geometry().region(&image));
        prop_assert_eq!(sequences.len(), expected.len());
        for (seq, (ts, entries)) in sequences.iter().zip(&expected) {
            prop_assert_eq!(seq.ts, *ts);
            prop_assert_eq!(&seq.entries, entries);
        }
    }

    /// A crash that loses the flush of the *last* sequence never corrupts
    /// the earlier, fully persisted ones.
    #[test]
    fn unflushed_tail_does_not_affect_persisted_prefix(tail_size in 1usize..6) {
        let (mem, htm, log) = fixture(64);
        let first = [(PAddr::new(4096), 1u64), (PAddr::new(4104), 2u64)];
        let Ok(info) = log.append_sequence(&htm, &first, Timestamp::from_raw(5), &mut Vec::new());
        log.flush_entries(&mem, 0, info.first_abs, info.marker_abs);
        mem.drain(0);
        // Second sequence appended but never flushed.
        let tail: Vec<(PAddr, u64)> = (0..tail_size)
            .map(|j| (PAddr::new(8192 + j as u64), j as u64))
            .collect();
        let Ok(_) = log.append_sequence(&htm, &tail, Timestamp::from_raw(9), &mut Vec::new());
        let image = mem.crash();
        let sequences = parse_sequences(log.geometry().region(&image));
        prop_assert!(!sequences.is_empty());
        prop_assert_eq!(sequences[0].ts, Timestamp::from_raw(5));
        prop_assert_eq!(sequences[0].entries.len(), 2);
        // The unflushed tail either vanished entirely or parsed as the
        // second sequence; it must never corrupt the first.
        prop_assert!(sequences.len() <= 2);
    }
}
