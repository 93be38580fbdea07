//! Per-thread circular persistent undo logs.
//!
//! Each thread owns a circular log in persistent memory. During the Log
//! phase the executing hardware transaction appends one `<addr, oldValue>`
//! entry per persistent write plus a trailing `LOGGED` marker; after the
//! hardware transaction commits, the entries are flushed (CLWB without
//! drain — the next hardware transaction's fence semantics complete the
//! persist). The Redo or Validate phase later overwrites the marker with
//! `COMMITTED` and the commit timestamp (the paper's merged
//! LOGGED/COMMITTED optimization, Section 6).
//!
//! One writer serves every route: [`UndoLog::append_sequence`] encodes a
//! sequence once and stores it as at most two contiguous runs, and
//! [`UndoLog::commit_marker`] overwrites a marker, both through a
//! [`LogStore`] — a hardware transaction, or the runtime's line-granular
//! non-transactional store (software commits, quiesce).
//!
//! # Entry encoding (Section 5.2 + Section 6)
//!
//! Every entry is two 64-bit words. Persistence is only guaranteed at word
//! granularity, so recovery must detect entries whose two words did not
//! both persist. Following the paper, bits are stolen from the first word:
//!
//! ```text
//! data entry
//! meta word:  [63]=0 marker?  [62] wraparound parity   [61] old-value bit 0
//!             [60] present    [59] old-value bit 1     [47..0] address word index
//! value word: [63..2] old-value bits 63..2   [1..0] parity code (01 or 10)
//!
//! marker entry
//! meta word:  [63]=1 marker?  [62] wraparound parity   [59..48] entry count
//!             [60] present    [47..0] marker kind
//! value word: [63..2] timestamp (shifted left 2)  [1..0] parity code (01 or 10)
//! ```
//!
//! A data entry's old value needs all 64 bits, so its two lowest bits live
//! in the meta word and the value word's two lowest bits carry a
//! *wraparound parity code*: `01` on even laps, `10` on odd laps. An entry
//! is *fully persisted* iff its present bit is set, the meta parity bit
//! matches the lap, and the value word's code matches the meta parity.
//!
//! The code is two bits rather than one on purpose. The meta word's zero
//! state is covered by the present bit, but a value word that never
//! persisted reads as all zeros, and a single parity *bit* equal to the
//! even-lap value would accept that zero word as fully persisted —
//! decoding a half-persisted entry into a frankenstein `<addr, garbage>`
//! pair that rollback would then write into live data. Neither code value
//! is zero, so a missing value word decodes as `Torn` on every lap, and a
//! stale word from the previous lap carries the other code and is equally
//! rejected.
//!
//! A marker also records **how many data entries its sequence appended**
//! (meta bits 59..48, so a sequence is limited to 4095 entries). The count
//! makes every sequence self-describing: recovery anchors at a marker and
//! walks backward exactly `count` slots, and accepts the sequence only if
//! every one of them holds a current-lap data entry. A sequence that lost
//! *any* slot to the crash — a dropped line, a torn word, a stale lap —
//! was never drained, so by Crafty's ordering (undo entries are drained
//! before any in-place write) its in-place writes never started and the
//! whole sequence is safely discarded. Without the count, a marker whose
//! leading entries were dropped is indistinguishable from a complete
//! shorter sequence, and rolling back the surviving suffix would write
//! transient in-transaction values over live data.
//!
//! A marker's timestamp, by contrast, lives *entirely in the value word*
//! (shifted past the parity bit — timestamps are clock counts, far below
//! 2^63). This is deliberate, not cosmetic: the commit phases overwrite a
//! LOGGED marker with a COMMITTED one **in place**, and both versions
//! carry the same lap parity, so parity cannot detect a crash that
//! persists one word of the overwrite but not the other. With the
//! timestamp split across the words (as data entries do), such a mix would
//! decode as a valid marker carrying a *frankenstein* timestamp — bits of
//! the Log-phase timestamp spliced with a bit of the commit timestamp —
//! which can derail the recovery cut's rollback ordering. Keeping each
//! field within one word makes every word-granular persistence mix decode
//! to a legitimate `(kind, ts)` pair whose timestamp is one of the
//! sequence's real clock draws, either of which orders correctly.

use std::convert::Infallible;

use crafty_common::{PAddr, Timestamp};
use crafty_htm::{AbortCode, HtmRuntime, HwTxn};
use crafty_pmem::{MemorySpace, PersistentImage};

/// Bit 63 of the meta word: the entry is a LOGGED/COMMITTED marker.
const MARKER_BIT: u64 = 1 << 63;
/// Bit 62 of the meta word: wraparound parity.
const META_PARITY_BIT: u64 = 1 << 62;
/// Bit 61 of the meta word: bit 0 of a data entry's old value.
const STOLEN_PAYLOAD_BIT0: u64 = 1 << 61;
/// Bit 60 of the meta word: the slot has been written at least once.
const PRESENT_BIT: u64 = 1 << 60;
/// Bit 59 of the meta word: bit 1 of a data entry's old value.
const STOLEN_PAYLOAD_BIT1: u64 = 1 << 59;
/// Low 48 bits of the meta word: address word index or marker kind.
const ADDR_MASK: u64 = (1 << 48) - 1;
/// Shift of a marker's data-entry count within its meta word.
const MARKER_COUNT_SHIFT: u64 = 48;
/// Width mask of a marker's data-entry count (bits 59..48).
const MARKER_COUNT_MASK: u64 = 0xFFF;
/// Bits 1..0 of the value word: the wraparound parity code.
const VALUE_PARITY_MASK: u64 = 0b11;

/// The value word's two-bit parity code for a lap parity: `01` on even
/// laps, `10` on odd laps — never zero, so an unpersisted (all-zero) value
/// word can never pass as fully persisted (see the module docs).
fn value_parity_code(parity: u64) -> u64 {
    if parity & 1 == 1 {
        0b10
    } else {
        0b01
    }
}

/// Whether a marker entry was written by the Log phase or overwritten at
/// commit time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MarkerKind {
    /// The sequence's undo entries are complete and persisted; its writes
    /// may or may not have been performed.
    Logged,
    /// The sequence's writes were committed by a Redo or Validate phase
    /// (or an SGL section) at the recorded timestamp.
    Committed,
}

impl MarkerKind {
    fn code(self) -> u64 {
        match self {
            MarkerKind::Logged => 1,
            MarkerKind::Committed => 2,
        }
    }

    fn from_code(code: u64) -> Option<Self> {
        match code {
            1 => Some(MarkerKind::Logged),
            2 => Some(MarkerKind::Committed),
            _ => None,
        }
    }
}

/// A decoded, fully persisted log entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Entry {
    /// `<addr, oldValue>`: `addr` held `old_value` before the logged
    /// transaction's write.
    Data {
        /// The written-to persistent address.
        addr: PAddr,
        /// The value the address held before the write.
        old_value: u64,
    },
    /// A LOGGED or COMMITTED marker concluding a sequence.
    Marker {
        /// Whether the sequence was merely logged or also committed.
        kind: MarkerKind,
        /// The sequence timestamp (Log time, overwritten with commit time).
        ts: Timestamp,
        /// How many data entries the sequence appended before this marker
        /// (identical in the LOGGED and COMMITTED versions, so an
        /// in-place marker overwrite can never tear it).
        data_entries: u64,
    },
}

/// The state of one log slot as seen by the recovery observer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SlotState {
    /// The slot has never been written (or only partially persisted its
    /// present bit); it carries no information.
    Absent,
    /// The slot was written but its two words carry mismatched parity —
    /// the entry did not fully persist.
    Torn,
    /// A fully persisted entry with the given lap parity.
    Valid {
        /// The wraparound parity both words carry.
        parity: u64,
        /// The decoded entry.
        entry: Entry,
    },
}

/// Encodes an entry into its two log words (see the module docs for why
/// markers keep their whole timestamp in the value word).
fn encode(entry: Entry, parity: u64) -> (u64, u64) {
    let parity = parity & 1;
    let (meta_fields, value_payload) = match entry {
        Entry::Data { addr, old_value } => {
            debug_assert!(addr.word() <= ADDR_MASK, "address exceeds 48-bit log field");
            let mut stolen = 0;
            if old_value & 1 == 1 {
                stolen |= STOLEN_PAYLOAD_BIT0;
            }
            if old_value & 2 == 2 {
                stolen |= STOLEN_PAYLOAD_BIT1;
            }
            (
                stolen | (addr.word() & ADDR_MASK),
                old_value & !VALUE_PARITY_MASK,
            )
        }
        Entry::Marker {
            kind,
            ts,
            data_entries,
        } => {
            debug_assert!(
                ts.raw() < 1 << 62,
                "timestamp exceeds the 62-bit marker field"
            );
            debug_assert!(
                data_entries <= MARKER_COUNT_MASK,
                "sequence exceeds the 4095-entry marker count field"
            );
            (
                MARKER_BIT
                    | ((data_entries & MARKER_COUNT_MASK) << MARKER_COUNT_SHIFT)
                    | kind.code(),
                ts.raw() << 2,
            )
        }
    };
    let mut meta = PRESENT_BIT | meta_fields;
    if parity == 1 {
        meta |= META_PARITY_BIT;
    }
    let value = value_payload | value_parity_code(parity);
    (meta, value)
}

/// Decodes two log words into a [`SlotState`].
pub fn decode(meta: u64, value: u64) -> SlotState {
    if meta & PRESENT_BIT == 0 {
        return SlotState::Absent;
    }
    let meta_parity = u64::from(meta & META_PARITY_BIT != 0);
    if value & VALUE_PARITY_MASK != value_parity_code(meta_parity) {
        return SlotState::Torn;
    }
    let entry = if meta & MARKER_BIT != 0 {
        match MarkerKind::from_code(meta & ADDR_MASK) {
            Some(kind) => Entry::Marker {
                kind,
                ts: Timestamp::from_raw(value >> 2),
                data_entries: (meta >> MARKER_COUNT_SHIFT) & MARKER_COUNT_MASK,
            },
            None => return SlotState::Torn,
        }
    } else {
        let old_value = (value & !VALUE_PARITY_MASK)
            | (u64::from(meta & STOLEN_PAYLOAD_BIT1 != 0) << 1)
            | u64::from(meta & STOLEN_PAYLOAD_BIT0 != 0);
        Entry::Data {
            addr: PAddr::new(meta & ADDR_MASK),
            old_value,
        }
    };
    SlotState::Valid {
        parity: meta_parity,
        entry,
    }
}

/// Where in memory a thread's circular log lives. This is all the recovery
/// observer needs (it reads it from the persistent log directory).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LogGeometry {
    /// First word of the log region (2 × `capacity` words long).
    pub start: PAddr,
    /// Capacity in entries.
    pub capacity: u64,
}

impl LogGeometry {
    /// Number of persistent words the log occupies.
    pub fn words(&self) -> u64 {
        self.capacity * 2
    }

    /// The address of the meta word of the slot used by absolute entry
    /// index `abs`.
    pub fn slot_addr(&self, abs: u64) -> PAddr {
        self.start.add((abs % self.capacity) * 2)
    }

    /// The wraparound parity of absolute entry index `abs`.
    pub fn parity(&self, abs: u64) -> u64 {
        (abs / self.capacity) & 1
    }

    /// Reads slot `slot` (0-based position within the region, *not* an
    /// absolute index) from a crashed image.
    pub fn read_slot(&self, image: &PersistentImage, slot: u64) -> SlotState {
        let addr = self.start.add(slot * 2);
        decode(image.read(addr), image.read(addr.add(1)))
    }
}

/// Result of appending a sequence during the Log phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AppendInfo {
    /// Absolute index of the first data entry (equals the marker index for
    /// an empty sequence).
    pub first_abs: u64,
    /// Absolute index of the trailing marker entry.
    pub marker_abs: u64,
    /// Number of data entries (excluding the marker).
    pub data_entries: u64,
}

/// Where [`UndoLog`] reads its head and stores encoded log words: a
/// hardware transaction (`&mut HwTxn`), or the runtime's non-transactional
/// store (`&HtmRuntime`, which cannot fail), which locks each line once
/// and so still dooms hardware transactions that read it.
pub trait LogStore {
    /// What a failed access reports.
    type Error;
    /// Reads the word at `addr`.
    fn load(&mut self, addr: PAddr) -> Result<u64, Self::Error>;
    /// Stores `words` contiguously from `addr`, by the line.
    fn store(&mut self, addr: PAddr, words: &[u64]) -> Result<(), Self::Error>;
}

impl LogStore for &mut HwTxn<'_> {
    type Error = AbortCode;

    fn load(&mut self, addr: PAddr) -> Result<u64, AbortCode> {
        self.read(addr)
    }

    fn store(&mut self, addr: PAddr, words: &[u64]) -> Result<(), AbortCode> {
        self.write_words(addr, words)
    }
}

impl LogStore for &HtmRuntime {
    type Error = Infallible;

    fn load(&mut self, addr: PAddr) -> Result<u64, Infallible> {
        Ok(self.nontx_read(addr))
    }

    fn store(&mut self, addr: PAddr, words: &[u64]) -> Result<(), Infallible> {
        self.nontx_write_words(addr, words);
        Ok(())
    }
}

/// A per-thread handle to its circular persistent undo log.
///
/// The log head (an absolute, monotonically increasing entry count) lives
/// in *volatile simulated memory* and is read and written inside hardware
/// transactions: an aborted Log phase therefore rolls the head back
/// automatically, and another thread forcing a refresh entry into this log
/// (Section 5.2) synchronizes with the owner through ordinary HTM conflict
/// detection.
#[derive(Clone, Copy, Debug)]
pub struct UndoLog {
    geometry: LogGeometry,
    /// Volatile simulated word holding the absolute entry count.
    head_addr: PAddr,
}

impl UndoLog {
    /// Creates a handle over an already-reserved log region and head word.
    pub fn new(geometry: LogGeometry, head_addr: PAddr) -> Self {
        UndoLog {
            geometry,
            head_addr,
        }
    }

    /// The log's placement and capacity.
    pub fn geometry(&self) -> LogGeometry {
        self.geometry
    }

    /// The volatile word holding the absolute entry count.
    pub fn head_addr(&self) -> PAddr {
        self.head_addr
    }

    /// Reads the current absolute head (non-transactionally).
    pub fn head(&self, mem: &MemorySpace) -> u64 {
        mem.read(self.head_addr)
    }

    /// Appends `entries` (in order) followed by a `kind` marker carrying
    /// `ts`, through `store`: inside a hardware transaction (nothing
    /// becomes visible or persistent unless it commits) or through the
    /// runtime's non-transactional store.
    ///
    /// The sequence is encoded into `words` (scratch the caller reuses, so
    /// steady-state appends allocate nothing) and stored as at most two
    /// contiguous runs — up to the end of the region and, on wrap-around,
    /// from its start — so either store pays once per line, not per word.
    ///
    /// # Errors
    ///
    /// Propagates any hardware-transaction abort.
    pub fn append_sequence<S: LogStore>(
        &self,
        mut store: S,
        entries: &[(PAddr, u64)],
        kind: MarkerKind,
        ts: Timestamp,
        words: &mut Vec<u64>,
    ) -> Result<AppendInfo, S::Error> {
        let data_entries = entries.len() as u64;
        assert!(
            data_entries < self.geometry.capacity,
            "a sequence must fit in the log region"
        );
        let head = store.load(self.head_addr)?;
        let marker_abs = head + data_entries;
        let marker = Entry::Marker {
            kind,
            ts,
            data_entries,
        };
        words.clear();
        let data = entries
            .iter()
            .map(|&(addr, old_value)| Entry::Data { addr, old_value });
        for (abs, entry) in (head..).zip(data.chain([marker])) {
            let (meta, value) = encode(entry, self.geometry.parity(abs));
            words.extend([meta, value]);
        }
        let first_slot = head % self.geometry.capacity;
        let before_wrap = words
            .len()
            .min(((self.geometry.capacity - first_slot) * 2) as usize);
        let (tail, wrapped) = words.split_at(before_wrap);
        store.store(self.geometry.slot_addr(head), tail)?;
        store.store(self.geometry.start, wrapped)?;
        store.store(self.head_addr, &[marker_abs + 1])?;
        Ok(AppendInfo {
            first_abs: head,
            marker_abs,
            data_entries,
        })
    }

    /// Overwrites the marker at `marker_abs` with a `COMMITTED` entry
    /// carrying `ts`, through `store`. `data_entries` must repeat the
    /// sequence's entry count so the overwritten marker stays
    /// self-describing.
    ///
    /// # Errors
    ///
    /// Propagates any hardware-transaction abort.
    pub fn commit_marker<S: LogStore>(
        &self,
        mut store: S,
        marker_abs: u64,
        data_entries: u64,
        ts: Timestamp,
    ) -> Result<(), S::Error> {
        let marker = Entry::Marker {
            kind: MarkerKind::Committed,
            ts,
            data_entries,
        };
        let (meta, value) = encode(marker, self.geometry.parity(marker_abs));
        store.store(self.geometry.slot_addr(marker_abs), &[meta, value])
    }

    /// Issues CLWBs (no drain) for every line holding entries
    /// `[first_abs, last_abs]`, one queue interaction per touched line and
    /// one fence for the lot ([`MemorySpace::clwb_lines`]).
    ///
    /// Entry slots are laid out contiguously, so the touched words form at
    /// most two contiguous ranges (the tail of the region and, after a
    /// wraparound, its start). The flush walks *lines*, not slot words: a
    /// line holding four freshly appended entries is enqueued once,
    /// instead of paying eight per-word queue interactions that the
    /// queue-side dedup would then have to absorb. The entries' dirty
    /// words are already recorded in the lines' persistence masks (every
    /// transactional or `nontx` store marks its word), so the eventual
    /// drain persists exactly the appended slots.
    pub fn flush_entries(&self, mem: &MemorySpace, tid: usize, first_abs: u64, last_abs: u64) {
        debug_assert!(last_abs >= first_abs);
        debug_assert!(last_abs - first_abs < self.geometry.capacity);
        let capacity = self.geometry.capacity;
        let entries = last_abs - first_abs + 1;
        let first_slot = first_abs % capacity;
        let before_wrap = entries.min(capacity - first_slot);
        let start = self.geometry.start.word();
        let lines = [(first_slot, before_wrap), (0, entries - before_wrap)]
            .into_iter()
            .filter(|&(_, count)| count > 0)
            .flat_map(|(slot, count)| {
                let first_word = start + slot * 2;
                let last_word = first_word + count * 2 - 1;
                PAddr::new(first_word).line().index()..=PAddr::new(last_word).line().index()
            })
            .map(crafty_common::LineId::new);
        mem.clwb_lines(tid, lines);
    }

    /// Issues a CLWB for the marker entry at `marker_abs`.
    pub fn flush_marker(&self, mem: &MemorySpace, tid: usize, marker_abs: u64) {
        mem.clwb(tid, self.geometry.slot_addr(marker_abs));
    }

    /// True if appending `extra` more entries would cross into the half of
    /// the circular log that the thread is about to start overwriting
    /// (the trigger point for the Section 5.2 lag checks).
    pub fn crosses_half(&self, head: u64, extra: u64) -> bool {
        let half = self.geometry.capacity / 2;
        if half == 0 {
            return false;
        }
        (head / half) != ((head + extra) / half)
    }
}

/// The persistent log directory: the root object recovery starts from.
///
/// Layout (one word each): magic, thread count, per-thread log capacity,
/// recovery phase word (`RECOVERY_FLAG_WORD`), then one log start
/// address per thread. Written and persisted once when the engine is
/// constructed; only recovery ever touches the phase word afterwards.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LogDirectory {
    /// One geometry per worker thread, indexed by thread id.
    pub logs: Vec<LogGeometry>,
}

const DIRECTORY_MAGIC: u64 = 0xC4AF_2020_0D0A_7E57;

/// Offset of the recovery phase word within the directory header. Zero at
/// rest; recovery sets it once its rollback is fully applied and clears it
/// after log zeroing completes, so an interrupted recovery pass can tell
/// whether re-parsing the logs is still safe (see
/// [`crate::recovery::recover_interrupted`]).
pub(crate) const RECOVERY_FLAG_WORD: u64 = 3;

impl LogDirectory {
    /// Number of words a directory for `threads` threads occupies.
    pub fn words_needed(threads: usize) -> u64 {
        4 + threads as u64
    }

    /// Writes and persists the directory at `at`.
    pub fn store(&self, mem: &MemorySpace, tid: usize, at: PAddr) {
        assert!(
            !self.logs.is_empty(),
            "directory must describe at least one log"
        );
        let capacity = self.logs[0].capacity;
        assert!(
            self.logs.iter().all(|g| g.capacity == capacity),
            "all per-thread logs must share a capacity"
        );
        mem.write(at, DIRECTORY_MAGIC);
        mem.write(at.add(1), self.logs.len() as u64);
        mem.write(at.add(2), capacity);
        mem.write(at.add(RECOVERY_FLAG_WORD), 0);
        for (i, g) in self.logs.iter().enumerate() {
            mem.write(at.add(4 + i as u64), g.start.word());
        }
        mem.persist_ranges(tid, &[(at, Self::words_needed(self.logs.len()))]);
    }

    /// Reads a directory back from a crashed image. Returns `None` if the
    /// magic number does not match (no Crafty heap at `at`).
    pub fn load(image: &PersistentImage, at: PAddr) -> Option<LogDirectory> {
        if image.read(at) != DIRECTORY_MAGIC {
            return None;
        }
        let threads = image.read(at.add(1)) as usize;
        let capacity = image.read(at.add(2));
        let logs = (0..threads)
            .map(|i| LogGeometry {
                start: PAddr::new(image.read(at.add(4 + i as u64))),
                capacity,
            })
            .collect();
        Some(LogDirectory { logs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crafty_common::BreakdownRecorder;
    use crafty_htm::HtmConfig;
    use crafty_pmem::PmemConfig;
    use std::sync::Arc;

    fn setup() -> (Arc<MemorySpace>, HtmRuntime, UndoLog) {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let htm = HtmRuntime::new(
            Arc::clone(&mem),
            HtmConfig::skylake(),
            Arc::new(BreakdownRecorder::new()),
        );
        let capacity = 16;
        let start = mem.reserve_persistent(capacity * 2);
        let head = mem.reserve_volatile(1);
        let log = UndoLog::new(LogGeometry { start, capacity }, head);
        (mem, htm, log)
    }

    #[test]
    fn encode_decode_round_trips_data_entries() {
        for parity in [0, 1] {
            for value in [0u64, 1, 2, 3, u64::MAX, 0x8000_0000_0000_0001] {
                let entry = Entry::Data {
                    addr: PAddr::new(0x1234),
                    old_value: value,
                };
                let (m, v) = encode(entry, parity);
                match decode(m, v) {
                    SlotState::Valid {
                        parity: p,
                        entry: e,
                    } => {
                        assert_eq!(p, parity);
                        assert_eq!(e, entry);
                    }
                    other => panic!("expected valid entry, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn encode_decode_round_trips_markers() {
        for kind in [MarkerKind::Logged, MarkerKind::Committed] {
            let entry = Entry::Marker {
                kind,
                ts: Timestamp::from_raw(0xABCD_EF01_2345),
                data_entries: 0xABC,
            };
            let (m, v) = encode(entry, 1);
            assert!(matches!(
                decode(m, v),
                SlotState::Valid { parity: 1, entry: e } if e == entry
            ));
        }
    }

    #[test]
    fn zero_words_decode_as_absent() {
        assert_eq!(decode(0, 0), SlotState::Absent);
    }

    #[test]
    fn torn_marker_overwrite_never_yields_a_frankenstein_timestamp() {
        // The commit phases overwrite a LOGGED marker with a COMMITTED one
        // in place; both versions carry the same lap parity, so a crash may
        // persist any combination of the two words undetected. Every such
        // combination must decode to a marker whose timestamp is one of the
        // two real clock draws — never a splice of their bits.
        let log_ts = Timestamp::from_raw(0x1234_5677);
        let commit_ts = Timestamp::from_raw(0x1234_5842);
        for parity in [0, 1] {
            let (m_logged, v_logged) = encode(
                Entry::Marker {
                    kind: MarkerKind::Logged,
                    ts: log_ts,
                    data_entries: 6,
                },
                parity,
            );
            let (m_committed, v_committed) = encode(
                Entry::Marker {
                    kind: MarkerKind::Committed,
                    ts: commit_ts,
                    data_entries: 6,
                },
                parity,
            );
            for (m, v) in [
                (m_logged, v_logged),
                (m_logged, v_committed),
                (m_committed, v_logged),
                (m_committed, v_committed),
            ] {
                match decode(m, v) {
                    SlotState::Valid {
                        entry: Entry::Marker { ts, .. },
                        ..
                    } => assert!(
                        ts == log_ts || ts == commit_ts,
                        "mixed marker words decoded to a spliced timestamp {ts:?}"
                    ),
                    other => panic!("mixed marker words must stay valid markers, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn mismatched_parity_decodes_as_torn() {
        for parity in [0, 1] {
            let (m, v) = encode(
                Entry::Data {
                    addr: PAddr::new(5),
                    old_value: 7,
                },
                parity,
            );
            // Simulate the value word still carrying the previous lap's
            // parity code.
            let stale_value = (v & !0b11) | value_parity_code(parity ^ 1);
            assert_eq!(decode(m, stale_value), SlotState::Torn);
        }
    }

    #[test]
    fn missing_value_word_decodes_as_torn_on_both_laps() {
        // A value word that never persisted reads as zero. On either lap
        // this must surface as Torn — a one-bit parity scheme would accept
        // it on even laps and hand recovery a frankenstein old value.
        for parity in [0, 1] {
            for entry in [
                Entry::Data {
                    addr: PAddr::new(5),
                    old_value: 991,
                },
                Entry::Marker {
                    kind: MarkerKind::Logged,
                    ts: Timestamp::from_raw(9),
                    data_entries: 1,
                },
            ] {
                let (m, _) = encode(entry, parity);
                assert_eq!(decode(m, 0), SlotState::Torn, "parity {parity}: {entry:?}");
            }
        }
    }

    #[test]
    fn append_inside_transaction_is_invisible_until_commit() {
        let (mem, htm, log) = setup();
        let mut txn = htm.begin(0);
        let info = log
            .append_sequence(
                &mut txn,
                &[(PAddr::new(64), 9)],
                MarkerKind::Logged,
                Timestamp::from_raw(3),
                &mut Vec::new(),
            )
            .expect("append");
        assert_eq!(info.data_entries, 1);
        assert_eq!(log.head(&mem), 0, "head update must be buffered");
        txn.commit().expect("commit");
        assert_eq!(log.head(&mem), 2);
    }

    #[test]
    fn committed_and_flushed_entries_survive_a_crash() {
        let (mem, htm, log) = setup();
        let data = [(PAddr::new(64), 11u64), (PAddr::new(72), 22u64)];
        let mut txn = htm.begin(0);
        let info = log
            .append_sequence(
                &mut txn,
                &data,
                MarkerKind::Logged,
                Timestamp::from_raw(5),
                &mut Vec::new(),
            )
            .expect("append");
        txn.commit().expect("commit");
        log.flush_entries(&mem, 0, info.first_abs, info.marker_abs);
        mem.drain(0);
        let image = mem.crash();
        let g = log.geometry();
        match g.read_slot(&image, 0) {
            SlotState::Valid {
                entry: Entry::Data { addr, old_value },
                ..
            } => {
                assert_eq!(addr, PAddr::new(64));
                assert_eq!(old_value, 11);
            }
            other => panic!("slot 0: {other:?}"),
        }
        match g.read_slot(&image, 2) {
            SlotState::Valid {
                entry: Entry::Marker { kind, ts, .. },
                ..
            } => {
                assert_eq!(kind, MarkerKind::Logged);
                assert_eq!(ts.raw(), 5);
            }
            other => panic!("slot 2: {other:?}"),
        }
    }

    #[test]
    fn commit_marker_overwrites_logged_entry() {
        let (mem, htm, log) = setup();
        let mut txn = htm.begin(0);
        let info = log
            .append_sequence(
                &mut txn,
                &[(PAddr::new(64), 1)],
                MarkerKind::Logged,
                Timestamp::from_raw(7),
                &mut Vec::new(),
            )
            .expect("append");
        txn.commit().expect("commit");
        let mut txn2 = htm.begin(0);
        log.commit_marker(
            &mut txn2,
            info.marker_abs,
            info.data_entries,
            Timestamp::from_raw(9),
        )
        .expect("commit marker");
        txn2.commit().expect("commit");
        log.flush_entries(&mem, 0, info.first_abs, info.marker_abs);
        mem.drain(0);
        let image = mem.crash();
        match log.geometry().read_slot(&image, info.marker_abs) {
            SlotState::Valid {
                entry: Entry::Marker { kind, ts, .. },
                ..
            } => {
                assert_eq!(kind, MarkerKind::Committed);
                assert_eq!(ts.raw(), 9);
            }
            other => panic!("marker slot: {other:?}"),
        }
    }

    #[test]
    fn wraparound_flips_parity() {
        let (mem, htm, log) = setup();
        // Capacity is 16 entries; append 3 sequences of 5+1 entries each to
        // wrap past the end. The third starts at slot 12, so its run splits
        // at the end of the region: four entries in the tail, then the
        // fifth and the marker from the start.
        let data: Vec<(PAddr, u64)> = (0..5).map(|i| (PAddr::new(64 + i), i)).collect();
        let mut words = Vec::new();
        for round in 0..3 {
            let mut txn = htm.begin(0);
            let info = log
                .append_sequence(
                    &mut txn,
                    &data,
                    MarkerKind::Logged,
                    Timestamp::from_raw(round + 1),
                    &mut words,
                )
                .expect("append");
            assert_eq!(
                (info.first_abs, info.marker_abs),
                (round * 6, round * 6 + 5)
            );
            assert_eq!(txn.write_set_len(), 12 + 1, "entry words plus the head");
            txn.commit().expect("commit");
        }
        assert_eq!(log.head(&mem), 18);
        let g = log.geometry();
        assert_eq!((g.parity(15), g.parity(16)), (0, 1));
        // Every slot of the region holds what a word-by-word append leaves:
        // the third sequence over slots 12..16 (lap 0) and 0..2 (lap 1),
        // the tail of the first over 2..6, the second over 6..12.
        let image_slot = |slot: u64| {
            let addr = g.start.add(slot * 2);
            decode(mem.read(addr), mem.read(addr.add(1)))
        };
        for slot in 0..16u64 {
            let abs = if slot < 2 { slot + 16 } else { slot };
            let expected = match abs % 6 {
                5 => Entry::Marker {
                    kind: MarkerKind::Logged,
                    ts: Timestamp::from_raw(abs / 6 + 1),
                    data_entries: 5,
                },
                i => Entry::Data {
                    addr: PAddr::new(64 + i),
                    old_value: i,
                },
            };
            let parity = g.parity(abs);
            assert_eq!(
                image_slot(slot),
                SlotState::Valid {
                    parity,
                    entry: expected
                },
                "slot {slot}"
            );
        }
        assert_eq!(
            mem.read(g.start.add(32)),
            0,
            "nothing written past the region"
        );
    }

    #[test]
    fn nontx_append_is_immediately_visible() {
        let (mem, htm, log) = setup();
        let Ok(info) = log.append_sequence(
            &htm,
            &[(PAddr::new(64), 4)],
            MarkerKind::Committed,
            Timestamp::from_raw(2),
            &mut Vec::new(),
        );
        assert_eq!(log.head(&mem), 2);
        let Ok(()) = log.commit_marker(
            &htm,
            info.marker_abs,
            info.data_entries,
            Timestamp::from_raw(3),
        );
        log.flush_entries(&mem, 0, info.first_abs, info.marker_abs);
        mem.drain(0);
        match log.geometry().read_slot(&mem.crash(), 1) {
            SlotState::Valid {
                entry: Entry::Marker { kind, ts, .. },
                ..
            } => {
                assert_eq!(kind, MarkerKind::Committed);
                assert_eq!(ts.raw(), 3);
            }
            other => panic!("marker: {other:?}"),
        }
    }

    /// The one writer, two stores: the same sequence appended and
    /// committed through a hardware transaction and non-transactionally,
    /// from a head whose run wraps the region end, leaves the same log
    /// words and head.
    #[test]
    fn hardware_and_nontx_appends_leave_identical_log_words() {
        let data: Vec<(PAddr, u64)> = (0..5).map(|i| (PAddr::new(64 + i), 3 * i + 1)).collect();
        let ts = Timestamp::from_raw(11);
        let run = |hardware: bool| {
            let (mem, htm, log) = setup();
            htm.nontx_write(log.head_addr(), 29); // slot 13 of lap 1
            let info = if hardware {
                let mut txn = htm.begin(0);
                let info = log
                    .append_sequence(&mut txn, &data, MarkerKind::Logged, ts, &mut Vec::new())
                    .expect("append");
                log.commit_marker(&mut txn, info.marker_abs, info.data_entries, ts)
                    .expect("commit marker");
                txn.commit().expect("commit");
                info
            } else {
                let Ok(info) =
                    log.append_sequence(&htm, &data, MarkerKind::Logged, ts, &mut Vec::new());
                let Ok(()) = log.commit_marker(&htm, info.marker_abs, info.data_entries, ts);
                info
            };
            assert_eq!((info.first_abs, info.marker_abs), (29, 34));
            let g = log.geometry();
            let words: Vec<u64> = (0..g.words()).map(|w| mem.read(g.start.add(w))).collect();
            (words, log.head(&mem))
        };
        let (hardware, nontx) = (run(true), run(false));
        assert_eq!(hardware.1, 35);
        assert!(hardware.0[..6].iter().all(|&w| w != 0), "the run wrapped");
        assert_eq!(hardware, nontx);
    }

    #[test]
    fn crosses_half_detects_boundary() {
        let (_, _, log) = setup(); // capacity 16, half 8
        assert!(!log.crosses_half(0, 7));
        assert!(log.crosses_half(0, 8));
        assert!(log.crosses_half(7, 1));
        assert!(!log.crosses_half(8, 7));
        assert!(log.crosses_half(15, 1));
    }

    #[test]
    fn directory_round_trips_through_a_crash() {
        let (mem, _, log) = setup();
        let dir_at = mem.reserve_persistent(LogDirectory::words_needed(2));
        let other = LogGeometry {
            start: mem.reserve_persistent(32),
            capacity: 16,
        };
        let dir = LogDirectory {
            logs: vec![log.geometry(), other],
        };
        dir.store(&mem, 0, dir_at);
        let image = mem.crash();
        let loaded = LogDirectory::load(&image, dir_at).expect("directory present");
        assert_eq!(loaded, dir);
        assert_eq!(LogDirectory::load(&image, PAddr::new(8_000)), None);
    }
}
