//! A warmed drain is a drain: `drain_warming` only loads.
//!
//! Twin spaces run one seeded schedule of `write`, `write_line`, `clwb`,
//! `clwb_lines` and drains on two thread slots. At every drain one twin
//! calls `drain(tid)` and the other `drain_warming(tid, lines)`, with a
//! warm set that mixes queued and unqueued persistent lines, volatile
//! lines, lines past the space, the last persistent line (which straddles
//! the region's end) and a line named twice. The twins must agree on
//! every [`PmemStats`] after every step, on the fault clock, on the trace
//! events each thread recorded, on both views of every word, and on the
//! crash images under the strict model and two relaxed lotteries, with
//! the space itself configured under the strict, relaxed and adversarial
//! models in turn.

use crafty_common::trace::{self, LevelGuard, TraceEventKind, TraceLevel};
use crafty_common::{LineId, PAddr, SplitMix64, WORDS_PER_LINE};
use crafty_pmem::{CrashModel, FaultPlan, LatencyModel, MemorySpace, PmemConfig, PmemStats};

/// Persistent words: not a multiple of the line, so the last persistent
/// line straddles the end of the region.
const PERSISTENT_WORDS: u64 = 64 * WORDS_PER_LINE + 3;
const VOLATILE_WORDS: u64 = 16 * WORDS_PER_LINE;
const TIDS: usize = 2;

enum Op {
    Write(PAddr, u64),
    WriteLine(LineId, [u64; WORDS_PER_LINE as usize], u8),
    Clwb(usize, PAddr),
    ClwbLines(usize, Vec<LineId>),
    Drain(usize, Vec<LineId>),
}

fn last_persistent_line() -> u64 {
    (PERSISTENT_WORDS - 1) / WORDS_PER_LINE
}

/// A line the schedule stores to or flushes: mostly a handful of
/// persistent lines (so flushes dedup and drains coalesce), sometimes the
/// straddling last one or a volatile one.
fn pick_line(rng: &mut SplitMix64) -> LineId {
    let total_lines = (PERSISTENT_WORDS + VOLATILE_WORDS).div_ceil(WORDS_PER_LINE);
    LineId::new(match rng.next_below(10) {
        0 => last_persistent_line(),
        1 => last_persistent_line() + 1 + rng.next_below(total_lines - last_persistent_line() - 1),
        _ => 1 + rng.next_below(12),
    })
}

/// A line no store or flush of the schedule names: unqueued, beyond the
/// space, or anywhere.
fn warm_line(rng: &mut SplitMix64) -> LineId {
    let total_lines = (PERSISTENT_WORDS + VOLATILE_WORDS).div_ceil(WORDS_PER_LINE);
    LineId::new(match rng.next_below(4) {
        0 => 20 + rng.next_below(40),
        1 => total_lines + rng.next_below(64),
        _ => pick_line(rng).index(),
    })
}

/// An in-bounds word of `line` (the straddling line's words past the
/// space are skipped).
fn word_of(line: LineId, rng: &mut SplitMix64) -> PAddr {
    let total = PERSISTENT_WORDS + VOLATILE_WORDS;
    let width = WORDS_PER_LINE.min(total - line.first_word().word());
    line.first_word().add(rng.next_below(width))
}

fn schedule(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = SplitMix64::new(seed);
    (0..len)
        .map(|_| {
            let tid = rng.next_below(TIDS as u64) as usize;
            match rng.next_below(8) {
                0..=2 => {
                    let line = pick_line(&mut rng);
                    Op::Write(word_of(line, &mut rng), rng.next_u64())
                }
                3 => {
                    let line = pick_line(&mut rng);
                    let width = (PERSISTENT_WORDS + VOLATILE_WORDS - line.first_word().word())
                        .min(WORDS_PER_LINE);
                    let mask = (rng.next_u64() as u8) & ((1u16 << width) - 1) as u8;
                    Op::WriteLine(line, std::array::from_fn(|_| rng.next_u64()), mask)
                }
                4 => {
                    let line = pick_line(&mut rng);
                    Op::Clwb(tid, word_of(line, &mut rng))
                }
                5 => {
                    let n = rng.next_below(5) as usize;
                    Op::ClwbLines(tid, (0..n).map(|_| pick_line(&mut rng)).collect())
                }
                _ => {
                    let n = rng.next_below(6) as usize;
                    let mut warm: Vec<LineId> = (0..n).map(|_| warm_line(&mut rng)).collect();
                    warm.push(LineId::new(last_persistent_line()));
                    if let Some(&again) = warm.first() {
                        warm.push(again);
                    }
                    Op::Drain(tid, warm)
                }
            }
        })
        .collect()
}

/// Everything an observer of one twin can see.
#[derive(PartialEq, Debug)]
struct Observed {
    stats: Vec<PmemStats>,
    fault_steps: u64,
    /// Per thread: `(kind, arg)` of each event (the times differ).
    events: Vec<Vec<(TraceEventKind, u64)>>,
    volatile_view: Vec<u64>,
    persisted_view: Vec<u64>,
    crash_images: Vec<Vec<u64>>,
}

fn run(cfg: PmemConfig, ops: &[Op], warm: bool) -> Observed {
    trace::reset_rings();
    let mem = MemorySpace::new(cfg);
    let mut stats = Vec::with_capacity(ops.len());
    for op in ops {
        match op {
            Op::Write(addr, value) => mem.write(*addr, *value),
            Op::WriteLine(line, words, mask) => mem.write_line(*line, words, *mask),
            Op::Clwb(tid, addr) => mem.clwb(*tid, *addr),
            Op::ClwbLines(tid, lines) => {
                mem.clwb_lines(*tid, lines.iter().copied());
            }
            Op::Drain(tid, lines) if warm => {
                mem.drain_warming(*tid, &mut lines.iter().copied());
            }
            Op::Drain(tid, _) => {
                mem.drain(*tid);
            }
        }
        stats.push(mem.stats());
    }
    let total = PERSISTENT_WORDS + VOLATILE_WORDS;
    Observed {
        stats,
        fault_steps: mem.fault_steps(),
        events: (0..TIDS)
            .map(|tid| {
                trace::ring_snapshot(tid)
                    .into_iter()
                    .map(|e| (e.kind, e.arg))
                    .collect()
            })
            .collect(),
        volatile_view: (0..total).map(|w| mem.read(PAddr::new(w))).collect(),
        persisted_view: (0..PERSISTENT_WORDS)
            .map(|w| mem.read_persisted(PAddr::new(w)))
            .collect(),
        crash_images: [
            CrashModel::strict(),
            CrashModel::relaxed(3),
            CrashModel::relaxed(4),
        ]
        .into_iter()
        .map(|model| mem.crash_with(model).as_words().to_vec())
        .collect(),
    }
}

#[test]
fn a_warmed_drain_is_indistinguishable_from_a_plain_one() {
    let _events = LevelGuard::arm(TraceLevel::Events);
    for model in [
        CrashModel::strict(),
        CrashModel::relaxed(0x51),
        CrashModel::adversarial(0xA5),
    ] {
        for capacity in [1 << 10, 4] {
            for seed in 0..24 {
                let cfg = PmemConfig {
                    persistent_words: PERSISTENT_WORDS,
                    volatile_words: VOLATILE_WORDS,
                    max_threads: TIDS,
                    flush_queue_capacity: capacity,
                    latency: LatencyModel::nvm_100ns(),
                    crash: model,
                    fault: FaultPlan::count_only(),
                };
                let ops = schedule(seed, 300);
                let drains = ops.iter().filter(|op| matches!(op, Op::Drain(..))).count();
                assert!(drains > 0, "seed {seed} drains");
                let plain = run(cfg, &ops, false);
                let warmed = run(cfg, &ops, true);
                assert!(plain.fault_steps > 0);
                assert!(plain.events.iter().any(|e| !e.is_empty()));
                assert!(
                    plain == warmed,
                    "{model:?}, ring {capacity}, seed {seed}: the twins differ"
                );
            }
        }
    }
}
