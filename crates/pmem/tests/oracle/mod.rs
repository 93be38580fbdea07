//! A word-by-word model of the persist pipeline, and the runner that
//! drives the production [`MemorySpace`] beside it.
//!
//! Seeded random schedules of `write`, `write_line`, `clwb`, `clwb_lines`
//! and `drain` on two thread slots drive the space and, step by step, a
//! small model that knows nothing of masks, rings or runs. The model holds
//! three things:
//!
//! * the words stored but not yet persisted (a dirty flag per word);
//! * each queue's claimable lines, in enqueue order, and each line's
//!   flush stamp (the queue and ring position of its latest enqueue): a
//!   flush is absorbed only while the queue that stamped the line is the
//!   flusher's own and that enqueue is still unclaimed; a full ring writes
//!   the line back at once;
//! * the persisted image.
//!
//! A write-back copies a line's dirty words and nothing else, so the model
//! predicts every counter of [`PmemStats`] exactly: `words_persisted` is
//! the number of dirty words written back, `lines_persisted` the number of
//! claimed positions, and `flush_ranges` / `range_lines` the maximal runs
//! of adjacent distinct claimed lines and their length. Spontaneous
//! evictions (the adversarial model's coin flips) are the one thing the
//! model cannot predict: it learns them from the step's `evictions` delta,
//! exact because the runner is single-threaded, and writes back the line
//! that step stored to. Ring overflows it predicts from the ring rule and
//! checks against `overflow_writebacks`.
//!
//! A [`Reference`] turns the model into one of the naive pipelines the
//! space's two relaxations are measured against: every store dirtying its
//! whole line, or a drain writing its claimed lines back one at a time in
//! enqueue order. A reference changes no image, so the runner still checks
//! the images exactly and the relaxed counters as bounds.
//!
//! Shared by `persist_oracle.rs` (the exact model) and
//! `masked_persistence_differential.rs` (the references).

use crafty_common::{LineId, PAddr, SplitMix64, WORDS_PER_LINE};
use crafty_pmem::{CrashModel, MemorySpace, PmemConfig, PmemStats};

/// The schedules' lines: few enough that partial masks, re-flushes,
/// adjacent runs and lines flushed by both threads are all common.
const FIRST_LINE: u64 = 8;
const LINES: u64 = 12;
const THREADS: usize = 2;

/// One schedule step.
enum Op {
    Write {
        addr: PAddr,
        value: u64,
    },
    WriteLine {
        line: LineId,
        words: [u64; WORDS_PER_LINE as usize],
        mask: u8,
    },
    Clwb {
        tid: usize,
        addr: PAddr,
    },
    ClwbLines {
        tid: usize,
        lines: Vec<LineId>,
    },
    Drain {
        tid: usize,
    },
}

fn random_line(rng: &mut SplitMix64) -> LineId {
    LineId::new(FIRST_LINE + rng.next_below(LINES))
}

fn random_addr(rng: &mut SplitMix64) -> PAddr {
    random_line(rng)
        .first_word()
        .add(rng.next_below(WORDS_PER_LINE))
}

fn random_op(rng: &mut SplitMix64) -> Op {
    let tid = rng.next_below(THREADS as u64) as usize;
    match rng.next_below(20) {
        0..=6 => Op::Write {
            addr: random_addr(rng),
            value: rng.next_u64() | 1,
        },
        7..=9 => Op::WriteLine {
            line: random_line(rng),
            words: std::array::from_fn(|_| rng.next_u64() | 1),
            mask: rng.next_below(256) as u8,
        },
        10..=13 => Op::Clwb {
            tid,
            addr: random_addr(rng),
        },
        // A batch may name a line twice: the second is absorbed.
        14..=15 => Op::ClwbLines {
            tid,
            lines: (0..1 + rng.next_below(5))
                .map(|_| random_line(rng))
                .collect(),
        },
        _ => Op::Drain { tid },
    }
}

/// The naive pipeline the model stands in for. With neither field set it
/// is the exact word-by-word model of the production pipeline.
#[derive(Clone, Copy)]
pub struct Reference {
    /// Every store dirties its whole line, so every write-back copies
    /// whole lines: `words_persisted` is an upper bound of the space's.
    pub whole_line: bool,
    /// A drain writes its claimed positions back one at a time, in
    /// enqueue order, one range each: `flush_ranges` and `range_lines`
    /// are upper bounds of the space's.
    pub per_line_drain: bool,
}

/// One flush queue as the model sees it: the lines of positions
/// `[claim, claim + pending.len())`. Single-threaded, every drain retires
/// what it claims before returning, so nothing is claimed but unretired.
#[derive(Default)]
struct Queue {
    claim: u64,
    pending: Vec<u64>,
}

/// The word-by-word model of the domain's lines.
struct Model {
    capacity: u64,
    reference: Reference,
    volatile: Vec<u64>,
    persisted: Vec<u64>,
    dirty: Vec<bool>,
    /// Per line: `(tid, pos)` of its latest enqueue, on whichever queue.
    stamps: Vec<Option<(usize, u64)>>,
    queues: [Queue; THREADS],
    stats: PmemStats,
}

impl Model {
    fn new(capacity: u64, reference: Reference) -> Self {
        let words = (LINES * WORDS_PER_LINE) as usize;
        Model {
            capacity,
            reference,
            volatile: vec![0; words],
            persisted: vec![0; words],
            dirty: vec![false; words],
            stamps: vec![None; LINES as usize],
            queues: Default::default(),
            stats: PmemStats::default(),
        }
    }

    fn word_index(addr: PAddr) -> usize {
        (addr.word() - FIRST_LINE * WORDS_PER_LINE) as usize
    }

    fn store(&mut self, addr: PAddr, value: u64) {
        let w = Self::word_index(addr);
        self.volatile[w] = value;
        if self.reference.whole_line {
            for word in addr.line().words() {
                self.dirty[Self::word_index(word)] = true;
            }
        } else {
            self.dirty[w] = true;
        }
    }

    /// Copies `line`'s dirty words into the image. Returns the words
    /// copied and the line width charged for them: 0 and 0 for a clean
    /// line, whose write-back copies nothing.
    fn write_back(&mut self, line: u64) -> (u64, u64) {
        let first = ((line - FIRST_LINE) * WORDS_PER_LINE) as usize;
        let mut words = 0;
        for w in first..first + WORDS_PER_LINE as usize {
            if self.dirty[w] {
                self.persisted[w] = self.volatile[w];
                self.dirty[w] = false;
                words += 1;
            }
        }
        (words, if words > 0 { WORDS_PER_LINE } else { 0 })
    }

    fn evict(&mut self, line: u64) {
        let (words, line_words) = self.write_back(line);
        self.stats.evictions += 1;
        self.stats.words_persisted += words;
        self.stats.line_words_persisted += line_words;
    }

    fn clwb(&mut self, tid: usize, line: u64) {
        self.stats.flushes += 1;
        let slot = (line - FIRST_LINE) as usize;
        let q = &self.queues[tid];
        if self.stamps[slot].is_some_and(|(t, pos)| t == tid && pos >= q.claim) {
            return;
        }
        if q.pending.len() as u64 >= self.capacity {
            let (words, line_words) = self.write_back(line);
            self.stats.overflow_writebacks += 1;
            self.stats.words_persisted += words;
            self.stats.line_words_persisted += line_words;
            return;
        }
        let q = &mut self.queues[tid];
        self.stamps[slot] = Some((tid, q.claim + q.pending.len() as u64));
        q.pending.push(line);
    }

    /// Claims and writes back `tid`'s queue; returns the positions claimed.
    fn drain(&mut self, tid: usize) -> u64 {
        let q = &mut self.queues[tid];
        let claimed = std::mem::take(&mut q.pending);
        q.claim += claimed.len() as u64;
        let mut lines = claimed.clone();
        let runs = if self.reference.per_line_drain {
            lines.len() as u64
        } else {
            lines.sort_unstable();
            lines.dedup();
            lines
                .iter()
                .enumerate()
                .filter(|&(i, &l)| i == 0 || lines[i - 1] + 1 != l)
                .count() as u64
        };
        for &line in &lines {
            let (words, line_words) = self.write_back(line);
            self.stats.words_persisted += words;
            self.stats.line_words_persisted += line_words;
        }
        self.stats.drains += 1;
        self.stats.lines_persisted += claimed.len() as u64;
        self.stats.flush_ranges += runs;
        self.stats.range_lines += lines.len() as u64;
        claimed.len() as u64
    }

    /// The whole persistent region as a crash leaves it: what was written
    /// back, with each dirty word's volatile value on top when
    /// `every_dirty_word` (a crash that persists them all).
    fn crash_image(&self, words: u64, every_dirty_word: bool) -> Vec<u64> {
        let mut image = vec![0; words as usize];
        let first = (FIRST_LINE * WORDS_PER_LINE) as usize;
        for (w, &v) in self.persisted.iter().enumerate() {
            image[first + w] = if every_dirty_word && self.dirty[w] {
                self.volatile[w]
            } else {
                v
            };
        }
        image
    }

    /// Checks the space's persist traffic against the model's: every
    /// counter exactly, except those the reference relaxes, which bound
    /// the space's from above.
    fn assert_traffic(&self, space: PmemStats, step: usize) {
        let mut expected = self.stats;
        if self.reference.whole_line {
            assert!(
                space.words_persisted <= expected.words_persisted,
                "step {step}: masked write-backs copied more words ({}) than whole lines ({})",
                space.words_persisted,
                expected.words_persisted
            );
            expected.words_persisted = space.words_persisted;
        }
        if self.reference.per_line_drain {
            assert!(
                space.flush_ranges <= expected.flush_ranges
                    && space.range_lines <= expected.range_lines,
                "step {step}: coalesced drains issued more ranges ({}, {} lines) \
                 than per-line drains ({}, {} lines)",
                space.flush_ranges,
                space.range_lines,
                expected.flush_ranges,
                expected.range_lines
            );
            expected.flush_ranges = space.flush_ranges;
            expected.range_lines = space.range_lines;
        }
        assert_eq!(space, expected, "step {step}: persist traffic");
    }
}

fn assert_views_agree(mem: &MemorySpace, model: &Model, step: usize) {
    for w in 0..model.persisted.len() {
        let addr = PAddr::new(FIRST_LINE * WORDS_PER_LINE + w as u64);
        assert_eq!(
            mem.read_persisted(addr),
            model.persisted[w],
            "step {step}: persisted {addr}"
        );
        assert_eq!(
            mem.read(addr),
            model.volatile[w],
            "step {step}: volatile {addr}"
        );
    }
}

/// Runs one seeded schedule of `ops` steps on a space running under
/// `crash` with flush rings of `capacity` lines, checking it against the
/// model (as `reference` sets it up) throughout.
pub fn run_against_oracle(
    seed: u64,
    ops: usize,
    crash: CrashModel,
    capacity: usize,
    reference: Reference,
) {
    let cfg = PmemConfig::small_for_tests()
        .with_crash(crash)
        .with_flush_queue_capacity(capacity);
    let mem = MemorySpace::new(cfg);
    let mut model = Model::new(capacity as u64, reference);
    let mut rng = SplitMix64::new(seed);
    for step in 0..ops {
        let before = mem.stats();
        let mut drained = None;
        // The line a store reached, which an eviction coin writes back.
        let mut stored = None;
        match random_op(&mut rng) {
            Op::Write { addr, value } => {
                mem.write(addr, value);
                model.store(addr, value);
                stored = Some(addr.line());
            }
            Op::WriteLine { line, words, mask } => {
                mem.write_line(line, &words, mask);
                for (i, addr) in line.words().enumerate() {
                    if mask & (1 << i) != 0 {
                        model.store(addr, words[i]);
                    }
                }
                stored = (mask != 0).then_some(line);
            }
            Op::Clwb { tid, addr } => {
                mem.clwb(tid, addr);
                model.clwb(tid, addr.line().index());
            }
            Op::ClwbLines { tid, lines } => {
                let requested = mem.clwb_lines(tid, lines.iter().copied());
                assert_eq!(requested, lines.len() as u64, "step {step}");
                for line in lines {
                    model.clwb(tid, line.index());
                }
            }
            Op::Drain { tid } => {
                drained = Some((mem.drain(tid), model.drain(tid)));
            }
        }
        let after = mem.stats();
        match after.evictions - before.evictions {
            0 => {}
            1 => model.evict(stored.expect("only a store evicts").index()),
            n => panic!("step {step}: one store evicted {n} lines"),
        }
        model.assert_traffic(after, step);
        for (tid, q) in model.queues.iter().enumerate() {
            assert_eq!(mem.pending_flushes(tid), q.pending.len(), "step {step}");
        }
        if let Some((space, oracle)) = drained {
            assert_eq!(space, oracle, "step {step}: positions claimed");
            assert_views_agree(&mem, &model, step);
        }
    }
    assert_views_agree(&mem, &model, ops);
    let every_dirty_word = CrashModel {
        dirty_word_persist_probability: 1.0,
        ..CrashModel::strict()
    };
    for (label, crash, every) in [
        ("strict", CrashModel::strict(), false),
        ("every dirty word", every_dirty_word, true),
    ] {
        let image = mem.crash_with(crash);
        let expected = model.crash_image(cfg.persistent_words, every);
        assert!(
            image.as_words() == expected.as_slice(),
            "{label} crash image diverged from the oracle"
        );
    }
}
