//! Differential property tests: word-granular (masked) persistence is
//! observably identical to whole-line persistence, and coalesced (ranged)
//! drains are observably identical to per-line enqueue-order drains.
//!
//! The production pipeline ([`PersistGranularity::Word`]) copies only the
//! words of a line that were actually stored since its last write-back,
//! and resolves crashes over exactly those words. The claim that makes
//! this sound is an invariant, not a heuristic: *a word that is not
//! dirty-masked holds the same value in the volatile view and the
//! persistent image*, so skipping it changes nothing an observer can see.
//!
//! The batched drain pipeline adds a second relaxation with the same
//! shape: a drain sorts its claimed lines and writes them back as maximal
//! adjacent runs, so the *order* of the masked copies changes. Because
//! crash resolution is keyed per word and each line's mask is taken
//! atomically, order cannot be observed either — pinned here against the
//! [`DrainCoalescing::PerLine`] reference mode, alone and composed with
//! the granularity relaxation.
//!
//! A third pair isolates *publication*: a transaction commit stores a line's
//! written words and ORs the line's dirty mask once
//! ([`MemorySpace::write_line`]) and enqueues its CLWBs as one batch behind
//! one fence ([`MemorySpace::clwb_lines`]), where the original published
//! word by word ([`MemorySpace::write`]) and flushed line by line
//! ([`MemorySpace::clwb`]). Same write sets, same volatile view, same
//! persistent and crash images, same [`PmemStats`](crafty_pmem::PmemStats).
//!
//! These tests drive identical randomized write/clwb/drain/evict/crash
//! schedules against two spaces that differ **only** in the relaxation
//! under test — e.g. the masked pipeline vs the
//! [`PersistGranularity::Line`] reference mode (every store dirties its
//! whole line, write-backs copy whole lines, crashes resolve whole lines)
//! — and assert:
//!
//! * the persistent images agree word-for-word at every drain point, and
//! * the crash-visible images are bit-identical under the strict, relaxed,
//!   and adversarial models.
//!
//! Crash resolution draws each dirty word's persist coin from a stream
//! keyed by `(seed, word index)`, which is what makes the comparison
//! exact: the same word resolves the same way in both modes regardless of
//! how many other words are dirty. Evictions are likewise deterministic
//! per `(crash seed, store sequence)`, so the two spaces evict the same
//! lines at the same schedule steps.

use crafty_common::{LineId, PAddr, SplitMix64, WORDS_PER_LINE};
use crafty_pmem::{CrashModel, DrainCoalescing, MemorySpace, PersistGranularity, PmemConfig};
use proptest::prelude::*;

/// The word domain the schedules operate on: a handful of lines so that
/// partial-line dirtiness, re-flushes, and cross-line patterns are all
/// common.
const FIRST_WORD: u64 = 64;
const DOMAIN_WORDS: u64 = 12 * WORDS_PER_LINE;

/// Which pipeline relaxation a differential pair isolates: the production
/// space always runs the full pipeline (word masks + ranged coalescing);
/// the reference space selectively disables one (or both) dimensions.
#[derive(Clone, Copy)]
enum Reference {
    /// Whole-line granularity, coalescing kept: isolates the word masks.
    WholeLine,
    /// Per-line drains, word masks kept: isolates the coalescing.
    PerLineDrain,
    /// Both reference modes at once: whole-line, one-line-at-a-time
    /// enqueue-order write-back — the original pipeline.
    Original,
}

fn paired_spaces(
    crash: CrashModel,
    queue_capacity: usize,
    reference: Reference,
) -> (MemorySpace, MemorySpace) {
    let cfg = PmemConfig::small_for_tests()
        .with_crash(crash)
        .with_flush_queue_capacity(queue_capacity);
    let reference_cfg = match reference {
        Reference::WholeLine => cfg.with_granularity(PersistGranularity::Line),
        Reference::PerLineDrain => cfg.with_coalescing(DrainCoalescing::PerLine),
        Reference::Original => cfg
            .with_granularity(PersistGranularity::Line)
            .with_coalescing(DrainCoalescing::PerLine),
    };
    // The production space: Word granularity + Ranged coalescing defaults.
    (MemorySpace::new(cfg), MemorySpace::new(reference_cfg))
}

/// One schedule step, derived from a raw random draw.
enum Op {
    Write { addr: PAddr, value: u64 },
    Clwb { tid: usize, addr: PAddr },
    Drain { tid: usize },
}

fn decode_op(raw: u64, step: usize) -> Op {
    let addr = PAddr::new(FIRST_WORD + (raw >> 8) % DOMAIN_WORDS);
    match raw % 10 {
        // Weighted towards writes so lines accumulate partial masks.
        0..=4 => Op::Write {
            addr,
            value: raw ^ ((step as u64) << 32) ^ 1,
        },
        5..=7 => Op::Clwb {
            tid: (raw >> 4) as usize % 2,
            addr,
        },
        _ => Op::Drain {
            tid: (raw >> 4) as usize % 2,
        },
    }
}

/// Asserts both spaces' persistent images agree over the whole domain.
fn assert_images_agree(word: &MemorySpace, line: &MemorySpace, step: usize) {
    for w in FIRST_WORD..FIRST_WORD + DOMAIN_WORDS {
        let a = word.read_persisted(PAddr::new(w));
        let b = line.read_persisted(PAddr::new(w));
        assert_eq!(
            a, b,
            "step {step}: persisted word {w} diverged (masked {a} vs whole-line {b})"
        );
    }
}

/// Runs one schedule on both spaces and checks agreement at every drain
/// and under every crash model at the end.
fn run_differential(seed: u64, ops: usize, crash: CrashModel, queue_capacity: usize) {
    run_differential_against(seed, ops, crash, queue_capacity, Reference::WholeLine);
}

fn run_differential_against(
    seed: u64,
    ops: usize,
    crash: CrashModel,
    queue_capacity: usize,
    reference: Reference,
) {
    let (word, line) = paired_spaces(crash, queue_capacity, reference);
    let mut rng = SplitMix64::new(seed);
    for step in 0..ops {
        match decode_op(rng.next_u64(), step) {
            Op::Write { addr, value } => {
                word.write(addr, value);
                line.write(addr, value);
            }
            Op::Clwb { tid, addr } => {
                word.clwb(tid, addr);
                line.clwb(tid, addr);
            }
            Op::Drain { tid } => {
                word.drain(tid);
                line.drain(tid);
                assert_images_agree(&word, &line, step);
            }
        }
    }
    // Crash-visible state must be bit-identical under every model, not
    // just the one that governed the run.
    for (label, model) in [
        ("strict", CrashModel::strict()),
        ("relaxed", CrashModel::relaxed(seed ^ 0xBEEF)),
        ("adversarial", CrashModel::adversarial(seed ^ 0xF00D)),
    ] {
        let img_word = word.crash_with(model);
        let img_line = line.crash_with(model);
        for w in 0..img_word.len_words() {
            assert_eq!(
                img_word.read(PAddr::new(w)),
                img_line.read(PAddr::new(w)),
                "{label} crash image diverged at word {w}"
            );
        }
    }
    // The whole point of the masked pipeline: it never copies more words
    // than the whole-line reference would.
    let (sw, sl) = (word.stats(), line.stats());
    assert!(
        sw.words_persisted <= sl.words_persisted,
        "masked mode persisted more words ({}) than whole lines ({})",
        sw.words_persisted,
        sl.words_persisted
    );
}

/// Publishes `commits` random write sets (a few lines each, a random mask
/// and fresh values per line) on two identically configured spaces — line
/// by line with a batched flush on one, word by word with per-line flushes
/// on the other — draining now and then, and checks that nothing an
/// observer can see tells them apart.
fn run_publication_differential(seed: u64, commits: usize, cfg: PmemConfig) {
    let by_line = MemorySpace::new(cfg);
    let by_word = MemorySpace::new(cfg);
    let first_line = PAddr::new(FIRST_WORD).line().index();
    let mut rng = SplitMix64::new(seed);
    for commit in 0..commits {
        let tid = rng.next_below(2) as usize;
        let mut lines: Vec<LineId> = Vec::new();
        for _ in 0..1 + rng.next_below(5) {
            let line = LineId::new(first_line + rng.next_below(DOMAIN_WORDS / WORDS_PER_LINE));
            if lines.contains(&line) {
                continue;
            }
            lines.push(line);
            let mask = rng.next_below(256) as u8;
            let words: [u64; 8] = std::array::from_fn(|_| rng.next_u64() | 1);
            by_line.write_line(line, &words, mask);
            for (i, addr) in line.words().enumerate() {
                if mask & (1 << i) != 0 {
                    by_word.write(addr, words[i]);
                }
            }
        }
        // Flush most of what was published, like a Redo-phase commit.
        lines.retain(|_| rng.next_below(4) != 0);
        let requested = by_line.clwb_lines(tid, lines.iter().copied());
        assert_eq!(requested, lines.len() as u64);
        for line in &lines {
            by_word.clwb(tid, line.first_word());
        }
        if rng.next_below(3) == 0 {
            let drained = by_line.drain(tid);
            assert_eq!(
                drained,
                by_word.drain(tid),
                "commit {commit}: lines drained"
            );
            assert_images_agree(&by_line, &by_word, commit);
        }
        for w in FIRST_WORD..FIRST_WORD + DOMAIN_WORDS {
            let addr = PAddr::new(w);
            assert_eq!(
                by_line.read(addr),
                by_word.read(addr),
                "commit {commit}: volatile word {w} diverged"
            );
        }
    }
    // The dirty masks are what a word-lossy crash resolves over: a crash
    // that persists *every* dirty word exposes them exactly, and the
    // strict and relaxed models bracket it.
    let every_dirty_word = CrashModel {
        dirty_word_persist_probability: 1.0,
        ..CrashModel::strict()
    };
    for (label, model) in [
        ("strict", CrashModel::strict()),
        ("relaxed", CrashModel::relaxed(seed ^ 0xBEEF)),
        ("every dirty word", every_dirty_word),
    ] {
        let (img_line, img_word) = (by_line.crash_with(model), by_word.crash_with(model));
        for w in 0..img_line.len_words() {
            assert_eq!(
                img_line.read(PAddr::new(w)),
                img_word.read(PAddr::new(w)),
                "{label} crash image diverged at word {w}"
            );
        }
    }
    assert_eq!(by_line.stats(), by_word.stats(), "persist traffic diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Strict model: nothing persists without an explicit flush + drain.
    #[test]
    fn masked_equals_whole_line_under_strict(seed: u64, ops in 1usize..300) {
        run_differential(seed, ops, CrashModel::strict(), 1 << 10);
    }

    /// Relaxed model: deterministic run, word-lossy crash.
    #[test]
    fn masked_equals_whole_line_under_relaxed(seed: u64, ops in 1usize..300) {
        run_differential(seed, ops, CrashModel::relaxed(seed ^ 0x51), 1 << 10);
    }

    /// Adversarial model: spontaneous evictions mid-run AND a word-lossy
    /// crash; eviction decisions are a pure function of the crash seed and
    /// store sequence, so both spaces evict identically.
    #[test]
    fn masked_equals_whole_line_under_adversarial(seed: u64, ops in 1usize..300) {
        run_differential(seed, ops, CrashModel::adversarial(seed ^ 0xA5), 1 << 10);
    }

    /// A deliberately tiny flush ring forces overflow write-backs, which
    /// must also be granularity-equivalent.
    #[test]
    fn masked_equals_whole_line_under_ring_overflow(seed: u64, ops in 1usize..300) {
        run_differential(seed, ops, CrashModel::strict(), 4);
    }

    /// Coalesced (ranged) drains vs the per-line enqueue-order reference:
    /// sorting the claimed lines into adjacent runs changes only the
    /// write-back order, so persistent images at every drain and crash
    /// images under every model must be bit-identical.
    #[test]
    fn coalesced_equals_per_line_under_strict(seed: u64, ops in 1usize..300) {
        run_differential_against(seed, ops, CrashModel::strict(), 1 << 10,
            Reference::PerLineDrain);
    }

    /// Coalesced vs per-line under the relaxed (word-lossy crash) model.
    #[test]
    fn coalesced_equals_per_line_under_relaxed(seed: u64, ops in 1usize..300) {
        run_differential_against(seed, ops, CrashModel::relaxed(seed ^ 0x77), 1 << 10,
            Reference::PerLineDrain);
    }

    /// Coalesced vs per-line under the adversarial model (mid-run
    /// evictions AND a word-lossy crash).
    #[test]
    fn coalesced_equals_per_line_under_adversarial(seed: u64, ops in 1usize..300) {
        run_differential_against(seed, ops, CrashModel::adversarial(seed ^ 0xC4), 1 << 10,
            Reference::PerLineDrain);
    }

    /// Coalesced vs per-line with a tiny ring: overflow write-backs and
    /// short claimed ranges interleave with coalesced drains.
    #[test]
    fn coalesced_equals_per_line_under_ring_overflow(seed: u64, ops in 1usize..300) {
        run_differential_against(seed, ops, CrashModel::strict(), 4,
            Reference::PerLineDrain);
    }

    /// The full production pipeline (word masks + ranged coalescing) vs
    /// the original whole-line, per-line-drain pipeline: both relaxations
    /// composed must still be observably identical.
    #[test]
    fn full_pipeline_equals_original_under_adversarial(seed: u64, ops in 1usize..300) {
        run_differential_against(seed, ops, CrashModel::adversarial(seed ^ 0x9A), 1 << 10,
            Reference::Original);
    }

    /// Per-line publication + batched flush vs word-by-word publication +
    /// per-line flush, deterministic run.
    #[test]
    fn line_publication_equals_word_publication(seed: u64, commits in 1usize..120) {
        run_publication_differential(seed, commits, PmemConfig::small_for_tests());
    }

    /// The same with a tiny flush ring (overflow write-backs inside a
    /// batch) and in the whole-line reference granularity.
    #[test]
    fn line_publication_equals_word_publication_off_the_main_path(
        seed: u64,
        commits in 1usize..120,
    ) {
        let small = PmemConfig::small_for_tests();
        run_publication_differential(seed, commits, small.with_flush_queue_capacity(4));
        run_publication_differential(
            seed,
            commits,
            small.with_granularity(PersistGranularity::Line),
        );
    }
}
