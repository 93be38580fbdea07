//! Differential property tests of the space's three relaxations.
//!
//! The production pipeline copies only the words of a line that were
//! stored since its last write-back, and a drain writes its claimed lines
//! back as sorted runs of adjacent lines. Each is pinned here against the
//! naive pipeline it relaxes, kept as a [`Reference`] of the model in
//! `oracle/mod.rs` (nothing of either lives in the product):
//!
//! * **masked ≡ whole line** — every store dirtying its whole line. A word
//!   that is not dirty-masked holds the same value in the volatile view
//!   and the persistent image, so skipping it changes nothing an observer
//!   can see: images match at every drain, and the masked space never
//!   copies more words.
//! * **coalesced ≡ per line** — a drain writing its claimed lines back one
//!   at a time in enqueue order. Crash resolution is keyed per word and
//!   each line's mask is taken atomically, so order is unobservable too:
//!   images match, and the coalesced space never issues more ranges.
//! * both at once, against the original pipeline.
//!
//! Every other counter of [`PmemStats`](crafty_pmem::PmemStats) must match
//! the reference exactly, and so must the strict and every-dirty-word
//! crash images. The schedules, ring rule and eviction learning are the
//! oracle's; `persist_oracle.rs` holds the model to the exact counts.
//!
//! The third pair isolates *publication*: a transaction commit stores a
//! line's written words and ORs the line's dirty mask once
//! ([`MemorySpace::write_line`]) and enqueues its CLWBs as one batch behind
//! one fence ([`MemorySpace::clwb_lines`]), where the original published
//! word by word ([`MemorySpace::write`]) and flushed line by line
//! ([`MemorySpace::clwb`]). Same write sets, same volatile view, same
//! persistent and crash images, same `PmemStats`. Both sides are the
//! production space: the pair isolates the two entry points, not two
//! pipelines.

mod oracle;

use crafty_common::{LineId, PAddr, SplitMix64, WORDS_PER_LINE};
use crafty_pmem::{CrashModel, MemorySpace, PmemConfig};
use oracle::{run_against_oracle, Reference};
use proptest::prelude::*;

/// The word domain the schedules operate on: a handful of lines so that
/// partial-line dirtiness, re-flushes, and cross-line patterns are all
/// common.
const FIRST_WORD: u64 = 64;
const DOMAIN_WORDS: u64 = 12 * WORDS_PER_LINE;

/// Asserts both spaces' persistent images agree over the whole domain.
fn assert_images_agree(by_line: &MemorySpace, by_word: &MemorySpace, step: usize) {
    for w in FIRST_WORD..FIRST_WORD + DOMAIN_WORDS {
        let a = by_line.read_persisted(PAddr::new(w));
        let b = by_word.read_persisted(PAddr::new(w));
        assert_eq!(
            a, b,
            "step {step}: persisted word {w} diverged (by line {a} vs by word {b})"
        );
    }
}

/// Every store dirties its whole line; drains are the space's own.
const WHOLE_LINE: Reference = Reference {
    whole_line: true,
    per_line_drain: false,
};

/// Drains write back line by line; stores are the space's own.
const PER_LINE_DRAIN: Reference = Reference {
    whole_line: false,
    per_line_drain: true,
};

/// The original pipeline: whole-line stores and per-line drains.
const ORIGINAL: Reference = Reference {
    whole_line: true,
    per_line_drain: true,
};

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
        run_against_oracle(seed, ops, CrashModel::strict(), 1 << 10, WHOLE_LINE);
    }

    /// Relaxed model: no evictions during the run.
    #[test]
    fn masked_equals_whole_line_under_relaxed(seed: u64, ops in 1usize..300) {
        run_against_oracle(seed, ops, CrashModel::relaxed(seed ^ 0x51), 1 << 10, WHOLE_LINE);
    }

    /// Adversarial model: spontaneous evictions mid-run, which write back
    /// whole lines in the reference and masked words in the space.
    #[test]
    fn masked_equals_whole_line_under_adversarial(seed: u64, ops in 1usize..300) {
        run_against_oracle(seed, ops, CrashModel::adversarial(seed ^ 0xA5), 1 << 10, WHOLE_LINE);
    }

    /// A tiny flush ring forces overflow write-backs, which must also copy
    /// no more than whole lines and persist the same image.
    #[test]
    fn masked_equals_whole_line_under_ring_overflow(seed: u64, ops in 1usize..300) {
        run_against_oracle(seed, ops, CrashModel::strict(), 4, WHOLE_LINE);
    }

    /// Sorting the claimed lines into adjacent runs changes only the
    /// write-back order: the same images at every drain and at a crash.
    #[test]
    fn coalesced_equals_per_line_under_strict(seed: u64, ops in 1usize..300) {
        run_against_oracle(seed, ops, CrashModel::strict(), 1 << 10, PER_LINE_DRAIN);
    }

    /// Coalesced vs per-line under the relaxed model.
    #[test]
    fn coalesced_equals_per_line_under_relaxed(seed: u64, ops in 1usize..300) {
        run_against_oracle(seed, ops, CrashModel::relaxed(seed ^ 0x77), 1 << 10, PER_LINE_DRAIN);
    }

    /// Coalesced vs per-line with evictions between the drains.
    #[test]
    fn coalesced_equals_per_line_under_adversarial(seed: u64, ops in 1usize..300) {
        run_against_oracle(seed, ops, CrashModel::adversarial(seed ^ 0xC4), 1 << 10,
            PER_LINE_DRAIN);
    }

    /// Coalesced vs per-line with a tiny ring: overflow write-backs and
    /// short claimed ranges interleave with coalesced drains.
    #[test]
    fn coalesced_equals_per_line_under_ring_overflow(seed: u64, ops in 1usize..300) {
        run_against_oracle(seed, ops, CrashModel::strict(), 4, PER_LINE_DRAIN);
    }

    /// Both relaxations composed against the original whole-line,
    /// per-line-drain pipeline.
    #[test]
    fn full_pipeline_equals_original_under_adversarial(seed: u64, ops in 1usize..300) {
        run_against_oracle(seed, ops, CrashModel::adversarial(seed ^ 0x9A), 1 << 10, ORIGINAL);
    }

    /// Per-line publication + batched flush vs word-by-word publication +
    /// per-line flush, deterministic run.
    #[test]
    fn line_publication_equals_word_publication(seed: u64, commits in 1usize..120) {
        run_publication_differential(seed, commits, PmemConfig::small_for_tests());
    }

    /// The same with a tiny flush ring: overflow write-backs inside a
    /// batch.
    #[test]
    fn line_publication_equals_word_publication_off_the_main_path(
        seed: u64,
        commits in 1usize..120,
    ) {
        let small = PmemConfig::small_for_tests();
        run_publication_differential(seed, commits, small.with_flush_queue_capacity(4));
    }
}
