//! The batch entry points of [`HwTxn`] — `read_words`, `exchange`,
//! `roll_back`, `write_words`, `write_lines`, `flush_writes_on_commit` —
//! against the `read` / `write` / `flush_on_commit` calls they replace: two
//! runtimes over identical memory run the same script, one through each
//! interface, and must agree on every result, on the abort code and the
//! access it strikes at, and after commit on memory, persist traffic and
//! queued flushes — under every injected-abort countdown and under
//! capacities small enough to overflow.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crafty_common::{BreakdownRecorder, HwTxnOutcome, LineSlot, PAddr, SplitMix64};
use crafty_htm::{AbortCode, HtmConfig, HtmRuntime, HwTxn};
use crafty_pmem::{MemorySpace, PmemConfig};
use proptest::prelude::*;

const PERSISTENT_LINES: u64 = 6;
const VOLATILE_LINES: u64 = 2;
/// Where the scripts' log-style runs go (persistent, clear of the data).
const LOG_BASE: u64 = 4096;

/// Word `i` of the scripts' data domain: six persistent lines, then two
/// volatile ones.
fn cell(i: u64) -> PAddr {
    let persistent = PERSISTENT_LINES * 8;
    if i < persistent {
        PAddr::new(512 + i)
    } else {
        PAddr::new(PmemConfig::small_for_tests().persistent_words + 64 + (i - persistent))
    }
}

const CELLS: u64 = (PERSISTENT_LINES + VOLATILE_LINES) * 8;

struct Side {
    mem: Arc<MemorySpace>,
    rt: HtmRuntime,
}

fn side(cfg: HtmConfig) -> Side {
    let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
    for i in 0..CELLS {
        mem.write(cell(i), 1000 + i);
    }
    let rt = HtmRuntime::new(Arc::clone(&mem), cfg, Arc::new(BreakdownRecorder::new()));
    Side { mem, rt }
}

impl Side {
    /// Everything the two sides must agree on once a script has run.
    fn observe(&self) -> (Vec<u64>, Vec<u64>, usize, crafty_pmem::PmemStats, [u64; 5]) {
        let pending = self.mem.pending_flushes(0);
        self.mem.drain(0);
        let words = (0..CELLS).map(|i| self.mem.read(cell(i)));
        let log = (0..64).map(|i| self.mem.read(PAddr::new(LOG_BASE + i)));
        let persisted = (0..PERSISTENT_LINES * 8).map(|i| self.mem.read_persisted(cell(i)));
        let log_persisted = (0..64).map(|i| self.mem.read_persisted(PAddr::new(LOG_BASE + i)));
        let snapshot = self.rt.recorder().snapshot();
        (
            words.chain(log).collect(),
            persisted.chain(log_persisted).collect(),
            pending,
            self.mem.stats(),
            HwTxnOutcome::ALL.map(|outcome| snapshot.hw(outcome)),
        )
    }
}

#[derive(Clone, Debug)]
enum Op {
    Read(PAddr),
    /// `n` consecutive words from the address: up to three lines, or none.
    ReadRun(PAddr, u64),
    Exchange(PAddr, u64),
    Run(PAddr, Vec<u64>),
}

/// A read run of 0 to 17 words from `addr`.
fn read_run(rng: &mut SplitMix64, addr: PAddr) -> Op {
    Op::ReadRun(addr, rng.next_below(18))
}

fn run_of(rng: &mut SplitMix64, max_words: u64) -> Op {
    let words = (0..1 + rng.next_below(max_words))
        .map(|_| rng.next_u64())
        .collect();
    Op::Run(PAddr::new(LOG_BASE + rng.next_below(24)), words)
}

/// A Log-phase-shaped body: loads, read runs and stores over a domain
/// small enough that words repeat and lines fill, so a run crosses lines
/// and meets words the body already wrote.
fn body(rng: &mut SplitMix64) -> Vec<Op> {
    (0..rng.next_below(9))
        .map(|_| {
            let addr = cell(rng.next_below(CELLS));
            match rng.next_below(4) {
                0 => Op::Read(addr),
                1 => read_run(rng, addr),
                _ => Op::Exchange(addr, rng.next_u64()),
            }
        })
        .collect()
}

/// What an access read: one word, a run's words, or nothing.
type Read = Result<Vec<u64>, AbortCode>;

fn batch(txn: &mut HwTxn<'_>, op: &Op) -> Read {
    match op {
        Op::Read(addr) => txn.read(*addr).map(|v| vec![v]),
        Op::ReadRun(addr, n) => {
            let mut out = vec![0; *n as usize];
            txn.read_words(*addr, &mut out).map(|()| out)
        }
        Op::Exchange(addr, value) => txn.exchange(*addr, *value).map(|v| vec![v]),
        Op::Run(addr, words) => txn.write_words(*addr, words).map(|()| Vec::new()),
    }
}

/// The same access through the calls the batch entry points replace;
/// exchanges are recorded as `(address, old value)` the way the Log phase
/// used to.
fn wordwise(txn: &mut HwTxn<'_>, op: &Op, undo: &mut Vec<(PAddr, u64)>) -> Read {
    match op {
        Op::Read(addr) => txn.read(*addr).map(|v| vec![v]),
        Op::ReadRun(addr, n) => (0..*n).map(|i| txn.read(addr.add(i))).collect(),
        Op::Exchange(addr, value) => {
            let old = txn.read(*addr)?;
            undo.push((*addr, old));
            txn.write(*addr, *value)?;
            Ok(vec![old])
        }
        Op::Run(addr, words) => {
            for (i, &word) in words.iter().enumerate() {
                txn.write(addr.add(i as u64), word)?;
            }
            Ok(Vec::new())
        }
    }
}

fn image_writes(image: &[LineSlot]) -> Vec<(PAddr, u64)> {
    let words = |slot: &LineSlot| {
        let first = slot.line() * 8;
        let slot = *slot;
        (0..8u64)
            .filter(move |w| slot.mask & (1 << w) != 0)
            .map(move |w| (PAddr::new(first + w), slot.words[w as usize]))
    };
    image.iter().flat_map(words).collect()
}

/// The Log transaction: a body, the roll-back, a log-style append, a read
/// run over the appended words, commit. Returns the batch side's redo
/// image if both sides committed.
fn log_case(cfg: HtmConfig, script_seed: u64) -> Option<(Vec<LineSlot>, usize)> {
    let mut rng = SplitMix64::new(script_seed);
    let body = body(&mut rng);
    let append = run_of(&mut rng, 24);
    let read_at = PAddr::new(LOG_BASE + rng.next_below(24));
    let read_back = read_run(&mut rng, read_at);
    let (a, b) = (side(cfg), side(cfg));
    let (mut ta, mut tb) = (a.rt.begin(0), b.rt.begin(0));
    let mut undo = Vec::new();
    let mut image = Vec::new();

    let outcome = (|| {
        for op in &body {
            let (ra, rb) = (batch(&mut ta, op), wordwise(&mut tb, op, &mut undo));
            assert_eq!(ra, rb, "{op:?}");
            ra?;
        }
        assert_eq!(ta.exchanged().collect::<Vec<_>>(), undo);
        assert_eq!(ta.write_set_len(), tb.write_set_len());

        // The old roll-back: newest first, the value visible just before
        // each step is the redo value.
        let mut redo = Vec::new();
        let rolled_a = ta.roll_back(&mut image);
        let rolled_b = undo.iter().rev().try_for_each(|&(addr, old)| {
            redo.push((addr, tb.read(addr)?));
            tb.write(addr, old)
        });
        assert_eq!(rolled_a.map(|_| ()), rolled_b, "roll-back");
        let exchanges = rolled_a?;
        assert_eq!(exchanges, undo.len());
        // The image is the redo log's last word on every address.
        let mut finals: Vec<(PAddr, u64)> = Vec::new();
        for &(addr, value) in &redo {
            if finals.iter().all(|&(seen, _)| seen != addr) {
                finals.push((addr, value));
            }
        }
        finals.sort();
        let mut from_image = image_writes(&image);
        from_image.sort();
        assert_eq!(from_image, finals);

        let (ra, rb) = (
            batch(&mut ta, &append),
            wordwise(&mut tb, &append, &mut undo),
        );
        assert_eq!(ra, rb, "append");
        ra?;
        assert_eq!(ta.write_set_len(), tb.write_set_len());
        let (ra, rb) = (
            batch(&mut ta, &read_back),
            wordwise(&mut tb, &read_back, &mut undo),
        );
        assert_eq!(ra, rb, "{read_back:?}");
        ra?;
        Ok::<_, AbortCode>(exchanges)
    })();
    let committed = outcome.and_then(|exchanges| {
        let (ca, cb) = (ta.commit(), tb.commit());
        assert_eq!(ca, cb, "commit");
        ca.map(|_| exchanges)
    });
    assert_eq!(a.observe(), b.observe(), "script seed {script_seed}");
    committed.ok().map(|exchanges| (image, exchanges))
}

/// The Redo transaction over an image taken by an undisturbed Log
/// transaction: a subscription read, the image, a marker, a read run over
/// the data (the image's words among them), the flush requests, commit.
fn redo_case(cfg: HtmConfig, script_seed: u64) {
    let producer = (script_seed..)
        .find_map(|seed| log_case(HtmConfig::skylake(), seed))
        .expect("an undoomed Log transaction commits");
    let (image, exchanges) = producer;
    let mut rng = SplitMix64::new(script_seed ^ 0xD0);
    let marker = run_of(&mut rng, 2);
    let subscribed = cell(rng.next_below(CELLS));
    let read_at = cell(rng.next_below(CELLS));
    let read_back = read_run(&mut rng, read_at);
    let (a, b) = (side(cfg), side(cfg));
    let (mut ta, mut tb) = (a.rt.begin(0), b.rt.begin(0));

    let outcome = (|| {
        let (ra, rb) = (ta.read(subscribed), tb.read(subscribed));
        assert_eq!(ra, rb);
        ra?;
        // Word by word: the image's words line by line, then one
        // redundant store per exchange that hit an already-written word.
        let writes = image_writes(&image);
        let repeats = exchanges - writes.len();
        let replay = writes
            .iter()
            .chain(writes.last().into_iter().cycle().take(repeats));
        let mut replay = replay;
        let redone_b = replay.try_for_each(|&(addr, value)| tb.write(addr, value));
        assert_eq!(ta.write_lines(&image, exchanges), redone_b, "redo");
        redone_b?;
        assert_eq!(ta.write_set_len(), tb.write_set_len());

        let (ra, rb) = (
            batch(&mut ta, &marker),
            wordwise(&mut tb, &marker, &mut Vec::new()),
        );
        assert_eq!(ra, rb, "marker");
        ra?;
        let (ra, rb) = (
            batch(&mut ta, &read_back),
            wordwise(&mut tb, &read_back, &mut Vec::new()),
        );
        assert_eq!(ra, rb, "{read_back:?}");
        ra?;
        let Op::Run(marker_at, marker_words) = &marker else {
            unreachable!()
        };
        let flushed_b = writes
            .iter()
            .map(|&(addr, _)| addr)
            .chain((0..marker_words.len() as u64).map(|i| marker_at.add(i)))
            .try_for_each(|addr| tb.flush_on_commit(addr));
        assert_eq!(ta.flush_writes_on_commit(), flushed_b);
        Ok::<_, AbortCode>(())
    })();
    if outcome.is_ok() {
        assert_eq!(ta.commit(), tb.commit(), "commit");
    } else {
        drop((ta, tb));
    }
    assert_eq!(a.observe(), b.observe(), "script seed {script_seed}");
}

/// For each countdown in 1..=24, a seed under which tid 0's first
/// transaction is doomed after exactly that many accesses.
fn seeds_by_countdown() -> [u64; 24] {
    let mut seeds = [None; 24];
    for seed in 0.. {
        if seeds.iter().all(Option::is_some) {
            break;
        }
        let probe = side(HtmConfig::skylake().with_zero_aborts(1.0, seed));
        let mut txn = probe.rt.begin(0);
        let survived = (0..30).take_while(|_| txn.read(cell(0)).is_ok()).count();
        seeds[survived - 1].get_or_insert(seed);
    }
    seeds.map(|seed| seed.expect("every countdown in 1..=24 is drawn"))
}

#[test]
fn every_countdown_strikes_both_interfaces_at_the_same_access() {
    for abort_seed in seeds_by_countdown() {
        let cfg = HtmConfig::skylake().with_zero_aborts(1.0, abort_seed);
        for script_seed in 0..24 {
            log_case(cfg, script_seed);
            redo_case(cfg, script_seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn batch_and_wordwise_agree(
        script_seed: u64,
        abort_seed: u64,
        doomed: bool,
        read_capacity in 1usize..8,
        write_capacity in 1usize..8,
    ) {
        let cfg = HtmConfig {
            read_capacity_lines: read_capacity,
            write_capacity_lines: write_capacity,
            ..HtmConfig::skylake().with_zero_aborts(f64::from(u8::from(doomed)), abort_seed)
        };
        log_case(cfg, script_seed);
        redo_case(cfg, script_seed);
    }
}

/// The heavy sweep of the read runs: the Log and Redo scripts over many
/// seeds, with every countdown and read capacities of one to seven lines.
/// Release only (`cargo test --release -- --include-ignored`).
#[test]
#[ignore = "heavy; run in release with --include-ignored"]
fn read_run_sweep_over_many_seeds() {
    let countdowns = seeds_by_countdown();
    for script_seed in 0..20_000u64 {
        let mut rng = SplitMix64::new(script_seed ^ 0x2EAD);
        let capped = HtmConfig {
            read_capacity_lines: 1 + rng.next_below(7) as usize,
            write_capacity_lines: 1 + rng.next_below(8) as usize,
            ..HtmConfig::skylake()
        };
        let cfg = match rng.chance(0.5) {
            true => capped.with_zero_aborts(1.0, countdowns[rng.next_below(24) as usize]),
            false => capped,
        };
        log_case(cfg, script_seed);
        redo_case(cfg, script_seed);
    }
}

/// A read run is one snapshot of its line: for a quarter of a second a writer
/// keeps storing whole lines of one value outside any transaction, and
/// every run a reader's `read_words` returns must hold one value
/// throughout. A run checked against the lock word only before its words
/// could straddle a store.
#[test]
fn a_read_run_is_one_snapshot_of_its_line() {
    let s = side(HtmConfig::skylake());
    let line = wide(0, 0);
    let stop = AtomicBool::new(false);
    let (served, torn) = std::thread::scope(|scope| {
        scope.spawn(|| {
            for k in 1.. {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                s.rt.nontx_write_words(line, &[k; 8]);
            }
        });
        let (mut served, mut torn) = (0, Vec::new());
        let deadline = Instant::now() + Duration::from_millis(250);
        while Instant::now() < deadline {
            let mut txn = s.rt.begin(0);
            let mut out = [0; 8];
            if txn.read_words(line, &mut out).is_ok() {
                served += 1;
                if out.iter().any(|&w| w != out[0]) {
                    torn.push(out);
                }
            }
        }
        stop.store(true, Ordering::Relaxed);
        (served, torn)
    });
    assert!(served > 0, "no run was served");
    assert!(
        torn.is_empty(),
        "{} torn runs, e.g. {:?}",
        torn.len(),
        torn[0]
    );
}

// ---------------------------------------------------------------------
// Hand-offs beyond the body domain: images of a hundred lines and more
// (the descriptor's index grows during the load), a Redo descriptor that
// already holds an image line, and an image line that is the Redo's last
// logged read.
// ---------------------------------------------------------------------

/// First word of the wide domain the large images are taken over
/// (persistent, clear of the cells and the log runs).
const WIDE_BASE: u64 = 8192;
const WIDE_LINES: u64 = 512;

fn wide(line: u64, word: u64) -> PAddr {
    PAddr::new(WIDE_BASE + line * 8 + word)
}

/// What the Redo transaction does around the image.
#[derive(Clone, Copy, Debug)]
struct Handoff {
    /// Distinct lines the Log transaction exchanges over.
    lines: u64,
    /// Write one of the image's lines before loading the image.
    merge: bool,
    /// Read one of the image's lines last before loading the image.
    held: bool,
    /// Store to an image line from outside after the load.
    interfere: bool,
}

/// A Log transaction exchanging `lines` distinct wide lines (in a shuffled
/// order, one to three exchanges each, words sometimes exchanged twice),
/// rolled back: its image and its exchange count.
fn wide_image(lines: u64, rng: &mut SplitMix64) -> (Vec<LineSlot>, usize) {
    let producer = side(HtmConfig::skylake());
    let mut txn = producer.rt.begin(0);
    let start = rng.next_below(WIDE_LINES);
    let stride = 2 * rng.next_below(WIDE_LINES / 2) + 1; // odd: a permutation
    for k in 0..lines {
        let line = (start + k * stride) % WIDE_LINES;
        for _ in 0..1 + rng.next_below(3) {
            txn.exchange(wide(line, rng.next_below(8)), rng.next_u64())
                .expect("an undoomed skylake Log transaction");
        }
    }
    let mut image = Vec::new();
    let exchanges = txn.roll_back(&mut image).expect("undoomed");
    (image, exchanges)
}

/// The Redo of a wide image on two sides, [`HwTxn::write_lines`] against
/// the word-wise replay, with `how`'s extras; everything must agree, the
/// wide domain included.
fn handoff_case(cfg: HtmConfig, how: Handoff, script_seed: u64) {
    let mut rng = SplitMix64::new(script_seed);
    let (image, exchanges) = wide_image(how.lines, &mut rng);
    let image_word = |rng: &mut SplitMix64| {
        let slot = image[rng.next_below(image.len() as u64) as usize];
        wide(slot.line() - WIDE_BASE / 8, rng.next_below(8))
    };
    let mut prelude = vec![Op::Read(wide(rng.next_below(WIDE_LINES), 0))];
    if how.merge {
        let words = (0..1 + rng.next_below(3)).map(|_| rng.next_u64()).collect();
        prelude.push(Op::Run(image_word(&mut rng), words));
    }
    if how.held {
        prelude.push(Op::Read(image_word(&mut rng)));
    }
    let outsider = image_word(&mut rng);
    let (a, b) = (side(cfg), side(cfg));
    let (mut ta, mut tb) = (a.rt.begin(0), b.rt.begin(0));

    let outcome = (|| {
        for op in &prelude {
            let (ra, rb) = (batch(&mut ta, op), wordwise(&mut tb, op, &mut Vec::new()));
            assert_eq!(ra, rb, "{op:?}");
            ra?;
        }
        let writes = image_writes(&image);
        let repeats = exchanges - writes.len();
        let mut replay = writes
            .iter()
            .chain(writes.last().into_iter().cycle().take(repeats));
        let redone_b = replay.try_for_each(|&(addr, value)| tb.write(addr, value));
        assert_eq!(ta.write_lines(&image, exchanges), redone_b, "redo");
        redone_b?;
        assert_eq!(ta.write_set_len(), tb.write_set_len());
        // Every written word's line: the image's and the merged run's
        // (which may spill into a line the image does not have).
        let run_words = prelude.iter().flat_map(|op| match op {
            Op::Run(at, words) => (0..words.len() as u64).map(|i| at.add(i)).collect(),
            _ => Vec::new(),
        });
        let flushed_b = writes
            .iter()
            .map(|&(addr, _)| addr)
            .chain(run_words)
            .try_for_each(|addr| tb.flush_on_commit(addr));
        assert_eq!(ta.flush_writes_on_commit(), flushed_b);
        Ok::<_, AbortCode>(())
    })();
    if how.interfere {
        a.rt.nontx_write(outsider, 1);
        b.rt.nontx_write(outsider, 1);
    }
    if outcome.is_ok() {
        let (ca, cb) = (ta.commit(), tb.commit());
        assert_eq!(ca, cb, "commit {how:?}");
        if how.interfere {
            assert_eq!(ca, Err(AbortCode::Conflict), "a locked line moved");
        }
    } else {
        drop((ta, tb));
    }
    let domain = |s: &Side| {
        let words = (0..WIDE_LINES * 8).map(|i| PAddr::new(WIDE_BASE + i));
        let seen: Vec<_> = words
            .map(|addr| (s.mem.read(addr), s.mem.read_persisted(addr)))
            .collect();
        (s.observe(), seen)
    };
    assert_eq!(domain(&a), domain(&b), "{how:?}, script seed {script_seed}");
}

/// The configurations a wide image meets: undoomed at full size, a write
/// capacity that overflows before, at and after the image's last line,
/// and the injected-abort countdowns, alone and racing an overflow at the
/// image's first lines (which of the two strikes first decides the code).
fn wide_configs(lines: u64, countdowns: &[u64]) -> Vec<HtmConfig> {
    let skylake = HtmConfig::skylake();
    let capped = |c: u64| HtmConfig {
        write_capacity_lines: c as usize,
        ..skylake
    };
    let capacities = [1, lines / 2, lines - 1, lines, lines + 1, lines + 2];
    let doomed = countdowns.iter().flat_map(|&seed| {
        [skylake, capped(1), capped(2), capped(3)].map(|cfg| cfg.with_zero_aborts(1.0, seed))
    });
    std::iter::once(skylake)
        .chain(capacities.map(capped))
        .chain(doomed)
        .collect()
}

#[test]
fn a_large_image_grows_the_index_and_hands_off_like_its_words() {
    let countdowns = seeds_by_countdown();
    // Each image size meets eight of the 24 countdowns.
    for (script_seed, lines, some) in [(1, 100, 0..8), (2, 130, 8..16), (3, 257, 16..24)] {
        for cfg in wide_configs(lines, &countdowns[some]) {
            let how = Handoff {
                lines,
                merge: false,
                held: false,
                interfere: false,
            };
            handoff_case(cfg, how, script_seed);
        }
    }
}

#[test]
fn an_image_line_the_redo_already_holds_keeps_its_merge() {
    for script_seed in 0..12 {
        for cfg in wide_configs(100, &[]) {
            let how = Handoff {
                lines: 100,
                merge: true,
                held: script_seed % 2 == 0,
                interfere: false,
            };
            handoff_case(cfg, how, script_seed);
        }
    }
}

#[test]
fn an_image_line_read_last_is_held_and_still_checked() {
    for script_seed in 0..12 {
        for interfere in [false, true] {
            let how = Handoff {
                lines: 100,
                merge: false,
                held: true,
                interfere,
            };
            handoff_case(HtmConfig::skylake(), how, script_seed);
        }
    }
}

/// The heavy sweep of the same equivalence: images of 100 to 400 lines,
/// every countdown, random capacities and extras, many seeds. Release
/// only (`cargo test --release -- --include-ignored`).
#[test]
#[ignore = "heavy; run in release with --include-ignored"]
fn handoff_sweep_over_large_images_and_many_seeds() {
    let countdowns = seeds_by_countdown();
    for script_seed in 0..20_000u64 {
        let mut rng = SplitMix64::new(script_seed ^ 0x5EE9);
        let lines = 100 + rng.next_below(301);
        let capped = HtmConfig {
            write_capacity_lines: match rng.next_below(3) {
                0 => 1 + rng.next_below(8),
                1 => 1 + rng.next_below(lines + 3),
                _ => 512,
            } as usize,
            ..HtmConfig::skylake()
        };
        let cfg = match rng.chance(0.5) {
            true => capped.with_zero_aborts(1.0, countdowns[rng.next_below(24) as usize]),
            false => capped,
        };
        let how = Handoff {
            lines,
            merge: rng.chance(0.5),
            held: rng.chance(0.5),
            interfere: rng.chance(0.25),
        };
        handoff_case(cfg, how, script_seed);
    }
}
