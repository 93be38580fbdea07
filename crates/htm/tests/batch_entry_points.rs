//! The batch entry points of [`HwTxn`] — `exchange`, `roll_back`,
//! `write_words`, `write_lines`, `flush_writes_on_commit` — against the
//! `read` / `write` / `flush_on_commit` calls they replace: two runtimes
//! over identical memory run the same script, one through each interface,
//! and must agree on every result, on the abort code and the access it
//! strikes at, and after commit on memory, persist traffic and queued
//! flushes — under every injected-abort countdown and under capacities
//! small enough to overflow.

use std::sync::Arc;

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
    Exchange(PAddr, u64),
    Run(PAddr, Vec<u64>),
}

fn run_of(rng: &mut SplitMix64, max_words: u64) -> Op {
    let words = (0..1 + rng.next_below(max_words))
        .map(|_| rng.next_u64())
        .collect();
    Op::Run(PAddr::new(LOG_BASE + rng.next_below(24)), words)
}

/// A Log-phase-shaped body: loads and stores over a domain small enough
/// that words repeat and lines fill.
fn body(rng: &mut SplitMix64) -> Vec<Op> {
    (0..rng.next_below(9))
        .map(|_| {
            let addr = cell(rng.next_below(CELLS));
            match rng.next_below(3) {
                0 => Op::Read(addr),
                _ => Op::Exchange(addr, rng.next_u64()),
            }
        })
        .collect()
}

fn batch(txn: &mut HwTxn<'_>, op: &Op) -> Result<u64, AbortCode> {
    match op {
        Op::Read(addr) => txn.read(*addr),
        Op::Exchange(addr, value) => txn.exchange(*addr, *value),
        Op::Run(addr, words) => txn.write_words(*addr, words).map(|()| 0),
    }
}

/// The same access through the calls the batch entry points replace;
/// exchanges are recorded as `(address, old value)` the way the Log phase
/// used to.
fn wordwise(txn: &mut HwTxn<'_>, op: &Op, undo: &mut Vec<(PAddr, u64)>) -> Result<u64, AbortCode> {
    match op {
        Op::Read(addr) => txn.read(*addr),
        Op::Exchange(addr, value) => {
            let old = txn.read(*addr)?;
            undo.push((*addr, old));
            txn.write(*addr, *value)?;
            Ok(old)
        }
        Op::Run(addr, words) => {
            for (i, &word) in words.iter().enumerate() {
                txn.write(addr.add(i as u64), word)?;
            }
            Ok(0)
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

/// The Log transaction: a body, the roll-back, a log-style append, commit.
/// Returns the batch side's redo image if both sides committed.
fn log_case(cfg: HtmConfig, script_seed: u64) -> Option<(Vec<LineSlot>, usize)> {
    let mut rng = SplitMix64::new(script_seed);
    let body = body(&mut rng);
    let append = run_of(&mut rng, 24);
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
/// transaction: a subscription read, the image, a marker, the flush
/// requests, commit.
fn redo_case(cfg: HtmConfig, script_seed: u64) {
    let producer = (script_seed..)
        .find_map(|seed| log_case(HtmConfig::skylake(), seed))
        .expect("an undoomed Log transaction commits");
    let (image, exchanges) = producer;
    let mut rng = SplitMix64::new(script_seed ^ 0xD0);
    let marker = run_of(&mut rng, 2);
    let subscribed = cell(rng.next_below(CELLS));
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
