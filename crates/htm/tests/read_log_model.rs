//! The read log against a reference model. A hardware transaction keeps
//! the lines it reads from memory in an append-only log that is sorted and
//! deduplicated only once it outgrows the read capacity; what must hold
//! from outside is what a per-line read flag and counter gave:
//!
//! * random scripts of reads, writes, exchanges and roll-backs over a few
//!   lines, at read capacities 1 to 8, abort for capacity at the same
//!   access as a model that counts the distinct lines served from memory,
//!   and read the same values up to there — interleaved re-reads
//!   (A, B, A, B, …) included, which force the compaction;
//! * every kind of logged line is validated: a foreign commit to it aborts
//!   the transaction.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crafty_common::{BreakdownRecorder, PAddr, SplitMix64};
use crafty_htm::{AbortCode, HtmConfig, HtmRuntime, HwTxn};
use crafty_pmem::{MemorySpace, PmemConfig};
use proptest::prelude::*;

/// Data lines a script touches: more than the largest capacity tried, so
/// every capacity can be exceeded.
const LINES: u64 = 10;
/// Words of a line a script touches: few, so accesses collide.
const WORDS: u64 = 3;

/// Word `word` of data line `line`.
fn addr(line: u64, word: u64) -> PAddr {
    PAddr::new(512 + line * 8 + word)
}

/// What the word held before the transaction began.
fn initial(line: u64, word: u64) -> u64 {
    1000 + line * 8 + word
}

fn runtime(read_capacity_lines: usize) -> HtmRuntime {
    let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
    for line in 0..LINES {
        for word in 0..8 {
            mem.write(addr(line, word), initial(line, word));
        }
    }
    let cfg = HtmConfig {
        read_capacity_lines,
        ..HtmConfig::skylake()
    };
    HtmRuntime::new(mem, cfg, Arc::new(BreakdownRecorder::new()))
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Read(u64, u64),
    Write(u64, u64, u64),
    Exchange(u64, u64, u64),
    RollBack,
}

fn decode(raw: u64, value: u64) -> Op {
    let (line, word) = (raw % LINES, (raw >> 8) % WORDS);
    match (raw >> 16) % 16 {
        0 => Op::RollBack,
        1..=3 => Op::Write(line, word, value),
        4..=6 => Op::Exchange(line, word, value),
        _ => Op::Read(line, word),
    }
}

/// The transaction as the model sees it: the words it buffered, the lines
/// a roll-back cannot demote, the exchanges' old values, and the distinct
/// lines it read from memory.
struct Model {
    capacity: usize,
    buffered: HashMap<(u64, u64), u64>,
    /// Lines with a buffered write that a roll-back has not demoted.
    data: HashSet<u64>,
    /// Lines a plain write touched: never demoted.
    plain: HashSet<u64>,
    journal: Vec<((u64, u64), u64)>,
    read_lines: HashSet<u64>,
}

impl Model {
    fn new(capacity: usize) -> Self {
        Model {
            capacity,
            buffered: HashMap::new(),
            data: HashSet::new(),
            plain: HashSet::new(),
            journal: Vec::new(),
            read_lines: HashSet::new(),
        }
    }

    fn load(&mut self, line: u64, word: u64) -> Result<u64, AbortCode> {
        if let Some(&value) = self.buffered.get(&(line, word)) {
            return Ok(value);
        }
        self.read_lines.insert(line);
        if self.read_lines.len() > self.capacity {
            return Err(AbortCode::Capacity);
        }
        Ok(initial(line, word))
    }

    fn store(&mut self, line: u64, word: u64, value: u64, plain: bool) {
        self.buffered.insert((line, word), value);
        self.data.insert(line);
        if plain {
            self.plain.insert(line);
        }
    }

    fn apply(&mut self, op: Op) -> Result<u64, AbortCode> {
        match op {
            Op::Read(line, word) => self.load(line, word),
            Op::Write(line, word, value) => {
                self.store(line, word, value, true);
                Ok(0)
            }
            Op::Exchange(line, word, value) => {
                let old = self.load(line, word)?;
                self.store(line, word, value, false);
                self.journal.push(((line, word), old));
                Ok(old)
            }
            Op::RollBack => {
                let demoted: Vec<u64> = self.data.difference(&self.plain).copied().collect();
                for line in demoted {
                    self.data.remove(&line);
                    self.buffered.retain(|&(l, _), _| l != line);
                }
                for &(at, old) in self.journal.iter().rev() {
                    if let Some(value) = self.buffered.get_mut(&at) {
                        *value = old;
                    }
                }
                Ok(self.journal.len() as u64)
            }
        }
    }
}

fn run(txn: &mut HwTxn<'_>, op: Op) -> Result<u64, AbortCode> {
    match op {
        Op::Read(line, word) => txn.read(addr(line, word)),
        Op::Write(line, word, value) => txn.write(addr(line, word), value).map(|()| 0),
        Op::Exchange(line, word, value) => txn.exchange(addr(line, word), value),
        Op::RollBack => txn.roll_back(&mut Vec::new()).map(|n| n as u64),
    }
}

/// Runs `ops` on a fresh transaction and on the model side by side: the
/// same result at every access, the first error ends both, and a script
/// that never aborts commits.
fn check_script(capacity: usize, ops: &[Op]) -> Result<(), TestCaseError> {
    let rt = runtime(capacity);
    let mut txn = rt.begin(0);
    let mut model = Model::new(capacity);
    for (step, &op) in ops.iter().enumerate() {
        let (ours, expected) = (run(&mut txn, op), model.apply(op));
        prop_assert_eq!(
            ours,
            expected,
            "capacity {}, step {}: {:?}",
            capacity,
            step,
            op
        );
        if expected.is_err() {
            return Ok(());
        }
    }
    prop_assert!(txn.commit().is_ok(), "capacity {}: uncontended", capacity);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn read_capacity_aborts_where_the_model_does(seed: u64, len in 1usize..120) {
        let mut rng = SplitMix64::new(seed);
        let ops: Vec<Op> = (0..len)
            .map(|_| {
                let raw = rng.next_u64();
                decode(raw, rng.next_u64() % 100)
            })
            .collect();
        for capacity in 1..=8 {
            check_script(capacity, &ops)?;
        }
    }

    /// Interleaved re-reads of a few lines (with writes and exchanges
    /// mixed in) grow the log far past the capacity while the distinct
    /// count stays within it — compaction after compaction — until a new
    /// line tips it over.
    #[test]
    fn interleaved_re_reads_compact_without_moving_the_abort(
        seed: u64,
        rounds in 1usize..40,
        hot in 1u64..=4,
    ) {
        let mut rng = SplitMix64::new(seed);
        let mut ops = Vec::new();
        for round in 0..rounds as u64 {
            for line in 0..hot {
                ops.push(Op::Read(line, round % WORDS));
            }
            match rng.next_below(4) {
                0 => ops.push(Op::Write(rng.next_below(hot), 1, round)),
                1 => ops.push(Op::Exchange(rng.next_below(LINES), 2, round)),
                _ => {}
            }
        }
        ops.extend((hot..LINES).map(|line| Op::Read(line, 0)));
        for capacity in 1..=8 {
            check_script(capacity, &ops)?;
        }
    }
}

/// A transaction body that logs line 0 one way or another.
type Body = fn(&mut HwTxn<'_>);

/// Runs `body` in a transaction, has another thread commit a write to a
/// word of line 0 that `body` does not touch, and returns the
/// transaction's commit (`bump` false: nobody interferes).
fn commit_after(bump: bool, body: Body) -> Result<u64, AbortCode> {
    let rt = runtime(HtmConfig::skylake().read_capacity_lines);
    let mut txn = rt.begin(0);
    body(&mut txn);
    if bump {
        let mut foreign = rt.begin(1);
        foreign.write(addr(0, 7), 1).unwrap();
        foreign.commit().unwrap();
    }
    txn.commit()
}

#[test]
fn a_foreign_commit_aborts_every_kind_of_logged_line() {
    let kinds: [(&str, Body); 5] = [
        ("only read, read-only commit", |t| {
            t.read(addr(0, 0)).unwrap();
        }),
        ("only read, beside a write", |t| {
            t.read(addr(0, 0)).unwrap();
            t.write(addr(5, 0), 1).unwrap();
        }),
        ("read after another of its words was written", |t| {
            t.write(addr(0, 1), 5).unwrap();
            assert_eq!(t.read(addr(0, 0)).unwrap(), initial(0, 0));
        }),
        ("demoted by a roll-back", |t| {
            t.exchange(addr(0, 0), 9).unwrap();
            t.roll_back(&mut Vec::new()).unwrap();
            t.write(addr(5, 0), 1).unwrap();
        }),
        (
            "read, then written: its version moves before the lock",
            |t| {
                let v = t.read(addr(0, 0)).unwrap();
                t.write(addr(0, 0), v + 1).unwrap();
            },
        ),
    ];
    for (kind, body) in kinds {
        assert!(commit_after(false, body).is_ok(), "{kind}: control");
        assert_eq!(commit_after(true, body), Err(AbortCode::Conflict), "{kind}");
    }
}

#[test]
fn a_logged_line_the_commit_holds_is_no_conflict() {
    // Its own lock bit fails the version check; the lookup among the held
    // lines clears it. Many reads of it, between other lines' reads, and a
    // compaction (capacity 2) in the middle.
    let rt = runtime(2);
    let mut txn = rt.begin(0);
    txn.write(addr(0, 1), 5).unwrap();
    for _ in 0..4 {
        txn.read(addr(0, 0)).unwrap();
        txn.read(addr(1, 0)).unwrap();
    }
    txn.commit().expect("line 0 is held, line 1 unchanged");
}
