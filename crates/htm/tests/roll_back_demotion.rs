//! The demotion rule of [`HwTxn::roll_back`]: a line that only exchanges
//! wrote to is, once rolled back, exactly what the transaction read — so
//! the commit validates it with the read set instead of locking it,
//! publishing old values over themselves and bumping its version. What
//! must hold from outside: no false conflict for readers of such a line,
//! a real conflict for anything that changes or locks it before the
//! commit, the old behaviour for lines a plain write or a version sink
//! touched, and every capacity and fault-clock count where it was.

use std::sync::Arc;

use crafty_common::{BreakdownRecorder, PAddr};
use crafty_htm::{AbortCode, HtmConfig, HtmRuntime, HwTxn};
use crafty_pmem::{FaultPlan, MemorySpace, PmemConfig};

/// Word 0 of data line `i` (persistent).
fn line(i: u64) -> PAddr {
    PAddr::new(512 + i * 8)
}

/// Where the Log-style transactions append (persistent, clear of the data).
const LOG: PAddr = PAddr::new(4096);

fn runtime_over(pmem: PmemConfig, cfg: HtmConfig) -> HtmRuntime {
    let mem = Arc::new(MemorySpace::new(pmem));
    for i in 0..8 {
        mem.write(line(i), 100 + i);
    }
    HtmRuntime::new(mem, cfg, Arc::new(BreakdownRecorder::new()))
}

fn runtime(cfg: HtmConfig) -> HtmRuntime {
    runtime_over(PmemConfig::small_for_tests(), cfg)
}

/// A Log-style transaction up to its commit: exchange word 0 of each of
/// `lines`, roll everything back, append `log_words` words to the log.
fn log_style<'rt>(rt: &'rt HtmRuntime, lines: &[u64], log_words: usize) -> HwTxn<'rt> {
    let mut txn = rt.begin(0);
    for &i in lines {
        assert_eq!(txn.exchange(line(i), 9000 + i).unwrap(), 100 + i);
    }
    let mut image = Vec::new();
    assert_eq!(txn.roll_back(&mut image).unwrap(), lines.len());
    assert_eq!(image.len(), lines.len(), "the image still has every line");
    txn.write_words(LOG, &vec![7; log_words]).unwrap();
    txn
}

#[test]
fn a_rolled_back_line_keeps_its_version_and_its_readers() {
    let rt = runtime(HtmConfig::skylake());
    let mut reader = rt.begin(1);
    assert_eq!(reader.read(line(0)).unwrap(), 100);

    let txn = log_style(&rt, &[0, 1], 3);
    txn.commit().expect("nothing interfered");
    assert_eq!(rt.mem().read(line(0)), 100, "rolled back");
    assert_eq!(rt.mem().read(LOG.add(2)), 7, "the append published");

    // The line was validated, not locked and re-versioned: a transaction
    // that read it before the Log-style commit still commits.
    reader.write(line(5), 1).unwrap();
    reader.commit().expect("no false conflict");
}

#[test]
fn interference_with_a_demoted_line_aborts_the_commit() {
    // A non-transactional store.
    let rt = runtime(HtmConfig::skylake());
    let txn = log_style(&rt, &[0, 1], 3);
    rt.nontx_write(line(1), 5);
    assert_eq!(txn.commit().unwrap_err(), AbortCode::Conflict);
    assert_eq!(rt.mem().read(LOG), 0, "nothing published");

    // A committed writer.
    let rt = runtime(HtmConfig::skylake());
    let txn = log_style(&rt, &[0, 1], 3);
    let mut writer = rt.begin(1);
    writer.write(line(0).add(3), 5).unwrap();
    writer.commit().unwrap();
    assert_eq!(txn.commit().unwrap_err(), AbortCode::Conflict);

    // A held fallback write lock: validation subscribes to it like a read.
    let rt = runtime(HtmConfig::skylake());
    let txn = log_style(&rt, &[0, 1], 3);
    let mut fallback = rt.begin_fallback(1);
    fallback.write(line(1), 5);
    fallback.lock_write_set();
    assert_eq!(txn.commit().unwrap_err(), AbortCode::Conflict);
    drop(fallback);
}

/// Runs `script` on line 0 against a reader that read the line first, and
/// returns whether the reader then still commits (= the line's version did
/// not move) plus the script's commit version.
fn reader_survives(script: impl FnOnce(&mut HwTxn<'_>)) -> (bool, u64, HtmRuntime) {
    let rt = runtime(HtmConfig::skylake());
    let survived;
    let wv;
    {
        let mut reader = rt.begin(1);
        reader.read(line(0)).unwrap();
        let mut txn = rt.begin(0);
        script(&mut txn);
        wv = txn.commit().expect("uncontended");
        reader.write(line(5), 1).unwrap();
        survived = reader.commit().is_ok();
    }
    (survived, wv, rt)
}

#[test]
fn lines_with_a_plain_write_or_a_sink_publish_as_before() {
    let mut image = Vec::new();

    // A plain write under the exchange (same line, other word).
    let (survived, _, rt) = reader_survives(|txn| {
        txn.write(line(0).add(1), 5).unwrap();
        txn.exchange(line(0), 9).unwrap();
        txn.roll_back(&mut image).unwrap();
    });
    assert!(!survived, "the line was published, so its version moved");
    assert_eq!(
        (rt.mem().read(line(0)), rt.mem().read(line(0).add(1))),
        (100, 5)
    );

    // A plain write after the exchange, to the exchanged word itself: the
    // roll-back restores the journalled value over it.
    let (survived, _, rt) = reader_survives(|txn| {
        txn.exchange(line(0), 9).unwrap();
        txn.write(line(0), 5).unwrap();
        txn.roll_back(&mut image).unwrap();
    });
    assert!(!survived);
    assert_eq!(rt.mem().read(line(0)), 100);

    // A version sink on the line.
    let (survived, wv, rt) = reader_survives(|txn| {
        txn.publish_commit_version(line(0).add(2)).unwrap();
        txn.exchange(line(0), 9).unwrap();
        txn.roll_back(&mut image).unwrap();
    });
    assert!(!survived);
    assert_eq!(
        (rt.mem().read(line(0)), rt.mem().read(line(0).add(2))),
        (100, wv)
    );

    // The control: the exchange alone leaves the reader be.
    let (survived, _, rt) = reader_survives(|txn| {
        txn.exchange(line(0), 9).unwrap();
        txn.roll_back(&mut image).unwrap();
        txn.write(LOG, 1).unwrap();
    });
    assert!(survived);
    assert_eq!(rt.mem().read(line(0)), 100);
}

#[test]
fn a_demoted_line_still_counts_toward_capacity_and_re_promotes_once() {
    // Write capacity: 4 lines. Four exchanged lines fill it, rolled back
    // or not — exactly as when the roll-back kept them in the write set.
    let rt = runtime(HtmConfig::tiny());
    let mut txn = rt.begin(0);
    for i in 0..4 {
        txn.exchange(line(i), 9).unwrap();
    }
    let written = txn.write_set_len();
    txn.roll_back(&mut Vec::new()).unwrap();
    assert_eq!(txn.write_set_len(), written, "still the HTM's footprint");
    // Writing a demoted line again is not a fifth line...
    txn.write(line(0), 5).unwrap();
    txn.exchange(line(1), 6).unwrap();
    // ...but a fifth line is, at the access it always was.
    assert_eq!(txn.write(line(4), 1).unwrap_err(), AbortCode::Capacity);
    drop(txn);

    // A re-promoted line publishes; its still-demoted neighbours do not.
    let rt = runtime(HtmConfig::tiny());
    let mut reader_of_0 = rt.begin(1);
    reader_of_0.read(line(0)).unwrap();
    let mut reader_of_2 = rt.begin(2);
    reader_of_2.read(line(2)).unwrap();
    let mut txn = rt.begin(0);
    for i in 0..4 {
        txn.exchange(line(i), 9).unwrap();
    }
    txn.roll_back(&mut Vec::new()).unwrap();
    txn.write(line(0), 5).unwrap();
    txn.commit().unwrap();
    assert_eq!(rt.mem().read(line(0)), 5);
    assert_eq!(rt.mem().read(line(1)), 101);
    assert_eq!(reader_of_0.commit().unwrap_err(), AbortCode::Conflict);
    reader_of_2.commit().expect("line 2 stayed demoted");
}

#[test]
fn a_commit_of_nothing_but_rolled_back_exchanges_is_write_less() {
    let rt = runtime(HtmConfig::skylake());
    let mut first = rt.begin(0);
    first.write(line(7), 1).unwrap();
    let clock = first.commit().unwrap();

    let mut txn = rt.begin(0);
    txn.exchange(line(0), 9).unwrap();
    txn.exchange(line(1), 9).unwrap();
    txn.roll_back(&mut Vec::new()).unwrap();
    assert_eq!(txn.commit().unwrap(), clock, "returns its snapshot version");

    let mut next = rt.begin(0);
    next.write(line(7), 2).unwrap();
    assert_eq!(next.commit().unwrap(), clock + 1, "the clock was not drawn");
    // It validates all the same.
    let mut txn = rt.begin(0);
    txn.exchange(line(0), 9).unwrap();
    txn.roll_back(&mut Vec::new()).unwrap();
    rt.nontx_write(line(0), 3);
    assert_eq!(txn.commit().unwrap_err(), AbortCode::Conflict);
}

#[test]
fn a_log_style_commit_ticks_the_fault_clock_for_the_log_words_only() {
    let pmem = PmemConfig::small_for_tests().with_fault_plan(FaultPlan::count_only());
    let rt = runtime_over(pmem, HtmConfig::skylake());
    // Three persistent lines exchanged and rolled back, five log words.
    let txn = log_style(&rt, &[0, 1, 2], 5);
    let before = rt.mem().fault_steps();
    txn.commit().unwrap();
    assert_eq!(
        rt.mem().fault_steps() - before,
        5,
        "one tick per published persistent store: the append's, and none \
         for an old value stored over itself"
    );
}
