//! Property tests for the open-addressed line table: arbitrary
//! interleavings of insert / lookup / epoch-clear / growth must agree with
//! the std `HashMap` reference behaviour it replaced on the transaction
//! hot path.

use std::collections::HashMap;

use crafty_common::LineTable;
use proptest::prelude::*;

/// One scripted operation against both the scratch structure and its
/// reference model.
#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u64, u64),
    Lookup(u64),
    Clear,
}

/// Decodes a draw into an operation. Keys are confined to a small domain
/// so that collisions, duplicate inserts, and probe chains actually occur;
/// every 64th value also throws in a huge key to exercise hashing of sparse
/// addresses.
fn decode_op(raw: u64, value: u64) -> Op {
    let key_small = raw % 97;
    let key = if raw % 64 == 63 {
        key_small.wrapping_mul(0x0040_0000_0000_1001)
    } else {
        key_small
    };
    match raw % 13 {
        // Clears are rare so runs between them grow long enough to force
        // table growth.
        0 => Op::Clear,
        1..=6 => Op::Insert(key, value),
        _ => Op::Lookup(key),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The line table behaves exactly like a `HashMap` from line id to
    /// (words, mask, flags) plus a first-touch order list, under arbitrary
    /// sequences of find / entry / word store / flag set / generation clear, with
    /// a tiny initial capacity so that the index grows mid-generation.
    #[test]
    fn line_table_agrees_with_hashmap_model(seed: u64, ops in 1usize..400) {
        let mut rng = crafty_common::SplitMix64::new(seed);
        let mut ours = LineTable::with_capacity(4);
        let mut model: HashMap<u64, ([u64; 8], u8, u8)> = HashMap::new();
        let mut order: Vec<u64> = Vec::new();
        for step in 0..ops {
            let value = rng.next_u64();
            match decode_op(rng.next_u64(), value) {
                Op::Insert(line, value) => {
                    // Half the inserts come after a `find` of the same line
                    // (a read, then a write): a miss there hands `entry`
                    // its probe position.
                    if value & 1 == 1 {
                        let pos = order.iter().position(|&l| l == line);
                        prop_assert_eq!(ours.find(line), pos, "step {}", step);
                    }
                    let idx = ours.entry(line);
                    if !model.contains_key(&line) {
                        prop_assert_eq!(idx, order.len(), "step {}: new lines append", step);
                        let fresh = ours.slots()[idx];
                        prop_assert_eq!((fresh.mask, fresh.flags), (0, 0), "step {}", step);
                        order.push(line);
                    }
                    let entry = model.entry(line).or_insert(([0; 8], 0, 0));
                    let word = (value % 8) as usize;
                    let flag = 1u8 << ((value >> 8) % 4);
                    entry.0[word] = value;
                    entry.1 |= 1 << word;
                    entry.2 |= flag;
                    let slot = ours.slot_mut(idx);
                    slot.words[word] = value;
                    slot.mask |= 1 << word;
                    slot.flags |= flag;
                }
                Op::Lookup(line) => {
                    // `find` never inserts; `entry` is find-or-insert: a hit
                    // must return the line's existing index with its
                    // contents intact, twice in a row (the second time
                    // through the last-line cache).
                    let pos = order.iter().position(|&l| l == line);
                    prop_assert_eq!(ours.find(line), pos, "step {}", step);
                    if let Some(pos) = pos {
                        prop_assert_eq!(ours.entry(line), pos, "step {}", step);
                        prop_assert_eq!(ours.entry(line), pos, "step {}", step);
                    }
                }
                Op::Clear => {
                    ours.clear();
                    model.clear();
                    order.clear();
                }
            }
            prop_assert_eq!(ours.len(), order.len(), "step {}", step);
        }
        let lines: Vec<u64> = ours.slots().iter().map(|s| s.line()).collect();
        prop_assert_eq!(&lines, &order, "first-touch order");
        for slot in ours.slots() {
            let (words, mask, flags) = model[&slot.line()];
            prop_assert_eq!((slot.mask, slot.flags), (mask, flags));
            for (i, (ours, model)) in slot.words.iter().zip(&words).enumerate() {
                if mask & (1 << i) != 0 {
                    prop_assert_eq!(ours, model);
                }
            }
        }
    }

    /// Epoch-clearing never resurrects previous-epoch entries, even after
    /// thousands of generations (the generation counter must not alias).
    #[test]
    fn generations_never_alias(seed: u64) {
        let mut rng = crafty_common::SplitMix64::new(seed);
        let mut lines = LineTable::with_capacity(8);
        for _gen in 0..2000 {
            let key = rng.next_u64() % 31;
            prop_assert!(lines.is_empty(), "stale line visible after clear");
            let idx = lines.entry(key);
            prop_assert_eq!(lines.slots()[idx].mask, 0, "stale mask on a reused entry");
            lines.slot_mut(idx).mask = 0xFF;
            prop_assert_eq!(lines.entry(key), idx);
            lines.clear();
        }
    }
}
