//! Crash-point torture of the persistent heap.
//!
//! A single thread runs a seeded stack on Crafty: a push allocates a
//! one-line or a three-line node and links it on top, and a pop unlinks
//! the top node and frees it, so a run reaches the bump path and both
//! free lists of [`crafty_pmem::Heap`]. Every crash image is recovered and
//! booted, and the audit requires:
//!
//! * the stack to equal the stack after some prefix of the operations;
//! * the heap's header to agree with it: every block, live or free, lies
//!   below the cursor, no two share a line, and every line below the
//!   cursor is one or the other;
//! * a second life's pushes to alias no live node: the old stack is still
//!   there, whole, under them.

use std::collections::BTreeSet;
use std::sync::Arc;

use crafty_common::trace;
use crafty_common::{PAddr, PersistentTm, SplitMix64, TxAbort, TxnOps, WORDS_PER_LINE};
use crafty_core::Crafty;
use crafty_pmem::{FaultPlan, Heap, MemorySpace, MAX_BLOCK_LINES};

use crate::bank::recover_checked;
use crate::kv::{crafty_cfg, pmem_cfg, CraftyRun};
use crate::{enumerate, TortureConfig, TortureReport};

/// A one-line node.
pub const SMALL: u64 = 3;
/// A three-line node, a B+-tree node's size. It repeats its value in its
/// last word, in its third line.
pub const LARGE: u64 = 19;

/// One operation: `Some(words)` pushes a node of that size, `None` pops.
pub type HeapOp = Option<u64>;

/// A node as the audit reads it: `(value, words, address)`.
type Node = (u64, u64, u64);

/// Draws the seeded operations: mostly pushes, of either size, and a pop
/// only when the stack is not empty. A push right after a pop mostly takes
/// the popped size, so the free lists are reused as well as filled.
pub fn draw_ops(seed: u64, txns: u64) -> Vec<HeapOp> {
    let mut rng = SplitMix64::new(seed ^ 0x0005_7ACC_0000_4EA3);
    let (mut stack, mut popped) = (Vec::new(), None);
    (0..txns)
        .map(|_| {
            if !stack.is_empty() && rng.chance(0.4) {
                popped = stack.pop();
                return None;
            }
            let words = match popped.take() {
                Some(words) if rng.chance(0.7) => words,
                _ if rng.chance(0.5) => SMALL,
                _ => LARGE,
            };
            stack.push(words);
            Some(words)
        })
        .collect()
}

/// Pushes a node holding `value` (`Some(words)`) or pops the top one.
/// Node words: `[0]` value, `[1]` next node (0 ends the stack), `[2]` size.
fn apply(ops: &mut dyn TxnOps, top: PAddr, value: u64, op: HeapOp) -> Result<(), TxAbort> {
    let Some(words) = op else {
        let node = PAddr::new(ops.read(top)?);
        if node.is_null() {
            return Ok(());
        }
        let next = ops.read(node.add(1))?;
        ops.write(top, next)?;
        let words = ops.read(node.add(2))?;
        return ops.dealloc(node, words);
    };
    let node = ops.alloc(words)?;
    let next = ops.read(top)?;
    for (offset, word) in [(0, value), (1, next), (2, words), (LARGE - 1, value)] {
        if offset < words {
            ops.write(node.add(offset), word)?;
        }
    }
    ops.write(top, node.word())
}

/// The engine and the stack's top pointer over a fresh or booted space:
/// the reservations are deterministic, so a booted space gets the first
/// life's addresses back.
fn open(mem: &Arc<MemorySpace>) -> (Crafty, PAddr) {
    let engine = Crafty::new(Arc::clone(mem), crafty_cfg(1));
    (engine, mem.reserve_persistent(1))
}

/// Runs the operations once under `plan`.
fn run_once(ops: &[HeapOp], plan: FaultPlan) -> CraftyRun {
    trace::reset_rings();
    let mem = Arc::new(MemorySpace::new(pmem_cfg(plan, 1)));
    let (engine, top) = open(&mem);
    let mut thread = engine.register_thread(0);
    let setup_steps = mem.fault_steps();
    for (i, &op) in ops.iter().enumerate() {
        thread.execute(&mut |txn| apply(txn, top, 1_000 + i as u64, op));
    }
    drop(thread);
    CraftyRun::finish(&mem, setup_steps, engine.directory_addr())
}

/// Reads the stack, top first, and checks the heap's header against it:
/// every block, live or free, lies below the cursor, no two share a line,
/// and every line below the cursor is one or the other.
fn read_heap(mem: &MemorySpace, heap: Heap, top: PAddr) -> Result<Vec<Node>, String> {
    let (start, used) = (heap.start().word(), mem.read(heap.header()));
    let mut taken = BTreeSet::new();
    let mut take = |addr: u64, words: u64| {
        let (first, lines) = (addr / WORDS_PER_LINE, words.div_ceil(WORDS_PER_LINE));
        let below = addr >= start && addr + lines * WORDS_PER_LINE <= start + used;
        if !addr.is_multiple_of(WORDS_PER_LINE) || !below {
            return Err(format!("block {addr:#x} is not below the cursor"));
        }
        match (first..first + lines).all(|line| taken.insert(line)) {
            true => Ok(()),
            false => Err(format!("block {addr:#x} overlaps another block")),
        }
    };
    let (mut stack, mut next) = (Vec::new(), mem.read(top));
    while next != 0 {
        take(next, SMALL)?;
        let node = PAddr::new(next);
        let (value, words) = (mem.read(node), mem.read(node.add(2)));
        if words != SMALL && (words != LARGE || mem.read(node.add(LARGE - 1)) != value) {
            return Err(format!("node {next:#x} is torn: {words} words"));
        }
        if words == LARGE {
            take(next + WORDS_PER_LINE, LARGE - WORDS_PER_LINE)?;
        }
        stack.push((value, words, next));
        next = mem.read(node.add(1));
    }
    for lines in 1..=MAX_BLOCK_LINES {
        let mut free = mem.read(heap.header().add(lines));
        while free != 0 {
            take(free, lines * WORDS_PER_LINE)?;
            free = mem.read(PAddr::new(free));
        }
    }
    let lines = taken.len() as u64;
    if lines * WORDS_PER_LINE != used {
        return Err(format!("{lines} lines live or free of {used} words bumped"));
    }
    Ok(stack)
}

/// Audits one crash image: recovery, the prefix, the header, and a second
/// life.
fn audit(run: &mut CraftyRun, ops: &[HeapOp]) -> Result<(), String> {
    let image = run.image.take().expect("an audited run trapped its image");
    let recovered = recover_checked(image, run.dir_addr)?;
    let cfg = pmem_cfg(FaultPlan::inactive(), 1);
    let mem = Arc::new(MemorySpace::boot(&recovered, cfg));
    let (engine, top) = open(&mem);
    let live = read_heap(&mem, engine.heap(), top)?;
    let mut shadow = Vec::new();
    let is_prefix = (0..=ops.len()).any(|k| {
        match k.checked_sub(1).map(|i| (i, ops[i])) {
            Some((i, Some(words))) => shadow.insert(0, (1_000 + i as u64, words)),
            Some((_, None)) if !shadow.is_empty() => drop(shadow.remove(0)),
            _ => {}
        }
        live.iter()
            .map(|&(v, w, _)| (v, w))
            .eq(shadow.iter().copied())
    });
    if !is_prefix {
        return Err(format!("a stack of {} nodes matches no prefix", live.len()));
    }
    let mut thread = engine.register_thread(0);
    for (value, words) in [SMALL, LARGE, SMALL, LARGE].into_iter().enumerate() {
        thread.execute(&mut |txn| apply(txn, top, value as u64, Some(words)));
    }
    drop(thread);
    let after = read_heap(&mem, engine.heap(), top).map_err(|e| format!("second life: {e}"))?;
    if after.len() != live.len() + 4 || after[4..] != live[..] {
        return Err("a second-life push overwrote a live node".to_string());
    }
    Ok(())
}

/// Runs the heap torture suite: step counting, crash-point replay, and the
/// recover / prefix / header / second-life audit per image.
pub fn run_heap_torture(cfg: &TortureConfig) -> TortureReport {
    let ops = draw_ops(cfg.seed, cfg.txns);
    enumerate(
        "heap",
        cfg,
        |step| cfg.adversary(step),
        |plan| run_once(&ops, plan),
        |run, _| audit(run, &ops),
    )
}
