//! The B+-tree microbenchmark (Section 7.1).
//!
//! A B+-tree stored entirely in the persistent heap, operated on through
//! [`TxnOps`] so that every node access is transactional. The benchmark has
//! the paper's two variants: insert-only, and a mix of lookups, inserts,
//! and removals. Keys and values are 64-bit words.
//!
//! The tree is intentionally simple (fixed fanout, leaf-level deletion
//! without rebalancing) — the benchmark stresses the persistent-transaction
//! engine, not the index structure.

use std::sync::Arc;

use crafty_common::{PAddr, SplitMix64, TxAbort, TxnOps};
use crafty_pmem::MemorySpace;

use crate::driver::{TxnMix, Workload};

/// Maximum keys per node (fanout − 1). Chosen so that a node (metadata,
/// keys, and children/values) fits in a handful of cache lines, giving
/// transaction footprints close to the paper's (≈13–14 writes per insert
/// once splits are amortized).
const MAX_KEYS: u64 = 8;

/// Node layout (in words):
/// `[0] is_leaf`, `[1] nkeys`, `[2..2+MAX_KEYS] keys`,
/// `[10..10+MAX_KEYS+1] children` (internal) or `values` (leaf; slot
/// `MAX_KEYS` unused).
const NODE_WORDS: u64 = 2 + MAX_KEYS + MAX_KEYS + 1;

const OFF_IS_LEAF: u64 = 0;
const OFF_NKEYS: u64 = 1;
const OFF_KEYS: u64 = 2;
const OFF_CHILDREN: u64 = 2 + MAX_KEYS;

/// Which operation mix to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BtreeVariant {
    /// Insert operations only (Figure 7(a)).
    InsertOnly,
    /// Lookup, insert, and remove operations (Figure 7(b)): 50% lookups,
    /// 30% inserts, 20% removals.
    Mixed,
}

/// The B+-tree workload configuration.
#[derive(Clone, Copy, Debug)]
pub struct BtreeWorkload {
    /// Operation mix.
    pub variant: BtreeVariant,
    /// Keys are drawn uniformly from `[0, key_space)`.
    pub key_space: u64,
}

impl BtreeWorkload {
    /// [`Workload::prepare`] as the concrete mix, whose `insert` and
    /// `lookup` a caller can drive: reserves and persists the root pointer.
    pub fn tree(&self, mem: &MemorySpace) -> BtreeMix {
        let root_ptr = mem.reserve_persistent(1);
        mem.persist(0, root_ptr);
        BtreeMix {
            root_ptr,
            variant: self.variant,
            key_space: self.key_space,
        }
    }

    /// The paper-style configuration for the given variant.
    pub fn paper(variant: BtreeVariant) -> Self {
        BtreeWorkload {
            variant,
            key_space: 1 << 20,
        }
    }
}

/// The prepared tree: a persistent root pointer plus the operation mix.
pub struct BtreeMix {
    /// Persistent word holding the root node's address (0 = empty tree).
    root_ptr: PAddr,
    variant: BtreeVariant,
    key_space: u64,
}

impl Workload for BtreeWorkload {
    fn name(&self) -> String {
        match self.variant {
            BtreeVariant::InsertOnly => "B+ tree (insert only)".to_string(),
            BtreeVariant::Mixed => "B+ tree (mixed operations)".to_string(),
        }
    }

    fn prepare(&self, mem: &Arc<MemorySpace>) -> Box<dyn TxnMix> {
        Box::new(self.tree(mem))
    }
}

impl BtreeMix {
    fn node_read(&self, ops: &mut dyn TxnOps, node: PAddr, off: u64) -> Result<u64, TxAbort> {
        ops.read(node.add(off))
    }

    fn node_write(
        &self,
        ops: &mut dyn TxnOps,
        node: PAddr,
        off: u64,
        value: u64,
    ) -> Result<(), TxAbort> {
        ops.write(node.add(off), value)
    }

    fn new_node(&self, ops: &mut dyn TxnOps, is_leaf: bool) -> Result<PAddr, TxAbort> {
        let node = ops.alloc(NODE_WORDS)?;
        self.node_write(ops, node, OFF_IS_LEAF, u64::from(is_leaf))?;
        self.node_write(ops, node, OFF_NKEYS, 0)?;
        Ok(node)
    }

    /// Walks the whole tree through `read` (a space's or an image's words):
    /// its keys in order, and its nodes' addresses.
    pub fn walk(&self, read: impl Fn(PAddr) -> u64) -> (Vec<u64>, Vec<PAddr>) {
        let (mut keys, mut nodes) = (Vec::new(), Vec::new());
        let root = read(self.root_ptr);
        let mut stack = if root == 0 { Vec::new() } else { vec![root] };
        while let Some(node) = stack.pop().map(PAddr::new) {
            nodes.push(node);
            let nkeys = read(node.add(OFF_NKEYS));
            if read(node.add(OFF_IS_LEAF)) == 1 {
                keys.extend((0..nkeys).map(|i| read(node.add(OFF_KEYS + i))));
            } else {
                // Rightmost child first, so the leftmost is walked next.
                let children = (0..=nkeys).rev().map(|i| read(node.add(OFF_CHILDREN + i)));
                stack.extend(children);
            }
        }
        (keys, nodes)
    }

    /// Looks up `key`; returns its value if present.
    pub fn lookup(&self, ops: &mut dyn TxnOps, key: u64) -> Result<Option<u64>, TxAbort> {
        let root = ops.read(self.root_ptr)?;
        if root == 0 {
            return Ok(None);
        }
        let mut node = PAddr::new(root);
        loop {
            let is_leaf = self.node_read(ops, node, OFF_IS_LEAF)? == 1;
            let nkeys = self.node_read(ops, node, OFF_NKEYS)?;
            let mut idx = 0;
            while idx < nkeys && self.node_read(ops, node, OFF_KEYS + idx)? < key {
                idx += 1;
            }
            if is_leaf {
                if idx < nkeys && self.node_read(ops, node, OFF_KEYS + idx)? == key {
                    return Ok(Some(self.node_read(ops, node, OFF_CHILDREN + idx)?));
                }
                return Ok(None);
            }
            let go_right = idx < nkeys && self.node_read(ops, node, OFF_KEYS + idx)? <= key;
            let child_idx = if go_right { idx + 1 } else { idx };
            node = PAddr::new(self.node_read(ops, node, OFF_CHILDREN + child_idx)?);
        }
    }

    /// Inserts `key → value`; returns true if the key was new.
    pub fn insert(&self, ops: &mut dyn TxnOps, key: u64, value: u64) -> Result<bool, TxAbort> {
        let root = ops.read(self.root_ptr)?;
        if root == 0 {
            let leaf = self.new_node(ops, true)?;
            self.node_write(ops, leaf, OFF_KEYS, key)?;
            self.node_write(ops, leaf, OFF_CHILDREN, value)?;
            self.node_write(ops, leaf, OFF_NKEYS, 1)?;
            ops.write(self.root_ptr, leaf.word())?;
            return Ok(true);
        }
        let root = PAddr::new(root);
        if self.node_read(ops, root, OFF_NKEYS)? == MAX_KEYS {
            // Split the root pre-emptively (top-down splitting).
            let new_root = self.new_node(ops, false)?;
            self.node_write(ops, new_root, OFF_CHILDREN, root.word())?;
            self.split_child(ops, new_root, 0, root)?;
            ops.write(self.root_ptr, new_root.word())?;
            return self.insert_nonfull(ops, new_root, key, value);
        }
        self.insert_nonfull(ops, root, key, value)
    }

    fn split_child(
        &self,
        ops: &mut dyn TxnOps,
        parent: PAddr,
        child_index: u64,
        child: PAddr,
    ) -> Result<(), TxAbort> {
        let is_leaf = self.node_read(ops, child, OFF_IS_LEAF)? == 1;
        let mid = MAX_KEYS / 2;
        let right = self.new_node(ops, is_leaf)?;
        let child_keys = self.node_read(ops, child, OFF_NKEYS)?;
        // Move the upper half of the child into the new right sibling.
        let moved = child_keys - mid - u64::from(!is_leaf);
        let src_start = child_keys - moved;
        for i in 0..moved {
            let k = self.node_read(ops, child, OFF_KEYS + src_start + i)?;
            self.node_write(ops, right, OFF_KEYS + i, k)?;
            let v = self.node_read(ops, child, OFF_CHILDREN + src_start + i)?;
            self.node_write(ops, right, OFF_CHILDREN + i, v)?;
        }
        if !is_leaf {
            let v = self.node_read(ops, child, OFF_CHILDREN + child_keys)?;
            self.node_write(ops, right, OFF_CHILDREN + moved, v)?;
        }
        self.node_write(ops, right, OFF_NKEYS, moved)?;
        self.node_write(ops, child, OFF_NKEYS, mid)?;
        let separator = self.node_read(ops, child, OFF_KEYS + mid)?;

        // Shift the parent's keys/children to make room.
        let parent_keys = self.node_read(ops, parent, OFF_NKEYS)?;
        let mut i = parent_keys;
        while i > child_index {
            let k = self.node_read(ops, parent, OFF_KEYS + i - 1)?;
            self.node_write(ops, parent, OFF_KEYS + i, k)?;
            let c = self.node_read(ops, parent, OFF_CHILDREN + i)?;
            self.node_write(ops, parent, OFF_CHILDREN + i + 1, c)?;
            i -= 1;
        }
        self.node_write(ops, parent, OFF_KEYS + child_index, separator)?;
        self.node_write(ops, parent, OFF_CHILDREN + child_index + 1, right.word())?;
        self.node_write(ops, parent, OFF_NKEYS, parent_keys + 1)?;
        Ok(())
    }

    fn insert_nonfull(
        &self,
        ops: &mut dyn TxnOps,
        node: PAddr,
        key: u64,
        value: u64,
    ) -> Result<bool, TxAbort> {
        let mut node = node;
        loop {
            let is_leaf = self.node_read(ops, node, OFF_IS_LEAF)? == 1;
            let nkeys = self.node_read(ops, node, OFF_NKEYS)?;
            if is_leaf {
                // Find position; overwrite if present.
                let mut idx = 0;
                while idx < nkeys && self.node_read(ops, node, OFF_KEYS + idx)? < key {
                    idx += 1;
                }
                if idx < nkeys && self.node_read(ops, node, OFF_KEYS + idx)? == key {
                    self.node_write(ops, node, OFF_CHILDREN + idx, value)?;
                    return Ok(false);
                }
                let mut i = nkeys;
                while i > idx {
                    let k = self.node_read(ops, node, OFF_KEYS + i - 1)?;
                    self.node_write(ops, node, OFF_KEYS + i, k)?;
                    let v = self.node_read(ops, node, OFF_CHILDREN + i - 1)?;
                    self.node_write(ops, node, OFF_CHILDREN + i, v)?;
                    i -= 1;
                }
                self.node_write(ops, node, OFF_KEYS + idx, key)?;
                self.node_write(ops, node, OFF_CHILDREN + idx, value)?;
                self.node_write(ops, node, OFF_NKEYS, nkeys + 1)?;
                return Ok(true);
            }
            let mut idx = 0;
            while idx < nkeys && self.node_read(ops, node, OFF_KEYS + idx)? <= key {
                idx += 1;
            }
            let child = PAddr::new(self.node_read(ops, node, OFF_CHILDREN + idx)?);
            if self.node_read(ops, child, OFF_NKEYS)? == MAX_KEYS {
                self.split_child(ops, node, idx, child)?;
                continue; // re-descend from the same node
            }
            node = child;
        }
    }

    /// Removes `key` from its leaf (no rebalancing); returns true if found.
    pub fn remove(&self, ops: &mut dyn TxnOps, key: u64) -> Result<bool, TxAbort> {
        let root = ops.read(self.root_ptr)?;
        if root == 0 {
            return Ok(false);
        }
        let mut node = PAddr::new(root);
        loop {
            let is_leaf = self.node_read(ops, node, OFF_IS_LEAF)? == 1;
            let nkeys = self.node_read(ops, node, OFF_NKEYS)?;
            let mut idx = 0;
            while idx < nkeys && self.node_read(ops, node, OFF_KEYS + idx)? < key {
                idx += 1;
            }
            if is_leaf {
                if idx >= nkeys || self.node_read(ops, node, OFF_KEYS + idx)? != key {
                    return Ok(false);
                }
                for i in idx..nkeys - 1 {
                    let k = self.node_read(ops, node, OFF_KEYS + i + 1)?;
                    self.node_write(ops, node, OFF_KEYS + i, k)?;
                    let v = self.node_read(ops, node, OFF_CHILDREN + i + 1)?;
                    self.node_write(ops, node, OFF_CHILDREN + i, v)?;
                }
                self.node_write(ops, node, OFF_NKEYS, nkeys - 1)?;
                return Ok(true);
            }
            let go_right = idx < nkeys && self.node_read(ops, node, OFF_KEYS + idx)? <= key;
            let child_idx = if go_right { idx + 1 } else { idx };
            node = PAddr::new(self.node_read(ops, node, OFF_CHILDREN + child_idx)?);
        }
    }
}

impl TxnMix for BtreeMix {
    fn run_txn(
        &self,
        _tid: usize,
        _txn_index: u64,
        rng: &mut SplitMix64,
        ops: &mut dyn TxnOps,
    ) -> Result<(), TxAbort> {
        let key = rng.next_below(self.key_space);
        match self.variant {
            BtreeVariant::InsertOnly => {
                self.insert(ops, key, key ^ 0x5A5A)?;
            }
            BtreeVariant::Mixed => {
                let dice = rng.next_below(10);
                if dice < 5 {
                    self.lookup(ops, key)?;
                } else if dice < 8 {
                    self.insert(ops, key, key ^ 0x5A5A)?;
                } else {
                    self.remove(ops, key)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_mix;
    use crafty_baselines::{BaselineTm, NonDurable};
    use crafty_common::PersistentTm;
    use crafty_core::{Crafty, CraftyConfig};
    use crafty_pmem::PmemConfig;

    fn mix_and_engine() -> (BtreeMix, BaselineTm) {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let engine = NonDurable::new(Arc::clone(&mem), 1 << 15);
        let workload = BtreeWorkload {
            variant: BtreeVariant::InsertOnly,
            key_space: 4096,
        };
        (workload.tree(&mem), engine)
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let (tree, engine) = mix_and_engine();
        let mut handle = engine.register_thread(0);
        for key in [5u64, 1, 9, 3, 7, 2, 8, 4, 6, 0, 100, 200, 300] {
            handle.execute(&mut |ops| tree.insert(ops, key, key * 10).map(|_| ()));
        }
        let mut found = Vec::new();
        handle.execute(&mut |ops| {
            for key in 0..10u64 {
                if let Some(v) = tree.lookup(ops, key)? {
                    found.push((key, v));
                }
            }
            Ok(())
        });
        assert_eq!(found.len(), 10);
        assert!(found.iter().all(|&(k, v)| v == k * 10));
    }

    #[test]
    fn inserts_survive_node_splits() {
        let (tree, engine) = mix_and_engine();
        let mut handle = engine.register_thread(0);
        for key in 0..200u64 {
            handle.execute(&mut |ops| tree.insert(ops, key, key + 1).map(|_| ()));
        }
        handle.execute(&mut |ops| {
            for key in 0..200u64 {
                assert_eq!(tree.lookup(ops, key)?, Some(key + 1), "key {key}");
            }
            Ok(())
        });
    }

    #[test]
    fn duplicate_insert_overwrites_and_reports_not_new() {
        let (tree, engine) = mix_and_engine();
        let mut handle = engine.register_thread(0);
        let mut first = true;
        let mut second = true;
        handle.execute(&mut |ops| {
            first = tree.insert(ops, 42, 1)?;
            second = tree.insert(ops, 42, 2)?;
            Ok(())
        });
        assert!(first);
        assert!(!second);
        let mut v = None;
        handle.execute(&mut |ops| {
            v = tree.lookup(ops, 42)?;
            Ok(())
        });
        assert_eq!(v, Some(2));
    }

    #[test]
    fn removal_hides_keys() {
        let (tree, engine) = mix_and_engine();
        let mut handle = engine.register_thread(0);
        for key in 0..50u64 {
            handle.execute(&mut |ops| tree.insert(ops, key, key).map(|_| ()));
        }
        let mut removed = false;
        handle.execute(&mut |ops| {
            removed = tree.remove(ops, 25)?;
            Ok(())
        });
        assert!(removed);
        let mut v = Some(0);
        handle.execute(&mut |ops| {
            v = tree.lookup(ops, 25)?;
            Ok(())
        });
        assert_eq!(v, None);
    }

    #[test]
    fn concurrent_inserts_on_crafty_keep_all_keys() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let engine = Crafty::new(
            Arc::clone(&mem),
            CraftyConfig::small_for_tests().with_max_threads(4),
        );
        let workload = BtreeWorkload {
            variant: BtreeVariant::InsertOnly,
            key_space: 1 << 30,
        };
        let mix = workload.prepare(&mem);
        run_mix(&engine, mix.as_ref(), 3, 50, 11);
        assert_eq!(engine.breakdown().total_persistent(), 150);
    }

    #[test]
    fn mixed_workload_runs_on_an_engine() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let engine = NonDurable::new(Arc::clone(&mem), 1 << 15);
        let workload = BtreeWorkload {
            variant: BtreeVariant::Mixed,
            key_space: 256,
        };
        let mix = workload.prepare(&mem);
        run_mix(&engine, mix.as_ref(), 2, 200, 13);
        assert_eq!(engine.breakdown().total_persistent(), 400);
        assert_eq!(workload.name(), "B+ tree (mixed operations)");
    }
}
