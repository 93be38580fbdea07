//! A B+-tree built through Crafty survives a crash and a reboot, and keeps
//! growing in its second life: the heap's cursor is in the image, so the
//! new nodes land past the old ones instead of over them.

use std::sync::Arc;

use crafty_common::PersistentTm;
use crafty_core::{recover, Crafty, CraftyConfig};
use crafty_pmem::{MemorySpace, PmemConfig};
use crafty_workloads::{BtreeVariant, BtreeWorkload};

#[test]
fn a_rebooted_tree_keeps_its_keys_and_grows() {
    let (pmem, cfg) = (
        PmemConfig::small_for_tests(),
        CraftyConfig::small_for_tests(),
    );
    let workload = BtreeWorkload {
        variant: BtreeVariant::InsertOnly,
        key_space: 301,
    };
    // 1..=300 in a scattered order (37 is coprime to 301).
    let keys: Vec<u64> = (1..=300u64).map(|i| i * 37 % 301).collect();

    let mem = Arc::new(MemorySpace::new(pmem));
    let engine = Crafty::new(Arc::clone(&mem), cfg);
    let tree = workload.tree(&mem);
    let mut thread = engine.register_thread(0);
    for &key in &keys[..200] {
        thread.execute(&mut |ops| tree.insert(ops, key, key + 1).map(drop));
    }
    drop(thread);
    engine.persist_now(0);
    let mut image = mem.crash();
    recover(&mut image, engine.directory_addr()).expect("recovery");

    let mem = Arc::new(MemorySpace::boot(&image, pmem));
    let engine = Crafty::new(Arc::clone(&mem), cfg);
    let tree = workload.tree(&mem);
    let mut thread = engine.register_thread(0);
    for &key in &keys[200..] {
        thread.execute(&mut |ops| tree.insert(ops, key, key + 1).map(drop));
    }
    let mut lost = Vec::new();
    thread.execute(&mut |ops| {
        lost.clear();
        for &key in &keys {
            if tree.lookup(ops, key)? != Some(key + 1) {
                lost.push(key);
            }
        }
        Ok(())
    });
    assert!(lost.is_empty(), "{} of 300 keys lost: {lost:?}", lost.len());

    let (found, nodes) = tree.walk(|addr| mem.read(addr));
    assert_eq!(
        found,
        (1..=300).collect::<Vec<_>>(),
        "the walk reads every key in order"
    );
    // Insert-only: the heap handed out exactly the tree's nodes, three
    // lines each, past its start.
    let heap = engine.heap();
    let used = mem.read(heap.header());
    assert_eq!(
        used,
        nodes.len() as u64 * 24,
        "the cursor covers the tree's nodes"
    );
    let range = heap.start().word()..heap.start().word() + used;
    assert!(nodes
        .iter()
        .all(|n| range.contains(&n.word()) && n.word() % 8 == 0));
}
