//! The sharded, durably resizable key-value store.
//!
//! See the crate docs for the design. Persistent layout, in reservation
//! order (deterministic, so [`ShardedKv::open`] can replay it on a rebooted
//! space):
//!
//! ```text
//! root block   8 words   [MAGIC, shard_count, arena_next, arena_end,
//!                         initial_capacity, 0, 0, 0]
//! headers      8 words per shard (line-aligned):
//!              [table, capacity, len, tombstones,
//!               resize_table, resize_capacity, migrate_pos, resize_tombs]
//! arena        cfg.arena_words words; tables are bump-allocated here
//! ```
//!
//! A table of capacity `C` occupies `2·C` contiguous arena words: slot `i`
//! is the pair `[tag, value]` at offset `2·i`. `tag = 0` is an empty slot,
//! `tag = 1` a tombstone, and any other tag stores key `tag − 2`.

use crafty_common::{mix64, PAddr, TxAbort, TxnOps};
use crafty_pmem::MemorySpace;

use crate::direct::DirectOps;

/// Root-block magic ("CraftyKV" in spirit): identifies an initialized
/// store when [`ShardedKv::open`] attaches to a rebooted space.
const MAGIC: u64 = 0x43AF_7E6B_5653_0001;

/// Largest storable key: tags offset keys by 2 to make room for the empty
/// and tombstone encodings.
pub const KEY_MAX: u64 = u64::MAX - 2;

/// Slot tag for a never-used slot (probe terminator).
const EMPTY: u64 = 0;
/// Slot tag for a removed entry (probes continue past it).
const TOMBSTONE: u64 = 1;

/// Words per table slot (`[tag, value]`).
const SLOT_WORDS: u64 = 2;

/// Old-table slots migrated per mutating transaction while a resize is in
/// flight. Small enough to keep any single transaction's write footprint
/// well inside HTM capacity and the undo log; large enough that a resize
/// completes within `capacity / 8` mutations, long before the new table
/// (at twice the capacity) can fill up.
const MIGRATE_BATCH: u64 = 8;

// Root block word offsets.
const ROOT_MAGIC: u64 = 0;
const ROOT_SHARDS: u64 = 1;
const ROOT_ARENA_NEXT: u64 = 2;
const ROOT_ARENA_END: u64 = 3;
const ROOT_INITIAL_CAPACITY: u64 = 4;
const ROOT_WORDS: u64 = 8;

// Shard-header word offsets.
const HDR_TABLE: u64 = 0;
const HDR_CAPACITY: u64 = 1;
const HDR_LEN: u64 = 2;
const HDR_TOMBS: u64 = 3;
const HDR_RESIZE_TABLE: u64 = 4;
const HDR_RESIZE_CAPACITY: u64 = 5;
const HDR_MIGRATE_POS: u64 = 6;
const HDR_RESIZE_TOMBS: u64 = 7;
const HDR_WORDS: u64 = 8;

// The store's key-mixing hash is [`crafty_common::mix64`]: high bits pick
// the shard, low bits pick the home slot, so the two choices are
// decorrelated.

/// Construction parameters for a [`ShardedKv`].
#[derive(Clone, Copy, Debug)]
pub struct KvConfig {
    /// Number of shards; rounded up to a power of two.
    pub shards: usize,
    /// Initial table capacity per shard, in slots; rounded up to a power of
    /// two, minimum 8.
    pub initial_capacity: u64,
    /// Size of the table arena in words. Must hold the initial tables plus
    /// every table the growth schedule will allocate (old tables are
    /// abandoned after a resize; see the crate docs). A store that expects
    /// to grow to `N` live keys needs roughly `8·N` arena words — the final
    /// doubling accounts for half the total, its predecessors for the rest.
    pub arena_words: u64,
}

impl KvConfig {
    /// A small store for unit tests: few shards, tiny tables (so resizes
    /// happen after a handful of inserts), a test-sized arena.
    pub fn small_for_tests() -> Self {
        KvConfig {
            shards: 4,
            initial_capacity: 8,
            arena_words: 1 << 14,
        }
    }

    /// A benchmark-sized store for `expected_keys` live keys across
    /// `shards` shards (per-shard sizing follows the actual shard count).
    pub fn benchmark(expected_keys: u64, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard = (expected_keys / shards as u64).max(8).next_power_of_two();
        KvConfig {
            shards,
            // Start at half the per-shard need: prefill grows each shard
            // through at least one full incremental resize, and the
            // measured mixes run near the configured load factor.
            initial_capacity: (per_shard / 2).max(8),
            arena_words: (shards as u64 * per_shard * SLOT_WORDS * 8).max(1 << 12),
        }
    }

    /// Sets the shard count (builder style).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the initial per-shard capacity in slots (builder style).
    pub fn with_initial_capacity(mut self, slots: u64) -> Self {
        self.initial_capacity = slots;
        self
    }

    /// Sets the arena size in words (builder style).
    pub fn with_arena_words(mut self, words: u64) -> Self {
        self.arena_words = words;
        self
    }

    fn normalized(&self) -> (usize, u64) {
        let shards = self.shards.max(1).next_power_of_two();
        let capacity = self.initial_capacity.max(8).next_power_of_two();
        (shards, capacity)
    }
}

/// Point-in-time counters describing a store's shape (read directly from
/// memory, non-transactionally; exact when quiescent).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct KvStats {
    /// Live key count across all shards.
    pub len: u64,
    /// Tombstones across all live tables.
    pub tombstones: u64,
    /// Total slot capacity across all live tables.
    pub capacity: u64,
    /// Number of shards with a resize in flight.
    pub resizes_in_flight: u64,
    /// Arena words consumed so far.
    pub arena_used: u64,
}

/// A durable, sharded key-value store over `u64` keys and values.
///
/// All mutating methods take a [`TxnOps`] and are designed to run as one
/// persistent transaction each; bodies are idempotent (pure functions of
/// the persistent state they read through `ops`), so engines may re-execute
/// them freely. The handle itself is plain addresses — clone it, share it
/// across threads, rebuild it with [`ShardedKv::open`] after a reboot.
///
/// # Example: create → put → crash → open → get
///
/// The store's whole life cycle, including surviving a power failure.
/// Reservation order is deterministic, so the second life replays the same
/// constructors (engine first, store second) and reattaches in place:
///
/// ```
/// use std::sync::Arc;
/// use crafty_common::PersistentTm;
/// use crafty_core::{Crafty, CraftyConfig};
/// use crafty_kv::{KvConfig, ShardedKv};
/// use crafty_pmem::{MemorySpace, PmemConfig};
///
/// // First life: create the store and commit a put through the engine.
/// let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
/// let crafty = Crafty::new(Arc::clone(&mem), CraftyConfig::small_for_tests());
/// let kv = ShardedKv::create(&mem, &KvConfig::small_for_tests());
/// let mut thread = crafty.register_thread(0);
/// thread.execute(&mut |ops| kv.put(ops, 7, 700).map(|_| ()));
/// crafty.quiesce(); // pin the tail: quiesced work survives any crash
///
/// // Power failure.
/// let image = mem.crash();
///
/// // Second life: boot the surviving image, replay the reservation
/// // sequence, reattach, read.
/// let rebooted = Arc::new(MemorySpace::boot(&image, *mem.config()));
/// let _crafty2 = Crafty::new(Arc::clone(&rebooted), CraftyConfig::small_for_tests());
/// let kv2 = ShardedKv::open(&rebooted, &KvConfig::small_for_tests());
/// assert_eq!(kv2.get_direct(&rebooted, 7), Some(700));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ShardedKv {
    root: PAddr,
    headers: PAddr,
    arena: PAddr,
    shards: usize,
}

impl ShardedKv {
    /// Reserves and initializes a fresh store on `mem`, persisting the
    /// initial state (root block, shard headers, zeroed initial tables).
    ///
    /// # Panics
    ///
    /// Panics if the arena cannot hold the initial tables or the persistent
    /// region cannot hold the store.
    pub fn create(mem: &MemorySpace, cfg: &KvConfig) -> Self {
        let (shards, capacity) = cfg.normalized();
        let kv = Self::layout(mem, cfg);
        let initial_tables = shards as u64 * capacity * SLOT_WORDS;
        assert!(
            cfg.arena_words >= initial_tables,
            "arena ({} words) cannot hold the initial tables ({initial_tables} words)",
            cfg.arena_words,
        );
        mem.write(kv.root.add(ROOT_MAGIC), MAGIC);
        mem.write(kv.root.add(ROOT_SHARDS), shards as u64);
        mem.write(
            kv.root.add(ROOT_ARENA_NEXT),
            kv.arena.word() + initial_tables,
        );
        mem.write(
            kv.root.add(ROOT_ARENA_END),
            kv.arena.word() + cfg.arena_words,
        );
        mem.write(kv.root.add(ROOT_INITIAL_CAPACITY), capacity);
        for s in 0..shards as u64 {
            let hdr = kv.header(s);
            let table = kv.arena.word() + s * capacity * SLOT_WORDS;
            mem.write(hdr.add(HDR_TABLE), table);
            mem.write(hdr.add(HDR_CAPACITY), capacity);
            for off in HDR_LEN..HDR_WORDS {
                mem.write(hdr.add(off), 0);
            }
            // Table slots are zero (= EMPTY) in a fresh space already; the
            // explicit stores make `create` correct even on a space whose
            // arena region was previously used.
            for w in 0..capacity * SLOT_WORDS {
                mem.write(PAddr::new(table + w), 0);
            }
        }
        kv.persist_all(mem, 0);
        kv
    }

    /// Attaches to an existing store on a (typically rebooted) space by
    /// replaying the same deterministic reservations as [`ShardedKv::create`]
    /// and validating the root block. Data is left untouched.
    ///
    /// # Panics
    ///
    /// Panics if the root block does not contain a store created with an
    /// equivalent configuration (magic, shard count, or arena geometry
    /// mismatch).
    pub fn open(mem: &MemorySpace, cfg: &KvConfig) -> Self {
        let (shards, _) = cfg.normalized();
        let kv = Self::layout(mem, cfg);
        assert_eq!(
            mem.read(kv.root.add(ROOT_MAGIC)),
            MAGIC,
            "no store found at the replayed root address"
        );
        assert_eq!(
            mem.read(kv.root.add(ROOT_SHARDS)),
            shards as u64,
            "store was created with a different shard count"
        );
        // Arena geometry must replay exactly: an arena_words mismatch would
        // put the recorded arena extent out of sync with the reservation
        // just made, and later reservations (engines, other structures)
        // would overlap the region resizes still bump-allocate from.
        let end = mem.read(kv.root.add(ROOT_ARENA_END));
        assert_eq!(
            end,
            kv.arena.word() + cfg.arena_words,
            "store was created with a different arena size"
        );
        let next = mem.read(kv.root.add(ROOT_ARENA_NEXT));
        assert!(
            next >= kv.arena.word() && next <= end,
            "arena cursor {next} outside the replayed arena"
        );
        kv
    }

    /// Performs the reservation sequence shared by `create` and `open`.
    fn layout(mem: &MemorySpace, cfg: &KvConfig) -> Self {
        let (shards, _) = cfg.normalized();
        let root = mem.reserve_persistent(ROOT_WORDS);
        let headers = mem.reserve_persistent(shards as u64 * HDR_WORDS);
        let arena = mem.reserve_persistent(cfg.arena_words);
        ShardedKv {
            root,
            headers,
            arena,
            shards,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    #[inline]
    fn header(&self, shard: u64) -> PAddr {
        self.headers.add(shard * HDR_WORDS)
    }

    /// The shard owning `key`: high hash bits, so it is independent of the
    /// in-table home slot (low bits).
    #[inline]
    fn shard_of(&self, key: u64) -> u64 {
        (mix64(key) >> 32) & (self.shards as u64 - 1)
    }

    #[inline]
    fn slot_addr(table: u64, capacity: u64, index: u64) -> PAddr {
        PAddr::new(table + (index & (capacity - 1)) * SLOT_WORDS)
    }

    #[inline]
    fn encode(key: u64) -> u64 {
        assert!(key <= KEY_MAX, "key {key} exceeds KEY_MAX");
        key + 2
    }

    /// Probes `table` for `key`. Returns `Ok(slot_addr)` of the live entry,
    /// or `Err(first_reusable)` — the first tombstone on the probe path if
    /// any, else the terminating empty slot — when the key is absent.
    fn probe(
        &self,
        ops: &mut dyn TxnOps,
        table: u64,
        capacity: u64,
        key: u64,
    ) -> Result<Result<PAddr, PAddr>, TxAbort> {
        let tag = Self::encode(key);
        let home = mix64(key) & (capacity - 1);
        let mut reusable = None;
        for step in 0..capacity {
            let slot = Self::slot_addr(table, capacity, home + step);
            let t = ops.read(slot)?;
            if t == tag {
                return Ok(Ok(slot));
            }
            if t == EMPTY {
                return Ok(Err(reusable.unwrap_or(slot)));
            }
            if t == TOMBSTONE && reusable.is_none() {
                reusable = Some(slot);
            }
        }
        // A full table with no empty slot: the resize policy guarantees
        // headroom, so this is data corruption, not a normal state.
        panic!("kv shard table has no empty slot (corrupted or mis-sized store)");
    }

    /// Reads the value stored under `key`, or `None`.
    ///
    /// Read-only: performs no writes, so read-mostly workloads keep the
    /// engines' read-only fast paths. During a resize the new table is
    /// probed first, then the old (a key is live in at most one of them).
    ///
    /// # Errors
    ///
    /// Propagates [`TxAbort`] from the underlying transaction.
    pub fn get(&self, ops: &mut dyn TxnOps, key: u64) -> Result<Option<u64>, TxAbort> {
        let hdr = self.header(self.shard_of(key));
        let resize_table = ops.read(hdr.add(HDR_RESIZE_TABLE))?;
        if resize_table != 0 {
            let resize_cap = ops.read(hdr.add(HDR_RESIZE_CAPACITY))?;
            if let Ok(slot) = self.probe(ops, resize_table, resize_cap, key)? {
                return Ok(Some(ops.read(slot.add(1))?));
            }
        }
        let table = ops.read(hdr.add(HDR_TABLE))?;
        let capacity = ops.read(hdr.add(HDR_CAPACITY))?;
        match self.probe(ops, table, capacity, key)? {
            Ok(slot) => Ok(Some(ops.read(slot.add(1))?)),
            Err(_) => Ok(None),
        }
    }

    /// Inserts or updates `key → value`; returns the previous value if the
    /// key was present. One persistent transaction's worth of work: may
    /// additionally migrate a batch of slots (resize in flight) or start a
    /// resize (load factor crossed).
    ///
    /// # Errors
    ///
    /// Propagates [`TxAbort`] from the underlying transaction.
    pub fn put(&self, ops: &mut dyn TxnOps, key: u64, value: u64) -> Result<Option<u64>, TxAbort> {
        let shard = self.shard_of(key);
        let hdr = self.header(shard);
        if ops.read(hdr.add(HDR_RESIZE_TABLE))? != 0 {
            self.migrate_step(ops, shard)?;
        }
        let resize_table = ops.read(hdr.add(HDR_RESIZE_TABLE))?;
        if resize_table != 0 {
            let resize_cap = ops.read(hdr.add(HDR_RESIZE_CAPACITY))?;
            // Update in the new table if the key already moved there; keep
            // the probe's free slot otherwise — nothing in the rest of this
            // transaction writes to the new table, so it stays the right
            // insertion point and no re-probe is needed.
            let free = match self.probe(ops, resize_table, resize_cap, key)? {
                Ok(slot) => {
                    let old = ops.read(slot.add(1))?;
                    ops.write(slot.add(1), value)?;
                    return Ok(Some(old));
                }
                Err(free) => free,
            };
            let table = ops.read(hdr.add(HDR_TABLE))?;
            let capacity = ops.read(hdr.add(HDR_CAPACITY))?;
            let old = match self.probe(ops, table, capacity, key)? {
                Ok(slot) => {
                    // Still in the old table: migrate it now, carrying the
                    // new value, so exactly one live copy exists.
                    let old = ops.read(slot.add(1))?;
                    ops.write(slot, TOMBSTONE)?;
                    Some(old)
                }
                Err(_) => None,
            };
            if ops.read(free)? == TOMBSTONE {
                let tombs = ops.read(hdr.add(HDR_RESIZE_TOMBS))?;
                ops.write(hdr.add(HDR_RESIZE_TOMBS), tombs - 1)?;
            }
            ops.write(free, Self::encode(key))?;
            ops.write(free.add(1), value)?;
            if old.is_none() {
                let len = ops.read(hdr.add(HDR_LEN))?;
                ops.write(hdr.add(HDR_LEN), len + 1)?;
            }
            return Ok(old);
        }
        let table = ops.read(hdr.add(HDR_TABLE))?;
        let capacity = ops.read(hdr.add(HDR_CAPACITY))?;
        match self.probe(ops, table, capacity, key)? {
            Ok(slot) => {
                let old = ops.read(slot.add(1))?;
                ops.write(slot.add(1), value)?;
                Ok(Some(old))
            }
            Err(slot) => {
                if ops.read(slot)? == TOMBSTONE {
                    let tombs = ops.read(hdr.add(HDR_TOMBS))?;
                    ops.write(hdr.add(HDR_TOMBS), tombs - 1)?;
                }
                ops.write(slot, Self::encode(key))?;
                ops.write(slot.add(1), value)?;
                let len = ops.read(hdr.add(HDR_LEN))? + 1;
                ops.write(hdr.add(HDR_LEN), len)?;
                self.maybe_start_resize(ops, hdr)?;
                Ok(None)
            }
        }
    }

    /// Removes `key`; returns its value if it was present.
    ///
    /// # Errors
    ///
    /// Propagates [`TxAbort`] from the underlying transaction.
    pub fn remove(&self, ops: &mut dyn TxnOps, key: u64) -> Result<Option<u64>, TxAbort> {
        let shard = self.shard_of(key);
        let hdr = self.header(shard);
        if ops.read(hdr.add(HDR_RESIZE_TABLE))? != 0 {
            self.migrate_step(ops, shard)?;
        }
        let resize_table = ops.read(hdr.add(HDR_RESIZE_TABLE))?;
        if resize_table != 0 {
            let resize_cap = ops.read(hdr.add(HDR_RESIZE_CAPACITY))?;
            if let Ok(slot) = self.probe(ops, resize_table, resize_cap, key)? {
                let old = ops.read(slot.add(1))?;
                ops.write(slot, TOMBSTONE)?;
                let tombs = ops.read(hdr.add(HDR_RESIZE_TOMBS))?;
                ops.write(hdr.add(HDR_RESIZE_TOMBS), tombs + 1)?;
                let len = ops.read(hdr.add(HDR_LEN))?;
                ops.write(hdr.add(HDR_LEN), len - 1)?;
                return Ok(Some(old));
            }
        }
        let table = ops.read(hdr.add(HDR_TABLE))?;
        let capacity = ops.read(hdr.add(HDR_CAPACITY))?;
        match self.probe(ops, table, capacity, key)? {
            Ok(slot) => {
                let old = ops.read(slot.add(1))?;
                ops.write(slot, TOMBSTONE)?;
                if resize_table == 0 {
                    let tombs = ops.read(hdr.add(HDR_TOMBS))?;
                    ops.write(hdr.add(HDR_TOMBS), tombs + 1)?;
                }
                let len = ops.read(hdr.add(HDR_LEN))?;
                ops.write(hdr.add(HDR_LEN), len - 1)?;
                Ok(Some(old))
            }
            Err(_) => Ok(None),
        }
    }

    /// Collects up to `limit` live entries of `key`'s shard, walking from
    /// the key's home slot in hash order (the natural "short range scan" of
    /// an open-addressed table). Read-only. Returns the number of entries
    /// seen and a fold of their keys and values, so scan-heavy workloads
    /// consume the data without allocating.
    ///
    /// # Errors
    ///
    /// Propagates [`TxAbort`] from the underlying transaction.
    pub fn scan(&self, ops: &mut dyn TxnOps, key: u64, limit: u64) -> Result<(u64, u64), TxAbort> {
        let hdr = self.header(self.shard_of(key));
        let mut found = 0u64;
        let mut checksum = 0u64;
        let mut tables = [(0u64, 0u64); 2];
        let mut n_tables = 0;
        let resize_table = ops.read(hdr.add(HDR_RESIZE_TABLE))?;
        if resize_table != 0 {
            tables[n_tables] = (resize_table, ops.read(hdr.add(HDR_RESIZE_CAPACITY))?);
            n_tables += 1;
        }
        tables[n_tables] = (
            ops.read(hdr.add(HDR_TABLE))?,
            ops.read(hdr.add(HDR_CAPACITY))?,
        );
        n_tables += 1;
        for &(table, capacity) in &tables[..n_tables] {
            let home = mix64(key) & (capacity - 1);
            for step in 0..capacity {
                if found >= limit {
                    return Ok((found, checksum));
                }
                let slot = Self::slot_addr(table, capacity, home + step);
                let tag = ops.read(slot)?;
                if tag != EMPTY && tag != TOMBSTONE {
                    found += 1;
                    checksum =
                        checksum.wrapping_add(mix64(tag - 2).wrapping_add(ops.read(slot.add(1))?));
                }
            }
        }
        Ok((found, checksum))
    }

    /// Number of live keys (transactional read across all shard headers).
    ///
    /// # Errors
    ///
    /// Propagates [`TxAbort`] from the underlying transaction.
    pub fn len(&self, ops: &mut dyn TxnOps) -> Result<u64, TxAbort> {
        let mut total = 0;
        for s in 0..self.shards as u64 {
            total += ops.read(self.header(s).add(HDR_LEN))?;
        }
        Ok(total)
    }

    /// True if the store holds no keys.
    ///
    /// # Errors
    ///
    /// Propagates [`TxAbort`] from the underlying transaction.
    pub fn is_empty(&self, ops: &mut dyn TxnOps) -> Result<bool, TxAbort> {
        Ok(self.len(ops)? == 0)
    }

    /// Inserts a key known to be absent into the shard's in-flight resize
    /// table, reusing the first tombstone on its probe path (and adjusting
    /// the resize-tombstone counter when it does).
    fn insert_fresh(
        &self,
        ops: &mut dyn TxnOps,
        hdr: PAddr,
        table: u64,
        capacity: u64,
        key: u64,
        value: u64,
    ) -> Result<(), TxAbort> {
        match self.probe(ops, table, capacity, key)? {
            Ok(_) => unreachable!("insert_fresh called with a live key"),
            Err(slot) => {
                if ops.read(slot)? == TOMBSTONE {
                    let tombs = ops.read(hdr.add(HDR_RESIZE_TOMBS))?;
                    ops.write(hdr.add(HDR_RESIZE_TOMBS), tombs - 1)?;
                }
                ops.write(slot, Self::encode(key))?;
                ops.write(slot.add(1), value)?;
                Ok(())
            }
        }
    }

    /// Starts an incremental resize when occupancy (live + tombstones)
    /// crosses ¾ of capacity: allocates the new table from the arena and
    /// installs the resize header fields. All in the calling transaction —
    /// a crash either keeps the whole start or none of it.
    fn maybe_start_resize(&self, ops: &mut dyn TxnOps, hdr: PAddr) -> Result<(), TxAbort> {
        let len = ops.read(hdr.add(HDR_LEN))?;
        let tombs = ops.read(hdr.add(HDR_TOMBS))?;
        let capacity = ops.read(hdr.add(HDR_CAPACITY))?;
        if 4 * (len + tombs) < 3 * capacity {
            return Ok(());
        }
        // Size for the live set: doubles under insert pressure, stays put
        // (purging tombstones) under churn.
        let new_capacity = ((len + 1) * 2).next_power_of_two().max(capacity);
        let words = new_capacity * SLOT_WORDS;
        let next = ops.read(self.root.add(ROOT_ARENA_NEXT))?;
        let end = ops.read(self.root.add(ROOT_ARENA_END))?;
        assert!(
            next + words <= end,
            "kv arena exhausted: need {words} words, {} remain \
             (size KvConfig::arena_words for the growth schedule)",
            end - next
        );
        ops.write(self.root.add(ROOT_ARENA_NEXT), next + words)?;
        // The claimed region is all-EMPTY: fresh arena words are zero, and
        // aborted transactions' writes never reach it (HTM write
        // containment / undo rollback).
        ops.write(hdr.add(HDR_RESIZE_TABLE), next)?;
        ops.write(hdr.add(HDR_RESIZE_CAPACITY), new_capacity)?;
        ops.write(hdr.add(HDR_MIGRATE_POS), 0)?;
        ops.write(hdr.add(HDR_RESIZE_TOMBS), 0)?;
        Ok(())
    }

    /// Migrates up to [`MIGRATE_BATCH`] old-table slots into the new table,
    /// tombstoning each as it moves; the step that reaches the end swings
    /// the header to the new table in the same transaction.
    fn migrate_step(&self, ops: &mut dyn TxnOps, shard: u64) -> Result<(), TxAbort> {
        let hdr = self.header(shard);
        let resize_table = ops.read(hdr.add(HDR_RESIZE_TABLE))?;
        debug_assert_ne!(resize_table, 0, "migrate_step without an active resize");
        let resize_cap = ops.read(hdr.add(HDR_RESIZE_CAPACITY))?;
        let table = ops.read(hdr.add(HDR_TABLE))?;
        let capacity = ops.read(hdr.add(HDR_CAPACITY))?;
        let pos = ops.read(hdr.add(HDR_MIGRATE_POS))?;
        let end = (pos + MIGRATE_BATCH).min(capacity);
        for i in pos..end {
            let slot = Self::slot_addr(table, capacity, i);
            let tag = ops.read(slot)?;
            if tag != EMPTY && tag != TOMBSTONE {
                let value = ops.read(slot.add(1))?;
                self.insert_fresh(ops, hdr, resize_table, resize_cap, tag - 2, value)?;
                ops.write(slot, TOMBSTONE)?;
            }
        }
        ops.write(hdr.add(HDR_MIGRATE_POS), end)?;
        if end == capacity {
            // Final batch: swing to the new table. The old table's words
            // are abandoned in the arena.
            let resize_tombs = ops.read(hdr.add(HDR_RESIZE_TOMBS))?;
            ops.write(hdr.add(HDR_TABLE), resize_table)?;
            ops.write(hdr.add(HDR_CAPACITY), resize_cap)?;
            ops.write(hdr.add(HDR_TOMBS), resize_tombs)?;
            ops.write(hdr.add(HDR_RESIZE_TABLE), 0)?;
            ops.write(hdr.add(HDR_RESIZE_CAPACITY), 0)?;
            ops.write(hdr.add(HDR_MIGRATE_POS), 0)?;
            ops.write(hdr.add(HDR_RESIZE_TOMBS), 0)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Non-transactional helpers: setup, recovery verification, stats.
    // ------------------------------------------------------------------

    /// Flushes and drains every line the store occupies (root, headers,
    /// used arena) through thread `tid`'s flush queue. Used after
    /// [`ShardedKv::create`] and after a [`DirectOps`] prefill, where no
    /// engine is persisting on the caller's behalf.
    pub fn persist_all(&self, mem: &MemorySpace, tid: usize) {
        let used = mem
            .read(self.root.add(ROOT_ARENA_NEXT))
            .saturating_sub(self.arena.word());
        mem.persist_ranges(
            tid,
            &[
                (self.root, ROOT_WORDS),
                (self.headers, self.shards as u64 * HDR_WORDS),
                (self.arena, used),
            ],
        );
        // The store-wide persist is a fence-like barrier in a trace: a
        // whole-table write-back, not part of any transaction's phases.
        crafty_common::trace::record(tid, crafty_common::TraceEventKind::PersistFence, 0);
    }

    /// Collects every live `(key, value)` pair by direct (non-transactional)
    /// reads — recovery verification and export. Call only while no
    /// transactions are running.
    pub fn collect_pairs(&self, mem: &MemorySpace) -> Vec<(u64, u64)> {
        let mut ops = DirectOps::new(mem);
        let mut pairs = Vec::new();
        for s in 0..self.shards as u64 {
            let hdr = self.header(s);
            let mut tables = Vec::new();
            let resize_table = mem.read(hdr.add(HDR_RESIZE_TABLE));
            if resize_table != 0 {
                tables.push((resize_table, mem.read(hdr.add(HDR_RESIZE_CAPACITY))));
            }
            tables.push((
                mem.read(hdr.add(HDR_TABLE)),
                mem.read(hdr.add(HDR_CAPACITY)),
            ));
            for (table, capacity) in tables {
                for i in 0..capacity {
                    let slot = Self::slot_addr(table, capacity, i);
                    let tag = ops.read(slot).expect("direct reads cannot abort");
                    if tag != EMPTY && tag != TOMBSTONE {
                        pairs.push((tag - 2, mem.read(slot.add(1))));
                    }
                }
            }
        }
        pairs
    }

    /// Reads the value under `key` directly (non-transactionally) — the
    /// post-recovery counterpart of [`ShardedKv::get`].
    pub fn get_direct(&self, mem: &MemorySpace, key: u64) -> Option<u64> {
        let mut ops = DirectOps::new(mem);
        self.get(&mut ops, key).expect("direct reads cannot abort")
    }

    /// True if any shard has a resize in flight.
    pub fn resize_in_flight(&self, mem: &MemorySpace) -> bool {
        (0..self.shards as u64).any(|s| mem.read(self.header(s).add(HDR_RESIZE_TABLE)) != 0)
    }

    /// Point-in-time counters (see [`KvStats`]).
    pub fn stats(&self, mem: &MemorySpace) -> KvStats {
        let mut stats = KvStats {
            arena_used: mem
                .read(self.root.add(ROOT_ARENA_NEXT))
                .saturating_sub(self.arena.word()),
            ..KvStats::default()
        };
        for s in 0..self.shards as u64 {
            let hdr = self.header(s);
            stats.len += mem.read(hdr.add(HDR_LEN));
            stats.tombstones += mem.read(hdr.add(HDR_TOMBS));
            stats.capacity += mem.read(hdr.add(HDR_CAPACITY));
            if mem.read(hdr.add(HDR_RESIZE_TABLE)) != 0 {
                stats.resizes_in_flight += 1;
            }
        }
        stats
    }

    /// Exhaustively checks the store's structural invariants by direct
    /// reads: header counters match slot contents, every key lives in its
    /// own shard, no key is live twice, resize cursors are in range, and
    /// every table lies inside the arena's allocated span (the arena
    /// cursor covers every live record). Returns a description of the
    /// first violation. Call only while no transactions are running
    /// (workload `verify()` and recovery tests).
    pub fn check_integrity(&self, mem: &MemorySpace) -> Result<(), String> {
        use std::collections::HashSet;
        if mem.read(self.root.add(ROOT_MAGIC)) != MAGIC {
            return Err("root magic is gone".to_string());
        }
        let arena_next = mem.read(self.root.add(ROOT_ARENA_NEXT));
        let arena_end = mem.read(self.root.add(ROOT_ARENA_END));
        if arena_next < self.arena.word() || arena_next > arena_end {
            return Err(format!(
                "arena cursor {arena_next} outside [{}, {arena_end}]",
                self.arena.word()
            ));
        }
        for s in 0..self.shards as u64 {
            let hdr = self.header(s);
            let capacity = mem.read(hdr.add(HDR_CAPACITY));
            if !capacity.is_power_of_two() || capacity < 8 {
                return Err(format!(
                    "shard {s}: capacity {capacity} is not a power of two ≥ 8"
                ));
            }
            let resize_table = mem.read(hdr.add(HDR_RESIZE_TABLE));
            let mut tables = vec![(
                mem.read(hdr.add(HDR_TABLE)),
                capacity,
                mem.read(hdr.add(HDR_TOMBS)),
            )];
            if resize_table != 0 {
                let resize_cap = mem.read(hdr.add(HDR_RESIZE_CAPACITY));
                if !resize_cap.is_power_of_two() || resize_cap < capacity {
                    return Err(format!("shard {s}: bad resize capacity {resize_cap}"));
                }
                if mem.read(hdr.add(HDR_MIGRATE_POS)) > capacity {
                    return Err(format!("shard {s}: migrate cursor past the old table"));
                }
                tables.push((
                    resize_table,
                    resize_cap,
                    mem.read(hdr.add(HDR_RESIZE_TOMBS)),
                ));
            }
            let mut live = 0u64;
            let mut seen: HashSet<u64> = HashSet::new();
            for &(table, cap, expected_tombs) in &tables {
                // Every table — including an in-flight resize target — must
                // lie wholly inside the arena span the cursor has handed
                // out, or live records sit in unallocated memory.
                if table < self.arena.word() || table + cap * SLOT_WORDS > arena_next {
                    return Err(format!(
                        "shard {s}: table [{table}, {}) outside allocated arena [{}, {arena_next})",
                        table + cap * SLOT_WORDS,
                        self.arena.word()
                    ));
                }
                let mut tombs = 0u64;
                for i in 0..cap {
                    let slot = Self::slot_addr(table, cap, i);
                    let tag = mem.read(slot);
                    if tag == TOMBSTONE {
                        tombs += 1;
                        continue;
                    }
                    if tag == EMPTY {
                        continue;
                    }
                    let key = tag - 2;
                    if self.shard_of(key) != s {
                        return Err(format!("key {key} stored in shard {s}, hashes elsewhere"));
                    }
                    if !seen.insert(key) {
                        return Err(format!("key {key} is live twice in shard {s}"));
                    }
                    live += 1;
                }
                // The old table's tombstone counter goes stale during a
                // resize (migration tombstones are not counted); only check
                // it when the shard is quiescent.
                if resize_table == 0 && tombs != expected_tombs {
                    return Err(format!(
                        "shard {s}: {tombs} tombstones on disk, header says {expected_tombs}"
                    ));
                }
            }
            let expected_len = mem.read(hdr.add(HDR_LEN));
            if live != expected_len {
                return Err(format!(
                    "shard {s}: {live} live keys on disk, header says {expected_len}"
                ));
            }
        }
        Ok(())
    }
}
