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
//!               resize_table, resize_capacity, migrate_pos, 0]
//! arena        cfg.arena_words words; tables are bump-allocated here
//! ```
//!
//! Header word 7 is retired and stays zero.
//!
//! A table of capacity `C` occupies `2·C` contiguous arena words: slot `i`
//! is the pair `[tag, value]` at offset `2·i`. `tag = 0` is an empty slot,
//! `tag = 1` a tombstone, and any other tag stores key `tag − 2`.
//!
//! Every line an operation reads is read with one
//! [`TxnOps::read_words`] call: the header's `table..=resize_capacity`
//! words, and each probed slot as its `[tag, value]` pair (tables are
//! line-aligned, so a pair never straddles a line). A hit therefore needs
//! no second read. Under Crafty a call is one read-set check per line.
//! A `get` of a present key reads its value word last: tools that locate
//! a key's value word rely on it.
//!
//! A shard's *insertion table* is its in-flight resize table, or its main
//! table when no resize is in flight. Every insert lands there, and
//! `tombstones` counts that table's tombstones only: starting a resize
//! zeroes it, the old table's tombstones are never counted, and the swing
//! to the new table leaves it as it is.

use crafty_common::{mix64, PAddr, TxAbort, TxnOps};
use crafty_pmem::MemorySpace;

use crate::direct::DirectOps;

/// Root-block magic ("CraftyKV" in spirit): identifies an initialized
/// store when [`ShardedKv::open`] attaches to a rebooted space. The low
/// digits version the layout: `0002` counts tombstones of the insertion
/// table only, so `open` refuses a `0001` image.
const MAGIC: u64 = 0x43AF_7E6B_5653_0002;

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
const HDR_WORDS: u64 = 8;
/// The header words [`ShardedKv::live_tables`] reads in one call:
/// `HDR_TABLE..=HDR_RESIZE_CAPACITY`.
const HDR_LIVE_WORDS: usize = HDR_RESIZE_CAPACITY as usize + 1;

/// One open-addressed table: `capacity` slots from arena word `base`.
#[derive(Clone, Copy)]
struct Table {
    base: u64,
    capacity: u64,
}

impl Table {
    #[inline]
    fn slot(self, index: u64) -> PAddr {
        PAddr::new(self.base + (index & (self.capacity - 1)) * SLOT_WORDS)
    }
}

/// Reads the `[tag, value]` pair of the slot at `slot` in one call.
#[inline]
fn read_slot(ops: &mut dyn TxnOps, slot: PAddr) -> Result<[u64; SLOT_WORDS as usize], TxAbort> {
    let mut pair = [0; SLOT_WORDS as usize];
    ops.read_words(slot, &mut pair)?;
    Ok(pair)
}

// The store's key-mixing hash is [`crafty_common::mix64`]: high bits pick
// the shard, low bits pick the home slot, so the two choices are
// decorrelated. Each operation hashes its key once.

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
    /// Tombstones across the shards' insertion tables (an in-flight
    /// resize's old table is not counted).
    pub tombstones: u64,
    /// Total slot capacity across the shards' main tables (an in-flight
    /// resize table is not counted).
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

    /// The shard owning the key whose hash is `hash`: high hash bits, so it
    /// is independent of the in-table home slot (low bits).
    #[inline]
    fn shard_of(&self, hash: u64) -> u64 {
        (hash >> 32) & (self.shards as u64 - 1)
    }

    #[inline]
    fn encode(key: u64) -> u64 {
        assert!(key <= KEY_MAX, "key {key} exceeds KEY_MAX");
        key + 2
    }

    /// Reads the shard's live tables, insertion table first: the in-flight
    /// resize table and the main table it drains, or the main table alone.
    /// One call reads the header words they come from.
    #[inline]
    fn live_tables(
        &self,
        ops: &mut dyn TxnOps,
        hdr: PAddr,
    ) -> Result<(Table, Option<Table>), TxAbort> {
        let mut words = [0; HDR_LIVE_WORDS];
        ops.read_words(hdr.add(HDR_TABLE), &mut words)?;
        let main = Table {
            base: words[HDR_TABLE as usize],
            capacity: words[HDR_CAPACITY as usize],
        };
        Ok(match words[HDR_RESIZE_TABLE as usize] {
            0 => (main, None),
            base => {
                let capacity = words[HDR_RESIZE_CAPACITY as usize];
                (Table { base, capacity }, Some(main))
            }
        })
    }

    /// Probes `table` for `key`, whose hash is `hash`, reading each slot
    /// as its `[tag, value]` pair. Returns `Ok((slot_addr, value))` of the
    /// live entry, or `Err(first_reusable)` — the first tombstone on the
    /// probe path if any, else the terminating empty slot — when the key is
    /// absent.
    fn probe(
        &self,
        ops: &mut dyn TxnOps,
        table: Table,
        key: u64,
        hash: u64,
    ) -> Result<Result<(PAddr, u64), PAddr>, TxAbort> {
        let tag = Self::encode(key);
        let home = hash & (table.capacity - 1);
        let mut reusable = None;
        for step in 0..table.capacity {
            let slot = table.slot(home + step);
            let [t, value] = read_slot(ops, slot)?;
            if t == tag {
                return Ok(Ok((slot, value)));
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
        let hash = mix64(key);
        let (insert, old) = self.live_tables(ops, self.header(self.shard_of(hash)))?;
        let mut found = self.probe(ops, insert, key, hash)?;
        if let (Err(_), Some(old)) = (found, old) {
            found = self.probe(ops, old, key, hash)?;
        }
        Ok(found.ok().map(|(_, value)| value))
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
        let hash = mix64(key);
        let hdr = self.header(self.shard_of(hash));
        let (insert, old_table) = self.migrate_step(ops, hdr)?;
        // Keep the probe's free slot: nothing in the rest of this
        // transaction writes to the insertion table before the insert, so
        // it stays the right insertion point.
        let free = match self.probe(ops, insert, key, hash)? {
            Ok((slot, old)) => {
                ops.write(slot.add(1), value)?;
                return Ok(Some(old));
            }
            Err(free) => free,
        };
        // Mid-resize the key may still live in the old table: move it now,
        // carrying the new value, so exactly one live copy exists.
        let old = match old_table {
            Some(table) => self.take(ops, table, key, hash)?,
            None => None,
        };
        self.insert_at(ops, hdr, free, key, value)?;
        if old.is_none() {
            let len = ops.read(hdr.add(HDR_LEN))? + 1;
            ops.write(hdr.add(HDR_LEN), len)?;
            if old_table.is_none() {
                self.maybe_start_resize(ops, hdr)?;
            }
        }
        Ok(old)
    }

    /// Removes `key`; returns its value if it was present.
    ///
    /// # Errors
    ///
    /// Propagates [`TxAbort`] from the underlying transaction.
    pub fn remove(&self, ops: &mut dyn TxnOps, key: u64) -> Result<Option<u64>, TxAbort> {
        let hash = mix64(key);
        let hdr = self.header(self.shard_of(hash));
        let (insert, old_table) = self.migrate_step(ops, hdr)?;
        let old = match self.take(ops, insert, key, hash)? {
            Some(old) => {
                let tombs = ops.read(hdr.add(HDR_TOMBS))?;
                ops.write(hdr.add(HDR_TOMBS), tombs + 1)?;
                Some(old)
            }
            None => match old_table {
                Some(table) => self.take(ops, table, key, hash)?,
                None => None,
            },
        };
        if old.is_some() {
            let len = ops.read(hdr.add(HDR_LEN))?;
            ops.write(hdr.add(HDR_LEN), len - 1)?;
        }
        Ok(old)
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
        let hash = mix64(key);
        let (insert, old) = self.live_tables(ops, self.header(self.shard_of(hash)))?;
        let mut found = 0u64;
        let mut checksum = 0u64;
        for table in std::iter::once(insert).chain(old) {
            let home = hash & (table.capacity - 1);
            for step in 0..table.capacity {
                if found >= limit {
                    return Ok((found, checksum));
                }
                let [tag, value] = read_slot(ops, table.slot(home + step))?;
                if tag != EMPTY && tag != TOMBSTONE {
                    found += 1;
                    checksum = checksum.wrapping_add(mix64(tag - 2).wrapping_add(value));
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

    /// Tombstones `key`'s live entry in `table`, if any, and returns its
    /// value. Counts nothing: the caller owns the header.
    fn take(
        &self,
        ops: &mut dyn TxnOps,
        table: Table,
        key: u64,
        hash: u64,
    ) -> Result<Option<u64>, TxAbort> {
        match self.probe(ops, table, key, hash)? {
            Ok((slot, old)) => {
                ops.write(slot, TOMBSTONE)?;
                Ok(Some(old))
            }
            Err(_) => Ok(None),
        }
    }

    /// The one insertion step: stores `key → value` in `slot`, a probe's
    /// free slot of the insertion table, un-counting the tombstone it
    /// reuses.
    fn insert_at(
        &self,
        ops: &mut dyn TxnOps,
        hdr: PAddr,
        slot: PAddr,
        key: u64,
        value: u64,
    ) -> Result<(), TxAbort> {
        if ops.read(slot)? == TOMBSTONE {
            let tombs = ops.read(hdr.add(HDR_TOMBS))?;
            ops.write(hdr.add(HDR_TOMBS), tombs - 1)?;
        }
        ops.write(slot, Self::encode(key))?;
        ops.write(slot.add(1), value)
    }

    /// Starts an incremental resize when occupancy (live + tombstones)
    /// crosses ¾ of capacity: allocates the new table from the arena and
    /// installs the resize header fields. The new table becomes the
    /// insertion table, so the tombstone counter restarts at zero. All in
    /// the calling transaction — a crash either keeps the whole start or
    /// none of it.
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
        ops.write(hdr.add(HDR_TOMBS), 0)?;
        Ok(())
    }

    /// Reads the shard's live tables and, when a resize is in flight,
    /// first migrates up to [`MIGRATE_BATCH`] old-table slots into the new
    /// table, tombstoning each as it moves; the step that reaches the end
    /// swings the header to the new table in the same transaction.
    /// Returns the live tables after the step.
    fn migrate_step(
        &self,
        ops: &mut dyn TxnOps,
        hdr: PAddr,
    ) -> Result<(Table, Option<Table>), TxAbort> {
        let (insert, old) = self.live_tables(ops, hdr)?;
        let Some(old) = old else {
            return Ok((insert, None));
        };
        let pos = ops.read(hdr.add(HDR_MIGRATE_POS))?;
        let end = (pos + MIGRATE_BATCH).min(old.capacity);
        for i in pos..end {
            let slot = old.slot(i);
            let [tag, value] = read_slot(ops, slot)?;
            if tag != EMPTY && tag != TOMBSTONE {
                let key = tag - 2;
                let Err(free) = self.probe(ops, insert, key, mix64(key))? else {
                    unreachable!("a key is live in at most one table");
                };
                self.insert_at(ops, hdr, free, key, value)?;
                ops.write(slot, TOMBSTONE)?;
            }
        }
        ops.write(hdr.add(HDR_MIGRATE_POS), end)?;
        if end == old.capacity {
            // Final batch: swing to the new table. The old table's words
            // are abandoned in the arena.
            ops.write(hdr.add(HDR_TABLE), insert.base)?;
            ops.write(hdr.add(HDR_CAPACITY), insert.capacity)?;
            ops.write(hdr.add(HDR_RESIZE_TABLE), 0)?;
            ops.write(hdr.add(HDR_RESIZE_CAPACITY), 0)?;
            ops.write(hdr.add(HDR_MIGRATE_POS), 0)?;
            return Ok((insert, None));
        }
        Ok((insert, Some(old)))
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
            let (insert, old) = self
                .live_tables(&mut ops, self.header(s))
                .expect("direct reads cannot abort");
            for table in std::iter::once(insert).chain(old) {
                for i in 0..table.capacity {
                    let slot = table.slot(i);
                    let tag = mem.read(slot);
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
        let mut ops = DirectOps::new(mem);
        for s in 0..self.shards as u64 {
            let hdr = self.header(s);
            let (insert, old) = self
                .live_tables(&mut ops, hdr)
                .expect("direct reads cannot abort");
            let capacity = old.unwrap_or(insert).capacity;
            if !capacity.is_power_of_two() || capacity < 8 {
                return Err(format!(
                    "shard {s}: capacity {capacity} is not a power of two ≥ 8"
                ));
            }
            if old.is_some() {
                let resize_cap = insert.capacity;
                if !resize_cap.is_power_of_two() || resize_cap < capacity {
                    return Err(format!("shard {s}: bad resize capacity {resize_cap}"));
                }
                if mem.read(hdr.add(HDR_MIGRATE_POS)) > capacity {
                    return Err(format!("shard {s}: migrate cursor past the old table"));
                }
            }
            let mut keys = 0u64;
            let mut seen: HashSet<u64> = HashSet::new();
            for (nth, table) in std::iter::once(insert).chain(old).enumerate() {
                let (base, cap) = (table.base, table.capacity);
                // Every table — including an in-flight resize target — must
                // lie wholly inside the arena span the cursor has handed
                // out, or live records sit in unallocated memory.
                if base < self.arena.word() || base + cap * SLOT_WORDS > arena_next {
                    return Err(format!(
                        "shard {s}: table [{base}, {}) outside allocated arena [{}, {arena_next})",
                        base + cap * SLOT_WORDS,
                        self.arena.word()
                    ));
                }
                let mut tombs = 0u64;
                for i in 0..cap {
                    let slot = table.slot(i);
                    let tag = mem.read(slot);
                    if tag == TOMBSTONE {
                        tombs += 1;
                        continue;
                    }
                    if tag == EMPTY {
                        continue;
                    }
                    let key = tag - 2;
                    if self.shard_of(mix64(key)) != s {
                        return Err(format!("key {key} stored in shard {s}, hashes elsewhere"));
                    }
                    if !seen.insert(key) {
                        return Err(format!("key {key} is live twice in shard {s}"));
                    }
                    keys += 1;
                }
                // The counter covers the insertion table (listed first)
                // only: an old table's tombstones are never counted.
                let expected_tombs = mem.read(hdr.add(HDR_TOMBS));
                if nth == 0 && tombs != expected_tombs {
                    return Err(format!(
                        "shard {s}: {tombs} tombstones on disk, header says {expected_tombs}"
                    ));
                }
            }
            let expected_len = mem.read(hdr.add(HDR_LEN));
            if keys != expected_len {
                return Err(format!(
                    "shard {s}: {keys} live keys on disk, header says {expected_len}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crafty_pmem::PmemConfig;

    /// Tombstones in shard 0's insertion table, counted slot by slot.
    fn insertion_tombstones(kv: &ShardedKv, mem: &MemorySpace) -> u64 {
        let (insert, _) = kv
            .live_tables(&mut DirectOps::new(mem), kv.header(0))
            .unwrap();
        (0..insert.capacity)
            .filter(|&i| mem.read(insert.slot(i)) == TOMBSTONE)
            .count() as u64
    }

    /// Where `key` lives in shard 0: which live table (0 is the insertion
    /// table) and which slot.
    fn locate(kv: &ShardedKv, mem: &MemorySpace, key: u64) -> Option<(usize, PAddr)> {
        let mut ops = DirectOps::new(mem);
        let (insert, old) = kv.live_tables(&mut ops, kv.header(0)).unwrap();
        std::iter::once(insert)
            .chain(old)
            .enumerate()
            .find_map(|(nth, table)| {
                let found = kv.probe(&mut ops, table, key, mix64(key)).unwrap();
                Some((nth, found.ok()?.0))
            })
    }

    #[test]
    fn tombstone_counter_tracks_the_insertion_table_through_a_resize() {
        let mem = MemorySpace::new(PmemConfig::small_for_tests());
        // One 64-slot shard: a migration spans eight mutations.
        let cfg = KvConfig::small_for_tests()
            .with_shards(1)
            .with_initial_capacity(64);
        let kv = ShardedKv::create(&mem, &cfg);
        let mut ops = DirectOps::new(&mem);
        let check = |what: &str| {
            kv.check_integrity(&mem)
                .unwrap_or_else(|e| panic!("after {what}: {e}"));
            assert_eq!(
                kv.stats(&mem).tombstones,
                insertion_tombstones(&kv, &mem),
                "after {what}"
            );
        };
        let mut filled = 0;
        while !kv.resize_in_flight(&mem) {
            kv.put(&mut ops, filled, filled).unwrap();
            filled += 1;
            check("a fill put");
        }
        // The next mutation migrates the first batch.
        kv.put(&mut ops, filled, filled).unwrap();
        check("the first mid-resize put");

        let (migrated, tomb_slot) = (0..filled)
            .find_map(|k| match locate(&kv, &mem, k) {
                Some((0, slot)) => Some((k, slot)),
                _ => None,
            })
            .expect("a migrated key");
        assert_eq!(kv.remove(&mut ops, migrated).unwrap(), Some(migrated));
        check("removing a migrated key");
        assert!(kv.resize_in_flight(&mem));

        // Teeth: a counter one off mid-resize is reported.
        let tombs = kv.header(0).add(HDR_TOMBS);
        mem.write(tombs, mem.read(tombs) + 1);
        let err = kv.check_integrity(&mem).expect_err("a wrong counter");
        assert!(err.contains("tombstones"), "{err}");
        mem.write(tombs, mem.read(tombs) - 1);

        // An unmigrated key beyond the next batch stays in the old table
        // through this remove's own migration step.
        let (_, old) = kv.live_tables(&mut ops, kv.header(0)).unwrap();
        let old = old.expect("a resize in flight");
        let pos = mem.read(kv.header(0).add(HDR_MIGRATE_POS));
        let unmigrated = (0..filled)
            .find(|&k| match locate(&kv, &mem, k) {
                Some((1, slot)) => (slot.word() - old.base) / SLOT_WORDS >= pos + MIGRATE_BATCH,
                _ => false,
            })
            .expect("an unmigrated key");
        assert_eq!(kv.remove(&mut ops, unmigrated).unwrap(), Some(unmigrated));
        check("removing an unmigrated key");
        assert!(kv.resize_in_flight(&mem));

        // Re-inserting the migrated key reuses its tombstone.
        let before = kv.stats(&mem).tombstones;
        assert_eq!(kv.put(&mut ops, migrated, 7).unwrap(), None);
        check("re-inserting the removed key");
        assert_eq!(locate(&kv, &mem, migrated), Some((0, tomb_slot)));
        assert!(kv.stats(&mem).tombstones < before);
        assert!(kv.resize_in_flight(&mem));

        // Drain the resize: the swing keeps the counter.
        let mut key = filled + 1;
        while kv.resize_in_flight(&mem) {
            kv.put(&mut ops, key, key).unwrap();
            key += 1;
            check("a draining put");
        }
        assert_eq!(kv.get_direct(&mem, unmigrated), None);
        assert_eq!(kv.get_direct(&mem, migrated), Some(7));
    }
}
