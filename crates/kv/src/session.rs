//! The persistent per-session dedup table behind the service's
//! exactly-once contract.
//!
//! A client session is one logical request stream: the server's `Hello`
//! handshake assigns (or resumes) a session id, and every sequenced write
//! the client sends carries `(session, seq)` with `seq` starting at 1 and
//! incrementing by one per write. The table records, **in the persistent
//! heap**, the highest sequence each session has applied plus a small
//! window of cached responses — and it is mutated *inside the same
//! [`TxnOps`] transaction as the store write it guards*, so the pair
//! "write applied" / "seq recorded" is crash-atomic. Replaying a batch
//! after a lost ack therefore re-applies nothing: the lookup classifies
//! each request as fresh (apply + record), a replay (return the cached
//! response, touch nothing), or a protocol violation (gap / too old /
//! unknown session), and this classification survives a server
//! crash-restart because the table lives in the same heap the store does.
//!
//! # Persistent layout
//!
//! Reservation order (deterministic, so [`SessionTable::open`] replays it
//! on a rebooted space, exactly like [`crate::ShardedKv`]):
//!
//! ```text
//! root block   8 words   [MAGIC, capacity, next_sid, 0, 0, 0, 0, 0]
//! slots        capacity × 24 words (three cache lines each):
//!              [sid, last_seq,
//!               (tag, value) × REPLY_WINDOW,   // cached responses
//!               6 words pad]
//! ```
//!
//! The slot of session `sid` is `(sid − 1) mod capacity`. Slots are
//! reused round-robin as `next_sid` grows past `capacity`; a session whose
//! slot was reclaimed can no longer resume (its `Hello` is refused), which
//! is safe — refusing a resume only forces the client to fail loudly, it
//! never double-applies.
//!
//! Cached responses cover the last [`REPLY_WINDOW`] sequence numbers
//! (response of `seq` lives at ring position `(seq − 1) mod REPLY_WINDOW`),
//! so a client that never pipelines more than `REPLY_WINDOW` sequenced
//! writes per batch can always replay an unacked batch and get every
//! response back. Anything older is reported [`SeqCheck::Stale`].
//!
//! A cached reply is the write's result as the store returned it, an
//! `Option<u64>`: the previous value for a put or a remove, the new value
//! for an increment, `None` where there is no value. The server sends
//! `Some(value)` as `Found { value }` and `None` as `Missing`. In a ring
//! slot it is the pair `(FOUND, value)` or `(MISSING, 0)`; a tag of 0
//! marks a slot no write has filled.

use crafty_common::{PAddr, TxAbort, TxnOps};
use crafty_pmem::MemorySpace;

/// Root-block magic: identifies an initialized session table when
/// [`SessionTable::open`] attaches to a rebooted space.
const MAGIC: u64 = 0x43AF_7E6B_5E55_0001;

/// Cached responses kept per session — the deepest sequenced batch a
/// client may have in flight and still replay losslessly.
pub const REPLY_WINDOW: u64 = 8;

// Root block word offsets.
const ROOT_MAGIC: u64 = 0;
const ROOT_CAPACITY: u64 = 1;
const ROOT_NEXT_SID: u64 = 2;
const ROOT_WORDS: u64 = 8;

// Slot word offsets.
const SLOT_SID: u64 = 0;
const SLOT_LAST_SEQ: u64 = 1;
const SLOT_REPLIES: u64 = 2;
/// Three cache lines per slot: 2 header words + 16 reply words + 6 pad.
const SLOT_WORDS: u64 = 24;

// Cached-response tags.
const REPLY_NONE: u64 = 0;
const REPLY_FOUND: u64 = 1;
const REPLY_MISSING: u64 = 2;

/// Classification of a sequenced request against its session's record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SeqCheck {
    /// `seq == last_seq + 1`: apply the write and [`SessionTable::record`]
    /// it in the same transaction.
    Fresh,
    /// Already applied, reply still cached: return it, touch nothing.
    Replay(Option<u64>),
    /// `seq` is ahead of `last_seq + 1`: the client skipped a sequence
    /// number. Protocol violation — drop the connection.
    Gap {
        /// The highest sequence the session has applied.
        last_seq: u64,
    },
    /// Already applied but older than the reply window: the response is
    /// gone. A correct client never re-sends this deep; protocol
    /// violation.
    Stale,
    /// No live session with this id (never allocated, or its slot was
    /// reclaimed). Protocol violation.
    Unknown,
}

/// The persistent session table. Plain addresses — copy it freely, rebuild
/// it with [`SessionTable::open`] after a reboot.
#[derive(Clone, Copy, Debug)]
pub struct SessionTable {
    root: PAddr,
    slots: PAddr,
    capacity: u64,
}

impl SessionTable {
    /// Reserves and initializes a fresh table with `capacity` concurrent
    /// session slots (rounded up to a power of two, minimum 8), persisting
    /// the initial state.
    pub fn create(mem: &MemorySpace, capacity: u64) -> Self {
        let t = Self::layout(mem, capacity);
        mem.write(t.root.add(ROOT_MAGIC), MAGIC);
        mem.write(t.root.add(ROOT_CAPACITY), t.capacity);
        mem.write(t.root.add(ROOT_NEXT_SID), 1);
        for w in 0..t.capacity * SLOT_WORDS {
            mem.write(t.slots.add(w), 0);
        }
        t.persist_all(mem, 0);
        t
    }

    /// Attaches to an existing table on a (typically rebooted) space by
    /// replaying the same deterministic reservations as
    /// [`SessionTable::create`] and validating the root block.
    ///
    /// # Panics
    ///
    /// Panics if the root block does not contain a table created with an
    /// equivalent capacity.
    pub fn open(mem: &MemorySpace, capacity: u64) -> Self {
        let t = Self::layout(mem, capacity);
        assert_eq!(
            mem.read(t.root.add(ROOT_MAGIC)),
            MAGIC,
            "no session table found at the replayed root address"
        );
        assert_eq!(
            mem.read(t.root.add(ROOT_CAPACITY)),
            t.capacity,
            "session table was created with a different capacity"
        );
        assert!(
            mem.read(t.root.add(ROOT_NEXT_SID)) >= 1,
            "session id allocator is corrupt"
        );
        t
    }

    /// Performs the reservation sequence shared by `create` and `open`.
    fn layout(mem: &MemorySpace, capacity: u64) -> Self {
        let capacity = capacity.max(8).next_power_of_two();
        let root = mem.reserve_persistent(ROOT_WORDS);
        let slots = mem.reserve_persistent(capacity * SLOT_WORDS);
        SessionTable {
            root,
            slots,
            capacity,
        }
    }

    /// Session slots the table holds.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Sessions allocated so far (direct read; exact when quiescent).
    pub fn sessions_allocated(&self, mem: &MemorySpace) -> u64 {
        mem.read(self.root.add(ROOT_NEXT_SID)).saturating_sub(1)
    }

    #[inline]
    fn slot(&self, sid: u64) -> PAddr {
        self.slots
            .add(((sid - 1) & (self.capacity - 1)) * SLOT_WORDS)
    }

    #[inline]
    fn reply_addr(slot: PAddr, seq: u64) -> PAddr {
        slot.add(SLOT_REPLIES + ((seq - 1) % REPLY_WINDOW) * 2)
    }

    /// Handles a `Hello`: allocates a fresh session (`requested == 0`) or
    /// resumes an existing one. Returns `Some((sid, last_seq))` on
    /// success, `None` when the requested session cannot be resumed (never
    /// allocated, or its slot has been reclaimed by a newer session).
    ///
    /// Allocation claims the slot inside the calling transaction: sid,
    /// `last_seq = 0`, and all cached-response tags cleared, so a replayed
    /// `(session, seq)` from a long-dead previous occupant can never leak
    /// into the new session.
    ///
    /// # Errors
    ///
    /// Propagates [`TxAbort`] from the underlying transaction.
    pub fn begin(
        &self,
        ops: &mut dyn TxnOps,
        requested: u64,
    ) -> Result<Option<(u64, u64)>, TxAbort> {
        if requested != 0 {
            let next = ops.read(self.root.add(ROOT_NEXT_SID))?;
            if requested >= next {
                return Ok(None); // never allocated
            }
            let slot = self.slot(requested);
            if ops.read(slot.add(SLOT_SID))? != requested {
                return Ok(None); // slot reclaimed by a newer session
            }
            let last_seq = ops.read(slot.add(SLOT_LAST_SEQ))?;
            return Ok(Some((requested, last_seq)));
        }
        let sid = ops.read(self.root.add(ROOT_NEXT_SID))?;
        ops.write(self.root.add(ROOT_NEXT_SID), sid + 1)?;
        let slot = self.slot(sid);
        ops.write(slot.add(SLOT_SID), sid)?;
        ops.write(slot.add(SLOT_LAST_SEQ), 0)?;
        for r in 0..REPLY_WINDOW {
            ops.write(slot.add(SLOT_REPLIES + r * 2), REPLY_NONE)?;
        }
        Ok(Some((sid, 0)))
    }

    /// Classifies `(sid, seq)` against the session's persistent record.
    /// Run this in the *same transaction* as the write it guards, before
    /// the write; apply + [`SessionTable::record`] only on
    /// [`SeqCheck::Fresh`].
    ///
    /// # Errors
    ///
    /// Propagates [`TxAbort`] from the underlying transaction.
    pub fn check(&self, ops: &mut dyn TxnOps, sid: u64, seq: u64) -> Result<SeqCheck, TxAbort> {
        if sid == 0 || seq == 0 {
            return Ok(SeqCheck::Unknown);
        }
        let slot = self.slot(sid);
        if ops.read(slot.add(SLOT_SID))? != sid {
            return Ok(SeqCheck::Unknown);
        }
        let last_seq = ops.read(slot.add(SLOT_LAST_SEQ))?;
        if seq == last_seq + 1 {
            return Ok(SeqCheck::Fresh);
        }
        if seq > last_seq {
            return Ok(SeqCheck::Gap { last_seq });
        }
        if seq + REPLY_WINDOW <= last_seq {
            return Ok(SeqCheck::Stale);
        }
        let at = Self::reply_addr(slot, seq);
        let reply = match ops.read(at)? {
            REPLY_FOUND => Some(ops.read(at.add(1))?),
            REPLY_MISSING => None,
            // The window slot was never written for this seq — possible
            // only for corrupted state; refuse rather than invent a reply.
            _ => return Ok(SeqCheck::Stale),
        };
        Ok(SeqCheck::Replay(reply))
    }

    /// Records an applied write: advances `last_seq` to `seq` and caches
    /// its reply. Must run in the same transaction as the write, after a
    /// [`SeqCheck::Fresh`] classification.
    ///
    /// # Errors
    ///
    /// Propagates [`TxAbort`] from the underlying transaction.
    pub fn record(
        &self,
        ops: &mut dyn TxnOps,
        sid: u64,
        seq: u64,
        reply: Option<u64>,
    ) -> Result<(), TxAbort> {
        let slot = self.slot(sid);
        ops.write(slot.add(SLOT_LAST_SEQ), seq)?;
        let at = Self::reply_addr(slot, seq);
        let (tag, value) = match reply {
            Some(value) => (REPLY_FOUND, value),
            None => (REPLY_MISSING, 0),
        };
        ops.write(at, tag)?;
        ops.write(at.add(1), value)
    }

    /// Flushes and drains every line the table occupies through thread
    /// `tid`'s flush queue — setup-time persistence after
    /// [`SessionTable::create`], where no engine persists on the caller's
    /// behalf.
    pub fn persist_all(&self, mem: &MemorySpace, tid: usize) {
        mem.persist_ranges(
            tid,
            &[
                (self.root, ROOT_WORDS),
                (self.slots, self.capacity * SLOT_WORDS),
            ],
        );
    }

    /// Structural invariants, checked by direct reads while quiescent:
    /// the allocator is monotone, every occupied slot holds a sid that
    /// maps to it and is below the allocator, and cached-response tags are
    /// legal. Returns a description of the first violation.
    pub fn check_integrity(&self, mem: &MemorySpace) -> Result<(), String> {
        if mem.read(self.root.add(ROOT_MAGIC)) != MAGIC {
            return Err("session table root magic is gone".to_string());
        }
        let next = mem.read(self.root.add(ROOT_NEXT_SID));
        if next == 0 {
            return Err("session allocator rewound to 0".to_string());
        }
        for i in 0..self.capacity {
            let slot = self.slots.add(i * SLOT_WORDS);
            let sid = mem.read(slot.add(SLOT_SID));
            if sid == 0 {
                continue;
            }
            if sid >= next {
                return Err(format!("slot {i} holds unallocated session {sid}"));
            }
            if (sid - 1) & (self.capacity - 1) != i {
                return Err(format!("session {sid} stored in the wrong slot {i}"));
            }
            for r in 0..REPLY_WINDOW {
                let tag = mem.read(slot.add(SLOT_REPLIES + r * 2));
                if tag > REPLY_MISSING {
                    return Err(format!("session {sid}: illegal reply tag {tag}"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirectOps;
    use crafty_pmem::PmemConfig;

    fn mem() -> MemorySpace {
        MemorySpace::new(PmemConfig::small_for_tests())
    }

    #[test]
    fn fresh_replay_gap_stale_classification() {
        let mem = mem();
        let t = SessionTable::create(&mem, 8);
        let mut ops = DirectOps::new(&mem);
        let (sid, last) = t.begin(&mut ops, 0).unwrap().expect("allocate");
        assert_eq!((sid, last), (1, 0));

        assert_eq!(t.check(&mut ops, sid, 1).unwrap(), SeqCheck::Fresh);
        // Out-of-order future seq is a gap, not silently applied.
        assert_eq!(
            t.check(&mut ops, sid, 3).unwrap(),
            SeqCheck::Gap { last_seq: 0 }
        );
        t.record(&mut ops, sid, 1, Some(70)).unwrap();
        assert_eq!(
            t.check(&mut ops, sid, 1).unwrap(),
            SeqCheck::Replay(Some(70))
        );
        assert_eq!(t.check(&mut ops, sid, 2).unwrap(), SeqCheck::Fresh);
        t.record(&mut ops, sid, 2, None).unwrap();
        assert_eq!(t.check(&mut ops, sid, 2).unwrap(), SeqCheck::Replay(None));

        // Push the window past seq 1: the reply ring holds the last
        // REPLY_WINDOW responses, older seqs go stale.
        for seq in 3..=(2 + REPLY_WINDOW) {
            assert_eq!(t.check(&mut ops, sid, seq).unwrap(), SeqCheck::Fresh);
            t.record(&mut ops, sid, seq, Some(seq)).unwrap();
        }
        assert_eq!(t.check(&mut ops, sid, 1).unwrap(), SeqCheck::Stale);
        assert_eq!(t.check(&mut ops, sid, 2).unwrap(), SeqCheck::Stale);
        assert_eq!(
            t.check(&mut ops, sid, 3).unwrap(),
            SeqCheck::Replay(Some(3))
        );

        // Session 0 and seq 0 are never legal.
        assert_eq!(t.check(&mut ops, 0, 1).unwrap(), SeqCheck::Unknown);
        assert_eq!(t.check(&mut ops, sid, 0).unwrap(), SeqCheck::Unknown);
        // A sid nobody allocated is unknown.
        assert_eq!(t.check(&mut ops, 99, 1).unwrap(), SeqCheck::Unknown);
        t.check_integrity(&mem).expect("integrity");
    }

    #[test]
    fn resume_returns_the_replay_point_and_reclaim_refuses() {
        let mem = mem();
        let t = SessionTable::create(&mem, 8);
        let mut ops = DirectOps::new(&mem);
        let (sid, _) = t.begin(&mut ops, 0).unwrap().expect("allocate");
        t.record(&mut ops, sid, 1, Some(7)).unwrap();
        t.record(&mut ops, sid, 2, None).unwrap();

        // Resume sees the applied high-water mark.
        assert_eq!(t.begin(&mut ops, sid).unwrap(), Some((sid, 2)));
        // Resuming something never allocated is refused.
        assert_eq!(t.begin(&mut ops, 42).unwrap(), None);

        // Allocate capacity more sessions: sid 1's slot is reclaimed by
        // sid 9 (same slot, 8-way table), and its resume is refused.
        for _ in 0..t.capacity() {
            t.begin(&mut ops, 0).unwrap().expect("allocate");
        }
        assert_eq!(t.begin(&mut ops, sid).unwrap(), None);
        // The reclaiming session starts clean: no inherited replies.
        let reclaimer = 1 + t.capacity();
        assert_eq!(t.begin(&mut ops, reclaimer).unwrap(), Some((reclaimer, 0)));
        assert_eq!(t.check(&mut ops, reclaimer, 1).unwrap(), SeqCheck::Fresh);
        assert_eq!(t.sessions_allocated(&mem), 1 + t.capacity());
        t.check_integrity(&mem).expect("integrity");
    }

    #[test]
    fn open_replays_the_layout_and_survives_a_crash() {
        let cfg = PmemConfig::small_for_tests();
        let mem = MemorySpace::new(cfg);
        let t = SessionTable::create(&mem, 16);
        let mut ops = DirectOps::new(&mem);
        let (sid, _) = t.begin(&mut ops, 0).unwrap().expect("allocate");
        t.record(&mut ops, sid, 1, Some(123)).unwrap();
        t.persist_all(&mem, 0);

        let image = mem.crash();
        let rebooted = MemorySpace::boot(&image, cfg);
        let t2 = SessionTable::open(&rebooted, 16);
        t2.check_integrity(&rebooted).expect("integrity");
        let mut ops2 = DirectOps::new(&rebooted);
        assert_eq!(t2.begin(&mut ops2, sid).unwrap(), Some((sid, 1)));
        assert_eq!(
            t2.check(&mut ops2, sid, 1).unwrap(),
            SeqCheck::Replay(Some(123))
        );
    }

    #[test]
    #[should_panic(expected = "different capacity")]
    fn open_rejects_a_mismatched_capacity() {
        let cfg = PmemConfig::small_for_tests();
        let mem = MemorySpace::new(cfg);
        SessionTable::create(&mem, 16);
        let image = mem.crash();
        let rebooted = MemorySpace::boot(&image, cfg);
        SessionTable::open(&rebooted, 32);
    }
}
