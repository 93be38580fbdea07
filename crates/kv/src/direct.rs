//! Non-transactional [`TxnOps`] adapter over a raw [`MemorySpace`].
//!
//! The store's data-structure code is written once against
//! [`crafty_common::TxnOps`]. Two situations legitimately want to run that
//! code *outside* any engine: setup-time prefill (before measurement or
//! service start, single-threaded, followed by an explicit
//! [`crate::ShardedKv::persist_all`]) and post-recovery inspection (reading
//! a rebooted image to verify or export its contents). [`DirectOps`] adapts
//! plain volatile reads and writes to the `TxnOps` interface for exactly
//! those uses.
//!
//! It is **not** a transaction: there is no atomicity, no isolation, and no
//! durability — callers own the threading discipline and must persist
//! explicitly. Transactional allocation is unsupported (the KV store
//! allocates from its own persistent arena, not the engine heap).

use crafty_common::{PAddr, TxAbort, TxnOps};
use crafty_pmem::MemorySpace;

/// Executes [`TxnOps`] accesses directly against a [`MemorySpace`] with no
/// transaction semantics. See the module docs for when this is legitimate.
#[derive(Debug)]
pub struct DirectOps<'a> {
    mem: &'a MemorySpace,
}

impl<'a> DirectOps<'a> {
    /// Creates an adapter over `mem`.
    pub fn new(mem: &'a MemorySpace) -> Self {
        DirectOps { mem }
    }
}

impl TxnOps for DirectOps<'_> {
    fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
        Ok(self.mem.read(addr))
    }

    fn read_words(&mut self, addr: PAddr, out: &mut [u64]) -> Result<(), TxAbort> {
        for (i, word) in out.iter_mut().enumerate() {
            *word = self.mem.read(addr.add(i as u64));
        }
        Ok(())
    }

    fn write(&mut self, addr: PAddr, value: u64) -> Result<(), TxAbort> {
        self.mem.write(addr, value);
        Ok(())
    }

    fn alloc(&mut self, _words: u64) -> Result<PAddr, TxAbort> {
        panic!("DirectOps does not support transactional allocation");
    }

    fn dealloc(&mut self, _addr: PAddr, _words: u64) -> Result<(), TxAbort> {
        panic!("DirectOps does not support transactional allocation");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crafty_pmem::PmemConfig;

    #[test]
    fn reads_and_writes_pass_through() {
        let mem = MemorySpace::new(PmemConfig::small_for_tests());
        let a = mem.reserve_persistent(1);
        let mut ops = DirectOps::new(&mem);
        assert_eq!(ops.read(a).unwrap(), 0);
        ops.write(a, 99).unwrap();
        assert_eq!(ops.read(a).unwrap(), 99);
        assert_eq!(mem.read(a), 99);
    }

    #[test]
    #[should_panic(expected = "transactional allocation")]
    fn alloc_is_unsupported() {
        let mem = MemorySpace::new(PmemConfig::small_for_tests());
        let _ = DirectOps::new(&mem).alloc(4);
    }
}
