//! The bank microbenchmark (Section 7.1).
//!
//! Random transfers between accounts: each persistent transaction performs
//! five transfers (ten persistent writes). Contention is controlled exactly
//! as in the paper: the high- and medium-conflict configurations use 1,024
//! and 4,096 cache-line-aligned accounts respectively, and the no-conflict
//! configuration partitions the accounts among threads.

use std::sync::Arc;

use crafty_common::{PAddr, SplitMix64, TxAbort, TxnOps, WORDS_PER_LINE};
use crafty_pmem::MemorySpace;

use crate::driver::{TxnMix, Workload};

/// The paper's three contention levels for the bank benchmark.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Contention {
    /// 1,024 accounts shared by all threads.
    High,
    /// 4,096 accounts shared by all threads.
    Medium,
    /// Accounts partitioned among threads: no conflicts at all.
    None,
}

impl Contention {
    /// The label the paper uses for this configuration.
    pub fn label(self) -> &'static str {
        match self {
            Contention::High => "high contention",
            Contention::Medium => "medium contention",
            Contention::None => "no contention",
        }
    }
}

/// The bank workload configuration.
#[derive(Clone, Copy, Debug)]
pub struct BankWorkload {
    /// Contention level (controls the number / partitioning of accounts).
    pub contention: Contention,
    /// Number of transfers per transaction (the paper uses 5 → 10 writes).
    pub transfers_per_txn: u64,
    /// Initial balance of every account.
    pub initial_balance: u64,
    /// Maximum number of worker threads (used to partition accounts in the
    /// no-contention configuration).
    pub max_threads: usize,
}

impl BankWorkload {
    /// The paper's configuration at the given contention level.
    pub fn paper(contention: Contention, max_threads: usize) -> Self {
        BankWorkload {
            contention,
            transfers_per_txn: 5,
            initial_balance: 1_000,
            max_threads,
        }
    }

    fn accounts(&self) -> u64 {
        match self.contention {
            Contention::High => 1_024,
            Contention::Medium => 4_096,
            Contention::None => (self.max_threads as u64).max(1) * 256,
        }
    }
}

/// The prepared bank state: one cache line per account.
pub struct BankMix {
    base: PAddr,
    accounts: u64,
    transfers_per_txn: u64,
    initial_balance: u64,
    partitioned: bool,
    max_threads: usize,
}

impl BankMix {
    fn account_addr(&self, index: u64) -> PAddr {
        // Cache-line-aligned accounts, as in the paper's microbenchmark.
        self.base.add(index * WORDS_PER_LINE)
    }

    /// Total balance across all accounts (used by the invariant check).
    pub fn total(&self, mem: &MemorySpace) -> u64 {
        (0..self.accounts)
            .map(|i| mem.read(self.account_addr(i)))
            .sum()
    }

    /// The expected total balance.
    pub fn expected_total(&self) -> u64 {
        self.accounts * self.initial_balance
    }
}

impl Workload for BankWorkload {
    fn name(&self) -> String {
        format!("bank ({})", self.contention.label())
    }

    fn prepare(&self, mem: &Arc<MemorySpace>) -> Box<dyn TxnMix> {
        let accounts = self.accounts();
        let base = mem.reserve_persistent(accounts * WORDS_PER_LINE);
        let mix = BankMix {
            base,
            accounts,
            transfers_per_txn: self.transfers_per_txn,
            initial_balance: self.initial_balance,
            partitioned: self.contention == Contention::None,
            max_threads: self.max_threads.max(1),
        };
        for i in 0..accounts {
            mem.write(mix.account_addr(i), self.initial_balance);
            mem.persist(0, mix.account_addr(i));
        }
        Box::new(mix)
    }
}

impl TxnMix for BankMix {
    fn run_txn(
        &self,
        tid: usize,
        _txn_index: u64,
        rng: &mut SplitMix64,
        ops: &mut dyn TxnOps,
    ) -> Result<(), TxAbort> {
        // The body touches `rng` nowhere else, so drawing each transfer's
        // accounts as it goes consumes the stream exactly as drawing them
        // all up front would: re-execution from the same rng state
        // (Crafty's Log and Validate phases) touches the same accounts.
        let mut pick = || {
            if self.partitioned {
                let span = self.accounts / self.max_threads as u64;
                let start = span * tid as u64 % self.accounts;
                start + rng.next_below(span.max(1))
            } else {
                rng.next_below(self.accounts)
            }
        };
        for _ in 0..self.transfers_per_txn {
            let from = self.account_addr(pick());
            let to = self.account_addr(pick());
            let a = ops.read(from)?;
            ops.write(from, a.wrapping_sub(1))?;
            let b = ops.read(to)?;
            ops.write(to, b.wrapping_add(1))?;
        }
        Ok(())
    }

    fn verify(&self, mem: &MemorySpace) -> Result<(), String> {
        let total = self.total(mem);
        if total == self.expected_total() {
            Ok(())
        } else {
            Err(format!(
                "bank total {total} != expected {}",
                self.expected_total()
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::run_mix;
    use crafty_baselines::NonDurable;
    use crafty_common::PersistentTm;
    use crafty_core::{Crafty, CraftyConfig};
    use crafty_pmem::PmemConfig;

    #[test]
    fn contention_levels_set_account_counts() {
        assert_eq!(BankWorkload::paper(Contention::High, 16).accounts(), 1024);
        assert_eq!(BankWorkload::paper(Contention::Medium, 16).accounts(), 4096);
        assert_eq!(BankWorkload::paper(Contention::None, 4).accounts(), 1024);
        assert_eq!(Contention::High.label(), "high contention");
    }

    #[test]
    fn transfers_preserve_the_total_on_crafty() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let engine = Crafty::new(
            Arc::clone(&mem),
            CraftyConfig::small_for_tests().with_max_threads(4),
        );
        let workload = BankWorkload {
            contention: Contention::High,
            transfers_per_txn: 5,
            initial_balance: 100,
            max_threads: 4,
        };
        let mix = workload.prepare(&mem);
        run_mix(&engine, mix.as_ref(), 3, 60, 7);
        mix.verify(&mem).expect("bank invariant");
        let b = engine.breakdown();
        assert!(
            (b.writes_per_txn() - 10.0).abs() < 0.01,
            "10 writes per transaction"
        );
    }

    #[test]
    fn partitioned_configuration_avoids_conflicts() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let engine = NonDurable::new(Arc::clone(&mem), 1 << 12);
        let workload = BankWorkload::paper(Contention::None, 4);
        let mix = workload.prepare(&mem);
        run_mix(&engine, mix.as_ref(), 4, 50, 3);
        mix.verify(&mem).expect("bank invariant");
        let b = engine.breakdown();
        assert_eq!(b.total_persistent(), 200);
        assert_eq!(
            b.hw(crafty_common::HwTxnOutcome::Conflict),
            0,
            "partitioned accounts must not conflict"
        );
    }

    /// Records every call a body makes; reads see a constant.
    #[derive(Default)]
    struct Recorder(Vec<(&'static str, PAddr)>);

    impl TxnOps for Recorder {
        fn read(&mut self, addr: PAddr) -> Result<u64, TxAbort> {
            self.0.push(("read", addr));
            Ok(100)
        }
        fn write(&mut self, addr: PAddr, _value: u64) -> Result<(), TxAbort> {
            self.0.push(("write", addr));
            Ok(())
        }
        fn alloc(&mut self, _words: u64) -> Result<PAddr, TxAbort> {
            unreachable!("bank never allocates")
        }
        fn dealloc(&mut self, _addr: PAddr, _words: u64) -> Result<(), TxAbort> {
            unreachable!("bank never frees")
        }
    }

    #[test]
    fn body_draws_two_accounts_per_transfer_in_stream_order() {
        for (transfers_per_txn, partitioned) in [(1, false), (5, false), (5, true), (7, false)] {
            let mix = BankMix {
                base: PAddr::new(4096),
                accounts: 1024,
                transfers_per_txn,
                initial_balance: 0,
                partitioned,
                max_threads: 4,
            };
            let trace = |seed| {
                let mut ops = Recorder::default();
                mix.run_txn(1, 0, &mut SplitMix64::new(seed), &mut ops)
                    .expect("body");
                ops.0
            };
            let first = trace(1);
            assert_eq!(first, trace(1), "re-execution touches the same accounts");

            // By hand: the stream's draws in order, two per transfer, one
            // line per account; thread 1 of 4 owns accounts 256..512.
            let mut rng = SplitMix64::new(1);
            let mut expected = Vec::new();
            for _ in 0..transfers_per_txn * 2 {
                let account = if partitioned {
                    256 + rng.next_below(256)
                } else {
                    rng.next_below(1024)
                };
                let addr = PAddr::new(4096 + account * WORDS_PER_LINE);
                expected.extend([("read", addr), ("write", addr)]);
            }
            assert_eq!(first, expected);
        }
    }

    #[test]
    fn workload_names_match_figure_captions() {
        assert_eq!(
            BankWorkload::paper(Contention::High, 16).name(),
            "bank (high contention)"
        );
    }
}
