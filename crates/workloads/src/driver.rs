//! The engine-generic benchmark driver.
//!
//! A [`Workload`] prepares persistent state and yields a [`TxnMix`]; the
//! driver then runs the mix on any [`PersistentTm`] engine with a given
//! number of threads, measuring wall-clock time exactly as the paper does
//! (throughput = inverse of execution time, Section 7.1).

use std::sync::Arc;
use std::time::{Duration, Instant};

use crafty_common::trace::{self, TraceEventKind};
use crafty_common::{PersistentTm, SplitMix64, TxAbort, TxnOps};
use crafty_pmem::MemorySpace;

/// A benchmark's transaction mix over already-prepared persistent state.
pub trait TxnMix: Send + Sync {
    /// Executes the `txn_index`-th transaction of thread `tid` against the
    /// given transactional operations. Must be idempotent: engines may
    /// re-execute the body (see [`crafty_common::api`]).
    fn run_txn(
        &self,
        tid: usize,
        txn_index: u64,
        rng: &mut SplitMix64,
        ops: &mut dyn TxnOps,
    ) -> Result<(), TxAbort>;

    /// Checks a workload invariant against the final memory state (e.g.
    /// conservation of the total bank balance). Returns a description of
    /// the violation if any.
    fn verify(&self, _mem: &MemorySpace) -> Result<(), String> {
        Ok(())
    }
}

/// A benchmark: prepares persistent state and produces its transaction mix.
pub trait Workload {
    /// The benchmark name as used in the paper's figures.
    fn name(&self) -> String;

    /// Reserves and initializes the benchmark's persistent data.
    fn prepare(&self, mem: &Arc<MemorySpace>) -> Box<dyn TxnMix>;
}

/// The one thread × transaction loop: runs `txns_per_thread` transactions
/// of `mix` on each of `threads` worker threads of `engine`. Neither timed
/// nor quiesced — [`run_mix`] adds both, a crash test adds neither.
///
/// Every transaction gets one seed, drawn from its thread's stream
/// *outside* the body, and every run of the body starts from
/// `SplitMix64::new(that seed)`: a re-execution (a hardware retry, the
/// Validate phase of Algorithm 3) makes the picks its Log phase made, so it
/// can match the undo entries that phase persisted.
pub fn drive(
    engine: &dyn PersistentTm,
    mix: &dyn TxnMix,
    threads: usize,
    txns_per_thread: u64,
    seed: u64,
) {
    std::thread::scope(|s| {
        for tid in 0..threads {
            s.spawn(move || {
                let mut handle = engine.register_thread(tid);
                let mut seeds = SplitMix64::new(seed ^ (tid as u64 + 1).wrapping_mul(0x9E37));
                for i in 0..txns_per_thread {
                    let txn_seed = seeds.next_u64();
                    let mut body = |ops: &mut dyn TxnOps| {
                        mix.run_txn(tid, i, &mut SplitMix64::new(txn_seed), ops)
                    };
                    // Engine-agnostic lifecycle bracketing: every engine's
                    // transactions show up as begin/end pairs in a trace
                    // dump, whatever the engine does in between.
                    trace::record(tid, TraceEventKind::TxnBegin, i);
                    handle.execute(&mut body);
                    trace::record(tid, TraceEventKind::TxnEnd, i);
                }
            });
        }
    });
}

/// [`drive`], timed and then quiesced: returns the wall-clock time of the
/// measured region.
pub fn run_mix(
    engine: &dyn PersistentTm,
    mix: &dyn TxnMix,
    threads: usize,
    txns_per_thread: u64,
    seed: u64,
) -> Duration {
    let start = Instant::now();
    drive(engine, mix, threads, txns_per_thread, seed);
    let elapsed = start.elapsed();
    engine.quiesce();
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crafty_baselines::NonDurable;
    use crafty_common::PAddr;
    use crafty_pmem::PmemConfig;

    struct CounterMix {
        cell: PAddr,
    }

    impl TxnMix for CounterMix {
        fn run_txn(
            &self,
            _tid: usize,
            _i: u64,
            _rng: &mut SplitMix64,
            ops: &mut dyn TxnOps,
        ) -> Result<(), TxAbort> {
            let v = ops.read(self.cell)?;
            ops.write(self.cell, v + 1)
        }
        fn verify(&self, mem: &MemorySpace) -> Result<(), String> {
            if mem.read(self.cell) > 0 {
                Ok(())
            } else {
                Err("counter never advanced".to_string())
            }
        }
    }

    #[test]
    fn driver_runs_the_requested_number_of_transactions() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        let engine = NonDurable::new(Arc::clone(&mem), 1 << 12);
        let cell = mem.reserve_persistent(1);
        let mix = CounterMix { cell };
        let elapsed = run_mix(&engine, &mix, 4, 100, 1);
        assert_eq!(mem.read(cell), 400);
        assert_eq!(engine.breakdown().total_persistent(), 400);
        assert!(mix.verify(&mem).is_ok());
        assert!(elapsed > Duration::ZERO);
    }
}
