//! Open-loop arrival schedules for the service benchmarks.
//!
//! A closed-loop driver (each thread issues its next operation when the
//! previous one returns) cannot see tail latency honestly: when the server
//! stalls, the driver stalls with it and simply stops generating the load
//! that would have queued — *coordinated omission*. An **open-loop**
//! driver decides every operation's send time in advance, from an arrival
//! process the server does not influence, and measures each operation's
//! latency from its **intended** send time. A stall then charges every
//! operation scheduled during it, exactly as real clients would experience
//! it.
//!
//! [`OpenLoopConfig::schedule`] materializes the full deterministic
//! schedule — arrival times from a fixed-rate or Poisson process, and an
//! operation mix (zipfian-skewed gets/puts reusing the YCSB scrambled-key
//! construction) — as a pure function of the config, so every engine under
//! comparison replays byte-identical traffic.

use crafty_common::{mix64, SplitMix64, Zipfian};

/// The inter-arrival process of an open-loop schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArrivalProcess {
    /// Evenly spaced arrivals: one operation every `1/rate` seconds. The
    /// gentlest schedule a rate can have — no burstiness at all.
    Fixed,
    /// Memoryless (exponential) inter-arrivals at the given mean rate: the
    /// standard model of independent clients, with natural bursts that
    /// probe queueing behaviour.
    Poisson,
}

impl ArrivalProcess {
    /// Short label used in benchmark output (`"fixed"` / `"poisson"`).
    pub fn label(self) -> &'static str {
        match self {
            ArrivalProcess::Fixed => "fixed",
            ArrivalProcess::Poisson => "poisson",
        }
    }
}

/// What one scheduled operation does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpKind {
    /// Read a key.
    Get {
        /// Key to read.
        key: u64,
    },
    /// Durably write `key = value`.
    Put {
        /// Key to write.
        key: u64,
        /// Value to store.
        value: u64,
    },
}

impl OpKind {
    /// Whether the operation mutates the store.
    pub fn is_write(self) -> bool {
        matches!(self, OpKind::Put { .. })
    }
}

/// One operation with its intended send time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScheduledOp {
    /// Intended send time, in nanoseconds from the start of the run.
    /// Latency is measured from this instant, not from when the sender
    /// actually managed to write the bytes — the open-loop discipline.
    pub at_ns: u64,
    /// The operation itself.
    pub kind: OpKind,
}

/// A deterministic open-loop workload: an arrival rate, an operation
/// count, and the key/operation mix.
#[derive(Clone, Copy, Debug)]
pub struct OpenLoopConfig {
    /// Offered load, operations per second.
    pub rate_per_sec: u64,
    /// Total operations in the schedule.
    pub ops: u64,
    /// Seed for arrivals and the key mix (same seed ⇒ same schedule).
    pub seed: u64,
    /// Key population: keys are zipfian ranks over `records`, scrambled
    /// into a `4 · records` key domain exactly as the YCSB mixes do, so a
    /// store prefilled by [`crate::YcsbWorkload`] with the same `records`
    /// and `seed` serves this schedule from a loaded state.
    pub records: u64,
    /// Zipfian skew (YCSB default 0.99).
    pub theta: f64,
    /// Percentage of operations that are reads (the rest are puts).
    pub read_pct: u32,
    /// The inter-arrival process.
    pub arrival: ArrivalProcess,
}

impl OpenLoopConfig {
    /// Scrambles a zipfian rank into a key — the same construction as the
    /// YCSB mixes, so schedules hit the same hot set a prefilled store
    /// has. Public so load generators can prefill a store with exactly the
    /// population the schedule will draw from (`records` ranks).
    pub fn scrambled_key(&self, rank: u64) -> u64 {
        mix64(rank.wrapping_add(self.seed)) % (self.records * 4)
    }

    /// Materializes the schedule: `ops` operations with nondecreasing
    /// intended send times. Pure in the config — two calls return the same
    /// schedule, and configs differing only in engine under test replay
    /// identical traffic.
    pub fn schedule(&self) -> Vec<ScheduledOp> {
        assert!(self.rate_per_sec > 0, "rate must be positive");
        assert!(self.records > 0, "key population must be nonempty");
        let mut arrivals = SplitMix64::new(self.seed ^ 0xA441_7A1D);
        let mut keys = SplitMix64::new(self.seed ^ 0x5EED_12D7);
        let zipf = Zipfian::new(self.records, self.theta);
        let gap_ns = 1_000_000_000.0 / self.rate_per_sec as f64;
        let mut clock_ns = 0.0f64;
        let mut out = Vec::with_capacity(self.ops as usize);
        for i in 0..self.ops {
            clock_ns += match self.arrival {
                ArrivalProcess::Fixed => gap_ns,
                ArrivalProcess::Poisson => {
                    // Exponential inter-arrival via inversion; clamp the
                    // uniform away from 0 so ln() stays finite.
                    let u = (arrivals.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    -gap_ns * (1.0 - u).max(1e-12).ln()
                }
            };
            let key = self.scrambled_key(zipf.sample(&mut keys));
            let kind = if keys.next_below(100) < self.read_pct as u64 {
                OpKind::Get { key }
            } else {
                OpKind::Put {
                    key,
                    value: mix64(key ^ i),
                }
            };
            out.push(ScheduledOp {
                at_ns: clock_ns as u64,
                kind,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(arrival: ArrivalProcess) -> OpenLoopConfig {
        OpenLoopConfig {
            rate_per_sec: 100_000,
            ops: 2_000,
            seed: 42,
            records: 400,
            theta: 0.99,
            read_pct: 50,
            arrival,
        }
    }

    #[test]
    fn schedules_are_deterministic_and_sorted() {
        for arrival in [ArrivalProcess::Fixed, ArrivalProcess::Poisson] {
            let a = cfg(arrival).schedule();
            let b = cfg(arrival).schedule();
            assert_eq!(a, b, "same config must give the same schedule");
            assert_eq!(a.len(), 2_000);
            assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        }
    }

    #[test]
    fn mean_rate_matches_the_configured_rate() {
        for arrival in [ArrivalProcess::Fixed, ArrivalProcess::Poisson] {
            let s = cfg(arrival).schedule();
            let span_s = s.last().unwrap().at_ns as f64 / 1e9;
            let rate = s.len() as f64 / span_s;
            let err = (rate - 100_000.0).abs() / 100_000.0;
            assert!(err < 0.1, "{arrival:?}: rate {rate} off by {err}");
        }
    }

    #[test]
    fn mix_respects_read_percentage() {
        let mut c = cfg(ArrivalProcess::Fixed);
        c.read_pct = 90;
        let s = c.schedule();
        let reads = s.iter().filter(|o| !o.kind.is_write()).count();
        let frac = reads as f64 / s.len() as f64;
        assert!((frac - 0.9).abs() < 0.05, "read fraction {frac}");
        c.read_pct = 0;
        assert!(c.schedule().iter().all(|o| o.kind.is_write()));
    }

    #[test]
    fn keys_stay_in_the_scrambled_domain() {
        let c = cfg(ArrivalProcess::Poisson);
        for op in c.schedule() {
            let key = match op.kind {
                OpKind::Get { key } => key,
                OpKind::Put { key, .. } => key,
            };
            assert!(key < c.records * 4);
        }
    }

    #[test]
    fn poisson_is_burstier_than_fixed() {
        // The variance of inter-arrival gaps distinguishes the processes:
        // fixed has (nearly) none, Poisson has mean².
        let gaps = |s: &[ScheduledOp]| -> Vec<f64> {
            s.windows(2)
                .map(|w| (w[1].at_ns - w[0].at_ns) as f64)
                .collect()
        };
        let var = |g: &[f64]| -> f64 {
            let mean = g.iter().sum::<f64>() / g.len() as f64;
            g.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / g.len() as f64
        };
        let fixed = var(&gaps(&cfg(ArrivalProcess::Fixed).schedule()));
        let poisson = var(&gaps(&cfg(ArrivalProcess::Poisson).schedule()));
        assert!(
            poisson > fixed * 10.0,
            "poisson variance {poisson} vs fixed {fixed}"
        );
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(ArrivalProcess::Fixed.label(), "fixed");
        assert_eq!(ArrivalProcess::Poisson.label(), "poisson");
        assert!(OpKind::Put { key: 1, value: 2 }.is_write());
        assert!(!OpKind::Get { key: 1 }.is_write());
    }
}
