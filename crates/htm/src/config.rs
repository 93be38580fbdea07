//! Configuration of the simulated hardware transactional memory.

/// Tuning knobs for the simulated RTM implementation.
///
/// The defaults approximate Intel TSX on the Skylake machine used in the
/// paper: transactional writes are bounded by the L1 data cache (32 KiB =
/// 512 lines) and reads by a much larger tracking structure; transactions
/// can also abort for reasons unrelated to the program ("zero" aborts:
/// interrupts, page faults), which the simulator injects probabilistically.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct HtmConfig {
    /// Maximum number of distinct cache lines a transaction may write.
    pub write_capacity_lines: usize,
    /// Maximum number of distinct cache lines a transaction may read.
    pub read_capacity_lines: usize,
    /// Probability that a given hardware transaction suffers a spurious
    /// ("zero") abort at some point during its execution.
    pub zero_abort_probability: f64,
    /// Seed for the spurious-abort injector.
    pub seed: u64,
    /// Abort-storm injection: dooms `storm_burst` consecutive hardware
    /// transactions out of every [`HtmConfig::storm_period`] per thread
    /// (0 disables storms). Storms model sustained interference —
    /// interrupt floods, cache-set thrashing — and drive the torture harness
    /// down the retry→software-fallback path.
    pub storm_burst: u32,
    /// Length of one storm cycle in hardware-transaction begins per
    /// thread. Values ≤ `storm_burst` are clamped at use sites to
    /// `storm_burst + 1` so every cycle contains at least one clean
    /// window (internal commit paths retry hardware transactions in
    /// bounded loops and need an abort-free begin to make progress).
    pub storm_period: u32,
}

impl HtmConfig {
    /// Skylake-like capacities with no spurious aborts (deterministic).
    pub const fn skylake() -> Self {
        HtmConfig {
            write_capacity_lines: 512,
            read_capacity_lines: 8192,
            zero_abort_probability: 0.0,
            seed: 0,
            storm_burst: 0,
            storm_period: 0,
        }
    }

    /// A tiny HTM useful for forcing capacity aborts in tests.
    pub const fn tiny() -> Self {
        HtmConfig {
            write_capacity_lines: 4,
            read_capacity_lines: 16,
            zero_abort_probability: 0.0,
            seed: 0,
            storm_burst: 0,
            storm_period: 0,
        }
    }

    /// Sets the spurious-abort probability (builder style).
    pub fn with_zero_aborts(mut self, probability: f64, seed: u64) -> Self {
        self.zero_abort_probability = probability;
        self.seed = seed;
        self
    }

    /// Enables abort-storm injection (builder style): `burst` consecutive
    /// doomed hardware transactions out of every `period` per thread. The
    /// seed varies where inside each doomed transaction the abort fires.
    pub fn with_abort_storm(mut self, burst: u32, period: u32, seed: u64) -> Self {
        self.storm_burst = burst;
        self.storm_period = period;
        self.seed = seed;
        self
    }
}

impl Default for HtmConfig {
    fn default() -> Self {
        HtmConfig::skylake()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skylake_defaults() {
        let c = HtmConfig::default();
        assert_eq!(c.write_capacity_lines, 512);
        assert!(c.read_capacity_lines >= c.write_capacity_lines);
        assert_eq!(c.zero_abort_probability, 0.0);
    }

    #[test]
    fn tiny_is_small() {
        assert!(HtmConfig::tiny().write_capacity_lines < 16);
    }

    #[test]
    fn builder_sets_zero_aborts() {
        let c = HtmConfig::skylake().with_zero_aborts(0.25, 9);
        assert_eq!(c.zero_abort_probability, 0.25);
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn storms_are_off_by_default_and_set_by_the_builder() {
        assert_eq!(HtmConfig::skylake().storm_burst, 0);
        assert_eq!(HtmConfig::tiny().storm_burst, 0);
        let c = HtmConfig::skylake().with_abort_storm(6, 10, 3);
        assert_eq!(c.storm_burst, 6);
        assert_eq!(c.storm_period, 10);
        assert_eq!(c.seed, 3);
    }
}
