//! A small deterministic PRNG used by the simulators.
//!
//! The crash model and the "zero abort" injector need cheap, seedable,
//! reproducible randomness that does not depend on global state. SplitMix64
//! is a tiny, well-studied generator that is more than adequate for fault
//! injection and workload key generation; the `rand` crate is still used in
//! workloads when distributions are needed.

/// SplitMix64's output function: adds the golden-gamma increment and
/// applies the finalizer. A high-quality, bijective-per-gamma-step 64-bit
/// mix, shared by [`SplitMix64::next_u64`] and by callers that need a
/// stateless hash with the same avalanche behaviour (the KV store's
/// shard/slot hashing, the YCSB key scrambler).
#[inline]
pub const fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 pseudo-random number generator.
///
/// # Example
///
/// ```
/// use crafty_common::SplitMix64;
///
/// let mut a = SplitMix64::new(7);
/// let mut b = SplitMix64::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Different seeds give independent
    /// streams; the same seed always gives the same stream.
    pub const fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The generator's current state: `SplitMix64::new(rng.state())`
    /// continues `rng`'s stream, so a stream can be parked in a plain word
    /// between uses.
    pub const fn state(&self) -> u64 {
        self.state
    }

    /// Returns the next 64-bit value in the stream.
    pub fn next_u64(&mut self) -> u64 {
        let out = mix64(self.state);
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// Returns a value uniformly distributed in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift reduction; bias is negligible for simulation use.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        (self.next_u64() as f64 / u64::MAX as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 16);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = SplitMix64::new(3);
        for _ in 0..1000 {
            assert!(r.next_below(17) < 17);
        }
        for _ in 0..1000 {
            assert!(r.next_below(1) == 0);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        SplitMix64::new(0).next_below(0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SplitMix64::new(9);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..1000).filter(|_| r.chance(0.5)).count();
        assert!(hits > 300 && hits < 700, "chance(0.5) hit {hits}/1000");
    }
}
