//! Configuration of the Crafty engine.

/// Which of the paper's Crafty configurations to run.
///
/// Besides full Crafty, the evaluation (Section 7.1) uses two ablation
/// variants that are still fully functioning and provide the same
/// guarantees: `Crafty-NoRedo` commits every updating transaction through
/// the Validate phase, and `Crafty-NoValidate` restarts the Log phase
/// whenever the Redo phase's timestamp check fails.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CraftyVariant {
    /// Full Crafty: Log → Redo → (Validate if Redo fails) → software
    /// fallback.
    #[default]
    Full,
    /// Skip the Redo phase; always use Validate after the Log phase.
    NoRedo,
    /// Skip the Validate phase; a failed Redo restarts the Log phase.
    NoValidate,
}

impl CraftyVariant {
    /// The engine name used in the paper's figure legends.
    pub const fn engine_name(self) -> &'static str {
        match self {
            CraftyVariant::Full => "Crafty",
            CraftyVariant::NoRedo => "Crafty-NoRedo",
            CraftyVariant::NoValidate => "Crafty-NoValidate",
        }
    }
}

/// Tuning parameters for a [`crate::Crafty`] engine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CraftyConfig {
    /// Which Crafty configuration to run.
    pub variant: CraftyVariant,
    /// Capacity, in entries, of each thread's circular persistent undo log.
    /// Each entry occupies two 64-bit words. Must hold at least two
    /// maximal transactions (Section 5.2).
    pub undo_log_entries: u64,
    /// `MAX_LAG`: the maximum logical-time distance recovery may have to
    /// roll back (Section 5.2), in clock ticks.
    pub max_lag: u64,
    /// Number of worker threads the engine will serve.
    pub max_threads: usize,
    /// Size, in words, of the persistent heap served by transactional
    /// allocation ([`crafty_common::TxnOps::alloc`]), its header line (the
    /// cursor and free lists of [`crafty_pmem::Heap`]) included.
    pub heap_words: u64,
    /// Testing hook: when true, every transaction skips the hardware
    /// phases and goes straight to the software commit, so torture and
    /// contention suites can put crash points and conflicts inside the
    /// fallback windows deterministically.
    pub force_fallback: bool,
}

impl CraftyConfig {
    /// Defaults sized for the unit and property tests (small logs, small
    /// heap, tight lag bound so the lag machinery is exercised).
    pub fn small_for_tests() -> Self {
        CraftyConfig {
            variant: CraftyVariant::Full,
            undo_log_entries: 256,
            max_lag: 1 << 20,
            max_threads: 8,
            heap_words: 1 << 14,
            force_fallback: false,
        }
    }

    /// Defaults sized for the benchmark harness.
    pub fn benchmark(max_threads: usize) -> Self {
        CraftyConfig {
            variant: CraftyVariant::Full,
            undo_log_entries: 1 << 14,
            max_lag: 1 << 30,
            max_threads,
            heap_words: 1 << 22,
            force_fallback: false,
        }
    }

    /// Sets the variant (builder style).
    pub fn with_variant(mut self, variant: CraftyVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Sets the per-thread undo-log capacity in entries (builder style).
    pub fn with_undo_log_entries(mut self, entries: u64) -> Self {
        self.undo_log_entries = entries;
        self
    }

    /// Sets the persistent heap size in words (builder style).
    pub fn with_heap_words(mut self, words: u64) -> Self {
        self.heap_words = words;
        self
    }

    /// Sets the number of worker threads (builder style).
    pub fn with_max_threads(mut self, max_threads: usize) -> Self {
        self.max_threads = max_threads;
        self
    }

    /// Forces every transaction through the software fallback
    /// (builder style). A testing hook — see [`CraftyConfig::force_fallback`].
    pub fn with_force_fallback(mut self, force: bool) -> Self {
        self.force_fallback = force;
        self
    }
}

impl Default for CraftyConfig {
    fn default() -> Self {
        CraftyConfig::benchmark(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_names_match_paper_legends() {
        assert_eq!(CraftyVariant::Full.engine_name(), "Crafty");
        assert_eq!(CraftyVariant::NoRedo.engine_name(), "Crafty-NoRedo");
        assert_eq!(CraftyVariant::NoValidate.engine_name(), "Crafty-NoValidate");
        assert_eq!(CraftyVariant::default(), CraftyVariant::Full);
    }

    #[test]
    fn builders_compose() {
        let cfg = CraftyConfig::small_for_tests()
            .with_variant(CraftyVariant::NoRedo)
            .with_undo_log_entries(64)
            .with_heap_words(1024)
            .with_max_threads(2);
        assert_eq!(cfg.variant, CraftyVariant::NoRedo);
        assert_eq!(cfg.undo_log_entries, 64);
        assert_eq!(cfg.heap_words, 1024);
        assert_eq!(cfg.max_threads, 2);
    }

    #[test]
    fn default_is_thread_safe_full() {
        let cfg = CraftyConfig::default();
        assert_eq!(cfg.variant, CraftyVariant::Full);
        assert!(!cfg.force_fallback);
    }

    #[test]
    fn fallback_builders_compose() {
        assert!(
            CraftyConfig::small_for_tests()
                .with_force_fallback(true)
                .force_fallback
        );
    }
}
