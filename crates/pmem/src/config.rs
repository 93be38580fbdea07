//! Configuration of the simulated memory system.

/// How the write-back latency of the simulated NVM is charged.
///
/// The paper's methodology (Section 6) emulates non-volatile memory in DRAM
/// by busy-waiting 300 ns at each drain operation, i.e. at each SFENCE that
/// follows one or more CLWBs; the appendix repeats every experiment with
/// 100 ns. [`LatencyModel::drain_ns`] reproduces that; setting it to 0
/// disables the wait (useful in unit tests).
///
/// On top of the flat per-drain cost, the write-back traffic itself is
/// charged through **ranged flushes**: a drain coalesces the claimed lines
/// into maximal runs of adjacent line ids and pays
/// [`LatencyModel::clwb_range`] once per run — a per-run base
/// ([`LatencyModel::clwb_range_ns`], the flush instruction issue /
/// controller round trip a ranged CLWB amortizes across its lines), a
/// per-line component ([`LatencyModel::clwb_line_ns`], tag checks and
/// write-combining per covered line), and a per-word component
/// ([`LatencyModel::clwb_word_ns`], media write bandwidth for the words the
/// dirty-word masks actually copied). Adjacent lines therefore share one
/// base charge, and — as in the word-granular pipeline underneath — write
/// amplification at the persist boundary (the cost HTPM identifies as
/// dominating HTM-persistence overhead) is charged for what was written,
/// not for whole lines.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LatencyModel {
    /// How long a drain lasts from its issue, in nanoseconds, before the
    /// cost of the ranged flushes it performs is added: the round trip to
    /// the persistence domain. The simulator's own write-back work happens
    /// within this time, not after it.
    pub drain_ns: u64,
    /// Nanoseconds charged once per ranged flush a drain issues (the
    /// per-instruction base cost adjacent lines amortize).
    pub clwb_range_ns: u64,
    /// Nanoseconds charged per line a ranged flush covers.
    pub clwb_line_ns: u64,
    /// Nanoseconds charged, per word actually copied to the persistent
    /// image, on top of the flat drain cost (media write bandwidth).
    pub clwb_word_ns: u64,
}

impl LatencyModel {
    /// The per-word media-write cost that accompanies the NVM presets:
    /// a full 8-word line costs 200 ns of bandwidth on top of the drain's
    /// round trip, a single-word update 25 ns.
    pub const NVM_WORD_NS: u64 = 25;

    /// The per-ranged-flush base cost of the NVM presets. A drain that
    /// coalesces eight adjacent lines into one range pays this once; eight
    /// lines that are not adjacent pay it eight times.
    pub const NVM_RANGE_NS: u64 = 60;

    /// The per-covered-line cost of the NVM presets.
    pub const NVM_LINE_NS: u64 = 10;

    /// The paper's default NVM round-trip latency (300 ns per drain).
    pub const fn nvm_300ns() -> Self {
        LatencyModel {
            drain_ns: 300,
            clwb_range_ns: Self::NVM_RANGE_NS,
            clwb_line_ns: Self::NVM_LINE_NS,
            clwb_word_ns: Self::NVM_WORD_NS,
        }
    }

    /// The appendix's optimistic latency (100 ns per drain), modelling an
    /// NVM controller whose buffer is inside the persistence domain.
    pub const fn nvm_100ns() -> Self {
        LatencyModel {
            drain_ns: 100,
            clwb_range_ns: Self::NVM_RANGE_NS,
            clwb_line_ns: Self::NVM_LINE_NS,
            clwb_word_ns: Self::NVM_WORD_NS,
        }
    }

    /// No emulated latency; drains are instantaneous. Used by unit tests
    /// and by correctness-only runs (crash/recovery fuzzing).
    pub const fn instant() -> Self {
        LatencyModel {
            drain_ns: 0,
            clwb_range_ns: 0,
            clwb_line_ns: 0,
            clwb_word_ns: 0,
        }
    }

    /// Cost of one ranged flush covering `lines` adjacent cache lines of
    /// which `words` words were actually copied: one base charge plus the
    /// per-line and per-word components. This is the unit a drain charges
    /// per coalesced run (and an overflow write-back charges with
    /// `lines = 1`); the flat [`LatencyModel::drain_ns`] comes on top, once
    /// per drain.
    pub const fn clwb_range(&self, lines: u64, words: u64) -> u64 {
        self.clwb_range_ns + lines * self.clwb_line_ns + words * self.clwb_word_ns
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::nvm_300ns()
    }
}

/// How aggressively the simulated cache persists data the program did not
/// ask to persist, and how a crash resolves in-flight state.
///
/// Real hardware may write a dirty line back to NVM at any time (cache
/// eviction), and at a power failure an unflushed line may have persisted
/// entirely, partially (at word granularity), or not at all. These are the
/// behaviours undo logging has to defend against, so the simulator makes
/// them explicit and seedable.
///
/// Three presets cover the useful points of the space (see
/// `ARCHITECTURE.md` for the full table of what each may lose):
///
/// * [`CrashModel::strict`] — nothing persists without an explicit
///   flush-and-drain; fully deterministic.
/// * [`CrashModel::relaxed`] — deterministic during the run (no
///   evictions), but each dirty *word* independently persists with
///   probability ½ at the crash itself: place the crash point exactly,
///   still face a lossy power failure.
/// * [`CrashModel::adversarial`] — spontaneous evictions mid-run *and*
///   the word lottery at the crash; the full fuzzing adversary.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CrashModel {
    /// Probability that any individual store immediately writes its line
    /// back to the persistent image (spontaneous eviction).
    pub eviction_probability: f64,
    /// Probability, per *word* of a dirty line, that the word's latest
    /// volatile value has reached the persistent image when a crash is
    /// taken. Flushed-and-drained lines always persist in full.
    pub dirty_word_persist_probability: f64,
    /// Seed for the fault-injection random stream.
    pub seed: u64,
}

impl CrashModel {
    /// A deterministic model in which nothing persists unless explicitly
    /// flushed and drained. Useful for tests that want exact control.
    pub const fn strict() -> Self {
        CrashModel {
            eviction_probability: 0.0,
            dirty_word_persist_probability: 0.0,
            seed: 0,
        }
    }

    /// An adversarial model for crash-consistency fuzzing: stores may leak
    /// to NVM at any time, and dirty words persist with probability ½ at a
    /// crash.
    pub const fn adversarial(seed: u64) -> Self {
        CrashModel {
            eviction_probability: 0.01,
            dirty_word_persist_probability: 0.5,
            seed,
        }
    }

    /// A relaxed model between [`CrashModel::strict`] and
    /// [`CrashModel::adversarial`]: during the run nothing persists without
    /// an explicit flush-and-drain (no spontaneous evictions), but at the
    /// crash itself each dirty *word* independently persists with
    /// probability ½ — the word-granular in-flight loss/leak behaviour of
    /// Section 5.2 without the mid-run eviction noise, so tests can place
    /// the crash point deterministically and still face a lossy power
    /// failure.
    pub const fn relaxed(seed: u64) -> Self {
        CrashModel {
            eviction_probability: 0.0,
            dirty_word_persist_probability: 0.5,
            seed,
        }
    }
}

impl Default for CrashModel {
    fn default() -> Self {
        CrashModel::strict()
    }
}

/// Why an image may not be resolved under a model that evicts: an image
/// reads only the dirty-word lottery, and evictions happen during a run,
/// under the space's own model.
pub(crate) const NO_EVICTING_IMAGE: &str = "a crash image resolves dirty words only: \
     evictions belong to the space's PmemConfig::crash, so resolve the image under \
     CrashModel::relaxed (same seed, same lottery)";

/// A deterministic fault-injection plan, threaded through [`PmemConfig`].
///
/// When armed, every durability-relevant event in the space — a store to a
/// persistent word, a CLWB enqueue, a drain's claim, each per-line
/// write-back, and the drain's completing SFENCE — ticks the space's
/// **fault clock** (see [`crate::MemorySpace::fault_steps`]). If
/// [`FaultPlan::crash_at_step`] is set, the tick whose 1-based index equals
/// it additionally captures a crash image *at that exact point in the
/// pipeline* (resolved under [`FaultPlan::crash_model`], like
/// [`crate::MemorySpace::crash_with`]) into a side buffer the torture
/// driver retrieves with [`crate::MemorySpace::take_fault_image`]. The
/// capture is non-destructive: the run continues to completion, so a
/// single-threaded run is bit-for-bit reproducible for every chosen step.
///
/// The default (disarmed) plan is a single untaken branch on the store and
/// flush paths, so the hot path is unaffected.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct FaultPlan {
    /// Whether durability events tick the fault clock at all. Disarmed
    /// (the default) costs one predictable branch per event.
    pub armed: bool,
    /// 1-based fault-clock step at which to capture a crash image
    /// mid-pipeline. `None` with `armed` counts steps only (the torture
    /// driver's first pass, which learns the run's total step count).
    pub crash_at_step: Option<u64>,
    /// Crash model used to resolve still-dirty words in the captured
    /// image (independent of the model the space itself runs under).
    pub crash_model: CrashModel,
}

impl FaultPlan {
    /// The disarmed plan: durability events are not counted.
    pub const fn inactive() -> Self {
        FaultPlan {
            armed: false,
            crash_at_step: None,
            crash_model: CrashModel::strict(),
        }
    }

    /// Counts durability events without ever capturing an image.
    pub const fn count_only() -> Self {
        FaultPlan {
            armed: true,
            crash_at_step: None,
            crash_model: CrashModel::strict(),
        }
    }

    /// Captures a crash image at fault-clock step `step`, resolving dirty
    /// words under `model`. Panics on step 0: the clock's first tick is 1.
    /// Panics on a model that evicts: the trap resolves its image like
    /// [`crate::MemorySpace::crash_with`], which reads only the dirty-word
    /// lottery; evictions belong to the space's own [`PmemConfig::crash`].
    pub const fn crash_at(step: u64, model: CrashModel) -> Self {
        assert!(step >= 1, "fault-clock steps are 1-based");
        assert!(model.eviction_probability == 0.0, "{}", NO_EVICTING_IMAGE);
        FaultPlan {
            armed: true,
            crash_at_step: Some(step),
            crash_model: model,
        }
    }
}

/// Configuration for a [`crate::MemorySpace`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct PmemConfig {
    /// Number of 64-bit words in the persistent region (survives crashes).
    pub persistent_words: u64,
    /// Number of 64-bit words in the volatile region (zeroed at a crash).
    pub volatile_words: u64,
    /// Maximum number of worker threads that will use the space. Flush
    /// queues and per-thread counters are sized from this.
    pub max_threads: usize,
    /// Capacity (in pending lines) of each per-thread flush-queue ring.
    /// Rounded up to a power of two. A full ring never blocks: additional
    /// flushes complete their write-back immediately (counted in
    /// [`crate::PmemStats::overflow_writebacks`]), which real hardware is
    /// free to do for any CLWB before the fence.
    pub flush_queue_capacity: usize,
    /// Latency charged to drain operations.
    pub latency: LatencyModel,
    /// Eviction and crash-resolution behaviour.
    pub crash: CrashModel,
    /// Fault-injection plan: disarmed by default (zero-cost); armed plans
    /// tick the fault clock at every durability event and may capture a
    /// mid-pipeline crash image (see [`FaultPlan`]).
    pub fault: FaultPlan,
}

impl PmemConfig {
    /// A small space with no emulated latency, suitable for unit tests.
    pub fn small_for_tests() -> Self {
        PmemConfig {
            persistent_words: 1 << 16,
            volatile_words: 1 << 14,
            max_threads: 8,
            flush_queue_capacity: 1 << 10,
            latency: LatencyModel::instant(),
            crash: CrashModel::strict(),
            fault: FaultPlan::inactive(),
        }
    }

    /// The benchmark-sized configuration used by the figure harness
    /// (256 MiB persistent, 32 MiB volatile, 300 ns drains).
    pub fn benchmark() -> Self {
        PmemConfig {
            persistent_words: 1 << 25,
            volatile_words: 1 << 22,
            max_threads: 32,
            flush_queue_capacity: 1 << 12,
            latency: LatencyModel::nvm_300ns(),
            crash: CrashModel::strict(),
            fault: FaultPlan::inactive(),
        }
    }

    /// Sets the latency model (builder style).
    pub fn with_latency(mut self, latency: LatencyModel) -> Self {
        self.latency = latency;
        self
    }

    /// Sets the crash model (builder style).
    pub fn with_crash(mut self, crash: CrashModel) -> Self {
        self.crash = crash;
        self
    }

    /// Sets the maximum number of worker threads (builder style).
    pub fn with_max_threads(mut self, max_threads: usize) -> Self {
        self.max_threads = max_threads;
        self
    }

    /// Sets the per-thread flush-queue ring capacity (builder style).
    pub fn with_flush_queue_capacity(mut self, capacity: usize) -> Self {
        self.flush_queue_capacity = capacity;
        self
    }

    /// Sets the fault-injection plan (builder style).
    pub fn with_fault_plan(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }

    /// Total words in the space (persistent + volatile).
    pub fn total_words(&self) -> u64 {
        self.persistent_words + self.volatile_words
    }
}

impl Default for PmemConfig {
    fn default() -> Self {
        PmemConfig::benchmark()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_presets() {
        assert_eq!(LatencyModel::nvm_300ns().drain_ns, 300);
        assert_eq!(LatencyModel::nvm_100ns().drain_ns, 100);
        assert_eq!(LatencyModel::instant().drain_ns, 0);
        assert_eq!(LatencyModel::instant().clwb_word_ns, 0);
        assert_eq!(LatencyModel::instant().clwb_range_ns, 0);
        assert_eq!(LatencyModel::instant().clwb_line_ns, 0);
        assert_eq!(LatencyModel::default(), LatencyModel::nvm_300ns());
    }

    #[test]
    fn ranged_flush_cost_amortizes_the_base_across_adjacent_lines() {
        let m = LatencyModel::nvm_300ns();
        // One run of 8 adjacent lines pays the base once...
        let coalesced = m.clwb_range(8, 8);
        // ...where 8 single-line flushes of the same traffic pay it 8 times.
        let per_line = 8 * m.clwb_range(1, 1);
        assert_eq!(
            coalesced,
            LatencyModel::NVM_RANGE_NS
                + 8 * LatencyModel::NVM_LINE_NS
                + 8 * LatencyModel::NVM_WORD_NS
        );
        assert_eq!(per_line - coalesced, 7 * LatencyModel::NVM_RANGE_NS);
        // An empty range (all claimed lines already clean) still pays its
        // base and line components — the flush instruction was issued.
        assert_eq!(
            m.clwb_range(1, 0),
            LatencyModel::NVM_RANGE_NS + LatencyModel::NVM_LINE_NS
        );
    }

    #[test]
    fn crash_presets() {
        let strict = CrashModel::strict();
        assert_eq!(strict.eviction_probability, 0.0);
        assert_eq!(strict.dirty_word_persist_probability, 0.0);
        let adv = CrashModel::adversarial(7);
        assert!(adv.eviction_probability > 0.0);
        assert!(adv.dirty_word_persist_probability > 0.0);
        assert_eq!(adv.seed, 7);
        let rel = CrashModel::relaxed(9);
        assert_eq!(rel.eviction_probability, 0.0, "relaxed has no evictions");
        assert!(rel.dirty_word_persist_probability > 0.0);
        assert_eq!(rel.seed, 9);
    }

    #[test]
    fn fault_plans() {
        assert_eq!(PmemConfig::small_for_tests().fault, FaultPlan::inactive());
        assert_eq!(FaultPlan::default(), FaultPlan::inactive());
        assert!(!FaultPlan::inactive().armed);
        let count = FaultPlan::count_only();
        assert!(count.armed);
        assert_eq!(count.crash_at_step, None);
        let trap = FaultPlan::crash_at(42, CrashModel::relaxed(7));
        assert!(trap.armed);
        assert_eq!(trap.crash_at_step, Some(42));
        assert_eq!(trap.crash_model.seed, 7);
        let cfg = PmemConfig::small_for_tests().with_fault_plan(trap);
        assert_eq!(cfg.fault, trap);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn a_trap_at_step_zero_is_refused() {
        FaultPlan::crash_at(0, CrashModel::strict());
    }

    #[test]
    #[should_panic(expected = "dirty words only")]
    fn a_trap_resolved_under_a_model_that_evicts_is_refused() {
        FaultPlan::crash_at(1, CrashModel::adversarial(3));
    }

    #[test]
    fn config_builders_compose() {
        let cfg = PmemConfig::small_for_tests()
            .with_latency(LatencyModel::nvm_100ns())
            .with_crash(CrashModel::adversarial(3))
            .with_max_threads(4);
        assert_eq!(cfg.latency.drain_ns, 100);
        assert_eq!(cfg.crash.seed, 3);
        assert_eq!(cfg.max_threads, 4);
        assert_eq!(cfg.total_words(), (1 << 16) + (1 << 14));
    }
}
