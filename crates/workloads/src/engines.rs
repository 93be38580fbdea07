//! Constructors for every engine configuration the paper evaluates.
//!
//! The figure harness and the repository benchmark build engines by
//! [`EngineKind`] so that a benchmark run is fully described by (workload,
//! engine, threads, latency model).

use std::sync::Arc;

use crafty_baselines::{CowConfig, DudeTm, NonDurable, NvHtm};
use crafty_common::PersistentTm;
use crafty_core::{Crafty, CraftyConfig, CraftyVariant};
use crafty_pmem::MemorySpace;

/// The engine configurations evaluated in the paper's figures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EngineKind {
    /// The non-durable HTM baseline (normalization reference).
    NonDurable,
    /// DudeTM (shadow paging + in-HTM global counter).
    DudeTm,
    /// NV-HTM (shadow paging + commit-time wait + background persist).
    NvHtm,
    /// Full Crafty (Log → Redo → Validate → software commit).
    Crafty,
    /// Crafty without the Validate phase.
    CraftyNoValidate,
    /// Crafty without the Redo phase.
    CraftyNoRedo,
}

impl EngineKind {
    /// The six configurations of every figure, in legend order.
    pub const ALL: [EngineKind; 6] = [
        EngineKind::NonDurable,
        EngineKind::DudeTm,
        EngineKind::NvHtm,
        EngineKind::Crafty,
        EngineKind::CraftyNoValidate,
        EngineKind::CraftyNoRedo,
    ];

    /// The legend label.
    pub fn label(self) -> &'static str {
        match self {
            EngineKind::NonDurable => "Non-durable",
            EngineKind::DudeTm => "DudeTM",
            EngineKind::NvHtm => "NV-HTM",
            EngineKind::Crafty => "Crafty",
            EngineKind::CraftyNoValidate => "Crafty-NoValidate",
            EngineKind::CraftyNoRedo => "Crafty-NoRedo",
        }
    }
}

/// Builds an engine of the given kind over `mem`, sized for `max_threads`
/// worker threads.
pub fn build_engine(
    kind: EngineKind,
    mem: &Arc<MemorySpace>,
    max_threads: usize,
) -> Box<dyn PersistentTm> {
    // Size the engine's heap and logs proportionally to the space it runs
    // in, so the same constructor works for unit-test-sized and
    // benchmark-sized spaces.
    let heap_words = (mem.persistent_words() / 4).min(1 << 21);
    let per_thread_log_words =
        (mem.persistent_words() / (4 * max_threads as u64)).clamp(64, 1 << 16);
    let cow_cfg = CowConfig {
        max_threads,
        heap_words,
        redo_log_words: per_thread_log_words,
    };
    match kind {
        EngineKind::NonDurable => Box::new(NonDurable::new(Arc::clone(mem), heap_words)),
        EngineKind::NvHtm => Box::new(NvHtm::new(Arc::clone(mem), cow_cfg)),
        EngineKind::DudeTm => Box::new(DudeTm::new(Arc::clone(mem), cow_cfg)),
        EngineKind::Crafty | EngineKind::CraftyNoValidate | EngineKind::CraftyNoRedo => {
            let variant = match kind {
                EngineKind::CraftyNoValidate => CraftyVariant::NoValidate,
                EngineKind::CraftyNoRedo => CraftyVariant::NoRedo,
                _ => CraftyVariant::Full,
            };
            let cfg = CraftyConfig::benchmark(max_threads)
                .with_variant(variant)
                .with_heap_words(heap_words)
                .with_undo_log_entries(per_thread_log_words / 2)
                .with_max_threads(max_threads);
            Box::new(Crafty::new(Arc::clone(mem), cfg))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crafty_pmem::PmemConfig;

    #[test]
    fn every_kind_builds_and_reports_its_legend_name() {
        for kind in EngineKind::ALL {
            let mem = Arc::new(MemorySpace::new(
                PmemConfig::small_for_tests().with_max_threads(8),
            ));
            let engine = build_engine(kind, &mem, 2);
            assert_eq!(engine.name(), kind.label());
            // Each engine must be able to run a trivial transaction.
            let cell = mem.reserve_persistent(1);
            let mut t = engine.register_thread(0);
            t.execute(&mut |ops| {
                let v = ops.read(cell)?;
                ops.write(cell, v + 1)?;
                Ok(())
            });
            engine.quiesce();
            assert_eq!(mem.read(cell), 1, "{}", kind.label());
        }
    }

    #[test]
    fn durability_flags_match_expectations() {
        let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
        assert!(!build_engine(EngineKind::NonDurable, &mem, 1).is_durable());
        assert!(build_engine(EngineKind::Crafty, &mem, 1).is_durable());
    }
}
