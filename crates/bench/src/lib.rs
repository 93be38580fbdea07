//! The harness behind the `figures` binary: the paper's engine × workload ×
//! thread-count comparisons, measured one way.
//!
//! Every comparison — a figure, a Table 1 cell, a breakdown, the hotpath
//! bank benchmark, the YCSB mixes — is a list of [`Point`]s from
//! [`run_points`], one record per measured run, and every view is derived
//! from that list: the normalized-throughput tables and their CSV via
//! [`render_figure`], the per-point lines via [`render_points_table`], and
//! the one JSON artifact schema via [`render_points_json`]. Each point
//! gets a fresh simulated memory space and a fresh engine, exactly as each
//! point in the paper is a separate process run. Nothing here gates
//! throughput: the repository benchmark (`benchmark/`) is the one
//! performance yardstick, and a test holds the one-thread hotpath counts
//! to the one committed artifact, `BENCH_hotpath.json`.
//!
//! [`Point`] and the normalization live in [`throughput`], the text
//! views in [`report`]. The remaining modules are the two drivers that are
//! not engine comparisons: [`kvserve`] (the networked service, open-loop) and
//! [`tracedump`] (event rings as a Chrome trace). The kvserve artifact
//! leaves through the same envelope as the engine artifact, which stamps
//! where the numbers came from (`nproc`, git `revision`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod kvserve;
pub mod report;
pub mod throughput;
pub mod tracedump;

pub use cli::{parse, render_help, FlagDef, ParsedArgs, SubcommandSpec};
pub use kvserve::{
    render_kvserve_json, render_kvserve_table, run_kvserve, run_kvserve_point, KvServeConfig,
    KvServeEngine, KvServePoint,
};
pub use report::{render_by_workload, render_figure, render_points_table};
pub use throughput::Point;
pub use tracedump::{run_trace_dump, TraceDumpConfig};

use std::sync::Arc;

use crafty_common::{trace, CompletionPath, HwTxnOutcome, TxnPhase};
use crafty_pmem::{LatencyModel, MemorySpace, PmemConfig};
use crafty_stats::Json;
use crafty_workloads::{build_engine, run_mix, EngineKind, Workload};

/// Serializes tests that flip the process-global trace level, so their
/// assertions about what was (or was not) recorded cannot race, and every
/// other test that runs an engine: while a trace test has the level at
/// Events, its transactions would land in the trace test's rings.
///
/// A test that fails while holding the lock poisons it; the guard is
/// recovered rather than failing every later test too. That is safe: the
/// lock guards `()`, and `trace::LevelGuard` restores the trace level
/// while the failing test unwinds.
#[cfg(test)]
pub(crate) fn trace_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Rounds to two decimals for the JSON artifacts (stable, diff-friendly
/// files).
pub(crate) fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// Rounds to four decimals (write-amplification ratios live well below 1,
/// where two decimals would lose most of the signal).
pub(crate) fn round4(x: f64) -> f64 {
    (x * 10_000.0).round() / 10_000.0
}

/// The short git revision of the work tree this crate was built from —
/// with `-dirty` appended when the tree differs from it, so an artifact
/// regenerated before its commit cannot pass for a measurement of the
/// parent — or `"unknown"` outside a work tree (a tarball checkout must not
/// report whatever repository happens to enclose it).
fn revision() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let git = |args: &[&str]| {
        let run = || {
            std::process::Command::new("git")
                .args(args)
                .current_dir(&root)
                .output()
                .ok()
        };
        root.join(".git")
            .exists()
            .then(run)
            .flatten()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    revision_stamp(
        git(&["rev-parse", "--short", "HEAD"]),
        git(&["status", "--porcelain"]),
    )
}

/// `head`, marked `-dirty` unless `status` (the porcelain listing) is known
/// to be empty.
fn revision_stamp(head: Option<String>, status: Option<String>) -> String {
    match head {
        None => "unknown".to_string(),
        Some(head) if status.as_deref() == Some("") => head,
        Some(head) => format!("{head}-dirty"),
    }
}

/// The envelope every JSON artifact of this crate leaves through:
/// `{benchmark, config, points}`, with the facts any number from a shared
/// sandbox has to be read with stamped into the config block — `nproc`
/// (multi-thread points on fewer CPUs than threads measure the scheduler)
/// and the git `revision` (an artifact that does not say which code it
/// measured goes stale unnoticed).
pub(crate) fn artifact(benchmark: &str, config: Json, points: Vec<Json>) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::object()
        .with("benchmark", Json::from(benchmark))
        .with(
            "config",
            config
                .with("nproc", Json::from(nproc))
                .with("revision", Json::from(revision().as_str())),
        )
        .with("points", Json::Array(points))
        .render_pretty()
}

/// Engines the KV comparison runs (legend order): the paper's headline
/// four.
pub const KV_ENGINES: [EngineKind; 4] = [
    EngineKind::NonDurable,
    EngineKind::DudeTm,
    EngineKind::NvHtm,
    EngineKind::Crafty,
];

/// The thread counts every figure in the paper sweeps.
const PAPER_THREAD_COUNTS: [usize; 7] = [1, 2, 4, 8, 12, 15, 16];

/// Parameters shared by every point of one `figures` invocation.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Thread counts to sweep.
    pub thread_counts: Vec<usize>,
    /// Persistent transactions per thread at each point.
    pub txns_per_thread: u64,
    /// Emulated NVM latency (300 ns main figures, 100 ns appendix).
    pub latency: LatencyModel,
    /// Simulated persistent region size in words.
    pub persistent_words: u64,
    /// Workload seed (kept fixed across engines so they see the same keys).
    pub seed: u64,
}

impl HarnessConfig {
    /// A configuration small enough for CI: three thread counts, a few
    /// thousand transactions.
    pub fn quick() -> Self {
        HarnessConfig {
            thread_counts: vec![1, 2, 4],
            txns_per_thread: 2_000,
            latency: LatencyModel::nvm_300ns(),
            persistent_words: 1 << 22,
            seed: 42,
        }
    }

    /// The paper-scale configuration: thread counts 1–16 and a larger
    /// transaction budget. Expect minutes per figure.
    pub fn paper() -> Self {
        HarnessConfig {
            thread_counts: PAPER_THREAD_COUNTS.to_vec(),
            txns_per_thread: 20_000,
            latency: LatencyModel::nvm_300ns(),
            persistent_words: 1 << 24,
            seed: 42,
        }
    }

    pub(crate) fn pmem_config(&self, max_threads: usize) -> PmemConfig {
        PmemConfig {
            persistent_words: self.persistent_words,
            volatile_words: 1 << 20,
            max_threads: max_threads + 2, // workers + checkpointer + slack
            latency: self.latency,
            crash: crafty_pmem::CrashModel::strict(),
            ..PmemConfig::benchmark()
        }
    }
}

/// Runs one (workload, engine, thread count) point on a fresh memory space
/// and a fresh engine.
pub fn run_point(
    workload: &dyn Workload,
    kind: EngineKind,
    threads: usize,
    cfg: &HarnessConfig,
) -> Point {
    let mem = Arc::new(MemorySpace::new(cfg.pmem_config(threads)));
    let engine = build_engine(kind, &mem, threads);
    let mix = workload.prepare(&mem);
    let before = mem.stats();
    let elapsed = run_mix(
        engine.as_ref(),
        mix.as_ref(),
        threads,
        cfg.txns_per_thread,
        cfg.seed,
    );
    Point {
        workload: workload.name(),
        engine: engine.name().to_string(),
        threads,
        transactions: threads as u64 * cfg.txns_per_thread,
        elapsed,
        breakdown: engine.breakdown(),
        pmem: mem.stats().since(&before),
    }
}

/// Runs every workload on every engine at every thread count, in that
/// nesting order (the order the tables and artifacts list them in).
pub fn run_points(
    workloads: &[&dyn Workload],
    engines: &[EngineKind],
    threads: &[usize],
    cfg: &HarnessConfig,
) -> Vec<Point> {
    let mut points = Vec::with_capacity(workloads.len() * engines.len() * threads.len());
    for &workload in workloads {
        for &kind in engines {
            for &t in threads {
                points.push(run_point(workload, kind, t, cfg));
            }
        }
    }
    points
}

/// Renders points as the engine artifact — the one schema behind the
/// committed `BENCH_hotpath.json` and every `--json-out` file. `phase_ns`
/// appears only on points that recorded any, i.e. instrumented engines in
/// a traced run.
pub fn render_points_json(cfg: &HarnessConfig, points: &[Point]) -> String {
    fn counts<T: Copy>(all: &[T], label: fn(T) -> &'static str, count: impl Fn(T) -> u64) -> Json {
        all.iter().fold(Json::object(), |o, &x| {
            o.with(label(x), Json::UInt(count(x)))
        })
    }
    let arr = points
        .iter()
        .map(|p| {
            let (b, pm) = (&p.breakdown, &p.pmem);
            let mut o = Json::object()
                .with("workload", Json::from(p.workload.as_str()))
                .with("engine", Json::from(p.engine.as_str()))
                .with("threads", Json::from(p.threads))
                .with("transactions", Json::from(p.transactions))
                .with("ops_per_sec", Json::Float(round2(p.throughput())))
                .with("writes_per_txn", Json::Float(round2(b.writes_per_txn())))
                .with("words_persisted", Json::UInt(pm.words_persisted))
                .with(
                    "write_amplification",
                    Json::Float(round4(pm.write_amplification())),
                )
                .with("lines_persisted", Json::UInt(pm.lines_persisted))
                .with("flush_ranges", Json::UInt(pm.flush_ranges))
                .with("lines_per_range", Json::Float(round4(pm.lines_per_range())))
                .with(
                    "completions",
                    counts(&CompletionPath::ALL, CompletionPath::label, |x| {
                        b.completions(x)
                    }),
                )
                .with(
                    "hw_outcomes",
                    counts(&HwTxnOutcome::ALL, HwTxnOutcome::label, |x| b.hw(x)),
                );
            if b.total_phase_cycles() > 0 {
                o.set(
                    "phase_ns",
                    counts(&TxnPhase::ALL, TxnPhase::label, |x| b.phase_cycles(x)),
                );
            }
            o
        })
        .collect();
    artifact(
        "engine x workload x threads",
        Json::object()
            .with("txns_per_thread", Json::from(cfg.txns_per_thread))
            .with("drain_latency_ns", Json::from(cfg.latency.drain_ns))
            .with("seed", Json::from(cfg.seed))
            .with("trace_level", Json::from(trace::level().label())),
        arr,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::throughput::{baseline, engines};
    use crafty_common::TraceLevel;
    use crafty_workloads::{BankWorkload, Contention, YcsbMix, YcsbWorkload};

    #[test]
    fn revision_is_marked_dirty_unless_the_tree_is_known_clean() {
        let head = || Some("1395212".to_string());
        let stamp = |status: Option<&str>| revision_stamp(head(), status.map(str::to_string));
        assert_eq!(stamp(Some("")), "1395212");
        assert_eq!(stamp(Some(" M README.md")), "1395212-dirty");
        assert_eq!(stamp(Some("?? BENCH_new.json")), "1395212-dirty");
        assert_eq!(stamp(None), "1395212-dirty", "status unknown: do not vouch");
        assert_eq!(revision_stamp(None, Some(String::new())), "unknown");
    }

    fn tiny() -> HarnessConfig {
        HarnessConfig {
            thread_counts: vec![1, 2],
            txns_per_thread: 50,
            latency: LatencyModel::instant(),
            persistent_words: 1 << 21,
            seed: 1,
        }
    }

    fn bank_points(cfg: &HarnessConfig) -> Vec<Point> {
        run_points(
            &[&BankWorkload::paper(Contention::Medium, 2)],
            &[EngineKind::NonDurable, EngineKind::Crafty],
            &cfg.thread_counts,
            cfg,
        )
    }

    #[test]
    fn paper_thread_counts_match_figures() {
        assert_eq!(
            HarnessConfig::paper().thread_counts,
            [1, 2, 4, 8, 12, 15, 16]
        );
    }

    #[test]
    fn figure_collects_one_point_per_engine_and_thread_count() {
        let _serial = trace_test_lock();
        let points = bank_points(&tiny());
        assert_eq!(points.len(), 4);
        assert_eq!(engines(&points), ["Non-durable", "Crafty"]);
        let base = baseline(&points);
        let crafty: Vec<(usize, f64)> = points
            .iter()
            .filter(|p| p.engine == "Crafty")
            .map(|p| (p.threads, p.throughput() / base))
            .collect();
        assert_eq!(crafty.iter().map(|&(t, _)| t).collect::<Vec<_>>(), [1, 2]);
        assert!(crafty.iter().all(|&(_, v)| v > 0.0));
    }

    #[test]
    fn breakdowns_and_table1_cells_are_produced() {
        let _serial = trace_test_lock();
        for p in bank_points(&tiny()) {
            assert_eq!(p.transactions, 50 * p.threads as u64);
            assert!(p.throughput() > 0.0);
            // Every transaction is accounted for by a completion path.
            assert_eq!(p.breakdown.total_persistent(), p.transactions);
            if p.engine == "Crafty" {
                let w = p.breakdown.writes_per_txn();
                assert!((w - 10.0).abs() < 0.5, "bank writes/txn ≈ 10, got {w}");
            }
        }
    }

    /// The ablation measures the path it names: the driver re-runs a body
    /// from the seed its Log phase ran from, so at one thread every
    /// Crafty-NoRedo transaction of the hotpath benchmark commits in its
    /// first Validate — no restart, no software fallback, and exactly the
    /// words Crafty persists for the same transactions.
    #[test]
    fn no_redo_commits_the_hotpath_through_validate() {
        // Thousands of transactions on tid 0: while a trace test has the
        // level at Events they would flush its slices out of the ring.
        let _serial = trace_test_lock();
        let cfg = HarnessConfig {
            txns_per_thread: 2_000,
            ..tiny()
        };
        let points = run_points(
            &[&BankWorkload::paper(Contention::Medium, 1)],
            &[EngineKind::Crafty, EngineKind::CraftyNoRedo],
            &[1],
            &cfg,
        );
        let (crafty, no_redo) = (&points[0], &points[1]);
        let b = &no_redo.breakdown;
        assert_eq!(b.completions(CompletionPath::Validate), 2_000);
        assert_eq!(b.completions(CompletionPath::Sgl), 0);
        assert_eq!(b.hw(HwTxnOutcome::Explicit), 0);
        assert_eq!(no_redo.pmem.words_persisted, crafty.pmem.words_persisted);
    }

    /// Validate is safe against a body that is *not* re-executable: one
    /// that draws from a stream shared by all its runs makes new picks
    /// each time, so no Validate ever matches its Log phase's undo entries,
    /// every phase restarts until the budget is spent, and the transaction
    /// commits in software — with the money conserved.
    #[test]
    fn a_body_that_does_not_repeat_ends_in_software_and_stays_correct() {
        let _serial = trace_test_lock();
        let mem = Arc::new(MemorySpace::new(tiny().pmem_config(1)));
        let engine = build_engine(EngineKind::CraftyNoRedo, &mem, 1);
        let mix = BankWorkload::paper(Contention::Medium, 1).prepare(&mem);
        let mut shared = crafty_common::SplitMix64::new(7);
        let mut thread = engine.register_thread(0);
        for i in 0..200 {
            thread.execute(&mut |ops| mix.run_txn(0, i, &mut shared, ops));
        }
        drop(thread);
        let b = engine.breakdown();
        assert_eq!(b.completions(CompletionPath::Sgl), 200);
        assert_eq!(b.completions(CompletionPath::Validate), 0);
        mix.verify(&mem).expect("conservation");
    }

    #[test]
    fn kv_points_cover_all_mixes_and_engines() {
        let _serial = trace_test_lock();
        let cfg = HarnessConfig {
            thread_counts: vec![1],
            txns_per_thread: 40,
            ..tiny()
        };
        let mixes = YcsbMix::ALL.map(YcsbWorkload::paper);
        let workloads: Vec<&dyn Workload> = mixes.iter().map(|w| w as &dyn Workload).collect();
        let points = run_points(&workloads, &KV_ENGINES, &cfg.thread_counts, &cfg);
        assert_eq!(points.len(), YcsbMix::ALL.len() * KV_ENGINES.len());
        assert!(points.iter().all(|p| p.transactions == 40));
        assert!(points.iter().all(|p| p.throughput() > 0.0));
        let crafty_on = |mix: YcsbMix| {
            let name = YcsbWorkload::paper(mix).name();
            points
                .iter()
                .find(|p| p.workload == name && p.engine == "Crafty")
                .unwrap_or_else(|| panic!("no Crafty point on {name}"))
        };
        // The headline claim of the word-granular pipeline: KV updates
        // touch a couple of words per 8-word line, so Crafty's persist
        // traffic on the write-heavy mix stays well under whole-line cost.
        let a = crafty_on(YcsbMix::A);
        assert!(a.pmem.words_persisted > 0);
        assert!(
            a.pmem.write_amplification() < 0.5,
            "YCSB-A write amplification {} should be below 0.5",
            a.pmem.write_amplification()
        );
    }

    #[test]
    fn breakdown_matrix_covers_both_mixes_on_all_four_engines() {
        let _serial = trace_test_lock();
        let cfg = HarnessConfig {
            txns_per_thread: 60,
            seed: 7,
            ..tiny()
        };
        let (points, json) = {
            let _counters = trace::LevelGuard::arm(TraceLevel::Counters);
            let points = run_points(
                &[
                    &BankWorkload::paper(Contention::Medium, 2),
                    &YcsbWorkload::paper(YcsbMix::A),
                ],
                &KV_ENGINES,
                &[2],
                &cfg,
            );
            let json = render_points_json(&cfg, &points);
            (points, json)
        };
        assert_eq!(points.len(), 2 * KV_ENGINES.len());

        let doc = Json::parse(&json).expect("artifact parses");
        let config = doc.get("config").expect("config block");
        assert_eq!(
            config.get("trace_level").and_then(Json::as_str),
            Some("counters")
        );
        for (p, rendered) in points.iter().zip(doc.get("points").unwrap().items()) {
            // Aborts are told apart by hardware outcome alone, rendered
            // whole on every point.
            assert!(rendered.get("abort_causes").is_none());
            let outcomes = rendered.get("hw_outcomes").expect("hw_outcomes");
            assert_eq!(
                outcomes.get("zero").and_then(Json::as_u64),
                Some(p.breakdown.hw(HwTxnOutcome::Zero))
            );
            match p.engine.as_str() {
                // Crafty is fully instrumented: it always runs the Log phase.
                "Crafty" => {
                    assert!(
                        p.breakdown.phase_cycles(TxnPhase::Log) > 0,
                        "{}",
                        p.workload
                    );
                    let phases = rendered.get("phase_ns").expect("traced Crafty phase_ns");
                    assert!(phases.get("log").and_then(Json::as_u64) > Some(0));
                }
                // Non-durable has no persistent phases to trace.
                "Non-durable" => {
                    assert_eq!(p.breakdown.total_phase_cycles(), 0);
                    assert!(rendered.get("phase_ns").is_none());
                }
                _ => {}
            }
        }
    }

    #[test]
    fn rendered_artifact_round_trips_through_the_parser() {
        let _serial = trace_test_lock();
        let cfg = HarnessConfig {
            thread_counts: vec![1],
            ..tiny()
        };
        let points = run_points(
            &[
                &BankWorkload::paper(Contention::Medium, 1),
                &YcsbWorkload::paper(YcsbMix::A),
            ],
            &[EngineKind::NonDurable, EngineKind::Crafty],
            &cfg.thread_counts,
            &cfg,
        );
        let json = render_points_json(&cfg, &points);
        let doc = Json::parse(&json).expect("artifact parses");
        let config = doc.get("config").expect("config block");
        for key in ["txns_per_thread", "drain_latency_ns", "seed", "nproc"] {
            assert!(config.get(key).and_then(Json::as_u64).is_some(), "{key}");
        }
        assert!(config.get("revision").and_then(Json::as_str).is_some());
        let rendered = doc.get("points").expect("points").items();
        assert_eq!(rendered.len(), points.len());
        for (p, r) in points.iter().zip(rendered) {
            assert_eq!(r.get("workload").and_then(Json::as_str), Some(&*p.workload));
            let completions = r.get("completions").expect("completions");
            let accounted: u64 = CompletionPath::ALL
                .iter()
                .filter_map(|c| completions.get(c.label()).and_then(Json::as_u64))
                .sum();
            assert_eq!(
                Some(accounted),
                r.get("transactions").and_then(Json::as_u64)
            );
            assert!(r
                .get("hw_outcomes")
                .and_then(|h| h.get("conflict"))
                .is_some());
            assert!(r.get("ops_per_sec").and_then(Json::as_f64) > Some(0.0));
            assert!(r.get("writes_per_txn").and_then(Json::as_f64).is_some());
        }
    }

    /// At one thread every engine is deterministic, so a fresh run of the
    /// committed baseline's one-thread points repeats its counts exactly: a
    /// change that moves one must regenerate `BENCH_hotpath.json`. Left out:
    /// NV-HTM's and DudeTM's `words_persisted`, which follows their
    /// background checkpointer's timing (how many words of a line later
    /// transactions have dirtied by the time it writes the line back).
    #[test]
    fn committed_baseline_counts_repeat_at_one_thread() {
        let _serial = trace_test_lock();
        let _off = trace::LevelGuard::arm(TraceLevel::Off);
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
        let text = std::fs::read_to_string(path).expect("read BENCH_hotpath.json");
        let committed = Json::parse(&text).expect("BENCH_hotpath.json parses");
        let cfg = HarnessConfig {
            thread_counts: vec![1],
            ..HarnessConfig::quick()
        };
        let config = committed.get("config").expect("config block");
        for (key, value) in [("txns_per_thread", cfg.txns_per_thread), ("seed", cfg.seed)] {
            assert_eq!(config.get(key).and_then(Json::as_u64), Some(value), "{key}");
        }
        let points = run_points(
            &[&BankWorkload::paper(Contention::Medium, 1)],
            &EngineKind::ALL,
            &[1],
            &cfg,
        );
        let fresh = Json::parse(&render_points_json(&cfg, &points)).expect("artifact parses");
        for point in fresh.get("points").expect("points").items() {
            let engine = point.get("engine").and_then(Json::as_str).expect("engine");
            let baseline = committed
                .get("points")
                .map(Json::items)
                .unwrap_or(&[])
                .iter()
                .find(|p| {
                    p.get("engine").and_then(Json::as_str) == Some(engine)
                        && p.get("threads").and_then(Json::as_u64) == Some(1)
                })
                .unwrap_or_else(|| panic!("no one-thread {engine} point in the baseline"));
            let mut keys = vec![
                "completions",
                "hw_outcomes",
                "writes_per_txn",
                "lines_persisted",
                "flush_ranges",
            ];
            if ![EngineKind::NvHtm, EngineKind::DudeTm]
                .iter()
                .any(|k| k.label() == engine)
            {
                keys.push("words_persisted");
            }
            for key in keys {
                assert_eq!(point.get(key), baseline.get(key), "{engine}: {key}");
            }
        }
    }
}
