//! The harness behind the `figures` binary: the paper's engine × workload ×
//! thread-count comparisons, measured one way.
//!
//! Every comparison — a figure, a Table 1 cell, a breakdown, the gated
//! bank benchmark, the YCSB mixes — is a list of [`Point`]s from
//! [`run_points`], and every view is derived from that list: the
//! normalized-throughput tables via [`crafty_stats::Figure`], the per-point
//! lines via [`render_points_table`], the one JSON artifact schema via
//! [`render_points_json`], and the perf-regression verdict via [`compare`],
//! which reads the same keys the renderer writes. Each point gets a fresh
//! simulated memory space and a fresh engine, exactly as each point in the
//! paper is a separate process run.
//!
//! The remaining modules are the two drivers that are not engine
//! comparisons: [`kvserve`] (the networked service, open-loop) and
//! [`tracedump`] (event rings as a Chrome trace). The kvserve artifact
//! leaves through the same envelope as the engine artifact, which stamps
//! where the numbers came from (`nproc`, git `revision`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod kvserve;
pub mod tracedump;

pub use cli::{parse, render_help, FlagDef, ParsedArgs, SubcommandSpec};
pub use kvserve::{
    render_kvserve_json, render_kvserve_table, run_kvserve, run_kvserve_point, KvServeConfig,
    KvServeEngine, KvServePoint,
};
pub use tracedump::{run_trace_dump, TraceDumpConfig};

use std::sync::Arc;

use crafty_common::{trace, BreakdownSnapshot, CompletionPath, HwTxnOutcome, TxnPhase};
use crafty_pmem::{LatencyModel, MemorySpace, PmemConfig, PmemStats};
use crafty_stats::{Json, Measurement};
use crafty_workloads::{build_engine, measure, EngineKind, Workload};

/// Serializes tests that flip the process-global trace level, so their
/// assertions about what was (or was not) recorded cannot race.
#[cfg(test)]
pub(crate) static TRACE_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

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
            thread_counts: crafty_stats::PAPER_THREAD_COUNTS.to_vec(),
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

/// One measured (workload, engine, thread count) run — the unit every
/// table, figure, artifact and gate of this crate is derived from.
#[derive(Clone, Debug)]
pub struct Point {
    /// The workload's name as the paper's figures caption it
    /// (`"bank (medium contention)"`, `"YCSB-A (…)"`).
    pub workload: String,
    /// Engine label, thread count, transactions executed and wall time.
    pub measurement: Measurement,
    /// The engine's completion-path and hardware-outcome counters; phase
    /// times too when the run was traced.
    pub breakdown: BreakdownSnapshot,
    /// Persist traffic of the *measured run only* (setup and prefill are
    /// snapshotted away, so `words_persisted / line_words_persisted` is
    /// the steady-state write amplification of the point).
    pub pmem: PmemStats,
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
    let measurement = measure(
        engine.as_ref(),
        mix.as_ref(),
        threads,
        cfg.txns_per_thread,
        cfg.seed,
    );
    Point {
        workload: workload.name(),
        measurement,
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

/// Renders `row` for every point, under one `-- workload --` header per
/// workload — the layout of every per-point listing `figures` prints.
pub fn render_by_workload(points: &[Point], row: impl Fn(&Point) -> String) -> String {
    let mut out = String::new();
    let mut workload = "";
    for p in points {
        if p.workload != workload {
            workload = &p.workload;
            out.push_str(&format!("\n-- {workload} --\n"));
        }
        out.push_str(&row(p));
    }
    out
}

/// Renders one line per point: throughput, hardware aborts, and the
/// persist pipeline's write amplification and drain coalescing.
pub fn render_points_table(points: &[Point]) -> String {
    render_by_workload(points, |p| {
        let aborts = HwTxnOutcome::ALL
            .iter()
            .filter(|&&o| o != HwTxnOutcome::Commit)
            .map(|&o| p.breakdown.hw(o))
            .sum::<u64>();
        format!(
            "{:<20} {:>2} thr {:>12.0} ops/s  {:>8} hw aborts  w-amp {:.3}  \
             {:>7} ranges / {:>7} lines ({:.2}/rng)\n",
            p.measurement.engine,
            p.measurement.threads,
            p.measurement.throughput(),
            aborts,
            p.pmem.write_amplification(),
            p.pmem.flush_ranges,
            p.pmem.lines_persisted,
            p.pmem.lines_per_range(),
        )
    })
}

/// Renders points as the engine artifact — the one schema behind the
/// committed `BENCH_hotpath.json` and every `--json-out` file, and the one
/// [`compare`] reads. `phase_ns` appears only on points that recorded any,
/// i.e. instrumented engines in a traced run.
pub fn render_points_json(cfg: &HarnessConfig, points: &[Point]) -> String {
    fn counts<T: Copy>(all: &[T], label: fn(T) -> &'static str, count: impl Fn(T) -> u64) -> Json {
        all.iter().fold(Json::object(), |o, &x| {
            o.with(label(x), Json::UInt(count(x)))
        })
    }
    let arr = points
        .iter()
        .map(|p| {
            let (m, b, pm) = (&p.measurement, &p.breakdown, &p.pmem);
            let mut o = Json::object()
                .with("workload", Json::from(p.workload.as_str()))
                .with("engine", Json::from(m.engine.as_str()))
                .with("threads", Json::from(m.threads))
                .with("transactions", Json::from(m.transactions))
                .with("ops_per_sec", Json::Float(round2(m.throughput())))
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

/// One workload's line of the perf-regression gate.
#[derive(Clone, PartialEq, Debug)]
pub struct Verdict {
    /// The gated workload.
    pub workload: String,
    /// Crafty/Non-durable throughput ratio in the baseline artifact.
    pub baseline: f64,
    /// The same ratio in the candidate artifact.
    pub candidate: f64,
    /// `baseline × (1 − tolerance)`: the lowest passing candidate ratio.
    pub floor: f64,
    /// Whether the candidate is at or above the floor.
    pub ok: bool,
}

/// The perf-regression gate's decision: for every workload present in the
/// baseline artifact, Crafty's single-thread throughput **normalized to
/// Non-durable in the same artifact** — which cancels host-speed
/// differences between the baseline's machine and the candidate's — must
/// not fall more than `tolerance` below the baseline's ratio.
///
/// # Errors
///
/// Names the artifact and the point when the baseline gates nothing or
/// either side lacks a point the baseline calls for; a candidate that did
/// not measure a gated workload is an error, never a pass.
pub fn compare(baseline: &Json, candidate: &Json, tolerance: f64) -> Result<Vec<Verdict>, String> {
    fn points(doc: &Json) -> &[Json] {
        doc.get("points").map(Json::items).unwrap_or(&[])
    }
    fn ratio(doc: &Json, side: &str, workload: &str) -> Result<f64, String> {
        let ops = |engine: EngineKind| {
            points(doc)
                .iter()
                .find(|p| {
                    p.get("workload").and_then(Json::as_str) == Some(workload)
                        && p.get("engine").and_then(Json::as_str) == Some(engine.label())
                        && p.get("threads").and_then(Json::as_u64) == Some(1)
                })
                .and_then(|p| p.get("ops_per_sec"))
                .and_then(Json::as_f64)
                .filter(|&ops| ops > 0.0)
                .ok_or_else(|| {
                    format!(
                        "{side}: no `{}` point with a throughput at 1 thread for workload \
                         `{workload}`",
                        engine.label()
                    )
                })
        };
        Ok(ops(EngineKind::Crafty)? / ops(EngineKind::NonDurable)?)
    }

    let mut workloads: Vec<&str> = Vec::new();
    for p in points(baseline) {
        if let Some(w) = p.get("workload").and_then(Json::as_str) {
            if !workloads.contains(&w) {
                workloads.push(w);
            }
        }
    }
    if workloads.is_empty() {
        return Err("baseline: no point carries a `workload` — not an engine artifact".to_string());
    }
    workloads
        .into_iter()
        .map(|workload| {
            let base = ratio(baseline, "baseline", workload)?;
            let cand = ratio(candidate, "candidate", workload)?;
            let floor = base * (1.0 - tolerance);
            Ok(Verdict {
                workload: workload.to_string(),
                baseline: base,
                candidate: cand,
                floor,
                ok: cand >= floor,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crafty_common::TraceLevel;
    use crafty_stats::Figure;
    use crafty_workloads::{BankWorkload, Contention, YcsbMix, YcsbWorkload};
    use std::time::Duration;

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
    fn figure_collects_one_point_per_engine_and_thread_count() {
        let points = bank_points(&tiny());
        assert_eq!(points.len(), 4);
        let mut figure = Figure::new(points[0].workload.as_str());
        for p in &points {
            figure.push(p.measurement.clone());
        }
        assert_eq!(figure.engines().len(), 2);
        let series = figure.normalized_series("Crafty", "Non-durable");
        assert_eq!(series.len(), 2);
        assert!(series.iter().all(|&(_, v)| v > 0.0));
    }

    #[test]
    fn breakdowns_and_table1_cells_are_produced() {
        for p in bank_points(&tiny()) {
            let m = &p.measurement;
            assert_eq!(m.transactions, 50 * m.threads as u64);
            assert!(m.throughput() > 0.0);
            // Every transaction is accounted for by a completion path.
            assert_eq!(p.breakdown.total_persistent(), m.transactions);
            if m.engine == "Crafty" {
                let w = p.breakdown.writes_per_txn();
                assert!((w - 10.0).abs() < 0.5, "bank writes/txn ≈ 10, got {w}");
            }
        }
    }

    /// The ablation measures the path it names: the driver re-runs a body
    /// from the seed its Log phase ran from, so at one thread every
    /// Crafty-NoRedo transaction of the gated benchmark commits in its
    /// first Validate — no restart, no software fallback, and exactly the
    /// words Crafty persists for the same transactions.
    #[test]
    fn no_redo_commits_the_hotpath_through_validate() {
        // Thousands of transactions on tid 0: while a trace test has the
        // level at Events they would flush its slices out of the ring.
        let _serial = TRACE_TEST_LOCK.lock().unwrap();
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
        let _serial = TRACE_TEST_LOCK.lock().unwrap();
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
        let cfg = HarnessConfig {
            thread_counts: vec![1],
            txns_per_thread: 40,
            ..tiny()
        };
        let mixes = YcsbMix::ALL.map(YcsbWorkload::paper);
        let workloads: Vec<&dyn Workload> = mixes.iter().map(|w| w as &dyn Workload).collect();
        let points = run_points(&workloads, &KV_ENGINES, &cfg.thread_counts, &cfg);
        assert_eq!(points.len(), YcsbMix::ALL.len() * KV_ENGINES.len());
        assert!(points.iter().all(|p| p.measurement.transactions == 40));
        assert!(points.iter().all(|p| p.measurement.throughput() > 0.0));
        let crafty_on = |mix: YcsbMix| {
            let name = YcsbWorkload::paper(mix).name();
            points
                .iter()
                .find(|p| p.workload == name && p.measurement.engine == "Crafty")
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
        let _serial = TRACE_TEST_LOCK.lock().unwrap();
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
            match p.measurement.engine.as_str() {
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

    /// A hand-built point: `ops` transactions in one second.
    fn point(workload: &str, engine: EngineKind, ops: u64) -> Point {
        Point {
            workload: workload.to_string(),
            measurement: Measurement::throughput_only(
                engine.label(),
                1,
                ops,
                Duration::from_secs(1),
            ),
            breakdown: BreakdownSnapshot::default(),
            pmem: PmemStats::default(),
        }
    }

    fn doc(points: &[Point]) -> Json {
        Json::parse(&render_points_json(&tiny(), points)).expect("artifact parses")
    }

    #[test]
    fn compare_fails_exactly_the_workload_that_regressed() {
        let baseline = [
            point("w1", EngineKind::NonDurable, 1000),
            point("w1", EngineKind::Crafty, 400),
            point("w2", EngineKind::NonDurable, 1000),
            point("w2", EngineKind::Crafty, 800),
        ];
        let same = compare(&doc(&baseline), &doc(&baseline), 0.4).unwrap();
        assert_eq!(same.len(), 2);
        assert!(same.iter().all(|v| v.ok && v.baseline == v.candidate));
        assert!((same[0].floor - 0.24).abs() < 1e-9);

        let mut halved = baseline.clone();
        halved[3] = point("w2", EngineKind::Crafty, 400);
        let verdicts = compare(&doc(&baseline), &doc(&halved), 0.4).unwrap();
        assert!(verdicts[0].ok, "w1 did not move");
        assert!(!verdicts[1].ok, "w2 lost half of a 40% tolerance");
        assert!((verdicts[1].candidate - 0.4).abs() < 1e-9);

        // A candidate that did not measure a gated workload is an error,
        // and the error says which side and which point.
        let err = compare(&doc(&baseline), &doc(&baseline[..2]), 0.4).unwrap_err();
        assert!(err.contains("candidate") && err.contains("w2"), "{err}");
        // So is a baseline that is not an engine artifact at all.
        assert!(compare(&Json::object(), &doc(&baseline), 0.4).is_err());
    }

    #[test]
    fn rendered_artifact_round_trips_through_compare() {
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
        // The gate finds every workload the run produced.
        let verdicts = compare(&doc, &doc, 0.4).expect("self-compare");
        let gated: Vec<&str> = verdicts.iter().map(|v| v.workload.as_str()).collect();
        assert_eq!(gated, [&*points[0].workload, &*points[2].workload]);
        assert!(verdicts.iter().all(|v| v.ok));
    }

    fn committed_baseline() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
        let text = std::fs::read_to_string(path).expect("read BENCH_hotpath.json");
        Json::parse(&text).expect("BENCH_hotpath.json parses")
    }

    /// The schema and the committed baseline cannot drift apart silently:
    /// the gate's own lookup must find Crafty and Non-durable at one
    /// thread in the repository's `BENCH_hotpath.json`.
    #[test]
    fn committed_baseline_is_gateable() {
        let doc = committed_baseline();
        let verdicts = compare(&doc, &doc, 0.4).expect("committed baseline gates itself");
        assert_eq!(verdicts.len(), 1);
        assert_eq!(
            verdicts[0].workload,
            BankWorkload::paper(Contention::Medium, 1).name()
        );
    }

    /// At one thread every engine is deterministic, so a fresh run of the
    /// committed baseline's one-thread points repeats its counts exactly: a
    /// change that moves one must regenerate `BENCH_hotpath.json`. Left out:
    /// NV-HTM's and DudeTM's `words_persisted`, which follows their
    /// background checkpointer's timing (how many words of a line later
    /// transactions have dirtied by the time it writes the line back).
    #[test]
    fn committed_baseline_counts_repeat_at_one_thread() {
        let _serial = TRACE_TEST_LOCK.lock().unwrap();
        let _off = trace::LevelGuard::arm(TraceLevel::Off);
        let committed = committed_baseline();
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
