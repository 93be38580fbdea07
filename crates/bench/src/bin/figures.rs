//! Regenerates the paper's engine × workload × thread-count comparisons,
//! and hosts the drivers that share its flag parser.
//!
//! ```text
//! figures [targets...] [--paper] [--latency-100] [--threads a,b,c] [--txns N]
//!         [--trace off|counters|events] [--csv DIR] [--json-out PATH]
//!
//! targets: fig6 fig7 fig8 table1 breakdowns hotpath kv all
//!          (default: fig6 fig7 table1)
//!
//! figures torture [--suite bank|heap|kv|recovery|service|all] [--seed N]
//!                 [--txns N] [--steps N] [--crash-step N]
//! figures kvserve [--rates a,b,c] [--ops N] [--engines e,e] [--connections N]
//!                 [--workers N] [--records N] [--read-pct N] [--fixed] [--seed N]
//!                 [--drain-ns N] [--json-out PATH]
//! figures trace   [--out trace.json] [--threads N] [--txns N]
//! figures --help
//! ```
//!
//! Every subcommand's flags are declared once in [`SPECS`] and parsed by
//! the shared [`crafty_bench::cli`] helper; `--help` renders from the same
//! table, so usage text and parser cannot drift apart.
//!
//! **The comparisons.** Every target of the default command is a list of
//! [`Point`]s from [`run_points`], shown one way or another. `fig6`–`fig8`
//! print the table of normalized throughputs behind the paper's plots (one
//! row per thread count, one column per engine, normalized to single-thread
//! Non-durable; `--csv DIR` also writes one CSV per figure), and under
//! `--latency-100` — the appendix's 100 ns drain latency — they are the
//! appendix's Figures 22–24; `table1` prints Crafty's writes per
//! transaction next to the paper's;
//! `breakdowns` prints the completion-path and hardware-outcome counts of
//! Figures 9–21; `hotpath` (the medium-contention bank benchmark, all six
//! engines) and `kv` (the YCSB mixes A/B/C/E over `crafty-kv`, four
//! engines) print one line per point with
//! throughput, write amplification and drain coalescing. `--json-out PATH`
//! writes every point the invocation measured under its own config —
//! whatever the targets — as one engine artifact
//! ([`render_points_json`]), whose config block names the drain latency
//! the points ran under. `--paper` uses the full thread sweep (1–16) and a
//! larger budget; `--trace LEVEL` arms the tracer for the whole
//! invocation. Under `--trace counters` every instrumented
//! engine's points also carry per-phase times, on screen (`breakdowns`)
//! and as `phase_ns` in the artifact, beside the completion paths and
//! hardware outcomes every point carries.
//!
//! The one committed artifact, `BENCH_hotpath.json`, is `hotpath
//! --json-out BENCH_hotpath.json`: a crafty-bench test pins its one-thread
//! counts exactly, and nothing gates its throughput.
//!
//! **The drivers.** `kvserve` boots the networked KV front-end on loopback
//! and drives it open-loop, reporting p50/p99/p999 from intended send
//! times per engine per rate — and `saturated` instead wherever the server
//! fell behind the schedule ([`crafty_bench::kvserve`]); it writes a local
//! `BENCH_kvserve.json` (`--json-out` overrides the path). `trace` dumps
//! one run's event rings as chrome://tracing JSON
//! ([`crafty_bench::tracedump`]).
//!
//! `torture` drives the deterministic fault-injection harness
//! (`crafty-torture`): it enumerates crash points over the suites'
//! workloads (exhaustively with `--steps 0`, the default; via seeded
//! stratified sampling with `--steps N`), audits every crash image
//! (recovery, its writes, idempotence, prefix-of-commit-order state), and
//! exits non-zero when any invariant is violated. Every reported failure
//! carries a `(seed, step)` pair; replay it exactly with
//! `figures -- torture --suite S --seed SEED --crash-step STEP` (a step no
//! run replays exits 1). The bank suite reports one `bank/<route>` line per
//! commit route (`crafty_torture::bank::ROUTES`), boots each recovered
//! image into a second life, and self-tests the auditor by injecting a
//! violation and requiring it to be caught.

use std::collections::BTreeSet;

use crafty_bench::{
    cli, render_by_workload, render_figure, render_kvserve_json, render_kvserve_table,
    render_points_json, render_points_table, run_kvserve_point, run_point, run_points,
    run_trace_dump, FlagDef, HarnessConfig, KvServeConfig, KvServeEngine, ParsedArgs, Point,
    SubcommandSpec, TraceDumpConfig, KV_ENGINES,
};
use crafty_common::trace::{self, TraceLevel};
use crafty_pmem::LatencyModel;
use crafty_stats::render_breakdown;
use crafty_workloads::{
    ArrivalProcess, BankWorkload, BtreeVariant, BtreeWorkload, Contention, EngineKind, StampKernel,
    StampWorkload, Workload, YcsbMix, YcsbWorkload,
};

/// Every target of the default command; `all` expands to this list.
const TARGETS: [&str; 7] = [
    "fig6",
    "fig7",
    "fig8",
    "table1",
    "breakdowns",
    "hotpath",
    "kv",
];

/// Every subcommand's flags, declared once: the parser validates against
/// this table and `--help` renders from it.
const SPECS: &[SubcommandSpec] = &[
    SubcommandSpec {
        name: "",
        positional: Some("targets..."),
        summary: "engine x workload x threads comparisons (fig6 fig7 fig8 table1 \
                  breakdowns hotpath kv all; default: fig6 fig7 table1)",
        flags: &[
            FlagDef {
                name: "--trace",
                value: Some("LEVEL"),
                help: "trace level for the figure runs: off | counters | events (default off)",
            },
            FlagDef {
                name: "--paper",
                value: None,
                help: "paper scale: threads 1-16, larger transaction budget",
            },
            FlagDef {
                name: "--latency-100",
                value: None,
                help: "use the appendix's 100 ns drain latency model (fig6-8 = Figures 22-24)",
            },
            FlagDef {
                name: "--threads",
                value: Some("a,b,c"),
                help: "thread counts to sweep",
            },
            FlagDef {
                name: "--txns",
                value: Some("N"),
                help: "transactions per thread per point",
            },
            FlagDef {
                name: "--csv",
                value: Some("DIR"),
                help: "also write one CSV per figure into DIR",
            },
            FlagDef {
                name: "--json-out",
                value: Some("PATH"),
                help: "write every point measured as one engine artifact",
            },
        ],
    },
    SubcommandSpec {
        name: "torture",
        positional: None,
        summary: "deterministic fault-injection harness with crash-point enumeration",
        flags: &[
            FlagDef {
                name: "--suite",
                value: Some("NAME"),
                help: "bank | heap | kv | recovery | service | all (default all)",
            },
            FlagDef {
                name: "--seed",
                value: Some("N"),
                help: "workload + crash-model seed",
            },
            FlagDef {
                name: "--txns",
                value: Some("N"),
                help: "transactions per torture workload",
            },
            FlagDef {
                name: "--steps",
                value: Some("N"),
                help: "crash points to sample (0 = exhaustive, the default)",
            },
            FlagDef {
                name: "--crash-step",
                value: Some("N"),
                help: "pin the crash to one step, 1-based (replaying a reported failure)",
            },
        ],
    },
    SubcommandSpec {
        name: "kvserve",
        positional: None,
        summary: "open-loop latency sweep of the networked KV service front-end",
        flags: &[
            FlagDef {
                name: "--rates",
                value: Some("a,b,c"),
                help: "offered arrival rates, ops/s (default 20000,40000,80000)",
            },
            FlagDef {
                name: "--ops",
                value: Some("N"),
                help: "operations per (engine, rate) point (default 12000)",
            },
            FlagDef {
                name: "--engines",
                value: Some("e,e"),
                help: "non-durable | crafty | crafty-gc (default all three)",
            },
            FlagDef {
                name: "--connections",
                value: Some("N"),
                help: "client connections (default 2)",
            },
            FlagDef {
                name: "--workers",
                value: Some("N"),
                help: "server accept-and-serve threads (default 2)",
            },
            FlagDef {
                name: "--records",
                value: Some("N"),
                help: "prefilled record population (default 4000)",
            },
            FlagDef {
                name: "--read-pct",
                value: Some("N"),
                help: "percentage of reads in the mix (default 50)",
            },
            FlagDef {
                name: "--fixed",
                value: None,
                help: "fixed-rate arrivals instead of Poisson",
            },
            FlagDef {
                name: "--seed",
                value: Some("N"),
                help: "schedule and key-mix seed",
            },
            FlagDef {
                name: "--drain-ns",
                value: Some("N"),
                help: "drain (fence) cost in ns (default 50000)",
            },
            FlagDef {
                name: "--json-out",
                value: Some("PATH"),
                help: "artifact path (default BENCH_kvserve.json)",
            },
        ],
    },
    SubcommandSpec {
        name: "trace",
        positional: None,
        summary: "dump a traced run's event rings as chrome://tracing JSON",
        flags: &[
            FlagDef {
                name: "--out",
                value: Some("PATH"),
                help: "output path (default trace.json)",
            },
            FlagDef {
                name: "--threads",
                value: Some("N"),
                help: "worker threads (default 2)",
            },
            FlagDef {
                name: "--txns",
                value: Some("N"),
                help: "transactions per thread (default 200)",
            },
        ],
    },
];

fn spec(name: &str) -> &'static SubcommandSpec {
    SPECS
        .iter()
        .find(|s| s.name == name)
        .expect("subcommand spec")
}

/// Prints an error and exits with the usage status.
fn fail(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn parse_or_fail(spec: &SubcommandSpec, args: &[String]) -> ParsedArgs {
    cli::parse(spec, args).unwrap_or_else(|e| fail(&e))
}

/// Unwraps a flag-parse result, exiting with usage status on error.
fn flag<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| fail(&e))
}

/// Exits with the usage status if any of `counts` is zero (a thread,
/// rate, record count or 1-based crash step).
fn at_least_one<T: Default + PartialEq>(name: &str, counts: &[T]) {
    if counts.contains(&T::default()) {
        fail(&format!("{name} must be at least 1"));
    }
}

fn print_usage() {
    print!(
        "{}",
        cli::render_help(
            "figures — the paper's engine comparisons and the bench drivers",
            SPECS,
        )
    );
    println!(
        "\nNOTES:\n\
         Engine artifacts (--json-out of the default command) share one schema: per\n\
         point workload, engine, threads, ops_per_sec, writes_per_txn, the persist-traffic\n\
         counters (write_amplification = words_persisted / line_words_persisted;\n\
         flush_ranges, lines_per_range), completions, hw_outcomes, and phase_ns under\n\
         --trace counters (e.g. `figures --trace counters breakdowns`).\n\
         Every artifact's config block carries nproc and the git revision.\n\
         The kvserve artifact carries p50/p99/p999 latency per (engine, rate), measured\n\
         from intended send times — or `saturated` where achieved < 0.95 x offered.\n\
         Torture failures print a (seed, step) pair — replay one exactly with\n\
           figures -- torture --suite S --seed SEED --crash-step STEP"
    );
}

struct Options {
    targets: BTreeSet<String>,
    cfg: HarnessConfig,
    csv_dir: Option<String>,
    json_out: Option<String>,
}

fn parse_figures_args(args: &[String]) -> Options {
    let p = parse_or_fail(spec(""), args);
    let mut targets: BTreeSet<String> = p.positionals().iter().cloned().collect();
    if targets.is_empty() {
        targets.extend(["fig6", "fig7", "table1"].map(String::from));
    }
    if targets.remove("all") {
        targets.extend(TARGETS.map(String::from));
    }
    if let Some(unknown) = targets.iter().find(|t| !TARGETS.contains(&t.as_str())) {
        fail(&format!(
            "unknown target `{unknown}` (targets: {}, all; torture, kvserve and trace are \
             subcommands — see --help)",
            TARGETS.join(" ")
        ));
    }
    let mut cfg = if p.has("--paper") {
        HarnessConfig::paper()
    } else {
        HarnessConfig::quick()
    };
    if p.has("--latency-100") {
        cfg.latency = LatencyModel::nvm_100ns();
    }
    cfg.thread_counts = flag(p.parsed_list("--threads", cfg.thread_counts));
    at_least_one("--threads", &cfg.thread_counts);
    cfg.txns_per_thread = flag(p.parsed("--txns", cfg.txns_per_thread));
    if let Some(level) = p.value("--trace") {
        let level = TraceLevel::parse(level).unwrap_or_else(|| {
            fail(&format!(
                "--trace must be one of off, counters, events; got `{level}`"
            ))
        });
        trace::set_level(level);
    }
    Options {
        targets,
        cfg,
        csv_dir: p.value("--csv").map(str::to_string),
        json_out: p.value("--json-out").map(str::to_string),
    }
}

/// A workload with the writes per transaction the paper's Table 1 reports
/// for it.
type PaperWorkload = (Box<dyn Workload>, f64);

/// The paper's three benchmark families in figure order: the figure and
/// the workloads it plots (sub-figures a, b, c… in this order).
fn families(max_threads: usize) -> [(&'static str, Vec<PaperWorkload>); 3] {
    fn boxed(w: impl Workload + 'static, writes: f64) -> PaperWorkload {
        (Box::new(w), writes)
    }
    [
        (
            "fig6",
            [Contention::High, Contention::Medium, Contention::None]
                .map(|c| boxed(BankWorkload::paper(c, max_threads), 10.0))
                .into(),
        ),
        (
            "fig7",
            vec![
                boxed(BtreeWorkload::paper(BtreeVariant::InsertOnly), 14.0),
                boxed(BtreeWorkload::paper(BtreeVariant::Mixed), 13.3),
            ],
        ),
        (
            "fig8",
            StampKernel::ALL
                .map(|k| boxed(StampWorkload::new(k), k.paper_writes_per_txn()))
                .into(),
        ),
    ]
}

/// Measures and prints one figure's sub-figures — every engine at every
/// thread count, as the normalized-throughput table behind the plot.
fn emit_figure(
    figure: &str,
    workloads: &[PaperWorkload],
    cfg: &HarnessConfig,
    csv_dir: Option<&str>,
) -> Vec<Point> {
    let mut measured = Vec::new();
    for ((workload, _), letter) in workloads.iter().zip('a'..) {
        let points = run_points(
            &[workload.as_ref()],
            &EngineKind::ALL,
            &cfg.thread_counts,
            cfg,
        );
        let title = workload.name();
        let (table, csv) = render_figure(&title, &points);
        println!("\n== {figure}{letter}: {title} ==");
        print!("{table}");
        if let Some(dir) = csv_dir {
            std::fs::create_dir_all(dir).expect("create csv directory");
            let path = format!("{dir}/{figure}{letter}.csv");
            std::fs::write(&path, csv).expect("write csv");
            println!("[csv written to {path}]");
        }
        measured.extend(points);
    }
    measured
}

/// Prints each point's completion-path and hardware-outcome counts — and,
/// from a traced run, its phase times.
fn print_breakdowns(points: &[Point]) {
    let row = |p: &Point| render_breakdown(&p.engine, &p.breakdown);
    print!("{}", render_by_workload(points, row));
}

/// Writes `points` as an engine artifact when a path was asked for.
fn write_points_json(path: Option<&str>, cfg: &HarnessConfig, points: &[Point]) {
    if let Some(path) = path {
        std::fs::write(path, render_points_json(cfg, points)).expect("write engine artifact");
        println!("[json written to {path}: {} points]", points.len());
    }
}

/// The `torture` subcommand: the deterministic fault-injection harness.
/// Exits the process — 0 when every audited crash image satisfied every
/// invariant (and the auditor self-test caught its injected violation),
/// 1 on any violation, 2 on usage errors.
fn run_torture(args: &[String]) -> ! {
    use crafty_torture::{
        injected_violation_is_caught, run_bank_torture, run_heap_torture, run_kv_torture,
        run_recovery_torture, run_service_torture, TortureConfig, TortureReport,
    };

    let p = parse_or_fail(spec("torture"), args);
    let suite = p.value("--suite").unwrap_or("all").to_string();
    let mut cfg = TortureConfig::quick(1);
    cfg.seed = flag(p.parsed("--seed", cfg.seed));
    cfg.txns = flag(p.parsed("--txns", cfg.txns));
    cfg.max_crash_points = flag(p.parsed("--steps", cfg.max_crash_points));
    if p.has("--crash-step") {
        let step: u64 = flag(p.parsed("--crash-step", 0));
        at_least_one("--crash-step", &[step]);
        cfg.crash_step = Some(step);
    }

    let known = ["bank", "heap", "kv", "recovery", "service", "all"];
    if !known.contains(&suite.as_str()) {
        fail(&format!("--suite must be one of {known:?}, got `{suite}`"));
    }
    let wants = |s: &str| suite == s || suite == "all";

    println!(
        "torture harness — seed {}, {} txns, {} crash points{}",
        cfg.seed,
        cfg.txns,
        if cfg.max_crash_points == 0 {
            "exhaustive".to_string()
        } else {
            format!("{} sampled", cfg.max_crash_points)
        },
        cfg.crash_step
            .map(|s| format!(", pinned to step {s}"))
            .unwrap_or_default(),
    );
    let mut failed = false;
    let mut replayed = false;
    let mut show = |report: &TortureReport| -> bool {
        println!(
            "\n[{}] {} crash points audited (steps {}..={} of the run, seed {})",
            report.suite,
            report.crash_points_tested,
            report.setup_steps + 1,
            report.total_steps,
            report.seed,
        );
        replayed |= report.crash_points_tested > 0;
        if report.ok() {
            println!("  ok — every crash image satisfied every invariant");
        } else {
            for f in &report.failures {
                println!("  VIOLATION {f}");
                // A route of the bank suite (`bank/<route>`) replays
                // through the suite it belongs to.
                let suite = report.suite.split('/').next().unwrap_or(report.suite);
                println!(
                    "    replay: figures -- torture --suite {suite} --seed {} --txns {} \
                     --crash-step {}",
                    f.seed, cfg.txns, f.step
                );
            }
        }
        !report.ok()
    };

    if wants("bank") {
        for report in run_bank_torture(&cfg) {
            failed |= show(&report);
        }
        match injected_violation_is_caught(&cfg) {
            Ok(f) => println!("  self-test: injected violation was caught — {f}"),
            Err(e) => {
                failed = true;
                println!("  SELF-TEST FAILED: {e}");
            }
        }
    }
    if wants("heap") {
        failed |= show(&run_heap_torture(&cfg));
    }
    if wants("kv") {
        failed |= show(&run_kv_torture(&cfg));
    }
    if wants("recovery") {
        failed |= show(&run_recovery_torture(&cfg));
    }
    if wants("service") {
        // The networked suite restarts a real server per crash point, and
        // its step clock is not byte-deterministic (threads + sockets), so
        // exhaustive enumeration buys nothing over sampling: bound the
        // default instead of replaying thousands of boots.
        let mut svc = cfg;
        if svc.max_crash_points == 0 && svc.crash_step.is_none() {
            svc.max_crash_points = 8;
            println!("\n[service] sampling 8 crash points (use --steps to change)");
        }
        failed |= show(&run_service_torture(&svc));
    }

    if let (Some(step), false) = (cfg.crash_step, replayed) {
        println!(
            "\nFAIL: no run replayed --crash-step {step}: it falls inside setup or past the \
             end of every run."
        );
        std::process::exit(1);
    }
    if failed {
        println!("\nFAIL: the torture harness found invariant violations.");
        std::process::exit(1);
    }
    println!("\nPASS: no invariant violations found.");
    std::process::exit(0);
}

/// The `trace` subcommand: capture one traced run's event rings and dump
/// them as chrome://tracing JSON. Exits 0 after writing, 2 on usage
/// errors.
fn run_trace_cmd(args: &[String]) -> ! {
    let p = parse_or_fail(spec("trace"), args);
    let mut dump = TraceDumpConfig::quick();
    dump.threads = flag(p.parsed("--threads", dump.threads));
    at_least_one("--threads", &[dump.threads]);
    dump.txns_per_thread = flag(p.parsed("--txns", dump.txns_per_thread));
    let out = p.value("--out").unwrap_or("trace.json");
    let cfg = HarnessConfig::quick();
    println!(
        "trace — {} on bank (medium contention), {} threads × {} txns, ring capacity {}",
        dump.engine.label(),
        dump.threads,
        dump.txns_per_thread,
        trace::DEFAULT_RING_CAPACITY,
    );
    std::fs::write(out, run_trace_dump(&dump, &cfg)).expect("write trace json");
    println!("[chrome trace written to {out} — load it in chrome://tracing or Perfetto]");
    std::process::exit(0);
}

/// The `kvserve` subcommand: the open-loop service latency sweep. Exits 0
/// after writing the artifact, 2 on usage errors.
fn run_kvserve_cmd(args: &[String]) -> ! {
    let p = parse_or_fail(spec("kvserve"), args);
    let mut cfg = KvServeConfig::quick();
    cfg.rates = flag(p.parsed_list("--rates", cfg.rates));
    at_least_one("--rates", &cfg.rates);
    cfg.ops = flag(p.parsed("--ops", cfg.ops));
    cfg.records = flag(p.parsed("--records", cfg.records));
    at_least_one("--records", &[cfg.records]);
    cfg.connections = flag(p.parsed("--connections", cfg.connections));
    cfg.workers = flag(p.parsed("--workers", cfg.workers));
    at_least_one("--workers", &[cfg.workers]);
    cfg.read_pct = flag(p.parsed("--read-pct", cfg.read_pct));
    if cfg.read_pct > 100 {
        fail("--read-pct must be at most 100");
    }
    cfg.seed = flag(p.parsed("--seed", cfg.seed));
    cfg.latency.drain_ns = flag(p.parsed("--drain-ns", cfg.latency.drain_ns));
    cfg.engines = flag(p.parsed_list::<KvServeEngine>("--engines", cfg.engines));
    if p.has("--fixed") {
        cfg.arrival = ArrivalProcess::Fixed;
    }
    let json_path = p.value("--json-out").unwrap_or("BENCH_kvserve.json");

    println!(
        "kvserve — open-loop {} arrivals, {} ops/point, {} connections, {} workers, \
         drain {} ns",
        cfg.arrival.label(),
        cfg.ops,
        cfg.connections,
        cfg.workers,
        cfg.latency.drain_ns,
    );
    let mut points = Vec::new();
    for &engine in &cfg.engines {
        for &rate in &cfg.rates {
            let point = run_kvserve_point(&cfg, engine, rate);
            println!(
                "  {:<12} @ {:>7}/s: {:>7.0} achieved, batch {:>5.2}",
                point.engine, rate, point.achieved_rate, point.mean_batch,
            );
            points.push(point);
        }
    }
    println!("\n{}", render_kvserve_table(&points));
    std::fs::write(json_path, render_kvserve_json(&cfg, &points)).expect("write kvserve json");
    println!("[json written to {json_path}]");
    std::process::exit(0);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv
        .iter()
        .any(|a| a == "--help" || a == "-h" || a == "help")
    {
        print_usage();
        return;
    }
    match argv.first().map(String::as_str) {
        Some("torture") => run_torture(&argv[1..]),
        Some("kvserve") => run_kvserve_cmd(&argv[1..]),
        Some("trace") => run_trace_cmd(&argv[1..]),
        _ => {}
    }
    let options = parse_figures_args(&argv);
    let cfg = &options.cfg;
    let csv_dir = options.csv_dir.as_deref();
    let max_threads = cfg.thread_counts.iter().copied().max().unwrap_or(1);
    println!(
        "crafty figure harness — thread counts {:?}, {} transactions/thread, \
         {} ns drain latency, trace level {}",
        cfg.thread_counts,
        cfg.txns_per_thread,
        cfg.latency.drain_ns,
        trace::level().label()
    );

    let has = |t: &str| options.targets.contains(t);
    let families = families(max_threads);
    let paper_workloads = || families.iter().flat_map(|(_, workloads)| workloads);
    // Every point measured under `cfg`, for `--json-out`.
    let mut measured: Vec<Point> = Vec::new();

    for (figure, workloads) in &families {
        if has(figure) {
            measured.extend(emit_figure(figure, workloads, cfg, csv_dir));
        }
    }
    if has("table1") {
        println!("\n== Table 1: average writes per persistent transaction ==");
        let threads = *cfg.thread_counts.first().unwrap_or(&1);
        println!("{:<28}{:>12}{:>12}", "benchmark", "measured", "paper");
        for (workload, paper) in paper_workloads() {
            let point = run_point(workload.as_ref(), EngineKind::Crafty, threads, cfg);
            println!(
                "{:<28}{:>12.1}{paper:>12.1}",
                point.workload,
                point.breakdown.writes_per_txn()
            );
            measured.push(point);
        }
    }
    if has("breakdowns") {
        println!("\n== Figures 9–21: transaction breakdowns at {max_threads} threads ==");
        for (workload, _) in paper_workloads() {
            let points = run_points(&[workload.as_ref()], &EngineKind::ALL, &[max_threads], cfg);
            print_breakdowns(&points);
            measured.extend(points);
        }
    }
    if has("hotpath") {
        println!("\n== hotpath: the medium-contention bank benchmark ==");
        let points = run_points(
            &[&BankWorkload::paper(Contention::Medium, max_threads)],
            &EngineKind::ALL,
            &cfg.thread_counts,
            cfg,
        );
        print!("{}", render_points_table(&points));
        measured.extend(points);
    }
    if has("kv") {
        println!("\n== kv: YCSB mixes over the durable sharded store ==");
        let mixes = YcsbMix::ALL.map(YcsbWorkload::paper);
        let workloads: Vec<&dyn Workload> = mixes.iter().map(|w| w as &dyn Workload).collect();
        let points = run_points(&workloads, &KV_ENGINES, &cfg.thread_counts, cfg);
        print!("{}", render_points_table(&points));
        measured.extend(points);
    }
    write_points_json(options.json_out.as_deref(), cfg, &measured);
    println!("\ndone.");
}
