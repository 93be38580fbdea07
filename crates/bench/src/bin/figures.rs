//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures [targets...] [--paper] [--latency-100] [--threads a,b,c] [--txns N] [--csv DIR]
//!         [--json-out PATH] [--trace off|counters|events]
//!
//! targets: fig6 fig7 fig8 table1 breakdowns breakdown fig22 fig23 fig24
//!          hotpath flushbound kv all   (default: fig6 fig7 table1 breakdown)
//!
//! figures compare --candidate PATH [--baseline BENCH_hotpath.json]
//!         [--suite hotpath|kv] [--tolerance 0.40] [--engine Crafty]
//!         [--reference Non-durable] [--threads 1] [--absolute]
//!
//! figures torture [--suite bank|fallback|kv|storm|recovery|all] [--seed N]
//!         [--txns N] [--steps N] [--crash-step N]
//!
//! figures contention [--threads a,b,c] [--txns N] [--accounts N]
//!         [--theta F] [--seed N] [--json-out PATH]
//!
//! figures kvserve [--rates a,b,c] [--ops N] [--engines e,e] [--connections N]
//!         [--workers N] [--records N] [--read-pct N] [--fixed] [--seed N]
//!         [--drain-ns N] [--json-out PATH]
//!
//! figures breakdown [--threads N] [--txns N] [--json-out PATH]
//!
//! figures trace [--out trace.json] [--threads N] [--txns N] [--ring N]
//!
//! figures --help   prints the full usage, generated from the same flag
//!                  table the parser validates against
//! ```
//!
//! Every subcommand's flags are declared once in [`SPECS`] and parsed by
//! the shared [`crafty_bench::cli`] helper; `--help` renders from the same
//! table, so usage text and parser cannot drift apart.
//!
//! The `hotpath` target runs the tracked bank benchmark and writes the
//! machine-readable `BENCH_hotpath.json` artifact (see
//! [`crafty_bench::hotpath`]); `--json-out` overrides its output path. The
//! `flushbound` target stresses the persistence domain (clwb/drain) with no
//! transactions (see [`crafty_bench::flushbound`]) and writes
//! `BENCH_flushbound.json`. The `kv` target runs the YCSB-style mixes —
//! A/B/C/E plus the batched-update `A+gc` group-commit mode — over the
//! durable sharded `crafty-kv` store on Crafty, Non-durable, NV-HTM,
//! and DudeTM, and writes `BENCH_kv.json` (see [`crafty_bench::kvbench`]).
//! `--json-out` overrides the path of the *single* JSON-writing target
//! requested (with several in one invocation, hotpath wins and the others
//! keep their defaults). All three artifacts report the measured
//! write-amplification ratio (`words_persisted / line_words_persisted`)
//! of the word-granular persistence pipeline and the drain-coalescing
//! counters (`flush_ranges`, `lines_per_range`) of the batched drain
//! pipeline.
//!
//! `compare` is the CI perf-regression gate: it reads two JSON artifacts
//! (the committed baseline and a fresh candidate run) and fails (exit 1)
//! if the candidate's Crafty throughput regressed by more than the
//! tolerance. By default the compared metric is Crafty's throughput
//! *normalized to Non-durable in the same artifact*, which cancels
//! machine-speed differences between the baseline host and the CI runner;
//! `--absolute` compares raw ops/s instead (only meaningful on the same
//! host). `--suite kv` gates the KV artifact instead of the hotpath one:
//! the normalized ratio is checked *per YCSB mix*, and any mix regressing
//! beyond the tolerance fails the gate. To intentionally move a baseline,
//! regenerate it (`cargo run --release -p crafty-bench --bin figures --
//! hotpath`, or `kv --threads 1 --txns 1000` for the KV baseline) and
//! commit the new JSON alongside the change that shifted performance.
//!
//! `torture` drives the deterministic fault-injection harness
//! (`crafty-torture`): it enumerates crash points over the suites'
//! workloads (exhaustively with `--steps 0`, the default; via seeded
//! stratified sampling with `--steps N`), audits every crash image
//! (recovery, clean logs, idempotence, prefix-of-commit-order state), and
//! exits non-zero when any invariant is violated. Every reported failure
//! carries a `(seed, step)` pair; replay it exactly with
//! `figures -- torture --suite S --seed SEED --crash-step STEP`. The bank
//! suite also self-tests the auditor by injecting a violation and
//! requiring it to be caught. The `fallback` suite forces every
//! transaction through the per-line software fallback so crash points
//! land inside lock-hold windows, and boots each recovered image into a
//! second life that must keep running (no stuck lock survives a reboot).
//!
//! `contention` compares the two software-fallback policies head to head:
//! every transaction is forced through the fallback and a zipfian-skewed
//! transfer mix runs at each requested thread count under both the single
//! global lock and the per-line write locks, with a conservation-of-money
//! audit per point. It writes `BENCH_contention.json`; under the SGL the
//! throughput column flatlines as threads are added, under per-line it
//! scales — that separation is the artifact's point.
//!
//! `kvserve` boots the networked KV front-end (`crafty-server`) on
//! loopback and drives it **open-loop** at a sweep of arrival rates,
//! reporting p50/p99/p999 latency per engine per rate (measured from
//! intended send times, so queueing delay and coordinated omission stay
//! visible) and writing `BENCH_kvserve.json` (see
//! [`crafty_bench::kvserve`]). The default sweep compares Non-durable,
//! per-transaction-durable Crafty, and Crafty behind the server's
//! group-commit durability window.
//!
//! `breakdown` runs the *traced* phase decomposition: the bank (medium
//! contention) benchmark and the YCSB-A mix on the four KV-comparison
//! engines with the trace subsystem at `counters` level, printing each
//! engine's per-phase virtual-cycle table and abort-cause histogram and
//! writing `BENCH_breakdown.json` (see [`crafty_bench::breakdown`]). The
//! same section rides along with every default (no-target) run. `trace`
//! captures one run at the `events` level and dumps every thread's event
//! ring as chrome://tracing JSON (see [`crafty_bench::tracedump`]). The
//! figure targets additionally accept `--trace LEVEL` to run with the
//! tracer armed; the `compare` gate against the committed baseline is what
//! pins the default `off` level's overhead at zero.
//!
//! Every figure is printed as the table of normalized throughputs behind
//! the paper's plot (one row per thread count, one column per engine,
//! normalized to single-thread Non-durable). `--csv DIR` additionally
//! writes one CSV per figure. `--paper` uses the full thread sweep
//! (1–16) and a larger transaction budget; the default "quick" scale keeps
//! the whole run in the minutes range on a laptop.

use std::collections::BTreeSet;

use crafty_bench::{
    cli, render_breakdown_json, render_flushbound_json, render_hotpath_json, render_kv_json,
    render_kvserve_json, render_kvserve_table, run_breakdown, run_breakdowns, run_figure,
    run_flushbound, run_hotpath, run_kv, run_kvserve_point, run_trace_dump, writes_per_txn,
    FlagDef, HarnessConfig, KvServeConfig, KvServeEngine, ParsedArgs, SubcommandSpec,
    TraceDumpConfig,
};
use crafty_common::trace::{self, TraceConfig, TraceLevel};
use crafty_pmem::LatencyModel;
use crafty_stats::{
    render_breakdown, render_figure, render_figure_csv, render_writes_per_txn_row, Json,
};
use crafty_workloads::{
    ArrivalProcess, BankWorkload, BtreeVariant, BtreeWorkload, Contention, StampKernel,
    StampWorkload, Workload,
};

/// Every subcommand's flags, declared once: the parser validates against
/// this table and `--help` renders from it.
const SPECS: &[SubcommandSpec] = &[
    SubcommandSpec {
        name: "",
        positional: Some("targets..."),
        summary: "regenerate figures/tables (fig6 fig7 fig8 table1 breakdowns \
                  fig22 fig23 fig24 hotpath flushbound kv all; \
                  default: fig6 fig7 table1 + traced phase breakdown)",
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
                help: "use the appendix's 100 ns drain latency model",
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
                help: "override the JSON artifact path of the requested target",
            },
        ],
    },
    SubcommandSpec {
        name: "compare",
        positional: None,
        summary: "CI perf-regression gate: candidate JSON vs committed baseline",
        flags: &[
            FlagDef {
                name: "--candidate",
                value: Some("PATH"),
                help: "fresh benchmark artifact to check (required)",
            },
            FlagDef {
                name: "--baseline",
                value: Some("PATH"),
                help: "committed baseline (default BENCH_hotpath.json / BENCH_kv.json)",
            },
            FlagDef {
                name: "--suite",
                value: Some("hotpath|kv"),
                help: "which artifact schema to gate (default hotpath)",
            },
            FlagDef {
                name: "--tolerance",
                value: Some("F"),
                help: "allowed fractional regression (default 0.40)",
            },
            FlagDef {
                name: "--engine",
                value: Some("NAME"),
                help: "engine under test (default Crafty)",
            },
            FlagDef {
                name: "--reference",
                value: Some("NAME"),
                help: "normalization reference engine (default Non-durable)",
            },
            FlagDef {
                name: "--threads",
                value: Some("N"),
                help: "thread count of the gated point (default 1)",
            },
            FlagDef {
                name: "--absolute",
                value: None,
                help: "compare raw ops/s instead of the normalized ratio",
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
                help: "bank | fallback | kv | storm | recovery | service | all (default all)",
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
                help: "pin the crash to one step (replaying a reported failure)",
            },
        ],
    },
    SubcommandSpec {
        name: "contention",
        positional: None,
        summary: "forced-fallback zipfian sweep: SGL vs per-line lock policies",
        flags: &[
            FlagDef {
                name: "--threads",
                value: Some("a,b,c"),
                help: "thread counts to sweep (default 2,4,8)",
            },
            FlagDef {
                name: "--txns",
                value: Some("N"),
                help: "transfer transactions per thread per point (default 2000)",
            },
            FlagDef {
                name: "--accounts",
                value: Some("N"),
                help: "accounts in the shared array (default 256)",
            },
            FlagDef {
                name: "--theta",
                value: Some("F"),
                help: "zipfian skew of the account picks (default 0.9)",
            },
            FlagDef {
                name: "--seed",
                value: Some("N"),
                help: "workload seed, fixed across both policies",
            },
            FlagDef {
                name: "--json-out",
                value: Some("PATH"),
                help: "artifact path (default BENCH_contention.json)",
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
            FlagDef {
                name: "--assert-no-shed",
                value: None,
                help: "exit 1 if any point sheds batches (BUSY) — keeps latency baselines honest",
            },
        ],
    },
    SubcommandSpec {
        name: "breakdown",
        positional: None,
        summary: "traced phase-cycle + abort-cause breakdown (bank and YCSB-A, four engines)",
        flags: &[
            FlagDef {
                name: "--threads",
                value: Some("N"),
                help: "worker threads of every point (default 4)",
            },
            FlagDef {
                name: "--txns",
                value: Some("N"),
                help: "transactions per thread per point (default 2000)",
            },
            FlagDef {
                name: "--json-out",
                value: Some("PATH"),
                help: "artifact path (default BENCH_breakdown.json)",
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
            FlagDef {
                name: "--ring",
                value: Some("N"),
                help: "per-thread event-ring capacity (default 4096)",
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

fn print_usage() {
    print!(
        "{}",
        cli::render_help(
            "figures — regenerate the paper's tables/figures and the benchmark artifacts",
            SPECS,
        )
    );
    println!(
        "\nNOTES:\n\
         The hotpath/flushbound/kv artifacts carry throughput, the measured\n\
         write-amplification ratio (words_persisted / line_words_persisted), and\n\
         the drain-coalescing counters (flush_ranges, lines_per_range). The\n\
         kvserve artifact carries p50/p99/p999 latency per (engine, rate),\n\
         measured from intended send times (coordinated omission visible).\n\
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
        // The traced phase breakdown rides along with every default run,
        // so the four engines' phase tables are always a bare `figures`
        // invocation away.
        for t in ["fig6", "fig7", "table1", "breakdown"] {
            targets.insert(t.to_string());
        }
    }
    if targets.contains("all") {
        for t in [
            "fig6",
            "fig7",
            "fig8",
            "table1",
            "breakdowns",
            "breakdown",
            "fig22",
            "fig23",
            "fig24",
            "hotpath",
            "flushbound",
            "kv",
        ] {
            targets.insert(t.to_string());
        }
    }
    let mut cfg = if p.has("--paper") {
        HarnessConfig::paper()
    } else {
        HarnessConfig::quick()
    };
    if p.has("--latency-100") {
        cfg = cfg.with_latency(LatencyModel::nvm_100ns());
    }
    let threads: Vec<usize> = flag(p.parsed_list("--threads", vec![]));
    if !threads.is_empty() {
        cfg = cfg.with_thread_counts(threads);
    }
    if p.has("--txns") {
        let txns = flag(p.parsed("--txns", cfg.txns_per_thread));
        cfg = cfg.with_txns_per_thread(txns);
    }
    if let Some(level) = p.value("--trace") {
        let level = TraceLevel::parse(level).unwrap_or_else(|| {
            fail(&format!(
                "--trace must be one of off, counters, events; got `{level}`"
            ))
        });
        trace::configure(TraceConfig {
            level,
            ..TraceConfig::default()
        });
    }
    Options {
        targets,
        cfg,
        csv_dir: p.value("--csv").map(str::to_string),
        json_out: p.value("--json-out").map(str::to_string),
    }
}

fn emit(figure_id: &str, workload: &dyn Workload, cfg: &HarnessConfig, csv_dir: &Option<String>) {
    let figure = run_figure(workload, cfg);
    println!("\n== {figure_id}: {} ==", workload.name());
    print!("{}", render_figure(&figure, "Non-durable"));
    if let Some(dir) = csv_dir {
        std::fs::create_dir_all(dir).expect("create csv directory");
        let path = format!(
            "{dir}/{}.csv",
            figure_id.replace([' ', '(', ')'], "_").to_lowercase()
        );
        std::fs::write(&path, render_figure_csv(&figure, "Non-durable")).expect("write csv");
        println!("[csv written to {path}]");
    }
}

fn bank_workloads(max_threads: usize) -> Vec<(String, BankWorkload)> {
    [Contention::High, Contention::Medium, Contention::None]
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            (
                format!("fig6{}", (b'a' + i as u8) as char),
                BankWorkload::paper(c, max_threads),
            )
        })
        .collect()
}

/// The `compare` subcommand: the CI perf-regression gate. Exits the
/// process — 0 when the candidate is within tolerance of the baseline,
/// 1 on a regression, 2 on usage or artifact errors.
///
/// `--suite hotpath` (the default) checks one metric: the engine's
/// throughput (normalized to the reference engine unless `--absolute`) at
/// the given thread count. `--suite kv` checks the same normalized metric
/// once *per YCSB mix* present in the baseline; any mix regressing beyond
/// the tolerance fails the gate.
fn run_compare(args: &[String]) -> ! {
    let p = parse_or_fail(spec("compare"), args);
    let suite = p.value("--suite").unwrap_or("hotpath").to_string();
    let tolerance: f64 = flag(p.parsed("--tolerance", 0.40));
    let engine = p.value("--engine").unwrap_or("Crafty").to_string();
    let reference = p.value("--reference").unwrap_or("Non-durable").to_string();
    let threads: u64 = flag(p.parsed("--threads", 1));
    let absolute = p.has("--absolute");

    if suite != "hotpath" && suite != "kv" {
        fail(&format!("--suite must be `hotpath` or `kv`, got `{suite}`"));
    }
    let baseline = p
        .value("--baseline")
        .map(str::to_string)
        .unwrap_or_else(|| {
            if suite == "kv" {
                "BENCH_kv.json".to_string()
            } else {
                "BENCH_hotpath.json".to_string()
            }
        });
    let candidate = p
        .value("--candidate")
        .map(str::to_string)
        .unwrap_or_else(|| {
            fail(&format!(
                "compare requires --candidate PATH (a fresh {suite} JSON artifact)"
            ))
        });

    let load = |path: &str| -> Json {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
        Json::parse(&text).unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")))
    };
    // Looks up one point's ops/s by engine, thread count, and (for the kv
    // suite) mix label.
    let ops = |doc: &Json, path: &str, engine: &str, mix: Option<&str>| -> f64 {
        doc.get("points")
            .map(Json::items)
            .unwrap_or(&[])
            .iter()
            .find(|p| {
                p.get("engine").and_then(Json::as_str) == Some(engine)
                    && p.get("threads").and_then(Json::as_u64) == Some(threads)
                    && (mix.is_none() || p.get("mix").and_then(Json::as_str) == mix)
            })
            .and_then(|p| p.get("ops_per_sec"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| {
                let mix_note = mix.map(|m| format!(" for mix {m}")).unwrap_or_default();
                fail(&format!(
                    "{path}: no `{engine}` point at {threads} thread(s){mix_note}"
                ))
            })
    };

    let base_doc = load(&baseline);
    let cand_doc = load(&candidate);

    // The (label, mix) cells to gate: one for the hotpath suite, one per
    // distinct baseline mix for the kv suite.
    let cells: Vec<(String, Option<String>)> = if suite == "kv" {
        let mut mixes: Vec<String> = Vec::new();
        for p in base_doc.get("points").map(Json::items).unwrap_or(&[]) {
            if let Some(m) = p.get("mix").and_then(Json::as_str) {
                if !mixes.iter().any(|seen| seen == m) {
                    mixes.push(m.to_string());
                }
            }
        }
        if mixes.is_empty() {
            fail(&format!("{baseline}: no kv mixes found in baseline points"));
        }
        mixes
            .into_iter()
            .map(|m| (format!("YCSB-{m}"), Some(m)))
            .collect()
    } else {
        vec![("hotpath".to_string(), None)]
    };

    let metric_name = if absolute {
        format!("{engine} ops/s at {threads} thread(s)")
    } else {
        format!("{engine}/{reference} throughput ratio at {threads} thread(s)")
    };
    println!("perf-regression gate [{suite}]: {metric_name}");
    let mut failed = false;
    for (label, mix) in &cells {
        let mix = mix.as_deref();
        let (base_metric, cand_metric) = if absolute {
            (
                ops(&base_doc, &baseline, &engine, mix),
                ops(&cand_doc, &candidate, &engine, mix),
            )
        } else {
            // Normalizing to a reference engine measured in the same
            // artifact cancels host-speed differences between the baseline
            // machine and the CI runner.
            (
                ops(&base_doc, &baseline, &engine, mix)
                    / ops(&base_doc, &baseline, &reference, mix),
                ops(&cand_doc, &candidate, &engine, mix)
                    / ops(&cand_doc, &candidate, &reference, mix),
            )
        };
        let floor = base_metric * (1.0 - tolerance);
        let verdict = if cand_metric >= floor {
            "ok"
        } else {
            failed = true;
            "REGRESSED"
        };
        println!(
            "  {label:<10} baseline {base_metric:>8.4}  candidate {cand_metric:>8.4}  \
             floor {floor:>8.4}  {verdict}"
        );
    }
    if !failed {
        println!("PASS: candidate is within tolerance of the committed baseline.");
        std::process::exit(0);
    }
    println!(
        "FAIL: candidate regressed more than {:.0}% below the baseline.",
        tolerance * 100.0
    );
    let refresh = if suite == "kv" {
        "kv --threads 1 --txns 1000"
    } else {
        "hotpath"
    };
    println!(
        "If this shift is intentional, refresh the baseline with\n  \
         cargo run --release -p crafty-bench --bin figures -- {refresh}\n\
         and commit the regenerated {baseline} with your change."
    );
    std::process::exit(1);
}

/// The `torture` subcommand: the deterministic fault-injection harness.
/// Exits the process — 0 when every audited crash image satisfied every
/// invariant (and the auditor self-test caught its injected violation),
/// 1 on any violation, 2 on usage errors.
fn run_torture(args: &[String]) -> ! {
    use crafty_torture::{
        injected_violation_is_caught, run_bank_torture, run_fallback_torture, run_kv_torture,
        run_recovery_torture, run_service_torture, run_storm_torture, TortureConfig, TortureReport,
    };

    let p = parse_or_fail(spec("torture"), args);
    let suite = p.value("--suite").unwrap_or("all").to_string();
    let mut cfg = TortureConfig::quick(1);
    cfg.seed = flag(p.parsed("--seed", cfg.seed));
    cfg.txns = flag(p.parsed("--txns", cfg.txns));
    cfg.max_crash_points = flag(p.parsed("--steps", cfg.max_crash_points));
    if p.has("--crash-step") {
        cfg.crash_step = Some(flag(p.parsed("--crash-step", 0)));
    }

    let known = [
        "bank", "fallback", "kv", "storm", "recovery", "service", "all",
    ];
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
    let show = |report: &TortureReport| -> bool {
        if report.total_steps == 0 {
            // The storm suite audits liveness + durability, not crash points.
            println!(
                "\n[{}] liveness + durability audit (no crash-point enumeration, seed {})",
                report.suite, report.seed,
            );
        } else {
            println!(
                "\n[{}] {} crash points audited (steps {}..={} of the run, seed {})",
                report.suite,
                report.crash_points_tested,
                report.setup_steps + 1,
                report.total_steps,
                report.seed,
            );
        }
        if report.ok() {
            println!("  ok — every crash image satisfied every invariant");
        } else {
            for f in &report.failures {
                println!("  VIOLATION {f}");
                // A route of the fallback suite (`fallback/<route>`) replays
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
        failed |= show(&run_bank_torture(&cfg));
        match injected_violation_is_caught(&cfg) {
            Ok(f) => println!("  self-test: injected violation was caught — {f}"),
            Err(e) => {
                failed = true;
                println!("  SELF-TEST FAILED: {e}");
            }
        }
    }
    if wants("fallback") {
        for report in run_fallback_torture(&cfg) {
            failed |= show(&report);
        }
    }
    if wants("kv") {
        failed |= show(&run_kv_torture(&cfg));
    }
    if wants("recovery") {
        failed |= show(&run_recovery_torture(&cfg));
    }
    if wants("storm") {
        failed |= show(&run_storm_torture(&cfg));
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

    if failed {
        println!("\nFAIL: the torture harness found invariant violations.");
        std::process::exit(1);
    }
    println!("\nPASS: no invariant violations found.");
    std::process::exit(0);
}

/// Runs the traced breakdown matrix (bank + YCSB-A on the four KV
/// engines at `Counters` level), prints the per-engine phase tables and
/// abort-cause histograms, and writes the JSON artifact. Shared by the
/// `breakdown` subcommand and the default figure run.
fn emit_breakdown(cfg: &HarnessConfig, json_path: &str) {
    println!("\n== traced phase breakdown: bank + YCSB-A on the four KV engines ==");
    let runs = run_breakdown(cfg);
    let mut current_mix = String::new();
    for r in &runs {
        if r.mix != current_mix {
            println!(
                "\n-- {} ({} threads, trace level counters) --",
                r.mix, r.threads
            );
            current_mix.clone_from(&r.mix);
        }
        print!("{}", render_breakdown(&r.engine, &r.snapshot));
    }
    std::fs::write(json_path, render_breakdown_json(cfg, &runs)).expect("write breakdown json");
    println!("[json written to {json_path}]");
}

/// The `breakdown` subcommand: the traced phase-cycle decomposition.
/// Exits 0 after writing the artifact, 2 on usage errors.
fn run_breakdown_cmd(args: &[String]) -> ! {
    let p = parse_or_fail(spec("breakdown"), args);
    let threads: usize = flag(p.parsed("--threads", 4));
    let txns: u64 = flag(p.parsed("--txns", 2_000));
    let json_path = p.value("--json-out").unwrap_or("BENCH_breakdown.json");
    let cfg = HarnessConfig::quick()
        .with_thread_counts(vec![threads])
        .with_txns_per_thread(txns);
    emit_breakdown(&cfg, json_path);
    std::process::exit(0);
}

/// The `trace` subcommand: capture one traced run's event rings and dump
/// them as chrome://tracing JSON. Exits 0 after writing, 2 on usage
/// errors.
fn run_trace_cmd(args: &[String]) -> ! {
    let p = parse_or_fail(spec("trace"), args);
    let mut dump = TraceDumpConfig::quick();
    dump.threads = flag(p.parsed("--threads", dump.threads));
    dump.txns_per_thread = flag(p.parsed("--txns", dump.txns_per_thread));
    dump.ring_capacity = flag(p.parsed("--ring", dump.ring_capacity));
    let out = p.value("--out").unwrap_or("trace.json");
    let cfg = HarnessConfig::quick().with_thread_counts(vec![dump.threads]);
    println!(
        "trace — {} on bank (medium contention), {} threads × {} txns, ring capacity {}",
        dump.engine.label(),
        dump.threads,
        dump.txns_per_thread,
        dump.ring_capacity,
    );
    std::fs::write(out, run_trace_dump(&dump, &cfg)).expect("write trace json");
    println!("[chrome trace written to {out} — load it in chrome://tracing or Perfetto]");
    std::process::exit(0);
}

/// The `contention` subcommand: the forced-fallback zipfian sweep that
/// compares the SGL and per-line fallback policies head to head. Exits 0
/// after writing `BENCH_contention.json`, 1 if any point fails its
/// conservation audit, 2 on usage errors.
fn run_contention_cmd(args: &[String]) -> ! {
    use crafty_bench::{render_contention_json, run_contention_point, ContentionConfig};
    use crafty_core::FallbackPolicy;

    let p = parse_or_fail(spec("contention"), args);
    let mut cfg = ContentionConfig::quick();
    cfg.thread_counts = flag(p.parsed_list("--threads", cfg.thread_counts));
    cfg.txns_per_thread = flag(p.parsed("--txns", cfg.txns_per_thread));
    cfg.accounts = flag(p.parsed("--accounts", cfg.accounts));
    cfg.theta = flag(p.parsed("--theta", cfg.theta));
    cfg.seed = flag(p.parsed("--seed", cfg.seed));
    let json_path = p.value("--json-out").unwrap_or("BENCH_contention.json");

    println!(
        "contention — forced-fallback zipfian transfers, {} accounts, theta {}, \
         {} txns/thread, threads {:?}",
        cfg.accounts, cfg.theta, cfg.txns_per_thread, cfg.thread_counts,
    );
    let mut points = Vec::new();
    let mut audits_clean = true;
    for policy in [FallbackPolicy::Sgl, FallbackPolicy::PerLine] {
        for &threads in &cfg.thread_counts.clone() {
            let point = run_contention_point(&cfg, policy, threads);
            println!(
                "  {:<8} @ {:>2} threads: {:>10.0} txns/s{}",
                point.policy,
                point.threads,
                point.ops_per_sec,
                if point.conserved {
                    ""
                } else {
                    "  AUDIT FAILED (lost updates)"
                },
            );
            audits_clean &= point.conserved;
            points.push(point);
        }
    }
    if !audits_clean {
        println!("\nFAIL: a contention point lost updates; no artifact written.");
        std::process::exit(1);
    }
    std::fs::write(json_path, render_contention_json(&cfg, &points))
        .expect("write contention json");
    println!("[json written to {json_path}]");
    std::process::exit(0);
}

/// The `kvserve` subcommand: the open-loop service latency sweep. Exits 0
/// after writing the artifact, 2 on usage errors.
fn run_kvserve_cmd(args: &[String]) -> ! {
    let p = parse_or_fail(spec("kvserve"), args);
    let mut cfg = KvServeConfig::quick();
    cfg.rates = flag(p.parsed_list("--rates", cfg.rates));
    cfg.ops = flag(p.parsed("--ops", cfg.ops));
    cfg.records = flag(p.parsed("--records", cfg.records));
    cfg.connections = flag(p.parsed("--connections", cfg.connections));
    cfg.workers = flag(p.parsed("--workers", cfg.workers));
    cfg.read_pct = flag(p.parsed("--read-pct", cfg.read_pct));
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
            let (p50, p99, p999) = point.percentiles();
            println!(
                "  {:<12} @ {:>7}/s: {:>7.0} achieved, batch {:>5.2}, \
                 p50/p99/p999 = {:.1}/{:.1}/{:.1} µs",
                point.engine,
                rate,
                point.achieved_rate,
                point.mean_batch,
                p50 as f64 / 1e3,
                p99 as f64 / 1e3,
                p999 as f64 / 1e3,
            );
            points.push(point);
        }
    }
    println!("\n{}", render_kvserve_table(&points));
    std::fs::write(json_path, render_kvserve_json(&cfg, &points)).expect("write kvserve json");
    println!("[json written to {json_path}]");
    if p.has("--assert-no-shed") {
        let shed: Vec<_> = points.iter().filter(|pt| pt.shed_batches > 0).collect();
        if !shed.is_empty() {
            println!("\nASSERT-NO-SHED FAILED — overload shedding fired during the sweep:");
            for pt in &shed {
                println!(
                    "  {:<12} @ {:>7}/s: {} batches shed (latency figures above are \
                     survivorship-biased)",
                    pt.engine, pt.rate_per_sec, pt.shed_batches,
                );
            }
            std::process::exit(1);
        }
        println!("[assert-no-shed: ok — no point shed a batch]");
    }
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
        Some("compare") => run_compare(&argv[1..]),
        Some("torture") => run_torture(&argv[1..]),
        Some("contention") => run_contention_cmd(&argv[1..]),
        Some("kvserve") => run_kvserve_cmd(&argv[1..]),
        Some("breakdown") => run_breakdown_cmd(&argv[1..]),
        Some("trace") => run_trace_cmd(&argv[1..]),
        _ => {}
    }
    let options = parse_figures_args(&argv);
    let cfg = &options.cfg;
    let max_threads = cfg.thread_counts.iter().copied().max().unwrap_or(1);
    let latency_note = format!("{} ns drain latency", cfg.latency.drain_ns);
    println!("crafty figure harness — engines: {:?}", cfg.engines.len());
    println!(
        "thread counts {:?}, {} transactions/thread, {latency_note}",
        cfg.thread_counts, cfg.txns_per_thread
    );

    let has = |t: &str| options.targets.contains(t);

    if has("fig6") {
        for (id, w) in bank_workloads(max_threads) {
            emit(&id, &w, cfg, &options.csv_dir);
        }
    }
    if has("fig7") {
        emit(
            "fig7a",
            &BtreeWorkload::paper(BtreeVariant::InsertOnly),
            cfg,
            &options.csv_dir,
        );
        emit(
            "fig7b",
            &BtreeWorkload::paper(BtreeVariant::Mixed),
            cfg,
            &options.csv_dir,
        );
    }
    if has("fig8") {
        for (i, kernel) in StampKernel::ALL.iter().enumerate() {
            let id = format!("fig8{}", (b'a' + i as u8) as char);
            emit(&id, &StampWorkload::new(*kernel), cfg, &options.csv_dir);
        }
    }
    if has("table1") {
        println!("\n== Table 1: average writes per persistent transaction ==");
        let threads = *cfg.thread_counts.first().unwrap_or(&1);
        let mut rows: Vec<(String, f64, f64)> = Vec::new();
        for (name, w) in bank_workloads(max_threads) {
            let _ = name;
            rows.push((w.name(), writes_per_txn(&w, threads, cfg), 10.0));
        }
        for variant in [BtreeVariant::InsertOnly, BtreeVariant::Mixed] {
            let w = BtreeWorkload::paper(variant);
            let expected = match variant {
                BtreeVariant::InsertOnly => 14.0,
                BtreeVariant::Mixed => 13.3,
            };
            rows.push((w.name(), writes_per_txn(&w, threads, cfg), expected));
        }
        for kernel in StampKernel::ALL {
            let w = StampWorkload::new(kernel);
            rows.push((
                w.name(),
                writes_per_txn(&w, threads, cfg),
                kernel.paper_writes_per_txn(),
            ));
        }
        println!("{:<28}{:>12}{:>12}", "benchmark", "measured", "paper");
        for (name, measured, paper) in rows {
            println!("{name:<28}{measured:>12.1}{paper:>12.1}");
            let _ = render_writes_per_txn_row(&name, &[(threads, measured)]);
        }
    }
    if has("breakdowns") {
        let threads = max_threads;
        println!("\n== Figures 9–21: transaction breakdowns at {threads} threads ==");
        let mut workloads: Vec<Box<dyn Workload>> = Vec::new();
        for (_, w) in bank_workloads(max_threads) {
            workloads.push(Box::new(w));
        }
        workloads.push(Box::new(BtreeWorkload::paper(BtreeVariant::InsertOnly)));
        workloads.push(Box::new(BtreeWorkload::paper(BtreeVariant::Mixed)));
        for kernel in StampKernel::ALL {
            workloads.push(Box::new(StampWorkload::new(kernel)));
        }
        for w in &workloads {
            println!("\n-- {} --", w.name());
            for (engine, snapshot) in run_breakdowns(w.as_ref(), threads, cfg) {
                print!("{}", render_breakdown(&engine, &snapshot));
            }
        }
    }
    if has("breakdown") {
        emit_breakdown(cfg, "BENCH_breakdown.json");
    }
    if has("hotpath") {
        let path = options.json_out.as_deref().unwrap_or("BENCH_hotpath.json");
        println!("\n== hotpath: tracked bank benchmark ==");
        let points = run_hotpath(cfg);
        for p in &points {
            let aborts: u64 = p
                .hw_outcomes
                .iter()
                .filter(|(label, _)| *label != "commit")
                .map(|(_, c)| c)
                .sum();
            println!(
                "{:<20} {:>2} thr {:>12.0} ops/s  {:>8} hw aborts  w-amp {:.3}  \
                 {:>7} ranges / {:>7} lines ({:.2}/rng)",
                p.engine,
                p.threads,
                p.ops_per_sec,
                aborts,
                p.write_amplification,
                p.flush_ranges,
                p.lines_persisted,
                p.lines_per_range
            );
        }
        std::fs::write(path, render_hotpath_json(cfg, &points)).expect("write hotpath json");
        println!("[json written to {path}]");
    }
    if has("flushbound") {
        // `--json-out` names the hotpath or kv artifact when those targets
        // run in the same invocation; flushbound then keeps its default.
        let path = if has("hotpath") || has("kv") {
            "BENCH_flushbound.json"
        } else {
            options
                .json_out
                .as_deref()
                .unwrap_or("BENCH_flushbound.json")
        };
        println!("\n== flushbound: persistence-domain microbenchmark ==");
        println!(
            "{:>3}  {:>14}  {:>14}  {:>12}  {:>12}  {:>6}  {:>10}  {:>9}",
            "thr",
            "lines/s",
            "drains/s",
            "lines total",
            "words total",
            "w-amp",
            "ranges",
            "lines/rng"
        );
        let points = run_flushbound(cfg);
        for p in &points {
            println!(
                "{:>3}  {:>14.0}  {:>14.0}  {:>12}  {:>12}  {:>6.3}  {:>10}  {:>9.2}",
                p.threads,
                p.lines_per_sec,
                p.drains_per_sec,
                p.lines_persisted,
                p.words_persisted,
                p.write_amplification,
                p.flush_ranges,
                p.lines_per_range
            );
        }
        std::fs::write(path, render_flushbound_json(cfg, &points)).expect("write flushbound json");
        println!("[json written to {path}]");
    }
    if has("kv") {
        // `--json-out` names the hotpath artifact when both targets run in
        // one invocation; kv then keeps its default path.
        let path = if has("hotpath") {
            "BENCH_kv.json"
        } else {
            options.json_out.as_deref().unwrap_or("BENCH_kv.json")
        };
        println!("\n== kv: YCSB mixes over the durable sharded store ==");
        let points = run_kv(cfg);
        for p in &points {
            println!(
                "YCSB-{:<4} {:<14} {:>2} thr {:>12.0} ops/s  w-amp {:.3}  \
                 {:>6} ranges / {:>6} lines ({:.2}/rng)",
                p.mix,
                p.engine,
                p.threads,
                p.ops_per_sec,
                p.write_amplification,
                p.flush_ranges,
                p.lines_persisted,
                p.lines_per_range
            );
        }
        std::fs::write(path, render_kv_json(cfg, &points)).expect("write kv json");
        println!("[json written to {path}]");
    }
    // Appendix figures: the same benchmarks at 100 ns drain latency.
    let appendix = cfg.clone().with_latency(LatencyModel::nvm_100ns());
    if has("fig22") {
        for (id, w) in bank_workloads(max_threads) {
            emit(
                &id.replace("fig6", "fig22"),
                &w,
                &appendix,
                &options.csv_dir,
            );
        }
    }
    if has("fig23") {
        emit(
            "fig23a",
            &BtreeWorkload::paper(BtreeVariant::InsertOnly),
            &appendix,
            &options.csv_dir,
        );
        emit(
            "fig23b",
            &BtreeWorkload::paper(BtreeVariant::Mixed),
            &appendix,
            &options.csv_dir,
        );
    }
    if has("fig24") {
        for (i, kernel) in StampKernel::ALL.iter().enumerate() {
            let id = format!("fig24{}", (b'a' + i as u8) as char);
            emit(
                &id,
                &StampWorkload::new(*kernel),
                &appendix,
                &options.csv_dir,
            );
        }
    }
    println!("\ndone.");
}
