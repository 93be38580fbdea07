//! The repository benchmark: four workloads on the Crafty engine, end-to-end
//! metrics normalised for host speed, and a per-layer ledger timed from
//! outside. See `benchmark/README.md`.

mod driver;
mod estimator;
mod layers;
mod run;
mod selfcheck;
mod spec;
#[cfg(test)]
mod tests;
mod trace;
mod workloads;

use std::process::{exit, Command};

use run::{Outcome, RunConfig};
use workloads::{Scale, WorkloadId};

/// `run_seconds` of `BENCHMARK.json`: what a run measures for when
/// `--seconds` is not given.
const DEFAULT_SECONDS: u64 = 22;

fn usage() -> ! {
    let names = WorkloadId::ALL.map(WorkloadId::name).join("|");
    eprintln!(
        "usage: crafty-benchmark --workload <{names}> [--seed N] [--seconds N] [--trace 0|1]\n\
         \x20      crafty-benchmark --suite [--seed N] [--seconds N]\n\
         \x20      crafty-benchmark --self-check [--runs N] [--seconds N]"
    );
    exit(2);
}

/// The facts a number from this sandbox has to be read with.
fn host_facts() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // Only where the benchmark's parent directory is a git work tree: the
    // driver's checkouts are not, and git would search upwards from them.
    let repo = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let rev = repo
        .join(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .args(["rev-parse", "--short", "HEAD"])
                .current_dir(&repo)
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    format!(
        "host: nproc {nproc}, calibration {:.4} ns/iter (reference {}), git revision {rev}; \
         latencies are this sandbox's, not a device's",
        estimator::Calibrator::default().run(),
        estimator::CALIB_REF_NS,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut runs) = (1u64, DEFAULT_SECONDS, 5u64);
    let (mut trace, mut suite, mut self_check) = (false, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut number = || {
            it.next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| usage())
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    it.next()
                        .and_then(|name| WorkloadId::parse(name))
                        .unwrap_or_else(|| usage()),
                );
            }
            "--seed" => seed = number(),
            "--seconds" => seconds = number().clamp(1, 60),
            "--runs" => runs = number().max(2),
            "--trace" => trace = number() == 1,
            "--suite" => suite = true,
            "--self-check" => self_check = true,
            _ => usage(),
        }
    }
    eprintln!("{}", host_facts());
    if self_check {
        exit(selfcheck::self_check(runs, seconds));
    }
    if suite {
        exit(run_suite(seed, seconds));
    }
    let Some(id) = workload else { usage() };
    let cfg = RunConfig {
        id,
        seed,
        seconds,
        scale: Scale::full(),
    };
    let outcome = if trace {
        layers::per_layer(&cfg)
    } else {
        run::end_to_end(&cfg)
    };
    print(&outcome);
    exit(outcome.exit_code());
}

/// Every workload, end to end and per layer, each in a process of its own
/// (so that `rss_mb` is that workload's).
fn run_suite(seed: u64, seconds: u64) -> i32 {
    let exe = std::env::current_exe().expect("own path");
    let mut code = 0;
    for id in WorkloadId::ALL {
        for trace in ["0", "1"] {
            println!("== {} --trace {trace}", id.name());
            let status = Command::new(&exe)
                .args(["--workload", id.name(), "--trace", trace])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .status()
                .expect("run a workload");
            code |= i32::from(!status.success());
        }
    }
    code
}

/// Every metric by name with its unit, then the result line.
fn print(o: &Outcome) {
    for note in &o.notes {
        eprintln!("note: {note}");
    }
    for (name, value, unit) in &o.metrics {
        println!("{name:<34} {value:>18.4} {unit}");
    }
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    );
}
