//! `--self-check`: the benchmark measuring its own repeatability.
//!
//! Runs every workload as two sets of N runs of this same binary (a fresh
//! process and another seed per run), and compares them the way a later
//! change will be compared with its parent: per workload and end-to-end
//! metric, the two medians, how much worse the second is than the first,
//! and each set's spread (interquartile range ÷ median) against the
//! metric's bound. The committed outputs under `benchmark/evidence/` are
//! what the bounds in `spec.rs` and `BENCHMARK.json` were set from.

use std::process::Command;

use crafty_stats::Json;

use crate::estimator::Better;
use crate::run::median;
use crate::spec::END_TO_END;
use crate::workloads::WorkloadId;

/// `statistics.quantiles(values, n=4)` of Python (the exclusive method),
/// which is what the benchmark's driver computes spreads with.
fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    std::array::from_fn(|i| {
        let scaled = (i + 1) * (n + 1);
        let j = (scaled / 4).clamp(1, n - 1);
        let delta = (scaled - j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let q = quartiles(values);
    (q[2] - q[0]) / median(values)
}

/// One run in a child process: the end-to-end metric values by name.
fn run_once(id: WorkloadId, seed: u64, seconds: u64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", id.name(), "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let json = Json::parse(last).map_err(|e| format!("{}: {e}: {last}", id.name()))?;
    if !out.status.success() || json.get("failed").and_then(Json::as_u64) != Some(0) {
        return Err(format!("{} seed {seed} failed: {last}", id.name()));
    }
    let metrics = json.get("metrics").ok_or("no metrics")?;
    END_TO_END
        .iter()
        .map(|m| {
            metrics
                .get(m.name)
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .map(|v| (m.name.to_string(), v))
                .ok_or(format!("{} is missing from {last}", m.name))
        })
        .collect()
}

/// Runs the comparison and prints it; returns the process exit code.
pub fn self_check(runs: u64, seconds: u64) -> i32 {
    println!(
        "self-check: 2 sets x {runs} runs x {} workloads, {seconds} s each, seeds 1..={} and {}..={}",
        WorkloadId::ALL.len(),
        runs,
        runs + 1,
        2 * runs
    );
    // values[set][workload][metric] = one value per run
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; WorkloadId::ALL.len()]; 2];
    for (set, per_workload) in values.iter_mut().enumerate() {
        for (w, id) in WorkloadId::ALL.into_iter().enumerate() {
            for run in 0..runs {
                match run_once(id, set as u64 * runs + run + 1, seconds) {
                    Ok(metrics) => {
                        for (m, (_, value)) in metrics.into_iter().enumerate() {
                            per_workload[w][m].push(value);
                        }
                    }
                    Err(e) => {
                        println!("FAILED RUN: {e}");
                        return 1;
                    }
                }
            }
        }
    }
    println!(
        "{:<12} {:<14} {:>14} {:>14} {:>8} {:>9} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound"
    );
    let mut breaches = 0;
    for (w, id) in WorkloadId::ALL.into_iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let (a, b) = (&values[0][w][m], &values[1][w][m]);
            let (med_a, med_b) = (median(a), median(b));
            let worse = match metric.better {
                Better::Higher => (med_a - med_b) / med_a,
                Better::Lower => (med_b - med_a) / med_a,
            };
            let (spread_a, spread_b) = (spread(a), spread(b));
            // The spread of `setup_s` is reported but not held to the bound;
            // its median is.
            let spread_counts = metric.name != "setup_s";
            let breach =
                worse > metric.bound || (spread_counts && spread_a.max(spread_b) > metric.bound);
            breaches += u32::from(breach);
            println!(
                "{:<12} {:<14} {:>14.4} {:>14.4} {:>7.2}% {:>8.2}% {:>8.2}% {:>6.1}%  {}",
                id.name(),
                format!("{} {}", metric.name, metric.unit),
                med_a,
                med_b,
                worse * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                metric.bound * 100.0,
                if breach { "BREACH" } else { "ok" }
            );
        }
    }
    println!("{breaches} breaches");
    i32::from(breaches > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        // == [3.5, 13.5, 31.0]
        let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
        assert_eq!(quartiles(&v), [3.5, 13.5, 31.0]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        assert!((spread(&v) - 27.5 / 13.5).abs() < 1e-12);
    }
}
