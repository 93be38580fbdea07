//! The `figures` command line refuses what it cannot run before it runs
//! anything: a removed subcommand or torture suite reads as unknown, and a
//! zero thread or worker count, arrival rate, record population or crash
//! step — or a read share above 100% — is a usage error rather than a
//! division by zero, a panic or a hang inside an engine.

use std::process::{Command, Output};

fn figures(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("run figures")
}

/// Exit status 2, `message` on stderr and nothing on stdout. Every driver
/// prints its banner before it builds an engine, so an empty stdout means
/// the invocation was refused before any engine ran.
fn assert_usage_error(args: &[&str], message: &str) {
    let out = figures(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} printed {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn compare_is_an_unknown_target() {
    assert_usage_error(&["compare"], "unknown target `compare`");
    assert_usage_error(
        &["compare", "--candidate", "hotpath-candidate.json"],
        "unknown flag --candidate",
    );
}

#[test]
fn zero_thread_and_worker_counts_are_usage_errors() {
    assert_usage_error(
        &["--threads", "0", "hotpath"],
        "--threads must be at least 1",
    );
    assert_usage_error(
        &["--threads", "1,0", "fig6"],
        "--threads must be at least 1",
    );
    assert_usage_error(&["trace", "--threads", "0"], "--threads must be at least 1");
    assert_usage_error(
        &["kvserve", "--workers", "0"],
        "--workers must be at least 1",
    );
}

#[test]
fn zero_rates_records_and_an_impossible_read_share_are_usage_errors() {
    assert_usage_error(&["kvserve", "--rates", "0"], "--rates must be at least 1");
    assert_usage_error(
        &["kvserve", "--rates", "1000,0"],
        "--rates must be at least 1",
    );
    assert_usage_error(
        &["kvserve", "--records", "0"],
        "--records must be at least 1",
    );
    assert_usage_error(
        &["kvserve", "--read-pct", "101"],
        "--read-pct must be at most 100",
    );
}

/// Step 0 is before the fault clock's first tick: a trap there would never
/// fire, and every later tick would wait for its capture.
#[test]
fn a_crash_step_of_zero_is_a_usage_error() {
    assert_usage_error(
        &["torture", "--suite", "bank", "--crash-step", "0"],
        "--crash-step must be at least 1",
    );
}

/// Abort storms and the software-commit routes are routes of the bank
/// suite, not suites of their own.
#[test]
fn removed_torture_suites_are_unknown() {
    for suite in ["storm", "fallback"] {
        let message = format!("got `{suite}`");
        assert_usage_error(&["torture", "--suite", suite], &message);
        assert_usage_error(
            &["torture", "--suite", suite],
            r#"one of ["bank", "heap", "kv", "recovery", "service", "all"]"#,
        );
    }
}

#[test]
fn help_lists_every_subcommand_but_compare() {
    let out = figures(&["--help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    for subcommand in ["torture", "kvserve", "trace"] {
        assert!(help.contains(&format!("figures {subcommand}")), "{help}");
    }
    assert!(!help.contains("compare"), "{help}");
}
