//! Whole-benchmark tests at tiny scale: determinism, the audit's teeth, and
//! agreement between the code and `BENCHMARK.json`.

use crafty_stats::Json;

use crate::estimator::Better;
use crate::layers::per_layer;
use crate::run::{build_and_measure, end_to_end, end_to_end_with, Measured, RunConfig};
use crate::spec::END_TO_END;
use crate::workloads::{Scale, WorkloadId};

fn cfg(id: WorkloadId, seed: u64) -> RunConfig {
    RunConfig {
        id,
        seed,
        seconds: 1,
        scale: Scale::tiny(),
    }
}

fn measure(id: WorkloadId, seed: u64) -> Measured {
    build_and_measure(&cfg(id, seed), seed, 10)
}

/// `(modelled NVM ns of the measured windows, words persisted since the
/// first window)`.
fn persist_totals(m: &Measured) -> (u64, u64) {
    let marks = &m.plan.pmem_marks;
    let words = marks[marks.len() - 1].since(&marks[0]).words_persisted;
    let ns = m.plan.windows.iter().map(|w| w.nvm.total_ns()).sum();
    (ns, words)
}

#[test]
fn every_workload_runs_clean_and_reports_the_declared_metrics() {
    for id in WorkloadId::ALL {
        let o = end_to_end(&cfg(id, 3));
        assert_eq!(o.failed, 0, "{}: {:?}", id.name(), o.notes);
        assert_eq!(o.exit_code(), 0);
        assert!(o.attempted > 0);
        let names: Vec<&str> = o.metrics.iter().map(|m| m.0).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
        for (name, value, _) in &o.metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{} {name} = {value}",
                id.name()
            );
        }
    }
}

#[test]
fn in_process_workloads_repeat_exactly_for_a_seed_and_differ_across_seeds() {
    for id in [
        WorkloadId::Bank1t,
        WorkloadId::BankAborts,
        WorkloadId::KvRead,
        WorkloadId::KvUpdate,
    ] {
        let (a, b, c) = (measure(id, 7), measure(id, 7), measure(id, 8));
        assert_eq!(a.plan.stream_digest, b.plan.stream_digest, "{}", id.name());
        assert_eq!(persist_totals(&a), persist_totals(&b), "{}", id.name());
        assert_eq!(a.plan.attempted, b.plan.attempted);
        assert_ne!(a.plan.stream_digest, c.plan.stream_digest, "{}", id.name());
    }
}

#[test]
fn bank_aborts_retries_in_hardware_and_reaches_the_fallback() {
    use crafty_common::{CompletionPath, HwTxnOutcome};
    let quiet = measure(WorkloadId::Bank1t, 7);
    let b = quiet.plan.breakdown_marks.last().expect("marks");
    assert_eq!(b.hw(HwTxnOutcome::Commit), b.total_hardware());
    assert_eq!(b.completions(CompletionPath::Sgl), 0);

    let m = measure(WorkloadId::BankAborts, 7);
    assert_eq!(m.plan.failed, 0);
    let b = m.plan.breakdown_marks.last().expect("marks");
    let aborted = b.total_hardware() - b.hw(HwTxnOutcome::Commit);
    assert!(
        aborted * 3 > b.total_hardware(),
        "{aborted} of {} hardware attempts aborted",
        b.total_hardware()
    );
    assert!(b.completions(CompletionPath::Sgl) > 0, "no fallback commit");
    // Every transaction still commits exactly once.
    assert_eq!(b.total_persistent(), m.plan.attempted);
}

#[test]
fn kv_read_persists_zero_words() {
    let m = measure(WorkloadId::KvRead, 11);
    assert_eq!(persist_totals(&m), (0, 0));
    assert_eq!(m.plan.failed, 0);
    // ... and its sibling does persist, so the zero is not a broken counter.
    let (ns, words) = persist_totals(&measure(WorkloadId::KvUpdate, 11));
    assert!(ns > 0 && words > 0);
}

#[test]
fn the_seed_never_reaches_the_program_under_test() {
    // If the engine, the store or the server were handed the seed (or the
    // per-rig seed derived from it), it would sit somewhere in their memory.
    let seed = 0x5EED_0DD5_C0FF_EE11;
    for id in [
        WorkloadId::Bank1t,
        WorkloadId::KvUpdate,
        WorkloadId::ServePipe,
    ] {
        let mut m = measure(id, seed);
        m.rig.shutdown_server();
        let image = m.rig.mem.crash();
        assert!(
            !image.as_words().contains(&seed),
            "{}: the seed is in persistent memory",
            id.name()
        );
    }
}

#[test]
fn a_corrupted_acknowledged_key_fails_the_audit_and_the_run() {
    let m = measure(WorkloadId::KvUpdate, 5);
    assert_eq!(m.rig.audit(&m.plan.shadow, None).wrong, 0);
    // A key the measured phase overwrote: its last put was acknowledged.
    let rank = (0..m.plan.shadow.len() as u64)
        .find(|&r| m.plan.shadow[r as usize] != m.rig.prefill_value_of_rank(r))
        .expect("kv-update updates keys");
    let flip = |rig: &crate::workloads::Rig, image: &mut crafty_pmem::PersistentImage| {
        let word = rig.value_word_of_rank(rank);
        image.write(word, image.read(word) ^ 1);
    };
    let report = m.rig.audit(&m.plan.shadow, Some(&flip));
    assert_eq!(report.wrong, 1, "{:?}", report.notes);

    let flip_hottest = |rig: &crate::workloads::Rig, image: &mut crafty_pmem::PersistentImage| {
        let word = rig.value_word_of_rank(0);
        image.write(word, image.read(word) ^ 1);
    };
    let o = end_to_end_with(&cfg(WorkloadId::KvUpdate, 5), Some(&flip_hottest));
    assert!(o.failed as f64 / o.attempted as f64 > 0.0);
    assert_ne!(o.exit_code(), 0);
}

#[test]
fn a_corrupted_bank_balance_fails_the_audit_and_the_run() {
    let mint = |rig: &crate::workloads::Rig, image: &mut crafty_pmem::PersistentImage| {
        let balance = rig.some_bank_balance();
        image.write(balance, image.read(balance) + 1);
    };
    for id in [WorkloadId::Bank1t, WorkloadId::BankAborts] {
        let o = end_to_end_with(&cfg(id, 5), Some(&mint));
        assert_eq!(o.failed, 1, "{}: {:?}", id.name(), o.notes);
        assert_ne!(o.exit_code(), 0);
    }
}

#[test]
fn the_per_layer_run_and_benchmark_json_declare_the_same_things() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits next to benchmark/");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_str).unwrap_or("?").to_string();

    let workloads: Vec<String> = json
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, WorkloadId::ALL.map(|w| w.name().to_string()));

    let declared = json.get("end_to_end").expect("end_to_end").items();
    assert_eq!(declared.len(), END_TO_END.len());
    for (d, m) in declared.iter().zip(&END_TO_END) {
        assert_eq!(field(d, "name"), m.name);
        assert_eq!(field(d, "unit"), m.unit);
        let better = if m.better == Better::Higher {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(field(d, "better"), better);
        assert_eq!(
            d.get("bound").and_then(Json::as_f64),
            Some(m.bound),
            "{}",
            m.name
        );
    }

    let o = per_layer(&cfg(WorkloadId::KvUpdate, 9));
    assert_eq!(o.failed, 0, "{:?}", o.notes);
    let reported: Vec<(String, String)> = o
        .metrics
        .iter()
        .map(|(name, _, unit)| (name.to_string(), unit.to_string()))
        .collect();
    let declared: Vec<(String, String)> = json
        .get("per_layer")
        .expect("per_layer")
        .items()
        .iter()
        .map(|d| (field(d, "name"), field(d, "unit")))
        .collect();
    assert_eq!(reported, declared);
    let value = |name: &str| o.metrics.iter().find(|m| m.0 == name).expect(name).1;
    assert_eq!(value("server.shed_batches"), 0.0);
    assert_eq!(value("fail_ratio"), 0.0);
    assert!(value("server.mean_batch") >= 1.0);
    assert!(value("server.pipe_ops_per_s") > 0.0);
    assert!(value("harness.trace_overhead_ratio") > 0.0);
    assert!(value("harness.ledger_residual_ratio").abs() < 1.0);
    let nvm: f64 = ["drain", "range", "line", "word"]
        .iter()
        .map(|t| value(&format!("pmem.nvm_{t}_ns_per_op")))
        .sum();
    assert!((nvm - value("nvm_ns_per_op")).abs() < 1e-6);
}
