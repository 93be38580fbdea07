//! `--trace 1`: the per-layer ledger.
//!
//! An untraced reference pass, then a traced pass on a rebuilt workload
//! (`TraceLevel::Counters`, the `TxnOps` decorator, spans in memory), the
//! audit, the served store, the baseline engines on the `bank-1t` mix, and
//! the direct per-layer micro-measurements. Layer = crate name.

use std::sync::Arc;
use std::time::Instant;

use crafty_common::trace::{set_level, TraceLevel};
use crafty_common::{
    BreakdownRecorder, BreakdownSnapshot, CompletionPath, HwTxnOutcome, TxnPhase, WORDS_PER_LINE,
};
use crafty_htm::{HtmConfig, HtmRuntime};
use crafty_pmem::{LatencyModel, MemorySpace, PmemConfig, PmemStats};
use crafty_server::protocol::{frame_payload_len, HEADER_LEN};
use crafty_server::{KvClient, Request, Response};
use crafty_stats::LatencyHistogram;
use crafty_workloads::EngineKind;

use crate::driver::{measured_plan, run_plan, Step};
use crate::estimator::{
    best_rate, summarise, Calibrator, NvmWait, Window, WindowKind, CALIB_REF_NS,
};
use crate::run::{apply_audit, build_and_measure, rig_seed, Metric, Outcome, RunConfig};
use crate::trace::{chrome_trace_json, LayerTimes};
use crate::workloads::{Rig, WorkloadId};

/// Share of a run's windows each pass of the per-layer run measures.
const PASS_SHARE: u64 = 8;
/// Measured windows per baseline engine (≈ 0.5 s each).
const BASELINE_WINDOWS: u64 = 40;
/// Windows of the served-store pass: untraced, then with the client's
/// send and receive timed (≈ 1 s each).
const SERVER_WINDOWS: u64 = 60;
/// Depth-1 round trips behind `server.rtt_depth1_us`.
const RTT_CALLS: usize = 2_000;

/// Mean ns per call of `op`, best of five batches, rescaled to the
/// reference host speed by a calibration taken just before.
fn micro(iterations: u64, mut op: impl FnMut(u64)) -> f64 {
    let speed = CALIB_REF_NS / Calibrator::default().run();
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        for i in 0..iterations {
            op(i);
        }
        best = best.min(start.elapsed().as_nanos() as f64 / iterations as f64);
    }
    best * speed
}

/// `htm.txn_ns`: begin + 10 reads + 10 writes on distinct lines + commit,
/// straight on `HtmRuntime`, no engine.
fn htm_txn_ns() -> f64 {
    let mem = Arc::new(MemorySpace::new(PmemConfig::small_for_tests()));
    let base = mem.reserve_persistent(64 * WORDS_PER_LINE);
    let htm = HtmRuntime::new(
        Arc::clone(&mem),
        HtmConfig::skylake(),
        Arc::new(BreakdownRecorder::new()),
    );
    micro(20_000, |i| {
        let mut txn = htm.begin(0);
        for j in 0..10 {
            let addr = base.add(((i + j) % 64) * WORDS_PER_LINE);
            let v = txn.read(addr).expect("uncontended read");
            txn.write(addr, v + 1).expect("uncontended write");
        }
        txn.commit().expect("uncontended commit");
    })
}

/// `pmem.persist_sw_ns`: `write` + `clwb` + `drain` of one line with every
/// modelled latency at zero — the persist pipeline's own software cost.
fn persist_sw_ns() -> f64 {
    let mem = MemorySpace::new(PmemConfig::small_for_tests().with_latency(LatencyModel::instant()));
    let base = mem.reserve_persistent(64 * WORDS_PER_LINE);
    micro(50_000, |i| {
        let addr = base.add((i % 64) * WORDS_PER_LINE);
        mem.write(addr, i);
        mem.clwb(0, addr);
        mem.drain(0);
    })
}

/// `server.codec_ns_per_req`: a `Put` request and its `Found` response,
/// each encoded, framed and decoded, with no socket in between.
fn codec_ns_per_req() -> f64 {
    let mut buf = Vec::with_capacity(64);
    micro(100_000, |i| {
        buf.clear();
        Request::Put { key: i, value: !i }.encode(&mut buf);
        let len = frame_payload_len(&buf).expect("frame").expect("complete");
        let req = Request::decode(&buf[HEADER_LEN..HEADER_LEN + len]).expect("decode");
        buf.clear();
        Response::Found { value: i }.encode(&mut buf);
        let len = frame_payload_len(&buf).expect("frame").expect("complete");
        let resp = Response::decode(&buf[HEADER_LEN..HEADER_LEN + len]).expect("decode");
        std::hint::black_box((req, resp));
    })
}

fn hist_record_ns() -> f64 {
    let mut h = LatencyHistogram::new();
    let ns = micro(200_000, |i| h.record(1_000 + (i & 0xFFFF)));
    std::hint::black_box(h.count());
    ns
}

/// Normalised best-decile throughput of `kind` (`None` = Crafty, built
/// the way the benchmark builds it) on the `bank-1t` mix.
fn bank_1t_ops_per_s(cfg: &RunConfig, kind: Option<EngineKind>) -> f64 {
    let id = WorkloadId::Bank1t;
    let rig = Rig::build_on(id, &cfg.scale, cfg.seed, kind);
    let plan = run_plan(&rig, &measured_plan(2, BASELINE_WINDOWS));
    // NV-HTM and DudeTM persist in the background: let them finish before
    // the space goes away.
    rig.engine.quiesce();
    best_rate(&plan.windows)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The served store (`KvServer`, group commit, one pipelining client on
/// loopback), measured for the `server.*` rows.
#[derive(Default)]
struct ServerSide {
    pipe_ops_per_s: f64,
    client_send_ns_per_req: f64,
    client_recv_ns_per_req: f64,
    rtt_depth1_us: f64,
    mean_batch: f64,
    flushes_per_batch: f64,
    service_p50_us: f64,
    service_p99_us: f64,
    shed_batches: f64,
    protocol_errors: f64,
}

/// Builds the served store and drives it through the pipe: untraced windows
/// for its throughput, traced ones for the client's side of the socket;
/// audits it (crashed with the server still up: every acknowledged put
/// must be readable after recovery); then queries the server (STATS, the
/// depth-1 round trips) and shuts it down.
fn server_pass(
    cfg: &RunConfig,
    attempted: &mut u64,
    failed: &mut u64,
    notes: &mut Vec<String>,
) -> ServerSide {
    let mut rig = Rig::build(WorkloadId::ServePipe, &cfg.scale, rig_seed(cfg.seed, 1));
    let mut steps = vec![Step::Measure(WindowKind::Warmup); 4];
    steps.extend([Step::Measure(WindowKind::Throughput)].repeat(SERVER_WINDOWS as usize));
    steps.extend([Step::Traced { sampled: false }].repeat(SERVER_WINDOWS as usize));
    let plan = run_plan(&rig, &steps);
    *attempted += plan.attempted;
    *failed += plan.failed;
    apply_audit(&rig.audit(&plan.shadow, None), failed, notes);

    let traced_ops: u64 = plan.traced.iter().map(|(w, _)| w.ops).sum();
    let mut t = LayerTimes::default();
    for (_, times) in &plan.traced {
        t.add(times);
    }
    let mut side = ServerSide {
        pipe_ops_per_s: best_rate(&plan.windows),
        client_send_ns_per_req: ratio(t.send_ns, traced_ops),
        client_recv_ns_per_req: ratio(t.recv_ns, traced_ops),
        ..ServerSide::default()
    };
    let addr = rig.server_addr().expect("the served store has a server");
    match KvClient::connect(addr) {
        Ok(mut client) => {
            // STATS first, so the percentiles describe the pipelined load
            // and not the depth-1 probes that follow.
            match client.stats() {
                Ok(report) => {
                    side.service_p50_us = report.latency_p50_ns as f64 / 1e3;
                    side.service_p99_us = report.latency_p99_ns as f64 / 1e3;
                }
                Err(e) => notes.push(format!("STATS failed: {e}")),
            }
            let speed = CALIB_REF_NS / Calibrator::default().run();
            let start = Instant::now();
            let mut ok = 0;
            for key in 0..RTT_CALLS as u64 {
                ok += u64::from(client.call(Request::Get { key }).is_ok());
            }
            if ok > 0 {
                side.rtt_depth1_us = start.elapsed().as_nanos() as f64 / ok as f64 / 1e3 * speed;
            }
        }
        Err(e) => notes.push(format!("second connection failed: {e}")),
    }
    if let Some(stats) = rig.shutdown_server() {
        // The probes were one-request batches; take them out again.
        let batches = stats.batches.saturating_sub(RTT_CALLS as u64 + 1);
        let requests = stats.requests.saturating_sub(RTT_CALLS as u64 + 1);
        side.mean_batch = ratio(requests, batches);
        side.flushes_per_batch = ratio(stats.flushes, batches);
        side.shed_batches = stats.shed_batches as f64;
        side.protocol_errors = stats.protocol_errors as f64;
        if stats.shed_batches + stats.protocol_errors > 0 {
            *failed += stats.shed_batches + stats.protocol_errors;
            notes.push(format!("server shed or dropped work: {stats:?}"));
        }
    }
    side
}

/// `--trace 1`.
pub fn per_layer(cfg: &RunConfig) -> Outcome {
    let id = cfg.id;
    let seed = rig_seed(cfg.seed, 0);
    let windows = (cfg.scale.windows_per_second * cfg.seconds / PASS_SHARE / 2).max(1) * 2;
    let mut notes = Vec::new();

    // Tracing off: the reference the traced pass is compared against.
    let reference = build_and_measure(cfg, seed, windows);
    let (mut attempted, mut failed) = (reference.plan.attempted, reference.plan.failed);
    let untraced = summarise(&reference.plan.windows);
    drop(reference);

    // Tracing on, on a rebuilt workload.
    set_level(TraceLevel::Counters);
    let rig = Rig::build(id, &cfg.scale, seed);
    let warmup = cfg.scale.warmup_windows;
    let mut steps = vec![Step::Measure(WindowKind::Warmup); warmup as usize];
    steps.extend((0..windows).map(|i| Step::Traced {
        sampled: i == windows / 2,
    }));
    let plan = run_plan(&rig, &steps);
    set_level(TraceLevel::Off);
    attempted += plan.attempted;
    failed += plan.failed;

    let traced_windows: Vec<Window> = plan.traced.iter().map(|(w, _)| w.clone()).collect();
    let ops: u64 = traced_windows.iter().map(|w| w.ops).sum();
    let per_op = |x: u64| x as f64 / ops as f64;
    let mut t = LayerTimes::default();
    for (_, times) in &plan.traced {
        t.add(times);
    }
    // Counter deltas over the traced windows (the warm-up excluded).
    let (first, last) = (warmup as usize, steps.len());
    let p: PmemStats = plan.pmem_marks[last].since(&plan.pmem_marks[first]);
    let n = NvmWait::of(&p, &rig.mem.config().latency);
    let b: BreakdownSnapshot = plan.breakdown_marks[last].since(&plan.breakdown_marks[first]);

    if !plan.sampled_spans.is_empty() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{}-trace.json", id.name()));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, chrome_trace_json(&plan.sampled_spans)));
        match written {
            Ok(()) => notes.push(format!("sampled window written to {}", path.display())),
            Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
        }
    }

    let audit = rig.audit(&plan.shadow, None);
    apply_audit(&audit, &mut failed, &mut notes);
    let load_factor = rig.kv_load_factor();
    drop(rig);
    let server = server_pass(cfg, &mut attempted, &mut failed, &mut notes);

    let nondurable = bank_1t_ops_per_s(cfg, Some(EngineKind::NonDurable));
    let crafty = bank_1t_ops_per_s(cfg, None);

    // Which crate owns the transaction body decides where its self time goes.
    let body_self = per_op(t.body_ns.saturating_sub(t.txnops_ns));
    let body_calls = per_op(t.txnops_calls);
    let body_runs = per_op(t.body_runs);
    let bank_body = matches!(id, WorkloadId::Bank1t | WorkloadId::BankAborts);
    let kv_body = !bank_body;
    let only = |applies: bool, x: f64| if applies { x } else { 0.0 };

    let commit_ns = per_op(t.execute_ns.saturating_sub(t.body_ns));
    let phases = b.total_phase_cycles();
    let share = |ph: &[TxnPhase]| ratio(ph.iter().map(|p| b.phase_cycles(*p)).sum(), phases);
    let done = |path| ratio(b.completions(path), b.total_persistent());
    let hw = |o| b.hw(o);

    let metrics: Vec<Metric> = vec![
        ("workloads.gen_ns_per_op", per_op(t.gen_ns), "ns"),
        ("workloads.body_ns_per_op", only(bank_body, body_self), "ns"),
        (
            "workloads.txnops_calls_per_op",
            only(bank_body, body_calls),
            "count",
        ),
        (
            "workloads.body_runs_per_op",
            only(bank_body, body_runs),
            "count",
        ),
        ("kv.body_ns_per_op", only(kv_body, body_self), "ns"),
        ("kv.txnops_calls_per_op", only(kv_body, body_calls), "count"),
        ("kv.body_runs_per_op", only(kv_body, body_runs), "count"),
        ("kv.load_factor", load_factor, "ratio"),
        ("core.execute_ns_per_op", per_op(t.execute_ns), "ns"),
        ("core.commit_ns_per_op", commit_ns, "ns"),
        ("core.sw_ns_per_op", commit_ns - per_op(n.total_ns()), "ns"),
        ("core.phase_log_share", share(&[TxnPhase::Log]), "ratio"),
        ("core.phase_redo_share", share(&[TxnPhase::Redo]), "ratio"),
        (
            "core.phase_validate_share",
            share(&[TxnPhase::Validate]),
            "ratio",
        ),
        (
            "core.phase_fallback_share",
            share(&[TxnPhase::Sgl]),
            "ratio",
        ),
        (
            "core.phase_drain_share",
            share(&[TxnPhase::Drain, TxnPhase::Fence]),
            "ratio",
        ),
        ("core.redo_ratio", done(CompletionPath::Redo), "ratio"),
        (
            "core.validate_ratio",
            done(CompletionPath::Validate),
            "ratio",
        ),
        ("core.fallback_ratio", done(CompletionPath::Sgl), "ratio"),
        (
            "core.readonly_ratio",
            done(CompletionPath::ReadOnly),
            "ratio",
        ),
        ("core.writes_per_txn", b.writes_per_txn(), "count"),
        ("core.recover_ms", audit.recover_ms, "ms"),
        (
            "core.recover_sequences",
            audit.recover_sequences as f64,
            "count",
        ),
        ("core.vs_nondurable_ratio", crafty / nondurable, "ratio"),
        ("htm.attempts_per_op", per_op(b.total_hardware()), "count"),
        (
            "htm.commit_ratio",
            ratio(hw(HwTxnOutcome::Commit), b.total_hardware()),
            "ratio",
        ),
        (
            "htm.conflict_per_op",
            per_op(hw(HwTxnOutcome::Conflict)),
            "count",
        ),
        (
            "htm.capacity_per_op",
            per_op(hw(HwTxnOutcome::Capacity)),
            "count",
        ),
        (
            "htm.explicit_per_op",
            per_op(hw(HwTxnOutcome::Explicit)),
            "count",
        ),
        ("htm.access_ns", ratio(t.txnops_ns, t.txnops_calls), "ns"),
        ("htm.txn_ns", htm_txn_ns(), "ns"),
        ("pmem.nvm_drain_ns_per_op", per_op(n.drain_ns), "ns"),
        ("pmem.nvm_range_ns_per_op", per_op(n.range_ns), "ns"),
        ("pmem.nvm_line_ns_per_op", per_op(n.line_ns), "ns"),
        ("pmem.nvm_word_ns_per_op", per_op(n.word_ns), "ns"),
        ("pmem.drains_per_op", per_op(p.drains), "count"),
        ("pmem.flushes_per_op", per_op(p.flushes), "count"),
        (
            "pmem.lines_persisted_per_op",
            per_op(p.lines_persisted),
            "count",
        ),
        ("pmem.write_amplification", p.write_amplification(), "ratio"),
        ("pmem.lines_per_range", p.lines_per_range(), "count"),
        (
            "pmem.overflow_writebacks",
            p.overflow_writebacks as f64,
            "count",
        ),
        ("pmem.evictions", p.evictions as f64, "count"),
        ("pmem.persist_sw_ns", persist_sw_ns(), "ns"),
        ("server.codec_ns_per_req", codec_ns_per_req(), "ns"),
        ("server.pipe_ops_per_s", server.pipe_ops_per_s, "op/s"),
        ("server.rtt_depth1_us", server.rtt_depth1_us, "us"),
        (
            "server.client_send_ns_per_req",
            server.client_send_ns_per_req,
            "ns",
        ),
        (
            "server.client_recv_ns_per_req",
            server.client_recv_ns_per_req,
            "ns",
        ),
        ("server.mean_batch", server.mean_batch, "count"),
        (
            "server.flushes_per_batch",
            server.flushes_per_batch,
            "count",
        ),
        ("server.service_p50_us", server.service_p50_us, "us"),
        ("server.service_p99_us", server.service_p99_us, "us"),
        ("server.shed_batches", server.shed_batches, "count"),
        ("server.protocol_errors", server.protocol_errors, "count"),
        ("baselines.nondurable_ops_per_s", nondurable, "op/s"),
        (
            "baselines.nvhtm_ops_per_s",
            bank_1t_ops_per_s(cfg, Some(EngineKind::NvHtm)),
            "op/s",
        ),
        (
            "baselines.dudetm_ops_per_s",
            bank_1t_ops_per_s(cfg, Some(EngineKind::DudeTm)),
            "op/s",
        ),
        ("stats.hist_record_ns", hist_record_ns(), "ns"),
        ("harness.calib_ns", untraced.calib_ns, "ns"),
        ("harness.raw_ops_per_s", untraced.raw_ops_per_s, "op/s"),
        ("harness.window_cv", untraced.window_cv, "ratio"),
        ("harness.p99_us", untraced.p99_us, "us"),
        (
            "harness.trace_overhead_ratio",
            best_rate(&traced_windows) / untraced.ops_per_s,
            "ratio",
        ),
        (
            "harness.ledger_residual_ratio",
            ratio(t.busy_ns.saturating_sub(t.attributed_ns()), t.busy_ns),
            "ratio",
        ),
        // End-to-end in kind, but exactly 0 on `kv-read` (and 0 is the
        // expected `fail_ratio` everywhere), which a gated metric may not be.
        ("nvm_ns_per_op", per_op(n.total_ns()), "ns"),
        ("pm_bytes_per_op", per_op(p.words_persisted * 8), "B"),
        ("fail_ratio", ratio(failed, attempted), "ratio"),
    ];
    Outcome {
        metrics,
        attempted,
        failed,
        notes,
    }
}
