//! The event-trace dump behind `figures trace`: runs a short traced
//! workload at [`TraceLevel::Events`] and renders every thread's event
//! ring in the Chrome trace-event JSON format, loadable in
//! `chrome://tracing` or Perfetto.
//!
//! Every ring event becomes an instant (`"ph": "i"`) on its thread's
//! track, and each `txn-begin`/`txn-end` pair additionally synthesizes a
//! duration slice (`"ph": "X"`) spanning the transaction, so the timeline
//! shows transactions as bars with their aborts, log appends, drains, and
//! fences dotted inside. Timestamps are the trace clock's virtual
//! nanoseconds converted to the format's microseconds.
//!
//! The rings are flight recorders of [`trace::DEFAULT_RING_CAPACITY`]
//! events per thread: a long run overwrites its oldest events, and the
//! dump reports per-thread drop counts in the metadata rather than
//! pretending the window was complete.

use std::sync::Arc;

use crafty_common::trace::{self, TraceLevel};
use crafty_common::TraceEventKind;
use crafty_pmem::MemorySpace;
use crafty_stats::Json;
use crafty_workloads::{build_engine, run_mix, BankWorkload, Contention, EngineKind, Workload};

use crate::HarnessConfig;

/// Parameters of one trace capture.
#[derive(Clone, Debug)]
pub struct TraceDumpConfig {
    /// Engine to trace.
    pub engine: EngineKind,
    /// Worker threads.
    pub threads: usize,
    /// Transactions per thread — keep this small enough for the ring
    /// capacity that the flight-recorder window covers the run.
    pub txns_per_thread: u64,
}

impl TraceDumpConfig {
    /// A capture small enough to read by eye: Crafty, two threads, a few
    /// hundred transactions inside a 4096-event window.
    pub fn quick() -> Self {
        TraceDumpConfig {
            engine: EngineKind::Crafty,
            threads: 2,
            txns_per_thread: 200,
        }
    }
}

/// Runs the capture and returns the Chrome trace-event JSON. The trace
/// level is restored to its previous value before returning.
pub fn run_trace_dump(dump: &TraceDumpConfig, cfg: &HarnessConfig) -> String {
    let events_armed = trace::LevelGuard::arm(TraceLevel::Events);
    trace::reset_rings();

    let mem = Arc::new(MemorySpace::new(cfg.pmem_config(dump.threads)));
    let engine = build_engine(dump.engine, &mem, dump.threads);
    let workload = BankWorkload::paper(Contention::Medium, dump.threads);
    let mix = workload.prepare(&mem);
    run_mix(
        engine.as_ref(),
        mix.as_ref(),
        dump.threads,
        dump.txns_per_thread,
        cfg.seed,
    );

    let mut events = Vec::new();
    let mut drops = Vec::new();
    for tid in 0..dump.threads {
        let snapshot = trace::ring_snapshot(tid);
        drops.push(
            Json::object()
                .with("tid", Json::from(tid as u64))
                .with("events", Json::from(snapshot.len() as u64))
                .with("dropped", Json::from(trace::ring_dropped(tid))),
        );
        // A transaction's slice spans its begin..end pair; an unmatched
        // begin (its end fell off the ring, or the txn was in flight at
        // capture) is dropped rather than drawn with an invented length.
        let mut open_begin: Option<u64> = None;
        for e in &snapshot {
            match e.kind {
                TraceEventKind::TxnBegin => open_begin = Some(e.t_ns),
                TraceEventKind::TxnEnd => {
                    if let Some(begin_ns) = open_begin.take() {
                        events.push(
                            Json::object()
                                .with("name", Json::from("txn"))
                                .with("ph", Json::from("X"))
                                .with("pid", Json::from(1u64))
                                .with("tid", Json::from(tid as u64))
                                .with("ts", Json::Float(begin_ns as f64 / 1e3))
                                .with(
                                    "dur",
                                    Json::Float((e.t_ns.saturating_sub(begin_ns)) as f64 / 1e3),
                                )
                                .with("args", Json::object().with("txn", Json::from(e.arg))),
                        );
                    }
                }
                kind => {
                    events.push(
                        Json::object()
                            .with("name", Json::from(kind.label()))
                            .with("ph", Json::from("i"))
                            .with("s", Json::from("t"))
                            .with("pid", Json::from(1u64))
                            .with("tid", Json::from(tid as u64))
                            .with("ts", Json::Float(e.t_ns as f64 / 1e3))
                            .with("args", Json::object().with("arg", Json::from(e.arg))),
                    );
                }
            }
        }
    }
    drop(events_armed);

    Json::object()
        .with("traceEvents", Json::Array(events))
        .with("displayTimeUnit", Json::from("ns"))
        .with(
            "otherData",
            Json::object()
                .with("engine", Json::from(dump.engine.label()))
                .with("workload", Json::from("bank (medium contention)"))
                .with("clock", Json::from("virtual ns since trace epoch"))
                .with("rings", Json::Array(drops)),
        )
        .render_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crafty_pmem::LatencyModel;

    #[test]
    fn dump_contains_slices_and_instants_for_every_thread() {
        let _serial = crate::trace_test_lock();
        let dump = TraceDumpConfig {
            engine: EngineKind::Crafty,
            threads: 2,
            txns_per_thread: 40,
        };
        let cfg = HarnessConfig {
            thread_counts: vec![2],
            txns_per_thread: 40,
            latency: LatencyModel::instant(),
            persistent_words: 1 << 20,
            seed: 11,
        };
        let json = run_trace_dump(&dump, &cfg);
        let doc = Json::parse(&json).expect("dump parses as JSON");
        let events = doc
            .get("traceEvents")
            .map(Json::items)
            .unwrap_or(&[])
            .to_vec();
        assert!(!events.is_empty());
        // Both threads produced transaction slices.
        for tid in 0..2u64 {
            assert!(
                events.iter().any(|e| {
                    e.get("ph").and_then(Json::as_str) == Some("X")
                        && e.get("tid").and_then(Json::as_u64) == Some(tid)
                }),
                "no txn slice for tid {tid}"
            );
        }
        // The lifecycle instants made it through (Crafty logs every txn).
        for name in ["undo-append", "htm-attempt"] {
            assert!(
                events.iter().any(|e| {
                    e.get("ph").and_then(Json::as_str) == Some("i")
                        && e.get("name").and_then(Json::as_str) == Some(name)
                }),
                "no `{name}` instant in the dump"
            );
        }
        // Ring metadata is present for both threads.
        let rings = doc
            .get("otherData")
            .and_then(|o| o.get("rings"))
            .map(Json::items)
            .unwrap_or(&[])
            .len();
        assert_eq!(rings, 2);
    }
}
