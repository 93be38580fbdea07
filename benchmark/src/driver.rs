//! The window driver: runs a plan of fixed-count windows on the caller's
//! thread, calibrating before each window and bracketing it with
//! `PmemStats` snapshots.

use std::time::Instant;

use crafty_common::BreakdownSnapshot;
use crafty_pmem::PmemStats;

use crate::estimator::{Calibrator, LatencySummary, NvmWait, Window, WindowKind};
use crate::trace::{LayerTimes, Span, TraceSink};
use crate::workloads::Rig;

/// What drives a workload, window by window.
pub trait Worker {
    /// Generates the next window's inputs from the seed. Untimed.
    fn prepare(&mut self);
    /// Runs the prepared ops back to back.
    fn run_block(&mut self);
    /// Runs the prepared ops, appending each one's latency in ns.
    fn run_timed(&mut self, latencies_ns: &mut Vec<u64>);
    /// Runs the prepared ops under the tracing decorator.
    fn run_traced(&mut self, sink: &mut TraceSink);
    /// Checks the window's results against the shadow model and advances
    /// it. Untimed. Returns `(ops attempted, ops failed)`.
    fn check(&mut self) -> (u64, u64);
    /// A running digest of every input generated so far.
    fn stream_digest(&self) -> u64;
    /// The shadow model after the last window: expected value by key rank
    /// (empty for workloads audited by an invariant instead).
    fn into_shadow(self: Box<Self>) -> Vec<u64>;
}

/// How a window runs; [`WindowKind`] says what it feeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    Measure(WindowKind),
    /// A window of the traced pass; `sampled` keeps its spans.
    Traced {
        sampled: bool,
    },
}

/// What a plan produced.
pub struct PlanResult {
    /// One entry per `Step::Measure`, in plan order.
    pub windows: Vec<Window>,
    /// One entry per `Step::Traced`: the window (as a T-window) and its
    /// span totals.
    pub traced: Vec<(Window, LayerTimes)>,
    /// Spans of the sampled window.
    pub sampled_spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
    /// When the last warm-up window ended (set-up ends here).
    pub warmup_done: Option<Instant>,
    /// The shadow model after the last window.
    pub shadow: Vec<u64>,
    /// Digest of every input generated: the op stream's identity.
    pub stream_digest: u64,
    /// `PmemStats` and the engine's breakdown counters at every step
    /// boundary (`steps + 1` entries each).
    pub pmem_marks: Vec<PmemStats>,
    pub breakdown_marks: Vec<BreakdownSnapshot>,
}

/// Runs `plan` on the caller's thread, snapshotting `PmemStats` and the
/// engine's breakdown at every window boundary, so each window's delta
/// holds exactly that window's traffic.
pub fn run_plan(rig: &Rig, plan: &[Step]) -> PlanResult {
    let (mem, engine) = (&rig.mem, &rig.engine);
    let model = mem.config().latency;
    let mut w = rig.worker();
    let mut calib = Calibrator::default();
    let mut result = PlanResult {
        windows: Vec::new(),
        traced: Vec::new(),
        sampled_spans: Vec::new(),
        attempted: 0,
        failed: 0,
        warmup_done: None,
        shadow: Vec::new(),
        stream_digest: 0,
        pmem_marks: vec![mem.stats()],
        breakdown_marks: vec![engine.breakdown()],
    };
    for step in plan {
        let gen_start = Instant::now();
        w.prepare();
        let gen_ns = gen_start.elapsed().as_nanos() as u64;
        let calib_ns = calib.run();
        close_previous(&mut result, calib_ns);
        let mut latencies_ns = Vec::new();
        let mut sink = TraceSink::default();
        let start = Instant::now();
        match step {
            Step::Measure(WindowKind::Latency) => w.run_timed(&mut latencies_ns),
            Step::Measure(_) => w.run_block(),
            Step::Traced { sampled } => {
                sink.spans = sampled.then(Vec::new);
                w.run_traced(&mut sink);
            }
        }
        let end = Instant::now();
        if *step == Step::Measure(WindowKind::Warmup) {
            result.warmup_done = Some(end);
        }
        let before = result.pmem_marks[result.pmem_marks.len() - 1];
        result.pmem_marks.push(mem.stats());
        result.breakdown_marks.push(engine.breakdown());
        let (attempted, failed) = w.check();
        result.attempted += attempted;
        result.failed += failed;
        let window = Window {
            kind: match step {
                Step::Measure(kind) => *kind,
                Step::Traced { .. } => WindowKind::Throughput,
            },
            ops: attempted,
            wall_ns: (end - start).as_nanos() as f64,
            nvm: NvmWait::of(
                &result.pmem_marks[result.pmem_marks.len() - 1].since(&before),
                &model,
            ),
            calib_ns,
            // Filled in by the next calibration.
            calib_after_ns: calib_ns,
            latency: LatencySummary::of(&mut latencies_ns),
        };
        match step {
            Step::Measure(_) => result.windows.push(window),
            Step::Traced { .. } => {
                sink.times.busy_ns = (end - start).as_nanos() as u64;
                sink.times.gen_ns = gen_ns;
                if let Some(spans) = sink.spans {
                    result.sampled_spans = spans;
                }
                result.traced.push((window, sink.times));
            }
        }
    }
    close_previous(&mut result, calib.run());
    result.stream_digest = w.stream_digest();
    result.shadow = w.into_shadow();
    result
}

/// Records `calib_ns` as the calibration after the window run last.
fn close_previous(result: &mut PlanResult, calib_ns: f64) {
    let last = match (result.windows.last_mut(), result.traced.last_mut()) {
        (_, Some((window, _))) => Some(window),
        (window, None) => window,
    };
    if let Some(window) = last {
        window.calib_after_ns = calib_ns;
    }
}

/// The plan of a measured phase: `warmup` warm-up windows, then `measured`
/// windows, alternately T- and L-windows. (One L-window in five was tried
/// first; the tail percentile needs the samples more than `ops_per_s` does.)
pub fn measured_plan(warmup: u64, measured: u64) -> Vec<Step> {
    let mut plan = vec![Step::Measure(WindowKind::Warmup); warmup as usize];
    plan.extend((0..measured).map(|i| {
        Step::Measure(if i % 2 == 1 {
            WindowKind::Latency
        } else {
            WindowKind::Throughput
        })
    }));
    plan
}
