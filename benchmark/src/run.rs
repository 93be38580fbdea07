//! One benchmark run: the end-to-end pass (`--trace 0`) and the per-layer
//! pass (`--trace 1`).

use std::time::Instant;

use crate::driver::{measured_plan, run_plan, PlanResult};
use crate::estimator::{summarise, Calibrator, WindowKind, CALIB_REF_NS};
use crate::workloads::{AuditReport, Rig, Scale, WorkloadId};

/// What to run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    pub id: WorkloadId,
    pub seed: u64,
    pub seconds: u64,
    pub scale: Scale,
}

/// An edit of the audit's crash image (see `Rig::audit`).
pub type Tamper<'a> = dyn Fn(&Rig, &mut crafty_pmem::PersistentImage) + 'a;

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The result of a run, ready to print.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Audit violations and other things worth a line on stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    /// A run whose outputs were wrong exits non-zero.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.failed != 0)
    }
}

/// A measured phase on a freshly built rig.
pub struct Measured {
    pub rig: Rig,
    pub plan: PlanResult,
    /// Normalised set-up time of this rig, seconds.
    pub setup_s: f64,
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Builds the workload from `seed`, warms it up and runs `measured_windows`
/// measured windows. Set-up time runs from before `MemorySpace::new` to the
/// end of the warm-up and is rescaled by the calibrations around it.
pub fn build_and_measure(cfg: &RunConfig, seed: u64, measured_windows: u64) -> Measured {
    let mut calib = Calibrator::default();
    let calib_before = calib.run();
    let started = Instant::now();
    let rig = Rig::build(cfg.id, &cfg.scale, seed);
    let steps = measured_plan(cfg.scale.warmup_windows, measured_windows);
    let plan = run_plan(&rig, &steps);
    let warmup_done = plan.warmup_done.expect("every plan warms up");
    // The first measured window calibrated right after the warm-up.
    let calib_after = plan
        .windows
        .iter()
        .find(|w| w.kind != WindowKind::Warmup)
        .expect("every plan measures")
        .calib_ns;
    let speed = CALIB_REF_NS / ((calib_before + calib_after) / 2.0);
    let setup_s = (warmup_done - started).as_secs_f64() * speed;
    Measured { rig, plan, setup_s }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Folds an audit into the failure count and the notes.
pub fn apply_audit(audit: &AuditReport, failed: &mut u64, notes: &mut Vec<String>) {
    *failed += audit.wrong;
    notes.extend(audit.notes.iter().cloned());
}

/// Seed of rig `index` of a run: every rig draws its own keys and op stream,
/// so a run's numbers also average over where the hot keys happen to land.
pub fn rig_seed(seed: u64, index: u64) -> u64 {
    crafty_common::mix64(seed).wrapping_add(index)
}

/// `--trace 0`: builds the workload `rigs` times with tracing off, measures
/// a share of the windows on each, audits the last one, and summarises the
/// windows of all rigs together. Throughput differs by a few percent
/// between two builds of the same workload in one process (where the
/// allocator and the kernel happen to put things) — more than between the
/// windows of one build — so a run samples several builds, and `setup_s`
/// is the median of their set-up times.
pub fn end_to_end(cfg: &RunConfig) -> Outcome {
    end_to_end_with(cfg, None)
}

/// [`end_to_end`] with the audit's crash image edited by `tamper` before
/// recovery: how the tests show that a green audit means something.
pub fn end_to_end_with(cfg: &RunConfig, tamper: Option<&Tamper>) -> Outcome {
    let rigs = cfg.scale.rigs(cfg.id);
    let per_rig = cfg.scale.measured_windows(cfg.id, cfg.seconds);
    let mut windows = Vec::new();
    let mut setups = Vec::new();
    let (mut attempted, mut failed, mut notes) = (0, 0, Vec::new());
    let mut rss_mb = 0.0;
    for index in 0..rigs {
        let mut m = build_and_measure(cfg, rig_seed(cfg.seed, index), per_rig);
        attempted += m.plan.attempted;
        failed += m.plan.failed;
        setups.push(m.setup_s);
        if index + 1 == rigs {
            // Peak memory of serving the workload; the audit's crash image
            // and rebooted space are the harness's, not the system's.
            rss_mb = peak_rss_mb();
            let audit = m.rig.audit(&m.plan.shadow, tamper);
            apply_audit(&audit, &mut failed, &mut notes);
            notes.push(format!(
                "audit checked {} keys or invariants; op stream digest {:016x}",
                audit.checked, m.plan.stream_digest
            ));
        }
        windows.append(&mut m.plan.windows);
    }
    let host = summarise(&windows);
    notes.push(format!(
        "{rigs} rigs x {per_rig} windows; {} latency samples; raw {:.0} op/s; calib {:.4} ns/iter; window cv {:.4}",
        host.latency_samples, host.raw_ops_per_s, host.calib_ns, host.window_cv,
    ));
    Outcome {
        metrics: vec![
            ("ops_per_s", host.ops_per_s, "op/s"),
            ("p50_us", host.p50_us, "us"),
            ("p90_us", host.p90_us, "us"),
            ("rss_mb", rss_mb, "MiB"),
            ("setup_s", median(&setups), "s"),
        ],
        attempted,
        failed,
        notes,
    }
}
