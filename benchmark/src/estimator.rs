//! The host-speed-normalising estimator every host-time metric goes through.
//!
//! Two things move this host's speed under identical code. Its clock steps
//! between frequency levels 27% apart and stays on one for seconds; and for
//! stretches of 0.3–1 s, which at bad times add up to three quarters of a
//! run, something outside the virtual machine slows cache-missing and
//! branchy code by 20–40% while an ALU loop loses 2%. A raw mean throughput
//! moves by 11–15% between runs. The estimator removes both:
//!
//! 1. **Fixed-count windows.** The measured phase is a fixed number of
//!    windows of a fixed op count, so every counter repeats exactly.
//! 2. **Per-window calibration.** Before each window the driver runs
//!    [`Calibrator::run`], a kernel whose speed tracks the clock level;
//!    `f = CALIB_REF_NS / c` rescales the window's *software* time to the
//!    reference speed. The modelled NVM wait is a wall-clock spin that does
//!    not scale with host speed, so it is left as it is:
//!    `T' = M + (T − M)·f`. A window whose calibration disagrees with the
//!    next one's by more than [`STABLE_WITHIN`] ran across a step and is
//!    left out.
//! 3. **Best fortieth across windows.** The slow stretches only ever slow a
//!    window, and the windows between them agree within 1%, so the reported
//!    value is the boundary of the best [`BEST_SHARE`] of the windows of
//!    all the run's rigs. (Measured on six runs per workload in a bad
//!    hour: the spread between runs fell with every step from the median
//!    over the best quartile, tenth and twentieth to the best fiftieth —
//!    `bank-1t` 11%, 7.7%, 3.1%, 2.2%, 1.8% — because a bad run leaves
//!    fewer than a tenth of its windows undisturbed.)

use crafty_pmem::{LatencyModel, PmemStats};

/// Reference speed of the calibration kernel, in ns per iteration: what this
/// host measures in its fast mode. A constant, so that numbers from
/// different runs, commits and host modes share one scale.
pub const CALIB_REF_NS: f64 = 1.9;

/// Iterations of one calibration (≈ 0.5 ms), split into [`CALIB_CHUNKS`]
/// separately timed chunks.
pub const CALIB_ITERS: u64 = 250_000;

/// A calibration reports its fastest chunk: a preemption during the kernel
/// would otherwise read as a slow host and make the following window look
/// *fast* after normalisation — the one direction best-share selection
/// cannot reject.
pub const CALIB_CHUNKS: u64 = 5;

/// Words of the calibration table (32 KiB: L1-resident).
const TABLE_WORDS: usize = 4096;

/// The calibration kernel: xorshift64 stepping `table[x & 4095] += x ^ i`.
/// Integer ALU work plus L1 loads and stores, like the simulators' hot
/// paths, and no call into the repository — so a change to the code under
/// test can never move the yardstick.
pub struct Calibrator {
    table: Vec<u64>,
    state: u64,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator {
            table: vec![0; TABLE_WORDS],
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }
}

impl Calibrator {
    /// Runs the kernel and returns ns per iteration (fastest chunk).
    pub fn run(&mut self) -> f64 {
        let per_chunk = CALIB_ITERS / CALIB_CHUNKS;
        let mut best = f64::INFINITY;
        for _ in 0..CALIB_CHUNKS {
            let start = std::time::Instant::now();
            let mut x = self.state;
            for i in 0..per_chunk {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let slot = &mut self.table[(x as usize) & (TABLE_WORDS - 1)];
                *slot = slot.wrapping_add(x ^ i);
            }
            self.state = std::hint::black_box(x);
            let ns = start.elapsed().as_nanos() as f64 / per_chunk as f64;
            best = best.min(ns);
        }
        std::hint::black_box(&self.table);
        best
    }
}

/// The modelled NVM wait of a [`PmemStats`] delta, split by
/// [`LatencyModel`] term. Exactly what `MemorySpace` spun for: every drain
/// pays `drain_ns`; every ranged flush (and every overflow write-back, a
/// one-line range) pays the range base plus its lines; every word copied
/// pays the word cost. Spontaneous evictions are asynchronous and free, and
/// the benchmark runs the strict crash model, which has none.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NvmWait {
    pub drain_ns: u64,
    pub range_ns: u64,
    pub line_ns: u64,
    pub word_ns: u64,
}

impl NvmWait {
    pub fn of(delta: &PmemStats, model: &LatencyModel) -> Self {
        NvmWait {
            drain_ns: delta.drains * model.drain_ns,
            range_ns: (delta.flush_ranges + delta.overflow_writebacks) * model.clwb_range_ns,
            line_ns: (delta.range_lines + delta.overflow_writebacks) * model.clwb_line_ns,
            word_ns: delta.words_persisted * model.clwb_word_ns,
        }
    }

    pub fn total_ns(&self) -> u64 {
        self.drain_ns + self.range_ns + self.line_ns + self.word_ns
    }
}

/// Share of a run's windows whose boundary is reported: the 14th best of
/// the 522 throughput windows of a 22 s bank run, before the stability
/// filter.
pub const BEST_SHARE: f64 = 1.0 / 40.0;

/// How far the calibrations before and after a window may differ for the
/// window to count: within a clock level they agree to 0.2%, and
/// neighbouring levels are 3% or more apart.
pub const STABLE_WITHIN: f64 = 0.01;

/// What kind of window this is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WindowKind {
    /// Part of set-up: runs like a T-window, reported nowhere.
    Warmup,
    /// Timed as one block: feeds `ops_per_s`.
    Throughput,
    /// Every op timed individually: feeds `p50_us` / `p90_us`, never
    /// throughput, so the per-op clock reads cost throughput nothing.
    Latency,
}

/// One measured window, as the drivers record it.
#[derive(Clone, Debug)]
pub struct Window {
    pub kind: WindowKind,
    pub ops: u64,
    /// Wall time from the window's first op to its last.
    pub wall_ns: f64,
    /// Modelled NVM wait of the window's `PmemStats` delta.
    pub nvm: NvmWait,
    /// Calibration result (ns/iter) before the window ...
    pub calib_ns: f64,
    /// ... and after it (the next window's, or the plan's closing one).
    pub calib_after_ns: f64,
    /// Raw per-op latency percentiles in ns and the sample count behind
    /// them (L-windows only; the samples themselves are not kept).
    pub latency: Option<LatencySummary>,
}

/// The per-op latencies of one L-window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LatencySummary {
    pub samples: u64,
    pub p50_ns: u64,
    pub p90_ns: u64,
    pub p99_ns: u64,
}

impl LatencySummary {
    /// Summarises one window's raw latencies (sorts them in place).
    pub fn of(latencies_ns: &mut [u64]) -> Option<LatencySummary> {
        if latencies_ns.is_empty() {
            return None;
        }
        latencies_ns.sort_unstable();
        Some(LatencySummary {
            samples: latencies_ns.len() as u64,
            p50_ns: quantile_sorted(latencies_ns, 0.50),
            p90_ns: quantile_sorted(latencies_ns, 0.90),
            p99_ns: quantile_sorted(latencies_ns, 0.99),
        })
    }
}

impl Window {
    /// `f_w`: how much faster (`> 1`) or slower the reference host is than
    /// the host was around this window.
    pub fn speed_factor(&self) -> f64 {
        CALIB_REF_NS / self.calib_ns
    }

    /// `T'_w = M_w + (T_w − M_w)·f_w`.
    pub fn normalised_wall_ns(&self) -> f64 {
        // A window can never be shorter than the spin it contains; the
        // `min` only guards the subtraction against clock granularity.
        let nvm = (self.nvm.total_ns() as f64).min(self.wall_ns);
        nvm + (self.wall_ns - nvm) * self.speed_factor()
    }

    /// Whether the clock level held from the calibration before the window
    /// to the one after it.
    pub fn is_stable(&self) -> bool {
        (self.calib_after_ns - self.calib_ns).abs() <= STABLE_WITHIN * self.calib_ns
    }

    /// Normalised ops per second of this window.
    pub fn rate(&self) -> f64 {
        self.ops as f64 * 1e9 / self.normalised_wall_ns()
    }

    /// A raw latency `ℓ` of this window, normalised:
    /// `ℓ' = min(ℓ, m_w) + max(0, ℓ − m_w)·f_w` with `m_w = M_w / ops_w`,
    /// the mean modelled NVM wait per op.
    pub fn normalised_latency_ns(&self, raw_ns: u64) -> f64 {
        let raw = raw_ns as f64;
        let m = self.nvm.total_ns() as f64 / self.ops as f64;
        raw.min(m) + (raw - m).max(0.0) * self.speed_factor()
    }
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Which direction is better for a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Boundary of the best [`BEST_SHARE`] of `values`: the 97.5th percentile
/// when higher is better, the 2.5th when lower is.
pub fn best_share(values: &[f64], better: Better) -> f64 {
    assert!(!values.is_empty(), "best share of no windows");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let skip = ((n - 1) as f64 * BEST_SHARE) as usize;
    match better {
        Better::Higher => v[(n - 1) - skip],
        Better::Lower => v[skip],
    }
}

/// The windows of `kind` that count: the stable ones, or all of them when
/// the clock never held still (then the run says so through `window_cv`).
fn counted(windows: &[Window], kind: WindowKind) -> Vec<&Window> {
    let of_kind = || windows.iter().filter(move |w| w.kind == kind);
    let stable: Vec<&Window> = of_kind().filter(|w| w.is_stable()).collect();
    if stable.is_empty() {
        of_kind().collect()
    } else {
        stable
    }
}

/// Best-share normalised throughput over the T-windows of `windows`.
pub fn best_rate(windows: &[Window]) -> f64 {
    let rates: Vec<f64> = counted(windows, WindowKind::Throughput)
        .into_iter()
        .map(Window::rate)
        .collect();
    best_share(&rates, Better::Higher)
}

/// The host-time summary of a measured phase.
#[derive(Clone, Copy, Debug)]
pub struct HostTimes {
    /// Best-share normalised throughput over the T-windows.
    pub ops_per_s: f64,
    /// Best-share normalised per-window median latency, µs.
    pub p50_us: f64,
    /// Best-share normalised per-window 90th percentile, µs.
    pub p90_us: f64,
    /// The same of the 99th percentile: on this host the host's own
    /// interruptions, reported as a diagnostic.
    pub p99_us: f64,
    /// Latency samples behind the percentiles (all L-windows).
    pub latency_samples: u64,
    /// Un-normalised mean throughput over the T-windows, so the size of the
    /// correction is always visible.
    pub raw_ops_per_s: f64,
    /// Coefficient of variation of the normalised per-T-window rates.
    pub window_cv: f64,
    /// Mean calibration result over all windows, ns/iter.
    pub calib_ns: f64,
}

/// Summarises the measured windows (warm-up windows are ignored).
pub fn summarise(windows: &[Window]) -> HostTimes {
    let t = counted(windows, WindowKind::Throughput);
    let l: Vec<(&Window, LatencySummary)> = counted(windows, WindowKind::Latency)
        .into_iter()
        .filter_map(|w| Some((w, w.latency?)))
        .collect();
    assert!(!t.is_empty() && !l.is_empty(), "need T- and L-windows");

    let rates: Vec<f64> = t.iter().map(|w| w.rate()).collect();
    let mean = rates.iter().sum::<f64>() / rates.len() as f64;
    let var = rates.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / rates.len() as f64;
    let raw_ops: u64 = t.iter().map(|w| w.ops).sum();
    let raw_ns: f64 = t.iter().map(|w| w.wall_ns).sum();
    let calibs = t.iter().copied().chain(l.iter().map(|(w, _)| *w));

    let p = |pick: fn(&LatencySummary) -> u64| {
        let per_window: Vec<f64> = l
            .iter()
            .map(|(w, lat)| w.normalised_latency_ns(pick(lat)))
            .collect();
        best_share(&per_window, Better::Lower) / 1e3
    };
    HostTimes {
        ops_per_s: best_share(&rates, Better::Higher),
        p50_us: p(|lat| lat.p50_ns),
        p90_us: p(|lat| lat.p90_ns),
        p99_us: p(|lat| lat.p99_ns),
        latency_samples: l.iter().map(|(_, lat)| lat.samples).sum(),
        raw_ops_per_s: raw_ops as f64 * 1e9 / raw_ns,
        window_cv: var.sqrt() / mean,
        calib_ns: calibs.map(|w| w.calib_ns).sum::<f64>() / (t.len() + l.len()) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic T-window: `sw_ns` of software time at reference speed,
    /// `nvm_ns` of modelled wait, on a host running `slowdown`× slower, whose
    /// calibration reads `calib_slowdown`× slower.
    fn window(sw_ns: f64, nvm_ns: u64, slowdown: f64, calib_slowdown: f64) -> Window {
        Window {
            kind: WindowKind::Throughput,
            ops: 1_000,
            wall_ns: nvm_ns as f64 + sw_ns * slowdown,
            nvm: NvmWait {
                drain_ns: nvm_ns,
                ..NvmWait::default()
            },
            calib_ns: CALIB_REF_NS * calib_slowdown,
            calib_after_ns: CALIB_REF_NS * calib_slowdown,
            latency: None,
        }
    }

    fn latency_window() -> Window {
        Window {
            kind: WindowKind::Latency,
            latency: LatencySummary::of(&mut (1..=100).rev().collect::<Vec<u64>>()),
            ..window(1e6, 0, 1.0, 1.0)
        }
    }

    fn ops_per_s(mut windows: Vec<Window>) -> f64 {
        windows.push(latency_window());
        summarise(&windows).ops_per_s
    }

    #[test]
    fn slow_host_mode_is_normalised_away() {
        let clean = ops_per_s((0..100).map(|_| window(8e6, 4_000_000, 1.0, 1.0)).collect());
        // 40% of the windows run in the 12%-slower mode, and so does their
        // calibration.
        let mixed = ops_per_s(
            (0..100)
                .map(|i| {
                    let s = if i % 5 < 2 { 1.12 } else { 1.0 };
                    window(8e6, 4_000_000, s, s)
                })
                .collect(),
        );
        assert!((mixed / clean - 1.0).abs() < 0.02, "{mixed} vs {clean}");
        // And when the whole run is in the slow mode.
        let slow = ops_per_s(
            (0..100)
                .map(|_| window(8e6, 4_000_000, 1.12, 1.12))
                .collect(),
        );
        assert!((slow / clean - 1.0).abs() < 0.02, "{slow} vs {clean}");
    }

    #[test]
    fn interference_the_calibration_misses_is_rejected_by_the_best_share() {
        let clean = ops_per_s((0..100).map(|_| window(8e6, 4_000_000, 1.0, 1.0)).collect());
        // 20% of the windows are slowed 50% (a neighbour's burst) while the
        // calibration before them saw nothing.
        let noisy = ops_per_s(
            (0..100)
                .map(|i| window(8e6, 4_000_000, if i % 5 == 0 { 1.5 } else { 1.0 }, 1.0))
                .collect(),
        );
        assert!((noisy / clean - 1.0).abs() < 0.02, "{noisy} vs {clean}");
        // And when a bad minute leaves one window in ten undisturbed.
        let bad = ops_per_s(
            (0..100)
                .map(|i| window(8e6, 4_000_000, if i % 10 == 0 { 1.0 } else { 1.3 }, 1.0))
                .collect(),
        );
        assert!((bad / clean - 1.0).abs() < 0.02, "{bad} vs {clean}");
    }

    #[test]
    fn a_window_that_ran_across_a_clock_step_is_left_out() {
        let clean = ops_per_s((0..100).map(|_| window(8e6, 4_000_000, 1.0, 1.0)).collect());
        // Every tenth window is calibrated on the slow level and then runs
        // on the fast one: normalised, it would read 12% too fast and the
        // best share would be made of nothing else.
        let stepped = ops_per_s(
            (0..100)
                .map(|i| {
                    if i % 10 == 0 {
                        Window {
                            calib_after_ns: CALIB_REF_NS,
                            ..window(8e6, 4_000_000, 1.0, 1.12)
                        }
                    } else {
                        window(8e6, 4_000_000, 1.0, 1.0)
                    }
                })
                .collect(),
        );
        assert!(
            (stepped / clean - 1.0).abs() < 0.001,
            "{stepped} vs {clean}"
        );
    }

    #[test]
    fn the_nvm_part_of_a_window_is_not_rescaled() {
        // All NVM, no software: a slow calibration must change nothing.
        let w = window(0.0, 5_000_000, 1.0, 1.25);
        assert_eq!(w.normalised_wall_ns(), 5_000_000.0);
        // Half and half on a 25%-slower host: only the software half shrinks
        // back to its reference duration.
        let w = window(4e6, 4_000_000, 1.25, 1.25);
        assert!((w.normalised_wall_ns() - 8e6).abs() < 1.0);
    }

    #[test]
    fn latency_percentiles_keep_the_nvm_share_unscaled() {
        let mut w = latency_window();
        w.ops = 100;
        w.nvm.drain_ns = 100 * 40; // m_w = 40 ns per op
        w.calib_ns = CALIB_REF_NS * 2.0; // host at half speed: f = 0.5
        let lat = w.latency.expect("an L-window");
        assert_eq!(
            (lat.samples, lat.p50_ns, lat.p90_ns, lat.p99_ns),
            (100, 50, 90, 99)
        );
        // p50 = 50 ns raw: 40 ns of it is NVM, the other 10 ns halve.
        assert!((w.normalised_latency_ns(lat.p50_ns) - 45.0).abs() < 1e-9);
        // A latency below the NVM share is left alone.
        assert!((w.normalised_latency_ns(10) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn nvm_wait_follows_the_latency_model_term_by_term() {
        let delta = PmemStats {
            drains: 3,
            flush_ranges: 4,
            range_lines: 9,
            overflow_writebacks: 2,
            words_persisted: 20,
            ..PmemStats::default()
        };
        let wait = NvmWait::of(&delta, &LatencyModel::nvm_300ns());
        assert_eq!(wait.drain_ns, 900);
        assert_eq!(wait.range_ns, 6 * 60);
        assert_eq!(wait.line_ns, 11 * 10);
        assert_eq!(wait.word_ns, 500);
        assert_eq!(wait.total_ns(), 900 + 360 + 110 + 500);
        assert_eq!(NvmWait::of(&delta, &LatencyModel::instant()).total_ns(), 0);
    }

    #[test]
    fn best_shares_and_quantiles_pick_the_expected_ranks() {
        let v: Vec<f64> = (1..=81).map(f64::from).collect();
        assert_eq!(best_share(&v, Better::Higher), 79.0);
        assert_eq!(best_share(&v, Better::Lower), 3.0);
        assert_eq!(best_share(&[5.0], Better::Higher), 5.0);
        let s: Vec<u64> = (1..=200).collect();
        assert_eq!(quantile_sorted(&s, 0.5), 100);
        assert_eq!(quantile_sorted(&s, 0.99), 198);
        assert_eq!(quantile_sorted(&s, 1.0), 200);
    }

    #[test]
    fn calibration_lands_near_the_reference_on_this_kind_of_host() {
        let c = Calibrator::default().run();
        assert!(c > 0.1 && c < 100.0, "calibration {c} ns/iter");
    }
}
