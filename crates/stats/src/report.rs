//! Rendering figures and tables as text and CSV.
//!
//! The harness cannot draw the paper's plots, so every figure is rendered
//! as the table of numbers behind it: one row per thread count, one column
//! per engine, values normalized exactly as in the paper. The breakdowns of
//! Figures 9–21 are rendered the same way.

use crafty_common::{BreakdownSnapshot, CompletionPath, HwTxnOutcome, TxnPhase};

use crate::throughput::Figure;

/// Renders a figure as an aligned text table of normalized throughputs.
pub fn render_figure(figure: &Figure, baseline_engine: &str) -> String {
    let engines = figure.engines();
    let threads = figure.thread_counts();
    let mut out = String::new();
    out.push_str(&format!("# {}\n", figure.title));
    out.push_str(&format!("{:>8}", "threads"));
    for e in &engines {
        out.push_str(&format!("{e:>20}"));
    }
    out.push('\n');
    for &t in &threads {
        out.push_str(&format!("{t:>8}"));
        for e in &engines {
            let v = figure
                .normalized_series(e, baseline_engine)
                .into_iter()
                .find(|(threads, _)| *threads == t)
                .map(|(_, v)| v);
            match v {
                Some(v) => out.push_str(&format!("{v:>20.3}")),
                None => out.push_str(&format!("{:>20}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders a figure as CSV (`benchmark,threads,engine,normalized_throughput,raw_tps`).
pub fn render_figure_csv(figure: &Figure, baseline_engine: &str) -> String {
    let mut out = String::from("benchmark,threads,engine,normalized_throughput,raw_tps\n");
    let base = figure.baseline_throughput(baseline_engine).unwrap_or(1.0);
    let base = if base > 0.0 { base } else { 1.0 };
    for p in &figure.points {
        out.push_str(&format!(
            "{},{},{},{:.6},{:.3}\n",
            figure.title,
            p.threads,
            p.engine,
            p.throughput() / base,
            p.throughput()
        ));
    }
    out
}

/// Renders the persistent-transaction and hardware-transaction breakdowns
/// of one engine run (the stacked bars of Figures 9–21, as numbers).
pub fn render_breakdown(engine: &str, snapshot: &BreakdownSnapshot) -> String {
    let mut out = String::new();
    out.push_str(&format!("{engine}: persistent transactions\n"));
    for path in CompletionPath::ALL {
        out.push_str(&format!(
            "  {:>12}: {}\n",
            path.label(),
            snapshot.completions(path)
        ));
    }
    out.push_str(&format!("{engine}: hardware transactions\n"));
    for outcome in HwTxnOutcome::ALL {
        out.push_str(&format!(
            "  {:>12}: {}\n",
            outcome.label(),
            snapshot.hw(outcome)
        ));
    }
    if snapshot.total_phase_cycles() > 0 {
        // Phase-cycle decomposition (needs a Counters-level traced run).
        // Log/Redo/Validate/SGL partition the transactions' execution
        // time; drain/fence re-attribute the persistence stalls *within*
        // those phases, so the six rows deliberately sum to more than the
        // wall time.
        out.push_str(&format!("{engine}: phase cycles (virtual ns)\n"));
        let total = snapshot.total_phase_cycles();
        for phase in TxnPhase::ALL {
            let cycles = snapshot.phase_cycles(phase);
            out.push_str(&format!(
                "  {:>12}: {:>14}  ({:.1}%)\n",
                phase.label(),
                cycles,
                100.0 * cycles as f64 / total as f64
            ));
        }
    }
    out.push_str(&format!("  writes/txn: {:.2}\n", snapshot.writes_per_txn()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::throughput::Measurement;
    use std::time::Duration;

    fn figure() -> Figure {
        let mut fig = Figure::new("bank (high contention)");
        for (engine, threads, txns) in [
            ("Non-durable", 1, 1000u64),
            ("Crafty", 1, 700),
            ("Crafty", 2, 1200),
            ("NV-HTM", 1, 500),
        ] {
            fig.push(Measurement::throughput_only(
                engine,
                threads,
                txns,
                Duration::from_secs(1),
            ));
        }
        fig
    }

    #[test]
    fn text_table_contains_all_engines_and_thread_counts() {
        let s = render_figure(&figure(), "Non-durable");
        assert!(s.contains("bank (high contention)"));
        assert!(s.contains("Crafty"));
        assert!(s.contains("NV-HTM"));
        assert!(s.contains("0.700"));
        assert!(s.contains("1.200"));
        assert!(s.lines().count() >= 4);
    }

    #[test]
    fn csv_has_one_row_per_point_plus_header() {
        let fig = figure();
        let csv = render_figure_csv(&fig, "Non-durable");
        assert_eq!(csv.lines().count(), fig.points.len() + 1);
        assert!(csv.starts_with("benchmark,threads,engine"));
    }

    #[test]
    fn breakdown_lists_every_category() {
        let s = render_breakdown("Crafty", &BreakdownSnapshot::default());
        for label in [
            "read-only",
            "redo",
            "validate",
            "software",
            "commit",
            "conflict",
            "capacity",
        ] {
            assert!(s.contains(label), "missing {label} in breakdown");
        }
    }

    #[test]
    fn breakdown_renders_phase_section_when_present() {
        let r = crafty_common::BreakdownRecorder::new();
        r.record_phase_cycles(0, TxnPhase::Log, 600);
        r.record_phase_cycles(0, TxnPhase::Drain, 400);
        let s = render_breakdown("Crafty", &r.snapshot());
        assert!(s.contains("phase cycles"));
        assert!(s.contains("(60.0%)"));
        assert!(s.contains("(40.0%)"));
        // An untraced run renders no phase section.
        let bare = render_breakdown("Crafty", &BreakdownSnapshot::default());
        assert!(!bare.contains("phase cycles"));
    }
}
