//! Rendering the transaction breakdowns as text.
//!
//! The harness cannot draw the paper's stacked bars, so the breakdowns of
//! Figures 9–21 are rendered as the numbers behind them.

use crafty_common::{BreakdownSnapshot, CompletionPath, HwTxnOutcome, TxnPhase};

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
