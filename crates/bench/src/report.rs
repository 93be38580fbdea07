//! The text views of a list of [`Point`]s: the normalized-throughput table
//! behind each of Figures 6–8 with its CSV, and the per-point listings.

use crafty_common::HwTxnOutcome;

use crate::throughput::{baseline, engines, thread_counts, Point};

/// Renders one figure — `points`, titled `title` — as the table of numbers
/// behind the paper's plot and as CSV, returned as `(table, csv)`.
///
/// Throughput is normalized to Non-durable at its lowest thread count, as
/// in Section 7.1; without a Non-durable point it is printed raw. The table
/// has one column per engine in first-appearance order, one row per thread
/// count in ascending order, and `-` where an engine has no point. The CSV
/// (`benchmark,threads,engine,normalized_throughput,raw_tps`) has one row
/// per point, in order.
pub fn render_figure(title: &str, points: &[Point]) -> (String, String) {
    let base = baseline(points);
    let normalized = |p: &Point| p.throughput() / base;
    let engines = engines(points);
    let mut table = format!("# {title}\n{:>8}", "threads");
    for engine in &engines {
        table.push_str(&format!("{engine:>20}"));
    }
    table.push('\n');
    for threads in thread_counts(points) {
        table.push_str(&format!("{threads:>8}"));
        for engine in &engines {
            // The last point measured at a (engine, threads) pair stands.
            match points
                .iter()
                .rfind(|p| p.engine == *engine && p.threads == threads)
            {
                Some(p) => table.push_str(&format!("{:>20.3}", normalized(p))),
                None => table.push_str(&format!("{:>20}", "-")),
            }
        }
        table.push('\n');
    }
    let mut csv = String::from("benchmark,threads,engine,normalized_throughput,raw_tps\n");
    for p in points {
        csv.push_str(&format!(
            "{title},{},{},{:.6},{:.3}\n",
            p.threads,
            p.engine,
            normalized(p),
            p.throughput()
        ));
    }
    (table, csv)
}

/// Renders `row` for every point, under one `-- workload --` header per
/// workload — the layout of every per-point listing `figures` prints.
pub fn render_by_workload(points: &[Point], row: impl Fn(&Point) -> String) -> String {
    let mut out = String::new();
    let mut workload = "";
    for p in points {
        if p.workload != workload {
            workload = &p.workload;
            out.push_str(&format!("\n-- {workload} --\n"));
        }
        out.push_str(&row(p));
    }
    out
}

/// Renders one line per point: throughput, hardware aborts, and the
/// persist pipeline's write amplification and drain coalescing.
pub fn render_points_table(points: &[Point]) -> String {
    render_by_workload(points, |p| {
        let aborts = HwTxnOutcome::ALL
            .iter()
            .filter(|&&o| o != HwTxnOutcome::Commit)
            .map(|&o| p.breakdown.hw(o))
            .sum::<u64>();
        format!(
            "{:<20} {:>2} thr {:>12.0} ops/s  {:>8} hw aborts  w-amp {:.3}  \
             {:>7} ranges / {:>7} lines ({:.2}/rng)\n",
            p.engine,
            p.threads,
            p.throughput(),
            aborts,
            p.pmem.write_amplification(),
            p.pmem.flush_ranges,
            p.pmem.lines_persisted,
            p.pmem.lines_per_range(),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::throughput::synthetic;

    const TITLE: &str = "bank (high contention)";

    fn figure() -> [Point; 4] {
        [
            ("Non-durable", 1, 1000),
            ("Crafty", 1, 700),
            ("Crafty", 2, 1200),
            ("NV-HTM", 1, 500),
        ]
        .map(|(engine, threads, txns)| synthetic(TITLE, engine, threads, txns))
    }

    /// The table the renderer this one replaced printed, byte for byte:
    /// engines in first-appearance order, thread counts ascending, `-` for
    /// a missing point, everything normalized to one-thread Non-durable.
    #[test]
    fn text_table_contains_all_engines_and_thread_counts() {
        let (table, _) = render_figure(TITLE, &figure());
        assert_eq!(
            table,
            concat!(
                "# bank (high contention)\n",
                " threads         Non-durable              Crafty              NV-HTM\n",
                "       1               1.000               0.700               0.500\n",
                "       2                   -               1.200                   -\n",
            ),
        );
    }

    /// The CSV: the header, then one row per point in point order.
    #[test]
    fn csv_has_one_row_per_point_plus_header() {
        let (_, csv) = render_figure(TITLE, &figure());
        assert_eq!(
            csv,
            concat!(
                "benchmark,threads,engine,normalized_throughput,raw_tps\n",
                "bank (high contention),1,Non-durable,1.000000,1000.000\n",
                "bank (high contention),1,Crafty,0.700000,700.000\n",
                "bank (high contention),2,Crafty,1.200000,1200.000\n",
                "bank (high contention),1,NV-HTM,0.500000,500.000\n",
            ),
        );
    }
}
