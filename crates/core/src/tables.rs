//! Text rendering of figures and tables — the workspace's stand-in for
//! the paper's gnuplot output.

use loc::DistributionReport;
use scenario::ScenarioRun;
use stats::{ConfidenceLevel, Summary};

use crate::replicate::{ReplicatedComparison, ReplicatedResult};
use crate::sweep::{vs_nodvs, Axis, CellRef, GridRun};
use crate::traceio::{StreamStats, TraceAnalysis};
use dist::fit::FitCandidate;

/// Renders a cumulative "fraction of instances ≤ x" curve (Fig. 6 style)
/// sampled at `points` evenly spaced x values over `[lo, hi]`.
///
/// # Panics
///
/// Panics if `points < 2` or `lo >= hi`.
#[must_use]
pub fn render_cdf(report: &DistributionReport, lo: f64, hi: f64, points: usize) -> String {
    assert!(points >= 2, "need at least two sample points");
    assert!(lo < hi, "lo must be below hi");
    let mut out = String::from("x fraction_le\n");
    for k in 0..points {
        let x = lo + (hi - lo) * k as f64 / (points - 1) as f64;
        out.push_str(&format!("{x:.4} {:.4}\n", report.fraction_le(x)));
    }
    out
}

/// Renders a complementary "fraction of instances ≥ x" curve (Fig. 7
/// style).
///
/// # Panics
///
/// Panics if `points < 2` or `lo >= hi`.
#[must_use]
pub fn render_ccdf(report: &DistributionReport, lo: f64, hi: f64, points: usize) -> String {
    assert!(points >= 2, "need at least two sample points");
    assert!(lo < hi, "lo must be below hi");
    let mut out = String::from("x fraction_ge\n");
    for k in 0..points {
        let x = lo + (hi - lo) * k as f64 / (points - 1) as f64;
        out.push_str(&format!("{x:.4} {:.4}\n", report.fraction_ge(x)));
    }
    out
}

/// Renders a Fig. 8/9-style surface as a table: one row per threshold, one
/// column per window size.
///
/// `surface` is `(threshold, window, value)` triples as produced by
/// [`crate::sweep::power_surface`] / [`crate::sweep::throughput_surface`].
#[must_use]
pub fn render_surface(surface: &[(f64, u64, f64)], value_label: &str) -> String {
    let mut thresholds: Vec<f64> = surface.iter().map(|s| s.0).collect();
    thresholds.dedup();
    let mut windows: Vec<u64> = surface.iter().map(|s| s.1).collect();
    windows.sort_unstable();
    windows.dedup();

    let mut out = format!("{value_label} by threshold (rows) x window (cols)\n");
    out.push_str("threshold\\window");
    for w in &windows {
        out.push_str(&format!(" {w:>9}"));
    }
    out.push('\n');
    for &t in &thresholds {
        out.push_str(&format!("{t:>16.0}"));
        for &w in &windows {
            let v = surface
                .iter()
                .find(|s| s.0 == t && s.1 == w)
                .map_or(f64::NAN, |s| s.2);
            out.push_str(&format!(" {v:>9.3}"));
        }
        out.push('\n');
    }
    out
}

/// What one grid-table column shows for a cell.
#[derive(Debug, Clone, Copy)]
enum Value {
    /// The TDVS top threshold, Mbps.
    Threshold,
    /// The TDVS monitor window, cycles.
    Window,
    /// The round-trippable policy spec string.
    Policy,
    /// The policy family (`noDVS`, `TDVS`, ...).
    Kind,
    /// The round-trippable traffic spec string.
    Traffic,
    /// The benchmark application.
    Benchmark,
    /// A [`stats::RunMetrics`] field at the given decimal places: the
    /// value when plain, `mean±half-width` when replicated.
    Metric(&'static str, usize),
    /// The mean-power saving vs noDVS as a percentage; replicated, it
    /// is marked `*` when Welch's t finds it significant.
    Saving,
}

/// One grid-table column: its header, its width (`0`: left-aligned
/// and as wide as its widest entry, otherwise right-aligned) and what
/// it shows.
#[derive(Debug, Clone, Copy)]
struct Col {
    head: &'static str,
    width: usize,
    value: Value,
}

const fn col(head: &'static str, width: usize, value: Value) -> Col {
    Col { head, width, value }
}

const fn metric(head: &'static str, width: usize, field: &'static str, precision: usize) -> Col {
    col(head, width, Value::Metric(field, precision))
}

const THRESHOLD: Col = col("threshold_mbps", 14, Value::Threshold);
const WINDOW: Col = col("window_cycles", 13, Value::Window);
const POLICY_SPEC: Col = col("policy_spec", 0, Value::Policy);
const TRAFFIC_SPEC: Col = col("traffic_spec", 0, Value::Traffic);
const BENCHMARK: Col = col("benchmark", 9, Value::Benchmark);
const TRAFFIC: Col = col("traffic", 7, Value::Traffic);
const POLICY: Col = col("policy", 6, Value::Kind);
const SAVING: Col = col("saving_vs_nodvs", 15, Value::Saving);

/// The p80 columns the plain TDVS and policy sweeps end with.
const P80_PLAIN: [Col; 3] = [
    metric("p80_power_w", 11, "p80_power_w", 3),
    metric("p80_tput_mbps", 13, "p80_throughput_mbps", 1),
    metric("switches", 8, "total_switches", 0),
];

/// The columns the replicated TDVS and policy sweeps end with.
const P80_REPLICATED: [Col; 4] = [
    metric("mean_power_w", 15, "mean_power_w", 3),
    metric("p80_power_w", 15, "p80_power_w", 3),
    metric("p80_tput_mbps", 17, "p80_throughput_mbps", 1),
    metric("switches", 13, "total_switches", 1),
];

/// The columns of every axis's table, plain and replicated.
fn columns(axis: Axis, replicated: bool) -> Vec<Col> {
    match (axis, replicated) {
        (Axis::Tdvs, false) => [&[THRESHOLD, WINDOW][..], &P80_PLAIN].concat(),
        (Axis::Tdvs, true) => [&[THRESHOLD, WINDOW][..], &P80_REPLICATED].concat(),
        (Axis::Policies, false) => {
            let lead = [
                POLICY_SPEC,
                col("kind", 6, Value::Kind),
                metric("mean_power_w", 12, "mean_power_w", 3),
            ];
            [&lead[..], &P80_PLAIN].concat()
        }
        (Axis::Policies, true) => [&[POLICY_SPEC][..], &P80_REPLICATED].concat(),
        (Axis::Traffics, false) => vec![
            TRAFFIC_SPEC,
            metric("offered_mbps", 12, "offered_mbps", 1),
            metric("tput_mbps", 12, "throughput_mbps", 1),
            metric("mean_power_w", 12, "mean_power_w", 3),
            metric("loss_ratio", 10, "loss_ratio", 4),
            metric("switches", 8, "total_switches", 0),
        ],
        (Axis::Traffics, true) => vec![
            TRAFFIC_SPEC,
            metric("offered_mbps", 15, "offered_mbps", 1),
            metric("tput_mbps", 15, "throughput_mbps", 1),
            metric("mean_power_w", 15, "mean_power_w", 3),
            metric("loss_ratio", 15, "loss_ratio", 4),
        ],
        (Axis::Compare, false) => vec![
            BENCHMARK,
            TRAFFIC,
            POLICY,
            metric("mean_power_w", 12, "mean_power_w", 3),
            SAVING,
            metric("throughput_mbps", 15, "throughput_mbps", 1),
        ],
        (Axis::Compare, true) => vec![
            BENCHMARK,
            TRAFFIC,
            POLICY,
            metric("mean_power_w", 15, "mean_power_w", 3),
            SAVING,
            metric("tput_mbps", 17, "throughput_mbps", 1),
        ],
    }
}

/// One table entry before alignment. The saving pads itself: its `%`
/// (and significance marker) sit outside the width its header aligns
/// to.
fn entry(value: Value, cells: &[CellRef<'_>], cell: CellRef<'_>, level: ConfidenceLevel) -> String {
    let e = cell.experiment();
    let tdvs = || e.tdvs_point().unwrap_or((f64::NAN, 0));
    match value {
        Value::Threshold => format!("{:.0}", tdvs().0),
        Value::Window => tdvs().1.to_string(),
        Value::Policy => e.policy.spec_string(),
        Value::Kind => e.policy.kind().to_string(),
        Value::Traffic => e.traffic.spec_string(),
        Value::Benchmark => e.benchmark.to_string(),
        Value::Metric(field, precision) => match cell.summary(field) {
            Some(summary) => pm(summary, level, precision),
            None => format!("{:.precision$}", cell.mean(field)),
        },
        Value::Saving => {
            let vs = vs_nodvs(cells, cell);
            let percent = vs.saving.unwrap_or(0.0) * 100.0;
            match cell {
                CellRef::Plain(_) => format!("{percent:>15.1}%"),
                CellRef::Replicated(_) => {
                    let marker = match vs.welch {
                        Some(w) if w.significant(level) => '*',
                        _ => ' ',
                    };
                    format!("{percent:>13.1}%{marker}")
                }
            }
        }
    }
}

/// Renders an evaluated grid as a table: one row per completed cell,
/// labelled by its axis (threshold and window, spec string, or
/// benchmark, traffic and policy), with the key paper quantities as
/// values (single seed) or `mean±half-width` at `level` (replicated).
/// The compare axis adds each cell's saving vs the noDVS cell of its
/// benchmark and traffic; replicated, a saving marked `*` is
/// significant at `level` (Welch's t-test over the two per-seed
/// mean-power folds), and an unmarked one is indistinguishable from
/// replication noise.
#[must_use]
pub fn render_grid(run: &GridRun, level: ConfidenceLevel) -> String {
    grid_table(
        run.axis,
        run.replicated().is_some(),
        &run.cell_refs(),
        level,
    )
}

/// Renders a [`ReplicatedComparison`]: the compare-axis case of
/// [`render_grid`].
#[must_use]
pub fn render_replicated_comparison(cmp: &ReplicatedComparison, level: ConfidenceLevel) -> String {
    let cells: Vec<CellRef<'_>> = cmp
        .rows
        .iter()
        .map(|row| CellRef::Replicated(&row.result))
        .collect();
    grid_table(Axis::Compare, true, &cells, level)
}

fn grid_table(
    axis: Axis,
    replicated: bool,
    cells: &[CellRef<'_>],
    level: ConfidenceLevel,
) -> String {
    let cols = columns(axis, replicated);
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|&cell| {
            cols.iter()
                .map(|c| entry(c.value, cells, cell, level))
                .collect()
        })
        .collect();
    let widths: Vec<usize> = cols
        .iter()
        .enumerate()
        .map(|(j, c)| match c.width {
            0 => rows
                .iter()
                .map(|r| r[j].len())
                .fold(c.head.len(), usize::max),
            width => width,
        })
        .collect();
    let line = |texts: Vec<&str>| {
        let padded: Vec<String> = cols
            .iter()
            .zip(&widths)
            .zip(texts)
            .map(|((c, &width), text)| match c.width {
                0 => format!("{text:<width$}"),
                _ => format!("{text:>width$}"),
            })
            .collect();
        padded.join(" ") + "\n"
    };
    let mut out = line(cols.iter().map(|c| c.head).collect());
    for row in &rows {
        out.push_str(&line(row.iter().map(String::as_str).collect()));
    }
    let tested = replicated
        && axis == Axis::Compare
        && cells
            .iter()
            .any(|&cell| vs_nodvs(cells, cell).welch.is_some());
    if tested {
        out.push_str(&format!(
            "(* = power differs from noDVS at the {level} level, Welch's t)\n"
        ));
    }
    out
}

/// One `mean±half-width` table cell at the given precision — the
/// format every replicated table shares.
fn pm(summary: &Summary, level: ConfidenceLevel, precision: usize) -> String {
    format!(
        "{:.precision$}±{:.precision$}",
        summary.mean(),
        summary.half_width(level)
    )
}

/// Renders one replicated result as a metric-per-row table: mean,
/// confidence half-width, standard deviation and the observed range of
/// every metric over the k replicates.
#[must_use]
pub fn render_replicated_run(r: &ReplicatedResult, level: ConfidenceLevel) -> String {
    let mut out = format!(
        "{:<28} {:>12} {:>12} {:>10} {:>12} {:>12}\n",
        format!("metric ({} seeds, {} CI)", r.replicates(), level),
        "mean",
        "half_width",
        "std_dev",
        "min",
        "max"
    );
    for (name, summary) in r.metrics.fields() {
        out.push_str(&format!(
            "{name:<28} {:>12.4} {:>12.4} {:>10.4} {:>12.4} {:>12.4}\n",
            summary.mean(),
            summary.half_width(level),
            summary.std_dev(),
            summary.min(),
            summary.max(),
        ));
    }
    out
}

/// Renders a completed scenario run: one block per policy with the
/// per-segment breakdown rows and a closing `whole-run` row, every
/// metric as `mean±half-width` over the replicates.
#[must_use]
pub fn render_scenario(run: &ScenarioRun, level: ConfidenceLevel) -> String {
    let s = &run.scenario;
    let mut out = format!(
        "scenario {}: {} @ {} for {} cycles ({} seed(s), {} CI)\n",
        s.name,
        s.benchmark,
        s.traffic.spec_string(),
        s.cycles,
        s.seeds,
        level,
    );
    if !s.summary.is_empty() {
        out.push_str(&format!("  {}\n", s.summary));
    }
    let label_width = run
        .plan
        .iter()
        .map(|p| p.label.len())
        .max()
        .unwrap_or(0)
        .max("whole-run".len())
        .max("segment".len());
    let row = |out: &mut String, label: &str, cycles: String, m: &scenario::SegmentDist| {
        out.push_str(&format!(
            "{label:<label_width$} {cycles:>17} {:>15} {:>15} {:>14} {:>16} {:>13} {:>11}\n",
            pm(&m.offered_mbps, level, 1),
            pm(&m.throughput_mbps, level, 1),
            pm(&m.mean_power_w, level, 3),
            pm(&m.total_energy_uj, level, 0),
            pm(&m.rx_idle_fraction, level, 3),
            pm(&m.dropped_packets, level, 1),
        ));
    };
    for outcome in &run.policies {
        out.push_str(&format!("\npolicy {}\n", outcome.policy.spec_string()));
        out.push_str(&format!(
            "{:<label_width$} {:>17} {:>15} {:>15} {:>14} {:>16} {:>13} {:>11}\n",
            "segment",
            "cycles",
            "offered_mbps",
            "tput_mbps",
            "mean_power_w",
            "energy_uj",
            "rx_idle",
            "drops"
        ));
        for seg in &outcome.segments {
            row(
                &mut out,
                &seg.segment.label,
                format!("{}..{}", seg.segment.start_cycles, seg.segment.end_cycles),
                &seg.metrics,
            );
        }
        row(
            &mut out,
            "whole-run",
            format!("0..{}", s.cycles),
            &outcome.whole,
        );
    }
    out
}

/// Renders a completed fleet run: a title line naming every axis, a
/// fleet-wide metric-per-row summary table, and a per-chip table with
/// the dispatcher's share next to the key chip metrics as
/// `mean±half-width` over the replicates.
#[must_use]
pub fn render_fleet(report: &fleet::FleetReport, level: ConfidenceLevel) -> String {
    let mut out = format!(
        "{} ({} seed(s), {} CI)\n",
        report.config.label(),
        report.seeds,
        level,
    );
    out.push_str(&format!(
        "{:<20} {:>12} {:>12} {:>10} {:>12} {:>12}\n",
        "fleet metric", "mean", "half_width", "std_dev", "min", "max"
    ));
    for (name, summary) in report.fleet.fields() {
        out.push_str(&format!(
            "{name:<20} {:>12.4} {:>12.4} {:>10.4} {:>12.4} {:>12.4}\n",
            summary.mean(),
            summary.half_width(level),
            summary.std_dev(),
            summary.min(),
            summary.max(),
        ));
    }
    out.push_str(&format!(
        "\n{:>4} {:>7} {:>15} {:>15} {:>14} {:>16} {:>13} {:>12} {:>12} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
        "chip",
        "share",
        "offered_mbps",
        "tput_mbps",
        "mean_power_w",
        "energy_uj",
        "loss_ratio",
        "drops",
        "switches",
        "q_p50",
        "q_p95",
        "q_p99",
        "w_p50",
        "w_p95",
        "w_p99"
    ));
    for (index, chip) in report.chips.iter().enumerate() {
        // Queue-depth (q_*, packets) and queue-wait (w_*, µs)
        // percentiles come from the recorder's epoch sketches, not a
        // replicate fold — `-` when nothing was recorded (e.g. every
        // replicate of the chip failed).
        let quantile = |q: Option<f64>| q.map_or_else(|| "-".to_owned(), |v| format!("{v:.1}"));
        let (p50, p95, p99) = match chip.queue_percentiles() {
            Some((p50, p95, p99)) => (Some(p50), Some(p95), Some(p99)),
            None => (None, None, None),
        };
        let (w50, w95, w99) = match chip.wait_percentiles() {
            Some((w50, w95, w99)) => (Some(w50), Some(w95), Some(w99)),
            None => (None, None, None),
        };
        out.push_str(&format!(
            "{index:>4} {:>7.4} {:>15} {:>15} {:>14} {:>16} {:>13} {:>12} {:>12} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}\n",
            chip.share,
            pm(&chip.offered_mbps, level, 1),
            pm(&chip.throughput_mbps, level, 1),
            pm(&chip.mean_power_w, level, 3),
            pm(&chip.total_energy_uj, level, 0),
            pm(&chip.loss_ratio, level, 4),
            pm(&chip.dropped_packets, level, 1),
            pm(&chip.total_switches, level, 1),
            quantile(p50),
            quantile(p95),
            quantile(p99),
            quantile(w50),
            quantile(w95),
            quantile(w99),
        ));
    }
    out
}

/// Renders one trace characterisation: header line, one row per
/// stream (inter-arrival gaps and sizes), then the burstiness proxy.
#[must_use]
pub fn render_trace_analysis(path: &str, a: &TraceAnalysis) -> String {
    let mut out = format!(
        "trace {path}: {} packets, {:.1} us span, {} bytes, {:.1} Mbps mean rate\n",
        a.packets, a.duration_us, a.total_bytes, a.mean_rate_mbps
    );
    if let Some(p) = &a.provenance {
        out.push_str(&format!(
            "generated by: --traffic {} --seed {} --cycles {}\n",
            p.traffic, p.seed, p.cycles
        ));
    }
    out.push_str(&format!(
        "{:<12} {:>12} {:>8} {:>12} {:>12} {:>12}  {:<40} {:>8}\n",
        "stream", "mean", "cv", "p50", "p95", "p99", "best fit", "fit err"
    ));
    let row = |out: &mut String, name: &str, s: &Option<StreamStats>, fits: &[FitCandidate]| {
        let Some(s) = s else {
            out.push_str(&format!("{name:<12} {:>12}\n", "(empty)"));
            return;
        };
        let fit = match fits.first() {
            Some(best) => format!("  {:<40} {:>8.4}", best.spec.spec_string(), best.error),
            None => format!("  {:<40}", "(no fit)"),
        };
        out.push_str(&format!(
            "{name:<12} {:>12.4} {:>8.3} {:>12.4} {:>12.4} {:>12.4}{}\n",
            s.mean,
            s.cv,
            s.p50,
            s.p95,
            s.p99,
            fit.trim_end()
        ));
    };
    row(&mut out, "gap_us", &a.gap_us, &a.gap_fits);
    row(&mut out, "size_bytes", &a.size_bytes, &a.size_fits);
    match a.hurst {
        Some(h) => out.push_str(&format!(
            "hurst estimate {h:.3} (aggregated-variance proxy; 0.5 ~ Poisson, -> 1 long-range dependent)\n"
        )),
        None => out.push_str("hurst estimate n/a (trace too short)\n"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::ComparisonConfig;
    use crate::formulas::power_distribution;
    use crate::sweep::{run_grid, Grid};
    use crate::Runner;
    use loc::{Analyzer, Annotations, TraceRecord};
    use nepsim::Benchmark;
    use traffic::{TrafficLevel, TrafficSpec};

    /// Runs a grid that must complete.
    fn run(grid: &Grid, seeds: u64) -> GridRun {
        let run = run_grid(&Runner::new(), grid, seeds);
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        run
    }

    fn tiny_report() -> DistributionReport {
        let mut a = Analyzer::from_formula(&power_distribution(1)).unwrap();
        for k in 0..50u64 {
            let annots = Annotations {
                time: k as f64,
                energy: k as f64 * 1.2, // constant 1.2 W
                ..Annotations::default()
            };
            a.push(&TraceRecord::new("forward", annots));
        }
        a.finish()
    }

    #[test]
    fn cdf_rendering_is_monotone() {
        let text = render_cdf(&tiny_report(), 0.5, 2.25, 10);
        let fracs: Vec<f64> = text
            .lines()
            .skip(1)
            .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(fracs.len(), 10);
        assert!(fracs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ccdf_rendering_is_antitone() {
        let text = render_ccdf(&tiny_report(), 0.5, 2.25, 10);
        let fracs: Vec<f64> = text
            .lines()
            .skip(1)
            .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
            .collect();
        assert!(fracs.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn surface_table_lists_all_cells() {
        let surface = vec![
            (800.0, 20_000, 1.0),
            (800.0, 40_000, 1.1),
            (1000.0, 20_000, 1.2),
            (1000.0, 40_000, 1.3),
        ];
        let text = render_surface(&surface, "power");
        assert!(text.contains("800"));
        assert!(text.contains("1000"));
        assert!(text.contains("1.300"));
        assert_eq!(text.lines().count(), 2 + 2);
    }

    #[test]
    fn comparison_table_renders() {
        let cfg = ComparisonConfig {
            cycles: 150_000,
            ..ComparisonConfig::default()
        };
        let grid = Grid::compare(&[Benchmark::Nat], &[TrafficLevel::Low.into()], &cfg);
        let text = render_grid(&run(&grid, 1), ConfidenceLevel::P95);
        assert!(text.starts_with("benchmark traffic policy mean_power_w saving_vs_nodvs"));
        assert!(text.contains("nat"));
        assert!(text.contains("noDVS"));
        assert!(text.contains("TDVS"));
        assert!(text.contains("EDVS"));
        assert!(text.contains("TEDVS"));
        assert!(text.contains("QDVS"));
        assert!(text.contains("PDVS"));
        // The baseline row saves exactly nothing against itself.
        assert!(text.lines().nth(1).unwrap().contains("0.0%"), "{text}");
    }

    #[test]
    fn spec_sweep_table_labels_rows_with_spec_strings() {
        let specs: Vec<crate::PolicySpec> = ["nodvs", "queue:high=0.9,low=0.1"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let grid = Grid::policies(
            Benchmark::Nat,
            &TrafficLevel::Low.into(),
            &specs,
            150_000,
            1,
        );
        let text = render_grid(&run(&grid, 1), ConfidenceLevel::P95);
        assert!(text.starts_with("policy_spec"));
        assert!(text.contains("nodvs"));
        assert!(text.contains("queue:high=0.9,low=0.1,window=40000"));
        assert!(text.contains("QDVS"));
        assert_eq!(text.lines().count(), 3);
        // The label column is as wide as its longest spec string; the
        // six-wide kind column follows it.
        let header = text.lines().next().unwrap();
        let width = "queue:high=0.9,low=0.1,window=40000".len();
        assert_eq!(header.find("kind"), Some(width + 3), "{text}");
    }

    #[test]
    fn traffic_sweep_table_labels_rows_with_spec_strings() {
        let traffics: Vec<TrafficSpec> = ["low", "constant:rate=500"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let grid = Grid::traffics(
            Benchmark::Nat,
            &traffics,
            &crate::PolicySpec::NoDvs,
            150_000,
            1,
        );
        let text = render_grid(&run(&grid, 1), ConfidenceLevel::P95);
        assert!(text.starts_with("traffic_spec"));
        assert!(text.contains("low"));
        assert!(text.contains("constant:rate=500,size=576,ports=16"));
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "at least two sample points")]
    fn cdf_rejects_single_point() {
        let _ = render_cdf(&tiny_report(), 0.0, 1.0, 1);
    }

    #[test]
    fn replicated_tables_render_mean_plus_minus_half_width() {
        use crate::Experiment;

        let r = crate::run_replicated_experiments(
            &Runner::new(),
            vec![Experiment {
                benchmark: Benchmark::Nat,
                traffic: TrafficLevel::Low.into(),
                policy: crate::PolicySpec::NoDvs,
                cycles: 150_000,
                seed: 3,
            }],
            3,
        )
        .pop()
        .expect("one cell")
        .expect("no replicate failed");
        let text = render_replicated_run(&r, ConfidenceLevel::P95);
        assert!(text.contains("3 seeds, 95% CI"), "{text}");
        assert!(text.contains("mean_power_w"), "{text}");
        assert!(text.contains("p80_throughput_mbps"), "{text}");
        // Header + one row per metric field.
        assert_eq!(text.lines().count(), 1 + r.metrics.fields().len());

        let points = crate::TdvsGrid {
            thresholds_mbps: vec![1000.0],
            windows_cycles: vec![40_000],
        };
        let grid = Grid::tdvs(
            Benchmark::Ipfwdr,
            &TrafficLevel::Medium.into(),
            &points,
            150_000,
            1,
        );
        let text = render_grid(&run(&grid, 2), ConfidenceLevel::P95);
        assert!(text.starts_with("threshold_mbps"), "{text}");
        // Every metric cell is a mean±half-width pair.
        assert!(
            text.lines().nth(1).unwrap().matches('±').count() >= 4,
            "{text}"
        );
    }

    #[test]
    fn replicated_comparison_table_reports_savings_from_means() {
        let cfg = ComparisonConfig {
            cycles: 150_000,
            ..ComparisonConfig::default()
        };
        let grid = Grid::compare(&[Benchmark::Nat], &[TrafficLevel::Low.into()], &cfg);
        let text = render_grid(&run(&grid, 2), ConfidenceLevel::P95);
        assert!(text.contains("saving_vs_nodvs"), "{text}");
        assert!(text.contains("noDVS"), "{text}");
        assert!(text.contains("PDVS"), "{text}");
        // Header + 6 policy rows + the Welch significance legend.
        assert_eq!(text.lines().count(), 1 + 6 + 1);
        assert!(text.contains('±'), "{text}");
        assert!(text.contains("Welch's t"), "{text}");
    }

    #[test]
    fn scenario_table_renders_segment_and_whole_run_rows() {
        let scenario = scenario::Scenario {
            name: "table-test".to_owned(),
            summary: "two windows".to_owned(),
            benchmark: Benchmark::Ipfwdr,
            traffic: "schedule:segments=[low@0..150000; constant:rate=900@150000..]"
                .parse()
                .unwrap(),
            policies: vec![crate::PolicySpec::NoDvs],
            cycles: 300_000,
            seed: 5,
            seeds: 2,
        };
        let (run, errors) = scenario::try_run_scenario(&crate::Runner::new(), &scenario);
        assert!(errors.is_empty());
        let text = render_scenario(&run, ConfidenceLevel::P95);
        assert!(text.starts_with("scenario table-test:"), "{text}");
        assert!(text.contains("policy nodvs"), "{text}");
        assert!(text.contains("whole-run"), "{text}");
        assert!(text.contains("0..150000"), "{text}");
        assert!(text.contains("150000..300000"), "{text}");
        assert!(text.contains('±'), "{text}");
        // Title + summary + (policy line + header + 2 segments + whole).
        assert_eq!(text.lines().count(), 2 + 1 + 1 + 1 + 2 + 1);
    }

    #[test]
    fn replicated_spec_and_traffic_tables_label_rows_with_specs() {
        let specs: Vec<crate::PolicySpec> = ["nodvs", "queue"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let grid = Grid::policies(
            Benchmark::Nat,
            &TrafficLevel::Low.into(),
            &specs,
            150_000,
            1,
        );
        let text = render_grid(&run(&grid, 2), ConfidenceLevel::P95);
        assert!(text.starts_with("policy_spec"), "{text}");
        assert!(text.contains("queue:high="), "{text}");

        let traffics: Vec<TrafficSpec> = ["low", "constant:rate=500"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let grid = Grid::traffics(
            Benchmark::Nat,
            &traffics,
            &crate::PolicySpec::NoDvs,
            150_000,
            1,
        );
        let text = render_grid(&run(&grid, 2), ConfidenceLevel::P95);
        assert!(text.starts_with("traffic_spec"), "{text}");
        assert!(text.contains("constant:rate=500"), "{text}");
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn fleet_table_renders_fleet_and_per_chip_rows() {
        let mut config = fleet::FleetConfig::new(3);
        config.cycles = 150_000;
        config.dispatch = "hash:flows=64".parse().unwrap();
        let outcome = fleet::run_fleet(&config, 2, &crate::Runner::new());
        assert!(outcome.errors.is_empty());
        let text = render_fleet(&outcome.report, ConfidenceLevel::P95);
        assert!(
            text.starts_with("fleet chips=3 dispatch=hash:flows=64"),
            "{text}"
        );
        assert!(text.contains("2 seed(s), 95% CI"), "{text}");
        assert!(text.contains("imbalance"), "{text}");
        assert!(text.contains('±'), "{text}");
        // Title + fleet header + 9 fleet metrics + blank + chip header
        // + 3 chip rows.
        assert_eq!(text.lines().count(), 1 + 1 + 9 + 1 + 1 + 3);
        // Shares sum to 1 across the chip rows, and every chip row ends
        // with its three recorder-sketch queue-depth percentiles.
        assert!(text.contains("q_p50"), "{text}");
        let mut shares = 0.0;
        for line in text.lines().skip(1 + 1 + 9 + 1 + 1) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            shares += cols[1].parse::<f64>().unwrap();
            let p50: f64 = cols[cols.len() - 3].parse().unwrap();
            let p99: f64 = cols[cols.len() - 1].parse().unwrap();
            assert!(p50 >= 0.0 && p99 >= p50, "{line}");
        }
        assert!((shares - 1.0).abs() < 1e-6, "{text}");
    }
}
