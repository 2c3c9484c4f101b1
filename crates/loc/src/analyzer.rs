//! Automatically generated distribution analyzers — the paper's extension
//! of LOC with the `dist==`, `dist<=`, `dist>=` operators.

use serde::{Deserialize, Serialize};

use crate::ast::{DistRel, Expr, Formula};
use crate::error::EvalError;
use crate::eval::{eval_expr, EventWindow};
use crate::trace::{Trace, TraceRecord};

/// One bin of a distribution report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BinStat {
    /// Lower edge of the bin (`-inf` for the underflow bin).
    pub lo: f64,
    /// Upper edge of the bin (`+inf` for the overflow bin).
    pub hi: f64,
    /// Number of instances whose value fell in `(lo, hi]`.
    pub count: u64,
    /// `count` divided by the total number of instances.
    pub fraction: f64,
}

/// How many of `n` values a share `p` of them spans, rounded up and at
/// least one: the rank both quantiles count, from below and from above.
/// `None` when `n` is 0.
fn rank(p: f64, n: usize) -> Option<usize> {
    assert!((0.0..=1.0).contains(&p), "quantile requires p in [0,1]");
    (n > 0).then(|| ((p * n as f64).ceil() as usize).clamp(1, n))
}

/// The output of an [`Analyzer`] run.
///
/// For a `dist==` formula, [`DistributionReport::bins`] returns the
/// per-interval percentages of paper §2.3: `(-inf,min], (min,min+step], …,
/// (max,+inf)`. For `dist<=`/`dist>=`, [`DistributionReport::cumulative`]
/// returns the fraction of instances at-or-below / at-or-above each edge —
/// exactly the curves plotted in the paper's Figures 6, 7 and 10.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistributionReport {
    rel: DistRel,
    min: f64,
    max: f64,
    step: f64,
    /// Counts for (-inf,min], interior bins, (max,+inf) — length nbins+2.
    counts: Vec<u64>,
    /// All finite instance values, sorted ascending (for percentiles).
    sorted_values: Vec<f64>,
    /// Instances whose value was NaN (counted separately, never binned).
    nan_count: u64,
    total: u64,
}

/// The raw state of a [`DistributionReport`], decomposed for external
/// persistence (the result cache serializes reports through this and
/// rebuilds them bit-identically with
/// [`DistributionReport::from_parts`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DistParts {
    /// The distribution relation of the formula.
    pub rel: DistRel,
    /// Lower edge of the analysis period.
    pub min: f64,
    /// Upper edge of the analysis period.
    pub max: f64,
    /// Bin width.
    pub step: f64,
    /// Counts for `(-inf,min]`, interior bins, `(max,+inf)`.
    pub counts: Vec<u64>,
    /// All finite instance values, sorted ascending.
    pub sorted_values: Vec<f64>,
    /// Instances whose value was NaN.
    pub nan_count: u64,
    /// Total instances (including NaN ones).
    pub total: u64,
}

impl DistributionReport {
    /// Decomposes the report into its raw [`DistParts`].
    #[must_use]
    pub fn to_parts(&self) -> DistParts {
        DistParts {
            rel: self.rel,
            min: self.min,
            max: self.max,
            step: self.step,
            counts: self.counts.clone(),
            sorted_values: self.sorted_values.clone(),
            nan_count: self.nan_count,
            total: self.total,
        }
    }

    /// Rebuilds a report from [`DistParts`] — the exact inverse of
    /// [`DistributionReport::to_parts`].
    #[must_use]
    pub fn from_parts(parts: DistParts) -> Self {
        DistributionReport {
            rel: parts.rel,
            min: parts.min,
            max: parts.max,
            step: parts.step,
            counts: parts.counts,
            sorted_values: parts.sorted_values,
            nan_count: parts.nan_count,
            total: parts.total,
        }
    }

    /// Total number of formula instances evaluated (including NaN ones).
    #[must_use]
    pub fn total_instances(&self) -> u64 {
        self.total
    }

    /// Instances whose value was NaN (e.g. 0/0 on an idle window).
    #[must_use]
    pub fn nan_instances(&self) -> u64 {
        self.nan_count
    }

    /// The analysis period `(min, max, step)` of the formula.
    #[must_use]
    pub fn period(&self) -> (f64, f64, f64) {
        (self.min, self.max, self.step)
    }

    /// The distribution relation of the formula.
    #[must_use]
    pub fn rel(&self) -> DistRel {
        self.rel
    }

    /// Per-bin statistics: `(-inf,min]`, the interior bins of width `step`,
    /// and `(max,+inf)`.
    #[must_use]
    pub fn bins(&self) -> Vec<BinStat> {
        let total = self.total.max(1) as f64;
        let mut out = Vec::with_capacity(self.counts.len());
        for (k, &count) in self.counts.iter().enumerate() {
            let (lo, hi) = if k == 0 {
                (f64::NEG_INFINITY, self.min)
            } else if k == self.counts.len() - 1 {
                (self.max, f64::INFINITY)
            } else {
                (
                    self.min + self.step * (k - 1) as f64,
                    (self.min + self.step * k as f64).min(self.max),
                )
            };
            out.push(BinStat {
                lo,
                hi,
                count,
                fraction: count as f64 / total,
            });
        }
        out
    }

    /// The edges `min, min+step, …, max` of the analysis period.
    #[must_use]
    pub fn edges(&self) -> Vec<f64> {
        let nbins = self.counts.len() - 2;
        (0..=nbins)
            .map(|k| (self.min + self.step * k as f64).min(self.max))
            .collect()
    }

    /// Cumulative fractions at each edge, oriented by the formula's
    /// relation: for `dist<=` (and `dist==`) the fraction of instances
    /// `<= edge`; for `dist>=` the fraction `>= edge`.
    #[must_use]
    pub fn cumulative(&self) -> Vec<(f64, f64)> {
        self.edges()
            .into_iter()
            .map(|e| {
                let frac = match self.rel {
                    DistRel::Ge => self.fraction_ge(e),
                    _ => self.fraction_le(e),
                };
                (e, frac)
            })
            .collect()
    }

    /// Fraction of instances with value `<= x` (NaN instances count as
    /// "not below").
    #[must_use]
    pub fn fraction_le(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = self.sorted_values.partition_point(|v| *v <= x);
        n as f64 / self.total as f64
    }

    /// Fraction of instances with value `>= x`.
    #[must_use]
    pub fn fraction_ge(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let below = self.sorted_values.partition_point(|v| *v < x);
        (self.sorted_values.len() - below) as f64 / self.total as f64
    }

    /// The smallest value `v` such that at least `p` of all instances are
    /// `<= v` — i.e. the `p`-quantile. Used for the paper's Fig. 8 ("80 %
    /// of instances are lower than this power").
    ///
    /// Returns `None` when no finite values were recorded.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> Option<f64> {
        Self::quantile_index(p, self.sorted_values.len()).map(|i| self.sorted_values[i])
    }

    /// The largest value `v` such that at least `p` of all instances are
    /// `>= v` — the paper's Fig. 9 ("80 % of instances are higher than this
    /// throughput"). Equivalent to the `(1-p)`-quantile.
    ///
    /// Returns `None` when no finite values were recorded.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile_above(&self, p: f64) -> Option<f64> {
        Self::quantile_above_index(p, self.sorted_values.len()).map(|i| self.sorted_values[i])
    }

    /// The index, among `n` ascending values, of the value
    /// [`DistributionReport::quantile`] returns: its rank rule, for a
    /// caller that holds sorted values elsewhere (a cache hit reads one
    /// value of a packed array). `None` when `n` is 0.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile_index(p: f64, n: usize) -> Option<usize> {
        Some(rank(p, n)? - 1)
    }

    /// The index, among `n` ascending values, of the value
    /// [`DistributionReport::quantile_above`] returns. `None` when `n`
    /// is 0.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile_above_index(p: f64, n: usize) -> Option<usize> {
        Some(n - rank(p, n)?)
    }

    /// Mean of the finite instance values; `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.sorted_values.is_empty() {
            return None;
        }
        Some(self.sorted_values.iter().sum::<f64>() / self.sorted_values.len() as f64)
    }

    /// Renders the report as the text table the paper's generated analyzers
    /// print: one line per range with its percentage.
    #[must_use]
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        match self.rel {
            DistRel::Eq => {
                for b in self.bins() {
                    let _ = writeln!(
                        out,
                        "({:>10.4}, {:>10.4}] : {:6.2}%",
                        b.lo,
                        b.hi,
                        b.fraction * 100.0
                    );
                }
            }
            DistRel::Le | DistRel::Ge => {
                let sym = if self.rel == DistRel::Le { "<=" } else { ">=" };
                for (edge, frac) in self.cumulative() {
                    let _ = writeln!(out, "{sym} {edge:>10.4} : {:6.2}%", frac * 100.0);
                }
            }
        }
        out
    }
}

/// The most interior bins an analysis period may have, 2^20. The
/// paper's periods have 175 and 320; a million bins is already an 8 MB
/// count vector per analyzer.
pub(crate) const MAX_BINS: usize = 1 << 20;

/// The number of interior bins of the analysis period `(min, max,
/// step)`, shared by [`Analyzer::from_formula`] and
/// [`crate::codegen::generate`].
///
/// # Errors
///
/// [`EvalError::InvalidPeriod`] if a bound is non-finite, `step <= 0`,
/// `max <= min`, or the period has no bin (`max - min` underflows
/// against `step`) or more than [`MAX_BINS`].
pub(crate) fn bin_count(min: f64, max: f64, step: f64) -> Result<usize, EvalError> {
    let finite = min.is_finite() && max.is_finite() && step.is_finite();
    let bins = ((max - min) / step).ceil();
    if !finite || step <= 0.0 || max <= min || !(1.0..=MAX_BINS as f64).contains(&bins) {
        return Err(EvalError::InvalidPeriod { min, max, step });
    }
    Ok(bins as usize)
}

/// A streaming distribution analyzer generated from a `dist` [`Formula`].
///
/// # Example
///
/// ```
/// use loc::{parse, Analyzer, Annotations, TraceRecord};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Paper formula (1): inter-forward latency distribution.
/// let f = parse("time(forward[i+100]) - time(forward[i]) dist== (40, 80, 5)")?;
/// let mut analyzer = Analyzer::from_formula(&f)?;
/// for k in 0..500u64 {
///     let a = Annotations { time: k as f64 * 0.5, ..Annotations::default() };
///     analyzer.push(&TraceRecord::new("forward", a));
/// }
/// let report = analyzer.finish();
/// // Every 100-packet window spans exactly 50us: all mass in (45, 50].
/// let full_bin = report.bins().into_iter().find(|b| b.hi == 50.0).unwrap();
/// assert!((full_bin.fraction - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Analyzer {
    expr: Expr,
    rel: DistRel,
    min: f64,
    max: f64,
    step: f64,
    window: EventWindow,
    counts: Vec<u64>,
    values: Vec<f64>,
    nan_count: u64,
    total: u64,
}

impl Analyzer {
    /// Generates an analyzer from a distribution formula.
    ///
    /// # Errors
    ///
    /// * [`EvalError::WrongFormulaKind`] if the formula is an assertion.
    /// * [`EvalError::InvalidPeriod`] if a bound is non-finite, `step <=
    ///   0`, `max <= min`, or the period has no bin or more than 2^20.
    /// * [`EvalError::NoEvents`] if the formula references no events.
    pub fn from_formula(formula: &Formula) -> Result<Self, EvalError> {
        let Formula::Dist {
            expr,
            rel,
            min,
            max,
            step,
        } = formula
        else {
            return Err(EvalError::WrongFormulaKind {
                expected: "distribution",
            });
        };
        let nbins = bin_count(*min, *max, *step)?;
        let window = EventWindow::from_formula(formula)?;
        Ok(Analyzer {
            expr: expr.clone(),
            rel: *rel,
            min: *min,
            max: *max,
            step: *step,
            window,
            counts: vec![0; nbins + 2],
            values: Vec::new(),
            nan_count: 0,
            total: 0,
        })
    }

    /// Feeds one trace record; evaluates any instances that became ready.
    pub fn push(&mut self, record: &TraceRecord) {
        if !self.window.push(record) {
            return;
        }
        while self.window.ready() {
            let v = eval_expr(&self.expr, &self.window);
            self.record(v);
            self.window.advance();
        }
    }

    fn record(&mut self, v: f64) {
        self.total += 1;
        if v.is_nan() {
            self.nan_count += 1;
            return;
        }
        self.values.push(v);
        let nbins = self.counts.len() - 2;
        let idx = if v <= self.min {
            0
        } else if v > self.max {
            nbins + 1
        } else {
            // Interior bins are (min + step*(k-1), min + step*k].
            let k = ((v - self.min) / self.step).ceil() as usize;
            k.clamp(1, nbins)
        };
        self.counts[idx] += 1;
    }

    /// Runs the analyzer over an entire trace and returns the report.
    #[must_use]
    pub fn analyze(mut self, trace: &Trace) -> DistributionReport {
        for record in trace {
            self.push(record);
        }
        self.finish()
    }

    /// Finalises and returns the distribution report.
    #[must_use]
    pub fn finish(mut self) -> DistributionReport {
        self.values
            .sort_by(|a, b| a.partial_cmp(b).expect("values are never NaN"));
        DistributionReport {
            rel: self.rel,
            min: self.min,
            max: self.max,
            step: self.step,
            counts: self.counts,
            sorted_values: self.values,
            nan_count: self.nan_count,
            total: self.total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use crate::trace::Annotations;

    fn feed(analyzer: &mut Analyzer, values: &[f64]) {
        for (k, &t) in values.iter().enumerate() {
            let a = Annotations {
                time: t,
                cycle: k as u64,
                ..Annotations::default()
            };
            analyzer.push(&TraceRecord::new("ev", a));
        }
    }

    /// Single-event identity analyzer over `time(ev[i])`.
    fn identity(rel: &str, min: f64, max: f64, step: f64) -> Analyzer {
        let f = parse(&format!("time(ev[i]) dist{rel} ({min}, {max}, {step})")).unwrap();
        Analyzer::from_formula(&f).unwrap()
    }

    #[test]
    fn bins_partition_all_instances() {
        let mut a = identity("==", 0.0, 10.0, 1.0);
        feed(&mut a, &[-5.0, 0.0, 0.5, 1.0, 5.5, 9.99, 10.0, 11.0, 100.0]);
        let report = a.finish();
        let total: u64 = report.bins().iter().map(|b| b.count).sum();
        assert_eq!(total, report.total_instances());
        let frac: f64 = report.bins().iter().map(|b| b.fraction).sum();
        assert!((frac - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bin_edges_are_left_open_right_closed() {
        let mut a = identity("==", 0.0, 4.0, 1.0);
        // Exactly on the edges: min belongs to underflow per (-inf, min].
        feed(&mut a, &[0.0, 1.0, 2.0, 3.0, 4.0]);
        let report = a.finish();
        let bins = report.bins();
        assert_eq!(bins[0].count, 1, "0.0 in (-inf, 0]");
        assert_eq!(bins[1].count, 1, "1.0 in (0, 1]");
        assert_eq!(bins[4].count, 1, "4.0 in (3, 4]");
        assert_eq!(bins[5].count, 0, "(4, +inf) empty");
    }

    #[test]
    fn paper_period_example_bin_count() {
        // (40, 80, 5) has 8 interior bins + 2 boundary bins.
        let a = identity("==", 40.0, 80.0, 5.0);
        let report = a.finish();
        assert_eq!(report.bins().len(), 10);
        assert_eq!(
            report.edges(),
            vec![40.0, 45.0, 50.0, 55.0, 60.0, 65.0, 70.0, 75.0, 80.0]
        );
    }

    #[test]
    fn cumulative_le_matches_manual_count() {
        let mut a = identity("<=", 0.0, 10.0, 2.0);
        let data: Vec<f64> = (0..20).map(|k| k as f64).collect();
        feed(&mut a, &data);
        let report = a.finish();
        for (edge, frac) in report.cumulative() {
            let expected = data.iter().filter(|v| **v <= edge).count() as f64 / 20.0;
            assert!((frac - expected).abs() < 1e-12, "edge {edge}");
        }
    }

    #[test]
    fn cumulative_ge_matches_manual_count() {
        let mut a = identity(">=", 0.0, 10.0, 2.0);
        let data: Vec<f64> = (0..20).map(|k| k as f64 * 0.7).collect();
        feed(&mut a, &data);
        let report = a.finish();
        for (edge, frac) in report.cumulative() {
            let expected = data.iter().filter(|v| **v >= edge).count() as f64 / 20.0;
            assert!((frac - expected).abs() < 1e-12, "edge {edge}");
        }
    }

    #[test]
    fn quantiles() {
        let mut a = identity("==", 0.0, 100.0, 10.0);
        feed(&mut a, &(1..=100).map(f64::from).collect::<Vec<_>>());
        let report = a.finish();
        assert_eq!(report.quantile(0.8), Some(80.0));
        assert_eq!(report.quantile(1.0), Some(100.0));
        assert_eq!(report.quantile(0.0), Some(1.0));
        // 80% of instances are >= 21.
        assert_eq!(report.quantile_above(0.8), Some(21.0));
        assert_eq!(report.mean(), Some(50.5));
        // The index rule names the value each quantile returns.
        assert_eq!(DistributionReport::quantile_index(0.8, 100), Some(79));
        assert_eq!(DistributionReport::quantile_above_index(0.8, 100), Some(20));
        for n in 1..=7 {
            for p in [0.0, 0.1, 0.5, 0.8, 1.0] {
                let below = DistributionReport::quantile_index(p, n).unwrap();
                let above = DistributionReport::quantile_above_index(p, n).unwrap();
                assert!(below < n && above < n, "n {n}, p {p}");
            }
        }
        assert_eq!(DistributionReport::quantile_index(0.8, 0), None);
        assert_eq!(DistributionReport::quantile_above_index(0.8, 0), None);
    }

    #[test]
    fn nan_instances_counted_not_binned() {
        let f = parse("time(ev[i]) / energy(ev[i]) dist== (0, 1, 0.5)").unwrap();
        let mut a = Analyzer::from_formula(&f).unwrap();
        // energy stays 0 -> 0/0 = NaN on every instance.
        feed(&mut a, &[0.0, 0.0, 0.0]);
        let report = a.finish();
        assert_eq!(report.total_instances(), 3);
        assert_eq!(report.nan_instances(), 3);
        assert_eq!(report.quantile(0.5), None);
        assert_eq!(report.mean(), None);
    }

    #[test]
    fn infinite_values_go_to_overflow_bin() {
        let f = parse("energy(ev[i]) / time(ev[i]) dist== (0, 1, 0.5)").unwrap();
        let mut a = Analyzer::from_formula(&f).unwrap();
        let rec = TraceRecord::new(
            "ev",
            Annotations {
                time: 0.0,
                energy: 5.0,
                ..Annotations::default()
            },
        );
        a.push(&rec); // 5/0 = +inf
        let report = a.finish();
        let bins = report.bins();
        assert_eq!(bins.last().unwrap().count, 1);
    }

    #[test]
    fn rejects_wrong_kind_and_bad_periods() {
        let assert_f = parse("time(ev[i]) <= 1").unwrap();
        assert!(matches!(
            Analyzer::from_formula(&assert_f),
            Err(EvalError::WrongFormulaKind { .. })
        ));
        for (min, max, step) in [
            (0.0, 1.0, 0.0),
            (0.0, 1.0, -1.0),
            (1.0, 1.0, 0.1),
            (2.0, 1.0, 0.1),
        ] {
            let f = parse(&format!("time(ev[i]) dist== ({min}, {max}, {step})")).unwrap();
            assert!(
                matches!(
                    Analyzer::from_formula(&f),
                    Err(EvalError::InvalidPeriod { .. })
                ),
                "period ({min},{max},{step}) should be rejected"
            );
        }
    }

    #[test]
    fn periods_with_too_many_bins_are_rejected() {
        // 1e24 and 1e13 bins: the first wrapped `nbins + 2` to 1, the
        // second asked the allocator for 80 TB. The analyzer and the
        // generated program share the check.
        for period in ["(0, 1e18, 1e-6)", "(0, 10, 1e-12)"] {
            let f = parse(&format!("time(ev[i]) dist== {period}")).unwrap();
            assert!(
                matches!(
                    Analyzer::from_formula(&f),
                    Err(EvalError::InvalidPeriod { .. })
                ),
                "period {period} should be rejected"
            );
            assert!(
                matches!(
                    crate::codegen::generate(&f),
                    Err(EvalError::InvalidPeriod { .. })
                ),
                "period {period} should not compile"
            );
        }
        assert!(bin_count(0.0, 5e-324, 1e300).is_err(), "no bin at all");
        assert_eq!(bin_count(0.5, 2.25, 0.01), Ok(175));
        assert_eq!(bin_count(100.0, 3300.0, 10.0), Ok(320));
        assert_eq!(bin_count(0.0, MAX_BINS as f64, 1.0), Ok(MAX_BINS));
        assert!(bin_count(0.0, MAX_BINS as f64 + 1.0, 1.0).is_err());
    }

    #[test]
    fn to_table_renders_both_kinds() {
        let mut a = identity("==", 0.0, 2.0, 1.0);
        feed(&mut a, &[0.5, 1.5]);
        let table = a.finish().to_table();
        assert!(table.contains("50.00%"), "table was:\n{table}");

        let mut a = identity(">=", 0.0, 2.0, 1.0);
        feed(&mut a, &[0.5, 1.5]);
        let table = a.finish().to_table();
        assert!(table.contains(">="), "table was:\n{table}");
    }

    #[test]
    fn fraction_queries_on_empty_report() {
        let report = identity("==", 0.0, 1.0, 0.5).finish();
        assert_eq!(report.fraction_le(0.5), 0.0);
        assert_eq!(report.fraction_ge(0.5), 0.0);
        assert_eq!(report.total_instances(), 0);
    }
}
