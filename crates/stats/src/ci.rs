//! Confidence levels, hand-rolled Student-t critical values and the
//! [`ConfidenceInterval`] they produce.
//!
//! The workspace builds offline with no statistics crates, so the
//! two-sided critical values of the Student-t distribution are a
//! compiled-in table: exact published values for 1–30 degrees of
//! freedom, then the conservative step-down rows statisticians use
//! (40, 60, 120, ∞). "Conservative" means a df between rows uses the
//! *smaller* df's larger critical value, so a reported interval is
//! never narrower than the exact one.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// Two-sided confidence level of a Student-t interval.
///
/// Only the three levels the paper-table tooling offers are
/// representable, which is what lets the critical values be an exact
/// compiled-in table instead of an incomplete-beta evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ConfidenceLevel {
    /// 90 % two-sided (t at the 0.95 quantile).
    P90,
    /// 95 % two-sided (t at the 0.975 quantile) — the default.
    #[default]
    P95,
    /// 99 % two-sided (t at the 0.995 quantile).
    P99,
}

/// Two-sided Student-t critical values for df 1–30, then 40/60/120/∞,
/// as `(df, t90, t95, t99)` rows in ascending df order.
const T_TABLE: [(u64, f64, f64, f64); 34] = [
    (1, 6.314, 12.706, 63.657),
    (2, 2.920, 4.303, 9.925),
    (3, 2.353, 3.182, 5.841),
    (4, 2.132, 2.776, 4.604),
    (5, 2.015, 2.571, 4.032),
    (6, 1.943, 2.447, 3.707),
    (7, 1.895, 2.365, 3.499),
    (8, 1.860, 2.306, 3.355),
    (9, 1.833, 2.262, 3.250),
    (10, 1.812, 2.228, 3.169),
    (11, 1.796, 2.201, 3.106),
    (12, 1.782, 2.179, 3.055),
    (13, 1.771, 2.160, 3.012),
    (14, 1.761, 2.145, 2.977),
    (15, 1.753, 2.131, 2.947),
    (16, 1.746, 2.120, 2.921),
    (17, 1.740, 2.110, 2.898),
    (18, 1.734, 2.101, 2.878),
    (19, 1.729, 2.093, 2.861),
    (20, 1.725, 2.086, 2.845),
    (21, 1.721, 2.080, 2.831),
    (22, 1.717, 2.074, 2.819),
    (23, 1.714, 2.069, 2.807),
    (24, 1.711, 2.064, 2.797),
    (25, 1.708, 2.060, 2.787),
    (26, 1.706, 2.056, 2.779),
    (27, 1.703, 2.052, 2.771),
    (28, 1.701, 2.048, 2.763),
    (29, 1.699, 2.045, 2.756),
    (30, 1.697, 2.042, 2.750),
    (40, 1.684, 2.021, 2.704),
    (60, 1.671, 2.000, 2.660),
    (120, 1.658, 1.980, 2.617),
    (u64::MAX, 1.645, 1.960, 2.576),
];

impl ConfidenceLevel {
    /// All levels, narrowest interval first.
    pub const ALL: [ConfidenceLevel; 3] = [
        ConfidenceLevel::P90,
        ConfidenceLevel::P95,
        ConfidenceLevel::P99,
    ];

    /// The level as a percentage (90, 95 or 99).
    #[must_use]
    pub fn percent(self) -> u64 {
        match self {
            ConfidenceLevel::P90 => 90,
            ConfidenceLevel::P95 => 95,
            ConfidenceLevel::P99 => 99,
        }
    }

    /// Parses a percentage (`90`, `95` or `99`).
    ///
    /// # Errors
    ///
    /// Returns a message listing the supported levels for anything else.
    pub fn from_percent(percent: u64) -> Result<Self, String> {
        match percent {
            90 => Ok(ConfidenceLevel::P90),
            95 => Ok(ConfidenceLevel::P95),
            99 => Ok(ConfidenceLevel::P99),
            other => Err(format!(
                "unsupported confidence level '{other}' (supported: 90, 95, 99)"
            )),
        }
    }

    /// The two-sided critical value `t` such that a Student-t variable
    /// with `df` degrees of freedom lies within `±t` with this level's
    /// probability.
    ///
    /// Exact for df ≤ 30; above that, rounds df *down* to the nearest
    /// table row (40, 60, 120, ∞), which over-covers rather than
    /// under-covers. `df = 0` (a one-observation sample) returns the
    /// df = 1 value so the caller never divides by a zero-width
    /// interval; [`crate::Summary::half_width`] short-circuits that
    /// case to 0 anyway.
    #[must_use]
    pub fn t_critical(self, df: u64) -> f64 {
        let df = df.max(1);
        let row = T_TABLE
            .iter()
            .rev()
            .find(|(table_df, ..)| *table_df <= df)
            .expect("df >= 1 always matches the first table row");
        match self {
            ConfidenceLevel::P90 => row.1,
            ConfidenceLevel::P95 => row.2,
            ConfidenceLevel::P99 => row.3,
        }
    }
}

impl fmt::Display for ConfidenceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}%", self.percent())
    }
}

impl FromStr for ConfidenceLevel {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let percent: u64 = s
            .trim()
            .trim_end_matches('%')
            .parse()
            .map_err(|_| format!("bad confidence level '{s}' (supported: 90, 95, 99)"))?;
        ConfidenceLevel::from_percent(percent)
    }
}

/// A two-sided Student-t confidence interval on a sample mean:
/// `mean ± half_width` covers the true mean with probability `level`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// The sample mean at the interval's centre.
    pub mean: f64,
    /// Distance from the mean to either bound (0 when n < 2).
    pub half_width: f64,
    /// The confidence level the interval was built at.
    pub level: ConfidenceLevel,
    /// Number of observations behind the interval.
    pub n: u64,
}

impl ConfidenceInterval {
    /// Lower bound of the interval.
    #[must_use]
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper bound of the interval.
    #[must_use]
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// `true` when `value` lies inside the interval (bounds included).
    #[must_use]
    pub fn contains(&self, value: f64) -> bool {
        (self.lo()..=self.hi()).contains(&value)
    }
}

impl fmt::Display for ConfidenceInterval {
    /// Renders as `mean ± half_width`, the paper-table cell format.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let precision = f.precision().unwrap_or(3);
        write!(
            f,
            "{:.precision$} ± {:.precision$}",
            self.mean, self.half_width
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_small_sample_critical_values() {
        assert_eq!(ConfidenceLevel::P95.t_critical(1), 12.706);
        assert_eq!(ConfidenceLevel::P95.t_critical(7), 2.365);
        assert_eq!(ConfidenceLevel::P90.t_critical(10), 1.812);
        assert_eq!(ConfidenceLevel::P99.t_critical(30), 2.750);
    }

    #[test]
    fn large_samples_step_down_conservatively() {
        // df 31..=39 uses the df-30 row; 40 uses its own.
        assert_eq!(ConfidenceLevel::P95.t_critical(35), 2.042);
        assert_eq!(ConfidenceLevel::P95.t_critical(40), 2.021);
        assert_eq!(ConfidenceLevel::P95.t_critical(100), 2.000);
        assert_eq!(ConfidenceLevel::P95.t_critical(10_000), 1.980);
        // The interval only narrows as df grows.
        for level in ConfidenceLevel::ALL {
            let mut last = f64::INFINITY;
            for df in 1..200 {
                let t = level.t_critical(df);
                assert!(t <= last, "{level}: t grew at df {df}");
                assert!(t > 1.0);
                last = t;
            }
        }
    }

    #[test]
    fn zero_df_is_clamped() {
        assert_eq!(
            ConfidenceLevel::P95.t_critical(0),
            ConfidenceLevel::P95.t_critical(1)
        );
    }

    #[test]
    fn levels_order_by_width() {
        for df in [1, 5, 29, 500] {
            assert!(
                ConfidenceLevel::P90.t_critical(df) < ConfidenceLevel::P95.t_critical(df)
                    && ConfidenceLevel::P95.t_critical(df) < ConfidenceLevel::P99.t_critical(df),
                "df {df}"
            );
        }
    }

    #[test]
    fn parses_percentages() {
        assert_eq!(
            "90".parse::<ConfidenceLevel>().unwrap(),
            ConfidenceLevel::P90
        );
        assert_eq!(
            "95%".parse::<ConfidenceLevel>().unwrap(),
            ConfidenceLevel::P95
        );
        assert_eq!(
            ConfidenceLevel::from_percent(99).unwrap(),
            ConfidenceLevel::P99
        );
        let err = "80".parse::<ConfidenceLevel>().unwrap_err();
        assert!(err.contains("90, 95, 99"), "{err}");
        assert!("ninety".parse::<ConfidenceLevel>().is_err());
    }

    #[test]
    fn interval_bounds_and_formatting() {
        let ci = ConfidenceInterval {
            mean: 10.0,
            half_width: 0.5,
            level: ConfidenceLevel::P95,
            n: 8,
        };
        assert_eq!(ci.lo(), 9.5);
        assert_eq!(ci.hi(), 10.5);
        assert!(ci.contains(9.5) && ci.contains(10.5) && !ci.contains(10.6));
        assert_eq!(format!("{ci}"), "10.000 ± 0.500");
        assert_eq!(format!("{ci:.1}"), "10.0 ± 0.5");
    }
}
