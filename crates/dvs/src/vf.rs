//! Voltage/frequency ladder.

use desim::Frequency;
use serde::{Deserialize, Serialize};

/// One voltage/frequency operating point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VfPoint {
    /// Core frequency in MHz.
    pub freq_mhz: u32,
    /// Supply voltage in millivolts.
    pub voltage_mv: u32,
}

impl VfPoint {
    /// The frequency as a [`Frequency`].
    #[must_use]
    pub fn frequency(&self) -> Frequency {
        Frequency::from_mhz(u64::from(self.freq_mhz))
    }

    /// The supply voltage in volts.
    #[must_use]
    pub fn voltage(&self) -> f64 {
        f64::from(self.voltage_mv) / 1000.0
    }

    /// Dynamic-power scale factor relative to `top`: `(V² f) / (V₀² f₀)`,
    /// from the paper's `P ∝ C · V² · α · f`.
    #[must_use]
    pub fn power_scale(&self, top: &VfPoint) -> f64 {
        let v = self.voltage();
        let v0 = top.voltage();
        (v * v * f64::from(self.freq_mhz)) / (v0 * v0 * f64::from(top.freq_mhz))
    }
}

impl std::fmt::Display for VfPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}MHz/{:.2}V", self.freq_mhz, self.voltage())
    }
}

/// An ordered set of VF operating points, lowest frequency first.
///
/// # Example
///
/// ```
/// use dvs::VfLadder;
/// let ladder = VfLadder::xscale_npu();
/// assert_eq!(ladder.len(), 5);
/// assert_eq!(ladder.top().freq_mhz, 600);
/// assert_eq!(ladder.bottom().freq_mhz, 400);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VfLadder {
    points: Vec<VfPoint>,
}

impl VfLadder {
    /// The paper's ladder (§4.1, Fig. 5): 400–600 MHz in 50 MHz steps with
    /// voltages 1.1–1.3 V, patterned after Intel XScale.
    #[must_use]
    pub fn xscale_npu() -> Self {
        VfLadder {
            points: vec![
                VfPoint {
                    freq_mhz: 400,
                    voltage_mv: 1100,
                },
                VfPoint {
                    freq_mhz: 450,
                    voltage_mv: 1150,
                },
                VfPoint {
                    freq_mhz: 500,
                    voltage_mv: 1200,
                },
                VfPoint {
                    freq_mhz: 550,
                    voltage_mv: 1250,
                },
                VfPoint {
                    freq_mhz: 600,
                    voltage_mv: 1300,
                },
            ],
        }
    }

    /// Builds a ladder from explicit points.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or not strictly increasing in frequency.
    #[must_use]
    pub fn from_points(points: Vec<VfPoint>) -> Self {
        assert!(!points.is_empty(), "ladder needs at least one point");
        assert!(
            points.windows(2).all(|w| w[0].freq_mhz < w[1].freq_mhz),
            "ladder points must be strictly increasing in frequency"
        );
        VfLadder { points }
    }

    /// Number of operating points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `false`: a ladder always has at least one point.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The operating point at `index` (0 = lowest frequency).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn point(&self, index: usize) -> VfPoint {
        self.points[index]
    }

    /// Index of the highest-frequency point.
    #[must_use]
    pub fn top_index(&self) -> usize {
        self.points.len() - 1
    }

    /// The highest-frequency operating point (the "no DVS" point).
    #[must_use]
    pub fn top(&self) -> VfPoint {
        *self.points.last().expect("ladder is never empty")
    }

    /// The lowest-frequency operating point.
    #[must_use]
    pub fn bottom(&self) -> VfPoint {
        self.points[0]
    }

    /// Iterates over the points, lowest frequency first.
    pub fn iter(&self) -> std::slice::Iter<'_, VfPoint> {
        self.points.iter()
    }
}

impl<'a> IntoIterator for &'a VfLadder {
    type Item = &'a VfPoint;
    type IntoIter = std::slice::Iter<'a, VfPoint>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xscale_ladder_matches_fig5() {
        let ladder = VfLadder::xscale_npu();
        let expect = [
            (400, 1.10),
            (450, 1.15),
            (500, 1.20),
            (550, 1.25),
            (600, 1.30),
        ];
        for (p, (f, v)) in ladder.iter().zip(expect) {
            assert_eq!(p.freq_mhz, f);
            assert!((p.voltage() - v).abs() < 1e-9);
        }
    }

    #[test]
    fn power_scale_is_monotone_and_bounded() {
        let ladder = VfLadder::xscale_npu();
        let top = ladder.top();
        let scales: Vec<f64> = ladder.iter().map(|p| p.power_scale(&top)).collect();
        assert!(scales.windows(2).all(|w| w[0] < w[1]));
        assert!((scales.last().unwrap() - 1.0).abs() < 1e-12);
        // Bottom point: (1.1^2 * 400) / (1.3^2 * 600) ~= 0.477.
        assert!(
            (scales[0] - 0.477).abs() < 0.01,
            "bottom scale {}",
            scales[0]
        );
    }

    #[test]
    fn display_formats() {
        let p = VfPoint {
            freq_mhz: 550,
            voltage_mv: 1250,
        };
        assert_eq!(p.to_string(), "550MHz/1.25V");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_points_rejects_unsorted() {
        let _ = VfLadder::from_points(vec![
            VfPoint {
                freq_mhz: 600,
                voltage_mv: 1300,
            },
            VfPoint {
                freq_mhz: 400,
                voltage_mv: 1100,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn from_points_rejects_empty() {
        let _ = VfLadder::from_points(Vec::new());
    }
}
