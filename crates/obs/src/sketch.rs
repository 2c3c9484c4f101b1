//! Deterministic fixed-bin log2 histogram sketch.
//!
//! Values are binned by bit pattern: the key is the f64's biased
//! exponent concatenated with the top 3 mantissa bits, giving 8
//! linearly-spaced sub-bins per octave (≤ 12.5 % relative bin width).
//! Binning never does arithmetic on the value, so two runs that record
//! the same values — in any order — build the same sketch, and
//! [`HistogramSketch::merge`] (plain count addition) folds replicates
//! exactly, the way `stats::Summary` folds means.
//!
//! Quantiles report a bin's **lower edge**, again reconstructed purely
//! from the key's bits: a quantile is always a value ≤ the true order
//! statistic, within one bin width, and bit-identical across worker
//! counts and fold orders.

use std::collections::BTreeMap;

/// Mantissa bits kept per bin: 2³ = 8 sub-bins per octave.
const SUB_BITS: u32 = 3;

/// Bin key for non-positive / non-finite values (see [`bin_key`]).
const ZERO_KEY: u32 = 0;

/// A deterministic log2 histogram over non-negative samples.
///
/// Zero, negative and non-finite values all land in a dedicated
/// underflow bin whose lower edge is 0 — the recorded channels are
/// non-negative, so this only matters for degenerate inputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSketch {
    counts: BTreeMap<u32, u64>,
    total: u64,
}

/// Maps a value to its bin key. Pure bit manipulation: biased exponent
/// (11 bits) followed by the top [`SUB_BITS`] mantissa bits, offset by
/// one so [`ZERO_KEY`] stays reserved for the underflow bin.
fn bin_key(value: f64) -> u32 {
    if !value.is_finite() || value <= 0.0 {
        return ZERO_KEY;
    }
    let bits = value.to_bits();
    let exponent = ((bits >> 52) & 0x7ff) as u32;
    let sub = ((bits >> (52 - SUB_BITS)) & ((1 << SUB_BITS) - 1)) as u32;
    (exponent << SUB_BITS | sub) + 1
}

/// Reconstructs a bin's lower edge from its key — the exact inverse of
/// [`bin_key`] onto the smallest value in the bin.
fn bin_lower_edge(key: u32) -> f64 {
    if key == ZERO_KEY {
        return 0.0;
    }
    let k = u64::from(key - 1);
    let exponent = k >> SUB_BITS;
    let sub = k & ((1 << SUB_BITS) - 1);
    f64::from_bits(exponent << 52 | sub << (52 - SUB_BITS))
}

impl HistogramSketch {
    /// A fresh, empty sketch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A sketch over a slice of values.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        let mut sketch = Self::new();
        for &v in values {
            sketch.record(v);
        }
        sketch
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        *self.counts.entry(bin_key(value)).or_insert(0) += 1;
        self.total += 1;
    }

    /// Adds every bin of `other` into this sketch. Exact and
    /// commutative: any fold order yields the same sketch.
    pub fn merge(&mut self, other: &Self) {
        for (&key, &n) in &other.counts {
            *self.counts.entry(key).or_insert(0) += n;
        }
        self.total += other.total;
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Whether no sample was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The q-quantile (`0 < q ≤ 1`) as the lower edge of the bin
    /// holding the ⌈q·n⌉-th smallest sample; `None` on an empty sketch.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `(0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
        if self.total == 0 {
            return None;
        }
        // ⌈q·n⌉ computed in integers to stay exact for every n.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0_u64;
        for (&key, &n) in &self.counts {
            seen += n;
            if seen >= target {
                return Some(bin_lower_edge(key));
            }
        }
        unreachable!("bin counts sum to total")
    }

    /// Median (lower bin edge).
    #[must_use]
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th percentile (lower bin edge).
    #[must_use]
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th percentile (lower bin edge).
    #[must_use]
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = HistogramSketch::new();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn zero_quantile_is_rejected() {
        let _ = HistogramSketch::of(&[1.0]).quantile(0.0);
    }

    #[test]
    fn lower_edge_is_at_most_the_value_and_within_an_octave_eighth() {
        let values = [
            1e-6, 0.013, 0.5, 0.99, 1.0, 1.01, 7.3, 64.0, 100.0, 1e9, 1e18,
        ];
        for &v in &values {
            let edge = bin_lower_edge(bin_key(v));
            assert!(edge <= v, "edge {edge} > value {v}");
            // Next sub-bin is 1/8 octave up: relative error ≤ 12.5 %.
            assert!(
                v < edge * (1.0 + 1.0 / 8.0) + f64::EPSILON,
                "value {v} bin too wide"
            );
        }
    }

    #[test]
    fn exact_powers_of_two_are_their_own_lower_edge() {
        for &v in &[0.25, 0.5, 1.0, 2.0, 4.0, 1024.0] {
            assert_eq!(bin_lower_edge(bin_key(v)), v);
        }
    }

    #[test]
    fn degenerate_values_land_in_the_underflow_bin() {
        for v in [0.0, -0.0, -3.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(bin_key(v), ZERO_KEY, "value {v}");
        }
        let s = HistogramSketch::of(&[0.0, -1.0]);
        assert_eq!(s.quantile(1.0), Some(0.0));
    }

    #[test]
    fn quantiles_walk_the_ordered_bins() {
        // 100 samples, 1..=100: p50 must sit in 50's bin, p99 in 99's.
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = HistogramSketch::of(&values);
        assert_eq!(s.count(), 100);
        let p50 = s.p50().unwrap();
        assert!(p50 <= 50.0 && 50.0 < p50 * 1.125, "p50 {p50}");
        let p99 = s.p99().unwrap();
        assert!(p99 <= 99.0 && 99.0 < p99 * 1.125, "p99 {p99}");
        assert_eq!(s.quantile(1.0).unwrap(), bin_lower_edge(bin_key(100.0)));
        // Shuffled input builds the identical sketch.
        let mut reversed = values.clone();
        reversed.reverse();
        assert_eq!(HistogramSketch::of(&reversed), s);
    }

    #[test]
    fn merge_equals_recording_everything_into_one_sketch() {
        let a: Vec<f64> = (1..=37).map(|i| f64::from(i) * 0.37).collect();
        let b: Vec<f64> = (1..=53).map(|i| f64::from(i) * 1.91).collect();
        let mut merged = HistogramSketch::of(&a);
        merged.merge(&HistogramSketch::of(&b));
        let mut all = a.clone();
        all.extend_from_slice(&b);
        assert_eq!(merged, HistogramSketch::of(&all));
        // Commutes: b-then-a folds to the same sketch.
        let mut flipped = HistogramSketch::of(&b);
        flipped.merge(&HistogramSketch::of(&a));
        assert_eq!(flipped, merged);
        assert_eq!(merged.count(), 90);
    }

    #[test]
    fn constant_stream_reports_its_own_bin_for_every_quantile() {
        let s = HistogramSketch::of(&[3.0; 40]);
        let edge = bin_lower_edge(bin_key(3.0));
        for q in [0.01, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile(q), Some(edge));
        }
    }
}
