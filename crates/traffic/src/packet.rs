//! Packets and packet-size mixes.

use desim::SimTime;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The largest packet, in bytes, that traffic may carry into the
/// simulator: the 16-bit IP total-length limit. Sizes are bounded where
/// traffic enters (spec grammar, model validation, trace files), so the
/// per-packet workload arithmetic downstream (instruction counts of 10
/// per byte, 8 bus bits per byte) cannot overflow `u32`.
pub const MAX_PACKET_BYTES: u32 = 65_535;

/// One IP packet arriving at a device port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Arrival time at the port.
    pub arrival: SimTime,
    /// Packet size in bytes (wire size).
    pub size_bytes: u32,
    /// Device port index (the IXP1200 exposes 16).
    pub port: u8,
}

impl Packet {
    /// Packet size in bits.
    #[must_use]
    pub fn size_bits(&self) -> u64 {
        u64::from(self.size_bytes) * 8
    }
}

/// A discrete packet-size distribution.
///
/// The default is the classic Internet IMIX observed at edge routers:
/// mostly 40-byte TCP control packets, a band of 576-byte datagrams and a
/// tail of full 1500-byte MTU packets.
///
/// # Example
///
/// ```
/// use traffic::SizeMix;
/// let mix = SizeMix::imix();
/// assert!((mix.mean_bytes() - 340.0).abs() < 20.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SizeMix {
    /// `(size_bytes, weight)` pairs; weights need not be normalised.
    entries: Vec<(u32, f64)>,
    total_weight: f64,
}

impl SizeMix {
    /// The classic 7:4:1 IMIX (40 B / 576 B / 1500 B).
    #[must_use]
    pub fn imix() -> Self {
        SizeMix::from_entries(vec![(40, 7.0), (576, 4.0), (1500, 1.0)])
    }

    /// A constant packet size (useful for deterministic tests).
    #[must_use]
    pub fn fixed(size_bytes: u32) -> Self {
        SizeMix::from_entries(vec![(size_bytes, 1.0)])
    }

    /// Builds a mix from `(size_bytes, weight)` entries.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty, or any size is zero, or any weight is
    /// not positive and finite.
    #[must_use]
    pub fn from_entries(entries: Vec<(u32, f64)>) -> Self {
        assert!(!entries.is_empty(), "size mix needs at least one entry");
        for &(size, w) in &entries {
            assert!(size > 0, "packet size must be positive");
            assert!(w.is_finite() && w > 0.0, "weights must be positive");
        }
        let total_weight = entries.iter().map(|(_, w)| w).sum();
        SizeMix {
            entries,
            total_weight,
        }
    }

    /// Mean packet size in bytes.
    #[must_use]
    pub fn mean_bytes(&self) -> f64 {
        self.entries
            .iter()
            .map(|&(s, w)| f64::from(s) * w)
            .sum::<f64>()
            / self.total_weight
    }

    /// Mean packet size in bits.
    #[must_use]
    pub fn mean_bits(&self) -> f64 {
        self.mean_bytes() * 8.0
    }

    /// Draws one packet size.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> u32 {
        let mut x = rng.gen_range(0.0..self.total_weight);
        for &(size, w) in &self.entries {
            if x < w {
                return size;
            }
            x -= w;
        }
        self.entries.last().expect("mix is non-empty").0
    }
}

impl Default for SizeMix {
    fn default() -> Self {
        SizeMix::imix()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::rng::root_rng;

    #[test]
    fn imix_mean_is_canonical() {
        // (40*7 + 576*4 + 1500*1) / 12 = 340.33 bytes.
        let mix = SizeMix::imix();
        assert!((mix.mean_bytes() - 340.333).abs() < 0.01);
        assert!((mix.mean_bits() - 2722.66).abs() < 0.1);
    }

    #[test]
    fn fixed_mix_always_returns_same_size() {
        let mix = SizeMix::fixed(512);
        let mut rng = root_rng(3);
        for _ in 0..100 {
            assert_eq!(mix.sample(&mut rng), 512);
        }
        assert_eq!(mix.mean_bytes(), 512.0);
    }

    #[test]
    fn sampling_matches_weights() {
        let mix = SizeMix::imix();
        let mut rng = root_rng(11);
        let n = 60_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            *counts.entry(mix.sample(&mut rng)).or_insert(0u32) += 1;
        }
        let frac40 = f64::from(counts[&40]) / n as f64;
        assert!((frac40 - 7.0 / 12.0).abs() < 0.02, "40B fraction {frac40}");
        let frac1500 = f64::from(counts[&1500]) / n as f64;
        assert!((frac1500 - 1.0 / 12.0).abs() < 0.02);
    }

    #[test]
    fn packet_size_bits() {
        let p = Packet {
            arrival: SimTime::ZERO,
            size_bytes: 576,
            port: 3,
        };
        assert_eq!(p.size_bits(), 4608);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn rejects_empty_mix() {
        let _ = SizeMix::from_entries(Vec::new());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_size() {
        let _ = SizeMix::from_entries(vec![(0, 1.0)]);
    }
}
