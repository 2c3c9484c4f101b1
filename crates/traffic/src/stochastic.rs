//! Dist-driven stochastic traffic: renewal arrivals with arbitrary
//! inter-arrival gap and packet-size distributions.
//!
//! Where `level` is exponential-gap/mix-size by construction, this
//! model composes any two members of the [`dist`] family: a gap
//! distribution (microseconds between consecutive packets) and a size
//! distribution (bytes per packet). Heavy-tailed gaps (Pareto, Weibull
//! with shape < 1) produce the bursty, long-range-dependent arrival
//! processes the trace analyzer's Hurst proxy is built to detect.
//!
//! Streams are split with [`desim::rng::derive_seed`]: gaps come from
//! family index 0, sizes from 1, ports from 2, so consuming one stream
//! never perturbs another and the model stays seed-deterministic like
//! every other member of the registry.

use serde::{Deserialize, Serialize};

use desim::rng::{derive_seed, root_rng};
use desim::SimTime;
use dist::DistSpec;
use rand::Rng;

use crate::{Packet, PacketSource, TrafficModel, MAX_PACKET_BYTES};

/// Configuration of the `stochastic` traffic model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StochasticConfig {
    /// Inter-arrival gap distribution, microseconds.
    pub gap: DistSpec,
    /// Packet size distribution, bytes.
    pub size: DistSpec,
    /// Number of device ports, chosen uniformly per packet.
    pub ports: u8,
}

impl Default for StochasticConfig {
    fn default() -> Self {
        StochasticConfig {
            // ~385 packets/ms of heavy-tailed gaps around a mean of
            // 2.6us, sized like clamped-lognormal internet packets:
            // roughly 1.7 Gbps offered with realistic burstiness.
            gap: DistSpec::parse("pareto:alpha=1.5,scale=2.6,max=1000")
                .expect("default gap spec parses"),
            size: DistSpec::parse("lognormal:mu=6,sigma=1.2,min=40,max=1500")
                .expect("default size spec parses"),
            ports: 16,
        }
    }
}

impl StochasticConfig {
    /// Mean inter-arrival gap, microseconds — the truncated mean of the
    /// gap distribution, honest under clamping.
    #[must_use]
    pub fn mean_gap_us(&self) -> f64 {
        self.gap.mean()
    }

    /// Mean packet size, bytes, honest under clamping.
    #[must_use]
    pub fn mean_size_bytes(&self) -> f64 {
        self.size.mean()
    }

    fn validate(&self) {
        let gap_mean = self.gap.mean();
        assert!(
            gap_mean.is_finite() && gap_mean > 0.0,
            "gap distribution needs a finite positive mean, got {gap_mean}"
        );
        assert!(
            self.gap.support_min() >= 0.0,
            "gap distribution must not produce negative gaps"
        );
        let size_mean = self.size.mean();
        assert!(
            size_mean.is_finite() && size_mean >= 1.0,
            "size distribution needs a finite mean of at least one byte"
        );
        assert!(self.ports > 0, "need at least one port");
    }
}

impl TrafficModel for StochasticConfig {
    fn mean_rate_mbps(&self) -> f64 {
        // bytes × 8 / microseconds = bits/us = Mbps.
        self.mean_size_bytes() * 8.0 / self.mean_gap_us()
    }

    fn stream(&self, seed: u64) -> PacketSource {
        self.validate();
        let gap = self.gap;
        let size = self.size;
        let ports = self.ports;
        let mut gap_rng = root_rng(derive_seed(seed, 0));
        let mut size_rng = root_rng(derive_seed(seed, 1));
        let mut port_rng = root_rng(derive_seed(seed, 2));
        let mut now_us = 0.0_f64;
        PacketSource::new(std::iter::from_fn(move || {
            // Strictly positive gaps keep time monotone even when the
            // distribution's support touches zero.
            now_us += gap.sample(&mut gap_rng).max(1e-6);
            let bytes = size
                .sample(&mut size_rng)
                .round()
                .clamp(1.0, f64::from(MAX_PACKET_BYTES));
            Some(Packet {
                arrival: SimTime::from_us_f64(now_us),
                size_bytes: bytes as u32,
                port: port_rng.gen_range(0..u32::from(ports)) as u8,
            })
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let c = StochasticConfig::default();
        let a: Vec<Packet> = c.stream(7).take(64).collect();
        let b: Vec<Packet> = c.stream(7).take(64).collect();
        assert_eq!(a, b);
        let other: Vec<Packet> = c.stream(8).take(64).collect();
        assert_ne!(a, other);
    }

    #[test]
    fn time_is_strictly_monotone_and_positive() {
        let c = StochasticConfig {
            gap: DistSpec::parse("uniform:low=0,high=1").unwrap(),
            ..StochasticConfig::default()
        };
        let mut last = SimTime::ZERO;
        for p in c.stream(3).take(2_000) {
            assert!(p.arrival > last, "arrivals must advance");
            last = p.arrival;
        }
    }

    #[test]
    fn sizes_and_ports_respect_bounds() {
        let c = StochasticConfig {
            ports: 4,
            ..StochasticConfig::default()
        };
        for p in c.stream(11).take(2_000) {
            assert!((40..=1500).contains(&p.size_bytes), "size {}", p.size_bytes);
            assert!(p.port < 4, "port {}", p.port);
        }
    }

    #[test]
    fn measured_rate_tracks_the_honest_mean() {
        // Constant gap + constant size is exact; the heavy-tailed
        // default needs the conformance suite's looser tolerance.
        let c = StochasticConfig {
            gap: DistSpec::parse("constant:value=10").unwrap(),
            size: DistSpec::parse("constant:value=500").unwrap(),
            ports: 16,
        };
        assert!((c.mean_rate_mbps() - 400.0).abs() < 1e-9);
        let horizon = SimTime::from_us(100_000);
        let bits: f64 = c
            .packets_until(0, horizon)
            .iter()
            .map(|p| p.size_bits() as f64)
            .sum();
        let measured = bits / horizon.as_us();
        assert!(
            (measured - 400.0).abs() / 400.0 < 0.01,
            "measured {measured} Mbps"
        );
    }

    #[test]
    fn gap_stream_is_independent_of_size_stream() {
        // Replacing the size distribution must not move arrival times.
        let a = StochasticConfig::default();
        let b = StochasticConfig {
            size: DistSpec::parse("constant:value=64").unwrap(),
            ..StochasticConfig::default()
        };
        let ta: Vec<SimTime> = a.stream(5).take(256).map(|p| p.arrival).collect();
        let tb: Vec<SimTime> = b.stream(5).take(256).map(|p| p.arrival).collect();
        assert_eq!(ta, tb);
    }
}
