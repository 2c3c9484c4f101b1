//! Constant-bit-rate traffic: equally spaced, fixed-size packets.
//!
//! A fully deterministic calibration source — no RNG at all, so the
//! seed is ignored. Useful for pinning down simulator capacity (offered
//! load is exact) and as the degenerate case conformance tests lean on.

use serde::{Deserialize, Serialize};

use crate::{PacketSource, TrafficModel, MAX_PACKET_BYTES};

/// Configuration of the `constant` traffic model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConstantConfig {
    /// Aggregate arrival rate, Mbps.
    pub rate_mbps: f64,
    /// Size of every packet, bytes (1 to [`MAX_PACKET_BYTES`]).
    pub size_bytes: u32,
    /// Number of device ports, visited round-robin.
    pub ports: u8,
}

impl Default for ConstantConfig {
    fn default() -> Self {
        ConstantConfig {
            rate_mbps: 600.0,
            size_bytes: 576,
            ports: 16,
        }
    }
}

impl ConstantConfig {
    /// Gap between consecutive packets, microseconds.
    #[must_use]
    pub fn gap_us(&self) -> f64 {
        f64::from(self.size_bytes) * 8.0 / self.rate_mbps
    }

    fn validate(&self) {
        assert!(
            self.rate_mbps.is_finite() && self.rate_mbps > 0.0,
            "rate must be positive"
        );
        assert!(
            (1..=MAX_PACKET_BYTES).contains(&self.size_bytes),
            "packet size must be 1 to {MAX_PACKET_BYTES} bytes"
        );
        assert!(self.ports > 0, "need at least one port");
    }
}

impl TrafficModel for ConstantConfig {
    fn mean_rate_mbps(&self) -> f64 {
        self.rate_mbps
    }

    fn stream(&self, _seed: u64) -> PacketSource {
        self.validate();
        let config = *self;
        let gap = self.gap_us();
        PacketSource::new((0u64..).map(move |k| crate::Packet {
            // First packet one gap in, so time zero stays arrival-free.
            arrival: desim::SimTime::from_us_f64((k + 1) as f64 * gap),
            size_bytes: config.size_bytes,
            port: (k % u64::from(config.ports)) as u8,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimTime;

    #[test]
    fn rate_is_exact() {
        let c = ConstantConfig::default();
        let horizon_us = 10_000.0;
        let bits: f64 = c
            .packets_until(0, SimTime::from_us_f64(horizon_us))
            .iter()
            .map(|p| p.size_bits() as f64)
            .sum();
        let measured = bits / horizon_us;
        assert!(
            (measured - 600.0).abs() / 600.0 < 0.01,
            "measured {measured}"
        );
    }

    #[test]
    fn seed_is_irrelevant() {
        let c = ConstantConfig::default();
        let a: Vec<_> = c.stream(1).take(100).collect();
        let b: Vec<_> = c.stream(999).take(100).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn ports_rotate_round_robin() {
        let c = ConstantConfig {
            ports: 4,
            ..ConstantConfig::default()
        };
        let ports: Vec<u8> = c.stream(0).take(8).map(|p| p.port).collect();
        assert_eq!(ports, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn spacing_matches_the_rate() {
        let c = ConstantConfig {
            rate_mbps: 1000.0,
            size_bytes: 1250, // 10_000 bits -> one packet every 10 us
            ports: 1,
        };
        let packets: Vec<_> = c.stream(0).take(3).collect();
        assert!((packets[0].arrival.as_us() - 10.0).abs() < 1e-9);
        assert!((packets[2].arrival.as_us() - 30.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "packet size must be 1 to 65535 bytes")]
    fn rejects_oversized_packets() {
        let c = ConstantConfig {
            size_bytes: MAX_PACKET_BYTES + 1,
            ..ConstantConfig::default()
        };
        let _ = c.stream(0);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn rejects_zero_rate() {
        let c = ConstantConfig {
            rate_mbps: 0.0,
            ..ConstantConfig::default()
        };
        let _ = c.stream(0);
    }
}
