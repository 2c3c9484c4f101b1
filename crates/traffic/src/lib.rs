//! Synthetic IP traffic models for the NPU experiments, behind the open
//! [`TrafficModel`] API.
//!
//! The paper drives NePSim with packet arrivals sampled from a real NLANR
//! edge-router trace (its Fig. 2). The NLANR archive is no longer
//! available, so this crate provides synthetic equivalents — all exposed
//! through one trait:
//!
//! * [`TrafficModel`] — a deterministic, self-describing packet source:
//!   `stream(seed)` instantiates a reproducible iterator,
//!   `mean_rate_mbps` / `expected_rate_mbps` describe the offered load;
//! * [`TrafficSpec`] + [`TRAFFIC_MODELS`] — the declarative layer: every
//!   model is reachable by name through the spec grammar
//!   (`name:key=val,...`), with exact round-tripping. The entry table
//!   is this crate's; the lookup is `kvspec`'s [`Registry`].
//!
//! Built-in models:
//!
//! * [`TrafficLevel`] (`low`/`medium`/`high`) — the paper's three
//!   sampling periods (§3.2, §4.3);
//! * [`ArrivalConfig`]/[`PacketStream`] (`mmpp`) — the bursty
//!   Markov-modulated Poisson generator over 16 device ports with an
//!   IMIX-style size mix;
//! * [`DiurnalModel`]/[`DiurnalConfig`] (`diurnal`) — the day-long
//!   arrival-rate profile of paper Fig. 2, sampled at a time of day;
//! * [`OnOffConfig`] (`burst`) — deterministic on/off bursts;
//! * [`FlashConfig`] (`flash`) — a transient flash-crowd spike;
//! * [`ConstantConfig`] (`constant`) — a CBR calibration source;
//! * [`RecordedTrace`]/[`ReplayConfig`] (`trace`) — byte-exact replay
//!   of a recorded trace;
//! * [`StochasticConfig`] (`stochastic`) — renewal arrivals with any
//!   [`dist`] gap/size distributions
//!   (`stochastic:gap=pareto:alpha=1.3,size=lognormal:mu=6,sigma=1.2`);
//! * [`ScheduleConfig`] (`schedule`) — piecewise composition of any of
//!   the above over contiguous cycle windows
//!   (`schedule:segments=[low@0..2e6; flash@2e6..4e6; low@4e6..]`),
//!   each segment independently seeded — the time-varying workloads
//!   behind the `scenario` layer.
//!
//! [`Thinned`] is a combinator rather than a registered model: it
//! carries a *share* of any other model's load via Bernoulli thinning,
//! which is how the `fleet` layer shards one aggregate stream across N
//! chips.
//!
//! The property the DVS study depends on — *unbalanced* load with burst
//! and lull phases long enough to span several monitor windows — is
//! preserved by the MMPP and on/off models.
//!
//! # Example
//!
//! ```
//! use desim::SimTime;
//! use traffic::{TrafficModel, TrafficSpec};
//!
//! let spec: TrafficSpec = "burst:on_mbps=1800,off_mbps=120,period_s=2"
//!     .parse()
//!     .unwrap();
//! let model = spec.model().unwrap();
//! let packets = model.packets_until(7, SimTime::from_ms(1));
//! assert!(!packets.is_empty());
//! assert_eq!(spec.spec_string().parse::<TrafficSpec>().unwrap(), spec);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arrivals;
mod constant;
mod diurnal;
mod flash;
mod model;
mod onoff;
mod packet;
mod registry;
mod replay;
mod schedule;
mod spec;
mod stochastic;
mod thin;

pub use arrivals::{ArrivalConfig, PacketStream};
pub use constant::ConstantConfig;
pub use diurnal::{DiurnalConfig, DiurnalModel, DiurnalSample};
pub use flash::FlashConfig;
// Re-export the shared grammar machinery so custom tooling needs only
// this crate.
pub use kvspec::{ParamInfo, Params, Registry, SpecError};
pub use model::{PacketSource, TrafficModel};
pub use onoff::OnOffConfig;
pub use packet::{Packet, SizeMix, MAX_PACKET_BYTES};
pub use registry::TRAFFIC_MODELS;
pub use replay::{RecordedTrace, ReplayConfig};
pub use schedule::{ScheduleConfig, ScheduleModel, ScheduleSegment};
pub use spec::TrafficSpec;
pub use stochastic::StochasticConfig;
pub use thin::Thinned;

use serde::{Deserialize, Serialize};

/// The paper's three traffic-volume sampling periods (§3.2: "We sample a
/// few seconds of real traffic in high, medium and low arriving rates").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficLevel {
    /// Night-time lull traffic.
    Low,
    /// Shoulder-period traffic.
    Medium,
    /// Mid-day peak traffic.
    High,
}

impl TrafficLevel {
    /// All levels, lowest first.
    pub const ALL: [TrafficLevel; 3] =
        [TrafficLevel::Low, TrafficLevel::Medium, TrafficLevel::High];

    /// Target aggregate arrival rate across all 16 ports, in Mbps.
    ///
    /// Chosen so the TDVS thresholds explored in the paper (800–1400 Mbps)
    /// straddle the offered load: high traffic sits above the lowest
    /// thresholds and low traffic below all of them.
    #[must_use]
    pub fn mean_rate_mbps(self) -> f64 {
        match self {
            TrafficLevel::Low => 450.0,
            TrafficLevel::Medium => 850.0,
            TrafficLevel::High => 1150.0,
        }
    }
}

impl std::fmt::Display for TrafficLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            TrafficLevel::Low => "low",
            TrafficLevel::Medium => "medium",
            TrafficLevel::High => "high",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered() {
        assert!(TrafficLevel::Low.mean_rate_mbps() < TrafficLevel::Medium.mean_rate_mbps());
        assert!(TrafficLevel::Medium.mean_rate_mbps() < TrafficLevel::High.mean_rate_mbps());
    }

    #[test]
    fn display_names() {
        let names: Vec<String> = TrafficLevel::ALL.iter().map(|l| l.to_string()).collect();
        assert_eq!(names, vec!["low", "medium", "high"]);
    }
}
