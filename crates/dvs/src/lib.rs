//! Dynamic voltage scaling (DVS) policies for the NPU model, behind one
//! pluggable interface.
//!
//! # The policy API
//!
//! Everything revolves around the [`DvsPolicy`] trait: once per monitor
//! window the platform hands the policy a rich [`PolicyObservation`]
//! (aggregate traffic, per-ME idle fractions and VF levels, FIFO
//! occupancies, drop counts) and receives a [`PolicyResponse`] of per-ME
//! [`ScalingDecision`]s. Global, per-engine and hybrid policies all share
//! this interface; the simulator contains no policy-specific code.
//!
//! Policies are *described* by a [`PolicySpec`] — serializable data that
//! names a policy and its parameters — and *instantiated* with
//! [`PolicySpec::build`]. Specs are written in the CLI grammar
//! (`tdvs:threshold=1400,window=40000`) and resolved through the entry
//! table [`POLICIES`], a `kvspec` [`Registry`]. Adding a policy is a
//! single-crate change: implement the trait, add a spec variant, add
//! its entry (see the `registry` module docs for the walkthrough).
//!
//! # Built-in policies
//!
//! | spec name      | kind    | signal                  | scope  |
//! |----------------|---------|-------------------------|--------|
//! | `nodvs`        | noDVS   | —                       | —      |
//! | `tdvs`         | TDVS    | traffic volume (§4.1)   | global |
//! | `edvs`         | EDVS    | idle time (§4.2)        | per-ME |
//! | `combined`     | TEDVS   | traffic AND idle        | per-ME |
//! | `queue`        | QDVS    | rx-FIFO occupancy       | global |
//! | `proportional` | PDVS    | idle time (PI control)  | per-ME |
//!
//! Every built-in policy is a [`DvsPolicy`]: the paper's two ([`Tdvs`],
//! [`Edvs`]), the TEDVS extension ([`Combined`]), [`QueueAware`],
//! [`Proportional`] and the [`NoDvsPolicy`] baseline.
//!
//! All built-ins operate on the XScale-style VF ladder of
//! [`VfLadder::xscale_npu`] — 400–600 MHz in 50 MHz steps, 1.1–1.3 V —
//! and every applied level change pays the paper's [`SWITCH_PENALTY`] of
//! 10 µs (6000 cycles at 600 MHz).
//!
//! # Example
//!
//! ```
//! use dvs::{PolicySpec, VfLadder};
//!
//! // The spec-string route to a policy as a trait object.
//! let spec: PolicySpec = "tdvs:threshold=1000,window=40000".parse().unwrap();
//! let policy = spec.build(&VfLadder::xscale_npu());
//! assert_eq!(policy.window_cycles(), Some(40_000));
//! assert!(policy.monitors_traffic());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod combined;
mod edvs;
mod policy;
mod proportional;
mod queue;
mod registry;
mod spec;
mod tdvs;
mod vf;

pub use combined::{Combined, CombinedConfig};
pub use edvs::{Edvs, EdvsConfig};
pub use kvspec::{ParamInfo, Registry};
pub use policy::{
    DvsPolicy, MeObservation, NoDvsPolicy, PolicyObservation, PolicyResponse, QueueObservation,
};
pub use proportional::{Proportional, ProportionalConfig};
pub use queue::{QueueAware, QueueAwareConfig};
pub use registry::POLICIES;
pub use spec::{Params, PolicySpec, SpecError};
pub use tdvs::{HysteresisTdvsConfig, Tdvs, TdvsConfig};
pub use vf::{VfLadder, VfPoint};

use desim::SimTime;
use serde::{Deserialize, Serialize};

/// Wall-clock stall paid by an affected microengine on every VF switch
/// (paper §4.1: 10 µs, i.e. 6000 cycles at the normal 600 MHz frequency).
pub const SWITCH_PENALTY: SimTime = SimTime::from_us(10);

/// Energy overhead of the TDVS traffic monitor per arriving packet, in
/// microjoules: one 32-bit add + compare per packet (paper §4.1 reports the
/// total monitor overhead as < 1 % of chip power; a 32-bit adder event at
/// 0.13 µm is on the order of a few picojoules).
pub const MONITOR_ADDER_ENERGY_UJ: f64 = 8.0e-6;

/// What a DVS policy asks the platform to do at a window boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScalingDecision {
    /// Step one VF level up (higher frequency/voltage).
    Up,
    /// Step one VF level down (lower frequency/voltage).
    Down,
    /// Stay at the current level (also returned when a step is requested
    /// but the ladder bound is already reached).
    Hold,
}

impl ScalingDecision {
    /// Steps `level` one rung down when `down` asks and it is above the
    /// bottom, else one rung up when `up` asks and it is below `top`,
    /// else holds, and returns the step taken: the rule of every built-in
    /// policy that keeps its own level.
    pub(crate) fn step(level: &mut usize, top: usize, down: bool, up: bool) -> Self {
        if down && *level > 0 {
            *level -= 1;
            ScalingDecision::Down
        } else if up && *level < top {
            *level += 1;
            ScalingDecision::Up
        } else {
            ScalingDecision::Hold
        }
    }
}

/// Identifies which policy family an experiment runs — the label used by
/// reports, comparison tables and figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// No DVS: the processor stays at the top VF level.
    NoDvs,
    /// Traffic-based DVS (global).
    Tdvs,
    /// Execution-based DVS (per-ME).
    Edvs,
    /// Combined traffic + idle DVS (TEDVS).
    Combined,
    /// Queue-occupancy DVS (global).
    QueueAware,
    /// Proportional (PI) idle-time DVS (per-ME).
    Proportional,
    /// A user-defined policy outside the built-in registry.
    Custom,
}

impl PolicyKind {
    /// Every kind, in declaration order.
    pub const ALL: [PolicyKind; 7] = [
        PolicyKind::NoDvs,
        PolicyKind::Tdvs,
        PolicyKind::Edvs,
        PolicyKind::Combined,
        PolicyKind::QueueAware,
        PolicyKind::Proportional,
        PolicyKind::Custom,
    ];

    /// The kind's label in reports and tables (`noDVS`, `TDVS`, ...).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            PolicyKind::NoDvs => "noDVS",
            PolicyKind::Tdvs => "TDVS",
            PolicyKind::Edvs => "EDVS",
            PolicyKind::Combined => "TEDVS",
            PolicyKind::QueueAware => "QDVS",
            PolicyKind::Proportional => "PDVS",
            PolicyKind::Custom => "custom",
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_penalty_matches_paper() {
        // 10us at 600MHz = 6000 cycles.
        let f = desim::Frequency::from_mhz(600);
        assert_eq!(f.time_to_cycles(SWITCH_PENALTY), 6000);
    }

    #[test]
    fn policy_kind_display() {
        assert_eq!(PolicyKind::NoDvs.to_string(), "noDVS");
        assert_eq!(PolicyKind::Tdvs.to_string(), "TDVS");
        assert_eq!(PolicyKind::Edvs.to_string(), "EDVS");
        assert_eq!(PolicyKind::Combined.to_string(), "TEDVS");
        assert_eq!(PolicyKind::QueueAware.to_string(), "QDVS");
        assert_eq!(PolicyKind::Proportional.to_string(), "PDVS");
        assert_eq!(PolicyKind::Custom.to_string(), "custom");
    }
}

/// The paper's automata as [`PolicySpec::build`] adapts them to the
/// [`DvsPolicy`] trait object the platform drives.
#[cfg(test)]
mod adapters {
    mod tests {
        use crate::test_window::Window;
        use crate::ScalingDecision::{Down, Hold};
        use crate::{CombinedConfig, EdvsConfig, PolicySpec, VfLadder};

        #[test]
        fn combined_adapter_needs_both_signals_to_scale_down() {
            let spec = PolicySpec::Combined(CombinedConfig::default());
            let mut p = spec.build(&VfLadder::xscale_npu());
            // Idle but heavy traffic: hold (at top).
            assert_eq!(Window::new(2000.0, &[0.5]).decide(p.as_mut()), [Hold]);
            // Idle and light traffic: down.
            assert_eq!(Window::new(100.0, &[0.5]).decide(p.as_mut()), [Down]);
            assert!(p.monitors_traffic());
        }

        #[test]
        #[should_panic(expected = "idle threshold")]
        fn edvs_adapter_validates_eagerly() {
            let bad = EdvsConfig {
                idle_threshold: 2.0,
                window_cycles: 40_000,
            };
            let _ = PolicySpec::Edvs(bad).build(&VfLadder::xscale_npu());
        }
    }
}

/// The observation builder of the policies' unit tests.
#[cfg(test)]
pub(crate) mod test_window {
    use crate::{DvsPolicy, MeObservation, PolicyObservation, QueueObservation, ScalingDecision};

    /// One monitor window as a policy sees it.
    pub(crate) struct Window {
        mbps: f64,
        mes: Vec<MeObservation>,
        rx_fifo: QueueObservation,
    }

    impl Window {
        /// `mbps` of aggregate traffic over one ME per entry of `idle`,
        /// each idle that fraction of the window and reported at the top
        /// level of the XScale ladder, with an empty 1000-packet receive
        /// FIFO.
        pub(crate) fn new(mbps: f64, idle: &[f64]) -> Window {
            let mes = idle
                .iter()
                .map(|&idle_fraction| MeObservation {
                    idle_fraction,
                    level: 4,
                })
                .collect();
            let rx_fifo = QueueObservation {
                occupancy: 0,
                capacity: 1000,
                dropped: 0,
            };
            Window { mbps, mes, rx_fifo }
        }

        /// The same window with the MEs reported at `levels`.
        pub(crate) fn levels(mut self, levels: &[usize]) -> Window {
            for (me, &level) in self.mes.iter_mut().zip(levels) {
                me.level = level;
            }
            self
        }

        /// The same window with `occupancy` packets in the receive FIFO
        /// and `dropped` packets dropped there during the window.
        pub(crate) fn fifo(mut self, occupancy: usize, dropped: u64) -> Window {
            self.rx_fifo.occupancy = occupancy;
            self.rx_fifo.dropped = dropped;
            self
        }

        /// Hands the window to `policy` and returns its decisions.
        pub(crate) fn decide(&self, policy: &mut dyn DvsPolicy) -> Vec<ScalingDecision> {
            let obs = PolicyObservation {
                window: 0,
                window_us: 66.6,
                aggregate_mbps: self.mbps,
                mes: &self.mes,
                rx_fifo: self.rx_fifo,
                tx_queue: QueueObservation {
                    occupancy: 0,
                    capacity: 1000,
                    dropped: 0,
                },
            };
            policy.on_window(&obs).decisions
        }
    }
}
