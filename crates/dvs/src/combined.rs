//! A combined traffic + execution policy (TEDVS) — the extension the
//! paper explicitly declines to build: "We do not combine the two
//! policies because monitoring both traffic load and processor idle time
//! on a chip is expensive in terms of area and power" (§4). We build it
//! anyway so the cost/benefit can be measured rather than assumed: the
//! platform charges *both* monitor overheads when this policy runs.
//!
//! Decision rule (per ME, conservative composition):
//!
//! * scale **down** only when both signals agree the ME is
//!   over-provisioned — traffic below the TDVS threshold *and* idle time
//!   above the EDVS threshold;
//! * scale **up** when either signal demands speed — traffic above the
//!   threshold *or* idle below the threshold;
//! * hold otherwise.

use serde::{Deserialize, Serialize};

use crate::edvs::checked_idle;
use crate::tdvs::scaled_threshold;
use crate::{
    DvsPolicy, EdvsConfig, PolicyKind, PolicyObservation, PolicyResponse, ScalingDecision,
    TdvsConfig, VfLadder,
};

/// Configuration of the combined policy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CombinedConfig {
    /// Traffic half of the rule (threshold scaling follows Fig. 5).
    pub tdvs: TdvsConfig,
    /// Idle half of the rule. Its `window_cycles` must equal the traffic
    /// window — the platform drives both from one monitor window.
    pub edvs: EdvsConfig,
}

/// The combined policy: every microengine keeps its own level, and its
/// traffic threshold scales with that level as TDVS's does (Fig. 5).
///
/// # Example
///
/// ```
/// use dvs::{Combined, CombinedConfig, DvsPolicy, MeObservation, PolicyObservation};
/// use dvs::{QueueObservation, ScalingDecision, VfLadder};
/// let mut p = Combined::new(CombinedConfig::default(), VfLadder::xscale_npu());
/// let fifo = QueueObservation { occupancy: 0, capacity: 2048, dropped: 0 };
/// let mut window = |aggregate_mbps, idle_fraction| {
///     let mes = [MeObservation { idle_fraction, level: 4 }];
///     let obs = PolicyObservation {
///         window: 0, window_us: 66.6, aggregate_mbps, mes: &mes, rx_fifo: fifo, tx_queue: fifo,
///     };
///     p.on_window(&obs).decisions
/// };
/// // Light traffic but a busy ME: signals disagree -> hold.
/// assert_eq!(window(400.0, 0.02), [ScalingDecision::Hold]);
/// // Light traffic and an idle ME: both agree -> scale down.
/// assert_eq!(window(400.0, 0.30), [ScalingDecision::Down]);
/// ```
#[derive(Debug, Clone)]
pub struct Combined {
    config: CombinedConfig,
    ladder: VfLadder,
    /// Each ME's level, sized from the first observation.
    levels: Vec<usize>,
}

impl Combined {
    /// Creates the policy with every ME at the top VF level.
    ///
    /// # Panics
    ///
    /// Panics on invalid sub-configurations or mismatched windows.
    #[must_use]
    pub fn new(config: CombinedConfig, ladder: VfLadder) -> Self {
        assert!(
            config.tdvs.top_threshold_mbps.is_finite() && config.tdvs.top_threshold_mbps > 0.0,
            "top threshold must be positive"
        );
        assert!(
            config.edvs.idle_threshold > 0.0 && config.edvs.idle_threshold < 1.0,
            "idle threshold must be a fraction in (0, 1)"
        );
        assert_eq!(
            config.tdvs.window_cycles, config.edvs.window_cycles,
            "combined policy drives both signals from one window"
        );
        Combined {
            config,
            ladder,
            levels: Vec::new(),
        }
    }
}

impl DvsPolicy for Combined {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Combined
    }

    fn window_cycles(&self) -> Option<u64> {
        Some(self.config.tdvs.window_cycles)
    }

    fn monitors_traffic(&self) -> bool {
        true
    }

    fn on_window(&mut self, obs: &PolicyObservation<'_>) -> PolicyResponse {
        let top_mbps = self.config.tdvs.top_threshold_mbps;
        let idle_threshold = self.config.edvs.idle_threshold;
        let top = self.ladder.top_index();
        self.levels.resize(obs.mes.len(), top);
        let decisions = self
            .levels
            .iter_mut()
            .zip(obs.mes)
            .map(|(level, me)| {
                let idle = checked_idle(me);
                let threshold = scaled_threshold(top_mbps, &self.ladder, *level);
                let down = obs.aggregate_mbps < threshold && idle > idle_threshold;
                let up = obs.aggregate_mbps > threshold || idle < idle_threshold;
                ScalingDecision::step(level, top, down, up)
            })
            .collect();
        PolicyResponse::per_me(decisions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_window::Window;
    use ScalingDecision::{Down, Hold, Up};

    fn policy() -> Combined {
        Combined::new(CombinedConfig::default(), VfLadder::xscale_npu())
    }

    /// The decision for one window of `mbps` traffic in which the one ME
    /// is idle `idle`.
    fn decide(p: &mut Combined, mbps: f64, idle: f64) -> ScalingDecision {
        Window::new(mbps, &[idle]).decide(p)[0]
    }

    #[test]
    fn down_requires_both_signals() {
        let mut p = policy();
        assert_eq!(decide(&mut p, 400.0, 0.02), Hold, "idle low");
        // At the top, an up-demand holds (already at max).
        assert_eq!(decide(&mut p, 1400.0, 0.30), Hold, "traffic high");
        // Both agree: down to 550 MHz.
        assert_eq!(decide(&mut p, 400.0, 0.30), Down, "both agree");
        assert!(p.monitors_traffic());
    }

    #[test]
    fn mes_scale_independently() {
        let mut p = policy();
        // Light traffic: the idle ME steps down, the busy one holds.
        let window = Window::new(100.0, &[0.5, 0.02]);
        assert_eq!(window.decide(&mut p), [Down, Hold]);
        // Heavy traffic: only the ME below the top can step up.
        let window = Window::new(2000.0, &[0.5, 0.5]);
        assert_eq!(window.decide(&mut p), [Up, Hold]);
    }

    #[test]
    fn up_on_either_signal() {
        let mut p = policy();
        // Walk down twice, to 500 MHz.
        assert_eq!(decide(&mut p, 100.0, 0.5), Down);
        assert_eq!(decide(&mut p, 100.0, 0.5), Down);
        // Busy ME alone forces up even with light traffic.
        assert_eq!(decide(&mut p, 100.0, 0.01), Up);
        // Heavy traffic alone forces up even with idle ME: back at 600 MHz.
        assert_eq!(decide(&mut p, 2000.0, 0.5), Up);
        assert_eq!(decide(&mut p, 2000.0, 0.5), Hold);
    }

    #[test]
    fn clamps_at_ladder_bounds() {
        let mut p = policy();
        let down: Vec<_> = (0..10).map(|_| decide(&mut p, 0.0, 1.0)).collect();
        let up: Vec<_> = (0..10).map(|_| decide(&mut p, 5000.0, 0.0)).collect();
        // Four steps reach the 400 MHz bottom, four more the 600 MHz top.
        assert_eq!(down[..5], [Down, Down, Down, Down, Hold]);
        assert_eq!(up[..5], [Up, Up, Up, Up, Hold]);
        let switches = down.iter().chain(&up).filter(|&&d| d != Hold).count();
        assert_eq!(switches, 8);
    }

    #[test]
    fn threshold_scales_with_level() {
        // 950 Mbps is below the 1000 Mbps threshold at 600 MHz but above
        // the 917 Mbps one at 550 MHz, so the same window first steps the
        // idle ME down and then back up.
        let mut p = policy();
        assert_eq!(decide(&mut p, 950.0, 0.5), Down);
        assert_eq!(decide(&mut p, 950.0, 0.5), Up);
    }

    #[test]
    #[should_panic(expected = "one window")]
    fn rejects_mismatched_windows() {
        let cfg = CombinedConfig {
            tdvs: TdvsConfig {
                top_threshold_mbps: 1000.0,
                window_cycles: 20_000,
            },
            edvs: EdvsConfig {
                idle_threshold: 0.1,
                window_cycles: 40_000,
            },
        };
        let _ = Combined::new(cfg, VfLadder::xscale_npu());
    }

    #[test]
    #[should_panic(expected = "idle fraction")]
    fn rejects_bad_idle_input() {
        let mut p = policy();
        let _ = decide(&mut p, 500.0, 2.0);
    }
}
