//! Traffic-based dynamic voltage scaling (paper §4.1).

use serde::{Deserialize, Serialize};

use crate::{DvsPolicy, PolicyKind, PolicyObservation, PolicyResponse, ScalingDecision, VfLadder};

/// Tunable parameters of a TDVS policy: the two axes explored in the
/// paper's Figures 6–9.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TdvsConfig {
    /// The traffic threshold (Mbps) that applies at the *top* VF level.
    /// Thresholds at lower levels are scaled with frequency (Fig. 5):
    /// `threshold(level) = top_threshold * f(level) / f(top)`.
    pub top_threshold_mbps: f64,
    /// The monitor window, in cycles at the normal (top) frequency.
    pub window_cycles: u64,
}

impl TdvsConfig {
    /// Attaches a hysteresis band (see [`Tdvs::with_hysteresis`]) — an
    /// ablation of the paper's plain-threshold rule, which §4.1 observes
    /// oscillates and burns switch penalties at small window sizes.
    #[must_use]
    pub fn with_hysteresis(self, hysteresis: f64) -> HysteresisTdvsConfig {
        HysteresisTdvsConfig {
            base: self,
            hysteresis,
        }
    }
}

impl Default for TdvsConfig {
    /// The paper's reference configuration for `ipfwdr`: 1000 Mbps top
    /// threshold, 40 k-cycle window.
    fn default() -> Self {
        TdvsConfig {
            top_threshold_mbps: 1000.0,
            window_cycles: 40_000,
        }
    }
}

/// A [`TdvsConfig`] plus a hysteresis band.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HysteresisTdvsConfig {
    /// The underlying threshold/window configuration.
    pub base: TdvsConfig,
    /// Relative dead band: scale down only below `threshold * (1 - h)`,
    /// up only above `threshold * (1 + h)`.
    pub hysteresis: f64,
}

/// The TDVS policy state machine.
///
/// At every monitor-window boundary the platform reports the average
/// traffic volume observed during the window; the policy compares it with
/// the threshold for the *current* level and steps the processor-wide VF
/// down (traffic below threshold) or up (traffic above threshold) by one
/// step, clamped at the ladder bounds (paper §4.1).
///
/// # Example
///
/// ```
/// use dvs::{DvsPolicy, MeObservation, PolicyObservation, QueueObservation};
/// use dvs::{ScalingDecision, Tdvs, TdvsConfig, VfLadder};
/// let mut p = Tdvs::new(TdvsConfig::default(), VfLadder::xscale_npu());
/// let fifo = QueueObservation { occupancy: 0, capacity: 2048, dropped: 0 };
/// let mes = [MeObservation { idle_fraction: 0.0, level: 4 }; 2];
/// let mut window = |aggregate_mbps| {
///     let obs = PolicyObservation {
///         window: 0, window_us: 66.6, aggregate_mbps, mes: &mes, rx_fifo: fifo, tx_queue: fifo,
///     };
///     p.on_window(&obs).decisions
/// };
/// // Heavy traffic at the top level: nothing above 600MHz to scale to.
/// assert_eq!(window(1400.0), vec![ScalingDecision::Hold; 2]);
/// // Light traffic scales the whole chip down step by step.
/// assert_eq!(window(100.0), vec![ScalingDecision::Down; 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Tdvs {
    config: TdvsConfig,
    ladder: VfLadder,
    level: usize,
    hysteresis: f64,
}

impl Tdvs {
    /// Creates the policy at the top VF level.
    ///
    /// # Panics
    ///
    /// Panics if the threshold is not positive/finite or the window is zero.
    #[must_use]
    pub fn new(config: TdvsConfig, ladder: VfLadder) -> Self {
        assert!(
            config.top_threshold_mbps.is_finite() && config.top_threshold_mbps > 0.0,
            "top threshold must be positive"
        );
        assert!(config.window_cycles > 0, "window must be non-empty");
        let level = ladder.top_index();
        Tdvs {
            config,
            ladder,
            level,
            hysteresis: 0.0,
        }
    }

    /// Creates the policy with a hysteresis dead band around each
    /// threshold: scale down only below `threshold * (1 - h)`, up only
    /// above `threshold * (1 + h)`.
    ///
    /// The paper's rule is the `h = 0` case; §4.1 observes that it
    /// oscillates and burns 6000-cycle penalties at small window sizes.
    /// This variant is the natural fix and is exercised by the ablation
    /// benches.
    ///
    /// # Panics
    ///
    /// Panics on an invalid base configuration or `h` outside `[0, 1)`.
    #[must_use]
    pub fn with_hysteresis(config: HysteresisTdvsConfig, ladder: VfLadder) -> Self {
        assert!(
            (0.0..1.0).contains(&config.hysteresis),
            "hysteresis must be in [0, 1)"
        );
        let mut policy = Tdvs::new(config.base, ladder);
        policy.hysteresis = config.hysteresis;
        policy
    }

    /// The traffic threshold (Mbps) that applies while operating at ladder
    /// `index` — the scaled values of paper Fig. 5.
    #[must_use]
    pub fn threshold_at(&self, index: usize) -> f64 {
        scaled_threshold(self.config.top_threshold_mbps, &self.ladder, index)
    }
}

/// The traffic threshold at ladder `index` for a top-level threshold of
/// `top_mbps`: `top_mbps * f(index) / f(top)` (paper Fig. 5).
pub(crate) fn scaled_threshold(top_mbps: f64, ladder: &VfLadder, index: usize) -> f64 {
    let f = f64::from(ladder.point(index).freq_mhz);
    let f_top = f64::from(ladder.top().freq_mhz);
    top_mbps * f / f_top
}

impl DvsPolicy for Tdvs {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Tdvs
    }

    fn window_cycles(&self) -> Option<u64> {
        Some(self.config.window_cycles)
    }

    fn monitors_traffic(&self) -> bool {
        true
    }

    fn on_window(&mut self, obs: &PolicyObservation<'_>) -> PolicyResponse {
        let threshold = self.threshold_at(self.level);
        let down = obs.aggregate_mbps < threshold * (1.0 - self.hysteresis);
        let up = obs.aggregate_mbps > threshold * (1.0 + self.hysteresis);
        let top = self.ladder.top_index();
        let decision = ScalingDecision::step(&mut self.level, top, down, up);
        PolicyResponse::uniform(decision, obs.mes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_window::Window;
    use ScalingDecision::{Down, Hold, Up};

    fn policy(top: f64) -> Tdvs {
        Tdvs::new(
            TdvsConfig {
                top_threshold_mbps: top,
                window_cycles: 20_000,
            },
            VfLadder::xscale_npu(),
        )
    }

    /// The decision for one window of `mbps` traffic over one ME.
    fn decide(p: &mut Tdvs, mbps: f64) -> ScalingDecision {
        Window::new(mbps, &[0.0]).decide(p)[0]
    }

    #[test]
    fn thresholds_match_fig5() {
        // Fig. 5: 600->1000, 550->916, 500->833, 450->750, 400->666 Mbps.
        let p = policy(1000.0);
        let expected = [666.0, 750.0, 833.0, 916.0, 1000.0];
        for (idx, want) in expected.iter().enumerate() {
            let got = p.threshold_at(idx);
            assert!(
                (got - want).abs() < 1.0,
                "level {idx}: got {got}, fig5 says {want}"
            );
        }
    }

    #[test]
    fn decides_for_the_whole_chip() {
        let mut p = Tdvs::new(TdvsConfig::default(), VfLadder::xscale_npu());
        assert_eq!(Window::new(100.0, &[0.0; 3]).decide(&mut p), [Down; 3]);
        assert!(p.monitors_traffic());
        assert_eq!(p.window_cycles(), Some(40_000));
    }

    #[test]
    fn scales_down_to_bottom_and_clamps() {
        let mut p = policy(1000.0);
        let decisions: Vec<_> = (0..5).map(|_| decide(&mut p, 100.0)).collect();
        // Four steps take 600 MHz to the 400 MHz bottom, which holds.
        assert_eq!(decisions, [Down, Down, Down, Down, Hold]);
        assert_eq!(decisions.iter().filter(|&&d| d != Hold).count(), 4);
    }

    #[test]
    fn scales_back_up_under_load() {
        let mut p = policy(1000.0);
        for _ in 0..4 {
            assert_eq!(decide(&mut p, 0.0), Down);
        }
        // At 400MHz, 700 Mbps exceeds the 666 Mbps threshold: scale up.
        assert_eq!(decide(&mut p, 700.0), Up);
        // ...but 700 < 750 at 450MHz: scale back down (the oscillation the
        // paper attributes small-window throughput loss to).
        assert_eq!(decide(&mut p, 700.0), Down);
    }

    #[test]
    fn at_top_high_traffic_holds() {
        let mut p = policy(800.0);
        assert_eq!(decide(&mut p, 1200.0), Hold);
    }

    #[test]
    fn exact_threshold_holds() {
        let mut p = policy(1000.0);
        assert_eq!(decide(&mut p, 1000.0), Hold);
    }

    #[test]
    fn equilibrium_tracks_offered_load() {
        // Offered load 700 Mbps with top threshold 1000: levels with
        // threshold <= 700 are 400MHz (666); the policy should oscillate
        // between 400 and 450 MHz once settled.
        let mut p = policy(1000.0);
        let ladder = VfLadder::xscale_npu();
        let mut level = ladder.top_index();
        for _ in 0..10 {
            match decide(&mut p, 700.0) {
                Up => level += 1,
                Down => level -= 1,
                Hold => {}
            }
        }
        let settled = ladder.point(level);
        assert!(settled.freq_mhz <= 450, "settled at {settled}");
    }

    #[test]
    fn hysteresis_suppresses_oscillation() {
        // Offered load exactly between two per-level thresholds (916 at
        // 550MHz and 1000 at 600MHz): the plain rule flip-flops...
        let mut plain = policy(1000.0);
        let flips = (0..20)
            .filter(|_| decide(&mut plain, 950.0) != Hold)
            .count();
        assert!(flips >= 19, "plain rule should oscillate, saw {flips}");

        // ...while a 10% dead band settles after the first step.
        let cfg = TdvsConfig {
            top_threshold_mbps: 1000.0,
            window_cycles: 20_000,
        }
        .with_hysteresis(0.10);
        let mut damped = Tdvs::with_hysteresis(cfg, VfLadder::xscale_npu());
        let switches = (0..20)
            .filter(|_| decide(&mut damped, 950.0) != Hold)
            .count();
        assert!(switches <= 2, "hysteresis policy switched {switches} times");
    }

    #[test]
    fn zero_hysteresis_matches_plain_policy() {
        let cfg = TdvsConfig::default().with_hysteresis(0.0);
        let mut a = Tdvs::with_hysteresis(cfg, VfLadder::xscale_npu());
        // The window size plays no role in the decision rule.
        let mut b = policy(1000.0);
        // Both start at the top, so equal decisions keep equal levels.
        for obs in [500.0, 1200.0, 700.0, 900.0, 1100.0, 300.0] {
            assert_eq!(decide(&mut a, obs), decide(&mut b, obs));
        }
    }

    #[test]
    #[should_panic(expected = "hysteresis must be in [0, 1)")]
    fn rejects_bad_hysteresis() {
        let cfg = TdvsConfig::default().with_hysteresis(1.0);
        let _ = Tdvs::with_hysteresis(cfg, VfLadder::xscale_npu());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_non_positive_threshold() {
        let _ = policy(0.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_zero_window() {
        let _ = Tdvs::new(
            TdvsConfig {
                top_threshold_mbps: 1000.0,
                window_cycles: 0,
            },
            VfLadder::xscale_npu(),
        );
    }
}
