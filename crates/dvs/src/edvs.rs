//! Execution-based dynamic voltage scaling (paper §4.2).

use serde::{Deserialize, Serialize};

use crate::{
    DvsPolicy, MeObservation, PolicyKind, PolicyObservation, PolicyResponse, ScalingDecision,
    VfLadder,
};

/// Tunable parameters of an EDVS policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdvsConfig {
    /// Idle-time threshold as a fraction of the observed window. The paper
    /// picks 10 % after observing the bimodal idle distribution of the
    /// receiving microengines.
    pub idle_threshold: f64,
    /// The monitor window, in cycles at the normal (top) frequency.
    pub window_cycles: u64,
}

impl Default for EdvsConfig {
    /// The paper's configuration: 10 % idle threshold, 40 k-cycle window.
    fn default() -> Self {
        EdvsConfig {
            idle_threshold: 0.10,
            window_cycles: 40_000,
        }
    }
}

/// The EDVS policy: every microengine scales on its own idle time.
///
/// Each ME keeps its own level (paper: "in EDVS, each ME changes its VF
/// independently"). At every window boundary the platform reports the
/// fraction of the window each ME spent idle (all threads blocked on
/// memory); idle time above the threshold scales that ME down, idle time
/// below scales it up.
///
/// # Example
///
/// ```
/// use dvs::{DvsPolicy, Edvs, EdvsConfig, MeObservation, PolicyObservation};
/// use dvs::{QueueObservation, ScalingDecision, VfLadder};
/// let mut p = Edvs::new(EdvsConfig::default(), VfLadder::xscale_npu());
/// let fifo = QueueObservation { occupancy: 0, capacity: 2048, dropped: 0 };
/// let mut window = |idle: [f64; 2]| {
///     let mes = idle.map(|idle_fraction| MeObservation { idle_fraction, level: 4 });
///     let obs = PolicyObservation {
///         window: 0, window_us: 66.6, aggregate_mbps: 900.0, mes: &mes, rx_fifo: fifo, tx_queue: fifo,
///     };
///     p.on_window(&obs).decisions
/// };
/// // A memory-bound window (35% idle) scales ME 0 down; busy ME 1 holds...
/// assert_eq!(window([0.35, 0.01]), [ScalingDecision::Down, ScalingDecision::Hold]);
/// // ...and a busy window scales ME 0 back up.
/// assert_eq!(window([0.01, 0.01]), [ScalingDecision::Up, ScalingDecision::Hold]);
/// ```
#[derive(Debug, Clone)]
pub struct Edvs {
    config: EdvsConfig,
    top: usize,
    /// Each ME's level, sized from the first observation.
    levels: Vec<usize>,
}

impl Edvs {
    /// Creates the policy with every ME at the top VF level.
    ///
    /// # Panics
    ///
    /// Panics if `idle_threshold` is outside `(0, 1)` or the window is zero.
    #[must_use]
    pub fn new(config: EdvsConfig, ladder: VfLadder) -> Self {
        assert!(
            config.idle_threshold > 0.0 && config.idle_threshold < 1.0,
            "idle threshold must be a fraction in (0, 1)"
        );
        assert!(config.window_cycles > 0, "window must be non-empty");
        Edvs {
            config,
            top: ladder.top_index(),
            levels: Vec::new(),
        }
    }
}

/// An ME's idle fraction, checked to lie within `[0, 1]`.
///
/// # Panics
///
/// Panics if it does not.
pub(crate) fn checked_idle(me: &MeObservation) -> f64 {
    let idle = me.idle_fraction;
    assert!(
        (0.0..=1.0).contains(&idle),
        "idle fraction must be in [0, 1], got {idle}"
    );
    idle
}

impl DvsPolicy for Edvs {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Edvs
    }

    fn window_cycles(&self) -> Option<u64> {
        Some(self.config.window_cycles)
    }

    fn on_window(&mut self, obs: &PolicyObservation<'_>) -> PolicyResponse {
        let (top, threshold) = (self.top, self.config.idle_threshold);
        self.levels.resize(obs.mes.len(), top);
        let decisions = self
            .levels
            .iter_mut()
            .zip(obs.mes)
            .map(|(level, me)| {
                let idle = checked_idle(me);
                ScalingDecision::step(level, top, idle > threshold, idle < threshold)
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

    fn policy() -> Edvs {
        Edvs::new(EdvsConfig::default(), VfLadder::xscale_npu())
    }

    /// The decision for one window in which the one ME is idle `idle`.
    fn decide(p: &mut Edvs, idle: f64) -> ScalingDecision {
        Window::new(900.0, &[idle]).decide(p)[0]
    }

    #[test]
    fn busy_me_never_scales_down() {
        // The paper's transmitting MEs: idle almost always under 5%.
        let mut p = policy();
        let decisions: Vec<_> = (0..100).map(|_| decide(&mut p, 0.03)).collect();
        assert!(decisions.iter().all(|&d| matches!(d, Hold | Up)));
        // Starting at the top, it never leaves 600 MHz.
        assert_eq!(decisions.iter().filter(|&&d| d != Hold).count(), 0);
    }

    #[test]
    fn memory_bound_me_walks_to_bottom() {
        // The paper's receiving MEs in the 30-40% idle mode.
        let mut p = policy();
        for _ in 0..4 {
            assert_eq!(decide(&mut p, 0.35), Down);
        }
        // Four steps from 600 MHz: the 400 MHz bottom holds.
        assert_eq!(decide(&mut p, 0.35), Hold);
    }

    #[test]
    fn recovery_when_load_returns() {
        let mut p = policy();
        let idle = [0.5; 4].into_iter().chain([0.0; 5]);
        let decisions: Vec<_> = idle.map(|idle| decide(&mut p, idle)).collect();
        // Down to 400 MHz, back up to 600 MHz, where it holds.
        assert_eq!(decisions, [Down, Down, Down, Down, Up, Up, Up, Up, Hold]);
        assert_eq!(decisions.iter().filter(|&&d| d != Hold).count(), 8);
    }

    #[test]
    fn mes_scale_independently() {
        let mut p = policy();
        let window = Window::new(0.0, &[0.5, 0.0]);
        assert_eq!(window.decide(&mut p), [Down, Hold]);
        // The idle ME keeps walking down while the busy one holds at top.
        assert_eq!(window.decide(&mut p), [Down, Hold]);
        assert!(!p.monitors_traffic());
    }

    #[test]
    fn exact_threshold_holds() {
        let mut p = policy();
        assert_eq!(decide(&mut p, 0.10), Hold);
    }

    #[test]
    #[should_panic(expected = "idle fraction must be in [0, 1]")]
    fn rejects_out_of_range_idle() {
        let mut p = policy();
        let _ = decide(&mut p, 1.5);
    }

    #[test]
    #[should_panic(expected = "fraction in (0, 1)")]
    fn rejects_bad_threshold() {
        let _ = Edvs::new(
            EdvsConfig {
                idle_threshold: 1.0,
                window_cycles: 1,
            },
            VfLadder::xscale_npu(),
        );
    }
}
