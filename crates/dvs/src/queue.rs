//! Queue-aware DVS (QDVS) — the first policy written *directly against*
//! the [`DvsPolicy`] trait rather than ported from the paper.
//!
//! The paper's two policies infer pressure indirectly (traffic volume,
//! idle time). The receive FIFO measures it directly: a filling queue
//! means the chip is falling behind *right now*, an empty one means it is
//! over-provisioned. QDVS scales the whole chip on the FIFO's fill level:
//!
//! * any drop during the window, or occupancy above the high watermark →
//!   step **up**;
//! * occupancy below the low watermark → step **down**;
//! * otherwise hold.
//!
//! Reading one occupancy register per window costs less than the TDVS
//! per-packet adder, so [`DvsPolicy::monitors_traffic`] stays `false` and
//! no monitor energy is charged.

use serde::{Deserialize, Serialize};

use crate::{DvsPolicy, PolicyKind, PolicyObservation, PolicyResponse, ScalingDecision, VfLadder};

/// Tunable parameters of the queue-aware policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueueAwareConfig {
    /// Receive-FIFO fill fraction above which the chip steps up.
    pub high_occupancy: f64,
    /// Fill fraction below which the chip steps down.
    pub low_occupancy: f64,
    /// The monitor window, in cycles at the normal (top) frequency.
    pub window_cycles: u64,
}

impl Default for QueueAwareConfig {
    /// A wide dead band (20–75 %) over the paper's 40 k-cycle window.
    fn default() -> Self {
        QueueAwareConfig {
            high_occupancy: 0.75,
            low_occupancy: 0.20,
            window_cycles: 40_000,
        }
    }
}

/// The queue-aware policy state machine (global, like TDVS).
///
/// # Example
///
/// ```
/// use dvs::{
///     DvsPolicy, MeObservation, PolicyObservation, PolicyResponse, QueueAware,
///     QueueAwareConfig, QueueObservation, ScalingDecision, VfLadder,
/// };
///
/// let mut p = QueueAware::new(QueueAwareConfig::default(), VfLadder::xscale_npu());
/// let mes = [MeObservation { idle_fraction: 0.0, level: 4 }];
/// let obs = PolicyObservation {
///     window: 0,
///     window_us: 66.6,
///     aggregate_mbps: 900.0,
///     mes: &mes,
///     rx_fifo: QueueObservation { occupancy: 10, capacity: 2048, dropped: 0 },
///     tx_queue: QueueObservation { occupancy: 0, capacity: 2048, dropped: 0 },
/// };
/// // A near-empty FIFO scales the chip down regardless of traffic volume.
/// assert_eq!(p.on_window(&obs).decisions, vec![ScalingDecision::Down]);
/// ```
#[derive(Debug, Clone)]
pub struct QueueAware {
    config: QueueAwareConfig,
    ladder: VfLadder,
    level: usize,
}

impl QueueAware {
    /// Creates the policy at the top VF level.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= low < high <= 1` and the window is non-empty.
    #[must_use]
    pub fn new(config: QueueAwareConfig, ladder: VfLadder) -> Self {
        assert!(
            (0.0..=1.0).contains(&config.low_occupancy)
                && (0.0..=1.0).contains(&config.high_occupancy)
                && config.low_occupancy < config.high_occupancy,
            "watermarks must satisfy 0 <= low < high <= 1"
        );
        assert!(config.window_cycles > 0, "window must be non-empty");
        let level = ladder.top_index();
        QueueAware {
            config,
            ladder,
            level,
        }
    }
}

impl DvsPolicy for QueueAware {
    fn kind(&self) -> PolicyKind {
        PolicyKind::QueueAware
    }

    fn window_cycles(&self) -> Option<u64> {
        Some(self.config.window_cycles)
    }

    fn on_window(&mut self, obs: &PolicyObservation<'_>) -> PolicyResponse {
        let fill = obs.rx_fifo.fill_fraction();
        let pressured = obs.rx_fifo.dropped > 0 || fill > self.config.high_occupancy;
        let down = !pressured && fill < self.config.low_occupancy;
        let top = self.ladder.top_index();
        let decision = ScalingDecision::step(&mut self.level, top, down, pressured);
        PolicyResponse::uniform(decision, obs.mes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_window::Window;
    use ScalingDecision::{Down, Hold, Up};

    fn policy() -> QueueAware {
        QueueAware::new(QueueAwareConfig::default(), VfLadder::xscale_npu())
    }

    /// The decisions for one window over two MEs that ends with
    /// `occupancy` of 1000 packets in the receive FIFO after `dropped`
    /// drops.
    fn decide(p: &mut QueueAware, occupancy: usize, dropped: u64) -> Vec<ScalingDecision> {
        Window::new(900.0, &[0.0; 2])
            .fifo(occupancy, dropped)
            .decide(p)
    }

    #[test]
    fn empty_fifo_walks_down_and_clamps() {
        let mut p = policy();
        for _ in 0..4 {
            assert_eq!(decide(&mut p, 0, 0), [Down; 2]);
        }
        // Four steps from the top reach the bottom, which holds.
        assert_eq!(decide(&mut p, 0, 0), [Hold; 2]);
    }

    #[test]
    fn drops_force_scale_up() {
        let mut p = policy();
        assert_eq!(decide(&mut p, 0, 0), [Down; 2]);
        assert_eq!(decide(&mut p, 0, 0), [Down; 2]);
        // Even with a near-empty FIFO, a drop means the window lost data.
        assert_eq!(decide(&mut p, 10, 3), [Up; 2]);
    }

    #[test]
    fn dead_band_holds() {
        let mut p = policy();
        // 50% fill sits between the 20%/75% watermarks: the top level holds.
        assert_eq!(decide(&mut p, 500, 0), [Hold; 2]);
    }

    #[test]
    fn high_occupancy_scales_up_from_below() {
        let mut p = policy();
        assert_eq!(decide(&mut p, 0, 0), [Down; 2]);
        // Back at the top...
        assert_eq!(decide(&mut p, 800, 0), [Up; 2]);
        // ...pressure holds.
        assert_eq!(decide(&mut p, 900, 1), [Hold; 2]);
    }

    #[test]
    #[should_panic(expected = "low < high")]
    fn rejects_inverted_watermarks() {
        let _ = QueueAware::new(
            QueueAwareConfig {
                high_occupancy: 0.2,
                low_occupancy: 0.8,
                window_cycles: 40_000,
            },
            VfLadder::xscale_npu(),
        );
    }
}
