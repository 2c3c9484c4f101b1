//! Proportional–integral DVS (PDVS) — a per-engine controller written
//! directly against the [`DvsPolicy`] trait.
//!
//! The paper's EDVS compares idle time with a fixed threshold and always
//! steps one level; that bang-bang rule oscillates around the threshold.
//! PDVS instead treats the idle fraction as a process variable and runs a
//! classic PI loop per microengine:
//!
//! ```text
//! error_k   = idle_k - target_idle
//! integral += error_k   unless the command is saturated (anti-windup)
//! control   = kp * error_k + ki * integral        (levels below top)
//! desired   = top - round(control), clamped to the ladder
//! ```
//!
//! The response still steps at most one level per window (the hardware
//! constraint), but the *setpoint* it chases is continuous, so sustained
//! small errors integrate into a move while transient spikes do not.

use serde::{Deserialize, Serialize};

use crate::{DvsPolicy, PolicyKind, PolicyObservation, PolicyResponse, ScalingDecision, VfLadder};

/// Tunable parameters of the proportional (PI) policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProportionalConfig {
    /// The idle fraction the controller drives each ME toward (the
    /// paper's EDVS threshold doubles as a natural setpoint).
    pub target_idle: f64,
    /// Proportional gain, in ladder levels per unit idle error.
    pub kp: f64,
    /// Integral gain, in ladder levels per unit accumulated error.
    pub ki: f64,
    /// The monitor window, in cycles at the normal (top) frequency.
    pub window_cycles: u64,
}

impl Default for ProportionalConfig {
    /// 10 % idle setpoint, gains tuned for the 5-step XScale ladder.
    fn default() -> Self {
        ProportionalConfig {
            target_idle: 0.10,
            kp: 4.0,
            ki: 0.5,
            window_cycles: 40_000,
        }
    }
}

/// Per-microengine PI state.
#[derive(Debug, Clone, Copy, Default)]
struct MeState {
    integral: f64,
}

/// The proportional (PI) policy state machine.
///
/// # Example
///
/// ```
/// use dvs::{
///     DvsPolicy, MeObservation, PolicyObservation, Proportional, ProportionalConfig,
///     QueueObservation, ScalingDecision, VfLadder,
/// };
///
/// let mut p = Proportional::new(ProportionalConfig::default(), VfLadder::xscale_npu());
/// let mes = [MeObservation { idle_fraction: 0.6, level: 4 }];
/// let obs = PolicyObservation {
///     window: 0,
///     window_us: 66.6,
///     aggregate_mbps: 500.0,
///     mes: &mes,
///     rx_fifo: QueueObservation { occupancy: 0, capacity: 2048, dropped: 0 },
///     tx_queue: QueueObservation { occupancy: 0, capacity: 2048, dropped: 0 },
/// };
/// // 60% idle against a 10% setpoint: a large error, scale down.
/// assert_eq!(p.on_window(&obs).decisions, vec![ScalingDecision::Down]);
/// ```
#[derive(Debug, Clone)]
pub struct Proportional {
    config: ProportionalConfig,
    ladder: VfLadder,
    per_me: Vec<MeState>,
}

impl Proportional {
    /// Creates the controller with all integrators at zero.
    ///
    /// # Panics
    ///
    /// Panics unless `target_idle` is in `(0, 1)`, both gains are
    /// non-negative and finite with `kp + ki > 0`, and the window is
    /// non-empty.
    #[must_use]
    pub fn new(config: ProportionalConfig, ladder: VfLadder) -> Self {
        assert!(
            config.target_idle > 0.0 && config.target_idle < 1.0,
            "target idle must be a fraction in (0, 1)"
        );
        assert!(
            config.kp >= 0.0 && config.kp.is_finite(),
            "kp must be non-negative"
        );
        assert!(
            config.ki >= 0.0 && config.ki.is_finite(),
            "ki must be non-negative"
        );
        assert!(config.kp + config.ki > 0.0, "at least one gain must act");
        assert!(config.window_cycles > 0, "window must be non-empty");
        Proportional {
            config,
            ladder,
            per_me: Vec::new(),
        }
    }

    /// The level this controller wants ME `state` at, given one idle
    /// observation. Steps the integrator.
    fn desired_level(&self, state: &mut MeState, idle: f64) -> usize {
        let top = self.ladder.top_index() as f64;
        let error = idle - self.config.target_idle;
        if self.config.ki > 0.0 {
            let proposed = state.integral + error;
            let control = self.config.kp * error + self.config.ki * proposed;
            // Conditional anti-windup: stop integrating once the command
            // saturates the ladder in the direction the error pushes.
            let winding_past_bottom = control > top && error > 0.0;
            let winding_past_top = control < 0.0 && error < 0.0;
            if !winding_past_bottom && !winding_past_top {
                state.integral = proposed;
            }
        }
        let control = self.config.kp * error + self.config.ki * state.integral;
        let below_top = control.round().clamp(0.0, top);
        // `below_top <= top` by the clamp, so the cast is lossless.
        self.ladder.top_index() - below_top as usize
    }
}

impl DvsPolicy for Proportional {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Proportional
    }

    fn window_cycles(&self) -> Option<u64> {
        Some(self.config.window_cycles)
    }

    fn on_window(&mut self, obs: &PolicyObservation<'_>) -> PolicyResponse {
        self.per_me.resize_with(obs.mes.len(), MeState::default);
        let mut states = std::mem::take(&mut self.per_me);
        let decisions = states
            .iter_mut()
            .zip(obs.mes)
            .map(|(state, me)| {
                let desired = self.desired_level(state, me.idle_fraction.clamp(0.0, 1.0));
                match desired.cmp(&me.level) {
                    std::cmp::Ordering::Greater => ScalingDecision::Up,
                    std::cmp::Ordering::Less => ScalingDecision::Down,
                    std::cmp::Ordering::Equal => ScalingDecision::Hold,
                }
            })
            .collect();
        self.per_me = states;
        PolicyResponse::per_me(decisions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_window::Window;

    fn policy() -> Proportional {
        Proportional::new(ProportionalConfig::default(), VfLadder::xscale_npu())
    }

    /// The decision for one window in which the one ME, at `level`, is
    /// idle `idle`.
    fn decide(p: &mut Proportional, idle: f64, level: usize) -> ScalingDecision {
        Window::new(500.0, &[idle]).levels(&[level]).decide(p)[0]
    }

    #[test]
    fn sustained_idle_walks_down_transients_do_not() {
        let mut p = policy();
        // A single moderately idle window: proportional term alone
        // (4 * 0.08 = 0.32) rounds to no move.
        assert_eq!(decide(&mut p, 0.18, 4), ScalingDecision::Hold);
        // ...but the error integrates: a few more such windows move it.
        let mut level = 4;
        for _ in 0..12 {
            if decide(&mut p, 0.18, level) == ScalingDecision::Down {
                level -= 1;
            }
        }
        assert!(level < 4, "integral term never acted");
    }

    #[test]
    fn large_error_moves_immediately() {
        let mut p = policy();
        assert_eq!(decide(&mut p, 0.60, 4), ScalingDecision::Down);
    }

    #[test]
    fn busy_me_recovers_to_top() {
        let mut p = policy();
        // Drive one ME down...
        let mut level: usize = 4;
        for _ in 0..20 {
            if decide(&mut p, 0.8, level) == ScalingDecision::Down {
                level = level.saturating_sub(1);
            }
        }
        assert_eq!(level, 0);
        // ...then saturate it: the controller must unwind back to top.
        for _ in 0..40 {
            if decide(&mut p, 0.0, level) == ScalingDecision::Up {
                level += 1;
            }
        }
        assert_eq!(level, 4, "controller failed to recover");
    }

    #[test]
    fn mes_are_controlled_independently() {
        let mut p = policy();
        let decisions = Window::new(500.0, &[0.9, 0.0]).decide(&mut p);
        assert_eq!(decisions[0], ScalingDecision::Down);
        assert_eq!(decisions[1], ScalingDecision::Hold);
    }

    #[test]
    fn pure_proportional_controller_works() {
        let cfg = ProportionalConfig {
            ki: 0.0,
            ..ProportionalConfig::default()
        };
        let mut p = Proportional::new(cfg, VfLadder::xscale_npu());
        assert_eq!(decide(&mut p, 0.6, 4), ScalingDecision::Down);
    }

    #[test]
    #[should_panic(expected = "at least one gain")]
    fn rejects_all_zero_gains() {
        let cfg = ProportionalConfig {
            kp: 0.0,
            ki: 0.0,
            ..ProportionalConfig::default()
        };
        let _ = Proportional::new(cfg, VfLadder::xscale_npu());
    }

    #[test]
    #[should_panic(expected = "target idle")]
    fn rejects_bad_setpoint() {
        let cfg = ProportionalConfig {
            target_idle: 1.0,
            ..ProportionalConfig::default()
        };
        let _ = Proportional::new(cfg, VfLadder::xscale_npu());
    }
}
