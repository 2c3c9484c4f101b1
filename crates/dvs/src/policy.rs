//! The pluggable policy interface: [`DvsPolicy`], its per-window input
//! ([`PolicyObservation`]) and output ([`PolicyResponse`]).
//!
//! The platform (the `nepsim` simulator) knows nothing about concrete
//! policies. At every monitor-window boundary it assembles a
//! [`PolicyObservation`] — aggregate traffic, per-microengine idle
//! fractions and VF levels, FIFO occupancies and drop counts — hands it
//! to the configured `Box<dyn DvsPolicy>`, and applies the returned
//! per-ME [`ScalingDecision`]s (clamped at the ladder bounds, each level
//! change charging the [`crate::SWITCH_PENALTY`]).
//!
//! Global policies (TDVS), per-engine policies (EDVS) and hybrids all
//! share this one interface; a policy that only needs one signal simply
//! ignores the rest of the observation.

use crate::{PolicyKind, ScalingDecision};

/// What one microengine looked like over the last monitor window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeObservation {
    /// Fraction of the window the ME spent with all threads blocked on
    /// memory — the §4.2 idle signal, already clamped to `[0, 1]`.
    pub idle_fraction: f64,
    /// The ME's current VF level (index into the ladder, 0 = lowest
    /// frequency).
    pub level: usize,
}

/// State of a bounded packet queue at a window boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueObservation {
    /// Packets currently queued.
    pub occupancy: usize,
    /// Queue capacity in packets.
    pub capacity: usize,
    /// Packets dropped at this queue *during the last window*.
    pub dropped: u64,
}

impl QueueObservation {
    /// Occupancy as a fraction of capacity (0 for a zero-capacity queue).
    #[must_use]
    pub fn fill_fraction(&self) -> f64 {
        if self.capacity == 0 {
            0.0
        } else {
            self.occupancy as f64 / self.capacity as f64
        }
    }
}

/// Everything a policy may observe at a monitor-window boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyObservation<'a> {
    /// Window ordinal (0-based).
    pub window: u64,
    /// Window duration in microseconds.
    pub window_us: f64,
    /// Aggregate traffic volume that arrived at the device ports during
    /// the window, in Mbps — the TDVS monitor signal.
    pub aggregate_mbps: f64,
    /// Per-microengine observations, indexed like the platform's MEs.
    pub mes: &'a [MeObservation],
    /// The receive FIFO (arrivals wait here for a processing ME).
    pub rx_fifo: QueueObservation,
    /// The processed-packet queue (awaiting a transmit ME).
    pub tx_queue: QueueObservation,
}

/// A policy's answer: one [`ScalingDecision`] per microengine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyResponse {
    /// Decision for each ME, indexed like [`PolicyObservation::mes`].
    pub decisions: Vec<ScalingDecision>,
}

impl PolicyResponse {
    /// Every ME holds its level.
    #[must_use]
    pub fn hold(mes: usize) -> Self {
        PolicyResponse::uniform(ScalingDecision::Hold, mes)
    }

    /// Every ME receives the same decision (global policies).
    #[must_use]
    pub fn uniform(decision: ScalingDecision, mes: usize) -> Self {
        PolicyResponse {
            decisions: vec![decision; mes],
        }
    }

    /// Per-ME decisions (the vector must be one entry per ME).
    #[must_use]
    pub fn per_me(decisions: Vec<ScalingDecision>) -> Self {
        PolicyResponse { decisions }
    }
}

/// A dynamic voltage/frequency scaling policy.
///
/// Implementations are pure state machines: they receive one
/// [`PolicyObservation`] per monitor window and answer with per-ME
/// [`ScalingDecision`]s. The platform owns the actual VF levels, clamps
/// steps at the ladder bounds and charges switch penalties; the
/// observation's [`MeObservation::level`] always reflects the applied
/// state, so a policy need not track levels itself. The built-in
/// threshold policies keep their own all the same: a fleet power cap
/// can hold the applied level below the one they stepped to, and their
/// state must advance as it would uncapped.
///
/// # Writing your own policy
///
/// ```
/// use dvs::{
///     DvsPolicy, PolicyKind, PolicyObservation, PolicyResponse, ScalingDecision,
/// };
///
/// /// Scale everything down at night (windows are our clock here).
/// #[derive(Debug)]
/// struct NightShift {
///     windows_per_day: u64,
/// }
///
/// impl DvsPolicy for NightShift {
///     fn kind(&self) -> PolicyKind {
///         PolicyKind::Custom
///     }
///     fn window_cycles(&self) -> Option<u64> {
///         Some(40_000)
///     }
///     fn on_window(&mut self, obs: &PolicyObservation<'_>) -> PolicyResponse {
///         let night = (obs.window % self.windows_per_day) * 3 > self.windows_per_day;
///         let step = if night { ScalingDecision::Down } else { ScalingDecision::Up };
///         PolicyResponse::uniform(step, obs.mes.len())
///     }
/// }
/// ```
pub trait DvsPolicy: std::fmt::Debug {
    /// The policy family, used for report labels and comparison tables.
    fn kind(&self) -> PolicyKind;

    /// The monitor window in base-frequency cycles, or `None` when the
    /// policy never scales (the platform then falls back to its
    /// statistics window).
    fn window_cycles(&self) -> Option<u64>;

    /// `true` when the policy needs the per-packet traffic monitor; the
    /// platform then charges [`crate::MONITOR_ADDER_ENERGY_UJ`] per
    /// arriving packet (paper §4.1).
    fn monitors_traffic(&self) -> bool {
        false
    }

    /// Observes one monitor window and decides the next VF step for every
    /// microengine.
    fn on_window(&mut self, obs: &PolicyObservation<'_>) -> PolicyResponse;
}

/// The baseline: never scales, every ME pinned at the top VF level.
#[derive(Debug, Clone, Default)]
pub struct NoDvsPolicy;

impl DvsPolicy for NoDvsPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::NoDvs
    }

    fn window_cycles(&self) -> Option<u64> {
        None
    }

    fn on_window(&mut self, obs: &PolicyObservation<'_>) -> PolicyResponse {
        PolicyResponse::hold(obs.mes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_window::Window;

    #[test]
    fn nodvs_always_holds() {
        let mut p = NoDvsPolicy;
        let decisions = Window::new(2000.0, &[0.9, 0.0]).decide(&mut p);
        assert_eq!(decisions, vec![ScalingDecision::Hold; 2]);
        assert_eq!(p.window_cycles(), None);
        assert!(!p.monitors_traffic());
    }

    #[test]
    fn queue_fill_fraction() {
        let q = QueueObservation {
            occupancy: 512,
            capacity: 2048,
            dropped: 0,
        };
        assert!((q.fill_fraction() - 0.25).abs() < 1e-12);
        let empty = QueueObservation {
            occupancy: 0,
            capacity: 0,
            dropped: 0,
        };
        assert_eq!(empty.fill_fraction(), 0.0);
    }

    #[test]
    fn response_constructors() {
        let hold = PolicyResponse::hold(3);
        assert_eq!(hold.decisions, vec![ScalingDecision::Hold; 3]);
        let up = PolicyResponse::uniform(ScalingDecision::Up, 2);
        assert_eq!(up.decisions.len(), 2);
        let per = PolicyResponse::per_me(vec![ScalingDecision::Down]);
        assert_eq!(per.decisions, vec![ScalingDecision::Down]);
    }
}
