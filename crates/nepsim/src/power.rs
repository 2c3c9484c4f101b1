//! Chip-level energy metering.

use desim::{Frequency, SimTime};
use dvs::VfLadder;
use serde::{Deserialize, Serialize};

use crate::config::PowerParams;

/// One VF level's ME clock and ME power, built once per run so that
/// mode accounting and compute timing index a table instead of
/// recomputing the `V²f` scale (three divisions) on every mode change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LevelPower {
    /// The level's ME clock.
    pub freq: Frequency,
    /// ME power while busy or busy-polling, W.
    pub active_w: f64,
    /// ME power while idle (memory-blocked) or stalled by a VF switch, W.
    pub idle_w: f64,
}

impl LevelPower {
    /// The table for every level of `ladder`, indexed like the ladder.
    ///
    /// Power is `me_active_w · scale` and `me_active_w · idle_factor ·
    /// scale`, evaluated left to right with `scale` the level's
    /// [`dvs::VfPoint::power_scale`]: float products depend on their
    /// order, and every energy total is pinned bit for bit.
    pub(crate) fn table(ladder: &VfLadder, params: &PowerParams) -> Vec<LevelPower> {
        let top = ladder.top();
        ladder
            .iter()
            .map(|point| {
                let scale = point.power_scale(&top);
                LevelPower {
                    freq: point.frequency(),
                    active_w: params.me_active_w * scale,
                    idle_w: params.me_active_w * params.idle_factor * scale,
                }
            })
            .collect()
    }
}

/// Aggregates energy by component, in microjoules.
///
/// ME active/idle energy is accounted by the microengines themselves (see
/// `engine`); this meter collects the remaining components and produces
/// chip totals on demand, so the trace's cumulative `energy` annotation is
/// consistent at any instant.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyMeter {
    /// Energy of the DVS monitor hardware (TDVS's 32-bit adder), µJ.
    pub monitor_uj: f64,
}

impl EnergyMeter {
    /// Creates an empty meter.
    #[must_use]
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Adds one monitor-adder activation (on packet arrival under TDVS).
    pub fn add_monitor(&mut self, energy_uj: f64) {
        self.monitor_uj += energy_uj;
    }

    /// Static/background energy consumed over the first `elapsed` of the
    /// run, µJ.
    #[must_use]
    pub fn static_uj(static_w: f64, elapsed: SimTime) -> f64 {
        static_w * elapsed.as_secs() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_energy_accumulates() {
        let mut m = EnergyMeter::new();
        for _ in 0..1000 {
            m.add_monitor(8.0e-6);
        }
        assert!((m.monitor_uj - 8.0e-3).abs() < 1e-12);
    }

    #[test]
    fn static_energy_scales_with_time() {
        // 0.3 W for 1 ms = 300 uJ.
        let uj = EnergyMeter::static_uj(0.3, SimTime::from_ms(1));
        assert!((uj - 300.0).abs() < 1e-9);
    }
}
