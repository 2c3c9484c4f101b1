//! Ablation studies for the design choices the paper makes by
//! inspection:
//!
//! * the **EDVS idle threshold** (the paper picks 10 % after inspecting
//!   the idle-time distribution — §4.2),
//! * **TDVS hysteresis** (the paper's plain-threshold rule oscillates and
//!   burns 6000-cycle penalties at small windows — §4.1).
//!
//! Each ablation is a policy-axis [`abdex::Grid`] over the spec list
//! built here, read back as a table keyed by the varied parameter.

use abdex::dvs::{EdvsConfig, TdvsConfig};
use abdex::{ExperimentResult, PolicySpec};

/// One EDVS spec per idle threshold, in list order, all on the same
/// monitor window.
///
/// # Example
///
/// ```
/// use abdex::nepsim::Benchmark;
/// use abdex::traffic::TrafficLevel;
/// use abdex::{run_grid, Grid, Runner};
/// use abdex_bench::ablation::edvs_idle_thresholds;
///
/// let specs = edvs_idle_thresholds(&[0.05, 0.10], 40_000);
/// let grid = Grid::policies(Benchmark::Ipfwdr, &TrafficLevel::High.into(), &specs, 200_000, 1);
/// assert_eq!(run_grid(&Runner::new(), &grid, 1).plain().unwrap().len(), 2);
/// ```
#[must_use]
pub fn edvs_idle_thresholds(thresholds: &[f64], window_cycles: u64) -> Vec<PolicySpec> {
    thresholds
        .iter()
        .map(|&idle_threshold| {
            PolicySpec::Edvs(EdvsConfig {
                idle_threshold,
                window_cycles,
            })
        })
        .collect()
}

/// One TDVS spec per hysteresis band at a fixed threshold and window,
/// in list order; band `0.0` is the paper's plain rule.
#[must_use]
pub fn tdvs_hysteresis_bands(base: TdvsConfig, bands: &[f64]) -> Vec<PolicySpec> {
    bands
        .iter()
        .map(|&band| {
            if band == 0.0 {
                PolicySpec::Tdvs(base)
            } else {
                PolicySpec::TdvsHysteresis(base.with_hysteresis(band))
            }
        })
        .collect()
}

/// Renders ablation results as a table keyed by the varied parameter:
/// one row per `(parameter, cell)` pair.
#[must_use]
pub fn render_ablation(
    parameter_label: &str,
    parameters: &[f64],
    cells: &[ExperimentResult],
) -> String {
    let mut out = format!(
        "{parameter_label:>14} {:>12} {:>14} {:>9} {:>9}\n",
        "mean_power_w", "tput_mbps", "switches", "rx_idle"
    );
    for (parameter, c) in parameters.iter().zip(cells) {
        out.push_str(&format!(
            "{:>14.3} {:>12.3} {:>14.1} {:>9} {:>9.3}\n",
            parameter,
            c.sim.mean_power_w(),
            c.sim.throughput_mbps(),
            c.sim.total_switches,
            c.sim.rx_idle_fraction(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use abdex::nepsim::Benchmark;
    use abdex::traffic::TrafficLevel;
    use abdex::{run_grid, Grid, Runner};

    const CYCLES: u64 = 1_200_000;

    /// Runs one ablation grid on ipfwdr at seed 42.
    fn ablate(traffic: TrafficLevel, specs: &[PolicySpec], cycles: u64) -> Vec<ExperimentResult> {
        let grid = Grid::policies(Benchmark::Ipfwdr, &traffic.into(), specs, cycles, 42);
        let run = run_grid(&Runner::new(), &grid, 1);
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        run.plain().expect("one seed per cell").to_vec()
    }

    #[test]
    fn edvs_threshold_sweep_monotone_in_aggressiveness() {
        // A lower idle threshold scales down more eagerly => less power.
        let specs = edvs_idle_thresholds(&[0.05, 0.40], 40_000);
        let cells = ablate(TrafficLevel::High, &specs, CYCLES);
        assert_eq!(cells.len(), 2);
        let eager = cells[0].sim.mean_power_w();
        let lazy = cells[1].sim.mean_power_w();
        assert!(eager < lazy, "eager {eager:.3} !< lazy {lazy:.3}");
    }

    #[test]
    fn hysteresis_reduces_switching() {
        let base = TdvsConfig {
            top_threshold_mbps: 1000.0,
            window_cycles: 20_000,
        };
        let specs = tdvs_hysteresis_bands(base, &[0.0, 0.15]);
        assert_eq!(specs[0], PolicySpec::Tdvs(base));
        let cells = ablate(TrafficLevel::High, &specs, CYCLES);
        let plain = cells[0].sim.total_switches;
        let damped = cells[1].sim.total_switches;
        assert!(
            damped < plain,
            "hysteresis did not reduce switching: {damped} !< {plain}"
        );
    }

    #[test]
    fn render_lists_all_cells() {
        let specs = edvs_idle_thresholds(&[0.10], 40_000);
        let cells = ablate(TrafficLevel::Low, &specs, 200_000);
        let text = render_ablation("idle_threshold", &[0.10], &cells);
        assert!(text.contains("0.100"));
        assert_eq!(text.lines().count(), 2);
    }
}
