//! Optimal-configuration selection (paper §4.1's design conclusions).

use serde::{Deserialize, Serialize};

use crate::experiment::ExperimentResult;

/// What the designer optimises for. The paper concludes: performance
/// priority → 1000 Mbps threshold with an 80 k window; power priority →
/// 1400 Mbps with a 40 k window (for `ipfwdr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DesignPriority {
    /// Maximise the 80th-percentile throughput; break ties on lower power.
    Performance,
    /// Minimise the 80th-percentile power; break ties on higher throughput.
    Power,
}

/// Picks the optimal cell of a TDVS sweep under the given priority.
///
/// Returns `None` only when `cells` is empty.
///
/// # Example
///
/// ```
/// use abdex::{optimal_tdvs, run_grid, DesignPriority, Grid, Runner, TdvsGrid};
/// use abdex::nepsim::Benchmark;
/// use abdex::traffic::TrafficLevel;
///
/// let points = TdvsGrid {
///     thresholds_mbps: vec![1000.0, 1400.0],
///     windows_cycles: vec![40_000],
/// };
/// let grid = Grid::tdvs(Benchmark::Ipfwdr, &TrafficLevel::High.into(), &points, 200_000, 1);
/// let run = run_grid(&Runner::new(), &grid, 1);
/// let best = optimal_tdvs(run.plain().unwrap(), DesignPriority::Power).expect("non-empty sweep");
/// let (threshold, _) = best.experiment.tdvs_point().unwrap();
/// assert!(points.thresholds_mbps.contains(&threshold));
/// ```
#[must_use]
pub fn optimal_tdvs(
    cells: &[ExperimentResult],
    priority: DesignPriority,
) -> Option<&ExperimentResult> {
    cells.iter().min_by(|a, b| {
        let (pa, pb) = (a.p80_power_w(), b.p80_power_w());
        let (ta, tb) = (a.p80_throughput_mbps(), b.p80_throughput_mbps());
        match priority {
            DesignPriority::Performance => tb
                .partial_cmp(&ta)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(pa.partial_cmp(&pb).unwrap_or(std::cmp::Ordering::Equal)),
            DesignPriority::Power => pa
                .partial_cmp(&pb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(tb.partial_cmp(&ta).unwrap_or(std::cmp::Ordering::Equal)),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Experiment;
    use crate::PolicySpec;
    use dvs::TdvsConfig;
    use nepsim::Benchmark;
    use traffic::TrafficLevel;

    fn cell(threshold: f64, window: u64, cycles: u64) -> ExperimentResult {
        Experiment {
            benchmark: Benchmark::Ipfwdr,
            traffic: TrafficLevel::Medium.into(),
            policy: PolicySpec::Tdvs(TdvsConfig {
                top_threshold_mbps: threshold,
                window_cycles: window,
            }),
            cycles,
            seed: 5,
        }
        .run()
    }

    #[test]
    fn empty_sweep_has_no_optimum() {
        assert!(optimal_tdvs(&[], DesignPriority::Power).is_none());
        assert!(optimal_tdvs(&[], DesignPriority::Performance).is_none());
    }

    #[test]
    fn priorities_select_extremes() {
        let cells = vec![cell(1000.0, 80_000, 400_000), cell(1400.0, 20_000, 400_000)];
        let power = optimal_tdvs(&cells, DesignPriority::Power).unwrap();
        let perf = optimal_tdvs(&cells, DesignPriority::Performance).unwrap();
        // The power pick must not dissipate more than the performance pick,
        // and the performance pick must not forward less.
        assert!(power.p80_power_w() <= perf.p80_power_w() + 1e-12);
        assert!(perf.p80_throughput_mbps() >= power.p80_throughput_mbps() - 1e-12);
    }
}
