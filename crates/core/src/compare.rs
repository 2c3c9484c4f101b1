//! The policy comparison's fixed parameters (paper §4.3, Fig. 11),
//! extended with every other registered policy family. The grid itself
//! — benchmarks × traffic specs × [`ComparisonConfig::policies`] — is
//! [`crate::Grid::compare`].

use dvs::{CombinedConfig, EdvsConfig, ProportionalConfig, QueueAwareConfig, TdvsConfig};
use nepsim::PolicySpec;
use serde::{Deserialize, Serialize};

/// The fixed policy parameters of the §4.3 comparison: the optima found
/// by the §4.1/§4.2 sweeps for the paper's policies, defaults for the
/// extension policies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComparisonConfig {
    /// TDVS parameters (the paper's power-priority pick: 1400 Mbps, 40 k).
    pub tdvs: TdvsConfig,
    /// EDVS parameters (10 % idle threshold, 40 k window).
    pub edvs: EdvsConfig,
    /// TEDVS parameters (the conservative composition of the above).
    pub combined: CombinedConfig,
    /// Queue-aware parameters (FIFO watermarks).
    pub queue: QueueAwareConfig,
    /// Proportional-controller parameters (PI gains).
    pub proportional: ProportionalConfig,
    /// Run length per cell, base-clock cycles.
    pub cycles: u64,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for ComparisonConfig {
    fn default() -> Self {
        let tdvs = TdvsConfig {
            top_threshold_mbps: 1400.0,
            window_cycles: 40_000,
        };
        let edvs = EdvsConfig::default();
        ComparisonConfig {
            tdvs,
            edvs,
            combined: CombinedConfig { tdvs, edvs },
            queue: QueueAwareConfig::default(),
            proportional: ProportionalConfig::default(),
            cycles: crate::experiment::PAPER_RUN_CYCLES,
            seed: 42,
        }
    }
}

impl ComparisonConfig {
    /// The specs every grid cell is run under, in row order: the paper's
    /// three (noDVS, TDVS, EDVS) followed by the extension policies
    /// (TEDVS, QDVS, PDVS).
    #[must_use]
    pub fn policies(&self) -> Vec<PolicySpec> {
        vec![
            PolicySpec::NoDvs,
            PolicySpec::Tdvs(self.tdvs),
            PolicySpec::Edvs(self.edvs),
            PolicySpec::Combined(self.combined),
            PolicySpec::QueueAware(self.queue),
            PolicySpec::Proportional(self.proportional),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_grid, Grid, GridRun};
    use dvs::PolicyKind;
    use nepsim::Benchmark;
    use traffic::{TrafficLevel, TrafficSpec};
    use xrun::Runner;

    fn spec(level: TrafficLevel) -> TrafficSpec {
        TrafficSpec::Level(level)
    }

    fn quick_cmp(benchmarks: &[Benchmark], levels: &[TrafficLevel]) -> GridRun {
        let cfg = ComparisonConfig {
            cycles: 1_200_000,
            ..ComparisonConfig::default()
        };
        let traffics: Vec<TrafficSpec> = levels.iter().copied().map(spec).collect();
        let run = run_grid(
            &Runner::new(),
            &Grid::compare(benchmarks, &traffics, &cfg),
            1,
        );
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        run
    }

    #[test]
    fn grid_has_all_rows() {
        let cmp = quick_cmp(
            &[Benchmark::Ipfwdr, Benchmark::Nat],
            &[TrafficLevel::Low, TrafficLevel::High],
        );
        assert_eq!(cmp.plain().expect("one seed per cell").len(), 2 * 2 * 6);
        for kind in [
            PolicyKind::NoDvs,
            PolicyKind::Tdvs,
            PolicyKind::Edvs,
            PolicyKind::Combined,
            PolicyKind::QueueAware,
            PolicyKind::Proportional,
        ] {
            assert!(
                cmp.position(Benchmark::Nat, &spec(TrafficLevel::Low), kind)
                    .is_some(),
                "missing {kind} row"
            );
        }
    }

    #[test]
    fn extension_policies_behave_sanely_at_low_traffic() {
        let cmp = quick_cmp(&[Benchmark::Ipfwdr], &[TrafficLevel::Low]);
        // The queue-aware policy sees a near-empty FIFO under light load
        // and must save power against the baseline.
        let qdvs = cmp
            .power_saving(
                Benchmark::Ipfwdr,
                &spec(TrafficLevel::Low),
                PolicyKind::QueueAware,
            )
            .unwrap();
        assert!(qdvs > 0.05, "QDVS saving only {qdvs:.3}");
        // The PI controller may not beat the baseline everywhere, but it
        // must never *cost* power: its floor is the pinned top level.
        let pdvs = cmp
            .power_saving(
                Benchmark::Ipfwdr,
                &spec(TrafficLevel::Low),
                PolicyKind::Proportional,
            )
            .unwrap();
        assert!(pdvs > -0.01, "PDVS made things worse: {pdvs:.3}");
    }

    #[test]
    fn nat_gets_no_edvs_savings() {
        // Paper §4.3: "nat shows no power savings from EDVS under every
        // traffic pattern".
        let cmp = quick_cmp(&[Benchmark::Nat], &[TrafficLevel::High]);
        let saving = cmp
            .power_saving(Benchmark::Nat, &spec(TrafficLevel::High), PolicyKind::Edvs)
            .unwrap();
        assert!(saving < 0.03, "nat EDVS saving {saving:.3}");
    }

    #[test]
    fn ipfwdr_gets_edvs_savings_at_high_traffic() {
        let cmp = quick_cmp(&[Benchmark::Ipfwdr], &[TrafficLevel::High]);
        let saving = cmp
            .power_saving(
                Benchmark::Ipfwdr,
                &spec(TrafficLevel::High),
                PolicyKind::Edvs,
            )
            .unwrap();
        assert!(saving > 0.05, "ipfwdr EDVS saving only {saving:.3}");
    }

    #[test]
    fn tdvs_saves_more_at_low_traffic() {
        // Paper §4.3: TDVS's savings shrink as traffic rises.
        let cmp = quick_cmp(
            &[Benchmark::Ipfwdr],
            &[TrafficLevel::Low, TrafficLevel::High],
        );
        let low = cmp
            .power_saving(
                Benchmark::Ipfwdr,
                &spec(TrafficLevel::Low),
                PolicyKind::Tdvs,
            )
            .unwrap();
        let high = cmp
            .power_saving(
                Benchmark::Ipfwdr,
                &spec(TrafficLevel::High),
                PolicyKind::Tdvs,
            )
            .unwrap();
        assert!(low > high, "low-traffic saving {low:.3} !> high {high:.3}");
    }

    #[test]
    fn missing_rows_return_none() {
        let cmp = quick_cmp(&[Benchmark::Nat], &[TrafficLevel::Low]);
        assert!(cmp
            .position(Benchmark::Md4, &spec(TrafficLevel::Low), PolicyKind::NoDvs)
            .is_none());
        assert!(cmp
            .power_saving(Benchmark::Md4, &spec(TrafficLevel::Low), PolicyKind::Tdvs)
            .is_none());
    }
}
