//! Replication batches: every cell of a grid re-run over k
//! seed-derived replicates and folded into per-metric confidence
//! intervals.
//!
//! A replicated batch is the same grid the plain path runs, fanned out
//! `k ×` through [`stats::Replication`]: cell `c`'s replicate `i` runs
//! with seed `derive_seed(base_seed, i)`, so the whole batch is a pure
//! function of the base seed. Execution reuses the ordinary
//! [`xrun::Runner`] — k × cells jobs, panic-isolated per replicate,
//! results folded **in replicate order** — which keeps the workspace's
//! bit-determinism contract: means and half-widths are bit-identical
//! for any worker count (`crates/core/tests/determinism.rs` guards
//! this). Each job keeps only the ten [`RunMetrics`] scalars of its
//! replicate, so a batch's memory does not grow with cells × seeds
//! (`crates/core/tests/bounded_memory.rs` guards this), and a cached
//! replicate decodes only those scalars
//! ([`crate::cachefmt::decode_metrics`]): its window samples and
//! distributions are validated, never built.
//!
//! Error semantics follow the plain batches: a panicking replicate
//! fails its *cell* (reported as the first failing replicate's
//! [`JobError`]) while every other cell completes — a partial fold
//! would silently report a narrower interval than the batch earned, so
//! cells are all-or-nothing.

use dvs::PolicyKind;
use nepsim::Benchmark;
use serde::{Deserialize, Serialize};
use stats::{ReplicatedMetrics, Replication, RunMetrics};
use traffic::TrafficSpec;
use xrun::{JobError, Runner};

use crate::experiment::{run_experiments, Experiment};

/// One replicated cell: the base experiment (whose seed names the
/// replicate family) and the per-metric summaries over its k runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplicatedResult {
    /// The base experiment; replicate `i` ran it with
    /// `derive_seed(experiment.seed, i)`.
    pub experiment: Experiment,
    /// One [`stats::Summary`] per metric field, folded in replicate
    /// order.
    pub metrics: ReplicatedMetrics,
}

impl ReplicatedResult {
    /// Number of replicates behind every summary.
    #[must_use]
    pub fn replicates(&self) -> u64 {
        self.metrics.replicates()
    }
}

/// Runs every experiment `seeds` times on the runner and folds each
/// cell's replicates — the single execution path of every replicated
/// grid ([`crate::sweep::run_grid`] with `seeds >= 2`) and of
/// `abdex replicate`, exactly as [`run_experiments`] is for the plain
/// batches.
///
/// The k × cells jobs are submitted cell-major (cell 0's replicates,
/// then cell 1's, ...), so submission order — and therefore every fold
/// — is a pure function of the batch description. Every job keeps its
/// replicate's [`RunMetrics`] ([`crate::ExperimentResult::metrics`] of
/// a simulated replicate, [`crate::cachefmt::decode_metrics`] of a
/// cached one), so the batch keeps the distributions of at most one
/// replicate per worker, never of the whole grid.
///
/// # Panics
///
/// Panics when `seeds` is 0 (see [`stats::Replication::new`]).
pub fn run_replicated_experiments(
    runner: &Runner,
    experiments: Vec<Experiment>,
    seeds: u64,
) -> Vec<Result<ReplicatedResult, JobError>> {
    let replications: Vec<Replication> = experiments
        .iter()
        .map(|e| Replication::new(e.job_spec(), seeds))
        .collect();
    let jobs: Vec<Experiment> = replications
        .iter()
        .flat_map(|r| r.specs().into_iter().map(Experiment::from))
        .collect();
    let mut outcomes = run_experiments::<RunMetrics>(runner, jobs).into_iter();
    let _prof = obs::prof::span("fold");
    experiments
        .into_iter()
        .zip(&replications)
        .map(|(experiment, replication)| {
            // Consume exactly this cell's k outcomes, folding in
            // replicate order; the first failing replicate fails the
            // cell (the rest of its chunk is still consumed so the
            // next cell stays aligned).
            let mut metrics: Vec<RunMetrics> = Vec::with_capacity(seeds as usize);
            let mut failure: Option<JobError> = None;
            for outcome in outcomes.by_ref().take(seeds as usize) {
                match outcome {
                    Ok(run) => metrics.push(run),
                    Err(e) => failure = failure.or(Some(e)),
                }
            }
            match failure {
                Some(e) => Err(e),
                None => Ok(ReplicatedResult {
                    metrics: replication.fold(&metrics),
                    experiment,
                }),
            }
        })
        .collect()
}

/// One row of the replicated comparison grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplicatedComparisonRow {
    /// Benchmark application.
    pub benchmark: Benchmark,
    /// Traffic-model spec.
    pub traffic: TrafficSpec,
    /// Policy family that ran.
    pub policy: PolicyKind,
    /// The replicated cell result.
    pub result: ReplicatedResult,
}

/// A replicated policy comparison folded outside [`crate::run_grid`]:
/// the Fig. 11 grid with every cell run over k seeds, in the row shape
/// [`crate::tables::render_replicated_comparison`] and
/// [`crate::json::replicated_compare_json`] render as the compare-axis
/// case of the grid table and document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplicatedComparison {
    /// All completed rows, benchmark-major like [`crate::Grid::compare`].
    pub rows: Vec<ReplicatedComparisonRow>,
    /// Replicates per cell.
    pub seeds: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::ComparisonConfig;
    use crate::sweep::{run_grid, Grid, GridRun, TdvsGrid};
    use nepsim::PolicySpec;
    use stats::ConfidenceLevel;
    use traffic::TrafficLevel;
    use xrun::derive_seed;

    const CYCLES: u64 = 300_000;

    fn experiment() -> Experiment {
        Experiment {
            benchmark: Benchmark::Ipfwdr,
            traffic: TrafficLevel::High.into(),
            policy: PolicySpec::NoDvs,
            cycles: CYCLES,
            seed: 42,
        }
    }

    fn replicated(grid: &Grid, seeds: u64) -> GridRun {
        let run = run_grid(&Runner::new(), grid, seeds);
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        run
    }

    #[test]
    fn replicated_run_folds_exactly_the_derived_seeds() {
        let seeds = 3;
        let replicated = run_replicated_experiments(&Runner::new(), vec![experiment()], seeds)
            .pop()
            .expect("one cell")
            .expect("no replicate failed");
        assert_eq!(replicated.replicates(), seeds);
        // The fold must equal running each derived seed by hand, in
        // replicate order.
        let manual: Vec<stats::RunMetrics> = (0..seeds)
            .map(|i| {
                let mut e = experiment();
                e.seed = derive_seed(experiment().seed, i);
                e.run().metrics()
            })
            .collect();
        let expected = ReplicatedMetrics::of(&manual);
        assert_eq!(
            replicated.metrics.mean_power_w.mean().to_bits(),
            expected.mean_power_w.mean().to_bits()
        );
        assert_eq!(
            replicated
                .metrics
                .p80_power_w
                .half_width(ConfidenceLevel::P95)
                .to_bits(),
            expected
                .p80_power_w
                .half_width(ConfidenceLevel::P95)
                .to_bits()
        );
        // Distinct seeds genuinely vary the measurement: the interval
        // is non-degenerate.
        assert!(replicated.metrics.forwarded_packets.std_dev() > 0.0);
        // The base experiment (not a derived seed) names the family.
        assert_eq!(replicated.experiment, experiment());
    }

    #[test]
    fn replicated_tdvs_sweep_covers_the_grid() {
        let points = TdvsGrid {
            thresholds_mbps: vec![1000.0, 1400.0],
            windows_cycles: vec![40_000],
        };
        let grid = Grid::tdvs(
            Benchmark::Ipfwdr,
            &TrafficLevel::Medium.into(),
            &points,
            CYCLES,
            7,
        );
        let run = replicated(&grid, 2);
        assert_eq!(run.seeds, 2);
        let cells = run.replicated().expect("replicated cells");
        assert_eq!(cells.len(), 2);
        for cell in cells {
            assert_eq!(cell.replicates(), 2);
            assert!(cell.metrics.mean_power_w.mean() > 0.2);
        }
        assert_eq!(cells[0].experiment.tdvs_point(), Some((1000.0, 40_000)));
        assert_eq!(cells[1].experiment.tdvs_point(), Some((1400.0, 40_000)));
    }

    #[test]
    fn replicated_spec_and_traffic_sweeps_keep_list_order() {
        let specs: Vec<PolicySpec> = ["nodvs", "queue"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let grid = Grid::policies(
            Benchmark::Ipfwdr,
            &TrafficLevel::Low.into(),
            &specs,
            CYCLES,
            7,
        );
        let run = replicated(&grid, 2);
        let cells = run.replicated().expect("replicated cells");
        assert_eq!(cells.len(), 2);
        for (cell, spec) in cells.iter().zip(&specs) {
            assert_eq!(cell.experiment.policy, *spec);
        }

        let traffics: Vec<TrafficSpec> = ["low", "constant:rate=500"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let grid = Grid::traffics(Benchmark::Ipfwdr, &traffics, &PolicySpec::NoDvs, CYCLES, 7);
        let run = replicated(&grid, 2);
        let cells = run.replicated().expect("replicated cells");
        assert_eq!(cells.len(), 2);
        for (cell, spec) in cells.iter().zip(&traffics) {
            assert_eq!(cell.experiment.traffic, *spec);
        }
        // The CBR source is seed-free, so its replicates agree exactly.
        assert_eq!(cells[1].metrics.offered_mbps.std_dev(), 0.0);
    }

    #[test]
    fn replicated_comparison_carries_interval_savings() {
        let cfg = ComparisonConfig {
            cycles: 1_200_000,
            ..ComparisonConfig::default()
        };
        let grid = Grid::compare(&[Benchmark::Ipfwdr], &[TrafficLevel::Low.into()], &cfg);
        let cmp = replicated(&grid, 2);
        assert_eq!(cmp.replicated().expect("replicated cells").len(), 6);
        assert_eq!(cmp.seeds, 2);
        let saving = cmp
            .power_saving(
                Benchmark::Ipfwdr,
                &TrafficLevel::Low.into(),
                PolicyKind::Tdvs,
            )
            .unwrap();
        assert!(saving > 0.0, "TDVS saving {saving:.3}");
        assert!(cmp
            .position(Benchmark::Nat, &TrafficLevel::Low.into(), PolicyKind::Tdvs)
            .is_none());
    }

    #[test]
    fn failing_replicate_fails_only_its_cell() {
        // A trace spec pointing nowhere panics when the cell builds its
        // model mid-batch; the healthy cell must still complete.
        let traffics: Vec<TrafficSpec> = vec![
            "low".parse().unwrap(),
            "trace:path=/no/such/replicated-trace.txt".parse().unwrap(),
        ];
        let grid = Grid::traffics(Benchmark::Ipfwdr, &traffics, &PolicySpec::NoDvs, 150_000, 7);
        let run = run_grid(&Runner::serial(), &grid, 2);
        let cells = run.replicated().expect("replicated cells");
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].experiment.traffic, traffics[0]);
        assert_eq!(run.failures.len(), 1);
        let err = &run.failures[0];
        assert!(err.message.contains("cannot build"), "{err}");
    }
}
