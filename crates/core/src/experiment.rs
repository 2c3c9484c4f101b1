//! Single-configuration experiments: simulate, trace, analyze.

use loc::DistributionReport;
use nepsim::{
    AnalyzerBank, Benchmark, MemRecorder, NpuConfig, PolicySpec, Recording, SimReport, Simulator,
};
use serde::{Deserialize, Serialize};
use traffic::TrafficSpec;
use xrun::{Job, JobError, JobSpec, Runner};

use crate::formulas::{power_distribution, throughput_distribution, PACKET_WINDOW};

/// The paper's simulation length: 8×10⁶ cycles of the 600 MHz base clock
/// per configuration (§4.1).
pub const PAPER_RUN_CYCLES: u64 = 8_000_000;

/// One point in the design space: a benchmark, a traffic level, a DVS
/// policy, a run length and a seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Experiment {
    /// Benchmark application (§3.1).
    pub benchmark: Benchmark,
    /// Traffic-model spec (§3.2): a paper level or any registered model.
    pub traffic: TrafficSpec,
    /// DVS policy and parameters.
    pub policy: PolicySpec,
    /// Base-clock cycles to simulate ([`PAPER_RUN_CYCLES`] in the paper).
    pub cycles: u64,
    /// Experiment seed.
    pub seed: u64,
}

impl Experiment {
    /// A paper-length experiment with the given policy on `ipfwdr`.
    #[must_use]
    pub fn paper_default(policy: PolicySpec) -> Self {
        Experiment {
            benchmark: Benchmark::Ipfwdr,
            traffic: traffic::TrafficLevel::High.into(),
            policy,
            cycles: PAPER_RUN_CYCLES,
            seed: 42,
        }
    }

    /// The [`xrun::JobSpec`] describing this experiment's simulation —
    /// an `Experiment` is exactly one runner job plus trace analysis.
    #[must_use]
    pub fn job_spec(&self) -> JobSpec {
        JobSpec {
            benchmark: self.benchmark,
            traffic: self.traffic.clone(),
            policy: self.policy.clone(),
            cycles: self.cycles,
            seed: self.seed,
        }
    }

    /// The label naming this experiment in progress output and errors.
    #[must_use]
    pub fn label(&self) -> String {
        self.job_spec().label()
    }

    /// The `(threshold Mbps, window cycles)` of a plain-TDVS experiment
    /// — its key in a TDVS grid; `None` under any other policy.
    #[must_use]
    pub fn tdvs_point(&self) -> Option<(f64, u64)> {
        match &self.policy {
            PolicySpec::Tdvs(c) => Some((c.top_threshold_mbps, c.window_cycles)),
            _ => None,
        }
    }

    /// Builds the simulator configuration for this experiment.
    #[must_use]
    pub fn npu_config(&self) -> NpuConfig {
        self.job_spec().npu_config()
    }

    /// Runs the simulation and both paper distribution analyzers.
    ///
    /// # Panics
    ///
    /// Panics only if the canonical paper formulas fail to compile into
    /// analyzers, which would be a bug in this crate.
    #[must_use]
    pub fn run(&self) -> ExperimentResult {
        self.finish(Simulator::new(self.npu_config())).0
    }

    /// [`Experiment::run`] with a [`nepsim::MemRecorder`] attached: the
    /// same result (bit-identical — recording is pure observation) plus
    /// the per-window [`Recording`] of every [`nepsim::Channel`].
    ///
    /// # Panics
    ///
    /// Panics only if the canonical paper formulas fail to compile into
    /// analyzers, which would be a bug in this crate.
    #[must_use]
    pub fn run_recorded(&self) -> (ExperimentResult, Recording) {
        let sim = Simulator::new(self.npu_config()).with_recorder(Box::new(MemRecorder::new()));
        self.finish(sim)
    }

    /// Shared tail of [`Experiment::run`] and
    /// [`Experiment::run_recorded`]: simulate with both paper formulas
    /// streaming, finish them, take whatever the simulator's recorder
    /// captured (empty for the default [`nepsim::NullRecorder`]).
    fn finish(&self, sim: Simulator) -> (ExperimentResult, Recording) {
        // Both paper formulas evaluate record by record while the
        // simulation runs, so no trace is buffered.
        let mut bank = AnalyzerBank::new();
        let power = bank
            .add_analyzer(&power_distribution(PACKET_WINDOW))
            .expect("paper formula (2) is a valid distribution formula");
        let throughput = bank
            .add_analyzer(&throughput_distribution(PACKET_WINDOW))
            .expect("paper formula (3) is a valid distribution formula");
        let mut sim = sim.with_analyzers(bank);
        let report = sim.run_cycles(self.cycles);

        let mut results = {
            let _prof = obs::prof::span("analyze");
            sim.take_analysis()
        };
        // Pop in reverse registration order to move without cloning.
        debug_assert_eq!((power, throughput), (0, 1));
        let throughput = results.distributions.pop().expect("two analyzers ran");
        let power = results.distributions.pop().expect("two analyzers ran");
        let recording = sim.take_recording();
        (
            ExperimentResult {
                experiment: self.clone(),
                sim: report,
                power,
                throughput,
            },
            recording,
        )
    }
}

impl From<Experiment> for JobSpec {
    fn from(e: Experiment) -> Self {
        e.job_spec()
    }
}

impl From<JobSpec> for Experiment {
    fn from(spec: JobSpec) -> Self {
        Experiment {
            benchmark: spec.benchmark,
            traffic: spec.traffic,
            policy: spec.policy,
            cycles: spec.cycles,
            seed: spec.seed,
        }
    }
}

/// Runs a batch of experiments on an [`xrun::Runner`], returning one
/// reduced outcome per experiment **in submission order**.
///
/// This is the single execution path every grid
/// ([`crate::sweep::run_grid`]) funnels through: each experiment
/// becomes one runner job (simulate + analyze), so cells run on all
/// available workers and a panicking cell surfaces as its own
/// [`JobError`] while the rest of the batch completes. When the runner carries a result cache
/// ([`Runner::cache`]), every cell consults it before simulating and
/// publishes after ([`crate::cachefmt::run_cached`]) — a hit is
/// bit-identical to a cold simulation, so the batch's results are
/// unchanged by caching.
///
/// Each job hands its [`ExperimentResult`] to `reduce` on the worker
/// and returns only what `reduce` keeps. Plain grids pass the identity,
/// so their cells keep their distributions. Replicated batches pass
/// [`ExperimentResult::metrics`], the only part of a replicate their
/// fold reads, so they hold the distributions of at most one replicate
/// per worker at a time rather than of every cell until the last job
/// ends.
pub fn run_experiments<T: Send>(
    runner: &Runner,
    experiments: Vec<Experiment>,
    reduce: impl Fn(ExperimentResult) -> T + Sync,
) -> Vec<Result<T, JobError>> {
    let cache = runner.cache();
    let reduce = &reduce;
    let jobs: Vec<Job<'_, T>> = experiments
        .into_iter()
        .map(|e| {
            Job::new(e.label(), move || {
                reduce(crate::cachefmt::run_cached(cache, &e))
            })
        })
        .collect();
    runner.run(jobs).into_iter().map(|r| r.outcome).collect()
}

/// Splits a batch of cell outcomes into completed cells and failures,
/// preserving order within each half.
pub fn partition_cells<T>(outcomes: Vec<Result<T, JobError>>) -> (Vec<T>, Vec<JobError>) {
    let mut cells = Vec::with_capacity(outcomes.len());
    let mut errors = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(cell) => cells.push(cell),
            Err(e) => errors.push(e),
        }
    }
    (cells, errors)
}

/// A simulated configuration together with its analyzed distributions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// The experiment that produced this result.
    pub experiment: Experiment,
    /// The simulator's end-of-run summary.
    pub sim: SimReport,
    /// Paper formula (2): power per 100 forwarded packets (W).
    pub power: DistributionReport,
    /// Paper formula (3): throughput per 100 forwarded packets (Mbps).
    pub throughput: DistributionReport,
}

impl ExperimentResult {
    /// The paper's Fig. 8 quantity: the power below which 80 % of
    /// formula-(2) instances fall. Falls back to the run's mean power when
    /// the trace is too short for any 100-packet window.
    #[must_use]
    pub fn p80_power_w(&self) -> f64 {
        self.power
            .quantile(0.8)
            .unwrap_or_else(|| self.sim.mean_power_w())
    }

    /// The paper's Fig. 9 quantity: the throughput above which 80 % of
    /// formula-(3) instances fall. Falls back to the run's mean throughput
    /// when the trace is too short.
    #[must_use]
    pub fn p80_throughput_mbps(&self) -> f64 {
        self.throughput
            .quantile_above(0.8)
            .unwrap_or_else(|| self.sim.throughput_mbps())
    }

    /// The ten scalar metrics of this result as a [`stats::RunMetrics`]
    /// — the quantity replication batches fold into per-field
    /// summaries, and exactly what the JSON documents' `"metrics"`
    /// object reports.
    #[must_use]
    pub fn metrics(&self) -> stats::RunMetrics {
        stats::RunMetrics {
            offered_mbps: self.sim.offered_mbps(),
            throughput_mbps: self.sim.throughput_mbps(),
            mean_power_w: self.sim.mean_power_w(),
            p80_power_w: self.p80_power_w(),
            p80_throughput_mbps: self.p80_throughput_mbps(),
            loss_ratio: self.sim.loss_ratio(),
            rx_idle_fraction: self.sim.rx_idle_fraction(),
            total_energy_uj: self.sim.total_energy_uj(),
            total_switches: self.sim.total_switches,
            forwarded_packets: self.sim.forwarded_packets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs::TdvsConfig;

    fn quick(policy: PolicySpec) -> ExperimentResult {
        Experiment {
            benchmark: Benchmark::Ipfwdr,
            traffic: traffic::TrafficLevel::High.into(),
            policy,
            cycles: 1_500_000,
            seed: 9,
        }
        .run()
    }

    #[test]
    fn no_dvs_run_produces_distributions() {
        let r = quick(PolicySpec::NoDvs);
        assert!(r.power.total_instances() > 100, "too few instances");
        assert!(r.throughput.total_instances() > 100);
        // noDVS power sits in the paper's analysis period.
        let p80 = r.p80_power_w();
        assert!((0.5..2.25).contains(&p80), "p80 power {p80}");
        let t80 = r.p80_throughput_mbps();
        assert!((100.0..3300.0).contains(&t80), "p80 throughput {t80}");
    }

    #[test]
    fn tdvs_shifts_power_distribution_left() {
        let base = quick(PolicySpec::NoDvs);
        let tdvs = quick(PolicySpec::Tdvs(TdvsConfig {
            top_threshold_mbps: 1400.0,
            window_cycles: 40_000,
        }));
        assert!(
            tdvs.p80_power_w() < base.p80_power_w(),
            "TDVS {:.3} W !< noDVS {:.3} W",
            tdvs.p80_power_w(),
            base.p80_power_w()
        );
    }

    #[test]
    fn experiment_is_reproducible() {
        let a = quick(PolicySpec::NoDvs);
        let b = quick(PolicySpec::NoDvs);
        assert_eq!(a.sim.forwarded_packets, b.sim.forwarded_packets);
        assert_eq!(a.power.total_instances(), b.power.total_instances());
        assert_eq!(a.p80_power_w().to_bits(), b.p80_power_w().to_bits());
    }

    #[test]
    fn paper_default_uses_paper_cycles() {
        let e = Experiment::paper_default(PolicySpec::NoDvs);
        assert_eq!(e.cycles, PAPER_RUN_CYCLES);
        assert_eq!(e.benchmark, Benchmark::Ipfwdr);
    }

    #[test]
    fn job_spec_round_trips_through_xrun() {
        let e = Experiment::paper_default(PolicySpec::NoDvs);
        let spec: JobSpec = e.clone().into();
        assert_eq!(spec.label(), e.label());
        assert_eq!(Experiment::from(spec), e);
    }

    #[test]
    fn run_experiments_matches_direct_runs() {
        let experiments: Vec<Experiment> = [PolicySpec::NoDvs, PolicySpec::parse("queue").unwrap()]
            .into_iter()
            .map(|policy| Experiment {
                benchmark: Benchmark::Ipfwdr,
                traffic: traffic::TrafficLevel::High.into(),
                policy,
                cycles: 400_000,
                seed: 11,
            })
            .collect();
        let batch = run_experiments(
            &Runner::new().with_workers(2),
            experiments.clone(),
            std::convert::identity,
        );
        assert_eq!(batch.len(), 2);
        for (outcome, e) in batch.iter().zip(&experiments) {
            let got = outcome.as_ref().expect("no cell failed");
            let direct = e.run();
            assert_eq!(got.sim.forwarded_packets, direct.sim.forwarded_packets);
            assert_eq!(got.p80_power_w().to_bits(), direct.p80_power_w().to_bits());
        }
        // A reducing batch returns exactly what the reduction keeps of
        // each cell, still in submission order.
        let reduced = run_experiments(&Runner::serial(), experiments.clone(), |r| {
            r.sim.forwarded_packets
        });
        for (outcome, full) in reduced.iter().zip(&batch) {
            let full = full.as_ref().expect("no cell failed");
            assert_eq!(outcome.as_ref().ok(), Some(&full.sim.forwarded_packets));
        }
    }
}
