//! Job descriptions: the domain-level [`JobSpec`] and the generic named
//! closure [`Job`] the [`Runner`](crate::Runner) executes.

use std::fmt;
use std::time::Duration;

use nepsim::{AnalyzerBank, Benchmark, NpuConfig, PolicySpec, SimReport, Simulator};
use serde::{Deserialize, Serialize};
use traffic::TrafficSpec;

/// The full description of one simulation cell: everything a worker
/// thread needs to reproduce the run bit-for-bit, with no shared state.
///
/// A batch of `JobSpec`s is the unit the paper's grids decompose into —
/// one spec per sweep cell, comparison row or ablation point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Benchmark application (§3.1).
    pub benchmark: Benchmark,
    /// Traffic-model spec (§3.2): a paper level or any registered model.
    pub traffic: TrafficSpec,
    /// DVS policy and parameters.
    pub policy: PolicySpec,
    /// Base-clock cycles to simulate.
    pub cycles: u64,
    /// RNG seed — part of the spec so execution order can never leak
    /// into results.
    pub seed: u64,
}

impl JobSpec {
    /// A human-readable label naming this cell in progress output and
    /// error reports.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{}/{} {} cycles={} seed={}",
            self.benchmark,
            self.traffic.spec_string(),
            self.policy.spec_string(),
            self.cycles,
            self.seed
        )
    }

    /// Builds the simulator configuration for this spec.
    #[must_use]
    pub fn npu_config(&self) -> NpuConfig {
        NpuConfig::builder()
            .benchmark(self.benchmark)
            .seed(self.seed)
            .traffic(self.traffic.clone())
            .policy(self.policy.clone())
            .build()
    }

    /// Runs the bare simulation this spec describes and returns its
    /// end-of-run report — the `nepsim` entry point for callers that
    /// need no trace analysis. An empty [`AnalyzerBank`] keeps the
    /// simulator from buffering a trace.
    #[must_use]
    pub fn simulate(&self) -> SimReport {
        Simulator::new(self.npu_config())
            .with_analyzers(AnalyzerBank::new())
            .run_cycles(self.cycles)
    }

    /// This spec with its seed replaced — combine with [`derive_seed`]
    /// to fan one cell out into independent replications.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl fmt::Display for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Derives the seed of replication `index` from a batch seed.
///
/// The derivation is a pure function of `(batch_seed, index)` — a
/// SplitMix64 mix, the same generator family the workspace's `rand`
/// shim uses — so a job's random stream depends only on its position in
/// the batch, never on which worker ran it or when. That is what makes
/// parallel batches bit-identical to serial ones.
///
/// The implementation lives in [`desim::rng::derive_seed`] so the
/// traffic layer's schedule model can derive per-segment seeds from the
/// very same function; this re-wrap keeps the historical `xrun` entry
/// point (and its values) stable.
#[must_use]
pub fn derive_seed(batch_seed: u64, index: u64) -> u64 {
    desim::rng::derive_seed(batch_seed, index)
}

/// A named unit of work: what one worker thread executes.
///
/// The payload is any `Send` closure, so callers can run a bare
/// [`JobSpec::simulate`] or a full simulate-then-analyze pipeline; the
/// name labels progress output and [`JobError`]s. The lifetime allows
/// jobs to borrow from the caller's stack — the runner executes them on
/// scoped threads.
pub struct Job<'a, T> {
    name: String,
    work: Box<dyn FnOnce() -> T + Send + 'a>,
}

impl<'a, T> Job<'a, T> {
    /// Wraps a closure as a named job.
    pub fn new(name: impl Into<String>, work: impl FnOnce() -> T + Send + 'a) -> Self {
        Job {
            name: name.into(),
            work: Box::new(work),
        }
    }

    /// The job's display name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Consumes the job into its name and payload closure.
    pub(crate) fn into_parts(self) -> (String, Box<dyn FnOnce() -> T + Send + 'a>) {
        (self.name, self.work)
    }
}

impl<T> fmt::Debug for Job<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Job").field("name", &self.name).finish()
    }
}

/// Why a job failed: the payload of the panic that a worker caught.
///
/// The runner never lets one cell kill a batch; the panic is downcast
/// to its message (when it is a string, as `panic!`/`assert!` payloads
/// are) and reported alongside the job's name and batch index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobError {
    /// Name of the failed job.
    pub job: String,
    /// The job's index in submission order.
    pub index: usize,
    /// The panic message, or a placeholder for non-string payloads.
    pub message: String,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job #{} ({}) panicked: {}",
            self.index, self.job, self.message
        )
    }
}

impl std::error::Error for JobError {}

/// One completed job: its identity, outcome and wall time.
///
/// Batches come back from [`Runner::run`](crate::Runner::run) as
/// `Vec<JobResult<T>>` **in submission order** regardless of which
/// worker finished first.
#[derive(Debug, Clone)]
pub struct JobResult<T> {
    /// The job's display name.
    pub name: String,
    /// The job's index in submission order.
    pub index: usize,
    /// The job's return value, or the caught panic.
    pub outcome: Result<T, JobError>,
    /// Wall-clock time the job spent executing (excludes queue wait).
    pub elapsed: Duration,
}

impl<T> JobResult<T> {
    /// `true` when the job ran to completion.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            benchmark: Benchmark::Ipfwdr,
            traffic: traffic::TrafficLevel::High.into(),
            policy: PolicySpec::NoDvs,
            cycles: 150_000,
            seed: 7,
        }
    }

    #[test]
    fn label_names_every_axis() {
        let label = spec().label();
        assert!(label.contains("ipfwdr"), "{label}");
        assert!(label.contains("high"), "{label}");
        assert!(label.contains("nodvs"), "{label}");
        assert!(label.contains("cycles=150000"), "{label}");
        assert!(label.contains("seed=7"), "{label}");
        assert_eq!(label, spec().to_string());
    }

    #[test]
    fn simulate_is_deterministic() {
        let a = spec().simulate();
        let b = spec().simulate();
        assert_eq!(a.forwarded_packets, b.forwarded_packets);
        assert_eq!(a.total_energy_uj().to_bits(), b.total_energy_uj().to_bits());
    }

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        let s: Vec<u64> = (0..64).map(|k| derive_seed(42, k)).collect();
        // Pure function: same inputs, same outputs.
        assert_eq!(s, (0..64).map(|k| derive_seed(42, k)).collect::<Vec<_>>());
        // No collisions across a batch, and the batch seed matters.
        let mut unique = s.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), s.len());
        assert_ne!(derive_seed(42, 0), derive_seed(43, 0));
    }

    #[test]
    fn with_seed_replaces_only_the_seed() {
        let replicated = spec().with_seed(derive_seed(1, 3));
        assert_eq!(replicated.benchmark, spec().benchmark);
        assert_eq!(replicated.cycles, spec().cycles);
        assert_ne!(replicated.seed, spec().seed);
    }
}
