//! The segment-aware scenario runner: every policy × replicate becomes
//! one [`xrun`] job that simulates the scenario **once** and snapshots
//! the cumulative report at each planned segment boundary
//! ([`nepsim::Simulator::run_cycle_segments`]); the job diffs its
//! snapshots into whole-run and per-segment [`SegmentMetrics`] before
//! it returns, and those are folded — in replicate order — into
//! per-segment and whole-run interval estimates. The snapshots (and
//! their per-ME reports) never outlive their job, so a run's memory
//! does not grow with policies × seeds; the cache still stores and
//! reads the snapshots themselves.
//!
//! Determinism contract: jobs are submitted policy-major (policy 0's
//! replicates, then policy 1's, ...), replicate `i` of every policy
//! runs seed `derive_seed(scenario.seed, i)`, and folds walk the
//! results in submission order — so every mean and half-width is a pure
//! function of the scenario description, bit-identical for any
//! `--jobs` value (guarded in `crates/core/tests/determinism.rs`).
//!
//! Error semantics follow `core::replicate`: a panicking replicate
//! fails its *policy* (reported as the first failing replicate's
//! [`JobError`]) while the other policies complete.

use ccache::codec::{parse_snapshots, snapshots_payload};
use ccache::Cache;
use dvs::PolicySpec;
use nepsim::{AnalyzerBank, MemRecorder, Recording, SimReport, Simulator};
use xrun::{derive_seed, Job, JobError, JobSpec, Runner};

use crate::metrics::{SegmentDist, SegmentMetrics};
use crate::scenario::{PlannedSegment, Scenario};

/// One window of a completed scenario run: where it falls, what child
/// spec drove it, and the replicated fold of its slice metrics.
#[derive(Debug, Clone)]
pub struct SegmentOutcome {
    /// The planned window this outcome measures.
    pub segment: PlannedSegment,
    /// Per-field summaries over the replicates.
    pub metrics: SegmentDist,
}

/// One policy's completed scenario run: the whole-run fold plus one
/// outcome per planned segment.
#[derive(Debug, Clone)]
pub struct PolicyOutcome {
    /// The policy that ran.
    pub policy: PolicySpec,
    /// Whole-run metrics (the slice from cycle 0 to the horizon).
    pub whole: SegmentDist,
    /// Per-segment breakdowns, in plan order.
    pub segments: Vec<SegmentOutcome>,
}

/// A completed scenario run: the (possibly overridden) scenario, its
/// segment plan, and one outcome per policy that completed.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// The scenario exactly as executed (overrides applied).
    pub scenario: Scenario,
    /// The window plan every policy ran against.
    pub plan: Vec<PlannedSegment>,
    /// One completed outcome per policy, in scenario order (failed
    /// policies are absent — see the errors returned alongside).
    pub policies: Vec<PolicyOutcome>,
}

/// Runs a scenario on the given runner: `policies × seeds` jobs, each
/// simulating the full horizon once with per-segment snapshots.
///
/// Returns the run built from every policy whose replicates all
/// completed, plus one [`JobError`] per failed policy.
#[must_use]
pub fn try_run_scenario(runner: &Runner, scenario: &Scenario) -> (ScenarioRun, Vec<JobError>) {
    let (run, errors, _) = run_impl(runner, scenario, false);
    (run, errors)
}

/// [`try_run_scenario`] with a [`MemRecorder`] attached to every
/// replicate: additionally returns one [`Recording`] per job in
/// submission order (policy-major, replicate-minor —
/// `recordings[p * seeds + i]`), `None` for replicates that panicked.
///
/// Recording is pure observation: the returned [`ScenarioRun`] is
/// bit-identical to [`try_run_scenario`]'s.
#[must_use]
pub fn try_run_scenario_recorded(
    runner: &Runner,
    scenario: &Scenario,
) -> (ScenarioRun, Vec<JobError>, Vec<Option<Recording>>) {
    run_impl(runner, scenario, true)
}

/// The cache spec of one scenario replicate: the cell's canonical
/// `JobSpec` rendering plus the segment boundaries the snapshots are
/// taken at — the same spec cut at different boundaries is a different
/// cell.
fn cell_key(spec: &JobSpec, bounds: &[u64]) -> String {
    let joined: Vec<String> = bounds.iter().map(u64::to_string).collect();
    format!("scenario|{}|bounds=[{}]", spec.label(), joined.join(","))
}

/// What one replicate contributes to its policy's folds: the
/// whole-run slice and one slice per planned segment, measured on the
/// worker so the snapshots they come from are dropped with the job.
struct Slices {
    whole: SegmentMetrics,
    segments: Vec<SegmentMetrics>,
}

impl Slices {
    /// Diffs one run's cumulative snapshots, one per planned segment.
    fn of(snapshots: &[SimReport]) -> Self {
        let mut prev: Option<&SimReport> = None;
        let segments = snapshots
            .iter()
            .map(|snap| {
                let slice = SegmentMetrics::slice(prev, snap);
                prev = Some(snap);
                slice
            })
            .collect();
        Slices {
            whole: SegmentMetrics::slice(None, snapshots.last().expect("plans are non-empty")),
            segments,
        }
    }
}

/// One replicate's cumulative snapshots at `bounds` — from the cache
/// when it holds them, simulated (and published) otherwise — plus
/// whatever its recorder captured (empty unless `record`).
fn replicate_snapshots(
    cache: Option<&Cache>,
    record: bool,
    spec: &JobSpec,
    bounds: &[u64],
) -> (Vec<SimReport>, Recording) {
    // Segment metrics read no LOC trace, so an empty bank keeps the
    // simulator from buffering one.
    let simulator = || Simulator::new(spec.npu_config()).with_analyzers(AnalyzerBank::new());
    if let Some(cache) = cache {
        let key = cell_key(spec, bounds);
        // One profiler span per probe, renamed to its hit/miss outcome,
        // with running counters (mirrors `core::cachefmt::run_cached`).
        let cached = {
            let mut prof = obs::prof::span("cache.lookup");
            let found = cache.lookup(&key).and_then(|payload| {
                let parsed = parse_snapshots(&payload);
                if parsed.is_none() {
                    cache.demote_hit();
                }
                parsed
            });
            if found.is_some() {
                prof.set_name("cache.lookup.hit");
                obs::prof::count("cache.hits", 1.0);
            } else {
                prof.set_name("cache.lookup.miss");
                obs::prof::count("cache.misses", 1.0);
            }
            found
        };
        if let Some(snapshots) = cached {
            return (snapshots, Recording::default());
        }
        let mut sim = simulator();
        let snapshots = sim.run_cycle_segments(bounds);
        cache.publish(&key, &snapshots_payload(&snapshots));
        return (snapshots, sim.take_recording());
    }
    let mut sim = simulator();
    if record {
        sim = sim.with_recorder(Box::new(MemRecorder::new()));
    }
    let snapshots = sim.run_cycle_segments(bounds);
    (snapshots, sim.take_recording())
}

fn run_impl(
    runner: &Runner,
    scenario: &Scenario,
    record: bool,
) -> (ScenarioRun, Vec<JobError>, Vec<Option<Recording>>) {
    let plan = scenario.plan();
    let boundaries: Vec<u64> = plan.iter().map(|p| p.end_cycles).collect();
    let seeds = scenario.seeds;
    // Recorded runs bypass the cache: their value *is* the per-window
    // timeline, which only simulation produces.
    let cache = if record { None } else { runner.cache() };
    let boundaries = &boundaries;
    let mut jobs: Vec<Job<'_, (Slices, Recording)>> = Vec::new();
    for policy in &scenario.policies {
        for replicate in 0..seeds {
            let spec = JobSpec {
                benchmark: scenario.benchmark,
                traffic: scenario.traffic.clone(),
                policy: policy.clone(),
                cycles: scenario.cycles,
                seed: derive_seed(scenario.seed, replicate),
            };
            let label = format!("{}/{}", scenario.name, spec.label());
            jobs.push(Job::new(label, move || {
                let (snapshots, recording) = replicate_snapshots(cache, record, &spec, boundaries);
                debug_assert_eq!(snapshots.len(), boundaries.len());
                (Slices::of(&snapshots), recording)
            }));
        }
    }
    let mut outcomes = runner.run(jobs).into_iter().map(|r| r.outcome);

    // The per-segment fold is a distinct profiler phase: it walks every
    // replicate's slices and is pure host-side work.
    let _prof = obs::prof::span("fold");
    let mut policies = Vec::with_capacity(scenario.policies.len());
    let mut errors = Vec::new();
    let mut recordings = Vec::new();
    for policy in &scenario.policies {
        // Consume exactly this policy's replicates, folding in
        // replicate order; the first failing replicate fails the policy
        // (the rest of its chunk is still consumed for alignment).
        let mut whole = SegmentDist::default();
        let mut segments: Vec<SegmentDist> = vec![SegmentDist::default(); plan.len()];
        let mut failure: Option<JobError> = None;
        for outcome in outcomes.by_ref().take(seeds as usize) {
            match outcome {
                Ok((slices, recording)) => {
                    recordings.push(Some(recording));
                    whole.push(&slices.whole);
                    for (dist, slice) in segments.iter_mut().zip(&slices.segments) {
                        dist.push(slice);
                    }
                }
                Err(e) => {
                    recordings.push(None);
                    failure = failure.or(Some(e));
                }
            }
        }
        match failure {
            Some(e) => errors.push(e),
            None => policies.push(PolicyOutcome {
                policy: policy.clone(),
                whole,
                segments: plan
                    .iter()
                    .zip(segments)
                    .map(|(segment, metrics)| SegmentOutcome {
                        segment: segment.clone(),
                        metrics,
                    })
                    .collect(),
            }),
        }
    }
    (
        ScenarioRun {
            scenario: scenario.clone(),
            plan,
            policies,
        },
        errors,
        recordings,
    )
}

/// Infallible form of [`try_run_scenario`] on a default runner.
///
/// # Panics
///
/// Panics when any policy's replicates fail.
#[must_use]
pub fn run_scenario(scenario: &Scenario) -> ScenarioRun {
    let (run, errors) = try_run_scenario(&Runner::new(), scenario);
    assert!(
        errors.is_empty(),
        "{} policy cell(s) failed:\n  {}",
        errors.len(),
        errors
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n  ")
    );
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::builtin;

    fn tiny_scenario() -> Scenario {
        Scenario {
            name: "tiny".to_owned(),
            summary: "test scenario".to_owned(),
            benchmark: nepsim::Benchmark::Ipfwdr,
            traffic: "schedule:segments=[low@0..150000; \
                      constant:rate=1200@150000..300000; low@300000..]"
                .parse()
                .unwrap(),
            policies: vec![
                "nodvs".parse().unwrap(),
                "tdvs:threshold=1200".parse().unwrap(),
            ],
            cycles: 450_000,
            seed: 7,
            seeds: 2,
        }
    }

    #[test]
    fn runner_reports_per_segment_and_whole_run_folds() {
        let (run, errors) = try_run_scenario(&Runner::new(), &tiny_scenario());
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(run.plan.len(), 3);
        assert_eq!(run.policies.len(), 2);
        for outcome in &run.policies {
            assert_eq!(outcome.whole.replicates(), 2);
            assert_eq!(outcome.segments.len(), 3);
            for seg in &outcome.segments {
                assert_eq!(seg.metrics.replicates(), 2);
            }
            // The middle window offers ~1200 Mbps vs ~450 for the lulls:
            // per-segment offered rates must actually differ.
            let lull = outcome.segments[0].metrics.offered_mbps.mean();
            let storm = outcome.segments[1].metrics.offered_mbps.mean();
            assert!(
                storm > 1.5 * lull,
                "storm {storm:.0} Mbps vs lull {lull:.0} Mbps"
            );
            // Whole-run energy is the sum of the segment energies.
            let sum: f64 = outcome
                .segments
                .iter()
                .map(|s| s.metrics.total_energy_uj.mean())
                .sum();
            let whole = outcome.whole.total_energy_uj.mean();
            assert!((sum - whole).abs() < 1e-6, "{sum} vs {whole}");
        }
        // TDVS saves energy vs noDVS on this lull-heavy schedule.
        let nodvs = run.policies[0].whole.total_energy_uj.mean();
        let tdvs = run.policies[1].whole.total_energy_uj.mean();
        assert!(tdvs < nodvs, "TDVS {tdvs:.0} µJ vs noDVS {nodvs:.0} µJ");
    }

    #[test]
    fn runner_is_bit_identical_across_worker_counts() {
        let run_with = |workers: usize| {
            let (run, errors) =
                try_run_scenario(&Runner::new().with_workers(workers), &tiny_scenario());
            assert!(errors.is_empty());
            run
        };
        let serial = run_with(1);
        let parallel = run_with(4);
        for (s, p) in serial.policies.iter().zip(&parallel.policies) {
            assert_eq!(s.policy, p.policy);
            for ((name, ss), (_, ps)) in s.whole.fields().iter().zip(p.whole.fields()) {
                assert_eq!(ss.mean().to_bits(), ps.mean().to_bits(), "whole {name}");
                assert_eq!(
                    ss.half_width(stats::ConfidenceLevel::P95).to_bits(),
                    ps.half_width(stats::ConfidenceLevel::P95).to_bits(),
                    "whole {name} half-width"
                );
            }
            for (sseg, pseg) in s.segments.iter().zip(&p.segments) {
                for ((name, ss), (_, ps)) in sseg.metrics.fields().iter().zip(pseg.metrics.fields())
                {
                    assert_eq!(
                        ss.mean().to_bits(),
                        ps.mean().to_bits(),
                        "{} {name}",
                        sseg.segment.label
                    );
                }
            }
        }
    }

    #[test]
    fn recording_is_pure_observation() {
        let scenario = tiny_scenario();
        let (bare, errors) = try_run_scenario(&Runner::serial(), &scenario);
        assert!(errors.is_empty());
        let (recorded, errors, recordings) =
            try_run_scenario_recorded(&Runner::serial(), &scenario);
        assert!(errors.is_empty());

        // The attached recorder must not perturb a single bit of the
        // folds.
        for (b, r) in bare.policies.iter().zip(&recorded.policies) {
            for ((name, bs), (_, rs)) in b.whole.fields().iter().zip(r.whole.fields()) {
                assert_eq!(bs.mean().to_bits(), rs.mean().to_bits(), "{name}");
            }
        }

        // One recording per policy × replicate, submission order, all
        // populated: every channel at every window of the horizon.
        assert_eq!(recordings.len(), 4);
        for recording in &recordings {
            let recording = recording.as_ref().expect("no replicate panicked");
            assert!(!recording.is_empty());
            assert_eq!(recording.len() % nepsim::Channel::ALL.len(), 0);
        }

        // And the recordings themselves are worker-count invariant.
        let (_, _, parallel) = try_run_scenario_recorded(&Runner::new().with_workers(4), &scenario);
        assert_eq!(recordings, parallel);
    }

    #[test]
    fn cached_scenario_run_is_bit_identical_and_second_pass_hits() {
        let dir = std::env::temp_dir().join(format!("abdex-scenario-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scenario = tiny_scenario();
        let (reference, errors) = try_run_scenario(&Runner::serial(), &scenario);
        assert!(errors.is_empty());

        let cached = Runner::serial().with_cache(ccache::Cache::open(&dir).unwrap());
        let (cold, _) = try_run_scenario(&cached, &scenario);
        let (warm, _) = try_run_scenario(&cached, &scenario);
        let counters = cached.cache().unwrap().counters();
        // 2 policies × 2 replicates: all cold-missed, then all warm-hit.
        assert_eq!((counters.misses, counters.hits, counters.stores), (4, 4, 4));

        for ((a, b), c) in reference
            .policies
            .iter()
            .zip(&cold.policies)
            .zip(&warm.policies)
        {
            for (((name, r), (_, x)), (_, y)) in a
                .whole
                .fields()
                .iter()
                .zip(b.whole.fields())
                .zip(c.whole.fields())
            {
                assert_eq!(r.mean().to_bits(), x.mean().to_bits(), "cold {name}");
                assert_eq!(x.mean().to_bits(), y.mean().to_bits(), "warm {name}");
            }
            for (bseg, cseg) in b.segments.iter().zip(&c.segments) {
                for ((name, x), (_, y)) in bseg.metrics.fields().iter().zip(cseg.metrics.fields()) {
                    assert_eq!(
                        x.mean().to_bits(),
                        y.mean().to_bits(),
                        "{} {name}",
                        bseg.segment.label
                    );
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_policy_fails_only_itself() {
        let mut scenario = tiny_scenario();
        scenario.traffic = "trace:path=/no/such/scenario-trace.txt".parse().unwrap();
        // Both policies fail (the traffic is broken for every cell)...
        let (run, errors) = try_run_scenario(&Runner::serial(), &scenario);
        assert_eq!(run.policies.len(), 0);
        assert_eq!(errors.len(), 2);
        assert!(errors[0].message.contains("cannot build"), "{}", errors[0]);
    }

    #[test]
    fn builtin_smoke_runs_at_a_reduced_horizon() {
        let mut scenario = builtin("diurnal-day").unwrap();
        scenario.cycles = 200_000;
        scenario.seeds = 1;
        let run = run_scenario(&scenario);
        // 200k cycles sit inside the first 2e6-cycle phase: one window.
        assert_eq!(run.plan.len(), 1);
        assert_eq!(run.policies.len(), 3);
        for outcome in &run.policies {
            assert!(outcome.whole.forwarded_packets.mean() > 0.0);
        }
    }
}
