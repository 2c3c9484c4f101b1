//! `--record` timeseries export: recorded runs and their JSONL
//! rendering.
//!
//! A recorded run attaches a [`nepsim::MemRecorder`] to every
//! simulation of a batch and hands back one [`RecordedSeries`] per job
//! **in submission order**. Recording is pure observation — the
//! metrics and tables of a recorded batch are bit-identical to the
//! plain batch (`crates/core/tests/determinism.rs` guards this), and
//! because folds walk submission order the exported JSONL document is
//! byte-identical for any `--jobs` value.
//!
//! The export format is JSON Lines sharing [`crate::json`]'s
//! `schema_version`: a `meta` header object, then one object per
//! recorded sample:
//!
//! ```text
//! {"schema_version":9,"cache_epoch":1,"kind":"record","source":"run","series":["rep0"],"channels":["power_w",...]}
//! {"series":0,"channel":"power_w","cycle":39999,"value":1.235756895429569}
//! ...
//! ```
//!
//! `series` indexes the header's label list; `cycle` is the
//! base-clock cycle of the window boundary the sample describes.

use obs::prof::escape_json;
use obs::Recording;
use stats::{Replication, RunMetrics};
use xrun::{Job, JobError, Runner};

use crate::experiment::Experiment;
use crate::json::{array, header, Obj};
use crate::replicate::ReplicatedResult;

/// One recorded simulation: a label naming the job within its batch
/// and every sample its recorder captured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordedSeries {
    /// Stable label within the batch (`rep0`, `tdvs/rep1`,
    /// `rep0/chip3`, ...).
    pub label: String,
    /// The run's samples in emission order. Empty when the job failed
    /// (the batch's errors report why).
    pub recording: Recording,
}

/// Replicates one experiment `seeds` times with a recorder attached:
/// the recorded counterpart of
/// [`crate::replicate::run_replicated_experiments`] on one cell — the
/// folded metrics are bit-identical to it, and the series come back in
/// replicate order regardless of worker count. Like it, each job
/// reduces its result to [`crate::ExperimentResult::metrics`] before
/// returning; only the recording is kept whole.
///
/// # Errors
///
/// Returns the first failing replicate's [`JobError`] when any
/// replicate panics.
///
/// # Panics
///
/// Panics when `seeds` is 0 (see [`stats::Replication::new`]).
pub fn try_replicated_run_recorded(
    runner: &Runner,
    experiment: &Experiment,
    seeds: u64,
) -> Result<(ReplicatedResult, Vec<RecordedSeries>), JobError> {
    let replication = Replication::new(experiment.job_spec(), seeds);
    let jobs: Vec<Job<'_, (RunMetrics, Recording)>> = replication
        .specs()
        .into_iter()
        .map(Experiment::from)
        .map(|e| {
            Job::new(e.label(), move || {
                let (result, recording) = e.run_recorded();
                (result.metrics(), recording)
            })
        })
        .collect();
    let mut metrics = Vec::with_capacity(seeds as usize);
    let mut series = Vec::with_capacity(seeds as usize);
    let mut failure: Option<JobError> = None;
    for (i, result) in runner.run(jobs).into_iter().enumerate() {
        match result.outcome {
            Ok((run, recording)) => {
                metrics.push(run);
                series.push(RecordedSeries {
                    label: format!("rep{i}"),
                    recording,
                });
            }
            Err(e) => failure = failure.or(Some(e)),
        }
    }
    match failure {
        Some(e) => Err(e),
        None => Ok((
            ReplicatedResult {
                experiment: experiment.clone(),
                metrics: replication.fold(&metrics),
            },
            series,
        )),
    }
}

/// Pairs a scenario's recordings (policy-major, replicate-minor — the
/// layout [`scenario::try_run_scenario_recorded`] returns) with
/// `policy/repN` labels. A failed cell (`None`) keeps its slot as an
/// empty series so indices stay aligned with the scenario grid.
#[must_use]
pub fn scenario_record_series(
    scenario: &scenario::Scenario,
    recordings: &[Option<Recording>],
) -> Vec<RecordedSeries> {
    recordings
        .iter()
        .enumerate()
        .map(|(i, recording)| {
            let (policy, rep) = (i / scenario.seeds as usize, i % scenario.seeds as usize);
            RecordedSeries {
                label: format!("{}/rep{rep}", scenario.policies[policy].spec_string()),
                recording: recording.clone().unwrap_or_default(),
            }
        })
        .collect()
}

/// Pairs a fleet's recordings (replicate-major, chip-minor — the
/// layout [`fleet::FleetOutcome`] carries) with `repR/chipC` labels. A
/// failed chip (`None`) keeps its slot as an empty series.
#[must_use]
pub fn fleet_record_series(outcome: &fleet::FleetOutcome) -> Vec<RecordedSeries> {
    let chips = outcome.report.shares.len();
    outcome
        .recordings
        .iter()
        .enumerate()
        .map(|(i, recording)| RecordedSeries {
            label: format!("rep{}/chip{}", i / chips, i % chips),
            recording: recording.clone().unwrap_or_default(),
        })
        .collect()
}

/// Renders a recorded batch as the `--record` JSONL document: the
/// header object, then every series' samples in emission order. Pure
/// function of the series list, so the document is byte-identical for
/// any worker count.
#[must_use]
pub fn record_jsonl(source: &str, series: &[RecordedSeries]) -> String {
    let labels: Vec<String> = series
        .iter()
        .map(|s| format!("\"{}\"", escape_json(&s.label)))
        .collect();
    let channels: Vec<String> = obs::Channel::ALL
        .iter()
        .map(|c| format!("\"{}\"", c.name()))
        .collect();
    let mut out = header("record")
        .str("source", source)
        .raw("series", &array(&labels))
        .raw("channels", &array(&channels))
        .finish();
    out.push('\n');
    for (index, s) in series.iter().enumerate() {
        for sample in s.recording.samples() {
            out.push_str(
                &Obj::new()
                    .int("series", index as u64)
                    .str("channel", sample.channel.name())
                    .int("cycle", sample.cycle)
                    .num("value", sample.value)
                    .finish(),
            );
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::SCHEMA_VERSION;
    use nepsim::{Benchmark, PolicySpec};

    fn quick() -> Experiment {
        Experiment {
            benchmark: Benchmark::Ipfwdr,
            traffic: traffic::TrafficLevel::High.into(),
            policy: PolicySpec::NoDvs,
            cycles: 300_000,
            seed: 7,
        }
    }

    #[test]
    fn recorded_run_matches_plain_replication() {
        let runner = Runner::serial();
        let plain = crate::run_replicated_experiments(&runner, vec![quick()], 2)
            .pop()
            .expect("one cell")
            .unwrap();
        let (recorded, series) = try_replicated_run_recorded(&runner, &quick(), 2).unwrap();
        assert_eq!(
            plain.metrics.mean_power_w.mean().to_bits(),
            recorded.metrics.mean_power_w.mean().to_bits()
        );
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].label, "rep0");
        assert!(!series[0].recording.is_empty());
    }

    #[test]
    fn jsonl_has_header_then_one_line_per_sample() {
        let (_, series) = try_replicated_run_recorded(&Runner::serial(), &quick(), 1).unwrap();
        let doc = record_jsonl("run", &series);
        let lines: Vec<&str> = doc.lines().collect();
        assert_eq!(lines.len(), 1 + series[0].recording.len());
        assert!(lines[0].starts_with(&format!("{{\"schema_version\":{SCHEMA_VERSION}")));
        assert!(lines[0].contains("\"kind\":\"record\""));
        assert!(lines[0].contains("\"source\":\"run\""));
        assert!(lines[0].contains("\"series\":[\"rep0\"]"));
        assert!(lines[0].contains("\"power_w\""));
        assert!(lines[1].starts_with("{\"series\":0,\"channel\":\""));
        assert!(lines.iter().all(|l| l.ends_with('}')));
    }

    #[test]
    fn fleet_series_label_replicates_and_chips() {
        let mut config = fleet::FleetConfig::new(2);
        config.cycles = 150_000;
        let outcome = fleet::run_fleet(&config, 2, &Runner::serial());
        let series = fleet_record_series(&outcome);
        assert_eq!(series.len(), 4);
        assert_eq!(series[0].label, "rep0/chip0");
        assert_eq!(series[3].label, "rep1/chip1");
        assert!(series.iter().all(|s| !s.recording.is_empty()));
    }

    #[test]
    fn scenario_series_label_policies_and_reps() {
        let mut scenario = scenario::builtin("diurnal-day").unwrap();
        scenario.cycles = 120_000;
        scenario.seeds = 2;
        scenario.policies.truncate(2);
        let (_, errors, recordings) =
            scenario::try_run_scenario_recorded(&Runner::serial(), &scenario);
        assert!(errors.is_empty());
        let series = scenario_record_series(&scenario, &recordings);
        assert_eq!(series.len(), 4);
        assert!(series[0].label.ends_with("/rep0"));
        assert!(series[1].label.ends_with("/rep1"));
        assert_ne!(
            series[0].label.split('/').next(),
            series[2].label.split('/').next()
        );
    }
}
