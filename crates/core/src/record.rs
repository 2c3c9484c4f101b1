//! `--record` timeseries export: recorded runs, JSONL rendering and
//! the `--obs-stats` kernel-counter report.
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
//! {"schema_version":9,"cache_epoch":3,"kind":"record","source":"run","series":["rep0"],"channels":["power_w",...]}
//! {"series":0,"channel":"power_w","cycle":40000,"value":2.0625}
//! ...
//! ```
//!
//! `series` indexes the header's label list; `cycle` is the
//! base-clock cycle of the window boundary the sample describes.

use std::time::Duration;

use obs::{KernelCounters, Recording};
use stats::Replication;
use xrun::{Job, JobError, Runner};

use crate::experiment::{Experiment, ExperimentResult};
use crate::json::{array, escape, header, Obj};
use crate::replicate::ReplicatedResult;

/// One recorded simulation: a label naming the job within its batch,
/// the run's event-kernel tallies, and every sample its recorder
/// captured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordedSeries {
    /// Stable label within the batch (`rep0`, `tdvs/rep1`,
    /// `rep0/chip3`, ...).
    pub label: String,
    /// Event-kernel tallies of the run. Zero for sources that do not
    /// surface per-run reports (scenario and fleet series).
    pub kernel: KernelCounters,
    /// The run's samples in emission order. Empty when the job failed
    /// (the batch's errors report why).
    pub recording: Recording,
}

/// Replicates one experiment `seeds` times with a recorder attached:
/// the recorded counterpart of
/// [`crate::replicate::run_replicated_experiments`] on one cell — the
/// folded metrics are bit-identical to it, and the series come back in
/// replicate order regardless of worker count.
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
    let jobs: Vec<Job<'_, (ExperimentResult, Recording)>> = replication
        .specs()
        .into_iter()
        .map(Experiment::from)
        .map(|e| Job::new(e.label(), move || e.run_recorded()))
        .collect();
    let mut metrics = Vec::with_capacity(seeds as usize);
    let mut series = Vec::with_capacity(seeds as usize);
    let mut failure: Option<JobError> = None;
    for (i, result) in runner.run(jobs).into_iter().enumerate() {
        match result.outcome {
            Ok((result, recording)) => {
                metrics.push(result.metrics());
                series.push(RecordedSeries {
                    label: format!("rep{i}"),
                    kernel: result.sim.kernel,
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
                kernel: KernelCounters::default(),
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
            kernel: KernelCounters::default(),
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
        .map(|s| format!("\"{}\"", escape(&s.label)))
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

/// Renders the `--obs-stats` block: the batch's summed event-kernel
/// tallies and the simulated-cycles-per-wall-second throughput of the
/// whole batch. Wall time is measured by the caller — it must never
/// enter a report compared across runs, only this human-facing block.
#[must_use]
pub fn render_obs_stats(series: &[RecordedSeries], cycles: u64, wall: Duration) -> String {
    let mut total = KernelCounters::default();
    for s in series {
        total.events_scheduled += s.kernel.events_scheduled;
        total.events_processed += s.kernel.events_processed;
        total.peak_heap_len = total.peak_heap_len.max(s.kernel.peak_heap_len);
    }
    let simulated = cycles.saturating_mul(series.len() as u64);
    let secs = wall.as_secs_f64();
    let rate = if secs > 0.0 {
        simulated as f64 / secs
    } else {
        f64::INFINITY
    };
    format!(
        "kernel stats ({} run(s) of {} cycles):\n\
         \x20 events scheduled : {}\n\
         \x20 events processed : {}\n\
         \x20 heap ops         : {}\n\
         \x20 peak heap len    : {}\n\
         \x20 wall time        : {:.3} s\n\
         \x20 sim cycles/s     : {:.3e}",
        series.len(),
        cycles,
        total.events_scheduled,
        total.events_processed,
        total.heap_ops(),
        total.peak_heap_len,
        secs,
        rate,
    )
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
        assert!(series[0].kernel.events_processed > 0);
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

    #[test]
    fn obs_stats_block_reports_totals() {
        let series = vec![
            RecordedSeries {
                label: "rep0".into(),
                kernel: KernelCounters {
                    events_scheduled: 10,
                    events_processed: 9,
                    peak_heap_len: 4,
                },
                recording: Recording::default(),
            },
            RecordedSeries {
                label: "rep1".into(),
                kernel: KernelCounters {
                    events_scheduled: 6,
                    events_processed: 6,
                    peak_heap_len: 7,
                },
                recording: Recording::default(),
            },
        ];
        let text = render_obs_stats(&series, 1000, Duration::from_millis(500));
        assert!(text.contains("2 run(s) of 1000 cycles"));
        assert!(text.contains("events scheduled : 16"));
        assert!(text.contains("heap ops         : 31"));
        assert!(text.contains("peak heap len    : 7"));
        assert!(text.contains("sim cycles/s     : 4.000e3"));
    }
}
