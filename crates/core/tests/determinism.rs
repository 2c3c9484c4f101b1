//! Regression guard for the runner's core contract: a grid run with
//! one worker and with N workers must produce identical tables,
//! documents and bit-identical metrics for a fixed seed. Parallelism
//! must never leak into results — for the paper's traffic levels and
//! for every spec-described traffic model alike.

use abdex::compare::ComparisonConfig;
use abdex::fleet::{chip_seed, run_fleet, FleetConfig};
use abdex::json::{fleet_json, grid_json, scenario_json};
use abdex::scenario::{try_run_scenario, Scenario, ScenarioRun};
use abdex::tables::{render_fleet, render_grid, render_scenario};
use abdex::{
    run_grid, ConfidenceLevel, Grid, GridRun, JobSpec, PolicySpec, Runner, TdvsGrid, TrafficSpec,
};
use nepsim::Benchmark;
use traffic::TrafficLevel;

const CYCLES: u64 = 300_000;
const SEED: u64 = 17;

fn grid() -> TdvsGrid {
    TdvsGrid {
        thresholds_mbps: vec![1000.0, 1400.0],
        windows_cycles: vec![20_000, 40_000],
    }
}

fn tdvs_grid() -> Grid {
    Grid::tdvs(
        Benchmark::Ipfwdr,
        &TrafficLevel::High.into(),
        &grid(),
        CYCLES,
        SEED,
    )
}

/// Runs a grid that must complete on `runner`.
fn complete(runner: &Runner, grid: &Grid, seeds: u64) -> GridRun {
    let run = run_grid(runner, grid, seeds);
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    run
}

fn tdvs_run(workers: usize) -> GridRun {
    complete(&Runner::new().with_workers(workers), &tdvs_grid(), 1)
}

/// Runs `grid` with `seeds` replicates per cell on one worker and on
/// each of `worker_counts`, and asserts the runs agree bit for bit —
/// single runs in every report field and paper metric, replicated folds
/// in every metric's mean, half-width at every level, spread and range —
/// down to the rendered table and JSON document.
fn assert_jobs_invariant(grid: &Grid, seeds: u64, worker_counts: &[usize]) {
    let case = format!("{:?} axis, {seeds} seed(s)", grid.axis());
    let serial = complete(&Runner::new().with_workers(1), grid, seeds);
    for &workers in worker_counts {
        let parallel = complete(&Runner::new().with_workers(workers), grid, seeds);
        let case = format!("{case}, {workers} workers");
        match (&serial.cells, &parallel.cells) {
            (abdex::Cells::Plain(s), abdex::Cells::Plain(p)) => {
                assert_eq!(s.len(), p.len(), "{case}");
                for (s, p) in s.iter().zip(p) {
                    assert_eq!(s.experiment, p.experiment, "{case}");
                    assert_eq!(s.sim, p.sim, "{case}: {} diverged", s.experiment.label());
                    for ((name, sv), (_, pv)) in
                        s.metrics().fields().iter().zip(p.metrics().fields())
                    {
                        assert_eq!(
                            sv.to_bits(),
                            pv.to_bits(),
                            "{case}: {name} diverged at {}",
                            s.experiment.label()
                        );
                    }
                }
            }
            (abdex::Cells::Replicated(s), abdex::Cells::Replicated(p)) => {
                assert_eq!(s.len(), p.len(), "{case}");
                for (s, p) in s.iter().zip(p) {
                    assert_eq!(s.experiment, p.experiment, "{case}");
                    assert_eq!(s.replicates(), seeds, "{case}");
                    for ((name, ss), (_, ps)) in s.metrics.fields().iter().zip(p.metrics.fields()) {
                        let at = s.experiment.label();
                        assert_eq!(
                            ss.mean().to_bits(),
                            ps.mean().to_bits(),
                            "{case}: {name} mean diverged at {at}"
                        );
                        for level in ConfidenceLevel::ALL {
                            assert_eq!(
                                ss.half_width(level).to_bits(),
                                ps.half_width(level).to_bits(),
                                "{case}: {name} {level} half-width diverged at {at}"
                            );
                        }
                        assert_eq!(ss.std_dev().to_bits(), ps.std_dev().to_bits(), "{case}");
                        assert_eq!(ss.min().to_bits(), ps.min().to_bits(), "{case}");
                        assert_eq!(ss.max().to_bits(), ps.max().to_bits(), "{case}");
                    }
                }
            }
            _ => panic!("{case}: the worker count changed the run's mode"),
        }
        // The rendered table and document — what the paper's figures
        // are built from — must be byte-for-byte identical too.
        assert_eq!(
            render_grid(&serial, ConfidenceLevel::P95),
            render_grid(&parallel, ConfidenceLevel::P95),
            "{case}"
        );
        assert_eq!(
            grid_json(&serial, ConfidenceLevel::P95),
            grid_json(&parallel, ConfidenceLevel::P95),
            "{case}"
        );
    }
}

fn comparison_config() -> ComparisonConfig {
    ComparisonConfig {
        cycles: CYCLES,
        seed: SEED,
        ..ComparisonConfig::default()
    }
}

#[test]
fn tdvs_sweep_is_bit_identical_across_worker_counts() {
    assert_jobs_invariant(&tdvs_grid(), 1, &[2, 4]);
}

#[test]
fn spec_sweep_is_bit_identical_across_worker_counts() {
    let policies: Vec<PolicySpec> = ["nodvs", "tdvs:threshold=1400", "queue", "proportional"]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
    // Run the policy sweep on a model that did not exist before the
    // traffic API opened: determinism must hold for spec-built
    // generators exactly as for the paper levels.
    let burst: TrafficSpec = "burst:on_mbps=1800,off_mbps=120,period_s=0.002"
        .parse()
        .unwrap();
    let grid = Grid::policies(Benchmark::Ipfwdr, &burst, &policies, CYCLES, SEED);
    assert_jobs_invariant(&grid, 1, &[4]);
    assert_jobs_invariant(&grid, 2, &[4]);
}

#[test]
fn comparison_is_bit_identical_across_worker_counts() {
    let grid = Grid::compare(
        &[Benchmark::Ipfwdr, Benchmark::Nat],
        &[TrafficLevel::Low.into()],
        &comparison_config(),
    );
    assert_jobs_invariant(&grid, 1, &[3]);
}

#[test]
fn traffic_sweep_is_bit_identical_across_worker_counts() {
    // One spec per generator family, including every model added by
    // the open traffic API.
    let traffics: Vec<TrafficSpec> = [
        "low",
        "mmpp:rate=900,burstiness=1.3",
        "burst:on_mbps=1800,off_mbps=120,period_s=0.002",
        "flash:base_mbps=300,peak_mbps=1500,at_ms=1,ramp_ms=0.5,hold_ms=1",
        "constant:rate=700",
    ]
    .iter()
    .map(|s| s.parse().unwrap())
    .collect();
    let tdvs_1200 = PolicySpec::parse("tdvs:threshold=1200").unwrap();
    let grid = Grid::traffics(Benchmark::Ipfwdr, &traffics, &tdvs_1200, CYCLES, SEED);
    assert_jobs_invariant(&grid, 1, &[4]);
    assert_jobs_invariant(&grid, 2, &[4]);
}

#[test]
fn replicated_tdvs_sweep_is_bit_identical_across_worker_counts() {
    // A k-seed replicated grid folds per-cell means and confidence
    // half-widths that are bit-identical for any worker count —
    // parallelism must not leak into the statistics any more than into
    // a single run.
    assert_jobs_invariant(&tdvs_grid(), 3, &[2, 5]);
}

#[test]
fn replicated_comparison_is_bit_identical_across_worker_counts() {
    let grid = Grid::compare(
        &[Benchmark::Ipfwdr],
        &[TrafficLevel::Low.into()],
        &comparison_config(),
    );
    assert_jobs_invariant(&grid, 2, &[4]);
}

#[test]
fn scenario_run_is_bit_identical_across_worker_counts() {
    // The PR-5 acceptance gate: a segment-aware scenario run — every
    // policy × replicate simulated once with per-segment snapshots —
    // folds per-segment and whole-run means/half-widths that are
    // bit-identical for any worker count, down to the rendered table
    // and the schema-4 JSON document `--json -` emits.
    let scenario = Scenario {
        name: "determinism".to_owned(),
        summary: "three-window schedule".to_owned(),
        benchmark: Benchmark::Ipfwdr,
        traffic: "schedule:segments=[low@0..150000; constant:rate=1500@150000..300000; \
                  low@300000..]"
            .parse()
            .unwrap(),
        policies: vec![
            PolicySpec::NoDvs,
            "tdvs:threshold=1200".parse().unwrap(),
            "edvs".parse().unwrap(),
        ],
        cycles: CYCLES + 150_000,
        seed: SEED,
        seeds: 3,
    };
    let run_with = |workers: usize| -> ScenarioRun {
        let (run, errors) = try_run_scenario(&Runner::new().with_workers(workers), &scenario);
        assert!(errors.is_empty(), "{errors:?}");
        run
    };
    let serial = run_with(1);
    for workers in [2, 4] {
        let parallel = run_with(workers);
        assert_eq!(serial.plan, parallel.plan);
        assert_eq!(serial.policies.len(), parallel.policies.len());
        for (s, p) in serial.policies.iter().zip(&parallel.policies) {
            assert_eq!(s.policy, p.policy);
            for ((name, ss), (_, ps)) in s.whole.fields().iter().zip(p.whole.fields()) {
                assert_eq!(
                    ss.mean().to_bits(),
                    ps.mean().to_bits(),
                    "whole-run {name} diverged with {workers} workers"
                );
                for level in ConfidenceLevel::ALL {
                    assert_eq!(
                        ss.half_width(level).to_bits(),
                        ps.half_width(level).to_bits(),
                        "whole-run {name} {level} half-width diverged with {workers} workers"
                    );
                }
            }
            for (sseg, pseg) in s.segments.iter().zip(&p.segments) {
                assert_eq!(sseg.segment, pseg.segment);
                for ((name, ss), (_, ps)) in sseg.metrics.fields().iter().zip(pseg.metrics.fields())
                {
                    assert_eq!(
                        ss.mean().to_bits(),
                        ps.mean().to_bits(),
                        "segment '{}' {name} diverged with {workers} workers",
                        sseg.segment.label
                    );
                    assert_eq!(
                        ss.half_width(ConfidenceLevel::P95).to_bits(),
                        ps.half_width(ConfidenceLevel::P95).to_bits(),
                        "segment '{}' {name} half-width diverged",
                        sseg.segment.label
                    );
                }
            }
        }
        // Table and JSON document byte-for-byte — what the CLI gate
        // (`--seeds K --ci 95 --json -` under --jobs 1 vs N) compares.
        assert_eq!(
            render_scenario(&serial, ConfidenceLevel::P95),
            render_scenario(&parallel, ConfidenceLevel::P95)
        );
        assert_eq!(
            scenario_json(&serial, ConfidenceLevel::P95, &[]),
            scenario_json(&parallel, ConfidenceLevel::P95, &[])
        );
    }
    // The middle window genuinely differs from the lulls (a 1500 Mbps
    // CBR storm vs the 450 Mbps MMPP lull), so per-segment breakdowns
    // carry real signal — guard against a plan that slices nothing.
    let nodvs = &serial.policies[0];
    assert!(
        nodvs.segments[1].metrics.offered_mbps.mean()
            > 1.2 * nodvs.segments[0].metrics.offered_mbps.mean(),
        "storm window should offer more than the lull ({} vs {})",
        nodvs.segments[1].metrics.offered_mbps.mean(),
        nodvs.segments[0].metrics.offered_mbps.mean(),
    );
}

#[test]
fn degenerate_fleet_is_identical_to_the_single_chip_path() {
    // The PR-6 identity gate: a one-chip fleet under round-robin
    // dispatch and no fleet policy is *literally* the single-chip
    // experiment — the 1/1 share takes the pass-through branch of the
    // traffic thinner, so the packet stream, and with it every metric,
    // is bit-identical to a bare `JobSpec` run at the derived chip
    // seed.
    let mut config = FleetConfig::new(1);
    config.cycles = CYCLES;
    config.seed = SEED;
    let outcome = run_fleet(&config, 1, &Runner::serial());
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    let fleet = &outcome.report.fleet;

    let solo = JobSpec {
        benchmark: config.benchmark,
        traffic: config.traffic.clone(),
        policy: config.policy.clone(),
        cycles: CYCLES,
        seed: chip_seed(SEED, 0),
    }
    .simulate();

    assert_eq!(outcome.report.shares, vec![1.0]);
    assert_eq!(
        fleet.forwarded_packets.mean(),
        solo.forwarded_packets as f64
    );
    assert_eq!(
        fleet.total_energy_uj.mean().to_bits(),
        solo.total_energy_uj().to_bits()
    );
    assert_eq!(
        fleet.throughput_mbps.mean().to_bits(),
        solo.throughput_mbps().to_bits()
    );
    assert_eq!(
        fleet.mean_power_w.mean().to_bits(),
        solo.mean_power_w().to_bits()
    );
    assert_eq!(
        fleet.offered_mbps.mean().to_bits(),
        solo.offered_mbps().to_bits()
    );
}

#[test]
fn fleet_run_is_bit_identical_across_worker_counts() {
    // The PR-6 acceptance gate: a replicated fleet run — skewed hash
    // dispatch, per-chip TDVS, cap-and-reallocate on top — folds
    // fleet-wide and per-chip means/half-widths that are bit-identical
    // for any worker count, down to the rendered table and the schema-5
    // JSON document `--json -` emits.
    let mut config = FleetConfig::new(5);
    config.cycles = CYCLES;
    config.seed = SEED;
    config.dispatch = "hash:flows=64".parse().unwrap();
    config.policy = "tdvs:threshold=1200".parse().unwrap();
    config.fleet_policy = "cap-realloc:budget=6,period=100000".parse().unwrap();
    let run = |workers: usize| {
        let outcome = run_fleet(&config, 3, &Runner::new().with_workers(workers));
        assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
        outcome
    };
    let serial = run(1);
    for workers in [2, 4] {
        let parallel = run(workers);
        assert_eq!(serial.report.shares, parallel.report.shares);
        for ((name, ss), (_, ps)) in serial
            .report
            .fleet
            .fields()
            .iter()
            .zip(parallel.report.fleet.fields())
        {
            assert_eq!(
                ss.mean().to_bits(),
                ps.mean().to_bits(),
                "fleet {name} mean diverged with {workers} workers"
            );
            for level in ConfidenceLevel::ALL {
                assert_eq!(
                    ss.half_width(level).to_bits(),
                    ps.half_width(level).to_bits(),
                    "fleet {name} {level} half-width diverged with {workers} workers"
                );
            }
        }
        for (chip, (sc, pc)) in serial
            .report
            .chips
            .iter()
            .zip(&parallel.report.chips)
            .enumerate()
        {
            assert_eq!(sc.share.to_bits(), pc.share.to_bits());
            for ((name, ss), (_, ps)) in sc.fields().iter().zip(pc.fields()) {
                assert_eq!(
                    ss.mean().to_bits(),
                    ps.mean().to_bits(),
                    "chip {chip} {name} diverged with {workers} workers"
                );
            }
        }
        assert_eq!(
            render_fleet(&serial.report, ConfidenceLevel::P95),
            render_fleet(&parallel.report, ConfidenceLevel::P95)
        );
        assert_eq!(
            fleet_json(&serial, ConfidenceLevel::P95),
            fleet_json(&parallel, ConfidenceLevel::P95)
        );
    }
    // The hash dispatcher's heavy-tailed flow weights genuinely skew
    // the shares, so the per-chip breakdown carries real signal.
    let shares = &serial.report.shares;
    let max = shares.iter().cloned().fold(0.0, f64::max);
    let min = shares.iter().cloned().fold(1.0, f64::min);
    assert!(max > 1.2 * min, "expected skewed shares, got {shares:?}");
}

#[test]
fn recording_is_pure_observation_at_the_experiment_level() {
    // The obs-layer contract from the experiment's point of view: a
    // recorder-attached run produces the exact same report and
    // distributions as the NullRecorder default, plus a non-empty
    // recording (nepsim guards the simulator-level identity).
    let experiment = abdex::Experiment {
        benchmark: Benchmark::Ipfwdr,
        traffic: TrafficLevel::High.into(),
        policy: "tdvs:threshold=1200".parse().unwrap(),
        cycles: CYCLES,
        seed: SEED,
    };
    let plain = experiment.run();
    let (recorded, recording) = experiment.run_recorded();
    assert_eq!(plain.sim, recorded.sim, "recording perturbed the report");
    assert_eq!(
        plain.p80_power_w().to_bits(),
        recorded.p80_power_w().to_bits()
    );
    assert_eq!(
        plain.p80_throughput_mbps().to_bits(),
        recorded.p80_throughput_mbps().to_bits()
    );
    assert!(!recording.is_empty());
    // Every stats window emits one sample per channel.
    assert_eq!(recording.len() % nepsim::Channel::ALL.len(), 0);
}

#[test]
fn recorded_jsonl_is_byte_identical_across_worker_counts() {
    // The --record acceptance gate at the library level: the JSONL
    // export of every recorded source — run, scenario, fleet — is a
    // pure function of the batch description, byte-identical for any
    // worker count.
    use abdex::record::{
        fleet_record_series, record_jsonl, scenario_record_series, try_replicated_run_recorded,
    };

    let experiment = abdex::Experiment {
        benchmark: Benchmark::Ipfwdr,
        traffic: TrafficLevel::High.into(),
        policy: PolicySpec::NoDvs,
        cycles: CYCLES,
        seed: SEED,
    };
    let run = |workers: usize| {
        let (replicated, series) =
            try_replicated_run_recorded(&Runner::new().with_workers(workers), &experiment, 3)
                .expect("no replicate failed");
        (replicated, record_jsonl("run", &series))
    };
    let (serial_fold, serial_doc) = run(1);
    let (parallel_fold, parallel_doc) = run(4);
    assert_eq!(serial_doc, parallel_doc, "run record diverged");
    assert_eq!(
        serial_fold.metrics.mean_power_w.mean().to_bits(),
        parallel_fold.metrics.mean_power_w.mean().to_bits()
    );
    // The recorded fold matches the unrecorded one bit-for-bit.
    let plain = abdex::run_replicated_experiments(&Runner::serial(), vec![experiment.clone()], 3)
        .pop()
        .expect("one cell")
        .expect("no replicate failed");
    assert_eq!(
        plain.metrics.total_energy_uj.mean().to_bits(),
        serial_fold.metrics.total_energy_uj.mean().to_bits()
    );

    let scenario = Scenario {
        name: "record-determinism".to_owned(),
        summary: "two-window schedule".to_owned(),
        benchmark: Benchmark::Ipfwdr,
        traffic: "schedule:segments=[low@0..150000; constant:rate=1500@150000..]"
            .parse()
            .unwrap(),
        policies: vec![PolicySpec::NoDvs, "tdvs:threshold=1200".parse().unwrap()],
        cycles: CYCLES,
        seed: SEED,
        seeds: 2,
    };
    let scenario_doc = |workers: usize| {
        let (_, errors, recordings) = abdex::scenario::try_run_scenario_recorded(
            &Runner::new().with_workers(workers),
            &scenario,
        );
        assert!(errors.is_empty(), "{errors:?}");
        record_jsonl("scenario", &scenario_record_series(&scenario, &recordings))
    };
    assert_eq!(scenario_doc(1), scenario_doc(4), "scenario record diverged");

    let mut config = FleetConfig::new(3);
    config.cycles = CYCLES;
    config.seed = SEED;
    config.dispatch = "hash:flows=64".parse().unwrap();
    let fleet_doc = |workers: usize| {
        let outcome = run_fleet(&config, 2, &Runner::new().with_workers(workers));
        assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
        record_jsonl("fleet", &fleet_record_series(&outcome))
    };
    assert_eq!(fleet_doc(1), fleet_doc(4), "fleet record diverged");
}

/// A throwaway cache rooted in the temp dir, cleaned before use.
fn scratch_cache(tag: &str) -> abdex::Cache {
    let dir = std::env::temp_dir().join(format!("abdex-determinism-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    abdex::Cache::open(dir).expect("cache dir")
}

#[test]
fn cached_tdvs_sweep_is_byte_identical_to_cold() {
    // The cache acceptance gate at the library level: an uncached
    // sweep, a cold cached sweep and a warm cached sweep render the
    // same table and the same JSON document byte-for-byte — and the
    // warm pass simulates nothing. One seed keeps whole results, so a
    // hit decodes in full; two seeds keep each replicate's metrics, so
    // a hit decodes only those.
    for seeds in [1, 2] {
        let uncached = complete(&Runner::new().with_workers(1), &tdvs_grid(), seeds);
        let runner = Runner::serial().with_cache(scratch_cache(&format!("tdvs-{seeds}")));
        let cold = complete(&runner, &tdvs_grid(), seeds);
        let warm = complete(&runner, &tdvs_grid(), seeds);
        let counters = runner.cache().unwrap().counters();
        let lookups = 4 * seeds;
        assert_eq!(counters.hits, lookups, "warm pass must hit every cell");
        assert_eq!(counters.misses, lookups, "cold pass must miss every cell");
        assert_eq!(counters.stores, lookups);
        let level = ConfidenceLevel::default();
        assert_eq!(render_grid(&uncached, level), render_grid(&cold, level));
        assert_eq!(render_grid(&cold, level), render_grid(&warm, level));
        assert_eq!(grid_json(&uncached, level), grid_json(&cold, level));
        assert_eq!(grid_json(&cold, level), grid_json(&warm, level));
        let _ = std::fs::remove_dir_all(runner.cache().unwrap().root());
    }
}

#[test]
fn cached_scenario_and_fleet_documents_are_byte_identical() {
    // Scenario axis: cached cold and warm runs render the same
    // `scenario` document as an uncached run.
    let scenario = Scenario {
        name: "cache-determinism".to_owned(),
        summary: "two-window schedule".to_owned(),
        benchmark: Benchmark::Ipfwdr,
        traffic: "schedule:segments=[low@0..150000; constant:rate=1500@150000..]"
            .parse()
            .unwrap(),
        policies: vec![PolicySpec::NoDvs, "tdvs:threshold=1200".parse().unwrap()],
        cycles: CYCLES,
        seed: SEED,
        seeds: 2,
    };
    let doc = |runner: &Runner| {
        let (run, errors) = try_run_scenario(runner, &scenario);
        assert!(errors.is_empty(), "{errors:?}");
        scenario_json(&run, ConfidenceLevel::default(), &errors)
    };
    let uncached = doc(&Runner::serial());
    let runner = Runner::serial().with_cache(scratch_cache("scenario"));
    assert_eq!(uncached, doc(&runner), "cold scenario doc diverged");
    assert_eq!(uncached, doc(&runner), "warm scenario doc diverged");
    let counters = runner.cache().unwrap().counters();
    assert_eq!((counters.misses, counters.hits), (4, 4));
    let _ = std::fs::remove_dir_all(runner.cache().unwrap().root());

    // Fleet axis: the `fleet` document *and* the `--record` JSONL are
    // byte-identical warm — the cache carries each chip's recording
    // alongside its report.
    use abdex::record::{fleet_record_series, record_jsonl};
    let mut config = FleetConfig::new(3);
    config.cycles = CYCLES;
    config.seed = SEED;
    config.dispatch = "hash:flows=64".parse().unwrap();
    let docs = |runner: &Runner| {
        let outcome = run_fleet(&config, 2, runner);
        assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
        (
            fleet_json(&outcome, ConfidenceLevel::default()),
            record_jsonl("fleet", &fleet_record_series(&outcome)),
        )
    };
    let uncached = docs(&Runner::serial());
    let runner = Runner::serial().with_cache(scratch_cache("fleet"));
    assert_eq!(uncached, docs(&runner), "cold fleet docs diverged");
    assert_eq!(uncached, docs(&runner), "warm fleet docs diverged");
    let counters = runner.cache().unwrap().counters();
    assert_eq!((counters.misses, counters.hits), (6, 6));
    let _ = std::fs::remove_dir_all(runner.cache().unwrap().root());
}

#[test]
fn profiling_is_pure_observation_and_summaries_are_jobs_invariant() {
    // Arm the global span profiler, run the sweep, disarm, drain: the
    // rendered table must be byte-identical to the unprofiled baseline.
    // Profiling is wall-clock observability — it must never leak into
    // results. (cli.rs pins the same invariant on full-process stdout
    // for run/sweep/fleet.)
    let level = ConfidenceLevel::default();
    let baseline = render_grid(&tdvs_run(1), level);
    abdex::obs::prof::set_enabled(true);
    let profiled = render_grid(&tdvs_run(2), level);
    abdex::obs::prof::set_enabled(false);
    let profile = abdex::obs::prof::drain();
    assert_eq!(baseline, profiled, "profiling changed the table");
    assert!(
        profile.spans.iter().any(|s| s.name == "simulate"),
        "armed sweep recorded no simulate spans"
    );
    assert!(profile.spans.iter().any(|s| s.name == "fold"));
    // The export is structurally a Chrome Trace Event document.
    let doc = profile.chrome_trace_json();
    assert!(doc.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(doc.contains("\"ph\":\"X\""));

    // The recording analyzer is a deterministic fold: the obs_summary
    // document is byte-identical for any worker count.
    use abdex::record::{record_jsonl, try_replicated_run_recorded};
    let experiment = abdex::Experiment {
        benchmark: Benchmark::Ipfwdr,
        traffic: TrafficLevel::High.into(),
        policy: PolicySpec::NoDvs,
        cycles: CYCLES,
        seed: SEED,
    };
    let (_, series) = try_replicated_run_recorded(&Runner::serial(), &experiment, 3).unwrap();
    let jsonl = record_jsonl("run", &series);
    let doc = |workers: usize| {
        let summary =
            abdex::summarize::summarize_record(&jsonl, &Runner::new().with_workers(workers))
                .expect("valid recording");
        abdex::summarize::render_summary_json(&summary)
    };
    let serial = doc(1);
    assert_eq!(serial, doc(4), "obs_summary diverged across workers");
    assert!(serial.contains("\"kind\":\"obs_summary\""));
}
