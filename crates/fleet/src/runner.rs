//! The fleet runner: N chips executed as one deterministic job batch.
//!
//! Each (replicate, chip) pair becomes one job on the shared
//! [`xrun::Runner`] pool, submitted replicate-major / chip-minor. The
//! pool returns results in submission order regardless of worker
//! count, and every fold below walks that order — which is what makes
//! `--jobs 1` and `--jobs 4` byte-identical.
//!
//! Seeding is two-level: replicate `r` of fleet seed `S` runs from
//! `derive_seed(S, r)` (the same convention `stats::Replication` uses;
//! a single-replicate run uses `S` itself), and chip `c` of a replicate
//! with seed `R` runs from `derive_seed(R, c)`. Distinct family seeds
//! give disjoint derived families, so chip streams never collide with
//! replicate streams — the seed-quality suites pin this.

use ccache::codec::{parse_recorded, recorded_payload};
use desim::rng::derive_seed;
use nepsim::{NpuConfig, SimReport, Simulator};
use obs::{MemRecorder, Recording};
use traffic::{Thinned, TrafficModel};
use xrun::{Job, JobError, JobSpec, Runner};

use crate::policy::{cap_level, CapPlan, FleetTelemetry};
use crate::{CappedPolicy, ChipDist, FleetConfig, FleetDist, FleetSample};

/// The aggregated outcome of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The configuration that produced this report.
    pub config: FleetConfig,
    /// Replicates requested (a failed chip drops its whole replicate
    /// from the folds; `fleet.replicates()` reports how many survived).
    pub seeds: usize,
    /// The dispatcher's per-chip load shares (from the fleet seed).
    pub shares: Vec<f64>,
    /// Fleet-wide metric distributions over replicates.
    pub fleet: FleetDist,
    /// Per-chip metric distributions over replicates.
    pub chips: Vec<ChipDist>,
}

/// A [`FleetReport`] plus any per-job failures and the raw per-chip
/// observability data the folds were built from.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The aggregated report.
    pub report: FleetReport,
    /// Errors from chips whose simulation panicked.
    pub errors: Vec<JobError>,
    /// One recording per `(replicate, chip)` job, in submission order
    /// (replicate-major, chip-minor — `recordings[r * chips + c]`);
    /// `None` for a chip whose job panicked. Every chip run carries a
    /// recorder, so epoch timelines are always available for export
    /// and assertions.
    pub recordings: Vec<Option<Recording>>,
    /// The cap plan each replicate ran under (`None` for uncapped
    /// replicates), aligned with [`replicate_seeds`].
    pub plans: Vec<Option<CapPlan>>,
}

/// The replicate seed family for fleet seed `seed`: `seed` itself for
/// a single run, `derive_seed(seed, r)` per replicate otherwise —
/// matching the `stats::Replication` convention.
#[must_use]
pub fn replicate_seeds(seed: u64, replicates: usize) -> Vec<u64> {
    if replicates <= 1 {
        vec![seed]
    } else {
        (0..replicates as u64)
            .map(|r| derive_seed(seed, r))
            .collect()
    }
}

/// The seed chip `chip` runs from within a replicate.
#[must_use]
pub fn chip_seed(replicate_seed: u64, chip: u64) -> u64 {
    derive_seed(replicate_seed, chip)
}

/// Runs a fleet of `config.chips` chips, `seeds` replicates, on
/// `runner`'s worker pool, and folds the per-chip reports into a
/// [`FleetReport`].
///
/// # Panics
///
/// Panics when the config is invalid, `seeds` is zero, or the traffic
/// spec cannot build a model (callers preflight specs; see
/// [`FleetConfig::validate`]).
#[must_use]
pub fn run_fleet(config: &FleetConfig, seeds: usize, runner: &Runner) -> FleetOutcome {
    config.validate();
    assert!(seeds > 0, "need at least one replicate");

    let chips = config.chips;
    let shares = config.dispatch.build().shares(chips, config.seed);
    let rep_seeds = replicate_seeds(config.seed, seeds);
    let fleet_policy = config.fleet_policy.build();

    // One cap plan per replicate: telemetry depends on the replicate's
    // chip streams.
    let plans: Vec<Option<CapPlan>> = rep_seeds
        .iter()
        .map(|&rep_seed| {
            let telemetry = match fleet_policy.period_cycles() {
                None => FleetTelemetry::whole_run(chips, config.cycles),
                Some(period) => gather_telemetry(config, &shares, rep_seed, period),
            };
            fleet_policy.plan(chips, &telemetry)
        })
        .collect();

    let cache = runner.cache();
    let mut jobs: Vec<Job<'_, (SimReport, Recording)>> = Vec::with_capacity(seeds * chips);
    for (r, &rep_seed) in rep_seeds.iter().enumerate() {
        for (c, &share) in shares.iter().enumerate() {
            let seed = chip_seed(rep_seed, c as u64);
            let chip_caps: Option<(u64, Vec<f64>)> = plans[r]
                .as_ref()
                .map(|plan| (plan.period_cycles, plan.caps_w[c].clone()));
            let config = config.clone();
            jobs.push(Job::new(
                format!("fleet r{r} chip{c} seed={seed}"),
                move || {
                    let Some(cache) = cache else {
                        return run_chip(&config, seed, share, chip_caps.as_ref());
                    };
                    let key = chip_key(&config, seed, share, chip_caps.as_ref());
                    // One profiler span per probe, renamed to its
                    // hit/miss outcome, with running counters (mirrors
                    // `core::cachefmt::run_cached`).
                    let cached = {
                        let mut prof = obs::prof::span("cache.lookup");
                        let found = cache.lookup(&key).and_then(|payload| {
                            let parsed = parse_recorded(&payload);
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
                    if let Some(cell) = cached {
                        return cell;
                    }
                    let cell = run_chip(&config, seed, share, chip_caps.as_ref());
                    cache.publish(&key, &recorded_payload(&cell.0, &cell.1));
                    cell
                },
            ));
        }
    }

    let mut results = runner.run(jobs).into_iter();
    // Folding chip reports into fleet/chip distributions is its own
    // profiler phase — pure host-side work after the batch.
    let _prof = obs::prof::span("fold");
    let mut errors = Vec::new();
    let mut fleet = FleetDist::default();
    let mut chip_dists: Vec<ChipDist> = shares.iter().map(|&s| ChipDist::new(s)).collect();
    let mut recordings: Vec<Option<Recording>> = Vec::with_capacity(seeds * chips);

    // Each replicate's chunk of `chips` results is moved out of the
    // batch, so no report or recording is ever held twice.
    for _ in 0..seeds {
        let mut reports = Vec::with_capacity(chips);
        let mut failed = false;
        for result in results.by_ref().take(chips) {
            match result.outcome {
                Ok((report, recording)) => {
                    reports.push(report);
                    recordings.push(Some(recording));
                }
                Err(err) => {
                    errors.push(err);
                    recordings.push(None);
                    failed = true;
                }
            }
        }
        // A failed chip invalidates its whole replicate: fleet totals
        // over a partial fleet would silently understate load.
        if failed {
            continue;
        }
        fleet.push(&FleetSample::from_reports(&reports));
        let replicate_recs = &recordings[recordings.len() - chips..];
        for ((dist, report), rec) in chip_dists.iter_mut().zip(&reports).zip(replicate_recs) {
            dist.push(report);
            if let Some(rec) = rec {
                dist.absorb_queue_depth(rec);
            }
        }
    }

    FleetOutcome {
        report: FleetReport {
            config: config.clone(),
            seeds,
            shares,
            fleet,
            chips: chip_dists,
        },
        errors,
        recordings,
        plans,
    }
}

/// The cache spec of one chip cell: the canonical single-chip spec
/// rendering plus the fleet context that changes its simulation — the
/// thinned share the dispatcher assigned and any per-epoch caps the
/// fleet policy planned. Dispatcher and fleet-policy identity enter
/// the key *through* those two quantities, which is exactly the set of
/// inputs [`run_chip`] is a pure function of.
fn chip_key(config: &FleetConfig, seed: u64, share: f64, caps: Option<&(u64, Vec<f64>)>) -> String {
    let spec = JobSpec {
        benchmark: config.benchmark,
        traffic: config.traffic.clone(),
        policy: config.policy.clone(),
        cycles: config.cycles,
        seed,
    };
    let caps = match caps {
        None => "none".to_owned(),
        Some((period, caps_w)) => {
            let watts: Vec<String> = caps_w.iter().map(|w| format!("{w}")).collect();
            format!("period={period};w=[{}]", watts.join(","))
        }
    };
    format!("fleet|{}|share={share}|caps={caps}", spec.label())
}

/// Simulates one chip: its thinned sub-stream, its DVS policy, and —
/// when the fleet tier assigned caps — the [`CappedPolicy`] shim. Every
/// chip run carries a [`MemRecorder`], so the per-epoch timeline comes
/// back alongside the report (recording is pure observation: the
/// report is bit-identical to an unrecorded run).
fn run_chip(
    config: &FleetConfig,
    seed: u64,
    share: f64,
    caps: Option<&(u64, Vec<f64>)>,
) -> (SimReport, Recording) {
    let npu = NpuConfig::builder()
        .benchmark(config.benchmark)
        .seed(seed)
        .traffic(config.traffic.clone())
        .policy(config.policy.clone())
        .build();
    let model = config
        .traffic
        .model()
        .unwrap_or_else(|e| panic!("invalid traffic spec: {e}"));
    let thinned = Thinned::new(model, share);
    let mut sim = Simulator::new(npu)
        .with_traffic(&thinned)
        .with_recorder(Box::new(MemRecorder::new()));
    if let Some((period, caps_w)) = caps {
        let chip = sim.config();
        let window = config
            .policy
            .window_cycles()
            .unwrap_or(chip.stats_window_cycles);
        let levels: Vec<usize> = caps_w.iter().map(|&w| cap_level(w, chip)).collect();
        let inner = config.policy.build(&chip.ladder);
        sim = sim.with_policy(Box::new(CappedPolicy::new(inner, window, *period, levels)));
    }
    let report = sim.run_cycles(config.cycles);
    (report, sim.take_recording())
}

/// Streams every chip's thinned sub-stream and buckets its bits into
/// telemetry epochs — the load-balancer byte counters the fleet
/// policies plan from. No simulation runs here; arrivals are a pure
/// function of `(traffic, chip seed, share)`.
fn gather_telemetry(
    config: &FleetConfig,
    shares: &[f64],
    rep_seed: u64,
    period: u64,
) -> FleetTelemetry {
    // Epoch boundaries in simulated time, using the same base clock the
    // simulator converts cycles with.
    let base = NpuConfig::builder().build().base_freq();
    let horizon = base.cycles_to_time(config.cycles);
    let epochs = config.cycles.div_ceil(period).max(1) as usize;
    let boundaries: Vec<_> = (1..=epochs as u64)
        .map(|e| base.cycles_to_time((e * period).min(config.cycles)))
        .collect();

    let offered_bits = shares
        .iter()
        .enumerate()
        .map(|(c, &share)| {
            let seed = chip_seed(rep_seed, c as u64);
            let thinned = Thinned::new(
                config
                    .traffic
                    .model()
                    .unwrap_or_else(|e| panic!("invalid traffic spec: {e}")),
                share,
            );
            let mut bits = vec![0u64; epochs];
            let mut epoch = 0;
            for packet in thinned.stream(seed).take_while(|p| p.arrival < horizon) {
                while epoch + 1 < epochs && packet.arrival >= boundaries[epoch] {
                    epoch += 1;
                }
                bits[epoch] += packet.size_bits();
            }
            bits
        })
        .collect();
    FleetTelemetry {
        period_cycles: period,
        offered_bits,
    }
}

#[cfg(test)]
mod tests {
    use xrun::JobSpec;

    use super::*;
    use crate::{DispatchSpec, FleetPolicySpec};

    const CYCLES: u64 = 200_000;

    fn config(chips: usize) -> FleetConfig {
        let mut c = FleetConfig::new(chips);
        c.cycles = CYCLES;
        c
    }

    #[test]
    fn replicate_seed_family_matches_the_convention() {
        assert_eq!(replicate_seeds(42, 1), vec![42]);
        assert_eq!(
            replicate_seeds(42, 3),
            vec![derive_seed(42, 0), derive_seed(42, 1), derive_seed(42, 2)]
        );
    }

    #[test]
    fn degenerate_fleet_matches_the_single_chip_path() {
        // One chip, round-robin, pass-through fleet policy: the fleet
        // run is *bit-identical* to a bare single-chip simulation with
        // the derived chip seed.
        let outcome = run_fleet(&config(1), 1, &Runner::serial());
        assert!(outcome.errors.is_empty());
        let fleet = &outcome.report.fleet;

        let bare = JobSpec {
            benchmark: nepsim::Benchmark::Ipfwdr,
            traffic: traffic::TrafficLevel::High.into(),
            policy: nepsim::PolicySpec::NoDvs,
            cycles: CYCLES,
            seed: chip_seed(42, 0),
        }
        .simulate();

        assert_eq!(
            fleet.total_energy_uj.mean().to_bits(),
            bare.total_energy_uj().to_bits()
        );
        assert_eq!(
            fleet.throughput_mbps.mean().to_bits(),
            bare.throughput_mbps().to_bits()
        );
        assert_eq!(
            fleet.forwarded_packets.mean(),
            bare.forwarded_packets as f64
        );
    }

    #[test]
    fn folds_are_identical_across_worker_counts() {
        let mut cfg = config(4);
        cfg.dispatch = DispatchSpec::Hash { flows: 64 };
        cfg.fleet_policy = FleetPolicySpec::CapRealloc {
            budget_w: 4.0,
            period_cycles: 100_000,
            floor_w: 0.5,
        };
        let serial = run_fleet(&cfg, 2, &Runner::serial());
        let parallel = run_fleet(&cfg, 2, &Runner::new().with_workers(3));
        assert_eq!(
            serial.report.fleet.total_energy_uj.mean().to_bits(),
            parallel.report.fleet.total_energy_uj.mean().to_bits()
        );
        assert_eq!(
            serial.report.fleet.loss_ratio.mean().to_bits(),
            parallel.report.fleet.loss_ratio.mean().to_bits()
        );
        for (a, b) in serial.report.chips.iter().zip(&parallel.report.chips) {
            assert_eq!(
                a.mean_power_w.mean().to_bits(),
                b.mean_power_w.mean().to_bits()
            );
        }
    }

    #[test]
    fn cached_fleet_run_is_bit_identical_and_second_pass_hits() {
        let dir = std::env::temp_dir().join(format!("abdex-fleet-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut cfg = config(2);
        cfg.dispatch = DispatchSpec::Hash { flows: 64 };
        cfg.fleet_policy = FleetPolicySpec::CapRealloc {
            budget_w: 4.0,
            period_cycles: 100_000,
            floor_w: 0.5,
        };
        let reference = run_fleet(&cfg, 2, &Runner::serial());

        let cache = ccache::Cache::open(&dir).unwrap();
        let runner = Runner::serial().with_cache(cache);
        let cold = run_fleet(&cfg, 2, &runner);
        let warm = run_fleet(&cfg, 2, &runner);

        // 2 replicates x 2 chips: the cold pass misses and stores every
        // cell, the warm pass hits every one.
        let counters = runner.cache().unwrap().counters();
        assert_eq!((counters.misses, counters.hits, counters.stores), (4, 4, 4));

        for outcome in [&cold, &warm] {
            assert!(outcome.errors.is_empty());
            assert_eq!(
                outcome.report.fleet.total_energy_uj.mean().to_bits(),
                reference.report.fleet.total_energy_uj.mean().to_bits()
            );
            assert_eq!(
                outcome.report.fleet.loss_ratio.mean().to_bits(),
                reference.report.fleet.loss_ratio.mean().to_bits()
            );
            for (a, b) in outcome.report.chips.iter().zip(&reference.report.chips) {
                assert_eq!(
                    a.mean_power_w.mean().to_bits(),
                    b.mean_power_w.mean().to_bits()
                );
                assert_eq!(
                    a.queue_depth.p99().map(f64::to_bits),
                    b.queue_depth.p99().map(f64::to_bits)
                );
            }
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn static_cap_reduces_fleet_power() {
        let mut uncapped = config(2);
        uncapped.dispatch = DispatchSpec::RoundRobin;
        let mut capped = uncapped.clone();
        // ~0.8 W per chip pins both chips near the ladder bottom.
        capped.fleet_policy = FleetPolicySpec::StaticCap { budget_w: 1.7 };
        let base = run_fleet(&uncapped, 1, &Runner::serial());
        let cap = run_fleet(&capped, 1, &Runner::serial());
        assert!(
            cap.report.fleet.mean_power_w.mean() < base.report.fleet.mean_power_w.mean(),
            "cap {} vs base {}",
            cap.report.fleet.mean_power_w.mean(),
            base.report.fleet.mean_power_w.mean()
        );
    }

    #[test]
    fn a_panicking_replicate_is_excluded_but_reported() {
        let mut cfg = config(2);
        // An unbuildable traffic spec panics inside the job; both chips
        // of the replicate fail, the errors surface, and the folds stay
        // empty rather than lying.
        cfg.traffic = traffic::TrafficSpec::Replay(traffic::ReplayConfig::new("/no/such.trace"));
        let outcome = run_fleet(&cfg, 1, &Runner::serial());
        assert_eq!(outcome.errors.len(), 2);
        assert_eq!(outcome.report.fleet.replicates(), 0);
    }
}
