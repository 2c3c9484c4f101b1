//! The fleet runner: N chips executed as one deterministic job batch.
//!
//! Each (replicate, chip) pair becomes one chip job on the shared
//! [`xrun::Runner`] pool, submitted replicate-major / chip-minor. The
//! pool returns results in submission order regardless of worker
//! count, and every fold below walks that order — which is what makes
//! `--jobs 1` and `--jobs 4` byte-identical.
//!
//! A fleet policy that plans from offered-load telemetry (one with a
//! [`FleetPolicy::period_cycles`]) pipelines the batch. Each
//! replicate's chip jobs follow one telemetry job per chip, which
//! generates the chip's thinned sub-stream once, buckets its bits into
//! epochs and keeps its packets. A chip job waits for its replicate's
//! telemetry, takes the replicate's cap plan and replays the kept
//! packets instead of generating them again. The pool starts jobs in
//! submission order (see [`Runner::run`]), so every telemetry job a
//! chip job waits on has already started; and as replicates go in
//! order, about one replicate of kept packets is in memory at a time.
//! Other fleet policies plan once on the caller's thread, and their
//! chips generate traffic live.
//!
//! Seeding is two-level: replicate `r` of fleet seed `S` runs from
//! `derive_seed(S, r)` (the same convention `stats::Replication` uses;
//! a single-replicate run uses `S` itself), and chip `c` of a replicate
//! with seed `R` runs from `derive_seed(R, c)`. Distinct family seeds
//! give disjoint derived families, so chip streams never collide with
//! replicate streams — the seed-quality suites pin this.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use ccache::codec::{parse_recorded, recorded_payload};
use desim::rng::derive_seed;
use nepsim::{AnalyzerBank, NpuConfig, SimReport, Simulator};
use obs::{MemRecorder, Recording};
use traffic::{RecordedTrace, Thinned, TrafficModel};
use xrun::{Job, JobError, JobSpec, Runner};

use crate::policy::{cap_level, CapPlan, FleetPolicy, FleetTelemetry};
use crate::{CappedPolicy, ChipDist, FleetConfig, FleetDist, FleetSample};

/// One chip's caps: the epoch length in base-clock cycles and the cap
/// of every epoch in watts.
type ChipCaps = (u64, Vec<f64>);

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
    /// One error per chip whose simulation panicked, or whose
    /// replicate's telemetry did. Each error's `index` is its chip
    /// cell's position in [`recordings`](Self::recordings).
    pub errors: Vec<JobError>,
    /// One recording per `(replicate, chip)` job, in submission order
    /// (replicate-major, chip-minor — `recordings[r * chips + c]`);
    /// `None` for a chip whose job panicked. Every chip run carries a
    /// recorder, so epoch timelines are always available for export
    /// and assertions.
    pub recordings: Vec<Option<Recording>>,
    /// The cap plan each replicate ran under (`None` for uncapped
    /// replicates, and for a replicate whose telemetry failed), aligned
    /// with [`replicate_seeds`].
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
/// A chip that cannot be simulated (an unbuildable traffic spec, say)
/// does not panic the caller: its job fails, the error is reported in
/// [`FleetOutcome::errors`], and its replicate is left out of the
/// folds. Under a telemetry-planning fleet policy, a failed telemetry
/// job fails every chip job of its replicate with its message.
///
/// # Panics
///
/// Panics when the config is invalid or `seeds` is zero (see
/// [`FleetConfig::validate`]).
#[must_use]
pub fn run_fleet(config: &FleetConfig, seeds: usize, runner: &Runner) -> FleetOutcome {
    config.validate();
    assert!(seeds > 0, "need at least one replicate");

    let chips = config.chips;
    let shares = config.dispatch.build().shares(chips, config.seed);
    let rep_seeds = replicate_seeds(config.seed, seeds);
    let fleet_policy = config.fleet_policy.build();
    let planning = match fleet_policy.period_cycles() {
        None => Planning::Static(
            fleet_policy.plan(chips, &FleetTelemetry::whole_run(chips, config.cycles)),
        ),
        Some(period) => Planning::Telemetry(
            rep_seeds
                .iter()
                .map(|_| Gathering::new(chips, period))
                .collect(),
        ),
    };

    let jobs = batch(
        config,
        &shares,
        &rep_seeds,
        &planning,
        &*fleet_policy,
        runner.cache(),
    );
    // Telemetry jobs hand their results to their replicate's chip jobs
    // and return nothing, so only chip cells come out of the batch.
    let mut cells = runner
        .run(jobs)
        .into_iter()
        .filter_map(|result| result.outcome.transpose());
    // Folding chip reports into fleet/chip distributions is its own
    // profiler phase — pure host-side work after the batch.
    let _prof = obs::prof::span("fold");
    let mut errors = Vec::new();
    let mut fleet = FleetDist::default();
    let mut chip_dists: Vec<ChipDist> = shares.iter().map(|&s| ChipDist::new(s)).collect();
    let mut recordings: Vec<Option<Recording>> = Vec::with_capacity(seeds * chips);

    // Each replicate's chunk of `chips` cells is moved out of the
    // batch, so no report or recording is ever held twice.
    for _ in 0..seeds {
        let mut reports = Vec::with_capacity(chips);
        let mut failed = false;
        for cell in cells.by_ref().take(chips) {
            match cell {
                Ok((report, recording)) => {
                    reports.push(report);
                    recordings.push(Some(recording));
                }
                Err(mut err) => {
                    // Number the cell as `recordings` does, not by its
                    // place among the telemetry jobs.
                    err.index = recordings.len();
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

    let plans = planning.into_plans(seeds);
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

/// One chip cell's result: its report and its recording.
type Cell = (SimReport, Recording);

/// The job batch. Per replicate, in order: one telemetry job per chip
/// when `planning` gathers telemetry, then one simulation job per chip,
/// chips in chip order. Telemetry jobs return `None`, simulation jobs
/// their cell.
fn batch<'a>(
    config: &'a FleetConfig,
    shares: &'a [f64],
    rep_seeds: &[u64],
    planning: &'a Planning,
    policy: &'a dyn FleetPolicy,
    cache: Option<&'a ccache::Cache>,
) -> Vec<Job<'a, Option<Cell>>> {
    let mut jobs = Vec::new();
    for (r, &rep_seed) in rep_seeds.iter().enumerate() {
        if let Planning::Telemetry(gatherings) = planning {
            let gathering = &gatherings[r];
            for (c, &share) in shares.iter().enumerate() {
                let seed = chip_seed(rep_seed, c as u64);
                jobs.push(Job::new(
                    format!("fleet r{r} telemetry chip{c} seed={seed}"),
                    move || {
                        gathering.gather(c, || chip_traffic(config, seed, share, gathering.period));
                        None
                    },
                ));
            }
        }
        for (c, &share) in shares.iter().enumerate() {
            let seed = chip_seed(rep_seed, c as u64);
            jobs.push(Job::new(
                format!("fleet r{r} chip{c} seed={seed}"),
                move || {
                    let (caps, arrivals) = planning.chip_inputs(r, c, policy);
                    Some(simulate_chip(
                        cache,
                        config,
                        seed,
                        share,
                        caps.as_ref(),
                        arrivals,
                    ))
                },
            ));
        }
    }
    jobs
}

/// Where a run's chips get their caps and their arrivals.
enum Planning {
    /// One plan for every replicate, made on the caller's thread from
    /// whole-run telemetry (a fleet policy without a telemetry period).
    /// Chips generate their traffic live.
    Static(Option<CapPlan>),
    /// One plan per replicate, from the telemetry its jobs gather.
    /// Chips replay the arrivals their telemetry job kept.
    Telemetry(Vec<Gathering>),
}

impl Planning {
    /// The caps of chip `chip` in replicate `r`, and the arrivals it
    /// replays, if any (see [`Gathering::chip_inputs`]).
    fn chip_inputs(
        &self,
        r: usize,
        chip: usize,
        policy: &dyn FleetPolicy,
    ) -> (Option<ChipCaps>, Option<RecordedTrace>) {
        match self {
            Planning::Static(plan) => (chip_caps(plan.as_ref(), chip), None),
            Planning::Telemetry(gatherings) => {
                let (caps, arrivals) = gatherings[r].chip_inputs(chip, policy);
                (caps, Some(arrivals))
            }
        }
    }

    /// The plan each of `seeds` replicates ran under.
    fn into_plans(self, seeds: usize) -> Vec<Option<CapPlan>> {
        match self {
            Planning::Static(plan) => vec![plan; seeds],
            Planning::Telemetry(gatherings) => gatherings
                .into_iter()
                .map(|gathering| gathering.plan.into_inner().flatten())
                .collect(),
        }
    }
}

/// One replicate's telemetry: filled in by its telemetry jobs, read by
/// its chip jobs.
struct Gathering {
    /// Telemetry epoch length in base-clock cycles.
    period: u64,
    state: Mutex<Gathered>,
    /// Signalled when the last telemetry job has delivered.
    complete: Condvar,
    /// The replicate's cap plan, computed once, by the first chip job
    /// to need it; never set if a telemetry job failed.
    plan: OnceLock<Option<CapPlan>>,
}

struct Gathered {
    /// Telemetry jobs yet to deliver.
    pending: usize,
    /// `offered_bits[chip][epoch]`, as [`FleetTelemetry`] holds it.
    offered_bits: Vec<Vec<u64>>,
    /// Each chip's kept arrivals, until its chip job takes them.
    arrivals: Vec<Option<RecordedTrace>>,
    /// The first failed telemetry job in chip order, with its panic
    /// message. Chip order, not finishing order, so the message is the
    /// same on any worker count.
    failure: Option<(usize, String)>,
}

impl Gathering {
    fn new(chips: usize, period: u64) -> Self {
        Gathering {
            period,
            state: Mutex::new(Gathered {
                pending: chips,
                offered_bits: vec![Vec::new(); chips],
                arrivals: vec![None; chips],
                failure: None,
            }),
            complete: Condvar::new(),
            plan: OnceLock::new(),
        }
    }

    /// Locks the state, ignoring poison: only a panicking fleet policy
    /// can poison it (inside `plan`, which leaves the state untouched),
    /// and the next chip job then retries the plan.
    fn lock(&self) -> MutexGuard<'_, Gathered> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs chip `chip`'s telemetry and delivers what it learned, or
    /// the message of its panic: the replicate's chip jobs wait for
    /// every delivery, so a panic must not escape before this one.
    fn gather(&self, chip: usize, telemetry: impl FnOnce() -> ChipTraffic) {
        let traffic = panic::catch_unwind(AssertUnwindSafe(telemetry));
        let mut state = self.lock();
        match traffic {
            Ok(traffic) => {
                state.offered_bits[chip] = traffic.offered_bits;
                state.arrivals[chip] = Some(traffic.arrivals);
            }
            Err(payload) => {
                if state
                    .failure
                    .as_ref()
                    .is_none_or(|(first, _)| chip < *first)
                {
                    state.failure = Some((chip, xrun::panic_message(payload.as_ref())));
                }
            }
        }
        state.pending -= 1;
        if state.pending == 0 {
            self.complete.notify_all();
        }
    }

    /// Waits until every telemetry job of the replicate has delivered,
    /// then returns chip `chip`'s caps and kept arrivals. If a
    /// telemetry job failed, the calling chip job fails with its
    /// message instead; that panic has already reached the panic hook,
    /// so this one bypasses it.
    fn chip_inputs(
        &self,
        chip: usize,
        policy: &dyn FleetPolicy,
    ) -> (Option<ChipCaps>, RecordedTrace) {
        let mut state = self
            .complete
            .wait_while(self.lock(), |state| state.pending > 0)
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((_, message)) = &state.failure {
            let message = message.clone();
            drop(state);
            panic::resume_unwind(Box::new(message));
        }
        let plan = self.plan.get_or_init(|| {
            let telemetry = FleetTelemetry {
                period_cycles: self.period,
                offered_bits: state.offered_bits.clone(),
            };
            policy.plan(telemetry.offered_bits.len(), &telemetry)
        });
        let arrivals = state.arrivals[chip]
            .take()
            .expect("each chip job takes its arrivals once");
        (chip_caps(plan.as_ref(), chip), arrivals)
    }
}

/// Chip `chip`'s row of `plan`.
fn chip_caps(plan: Option<&CapPlan>, chip: usize) -> Option<ChipCaps> {
    plan.map(|plan| (plan.period_cycles, plan.caps_w[chip].clone()))
}

/// The cache spec of one chip cell: the canonical single-chip spec
/// rendering plus the fleet context that changes its simulation — the
/// thinned share the dispatcher assigned and any per-epoch caps the
/// fleet policy planned. Dispatcher and fleet-policy identity enter
/// the key *through* those two quantities, which is exactly the set of
/// inputs [`run_chip`] is a pure function of.
fn chip_key(config: &FleetConfig, seed: u64, share: f64, caps: Option<&ChipCaps>) -> String {
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

/// [`run_chip`] behind the runner's result cache, when it has one.
/// Kept arrivals are the live ones, so they do not enter the key.
fn simulate_chip(
    cache: Option<&ccache::Cache>,
    config: &FleetConfig,
    seed: u64,
    share: f64,
    caps: Option<&ChipCaps>,
    arrivals: Option<RecordedTrace>,
) -> Cell {
    let Some(cache) = cache else {
        return run_chip(config, seed, share, caps, arrivals);
    };
    let key = chip_key(config, seed, share, caps);
    if let Some(cell) = cache.probe(&key, parse_recorded) {
        return cell;
    }
    let cell = run_chip(config, seed, share, caps, arrivals);
    cache.publish(&key, &recorded_payload(&cell.0, &cell.1));
    cell
}

/// The simulator configuration of the chip that runs from `seed`.
fn chip_npu(config: &FleetConfig, seed: u64) -> NpuConfig {
    NpuConfig::builder()
        .benchmark(config.benchmark)
        .seed(seed)
        .traffic(config.traffic.clone())
        .policy(config.policy.clone())
        .build()
}

/// A chip's thinned share of the fleet's aggregate traffic; its stream
/// is seeded by the chip.
fn chip_model(config: &FleetConfig, share: f64) -> Thinned {
    let model = config
        .traffic
        .model()
        .unwrap_or_else(|e| panic!("invalid traffic spec: {e}"));
    Thinned::new(model, share)
}

/// Simulates one chip: its thinned sub-stream, its DVS policy, and —
/// when the fleet tier assigned caps — the [`CappedPolicy`] shim. The
/// sub-stream is generated live, or replayed from the `arrivals` its
/// telemetry job kept, which are the same packets. Every chip run
/// carries a [`MemRecorder`], so the per-epoch timeline comes back
/// alongside the report (recording is pure observation: the report is
/// bit-identical to an unrecorded run). No fleet output reads the LOC
/// trace, so an empty [`AnalyzerBank`] keeps it unbuffered.
fn run_chip(
    config: &FleetConfig,
    seed: u64,
    share: f64,
    caps: Option<&ChipCaps>,
    arrivals: Option<RecordedTrace>,
) -> Cell {
    let sim = Simulator::new(chip_npu(config, seed));
    let sim = match arrivals {
        Some(trace) => sim.with_replay(trace),
        None => sim.with_traffic(&chip_model(config, share)),
    };
    let mut sim = sim
        .with_recorder(Box::new(MemRecorder::new()))
        .with_analyzers(AnalyzerBank::new());
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

/// What a telemetry job learns from one chip's sub-stream.
struct ChipTraffic {
    /// Bits arriving in each telemetry epoch — the load-balancer byte
    /// counters the fleet policies plan from.
    offered_bits: Vec<u64>,
    /// The packets the chip's simulation reads, for it to replay.
    arrivals: RecordedTrace,
}

/// A telemetry job: generates chip `seed`'s thinned sub-stream once,
/// buckets its bits into epochs of `period` cycles and keeps the
/// packets its simulation will read. No simulation runs here; arrivals
/// are a pure function of `(traffic, chip seed, share)`.
fn chip_traffic(config: &FleetConfig, seed: u64, share: f64, period: u64) -> ChipTraffic {
    let _prof = obs::prof::span("telemetry");
    // The horizon and epoch boundaries in simulated time, on the chip's
    // own base clock, as its simulator converts cycles.
    let base = chip_npu(config, seed).base_freq();
    let horizon = base.cycles_to_time(config.cycles);
    let epochs = config.cycles.div_ceil(period).max(1) as usize;
    let boundaries: Vec<_> = (1..=epochs as u64)
        .map(|e| base.cycles_to_time((e * period).min(config.cycles)))
        .collect();

    let mut offered_bits = vec![0u64; epochs];
    let mut epoch = 0;
    let mut packets = Vec::new();
    for packet in chip_model(config, share).stream(seed) {
        // Offered load counts the arrivals strictly before the horizon.
        if packet.arrival < horizon {
            while epoch + 1 < epochs && packet.arrival >= boundaries[epoch] {
                epoch += 1;
            }
            offered_bits[epoch] += packet.size_bits();
        }
        // The simulator reads every arrival up to and including the
        // horizon (it processes one landing exactly on it), then the
        // first one past it, which it schedules when it is the
        // stream's first. Keeping exactly that prefix makes the replay
        // the live run, event for event.
        let past = packet.arrival > horizon;
        packets.push(packet);
        if past {
            break;
        }
    }
    // The packets wait in memory for the chip job: drop the growth slack.
    packets.shrink_to_fit();
    ChipTraffic {
        offered_bits,
        arrivals: RecordedTrace::from_packets(packets),
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
        let uncapped = run_fleet(&cfg, 1, &Runner::serial());
        assert_eq!(uncapped.errors.len(), 2);
        assert_eq!(uncapped.report.fleet.replicates(), 0);
        assert!(
            uncapped.errors[0].message.contains("/no/such.trace"),
            "{:?}",
            uncapped.errors
        );

        // Under a telemetry-planning policy the telemetry jobs fail
        // first. Each chip job then fails with their message: the same
        // one error per chip, and no chip job waits forever.
        cfg.fleet_policy = FleetPolicySpec::CapRealloc {
            budget_w: 4.0,
            period_cycles: 50_000,
            floor_w: 0.5,
        };
        for workers in [1, 3] {
            let capped = run_fleet(&cfg, 1, &Runner::new().with_workers(workers));
            assert_eq!(capped.errors, uncapped.errors, "{workers} workers");
            assert_eq!(capped.report.fleet.replicates(), 0);
            assert_eq!(capped.recordings, vec![None, None]);
            assert_eq!(capped.plans, vec![None]);
        }
    }

    /// Every field of a report, each `f64` as its bit pattern. The
    /// destructuring is exhaustive, so a new field does not compile
    /// until it is compared here too.
    fn report_bits(report: &SimReport) -> Vec<u64> {
        let SimReport {
            policy,
            duration,
            arrived_packets,
            arrived_bits,
            dropped_packets,
            dropped_tx_packets,
            forwarded_packets,
            forwarded_bits,
            mes,
            me_energy_uj,
            sram_energy_uj,
            sdram_energy_uj,
            static_energy_uj,
            monitor_energy_uj,
            sram_accesses,
            sdram_accesses,
            total_switches,
            windows,
            bus_bits,
            bus_rate_mbps,
            kernel,
            window_idle,
        } = report;
        let mut bits: Vec<u64> = policy.to_string().bytes().map(u64::from).collect();
        bits.extend([
            duration.as_ps(),
            *arrived_packets,
            *arrived_bits,
            *dropped_packets,
            *dropped_tx_packets,
            *forwarded_packets,
            *forwarded_bits,
            me_energy_uj.to_bits(),
            sram_energy_uj.to_bits(),
            sdram_energy_uj.to_bits(),
            static_energy_uj.to_bits(),
            monitor_energy_uj.to_bits(),
            *sram_accesses,
            *sdram_accesses,
            *total_switches,
            *windows,
            *bus_bits,
            bus_rate_mbps.to_bits(),
            kernel.events_scheduled,
            kernel.events_processed,
            kernel.peak_heap_len,
        ]);
        for me in mes {
            let nepsim::MeReport {
                role,
                acc,
                energy_uj,
                switches,
                final_level,
                packets_done,
                level_time,
            } = me;
            bits.push(u64::from(*role == nepsim::MeRole::Rx));
            bits.extend(nepsim::MeMode::ALL.map(|mode| acc.get(mode).as_ps()));
            bits.extend([
                energy_uj.to_bits(),
                *switches,
                *final_level as u64,
                *packets_done,
            ]);
            bits.extend(level_time.iter().map(|t| t.as_ps()));
        }
        for sample in window_idle {
            let nepsim::WindowIdleSample {
                window,
                me,
                role,
                idle,
            } = sample;
            bits.extend([
                *window,
                *me as u64,
                u64::from(*role == nepsim::MeRole::Rx),
                idle.to_bits(),
            ]);
        }
        bits
    }

    #[test]
    fn a_chip_replaying_its_telemetry_arrivals_equals_the_live_run() {
        // 1000 Mbps of 125-byte packets is one packet per microsecond,
        // and 600,000 cycles of the 600 MHz base clock are 1000 us: a
        // packet lands exactly on the horizon. The simulator processes
        // it, so the kept arrivals must include it.
        let on_horizon: traffic::TrafficSpec = "constant:rate=1000,size=125".parse().unwrap();
        let specs = [
            on_horizon.clone(),
            traffic::TrafficLevel::High.into(),
            "mmpp:rate=4000".parse().unwrap(),
        ];
        for spec in specs {
            let mut cfg = config(1);
            cfg.cycles = 600_000;
            cfg.traffic = spec;
            cfg.policy = "tdvs:threshold=1200".parse().unwrap();
            for share in [1.0, 0.5, 0.05] {
                for seed in [3, 42, 1_000_003] {
                    let label = format!("{} share={share} seed={seed}", cfg.traffic.spec_string());
                    let horizon = chip_npu(&cfg, seed).base_freq().cycles_to_time(cfg.cycles);
                    let kept = chip_traffic(&cfg, seed, share, 100_000).arrivals;
                    if cfg.traffic == on_horizon && share == 1.0 {
                        assert!(
                            kept.packets().iter().any(|p| p.arrival == horizon),
                            "{label}: no packet kept at the horizon"
                        );
                    }
                    let live = run_chip(&cfg, seed, share, None, None);
                    let replay = run_chip(&cfg, seed, share, None, Some(kept));
                    assert!(live.0.arrived_packets > 0, "{label}");
                    assert_eq!(report_bits(&live.0), report_bits(&replay.0), "{label}");
                    assert_eq!(live.1, replay.1, "{label}");
                }
            }
        }
    }
}
