//! Trait-conformance property suite, run against **every** policy in the
//! registry: whatever observations a policy sees, its decisions must keep
//! VF levels on the ladder, move at most one step per window, agree with
//! its declared metadata, and be deterministic.
//!
//! A policy added to the registry is picked up here automatically — this
//! suite is the contract a new policy must satisfy to ship.

use dvs::{
    MeObservation, Params, PolicyObservation, PolicySpec, QueueObservation, ScalingDecision,
    VfLadder, POLICIES,
};
use rand::{Rng, SeedableRng};

const MES: usize = 6;
const WINDOWS: u64 = 400;

/// A deterministic stream of plausible-but-adversarial observations:
/// idle fractions over the full [0, 1], traffic from lull to overload,
/// FIFO fills from empty to overflowing (with drops).
struct ObservationStream {
    rng: rand::rngs::StdRng,
    window: u64,
    levels: Vec<usize>,
}

impl ObservationStream {
    fn new(seed: u64, top: usize) -> Self {
        ObservationStream {
            rng: rand::rngs::StdRng::seed_from_u64(seed),
            window: 0,
            levels: vec![top; MES],
        }
    }

    fn next_mes(&mut self) -> Vec<MeObservation> {
        (0..MES)
            .map(|m| MeObservation {
                idle_fraction: self.rng.gen_range(0.0..1.0),
                level: self.levels[m],
            })
            .collect()
    }

    fn observation<'a>(&mut self, mes: &'a [MeObservation]) -> PolicyObservation<'a> {
        let occupancy = self.rng.gen_range(0usize..2049);
        let dropped = if occupancy > 1950 {
            self.rng.gen_range(0u64..50)
        } else {
            0
        };
        let obs = PolicyObservation {
            window: self.window,
            window_us: 66.6,
            aggregate_mbps: self.rng.gen_range(0.0..2500.0),
            mes,
            rx_fifo: QueueObservation {
                occupancy,
                capacity: 2048,
                dropped,
            },
            tx_queue: QueueObservation {
                occupancy: self.rng.gen_range(0usize..2049),
                capacity: 2048,
                dropped: 0,
            },
        };
        self.window += 1;
        obs
    }

    /// Applies decisions the way the platform does — but *without*
    /// clamping, so any out-of-ladder step trips the caller's assertion.
    fn apply(&mut self, decisions: &[ScalingDecision], top: usize) {
        for (level, d) in self.levels.iter_mut().zip(decisions) {
            match d {
                ScalingDecision::Up => *level += 1,
                ScalingDecision::Down => {
                    *level = level
                        .checked_sub(1)
                        .expect("policy stepped below the ladder");
                }
                ScalingDecision::Hold => {}
            }
            assert!(*level <= top, "policy stepped above the ladder");
        }
    }
}

fn registered_specs() -> Vec<PolicySpec> {
    POLICIES
        .entries()
        .iter()
        .map(|entry| (entry.build)(Params::default()).expect("defaults build"))
        .collect()
}

#[test]
fn decisions_never_leave_the_ladder() {
    let ladder = VfLadder::xscale_npu();
    let top = ladder.top_index();
    for spec in registered_specs() {
        for seed in 0..8u64 {
            // Fresh policy per seed: policy level state and the stream's
            // mirrored levels must start aligned (both at top).
            let mut policy = spec.build(&ladder);
            let mut stream = ObservationStream::new(seed, top);
            for _ in 0..WINDOWS {
                let mes = stream.next_mes();
                let obs = stream.observation(&mes);
                let response = policy.on_window(&obs);
                assert_eq!(
                    response.decisions.len(),
                    MES,
                    "{spec}: wrong decision count"
                );
                stream.apply(&response.decisions, top);
            }
        }
    }
}

#[test]
fn metadata_matches_the_spec() {
    let ladder = VfLadder::xscale_npu();
    for spec in registered_specs() {
        let policy = spec.build(&ladder);
        assert_eq!(policy.kind(), spec.kind(), "{spec}");
        assert_eq!(policy.window_cycles(), spec.window_cycles(), "{spec}");
    }
}

#[test]
fn policies_are_deterministic_state_machines() {
    let ladder = VfLadder::xscale_npu();
    let top = ladder.top_index();
    for spec in registered_specs() {
        let run = || {
            let mut policy = spec.build(&ladder);
            let mut stream = ObservationStream::new(99, top);
            let mut decisions = Vec::new();
            for _ in 0..WINDOWS {
                let mes = stream.next_mes();
                let obs = stream.observation(&mes);
                let response = policy.on_window(&obs);
                stream.apply(&response.decisions, top);
                decisions.push(response.decisions);
            }
            decisions
        };
        assert_eq!(run(), run(), "{spec}: non-deterministic decisions");
    }
}

#[test]
fn custom_window_sizes_flow_through_every_policy() {
    let ladder = VfLadder::xscale_npu();
    for name in ["tdvs", "edvs", "combined", "queue", "proportional"] {
        let spec = PolicySpec::parse(&format!("{name}:window=12345")).expect("valid spec");
        assert_eq!(spec.window_cycles(), Some(12_345), "{name}");
        assert_eq!(spec.build(&ladder).window_cycles(), Some(12_345), "{name}");
    }
}
