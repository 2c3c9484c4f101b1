//! Load dispatchers: how one aggregate traffic stream is sharded across
//! the chips of a fleet.
//!
//! A [`Dispatcher`] assigns each chip a *share* of the aggregate offered
//! load; the fleet runner thins the aggregate [`traffic::TrafficModel`]
//! to that share per chip (see [`traffic::Thinned`]). Shares are a pure
//! function of `(chips, fleet_seed)`, so a fleet run is reproducible
//! from its config alone.
//!
//! The built-ins model the three classic front-end strategies over a
//! heavy-tailed *flow* population (elephants and mice — the skew real
//! layer-4 hashing exhibits):
//!
//! * `round-robin` — packet-spraying: every chip gets exactly `1/N`.
//! * `hash` — each flow is hashed to a chip; elephant flows make the
//!   shares visibly unequal. This is the stress case for fleet-level
//!   power management.
//! * `least-loaded` — flows are placed on the least-loaded chip
//!   (longest-processing-time greedy), the idealised
//!   join-shortest-queue front end; shares come out near-uniform even
//!   with elephants in the population.
//!
//! Like policies and traffic models, dispatchers are *described* by a
//! [`DispatchSpec`] written in the shared `kvspec` spec grammar and
//! resolved through the entry table [`DISPATCHERS`].

use std::fmt;
use std::str::FromStr;

use desim::rng::{derive_seed, derive_stream};
use kvspec::{Entry, ParamInfo, Params, Registry, SpecError};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Pareto tail index of the synthetic flow-weight distribution. Between
/// 1 and 2: finite mean, infinite variance — the canonical
/// elephants-and-mice regime for flow sizes.
const FLOW_TAIL_ALPHA: f64 = 1.3;

/// Default number of statistical flows in the shard population.
const DEFAULT_FLOWS: u64 = 256;

/// A load-balancing strategy: a pure function from `(chips, seed)` to
/// per-chip shares of the aggregate offered load.
pub trait Dispatcher: fmt::Debug + Send + Sync {
    /// Canonical name (for labels and reports).
    fn name(&self) -> &'static str;

    /// Per-chip share of the aggregate load. The result has length
    /// `chips`, every entry is in `[0, 1]`, and the entries sum to 1
    /// (exactly 1.0 for a single chip).
    fn shares(&self, chips: usize, fleet_seed: u64) -> Vec<f64>;
}

/// Deterministic heavy-tailed flow weights for `(fleet_seed, flows)`.
///
/// Drawn from a fixed substream label so the same fleet seed always
/// produces the same flow population regardless of which dispatcher
/// consumes it — `hash` and `least-loaded` rank the *same* elephants.
fn flow_weights(fleet_seed: u64, flows: u64) -> Vec<f64> {
    let mut rng = derive_stream(fleet_seed, "fleet.flows");
    (0..flows)
        .map(|_| {
            let u: f64 = rng.gen();
            // Inverse-CDF Pareto sample; `1 - u` is in (0, 1].
            (1.0 - u).powf(-1.0 / FLOW_TAIL_ALPHA)
        })
        .collect()
}

/// Normalises per-chip weight sums into shares that sum to 1.
fn normalise(chip_weights: Vec<f64>) -> Vec<f64> {
    let total: f64 = chip_weights.iter().sum();
    if total <= 0.0 {
        let n = chip_weights.len();
        return vec![1.0 / n as f64; n];
    }
    chip_weights.into_iter().map(|w| w / total).collect()
}

/// Packet-spraying round robin: exactly `1/N` per chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundRobin;

impl Dispatcher for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn shares(&self, chips: usize, _fleet_seed: u64) -> Vec<f64> {
        vec![1.0 / chips as f64; chips]
    }
}

/// Flow hashing: every flow sticks to the chip its hash lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashDispatch {
    /// Number of statistical flows in the shard population.
    pub flows: u64,
}

impl Dispatcher for HashDispatch {
    fn name(&self) -> &'static str {
        "hash"
    }

    fn shares(&self, chips: usize, fleet_seed: u64) -> Vec<f64> {
        let weights = flow_weights(fleet_seed, self.flows);
        let mut chip_weights = vec![0.0; chips];
        for (index, weight) in weights.iter().enumerate() {
            // The flow's bucket is a pure hash of (seed, flow index),
            // independent of the weight draw above.
            let bucket = derive_seed(fleet_seed, index as u64) % chips as u64;
            chip_weights[bucket as usize] += weight;
        }
        normalise(chip_weights)
    }
}

/// Greedy least-loaded placement (longest-processing-time first): flows
/// are assigned heaviest-first to the currently least-loaded chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeastLoaded {
    /// Number of statistical flows in the shard population.
    pub flows: u64,
}

impl Dispatcher for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn shares(&self, chips: usize, fleet_seed: u64) -> Vec<f64> {
        let mut weights = flow_weights(fleet_seed, self.flows);
        // Heaviest first; ties keep the draw order (sort is stable).
        weights.sort_by(|a, b| b.partial_cmp(a).expect("flow weights are finite"));
        let mut chip_weights = vec![0.0; chips];
        for weight in weights {
            let lightest = chip_weights
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("loads are finite"))
                .map(|(i, _)| i)
                .expect("at least one chip");
            chip_weights[lightest] += weight;
        }
        normalise(chip_weights)
    }
}

/// A fully parameterised, buildable dispatcher description.
///
/// Mirrors `PolicySpec`/`TrafficSpec`: the canonical wire format is the
/// spec grammar (`hash:flows=512`), resolved through [`DISPATCHERS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "dispatch", rename_all = "kebab-case")]
pub enum DispatchSpec {
    /// Packet spraying: exactly `1/N` per chip.
    RoundRobin,
    /// Flow hashing with a heavy-tailed flow population.
    Hash {
        /// Number of statistical flows.
        flows: u64,
    },
    /// Greedy least-loaded (join-shortest-queue style) flow placement.
    LeastLoaded {
        /// Number of statistical flows.
        flows: u64,
    },
}

impl DispatchSpec {
    /// Canonical name of the strategy.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            DispatchSpec::RoundRobin => "round-robin",
            DispatchSpec::Hash { .. } => "hash",
            DispatchSpec::LeastLoaded { .. } => "least-loaded",
        }
    }

    /// Instantiates the dispatcher.
    #[must_use]
    pub fn build(&self) -> Box<dyn Dispatcher> {
        match *self {
            DispatchSpec::RoundRobin => Box::new(RoundRobin),
            DispatchSpec::Hash { flows } => Box::new(HashDispatch { flows }),
            DispatchSpec::LeastLoaded { flows } => Box::new(LeastLoaded { flows }),
        }
    }

    /// Parses the CLI grammar `name[:key=val[,key=val]...]`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for unknown names/keys, unparsable values
    /// or values outside a dispatcher's valid range.
    pub fn parse(input: &str) -> Result<Self, SpecError> {
        DISPATCHERS.parse(input)
    }

    /// Renders the spec in the CLI grammar; [`DispatchSpec::parse`] of
    /// the result round-trips.
    #[must_use]
    pub fn spec_string(&self) -> String {
        match self {
            DispatchSpec::RoundRobin => "round-robin".to_owned(),
            DispatchSpec::Hash { flows } => format!("hash:flows={flows}"),
            DispatchSpec::LeastLoaded { flows } => format!("least-loaded:flows={flows}"),
        }
    }
}

impl fmt::Display for DispatchSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.spec_string())
    }
}

impl FromStr for DispatchSpec {
    type Err = SpecError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DispatchSpec::parse(s)
    }
}

const FLOWS_PARAM: ParamInfo = ParamInfo {
    key: "flows",
    default: "256",
    help: "statistical flows sharded across chips (heavy-tailed weights)",
};

/// The built-in dispatchers, in listing order.
pub static DISPATCHERS: Registry<DispatchSpec> = Registry::new(
    "dispatcher",
    &[
        Entry {
            name: "round-robin",
            aliases: &["rr", "spray"],
            summary: "packet spraying: exactly 1/N of the load per chip",
            params: &[],
            build: build_round_robin,
        },
        Entry {
            name: "hash",
            aliases: &["flow-hash"],
            summary: "flow hashing: sticky flows, elephant-skewed shares",
            params: &[FLOWS_PARAM],
            build: build_hash,
        },
        Entry {
            name: "least-loaded",
            aliases: &["ll", "jsq"],
            summary: "greedy least-loaded flow placement, near-uniform shares",
            params: &[FLOWS_PARAM],
            build: build_least_loaded,
        },
    ],
);

fn take_flows(params: &mut Params) -> Result<u64, SpecError> {
    let flows = params.u64("flows", DEFAULT_FLOWS)?;
    if flows == 0 {
        return Err(SpecError::InvalidValue {
            key: "flows".to_owned(),
            value: "0".to_owned(),
            expected: "at least one flow",
        });
    }
    Ok(flows)
}

fn build_round_robin(params: Params) -> Result<DispatchSpec, SpecError> {
    params.finish("round-robin")?;
    Ok(DispatchSpec::RoundRobin)
}

fn build_hash(mut params: Params) -> Result<DispatchSpec, SpecError> {
    let flows = take_flows(&mut params)?;
    params.finish("hash")?;
    Ok(DispatchSpec::Hash { flows })
}

fn build_least_loaded(mut params: Params) -> Result<DispatchSpec, SpecError> {
    let flows = take_flows(&mut params)?;
    params.finish("least-loaded")?;
    Ok(DispatchSpec::LeastLoaded { flows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_shares_sum_to_one(shares: &[f64]) {
        let sum: f64 = shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
        for s in shares {
            assert!((0.0..=1.0).contains(s), "share {s} out of range");
        }
    }

    #[test]
    fn round_robin_is_exactly_uniform() {
        let shares = RoundRobin.shares(8, 42);
        assert_eq!(shares, vec![0.125; 8]);
        // A single chip carries exactly the whole load (bit-exact: this
        // is what makes the degenerate fleet identical to one chip).
        assert_eq!(RoundRobin.shares(1, 42), vec![1.0]);
    }

    #[test]
    fn single_chip_always_gets_the_whole_load() {
        for spec in [
            DispatchSpec::RoundRobin,
            DispatchSpec::Hash { flows: 64 },
            DispatchSpec::LeastLoaded { flows: 64 },
        ] {
            assert_eq!(spec.build().shares(1, 42), vec![1.0], "{spec}");
        }
    }

    #[test]
    fn hash_shares_are_skewed_but_normalised() {
        let shares = HashDispatch { flows: 256 }.shares(8, 42);
        assert_shares_sum_to_one(&shares);
        let max = shares.iter().cloned().fold(0.0, f64::max);
        let min = shares.iter().cloned().fold(1.0, f64::min);
        // Heavy-tailed flows hashed to 8 buckets are visibly unequal.
        assert!(max > 1.5 * min, "hash shares suspiciously even: {shares:?}");
    }

    #[test]
    fn least_loaded_is_more_even_than_hash() {
        let hash = HashDispatch { flows: 256 }.shares(8, 42);
        let ll = LeastLoaded { flows: 256 }.shares(8, 42);
        assert_shares_sum_to_one(&ll);
        let spread = |s: &[f64]| {
            s.iter().cloned().fold(0.0, f64::max) - s.iter().cloned().fold(1.0, f64::min)
        };
        assert!(
            spread(&ll) < spread(&hash),
            "least-loaded {ll:?} not tighter than hash {hash:?}"
        );
    }

    #[test]
    fn shares_are_a_pure_function_of_seed() {
        let d = HashDispatch { flows: 128 };
        assert_eq!(d.shares(4, 7), d.shares(4, 7));
        assert_ne!(d.shares(4, 7), d.shares(4, 8));
    }

    #[test]
    fn spec_round_trips_through_the_cli_grammar() {
        for spec in [
            DispatchSpec::RoundRobin,
            DispatchSpec::Hash { flows: 512 },
            DispatchSpec::LeastLoaded { flows: 32 },
        ] {
            let text = spec.spec_string();
            assert_eq!(text.parse::<DispatchSpec>().unwrap(), spec, "{text}");
        }
    }
}
