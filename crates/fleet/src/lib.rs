//! Fleet simulation: N NPUs behind a load balancer with a fleet-wide
//! power budget.
//!
//! The source paper studies DVS policies on *one* simulated IXP1200;
//! this crate scales the same simulation kernel to a fleet. Three new
//! axes compose with everything the workspace already has:
//!
//! * **Dispatch** — a [`Dispatcher`] shards one aggregate
//!   [`traffic::TrafficModel`] into per-chip sub-streams
//!   ([`traffic::Thinned`]), seeded `derive_seed(fleet_seed, chip)`.
//!   Built-ins: `round-robin`, `hash`, `least-loaded`.
//! * **Per-chip DVS** — every chip runs its own `NpuConfig` and
//!   [`dvs::DvsPolicy`], exactly as in a single-chip experiment.
//! * **The global power tier** — a [`FleetPolicy`] turns a fleet-wide
//!   watt budget into per-chip, per-epoch power caps from causal
//!   offered-load telemetry; [`CappedPolicy`] enforces each chip's cap
//!   on top of its own DVS policy. Built-ins: `none`, `static-cap`,
//!   `cap-realloc`.
//!
//! [`run_fleet`] executes the chips as jobs on the [`xrun::Runner`]
//! pool (submission-ordered, so results are bit-identical for any
//! worker count) and folds per-chip reports into fleet-level
//! [`FleetDist`]/[`ChipDist`] distributions, with confidence intervals
//! when replicated.
//!
//! Dispatchers and fleet policies are described by [`DispatchSpec`] and
//! [`FleetPolicySpec`], written in the same `kvspec` spec grammar as
//! policies and traffic models (`name:key=val,...`) and discoverable
//! through the entry tables [`DISPATCHERS`] / [`FLEET_POLICIES`], each
//! a `kvspec` [`Registry`].
//!
//! # Example
//!
//! ```
//! use fleet::{run_fleet, DispatchSpec, FleetConfig};
//! use xrun::Runner;
//!
//! let mut config = FleetConfig::new(2);
//! config.cycles = 150_000;
//! config.dispatch = "least-loaded:flows=64".parse::<DispatchSpec>().unwrap();
//! let outcome = run_fleet(&config, 1, &Runner::serial());
//! assert!(outcome.errors.is_empty());
//! assert!(outcome.report.fleet.forwarded_packets.mean() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod capped;
mod config;
mod dispatch;
mod metrics;
mod policy;
mod runner;

pub use capped::CappedPolicy;
pub use config::FleetConfig;
pub use dispatch::{DispatchSpec, Dispatcher, HashDispatch, LeastLoaded, RoundRobin, DISPATCHERS};
// Re-export the shared grammar machinery so custom tooling needs only
// this crate.
pub use kvspec::{ParamInfo, Params, Registry, SpecError};
pub use metrics::{ChipDist, FleetDist, FleetSample};
pub use policy::{
    cap_level, CapPlan, CapRealloc, FleetPolicy, FleetPolicySpec, FleetTelemetry, PassThrough,
    StaticCap, FLEET_POLICIES,
};
pub use runner::{chip_seed, replicate_seeds, run_fleet, FleetOutcome, FleetReport};

// Re-export the observability types a [`FleetOutcome`] carries, so
// downstream callers need only `fleet` to consume recordings.
pub use obs::{Channel, HistogramSketch, Recording};
