//! **abdex** — assertion-based design exploration of DVS in network
//! processor architectures.
//!
//! This crate is the top of the workspace reproducing Yu et al.,
//! *"Assertion-Based Design Exploration of DVS in Network Processor
//! Architectures"* (DATE 2005). It ties together:
//!
//! * [`nepsim`] — the IXP1200-style NPU simulator with power estimation,
//! * [`loc`] — the Logic-of-Constraints assertion language with the
//!   paper's distribution operators and auto-generated analyzers,
//! * [`dvs`] — the TDVS/EDVS policies and the XScale VF ladder,
//! * [`traffic`] — the synthetic NLANR-style IP traffic models,
//! * [`xrun`] — the parallel experiment runner every grid executes on,
//! * [`stats`] — streaming summaries, Student-t confidence intervals,
//!   Welch's t significance tests and the seed-derived replication
//!   batches behind every `--seeds` run,
//! * [`scenario`] — time-varying composite scenarios: named workloads
//!   over `schedule:` traffic specs, scenario files, and the
//!   segment-aware runner with per-window metric breakdowns,
//! * [`fleet`] — N NPUs behind a load balancer: pluggable dispatchers
//!   shard one aggregate stream across chips, and fleet power policies
//!   turn a fleet-wide watt budget into per-chip caps,
//!
//! and exposes the paper's experiment flow: run a simulation, collect the
//! trace, apply the LOC distribution formulas (2) and (3), and sweep the
//! design space to find optimal DVS configurations (§4). Every sweep,
//! comparison and ablation is one [`Grid`] run by [`run_grid`]; its
//! independent cells run on all available CPUs (see [`Runner`]) and the
//! results are bit-identical to serial execution.
//!
//! # Quickstart
//!
//! ```
//! use abdex::{Experiment, PolicySpec};
//! use abdex::nepsim::Benchmark;
//! use abdex::traffic::TrafficLevel;
//!
//! let result = Experiment {
//!     benchmark: Benchmark::Ipfwdr,
//!     traffic: TrafficLevel::Medium.into(),
//!     policy: PolicySpec::NoDvs,
//!     cycles: 300_000, // the paper runs 8_000_000
//!     seed: 1,
//! }
//! .run();
//! assert!(result.sim.forwarded_packets > 0);
//! // Fraction of 100-packet windows with average power below 1.5 W:
//! let frac = result.power.fraction_le(1.5);
//! assert!((0.0..=1.0).contains(&frac));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cachefmt;
pub mod compare;
pub mod experiment;
pub mod formulas;
pub mod json;
pub mod optimal;
pub mod record;
pub mod reference;
pub mod replicate;
pub mod summarize;
pub mod sweep;
pub mod tables;
pub mod traceio;

pub use cachefmt::run_cached;
pub use ccache::{Cache, CacheCounters, CacheStats, CACHE_EPOCH};
pub use dvs::{DvsPolicy, PolicyKind, PolicyRegistry, PolicySpec};
pub use experiment::{run_experiments, Experiment, ExperimentResult, PAPER_RUN_CYCLES};
pub use fleet::{
    run_fleet, DispatchRegistry, DispatchSpec, Dispatcher, FleetConfig, FleetOutcome, FleetPolicy,
    FleetPolicyRegistry, FleetPolicySpec, FleetReport,
};
pub use json::SCHEMA_VERSION;
pub use optimal::{optimal_tdvs, DesignPriority};
pub use record::{
    fleet_record_series, record_jsonl, render_obs_stats, scenario_record_series,
    try_replicated_run_recorded, RecordedSeries,
};
pub use replicate::{
    run_replicated_experiments, ReplicatedComparison, ReplicatedComparisonRow, ReplicatedResult,
};
pub use scenario::{
    builtin_scenarios, try_run_scenario, PolicyOutcome, Scenario, ScenarioRun, SegmentDist,
    SegmentMetrics, SegmentOutcome,
};
pub use stats::{
    welch_t, ConfidenceInterval, ConfidenceLevel, ReplicatedMetrics, Replication, Summary, WelchT,
};
pub use summarize::{summarize_record, ChannelSummary, RecordSummary};
pub use sweep::{run_grid, Axis, Cells, Grid, GridRun, TdvsGrid};
pub use traceio::{
    analyze_trace, generate_trace, parse_provenance, StreamStats, TraceAnalysis, TraceProvenance,
};
pub use traffic::{TrafficModel, TrafficRegistry, TrafficSpec};
pub use xrun::{Job, JobError, JobResult, JobSpec, ProgressMode, Runner};

// Re-export the substrate crates so downstream users need only `abdex`.
pub use ccache;
pub use desim;
pub use dvs;
pub use fleet;
pub use loc;
pub use nepsim;
pub use obs;
pub use scenario;
pub use stats;
pub use traffic;
pub use xrun;
