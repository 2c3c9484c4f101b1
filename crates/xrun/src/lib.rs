//! **xrun** — a dependency-free parallel experiment runner for
//! simulation sweeps, compares and ablations.
//!
//! The paper's result grids — threshold × window surfaces, per-policy
//! comparison tables, ablations — are batches of *independent*
//! deterministic simulations: every cell owns its full configuration
//! (benchmark, traffic, policy, run length, **seed**), so cells can run
//! on any thread in any order and still produce bit-identical output.
//! This crate turns that observation into a small subsystem:
//!
//! * [`JobSpec`] — the domain description of one simulation cell
//!   (benchmark × traffic × [`PolicySpec`] × run length × seed) with a
//!   direct [`JobSpec::simulate`] entry point into the `nepsim`
//!   simulator,
//! * [`Job`] — a named unit of work returning any `Send` value, so
//!   callers can wrap richer pipelines (simulate **and** analyze) around
//!   a spec,
//! * [`Runner`] — a self-scheduling `std::thread` pool that executes a
//!   batch and returns results **in submission order**, isolating
//!   panicking jobs as per-job [`JobError`]s instead of killing the
//!   batch,
//! * [`ProgressSink`] — a pluggable observer ([`Quiet`], [`Dots`],
//!   [`Lines`]) for long batches. Runner telemetry (per-worker busy
//!   time and utilisation) is the profiler's job: every job runs in an
//!   `obs::prof` span, which `--profile-summary` folds per thread.
//!
//! No external crates: workers are `std::thread::scope` threads pulling
//! jobs off a shared queue, which keeps the workspace's offline-shims
//! constraint intact.
//!
//! # Determinism
//!
//! Parallel execution is bit-identical to serial execution because jobs
//! never share mutable state: each job derives everything from its own
//! spec (including its RNG seed — see [`derive_seed`] when replications
//! need distinct streams), and the runner reorders *results*, never
//! *effects*. `Runner::with_workers(1)` and `with_workers(n)` therefore
//! return equal batches for equal jobs.
//!
//! # Example
//!
//! ```
//! use xrun::{Job, Runner};
//!
//! let runner = Runner::new().with_workers(4);
//! let jobs: Vec<Job<'_, u64>> = (0..8u64)
//!     .map(|k| Job::new(format!("square {k}"), move || k * k))
//!     .collect();
//! let results = runner.run(jobs);
//! let squares: Vec<u64> = results
//!     .into_iter()
//!     .map(|r| r.outcome.expect("no job panicked"))
//!     .collect();
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod job;
mod progress;
mod runner;

pub use job::{derive_seed, Job, JobError, JobResult, JobSpec};
pub use progress::{Dots, Lines, ProgressMode, ProgressSink, Quiet};
pub use runner::{panic_message, Runner};

// Re-export the domain types a `JobSpec` is made of, so downstream
// callers need only `xrun` to describe a batch.
pub use nepsim::{Benchmark, PolicySpec, SimReport};
pub use traffic::{TrafficLevel, TrafficSpec};
