//! A NePSim-style cycle-level network-processor simulator with power
//! estimation, patterned after the Intel IXP1200 reference design the
//! paper's experiments run on (§2.1, §3).
//!
//! The modelled chip contains:
//!
//! * six multi-threaded **microengines** (MEs) — four receive/process
//!   packets, two transmit (the paper's rx/tx split), four hardware
//!   threads each with zero-cost context switching on memory blocks;
//! * **SRAM** and **SDRAM** controllers with fixed clocks (scaled 1.3× the
//!   IXP1200 per paper §4.1) and queueing delay — an SDRAM access can take
//!   ~100 core cycles under load, the source of ME idle time (§4.2);
//! * a shared **IX bus** transmit path that caps media throughput;
//! * bounded receive/transmit **packet FIFOs** with drop accounting;
//! * an activity-based **power model** (`P ∝ C·V²·α·f`) with per-component
//!   energy metering and the TDVS monitor-adder overhead;
//! * pluggable **DVS policies** from the [`dvs`] crate, applied at monitor
//!   window boundaries with the paper's 10 µs switch penalty;
//! * **trace emission** of `pipeline`, `forward` and `fifo` events with the
//!   `cycle/time/energy/total_pkt/total_bit` annotations of paper Fig. 3/4,
//!   consumable by the [`loc`] checkers and analyzers: buffered by
//!   default, or streamed into an [`AnalyzerBank`] attached with
//!   [`Simulator::with_analyzers`], which buffers nothing.
//!
//! # Example
//!
//! ```
//! use nepsim::{Benchmark, NpuConfig, Simulator};
//! use traffic::TrafficLevel;
//!
//! let config = NpuConfig::builder()
//!     .benchmark(Benchmark::Ipfwdr)
//!     .traffic(TrafficLevel::Medium)
//!     .seed(1)
//!     .build();
//! let mut sim = Simulator::new(config);
//! let report = sim.run_cycles(200_000); // short smoke run
//! assert!(report.forwarded_packets > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod engine;
mod memory;
mod power;
mod report;
mod sim;
mod trace_out;
mod workload;

pub use config::{NpuConfig, NpuConfigBuilder, PowerParams, TraceConfig};
pub use dvs::PolicySpec;
pub use engine::{MeMode, MeRole, ModeAcc};
pub use loc::{AnalyzerBank, BankResults};
pub use memory::{MemoryController, MemoryParams};
pub use obs::{Channel, MemRecorder, NullRecorder, Recorder, Recording};
pub use power::EnergyMeter;
pub use report::{MeReport, SimReport, WindowIdleSample};
pub use sim::Simulator;
pub use traffic::TrafficSpec;
pub use workload::{Benchmark, Segment};
