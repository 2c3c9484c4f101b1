//! Discrete-event simulation kernel used by the NePSim-style NPU model.
//!
//! This crate provides the small, reusable pieces that any cycle-level or
//! transaction-level architecture simulator needs:
//!
//! * [`SimTime`] — integer picosecond simulated time with saturating
//!   arithmetic and conversions to/from engineering units,
//! * [`Frequency`] — clock frequencies with exact cycle/time conversions,
//! * [`EventQueue`] — a deterministic future-event list (ties broken in
//!   insertion order, so simulations are reproducible), with FIFO lanes
//!   that make events from monotone streams cheaper without changing the
//!   order anything pops in,
//! * [`rng`] — seeded random-number helpers so every experiment is
//!   reproducible from a single `u64` seed.
//!
//! # Example
//!
//! ```
//! use desim::{EventQueue, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick, Tock }
//!
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_ns(10), Ev::Tock);
//! q.schedule(SimTime::from_ns(5), Ev::Tick);
//!
//! let (t, ev) = q.pop().expect("queue is non-empty");
//! assert_eq!(t, SimTime::from_ns(5));
//! assert_eq!(ev, Ev::Tick);
//! ```
//!
//! # Lanes
//!
//! A stream whose event times never decrease in the order they are
//! scheduled — the completions of a first-come first-served server —
//! can go to a FIFO lane instead of the heap: O(1) per push and pop
//! instead of O(log n). Every event still takes its sequence number
//! from one counter, so the queue pops exactly the global `(time, seq)`
//! order a single heap would, and [`EventQueue::schedule_lane`] panics,
//! in every build, on a push that would break the lane's order.
//!
//! ```
//! use desim::{EventQueue, SimTime};
//!
//! const MEMORY: usize = 0;
//! let mut q = EventQueue::with_lanes(1);
//! q.schedule(SimTime::from_ns(20), "window");
//! q.schedule_lane(MEMORY, SimTime::from_ns(10), "read done");
//! q.schedule_lane(MEMORY, SimTime::from_ns(20), "write done"); // ties pop FIFO
//!
//! let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
//! assert_eq!(order, ["read done", "window", "write done"]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod queue;
pub mod rng;
mod time;

pub use obs::KernelCounters;
pub use queue::EventQueue;
pub use time::{Frequency, SimTime};
