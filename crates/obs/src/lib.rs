//! Instrumentation layer for the simulation stack.
//!
//! Three pieces, all deterministic by construction:
//!
//! - **Recording**: a [`Recorder`] sink with typed [`Channel`]s that the
//!   simulator emits into at epoch (policy-window) boundaries. The
//!   default [`NullRecorder`] reports `enabled() == false`, so an
//!   uninstrumented run never computes a sample — the disabled path
//!   stays bit-identical to a build without the layer. [`MemRecorder`]
//!   keeps every sample in emission order and hands back a
//!   [`Recording`].
//! - **Sketching**: a fixed-bin log2 [`HistogramSketch`] giving
//!   p50/p95/p99 over any channel. Bins are a pure function of the
//!   value's bit pattern and [`HistogramSketch::merge`] just adds
//!   counts, so folds are exact and order-free — percentiles are
//!   bit-identical for any worker count, exactly like `stats::Summary`
//!   means.
//! - **Kernel counters**: [`KernelCounters`], the event-kernel tallies
//!   (events scheduled/processed, peak heap occupancy) every simulation
//!   report carries and `--profile-summary` reports.
//!
//! A fourth piece, [`prof`], is deliberately *not* deterministic: a
//! host-side wall-clock span profiler exporting Chrome-trace JSON and
//! the one stderr telemetry report (`--profile-summary`). The simulator
//! feeds each run's kernel work into its counters, so the report shows
//! the kernel work of exactly the simulations an invocation ran. Its
//! output only ever leaves through stderr or a dedicated trace file,
//! never through the deterministic stdout documents.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::str::FromStr;

pub mod prof;
pub mod sketch;

pub use sketch::HistogramSketch;

/// A typed stream of per-epoch samples.
///
/// The discriminant order is the canonical channel order: recordings
/// list a window's samples in this order, and every exporter iterates
/// [`Channel::ALL`], so serialized output is independent of insertion
/// or hash order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Channel {
    /// Mean chip power over the epoch, watts.
    Power,
    /// Mean ME voltage/frequency level index over the epoch.
    VfLevel,
    /// Queue depth (RX FIFO + TX queue packets) at the epoch boundary.
    QueueDepth,
    /// Packets dropped (RX + TX) during the epoch.
    Drops,
    /// Bytes offered by the traffic source during the epoch.
    OfferedBytes,
    /// Bytes forwarded out of the chip during the epoch.
    ServedBytes,
    /// Mean sojourn (arrival to forward) of packets forwarded during
    /// the epoch, microseconds — 0 for epochs that forwarded nothing.
    QueueWaitUs,
}

impl Channel {
    /// Every channel, in canonical order.
    pub const ALL: [Channel; 7] = [
        Channel::Power,
        Channel::VfLevel,
        Channel::QueueDepth,
        Channel::Drops,
        Channel::OfferedBytes,
        Channel::ServedBytes,
        Channel::QueueWaitUs,
    ];

    /// The channel's stable wire name (used in JSONL export).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Channel::Power => "power_w",
            Channel::VfLevel => "vf_level",
            Channel::QueueDepth => "queue_depth",
            Channel::Drops => "drops",
            Channel::OfferedBytes => "offered_bytes",
            Channel::ServedBytes => "served_bytes",
            Channel::QueueWaitUs => "queue_wait_us",
        }
    }
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Channel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Channel::ALL
            .into_iter()
            .find(|c| c.name() == s)
            .ok_or_else(|| format!("unknown channel {s:?}"))
    }
}

/// One recorded observation: a channel value at a simulated cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The channel this sample belongs to.
    pub channel: Channel,
    /// Simulated base-clock cycle of the epoch boundary.
    pub cycle: u64,
    /// The observed value.
    pub value: f64,
}

/// A sink for per-epoch samples.
///
/// Emitters must guard sample *computation* behind [`Recorder::enabled`]
/// so a [`NullRecorder`] run does no extra arithmetic — that is what
/// keeps the disabled path near-zero-cost and bit-identical.
pub trait Recorder: fmt::Debug {
    /// Whether this recorder wants samples at all.
    fn enabled(&self) -> bool;

    /// Accepts one sample. Called only between `enabled()` checks, but
    /// implementations must still be safe to call unconditionally.
    fn record(&mut self, channel: Channel, cycle: u64, value: f64);

    /// Takes the accumulated recording, leaving the recorder empty.
    fn take(&mut self) -> Recording;
}

/// The default recorder: drops everything, reports disabled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _channel: Channel, _cycle: u64, _value: f64) {}

    fn take(&mut self) -> Recording {
        Recording::default()
    }
}

/// An in-memory recorder keeping every sample in emission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemRecorder {
    samples: Vec<Sample>,
}

impl MemRecorder {
    /// A fresh, empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Recorder for MemRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, channel: Channel, cycle: u64, value: f64) {
        self.samples.push(Sample {
            channel,
            cycle,
            value,
        });
    }

    fn take(&mut self) -> Recording {
        Recording {
            samples: std::mem::take(&mut self.samples),
        }
    }
}

/// The samples of one run, in emission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recording {
    samples: Vec<Sample>,
}

impl Recording {
    /// A recording from pre-collected samples (in emission order) —
    /// the reconstruction path cache decoders use.
    #[must_use]
    pub fn from_samples(samples: Vec<Sample>) -> Self {
        Recording { samples }
    }

    /// Every sample, in emission order.
    #[must_use]
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Samples of one channel, in emission order.
    pub fn channel(&self, channel: Channel) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(move |s| s.channel == channel)
    }

    /// The values of one channel, in emission order.
    #[must_use]
    pub fn values(&self, channel: Channel) -> Vec<f64> {
        self.channel(channel).map(|s| s.value).collect()
    }

    /// Number of samples across all channels.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the recording holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Folds one channel into a percentile sketch.
    #[must_use]
    pub fn sketch(&self, channel: Channel) -> HistogramSketch {
        let mut sketch = HistogramSketch::new();
        for sample in self.channel(channel) {
            sketch.record(sample.value);
        }
        sketch
    }
}

/// Event-kernel tallies for one simulation run.
///
/// Every field is a pure function of the simulated event sequence —
/// no wall-clock quantity may ever live here, because reports carrying
/// these counters are compared bit-exactly across worker counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelCounters {
    /// Events scheduled on the kernel's event queue (heap or lane).
    pub events_scheduled: u64,
    /// Events popped and dispatched.
    pub events_processed: u64,
    /// Peak number of events pending at once, counting the queue's heap
    /// and its FIFO lanes together — so routing events to lanes leaves
    /// the value unchanged.
    pub peak_heap_len: u64,
}

/// Result-cache telemetry: how many cell lookups hit, missed, and how
/// many fresh results were published.
///
/// Deliberately **not** part of any simulation report or JSON result
/// document — whether a cell came from the cache is observability, not
/// a result, and folding it into result documents would break the
/// byte-identity invariant between warm and cold runs. The CLI prints
/// these to stderr and `abdex cache stats` reads the persisted totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that returned an intact entry.
    pub hits: u64,
    /// Lookups that found nothing usable (including decode demotions).
    pub misses: u64,
    /// Fresh results published to the store.
    pub stores: u64,
}

impl CacheCounters {
    /// Total lookups (hits + misses).
    #[must_use]
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hits as a percentage of lookups; `None` when nothing was looked
    /// up (a rate over zero lookups would be noise, not telemetry).
    #[must_use]
    pub fn hit_rate_percent(&self) -> Option<f64> {
        match self.lookups() {
            0 => None,
            n => Some(100.0 * self.hits as f64 / n as f64),
        }
    }
}

impl fmt::Display for CacheCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hits, {} misses, {} stores",
            self.hits, self.misses, self.stores
        )?;
        if let Some(rate) = self.hit_rate_percent() {
            write!(f, " ({rate:.1}% hit rate)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_disabled_and_empty() {
        let mut r = NullRecorder;
        assert!(!r.enabled());
        r.record(Channel::Power, 0, 1.0);
        assert!(r.take().is_empty());
    }

    #[test]
    fn mem_recorder_keeps_emission_order() {
        let mut r = MemRecorder::new();
        r.record(Channel::Power, 10, 1.5);
        r.record(Channel::Drops, 10, 3.0);
        r.record(Channel::Power, 20, 1.25);
        let rec = r.take();
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.values(Channel::Power), vec![1.5, 1.25]);
        assert_eq!(rec.values(Channel::Drops), vec![3.0]);
        // take() drains: a second take is empty.
        assert!(r.take().is_empty());
    }

    #[test]
    fn channel_names_round_trip() {
        for channel in Channel::ALL {
            assert_eq!(channel.name().parse::<Channel>().unwrap(), channel);
        }
        assert!("nonesuch".parse::<Channel>().is_err());
    }

    #[test]
    fn recording_sketch_matches_manual_fold() {
        let mut r = MemRecorder::new();
        for (i, v) in [1.0, 2.0, 4.0, 8.0].into_iter().enumerate() {
            r.record(Channel::QueueDepth, i as u64, v);
        }
        let rec = r.take();
        let sketch = rec.sketch(Channel::QueueDepth);
        assert_eq!(sketch.count(), 4);
        let mut manual = HistogramSketch::new();
        for v in rec.values(Channel::QueueDepth) {
            manual.record(v);
        }
        assert_eq!(sketch, manual);
    }

    #[test]
    fn cache_counters_report_a_hit_rate() {
        let idle = CacheCounters::default();
        assert_eq!(idle.hit_rate_percent(), None);
        assert_eq!(idle.to_string(), "0 hits, 0 misses, 0 stores");
        let warm = CacheCounters {
            hits: 3,
            misses: 1,
            stores: 1,
        };
        assert_eq!(warm.hit_rate_percent(), Some(75.0));
        assert_eq!(
            warm.to_string(),
            "3 hits, 1 misses, 1 stores (75.0% hit rate)"
        );
        let cold = CacheCounters {
            hits: 0,
            misses: 32,
            stores: 32,
        };
        assert_eq!(
            cold.to_string(),
            "0 hits, 32 misses, 32 stores (0.0% hit rate)"
        );
    }
}
