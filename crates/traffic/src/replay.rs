//! Recorded packet traces: capture an arrival process once, replay it
//! byte-for-byte.
//!
//! The paper's experiments replay *recorded* NLANR traffic samples rather
//! than live generators (§3.2). This module provides the same workflow:
//! [`RecordedTrace::record`] captures a window of any packet iterator,
//! the text format survives a round-trip to disk, and the trace replays
//! into the simulator through its iterator.
//!
//! Parsed traces are cached process-wide behind an `Arc` keyed by path:
//! a sweep that builds hundreds of cells from one `trace:path=` spec
//! parses the file exactly once and every [`ReplayModel`] shares the
//! same allocation. Replays can also be rate-scaled
//! (`trace:path=...,scale=1.3`) by deterministic packet
//! thinning/duplication.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use desim::SimTime;
use kvspec::SpecError;
use serde::{Deserialize, Serialize};

use crate::{Packet, PacketSource, TrafficModel, MAX_PACKET_BYTES};

/// A finite, recorded sequence of packet arrivals.
///
/// # Example
///
/// ```
/// use desim::SimTime;
/// use traffic::{ArrivalConfig, PacketStream, RecordedTrace};
///
/// let stream = PacketStream::new(ArrivalConfig::default(), 7);
/// let trace = RecordedTrace::record(stream, SimTime::from_us(200));
/// assert!(!trace.is_empty());
/// // Round-trips through its text format.
/// let back = RecordedTrace::from_text(&trace.to_text()).unwrap();
/// assert_eq!(back, trace);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RecordedTrace {
    packets: Vec<Packet>,
}

impl RecordedTrace {
    /// Captures every packet of `source` arriving strictly before
    /// `horizon`.
    #[must_use]
    pub fn record<I: IntoIterator<Item = Packet>>(source: I, horizon: SimTime) -> Self {
        RecordedTrace {
            packets: source
                .into_iter()
                .take_while(|p| p.arrival < horizon)
                .collect(),
        }
    }

    /// Builds a trace from explicit packets.
    ///
    /// # Panics
    ///
    /// Panics if arrivals are not non-decreasing — a replayed trace must
    /// be a valid timeline.
    #[must_use]
    pub fn from_packets(packets: Vec<Packet>) -> Self {
        assert!(
            packets.windows(2).all(|w| w[0].arrival <= w[1].arrival),
            "recorded packets must be in arrival order"
        );
        RecordedTrace { packets }
    }

    /// Number of recorded packets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Total recorded bits.
    #[must_use]
    pub fn total_bits(&self) -> u64 {
        self.packets.iter().map(Packet::size_bits).sum()
    }

    /// Mean rate over the recorded span, Mbps (0 for traces shorter than
    /// two packets).
    #[must_use]
    pub fn mean_rate_mbps(&self) -> f64 {
        match (self.packets.first(), self.packets.last()) {
            (Some(first), Some(last)) if last.arrival > first.arrival => {
                self.total_bits() as f64 / (last.arrival - first.arrival).as_us()
            }
            _ => 0.0,
        }
    }

    /// The recorded packets.
    #[must_use]
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// Serialises as text: one `arrival_us size_bytes port` line per
    /// packet under a header.
    #[must_use]
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("arrival_ps size_bytes port\n");
        for p in &self.packets {
            let _ = writeln!(out, "{} {} {}", p.arrival.as_ps(), p.size_bytes, p.port);
        }
        out
    }

    /// Parses the format produced by [`RecordedTrace::to_text`].
    ///
    /// `#`-prefixed lines are comments — `abdex trace generate` writes
    /// a versioned provenance header with them — and are skipped along
    /// with the column header.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for malformed input or
    /// out-of-order arrivals.
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut packets = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with("arrival_ps") {
                continue;
            }
            let cols: Vec<&str> = line.split_whitespace().collect();
            if cols.len() != 3 {
                return Err(format!("line {}: expected 3 columns", lineno + 1));
            }
            let bad = |what: &str| format!("line {}: bad {what}", lineno + 1);
            let packet = Packet {
                arrival: SimTime::from_ps(cols[0].parse().map_err(|_| bad("arrival"))?),
                size_bytes: cols[1]
                    .parse()
                    .ok()
                    .filter(|size| (1..=MAX_PACKET_BYTES).contains(size))
                    .ok_or_else(|| bad("size"))?,
                port: cols[2].parse().map_err(|_| bad("port"))?,
            };
            if let Some(prev) = packets.last() {
                let prev: &Packet = prev;
                if packet.arrival < prev.arrival {
                    return Err(format!("line {}: arrivals out of order", lineno + 1));
                }
            }
            packets.push(packet);
        }
        Ok(RecordedTrace { packets })
    }
}

impl TrafficModel for RecordedTrace {
    fn mean_rate_mbps(&self) -> f64 {
        RecordedTrace::mean_rate_mbps(self)
    }

    /// A finite trace self-describes over a horizon by the bits it
    /// actually delivers there — replay is exact, not statistical.
    fn expected_rate_mbps(&self, horizon_us: f64) -> f64 {
        if !horizon_us.is_finite() || horizon_us <= 0.0 {
            return 0.0;
        }
        let horizon = SimTime::from_us_f64(horizon_us);
        let bits: u64 = self
            .packets
            .iter()
            .take_while(|p| p.arrival < horizon)
            .map(Packet::size_bits)
            .sum();
        bits as f64 / horizon_us
    }

    /// Replay ignores the seed: the recording *is* the randomness.
    fn stream(&self, _seed: u64) -> PacketSource {
        PacketSource::new(self.clone().into_iter())
    }
}

/// The `trace` entry of the traffic registry: a path to a recorded
/// trace in the [`RecordedTrace::to_text`] format, loaded when the
/// model is built (not when the spec is parsed, so specs stay pure
/// data), plus an offered-rate scale factor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayConfig {
    /// Filesystem path of the trace file.
    pub path: String,
    /// Offered-rate multiplier applied on replay (1 = byte-exact).
    /// Realised by deterministic thinning (< 1) or duplication (> 1) —
    /// see [`ReplayModel`].
    pub scale: f64,
}

/// The process-wide cache of parsed traces, keyed by spec path. A
/// sweep's worker threads all hit the same entry, so a multi-hundred-MB
/// capture is parsed once per process instead of once per cell build.
/// Entries live for the process: a file rewritten *after* its first
/// load keeps replaying the first parse (recordings are treated as
/// immutable inputs).
fn trace_cache() -> &'static Mutex<HashMap<String, Arc<RecordedTrace>>> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<RecordedTrace>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

impl ReplayConfig {
    /// A byte-exact replay of `path` (scale 1).
    #[must_use]
    pub fn new(path: impl Into<String>) -> Self {
        ReplayConfig {
            path: path.into(),
            scale: 1.0,
        }
    }

    /// The spec in CLI grammar, for error reports.
    fn spec_string(&self) -> String {
        format!("trace:path={},scale={}", self.path, self.scale)
    }

    /// The parsed trace for this config's path, shared process-wide:
    /// the first call per path reads and parses the file, every later
    /// call (any thread, any scale) clones the cached `Arc`.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Unbuildable`] when the file cannot be read
    /// or does not parse as a recorded trace. Failures are not cached,
    /// so a spec can recover once the file appears.
    pub fn load(&self) -> Result<Arc<RecordedTrace>, SpecError> {
        if let Some(cached) = trace_cache()
            .lock()
            .expect("trace cache poisoned")
            .get(&self.path)
        {
            return Ok(Arc::clone(cached));
        }
        let unbuildable = |reason: String| SpecError::Unbuildable {
            spec: self.spec_string(),
            reason,
        };
        // Parse outside the lock — a slow multi-MB parse must not stall
        // every other cell build. Two threads racing the first load of
        // one path both parse, and the loser adopts the winner's entry.
        let text = std::fs::read_to_string(&self.path)
            .map_err(|e| unbuildable(format!("cannot read '{}': {e}", self.path)))?;
        let parsed = Arc::new(RecordedTrace::from_text(&text).map_err(unbuildable)?);
        Ok(Arc::clone(
            trace_cache()
                .lock()
                .expect("trace cache poisoned")
                .entry(self.path.clone())
                .or_insert(parsed),
        ))
    }

    /// Builds the live replay model: the cached trace plus this
    /// config's scale.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Unbuildable`] when the trace cannot be
    /// loaded.
    pub fn build_model(&self) -> Result<ReplayModel, SpecError> {
        Ok(ReplayModel {
            trace: self.load()?,
            scale: self.scale,
        })
    }
}

/// A recorded trace replayed at a scaled offered rate.
///
/// Packet `i` of the recording is emitted
/// `⌊(i+1)·scale⌋ − ⌊i·scale⌋` times — the classic deterministic
/// decimation/duplication rule. Over n packets that emits exactly
/// `⌊n·scale⌋` packets spread evenly through the recording, so a
/// `scale` of 0.5 thins every other packet, 1 replays byte-exactly and
/// 1.3 duplicates every ~third packet *at its recorded arrival time*
/// (bursts scale in place; the timeline is untouched). The rule is a
/// pure function of the index, so scaled replay is exactly as
/// reproducible as plain replay and [`expected_rate_mbps`] can
/// self-describe the realised rate exactly rather than approximately.
///
/// [`expected_rate_mbps`]: TrafficModel::expected_rate_mbps
#[derive(Debug, Clone)]
pub struct ReplayModel {
    trace: Arc<RecordedTrace>,
    scale: f64,
}

/// Copies of recording index `i` a scaled replay emits.
fn scaled_count(index: usize, scale: f64) -> u64 {
    let below = (index as f64 * scale).floor();
    let above = ((index + 1) as f64 * scale).floor();
    (above - below) as u64
}

impl ReplayModel {
    /// The shared parsed recording (one allocation per path per
    /// process).
    #[must_use]
    pub fn trace(&self) -> &Arc<RecordedTrace> {
        &self.trace
    }

    /// The offered-rate multiplier.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Total bits the scaled replay emits strictly before `horizon`
    /// (the whole recording when `None`).
    fn scaled_bits(&self, horizon: Option<SimTime>) -> u64 {
        self.trace
            .packets()
            .iter()
            .enumerate()
            .take_while(|(_, p)| horizon.is_none_or(|h| p.arrival < h))
            .map(|(i, p)| scaled_count(i, self.scale) * p.size_bits())
            .sum()
    }
}

impl TrafficModel for ReplayModel {
    fn mean_rate_mbps(&self) -> f64 {
        match (self.trace.packets().first(), self.trace.packets().last()) {
            (Some(first), Some(last)) if last.arrival > first.arrival => {
                self.scaled_bits(None) as f64 / (last.arrival - first.arrival).as_us()
            }
            _ => 0.0,
        }
    }

    /// Exact: the bits the scaled emission rule delivers before the
    /// horizon, over the horizon.
    fn expected_rate_mbps(&self, horizon_us: f64) -> f64 {
        if !horizon_us.is_finite() || horizon_us <= 0.0 {
            return 0.0;
        }
        let horizon = SimTime::from_us_f64(horizon_us);
        self.scaled_bits(Some(horizon)) as f64 / horizon_us
    }

    /// Replay ignores the seed: the recording *is* the randomness.
    fn stream(&self, _seed: u64) -> PacketSource {
        PacketSource::new(ScaledReplayIter {
            trace: Arc::clone(&self.trace),
            scale: self.scale,
            next_index: 0,
            pending: 0,
        })
    }
}

/// Iterates the recording, emitting each packet its scaled number of
/// times. Shares the cached trace instead of cloning it per stream.
struct ScaledReplayIter {
    trace: Arc<RecordedTrace>,
    scale: f64,
    /// Index of the next recording packet to expand.
    next_index: usize,
    /// Copies of packet `next_index - 1` still to emit.
    pending: u64,
}

impl Iterator for ScaledReplayIter {
    type Item = Packet;
    fn next(&mut self) -> Option<Packet> {
        while self.pending == 0 {
            if self.next_index >= self.trace.len() {
                return None;
            }
            self.pending = scaled_count(self.next_index, self.scale);
            self.next_index += 1;
        }
        self.pending -= 1;
        Some(self.trace.packets()[self.next_index - 1])
    }
}

impl IntoIterator for RecordedTrace {
    type Item = Packet;
    type IntoIter = std::vec::IntoIter<Packet>;
    fn into_iter(self) -> Self::IntoIter {
        self.packets.into_iter()
    }
}

impl<'a> IntoIterator for &'a RecordedTrace {
    type Item = &'a Packet;
    type IntoIter = std::slice::Iter<'a, Packet>;
    fn into_iter(self) -> Self::IntoIter {
        self.packets.iter()
    }
}

impl FromIterator<Packet> for RecordedTrace {
    /// # Panics
    ///
    /// Panics if arrivals are out of order (see
    /// [`RecordedTrace::from_packets`]).
    fn from_iter<T: IntoIterator<Item = Packet>>(iter: T) -> Self {
        RecordedTrace::from_packets(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ArrivalConfig, PacketStream, TrafficLevel};

    fn sample() -> RecordedTrace {
        let stream = PacketStream::new(ArrivalConfig::for_level(TrafficLevel::High), 7);
        RecordedTrace::record(stream, SimTime::from_us(500))
    }

    #[test]
    fn records_up_to_horizon() {
        let trace = sample();
        assert!(trace.len() > 50, "only {} packets", trace.len());
        assert!(trace
            .packets()
            .iter()
            .all(|p| p.arrival < SimTime::from_us(500)));
    }

    #[test]
    fn text_round_trip_is_exact() {
        let trace = sample();
        let back = RecordedTrace::from_text(&trace.to_text()).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn mean_rate_matches_generator_scale() {
        let stream = PacketStream::new(ArrivalConfig::for_level(TrafficLevel::High), 7);
        let trace = RecordedTrace::record(stream, SimTime::from_ms(50));
        let rate = trace.mean_rate_mbps();
        assert!(
            (rate - 1150.0).abs() / 1150.0 < 0.15,
            "recorded rate {rate:.0} Mbps"
        );
    }

    #[test]
    fn from_text_rejects_malformed_and_unordered() {
        assert!(RecordedTrace::from_text("1 2").is_err());
        assert!(RecordedTrace::from_text("x 40 0").is_err());
        assert!(RecordedTrace::from_text("100 40 0\n50 40 0").is_err());
        // Sizes outside 1..=MAX_PACKET_BYTES name their line.
        for size in [0, MAX_PACKET_BYTES + 1, u32::MAX] {
            let text = format!("# abdex-trace v1\n100 40 0\n200 {size} 1\n");
            let err = RecordedTrace::from_text(&text).unwrap_err();
            assert_eq!(err, "line 3: bad size", "size {size}");
        }
        let max = format!("100 {MAX_PACKET_BYTES} 0");
        assert_eq!(RecordedTrace::from_text(&max).unwrap().len(), 1);
        assert_eq!(RecordedTrace::from_text("").unwrap().len(), 0);
    }

    #[test]
    fn from_text_skips_comment_headers() {
        let text = "# abdex-trace v1\n# traffic: stochastic\n1000 40 0\n2000 64 1\n";
        let trace = RecordedTrace::from_text(text).unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.packets()[1].size_bytes, 64);
    }

    #[test]
    #[should_panic(expected = "arrival order")]
    fn from_packets_rejects_unordered() {
        let p = |us| Packet {
            arrival: SimTime::from_us(us),
            size_bytes: 40,
            port: 0,
        };
        let _ = RecordedTrace::from_packets(vec![p(10), p(5)]);
    }

    #[test]
    fn empty_trace_is_benign() {
        let t = RecordedTrace::default();
        assert!(t.is_empty());
        assert_eq!(t.total_bits(), 0);
        assert_eq!(t.mean_rate_mbps(), 0.0);
    }

    /// Writes `trace` under a unique name in a per-process scratch dir
    /// and returns the path.
    fn write_trace(name: &str, trace: &RecordedTrace) -> String {
        let dir = std::env::temp_dir().join(format!("traffic-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join(name);
        std::fs::write(&path, trace.to_text()).expect("write trace");
        path.display().to_string()
    }

    #[test]
    fn models_from_the_same_spec_share_one_parsed_trace() {
        let path = write_trace("shared.txt", &sample());
        let config = ReplayConfig::new(&path);
        let a = config.build_model().unwrap();
        let b = config.build_model().unwrap();
        // One parse per process: both models hold the same allocation.
        assert!(Arc::ptr_eq(a.trace(), b.trace()));
        // A different scale still shares the recording.
        let scaled = ReplayConfig {
            scale: 1.5,
            ..config
        }
        .build_model()
        .unwrap();
        assert!(Arc::ptr_eq(a.trace(), scaled.trace()));
    }

    #[test]
    fn cache_survives_the_file_changing_on_disk() {
        let path = write_trace("cached.txt", &sample());
        let config = ReplayConfig::new(&path);
        let first = config.build_model().unwrap();
        // Clobber the file; the spec keeps replaying the first parse —
        // recordings are immutable inputs for the life of the process.
        std::fs::write(&path, "not a trace").expect("overwrite");
        let second = config.build_model().unwrap();
        assert!(Arc::ptr_eq(first.trace(), second.trace()));
        assert_eq!(
            first.stream(0).collect::<Vec<_>>(),
            second.stream(0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn load_failures_are_not_cached() {
        let dir = std::env::temp_dir().join(format!("traffic-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("late.txt").display().to_string();
        let config = ReplayConfig::new(&path);
        assert!(config.load().is_err());
        std::fs::write(&path, sample().to_text()).expect("write trace");
        assert!(
            config.load().is_ok(),
            "spec must recover once the file appears"
        );
    }

    #[test]
    fn unit_scale_replays_byte_exactly() {
        let trace = sample();
        let path = write_trace("unit.txt", &trace);
        let model = ReplayConfig::new(&path).build_model().unwrap();
        assert_eq!(model.scale(), 1.0);
        let replayed: Vec<Packet> = model.stream(3).collect();
        assert_eq!(replayed, trace.packets());
        assert!((model.mean_rate_mbps() - trace.mean_rate_mbps()).abs() < 1e-9);
    }

    #[test]
    fn scaled_counts_emit_exactly_floor_n_scale() {
        for scale in [0.25, 0.5, 0.9, 1.0, 1.3, 2.0, 2.7] {
            for n in [1usize, 7, 100, 1234] {
                let total: u64 = (0..n).map(|i| scaled_count(i, scale)).sum();
                assert_eq!(
                    total,
                    (n as f64 * scale).floor() as u64,
                    "scale {scale}, n {n}"
                );
            }
        }
    }

    #[test]
    fn scaling_thins_and_duplicates_deterministically() {
        let trace = sample();
        let path = write_trace("scaled.txt", &trace);
        for scale in [0.5, 1.3, 2.0] {
            let model = ReplayConfig {
                scale,
                ..ReplayConfig::new(&path)
            }
            .build_model()
            .unwrap();
            let packets: Vec<Packet> = model.stream(7).collect();
            assert_eq!(
                packets.len() as u64,
                (trace.len() as f64 * scale).floor() as u64,
                "scale {scale}"
            );
            // Deterministic: the seed changes nothing, re-streaming
            // changes nothing.
            assert_eq!(packets, model.stream(8).collect::<Vec<_>>());
            // Timeline intact: arrivals are a monotone subsequence (or
            // in-place duplication) of the recording.
            assert!(packets.windows(2).all(|w| w[0].arrival <= w[1].arrival));
            // Honest self-description: the realised rate over the
            // recorded window matches the scaled expectation exactly.
            let horizon_us = 500.0;
            let bits: u64 = packets
                .iter()
                .filter(|p| p.arrival < SimTime::from_us_f64(horizon_us))
                .map(Packet::size_bits)
                .sum();
            let expected = model.expected_rate_mbps(horizon_us);
            assert!(
                (bits as f64 / horizon_us - expected).abs() < 1e-9,
                "scale {scale}: measured {} vs expected {expected}",
                bits as f64 / horizon_us
            );
        }
    }

    #[test]
    fn scale_spec_round_trips_and_validates() {
        let spec = crate::TrafficSpec::parse("trace:path=/tmp/t.txt,scale=1.3").unwrap();
        let crate::TrafficSpec::Replay(c) = &spec else {
            panic!("wrong variant: {spec:?}");
        };
        assert_eq!(c.scale, 1.3);
        assert_eq!(spec.spec_string(), "trace:path=/tmp/t.txt,scale=1.3");
        // Omitted scale defaults to byte-exact replay.
        let spec = crate::TrafficSpec::parse("trace:path=/tmp/t.txt").unwrap();
        let crate::TrafficSpec::Replay(c) = &spec else {
            panic!("wrong variant: {spec:?}");
        };
        assert_eq!(c.scale, 1.0);
        // Zero or negative scales are rejected at parse time.
        assert!(crate::TrafficSpec::parse("trace:path=/tmp/t.txt,scale=0").is_err());
        assert!(crate::TrafficSpec::parse("trace:path=/tmp/t.txt,scale=-1").is_err());
    }
}
