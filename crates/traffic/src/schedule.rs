//! The `schedule` traffic model: piecewise composition of other traffic
//! models over cycle windows.
//!
//! A schedule is a list of **segments**, each pairing a child
//! [`TrafficSpec`] with a half-open window of base-clock cycles:
//!
//! ```text
//! schedule:segments=[low@0..2e6; flash:peak_mbps=900@2e6..4e6; low@4e6..]
//! ```
//!
//! Windows are expressed in cycles of the 600 MHz base clock — the same
//! unit as every `--cycles` flag — must start at 0, be contiguous
//! (each segment starts where the previous one ended) and only the last
//! segment may leave its end open (`start..`). A schedule whose last
//! segment is bounded simply falls silent after it.
//!
//! Each segment's child stream is instantiated **fresh at the segment
//! start** with a seed derived from the schedule's seed and the segment
//! index ([`desim::rng::derive_seed`] — the same family function
//! `xrun::derive_seed` uses for replication), so segments are
//! statistically independent, reproducible, and adding a segment never
//! perturbs the packets of the ones before it.

use desim::rng::derive_seed;
use desim::{Frequency, SimTime};
use kvspec::{PVal, SpecError};
use serde::{Deserialize, Serialize};

use crate::registry::TRAFFIC_MODELS;
use crate::{Packet, PacketSource, TrafficModel, TrafficSpec};

/// The base (normal) core clock schedules are expressed in: 600 MHz,
/// the top of the XScale VF ladder. The traffic layer cannot see the
/// simulator's configured ladder, so `nepsim::NpuConfig::validate`
/// rejects a schedule-driven configuration whose base clock differs
/// from [`ScheduleConfig::base_clock`] — otherwise the windows would
/// silently land at the wrong simulated times.
fn base_clock() -> Frequency {
    Frequency::from_mhz(600)
}

/// One window of a schedule: a child traffic spec active over
/// `[start_cycles, end_cycles)` of the 600 MHz base clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleSegment {
    /// The child model active during this window.
    pub spec: TrafficSpec,
    /// First base-clock cycle of the window.
    pub start_cycles: u64,
    /// One past the last base-clock cycle of the window; `None` leaves
    /// the final segment open-ended.
    pub end_cycles: Option<u64>,
}

impl ScheduleSegment {
    /// Parses one list item of the segment grammar:
    /// `child_spec@start..end` (end omitted for an open-ended window).
    /// Cycle counts accept scientific notation (`2e6`).
    ///
    /// The `@` splitting at the *last* occurrence keeps child specs
    /// containing `@` (e.g. trace paths) parseable.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Malformed`] for an item without `@..`,
    /// [`SpecError::InvalidValue`] for unparsable cycle counts, and any
    /// error the child spec's own parser reports.
    pub fn parse(item: &str) -> Result<Self, SpecError> {
        let malformed = |reason: &str| SpecError::Malformed {
            input: item.to_owned(),
            reason: reason.to_owned(),
        };
        let (spec_text, range) = item
            .trim()
            .rsplit_once('@')
            .ok_or_else(|| malformed("expected child_spec@start..end"))?;
        let (start_text, end_text) = range
            .split_once("..")
            .ok_or_else(|| malformed("expected a start..end cycle range after '@'"))?;
        let start_cycles = parse_cycles(start_text)?;
        let end_text = end_text.trim();
        let end_cycles = if end_text.is_empty() {
            None
        } else {
            Some(parse_cycles(end_text)?)
        };
        let spec = TRAFFIC_MODELS.parse(spec_text)?;
        Ok(ScheduleSegment {
            spec,
            start_cycles,
            end_cycles,
        })
    }

    /// Renders the segment back into the list-item grammar;
    /// [`ScheduleSegment::parse`] of the result reproduces it (cycle
    /// counts render as plain integers).
    #[must_use]
    pub fn render(&self) -> String {
        match self.end_cycles {
            Some(end) => format!("{}@{}..{end}", self.spec.spec_string(), self.start_cycles),
            None => format!("{}@{}..", self.spec.spec_string(), self.start_cycles),
        }
    }

    /// The window start as simulated time.
    #[must_use]
    pub fn start_time(&self) -> SimTime {
        base_clock().cycles_to_time(self.start_cycles)
    }

    /// The window end as simulated time (`None` when open-ended).
    #[must_use]
    pub fn end_time(&self) -> Option<SimTime> {
        self.end_cycles.map(|c| base_clock().cycles_to_time(c))
    }
}

/// Parses a cycle count, accepting integer and float notation (`2e6`).
fn parse_cycles(text: &str) -> Result<u64, SpecError> {
    let text = text.trim();
    let invalid = || SpecError::InvalidValue {
        key: "segments".to_owned(),
        value: text.to_owned(),
        expected: "a non-negative whole cycle count (integer or 2e6-style)",
    };
    if let Ok(direct) = text.parse::<u64>() {
        return Ok(direct);
    }
    let as_float: f64 = text.parse().map_err(|_| invalid())?;
    if as_float.is_finite()
        && as_float >= 0.0
        && as_float.fract() == 0.0
        && as_float <= u64::MAX as f64
    {
        Ok(as_float as u64)
    } else {
        Err(invalid())
    }
}

/// Configuration of the `schedule` traffic model: the validated segment
/// list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduleConfig {
    /// The windows, in schedule order (contiguous, starting at cycle 0).
    pub segments: Vec<ScheduleSegment>,
}

impl ScheduleConfig {
    /// The clock schedule windows are expressed in (600 MHz, the
    /// paper's base core clock). Cycle counts in segment ranges and in
    /// a simulator's `--cycles` horizon only line up when the
    /// simulator runs this base clock; consumers with a configurable
    /// clock must check theirs against this one.
    #[must_use]
    pub fn base_clock() -> Frequency {
        base_clock()
    }

    /// Checks the structural rules every schedule must satisfy: at
    /// least one segment, the first starting at cycle 0, contiguous
    /// windows (each segment starts exactly where the previous ended),
    /// non-empty windows, and an open end only on the last segment.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Malformed`] naming the violated rule.
    pub fn check(&self) -> Result<(), SpecError> {
        let malformed = |reason: String| SpecError::Malformed {
            input: self.render_segments(),
            reason,
        };
        let Some(first) = self.segments.first() else {
            return Err(malformed(
                "a schedule needs at least one segment".to_owned(),
            ));
        };
        if first.start_cycles != 0 {
            return Err(malformed(format!(
                "the first segment must start at cycle 0, found {}",
                first.start_cycles
            )));
        }
        let last_index = self.segments.len() - 1;
        let mut expected_start = 0u64;
        for (i, seg) in self.segments.iter().enumerate() {
            if seg.start_cycles != expected_start {
                return Err(malformed(format!(
                    "segment {i} starts at cycle {} but the previous one ended at {expected_start}",
                    seg.start_cycles
                )));
            }
            match seg.end_cycles {
                Some(end) if end <= seg.start_cycles => {
                    return Err(malformed(format!(
                        "segment {i} is empty ({}..{end})",
                        seg.start_cycles
                    )));
                }
                Some(end) => expected_start = end,
                None if i != last_index => {
                    return Err(malformed(format!(
                        "only the last segment may be open-ended (segment {i} is not last)"
                    )));
                }
                None => {}
            }
        }
        Ok(())
    }

    /// Renders the segment list in the bracketed list grammar, the
    /// exact value of the `segments` parameter.
    #[must_use]
    pub fn render_segments(&self) -> String {
        let items: Vec<String> = self.segments.iter().map(ScheduleSegment::render).collect();
        kvspec::render_list(&items)
    }

    /// The spec's parameters for the grammar renderers.
    pub(crate) fn params(&self) -> Vec<(&'static str, PVal)> {
        vec![("segments", PVal::Str(self.render_segments()))]
    }

    /// Instantiates the live composite model, building every child
    /// model up front (so a broken child — e.g. a missing trace file —
    /// surfaces here, exactly like [`TrafficSpec::model`]).
    ///
    /// # Errors
    ///
    /// Returns the structural error of [`ScheduleConfig::check`] or any
    /// child's [`SpecError::Unbuildable`].
    pub fn build_model(&self) -> Result<ScheduleModel, SpecError> {
        self.check()?;
        let mut segments = Vec::with_capacity(self.segments.len());
        for seg in &self.segments {
            segments.push(ModelSegment {
                model: seg.spec.model()?,
                start: seg.start_time(),
                duration: seg
                    .end_time()
                    .map(|end| end.saturating_sub(seg.start_time())),
            });
        }
        Ok(ScheduleModel { segments })
    }
}

/// One instantiated window of a [`ScheduleModel`].
#[derive(Debug)]
struct ModelSegment {
    model: Box<dyn TrafficModel>,
    start: SimTime,
    /// Window length; `None` for the open-ended tail.
    duration: Option<SimTime>,
}

/// The live `schedule` packet source: child models instantiated per
/// window, each streamed from a segment-derived seed and time-shifted
/// to its window start.
#[derive(Debug)]
pub struct ScheduleModel {
    segments: Vec<ModelSegment>,
}

impl ScheduleModel {
    /// Total scheduled span in microseconds for a bounded schedule,
    /// `None` when the last segment is open-ended.
    fn bounded_span_us(&self) -> Option<f64> {
        let last = self.segments.last().expect("validated: non-empty");
        last.duration.map(|d| (last.start + d).as_us())
    }
}

impl TrafficModel for ScheduleModel {
    fn mean_rate_mbps(&self) -> f64 {
        match self.bounded_span_us() {
            // Open-ended: the long-run mean converges to the tail
            // segment's own long-run mean.
            None => self
                .segments
                .last()
                .expect("validated: non-empty")
                .model
                .mean_rate_mbps(),
            // Bounded: the time-weighted mean over the scheduled span.
            Some(span_us) => self.expected_rate_mbps(span_us),
        }
    }

    fn expected_rate_mbps(&self, horizon_us: f64) -> f64 {
        if !horizon_us.is_finite() || horizon_us <= 0.0 {
            return self.mean_rate_mbps();
        }
        let mut bits_per_us_us = 0.0; // Σ rate(Mbps) × window(µs)
        for seg in &self.segments {
            let start_us = seg.start.as_us();
            let end_us = seg
                .duration
                .map_or(horizon_us, |d| (seg.start + d).as_us())
                .min(horizon_us);
            let local_horizon = end_us - start_us;
            if local_horizon <= 0.0 {
                continue;
            }
            bits_per_us_us += seg.model.expected_rate_mbps(local_horizon) * local_horizon;
        }
        bits_per_us_us / horizon_us
    }

    fn stream(&self, seed: u64) -> PacketSource {
        let streams: Vec<SegmentStream> = self
            .segments
            .iter()
            .enumerate()
            .map(|(i, seg)| SegmentStream {
                inner: seg.model.stream(derive_seed(seed, i as u64)),
                offset: seg.start,
                duration: seg.duration,
            })
            .collect();
        PacketSource::new(ScheduleStream {
            segments: streams.into_iter(),
            current: None,
            started: false,
        })
    }
}

/// A child stream bound to its window: local arrivals are emitted
/// shifted by `offset` while they fall inside `duration`.
struct SegmentStream {
    inner: PacketSource,
    offset: SimTime,
    duration: Option<SimTime>,
}

/// Iterator state of a schedule stream: walks the windows in order,
/// draining each child until its window (or the child itself) ends.
struct ScheduleStream {
    segments: std::vec::IntoIter<SegmentStream>,
    current: Option<SegmentStream>,
    started: bool,
}

impl Iterator for ScheduleStream {
    type Item = Packet;

    fn next(&mut self) -> Option<Packet> {
        if !self.started {
            self.started = true;
            self.current = self.segments.next();
        }
        loop {
            let cur = self.current.as_mut()?;
            match cur.inner.next() {
                // Still inside the window: emit, shifted to its start.
                Some(p) if cur.duration.is_none_or(|d| p.arrival < d) => {
                    return Some(Packet {
                        arrival: cur.offset + p.arrival,
                        ..p
                    });
                }
                // Child arrivals are monotone, so the first local
                // arrival at/after the window end — or an exhausted
                // child — finishes the window.
                _ => self.current = self.segments.next(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(text: &str) -> ScheduleConfig {
        let TrafficSpec::Schedule(config) = TrafficSpec::parse(text).expect("valid schedule")
        else {
            panic!("not a schedule spec");
        };
        config
    }

    #[test]
    fn segment_grammar_parses_ranges_and_children() {
        let seg = ScheduleSegment::parse("flash:peak_mbps=900,ramp_ms=1@2e6..4e6").unwrap();
        assert_eq!(seg.start_cycles, 2_000_000);
        assert_eq!(seg.end_cycles, Some(4_000_000));
        assert_eq!(seg.spec.name(), "flash");
        let open = ScheduleSegment::parse("low@4e6..").unwrap();
        assert_eq!(open.end_cycles, None);
        // Round-trip through the canonical rendering.
        assert_eq!(ScheduleSegment::parse(&seg.render()).unwrap(), seg);
        assert_eq!(open.render(), "low@4000000..");
    }

    #[test]
    fn segment_grammar_rejects_garbage() {
        assert!(matches!(
            ScheduleSegment::parse("low"),
            Err(SpecError::Malformed { .. })
        ));
        assert!(matches!(
            ScheduleSegment::parse("low@5"),
            Err(SpecError::Malformed { .. })
        ));
        assert!(matches!(
            ScheduleSegment::parse("low@x..y"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            ScheduleSegment::parse("low@0.5..2"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            ScheduleSegment::parse("tsunami@0..1"),
            Err(SpecError::UnknownName { .. })
        ));
    }

    #[test]
    fn structural_rules_are_enforced() {
        // Must start at 0.
        let err = TrafficSpec::parse("schedule:segments=[low@1..2]").unwrap_err();
        assert!(err.to_string().contains("start at cycle 0"), "{err}");
        // Must be contiguous.
        let err = TrafficSpec::parse("schedule:segments=[low@0..2; high@3..]").unwrap_err();
        assert!(err.to_string().contains("previous one ended"), "{err}");
        // Open end only on the last segment.
        let err = TrafficSpec::parse("schedule:segments=[low@0..; high@5..]").unwrap_err();
        assert!(err.to_string().contains("open-ended"), "{err}");
        // Empty windows are rejected.
        let err = TrafficSpec::parse("schedule:segments=[low@0..0]").unwrap_err();
        assert!(err.to_string().contains("empty"), "{err}");
        // Empty lists are rejected.
        let err = TrafficSpec::parse("schedule:segments=[]").unwrap_err();
        assert!(err.to_string().contains("at least one"), "{err}");
    }

    #[test]
    fn stream_switches_children_at_the_boundaries() {
        // 600 MHz: 1.2e6 cycles = 2 ms. CBR children make counting exact.
        let config = schedule(
            "schedule:segments=[constant:rate=480,size=600@0..1.2e6; \
             constant:rate=960,size=600@1.2e6..]",
        );
        let model = config.build_model().unwrap();
        let packets = model.packets_until(7, SimTime::from_ms(4));
        // 480 Mbps / 4800 bits-per-packet = 0.1 pkt/µs; double after 2 ms.
        let first: Vec<&Packet> = packets
            .iter()
            .filter(|p| p.arrival < SimTime::from_ms(2))
            .collect();
        let second: Vec<&Packet> = packets
            .iter()
            .filter(|p| p.arrival >= SimTime::from_ms(2))
            .collect();
        assert!(
            (first.len() as f64 - 200.0).abs() <= 2.0,
            "first window: {}",
            first.len()
        );
        assert!(
            (second.len() as f64 - 400.0).abs() <= 2.0,
            "second window: {}",
            second.len()
        );
    }

    #[test]
    fn arrivals_are_monotone_across_boundaries() {
        let config = schedule(
            "schedule:segments=[mmpp:rate=400@0..600000; burst@600000..1.2e6; mmpp:rate=800@1.2e6..]",
        );
        let model = config.build_model().unwrap();
        let packets = model.packets_until(3, SimTime::from_ms(4));
        assert!(!packets.is_empty());
        let mut last = SimTime::ZERO;
        for p in &packets {
            assert!(p.arrival >= last, "arrivals went backwards");
            last = p.arrival;
        }
    }

    #[test]
    fn segments_are_independently_seeded() {
        // The same child spec in two windows must not replay the same
        // packets: each window derives its own seed.
        let config =
            schedule("schedule:segments=[mmpp:rate=600@0..600000; mmpp:rate=600@600000..]");
        let model = config.build_model().unwrap();
        let packets = model.packets_until(5, SimTime::from_ms(2));
        let window = SimTime::from_ms(1);
        let first: Vec<(u64, u32)> = packets
            .iter()
            .filter(|p| p.arrival < window)
            .map(|p| (p.arrival.as_ps(), p.size_bytes))
            .collect();
        let second: Vec<(u64, u32)> = packets
            .iter()
            .filter(|p| p.arrival >= window)
            .map(|p| (p.arrival.saturating_sub(window).as_ps(), p.size_bytes))
            .collect();
        assert_ne!(first, second, "windows replayed the same stream");
    }

    #[test]
    fn bounded_schedule_falls_silent() {
        let config = schedule("schedule:segments=[constant:rate=600@0..600000]");
        let model = config.build_model().unwrap();
        let packets = model.packets_until(1, SimTime::from_ms(10));
        assert!(!packets.is_empty());
        // 600k cycles at 600 MHz = 1 ms: nothing arrives after it.
        assert!(packets.iter().all(|p| p.arrival < SimTime::from_ms(1)));
    }

    #[test]
    fn expected_rate_is_the_time_weighted_composition() {
        let config =
            schedule("schedule:segments=[constant:rate=400@0..1.2e6; constant:rate=1000@1.2e6..]");
        let model = config.build_model().unwrap();
        // Horizon 4 ms: 2 ms at 400 + 2 ms at 1000 = 700 Mbps.
        assert!((model.expected_rate_mbps(4_000.0) - 700.0).abs() < 1.0);
        // Inside the first window only.
        assert!((model.expected_rate_mbps(1_000.0) - 400.0).abs() < 1.0);
        // Long-run mean of an open-ended schedule is the tail's mean.
        assert!((model.mean_rate_mbps() - 1000.0).abs() < 1e-9);
        // A bounded schedule reports the time-weighted mean of its span.
        let bounded = schedule(
            "schedule:segments=[constant:rate=400@0..1.2e6; constant:rate=1000@1.2e6..2.4e6]",
        );
        let model = bounded.build_model().unwrap();
        assert!((model.mean_rate_mbps() - 700.0).abs() < 1.0);
    }

    #[test]
    fn nested_schedules_compose() {
        let spec = TrafficSpec::parse(
            "schedule:segments=[schedule:segments=[constant:rate=200@0..300000; \
             constant:rate=600@300000..600000]@0..600000; constant:rate=900@600000..]",
        )
        .unwrap();
        let model = spec.model().unwrap();
        let packets = model.packets_until(9, SimTime::from_ms(2));
        assert!(!packets.is_empty());
        let mut last = SimTime::ZERO;
        for p in &packets {
            assert!(p.arrival >= last);
            last = p.arrival;
        }
        // 0.5 ms at 200 + 0.5 ms at 600 + 1 ms at 900 over 2 ms = 650.
        assert!((model.expected_rate_mbps(2_000.0) - 650.0).abs() < 1.0);
    }

    #[test]
    fn missing_trace_child_is_unbuildable() {
        let spec =
            TrafficSpec::parse("schedule:segments=[trace:path=/no/such/schedule-child.txt@0..]")
                .unwrap();
        assert!(matches!(spec.model(), Err(SpecError::Unbuildable { .. })));
    }
}
