//! Payload codecs for the simulator's observable outputs.
//!
//! These encode exactly the state the renderers consume — a
//! [`SimReport`] and (for axes that export timelines) a [`Recording`]
//! — such that `decode(encode(x)) == x` **bit-for-bit**: every `u64`
//! is written as its decimal token and every `f64` as its IEEE-754 bit
//! pattern ([`Writer::f64`]), so both come back exactly, NaN payloads,
//! infinities, `-0.0` and subnormals included. That equality is what
//! lets a warm run produce byte-identical tables, `--json` documents
//! and `--record` exports to a cold run (pinned in
//! `crates/core/tests/determinism.rs`).
//!
//! The per-window idle fractions, the one bulk array of a report, are
//! packed into one string ([`Writer::packed_f64s`]) after their count.
//! Their window, ME index and role are not stored: the simulator takes
//! one sample per ME at every window, in ME order, so the decoder
//! rebuilds them from each sample's position and the report's `mes`.
//!
//! Every payload is one JSON object, `{"v":PAYLOAD_VERSION, ...}`,
//! whose members come in a fixed order ([`payload`], [`read_payload`]).
//! A decoder reads that order with a [`Reader`] and returns `None` on
//! anything else — another version, an unknown name, a short array, a
//! number out of range, trailing bytes — which the integration layers
//! treat as a cache miss. Member names stay in the payload, so
//! [`Value::parse`](crate::json::Value::parse) can still open one for
//! debugging.

use desim::SimTime;
use dvs::PolicyKind;
use nepsim::{MeMode, MeReport, MeRole, ModeAcc, SimReport, WindowIdleSample};
use obs::{Channel, KernelCounters, Recording, Sample};

use crate::json::{PackedF64s, Reader, Writer, NUMBER_BYTES, PACKED_F64_BYTES};

/// The payload-format version leading every payload. Bump it with any
/// change to a payload's layout: entries written under another version
/// decode to `None`, count as misses and are rewritten on first use.
pub const PAYLOAD_VERSION: u64 = 3;

/// Builds a JSON object from pre-rendered member values.
#[must_use]
pub fn obj(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

/// Builds a JSON array from pre-rendered items.
#[must_use]
pub fn arr(items: Vec<String>) -> String {
    format!("[{}]", items.join(","))
}

/// Writes a payload of about `len_hint` bytes: the version member,
/// then the members `body` writes, in one object.
#[must_use]
pub fn payload(len_hint: usize, body: impl FnOnce(&mut Writer)) -> String {
    let mut w = Writer::with_capacity(len_hint + 16);
    w.begin_obj();
    w.key("v").u64(PAYLOAD_VERSION);
    body(&mut w);
    w.end_obj();
    w.finish()
}

/// Reads a payload [`payload`] wrote, with `body` reading the members
/// after the version. `None` for any other version, or when `body`
/// fails or leaves bytes unread.
#[must_use]
pub fn read_payload<T>(text: &str, body: impl FnOnce(&mut Reader<'_>) -> Option<T>) -> Option<T> {
    let mut r = Reader::new(text);
    r.begin_obj()?;
    if r.key("v")?.u64()? != PAYLOAD_VERSION {
        return None;
    }
    let value = body(&mut r)?;
    r.end_obj()?;
    r.finish()?;
    Some(value)
}

fn policy_kind(name: &str) -> Option<PolicyKind> {
    PolicyKind::ALL.into_iter().find(|k| k.name() == name)
}

fn role_name(role: MeRole) -> &'static str {
    match role {
        MeRole::Rx => "rx",
        MeRole::Tx => "tx",
    }
}

fn read_role(r: &mut Reader<'_>) -> Option<MeRole> {
    match r.name()? {
        "rx" => Some(MeRole::Rx),
        "tx" => Some(MeRole::Tx),
        _ => None,
    }
}

fn write_me(w: &mut Writer, me: &MeReport) {
    w.begin_obj();
    w.key("role").name(role_name(me.role));
    w.key("acc_ps").begin_arr();
    for mode in MeMode::ALL {
        w.u64(me.acc.get(mode).as_ps());
    }
    w.end_arr();
    w.key("energy_uj").f64(me.energy_uj);
    w.key("switches").u64(me.switches);
    w.key("final_level").u64(me.final_level as u64);
    w.key("packets_done").u64(me.packets_done);
    w.key("level_time_ps").begin_arr();
    for t in &me.level_time {
        w.u64(t.as_ps());
    }
    w.end_arr();
    w.end_obj();
}

fn read_me(r: &mut Reader<'_>) -> Option<MeReport> {
    r.begin_obj()?;
    // Struct fields evaluate in the order written: the layout's order.
    let me = MeReport {
        role: read_role(r.key("role")?)?,
        acc: {
            r.key("acc_ps")?.begin_arr()?;
            let mut acc = ModeAcc::default();
            for mode in MeMode::ALL {
                acc.add(mode, SimTime::from_ps(r.u64()?));
            }
            r.end_arr()?;
            acc
        },
        energy_uj: r.key("energy_uj")?.f64()?,
        switches: r.key("switches")?.u64()?,
        final_level: r.key("final_level")?.usize()?,
        packets_done: r.key("packets_done")?.u64()?,
        level_time: r
            .key("level_time_ps")?
            .list(|r| r.u64().map(SimTime::from_ps))?,
    };
    r.end_obj()?;
    Some(me)
}

/// About how many bytes [`write_sim_report`] writes for `r`.
#[must_use]
pub fn sim_report_len_hint(r: &SimReport) -> usize {
    let mes: usize = r
        .mes
        .iter()
        .map(|me| 128 + NUMBER_BYTES * (me.level_time.len() + 8))
        .sum();
    640 + mes + r.window_idle.len() * PACKED_F64_BYTES
}

/// Whether `r.window_idle` has the layout the simulator produces and
/// the payload relies on: window-major, one sample per ME in ME order,
/// each with its ME's role, `windows × mes.len()` samples in all.
fn window_idle_is_positional(r: &SimReport) -> bool {
    let n = r.mes.len();
    r.window_idle.len() as u64 == r.windows.saturating_mul(n as u64)
        && r.window_idle
            .iter()
            .enumerate()
            .all(|(i, s)| s.window == (i / n) as u64 && s.me == i % n && s.role == r.mes[s.me].role)
}

/// Writes a [`SimReport`] as one object.
pub fn write_sim_report(w: &mut Writer, r: &SimReport) {
    w.begin_obj();
    w.key("policy").name(r.policy.name());
    w.key("duration_ps").u64(r.duration.as_ps());
    w.key("arrived_packets").u64(r.arrived_packets);
    w.key("arrived_bits").u64(r.arrived_bits);
    w.key("dropped_packets").u64(r.dropped_packets);
    w.key("dropped_tx_packets").u64(r.dropped_tx_packets);
    w.key("forwarded_packets").u64(r.forwarded_packets);
    w.key("forwarded_bits").u64(r.forwarded_bits);
    w.key("mes").begin_arr();
    for me in &r.mes {
        write_me(w, me);
    }
    w.end_arr();
    w.key("me_energy_uj").f64(r.me_energy_uj);
    w.key("sram_energy_uj").f64(r.sram_energy_uj);
    w.key("sdram_energy_uj").f64(r.sdram_energy_uj);
    w.key("static_energy_uj").f64(r.static_energy_uj);
    w.key("monitor_energy_uj").f64(r.monitor_energy_uj);
    w.key("sram_accesses").u64(r.sram_accesses);
    w.key("sdram_accesses").u64(r.sdram_accesses);
    w.key("total_switches").u64(r.total_switches);
    w.key("windows").u64(r.windows);
    w.key("bus_bits").u64(r.bus_bits);
    w.key("bus_rate_mbps").f64(r.bus_rate_mbps);
    w.key("kernel").begin_arr();
    w.u64(r.kernel.events_scheduled);
    w.u64(r.kernel.events_processed);
    w.u64(r.kernel.peak_heap_len);
    w.end_arr();
    assert!(
        window_idle_is_positional(r),
        "window_idle samples must be window-major, one per ME, with the MEs' roles"
    );
    w.key("window_idle_len").u64(r.window_idle.len() as u64);
    w.key("window_idle")
        .packed_f64s(r.window_idle.iter().map(|s| s.idle));
    w.end_obj();
}

/// Reads the object [`write_sim_report`] wrote.
#[must_use]
pub fn read_sim_report(r: &mut Reader<'_>) -> Option<SimReport> {
    let (mut report, idle) = read_sim_report_packed(r)?;
    let n = report.mes.len();
    report.window_idle = idle
        .iter()
        .enumerate()
        .map(|(i, idle)| WindowIdleSample {
            window: (i / n) as u64,
            me: i % n,
            role: report.mes[i % n].role,
            idle,
        })
        .collect();
    Some(report)
}

/// Reads the object [`write_sim_report`] wrote, with its `window_idle`
/// samples validated but not decoded: the report's `window_idle` is
/// empty, and the view holds the samples' idle fractions in order. It
/// accepts exactly what [`read_sim_report`] accepts, for a caller that
/// reads only the report's scalars.
#[must_use]
pub fn read_sim_report_packed<'a>(r: &mut Reader<'a>) -> Option<(SimReport, PackedF64s<'a>)> {
    r.begin_obj()?;
    // Struct fields evaluate in the order written: the layout's order.
    let report = SimReport {
        policy: policy_kind(r.key("policy")?.name()?)?,
        duration: SimTime::from_ps(r.key("duration_ps")?.u64()?),
        arrived_packets: r.key("arrived_packets")?.u64()?,
        arrived_bits: r.key("arrived_bits")?.u64()?,
        dropped_packets: r.key("dropped_packets")?.u64()?,
        dropped_tx_packets: r.key("dropped_tx_packets")?.u64()?,
        forwarded_packets: r.key("forwarded_packets")?.u64()?,
        forwarded_bits: r.key("forwarded_bits")?.u64()?,
        mes: r.key("mes")?.list(read_me)?,
        me_energy_uj: r.key("me_energy_uj")?.f64()?,
        sram_energy_uj: r.key("sram_energy_uj")?.f64()?,
        sdram_energy_uj: r.key("sdram_energy_uj")?.f64()?,
        static_energy_uj: r.key("static_energy_uj")?.f64()?,
        monitor_energy_uj: r.key("monitor_energy_uj")?.f64()?,
        sram_accesses: r.key("sram_accesses")?.u64()?,
        sdram_accesses: r.key("sdram_accesses")?.u64()?,
        total_switches: r.key("total_switches")?.u64()?,
        windows: r.key("windows")?.u64()?,
        bus_bits: r.key("bus_bits")?.u64()?,
        bus_rate_mbps: r.key("bus_rate_mbps")?.f64()?,
        kernel: {
            r.key("kernel")?.begin_arr()?;
            let kernel = KernelCounters {
                events_scheduled: r.u64()?,
                events_processed: r.u64()?,
                peak_heap_len: r.u64()?,
            };
            r.end_arr()?;
            kernel
        },
        window_idle: Vec::new(),
    };
    // One sample per ME per window, checked before anything is read or
    // allocated for them.
    let n = report.mes.len();
    let count = r.key("window_idle_len")?.usize()?;
    if Some(count) != usize::try_from(report.windows).ok()?.checked_mul(n) {
        return None;
    }
    let idle = r.key("window_idle")?.packed(count)?;
    r.end_obj()?;
    Some((report, idle))
}

/// Writes a [`Recording`] as one object: emission-ordered
/// `[channel, cycle, value]` triples.
fn write_recording(w: &mut Writer, rec: &Recording) {
    w.begin_obj();
    w.key("samples").begin_arr();
    for s in rec.samples() {
        w.begin_arr();
        w.name(s.channel.name());
        w.u64(s.cycle);
        w.f64(s.value);
        w.end_arr();
    }
    w.end_arr();
    w.end_obj();
}

fn read_recording(r: &mut Reader<'_>) -> Option<Recording> {
    r.begin_obj()?;
    let samples = r.key("samples")?.list(|r| {
        r.begin_arr()?;
        let sample = Sample {
            channel: r.name()?.parse::<Channel>().ok()?,
            cycle: r.u64()?,
            value: r.f64()?,
        };
        r.end_arr()?;
        Some(sample)
    })?;
    r.end_obj()?;
    Some(Recording::from_samples(samples))
}

/// Payload for a segment-snapshot cell (scenario axis): the cumulative
/// [`SimReport`] at each planned boundary.
#[must_use]
pub fn snapshots_payload(snapshots: &[SimReport]) -> String {
    let len_hint = snapshots.iter().map(sim_report_len_hint).sum();
    payload(len_hint, |w| {
        w.key("snapshots").begin_arr();
        for report in snapshots {
            write_sim_report(w, report);
        }
        w.end_arr();
    })
}

/// Decodes [`snapshots_payload`].
#[must_use]
pub fn parse_snapshots(text: &str) -> Option<Vec<SimReport>> {
    read_payload(text, |r| r.key("snapshots")?.list(read_sim_report))
}

/// About how many bytes [`write_recording`] writes for `rec`.
fn recording_len_hint(rec: &Recording) -> usize {
    32 + rec.samples().len() * (2 * NUMBER_BYTES + 24)
}

/// Payload for a recorded cell (fleet axis): the report plus the
/// recording its folds absorb.
#[must_use]
pub fn recorded_payload(report: &SimReport, recording: &Recording) -> String {
    let len_hint = sim_report_len_hint(report) + recording_len_hint(recording);
    payload(len_hint, |w| {
        write_sim_report(w.key("sim"), report);
        write_recording(w.key("rec"), recording);
    })
}

/// Decodes [`recorded_payload`].
#[must_use]
pub fn parse_recorded(text: &str) -> Option<(SimReport, Recording)> {
    read_payload(text, |r| {
        let report = read_sim_report(r.key("sim")?)?;
        Some((report, read_recording(r.key("rec")?)?))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use nepsim::{MemRecorder, NpuConfig, Simulator};

    fn simulate() -> (SimReport, Recording) {
        let config = NpuConfig::builder()
            .seed(7)
            .policy("tdvs:threshold=1400".parse().unwrap())
            .build();
        let mut sim = Simulator::new(config).with_recorder(Box::new(MemRecorder::new()));
        let report = sim.run_cycles(200_000);
        (report, sim.take_recording())
    }

    #[test]
    fn sim_report_round_trips_bit_exactly() {
        let (report, _) = simulate();
        let mut w = Writer::with_capacity(sim_report_len_hint(&report));
        write_sim_report(&mut w, &report);
        let encoded = w.finish();
        let mut r = Reader::new(&encoded);
        let decoded = read_sim_report(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, report);
        // PartialEq on f64 fields is exact equality, but double-check a
        // couple of derived quantities down to the bit.
        assert_eq!(
            decoded.mean_power_w().to_bits(),
            report.mean_power_w().to_bits()
        );
        assert_eq!(
            decoded.total_energy_uj().to_bits(),
            report.total_energy_uj().to_bits()
        );
    }

    #[test]
    fn recording_round_trips_exactly() {
        let (report, recording) = simulate();
        assert!(!recording.is_empty());
        let payload = recorded_payload(&report, &recording);
        let (r2, rec2) = parse_recorded(&payload).unwrap();
        assert_eq!(r2, report);
        assert_eq!(rec2, recording);
    }

    #[test]
    fn snapshots_round_trip() {
        let (report, _) = simulate();
        let payload = snapshots_payload(&[report.clone(), report.clone()]);
        let decoded = parse_snapshots(&payload).unwrap();
        assert_eq!(decoded, vec![report.clone(), report]);
    }

    #[test]
    fn payloads_stay_plain_json() {
        let (report, recording) = simulate();
        let payload = recorded_payload(&report, &recording);
        let v = Value::parse(&payload).expect("a payload is valid JSON");
        assert_eq!(v.u64_of("v"), Some(PAYLOAD_VERSION));
        let sim = v.get("sim").unwrap();
        assert_eq!(sim.str_of("policy"), Some("TDVS"));
        assert_eq!(
            sim.u64_of("bus_rate_mbps").map(f64::from_bits),
            Some(report.bus_rate_mbps)
        );
    }

    #[test]
    fn len_hints_cover_the_payloads() {
        let (report, recording) = simulate();
        let payload = recorded_payload(&report, &recording);
        let hint = sim_report_len_hint(&report) + recording_len_hint(&recording);
        assert!(payload.len() <= hint, "{} > {hint}", payload.len());
        assert!(payload.len() * 2 > hint, "{} vs {hint}", payload.len());
    }

    #[test]
    fn policy_kind_names_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(policy_kind(&kind.to_string()), Some(kind));
        }
        let names: std::collections::HashSet<_> = PolicyKind::ALL.map(PolicyKind::name).into();
        assert_eq!(names.len(), PolicyKind::ALL.len(), "names are distinct");
        assert_eq!(policy_kind("nonesuch"), None);
    }

    #[test]
    fn decoders_reject_mangled_payloads() {
        let (report, recording) = simulate();
        let payload = recorded_payload(&report, &recording);
        assert!(parse_recorded(&payload[..payload.len() / 2]).is_none());
        let version = |v: u64| format!("\"v\":{v}");
        let current = version(PAYLOAD_VERSION);
        assert!(payload.starts_with(&format!("{{{current},")));
        for other in [PAYLOAD_VERSION - 1, PAYLOAD_VERSION + 1] {
            assert!(parse_recorded(&payload.replacen(&current, &version(other), 1)).is_none());
        }
        assert!(parse_recorded(&payload.replace("TDVS", "XDVS")).is_none());
        assert!(parse_recorded(&payload.replace("\"rx\"", "\"ry\"")).is_none());
        assert!(parse_recorded(&format!("{payload} {{}}")).is_none());
        assert!(parse_snapshots(&payload).is_none());
    }
}
