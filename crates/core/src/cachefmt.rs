//! Result-cache payloads and cached execution for the experiment axis.
//!
//! An [`ExperimentResult`] is `(experiment, SimReport, two
//! DistributionReports)`. The experiment is the key, so the payload
//! carries only the three computed pieces: the report through
//! [`ccache::codec`] and the distributions through
//! [`loc::DistributionReport::to_parts`], in one fixed-layout object.
//! Every `f64` is stored as its IEEE-754 bit pattern, the bulk
//! `sorted_values` packed into one string after their count
//! ([`ccache::json::Writer::packed_f64s`]), so decoding
//! rebuilds the result **bit-identically** by construction, which is
//! what lets every renderer downstream (tables, `--json`, summaries)
//! produce byte-identical output for warm and cold runs (pinned in
//! `tests/determinism.rs`). A payload another
//! [`PAYLOAD_VERSION`](ccache::codec::PAYLOAD_VERSION) wrote decodes to
//! `None`, so [`run_cached`] counts it as a miss and rewrites it.
//!
//! A payload has two decoders, and they accept exactly the same bytes.
//! [`decode_result`] rebuilds the whole result. [`decode_metrics`]
//! validates the whole payload the same way but decodes only what a
//! replicated batch folds: the report's scalars and the two p80 values,
//! each fetched by index from its packed array (a paper-length cell
//! holds about 9,000 packed values, none of which it builds). The
//! batch's kept type ([`Kept`]) picks the decoder.
//!
//! [`run_cached`] is the one cached execution path: every batch
//! funnelled through [`run_experiments`](crate::run_experiments) and
//! the CLI's single-run path go through it. It probes the store through
//! [`Cache::probe`], which owns the hit/miss accounting, the profiler
//! spans and the demotion of an entry that fails to decode, for every
//! axis.

use ccache::codec::{self, read_sim_report, read_sim_report_packed, write_sim_report};
use ccache::json::{PackedF64s, Reader, Writer, PACKED_F64_BYTES};
use ccache::Cache;
use loc::{DistParts, DistRel, DistributionReport};
use stats::RunMetrics;

use crate::experiment::{run_metrics, Experiment, ExperimentResult, Kept, P80};

/// The spec string keying an experiment cell: a domain tag plus the
/// canonical `kvspec` rendering ([`Experiment::label`]) that already
/// names the cell everywhere else (progress lines, errors, JSON).
#[must_use]
pub fn experiment_key(e: &Experiment) -> String {
    format!("cell|{}", e.label())
}

fn rel_name(rel: DistRel) -> &'static str {
    match rel {
        DistRel::Eq => "eq",
        DistRel::Le => "le",
        DistRel::Ge => "ge",
    }
}

/// About how many bytes [`write_dist`] writes for `parts`: eleven
/// packed digits per value, a few decimal digits per bin count.
fn dist_len_hint(parts: &DistParts) -> usize {
    192 + PACKED_F64_BYTES * parts.sorted_values.len() + 6 * parts.counts.len()
}

fn write_dist(w: &mut Writer, parts: &DistParts) {
    w.begin_obj();
    w.key("rel").name(rel_name(parts.rel));
    w.key("min").f64(parts.min);
    w.key("max").f64(parts.max);
    w.key("step").f64(parts.step);
    w.key("counts").begin_arr();
    for &count in &parts.counts {
        w.u64(count);
    }
    w.end_arr();
    w.key("values_len").u64(parts.sorted_values.len() as u64);
    w.key("values")
        .packed_f64s(parts.sorted_values.iter().copied());
    w.key("nan").u64(parts.nan_count);
    w.key("total").u64(parts.total);
    w.end_obj();
}

fn read_dist(r: &mut Reader<'_>) -> Option<DistributionReport> {
    let (mut parts, values) = read_packed_dist(r)?;
    parts.sorted_values = values.iter().collect();
    Some(DistributionReport::from_parts(parts))
}

/// Reads the object [`write_dist`] wrote, its sorted values validated
/// but not decoded: `sorted_values` is empty, and the view holds them.
/// It accepts exactly what [`read_dist`] accepts.
fn read_packed_dist<'a>(r: &mut Reader<'a>) -> Option<(DistParts, PackedF64s<'a>)> {
    r.begin_obj()?;
    // Read in the layout's order.
    let rel = match r.key("rel")?.name()? {
        "eq" => DistRel::Eq,
        "le" => DistRel::Le,
        "ge" => DistRel::Ge,
        _ => return None,
    };
    let min = r.key("min")?.f64()?;
    let max = r.key("max")?.f64()?;
    let step = r.key("step")?.f64()?;
    let counts = r.key("counts")?.list(Reader::u64)?;
    let count = r.key("values_len")?.usize()?;
    let values = r.key("values")?.packed(count)?;
    let parts = DistParts {
        rel,
        min,
        max,
        step,
        counts,
        sorted_values: Vec::new(),
        nan_count: r.key("nan")?.u64()?,
        total: r.key("total")?.u64()?,
    };
    r.end_obj()?;
    // The two outer bins always exist; the report's edges rely on them.
    (parts.counts.len() >= 2).then_some((parts, values))
}

/// Encodes a result's computed pieces as a cache payload.
#[must_use]
pub fn encode_result(r: &ExperimentResult) -> String {
    let (power, throughput) = (r.power.to_parts(), r.throughput.to_parts());
    let len_hint =
        codec::sim_report_len_hint(&r.sim) + dist_len_hint(&power) + dist_len_hint(&throughput);
    codec::payload(len_hint, |w| {
        write_sim_report(w.key("sim"), &r.sim);
        write_dist(w.key("power"), &power);
        write_dist(w.key("throughput"), &throughput);
    })
}

/// Decodes a payload back into the result of `experiment`; `None` on
/// any structural damage or another payload version (the caller
/// re-simulates).
#[must_use]
pub fn decode_result(experiment: &Experiment, payload: &str) -> Option<ExperimentResult> {
    codec::read_payload(payload, |r| {
        Some(ExperimentResult {
            experiment: experiment.clone(),
            sim: read_sim_report(r.key("sim")?)?,
            power: read_dist(r.key("power")?)?,
            throughput: read_dist(r.key("throughput")?)?,
        })
    })
}

/// Decodes a payload straight to the [`RunMetrics`] of the result it
/// holds: [`decode_result`]`(..).metrics()`, bit for bit, and `None`
/// exactly where [`decode_result`] is `None`. It validates every byte
/// [`decode_result`] validates, but decodes only the report's scalars
/// and the two p80 values, each fetched by index from its packed
/// array: never the window samples or the rest of the sorted values.
#[must_use]
pub fn decode_metrics(payload: &str) -> Option<RunMetrics> {
    codec::read_payload(payload, |r| {
        let (sim, _) = read_sim_report_packed(r.key("sim")?)?;
        let (_, power) = read_packed_dist(r.key("power")?)?;
        let (_, throughput) = read_packed_dist(r.key("throughput")?)?;
        Some(run_metrics(
            &sim,
            DistributionReport::quantile_index(P80, power.len()).and_then(|i| power.get(i)),
            DistributionReport::quantile_above_index(P80, throughput.len())
                .and_then(|i| throughput.get(i)),
        ))
    })
}

/// Runs one experiment through the cache and keeps `T` of it: probe
/// the cache with `T`'s decoder, and on a miss (or a decode failure,
/// demoted to a miss) run [`Experiment::run`], publish the fresh
/// result and keep `T` of it. With no cache this **is**
/// `T::keep(experiment.run())`.
#[must_use]
pub fn run_cached<T: Kept>(cache: Option<&Cache>, experiment: &Experiment) -> T {
    let Some(cache) = cache else {
        return T::keep(experiment.run());
    };
    let key = experiment_key(experiment);
    if let Some(kept) = cache.probe(&key, |payload| T::decode(experiment, payload)) {
        return kept;
    }
    let result = experiment.run();
    cache.publish(&key, &encode_result(&result));
    T::keep(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccache::codec::{parse_recorded, parse_snapshots, recorded_payload, snapshots_payload};
    use ccache::json::Value;
    use dvs::PolicySpec;
    use nepsim::{Benchmark, MemRecorder, NpuConfig, SimReport, Simulator};
    use obs::{Recording, Sample};

    /// The payload of [`experiment`]'s result as payload version 1 wrote
    /// it: shortest round-trip `f64` tokens.
    const PAYLOAD_V1: &str = include_str!("../tests/fixtures/cell_payload_v1.json");
    /// The same result as version 2 wrote it: every `f64` as a decimal
    /// bit pattern, the bulk arrays as JSON arrays.
    const PAYLOAD_V2: &str = include_str!("../tests/fixtures/cell_payload_v2.json");
    /// The same result as the current version writes it, byte for byte.
    const PAYLOAD_V3: &str = include_str!("../tests/fixtures/cell_payload_v3.json");

    /// The fixed tiny run the payload fixtures pin; long enough that
    /// both distributions hold values.
    fn experiment() -> Experiment {
        Experiment {
            benchmark: Benchmark::Ipfwdr,
            traffic: traffic::TrafficLevel::High.into(),
            policy: PolicySpec::parse("tdvs:threshold=1400").unwrap(),
            cycles: 600_000,
            seed: 11,
        }
    }

    fn temp_cache(tag: &str) -> Cache {
        let dir = std::env::temp_dir().join(format!("abdex-cachefmt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Cache::open(dir).unwrap()
    }

    #[test]
    fn results_round_trip_bit_exactly() {
        let e = experiment();
        let cold = e.run();
        let decoded = decode_result(&e, &encode_result(&cold)).expect("payload decodes");
        assert_eq!(decoded.sim, cold.sim);
        assert_eq!(decoded.power, cold.power);
        assert_eq!(decoded.throughput, cold.throughput);
        assert_eq!(decoded.experiment, cold.experiment);
        assert_eq!(
            decoded.p80_power_w().to_bits(),
            cold.p80_power_w().to_bits()
        );
        assert_eq!(
            decoded.p80_throughput_mbps().to_bits(),
            cold.p80_throughput_mbps().to_bits()
        );
        let (dm, cm) = (decoded.metrics(), cold.metrics());
        assert_eq!(dm.mean_power_w.to_bits(), cm.mean_power_w.to_bits());
        assert_eq!(dm.rx_idle_fraction.to_bits(), cm.rx_idle_fraction.to_bits());
        assert_eq!(dm.total_switches, cm.total_switches);
        assert_eq!(dm.forwarded_packets, cm.forwarded_packets);
    }

    #[test]
    fn warm_run_equals_cold_run() {
        let cache = temp_cache("warm");
        let e = experiment();
        let cold: ExperimentResult = run_cached(Some(&cache), &e);
        let warm: ExperimentResult = run_cached(Some(&cache), &e);
        assert_eq!(cold.sim, warm.sim);
        assert_eq!(cold.power, warm.power);
        // A batch keeping metrics decodes the same entry to them.
        let metrics: RunMetrics = run_cached(Some(&cache), &e);
        assert_eq!(metric_bits(&metrics), metric_bits(&cold.metrics()));
        let counters = cache.counters();
        assert_eq!((counters.hits, counters.misses, counters.stores), (2, 1, 1));
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn corrupt_payload_demotes_to_miss_and_heals() {
        let cache = temp_cache("demote");
        let e = experiment();
        // A structurally valid entry whose payload is not a result.
        cache.publish(&experiment_key(&e), "{\"v\":1,\"sim\":{}}");
        let result: ExperimentResult = run_cached(Some(&cache), &e);
        assert!(result.sim.forwarded_packets > 0);
        let counters = cache.counters();
        assert_eq!(counters.hits, 0, "decode failure demotes the hit");
        assert_eq!(counters.misses, 1);
        // The healed entry now hits.
        let again: ExperimentResult = run_cached(Some(&cache), &e);
        assert_eq!(again.sim, result.sim);
        assert_eq!(cache.counters().hits, 1);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    /// Every metric as its bits; NaN compares by pattern, as the
    /// renderers would print it.
    fn metric_bits(m: &RunMetrics) -> Vec<u64> {
        let mut bits: Vec<u64> = m.fields().iter().map(|(_, v)| v.to_bits()).collect();
        bits.extend([m.total_switches, m.forwarded_packets]);
        bits
    }

    /// What the metrics decoder returns for `payload`, as bits, after
    /// checking that it is what the full decoder's result reports.
    fn decoded_metric_bits(e: &Experiment, payload: &str) -> Option<Vec<u64>> {
        let metrics = decode_metrics(payload).map(|m| metric_bits(&m));
        let full = decode_result(e, payload).map(|r| metric_bits(&r.metrics()));
        assert_eq!(metrics, full, "the two decoders disagree");
        metrics
    }

    #[test]
    fn metrics_decoder_equals_the_full_decoder_bit_for_bit() {
        let e = experiment();
        assert!(decoded_metric_bits(&e, PAYLOAD_V3).is_some());
        // A fresh cell of each of the six policies.
        for policy in crate::compare::ComparisonConfig::default().policies() {
            let e = Experiment {
                policy,
                ..experiment()
            };
            let result = e.run();
            let payload = encode_result(&result);
            assert_eq!(
                decoded_metric_bits(&e, &payload),
                Some(metric_bits(&result.metrics())),
                "{}",
                e.label()
            );
        }
        // Too short for any 100-packet window: both p80 values fall back
        // to the run's means.
        let short = Experiment {
            cycles: 20_000,
            ..experiment()
        };
        let result = short.run();
        assert_eq!(result.power.quantile(P80), None);
        assert_eq!(result.throughput.quantile_above(P80), None);
        let metrics = decode_metrics(&encode_result(&result)).expect("short cell decodes");
        assert_eq!(
            metrics.p80_power_w.to_bits(),
            result.sim.mean_power_w().to_bits()
        );
        assert_eq!(
            decoded_metric_bits(&short, &encode_result(&result)),
            Some(metric_bits(&result.metrics()))
        );
    }

    /// A decoder under test: `true` when the payload decoded.
    type Decodes = Box<dyn Fn(&str) -> bool>;

    /// One payload of each kind the cache stores, with its decoder:
    /// an experiment cell, decoded in full and to its metrics (the two
    /// decoders must agree), scenario segment snapshots, and a fleet
    /// chip's report plus recording.
    fn payload_kinds() -> Vec<(&'static str, String, Decodes)> {
        let e = experiment();
        let cell = encode_result(&e.run());
        let config = NpuConfig::builder()
            .seed(7)
            .policy("tdvs:threshold=1400".parse().unwrap())
            .build();
        let snapshots = Simulator::new(config.clone()).run_cycle_segments(&[200_000, 400_000]);
        let mut sim = Simulator::new(config).with_recorder(Box::new(MemRecorder::new()));
        let report = sim.run_cycles(400_000);
        let recording = sim.take_recording();
        let full = e.clone();
        vec![
            (
                "cell",
                cell.clone(),
                Box::new(move |p| decode_result(&full, p).is_some()),
            ),
            (
                "cell metrics",
                cell,
                Box::new(move |p| decoded_metric_bits(&e, p).is_some()),
            ),
            (
                "snapshots",
                snapshots_payload(&snapshots),
                Box::new(|p| parse_snapshots(p).is_some()),
            ),
            (
                "recorded",
                recorded_payload(&report, &recording),
                Box::new(|p| parse_recorded(p).is_some()),
            ),
        ]
    }

    #[test]
    fn every_truncated_prefix_is_rejected() {
        for (kind, payload, decodes) in payload_kinds() {
            assert!(decodes(&payload), "the whole {kind} payload decodes");
            for end in 0..payload.len() {
                assert!(
                    !decodes(&payload[..end]),
                    "{kind}: {end}-byte prefix decoded"
                );
            }
        }
    }

    #[test]
    fn single_byte_flips_never_panic() {
        const FLIPS_PER_KIND: usize = 400;
        let mut rng = proptest::TestRng::for_test("cachefmt::single_byte_flips");
        for (kind, payload, decodes) in payload_kinds() {
            let mut rejected = 0;
            for _ in 0..FLIPS_PER_KIND {
                let mut bytes = payload.clone().into_bytes();
                let at = (rng.next_u64() % bytes.len() as u64) as usize;
                // A mask below 0x80 keeps the ASCII payload valid UTF-8,
                // as every entry the store hands out is.
                bytes[at] ^= 1 + (rng.next_u64() % 0x7f) as u8;
                let flipped = String::from_utf8(bytes).expect("ASCII stays UTF-8");
                if !decodes(&flipped) {
                    rejected += 1;
                }
            }
            // Most flips break the fixed layout; the rest (a digit
            // turned into another digit) decode to another value.
            assert!(
                rejected * 2 > FLIPS_PER_KIND,
                "{kind}: only {rejected} of {FLIPS_PER_KIND} flips rejected"
            );
        }
    }

    #[test]
    fn number_tokens_overflowing_u64_are_rejected() {
        for (kind, payload, decodes) in payload_kinds() {
            let start = payload.find("\"duration_ps\":").unwrap() + "\"duration_ps\":".len();
            let end = start + payload[start..].find(',').unwrap();
            for token in ["18446744073709551616", "1234567890123456789012345"] {
                let bad = format!("{}{token}{}", &payload[..start], &payload[end..]);
                assert!(!decodes(&bad), "{kind}: accepted duration_ps {token}");
            }
        }
    }

    #[test]
    fn packed_counts_that_disagree_are_rejected() {
        for (kind, payload, decodes) in payload_kinds() {
            let mut members = 0;
            for name in ["\"values_len\":", "\"window_idle_len\":"] {
                let mut from = 0;
                while let Some(found) = payload[from..].find(name) {
                    let start = from + found + name.len();
                    let end = start + payload[start..].find(',').unwrap();
                    let count: u64 = payload[start..end].parse().unwrap();
                    for bad in [count.wrapping_sub(1), count + 1, 1 << 40, u64::MAX] {
                        let damaged = format!("{}{bad}{}", &payload[..start], &payload[end..]);
                        assert!(!decodes(&damaged), "{kind}: {name}{bad} accepted");
                    }
                    members += 1;
                    from = end;
                }
            }
            assert!(members > 0, "{kind} has no packed member");
        }
    }

    /// NaN (either sign, and with a payload), both infinities,
    /// negative zero and subnormals.
    const SPECIALS: [f64; 8] = [
        f64::NAN,
        -f64::NAN,
        f64::from_bits(0x7ff8_0000_dead_beef),
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        5e-324,
        f64::MIN_POSITIVE / 3.0,
    ];

    fn special(i: &mut usize) -> f64 {
        *i += 1;
        SPECIALS[*i % SPECIALS.len()]
    }

    /// Every `f64` slot of a report, as bits.
    fn report_bits(r: &SimReport) -> Vec<u64> {
        let mut bits: Vec<u64> = [
            r.me_energy_uj,
            r.sram_energy_uj,
            r.sdram_energy_uj,
            r.static_energy_uj,
            r.monitor_energy_uj,
            r.bus_rate_mbps,
        ]
        .iter()
        .map(|v| v.to_bits())
        .collect();
        bits.extend(r.mes.iter().map(|me| me.energy_uj.to_bits()));
        bits.extend(r.window_idle.iter().map(|w| w.idle.to_bits()));
        bits
    }

    fn with_specials(mut r: SimReport, i: &mut usize) -> SimReport {
        for slot in [
            &mut r.me_energy_uj,
            &mut r.sram_energy_uj,
            &mut r.sdram_energy_uj,
            &mut r.static_energy_uj,
            &mut r.monitor_energy_uj,
            &mut r.bus_rate_mbps,
        ] {
            *slot = special(i);
        }
        for me in &mut r.mes {
            me.energy_uj = special(i);
        }
        for w in &mut r.window_idle {
            w.idle = special(i);
        }
        r
    }

    fn dist_bits(d: &DistributionReport) -> Vec<u64> {
        let parts = d.to_parts();
        let mut bits: Vec<u64> = [parts.min, parts.max, parts.step]
            .iter()
            .map(|v| v.to_bits())
            .collect();
        bits.extend(parts.sorted_values.iter().map(|v| v.to_bits()));
        bits
    }

    #[test]
    fn special_floats_round_trip_bit_exactly() {
        let mut i = 0;
        let cold = experiment().run();
        let mut dist = |d: &DistributionReport| {
            let mut parts = d.to_parts();
            parts.min = special(&mut i);
            parts.max = special(&mut i);
            parts.step = special(&mut i);
            parts.sorted_values = (0..12).map(|_| special(&mut i)).collect();
            DistributionReport::from_parts(parts)
        };
        let (power, throughput) = (dist(&cold.power), dist(&cold.throughput));
        let mut i = 0;
        let result = ExperimentResult {
            sim: with_specials(cold.sim.clone(), &mut i),
            power,
            throughput,
            ..cold
        };
        assert!(report_bits(&result.sim).len() > 20);

        let payload = encode_result(&result);
        let decoded = decode_result(&result.experiment, &payload).expect("cell decodes");
        assert_eq!(report_bits(&decoded.sim), report_bits(&result.sim));
        assert_eq!(dist_bits(&decoded.power), dist_bits(&result.power));
        assert_eq!(
            dist_bits(&decoded.throughput),
            dist_bits(&result.throughput)
        );
        assert_eq!(encode_result(&decoded), payload);
        assert_eq!(
            decoded_metric_bits(&result.experiment, &payload),
            Some(metric_bits(&result.metrics()))
        );

        let snapshots = vec![
            result.sim.clone(),
            with_specials(result.sim.clone(), &mut i),
        ];
        let decoded = parse_snapshots(&snapshots_payload(&snapshots)).expect("snapshots decode");
        assert_eq!(decoded.len(), 2);
        for (d, s) in decoded.iter().zip(&snapshots) {
            assert_eq!(report_bits(d), report_bits(s));
        }

        let recording = Recording::from_samples(
            (0..20)
                .map(|k| Sample {
                    channel: obs::Channel::ALL[k % obs::Channel::ALL.len()],
                    cycle: k as u64 * 1000,
                    value: special(&mut i),
                })
                .collect(),
        );
        let (report, rec) =
            parse_recorded(&recorded_payload(&result.sim, &recording)).expect("recorded decodes");
        assert_eq!(report_bits(&report), report_bits(&result.sim));
        let value_bits =
            |r: &Recording| -> Vec<u64> { r.samples().iter().map(|s| s.value.to_bits()).collect() };
        assert_eq!(value_bits(&rec), value_bits(&recording));
    }

    /// The on-disk path of a spec's entry (mirrors the store layout).
    fn entry_path(cache: &Cache, spec: &str) -> std::path::PathBuf {
        let key = ccache::Key::with_epoch(cache.epoch(), spec);
        cache
            .root()
            .join(key.shard())
            .join(format!("{}.entry", key.hex()))
    }

    #[test]
    fn flipped_byte_entry_demotes_to_miss_and_heals() {
        let cache = temp_cache("flip");
        let e = experiment();
        let cold = run_cached(Some(&cache), &e);
        let path = entry_path(&cache, &experiment_key(&e));
        let mut bytes = std::fs::read(&path).unwrap();
        // Put a byte no token accepts mid-payload (a digit turned into a
        // letter would be a valid packed digit): the entry stays UTF-8
        // and its header's length still matches, so only the payload
        // decoder can tell.
        let at = bytes.len() / 2;
        bytes[at] = b'#';
        std::fs::write(&path, &bytes).unwrap();

        let healed = run_cached(Some(&cache), &e);
        assert_eq!(encode_result(&healed), encode_result(&cold));
        let counters = cache.counters();
        assert_eq!(
            (counters.hits, counters.misses, counters.stores),
            (0, 2, 2),
            "the flipped entry is a miss, and is rewritten"
        );
        let again: ExperimentResult = run_cached(Some(&cache), &e);
        assert_eq!(again.sim, cold.sim);
        assert_eq!(cache.counters().hits, 1);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn old_payload_versions_are_misses_that_heal() {
        let e = experiment();
        let fresh = e.run();
        for (version, old) in [(1, PAYLOAD_V1), (2, PAYLOAD_V2)] {
            // The fixture is this very run, in an old format.
            let v = Value::parse(old).expect("old fixture is JSON");
            assert_eq!(v.u64_of("v"), Some(version));
            let sim = v.get("sim").unwrap();
            assert_eq!(
                sim.u64_of("forwarded_packets"),
                Some(fresh.sim.forwarded_packets)
            );
            let me_energy_uj = match version {
                1 => sim.f64_of("me_energy_uj"),
                _ => sim.u64_of("me_energy_uj").map(f64::from_bits),
            };
            assert_eq!(me_energy_uj, Some(fresh.sim.me_energy_uj));
            assert!(decode_result(&e, old).is_none());

            let cache = temp_cache(&format!("v{version}"));
            cache.publish(&experiment_key(&e), old);
            let healed = run_cached(Some(&cache), &e);
            assert_eq!(encode_result(&healed), encode_result(&fresh));
            let counters = cache.counters();
            // Two stores: the planted old entry, then its rewrite.
            assert_eq!((counters.hits, counters.misses, counters.stores), (0, 1, 2));
            assert_eq!(
                cache.lookup(&experiment_key(&e)).as_deref(),
                Some(PAYLOAD_V3),
                "the v{version} entry is rewritten in the current format"
            );
            let _ = std::fs::remove_dir_all(cache.root());
        }
    }

    #[test]
    fn payload_layout_is_pinned() {
        let e = experiment();
        let payload = encode_result(&e.run());
        if payload != PAYLOAD_V3 {
            let out = std::env::temp_dir().join("cell_payload_v3.json");
            let _ = std::fs::write(&out, &payload);
            panic!(
                "the experiment-cell payload bytes changed (new bytes in {}). A layout change \
                 must bump ccache::codec::PAYLOAD_VERSION and replace the fixture in \
                 crates/core/tests/fixtures/; a change to simulated results must bump \
                 ccache::CACHE_EPOCH instead.",
                out.display()
            );
        }
        assert!(
            PAYLOAD_V3.starts_with(&format!("{{\"v\":{},", codec::PAYLOAD_VERSION)),
            "PAYLOAD_VERSION changed: replace the payload fixtures to match"
        );
        let decoded = decode_result(&e, PAYLOAD_V3).expect("the fixture decodes");
        assert_eq!(encode_result(&decoded), PAYLOAD_V3);
    }
}
