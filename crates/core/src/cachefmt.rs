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
//! [`run_cached`] is the one cached execution path: every batch
//! funnelled through [`run_experiments`](crate::run_experiments) and
//! the CLI's single-run path go through it, so hit/miss accounting and
//! fallback semantics live in exactly one place.

use ccache::codec::{self, read_sim_report, write_sim_report};
use ccache::json::{Reader, Writer, PACKED_F64_BYTES};
use ccache::Cache;
use loc::{DistParts, DistRel, DistributionReport};

use crate::experiment::{Experiment, ExperimentResult};

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
    r.begin_obj()?;
    // Struct fields evaluate in the order written: the layout's order.
    let parts = DistParts {
        rel: match r.key("rel")?.name()? {
            "eq" => DistRel::Eq,
            "le" => DistRel::Le,
            "ge" => DistRel::Ge,
            _ => return None,
        },
        min: r.key("min")?.f64()?,
        max: r.key("max")?.f64()?,
        step: r.key("step")?.f64()?,
        counts: r.key("counts")?.list(Reader::u64)?,
        sorted_values: {
            let count = r.key("values_len")?.usize()?;
            r.key("values")?.packed_f64s(count)?
        },
        nan_count: r.key("nan")?.u64()?,
        total: r.key("total")?.u64()?,
    };
    r.end_obj()?;
    // The two outer bins always exist; the report's edges rely on them.
    (parts.counts.len() >= 2).then(|| DistributionReport::from_parts(parts))
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

/// Runs one experiment through the cache: lookup, fall back to
/// [`Experiment::run`] on a miss (or a decode failure, demoted to a
/// miss), publish the fresh result. With no cache this **is**
/// `experiment.run()`.
#[must_use]
pub fn run_cached(cache: Option<&Cache>, experiment: &Experiment) -> ExperimentResult {
    let Some(cache) = cache else {
        return experiment.run();
    };
    let key = experiment_key(experiment);
    // The probe is one profiler span that renames itself once resolved:
    // `cache.lookup` becomes `cache.lookup.hit` on an intact entry and
    // `cache.lookup.miss` otherwise (including decode demotions), with running
    // hit/miss counter events alongside.
    let cached = {
        let mut prof = obs::prof::span("cache.lookup");
        match cache.lookup(&key).and_then(|p| {
            let decoded = decode_result(experiment, &p);
            if decoded.is_none() {
                cache.demote_hit();
            }
            decoded
        }) {
            Some(result) => {
                prof.set_name("cache.lookup.hit");
                obs::prof::count("cache.hits", 1.0);
                Some(result)
            }
            None => {
                prof.set_name("cache.lookup.miss");
                obs::prof::count("cache.misses", 1.0);
                None
            }
        }
    };
    if let Some(result) = cached {
        return result;
    }
    let result = experiment.run();
    cache.publish(&key, &encode_result(&result));
    result
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
        let cold = run_cached(Some(&cache), &e);
        let warm = run_cached(Some(&cache), &e);
        assert_eq!(cold.sim, warm.sim);
        assert_eq!(cold.power, warm.power);
        let counters = cache.counters();
        assert_eq!((counters.hits, counters.misses, counters.stores), (1, 1, 1));
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn corrupt_payload_demotes_to_miss_and_heals() {
        let cache = temp_cache("demote");
        let e = experiment();
        // A structurally valid entry whose payload is not a result.
        cache.publish(&experiment_key(&e), "{\"v\":1,\"sim\":{}}");
        let result = run_cached(Some(&cache), &e);
        assert!(result.sim.forwarded_packets > 0);
        let counters = cache.counters();
        assert_eq!(counters.hits, 0, "decode failure demotes the hit");
        assert_eq!(counters.misses, 1);
        // The healed entry now hits.
        let again = run_cached(Some(&cache), &e);
        assert_eq!(again.sim, result.sim);
        assert_eq!(cache.counters().hits, 1);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    /// A decoder under test: `true` when the payload decoded.
    type Decodes = Box<dyn Fn(&str) -> bool>;

    /// One payload of each kind the cache stores, with its decoder:
    /// an experiment cell, scenario segment snapshots, and a fleet
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
        vec![
            (
                "cell",
                cell,
                Box::new(move |p| decode_result(&e, p).is_some()),
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
        let again = run_cached(Some(&cache), &e);
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
