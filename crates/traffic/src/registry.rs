//! The traffic-model entry table: every built-in traffic model,
//! discoverable by name — the traffic-side twin of `dvs::POLICIES`.
//!
//! One entry gives a model:
//!
//! * a **name** (plus aliases) reachable from the spec grammar (see
//!   [`TrafficSpec`]),
//! * self-describing **parameter metadata** (`abdex traffics` renders it),
//! * a **builder** that validates parameters and produces the spec.
//!
//! The lookup itself is `kvspec`'s [`Registry`]. Adding a traffic model
//! touches only this crate: implement [`TrafficModel`](crate::TrafficModel),
//! add a [`TrafficSpec`] variant, and add its entry to
//! [`TRAFFIC_MODELS`]. The conformance suite in `crates/traffic/tests/`
//! picks it up by name.

use kvspec::{Entry, ParamInfo, Params, Registry, SpecError};

use dist::DistSpec;

use crate::{
    ArrivalConfig, ConstantConfig, DiurnalConfig, FlashConfig, OnOffConfig, ReplayConfig, SizeMix,
    StochasticConfig, TrafficLevel, TrafficSpec, MAX_PACKET_BYTES,
};

const PORTS_PARAM: ParamInfo = ParamInfo {
    key: "ports",
    default: "16",
    help: "device ports packets are spread over",
};

/// The built-in traffic models, in listing order.
pub static TRAFFIC_MODELS: Registry<TrafficSpec> = Registry::new(
    "traffic model",
    &[
        Entry {
            name: "low",
            aliases: &[],
            summary: "night-time lull (450 Mbps MMPP)",
            params: &[],
            build: |params| build_level(params, TrafficLevel::Low),
        },
        Entry {
            name: "medium",
            aliases: &[],
            summary: "shoulder period (850 Mbps MMPP)",
            params: &[],
            build: |params| build_level(params, TrafficLevel::Medium),
        },
        Entry {
            name: "high",
            aliases: &[],
            summary: "mid-day peak (1150 Mbps MMPP)",
            params: &[],
            build: |params| build_level(params, TrafficLevel::High),
        },
        Entry {
            name: "mmpp",
            aliases: &["poisson", "bursty"],
            summary: "Markov-modulated Poisson arrivals (burstiness=1: plain Poisson)",
            params: &[
                ParamInfo {
                    key: "rate",
                    default: "850",
                    help: "long-run mean aggregate rate, Mbps",
                },
                ParamInfo {
                    key: "burstiness",
                    default: "1.6",
                    help: "burst-state rate as a multiple of the mean, >= 1",
                },
                ParamInfo {
                    key: "dwell_us",
                    default: "200",
                    help: "mean dwell time per modulation state, microseconds",
                },
                PORTS_PARAM,
            ],
            build: build_mmpp,
        },
        Entry {
            name: "diurnal",
            aliases: &["day"],
            summary: "sample the Fig. 2 day profile, drive MMPP at the median",
            params: &[
                ParamInfo {
                    key: "hour",
                    default: "16",
                    help: "time of day to sample, hours [0, 24)",
                },
                ParamInfo {
                    key: "scale",
                    default: "5",
                    help: "NPU aggregate / profiled-link median ratio",
                },
                ParamInfo {
                    key: "peak_bps",
                    default: "250000000",
                    help: "day-profile peak rate, bits/s",
                },
                ParamInfo {
                    key: "profile_seed",
                    default: "0",
                    help: "profile-jitter seed (fixed per spec)",
                },
            ],
            build: build_diurnal,
        },
        Entry {
            name: "burst",
            aliases: &["onoff", "on-off"],
            summary: "deterministic on/off bursts, Poisson arrivals inside phases",
            params: &[
                ParamInfo {
                    key: "on_mbps",
                    default: "1600",
                    help: "aggregate rate during the on phase, Mbps",
                },
                ParamInfo {
                    key: "off_mbps",
                    default: "200",
                    help: "aggregate rate during the off phase, Mbps (0 = silent)",
                },
                ParamInfo {
                    key: "period_s",
                    default: "0.002",
                    help: "length of one on+off cycle, seconds",
                },
                ParamInfo {
                    key: "duty",
                    default: "0.5",
                    help: "fraction of each period spent on, (0, 1)",
                },
                PORTS_PARAM,
            ],
            build: build_burst,
        },
        Entry {
            name: "flash",
            aliases: &["spike", "flashcrowd"],
            summary: "baseline plus one trapezoidal flash-crowd spike",
            params: &[
                ParamInfo {
                    key: "base_mbps",
                    default: "400",
                    help: "baseline aggregate rate, Mbps",
                },
                ParamInfo {
                    key: "peak_mbps",
                    default: "1800",
                    help: "rate at the top of the spike, Mbps",
                },
                ParamInfo {
                    key: "at_ms",
                    default: "4",
                    help: "spike start, milliseconds from stream start",
                },
                ParamInfo {
                    key: "ramp_ms",
                    default: "1",
                    help: "linear ramp length (up and down), milliseconds",
                },
                ParamInfo {
                    key: "hold_ms",
                    default: "3",
                    help: "time held at the peak, milliseconds",
                },
                PORTS_PARAM,
            ],
            build: build_flash,
        },
        Entry {
            name: "constant",
            aliases: &["cbr", "fixed"],
            summary: "constant bit rate: equally spaced fixed-size packets (no RNG)",
            params: &[
                ParamInfo {
                    key: "rate",
                    default: "600",
                    help: "aggregate rate, Mbps",
                },
                ParamInfo {
                    key: "size",
                    default: "576",
                    help: "size of every packet, bytes",
                },
                PORTS_PARAM,
            ],
            build: build_constant,
        },
        Entry {
            name: "trace",
            aliases: &["replay"],
            summary: "replay a recorded trace file (see `abdex trace --out`)",
            params: &[
                ParamInfo {
                    key: "path",
                    default: "(required)",
                    help: "path of a trace in RecordedTrace text format",
                },
                ParamInfo {
                    key: "file",
                    default: "(required)",
                    help: "synonym for path (trace:file=t.trace)",
                },
                ParamInfo {
                    key: "scale",
                    default: "1",
                    help: "offered-rate multiplier via packet \
                           thinning (<1) or duplication (>1)",
                },
            ],
            build: build_trace,
        },
        Entry {
            name: "stochastic",
            aliases: &["renewal", "dist"],
            summary: "renewal arrivals: dist-driven gaps (us) and sizes (bytes)",
            params: &[
                ParamInfo {
                    key: "gap",
                    default: "pareto:alpha=1.5,scale=2.6,max=1000",
                    help: "inter-arrival gap distribution, microseconds \
                           (a dist spec; following keys bind to it)",
                },
                ParamInfo {
                    key: "size",
                    default: "lognormal:mu=6,sigma=1.2,min=40,max=1500",
                    help: "packet size distribution, bytes (a dist spec; \
                           following keys bind to it)",
                },
                PORTS_PARAM,
            ],
            build: build_stochastic,
        },
        Entry {
            name: "schedule",
            aliases: &["piecewise", "composite"],
            summary: "piecewise composition of other models over cycle windows",
            params: &[ParamInfo {
                key: "segments",
                default: "(required)",
                help: "[child@start..end; ...] windows in 600 MHz base-clock \
                       cycles, contiguous from 0; the last end may stay open \
                       (start..)",
            }],
            build: build_schedule,
        },
    ],
);

fn build_level(params: Params, level: TrafficLevel) -> Result<TrafficSpec, SpecError> {
    let spec = TrafficSpec::Level(level);
    params.finish(spec.name())?;
    Ok(spec)
}

fn take_positive(params: &mut Params, key: &'static str, default: f64) -> Result<f64, SpecError> {
    let value = params.f64(key, default)?;
    if value.is_finite() && value > 0.0 {
        Ok(value)
    } else {
        Err(SpecError::InvalidValue {
            key: key.to_owned(),
            value: value.to_string(),
            expected: "a positive number",
        })
    }
}

fn take_non_negative(
    params: &mut Params,
    key: &'static str,
    default: f64,
) -> Result<f64, SpecError> {
    let value = params.f64(key, default)?;
    if value.is_finite() && value >= 0.0 {
        Ok(value)
    } else {
        Err(SpecError::InvalidValue {
            key: key.to_owned(),
            value: value.to_string(),
            expected: "a non-negative number",
        })
    }
}

fn take_ports(params: &mut Params) -> Result<u8, SpecError> {
    let ports = params.u64("ports", 16)?;
    if (1..=255).contains(&ports) {
        Ok(ports as u8)
    } else {
        Err(SpecError::InvalidValue {
            key: "ports".to_owned(),
            value: ports.to_string(),
            expected: "a port count between 1 and 255",
        })
    }
}

fn build_mmpp(mut params: Params) -> Result<TrafficSpec, SpecError> {
    let mean_rate_mbps = take_positive(&mut params, "rate", 850.0)?;
    let burstiness = params.f64("burstiness", 1.6)?;
    let dwell_mean_us = take_positive(&mut params, "dwell_us", 200.0)?;
    let ports = take_ports(&mut params)?;
    params.finish("mmpp")?;
    if !burstiness.is_finite() || burstiness < 1.0 {
        return Err(SpecError::InvalidValue {
            key: "burstiness".to_owned(),
            value: burstiness.to_string(),
            expected: "a number >= 1",
        });
    }
    Ok(TrafficSpec::Mmpp(ArrivalConfig {
        mean_rate_mbps,
        burstiness,
        dwell_mean_us,
        ports,
        size_mix: SizeMix::imix(),
    }))
}

fn build_diurnal(mut params: Params) -> Result<TrafficSpec, SpecError> {
    let hour = params.f64("hour", 16.0)?;
    let aggregate_scale = take_positive(&mut params, "scale", 5.0)?;
    let peak_bps = take_positive(&mut params, "peak_bps", 2.5e8)?;
    let profile_seed = params.u64("profile_seed", 0)?;
    params.finish("diurnal")?;
    if !hour.is_finite() || !(0.0..24.0).contains(&hour) {
        return Err(SpecError::InvalidValue {
            key: "hour".to_owned(),
            value: hour.to_string(),
            expected: "a time of day in [0, 24)",
        });
    }
    Ok(TrafficSpec::Diurnal(DiurnalConfig {
        hour,
        aggregate_scale,
        peak_bps,
        profile_seed,
    }))
}

fn build_burst(mut params: Params) -> Result<TrafficSpec, SpecError> {
    let on_mbps = take_positive(&mut params, "on_mbps", 1600.0)?;
    let off_mbps = take_non_negative(&mut params, "off_mbps", 200.0)?;
    let period_s = take_positive(&mut params, "period_s", 0.002)?;
    let duty = params.f64("duty", 0.5)?;
    let ports = take_ports(&mut params)?;
    params.finish("burst")?;
    if !(duty > 0.0 && duty < 1.0) {
        return Err(SpecError::InvalidValue {
            key: "duty".to_owned(),
            value: duty.to_string(),
            expected: "a fraction strictly between 0 and 1",
        });
    }
    Ok(TrafficSpec::OnOff(OnOffConfig {
        on_mbps,
        off_mbps,
        period_s,
        duty,
        ports,
        size_mix: SizeMix::imix(),
    }))
}

fn build_flash(mut params: Params) -> Result<TrafficSpec, SpecError> {
    let base_mbps = take_positive(&mut params, "base_mbps", 400.0)?;
    let peak_mbps = take_positive(&mut params, "peak_mbps", 1800.0)?;
    let at_ms = take_non_negative(&mut params, "at_ms", 4.0)?;
    let ramp_ms = take_non_negative(&mut params, "ramp_ms", 1.0)?;
    let hold_ms = take_non_negative(&mut params, "hold_ms", 3.0)?;
    let ports = take_ports(&mut params)?;
    params.finish("flash")?;
    Ok(TrafficSpec::Flash(FlashConfig {
        base_mbps,
        peak_mbps,
        at_ms,
        ramp_ms,
        hold_ms,
        ports,
        size_mix: SizeMix::imix(),
    }))
}

fn build_constant(mut params: Params) -> Result<TrafficSpec, SpecError> {
    let rate_mbps = take_positive(&mut params, "rate", 600.0)?;
    let size = params.u64("size", 576)?;
    let ports = take_ports(&mut params)?;
    params.finish("constant")?;
    if size == 0 || size > u64::from(MAX_PACKET_BYTES) {
        return Err(SpecError::InvalidValue {
            key: "size".to_owned(),
            value: size.to_string(),
            expected: "a packet size of 1 to 65535 bytes",
        });
    }
    Ok(TrafficSpec::Constant(ConstantConfig {
        rate_mbps,
        size_bytes: size as u32,
        ports,
    }))
}

fn build_trace(mut params: Params) -> Result<TrafficSpec, SpecError> {
    // `file` is an accepted synonym for `path` (`trace:file=t.trace`);
    // when both are given, `path` wins.
    let path = params.maybe_str("path");
    let file = params.maybe_str("file");
    let path = path.or(file);
    let scale = take_positive(&mut params, "scale", 1.0)?;
    params.finish("trace")?;
    let path = path.ok_or_else(|| SpecError::InvalidValue {
        key: "path".to_owned(),
        value: String::new(),
        expected: "a trace-file path (trace:path=...)",
    })?;
    Ok(TrafficSpec::Replay(ReplayConfig { path, scale }))
}

/// Builds the `stochastic` spec from ordered key/value pairs.
///
/// Nested dist grammar: the CLI splits `gap=pareto:alpha=1.3,max=1500`
/// into a `gap` pair and orphan `alpha`-less `max` pairs, so this
/// builder re-associates in grammar order — `gap`/`size` open a dist
/// spec string, every following non-top-level key appends to the most
/// recently opened one, and `ports` always binds to `stochastic`
/// itself (it is not a dist parameter).
fn build_stochastic(params: Params) -> Result<TrafficSpec, SpecError> {
    enum Open {
        None,
        Gap,
        Size,
    }
    let mut gap: Option<String> = None;
    let mut size: Option<String> = None;
    let mut ports_raw: Option<String> = None;
    let mut open = Open::None;
    for (key, value) in params.into_pairs() {
        match key.as_str() {
            "gap" => {
                gap = Some(value);
                open = Open::Gap;
            }
            "size" => {
                size = Some(value);
                open = Open::Size;
            }
            "ports" => ports_raw = Some(value),
            _ => {
                let target = match open {
                    Open::Gap => gap.as_mut().expect("gap opened"),
                    Open::Size => size.as_mut().expect("size opened"),
                    Open::None => {
                        return Err(SpecError::UnknownParam {
                            owner: "stochastic".to_owned(),
                            key,
                            known: String::new(),
                        });
                    }
                };
                target.push(',');
                target.push_str(&key);
                target.push('=');
                target.push_str(&value);
            }
        }
    }

    let defaults = StochasticConfig::default();
    let gap = match gap {
        Some(s) => DistSpec::parse(&s)?,
        None => defaults.gap,
    };
    let size = match size {
        Some(s) => DistSpec::parse(&s)?,
        None => defaults.size,
    };
    let ports = {
        let mut p = Params::default();
        if let Some(raw) = &ports_raw {
            p.insert("ports", raw);
        }
        take_ports(&mut p)?
    };

    let gap_mean = gap.mean();
    if !gap_mean.is_finite() || gap_mean <= 0.0 || gap.support_min() < 0.0 {
        return Err(SpecError::InvalidValue {
            key: "gap".to_owned(),
            value: gap.spec_string(),
            expected: "a non-negative gap distribution with a finite positive mean",
        });
    }
    let size_mean = size.mean();
    if !size_mean.is_finite() || size_mean < 1.0 {
        return Err(SpecError::InvalidValue {
            key: "size".to_owned(),
            value: size.spec_string(),
            expected: "a size distribution with a finite mean of at least one byte",
        });
    }
    Ok(TrafficSpec::Stochastic(StochasticConfig {
        gap,
        size,
        ports,
    }))
}

fn build_schedule(mut params: Params) -> Result<TrafficSpec, SpecError> {
    let raw = params.maybe_str("segments");
    params.finish("schedule")?;
    let raw = raw.ok_or_else(|| SpecError::InvalidValue {
        key: "segments".to_owned(),
        value: String::new(),
        expected: "a segment list (schedule:segments=[child@start..end; ...])",
    })?;
    let items = kvspec::parse_list(&raw)?;
    if items.is_empty() {
        return Err(SpecError::Malformed {
            input: raw,
            reason: "a schedule needs at least one segment".to_owned(),
        });
    }
    let segments = items
        .iter()
        .map(|item| crate::ScheduleSegment::parse(item))
        .collect::<Result<Vec<_>, _>>()?;
    let config = crate::ScheduleConfig { segments };
    config.check()?;
    Ok(TrafficSpec::Schedule(config))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fills the parameters an entry *requires* (those without a usable
    /// default) with valid sample values.
    fn fill_required(name: &str, params: &mut Params) {
        match name {
            "trace" => params.insert("path", "/tmp/x.txt"),
            "schedule" => params.insert("segments", "[low@0..2e6; high@2e6..]"),
            _ => {}
        }
    }

    #[test]
    fn every_entry_builds_with_defaults() {
        for entry in TRAFFIC_MODELS.entries() {
            let mut params = Params::default();
            fill_required(entry.name, &mut params);
            let spec = TRAFFIC_MODELS
                .build(entry.name, params)
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            assert_eq!(spec.name(), entry.name, "{}", entry.name);
        }
    }

    #[test]
    fn aliases_resolve_to_the_same_spec() {
        for entry in TRAFFIC_MODELS.entries() {
            let mut canonical_params = Params::default();
            fill_required(entry.name, &mut canonical_params);
            let canonical = TRAFFIC_MODELS.build(entry.name, canonical_params).unwrap();
            for alias in entry.aliases {
                let mut params = Params::default();
                fill_required(entry.name, &mut params);
                let via_alias = TRAFFIC_MODELS.build(alias, params).unwrap();
                assert_eq!(via_alias, canonical, "alias {alias}");
            }
        }
    }

    #[test]
    fn names_are_case_insensitive() {
        assert!(TRAFFIC_MODELS.build("BURST", Params::default()).is_ok());
        assert!(TRAFFIC_MODELS.build("Medium", Params::default()).is_ok());
        assert_eq!(
            TrafficSpec::parse("CBR").unwrap(),
            TrafficSpec::parse("constant").unwrap()
        );
    }

    #[test]
    fn documented_params_are_exactly_the_accepted_ones() {
        for entry in TRAFFIC_MODELS.entries() {
            let mut params = Params::default();
            for p in entry.params {
                if p.default == "(required)" {
                    continue; // filled below with a valid sample value
                }
                params.insert(p.key, p.default);
            }
            fill_required(entry.name, &mut params);
            TRAFFIC_MODELS
                .build(entry.name, params)
                .unwrap_or_else(|e| panic!("{} rejects its own defaults: {e}", entry.name));

            let mut bogus = Params::default();
            bogus.insert("definitely-not-a-param", "1");
            fill_required(entry.name, &mut bogus);
            assert!(
                matches!(
                    TRAFFIC_MODELS.build(entry.name, bogus),
                    Err(SpecError::UnknownParam { .. })
                ),
                "{} accepted a bogus key",
                entry.name
            );
        }
    }

    #[test]
    fn trace_requires_a_path() {
        let err = TRAFFIC_MODELS
            .build("trace", Params::default())
            .unwrap_err();
        assert!(matches!(err, SpecError::InvalidValue { ref key, .. } if key == "path"));
    }

    #[test]
    fn schedule_requires_a_segment_list() {
        let err = TRAFFIC_MODELS
            .build("schedule", Params::default())
            .unwrap_err();
        assert!(matches!(err, SpecError::InvalidValue { ref key, .. } if key == "segments"));
        // A child error propagates with its own context.
        let mut params = Params::default();
        params.insert("segments", "[burst:flux=9@0..]");
        let err = TRAFFIC_MODELS.build("schedule", params).unwrap_err();
        assert!(
            matches!(err, SpecError::UnknownParam { ref key, .. } if key == "flux"),
            "{err}"
        );
    }

    #[test]
    fn unknown_name_lists_known_models() {
        let err = TRAFFIC_MODELS
            .build("tsunami", Params::default())
            .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("tsunami"));
        assert!(text.contains("mmpp"));
        assert!(text.contains("flash"));
    }
}
