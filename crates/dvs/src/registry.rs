//! The policy entry table: every built-in policy, discoverable by name.
//!
//! [`POLICIES`] is the single place a policy is wired into the
//! workspace's surfaces. One entry gives a policy:
//!
//! * a **name** (plus aliases) reachable from the spec grammar (see
//!   [`PolicySpec`]),
//! * self-describing **parameter metadata** (`abdex policies` renders it),
//! * a **builder** that validates parameters and produces the spec.
//!
//! The lookup itself (case-insensitive names, the error listings) is
//! `kvspec`'s [`Registry`]. Adding a policy touches only this crate:
//! implement [`DvsPolicy`](crate::DvsPolicy), add a [`PolicySpec`]
//! variant, and add its entry to [`POLICIES`].

use kvspec::{Entry, ParamInfo, Registry};

use crate::spec::{Params, SpecError};
use crate::{
    CombinedConfig, EdvsConfig, PolicySpec, ProportionalConfig, QueueAwareConfig, TdvsConfig,
};

/// The built-in policies, in listing order.
pub static POLICIES: Registry<PolicySpec> = Registry::new(
    "policy",
    &[
        Entry {
            name: "nodvs",
            aliases: &["none", "no-dvs"],
            summary: "baseline: every ME pinned at the top VF level",
            params: &[],
            build: build_nodvs,
        },
        Entry {
            name: "tdvs",
            aliases: &["traffic"],
            summary: "global traffic-threshold scaling (paper §4.1)",
            params: &[
                ParamInfo {
                    key: "threshold",
                    default: "1000",
                    help: "traffic threshold at the top level, Mbps",
                },
                WINDOW_PARAM,
                ParamInfo {
                    key: "hysteresis",
                    default: "0",
                    help: "relative dead band around each threshold, [0, 1)",
                },
            ],
            build: build_tdvs,
        },
        Entry {
            name: "edvs",
            aliases: &["execution"],
            summary: "per-ME idle-time scaling (paper §4.2)",
            params: &[
                ParamInfo {
                    key: "idle",
                    default: "0.10",
                    help: "idle-fraction threshold, (0, 1)",
                },
                WINDOW_PARAM,
            ],
            build: build_edvs,
        },
        Entry {
            name: "combined",
            aliases: &["tedvs"],
            summary: "traffic AND idle must agree to scale down (TEDVS)",
            params: &[
                ParamInfo {
                    key: "threshold",
                    default: "1000",
                    help: "traffic threshold at the top level, Mbps",
                },
                ParamInfo {
                    key: "idle",
                    default: "0.10",
                    help: "idle-fraction threshold, (0, 1)",
                },
                WINDOW_PARAM,
            ],
            build: build_combined,
        },
        Entry {
            name: "queue",
            aliases: &["qdvs", "queue-aware"],
            summary: "global scaling on receive-FIFO occupancy watermarks",
            params: &[
                ParamInfo {
                    key: "high",
                    default: "0.75",
                    help: "fill fraction above which the chip steps up",
                },
                ParamInfo {
                    key: "low",
                    default: "0.20",
                    help: "fill fraction below which the chip steps down",
                },
                WINDOW_PARAM,
            ],
            build: build_queue,
        },
        Entry {
            name: "proportional",
            aliases: &["pid", "pdvs"],
            summary: "per-ME PI controller driving idle time to a setpoint",
            params: &[
                ParamInfo {
                    key: "target",
                    default: "0.10",
                    help: "idle-fraction setpoint, (0, 1)",
                },
                ParamInfo {
                    key: "kp",
                    default: "4",
                    help: "proportional gain, levels per unit idle error",
                },
                ParamInfo {
                    key: "ki",
                    default: "0.5",
                    help: "integral gain, levels per accumulated error",
                },
                WINDOW_PARAM,
            ],
            build: build_proportional,
        },
    ],
);

const WINDOW_PARAM: ParamInfo = ParamInfo {
    key: "window",
    default: "40000",
    help: "monitor window, cycles at the normal frequency",
};

fn take_window(params: &mut Params) -> Result<u64, SpecError> {
    let window = params.u64("window", 40_000)?;
    if window == 0 {
        return Err(SpecError::InvalidValue {
            key: "window".to_owned(),
            value: "0".to_owned(),
            expected: "a positive cycle count",
        });
    }
    Ok(window)
}

fn take_fraction(params: &mut Params, key: &'static str, default: f64) -> Result<f64, SpecError> {
    let value = params.f64(key, default)?;
    if value > 0.0 && value < 1.0 {
        Ok(value)
    } else {
        Err(SpecError::InvalidValue {
            key: key.to_owned(),
            value: value.to_string(),
            expected: "a fraction strictly between 0 and 1",
        })
    }
}

fn build_nodvs(params: Params) -> Result<PolicySpec, SpecError> {
    params.finish("nodvs")?;
    Ok(PolicySpec::NoDvs)
}

fn build_tdvs(mut params: Params) -> Result<PolicySpec, SpecError> {
    let top_threshold_mbps = params.positive_f64("threshold", 1000.0)?;
    let window_cycles = take_window(&mut params)?;
    let hysteresis = params.maybe_f64("hysteresis")?;
    params.finish("tdvs")?;
    let base = TdvsConfig {
        top_threshold_mbps,
        window_cycles,
    };
    // Presence of the key (not its value) selects the variant, so a
    // rendered `hysteresis=0` spec round-trips to the same variant.
    match hysteresis {
        None => Ok(PolicySpec::Tdvs(base)),
        Some(h) if (0.0..1.0).contains(&h) => {
            Ok(PolicySpec::TdvsHysteresis(base.with_hysteresis(h)))
        }
        Some(h) => Err(SpecError::InvalidValue {
            key: "hysteresis".to_owned(),
            value: h.to_string(),
            expected: "a fraction in [0, 1)",
        }),
    }
}

fn build_edvs(mut params: Params) -> Result<PolicySpec, SpecError> {
    let idle_threshold = take_fraction(&mut params, "idle", 0.10)?;
    let window_cycles = take_window(&mut params)?;
    params.finish("edvs")?;
    Ok(PolicySpec::Edvs(EdvsConfig {
        idle_threshold,
        window_cycles,
    }))
}

fn build_combined(mut params: Params) -> Result<PolicySpec, SpecError> {
    let top_threshold_mbps = params.positive_f64("threshold", 1000.0)?;
    let idle_threshold = take_fraction(&mut params, "idle", 0.10)?;
    let window_cycles = take_window(&mut params)?;
    params.finish("combined")?;
    Ok(PolicySpec::Combined(CombinedConfig {
        tdvs: TdvsConfig {
            top_threshold_mbps,
            window_cycles,
        },
        edvs: EdvsConfig {
            idle_threshold,
            window_cycles,
        },
    }))
}

fn build_queue(mut params: Params) -> Result<PolicySpec, SpecError> {
    let high_occupancy = take_fraction(&mut params, "high", 0.75)?;
    let low_occupancy = params.f64("low", 0.20)?;
    let window_cycles = take_window(&mut params)?;
    params.finish("queue")?;
    if !(0.0..1.0).contains(&low_occupancy) || low_occupancy >= high_occupancy {
        return Err(SpecError::InvalidValue {
            key: "low".to_owned(),
            value: low_occupancy.to_string(),
            expected: "a fraction in [0, 1) below `high`",
        });
    }
    Ok(PolicySpec::QueueAware(QueueAwareConfig {
        high_occupancy,
        low_occupancy,
        window_cycles,
    }))
}

fn build_proportional(mut params: Params) -> Result<PolicySpec, SpecError> {
    let target_idle = take_fraction(&mut params, "target", 0.10)?;
    let kp = params.f64("kp", 4.0)?;
    let ki = params.f64("ki", 0.5)?;
    let window_cycles = take_window(&mut params)?;
    params.finish("proportional")?;
    for (key, gain) in [("kp", kp), ("ki", ki)] {
        if !gain.is_finite() || gain < 0.0 {
            return Err(SpecError::InvalidValue {
                key: key.to_owned(),
                value: gain.to_string(),
                expected: "a non-negative number",
            });
        }
    }
    if kp + ki <= 0.0 {
        return Err(SpecError::InvalidValue {
            key: "kp".to_owned(),
            value: kp.to_string(),
            expected: "at least one non-zero gain (kp or ki)",
        });
    }
    Ok(PolicySpec::Proportional(ProportionalConfig {
        target_idle,
        kp,
        ki,
        window_cycles,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PolicyKind;

    #[test]
    fn every_entry_builds_with_defaults() {
        for entry in POLICIES.entries() {
            let spec = POLICIES
                .build(entry.name, Params::default())
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            // `abdex policies` shows this kind, so no entry may be a
            // custom one.
            assert_ne!(spec.kind(), PolicyKind::Custom, "{}", entry.name);
        }
    }

    #[test]
    fn aliases_resolve_to_the_same_spec() {
        for entry in POLICIES.entries() {
            let canonical = POLICIES.build(entry.name, Params::default()).unwrap();
            for alias in entry.aliases {
                let via_alias = POLICIES.build(alias, Params::default()).unwrap();
                assert_eq!(via_alias, canonical, "alias {alias}");
            }
        }
    }

    #[test]
    fn names_are_case_insensitive() {
        assert!(POLICIES.build("TDVS", Params::default()).is_ok());
        assert_eq!(
            PolicySpec::parse("QDVS").unwrap(),
            PolicySpec::parse("queue").unwrap()
        );
    }

    #[test]
    fn documented_params_are_exactly_the_accepted_ones() {
        // Every documented key must be consumed, and the builders must
        // reject everything else.
        for entry in POLICIES.entries() {
            let mut params = Params::default();
            for p in entry.params {
                params.insert(p.key, p.default);
            }
            POLICIES
                .build(entry.name, params)
                .unwrap_or_else(|e| panic!("{} rejects its own defaults: {e}", entry.name));

            let mut bogus = Params::default();
            bogus.insert("definitely-not-a-param", "1");
            assert!(
                matches!(
                    POLICIES.build(entry.name, bogus),
                    Err(SpecError::UnknownParam { .. })
                ),
                "{} accepted a bogus key",
                entry.name
            );
        }
    }

    #[test]
    fn unknown_name_lists_known_policies() {
        let err = POLICIES.build("warp", Params::default()).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("warp"));
        assert!(text.contains("tdvs"));
        assert!(text.contains("proportional"));
    }
}
