//! The distribution entry table: every built-in [`DistKind`],
//! discoverable by name — the same `kvspec` [`Registry`] as
//! `traffic::TRAFFIC_MODELS` and `dvs::POLICIES`, so error messages
//! list what *would* have worked.

use kvspec::{Entry, ParamInfo, Params, Registry, SpecError};

use crate::{DistKind, DistSpec};

const MIN_PARAM: ParamInfo = ParamInfo {
    key: "min",
    default: "(unset)",
    help: "raise samples below this to it (truncated mean stays honest)",
};

const MAX_PARAM: ParamInfo = ParamInfo {
    key: "max",
    default: "(unset)",
    help: "lower samples above this to it (tames heavy tails)",
};

/// The built-in distributions, in listing order. Every entry also
/// accepts the `min`/`max` clamps.
pub static DISTRIBUTIONS: Registry<DistSpec> = Registry::new(
    "distribution",
    &[
        Entry {
            name: "lognormal",
            aliases: &["log-normal"],
            summary: "exp(mu + sigma*Z): elephant-and-mice sizes",
            params: &[
                ParamInfo {
                    key: "mu",
                    default: "6",
                    help: "mean of the underlying normal (log scale)",
                },
                ParamInfo {
                    key: "sigma",
                    default: "1",
                    help: "std dev of the underlying normal, > 0",
                },
                MIN_PARAM,
                MAX_PARAM,
            ],
            build: build_lognormal,
        },
        Entry {
            name: "pareto",
            aliases: &["powerlaw"],
            summary: "power-law tail (alpha <= 1 needs max= for a finite mean)",
            params: &[
                ParamInfo {
                    key: "alpha",
                    default: "1.5",
                    help: "tail index, > 0 (smaller = heavier)",
                },
                ParamInfo {
                    key: "scale",
                    default: "100",
                    help: "scale (minimum value), > 0",
                },
                MIN_PARAM,
                MAX_PARAM,
            ],
            build: build_pareto,
        },
        Entry {
            name: "weibull",
            aliases: &[],
            summary: "stretched exponential (shape < 1: sub-exponential tail)",
            params: &[
                ParamInfo {
                    key: "shape",
                    default: "1",
                    help: "shape parameter, > 0",
                },
                ParamInfo {
                    key: "scale",
                    default: "100",
                    help: "scale parameter, > 0",
                },
                MIN_PARAM,
                MAX_PARAM,
            ],
            build: build_weibull,
        },
        Entry {
            name: "exponential",
            aliases: &["exp"],
            summary: "memoryless gaps with the given mean",
            params: &[
                ParamInfo {
                    key: "mean",
                    default: "100",
                    help: "mean, > 0",
                },
                MIN_PARAM,
                MAX_PARAM,
            ],
            build: build_exponential,
        },
        Entry {
            name: "poisson",
            aliases: &[],
            summary: "discrete counts with mean lambda",
            params: &[
                ParamInfo {
                    key: "lambda",
                    default: "100",
                    help: "mean count, (0, 1e6]",
                },
                MIN_PARAM,
                MAX_PARAM,
            ],
            build: build_poisson,
        },
        Entry {
            name: "uniform",
            aliases: &[],
            summary: "uniform on [low, high)",
            params: &[
                ParamInfo {
                    key: "low",
                    default: "0",
                    help: "inclusive lower bound",
                },
                ParamInfo {
                    key: "high",
                    default: "1",
                    help: "exclusive upper bound, > low",
                },
                MIN_PARAM,
                MAX_PARAM,
            ],
            build: build_uniform,
        },
        Entry {
            name: "constant",
            aliases: &["fixed"],
            summary: "a point mass (consumes no randomness)",
            params: &[
                ParamInfo {
                    key: "value",
                    default: "100",
                    help: "the value",
                },
                MIN_PARAM,
                MAX_PARAM,
            ],
            build: build_constant,
        },
    ],
);

/// Takes the `min`/`max` clamps every distribution accepts, finishes
/// `params` for `kind`'s entry and checks the clamps.
fn clamped(mut params: Params, kind: DistKind) -> Result<DistSpec, SpecError> {
    let min = params.maybe_f64("min")?;
    let max = params.maybe_f64("max")?;
    let spec = DistSpec { kind, min, max };
    params.finish(spec.name())?;
    for (key, value) in [("min", min), ("max", max)] {
        if let Some(v) = value {
            if !v.is_finite() {
                return Err(SpecError::InvalidValue {
                    key: key.to_owned(),
                    value: v.to_string(),
                    expected: "a finite clamp bound",
                });
            }
        }
    }
    if let (Some(a), Some(b)) = (min, max) {
        if a > b {
            return Err(SpecError::InvalidValue {
                key: "min".to_owned(),
                value: a.to_string(),
                expected: "a lower bound not above max",
            });
        }
    }
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

fn take_finite(params: &mut Params, key: &'static str, default: f64) -> Result<f64, SpecError> {
    let value = params.f64(key, default)?;
    if value.is_finite() {
        Ok(value)
    } else {
        Err(SpecError::InvalidValue {
            key: key.to_owned(),
            value: value.to_string(),
            expected: "a finite number",
        })
    }
}

fn build_lognormal(mut params: Params) -> Result<DistSpec, SpecError> {
    let mu = take_finite(&mut params, "mu", 6.0)?;
    let sigma = take_positive(&mut params, "sigma", 1.0)?;
    clamped(params, DistKind::LogNormal { mu, sigma })
}

fn build_pareto(mut params: Params) -> Result<DistSpec, SpecError> {
    let alpha = take_positive(&mut params, "alpha", 1.5)?;
    let scale = take_positive(&mut params, "scale", 100.0)?;
    clamped(params, DistKind::Pareto { alpha, scale })
}

fn build_weibull(mut params: Params) -> Result<DistSpec, SpecError> {
    let shape = take_positive(&mut params, "shape", 1.0)?;
    let scale = take_positive(&mut params, "scale", 100.0)?;
    clamped(params, DistKind::Weibull { shape, scale })
}

fn build_exponential(mut params: Params) -> Result<DistSpec, SpecError> {
    let mean = take_positive(&mut params, "mean", 100.0)?;
    clamped(params, DistKind::Exponential { mean })
}

fn build_poisson(mut params: Params) -> Result<DistSpec, SpecError> {
    let lambda = take_positive(&mut params, "lambda", 100.0)?;
    // Sampling is O(λ) uniforms per draw; bound it to keep streams fast.
    if lambda > 1e6 {
        return Err(SpecError::InvalidValue {
            key: "lambda".to_owned(),
            value: lambda.to_string(),
            expected: "a mean count in (0, 1e6]",
        });
    }
    clamped(params, DistKind::Poisson { lambda })
}

fn build_uniform(mut params: Params) -> Result<DistSpec, SpecError> {
    let low = take_finite(&mut params, "low", 0.0)?;
    let high = take_finite(&mut params, "high", 1.0)?;
    if low >= high {
        return Err(SpecError::InvalidValue {
            key: "high".to_owned(),
            value: high.to_string(),
            expected: "an upper bound strictly above low",
        });
    }
    clamped(params, DistKind::Uniform { low, high })
}

fn build_constant(mut params: Params) -> Result<DistSpec, SpecError> {
    let value = take_finite(&mut params, "value", 100.0)?;
    clamped(params, DistKind::Constant { value })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_entry_builds_with_defaults() {
        for entry in DISTRIBUTIONS.entries() {
            let spec = DISTRIBUTIONS
                .build(entry.name, Params::default())
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            assert_eq!(spec.name(), entry.name, "{}", entry.name);
            assert_eq!(spec.min, None);
            assert_eq!(spec.max, None);
        }
    }

    #[test]
    fn aliases_resolve_to_the_same_spec() {
        for entry in DISTRIBUTIONS.entries() {
            let canonical = DISTRIBUTIONS.build(entry.name, Params::default()).unwrap();
            for alias in entry.aliases {
                let via_alias = DISTRIBUTIONS.build(alias, Params::default()).unwrap();
                assert_eq!(via_alias, canonical, "alias {alias}");
            }
        }
    }

    #[test]
    fn documented_params_are_exactly_the_accepted_ones() {
        for entry in DISTRIBUTIONS.entries() {
            let mut params = Params::default();
            for p in entry.params {
                if p.default == "(unset)" {
                    continue; // min/max have no default value to insert
                }
                params.insert(p.key, p.default);
            }
            DISTRIBUTIONS
                .build(entry.name, params)
                .unwrap_or_else(|e| panic!("{} rejects its own defaults: {e}", entry.name));

            let mut bogus = Params::default();
            bogus.insert("definitely-not-a-param", "1");
            assert!(
                matches!(
                    DISTRIBUTIONS.build(entry.name, bogus),
                    Err(SpecError::UnknownParam { .. })
                ),
                "{} accepted a bogus key",
                entry.name
            );
        }
    }

    #[test]
    fn every_entry_accepts_clamps() {
        for entry in DISTRIBUTIONS.entries() {
            let mut params = Params::default();
            params.insert("min", "1");
            params.insert("max", "1000");
            let spec = DISTRIBUTIONS
                .build(entry.name, params)
                .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
            assert_eq!(spec.min, Some(1.0));
            assert_eq!(spec.max, Some(1000.0));
        }
    }

    #[test]
    fn clamp_bounds_must_be_ordered_and_finite() {
        let mut params = Params::default();
        params.insert("min", "10");
        params.insert("max", "5");
        let err = DISTRIBUTIONS.build("exponential", params).unwrap_err();
        assert!(matches!(err, SpecError::InvalidValue { ref key, .. } if key == "min"));

        let mut params = Params::default();
        params.insert("max", "inf");
        let err = DISTRIBUTIONS.build("exponential", params).unwrap_err();
        assert!(matches!(err, SpecError::InvalidValue { ref key, .. } if key == "max"));
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        for (name, key, value) in [
            ("lognormal", "sigma", "0"),
            ("pareto", "alpha", "-1"),
            ("pareto", "scale", "0"),
            ("weibull", "shape", "nope"),
            ("exponential", "mean", "-3"),
            ("poisson", "lambda", "2e6"),
            ("uniform", "high", "-1"),
            ("constant", "value", "inf"),
        ] {
            let mut params = Params::default();
            params.insert(key, value);
            let err = DISTRIBUTIONS.build(name, params).unwrap_err();
            assert!(
                matches!(err, SpecError::InvalidValue { .. }),
                "{name}:{key}={value} gave {err:?}"
            );
        }
    }

    #[test]
    fn unknown_name_lists_the_registry() {
        let err = DISTRIBUTIONS
            .build("cauchy", Params::default())
            .unwrap_err();
        let text = err.to_string();
        assert!(text.contains("distribution"), "{text}");
        assert!(text.contains("pareto"), "{text}");
        assert!(text.contains("lognormal"), "{text}");
    }

    #[test]
    fn unknown_param_lists_accepted_keys() {
        let mut params = Params::default();
        params.insert("flux", "9");
        let text = DISTRIBUTIONS
            .build("pareto", params)
            .unwrap_err()
            .to_string();
        assert!(text.contains("no parameter 'flux'"), "{text}");
        for key in ["alpha", "scale", "min", "max"] {
            assert!(text.contains(key), "missing '{key}' in {text}");
        }
    }
}
