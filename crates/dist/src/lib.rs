//! **dist** — a dependency-free, seed-deterministic family of clamped
//! probability distributions behind the `stochastic` traffic model.
//!
//! A [`DistSpec`] is pure data: a [`DistKind`] (LogNormal, Pareto,
//! Weibull, Exponential, Poisson, Uniform or Constant) plus optional
//! `min`/`max` clamps. Specs parse from and render to the spec grammar
//! every other component family uses
//! (`pareto:alpha=1.3,scale=200,max=1500`), resolved through the entry
//! table [`DISTRIBUTIONS`] (a `kvspec` `Registry`) with the usual
//! UnknownName/UnknownParam listings.
//!
//! Two contracts matter downstream:
//!
//! * **Sampling is seed-deterministic**: [`DistSpec::sample`] draws
//!   from any `rand::Rng`, consuming a fixed number of uniforms per
//!   draw, so a stream is a pure function of its RNG seed.
//! * **[`DistSpec::mean`] is honest under clamping.** Clamping a heavy
//!   tail moves the mean — sometimes drastically (a Pareto with
//!   α = 1.3 has tails so heavy that capping at `max` can halve it).
//!   The implementation computes the exact truncated mean
//!   `E[clamp(X, a, b)] = a·F(a) + b·(1 − F(b)) + ∫_a^b x·f(x) dx`
//!   from each distribution's CDF and partial expectation (see
//!   [`DistKind::cdf`] and the per-kind partial-mean closed forms),
//!   so self-described rates stay truthful. An *unclamped* Pareto with
//!   `α ≤ 1` has an infinite mean and reports `f64::INFINITY` —
//!   clamp it with `max=` to use it as a rate-bearing distribution.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::str::FromStr;

use rand::Rng;

use kvspec::PVal;
pub use kvspec::{ParamInfo, SpecError};

pub mod fit;
pub mod math;
mod registry;

pub use registry::DISTRIBUTIONS;

/// The distribution shapes the family knows, with their parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DistKind {
    /// `exp(μ + σ·Z)` for standard normal `Z`: the classic
    /// elephant-and-mice packet-size shape.
    LogNormal {
        /// Mean of the underlying normal (log scale).
        mu: f64,
        /// Standard deviation of the underlying normal, > 0.
        sigma: f64,
    },
    /// Power-law tail `P(X > x) = (scale/x)^alpha` for `x ≥ scale` —
    /// the self-similar inter-arrival shape. Mean is infinite for
    /// `alpha ≤ 1` unless clamped with `max`.
    Pareto {
        /// Tail index, > 0 (smaller = heavier tail).
        alpha: f64,
        /// Scale (minimum value), > 0.
        scale: f64,
    },
    /// `scale·(−ln U)^(1/shape)`: sub-exponential tails for
    /// `shape < 1`, Rayleigh-like for `shape = 2`.
    Weibull {
        /// Shape parameter, > 0.
        shape: f64,
        /// Scale parameter, > 0.
        scale: f64,
    },
    /// Memoryless with the given mean (rate `1/mean`).
    Exponential {
        /// Mean, > 0.
        mean: f64,
    },
    /// Discrete counts with mean `lambda` (sampled by inversion of
    /// exponential gaps, O(λ) uniforms per draw).
    Poisson {
        /// Mean count, > 0.
        lambda: f64,
    },
    /// Uniform on `[low, high)`.
    Uniform {
        /// Inclusive lower bound.
        low: f64,
        /// Exclusive upper bound, > `low`.
        high: f64,
    },
    /// A degenerate point mass (consumes no randomness).
    Constant {
        /// The value.
        value: f64,
    },
}

/// A distribution plus optional clamping — the unit the `dist:` grammar
/// parses and the `stochastic` traffic model composes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistSpec {
    /// The distribution shape and its parameters.
    pub kind: DistKind,
    /// Samples below this are raised to it.
    pub min: Option<f64>,
    /// Samples above this are lowered to it.
    pub max: Option<f64>,
}

impl DistSpec {
    /// An unclamped spec of the given kind.
    #[must_use]
    pub fn new(kind: DistKind) -> Self {
        DistSpec {
            kind,
            min: None,
            max: None,
        }
    }

    /// The canonical registry name of this spec's kind.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self.kind {
            DistKind::LogNormal { .. } => "lognormal",
            DistKind::Pareto { .. } => "pareto",
            DistKind::Weibull { .. } => "weibull",
            DistKind::Exponential { .. } => "exponential",
            DistKind::Poisson { .. } => "poisson",
            DistKind::Uniform { .. } => "uniform",
            DistKind::Constant { .. } => "constant",
        }
    }

    /// The spec's parameters in registry order, typed for rendering
    /// (`min`/`max` appear only when set).
    #[must_use]
    pub fn params(&self) -> Vec<(&'static str, PVal)> {
        let mut params = match self.kind {
            DistKind::LogNormal { mu, sigma } => {
                vec![("mu", PVal::num_f64(mu)), ("sigma", PVal::num_f64(sigma))]
            }
            DistKind::Pareto { alpha, scale } => vec![
                ("alpha", PVal::num_f64(alpha)),
                ("scale", PVal::num_f64(scale)),
            ],
            DistKind::Weibull { shape, scale } => vec![
                ("shape", PVal::num_f64(shape)),
                ("scale", PVal::num_f64(scale)),
            ],
            DistKind::Exponential { mean } => vec![("mean", PVal::num_f64(mean))],
            DistKind::Poisson { lambda } => vec![("lambda", PVal::num_f64(lambda))],
            DistKind::Uniform { low, high } => {
                vec![("low", PVal::num_f64(low)), ("high", PVal::num_f64(high))]
            }
            DistKind::Constant { value } => vec![("value", PVal::num_f64(value))],
        };
        if let Some(min) = self.min {
            params.push(("min", PVal::num_f64(min)));
        }
        if let Some(max) = self.max {
            params.push(("max", PVal::num_f64(max)));
        }
        params
    }

    /// Parses the CLI grammar `name[:key=val[,key=val]...]` against
    /// [`DISTRIBUTIONS`].
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for unknown names/keys, unparsable
    /// values or values outside a distribution's valid range.
    pub fn parse(input: &str) -> Result<Self, SpecError> {
        DISTRIBUTIONS.parse(input)
    }

    /// Renders the spec in the CLI grammar; [`DistSpec::parse`] of the
    /// result reproduces the spec exactly.
    #[must_use]
    pub fn spec_string(&self) -> String {
        kvspec::render_cli(self.name(), &self.params())
    }

    /// Draws one clamped sample. Deterministic in the RNG state: every
    /// draw of a given kind consumes a fixed number of uniforms
    /// (Poisson consumes a variable but state-determined count), so a
    /// sample stream is a pure function of the seed.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let raw = match self.kind {
            DistKind::LogNormal { mu, sigma } => {
                // Box–Muller, cosine branch; both uniforms are always
                // consumed so the draw count stays fixed.
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(f64::EPSILON..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (mu + sigma * z).exp()
            }
            DistKind::Pareto { alpha, scale } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                scale * u.powf(-1.0 / alpha)
            }
            DistKind::Weibull { shape, scale } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                scale * (-u.ln()).powf(1.0 / shape)
            }
            DistKind::Exponential { mean } => {
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                -mean * u.ln()
            }
            DistKind::Poisson { lambda } => {
                // Count of unit-exponential gaps fitting inside λ.
                let mut acc = 0.0_f64;
                let mut k = 0u64;
                loop {
                    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                    acc -= u.ln();
                    if acc >= lambda {
                        break;
                    }
                    k += 1;
                }
                k as f64
            }
            DistKind::Uniform { low, high } => rng.gen_range(low..high),
            DistKind::Constant { value } => value,
        };
        self.clamp(raw)
    }

    /// Applies the configured clamps to a raw sample.
    #[must_use]
    fn clamp(&self, v: f64) -> f64 {
        let v = match self.min {
            Some(min) => v.max(min),
            None => v,
        };
        match self.max {
            Some(max) => v.min(max),
            None => v,
        }
    }

    /// The exact mean of the **clamped** distribution,
    /// `E[clamp(X, min, max)]` — see the crate docs for the
    /// truncated-mean identity this implements. Returns
    /// `f64::INFINITY` for an unclamped Pareto with `alpha ≤ 1`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match self.kind {
            DistKind::Constant { value } => self.clamp(value),
            DistKind::Poisson { lambda } => self.poisson_clamped_mean(lambda),
            _ => {
                // E[clamp(X,a,b)] = a·F(a) + b·(1−F(b)) + (M(b) − M(a))
                // with M the partial expectation ∫_{−∞}^x t·f(t) dt.
                let mut mean = 0.0;
                let lo = match self.min {
                    Some(a) => {
                        mean += a * self.kind.cdf(a);
                        a
                    }
                    None => f64::NEG_INFINITY,
                };
                let hi = match self.max {
                    Some(b) => {
                        mean += b * (1.0 - self.kind.cdf(b));
                        b
                    }
                    None => f64::INFINITY,
                };
                mean + self.kind.partial_mean(hi) - self.kind.partial_mean(lo)
            }
        }
    }

    /// Clamped Poisson mean by direct summation of the pmf (log-space,
    /// so any valid λ works); the tail beyond the summation horizon
    /// carries < 1e-12 of the mass.
    fn poisson_clamped_mean(&self, lambda: f64) -> f64 {
        let horizon = (lambda + 12.0 * lambda.sqrt() + 40.0).ceil();
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let kmax = horizon as u64;
        let mut mean = 0.0;
        let mut mass = 0.0;
        for k in 0..=kmax {
            let kf = k as f64;
            let p = (kf * lambda.ln() - lambda - math::ln_gamma(kf + 1.0)).exp();
            mean += self.clamp(kf) * p;
            mass += p;
        }
        // Residual tail mass behaves like the clamped horizon value.
        mean + self.clamp(horizon) * (1.0 - mass).max(0.0)
    }

    /// The smallest value a sample can take (natural support floor,
    /// raised by `min`, capped by `max`). The `stochastic` traffic
    /// model requires this to be ≥ 0 for inter-arrival gaps.
    #[must_use]
    pub fn support_min(&self) -> f64 {
        let natural = match self.kind {
            DistKind::LogNormal { .. }
            | DistKind::Weibull { .. }
            | DistKind::Exponential { .. }
            | DistKind::Poisson { .. } => 0.0,
            DistKind::Pareto { scale, .. } => scale,
            DistKind::Uniform { low, .. } => low,
            DistKind::Constant { value } => value,
        };
        self.clamp(natural)
    }
}

impl DistKind {
    /// The CDF `F(x) = P(X ≤ x)` (0 below the support, 1 above it).
    #[must_use]
    pub fn cdf(&self, x: f64) -> f64 {
        if x == f64::INFINITY {
            return 1.0;
        }
        match *self {
            DistKind::LogNormal { mu, sigma } => {
                if x <= 0.0 {
                    0.0
                } else {
                    math::normal_cdf((x.ln() - mu) / sigma)
                }
            }
            DistKind::Pareto { alpha, scale } => {
                if x <= scale {
                    0.0
                } else {
                    1.0 - (scale / x).powf(alpha)
                }
            }
            DistKind::Weibull { shape, scale } => {
                if x <= 0.0 {
                    0.0
                } else {
                    1.0 - (-(x / scale).powf(shape)).exp()
                }
            }
            DistKind::Exponential { mean } => {
                if x <= 0.0 {
                    0.0
                } else {
                    1.0 - (-x / mean).exp()
                }
            }
            DistKind::Poisson { lambda } => {
                if x < 0.0 {
                    0.0
                } else {
                    // P(X ≤ x) = Q(⌊x⌋+1, λ) = 1 − P(⌊x⌋+1, λ).
                    1.0 - math::gamma_p(x.floor() + 1.0, lambda)
                }
            }
            DistKind::Uniform { low, high } => ((x - low) / (high - low)).clamp(0.0, 1.0),
            DistKind::Constant { value } => {
                if x >= value {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// The partial expectation `M(x) = ∫_{−∞}^x t·f(t) dt`; `M(∞)` is
    /// the full (possibly infinite) mean. Continuous kinds only —
    /// Poisson and Constant take the direct-summation path in
    /// [`DistSpec::mean`].
    fn partial_mean(&self, x: f64) -> f64 {
        match *self {
            DistKind::LogNormal { mu, sigma } => {
                let full = (mu + 0.5 * sigma * sigma).exp();
                if x <= 0.0 {
                    0.0
                } else if x == f64::INFINITY {
                    full
                } else {
                    full * math::normal_cdf((x.ln() - mu - sigma * sigma) / sigma)
                }
            }
            DistKind::Pareto { alpha, scale } => {
                if x <= scale {
                    0.0
                } else if (alpha - 1.0).abs() < 1e-12 {
                    if x == f64::INFINITY {
                        f64::INFINITY
                    } else {
                        scale * (x / scale).ln()
                    }
                } else if x == f64::INFINITY {
                    if alpha > 1.0 {
                        alpha * scale / (alpha - 1.0)
                    } else {
                        f64::INFINITY
                    }
                } else {
                    alpha * scale / (alpha - 1.0) * (1.0 - (scale / x).powf(alpha - 1.0))
                }
            }
            DistKind::Weibull { shape, scale } => {
                let full = scale * math::gamma(1.0 + 1.0 / shape);
                if x <= 0.0 {
                    0.0
                } else if x == f64::INFINITY {
                    full
                } else {
                    full * math::gamma_p(1.0 + 1.0 / shape, (x / scale).powf(shape))
                }
            }
            DistKind::Exponential { mean } => {
                if x <= 0.0 {
                    0.0
                } else if x == f64::INFINITY {
                    mean
                } else {
                    mean - (-x / mean).exp() * (x + mean)
                }
            }
            DistKind::Uniform { low, high } => {
                if x <= low {
                    0.0
                } else if x >= high {
                    0.5 * (low + high)
                } else {
                    (x * x - low * low) / (2.0 * (high - low))
                }
            }
            DistKind::Poisson { .. } | DistKind::Constant { .. } => {
                unreachable!("discrete kinds use direct summation")
            }
        }
    }
}

impl fmt::Display for DistSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.spec_string())
    }
}

impl FromStr for DistSpec {
    type Err = SpecError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DistSpec::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::rng::root_rng;

    fn sample_mean(spec: &DistSpec, n: usize, seed: u64) -> f64 {
        let mut rng = root_rng(seed);
        (0..n).map(|_| spec.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn unclamped_means_match_closed_forms() {
        let cases = [
            ("exponential:mean=40", 40.0),
            ("uniform:low=10,high=30", 20.0),
            ("constant:value=7", 7.0),
            ("pareto:alpha=2.5,scale=60", 2.5 * 60.0 / 1.5),
            // Weibull mean = scale·Γ(1 + 1/shape); Γ(1.5) = √π/2.
            (
                "weibull:shape=2,scale=100",
                100.0 * std::f64::consts::PI.sqrt() / 2.0,
            ),
            // LogNormal mean = exp(μ + σ²/2).
            ("lognormal:mu=3,sigma=0.5", (3.0_f64 + 0.125).exp()),
            ("poisson:lambda=12", 12.0),
        ];
        for (spec, expected) in cases {
            let d = DistSpec::parse(spec).unwrap();
            assert!(
                (d.mean() - expected).abs() / expected < 1e-9,
                "{spec}: mean {} vs {expected}",
                d.mean()
            );
        }
    }

    #[test]
    fn unclamped_pareto_with_heavy_tail_reports_infinite_mean() {
        let d = DistSpec::parse("pareto:alpha=1,scale=10").unwrap();
        assert_eq!(d.mean(), f64::INFINITY);
        let d = DistSpec::parse("pareto:alpha=0.8,scale=10").unwrap();
        assert_eq!(d.mean(), f64::INFINITY);
        // The same tail clamped is finite again.
        let d = DistSpec::parse("pareto:alpha=0.8,scale=10,max=1e4").unwrap();
        assert!(d.mean().is_finite());
    }

    #[test]
    fn clamped_means_match_sampling() {
        // The honest-mean contract: for every kind, the analytic
        // truncated mean tracks a large fixed-seed sample mean.
        let specs = [
            "pareto:alpha=1.3,scale=20,max=400",
            "lognormal:mu=6,sigma=1.2,min=40,max=1500",
            "weibull:shape=0.7,scale=50,max=600",
            "exponential:mean=80,min=10,max=300",
            "uniform:low=0,high=100,min=25,max=75",
            "poisson:lambda=30,min=20,max=40",
            "constant:value=500,max=100",
        ];
        for spec in specs {
            let d = DistSpec::parse(spec).unwrap();
            let analytic = d.mean();
            let sampled = sample_mean(&d, 200_000, 7);
            assert!(
                (sampled - analytic).abs() / analytic < 0.02,
                "{spec}: sampled {sampled} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn clamping_a_heavy_tail_moves_the_mean_down() {
        let open = DistSpec::parse("pareto:alpha=1.3,scale=20").unwrap();
        let capped = DistSpec::parse("pareto:alpha=1.3,scale=20,max=400").unwrap();
        assert!(open.mean() > capped.mean());
        // α = 1.3 with scale 20: unclamped mean is α·s/(α−1) ≈ 86.7.
        assert!((open.mean() - 1.3 * 20.0 / 0.3).abs() < 1e-9);
    }

    #[test]
    fn samples_respect_the_clamps() {
        let d = DistSpec::parse("pareto:alpha=1.1,scale=5,min=8,max=50").unwrap();
        let mut rng = root_rng(11);
        for _ in 0..10_000 {
            let v = d.sample(&mut rng);
            assert!((8.0..=50.0).contains(&v), "sample {v} escaped the clamp");
        }
        assert_eq!(d.support_min(), 8.0);
    }

    #[test]
    fn same_seed_same_stream() {
        for spec in ["lognormal:mu=6,sigma=1.2", "poisson:lambda=9", "uniform"] {
            let d = DistSpec::parse(spec).unwrap();
            let mut a = root_rng(3);
            let mut b = root_rng(3);
            let xs: Vec<f64> = (0..64).map(|_| d.sample(&mut a)).collect();
            let ys: Vec<f64> = (0..64).map(|_| d.sample(&mut b)).collect();
            assert_eq!(xs, ys, "{spec}");
        }
    }

    #[test]
    fn support_min_reflects_natural_floors_and_clamps() {
        assert_eq!(
            DistSpec::parse("pareto:scale=30").unwrap().support_min(),
            30.0
        );
        assert_eq!(DistSpec::parse("exponential").unwrap().support_min(), 0.0);
        assert_eq!(
            DistSpec::parse("uniform:low=-5,high=5")
                .unwrap()
                .support_min(),
            -5.0
        );
        assert_eq!(
            DistSpec::parse("lognormal:min=12").unwrap().support_min(),
            12.0
        );
        assert_eq!(
            DistSpec::parse("constant:value=9,max=4")
                .unwrap()
                .support_min(),
            4.0
        );
    }

    #[test]
    fn poisson_cdf_matches_the_pmf_sum() {
        let k = DistKind::Poisson { lambda: 4.0 };
        // P(X ≤ 3) for λ=4: e^{-4}(1 + 4 + 8 + 32/3).
        let expected = (-4.0_f64).exp() * (1.0 + 4.0 + 8.0 + 32.0 / 3.0);
        assert!((k.cdf(3.0) - expected).abs() < 1e-10, "{}", k.cdf(3.0));
        assert!((k.cdf(3.7) - expected).abs() < 1e-10);
        assert_eq!(k.cdf(-0.5), 0.0);
    }
}
