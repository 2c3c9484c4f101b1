//! [`TrafficSpec`] — the declarative, serializable description of a
//! traffic model, and the grammars that produce one.
//!
//! A spec is *data* (which model, with which parameters); calling
//! [`TrafficSpec::model`] instantiates the live [`TrafficModel`]. Specs
//! are written in the same grammar as the policy layer
//! (`dvs::PolicySpec`), implemented by the shared [`kvspec`] crate: the
//! **CLI grammar** `name:key=val,key=val` ([`TrafficSpec::parse`], also
//! `FromStr`), e.g. `burst:on_mbps=1800,off_mbps=120,period_s=2` — with
//! `low`, `medium` and `high` as bare-name shorthands for the paper's
//! three sampling periods.
//!
//! Names and parameters resolve through the entry table
//! [`TRAFFIC_MODELS`](crate::TRAFFIC_MODELS), and every spec renders
//! back into the grammar ([`TrafficSpec::spec_string`]) with exact
//! round-tripping.

use std::fmt;
use std::str::FromStr;

use kvspec::{PVal, SpecError};
use serde::{Deserialize, Serialize};

use crate::registry::TRAFFIC_MODELS;
use crate::{
    ArrivalConfig, ConstantConfig, DiurnalConfig, FlashConfig, OnOffConfig, ReplayConfig,
    ScheduleConfig, StochasticConfig, TrafficLevel, TrafficModel,
};

/// A fully parameterised, buildable traffic-model description.
///
/// The canonical wire formats are the three flat grammars above; the
/// serde derive is tagged to mirror them but generates nothing under
/// the offline `serde` shim — the hand renderers in this module are the
/// format of record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "traffic", rename_all = "kebab-case")]
pub enum TrafficSpec {
    /// One of the paper's three sampling periods (§3.2) — shorthand for
    /// the canonical MMPP configuration of that level.
    Level(TrafficLevel),
    /// The Markov-modulated Poisson generator, fully parameterised.
    Mmpp(ArrivalConfig),
    /// The day-profile flow: sample the diurnal curve, drive MMPP.
    Diurnal(DiurnalConfig),
    /// Deterministic on/off bursts with Poisson arrivals inside phases.
    OnOff(OnOffConfig),
    /// Baseline plus one transient flash-crowd spike.
    Flash(FlashConfig),
    /// Constant bit rate: equally spaced fixed-size packets.
    Constant(ConstantConfig),
    /// Replay of a recorded trace file.
    Replay(ReplayConfig),
    /// Renewal arrivals with dist-driven gaps and packet sizes.
    Stochastic(StochasticConfig),
    /// Piecewise schedule of other specs over cycle windows.
    Schedule(ScheduleConfig),
}

impl TrafficSpec {
    /// The paper's three sampling periods as specs, lowest rate first —
    /// the default traffic axis of comparisons.
    #[must_use]
    pub fn paper_levels() -> [TrafficSpec; 3] {
        TrafficLevel::ALL.map(TrafficSpec::Level)
    }

    /// The canonical registry name of this spec's model.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            TrafficSpec::Level(TrafficLevel::Low) => "low",
            TrafficSpec::Level(TrafficLevel::Medium) => "medium",
            TrafficSpec::Level(TrafficLevel::High) => "high",
            TrafficSpec::Mmpp(_) => "mmpp",
            TrafficSpec::Diurnal(_) => "diurnal",
            TrafficSpec::OnOff(_) => "burst",
            TrafficSpec::Flash(_) => "flash",
            TrafficSpec::Constant(_) => "constant",
            TrafficSpec::Replay(_) => "trace",
            TrafficSpec::Stochastic(_) => "stochastic",
            TrafficSpec::Schedule(_) => "schedule",
        }
    }

    /// Instantiates the live packet-source model.
    ///
    /// Infallible for every generator; the `trace` model reads its file
    /// here, so a missing or malformed recording surfaces as an error
    /// (not at parse time — specs are pure data).
    ///
    /// # Errors
    ///
    /// Returns [`SpecError::Unbuildable`] when a trace file cannot be
    /// loaded.
    pub fn model(&self) -> Result<Box<dyn TrafficModel>, SpecError> {
        Ok(match self {
            TrafficSpec::Level(level) => Box::new(ArrivalConfig::for_level(*level)),
            TrafficSpec::Mmpp(c) => Box::new(c.clone()),
            TrafficSpec::Diurnal(c) => Box::new(c.clone()),
            TrafficSpec::OnOff(c) => Box::new(c.clone()),
            TrafficSpec::Flash(c) => Box::new(c.clone()),
            TrafficSpec::Constant(c) => Box::new(*c),
            TrafficSpec::Replay(c) => Box::new(c.build_model()?),
            TrafficSpec::Stochastic(c) => Box::new(c.clone()),
            TrafficSpec::Schedule(c) => Box::new(c.build_model()?),
        })
    }

    /// The spec's parameters in registry order, typed for rendering.
    fn params(&self) -> Vec<(&'static str, PVal)> {
        match self {
            TrafficSpec::Level(_) => Vec::new(),
            TrafficSpec::Mmpp(c) => vec![
                ("rate", PVal::num_f64(c.mean_rate_mbps)),
                ("burstiness", PVal::num_f64(c.burstiness)),
                ("dwell_us", PVal::num_f64(c.dwell_mean_us)),
                ("ports", PVal::num_u64(u64::from(c.ports))),
            ],
            TrafficSpec::Diurnal(c) => vec![
                ("hour", PVal::num_f64(c.hour)),
                ("scale", PVal::num_f64(c.aggregate_scale)),
                ("peak_bps", PVal::num_f64(c.peak_bps)),
                ("profile_seed", PVal::num_u64(c.profile_seed)),
            ],
            TrafficSpec::OnOff(c) => vec![
                ("on_mbps", PVal::num_f64(c.on_mbps)),
                ("off_mbps", PVal::num_f64(c.off_mbps)),
                ("period_s", PVal::num_f64(c.period_s)),
                ("duty", PVal::num_f64(c.duty)),
                ("ports", PVal::num_u64(u64::from(c.ports))),
            ],
            TrafficSpec::Flash(c) => vec![
                ("base_mbps", PVal::num_f64(c.base_mbps)),
                ("peak_mbps", PVal::num_f64(c.peak_mbps)),
                ("at_ms", PVal::num_f64(c.at_ms)),
                ("ramp_ms", PVal::num_f64(c.ramp_ms)),
                ("hold_ms", PVal::num_f64(c.hold_ms)),
                ("ports", PVal::num_u64(u64::from(c.ports))),
            ],
            TrafficSpec::Constant(c) => vec![
                ("rate", PVal::num_f64(c.rate_mbps)),
                ("size", PVal::num_u64(u64::from(c.size_bytes))),
                ("ports", PVal::num_u64(u64::from(c.ports))),
            ],
            TrafficSpec::Replay(c) => vec![
                ("path", PVal::Str(c.path.clone())),
                ("scale", PVal::num_f64(c.scale)),
            ],
            // Each dist renders as its full spec string. In the CLI
            // grammar that inlines the dist's own `key=val` pairs, which
            // the stochastic builder re-associates by grammar order, so
            // the rendering still round-trips exactly.
            TrafficSpec::Stochastic(c) => vec![
                ("gap", PVal::Str(c.gap.spec_string())),
                ("size", PVal::Str(c.size.spec_string())),
                ("ports", PVal::num_u64(u64::from(c.ports))),
            ],
            TrafficSpec::Schedule(c) => c.params(),
        }
    }

    /// Parses the CLI grammar `name[:key=val[,key=val]...]` against
    /// [`TRAFFIC_MODELS`]. `low`/`medium`/`high` remain accepted as
    /// bare-name shorthands for the paper's levels.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for unknown names/keys, unparsable values
    /// or values outside a model's valid range.
    pub fn parse(input: &str) -> Result<Self, SpecError> {
        TRAFFIC_MODELS.parse(input)
    }

    /// Renders the spec in the CLI grammar; [`TrafficSpec::parse`] of
    /// the result reproduces the spec exactly — except a `trace` path
    /// holding `,`, which the grammar reads as a pair separator.
    #[must_use]
    pub fn spec_string(&self) -> String {
        kvspec::render_cli(self.name(), &self.params())
    }
}

impl From<TrafficLevel> for TrafficSpec {
    fn from(level: TrafficLevel) -> Self {
        TrafficSpec::Level(level)
    }
}

impl fmt::Display for TrafficSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.spec_string())
    }
}

impl FromStr for TrafficSpec {
    type Err = SpecError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        TrafficSpec::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_parse_as_bare_names() {
        for (name, level) in [
            ("low", TrafficLevel::Low),
            ("medium", TrafficLevel::Medium),
            ("high", TrafficLevel::High),
            ("HIGH", TrafficLevel::High),
        ] {
            assert_eq!(
                TrafficSpec::parse(name).unwrap(),
                TrafficSpec::Level(level),
                "{name}"
            );
        }
        assert_eq!(TrafficSpec::Level(TrafficLevel::Low).spec_string(), "low");
    }

    #[test]
    fn acceptance_burst_spec_parses() {
        let spec = TrafficSpec::parse("burst:on_mbps=1800,off_mbps=120,period_s=2").unwrap();
        let TrafficSpec::OnOff(c) = &spec else {
            panic!("wrong variant: {spec:?}");
        };
        assert_eq!(c.on_mbps, 1800.0);
        assert_eq!(c.off_mbps, 120.0);
        assert_eq!(c.period_s, 2.0);
        assert_eq!(c.duty, 0.5); // default
        let model = spec.model().unwrap();
        assert!((model.mean_rate_mbps() - 960.0).abs() < 1e-9);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            TrafficSpec::parse("tsunami"),
            Err(SpecError::UnknownName { .. })
        ));
        assert!(matches!(
            TrafficSpec::parse("burst:flux=9"),
            Err(SpecError::UnknownParam { .. })
        ));
        assert!(matches!(
            TrafficSpec::parse("burst:on_mbps=fast"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            TrafficSpec::parse("burst:duty=2"),
            Err(SpecError::InvalidValue { .. })
        ));
        // Packet sizes are bounded where they enter.
        for size in ["0", "65536", "500000000"] {
            assert!(matches!(
                TrafficSpec::parse(&format!("constant:size={size}")),
                Err(SpecError::InvalidValue { ref key, .. }) if key == "size"
            ));
        }
        assert!(TrafficSpec::parse("constant:size=65535").is_ok());
    }

    #[test]
    fn unknown_name_lists_the_registry() {
        let text = TrafficSpec::parse("tsunami").unwrap_err().to_string();
        assert!(text.contains("traffic model"), "{text}");
        assert!(text.contains("burst"), "{text}");
        assert!(text.contains("low"), "{text}");
    }

    #[test]
    fn unknown_param_via_cli_lists_accepted_keys() {
        let text = TrafficSpec::parse("burst:flux=9").unwrap_err().to_string();
        assert!(text.contains("no parameter 'flux'"), "{text}");
        for key in ["on_mbps", "off_mbps", "period_s", "duty", "ports"] {
            assert!(text.contains(key), "missing '{key}' in {text}");
        }
    }

    #[test]
    fn every_variant_round_trips_through_the_spec_grammar() {
        let specs = [
            TrafficSpec::Level(TrafficLevel::Medium),
            TrafficSpec::Mmpp(ArrivalConfig::default()),
            TrafficSpec::Diurnal(DiurnalConfig::default()),
            TrafficSpec::OnOff(OnOffConfig {
                on_mbps: 1800.0,
                off_mbps: 120.0,
                period_s: 2.0,
                ..OnOffConfig::default()
            }),
            TrafficSpec::Flash(FlashConfig::default()),
            TrafficSpec::Constant(ConstantConfig::default()),
            TrafficSpec::Replay(ReplayConfig {
                path: "/tmp/trace.txt".to_owned(),
                scale: 1.3,
            }),
            TrafficSpec::Stochastic(StochasticConfig::default()),
            TrafficSpec::parse(
                "stochastic:gap=weibull:shape=0.7,scale=3,min=0.5,max=800,\
                 size=uniform:low=64,high=1500,ports=8",
            )
            .unwrap(),
            TrafficSpec::parse(
                "schedule:segments=[low@0..2e6; flash:peak_mbps=900@2e6..4e6; low@4e6..]",
            )
            .unwrap(),
        ];
        for spec in specs {
            let cli = spec.spec_string();
            assert_eq!(TrafficSpec::parse(&cli).unwrap(), spec, "CLI: {cli}");
        }
    }

    #[test]
    fn acceptance_schedule_spec_parses_and_renders_canonically() {
        let spec = TrafficSpec::parse(
            "schedule:segments=[low@0..2e6; flash:peak_mbps=900@2e6..4e6; low@4e6..]",
        )
        .unwrap();
        let TrafficSpec::Schedule(c) = &spec else {
            panic!("wrong variant: {spec:?}");
        };
        assert_eq!(c.segments.len(), 3);
        assert_eq!(c.segments[0].spec.name(), "low");
        assert_eq!(c.segments[1].start_cycles, 2_000_000);
        assert_eq!(c.segments[2].end_cycles, None);
        // The canonical rendering expands the child's full spec string
        // and integer cycle counts, and reparses to the same spec.
        let cli = spec.spec_string();
        assert!(
            cli.starts_with("schedule:segments=[low@0..2000000; flash:"),
            "{cli}"
        );
        assert_eq!(TrafficSpec::parse(&cli).unwrap(), spec);
    }

    #[test]
    fn acceptance_stochastic_spec_parses_with_nested_dists() {
        // The ISSUE.md acceptance grammar: the orphan `sigma=1.2` pair
        // must re-associate with the preceding `size` dist.
        let spec =
            TrafficSpec::parse("stochastic:gap=pareto:alpha=1.3,size=lognormal:mu=6,sigma=1.2")
                .unwrap();
        let TrafficSpec::Stochastic(c) = &spec else {
            panic!("wrong variant: {spec:?}");
        };
        assert_eq!(c.gap.spec_string(), "pareto:alpha=1.3,scale=100");
        assert_eq!(c.size.spec_string(), "lognormal:mu=6,sigma=1.2");
        assert_eq!(c.ports, 16);
        // Clamp keys bind to the dist most recently opened.
        let spec = TrafficSpec::parse(
            "stochastic:gap=pareto:alpha=1.3,max=1500,size=lognormal:mu=6,max=9000",
        )
        .unwrap();
        let TrafficSpec::Stochastic(c) = &spec else {
            panic!("wrong variant: {spec:?}");
        };
        assert_eq!(c.gap.spec_string(), "pareto:alpha=1.3,scale=100,max=1500");
        assert_eq!(c.size.spec_string(), "lognormal:mu=6,sigma=1,max=9000");
        assert_eq!(TrafficSpec::parse(&spec.spec_string()).unwrap(), spec);
    }

    #[test]
    fn stochastic_rejects_orphan_keys_and_bad_dists() {
        // A dist parameter before any gap/size key has no home.
        assert!(matches!(
            TrafficSpec::parse("stochastic:sigma=1.2"),
            Err(SpecError::UnknownParam { .. })
        ));
        // Child dist errors keep the child's attribution.
        let text = TrafficSpec::parse("stochastic:gap=gaussian:mu=3")
            .unwrap_err()
            .to_string();
        assert!(text.contains("distribution"), "{text}");
        let text = TrafficSpec::parse("stochastic:gap=pareto:flux=9")
            .unwrap_err()
            .to_string();
        assert!(text.contains("'pareto'"), "{text}");
        // A heavy tail with an infinite mean is rejected as dishonest.
        assert!(matches!(
            TrafficSpec::parse("stochastic:gap=pareto:alpha=0.9"),
            Err(SpecError::InvalidValue { ref key, .. }) if key == "gap"
        ));
        // Gaps must not go negative.
        assert!(matches!(
            TrafficSpec::parse("stochastic:gap=uniform:low=-5,high=5"),
            Err(SpecError::InvalidValue { ref key, .. }) if key == "gap"
        ));
    }

    #[test]
    fn replay_model_surfaces_missing_files_as_unbuildable() {
        let spec = TrafficSpec::Replay(ReplayConfig::new("/no/such/trace.txt"));
        assert!(matches!(spec.model(), Err(SpecError::Unbuildable { .. })));
    }

    #[test]
    fn level_specs_build_the_canonical_generator() {
        let spec = TrafficSpec::Level(TrafficLevel::High);
        let model = spec.model().unwrap();
        assert!((model.mean_rate_mbps() - 1150.0).abs() < 1e-9);
        // Identical to the explicit MMPP spec for that level.
        let explicit = TrafficSpec::Mmpp(ArrivalConfig::for_level(TrafficLevel::High));
        let a: Vec<_> = model.stream(3).take(100).collect();
        let b: Vec<_> = explicit.model().unwrap().stream(3).take(100).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn paper_levels_are_ordered() {
        let levels = TrafficSpec::paper_levels();
        assert_eq!(levels[0].spec_string(), "low");
        assert_eq!(levels[2].spec_string(), "high");
    }
}
