//! [`PolicySpec`] — the declarative, serializable description of a policy
//! configuration, and the grammars that produce one.
//!
//! A spec is *data* (which policy, with which parameters); calling
//! [`PolicySpec::build`] instantiates the live [`DvsPolicy`] state
//! machine. Specs are written in the **CLI grammar**
//! `name:key=val,key=val` ([`PolicySpec::parse`], also `FromStr`), e.g.
//! `tdvs:threshold=1400,window=40000`, and render back into it
//! ([`PolicySpec::spec_string`]).
//!
//! Names and parameters resolve through the entry table
//! [`POLICIES`](crate::POLICIES), so a policy added there is
//! immediately reachable from every entry point — CLI flag, sweep list,
//! scenario file.
//!
//! The grammar machinery itself ([`Params`], [`SpecError`], the parser)
//! lives in the shared [`kvspec`] crate; the traffic layer's
//! `TrafficSpec` speaks exactly the same grammar through it.

use std::fmt;
use std::str::FromStr;

pub use kvspec::{Params, SpecError};
use serde::{Deserialize, Serialize};

use crate::registry::POLICIES;
use crate::{
    Combined, CombinedConfig, DvsPolicy, Edvs, EdvsConfig, HysteresisTdvsConfig, NoDvsPolicy,
    PolicyKind, Proportional, ProportionalConfig, QueueAware, QueueAwareConfig, Tdvs, TdvsConfig,
    VfLadder,
};

/// A fully parameterised, buildable policy description.
///
/// The **canonical wire format is the spec string above**, implemented
/// by hand in this module — it uses the registry's short parameter keys
/// (`threshold`, `idle`, ...), and [`PolicySpec::spec_string`]
/// round-trips through it. The serde derive below is tagged to mirror
/// that shape, but under the offline `serde` shim it generates nothing;
/// if real serde is ever wired in, its field naming (struct field
/// names, nested configs) would *not* match this grammar — keep the
/// hand parser as the format of record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "policy", rename_all = "kebab-case")]
pub enum PolicySpec {
    /// Baseline: all MEs pinned at the top VF level.
    NoDvs,
    /// Traffic-based DVS (global, §4.1).
    Tdvs(TdvsConfig),
    /// TDVS with a hysteresis dead band (ablation of the plain rule).
    TdvsHysteresis(HysteresisTdvsConfig),
    /// Execution-based DVS (per-ME, §4.2).
    Edvs(EdvsConfig),
    /// Combined traffic + idle policy (TEDVS, the paper's declined
    /// extension); charges both monitor overheads.
    Combined(CombinedConfig),
    /// Queue-aware DVS scaling on receive-FIFO occupancy.
    QueueAware(QueueAwareConfig),
    /// Proportional (PI) controller on per-ME idle time.
    Proportional(ProportionalConfig),
}

impl PolicySpec {
    /// The policy family this spec belongs to.
    #[must_use]
    pub fn kind(&self) -> PolicyKind {
        match self {
            PolicySpec::NoDvs => PolicyKind::NoDvs,
            PolicySpec::Tdvs(_) | PolicySpec::TdvsHysteresis(_) => PolicyKind::Tdvs,
            PolicySpec::Edvs(_) => PolicyKind::Edvs,
            PolicySpec::Combined(_) => PolicyKind::Combined,
            PolicySpec::QueueAware(_) => PolicyKind::QueueAware,
            PolicySpec::Proportional(_) => PolicyKind::Proportional,
        }
    }

    /// The monitor window in base-frequency cycles (`None` for no DVS).
    #[must_use]
    pub fn window_cycles(&self) -> Option<u64> {
        match self {
            PolicySpec::NoDvs => None,
            PolicySpec::Tdvs(c) => Some(c.window_cycles),
            PolicySpec::TdvsHysteresis(c) => Some(c.base.window_cycles),
            PolicySpec::Edvs(c) => Some(c.window_cycles),
            PolicySpec::Combined(c) => Some(c.tdvs.window_cycles),
            PolicySpec::QueueAware(c) => Some(c.window_cycles),
            PolicySpec::Proportional(c) => Some(c.window_cycles),
        }
    }

    /// Instantiates the live policy state machine over `ladder`.
    ///
    /// # Panics
    ///
    /// Panics when the embedded configuration is invalid (the grammars
    /// validate before constructing a spec; a hand-built spec panics here
    /// like the underlying constructor would).
    #[must_use]
    pub fn build(&self, ladder: &VfLadder) -> Box<dyn DvsPolicy> {
        match self {
            PolicySpec::NoDvs => Box::new(NoDvsPolicy),
            PolicySpec::Tdvs(c) => Box::new(Tdvs::new(*c, ladder.clone())),
            PolicySpec::TdvsHysteresis(c) => Box::new(Tdvs::with_hysteresis(*c, ladder.clone())),
            PolicySpec::Edvs(c) => Box::new(Edvs::new(*c, ladder.clone())),
            PolicySpec::Combined(c) => Box::new(Combined::new(*c, ladder.clone())),
            PolicySpec::QueueAware(c) => Box::new(QueueAware::new(*c, ladder.clone())),
            PolicySpec::Proportional(c) => Box::new(Proportional::new(*c, ladder.clone())),
        }
    }

    /// Parses the CLI grammar `name[:key=val[,key=val]...]` against
    /// [`POLICIES`].
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for unknown names/keys, unparsable values
    /// or values outside a policy's valid range.
    pub fn parse(input: &str) -> Result<Self, SpecError> {
        POLICIES.parse(input)
    }

    /// Renders the spec in the CLI grammar; `PolicySpec::parse` of the
    /// result round-trips.
    #[must_use]
    pub fn spec_string(&self) -> String {
        match self {
            PolicySpec::NoDvs => "nodvs".to_owned(),
            PolicySpec::Tdvs(c) => format!(
                "tdvs:threshold={},window={}",
                c.top_threshold_mbps, c.window_cycles
            ),
            PolicySpec::TdvsHysteresis(c) => format!(
                "tdvs:threshold={},window={},hysteresis={}",
                c.base.top_threshold_mbps, c.base.window_cycles, c.hysteresis
            ),
            PolicySpec::Edvs(c) => {
                format!("edvs:idle={},window={}", c.idle_threshold, c.window_cycles)
            }
            PolicySpec::Combined(c) => format!(
                "combined:threshold={},idle={},window={}",
                c.tdvs.top_threshold_mbps, c.edvs.idle_threshold, c.tdvs.window_cycles
            ),
            PolicySpec::QueueAware(c) => format!(
                "queue:high={},low={},window={}",
                c.high_occupancy, c.low_occupancy, c.window_cycles
            ),
            PolicySpec::Proportional(c) => format!(
                "proportional:target={},kp={},ki={},window={}",
                c.target_idle, c.kp, c.ki, c.window_cycles
            ),
        }
    }
}

impl fmt::Display for PolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.spec_string())
    }
}

impl FromStr for PolicySpec {
    type Err = SpecError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PolicySpec::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_bare_names_use_defaults() {
        assert_eq!(PolicySpec::parse("nodvs").unwrap(), PolicySpec::NoDvs);
        assert_eq!(
            PolicySpec::parse("tdvs").unwrap(),
            PolicySpec::Tdvs(TdvsConfig::default())
        );
        assert_eq!(
            PolicySpec::parse("edvs").unwrap(),
            PolicySpec::Edvs(EdvsConfig::default())
        );
        assert_eq!(
            PolicySpec::parse("queue").unwrap(),
            PolicySpec::QueueAware(QueueAwareConfig::default())
        );
        assert_eq!(
            PolicySpec::parse("proportional").unwrap(),
            PolicySpec::Proportional(ProportionalConfig::default())
        );
    }

    #[test]
    fn parse_accepts_aliases() {
        assert_eq!(PolicySpec::parse("none").unwrap(), PolicySpec::NoDvs);
        assert_eq!(
            PolicySpec::parse("tedvs").unwrap(),
            PolicySpec::Combined(CombinedConfig::default())
        );
        assert_eq!(
            PolicySpec::parse("qdvs").unwrap().kind(),
            PolicyKind::QueueAware
        );
        assert_eq!(
            PolicySpec::parse("pid").unwrap().kind(),
            PolicyKind::Proportional
        );
    }

    #[test]
    fn parse_applies_parameters() {
        let spec = PolicySpec::parse("tdvs:threshold=1400,window=20000").unwrap();
        assert_eq!(
            spec,
            PolicySpec::Tdvs(TdvsConfig {
                top_threshold_mbps: 1400.0,
                window_cycles: 20_000,
            })
        );
        let spec = PolicySpec::parse("queue:high=0.9,low=0.1").unwrap();
        let PolicySpec::QueueAware(c) = spec else {
            panic!("wrong variant");
        };
        assert_eq!(c.high_occupancy, 0.9);
        assert_eq!(c.low_occupancy, 0.1);
        assert_eq!(c.window_cycles, 40_000);
    }

    #[test]
    fn hysteresis_parameter_selects_variant() {
        let spec = PolicySpec::parse("tdvs:hysteresis=0.1").unwrap();
        assert!(matches!(spec, PolicySpec::TdvsHysteresis(_)));
        assert_eq!(spec.kind(), PolicyKind::Tdvs);
        // Presence of the key selects the variant — even at zero, so a
        // rendered TdvsHysteresis spec reparses to the same variant
        // (behaviourally identical to the plain rule either way).
        let spec = PolicySpec::parse("tdvs:hysteresis=0").unwrap();
        assert!(matches!(spec, PolicySpec::TdvsHysteresis(_)));
        let absent = PolicySpec::parse("tdvs").unwrap();
        assert!(matches!(absent, PolicySpec::Tdvs(_)));
    }

    #[test]
    fn unknown_param_via_cli_lists_accepted_keys() {
        let text = PolicySpec::parse("tdvs:flux=9").unwrap_err().to_string();
        assert!(text.contains("no parameter 'flux'"), "{text}");
        assert!(
            text.contains("accepted: threshold, window, hysteresis"),
            "{text}"
        );
        // A parameter-free policy has nothing to list.
        let text = PolicySpec::parse("nodvs:flux=9").unwrap_err().to_string();
        assert!(text.ends_with("accepts no parameter 'flux'"), "{text}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(matches!(
            PolicySpec::parse("warp-drive"),
            Err(SpecError::UnknownName { .. })
        ));
        assert!(matches!(
            PolicySpec::parse("tdvs:flux=9"),
            Err(SpecError::UnknownParam { .. })
        ));
        assert!(matches!(
            PolicySpec::parse("tdvs:threshold=fast"),
            Err(SpecError::InvalidValue { .. })
        ));
        assert!(matches!(
            PolicySpec::parse("tdvs:threshold"),
            Err(SpecError::Malformed { .. })
        ));
        assert!(matches!(
            PolicySpec::parse("tdvs:threshold=-5"),
            Err(SpecError::InvalidValue { .. })
        ));
    }

    #[test]
    fn spec_string_round_trips() {
        let specs = [
            PolicySpec::NoDvs,
            PolicySpec::Tdvs(TdvsConfig::default()),
            PolicySpec::TdvsHysteresis(TdvsConfig::default().with_hysteresis(0.15)),
            PolicySpec::TdvsHysteresis(TdvsConfig::default().with_hysteresis(0.0)),
            PolicySpec::Edvs(EdvsConfig::default()),
            PolicySpec::Combined(CombinedConfig::default()),
            PolicySpec::QueueAware(QueueAwareConfig::default()),
            PolicySpec::Proportional(ProportionalConfig::default()),
        ];
        for spec in specs {
            let text = spec.spec_string();
            let reparsed: PolicySpec = text.parse().unwrap();
            assert_eq!(reparsed, spec, "round-trip failed for '{text}'");
        }
    }

    #[test]
    fn build_produces_matching_kinds() {
        let ladder = VfLadder::xscale_npu();
        for name in ["nodvs", "tdvs", "edvs", "combined", "queue", "proportional"] {
            let spec = PolicySpec::parse(name).unwrap();
            let policy = spec.build(&ladder);
            assert_eq!(policy.kind(), spec.kind(), "{name}");
            assert_eq!(policy.window_cycles(), spec.window_cycles(), "{name}");
        }
    }
}
