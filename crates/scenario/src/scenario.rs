//! [`Scenario`] — the declarative description of a named, time-varying
//! experiment — and the flat-TOML file format it loads from.
//!
//! A scenario file is the same flat grammar the policy and traffic
//! specs use (one `key = value` per line, parsed by [`kvspec`]):
//!
//! ```toml
//! name = "night-flash"
//! summary = "a quiet night interrupted by one flash crowd"
//! benchmark = "ipfwdr"
//! traffic = "schedule:segments=[low@0..3e6; flash:peak_mbps=1900@3e6..5e6; low@5e6..]"
//! policies = "nodvs;tdvs:threshold=1400;edvs"
//! cycles = 8000000
//! seed = 42
//! seeds = 4
//! ```
//!
//! `traffic` accepts any registered spec; a `schedule:` spec gives the
//! scenario its segments (the runner reports per-segment metric
//! breakdowns), while a plain spec makes the whole run one segment.

use dvs::PolicySpec;
use kvspec::PVal;
use nepsim::Benchmark;
use serde::{Deserialize, Serialize};
use traffic::TrafficSpec;

/// A named, fully parameterised time-varying experiment: the workload
/// (typically a `schedule:` traffic spec), the policy set to compare on
/// it, and the run parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// The scenario's name (registry key / file `name` entry).
    pub name: String,
    /// One-line description for listings.
    pub summary: String,
    /// Benchmark application.
    pub benchmark: Benchmark,
    /// The workload; a `schedule:` spec defines the segments.
    pub traffic: TrafficSpec,
    /// The DVS policies to run, in report order.
    pub policies: Vec<PolicySpec>,
    /// Base-clock cycles to simulate.
    pub cycles: u64,
    /// Base experiment seed (replicate `i` runs `derive_seed(seed, i)`).
    pub seed: u64,
    /// Default replicates per policy (overridable at run time).
    pub seeds: u64,
}

impl Scenario {
    /// Parses a scenario from the flat-TOML file format above.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for syntax errors, missing
    /// required keys (`name`, `traffic`, `policies`), unknown keys or
    /// invalid values.
    pub fn from_toml_str(input: &str) -> Result<Scenario, String> {
        let (name, mut params) =
            kvspec::parse_flat_toml(input, "name").map_err(|e| e.to_string())?;
        let summary = params.maybe_str("summary").unwrap_or_default();
        let benchmark = match params.maybe_str("benchmark") {
            None => Benchmark::Ipfwdr,
            Some(text) => text.parse()?,
        };
        let traffic = params
            .maybe_str("traffic")
            .ok_or_else(|| "scenario file needs a `traffic = \"...\"` entry".to_owned())?;
        let traffic = TrafficSpec::parse(&traffic).map_err(|e| e.to_string())?;
        let policies = params.maybe_str("policies").ok_or_else(|| {
            "scenario file needs a `policies = \"spec;spec;...\"` entry".to_owned()
        })?;
        let policies: Vec<PolicySpec> = policies
            .split(';')
            .filter(|s| !s.trim().is_empty())
            .map(|s| PolicySpec::parse(s).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        if policies.is_empty() {
            return Err("scenario file needs at least one policy".to_owned());
        }
        let cycles = params.u64("cycles", 8_000_000).map_err(|e| e.to_string())?;
        if cycles == 0 {
            return Err("cycles must be positive".to_owned());
        }
        let seed = params.u64("seed", 42).map_err(|e| e.to_string())?;
        let seeds = params.u64("seeds", 1).map_err(|e| e.to_string())?;
        if seeds == 0 {
            return Err("seeds must be at least 1".to_owned());
        }
        params.finish("scenario file").map_err(|e| {
            format!("{e} (accepted: summary, benchmark, traffic, policies, cycles, seed, seeds)")
        })?;
        Ok(Scenario {
            name,
            summary,
            benchmark,
            traffic,
            policies,
            cycles,
            seed,
            seeds,
        })
    }

    /// Loads a scenario from a TOML file on disk.
    ///
    /// # Errors
    ///
    /// Returns a message for IO errors or any
    /// [`Scenario::from_toml_str`] failure.
    pub fn load(path: &str) -> Result<Scenario, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Scenario::from_toml_str(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// Renders the scenario back into the file format
    /// ([`Scenario::from_toml_str`] of the result reproduces it) — so
    /// `abdex scenario list` output doubles as a file template.
    #[must_use]
    pub fn to_toml_string(&self) -> String {
        let policies: Vec<String> = self.policies.iter().map(PolicySpec::spec_string).collect();
        kvspec::render_flat_toml(
            "name",
            &self.name,
            &[
                ("summary", PVal::Str(self.summary.clone())),
                ("benchmark", PVal::Str(self.benchmark.to_string())),
                ("traffic", PVal::Str(self.traffic.spec_string())),
                ("policies", PVal::Str(policies.join(";"))),
                ("cycles", PVal::num_u64(self.cycles)),
                ("seed", PVal::num_u64(self.seed)),
                ("seeds", PVal::num_u64(self.seeds)),
            ],
        )
    }

    /// The segment plan of this scenario at its configured horizon.
    #[must_use]
    pub fn plan(&self) -> Vec<PlannedSegment> {
        plan_segments(&self.traffic, self.cycles)
    }
}

/// One window of a scenario run: where it falls in the horizon and the
/// child spec active during it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedSegment {
    /// The child spec string active in the window (`"(silent)"` for the
    /// tail of a schedule that ends before the horizon).
    pub label: String,
    /// First base-clock cycle of the window.
    pub start_cycles: u64,
    /// One past the last base-clock cycle of the window.
    pub end_cycles: u64,
}

/// Computes the window plan for `traffic` clipped to a `cycles`
/// horizon: a `schedule:` spec contributes one window per segment that
/// overlaps the horizon (the open-ended tail clipped to it, plus a
/// `"(silent)"` window when a bounded schedule ends early); any other
/// spec is one whole-run window. Windows are contiguous from 0 and the
/// last always ends exactly at `cycles`.
///
/// # Panics
///
/// Panics when `cycles` is zero.
#[must_use]
pub fn plan_segments(traffic: &TrafficSpec, cycles: u64) -> Vec<PlannedSegment> {
    assert!(cycles > 0, "a plan needs a positive horizon");
    let TrafficSpec::Schedule(config) = traffic else {
        return vec![PlannedSegment {
            label: traffic.spec_string(),
            start_cycles: 0,
            end_cycles: cycles,
        }];
    };
    let mut plan = Vec::new();
    for seg in &config.segments {
        if seg.start_cycles >= cycles {
            break;
        }
        let end = seg.end_cycles.unwrap_or(cycles).min(cycles);
        plan.push(PlannedSegment {
            label: seg.spec.spec_string(),
            start_cycles: seg.start_cycles,
            end_cycles: end,
        });
    }
    // A bounded schedule that ends before the horizon leaves a silent
    // tail; make it an explicit window so the slices span the run.
    let covered = plan.last().map_or(0, |p| p.end_cycles);
    if covered < cycles {
        plan.push(PlannedSegment {
            label: "(silent)".to_owned(),
            start_cycles: covered,
            end_cycles: cycles,
        });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: &str = r#"
        # a scenario file
        name = "night-flash"
        summary = "a quiet night interrupted by one flash crowd"
        traffic = "schedule:segments=[low@0..3e6; flash:peak_mbps=1900@3e6..5e6; low@5e6..]"
        policies = "nodvs;tdvs:threshold=1400"
        cycles = 6000000
        seeds = 2
    "#;

    #[test]
    fn scenario_file_round_trips() {
        let scenario = Scenario::from_toml_str(FILE).unwrap();
        assert_eq!(scenario.name, "night-flash");
        assert_eq!(scenario.benchmark, Benchmark::Ipfwdr); // default
        assert_eq!(scenario.policies.len(), 2);
        assert_eq!(scenario.cycles, 6_000_000);
        assert_eq!(scenario.seed, 42); // default
        assert_eq!(scenario.seeds, 2);
        assert_eq!(scenario.traffic.name(), "schedule");
        let rendered = scenario.to_toml_string();
        assert_eq!(Scenario::from_toml_str(&rendered).unwrap(), scenario);
    }

    #[test]
    fn names_and_summaries_with_toml_specials_round_trip() {
        let mut scenario = Scenario::from_toml_str(FILE).unwrap();
        scenario.name = r#"C:\runs\#3 "night""#.to_owned();
        scenario.summary = r#"C:\traces say "hi" # not a comment \"#.to_owned();
        let rendered = scenario.to_toml_string();
        assert_eq!(
            Scenario::from_toml_str(&rendered).unwrap(),
            scenario,
            "{rendered}"
        );
    }

    #[test]
    fn scenario_file_rejects_bad_input() {
        let err = Scenario::from_toml_str("name = \"x\"\npolicies = \"nodvs\"\n").unwrap_err();
        assert!(err.contains("traffic"), "{err}");
        let err = Scenario::from_toml_str("name = \"x\"\ntraffic = \"low\"\n").unwrap_err();
        assert!(err.contains("policies"), "{err}");
        let err = Scenario::from_toml_str(
            "name = \"x\"\ntraffic = \"low\"\npolicies = \"nodvs\"\nbogus = 1\n",
        )
        .unwrap_err();
        assert!(err.contains("bogus"), "{err}");
        assert!(err.contains("accepted"), "{err}");
        let err =
            Scenario::from_toml_str("name = \"x\"\ntraffic = \"tsunami\"\npolicies = \"nodvs\"\n")
                .unwrap_err();
        assert!(err.contains("tsunami"), "{err}");
        let err = Scenario::from_toml_str(
            "name = \"x\"\ntraffic = \"low\"\npolicies = \"nodvs\"\nseeds = 0\n",
        )
        .unwrap_err();
        assert!(err.contains("seeds"), "{err}");
    }

    #[test]
    fn plan_clips_the_schedule_to_the_horizon() {
        let scenario = Scenario::from_toml_str(FILE).unwrap();
        // Full horizon: three windows, the open tail clipped to 6e6.
        let plan = scenario.plan();
        assert_eq!(plan.len(), 3);
        assert_eq!(plan[0].start_cycles, 0);
        assert_eq!(plan[1].label.split(':').next(), Some("flash"));
        assert_eq!(plan[2].end_cycles, 6_000_000);
        // A short horizon keeps only the overlapping windows.
        let short = plan_segments(&scenario.traffic, 4_000_000);
        assert_eq!(short.len(), 2);
        assert_eq!(short[1].end_cycles, 4_000_000);
        // A horizon inside the first window is a single slice.
        let tiny = plan_segments(&scenario.traffic, 200_000);
        assert_eq!(tiny.len(), 1);
        assert_eq!(tiny[0].end_cycles, 200_000);
    }

    #[test]
    fn plan_handles_plain_traffic_and_silent_tails() {
        let plain = plan_segments(&"low".parse().unwrap(), 1_000_000);
        assert_eq!(plain.len(), 1);
        assert_eq!(plain[0].label, "low");
        assert_eq!(plain[0].end_cycles, 1_000_000);
        let bounded: TrafficSpec = "schedule:segments=[low@0..500000]".parse().unwrap();
        let plan = plan_segments(&bounded, 2_000_000);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[1].label, "(silent)");
        assert_eq!(plan[1].start_cycles, 500_000);
        assert_eq!(plan[1].end_cycles, 2_000_000);
    }
}
