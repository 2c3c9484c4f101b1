//! The global power tier: [`FleetPolicy`], fleet-wide power budgets
//! split into per-chip caps.
//!
//! A fleet policy sits *above* the per-chip [`dvs::DvsPolicy`] layer: it
//! never touches VF levels directly. Instead it turns a fleet-wide
//! power budget (watts) into **per-chip, per-epoch power caps**; the
//! runner translates each cap into a maximum VF level for that chip
//! (see [`cap_level`]) and enforces it by wrapping the chip's DVS
//! policy in a [`CappedPolicy`](crate::CappedPolicy).
//!
//! Telemetry is *causal*: the caps of epoch `e` are computed from the
//! offered load observed in epoch `e-1` (modelled on the byte counters
//! a load balancer exports), so no chip ever sees a cap derived from
//! traffic it has not received yet. Epoch 0 always splits the budget
//! uniformly.
//!
//! Built-ins:
//!
//! * `none` — pass-through: no caps, chips run their DVS policy alone;
//! * `static-cap` — `budget/N` watts per chip for the whole run;
//! * `cap-realloc` — every `period` cycles, redistribute the budget
//!   toward the chips that carried the most traffic last epoch, with a
//!   per-chip floor.

use std::fmt;
use std::str::FromStr;

use kvspec::{Entry, ParamInfo, Params, Registry, SpecError};
use nepsim::NpuConfig;
use serde::{Deserialize, Serialize};

/// Offered-load telemetry a fleet policy plans from: bits arriving at
/// each chip in each epoch, as a load balancer's byte counters would
/// report them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetTelemetry {
    /// Epoch length in base-clock cycles.
    pub period_cycles: u64,
    /// `offered_bits[chip][epoch]`: bits arriving at `chip` during
    /// `epoch`. Every chip row has the same number of epochs (>= 1).
    pub offered_bits: Vec<Vec<u64>>,
}

impl FleetTelemetry {
    /// Single-epoch telemetry with no observed traffic — what policies
    /// that declare no [`FleetPolicy::period_cycles`] receive.
    #[must_use]
    pub fn whole_run(chips: usize, cycles: u64) -> Self {
        FleetTelemetry {
            period_cycles: cycles.max(1),
            offered_bits: vec![vec![0]; chips],
        }
    }

    /// Number of telemetry epochs.
    #[must_use]
    pub fn epochs(&self) -> usize {
        self.offered_bits.first().map_or(1, Vec::len).max(1)
    }
}

/// A fleet policy's output: per-chip power caps for every epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct CapPlan {
    /// Epoch length in base-clock cycles (caps switch at multiples of
    /// this).
    pub period_cycles: u64,
    /// `caps_w[chip][epoch]`: the power cap of `chip` during `epoch`,
    /// in watts.
    pub caps_w: Vec<Vec<f64>>,
}

/// A global power-management policy over a fleet of chips.
pub trait FleetPolicy: fmt::Debug + Send + Sync {
    /// Canonical name (for labels and reports).
    fn name(&self) -> &'static str;

    /// The telemetry epoch this policy plans at, in base-clock cycles.
    /// `None` means the policy needs no offered-load telemetry (static
    /// caps, or no caps at all).
    fn period_cycles(&self) -> Option<u64> {
        None
    }

    /// Turns telemetry into per-chip, per-epoch power caps. `None`
    /// means the chips run uncapped.
    fn plan(&self, chips: usize, telemetry: &FleetTelemetry) -> Option<CapPlan>;
}

/// Pass-through: no fleet-level power management at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassThrough;

impl FleetPolicy for PassThrough {
    fn name(&self) -> &'static str {
        "none"
    }

    fn plan(&self, _chips: usize, _telemetry: &FleetTelemetry) -> Option<CapPlan> {
        None
    }
}

/// Static per-chip cap: `budget/N` watts per chip, for the whole run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticCap {
    /// Fleet-wide power budget in watts.
    pub budget_w: f64,
}

impl FleetPolicy for StaticCap {
    fn name(&self) -> &'static str {
        "static-cap"
    }

    fn plan(&self, chips: usize, telemetry: &FleetTelemetry) -> Option<CapPlan> {
        let per_chip = self.budget_w / chips as f64;
        Some(CapPlan {
            period_cycles: telemetry.period_cycles,
            caps_w: vec![vec![per_chip; telemetry.epochs()]; chips],
        })
    }
}

/// Cap-and-reallocate: every epoch, split the budget in proportion to
/// the offered load each chip carried in the *previous* epoch, never
/// dropping a chip below its floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapRealloc {
    /// Fleet-wide power budget in watts.
    pub budget_w: f64,
    /// Reallocation period in base-clock cycles.
    pub period_cycles: u64,
    /// Minimum cap any chip may be assigned, in watts.
    pub floor_w: f64,
}

impl FleetPolicy for CapRealloc {
    fn name(&self) -> &'static str {
        "cap-realloc"
    }

    fn period_cycles(&self) -> Option<u64> {
        Some(self.period_cycles)
    }

    fn plan(&self, chips: usize, telemetry: &FleetTelemetry) -> Option<CapPlan> {
        let epochs = telemetry.epochs();
        let n = chips as f64;
        let uniform = self.budget_w / n;
        // A floor above the fair share would overcommit the budget;
        // clamp so `floor * N + distributed == budget` always holds.
        let floor = self.floor_w.min(uniform);
        let spread = self.budget_w - floor * n;
        let mut caps_w = vec![vec![uniform; epochs]; chips];
        for epoch in 1..epochs {
            let total: u64 = telemetry
                .offered_bits
                .iter()
                .map(|chip| chip.get(epoch - 1).copied().unwrap_or(0))
                .sum();
            for (chip, row) in caps_w.iter_mut().enumerate() {
                let bits = telemetry.offered_bits[chip]
                    .get(epoch - 1)
                    .copied()
                    .unwrap_or(0);
                row[epoch] = if total == 0 {
                    uniform
                } else {
                    floor + spread * (bits as f64 / total as f64)
                };
            }
        }
        Some(CapPlan {
            period_cycles: telemetry.period_cycles,
            caps_w,
        })
    }
}

/// The largest VF-ladder level whose estimated full-load chip power
/// fits under `cap_w`, for the chip described by `config`.
///
/// The estimate is the same activity model the simulator charges:
/// every ME fully active at the level's `V²f` scale plus the static
/// floor. Level 0 is always allowed — a chip cannot be switched off,
/// so a cap below the bottom level pins the chip at the bottom rather
/// than violating feasibility.
#[must_use]
pub fn cap_level(cap_w: f64, config: &NpuConfig) -> usize {
    let top = config.ladder.top();
    let mut level = 0;
    for idx in 0..config.ladder.len() {
        let active = config.total_mes() as f64
            * config.power.me_active_w
            * config.ladder.point(idx).power_scale(&top);
        if active + config.power.static_w <= cap_w {
            level = idx;
        }
    }
    level
}

/// A fully parameterised, buildable fleet-policy description.
///
/// Same wire format as every other spec in the workspace: the spec
/// grammar (`cap-realloc:budget=8,period=200000`), resolved through
/// [`FLEET_POLICIES`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(tag = "fleet_policy", rename_all = "kebab-case")]
pub enum FleetPolicySpec {
    /// No fleet-level power management.
    PassThrough,
    /// Constant `budget/N` watts per chip.
    StaticCap {
        /// Fleet-wide power budget in watts.
        budget_w: f64,
    },
    /// Periodic load-proportional budget reallocation.
    CapRealloc {
        /// Fleet-wide power budget in watts.
        budget_w: f64,
        /// Reallocation period in base-clock cycles.
        period_cycles: u64,
        /// Minimum per-chip cap in watts.
        floor_w: f64,
    },
}

impl FleetPolicySpec {
    /// Canonical name of the policy.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FleetPolicySpec::PassThrough => "none",
            FleetPolicySpec::StaticCap { .. } => "static-cap",
            FleetPolicySpec::CapRealloc { .. } => "cap-realloc",
        }
    }

    /// Instantiates the policy.
    #[must_use]
    pub fn build(&self) -> Box<dyn FleetPolicy> {
        match *self {
            FleetPolicySpec::PassThrough => Box::new(PassThrough),
            FleetPolicySpec::StaticCap { budget_w } => Box::new(StaticCap { budget_w }),
            FleetPolicySpec::CapRealloc {
                budget_w,
                period_cycles,
                floor_w,
            } => Box::new(CapRealloc {
                budget_w,
                period_cycles,
                floor_w,
            }),
        }
    }

    /// Parses the CLI grammar `name[:key=val[,key=val]...]`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] for unknown names/keys, unparsable
    /// values or values outside a policy's valid range.
    pub fn parse(input: &str) -> Result<Self, SpecError> {
        FLEET_POLICIES.parse(input)
    }

    /// Renders the spec in the CLI grammar; [`FleetPolicySpec::parse`]
    /// of the result round-trips.
    #[must_use]
    pub fn spec_string(&self) -> String {
        match self {
            FleetPolicySpec::PassThrough => "none".to_owned(),
            FleetPolicySpec::StaticCap { budget_w } => format!("static-cap:budget={budget_w}"),
            FleetPolicySpec::CapRealloc {
                budget_w,
                period_cycles,
                floor_w,
            } => format!("cap-realloc:budget={budget_w},period={period_cycles},floor={floor_w}"),
        }
    }
}

impl fmt::Display for FleetPolicySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.spec_string())
    }
}

impl FromStr for FleetPolicySpec {
    type Err = SpecError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        FleetPolicySpec::parse(s)
    }
}

const BUDGET_PARAM: ParamInfo = ParamInfo {
    key: "budget",
    default: "8",
    help: "fleet-wide power budget, watts",
};

/// The built-in fleet policies, in listing order.
pub static FLEET_POLICIES: Registry<FleetPolicySpec> = Registry::new(
    "fleet policy",
    &[
        Entry {
            name: "none",
            aliases: &["pass-through", "passthrough"],
            summary: "no fleet-level power management",
            params: &[],
            build: build_pass_through,
        },
        Entry {
            name: "static-cap",
            aliases: &["static"],
            summary: "constant budget/N watts per chip",
            params: &[BUDGET_PARAM],
            build: build_static_cap,
        },
        Entry {
            name: "cap-realloc",
            aliases: &["realloc", "cap-and-reallocate"],
            summary: "periodic load-proportional budget reallocation",
            params: &[
                BUDGET_PARAM,
                ParamInfo {
                    key: "period",
                    default: "200000",
                    help: "reallocation period, base-clock cycles",
                },
                ParamInfo {
                    key: "floor",
                    default: "0.5",
                    help: "minimum per-chip cap, watts",
                },
            ],
            build: build_cap_realloc,
        },
    ],
);

fn build_pass_through(params: Params) -> Result<FleetPolicySpec, SpecError> {
    params.finish("none")?;
    Ok(FleetPolicySpec::PassThrough)
}

fn build_static_cap(mut params: Params) -> Result<FleetPolicySpec, SpecError> {
    let budget_w = params.positive_f64("budget", 8.0)?;
    params.finish("static-cap")?;
    Ok(FleetPolicySpec::StaticCap { budget_w })
}

fn build_cap_realloc(mut params: Params) -> Result<FleetPolicySpec, SpecError> {
    let budget_w = params.positive_f64("budget", 8.0)?;
    let period_cycles = params.u64("period", 200_000)?;
    let floor_w = params.f64("floor", 0.5)?;
    params.finish("cap-realloc")?;
    if period_cycles == 0 {
        return Err(SpecError::InvalidValue {
            key: "period".to_owned(),
            value: "0".to_owned(),
            expected: "a positive cycle count",
        });
    }
    if !floor_w.is_finite() || floor_w < 0.0 {
        return Err(SpecError::InvalidValue {
            key: "floor".to_owned(),
            value: floor_w.to_string(),
            expected: "a non-negative wattage",
        });
    }
    Ok(FleetPolicySpec::CapRealloc {
        budget_w,
        period_cycles,
        floor_w,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn telemetry(bits: Vec<Vec<u64>>) -> FleetTelemetry {
        FleetTelemetry {
            period_cycles: 100_000,
            offered_bits: bits,
        }
    }

    #[test]
    fn pass_through_never_caps() {
        assert!(PassThrough
            .plan(4, &FleetTelemetry::whole_run(4, 1_000_000))
            .is_none());
    }

    #[test]
    fn static_cap_splits_the_budget_evenly() {
        let plan = StaticCap { budget_w: 8.0 }
            .plan(4, &FleetTelemetry::whole_run(4, 1_000_000))
            .unwrap();
        assert_eq!(plan.caps_w, vec![vec![2.0]; 4]);
    }

    #[test]
    fn cap_realloc_epoch_zero_is_uniform_and_later_epochs_follow_load() {
        let policy = CapRealloc {
            budget_w: 4.0,
            period_cycles: 100_000,
            floor_w: 0.5,
        };
        // Chip 0 carried 3/4 of the traffic in every epoch.
        let t = telemetry(vec![vec![3_000, 3_000], vec![1_000, 1_000]]);
        let plan = policy.plan(2, &t).unwrap();
        assert_eq!(plan.caps_w[0][0], 2.0);
        assert_eq!(plan.caps_w[1][0], 2.0);
        // Epoch 1: floor 0.5 each, 3 W spread 3:1.
        assert!((plan.caps_w[0][1] - (0.5 + 3.0 * 0.75)).abs() < 1e-12);
        assert!((plan.caps_w[1][1] - (0.5 + 3.0 * 0.25)).abs() < 1e-12);
        // The budget is conserved every epoch.
        for epoch in 0..2 {
            let total: f64 = (0..2).map(|c| plan.caps_w[c][epoch]).sum();
            assert!((total - 4.0).abs() < 1e-12, "epoch {epoch} total {total}");
        }
    }

    #[test]
    fn cap_realloc_clamps_an_overcommitted_floor() {
        let policy = CapRealloc {
            budget_w: 2.0,
            period_cycles: 100_000,
            // 4 chips * 1 W floor would exceed the 2 W budget.
            floor_w: 1.0,
        };
        let t = telemetry(vec![vec![10, 10]; 4]);
        let plan = policy.plan(4, &t).unwrap();
        for epoch in 0..2 {
            let total: f64 = (0..4).map(|c| plan.caps_w[c][epoch]).sum();
            assert!((total - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cap_realloc_with_no_traffic_stays_uniform() {
        let policy = CapRealloc {
            budget_w: 4.0,
            period_cycles: 100_000,
            floor_w: 0.5,
        };
        let plan = policy
            .plan(2, &telemetry(vec![vec![0, 0], vec![0, 0]]))
            .unwrap();
        assert_eq!(plan.caps_w, vec![vec![2.0, 2.0]; 2]);
    }

    #[test]
    fn cap_level_maps_watts_onto_the_ladder() {
        let config = NpuConfig::builder().build();
        let top = config.ladder.top();
        // A generous cap allows the top level.
        assert_eq!(cap_level(10.0, &config), config.ladder.top_index());
        // A cap below the bottom level still allows level 0.
        assert_eq!(cap_level(0.0, &config), 0);
        // The mapping is the largest level whose estimate fits.
        for idx in 0..config.ladder.len() {
            let est = config.total_mes() as f64
                * config.power.me_active_w
                * config.ladder.point(idx).power_scale(&top)
                + config.power.static_w;
            assert_eq!(cap_level(est + 1e-9, &config), idx);
        }
    }

    #[test]
    fn spec_round_trips_through_the_cli_grammar() {
        for spec in [
            FleetPolicySpec::PassThrough,
            FleetPolicySpec::StaticCap { budget_w: 6.5 },
            FleetPolicySpec::CapRealloc {
                budget_w: 8.0,
                period_cycles: 150_000,
                floor_w: 0.25,
            },
        ] {
            let text = spec.spec_string();
            assert_eq!(text.parse::<FleetPolicySpec>().unwrap(), spec, "{text}");
        }
    }
}
