//! The design-space grid: the paper's TDVS threshold × window sweep
//! (§4.1, Figures 6–9), the two open axes — any list of
//! [`PolicySpec`]s or [`TrafficSpec`]s — and the §4.3 policy
//! comparison (Fig. 11). Each is one [`Grid`] — an [`Axis`] plus the
//! [`Experiment`] of every cell — and every grid runs through one
//! [`run_grid`], plain or replicated.
//!
//! Every label a grid's table or document shows (threshold and window,
//! spec string, policy kind, traffic model, benchmark) is read back
//! from the cell's own experiment, so one renderer
//! ([`crate::tables::render_grid`]) and one document builder
//! ([`crate::json::grid_json`]) serve every axis in both modes.

use dvs::{PolicyKind, TdvsConfig};
use nepsim::{Benchmark, PolicySpec};
use serde::{Deserialize, Serialize};
use stats::{welch_t, Summary, WelchT};
use traffic::TrafficSpec;
use xrun::{JobError, Runner};

use crate::compare::ComparisonConfig;
use crate::experiment::{partition_cells, run_experiments, Experiment, ExperimentResult};
use crate::replicate::{run_replicated_experiments, ReplicatedResult};

/// The grid of TDVS parameters to explore.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TdvsGrid {
    /// Top traffic thresholds (Mbps) — the paper compares 800, 1000,
    /// 1200 and 1400 for `ipfwdr`.
    pub thresholds_mbps: Vec<f64>,
    /// Monitor window sizes in base-clock cycles — the paper compares
    /// 20 k to 80 k.
    pub windows_cycles: Vec<u64>,
}

impl Default for TdvsGrid {
    /// The exact grid of paper Figures 6–9.
    fn default() -> Self {
        TdvsGrid {
            thresholds_mbps: vec![800.0, 1000.0, 1200.0, 1400.0],
            windows_cycles: vec![20_000, 40_000, 60_000, 80_000],
        }
    }
}

impl TdvsGrid {
    /// Number of grid cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.thresholds_mbps.len() * self.windows_cycles.len()
    }

    /// `true` when either axis is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.thresholds_mbps.is_empty() || self.windows_cycles.is_empty()
    }
}

/// The design-space axis a grid varies: it picks the label columns of
/// the grid's table and the kind of its JSON document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// TDVS threshold × window ([`Grid::tdvs`], `abdex sweep`).
    Tdvs,
    /// Policy specs under one traffic model ([`Grid::policies`],
    /// `abdex sweep --policies`).
    Policies,
    /// Traffic specs under one policy ([`Grid::traffics`],
    /// `abdex sweep --traffics`).
    Traffics,
    /// Benchmarks × traffics × the compared policy families
    /// ([`Grid::compare`], `abdex compare`).
    Compare,
}

/// A batch of design points: the axis they vary and one
/// [`Experiment`] per cell, in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    axis: Axis,
    cells: Vec<Experiment>,
}

impl Grid {
    /// The TDVS threshold × window grid, threshold-major, every cell
    /// on one benchmark, traffic, run length and seed. The paper runs
    /// it for `ipfwdr` at 8×10⁶ cycles per cell.
    ///
    /// # Example
    ///
    /// ```
    /// use abdex::{run_grid, Grid, Runner, TdvsGrid};
    /// use abdex::nepsim::Benchmark;
    /// use abdex::traffic::TrafficLevel;
    ///
    /// let points = TdvsGrid {
    ///     thresholds_mbps: vec![1000.0],
    ///     windows_cycles: vec![40_000],
    /// };
    /// let grid = Grid::tdvs(Benchmark::Ipfwdr, &TrafficLevel::High.into(), &points, 200_000, 1);
    /// let run = run_grid(&Runner::new(), &grid, 1);
    /// assert!(run.failures.is_empty());
    /// assert_eq!(run.plain().unwrap()[0].experiment.tdvs_point(), Some((1000.0, 40_000)));
    /// ```
    #[must_use]
    pub fn tdvs(
        benchmark: Benchmark,
        traffic: &TrafficSpec,
        grid: &TdvsGrid,
        cycles: u64,
        seed: u64,
    ) -> Grid {
        let policies: Vec<PolicySpec> = grid
            .thresholds_mbps
            .iter()
            .flat_map(|&threshold| {
                grid.windows_cycles.iter().map(move |&window| {
                    PolicySpec::Tdvs(TdvsConfig {
                        top_threshold_mbps: threshold,
                        window_cycles: window,
                    })
                })
            })
            .collect();
        Grid {
            axis: Axis::Tdvs,
            ..Grid::policies(benchmark, traffic, &policies, cycles, seed)
        }
    }

    /// One cell per policy spec, in list order — every registered
    /// policy, and every parameter combination a spec can express.
    ///
    /// # Example
    ///
    /// ```
    /// use abdex::{run_grid, Grid, PolicySpec, Runner};
    /// use abdex::nepsim::Benchmark;
    /// use abdex::traffic::TrafficLevel;
    ///
    /// let specs: Vec<PolicySpec> = ["nodvs", "queue:high=0.9", "proportional"]
    ///     .iter()
    ///     .map(|s| s.parse().unwrap())
    ///     .collect();
    /// let grid = Grid::policies(Benchmark::Ipfwdr, &TrafficLevel::High.into(), &specs, 200_000, 1);
    /// assert_eq!(run_grid(&Runner::new(), &grid, 1).plain().unwrap().len(), 3);
    /// ```
    #[must_use]
    pub fn policies(
        benchmark: Benchmark,
        traffic: &TrafficSpec,
        specs: &[PolicySpec],
        cycles: u64,
        seed: u64,
    ) -> Grid {
        let cells = specs
            .iter()
            .map(|policy| Experiment {
                benchmark,
                traffic: traffic.clone(),
                policy: policy.clone(),
                cycles,
                seed,
            })
            .collect();
        Grid {
            axis: Axis::Policies,
            cells,
        }
    }

    /// One cell per traffic spec under a fixed policy, in list order —
    /// the traffic axis, open to every registered model.
    ///
    /// # Example
    ///
    /// ```
    /// use abdex::{run_grid, Grid, PolicySpec, Runner};
    /// use abdex::nepsim::Benchmark;
    /// use abdex::traffic::TrafficSpec;
    ///
    /// let traffics: Vec<TrafficSpec> = ["low", "burst:period_s=0.001", "flash"]
    ///     .iter()
    ///     .map(|s| s.parse().unwrap())
    ///     .collect();
    /// let grid = Grid::traffics(Benchmark::Ipfwdr, &traffics, &PolicySpec::NoDvs, 200_000, 1);
    /// assert_eq!(run_grid(&Runner::new(), &grid, 1).plain().unwrap().len(), 3);
    /// ```
    #[must_use]
    pub fn traffics(
        benchmark: Benchmark,
        traffics: &[TrafficSpec],
        policy: &PolicySpec,
        cycles: u64,
        seed: u64,
    ) -> Grid {
        let cells = traffics
            .iter()
            .map(|traffic| Experiment {
                benchmark,
                traffic: traffic.clone(),
                policy: policy.clone(),
                cycles,
                seed,
            })
            .collect();
        Grid {
            axis: Axis::Traffics,
            cells,
        }
    }

    /// The comparison grid: `benchmarks × traffics ×` every policy of
    /// [`ComparisonConfig::policies`], benchmark-major, then traffic,
    /// then policy.
    ///
    /// # Example
    ///
    /// ```
    /// use abdex::compare::ComparisonConfig;
    /// use abdex::{run_grid, Grid, Runner};
    /// use abdex::nepsim::Benchmark;
    /// use abdex::traffic::TrafficLevel;
    ///
    /// let cfg = ComparisonConfig { cycles: 150_000, ..ComparisonConfig::default() };
    /// let grid = Grid::compare(&[Benchmark::Nat], &[TrafficLevel::Low.into()], &cfg);
    /// let run = run_grid(&Runner::new(), &grid, 1);
    /// assert_eq!(run.plain().unwrap().len(), 6); // one per policy family
    /// ```
    #[must_use]
    pub fn compare(
        benchmarks: &[Benchmark],
        traffics: &[TrafficSpec],
        config: &ComparisonConfig,
    ) -> Grid {
        let mut cells = Vec::new();
        for &benchmark in benchmarks {
            for traffic in traffics {
                for policy in config.policies() {
                    cells.push(Experiment {
                        benchmark,
                        traffic: traffic.clone(),
                        policy,
                        cycles: config.cycles,
                        seed: config.seed,
                    });
                }
            }
        }
        Grid {
            axis: Axis::Compare,
            cells,
        }
    }

    /// The axis this grid varies.
    #[must_use]
    pub fn axis(&self) -> Axis {
        self.axis
    }

    /// Every cell's experiment, in grid order.
    #[must_use]
    pub fn cells(&self) -> &[Experiment] {
        &self.cells
    }
}

/// A grid's completed cells, in grid order.
#[derive(Debug, Clone)]
pub enum Cells {
    /// `seeds == 1`: one run per cell at the cell's own seed, with both
    /// paper distributions.
    Plain(Vec<ExperimentResult>),
    /// `seeds >= 2`: per-metric summaries over each cell's replicates.
    Replicated(Vec<ReplicatedResult>),
}

/// One evaluated grid: its axis, the replicates per cell, every
/// completed cell and one [`JobError`] per failed cell.
#[derive(Debug, Clone)]
pub struct GridRun {
    /// The axis the grid varied.
    pub axis: Axis,
    /// Replicates per cell (1 for a plain run).
    pub seeds: u64,
    /// The completed cells, in grid order.
    pub cells: Cells,
    /// One error per failed cell, in grid order.
    pub failures: Vec<JobError>,
}

/// Runs every cell of `grid` on the runner — the single execution path
/// of every sweep, comparison and ablation.
///
/// `seeds == 1` runs each cell once at its own seed
/// ([`run_experiments`]), so the cells keep their distributions;
/// `seeds >= 2` runs `seeds` seed-derived replicates per cell and folds
/// them ([`run_replicated_experiments`]). Either way a panicking cell
/// (or replicate) fails only its own cell: it lands in
/// [`GridRun::failures`] while the rest of the grid completes.
///
/// # Panics
///
/// Panics when `seeds` is 0.
#[must_use]
pub fn run_grid(runner: &Runner, grid: &Grid, seeds: u64) -> GridRun {
    let experiments = grid.cells.clone();
    let (cells, failures) = if seeds == 1 {
        let outcomes = run_experiments(runner, experiments);
        let _prof = obs::prof::span("fold");
        let (cells, failures) = partition_cells(outcomes);
        (Cells::Plain(cells), failures)
    } else {
        let outcomes = run_replicated_experiments(runner, experiments, seeds);
        let (cells, failures) = partition_cells(outcomes);
        (Cells::Replicated(cells), failures)
    };
    GridRun {
        axis: grid.axis,
        seeds,
        cells,
        failures,
    }
}

impl GridRun {
    /// The completed cells of a single-seed run; `None` when replicated.
    #[must_use]
    pub fn plain(&self) -> Option<&[ExperimentResult]> {
        match &self.cells {
            Cells::Plain(cells) => Some(cells),
            Cells::Replicated(_) => None,
        }
    }

    /// The completed cells of a replicated run; `None` when plain.
    #[must_use]
    pub fn replicated(&self) -> Option<&[ReplicatedResult]> {
        match &self.cells {
            Cells::Plain(_) => None,
            Cells::Replicated(cells) => Some(cells),
        }
    }

    /// Every completed cell, borrowed, in grid order.
    pub(crate) fn cell_refs(&self) -> Vec<CellRef<'_>> {
        match &self.cells {
            Cells::Plain(cells) => cells.iter().map(CellRef::Plain).collect(),
            Cells::Replicated(cells) => cells.iter().map(CellRef::Replicated).collect(),
        }
    }

    /// Index of the completed cell for an exact benchmark × traffic ×
    /// policy-family combination.
    #[must_use]
    pub fn position(
        &self,
        benchmark: Benchmark,
        traffic: &TrafficSpec,
        policy: PolicyKind,
    ) -> Option<usize> {
        self.cell_refs()
            .iter()
            .position(|c| c.is(benchmark, traffic, policy))
    }

    /// Power saving of a combination relative to the noDVS cell of the
    /// same benchmark and traffic, as a fraction of the baseline's mean
    /// power (replicate means when replicated). `None` when either cell
    /// is missing.
    #[must_use]
    pub fn power_saving(
        &self,
        benchmark: Benchmark,
        traffic: &TrafficSpec,
        policy: PolicyKind,
    ) -> Option<f64> {
        self.against_nodvs(benchmark, traffic, policy)?.saving
    }

    /// Throughput loss of a combination relative to noDVS, as a
    /// fraction of the baseline throughput. `None` when either cell is
    /// missing.
    #[must_use]
    pub fn throughput_loss(
        &self,
        benchmark: Benchmark,
        traffic: &TrafficSpec,
        policy: PolicyKind,
    ) -> Option<f64> {
        self.against_nodvs(benchmark, traffic, policy)?.loss
    }

    fn against_nodvs(
        &self,
        benchmark: Benchmark,
        traffic: &TrafficSpec,
        policy: PolicyKind,
    ) -> Option<VsNoDvs> {
        let cells = self.cell_refs();
        let cell = cells
            .iter()
            .copied()
            .find(|c| c.is(benchmark, traffic, policy))?;
        Some(vs_nodvs(&cells, cell))
    }
}

/// One completed cell of either mode, borrowed — the unit the grid
/// table and document render.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CellRef<'a> {
    /// A single-seed result.
    Plain(&'a ExperimentResult),
    /// A replicated result.
    Replicated(&'a ReplicatedResult),
}

impl<'a> CellRef<'a> {
    /// The cell's experiment (the replicate family's base experiment
    /// when replicated).
    pub(crate) fn experiment(self) -> &'a Experiment {
        match self {
            CellRef::Plain(r) => &r.experiment,
            CellRef::Replicated(r) => &r.experiment,
        }
    }

    /// A [`stats::RunMetrics`] field by name: the run's value, or the
    /// mean over the replicates.
    pub(crate) fn mean(self, metric: &str) -> f64 {
        match self {
            CellRef::Plain(r) => field(r.metrics().fields(), metric),
            CellRef::Replicated(r) => field(r.metrics.fields(), metric).mean(),
        }
    }

    /// A replicated cell's summary of a metric field; `None` when
    /// plain.
    pub(crate) fn summary(self, metric: &str) -> Option<&'a Summary> {
        match self {
            CellRef::Plain(_) => None,
            CellRef::Replicated(r) => Some(field(r.metrics.fields(), metric)),
        }
    }

    fn is(self, benchmark: Benchmark, traffic: &TrafficSpec, policy: PolicyKind) -> bool {
        let e = self.experiment();
        e.benchmark == benchmark && &e.traffic == traffic && e.policy.kind() == policy
    }
}

/// Looks a metric field up by name.
fn field<T>(fields: [(&'static str, T); 10], name: &str) -> T {
    fields
        .into_iter()
        .find_map(|(n, v)| (n == name).then_some(v))
        .unwrap_or_else(|| panic!("no metric field named {name}"))
}

/// How one cell fares against the noDVS cell of the same benchmark and
/// traffic: the compare axis's saving and loss columns, plus (both
/// replicated) Welch's t-test of the two per-seed mean-power folds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct VsNoDvs {
    pub(crate) saving: Option<f64>,
    pub(crate) loss: Option<f64>,
    pub(crate) welch: Option<WelchT>,
}

pub(crate) fn vs_nodvs(cells: &[CellRef<'_>], cell: CellRef<'_>) -> VsNoDvs {
    let e = cell.experiment();
    let base = cells
        .iter()
        .copied()
        .find(|c| c.is(e.benchmark, &e.traffic, PolicyKind::NoDvs));
    let relative = |metric: &str| {
        let b = base?.mean(metric);
        let w = cell.mean(metric);
        (b > 0.0).then(|| (b - w) / b)
    };
    let welch = match (base, cell) {
        (Some(CellRef::Replicated(base)), CellRef::Replicated(r))
            if e.policy.kind() != PolicyKind::NoDvs =>
        {
            welch_t(&r.metrics.mean_power_w, &base.metrics.mean_power_w)
        }
        _ => None,
    };
    VsNoDvs {
        saving: relative("mean_power_w"),
        loss: relative("throughput_mbps"),
        welch,
    }
}

/// The Fig. 8 surface: for each TDVS cell, the power value below which
/// 80 % of formula-(2) instances fall, as `(threshold, window, power)`
/// triples in grid order.
#[must_use]
pub fn power_surface(cells: &[ExperimentResult]) -> Vec<(f64, u64, f64)> {
    surface(cells, ExperimentResult::p80_power_w)
}

/// The Fig. 9 surface: for each TDVS cell, the throughput above which
/// 80 % of formula-(3) instances fall, as `(threshold, window, mbps)`
/// triples.
#[must_use]
pub fn throughput_surface(cells: &[ExperimentResult]) -> Vec<(f64, u64, f64)> {
    surface(cells, ExperimentResult::p80_throughput_mbps)
}

fn surface(
    cells: &[ExperimentResult],
    value: fn(&ExperimentResult) -> f64,
) -> Vec<(f64, u64, f64)> {
    cells
        .iter()
        .filter_map(|c| {
            let (threshold, window) = c.experiment.tdvs_point()?;
            Some((threshold, window, value(c)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use traffic::TrafficLevel;

    fn plain(grid: &Grid, runner: &Runner) -> Vec<ExperimentResult> {
        let run = run_grid(runner, grid, 1);
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        run.plain().expect("one seed per cell").to_vec()
    }

    #[test]
    fn default_grid_matches_paper() {
        let g = TdvsGrid::default();
        assert_eq!(g.thresholds_mbps, vec![800.0, 1000.0, 1200.0, 1400.0]);
        assert_eq!(g.windows_cycles, vec![20_000, 40_000, 60_000, 80_000]);
        assert_eq!(g.len(), 16);
        assert!(!g.is_empty());
    }

    #[test]
    fn sweep_covers_every_cell() {
        let points = TdvsGrid {
            thresholds_mbps: vec![1000.0, 1400.0],
            windows_cycles: vec![20_000, 80_000],
        };
        let grid = Grid::tdvs(
            Benchmark::Ipfwdr,
            &TrafficLevel::Medium.into(),
            &points,
            400_000,
            3,
        );
        assert_eq!(grid.axis(), Axis::Tdvs);
        let cells = plain(&grid, &Runner::new());
        assert_eq!(cells.len(), 4);
        let combos: Vec<(f64, u64)> = cells
            .iter()
            .filter_map(|c| c.experiment.tdvs_point())
            .collect();
        assert!(combos.contains(&(1000.0, 20_000)));
        assert!(combos.contains(&(1400.0, 80_000)));
    }

    #[test]
    fn spec_sweep_covers_every_spec_in_order() {
        let specs: Vec<PolicySpec> = ["nodvs", "tdvs:threshold=1400", "queue", "proportional"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let grid = Grid::policies(
            Benchmark::Ipfwdr,
            &TrafficLevel::Low.into(),
            &specs,
            400_000,
            7,
        );
        let cells = plain(&grid, &Runner::new());
        assert_eq!(cells.len(), 4);
        for (cell, spec) in cells.iter().zip(&specs) {
            assert_eq!(cell.experiment.policy, *spec);
            assert!(cell.sim.mean_power_w() > 0.2);
        }
    }

    #[test]
    fn try_sweep_keeps_grid_order_on_any_runner() {
        let points = TdvsGrid {
            thresholds_mbps: vec![1000.0, 1400.0],
            windows_cycles: vec![20_000, 80_000],
        };
        let grid = Grid::tdvs(
            Benchmark::Ipfwdr,
            &TrafficLevel::Medium.into(),
            &points,
            300_000,
            3,
        );
        let expected: Vec<(f64, u64)> = vec![
            (1000.0, 20_000),
            (1000.0, 80_000),
            (1400.0, 20_000),
            (1400.0, 80_000),
        ];
        let got: Vec<(f64, u64)> = plain(&grid, &Runner::serial())
            .iter()
            .filter_map(|c| c.experiment.tdvs_point())
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn traffic_sweep_covers_every_spec_in_order() {
        let traffics: Vec<TrafficSpec> = ["low", "constant:rate=500", "burst:period_s=0.001"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let grid = Grid::traffics(Benchmark::Ipfwdr, &traffics, &PolicySpec::NoDvs, 400_000, 7);
        let cells = plain(&grid, &Runner::new());
        assert_eq!(cells.len(), 3);
        for (cell, spec) in cells.iter().zip(&traffics) {
            assert_eq!(cell.experiment.traffic, *spec);
            assert!(cell.sim.forwarded_packets > 0);
        }
        // The constant source's offered load is exact by construction.
        let offered = cells[1].sim.offered_mbps();
        assert!(
            (offered - 500.0).abs() / 500.0 < 0.02,
            "offered {offered:.1}"
        );
    }

    #[test]
    fn surfaces_have_one_point_per_cell() {
        let points = TdvsGrid {
            thresholds_mbps: vec![1200.0],
            windows_cycles: vec![40_000, 60_000],
        };
        let grid = Grid::tdvs(
            Benchmark::Ipfwdr,
            &TrafficLevel::High.into(),
            &points,
            400_000,
            3,
        );
        let cells = plain(&grid, &Runner::new());
        let power = power_surface(&cells);
        let tput = throughput_surface(&cells);
        assert_eq!(power.len(), 2);
        assert_eq!(tput.len(), 2);
        for &(_, _, w) in &power {
            assert!(w > 0.2 && w < 3.0, "implausible power {w}");
        }
        for &(_, _, t) in &tput {
            assert!(t > 0.0, "implausible throughput {t}");
        }
    }
}
