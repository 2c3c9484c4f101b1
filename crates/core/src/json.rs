//! Hand-rolled JSON output for experiment results.
//!
//! The workspace's `serde` is an offline no-op shim (see
//! `shims/README.md`), so result containers derive the marker traits but
//! generate no serialization code; this module writes the JSON the
//! `abdex ... --json <path>` flag emits by hand. The schema is flat and
//! stable: every document has a `"kind"` discriminator and every cell
//! carries its full experiment description plus a `"metrics"` object, so
//! downstream tooling (plots, regression trackers) never has to re-parse
//! the human-readable tables.

use ccache::json::num_f64;
use obs::prof::escape_json;
use scenario::ScenarioRun;
use stats::{ConfidenceLevel, Summary};
use xrun::JobError;

use crate::experiment::ExperimentResult;
use crate::replicate::{ReplicatedComparison, ReplicatedResult};
use crate::sweep::{vs_nodvs, Axis, CellRef, GridRun};
use crate::traceio::{StreamStats, TraceAnalysis};

/// Version of the hand-rolled `--json` schema. Bump whenever a document's
/// shape or field semantics change; every document carries it as
/// `"schema_version"` so downstream tooling can refuse input it does not
/// understand instead of misreading it.
///
/// History: **1** — the PR-2 documents (`experiment`, `tdvs_sweep`,
/// `spec_sweep`, `policy_comparison`), no version field. **2** — the
/// version field itself; `"traffic"` holds a [`TrafficSpec`] spec string
/// (a paper level renders as `low`/`medium`/`high` exactly as before);
/// new `traffic_sweep` document. **3** — replication batches: new
/// `replicated_run`, `replicated_sweep` (with an `"axis"`
/// discriminator: `tdvs`/`policies`/`traffics`) and
/// `replicated_compare` documents whose `"metrics"` values are
/// `{mean, half_width, std_dev, min, max, n}` summary objects at the
/// document's `"ci_level"`; single-run documents are unchanged in
/// shape. **4** — scenarios: new `scenario` document (the segment plan
/// plus, per policy, whole-run and per-segment summary metrics from a
/// single segment-snapshotted simulation); `replicated_compare` rows
/// gain `"welch_t_vs_nodvs"` / `"significant_vs_nodvs"` (Welch's
/// t-test of the row's mean power against the noDVS baseline at the
/// document's `"ci_level"`). `"significant_vs_nodvs"` is the
/// authoritative verdict; `"welch_t_vs_nodvs"` is `null` both when no
/// test ran (the baseline row itself, single-replicate folds — the
/// verdict is then `false`) and when the statistic is infinite (two
/// noise-free folds with distinct means, e.g. seed-insensitive CBR
/// traffic — the verdict is then `true`, and `"saving_vs_nodvs"`'s
/// sign carries the direction JSON cannot). **5** — fleets: new
/// `fleet` document (the fleet's axes — `chips`, `dispatch`,
/// `fleet_policy`, per-chip `share`s — plus fleet-wide and per-chip
/// summary-metric objects over the replicates); existing documents are
/// unchanged in shape. **6** — observability: `fleet` per-chip entries
/// gain `"queue_depth"`, a `{p50, p95, p99, n}` object of queue-depth
/// percentiles from a deterministic log2 [`HistogramSketch`] over
/// every recorded epoch of every replicate; new `--record` JSONL
/// timeseries export (a `meta` header line then one object per
/// recorded sample — see [`crate::record`]) shares this version.
/// **7** — stochastic traffic & traces: new `trace_analysis` document
/// (`abdex trace analyze`: inter-arrival and size statistics — mean,
/// CV, sketch percentiles — plus a Hurst-style burstiness proxy,
/// byte-identical for any `--jobs`); `fleet` per-chip entries gain
/// `"queue_wait_us"`, a `{p50, p95, p99, n}` object of per-epoch mean
/// forwarded-packet sojourn percentiles from the recorder's new
/// `queue_wait_us` channel; `--record` exports carry that channel too.
/// **8** — result cache & distribution fits: every document (and the
/// `--record` meta line) gains `"cache_epoch"`, the
/// [`ccache::CACHE_EPOCH`] the producing binary keys its result cache
/// with — a constant per build, so cached and cold runs stay
/// byte-identical while downstream tooling can partition archives by
/// simulator-semantics generation; `trace_analysis` per-stream objects
/// gain `"best_fit"`/`"fit_error"`/`"fits"` (method-of-moments
/// distribution fits as round-trippable `dist:` spec strings) and the
/// document gains a `"provenance"` object when the trace header
/// recorded its generating spec/seed/cycles. Cache hit/miss tallies
/// are deliberately **not** part of any document (they land on
/// stderr): a document's bytes must not depend on cache state.
/// **9** — recording analyzer & profiler: new `obs_summary` document
/// (`abdex obs summarize <record.jsonl>`: per-channel
/// n/min/mean/max/p50/p95/p99 re-derived from a `--record` export via
/// the deterministic log2 [`HistogramSketch`]; chunked fold in fixed
/// chunk order, so the document is bit-identical for any `--jobs`);
/// existing documents are unchanged in shape. The `--profile` Chrome
/// trace introduced alongside is wall-clock observability and is
/// deliberately **unversioned** — like the cache tallies it never
/// enters a result document, and stdout stays byte-identical with and
/// without it.
///
/// [`TrafficSpec`]: traffic::TrafficSpec
/// [`HistogramSketch`]: obs::HistogramSketch
pub const SCHEMA_VERSION: u64 = 9;

/// A minimal JSON object builder: append fields, then [`Obj::finish`].
#[derive(Debug)]
pub(crate) struct Obj {
    buf: String,
}

impl Obj {
    pub(crate) fn new() -> Self {
        Obj { buf: String::new() }
    }

    fn key(&mut self, key: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(&escape_json(key));
        self.buf.push_str("\":");
    }

    /// Adds a string field.
    pub(crate) fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        self.buf.push('"');
        self.buf.push_str(&escape_json(value));
        self.buf.push('"');
        self
    }

    /// Adds a float field (`null` when not finite).
    pub(crate) fn num(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        self.buf.push_str(&num_f64(value));
        self
    }

    /// Adds an integer field.
    pub(crate) fn int(mut self, key: &str, value: u64) -> Self {
        self.key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Adds a boolean field.
    pub(crate) fn bool(mut self, key: &str, value: bool) -> Self {
        self.key(key);
        self.buf.push_str(if value { "true" } else { "false" });
        self
    }

    /// Adds a field whose value is already-rendered JSON.
    pub(crate) fn raw(mut self, key: &str, json: &str) -> Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Closes the object.
    pub(crate) fn finish(self) -> String {
        format!("{{{}}}", self.buf)
    }
}

/// Renders a JSON array from already-rendered element documents.
pub(crate) fn array(items: &[String]) -> String {
    format!("[{}]", items.join(","))
}

/// The shared per-cell payload: the experiment's axes plus its measured
/// metrics.
fn result_fields(obj: Obj, r: &ExperimentResult) -> Obj {
    let e = &r.experiment;
    let metrics = Obj::new()
        .num("offered_mbps", r.sim.offered_mbps())
        .num("throughput_mbps", r.sim.throughput_mbps())
        .num("mean_power_w", r.sim.mean_power_w())
        .num("p80_power_w", r.p80_power_w())
        .num("p80_throughput_mbps", r.p80_throughput_mbps())
        .num("loss_ratio", r.sim.loss_ratio())
        .num("rx_idle_fraction", r.sim.rx_idle_fraction())
        .num("total_energy_uj", r.sim.total_energy_uj())
        .int("total_switches", r.sim.total_switches)
        .int("forwarded_packets", r.sim.forwarded_packets)
        .finish();
    obj.str("benchmark", &e.benchmark.to_string())
        .str("traffic", &e.traffic.spec_string())
        .str("policy", &e.policy.spec_string())
        .int("cycles", e.cycles)
        .int("seed", e.seed)
        .raw("metrics", &metrics)
}

/// Renders the per-cell failures of a batch, so a document holding a
/// *partial* grid is distinguishable from a complete smaller one: every
/// batch document carries `"failed"` plus one entry per panicked cell.
fn failure_fields(obj: Obj, failures: &[JobError]) -> Obj {
    let rendered: Vec<String> = failures
        .iter()
        .map(|e| {
            Obj::new()
                .str("job", &e.job)
                .int("index", e.index as u64)
                .str("message", &e.message)
                .finish()
        })
        .collect();
    obj.int("failed", rendered.len() as u64)
        .raw("failures", &array(&rendered))
}

/// Renders one per-metric summary as a JSON object: the interval at
/// `level` plus the spread and range behind it.
fn summary_obj(summary: &Summary, level: ConfidenceLevel) -> String {
    Obj::new()
        .num("mean", summary.mean())
        .num("half_width", summary.half_width(level))
        .num("std_dev", summary.std_dev())
        .num("min", summary.min())
        .num("max", summary.max())
        .int("n", summary.n())
        .finish()
}

/// The shared per-cell payload of every replicated document: the base
/// experiment's axes and one summary object per metric field. (The
/// replicate count lives at document level as `"seeds"`; each summary
/// also carries its own `"n"`.)
fn replicated_fields(obj: Obj, r: &ReplicatedResult, level: ConfidenceLevel) -> Obj {
    let e = &r.experiment;
    let mut metrics = Obj::new();
    for (name, summary) in r.metrics.fields() {
        metrics = metrics.raw(name, &summary_obj(summary, level));
    }
    obj.str("benchmark", &e.benchmark.to_string())
        .str("traffic", &e.traffic.spec_string())
        .str("policy", &e.policy.spec_string())
        .int("cycles", e.cycles)
        .int("seed", e.seed)
        .raw("metrics", &metrics.finish())
}

/// The header fields every document opens with.
pub(crate) fn header(kind: &str) -> Obj {
    Obj::new()
        .int("schema_version", SCHEMA_VERSION)
        .int("cache_epoch", ccache::CACHE_EPOCH)
        .str("kind", kind)
}

/// The header fields every replicated document opens with.
fn replicated_header(kind: &str, seeds: u64, level: ConfidenceLevel) -> Obj {
    header(kind)
        .int("seeds", seeds)
        .int("ci_level", level.percent())
}

/// Renders one experiment result as a JSON document
/// (`"kind": "experiment"`).
#[must_use]
pub fn experiment_json(r: &ExperimentResult) -> String {
    result_fields(header("experiment"), r).finish()
}

/// The axis fields that lead each cell object: the TDVS point, the
/// policy family, the traffic model's registry name, or — on the
/// compare axis — the saving and throughput loss vs the noDVS cell of
/// the same benchmark and traffic (replicated, plus Welch's t of the
/// mean powers and its verdict at `level`).
fn axis_fields(
    obj: Obj,
    axis: Axis,
    cells: &[CellRef<'_>],
    cell: CellRef<'_>,
    level: ConfidenceLevel,
) -> Obj {
    let e = cell.experiment();
    match axis {
        Axis::Tdvs => {
            let (threshold, window) = e.tdvs_point().unwrap_or((f64::NAN, 0));
            obj.num("threshold_mbps", threshold)
                .int("window_cycles", window)
        }
        Axis::Policies => obj.str("policy_kind", &e.policy.kind().to_string()),
        Axis::Traffics => obj.str("traffic_model", e.traffic.name()),
        Axis::Compare => {
            let vs = vs_nodvs(cells, cell);
            let obj = obj
                .num("saving_vs_nodvs", vs.saving.unwrap_or(f64::NAN))
                .num("throughput_loss_vs_nodvs", vs.loss.unwrap_or(f64::NAN));
            match cell {
                CellRef::Plain(_) => obj,
                CellRef::Replicated(_) => obj
                    .num("welch_t_vs_nodvs", vs.welch.map_or(f64::NAN, |w| w.t))
                    .bool(
                        "significant_vs_nodvs",
                        vs.welch.is_some_and(|w| w.significant(level)),
                    ),
            }
        }
    }
}

/// Renders an evaluated grid as its JSON document: one cell object per
/// completed cell in grid order — the axis fields, then the
/// experiment's axes and `"metrics"` — plus one `failures` entry per
/// failed cell. Plain grids are `tdvs_sweep`, `spec_sweep`,
/// `traffic_sweep` or `policy_comparison` documents; replicated ones
/// are `replicated_sweep` (with an `"axis"` tag: `tdvs`, `policies`,
/// `traffics`) or `replicated_compare` documents whose metrics are
/// `{mean, half_width, std_dev, min, max, n}` summaries at the
/// document's `"ci_level"`. See [`SCHEMA_VERSION`] for the compare
/// axis's `welch_t_vs_nodvs`/`significant_vs_nodvs` semantics,
/// including the infinite statistic JSON renders as `null`.
#[must_use]
pub fn grid_json(run: &GridRun, level: ConfidenceLevel) -> String {
    grid_doc(
        run.axis,
        run.replicated().map(|_| run.seeds),
        &run.cell_refs(),
        level,
        &run.failures,
    )
}

/// Renders a [`ReplicatedComparison`] as a `replicated_compare`
/// document: the compare-axis case of [`grid_json`].
#[must_use]
pub fn replicated_compare_json(
    cmp: &ReplicatedComparison,
    level: ConfidenceLevel,
    failures: &[JobError],
) -> String {
    let cells: Vec<CellRef<'_>> = cmp
        .rows
        .iter()
        .map(|row| CellRef::Replicated(&row.result))
        .collect();
    grid_doc(Axis::Compare, Some(cmp.seeds), &cells, level, failures)
}

/// `seeds` is `None` for a plain grid.
fn grid_doc(
    axis: Axis,
    seeds: Option<u64>,
    cells: &[CellRef<'_>],
    level: ConfidenceLevel,
    failures: &[JobError],
) -> String {
    // Each axis's plain document kind and replicated `"axis"` tag; the
    // three sweeps share the replicated kind and list their `cells` as
    // a `grid`, the comparison lists `rows` in a `table`.
    let (plain_kind, tag) = match axis {
        Axis::Tdvs => ("tdvs_sweep", Some("tdvs")),
        Axis::Policies => ("spec_sweep", Some("policies")),
        Axis::Traffics => ("traffic_sweep", Some("traffics")),
        Axis::Compare => ("policy_comparison", None),
    };
    let (replicated_kind, count_key, list_key) = match tag {
        Some(_) => ("replicated_sweep", "cells", "grid"),
        None => ("replicated_compare", "rows", "table"),
    };
    let rendered: Vec<String> = cells
        .iter()
        .map(|&cell| {
            let obj = axis_fields(Obj::new(), axis, cells, cell, level);
            match cell {
                CellRef::Plain(r) => result_fields(obj, r),
                CellRef::Replicated(r) => replicated_fields(obj, r, level),
            }
            .finish()
        })
        .collect();
    let head = match (seeds, tag) {
        (None, _) => header(plain_kind),
        (Some(seeds), None) => replicated_header(replicated_kind, seeds, level),
        (Some(seeds), Some(tag)) => {
            replicated_header(replicated_kind, seeds, level).str("axis", tag)
        }
    };
    failure_fields(
        head.int(count_key, rendered.len() as u64)
            .raw(list_key, &array(&rendered)),
        failures,
    )
    .finish()
}

/// Renders one replicated run as a JSON document
/// (`"kind": "replicated_run"`): the base experiment's axes plus one
/// `{mean, half_width, std_dev, min, max, n}` object per metric at the
/// document's `"ci_level"`.
#[must_use]
pub fn replicated_run_json(r: &ReplicatedResult, level: ConfidenceLevel) -> String {
    replicated_fields(
        replicated_header("replicated_run", r.replicates(), level),
        r,
        level,
    )
    .finish()
}

/// Renders one metric fold of a scenario slice: one summary object per
/// [`scenario::SegmentDist`] field.
fn segment_dist_obj(dist: &scenario::SegmentDist, level: ConfidenceLevel) -> String {
    let mut metrics = Obj::new();
    for (name, summary) in dist.fields() {
        metrics = metrics.raw(name, &summary_obj(summary, level));
    }
    metrics.finish()
}

/// Renders a completed scenario run as a JSON document
/// (`"kind": "scenario"`): the scenario's description and segment plan,
/// then one entry per completed policy holding `"whole"` (whole-run)
/// and `"segments"` (per-window-slice) summary metrics at the
/// document's `"ci_level"`, plus one `failures` entry per failed
/// policy.
#[must_use]
pub fn scenario_json(run: &ScenarioRun, level: ConfidenceLevel, failures: &[JobError]) -> String {
    let s = &run.scenario;
    let plan: Vec<String> = run
        .plan
        .iter()
        .enumerate()
        .map(|(i, p)| {
            Obj::new()
                .int("index", i as u64)
                .str("label", &p.label)
                .int("start_cycles", p.start_cycles)
                .int("end_cycles", p.end_cycles)
                .finish()
        })
        .collect();
    let policies: Vec<String> = run
        .policies
        .iter()
        .map(|outcome| {
            let segments: Vec<String> = outcome
                .segments
                .iter()
                .enumerate()
                .map(|(i, seg)| {
                    Obj::new()
                        .int("index", i as u64)
                        .str("label", &seg.segment.label)
                        .int("start_cycles", seg.segment.start_cycles)
                        .int("end_cycles", seg.segment.end_cycles)
                        .raw("metrics", &segment_dist_obj(&seg.metrics, level))
                        .finish()
                })
                .collect();
            Obj::new()
                .str("policy", &outcome.policy.spec_string())
                .raw("whole", &segment_dist_obj(&outcome.whole, level))
                .raw("segments", &array(&segments))
                .finish()
        })
        .collect();
    failure_fields(
        replicated_header("scenario", s.seeds, level)
            .str("scenario", &s.name)
            .str("summary", &s.summary)
            .str("benchmark", &s.benchmark.to_string())
            .str("traffic", &s.traffic.spec_string())
            .int("cycles", s.cycles)
            .int("seed", s.seed)
            .int("segments", plan.len() as u64)
            .raw("plan", &array(&plan))
            .int("policies", policies.len() as u64)
            .raw("results", &array(&policies)),
        failures,
    )
    .finish()
}

/// Renders a fleet run as a JSON document (`"kind": "fleet"`): the
/// fleet's axes, the dispatcher's per-chip shares, fleet-wide summary
/// metrics over the replicates and one metrics object per chip.
#[must_use]
pub fn fleet_json(outcome: &fleet::FleetOutcome, level: ConfidenceLevel) -> String {
    let report = &outcome.report;
    let c = &report.config;
    let mut metrics = Obj::new();
    for (name, summary) in report.fleet.fields() {
        metrics = metrics.raw(name, &summary_obj(summary, level));
    }
    let per_chip: Vec<String> = report
        .chips
        .iter()
        .enumerate()
        .map(|(index, chip)| {
            let mut chip_metrics = Obj::new();
            for (name, summary) in chip.fields() {
                chip_metrics = chip_metrics.raw(name, &summary_obj(summary, level));
            }
            // Queue-depth percentiles come from the recorder's sketch,
            // not a replicate fold: exact merges make them worker-count
            // invariant (nulls when no epoch was recorded).
            let (p50, p95, p99) =
                chip.queue_percentiles()
                    .unwrap_or((f64::NAN, f64::NAN, f64::NAN));
            let queue = Obj::new()
                .num("p50", p50)
                .num("p95", p95)
                .num("p99", p99)
                .int("n", chip.queue_depth.count())
                .finish();
            let (w50, w95, w99) = chip
                .wait_percentiles()
                .unwrap_or((f64::NAN, f64::NAN, f64::NAN));
            let wait = Obj::new()
                .num("p50", w50)
                .num("p95", w95)
                .num("p99", w99)
                .int("n", chip.queue_wait_us.count())
                .finish();
            Obj::new()
                .int("chip", index as u64)
                .num("share", chip.share)
                .raw("metrics", &chip_metrics.finish())
                .raw("queue_depth", &queue)
                .raw("queue_wait_us", &wait)
                .finish()
        })
        .collect();
    failure_fields(
        replicated_header("fleet", report.seeds as u64, level)
            .int("chips", c.chips as u64)
            .str("dispatch", &c.dispatch.spec_string())
            .str("benchmark", &c.benchmark.to_string())
            .str("traffic", &c.traffic.spec_string())
            .str("policy", &c.policy.spec_string())
            .str("fleet_policy", &c.fleet_policy.spec_string())
            .int("cycles", c.cycles)
            .int("seed", c.seed)
            .int("replicates", report.fleet.replicates())
            .raw("metrics", &metrics.finish())
            .raw("per_chip", &array(&per_chip)),
        &outcome.errors,
    )
    .finish()
}

/// Renders one trace characterisation as a JSON document
/// (`"kind": "trace_analysis"`). The analysis itself is worker-count
/// invariant, so the document bytes are too.
#[must_use]
pub fn trace_analysis_json(path: &str, a: &TraceAnalysis) -> String {
    let stream = |s: &Option<StreamStats>, fits: &[dist::fit::FitCandidate]| match s {
        None => "null".to_owned(),
        Some(s) => {
            let ranked: Vec<String> = fits
                .iter()
                .map(|c| {
                    Obj::new()
                        .str("spec", &c.spec.spec_string())
                        .num("error", c.error)
                        .finish()
                })
                .collect();
            let mut obj = Obj::new()
                .num("mean", s.mean)
                .num("cv", s.cv)
                .num("p50", s.p50)
                .num("p95", s.p95)
                .num("p99", s.p99);
            if let Some(best) = fits.first() {
                obj = obj
                    .str("best_fit", &best.spec.spec_string())
                    .num("fit_error", best.error);
            }
            obj.raw("fits", &array(&ranked)).finish()
        }
    };
    let provenance = match &a.provenance {
        None => "null".to_owned(),
        Some(p) => Obj::new()
            .str("traffic", &p.traffic)
            .int("seed", p.seed)
            .int("cycles", p.cycles)
            .finish(),
    };
    header("trace_analysis")
        .str("trace", path)
        .int("packets", a.packets)
        .num("duration_us", a.duration_us)
        .int("total_bytes", a.total_bytes)
        .num("mean_rate_mbps", a.mean_rate_mbps)
        .raw("gap_us", &stream(&a.gap_us, &a.gap_fits))
        .raw("size_bytes", &stream(&a.size_bytes, &a.size_fits))
        .num("hurst", a.hurst.unwrap_or(f64::NAN))
        .raw("provenance", &provenance)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::ComparisonConfig;
    use crate::replicate::ReplicatedComparisonRow;
    use crate::sweep::{run_grid, Cells, Grid, TdvsGrid};
    use crate::{Experiment, PolicySpec, Runner};
    use nepsim::Benchmark;
    use traffic::{TrafficLevel, TrafficSpec};

    /// Runs a grid that must complete.
    fn run(grid: &Grid, seeds: u64) -> GridRun {
        let run = run_grid(&Runner::new(), grid, seeds);
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        run
    }

    /// A tiny structural validator: checks quotes/brace/bracket balance
    /// outside string literals — enough to catch malformed output
    /// without a full parser.
    fn assert_balanced(json: &str) {
        let mut depth_obj = 0i64;
        let mut depth_arr = 0i64;
        let mut in_str = false;
        let mut escaped = false;
        for c in json.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' => depth_obj += 1,
                '}' => depth_obj -= 1,
                '[' => depth_arr += 1,
                ']' => depth_arr -= 1,
                _ => {}
            }
            assert!(depth_obj >= 0 && depth_arr >= 0, "early close in {json}");
        }
        assert!(!in_str, "unterminated string in {json}");
        assert_eq!(depth_obj, 0, "unbalanced braces in {json}");
        assert_eq!(depth_arr, 0, "unbalanced brackets in {json}");
    }

    #[test]
    fn escape_handles_specials() {
        let doc = Obj::new().str("k\"", "a\"b\\c\nd\u{1}").finish();
        assert_eq!(doc, "{\"k\\\"\":\"a\\\"b\\\\c\\nd\\u0001\"}");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let doc = Obj::new()
            .num("nan", f64::NAN)
            .num("inf", f64::INFINITY)
            .num("x", 1.5)
            .finish();
        assert_eq!(doc, "{\"nan\":null,\"inf\":null,\"x\":1.5}");
    }

    #[test]
    fn experiment_document_has_the_schema() {
        let r = Experiment {
            benchmark: Benchmark::Nat,
            traffic: TrafficLevel::Low.into(),
            policy: PolicySpec::NoDvs,
            cycles: 150_000,
            seed: 3,
        }
        .run();
        let json = experiment_json(&r);
        assert_balanced(&json);
        for key in [
            "\"schema_version\":9",
            "\"kind\":\"experiment\"",
            "\"benchmark\":\"nat\"",
            "\"traffic\":\"low\"",
            "\"policy\":\"nodvs\"",
            "\"cycles\":150000",
            "\"seed\":3",
            "\"metrics\":{",
            "\"mean_power_w\":",
            "\"p80_throughput_mbps\":",
            "\"total_switches\":",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn sweep_documents_have_one_entry_per_cell() {
        let points = TdvsGrid {
            thresholds_mbps: vec![1000.0],
            windows_cycles: vec![20_000, 40_000],
        };
        let grid = Grid::tdvs(
            Benchmark::Ipfwdr,
            &TrafficLevel::Medium.into(),
            &points,
            200_000,
            1,
        );
        let json = grid_json(&run(&grid, 1), stats::ConfidenceLevel::P95);
        assert_balanced(&json);
        assert!(json.contains("\"kind\":\"tdvs_sweep\""));
        assert!(json.contains("\"schema_version\":9"));
        assert!(json.contains("\"cells\":2"));
        assert!(json.contains("\"failed\":0"));
        assert_eq!(json.matches("\"threshold_mbps\":").count(), 2);
        // Plain documents carry no replication header.
        assert!(!json.contains("\"seeds\""), "{json}");

        let specs: Vec<PolicySpec> = ["nodvs", "proportional"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let grid = Grid::policies(
            Benchmark::Ipfwdr,
            &TrafficLevel::Low.into(),
            &specs,
            200_000,
            1,
        );
        let json = grid_json(&run(&grid, 1), stats::ConfidenceLevel::P95);
        assert_balanced(&json);
        assert!(json.contains("\"kind\":\"spec_sweep\""));
        assert!(json.contains("\"policy_kind\":\"PDVS\""));
    }

    #[test]
    fn partial_batches_carry_a_failure_marker() {
        let failures = vec![JobError {
            job: "ipfwdr/high tdvs:threshold=800,window=20000".into(),
            index: 3,
            message: "ladder panic \"quoted\"".into(),
        }];
        let run = GridRun {
            axis: Axis::Tdvs,
            seeds: 1,
            cells: Cells::Plain(Vec::new()),
            failures,
        };
        let json = grid_json(&run, stats::ConfidenceLevel::P95);
        assert_balanced(&json);
        assert!(json.contains("\"cells\":0"), "{json}");
        assert!(json.contains("\"failed\":1"), "{json}");
        assert!(json.contains("\"index\":3"), "{json}");
        assert!(json.contains("ladder panic \\\"quoted\\\""), "{json}");
    }

    #[test]
    fn traffic_sweep_document_records_the_specs() {
        let traffics: Vec<TrafficSpec> = ["low", "constant:rate=500,size=576,ports=16"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let grid = Grid::traffics(Benchmark::Ipfwdr, &traffics, &PolicySpec::NoDvs, 200_000, 1);
        let json = grid_json(&run(&grid, 1), stats::ConfidenceLevel::P95);
        assert_balanced(&json);
        assert!(json.contains("\"kind\":\"traffic_sweep\""), "{json}");
        assert!(json.contains("\"schema_version\":9"), "{json}");
        assert!(json.contains("\"cells\":2"), "{json}");
        // The exact spec string round-trips through the document.
        assert!(
            json.contains("\"traffic\":\"constant:rate=500,size=576,ports=16\""),
            "{json}"
        );
        assert!(json.contains("\"traffic_model\":\"constant\""), "{json}");
        assert!(json.contains("\"traffic\":\"low\""), "{json}");
    }

    #[test]
    fn comparison_document_carries_savings() {
        let cfg = ComparisonConfig {
            cycles: 150_000,
            ..ComparisonConfig::default()
        };
        let grid = Grid::compare(&[Benchmark::Nat], &[TrafficLevel::Low.into()], &cfg);
        let json = grid_json(&run(&grid, 1), stats::ConfidenceLevel::P95);
        assert_balanced(&json);
        assert!(json.contains("\"kind\":\"policy_comparison\""));
        assert!(json.contains("\"schema_version\":9"));
        assert!(json.contains("\"rows\":6"));
        assert_eq!(json.matches("\"saving_vs_nodvs\":").count(), 6);
        // Welch's t is a replicated-only field.
        assert!(!json.contains("welch_t_vs_nodvs"), "{json}");
    }

    #[test]
    fn replicated_run_document_has_summary_metrics() {
        let r = crate::run_replicated_experiments(
            &Runner::new(),
            vec![Experiment {
                benchmark: Benchmark::Nat,
                traffic: TrafficLevel::Low.into(),
                policy: PolicySpec::NoDvs,
                cycles: 150_000,
                seed: 3,
            }],
            3,
        )
        .pop()
        .expect("one cell")
        .expect("no replicate failed");
        let json = replicated_run_json(&r, stats::ConfidenceLevel::P95);
        assert_balanced(&json);
        for key in [
            "\"schema_version\":9",
            "\"kind\":\"replicated_run\"",
            "\"seeds\":3",
            "\"ci_level\":95",
            "\"benchmark\":\"nat\"",
            "\"seed\":3",
            "\"mean_power_w\":{\"mean\":",
            "\"half_width\":",
            "\"std_dev\":",
            "\"n\":3",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // One summary object per metric field.
        assert_eq!(json.matches("\"half_width\":").count(), 10);
    }

    #[test]
    fn replicated_sweep_documents_carry_axis_and_cells() {
        let points = TdvsGrid {
            thresholds_mbps: vec![1000.0],
            windows_cycles: vec![20_000, 40_000],
        };
        let grid = Grid::tdvs(
            Benchmark::Ipfwdr,
            &TrafficLevel::Medium.into(),
            &points,
            150_000,
            1,
        );
        let json = grid_json(&run(&grid, 2), stats::ConfidenceLevel::P90);
        assert_balanced(&json);
        assert!(json.contains("\"kind\":\"replicated_sweep\""), "{json}");
        assert!(json.contains("\"axis\":\"tdvs\""), "{json}");
        assert!(json.contains("\"seeds\":2"), "{json}");
        assert!(json.contains("\"ci_level\":90"), "{json}");
        assert!(json.contains("\"cells\":2"), "{json}");
        assert!(json.contains("\"failed\":0"), "{json}");
        assert_eq!(json.matches("\"threshold_mbps\":").count(), 2);

        let traffics: Vec<TrafficSpec> = ["low", "constant:rate=500"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let grid = Grid::traffics(Benchmark::Ipfwdr, &traffics, &PolicySpec::NoDvs, 150_000, 1);
        let json = grid_json(&run(&grid, 2), stats::ConfidenceLevel::P99);
        assert_balanced(&json);
        assert!(json.contains("\"axis\":\"traffics\""), "{json}");
        assert!(json.contains("\"traffic_model\":\"constant\""), "{json}");

        let specs: Vec<PolicySpec> = ["nodvs", "proportional"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let grid = Grid::policies(
            Benchmark::Ipfwdr,
            &TrafficLevel::Low.into(),
            &specs,
            150_000,
            1,
        );
        let json = grid_json(&run(&grid, 2), stats::ConfidenceLevel::P95);
        assert_balanced(&json);
        assert!(json.contains("\"axis\":\"policies\""), "{json}");
        assert!(json.contains("\"policy_kind\":\"PDVS\""), "{json}");
    }

    /// The replicated compare grid run, plus the same cells as a
    /// [`ReplicatedComparison`].
    fn replicated_comparison(traffic: TrafficSpec) -> (GridRun, ReplicatedComparison) {
        let cfg = ComparisonConfig {
            cycles: 150_000,
            ..ComparisonConfig::default()
        };
        let grid = Grid::compare(&[Benchmark::Ipfwdr], &[traffic], &cfg);
        let run = run(&grid, 2);
        let rows = run
            .replicated()
            .expect("replicated cells")
            .iter()
            .map(|result| ReplicatedComparisonRow {
                benchmark: result.experiment.benchmark,
                traffic: result.experiment.traffic.clone(),
                policy: result.experiment.policy.kind(),
                result: result.clone(),
            })
            .collect();
        (run, ReplicatedComparison { rows, seeds: 2 })
    }

    #[test]
    fn replicated_compare_document_carries_interval_savings() {
        let (run, cmp) = replicated_comparison(TrafficLevel::Low.into());
        let json = grid_json(&run, stats::ConfidenceLevel::P95);
        assert_balanced(&json);
        assert!(json.contains("\"kind\":\"replicated_compare\""), "{json}");
        assert!(json.contains("\"schema_version\":9"), "{json}");
        assert!(json.contains("\"seeds\":2"), "{json}");
        assert!(json.contains("\"rows\":6"), "{json}");
        assert!(!json.contains("\"axis\""), "{json}");
        assert_eq!(json.matches("\"saving_vs_nodvs\":").count(), 6);
        // Every row carries full summary metrics and the significance
        // call vs the baseline (the noDVS row itself reports null).
        assert_eq!(json.matches("\"mean_power_w\":{\"mean\":").count(), 6);
        assert_eq!(json.matches("\"welch_t_vs_nodvs\":").count(), 6);
        assert_eq!(json.matches("\"significant_vs_nodvs\":").count(), 6);
        assert!(json.contains("\"welch_t_vs_nodvs\":null"), "{json}");
        // A comparison folded outside the grid runner renders as the
        // compare-axis case of the same builder and renderer.
        assert_eq!(
            replicated_compare_json(&cmp, stats::ConfidenceLevel::P95, &[]),
            json
        );
        assert_eq!(
            crate::tables::render_replicated_comparison(&cmp, stats::ConfidenceLevel::P95),
            crate::tables::render_grid(&run, stats::ConfidenceLevel::P95)
        );
    }

    #[test]
    fn infinite_welch_statistic_keeps_the_significance_verdict() {
        // Seed-insensitive CBR traffic: every replicate of a cell is
        // identical, so distinct policies give zero-variance folds with
        // distinct means — an infinite t. JSON cannot carry infinity
        // (it renders null), so the documented contract is that
        // `significant_vs_nodvs` stands alone as the verdict.
        let (run, _) = replicated_comparison("constant:rate=600".parse().unwrap());
        let json = grid_json(&run, stats::ConfidenceLevel::P95);
        assert_balanced(&json);
        // Every non-baseline row whose power genuinely differs reports
        // null t (infinite) with a true verdict.
        assert!(
            json.contains("\"welch_t_vs_nodvs\":null,\"significant_vs_nodvs\":true"),
            "{json}"
        );
        // The baseline row stays null + false.
        assert!(
            json.contains("\"welch_t_vs_nodvs\":null,\"significant_vs_nodvs\":false"),
            "{json}"
        );
    }

    #[test]
    fn scenario_document_reports_per_segment_and_whole_run_metrics() {
        let scenario = scenario::Scenario {
            name: "doc-test".to_owned(),
            summary: "a two-window schedule".to_owned(),
            benchmark: Benchmark::Ipfwdr,
            traffic: "schedule:segments=[low@0..150000; constant:rate=900@150000..]"
                .parse()
                .unwrap(),
            policies: vec!["nodvs".parse().unwrap(), "queue".parse().unwrap()],
            cycles: 300_000,
            seed: 3,
            seeds: 2,
        };
        let (run, errors) = scenario::try_run_scenario(&crate::Runner::new(), &scenario);
        assert!(errors.is_empty());
        let json = scenario_json(&run, stats::ConfidenceLevel::P95, &errors);
        assert_balanced(&json);
        for key in [
            "\"schema_version\":9",
            "\"kind\":\"scenario\"",
            "\"scenario\":\"doc-test\"",
            "\"seeds\":2",
            "\"ci_level\":95",
            "\"cycles\":300000",
            "\"segments\":2",
            "\"plan\":[",
            "\"label\":\"low\"",
            "\"start_cycles\":150000",
            "\"policies\":2",
            "\"whole\":{",
            "\"policy\":\"nodvs\"",
            "\"failed\":0",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // Per policy: one whole fold + two segment folds, each with a
        // full summary object per metric field.
        assert_eq!(json.matches("\"mean_power_w\":{\"mean\":").count(), 2 * 3);
        assert_eq!(json.matches("\"half_width\":").count(), 2 * 3 * 9);
    }

    #[test]
    fn fleet_document_reports_fleet_and_per_chip_metrics() {
        let mut config = fleet::FleetConfig::new(3);
        config.cycles = 150_000;
        config.dispatch = "least-loaded:flows=64".parse().unwrap();
        config.fleet_policy = "static-cap:budget=4".parse().unwrap();
        let outcome = fleet::run_fleet(&config, 2, &crate::Runner::new());
        assert!(outcome.errors.is_empty());
        let json = fleet_json(&outcome, stats::ConfidenceLevel::P95);
        assert_balanced(&json);
        for key in [
            "\"schema_version\":9",
            "\"kind\":\"fleet\"",
            "\"seeds\":2",
            "\"ci_level\":95",
            "\"chips\":3",
            "\"dispatch\":\"least-loaded:flows=64\"",
            "\"benchmark\":\"ipfwdr\"",
            "\"traffic\":\"high\"",
            "\"policy\":\"nodvs\"",
            "\"fleet_policy\":\"static-cap:budget=4\"",
            "\"cycles\":150000",
            "\"seed\":42",
            "\"replicates\":2",
            "\"imbalance\":{\"mean\":",
            "\"per_chip\":[",
            "\"chip\":2",
            "\"share\":",
            "\"failed\":0",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // One fleet-level summary per FleetDist field plus one per chip
        // and ChipDist field.
        assert_eq!(json.matches("\"half_width\":").count(), 9 + 3 * 7);
        assert_eq!(json.matches("\"chip\":").count(), 3);
    }
}
