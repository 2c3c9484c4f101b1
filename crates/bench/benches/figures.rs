//! Criterion benches that time reduced-size versions of each figure's
//! full regeneration pipeline (simulate → trace → analyze). One bench per
//! evaluation figure; the `fig*` binaries produce the actual numbers.

use abdex::compare::ComparisonConfig;
use abdex::dvs::EdvsConfig;
use abdex::nepsim::Benchmark;
use abdex::sweep::{power_surface, throughput_surface};
use abdex::traffic::{DiurnalModel, TrafficLevel, TrafficSpec};
use abdex::{run_grid, Experiment, Grid, PolicySpec, Runner, TdvsGrid};
use criterion::{criterion_group, criterion_main, Criterion};

/// Reduced run length so `cargo bench` completes quickly; the binaries use
/// the paper's 8M cycles.
const CYCLES: u64 = 100_000;

fn fig02_traffic(c: &mut Criterion) {
    c.bench_function("fig02_day_series", |b| {
        b.iter(|| DiurnalModel::nlanr_like(42).day_series(std::hint::black_box(300.0)));
    });
}

fn fig06_07_tdvs_cell(c: &mut Criterion) {
    c.bench_function("fig06_07_one_tdvs_cell", |b| {
        b.iter(|| {
            let grid = TdvsGrid {
                thresholds_mbps: vec![1000.0],
                windows_cycles: vec![40_000],
            };
            let grid = Grid::tdvs(
                Benchmark::Ipfwdr,
                &TrafficLevel::High.into(),
                &grid,
                CYCLES,
                42,
            );
            run_grid(&Runner::new(), &grid, 1)
        });
    });
}

fn fig08_09_surface(c: &mut Criterion) {
    c.bench_function("fig08_09_2x2_surface", |b| {
        b.iter(|| {
            let grid = TdvsGrid {
                thresholds_mbps: vec![1000.0, 1400.0],
                windows_cycles: vec![20_000, 80_000],
            };
            let grid = Grid::tdvs(
                Benchmark::Ipfwdr,
                &TrafficLevel::High.into(),
                &grid,
                CYCLES,
                42,
            );
            let run = run_grid(&Runner::new(), &grid, 1);
            let cells = run.plain().expect("one seed per cell");
            (power_surface(cells), throughput_surface(cells))
        });
    });
}

fn fig10_edvs(c: &mut Criterion) {
    c.bench_function("fig10_edvs_experiment", |b| {
        b.iter(|| {
            Experiment {
                benchmark: Benchmark::Ipfwdr,
                traffic: TrafficLevel::High.into(),
                policy: PolicySpec::Edvs(EdvsConfig::default()),
                cycles: CYCLES,
                seed: 42,
            }
            .run()
        });
    });
}

fn fig11_comparison(c: &mut Criterion) {
    c.bench_function("fig11_one_benchmark_row", |b| {
        b.iter(|| {
            let cfg = ComparisonConfig {
                cycles: CYCLES,
                ..ComparisonConfig::default()
            };
            let grid = Grid::compare(
                &[Benchmark::Ipfwdr],
                &[TrafficSpec::Level(TrafficLevel::High)],
                &cfg,
            );
            run_grid(&Runner::new(), &grid, 1)
        });
    });
}

criterion_group!(
    benches,
    fig02_traffic,
    fig06_07_tdvs_cell,
    fig08_09_surface,
    fig10_edvs,
    fig11_comparison
);
criterion_main!(benches);
