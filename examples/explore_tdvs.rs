//! TDVS design-space exploration (paper §4.1, Figures 6–9): sweep the
//! threshold × window grid, print the 80th-percentile power/throughput
//! surfaces, and report the optimal configuration under both priorities.
//!
//! Run with: `cargo run --release -p abdex --example explore_tdvs`

use abdex::nepsim::Benchmark;
use abdex::sweep::{power_surface, throughput_surface};
use abdex::tables::{render_grid, render_surface};
use abdex::traffic::TrafficLevel;
use abdex::{optimal_tdvs, run_grid, ConfidenceLevel, DesignPriority, Grid, Runner, TdvsGrid};

fn main() {
    let points = TdvsGrid::default(); // 800..1400 Mbps x 20k..80k cycles
    let cycles = 2_000_000; // paper: 8_000_000
    println!(
        "sweeping {} TDVS configurations of ipfwdr at high traffic ({} cycles each)...\n",
        points.len(),
        cycles
    );
    let grid = Grid::tdvs(
        Benchmark::Ipfwdr,
        &TrafficLevel::High.into(),
        &points,
        cycles,
        42,
    );
    let run = run_grid(&Runner::new(), &grid, 1);
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    let cells = run.plain().expect("one seed per cell");

    println!("{}", render_grid(&run, ConfidenceLevel::default()));
    println!(
        "{}",
        render_surface(&power_surface(cells), "fig8: p80 power (W)")
    );
    println!(
        "{}",
        render_surface(&throughput_surface(cells), "fig9: p80 throughput (Mbps)")
    );

    for (priority, label) in [
        (DesignPriority::Performance, "performance priority"),
        (DesignPriority::Power, "power priority"),
    ] {
        let best = optimal_tdvs(cells, priority).expect("sweep is non-empty");
        let (threshold, window) = best.experiment.tdvs_point().expect("a TDVS cell");
        println!(
            "optimal under {label}: threshold {threshold} Mbps, window {window} cycles \
             (p80 power {:.3} W, p80 throughput {:.1} Mbps)",
            best.p80_power_w(),
            best.p80_throughput_mbps(),
        );
    }
}
