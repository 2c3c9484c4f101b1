//! Run the paper's TDVS grid on the `xrun` thread pool with live
//! progress, then print the sweep table and both design optima.
//!
//! ```text
//! cargo run --release -p abdex --example parallel_sweep
//! ```
//!
//! Results are bit-identical to a serial run (`Runner::serial()` — try
//! it); only the wall-clock changes.

use abdex::nepsim::Benchmark;
use abdex::tables::render_grid;
use abdex::traffic::TrafficLevel;
use abdex::{
    optimal_tdvs, run_grid, ConfidenceLevel, DesignPriority, Grid, ProgressMode, Runner, TdvsGrid,
};

fn main() {
    // Short cells so the example finishes quickly; pass-through to the
    // paper's 8e6-cycle grid is just a bigger number here.
    let cycles = 400_000;
    let runner = Runner::new().with_progress_mode(ProgressMode::Line);
    println!(
        "sweeping {} TDVS cells on {} worker(s)...",
        TdvsGrid::default().len(),
        runner.workers()
    );

    let grid = Grid::tdvs(
        Benchmark::Ipfwdr,
        &TrafficLevel::High.into(),
        &TdvsGrid::default(),
        cycles,
        42,
    );
    let run = run_grid(&runner, &grid, 1);
    for e in &run.failures {
        eprintln!("cell failed: {e}");
    }

    println!("\n{}", render_grid(&run, ConfidenceLevel::default()));
    let cells = run.plain().expect("one seed per cell");
    for (priority, label) in [
        (DesignPriority::Performance, "performance"),
        (DesignPriority::Power, "power"),
    ] {
        if let Some((threshold, window)) =
            optimal_tdvs(cells, priority).and_then(|best| best.experiment.tdvs_point())
        {
            println!("optimal ({label}): threshold {threshold} Mbps, window {window} cycles");
        }
    }
}
