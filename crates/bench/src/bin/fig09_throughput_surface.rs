//! Paper Fig. 9: the 3-D surface of the throughput above which 80 % of
//! formula-(3) instances fall, over the threshold × window grid.

use abdex::nepsim::Benchmark;
use abdex::sweep::throughput_surface;
use abdex::tables::render_surface;
use abdex::traffic::TrafficLevel;
use abdex::{optimal_tdvs, run_grid, DesignPriority, Grid, Runner, TdvsGrid};
use abdex_bench::{cycles_from_args, FIG_SEED};

fn main() {
    let cycles = cycles_from_args();
    let grid = TdvsGrid::default();
    eprintln!(
        "fig09: sweeping {} cells at {cycles} cycles each...",
        grid.len()
    );
    let run = run_grid(
        &Runner::new(),
        &Grid::tdvs(
            Benchmark::Ipfwdr,
            &TrafficLevel::High.into(),
            &grid,
            cycles,
            FIG_SEED,
        ),
        1,
    );
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    let cells = run.plain().expect("one seed per cell");
    println!(
        "Fig. 9 — {}",
        render_surface(
            &throughput_surface(cells),
            "80th-percentile throughput (Mbps)"
        )
    );

    for (priority, label) in [
        (DesignPriority::Performance, "performance"),
        (DesignPriority::Power, "power"),
    ] {
        let best = optimal_tdvs(cells, priority).expect("non-empty sweep");
        let (threshold, window) = best.experiment.tdvs_point().expect("a TDVS cell");
        println!(
            "optimal ({label} priority): threshold {threshold:.0} Mbps, window {}k cycles",
            window / 1000
        );
    }
}
