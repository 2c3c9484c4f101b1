//! Paper Fig. 8: the 3-D surface of the power value below which 80 % of
//! formula-(2) instances fall, over the threshold × window grid.

use abdex::nepsim::Benchmark;
use abdex::sweep::power_surface;
use abdex::tables::render_surface;
use abdex::traffic::TrafficLevel;
use abdex::{errln, outln, run_grid, stdio, Grid, Runner, TdvsGrid};
use abdex_bench::{cycles_from_args, FIG_SEED};

fn main() -> std::process::ExitCode {
    let cycles = cycles_from_args();
    let grid = TdvsGrid::default();
    errln!(
        "fig08: sweeping {} cells at {cycles} cycles each...",
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
    outln!(
        "Fig. 8 — {}",
        render_surface(&power_surface(cells), "80th-percentile power (W)")
    );
    stdio::exit_status(stdio::flush_stdout())
}
