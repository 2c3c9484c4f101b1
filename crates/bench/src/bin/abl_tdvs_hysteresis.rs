//! Ablation: a hysteresis dead band on the TDVS rule. §4.1 attributes the
//! 20k-window throughput cliff to VF oscillation burning 6000-cycle
//! penalties; this quantifies how much a dead band recovers.

use abdex::dvs::TdvsConfig;
use abdex::nepsim::Benchmark;
use abdex::traffic::TrafficLevel;
use abdex::{errln, outln, run_grid, stdio, Grid, Runner};
use abdex_bench::ablation::{render_ablation, tdvs_hysteresis_bands};
use abdex_bench::{cycles_from_args, FIG_SEED};

fn main() -> std::process::ExitCode {
    let cycles = cycles_from_args();
    let bands = [0.0, 0.05, 0.10, 0.15, 0.25];
    let base = TdvsConfig {
        top_threshold_mbps: 1000.0,
        window_cycles: 20_000, // the paper's worst case
    };
    errln!(
        "abl_tdvs_hysteresis: {} bands on ipfwdr/high, 20k windows, {cycles} cycles each...",
        bands.len()
    );
    let grid = Grid::policies(
        Benchmark::Ipfwdr,
        &TrafficLevel::High.into(),
        &tdvs_hysteresis_bands(base, &bands),
        cycles,
        FIG_SEED,
    );
    let run = run_grid(&Runner::new(), &grid, 1);
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    let cells = run.plain().expect("one seed per cell");
    outln!("TDVS hysteresis ablation (ipfwdr, high traffic, 20k windows):\n");
    outln!("{}", render_ablation("hysteresis", &bands, cells));
    outln!(
        "band 0.0 is the paper's rule; larger bands trade responsiveness \
         for fewer 10us switch penalties."
    );
    stdio::exit_status(stdio::flush_stdout())
}
