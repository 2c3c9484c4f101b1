//! Ablation: the EDVS idle threshold. The paper picks 10 % from the idle
//! distribution (§4.2); this sweep shows what 5–40 % would have done.

use abdex::nepsim::Benchmark;
use abdex::traffic::TrafficLevel;
use abdex::{run_grid, Grid, Runner};
use abdex_bench::ablation::{edvs_idle_thresholds, render_ablation};
use abdex_bench::{cycles_from_args, FIG_SEED};

fn main() {
    let cycles = cycles_from_args();
    let thresholds = [0.05, 0.10, 0.20, 0.30, 0.40];
    eprintln!(
        "abl_edvs_threshold: {} EDVS thresholds on ipfwdr/high at {cycles} cycles each...",
        thresholds.len()
    );
    let grid = Grid::policies(
        Benchmark::Ipfwdr,
        &TrafficLevel::High.into(),
        &edvs_idle_thresholds(&thresholds, 40_000),
        cycles,
        FIG_SEED,
    );
    let run = run_grid(&Runner::new(), &grid, 1);
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    let cells = run.plain().expect("one seed per cell");
    println!("EDVS idle-threshold ablation (ipfwdr, high traffic):\n");
    println!("{}", render_ablation("idle_threshold", &thresholds, cells));
    println!(
        "paper's 10% choice sits where savings have saturated but the busy \
         windows still scale the MEs back up."
    );
}
