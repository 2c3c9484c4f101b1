//! Paper Fig. 6: power distributions (fraction of LOC formula-(2)
//! instances below x) for TDVS on `ipfwdr`, for each top threshold and
//! window size, plus the noDVS baseline.

use std::io::Write;

use abdex::nepsim::Benchmark;
use abdex::traffic::TrafficLevel;
use abdex::{run_grid, Experiment, Grid, PolicySpec, Runner, TdvsGrid};
use abdex_bench::{bar, cycles_from_args, FIG_SEED};

fn main() {
    let cycles = cycles_from_args();
    let grid = TdvsGrid::default();
    let _ = writeln!(
        std::io::stderr(),
        "fig06: sweeping {} TDVS cells of ipfwdr/high at {cycles} cycles each...",
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
    let baseline = Experiment {
        benchmark: Benchmark::Ipfwdr,
        traffic: TrafficLevel::High.into(),
        policy: PolicySpec::NoDvs,
        cycles,
        seed: FIG_SEED,
    }
    .run();

    let xs: Vec<f64> = (0..=10).map(|k| 0.6 + 0.1 * k as f64).collect();
    for &threshold in &grid.thresholds_mbps {
        println!("\nPower -- threshold {threshold:.0} Mbps (fraction of instances <= x W)");
        print!("{:>8}", "x(W)");
        for &w in &grid.windows_cycles {
            print!(" {:>7}k", w / 1000);
        }
        println!(" {:>8}", "noDVS");
        for &x in &xs {
            print!("{x:>8.2}");
            for &w in &grid.windows_cycles {
                let cell = cells
                    .iter()
                    .find(|c| c.experiment.tdvs_point() == Some((threshold, w)))
                    .expect("cell exists");
                print!(" {:>8.3}", cell.power.fraction_le(x));
            }
            println!(" {:>8.3}", baseline.power.fraction_le(x));
        }
    }

    println!(
        "\nsummary: p80 power (W) per cell (noDVS {:.3}):",
        baseline.p80_power_w()
    );
    for c in cells {
        let p = c.p80_power_w();
        let (threshold, window) = c.experiment.tdvs_point().expect("a TDVS cell");
        println!(
            "  thr {:>5.0} win {:>5}k : {:>6.3}  {}",
            threshold,
            window / 1000,
            p,
            bar((p - 0.6) / 1.0, 30)
        );
    }
}
