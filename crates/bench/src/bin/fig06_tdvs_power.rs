//! Paper Fig. 6: power distributions (fraction of LOC formula-(2)
//! instances below x) for TDVS on `ipfwdr`, for each top threshold and
//! window size, plus the noDVS baseline.

use abdex::nepsim::Benchmark;
use abdex::traffic::TrafficLevel;
use abdex::{errln, out, outln, run_grid, stdio, Experiment, Grid, PolicySpec, Runner, TdvsGrid};
use abdex_bench::{bar, cycles_from_args, FIG_SEED};

fn main() -> std::process::ExitCode {
    let cycles = cycles_from_args();
    let grid = TdvsGrid::default();
    errln!(
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
        outln!("\nPower -- threshold {threshold:.0} Mbps (fraction of instances <= x W)");
        out!("{:>8}", "x(W)");
        for &w in &grid.windows_cycles {
            out!(" {:>7}k", w / 1000);
        }
        outln!(" {:>8}", "noDVS");
        for &x in &xs {
            out!("{x:>8.2}");
            for &w in &grid.windows_cycles {
                let cell = cells
                    .iter()
                    .find(|c| c.experiment.tdvs_point() == Some((threshold, w)))
                    .expect("cell exists");
                out!(" {:>8.3}", cell.power.fraction_le(x));
            }
            outln!(" {:>8.3}", baseline.power.fraction_le(x));
        }
    }

    outln!(
        "\nsummary: p80 power (W) per cell (noDVS {:.3}):",
        baseline.p80_power_w()
    );
    for c in cells {
        let p = c.p80_power_w();
        let (threshold, window) = c.experiment.tdvs_point().expect("a TDVS cell");
        outln!(
            "  thr {:>5.0} win {:>5}k : {:>6.3}  {}",
            threshold,
            window / 1000,
            p,
            bar((p - 0.6) / 1.0, 30)
        );
    }
    stdio::exit_status(stdio::flush_stdout())
}
