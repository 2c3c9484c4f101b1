//! Paper Fig. 7: throughput distributions (fraction of LOC formula-(3)
//! instances above x) for TDVS on `ipfwdr`, per threshold and window size,
//! plus the noDVS baseline.

use abdex::nepsim::Benchmark;
use abdex::traffic::TrafficLevel;
use abdex::{errln, out, outln, run_grid, stdio, Experiment, Grid, PolicySpec, Runner, TdvsGrid};
use abdex_bench::{bar, cycles_from_args, FIG_SEED};

fn main() -> std::process::ExitCode {
    let cycles = cycles_from_args();
    let grid = TdvsGrid::default();
    errln!(
        "fig07: sweeping {} TDVS cells of ipfwdr/high at {cycles} cycles each...",
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

    let xs: Vec<f64> = (0..=10).map(|k| 400.0 + 100.0 * k as f64).collect();
    for &threshold in &grid.thresholds_mbps {
        outln!("\nThroughput -- threshold {threshold:.0} Mbps (fraction of instances >= x Mbps)");
        out!("{:>8}", "x(Mbps)");
        for &w in &grid.windows_cycles {
            out!(" {:>7}k", w / 1000);
        }
        outln!(" {:>8}", "noDVS");
        for &x in &xs {
            out!("{x:>8.0}");
            for &w in &grid.windows_cycles {
                let cell = cells
                    .iter()
                    .find(|c| c.experiment.tdvs_point() == Some((threshold, w)))
                    .expect("cell exists");
                out!(" {:>8.3}", cell.throughput.fraction_ge(x));
            }
            outln!(" {:>8.3}", baseline.throughput.fraction_ge(x));
        }
    }

    outln!(
        "\nsummary: p80 throughput (Mbps) per cell (noDVS {:.1}):",
        baseline.p80_throughput_mbps()
    );
    for c in cells {
        let t = c.p80_throughput_mbps();
        let (threshold, window) = c.experiment.tdvs_point().expect("a TDVS cell");
        outln!(
            "  thr {:>5.0} win {:>5}k : {:>7.1}  {} ({} switches)",
            threshold,
            window / 1000,
            t,
            bar((t - 400.0) / 1000.0, 30),
            c.sim.total_switches
        );
    }
    stdio::exit_status(stdio::flush_stdout())
}
