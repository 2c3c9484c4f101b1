//! Paper Fig. 11: power-distribution comparison of noDVS / EDVS / TDVS
//! across all four benchmarks and the three traffic levels (12 subplots).

use abdex::compare::ComparisonConfig;
use abdex::dvs::PolicyKind;
use abdex::nepsim::Benchmark;
use abdex::tables::render_grid;
use abdex::traffic::{TrafficLevel, TrafficSpec};
use abdex::{run_grid, ConfidenceLevel, Grid, Runner};
use abdex_bench::{cycles_from_args, FIG_SEED};

fn main() {
    let cycles = cycles_from_args();
    let cfg = ComparisonConfig {
        cycles,
        seed: FIG_SEED,
        ..ComparisonConfig::default()
    };
    eprintln!(
        "fig11: running {} cells at {cycles} cycles each...",
        Benchmark::ALL.len() * TrafficLevel::ALL.len() * 3
    );
    let grid = Grid::compare(&Benchmark::ALL, &TrafficSpec::paper_levels(), &cfg);
    let cmp = run_grid(&Runner::new(), &grid, 1);
    assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
    let cells = cmp.plain().expect("one seed per cell");

    // The 12 subplots: per benchmark x traffic, a power CDF over the
    // paper's 0.4..1.8 W axis.
    for benchmark in Benchmark::ALL {
        for traffic in TrafficLevel::ALL {
            println!("\n{benchmark} -- power(W) -- {traffic} traffic (fraction of instances <= x)");
            print!("{:>8}", "x(W)");
            for kind in [PolicyKind::NoDvs, PolicyKind::Edvs, PolicyKind::Tdvs] {
                print!(" {:>8}", kind.to_string());
            }
            println!();
            for k in 0..=7 {
                let x = 0.4 + 0.2 * f64::from(k);
                print!("{x:>8.1}");
                for kind in [PolicyKind::NoDvs, PolicyKind::Edvs, PolicyKind::Tdvs] {
                    let row = cmp
                        .position(benchmark, &traffic.into(), kind)
                        .expect("row exists");
                    print!(" {:>8.3}", cells[row].power.fraction_le(x));
                }
                println!();
            }
        }
    }

    println!("\n{}", render_grid(&cmp, ConfidenceLevel::default()));
}
