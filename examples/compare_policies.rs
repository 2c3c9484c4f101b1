//! TDVS vs. EDVS vs. noDVS across all four benchmarks and three traffic
//! levels — the paper's §4.3 / Fig. 11 study.
//!
//! Run with: `cargo run --release -p abdex --example compare_policies`

use abdex::compare::ComparisonConfig;
use abdex::dvs::PolicyKind;
use abdex::nepsim::Benchmark;
use abdex::tables::render_grid;
use abdex::traffic::{TrafficLevel, TrafficSpec};
use abdex::{run_grid, ConfidenceLevel, Grid, Runner};

fn main() {
    let config = ComparisonConfig {
        cycles: 1_500_000, // paper: 8_000_000 per cell
        ..ComparisonConfig::default()
    };
    println!(
        "running {} benchmark x traffic x policy cells ({} cycles each)...\n",
        Benchmark::ALL.len() * TrafficLevel::ALL.len() * 3,
        config.cycles
    );
    let grid = Grid::compare(&Benchmark::ALL, &TrafficSpec::paper_levels(), &config);
    let cmp = run_grid(&Runner::new(), &grid, 1);
    assert!(cmp.failures.is_empty(), "{:?}", cmp.failures);
    println!("{}", render_grid(&cmp, ConfidenceLevel::default()));

    println!("-- paper §4.3 takeaways, measured -------------------------");
    for benchmark in Benchmark::ALL {
        for traffic in TrafficLevel::ALL {
            let tdvs = cmp
                .power_saving(benchmark, &traffic.into(), PolicyKind::Tdvs)
                .unwrap_or(0.0);
            let edvs = cmp
                .power_saving(benchmark, &traffic.into(), PolicyKind::Edvs)
                .unwrap_or(0.0);
            println!(
                "{benchmark:>7} @ {traffic:>6}: TDVS saves {:5.1}%  EDVS saves {:5.1}%",
                tdvs * 100.0,
                edvs * 100.0
            );
        }
    }
    println!(
        "\nrule of thumb (paper conclusion): power-dominated designs pick TDVS; \
         performance/loss-sensitive designs pick EDVS."
    );
}
