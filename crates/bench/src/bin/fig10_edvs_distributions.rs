//! Paper Fig. 10: power and throughput distributions under EDVS on
//! `ipfwdr`, for window sizes 20k–80k, against the noDVS baseline.

use abdex::dvs::EdvsConfig;
use abdex::nepsim::Benchmark;
use abdex::traffic::TrafficLevel;
use abdex::{errln, out, outln, stdio, Experiment, ExperimentResult, PolicySpec};
use abdex_bench::{cycles_from_args, FIG_SEED};

fn run(policy: PolicySpec, cycles: u64) -> ExperimentResult {
    Experiment {
        benchmark: Benchmark::Ipfwdr,
        traffic: TrafficLevel::High.into(),
        policy,
        cycles,
        seed: FIG_SEED,
    }
    .run()
}

fn main() -> std::process::ExitCode {
    let cycles = cycles_from_args();
    let windows = [20_000u64, 40_000, 60_000, 80_000];
    errln!(
        "fig10: running {} EDVS windows + baseline at {cycles} cycles each...",
        windows.len()
    );

    let baseline = run(PolicySpec::NoDvs, cycles);
    let runs: Vec<(u64, ExperimentResult)> = windows
        .iter()
        .map(|&w| {
            let cfg = EdvsConfig {
                idle_threshold: 0.10,
                window_cycles: w,
            };
            (w, run(PolicySpec::Edvs(cfg), cycles))
        })
        .collect();

    outln!("Power (fraction of formula-(2) instances <= x W)");
    out!("{:>8}", "x(W)");
    for (w, _) in &runs {
        out!(" {:>7}k", w / 1000);
    }
    outln!(" {:>8}", "noDVS");
    for k in 0..=10 {
        let x = 0.7 + 0.1 * f64::from(k);
        out!("{x:>8.2}");
        for (_, r) in &runs {
            out!(" {:>8.3}", r.power.fraction_le(x));
        }
        outln!(" {:>8.3}", baseline.power.fraction_le(x));
    }

    outln!("\nThroughput (fraction of formula-(3) instances >= x Mbps)");
    out!("{:>8}", "x(Mbps)");
    for (w, _) in &runs {
        out!(" {:>7}k", w / 1000);
    }
    outln!(" {:>8}", "noDVS");
    for k in 0..=8 {
        let x = 600.0 + 100.0 * f64::from(k);
        out!("{x:>8.0}");
        for (_, r) in &runs {
            out!(" {:>8.3}", r.throughput.fraction_ge(x));
        }
        outln!(" {:>8.3}", baseline.throughput.fraction_ge(x));
    }

    outln!("\nsummary (paper: ~23% power saving, no performance loss):");
    outln!(
        "  noDVS : {:>6.3} W  {:>7.1} Mbps",
        baseline.sim.mean_power_w(),
        baseline.sim.throughput_mbps()
    );
    for (w, r) in &runs {
        let saving = 1.0 - r.sim.mean_power_w() / baseline.sim.mean_power_w();
        outln!(
            "  {:>4}k : {:>6.3} W  {:>7.1} Mbps  (saves {:>4.1}%, {} switches)",
            w / 1000,
            r.sim.mean_power_w(),
            r.sim.throughput_mbps(),
            saving * 100.0,
            r.sim.total_switches
        );
    }
    stdio::exit_status(stdio::flush_stdout())
}
