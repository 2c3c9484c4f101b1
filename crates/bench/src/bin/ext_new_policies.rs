//! Extension: the two policies the paper could not try, exercised through
//! the `DvsPolicy` trait API — queue-aware scaling (QDVS) on the receive
//! FIFO and a per-ME proportional–integral controller (PDVS) — compared
//! against the paper's three policies on every traffic level.

use abdex::nepsim::Benchmark;
use abdex::traffic::TrafficLevel;
use abdex::{outln, stdio, Experiment, PolicySpec};
use abdex_bench::{cycles_from_args, FIG_SEED};

fn main() -> std::process::ExitCode {
    let cycles = cycles_from_args();
    let specs: Vec<PolicySpec> = [
        "nodvs",
        "tdvs:threshold=1400",
        "edvs",
        "queue:high=0.75,low=0.2",
        "proportional:kp=4,ki=0.5",
    ]
    .iter()
    .map(|s| s.parse().expect("valid builtin spec"))
    .collect();

    outln!("new-policy extension (QDVS, PDVS), ipfwdr, {cycles} cycles per cell:\n");
    outln!(
        "{:>7} {:>6} {:>12} {:>14} {:>9} {:>11}",
        "traffic",
        "policy",
        "mean_power_w",
        "tput_mbps",
        "switches",
        "loss_ratio"
    );
    for traffic in TrafficLevel::ALL {
        let mut baseline = None;
        for spec in &specs {
            let r = Experiment {
                benchmark: Benchmark::Ipfwdr,
                traffic: traffic.into(),
                policy: spec.clone(),
                cycles,
                seed: FIG_SEED,
            }
            .run();
            let power = r.sim.mean_power_w();
            let baseline = *baseline.get_or_insert(power);
            outln!(
                "{:>7} {:>6} {:>7.3} (-{:>2.0}%) {:>14.1} {:>9} {:>11.4}",
                traffic.to_string(),
                spec.kind().to_string(),
                power,
                (1.0 - power / baseline) * 100.0,
                r.sim.throughput_mbps(),
                r.sim.total_switches,
                r.sim.loss_ratio(),
            );
        }
        outln!();
    }
    outln!(
        "QDVS reads one FIFO-occupancy register per window (no per-packet\n\
         monitor energy); PDVS integrates the idle error instead of\n\
         thresholding it, trading EDVS's oscillation for settling time."
    );
    stdio::exit_status(stdio::flush_stdout())
}
