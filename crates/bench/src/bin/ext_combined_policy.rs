//! Extension: the combined traffic+idle policy (TEDVS) the paper declines
//! to build on monitor-cost grounds (§4). Measures whether the conservative
//! composition buys anything over TDVS and EDVS alone.

use abdex::dvs::{CombinedConfig, EdvsConfig, TdvsConfig};
use abdex::nepsim::Benchmark;
use abdex::traffic::TrafficLevel;
use abdex::{outln, stdio, Experiment, PolicySpec};
use abdex_bench::{cycles_from_args, FIG_SEED};

fn main() -> std::process::ExitCode {
    let cycles = cycles_from_args();
    let window = 40_000;
    let tdvs = TdvsConfig {
        top_threshold_mbps: 1400.0,
        window_cycles: window,
    };
    let edvs = EdvsConfig {
        idle_threshold: 0.10,
        window_cycles: window,
    };
    let policies: Vec<(&str, PolicySpec)> = vec![
        ("noDVS", PolicySpec::NoDvs),
        ("TDVS", PolicySpec::Tdvs(tdvs)),
        ("EDVS", PolicySpec::Edvs(edvs)),
        ("TEDVS", PolicySpec::Combined(CombinedConfig { tdvs, edvs })),
    ];

    outln!("combined-policy extension (TEDVS), ipfwdr, {cycles} cycles per cell:\n");
    outln!(
        "{:>7} {:>8} {:>12} {:>14} {:>9} {:>10}",
        "traffic",
        "policy",
        "mean_power_w",
        "tput_mbps",
        "switches",
        "monitor_uj"
    );
    for traffic in TrafficLevel::ALL {
        for (name, policy) in &policies {
            let r = Experiment {
                benchmark: Benchmark::Ipfwdr,
                traffic: traffic.into(),
                policy: policy.clone(),
                cycles,
                seed: FIG_SEED,
            }
            .run();
            outln!(
                "{:>7} {:>8} {:>12.3} {:>14.1} {:>9} {:>10.4}",
                traffic.to_string(),
                name,
                r.sim.mean_power_w(),
                r.sim.throughput_mbps(),
                r.sim.total_switches,
                r.sim.monitor_energy_uj,
            );
        }
        outln!();
    }
    outln!(
        "TEDVS scales a ME down only when traffic is light AND the ME is idle,\n\
         and pays the TDVS monitor-adder energy on every arriving packet."
    );
    stdio::exit_status(stdio::flush_stdout())
}
