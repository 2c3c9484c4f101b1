//! Writing your own DVS policy against the `dvs::DvsPolicy` trait — the
//! README walkthrough, runnable.
//!
//! The policy below ("DrowsyDvs") is deliberately not in the registry: it
//! shows the escape hatch for experiments that live outside the `dvs`
//! crate. It combines two observation signals the built-ins use
//! separately — an ME may only scale down when it is idle *and* the
//! receive FIFO is draining — and is injected into the simulator with
//! `Simulator::with_policy`.
//!
//! Run with: `cargo run --release -p abdex --example custom_policy`

use abdex::dvs::{
    DvsPolicy, PolicyKind, PolicyObservation, PolicyResponse, PolicySpec, ScalingDecision,
};
use abdex::nepsim::{Benchmark, NpuConfig, Simulator};
use abdex::traffic::TrafficLevel;

/// Scale an ME down only when it is idle AND the rx FIFO is below the
/// watermark; scale everything up the moment the FIFO crosses it.
#[derive(Debug)]
struct DrowsyDvs {
    idle_threshold: f64,
    fifo_watermark: f64,
    window_cycles: u64,
}

impl DvsPolicy for DrowsyDvs {
    fn kind(&self) -> PolicyKind {
        // Policies outside the registry report as `custom`.
        PolicyKind::Custom
    }

    fn window_cycles(&self) -> Option<u64> {
        Some(self.window_cycles)
    }

    fn on_window(&mut self, obs: &PolicyObservation<'_>) -> PolicyResponse {
        let fifo_pressured = obs.rx_fifo.fill_fraction() > self.fifo_watermark;
        let decisions = obs
            .mes
            .iter()
            .map(|me| {
                if fifo_pressured {
                    ScalingDecision::Up
                } else if me.idle_fraction > self.idle_threshold {
                    ScalingDecision::Down
                } else {
                    ScalingDecision::Hold
                }
            })
            .collect();
        PolicyResponse::per_me(decisions)
    }
}

fn main() {
    let cycles = 2_000_000;
    let config = || {
        NpuConfig::builder()
            .benchmark(Benchmark::Ipfwdr)
            .traffic(TrafficLevel::High)
            .seed(42)
            .build()
    };

    // Baseline: the registered noDVS spec, by name.
    let nodvs: PolicySpec = "nodvs".parse().expect("registered policy");
    let base = Simulator::new(
        NpuConfig::builder()
            .benchmark(Benchmark::Ipfwdr)
            .traffic(TrafficLevel::High)
            .policy(nodvs)
            .seed(42)
            .build(),
    )
    .run_cycles(cycles);

    // The custom policy, injected as a trait object.
    let drowsy = Simulator::new(config())
        .with_policy(Box::new(DrowsyDvs {
            idle_threshold: 0.10,
            fifo_watermark: 0.50,
            window_cycles: 40_000,
        }))
        .run_cycles(cycles);

    println!("custom-policy walkthrough: ipfwdr @ high traffic, {cycles} cycles\n");
    for (label, r) in [("noDVS", &base), ("DrowsyDvs (custom)", &drowsy)] {
        println!(
            "{label:>20}: {:6.3} W, {:7.1} Mbps, {:3} switches (policy kind: {})",
            r.mean_power_w(),
            r.throughput_mbps(),
            r.total_switches,
            r.policy,
        );
    }
    println!(
        "\nsaving vs noDVS: {:.1}% (throughput kept within {:.1}%)",
        (1.0 - drowsy.mean_power_w() / base.mean_power_w()) * 100.0,
        (1.0 - drowsy.throughput_mbps() / base.throughput_mbps()).abs() * 100.0,
    );

    // The registry route: every *registered* policy is reachable from
    // a spec string without code.
    let registered = PolicySpec::parse("queue:high=0.8,low=0.1").expect("valid spec");
    println!(
        "\nthe registry route, for comparison: `{registered}` builds the same way\n\
         (promote a custom policy into `dvs` + one registry entry to get this)."
    );
}
