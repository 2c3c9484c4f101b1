//! Cross-crate property tests: invariants that must hold across the
//! traffic → simulator → analyzer stack, checked with proptest.

use abdex::formulas::power_distribution;
use abdex::loc::{Analyzer, Annotations, TraceRecord};
use abdex::nepsim::{Benchmark, NpuConfig, Simulator};
use abdex::traffic::{ArrivalConfig, PacketStream, SizeMix, TrafficLevel};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever the seed and traffic level, the simulator conserves
    /// packets and produces positive, bounded power.
    #[test]
    fn simulator_invariants(seed in 0u64..1000, level in 0usize..3) {
        let traffic = TrafficLevel::ALL[level];
        let config = NpuConfig::builder()
            .benchmark(Benchmark::Ipfwdr)
            .seed(seed)
            .traffic(traffic)
            .build();
        let mut sim = Simulator::new(config);
        let r = sim.run_cycles(200_000);
        prop_assert!(r.forwarded_packets + r.dropped_packets + r.dropped_tx_packets
            <= r.arrived_packets);
        let p = r.mean_power_w();
        prop_assert!(p > 0.1 && p < 5.0, "power {p}");
        prop_assert!(r.throughput_mbps() <= r.offered_mbps() + 1.0);
    }

    /// The packet stream is monotone in time and respects the port count
    /// for any configuration.
    #[test]
    fn packet_stream_invariants(
        seed in 0u64..500,
        rate in 50.0f64..2000.0,
        burstiness in 1.0f64..1.9,
        ports in 1u8..32,
    ) {
        let config = ArrivalConfig {
            mean_rate_mbps: rate,
            burstiness,
            dwell_mean_us: 100.0,
            ports,
            size_mix: SizeMix::imix(),
        };
        let stream = PacketStream::new(config, seed);
        let mut last = abdex::desim::SimTime::ZERO;
        for p in stream.take(300) {
            prop_assert!(p.arrival >= last);
            prop_assert!(p.port < ports);
            prop_assert!(p.size_bytes >= 40 && p.size_bytes <= 1500);
            last = p.arrival;
        }
    }

    /// Distribution analyzer: bins always partition the instances, and
    /// quantiles are monotone in p — for arbitrary synthetic traces.
    #[test]
    fn analyzer_partition_invariant(values in prop::collection::vec(-10.0f64..10.0, 1..300)) {
        let formula = abdex::loc::parse("time(ev[i]) dist== (-5, 5, 0.5)").unwrap();
        let mut analyzer = Analyzer::from_formula(&formula).unwrap();
        for &v in &values {
            let a = Annotations { time: v, ..Annotations::default() };
            analyzer.push(&TraceRecord::new("ev", a));
        }
        let report = analyzer.finish();
        let total: u64 = report.bins().iter().map(|b| b.count).sum();
        prop_assert_eq!(total, report.total_instances());
        let q25 = report.quantile(0.25).unwrap();
        let q75 = report.quantile(0.75).unwrap();
        prop_assert!(q25 <= q75);
        // Quantiles are actual observed values.
        prop_assert!(values.contains(&q25));
    }

    /// Formula (2) analyzers never see a negative power value from a real
    /// simulation trace (energy and time are both monotone).
    #[test]
    fn windowed_power_is_positive(seed in 0u64..50) {
        let config = NpuConfig::builder()
            .benchmark(Benchmark::Nat)
            .seed(seed)
            .traffic(TrafficLevel::High)
            .build();
        let mut sim = Simulator::new(config);
        let _ = sim.run_cycles(400_000);
        let report = Analyzer::from_formula(&power_distribution(10))
            .unwrap()
            .analyze(sim.trace());
        if report.total_instances() > 0 {
            if let Some(min_q) = report.quantile(0.0) {
                prop_assert!(min_q > 0.0, "negative windowed power {min_q}");
            }
        }
    }
}
