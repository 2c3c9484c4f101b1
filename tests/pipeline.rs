//! End-to-end pipeline tests: simulator → trace → LOC analyzers, spanning
//! every crate in the workspace.

use abdex::dvs::{EdvsConfig, TdvsConfig};
use abdex::formulas::{power_distribution, throughput_distribution, PACKET_WINDOW};
use abdex::loc::{parse, Analyzer, AnalyzerBank, Checker, DistRel, DistributionReport, Trace};
use abdex::nepsim::{Benchmark, NpuConfig, Simulator, TraceConfig};
use abdex::traffic::TrafficLevel;
use abdex::{Experiment, PolicySpec};

const QUICK_CYCLES: u64 = 1_000_000;

fn quick_sim(benchmark: Benchmark, policy: PolicySpec, seed: u64) -> (Trace, f64) {
    let config = NpuConfig::builder()
        .benchmark(benchmark)
        .traffic(TrafficLevel::High)
        .policy(policy)
        .seed(seed)
        .build();
    let mut sim = Simulator::new(config);
    let report = sim.run_cycles(QUICK_CYCLES);
    let power = report.mean_power_w();
    (sim.into_trace(), power)
}

#[test]
fn trace_feeds_paper_formula_2() {
    let (trace, mean_power) = quick_sim(Benchmark::Ipfwdr, PolicySpec::NoDvs, 1);
    let report = Analyzer::from_formula(&power_distribution(PACKET_WINDOW))
        .unwrap()
        .analyze(&trace);
    assert!(report.total_instances() > 50);
    // The windowed power values should bracket the run's mean power.
    let mean_windowed = report.mean().expect("has instances");
    assert!(
        (mean_windowed - mean_power).abs() / mean_power < 0.25,
        "windowed mean {mean_windowed:.3} vs run mean {mean_power:.3}"
    );
}

#[test]
fn trace_feeds_paper_formula_3() {
    let (trace, _) = quick_sim(Benchmark::Ipfwdr, PolicySpec::NoDvs, 1);
    let report = Analyzer::from_formula(&throughput_distribution(PACKET_WINDOW))
        .unwrap()
        .analyze(&trace);
    assert!(report.total_instances() > 50);
    let mean = report.mean().expect("has instances");
    assert!(
        (300.0..2000.0).contains(&mean),
        "windowed throughput mean {mean:.1} Mbps"
    );
}

#[test]
fn checker_validates_energy_monotonicity() {
    let (trace, _) = quick_sim(Benchmark::Url, PolicySpec::NoDvs, 2);
    // Energy is cumulative: each forward event carries at least as much as
    // the previous one.
    let f = parse("energy(forward[i+1]) - energy(forward[i]) >= 0").unwrap();
    let report = Checker::from_formula(&f).unwrap().check(&trace);
    assert!(report.instances > 50);
    assert!(report.passed(), "{} violations", report.violation_count);
}

#[test]
fn checker_catches_real_violations() {
    let (trace, _) = quick_sim(Benchmark::Ipfwdr, PolicySpec::NoDvs, 3);
    // An absurd bound: 100 packets forwarded in under 1us — must fail.
    let f = parse("time(forward[i+100]) - time(forward[i]) <= 1").unwrap();
    let report = Checker::from_formula(&f).unwrap().check(&trace);
    assert!(!report.passed());
    assert_eq!(report.violation_count, report.instances);
}

#[test]
fn text_round_trip_preserves_analysis() {
    let (trace, _) = quick_sim(Benchmark::Nat, PolicySpec::NoDvs, 4);
    let text = trace.to_text();
    let parsed = Trace::from_text(&text).unwrap();
    let direct = Analyzer::from_formula(&power_distribution(PACKET_WINDOW))
        .unwrap()
        .analyze(&trace);
    let roundtrip = Analyzer::from_formula(&power_distribution(PACKET_WINDOW))
        .unwrap()
        .analyze(&parsed);
    assert_eq!(direct.total_instances(), roundtrip.total_instances());
    // Text format rounds to 6 decimals; quantiles agree to that precision.
    let (a, b) = (
        direct.quantile(0.5).unwrap(),
        roundtrip.quantile(0.5).unwrap(),
    );
    assert!((a - b).abs() < 1e-3, "direct {a} vs round-trip {b}");
}

#[test]
fn fifo_events_track_arrivals() {
    let config = NpuConfig::builder()
        .benchmark(Benchmark::Ipfwdr)
        .traffic(TrafficLevel::Medium)
        .seed(5)
        .trace(TraceConfig {
            emit_fifo: true,
            emit_pipeline: false,
        })
        .build();
    let mut sim = Simulator::new(config);
    let report = sim.run_cycles(QUICK_CYCLES);
    let trace = sim.into_trace();
    let fifo_events = trace.count_of("fifo") as u64;
    // Every queued (non-dropped) packet produces exactly one fifo event.
    assert_eq!(fifo_events, report.arrived_packets - report.dropped_packets);
}

#[test]
fn policies_preserve_packet_accounting() {
    for policy in [
        PolicySpec::NoDvs,
        PolicySpec::Tdvs(TdvsConfig::default()),
        PolicySpec::Edvs(EdvsConfig::default()),
    ] {
        let result = Experiment {
            benchmark: Benchmark::Ipfwdr,
            traffic: TrafficLevel::High.into(),
            policy: policy.clone(),
            cycles: QUICK_CYCLES,
            seed: 6,
        }
        .run();
        let r = &result.sim;
        assert!(
            r.forwarded_packets + r.dropped_packets + r.dropped_tx_packets <= r.arrived_packets,
            "{policy:?}: more packets out than in"
        );
        assert!(r.total_energy_uj() > 0.0);
        // Distribution totals match the number of evaluable windows.
        let fwd_events = r.forwarded_packets;
        let expected = fwd_events.saturating_sub(PACKET_WINDOW as u64);
        assert_eq!(result.power.total_instances(), expected, "{policy:?}");
    }
}

#[test]
fn seeds_change_results_but_not_determinism() {
    let run = |seed| {
        let (trace, power) = quick_sim(Benchmark::Ipfwdr, PolicySpec::NoDvs, seed);
        (trace.len(), power)
    };
    let a1 = run(10);
    let a2 = run(10);
    let b = run(11);
    assert_eq!(a1, a2, "same seed must reproduce");
    assert_ne!(a1, b, "different seeds should differ");
}

/// A distribution's state with every `f64` as its bit pattern, so
/// `-0.0`/`+0.0` and NaN payloads compare exactly.
fn dist_bits(d: &DistributionReport) -> (DistRel, Vec<u64>, Vec<u64>, u64, u64) {
    let p = d.to_parts();
    let floats = [p.min, p.max, p.step].into_iter().chain(p.sorted_values);
    (
        p.rel,
        floats.map(f64::to_bits).collect(),
        p.counts,
        p.nan_count,
        p.total,
    )
}

#[test]
fn streamed_analysis_equals_buffered_bit_for_bit() {
    // A bank attached with `with_analyzers` sees the record sequence a
    // buffered trace holds, so its results equal a replay of the twin
    // run's trace; attaching it is pure observation, and it leaves the
    // buffer empty.
    let bank = || {
        let mut bank = AnalyzerBank::new();
        bank.add_analyzer(&power_distribution(PACKET_WINDOW))
            .unwrap();
        bank.add_analyzer(&throughput_distribution(PACKET_WINDOW))
            .unwrap();
        // Violated often, so violation indices are compared too.
        bank.add_checker(&parse("time(forward[i+1]) - time(forward[i]) <= 1").unwrap())
            .unwrap();
        // Reads the optional events, which only the last run emits.
        bank.add_checker(&parse("cycle(m1_pipeline[i]) - cycle(fifo[i]) <= 20000").unwrap())
            .unwrap();
        bank
    };
    let config = |benchmark: Benchmark, policy: &str| {
        NpuConfig::builder()
            .benchmark(benchmark)
            .traffic(TrafficLevel::High)
            .policy(policy.parse().unwrap())
            .seed(3)
            .build()
    };
    let mut configs: Vec<NpuConfig> = Benchmark::ALL
        .into_iter()
        .flat_map(|b| ["nodvs", "tdvs", "edvs"].map(|policy| config(b, policy)))
        .collect();
    let mut loud = config(Benchmark::Ipfwdr, "tdvs");
    loud.trace = TraceConfig {
        emit_fifo: true,
        emit_pipeline: true,
    };
    configs.push(loud);

    for config in configs {
        let label = format!("{:?} {}", config.benchmark, config.policy.spec_string());
        let optional_events = config.trace.emit_fifo && config.trace.emit_pipeline;
        let mut buffered = Simulator::new(config.clone());
        let buffered_report = buffered.run_cycles(QUICK_CYCLES);
        let expected = bank().analyze(buffered.trace());

        let mut streamed = Simulator::new(config).with_analyzers(bank());
        let streamed_report = streamed.run_cycles(QUICK_CYCLES);
        assert!(
            streamed.trace().is_empty(),
            "{label}: a streamed run buffered"
        );
        let got = streamed.take_analysis();

        assert_eq!(
            streamed_report, buffered_report,
            "{label}: the bank perturbed the run"
        );
        assert_eq!(got.distributions.len(), 2);
        for (g, e) in got.distributions.iter().zip(&expected.distributions) {
            assert!(e.total_instances() > 0, "{label}: nothing analyzed");
            assert_eq!(dist_bits(g), dist_bits(e), "{label}");
        }
        assert_eq!(got.check_reports, expected.check_reports, "{label}");
        assert!(got.check_reports[0].violation_count > 0, "{label}");
        assert_eq!(
            got.check_reports[1].instances > 0,
            optional_events,
            "{label}"
        );
    }
}
