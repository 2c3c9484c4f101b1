//! Conformance suite over every registered traffic model.
//!
//! Every model reachable through [`TRAFFIC_MODELS`] must satisfy
//! the [`TrafficModel`] contracts:
//!
//! 1. same seed → byte-identical packet sequence,
//! 2. arrivals non-decreasing in time, ports within range,
//! 3. measured rate within tolerance of the self-described
//!    [`TrafficModel::expected_rate_mbps`],
//! 4. (generators only) different seeds → different sequences.
//!
//! The spec list below is asserted to cover the registry exactly, so a
//! newly registered model fails this suite until it is added here —
//! and then inherits every check for free.

use std::collections::BTreeSet;

use desim::SimTime;
use traffic::{TrafficSpec, TRAFFIC_MODELS};

/// Horizon the statistical checks run over (microseconds).
const HORIZON_US: f64 = 150_000.0;

/// One spec per registered model, by canonical name. `trace` needs a
/// real file, recorded from the MMPP generator into a temp path.
fn tested_specs() -> Vec<TrafficSpec> {
    let mut specs: Vec<TrafficSpec> = [
        "low",
        "medium",
        "high",
        "mmpp",
        "diurnal",
        "burst",
        "flash:at_ms=20,ramp_ms=5,hold_ms=40",
        "constant",
        // A composite schedule spanning the statistical horizon: 150 ms
        // = 9e7 base-clock cycles, so the boundary at 4.5e7 splits it in
        // half. The rate check below therefore covers the time-weighted
        // `expected_rate_mbps` composition, and the seed checks cover
        // the per-segment seed derivation (mmpp child is random).
        "schedule:segments=[mmpp:rate=500@0..4.5e7; constant:rate=1000@4.5e7..]",
        // The dist-driven renewal model, exercising every registered
        // distribution in a gap or size role. The self-described rate
        // is the honest truncated mean, so even the clamped heavy
        // tails (Pareto alpha=1.3, Weibull shape<1) must land inside
        // the suite's 15% tolerance over the 150 ms horizon.
        "stochastic",
        "stochastic:gap=exponential:mean=4,size=uniform:low=64,high=1500",
        "stochastic:gap=weibull:shape=0.8,scale=3,size=poisson:lambda=500",
        "stochastic:gap=constant:value=5,size=constant:value=576",
        "stochastic:gap=uniform:low=1,high=9,size=pareto:alpha=2.5,scale=100,max=1500",
        "stochastic:gap=lognormal:mu=1,sigma=0.5,size=exponential:mean=500,min=40,max=1500",
    ]
    .iter()
    .map(|s| s.parse().expect("builtin spec"))
    .collect();
    specs.push(trace_spec());
    // The same recording replayed at a scaled offered rate: the
    // self-described-rate check below covers the thinning/duplication
    // rule against `expected_rate_mbps`.
    specs.push(scaled_trace_spec(0.6));
    specs.push(scaled_trace_spec(1.3));
    specs
}

/// Records a short MMPP window to disk and returns the replay spec.
/// Written exactly once — the tests run on parallel threads, and a
/// reader must never observe another test's truncate-then-write.
fn trace_spec() -> TrafficSpec {
    static SPEC: std::sync::OnceLock<TrafficSpec> = std::sync::OnceLock::new();
    SPEC.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("traffic-conformance-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("recorded.txt");
        let source: TrafficSpec = "mmpp:rate=600".parse().unwrap();
        let trace = traffic::RecordedTrace::record(
            source.model().unwrap().stream(99),
            SimTime::from_us_f64(HORIZON_US),
        );
        std::fs::write(&path, trace.to_text()).expect("write trace");
        TrafficSpec::parse(&format!("trace:path={}", path.display())).unwrap()
    })
    .clone()
}

/// The recorded trace of [`trace_spec`] replayed at `scale` times its
/// recorded rate.
fn scaled_trace_spec(scale: f64) -> TrafficSpec {
    let TrafficSpec::Replay(config) = trace_spec() else {
        panic!("trace_spec is a replay spec");
    };
    TrafficSpec::Replay(traffic::ReplayConfig { scale, ..config })
}

/// Models with no randomness: the seed legitimately changes nothing.
fn is_deterministic(spec: &TrafficSpec) -> bool {
    matches!(spec.name(), "constant" | "trace")
}

#[test]
fn tested_specs_cover_the_whole_registry() {
    let tested: BTreeSet<&str> = tested_specs().iter().map(|s| s.name()).collect();
    let registered: BTreeSet<&str> = TRAFFIC_MODELS.entries().iter().map(|e| e.name).collect();
    assert_eq!(
        tested, registered,
        "conformance list out of sync with the registry"
    );
}

#[test]
fn same_seed_yields_identical_packet_sequences() {
    for spec in tested_specs() {
        let model = spec.model().unwrap();
        let horizon = SimTime::from_us_f64(HORIZON_US);
        let a = model.packets_until(7, horizon);
        let b = model.packets_until(7, horizon);
        assert_eq!(a, b, "{spec} is not reproducible");
        assert!(!a.is_empty(), "{spec} emitted nothing before the horizon");
        // A freshly built model from the same spec agrees too — the
        // model owns no hidden state.
        let rebuilt = spec.model().unwrap().packets_until(7, horizon);
        assert_eq!(a, rebuilt, "{spec} hides state outside the spec");
    }
}

#[test]
fn arrivals_are_monotone_and_ports_in_range() {
    for spec in tested_specs() {
        let model = spec.model().unwrap();
        let packets = model.packets_until(3, SimTime::from_us_f64(HORIZON_US));
        let mut last = SimTime::ZERO;
        for p in &packets {
            assert!(p.arrival >= last, "{spec}: arrivals went backwards");
            assert!(p.port < 16, "{spec}: port {} out of range", p.port);
            assert!(p.size_bytes > 0, "{spec}: empty packet");
            last = p.arrival;
        }
    }
}

#[test]
fn measured_rate_matches_the_self_description() {
    for spec in tested_specs() {
        let model = spec.model().unwrap();
        let bits: f64 = model
            .packets_until(11, SimTime::from_us_f64(HORIZON_US))
            .iter()
            .map(|p| p.size_bits() as f64)
            .sum();
        let measured = bits / HORIZON_US;
        let expected = model.expected_rate_mbps(HORIZON_US);
        assert!(expected > 0.0, "{spec} self-describes a non-positive rate");
        assert!(
            (measured - expected).abs() / expected < 0.15,
            "{spec}: measured {measured:.0} Mbps vs self-described {expected:.0} Mbps"
        );
    }
}

#[test]
fn long_run_mean_rate_is_positive_and_finite() {
    for spec in tested_specs() {
        let model = spec.model().unwrap();
        let mean = model.mean_rate_mbps();
        assert!(
            mean.is_finite() && mean > 0.0,
            "{spec}: long-run mean {mean}"
        );
    }
}

#[test]
fn different_seeds_differ_for_random_generators() {
    for spec in tested_specs() {
        let model = spec.model().unwrap();
        let horizon = SimTime::from_us_f64(HORIZON_US / 10.0);
        let a = model.packets_until(1, horizon);
        let b = model.packets_until(2, horizon);
        if is_deterministic(&spec) {
            assert_eq!(a, b, "{spec} should ignore the seed");
        } else {
            assert_ne!(a, b, "{spec} ignores its seed");
        }
    }
}
