//! Platform-side conformance for every registered policy: the simulator
//! must charge the 10 µs switch penalty on every applied level change,
//! keep levels on the ladder, and fire monitor windows at the cadence the
//! policy's `window_cycles` metadata declares.

use desim::Frequency;
use dvs::{Params, PolicySpec, POLICIES, SWITCH_PENALTY};
use nepsim::{Benchmark, MeMode, MemRecorder, NpuConfig, SimReport, Simulator};
use traffic::TrafficLevel;

const CYCLES: u64 = 1_500_000;

fn registered_specs() -> Vec<PolicySpec> {
    POLICIES
        .entries()
        .iter()
        .map(|entry| (entry.build)(Params::default()).expect("defaults build"))
        .collect()
}

fn config(spec: &PolicySpec, traffic: TrafficLevel) -> NpuConfig {
    NpuConfig::builder()
        .benchmark(Benchmark::Ipfwdr)
        .traffic(traffic)
        .policy(spec.clone())
        .seed(23)
        .build()
}

fn run(spec: &PolicySpec, traffic: TrafficLevel) -> SimReport {
    Simulator::new(config(spec, traffic)).run_cycles(CYCLES)
}

#[test]
fn every_policy_keeps_levels_on_the_ladder() {
    for spec in registered_specs() {
        for traffic in TrafficLevel::ALL {
            let r = run(&spec, traffic);
            let ladder_len = NpuConfig::default().ladder.len();
            for me in &r.mes {
                assert!(
                    me.final_level < ladder_len,
                    "{spec} @ {traffic}: level {} off the ladder",
                    me.final_level
                );
                // Level-residency accounting covers exactly the ladder.
                assert_eq!(me.level_time.len(), ladder_len, "{spec}");
            }
        }
    }
}

#[test]
fn switch_penalties_are_charged_on_every_level_change() {
    let penalty_us = SWITCH_PENALTY.as_us();
    for spec in registered_specs() {
        let r = run(&spec, TrafficLevel::Low);
        for (m, me) in r.mes.iter().enumerate() {
            let stalled_us = me.acc.get(MeMode::Stalled).as_us();
            if me.switches == 0 {
                assert_eq!(stalled_us, 0.0, "{spec}: ME {m} stalled without switching");
                continue;
            }
            // Every switch stalls the ME for 10 µs. The stall may start a
            // few hundred cycles late (a compute segment in flight) and
            // the last one may be cut by the horizon, so require 80 % of
            // the nominal charge for all but the final switch.
            let lower_bound = (me.switches - 1) as f64 * penalty_us * 0.8;
            assert!(
                stalled_us >= lower_bound,
                "{spec}: ME {m} made {} switches but stalled only {stalled_us:.1} µs \
                 (expected ≥ {lower_bound:.1})",
                me.switches
            );
        }
    }
}

#[test]
fn window_cadence_matches_declared_window_cycles() {
    for spec in registered_specs() {
        let r = run(&spec, TrafficLevel::Medium);
        // noDVS declares no window; the platform falls back to its
        // statistics window (the builder default, 40 k cycles).
        let window_cycles = spec.window_cycles().unwrap_or(40_000);
        let expected = CYCLES / window_cycles;
        let got = r.windows;
        assert!(
            (got as i64 - expected as i64).abs() <= 1,
            "{spec}: {got} windows over {CYCLES} cycles, declared cadence {window_cycles}"
        );
        // And the idle samples cover every window × ME cell.
        assert_eq!(
            r.window_idle.len() as u64,
            got * r.mes.len() as u64,
            "{spec}: missing idle samples"
        );
    }
}

#[test]
fn non_default_windows_change_the_cadence_end_to_end() {
    let base = Frequency::from_mhz(600);
    for name in ["tdvs", "queue", "proportional"] {
        let spec = PolicySpec::parse(&format!("{name}:window=20000")).expect("valid");
        let r = run(&spec, TrafficLevel::Medium);
        assert!(
            (r.windows as i64 - (CYCLES / 20_000) as i64).abs() <= 1,
            "{name}: cadence did not follow the spec ({} windows)",
            r.windows
        );
        // Sanity: the declared window corresponds to real simulated time.
        assert_eq!(base.time_to_cycles(r.duration), CYCLES);
    }
}

/// `r.window_idle` is window-major, one sample per ME in ME order, each
/// with its ME's role: the layout the result cache stores by position.
fn assert_window_idle_is_positional(r: &SimReport, what: &str) {
    let n = r.mes.len();
    assert_eq!(
        r.window_idle.len() as u64,
        r.windows * n as u64,
        "{what}: one sample per ME per window"
    );
    for (i, s) in r.window_idle.iter().enumerate() {
        assert_eq!(
            (s.window, s.me, s.role),
            ((i / n) as u64, i % n, r.mes[i % n].role),
            "{what}: sample {i}"
        );
    }
}

#[test]
fn window_idle_is_window_major_with_one_sample_per_me() {
    for spec in registered_specs() {
        let config = config(&spec, TrafficLevel::High);
        let report = Simulator::new(config.clone()).run_cycles(400_000);
        assert!(report.windows > 0, "{spec}: no windows");
        assert_window_idle_is_positional(&report, &format!("{spec} run_cycles"));
        // Staged drains snapshot mid-window, too.
        let snapshots =
            Simulator::new(config.clone()).run_cycle_segments(&[90_000, 250_000, 400_000]);
        for (k, snapshot) in snapshots.iter().enumerate() {
            assert_window_idle_is_positional(snapshot, &format!("{spec} snapshot {k}"));
        }
        let recorded = Simulator::new(config)
            .with_recorder(Box::new(MemRecorder::new()))
            .run_cycles(400_000);
        assert_window_idle_is_positional(&recorded, &format!("{spec} recorded"));
    }
}
