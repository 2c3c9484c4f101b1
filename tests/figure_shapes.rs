//! Qualitative reproduction tests: one test per paper claim about the
//! *shape* of each figure. These use shortened runs (the paper uses 8M
//! cycles; we use 1.5–2M) — enough for the orderings to be stable.

use abdex::compare::ComparisonConfig;
use abdex::dvs::{EdvsConfig, PolicyKind, TdvsConfig};
use abdex::nepsim::Benchmark;
use abdex::sweep::{power_surface, throughput_surface};
use abdex::traffic::TrafficLevel;
use abdex::{
    optimal_tdvs, run_grid, DesignPriority, Experiment, Grid, GridRun, PolicySpec, Runner, TdvsGrid,
};

const CYCLES: u64 = 4_000_000;

/// Runs a single-seed grid that must complete.
fn complete(grid: Grid) -> GridRun {
    let run = run_grid(&Runner::new(), &grid, 1);
    assert!(run.failures.is_empty(), "{:?}", run.failures);
    run
}

fn run(benchmark: Benchmark, traffic: TrafficLevel, policy: PolicySpec) -> abdex::ExperimentResult {
    Experiment {
        benchmark,
        traffic: traffic.into(),
        policy,
        cycles: CYCLES,
        seed: 42,
    }
    .run()
}

fn tdvs(threshold: f64, window: u64) -> PolicySpec {
    PolicySpec::Tdvs(TdvsConfig {
        top_threshold_mbps: threshold,
        window_cycles: window,
    })
}

/// Fig. 6: "the power saving by TDVS is obvious no matter what threshold
/// or window size is chosen".
#[test]
fn fig6_tdvs_always_saves_power() {
    let base = run(Benchmark::Ipfwdr, TrafficLevel::High, PolicySpec::NoDvs);
    for threshold in [800.0, 1400.0] {
        for window in [20_000, 80_000] {
            let t = run(
                Benchmark::Ipfwdr,
                TrafficLevel::High,
                tdvs(threshold, window),
            );
            assert!(
                t.p80_power_w() < base.p80_power_w(),
                "threshold {threshold} window {window}: {:.3} !< {:.3}",
                t.p80_power_w(),
                base.p80_power_w()
            );
        }
    }
}

/// Fig. 6/7: "TDVS configurations with smaller window sizes have lower
/// power consumption but worse throughput".
#[test]
fn fig67_small_windows_trade_throughput_for_power() {
    let small = run(Benchmark::Ipfwdr, TrafficLevel::High, tdvs(1000.0, 20_000));
    let large = run(Benchmark::Ipfwdr, TrafficLevel::High, tdvs(1000.0, 80_000));
    assert!(
        small.p80_power_w() <= large.p80_power_w() + 0.02,
        "small-window power {:.3} vs large {:.3}",
        small.p80_power_w(),
        large.p80_power_w()
    );
    assert!(
        small.sim.throughput_mbps() < large.sim.throughput_mbps(),
        "small-window throughput {:.1} !< large {:.1}",
        small.sim.throughput_mbps(),
        large.sim.throughput_mbps()
    );
}

/// §4.1: with 20k windows "the 6000-cycle penalties almost consume 30% of
/// the window time" — switches are far more frequent at 20k than 80k.
#[test]
fn fig7_small_windows_switch_more() {
    let small = run(Benchmark::Ipfwdr, TrafficLevel::High, tdvs(1000.0, 20_000));
    let large = run(Benchmark::Ipfwdr, TrafficLevel::High, tdvs(1000.0, 80_000));
    assert!(
        small.sim.total_switches > 2 * large.sim.total_switches,
        "switches: 20k window {} vs 80k window {}",
        small.sim.total_switches,
        large.sim.total_switches
    );
}

/// Figs. 8/9: the sweep produces a full surface and the optimal
/// configurations differ by priority (performance picks larger windows).
#[test]
fn fig89_surfaces_and_optima() {
    let grid = TdvsGrid {
        thresholds_mbps: vec![1000.0, 1400.0],
        windows_cycles: vec![20_000, 80_000],
    };
    let run = complete(Grid::tdvs(
        Benchmark::Ipfwdr,
        &TrafficLevel::High.into(),
        &grid,
        CYCLES,
        42,
    ));
    let cells = run.plain().expect("one seed per cell");
    assert_eq!(power_surface(cells).len(), 4);
    assert_eq!(throughput_surface(cells).len(), 4);

    let perf = optimal_tdvs(cells, DesignPriority::Performance).unwrap();
    let power = optimal_tdvs(cells, DesignPriority::Power).unwrap();
    // Performance priority must not pick the aggressive 20k window that
    // fig7 shows cliffs at.
    let pick = perf.experiment.tdvs_point().expect("a TDVS cell");
    assert_eq!(pick.1, 80_000, "perf pick {pick:?}");
    assert!(power.p80_power_w() <= perf.p80_power_w() + 1e-12);
}

/// Fig. 10: EDVS cuts power with nearly no performance loss on ipfwdr.
/// This is a steady-state claim, so it runs the paper's full 8M cycles
/// (shorter horizons leave burst backlog that reads as throughput loss).
#[test]
fn fig10_edvs_saves_power_without_throughput_loss() {
    let paper_run = |policy| {
        Experiment {
            benchmark: Benchmark::Ipfwdr,
            traffic: TrafficLevel::High.into(),
            policy,
            cycles: abdex::PAPER_RUN_CYCLES,
            seed: 42,
        }
        .run()
    };
    let base = paper_run(PolicySpec::NoDvs);
    let edvs = paper_run(PolicySpec::Edvs(EdvsConfig::default()));
    let saving = 1.0 - edvs.sim.mean_power_w() / base.sim.mean_power_w();
    assert!(saving > 0.04, "EDVS saving only {:.1}%", saving * 100.0);
    let loss = 1.0 - edvs.sim.throughput_mbps() / base.sim.throughput_mbps();
    assert!(loss < 0.05, "EDVS throughput loss {:.1}%", loss * 100.0);
}

/// §4.2: transmitting MEs never scale down under EDVS (their idle time is
/// too low), while receiving MEs do.
#[test]
fn fig10_tx_mes_never_scale_down() {
    let edvs = run(
        Benchmark::Ipfwdr,
        TrafficLevel::High,
        PolicySpec::Edvs(EdvsConfig::default()),
    );
    use abdex::nepsim::MeRole;
    for me in &edvs.sim.mes {
        if me.role == MeRole::Tx {
            assert_eq!(me.switches, 0, "a tx ME scaled under EDVS");
        }
    }
    let rx_switches: u64 = edvs
        .sim
        .mes
        .iter()
        .filter(|m| m.role == MeRole::Rx)
        .map(|m| m.switches)
        .sum();
    assert!(rx_switches > 0, "no rx ME ever scaled under EDVS");
}

/// Fig. 11 grid: key §4.3 claims across benchmarks and traffic levels.
#[test]
fn fig11_policy_comparison_shapes() {
    let cfg = ComparisonConfig {
        cycles: CYCLES,
        ..ComparisonConfig::default()
    };
    let cmp = complete(Grid::compare(
        &[Benchmark::Ipfwdr, Benchmark::Nat],
        &[TrafficLevel::Low.into(), TrafficLevel::High.into()],
        &cfg,
    ));

    // "Overall, TDVS has more power savings than EDVS" (at low traffic).
    let tdvs_low = cmp
        .power_saving(
            Benchmark::Ipfwdr,
            &TrafficLevel::Low.into(),
            PolicyKind::Tdvs,
        )
        .unwrap();
    let edvs_low = cmp
        .power_saving(
            Benchmark::Ipfwdr,
            &TrafficLevel::Low.into(),
            PolicyKind::Edvs,
        )
        .unwrap();
    assert!(
        tdvs_low > edvs_low,
        "low traffic: TDVS {tdvs_low:.3} !> EDVS {edvs_low:.3}"
    );

    // "as the traffic volume becomes higher, power savings by TDVS reduce
    // quickly".
    let tdvs_high = cmp
        .power_saving(
            Benchmark::Ipfwdr,
            &TrafficLevel::High.into(),
            PolicyKind::Tdvs,
        )
        .unwrap();
    assert!(
        tdvs_low > tdvs_high,
        "TDVS saving low {tdvs_low:.3} !> high {tdvs_high:.3}"
    );

    // "nat shows no power savings from EDVS under every traffic pattern".
    for traffic in [TrafficLevel::Low, TrafficLevel::High] {
        let s = cmp
            .power_saving(Benchmark::Nat, &traffic.into(), PolicyKind::Edvs)
            .unwrap();
        assert!(s < 0.03, "nat EDVS saving at {traffic}: {s:.3}");
    }

    // "TDVS never drops more than 2-5%" — allow a little slack on the
    // shortened runs.
    for traffic in [TrafficLevel::Low, TrafficLevel::High] {
        let loss = cmp
            .throughput_loss(Benchmark::Ipfwdr, &traffic.into(), PolicyKind::Tdvs)
            .unwrap();
        assert!(loss < 0.12, "TDVS loss at {traffic}: {:.1}%", loss * 100.0);
    }
}

/// §4.1: the TDVS monitor hardware costs less than 1 % of chip power.
#[test]
fn monitor_overhead_under_one_percent() {
    let t = run(Benchmark::Ipfwdr, TrafficLevel::High, tdvs(1000.0, 40_000));
    assert!(t.sim.monitor_energy_uj > 0.0);
    assert!(t.sim.monitor_overhead_fraction() < 0.01);
}

/// Extension: the combined (TEDVS) policy is at least as conservative as
/// EDVS — it never scales a ME down unless EDVS would have, so its power
/// sits between noDVS and EDVS, and tx MEs still never scale.
#[test]
fn extension_combined_policy_is_conservative() {
    use abdex::dvs::CombinedConfig;
    let tdvs = TdvsConfig {
        top_threshold_mbps: 1400.0,
        window_cycles: 40_000,
    };
    let edvs = EdvsConfig::default();
    let base = run(Benchmark::Ipfwdr, TrafficLevel::High, PolicySpec::NoDvs);
    let edvs_run = run(
        Benchmark::Ipfwdr,
        TrafficLevel::High,
        PolicySpec::Edvs(edvs),
    );
    let combined = run(
        Benchmark::Ipfwdr,
        TrafficLevel::High,
        PolicySpec::Combined(CombinedConfig { tdvs, edvs }),
    );
    assert!(combined.sim.mean_power_w() < base.sim.mean_power_w());
    assert!(combined.sim.mean_power_w() + 1e-9 >= edvs_run.sim.mean_power_w() * 0.95);
    use abdex::nepsim::MeRole;
    for me in &combined.sim.mes {
        if me.role == MeRole::Tx {
            assert_eq!(me.switches, 0, "a tx ME scaled under TEDVS");
        }
    }
    // Monitor overhead is charged (TDVS adder runs).
    assert!(combined.sim.monitor_energy_uj > 0.0);
}

/// §4.2 observation: receiving-ME idle time is bimodal — windows are
/// either nearly free of idle or substantially idle.
#[test]
fn rx_idle_is_bimodal_across_traffic() {
    let low = run(Benchmark::Ipfwdr, TrafficLevel::Low, PolicySpec::NoDvs);
    let high = run(Benchmark::Ipfwdr, TrafficLevel::High, PolicySpec::NoDvs);
    assert!(
        low.sim.rx_idle_fraction() < 0.05,
        "low-traffic rx idle {:.3}",
        low.sim.rx_idle_fraction()
    );
    assert!(
        high.sim.rx_idle_fraction() > 0.10,
        "high-traffic rx idle {:.3}",
        high.sim.rx_idle_fraction()
    );
    // tx MEs stay busy in both regimes.
    assert!(high.sim.tx_idle_fraction() < 0.05);
}
