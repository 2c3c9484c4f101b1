//! The simulator's profiler counters: with the profiler armed, every
//! simulation adds its kernel work and its simulated cycles to
//! `kernel.events_scheduled`, `kernel.events_processed` and
//! `simulate.cycles`, so the `--profile-summary` report shows the work
//! of exactly the simulations an invocation ran.
//!
//! A test binary of its own because the profiler is process-global: no
//! other test may arm it or add to its counters while this one runs.

use abdex::obs::prof;
use abdex::{run_grid, Grid, PolicySpec, Runner};
use nepsim::Benchmark;

#[test]
fn kernel_counters_sum_every_simulation_of_a_grid() {
    const CYCLES: u64 = 150_000;
    let specs = [PolicySpec::NoDvs, PolicySpec::parse("edvs").unwrap()];
    let grid = Grid::policies(
        Benchmark::Ipfwdr,
        &"low".parse().unwrap(),
        &specs,
        CYCLES,
        7,
    );
    prof::set_enabled(true);
    let run = run_grid(&Runner::new().with_workers(2), &grid, 1);
    prof::set_enabled(false);
    let totals = prof::drain().counter_totals();

    let cells = run.plain().expect("a single-seed grid");
    assert_eq!(cells.len(), 2);
    let scheduled: u64 = cells.iter().map(|c| c.sim.kernel.events_scheduled).sum();
    let processed: u64 = cells.iter().map(|c| c.sim.kernel.events_processed).sum();
    assert!(processed > 0);
    assert_eq!(
        totals.get("kernel.events_scheduled"),
        Some(&(scheduled as f64))
    );
    assert_eq!(
        totals.get("kernel.events_processed"),
        Some(&(processed as f64))
    );
    assert_eq!(
        totals.get("simulate.cycles"),
        Some(&((cells.len() as u64 * CYCLES) as f64))
    );
}
