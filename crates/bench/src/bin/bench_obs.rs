//! Machine-readable baseline for the span profiler's overhead: the
//! same 16-cell TDVS sweep is timed with the profiler disarmed and
//! armed, interleaved A/B over several rounds, and the medians are
//! written as `BENCH_obs.json`.
//!
//! ```text
//! cargo run --release -p abdex-bench --bin bench_obs -- [CYCLES] [ROUNDS] [OUT]
//! ```
//!
//! Defaults: 8×10⁵ cycles per cell, 5 rounds, `BENCH_obs.json` in the
//! current directory. The binary asserts the profiler's contract
//! rather than merely reporting it: the armed median must be within
//! **5%** of the disarmed median — instrumentation that taxes the
//! simulation would defeat its always-on purpose — and the armed
//! passes must actually record spans (a disarmed-by-accident run
//! proves nothing). Rounds interleave disarmed/armed passes so clock
//! drift and cache warmth hit both sides equally.

use std::time::Instant;

use abdex::nepsim::Benchmark;
use abdex::traffic::TrafficLevel;
use abdex::{run_grid, Grid, Runner, TdvsGrid};

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    samples[samples.len() / 2]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let cycles: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(800_000);
    let rounds: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(5);
    let out = args.next().unwrap_or_else(|| "BENCH_obs.json".to_owned());

    // 4 x 4 = 16 cells, the ISSUE's reference workload.
    let grid = TdvsGrid {
        thresholds_mbps: vec![800.0, 1000.0, 1200.0, 1400.0],
        windows_cycles: vec![10_000, 20_000, 30_000, 40_000],
    };
    let runner = Runner::new();
    eprintln!(
        "bench_obs: {} cells x {cycles} cycles, {rounds} interleaved rounds on {} workers",
        grid.len(),
        runner.workers()
    );

    let sweep = Grid::tdvs(
        Benchmark::Ipfwdr,
        &TrafficLevel::High.into(),
        &grid,
        cycles,
        42,
    );
    let pass = || {
        let start = Instant::now();
        let run = run_grid(&runner, &sweep, 1);
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        start.elapsed().as_secs_f64()
    };

    // Warm up both code paths (allocator, traffic tables) before timing.
    pass();
    abdex::obs::prof::set_enabled(true);
    pass();
    let _ = abdex::obs::prof::drain();
    abdex::obs::prof::set_enabled(false);

    let mut disarmed = Vec::with_capacity(rounds);
    let mut armed = Vec::with_capacity(rounds);
    let mut spans = 0usize;
    for _ in 0..rounds {
        disarmed.push(pass());
        abdex::obs::prof::set_enabled(true);
        armed.push(pass());
        abdex::obs::prof::set_enabled(false);
        // Drain every round so buffered spans never accumulate across
        // passes (and to verify the armed pass actually recorded).
        let profile = abdex::obs::prof::drain();
        assert!(
            profile.spans.iter().any(|s| s.name == "simulate"),
            "armed pass recorded no simulate spans"
        );
        spans += profile.spans.len();
    }

    let disarmed_s = median(&mut disarmed);
    let armed_s = median(&mut armed);
    let overhead = armed_s / disarmed_s - 1.0;
    assert!(
        overhead <= 0.05,
        "profiler overhead above 5%: armed {armed_s:.4}s vs disarmed {disarmed_s:.4}s \
         ({:.1}%)",
        overhead * 100.0
    );

    let doc = format!(
        "{{\"bench\":\"obs\",\"cells\":{},\"cycles_per_cell\":{cycles},\"rounds\":{rounds},\
         \"available_parallelism\":{},\"workers\":{},\"disarmed_s\":{disarmed_s:.4},\
         \"armed_s\":{armed_s:.4},\"overhead_fraction\":{overhead:.4},\
         \"spans_per_round\":{}}}\n",
        grid.len(),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        runner.workers(),
        spans / rounds,
    );
    std::fs::write(&out, &doc).expect("write baseline JSON");
    eprintln!(
        "disarmed {disarmed_s:.4}s, armed {armed_s:.4}s ({:+.2}% overhead, \
         {} spans/round) -> {out}",
        overhead * 100.0,
        spans / rounds
    );
}
