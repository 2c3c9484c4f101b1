//! Paper Fig. 2: a day of IP packet arrival rates (max/med/min envelope)
//! from the synthetic NLANR-like diurnal model.

use abdex::traffic::{DiurnalModel, TrafficLevel};
use abdex::{outln, stdio};

fn main() -> std::process::ExitCode {
    let model = DiurnalModel::nlanr_like(abdex_bench::FIG_SEED);
    outln!("Fig. 2 — Example IP packets distribution (bits/s)");
    outln!("{:>6} {:>12} {:>12} {:>12}", "time", "max", "med", "min");
    // The paper's x-axis runs 9:47 to 16:43; we print the whole day at
    // 30-minute resolution.
    for half_hour in 0..48 {
        let t = half_hour as f64 * 1800.0;
        let s = model.sample(t);
        let hh = half_hour / 2;
        let mm = (half_hour % 2) * 30;
        outln!(
            "{hh:>4}:{mm:02} {:>12.3e} {:>12.3e} {:>12.3e}",
            s.max_bps,
            s.med_bps,
            s.min_bps
        );
    }
    outln!("\nsampling periods used by the experiments (paper §3.2):");
    for level in TrafficLevel::ALL {
        let t = DiurnalModel::sampling_time_for(level);
        let s = model.sample(t);
        outln!(
            "  {level:>6}: {:02.0}:00, median {:.3e} bits/s -> {} Mbps aggregate target",
            t / 3600.0,
            s.med_bps,
            level.mean_rate_mbps()
        );
    }
    stdio::exit_status(stdio::flush_stdout())
}
