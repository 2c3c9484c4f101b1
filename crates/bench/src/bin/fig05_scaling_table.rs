//! Paper Fig. 5: the detailed VF scaling values and per-level traffic
//! thresholds for a 1000 Mbps top threshold.

use abdex::dvs::{Tdvs, TdvsConfig, VfLadder};
use abdex::{out, outln, stdio};

fn main() -> std::process::ExitCode {
    let ladder = VfLadder::xscale_npu();
    let tdvs = Tdvs::new(
        TdvsConfig {
            top_threshold_mbps: 1000.0,
            window_cycles: 40_000,
        },
        ladder.clone(),
    );

    outln!("Fig. 5 — The detailed scaling values (top threshold 1000 Mbps)");
    out!("{:<24}", "Frequency (MHz)");
    for p in ladder.iter().rev() {
        out!(" {:>6}", p.freq_mhz);
    }
    out!("\n{:<24}", "Voltage (V)");
    for p in ladder.iter().rev() {
        out!(" {:>6.2}", p.voltage());
    }
    out!("\n{:<24}", "Traffic Threshold (Mbps)");
    for idx in (0..ladder.len()).rev() {
        out!(" {:>6.0}", tdvs.threshold_at(idx));
    }
    outln!();
    outln!(
        "\nswitch penalty: 10 us ({} cycles at 600 MHz); \
         monitor adder: one 32-bit add per arriving packet",
        abdex::desim::Frequency::from_mhz(600).time_to_cycles(abdex::dvs::SWITCH_PENALTY)
    );
    stdio::exit_status(stdio::flush_stdout())
}
