//! Shared plumbing for the figure-regeneration binaries and Criterion
//! benches.
//!
//! Every `fig*` binary accepts an optional first argument: the number of
//! base-clock cycles to simulate per configuration (default: the paper's
//! 8×10⁶). Pass a smaller number for a quick look:
//!
//! ```text
//! cargo run --release -p abdex-bench --bin fig06_tdvs_power -- 1000000
//! ```

#![warn(missing_docs)]

pub mod ablation;

use abdex::PAPER_RUN_CYCLES;

/// Reads the per-configuration cycle budget from `argv[1]`, defaulting to
/// the paper's 8×10⁶.
#[must_use]
pub fn cycles_from_args() -> u64 {
    std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(PAPER_RUN_CYCLES)
}

/// The seed shared by all figure binaries so every figure describes the
/// same simulated system.
pub const FIG_SEED: u64 = 42;

/// Renders a fraction in `[0, 1]` as a crude horizontal bar for terminal
/// plots.
#[must_use]
pub fn bar(fraction: f64, width: usize) -> String {
    let n = (fraction.clamp(0.0, 1.0) * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for k in 0..width {
        s.push(if k < n { '#' } else { '.' });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_renders_fractions() {
        assert_eq!(bar(0.0, 4), "....");
        assert_eq!(bar(1.0, 4), "####");
        assert_eq!(bar(0.5, 4), "##..");
        assert_eq!(bar(2.0, 4), "####", "clamps above 1");
    }

    #[test]
    fn default_cycles_is_paper_length() {
        // argv[1] in the test harness is a filter, not a number, so the
        // default must kick in.
        assert_eq!(cycles_from_args(), PAPER_RUN_CYCLES);
    }
}
