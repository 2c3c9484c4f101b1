//! Shared plumbing for the figure-regeneration, ablation and extension
//! binaries.
//!
//! Every simulating binary accepts an optional first argument: the
//! number of base-clock cycles to simulate per configuration (default:
//! the paper's 8×10⁶). Pass a smaller number for a quick look:
//!
//! ```text
//! cargo run --release -p abdex-bench --bin fig06_tdvs_power -- 1000000
//! ```
//!
//! The crate's one measuring binary, `bench_obs`, gates the span
//! profiler's armed overhead at 5 %. Every other performance number
//! comes from the repository benchmark, `perfbench/`.
//!
//! Every binary prints through [`abdex::stdio`], as `abdex` does: a
//! closed stdout ends the output, a full one is an `error:` line and
//! exit status 1, and a failed stderr write is dropped.

#![warn(missing_docs)]

pub mod ablation;

use abdex::{errln, PAPER_RUN_CYCLES};

/// Reads the per-configuration cycle budget from `argv[1]`: the paper's
/// 8×10⁶ when it is absent. A budget that is not a whole number of
/// cycles is reported and exits 1, so a typo never silently runs a
/// paper-length simulation.
#[must_use]
pub fn cycles_from_args() -> u64 {
    parse_cycles(std::env::args().nth(1).as_deref()).unwrap_or_else(|e| {
        errln!("error: {e}");
        std::process::exit(1)
    })
}

/// The cycle budget an optional `argv[1]` asks for, or an error naming
/// it (`1e5` is not a whole number).
fn parse_cycles(arg: Option<&str>) -> Result<u64, String> {
    match arg {
        None => Ok(PAPER_RUN_CYCLES),
        Some(s) => s
            .parse()
            .map_err(|_| format!("cycle budget must be a whole number of cycles, found '{s}'")),
    }
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
    fn cycles_argument_defaults_parses_or_names_the_bad_value() {
        assert_eq!(parse_cycles(None), Ok(PAPER_RUN_CYCLES));
        assert_eq!(parse_cycles(Some("100000")), Ok(100_000));
        let err = parse_cycles(Some("1e5")).unwrap_err();
        assert!(err.contains("'1e5'"), "{err}");
    }
}
