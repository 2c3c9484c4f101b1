//! Pluggable batch-progress observers.
//!
//! Long sweeps (16 cells × 8×10⁶ cycles) are silent for minutes without
//! feedback; the runner reports every job start/finish to a
//! [`ProgressSink`] so front ends can choose their own verbosity. All
//! built-in sinks write to **stderr**, keeping stdout clean for tables
//! and JSON, and drop a write that fails instead of panicking.

use std::fmt;
use std::io::Write;
use std::str::FromStr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Observer of a running batch. Implementations must be thread-safe:
/// worker threads call these hooks concurrently.
///
/// All methods default to no-ops so a sink overrides only what it
/// renders.
pub trait ProgressSink: Send + Sync {
    /// A worker picked up job `index` of `total`.
    fn job_started(&self, index: usize, total: usize, name: &str) {
        let _ = (index, total, name);
    }

    /// Job `index` of `total` finished; `ok` is `false` when it
    /// panicked.
    fn job_finished(&self, index: usize, total: usize, name: &str, ok: bool, elapsed: Duration) {
        let _ = (index, total, name, ok, elapsed);
    }

    /// The whole batch drained: `failed` of `total` jobs panicked.
    fn batch_finished(&self, total: usize, failed: usize, elapsed: Duration) {
        let _ = (total, failed, elapsed);
    }
}

/// No output at all — the default sink.
#[derive(Debug, Clone, Copy, Default)]
pub struct Quiet;

impl ProgressSink for Quiet {}

/// One character per finished job: `.` for success, `E` for a panic,
/// with a closing newline when the batch drains.
#[derive(Debug, Clone, Copy, Default)]
pub struct Dots;

impl ProgressSink for Dots {
    fn job_finished(
        &self,
        _index: usize,
        _total: usize,
        _name: &str,
        ok: bool,
        _elapsed: Duration,
    ) {
        let mut err = std::io::stderr().lock();
        let _ = err.write_all(if ok { b"." } else { b"E" });
        let _ = err.flush();
    }

    fn batch_finished(&self, total: usize, failed: usize, elapsed: Duration) {
        let _ = writeln!(
            std::io::stderr(),
            " {total} jobs, {failed} failed, {:.2}s",
            elapsed.as_secs_f64()
        );
    }
}

/// One line per finished job — `[ 3/16] ok    1.23s name  2.4/s eta 5s`
/// — plus a batch summary line. The counter is the number of
/// *completed* jobs, so it stays monotonic even when parallel jobs
/// finish out of submission order; the name identifies which cell just
/// landed. The trailing rate and ETA come from the batch clock (started
/// when the first job is picked up): completed ÷ elapsed, extrapolated
/// over the jobs still outstanding.
#[derive(Debug, Default)]
pub struct Lines {
    state: Mutex<LinesState>,
}

#[derive(Debug, Default)]
struct LinesState {
    done: usize,
    start: Option<Instant>,
}

impl ProgressSink for Lines {
    fn job_started(&self, _index: usize, _total: usize, _name: &str) {
        let mut state = self.state.lock().expect("progress state poisoned");
        state.start.get_or_insert_with(Instant::now);
    }

    fn job_finished(&self, _index: usize, total: usize, name: &str, ok: bool, elapsed: Duration) {
        let (done, running) = {
            let mut state = self.state.lock().expect("progress state poisoned");
            state.done += 1;
            let running = state.start.get_or_insert_with(Instant::now).elapsed();
            (state.done, running)
        };
        let width = total.to_string().len();
        let pace = if running.as_secs_f64() > 0.0 {
            let rate = done as f64 / running.as_secs_f64();
            let eta = (total - done) as f64 / rate;
            format!("  {rate:.1}/s eta {eta:.0}s")
        } else {
            String::new()
        };
        let _ = writeln!(
            std::io::stderr(),
            "[{done:>width$}/{total}] {} {:>7.2}s {name}{pace}",
            if ok { "ok  " } else { "FAIL" },
            elapsed.as_secs_f64(),
        );
    }

    fn batch_finished(&self, total: usize, failed: usize, elapsed: Duration) {
        // Reset so a reused runner counts the next batch from 1 again.
        *self.state.lock().expect("progress state poisoned") = LinesState::default();
        let secs = elapsed.as_secs_f64();
        let rate = if secs > 0.0 { total as f64 / secs } else { 0.0 };
        let _ = writeln!(
            std::io::stderr(),
            "batch done: {total} jobs, {failed} failed, {secs:.2}s ({rate:.1} jobs/s)"
        );
    }
}

/// The built-in sink selection, parseable from CLI flags
/// (`--progress quiet|dot|line`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProgressMode {
    /// No output ([`Quiet`]).
    #[default]
    Quiet,
    /// One character per job ([`Dots`]).
    Dot,
    /// One line per job ([`Lines`]).
    Line,
}

impl ProgressMode {
    /// Instantiates the sink this mode names.
    #[must_use]
    pub fn sink(self) -> Box<dyn ProgressSink> {
        match self {
            ProgressMode::Quiet => Box::new(Quiet),
            ProgressMode::Dot => Box::new(Dots),
            ProgressMode::Line => Box::new(Lines::default()),
        }
    }
}

impl FromStr for ProgressMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "quiet" => Ok(ProgressMode::Quiet),
            "dot" | "dots" => Ok(ProgressMode::Dot),
            "line" | "lines" => Ok(ProgressMode::Line),
            other => Err(format!(
                "unknown progress mode '{other}' (expected quiet, dot or line)"
            )),
        }
    }
}

impl fmt::Display for ProgressMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ProgressMode::Quiet => "quiet",
            ProgressMode::Dot => "dot",
            ProgressMode::Line => "line",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_parse_and_round_trip() {
        for mode in [ProgressMode::Quiet, ProgressMode::Dot, ProgressMode::Line] {
            assert_eq!(mode.to_string().parse::<ProgressMode>().unwrap(), mode);
        }
        assert_eq!("dots".parse::<ProgressMode>().unwrap(), ProgressMode::Dot);
        assert!("loud".parse::<ProgressMode>().is_err());
        assert!("stats".parse::<ProgressMode>().is_err());
    }

    #[test]
    fn default_mode_is_quiet() {
        assert_eq!(ProgressMode::default(), ProgressMode::Quiet);
    }
}
