//! Stdout and stderr for the command-line binaries, without a panic.
//!
//! `print!` and `eprint!` panic when a write fails. `abdex` and the
//! figure binaries print through [`out!`](crate::out),
//! [`outln!`](crate::outln) and [`errln!`](crate::errln) instead, and
//! end with [`flush_stdout`] and [`exit_status`]. A reader that closed
//! the pipe (`abdex policies | head -1`) just ends the output, and the
//! run keeps the exit status its work earned; any other stdout failure,
//! such as a full disk behind a redirect, is an `error:` line on stderr
//! and exit status 1. A failed stderr write is dropped: stderr is where
//! a failure would be reported, so its own failure changes no exit
//! status.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;
use std::sync::OnceLock;

/// `print!` through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::stdio::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::stdio::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::stdio::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `eprintln!` through [`write_stderr`].
#[macro_export]
macro_rules! errln {
    ($($arg:tt)*) => {
        $crate::stdio::write_stderr(&format!("{}\n", format_args!($($arg)*)))
    };
}

/// The first stdout write that failed; see [`write_stdout`].
static STDOUT_ERROR: OnceLock<std::io::Error> = OnceLock::new();

/// Writes to stdout for [`out!`](crate::out) and
/// [`outln!`](crate::outln). Unlike `print!`, which panics when a write
/// fails, this keeps the first failure and drops every later write;
/// [`flush_stdout`] reports it.
pub fn write_stdout(args: std::fmt::Arguments) {
    if STDOUT_ERROR.get().is_some() {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        let _ = STDOUT_ERROR.set(e);
    }
}

/// Flushes stdout.
///
/// # Errors
///
/// The first stdout failure that was not a closed pipe.
pub fn flush_stdout() -> Result<(), String> {
    if STDOUT_ERROR.get().is_none() {
        if let Err(e) = std::io::stdout().lock().flush() {
            let _ = STDOUT_ERROR.set(e);
        }
    }
    match STDOUT_ERROR.get() {
        Some(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("cannot write to stdout: {e}")),
        _ => Ok(()),
    }
}

/// Writes `text` to stderr in one write for [`errln!`](crate::errln).
/// Unlike `eprint!`, which panics when a write fails, this drops a
/// failed write.
pub fn write_stderr(text: &str) {
    let _ = std::io::stderr().lock().write_all(text.as_bytes());
}

/// The exit status of a run that ended in `result`: success, or the
/// error as an `error:` line on stderr and status 1. An empty message
/// means the run has already said what went wrong.
#[must_use]
pub fn exit_status(result: Result<(), String>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if !e.is_empty() {
                errln!("error: {e}");
            }
            ExitCode::FAILURE
        }
    }
}
