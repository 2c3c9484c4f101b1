//! A figure binary whose stdout cannot be written ends without a panic:
//! a full stdout is an `error:` line and exit status 1, and a closed one
//! keeps the exit status the work earned.

use std::process::Command;

fn fig05() -> Command {
    // It simulates nothing, so each run takes milliseconds.
    Command::new(env!("CARGO_BIN_EXE_fig05_scaling_table"))
}

#[test]
fn a_full_or_closed_stdout_ends_the_figure_without_a_panic() {
    let full = std::fs::OpenOptions::new()
        .write(true)
        .open("/dev/full")
        .expect("/dev/full opens");
    let on_full = fig05().stdout(full).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&on_full.stderr);
    assert_eq!(on_full.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: cannot write to stdout"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    // The reader is dropped before the child starts, so the child's
    // first stdout write fails with a broken pipe.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let on_closed = fig05().stdout(writer).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&on_closed.stderr);
    assert_eq!(on_closed.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
