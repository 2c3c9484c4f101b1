//! End-to-end test of the standalone-checker generator: the emitted Rust
//! source must compile with a bare `rustc` and agree with the in-process
//! checker/analyzer on a real trace file.

use std::path::PathBuf;
use std::process::Command;

use loc::{codegen, parse, Annotations, Checker, Trace, TraceRecord};

/// Returns a scratch directory under the target dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("loc-codegen-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("can create scratch dir");
    dir
}

fn rustc_available() -> bool {
    Command::new("rustc")
        .arg("--version")
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

fn sample_trace(latency: u64) -> Trace {
    let mut trace = Trace::new();
    for k in 0..200u64 {
        trace.push(TraceRecord::new(
            "enq",
            Annotations {
                cycle: k * 100,
                time: k as f64,
                ..Annotations::default()
            },
        ));
        trace.push(TraceRecord::new(
            "deq",
            Annotations {
                cycle: k * 100 + latency,
                time: k as f64 + 0.2,
                ..Annotations::default()
            },
        ));
    }
    trace
}

/// Compiles `source` and runs it on `trace`, returning (exit_ok, stdout).
fn compile_and_run(name: &str, source: &str, trace: &Trace) -> (bool, String) {
    let dir = scratch(name);
    let src_path = dir.join("checker.rs");
    let bin_path = dir.join("checker_bin");
    let trace_path = dir.join("trace.txt");
    std::fs::write(&src_path, source).expect("write source");
    std::fs::write(&trace_path, trace.to_text()).expect("write trace");

    let compile = Command::new("rustc")
        .arg("-O")
        .arg("--edition=2021")
        .arg("-o")
        .arg(&bin_path)
        .arg(&src_path)
        .output()
        .expect("rustc runs");
    assert!(
        compile.status.success(),
        "generated source failed to compile:\n{}",
        String::from_utf8_lossy(&compile.stderr)
    );

    let run = Command::new(&bin_path)
        .arg(&trace_path)
        .output()
        .expect("generated binary runs");
    let stdout = String::from_utf8_lossy(&run.stdout).into_owned();
    let _ = std::fs::remove_dir_all(&dir);
    (run.status.success(), stdout)
}

#[test]
fn generated_checker_agrees_with_in_process_checker() {
    if !rustc_available() {
        eprintln!("skipping: rustc not available");
        return;
    }
    let formula = parse("cycle(deq[i]) - cycle(enq[i]) <= 50").unwrap();
    let source = codegen::generate(&formula).unwrap();

    // Passing trace: latency 20.
    let good = sample_trace(20);
    let in_process = Checker::from_formula(&formula).unwrap().check(&good);
    assert!(in_process.passed());
    let (ok, stdout) = compile_and_run("pass", &source, &good);
    assert!(ok, "generated checker reported violations:\n{stdout}");
    assert!(stdout.contains("instances: 200"), "stdout:\n{stdout}");
    assert!(stdout.contains("violations: 0"), "stdout:\n{stdout}");

    // Failing trace: latency 80 -> every instance violates.
    let bad = sample_trace(80);
    let in_process = Checker::from_formula(&formula).unwrap().check(&bad);
    assert_eq!(in_process.violation_count, 200);
    let (ok, stdout) = compile_and_run("fail", &source, &bad);
    assert!(!ok, "generated checker should exit non-zero");
    assert!(stdout.contains("violations: 200"), "stdout:\n{stdout}");
}

#[test]
fn generated_analyzer_prints_distribution() {
    if !rustc_available() {
        eprintln!("skipping: rustc not available");
        return;
    }
    // Latency 20 on every instance: all mass in the (15, 20] bin of a
    // (0, 50, 5) analysis period.
    let formula = parse("cycle(deq[i]) - cycle(enq[i]) dist== (0, 50, 5)").unwrap();
    let source = codegen::generate(&formula).unwrap();
    let trace = sample_trace(20);
    let (ok, stdout) = compile_and_run("dist", &source, &trace);
    assert!(ok, "analyzer exited non-zero:\n{stdout}");
    assert!(
        stdout.contains("100.00%"),
        "expected a full bin in:\n{stdout}"
    );
}
