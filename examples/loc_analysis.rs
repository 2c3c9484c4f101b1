//! Using the LOC toolchain directly: parse formulas from text, run an
//! auto-generated checker and distribution analyzer over a simulation
//! trace, and emit a standalone Rust checker (paper §2.3).
//!
//! Run with: `cargo run --release -p abdex --example loc_analysis`

use abdex::loc::{codegen, parse, Analyzer, Checker};
use abdex::nepsim::{Benchmark, NpuConfig, Simulator, TraceConfig};
use abdex::traffic::TrafficLevel;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Produce a trace with fifo events enabled.
    let config = NpuConfig::builder()
        .benchmark(Benchmark::Url)
        .traffic(TrafficLevel::Medium)
        .seed(7)
        .trace(TraceConfig {
            emit_fifo: true,
            emit_pipeline: false,
        })
        .build();
    let mut sim = Simulator::new(config);
    let report = sim.run_cycles(1_000_000);
    let trace = sim.into_trace();
    println!(
        "trace: {} records, {} forwarded packets",
        trace.len(),
        report.forwarded_packets
    );

    // 2. A checker from a user-written assertion: the NPU must always
    //    forward 100 packets within 2 ms.
    let assertion = parse("time(forward[i+100]) - time(forward[i]) <= 2000")?;
    let check = Checker::from_formula(&assertion)?.check(&trace);
    println!(
        "assertion `{assertion}`: {} instances, {} violations -> {}",
        check.instances,
        check.violation_count,
        if check.passed() { "PASS" } else { "FAIL" }
    );

    // 3. A distribution analyzer from the paper's formula (1).
    let formula = parse("time(forward[i+100]) - time(forward[i]) dist== (200, 800, 50)")?;
    let dist = Analyzer::from_formula(&formula)?.analyze(&trace);
    println!("\nlatency distribution of `{formula}`:");
    print!("{}", dist.to_table());

    // 4. Generate a standalone checker program (the paper's "automatically
    //    generated trace checkers").
    let source = codegen::generate(&assertion)?;
    println!(
        "\ngenerated standalone checker: {} lines of Rust (excerpt):",
        source.lines().count()
    );
    for line in source.lines().take(4) {
        println!("  | {line}");
    }
    Ok(())
}
