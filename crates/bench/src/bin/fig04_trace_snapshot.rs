//! Paper Figs. 3 & 4: the event/annotation vocabulary and a snapshot of a
//! NePSim simulation trace.

use abdex::nepsim::{Benchmark, NpuConfig, Simulator, TraceConfig};
use abdex::traffic::TrafficLevel;
use abdex::{outln, stdio};

fn main() -> std::process::ExitCode {
    outln!("Fig. 3 — event and annotation types");
    outln!("  events     : pipeline (instruction bundle enters a pipeline),");
    outln!("               forward (an IP packet is forwarded),");
    outln!("               fifo (an IP packet enters the processing queue)");
    outln!("  annotations: cycle, time(us), energy(uJ), total_pkt, total_bit\n");

    let config = NpuConfig::builder()
        .benchmark(Benchmark::Ipfwdr)
        .traffic(TrafficLevel::Medium)
        .seed(abdex_bench::FIG_SEED)
        .trace(TraceConfig {
            emit_fifo: true,
            emit_pipeline: true,
        })
        .build();
    let mut sim = Simulator::new(config);
    let _ = sim.run_cycles(20_000);
    let trace = sim.into_trace();

    outln!(
        "Fig. 4 — a snapshot of a NePSim simulation trace ({} records total)",
        trace.len()
    );
    let text = trace.to_text();
    for line in text.lines().take(24) {
        outln!("  {line}");
    }
    outln!("  ...");
    stdio::exit_status(stdio::flush_stdout())
}
