//! Paper §4.2 observation: receiving-ME idle time is bimodal (under 5 %
//! or between 30 % and 40 % for ~90 % of the simulation), transmitting
//! MEs are almost always under 5 % idle. This binary runs one noDVS
//! simulation, samples per-ME idle fractions at every 40k-cycle window,
//! and bins them through LOC distribution analyzers.

use abdex::loc::{parse, Analyzer, Annotations, TraceRecord};
use abdex::nepsim::{AnalyzerBank, Benchmark, MeRole, NpuConfig, Simulator};
use abdex::traffic::TrafficLevel;
use abdex::{errln, outln, stdio};
use abdex_bench::{bar, cycles_from_args, FIG_SEED};

fn main() -> std::process::ExitCode {
    let cycles = cycles_from_args();
    errln!("obs_idle_bimodal: simulating ipfwdr/high for {cycles} cycles...");
    let config = NpuConfig::builder()
        .benchmark(Benchmark::Ipfwdr)
        .traffic(TrafficLevel::High)
        .seed(FIG_SEED)
        .build();
    // The idle samples come from the report; an empty bank keeps the
    // simulator from buffering a trace nobody reads.
    let report = Simulator::new(config)
        .with_analyzers(AnalyzerBank::new())
        .run_cycles(cycles);

    let formula = parse("idle(window[i]) dist== (0.0, 0.5, 0.05)").expect("valid formula");
    let mut rx = Analyzer::from_formula(&formula).expect("valid analyzer");
    let mut tx = Analyzer::from_formula(&formula).expect("valid analyzer");
    for sample in &report.window_idle {
        let mut a = Annotations::default();
        a.set_extra("idle", sample.idle);
        let rec = TraceRecord::new("window", a);
        match sample.role {
            MeRole::Rx => rx.push(&rec),
            MeRole::Tx => tx.push(&rec),
        }
    }
    let rx = rx.finish();
    let tx = tx.finish();

    outln!(
        "per-window idle fractions over {} windows x 6 MEs\n",
        report.windows
    );
    outln!("receiving MEs (paper: <5% or 30-40% for ~90% of time):");
    for b in rx.bins() {
        outln!(
            "  ({:>5.2}, {:>5.2}] {:>6.1}%  {}",
            b.lo,
            b.hi,
            b.fraction * 100.0,
            bar(b.fraction, 40)
        );
    }
    let low_mode = rx.fraction_le(0.05);
    let high_mode = rx.fraction_le(0.45) - rx.fraction_le(0.20);
    outln!(
        "  -> {:.0}% of rx windows under 5% idle, {:.0}% between 20% and 45%; \
         together {:.0}%",
        low_mode * 100.0,
        high_mode * 100.0,
        (low_mode + high_mode) * 100.0
    );

    outln!("\ntransmitting MEs (paper: almost always under 5%):");
    for b in tx.bins() {
        if b.count > 0 {
            outln!(
                "  ({:>5.2}, {:>5.2}] {:>6.1}%  {}",
                b.lo,
                b.hi,
                b.fraction * 100.0,
                bar(b.fraction, 40)
            );
        }
    }
    outln!(
        "  -> {:.1}% of tx windows under 5% idle",
        tx.fraction_le(0.05) * 100.0
    );
    stdio::exit_status(stdio::flush_stdout())
}
