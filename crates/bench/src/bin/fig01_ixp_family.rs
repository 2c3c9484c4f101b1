//! Paper Fig. 1: power and performance of the Intel IXP NPU family.

use abdex::reference::ixp_family;
use abdex::{outln, stdio};

fn main() -> std::process::ExitCode {
    outln!("Fig. 1 — The power and performance of Intel IXP NPUs");
    outln!(
        "{:<22} {:>8} {:>8} {:>8}",
        "Description",
        "IXP1200",
        "IXP2400",
        "IXP2800"
    );
    let t = ixp_family();
    outln!(
        "{:<22} {:>8} {:>8} {:>8}",
        "Performance(MIPS)",
        t[0].performance_mips,
        t[1].performance_mips,
        t[2].performance_mips
    );
    outln!(
        "{:<22} {:>8} {:>8} {:>8}",
        "Media Bandwidth(Gbps)",
        t[0].media_bandwidth_gbps,
        t[1].media_bandwidth_gbps,
        t[2].media_bandwidth_gbps
    );
    outln!(
        "{:<22} {:>8} {:>8} {:>8}",
        "Frequency of ME(MHz)",
        t[0].me_freq_mhz,
        t[1].me_freq_mhz,
        t[2].me_freq_mhz
    );
    outln!(
        "{:<22} {:>8} {:>8} {:>8}",
        "Number of MEs",
        t[0].num_mes,
        t[1].num_mes,
        t[2].num_mes
    );
    outln!(
        "{:<22} {:>8} {:>8} {:>8}",
        "Power(W)",
        t[0].power_w,
        t[1].power_w,
        t[2].power_w
    );
    outln!(
        "\n(power rises with complexity: {:.0} -> {:.0} -> {:.0} MIPS/W)",
        t[0].mips_per_watt(),
        t[1].mips_per_watt(),
        t[2].mips_per_watt()
    );
    stdio::exit_status(stdio::flush_stdout())
}
