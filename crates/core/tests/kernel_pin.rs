//! Bit-for-bit pins of the event kernel.
//!
//! Each cell's digest is an FNV-1a-64 hash of every model field of its
//! result, written out below: each `SimReport` field — the kernel
//! counters and the per-window idle samples included — and both paper
//! distributions' `DistParts`, with every `f64` as its bit pattern. The
//! digest reads the structs directly, not a cache payload, so a change
//! to the payload format moves no pin. Any change to the order in which
//! the kernel pops events, to the time or energy arithmetic, or to the
//! workload programs moves at least one digest.
//!
//! The cells cover the paths a kernel rework can break: every benchmark
//! under no DVS, global TDVS and per-ME EDVS (parked-ME stalls and stale
//! steps), an overloaded MMPP source (RX loss and switches), a
//! heavy-tailed size mix (many distinct program lengths), the other
//! built-in policies (TEDVS, hysteresis TDVS, QDVS and PDVS) and a staged
//! drain (`run_cycle_segments`). A failure prints the digest table the
//! current code produces; paste it in only for an intended change to
//! simulated results.

use abdex::{Experiment, ExperimentResult, PolicySpec, TrafficSpec};
use loc::{DistParts, DistRel};
use nepsim::{Benchmark, MeMode, MeReport, MeRole, SimReport, Simulator, WindowIdleSample};
use obs::KernelCounters;

/// FNV-1a, 64-bit, fed one little-endian `u64` at a time.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    fn role(&mut self, role: MeRole) {
        self.u64(match role {
            MeRole::Rx => 0,
            MeRole::Tx => 1,
        });
    }

    /// Every field of a report. The destructuring is exhaustive, so a
    /// new field does not compile until it is digested here too.
    fn report(&mut self, r: &SimReport) {
        let SimReport {
            policy,
            duration,
            arrived_packets,
            arrived_bits,
            dropped_packets,
            dropped_tx_packets,
            forwarded_packets,
            forwarded_bits,
            mes,
            me_energy_uj,
            sram_energy_uj,
            sdram_energy_uj,
            static_energy_uj,
            monitor_energy_uj,
            sram_accesses,
            sdram_accesses,
            total_switches,
            windows,
            bus_bits,
            bus_rate_mbps,
            kernel,
            window_idle,
        } = r;
        let name = policy.to_string();
        self.len(name.len());
        for b in name.bytes() {
            self.u64(u64::from(b));
        }
        self.u64(duration.as_ps());
        for &v in [
            arrived_packets,
            arrived_bits,
            dropped_packets,
            dropped_tx_packets,
            forwarded_packets,
            forwarded_bits,
        ] {
            self.u64(v);
        }
        self.len(mes.len());
        for me in mes {
            self.me(me);
        }
        for &v in [
            me_energy_uj,
            sram_energy_uj,
            sdram_energy_uj,
            static_energy_uj,
            monitor_energy_uj,
        ] {
            self.f64(v);
        }
        for &v in [
            sram_accesses,
            sdram_accesses,
            total_switches,
            windows,
            bus_bits,
        ] {
            self.u64(v);
        }
        self.f64(*bus_rate_mbps);
        let KernelCounters {
            events_scheduled,
            events_processed,
            peak_heap_len,
        } = kernel;
        for &v in [events_scheduled, events_processed, peak_heap_len] {
            self.u64(v);
        }
        self.len(window_idle.len());
        for sample in window_idle {
            let WindowIdleSample {
                window,
                me,
                role,
                idle,
            } = sample;
            self.u64(*window);
            self.len(*me);
            self.role(*role);
            self.f64(*idle);
        }
    }

    fn me(&mut self, me: &MeReport) {
        let MeReport {
            role,
            acc,
            energy_uj,
            switches,
            final_level,
            packets_done,
            level_time,
        } = me;
        self.role(*role);
        for mode in MeMode::ALL {
            self.u64(acc.get(mode).as_ps());
        }
        self.f64(*energy_uj);
        self.u64(*switches);
        self.len(*final_level);
        self.u64(*packets_done);
        self.len(level_time.len());
        for t in level_time {
            self.u64(t.as_ps());
        }
    }

    fn dist(&mut self, parts: &DistParts) {
        let DistParts {
            rel,
            min,
            max,
            step,
            counts,
            sorted_values,
            nan_count,
            total,
        } = parts;
        self.u64(match rel {
            DistRel::Eq => 0,
            DistRel::Le => 1,
            DistRel::Ge => 2,
        });
        for &v in [min, max, step] {
            self.f64(v);
        }
        self.len(counts.len());
        for &c in counts {
            self.u64(c);
        }
        self.len(sorted_values.len());
        for &v in sorted_values {
            self.f64(v);
        }
        self.u64(*nan_count);
        self.u64(*total);
    }
}

/// The digest of a cell's result: its report, then both distributions.
fn result_digest(r: &ExperimentResult) -> u64 {
    let mut d = Digest::new();
    d.report(&r.sim);
    d.dist(&r.power.to_parts());
    d.dist(&r.throughput.to_parts());
    d.0
}

const SEED: u64 = 42;

/// `("benchmark traffic policy", cycles, digest of the result)`.
const CELLS: &[(&str, u64, u64)] = &[
    ("ipfwdr high nodvs", 400000, 0xf4cfa57d0ff6a3e7),
    (
        "ipfwdr high tdvs:threshold=1200",
        400000,
        0xe746ba9238464a9b,
    ),
    ("ipfwdr high edvs", 400000, 0x5ce4a85b0b20a5ce),
    ("url high nodvs", 400000, 0x608dd8228e112961),
    ("url high tdvs:threshold=1200", 400000, 0x43baf42288a0b51f),
    ("url high edvs", 400000, 0xc8d3f246e7784469),
    ("nat high nodvs", 400000, 0x0a08b2dc236a94b6),
    ("nat high tdvs:threshold=1200", 400000, 0x62072756bc9d4fe0),
    ("nat high edvs", 400000, 0xb42ae5d6f80f537b),
    ("md4 high nodvs", 400000, 0x389bb36480ca3134),
    ("md4 high tdvs:threshold=1200", 400000, 0xc4c67b524fc65287),
    ("md4 high edvs", 400000, 0xde61c07595e1200c),
    ("ipfwdr mmpp:rate=16000 edvs", 600000, 0xa1dbddaa423d965b),
    (
        "md4 stochastic:gap=exponential:mean=8,size=lognormal:mu=6,sigma=1.2 tdvs:threshold=1200",
        600000,
        0xaaefdf1d8a9bd0d0,
    ),
    ("ipfwdr high combined", 400000, 0xadc7341eaee65894),
    (
        "ipfwdr high tdvs:threshold=1200,hysteresis=0.1",
        400000,
        0x5fb3bdd253769bc9,
    ),
    ("ipfwdr high queue", 400000, 0xfe4d0333b387f76c),
    ("ipfwdr high proportional", 400000, 0x8fbf7057682c5101),
];

/// The staged-drain cell: `("benchmark traffic policy", boundaries, digest)`.
const SEGMENTS: (&str, [u64; 3], u64) = (
    "ipfwdr high edvs",
    [100_000, 250_000, 450_000],
    0xa1021a21987ae984,
);

fn experiment(cell: &str, cycles: u64) -> Experiment {
    let specs: Vec<&str> = cell.split(' ').collect();
    let [benchmark, traffic, policy] = specs[..] else {
        panic!("cell {cell:?} is not `benchmark traffic policy`");
    };
    Experiment {
        benchmark: benchmark.parse::<Benchmark>().expect("known benchmark"),
        traffic: TrafficSpec::parse(traffic).expect("valid traffic spec"),
        policy: PolicySpec::parse(policy).expect("valid policy spec"),
        cycles,
        seed: SEED,
    }
}

#[test]
fn cell_results_are_pinned() {
    let mut table = String::new();
    let mut diverged = Vec::new();
    for &(cell, cycles, pinned) in CELLS {
        let e = experiment(cell, cycles);
        let digest = result_digest(&e.run());
        table.push_str(&format!("    ({cell:?}, {cycles}, {digest:#018x}),\n"));
        if digest != pinned {
            diverged.push(e.label());
        }
    }
    assert!(
        diverged.is_empty(),
        "kernel output changed for {diverged:?}; current digests:\n{table}"
    );
}

#[test]
fn staged_drain_snapshots_are_pinned() {
    let (cell, boundaries, pinned) = SEGMENTS;
    let e = experiment(cell, boundaries[2]);
    let snapshots = Simulator::new(e.npu_config()).run_cycle_segments(&boundaries);
    let mut d = Digest::new();
    d.len(snapshots.len());
    for report in &snapshots {
        d.report(report);
    }
    let digest = d.0;
    assert_eq!(
        digest, pinned,
        "staged-drain snapshots changed; current digest {digest:#018x}"
    );
}
