//! Bit-for-bit pins of the event kernel.
//!
//! Each cell's digest is an FNV-1a-64 hash of its cache payload
//! (`cachefmt::encode_result`), which carries every `SimReport` field —
//! the kernel counters, the per-window idle samples and both paper
//! distributions — with every `f64` as its bit pattern. Any change to
//! the order in which the kernel pops events, to the time or energy
//! arithmetic, or to the workload programs moves at least one digest.
//!
//! The cells cover the paths a kernel rework can break: every benchmark
//! under no DVS, global TDVS and per-ME EDVS (parked-ME stalls and stale
//! steps), an overloaded MMPP source (RX loss and switches), a
//! heavy-tailed size mix (many distinct program lengths) and a staged
//! drain (`run_cycle_segments`). A failure prints the digest table the
//! current code produces; paste it in only for an intended change to
//! simulated results.

use abdex::cachefmt::encode_result;
use abdex::{Experiment, PolicySpec, TrafficSpec};
use nepsim::{Benchmark, Simulator};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const SEED: u64 = 42;

/// `("benchmark traffic policy", cycles, digest of the cache payload)`.
const CELLS: &[(&str, u64, u64)] = &[
    ("ipfwdr high nodvs", 400000, 0x38ec5d93a5bd8d01),
    (
        "ipfwdr high tdvs:threshold=1200",
        400000,
        0xfa66343e37e281f4,
    ),
    ("ipfwdr high edvs", 400000, 0x5d3043bee3f706e4),
    ("url high nodvs", 400000, 0xc76cc173e567e52c),
    ("url high tdvs:threshold=1200", 400000, 0x0ee2e202280dc963),
    ("url high edvs", 400000, 0x98c3057f036596ec),
    ("nat high nodvs", 400000, 0x73ceb3a7db3041b0),
    ("nat high tdvs:threshold=1200", 400000, 0x6a3a2f8aab6e64f7),
    ("nat high edvs", 400000, 0x70eb3dc745f21500),
    ("md4 high nodvs", 400000, 0xc609969e2ffe8e1d),
    ("md4 high tdvs:threshold=1200", 400000, 0xdb881cf5401a4bf6),
    ("md4 high edvs", 400000, 0x73a0a4f77d06cb42),
    ("ipfwdr mmpp:rate=16000 edvs", 600000, 0x2f700c2d889deff7),
    (
        "md4 stochastic:gap=exponential:mean=8,size=lognormal:mu=6,sigma=1.2 tdvs:threshold=1200",
        600000,
        0xca099a60ac33d805,
    ),
];

/// The staged-drain cell: `("benchmark traffic policy", boundaries, digest)`.
const SEGMENTS: (&str, [u64; 3], u64) = (
    "ipfwdr high edvs",
    [100_000, 250_000, 450_000],
    0x44616ad96a6be482,
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
fn cell_payloads_are_pinned() {
    let mut table = String::new();
    let mut diverged = Vec::new();
    for &(cell, cycles, pinned) in CELLS {
        let e = experiment(cell, cycles);
        let digest = fnv1a64(encode_result(&e.run()).as_bytes());
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
    let digest = fnv1a64(ccache::codec::snapshots_payload(&snapshots).as_bytes());
    assert_eq!(
        digest, pinned,
        "staged-drain snapshots changed; current digest {digest:#018x}"
    );
}
