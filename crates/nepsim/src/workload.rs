//! The four benchmark applications (paper §3.1), modelled as per-packet
//! segment programs.
//!
//! The paper characterises each application by its memory behaviour:
//!
//! * `ipfwdr` — checks the routing table in SRAM and the output-port
//!   information in SDRAM for every packet; receive MEs also move packet
//!   data into SDRAM. Memory-dependent with meaningful compute.
//! * `url` — routes on URL content, so it "checks the payload of packets
//!   frequently" and needs "a large number of SRAM and SDRAM accesses".
//! * `nat` — "each packet only needs an access to SRAM"; the MEs are kept
//!   busy computing, so EDVS finds no idle time to exploit.
//! * `md4` — computes a 128-bit digest; "moves data packets from SDRAM to
//!   SRAM and accesses SRAM multiple times"; both memory- and
//!   computation-intensive.
//!
//! Segment cycle counts are calibrated (see `DESIGN.md`) so the modelled
//! 4-rx-ME cluster saturates slightly above the paper's high traffic level
//! at 600 MHz and slightly below it at 400 MHz — the regime in which the
//! TDVS threshold/window trade-offs of Figures 6–9 are visible.

use serde::{Deserialize, Serialize};

/// One step of a packet-processing program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Segment {
    /// Execute `n` instructions (one per ME cycle).
    Compute(u32),
    /// One SRAM read/write (thread blocks until completion).
    Sram,
    /// One SDRAM access (~100 core cycles at the controller, plus
    /// queueing). Workload programs chain [`SDRAM_CHAIN`] of these
    /// back-to-back to model dependent transactions (descriptor read →
    /// data burst → status update); the thread re-blocks on each.
    Sdram,
    /// Transmit `bits` over the shared IX bus (thread busy-polls the
    /// transmit-ready status while waiting — not ME idle time).
    BusTx(u32),
}

/// Number of dependent SDRAM accesses chained per workload transaction.
pub const SDRAM_CHAIN: usize = 3;

/// Appends one dependent SDRAM transaction ([`SDRAM_CHAIN`] back-to-back
/// accesses) to a program.
fn push_sdram_txn(p: &mut Vec<Segment>) {
    for _ in 0..SDRAM_CHAIN {
        p.push(Segment::Sdram);
    }
}

/// The benchmark applications of paper §3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Benchmark {
    /// IP forwarding (Intel SDK reference application).
    Ipfwdr,
    /// URL-based routing.
    Url,
    /// Network address translation.
    Nat,
    /// MD4 digital-signature computation.
    Md4,
}

impl Benchmark {
    /// All four benchmarks, in the paper's order.
    pub const ALL: [Benchmark; 4] = [
        Benchmark::Ipfwdr,
        Benchmark::Url,
        Benchmark::Nat,
        Benchmark::Md4,
    ];

    /// Number of 64-byte transfer chunks in a packet of `size_bytes`.
    fn chunks(size_bytes: u32) -> u32 {
        size_bytes.div_ceil(64)
    }

    /// The receive-side program run for one packet of `size_bytes`.
    ///
    /// All programs start after the packet has been fetched from the
    /// receive FIFO and end by handing the packet to the transmit queue.
    #[must_use]
    pub fn rx_program(self, size_bytes: u32) -> Vec<Segment> {
        let mut p = Vec::with_capacity(24);
        self.rx_program_into(size_bytes, &mut p);
        p
    }

    /// Writes [`Benchmark::rx_program`] into `p`, replacing its contents
    /// and reusing its allocation.
    pub(crate) fn rx_program_into(self, size_bytes: u32, p: &mut Vec<Segment>) {
        let chunks = Self::chunks(size_bytes);
        p.clear();
        match self {
            Benchmark::Ipfwdr => {
                // Receive the packet into SDRAM: per 64-byte chunk, a
                // handful of short instruction bundles each ending in a
                // dependent SDRAM transaction (rx FIFO drain + store).
                for _ in 0..chunks {
                    for _ in 0..4 {
                        p.push(Segment::Compute(85));
                        push_sdram_txn(p);
                    }
                }
                // Route lookup: a trie walk in SRAM.
                for _ in 0..4 {
                    p.push(Segment::Compute(60));
                    p.push(Segment::Sram);
                }
                // Output-port information in SDRAM; header rewrite.
                p.push(Segment::Compute(500));
                push_sdram_txn(p);
                p.push(Segment::Compute(300));
            }
            Benchmark::Url => {
                // Payload scan: every chunk is pulled from SDRAM and
                // matched against SRAM-resident patterns.
                p.push(Segment::Compute(200));
                for _ in 0..chunks {
                    for _ in 0..4 {
                        p.push(Segment::Compute(55));
                        push_sdram_txn(p);
                    }
                    p.push(Segment::Compute(70));
                    p.push(Segment::Sram);
                    p.push(Segment::Compute(70));
                    p.push(Segment::Sram);
                }
                p.push(Segment::Sram);
                p.push(Segment::Compute(300));
            }
            Benchmark::Nat => {
                // One SRAM lookup for the translation table; the rest is
                // header arithmetic — the MEs stay busy.
                p.push(Segment::Compute(1500));
                p.push(Segment::Sram);
                p.push(Segment::Compute(2300));
            }
            Benchmark::Md4 => {
                // Move the packet SDRAM -> SRAM...
                for _ in 0..chunks {
                    p.push(Segment::Compute(50));
                    push_sdram_txn(p);
                    push_sdram_txn(p);
                    p.push(Segment::Sram);
                    p.push(Segment::Sram);
                }
                // ...then digest it (MD4 is ~10 cycles/byte on a RISC core).
                p.push(Segment::Compute(10 * size_bytes.max(64)));
            }
        }
    }

    /// The transmit-side program for one packet of `size_bytes` — shared
    /// by all benchmarks: read the packet back from SDRAM and push it over
    /// the IX bus.
    #[must_use]
    pub fn tx_program(self, size_bytes: u32) -> Vec<Segment> {
        let mut p = Vec::with_capacity(8);
        self.tx_program_into(size_bytes, &mut p);
        p
    }

    /// Writes [`Benchmark::tx_program`] into `p`, replacing its contents
    /// and reusing its allocation.
    pub(crate) fn tx_program_into(self, size_bytes: u32, p: &mut Vec<Segment>) {
        let chunks = Self::chunks(size_bytes);
        p.clear();
        p.push(Segment::Compute(250));
        for _ in 0..chunks.min(2) {
            push_sdram_txn(p);
            p.push(Segment::Compute(80));
        }
        p.push(Segment::BusTx(size_bytes * 8));
        p.push(Segment::Compute(150));
    }

    /// Total compute cycles (excluding memory waits) in the rx program —
    /// useful for capacity estimates and calibration tests.
    #[must_use]
    pub fn rx_compute_cycles(self, size_bytes: u32) -> u64 {
        self.rx_program(size_bytes)
            .iter()
            .map(|s| match s {
                Segment::Compute(n) => u64::from(*n),
                _ => 0,
            })
            .sum()
    }

    /// Number of SDRAM accesses in the rx program.
    #[must_use]
    pub fn rx_sdram_accesses(self, size_bytes: u32) -> usize {
        self.rx_program(size_bytes)
            .iter()
            .filter(|s| matches!(s, Segment::Sdram))
            .count()
    }

    /// Number of SRAM accesses in the rx program.
    #[must_use]
    pub fn rx_sram_accesses(self, size_bytes: u32) -> usize {
        self.rx_program(size_bytes)
            .iter()
            .filter(|s| matches!(s, Segment::Sram))
            .count()
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Benchmark::Ipfwdr => "ipfwdr",
            Benchmark::Url => "url",
            Benchmark::Nat => "nat",
            Benchmark::Md4 => "md4",
        })
    }
}

impl std::str::FromStr for Benchmark {
    type Err = String;

    /// Parses a benchmark name, case-insensitively; the error lists
    /// every known name.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "ipfwdr" => Ok(Benchmark::Ipfwdr),
            "url" => Ok(Benchmark::Url),
            "nat" => Ok(Benchmark::Nat),
            "md4" => Ok(Benchmark::Md4),
            other => {
                let known: Vec<String> = Benchmark::ALL.iter().map(ToString::to_string).collect();
                Err(format!(
                    "unknown benchmark '{other}' (known: {})",
                    known.join(", ")
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_program_contains_compute() {
        for b in Benchmark::ALL {
            for size in [40, 576, 1500] {
                assert!(
                    b.rx_program(size)
                        .iter()
                        .any(|s| matches!(s, Segment::Compute(_))),
                    "{b} rx program for {size}B has no compute"
                );
                assert!(
                    b.tx_program(size)
                        .iter()
                        .any(|s| matches!(s, Segment::Compute(_))),
                    "{b} tx program for {size}B has no compute"
                );
            }
        }
    }

    #[test]
    fn tx_program_transmits_full_packet() {
        for b in Benchmark::ALL {
            let bits: u32 = b
                .tx_program(576)
                .iter()
                .map(|s| match s {
                    Segment::BusTx(bits) => *bits,
                    _ => 0,
                })
                .sum();
            assert_eq!(bits, 576 * 8, "{b}");
        }
    }

    #[test]
    fn nat_is_sram_only() {
        assert_eq!(Benchmark::Nat.rx_sdram_accesses(1500), 0);
        assert_eq!(Benchmark::Nat.rx_sram_accesses(1500), 1);
    }

    #[test]
    fn url_is_memory_heavy() {
        // url "needs a large number of SRAM and SDRAM accesses" — it makes
        // the most SRAM accesses of the four and plenty of SDRAM accesses.
        let sram = |b: Benchmark| b.rx_sram_accesses(576);
        assert!(sram(Benchmark::Url) > sram(Benchmark::Ipfwdr));
        assert!(sram(Benchmark::Url) > sram(Benchmark::Nat));
        assert!(sram(Benchmark::Url) > sram(Benchmark::Md4));
        assert!(Benchmark::Url.rx_sdram_accesses(576) > 50);
    }

    #[test]
    fn md4_is_compute_and_memory_intensive() {
        let md4 = Benchmark::Md4;
        // Most compute of the four (the digest)...
        for other in [Benchmark::Ipfwdr, Benchmark::Url, Benchmark::Nat] {
            assert!(md4.rx_compute_cycles(1500) > other.rx_compute_cycles(1500));
        }
        // ...and it moves data SDRAM -> SRAM, touching SRAM multiple times
        // per chunk.
        assert!(md4.rx_sdram_accesses(1500) > 0);
        assert!(md4.rx_sram_accesses(1500) >= 2 * 24);
    }

    #[test]
    fn programs_scale_with_packet_size() {
        for b in [Benchmark::Ipfwdr, Benchmark::Url, Benchmark::Md4] {
            assert!(
                b.rx_program(1500).len() > b.rx_program(40).len(),
                "{b} should do more work for bigger packets"
            );
        }
    }

    #[test]
    fn chunk_arithmetic() {
        assert_eq!(Benchmark::chunks(40), 1);
        assert_eq!(Benchmark::chunks(64), 1);
        assert_eq!(Benchmark::chunks(65), 2);
        assert_eq!(Benchmark::chunks(1500), 24);
    }

    #[test]
    fn display_names_match_paper() {
        let names: Vec<String> = Benchmark::ALL.iter().map(|b| b.to_string()).collect();
        assert_eq!(names, vec!["ipfwdr", "url", "nat", "md4"]);
    }

    #[test]
    fn from_str_is_case_insensitive_and_lists_names() {
        for b in Benchmark::ALL {
            assert_eq!(b.to_string().parse::<Benchmark>().unwrap(), b);
            assert_eq!(
                b.to_string().to_uppercase().parse::<Benchmark>().unwrap(),
                b
            );
        }
        let err = "quake".parse::<Benchmark>().unwrap_err();
        assert!(err.contains("quake"));
        assert!(err.contains("ipfwdr"));
        assert!(err.contains("md4"));
    }
}
