//! End-of-run simulation reports.

use desim::SimTime;
use dvs::PolicyKind;
use obs::KernelCounters;
use serde::{Deserialize, Serialize};

use crate::engine::{MeMode, MeRole, ModeAcc};

/// One per-ME idle-fraction sample taken at a monitor-window boundary —
/// the measurements behind the paper's §4.2 bimodality observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowIdleSample {
    /// Window ordinal (0-based).
    pub window: u64,
    /// Microengine index.
    pub me: usize,
    /// Microengine role.
    pub role: MeRole,
    /// Fraction of the window the ME spent with all threads blocked on
    /// memory.
    pub idle: f64,
}

/// Per-microengine summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MeReport {
    /// Role of this ME.
    pub role: MeRole,
    /// Lifetime per-mode wall time.
    pub acc: ModeAcc,
    /// Energy consumed by this ME, µJ.
    pub energy_uj: f64,
    /// VF switches applied to this ME.
    pub switches: u64,
    /// Final VF level index.
    pub final_level: usize,
    /// Packets processed (rx) or transmitted (tx).
    pub packets_done: u64,
    /// Wall time spent at each VF level (index = ladder index, lowest
    /// frequency first).
    pub level_time: Vec<SimTime>,
}

impl MeReport {
    /// Fraction of the ME's accounted time spent at ladder level `index`.
    #[must_use]
    pub fn level_fraction(&self, index: usize) -> f64 {
        let total: SimTime = self.level_time.iter().copied().sum();
        if total == SimTime::ZERO || index >= self.level_time.len() {
            0.0
        } else {
            self.level_time[index].as_secs() / total.as_secs()
        }
    }

    /// Fraction of the ME's time spent idle (all threads memory-blocked)
    /// — the EDVS control signal.
    #[must_use]
    pub fn idle_fraction(&self) -> f64 {
        self.acc.fraction(MeMode::Idle)
    }

    /// Fraction spent executing or polling (active power draw).
    #[must_use]
    pub fn active_fraction(&self) -> f64 {
        self.acc.fraction(MeMode::Busy) + self.acc.fraction(MeMode::Polling)
    }
}

/// The summary of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Which DVS policy ran.
    pub policy: PolicyKind,
    /// Simulated wall time.
    pub duration: SimTime,
    /// Packets that arrived at the device ports.
    pub arrived_packets: u64,
    /// Bits that arrived at the device ports.
    pub arrived_bits: u64,
    /// Packets dropped at the receive FIFO (the trace's loss counter).
    pub dropped_packets: u64,
    /// Packets dropped at the processed-packet queue.
    pub dropped_tx_packets: u64,
    /// Packets fully forwarded (transmitted).
    pub forwarded_packets: u64,
    /// Bits forwarded.
    pub forwarded_bits: u64,
    /// Per-ME summaries.
    pub mes: Vec<MeReport>,
    /// ME energy (active + idle), µJ.
    pub me_energy_uj: f64,
    /// SRAM energy, µJ.
    pub sram_energy_uj: f64,
    /// SDRAM energy, µJ.
    pub sdram_energy_uj: f64,
    /// Static/background energy, µJ.
    pub static_energy_uj: f64,
    /// DVS monitor overhead energy, µJ.
    pub monitor_energy_uj: f64,
    /// SRAM accesses issued.
    pub sram_accesses: u64,
    /// SDRAM accesses issued.
    pub sdram_accesses: u64,
    /// Total VF switches across all MEs.
    pub total_switches: u64,
    /// Number of monitor windows elapsed.
    pub windows: u64,
    /// Bits pushed through the IX transmit bus.
    pub bus_bits: u64,
    /// The IX bus rate, Mbps.
    pub bus_rate_mbps: f64,
    /// Event-kernel tallies (events, heap ops) for this run. Pure
    /// functions of the event sequence — deterministic like every
    /// other field; wall-clock rates are measured by callers.
    pub kernel: KernelCounters,
    /// Per-window, per-ME idle fractions (§4.2 bimodality data).
    pub window_idle: Vec<WindowIdleSample>,
}

impl SimReport {
    /// Total chip energy, µJ.
    #[must_use]
    pub fn total_energy_uj(&self) -> f64 {
        self.me_energy_uj
            + self.sram_energy_uj
            + self.sdram_energy_uj
            + self.static_energy_uj
            + self.monitor_energy_uj
    }

    /// Mean chip power over the run, watts.
    #[must_use]
    pub fn mean_power_w(&self) -> f64 {
        let us = self.duration.as_us();
        if us <= 0.0 {
            0.0
        } else {
            self.total_energy_uj() / us
        }
    }

    /// Mean forwarding throughput, Mbps.
    #[must_use]
    pub fn throughput_mbps(&self) -> f64 {
        let us = self.duration.as_us();
        if us <= 0.0 {
            0.0
        } else {
            self.forwarded_bits as f64 / us
        }
    }

    /// Offered load, Mbps.
    #[must_use]
    pub fn offered_mbps(&self) -> f64 {
        let us = self.duration.as_us();
        if us <= 0.0 {
            0.0
        } else {
            self.arrived_bits as f64 / us
        }
    }

    /// Packet-loss ratio at the receive FIFO.
    #[must_use]
    pub fn loss_ratio(&self) -> f64 {
        if self.arrived_packets == 0 {
            0.0
        } else {
            (self.dropped_packets + self.dropped_tx_packets) as f64 / self.arrived_packets as f64
        }
    }

    /// Mean idle fraction of the receive MEs.
    #[must_use]
    pub fn rx_idle_fraction(&self) -> f64 {
        mean_idle(self.mes.iter().filter(|m| m.role == MeRole::Rx))
    }

    /// Mean idle fraction of the transmit MEs.
    #[must_use]
    pub fn tx_idle_fraction(&self) -> f64 {
        mean_idle(self.mes.iter().filter(|m| m.role == MeRole::Tx))
    }

    /// The fraction of total chip energy attributable to the DVS monitor
    /// hardware — the paper reports this is below 1 % (§4.1).
    #[must_use]
    pub fn monitor_overhead_fraction(&self) -> f64 {
        let total = self.total_energy_uj();
        if total <= 0.0 {
            0.0
        } else {
            self.monitor_energy_uj / total
        }
    }
}

fn mean_idle<'a, I: Iterator<Item = &'a MeReport>>(mes: I) -> f64 {
    let v: Vec<f64> = mes.map(MeReport::idle_fraction).collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        let mut rx_acc = ModeAcc::default();
        rx_acc.add(MeMode::Busy, SimTime::from_us(60));
        rx_acc.add(MeMode::Idle, SimTime::from_us(40));
        let mut tx_acc = ModeAcc::default();
        tx_acc.add(MeMode::Busy, SimTime::from_us(95));
        tx_acc.add(MeMode::Idle, SimTime::from_us(5));
        SimReport {
            policy: PolicyKind::NoDvs,
            duration: SimTime::from_us(100),
            arrived_packets: 100,
            arrived_bits: 100_000,
            dropped_packets: 5,
            dropped_tx_packets: 0,
            forwarded_packets: 95,
            forwarded_bits: 95_000,
            mes: vec![
                MeReport {
                    role: MeRole::Rx,
                    acc: rx_acc,
                    energy_uj: 10.0,
                    switches: 0,
                    final_level: 4,
                    packets_done: 95,
                    level_time: vec![SimTime::ZERO; 5],
                },
                MeReport {
                    role: MeRole::Tx,
                    acc: tx_acc,
                    energy_uj: 12.0,
                    switches: 0,
                    final_level: 4,
                    packets_done: 95,
                    level_time: vec![SimTime::ZERO; 5],
                },
            ],
            me_energy_uj: 22.0,
            sram_energy_uj: 1.0,
            sdram_energy_uj: 2.0,
            static_energy_uj: 30.0,
            monitor_energy_uj: 0.5,
            sram_accesses: 300,
            sdram_accesses: 400,
            total_switches: 0,
            windows: 0,
            bus_bits: 95_000,
            bus_rate_mbps: 1300.0,
            kernel: KernelCounters::default(),
            window_idle: Vec::new(),
        }
    }

    #[test]
    fn derived_metrics() {
        let r = report();
        assert!((r.total_energy_uj() - 55.5).abs() < 1e-12);
        // 55.5 uJ over 100 us = 0.555 W.
        assert!((r.mean_power_w() - 0.555).abs() < 1e-12);
        // 95,000 bits over 100 us = 950 Mbps.
        assert!((r.throughput_mbps() - 950.0).abs() < 1e-9);
        assert!((r.offered_mbps() - 1000.0).abs() < 1e-9);
        assert!((r.loss_ratio() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn idle_fractions_by_role() {
        let r = report();
        assert!((r.rx_idle_fraction() - 0.4).abs() < 1e-12);
        assert!((r.tx_idle_fraction() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn monitor_fraction() {
        let r = report();
        assert!((r.monitor_overhead_fraction() - 0.5 / 55.5).abs() < 1e-12);
    }

    #[test]
    fn zero_duration_is_safe() {
        let mut r = report();
        r.duration = SimTime::ZERO;
        assert_eq!(r.mean_power_w(), 0.0);
        assert_eq!(r.throughput_mbps(), 0.0);
        assert_eq!(r.offered_mbps(), 0.0);
    }
}
