//! Microengine state: threads, execution modes and time/energy accounting.

use desim::SimTime;
use serde::{Deserialize, Serialize};
use traffic::Packet;

use crate::power::LevelPower;
use crate::workload::Segment;

/// Whether a microengine receives/processes packets or transmits them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MeRole {
    /// Receive + process (runs the benchmark's rx program).
    Rx,
    /// Transmit (runs the shared tx program).
    Tx,
}

/// What a microengine is doing over an interval of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MeMode {
    /// Executing instructions (full active power).
    Busy,
    /// Busy-polling an empty FIFO or the bus-ready status — consumes
    /// active power but processes no packet work. *Not* idle for EDVS.
    Polling,
    /// All threads blocked on memory — the EDVS idle signal.
    Idle,
    /// Stalled by a VF-switch penalty.
    Stalled,
}

impl MeMode {
    /// All modes (accounting order).
    pub const ALL: [MeMode; 4] = [MeMode::Busy, MeMode::Polling, MeMode::Idle, MeMode::Stalled];

    const fn index(self) -> usize {
        match self {
            MeMode::Busy => 0,
            MeMode::Polling => 1,
            MeMode::Idle => 2,
            MeMode::Stalled => 3,
        }
    }
}

/// Why a thread is not runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ThreadState {
    /// Runnable.
    Ready,
    /// Waiting on an SRAM/SDRAM completion.
    BlockedMem,
    /// Waiting for the IX bus (busy-poll: active power).
    BlockedBus,
    /// Waiting for a packet to appear in the input queue (busy-poll).
    WaitingPacket,
}

/// One hardware thread of a microengine.
#[derive(Debug)]
pub(crate) struct Thread {
    pub state: ThreadState,
    /// The per-packet program currently being executed; once `pc` runs
    /// past its end the thread fetches its next packet. Refilled in place
    /// for every packet, so its allocation is reused.
    pub program: Vec<Segment>,
    pub pc: usize,
    pub packet: Option<Packet>,
}

impl Thread {
    pub(crate) fn new() -> Self {
        Thread {
            state: ThreadState::Ready,
            program: Vec::new(),
            pc: 0,
            packet: None,
        }
    }

    /// `true` when the thread has finished (or never had) a program and
    /// must fetch its next packet.
    pub(crate) fn needs_fetch(&self) -> bool {
        self.pc >= self.program.len()
    }
}

/// Per-mode accumulated wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModeAcc {
    durations: [SimTime; 4],
}

impl ModeAcc {
    /// Accumulated time in `mode`.
    #[must_use]
    pub fn get(&self, mode: MeMode) -> SimTime {
        self.durations[mode.index()]
    }

    /// Adds `dt` to `mode`.
    pub fn add(&mut self, mode: MeMode, dt: SimTime) {
        self.durations[mode.index()] += dt;
    }

    /// Sum over all modes.
    #[must_use]
    pub fn total(&self) -> SimTime {
        self.durations.iter().copied().sum()
    }

    /// Resets all buckets to zero.
    pub fn reset(&mut self) {
        self.durations = [SimTime::ZERO; 4];
    }

    /// Fraction of the total spent in `mode` (0 when nothing accumulated).
    #[must_use]
    pub fn fraction(&self, mode: MeMode) -> f64 {
        let total = self.total().as_secs();
        if total <= 0.0 {
            0.0
        } else {
            self.get(mode).as_secs() / total
        }
    }
}

/// A microengine: threads plus mode/energy accounting.
#[derive(Debug)]
pub(crate) struct Microengine {
    pub role: MeRole,
    pub threads: Vec<Thread>,
    /// Round-robin pointer for thread scheduling.
    pub next_thread: usize,
    /// Current VF level (index into the ladder).
    pub level_idx: usize,
    /// Current accounting mode.
    pub mode: MeMode,
    /// Time the current mode began.
    pub mode_since: SimTime,
    /// `true` when the ME has no scheduled continuation and must be woken
    /// by an external event.
    pub parked: bool,
    /// Invalidates stale `MeStep` events after a wake-by-other-source.
    pub step_token: u64,
    /// End of a pending VF-switch stall.
    pub stalled_until: SimTime,
    /// Lifetime per-mode accounting.
    pub acc: ModeAcc,
    /// Per-monitor-window accounting (reset at each window boundary).
    pub window_acc: ModeAcc,
    /// Energy consumed by this ME so far, µJ (accounted intervals only).
    pub energy_uj: f64,
    /// Wall time spent at each VF level (index = ladder index).
    pub level_acc: Vec<SimTime>,
    /// Number of VF switches applied to this ME.
    pub switches: u64,
    /// Packets fully processed (rx) or transmitted (tx) by this ME.
    pub packets_done: u64,
}

impl Microengine {
    pub(crate) fn new(role: MeRole, threads: usize, top_level: usize) -> Self {
        Microengine {
            role,
            threads: (0..threads).map(|_| Thread::new()).collect(),
            next_thread: 0,
            level_idx: top_level,
            mode: MeMode::Polling,
            mode_since: SimTime::ZERO,
            parked: true,
            step_token: 0,
            stalled_until: SimTime::ZERO,
            acc: ModeAcc::default(),
            window_acc: ModeAcc::default(),
            energy_uj: 0.0,
            level_acc: vec![SimTime::ZERO; top_level + 1],
            switches: 0,
            packets_done: 0,
        }
    }

    /// Instantaneous power in watts for `mode` at the current level.
    pub(crate) fn power_w(&self, mode: MeMode, levels: &[LevelPower]) -> f64 {
        let level = &levels[self.level_idx];
        match mode {
            MeMode::Busy | MeMode::Polling => level.active_w,
            MeMode::Idle | MeMode::Stalled => level.idle_w,
        }
    }

    /// Closes the accounting interval `[mode_since, now]` under the
    /// current mode, accumulating wall time and energy.
    pub(crate) fn account(&mut self, now: SimTime, levels: &[LevelPower]) {
        debug_assert!(now >= self.mode_since, "accounting time went backwards");
        let dt = now.saturating_sub(self.mode_since);
        if dt > SimTime::ZERO {
            self.acc.add(self.mode, dt);
            self.window_acc.add(self.mode, dt);
            self.energy_uj += self.power_w(self.mode, levels) * dt.as_secs() * 1e6;
            self.level_acc[self.level_idx] += dt;
        }
        self.mode_since = now;
    }

    /// Accounts up to `now` and switches to `mode`.
    pub(crate) fn set_mode(&mut self, now: SimTime, mode: MeMode, levels: &[LevelPower]) {
        self.account(now, levels);
        self.mode = mode;
    }

    /// Energy of the still-open interval `[mode_since, now]`, µJ.
    pub(crate) fn pending_energy_uj(&self, now: SimTime, levels: &[LevelPower]) -> f64 {
        let dt = now.saturating_sub(self.mode_since);
        self.power_w(self.mode, levels) * dt.as_secs() * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PowerParams;
    use dvs::VfLadder;

    fn me() -> Microengine {
        Microengine::new(MeRole::Rx, 4, VfLadder::xscale_npu().top_index())
    }

    fn levels() -> Vec<LevelPower> {
        LevelPower::table(&VfLadder::xscale_npu(), &PowerParams::default())
    }

    #[test]
    fn mode_acc_tracks_buckets() {
        let mut acc = ModeAcc::default();
        acc.add(MeMode::Busy, SimTime::from_us(3));
        acc.add(MeMode::Idle, SimTime::from_us(1));
        assert_eq!(acc.get(MeMode::Busy), SimTime::from_us(3));
        assert_eq!(acc.total(), SimTime::from_us(4));
        assert!((acc.fraction(MeMode::Idle) - 0.25).abs() < 1e-12);
        acc.reset();
        assert_eq!(acc.total(), SimTime::ZERO);
    }

    #[test]
    fn accounting_accumulates_time_and_energy() {
        let mut m = me();
        m.mode = MeMode::Busy;
        m.mode_since = SimTime::ZERO;
        m.account(SimTime::from_us(10), &levels());
        assert_eq!(m.acc.get(MeMode::Busy), SimTime::from_us(10));
        // 0.18 W for 10us = 1.8 uJ.
        assert!((m.energy_uj - 1.8).abs() < 1e-9, "energy {}", m.energy_uj);
    }

    #[test]
    fn idle_power_is_reduced() {
        let levels = levels();
        let m = me();
        let busy = m.power_w(MeMode::Busy, &levels);
        let idle = m.power_w(MeMode::Idle, &levels);
        assert!((idle / busy - PowerParams::default().idle_factor).abs() < 1e-12);
        // Polling costs the same as busy.
        assert_eq!(m.power_w(MeMode::Polling, &levels), busy);
    }

    #[test]
    fn lower_level_cuts_power() {
        let levels = levels();
        let mut m = me();
        let top = m.power_w(MeMode::Busy, &levels);
        m.level_idx = 0;
        let bottom = m.power_w(MeMode::Busy, &levels);
        assert!((bottom / top - 0.477).abs() < 0.01);
    }

    #[test]
    fn set_mode_closes_interval() {
        let mut m = me();
        m.mode = MeMode::Idle;
        m.set_mode(SimTime::from_us(4), MeMode::Busy, &levels());
        assert_eq!(m.acc.get(MeMode::Idle), SimTime::from_us(4));
        assert_eq!(m.mode, MeMode::Busy);
        assert_eq!(m.mode_since, SimTime::from_us(4));
    }

    #[test]
    fn pending_energy_matches_future_accounting() {
        let levels = levels();
        let mut m = me();
        m.mode = MeMode::Busy;
        let pending = m.pending_energy_uj(SimTime::from_us(7), &levels);
        m.account(SimTime::from_us(7), &levels);
        assert!((pending - m.energy_uj).abs() < 1e-12);
    }

    #[test]
    fn thread_fetch_lifecycle() {
        let mut t = Thread::new();
        assert!(t.needs_fetch());
        t.program = vec![Segment::Compute(10)];
        t.pc = 0;
        assert!(!t.needs_fetch());
        t.pc = 1;
        assert!(t.needs_fetch());
    }
}
