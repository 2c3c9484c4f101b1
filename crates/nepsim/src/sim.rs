//! The event-driven simulation core.
//!
//! # Model
//!
//! The simulator advances in discrete events over picosecond time:
//!
//! * **Arrivals** come from a [`traffic::PacketStream`] and enter the
//!   bounded receive FIFO (overflow = packet loss).
//! * Each **microengine** executes one thread at a time. Compute segments
//!   advance the ME's clock in bulk (one event per segment); memory
//!   accesses block the issuing thread and the ME context-switches to the
//!   next ready thread. When *all* threads are blocked on memory the ME is
//!   **idle** (the EDVS signal); when threads are waiting for packets or
//!   the transmit bus the ME **busy-polls** (active power, not idle) —
//!   exactly the §4.2 distinction.
//! * **DVS windows** fire every `window_cycles` of the base 600 MHz clock;
//!   the configured policy observes the window (traffic volume for TDVS,
//!   per-ME idle fraction for EDVS) and VF switches stall the affected MEs
//!   for the 10 µs penalty.
//!
//! A VF change takes effect from the next segment the ME issues; a compute
//! segment already in flight completes at its issue-time frequency. At the
//! segment granularity of this model the deferral is at most a few hundred
//! cycles and is dwarfed by the 6000-cycle switch penalty.

use std::collections::VecDeque;

use desim::{EventQueue, SimTime};
use dvs::{
    DvsPolicy, MeObservation, PolicyObservation, QueueObservation, ScalingDecision,
    MONITOR_ADDER_ENERGY_UJ, SWITCH_PENALTY,
};
use loc::{AnalyzerBank, Annotations, BankResults, Trace};
use obs::{Channel, NullRecorder, Recorder, Recording};
use traffic::{Packet, PacketSource, RecordedTrace, TrafficModel};

use crate::config::NpuConfig;
use crate::engine::{MeMode, MeRole, Microengine, ThreadState};
use crate::memory::{MemoryController, TxBus};
use crate::power::{EnergyMeter, LevelPower};
use crate::report::{MeReport, SimReport, WindowIdleSample};
use crate::trace_out::TraceCollector;
use crate::workload::Segment;

/// Simulation events.
///
/// The queue moves events on every heap sift, so they are kept to 16
/// bytes: the one pending arrival's packet waits in
/// [`Simulator::next_arrival`], and ME and thread indices are `u32`
/// ([`Simulator::new`] checks that the counts fit).
#[derive(Debug)]
enum Ev {
    /// The packet in [`Simulator::next_arrival`] arrives at a device port.
    Arrival,
    /// A memory access or bus transfer issued by `(me, thread)` completed.
    Done { me: u32, thread: u32 },
    /// A microengine's scheduled continuation (compute end, stall end).
    MeStep { me: u32, token: u64 },
    /// DVS monitor-window boundary.
    Window,
}

const _: () = assert!(std::mem::size_of::<Ev>() <= 16);

/// Event-queue lanes for the `Done` completions of the three
/// first-come first-served servers. Each server starts an access at
/// `max(now, busy_until)`, so its completion times never decrease in
/// issue order — the queue's lane contract.
const SRAM_LANE: usize = 0;
const SDRAM_LANE: usize = 1;
const BUS_LANE: usize = 2;
const LANES: usize = 3;

/// The NePSim-style simulator. See the [crate docs](crate) for the model
/// and [`NpuConfig`] for the knobs.
///
/// # Example
///
/// ```
/// use nepsim::{Benchmark, NpuConfig, Simulator};
///
/// let mut sim = Simulator::new(NpuConfig::builder().benchmark(Benchmark::Nat).build());
/// let report = sim.run_cycles(100_000);
/// assert!(report.arrived_packets > 0);
/// ```
#[derive(Debug)]
pub struct Simulator {
    config: NpuConfig,
    queue: EventQueue<Ev>,
    /// The packet of the one pending [`Ev::Arrival`]: each arrival
    /// schedules the next, so at most one is ever queued.
    next_arrival: Option<Packet>,
    mes: Vec<Microengine>,
    /// ME clock and power of every VF level, indexed like the ladder.
    levels: Vec<LevelPower>,
    sram: MemoryController,
    sdram: MemoryController,
    bus: TxBus,
    rx_fifo: VecDeque<Packet>,
    tx_queue: VecDeque<Packet>,
    arrivals: PacketSource,
    policy: Box<dyn DvsPolicy>,
    /// Cached `policy.monitors_traffic()` — consulted on every arrival.
    monitor_per_packet: bool,
    meter: EnergyMeter,
    trace: TraceCollector,
    recorder: Box<dyn Recorder>,
    /// Chip energy at the last recorded window boundary, µJ. Touched
    /// only when the recorder is enabled (power-channel deltas).
    rec_energy_uj: f64,
    /// Forwarded bits at the last recorded window boundary. Touched
    /// only when the recorder is enabled (served-bytes deltas).
    rec_forwarded_bits: u64,
    /// Cached `recorder.enabled()` — consulted on every forwarded
    /// packet, mirroring `monitor_per_packet`.
    rec_enabled: bool,
    /// Sojourn time (arrival to forward) summed over the packets
    /// forwarded this window, µs. Touched only when the recorder is
    /// enabled (queue-wait channel).
    window_wait_us: f64,
    /// Packets behind `window_wait_us`.
    window_wait_n: u64,
    window_dur: SimTime,
    window_bits: u64,
    window_rx_drops: u64,
    window_tx_drops: u64,
    windows: u64,
    window_idle: Vec<WindowIdleSample>,
    arrived_packets: u64,
    arrived_bits: u64,
    dropped_packets: u64,
    dropped_tx_packets: u64,
    forwarded_packets: u64,
    forwarded_bits: u64,
    end: SimTime,
    started: bool,
}

impl Simulator {
    /// Builds a simulator from a validated configuration.
    #[must_use]
    pub fn new(config: NpuConfig) -> Self {
        config.validate();
        assert!(
            u32::try_from(config.total_mes()).is_ok()
                && u32::try_from(config.threads_per_me).is_ok(),
            "ME and thread counts must fit in u32"
        );
        // The traffic spec was validated by its grammar; only IO (a
        // missing trace file) can fail here, and that is a broken
        // configuration, not a recoverable state.
        let traffic = config
            .traffic
            .model()
            .unwrap_or_else(|e| panic!("invalid traffic spec: {e}"));
        let top = config.ladder.top_index();
        let mes: Vec<Microengine> = (0..config.total_mes())
            .map(|i| {
                let role = if i < config.rx_mes {
                    MeRole::Rx
                } else {
                    MeRole::Tx
                };
                Microengine::new(role, config.threads_per_me, top)
            })
            .collect();
        let policy = config.policy.build(&config.ladder);
        // Windows always fire: the policy's window if it has one, the
        // statistics window otherwise (idle sampling under noDVS).
        let window_dur = config
            .base_freq()
            .cycles_to_time(policy.window_cycles().unwrap_or(config.stats_window_cycles));
        let mem = config.memory;
        Simulator {
            queue: EventQueue::with_lanes(LANES),
            next_arrival: None,
            mes,
            levels: LevelPower::table(&config.ladder, &config.power),
            sram: MemoryController::new(mem.sram_latency, mem.sram_service, mem.sram_energy_uj),
            sdram: MemoryController::new(mem.sdram_latency, mem.sdram_service, mem.sdram_energy_uj),
            bus: TxBus::new(config.bus_rate_mbps),
            rx_fifo: VecDeque::new(),
            tx_queue: VecDeque::new(),
            arrivals: traffic.stream(config.seed),
            monitor_per_packet: policy.monitors_traffic(),
            policy,
            meter: EnergyMeter::new(),
            trace: TraceCollector::new(config.trace),
            recorder: Box::new(NullRecorder),
            rec_energy_uj: 0.0,
            rec_forwarded_bits: 0,
            rec_enabled: false,
            window_wait_us: 0.0,
            window_wait_n: 0,
            window_dur,
            window_bits: 0,
            window_rx_drops: 0,
            window_tx_drops: 0,
            windows: 0,
            window_idle: Vec::new(),
            arrived_packets: 0,
            arrived_bits: 0,
            dropped_packets: 0,
            dropped_tx_packets: 0,
            forwarded_packets: 0,
            forwarded_bits: 0,
            end: SimTime::ZERO,
            started: false,
            config,
        }
    }

    /// The configuration this simulator runs.
    #[must_use]
    pub fn config(&self) -> &NpuConfig {
        &self.config
    }

    /// Replaces the live arrival generator with a recorded trace — the
    /// paper's replay-a-sampled-trace workflow (§3.2). The configured
    /// `traffic` spec is ignored; every other knob applies unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the simulator has already run.
    #[must_use]
    pub fn with_replay(mut self, trace: RecordedTrace) -> Self {
        assert!(!self.started, "cannot swap arrivals after running");
        self.arrivals = PacketSource::new(trace.into_iter());
        self
    }

    /// Replaces the configured traffic model with an arbitrary
    /// [`TrafficModel`] implementation — the escape hatch for packet
    /// sources that live outside the `traffic` registry, mirroring
    /// [`Simulator::with_policy`]. The model is instantiated with the
    /// configured seed; the `traffic` spec is ignored.
    ///
    /// # Panics
    ///
    /// Panics if the simulator has already run.
    #[must_use]
    pub fn with_traffic(mut self, model: &dyn TrafficModel) -> Self {
        assert!(!self.started, "cannot swap arrivals after running");
        self.arrivals = model.stream(self.config.seed);
        self
    }

    /// Attaches a [`Recorder`] receiving one sample per [`Channel`] at
    /// every monitor-window boundary. The default [`NullRecorder`]
    /// reports disabled, so an unattached run computes no samples; an
    /// attached recorder never feeds back into the simulation, so the
    /// run's [`SimReport`] stays bit-identical either way
    /// (`crates/core/tests/determinism.rs` guards this).
    ///
    /// # Panics
    ///
    /// Panics if the simulator has already run.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Box<dyn Recorder>) -> Self {
        assert!(!self.started, "cannot attach a recorder after running");
        self.rec_enabled = recorder.enabled();
        self.recorder = recorder;
        self
    }

    /// Takes the recording accumulated so far, leaving the recorder
    /// empty. Empty unless a [`Simulator::with_recorder`] recorder was
    /// attached before the run.
    pub fn take_recording(&mut self) -> Recording {
        self.recorder.take()
    }

    /// Streams the trace into `bank` while the simulation runs: each
    /// record goes to [`AnalyzerBank::push`] as it is emitted, in the
    /// order a buffered trace would hold it, so the results equal
    /// [`AnalyzerBank::analyze`] over [`Simulator::trace`] of an
    /// unattached run bit for bit. Nothing is buffered, so `trace()`
    /// stays empty; attach an empty bank to keep no trace at all. Like a
    /// recorder, the bank never feeds back into the simulation: the
    /// [`SimReport`] is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the simulator has already run.
    #[must_use]
    pub fn with_analyzers(mut self, bank: AnalyzerBank) -> Self {
        assert!(!self.started, "cannot attach analyzers after running");
        self.trace.attach(bank, self.mes.len());
        self
    }

    /// Finishes the bank attached with [`Simulator::with_analyzers`] and
    /// returns its results, indexed by the handles its `add_*` calls
    /// returned. Finishing sorts each analyzer's values for exact
    /// quantiles. Empty when no bank is attached; a second call returns
    /// empty results too.
    pub fn take_analysis(&mut self) -> BankResults {
        self.trace.take_analysis()
    }

    /// Replaces the configured policy with an arbitrary [`DvsPolicy`]
    /// implementation — the escape hatch for policies that live outside
    /// the `dvs` registry (see the trait docs for a walkthrough). The
    /// configured `policy` spec is ignored; the monitor window and
    /// per-packet monitor overhead follow the injected policy.
    ///
    /// # Panics
    ///
    /// Panics if the simulator has already run.
    #[must_use]
    pub fn with_policy(mut self, policy: Box<dyn DvsPolicy>) -> Self {
        assert!(!self.started, "cannot swap the policy after running");
        self.window_dur = self.config.base_freq().cycles_to_time(
            policy
                .window_cycles()
                .unwrap_or(self.config.stats_window_cycles),
        );
        self.monitor_per_packet = policy.monitors_traffic();
        self.policy = policy;
        self
    }

    /// Runs for `cycles` of the base (600 MHz) clock — the paper runs
    /// 8×10⁶ cycles per configuration — and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if called twice — a simulator instance models one run.
    pub fn run_cycles(&mut self, cycles: u64) -> SimReport {
        let _prof = obs::prof::span("simulate");
        let dur = self.config.base_freq().cycles_to_time(cycles);
        self.start(dur);
        self.drain_until(dur);
        self.close_accounting(dur);
        let report = self.build_report(dur);
        count_run(&report, cycles);
        report
    }

    /// Runs one simulation to each of the strictly increasing cycle
    /// `boundaries` (of the base 600 MHz clock) and returns one
    /// **cumulative** report snapshot per boundary; the last boundary
    /// is the run's horizon, so the final snapshot is the whole-run
    /// report [`Simulator::run_cycles`] would have produced.
    ///
    /// This is the primitive behind per-segment scenario metrics: a
    /// caller diffs consecutive snapshots to attribute energy, drops
    /// and idle time to each window slice, from a *single* simulation —
    /// the chip state (FIFO contents, VF levels, policy state) carries
    /// across boundaries exactly as in an unsegmented run. Events
    /// landing exactly on a boundary are included in the earlier slice,
    /// matching the inclusive horizon of [`Simulator::run_cycles`].
    ///
    /// # Panics
    ///
    /// Panics if called after the simulator has run, if `boundaries` is
    /// empty, or if the boundaries are not strictly increasing from a
    /// non-zero first boundary.
    pub fn run_cycle_segments(&mut self, boundaries: &[u64]) -> Vec<SimReport> {
        assert!(!boundaries.is_empty(), "need at least one boundary");
        assert!(boundaries[0] > 0, "the first boundary must be positive");
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "boundaries must be strictly increasing"
        );
        let _prof = obs::prof::span("simulate");
        let times: Vec<SimTime> = boundaries
            .iter()
            .map(|&c| self.config.base_freq().cycles_to_time(c))
            .collect();
        self.start(*times.last().expect("non-empty boundaries"));
        let mut reports = Vec::with_capacity(times.len());
        for t in times {
            self.drain_until(t);
            self.close_accounting(t);
            reports.push(self.build_report(t));
        }
        // Snapshots are cumulative, so only the final (whole-run) one
        // is counted.
        if let Some(last) = reports.last() {
            count_run(last, boundaries[boundaries.len() - 1]);
        }
        reports
    }

    /// Marks the run started and schedules the bootstrap events: first
    /// arrival, first window, and a step for every ME (which parks them
    /// polling their empty input queues).
    fn start(&mut self, dur: SimTime) {
        assert!(!self.started, "a Simulator instance runs exactly once");
        self.started = true;
        self.end = dur;
        if let Some(p) = self.arrivals.next() {
            self.queue.schedule(p.arrival, Ev::Arrival);
            self.next_arrival = Some(p);
        }
        self.queue.schedule(self.window_dur, Ev::Window);
        for m in 0..self.mes.len() {
            self.queue.schedule(SimTime::ZERO, self.me_step(m));
        }
    }

    /// Processes every queued event at or before `cap`, leaving later
    /// events queued. Popping is globally time-ordered, so draining in
    /// stages processes the exact event sequence of a single drain.
    fn drain_until(&mut self, cap: SimTime) {
        while let Some((now, ev)) = self.queue.pop_until(cap) {
            self.handle(ev, now);
        }
    }

    /// Closes every ME's open accounting interval at `at` (safe
    /// mid-run: accounting resumes from `at`).
    fn close_accounting(&mut self, at: SimTime) {
        for m in 0..self.mes.len() {
            self.mes[m].account(at, &self.levels);
        }
    }

    /// The trace collected so far (borrow). Empty while a
    /// [`Simulator::with_analyzers`] bank is attached: its records
    /// stream into the bank instead.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        self.trace.trace()
    }

    /// Mean end-to-end SDRAM access time observed so far (queueing +
    /// latency) — the quantity the paper quotes as "as much as 100 clock
    /// cycles".
    #[must_use]
    pub fn sdram_mean_access_time(&self) -> SimTime {
        self.sdram.mean_access_time()
    }

    /// Mean end-to-end SRAM access time observed so far.
    #[must_use]
    pub fn sram_mean_access_time(&self) -> SimTime {
        self.sram.mean_access_time()
    }

    /// Consumes the simulator and returns the collected trace, which is
    /// empty when a [`Simulator::with_analyzers`] bank was attached.
    #[must_use]
    pub fn into_trace(self) -> Trace {
        self.trace.into_trace()
    }

    // ------------------------------------------------------------------
    // Event handling
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: Ev, now: SimTime) {
        match ev {
            Ev::Arrival => self.on_arrival(now),
            Ev::Done { me, thread } => self.on_done(me as usize, thread as usize, now),
            Ev::MeStep { me, token } => {
                let me = me as usize;
                if self.mes[me].step_token == token {
                    self.run_me(me, now);
                }
            }
            Ev::Window => self.on_window(now),
        }
    }

    fn on_arrival(&mut self, now: SimTime) {
        let p = self
            .next_arrival
            .take()
            .expect("an arrival event has a pending packet");
        self.arrived_packets += 1;
        self.arrived_bits += p.size_bits();
        self.window_bits += p.size_bits();
        if self.monitor_per_packet {
            self.meter.add_monitor(MONITOR_ADDER_ENERGY_UJ);
        }

        // Schedule the next arrival.
        if let Some(next) = self.arrivals.next() {
            if next.arrival <= self.end {
                self.queue.schedule(next.arrival.max(now), Ev::Arrival);
                self.next_arrival = Some(next);
            }
        }

        if self.rx_fifo.len() < self.config.rx_fifo_cap {
            self.rx_fifo.push_back(p);
            // Annotations sum every ME's energy: build them only when
            // the trace keeps the event.
            if self.config.trace.emit_fifo {
                let annots = self.fifo_annotations(now);
                self.trace.fifo(annots);
            }
            self.wake_role(MeRole::Rx, now);
        } else {
            self.dropped_packets += 1;
            self.window_rx_drops += 1;
        }
    }

    fn on_done(&mut self, me: usize, thread: usize, now: SimTime) {
        self.mes[me].threads[thread].state = ThreadState::Ready;
        if self.mes[me].parked {
            self.run_me(me, now);
        }
    }

    fn on_window(&mut self, now: SimTime) {
        let window_dur = self.window_dur;
        self.windows += 1;
        // Close accounting so window buckets are complete.
        for m in 0..self.mes.len() {
            self.mes[m].account(now, &self.levels);
        }
        // Sample per-ME idle fractions (the §4.2 observation data) and
        // assemble the policy's view of each microengine.
        let mut me_obs = Vec::with_capacity(self.mes.len());
        for (m, me) in self.mes.iter().enumerate() {
            let idle =
                (me.window_acc.get(MeMode::Idle).as_secs() / window_dur.as_secs()).clamp(0.0, 1.0);
            self.window_idle.push(WindowIdleSample {
                window: self.windows - 1,
                me: m,
                role: me.role,
                idle,
            });
            me_obs.push(MeObservation {
                idle_fraction: idle,
                level: me.level_idx,
            });
        }

        // Emit the epoch's observability samples. Everything inside the
        // guard is pure observation — the branch computes nothing the
        // simulation reads back, so a disabled recorder costs one
        // virtual call per window and an enabled one cannot perturb
        // the run.
        if self.recorder.enabled() {
            let cycle = self.config.base_freq().time_to_cycles(now);
            // Accounting was closed above, so the energy is exact; the
            // delta over the window duration is the epoch's mean power
            // (µJ / µs = W).
            let energy_uj = self.total_energy_uj(now);
            let power_w = (energy_uj - self.rec_energy_uj) / window_dur.as_us();
            self.rec_energy_uj = energy_uj;
            let served_bits = self.forwarded_bits - self.rec_forwarded_bits;
            self.rec_forwarded_bits = self.forwarded_bits;
            let mean_level =
                me_obs.iter().map(|o| o.level as f64).sum::<f64>() / me_obs.len() as f64;
            self.recorder.record(Channel::Power, cycle, power_w);
            self.recorder.record(Channel::VfLevel, cycle, mean_level);
            self.recorder.record(
                Channel::QueueDepth,
                cycle,
                (self.rx_fifo.len() + self.tx_queue.len()) as f64,
            );
            self.recorder.record(
                Channel::Drops,
                cycle,
                (self.window_rx_drops + self.window_tx_drops) as f64,
            );
            self.recorder
                .record(Channel::OfferedBytes, cycle, self.window_bits as f64 / 8.0);
            self.recorder
                .record(Channel::ServedBytes, cycle, served_bits as f64 / 8.0);
            let mean_wait_us = if self.window_wait_n == 0 {
                0.0
            } else {
                self.window_wait_us / self.window_wait_n as f64
            };
            self.recorder
                .record(Channel::QueueWaitUs, cycle, mean_wait_us);
            self.window_wait_us = 0.0;
            self.window_wait_n = 0;
        }

        let observation = PolicyObservation {
            window: self.windows - 1,
            window_us: window_dur.as_us(),
            aggregate_mbps: self.window_bits as f64 / window_dur.as_us(),
            mes: &me_obs,
            rx_fifo: QueueObservation {
                occupancy: self.rx_fifo.len(),
                capacity: self.config.rx_fifo_cap,
                dropped: self.window_rx_drops,
            },
            tx_queue: QueueObservation {
                occupancy: self.tx_queue.len(),
                capacity: self.config.tx_queue_cap,
                dropped: self.window_tx_drops,
            },
        };
        let response = self.policy.on_window(&observation);
        assert_eq!(
            response.decisions.len(),
            self.mes.len(),
            "policy answered {} decisions for {} microengines",
            response.decisions.len(),
            self.mes.len()
        );

        // Apply the decisions: one ladder step per ME per window, clamped
        // at the bounds; apply_vf charges the switch penalty.
        let top = self.config.ladder.top_index();
        for (m, decision) in response.decisions.into_iter().enumerate() {
            let current = self.mes[m].level_idx;
            let target = match decision {
                ScalingDecision::Up => (current + 1).min(top),
                ScalingDecision::Down => current.saturating_sub(1),
                ScalingDecision::Hold => current,
            };
            if target != current {
                self.apply_vf(m, target, now);
            }
        }

        for m in 0..self.mes.len() {
            self.mes[m].window_acc.reset();
        }
        self.window_bits = 0;
        self.window_rx_drops = 0;
        self.window_tx_drops = 0;
        self.queue.schedule(now + window_dur, Ev::Window);
    }

    /// Applies a VF change to one ME: switch level, start the 10 µs stall.
    fn apply_vf(&mut self, m: usize, new_level: usize, now: SimTime) {
        let me = &mut self.mes[m];
        if me.level_idx == new_level {
            return;
        }
        me.account(now, &self.levels);
        me.level_idx = new_level;
        me.switches += 1;
        me.stalled_until = now + SWITCH_PENALTY;
        if me.parked {
            me.mode = MeMode::Stalled;
            me.step_token += 1;
            let until = me.stalled_until;
            self.queue.schedule(until, self.me_step(m));
        }
        // If the ME is mid-compute, its continuation MeStep will observe
        // `stalled_until` and serve the stall before executing further.
    }

    /// Marks threads waiting for packets as ready and wakes parked MEs of
    /// the given role.
    fn wake_role(&mut self, role: MeRole, now: SimTime) {
        for m in 0..self.mes.len() {
            if self.mes[m].role != role {
                continue;
            }
            let mut woke = false;
            for th in &mut self.mes[m].threads {
                if th.state == ThreadState::WaitingPacket {
                    th.state = ThreadState::Ready;
                    woke = true;
                }
            }
            if woke && self.mes[m].parked {
                self.run_me(m, now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Microengine execution
    // ------------------------------------------------------------------

    /// Runs microengine `m` forward from `now` until it parks or schedules
    /// a timed continuation.
    fn run_me(&mut self, m: usize, now: SimTime) {
        self.mes[m].parked = false;
        self.mes[m].step_token += 1;

        // Serve a pending VF-switch stall first.
        if self.mes[m].stalled_until > now {
            let until = self.mes[m].stalled_until;
            self.set_mode(m, now, MeMode::Stalled);
            self.mes[m].parked = true;
            self.queue.schedule(until, self.me_step(m));
            return;
        }

        loop {
            let Some(ti) = self.pick_ready_thread(m) else {
                // Nothing runnable: park. Memory-blocked-only = idle;
                // anything waiting on packets or the bus busy-polls.
                let threads = &self.mes[m].threads;
                let polling = threads.iter().any(|t| {
                    matches!(
                        t.state,
                        ThreadState::WaitingPacket | ThreadState::BlockedBus
                    )
                });
                let mode = if polling {
                    MeMode::Polling
                } else {
                    MeMode::Idle
                };
                self.set_mode(m, now, mode);
                self.mes[m].parked = true;
                return;
            };

            if self.step_thread(m, ti, now) {
                return; // a timed continuation was scheduled
            }
        }
    }

    /// The continuation of microengine `m` under its current step token.
    fn me_step(&self, m: usize) -> Ev {
        Ev::MeStep {
            me: m as u32,
            token: self.mes[m].step_token,
        }
    }

    /// Round-robin selection of the next ready thread.
    fn pick_ready_thread(&mut self, m: usize) -> Option<usize> {
        let me = &mut self.mes[m];
        let n = me.threads.len();
        let mut ti = me.next_thread;
        for _ in 0..n {
            let next = if ti + 1 == n { 0 } else { ti + 1 };
            if me.threads[ti].state == ThreadState::Ready {
                me.next_thread = next;
                return Some(ti);
            }
            ti = next;
        }
        None
    }

    /// Executes instantaneous work for thread `ti` and either schedules a
    /// timed continuation (returns `true`) or blocks the thread (returns
    /// `false`, caller picks the next thread).
    fn step_thread(&mut self, m: usize, ti: usize, now: SimTime) -> bool {
        // Fetch / deliver at program boundaries.
        if self.mes[m].threads[ti].needs_fetch() {
            if let Some(done) = self.mes[m].threads[ti].packet.take() {
                self.deliver(m, done, now);
                self.mes[m].packets_done += 1;
            }
            let role = self.mes[m].role;
            let popped = match role {
                MeRole::Rx => self.rx_fifo.pop_front(),
                MeRole::Tx => self.tx_queue.pop_front(),
            };
            match popped {
                Some(pkt) => {
                    let benchmark = self.config.benchmark;
                    let th = &mut self.mes[m].threads[ti];
                    match role {
                        MeRole::Rx => benchmark.rx_program_into(pkt.size_bytes, &mut th.program),
                        MeRole::Tx => benchmark.tx_program_into(pkt.size_bytes, &mut th.program),
                    }
                    th.pc = 0;
                    th.packet = Some(pkt);
                }
                None => {
                    self.mes[m].threads[ti].state = ThreadState::WaitingPacket;
                    return false;
                }
            }
        }

        let seg = self.mes[m].threads[ti].program[self.mes[m].threads[ti].pc];
        self.mes[m].threads[ti].pc += 1;
        match seg {
            Segment::Compute(n) => {
                let freq = self.levels[self.mes[m].level_idx].freq;
                let dt = freq.cycles_to_time(u64::from(n));
                self.set_mode(m, now, MeMode::Busy);
                self.queue.schedule(now + dt, self.me_step(m));
                if self.config.trace.emit_pipeline {
                    let annots = self.fifo_annotations(now);
                    self.trace.pipeline(m, annots);
                }
                true
            }
            Segment::Sram => {
                let done = self.sram.issue(now);
                self.block_on(m, ti, ThreadState::BlockedMem, SRAM_LANE, done);
                false
            }
            Segment::Sdram => {
                let done = self.sdram.issue(now);
                self.block_on(m, ti, ThreadState::BlockedMem, SDRAM_LANE, done);
                false
            }
            Segment::BusTx(bits) => {
                let done = self.bus.issue(now, bits);
                self.block_on(m, ti, ThreadState::BlockedBus, BUS_LANE, done);
                false
            }
        }
    }

    /// Blocks thread `ti` until `wake`, the completion time of the access
    /// it just issued to the server behind `lane`.
    fn block_on(&mut self, m: usize, ti: usize, state: ThreadState, lane: usize, wake: SimTime) {
        self.mes[m].threads[ti].state = state;
        let done = Ev::Done {
            me: m as u32,
            thread: ti as u32,
        };
        self.queue.schedule_lane(lane, wake, done);
    }

    /// Hands a finished packet to the next stage.
    fn deliver(&mut self, m: usize, pkt: Packet, now: SimTime) {
        match self.mes[m].role {
            MeRole::Rx => {
                if self.tx_queue.len() < self.config.tx_queue_cap {
                    self.tx_queue.push_back(pkt);
                    self.wake_role(MeRole::Tx, now);
                } else {
                    self.dropped_tx_packets += 1;
                    self.window_tx_drops += 1;
                }
            }
            MeRole::Tx => {
                self.forwarded_packets += 1;
                self.forwarded_bits += pkt.size_bits();
                if self.rec_enabled {
                    // The packet kept its source arrival time through
                    // both queues, so this is its full chip sojourn.
                    self.window_wait_us += now.saturating_sub(pkt.arrival).as_us();
                    self.window_wait_n += 1;
                }
                let annots = self.forward_annotations(now);
                self.trace.forward(annots);
            }
        }
    }

    fn set_mode(&mut self, m: usize, now: SimTime, mode: MeMode) {
        self.mes[m].set_mode(now, mode, &self.levels);
    }

    // ------------------------------------------------------------------
    // Annotations & reporting
    // ------------------------------------------------------------------

    /// Chip energy consumed up to `now`, µJ — exact at event boundaries.
    fn total_energy_uj(&self, now: SimTime) -> f64 {
        let me: f64 = self
            .mes
            .iter()
            .map(|m| m.energy_uj + m.pending_energy_uj(now, &self.levels))
            .sum();
        me + self.sram.energy_uj()
            + self.sdram.energy_uj()
            + EnergyMeter::static_uj(self.config.power.static_w, now)
            + self.meter.monitor_uj
    }

    fn forward_annotations(&self, now: SimTime) -> Annotations {
        Annotations {
            cycle: self.config.base_freq().time_to_cycles(now),
            time: now.as_us(),
            energy: self.total_energy_uj(now),
            total_pkt: self.forwarded_packets,
            total_bit: self.forwarded_bits,
            extra: Vec::new(),
        }
    }

    fn fifo_annotations(&self, now: SimTime) -> Annotations {
        Annotations {
            cycle: self.config.base_freq().time_to_cycles(now),
            time: now.as_us(),
            energy: self.total_energy_uj(now),
            total_pkt: self.arrived_packets,
            total_bit: self.arrived_bits,
            extra: Vec::new(),
        }
    }

    /// Builds the cumulative report as of `at` (the run horizon for a
    /// whole run, an intermediate boundary for segment snapshots; every
    /// accounting interval must already be closed at `at`).
    fn build_report(&self, at: SimTime) -> SimReport {
        let mes: Vec<MeReport> = self
            .mes
            .iter()
            .map(|m| MeReport {
                role: m.role,
                acc: m.acc,
                energy_uj: m.energy_uj,
                switches: m.switches,
                final_level: m.level_idx,
                packets_done: m.packets_done,
                level_time: m.level_acc.clone(),
            })
            .collect();
        SimReport {
            policy: self.policy.kind(),
            duration: at,
            arrived_packets: self.arrived_packets,
            arrived_bits: self.arrived_bits,
            dropped_packets: self.dropped_packets,
            dropped_tx_packets: self.dropped_tx_packets,
            forwarded_packets: self.forwarded_packets,
            forwarded_bits: self.forwarded_bits,
            me_energy_uj: self.mes.iter().map(|m| m.energy_uj).sum(),
            sram_energy_uj: self.sram.energy_uj(),
            sdram_energy_uj: self.sdram.energy_uj(),
            static_energy_uj: EnergyMeter::static_uj(self.config.power.static_w, at),
            monitor_energy_uj: self.meter.monitor_uj,
            sram_accesses: self.sram.accesses(),
            sdram_accesses: self.sdram.accesses(),
            total_switches: self.mes.iter().map(|m| m.switches).sum(),
            windows: self.windows,
            bus_bits: self.bus.bits_sent(),
            bus_rate_mbps: self.bus.rate_mbps(),
            kernel: self.queue.counters(),
            window_idle: self.window_idle.clone(),
            mes,
        }
    }
}

/// Adds one finished run's kernel work and simulated cycles to the
/// profiler's counters; each call is a no-op while it is disarmed.
fn count_run(report: &SimReport, cycles: u64) {
    let kernel = report.kernel;
    obs::prof::count("kernel.events_scheduled", kernel.events_scheduled as f64);
    obs::prof::count("kernel.events_processed", kernel.events_processed as f64);
    obs::prof::count("simulate.cycles", cycles as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TraceConfig;
    use crate::workload::Benchmark;
    use dvs::{EdvsConfig, PolicyKind, PolicyResponse, PolicySpec, TdvsConfig};
    use traffic::TrafficLevel;

    fn base_config() -> NpuConfig {
        NpuConfig::builder()
            .benchmark(Benchmark::Ipfwdr)
            .traffic(TrafficLevel::Medium)
            .seed(7)
            .build()
    }

    #[test]
    fn smoke_run_forwards_packets() {
        let mut sim = Simulator::new(base_config());
        let r = sim.run_cycles(500_000);
        assert!(r.arrived_packets > 50, "arrived {}", r.arrived_packets);
        assert!(r.forwarded_packets > 0, "forwarded nothing");
        assert!(r.forwarded_bits > 0);
        assert!(r.mean_power_w() > 0.3, "power {}", r.mean_power_w());
        assert!(r.mean_power_w() < 3.0, "power {}", r.mean_power_w());
    }

    #[test]
    fn packet_conservation() {
        let mut sim = Simulator::new(base_config());
        let r = sim.run_cycles(500_000);
        // arrived = forwarded + dropped + still in flight (bounded).
        let in_flight_max =
            (r.arrived_packets - r.forwarded_packets - r.dropped_packets - r.dropped_tx_packets)
                as usize;
        let bound = 512 + 1024 + 6 * 4; // fifos + one per thread
        assert!(
            in_flight_max <= bound,
            "{in_flight_max} packets unaccounted for"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let run = || {
            let mut sim = Simulator::new(base_config());
            let r = sim.run_cycles(300_000);
            (
                r.arrived_packets,
                r.forwarded_packets,
                r.total_energy_uj().to_bits(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn forward_events_have_monotone_annotations() {
        let mut sim = Simulator::new(base_config());
        let _ = sim.run_cycles(400_000);
        let trace = sim.trace();
        let fwd: Vec<&loc::TraceRecord> = trace.iter().filter(|r| r.event == "forward").collect();
        assert!(fwd.len() > 10, "only {} forward events", fwd.len());
        for w in fwd.windows(2) {
            assert!(w[0].annots.time <= w[1].annots.time);
            assert!(w[0].annots.energy <= w[1].annots.energy);
            assert!(w[0].annots.total_pkt < w[1].annots.total_pkt);
            assert!(w[0].annots.total_bit < w[1].annots.total_bit);
        }
    }

    #[test]
    fn tdvs_scales_down_under_light_traffic() {
        let config = NpuConfig::builder()
            .benchmark(Benchmark::Ipfwdr)
            .traffic(TrafficLevel::Low)
            .policy(PolicySpec::Tdvs(TdvsConfig {
                top_threshold_mbps: 1400.0,
                window_cycles: 40_000,
            }))
            .seed(3)
            .build();
        let mut sim = Simulator::new(config);
        let r = sim.run_cycles(2_000_000);
        assert!(r.total_switches > 0, "TDVS never switched");
        assert!(r.windows > 10);
        // All MEs share the global level under TDVS.
        let levels: Vec<usize> = r.mes.iter().map(|m| m.final_level).collect();
        assert!(levels.windows(2).all(|w| w[0] == w[1]), "levels {levels:?}");
    }

    #[test]
    fn tdvs_saves_power_vs_no_dvs() {
        let run = |policy: PolicySpec| {
            let config = NpuConfig::builder()
                .benchmark(Benchmark::Ipfwdr)
                .traffic(TrafficLevel::Low)
                .policy(policy)
                .seed(11)
                .build();
            Simulator::new(config).run_cycles(2_000_000).mean_power_w()
        };
        let baseline = run(PolicySpec::NoDvs);
        let tdvs = run(PolicySpec::Tdvs(TdvsConfig {
            top_threshold_mbps: 1400.0,
            window_cycles: 40_000,
        }));
        assert!(
            tdvs < baseline * 0.95,
            "TDVS {tdvs:.3} W vs noDVS {baseline:.3} W"
        );
    }

    #[test]
    fn edvs_scales_mes_independently() {
        let config = NpuConfig::builder()
            .benchmark(Benchmark::Ipfwdr)
            .traffic(TrafficLevel::High)
            .policy(PolicySpec::Edvs(EdvsConfig::default()))
            .seed(5)
            .build();
        let mut sim = Simulator::new(config);
        let r = sim.run_cycles(2_000_000);
        assert!(r.windows > 10);
        // The rx MEs see memory idle; tx MEs busy-poll the bus. Their
        // final levels are free to differ (per-ME policy).
        let rx_switches: u64 = r
            .mes
            .iter()
            .filter(|m| m.role == MeRole::Rx)
            .map(|m| m.switches)
            .sum();
        assert!(rx_switches > 0, "no rx ME ever switched under EDVS");
    }

    #[test]
    fn monitor_overhead_below_one_percent() {
        let config = NpuConfig::builder()
            .traffic(TrafficLevel::High)
            .policy(PolicySpec::Tdvs(TdvsConfig::default()))
            .seed(2)
            .build();
        let mut sim = Simulator::new(config);
        let r = sim.run_cycles(1_000_000);
        assert!(r.monitor_energy_uj > 0.0);
        assert!(
            r.monitor_overhead_fraction() < 0.01,
            "monitor overhead {:.4}",
            r.monitor_overhead_fraction()
        );
    }

    #[test]
    fn nat_has_negligible_idle() {
        let config = NpuConfig::builder()
            .benchmark(Benchmark::Nat)
            .traffic(TrafficLevel::High)
            .seed(17)
            .build();
        let mut sim = Simulator::new(config);
        let r = sim.run_cycles(1_000_000);
        assert!(
            r.rx_idle_fraction() < 0.05,
            "nat rx idle {:.3}",
            r.rx_idle_fraction()
        );
    }

    #[test]
    fn tx_mes_rarely_idle() {
        let config = base_config();
        let mut sim = Simulator::new(config);
        let r = sim.run_cycles(1_000_000);
        assert!(
            r.tx_idle_fraction() < 0.08,
            "tx idle {:.3}",
            r.tx_idle_fraction()
        );
    }

    #[test]
    fn fifo_and_pipeline_events_obey_config() {
        for (emit_fifo, emit_pipeline) in [(true, false), (false, true)] {
            let config = NpuConfig::builder()
                .seed(1)
                .trace(TraceConfig {
                    emit_fifo,
                    emit_pipeline,
                })
                .build();
            let mut sim = Simulator::new(config);
            let _ = sim.run_cycles(200_000);
            assert_eq!(sim.trace().count_of("fifo") > 0, emit_fifo);
            assert_eq!(sim.trace().count_of("m0_pipeline") > 0, emit_pipeline);
        }
    }

    #[test]
    #[should_panic(expected = "exactly once")]
    fn running_twice_panics() {
        let mut sim = Simulator::new(base_config());
        let _ = sim.run_cycles(1_000);
        let _ = sim.run_cycles(1_000);
    }

    #[test]
    fn segment_snapshots_are_cumulative_and_monotone() {
        let mut sim = Simulator::new(base_config());
        let reports = sim.run_cycle_segments(&[150_000, 300_000, 450_000]);
        assert_eq!(reports.len(), 3);
        for w in reports.windows(2) {
            assert!(w[0].duration < w[1].duration);
            assert!(w[0].arrived_packets <= w[1].arrived_packets);
            assert!(w[0].forwarded_packets <= w[1].forwarded_packets);
            assert!(w[0].total_energy_uj() < w[1].total_energy_uj());
            for (a, b) in w[0].mes.iter().zip(&w[1].mes) {
                assert!(a.acc.total() <= b.acc.total());
                assert!(a.energy_uj <= b.energy_uj);
            }
        }
        // Each snapshot genuinely progressed the simulation.
        assert!(reports[0].forwarded_packets > 0);
        assert!(reports[2].forwarded_packets > reports[0].forwarded_packets);
    }

    #[test]
    fn segmented_run_matches_the_plain_run_event_for_event() {
        // Snapshot boundaries only close accounting intervals early —
        // the event trajectory (packets, drops, switches, windows) must
        // be exactly that of an unsegmented run, and time accounting
        // (integer picoseconds) must agree exactly too.
        let plain = Simulator::new(base_config()).run_cycles(450_000);
        let mut sim = Simulator::new(base_config());
        let last = sim
            .run_cycle_segments(&[100_000, 250_000, 450_000])
            .pop()
            .expect("three snapshots");
        assert_eq!(plain.arrived_packets, last.arrived_packets);
        assert_eq!(plain.forwarded_packets, last.forwarded_packets);
        assert_eq!(plain.forwarded_bits, last.forwarded_bits);
        assert_eq!(plain.dropped_packets, last.dropped_packets);
        assert_eq!(plain.total_switches, last.total_switches);
        assert_eq!(plain.windows, last.windows);
        assert_eq!(plain.duration, last.duration);
        for (a, b) in plain.mes.iter().zip(&last.mes) {
            assert_eq!(a.acc, b.acc, "per-mode time diverged");
            assert_eq!(a.switches, b.switches);
            assert_eq!(a.final_level, b.final_level);
        }
        // Energy is a float fold split at the boundaries: equal to
        // rounding, not necessarily to the bit.
        assert!((plain.total_energy_uj() - last.total_energy_uj()).abs() < 1e-6);
    }

    #[test]
    fn segmented_runs_are_deterministic() {
        let run = || {
            let mut sim = Simulator::new(base_config());
            let reports = sim.run_cycle_segments(&[150_000, 450_000]);
            reports
                .iter()
                .map(|r| (r.forwarded_packets, r.total_energy_uj().to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn segment_boundaries_must_increase() {
        let mut sim = Simulator::new(base_config());
        let _ = sim.run_cycle_segments(&[100_000, 100_000]);
    }

    #[test]
    fn replaying_a_recorded_trace_reproduces_the_live_run() {
        use desim::SimTime;
        use traffic::RecordedTrace;

        let config = base_config();
        let horizon = config.base_freq().cycles_to_time(300_000);
        // Record the exact packets the live run would see...
        let trace = RecordedTrace::record(
            config.traffic.model().unwrap().stream(config.seed),
            horizon + SimTime::from_us(1),
        );

        let live = Simulator::new(config.clone()).run_cycles(300_000);
        let replay = Simulator::new(config)
            .with_replay(trace)
            .run_cycles(300_000);

        assert_eq!(live.arrived_packets, replay.arrived_packets);
        assert_eq!(live.forwarded_packets, replay.forwarded_packets);
        assert_eq!(live.forwarded_bits, replay.forwarded_bits);
        assert!((live.mean_power_w() - replay.mean_power_w()).abs() < 1e-12);
    }

    #[test]
    fn replay_of_empty_trace_is_an_idle_chip() {
        use traffic::RecordedTrace;
        let report = Simulator::new(base_config())
            .with_replay(RecordedTrace::default())
            .run_cycles(100_000);
        assert_eq!(report.arrived_packets, 0);
        assert_eq!(report.forwarded_packets, 0);
        // The MEs poll the whole time: full active power, no idle.
        assert_eq!(report.rx_idle_fraction(), 0.0);
        assert!(report.mean_power_w() > 1.0);
    }

    /// A policy defined entirely outside the `dvs` crate: the simulator
    /// must drive it through the trait with no registry involvement.
    #[derive(Debug)]
    struct AlwaysDown {
        window_cycles: u64,
    }

    impl DvsPolicy for AlwaysDown {
        fn kind(&self) -> PolicyKind {
            PolicyKind::Custom
        }
        fn window_cycles(&self) -> Option<u64> {
            Some(self.window_cycles)
        }
        fn on_window(&mut self, obs: &PolicyObservation<'_>) -> PolicyResponse {
            PolicyResponse::uniform(ScalingDecision::Down, obs.mes.len())
        }
    }

    #[test]
    fn custom_policy_drives_the_simulator() {
        let sim = Simulator::new(base_config());
        let mut sim = sim.with_policy(Box::new(AlwaysDown {
            window_cycles: 20_000,
        }));
        let r = sim.run_cycles(1_000_000);
        assert_eq!(r.policy, PolicyKind::Custom);
        // Four windows walk every ME to the bottom; the platform clamps
        // the rest of the Down decisions.
        for me in &r.mes {
            assert_eq!(me.final_level, 0, "{:?} not at bottom", me.role);
            assert_eq!(me.switches, 4);
        }
        // The window cadence follows the injected policy, not the config.
        let expected = 1_000_000 / 20_000;
        assert!(
            (r.windows as i64 - expected as i64).abs() <= 1,
            "windows {}",
            r.windows
        );
    }

    #[test]
    fn queue_aware_policy_runs_end_to_end() {
        let config = NpuConfig::builder()
            .benchmark(Benchmark::Ipfwdr)
            .traffic(TrafficLevel::Low)
            .policy(PolicySpec::parse("queue").expect("registered"))
            .seed(13)
            .build();
        let r = Simulator::new(config).run_cycles(2_000_000);
        assert_eq!(r.policy, PolicyKind::QueueAware);
        // Light traffic leaves the FIFO near-empty: the chip scales down
        // and saves power vs the pinned baseline on the same workload.
        assert!(r.total_switches > 0, "QDVS never switched");
        let baseline_config = NpuConfig::builder()
            .benchmark(Benchmark::Ipfwdr)
            .traffic(TrafficLevel::Low)
            .seed(13)
            .build();
        let base = Simulator::new(baseline_config).run_cycles(2_000_000);
        assert!(r.mean_power_w() < base.mean_power_w());
    }

    #[test]
    fn recorder_samples_every_channel_without_perturbing_the_run() {
        use obs::MemRecorder;

        let baseline = Simulator::new(base_config()).run_cycles(500_000);
        let mut sim = Simulator::new(base_config()).with_recorder(Box::new(MemRecorder::new()));
        let recorded = sim.run_cycles(500_000);
        // Attaching a recorder is pure observation: the report is the
        // bit-identical report of the unattached run.
        assert_eq!(baseline, recorded);

        let rec = sim.take_recording();
        let windows = recorded.windows as usize;
        assert_eq!(rec.len(), windows * Channel::ALL.len());
        for channel in Channel::ALL {
            assert_eq!(rec.values(channel).len(), windows, "{channel}");
        }
        // Epoch powers average out to the run's mean power, and the
        // served bytes total the forwarded bits.
        let powers = rec.values(Channel::Power);
        let mean = powers.iter().sum::<f64>() / powers.len() as f64;
        assert!(
            (mean - recorded.mean_power_w()).abs() < 0.05,
            "epoch power mean {mean:.3} vs run {:.3}",
            recorded.mean_power_w()
        );
        let served: f64 = rec.values(Channel::ServedBytes).iter().sum();
        assert!(served * 8.0 <= recorded.forwarded_bits as f64);
        // Sample timestamps advance one window at a time.
        let cycles: Vec<u64> = rec.channel(Channel::Power).map(|s| s.cycle).collect();
        assert!(cycles.windows(2).all(|w| w[0] < w[1]));
        // A second take is empty: the recording was moved out.
        assert!(sim.take_recording().is_empty());
    }

    #[test]
    fn kernel_counters_tally_the_event_loop() {
        let mut sim = Simulator::new(base_config());
        let r = sim.run_cycles(300_000);
        assert!(r.kernel.events_processed > 1_000, "{:?}", r.kernel);
        assert!(r.kernel.events_scheduled >= r.kernel.events_processed);
        assert!(r.kernel.peak_heap_len >= 2);
        // Determinism: the tallies are part of the report and must
        // reproduce exactly.
        let again = Simulator::new(base_config()).run_cycles(300_000);
        assert_eq!(r.kernel, again.kernel);
    }

    #[test]
    fn largest_packets_run_without_overflow() {
        use traffic::{ConstantConfig, TrafficSpec, MAX_PACKET_BYTES};

        // md4 digests 10 instructions per byte and the tx program moves
        // 8 bits per byte: at the largest packet both fit u32, which a
        // dev build checks on every multiply.
        let config = NpuConfig::builder()
            .benchmark(Benchmark::Md4)
            .traffic(TrafficSpec::Constant(ConstantConfig {
                rate_mbps: 5000.0,
                size_bytes: MAX_PACKET_BYTES,
                ports: 1,
            }))
            .seed(1)
            .build();
        let r = Simulator::new(config).run_cycles(3_000_000);
        assert!(r.forwarded_packets > 0, "no packet made it through");
        assert_eq!(
            r.forwarded_bits,
            r.forwarded_packets * u64::from(MAX_PACKET_BYTES) * 8
        );
    }

    #[test]
    fn energy_components_are_all_positive() {
        let mut sim = Simulator::new(base_config());
        let r = sim.run_cycles(500_000);
        assert!(r.me_energy_uj > 0.0);
        assert!(r.sram_energy_uj > 0.0);
        assert!(r.sdram_energy_uj > 0.0);
        assert!(r.static_energy_uj > 0.0);
        assert_eq!(r.monitor_energy_uj, 0.0, "no monitor without TDVS");
        assert!(r.total_energy_uj() > 0.0);
    }
}
