//! Simulator configuration.
//!
//! Both open axes are configured as declarative specs: the DVS policy
//! as a [`PolicySpec`] (resolved by the `dvs` crate) and the packet
//! source as a [`TrafficSpec`] (resolved by the `traffic` crate) — the
//! simulator never names a concrete policy or generator type. See
//! [`crate::Simulator::with_policy`] and
//! [`crate::Simulator::with_traffic`] for injecting custom
//! implementations directly.

use desim::Frequency;
use dvs::{PolicySpec, VfLadder};
use serde::{Deserialize, Serialize};
use traffic::{TrafficLevel, TrafficSpec};

use crate::memory::MemoryParams;
use crate::workload::Benchmark;

/// Calibration constants of the activity-based power model, all referenced
/// to the top VF level (600 MHz / 1.3 V). Scaling to other levels follows
/// `P ∝ V²f` for active power and energy/access constants for memories.
///
/// The defaults are calibrated so the modelled chip dissipates ≈1.4–1.5 W
/// under full load with no DVS, matching the region the paper's Figures
/// 6–11 span (0.5–2.25 W analysis period).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerParams {
    /// Dynamic power of one fully active ME at the top VF level, in watts.
    pub me_active_w: f64,
    /// Idle (all threads memory-blocked) power as a fraction of active.
    pub idle_factor: f64,
    /// Static + always-on power (StrongARM core, clocks, pads), in watts.
    pub static_w: f64,
}

impl Default for PowerParams {
    fn default() -> Self {
        PowerParams {
            me_active_w: 0.18,
            idle_factor: 0.28,
            static_w: 0.30,
        }
    }
}

/// Trace-emission options. `forward` events are always emitted (the LOC
/// formulas need them); `fifo` and the very chatty per-instruction-bundle
/// `pipeline` events are optional.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Emit a `fifo` event whenever a packet enters the processing queue.
    pub emit_fifo: bool,
    /// Emit `mN_pipeline` events for every execution bundle (costly).
    pub emit_pipeline: bool,
}

/// Full configuration of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NpuConfig {
    /// The benchmark application loaded on the processing MEs (§3.1).
    pub benchmark: Benchmark,
    /// Packet arrival process (§3.2): any registered traffic model,
    /// instantiated with [`NpuConfig::seed`] when the simulator starts.
    pub traffic: TrafficSpec,
    /// Number of receive/processing microengines.
    pub rx_mes: usize,
    /// Number of transmit microengines.
    pub tx_mes: usize,
    /// Hardware threads per microengine.
    pub threads_per_me: usize,
    /// The VF ladder available to DVS.
    pub ladder: VfLadder,
    /// The DVS policy under study.
    pub policy: PolicySpec,
    /// SRAM/SDRAM timing and energy.
    pub memory: MemoryParams,
    /// IX-bus transmit bandwidth in Mbps (1.3 Gbps: IXP1200's 1 Gbps media
    /// bandwidth scaled 1.3× like the memories, §4.1).
    pub bus_rate_mbps: f64,
    /// Receive FIFO capacity in packets (drops beyond this are the trace's
    /// packet-loss counter).
    pub rx_fifo_cap: usize,
    /// Processed-packet queue capacity in packets.
    pub tx_queue_cap: usize,
    /// Power-model calibration.
    pub power: PowerParams,
    /// Trace-emission options.
    pub trace: TraceConfig,
    /// Statistics window used when the policy defines none (noDVS runs):
    /// per-ME idle fractions are sampled at this granularity.
    pub stats_window_cycles: u64,
    /// Experiment seed (drives arrivals).
    pub seed: u64,
}

impl NpuConfig {
    /// Starts a builder with the paper's reference platform.
    #[must_use]
    pub fn builder() -> NpuConfigBuilder {
        NpuConfigBuilder::new()
    }

    /// The base (normal) core frequency — the top of the ladder.
    #[must_use]
    pub fn base_freq(&self) -> Frequency {
        self.ladder.top().frequency()
    }

    /// Total number of microengines.
    #[must_use]
    pub fn total_mes(&self) -> usize {
        self.rx_mes + self.tx_mes
    }

    /// Validates cross-field invariants.
    ///
    /// # Panics
    ///
    /// Panics when the configuration cannot describe a runnable machine
    /// (no MEs, no threads, zero-capacity FIFOs, non-positive bus rate),
    /// or when `schedule:` traffic rides a ladder whose base clock is
    /// not the one schedule windows are defined in.
    pub fn validate(&self) {
        assert!(self.rx_mes > 0, "need at least one receive ME");
        assert!(self.tx_mes > 0, "need at least one transmit ME");
        assert!(self.threads_per_me > 0, "need at least one thread per ME");
        assert!(self.rx_fifo_cap > 0, "rx fifo must hold packets");
        assert!(self.tx_queue_cap > 0, "tx queue must hold packets");
        assert!(
            self.bus_rate_mbps.is_finite() && self.bus_rate_mbps > 0.0,
            "bus rate must be positive"
        );
        assert!(
            self.stats_window_cycles > 0,
            "stats window must be non-empty"
        );
        // Schedule windows are cycle counts of a fixed base clock; a
        // ladder topping at another frequency would convert `cycles`
        // horizons and traffic windows at different rates, silently
        // shifting every segment boundary relative to the run.
        if matches!(self.traffic, TrafficSpec::Schedule(_)) {
            assert!(
                self.base_freq().as_khz() == traffic::ScheduleConfig::base_clock().as_khz(),
                "schedule traffic windows are defined in cycles of the {} MHz base \
                 clock, but this ladder tops at {} MHz",
                traffic::ScheduleConfig::base_clock().as_mhz(),
                self.base_freq().as_mhz(),
            );
        }
    }
}

impl Default for NpuConfig {
    fn default() -> Self {
        NpuConfig::builder().build()
    }
}

/// Builder for [`NpuConfig`] (the IXP1200 reference platform by default).
#[derive(Debug, Clone)]
pub struct NpuConfigBuilder {
    config: NpuConfig,
}

impl NpuConfigBuilder {
    /// Creates a builder seeded with the reference platform: 4 rx + 2 tx
    /// MEs, 4 threads each, XScale ladder, no DVS, medium traffic, ipfwdr.
    #[must_use]
    pub fn new() -> Self {
        NpuConfigBuilder {
            config: NpuConfig {
                benchmark: Benchmark::Ipfwdr,
                traffic: TrafficSpec::Level(TrafficLevel::Medium),
                rx_mes: 4,
                tx_mes: 2,
                threads_per_me: 4,
                ladder: VfLadder::xscale_npu(),
                policy: PolicySpec::NoDvs,
                memory: MemoryParams::ixp1200_scaled(),
                bus_rate_mbps: 1300.0,
                rx_fifo_cap: 2048,
                tx_queue_cap: 2048,
                power: PowerParams::default(),
                trace: TraceConfig::default(),
                stats_window_cycles: 40_000,
                seed: 0,
            },
        }
    }

    /// Sets the benchmark application.
    #[must_use]
    pub fn benchmark(mut self, benchmark: Benchmark) -> Self {
        self.config.benchmark = benchmark;
        self
    }

    /// Sets the traffic model: a [`TrafficSpec`], or a plain
    /// [`TrafficLevel`] for the paper's canonical arrival processes.
    #[must_use]
    pub fn traffic(mut self, traffic: impl Into<TrafficSpec>) -> Self {
        self.config.traffic = traffic.into();
        self
    }

    /// Sets the DVS policy.
    #[must_use]
    pub fn policy(mut self, policy: PolicySpec) -> Self {
        self.config.policy = policy;
        self
    }

    /// Sets the experiment seed (the traffic model's stream is
    /// instantiated with it when the simulator starts).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets trace-emission options.
    #[must_use]
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.config.trace = trace;
        self
    }

    /// Finalises the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is not runnable (see
    /// [`NpuConfig::validate`]).
    #[must_use]
    pub fn build(self) -> NpuConfig {
        self.config.validate();
        self.config
    }
}

impl Default for NpuConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs::{EdvsConfig, PolicyKind, TdvsConfig};

    #[test]
    fn schedule_traffic_requires_the_schedule_base_clock() {
        let schedule: TrafficSpec = "schedule:segments=[low@0..200000; high@200000..]"
            .parse()
            .unwrap();
        // On the reference 600 MHz ladder a schedule validates fine...
        let _ = NpuConfig::builder().traffic(schedule.clone()).build();
        // ...but a ladder topping elsewhere would convert the windows
        // at a different rate than the horizon, so it is rejected.
        let mut config = NpuConfig::builder().traffic(schedule).build();
        config.ladder = dvs::VfLadder::from_points(vec![
            dvs::VfPoint {
                freq_mhz: 200,
                voltage_mv: 900,
            },
            dvs::VfPoint {
                freq_mhz: 800,
                voltage_mv: 1400,
            },
        ]);
        let panic = std::panic::catch_unwind(move || config.validate()).unwrap_err();
        let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains("600"), "unhelpful panic: {message}");
        // A non-schedule spec stays free to use any ladder.
        let mut config = NpuConfig::builder().traffic(TrafficLevel::Low).build();
        config.ladder = dvs::VfLadder::from_points(vec![dvs::VfPoint {
            freq_mhz: 800,
            voltage_mv: 1400,
        }]);
        config.validate();
    }

    #[test]
    fn default_is_reference_platform() {
        let c = NpuConfig::default();
        assert_eq!(c.rx_mes, 4);
        assert_eq!(c.tx_mes, 2);
        assert_eq!(c.total_mes(), 6);
        assert_eq!(c.threads_per_me, 4);
        assert_eq!(c.base_freq().as_mhz(), 600.0);
        assert_eq!(c.policy.kind(), PolicyKind::NoDvs);
    }

    #[test]
    fn builder_accepts_levels_and_specs() {
        let c = NpuConfig::builder().seed(99).build();
        assert_eq!(c.seed, 99);
        assert_eq!(c.traffic, TrafficSpec::Level(TrafficLevel::Medium));

        let c = NpuConfig::builder().traffic(TrafficLevel::High).build();
        assert_eq!(c.traffic, TrafficSpec::Level(TrafficLevel::High));

        let spec: TrafficSpec = "constant:rate=500".parse().unwrap();
        let c = NpuConfig::builder().traffic(spec.clone()).build();
        assert_eq!(c.traffic, spec);
    }

    #[test]
    fn policy_window_cycles() {
        assert_eq!(PolicySpec::NoDvs.window_cycles(), None);
        let t = PolicySpec::Tdvs(TdvsConfig {
            top_threshold_mbps: 1000.0,
            window_cycles: 20_000,
        });
        assert_eq!(t.window_cycles(), Some(20_000));
        let e = PolicySpec::Edvs(EdvsConfig::default());
        assert_eq!(e.window_cycles(), Some(40_000));
    }

    #[test]
    #[should_panic(expected = "receive ME")]
    fn build_rejects_no_rx_mes() {
        let config = NpuConfig {
            rx_mes: 0,
            ..NpuConfig::default()
        };
        config.validate();
    }

    #[test]
    fn trace_defaults_are_quiet() {
        let t = TraceConfig::default();
        assert!(!t.emit_fifo);
        assert!(!t.emit_pipeline);
    }
}
