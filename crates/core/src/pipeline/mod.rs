//! The staged off-line analysis pipeline.
//!
//! The paper's off-line analysis — the hot path of every experiment — is an
//! explicit four-stage pipeline here:
//!
//! 1. **Streaming windowed capture** ([`window::analyze_streaming`]): run the
//!    packed input trace at full speed, recording primitive events; every
//!    time a fixed instruction window closes, the recorded window streams
//!    straight into stage 2 and its buffer is reused, so capture memory is
//!    O(window) rather than O(trace).
//! 2. **Per-window analysis**: for every window, build the dependence DAG
//!    (CSR adjacency), run the shaker, and apply slowdown thresholding to
//!    pick a frequency setting. Windows are independent: serially they are
//!    analysed in place; with a thread budget they flow through a bounded
//!    channel to `std::thread::scope` workers, overlapping capture — either
//!    way the settings are bit-identical.
//! 3. **Schedule assembly and replay** ([`schedule`]): collect the per-window
//!    settings into an [`OfflineSchedule`]
//!    and replay the trace applying each window's setting at its boundary,
//!    on the same simulator that performed the capture.
//!
//! The batch equivalents ([`capture::capture`], [`window::slice_windows`],
//! [`window::analyze_windows`]) remain for callers that already hold a
//! recorded [`EventTrace`](mcd_sim::events::EventTrace).
//!
//! [`AnalysisPipeline`] composes the stages; [`run_offline`](crate::offline::run_offline)
//! is a thin serial wrapper around it. Stage outputs are plain values, which is
//! what lets the artifact cache ([`crate::artifact`]) persist a per-window
//! schedule and skip stages 1–2 entirely on a warm run.

pub mod capture;
pub mod schedule;
pub mod window;

use crate::histogram::RegionHistograms;
use crate::offline::{OfflineConfig, OfflineResult, OfflineSchedule};
use crate::shaker::Shaker;
use crate::threshold::SlowdownThreshold;
use mcd_sim::config::MachineConfig;
use mcd_sim::freq::FrequencyGrid;
use mcd_sim::simulator::Simulator;
use mcd_sim::trace::PackedTrace;
pub use window::StreamReport;

/// Re-derives a per-window schedule from cached histograms: pure slowdown
/// thresholding, no simulation, DAG construction, or shaking. `None` entries
/// (empty windows) become full-speed settings, exactly as on the capture
/// path, so the result is bit-identical to what a full
/// [`AnalysisPipeline::analyze_with_histograms`] run at `slowdown` would
/// assemble.
pub fn threshold_windows(
    windows: &[Option<RegionHistograms>],
    slowdown: f64,
    grid: &FrequencyGrid,
) -> OfflineSchedule {
    let chooser = SlowdownThreshold::new(slowdown);
    schedule::assemble(
        windows
            .iter()
            .map(|h| window::threshold_one(h.as_ref(), &chooser, grid))
            .collect(),
    )
}

/// The staged off-line analysis pipeline: streaming capture → per-window
/// analysis → schedule assembly.
///
/// ```
/// use mcd_dvfs::offline::OfflineConfig;
/// use mcd_dvfs::pipeline::AnalysisPipeline;
/// use mcd_sim::config::MachineConfig;
/// use mcd_workloads::{generator::generate_packed, programs};
///
/// let (program, inputs) = programs::adpcm::decode();
/// let trace = generate_packed(&program, &inputs.training);
/// let machine = MachineConfig::default();
/// let pipeline = AnalysisPipeline::new(OfflineConfig::default()).with_parallelism(4);
/// let schedule = pipeline.analyze(&trace, &machine);
/// assert!(!schedule.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct AnalysisPipeline {
    config: OfflineConfig,
    parallelism: usize,
}

impl AnalysisPipeline {
    /// Creates a serial pipeline with the given analysis parameters.
    pub fn new(config: OfflineConfig) -> Self {
        AnalysisPipeline {
            config,
            parallelism: 1,
        }
    }

    /// Sets the worker-thread count of the per-window analysis stage.
    ///
    /// Any value produces bit-identical schedules; only wall-clock time
    /// changes. Values below one are clamped to one (serial).
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// The analysis parameters.
    pub fn config(&self) -> &OfflineConfig {
        &self.config
    }

    /// The per-window worker-thread count.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// Runs stages 1–3 and assembles the per-window frequency schedule
    /// (without the controlled replay). Builds one simulator for the run; use
    /// [`AnalysisPipeline::analyze_with`] to share an existing one.
    pub fn analyze(&self, trace: &PackedTrace, machine: &MachineConfig) -> OfflineSchedule {
        self.analyze_with(&Simulator::new(machine.clone()), trace)
    }

    /// [`AnalysisPipeline::analyze`] against a caller-provided simulator
    /// (avoiding a machine-config clone per stage).
    pub fn analyze_with(&self, simulator: &Simulator, trace: &PackedTrace) -> OfflineSchedule {
        self.analyze_with_report(simulator, trace).0
    }

    /// [`AnalysisPipeline::analyze_with`], also returning the streaming
    /// capture's [`StreamReport`] (window count and peak resident events).
    pub fn analyze_with_report(
        &self,
        simulator: &Simulator,
        trace: &PackedTrace,
    ) -> (OfflineSchedule, StreamReport) {
        let shaker = Shaker::with_config(self.config.shaker);
        let chooser = SlowdownThreshold::new(self.config.slowdown);
        let (settings, report) = window::analyze_streaming(
            trace,
            simulator,
            self.config.window_instructions,
            &shaker,
            &chooser,
            self.parallelism,
        );
        (schedule::assemble(settings), report)
    }

    /// [`AnalysisPipeline::analyze_with_report`], additionally returning the
    /// per-window histograms the slowdown thresholding consumed (`None` for
    /// empty windows). Persisting those lets a later run with a *different*
    /// slowdown target re-derive its schedule via [`threshold_windows`]
    /// without repeating stages 1–2.
    pub fn analyze_with_histograms(
        &self,
        simulator: &Simulator,
        trace: &PackedTrace,
    ) -> (OfflineSchedule, Vec<Option<RegionHistograms>>, StreamReport) {
        let shaker = Shaker::with_config(self.config.shaker);
        let chooser = SlowdownThreshold::new(self.config.slowdown);
        let (settings, histograms, report) = window::analyze_streaming_with_histograms(
            trace,
            simulator,
            self.config.window_instructions,
            &shaker,
            &chooser,
            self.parallelism,
        );
        (schedule::assemble(settings), histograms, report)
    }

    /// Runs the full pipeline: analysis plus the controlled replay that
    /// applies each window's setting at its boundary. One simulator serves
    /// both the capture and the replay run.
    pub fn run(&self, trace: &PackedTrace, machine: &MachineConfig) -> OfflineResult {
        let simulator = Simulator::new(machine.clone());
        let schedule = self.analyze_with(&simulator, trace);
        let stats = schedule::replay_with(
            &simulator,
            trace,
            &schedule,
            self.config.window_instructions.max(1),
        );
        OfflineResult { schedule, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_workloads::generator::generate_packed;
    use mcd_workloads::programs;

    fn small_trace() -> PackedTrace {
        let (program, inputs) = programs::gsm::decode();
        generate_packed(&program, &inputs.training).truncated(50_000)
    }

    #[test]
    fn run_composes_analyze_and_replay() {
        // `run` must be exactly `analyze` followed by `replay` with the same
        // (clamped) window length — e.g. a drifting window between the two
        // halves would silently shift every reconfiguration boundary.
        let trace = small_trace();
        let machine = MachineConfig::default();
        let config = OfflineConfig::default();
        let pipeline = AnalysisPipeline::new(config);
        let composed_schedule = pipeline.analyze(&trace, &machine);
        let composed_stats = schedule::replay(
            &trace,
            &machine,
            &composed_schedule,
            config.window_instructions,
        );
        let run = pipeline.run(&trace, &machine);
        assert_eq!(run.schedule, composed_schedule);
        assert_eq!(run.stats.run_time, composed_stats.run_time);
        assert_eq!(
            run.stats.total_energy.as_units(),
            composed_stats.total_energy.as_units()
        );
    }

    #[test]
    fn parallel_analysis_is_bit_identical_to_serial() {
        let trace = small_trace();
        let machine = MachineConfig::default();
        let config = OfflineConfig::default();
        let serial = AnalysisPipeline::new(config).analyze(&trace, &machine);
        for workers in [2, 3, 8] {
            let parallel = AnalysisPipeline::new(config)
                .with_parallelism(workers)
                .analyze(&trace, &machine);
            assert_eq!(serial, parallel, "parallelism={workers} diverged");
        }
    }

    #[test]
    fn rethresholding_histograms_matches_a_full_analysis() {
        let trace = small_trace();
        let machine = MachineConfig::default();
        let config = OfflineConfig::default();
        let simulator = Simulator::new(machine.clone());
        let pipeline = AnalysisPipeline::new(config);
        let (schedule, histograms, _) = pipeline.analyze_with_histograms(&simulator, &trace);
        assert_eq!(schedule, pipeline.analyze_with(&simulator, &trace));
        assert_eq!(
            threshold_windows(&histograms, config.slowdown, &machine.grid),
            schedule
        );
        // Re-deriving a *different* slowdown target from the same histograms
        // matches a from-scratch analysis at that target.
        let mut other = config;
        other.slowdown = config.slowdown * 2.0;
        let full = AnalysisPipeline::new(other).analyze_with(&simulator, &trace);
        assert_eq!(
            threshold_windows(&histograms, other.slowdown, &machine.grid),
            full
        );
    }

    #[test]
    fn parallelism_clamps_to_at_least_one() {
        let p = AnalysisPipeline::new(OfflineConfig::default()).with_parallelism(0);
        assert_eq!(p.parallelism(), 1);
    }
}
