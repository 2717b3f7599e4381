//! The staged off-line analysis pipeline.
//!
//! The paper's off-line analysis — the hot path of every experiment — is an
//! explicit pipeline here:
//!
//! 1. **Streaming windowed capture** ([`AnalysisPipeline::histograms`]): run
//!    the packed input trace at full speed, recording primitive events; every
//!    time a fixed instruction window closes, the recorded window streams
//!    straight into stage 2 and its buffer is reused, so capture memory is
//!    O(window) rather than O(trace).
//! 2. **Per-window analysis**: for every window, build the dependence DAG
//!    (CSR adjacency) and run the shaker, yielding the window's per-domain
//!    frequency histograms. Windows are independent: serially they are
//!    analysed in place; with a thread budget they flow through a bounded
//!    channel to `std::thread::scope` workers, overlapping capture — either
//!    way the histograms are bit-identical.
//! 3. **Slowdown thresholding** ([`threshold_windows`]): turn each window's
//!    histograms and a slowdown target into one frequency setting, giving an
//!    [`OfflineSchedule`]. This is the only stage that reads the target, so
//!    one set of histograms serves every target.
//! 4. **Replay** ([`schedule::replay_with`]): run the trace again, applying
//!    each window's setting at its boundary.
//!
//! Stage 1 can also run whole: [`capture::capture_with`] records the full
//! [`EventTrace`](mcd_sim::events::EventTrace) and [`window::slice_windows`]
//! cuts it into per-window slices, which lets a profiler time capture, DAG
//! build and shaking as separate stages.
//!
//! Stage outputs are plain values, which is what lets the artifact cache
//! ([`crate::artifact`]) persist the histograms and a per-window schedule and
//! skip stages 1–2 (or 1–3) on a warm run.

pub mod capture;
pub mod schedule;
pub mod window;

use crate::histogram::RegionHistograms;
use crate::offline::{OfflineConfig, OfflineSchedule};
use crate::shaker::Shaker;
use crate::threshold::SlowdownThreshold;
use mcd_sim::freq::FrequencyGrid;
use mcd_sim::reconfig::FrequencySetting;
use mcd_sim::simulator::Simulator;
use mcd_sim::trace::PackedTrace;
pub use window::StreamReport;

/// Slowdown-thresholds per-window histograms into a schedule: no simulation,
/// DAG construction or shaking. A `None` entry (an empty window) becomes a
/// full-speed setting, which is *not* what thresholding an all-zero
/// histogram would produce.
pub fn threshold_windows(
    windows: &[Option<RegionHistograms>],
    slowdown: f64,
    grid: &FrequencyGrid,
) -> OfflineSchedule {
    let chooser = SlowdownThreshold::new(slowdown);
    OfflineSchedule::from_settings(
        windows
            .iter()
            .map(|h| match h {
                None => FrequencySetting::full_speed(),
                Some(h) => chooser.choose(h).quantized(grid),
            })
            .collect(),
    )
}

/// The staged off-line analysis pipeline: streaming capture → per-window
/// histograms, thresholded by [`threshold_windows`].
///
/// ```
/// use mcd_dvfs::offline::OfflineConfig;
/// use mcd_dvfs::pipeline::AnalysisPipeline;
/// use mcd_sim::config::MachineConfig;
/// use mcd_sim::simulator::Simulator;
/// use mcd_workloads::{generator::generate_packed, programs};
///
/// let (program, inputs) = programs::adpcm::decode();
/// let trace = generate_packed(&program, &inputs.training);
/// let simulator = Simulator::new(MachineConfig::default());
/// let pipeline = AnalysisPipeline::new(OfflineConfig::default()).with_parallelism(4);
/// let (schedule, report) = pipeline.analyze_with_report(&simulator, &trace);
/// assert_eq!(schedule.len() as u64, report.windows);
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

    /// Sets the worker-thread count of the per-window analysis stage; values
    /// of one or less run it serially.
    ///
    /// Any value produces bit-identical histograms; only wall-clock time
    /// changes.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Runs stages 1–2 on `simulator`: each window's shaken histograms
    /// (`None` for an empty window), in window order, plus the streaming
    /// capture's [`StreamReport`]. The histograms do not depend on the
    /// slowdown target; [`threshold_windows`] turns them into a schedule for
    /// any target.
    pub fn histograms(
        &self,
        simulator: &Simulator,
        trace: &PackedTrace,
    ) -> (Vec<Option<RegionHistograms>>, StreamReport) {
        window::stream_histograms(
            trace,
            simulator,
            self.config.window_instructions,
            &Shaker::with_config(self.config.shaker),
            self.parallelism,
        )
    }

    /// [`AnalysisPipeline::histograms`] thresholded at the configuration's
    /// slowdown target: the per-window schedule plus the [`StreamReport`].
    pub fn analyze_with_report(
        &self,
        simulator: &Simulator,
        trace: &PackedTrace,
    ) -> (OfflineSchedule, StreamReport) {
        let (windows, report) = self.histograms(simulator, trace);
        let schedule = threshold_windows(&windows, self.config.slowdown, &simulator.config().grid);
        (schedule, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_sim::config::MachineConfig;
    use mcd_workloads::generator::generate_packed;
    use mcd_workloads::programs;

    fn small_trace() -> PackedTrace {
        let (program, inputs) = programs::gsm::decode();
        generate_packed(&program, &inputs.training).truncated(50_000)
    }

    #[test]
    fn histograms_threshold_and_replay_compose_on_one_simulator() {
        // Capture and replay on one shared simulator must match the same
        // stages on fresh simulators, with the same window length — e.g. a
        // drifting window between the two halves would silently shift every
        // reconfiguration boundary.
        let trace = small_trace();
        let machine = MachineConfig::default();
        let config = OfflineConfig::default();
        let pipeline = AnalysisPipeline::new(config);
        let shared = Simulator::new(machine.clone());
        let (windows, _) = pipeline.histograms(&shared, &trace);
        let composed_schedule = threshold_windows(&windows, config.slowdown, &machine.grid);
        let composed_stats = schedule::replay_with(
            &shared,
            &trace,
            &composed_schedule,
            config.window_instructions,
        );
        let (fresh_schedule, _) =
            pipeline.analyze_with_report(&Simulator::new(machine.clone()), &trace);
        let fresh_stats = schedule::replay_with(
            &Simulator::new(machine.clone()),
            &trace,
            &fresh_schedule,
            config.window_instructions,
        );
        assert_eq!(fresh_schedule, composed_schedule);
        assert_eq!(fresh_stats.run_time, composed_stats.run_time);
        assert_eq!(
            fresh_stats.total_energy.as_units(),
            composed_stats.total_energy.as_units()
        );
    }

    #[test]
    fn parallel_analysis_is_bit_identical_to_serial() {
        let trace = small_trace();
        let simulator = Simulator::new(MachineConfig::default());
        let config = OfflineConfig::default();
        let serial = AnalysisPipeline::new(config).analyze_with_report(&simulator, &trace);
        for workers in [2, 3, 8] {
            let parallel = AnalysisPipeline::new(config)
                .with_parallelism(workers)
                .analyze_with_report(&simulator, &trace);
            assert_eq!(serial.0, parallel.0, "parallelism={workers} diverged");
        }
    }

    #[test]
    fn rethresholding_histograms_matches_a_full_analysis() {
        let trace = small_trace();
        let machine = MachineConfig::default();
        let config = OfflineConfig::default();
        let simulator = Simulator::new(machine.clone());
        let pipeline = AnalysisPipeline::new(config);
        let (histograms, _) = pipeline.histograms(&simulator, &trace);
        let (schedule, _) = pipeline.analyze_with_report(&simulator, &trace);
        assert_eq!(
            threshold_windows(&histograms, config.slowdown, &machine.grid),
            schedule
        );
        // Re-deriving a *different* slowdown target from the same histograms
        // matches a from-scratch analysis at that target, whose histograms
        // are the same.
        let mut other = config;
        other.slowdown = config.slowdown * 2.0;
        let other_pipeline = AnalysisPipeline::new(other);
        assert_eq!(other_pipeline.histograms(&simulator, &trace).0, histograms);
        let (full, _) = other_pipeline.analyze_with_report(&simulator, &trace);
        assert_eq!(
            threshold_windows(&histograms, other.slowdown, &machine.grid),
            full
        );
    }

    #[test]
    fn parallelism_clamps_to_at_least_one() {
        // A budget of zero threads runs the serial stage.
        let trace = small_trace();
        let simulator = Simulator::new(MachineConfig::default());
        let serial = AnalysisPipeline::new(OfflineConfig::default());
        let zero = serial.clone().with_parallelism(0);
        assert_eq!(
            zero.histograms(&simulator, &trace),
            serial.histograms(&simulator, &trace)
        );
    }
}
