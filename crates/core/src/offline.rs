//! The off-line oracle with perfect future knowledge.
//!
//! Following the paper's earlier off-line analysis (Semeraro et al., HPCA
//! 2002), the oracle records the *reference* run itself at full speed, slices
//! it into fixed instruction windows, runs the shaker and slowdown
//! thresholding on every window, and then replays the reference run applying
//! each window's chosen frequencies at the window boundary — something no
//! realizable controller can do, since it requires knowing the future. It is
//! the upper bound the profile-driven and on-line mechanisms are measured
//! against.
//!
//! The analysis itself lives in the staged [`crate::pipeline`] module
//! (capture → slice → per-window analysis → schedule assembly);
//! [`run_offline`] is the serial convenience wrapper. Use
//! [`AnalysisPipeline`] directly for
//! window-parallel analysis, and [`crate::artifact`] to cache the resulting
//! schedules across processes.

use crate::pipeline::AnalysisPipeline;
use crate::shaker::ShakerConfig;
use mcd_sim::config::MachineConfig;
use mcd_sim::reconfig::FrequencySetting;
use mcd_sim::stats::SimStats;
use mcd_sim::trace::PackedTrace;

/// Parameters of the off-line oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OfflineConfig {
    /// Tolerable slowdown, as a fraction.
    pub slowdown: f64,
    /// Analysis window length in instructions.
    pub window_instructions: u64,
    /// Shaker tuning parameters.
    pub shaker: ShakerConfig,
}

impl Default for OfflineConfig {
    fn default() -> Self {
        OfflineConfig {
            slowdown: 0.07,
            window_instructions: 10_000,
            shaker: ShakerConfig::default(),
        }
    }
}

/// The schedule the oracle computed: one frequency setting per window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OfflineSchedule {
    settings: Vec<FrequencySetting>,
}

impl OfflineSchedule {
    /// Creates a schedule from per-window settings, in window order.
    pub fn from_settings(settings: Vec<FrequencySetting>) -> Self {
        OfflineSchedule { settings }
    }

    /// The per-window settings, in window order.
    pub fn settings(&self) -> &[FrequencySetting] {
        &self.settings
    }

    /// The setting for window `index` (the last setting persists past the end).
    pub fn setting(&self, index: u64) -> Option<FrequencySetting> {
        if self.settings.is_empty() {
            None
        } else {
            let i = (index as usize).min(self.settings.len() - 1);
            Some(self.settings[i])
        }
    }

    /// Number of windows in the schedule.
    pub fn len(&self) -> usize {
        self.settings.len()
    }

    /// True if the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.settings.is_empty()
    }
}

/// Result of an off-line-oracle evaluation of one benchmark.
#[derive(Debug, Clone)]
pub struct OfflineResult {
    /// The per-window schedule the oracle chose.
    pub schedule: OfflineSchedule,
    /// Statistics of the controlled run.
    pub stats: SimStats,
}

/// Runs the off-line oracle on a reference trace, serially.
///
/// The same trace is first recorded at full speed (the "future knowledge"),
/// then replayed under the computed schedule. This is a thin wrapper over the
/// staged [`AnalysisPipeline`]; build the pipeline yourself to fan the
/// per-window analysis out across worker threads.
pub fn run_offline(
    trace: &PackedTrace,
    machine: &MachineConfig,
    config: &OfflineConfig,
) -> OfflineResult {
    AnalysisPipeline::new(*config).run(trace, machine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_sim::simulator::NullHooks;
    use mcd_sim::simulator::Simulator;
    use mcd_sim::stats::RelativeMetrics;
    use mcd_sim::time::MegaHertz;
    use mcd_workloads::generator::generate_packed;
    use mcd_workloads::programs;

    #[test]
    fn oracle_saves_energy_on_integer_code() {
        let (program, inputs) = programs::adpcm::decode();
        let trace = generate_packed(&program, &inputs.training);
        let machine = MachineConfig::default();
        let baseline = Simulator::new(machine.clone())
            .run(trace.iter(), &mut NullHooks, false)
            .stats;
        let result = run_offline(&trace, &machine, &OfflineConfig::default());
        assert!(!result.schedule.is_empty());
        let metrics = RelativeMetrics::relative_to(&result.stats, &baseline);
        assert!(
            metrics.energy_savings > 0.05,
            "oracle should save energy, got {:.1}%",
            metrics.energy_savings_percent()
        );
        assert!(
            metrics.performance_degradation < 0.25,
            "oracle slowdown should be bounded, got {:.1}%",
            metrics.degradation_percent()
        );
    }

    fn distinct_settings() -> Vec<FrequencySetting> {
        vec![
            FrequencySetting::uniform(MegaHertz::new(1000.0)),
            FrequencySetting::uniform(MegaHertz::new(500.0)),
            FrequencySetting::uniform(MegaHertz::new(250.0)),
        ]
    }

    #[test]
    fn schedule_indexing_returns_each_window_exactly() {
        let settings = distinct_settings();
        let schedule = OfflineSchedule::from_settings(settings.clone());
        assert_eq!(schedule.len(), 3);
        assert!(!schedule.is_empty());
        assert_eq!(schedule.settings(), settings.as_slice());
        for (i, expected) in settings.iter().enumerate() {
            assert_eq!(schedule.setting(i as u64), Some(*expected));
        }
    }

    #[test]
    fn last_setting_persists_past_the_end_of_the_schedule() {
        let settings = distinct_settings();
        let last = *settings.last().unwrap();
        let schedule = OfflineSchedule::from_settings(settings);
        // Every index at or past the final window returns the *final* setting,
        // not full speed and not None: the oracle's run keeps the last chosen
        // operating point until the program ends.
        for index in [3, 4, 99, u64::from(u32::MAX)] {
            assert_eq!(schedule.setting(index), Some(last));
        }
        // The boundary case: the last in-range window is the same setting.
        assert_eq!(schedule.setting(2), Some(last));
    }

    #[test]
    fn empty_schedule_returns_none_for_every_index() {
        let schedule = OfflineSchedule::default();
        assert!(schedule.is_empty());
        assert_eq!(schedule.len(), 0);
        assert!(schedule.settings().is_empty());
        for index in [0, 1, 1_000_000] {
            assert_eq!(schedule.setting(index), None);
        }
    }

    #[test]
    fn single_window_schedule_serves_every_index() {
        let only = FrequencySetting::uniform(MegaHertz::new(675.0));
        let schedule = OfflineSchedule::from_settings(vec![only]);
        assert_eq!(schedule.setting(0), Some(only));
        assert_eq!(schedule.setting(u64::MAX), Some(only));
    }

    #[test]
    fn tighter_slowdown_bound_costs_less_performance() {
        let (program, inputs) = programs::gsm::decode();
        let trace = generate_packed(&program, &inputs.training).truncated(60_000);
        let machine = MachineConfig::default();
        let tight = run_offline(
            &trace,
            &machine,
            &OfflineConfig {
                slowdown: 0.02,
                ..OfflineConfig::default()
            },
        );
        let loose = run_offline(
            &trace,
            &machine,
            &OfflineConfig {
                slowdown: 0.15,
                ..OfflineConfig::default()
            },
        );
        assert!(loose.stats.run_time >= tight.stats.run_time);
        assert!(loose.stats.total_energy.as_units() <= tight.stats.total_energy.as_units());
    }
}
