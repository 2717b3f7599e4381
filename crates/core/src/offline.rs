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
//! (streaming capture → per-window histograms → slowdown thresholding →
//! replay); [`crate::artifact`] caches its histograms and schedules across
//! processes.

use crate::shaker::ShakerConfig;
use mcd_sim::reconfig::FrequencySetting;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::schedule::replay_with;
    use crate::pipeline::{threshold_windows, AnalysisPipeline};
    use mcd_sim::config::MachineConfig;
    use mcd_sim::simulator::{NullHooks, Simulator};
    use mcd_sim::stats::{RelativeMetrics, SimStats};
    use mcd_sim::time::MegaHertz;
    use mcd_workloads::generator::generate_packed;
    use mcd_workloads::{programs, suite};

    #[test]
    fn oracle_saves_energy_on_integer_code() {
        let (program, inputs) = programs::adpcm::decode();
        let trace = generate_packed(&program, &inputs.training);
        let machine = MachineConfig::default();
        let simulator = Simulator::new(machine);
        let baseline = simulator.run(trace.iter(), &mut NullHooks, false).stats;
        let config = OfflineConfig::default();
        let (schedule, _) = AnalysisPipeline::new(config).analyze_with_report(&simulator, &trace);
        assert!(!schedule.is_empty());
        let stats = replay_with(&simulator, &trace, &schedule, config.window_instructions);
        let metrics = RelativeMetrics::relative_to(&stats, &baseline);
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

    /// The metamorphic property "a looser slowdown target never costs the
    /// oracle energy", over one histogram analysis per trace thresholded at
    /// every target. Run time is compared only between two distant targets:
    /// it does not rise monotonically with the target (0 → 0.01 often runs
    /// faster).
    #[test]
    fn tighter_slowdown_bound_costs_less_performance() {
        const TARGETS: [f64; 12] = [
            0.0, 0.01, 0.02, 0.03, 0.05, 0.07, 0.10, 0.15, 0.20, 0.30, 0.50, 0.90,
        ];
        let machine = MachineConfig::default();
        let config = OfflineConfig::default();
        let simulator = Simulator::new(machine.clone());
        for name in ["gsm decode", "swim", "kv store"] {
            let bench = suite::benchmark(name).expect("known benchmark");
            let trace = generate_packed(&bench.program, &bench.inputs.training).truncated(60_000);
            let (windows, _) = AnalysisPipeline::new(config).histograms(&simulator, &trace);
            let runs: Vec<SimStats> = TARGETS
                .iter()
                .map(|&slowdown| {
                    let schedule = threshold_windows(&windows, slowdown, &machine.grid);
                    replay_with(&simulator, &trace, &schedule, config.window_instructions)
                })
                .collect();
            for (targets, stats) in TARGETS.windows(2).zip(runs.windows(2)) {
                assert!(
                    stats[1].total_energy.as_units() <= stats[0].total_energy.as_units(),
                    "{name}: energy rose from slowdown {} to {}",
                    targets[0],
                    targets[1]
                );
            }
            // TARGETS[2] = 0.02 and TARGETS[7] = 0.15.
            let (tight, loose) = (&runs[2], &runs[7]);
            assert!(
                loose.run_time >= tight.run_time,
                "{name}: slowdown 0.15 ran faster than 0.02"
            );
        }
    }
}
