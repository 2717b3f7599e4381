//! Pipeline stage 4: controlled replay.
//!
//! Replaying the trace under [`ScheduleHooks`] applies each window's setting
//! of an [`OfflineSchedule`] at the window boundary (the oracle's controlled
//! run).

use crate::offline::OfflineSchedule;
use mcd_sim::reconfig::FrequencySetting;
use mcd_sim::simulator::{SimHooks, Simulator};
use mcd_sim::stats::SimStats;
use mcd_sim::time::TimeNs;
use mcd_sim::trace::PackedTrace;

/// Hooks that replay a per-window schedule during a controlled run: at every
/// window boundary the window's setting is written to the reconfiguration
/// register (the last setting persists past the end of the schedule).
#[derive(Debug)]
pub struct ScheduleHooks<'a> {
    schedule: &'a OfflineSchedule,
    window_instructions: u64,
}

impl<'a> ScheduleHooks<'a> {
    /// Creates replay hooks for `schedule` with the given window length.
    pub fn new(schedule: &'a OfflineSchedule, window_instructions: u64) -> Self {
        ScheduleHooks {
            schedule,
            window_instructions: window_instructions.max(1),
        }
    }
}

impl SimHooks for ScheduleHooks<'_> {
    fn initial_setting(&self) -> Option<FrequencySetting> {
        self.schedule.setting(0)
    }

    fn instruction_window(&self) -> Option<u64> {
        Some(self.window_instructions)
    }

    fn on_instruction_window(
        &mut self,
        window_index: u64,
        _now: TimeNs,
    ) -> Option<FrequencySetting> {
        self.schedule.setting(window_index)
    }
}

/// Replays `trace` on `simulator` under `schedule`, returning the controlled
/// run's statistics.
pub fn replay_with(
    simulator: &Simulator,
    trace: &PackedTrace,
    schedule: &OfflineSchedule,
    window_instructions: u64,
) -> SimStats {
    let mut hooks = ScheduleHooks::new(schedule, window_instructions);
    simulator.run(trace.iter(), &mut hooks, false).stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_sim::time::MegaHertz;

    #[test]
    fn hooks_replay_the_schedule_and_persist_the_last_setting() {
        let slow = FrequencySetting::uniform(MegaHertz::new(250.0));
        let schedule = OfflineSchedule::from_settings(vec![FrequencySetting::full_speed(), slow]);
        let mut hooks = ScheduleHooks::new(&schedule, 1_000);
        assert_eq!(
            hooks.initial_setting(),
            Some(FrequencySetting::full_speed())
        );
        assert_eq!(hooks.instruction_window(), Some(1_000));
        assert_eq!(hooks.on_instruction_window(1, TimeNs::ZERO), Some(slow),);
        // Past the end of the schedule the last window's setting persists.
        assert_eq!(hooks.on_instruction_window(57, TimeNs::ZERO), Some(slow));
    }

    #[test]
    fn hooks_clamp_a_zero_window() {
        let schedule = OfflineSchedule::from_settings(vec![FrequencySetting::full_speed()]);
        let hooks = ScheduleHooks::new(&schedule, 0);
        assert_eq!(hooks.instruction_window(), Some(1));
    }
}
