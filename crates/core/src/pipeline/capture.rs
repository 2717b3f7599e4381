//! Pipeline stage 1: full-speed trace capture.
//!
//! The reference run itself is the oracle's "future knowledge": the trace is
//! executed once at full speed with primitive-event recording enabled, and the
//! recorded event DAG plus the run statistics feed the later stages.

use mcd_sim::events::EventTrace;
use mcd_sim::instruction::TraceItem;
use mcd_sim::simulator::{NullHooks, Simulator};
use mcd_sim::stats::SimStats;

/// The output of the capture stage: the recorded primitive-event dependence
/// trace and the statistics of the full-speed run.
#[derive(Debug, Clone)]
pub struct CapturedTrace {
    /// Every primitive event of the run, with dependence edges.
    pub events: EventTrace,
    /// Statistics of the full-speed recording run.
    pub stats: SimStats,
}

impl CapturedTrace {
    /// Dynamic instructions executed by the recording run.
    pub fn instructions(&self) -> u64 {
        self.stats.instructions
    }
}

/// Runs the item stream at full speed on `simulator`, recording primitive
/// events. Accepts any item source (slices via `iter().copied()`, packed
/// traces via `PackedTrace::iter`). The oracle's hot path never captures a
/// whole run: [`AnalysisPipeline::histograms`](crate::pipeline::AnalysisPipeline::histograms)
/// streams one window at a time.
pub fn capture_with<I>(simulator: &Simulator, trace: I) -> CapturedTrace
where
    I: IntoIterator<Item = TraceItem>,
{
    let result = simulator.run(trace, &mut NullHooks, true);
    CapturedTrace {
        events: result.events.expect("recording run collects events"),
        stats: result.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_sim::config::MachineConfig;
    use mcd_workloads::generator::generate_trace;
    use mcd_workloads::programs;

    #[test]
    fn capture_records_events_and_stats() {
        let (program, inputs) = programs::adpcm::decode();
        let trace = generate_trace(&program, &inputs.training);
        let simulator = Simulator::new(MachineConfig::default());
        let captured = capture_with(&simulator, trace.iter().copied());
        assert!(captured.instructions() > 10_000);
        assert!(!captured.events.is_empty());
        // Every event belongs to an executed instruction.
        let max_index = captured
            .events
            .events()
            .iter()
            .map(|e| e.instr_index as u64)
            .max()
            .unwrap();
        assert!(max_index < captured.instructions());
    }
}
