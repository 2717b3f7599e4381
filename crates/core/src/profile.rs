//! Profile-driven reconfiguration — the paper's contribution.
//!
//! Training ties the four phases together: profile the training input to build
//! the call tree and pick long-running nodes ([`mcd_profiling`]), run the
//! instrumented training input through the simulator at full speed to collect
//! the primitive-event dependence trace, shake each long-running node's DAG
//! into per-domain histograms, apply slowdown thresholding to pick each node's
//! frequencies, and record the result in a [`FrequencyTable`] keyed by the
//! reconfiguration points the edited binary will recognize.
//!
//! Production runs use [`ProfileHooks`]: the emulated instrumentation tracks
//! the current call-tree node, charges its overhead, and writes the frequency
//! register whenever a reconfiguration point is entered or left.

use crate::controller::{FrequencyTable, SettingStack};
use crate::dag::DependenceDag;
use crate::histogram::RegionHistograms;
use crate::shaker::{Shaker, ShakerConfig};
use crate::threshold::SlowdownThreshold;
use mcd_profiling::call_tree::CallTree;
use mcd_profiling::candidates::LongRunningSet;
use mcd_profiling::context::ContextPolicy;
use mcd_profiling::edit::{InstrumentationPlan, NodeKey};
use mcd_sim::config::MachineConfig;
use mcd_sim::freq::FrequencyGrid;
use mcd_sim::instruction::Marker;
use mcd_sim::simulator::{HookAction, SimHooks, Simulator};
use mcd_sim::stats::SimStats;
use mcd_sim::time::TimeNs;
use mcd_sim::trace::PackedTrace;
use mcd_workloads::input::InputSet;
use mcd_workloads::program::Program;
use std::collections::HashMap;

/// Parameters of the training pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingConfig {
    /// Calling-context policy (the paper recommends L+F).
    pub policy: ContextPolicy,
    /// Tolerable slowdown, as a fraction (0.07 = 7%).
    pub slowdown: f64,
    /// Long-running node threshold in instructions per average instance.
    pub long_running_threshold: u64,
    /// Shaker tuning parameters.
    pub shaker: ShakerConfig,
}

impl Default for TrainingConfig {
    fn default() -> Self {
        TrainingConfig {
            policy: ContextPolicy::LoopFunc,
            slowdown: 0.07,
            long_running_threshold: mcd_profiling::candidates::DEFAULT_THRESHOLD,
            shaker: ShakerConfig::default(),
        }
    }
}

/// The product of training: the edited binary plus its frequency table.
#[derive(Debug, Clone)]
pub struct ProfilePlan {
    /// Where instrumentation and reconfiguration points live.
    pub instrumentation: InstrumentationPlan,
    /// Frequencies chosen for each reconfiguration point.
    pub table: FrequencyTable,
    /// Statistics of the full-speed training (profiling) run.
    pub training_stats: SimStats,
}

impl ProfilePlan {
    /// Creates the production-run hooks for this plan.
    pub fn hooks(&self) -> ProfileHooks<'_> {
        ProfileHooks {
            tracker: self.instrumentation.tracker(),
            table: &self.table,
            stack: SettingStack::default(),
        }
    }
}

/// Phase 1 of training, on an already generated training trace: build the
/// call tree, pick the long-running nodes, and lay out the instrumentation.
///
/// This phase is cheap (two passes over the trace, no simulation) and fully
/// deterministic — the same trace and policy always produce the same node
/// keys — which is what lets the artifact cache persist only the expensive
/// phases' output (the frequency table) and rebuild the plan around it.
pub fn instrumentation_plan(trace: &PackedTrace, config: &TrainingConfig) -> InstrumentationPlan {
    let tree = CallTree::build_items(trace.iter(), config.policy);
    let long_running =
        LongRunningSet::identify_with_threshold(&tree, config.long_running_threshold);
    InstrumentationPlan::new(tree, long_running, config.policy)
}

/// The slowdown-independent bulk of training: generates the training trace,
/// lays out its instrumentation (phase 1), then runs the full-speed
/// recording run and per-region DAG construction plus shaking (phases 2 and
/// 3a). Returns the instrumentation plan, the non-empty `(key, histograms)`
/// pairs in region-partition order (empty regions never enter the frequency
/// table, so they are dropped here) and the training-run statistics.
pub(crate) fn training_histograms(
    program: &Program,
    training_input: &InputSet,
    machine: &MachineConfig,
    config: &TrainingConfig,
) -> (
    InstrumentationPlan,
    Vec<(NodeKey, RegionHistograms)>,
    SimStats,
) {
    let trace = mcd_workloads::generator::generate_packed(program, training_input);
    let instrumentation = instrumentation_plan(&trace, config);
    // Run the training input at full speed, recording primitive events tagged
    // with the innermost active reconfiguration key.
    let mut region_of_key: HashMap<NodeKey, u32> = HashMap::new();
    let mut key_of_region: HashMap<u32, NodeKey> = HashMap::new();
    for (i, key) in instrumentation.reconfig_keys().into_iter().enumerate() {
        region_of_key.insert(key, (i + 1) as u32);
        key_of_region.insert((i + 1) as u32, key);
    }
    let simulator = Simulator::new(machine.clone());
    let mut trainer_hooks = TrainerHooks {
        tracker: instrumentation.tracker(),
        region_of_key: &region_of_key,
    };
    let result = simulator.run(trace.iter(), &mut trainer_hooks, true);
    let events = result.events.expect("training run records events");

    // Shaker per reconfiguration key, over every region's slice of the
    // recorded trace, partitioned in one pass.
    let shaker = Shaker::with_config(config.shaker);
    let grid = &machine.grid;
    let mut entries = Vec::new();
    for (region, slice) in events.partition_regions() {
        let Some(key) = key_of_region.get(&region) else {
            continue; // region 0: events outside every reconfiguration key
        };
        if slice.is_empty() {
            continue;
        }
        let mut dag = DependenceDag::from_trace(&slice);
        let histograms = shaker.shake_into_histograms(&mut dag, grid, grid.max());
        if histograms.is_empty() {
            continue;
        }
        entries.push((*key, histograms));
    }
    (instrumentation, entries, result.stats)
}

/// Phase 3b: slowdown-thresholds per-key histograms into a frequency table.
/// Pure and cheap — re-running it under a different `slowdown` is how a
/// cached [`TrainingHistogramsArtifact`](crate::artifact::TrainingHistogramsArtifact)
/// skips the recording run and the shaker entirely.
pub(crate) fn threshold_table(
    entries: &[(NodeKey, RegionHistograms)],
    slowdown: f64,
    grid: &FrequencyGrid,
) -> FrequencyTable {
    let chooser = SlowdownThreshold::new(slowdown);
    let mut table = FrequencyTable::new();
    for (key, histograms) in entries {
        table.insert(*key, chooser.choose(histograms).quantized(grid));
    }
    table
}

/// Trains the profile-driven reconfiguration mechanism for one program.
///
/// `trace` generation, call-tree construction, the profiling simulation, the
/// shaker and slowdown thresholding all run on the *training* input;
/// production runs must use [`ProfilePlan::hooks`] on the reference input.
pub fn train(
    program: &Program,
    training_input: &InputSet,
    machine: &MachineConfig,
    config: &TrainingConfig,
) -> ProfilePlan {
    let (instrumentation, entries, training_stats) =
        training_histograms(program, training_input, machine, config);
    ProfilePlan {
        instrumentation,
        table: threshold_table(&entries, config.slowdown, &machine.grid),
        training_stats,
    }
}

/// Hooks used during the profiling (training) run: follow the instrumentation
/// to tag recorded events with the innermost active reconfiguration key, but do
/// not reconfigure and do not charge overhead (the training run measures the
/// application, not the instrumentation).
#[derive(Debug)]
struct TrainerHooks<'a> {
    tracker: mcd_profiling::edit::RuntimeTracker<'a>,
    region_of_key: &'a HashMap<NodeKey, u32>,
}

impl SimHooks for TrainerHooks<'_> {
    fn on_marker(&mut self, marker: &Marker, _now: TimeNs, _instr_index: u64) -> HookAction {
        self.tracker.on_marker(marker);
        let region = self
            .tracker
            .current_key()
            .and_then(|k| self.region_of_key.get(&k).copied())
            .unwrap_or(0);
        HookAction::region(region)
    }
}

/// Production-run hooks: emulate the edited binary's instrumentation, charge
/// its overhead, and write the reconfiguration register at reconfiguration
/// points.
#[derive(Debug)]
pub struct ProfileHooks<'a> {
    tracker: mcd_profiling::edit::RuntimeTracker<'a>,
    table: &'a FrequencyTable,
    stack: SettingStack,
}

impl ProfileHooks<'_> {
    /// Dynamic instrumentation-point executions so far.
    pub fn dynamic_instrumentations(&self) -> u64 {
        self.tracker.dynamic_instrumentations()
    }

    /// Dynamic reconfiguration-point executions so far.
    pub fn dynamic_reconfigurations(&self) -> u64 {
        self.tracker.dynamic_reconfigurations()
    }

    /// Total instrumentation overhead cycles charged so far.
    pub fn overhead_cycles(&self) -> f64 {
        self.tracker.overhead_cycles()
    }
}

impl SimHooks for ProfileHooks<'_> {
    fn on_marker(&mut self, marker: &Marker, _now: TimeNs, _instr_index: u64) -> HookAction {
        let outcome = self.tracker.on_marker(marker);
        let mut action = HookAction {
            overhead_cycles: outcome.overhead_cycles,
            ..HookAction::default()
        };
        if let Some(event) = outcome.reconfig {
            if let Some(setting) = self.stack.apply(event, self.table) {
                action.reconfigure = Some(setting);
            }
        }
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_sim::domain::Domain;
    use mcd_sim::simulator::NullHooks;
    use mcd_sim::stats::RelativeMetrics;
    use mcd_workloads::programs;

    fn machine() -> MachineConfig {
        MachineConfig::default()
    }

    #[test]
    fn training_produces_settings_for_every_long_running_key() {
        let (program, inputs) = programs::adpcm::decode();
        let plan = train(
            &program,
            &inputs.training,
            &machine(),
            &TrainingConfig::default(),
        );
        assert!(
            !plan.table.is_empty(),
            "adpcm has at least one long-running node"
        );
        for key in plan.instrumentation.reconfig_keys() {
            assert!(
                plan.table.get(key).is_some(),
                "every reconfiguration key should have a frequency entry"
            );
        }
        assert!(plan.training_stats.instructions > 10_000);
    }

    #[test]
    fn integer_only_code_slows_the_fp_domain() {
        let (program, inputs) = programs::adpcm::decode();
        let plan = train(
            &program,
            &inputs.training,
            &machine(),
            &TrainingConfig::default(),
        );
        // Every chosen setting should run the (idle) FP domain well below the
        // integer domain.
        let mut saw_entry = false;
        for (_, setting) in plan.table.iter() {
            saw_entry = true;
            assert!(
                setting.get(Domain::FloatingPoint).as_mhz()
                    <= setting.get(Domain::Integer).as_mhz()
            );
            assert!(setting.get(Domain::FloatingPoint).as_mhz() <= 500.0);
        }
        assert!(saw_entry);
    }

    #[test]
    fn production_run_saves_energy_within_slowdown_budget() {
        let (program, inputs) = programs::adpcm::decode();
        let mcfg = machine();
        let config = TrainingConfig::default();
        let plan = train(&program, &inputs.training, &mcfg, &config);
        assert!(!plan.table.is_empty());

        // The production run and its baseline: the reference trace under the
        // plan's hooks and at full speed.
        let trace = mcd_workloads::generator::generate_packed(&program, &inputs.reference);
        let simulator = Simulator::new(mcfg);
        let stats = simulator.run(trace.iter(), &mut plan.hooks(), false).stats;
        let baseline = simulator.run(trace.iter(), &mut NullHooks, false).stats;
        let metrics = RelativeMetrics::relative_to(&stats, &baseline);
        assert!(
            metrics.energy_savings > 0.05,
            "profile-based DVFS should save energy, got {:.1}%",
            metrics.energy_savings_percent()
        );
        assert!(
            metrics.performance_degradation < 0.25,
            "slowdown should be bounded, got {:.1}%",
            metrics.degradation_percent()
        );
        assert!(stats.reconfigurations > 0);
    }
}
