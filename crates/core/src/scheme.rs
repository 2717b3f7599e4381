//! The [`DvfsScheme`] abstraction: every reconfiguration scheme the paper
//! compares — profile-driven, off-line oracle, on-line attack–decay, and
//! global DVS — implemented behind one trait so the evaluation pipeline can
//! iterate a registry instead of hard-coding each comparison point.
//!
//! A scheme receives a [`SchemeContext`] describing one benchmark run: the
//! benchmark itself, the machine model and the pre-generated reference trace.
//! A scheme that declares [`DvfsScheme::reads_prior_outcomes`] also gets the
//! full-speed MCD baseline statistics and the outcomes of schemes that ran
//! earlier in the registry (the global-DVS baseline uses them to match the
//! off-line oracle's run time). Every scheme does the same thing with it:
//! [`DvfsScheme::prepare`] builds the controller — training, analysis and
//! artifact lookups included — and hands back a [`Prepared`] lane; the
//! [`Evaluator`](crate::service::Evaluator) then replays the reference trace
//! under that lane, fused with every other lane of the same batch — every
//! scheme of every member, plus the baseline — into one
//! [`Simulator::run_lanes`](mcd_sim::simulator::Simulator::run_lanes) pass.

use crate::artifact::{
    self, codec, ArtifactCache, ArtifactKey, TrainingArtifact, TrainingHistogramsArtifact,
};
use crate::error::McdError;
use crate::evaluation::{EvaluationConfig, SchemeResult};
use crate::global_dvs::run_global_dvs;
use crate::histogram::RegionHistograms;
use crate::learned::{LearnedConfig, LearnedPolicy, LearnedTable};
use crate::offline::{OfflineConfig, OfflineSchedule};
use crate::online::{OnlineConfig, OnlineController};
use crate::pid::{PidConfig, PidController};
use crate::pipeline::schedule::ScheduleHooks;
use crate::pipeline::{threshold_windows, AnalysisPipeline};
use crate::profile::{
    self, instrumentation_plan, train_with_histograms, ProfilePlan, TrainingConfig,
};
use crate::sysscale::{SysScaleConfig, SysScaleController};
use mcd_profiling::edit::InstrumentationPlan;
use mcd_sim::config::MachineConfig;
use mcd_sim::simulator::{SimHooks, Simulator};
use mcd_sim::stats::SimStats;
use mcd_sim::trace::PackedTrace;
use mcd_workloads::generator::generate_packed;
use mcd_workloads::suite::Benchmark;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Canonical scheme names used by the standard registry.
pub mod names {
    /// The off-line oracle with perfect future knowledge.
    pub const OFFLINE: &str = "offline";
    /// The on-line attack–decay hardware controller.
    pub const ONLINE: &str = "online";
    /// Profile-driven reconfiguration (the paper's contribution).
    pub const PROFILE: &str = "profile";
    /// The whole-chip dynamic voltage scaling baseline.
    pub const GLOBAL: &str = "global";
    /// The PID queue-occupancy controller (controller zoo).
    pub const PID: &str = "pid";
    /// The SysScale-style shared-budget controller (controller zoo).
    pub const SYSSCALE: &str = "sysscale";
    /// The table-driven learned policy (controller zoo).
    pub const LEARNED: &str = "learned";

    /// The controller-zoo scheme names, in full-registry order.
    pub const ZOO: [&str; 3] = [PID, SYSSCALE, LEARNED];

    /// Every scheme name, in full-registry order.
    pub const ALL: [&str; 7] = [OFFLINE, ONLINE, PROFILE, PID, SYSSCALE, LEARNED, GLOBAL];
}

/// Everything a scheme needs to evaluate one benchmark.
#[derive(Debug)]
pub struct SchemeContext<'a> {
    /// The benchmark under evaluation (program model plus input pair).
    pub benchmark: &'a Benchmark,
    /// The machine model shared by every scheme in the comparison.
    pub machine: &'a MachineConfig,
    /// The reference-input trace, generated once per benchmark in the packed
    /// encoding. Callers that build a context by hand must pass the canonical
    /// `generate_packed(&benchmark.program, &benchmark.inputs.reference)`
    /// output; cache keys assume the trace is determined by the benchmark and
    /// input (plus the trace length, which guards against truncation).
    pub reference_trace: &'a PackedTrace,
    /// Full-speed MCD baseline statistics on the reference trace. `None`
    /// unless the scheme [reads prior outcomes](DvfsScheme::reads_prior_outcomes):
    /// the executor computes the baseline in the same pass as the other
    /// schemes' lanes.
    pub baseline: Option<&'a SimStats>,
    /// Outcomes of the schemes that ran earlier in the registry; empty
    /// unless the scheme [reads prior outcomes](DvfsScheme::reads_prior_outcomes).
    pub prior: &'a [SchemeOutcome],
}

impl SchemeContext<'_> {
    /// The outcome of an earlier scheme by name, if it ran.
    pub fn prior_outcome(&self, name: &str) -> Option<&SchemeOutcome> {
        self.prior.iter().find(|o| o.name == name)
    }
}

/// The result of one scheme on one benchmark, tagged with the scheme identity.
#[derive(Debug, Clone)]
pub struct SchemeOutcome {
    /// Canonical scheme name (see [`names`]).
    pub name: String,
    /// Human-readable label used in tables and figures.
    pub label: String,
    /// Controlled-run statistics and metrics relative to the MCD baseline.
    pub result: SchemeResult,
}

/// The state one simulation lane needs, owned for the length of a batch.
///
/// Closures returning a fresh controller are lanes, which covers every
/// scheme whose hooks own their state; a lane whose hooks borrow (a schedule,
/// a profile plan) implements the trait on the type that owns the borrowed
/// data.
pub trait Lane {
    /// Fresh hooks for one controlled run of the reference trace.
    fn hooks(&self) -> Box<dyn SimHooks + '_>;
}

impl<F, H> Lane for F
where
    F: Fn() -> H,
    H: SimHooks + 'static,
{
    fn hooks(&self) -> Box<dyn SimHooks + '_> {
        Box::new(self())
    }
}

impl Lane for ProfilePlan {
    fn hooks(&self) -> Box<dyn SimHooks + '_> {
        Box::new(ProfilePlan::hooks(self))
    }
}

/// The off-line oracle's lane: a per-window schedule and its window length.
struct ScheduleLane {
    schedule: OfflineSchedule,
    window_instructions: u64,
}

impl Lane for ScheduleLane {
    fn hooks(&self) -> Box<dyn SimHooks + '_> {
        Box::new(ScheduleHooks::new(&self.schedule, self.window_instructions))
    }
}

/// What [`DvfsScheme::prepare`] hands the executor for one benchmark.
pub enum Prepared {
    /// One lane of the batch's fused replay of the reference trace.
    Lane(Box<dyn Lane>),
    /// Statistics the scheme produced with runs of its own — global DVS's
    /// two-pass frequency refinement, whose second pass depends on the first.
    Finished(SimStats),
}

impl Prepared {
    /// Boxes `lane` as a [`Prepared::Lane`].
    pub fn lane(lane: impl Lane + 'static) -> Self {
        Prepared::Lane(Box::new(lane))
    }
}

impl fmt::Debug for Prepared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Prepared::Lane(_) => f.write_str("Lane"),
            Prepared::Finished(stats) => f.debug_tuple("Finished").field(stats).finish(),
        }
    }
}

/// The in-memory artifact pools one batch shares across its members (and
/// their schemes): per-window oracle histograms, per-region training
/// histograms (one entry feeds both the profile and the learned scheme), and
/// instrumentation plans. Members whose configurations differ only in the
/// slowdown target pay for one capture, DAG and shaker pass between them,
/// whether or not an on-disk cache is enabled.
///
/// Every artifact the pools compute goes through the on-disk cache's
/// single-writer publication ladder (`ArtifactCache::publish`) first; the
/// derived artifacts (schedules, frequency tables) are computed inside their
/// own ladder, so locks are always taken derived key → histograms key.
#[derive(Debug, Default)]
pub struct Pools {
    window_histograms: HashMap<ArtifactKey, Vec<Option<RegionHistograms>>>,
    training_histograms: HashMap<ArtifactKey, TrainingHistogramsArtifact>,
    instrumentation: HashMap<ArtifactKey, InstrumentationPlan>,
}

impl Pools {
    /// The off-line analysis's per-window histograms (slowdown-free): the
    /// capture, DAG and shaker stages of the pipeline.
    fn window_histograms(
        &mut self,
        cache: &ArtifactCache,
        ctx: &SchemeContext<'_>,
        config: &OfflineConfig,
        parallelism: usize,
    ) -> &[Option<RegionHistograms>] {
        let key = artifact::window_histograms_key(
            ctx.benchmark.name,
            &ctx.benchmark.inputs.reference,
            ctx.reference_trace.len() as u64,
            ctx.machine,
            config,
        );
        let grid = &ctx.machine.grid;
        self.window_histograms.entry(key).or_insert_with_key(|key| {
            cache.publish(
                key,
                |bytes| codec::decode_window_histograms(bytes, grid),
                |windows| codec::encode_window_histograms(windows, grid.len()),
                || {
                    AnalysisPipeline::new(*config)
                        .with_parallelism(parallelism)
                        .analyze_with_histograms(
                            &Simulator::new(ctx.machine.clone()),
                            ctx.reference_trace,
                        )
                        .1
                },
            )
        })
    }

    /// The training run's per-region histograms (slowdown-free). A recording
    /// run also leaves its instrumentation plan in the pool.
    fn training_histograms(
        &mut self,
        cache: &ArtifactCache,
        ctx: &SchemeContext<'_>,
        config: &TrainingConfig,
    ) -> &TrainingHistogramsArtifact {
        let grid = &ctx.machine.grid;
        let instrumentation = &mut self.instrumentation;
        self.training_histograms
            .entry(training_key(ctx, config))
            .or_insert_with_key(|key| {
                cache.publish(
                    key,
                    |bytes| codec::decode_training_histograms(bytes, grid),
                    |artifact| codec::encode_training_histograms(artifact, grid.len()),
                    || {
                        let (plan, entries) = train_with_histograms(
                            &ctx.benchmark.program,
                            &ctx.benchmark.inputs.training,
                            ctx.machine,
                            config,
                        );
                        instrumentation.insert(*key, plan.instrumentation);
                        TrainingHistogramsArtifact::from_entries(entries, plan.training_stats)
                    },
                )
            })
    }

    /// The profile scheme's instrumentation plan: the cheap, deterministic
    /// phase 1 of training, whose node keys match the ones any cached
    /// frequency table was recorded under.
    fn instrumentation(
        &mut self,
        ctx: &SchemeContext<'_>,
        config: &TrainingConfig,
    ) -> InstrumentationPlan {
        self.instrumentation
            .entry(training_key(ctx, config))
            .or_insert_with(|| {
                let trace = generate_packed(&ctx.benchmark.program, &ctx.benchmark.inputs.training);
                instrumentation_plan(&trace, config)
            })
            .clone()
    }
}

/// The slowdown-free identity of a training run.
fn training_key(ctx: &SchemeContext<'_>, config: &TrainingConfig) -> ArtifactKey {
    artifact::training_histograms_key(
        ctx.benchmark.name,
        &ctx.benchmark.inputs.training,
        ctx.machine,
        config,
    )
}

/// One DVFS control scheme in the paper's comparison.
///
/// Implementations are registered in a `Vec<Box<dyn DvfsScheme>>` and
/// prepared in order by the [`Evaluator`](crate::service::Evaluator); schemes
/// whose definition depends on another scheme's result (global DVS matches
/// the off-line run time) say so with
/// [`reads_prior_outcomes`](DvfsScheme::reads_prior_outcomes) and read it
/// from [`SchemeContext::prior`]. Adding a scheme means implementing
/// [`DvfsScheme::prepare`] and registering it — the executor batches it like
/// every other scheme.
pub trait DvfsScheme: fmt::Debug + Send + Sync {
    /// Canonical machine-readable name, unique within a registry.
    fn name(&self) -> &'static str;

    /// Human-readable label for tables and figures.
    fn label(&self) -> String {
        self.name().to_string()
    }

    /// Absorbs the shared evaluation configuration (slowdown targets, context
    /// policy, controller tuning) before any benchmark runs.
    fn configure(&mut self, config: &EvaluationConfig) -> Result<(), McdError> {
        let _ = config;
        Ok(())
    }

    /// Whether [`prepare`](DvfsScheme::prepare) reads the baseline and the
    /// outcomes of earlier schemes ([`SchemeContext::baseline`],
    /// [`SchemeContext::prior`]). The executor runs every lane queued so far
    /// before preparing such a scheme; every other scheme is prepared with
    /// neither, and its lane joins one fused pass with the rest.
    fn reads_prior_outcomes(&self) -> bool {
        false
    }

    /// Builds the scheme's controller for one benchmark. Expensive shared
    /// inputs (analysis histograms, training runs) come from `pools`, so
    /// batch members that agree on them compute them once.
    fn prepare(&self, ctx: &SchemeContext<'_>, pools: &mut Pools) -> Result<Prepared, McdError>;
}

/// The off-line oracle scheme (perfect knowledge of the reference run).
///
/// The expensive analysis runs through the staged
/// [`AnalysisPipeline`]: the per-window
/// shaker/threshold stage fans out across `parallelism` worker threads, and
/// the resulting schedule is stored in (and transparently reused from) the
/// artifact cache, keyed by `(benchmark, input, machine, config)`.
#[derive(Debug, Clone)]
pub struct OfflineScheme {
    /// Oracle parameters (slowdown target, window length, shaker tuning).
    pub config: OfflineConfig,
    /// Worker threads for the per-window analysis stage (results are
    /// bit-identical for any value; see the pipeline docs).
    pub parallelism: usize,
    /// Artifact cache consulted before analysing and updated after. The
    /// default is a disabled cache (always recompute).
    pub cache: Arc<ArtifactCache>,
}

impl Default for OfflineScheme {
    fn default() -> Self {
        OfflineScheme {
            config: OfflineConfig::default(),
            parallelism: 1,
            cache: Arc::new(ArtifactCache::disabled()),
        }
    }
}

impl DvfsScheme for OfflineScheme {
    fn name(&self) -> &'static str {
        names::OFFLINE
    }

    fn label(&self) -> String {
        "off-line".to_string()
    }

    fn configure(&mut self, config: &EvaluationConfig) -> Result<(), McdError> {
        self.config = config.offline;
        self.parallelism = config.parallelism.max(1);
        self.cache = config.cache.clone();
        Ok(())
    }

    /// The schedule comes from the cache, else from thresholding the
    /// per-window histograms — so a slowdown-only sweep point skips capture,
    /// DAG construction and shaking entirely.
    fn prepare(&self, ctx: &SchemeContext<'_>, pools: &mut Pools) -> Result<Prepared, McdError> {
        let key = artifact::offline_schedule_key(
            ctx.benchmark.name,
            &ctx.benchmark.inputs.reference,
            ctx.reference_trace.len() as u64,
            ctx.machine,
            &self.config,
        );
        let schedule =
            self.cache
                .publish(&key, codec::decode_schedule, codec::encode_schedule, || {
                    let windows =
                        pools.window_histograms(&self.cache, ctx, &self.config, self.parallelism);
                    threshold_windows(windows, self.config.slowdown, &ctx.machine.grid)
                });
        Ok(Prepared::lane(ScheduleLane {
            schedule,
            window_instructions: self.config.window_instructions,
        }))
    }
}

/// The on-line attack–decay controller scheme.
#[derive(Debug, Clone, Default)]
pub struct OnlineScheme {
    /// Controller tuning parameters.
    pub config: OnlineConfig,
}

impl DvfsScheme for OnlineScheme {
    fn name(&self) -> &'static str {
        names::ONLINE
    }

    fn label(&self) -> String {
        "on-line".to_string()
    }

    fn configure(&mut self, config: &EvaluationConfig) -> Result<(), McdError> {
        self.config = config.online;
        Ok(())
    }

    fn prepare(&self, _: &SchemeContext<'_>, _: &mut Pools) -> Result<Prepared, McdError> {
        let config = self.config;
        Ok(Prepared::lane(move || OnlineController::new(config)))
    }
}

/// The profile-driven reconfiguration scheme (the paper's contribution).
///
/// The expensive training phases (the full-speed recording run plus the
/// per-region shaker) are stored in the artifact cache; on a warm hit only
/// the cheap, deterministic instrumentation phase is rebuilt around the
/// cached frequency table.
#[derive(Debug, Clone)]
pub struct ProfileScheme {
    /// Training parameters (context policy, slowdown target, thresholds).
    pub config: TrainingConfig,
    /// Artifact cache consulted before training and updated after. The
    /// default is a disabled cache (always retrain).
    pub cache: Arc<ArtifactCache>,
}

impl Default for ProfileScheme {
    fn default() -> Self {
        ProfileScheme {
            config: TrainingConfig::default(),
            cache: Arc::new(ArtifactCache::disabled()),
        }
    }
}

impl DvfsScheme for ProfileScheme {
    fn name(&self) -> &'static str {
        names::PROFILE
    }

    fn label(&self) -> String {
        format!("profile {}", self.config.policy.abbreviation())
    }

    fn configure(&mut self, config: &EvaluationConfig) -> Result<(), McdError> {
        self.config = config.training;
        self.cache = config.cache.clone();
        Ok(())
    }

    /// The frequency table comes from the cache, else from thresholding the
    /// training histograms — so a slowdown-only sweep point skips the
    /// recording run and the shaker.
    fn prepare(&self, ctx: &SchemeContext<'_>, pools: &mut Pools) -> Result<Prepared, McdError> {
        let key = artifact::training_plan_key(
            ctx.benchmark.name,
            &ctx.benchmark.inputs.training,
            ctx.machine,
            &self.config,
        );
        let training =
            self.cache
                .publish(&key, codec::decode_training, codec::encode_training, || {
                    let histograms = pools.training_histograms(&self.cache, ctx, &self.config);
                    let table = profile::threshold_table(
                        &histograms.entries,
                        self.config.slowdown,
                        &ctx.machine.grid,
                    );
                    TrainingArtifact::from_table(&table, histograms.training_stats.clone())
                });
        Ok(Prepared::lane(ProfilePlan {
            instrumentation: pools.instrumentation(ctx, &self.config),
            table: training.to_table(),
            training_stats: training.training_stats,
        }))
    }
}

/// The global (whole-chip) DVS baseline, matched to another scheme's run time.
#[derive(Debug, Clone)]
pub struct GlobalDvsScheme {
    /// The scheme whose run time the uniform frequency is chosen to match
    /// (the paper matches the off-line oracle).
    pub match_scheme: &'static str,
}

impl Default for GlobalDvsScheme {
    fn default() -> Self {
        GlobalDvsScheme {
            match_scheme: names::OFFLINE,
        }
    }
}

impl DvfsScheme for GlobalDvsScheme {
    fn name(&self) -> &'static str {
        names::GLOBAL
    }

    fn label(&self) -> String {
        "global".to_string()
    }

    fn reads_prior_outcomes(&self) -> bool {
        true
    }

    fn prepare(&self, ctx: &SchemeContext<'_>, _: &mut Pools) -> Result<Prepared, McdError> {
        let missing = |requires: &str| McdError::MissingDependency {
            scheme: self.name().to_string(),
            requires: requires.to_string(),
        };
        let matched = ctx
            .prior_outcome(self.match_scheme)
            .ok_or_else(|| missing(self.match_scheme))?;
        let baseline = ctx.baseline.ok_or_else(|| missing("baseline"))?;
        let result = run_global_dvs(
            ctx.reference_trace,
            ctx.machine,
            baseline.run_time.as_ns(),
            matched.result.stats.run_time.as_ns(),
        );
        Ok(Prepared::Finished(result.stats))
    }
}

/// The PID queue-occupancy controller scheme (controller zoo).
#[derive(Debug, Clone, Default)]
pub struct PidScheme {
    /// Controller tuning parameters.
    pub config: PidConfig,
}

impl DvfsScheme for PidScheme {
    fn name(&self) -> &'static str {
        names::PID
    }

    fn configure(&mut self, config: &EvaluationConfig) -> Result<(), McdError> {
        self.config = config.pid;
        Ok(())
    }

    fn prepare(&self, _: &SchemeContext<'_>, _: &mut Pools) -> Result<Prepared, McdError> {
        let config = self.config;
        Ok(Prepared::lane(move || PidController::new(config)))
    }
}

/// The SysScale-style shared-budget controller scheme (controller zoo).
#[derive(Debug, Clone, Default)]
pub struct SysScaleScheme {
    /// Controller tuning parameters.
    pub config: SysScaleConfig,
}

impl DvfsScheme for SysScaleScheme {
    fn name(&self) -> &'static str {
        names::SYSSCALE
    }

    fn configure(&mut self, config: &EvaluationConfig) -> Result<(), McdError> {
        self.config = config.sysscale;
        Ok(())
    }

    fn prepare(&self, ctx: &SchemeContext<'_>, _: &mut Pools) -> Result<Prepared, McdError> {
        let config = self.config;
        let grid = ctx.machine.grid.clone();
        let voltage = ctx.machine.voltage_map.clone();
        Ok(Prepared::lane(move || {
            SysScaleController::new(config, grid.clone(), voltage.clone())
        }))
    }
}

/// The table-driven learned policy scheme (controller zoo).
///
/// Training reuses the profile pipeline's capture artifacts: the per-region
/// histograms recorded on the training input (the slowdown-free
/// `training_histograms` artifact the profile scheme also feeds on) are
/// turned into a feature → frequency lookup table. A warm cache makes
/// training a pure table rebuild; a cold run records once and publishes the
/// artifact for the profile scheme to reuse, and vice versa. The table is
/// always built from the artifact's canonicalized entry order, so cached and
/// freshly-recorded tables are bit-identical.
#[derive(Debug, Clone)]
pub struct LearnedScheme {
    /// Table-policy parameters (feature quantization, slowdown target).
    pub config: LearnedConfig,
    /// Training parameters shared with the profile pipeline (context policy,
    /// thresholds) — they shape the recorded regions the table learns from.
    pub training: TrainingConfig,
    /// Artifact cache consulted for recorded histograms and updated after a
    /// cold recording run. The default is a disabled cache (always record).
    pub cache: Arc<ArtifactCache>,
}

impl Default for LearnedScheme {
    fn default() -> Self {
        LearnedScheme {
            config: LearnedConfig::default(),
            training: TrainingConfig::default(),
            cache: Arc::new(ArtifactCache::disabled()),
        }
    }
}

impl DvfsScheme for LearnedScheme {
    fn name(&self) -> &'static str {
        names::LEARNED
    }

    fn configure(&mut self, config: &EvaluationConfig) -> Result<(), McdError> {
        self.config = config.learned;
        self.training = config.training;
        self.cache = config.cache.clone();
        Ok(())
    }

    fn prepare(&self, ctx: &SchemeContext<'_>, pools: &mut Pools) -> Result<Prepared, McdError> {
        let histograms = pools.training_histograms(&self.cache, ctx, &self.training);
        let table =
            LearnedTable::from_training(&histograms.entries, &self.config, &ctx.machine.grid);
        let config = self.config;
        Ok(Prepared::lane(move || {
            LearnedPolicy::new(&config, table.clone())
        }))
    }
}

/// The full comparison registry: the paper's schemes, optionally the
/// controller zoo (PID, SysScale-style, learned table), and optionally the
/// global-DVS baseline last (it matches the off-line oracle's run time, so it
/// must run after `offline`). Its names, in order, are a subsequence of
/// [`names::ALL`].
pub fn full_registry(include_global: bool, include_zoo: bool) -> Vec<Box<dyn DvfsScheme>> {
    let mut registry: Vec<Box<dyn DvfsScheme>> = vec![
        Box::<OfflineScheme>::default(),
        Box::<OnlineScheme>::default(),
        Box::<ProfileScheme>::default(),
    ];
    if include_zoo {
        registry.push(Box::<PidScheme>::default());
        registry.push(Box::<SysScaleScheme>::default());
        registry.push(Box::<LearnedScheme>::default());
    }
    if include_global {
        registry.push(Box::<GlobalDvsScheme>::default());
    }
    registry
}

/// Builds the full registry per the config's `include_global`/`include_zoo`
/// flags and configures every scheme from `config`.
pub fn configured_registry(
    config: &EvaluationConfig,
) -> Result<Vec<Box<dyn DvfsScheme>>, McdError> {
    let mut registry = full_registry(config.include_global, config.include_zoo);
    for scheme in &mut registry {
        scheme.configure(config)?;
    }
    Ok(registry)
}

/// Builds a configured registry restricted to the named schemes, preserving
/// the standard registry order (the [`Evaluator`](crate::service::Evaluator)
/// uses this for jobs that evaluate a subset of the comparison — a sweep that
/// only reads the on-line series does not have to pay for the off-line
/// analysis).
///
/// Naming [`names::GLOBAL`] implies `include_global` regardless of the
/// config, and naming any controller-zoo scheme likewise implies
/// `include_zoo`; an unrecognised name is an [`McdError::UnknownScheme`].
/// Note that `global` matches the off-line oracle's run time, so a subset
/// containing `global` but not `offline` fails at run time with
/// [`McdError::MissingDependency`].
pub fn subset_registry(
    config: &EvaluationConfig,
    subset: &[String],
) -> Result<Vec<Box<dyn DvfsScheme>>, McdError> {
    let mut config = config.clone();
    config.include_global = config.include_global || subset.iter().any(|n| n == names::GLOBAL);
    config.include_zoo =
        config.include_zoo || subset.iter().any(|n| names::ZOO.contains(&n.as_str()));
    let full = configured_registry(&config)?;
    for name in subset {
        if !full.iter().any(|s| s.name() == name) {
            return Err(McdError::UnknownScheme(name.clone()));
        }
    }
    Ok(full
        .into_iter()
        .filter(|s| subset.iter().any(|n| n == s.name()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_contains_the_papers_schemes_in_order() {
        let registry = full_registry(true, false);
        let names: Vec<&str> = registry.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![names::OFFLINE, names::ONLINE, names::PROFILE, names::GLOBAL]
        );
        let without_global = full_registry(false, false);
        assert_eq!(without_global.len(), 3);
    }

    #[test]
    fn full_registry_appends_the_zoo_before_global() {
        let registry = full_registry(true, true);
        let names: Vec<&str> = registry.iter().map(|s| s.name()).collect();
        assert_eq!(
            names,
            vec![
                names::OFFLINE,
                names::ONLINE,
                names::PROFILE,
                names::PID,
                names::SYSSCALE,
                names::LEARNED,
                names::GLOBAL
            ]
        );
        assert_eq!(names, names::ALL);
        // Zoo without global, and the paper shape with the zoo off.
        assert_eq!(full_registry(false, true).len(), 6);
        assert_eq!(full_registry(false, false).len(), 3);
    }

    #[test]
    fn subset_registry_naming_a_zoo_scheme_implies_include_zoo() {
        let config = EvaluationConfig::default();
        assert!(!config.include_zoo);
        let subset =
            subset_registry(&config, &[names::PID.to_string()]).expect("zoo implied by the subset");
        assert_eq!(subset.len(), 1);
        assert_eq!(subset[0].name(), names::PID);
    }

    #[test]
    fn configure_propagates_the_shared_slowdown_target() {
        let config = EvaluationConfig::default().with_slowdown(0.11);
        let registry = configured_registry(&config).expect("standard registry configures");
        // Downcast-free check: re-run configure on concrete types.
        let mut offline = OfflineScheme::default();
        offline.configure(&config).unwrap();
        assert!((offline.config.slowdown - 0.11).abs() < 1e-12);
        let mut profile = ProfileScheme::default();
        profile.configure(&config).unwrap();
        assert!((profile.config.slowdown - 0.11).abs() < 1e-12);
        assert_eq!(registry.len(), 3);
    }

    #[test]
    fn subset_registry_preserves_order_and_rejects_unknown_names() {
        let config = EvaluationConfig::default();
        let subset = subset_registry(
            &config,
            &[names::PROFILE.to_string(), names::OFFLINE.to_string()],
        )
        .expect("known schemes");
        // Standard registry order, not request order.
        let picked: Vec<&str> = subset.iter().map(|s| s.name()).collect();
        assert_eq!(picked, vec![names::OFFLINE, names::PROFILE]);

        // Naming `global` implies include_global even when the config says no.
        let with_global = subset_registry(&config, &[names::GLOBAL.to_string()])
            .expect("global implied by the subset");
        assert_eq!(with_global.len(), 1);
        assert_eq!(with_global[0].name(), names::GLOBAL);

        let err = subset_registry(&config, &["bogus".to_string()]).unwrap_err();
        assert!(matches!(err, McdError::UnknownScheme(name) if name == "bogus"));
    }

    #[test]
    fn global_scheme_requires_its_matched_dependency() {
        let bench = mcd_workloads::suite::benchmark("adpcm decode").expect("known benchmark");
        let machine = MachineConfig::default();
        let trace =
            mcd_workloads::generator::generate_packed(&bench.program, &bench.inputs.training);
        let baseline = Simulator::new(machine.clone())
            .run(trace.iter(), &mut mcd_sim::simulator::NullHooks, false)
            .stats;
        let ctx = SchemeContext {
            benchmark: &bench,
            machine: &machine,
            reference_trace: &trace,
            baseline: Some(&baseline),
            prior: &[],
        };
        let err = GlobalDvsScheme::default()
            .prepare(&ctx, &mut Pools::default())
            .unwrap_err();
        assert!(matches!(err, McdError::MissingDependency { .. }));

        // It also needs the baseline, which only a scheme that reads prior
        // outcomes is given.
        let global = GlobalDvsScheme::default();
        assert!(global.reads_prior_outcomes());
        let prior = [SchemeOutcome {
            name: names::OFFLINE.to_string(),
            label: "off-line".to_string(),
            result: SchemeResult::new(baseline.clone(), &baseline),
        }];
        let ctx = SchemeContext {
            baseline: None,
            prior: &prior,
            ..ctx
        };
        let err = global.prepare(&ctx, &mut Pools::default()).unwrap_err();
        assert_eq!(
            err,
            McdError::MissingDependency {
                scheme: names::GLOBAL.to_string(),
                requires: "baseline".to_string(),
            }
        );
    }
}
