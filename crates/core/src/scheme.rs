//! The [`DvfsScheme`] abstraction: every reconfiguration scheme the paper
//! compares — profile-driven, off-line oracle, on-line attack–decay, and
//! global DVS — plus the controller zoo (PID, SysScale-style, learned table),
//! each a stateless unit struct behind one trait. [`SCHEMES`] lists all of
//! them in [`names::ALL`] order, and [`select`] picks the ones a job runs.
//!
//! A scheme receives a [`SchemeContext`] describing one benchmark run: the
//! benchmark itself, the job's effective configuration (machine model,
//! scheme parameters, artifact cache, window-analysis thread budget) and the
//! pre-generated reference trace. A scheme that declares
//! [`DvfsScheme::reads_prior_outcomes`] also gets the full-speed MCD
//! baseline statistics and the outcomes of the job's earlier schemes (the
//! global-DVS baseline uses them to match the off-line oracle's run time).
//! Every scheme does the same thing with it:
//! [`DvfsScheme::prepare`] builds the controller — training, analysis and
//! artifact lookups included — and hands back a [`Prepared`] lane; the
//! [`Evaluator`](crate::service::Evaluator) then replays the reference trace
//! under that lane, fused with every other lane of the same batch — every
//! scheme of every member, plus the baseline — into one
//! [`Simulator::run_lanes`](mcd_sim::simulator::Simulator::run_lanes) pass.

use crate::artifact::{self, codec, ArtifactKey, TrainingArtifact, TrainingHistogramsArtifact};
use crate::error::McdError;
use crate::evaluation::{EvaluationConfig, SchemeResult};
use crate::global_dvs::run_global_dvs;
use crate::histogram::RegionHistograms;
use crate::learned::{LearnedPolicy, LearnedTable};
use crate::offline::OfflineSchedule;
use crate::online::OnlineController;
use crate::pid::PidController;
use crate::pipeline::schedule::ScheduleHooks;
use crate::pipeline::{threshold_windows, AnalysisPipeline};
use crate::profile::{self, instrumentation_plan, ProfilePlan};
use crate::sysscale::SysScaleController;
use mcd_profiling::edit::InstrumentationPlan;
use mcd_sim::simulator::{SimHooks, Simulator};
use mcd_sim::stats::SimStats;
use mcd_sim::trace::PackedTrace;
use mcd_workloads::generator::generate_packed;
use mcd_workloads::suite::Benchmark;
use std::collections::HashMap;
use std::fmt;

/// Canonical scheme names, one per entry of [`SCHEMES`].
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

    /// The controller-zoo scheme names, in [`ALL`] order.
    pub const ZOO: [&str; 3] = [PID, SYSSCALE, LEARNED];

    /// Every scheme name, in [`SCHEMES`](super::SCHEMES) order.
    pub const ALL: [&str; 7] = [OFFLINE, ONLINE, PROFILE, PID, SYSSCALE, LEARNED, GLOBAL];
}

/// Everything a scheme needs to evaluate one benchmark.
#[derive(Debug)]
pub struct SchemeContext<'a> {
    /// The benchmark under evaluation (program model plus input pair).
    pub benchmark: &'a Benchmark,
    /// The job's effective configuration: the machine model shared by every
    /// scheme in the comparison, each scheme's parameters, the artifact cache
    /// and the off-line analysis's window thread budget.
    pub config: &'a EvaluationConfig,
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
    /// Outcomes of the job's schemes that ran earlier; empty unless the
    /// scheme [reads prior outcomes](DvfsScheme::reads_prior_outcomes).
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
    /// capture, DAG and shaker stages of the pipeline, spread over the
    /// configuration's window thread budget.
    fn window_histograms(&mut self, ctx: &SchemeContext<'_>) -> &[Option<RegionHistograms>] {
        let config = ctx.config;
        let key = artifact::window_histograms_key(
            ctx.benchmark.name,
            &ctx.benchmark.inputs.reference,
            ctx.reference_trace.len() as u64,
            &config.machine,
            &config.offline,
        );
        let grid = &config.machine.grid;
        self.window_histograms.entry(key).or_insert_with_key(|key| {
            config.cache.publish(
                key,
                |bytes| codec::decode_window_histograms(bytes, grid),
                |windows| codec::encode_window_histograms(windows, grid.len()),
                || {
                    AnalysisPipeline::new(config.offline)
                        .with_parallelism(config.parallelism)
                        .histograms(&Simulator::new(config.machine.clone()), ctx.reference_trace)
                        .0
                },
            )
        })
    }

    /// The training run's per-region histograms (slowdown-free). A recording
    /// run also leaves its instrumentation plan in the pool.
    fn training_histograms(&mut self, ctx: &SchemeContext<'_>) -> &TrainingHistogramsArtifact {
        let config = ctx.config;
        let grid = &config.machine.grid;
        let instrumentation = &mut self.instrumentation;
        self.training_histograms
            .entry(training_key(ctx))
            .or_insert_with_key(|key| {
                config.cache.publish(
                    key,
                    |bytes| codec::decode_training_histograms(bytes, grid),
                    |artifact| codec::encode_training_histograms(artifact, grid.len()),
                    || {
                        let (plan, entries, stats) = profile::training_histograms(
                            &ctx.benchmark.program,
                            &ctx.benchmark.inputs.training,
                            &config.machine,
                            &config.training,
                        );
                        instrumentation.insert(*key, plan);
                        TrainingHistogramsArtifact::from_entries(entries, stats)
                    },
                )
            })
    }

    /// The profile scheme's instrumentation plan: the cheap, deterministic
    /// phase 1 of training, whose node keys match the ones any cached
    /// frequency table was recorded under.
    fn instrumentation(&mut self, ctx: &SchemeContext<'_>) -> InstrumentationPlan {
        self.instrumentation
            .entry(training_key(ctx))
            .or_insert_with(|| {
                let trace = generate_packed(&ctx.benchmark.program, &ctx.benchmark.inputs.training);
                instrumentation_plan(&trace, &ctx.config.training)
            })
            .clone()
    }
}

/// The slowdown-free identity of a training run.
fn training_key(ctx: &SchemeContext<'_>) -> ArtifactKey {
    artifact::training_histograms_key(
        ctx.benchmark.name,
        &ctx.benchmark.inputs.training,
        &ctx.config.machine,
        &ctx.config.training,
    )
}

/// One DVFS control scheme in the paper's comparison.
///
/// Schemes are stateless: [`prepare`](DvfsScheme::prepare) reads every
/// parameter from [`SchemeContext::config`], so one `&'static` instance per
/// scheme ([`SCHEMES`]) serves every job. The
/// [`Evaluator`](crate::service::Evaluator) prepares a job's schemes in
/// [`SCHEMES`] order; schemes whose definition depends on another scheme's
/// result (global DVS matches the off-line run time) say so with
/// [`reads_prior_outcomes`](DvfsScheme::reads_prior_outcomes) and read it
/// from [`SchemeContext::prior`]. Adding a scheme means adding a unit
/// struct that implements [`DvfsScheme::prepare`] to [`SCHEMES`] and its
/// name to [`names::ALL`] — the executor batches it like every other scheme.
pub trait DvfsScheme: fmt::Debug + Send + Sync {
    /// Canonical machine-readable name, one of [`names::ALL`].
    fn name(&self) -> &'static str;

    /// Human-readable label for tables and figures under `config`.
    fn label(&self, config: &EvaluationConfig) -> String {
        let _ = config;
        self.name().to_string()
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
/// The expensive analysis runs through the staged [`AnalysisPipeline`]: the
/// per-window shaker/threshold stage fans out across the configuration's
/// `parallelism` worker threads, and the resulting schedule is stored in
/// (and transparently reused from) the artifact cache, keyed by
/// `(benchmark, input, machine, config)`.
#[derive(Debug)]
pub struct OfflineScheme;

impl DvfsScheme for OfflineScheme {
    fn name(&self) -> &'static str {
        names::OFFLINE
    }

    fn label(&self, _: &EvaluationConfig) -> String {
        "off-line".to_string()
    }

    /// The schedule comes from the cache, else from thresholding the
    /// per-window histograms — so a slowdown-only sweep point skips capture,
    /// DAG construction and shaking entirely.
    fn prepare(&self, ctx: &SchemeContext<'_>, pools: &mut Pools) -> Result<Prepared, McdError> {
        let config = ctx.config;
        let key = artifact::offline_schedule_key(
            ctx.benchmark.name,
            &ctx.benchmark.inputs.reference,
            ctx.reference_trace.len() as u64,
            &config.machine,
            &config.offline,
        );
        let schedule =
            config
                .cache
                .publish(&key, codec::decode_schedule, codec::encode_schedule, || {
                    let windows = pools.window_histograms(ctx);
                    threshold_windows(windows, config.offline.slowdown, &config.machine.grid)
                });
        Ok(Prepared::lane(ScheduleLane {
            schedule,
            window_instructions: config.offline.window_instructions,
        }))
    }
}

/// The on-line attack–decay controller scheme.
#[derive(Debug)]
pub struct OnlineScheme;

impl DvfsScheme for OnlineScheme {
    fn name(&self) -> &'static str {
        names::ONLINE
    }

    fn label(&self, _: &EvaluationConfig) -> String {
        "on-line".to_string()
    }

    fn prepare(&self, ctx: &SchemeContext<'_>, _: &mut Pools) -> Result<Prepared, McdError> {
        let config = ctx.config.online;
        Ok(Prepared::lane(move || OnlineController::new(config)))
    }
}

/// The profile-driven reconfiguration scheme (the paper's contribution).
///
/// The expensive training phases (the full-speed recording run plus the
/// per-region shaker) are stored in the artifact cache; on a warm hit only
/// the cheap, deterministic instrumentation phase is rebuilt around the
/// cached frequency table.
#[derive(Debug)]
pub struct ProfileScheme;

impl DvfsScheme for ProfileScheme {
    fn name(&self) -> &'static str {
        names::PROFILE
    }

    fn label(&self, config: &EvaluationConfig) -> String {
        format!("profile {}", config.training.policy.abbreviation())
    }

    /// The frequency table comes from the cache, else from thresholding the
    /// training histograms — so a slowdown-only sweep point skips the
    /// recording run and the shaker.
    fn prepare(&self, ctx: &SchemeContext<'_>, pools: &mut Pools) -> Result<Prepared, McdError> {
        let config = ctx.config;
        let key = artifact::training_plan_key(
            ctx.benchmark.name,
            &ctx.benchmark.inputs.training,
            &config.machine,
            &config.training,
        );
        let training =
            config
                .cache
                .publish(&key, codec::decode_training, codec::encode_training, || {
                    let histograms = pools.training_histograms(ctx);
                    let table = profile::threshold_table(
                        &histograms.entries,
                        config.training.slowdown,
                        &config.machine.grid,
                    );
                    TrainingArtifact::from_table(&table, histograms.training_stats.clone())
                });
        Ok(Prepared::lane(ProfilePlan {
            instrumentation: pools.instrumentation(ctx),
            table: training.to_table(),
            training_stats: training.training_stats,
        }))
    }
}

/// The global (whole-chip) DVS baseline, matched to the off-line oracle's
/// run time as in the paper.
#[derive(Debug)]
pub struct GlobalDvsScheme;

impl DvfsScheme for GlobalDvsScheme {
    fn name(&self) -> &'static str {
        names::GLOBAL
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
            .prior_outcome(names::OFFLINE)
            .ok_or_else(|| missing(names::OFFLINE))?;
        let baseline = ctx.baseline.ok_or_else(|| missing("baseline"))?;
        let result = run_global_dvs(
            ctx.reference_trace,
            &ctx.config.machine,
            baseline.run_time.as_ns(),
            matched.result.stats.run_time.as_ns(),
        );
        Ok(Prepared::Finished(result.stats))
    }
}

/// The PID queue-occupancy controller scheme (controller zoo).
#[derive(Debug)]
pub struct PidScheme;

impl DvfsScheme for PidScheme {
    fn name(&self) -> &'static str {
        names::PID
    }

    fn prepare(&self, ctx: &SchemeContext<'_>, _: &mut Pools) -> Result<Prepared, McdError> {
        let config = ctx.config.pid;
        Ok(Prepared::lane(move || PidController::new(config)))
    }
}

/// The SysScale-style shared-budget controller scheme (controller zoo).
#[derive(Debug)]
pub struct SysScaleScheme;

impl DvfsScheme for SysScaleScheme {
    fn name(&self) -> &'static str {
        names::SYSSCALE
    }

    fn prepare(&self, ctx: &SchemeContext<'_>, _: &mut Pools) -> Result<Prepared, McdError> {
        let config = ctx.config.sysscale;
        let grid = ctx.config.machine.grid.clone();
        let voltage = ctx.config.machine.voltage_map.clone();
        Ok(Prepared::lane(move || {
            SysScaleController::new(config, grid.clone(), voltage.clone())
        }))
    }
}

/// The table-driven learned policy scheme (controller zoo).
///
/// Training reuses the profile pipeline's capture artifacts: the per-region
/// histograms recorded on the training input (the slowdown-free
/// `training_histograms` artifact the profile scheme also feeds on, shaped
/// by the same training parameters) are turned into a feature → frequency
/// lookup table. A warm cache makes training a pure table rebuild; a cold
/// run records once and publishes the artifact for the profile scheme to
/// reuse, and vice versa. The table is always built from the artifact's
/// canonicalized entry order, so cached and freshly-recorded tables are
/// bit-identical.
#[derive(Debug)]
pub struct LearnedScheme;

impl DvfsScheme for LearnedScheme {
    fn name(&self) -> &'static str {
        names::LEARNED
    }

    fn prepare(&self, ctx: &SchemeContext<'_>, pools: &mut Pools) -> Result<Prepared, McdError> {
        let config = ctx.config.learned;
        let histograms = pools.training_histograms(ctx);
        let table =
            LearnedTable::from_training(&histograms.entries, &config, &ctx.config.machine.grid);
        Ok(Prepared::lane(move || {
            LearnedPolicy::new(&config, table.clone())
        }))
    }
}

/// Every scheme, in [`names::ALL`] order: the paper's three, the controller
/// zoo, then global DVS (it matches the off-line oracle's run time, so it
/// comes after `offline`).
pub static SCHEMES: [&dyn DvfsScheme; 7] = [
    &OfflineScheme,
    &OnlineScheme,
    &ProfileScheme,
    &PidScheme,
    &SysScaleScheme,
    &LearnedScheme,
    &GlobalDvsScheme,
];

/// The schemes one job runs under `config`, in [`SCHEMES`] order.
///
/// Without a `subset` that is the paper's three, plus the controller zoo
/// when `include_zoo` is set and global DVS when `include_global` is set. A
/// `subset` picks the named schemes whatever the include flags say (request
/// order does not matter); an unrecognised name is an
/// [`McdError::UnknownScheme`]. Note that `global` matches the off-line
/// oracle's run time, so a subset containing `global` but not `offline`
/// fails at run time with [`McdError::MissingDependency`].
///
/// `config` is checked first: a slowdown target that is not a finite
/// fraction in `[0, 1)`, or a zero off-line window, is an
/// [`McdError::InvalidConfig`].
pub fn select(
    config: &EvaluationConfig,
    subset: Option<&[String]>,
) -> Result<Vec<&'static dyn DvfsScheme>, McdError> {
    for slowdown in [
        config.offline.slowdown,
        config.training.slowdown,
        config.learned.slowdown,
    ] {
        if !(0.0..1.0).contains(&slowdown) {
            return Err(McdError::InvalidConfig(format!(
                "slowdown target {slowdown} is not a fraction in [0, 1)"
            )));
        }
    }
    if config.offline.window_instructions == 0 {
        return Err(McdError::InvalidConfig(
            "off-line window_instructions must be at least 1".to_string(),
        ));
    }
    if let Some(unknown) = subset
        .unwrap_or_default()
        .iter()
        .find(|n| !names::ALL.contains(&n.as_str()))
    {
        return Err(McdError::UnknownScheme(unknown.clone()));
    }
    let runs = |name: &str| match subset {
        Some(subset) => subset.iter().any(|n| n == name),
        None if name == names::GLOBAL => config.include_global,
        None => config.include_zoo || !names::ZOO.contains(&name),
    };
    Ok(SCHEMES.into_iter().filter(|s| runs(s.name())).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names `select` picks.
    fn selected(config: &EvaluationConfig, subset: Option<&[&str]>) -> Vec<&'static str> {
        let subset: Option<Vec<String>> =
            subset.map(|names| names.iter().map(|n| n.to_string()).collect());
        select(config, subset.as_deref())
            .expect("valid selection")
            .iter()
            .map(|s| s.name())
            .collect()
    }

    fn flags(include_global: bool, include_zoo: bool) -> EvaluationConfig {
        EvaluationConfig {
            include_global,
            include_zoo,
            ..EvaluationConfig::default()
        }
    }

    #[test]
    fn standard_registry_contains_the_papers_schemes_in_order() {
        assert_eq!(
            selected(&flags(true, false), None),
            vec![names::OFFLINE, names::ONLINE, names::PROFILE, names::GLOBAL]
        );
        assert_eq!(selected(&flags(false, false), None).len(), 3);
    }

    #[test]
    fn full_registry_appends_the_zoo_before_global() {
        let names = selected(&flags(true, true), None);
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
        assert_eq!(SCHEMES.map(|s| s.name()), names::ALL);
        // Zoo without global, and the paper shape with the zoo off.
        assert_eq!(selected(&flags(false, true), None).len(), 6);
        assert_eq!(selected(&flags(false, false), None).len(), 3);
    }

    #[test]
    fn subset_registry_naming_a_zoo_scheme_implies_include_zoo() {
        let config = EvaluationConfig::default();
        assert!(!config.include_zoo);
        assert_eq!(selected(&config, Some(&[names::PID])), vec![names::PID]);
    }

    #[test]
    fn subset_registry_preserves_order_and_rejects_unknown_names() {
        let config = EvaluationConfig::default();
        // Table order, not request order.
        assert_eq!(
            selected(&config, Some(&[names::PROFILE, names::OFFLINE])),
            vec![names::OFFLINE, names::PROFILE]
        );

        // Naming `global` implies include_global even when the config says no.
        assert_eq!(
            selected(&config, Some(&[names::GLOBAL])),
            vec![names::GLOBAL]
        );

        let err = select(&config, Some(&["bogus".to_string()])).unwrap_err();
        assert!(matches!(err, McdError::UnknownScheme(name) if name == "bogus"));
        // The configuration is validated before the names.
        let invalid = config.with_slowdown(1.0);
        let err = select(&invalid, Some(&["bogus".to_string()])).unwrap_err();
        assert!(matches!(err, McdError::InvalidConfig(_)));
    }

    #[test]
    fn global_scheme_requires_its_matched_dependency() {
        let bench = mcd_workloads::suite::benchmark("adpcm decode").expect("known benchmark");
        let config = EvaluationConfig::default();
        let trace =
            mcd_workloads::generator::generate_packed(&bench.program, &bench.inputs.training);
        let baseline = Simulator::new(config.machine.clone())
            .run(trace.iter(), &mut mcd_sim::simulator::NullHooks, false)
            .stats;
        let ctx = SchemeContext {
            benchmark: &bench,
            config: &config,
            reference_trace: &trace,
            baseline: Some(&baseline),
            prior: &[],
        };
        let err = GlobalDvsScheme
            .prepare(&ctx, &mut Pools::default())
            .unwrap_err();
        assert!(matches!(err, McdError::MissingDependency { .. }));

        // It also needs the baseline, which only a scheme that reads prior
        // outcomes is given.
        let global = GlobalDvsScheme;
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
