//! Jobs: one benchmark plus the per-job overrides of the shared base config.

use crate::error::McdError;
use crate::evaluation::EvaluationConfig;
use crate::online::OnlineConfig;
use crate::pid::PidConfig;
use crate::scheme::{configured_registry, subset_registry, DvfsScheme};
use crate::service::scheduler::Priority;
use mcd_profiling::context::ContextPolicy;
use mcd_workloads::suite::Benchmark;

/// Identity of one submitted job, unique within an
/// [`Evaluator`](crate::service::Evaluator) and monotonically increasing in
/// submission order (so the smallest id in a batch is the first-submitted
/// job).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// One unit of evaluation work: a benchmark plus optional overrides of the
/// evaluator's base configuration.
///
/// A job without overrides evaluates the standard registry exactly as the
/// base [`EvaluationConfig`] describes. Overrides change the slowdown target,
/// the calling-context policy, the on-line controller tuning, or restrict the
/// run to a subset of schemes — everything the paper's sweeps vary — while
/// the machine model stays fixed per evaluator, which is what lets jobs share
/// memoized reference traces and baselines.
#[derive(Debug, Clone)]
pub struct EvalJob {
    pub(crate) benchmark: Benchmark,
    pub(crate) priority: Priority,
    pub(crate) slowdown: Option<f64>,
    pub(crate) policy: Option<ContextPolicy>,
    pub(crate) online: Option<OnlineConfig>,
    pub(crate) pid: Option<PidConfig>,
    pub(crate) schemes: Option<Vec<String>>,
}

impl EvalJob {
    /// A job evaluating `benchmark` under the evaluator's base configuration.
    pub fn new(benchmark: Benchmark) -> Self {
        EvalJob {
            benchmark,
            priority: Priority::default(),
            slowdown: None,
            policy: None,
            online: None,
            pid: None,
            schemes: None,
        }
    }

    /// A job for the named benchmark, looked up across every suite tier
    /// (batch, server, interactive) — the user-facing way a binary turns a
    /// `--suite`/name selection into submittable work.
    pub fn named(name: &str) -> Result<Self, McdError> {
        Ok(EvalJob::new(crate::error::find_benchmark(name)?))
    }

    /// The benchmark this job evaluates.
    pub fn benchmark(&self) -> &Benchmark {
        &self.benchmark
    }

    /// The job's scheduling class (defaults to [`Priority::Batch`]).
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Sets the job's scheduling class. Workers prefer more urgent classes
    /// but per-class FIFO order is preserved and the scheduler's starvation
    /// guard keeps lower classes progressing under sustained urgent load.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Overrides the slowdown target of the off-line and profile analyses.
    pub fn with_slowdown(mut self, slowdown: f64) -> Self {
        self.slowdown = Some(slowdown);
        self
    }

    /// Overrides the calling-context policy of the profile-driven scheme.
    pub fn with_policy(mut self, policy: ContextPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Overrides the on-line controller tuning.
    pub fn with_online(mut self, online: OnlineConfig) -> Self {
        self.online = Some(online);
        self
    }

    /// Overrides the PID controller tuning (controller zoo).
    pub fn with_pid(mut self, pid: PidConfig) -> Self {
        self.pid = Some(pid);
        self
    }

    /// Restricts the job to the named schemes (full-registry order is
    /// preserved; see [`subset_registry`] for the `global` caveats). Naming
    /// `global` or a controller-zoo scheme adds it to the comparison even
    /// when the base config leaves it out.
    pub fn with_schemes<I, S>(mut self, schemes: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.schemes = Some(schemes.into_iter().map(Into::into).collect());
        self
    }

    /// The job's effective configuration: the evaluator's base config with
    /// this job's overrides applied and the per-job window-analysis budget
    /// installed.
    pub(crate) fn effective_config(
        &self,
        base: &EvaluationConfig,
        window_parallelism: usize,
    ) -> EvaluationConfig {
        let mut config = base.clone();
        config.parallelism = window_parallelism.max(1);
        if let Some(slowdown) = self.slowdown {
            config = config.with_slowdown(slowdown);
        }
        if let Some(policy) = self.policy {
            config = config.with_policy(policy);
        }
        if let Some(online) = self.online {
            config.online = online;
        }
        if let Some(pid) = self.pid {
            config.pid = pid;
        }
        config
    }

    /// Builds the configured registry this job runs: the standard registry,
    /// or the requested subset of it. A slowdown target that is not a finite
    /// fraction in `[0, 1)`, or a zero off-line window, is an
    /// [`McdError::InvalidConfig`].
    pub(crate) fn build_registry(
        &self,
        config: &EvaluationConfig,
    ) -> Result<Vec<Box<dyn DvfsScheme>>, McdError> {
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
        match &self.schemes {
            Some(subset) => subset_registry(config, subset),
            None => configured_registry(config),
        }
    }

    /// Groups several jobs over the *same* benchmark into an [`EvalBatch`]
    /// for [`Evaluator::submit_batch`](crate::service::Evaluator::submit_batch):
    /// the whole group is processed by one worker in one batched simulation
    /// pass (one baseline lookup, a lane per member and scheme) instead of
    /// N independent jobs. Results are bit-identical either way.
    ///
    /// Fails with [`McdError::InvalidConfig`] if `jobs` is empty or the jobs
    /// name different benchmarks (a batch shares one reference trace).
    pub fn batch(jobs: Vec<EvalJob>) -> Result<EvalBatch, McdError> {
        let first = jobs
            .first()
            .ok_or_else(|| McdError::InvalidConfig("a batch needs at least one job".to_string()))?;
        let name = first.benchmark.name;
        if let Some(other) = jobs.iter().find(|j| j.benchmark.name != name) {
            return Err(McdError::InvalidConfig(format!(
                "batched jobs must share one benchmark, got `{name}` and `{}`",
                other.benchmark.name
            )));
        }
        Ok(EvalBatch { jobs })
    }
}

/// A validated group of jobs over one benchmark, built by [`EvalJob::batch`]
/// and submitted via
/// [`Evaluator::submit_batch`](crate::service::Evaluator::submit_batch).
///
/// All members share the batch's single reference trace and baseline; their
/// schemes run as parallel lanes of one fused simulation pass
/// (see [`Simulator::run_lanes`](mcd_sim::simulator::Simulator::run_lanes)),
/// and members whose configs differ only in the slowdown target additionally
/// share one capture/DAG/shaker pass through the batch's artifact pools.
#[derive(Debug, Clone)]
pub struct EvalBatch {
    pub(crate) jobs: Vec<EvalJob>,
}

impl EvalBatch {
    /// The member jobs, in submission order.
    pub fn jobs(&self) -> &[EvalJob] {
        &self.jobs
    }

    /// The benchmark every member evaluates.
    pub fn benchmark(&self) -> &Benchmark {
        &self.jobs[0].benchmark
    }

    /// Number of member jobs (at least one).
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// The batch's scheduling class: the most urgent class among its members
    /// (the batch is one schedulable unit, so it rides at the urgency of its
    /// most impatient job).
    pub fn priority(&self) -> Priority {
        self.jobs
            .iter()
            .map(|job| job.priority)
            .min()
            .unwrap_or_default()
    }

    /// Always false — [`EvalJob::batch`] rejects empty batches.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::names;
    use mcd_workloads::suite;

    #[test]
    fn overrides_apply_on_top_of_the_base_config() {
        let bench = suite::benchmark("adpcm decode").expect("known benchmark");
        let base = EvaluationConfig::default().with_slowdown(0.07);
        let job = EvalJob::new(bench)
            .with_slowdown(0.14)
            .with_policy(ContextPolicy::Func)
            .with_schemes([names::OFFLINE, names::GLOBAL]);
        let config = job.effective_config(&base, 3);
        assert!((config.training.slowdown - 0.14).abs() < 1e-12);
        assert!((config.offline.slowdown - 0.14).abs() < 1e-12);
        assert_eq!(config.training.policy, ContextPolicy::Func);
        assert_eq!(config.parallelism, 3);
        // Naming `global` adds it without the base config's include flag.
        assert!(!config.include_global);
        let registry = job.build_registry(&config).expect("known schemes");
        let picked: Vec<&str> = registry.iter().map(|s| s.name()).collect();
        assert_eq!(picked, [names::OFFLINE, names::GLOBAL]);
    }

    #[test]
    fn plain_job_inherits_the_base_config() {
        let bench = suite::benchmark("adpcm decode").expect("known benchmark");
        let base = EvaluationConfig::default().with_slowdown(0.07);
        let config = EvalJob::new(bench).effective_config(&base, 1);
        assert!((config.training.slowdown - 0.07).abs() < 1e-12);
        assert!(!config.include_global);
        assert_eq!(config.parallelism, 1);
    }

    #[test]
    fn named_jobs_resolve_across_tiers() {
        let job = EvalJob::named("sensor hub").expect("interactive tier visible");
        assert_eq!(job.benchmark().name, "sensor hub");
        assert_eq!(
            job.benchmark().suite,
            mcd_workloads::suite::SuiteKind::Interactive
        );
        let err = EvalJob::named("no-such-benchmark").unwrap_err();
        assert!(matches!(
            err,
            crate::error::McdError::UnknownBenchmark(name) if name == "no-such-benchmark"
        ));
    }

    #[test]
    fn batches_validate_membership() {
        let bench = suite::benchmark("adpcm decode").expect("known benchmark");
        let other = suite::benchmark("gsm decode").expect("known benchmark");
        let batch = EvalJob::batch(vec![
            EvalJob::new(bench.clone()).with_slowdown(0.02),
            EvalJob::new(bench.clone()).with_slowdown(0.10),
        ])
        .expect("same benchmark batches");
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        assert_eq!(batch.benchmark().name, "adpcm decode");

        assert!(matches!(
            EvalJob::batch(Vec::new()),
            Err(McdError::InvalidConfig(_))
        ));
        let err = EvalJob::batch(vec![EvalJob::new(bench), EvalJob::new(other)]).unwrap_err();
        assert!(matches!(err, McdError::InvalidConfig(_)));
    }

    #[test]
    fn subset_jobs_build_a_restricted_registry() {
        let bench = suite::benchmark("adpcm decode").expect("known benchmark");
        let base = EvaluationConfig::default();
        let job = EvalJob::new(bench).with_schemes([crate::scheme::names::ONLINE]);
        let config = job.effective_config(&base, 1);
        let registry = job.build_registry(&config).expect("known scheme subset");
        assert_eq!(registry.len(), 1);
        assert_eq!(registry[0].name(), crate::scheme::names::ONLINE);
    }
}
