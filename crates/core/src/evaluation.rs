//! The evaluation pipeline: everything needed to regenerate the paper's
//! figures for one benchmark or the whole suite.
//!
//! All metrics are reported relative to the *baseline MCD processor*: the same
//! machine, synchronization penalties included, with every domain at full
//! speed, running the reference input.
//!
//! The pipeline is scheme-agnostic: it drives the
//! [`DvfsScheme`](crate::scheme::DvfsScheme) trait objects a job selects
//! from the [`SCHEMES`](crate::scheme::SCHEMES) table — the paper's three,
//! plus the controller zoo under [`EvaluationConfig::include_zoo`] and
//! global DVS under [`EvaluationConfig::include_global`], or the schemes a
//! job names — and records one [`SchemeOutcome`] per selected scheme.
//! Nothing here knows which schemes exist — adding a scheme to the
//! comparison means a unit struct in the table, not editing this module.
//! Every scheme reads its parameters from the job's effective
//! [`EvaluationConfig`] when it prepares.
//!
//! Evaluations run through the job-oriented
//! [`Evaluator`](crate::service::Evaluator) service ([`crate::service`]):
//! build it once, submit `(benchmark, overrides)` jobs, and receive results
//! as a stream of events. This module holds the types the service consumes
//! and produces ([`EvaluationConfig`], [`BenchmarkEvaluation`], [`Summary`],
//! …) plus the baseline helpers the figure binaries use.

use crate::artifact::ArtifactCache;
use crate::error::McdError;
use crate::learned::LearnedConfig;
use crate::offline::OfflineConfig;
use crate::online::OnlineConfig;
use crate::pid::PidConfig;
use crate::profile::TrainingConfig;
use crate::scheme::SchemeOutcome;
use crate::sysscale::SysScaleConfig;
use mcd_profiling::context::ContextPolicy;
use mcd_sim::config::MachineConfig;
use mcd_sim::simulator::{NullHooks, Simulator};
use mcd_sim::stats::{RelativeMetrics, SimStats};
use mcd_workloads::generator::generate_packed;
use mcd_workloads::suite::Benchmark;
use std::sync::Arc;

/// Result of one reconfiguration scheme on one benchmark.
#[derive(Debug, Clone)]
pub struct SchemeResult {
    /// Raw statistics of the controlled run.
    pub stats: SimStats,
    /// Metrics relative to the MCD full-speed baseline.
    pub metrics: RelativeMetrics,
}

impl SchemeResult {
    /// Computes the relative metrics of `stats` against `baseline`.
    pub fn new(stats: SimStats, baseline: &SimStats) -> Self {
        let metrics = RelativeMetrics::relative_to(&stats, baseline);
        SchemeResult { stats, metrics }
    }
}

/// Configuration of a full evaluation.
#[derive(Debug, Clone)]
pub struct EvaluationConfig {
    /// Machine model (Table 1).
    pub machine: MachineConfig,
    /// Training parameters for the profile-driven scheme.
    pub training: TrainingConfig,
    /// Off-line-oracle parameters.
    pub offline: OfflineConfig,
    /// On-line attack–decay parameters.
    pub online: OnlineConfig,
    /// PID queue-occupancy controller parameters (controller zoo).
    pub pid: PidConfig,
    /// SysScale-style shared-budget controller parameters (controller zoo).
    pub sysscale: SysScaleConfig,
    /// Learned table-policy parameters (controller zoo).
    pub learned: LearnedConfig,
    /// Whether to also evaluate the global-DVS baseline (Figure 7).
    pub include_global: bool,
    /// Whether to also evaluate the controller zoo (PID, SysScale-style,
    /// learned table). Off by default so the paper's figures keep their
    /// four-scheme shape; the tournament harness turns it on.
    pub include_zoo: bool,
    /// Worker-thread budget. One knob governs both parallel levels: the
    /// [`Evaluator`](crate::service::Evaluator) spreads *jobs* across
    /// threads, and the off-line oracle's per-window analysis spreads
    /// *windows* across threads (see [`EvaluationConfig::with_parallelism`]
    /// for how the budget is split).
    /// Results are bit-identical for every value.
    pub parallelism: usize,
    /// Artifact cache shared by every scheme: the off-line oracle reuses
    /// cached schedules and the profile scheme reuses cached training
    /// results instead of re-training. Defaults to a disabled
    /// cache (always recompute, no filesystem side effects); see
    /// [`ArtifactCache::from_env`] for the environment-driven constructor the
    /// figure binaries use.
    pub cache: Arc<ArtifactCache>,
}

impl Default for EvaluationConfig {
    fn default() -> Self {
        EvaluationConfig {
            machine: MachineConfig::default(),
            training: TrainingConfig::default(),
            offline: OfflineConfig::default(),
            online: OnlineConfig::default(),
            pid: PidConfig::default(),
            sysscale: SysScaleConfig::default(),
            learned: LearnedConfig::default(),
            include_global: false,
            include_zoo: false,
            parallelism: 1,
            cache: Arc::new(ArtifactCache::disabled()),
        }
    }
}

impl EvaluationConfig {
    /// Sets the slowdown target of off-line, profile-driven, and learned-table
    /// analysis.
    pub fn with_slowdown(mut self, slowdown: f64) -> Self {
        self.training.slowdown = slowdown;
        self.offline.slowdown = slowdown;
        self.learned.slowdown = slowdown;
        self
    }

    /// Sets the calling-context policy of the profile-driven scheme.
    pub fn with_policy(mut self, policy: ContextPolicy) -> Self {
        self.training.policy = policy;
        self
    }

    /// Sets the worker-thread budget for both parallel levels.
    ///
    /// One knob governs job-level and intra-benchmark parallelism: an
    /// [`Evaluator`](crate::service::Evaluator) built from this config runs
    /// `workers` job threads (by default the whole budget; see
    /// [`EvaluatorBuilder::workers`](crate::service::EvaluatorBuilder::workers))
    /// and hands each job the *remaining* budget (`parallelism / workers`, at
    /// least one) for the off-line oracle's window-parallel analysis, so the
    /// two levels compose instead of multiplying. One worker gives the whole
    /// budget to window analysis.
    ///
    /// Every combination produces bit-identical results; the knob only trades
    /// wall-clock time.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Sets the shared artifact cache every scheme consults.
    pub fn with_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = cache;
        self
    }
}

/// The complete evaluation of one benchmark (one group of bars in Figures
/// 4–6, plus the global-DVS point of Figure 7): the baseline plus one outcome
/// per selected scheme, in [`SCHEMES`](crate::scheme::SCHEMES) order.
#[derive(Debug, Clone)]
pub struct BenchmarkEvaluation {
    /// Benchmark name.
    pub name: String,
    /// Full-speed MCD baseline statistics on the reference input.
    pub baseline: SimStats,
    /// One outcome per scheme, in the order the evaluation ran them.
    pub schemes: Vec<SchemeOutcome>,
}

impl BenchmarkEvaluation {
    /// The outcome of the named scheme, if it ran.
    pub fn outcome(&self, name: &str) -> Option<&SchemeOutcome> {
        self.schemes.iter().find(|o| o.name == name)
    }

    /// The result of the named scheme, if it ran.
    pub fn result(&self, name: &str) -> Option<&SchemeResult> {
        self.outcome(name).map(|o| &o.result)
    }

    /// The result of the named scheme, or an [`McdError`] explaining that the
    /// scheme was not part of this evaluation.
    pub fn require(&self, name: &str) -> Result<&SchemeResult, McdError> {
        self.result(name)
            .ok_or_else(|| McdError::SchemeNotEvaluated(name.to_string()))
    }

    /// The relative metrics of the named scheme, or an [`McdError`].
    pub fn metrics(&self, name: &str) -> Result<&RelativeMetrics, McdError> {
        Ok(&self.require(name)?.metrics)
    }

    /// Reconfiguration-register writes performed by the named scheme's run.
    pub fn reconfigurations(&self, name: &str) -> Result<u64, McdError> {
        Ok(self.require(name)?.stats.reconfigurations)
    }
}

/// The MCD processor's inherent penalty versus a globally synchronous design
/// (both at full speed): `(performance_penalty, energy_penalty)` as fractions.
pub fn mcd_baseline_penalty(
    bench: &Benchmark,
    machine: &MachineConfig,
) -> Result<(f64, f64), McdError> {
    let trace = generate_packed(&bench.program, &bench.inputs.reference);
    let mcd = Simulator::new(machine.clone())
        .run(trace.iter(), &mut NullHooks, false)
        .stats;
    let synchronous_machine = machine.to_builder().synchronization(false).build()?;
    let synchronous = Simulator::new(synchronous_machine)
        .run(trace.iter(), &mut NullHooks, false)
        .stats;
    let perf = mcd.run_time.as_ns() / synchronous.run_time.as_ns() - 1.0;
    let energy = mcd.total_energy.as_units() / synchronous.total_energy.as_units() - 1.0;
    Ok((perf, energy))
}

/// Summary statistics (minimum, maximum, average) over a set of values —
/// the error bars of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarizes a slice of values. Returns the default (all zeros) for an
    /// empty slice.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary::default();
        }
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        Summary { min, max, mean }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::names;
    use crate::service::{EvalJob, Evaluator};
    use mcd_workloads::suite;

    /// One benchmark through a fresh one-worker evaluator.
    fn evaluate(bench: &Benchmark, config: &EvaluationConfig) -> BenchmarkEvaluation {
        Evaluator::builder()
            .config(config.clone())
            .workers(1)
            .build()
            .submit(EvalJob::new(bench.clone()))
            .collect()
            .expect("evaluation succeeds")
            .remove(0)
    }

    /// A suite through one evaluator with the config's whole thread budget.
    fn evaluate_all(benches: &[Benchmark], config: &EvaluationConfig) -> Vec<BenchmarkEvaluation> {
        Evaluator::builder()
            .config(config.clone())
            .build()
            .submit_all(benches.iter().cloned().map(EvalJob::new).collect())
            .collect()
            .expect("suite evaluation succeeds")
    }

    /// A reduced evaluation of one small benchmark exercises every scheme.
    #[test]
    fn full_pipeline_on_adpcm_decode() {
        let bench = suite::benchmark("adpcm decode").expect("known benchmark");
        let config = EvaluationConfig {
            include_global: true,
            ..EvaluationConfig::default()
        };
        let eval = evaluate(&bench, &config);

        assert!(eval.baseline.instructions > 50_000);
        let offline = eval.metrics(names::OFFLINE).unwrap();
        let online = eval.metrics(names::ONLINE).unwrap();
        let profile = eval.metrics(names::PROFILE).unwrap();
        // Every MCD scheme should save energy on this FP-idle benchmark.
        assert!(offline.energy_savings > 0.05);
        assert!(profile.energy_savings > 0.05);
        assert!(online.energy_savings > 0.0);
        // Profile-driven results should be in the vicinity of the oracle.
        assert!(
            profile.energy_savings > offline.energy_savings * 0.5,
            "profile {:.1}% vs offline {:.1}%",
            profile.energy_savings_percent(),
            offline.energy_savings_percent()
        );
        // Slowdowns stay bounded.
        for m in [offline, profile, online] {
            assert!(m.performance_degradation < 0.3);
            assert!(m.performance_degradation > -0.05);
        }
        assert!(eval.reconfigurations(names::PROFILE).unwrap() > 0);
        let global = eval.metrics(names::GLOBAL).expect("global requested");
        assert!(
            global.energy_savings < offline.energy_savings,
            "per-domain scaling should beat whole-chip scaling"
        );
    }

    #[test]
    fn evaluation_without_global_omits_it() {
        let bench = suite::benchmark("adpcm decode").expect("known benchmark");
        let eval = evaluate(&bench, &EvaluationConfig::default());
        assert_eq!(eval.schemes.len(), 3);
        assert!(eval.result(names::GLOBAL).is_none());
        assert!(matches!(
            eval.require(names::GLOBAL),
            Err(McdError::SchemeNotEvaluated(_))
        ));
    }

    #[test]
    fn parallel_suite_evaluation_matches_serial_bit_for_bit() {
        let names = ["adpcm decode", "adpcm encode", "gsm decode", "g721 decode"];
        let benches: Vec<Benchmark> = names
            .iter()
            .map(|n| suite::benchmark(n).expect("known benchmark"))
            .collect();
        let serial_cfg = EvaluationConfig::default();
        let parallel_cfg = EvaluationConfig::default().with_parallelism(4);
        let serial = evaluate_all(&benches, &serial_cfg);
        let parallel = evaluate_all(&benches, &parallel_cfg);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.name, p.name);
            assert_eq!(s.baseline.run_time, p.baseline.run_time);
            assert_eq!(s.schemes.len(), p.schemes.len());
            for (so, po) in s.schemes.iter().zip(&p.schemes) {
                assert_eq!(so.name, po.name);
                assert_eq!(so.result.stats.run_time, po.result.stats.run_time);
                assert_eq!(
                    so.result.stats.total_energy.as_units(),
                    po.result.stats.total_energy.as_units()
                );
                assert_eq!(so.result.metrics, po.result.metrics);
            }
        }
    }

    #[test]
    fn mcd_penalty_is_small_but_positive() {
        let bench = suite::benchmark("gsm decode").expect("known benchmark");
        let (perf, energy) =
            mcd_baseline_penalty(&bench, &MachineConfig::default()).expect("valid machine");
        assert!(perf > 0.0, "MCD must be slower than fully synchronous");
        assert!(
            perf < 0.1,
            "MCD penalty should be a few percent, got {perf}"
        );
        assert!(
            energy > -0.02,
            "energy penalty should not be strongly negative"
        );
        assert!(energy < 0.1);
    }

    #[test]
    fn summary_of_values() {
        let s = Summary::of(&[1.0, 3.0, 2.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(Summary::of(&[]), Summary::default());
    }
}
