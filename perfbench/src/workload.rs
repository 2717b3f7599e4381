//! The three benchmark workloads: which jobs each one submits, through which
//! submission path, under which evaluation configuration and artifact cache.
//!
//! Every workload is a closed batch: all jobs are submitted at t=0 and the
//! run ends when the last one reaches its terminal event.

use mcd_bench::loadtest::STREAM_BENCHMARKS;
use mcd_bench::HEADLINE_SLOWDOWN;
use mcd_dvfs::error::{find_benchmark, McdError};
use mcd_dvfs::evaluation::EvaluationConfig;
use mcd_dvfs::scheme::names;
use mcd_dvfs::service::{EvalJob, Evaluator, Priority};
use mcd_workloads::suite::{self, Benchmark};
use std::fmt;

/// Job-level evaluator workers every workload runs with. With a thread budget
/// equal to the worker count, each job's per-window analysis runs serially.
/// One worker runs the jobs one after another, so the process CPU clock the
/// benchmark times with advances only with the job in hand, and a job's
/// latency on it does not depend on how the host scheduled a second worker.
pub const WORKERS: usize = 1;

/// The seed that leaves every benchmark input exactly as the suite defines it.
pub const DEFAULT_SEED: u64 = 0;

/// Slowdown points per benchmark in `sweep_batched`: three benchmarks times
/// 34 points is 102 jobs, enough that ten samples lie beyond the p90.
pub const SWEEP_POINTS: usize = 34;

/// Points per benchmark of the load-test stream whose digest the repository's
/// committed performance report records.
pub const LOADTEST_POINTS: usize = 32;

/// First slowdown target of the sweep and the spacing between points (the
/// load-test stream's shape).
const SWEEP_BASE: f64 = 0.02;
const SWEEP_STEP: f64 = 0.01;

/// The workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The quick six paper benchmarks under the paper's four schemes, one
    /// job each through `submit_all`, against a fresh on-disk cache.
    FigCold,
    /// The load-test stream shape: three benchmarks times evenly spaced
    /// slowdown targets, one `submit_batch` group per benchmark, no cache.
    SweepBatched,
    /// All seven schemes over the twelve quick-tournament benchmarks, one
    /// single-member batch per benchmark, against a cache filled in set-up.
    TournamentWarm,
}

/// Every workload.
pub const ALL: [Workload; 3] = [
    Workload::FigCold,
    Workload::SweepBatched,
    Workload::TournamentWarm,
];

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Result<Workload, String> {
        ALL.into_iter().find(|w| w.name() == name).ok_or_else(|| {
            let known: Vec<&str> = ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload `{name}` (known: {})", known.join(", "))
        })
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FigCold => "fig_cold",
            Workload::SweepBatched => "sweep_batched",
            Workload::TournamentWarm => "tournament_warm",
        }
    }

    /// Which artifact cache the measured repetitions run against.
    pub fn cache_mode(self) -> CacheMode {
        match self {
            Workload::FigCold => CacheMode::Fresh,
            Workload::SweepBatched => CacheMode::Disabled,
            Workload::TournamentWarm => CacheMode::Warm,
        }
    }

    /// How the workload's jobs are handed to the evaluator.
    pub fn submission(self) -> Submission {
        match self {
            Workload::FigCold => Submission::All,
            Workload::SweepBatched => Submission::BatchPerBenchmark,
            Workload::TournamentWarm => Submission::BatchPerJob,
        }
    }

    /// The evaluator's base configuration (without its cache, which
    /// [`CacheMode`] decides).
    pub fn config(self) -> EvaluationConfig {
        let base = EvaluationConfig {
            include_global: self != Workload::SweepBatched,
            include_zoo: self == Workload::TournamentWarm,
            ..EvaluationConfig::default()
        }
        .with_parallelism(WORKERS);
        match self {
            Workload::SweepBatched => base,
            _ => base.with_slowdown(HEADLINE_SLOWDOWN),
        }
    }

    /// The scheme names a job of this workload runs, in registry order.
    pub fn schemes(self) -> &'static [&'static str] {
        match self {
            Workload::FigCold => &[names::OFFLINE, names::ONLINE, names::PROFILE, names::GLOBAL],
            Workload::SweepBatched => &[names::OFFLINE, names::PROFILE],
            Workload::TournamentWarm => &[
                names::OFFLINE,
                names::ONLINE,
                names::PROFILE,
                names::PID,
                names::SYSSCALE,
                names::LEARNED,
                names::GLOBAL,
            ],
        }
    }

    /// The distinct off-line slowdown targets the workload's jobs use on each
    /// of its benchmarks.
    pub fn slowdowns(self, size: Size) -> Vec<f64> {
        match self {
            Workload::SweepBatched => (0..size.sweep_points)
                .map(|i| SWEEP_BASE + SWEEP_STEP * i as f64)
                .collect(),
            _ => vec![HEADLINE_SLOWDOWN],
        }
    }

    /// The workload's benchmarks with their inputs re-seeded by `seed`.
    pub fn benchmarks(self, seed: u64, size: Size) -> Result<Vec<Benchmark>, McdError> {
        let benches = match self {
            Workload::FigCold => mcd_bench::selected_suite(true),
            Workload::SweepBatched => STREAM_BENCHMARKS
                .iter()
                .map(|name| find_benchmark(name))
                .collect::<Result<_, _>>()?,
            Workload::TournamentWarm => {
                let mut benches = mcd_bench::selected_suite(true);
                benches.extend(suite::server_suite());
                benches
            }
        };
        Ok(benches
            .into_iter()
            .map(|b| size.apply(seeded(b, seed)))
            .collect())
    }

    /// The workload's canonical job list: the order evaluations are digested
    /// in. `sweep_batched` is benchmark-major, slowdown-minor, with the
    /// priority class cycling exactly as the load-test stream's does.
    pub fn jobs(self, seed: u64, size: Size) -> Result<Vec<EvalJob>, McdError> {
        let benches = self.benchmarks(seed, size)?;
        Ok(match self {
            Workload::SweepBatched => sweep_jobs(&benches, size.sweep_points),
            _ => benches.into_iter().map(EvalJob::new).collect(),
        })
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The load-test stream's job shape over `benches`: `points` evenly spaced
/// slowdown targets each, off-line + profile, priority cycling through the
/// three classes.
pub fn sweep_jobs(benches: &[Benchmark], points: usize) -> Vec<EvalJob> {
    let mut jobs = Vec::with_capacity(benches.len() * points);
    for (b, bench) in benches.iter().enumerate() {
        for i in 0..points {
            let priority = match (b + i) % 3 {
                0 => Priority::Interactive,
                1 => Priority::Batch,
                _ => Priority::Background,
            };
            jobs.push(
                EvalJob::new(bench.clone())
                    .with_slowdown(SWEEP_BASE + SWEEP_STEP * i as f64)
                    .with_schemes([names::OFFLINE, names::PROFILE])
                    .with_priority(priority),
            );
        }
    }
    jobs
}

/// Which artifact cache a workload's measured repetitions use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// A new, empty on-disk cache for every repetition: every artifact is a
    /// miss and a write.
    Fresh,
    /// `ArtifactCache::disabled()`: nothing is read or written.
    Disabled,
    /// One on-disk cache filled during set-up: every artifact is a read.
    Warm,
}

/// How a workload's jobs are handed to the evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submission {
    /// One `submit_all` call with every job.
    All,
    /// One multi-member `submit_batch` group per benchmark.
    BatchPerBenchmark,
    /// One single-member `submit_batch` group per job.
    BatchPerJob,
}

impl Submission {
    /// Splits the canonical job list into submission groups (consecutive
    /// jobs), in submission order.
    pub fn groups(self, jobs: Vec<EvalJob>) -> Vec<Vec<EvalJob>> {
        match self {
            Submission::All => vec![jobs],
            Submission::BatchPerJob => jobs.into_iter().map(|j| vec![j]).collect(),
            Submission::BatchPerBenchmark => {
                let mut groups: Vec<Vec<EvalJob>> = Vec::new();
                for job in jobs {
                    match groups.last_mut() {
                        Some(last) if last[0].benchmark().name == job.benchmark().name => {
                            last.push(job)
                        }
                        _ => groups.push(vec![job]),
                    }
                }
                groups
            }
        }
    }
}

/// Builds the evaluator every workload repetition runs on.
pub fn evaluator(config: EvaluationConfig) -> Evaluator {
    Evaluator::builder().config(config).workers(WORKERS).build()
}

/// How much work one workload repetition does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// When set, every input window is truncated to this many instructions.
    pub max_instructions: Option<u64>,
    /// Slowdown points per benchmark in `sweep_batched`.
    pub sweep_points: usize,
}

impl Size {
    /// The benchmark's real size.
    pub const FULL: Size = Size {
        max_instructions: None,
        sweep_points: SWEEP_POINTS,
    };

    /// A tiny size for smoke-testing the benchmark itself: every metric is
    /// produced, in a fraction of the time. No reference digest applies.
    pub const SMOKE: Size = Size {
        max_instructions: Some(4_000),
        sweep_points: 3,
    };

    fn apply(self, mut bench: Benchmark) -> Benchmark {
        if let Some(cap) = self.max_instructions {
            for input in [&mut bench.inputs.training, &mut bench.inputs.reference] {
                input.max_instructions = input.max_instructions.min(cap);
            }
        }
        bench
    }
}

/// Re-seeds a benchmark's training and reference inputs from `seed`; the
/// default seed returns the benchmark unchanged.
pub fn seeded(mut bench: Benchmark, seed: u64) -> Benchmark {
    if seed != DEFAULT_SEED {
        let training = bench.inputs.training.seed ^ splitmix64(seed);
        let reference = bench.inputs.reference.seed ^ splitmix64(seed ^ 0x5e_ed0f_2ef5);
        bench.inputs.training = bench.inputs.training.clone().with_seed(training);
        bench.inputs.reference = bench.inputs.reference.clone().with_seed(reference);
    }
    bench
}

/// SplitMix64 finaliser: spreads consecutive seeds over the whole space.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
