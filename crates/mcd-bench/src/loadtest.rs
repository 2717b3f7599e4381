//! The synthetic evaluation-service load: one job stream, two submission
//! disciplines, a chaos replay, and the measurements the harnesses report.
//!
//! The stream mixes workload tiers and priority classes the way a shared
//! evaluation service would see them: three benchmarks — one batch
//! (`adpcm decode`), one server (`kv store`), one interactive (`sensor hub`)
//! — each swept over evenly spaced slowdown targets under the off-line and
//! profile schemes, with [`Priority`] cycling through all three classes.
//! Every runner evaluates the *same* canonical job list (benchmark-major,
//! slowdown-minor), so their per-job metrics are directly comparable:
//!
//! * [`run_serial`] submits each configuration as its own independent job —
//!   the throughput of a client that never batches;
//! * [`run_grouped`] groups each benchmark's points into one
//!   [`EvalJob::batch`] group — one capture/training pass feeding all lanes;
//! * [`run_chaos`] replays the stream under a seeded fault plan
//!   ([`FaultConfig::chaos`]) — injected read/write errors, torn writes,
//!   lock stalls and worker panics — and records per-job outcomes so the
//!   harness can assert the self-healing invariants: every job reaches
//!   exactly one terminal event, every *surviving* job's metrics are
//!   bit-identical to the fault-free run's ([`job_digest`]), and the cache
//!   directory holds only well-formed artifacts afterwards
//!   ([`check_cache_integrity`]).
//!
//! Each run reports wall-clock throughput, queue-latency and
//! completion-latency percentiles (p50/p95/p99 from per-job
//! [`EvalEvent::JobStarted`] and terminal events), and an order-insensitive
//! check of result *identity*: [`metrics_digest`] folds every job's scheme
//! metrics bit-for-bit into one FNV-1a fingerprint, so two runs produced the
//! same numbers iff their digests match. The batched runner must therefore
//! beat the serial runner on throughput while hashing to the same digest —
//! the two gates `perf_report`'s `load_*` stages hold.

use mcd_dvfs::artifact::{verify_envelope, ArtifactCache};
use mcd_dvfs::error::{find_benchmark, McdError};
use mcd_dvfs::evaluation::{BenchmarkEvaluation, EvaluationConfig};
use mcd_dvfs::scheme::names;
use mcd_dvfs::service::{EvalEvent, EvalJob, Evaluator, Priority, ResultStream};
use mcd_dvfs::{FaultConfig, FaultPlan, Metrics};
use mcd_sim::fingerprint::Fnv1a;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The stream's benchmarks: one per workload tier (batch, server,
/// interactive), so a single run exercises heterogeneous job costs.
pub const STREAM_BENCHMARKS: [&str; 3] = ["adpcm decode", "kv store", "sensor hub"];

/// Slowdown points per benchmark in the default (non-smoke) stream. Sized
/// so the batched submission path's amortisation is fully visible: the
/// per-benchmark capture/training cost is shared across enough lanes that
/// batched throughput clears the 4x-over-serial gate with headroom.
pub const DEFAULT_POINTS: usize = 32;

/// The first slowdown target of the sweep and the spacing between points.
const SLOWDOWN_BASE: f64 = 0.02;
const SLOWDOWN_STEP: f64 = 0.01;

/// Builds the canonical job stream: for every stream benchmark, `points`
/// evenly spaced slowdown targets under the off-line + profile schemes, with
/// the priority class cycling through interactive/batch/background. The list
/// is benchmark-major, slowdown-minor — the order every runner's evaluations
/// come back in, and the order [`metrics_digest`] folds them in.
pub fn stream_jobs(points: usize) -> Result<Vec<EvalJob>, McdError> {
    let mut jobs = Vec::with_capacity(STREAM_BENCHMARKS.len() * points);
    for (b, name) in STREAM_BENCHMARKS.iter().enumerate() {
        let bench = find_benchmark(name)?;
        for i in 0..points {
            let priority = match (b + i) % 3 {
                0 => Priority::Interactive,
                1 => Priority::Batch,
                _ => Priority::Background,
            };
            jobs.push(
                EvalJob::new(bench.clone())
                    .with_slowdown(SLOWDOWN_BASE + SLOWDOWN_STEP * i as f64)
                    .with_schemes([names::OFFLINE, names::PROFILE])
                    .with_priority(priority),
            );
        }
    }
    Ok(jobs)
}

/// The evaluation configuration the cold (cache-disabled) load stages use:
/// single simulation thread, default machine, no artifact cache — every job's
/// cost is pure compute, so serial-vs-batched is an apples-to-apples
/// comparison.
pub fn cold_config() -> EvaluationConfig {
    EvaluationConfig {
        parallelism: 1,
        ..EvaluationConfig::default()
    }
}

/// Latency percentiles over one run's per-job samples, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct LatencySummary {
    /// Median.
    pub p50_ms: f64,
    /// 95th percentile.
    pub p95_ms: f64,
    /// 99th percentile.
    pub p99_ms: f64,
    /// Worst observed sample.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarises a sample set (nearest-rank percentiles). Empty samples
    /// yield all-zero summaries.
    pub fn from_samples(samples: &mut [f64]) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        LatencySummary {
            p50_ms: percentile(samples, 50.0),
            p95_ms: percentile(samples, 95.0),
            p99_ms: percentile(samples, 99.0),
            max_ms: samples[samples.len() - 1],
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted, non-empty sample set.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let rank = ((q / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// One runner's measurements over the full stream.
#[derive(Debug, Clone, Copy)]
pub struct RunReport {
    /// Jobs evaluated.
    pub jobs: usize,
    /// End-to-end wall clock, submission of the first job to the last
    /// terminal event.
    pub wall: Duration,
    /// Queue latency: submission to `JobStarted`, per job.
    pub queue: LatencySummary,
    /// Completion latency: submission of the stream to the job's terminal
    /// event, per job.
    pub completion: LatencySummary,
    /// [`metrics_digest`] over the evaluations in canonical stream order.
    pub digest: u64,
}

impl RunReport {
    /// Jobs per second over the whole run.
    pub fn throughput(&self) -> f64 {
        self.jobs as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Serial submission: every configuration is its own job, a batch of one —
/// nothing is shared across configurations, so each job pays its full
/// capture/training cost (baselines are still memoised process-wide, exactly
/// as a non-batching client would see).
pub fn run_serial(config: &EvaluationConfig, jobs: Vec<EvalJob>) -> Result<RunReport, McdError> {
    let evaluator = Evaluator::builder()
        .config(config.clone())
        .workers(1)
        .build();
    let count = jobs.len();
    let start = Instant::now();
    let stream = evaluator.submit_all(jobs);
    drain_run(vec![stream], count, start)
}

/// Batched submission: each benchmark's points become one
/// [`EvalJob::batch`] group, sharing a single capture/training pass across
/// all slowdown lanes. Groups are submitted in stream order, so the
/// concatenated evaluations land in the same canonical order as
/// [`run_serial`]'s.
pub fn run_grouped(config: &EvaluationConfig, jobs: Vec<EvalJob>) -> Result<RunReport, McdError> {
    let evaluator = Evaluator::builder()
        .config(config.clone())
        .workers(1)
        .build();
    let count = jobs.len();
    let mut groups: Vec<(String, Vec<EvalJob>)> = Vec::new();
    for job in jobs {
        let name = job.benchmark().name.to_string();
        match groups.last_mut() {
            Some((last, members)) if *last == name => members.push(job),
            _ => groups.push((name, vec![job])),
        }
    }
    let start = Instant::now();
    let streams = groups
        .into_iter()
        .map(|(_, members)| Ok(evaluator.submit_batch(EvalJob::batch(members)?)))
        .collect::<Result<Vec<_>, McdError>>()?;
    drain_run(streams, count, start)
}

/// Drains the runs' streams in submission order, folding per-job latencies
/// and the canonical-order metrics digest into one [`RunReport`].
fn drain_run(
    streams: Vec<ResultStream>,
    jobs: usize,
    start: Instant,
) -> Result<RunReport, McdError> {
    let mut queue_ms = Vec::with_capacity(jobs);
    let mut completion_ms = Vec::with_capacity(jobs);
    let mut evals: Vec<BenchmarkEvaluation> = Vec::with_capacity(jobs);
    for stream in streams {
        evals.extend(stream.collect_with(|event| match event {
            EvalEvent::JobStarted { queued_for, .. } => {
                queue_ms.push(queued_for.as_secs_f64() * 1e3);
            }
            EvalEvent::JobCompleted { .. } | EvalEvent::JobFailed { .. } => {
                completion_ms.push(start.elapsed().as_secs_f64() * 1e3);
            }
            _ => {}
        })?);
    }
    let wall = start.elapsed();
    Ok(RunReport {
        jobs,
        wall,
        queue: LatencySummary::from_samples(&mut queue_ms),
        completion: LatencySummary::from_samples(&mut completion_ms),
        digest: metrics_digest(&evals),
    })
}

/// An FNV-1a fingerprint over every evaluation's per-scheme metrics, folded
/// in the given (canonical) order with full `f64` bit patterns — equal
/// digests mean bit-identical per-job results.
pub fn metrics_digest(evals: &[BenchmarkEvaluation]) -> u64 {
    let mut h = Fnv1a::new();
    for eval in evals {
        h.write_str(&eval.name);
        h.write_f64(eval.baseline.run_time.as_ns());
        h.write_f64(eval.baseline.total_energy.as_units());
        for outcome in &eval.schemes {
            h.write_str(&outcome.name);
            h.write_f64(outcome.result.stats.run_time.as_ns());
            h.write_f64(outcome.result.stats.total_energy.as_units());
            h.write_f64(outcome.result.metrics.performance_degradation);
            h.write_f64(outcome.result.metrics.energy_savings);
            h.write_f64(outcome.result.metrics.energy_delay_improvement);
        }
    }
    h.finish()
}

/// One job's digest — [`metrics_digest`] over a single evaluation — so a
/// chaos run can compare each *surviving* job bit-for-bit against the
/// fault-free run at the same canonical stream index.
pub fn job_digest(eval: &BenchmarkEvaluation) -> u64 {
    metrics_digest(std::slice::from_ref(eval))
}

/// What one [`run_chaos`] pass observed, per-job and in aggregate.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs that completed despite the fault plan.
    pub completed: usize,
    /// Jobs that failed on an *injected* fault (a worker panic surfacing as
    /// [`McdError::Fault`], or exhausted artifact retries as
    /// [`McdError::Io`]).
    pub faulted: usize,
    /// Failures NOT attributable to injection — rendered errors the harness
    /// must treat as real bugs. Empty on a healthy run.
    pub unexpected: Vec<String>,
    /// Jobs that saw zero or more than one terminal event. Zero on a
    /// healthy run: panic isolation must deliver exactly one terminal per
    /// job, never strand and never double-report.
    pub double_terminals: usize,
    /// Per canonical stream index: `Some(job_digest)` for completed jobs,
    /// `None` for faulted ones.
    pub digests: Vec<Option<u64>>,
    /// The evaluator's counter snapshot at drain time
    /// ([`Evaluator::metrics`]): the fault plan's draws and injections per
    /// site, the cache's retries, recoveries and exhaustions, and the rest.
    pub metrics: Metrics,
    /// End-to-end wall clock.
    pub wall: Duration,
}

/// Replays the canonical stream under a fault plan built from `fault_config`
/// (typically [`FaultConfig::chaos`]; pass [`FaultConfig::default`] for a
/// disabled-plan reference run through the identical machinery). The plan is
/// shared between the evaluator (lock stalls, worker panics) and an artifact
/// cache on `cache_dir` (read/write errors, short and torn reads/writes)
/// with the default retry policy. Each job is submitted individually so a
/// panicking job's blast radius is visible per-index; the same seed always
/// injects the same faults at the same per-site draw counts, independent of
/// thread interleaving.
pub fn run_chaos(
    cache_dir: &Path,
    jobs: Vec<EvalJob>,
    fault_config: FaultConfig,
    workers: usize,
) -> Result<ChaosReport, McdError> {
    let faults = Arc::new(FaultPlan::new(fault_config));
    let cache = ArtifactCache::new(cache_dir).with_faults(Arc::clone(&faults));
    let config = EvaluationConfig {
        parallelism: 1,
        ..EvaluationConfig::default()
    }
    .with_cache(Arc::new(cache));
    let evaluator = Evaluator::builder()
        .config(config)
        .workers(workers)
        .faults(Arc::clone(&faults))
        .build();
    let count = jobs.len();
    let start = Instant::now();
    let stream = evaluator.submit_all(jobs);
    let order = stream.jobs().to_vec();
    let mut terminals: HashMap<mcd_dvfs::service::JobId, u32> = HashMap::new();
    let mut digests_by_id = HashMap::new();
    let mut faulted = 0usize;
    let mut unexpected = Vec::new();
    for event in stream {
        if event.is_terminal() {
            *terminals.entry(event.job()).or_default() += 1;
        }
        match event {
            EvalEvent::JobCompleted { job, evaluation } => {
                digests_by_id.insert(job, job_digest(&evaluation));
            }
            EvalEvent::JobFailed { error, .. } => match error {
                McdError::Fault { .. } | McdError::Io { .. } => faulted += 1,
                other => unexpected.push(other.to_string()),
            },
            _ => {}
        }
    }
    let metrics = evaluator.metrics();
    // Join the workers before inspecting the directory: a live worker could
    // still hold a publication lock or an in-flight temp file.
    drop(evaluator);
    let wall = start.elapsed();
    let digests: Vec<Option<u64>> = order
        .iter()
        .map(|id| digests_by_id.get(id).copied())
        .collect();
    let double_terminals = order
        .iter()
        .filter(|id| terminals.get(id).copied().unwrap_or(0) != 1)
        .count();
    Ok(ChaosReport {
        jobs: count,
        completed: digests_by_id.len(),
        faulted,
        unexpected,
        double_terminals,
        digests,
        metrics,
        wall,
    })
}

/// The cache directory's on-disk state after a chaos run: every published
/// artifact must pass the codec's envelope check (magic, version, checksum —
/// a torn write can never be mistaken for a publication), and no publication
/// debris (`.lock-*` / `.tmp-*` files) may outlive the evaluator.
#[derive(Debug, Clone, Default)]
pub struct CacheIntegrity {
    /// Published artifacts found.
    pub artifacts: usize,
    /// Artifact files whose envelope failed verification.
    pub corrupt: Vec<String>,
    /// Lock or temp files left behind.
    pub stranded: Vec<String>,
}

impl CacheIntegrity {
    /// True when every artifact verified and nothing was stranded.
    pub fn clean(&self) -> bool {
        self.corrupt.is_empty() && self.stranded.is_empty()
    }
}

/// Scans `cache_dir` for the two classes of fault damage a crash-consistent
/// store must rule out: torn artifacts (checksum/envelope mismatch) and
/// stranded publication debris.
pub fn check_cache_integrity(cache_dir: &Path) -> CacheIntegrity {
    let mut integrity = CacheIntegrity::default();
    for entry in ArtifactCache::new(cache_dir).entries() {
        integrity.artifacts += 1;
        let ok = std::fs::read(cache_dir.join(&entry.name))
            .map(|bytes| verify_envelope(&entry.kind, &bytes).is_ok())
            .unwrap_or(false);
        if !ok {
            integrity.corrupt.push(entry.name);
        }
    }
    let listing = std::fs::read_dir(cache_dir)
        .map(|dir| dir.flatten().collect::<Vec<_>>())
        .unwrap_or_default();
    for entry in listing {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with(".lock-") || name.starts_with(".tmp-") {
            integrity.stranded.push(name);
        }
    }
    integrity
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_benchmark_major_with_cycling_priorities() {
        let jobs = stream_jobs(4).unwrap();
        assert_eq!(jobs.len(), 12);
        // Benchmark-major order.
        let names: Vec<&str> = jobs.iter().map(|j| j.benchmark().name).collect();
        assert_eq!(&names[0..4], &["adpcm decode"; 4]);
        assert_eq!(&names[4..8], &["kv store"; 4]);
        assert_eq!(&names[8..12], &["sensor hub"; 4]);
        // All three priority classes are present.
        for priority in [Priority::Interactive, Priority::Batch, Priority::Background] {
            assert!(jobs.iter().any(|j| j.priority() == priority));
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 95.0), 95.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        let small = [10.0, 20.0];
        assert_eq!(percentile(&small, 50.0), 10.0);
        assert_eq!(percentile(&small, 99.0), 20.0);
    }

    #[test]
    fn latency_summary_of_empty_samples_is_zero() {
        let summary = LatencySummary::from_samples(&mut []);
        assert_eq!(summary.p50_ms, 0.0);
        assert_eq!(summary.max_ms, 0.0);
    }

    #[test]
    fn chaos_run_reaches_exactly_one_terminal_per_job() {
        let dir = std::env::temp_dir().join(format!("mcd-chaos-lib-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let report = run_chaos(&dir, stream_jobs(2).unwrap(), FaultConfig::chaos(7), 2).unwrap();
        assert_eq!(report.jobs, 6);
        assert_eq!(report.completed + report.faulted, report.jobs);
        assert_eq!(report.double_terminals, 0);
        assert!(
            report.unexpected.is_empty(),
            "non-injected failures under chaos: {:?}",
            report.unexpected
        );
        assert_eq!(report.digests.len(), report.jobs);
        assert_eq!(
            report.digests.iter().flatten().count(),
            report.completed,
            "one digest per completed job"
        );
        let integrity = check_cache_integrity(&dir);
        assert!(
            integrity.clean(),
            "corrupt={:?} stranded={:?}",
            integrity.corrupt,
            integrity.stranded
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn integrity_check_flags_torn_artifacts_and_debris() {
        let dir = std::env::temp_dir().join(format!("mcd-integrity-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("trace-deadbeef.bin"), b"torn").unwrap();
        std::fs::write(dir.join(".lock-foo.bin"), b"").unwrap();
        std::fs::write(dir.join(".tmp-999-bar.bin"), b"half").unwrap();
        let integrity = check_cache_integrity(&dir);
        assert!(!integrity.clean());
        assert_eq!(integrity.corrupt, vec!["trace-deadbeef.bin".to_string()]);
        assert_eq!(integrity.stranded.len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        use mcd_dvfs::evaluation::SchemeResult;
        use mcd_dvfs::scheme::SchemeOutcome;
        use mcd_sim::stats::{RelativeMetrics, SimStats};
        let eval = |name: &str, degradation: f64| BenchmarkEvaluation {
            name: name.to_string(),
            schemes: vec![SchemeOutcome {
                name: "offline".to_string(),
                label: "off-line".to_string(),
                result: SchemeResult {
                    stats: SimStats::default(),
                    metrics: RelativeMetrics {
                        performance_degradation: degradation,
                        ..RelativeMetrics::default()
                    },
                },
            }],
            baseline: SimStats::default(),
        };
        let a = vec![eval("a", 0.05), eval("b", 0.06)];
        let b = vec![eval("b", 0.06), eval("a", 0.05)];
        assert_ne!(metrics_digest(&a), metrics_digest(&b), "order matters");
        let c = vec![eval("a", 0.05 + 1e-15), eval("b", 0.06)];
        assert_ne!(metrics_digest(&a), metrics_digest(&c), "bits matter");
        assert_eq!(metrics_digest(&a), metrics_digest(&a.clone()));
    }
}
