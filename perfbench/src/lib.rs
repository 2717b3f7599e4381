//! The repository benchmark: three closed-batch workloads run through the
//! evaluator's public API, end-to-end metrics from untraced repetitions, and
//! per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <fig_cold|sweep_batched|tournament_warm> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke] [--digest-only]
//! ```
//!
//! One run sets the workload up (job generation; on `tournament_warm`, also
//! filling a new artifact cache), then repeats the workload until `--seconds`
//! have passed, each repetition on a new evaluator with one worker. Every
//! timing is read from the process CPU clock ([`host::cpu_seconds`]), which
//! leaves out the time a shared host runs other guests on this one's CPUs;
//! the wall-clock times are printed in the report beside it. Every
//! repetition's simulated results are folded into a metrics digest that must
//! match the committed reference for the seed (`reference.txt`) and every
//! other repetition; a failed, rejected or mismatched job fails the run.
//!
//! The human-readable report goes to stdout, and the last line is one JSON
//! object: `correct`, `attempted`, `failed` and the metrics (`--trace 0`: the
//! end-to-end metrics, `--trace 1`: the per-layer metrics). All intermediate
//! files live under `.perfbench-tmp/` in the working directory and are
//! removed before exit.

pub mod drive;
pub mod host;
pub mod metrics;
pub mod probe;
pub mod traced;
pub mod workload;

use crate::drive::Rep;
use crate::metrics::{median, percentile, Values, END_TO_END, PER_LAYER};
use crate::workload::{CacheMode, Size, Workload};
use mcd_bench::loadtest::{job_digest, metrics_digest};
use mcd_dvfs::artifact::ArtifactCache;
use mcd_dvfs::error::McdError;
use mcd_dvfs::scheme::names;
use mcd_dvfs::service::EvalJob;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Set-ups at least repeated per run; cheap set-ups repeat until
/// [`SETUP_MIN_SECONDS`] have passed, so their median is stable.
const SETUP_REPEATS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 0.5;
const SETUP_MAX_REPEATS: usize = 100_000;

/// Measured repetitions at least run per untraced run, so the reported
/// medians never rest on one or two samples.
const MIN_REPS: usize = 3;

/// The committed reference digests.
const REFERENCE: &str = include_str!("../reference.txt");

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed; 0 leaves every input as the suite defines it.
    pub seed: u64,
    /// How long the measured repetitions run, in seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Tiny inputs for testing the benchmark itself (no reference digest).
    pub smoke: bool,
    /// Only run the workload once and print `<workload> <seed> <digest>`.
    pub digest_only: bool,
}

impl Args {
    /// Parses the arguments after the program name.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = workload::DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut smoke = false;
        let mut digest_only = false;
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let mut value =
                |name: &str| args.next().ok_or_else(|| format!("`{name}` needs a value"));
            match arg.as_str() {
                "--workload" => workload = Some(Workload::parse(&value("--workload")?)?),
                "--seed" => {
                    seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?
                }
                "--seconds" => {
                    seconds = value("--seconds")?
                        .parse()
                        .map_err(|e| format!("bad --seconds: {e}"))?;
                    if !(0.0..=3600.0).contains(&seconds) {
                        return Err(format!("--seconds out of range: {seconds}"));
                    }
                }
                "--trace" => {
                    trace = match value("--trace")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                    }
                }
                "--smoke" => smoke = true,
                "--digest-only" => digest_only = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed,
            seconds,
            trace,
            smoke,
            digest_only,
        })
    }

    fn size(&self) -> Size {
        if self.smoke {
            Size::SMOKE
        } else {
            Size::FULL
        }
    }
}

/// A finished run: the report lines, the result line, and whether every
/// check passed.
#[derive(Debug)]
pub struct Outcome {
    /// Human-readable report.
    pub report: Vec<String>,
    /// The JSON result line.
    pub result: String,
    /// Whether every correctness check passed.
    pub correct: bool,
}

/// Runs the benchmark as `args` says.
pub fn run(args: &Args) -> Result<Outcome, String> {
    host::single_heap_arena();
    let mut tmp = Tmp::new().map_err(|e| format!("cannot create scratch directory: {e}"))?;
    let mut checker = Checker::new(args);
    let mut report = vec![
        format!(
            "perfbench: workload={} seed={} seconds={} trace={} size={}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            if args.smoke { "smoke" } else { "full" }
        ),
        format!("host: {}", host::fingerprint()),
        format!(
            "load: closed batch, every job submitted at t=0, {} evaluator worker(s), serial \
             per-window analysis; times on the process CPU clock",
            workload::WORKERS
        ),
    ];
    if args.digest_only {
        let setup = set_up(args, &mut tmp, &mut checker).map_err(|e| e.to_string())?;
        let rep = repetition(args, &setup, &mut tmp).map_err(|e| e.to_string())?;
        let digest = metrics_digest(&rep.evaluations());
        return Ok(Outcome {
            report,
            result: format!("{} {} {digest:016x}", args.workload, args.seed),
            correct: rep.failed() == 0,
        });
    }
    let (values, decls) = if args.trace {
        (
            traced::run(args, &mut tmp, &mut checker, &mut report).map_err(|e| e.to_string())?,
            PER_LAYER,
        )
    } else {
        (
            untraced(args, &mut tmp, &mut checker, &mut report).map_err(|e| e.to_string())?,
            END_TO_END,
        )
    };
    report.push(match checker.reference {
        Some(d) => format!("correctness: reference digest {d:016x}"),
        None => "correctness: no committed reference for this seed and size; \
                 repetitions checked against each other"
            .to_string(),
    });
    report.extend(checker.problems.iter().map(|p| format!("FAILED: {p}")));
    let correct = checker.problems.is_empty();
    let result = metrics::result_line(correct, checker.attempted, checker.failed, decls, &values)?;
    Ok(Outcome {
        report,
        result,
        correct,
    })
}

/// The untraced run: set-ups, then repetitions for `--seconds`; returns
/// every end-to-end metric.
fn untraced(
    args: &Args,
    tmp: &mut Tmp,
    checker: &mut Checker,
    report: &mut Vec<String>,
) -> Result<Values, McdError> {
    let mut setup_times = Vec::new();
    let mut setup = None;
    while setup_times.len() < SETUP_REPEATS
        || (args.workload.cache_mode() != CacheMode::Warm
            && setup_times.iter().sum::<f64>() < SETUP_MIN_SECONDS
            && setup_times.len() < SETUP_MAX_REPEATS)
    {
        let start = host::cpu_seconds();
        let next = set_up(args, tmp, checker)?;
        setup_times.push(host::cpu_seconds() - start);
        if let Some(old) = setup.replace(next) {
            old.discard();
        }
    }
    let setup = setup.expect("at least one set-up ran");

    let reps = repeat(args, &setup, tmp, checker, args.seconds, MIN_REPS)?;
    let cpus: Vec<f64> = reps.iter().map(|r| r.cpu).collect();
    let walls: Vec<f64> = reps.iter().map(|r| r.wall).collect();
    let latencies: Vec<f64> = reps.iter().flat_map(|r| r.latencies.clone()).collect();
    let evals = reps[0].evaluations();
    let profile: Vec<_> = evals
        .iter()
        .filter_map(|e| e.metrics(names::PROFILE).ok())
        .collect();
    if profile.len() != evals.len() || evals.is_empty() {
        return Err(McdError::Internal(
            "a completed job has no profile result".to_string(),
        ));
    }
    let mean = |f: &dyn Fn(&mcd_sim::stats::RelativeMetrics) -> f64| {
        100.0 * profile.iter().map(|m| f(m)).sum::<f64>() / profile.len() as f64
    };

    let mut v = Values::new();
    v.insert("setup_s", median(&setup_times));
    v.insert("batch_cpu_s", median(&cpus));
    v.insert("job_latency_cpu_p50_s", percentile(&latencies, 50.0));
    v.insert("job_latency_cpu_p90_s", percentile(&latencies, 90.0));
    v.insert("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    v.insert(
        "success_rate",
        1.0 - checker.failed as f64 / checker.attempted.max(1) as f64,
    );
    v.insert("profile_energy_savings_pct", mean(&|m| m.energy_savings));
    v.insert("profile_slowdown_pct", mean(&|m| m.performance_degradation));

    report.push(format!(
        "setup: {} set-up(s), median {:.6} CPU s",
        setup_times.len(),
        v["setup_s"]
    ));
    report.push(format!(
        "measured: {} repetition(s) of {} job(s); job latency samples: {}{}",
        reps.len(),
        reps[0].latencies.len(),
        latencies.len(),
        if latencies.len() < 100 {
            " (fewer than 100: the p90 has under ten samples beyond it)"
        } else {
            ""
        }
    ));
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.push(format!("repetition CPU (s):  {}", list(&cpus)));
    report.push(format!(
        "repetition wall (s): {} (median {:.4}; not gated: it also counts steal and disk waits)",
        list(&walls),
        median(&walls)
    ));
    report.push(
        "simulated metrics: unvalidated model (no hardware reference; the golden panel is a \
         self-reference), so no error figure is given"
            .to_string(),
    );
    for decl in END_TO_END {
        report.push(format!(
            "  {:<28} {:>14.6} {}",
            decl.name, v[decl.name], decl.unit
        ));
    }
    Ok(v)
}

/// What a set-up produces: the canonical job list and, on a warm workload,
/// the filled cache.
struct Setup {
    jobs: Vec<EvalJob>,
    warm: Option<(Arc<ArtifactCache>, PathBuf)>,
}

impl Setup {
    /// Removes the set-up's cache directory.
    fn discard(self) {
        if let Some((cache, dir)) = self.warm {
            drop(cache);
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// The schemes whose runs publish every artifact a warm repetition reads:
/// off-line (schedule and window histograms), profile (training plan and
/// histograms) and learned (training histograms), besides the packed
/// reference trace every job publishes. The other controllers read none, so
/// the cache warm-up leaves them out (the traced run's `artifact.misses`
/// shows it when that stops being true).
const WARMING_SCHEMES: [&str; 3] = [names::OFFLINE, names::PROFILE, names::LEARNED];

/// Generates the jobs and, for a warm workload, fills a new cache by running
/// the workload's jobs, restricted to [`WARMING_SCHEMES`], against it. That
/// run must complete every job; its results are not digested, having fewer
/// schemes than the reference.
fn set_up(args: &Args, tmp: &mut Tmp, checker: &mut Checker) -> Result<Setup, McdError> {
    let jobs = args.workload.jobs(args.seed, args.size())?;
    let warm = if args.workload.cache_mode() == CacheMode::Warm {
        let dir = tmp.fresh_dir();
        let cache = Arc::new(ArtifactCache::new(&dir));
        let config = args.workload.config().with_cache(Arc::clone(&cache));
        let warming = jobs
            .iter()
            .map(|job| job.clone().with_schemes(WARMING_SCHEMES))
            .collect();
        let rep = drive::run(warming, args.workload.submission(), config, false)?;
        checker.check_completed("cache warm-up", &rep);
        Some((cache, dir))
    } else {
        None
    };
    Ok(Setup { jobs, warm })
}

/// One untraced repetition against the workload's cache.
fn repetition(args: &Args, setup: &Setup, tmp: &mut Tmp) -> Result<Rep, McdError> {
    let (cache, scratch) = rep_cache(args.workload.cache_mode(), setup, tmp);
    let config = args.workload.config().with_cache(cache);
    host::trim_heap();
    let rep = drive::run(
        setup.jobs.clone(),
        args.workload.submission(),
        config,
        false,
    );
    if let Some(dir) = scratch {
        let _ = std::fs::remove_dir_all(dir);
    }
    rep
}

/// The cache a repetition runs against, plus a directory to remove after it.
fn rep_cache(
    mode: CacheMode,
    setup: &Setup,
    tmp: &mut Tmp,
) -> (Arc<ArtifactCache>, Option<PathBuf>) {
    match mode {
        CacheMode::Fresh => {
            let dir = tmp.fresh_dir();
            (Arc::new(ArtifactCache::new(&dir)), Some(dir))
        }
        CacheMode::Disabled => (Arc::new(ArtifactCache::disabled()), None),
        CacheMode::Warm => {
            let (cache, _) = setup
                .warm
                .as_ref()
                .expect("a warm workload's set-up fills a cache");
            (Arc::clone(cache), None)
        }
    }
}

/// Untraced repetitions until `seconds` have passed and at least
/// `min_reps` ran, each checked.
fn repeat(
    args: &Args,
    setup: &Setup,
    tmp: &mut Tmp,
    checker: &mut Checker,
    seconds: f64,
    min_reps: usize,
) -> Result<Vec<Rep>, McdError> {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps.max(1) || start.elapsed().as_secs_f64() < seconds {
        let rep = repetition(args, setup, tmp)?;
        checker.check("repetition", &rep);
        reps.push(rep);
    }
    Ok(reps)
}

/// The run's correctness bookkeeping: every checked repetition must complete
/// every job with the expected digest.
struct Checker {
    reference: Option<u64>,
    /// Digest and per-job digests of the first checked repetition.
    first: Option<(u64, Vec<u64>)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Checker {
    fn new(args: &Args) -> Checker {
        Checker {
            reference: if args.smoke {
                None
            } else {
                reference_digest(args.workload, args.seed)
            },
            first: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    /// Checks one repetition. A failed or rejected job counts once; a
    /// repetition whose digest differs from the reference (or, without one,
    /// from the first repetition) counts every job it ran.
    fn check(&mut self, label: &str, rep: &Rep) {
        if !self.check_completed(label, rep) {
            return;
        }
        let jobs = rep.outcomes.len() as u64;
        let evals = rep.evaluations();
        let digest = metrics_digest(&evals);
        let per_job: Vec<u64> = evals.iter().map(job_digest).collect();
        let expected = self.reference.or(self.first.as_ref().map(|(d, _)| *d));
        match expected {
            Some(expected) if expected != digest => {
                // Jobs that differ from the first repetition, or all of them
                // when the first repetition itself missed the reference.
                let differing = self.first.as_ref().map_or(0, |(_, first)| {
                    first.iter().zip(&per_job).filter(|(a, b)| a != b).count() as u64
                });
                self.failed += if differing > 0 { differing } else { jobs };
                self.problems.push(format!(
                    "{label}: metrics digest {digest:016x} differs from the expected \
                     {expected:016x}"
                ));
            }
            _ => {}
        }
        if self.first.is_none() {
            self.first = Some((digest, per_job));
        }
    }

    /// Counts a repetition's jobs as attempted and its failed or rejected
    /// ones as failed; returns whether every job completed.
    fn check_completed(&mut self, label: &str, rep: &Rep) -> bool {
        self.attempted += rep.outcomes.len() as u64;
        for outcome in &rep.outcomes {
            if let drive::JobOutcome::Failed(why) = outcome {
                self.problems.push(format!("{label}: {why}"));
            }
        }
        self.failed += rep.failed() as u64;
        rep.failed() == 0
    }

    /// Records a failed check outside a workload repetition.
    fn fail(&mut self, jobs: u64, problem: String) {
        self.failed += jobs;
        self.problems.push(problem);
    }
}

/// The committed reference digest of `workload` at `seed`, if any.
pub fn reference_digest(workload: Workload, seed: u64) -> Option<u64> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut fields = l.split_whitespace();
            Some((fields.next()?, fields.next()?, fields.next()?))
        })
        .find(|(w, s, _)| *w == workload.name() && s.parse() == Ok(seed))
        .and_then(|(_, _, d)| u64::from_str_radix(d, 16).ok())
}

/// The run's scratch directory, `.perfbench-tmp/<pid>-<n>` under the working
/// directory; removed when dropped.
struct Tmp {
    root: PathBuf,
    next: usize,
}

impl Tmp {
    fn new() -> std::io::Result<Tmp> {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        let root = PathBuf::from(".perfbench-tmp").join(format!("{}-{run}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Tmp { root, next: 0 })
    }

    /// A path for a new, not yet existing directory inside the scratch root.
    fn fresh_dir(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("d{}", self.next))
    }
}

impl Drop for Tmp {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            // Only succeeds when no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}
