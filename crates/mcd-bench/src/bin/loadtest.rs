//! `loadtest` — the evaluation service's cross-process and chaos checks.
//!
//! Replays the synthetic mixed-tier job stream (see [`mcd_bench::loadtest`])
//! through the two phases no other harness covers:
//!
//! 1. **Shared cache** — N concurrent worker processes (re-executions of
//!    this binary with `--worker`) cold-start on one `MCD_CACHE_DIR`; the
//!    parent then asserts the single-writer guarantee: per artifact kind,
//!    the `mcd_cache_writes{kind="…"}` the workers recorded in `stats.log`
//!    equal distinct files — no key was computed twice.
//! 2. **Chaos** — the stream replayed twice through identical machinery
//!    (evaluator plus artifact cache on a fresh directory), once under a
//!    disabled fault plan and once under the seeded
//!    [`FaultConfig::chaos`] preset (injected read/write errors, torn
//!    writes, lock stalls, worker panics). The self-healing gates: every
//!    job reaches exactly one terminal event; every failure is attributable
//!    to injection; every *surviving* job's metrics hash bit-identical to
//!    the fault-free run's at the same stream index; the cache directory
//!    afterwards holds only envelope-verified artifacts and zero stranded
//!    `.lock-*`/`.tmp-*` debris; and a liveness watchdog armed around the
//!    phase never fires (exit 3 if it does). Each run prints its retry and
//!    fault counters as `mcd_cache_retries_*` and `mcd_fault_*` series.
//!
//! Serial-versus-batched throughput and the serial == batched metrics
//! digest are gated by `perf_report`'s `load_*` stages; admission control
//! is asserted by `tests/service.rs`.
//!
//! Flags: `--points N` (slowdown points per benchmark, default 32),
//! `--procs N` (shared-cache worker processes, default 2), `--smoke`
//! (CI-sized run: 3 points), `--fault-seed N` (chaos-phase seed, default
//! 42 — rerunning with the failing seed replays the exact injection
//! sequence), `--chaos-only` (skip phase 1; what CI's seed matrix runs),
//! `--worker` (internal: run one batched stream against the environment's
//! cache directory and append its counters to `stats.log`). An unknown flag, a
//! missing value, or a value that does not parse (a count must be
//! positive) prints `error: …` and exits 1 before any phase runs. Exit
//! status is non-zero on any failed invariant, so CI can run
//! `loadtest --smoke` directly.
//!
//! [`FaultConfig::chaos`]: mcd_dvfs::FaultConfig::chaos

use mcd_bench::cli::{parse_value, positive_count};
use mcd_bench::loadtest::{
    check_cache_integrity, cold_config, run_chaos, run_grouped, stream_jobs, ChaosReport,
    DEFAULT_POINTS,
};
use mcd_dvfs::artifact::ArtifactCache;
use mcd_dvfs::error::McdError;
use mcd_dvfs::fault::InjectedPanic;
use mcd_dvfs::FaultConfig;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default chaos seed — any value works (the gates hold for every seed);
/// fixing one makes the default run reproducible byte-for-byte.
const DEFAULT_FAULT_SEED: u64 = 42;

/// Wall-clock budget for the chaos phase's liveness watchdog. Generous — a
/// healthy smoke run finishes in seconds — so the only way it fires is a
/// genuinely stranded job, lock, or stream.
const WATCHDOG_BUDGET: Duration = Duration::from_secs(240);

/// Slowdown points per benchmark under `--smoke`.
const SMOKE_POINTS: usize = 3;

/// The parsed command line (see the module docs for each flag).
#[derive(Debug)]
struct Args {
    points: usize,
    procs: usize,
    fault_seed: u64,
    smoke: bool,
    chaos_only: bool,
    worker: bool,
}

impl Args {
    /// Parses the arguments after the program name, rejecting anything this
    /// binary does not take.
    fn parse(args: &[String]) -> Result<Args, McdError> {
        let mut points = None;
        let mut parsed = Args {
            points: DEFAULT_POINTS,
            procs: 2,
            fault_seed: DEFAULT_FAULT_SEED,
            smoke: false,
            chaos_only: false,
            worker: false,
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--smoke" => parsed.smoke = true,
                "--chaos-only" => parsed.chaos_only = true,
                "--worker" => parsed.worker = true,
                "--points" => points = Some(positive_count(arg, iter.next())?),
                "--procs" => parsed.procs = positive_count(arg, iter.next())?,
                "--fault-seed" => {
                    parsed.fault_seed =
                        parse_value(arg, iter.next(), "an unsigned integer", |_| true)?
                }
                other => {
                    return Err(McdError::InvalidConfig(format!(
                        "unknown argument `{other}` (expected --points N, --procs N, --smoke, \
                         --fault-seed N, --chaos-only or --worker)"
                    )))
                }
            }
        }
        parsed.points = points.unwrap_or(if parsed.smoke {
            SMOKE_POINTS
        } else {
            DEFAULT_POINTS
        });
        Ok(parsed)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&args) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::FAILURE;
        }
    };

    if args.worker {
        return match run_worker(args.points) {
            Ok(()) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("loadtest worker: {err}");
                ExitCode::FAILURE
            }
        };
    }

    // Injected panics are expected traffic in the chaos phase; silence their
    // default-hook backtraces so real panics stay visible in the output.
    silence_injected_panics();

    match run_harness(&args) {
        Ok(true) => {
            println!("loadtest: PASS");
            ExitCode::SUCCESS
        }
        Ok(false) => {
            println!("loadtest: FAIL");
            ExitCode::FAILURE
        }
        Err(err) => {
            eprintln!("loadtest: {err}");
            ExitCode::FAILURE
        }
    }
}

/// `--worker`: one batched pass over the stream against the cache directory
/// the parent set up in the environment, stats snapshot appended on exit.
fn run_worker(points: usize) -> Result<(), McdError> {
    let cache = Arc::new(ArtifactCache::from_env());
    let config = cold_config().with_cache(cache.clone());
    let report = run_grouped(&config, stream_jobs(points)?)?;
    eprintln!(
        "loadtest worker: {} job(s) in {:.0} ms",
        report.jobs,
        report.wall.as_secs_f64() * 1e3
    );
    cache.flush_stats_log();
    Ok(())
}

/// Replaces the panic hook with one that swallows [`InjectedPanic`] payloads
/// (they are caught and converted to `JobFailed` by the evaluator — their
/// backtraces are noise) and forwards everything else to the previous hook.
fn silence_injected_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.payload().downcast_ref::<InjectedPanic>().is_some() {
            return;
        }
        previous(info);
    }));
}

fn run_harness(args: &Args) -> Result<bool, McdError> {
    let mut ok = true;
    if !args.chaos_only {
        // Phase 1: N cold processes on one cache directory — single writer.
        let worker_points = if args.smoke {
            args.points
        } else {
            args.points.min(4)
        };
        println!(
            "phase 1: shared cache ({} concurrent cold processes, {worker_points} points)",
            args.procs
        );
        ok &= shared_cache_phase(worker_points, args.procs)?;
        println!();
    }
    // Phase 2: seeded fault injection against the self-healing machinery.
    ok &= chaos_phase(args.points, args.fault_seed)?;
    Ok(ok)
}

/// Arms a liveness watchdog: a detached thread that force-exits the process
/// (status 3) if the returned flag is not raised within the budget. A fired
/// watchdog means a job, lock, or stream was stranded — exactly the hang
/// class panic isolation and lock stealing exist to prevent.
fn arm_watchdog(budget: Duration) -> Arc<AtomicBool> {
    let disarmed = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&disarmed);
    std::thread::spawn(move || {
        let start = Instant::now();
        while start.elapsed() < budget {
            if flag.load(Ordering::Relaxed) {
                return;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        eprintln!(
            "loadtest: FAIL — chaos watchdog fired after {:.0} s: a job, lock, or \
             stream is stranded",
            budget.as_secs_f64()
        );
        std::process::exit(3);
    });
    disarmed
}

/// Phase 2: the stream under a disabled plan (reference) and under
/// [`FaultConfig::chaos`] with `seed`, through identical evaluator + cache
/// machinery on fresh directories. See the module docs for the gates.
fn chaos_phase(points: usize, seed: u64) -> Result<bool, McdError> {
    println!("phase 2: chaos (seeded fault injection, seed={seed}, {points} points/benchmark)");
    let base = std::env::temp_dir().join(format!("mcd-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let disarmed = arm_watchdog(WATCHDOG_BUDGET);

    let reference = run_chaos(
        &base.join("reference"),
        stream_jobs(points)?,
        FaultConfig::default(),
        2,
    )?;
    print_chaos("fault-free", &reference);
    let chaos = run_chaos(
        &base.join("chaos"),
        stream_jobs(points)?,
        FaultConfig::chaos(seed),
        2,
    )?;
    print_chaos("chaos", &chaos);
    disarmed.store(true, Ordering::Relaxed);

    let mut ok = true;
    let mut fail = |message: String| {
        println!("loadtest: FAIL — {message}");
        ok = false;
    };

    // The reference run must be clean: no faults without a plan.
    if reference.completed != reference.jobs || reference.faulted != 0 {
        fail(format!(
            "fault-free reference run degraded (completed={}/{} faulted={})",
            reference.completed, reference.jobs, reference.faulted
        ));
    }
    // Every job reaches exactly one terminal event, in both runs.
    for (label, report) in [("fault-free", &reference), ("chaos", &chaos)] {
        if report.double_terminals != 0 {
            fail(format!(
                "{label}: {} job(s) with zero or duplicate terminal events",
                report.double_terminals
            ));
        }
        if !report.unexpected.is_empty() {
            fail(format!(
                "{label}: non-injected failure(s): {:?}",
                report.unexpected
            ));
        }
    }
    if chaos.completed + chaos.faulted != chaos.jobs {
        fail(format!(
            "chaos: {} completed + {} faulted != {} submitted",
            chaos.completed, chaos.faulted, chaos.jobs
        ));
    }
    // The chaos plan must actually have fired, or the phase proves nothing.
    if chaos.metrics.total("mcd_fault_injected") == 0 {
        fail("chaos: the fault plan never injected anything".to_string());
    }
    // Surviving jobs are bit-identical to the fault-free run, index by index.
    let mut mismatches = 0usize;
    for (i, digest) in chaos.digests.iter().enumerate() {
        let Some(digest) = digest else { continue };
        if reference.digests[i] != Some(*digest) {
            mismatches += 1;
        }
    }
    if mismatches > 0 {
        fail(format!(
            "chaos: {mismatches} surviving job(s) diverged bit-wise from the \
             fault-free run"
        ));
    } else {
        println!(
            "loadtest: chaos survivors={} all bit-identical to fault-free run",
            chaos.completed
        );
    }
    // On-disk aftermath: only envelope-verified artifacts, zero debris.
    for (label, dir) in [("fault-free", "reference"), ("chaos", "chaos")] {
        let integrity = check_cache_integrity(&base.join(dir));
        println!(
            "loadtest: {label} cache artifacts={} corrupt={} stranded={}",
            integrity.artifacts,
            integrity.corrupt.len(),
            integrity.stranded.len()
        );
        if integrity.artifacts == 0 {
            fail(format!("{label}: run published no artifacts"));
        }
        if !integrity.clean() {
            fail(format!(
                "{label}: torn artifact(s) {:?} / stranded debris {:?}",
                integrity.corrupt, integrity.stranded
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&base);
    Ok(ok)
}

fn print_chaos(label: &str, report: &ChaosReport) {
    println!(
        "loadtest: {label:<10} jobs={} completed={} faulted={} wall_ms={:.0}",
        report.jobs,
        report.completed,
        report.faulted,
        report.wall.as_secs_f64() * 1e3,
    );
    for line in report.metrics.to_string().lines() {
        if line.starts_with("mcd_cache_retries_") || line.starts_with("mcd_fault_") {
            println!("{line}");
        }
    }
}

/// Runs `procs` concurrent `--worker` re-executions of this binary on a
/// fresh shared cache directory, then verifies that per artifact kind the
/// recorded writes equal the distinct files on disk (single-writer) and
/// reports the contention the lock absorbed.
fn shared_cache_phase(points: usize, procs: usize) -> Result<bool, McdError> {
    let exe = std::env::current_exe()
        .map_err(|e| McdError::Internal(format!("cannot locate own executable: {e}")))?;
    let dir = std::env::temp_dir().join(format!("mcd-loadtest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut children = Vec::new();
    for _ in 0..procs {
        let child = Command::new(&exe)
            .args(["--worker", "--points", &points.to_string()])
            .env("MCD_CACHE_DIR", &dir)
            .env_remove("MCD_NO_CACHE")
            .spawn()
            .map_err(|e| McdError::Internal(format!("cannot spawn worker: {e}")))?;
        children.push(child);
    }
    let mut ok = true;
    for mut child in children {
        let status = child
            .wait()
            .map_err(|e| McdError::Internal(format!("cannot wait for worker: {e}")))?;
        if !status.success() {
            println!("loadtest: FAIL — worker exited with {status}");
            ok = false;
        }
    }

    // Distinct artifacts on disk, per kind.
    let cache = ArtifactCache::new(&dir);
    let mut files: BTreeMap<String, u64> = BTreeMap::new();
    for entry in cache.entries() {
        *files.entry(entry.kind).or_default() += 1;
    }
    // Writes recorded across every process that used the directory.
    let recorded = ArtifactCache::recorded_metrics(&dir);
    let total_writes = recorded.total("mcd_cache_writes");

    let mut duplicates = 0u64;
    for (kind, count) in &files {
        let writes = recorded
            .get("mcd_cache_writes", Some(("kind", kind)))
            .unwrap_or(0);
        let dup = writes.saturating_sub(*count);
        duplicates += dup;
        println!("loadtest: shared-cache kind={kind} files={count} writes={writes} dup={dup}");
    }
    println!(
        "loadtest: shared-cache procs={procs} duplicate_writes={duplicates} lock_waits={} \
         writes={total_writes}",
        recorded.total("mcd_cache_lock_waits")
    );
    if files.is_empty() || total_writes == 0 {
        println!("loadtest: FAIL — shared-cache phase produced no artifacts");
        ok = false;
    }
    if duplicates > 0 {
        println!(
            "loadtest: FAIL — {duplicates} duplicate write(s): concurrent processes \
             recomputed a published key"
        );
        ok = false;
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(list: &[&str]) -> Result<Args, McdError> {
        Args::parse(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn rejected(list: &[&str]) -> String {
        match parse(list) {
            Err(McdError::InvalidConfig(message)) => message,
            other => panic!("{list:?}: expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn flags_parse_with_smoke_and_explicit_points() {
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.points, DEFAULT_POINTS);
        assert_eq!(
            (defaults.procs, defaults.fault_seed),
            (2, DEFAULT_FAULT_SEED)
        );
        assert_eq!(parse(&["--smoke"]).unwrap().points, SMOKE_POINTS);
        // An explicit count wins over `--smoke`, in either order.
        assert_eq!(parse(&["--points", "5", "--smoke"]).unwrap().points, 5);
        assert_eq!(parse(&["--smoke", "--points", "5"]).unwrap().points, 5);
        let chaos = parse(&["--chaos-only", "--smoke", "--fault-seed", "7"]).unwrap();
        assert!(chaos.chaos_only && chaos.smoke && !chaos.worker);
        assert_eq!(chaos.fault_seed, 7);
        let worker = parse(&["--worker", "--points", "2", "--procs", "3"]).unwrap();
        assert!(worker.worker);
        assert_eq!((worker.points, worker.procs), (2, 3));
    }

    #[test]
    fn unknown_missing_and_malformed_arguments_are_rejected() {
        assert!(rejected(&["--smok"]).contains("`--smok`"));
        assert!(rejected(&["smoke"]).contains("`smoke`"));
        assert!(rejected(&["--fault-seed", "x"]).contains("`x`"));
        assert!(rejected(&["--fault-seed", "-1"]).contains("`-1`"));
        assert!(rejected(&["--points", "0"]).contains("`0`"));
        assert!(rejected(&["--procs", "0"]).contains("--procs"));
        assert!(rejected(&["--points"]).contains("--points"));
        assert!(rejected(&["--points", "--smoke"]).contains("--points"));
    }
}
