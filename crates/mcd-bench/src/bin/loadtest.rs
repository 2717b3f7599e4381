//! `loadtest` — the evaluation service's load-test harness.
//!
//! Replays the synthetic mixed-tier job stream (see [`mcd_bench::loadtest`])
//! through three phases:
//!
//! 1. **Throughput** — the same stream under serial (one job per entry) and
//!    batched (one [`EvalJob::batch`] group per benchmark) submission, cold
//!    cache; reports jobs/s and p50/p95/p99 queue/completion latency, and
//!    requires the two runs' per-job metrics to hash to the same digest.
//! 2. **Admission** — the stream fired at a bounded front-end, once with a
//!    small queue capacity and once with a token-bucket rate limit; both
//!    must produce nonzero completed *and* rejected counts, proving the
//!    explicit queued/rejected accounting works under pressure.
//! 3. **Shared cache** — N concurrent worker processes (re-executions of
//!    this binary with `--worker`) cold-start on one `MCD_CACHE_DIR`; the
//!    parent then asserts the single-writer guarantee: per artifact kind,
//!    recorded writes equal distinct files — no key was computed twice.
//! 4. **Chaos** — the stream replayed twice through identical machinery
//!    (evaluator plus artifact cache on a fresh directory), once under a
//!    disabled fault plan and once under the seeded
//!    [`FaultConfig::chaos`] preset (injected read/write errors, torn
//!    writes, lock stalls, worker panics). The self-healing gates: every
//!    job reaches exactly one terminal event; every failure is attributable
//!    to injection; every *surviving* job's metrics hash bit-identical to
//!    the fault-free run's at the same stream index; the cache directory
//!    afterwards holds only envelope-verified artifacts and zero stranded
//!    `.lock-*`/`.tmp-*` debris; and a liveness watchdog armed around the
//!    phase never fires (exit 3 if it does).
//!
//! Flags: `--points N` (slowdown points per benchmark, default 32),
//! `--procs N` (shared-cache worker processes, default 2), `--smoke`
//! (CI-sized run: 3 points), `--fault-seed N` (chaos-phase seed, default
//! 42 — rerunning with the failing seed replays the exact injection
//! sequence), `--chaos-only` (skip phases 1–3; what CI's seed matrix runs),
//! `--worker` (internal: run one batched stream against the environment's
//! cache directory and append its stats snapshot). Exit status is non-zero
//! on any failed invariant, so CI can run `loadtest --smoke` directly.
//!
//! [`FaultConfig::chaos`]: mcd_dvfs::FaultConfig::chaos
//!
//! [`EvalJob::batch`]: mcd_dvfs::service::EvalJob::batch

use mcd_bench::loadtest::{
    check_cache_integrity, cold_config, run_admission, run_chaos, run_grouped, run_serial,
    stream_jobs, ChaosReport, RunReport, DEFAULT_POINTS,
};
use mcd_dvfs::artifact::ArtifactCache;
use mcd_dvfs::error::McdError;
use mcd_dvfs::fault::InjectedPanic;
use mcd_dvfs::{FaultConfig, FaultSite};
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<usize>().ok())
    };
    let smoke = flag("--smoke");
    let points =
        value("--points")
            .filter(|&n| n > 0)
            .unwrap_or(if smoke { 3 } else { DEFAULT_POINTS });
    let procs = value("--procs").filter(|&n| n > 0).unwrap_or(2);
    let seed = value("--fault-seed")
        .map(|n| n as u64)
        .unwrap_or(DEFAULT_FAULT_SEED);

    if flag("--worker") {
        return match run_worker(points) {
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

    if flag("--chaos-only") {
        return match chaos_phase(points, seed) {
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
        };
    }

    match run_harness(points, procs, smoke, seed) {
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

fn run_harness(points: usize, procs: usize, smoke: bool, seed: u64) -> Result<bool, McdError> {
    let mut ok = true;

    // Phase 1: serial vs batched throughput on the identical stream.
    println!("phase 1: throughput (cold, cache disabled, {points} points/benchmark)");
    let config = cold_config();
    let serial = run_serial(&config, stream_jobs(points)?)?;
    print_run("serial", &serial);
    let batched = run_grouped(&config, stream_jobs(points)?)?;
    print_run("batched", &batched);
    let speedup = batched.throughput() / serial.throughput().max(1e-9);
    let digests_match = serial.digest == batched.digest;
    println!(
        "loadtest: speedup={speedup:.2}x digests={}",
        if digests_match { "match" } else { "MISMATCH" }
    );
    if !digests_match {
        println!("loadtest: FAIL — batched metrics are not bit-identical to serial metrics");
        ok = false;
    }

    // Phase 2: admission control under pressure.
    println!();
    println!("phase 2: admission (bounded front-end)");
    let capped = run_admission(&config, stream_jobs(points)?, Some(2), None)?;
    println!(
        "loadtest: admission capacity=2 completed={} rejected_queue_full={} \
         rejected_rate_limited={}",
        capped.completed, capped.rejected_queue_full, capped.rejected_rate_limited
    );
    let limited = run_admission(&config, stream_jobs(points)?, None, Some((4.0, 2.0)))?;
    println!(
        "loadtest: admission rate=4/s burst=2 completed={} rejected_queue_full={} \
         rejected_rate_limited={}",
        limited.completed, limited.rejected_queue_full, limited.rejected_rate_limited
    );
    for (label, outcome) in [("capacity", &capped), ("rate", &limited)] {
        if outcome.completed == 0 || outcome.rejected() == 0 {
            println!(
                "loadtest: FAIL — {label} phase must both admit and reject \
                 (completed={}, rejected={})",
                outcome.completed,
                outcome.rejected()
            );
            ok = false;
        }
    }

    // Phase 3: N cold processes on one cache directory — single writer.
    println!();
    let worker_points = if smoke { points } else { points.min(4) };
    println!("phase 3: shared cache ({procs} concurrent cold processes, {worker_points} points)");
    if !shared_cache_phase(worker_points, procs)? {
        ok = false;
    }

    // Phase 4: seeded fault injection against the self-healing machinery.
    println!();
    if !chaos_phase(points, seed)? {
        ok = false;
    }
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

/// Phase 4: the stream under a disabled plan (reference) and under
/// [`FaultConfig::chaos`] with `seed`, through identical evaluator + cache
/// machinery on fresh directories. See the module docs for the gates.
fn chaos_phase(points: usize, seed: u64) -> Result<bool, McdError> {
    println!("phase 4: chaos (seeded fault injection, seed={seed}, {points} points/benchmark)");
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
    if chaos.faults.injected_total() == 0 {
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
    let injected: Vec<String> = FaultSite::ALL
        .iter()
        .map(|&site| format!("{}={}", site.label(), report.faults.injected_at(site)))
        .collect();
    println!(
        "loadtest: {label:<10} jobs={} completed={} faulted={} wall_ms={:.0} \
         retries={} recovered={} exhausted={} injected[{}]",
        report.jobs,
        report.completed,
        report.faulted,
        report.wall.as_secs_f64() * 1e3,
        report.retry.retries,
        report.retry.recovered,
        report.retry.exhausted,
        injected.join(" "),
    );
}

fn print_run(mode: &str, report: &RunReport) {
    println!(
        "loadtest: {mode:<8} jobs={} wall_ms={:.0} throughput={:.2}/s \
         queue_ms p50={:.0} p95={:.0} p99={:.0} \
         completion_ms p50={:.0} p95={:.0} p99={:.0} digest={:016x}",
        report.jobs,
        report.wall.as_secs_f64() * 1e3,
        report.throughput(),
        report.queue.p50_ms,
        report.queue.p95_ms,
        report.queue.p99_ms,
        report.completion.p50_ms,
        report.completion.p95_ms,
        report.completion.p99_ms,
        report.digest,
    );
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
    let recorded: BTreeMap<String, _> = ArtifactCache::aggregated_kind_stats(&dir)
        .into_iter()
        .collect();
    let totals = ArtifactCache::aggregated_stats(&dir);

    let mut duplicates = 0u64;
    for (kind, count) in &files {
        let writes = recorded.get(kind).map(|s| s.writes).unwrap_or(0);
        let dup = writes.saturating_sub(*count);
        duplicates += dup;
        println!("loadtest: shared-cache kind={kind} files={count} writes={writes} dup={dup}");
    }
    println!(
        "loadtest: shared-cache procs={procs} duplicate_writes={duplicates} lock_waits={} \
         writes={}",
        totals.lock_waits, totals.writes
    );
    if files.is_empty() || totals.writes == 0 {
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
