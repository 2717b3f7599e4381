//! `perf_report` — the dependency-free macro-benchmark harness behind the
//! repository's tracked performance trajectory (`BENCH_*.json`).
//!
//! The harness times ten stages of the simulator's hot data path and the
//! evaluation service, each in a fresh child process (re-executing this
//! binary with `--child --stage X`) so per-stage peak RSS is meaningful and
//! every measurement is cold:
//!
//! * `trace_gen`     — packed trace generation for the quick suite,
//! * `baseline_sim`  — full-speed baseline simulation of those traces,
//! * `capture`       — the streaming windowed capture + shaker analysis
//!   (off-line pipeline stages 1–2),
//! * `fig4_quick`    — a complete cold `fig4 --quick` evaluation (baseline +
//!   off-line + on-line + profile on the six-benchmark subset, cache
//!   disabled),
//! * `sweep_point`   — one cold batched evaluation of a single slowdown
//!   point (off-line + profile, cache disabled),
//! * `sweep`         — the same evaluation over ten slowdown points as *one*
//!   batched job group: one capture/training pass, ten re-thresholded
//!   configuration lanes per trace pass,
//! * `load_serial`   — the mixed-tier load-test stream (three benchmarks ×
//!   thirty-two slowdown points, off-line + profile) submitted as 96
//!   independent jobs, with queue/completion latency percentiles and a
//!   bit-exact metrics digest,
//! * `load_batched`  — the identical stream as three batched job groups
//!   (one per benchmark) — the high-throughput submission path,
//! * `fault_off_overhead` — the `load_batched` workload with a *disabled*
//!   fault plan explicitly installed in the evaluator: the fault-injection
//!   hooks are runtime-gated, so this must price out within noise of
//!   `load_batched` itself (the hooks' disabled path is free),
//! * `shared_cache`  — two concurrent cold evaluator processes on one
//!   shared cache directory, reporting any duplicate artifact writes (the
//!   single-writer gate).
//!
//! The parent runs each stage `--iters` times (default 3), reports median
//! wall-clock and peak RSS, and writes the JSON report (default
//! `BENCH_8.json`, with a `host` fingerprint — CPU model, core count,
//! kernel — in the header; see the README's "Performance" section for the
//! schema). `--check <file>` compares the measured `fig4_quick`, `sweep`
//! and `load_batched` medians against a previously committed report and
//! exits non-zero on a regression beyond `--tolerance` (default 0.25, i.e.
//! 25%); it also asserts the sweep's sublinear scaling (ten batched points
//! under 4× the one-point cost), the load test's batched-over-serial
//! speedup (at least 4×), the serial/batched/fault-off digest equality
//! (bit-identical per-job metrics), the disabled fault hooks' overhead
//! ceiling, and zero duplicate writes in the shared-cache stage — the CI
//! bench smoke gates.

use mcd_bench::loadtest;
use mcd_dvfs::artifact::ArtifactCache;
use mcd_dvfs::evaluation::EvaluationConfig;
use mcd_dvfs::offline::OfflineConfig;
use mcd_dvfs::pipeline::AnalysisPipeline;
use mcd_dvfs::scheme::names;
use mcd_dvfs::service::{EvalJob, Evaluator};
use mcd_dvfs::FaultPlan;
use mcd_sim::config::MachineConfig;
use mcd_sim::simulator::{NullHooks, Simulator};
use mcd_sim::trace::PackedTrace;
use mcd_workloads::generator::generate_packed;
use mcd_workloads::suite::Benchmark;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Report schema version (bump on layout changes).
const SCHEMA: u32 = 4;

const STAGES: [&str; 10] = [
    "trace_gen",
    "baseline_sim",
    "capture",
    "fig4_quick",
    "sweep_point",
    "sweep",
    "load_serial",
    "load_batched",
    "fault_off_overhead",
    "shared_cache",
];

/// The sweep stages' slowdown points: `SWEEP_POINTS` evenly spaced targets
/// (`sweep_point` times only the first).
const SWEEP_POINTS: usize = 10;

/// The sublinearity gate: the ten-point batched sweep must cost less than
/// this multiple of the one-point run.
const SWEEP_SCALING_LIMIT: f64 = 4.0;

/// Slowdown points per benchmark in the `load_*` stages' stream.
const LOAD_POINTS: usize = 32;

/// Points per benchmark in the `shared_cache` stage's worker stream (small:
/// the stage measures locking, not lane throughput).
const SHARED_CACHE_POINTS: usize = 3;

/// Concurrent worker processes in the `shared_cache` stage.
const SHARED_CACHE_PROCS: usize = 2;

/// The load-test gate: batched submission must be at least this many times
/// faster than serial submission of the identical stream.
const LOAD_SPEEDUP_FLOOR: f64 = 4.0;

/// The fault-hook gate: the `load_batched` workload with a disabled fault
/// plan installed must cost at most this multiple of plain `load_batched`.
/// The hooks' disabled path is one relaxed boolean load, so anything beyond
/// run-to-run noise is a regression.
const FAULT_OFF_OVERHEAD_LIMIT: f64 = 1.15;

/// Extra per-iteration fields the `load_*` stages report (medians land in
/// the stage's JSON object alongside the wall/RSS numbers).
const LOAD_EXTRA_FIELDS: [&str; 7] = [
    "throughput_jps",
    "queue_p50_ms",
    "queue_p95_ms",
    "queue_p99_ms",
    "completion_p50_ms",
    "completion_p95_ms",
    "completion_p99_ms",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };

    if flag("--child") {
        let stage = value("--stage").unwrap_or_default();
        return run_child(&stage);
    }

    let iters: usize = value("--iters")
        .and_then(|v| v.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(3);
    let out = value("--out").unwrap_or_else(|| "BENCH_8.json".to_string());
    let check = value("--check");
    let tolerance: f64 = value("--tolerance")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.25);

    // Read the committed baselines *before* measuring (the fresh report may
    // overwrite the same file). A committed report predating a stage simply
    // skips that comparison.
    let (committed_fig4, committed_sweep, committed_load) = match &check {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(json) => (
                json_stage_field(&json, "fig4_quick", "median_wall_ms"),
                json_stage_field(&json, "sweep", "median_wall_ms"),
                json_stage_field(&json, "load_batched", "median_wall_ms"),
            ),
            Err(err) => {
                eprintln!("perf_report: cannot read {path}: {err}");
                return ExitCode::FAILURE;
            }
        },
        None => (None, None, None),
    };

    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("perf_report: cannot locate own executable: {err}");
            return ExitCode::FAILURE;
        }
    };

    let mut stages_json = Vec::new();
    let mut medians: BTreeMap<&str, f64> = BTreeMap::new();
    let mut digests: BTreeMap<&str, Vec<String>> = BTreeMap::new();
    let mut duplicate_writes = 0.0f64;
    for stage in STAGES {
        let mut walls = Vec::new();
        let mut rss = Vec::new();
        let mut lines = Vec::new();
        for iter in 0..iters {
            eprintln!("perf_report: {stage} iteration {}/{iters} ...", iter + 1);
            match run_stage_in_child(&exe, stage) {
                Ok((wall_ms, rss_kb, line)) => {
                    walls.push(wall_ms);
                    rss.push(rss_kb);
                    lines.push(line);
                }
                Err(err) => {
                    eprintln!("perf_report: stage {stage} failed: {err}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let wall_median = median(&mut walls.clone());
        let rss_median = median(&mut rss.clone());
        medians.insert(stage, wall_median);
        eprintln!(
            "perf_report: {stage:<13} median {:>9.1} ms  peak-rss {:>8.0} KB",
            wall_median, rss_median
        );
        // Stage-specific extras: the load stages carry a metrics digest and
        // latency percentiles, the shared-cache stage its duplicate-write
        // count.
        let mut extra = String::new();
        if stage == "load_serial" || stage == "load_batched" || stage == "fault_off_overhead" {
            let stage_digests: Vec<String> = lines
                .iter()
                .filter_map(|l| json_string(l, "digest"))
                .collect();
            if let Some(first) = stage_digests.first() {
                extra.push_str(&format!(",\n      \"digest\": \"{first}\""));
            }
            digests.insert(stage, stage_digests);
            for field in LOAD_EXTRA_FIELDS {
                let mut values: Vec<f64> =
                    lines.iter().filter_map(|l| json_number(l, field)).collect();
                if !values.is_empty() {
                    extra.push_str(&format!(",\n      \"{field}\": {:.3}", median(&mut values)));
                }
            }
        }
        if stage == "shared_cache" {
            let worst = lines
                .iter()
                .filter_map(|l| json_number(l, "duplicate_writes"))
                .fold(0.0f64, f64::max);
            duplicate_writes = worst;
            extra.push_str(&format!(",\n      \"duplicate_writes\": {worst:.0}"));
            let mut waits: Vec<f64> = lines
                .iter()
                .filter_map(|l| json_number(l, "lock_waits"))
                .collect();
            if !waits.is_empty() {
                extra.push_str(&format!(
                    ",\n      \"lock_waits\": {:.0}",
                    median(&mut waits)
                ));
            }
        }
        stages_json.push(format!(
            "    \"{stage}\": {{\n      \"median_wall_ms\": {wall_median:.3},\n      \
             \"peak_rss_kb\": {rss_median:.0},\n      \"runs_wall_ms\": [{}],\n      \
             \"runs_peak_rss_kb\": [{}]{extra}\n    }}",
            walls
                .iter()
                .map(|w| format!("{w:.3}"))
                .collect::<Vec<_>>()
                .join(", "),
            rss.iter()
                .map(|r| format!("{r:.0}"))
                .collect::<Vec<_>>()
                .join(", "),
        ));
    }

    let (cpu, cores, kernel) = host_fingerprint();
    let json = format!(
        "{{\n  \"schema\": {SCHEMA},\n  \"bench\": \"mcd perf_report\",\n  \"mode\": \"quick\",\n  \
         \"iterations\": {iters},\n  \"host\": {{\n    \"cpu\": \"{cpu}\",\n    \
         \"cores\": {cores},\n    \"kernel\": \"{kernel}\"\n  }},\n  \"stages\": {{\n{}\n  }}\n}}\n",
        stages_json.join(",\n")
    );
    if let Err(err) = std::fs::write(&out, &json) {
        eprintln!("perf_report: cannot write {out}: {err}");
        return ExitCode::FAILURE;
    }
    eprintln!("perf_report: wrote {out}");

    if let Some(path) = check {
        let stage_median = |stage: &str| medians.get(stage).copied().unwrap_or(f64::NAN);
        let gate = |stage: &str, measured: f64, committed: f64| -> bool {
            let limit = committed * (1.0 + tolerance);
            if measured > limit {
                eprintln!(
                    "perf_report: REGRESSION — {stage} median {measured:.1} ms exceeds \
                     committed {committed:.1} ms by more than {:.0}% (limit {limit:.1} ms)",
                    tolerance * 100.0
                );
                return false;
            }
            eprintln!(
                "perf_report: {stage} median {measured:.1} ms within {:.0}% of committed \
                 {committed:.1} ms",
                tolerance * 100.0
            );
            true
        };
        let Some(committed) = committed_fig4 else {
            eprintln!("perf_report: {path} has no fig4_quick median to check against");
            return ExitCode::FAILURE;
        };
        if !gate("fig4_quick", stage_median("fig4_quick"), committed) {
            return ExitCode::FAILURE;
        }
        match committed_sweep {
            Some(committed) => {
                if !gate("sweep", stage_median("sweep"), committed) {
                    return ExitCode::FAILURE;
                }
            }
            None => eprintln!("perf_report: {path} predates the sweep stage; skipping its gate"),
        }
        match committed_load {
            Some(committed) => {
                if !gate("load_batched", stage_median("load_batched"), committed) {
                    return ExitCode::FAILURE;
                }
            }
            None => {
                eprintln!("perf_report: {path} predates the load stages; skipping their gate")
            }
        }
        // The batched sweep's reason to exist: N points must stay well under
        // N independent runs. Gate the measured scaling directly.
        let scaling = stage_median("sweep") / stage_median("sweep_point");
        if !scaling.is_finite() || scaling > SWEEP_SCALING_LIMIT {
            eprintln!(
                "perf_report: REGRESSION — {SWEEP_POINTS}-point sweep costs {scaling:.2}x a \
                 single point (limit {SWEEP_SCALING_LIMIT:.1}x): batching has stopped paying off"
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "perf_report: sweep scaling {scaling:.2}x for {SWEEP_POINTS} points \
             (limit {SWEEP_SCALING_LIMIT:.1}x)"
        );
        // The load test's reason to exist: batched submission of the mixed
        // stream must beat serial submission by the floor, with bit-identical
        // per-job metrics.
        let speedup = stage_median("load_serial") / stage_median("load_batched");
        if !speedup.is_finite() || speedup < LOAD_SPEEDUP_FLOOR {
            eprintln!(
                "perf_report: REGRESSION — batched load stream is only {speedup:.2}x serial \
                 (floor {LOAD_SPEEDUP_FLOOR:.1}x): the batching fast path has degraded"
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "perf_report: load speedup {speedup:.2}x batched over serial \
             (floor {LOAD_SPEEDUP_FLOOR:.1}x)"
        );
        // The fault hooks' reason to be runtime-gated: with the plan
        // disabled, the batched stream must cost the same as without any
        // plan installed at all.
        let overhead = stage_median("fault_off_overhead") / stage_median("load_batched");
        if !overhead.is_finite() || overhead > FAULT_OFF_OVERHEAD_LIMIT {
            eprintln!(
                "perf_report: REGRESSION — disabled fault hooks cost {overhead:.2}x the \
                 plain batched stream (limit {FAULT_OFF_OVERHEAD_LIMIT:.2}x): the \
                 disabled path is no longer free"
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "perf_report: fault-off overhead {overhead:.2}x of load_batched \
             (limit {FAULT_OFF_OVERHEAD_LIMIT:.2}x)"
        );
        let all_digests: Vec<&String> = digests.values().flatten().collect();
        match all_digests.first() {
            Some(first) if all_digests.iter().all(|d| d == first) => {
                eprintln!(
                    "perf_report: load digests identical across serial/batched/fault-off \
                     runs ({first})"
                );
            }
            Some(_) => {
                eprintln!(
                    "perf_report: REGRESSION — load stream digests differ across runs: \
                     batched metrics are not bit-identical to serial metrics"
                );
                return ExitCode::FAILURE;
            }
            None => {
                eprintln!("perf_report: REGRESSION — load stages reported no metrics digest");
                return ExitCode::FAILURE;
            }
        }
        if duplicate_writes > 0.0 {
            eprintln!(
                "perf_report: REGRESSION — shared-cache stage recorded {duplicate_writes:.0} \
                 duplicate write(s): concurrent processes recomputed a published key"
            );
            return ExitCode::FAILURE;
        }
        eprintln!("perf_report: shared-cache single-writer holds (0 duplicate writes)");
    }
    ExitCode::SUCCESS
}

/// The quick six-benchmark subset every stage works on.
fn quick_suite() -> Vec<Benchmark> {
    mcd_bench::selected_suite(true)
}

fn quick_traces(benches: &[Benchmark]) -> Vec<PackedTrace> {
    benches
        .iter()
        .map(|b| generate_packed(&b.program, &b.inputs.reference))
        .collect()
}

/// Runs one stage inside this (child) process and prints the measurement as a
/// single JSON line on stdout.
fn run_child(stage: &str) -> ExitCode {
    let start = Instant::now();
    match stage {
        "trace_gen" => {
            black_box(quick_traces(&quick_suite()));
        }
        "baseline_sim" => {
            let benches = quick_suite();
            let traces = quick_traces(&benches);
            let machine = MachineConfig::default();
            let start = Instant::now(); // exclude generation from the timing
            for trace in &traces {
                let sim = Simulator::new(machine.clone());
                black_box(sim.run(trace.iter(), &mut NullHooks, false).stats);
            }
            return emit_measurement(start, "");
        }
        "capture" => {
            let benches = quick_suite();
            let traces = quick_traces(&benches);
            let machine = MachineConfig::default();
            let pipeline = AnalysisPipeline::new(OfflineConfig::default());
            let start = Instant::now(); // exclude generation from the timing
            for trace in &traces {
                black_box(pipeline.analyze(trace, &machine));
            }
            return emit_measurement(start, "");
        }
        "fig4_quick" => {
            // A cold fig4 --quick: disabled cache, all three schemes.
            let config = EvaluationConfig {
                parallelism: 1,
                ..EvaluationConfig::default()
            }
            .with_slowdown(mcd_bench::HEADLINE_SLOWDOWN);
            let evaluator = Evaluator::builder().config(config).workers(1).build();
            let jobs = quick_suite().into_iter().map(EvalJob::new).collect();
            match evaluator.submit_all(jobs).collect() {
                Ok(evals) => {
                    black_box(evals);
                }
                Err(err) => {
                    eprintln!("perf_report: fig4_quick evaluation failed: {err}");
                    return ExitCode::FAILURE;
                }
            }
        }
        "sweep" => return run_sweep(SWEEP_POINTS),
        "sweep_point" => return run_sweep(1),
        "load_serial" => return run_load(LoadMode::Serial),
        "load_batched" => return run_load(LoadMode::Batched),
        "fault_off_overhead" => return run_load(LoadMode::BatchedFaultOff),
        "shared_cache" => return run_shared_cache(),
        "shared_cache_worker" => return run_shared_cache_worker(),
        other => {
            eprintln!("perf_report: unknown stage `{other}`");
            return ExitCode::FAILURE;
        }
    }
    emit_measurement(start, "")
}

/// A cold batched slowdown sweep over one benchmark: `points` evenly spaced
/// targets submitted as one [`EvalJob::batch`] group (off-line + profile,
/// cache disabled). With one point this is the per-configuration unit cost
/// the `sweep` stage's sublinearity is measured against.
fn run_sweep(points: usize) -> ExitCode {
    let bench = match mcd_dvfs::error::find_benchmark("adpcm decode") {
        Ok(bench) => bench,
        Err(err) => {
            eprintln!("perf_report: sweep benchmark unavailable: {err}");
            return ExitCode::FAILURE;
        }
    };
    let config = EvaluationConfig {
        parallelism: 1,
        ..EvaluationConfig::default()
    };
    let evaluator = Evaluator::builder().config(config).workers(1).build();
    let jobs: Vec<EvalJob> = (0..points)
        .map(|i| {
            EvalJob::new(bench.clone())
                .with_slowdown(0.02 + 0.012 * i as f64)
                .with_schemes([names::OFFLINE, names::PROFILE])
        })
        .collect();
    let batch = EvalJob::batch(jobs).expect("one benchmark, at least one point");
    let start = Instant::now();
    match evaluator.submit_batch(batch).collect() {
        Ok(evals) => {
            black_box(evals);
        }
        Err(err) => {
            eprintln!("perf_report: sweep evaluation failed: {err}");
            return ExitCode::FAILURE;
        }
    }
    emit_measurement(start, "")
}

/// Which submission path a `load_*` stage exercises.
enum LoadMode {
    Serial,
    Batched,
    /// Batched with a disabled [`FaultPlan`] explicitly installed — the
    /// `fault_off_overhead` stage's subject.
    BatchedFaultOff,
}

/// The load-test stream (cold cache) under serial or batched submission,
/// reporting the metrics digest and latency percentiles alongside the
/// timing.
fn run_load(mode: LoadMode) -> ExitCode {
    let jobs = match loadtest::stream_jobs(LOAD_POINTS) {
        Ok(jobs) => jobs,
        Err(err) => {
            eprintln!("perf_report: load stream unavailable: {err}");
            return ExitCode::FAILURE;
        }
    };
    let config = loadtest::cold_config();
    let start = Instant::now();
    let report = match mode {
        LoadMode::Serial => loadtest::run_serial(&config, jobs),
        LoadMode::Batched => loadtest::run_grouped(&config, jobs),
        LoadMode::BatchedFaultOff => loadtest::run_grouped_with_faults(
            &config,
            jobs,
            std::sync::Arc::new(FaultPlan::disabled()),
        ),
    };
    let report = match report {
        Ok(report) => report,
        Err(err) => {
            eprintln!("perf_report: load stage failed: {err}");
            return ExitCode::FAILURE;
        }
    };
    let extra = format!(
        ", \"digest\": \"{:016x}\", \"throughput_jps\": {:.3}, \"queue_p50_ms\": {:.3}, \
         \"queue_p95_ms\": {:.3}, \"queue_p99_ms\": {:.3}, \"completion_p50_ms\": {:.3}, \
         \"completion_p95_ms\": {:.3}, \"completion_p99_ms\": {:.3}",
        report.digest,
        report.throughput(),
        report.queue.p50_ms,
        report.queue.p95_ms,
        report.queue.p99_ms,
        report.completion.p50_ms,
        report.completion.p95_ms,
        report.completion.p99_ms,
    );
    emit_measurement(start, &extra)
}

/// Two concurrent cold re-executions of this binary (`shared_cache_worker`)
/// on one fresh cache directory; reports the concurrent phase's wall time
/// plus the duplicate-write count the single-writer gate asserts on.
fn run_shared_cache() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("perf_report: cannot locate own executable: {err}");
            return ExitCode::FAILURE;
        }
    };
    let dir = std::env::temp_dir().join(format!("mcd-perf-shared-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let start = Instant::now();
    let mut children = Vec::new();
    for _ in 0..SHARED_CACHE_PROCS {
        match Command::new(&exe)
            .args(["--child", "--stage", "shared_cache_worker"])
            .env("MCD_CACHE_DIR", &dir)
            .env_remove("MCD_NO_CACHE")
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
        {
            Ok(child) => children.push(child),
            Err(err) => {
                eprintln!("perf_report: cannot spawn shared-cache worker: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    for mut child in children {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("perf_report: shared-cache worker exited with {status}");
                return ExitCode::FAILURE;
            }
            Err(err) => {
                eprintln!("perf_report: cannot wait for shared-cache worker: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Per kind, recorded writes beyond the distinct files on disk are
    // duplicate computations of a shared key.
    let cache = ArtifactCache::new(&dir);
    let mut files: BTreeMap<String, u64> = BTreeMap::new();
    for entry in cache.entries() {
        *files.entry(entry.kind).or_default() += 1;
    }
    let recorded: BTreeMap<String, _> = ArtifactCache::aggregated_kind_stats(&dir)
        .into_iter()
        .collect();
    let duplicates: u64 = files
        .iter()
        .map(|(kind, count)| {
            recorded
                .get(kind)
                .map(|s| s.writes)
                .unwrap_or(0)
                .saturating_sub(*count)
        })
        .sum();
    let lock_waits = ArtifactCache::aggregated_stats(&dir).lock_waits;
    let _ = std::fs::remove_dir_all(&dir);
    let extra = format!(", \"duplicate_writes\": {duplicates}, \"lock_waits\": {lock_waits}");
    emit_measurement(start, &extra)
}

/// One cold batched pass over a small load stream against the cache
/// directory `shared_cache` set up in the environment.
fn run_shared_cache_worker() -> ExitCode {
    let jobs = match loadtest::stream_jobs(SHARED_CACHE_POINTS) {
        Ok(jobs) => jobs,
        Err(err) => {
            eprintln!("perf_report: shared-cache stream unavailable: {err}");
            return ExitCode::FAILURE;
        }
    };
    let cache = std::sync::Arc::new(ArtifactCache::from_env());
    let config = loadtest::cold_config().with_cache(cache.clone());
    let start = Instant::now();
    if let Err(err) = loadtest::run_grouped(&config, jobs) {
        eprintln!("perf_report: shared-cache worker failed: {err}");
        return ExitCode::FAILURE;
    }
    cache.flush_stats_log();
    emit_measurement(start, "")
}

fn emit_measurement(start: Instant, extra: &str) -> ExitCode {
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let rss_kb = peak_rss_kb().unwrap_or(0.0);
    println!("{{\"wall_ms\": {wall_ms:.3}, \"peak_rss_kb\": {rss_kb:.0}{extra}}}");
    let _ = std::io::stdout().flush();
    ExitCode::SUCCESS
}

/// Peak resident set size of this process in KB (Linux `VmHWM`; `None` where
/// procfs is unavailable).
fn peak_rss_kb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// The machine this report was measured on: CPU model (Linux
/// `/proc/cpuinfo`), logical core count, and kernel release — enough to tell
/// two hosts' trajectories apart when comparing committed reports.
fn host_fingerprint() -> (String, usize, String) {
    let escape = |s: String| s.replace('\\', "\\\\").replace('"', "\\\"");
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .filter(|m| !m.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|v| v.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    (escape(cpu), cores, escape(kernel))
}

fn run_stage_in_child(exe: &std::path::Path, stage: &str) -> Result<(f64, f64, String), String> {
    let output = Command::new(exe)
        .args(["--child", "--stage", stage])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn failed: {e}"))?;
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.trim_start().starts_with('{'))
        .ok_or_else(|| "child produced no measurement".to_string())?;
    let wall = json_number(line, "wall_ms").ok_or("missing wall_ms")?;
    let rss = json_number(line, "peak_rss_kb").ok_or("missing peak_rss_kb")?;
    Ok((wall, rss, line.to_string()))
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    values[values.len() / 2]
}

/// Minimal extraction of `"field": <number>` from a flat JSON object line.
fn json_number(json: &str, field: &str) -> Option<f64> {
    let needle = format!("\"{field}\"");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Minimal extraction of `"field": "<string>"` from a flat JSON object line.
fn json_string(json: &str, field: &str) -> Option<String> {
    let needle = format!("\"{field}\"");
    let at = json.find(&needle)? + needle.len();
    let rest = json[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// Extraction of `stages.<stage>.<field>` from a committed report.
fn json_stage_field(json: &str, stage: &str, field: &str) -> Option<f64> {
    let at = json.find(&format!("\"{stage}\""))?;
    json_number(&json[at..], field)
}
