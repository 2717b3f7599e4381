//! `perf_report` — the CI performance gate: five stages of the evaluation
//! service, timed on the process CPU clock and checked against a committed
//! report (`BENCH_*.json`).
//!
//! Each stage runs in a fresh child process (re-executing this binary with
//! `--child --stage X`), so every measurement is cold and per-stage peak RSS
//! is meaningful:
//!
//! * `fig4_quick`   — a complete cold `fig4 --quick` evaluation (baseline +
//!   off-line + on-line + profile on the six-benchmark subset, cache
//!   disabled),
//! * `sweep_point`  — one cold batched evaluation of a single slowdown point
//!   (off-line + profile, cache disabled),
//! * `sweep`        — the same evaluation over ten slowdown points as *one*
//!   batched job group: one capture/training pass, ten re-thresholded
//!   configuration lanes per trace pass,
//! * `load_serial`  — the mixed-tier load-test stream (three benchmarks ×
//!   thirty-two slowdown points, off-line + profile) submitted as 96
//!   independent jobs, with queue/completion latency percentiles and a
//!   bit-exact metrics digest,
//! * `load_batched` — the identical stream as three batched job groups (one
//!   per benchmark) — the high-throughput submission path.
//!
//! A child reports the CPU time (user + system, every thread) its stage
//! used, read from Linux `/proc/self/stat`. The parent runs each stage
//! `--iters` times (default 3), reports median CPU time and peak RSS, and
//! writes the JSON report (default `BENCH_9.json`, with a `host` fingerprint
//! — CPU model, core count, kernel — in the header). `--check <file>` exits
//! non-zero when the measured `fig4_quick`, `sweep` or `load_batched` median
//! exceeds the committed one by more than `--tolerance` (default 0.25, i.e.
//! 25%) or the committed report lacks it, when the ten-point sweep costs 4×
//! the one-point run or more, when batched load submission is less than 4×
//! cheaper than serial, or when any serial or batched load run reports a
//! different metrics digest. An unknown flag, a missing value, or a value
//! that does not parse (a non-positive `--iters`, a negative or non-finite
//! `--tolerance`) prints `error: …` and exits 1 before any stage runs.
//!
//! The `load_*` stages are the one home of the serial == batched digest
//! gate on the full stream. The layers inside these stages are timed by the
//! `perfbench/` benchmark; the shared cache's single-writer invariant and
//! the chaos gates are checked by `loadtest`.

use mcd_bench::cli::{parse_value, positive_count};
use mcd_bench::loadtest::{self, RunReport};
use mcd_dvfs::error::McdError;
use mcd_dvfs::evaluation::EvaluationConfig;
use mcd_dvfs::scheme::names;
use mcd_dvfs::service::{EvalJob, Evaluator};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};

/// Report schema version (bump on layout changes).
const SCHEMA: u32 = 5;

const STAGES: [&str; 5] = [
    "fig4_quick",
    "sweep_point",
    "sweep",
    "load_serial",
    "load_batched",
];

/// The stages whose medians `--check` holds to the committed report's.
const REGRESSION_GATED: [&str; 3] = ["fig4_quick", "sweep", "load_batched"];

/// The per-stage field holding the median CPU time, in milliseconds.
const MEDIAN_FIELD: &str = "median_cpu_ms";

/// The sweep stages' slowdown points: `SWEEP_POINTS` evenly spaced targets
/// (`sweep_point` times only the first).
const SWEEP_POINTS: usize = 10;

/// The sublinearity gate: the ten-point batched sweep must cost less than
/// this multiple of the one-point run.
const SWEEP_SCALING_LIMIT: f64 = 4.0;

/// The load-test gate: batched submission must be at least this many times
/// cheaper than serial submission of the identical stream.
const LOAD_SPEEDUP_FLOOR: f64 = 4.0;

/// Extra per-iteration fields the `load_*` stages report (medians land in
/// the stage's JSON object alongside the CPU/RSS numbers; the latencies and
/// throughput are wall-clock).
const LOAD_EXTRA_FIELDS: [&str; 7] = [
    "throughput_jps",
    "queue_p50_ms",
    "queue_p95_ms",
    "queue_p99_ms",
    "completion_p50_ms",
    "completion_p95_ms",
    "completion_p99_ms",
];

/// The parsed command line (see the module docs for each flag).
#[derive(Debug)]
struct Args {
    child: bool,
    stage: String,
    iters: usize,
    out: String,
    check: Option<String>,
    tolerance: f64,
}

impl Args {
    /// Parses the arguments after the program name, rejecting anything this
    /// binary does not take: a misspelt `--check` must not silently run an
    /// ungated report over the committed file.
    fn parse(args: &[String]) -> Result<Args, McdError> {
        let mut parsed = Args {
            child: false,
            stage: String::new(),
            iters: 3,
            out: "BENCH_9.json".to_string(),
            check: None,
            tolerance: 0.25,
        };
        let text = |flag: &str, value: Option<&String>, expected: &str| {
            parse_value::<String>(flag, value, expected, |_| true)
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--child" => parsed.child = true,
                "--stage" => parsed.stage = text(arg, iter.next(), "a stage")?,
                "--iters" => parsed.iters = positive_count(arg, iter.next())?,
                "--out" => parsed.out = text(arg, iter.next(), "a path")?,
                "--check" => parsed.check = Some(text(arg, iter.next(), "a path")?),
                "--tolerance" => {
                    parsed.tolerance = parse_value(
                        arg,
                        iter.next(),
                        "a finite non-negative fraction",
                        |t: &f64| t.is_finite() && *t >= 0.0,
                    )?
                }
                other => {
                    return Err(McdError::InvalidConfig(format!(
                        "unknown argument `{other}` (expected --iters N, --out PATH, \
                         --check PATH or --tolerance F)"
                    )))
                }
            }
        }
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
    if args.child {
        return run_child(&args.stage);
    }
    let Args {
        iters,
        out,
        check,
        tolerance,
        ..
    } = args;

    // Read the committed medians *before* measuring (the fresh report may
    // overwrite the same file).
    let mut committed = Vec::new();
    if let Some(path) = &check {
        let json = match std::fs::read_to_string(path) {
            Ok(json) => json,
            Err(err) => {
                eprintln!("perf_report: cannot read {path}: {err}");
                return ExitCode::FAILURE;
            }
        };
        for stage in REGRESSION_GATED {
            let Some(median) = json_stage_field(&json, stage, MEDIAN_FIELD) else {
                eprintln!("perf_report: {path} has no {stage} {MEDIAN_FIELD} to check against");
                return ExitCode::FAILURE;
            };
            committed.push((stage, median));
        }
    }

    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("perf_report: cannot locate own executable: {err}");
            return ExitCode::FAILURE;
        }
    };

    let mut stages_json = Vec::new();
    let mut medians: BTreeMap<&str, f64> = BTreeMap::new();
    let mut digests: Vec<String> = Vec::new();
    for stage in STAGES {
        let mut cpus = Vec::new();
        let mut rss = Vec::new();
        let mut lines = Vec::new();
        for iter in 0..iters {
            eprintln!("perf_report: {stage} iteration {}/{iters} ...", iter + 1);
            match run_stage_in_child(&exe, stage) {
                Ok((cpu_ms, rss_kb, line)) => {
                    cpus.push(cpu_ms);
                    rss.push(rss_kb);
                    lines.push(line);
                }
                Err(err) => {
                    eprintln!("perf_report: stage {stage} failed: {err}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let cpu_median = median(&mut cpus.clone());
        let rss_median = median(&mut rss.clone());
        medians.insert(stage, cpu_median);
        eprintln!(
            "perf_report: {stage:<13} median {:>9.1} CPU ms  peak-rss {:>8.0} KB",
            cpu_median, rss_median
        );
        // The load stages carry a metrics digest and latency percentiles.
        let mut extra = String::new();
        if stage.starts_with("load_") {
            let stage_digests: Vec<String> = lines
                .iter()
                .filter_map(|l| json_string(l, "digest"))
                .collect();
            if let Some(first) = stage_digests.first() {
                extra.push_str(&format!(",\n      \"digest\": \"{first}\""));
            }
            digests.extend(stage_digests);
            for field in LOAD_EXTRA_FIELDS {
                let mut values: Vec<f64> =
                    lines.iter().filter_map(|l| json_number(l, field)).collect();
                if !values.is_empty() {
                    extra.push_str(&format!(",\n      \"{field}\": {:.3}", median(&mut values)));
                }
            }
        }
        stages_json.push(format!(
            "    \"{stage}\": {{\n      \"{MEDIAN_FIELD}\": {cpu_median:.3},\n      \
             \"peak_rss_kb\": {rss_median:.0},\n      \"runs_cpu_ms\": [{}],\n      \
             \"runs_peak_rss_kb\": [{}]{extra}\n    }}",
            cpus.iter()
                .map(|c| format!("{c:.3}"))
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

    if check.is_none() {
        return ExitCode::SUCCESS;
    }
    let stage_median = |stage: &str| medians.get(stage).copied().unwrap_or(f64::NAN);
    for (stage, committed) in committed {
        let measured = stage_median(stage);
        let limit = committed * (1.0 + tolerance);
        if measured > limit {
            eprintln!(
                "perf_report: REGRESSION — {stage} median {measured:.1} CPU ms exceeds \
                 committed {committed:.1} ms by more than {:.0}% (limit {limit:.1} ms)",
                tolerance * 100.0
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "perf_report: {stage} median {measured:.1} CPU ms within {:.0}% of committed \
             {committed:.1} ms",
            tolerance * 100.0
        );
    }
    // The batched sweep's reason to exist: N points must stay well under N
    // independent runs. Gate the measured scaling directly.
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
    match digests.first() {
        Some(first) if digests.iter().all(|d| d == first) => {
            eprintln!("perf_report: load digests identical across serial/batched runs ({first})");
            ExitCode::SUCCESS
        }
        Some(_) => {
            eprintln!(
                "perf_report: REGRESSION — load stream digests differ across runs: \
                 batched metrics are not bit-identical to serial metrics"
            );
            ExitCode::FAILURE
        }
        None => {
            eprintln!("perf_report: REGRESSION — load stages reported no metrics digest");
            ExitCode::FAILURE
        }
    }
}

/// Runs one stage inside this (child) process and prints the measurement as a
/// single JSON line on stdout.
fn run_child(stage: &str) -> ExitCode {
    match stage {
        "fig4_quick" => run_fig4_quick(),
        "sweep_point" => run_sweep(1),
        "sweep" => run_sweep(SWEEP_POINTS),
        "load_serial" => run_load(loadtest::run_serial),
        "load_batched" => run_load(loadtest::run_grouped),
        other => {
            eprintln!("perf_report: unknown stage `{other}`");
            ExitCode::FAILURE
        }
    }
}

/// A cold fig4 --quick: disabled cache, all three schemes.
fn run_fig4_quick() -> ExitCode {
    let start = cpu_ms();
    let config = EvaluationConfig {
        parallelism: 1,
        ..EvaluationConfig::default()
    }
    .with_slowdown(mcd_bench::HEADLINE_SLOWDOWN);
    let evaluator = Evaluator::builder().config(config).workers(1).build();
    let jobs = mcd_bench::selected_suite(true)
        .into_iter()
        .map(EvalJob::new)
        .collect();
    match evaluator.submit_all(jobs).collect() {
        Ok(evals) => {
            black_box(evals);
        }
        Err(err) => {
            eprintln!("perf_report: fig4_quick evaluation failed: {err}");
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
    let start = cpu_ms();
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

/// The load-test stream (cold cache) through one of [`loadtest`]'s
/// submission paths, reporting the metrics digest and latency percentiles
/// alongside the timing.
fn run_load(
    submit: fn(&EvaluationConfig, Vec<EvalJob>) -> Result<RunReport, McdError>,
) -> ExitCode {
    let jobs = match loadtest::stream_jobs(loadtest::DEFAULT_POINTS) {
        Ok(jobs) => jobs,
        Err(err) => {
            eprintln!("perf_report: load stream unavailable: {err}");
            return ExitCode::FAILURE;
        }
    };
    let config = loadtest::cold_config();
    let start = cpu_ms();
    let report = match submit(&config, jobs) {
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

fn emit_measurement(start: Option<f64>, extra: &str) -> ExitCode {
    let (Some(start), Some(end)) = (start, cpu_ms()) else {
        eprintln!("perf_report: the process CPU clock (/proc/self/stat) is unreadable");
        return ExitCode::FAILURE;
    };
    let rss_kb = peak_rss_kb().unwrap_or(0.0);
    println!(
        "{{\"cpu_ms\": {:.3}, \"peak_rss_kb\": {rss_kb:.0}{extra}}}",
        end - start
    );
    let _ = std::io::stdout().flush();
    ExitCode::SUCCESS
}

/// CPU time this process has used so far (user + system, every thread), in
/// milliseconds: Linux `/proc/self/stat` fields 14 and 15, counted in 10 ms
/// clock ticks. `None` where procfs is unavailable.
fn cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The fields after the parenthesised command name (which may itself hold
    // spaces or parentheses) start at field 3.
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 10.0)
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
    let cpu = json_number(line, "cpu_ms").ok_or("missing cpu_ms")?;
    let rss = json_number(line, "peak_rss_kb").ok_or("missing peak_rss_kb")?;
    Ok((cpu, rss, line.to_string()))
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

/// Extraction of `stages.<stage>.<field>` from a committed report (stage
/// objects are flat, so the stage's object ends at its first `}`).
fn json_stage_field(json: &str, stage: &str, field: &str) -> Option<f64> {
    let object = &json[json.find(&format!("\"{stage}\""))?..];
    json_number(&object[..object.find('}')?], field)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_report_has_a_median_for_every_stage() {
        let committed = include_str!("../../../../BENCH_9.json");
        for stage in STAGES {
            assert!(
                json_stage_field(committed, stage, MEDIAN_FIELD).is_some(),
                "BENCH_9.json has no {MEDIAN_FIELD} for stage `{stage}`"
            );
        }
    }

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
    fn flags_parse_with_their_defaults() {
        let defaults = parse(&[]).unwrap();
        assert_eq!((defaults.iters, defaults.tolerance), (3, 0.25));
        assert_eq!(
            (defaults.out.as_str(), defaults.check),
            ("BENCH_9.json", None)
        );
        let gated = parse(&[
            "--iters",
            "1",
            "--check",
            "BENCH_9.json",
            "--out",
            "b.json",
            "--tolerance",
            "0.3",
        ])
        .unwrap();
        assert_eq!(gated.iters, 1);
        assert_eq!(gated.check.as_deref(), Some("BENCH_9.json"));
        assert_eq!((gated.out.as_str(), gated.tolerance), ("b.json", 0.3));
        let child = parse(&["--child", "--stage", "sweep"]).unwrap();
        assert!(child.child);
        assert_eq!(child.stage, "sweep");
    }

    #[test]
    fn unknown_missing_and_malformed_arguments_are_rejected() {
        // A misspelt `--check` must not run an ungated report over the
        // committed file.
        assert!(rejected(&["--chek", "BENCH_9.json"]).contains("`--chek`"));
        assert!(rejected(&["--check"]).contains("--check"));
        assert!(rejected(&["--out", "--check", "BENCH_9.json"]).contains("--out"));
        for iters in ["0", "-1", "x"] {
            assert!(rejected(&["--iters", iters]).contains(&format!("`{iters}`")));
        }
        for tolerance in ["0,3", "-0.1", "NaN", "inf"] {
            assert!(rejected(&["--tolerance", tolerance]).contains(&format!("`{tolerance}`")));
        }
        assert_eq!(parse(&["--tolerance", "0"]).unwrap().tolerance, 0.0);
    }
}
