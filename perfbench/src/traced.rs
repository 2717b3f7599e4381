//! The traced run: per-layer metrics, the attribution table and the tracing
//! overhead.
//!
//! Spans come from the benchmark's own code, never from inside the program:
//! a traced repetition time-stamps every event arrival (queue wait, baseline,
//! each `SchemeFinished`), the layer probes ([`crate::probe`]) time each
//! layer's public call on the workload's inputs, and the lane-fusion
//! ablation times one sweep benchmark's jobs as one batch and as singles.
//!
//! Attribution: a layer's busy time is its probe spans (workloads, sim,
//! pipeline, profile, artifact) or, for the scheme layer, the event spans of
//! the controllers no probe replays (every scheme but off-line and profile,
//! whose work the probes cover). Their sum over the traced repetition's CPU
//! seconds is `trace.attributed_frac`; what it leaves unexplained — profile
//! replays, fused-lane savings, evaluator overhead — is what only spans
//! inside the program could attribute. Every span is process CPU time.

use crate::drive::{self, EventKind, Rep};
use crate::metrics::{median, Values};
use crate::probe::{probe_benchmark, LayerTotals};
use crate::workload::{sweep_jobs, Submission, Workload};
use crate::{rep_cache, repeat, set_up, Args, Checker, Tmp};
use mcd_bench::loadtest::metrics_digest;
use mcd_dvfs::artifact::ArtifactCache;
use mcd_dvfs::error::McdError;
use mcd_dvfs::scheme::names;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Runs the traced run and returns every per-layer metric.
pub(crate) fn run(
    args: &Args,
    tmp: &mut Tmp,
    checker: &mut Checker,
    report: &mut Vec<String>,
) -> Result<Values, McdError> {
    let workload = args.workload;
    let mode = workload.cache_mode();
    let setup = set_up(args, tmp, checker)?;

    // Untraced repetitions for half the budget: the overhead baseline.
    let untraced = repeat(args, &setup, tmp, checker, args.seconds / 2.0, 1)?;
    let untraced_cpu = median(&untraced.iter().map(|r| r.cpu).collect::<Vec<_>>());

    // The traced repetition, with the cache counters it moved.
    let (cache, scratch) = rep_cache(mode, &setup, tmp);
    let before = cache.stats();
    let config = workload.config().with_cache(Arc::clone(&cache));
    let rep = drive::run(setup.jobs.clone(), workload.submission(), config, true)?;
    checker.check("traced repetition", &rep);
    let after = cache.stats();
    let bytes: u64 = cache.entries().iter().map(|e| e.bytes).sum();
    drop(cache);
    if let Some(dir) = scratch {
        let _ = std::fs::remove_dir_all(dir);
    }

    // The layer probes, on the workload's cache mode.
    let mut totals = LayerTotals::default();
    let (probe_cache, probe_dir) = rep_cache(mode, &setup, tmp);
    let config = workload.config();
    let slowdowns = workload.slowdowns(args.size());
    for bench in workload.benchmarks(args.seed, args.size())? {
        probe_benchmark(&mut totals, &bench, &slowdowns, mode, &config, &probe_cache)?;
    }
    drop(probe_cache);
    if let Some(dir) = probe_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    let fusion_gain = fusion_ablation(args, tmp, checker)?;

    let spans = EventSpans::of(&rep, workload);
    let mut v = Values::new();
    v.insert("workloads.trace_gen_s", totals.trace_gen_s);
    v.insert("workloads.instructions", totals.generated as f64);
    v.insert(
        "workloads.minst_per_s",
        rate(totals.generated, totals.trace_gen_s),
    );
    v.insert("sim.baseline_s", totals.baseline_s);
    v.insert(
        "sim.minst_per_s",
        rate(totals.baseline_instructions, totals.baseline_s),
    );
    v.insert("sim.replay_lane_s", totals.replay_lane_s);
    v.insert("sim.lanes", totals.lanes as f64);
    v.insert("pipeline.analyze_s", totals.analyze_s);
    v.insert("pipeline.capture_s", totals.capture_s);
    v.insert("pipeline.dag_s", totals.dag_s);
    v.insert("pipeline.shaker_s", totals.shaker_s);
    v.insert("pipeline.threshold_s", totals.threshold_s);
    v.insert("pipeline.windows", totals.windows as f64);
    v.insert("pipeline.events", totals.events as f64);
    v.insert(
        "pipeline.peak_resident_events",
        totals.peak_resident_events as f64,
    );
    v.insert("profile.plan_s", totals.plan_s);
    v.insert("profile.train_s", totals.train_s);
    for (scheme, metric) in SCHEME_METRICS {
        v.insert(metric, spans.scheme.get(scheme).copied().unwrap_or(0.0));
    }
    v.insert("artifact.hits", (after.hits - before.hits) as f64);
    v.insert("artifact.misses", (after.misses - before.misses) as f64);
    v.insert("artifact.writes", (after.writes - before.writes) as f64);
    v.insert("artifact.errors", (after.errors - before.errors) as f64);
    v.insert(
        "artifact.lock_waits",
        (after.lock_waits - before.lock_waits) as f64,
    );
    v.insert("artifact.bytes", bytes as f64);
    v.insert("artifact.read_s", totals.read_s);
    v.insert("artifact.write_s", totals.write_s);
    v.insert(
        "service.queue_wait_p50_s",
        median_or_zero(&spans.queue_waits),
    );
    v.insert(
        "service.queue_wait_max_s",
        spans.queue_waits.iter().copied().fold(0.0, f64::max),
    );
    v.insert("service.baseline_ready_s", median_or_zero(&spans.baseline));
    v.insert("service.first_result_s", rep.first_result.unwrap_or(0.0));
    v.insert("service.memo_hits", rep.memo.hits as f64);
    v.insert("service.memo_misses", rep.memo.misses as f64);
    v.insert("service.passes", rep.batch.passes as f64);
    v.insert("service.lanes_per_pass", rep.batch.lanes_per_pass());
    v.insert("service.peak_queue_depth", rep.peak_queue_depth as f64);
    v.insert("service.fusion_gain", fusion_gain);

    // Attribution over the traced repetition's CPU seconds.
    let busy_s = rep.cpu;
    let controllers: f64 = spans
        .scheme
        .iter()
        .filter(|(name, _)| ![names::OFFLINE, names::PROFILE].contains(&name.as_str()))
        .map(|(_, s)| s)
        .fold(0.0, |a, b| a + b);
    let rows = [
        ("workloads", totals.trace_gen_s),
        ("sim", totals.baseline_s + totals.replay_lane_s),
        ("pipeline", totals.analyze_s),
        ("profile", totals.plan_s + totals.train_s),
        ("scheme", controllers),
        ("artifact", totals.read_s + totals.write_s),
    ];
    let attributed = rows.iter().fold(0.0, |a, (_, s)| a + s);
    v.insert("trace.attributed_frac", attributed / busy_s);
    v.insert("trace.overhead_frac", rep.cpu / untraced_cpu - 1.0);

    report.push(format!(
        "traced repetition: {:.4} CPU s ({:.4} s wall); untraced median {:.4} CPU s over {} \
         repetition(s)",
        rep.cpu,
        rep.wall,
        untraced_cpu,
        untraced.len()
    ));
    report.push(format!(
        "attribution: {:<10} {:>10} {:>9}",
        "layer", "CPU s", "% traced"
    ));
    let gap = ("gap", busy_s - attributed);
    for (layer, busy) in rows.into_iter().chain([gap]) {
        report.push(format!(
            "             {layer:<10} {busy:>10.4} {:>8.1}%",
            100.0 * busy / busy_s
        ));
    }
    report.push(format!(
        "  service queue wait (not busy): {:.4} s summed over {} job(s)",
        spans.queue_waits.iter().sum::<f64>(),
        spans.queue_waits.len()
    ));
    for decl in crate::metrics::PER_LAYER {
        report.push(format!(
            "  {:<32} {:>16.6} {}",
            decl.name, v[decl.name], decl.unit
        ));
    }
    Ok(v)
}

/// The scheme-layer metrics, by scheme name.
const SCHEME_METRICS: [(&str, &str); 7] = [
    (names::OFFLINE, "scheme.offline_s"),
    (names::ONLINE, "scheme.online_s"),
    (names::PROFILE, "scheme.profile_s"),
    (names::GLOBAL, "scheme.global_s"),
    (names::PID, "scheme.pid_s"),
    (names::SYSSCALE, "scheme.sysscale_s"),
    (names::LEARNED, "scheme.learned_s"),
];

/// Millions of instructions per second.
fn rate(instructions: u64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        instructions as f64 / seconds / 1e6
    } else {
        0.0
    }
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Spans derived from a traced repetition's event arrivals.
struct EventSpans {
    /// Per job: `JobStarted.queued_for`, the evaluator's own wall-clock
    /// figure (the one time here not read from the process CPU clock).
    queue_waits: Vec<f64>,
    /// Per execution unit: first `JobStarted` to last `BaselineReady`.
    baseline: Vec<f64>,
    /// Per scheme, summed over execution units: the span ending at the
    /// scheme's last `SchemeFinished`, starting where the previous scheme (or
    /// the baseline) ended.
    scheme: BTreeMap<String, f64>,
}

impl EventSpans {
    /// An execution unit is what one worker runs at a time: a job submitted
    /// through `submit_all`, or a whole `submit_batch` group.
    fn of(rep: &Rep, workload: Workload) -> EventSpans {
        let mut units: BTreeMap<u64, Vec<&drive::EventRecord>> = BTreeMap::new();
        let mut queue_waits = Vec::new();
        for event in &rep.events {
            if let EventKind::Started { queued_for } = event.kind {
                queue_waits.push(queued_for);
            }
            let unit = match workload.submission() {
                Submission::All => event.job.0,
                _ => event.group as u64,
            };
            units.entry(unit).or_default().push(event);
        }
        let mut baseline = Vec::new();
        let mut scheme: BTreeMap<String, f64> = BTreeMap::new();
        for events in units.values() {
            let last = |pred: &dyn Fn(&EventKind) -> bool| {
                events
                    .iter()
                    .filter(|e| pred(&e.kind))
                    .map(|e| e.at)
                    .reduce(f64::max)
            };
            let started = events
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Started { .. }))
                .map(|e| e.at)
                .reduce(f64::min);
            let Some(mut prev) = last(&|k| *k == EventKind::BaselineReady) else {
                continue;
            };
            if let Some(started) = started {
                baseline.push(prev - started);
            }
            for name in workload.schemes() {
                let finished = last(&|k| matches!(k, EventKind::SchemeFinished(s) if s == name));
                if let Some(end) = finished {
                    *scheme.entry(name.to_string()).or_default() += end - prev;
                    prev = end;
                }
            }
        }
        EventSpans {
            queue_waits,
            baseline,
            scheme,
        }
    }
}

/// The lane-fusion ablation: the first `sweep_batched` benchmark's jobs,
/// against a cache pre-warmed by one batched pass (so neither side pays for
/// capture or training), timed on one worker as one `submit_batch` group and
/// as `submit_all` singles. Returns singles ÷ batch CPU time; both sides
/// must produce the pre-warm pass's digest.
fn fusion_ablation(args: &Args, tmp: &mut Tmp, checker: &mut Checker) -> Result<f64, McdError> {
    let sweep = Workload::SweepBatched;
    let bench = sweep.benchmarks(args.seed, args.size())?.remove(0);
    let jobs = sweep_jobs(std::slice::from_ref(&bench), args.size().sweep_points);
    let dir = tmp.fresh_dir();
    let cache = Arc::new(ArtifactCache::new(&dir));
    let config = sweep
        .config()
        .with_parallelism(1)
        .with_cache(Arc::clone(&cache));
    let run = |submission| drive::run(jobs.clone(), submission, config.clone(), false);
    let warm = run(Submission::BatchPerBenchmark)?;
    let batch = run(Submission::BatchPerBenchmark)?;
    let singles = run(Submission::All)?;
    drop(cache);
    let _ = std::fs::remove_dir_all(dir);
    let expected = metrics_digest(&warm.evaluations());
    for (label, rep) in [
        ("pre-warm", &warm),
        ("batch", &batch),
        ("singles", &singles),
    ] {
        let digest = metrics_digest(&rep.evaluations());
        checker.attempted += rep.outcomes.len() as u64;
        if rep.failed() > 0 || digest != expected {
            checker.fail(
                rep.outcomes.len() as u64,
                format!("fusion ablation {label}: digest {digest:016x}, expected {expected:016x}"),
            );
        }
    }
    Ok(singles.cpu / batch.cpu)
}
