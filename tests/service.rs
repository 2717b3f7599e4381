//! Integration tests for the job-oriented `Evaluator` service: shared
//! baselines across configurations, streaming delivery, parity across
//! worker counts and thread budgets, the thread-budget split, and failure
//! isolation.

use mcd_dvfs::artifact::{self, ArtifactCache};
use mcd_dvfs::error::McdError;
use mcd_dvfs::evaluation::{BenchmarkEvaluation, EvaluationConfig};
use mcd_dvfs::online::OnlineConfig;
use mcd_dvfs::pid::PidConfig;
use mcd_dvfs::scheme::names;
use mcd_dvfs::service::{EvalEvent, EvalJob, Evaluator, JobId};
use mcd_profiling::context::ContextPolicy;
use mcd_workloads::suite;
use mcd_workloads::suite::Benchmark;
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn benches(names: &[&str]) -> Vec<Benchmark> {
    names
        .iter()
        .map(|n| suite::benchmark(n).expect("known benchmark"))
        .collect()
}

fn assert_evaluations_bit_identical(a: &BenchmarkEvaluation, b: &BenchmarkEvaluation) {
    assert_eq!(a.name, b.name);
    assert_eq!(
        a.baseline.run_time.as_ns().to_bits(),
        b.baseline.run_time.as_ns().to_bits()
    );
    assert_eq!(a.schemes.len(), b.schemes.len());
    for (x, y) in a.schemes.iter().zip(&b.schemes) {
        assert_eq!(x.name, y.name);
        assert_eq!(
            x.result.stats.run_time.as_ns().to_bits(),
            y.result.stats.run_time.as_ns().to_bits(),
            "scheme {} diverged in run time",
            x.name
        );
        assert_eq!(
            x.result.stats.total_energy.as_units().to_bits(),
            y.result.stats.total_energy.as_units().to_bits(),
            "scheme {} diverged in energy",
            x.name
        );
        assert_eq!(x.result.metrics, y.result.metrics);
    }
}

/// The acceptance scenario: one `Evaluator` serving a fig10/11-style sweep —
/// several slowdown targets over the same benchmarks — computes each
/// `(benchmark, machine)` reference trace and baseline exactly once across
/// all submitted configurations, streams `SchemeFinished` events before the
/// last job completes, and `collect()` output is bit-identical to each sweep
/// point evaluated alone by a fresh one-worker evaluator (which hands the
/// whole thread budget to window analysis).
#[test]
fn sweep_shares_baselines_streams_and_matches_the_old_suite() {
    let suite_benches = benches(&["adpcm decode", "gsm decode"]);
    let targets = [0.04, 0.07, 0.14];
    let base = EvaluationConfig::default().with_parallelism(2);

    let evaluator = Evaluator::builder().config(base.clone()).build();
    // Submit the whole sweep up front: one batch per target, sharing the
    // service (and therefore the baseline memo).
    let batches: Vec<_> = targets
        .iter()
        .map(|&d| {
            let jobs = suite_benches
                .iter()
                .map(|b| EvalJob::new(b.clone()).with_slowdown(d))
                .collect();
            evaluator.submit_all(jobs)
        })
        .collect();

    let mut swept: Vec<Vec<BenchmarkEvaluation>> = Vec::new();
    let mut scheme_events_before_last_completion = 0usize;
    let mut completions_seen = 0usize;
    let total_jobs = targets.len() * suite_benches.len();
    for stream in batches {
        let evals = stream
            .collect_with(|event| match event {
                EvalEvent::SchemeFinished { .. } if completions_seen + 1 < total_jobs => {
                    scheme_events_before_last_completion += 1;
                }
                EvalEvent::JobCompleted { .. } => completions_seen += 1,
                _ => {}
            })
            .expect("sweep succeeds");
        swept.push(evals);
    }
    assert_eq!(completions_seen, total_jobs);
    assert!(
        scheme_events_before_last_completion >= total_jobs,
        "scheme results must stream before the sweep completes, saw {scheme_events_before_last_completion}"
    );

    // Exactly one baseline computation per (benchmark, machine) pair; every
    // other job hit the memo.
    let memo = evaluator.memo_stats();
    assert_eq!(memo.misses, suite_benches.len() as u64);
    assert_eq!(
        memo.hits,
        ((targets.len() - 1) * suite_benches.len()) as u64
    );

    // Parity: each sweep point is bit-identical to a fresh evaluator that
    // sees only that point.
    for (&d, evals) in targets.iter().zip(&swept) {
        let alone = Evaluator::builder()
            .config(base.clone().with_slowdown(d))
            .workers(1)
            .build()
            .submit_all(suite_benches.iter().cloned().map(EvalJob::new).collect())
            .collect()
            .expect("fresh evaluation succeeds");
        assert_eq!(alone.len(), evals.len());
        for (a, e) in alone.iter().zip(evals) {
            assert_evaluations_bit_identical(a, e);
        }
    }
}

/// Satellite requirement: two jobs with different slowdowns on the same
/// benchmark hit the baseline memo exactly once.
#[test]
fn different_slowdowns_on_one_benchmark_share_one_baseline() {
    let bench = suite::benchmark("adpcm decode").expect("known benchmark");
    let evaluator = Evaluator::builder().build();
    let stream = evaluator.submit_all(vec![
        EvalJob::new(bench.clone()).with_slowdown(0.04),
        EvalJob::new(bench).with_slowdown(0.10),
    ]);
    let evals = stream.collect().expect("both jobs succeed");
    assert_eq!(evals.len(), 2);
    let memo = evaluator.memo_stats();
    assert_eq!(memo.misses, 1, "one baseline computed");
    assert_eq!(memo.hits, 1, "the second job reused it");
    // The jobs really did run different configurations.
    assert_ne!(
        evals[0].require(names::OFFLINE).unwrap().stats.run_time,
        evals[1].require(names::OFFLINE).unwrap().stats.run_time
    );
    // Both jobs share the memoized baseline bit-for-bit.
    assert_eq!(
        evals[0].baseline.run_time.as_ns().to_bits(),
        evals[1].baseline.run_time.as_ns().to_bits()
    );

    // Releasing the memo keeps the counters but forces a recompute — the
    // memory-cap escape hatch for long-lived services.
    evaluator.clear_baselines();
    let again = evaluator
        .submit(EvalJob::new(suite::benchmark("adpcm decode").unwrap()).with_slowdown(0.04))
        .collect()
        .expect("job succeeds after clearing");
    assert_eq!(
        again[0].baseline.run_time.as_ns().to_bits(),
        evals[0].baseline.run_time.as_ns().to_bits(),
        "recomputed baseline is bit-identical"
    );
    let memo = evaluator.memo_stats();
    assert_eq!((memo.misses, memo.hits), (2, 1));
}

/// Each per-job override reaches exactly the schemes that read it: beside an
/// unmodified job, one job per override evaluates every scheme on one short
/// benchmark, and only the reading schemes' labels or statistics (compared
/// whole, through their `Debug` text) differ from the unmodified job's.
#[test]
fn each_override_changes_only_the_schemes_that_read_it() {
    let bench = suite::benchmark("adpcm decode").expect("known benchmark");
    let job = || EvalJob::new(bench.clone()).with_schemes(names::ALL);
    let jobs = vec![
        job(),
        job().with_online(OnlineConfig {
            decay_mhz: 20.0,
            ..OnlineConfig::default()
        }),
        job().with_pid(PidConfig {
            setpoint: 0.35,
            ..PidConfig::default()
        }),
        job().with_policy(ContextPolicy::Func),
        job().with_slowdown(0.14),
    ];
    let evals = Evaluator::builder()
        .build()
        .submit_batch(EvalJob::batch(jobs).expect("one benchmark"))
        .collect()
        .expect("every job succeeds");
    let (base, overridden) = evals.split_first().expect("five evaluations");
    let changed = |eval: &BenchmarkEvaluation| -> Vec<String> {
        assert_eq!(eval.schemes.len(), names::ALL.len());
        eval.schemes
            .iter()
            .zip(&base.schemes)
            .filter(|(o, b)| {
                (&o.label, format!("{:?}", o.result.stats))
                    != (&b.label, format!("{:?}", b.result.stats))
            })
            .map(|(o, _)| o.name.clone())
            .collect()
    };
    assert_eq!(changed(&overridden[0]), [names::ONLINE]);
    assert_eq!(changed(&overridden[1]), [names::PID]);
    assert_eq!(changed(&overridden[2]), [names::PROFILE]);
    let label = |eval: &BenchmarkEvaluation| eval.outcome(names::PROFILE).unwrap().label.clone();
    assert_eq!(
        (label(base), label(&overridden[2])),
        ("profile L+F".to_string(), "profile F".to_string())
    );
    let slowdown = changed(&overridden[3]);
    for name in [names::OFFLINE, names::PROFILE, names::LEARNED] {
        assert!(
            slowdown.iter().any(|n| n == name),
            "{name} ignored the slowdown"
        );
    }
    for name in [names::ONLINE, names::PID, names::SYSSCALE] {
        assert!(
            !slowdown.iter().any(|n| n == name),
            "{name} read the slowdown"
        );
    }
}

/// Per-job events arrive in lifecycle order, job ids are monotonically
/// assigned in submission order, and results stream per job: scheme results
/// of both jobs arrive before the last terminal event, and the first job
/// finishes before it.
#[test]
fn events_follow_the_documented_lifecycle() {
    let suite_benches = benches(&["adpcm decode", "adpcm encode"]);
    let evaluator = Evaluator::builder().parallelism(2).build();
    let stream = evaluator.submit_all(suite_benches.iter().cloned().map(EvalJob::new).collect());
    let ids = stream.jobs().to_vec();
    assert_eq!(ids.len(), 2);
    assert!(ids[0] < ids[1], "ids increase in submission order");

    // Every event's (job, lifecycle stage), in arrival order.
    let arrivals: Vec<(JobId, u8)> = stream
        .map(|event| {
            let stage = match &event {
                EvalEvent::JobQueued { .. } => 0,
                EvalEvent::JobStarted { .. } => 1,
                EvalEvent::BaselineReady { .. } => 2,
                EvalEvent::SchemeFinished { .. } => 3,
                EvalEvent::JobCompleted { .. } => 4,
                EvalEvent::JobFailed { .. } => panic!("no job should fail"),
                EvalEvent::JobRejected { .. } => panic!("no job should be rejected"),
            };
            (event.job(), stage)
        })
        .collect();
    let terminal = |&(_, stage): &(JobId, u8)| stage == 4;
    let first_terminal = arrivals.iter().position(terminal);
    let last_terminal = arrivals.iter().rposition(terminal);
    let (Some(first_terminal), Some(last_terminal)) = (first_terminal, last_terminal) else {
        panic!("no terminal event arrived");
    };
    let streamed_early: std::collections::HashSet<JobId> = arrivals[..last_terminal]
        .iter()
        .filter(|&&(_, s)| s == 3)
        .map(|&(job, _)| job)
        .collect();
    assert_eq!(
        streamed_early.len(),
        2,
        "scheme results of both jobs arrive before the last terminal event"
    );
    assert!(
        first_terminal < last_terminal,
        "the first job finishes while the batch is still running"
    );

    let mut per_job: std::collections::HashMap<JobId, Vec<u8>> = Default::default();
    for (job, stage) in arrivals {
        per_job.entry(job).or_default().push(stage);
    }
    for id in ids {
        let stages = per_job.get(&id).expect("every job emitted events");
        assert_eq!(stages.first(), Some(&0));
        assert_eq!(stages.get(1), Some(&1));
        assert_eq!(stages.get(2), Some(&2));
        assert_eq!(stages.last(), Some(&4));
        assert_eq!(stages.iter().filter(|&&s| s == 3).count(), 3);
        assert!(stages.windows(2).all(|w| w[0] <= w[1]));
    }
}

/// Events are delivered as they happen, not held until the batch ends: with
/// one worker, job B is held inside its reference-trace publication (the
/// test holds B's `packed-trace` lock), so B cannot finish, yet job A's
/// `JobCompleted` must arrive meanwhile; releasing the lock lets B finish.
#[test]
fn a_finished_job_is_delivered_while_a_later_job_is_blocked() {
    let dir = std::env::temp_dir().join(format!("mcd-lifecycle-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Arc::new(ArtifactCache::new(&dir));
    let evaluator = Evaluator::builder()
        .config(EvaluationConfig::default().with_cache(Arc::clone(&cache)))
        .workers(1)
        .build();
    let pair = benches(&["adpcm decode", "adpcm encode"]);
    let b = &pair[1];
    let guard = cache
        .lock_publication(&artifact::packed_trace_key(b.name, &b.inputs.reference))
        .expect("an enabled cache hands out publication locks");
    let jobs = pair
        .iter()
        .map(|bench| EvalJob::new(bench.clone()).with_schemes([names::ONLINE]));
    let stream = evaluator.submit_all(jobs.collect());
    let ids = stream.jobs().to_vec();
    let (tx, rx) = mpsc::channel();
    let drain = std::thread::spawn(move || stream.for_each(|event| drop(tx.send(event))));
    let completed = |id: JobId| loop {
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok(EvalEvent::JobCompleted { job, .. }) if job == id => return,
            Ok(event) => assert!(!event.is_terminal(), "unexpected terminal {event:?}"),
            Err(err) => panic!("job {id:?} did not complete: {err}"),
        }
    };
    completed(ids[0]);
    drop(guard);
    completed(ids[1]);
    drain.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failing job reports `JobFailed` without poisoning the rest of its batch;
/// `collect` surfaces the earliest-submitted failure.
#[test]
fn failed_jobs_do_not_poison_the_batch() {
    let bench = suite::benchmark("adpcm decode").expect("known benchmark");
    let evaluator = Evaluator::builder().build();
    // `global` without `offline` fails at run time (missing dependency).
    let stream = evaluator.submit_all(vec![
        EvalJob::new(bench.clone()).with_schemes([names::GLOBAL]),
        EvalJob::new(bench.clone()).with_schemes([names::ONLINE]),
    ]);
    let mut failed = Vec::new();
    let mut completed = Vec::new();
    let error = stream
        .collect_with(|event| match event {
            EvalEvent::JobFailed { job, .. } => failed.push(*job),
            EvalEvent::JobCompleted { job, .. } => completed.push(*job),
            _ => {}
        })
        .expect_err("the global-only job must fail");
    assert!(matches!(error, McdError::MissingDependency { .. }));
    assert_eq!(failed.len(), 1);
    assert_eq!(completed.len(), 1, "the healthy job still completed");

    // An unknown scheme name fails at registry-construction time.
    let stream = evaluator.submit(EvalJob::new(bench).with_schemes(["bogus"]));
    let error = stream.collect().expect_err("unknown scheme");
    assert!(matches!(error, McdError::UnknownScheme(name) if name == "bogus"));
}

/// The second workload tier flows through the service layer untouched: the
/// baseline memo keys `(benchmark, machine)` pairs exactly as for the paper
/// tier, the on-disk artifact cache round-trips server/interactive artifacts
/// (`misses == 0` on the warm run) with bit-identical results, and
/// `with_schemes` subsets work on server benchmarks.
#[test]
fn server_tier_flows_through_memo_and_artifact_cache() {
    use mcd_dvfs::artifact::ArtifactCache;
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("mcd-tier2-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let tier = benches(&["web serve", "sensor hub"]);
    assert!(
        tier.iter().all(|b| !b.suite.is_batch()),
        "both benchmarks are second tier"
    );

    let run = |cache: Arc<ArtifactCache>| {
        let evaluator = Evaluator::builder()
            .config(EvaluationConfig::default().with_cache(cache))
            .build();
        let jobs = tier.iter().cloned().map(EvalJob::new).collect();
        let evals = evaluator
            .submit_all(jobs)
            .collect()
            .expect("second tier evaluates");
        (evals, evaluator.memo_stats())
    };

    // Cold run: every artifact is computed and written.
    let cold_cache = Arc::new(ArtifactCache::new(&dir));
    let (cold, memo) = run(cold_cache.clone());
    assert_eq!(cold.len(), 2);
    assert_eq!(memo.misses, 2, "one baseline per (benchmark, machine) pair");
    let stats = cold_cache.stats();
    assert_eq!(stats.hits, 0);
    assert!(stats.misses > 0 && stats.writes > 0);
    assert_eq!(stats.errors, 0);

    // Warm run through a fresh cache handle at the same directory: nothing
    // recomputed, results bit-identical.
    let warm_cache = Arc::new(ArtifactCache::new(&dir));
    let (warm, _) = run(warm_cache.clone());
    let stats = warm_cache.stats();
    assert_eq!(stats.misses, 0, "warm run must serve everything from disk");
    assert!(stats.hits > 0);
    assert_eq!(stats.writes, 0);
    for (c, w) in cold.iter().zip(&warm) {
        assert_evaluations_bit_identical(c, w);
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Scheme subsets work on server benchmarks too.
    let evaluator = Evaluator::builder().build();
    let subset = evaluator
        .submit(
            EvalJob::named("web serve")
                .expect("tier-aware lookup")
                .with_schemes([names::ONLINE, names::PROFILE]),
        )
        .collect()
        .expect("subset job succeeds")
        .remove(0);
    assert_eq!(subset.schemes.len(), 2);
    assert!(subset.result(names::ONLINE).is_some());
    assert!(subset.result(names::PROFILE).is_some());
    assert!(subset.result(names::OFFLINE).is_none());
    // The subset's outcomes match the full run's bit for bit.
    let full = cold.iter().find(|e| e.name == "web serve").unwrap();
    for scheme in [names::ONLINE, names::PROFILE] {
        assert_eq!(
            subset
                .require(scheme)
                .unwrap()
                .stats
                .run_time
                .as_ns()
                .to_bits(),
            full.require(scheme)
                .unwrap()
                .stats
                .run_time
                .as_ns()
                .to_bits(),
            "{scheme} subset run diverged from the full registry run"
        );
    }
}

/// Incremental sweep reuse at the artifact level: a slowdown-only
/// configuration change must not recompute the expensive artifacts. The
/// packed trace and the capture/DAG/shaker histograms (window and training)
/// are keyed without the slowdown target, so a warm run at a *different*
/// slowdown serves all three kinds from disk (`misses == 0`) and pays only
/// for the cheap re-thresholding artifacts — and its results are still
/// bit-identical to a cold evaluation of the new configuration.
#[test]
fn slowdown_only_changes_reuse_capture_and_dag_artifacts() {
    use mcd_dvfs::artifact::ArtifactCache;
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("mcd-incr-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let bench = suite::benchmark("adpcm decode").expect("known benchmark");

    let run = |cache: Arc<ArtifactCache>, slowdown: f64| {
        let evaluator = Evaluator::builder()
            .config(EvaluationConfig::default().with_cache(cache))
            .build();
        evaluator
            .submit(EvalJob::new(bench.clone()).with_slowdown(slowdown))
            .collect()
            .expect("job evaluates")
            .remove(0)
    };

    // Cold run at the headline slowdown populates every artifact kind.
    let cold_cache = Arc::new(ArtifactCache::new(&dir));
    run(cold_cache.clone(), 0.07);
    assert!(cold_cache.stats().writes > 0);
    assert!(cold_cache.kind_stats("window-histograms").writes > 0);
    assert!(cold_cache.kind_stats("training-histograms").writes > 0);

    // Warm run at a different slowdown: the trace and both histogram kinds
    // are slowdown-independent and must come from disk untouched.
    let warm_cache = Arc::new(ArtifactCache::new(&dir));
    let warm = run(warm_cache.clone(), 0.04);
    for kind in ["packed-trace", "window-histograms", "training-histograms"] {
        let stats = warm_cache.kind_stats(kind);
        assert_eq!(
            stats.misses, 0,
            "{kind} is keyed without the slowdown and must be reused"
        );
        assert!(stats.hits > 0, "{kind} must actually be consulted");
    }
    // The thresholded outputs depend on the slowdown, so they re-derive (a
    // cache miss each) — from the reused histograms, not from a re-capture.
    assert!(warm_cache.kind_stats("offline-schedule").misses > 0);
    assert!(warm_cache.kind_stats("training-plan").misses > 0);

    // Reuse must not change results: bit-identical to an uncached cold
    // evaluation of the new slowdown.
    let _ = std::fs::remove_dir_all(&dir);
    let fresh = {
        let evaluator = Evaluator::builder().build();
        evaluator
            .submit(EvalJob::new(bench.clone()).with_slowdown(0.04))
            .collect()
            .expect("uncached job evaluates")
            .remove(0)
    };
    assert_evaluations_bit_identical(&warm, &fresh);
}

/// Graceful shutdown under load: dropping the evaluator with a backlog
/// closes the queue, waits out the (short) shutdown timeout, and fails every
/// still-queued job with a terminal `Shutdown` event — no job is left
/// hanging, and the in-flight job still completes.
#[test]
fn dropping_a_loaded_evaluator_fails_queued_jobs_with_terminal_events() {
    let bench = suite::benchmark("adpcm decode").expect("known benchmark");
    let evaluator = Evaluator::builder()
        .workers(1)
        .shutdown_timeout(std::time::Duration::from_millis(10))
        .build();
    let jobs: Vec<EvalJob> = (0..5)
        .map(|i| {
            EvalJob::new(bench.clone())
                .with_slowdown(0.02 + 0.01 * i as f64)
                .with_schemes([names::OFFLINE])
        })
        .collect();
    let stream = evaluator.submit_all(jobs);
    let ids = stream.jobs().to_vec();
    // Drop immediately: the worker is at most one job in; the timeout is far
    // shorter than a job, so the backlog must be aborted and failed.
    drop(evaluator);

    let mut completed = Vec::new();
    let mut shut_down = Vec::new();
    for event in stream {
        match event {
            EvalEvent::JobCompleted { job, .. } => completed.push(job),
            EvalEvent::JobFailed { job, error, .. } => {
                assert!(
                    matches!(error, McdError::Shutdown),
                    "queued jobs fail with the shutdown error, got: {error}"
                );
                shut_down.push(job);
            }
            _ => {}
        }
    }
    assert_eq!(
        completed.len() + shut_down.len(),
        ids.len(),
        "every job reaches a terminal event"
    );
    assert!(
        !shut_down.is_empty(),
        "a 10ms timeout cannot drain a 5-job backlog"
    );
    let mut all: Vec<JobId> = completed.iter().chain(&shut_down).copied().collect();
    all.sort();
    assert_eq!(all, ids, "terminal events cover exactly the submitted jobs");
}

/// The bounded front-end: a full queue and an exhausted rate budget reject
/// with explicit `JobRejected` terminal events and per-cause admission
/// counters, while `submit_all` (the unchecked path) never rejects.
#[test]
fn admission_control_accounts_for_queued_and_rejected_jobs() {
    use mcd_dvfs::service::{Admission, RejectReason};

    let bench = suite::benchmark("adpcm decode").expect("known benchmark");
    let job = |i: usize| {
        EvalJob::new(bench.clone())
            .with_slowdown(0.02 + 0.005 * i as f64)
            .with_schemes([names::OFFLINE])
    };

    // Queue capacity: a single worker stuck on the first job bounds how many
    // of the rest fit.
    let evaluator = Evaluator::builder().workers(1).queue_capacity(2).build();
    let (stream, admissions) = evaluator.try_submit_all((0..8).map(job).collect());
    assert_eq!(admissions.len(), 8);
    let queued = admissions.iter().filter(|a| a.is_queued()).count();
    let rejected = admissions.len() - queued;
    assert!(queued >= 2, "capacity admits at least the bounded backlog");
    assert!(rejected >= 1, "an 8-job burst must overflow a 2-slot queue");
    let mut rejected_events = 0;
    let mut completed = 0;
    let outcome = stream.collect_with(|event| match event {
        EvalEvent::JobRejected { reason, .. } => {
            assert!(matches!(reason, RejectReason::QueueFull { .. }));
            rejected_events += 1;
        }
        EvalEvent::JobCompleted { .. } => completed += 1,
        _ => {}
    });
    assert!(
        matches!(outcome, Err(McdError::Rejected(_))),
        "collect surfaces the rejection"
    );
    assert_eq!(
        rejected_events, rejected,
        "every rejection is a terminal event"
    );
    assert_eq!(completed, queued, "every accepted job completes");
    let stats = evaluator.admission_stats();
    assert_eq!(stats.accepted, queued as u64);
    assert_eq!(stats.rejected_queue_full, rejected as u64);
    assert_eq!(stats.rejected_rate_limited, 0);

    // Rate limiting: burst of 2 admits two instantly-submitted jobs, the
    // rest bounce with the rate-limited cause.
    let evaluator = Evaluator::builder()
        .workers(1)
        .rate_limit(0.001, 2.0)
        .build();
    let (stream, admissions) = evaluator.try_submit_all((0..6).map(job).collect());
    let queued: Vec<_> = admissions.iter().filter(|a| a.is_queued()).collect();
    assert_eq!(queued.len(), 2, "the burst budget admits exactly two");
    for admission in &admissions {
        if let Admission::Rejected { reason, .. } = admission {
            assert!(matches!(reason, RejectReason::RateLimited));
        }
    }
    let mut completed = 0;
    let outcome = stream.collect_with(|event| {
        if let EvalEvent::JobCompleted { .. } = event {
            completed += 1;
        }
    });
    assert!(matches!(outcome, Err(McdError::Rejected(_))));
    assert_eq!(completed, queued.len(), "every accepted job completes");
    let stats = evaluator.admission_stats();
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.rejected_rate_limited, 4);

    // The unchecked path is unaffected by the same limits: everything runs.
    let evaluator = Evaluator::builder()
        .workers(1)
        .queue_capacity(1)
        .rate_limit(0.001, 1.0)
        .build();
    let evals = evaluator
        .submit_all((0..3).map(job).collect())
        .collect()
        .expect("submit_all bypasses admission control");
    assert_eq!(evals.len(), 3);
    assert_eq!(evaluator.admission_stats().rejected(), 0);
}

/// The documented `parallelism / workers` budget split, observable on the
/// service: workers × window budget never exceeds the total, both floors are
/// one, and the builder does not clamp workers to the number of jobs.
#[test]
fn builder_budget_split_honours_the_documentation() {
    for (parallelism, workers, want_workers, want_window) in [
        (8, Some(2), 2, 4),
        (8, Some(3), 3, 2),
        (8, None, 8, 1),
        (1, Some(5), 1, 1),
        (0, None, 1, 1),
        (5, Some(0), 1, 5),
    ] {
        let mut builder = Evaluator::builder().parallelism(parallelism);
        if let Some(w) = workers {
            builder = builder.workers(w);
        }
        let evaluator = builder.build();
        assert_eq!(
            evaluator.workers(),
            want_workers,
            "workers for p={parallelism}"
        );
        assert_eq!(
            evaluator.window_parallelism(),
            want_window,
            "window budget for p={parallelism}"
        );
        assert!(evaluator.workers() * evaluator.window_parallelism() <= parallelism.max(1));
    }
}
