//! Streaming evaluation demo (and CI smoke test): submit three jobs to one
//! [`Evaluator`] and verify the results *stream* — every job's per-scheme
//! events arrive in lifecycle order, and scheme results are delivered
//! incrementally instead of all at once when the batch ends.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example streaming_eval
//! ```
//!
//! Exits non-zero if any streaming property is violated, so CI can run it as
//! an assertion.

use mcd_dvfs::error::{find_benchmark, run_main, McdError};
use mcd_dvfs::service::{EvalEvent, EvalJob, Evaluator, JobId};
use std::collections::HashMap;
use std::process::ExitCode;

fn ensure(condition: bool, what: &str) -> Result<(), McdError> {
    if condition {
        Ok(())
    } else {
        Err(McdError::Internal(format!("streaming violation: {what}")))
    }
}

fn run() -> Result<(), McdError> {
    let names = ["adpcm decode", "adpcm encode", "gsm decode"];
    let evaluator = Evaluator::builder().parallelism(2).build();
    let jobs = names
        .iter()
        .map(|&name| Ok(EvalJob::new(find_benchmark(name)?)))
        .collect::<Result<Vec<_>, McdError>>()?;
    let stream = evaluator.submit_all(jobs);
    let job_ids = stream.jobs().to_vec();

    // Drain the stream, logging every event as it arrives.
    let mut events: Vec<EvalEvent> = Vec::new();
    for event in stream {
        match &event {
            EvalEvent::JobQueued {
                job,
                benchmark,
                depth,
            } => {
                println!("{job}: queued        {benchmark} (depth {depth})");
            }
            EvalEvent::JobRejected { job, reason, .. } => {
                println!("{job}: REJECTED      {reason}");
            }
            EvalEvent::JobStarted {
                job, queued_for, ..
            } => {
                println!("{job}: started       after {queued_for:?} queued");
            }
            EvalEvent::BaselineReady { job, memo_hit, .. } => {
                println!("{job}: baseline      (memo hit: {memo_hit})");
            }
            EvalEvent::SchemeFinished { job, outcome, .. } => {
                println!(
                    "{job}: {:<12}  energy savings {:>5.1}%",
                    outcome.name,
                    outcome.result.metrics.energy_savings_percent()
                );
            }
            EvalEvent::JobCompleted { job, evaluation } => {
                println!("{job}: completed     {} schemes", evaluation.schemes.len());
            }
            EvalEvent::JobFailed { job, error, .. } => {
                println!("{job}: FAILED        {error}");
            }
        }
        events.push(event);
    }

    // Every job must walk the full lifecycle, in order.
    let mut lifecycle: HashMap<JobId, Vec<u8>> = HashMap::new();
    for event in &events {
        let stage = match event {
            EvalEvent::JobQueued { .. } => 0,
            EvalEvent::JobStarted { .. } => 1,
            EvalEvent::BaselineReady { .. } => 2,
            EvalEvent::SchemeFinished { .. } => 3,
            EvalEvent::JobCompleted { .. }
            | EvalEvent::JobFailed { .. }
            | EvalEvent::JobRejected { .. } => 4,
        };
        lifecycle.entry(event.job()).or_default().push(stage);
    }
    for &job in &job_ids {
        let stages = lifecycle
            .get(&job)
            .ok_or_else(|| McdError::Internal(format!("{job} emitted no events")))?;
        ensure(
            stages.first() == Some(&0),
            "lifecycle starts with JobQueued",
        )?;
        ensure(stages.get(1) == Some(&1), "JobStarted follows JobQueued")?;
        ensure(
            stages.get(2) == Some(&2),
            "BaselineReady follows JobStarted",
        )?;
        ensure(
            stages.last() == Some(&4),
            "lifecycle ends with a terminal event",
        )?;
        let schemes = stages.iter().filter(|&&s| s == 3).count();
        ensure(schemes == 3, "one SchemeFinished per standard scheme")?;
        ensure(
            stages.windows(2).all(|w| w[0] <= w[1]),
            "per-job events are ordered",
        )?;
    }

    // The batch must stream: per-job results arrive before the batch is done.
    // Scheme results from more than one job must precede the last terminal
    // event, and the first completed job must not be the last event.
    let last_terminal = events
        .iter()
        .rposition(EvalEvent::is_terminal)
        .expect("terminal events exist");
    let jobs_streaming_early: std::collections::HashSet<JobId> = events[..last_terminal]
        .iter()
        .filter(|e| matches!(e, EvalEvent::SchemeFinished { .. }))
        .map(EvalEvent::job)
        .collect();
    ensure(
        jobs_streaming_early.len() >= 2,
        "scheme results of at least two jobs arrive before the batch completes",
    )?;
    let first_terminal = events
        .iter()
        .position(EvalEvent::is_terminal)
        .expect("terminal events exist");
    ensure(
        first_terminal < last_terminal,
        "the first job finishes while the batch is still running",
    )?;
    ensure(
        events
            .iter()
            .all(|e| !matches!(e, EvalEvent::JobFailed { .. })),
        "no job failed",
    )?;

    let batch = evaluator.batch_stats();
    println!();
    println!(
        "ok: {} events from {} jobs streamed per-job; baselines computed {}, reused {}",
        events.len(),
        job_ids.len(),
        batch.baselines_computed,
        batch.baselines_reused
    );
    Ok(())
}

fn main() -> ExitCode {
    run_main(run)
}
