//! Streaming evaluation demo: submit three jobs to one [`Evaluator`] and
//! print every event as it arrives — each job's lifecycle (queued, started,
//! baseline, one result per scheme, completed), with scheme results
//! delivered incrementally instead of all at once when the batch ends. The
//! lifecycle order is asserted by
//! `tests/service.rs::events_follow_the_documented_lifecycle`.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example streaming_eval
//! ```

use mcd_dvfs::error::{find_benchmark, run_main, McdError};
use mcd_dvfs::service::{EvalEvent, EvalJob, Evaluator};
use std::process::ExitCode;

fn run() -> Result<(), McdError> {
    let names = ["adpcm decode", "adpcm encode", "gsm decode"];
    let evaluator = Evaluator::builder().parallelism(2).build();
    let jobs = names
        .iter()
        .map(|&name| Ok(EvalJob::new(find_benchmark(name)?)))
        .collect::<Result<Vec<_>, McdError>>()?;

    // Drain the stream, printing every event as it arrives. A failed job
    // ends the demo with its error.
    let mut events = 0;
    let evaluations = evaluator.submit_all(jobs).collect_with(|event| {
        events += 1;
        match event {
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
    })?;

    let batch = evaluator.batch_stats();
    println!();
    println!(
        "{} events from {} jobs; baselines computed {}, reused {}",
        events,
        evaluations.len(),
        batch.baselines_computed,
        batch.baselines_reused
    );
    Ok(())
}

fn main() -> ExitCode {
    run_main(run)
}
