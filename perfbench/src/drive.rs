//! One repetition of a workload: submit every job at t=0 through the
//! workload's submission path and drain every stream, time-stamping event
//! arrivals from outside the evaluator.
//!
//! Time stamps are read from the process CPU clock ([`host::cpu_seconds`]):
//! an event's time is the CPU the process had used since the first
//! submission when the event arrived. Each stream is drained on its own
//! (otherwise idle) thread, so an event's arrival is when the worker sent
//! it, not when a sequential reader got round to it.

use crate::host;
use crate::workload::{evaluator, Submission};
use mcd_dvfs::error::McdError;
use mcd_dvfs::evaluation::{BenchmarkEvaluation, EvaluationConfig};
use mcd_dvfs::service::{BatchStats, EvalEvent, EvalJob, JobId, MemoStats, ResultStream};
use std::collections::HashMap;
use std::time::Instant;

/// What happened to one job, in canonical order.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// `JobCompleted`, with its evaluation.
    Completed(Box<BenchmarkEvaluation>),
    /// `JobFailed` or `JobRejected`, rendered.
    Failed(String),
}

/// One recorded event arrival (traced repetitions only).
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// Process CPU seconds since the first submission.
    pub at: f64,
    /// Index of the submission (stream) the event arrived on.
    pub group: usize,
    /// The job the event belongs to.
    pub job: JobId,
    /// What the event was.
    pub kind: EventKind,
}

/// The parts of an [`EvalEvent`] the trace keeps.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// `JobQueued`.
    Queued,
    /// `JobStarted`, with its queue wait in seconds.
    Started {
        /// Time the job waited in the queue.
        queued_for: f64,
    },
    /// `BaselineReady`.
    BaselineReady,
    /// `SchemeFinished` for the named scheme.
    SchemeFinished(String),
    /// `JobCompleted`, `JobFailed` or `JobRejected`.
    Terminal,
}

/// The result of one repetition. Times are process CPU seconds unless the
/// name says wall.
#[derive(Debug)]
pub struct Rep {
    /// First submission to the last terminal event.
    pub cpu: f64,
    /// The same span on the wall clock (reported, not gated).
    pub wall: f64,
    /// First submission to the first `JobCompleted`.
    pub first_result: Option<f64>,
    /// Per job, in canonical order: submission to terminal event.
    pub latencies: Vec<f64>,
    /// Per job, in canonical order.
    pub outcomes: Vec<JobOutcome>,
    /// Every event arrival, when the repetition was traced.
    pub events: Vec<EventRecord>,
    /// The evaluator's baseline-memo counters after the run.
    pub memo: MemoStats,
    /// The evaluator's batched-path counters after the run.
    pub batch: BatchStats,
    /// The evaluator's peak queue depth, in jobs.
    pub peak_queue_depth: usize,
}

impl Rep {
    /// The completed evaluations in canonical order (failed jobs skipped).
    pub fn evaluations(&self) -> Vec<BenchmarkEvaluation> {
        self.outcomes
            .iter()
            .filter_map(|o| match o {
                JobOutcome::Completed(eval) => Some((**eval).clone()),
                JobOutcome::Failed(_) => None,
            })
            .collect()
    }

    /// Jobs that failed or were rejected.
    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, JobOutcome::Failed(_)))
            .count()
    }
}

/// Per-stream drain result.
#[derive(Default)]
struct Drained {
    terminals: HashMap<JobId, (f64, JobOutcome)>,
    events: Vec<EventRecord>,
}

/// Runs one repetition of `jobs` on a new evaluator built from `config`,
/// submitted as `submission` says. `traced` keeps every event arrival.
pub fn run(
    jobs: Vec<EvalJob>,
    submission: Submission,
    config: EvaluationConfig,
    traced: bool,
) -> Result<Rep, McdError> {
    let count = jobs.len();
    let groups = submission.groups(jobs);
    let batches = match submission {
        Submission::All => None,
        _ => Some(
            groups
                .iter()
                .map(|g| EvalJob::batch(g.clone()))
                .collect::<Result<Vec<_>, _>>()?,
        ),
    };
    let evaluator = evaluator(config);

    let wall_start = Instant::now();
    let start = host::cpu_seconds();
    let streams: Vec<ResultStream> = match batches {
        None => groups
            .into_iter()
            .map(|g| evaluator.submit_all(g))
            .collect(),
        Some(batches) => batches
            .into_iter()
            .map(|b| evaluator.submit_batch(b))
            .collect(),
    };
    let order: Vec<JobId> = streams.iter().flat_map(|s| s.jobs().to_vec()).collect();
    let drained: Vec<Drained> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(group, stream)| scope.spawn(move || drain(stream, group, start, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream drain thread does not panic"))
            .collect()
    });
    let wall = wall_start.elapsed().as_secs_f64();

    let memo = evaluator.memo_stats();
    let batch = evaluator.batch_stats();
    let peak_queue_depth = evaluator.peak_queue_depth();
    drop(evaluator);

    let mut terminals = HashMap::with_capacity(count);
    let mut events = Vec::new();
    for d in drained {
        terminals.extend(d.terminals);
        events.extend(d.events);
    }
    events.sort_by(|a, b| a.at.total_cmp(&b.at));
    let mut latencies = Vec::with_capacity(count);
    let mut outcomes = Vec::with_capacity(count);
    for id in &order {
        let (at, outcome) = terminals
            .remove(id)
            .ok_or_else(|| McdError::Internal(format!("{id} ended without a terminal event")))?;
        latencies.push(at);
        outcomes.push(outcome);
    }
    let cpu = latencies.iter().copied().fold(0.0, f64::max);
    let first_result = order
        .iter()
        .zip(&latencies)
        .zip(&outcomes)
        .filter(|(_, o)| matches!(o, JobOutcome::Completed(_)))
        .map(|((_, at), _)| *at)
        .reduce(f64::min);
    Ok(Rep {
        cpu,
        wall,
        first_result,
        latencies,
        outcomes,
        events,
        memo,
        batch,
        peak_queue_depth,
    })
}

fn drain(stream: ResultStream, group: usize, start: f64, traced: bool) -> Drained {
    let mut out = Drained::default();
    for event in stream {
        let at = host::cpu_seconds() - start;
        let job = event.job();
        if traced {
            let kind = match &event {
                EvalEvent::JobQueued { .. } => EventKind::Queued,
                EvalEvent::JobStarted { queued_for, .. } => EventKind::Started {
                    queued_for: queued_for.as_secs_f64(),
                },
                EvalEvent::BaselineReady { .. } => EventKind::BaselineReady,
                EvalEvent::SchemeFinished { outcome, .. } => {
                    EventKind::SchemeFinished(outcome.name.clone())
                }
                _ => EventKind::Terminal,
            };
            out.events.push(EventRecord {
                at,
                group,
                job,
                kind,
            });
        }
        let outcome = match event {
            EvalEvent::JobCompleted { evaluation, .. } => {
                JobOutcome::Completed(Box::new(evaluation))
            }
            EvalEvent::JobFailed {
                benchmark, error, ..
            } => JobOutcome::Failed(format!("{benchmark}: {error}")),
            EvalEvent::JobRejected {
                benchmark, reason, ..
            } => JobOutcome::Failed(format!("{benchmark}: rejected: {reason}")),
            _ => continue,
        };
        out.terminals.insert(job, (at, outcome));
    }
    out
}
