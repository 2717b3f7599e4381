//! Events and the stream they arrive on.

use crate::error::McdError;
use crate::evaluation::BenchmarkEvaluation;
use crate::scheme::SchemeOutcome;
use crate::service::evaluator::RejectReason;
use crate::service::job::JobId;
use std::collections::HashMap;
use std::sync::mpsc;
use std::time::Duration;

/// One step in a job's lifecycle, delivered over a [`ResultStream`].
///
/// Per job the order is always `JobQueued` → `JobStarted` → `BaselineReady`
/// → zero or more `SchemeFinished` → exactly one of `JobCompleted` /
/// `JobFailed` (a job whose scheme selection is invalid — e.g. an unknown
/// scheme name — or whose scheme fails to prepare before the group's simulation
/// pass fails fast, jumping from `JobStarted` straight to `JobFailed`). A
/// job turned away by admission control emits a single terminal
/// `JobRejected` instead. A job's group replays the reference trace once
/// for all of its members' schemes, so `BaselineReady` and the
/// `SchemeFinished` events of that pass arrive together after it, still in
/// [`SCHEMES`](crate::scheme::SCHEMES) order; a scheme prepared after the pass (global DVS) follows.
/// Events of *different* jobs interleave arbitrarily — that interleaving is
/// the point: a caller watching the stream sees each job's results as soon
/// as its group's pass is done instead of waiting for the whole
/// submission.
///
/// `JobQueued` and `JobStarted` double as the service's saturation gauges:
/// they carry the queue depth (in jobs) at enqueue and dequeue time, and
/// `JobStarted` carries how long the job waited in the queue.
#[derive(Debug, Clone)]
pub enum EvalEvent {
    /// The job was accepted and enqueued for a worker.
    JobQueued {
        /// The job's identity.
        job: JobId,
        /// Benchmark name, for display.
        benchmark: String,
        /// Queue depth in jobs just after this job was enqueued.
        depth: usize,
    },
    /// The submission was turned away by admission control (bounded queue or
    /// rate limiter). Terminal: no further events follow for this job, and
    /// nothing was evaluated.
    JobRejected {
        /// The job's identity.
        job: JobId,
        /// Benchmark name, for display.
        benchmark: String,
        /// Why the job was rejected.
        reason: RejectReason,
    },
    /// A worker picked the job up from the queue.
    JobStarted {
        /// The job's identity.
        job: JobId,
        /// Benchmark name, for display.
        benchmark: String,
        /// Time the job spent queued (submission to worker pickup) — the
        /// stream's queue-latency gauge.
        queued_for: Duration,
        /// Queue depth in jobs just after this job was dequeued.
        depth: usize,
    },
    /// The job's full-speed baseline is available: sent after the group's
    /// simulation pass, right before the job's first `SchemeFinished`.
    BaselineReady {
        /// The job's identity.
        job: JobId,
        /// Benchmark name, for display.
        benchmark: String,
        /// True when the job did not pay for the baseline: it came out of
        /// the evaluator's memo (another job on the same benchmark and
        /// machine already computed it), or an earlier member of the job's
        /// batch computed it in the shared pass.
        memo_hit: bool,
    },
    /// One of the job's schemes finished.
    SchemeFinished {
        /// The job's identity.
        job: JobId,
        /// Benchmark name, for display.
        benchmark: String,
        /// The scheme's tagged result.
        outcome: SchemeOutcome,
    },
    /// Every scheme finished; the job's full evaluation is attached.
    JobCompleted {
        /// The job's identity.
        job: JobId,
        /// The complete evaluation (baseline plus one outcome per scheme).
        evaluation: BenchmarkEvaluation,
    },
    /// The job stopped on an error. No further events follow for this job;
    /// other jobs in the batch are unaffected.
    JobFailed {
        /// The job's identity.
        job: JobId,
        /// Benchmark name, for display.
        benchmark: String,
        /// What went wrong.
        error: McdError,
    },
}

impl EvalEvent {
    /// The job this event belongs to.
    pub fn job(&self) -> JobId {
        match self {
            EvalEvent::JobQueued { job, .. }
            | EvalEvent::JobRejected { job, .. }
            | EvalEvent::JobStarted { job, .. }
            | EvalEvent::BaselineReady { job, .. }
            | EvalEvent::SchemeFinished { job, .. }
            | EvalEvent::JobCompleted { job, .. }
            | EvalEvent::JobFailed { job, .. } => *job,
        }
    }

    /// True for the terminal events (`JobCompleted` / `JobFailed` /
    /// `JobRejected`) — no further events follow for the job.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            EvalEvent::JobCompleted { .. }
                | EvalEvent::JobFailed { .. }
                | EvalEvent::JobRejected { .. }
        )
    }
}

/// The receiving end of one submission's event stream.
///
/// Iterate it to observe [`EvalEvent`]s as the workers produce them; the
/// stream ends (yields `None`) once every job of the submission has reached a
/// terminal event. [`collect`](ResultStream::collect) recovers the classic
/// blocking shape: the evaluations in submission order, or the first error.
#[derive(Debug)]
pub struct ResultStream {
    pub(crate) receiver: mpsc::Receiver<EvalEvent>,
    pub(crate) jobs: Vec<JobId>,
}

impl ResultStream {
    /// The ids of the jobs this stream covers, in submission order.
    pub fn jobs(&self) -> &[JobId] {
        &self.jobs
    }

    /// Drains the stream, passing every event to `observer`, and returns the
    /// completed evaluations in submission order. If any job failed, the
    /// error of the earliest-submitted failed job is returned instead (the
    /// same error a serial loop over the jobs would have stopped on).
    pub fn collect_with(
        self,
        mut observer: impl FnMut(&EvalEvent),
    ) -> Result<Vec<BenchmarkEvaluation>, McdError> {
        let order = self.jobs.clone();
        let mut completed: HashMap<JobId, BenchmarkEvaluation> = HashMap::new();
        let mut failed: Vec<(JobId, McdError)> = Vec::new();
        for event in self {
            observer(&event);
            match event {
                EvalEvent::JobCompleted { job, evaluation } => {
                    completed.insert(job, evaluation);
                }
                EvalEvent::JobFailed { job, error, .. } => failed.push((job, error)),
                EvalEvent::JobRejected { job, reason, .. } => {
                    failed.push((job, McdError::Rejected(reason.to_string())));
                }
                _ => {}
            }
        }
        if let Some((_, error)) = failed.into_iter().min_by_key(|(job, _)| *job) {
            return Err(error);
        }
        order
            .into_iter()
            .map(|job| {
                completed.remove(&job).ok_or_else(|| {
                    McdError::Internal(format!("{job} ended without a terminal event"))
                })
            })
            .collect()
    }

    /// Blocks until every job finished and returns the evaluations in
    /// submission order — the blocking `Vec<BenchmarkEvaluation>` shape,
    /// recovered from the event stream.
    pub fn collect(self) -> Result<Vec<BenchmarkEvaluation>, McdError> {
        self.collect_with(|_| {})
    }
}

impl Iterator for ResultStream {
    type Item = EvalEvent;

    /// Blocks for the next event; `None` once every sender is gone (all jobs
    /// of this submission reached a terminal event).
    fn next(&mut self) -> Option<EvalEvent> {
        self.receiver.recv().ok()
    }
}
