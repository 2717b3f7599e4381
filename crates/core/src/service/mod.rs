//! The job-oriented evaluation service: build an [`Evaluator`] once, submit
//! [`EvalJob`]s, receive [`EvalEvent`]s as they happen.
//!
//! The paper's comparison is a batch of (benchmark × configuration × scheme)
//! runs. This module is the crate's one way to run them, a long-lived
//! service:
//!
//! * **Build once** ([`Evaluator::builder`]): machine model, analysis
//!   parameters, artifact cache and thread budget are fixed up front; a pool
//!   of worker threads behind a sharded, priority-classed work-stealing
//!   scheduler waits for jobs.
//! * **Submit jobs** ([`Evaluator::submit`], [`Evaluator::submit_all`]): an
//!   [`EvalJob`] is a benchmark plus overrides — slowdown target, context
//!   policy, on-line tuning, scheme subset — and a [`Priority`] class
//!   (`Interactive` / `Batch` / `Background`; per-class FIFO, starvation
//!   guarded). Submission never blocks on evaluation work. The
//!   capacity-checked twins ([`Evaluator::try_submit_all`],
//!   [`Evaluator::try_submit_batch`]) add admission control: a bounded queue
//!   and a token-bucket rate limiter turn overload into explicit
//!   [`Admission::Rejected`] outcomes instead of unbounded memory growth.
//! * **Share baselines**: the service memoizes reference traces and
//!   full-speed baselines per `(benchmark, machine)` fingerprint, so a sweep
//!   submitting many configurations of the same benchmarks computes each
//!   trace and baseline exactly once, across *different* configurations.
//!   [`Evaluator::memo_stats`] exposes the hit/miss counters.
//! * **One executor**: every submission runs as a batch — an
//!   [`Evaluator::submit_batch`] group is one, and each job of
//!   [`Evaluator::submit_all`] is a batch of one. A worker takes a whole
//!   batch, asks every member's schemes to
//!   [`prepare`](crate::scheme::DvfsScheme::prepare) their controllers
//!   (sharing capture and training work through the batch's
//!   [`Pools`](crate::scheme::Pools)), and replays the reference trace once
//!   per scheme with one lane per member
//!   ([`Simulator::run_lanes`](mcd_sim::simulator::Simulator::run_lanes)).
//!   [`Evaluator::batch_stats`] counts the groups, passes and lanes.
//! * **Stream results** ([`ResultStream`]): results arrive incrementally as
//!   events instead of all at once at the end.
//!
//! # Event lifecycle
//!
//! Per job, events always arrive in this order on the submission's stream:
//!
//! ```text
//! JobQueued ──▶ JobStarted ──▶ BaselineReady ──▶ SchemeFinished (0..n)
//!                                           ──▶ JobCompleted / JobFailed
//! JobRejected                    (exactly one terminal event per job)
//! ```
//!
//! * [`EvalEvent::JobQueued`] — sent at submission time, carrying the queue
//!   depth; a capacity-checked submission that is turned away sends a
//!   terminal [`EvalEvent::JobRejected`] instead.
//! * [`EvalEvent::JobStarted`] — a worker picked the job up; carries the
//!   queue latency (`queued_for`) and the depth left behind.
//! * [`EvalEvent::BaselineReady`] — the job's reference trace and baseline
//!   exist (`memo_hit` says whether another job already paid for them).
//! * [`EvalEvent::SchemeFinished`] — one per scheme in the job's registry, in
//!   registry order, each carrying the scheme's [`SchemeOutcome`]
//!   (see [`crate::scheme`]).
//! * [`EvalEvent::JobCompleted`] / [`EvalEvent::JobFailed`] — terminal; a
//!   completed job carries the full
//!   [`BenchmarkEvaluation`](crate::evaluation::BenchmarkEvaluation). A failed
//!   job never poisons the rest of its batch. A job rejected at
//!   registry-construction time (an unknown scheme name, or a slowdown
//!   target outside `[0, 1)` — [`McdError::InvalidConfig`](crate::McdError))
//!   fails straight from `JobStarted`, before any baseline work.
//!
//! Events of different jobs interleave arbitrarily; the stream ends after the
//! last job's terminal event. [`ResultStream::collect`] recovers the old
//! blocking `Vec<BenchmarkEvaluation>` shape (submission order, first error
//! wins), and [`ResultStream::collect_with`] does the same while letting the
//! caller observe every event on the way — progress reporting costs nothing
//! extra.
//!
//! # Example
//!
//! ```
//! use mcd_dvfs::service::{EvalJob, Evaluator};
//! use mcd_dvfs::scheme::names;
//!
//! let evaluator = Evaluator::builder().parallelism(2).build();
//! let bench = mcd_workloads::suite::benchmark("adpcm decode").expect("known");
//!
//! // A two-point slowdown sweep over one benchmark: the reference trace and
//! // baseline are computed once and shared across both jobs.
//! let stream = evaluator.submit_all(vec![
//!     EvalJob::new(bench.clone()).with_slowdown(0.04),
//!     EvalJob::new(bench).with_slowdown(0.10),
//! ]);
//! let evals = stream.collect().expect("both jobs succeed");
//! assert_eq!(evals.len(), 2);
//! assert_eq!(evaluator.memo_stats().misses, 1); // one baseline computed...
//! assert_eq!(evaluator.memo_stats().hits, 1); // ...and reused once
//! let sparing = evals[0].metrics(names::OFFLINE).expect("offline ran");
//! let aggressive = evals[1].metrics(names::OFFLINE).expect("offline ran");
//! assert!(aggressive.energy_savings >= sparing.energy_savings);
//! ```

mod evaluator;
mod job;
mod scheduler;
mod stream;

pub use evaluator::{
    Admission, AdmissionStats, BatchStats, Evaluator, EvaluatorBuilder, MemoStats, RejectReason,
};
pub use job::{EvalBatch, EvalJob, JobId};
pub use scheduler::{Priority, STARVATION_LIMIT};
pub use stream::{EvalEvent, ResultStream};
