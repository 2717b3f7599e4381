//! The job-oriented evaluation service: build an [`Evaluator`] once, submit
//! [`EvalJob`]s, receive [`EvalEvent`]s as they happen.
//!
//! The paper's comparison is a batch of (benchmark × configuration × scheme)
//! runs. This module is the crate's one way to run them, a long-lived
//! service:
//!
//! * **Build once** ([`Evaluator::builder`]): machine model, analysis
//!   parameters, artifact cache and thread budget are fixed up front; a pool
//!   of worker threads shares one priority-classed queue and waits for jobs.
//! * **Submit jobs** ([`Evaluator::submit`], [`Evaluator::submit_all`]): an
//!   [`EvalJob`] is a benchmark plus overrides — slowdown target, context
//!   policy, on-line tuning, scheme subset — and a [`Priority`] class
//!   (`Interactive` / `Batch` / `Background`; per-class FIFO across all
//!   workers, starvation guarded). Submission never blocks on evaluation
//!   work. The capacity-checked twin [`Evaluator::try_submit_all`] adds
//!   admission control: a bounded queue and a token-bucket rate limiter turn
//!   overload into explicit [`Admission::Rejected`] outcomes instead of
//!   unbounded memory growth.
//! * **Share baselines**: the service memoizes reference traces and
//!   full-speed baselines per `(benchmark, machine)` fingerprint, so a sweep
//!   submitting many configurations of the same benchmarks produces each
//!   trace exactly once and, jobs on one pair running one after another,
//!   each baseline once, across *different* configurations (two groups
//!   that run concurrently before the baseline is stored may both compute
//!   it, bit-identically). [`Evaluator::memo_stats`] exposes the hit/miss
//!   counters.
//! * **One executor, one pass**: every submission runs as a batch — an
//!   [`Evaluator::submit_batch`] group is one, and each job of
//!   [`Evaluator::submit_all`] is a batch of one. A worker takes a whole
//!   batch, asks every member's schemes to
//!   [`prepare`](crate::scheme::DvfsScheme::prepare) their controllers
//!   (sharing capture and training work through the batch's
//!   [`Pools`](crate::scheme::Pools)), and replays the reference trace
//!   *once* for the whole group: one lane per member per scheme, plus the
//!   full-speed baseline as one more lane when the memo has none
//!   ([`Simulator::run_lanes`](mcd_sim::simulator::Simulator::run_lanes)).
//!   A scheme that reads earlier outcomes (global DVS) is prepared after
//!   that pass. [`Evaluator::batch_stats`] counts the groups, passes and
//!   lanes.
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
//! * [`EvalEvent::BaselineReady`] — the job's baseline exists: sent after
//!   the group's simulation pass, which computes it as a lane unless the
//!   memo already held it (`memo_hit` says whether another job paid for it).
//! * [`EvalEvent::SchemeFinished`] — one per scheme in the job's registry, in
//!   registry order, each carrying the scheme's
//!   [`SchemeOutcome`](crate::scheme::SchemeOutcome). The schemes replayed
//!   in the group's pass finish together: their events arrive in a burst
//!   right after `BaselineReady`; a scheme that reads earlier outcomes
//!   (global DVS) follows once it has run.
//! * [`EvalEvent::JobCompleted`] / [`EvalEvent::JobFailed`] — terminal; a
//!   completed job carries the full
//!   [`BenchmarkEvaluation`](crate::evaluation::BenchmarkEvaluation). A failed
//!   job never poisons the rest of its batch. A job rejected at
//!   registry-construction time (an unknown scheme name, or a slowdown
//!   target outside `[0, 1)` — [`McdError::InvalidConfig`](crate::McdError))
//!   fails straight from `JobStarted`, before any baseline work. So does a
//!   job whose scheme fails to prepare before the pass: its lanes are
//!   dropped unrun and it sends no `BaselineReady` or `SchemeFinished`. A
//!   scheme that fails after the pass (global DVS without its matched
//!   scheme) fails the job after the outcomes recorded so far.
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
//! // A two-point slowdown sweep over one benchmark: the reference trace is
//! // produced once and shared across both jobs.
//! let stream = evaluator.submit_all(vec![
//!     EvalJob::new(bench.clone()).with_slowdown(0.04),
//!     EvalJob::new(bench).with_slowdown(0.10),
//! ]);
//! let evals = stream.collect().expect("both jobs succeed");
//! assert_eq!(evals.len(), 2);
//! assert_eq!(evaluator.memo_stats().misses, 1); // one trace produced...
//! assert_eq!(evaluator.memo_stats().hits, 1); // ...and reused once
//! let sparing = evals[0].metrics(names::OFFLINE).expect("offline ran");
//! let aggressive = evals[1].metrics(names::OFFLINE).expect("offline ran");
//! assert!(aggressive.energy_savings >= sparing.energy_savings);
//! ```

mod evaluator;
mod job;
mod scheduler;
mod stream;

pub use evaluator::{Admission, BatchStats, Evaluator, EvaluatorBuilder, MemoStats, RejectReason};
pub use job::{EvalBatch, EvalJob, JobId};
pub use scheduler::{AdmissionStats, Priority, STARVATION_LIMIT};
pub use stream::{EvalEvent, ResultStream};
