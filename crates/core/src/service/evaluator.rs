//! The long-lived evaluation service: worker pool, baseline memo, submission.

use crate::artifact::codec;
use crate::error::McdError;
use crate::evaluation::{BenchmarkEvaluation, EvaluationConfig, SchemeResult};
use crate::fault::{FaultPlan, FaultSite, InjectedPanic};
use crate::scheme::{names, DvfsScheme, Pools, Prepared, SchemeContext, SchemeOutcome};
use crate::service::job::{EvalBatch, EvalJob, JobId};
use crate::service::scheduler::{AdmissionStats, PushOutcome, Scheduler, TokenBucket};
use crate::service::stream::{EvalEvent, ResultStream};
use mcd_sim::config::MachineConfig;
use mcd_sim::fingerprint::{Fingerprint, Fnv1a};
use mcd_sim::simulator::{NullHooks, SimHooks, Simulator};
use mcd_sim::stats::SimStats;
use mcd_sim::trace::PackedTrace;
use mcd_workloads::generator::generate_packed;
use mcd_workloads::suite::Benchmark;
use std::cell::Cell;
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why admission control turned a submission away. Carried by
/// [`EvalEvent::JobRejected`] and [`Admission::Rejected`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Admitting the submission would push the queue past its configured
    /// capacity (in jobs). Retry after draining some of the backlog.
    QueueFull {
        /// Queue depth (jobs) at the time of the rejection.
        depth: usize,
        /// The configured bound it would have exceeded.
        capacity: usize,
    },
    /// The token-bucket rate limiter ran dry. Retry after backing off.
    RateLimited,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::QueueFull { depth, capacity } => {
                write!(f, "queue full ({depth} of {capacity} jobs queued)")
            }
            RejectReason::RateLimited => write!(f, "submission rate limit exceeded"),
        }
    }
}

/// The per-job outcome of a capacity-checked submission
/// ([`Evaluator::try_submit_all`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The job was accepted and enqueued.
    Queued {
        /// The job's identity.
        job: JobId,
        /// Queue depth (jobs) just after the job was enqueued.
        depth: usize,
    },
    /// The job was turned away; its stream carries the matching terminal
    /// [`EvalEvent::JobRejected`] and nothing else.
    Rejected {
        /// The job's identity.
        job: JobId,
        /// Why it was turned away.
        reason: RejectReason,
    },
}

impl Admission {
    /// The job this outcome is about.
    pub fn job(&self) -> JobId {
        match self {
            Admission::Queued { job, .. } | Admission::Rejected { job, .. } => *job,
        }
    }

    /// True when the job was accepted.
    pub fn is_queued(&self) -> bool {
        matches!(self, Admission::Queued { .. })
    }
}

/// Counters of the evaluator's baseline memo, one lookup per batch group.
///
/// A *miss* is a lookup that found no memo entry for its `(benchmark,
/// machine)` pair, so it produced the reference trace (generated, or loaded
/// from the artifact cache); a *hit* is a lookup that reused it. The trace is
/// produced exactly once per pair: a concurrent lookup of the same pair
/// waits for it. After a sweep of `n` configurations over `b` benchmarks,
/// `misses == b` and `hits == (n - 1) * b`. The full-speed baseline is not
/// part of the lookup: it is a lane of the group's pass, counted in
/// [`BatchStats::baselines_computed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Lookups served from the memo.
    pub hits: u64,
    /// Lookups that produced (and memoized) the reference trace.
    pub misses: u64,
}

impl MemoStats {
    /// Total memo lookups (one per processed batch group).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

/// The memoized per-`(benchmark, machine)` artifacts every job on that pair
/// shares: the reference trace, published before any scheme is prepared
/// (preparing reads it), and the full-speed MCD baseline statistics, stored
/// after the first pass that ran the baseline lane.
///
/// Until the baseline is stored, every group on the pair runs its own
/// baseline lane: two groups that look the pair up concurrently may both
/// compute it. Their results are bit-identical (the baseline is a pure
/// function of trace and machine); the first store wins and both groups
/// report the stored value.
#[derive(Debug)]
struct BaselineArtifacts {
    trace: PackedTrace,
    baseline: OnceLock<SimStats>,
}

/// Counters of batched execution. Every submission is executed as a batch:
/// an [`Evaluator::submit_batch`] group is one, and each job of
/// [`Evaluator::submit_all`] is a group of one member.
///
/// A group replays its reference trace in one fused pass: one lane per
/// member per scheme that does not read earlier outcomes, plus one
/// full-speed baseline lane when the memo holds no baseline yet. A scheme
/// that reads earlier outcomes (global DVS) is prepared after that pass and
/// runs its own simulations, which count as neither passes nor lanes; if it
/// returned a lane instead, the group would run a second pass.
///
/// After a cold 10-point batch over one benchmark running offline + profile,
/// expect `groups == 1`, `members == 10`, `baselines_computed == 1`,
/// `baselines_reused == 9`, `passes == 1` and `lanes == 21` (twenty scheme
/// lanes and the baseline lane); the same ten jobs through `submit_all`
/// count ten groups and ten passes, with 21 lanes between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Batch groups processed.
    pub groups: u64,
    /// Member jobs across those groups.
    pub members: u64,
    /// Baseline lanes run: groups that found no stored baseline. Concurrent
    /// groups on one pair may each run one (see [`MemoStats`]).
    pub baselines_computed: u64,
    /// Members served by a baseline another group (or batch member) computed.
    pub baselines_reused: u64,
    /// Simulation passes: one per group with at least one lane.
    pub passes: u64,
    /// Lanes across those passes, baseline lanes included.
    pub lanes: u64,
}

impl BatchStats {
    /// Mean lanes per batched pass (zero when no pass ran).
    pub fn lanes_per_pass(&self) -> f64 {
        if self.passes == 0 {
            0.0
        } else {
            self.lanes as f64 / self.passes as f64
        }
    }
}

/// One queued job: the job plus the event channel of its submission and the
/// enqueue timestamp feeding the queue-latency gauge. Workers pop whole
/// groups of them (one group per batch; a lone job is a group of one).
#[derive(Debug)]
struct QueuedJob {
    id: JobId,
    job: EvalJob,
    events: mpsc::Sender<EvalEvent>,
    queued_at: Instant,
}

/// State shared between the evaluator handle and its worker threads.
#[derive(Debug)]
struct Shared {
    config: EvaluationConfig,
    window_parallelism: usize,
    /// The job queue; it also owns admission control (capacity bound, rate
    /// limiter and counters) of the capacity-checked entry point.
    queue: Scheduler<Vec<QueuedJob>>,
    baselines: Mutex<HashMap<u64, Arc<OnceLock<Arc<BaselineArtifacts>>>>>,
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    batch_groups: AtomicU64,
    batch_members: AtomicU64,
    batch_baselines_computed: AtomicU64,
    batch_baselines_reused: AtomicU64,
    batch_passes: AtomicU64,
    batch_lanes: AtomicU64,
    /// Fault-injection plan consulted by the workers
    /// ([`FaultSite::WorkerPanic`] per job or batch member) and shared with
    /// the scheduler; the default plan is disabled.
    faults: Arc<FaultPlan>,
}

impl Shared {
    /// The memo entry of one benchmark, producing its reference trace exactly
    /// once per `(benchmark, machine)` pair — concurrent jobs on the same
    /// pair block on the initializing job instead of recomputing. The
    /// baseline is left to the caller's pass (see [`BaselineArtifacts`]).
    fn baseline_for(&self, bench: &Benchmark) -> Arc<BaselineArtifacts> {
        let machine = &self.config.machine;
        let key = baseline_key(bench, machine);
        let slot = {
            let mut map = self.baselines.lock().expect("memo lock never poisoned");
            map.entry(key)
                .or_insert_with(|| Arc::new(OnceLock::new()))
                .clone()
        };
        let mut computed = false;
        let artifacts = slot
            .get_or_init(|| {
                computed = true;
                // The packed trace itself is an artifact: warm caches load it
                // from disk and skip re-generation entirely (the codec's
                // checksum guards bit-identity; any decode problem falls back
                // to regenerating).
                let key = crate::artifact::packed_trace_key(bench.name, &bench.inputs.reference);
                let trace = self.config.cache.publish(
                    &key,
                    codec::decode_trace,
                    codec::encode_trace,
                    || generate_packed(&bench.program, &bench.inputs.reference),
                );
                Arc::new(BaselineArtifacts {
                    trace,
                    baseline: OnceLock::new(),
                })
            })
            .clone();
        if computed {
            self.memo_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
        }
        artifacts
    }
}

/// The stable identity of a `(benchmark, machine)` baseline: the same
/// encoding discipline as the artifact-cache keys, so two jobs share a memo
/// entry exactly when their reference traces and baselines are
/// interchangeable.
fn baseline_key(bench: &Benchmark, machine: &MachineConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str("baseline");
    h.write_str(bench.name);
    crate::artifact::key::write_input(&mut h, &bench.inputs.reference);
    machine.fingerprint(&mut h);
    h.finish()
}

/// Builds an [`Evaluator`]: machine and analysis parameters (via an
/// [`EvaluationConfig`]), the shared artifact cache, and the thread budget.
///
/// The budget follows the documented [`EvaluationConfig::with_parallelism`]
/// split: `parallelism` is the total; [`workers`](EvaluatorBuilder::workers)
/// job-level threads (default: the whole budget, clamped to it) each hand
/// their jobs the leftover `parallelism / workers` (floor 1) for
/// window-parallel off-line analysis.
#[derive(Debug, Clone, Default)]
pub struct EvaluatorBuilder {
    config: EvaluationConfig,
    workers: Option<usize>,
    queue_capacity: Option<usize>,
    rate_limit: Option<(f64, f64)>,
    shutdown_timeout: Option<Duration>,
    faults: Option<Arc<FaultPlan>>,
}

impl EvaluatorBuilder {
    /// Starts from the default [`EvaluationConfig`].
    pub fn new() -> Self {
        EvaluatorBuilder::default()
    }

    /// Replaces the whole base configuration.
    pub fn config(mut self, config: EvaluationConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the machine model (fixed for the evaluator's lifetime — it is
    /// part of the baseline-memo identity).
    pub fn machine(mut self, machine: MachineConfig) -> Self {
        self.config.machine = machine;
        self
    }

    /// Sets the shared artifact cache.
    pub fn cache(mut self, cache: Arc<crate::artifact::ArtifactCache>) -> Self {
        self.config.cache = cache;
        self
    }

    /// Sets the total worker-thread budget (floor 1).
    pub fn parallelism(mut self, parallelism: usize) -> Self {
        self.config = self.config.with_parallelism(parallelism);
        self
    }

    /// Pins the number of job-level worker threads (clamped to `1..=`
    /// the total budget). Without this the whole budget goes to job-level
    /// workers, which is right when jobs outnumber threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Bounds the queue at `capacity` jobs (floor 1) for the
    /// capacity-checked entry point ([`Evaluator::try_submit_all`]):
    /// submissions that would exceed the bound are rejected with
    /// [`RejectReason::QueueFull`] instead of growing memory without limit.
    /// The unconditional `submit*` family is unaffected.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = Some(capacity.max(1));
        self
    }

    /// Installs a token-bucket rate limiter on the capacity-checked entry
    /// point ([`Evaluator::try_submit_all`]): sustained throughput `per_second` jobs/s with bursts up to
    /// `burst` jobs. Submissions beyond the budget are rejected with
    /// [`RejectReason::RateLimited`].
    pub fn rate_limit(mut self, per_second: f64, burst: f64) -> Self {
        self.rate_limit = Some((per_second, burst));
        self
    }

    /// Installs a fault-injection plan (see [`crate::fault`]) shared by the
    /// scheduler and the workers: pops may stall, and jobs (or batch members)
    /// may be hit by an injected worker panic — which the service must
    /// convert into a clean per-job [`McdError::Fault`] failure. Share the
    /// same plan with the artifact cache
    /// ([`ArtifactCache::with_faults`](crate::artifact::ArtifactCache::with_faults))
    /// so the whole service runs under one seeded schedule. The default plan
    /// is disabled and costs one boolean load per hook.
    pub fn faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Bounds how long dropping the evaluator waits for queued work to drain
    /// before aborting it (default 60 s). Jobs still queued past the deadline
    /// fail with [`McdError::Shutdown`] so their streams terminate cleanly.
    pub fn shutdown_timeout(mut self, timeout: Duration) -> Self {
        self.shutdown_timeout = Some(timeout);
        self
    }

    /// Spawns the worker pool and returns the ready service.
    pub fn build(self) -> Evaluator {
        let total = self.config.parallelism.max(1);
        let workers = self.workers.unwrap_or(total).clamp(1, total);
        let window_parallelism = (total / workers).max(1);
        let faults = self
            .faults
            .unwrap_or_else(|| Arc::new(FaultPlan::disabled()));
        let shared = Arc::new(Shared {
            config: self.config,
            window_parallelism,
            queue: Scheduler::new(
                self.queue_capacity,
                self.rate_limit
                    .map(|(per_second, burst)| TokenBucket::new(per_second, burst, Instant::now())),
            )
            .with_faults(Arc::clone(&faults)),
            baselines: Mutex::new(HashMap::new()),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
            batch_groups: AtomicU64::new(0),
            batch_members: AtomicU64::new(0),
            batch_baselines_computed: AtomicU64::new(0),
            batch_baselines_reused: AtomicU64::new(0),
            batch_passes: AtomicU64::new(0),
            batch_lanes: AtomicU64::new(0),
            faults,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("mcd-eval-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("worker thread spawns")
            })
            .collect();
        Evaluator {
            shared,
            worker_handles: handles,
            worker_count: workers,
            shutdown_timeout: self.shutdown_timeout.unwrap_or(Duration::from_secs(60)),
            next_id: AtomicU64::new(0),
        }
    }
}

/// The job-oriented evaluation service (see the [module docs](crate::service)
/// for the lifecycle).
///
/// Build one with [`Evaluator::builder`], keep it for as long as evaluations
/// are needed, and [`submit`](Evaluator::submit) jobs from any thread; every
/// submission gets its own [`ResultStream`]. Dropping the evaluator drains
/// the queued jobs and joins the workers.
#[derive(Debug)]
pub struct Evaluator {
    shared: Arc<Shared>,
    worker_handles: Vec<JoinHandle<()>>,
    worker_count: usize,
    shutdown_timeout: Duration,
    next_id: AtomicU64,
}

impl Evaluator {
    /// Starts building an evaluator.
    pub fn builder() -> EvaluatorBuilder {
        EvaluatorBuilder::new()
    }

    /// The number of job-level worker threads.
    pub fn workers(&self) -> usize {
        self.worker_count
    }

    /// The worker-thread budget each job gets for window-parallel off-line
    /// analysis (`parallelism / workers`, floor 1).
    pub fn window_parallelism(&self) -> usize {
        self.shared.window_parallelism
    }

    /// The base configuration jobs inherit.
    pub fn config(&self) -> &EvaluationConfig {
        &self.shared.config
    }

    /// Snapshot of the baseline-memo counters.
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            hits: self.shared.memo_hits.load(Ordering::Relaxed),
            misses: self.shared.memo_misses.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the batched-execution counters.
    pub fn batch_stats(&self) -> BatchStats {
        BatchStats {
            groups: self.shared.batch_groups.load(Ordering::Relaxed),
            members: self.shared.batch_members.load(Ordering::Relaxed),
            baselines_computed: self.shared.batch_baselines_computed.load(Ordering::Relaxed),
            baselines_reused: self.shared.batch_baselines_reused.load(Ordering::Relaxed),
            passes: self.shared.batch_passes.load(Ordering::Relaxed),
            lanes: self.shared.batch_lanes.load(Ordering::Relaxed),
        }
    }

    /// Current queue depth in jobs (batch members counted individually) —
    /// the saturation gauge producers poll between submissions.
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.depth()
    }

    /// High-water mark of the queue depth in jobs over the evaluator's
    /// lifetime.
    pub fn peak_queue_depth(&self) -> usize {
        self.shared.queue.peak_depth()
    }

    /// Snapshot of the admission-control counters (the capacity-checked
    /// entry point only; the unconditional `submit*` family bypasses them).
    pub fn admission_stats(&self) -> AdmissionStats {
        self.shared.queue.admission_stats()
    }

    /// Releases the memoized reference traces and baselines; the counters
    /// are preserved.
    ///
    /// The memo holds every `(benchmark, machine)` pair's reference trace —
    /// the large part — for the evaluator's lifetime, which is exactly what a
    /// sweep wants but grows unboundedly in a service that cycles through
    /// many distinct benchmarks. Call this between batches to cap resident
    /// memory; later jobs recompute (and re-memoize) on demand.
    pub fn clear_baselines(&self) {
        self.shared
            .baselines
            .lock()
            .expect("memo lock never poisoned")
            .clear();
    }

    /// Submits one job; sugar for a one-element [`submit_all`](Evaluator::submit_all).
    pub fn submit(&self, job: EvalJob) -> ResultStream {
        self.submit_all(vec![job])
    }

    /// Submits jobs sharing one event stream, each as a batch of one. Jobs
    /// start in per-class submission order as workers free up; their events
    /// interleave on the returned stream. An empty submission returns a
    /// stream that is already finished. Submission is unconditional — for
    /// backpressure use [`try_submit_all`](Evaluator::try_submit_all).
    pub fn submit_all(&self, jobs: Vec<EvalJob>) -> ResultStream {
        self.submit_groups(jobs.into_iter().map(|job| vec![job]), false)
            .0
    }

    /// Capacity-checked [`submit_all`](Evaluator::submit_all): each job
    /// passes the rate limiter and the queue bound or is turned away with an
    /// explicit [`Admission::Rejected`] outcome (plus a terminal
    /// [`EvalEvent::JobRejected`] on the stream). Accepted and rejected jobs
    /// share the returned stream, so `collect` surfaces a rejection as
    /// [`McdError::Rejected`] exactly like any other job failure.
    pub fn try_submit_all(&self, jobs: Vec<EvalJob>) -> (ResultStream, Vec<Admission>) {
        self.submit_groups(jobs.into_iter().map(|job| vec![job]), true)
    }

    /// Submits a validated [`EvalBatch`]: the whole group goes to one worker,
    /// which pays for the shared baseline once and runs every member's
    /// schemes as parallel configuration lanes of one fused simulation pass.
    /// Events, ordering guarantees, and per-member results
    /// are exactly those of [`submit_all`](Evaluator::submit_all) with the
    /// same jobs — batching only changes wall-clock time, counted in
    /// [`batch_stats`](Evaluator::batch_stats).
    pub fn submit_batch(&self, batch: EvalBatch) -> ResultStream {
        self.submit_groups([batch.jobs], false).0
    }

    /// Enqueues each group as one schedulable unit on one shared stream;
    /// `checked` applies admission control (rate limiter and queue bound) per
    /// group.
    fn submit_groups(
        &self,
        groups: impl IntoIterator<Item = Vec<EvalJob>>,
        checked: bool,
    ) -> (ResultStream, Vec<Admission>) {
        let (sender, receiver) = mpsc::channel();
        let mut ids = Vec::new();
        let mut admissions = Vec::new();
        for group in groups {
            self.enqueue(group, checked, &sender, &mut ids, &mut admissions);
        }
        // Dropping the submission's sender leaves one sender clone per queued
        // job; the stream therefore ends exactly when the last job finishes.
        drop(sender);
        (
            ResultStream {
                receiver,
                jobs: ids,
            },
            admissions,
        )
    }

    fn enqueue(
        &self,
        group: Vec<EvalJob>,
        checked: bool,
        sender: &mpsc::Sender<EvalEvent>,
        ids: &mut Vec<JobId>,
        admissions: &mut Vec<Admission>,
    ) {
        // A group rides at the urgency of its most impatient member.
        let priority = group
            .iter()
            .map(|job| job.priority)
            .min()
            .unwrap_or_default();
        let jobs = group.len();
        let queued_at = Instant::now();
        let members: Vec<QueuedJob> = group
            .into_iter()
            .map(|job| {
                let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
                ids.push(id);
                QueuedJob {
                    id,
                    job,
                    events: sender.clone(),
                    queued_at,
                }
            })
            .collect();

        // The queue decides admission and runs this callback under its lock,
        // before the group becomes poppable: every `JobQueued` is on the
        // stream ahead of the worker's `JobStarted`.
        let capacity = self.shared.queue.capacity().unwrap_or(usize::MAX);
        let decided = |members: &Vec<QueuedJob>, outcome: &PushOutcome| {
            let verdict = match *outcome {
                PushOutcome::Pushed(depth) => Ok(depth),
                PushOutcome::Full(depth) => Err(Some(RejectReason::QueueFull { depth, capacity })),
                PushOutcome::RateLimited => Err(Some(RejectReason::RateLimited)),
                // Unreachable while the evaluator is alive (close happens in
                // drop), but keeps every job's stream terminating if that
                // changes.
                PushOutcome::Closed => Err(None),
            };
            for member in members {
                let job = member.id;
                let benchmark = member.job.benchmark.name.to_string();
                let event = match verdict {
                    Ok(depth) => {
                        admissions.push(Admission::Queued { job, depth });
                        EvalEvent::JobQueued {
                            job,
                            benchmark,
                            depth,
                        }
                    }
                    Err(Some(reason)) => {
                        admissions.push(Admission::Rejected { job, reason });
                        EvalEvent::JobRejected {
                            job,
                            benchmark,
                            reason,
                        }
                    }
                    Err(None) => EvalEvent::JobFailed {
                        job,
                        benchmark,
                        error: McdError::Shutdown,
                    },
                };
                let _ = sender.send(event);
            }
        };
        self.shared
            .queue
            .enqueue(members, priority, jobs, checked, decided);
    }
}

impl Drop for Evaluator {
    /// Graceful shutdown within a bounded timeout: the queue is closed, then
    /// drained for up to [`shutdown_timeout`](EvaluatorBuilder::shutdown_timeout).
    /// Work still queued past the deadline is aborted — each abandoned job
    /// emits a terminal [`EvalEvent::JobFailed`] with [`McdError::Shutdown`]
    /// so its stream still ends — and the workers (which finish their
    /// in-flight item either way) are joined.
    fn drop(&mut self) {
        self.shared.queue.close();
        let deadline = Instant::now() + self.shutdown_timeout;
        if !self.shared.queue.wait_empty(deadline) {
            let fail = |queued: QueuedJob| {
                let _ = queued.events.send(EvalEvent::JobFailed {
                    job: queued.id,
                    benchmark: queued.job.benchmark.name.to_string(),
                    error: McdError::Shutdown,
                });
            };
            for members in self.shared.queue.abort() {
                members.into_iter().for_each(fail);
            }
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Maps a caught panic payload to the [`McdError`] its job fails with: an
/// [`InjectedPanic`] (planted by the fault harness) becomes
/// [`McdError::Fault`], anything else is a genuine bug and becomes
/// [`McdError::Panic`] carrying the panic message.
fn panic_error(payload: Box<dyn std::any::Any + Send>) -> McdError {
    if payload.downcast_ref::<InjectedPanic>().is_some() {
        return McdError::Fault {
            site: FaultSite::WorkerPanic,
        };
    }
    let msg = payload
        .downcast_ref::<&'static str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string());
    McdError::Panic(msg)
}

/// A worker: pop groups off the shared queue until it closes and drains.
/// Each popped group first emits `JobStarted` per job, carrying the
/// queue-latency and depth gauges.
///
/// Group execution runs under `catch_unwind`, so a panic — injected by the
/// fault plan or a genuine bug — poisons only the jobs still without a
/// terminal event: each gets a terminal [`EvalEvent::JobFailed`] (so its
/// stream still ends) and the worker thread goes back to popping. The shared
/// state is unwind-safe by construction: no lock is held across job
/// execution, and the baseline memo's `OnceLock` is left uninitialized (not
/// poisoned) when its initializer panics, so a later job simply recomputes.
fn worker_loop(shared: &Shared) {
    while let Some(group) = shared.queue.pop() {
        let depth = shared.queue.depth();
        for member in &group {
            let _ = member.events.send(EvalEvent::JobStarted {
                job: member.id,
                benchmark: member.job.benchmark.name.to_string(),
                queued_for: member.queued_at.elapsed(),
                depth,
            });
        }
        // Per-member terminal bookkeeping: `process_batch` marks each member
        // whose terminal event it sent, so if it unwinds mid-batch the
        // backstop fails exactly the members still missing one.
        let terminals: Vec<(JobId, String, mpsc::Sender<EvalEvent>)> = group
            .iter()
            .map(|m| (m.id, m.job.benchmark.name.to_string(), m.events.clone()))
            .collect();
        let sent: Vec<Cell<bool>> = group.iter().map(|_| Cell::new(false)).collect();
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            process_batch(shared, group, &sent);
        }));
        if let Err(payload) = result {
            let error = panic_error(payload);
            for ((job, benchmark, events), sent) in terminals.into_iter().zip(&sent) {
                if !sent.get() {
                    let _ = events.send(EvalEvent::JobFailed {
                        job,
                        benchmark,
                        error: error.clone(),
                    });
                }
            }
        }
    }
}

/// One member of a batch while the batch is being processed: its registry,
/// the schemes it prepared whose outcomes await the next pass, the outcomes
/// recorded so far (in registry order), and whether it has already failed.
struct BatchMember<'a> {
    id: JobId,
    benchmark_name: String,
    events: mpsc::Sender<EvalEvent>,
    job: EvalJob,
    registry: Vec<Box<dyn DvfsScheme>>,
    pending: Vec<PendingOutcome>,
    outcomes: Vec<SchemeOutcome>,
    failed: bool,
    /// Set when this member's terminal event goes out; the worker's
    /// `catch_unwind` backstop fails only members whose flag is still unset.
    terminal_sent: &'a Cell<bool>,
}

/// A prepared scheme whose outcome is recorded at the group's next flush:
/// a lane of that flush's pass, or statistics the scheme produced itself.
struct PendingOutcome {
    /// The scheme's position in the full registry.
    rank: usize,
    name: &'static str,
    label: String,
    prepared: Prepared,
}

impl BatchMember<'_> {
    fn fail(&mut self, error: McdError) {
        self.failed = true;
        self.terminal_sent.set(true);
        let _ = self.events.send(EvalEvent::JobFailed {
            job: self.id,
            benchmark: self.benchmark_name.clone(),
            error,
        });
    }

    fn record(&mut self, outcome: SchemeOutcome) {
        let _ = self.events.send(EvalEvent::SchemeFinished {
            job: self.id,
            benchmark: self.benchmark_name.clone(),
            outcome: outcome.clone(),
        });
        self.outcomes.push(outcome);
    }
}

/// Runs one group end to end on this worker — the evaluator's only
/// executor; a lone job is a group of one. Validates every member's
/// registry (a member whose registry is invalid fails before any baseline
/// work), then hands the rest to [`execute`]. The injected worker panic is
/// drawn here, once per member, under its own `catch_unwind`: the panicking
/// member fails with [`McdError::Fault`] and the batch carries on without
/// it. `sent` are the per-member terminal markers (parallel to `queued`) the
/// worker's panic backstop reads.
fn process_batch(shared: &Shared, queued: Vec<QueuedJob>, sent: &[Cell<bool>]) {
    shared.batch_groups.fetch_add(1, Ordering::Relaxed);
    shared
        .batch_members
        .fetch_add(queued.len() as u64, Ordering::Relaxed);

    let mut members: Vec<BatchMember<'_>> = Vec::with_capacity(queued.len());
    for (
        QueuedJob {
            id, job, events, ..
        },
        terminal_sent,
    ) in queued.into_iter().zip(sent)
    {
        let config = job.effective_config(&shared.config, shared.window_parallelism);
        let built = std::panic::catch_unwind(AssertUnwindSafe(|| {
            if shared.faults.should(FaultSite::WorkerPanic) {
                std::panic::panic_any(InjectedPanic);
            }
            job.build_registry(&config)
        }));
        let mut member = BatchMember {
            id,
            benchmark_name: job.benchmark().name.to_string(),
            events,
            job,
            registry: Vec::new(),
            pending: Vec::new(),
            outcomes: Vec::new(),
            failed: false,
            terminal_sent,
        };
        match built {
            Ok(Ok(registry)) => {
                member.registry = registry;
                members.push(member);
            }
            Ok(Err(error)) => member.fail(error),
            Err(payload) => member.fail(panic_error(payload)),
        }
    }
    if !members.is_empty() {
        execute(shared, members);
    }
}

/// Evaluates validated members in one fused replay of their reference
/// trace.
///
/// Every member prepares its schemes in full-registry order (scheme by
/// scheme across the members, so the batch's [`Pools`] serve each shared
/// capture and training input once), and each prepared lane joins a single
/// [`Simulator::run_lanes`] pass together with the full-speed baseline lane
/// when the memo holds no baseline yet. A scheme that
/// [reads prior outcomes](DvfsScheme::reads_prior_outcomes) flushes the
/// pass first and is prepared with the baseline and the member's recorded
/// outcomes; the end of the registry flushes whatever is left.
///
/// Per member the events are `BaselineReady` (after the first pass), then
/// one `SchemeFinished` per scheme in registry order, all of a pass's
/// arriving together after it, then `JobCompleted`. A member whose
/// `prepare` fails emits `JobFailed` at once and drops out, its queued lanes
/// unrun; the other members' lanes and outcomes are unaffected.
fn execute(shared: &Shared, mut members: Vec<BatchMember<'_>>) {
    // One memo entry serves the whole batch: jobs cannot override the
    // machine, and EvalJob::batch guaranteed a single benchmark.
    let artifacts = shared.baseline_for(members[0].job.benchmark());
    let mut group = FusedGroup {
        simulator: Simulator::new(shared.config.machine.clone()),
        artifacts,
        announced: false,
    };
    let mut pools = Pools::default();
    for (rank, &name) in names::ALL.iter().enumerate() {
        let reads_prior = members.iter().any(|m| {
            !m.failed
                && m.registry
                    .iter()
                    .any(|s| s.name() == name && s.reads_prior_outcomes())
        });
        if reads_prior {
            group.flush(shared, &mut members);
        }
        for member in members.iter_mut().filter(|m| !m.failed) {
            let Some(scheme) = member.registry.iter().find(|s| s.name() == name) else {
                continue;
            };
            let reads = scheme.reads_prior_outcomes();
            let ctx = SchemeContext {
                benchmark: member.job.benchmark(),
                machine: group.simulator.config(),
                reference_trace: &group.artifacts.trace,
                baseline: group.artifacts.baseline.get().filter(|_| reads),
                prior: if reads { &member.outcomes } else { &[] },
            };
            let label = scheme.label();
            match scheme.prepare(&ctx, &mut pools) {
                Ok(prepared) => member.pending.push(PendingOutcome {
                    rank,
                    name,
                    label,
                    prepared,
                }),
                Err(error) => member.fail(error),
            }
        }
    }
    group.flush(shared, &mut members);

    for member in members {
        if member.failed {
            continue;
        }
        member.terminal_sent.set(true);
        let _ = member.events.send(EvalEvent::JobCompleted {
            job: member.id,
            evaluation: BenchmarkEvaluation {
                name: member.benchmark_name,
                baseline: group
                    .artifacts
                    .baseline
                    .get()
                    .cloned()
                    .expect("a flush with live members stores the baseline"),
                schemes: member.outcomes,
            },
        });
    }
}

/// The shared state of one group's fused execution.
struct FusedGroup {
    simulator: Simulator,
    artifacts: Arc<BaselineArtifacts>,
    /// Whether the live members have had their `BaselineReady`.
    announced: bool,
}

impl FusedGroup {
    /// Runs every lane the live members queued — plus the baseline lane
    /// while the memo holds no baseline — in one pass, then records each live
    /// member's pending outcomes in registry order. A failed member's
    /// pending lanes are dropped unrun: a job sends nothing after its
    /// `JobFailed`. The first flush also sends each live member its
    /// `BaselineReady`. A flush with nothing to run records without a pass;
    /// one with no live member does nothing.
    fn flush(&mut self, shared: &Shared, members: &mut [BatchMember<'_>]) {
        if members.iter().all(|m| m.failed) {
            return;
        }
        let computes_baseline = self.artifacts.baseline.get().is_none();
        // The live members' lanes as (member, pending) indices, scheme by
        // scheme as they were prepared. Lanes of one scheme run side by side,
        // which keeps the pass's per-lane hook dispatch predictable:
        // interleaving the members' schemes made wide sweep passes slower
        // than the per-scheme passes they replace.
        let mut order: Vec<(usize, usize)> = members
            .iter()
            .enumerate()
            .filter(|(_, m)| !m.failed)
            .flat_map(|(i, m)| {
                m.pending
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| matches!(p.prepared, Prepared::Lane(_)))
                    .map(move |(j, _)| (i, j))
            })
            .collect();
        order.sort_by_key(|&(i, j)| members[i].pending[j].rank);
        let mut stats = {
            let mut hooks: Vec<Box<dyn SimHooks + '_>> = Vec::new();
            if computes_baseline {
                hooks.push(Box::new(NullHooks));
            }
            hooks.extend(order.iter().filter_map(
                |&(i, j)| match &members[i].pending[j].prepared {
                    Prepared::Lane(lane) => Some(lane.hooks()),
                    Prepared::Finished(_) => None,
                },
            ));
            if hooks.is_empty() {
                Vec::new()
            } else {
                shared.batch_passes.fetch_add(1, Ordering::Relaxed);
                shared
                    .batch_lanes
                    .fetch_add(hooks.len() as u64, Ordering::Relaxed);
                let mut lanes: Vec<&mut dyn SimHooks> = hooks
                    .iter_mut()
                    .map(|h| h.as_mut() as &mut dyn SimHooks)
                    .collect();
                self.simulator
                    .run_lanes(self.artifacts.trace.iter(), &mut lanes)
            }
        }
        .into_iter();
        if computes_baseline {
            shared
                .batch_baselines_computed
                .fetch_add(1, Ordering::Relaxed);
            let computed = stats.next().expect("the baseline lane ran");
            // First store wins; a concurrent group's baseline is bit-identical.
            let _ = self.artifacts.baseline.set(computed);
        }
        for (&(i, j), lane_stats) in order.iter().zip(stats) {
            members[i].pending[j].prepared = Prepared::Finished(lane_stats);
        }
        let baseline = self.artifacts.baseline.get().expect("stored above");
        let announce = !std::mem::replace(&mut self.announced, true);
        let mut memo_hit = !computes_baseline;
        for member in members.iter_mut().filter(|m| !m.failed) {
            if announce {
                let _ = member.events.send(EvalEvent::BaselineReady {
                    job: member.id,
                    benchmark: member.benchmark_name.clone(),
                    memo_hit,
                });
                if memo_hit {
                    shared
                        .batch_baselines_reused
                        .fetch_add(1, Ordering::Relaxed);
                }
                // Members after the first share the baseline it obtained.
                memo_hit = true;
            }
            for pending in std::mem::take(&mut member.pending) {
                let Prepared::Finished(stats) = pending.prepared else {
                    unreachable!("every live lane ran in the pass above")
                };
                member.record(SchemeOutcome {
                    name: pending.name.to_string(),
                    label: pending.label,
                    result: SchemeResult::new(stats, baseline),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_applies_the_documented_budget_split() {
        // parallelism / workers, floor 1, workers clamped into 1..=total.
        let evaluator = Evaluator::builder().parallelism(8).workers(3).build();
        assert_eq!(evaluator.workers(), 3);
        assert_eq!(evaluator.window_parallelism(), 2); // 8 / 3 = 2

        let evaluator = Evaluator::builder().parallelism(4).build();
        assert_eq!(evaluator.workers(), 4);
        assert_eq!(evaluator.window_parallelism(), 1);

        let evaluator = Evaluator::builder().parallelism(6).workers(2).build();
        assert_eq!(evaluator.workers(), 2);
        assert_eq!(evaluator.window_parallelism(), 3);
    }

    #[test]
    fn builder_enforces_the_floors_and_clamps() {
        // A zero budget floors to one; workers can neither be zero nor exceed
        // the total budget.
        let evaluator = Evaluator::builder().parallelism(0).build();
        assert_eq!(evaluator.workers(), 1);
        assert_eq!(evaluator.window_parallelism(), 1);

        let evaluator = Evaluator::builder().parallelism(2).workers(0).build();
        assert_eq!(evaluator.workers(), 1);
        assert_eq!(evaluator.window_parallelism(), 2);

        let evaluator = Evaluator::builder().parallelism(2).workers(99).build();
        assert_eq!(evaluator.workers(), 2);
        assert_eq!(evaluator.window_parallelism(), 1);
    }

    #[test]
    fn empty_submission_finishes_immediately() {
        let evaluator = Evaluator::builder().build();
        let stream = evaluator.submit_all(Vec::new());
        assert!(stream.jobs().is_empty());
        let evals = stream.collect().expect("empty batch succeeds");
        assert!(evals.is_empty());
    }

    #[test]
    fn batched_submission_matches_serial_submission_bit_for_bit() {
        use crate::scheme::names;

        let bench = mcd_workloads::suite::benchmark("adpcm decode").unwrap();
        let jobs = || {
            vec![
                EvalJob::new(bench.clone())
                    .with_slowdown(0.02)
                    .with_schemes([names::OFFLINE, names::PROFILE]),
                EvalJob::new(bench.clone())
                    .with_slowdown(0.10)
                    .with_schemes([names::OFFLINE, names::PROFILE]),
                EvalJob::new(bench.clone()).with_schemes([
                    names::OFFLINE,
                    names::ONLINE,
                    names::PROFILE,
                    names::GLOBAL,
                ]),
            ]
        };
        let serial = Evaluator::builder()
            .build()
            .submit_all(jobs())
            .collect()
            .expect("serial sweep succeeds");

        let evaluator = Evaluator::builder().build();
        let batched = evaluator
            .submit_batch(EvalJob::batch(jobs()).expect("one benchmark"))
            .collect()
            .expect("batched sweep succeeds");

        assert_eq!(serial.len(), batched.len());
        for (s, b) in serial.iter().zip(&batched) {
            assert_eq!(s.name, b.name);
            assert_eq!(s.schemes.len(), b.schemes.len());
            for (so, bo) in s.schemes.iter().zip(&b.schemes) {
                assert_eq!(so.name, bo.name);
                assert_eq!(so.label, bo.label);
                assert_eq!(so.result.stats.run_time, bo.result.stats.run_time);
                assert_eq!(
                    so.result.stats.total_energy.as_units(),
                    bo.result.stats.total_energy.as_units()
                );
                assert_eq!(
                    so.result.stats.reconfigurations,
                    bo.result.stats.reconfigurations
                );
            }
        }

        let stats = evaluator.batch_stats();
        assert_eq!(stats.groups, 1);
        assert_eq!(stats.members, 3);
        assert_eq!(stats.baselines_computed, 1);
        assert_eq!(stats.baselines_reused, 2);
        // One pass: offline (3 lanes), online (1), profile (3) and the
        // baseline lane; global is prepared after it and returns finished
        // statistics instead of a lane.
        assert_eq!(stats.passes, 1);
        assert_eq!(stats.lanes, 8);
        assert!((stats.lanes_per_pass() - 8.0).abs() < 1e-12);
        // One member computed the memoized baseline, two reused it.
        let memo = evaluator.memo_stats();
        assert_eq!(memo.misses, 1);
        assert_eq!(memo.hits, 0);
    }

    #[test]
    fn batch_members_fail_in_isolation() {
        use crate::scheme::names;

        let bench = mcd_workloads::suite::benchmark("adpcm decode").unwrap();
        let evaluator = Evaluator::builder().build();
        // `global` without its matched scheme fails that member alone.
        let batch = EvalJob::batch(vec![
            EvalJob::new(bench.clone()).with_schemes([names::ONLINE]),
            EvalJob::new(bench.clone()).with_schemes([names::GLOBAL]),
        ])
        .expect("one benchmark");
        let err = evaluator.submit_batch(batch).collect().unwrap_err();
        assert!(matches!(err, McdError::MissingDependency { .. }));

        // Per-member streaming still delivered the healthy member's result.
        let batch = EvalJob::batch(vec![
            EvalJob::new(bench.clone()).with_schemes([names::ONLINE]),
            EvalJob::new(bench.clone()).with_schemes([names::GLOBAL]),
        ])
        .expect("one benchmark");
        let mut completed = 0;
        let mut failed = 0;
        for event in evaluator.submit_batch(batch) {
            match event {
                EvalEvent::JobCompleted { .. } => completed += 1,
                EvalEvent::JobFailed { .. } => failed += 1,
                _ => {}
            }
        }
        assert_eq!((completed, failed), (1, 1));
    }

    /// Stands in for the profile scheme with a `prepare` that always fails,
    /// after the member's earlier schemes have queued their lanes.
    #[derive(Debug)]
    struct FailingProfile;

    impl DvfsScheme for FailingProfile {
        fn name(&self) -> &'static str {
            crate::scheme::names::PROFILE
        }

        fn prepare(&self, _: &SchemeContext<'_>, _: &mut Pools) -> Result<Prepared, McdError> {
            Err(McdError::InvalidConfig("prepare fails on purpose".into()))
        }
    }

    /// Every event of one job, reduced to its kind (the scheme name for
    /// `SchemeFinished`), and the evaluation it completed with.
    fn drain_events(rx: &mpsc::Receiver<EvalEvent>) -> (Vec<String>, Option<BenchmarkEvaluation>) {
        let mut completed = None;
        let kinds = rx
            .try_iter()
            .map(|event| match event {
                EvalEvent::BaselineReady { .. } => "baseline".to_string(),
                EvalEvent::SchemeFinished { outcome, .. } => outcome.name,
                EvalEvent::JobCompleted { evaluation, .. } => {
                    completed = Some(evaluation);
                    "completed".to_string()
                }
                EvalEvent::JobFailed { .. } => "failed".to_string(),
                other => panic!("executor sent an unexpected event: {other:?}"),
            })
            .collect();
        (kinds, completed)
    }

    #[test]
    fn a_failed_prepare_drops_the_members_queued_lanes_and_nothing_else() {
        use crate::scheme::names;

        let bench = mcd_workloads::suite::benchmark("adpcm decode").unwrap();
        let healthy = || {
            EvalJob::new(bench.clone()).with_schemes([
                names::OFFLINE,
                names::ONLINE,
                names::PROFILE,
                names::GLOBAL,
            ])
        };
        let alone = Evaluator::builder()
            .build()
            .submit(healthy())
            .collect()
            .expect("the healthy job succeeds alone")
            .remove(0);

        // Member 0 queues its offline and online lanes, then fails in its
        // profile `prepare`; members 1 and 2 are healthy.
        let evaluator = Evaluator::builder().build();
        let shared = &evaluator.shared;
        let sent: Vec<Cell<bool>> = (0..3).map(|_| Cell::new(false)).collect();
        let mut receivers = Vec::new();
        let mut members = Vec::new();
        for (i, terminal_sent) in sent.iter().enumerate() {
            let job = healthy();
            let mut registry = job
                .build_registry(&job.effective_config(&shared.config, 1))
                .expect("valid registry");
            if i == 0 {
                let profile = registry
                    .iter()
                    .position(|s| s.name() == names::PROFILE)
                    .expect("profile is registered");
                registry[profile] = Box::new(FailingProfile);
            }
            let (events, rx) = mpsc::channel();
            receivers.push(rx);
            members.push(BatchMember {
                id: JobId(i as u64),
                benchmark_name: bench.name.to_string(),
                events,
                job,
                registry,
                pending: Vec::new(),
                outcomes: Vec::new(),
                failed: false,
                terminal_sent,
            });
        }
        execute(shared, members);

        // The failed member ends at its failure: no baseline, no outcome of
        // the lanes it had queued.
        let (kinds, evaluation) = drain_events(&receivers[0]);
        assert_eq!(kinds, ["failed"]);
        assert!(evaluation.is_none());
        assert!(sent[0].get());
        // The others see the documented lifecycle, in registry order, and
        // their outcomes are bit-identical to the job evaluated alone.
        let lifecycle = [
            "baseline",
            names::OFFLINE,
            names::ONLINE,
            names::PROFILE,
            names::GLOBAL,
            "completed",
        ];
        for rx in &receivers[1..] {
            let (kinds, evaluation) = drain_events(rx);
            assert_eq!(kinds, lifecycle);
            let evaluation = evaluation.expect("healthy member completes");
            assert_eq!(
                evaluation.baseline.run_time.as_ns().to_bits(),
                alone.baseline.run_time.as_ns().to_bits()
            );
            assert_eq!(evaluation.schemes.len(), alone.schemes.len());
            for (a, b) in evaluation.schemes.iter().zip(&alone.schemes) {
                assert_eq!(a.name, b.name);
                assert_eq!(
                    a.result.stats.run_time.as_ns().to_bits(),
                    b.result.stats.run_time.as_ns().to_bits()
                );
                assert_eq!(
                    a.result.stats.total_energy.as_units().to_bits(),
                    b.result.stats.total_energy.as_units().to_bits()
                );
            }
        }
        // The dropped lanes never ran: one pass of the two healthy members'
        // three lanes each plus the baseline lane.
        let stats = evaluator.batch_stats();
        assert_eq!((stats.passes, stats.lanes), (1, 7));
        assert_eq!((stats.baselines_computed, stats.baselines_reused), (1, 1));
    }

    #[test]
    fn invalid_overrides_fail_typed_before_the_baseline() {
        use crate::scheme::names;
        let bench = mcd_workloads::suite::benchmark("adpcm decode").unwrap();
        let evaluator = Evaluator::builder().build();
        let jobs = [f64::NAN, -0.1, 1.0]
            .map(|d| {
                EvalJob::new(bench.clone())
                    .with_slowdown(d)
                    .with_schemes([names::ONLINE])
            })
            .to_vec();
        let mut failures = 0;
        for event in evaluator.submit_all(jobs) {
            match event {
                EvalEvent::JobFailed { error, .. } => {
                    assert!(matches!(error, McdError::InvalidConfig(_)), "{error}");
                    failures += 1;
                }
                EvalEvent::BaselineReady { .. } | EvalEvent::JobCompleted { .. } => {
                    panic!("an invalid job reached the baseline: {event:?}")
                }
                _ => {}
            }
        }
        assert_eq!(failures, 3);
        assert_eq!(evaluator.memo_stats().lookups(), 0);

        // A zero off-line window is rejected the same way, not clamped.
        let mut config = EvaluationConfig::default();
        config.offline.window_instructions = 0;
        let evaluator = Evaluator::builder().config(config).build();
        let err = evaluator.submit(EvalJob::new(bench)).collect().unwrap_err();
        assert!(matches!(err, McdError::InvalidConfig(_)));
        assert_eq!(evaluator.memo_stats().lookups(), 0);
    }

    #[test]
    fn panic_payloads_map_to_the_right_error_variant() {
        assert_eq!(
            panic_error(Box::new(InjectedPanic)),
            McdError::Fault {
                site: FaultSite::WorkerPanic
            }
        );
        assert_eq!(
            panic_error(Box::new("boom")),
            McdError::Panic("boom".into())
        );
        assert_eq!(
            panic_error(Box::new(String::from("kaboom"))),
            McdError::Panic("kaboom".into())
        );
        assert_eq!(
            panic_error(Box::new(42u32)),
            McdError::Panic("opaque panic payload".into())
        );
    }

    /// A worker-panic config whose first draw fires and whose next `clean`
    /// draws do not — deterministic, found by probing seeds.
    fn fire_then_clean_panics(clean: usize) -> crate::fault::FaultConfig {
        use crate::fault::FaultConfig;
        let config = |seed| {
            FaultConfig {
                seed,
                ..FaultConfig::default()
            }
            .with_probability(FaultSite::WorkerPanic, 0.5)
        };
        let seed = (0..10_000)
            .find(|&s| {
                let probe = FaultPlan::new(config(s));
                probe.should(FaultSite::WorkerPanic)
                    && (0..clean).all(|_| !probe.should(FaultSite::WorkerPanic))
            })
            .expect("a fire-then-clean seed exists");
        config(seed)
    }

    #[test]
    fn a_panicking_job_fails_alone_and_the_worker_keeps_serving() {
        use crate::scheme::names;
        let bench = mcd_workloads::suite::benchmark("adpcm decode").unwrap();
        // One worker processes the jobs in order: the first draw injects a
        // panic, the second job must still complete on the same thread.
        let evaluator = Evaluator::builder()
            .workers(1)
            .faults(Arc::new(FaultPlan::new(fire_then_clean_panics(1))))
            .build();
        let stream = evaluator.submit_all(vec![
            EvalJob::new(bench.clone()).with_schemes([names::ONLINE]),
            EvalJob::new(bench.clone()).with_schemes([names::ONLINE]),
        ]);
        let mut failures = Vec::new();
        let mut completed = 0;
        for event in stream {
            match event {
                EvalEvent::JobFailed { error, .. } => failures.push(error),
                EvalEvent::JobCompleted { .. } => completed += 1,
                _ => {}
            }
        }
        assert_eq!(
            failures,
            vec![McdError::Fault {
                site: FaultSite::WorkerPanic
            }],
            "the injected panic is reported as a Fault, not a generic Panic"
        );
        assert_eq!(completed, 1, "the worker survived and served the next job");
    }

    #[test]
    fn batch_member_panics_are_isolated_to_the_member() {
        use crate::scheme::names;
        let bench = mcd_workloads::suite::benchmark("adpcm decode").unwrap();
        let evaluator = Evaluator::builder()
            .workers(1)
            .faults(Arc::new(FaultPlan::new(fire_then_clean_panics(2))))
            .build();
        let batch = EvalJob::batch(vec![
            EvalJob::new(bench.clone()).with_schemes([names::ONLINE]),
            EvalJob::new(bench.clone()).with_schemes([names::ONLINE]),
            EvalJob::new(bench.clone()).with_schemes([names::ONLINE]),
        ])
        .expect("one benchmark");
        let stream = evaluator.submit_batch(batch);
        let jobs = stream.jobs().to_vec();
        let mut terminal_by_job: HashMap<JobId, u32> = HashMap::new();
        let mut faults = 0;
        let mut completed = 0;
        for event in stream {
            if event.is_terminal() {
                *terminal_by_job.entry(event.job()).or_default() += 1;
            }
            match event {
                EvalEvent::JobFailed { error, .. } => {
                    assert_eq!(
                        error,
                        McdError::Fault {
                            site: FaultSite::WorkerPanic
                        }
                    );
                    faults += 1;
                }
                EvalEvent::JobCompleted { .. } => completed += 1,
                _ => {}
            }
        }
        assert_eq!((faults, completed), (1, 2));
        // Every member reached exactly one terminal event.
        for job in jobs {
            assert_eq!(terminal_by_job.get(&job), Some(&1));
        }
    }

    #[test]
    fn baseline_keys_separate_benchmarks_and_machines() {
        let a = mcd_workloads::suite::benchmark("adpcm decode").unwrap();
        let b = mcd_workloads::suite::benchmark("gsm decode").unwrap();
        let machine = MachineConfig::default();
        assert_eq!(baseline_key(&a, &machine), baseline_key(&a, &machine));
        assert_ne!(baseline_key(&a, &machine), baseline_key(&b, &machine));
        let reseeded = machine.to_builder().seed(7).build().expect("valid");
        assert_ne!(baseline_key(&a, &machine), baseline_key(&a, &reseeded));
    }
}
