//! Priority scheduling and admission control for the [`Evaluator`]
//! (see the [service docs](crate::service)).
//!
//! Three pieces live here:
//!
//! * [`Priority`] — the public priority classes a submitter stamps on an
//!   [`EvalJob`](crate::service::EvalJob).
//! * [`Scheduler`] — the worker pool's queue: one FIFO deque per priority
//!   class under one lock, shared by every worker, so per-class FIFO holds
//!   across the whole pool. Higher classes are served first, but a lower
//!   class that has been bypassed [`STARVATION_LIMIT`] times in a row is
//!   served next regardless — background work makes progress under any
//!   interactive load. The same lock owns admission: the capacity bound, the
//!   rate limiter and the [`AdmissionStats`] counters, so an admission
//!   decision and the insertion it allows are one atomic step. Capacity is
//!   checked first and only a submission that fits spends rate-limiter
//!   tokens: when both limits would refuse it, the reason is queue-full.
//! * [`TokenBucket`] — the admission front-end's rate limiter: a classic
//!   token bucket (capacity = burst, steady refill), driven by explicit
//!   timestamps so admission decisions are unit-testable without sleeping.
//!
//! [`Evaluator`]: crate::service::Evaluator

use crate::fault::plan::LOCK_STALL;
use crate::fault::{FaultPlan, FaultSite};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// Priority class of one submission, highest first.
///
/// Classes share the evaluator; they only decide who goes first when the
/// queue is contended. Within a class, jobs are served FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Latency-sensitive work: served before everything else.
    Interactive,
    /// The default class: bulk evaluations, sweeps, figure regeneration.
    #[default]
    Batch,
    /// Best-effort work (speculative warming, training-data generation):
    /// served when nothing more urgent is queued, but never starved — see
    /// [`STARVATION_LIMIT`].
    Background,
}

impl Priority {
    /// Every class, highest priority first.
    pub const ALL: [Priority; 3] = [Priority::Interactive, Priority::Batch, Priority::Background];

    /// Index into per-class arrays (0 = most urgent).
    fn index(self) -> usize {
        match self {
            Priority::Interactive => 0,
            Priority::Batch => 1,
            Priority::Background => 2,
        }
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
            Priority::Background => "background",
        })
    }
}

/// How many times a non-empty lower class may be bypassed by higher-priority
/// pops before it is served regardless. The bound is per class: under a
/// saturating interactive stream, a queued background item still pops
/// within `STARVATION_LIMIT + 1` pops.
pub const STARVATION_LIMIT: u32 = 7;

/// Counters of the admission front-end, one increment per job (a rejected
/// batch counts each member).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Jobs accepted through the capacity-checked entry point.
    pub accepted: u64,
    /// Jobs rejected because the queue was at capacity.
    pub rejected_queue_full: u64,
    /// Jobs rejected by the rate limiter.
    pub rejected_rate_limited: u64,
}

impl AdmissionStats {
    /// Total rejected jobs across both reasons.
    pub fn rejected(&self) -> u64 {
        self.rejected_queue_full + self.rejected_rate_limited
    }
}

/// One queued entry: the payload plus its accounting weight (a batched group
/// counts each member toward queue depth and capacity).
struct Entry<T> {
    jobs: usize,
    item: T,
}

/// Everything the scheduler's one lock guards.
struct State<T> {
    /// A FIFO deque per priority class, most urgent first.
    classes: [VecDeque<Entry<T>>; 3],
    /// Bypass counters the starvation guard reads.
    skipped: [u32; 3],
    /// Queued jobs (a batch counts its members).
    jobs: usize,
    /// High-water mark of `jobs`.
    peak_jobs: usize,
    closed: bool,
    aborted: bool,
    /// Rate limiter of the checked pushes.
    rate: Option<TokenBucket>,
    admission: AdmissionStats,
}

impl<T> State<T> {
    fn is_empty(&self) -> bool {
        self.classes.iter().all(VecDeque::is_empty)
    }

    /// Serves the next entry under the priority discipline: a class bypassed
    /// [`STARVATION_LIMIT`] times goes first (the most-starved such class
    /// wins), otherwise the most urgent non-empty class; every lower
    /// non-empty class it bypasses ages by one.
    fn pop(&mut self) -> Option<Entry<T>> {
        let starved = (0..3)
            .filter(|&c| self.skipped[c] >= STARVATION_LIMIT && !self.classes[c].is_empty())
            .max_by_key(|&c| self.skipped[c]);
        if let Some(c) = starved {
            self.skipped[c] = 0;
            return self.classes[c].pop_front();
        }
        let c = (0..3).find(|&c| !self.classes[c].is_empty())?;
        self.skipped[c] = 0;
        // Aging only counts against classes that actually had work.
        for lower in c + 1..3 {
            self.skipped[lower] = if self.classes[lower].is_empty() {
                0
            } else {
                self.skipped[lower] + 1
            };
        }
        self.classes[c].pop_front()
    }
}

/// The outcome of a push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PushOutcome {
    /// Accepted; carries the queue depth (in jobs) after the push.
    Pushed(usize),
    /// Rejected: the entry's jobs would exceed the capacity. Carries the
    /// current depth.
    Full(usize),
    /// Rejected: the rate limiter ran dry.
    RateLimited,
    /// Rejected: the scheduler is shutting down.
    Closed,
}

/// A priority-classed blocking queue with admission control, under one
/// lock.
///
/// See the [module docs](self) for the discipline. All methods are safe to
/// call from any thread.
pub(crate) struct Scheduler<T> {
    state: Mutex<State<T>>,
    /// Signalled to workers when an entry lands, and on close and abort.
    available: Condvar,
    /// Signalled to [`wait_empty`](Scheduler::wait_empty) when the queue
    /// empties.
    drained: Condvar,
    /// Bound (in jobs) of the checked pushes.
    capacity: Option<usize>,
    /// Fault-injection plan consulted per pop ([`FaultSite::LockStall`]
    /// models a descheduled consumer); the default plan is disabled.
    faults: Arc<FaultPlan>,
}

impl<T> std::fmt::Debug for Scheduler<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("depth_jobs", &self.depth())
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl<T> Scheduler<T> {
    /// Creates an empty scheduler whose checked pushes are bounded at
    /// `capacity` jobs and charged against `rate` (either may be absent).
    pub(crate) fn new(capacity: Option<usize>, rate: Option<TokenBucket>) -> Self {
        Scheduler {
            state: Mutex::new(State {
                classes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
                skipped: [0; 3],
                jobs: 0,
                peak_jobs: 0,
                closed: false,
                aborted: false,
                rate,
                admission: AdmissionStats::default(),
            }),
            available: Condvar::new(),
            drained: Condvar::new(),
            capacity,
            faults: Arc::new(FaultPlan::disabled()),
        }
    }

    /// Installs a fault-injection plan (see [`crate::fault`]); pops then
    /// stall under [`FaultSite::LockStall`] draws.
    pub(crate) fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    fn state(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().expect("scheduler lock never poisoned")
    }

    /// The bound (in jobs) of the checked pushes.
    pub(crate) fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Current queue depth in jobs (batch members counted individually).
    pub(crate) fn depth(&self) -> usize {
        self.state().jobs
    }

    /// High-water mark of the queue depth in jobs.
    pub(crate) fn peak_depth(&self) -> usize {
        self.state().peak_jobs
    }

    /// Snapshot of the admission counters (checked pushes only).
    pub(crate) fn admission_stats(&self) -> AdmissionStats {
        self.state().admission
    }

    /// Enqueues one entry of weight `jobs` under `priority`. A `checked`
    /// entry passes admission first: the depth may not exceed the capacity,
    /// and only an entry that fits is charged `jobs` rate-limiter tokens, so
    /// an entry both limits would refuse is `Full` and spends no tokens; the
    /// admission counters record the verdict. An unchecked entry skips both. Entries
    /// arriving after [`close`](Scheduler::close) are refused either way.
    ///
    /// `decided` sees the item and the outcome under the lock, before the
    /// entry becomes poppable, so whatever it sends (a "queued" event) is
    /// ordered ahead of anything a worker does with the entry. A refused item
    /// is dropped after `decided` returns.
    pub(crate) fn enqueue(
        &self,
        item: T,
        priority: Priority,
        jobs: usize,
        checked: bool,
        decided: impl FnOnce(&T, &PushOutcome),
    ) -> PushOutcome {
        let mut state = self.state();
        let outcome = if state.closed {
            PushOutcome::Closed
        } else if !checked {
            PushOutcome::Pushed(state.jobs + jobs)
        } else if self.capacity.is_some_and(|cap| state.jobs + jobs > cap) {
            state.admission.rejected_queue_full += jobs as u64;
            PushOutcome::Full(state.jobs)
        } else if let Some(false) = state
            .rate
            .as_mut()
            .map(|rate| rate.try_take(jobs as f64, Instant::now()))
        {
            state.admission.rejected_rate_limited += jobs as u64;
            PushOutcome::RateLimited
        } else {
            state.admission.accepted += jobs as u64;
            PushOutcome::Pushed(state.jobs + jobs)
        };
        decided(&item, &outcome);
        if let PushOutcome::Pushed(depth) = outcome {
            state.jobs = depth;
            state.peak_jobs = state.peak_jobs.max(depth);
            state.classes[priority.index()].push_back(Entry { jobs, item });
            self.available.notify_one();
        }
        outcome
    }

    /// A checked [`enqueue`](Scheduler::enqueue) without a callback.
    #[cfg(test)]
    fn try_push(&self, item: T, priority: Priority, jobs: usize) -> PushOutcome {
        self.enqueue(item, priority, jobs, true, |_, _| {})
    }

    /// An unchecked [`enqueue`](Scheduler::enqueue) without a callback.
    #[cfg(test)]
    fn push(&self, item: T, priority: Priority, jobs: usize) {
        self.enqueue(item, priority, jobs, false, |_, _| {});
    }

    /// Dequeues the next item. Blocks while the scheduler is empty and open;
    /// returns `None` once it is closed and drained, or immediately after an
    /// [`abort`](Scheduler::abort).
    pub(crate) fn pop(&self) -> Option<T> {
        if self.faults.should(FaultSite::LockStall) {
            // A descheduled consumer: queued work waits while its worker is
            // off-CPU, widening the push/pop race windows.
            std::thread::sleep(LOCK_STALL);
        }
        let mut state = self.state();
        loop {
            if state.aborted {
                return None;
            }
            if let Some(entry) = state.pop() {
                state.jobs -= entry.jobs;
                if state.is_empty() {
                    self.drained.notify_all();
                }
                return Some(entry.item);
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .expect("scheduler lock never poisoned");
        }
    }

    /// Closes the scheduler: no new pushes are accepted; consumers drain what
    /// is left, then observe `None`.
    pub(crate) fn close(&self) {
        self.state().closed = true;
        self.available.notify_all();
    }

    /// Blocks until the queue is empty (in-flight work may still be running)
    /// or `deadline` passes; true when empty.
    pub(crate) fn wait_empty(&self, deadline: Instant) -> bool {
        let mut state = self.state();
        loop {
            if state.is_empty() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            state = self
                .drained
                .wait_timeout(state, deadline - now)
                .expect("scheduler lock never poisoned")
                .0;
        }
    }

    /// Aborts: closes the scheduler, makes every blocked and future `pop`
    /// return `None` immediately (workers finish their in-flight item and
    /// exit), and returns everything still queued so the caller can emit
    /// terminal events for it.
    pub(crate) fn abort(&self) -> Vec<T> {
        let mut state = self.state();
        state.closed = true;
        state.aborted = true;
        state.jobs = 0;
        let items = state
            .classes
            .iter_mut()
            .flat_map(|class| class.drain(..).map(|entry| entry.item))
            .collect();
        self.available.notify_all();
        self.drained.notify_all();
        items
    }
}

/// A token-bucket rate limiter: `burst` tokens of headroom, refilled at
/// `per_second` tokens per second. Driven by explicit [`Instant`]s so the
/// admission logic is testable without wall-clock sleeps.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    per_second: f64,
    burst: f64,
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    /// A full bucket. `per_second` and `burst` are floored to small positive
    /// values so a zero-configured limiter still admits work slowly instead
    /// of deadlocking submissions.
    pub(crate) fn new(per_second: f64, burst: f64, now: Instant) -> Self {
        let per_second = if per_second > 0.0 {
            per_second
        } else {
            f64::MIN_POSITIVE
        };
        let burst = if burst >= 1.0 { burst } else { 1.0 };
        TokenBucket {
            per_second,
            burst,
            tokens: burst,
            last: now,
        }
    }

    /// Takes `n` tokens if available at `now`; false means "rate limited".
    pub(crate) fn try_take(&mut self, n: f64, now: Instant) -> bool {
        let elapsed = now.saturating_duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + elapsed * self.per_second).min(self.burst);
        if self.tokens >= n {
            self.tokens -= n;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[test]
    fn priority_order_and_display() {
        assert!(Priority::Interactive < Priority::Batch);
        assert!(Priority::Batch < Priority::Background);
        assert_eq!(Priority::default(), Priority::Batch);
        assert_eq!(Priority::Background.to_string(), "background");
    }

    #[test]
    fn serves_higher_classes_first_fifo_within_class() {
        let q: Scheduler<u32> = Scheduler::new(None, None);
        q.push(1, Priority::Background, 1);
        q.push(2, Priority::Batch, 1);
        q.push(3, Priority::Interactive, 1);
        q.push(4, Priority::Interactive, 1);
        q.push(5, Priority::Batch, 1);
        q.close();
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![3, 4, 2, 5, 1]);
    }

    #[test]
    fn starvation_guard_bounds_background_wait() {
        let q: Scheduler<&'static str> = Scheduler::new(None, None);
        q.push("bg", Priority::Background, 1);
        // A saturating interactive stream: the background item must still pop
        // within STARVATION_LIMIT + 1 pops.
        for _ in 0..64 {
            q.push("fg", Priority::Interactive, 1);
        }
        let mut pops = 0;
        loop {
            let item = q.pop().expect("queue is non-empty");
            pops += 1;
            if item == "bg" {
                break;
            }
            // Keep the interactive class saturated.
            q.push("fg", Priority::Interactive, 1);
            assert!(
                pops <= STARVATION_LIMIT + 1,
                "background item starved for {pops} pops"
            );
        }
        assert_eq!(pops, STARVATION_LIMIT + 1);
    }

    #[test]
    fn capacity_is_enforced_at_job_granularity() {
        let q: Scheduler<u8> = Scheduler::new(Some(4), None);
        assert_eq!(q.try_push(0, Priority::Batch, 3), PushOutcome::Pushed(3));
        // A 2-job batch would reach 5 > 4.
        assert_eq!(q.try_push(1, Priority::Batch, 2), PushOutcome::Full(3));
        assert_eq!(q.try_push(2, Priority::Batch, 1), PushOutcome::Pushed(4));
        assert_eq!(q.depth(), 4);
        assert_eq!(q.peak_depth(), 4);
        assert!(q.pop().is_some());
        q.close();
        assert_eq!(q.try_push(3, Priority::Batch, 1), PushOutcome::Closed);
    }

    #[test]
    fn a_queue_full_rejection_spends_no_rate_budget() {
        // A near-zero refill: the burst of two tokens is all there is.
        let rate = TokenBucket::new(1e-9, 2.0, Instant::now());
        let q: Scheduler<u8> = Scheduler::new(Some(1), Some(rate));
        assert_eq!(q.try_push(0, Priority::Batch, 1), PushOutcome::Pushed(1));
        // Both limits would refuse this one; the queue bound says why.
        assert_eq!(q.try_push(1, Priority::Batch, 1), PushOutcome::Full(1));
        assert_eq!(q.pop(), Some(0));
        // The rejected push left its token for this one.
        assert_eq!(q.try_push(2, Priority::Batch, 1), PushOutcome::Pushed(1));
        assert_eq!(q.try_push(3, Priority::Batch, 1), PushOutcome::Full(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.try_push(4, Priority::Batch, 1), PushOutcome::RateLimited);
        let stats = q.admission_stats();
        assert_eq!(
            (
                stats.accepted,
                stats.rejected_queue_full,
                stats.rejected_rate_limited
            ),
            (2, 2, 1)
        );
    }

    #[test]
    fn concurrent_consumers_drain_everything_exactly_once() {
        let q: Arc<Scheduler<u64>> = Arc::new(Scheduler::new(None, None));
        let sum = Arc::new(AtomicU64::new(0));
        let total = 500u64;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let q = q.clone();
                let sum = sum.clone();
                scope.spawn(move || {
                    while let Some(v) = q.pop() {
                        sum.fetch_add(v, Ordering::Relaxed);
                    }
                });
            }
            for v in 1..=total {
                let class = Priority::ALL[(v % 3) as usize];
                q.push(v, class, 1);
            }
            q.close();
        });
        assert_eq!(sum.load(Ordering::Relaxed), total * (total + 1) / 2);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn abort_returns_the_leftovers_and_unblocks_pops() {
        let q: Scheduler<u32> = Scheduler::new(None, None);
        for v in 0..6 {
            q.push(v, Priority::Batch, 1);
        }
        assert!(q.pop().is_some());
        let mut left = q.abort();
        left.sort_unstable();
        assert_eq!(left.len(), 5);
        assert_eq!(q.pop(), None);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn wait_empty_observes_drain_and_timeout() {
        let q: Arc<Scheduler<u32>> = Arc::new(Scheduler::new(None, None));
        q.push(1, Priority::Batch, 1);
        // Timeout path: nobody pops.
        assert!(!q.wait_empty(Instant::now() + Duration::from_millis(20)));
        // Drain path: a consumer empties the queue while we wait.
        std::thread::scope(|scope| {
            let q2 = q.clone();
            scope.spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                assert!(q2.pop().is_some());
            });
            assert!(q.wait_empty(Instant::now() + Duration::from_secs(5)));
        });
    }

    #[test]
    fn pop_stalls_under_injected_lock_stall_but_still_serves() {
        let plan = crate::fault::FaultPlan::new(
            crate::fault::FaultConfig::default().with_probability(FaultSite::LockStall, 1.0),
        );
        let q: Scheduler<u32> = Scheduler::new(None, None).with_faults(Arc::new(plan));
        q.push(1, Priority::Batch, 1);
        let started = Instant::now();
        assert_eq!(q.pop(), Some(1), "a stalled pop still serves its item");
        assert!(started.elapsed() >= LOCK_STALL);
    }

    #[test]
    fn token_bucket_burst_then_steady_rate() {
        let t0 = Instant::now();
        let mut bucket = TokenBucket::new(10.0, 3.0, t0);
        // The burst admits three immediately.
        assert!(bucket.try_take(1.0, t0));
        assert!(bucket.try_take(1.0, t0));
        assert!(bucket.try_take(1.0, t0));
        assert!(!bucket.try_take(1.0, t0));
        // 100 ms at 10/s refills one token.
        let t1 = t0 + Duration::from_millis(100);
        assert!(bucket.try_take(1.0, t1));
        assert!(!bucket.try_take(1.0, t1));
        // Refill saturates at the burst.
        let t2 = t1 + Duration::from_secs(60);
        assert!(bucket.try_take(3.0, t2));
        assert!(!bucket.try_take(1.0, t2));
    }
}
