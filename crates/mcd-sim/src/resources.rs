//! Structural resource models: functional-unit pools, occupancy-bounded queues
//! and bounded-width pipeline stages.
//!
//! The timing model is event-based rather than cycle-by-cycle, so resources are
//! represented by *availability times*: a pool of functional units is a set of
//! next-free times, a queue of size `N` delays a new entry until one of the `N`
//! previously admitted entries has departed, and a width-`W` stage admits at
//! most `W` instructions per cycle of its clock domain.

use crate::time::TimeNs;
use std::collections::VecDeque;

/// A pool of identical functional units.
///
/// ```
/// use mcd_sim::resources::UnitPool;
/// use mcd_sim::time::TimeNs;
/// let mut alus = UnitPool::new(2);
/// // Two units are free immediately; the third request waits for the earliest.
/// assert_eq!(alus.acquire(TimeNs::new(0.0), TimeNs::new(5.0)).as_ns(), 0.0);
/// assert_eq!(alus.acquire(TimeNs::new(0.0), TimeNs::new(5.0)).as_ns(), 0.0);
/// assert_eq!(alus.acquire(TimeNs::new(0.0), TimeNs::new(5.0)).as_ns(), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct UnitPool {
    next_free: Vec<TimeNs>,
}

impl UnitPool {
    /// Creates a pool with `units` functional units, all free at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero.
    pub fn new(units: u32) -> Self {
        assert!(units > 0, "a unit pool needs at least one unit");
        UnitPool {
            next_free: vec![TimeNs::ZERO; units as usize],
        }
    }

    /// Number of units in the pool.
    pub fn len(&self) -> usize {
        self.next_free.len()
    }

    /// Always false (pools have at least one unit).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Acquires a unit no earlier than `ready`, occupying it until
    /// `start + busy_for`. Returns the actual start time (the max of `ready` and
    /// the earliest unit's availability).
    pub fn acquire(&mut self, ready: TimeNs, busy_for: TimeNs) -> TimeNs {
        let (idx, earliest) = self
            .next_free
            .iter()
            .copied()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("times are not NaN"))
            .expect("pool is non-empty");
        let start = ready.max(earliest);
        self.next_free[idx] = start + busy_for;
        start
    }
}

/// An occupancy-bounded queue (issue queue, load/store queue, reorder buffer)
/// used in two phases: [`admit`](OccupancyQueue::admit) when an instruction
/// wants to enter the structure, and [`depart`](OccupancyQueue::depart) once
/// the instruction's departure time is known.
///
/// Instructions are processed in program order, so `admit`/`depart` calls come
/// in matched, ordered pairs: admit(i), depart(i), admit(i+1), depart(i+1), …
///
/// ```
/// use mcd_sim::resources::OccupancyQueue;
/// use mcd_sim::time::TimeNs;
/// let mut q = OccupancyQueue::new(2);
/// assert_eq!(q.admit(TimeNs::new(0.0)).as_ns(), 0.0);
/// q.depart(TimeNs::new(100.0));
/// assert_eq!(q.admit(TimeNs::new(1.0)).as_ns(), 1.0);
/// q.depart(TimeNs::new(50.0));
/// // Queue is full with entries departing at 100 and 50; the next admission at
/// // t=2 must wait for the oldest admitted entry (departs at 100).
/// assert_eq!(q.admit(TimeNs::new(2.0)).as_ns(), 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OccupancyQueue {
    capacity: usize,
    // Departure times of currently occupying entries, in admission order.
    departures: VecDeque<TimeNs>,
    peak_occupancy: usize,
    admissions: u64,
    occupancy_sum: f64,
}

impl OccupancyQueue {
    /// Creates a queue with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        OccupancyQueue {
            capacity: capacity as usize,
            departures: VecDeque::with_capacity(capacity as usize + 1),
            peak_occupancy: 0,
            admissions: 0,
            occupancy_sum: 0.0,
        }
    }

    /// The queue capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Requests admission for an instruction ready at `ready`. Returns the
    /// earliest time the entry can actually be allocated (delayed while the
    /// queue is full of entries that have not yet departed).
    pub fn admit(&mut self, ready: TimeNs) -> TimeNs {
        // Drop entries that have already departed by `ready`.
        while let Some(&front) = self.departures.front() {
            if front <= ready {
                self.departures.pop_front();
            } else {
                break;
            }
        }
        let start = if self.departures.len() >= self.capacity {
            // Wait for the oldest occupant to depart.
            let oldest = self
                .departures
                .pop_front()
                .expect("full queue is non-empty");
            ready.max(oldest)
        } else {
            ready
        };
        self.admissions += 1;
        self.occupancy_sum += self.departures.len() as f64;
        self.peak_occupancy = self.peak_occupancy.max(self.departures.len() + 1);
        start
    }

    /// Records the departure time of the most recently admitted instruction.
    pub fn depart(&mut self, at: TimeNs) {
        self.departures.push_back(at);
    }

    /// Number of entries currently tracked as occupying the queue.
    pub fn occupancy(&self) -> usize {
        self.departures.len()
    }

    /// Highest occupancy observed so far.
    pub fn peak_occupancy(&self) -> usize {
        self.peak_occupancy
    }

    /// Total admissions so far.
    pub fn admissions(&self) -> u64 {
        self.admissions
    }

    /// Average occupancy observed at admission time, as a fraction of capacity
    /// in `[0, 1]`. This is the utilization signal the on-line attack–decay
    /// controller monitors.
    pub fn average_utilization(&self) -> f64 {
        if self.admissions == 0 {
            return 0.0;
        }
        (self.occupancy_sum / self.admissions as f64 / self.capacity as f64).min(1.0)
    }
}

/// A pipeline stage that admits at most `width` instructions per cycle of its
/// clock domain (fetch/decode groups, retire groups).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StagePacer {
    width: u32,
    group_start: TimeNs,
    in_group: u32,
}

impl StagePacer {
    /// Creates a pacer with the given per-cycle width.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: u32) -> Self {
        assert!(width > 0, "stage width must be positive");
        StagePacer {
            width,
            group_start: TimeNs::ZERO,
            in_group: 0,
        }
    }

    /// The stage width.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Admits one instruction that is ready at `ready`, where one cycle of the
    /// stage's domain currently lasts `period`. Returns the admission time.
    pub fn admit(&mut self, ready: TimeNs, period: TimeNs) -> TimeNs {
        let group_end = self.group_start + period;
        if ready >= group_end {
            // New group starting at the instruction's own ready time.
            self.group_start = ready;
            self.in_group = 1;
            ready
        } else if self.in_group < self.width {
            self.in_group += 1;
            ready.max(self.group_start)
        } else {
            // Group full: start the next group one period later.
            self.group_start = group_end;
            self.in_group = 1;
            group_end
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_pool_serializes_when_oversubscribed() {
        let mut pool = UnitPool::new(1);
        let a = pool.acquire(TimeNs::new(0.0), TimeNs::new(3.0));
        let b = pool.acquire(TimeNs::new(1.0), TimeNs::new(3.0));
        let c = pool.acquire(TimeNs::new(2.0), TimeNs::new(3.0));
        assert_eq!(a.as_ns(), 0.0);
        assert_eq!(b.as_ns(), 3.0);
        assert_eq!(c.as_ns(), 6.0);
    }

    #[test]
    fn unit_pool_parallel_units_do_not_interfere() {
        let mut pool = UnitPool::new(4);
        for i in 0..4 {
            let s = pool.acquire(TimeNs::new(i as f64), TimeNs::new(10.0));
            assert_eq!(s.as_ns(), i as f64);
        }
        // Fifth request waits for the earliest completion (at t=10).
        let s = pool.acquire(TimeNs::new(4.0), TimeNs::new(1.0));
        assert_eq!(s.as_ns(), 10.0);
        assert_eq!(pool.len(), 4);
        assert!(!pool.is_empty());
    }

    #[test]
    fn queue_delays_when_full() {
        let mut q = OccupancyQueue::new(2);
        assert_eq!(q.admit(TimeNs::new(0.0)).as_ns(), 0.0);
        q.depart(TimeNs::new(100.0));
        assert_eq!(q.admit(TimeNs::new(1.0)).as_ns(), 1.0);
        q.depart(TimeNs::new(50.0));
        // Full: waits for the oldest admitted entry (departs at 100).
        assert_eq!(q.admit(TimeNs::new(2.0)).as_ns(), 100.0);
        q.depart(TimeNs::new(120.0));
        assert_eq!(q.admissions(), 3);
        assert!(q.peak_occupancy() >= 2);
    }

    #[test]
    fn queue_frees_departed_entries() {
        let mut q = OccupancyQueue::new(2);
        q.admit(TimeNs::new(0.0));
        q.depart(TimeNs::new(1.0));
        q.admit(TimeNs::new(0.5));
        q.depart(TimeNs::new(1.5));
        // Both entries have departed by t=10, so this does not wait.
        assert_eq!(q.admit(TimeNs::new(10.0)).as_ns(), 10.0);
        q.depart(TimeNs::new(11.0));
        assert_eq!(q.occupancy(), 1);
    }

    #[test]
    fn queue_utilization_in_unit_range() {
        let mut q = OccupancyQueue::new(4);
        for i in 0..100 {
            let t = i as f64;
            q.admit(TimeNs::new(t));
            q.depart(TimeNs::new(t + 8.0));
        }
        let u = q.average_utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u} out of range");
        assert_eq!(OccupancyQueue::new(4).average_utilization(), 0.0);
    }

    #[test]
    fn queue_utilization_reflects_pressure() {
        // Short-lived entries: low occupancy at admission.
        let mut light = OccupancyQueue::new(8);
        for i in 0..200 {
            let t = i as f64;
            light.admit(TimeNs::new(t));
            light.depart(TimeNs::new(t + 0.5));
        }
        // Long-lived entries: queue persistently full.
        let mut heavy = OccupancyQueue::new(8);
        for i in 0..200 {
            let t = i as f64;
            heavy.admit(TimeNs::new(t));
            heavy.depart(TimeNs::new(t + 100.0));
        }
        assert!(heavy.average_utilization() > light.average_utilization());
    }

    #[test]
    fn pacer_limits_per_cycle_throughput() {
        let mut p = StagePacer::new(2);
        let period = TimeNs::new(1.0);
        // Four instructions all ready at t=0: two admitted at 0, two at 1.
        let t0 = p.admit(TimeNs::new(0.0), period);
        let t1 = p.admit(TimeNs::new(0.0), period);
        let t2 = p.admit(TimeNs::new(0.0), period);
        let t3 = p.admit(TimeNs::new(0.0), period);
        assert_eq!(t0.as_ns(), 0.0);
        assert_eq!(t1.as_ns(), 0.0);
        assert_eq!(t2.as_ns(), 1.0);
        assert_eq!(t3.as_ns(), 1.0);
    }

    #[test]
    fn pacer_new_group_on_late_arrival() {
        let mut p = StagePacer::new(4);
        let period = TimeNs::new(2.0);
        assert_eq!(p.admit(TimeNs::new(0.0), period).as_ns(), 0.0);
        // An instruction arriving well after the current group starts a new one.
        assert_eq!(p.admit(TimeNs::new(10.0), period).as_ns(), 10.0);
        assert_eq!(p.width(), 4);
    }
}
