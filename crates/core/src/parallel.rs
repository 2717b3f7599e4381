//! Thread-pool scaffolding shared by the evaluation layers.
//!
//! One shape lives here: [`parallel_map`] — apply a pure function to each
//! index of a *fixed* work list on a bounded pool of scoped threads,
//! collecting results in input order so the outcome is bit-identical to a
//! serial loop. Both batch parallel levels (benchmarks across a suite,
//! windows within an off-line analysis, see
//! [`crate::pipeline::window::analyze_windows`]) use it.
//!
//! The *open-ended* work list of the long-lived
//! [`Evaluator`](crate::service::Evaluator) service lives in the service
//! layer instead, in its priority-classed queue (`service::scheduler`).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every index in `0..count`, spreading the calls over up to
/// `workers` scoped threads, and returns the results in index order.
///
/// With one worker (or one item) this degenerates to a serial loop; any
/// worker count produces the same output vector, because each index's result
/// is written to its own slot.
pub(crate) fn parallel_map<T, F>(count: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = workers.max(1).min(count.max(1));
    if workers <= 1 {
        return (0..count).map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    break;
                }
                let value = f(i);
                *slots[i]
                    .lock()
                    .expect("no panics while holding the slot lock") = Some(value);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("worker threads have exited")
                .expect("every index was mapped")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_for_any_worker_count() {
        let serial = parallel_map(37, 1, |i| i * i);
        for workers in [2, 4, 64] {
            assert_eq!(parallel_map(37, workers, |i| i * i), serial);
        }
        assert_eq!(serial[36], 36 * 36);
    }

    #[test]
    fn handles_empty_and_single_item_lists() {
        assert_eq!(parallel_map(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_map(1, 8, |i| i + 1), vec![1]);
        assert_eq!(parallel_map(3, 0, |i| i), vec![0, 1, 2]);
    }
}
