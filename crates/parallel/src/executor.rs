//! A minimal self-scheduling parallel map over indexed tasks.
//!
//! `par_map(count, threads, f)` evaluates `f(0), …, f(count−1)` on up to
//! `threads` scoped OS threads and returns the results **in index
//! order**. Work is claimed through one shared atomic counter
//! (self-scheduling), which is optimal for the near-equal-cost tasks the
//! experiment harness produces; results travel back through a bounded
//! `std::sync::mpsc` channel and are reassembled by index, so no
//! `unsafe`, no locks on the hot path, and no output-order dependence
//! on scheduling.

use std::num::NonZeroUsize;
// ORDERING: the one atomic here is a work-claim ticket counter; all
// result data flows through the channel, whose send/recv pair carries
// the happens-before edge. See the comments at the use sites.
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads to use by default: the machine's available
/// parallelism, or 1 if it cannot be determined.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Evaluates `f` at every index in `0..count` using at most `threads`
/// worker threads, returning results in index order.
///
/// `f` must be `Sync` (shared across workers) and the result `Send`.
/// With `threads <= 1` or `count <= 1` everything runs inline on the
/// caller's thread — handy for debugging and for exact sequential
/// baselines.
///
/// Panics in `f` propagate: the scope joins all workers and re-raises.
///
/// # Examples
///
/// ```
/// use bib_parallel::par_map;
/// let squares = par_map(5, 4, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]); // index order, any threads
/// ```
pub fn par_map<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if count == 0 {
        return Vec::new();
    }
    let workers = threads.max(1).min(count);
    if workers == 1 {
        return (0..count).map(&f).collect();
    }

    // ORDERING: `next` hands out task indices; uniqueness is all that
    // matters, not ordering against other memory, so Relaxed suffices.
    let next = AtomicUsize::new(0);
    let (tx, rx) = std::sync::mpsc::sync_channel::<(usize, T)>(count);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || {
                loop {
                    // ORDERING: Relaxed fetch_add — each worker needs a
                    // unique ticket; the result itself synchronises via
                    // the channel send below.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    // A send can only fail if the receiver dropped, which
                    // cannot happen while the scope is alive.
                    tx.send((i, f(i))).expect("result channel closed early");
                }
            });
        }
        drop(tx);
    });

    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    for (i, v) in rx {
        debug_assert!(slots[i].is_none(), "duplicate result for task {i}");
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("missing result for task {i}")))
        .collect()
}

/// Like [`par_map`] but folds the ordered results with `fold` starting
/// from `init` — a convenience for accumulating summaries.
pub fn par_map_reduce<T, A, F, G>(count: usize, threads: usize, f: F, init: A, mut fold: G) -> A
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    G: FnMut(A, T) -> A,
{
    par_map(count, threads, f)
        .into_iter()
        .fold(init, fold_adapter(&mut fold))
}

fn fold_adapter<A, T>(g: &mut impl FnMut(A, T) -> A) -> impl FnMut(A, T) -> A + '_ {
    move |a, t| g(a, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    // ORDERING: tests only count events with a Relaxed counter; the
    // scope join provides the final happens-before for the assert.
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_in_index_order() {
        let out = par_map(100, 8, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton() {
        assert!(par_map(0, 8, |i| i).is_empty());
        assert_eq!(par_map(1, 8, |i| i + 1), vec![1]);
    }

    #[test]
    fn single_thread_is_inline() {
        let out = par_map(10, 1, |i| i);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn every_task_runs_exactly_once() {
        // ORDERING: Relaxed is enough — par_map joins its scope before
        // returning, which orders every increment before the load.
        let counter = AtomicUsize::new(0);
        let out = par_map(500, 4, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            i
        });
        // ORDERING: reads after the scope join; Relaxed cannot miss.
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        // Tasks are pure functions of the index, so any thread count must
        // produce identical output — the property the replication harness
        // depends on.
        let f = |i: usize| {
            // A small deterministic computation.
            let mut x = i as u64 + 1;
            for _ in 0..10 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            x
        };
        let a = par_map(64, 1, f);
        let b = par_map(64, 3, f);
        let c = par_map(64, 16, f);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn unbalanced_work_self_schedules() {
        // Regression guard for the self-scheduling claim: task 0 blocks
        // until every other task has finished. Under static chunking
        // (worker 0 owns tasks 0..count/2) the tasks stuck behind task 0
        // would never run and this would deadlock; under ticket
        // self-scheduling the other worker drains every remaining task
        // while task 0 waits, so it completes promptly. The spin is
        // capped so a scheduling regression fails loudly instead of
        // hanging the suite.
        const COUNT: usize = 64;
        // ORDERING: Relaxed — the counter is only a progress tally;
        // task 0 needs no data published by the other tasks.
        let finished = AtomicUsize::new(0);
        let out = par_map(COUNT, 2, |i| {
            if i == 0 {
                let mut spins = 0u64;
                // ORDERING: Relaxed — progress tally only.
                while finished.load(Ordering::Relaxed) < COUNT - 1 {
                    std::thread::yield_now();
                    spins += 1;
                    assert!(
                        spins < 10_000_000,
                        "task 0 starved: tasks are not self-scheduled"
                    );
                }
            } else {
                // ORDERING: Relaxed — progress tally only.
                finished.fetch_add(1, Ordering::Relaxed);
            }
            i
        });
        assert_eq!(out, (0..COUNT).collect::<Vec<_>>());
    }

    #[test]
    fn more_threads_than_tasks() {
        let out = par_map(3, 64, |i| i);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn map_reduce_sums() {
        let total = par_map_reduce(100, 4, |i| i as u64, 0u64, |a, b| a + b);
        assert_eq!(total, 4950);
    }

    #[test]
    fn available_threads_positive() {
        assert!(available_threads() >= 1);
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        par_map(8, 4, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
