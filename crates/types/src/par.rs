//! The one index-ordered parallel map every sweep and campaign runs on.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker threads for `n` independent units: `threads`, or one per
/// available core when it is 0, capped at `n` and at least 1.
pub fn worker_count(threads: usize, n: usize) -> usize {
    let threads = if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    };
    threads.min(n).max(1)
}

/// Maps `f` over `0..n` on [`worker_count`]`(threads, n)` scoped threads
/// that claim indices from a shared counter, returning the results in
/// index order whichever worker finished first.
///
/// # Panics
///
/// Propagates a panic of `f`.
pub fn parallel_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = worker_count(threads, n);
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break local;
                        }
                        local.push((i, f(i)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("parallel_map worker panicked"))
            .collect()
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order_at_any_thread_count() {
        let want: Vec<usize> = (0..100).map(|i| i * i).collect();
        for threads in [0, 1, 3, 16] {
            assert_eq!(
                parallel_map(100, threads, |i| i * i),
                want,
                "{threads} threads"
            );
        }
        assert!(parallel_map(0, 4, |i| i).is_empty());
    }

    /// Collected into a `Result`, the first failure in index order wins,
    /// whichever worker met a failure first.
    #[test]
    fn collected_results_fail_on_the_first_failure_in_index_order() {
        for threads in [1, 4] {
            let got: Result<Vec<usize>, usize> =
                parallel_map(50, threads, |i| if i % 7 == 3 { Err(i) } else { Ok(i) })
                    .into_iter()
                    .collect();
            assert_eq!(got, Err(3), "{threads} threads");
        }
    }

    #[test]
    fn worker_count_is_capped_by_the_work() {
        assert_eq!(worker_count(8, 3), 3);
        assert_eq!(worker_count(2, 10), 2);
        assert_eq!(worker_count(5, 0), 1);
        assert!(worker_count(0, 10) >= 1);
    }
}
