//! The multi-threaded scan driver, built on scoped threads.
//!
//! [`par_map_weighted`] is a generic per-unit driver: apply a kernel to
//! every work item across scoped worker threads and return the results
//! **in item order**, so callers that fold results (answers,
//! observations) see exactly the sequence a sequential loop would have
//! produced. Work is split into one contiguous run of items per thread,
//! balanced by a caller-supplied weight (rows, typically).
//!
//! Skip-heavy scans rarely benefit (they touch little data), so
//! parallelism is opt-in via the engine's executor policy.

/// Minimum rows per thread before parallelism pays for thread start-up.
pub const MIN_ROWS_PER_THREAD: usize = 1 << 18;

/// How many worker threads a workload of `total_weight` rows can keep
/// profitably busy: `requested` clamped so every thread gets at least
/// `min_per_thread` rows (never below 1 thread).
pub fn effective_threads(total_weight: usize, requested: usize, min_per_thread: usize) -> usize {
    if requested <= 1 {
        return 1;
    }
    requested.min(total_weight / min_per_thread.max(1)).max(1)
}

/// Applies `f` to every item of `items` using up to `threads` scoped
/// worker threads, returning results in item order.
///
/// `f` receives `(item_index, &item)`. Each thread processes one
/// contiguous run of items — balanced by `weight` (e.g. rows per scan
/// unit) — so result order, and therefore any order-sensitive fold the
/// caller performs (floating-point sums, observation feedback), is
/// identical to a sequential `items.iter().map`.
pub fn par_map_weighted<I, R, F, W>(items: &[I], threads: usize, weight: W, f: F) -> Vec<R>
where
    I: Sync,
    R: Send,
    F: Fn(usize, &I) -> R + Sync,
    W: Fn(&I) -> usize,
{
    if threads <= 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }
    let total: usize = items.iter().map(&weight).sum();
    let threads = threads.min(items.len());
    let per_thread = total.div_ceil(threads).max(1);

    // Cut the item list into contiguous runs of ~per_thread weight.
    let mut runs: Vec<(usize, usize)> = Vec::with_capacity(threads);
    let mut start = 0usize;
    let mut acc = 0usize;
    for (i, it) in items.iter().enumerate() {
        acc += weight(it);
        if acc >= per_thread && i + 1 < items.len() {
            runs.push((start, i + 1));
            start = i + 1;
            acc = 0;
        }
    }
    if start < items.len() {
        runs.push((start, items.len()));
    }

    let f = &f;
    let mut results: Vec<R> = Vec::with_capacity(items.len());
    std::thread::scope(|s| {
        let handles: Vec<_> = runs
            .iter()
            .map(|&(lo, hi)| {
                s.spawn(move || {
                    items[lo..hi]
                        .iter()
                        .enumerate()
                        .map(|(off, it)| f(lo + off, it))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        for h in handles {
            // invariant: worker closures contain no panicking operations;
            // a panic there is a bug worth propagating loudly.
            results.extend(h.join().expect("scan worker panicked"));
        }
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranges::RowRange;
    use crate::scan;

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(10, 1, MIN_ROWS_PER_THREAD), 1);
        assert_eq!(effective_threads(10, 8, MIN_ROWS_PER_THREAD), 1);
        assert_eq!(
            effective_threads(MIN_ROWS_PER_THREAD * 2, 8, MIN_ROWS_PER_THREAD),
            2
        );
        assert_eq!(
            effective_threads(MIN_ROWS_PER_THREAD * 100, 8, MIN_ROWS_PER_THREAD),
            8
        );
        assert_eq!(
            effective_threads(100, 4, 0),
            4,
            "zero floor never divides by zero"
        );
    }

    #[test]
    fn par_map_weighted_preserves_item_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 3, 8] {
            let out = par_map_weighted(
                &items,
                threads,
                |_| 1,
                |i, &it| {
                    assert_eq!(i, it);
                    it * 2
                },
            );
            assert_eq!(out, items.iter().map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_weighted_matches_sequential_on_uneven_units() {
        let data: Vec<i64> = (0..100_000).collect();
        let units = [
            RowRange::new(0, 10),
            RowRange::new(10, 60_000),
            RowRange::new(60_000, 60_001),
            RowRange::new(60_001, 100_000),
        ];
        for threads in [1, 2, 3, 8] {
            let out = par_map_weighted(
                &units,
                threads,
                |u| u.len(),
                |_, u| scan::count_in_range(&data[u.start..u.end], 100, 70_000),
            );
            let seq: Vec<usize> = units
                .iter()
                .map(|u| scan::count_in_range(&data[u.start..u.end], 100, 70_000))
                .collect();
            assert_eq!(out, seq, "threads={threads}");
        }
    }

    #[test]
    fn par_map_weighted_empty_items() {
        let items: Vec<usize> = Vec::new();
        assert!(par_map_weighted(&items, 4, |_| 1, |_, &x| x).is_empty());
    }
}
