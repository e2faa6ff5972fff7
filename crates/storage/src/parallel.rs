//! How a weighted work list is split across threads.
//!
//! [`effective_threads`] decides how many threads a scan of a given size
//! can keep profitably busy; [`weighted_runs`] cuts the item list into
//! that many contiguous runs of roughly equal weight (rows, typically).
//! Runs are contiguous and in item order, so a caller that scans them on
//! any threads, in any order, and then folds their results run by run
//! sees exactly the sequence a sequential loop would have produced —
//! floating-point sums and observation feedback included. The engine's
//! scan plan (`ads_engine::sharded_exec`) is the one caller; who runs
//! the runs (scoped threads, or a server's persistent scan helpers) is
//! its business.
//!
//! Skip-heavy scans rarely benefit (they touch little data), so
//! parallelism is opt-in via the engine's executor policy.

use std::ops::Range;

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

/// Cuts a list of items, given by their weights in item order, into at
/// most `threads` contiguous runs of roughly `total / threads` weight
/// each. The runs partition `0..len` in order; there is always at least
/// one (`0..0` for an empty list).
pub fn weighted_runs<W>(weights: W, threads: usize) -> Vec<Range<usize>>
where
    W: Iterator<Item = usize> + Clone,
{
    let len = weights.clone().count();
    if threads <= 1 || len <= 1 {
        return std::iter::once(0..len).collect();
    }
    let total: usize = weights.clone().sum();
    let threads = threads.min(len);
    let per_thread = total.div_ceil(threads).max(1);

    let mut runs: Vec<Range<usize>> = Vec::with_capacity(threads);
    let mut start = 0usize;
    let mut acc = 0usize;
    for (i, w) in weights.enumerate() {
        acc += w;
        if acc >= per_thread && i + 1 < len {
            runs.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < len {
        runs.push(start..len);
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The runs partition the item list in order, whatever the weights.
    fn assert_partition(runs: &[Range<usize>], len: usize) {
        assert!(!runs.is_empty());
        assert_eq!(runs[0].start, 0);
        assert_eq!(runs.last().map(|r| r.end), Some(len));
        for pair in runs.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "runs not contiguous");
            assert!(pair[0].start < pair[0].end, "empty run inside the list");
        }
    }

    #[test]
    fn weighted_runs_partition_items_in_order() {
        for len in [0, 1, 2, 7, 100] {
            for threads in [1, 2, 3, 8, 200] {
                let runs = weighted_runs((0..len).map(|_| 1), threads);
                assert_partition(&runs, len);
                assert!(runs.len() <= threads.max(1), "len={len} threads={threads}");
            }
        }
        assert_eq!(weighted_runs((0..100).map(|_| 1), 4).len(), 4);
    }

    #[test]
    fn weighted_runs_balance_uneven_units() {
        let weights = [10, 59_990, 1, 39_999];
        let whole = weighted_runs(weights.iter().copied(), 1);
        assert_eq!((whole.len(), whole[0].clone()), (1, 0..4));
        // Half the weight is 50,000: the cut falls after the big unit.
        assert_eq!(weighted_runs(weights.iter().copied(), 2), [0..2, 2..4]);
        for threads in [3, 8] {
            assert_partition(&weighted_runs(weights.iter().copied(), threads), 4);
        }
    }
}
