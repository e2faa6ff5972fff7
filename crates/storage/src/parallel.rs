//! How a weighted work list is split across threads.
//!
//! [`effective_threads`] decides how many threads a scan of a given size
//! can keep profitably busy; [`weighted_runs`] cuts the item list into
//! that many contiguous runs of near-equal weight (rows, typically).
//! Runs are contiguous and in item order, so a caller that scans them on
//! any threads, in any order, and then folds their results run by run
//! sees exactly the sequence a sequential loop would have produced —
//! floating-point sums and observation feedback included. The engine's
//! scan plan (`ads_engine::sharded_exec`) is the one caller; who runs
//! the runs (scoped threads, or a server's persistent scan helpers) is
//! its business.
//!
//! **The cut rule.** Run *k* ends at the item boundary whose prefix
//! weight is nearest `k · total / threads`, ties going to the earlier
//! boundary, among the boundaries strictly after run *k − 1*'s end and
//! before the last item. A boundary is only ever *between* items: an
//! item — for the engine, one scan unit, whose SUM is one running `f64`
//! — is never cut, because a piece boundary that moved with the thread
//! count would make answers depend on it. So each cut lies within half
//! the item straddling its target, unless the previous cut already
//! passed that item; with two runs the larger run never exceeds
//! `total / 2` plus half the straddling item.
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
/// most `threads` contiguous runs: run *k* ends at the boundary nearest
/// `k · total / threads` (see the module docs for the rule and its
/// bound). The runs partition `0..len` in order and none is empty; there
/// is always at least one (`0..0` for an empty list). Fewer than
/// `min(threads, len)` runs come back only when a cut reaches the last
/// item's boundary early — when the tail items outweigh the runs left.
pub fn weighted_runs<W>(weights: W, threads: usize) -> Vec<Range<usize>>
where
    W: Iterator<Item = usize>,
{
    if threads <= 1 {
        return std::iter::once(0..weights.count()).collect();
    }
    // prefix[b]: the weight of items 0..b, so boundary b is prefix[b].
    let prefix: Vec<usize> = std::iter::once(0)
        .chain(weights.scan(0usize, |acc, w| {
            *acc += w;
            Some(*acc)
        }))
        .collect();
    let len = prefix.len() - 1;
    if len <= 1 {
        return std::iter::once(0..len).collect();
    }
    let threads = threads.min(len);
    // Weights scaled by `threads`, so the targets `k · total` are exact.
    let scaled = |w: usize| w as u128 * threads as u128;
    let total = prefix[len] as u128;

    let mut runs: Vec<Range<usize>> = Vec::with_capacity(threads);
    let mut start = 0usize;
    for k in 1..threads {
        if start + 1 >= len {
            break;
        }
        let target = k as u128 * total;
        let candidates = &prefix[start + 1..len];
        // The first candidate at or past the target, and the last one
        // short of it; one of the two is nearest.
        let above = candidates.partition_point(|&p| scaled(p) < target);
        let below_is_nearer = above > 0
            && (above == candidates.len()
                || target - scaled(candidates[above - 1]) <= scaled(candidates[above]) - target);
        let nearest = if below_is_nearer {
            // Zero-weight items repeat a prefix: the tie goes to the
            // earliest boundary of that weight.
            candidates.partition_point(|&p| p < candidates[above - 1])
        } else {
            above
        };
        let cut = start + 1 + nearest;
        runs.push(start..cut);
        start = cut;
    }
    runs.push(start..len);
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

    /// The cut rule, by brute force: each cut is the candidate boundary
    /// (after the previous cut, before the last item) whose prefix weight
    /// is nearest `k · total / threads`, the earlier one on a tie; cutting
    /// stops only when no candidate is left.
    fn assert_nearest_cuts(weights: &[usize], threads: usize, runs: &[Range<usize>]) {
        let len = weights.len();
        assert_partition(runs, len);
        if threads <= 1 || len <= 1 {
            assert_eq!(runs.len(), 1);
            return;
        }
        let threads = threads.min(len);
        assert!(runs.len() <= threads);
        let prefix = |b: usize| weights[..b].iter().sum::<usize>() as f64;
        let total = prefix(len);
        let mut prev = 0;
        for k in 1..threads {
            let cut = runs.get(k).map_or(len, |r| r.start);
            if prev + 1 >= len {
                assert_eq!(
                    cut, len,
                    "a cut past the last boundary: {weights:?} t={threads}"
                );
                break;
            }
            let target = k as f64 * total / threads as f64;
            let want = (prev + 1..len)
                .min_by(|&a, &b| {
                    let (da, db) = ((prefix(a) - target).abs(), (prefix(b) - target).abs());
                    da.total_cmp(&db)
                })
                .expect("a candidate boundary");
            assert_eq!(cut, want, "cut {k} of {weights:?} t={threads}");
            prev = cut;
        }
    }

    /// `ADS_STRESS_ITERS`, as the server's stress suite reads it.
    fn stress_iters() -> u64 {
        std::env::var("ADS_STRESS_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(1)
    }

    #[test]
    fn weighted_runs_cut_at_the_nearest_boundary() {
        // SplitMix64: a seeded stream without a dependency.
        let mut state = 0x5eed_u64;
        let mut next = move |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        for _ in 0..2_048 * stress_iters() {
            let len = next(40) as usize;
            let weights: Vec<usize> = (0..len)
                .map(|_| match next(8) {
                    // Zero-weight items (fully skipped work) ...
                    0 | 1 => 0,
                    // ... one heavier than any thread's share ...
                    2 => 500_000 + next(300_000) as usize,
                    _ => next(5_000) as usize,
                })
                .collect();
            // ... and more threads than items.
            for threads in 2..=8 {
                let runs = weighted_runs(weights.iter().copied(), threads);
                assert_nearest_cuts(&weights, threads, &runs);
            }
        }
    }

    #[test]
    fn a_dead_extent_after_just_under_half_cuts_at_the_lane_boundary() {
        // Two lanes of a mixed-regions scan: lane 0's small units sum to
        // just under half, then its dead extent; lane 1 opens with its own
        // dead extent. A greedy cut closed run 0 only past half, so it
        // took lane 1's extent as well.
        let weights = [vec![1_024; 6], vec![667_000, 667_648], vec![1_024; 8]].concat();
        let runs = weighted_runs(weights.iter().copied(), 2);
        assert_eq!(runs, [0..7, 7..weights.len()]);
        assert_nearest_cuts(&weights, 2, &runs);
    }

    #[test]
    fn a_cut_that_reaches_the_last_item_ends_the_runs() {
        // The tail item outweighs every target: the first cut lands on
        // the last boundary and no later run can be non-empty.
        for threads in 3..=8 {
            let weights = [1, 1, 1, 1_000_000];
            let runs = weighted_runs(weights.iter().copied(), threads);
            assert_eq!(runs, [0..3, 3..4], "threads={threads}");
            assert_nearest_cuts(&weights, threads, &runs);
        }
        let weights = [5, 0, 0, 900, 0];
        let runs = weighted_runs(weights.iter().copied(), 4);
        assert_nearest_cuts(&weights, 4, &runs);
    }
}
