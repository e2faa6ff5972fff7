//! Disjunctive predicates: `v IN (…)` and unions of ranges.
//!
//! A disjunction normalises to a set of disjoint ranges (sorted, merged),
//! then executes as one pruned query per range; because the ranges are
//! disjoint, counts and sums add and position lists merge without
//! duplicates. Each range pays its own prune — the same evaluation shape
//! mainstream engines use for OR-of-ranges over min/max statistics.

use crate::executor::{execute, AggKind, QueryAnswer};
use crate::metrics::QueryMetrics;
use ads_core::{RangePredicate, SkippingIndex};
use ads_storage::{Bitmap, DataValue};

/// Sorts and merges overlapping/adjacent ranges into a canonical disjoint
/// set. The result covers exactly the union of the inputs.
pub fn normalize_ranges<T: DataValue>(mut preds: Vec<RangePredicate<T>>) -> Vec<RangePredicate<T>> {
    preds.sort_by(|a, b| a.lo.total_cmp(&b.lo));
    let mut out: Vec<RangePredicate<T>> = Vec::with_capacity(preds.len());
    for p in preds {
        match out.last_mut() {
            // Overlapping (p.lo <= last.hi): extend. Merely adjacent
            // integer ranges (hi + 1 == lo) are kept separate — detecting
            // adjacency needs successor arithmetic the generic value
            // type does not offer, and correctness does not depend on it.
            Some(last) if p.lo.le_total(&last.hi) => {
                last.hi = last.hi.max_total(p.hi);
            }
            _ => out.push(p),
        }
    }
    out
}

/// Builds the point ranges of `v IN (values)`.
///
/// ```
/// use ads_engine::{in_list, execute_disjunction, AggKind, Strategy};
/// let data: Vec<i64> = (0..1000).collect();
/// let mut idx = Strategy::StaticZonemap { zone_rows: 100 }.build_index(&data);
/// let (answer, _) = execute_disjunction(&data, idx.as_mut(), in_list(&[5, 500, 2000]), AggKind::Count);
/// assert_eq!(answer.count, 2);
/// ```
pub fn in_list<T: DataValue>(values: &[T]) -> Vec<RangePredicate<T>> {
    normalize_ranges(values.iter().map(|&v| RangePredicate::point(v)).collect())
}

/// Executes a disjunction of ranges with aggregate `agg`.
///
/// The input is normalised first, so callers may pass overlapping ranges;
/// metrics fold across the per-range executions with
/// [`QueryMetrics::absorb`] (wall and phase times are the true totals,
/// probes count every metadata read paid).
pub fn execute_disjunction<T: DataValue>(
    data: &[T],
    index: &mut dyn SkippingIndex<T>,
    preds: Vec<RangePredicate<T>>,
    agg: AggKind,
) -> (QueryAnswer<T>, QueryMetrics) {
    let ranges = normalize_ranges(preds);
    let mut answer = QueryAnswer::<T>::default();
    if agg == AggKind::Sum {
        answer.sum = Some(0.0);
    }
    if agg == AggKind::Positions {
        answer.positions = Some(Vec::new());
    }
    let mut metrics = QueryMetrics::default();

    for pred in ranges {
        let (a, m) = execute(data, index, pred, agg);
        answer.count += a.count;
        if let (Some(total), Some(part)) = (answer.sum.as_mut(), a.sum) {
            *total += part;
        }
        answer.min = match (answer.min, a.min) {
            (Some(x), Some(y)) => Some(x.min_total(y)),
            (x, y) => x.or(y),
        };
        answer.max = match (answer.max, a.max) {
            (Some(x), Some(y)) => Some(x.max_total(y)),
            (x, y) => x.or(y),
        };
        if let (Some(all), Some(part)) = (answer.positions.as_mut(), a.positions) {
            all.extend(part);
        }
        metrics.absorb(&m);
    }

    if let Some(positions) = answer.positions.as_mut() {
        // Disjoint value ranges mean no duplicates, but view-coordinate
        // indexes reorganise *between* the per-range executions, so the
        // concatenation is not necessarily sorted. Scatter into a bitmap
        // and read back word-wise: one pass, already sorted, no
        // comparison sort over the (potentially large) match list.
        let mut bm = Bitmap::new(data.len());
        for &p in positions.iter() {
            // narrowing: positions are u32 row ids; usize is at least 32
            // bits on supported targets.
            bm.set(p as usize);
        }
        *positions = bm.to_positions();
    }
    (answer, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;

    fn data() -> Vec<i64> {
        (0..20_000).map(|i| (i * 2654435761i64) % 1000).collect()
    }

    fn reference_union(
        data: &[i64],
        ranges: &[RangePredicate<i64>],
        agg: AggKind,
    ) -> QueryAnswer<i64> {
        // Brute-force over the union predicate.
        let matches = |v: i64| ranges.iter().any(|p| p.matches(v));
        let mut answer = QueryAnswer::default();
        let qualifying: Vec<(usize, i64)> = data
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, v)| matches(v))
            .collect();
        answer.count = qualifying.len() as u64;
        match agg {
            AggKind::Sum => answer.sum = Some(qualifying.iter().map(|&(_, v)| v as f64).sum()),
            AggKind::Min => answer.min = qualifying.iter().map(|&(_, v)| v).min(),
            AggKind::Max => answer.max = qualifying.iter().map(|&(_, v)| v).max(),
            AggKind::Positions => {
                answer.positions = Some(qualifying.iter().map(|&(i, _)| i as u32).collect())
            }
            AggKind::Count => {}
        }
        answer
    }

    #[test]
    fn normalize_merges_overlaps_keeps_disjoint() {
        let norm = normalize_ranges(vec![
            RangePredicate::between(10i64, 20),
            RangePredicate::between(15, 30),
            RangePredicate::between(50, 60),
            RangePredicate::between(5, 12),
        ]);
        assert_eq!(norm.len(), 2);
        assert_eq!((norm[0].lo, norm[0].hi), (5, 30));
        assert_eq!((norm[1].lo, norm[1].hi), (50, 60));
    }

    #[test]
    fn normalize_handles_duplicates_and_points() {
        let norm = normalize_ranges(vec![
            RangePredicate::point(5i64),
            RangePredicate::point(5),
            RangePredicate::point(7),
        ]);
        assert_eq!(norm.len(), 2);
    }

    #[test]
    fn in_list_builds_points() {
        let preds = in_list(&[9i64, 3, 3, 7]);
        assert_eq!(preds.len(), 3);
        assert!(preds.windows(2).all(|w| w[0].lo < w[1].lo));
    }

    #[test]
    fn disjunction_matches_reference_across_strategies() {
        let data = data();
        let ranges = vec![
            RangePredicate::between(100i64, 150),
            RangePredicate::between(700, 720),
            RangePredicate::point(999),
        ];
        for strategy in Strategy::roster() {
            let mut idx = strategy.build_index(&data);
            for agg in [AggKind::Count, AggKind::Sum, AggKind::Min, AggKind::Max] {
                let (got, _) = execute_disjunction(&data, idx.as_mut(), ranges.clone(), agg);
                let want = reference_union(&data, &ranges, agg);
                assert_eq!(got.count, want.count, "{} {agg:?}", strategy.label());
                if agg == AggKind::Sum {
                    let (a, b) = (got.sum.unwrap(), want.sum.unwrap());
                    assert!((a - b).abs() < 1e-6, "{}", strategy.label());
                }
                assert_eq!(got.min, want.min);
                assert_eq!(got.max, want.max);
            }
        }
    }

    #[test]
    fn disjunction_positions_match_reference() {
        let data = data();
        let ranges = vec![
            RangePredicate::between(0i64, 10),
            RangePredicate::between(990, 999),
        ];
        for strategy in Strategy::roster() {
            let mut idx = strategy.build_index(&data);
            // Twice so adaptive/cracking state changes between runs.
            let _ = execute_disjunction(&data, idx.as_mut(), ranges.clone(), AggKind::Positions);
            let (got, _) =
                execute_disjunction(&data, idx.as_mut(), ranges.clone(), AggKind::Positions);
            let want = reference_union(&data, &ranges, AggKind::Positions);
            assert_eq!(got.positions, want.positions, "{}", strategy.label());
        }
    }

    #[test]
    fn overlapping_input_not_double_counted() {
        let data = data();
        let overlapping = vec![
            RangePredicate::between(100i64, 200),
            RangePredicate::between(150, 250),
        ];
        let mut idx = Strategy::FullScan.build_index(&data);
        let (got, _) =
            execute_disjunction(&data, idx.as_mut(), overlapping.clone(), AggKind::Count);
        let want = reference_union(&data, &overlapping, AggKind::Count);
        assert_eq!(got.count, want.count);
    }

    #[test]
    fn empty_disjunction() {
        let data = data();
        let mut idx = Strategy::FullScan.build_index(&data);
        let (got, m) = execute_disjunction(&data, idx.as_mut(), vec![], AggKind::Count);
        assert_eq!(got.count, 0);
        assert_eq!(m.rows_scanned, 0);
    }

    /// The per-range fold carries every field: phase times, by-product
    /// rows and the thread count used to come back as zero.
    #[test]
    fn disjunction_metrics_report_what_was_spent() {
        let data = data();
        let mut idx = Strategy::Adaptive(Default::default()).build_index(&data);
        let ranges = vec![
            RangePredicate::between(100i64, 150),
            RangePredicate::between(700, 720),
            RangePredicate::point(999),
        ];
        let (got, m) = execute_disjunction(&data, idx.as_mut(), ranges, AggKind::Count);
        assert!(m.prune_ns > 0, "prune phase untimed");
        assert!(m.scan_ns > 0, "scan phase untimed");
        assert_eq!(m.threads_used, 1);
        assert!(m.wall_ns >= m.prune_ns + m.scan_ns);
        assert!(m.rows_with_byproducts > 0, "a cold index asks for bounds");
        assert!(m.rows_with_byproducts <= m.rows_scanned);
        assert_eq!(m.rows_matched, got.count);
    }

    #[test]
    fn skipping_helps_in_lists_on_sorted_data() {
        let sorted: Vec<i64> = (0..100_000).collect();
        let mut idx = Strategy::StaticZonemap { zone_rows: 1024 }.build_index(&sorted);
        let preds = in_list(&[5i64, 50_000, 99_999]);
        let (got, m) = execute_disjunction(&sorted, idx.as_mut(), preds, AggKind::Count);
        assert_eq!(got.count, 3);
        assert!(m.rows_scanned <= 3 * 1024, "scanned {}", m.rows_scanned);
    }
}
