//! The perfect-order oracle: a fully sorted projection.
//!
//! Upper bound for every skipping technique — what you would get if the
//! data had been fully indexed/sorted offline. Pays a full sort at build
//! time and a full re-sort on every append, which experiment E8/E9 report
//! honestly.

use ads_core::{PruneOutcome, RangePredicate, ScanCoords, SkippingIndex};
use ads_storage::{DataValue, RangeSet};

/// A sorted copy of the column plus the original row ids.
#[derive(Debug, Clone)]
pub struct SortedOracle<T: DataValue> {
    values: Vec<T>,
    rowids: Vec<u32>,
}

impl<T: DataValue> SortedOracle<T> {
    /// Sorts a copy of `data`.
    pub fn build(data: &[T]) -> Self {
        let mut pairs: Vec<(T, u32)> = data
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        SortedOracle {
            values: pairs.iter().map(|&(v, _)| v).collect(),
            rowids: pairs.iter().map(|&(_, id)| id).collect(),
        }
    }

    /// First position whose value is `>= x` under the total order.
    fn lower_bound(&self, x: T) -> usize {
        self.values.partition_point(|v| v.lt_total(&x))
    }

    /// First position whose value is `> x` under the total order.
    fn upper_bound(&self, x: T) -> usize {
        self.values.partition_point(|v| v.le_total(&x))
    }
}

impl<T: DataValue> SkippingIndex<T> for SortedOracle<T> {
    fn name(&self) -> String {
        "sorted-oracle".to_string()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn prune(&mut self, pred: &RangePredicate<T>) -> PruneOutcome {
        let lo = self.lower_bound(pred.lo);
        let hi = self.upper_bound(pred.hi);
        let mut full_match = RangeSet::new();
        if lo < hi {
            full_match.push_span(lo, hi);
        }
        PruneOutcome {
            full_match,
            // Two binary searches; charge one logical probe each.
            zones_probed: 2,
            ..Default::default()
        }
    }

    fn on_append(&mut self, _appended: &[T], base: &[T]) {
        *self = SortedOracle::build(base);
    }

    fn metadata_bytes(&self) -> usize {
        self.rowids.capacity() * std::mem::size_of::<u32>()
    }

    fn data_copy_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<T>()
    }

    fn scan_coords(&self) -> ScanCoords {
        ScanCoords::View
    }

    fn view(&self) -> Option<&[T]> {
        Some(&self.values)
    }

    fn translate_positions(&self, positions: &mut [u32]) {
        for p in positions.iter_mut() {
            *p = self.rowids[*p as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_exact_qualifying_region() {
        let data = vec![5i64, 1, 9, 3, 7, 3];
        let mut so = SortedOracle::build(&data);
        let out = so.prune(&RangePredicate::between(3, 7));
        // Sorted: 1 3 3 5 7 9 — region [1, 5).
        assert_eq!(out.rows_full_match(), 4);
        assert!(out.units.is_empty());
        assert_eq!(out.full_match.ranges()[0].start, 1);
    }

    #[test]
    fn empty_region_for_missing_values() {
        let data = vec![10i64, 20, 30];
        let mut so = SortedOracle::build(&data);
        let out = so.prune(&RangePredicate::between(11, 19));
        assert!(out.full_match.is_empty());
    }

    #[test]
    fn positions_translate_to_base_rowids() {
        let data = vec![5i64, 1, 9];
        let so = SortedOracle::build(&data);
        // view: [1, 5, 9] from rows [1, 0, 2]
        let mut pos = vec![0u32, 1, 2];
        so.translate_positions(&mut pos);
        assert_eq!(pos, vec![1, 0, 2]);
    }

    #[test]
    fn append_resorts() {
        let mut data = vec![5i64, 1];
        let mut so = SortedOracle::build(&data);
        data.push(3);
        so.on_append(&data[2..], &data);
        let out = so.prune(&RangePredicate::between(1, 3));
        assert_eq!(out.rows_full_match(), 2);
    }

    #[test]
    fn view_is_sorted() {
        let so = SortedOracle::build(&[3i64, 1, 2]);
        assert_eq!(SkippingIndex::view(&so), Some(&[1i64, 2, 3][..]));
        assert_eq!(SkippingIndex::scan_coords(&so), ScanCoords::View);
        assert!(SkippingIndex::data_copy_bytes(&so) >= 24);
    }

    #[test]
    fn duplicates_and_bounds_inclusive() {
        let data = vec![2i64, 2, 2, 2];
        let mut so = SortedOracle::build(&data);
        assert_eq!(so.prune(&RangePredicate::point(2)).rows_full_match(), 4);
        assert_eq!(
            so.prune(&RangePredicate::between(3, 9)).rows_full_match(),
            0
        );
    }
}
