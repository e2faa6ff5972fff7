//! Database cracking (Idreos, Kersten & Manegold, CIDR 2007): adaptive
//! indexing by physical reorganisation.
//!
//! Cracking is the adaptive-indexing ancestor of adaptive data skipping:
//! instead of maintaining metadata *about* the data order, it incrementally
//! *creates* order. Each range query partitions a copy of the column
//! ("cracker column") around its predicate bounds, so the qualifying values
//! of any previously-seen bound sit in a contiguous piece. Answers come
//! straight from the cracker column (view coordinates); original row ids
//! travel alongside for position reconstruction.
//!
//! Appends use the simple tail scheme: new rows accumulate uncracked at the
//! end and are scanned; once the tail outgrows a threshold the cracker
//! index is rebuilt from scratch (the literature's merge-based update
//! algorithms are out of scope). Experiment E9 shows the resulting
//! degradation honestly.

use ads_core::{PruneOutcome, RangePredicate, ScanCoords, SkippingIndex};
use ads_storage::{DataValue, RangeSet};
use std::cmp::Ordering;

/// A piece boundary: the prefix `[0, pos)` of the cracked region holds
/// exactly the values `v` with `v < key` (or `v <= key` when `inclusive`).
#[derive(Debug, Clone, Copy)]
struct CrackBound<T: DataValue> {
    key: T,
    inclusive: bool,
    pos: usize,
}

impl<T: DataValue> CrackBound<T> {
    /// Predicate order: ascending selectivity-set inclusion
    /// (`v < k` ⊂ `v <= k` ⊂ `v < k'` for `k < k'`).
    fn cmp_pred(&self, key: &T, inclusive: bool) -> Ordering {
        self.key.total_cmp(key).then(self.inclusive.cmp(&inclusive))
    }

    fn matches(&self, v: &T) -> bool {
        match v.total_cmp(&self.key) {
            Ordering::Less => true,
            Ordering::Equal => self.inclusive,
            Ordering::Greater => false,
        }
    }
}

/// A cracker column with its cracker index.
#[derive(Debug, Clone)]
pub struct CrackerColumn<T: DataValue> {
    values: Vec<T>,
    rowids: Vec<u32>,
    bounds: Vec<CrackBound<T>>,
    /// Prefix length the bounds describe; `[cracked_len, len)` is the
    /// uncracked append tail.
    cracked_len: usize,
    /// Tail fraction that triggers an index rebuild.
    tail_rebuild_fraction: f64,
    partitions_done: u64,
}

impl<T: DataValue> CrackerColumn<T> {
    /// Copies `data` into a fresh cracker column.
    pub fn build(data: &[T]) -> Self {
        CrackerColumn {
            values: data.to_vec(),
            rowids: (0..data.len() as u32).collect(),
            bounds: Vec::new(),
            cracked_len: data.len(),
            tail_rebuild_fraction: 0.1,
            partitions_done: 0,
        }
    }

    /// Total partition (crack) operations performed.
    pub fn partitions_done(&self) -> u64 {
        self.partitions_done
    }

    /// Ensures a piece boundary exists for the predicate `(key, inclusive)`
    /// and returns its position. At most one Hoare partition of one
    /// existing piece.
    fn ensure_bound(&mut self, key: T, inclusive: bool) -> usize {
        match self
            .bounds
            .binary_search_by(|b| b.cmp_pred(&key, inclusive))
        {
            Ok(i) => self.bounds[i].pos,
            Err(i) => {
                let seg_start = if i == 0 { 0 } else { self.bounds[i - 1].pos };
                let seg_end = if i == self.bounds.len() {
                    self.cracked_len
                } else {
                    self.bounds[i].pos
                };
                let bound = CrackBound {
                    key,
                    inclusive,
                    pos: 0,
                };
                let pos = self.partition(seg_start, seg_end, &bound);
                self.bounds.insert(
                    i,
                    CrackBound {
                        key,
                        inclusive,
                        pos,
                    },
                );
                pos
            }
        }
    }

    /// In-place Hoare partition of `[start, end)` by `bound`; returns the
    /// split point. Row ids move with their values.
    fn partition(&mut self, start: usize, end: usize, bound: &CrackBound<T>) -> usize {
        self.partitions_done += 1;
        let mut i = start;
        let mut j = end;
        while i < j {
            if bound.matches(&self.values[i]) {
                i += 1;
            } else {
                j -= 1;
                self.values.swap(i, j);
                self.rowids.swap(i, j);
            }
        }
        i
    }

    /// Folds the uncracked tail in by dropping the cracker index; the next
    /// queries re-crack from scratch over the full column.
    fn rebuild_including_tail(&mut self) {
        self.bounds.clear();
        self.cracked_len = self.values.len();
    }

    fn tail_len(&self) -> usize {
        self.values.len() - self.cracked_len
    }
}

impl<T: DataValue> SkippingIndex<T> for CrackerColumn<T> {
    fn name(&self) -> String {
        "cracking".to_string()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn prune(&mut self, pred: &RangePredicate<T>) -> PruneOutcome {
        if self.tail_len() as f64 > self.tail_rebuild_fraction * self.values.len().max(1) as f64 {
            self.rebuild_including_tail();
        }
        // Piece [pos_lo, pos_hi) holds exactly the v with lo <= v <= hi.
        let pos_lo = self.ensure_bound(pred.lo, false);
        let pos_hi = self.ensure_bound(pred.hi, true);
        debug_assert!(pos_lo <= pos_hi);

        let mut full_match = RangeSet::new();
        if pos_lo < pos_hi {
            full_match.push_span(pos_lo, pos_hi);
        }
        let mut out = PruneOutcome {
            full_match,
            zones_probed: 2, // two cracker-index lookups
            ..Default::default()
        };
        out.push_scan(self.cracked_len, self.values.len());
        out
    }

    fn on_append(&mut self, appended: &[T], base: &[T]) {
        let old = self.values.len();
        debug_assert_eq!(old + appended.len(), base.len());
        self.values.extend_from_slice(appended);
        self.rowids.extend(old as u32..base.len() as u32);
    }

    fn metadata_bytes(&self) -> usize {
        self.bounds.capacity() * std::mem::size_of::<CrackBound<T>>()
            + self.rowids.capacity() * std::mem::size_of::<u32>()
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

    fn adapt_events(&self) -> u64 {
        self.partitions_done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(data: &[i64], pred: &RangePredicate<i64>) -> usize {
        data.iter().filter(|&&v| pred.matches(v)).count()
    }

    /// Runs a query and returns the count, scanning the tail if present.
    fn run_count(cc: &mut CrackerColumn<i64>, pred: RangePredicate<i64>) -> usize {
        let out = cc.prune(&pred);
        let view = SkippingIndex::view(cc)
            .expect("cracker has a view")
            .to_vec();
        let mut count = out.rows_full_match();
        for r in out.units.iter().map(|u| u.range) {
            count += ads_storage::scan::count_in_range(&view[r.start..r.end], pred.lo, pred.hi);
        }
        count
    }

    #[test]
    fn counts_match_oracle_over_query_sequence() {
        let data: Vec<i64> = (0..5000).map(|i| (i * 2654435761i64) % 1000).collect();
        let mut cc = CrackerColumn::build(&data);
        for q in 0..50 {
            let lo = (q * 37) % 900;
            let pred = RangePredicate::between(lo, lo + 60);
            assert_eq!(run_count(&mut cc, pred), oracle(&data, &pred), "query {q}");
        }
    }

    #[test]
    fn cracker_column_stays_a_permutation() {
        let data: Vec<i64> = (0..2000).map(|i| (i * 7919) % 500).collect();
        let mut cc = CrackerColumn::build(&data);
        for q in 0..30 {
            let lo = (q * 13) % 400;
            run_count(&mut cc, RangePredicate::between(lo, lo + 25));
        }
        let mut sorted_orig = data.clone();
        sorted_orig.sort_unstable();
        let mut sorted_cracked = cc.values.clone();
        sorted_cracked.sort_unstable();
        assert_eq!(sorted_orig, sorted_cracked);
        // Row ids still map view values back to base values.
        for (i, &v) in cc.values.iter().enumerate() {
            assert_eq!(data[cc.rowids[i] as usize], v);
        }
    }

    #[test]
    fn pieces_respect_bounds() {
        let data: Vec<i64> = (0..1000).rev().collect();
        let mut cc = CrackerColumn::build(&data);
        run_count(&mut cc, RangePredicate::between(200, 300));
        run_count(&mut cc, RangePredicate::between(600, 800));
        for b in &cc.bounds {
            for i in 0..b.pos {
                assert!(b.matches(&cc.values[i]), "prefix property broken at {i}");
            }
            for i in b.pos..cc.cracked_len {
                assert!(!b.matches(&cc.values[i]), "suffix property broken at {i}");
            }
        }
    }

    #[test]
    fn repeated_bounds_do_no_new_work() {
        let data: Vec<i64> = (0..4000).map(|i| (i * 31) % 2000).collect();
        let mut cc = CrackerColumn::build(&data);
        let pred = RangePredicate::between(500, 700);
        run_count(&mut cc, pred);
        let after_first = cc.partitions_done();
        run_count(&mut cc, pred);
        assert_eq!(cc.partitions_done(), after_first);
    }

    #[test]
    fn positions_translate_to_base_rowids() {
        let data = vec![30i64, 10, 20];
        let mut cc = CrackerColumn::build(&data);
        let pred = RangePredicate::between(10, 20);
        let out = cc.prune(&pred);
        let r = out.full_match.ranges()[0];
        let mut pos: Vec<u32> = (r.start as u32..r.end as u32).collect();
        cc.translate_positions(&mut pos);
        pos.sort_unstable();
        assert_eq!(pos, vec![1, 2]);
    }

    #[test]
    fn appends_scan_tail_until_rebuild() {
        let mut data: Vec<i64> = (0..1000).collect();
        let mut cc = CrackerColumn::build(&data);
        run_count(&mut cc, RangePredicate::between(100, 200));
        // Small append: tail under threshold, scanned directly.
        let new1: Vec<i64> = (1000..1050).collect();
        data.extend_from_slice(&new1);
        cc.on_append(&new1, &data);
        let pred = RangePredicate::between(990, 1040);
        assert_eq!(run_count(&mut cc, pred), oracle(&data, &pred));
        // Large append: exceeds 10% tail, forces rebuild.
        let new2: Vec<i64> = (1050..1500).collect();
        data.extend_from_slice(&new2);
        cc.on_append(&new2, &data);
        let pred2 = RangePredicate::between(1200, 1400);
        assert_eq!(run_count(&mut cc, pred2), oracle(&data, &pred2));
        assert_eq!(cc.tail_len(), 0, "rebuild folds the tail in");
    }

    #[test]
    fn point_queries_and_duplicates() {
        let data = vec![5i64, 5, 5, 3, 7, 5];
        let mut cc = CrackerColumn::build(&data);
        assert_eq!(run_count(&mut cc, RangePredicate::point(5)), 4);
        assert_eq!(run_count(&mut cc, RangePredicate::point(4)), 0);
        assert_eq!(run_count(&mut cc, RangePredicate::between(3, 7)), 6);
    }

    #[test]
    fn empty_column() {
        let mut cc = CrackerColumn::build(&[] as &[i64]);
        assert_eq!(run_count(&mut cc, RangePredicate::all()), 0);
    }

    #[test]
    fn works_with_floats() {
        let data = vec![0.5f64, -1.0, 2.5, f64::NAN, 1.5];
        let mut cc = CrackerColumn::build(&data);
        let pred = RangePredicate::between(0.0, 2.0);
        let out = cc.prune(&pred);
        assert_eq!(out.rows_full_match(), 2); // 0.5 and 1.5
    }
}
