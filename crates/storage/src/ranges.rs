//! Row ranges and sets of disjoint row ranges.
//!
//! A data-skipping index answers a pruning request with a [`RangeSet`]: the
//! candidate row ranges a scan must still visit. Soundness requires the set
//! to be a superset of the qualifying rows; effectiveness is measured by how
//! much of the table it excludes.

/// A half-open range of row positions `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowRange {
    /// First row in the range.
    pub start: usize,
    /// One past the last row in the range.
    pub end: usize,
}

impl RowRange {
    /// Creates `[start, end)`.
    ///
    /// # Panics
    /// Panics if `start > end`.
    #[inline]
    pub fn new(start: usize, end: usize) -> Self {
        assert!(start <= end, "invalid range {start}..{end}");
        RowRange { start, end }
    }

    /// Number of rows covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the range covers no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// True if `row` falls inside the range.
    #[inline]
    pub fn contains(&self, row: usize) -> bool {
        self.start <= row && row < self.end
    }

    /// Intersection with another range, if non-empty.
    pub fn intersect(&self, other: &RowRange) -> Option<RowRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start < end {
            Some(RowRange { start, end })
        } else {
            None
        }
    }
}

/// An ordered set of disjoint, non-adjacent row ranges.
///
/// The canonical form (sorted, coalesced) is maintained by construction:
/// ranges are pushed in increasing order and merged when they touch.
///
/// ```
/// use ads_storage::RangeSet;
/// let mut rs = RangeSet::new();
/// rs.push_span(0, 10);
/// rs.push_span(10, 20); // coalesces with the previous span
/// rs.push_span(50, 60);
/// assert_eq!(rs.ranges().len(), 2);
/// assert_eq!(rs.covered_rows(), 30);
/// assert_eq!(rs.complement(100).covered_rows(), 70);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RangeSet {
    ranges: Vec<RowRange>,
}

impl RangeSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        RangeSet { ranges: Vec::new() }
    }

    /// Creates an empty set with capacity for `cap` ranges.
    pub fn with_capacity(cap: usize) -> Self {
        RangeSet {
            ranges: Vec::with_capacity(cap),
        }
    }

    /// The full range `[0, n)` as a single-range set.
    pub fn full(n: usize) -> Self {
        let mut rs = RangeSet::new();
        if n > 0 {
            rs.ranges.push(RowRange::new(0, n));
        }
        rs
    }

    /// Appends a range, coalescing with the previous one when adjacent or
    /// overlapping.
    ///
    /// # Panics
    /// Panics if `range` starts before the end of the previously pushed
    /// range minus overlap (i.e. ranges must be pushed in increasing
    /// `start` order).
    pub fn push(&mut self, range: RowRange) {
        if range.is_empty() {
            return;
        }
        if let Some(last) = self.ranges.last_mut() {
            assert!(
                range.start >= last.start,
                "ranges must be pushed in increasing order"
            );
            if range.start <= last.end {
                last.end = last.end.max(range.end);
                return;
            }
        }
        self.ranges.push(range);
    }

    /// Appends `[start, end)`.
    pub fn push_span(&mut self, start: usize, end: usize) {
        self.push(RowRange::new(start, end));
    }

    /// The ranges, sorted and disjoint.
    pub fn ranges(&self) -> &[RowRange] {
        &self.ranges
    }

    /// Total number of rows covered.
    pub fn covered_rows(&self) -> usize {
        self.ranges.iter().map(RowRange::len).sum()
    }

    /// True if no rows are covered.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// True if `row` is covered by some range.
    pub fn contains(&self, row: usize) -> bool {
        // Binary search on start; candidate is the last range starting <= row.
        match self.ranges.binary_search_by(|r| r.start.cmp(&row)) {
            Ok(_) => true,
            Err(0) => false,
            Err(i) => self.ranges[i - 1].contains(row),
        }
    }

    /// Intersection of two range sets.
    pub fn intersect(&self, other: &RangeSet) -> RangeSet {
        let mut out = RangeSet::new();
        let (mut i, mut j) = (0, 0);
        while i < self.ranges.len() && j < other.ranges.len() {
            let (a, b) = (self.ranges[i], other.ranges[j]);
            if let Some(r) = a.intersect(&b) {
                out.push(r);
            }
            if a.end <= b.end {
                i += 1;
            } else {
                j += 1;
            }
        }
        out
    }

    /// Union of two range sets via a single sorted merge.
    ///
    /// Both inputs are canonical (sorted, disjoint), so one pass over the
    /// two range lists suffices; `push` coalesces touching spans. This is
    /// the O(R) replacement for re-sorting per inserted range.
    pub fn union(&self, other: &RangeSet) -> RangeSet {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        let mut out = RangeSet::with_capacity(self.ranges.len() + other.ranges.len());
        let (mut i, mut j) = (0, 0);
        while i < self.ranges.len() && j < other.ranges.len() {
            if self.ranges[i].start <= other.ranges[j].start {
                out.push(self.ranges[i]);
                i += 1;
            } else {
                out.push(other.ranges[j]);
                j += 1;
            }
        }
        for r in &self.ranges[i..] {
            out.push(*r);
        }
        for r in &other.ranges[j..] {
            out.push(*r);
        }
        out
    }

    /// True if the whole span `[start, end)` is covered by a single range.
    ///
    /// Ranges are canonical (disjoint, non-adjacent), so a contiguous span
    /// is covered iff one range contains it; binary search on `start`
    /// finds the only candidate. An empty span is trivially covered.
    pub fn covers_span(&self, start: usize, end: usize) -> bool {
        if start >= end {
            return true;
        }
        // Candidate: last range whose start is <= start.
        let i = self.ranges.partition_point(|r| r.start <= start);
        if i == 0 {
            return false;
        }
        let r = self.ranges[i - 1];
        r.start <= start && end <= r.end
    }

    /// Complement of the set within `[0, n)`.
    pub fn complement(&self, n: usize) -> RangeSet {
        let mut out = RangeSet::new();
        let mut cursor = 0;
        for r in &self.ranges {
            if r.start > cursor {
                out.push_span(cursor, r.start.min(n));
            }
            cursor = cursor.max(r.end);
        }
        if cursor < n {
            out.push_span(cursor, n);
        }
        out
    }
}

impl FromIterator<RowRange> for RangeSet {
    fn from_iter<I: IntoIterator<Item = RowRange>>(iter: I) -> Self {
        let mut rs = RangeSet::new();
        for r in iter {
            rs.push(r);
        }
        rs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_range_basics() {
        let r = RowRange::new(10, 20);
        assert_eq!(r.len(), 10);
        assert!(r.contains(10) && r.contains(19));
        assert!(!r.contains(20) && !r.contains(9));
        assert!(!r.is_empty());
        assert!(RowRange::new(5, 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "invalid range")]
    fn row_range_backwards_panics() {
        RowRange::new(5, 4);
    }

    #[test]
    fn row_range_intersect() {
        let a = RowRange::new(0, 10);
        assert_eq!(
            a.intersect(&RowRange::new(5, 15)),
            Some(RowRange::new(5, 10))
        );
        assert_eq!(a.intersect(&RowRange::new(10, 15)), None);
        assert_eq!(a.intersect(&RowRange::new(3, 7)), Some(RowRange::new(3, 7)));
    }

    #[test]
    fn push_coalesces_adjacent() {
        let mut rs = RangeSet::new();
        rs.push_span(0, 10);
        rs.push_span(10, 20);
        rs.push_span(25, 30);
        assert_eq!(rs.ranges().len(), 2);
        assert_eq!(rs.covered_rows(), 25);
    }

    #[test]
    fn push_coalesces_overlapping() {
        let mut rs = RangeSet::new();
        rs.push_span(0, 15);
        rs.push_span(10, 20);
        assert_eq!(rs.ranges().len(), 1);
        assert_eq!(rs.ranges()[0], RowRange::new(0, 20));
    }

    #[test]
    fn push_ignores_empty() {
        let mut rs = RangeSet::new();
        rs.push_span(5, 5);
        assert!(rs.is_empty());
    }

    #[test]
    fn full_and_empty() {
        assert_eq!(RangeSet::full(100).covered_rows(), 100);
        assert!(RangeSet::full(0).is_empty());
        assert_eq!(RangeSet::new().covered_rows(), 0);
    }

    #[test]
    fn contains_binary_search() {
        let mut rs = RangeSet::new();
        rs.push_span(10, 20);
        rs.push_span(30, 40);
        rs.push_span(50, 60);
        for row in [10, 19, 30, 55] {
            assert!(rs.contains(row), "row {row}");
        }
        for row in [0, 9, 20, 29, 45, 60, 1000] {
            assert!(!rs.contains(row), "row {row}");
        }
    }

    #[test]
    fn intersect_sets() {
        let mut a = RangeSet::new();
        a.push_span(0, 10);
        a.push_span(20, 30);
        let mut b = RangeSet::new();
        b.push_span(5, 25);
        let c = a.intersect(&b);
        assert_eq!(c.ranges(), &[RowRange::new(5, 10), RowRange::new(20, 25)]);
    }

    #[test]
    fn intersect_with_empty() {
        let a = RangeSet::full(50);
        assert!(a.intersect(&RangeSet::new()).is_empty());
    }

    #[test]
    fn union_merges_sorted_sets() {
        let mut a = RangeSet::new();
        a.push_span(0, 10);
        a.push_span(20, 30);
        let mut b = RangeSet::new();
        b.push_span(5, 25);
        b.push_span(40, 50);
        let u = a.union(&b);
        assert_eq!(u.ranges(), &[RowRange::new(0, 30), RowRange::new(40, 50)]);
        // Symmetric.
        assert_eq!(b.union(&a), u);
    }

    #[test]
    fn union_with_empty_and_adjacent() {
        let a = RangeSet::full(10);
        assert_eq!(a.union(&RangeSet::new()), a);
        assert_eq!(RangeSet::new().union(&a), a);
        let mut b = RangeSet::new();
        b.push_span(10, 20);
        assert_eq!(a.union(&b).ranges(), &[RowRange::new(0, 20)]);
    }

    #[test]
    fn union_interleaved_matches_reference() {
        // Exhaustive-ish check against a per-row reference on small sets.
        let mut a = RangeSet::new();
        for s in [0usize, 8, 16, 32] {
            a.push_span(s, s + 4);
        }
        let mut b = RangeSet::new();
        for s in [2usize, 12, 20, 36] {
            b.push_span(s, s + 4);
        }
        let u = a.union(&b);
        for row in 0..48 {
            assert_eq!(
                u.contains(row),
                a.contains(row) || b.contains(row),
                "row {row}"
            );
        }
    }

    #[test]
    fn covers_span_binary_search() {
        let mut rs = RangeSet::new();
        rs.push_span(10, 20);
        rs.push_span(30, 40);
        assert!(rs.covers_span(10, 20));
        assert!(rs.covers_span(12, 18));
        assert!(rs.covers_span(30, 31));
        assert!(!rs.covers_span(9, 11));
        assert!(!rs.covers_span(15, 25));
        assert!(!rs.covers_span(20, 30));
        assert!(!rs.covers_span(0, 5));
        assert!(!rs.covers_span(40, 41));
        // Empty spans are trivially covered.
        assert!(rs.covers_span(25, 25));
        assert!(RangeSet::new().covers_span(3, 3));
        assert!(!RangeSet::new().covers_span(3, 4));
    }

    #[test]
    fn complement_basic() {
        let mut rs = RangeSet::new();
        rs.push_span(10, 20);
        rs.push_span(30, 40);
        let c = rs.complement(50);
        assert_eq!(
            c.ranges(),
            &[
                RowRange::new(0, 10),
                RowRange::new(20, 30),
                RowRange::new(40, 50)
            ]
        );
        assert_eq!(rs.covered_rows() + c.covered_rows(), 50);
    }

    #[test]
    fn complement_of_full_is_empty() {
        assert!(RangeSet::full(10).complement(10).is_empty());
        assert_eq!(RangeSet::new().complement(10).covered_rows(), 10);
    }

    #[test]
    fn from_iterator() {
        let rs: RangeSet = [RowRange::new(0, 5), RowRange::new(5, 10)]
            .into_iter()
            .collect();
        assert_eq!(rs.ranges().len(), 1);
    }
}
