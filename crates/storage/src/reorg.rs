//! Zone-local physical reorganization payloads.
//!
//! A [`ReorgZone`] is the `Reorganized` layout of a single zonemap zone:
//! a copied permutation of the zone's rows — values alongside their base
//! row ids — that is incrementally *cracked* (Hoare-partitioned around
//! observed predicate bounds, the piece machinery of database cracking)
//! and eventually converted to fully sorted once enough bounds
//! accumulate. Once sorted, any range predicate resolves positionally:
//! two binary searches yield a contiguous run of qualifying view
//! positions, and the rowid permutation maps them back to base rows.
//!
//! The payload is pure data: it knows nothing about zonemaps, epochs, or
//! publication. Callers that share a payload across threads wrap it in
//! an `Arc` and copy-on-write (`Arc::make_mut`) before cracking, which
//! is what keeps published snapshots immutable-until-republished.

use crate::types::DataValue;
use std::cmp::Ordering;
use std::ops::Range;

/// Number of distinct crack bounds after which the payload converts to
/// fully sorted: past this point piece bookkeeping costs more than one
/// deterministic sort, and sorted zones answer with zero edge scans.
const SORT_AFTER_BOUNDS: usize = 12;

/// A piece boundary: the prefix `[0, pos)` of the payload holds exactly
/// the values `v` with `v < key` (or `v <= key` when `inclusive`),
/// under the total order of [`DataValue::total_cmp`].
#[derive(Debug, Clone, Copy)]
struct PieceBound<T: DataValue> {
    key: T,
    inclusive: bool,
    pos: usize,
}

impl<T: DataValue> PieceBound<T> {
    /// Predicate order: ascending inclusion of the matched value set
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

/// The positional answer of a [`ReorgZone`] lookup, in view coordinates
/// of the payload.
///
/// Every view position in `full` qualifies without any per-row test; the
/// up-to-two `edges` pieces straddle a predicate bound that has not been
/// cracked yet and must be scanned with the predicate. On a fully sorted
/// payload `edges` is always empty.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReorgSpans {
    /// Contiguous run of view positions that all qualify.
    pub full: Range<usize>,
    /// Boundary pieces (view coordinates) to scan with the predicate.
    pub edges: [Option<Range<usize>>; 2],
}

impl ReorgSpans {
    /// Rows the executor must still test one by one.
    pub fn edge_rows(&self) -> usize {
        self.edges.iter().flatten().map(|r| r.end - r.start).sum()
    }
}

/// A reorganized zone: permuted copy of the zone's values plus the rowid
/// permutation mapping view positions back to base rows.
#[derive(Debug, Clone)]
pub struct ReorgZone<T: DataValue> {
    values: Vec<T>,
    rowids: Vec<u32>,
    bounds: Vec<PieceBound<T>>,
    sorted: bool,
    zmin: T,
    zmax: T,
    cracks_done: u64,
    bytes_moved: u64,
}

impl<T: DataValue> ReorgZone<T> {
    /// Copies the zone's rows out of the base column. `first_rowid` is
    /// the base row id of `slice[0]` (shard-local coordinates). The
    /// fresh payload is one uncracked piece.
    pub fn build(slice: &[T], first_rowid: u32) -> Self {
        let mut zmin = T::MAX_VALUE;
        let mut zmax = T::MIN_VALUE;
        for &v in slice {
            zmin = zmin.min_total(v);
            zmax = zmax.max_total(v);
        }
        ReorgZone {
            values: slice.to_vec(),
            rowids: (first_rowid..first_rowid + slice.len() as u32).collect(),
            bounds: Vec::new(),
            sorted: slice.len() <= 1,
            zmin,
            zmax,
            cracks_done: 0,
            bytes_moved: (slice.len() * Self::row_bytes()) as u64,
        }
    }

    /// Bytes one (value, rowid) pair occupies — the unit of movement
    /// accounting.
    fn row_bytes() -> usize {
        std::mem::size_of::<T>() + std::mem::size_of::<u32>()
    }

    /// Number of rows in the zone.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the zone holds no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// True once the payload has converted to fully sorted order.
    pub fn is_sorted(&self) -> bool {
        self.sorted
    }

    /// Number of pieces the payload is divided into (1 when sorted).
    pub fn num_pieces(&self) -> usize {
        if self.sorted {
            1
        } else {
            self.bounds.len() + 1
        }
    }

    /// Crack partitions performed over the payload's lifetime.
    pub fn cracks_done(&self) -> u64 {
        self.cracks_done
    }

    /// Cumulative bytes copied or relocated: the build copy plus every
    /// partition swap and the sort conversion.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Exact `(min, max)` of every row in the zone, computed at build
    /// time (identities for an empty zone).
    pub fn min_max(&self) -> (T, T) {
        (self.zmin, self.zmax)
    }

    /// The permuted values, in view order.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Base row id for each view position.
    pub fn rowids(&self) -> &[u32] {
        &self.rowids
    }

    /// Heap footprint of the payload.
    pub fn heap_bytes(&self) -> usize {
        self.values.capacity() * std::mem::size_of::<T>()
            + self.rowids.capacity() * std::mem::size_of::<u32>()
            + self.bounds.capacity() * std::mem::size_of::<PieceBound<T>>()
    }

    /// Resolves the inclusive range `[lo, hi]` (total order) against the
    /// current piece structure without mutating it. Safe on shared
    /// payloads (published snapshots).
    pub fn lookup(&self, lo: T, hi: T) -> ReorgSpans {
        if self.sorted {
            // ordering by total_cmp: partition_point wants a monotone
            // predicate, which "v < lo" and "v <= hi" both are.
            let start = self
                .values
                .partition_point(|v| v.total_cmp(&lo) == Ordering::Less);
            let end = self
                .values
                .partition_point(|v| v.total_cmp(&hi) != Ordering::Greater);
            return ReorgSpans {
                full: start..end.max(start),
                edges: [None, None],
            };
        }
        let (full_start, lo_edge) = match self.bound_pos(&lo, false) {
            Ok(pos) => (pos, None),
            Err((s, e)) => (e, Some(s..e)),
        };
        let (full_end, hi_edge) = match self.bound_pos(&hi, true) {
            Ok(pos) => (pos, None),
            Err((s, e)) => (s, Some(s..e)),
        };
        // Both bounds landing in the same uncracked piece collapse to a
        // single edge scan and an empty full run.
        let edges = if lo_edge.is_some() && lo_edge == hi_edge {
            [lo_edge, None]
        } else {
            [lo_edge, hi_edge]
        };
        ReorgSpans {
            full: full_start..full_end.max(full_start),
            edges,
        }
    }

    /// Position of the exact bound `(key, inclusive)` if it has been
    /// cracked, else the enclosing uncracked piece `(start, end)`.
    fn bound_pos(&self, key: &T, inclusive: bool) -> Result<usize, (usize, usize)> {
        match self.bounds.binary_search_by(|b| b.cmp_pred(key, inclusive)) {
            Ok(i) => Ok(self.bounds[i].pos),
            Err(i) => {
                let start = if i == 0 { 0 } else { self.bounds[i - 1].pos };
                let end = if i == self.bounds.len() {
                    self.values.len()
                } else {
                    self.bounds[i].pos
                };
                Err((start, end))
            }
        }
    }

    /// Ensures crack bounds exist for the inclusive range `[lo, hi]`,
    /// partitioning at most two pieces, and converts to fully sorted
    /// once enough bounds accumulate. Returns the bytes moved by this
    /// call. 0 does not mean untouched — a bound that falls at a piece's
    /// edge is recorded without moving a row; [`ReorgZone::cracks_done`]
    /// moves exactly when the piece structure did.
    pub fn crack(&mut self, lo: T, hi: T) -> u64 {
        if self.sorted {
            return 0;
        }
        let before = self.bytes_moved;
        self.ensure_bound(lo, false);
        self.ensure_bound(hi, true);
        if self.bounds.len() >= SORT_AFTER_BOUNDS {
            self.sort_fully();
        }
        self.bytes_moved - before
    }

    /// Ensures a piece boundary for `(key, inclusive)` exists, cracking
    /// the enclosing piece with one Hoare partition if not.
    fn ensure_bound(&mut self, key: T, inclusive: bool) {
        if let Err((seg_start, seg_end)) = self.bound_pos(&key, inclusive) {
            let idx = self
                .bounds
                .binary_search_by(|b| b.cmp_pred(&key, inclusive))
                .unwrap_err();
            let bound = PieceBound {
                key,
                inclusive,
                pos: 0,
            };
            let pos = self.partition(seg_start, seg_end, &bound);
            self.bounds.insert(
                idx,
                PieceBound {
                    key,
                    inclusive,
                    pos,
                },
            );
            self.cracks_done += 1;
        }
    }

    /// In-place Hoare partition of `[start, end)` by `bound`; rowids
    /// move with their values. Returns the split point.
    fn partition(&mut self, start: usize, end: usize, bound: &PieceBound<T>) -> usize {
        let mut i = start;
        let mut j = end;
        while i < j {
            if bound.matches(&self.values[i]) {
                i += 1;
            } else {
                j -= 1;
                self.values.swap(i, j);
                self.rowids.swap(i, j);
                self.bytes_moved += 2 * Self::row_bytes() as u64;
            }
        }
        i
    }

    /// Converts to the canonical fully sorted layout: `(value, rowid)`
    /// pairs ordered by total order, ties broken by ascending rowid so
    /// the permutation is deterministic regardless of crack history.
    pub fn sort_fully(&mut self) {
        if self.sorted {
            return;
        }
        let mut pairs: Vec<(T, u32)> = self
            .values
            .iter()
            .copied()
            .zip(self.rowids.iter().copied())
            .collect();
        pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for (i, (v, r)) in pairs.into_iter().enumerate() {
            self.values[i] = v;
            self.rowids[i] = r;
        }
        self.bounds.clear();
        self.sorted = true;
        self.bytes_moved += (self.values.len() * Self::row_bytes()) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle_count(data: &[i64], lo: i64, hi: i64) -> usize {
        data.iter().filter(|v| v.in_range_total(&lo, &hi)).count()
    }

    /// Counts matches via lookup: full run length plus predicate-tested
    /// edge rows.
    fn lookup_count(z: &ReorgZone<i64>, lo: i64, hi: i64) -> usize {
        let spans = z.lookup(lo, hi);
        let mut count = spans.full.len();
        for edge in spans.edges.iter().flatten() {
            count += z.values()[edge.clone()]
                .iter()
                .filter(|v| v.in_range_total(&lo, &hi))
                .count();
        }
        count
    }

    fn test_data() -> Vec<i64> {
        (0..2000).map(|i| (i * 2654435761i64) % 997).collect()
    }

    #[test]
    fn lookup_matches_oracle_before_any_crack() {
        let data = test_data();
        let z = ReorgZone::build(&data, 0);
        for q in 0..40 {
            let lo = (q * 53) % 900;
            assert_eq!(
                lookup_count(&z, lo, lo + 70),
                oracle_count(&data, lo, lo + 70)
            );
        }
    }

    #[test]
    fn lookup_matches_oracle_through_crack_sequence() {
        let data = test_data();
        let mut z = ReorgZone::build(&data, 0);
        for q in 0..60 {
            let lo = (q * 37) % 900;
            let hi = lo + 45;
            z.crack(lo, hi);
            assert_eq!(
                lookup_count(&z, lo, hi),
                oracle_count(&data, lo, hi),
                "query {q}"
            );
            // A cracked predicate needs no edge scans at all.
            assert_eq!(z.lookup(lo, hi).edge_rows(), 0);
        }
        assert!(
            z.is_sorted(),
            "enough bounds should trigger sort conversion"
        );
    }

    #[test]
    fn stays_a_permutation_and_rowids_track_values() {
        let data = test_data();
        let mut z = ReorgZone::build(&data, 100);
        for q in 0..30 {
            let lo = (q * 13) % 800;
            z.crack(lo, lo + 31);
        }
        let mut sorted_orig = data.clone();
        sorted_orig.sort_unstable();
        let mut sorted_view = z.values().to_vec();
        sorted_view.sort_unstable();
        assert_eq!(sorted_orig, sorted_view);
        for (i, &v) in z.values().iter().enumerate() {
            let base = (z.rowids()[i] - 100) as usize;
            assert_eq!(data[base], v, "rowid broken at view pos {i}");
        }
    }

    #[test]
    fn sorted_conversion_is_deterministic() {
        let data = test_data();
        let mut a = ReorgZone::build(&data, 0);
        let mut b = ReorgZone::build(&data, 0);
        // Different crack histories...
        a.crack(100, 200);
        a.crack(700, 800);
        b.crack(400, 450);
        a.sort_fully();
        b.sort_fully();
        // ...identical canonical layouts.
        assert_eq!(a.values(), b.values());
        assert_eq!(a.rowids(), b.rowids());
    }

    #[test]
    fn sorted_lookup_is_exact_run() {
        let data = vec![5i64, 1, 9, 3, 7, 3];
        let mut z = ReorgZone::build(&data, 0);
        z.sort_fully();
        let spans = z.lookup(3, 7);
        assert_eq!(spans.edge_rows(), 0);
        let vals: Vec<i64> = z.values()[spans.full.clone()].to_vec();
        assert_eq!(vals, vec![3, 3, 5, 7]);
        let mut rows: Vec<u32> = spans.full.map(|p| z.rowids()[p]).collect();
        rows.sort_unstable();
        assert_eq!(rows, vec![0, 3, 4, 5]);
    }

    #[test]
    fn min_max_is_exact_and_survives_cracking() {
        let data = vec![4i64, -7, 22, 0];
        let mut z = ReorgZone::build(&data, 0);
        assert_eq!(z.min_max(), (-7, 22));
        z.crack(0, 5);
        assert_eq!(z.min_max(), (-7, 22));
    }

    #[test]
    fn floats_with_nan_and_signed_zero() {
        let data = vec![0.5f64, -0.0, f64::NAN, 0.0, -1.5, f64::INFINITY];
        let mut z = ReorgZone::build(&data, 0);
        // Total order: NaN sorts above +inf, -0.0 below 0.0.
        let all = lookup_count_f64(&z, f64::NEG_INFINITY, f64::NAN);
        assert_eq!(all, 6);
        z.sort_fully();
        let spans = z.lookup(-0.0, 0.0);
        assert_eq!(spans.full.len(), 2, "both zeros inside [-0.0, 0.0]");
        let spans = z.lookup(0.0, 0.0);
        assert_eq!(
            spans.full.len(),
            1,
            "[0.0, 0.0] excludes -0.0 in total order"
        );
        let (lo, hi) = z.min_max();
        assert_eq!(lo, -1.5);
        assert!(hi.is_nan());
    }

    fn lookup_count_f64(z: &ReorgZone<f64>, lo: f64, hi: f64) -> usize {
        let spans = z.lookup(lo, hi);
        let mut count = spans.full.len();
        for edge in spans.edges.iter().flatten() {
            count += z.values()[edge.clone()]
                .iter()
                .filter(|v| v.in_range_total(&lo, &hi))
                .count();
        }
        count
    }

    #[test]
    fn repeated_cracks_move_no_bytes() {
        let data = test_data();
        let mut z = ReorgZone::build(&data, 0);
        assert!(z.crack(100, 300) > 0);
        assert_eq!(z.crack(100, 300), 0, "existing bounds cost nothing");
    }

    #[test]
    fn empty_and_single_row_zones() {
        let z = ReorgZone::<i64>::build(&[], 0);
        assert!(z.is_empty());
        assert!(z.is_sorted());
        assert_eq!(z.lookup(0, 10), ReorgSpans::default());
        let z = ReorgZone::build(&[42i64], 7);
        assert!(z.is_sorted(), "single row is trivially sorted");
        assert_eq!(z.lookup(40, 50).full, 0..1);
        assert_eq!(z.rowids(), &[7]);
        assert_eq!(z.min_max(), (42, 42));
    }

    #[test]
    fn bytes_moved_accounting_is_monotone() {
        let data = test_data();
        let mut z = ReorgZone::build(&data, 0);
        let built = z.bytes_moved();
        assert_eq!(built as usize, data.len() * (8 + 4));
        z.crack(10, 500);
        let cracked = z.bytes_moved();
        assert!(cracked >= built);
        z.sort_fully();
        assert!(z.bytes_moved() > cracked);
    }
}
