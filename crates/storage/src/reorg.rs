//! Zone-local physical reorganization payloads.
//!
//! A [`ReorgZone`] is the `Reorganized` layout of a single zonemap zone:
//! a copy of the zone's rows — values alongside their base row ids —
//! sorted once, when it is built. Any range predicate then resolves
//! positionally: two binary searches yield a contiguous run of
//! qualifying view positions, and the rowid permutation maps them back
//! to base rows.
//!
//! The payload is pure data and immutable from construction: it knows
//! nothing about zonemaps, epochs, or publication, and callers share it
//! across threads behind a plain `Arc`.

use crate::types::DataValue;
use std::ops::Range;

/// A reorganized zone: the zone's values in total order plus the rowid
/// permutation mapping view positions back to base rows.
#[derive(Debug)]
pub struct ReorgZone<T: DataValue> {
    values: Vec<T>,
    rowids: Vec<u32>,
}

impl<T: DataValue> ReorgZone<T> {
    /// Copies the zone's rows out of the base column and sorts them.
    /// `first_rowid` is the base row id of `slice[0]` (shard-local
    /// coordinates). `(value, rowid)` pairs are ordered by total order,
    /// ties broken by ascending rowid, so the permutation is
    /// deterministic.
    pub fn build(slice: &[T], first_rowid: u32) -> Self {
        let mut pairs: Vec<(T, u32)> = slice.iter().copied().zip(first_rowid..).collect();
        pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let (values, rowids) = pairs.into_iter().unzip();
        ReorgZone { values, rowids }
    }

    /// Bytes copied or relocated building the payload: one pass of
    /// `(value, rowid)` pairs for the copy and one for the sort.
    pub fn bytes_moved(&self) -> u64 {
        let row_bytes = std::mem::size_of::<T>() + std::mem::size_of::<u32>();
        (2 * self.values.len() * row_bytes) as u64
    }

    /// Exact `(min, max)` of every row in the zone (identities for an
    /// empty zone).
    pub fn min_max(&self) -> (T, T) {
        match (self.values.first(), self.values.last()) {
            (Some(&min), Some(&max)) => (min, max),
            _ => (T::MAX_VALUE, T::MIN_VALUE),
        }
    }

    /// The zone's values, in view (total) order.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Base row id for each view position.
    pub fn rowids(&self) -> &[u32] {
        &self.rowids
    }

    /// The view positions whose values lie in the inclusive range
    /// `[lo, hi]` (total order): every one qualifies, none outside does.
    pub fn lookup(&self, lo: T, hi: T) -> Range<usize> {
        let start = self.values.partition_point(|v| v.lt_total(&lo));
        let end = self.values.partition_point(|v| v.le_total(&hi));
        start..end.max(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle_count(data: &[i64], lo: i64, hi: i64) -> usize {
        data.iter().filter(|v| v.in_range_total(&lo, &hi)).count()
    }

    fn test_data() -> Vec<i64> {
        (0..2000).map(|i| (i * 2654435761i64) % 997).collect()
    }

    #[test]
    fn lookup_matches_oracle() {
        let data = test_data();
        let z = ReorgZone::build(&data, 0);
        for q in 0..60 {
            let lo = (q * 37) % 900;
            let hi = lo + 45;
            let run = z.lookup(lo, hi);
            assert_eq!(run.len(), oracle_count(&data, lo, hi), "query {q}");
            assert!(z.values()[run].iter().all(|v| v.in_range_total(&lo, &hi)));
        }
        assert!(z.lookup(500, 400).is_empty(), "inverted range");
    }

    #[test]
    fn is_a_permutation_and_rowids_track_values() {
        let data = test_data();
        let z = ReorgZone::build(&data, 100);
        let mut sorted_orig = data.clone();
        sorted_orig.sort_unstable();
        assert_eq!(z.values(), &sorted_orig[..]);
        for (i, &v) in z.values().iter().enumerate() {
            let base = (z.rowids()[i] - 100) as usize;
            assert_eq!(data[base], v, "rowid broken at view pos {i}");
        }
        // Equal values keep ascending rowids: the layout is canonical.
        for w in z.values().windows(2).zip(z.rowids().windows(2)) {
            if w.0[0] == w.0[1] {
                assert!(w.1[0] < w.1[1]);
            }
        }
        assert_eq!(z.bytes_moved() as usize, 2 * data.len() * (8 + 4));
    }

    #[test]
    fn lookup_is_exact_run() {
        let data = vec![5i64, 1, 9, 3, 7, 3];
        let z = ReorgZone::build(&data, 0);
        assert_eq!(z.min_max(), (1, 9));
        let run = z.lookup(3, 7);
        assert_eq!(z.values()[run.clone()], [3, 3, 5, 7]);
        let rows: Vec<u32> = run.map(|p| z.rowids()[p]).collect();
        assert_eq!(rows, vec![3, 5, 0, 4]);
    }

    #[test]
    fn floats_with_nan_and_signed_zero() {
        let data = vec![0.5f64, -0.0, f64::NAN, 0.0, -1.5, f64::INFINITY];
        let z = ReorgZone::build(&data, 0);
        // Total order: NaN sorts above +inf, -0.0 below 0.0.
        assert_eq!(z.lookup(f64::NEG_INFINITY, f64::NAN).len(), 6);
        assert_eq!(
            z.lookup(-0.0, 0.0).len(),
            2,
            "both zeros inside [-0.0, 0.0]"
        );
        assert_eq!(
            z.lookup(0.0, 0.0).len(),
            1,
            "[0.0, 0.0] excludes -0.0 in total order"
        );
        let (lo, hi) = z.min_max();
        assert_eq!(lo, -1.5);
        assert!(hi.is_nan());
    }

    #[test]
    fn empty_and_single_row_zones() {
        let z = ReorgZone::<i64>::build(&[], 0);
        assert!(z.values().is_empty());
        assert_eq!(z.lookup(0, 10), 0..0);
        assert_eq!(z.min_max(), (i64::MAX, i64::MIN));
        let z = ReorgZone::build(&[42i64], 7);
        assert_eq!(z.lookup(40, 50), 0..1);
        assert_eq!(z.rowids(), &[7]);
        assert_eq!(z.min_max(), (42, 42));
    }
}
