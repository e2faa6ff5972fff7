//! The out-of-place mutation primitive: epoch-stamped tombstones.
//!
//! The store's columns are immutable once published ([`crate::SharedColumn`]
//! shares its rows behind an `Arc`), so mutations never touch them in
//! place. A `delete(rowid)` sets a bit in an epoch-stamped [`DeleteVector`];
//! an `update(rowid, value)` tombstones the old row and appends the new
//! value at the tail (a fresh rowid); plain appends ride the same tail.
//! The server applies a whole batch of them before one snapshot swap, so
//! readers see either none of a batch or all of it, never a torn prefix.
//!
//! Scan kernels consume the delete vector word-wise: one
//! [`DeleteVector::live_window`] call covers a full 64-row block, ANDed
//! into the block's qualifying lane mask, so masking costs one load and
//! one AND per block instead of a per-row branch.

use crate::bitmap::Bitmap;

/// An epoch-stamped tombstone set over the rows of one column (or one
/// shard of one column).
///
/// Bit `i` set means row `i` is deleted. The epoch stamps which
/// publication round produced this version of the vector: a reader that
/// holds a snapshot `{column, delete_vector, epoch}` can always tell
/// which mutations its view includes, because the vector and its epoch
/// travel in the same allocation.
///
/// The bitmap is allocated by the first [`DeleteVector::delete`]: a column
/// nobody deletes from — and every frozen copy published of it — holds
/// the row count and an empty bitmap, which reads as all-live.
///
/// ```
/// use ads_storage::DeleteVector;
/// let mut dv = DeleteVector::new(100, 1);
/// assert!(dv.delete(42));
/// assert!(!dv.delete(42)); // idempotent: already dead
/// assert_eq!(dv.live_count(), 99);
/// assert_eq!(dv.live_window(42) & 1, 0); // row 42 masked out
/// ```
#[derive(Clone, Debug)]
pub struct DeleteVector {
    /// Empty until the first tombstone, `len` bits long from then on. Bits
    /// past a bitmap's end read as zero, so the empty one needs no case
    /// of its own on the scan path.
    deleted: Bitmap,
    len: usize,
    deleted_count: usize,
    epoch: u64,
}

impl DeleteVector {
    /// Creates an all-live vector over `len` rows, stamped `epoch`.
    pub fn new(len: usize, epoch: u64) -> Self {
        DeleteVector {
            deleted: Bitmap::new(0),
            len,
            deleted_count: 0,
            epoch,
        }
    }

    /// Number of rows the vector addresses.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector addresses zero rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The publication epoch this version of the vector belongs to.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Stamps a new publication epoch.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Tombstones row `row`. Returns `true` if the row was live (a new
    /// tombstone), `false` if it was already dead — deletes are
    /// idempotent and double-deletes never inflate the count.
    ///
    /// # Panics
    /// Panics if `row >= len`.
    pub fn delete(&mut self, row: usize) -> bool {
        assert!(row < self.len, "row {row} out of range {}", self.len);
        if self.deleted.is_empty() {
            self.deleted.grow(self.len);
        }
        if self.deleted.get(row) {
            return false;
        }
        self.deleted.set(row);
        self.deleted_count += 1;
        true
    }

    /// True if row `row` has been tombstoned.
    ///
    /// # Panics
    /// Panics if `row >= len`.
    #[inline]
    pub fn is_deleted(&self, row: usize) -> bool {
        assert!(row < self.len, "row {row} out of range {}", self.len);
        !self.deleted.is_empty() && self.deleted.get(row)
    }

    /// Number of tombstoned rows.
    #[inline]
    pub fn deleted_count(&self) -> usize {
        self.deleted_count
    }

    /// Number of live rows.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.len() - self.deleted_count
    }

    /// Fraction of rows tombstoned, in `[0, 1]`; `0` for an empty vector.
    pub fn tombstone_ratio(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.deleted_count as f64 / self.len() as f64
        }
    }

    /// The 64-row liveness window starting at row `bit`: result bit `i`
    /// is `1` iff row `bit + i` exists and is live. Rows at or past `len`
    /// read as dead, so a scan block that overhangs the column tail masks
    /// itself without a bounds branch.
    #[inline]
    pub fn live_window(&self, bit: usize) -> u64 {
        if bit >= self.len {
            return 0;
        }
        let live = !self.deleted.window_at(bit);
        let remaining = self.len - bit;
        if remaining < 64 {
            live & (u64::MAX >> (64 - remaining))
        } else {
            live
        }
    }

    /// Number of live rows in `start..end`, word-at-a-time.
    ///
    /// # Panics
    /// Panics if `end > len` or `start > end`.
    pub fn live_count_in_range(&self, start: usize, end: usize) -> usize {
        assert!(start <= end && end <= self.len, "bad range {start}..{end}");
        if self.deleted.is_empty() {
            return end - start;
        }
        (end - start) - self.deleted.count_ones_in_range(start, end)
    }

    /// The live rows of `rows` (the column this vector addresses), in
    /// order: what a compaction keeps. They are built in `into`, cleared
    /// first — an allocation nobody reads any more, or `Vec::new()` —
    /// which grows only when it cannot hold them. Works a 64-row window
    /// at a time — an all-live window is one slice copy, any other
    /// yields its set bits — so a mostly-live column costs no per-row
    /// test.
    ///
    /// # Panics
    /// Panics if `rows.len() != len`.
    pub fn live_rows<T: Copy>(&self, rows: &[T], into: Vec<T>) -> Vec<T> {
        assert_eq!(rows.len(), self.len, "rows and vector lengths differ");
        let mut live_rows = into;
        live_rows.clear();
        live_rows.reserve_exact(self.live_count());
        for (w, chunk) in rows.chunks(64).enumerate() {
            let mut live = self.live_window(w * 64);
            if live == u64::MAX >> (64 - chunk.len()) {
                live_rows.extend_from_slice(chunk);
                continue;
            }
            while live != 0 {
                // narrowing: the lowest set bit of a u64 is at most 63.
                live_rows.push(chunk[live.trailing_zeros() as usize]);
                live &= live - 1;
            }
        }
        live_rows
    }

    /// Grows the vector to cover `new_len` rows; appended rows are live.
    ///
    /// # Panics
    /// Panics if `new_len < len` (rows never disappear outside compaction,
    /// which builds a fresh vector instead).
    pub fn grow(&mut self, new_len: usize) {
        assert!(new_len >= self.len, "delete vector cannot shrink");
        if !self.deleted.is_empty() {
            self.deleted.grow(new_len);
        }
        self.len = new_len;
    }

    /// True if any row is tombstoned — the fast-path gate: kernels skip
    /// masking entirely on an all-live vector.
    #[inline]
    pub fn has_deletes(&self) -> bool {
        self.deleted_count > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delete_is_idempotent_and_counts_once() {
        let mut dv = DeleteVector::new(128, 0);
        assert!(dv.delete(5));
        assert!(!dv.delete(5));
        assert!(dv.delete(127));
        assert_eq!(dv.deleted_count(), 2);
        assert_eq!(dv.live_count(), 126);
        assert!(dv.is_deleted(5) && dv.is_deleted(127));
        assert!(!dv.is_deleted(6));
    }

    #[test]
    fn live_window_complements_and_kills_overhang() {
        let mut dv = DeleteVector::new(70, 0);
        dv.delete(0);
        dv.delete(65);
        // Block at 0: bit 0 dead, rest live.
        assert_eq!(dv.live_window(0), u64::MAX << 1); // bit 0 clear
        assert_eq!(dv.live_window(0) & 1, 0);
        // Block at 64: rows 64..70 exist (6 bits), row 65 dead.
        let w = dv.live_window(64);
        assert_eq!(w, 0b11_1101);
        // Fully past the end: all dead.
        assert_eq!(dv.live_window(70), 0);
        assert_eq!(dv.live_window(128), 0);
    }

    #[test]
    fn live_window_matches_per_row_reference() {
        let mut dv = DeleteVector::new(200, 0);
        for i in (0..200).step_by(3) {
            dv.delete(i);
        }
        for base in [0usize, 1, 63, 64, 65, 137, 199, 200] {
            let w = dv.live_window(base);
            for i in 0..64 {
                let want = base + i < 200 && !dv.is_deleted(base + i);
                assert_eq!((w >> i) & 1 == 1, want, "base={base} bit={i}");
            }
        }
    }

    #[test]
    fn live_count_in_range_matches_reference() {
        let mut dv = DeleteVector::new(300, 0);
        for i in (0..300).step_by(7) {
            dv.delete(i);
        }
        for (start, end) in [(0, 300), (0, 0), (5, 70), (63, 65), (64, 256)] {
            let want = (start..end).filter(|&i| !dv.is_deleted(i)).count();
            assert_eq!(dv.live_count_in_range(start, end), want, "{start}..{end}");
        }
    }

    #[test]
    fn live_rows_match_the_per_row_repack() {
        let per_row = |dv: &DeleteVector, rows: &[u32]| -> Vec<u32> {
            let live = rows.iter().enumerate().filter(|&(i, _)| !dv.is_deleted(i));
            live.map(|(_, &v)| v).collect()
        };
        // 200 rows: three whole words and a partial last word of 8 rows.
        let rows: Vec<u32> = (0..200).map(|i| i * 7 + 1).collect();
        let cases: [(&str, Vec<usize>); 6] = [
            ("all live", vec![]),
            ("word edges", vec![0, 63, 64, 127, 128, 191, 192, 199]),
            ("an all-dead word", (64..128).collect()),
            ("a dead partial word", (192..200).collect()),
            ("all dead", (0..200).collect()),
            ("scattered", vec![5, 70, 71, 150]),
        ];
        for (case, dead) in &cases {
            let mut dv = DeleteVector::new(rows.len(), 0);
            for &r in dead {
                dv.delete(r);
            }
            let got = dv.live_rows(&rows, Vec::new());
            assert_eq!(got, per_row(&dv, &rows), "{case}");
            assert_eq!(got.len(), dv.live_count(), "{case}");
            // A buffer that holds them is built in, none of its rows kept.
            let buffer = vec![u32::MAX; rows.len()];
            let at = buffer.as_ptr();
            let reused = dv.live_rows(&rows, buffer);
            assert_eq!((reused.as_ptr(), &reused), (at, &got), "{case}");
        }
        // A column shorter than one word, with and without a tombstone.
        let short = [4u32, 5, 6];
        let mut dv = DeleteVector::new(3, 0);
        assert_eq!(dv.live_rows(&short, Vec::new()), short);
        dv.delete(1);
        assert_eq!(dv.live_rows(&short, Vec::new()), [4, 6]);
        assert!(DeleteVector::new(0, 0)
            .live_rows::<u32>(&[], Vec::new())
            .is_empty());
    }

    #[test]
    fn grow_keeps_tombstones_and_adds_live_rows() {
        let mut dv = DeleteVector::new(10, 3);
        dv.delete(9);
        dv.grow(100);
        assert_eq!(dv.len(), 100);
        assert!(dv.is_deleted(9));
        assert!(!dv.is_deleted(50));
        assert_eq!(dv.live_count(), 99);
        assert_eq!(dv.epoch(), 3);
    }

    #[test]
    fn no_bitmap_until_the_first_delete_and_all_live_meanwhile() {
        let mut dv = DeleteVector::new(130, 4);
        assert!(dv.deleted.is_empty());
        assert!(!dv.has_deletes());
        assert_eq!(
            (dv.len(), dv.live_count(), dv.deleted_count()),
            (130, 130, 0)
        );
        assert!(!dv.is_deleted(0) && !dv.is_deleted(129));
        // Windows at block edges: full, straddling the tail, at and past it.
        assert_eq!(dv.live_window(0), u64::MAX);
        assert_eq!(dv.live_window(64), u64::MAX);
        assert_eq!(dv.live_window(67), u64::MAX >> 1);
        assert_eq!(dv.live_window(128), 0b11);
        assert_eq!(dv.live_window(129), 0b1);
        assert_eq!(dv.live_window(130), 0);
        assert_eq!(dv.live_count_in_range(0, 130), 130);
        assert_eq!(dv.live_count_in_range(63, 65), 2);
        assert_eq!(dv.live_count_in_range(7, 7), 0);
        // A frozen copy of an untouched vector costs no bits either.
        assert!(dv.clone().deleted.is_empty());

        // Growing before the first delete still allocates nothing …
        dv.grow(200);
        assert!(dv.deleted.is_empty());
        assert_eq!(dv.live_window(192), 0xFF);
        // … and the first delete allocates for the grown length.
        assert!(dv.delete(199));
        assert!(!dv.delete(199));
        assert_eq!(dv.deleted.len(), 200);
        assert_eq!(dv.live_window(192), 0x7F);
        assert_eq!((dv.live_count(), dv.epoch()), (199, 4));
        assert_eq!(dv.live_count_in_range(128, 200), 71);

        // Growing after: tombstones kept, appended rows live.
        dv.grow(260);
        assert!(dv.is_deleted(199) && !dv.is_deleted(259));
        assert_eq!(dv.live_window(256), 0b1111);
        assert_eq!(dv.live_count(), 259);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn delete_past_the_end_panics_before_allocating() {
        DeleteVector::new(10, 0).delete(10);
    }

    #[test]
    fn tombstone_ratio() {
        let mut dv = DeleteVector::new(4, 0);
        assert_eq!(dv.tombstone_ratio(), 0.0);
        dv.delete(0);
        assert_eq!(dv.tombstone_ratio(), 0.25);
        assert!(dv.has_deletes());
        assert_eq!(DeleteVector::new(0, 0).tombstone_ratio(), 0.0);
        assert!(DeleteVector::new(0, 0).is_empty());
    }

    #[test]
    fn epoch_restamps() {
        let mut dv = DeleteVector::new(8, 1);
        dv.set_epoch(9);
        assert_eq!(dv.epoch(), 9);
    }
}
