//! Shared immutable column versions.
//!
//! A [`SharedColumn`] is one frozen version of a column's data: cheap to
//! clone (an `Arc` bump), safe to read from any number of threads, and
//! never mutated in place. Growing the column produces a *new* version via
//! [`SharedColumn::append`]; readers holding the old version keep a
//! consistent view for as long as they need it. A writer may build that
//! new version in the allocation of an older one nobody reads any more
//! ([`SharedColumn::into_buffer`]), so an append copies only the rows the
//! older version lacks. This is the storage half
//! of snapshot isolation: a snapshot pairs one column version with the
//! index metadata computed over exactly that version, so stale metadata
//! can never be applied to newer data.

use crate::types::DataValue;
use std::sync::Arc;

/// One immutable version of a column, shareable across threads.
#[derive(Debug, Clone)]
pub struct SharedColumn<T: DataValue> {
    data: Arc<Vec<T>>,
    /// Monotone version number: 0 for the initial load, +1 per append.
    version: u64,
}

impl<T: DataValue> SharedColumn<T> {
    /// Freezes `data` as version 0.
    pub fn new(data: Vec<T>) -> Self {
        SharedColumn {
            data: Arc::new(data),
            version: 0,
        }
    }

    /// The column values.
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Number of rows in this version.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when this version holds no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// This version's number.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Produces the next version: this version's rows followed by `rows`,
    /// built in `buffer`, which holds a prefix of this version's rows — an
    /// earlier version of the same column reclaimed with
    /// [`SharedColumn::into_buffer`], or `Vec::new()`.
    ///
    /// Only the rows `buffer` lacks are copied: O(rows appended since
    /// `buffer`'s version) when it is an earlier version, O(len) — a fresh
    /// copy — when it is empty. Readers of `self` are unaffected either
    /// way. When `buffer` must grow it reserves 1/64 of the new length
    /// beyond it, so the next versions built in it do not reallocate.
    /// Appends are expected to be batched and serialized through a single
    /// writer (the service's maintenance thread), not fired per row.
    ///
    /// # Panics
    /// Panics when `buffer` is longer than this version, which no prefix
    /// is.
    pub fn append(&self, rows: &[T], mut buffer: Vec<T>) -> SharedColumn<T> {
        let have = buffer.len();
        assert!(
            have <= self.len(),
            "a buffer of {have} rows is no prefix of a {}-row version",
            self.len()
        );
        debug_assert!(
            buffer
                .iter()
                .zip(self.as_slice())
                .all(|(a, b)| a.total_key() == b.total_key()),
            "the buffer is not a prefix of this version"
        );
        let len = self.len() + rows.len();
        if buffer.capacity() < len {
            buffer.reserve_exact(len + len / 64 - have);
        }
        buffer.extend_from_slice(&self.data[have..]);
        buffer.extend_from_slice(rows);
        SharedColumn {
            data: Arc::new(buffer),
            version: self.version + 1,
        }
    }

    /// This version's allocation, handed back for the next
    /// [`SharedColumn::append`] to build in — `None` while any other clone
    /// of this version (a published snapshot, a reader's cache) is alive.
    pub fn into_buffer(self) -> Option<Vec<T>> {
        Arc::try_unwrap(self.data).ok()
    }

    /// Produces the next version with `data` as its rows — the compaction
    /// path: live rows densely repacked replace this version wholesale,
    /// and the version number still advances so consumers that sum shard
    /// versions into a monotone snapshot number keep their invariant
    /// (`new()` would restart at 0 and make the sum go backwards).
    pub fn replace(&self, data: Vec<T>) -> SharedColumn<T> {
        SharedColumn {
            data: Arc::new(data),
            version: self.version + 1,
        }
    }

    /// Bytes of column data this version holds.
    pub fn data_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }
}

impl<T: DataValue> std::ops::Deref for SharedColumn<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_produces_new_version_and_preserves_old() {
        let v0 = SharedColumn::new(vec![1i64, 2, 3]);
        let v1 = v0.append(&[4, 5], Vec::new());
        assert_eq!(v0.as_slice(), &[1, 2, 3]);
        assert_eq!(v1.as_slice(), &[1, 2, 3, 4, 5]);
        assert_eq!((v0.version(), v1.version()), (0, 1));
        assert_eq!((v0.len(), v1.len()), (3, 5));
    }

    #[test]
    fn an_unread_earlier_version_is_caught_up_in_its_own_allocation() {
        let v0 = SharedColumn::new((0..1000).collect::<Vec<i64>>());
        let v1 = v0.append(&[1000, 1001], Vec::new());
        let v2 = v1.append(&[1002], v0.into_buffer().expect("nobody reads v0"));
        let at = v1.as_slice().as_ptr();
        let v3 = v2.append(&[1003, 1004], v1.into_buffer().expect("nobody reads v1"));
        assert_eq!(v3.as_slice().as_ptr(), at, "v3 is built where v1 was");
        assert_eq!(v3.as_slice(), (0..1005).collect::<Vec<i64>>().as_slice());
        assert_eq!(v2.as_slice(), (0..1003).collect::<Vec<i64>>().as_slice());
        assert_eq!((v2.version(), v3.version()), (2, 3));
    }

    #[test]
    fn a_version_someone_reads_is_not_handed_back() {
        let v0 = SharedColumn::new(vec![1i64, 2, 3]);
        let reader = v0.clone();
        assert!(v0.into_buffer().is_none());
        assert_eq!(reader.as_slice(), &[1, 2, 3]);
        assert_eq!(
            reader.into_buffer(),
            Some(vec![1, 2, 3]),
            "the last clone may"
        );
    }

    #[test]
    #[should_panic(expected = "no prefix")]
    fn a_buffer_longer_than_the_version_is_refused() {
        let v0 = SharedColumn::new(vec![1i64, 2]);
        let _ = v0.append(&[3], vec![1, 2, 3]);
    }

    #[test]
    fn replace_swaps_rows_and_advances_version() {
        let v0 = SharedColumn::new(vec![1i64, 2, 3, 4]);
        let v1 = v0.append(&[5], Vec::new());
        let compacted = v1.replace(vec![2, 4, 5]);
        assert_eq!(compacted.as_slice(), &[2, 4, 5]);
        assert_eq!(compacted.version(), 2);
        assert_eq!(v1.as_slice(), &[1, 2, 3, 4, 5], "old version untouched");
    }

    #[test]
    fn clones_share_the_allocation() {
        let v0 = SharedColumn::new((0..1000).collect::<Vec<i64>>());
        let c = v0.clone();
        assert!(std::ptr::eq(v0.as_slice(), c.as_slice()));
        assert_eq!(c.version(), 0);
    }

    #[test]
    fn empty_and_bytes() {
        let e: SharedColumn<i64> = SharedColumn::new(Vec::new());
        assert!(e.is_empty());
        assert_eq!(e.data_bytes(), 0);
        let one = e.append(&[7], Vec::new());
        assert!(!one.is_empty());
        assert_eq!(one.data_bytes(), 8);
        // Deref gives slice methods directly.
        assert_eq!(one.iter().sum::<i64>(), 7);
    }
}
