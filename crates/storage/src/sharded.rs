//! Sharded column versions: S contiguous partitions over [`SharedColumn`].
//!
//! A [`ShardedColumn`] cuts one logical column into a fixed number of
//! contiguous shards, each an independently versioned [`SharedColumn`].
//! The shard layout is the unit of everything the sharding layer makes
//! local: zone metadata, adaptation, snapshot publication, and scan
//! fan-out all operate per shard, and a global row id is recovered as
//! `shard start + local row`.
//!
//! Two layout rules keep the partition trivial to reason about:
//!
//! * **Contiguous, fixed count.** Shard `s` covers global rows
//!   `[start(s), start(s) + shard(s).len())`, shards are adjacent in shard
//!   order, and the shard count never changes after construction. Short
//!   columns simply leave trailing shards empty.
//! * **Appends route to the tail shard.** Growing the column produces a
//!   new [`ShardedColumn`] version in which only the last shard is a new
//!   [`SharedColumn`] version; every other shard is the same `Arc` as
//!   before. Readers holding older shard versions are unaffected, and
//!   publication layers only need to republish the one shard that moved.

use crate::shared::SharedColumn;
use crate::types::DataValue;

/// One logical column partitioned into contiguous shards.
#[derive(Debug, Clone)]
pub struct ShardedColumn<T: DataValue> {
    shards: Vec<SharedColumn<T>>,
    /// Global row id of each shard's first row; `starts[s] + shards[s].len()`
    /// is the start of shard `s + 1`.
    starts: Vec<usize>,
}

impl<T: DataValue> ShardedColumn<T> {
    /// Partitions `data` into `shards` contiguous pieces of
    /// `ceil(len / shards)` rows each; when the division is uneven the last
    /// piece is short, and when `shards` exceeds the row count the trailing
    /// shards are empty (they fill later via appends).
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    pub fn new(data: Vec<T>, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        let len = data.len();
        let chunk = len.div_ceil(shards).max(1);
        let mut out = ShardedColumn {
            shards: Vec::with_capacity(shards),
            starts: Vec::with_capacity(shards),
        };
        for s in 0..shards {
            let start = (s * chunk).min(len);
            let end = ((s + 1) * chunk).min(len);
            out.starts.push(start);
            out.shards
                .push(SharedColumn::new(data[start..end].to_vec()));
        }
        out
    }

    /// Wraps existing shard versions; `starts` are recomputed from the
    /// shard lengths.
    pub fn from_shards(shards: Vec<SharedColumn<T>>) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        let mut starts = Vec::with_capacity(shards.len());
        let mut at = 0usize;
        for shard in &shards {
            starts.push(at);
            at += shard.len();
        }
        ShardedColumn { shards, starts }
    }

    /// Number of shards (fixed for the lifetime of the column).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total rows across all shards.
    pub fn len(&self) -> usize {
        // invariant: constructors reject empty shard sets (both lines).
        self.starts.last().expect("at least one shard")
            + self.shards.last().expect("at least one shard").len()
    }

    /// True when no shard holds any rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shard `s`'s column version.
    pub fn shard(&self, s: usize) -> &SharedColumn<T> {
        &self.shards[s]
    }

    /// All shard versions, in shard order.
    pub fn shards(&self) -> &[SharedColumn<T>] {
        &self.shards
    }

    /// Global row id of shard `s`'s first row.
    pub fn start(&self, s: usize) -> usize {
        self.starts[s]
    }

    /// Global row ids of each shard's first row, in shard order.
    pub fn starts(&self) -> &[usize] {
        &self.starts
    }

    /// Rows per shard, in shard order.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(SharedColumn::len).collect()
    }

    /// Produces the next version: `rows` appended to the **tail shard**.
    ///
    /// Only the last shard becomes a new [`SharedColumn`] version; the
    /// other shards are shared (`Arc` bumps) with `self`, so readers and
    /// publication layers can tell exactly which shard moved.
    pub fn append(&self, rows: &[T]) -> ShardedColumn<T> {
        let mut shards = self.shards.clone();
        // invariant: constructors reject empty shard sets.
        let tail = shards.last_mut().expect("at least one shard");
        *tail = tail.append(rows);
        ShardedColumn {
            shards,
            starts: self.starts.clone(),
        }
    }

    /// Gathers all shards into one contiguous vector, in global row order.
    /// Intended for tests and reference comparisons, not the hot path.
    pub fn to_vec(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            out.extend_from_slice(shard.as_slice());
        }
        out
    }

    /// Bytes of column data across all shard versions.
    pub fn data_bytes(&self) -> usize {
        self.shards.iter().map(SharedColumn::data_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_contiguous_and_covers_everything() {
        let data: Vec<i64> = (0..103).collect();
        for shards in [1, 2, 3, 8, 16] {
            let col = ShardedColumn::new(data.clone(), shards);
            assert_eq!(col.num_shards(), shards);
            assert_eq!(col.len(), 103);
            assert_eq!(col.to_vec(), data, "{shards} shards reorder rows");
            // Contiguity: each shard starts where the previous ended.
            let mut at = 0;
            for s in 0..shards {
                assert_eq!(col.start(s), at, "{shards} shards: gap at {s}");
                at += col.shard(s).len();
            }
            assert_eq!(at, 103);
        }
    }

    #[test]
    fn more_shards_than_rows_leaves_empty_tails() {
        let col = ShardedColumn::new((0..5i64).collect(), 8);
        assert_eq!(col.shard_lens(), vec![1, 1, 1, 1, 1, 0, 0, 0]);
        assert_eq!(col.len(), 5);
        assert!(!col.is_empty());
        // Empty shards still have well-defined (empty) ranges at the end.
        assert_eq!((col.start(7), col.shard(7).len()), (5, 0));
    }

    #[test]
    fn empty_column_shards_cleanly() {
        let col: ShardedColumn<i64> = ShardedColumn::new(Vec::new(), 4);
        assert!(col.is_empty());
        assert_eq!(col.shard_lens(), vec![0, 0, 0, 0]);
        assert_eq!(col.data_bytes(), 0);
    }

    #[test]
    fn append_touches_only_the_tail_shard() {
        let v0 = ShardedColumn::new((0..100i64).collect(), 4);
        let v1 = v0.append(&[100, 101, 102]);
        assert_eq!(v0.len(), 100);
        assert_eq!(v1.len(), 103);
        assert_eq!(v1.to_vec(), (0..103).collect::<Vec<i64>>());
        for s in 0..3 {
            // Non-tail shards are the same version, sharing their allocation.
            assert!(std::ptr::eq(v0.shard(s).as_slice(), v1.shard(s).as_slice()));
            assert_eq!(v0.shard(s).version(), v1.shard(s).version());
        }
        assert_eq!(v1.shard(3).version(), v0.shard(3).version() + 1);
        assert_eq!(v1.starts(), v0.starts());
    }

    #[test]
    fn appends_grow_an_empty_tail() {
        let v0 = ShardedColumn::new((0..3i64).collect(), 8);
        let v1 = v0.append(&[3, 4]);
        assert_eq!(v1.to_vec(), vec![0, 1, 2, 3, 4]);
        assert_eq!(v1.shard(7).as_slice(), &[3, 4]);
        assert_eq!((v1.start(7), v1.shard(7).len()), (3, 2));
        // Intermediate empty shards stay empty; contiguity holds because
        // they all start at the same global row as the tail.
        assert_eq!(v1.shard_lens(), vec![1, 1, 1, 0, 0, 0, 0, 2]);
    }

    #[test]
    fn from_shards_recomputes_starts() {
        let shards = vec![
            SharedColumn::new(vec![1i64, 2]),
            SharedColumn::new(vec![3]),
            SharedColumn::new(Vec::new()),
            SharedColumn::new(vec![4, 5, 6]),
        ];
        let col = ShardedColumn::from_shards(shards);
        assert_eq!(col.starts(), &[0, 2, 3, 3]);
        assert_eq!(col.to_vec(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedColumn::new(vec![1i64], 0);
    }
}
