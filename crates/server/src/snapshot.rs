//! Snapshot isolation: immutable query state published RCU-style, one
//! lane per shard.
//!
//! A [`ShardSnapshot`] pairs one immutable *shard* column version with the
//! zonemap state computed over exactly that version. Readers execute a
//! whole query against one snapshot per shard, so they can never mix stale
//! metadata with newer data: a lane's zone bounds are sound for its own
//! rows by construction, no matter how many publications have happened
//! since — and because soundness is shard-local, a reader may even hold
//! *different* publication rounds across lanes and still answer exactly
//! (only the tail shard's data ever grows, so any mix of lanes is a
//! consistent column prefix). Staleness only costs skipping opportunity,
//! never correctness.
//!
//! Publication goes through one [`SnapshotCell`] per shard, grouped in a
//! [`ShardedCell`] — a single writer (the maintenance thread) installs a
//! fresh `Arc` into exactly the lanes whose zonemaps changed and bumps
//! each lane's generation counter; readers keep a [`ShardedCache`] and on
//! every query do one atomic generation load per lane. When a generation
//! is unchanged (the overwhelmingly common case) the reader reuses its
//! cached `Arc` and the hot path acquires **no lock and touches no shared
//! cache line in write mode**. Only a lane whose generation moved takes
//! that lane's slot mutex for the few nanoseconds an `Arc` clone costs —
//! republishing one shard never invalidates readers' caches for the
//! untouched shards.

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{Arc, Mutex};
use ads_core::adaptive::AdaptiveZonemap;
use ads_storage::{DataValue, DeleteVector, SharedColumn};

/// One shard's immutable, internally consistent unit of query state.
#[derive(Debug, Clone)]
pub struct ShardSnapshot<T: DataValue> {
    /// The shard's column version this snapshot answers against.
    pub data: SharedColumn<T>,
    /// The shard's tombstones, frozen at publication together with the
    /// column version they describe and stamped with the mutation epoch
    /// of the batch that last changed them. Publishing data and deletes
    /// as one `Arc`'d unit is what makes mutation visibility untearable:
    /// a reader either sees a delete with its epoch or neither.
    pub delete: Arc<DeleteVector>,
    /// The shard lane's zonemap state frozen at publication, in
    /// shard-local row coordinates; readers prune it via
    /// [`AdaptiveZonemap::prune_shared`].
    pub zonemap: AdaptiveZonemap<T>,
    /// Global row id of the shard's first row. Appends route to the tail
    /// shard and never shift starts; compaction densely repacks a shard
    /// and therefore *does* shift every downstream start, republishing
    /// those lanes in the same maintenance round.
    pub start: usize,
    /// Monotone per-lane publication number (0 = the initial snapshot).
    pub version: u64,
}

/// The publication point for one payload: one writer swaps values in,
/// many readers fetch them with a generation-checked fast path.
///
/// Generic over the payload so the same cell publishes whole snapshots in
/// tests and [`ShardSnapshot`] lanes in the service.
#[derive(Debug)]
pub struct SnapshotCell<P> {
    /// Bumped (release) after each publication; readers poll it (acquire).
    generation: AtomicU64,
    /// The current value. Locked only by the publisher and by readers
    /// refreshing after a generation change.
    slot: Mutex<Arc<P>>,
}

impl<P> SnapshotCell<P> {
    /// Creates the cell holding `initial` as generation 0.
    pub fn new(initial: P) -> Self {
        SnapshotCell {
            generation: AtomicU64::new(0),
            slot: Mutex::new(Arc::new(initial)),
        }
    }

    /// Installs a new value. Readers observe it on their next
    /// [`SnapshotCache::refresh`]; existing readers keep their current
    /// value alive through its `Arc` until they drop it.
    pub fn publish(&self, value: P) {
        let arc = Arc::new(value);
        // invariant: single-writer publication; a poisoned slot means a
        // reader panicked mid-clone, which is already a torn process.
        *self.slot.lock().expect("snapshot slot poisoned") = arc;
        // ordering: Release — the bump publishes the slot store above;
        // a reader that Acquire-loads the new generation and then takes
        // the slot lock is guaranteed to see the new Arc.
        self.generation.fetch_add(1, Ordering::Release);
    }

    /// The current publication generation.
    pub fn generation(&self) -> u64 {
        // ordering: Acquire — pairs with the Release bump in publish();
        // seeing generation g makes publication g's slot store visible.
        self.generation.load(Ordering::Acquire)
    }

    /// Fetches the current value (cold path: takes the slot lock).
    /// Readers on the query path should use a [`SnapshotCache`] instead.
    pub fn load(&self) -> Arc<P> {
        // invariant: see publish() — slot poisoning is unrecoverable.
        self.slot.lock().expect("snapshot slot poisoned").clone()
    }

    /// A cache primed with the current value.
    pub fn cache(&self) -> SnapshotCache<P> {
        SnapshotCache {
            generation: self.generation(),
            snapshot: self.load(),
        }
    }
}

/// A reader's thread-local handle to the latest published value of one
/// [`SnapshotCell`].
#[derive(Debug)]
pub struct SnapshotCache<P> {
    generation: u64,
    snapshot: Arc<P>,
}

impl<P> SnapshotCache<P> {
    /// Returns the latest value, re-reading the cell only when the
    /// generation moved. The steady-state cost is a single atomic load.
    pub fn refresh(&mut self, cell: &SnapshotCell<P>) -> &Arc<P> {
        // Read the generation before the slot: if a publication lands
        // between the two, we fetch the even-newer value under an older
        // recorded generation and simply re-fetch next time — never a
        // stale-forever or torn view.
        //
        // ordering: Acquire — pairs with the Release bump in publish();
        // model-checked in tests/model.rs (snapshot_cell_* suites).
        let generation = cell.generation.load(Ordering::Acquire);
        if generation != self.generation {
            self.snapshot = cell.load();
            self.generation = generation;
        }
        &self.snapshot
    }

    /// The cached value without checking for updates.
    pub fn current(&self) -> &Arc<P> {
        &self.snapshot
    }

    /// The generation the cached value was fetched under.
    pub fn generation(&self) -> u64 {
        self.generation
    }
}

/// One [`SnapshotCell`] per shard: the publication surface of the sharded
/// service. The maintenance thread publishes into exactly the lanes whose
/// zonemaps changed; each lane's generation advances independently.
#[derive(Debug)]
pub struct ShardedCell<T: DataValue> {
    lanes: Vec<SnapshotCell<ShardSnapshot<T>>>,
}

impl<T: DataValue> ShardedCell<T> {
    /// Creates the cell group from the initial per-shard snapshots.
    ///
    /// # Panics
    /// Panics when `initial` is empty.
    pub fn new(initial: Vec<ShardSnapshot<T>>) -> Self {
        assert!(!initial.is_empty(), "need at least one shard lane");
        ShardedCell {
            lanes: initial.into_iter().map(SnapshotCell::new).collect(),
        }
    }

    /// Number of shard lanes (fixed for the service's lifetime).
    pub fn num_shards(&self) -> usize {
        self.lanes.len()
    }

    /// Lane `s`'s cell.
    pub fn lane(&self, s: usize) -> &SnapshotCell<ShardSnapshot<T>> {
        &self.lanes[s]
    }

    /// Publishes a fresh snapshot into lane `s` only; every other lane's
    /// generation — and therefore every reader's cached `Arc` for those
    /// lanes — is untouched.
    pub fn publish_shard(&self, s: usize, snapshot: ShardSnapshot<T>) {
        self.lanes[s].publish(snapshot);
    }

    /// Loads every lane's current snapshot (cold path: takes each slot
    /// lock once).
    pub fn load_all(&self) -> Vec<Arc<ShardSnapshot<T>>> {
        self.lanes.iter().map(SnapshotCell::load).collect()
    }

    /// A cache primed with every lane's current snapshot.
    pub fn cache(&self) -> ShardedCache<T> {
        ShardedCache {
            lanes: self.lanes.iter().map(SnapshotCell::cache).collect(),
        }
    }
}

/// A reader's per-lane snapshot caches; refreshing costs one atomic load
/// per lane in the steady state.
#[derive(Debug)]
pub struct ShardedCache<T: DataValue> {
    lanes: Vec<SnapshotCache<ShardSnapshot<T>>>,
}

impl<T: DataValue> ShardedCache<T> {
    /// Refreshes every lane that has a newer publication; lanes whose
    /// generation is unchanged keep their cached `Arc` untouched.
    pub fn refresh(&mut self, cell: &ShardedCell<T>) {
        for (cache, lane) in self.lanes.iter_mut().zip(&cell.lanes) {
            cache.refresh(lane);
        }
    }

    /// The cached lanes, in shard order.
    pub fn lanes(&self) -> &[SnapshotCache<ShardSnapshot<T>>] {
        &self.lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ads_core::adaptive::AdaptiveConfig;

    fn shard_snap(start: usize, rows: usize, version: u64) -> ShardSnapshot<i64> {
        ShardSnapshot {
            data: SharedColumn::new((0..rows as i64).collect()),
            delete: Arc::new(DeleteVector::new(rows, version)),
            zonemap: AdaptiveZonemap::new(rows, AdaptiveConfig::default()),
            start,
            version,
        }
    }

    #[test]
    fn publish_advances_generation_and_readers_observe() {
        let cell = SnapshotCell::new(shard_snap(0, 100, 0));
        let mut cache = cell.cache();
        assert_eq!(cache.refresh(&cell).version, 0);
        assert_eq!(cell.generation(), 0);

        cell.publish(shard_snap(0, 200, 1));
        assert_eq!(cell.generation(), 1);
        let s = cache.refresh(&cell);
        assert_eq!(s.version, 1);
        assert_eq!(s.data.len(), 200);
    }

    #[test]
    fn unchanged_generation_reuses_the_cached_arc() {
        let cell = SnapshotCell::new(shard_snap(0, 10, 0));
        let mut cache = cell.cache();
        let a = Arc::as_ptr(cache.refresh(&cell));
        let b = Arc::as_ptr(cache.refresh(&cell));
        assert_eq!(a, b);
    }

    #[test]
    fn old_readers_keep_their_snapshot_alive() {
        let cell = SnapshotCell::new(shard_snap(0, 50, 0));
        let old = cell.load();
        cell.publish(shard_snap(0, 60, 1));
        // The old Arc still answers against its own consistent state.
        assert_eq!(old.data.len(), 50);
        assert_eq!(cell.load().data.len(), 60);
    }

    #[test]
    fn single_shard_publish_bumps_exactly_one_generation() {
        // The republish-cost bugfix, pinned: publishing shard 2 must bump
        // that lane's generation and no other, and a reader refreshing
        // afterwards must keep its cached Arc (same allocation, no slot
        // lock taken) for every untouched lane.
        let cell = ShardedCell::new((0..4).map(|s| shard_snap(s * 100, 100, 0)).collect());
        let mut cache = cell.cache();
        cache.refresh(&cell);
        let before_gens: Vec<u64> = cache.lanes.iter().map(SnapshotCache::generation).collect();
        let before_ptrs: Vec<_> = cache
            .lanes()
            .iter()
            .map(|l| Arc::as_ptr(l.current()))
            .collect();
        assert_eq!(before_gens, vec![0, 0, 0, 0]);

        cell.publish_shard(2, shard_snap(200, 100, 1));
        let gens: Vec<u64> = cell.lanes.iter().map(SnapshotCell::generation).collect();
        assert_eq!(gens, vec![0, 0, 1, 0]);

        cache.refresh(&cell);
        let after_gens: Vec<u64> = cache.lanes.iter().map(SnapshotCache::generation).collect();
        for s in 0..4 {
            if s == 2 {
                assert_eq!(after_gens[s], before_gens[s] + 1);
                assert_ne!(Arc::as_ptr(cache.lanes()[s].current()), before_ptrs[s]);
                assert_eq!(cache.lanes()[s].current().version, 1);
            } else {
                assert_eq!(after_gens[s], before_gens[s], "lane {s} generation moved");
                assert_eq!(
                    Arc::as_ptr(cache.lanes()[s].current()),
                    before_ptrs[s],
                    "lane {s} cache invalidated by an unrelated publish"
                );
            }
        }
    }

    #[test]
    fn concurrent_readers_see_a_prefix_consistent_sequence() {
        let cell = Arc::new(SnapshotCell::new(shard_snap(0, 8, 0)));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                scope.spawn(move || {
                    let mut cache = cell.cache();
                    let mut last = 0u64;
                    for _ in 0..10_000 {
                        let v = cache.refresh(&cell).version;
                        assert!(v >= last, "snapshot went backwards");
                        last = v;
                    }
                });
            }
            for v in 1..=64 {
                cell.publish(shard_snap(0, 8, v));
            }
        });
        assert_eq!(cell.load().version, 64);
    }
}
