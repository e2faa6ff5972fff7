//! The authoritative state of the service and its transitions.
//!
//! An [`Owner`] holds what exactly one thread at a time may change: the
//! sharded column, one zonemap lane and one delete vector per shard, and
//! the bookkeeping that ties them together. Every way that state moves is
//! a method here, written once — [`Owner::execute`] (the inline query),
//! [`Owner::append`], [`Owner::mutate`], [`Owner::compact`],
//! [`Owner::feedback`], [`Owner::maintain`] — and [`Owner::snapshot`]
//! freezes lane `s` for publication. The service only decides *who* holds
//! the owner: inline mode keeps it under a mutex its workers take per
//! query, the snapshot modes hand it by value to the maintenance thread.
//! No thread, channel or cell is involved, so each transition can be
//! tested on its own.
//!
//! ## What identifies a lane
//!
//! A zonemap lane describes one shard *data version*. Appends extend the
//! tail shard and leave every existing row where it was, so a lane stays
//! the same lane across them; compaction repacks a shard's live rows and
//! rebuilds its lane from scratch, after which row `r` of the shard is a
//! different row. The owner records the shard's
//! [`SharedColumn::version`] at each rebuild (`rebuilt_at`), and
//! [`Owner::feedback`] applies an observation only when the reader
//! scanned a version at least that new. The row-range alignment check
//! inside `observe` cannot stand in for this: a rebuilt lane cuts its
//! zones at the same multiples of the target zone size, so an old
//! observation *does* align — and would stamp the old rows' `(min, max)`,
//! mask bits or reorganized-payload bounds onto zones that now hold
//! other rows.

use crate::snapshot::ShardSnapshot;
use crate::stats::OwnerTotals;
use crate::sync::Arc;
use ads_core::adaptive::{AdaptiveConfig, AdaptiveZonemap, ShardedZonemap};
use ads_core::{RangeObservation, RangePredicate, ScanObservation, SkippingIndex};
use ads_engine::{execute_sharded, AggKind, ExecPolicy, QueryAnswer, ShardedQueryMetrics};
use ads_storage::{DataValue, DeleteVector, RowRange, ShardedColumn, SharedColumn};

/// One out-of-place mutation, addressed by global row id — the same
/// rowid space query POSITIONS answers use (`shard start + local row`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mutation<T: DataValue> {
    /// Tombstone the row: queries stop counting it as soon as the
    /// mutation is acknowledged; the bytes are physically reclaimed at
    /// the next compaction. Deleting an already-dead row is a no-op.
    Delete(usize),
    /// Tombstone the row and append the new value to the tail shard
    /// under a fresh rowid. Updating an already-deleted row is a no-op
    /// (the delete won, so no new version is written).
    Update(usize, T),
}

/// The service's authoritative state; see the module docs.
#[derive(Debug)]
pub struct Owner<T: DataValue> {
    column: ShardedColumn<T>,
    zonemap: ShardedZonemap<T>,
    /// One delete vector per shard, shard-local coordinates.
    deletes: Vec<DeleteVector>,
    /// Lanes whose rows, tombstones or global start changed since
    /// [`Owner::take_dirty`] last asked: they must republish whatever
    /// their zonemap epoch says.
    dirty: Vec<bool>,
    /// Mutation batches applied; stamps the delete vectors, so a published
    /// snapshot carries the epoch of the batch that last changed its
    /// tombstones.
    epoch: u64,
    /// The data version of each shard when its lane was last rebuilt from
    /// scratch (0 = the initial load).
    rebuilt_at: Vec<u64>,
    /// The totals as far as they are counted here: events as they happen,
    /// and the reorg and tier counters of the lanes compaction has
    /// retired — so no total goes backwards when a fresh lane starts from
    /// zero. [`Owner::totals`] adds what the live lanes hold.
    counted: OwnerTotals,
}

impl<T: DataValue> Owner<T> {
    /// Loads `data` into `shards` shards, every lane unbuilt and every
    /// row live.
    pub fn new(data: Vec<T>, shards: usize, adaptive: AdaptiveConfig) -> Self {
        let column = ShardedColumn::new(data, shards);
        Owner {
            zonemap: ShardedZonemap::for_column(&column, adaptive),
            deletes: column
                .shards()
                .iter()
                .map(|shard| DeleteVector::new(shard.len(), 0))
                .collect(),
            dirty: vec![false; shards],
            epoch: 0,
            rebuilt_at: vec![0; shards],
            counted: OwnerTotals::default(),
            column,
        }
    }

    /// Number of shards (fixed for the owner's lifetime).
    pub fn num_shards(&self) -> usize {
        self.column.num_shards()
    }

    /// Lane `s`'s zonemap (shard-local coordinates).
    pub fn lane(&self, s: usize) -> &AdaptiveZonemap<T> {
        self.zonemap.lane(s)
    }

    /// Shard `s`'s tombstones (shard-local coordinates).
    pub fn deletes(&self, s: usize) -> &DeleteVector {
        &self.deletes[s]
    }

    /// Sum of the shards' data versions: monotone, moved by every append,
    /// update and compaction.
    pub fn data_version(&self) -> u64 {
        self.column.shards().iter().map(SharedColumn::version).sum()
    }

    /// The structural state of every lane, in global row coordinates.
    pub fn zone_snapshot(&self) -> Vec<(RowRange, &'static str, f64)> {
        self.zonemap.zone_snapshot()
    }

    /// Whether lane `s` must republish regardless of its zonemap epoch;
    /// asking clears the flag.
    pub fn take_dirty(&mut self, s: usize) -> bool {
        std::mem::take(&mut self.dirty[s])
    }

    /// Lane `s` frozen for publication as number `version`: the shard's
    /// data version, the zonemap state over exactly that version — what
    /// readers prune and count from, without the owner's retained trace
    /// events — and `delete`, a frozen copy of [`Owner::deletes`]`(s)`,
    /// handed in so a publisher can keep sharing one `Arc` while the
    /// tombstones stand.
    pub fn snapshot(&self, s: usize, delete: Arc<DeleteVector>, version: u64) -> ShardSnapshot<T> {
        debug_assert_eq!(delete.len(), self.column.shard(s).len());
        ShardSnapshot {
            data: self.column.shard(s).clone(),
            delete,
            zonemap: self.zonemap.lane(s).clone_for_readers(),
            start: self.column.start(s),
            version,
        }
    }

    /// The inline query: prune → scan → observe on every lane, adaptation
    /// applied before the answer returns.
    pub fn execute(
        &mut self,
        predicate: RangePredicate<T>,
        agg: AggKind,
    ) -> (QueryAnswer<T>, ShardedQueryMetrics) {
        execute_sharded(
            &self.column,
            &mut self.zonemap,
            Some(&self.deletes),
            predicate,
            agg,
            &ExecPolicy::sequential(),
        )
    }

    /// Appends `rows` to the tail shard.
    pub fn append(&mut self, rows: &[T]) {
        self.extend_tail(rows);
        self.counted.appends += 1;
    }

    /// Grows the tail shard by `rows`; returns the tail shard's index.
    fn extend_tail(&mut self, rows: &[T]) -> usize {
        self.column = self.column.append(rows);
        let tail = self.num_shards() - 1;
        let shard = self.column.shard(tail);
        self.zonemap.on_append_tail(rows, shard.as_slice());
        self.deletes[tail].grow(shard.len());
        self.dirty[tail] = true;
        tail
    }

    /// Applies one client mutation batch out-of-place: deletes tombstone
    /// their row; updates tombstone the old row and append the new value
    /// to the tail shard (rowids are resolved against the column *before*
    /// any of this batch's appends land, so a batch cannot address its own
    /// new rows). Returns how many mutations took effect.
    ///
    /// # Panics
    /// Panics on a rowid at or past the current column length.
    pub fn mutate(&mut self, mutations: &[Mutation<T>]) -> usize {
        self.epoch += 1;
        let mut applied = 0usize;
        let mut tail_appends: Vec<T> = Vec::new();
        for m in mutations {
            let (row, update) = match *m {
                Mutation::Delete(row) => (row, None),
                Mutation::Update(row, value) => (row, Some(value)),
            };
            assert!(
                row < self.column.len(),
                "mutation rowid {row} out of range ({} rows)",
                self.column.len()
            );
            let s = self.shard_of_row(row);
            if self.deletes[s].delete(row - self.column.start(s)) {
                self.deletes[s].set_epoch(self.epoch);
                self.dirty[s] = true;
                applied += 1;
                tail_appends.extend(update);
            }
        }
        if !tail_appends.is_empty() {
            let tail = self.extend_tail(&tail_appends);
            self.deletes[tail].set_epoch(self.epoch);
        }
        self.counted.mutation_batches += 1;
        self.counted.mutations_applied += applied as u64;
        applied
    }

    /// Locates the shard holding global row `row < len`: the last shard
    /// whose start is at or below it (empty shards share their
    /// successor's start and are skipped by taking the last).
    fn shard_of_row(&self, row: usize) -> usize {
        let s = (0..self.num_shards())
            .rfind(|&s| self.column.start(s) <= row)
            // invariant: shard 0 starts at row 0, so some start is <= row.
            .expect("shard 0 covers row 0");
        debug_assert!(row - self.column.start(s) < self.column.shard(s).len());
        s
    }

    /// Densely repacks every shard whose tombstone ratio reaches
    /// `min_ratio` (every tombstoned shard when `None`): live rows are
    /// rewritten in order via [`SharedColumn::replace`], the shard's
    /// delete vector resets to all-live, and its zonemap lane is replaced
    /// by one rebuilt over the new rows — a new lane identity, recorded
    /// so [`Owner::feedback`] can refuse what readers of the old one still
    /// send. The retired lane's reorg and tier counters fold into the
    /// totals. Returns the total rows reclaimed.
    pub fn compact(&mut self, min_ratio: Option<f64>) -> usize {
        let mut reclaimed_total = 0usize;
        for s in 0..self.num_shards() {
            let dv = &self.deletes[s];
            if !dv.has_deletes() || min_ratio.is_some_and(|r| dv.tombstone_ratio() < r) {
                continue;
            }
            let shard = self.column.shard(s);
            let mut live_rows = Vec::with_capacity(dv.live_count());
            for (i, v) in shard.as_slice().iter().enumerate() {
                if !dv.is_deleted(i) {
                    live_rows.push(*v);
                }
            }
            let reclaimed = shard.len() - live_rows.len();
            let mut shards = self.column.shards().to_vec();
            shards[s] = shards[s].replace(live_rows);
            self.column = ShardedColumn::from_shards(shards);
            let repacked = self.column.shard(s);
            self.deletes[s] = DeleteVector::new(repacked.len(), self.epoch);
            self.rebuilt_at[s] = repacked.version();
            let retired = self.zonemap.lane(s);
            self.counted.reorg.merge(&retired.reorg_stats());
            self.counted.tiers.merge(&retired.tier_stats());
            let lane = rebuilt_lane(repacked.as_slice(), retired.config().clone());
            self.zonemap
                .replace_lane(s, lane, &self.column.shard_lens());
            // The repacked lane and every lane downstream of it (their
            // global starts shifted by `reclaimed`) must republish.
            self.dirty[s..].fill(true);
            self.counted.compactions_run += 1;
            self.counted.rows_reclaimed += reclaimed as u64;
            reclaimed_total += reclaimed;
        }
        reclaimed_total
    }

    /// Applies one deferred query's worth of adaptation: entry `s` is the
    /// data version of shard `s` the reader scanned and what its scan
    /// observed there. An observation of a version older than the lane's
    /// last rebuild is dropped whole — no re-prune, no `observe` — and
    /// counted in [`OwnerTotals::feedback_stale`]; see the module docs.
    pub fn feedback(&mut self, observations: &[(u64, ScanObservation<T>)]) {
        debug_assert_eq!(observations.len(), self.num_shards());
        for (s, (seen, obs)) in observations.iter().enumerate() {
            if *seen < self.rebuilt_at[s] {
                self.counted.feedback_stale += 1;
            } else {
                self.zonemap.lane_mut(s).apply_feedback(obs);
            }
        }
    }

    /// One maintenance pass over every lane: reorganization (promote hot
    /// zones, demote cold ones), then metadata tiers (judge drop windows,
    /// build sketches the replayed feedback has amortised), then the
    /// revival check the next query's prune would run — so a snapshot
    /// taken now is the state an inline executor would start the next
    /// query from. Every change bumps the lane's mutation epoch.
    pub fn maintain(&mut self) {
        for s in 0..self.num_shards() {
            let _ = self
                .zonemap
                .lane_mut(s)
                .apply_reorg(self.column.shard(s).as_slice());
        }
        for s in 0..self.num_shards() {
            let _ = self
                .zonemap
                .lane_mut(s)
                .apply_tiers(self.column.shard(s).as_slice());
        }
        self.zonemap.poll_revival();
    }

    /// Counts one publication round: `lanes` lanes cloned at `bytes` of
    /// zonemap metadata, where cloning every lane would have cost
    /// `whole_map_bytes`.
    pub(crate) fn note_publication(&mut self, lanes: u64, bytes: u64, whole_map_bytes: u64) {
        self.counted.snapshots_published += u64::from(lanes > 0);
        self.counted.shards_republished += lanes;
        self.counted.republish_bytes += bytes;
        self.counted.whole_map_bytes += whole_map_bytes;
    }

    /// The owner's lifetime totals as of now: what it has counted plus the
    /// live lanes' reorg and tier counters and the tombstone gauge.
    pub fn totals(&self) -> OwnerTotals {
        let mut totals = self.counted;
        totals.reorg.merge(&self.zonemap.reorg_stats());
        totals.tiers.merge(&self.zonemap.tier_stats());
        let rows: usize = self.deletes.iter().map(DeleteVector::len).sum();
        let dead: usize = self.deletes.iter().map(DeleteVector::deleted_count).sum();
        totals.tombstone_ppm = (dead as u64).saturating_mul(1_000_000) / (rows as u64).max(1);
        totals
    }
}

/// A fresh zonemap lane over a compacted shard, its zones eagerly built
/// with tight bounds: one synthetic all-matching observation walks the
/// lane's own zone-aligned prune units, so the rebuilt metadata is
/// exactly what a full scan would have observed — no query traffic is
/// needed to re-tighten bounds after compaction.
fn rebuilt_lane<T: DataValue>(data: &[T], config: AdaptiveConfig) -> AdaptiveZonemap<T> {
    let mut lane = AdaptiveZonemap::new(data.len(), config);
    let Some(&first) = data.first() else {
        return lane;
    };
    let (lo, hi) = data.iter().fold((first, first), |(lo, hi), &v| {
        (lo.min_total(v), hi.max_total(v))
    });
    let predicate = RangePredicate::between(lo, hi);
    let outcome = SkippingIndex::prune(&mut lane, &predicate);
    let ranges = outcome
        .units()
        .iter()
        .map(|unit| {
            // live: freshly compacted shard — every tombstone dropped.
            let (q, mn, mx) =
                ads_storage::scan::count_in_range_with_minmax(&data[unit.start..unit.end], lo, hi);
            RangeObservation::new(*unit, q, mn, mx)
        })
        .collect();
    lane.observe(&ScanObservation { predicate, ranges });
    lane
}

#[cfg(test)]
mod tests {
    use super::*;
    use ads_engine::{scan_sharded, ShardScanInput};

    const ROWS: i64 = 20_000;

    fn frozen(owner: &Owner<i64>, version: u64) -> ShardSnapshot<i64> {
        owner.snapshot(0, Arc::new(owner.deletes(0).clone()), version)
    }

    /// What a reader holding `snap` sends back for `pred`: the data
    /// version it scanned beside what the production scan observed.
    fn read(snap: &ShardSnapshot<i64>, pred: RangePredicate<i64>) -> (u64, ScanObservation<i64>) {
        let outcome = snap.zonemap.prune_shared(&pred);
        let lane = ShardScanInput {
            data: snap.data.as_slice(),
            outcome: &outcome,
            start: snap.start,
            live: Some(snap.delete.as_ref()),
        };
        let mut result = scan_sharded(&[lane], pred, AggKind::Count, &ExecPolicy::sequential());
        let obs = result.observations.pop().expect("one lane, one batch");
        (snap.data.version(), obs)
    }

    /// No zone's metadata excludes a row the shard holds: a point probe
    /// for every value must still reach that value's row.
    fn assert_bounds_cover_rows(owner: &Owner<i64>) {
        let snap = frozen(owner, 0);
        for (row, &v) in snap.data.as_slice().iter().enumerate() {
            let out = snap.zonemap.prune_shared(&RangePredicate::point(v));
            assert!(
                out.must_scan.contains(row) || out.full_match.contains(row),
                "row {row} (value {v}) excluded by zone metadata"
            );
        }
    }

    #[test]
    fn feedback_scanned_before_a_compaction_never_teaches_the_rebuilt_lane() {
        // Ascending rows: zone k of the loaded column holds 4096k.., zone k
        // of the compacted one 4096k + 1.. — the same row ranges, other rows.
        let mut owner = Owner::new((0..ROWS).collect(), 1, AdaptiveConfig::default());
        let all = RangePredicate::between(0, ROWS);
        let late = read(&frozen(&owner, 0), all);
        assert!(
            late.1.ranges.iter().any(|r| r.bounds.is_some()),
            "the cold scan carries bounds to teach"
        );

        assert_eq!(owner.mutate(&[Mutation::Delete(0)]), 1);
        assert_eq!(owner.compact(None), 1);
        assert!(owner.take_dirty(0), "a repacked lane must republish");
        owner.feedback(&[late]);
        assert_bounds_cover_rows(&owner);
        assert_eq!(owner.totals().feedback_stale, 1);

        // A reader of the rebuilt lane is heard, appends notwithstanding:
        // they move the data version without moving a row.
        let fresh = read(&frozen(&owner, 1), RangePredicate::between(100, 200));
        owner.append(&[ROWS, ROWS + 1]);
        // (Witnessed by the lane's query clock: the epoch only says
        // whether a reader would now decide differently.)
        let queries = owner.lane(0).index_stats().queries;
        owner.feedback(&[fresh]);
        assert_eq!(owner.totals().feedback_stale, 1);
        assert_eq!(
            owner.lane(0).index_stats().queries,
            queries + 1,
            "applied feedback"
        );
        assert_bounds_cover_rows(&owner);
    }

    #[test]
    fn a_published_lane_prunes_like_the_owner_s_and_carries_no_trace_events() {
        let mut owner = Owner::new((0..ROWS).collect(), 1, AdaptiveConfig::default());
        let preds: Vec<_> = (0..12)
            .map(|k| RangePredicate::between(k * 1_500, k * 1_500 + 40))
            .collect();
        for pred in preds.iter().cycle().take(60) {
            owner.execute(*pred, AggKind::Count);
        }
        let lane = owner.lane(0);
        let retained = lane.trace().recent().len();
        assert!(retained > 0, "builds and splits left events to retain");

        let snap = frozen(&owner, 1);
        assert!(snap.zonemap.trace().recent().is_empty());
        assert_eq!(snap.zonemap.trace().totals(), lane.trace().totals());
        assert_eq!(snap.zonemap.adapt_events(), lane.adapt_events());
        assert_eq!(snap.zonemap.zone_snapshot(), lane.zone_snapshot());
        assert_eq!(snap.zonemap.mutation_epoch(), lane.mutation_epoch());
        for pred in &preds {
            assert_eq!(snap.zonemap.prune_shared(pred), lane.prune_shared(pred));
        }
        assert_eq!(
            lane.trace().recent().len(),
            retained,
            "the owner keeps its ring"
        );
    }

    #[test]
    fn mutate_append_and_compact_keep_lanes_tombstones_and_totals_in_step() {
        let mut owner = Owner::new((0..ROWS).collect(), 4, AdaptiveConfig::default());
        let count = |owner: &mut Owner<i64>| {
            owner
                .execute(RangePredicate::between(0, 2 * ROWS), AggKind::Count)
                .0
                .count
        };
        assert_eq!(count(&mut owner), ROWS as u64);

        // Row 5 dies once; the update's new value lands in the tail shard.
        let batch = [
            Mutation::Delete(5),
            Mutation::Delete(5),
            Mutation::Update(6_000, ROWS + 7),
        ];
        assert_eq!(owner.mutate(&batch), 2);
        assert_eq!(count(&mut owner), ROWS as u64 - 1);
        let dirty: Vec<bool> = (0..4).map(|s| owner.take_dirty(s)).collect();
        assert_eq!(dirty, [true, true, false, true]);

        let version = owner.data_version();
        owner.append(&[ROWS + 8]);
        assert_eq!(owner.data_version(), version + 1);
        assert_eq!(count(&mut owner), ROWS as u64);

        // Only shard 0 is past a 1-in-5000 ratio... neither is: nothing moves.
        assert_eq!(owner.compact(Some(0.5)), 0);
        assert_eq!(owner.compact(None), 2);
        let dirty: Vec<bool> = (0..4).map(|s| owner.take_dirty(s)).collect();
        assert_eq!(dirty, [true; 4], "downstream starts shifted");
        assert_eq!(count(&mut owner), ROWS as u64);

        let totals = owner.totals();
        assert_eq!(
            (
                totals.appends,
                totals.mutation_batches,
                totals.mutations_applied
            ),
            (1, 1, 2)
        );
        assert_eq!((totals.compactions_run, totals.rows_reclaimed), (2, 2));
        assert_eq!(totals.tombstone_ppm, 0);
    }
}
