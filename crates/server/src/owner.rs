//! The authoritative state of the service and its transitions.
//!
//! An [`Owner`] holds what exactly one thread at a time may change: the
//! sharded column, one zonemap lane and one delete vector per shard, and
//! the bookkeeping that ties them together. Every way that state moves is
//! a method here, written once — [`Owner::execute`] (the inline query),
//! [`Owner::append`], [`Owner::mutate`], [`Owner::compact`],
//! [`Owner::feedback`], [`Owner::maintain`] — and [`Owner::snapshot`]
//! freezes lane `s` for publication. In the service one thread holds the
//! owner, by value: the maintenance thread. No thread, channel or cell is
//! involved here, so each transition can be tested on its own — and a
//! test or experiment that drives an owner on its own thread, one
//! [`Owner::execute`] per query, is the reference the service is compared
//! against.
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
//! observation *does* align — and would stamp the old rows' `(min, max)`
//! or mask bits onto zones that now hold other rows.
//!
//! ## Which tail versions are alive
//!
//! An append builds the tail shard's next version; the version it
//! replaces stays alive for as long as a published snapshot, a reader
//! mid-query (a busy worker's cache, a scan helper) holds it — a worker
//! with no job queued lets go of its lanes. The owner keeps the replaced
//! version as its *spare*, and the next append reclaims it if by then
//! nobody else does ([`SharedColumn::into_buffer`]): the spare is a
//! prefix of the current tail, so catching it up costs only the rows
//! appended since, not a copy of the shard. A spare still held elsewhere
//! is let go and the append copies. At most one spare is alive per owner
//! — the tail shard's rows plus the 1/64 of slack an append reserves.
//! A compaction that repacks the tail consumes it: the live rows are
//! built in its allocation when nobody else holds it, and in a fresh one
//! otherwise — either way the spare is gone, because the repacked rows no
//! longer extend it. So a compaction needs room only for the non-tail
//! shards it repacks, whose old versions the published lanes hold until
//! the round publishes.

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

impl<T: DataValue> Mutation<T> {
    /// The global rowid the mutation addresses.
    fn row(&self) -> usize {
        match *self {
            Mutation::Delete(row) | Mutation::Update(row, _) => row,
        }
    }
}

/// Why a mutation batch or compaction request could not be confirmed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationError {
    /// The batch addresses `row`, but the column holds only `rows` rows.
    /// Nothing in the batch was applied.
    OutOfRange {
        /// The first rowid of the batch at or past the column's length.
        row: usize,
        /// The column's length when the batch arrived.
        rows: usize,
    },
    /// The maintenance thread is gone — the service is tearing down or
    /// the thread died — so no acknowledgement will arrive. The caller
    /// must treat the batch as lost; it is reported, never silently
    /// dropped.
    Lost,
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
    /// The tail version the last append replaced, which the next append
    /// (or a compaction of the tail) builds in when no reader holds it
    /// any more; see the module docs.
    spare: Option<SharedColumn<T>>,
    /// The totals as far as they are counted here: events as they happen,
    /// and the tier counters of the lanes compaction has
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
            spare: None,
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
    // api: the inline-protocol reference. The service never calls it; the
    // server tests' `common::Reference` (convergence, fanout), the churn
    // test of `tests/metadata_tiers.rs` and E16's `owner@1` row drive an
    // owner with it on the caller's thread and compare the service against
    // what it answers and learns.
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

    /// Grows the tail shard by `rows`, in the spare's allocation when no
    /// reader holds it any more; returns the tail shard's index.
    fn extend_tail(&mut self, rows: &[T]) -> usize {
        let tail = self.num_shards() - 1;
        let buffer = self.spare.take().and_then(SharedColumn::into_buffer);
        let replaced = self.column.shard(tail).clone();
        self.column = self.column.append(rows, buffer.unwrap_or_default());
        self.spare = Some(replaced);
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
    /// # Errors
    /// [`MutationError::OutOfRange`] when any rowid is at or past the
    /// column's length; the batch is then refused whole, before any of it
    /// is applied.
    pub fn mutate(&mut self, mutations: &[Mutation<T>]) -> Result<usize, MutationError> {
        let rows = self.column.len();
        if let Some(row) = mutations.iter().map(Mutation::row).find(|&row| row >= rows) {
            return Err(MutationError::OutOfRange { row, rows });
        }
        self.epoch += 1;
        let mut applied = 0usize;
        let mut tail_appends: Vec<T> = Vec::new();
        for m in mutations {
            let (row, update) = match *m {
                Mutation::Delete(row) => (row, None),
                Mutation::Update(row, value) => (row, Some(value)),
            };
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
        Ok(applied)
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
    /// rewritten in order via [`SharedColumn::replace`] — the tail's in
    /// the spare's allocation when no reader holds it — the shard's
    /// delete vector resets to all-live, and its zonemap lane is replaced
    /// by one rebuilt over the new rows — a new lane identity, recorded
    /// so [`Owner::feedback`] can refuse what readers of the old one still
    /// send. The retired lane's tier counters fold into the totals.
    /// Returns the total rows reclaimed.
    pub fn compact(&mut self, min_ratio: Option<f64>) -> usize {
        let mut reclaimed_total = 0usize;
        for s in 0..self.num_shards() {
            let dv = &self.deletes[s];
            if !dv.has_deletes() || min_ratio.is_some_and(|r| dv.tombstone_ratio() < r) {
                continue;
            }
            // The tail repacks into the spare when no reader holds it; the
            // spare goes either way, as the repacked rows do not extend it.
            let spare = if s + 1 == self.num_shards() {
                self.spare.take().and_then(SharedColumn::into_buffer)
            } else {
                None
            };
            let shard = self.column.shard(s);
            let live_rows = dv.live_rows(shard.as_slice(), spare.unwrap_or_default());
            let reclaimed = shard.len() - live_rows.len();
            let mut shards = self.column.shards().to_vec();
            shards[s] = shards[s].replace(live_rows);
            self.column = ShardedColumn::from_shards(shards);
            let repacked = self.column.shard(s);
            self.deletes[s] = DeleteVector::new(repacked.len(), self.epoch);
            self.rebuilt_at[s] = repacked.version();
            let retired = self.zonemap.lane(s);
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
    /// last rebuild is dropped whole — no bookkeeping, no `observe` — and
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

    /// One maintenance round over every lane: each lane's own
    /// [`SkippingIndex::maintain`] — the tier pass the inline protocol
    /// runs, on its clock: once per
    /// `maintenance_every` queries the lane has learned, however many
    /// this round applied — then the revival check the next query's prune
    /// would run, so a snapshot taken now is the state an inline executor
    /// would start the next query from. Every change bumps the lane's
    /// mutation epoch.
    pub fn maintain(&mut self) {
        for s in 0..self.num_shards() {
            SkippingIndex::maintain(self.zonemap.lane_mut(s), self.column.shard(s).as_slice());
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
    /// live lanes' tier counters and the tombstone gauge.
    pub fn totals(&self) -> OwnerTotals {
        let mut totals = self.counted;
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
        .units
        .iter()
        .map(|unit| {
            let r = unit.range;
            // live: freshly compacted shard — every tombstone dropped.
            let (q, mn, mx) =
                ads_storage::scan::count_in_range_with_minmax(&data[r.start..r.end], lo, hi);
            RangeObservation::new(r, q, mn, mx)
        })
        .collect();
    lane.observe(&ScanObservation {
        predicate,
        ranges,
        walk: outcome,
    });
    lane
}

#[cfg(test)]
mod tests {
    use super::*;
    use ads_engine::{scan_sharded, ShardScanInput};

    const ROWS: i64 = 20_000;

    /// Sum of the shards' data versions: monotone, moved by every append,
    /// update and compaction.
    fn data_version(owner: &Owner<i64>) -> u64 {
        owner
            .column
            .shards()
            .iter()
            .map(SharedColumn::version)
            .sum()
    }

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
                out.unit_set().contains(row) || out.full_match.contains(row),
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

        assert_eq!(owner.mutate(&[Mutation::Delete(0)]), Ok(1));
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

    /// Where the tail shard's current version lives. The snapshot taken to
    /// look is dropped before this returns, so it holds nothing.
    fn tail_at(owner: &Owner<i64>) -> *const i64 {
        let tail = owner.num_shards() - 1;
        let snap = owner.snapshot(tail, Arc::new(owner.deletes(tail).clone()), 0);
        snap.data.as_slice().as_ptr()
    }

    #[test]
    fn with_no_reader_each_batch_builds_in_the_version_before_last() {
        // Queries between the batches, run on the owner itself: nothing
        // but the owner ever holds a tail version.
        let mut owner = Owner::new((0..ROWS).collect(), 2, AdaptiveConfig::default());
        let mut at = vec![tail_at(&owner)];
        // A tail-sized allocation after every batch takes any tail version
        // a batch freed, so a copy cannot come back at a recycled address.
        let mut pins: Vec<Vec<i64>> = Vec::new();
        for k in 0..40 {
            let batch = [Mutation::Update(k * 7, ROWS + k as i64)];
            assert_eq!(owner.mutate(&batch), Ok(1));
            owner.execute(RangePredicate::between(0, ROWS / 4), AggKind::Count);
            at.push(tail_at(&owner));
            pins.push(Vec::with_capacity(owner.deletes(1).len()));
        }
        // Version 0 was loaded without slack, so version 2 reallocated
        // it; from version 1 on every version was built with room to spare.
        for n in 1..at.len() - 2 {
            assert_eq!(at[n + 2], at[n], "version {} copied", n + 2);
        }
        let want: Vec<i64> = (ROWS / 2..ROWS).chain(ROWS..ROWS + 40).collect();
        let tail = owner.snapshot(1, Arc::new(owner.deletes(1).clone()), 0);
        assert_eq!(tail.data.as_slice(), want.as_slice());
    }

    /// Where the owner's spare lives, if it has one.
    fn spare_at(owner: &Owner<i64>) -> Option<*const i64> {
        owner.spare.as_ref().map(|spare| spare.as_slice().as_ptr())
    }

    /// The tail shard's rows.
    fn tail_rows(owner: &Owner<i64>) -> Vec<i64> {
        owner
            .column
            .shard(owner.num_shards() - 1)
            .as_slice()
            .to_vec()
    }

    /// Appends three rows to a freshly repacked tail whose rows should
    /// read `want`, checking the tail and a count over the column after
    /// each.
    fn append_after_repack(owner: &mut Owner<i64>, mut want: Vec<i64>) {
        for k in 0..3 {
            assert_eq!(tail_rows(owner), want);
            let live = owner.column.len() as u64;
            owner.append(&[-10 - k]);
            want.push(-10 - k);
            let all = RangePredicate::between(i64::MIN, i64::MAX);
            assert_eq!(owner.execute(all, AggKind::Count).0.count, live + 1);
        }
        assert_eq!(tail_rows(owner), want);
    }

    #[test]
    fn with_no_reader_a_tail_compaction_builds_in_the_spare() {
        let mut owner = Owner::new((0..ROWS).collect(), 2, AdaptiveConfig::default());
        let half = ROWS as usize / 2;
        let mut want: Vec<i64> = (ROWS / 2..ROWS).collect();
        // Four batches, each updating a tail row; the first also deletes
        // a row of shard 0, which repacks into a fresh allocation.
        assert_eq!(owner.mutate(&[Mutation::Delete(5)]), Ok(1));
        for k in 0..4 {
            let batch = [Mutation::Update(half + 3 * k, -1 - k as i64)];
            assert_eq!(owner.mutate(&batch), Ok(1));
            want.push(-1 - k as i64);
        }
        for k in (0..4).rev() {
            want.remove(3 * k);
        }
        let spare = spare_at(&owner).expect("a batch leaves a spare");
        assert_eq!(owner.compact(None), 5);
        assert_eq!(
            tail_at(&owner),
            spare,
            "the repacked tail was allocated afresh"
        );
        assert!(owner.spare.is_none(), "a repack leaves no spare");
        append_after_repack(&mut owner, want);
    }

    #[test]
    fn a_held_spare_makes_the_tail_repack_allocate_and_keeps_its_rows() {
        let mut owner = Owner::new((0..ROWS).collect(), 2, AdaptiveConfig::default());
        owner.append(&[ROWS]);
        let held = owner.snapshot(1, Arc::new(owner.deletes(1).clone()), 0);
        let rows = held.data.as_slice().to_vec();
        let half = ROWS as usize / 2;
        assert_eq!(owner.mutate(&[Mutation::Update(half, -1)]), Ok(1));
        let spare = spare_at(&owner).expect("a batch leaves a spare");
        assert_eq!(
            spare,
            held.data.as_slice().as_ptr(),
            "the reader holds the spare"
        );
        assert_eq!(owner.compact(None), 1);
        assert_ne!(tail_at(&owner), spare, "a held version was built in");
        assert!(owner.spare.is_none(), "a repack leaves no spare");
        assert_eq!(
            held.data.as_slice(),
            rows.as_slice(),
            "a reader's rows moved"
        );
        let want = (ROWS / 2 + 1..=ROWS).chain([-1]).collect();
        append_after_repack(&mut owner, want);
    }

    #[test]
    fn a_held_snapshot_keeps_its_rows_and_forces_a_copy() {
        let mut owner = Owner::new((0..ROWS).collect(), 1, AdaptiveConfig::default());
        owner.append(&[ROWS]);
        let held = frozen(&owner, 1);
        let rows = held.data.as_slice().to_vec();
        let mut at = vec![tail_at(&owner)];
        for k in 0..3 {
            assert_eq!(owner.mutate(&[Mutation::Update(k, -1 - k as i64)]), Ok(1));
            at.push(tail_at(&owner));
        }
        assert_eq!(
            held.data.as_slice(),
            rows.as_slice(),
            "a reader's rows moved"
        );
        assert_ne!(at[2], at[0], "a held version was built in");
        assert_eq!(at[3], at[1], "the unheld one is reused");
        drop(held);
        owner.append(&[ROWS + 1]);
        assert_eq!(
            tail_at(&owner),
            at[2],
            "reuse resumes once the reader lets go"
        );
    }

    #[test]
    fn a_tail_compaction_drops_the_spare() {
        let mut owner = Owner::new((0..ROWS).collect(), 1, AdaptiveConfig::default());
        let mut want: Vec<i64> = (0..ROWS).collect();
        for k in 0..4usize {
            assert_eq!(owner.mutate(&[Mutation::Update(k, 7 * k as i64)]), Ok(1));
            want.push(7 * k as i64);
        }
        assert_eq!(owner.compact(None), 4);
        want.drain(..4);
        for k in 0..3 {
            owner.append(&[-k]);
            want.push(-k);
            assert_eq!(frozen(&owner, 0).data.as_slice(), want.as_slice());
        }
    }

    #[test]
    fn an_out_of_range_batch_is_refused_whole() {
        let mut owner = Owner::new((0..ROWS).collect(), 4, AdaptiveConfig::default());
        let rows = ROWS as usize;
        let version = data_version(&owner);
        let batch = [Mutation::Delete(5), Mutation::Update(rows, 1)];
        assert_eq!(
            owner.mutate(&batch),
            Err(MutationError::OutOfRange { row: rows, rows })
        );
        assert_eq!(data_version(&owner), version);
        assert!(
            !owner.deletes(0).is_deleted(5),
            "half a refused batch landed"
        );
        assert_eq!(owner.totals().mutation_batches, 0);
        assert_eq!(owner.mutate(&[Mutation::Delete(5)]), Ok(1));
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
        assert_eq!(owner.mutate(&batch), Ok(2));
        assert_eq!(count(&mut owner), ROWS as u64 - 1);
        let dirty: Vec<bool> = (0..4).map(|s| owner.take_dirty(s)).collect();
        assert_eq!(dirty, [true, true, false, true]);

        let version = data_version(&owner);
        owner.append(&[ROWS + 8]);
        assert_eq!(data_version(&owner), version + 1);
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
