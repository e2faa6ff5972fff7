//! Per-shard adaptive zonemaps: shard-local metadata over a
//! [`ShardedColumn`].
//!
//! A [`ShardedZonemap`] holds one independent [`AdaptiveZonemap`] (each
//! with its own SoA `PrunePlane`) per shard of a [`ShardedColumn`].
//! Every lane runs the full prune → scan →
//! observe protocol **in shard-local row coordinates** with its own query
//! clock, maintenance cadence, and revival backoff, so adaptation in one
//! shard never renumbers zones — or forces republication — in another.
//!
//! The soundness argument is shard-local: lane `s` only ever describes the
//! rows of shard `s`'s column version, and the partition is contiguous and
//! exhaustive, so the union of per-lane prune outcomes is a sound superset
//! of the qualifying rows of the whole column. Global row ids are
//! recovered by offsetting lane-local ranges with the shard's `start`.

use crate::adaptive::config::AdaptiveConfig;
use crate::adaptive::tier::TierStats;
use crate::adaptive::zonemap::AdaptiveZonemap;
use crate::cost::CostModel;
use crate::index::SkippingIndex;
use ads_storage::{DataValue, RowRange, ShardedColumn};

/// One adaptive zonemap lane per shard of a [`ShardedColumn`].
#[derive(Debug, Clone)]
pub struct ShardedZonemap<T: DataValue> {
    lanes: Vec<AdaptiveZonemap<T>>,
    /// Global row id of each lane's first row (mirrors the column layout).
    starts: Vec<usize>,
}

impl<T: DataValue> ShardedZonemap<T> {
    /// One lane per entry of `shard_lens`, each starting unbuilt. All
    /// lanes share one config (and hence one policy); their clocks and
    /// structures evolve independently from there.
    ///
    /// # Panics
    /// Panics when `shard_lens` is empty or `config` is inconsistent.
    pub fn new(shard_lens: &[usize], config: AdaptiveConfig) -> Self {
        Self::with_cost(shard_lens, config, CostModel::default())
    }

    /// As [`ShardedZonemap::new`] with an explicit cost model.
    pub fn with_cost(shard_lens: &[usize], config: AdaptiveConfig, cost: CostModel) -> Self {
        assert!(!shard_lens.is_empty(), "need at least one shard");
        let mut lanes = Vec::with_capacity(shard_lens.len());
        let mut starts = Vec::with_capacity(shard_lens.len());
        let mut at = 0usize;
        for &len in shard_lens {
            starts.push(at);
            lanes.push(AdaptiveZonemap::with_cost(len, config.clone(), cost));
            at += len;
        }
        ShardedZonemap { lanes, starts }
    }

    /// Lanes matching `column`'s shard layout exactly.
    pub fn for_column(column: &ShardedColumn<T>, config: AdaptiveConfig) -> Self {
        Self::new(&column.shard_lens(), config)
    }

    /// Number of lanes (= shards).
    pub fn num_shards(&self) -> usize {
        self.lanes.len()
    }

    /// Total rows covered across all lanes.
    pub fn len(&self) -> usize {
        // invariant: constructors reject empty lane sets (both lines).
        self.starts.last().expect("at least one lane")
            + self.lanes.last().expect("at least one lane").len()
    }

    /// True when covering zero rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lane `s` (shard-local coordinates).
    pub fn lane(&self, s: usize) -> &AdaptiveZonemap<T> {
        &self.lanes[s]
    }

    /// Mutable lane `s` — the shard-local feedback entry point
    /// ([`AdaptiveZonemap::apply_feedback`] etc.).
    pub fn lane_mut(&mut self, s: usize) -> &mut AdaptiveZonemap<T> {
        &mut self.lanes[s]
    }

    /// All lanes, in shard order.
    pub fn lanes(&self) -> &[AdaptiveZonemap<T>] {
        &self.lanes
    }

    /// All lanes mutably, in shard order — one query's inline pass holds
    /// every lane at once.
    pub fn lanes_mut(&mut self) -> &mut [AdaptiveZonemap<T>] {
        &mut self.lanes
    }

    /// Global row id of lane `s`'s first row.
    pub fn start(&self, s: usize) -> usize {
        self.starts[s]
    }

    /// Replaces lane `s` wholesale and re-derives every lane's start from
    /// `shard_lens` — the compaction path: shard `s`'s rows were densely
    /// repacked (so its metadata is rebuilt from scratch against the new
    /// layout) and every downstream shard's first global row shifted by
    /// the rows reclaimed.
    ///
    /// # Panics
    /// Panics when `shard_lens` does not have one entry per lane or
    /// `shard_lens[s]` differs from the replacement lane's length.
    pub fn replace_lane(&mut self, s: usize, lane: AdaptiveZonemap<T>, shard_lens: &[usize]) {
        assert_eq!(
            shard_lens.len(),
            self.lanes.len(),
            "lane count is fixed for the zonemap's lifetime"
        );
        assert_eq!(
            shard_lens[s],
            lane.len(),
            "replacement lane must cover exactly its shard's rows"
        );
        self.lanes[s] = lane;
        let mut at = 0usize;
        for (start, &len) in self.starts.iter_mut().zip(shard_lens) {
            *start = at;
            at += len;
        }
    }

    /// Routes an append to the tail lane, mirroring
    /// [`ShardedColumn::append`]'s tail routing. `tail_base` is the tail
    /// shard's column slice *after* the append.
    pub fn on_append_tail(&mut self, appended: &[T], tail_base: &[T]) {
        self.lanes
            .last_mut()
            // invariant: constructors reject empty lane sets.
            .expect("at least one lane")
            .on_append(appended, tail_base);
    }

    /// Runs the pre-publication revival poll on every lane; returns `true`
    /// when any lane revived zones.
    pub fn poll_revival(&mut self) -> bool {
        let mut any = false;
        for lane in &mut self.lanes {
            any |= lane.poll_revival();
        }
        any
    }

    /// Per-lane mutation epochs, in shard order; see
    /// [`AdaptiveZonemap::mutation_epoch`]. Publication layers diff this
    /// vector against the epochs they last published to find the shards
    /// that actually need a fresh clone.
    pub fn mutation_epochs(&self) -> Vec<u64> {
        self.lanes
            .iter()
            .map(AdaptiveZonemap::mutation_epoch)
            .collect()
    }

    /// Total zone entries across all lanes.
    pub fn num_zones(&self) -> usize {
        self.lanes.iter().map(AdaptiveZonemap::num_zones).sum()
    }

    /// Aggregated lifetime tier counters across all lanes.
    pub fn tier_stats(&self) -> TierStats {
        let mut total = TierStats::default();
        for lane in &self.lanes {
            total.merge(&lane.tier_stats());
        }
        total
    }

    /// Zones currently carrying a metadata tier, across all lanes.
    pub fn zones_tiered(&self) -> usize {
        self.lanes.iter().map(AdaptiveZonemap::zones_tiered).sum()
    }

    /// Metadata bytes across all lanes.
    pub fn metadata_bytes(&self) -> usize {
        self.lanes.iter().map(SkippingIndex::metadata_bytes).sum()
    }

    /// Global structural snapshot: each lane's
    /// [`AdaptiveZonemap::zone_snapshot`] with ranges offset to global row
    /// ids, concatenated in shard order.
    pub fn zone_snapshot(&self) -> Vec<(RowRange, &'static str, f64)> {
        let mut out = Vec::with_capacity(self.num_zones());
        for (lane, &start) in self.lanes.iter().zip(&self.starts) {
            out.extend(lane.zone_snapshot().into_iter().map(|(r, label, rate)| {
                (RowRange::new(r.start + start, r.end + start), label, rate)
            }));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::{RangeObservation, ScanObservation};
    use crate::predicate::RangePredicate;

    fn cfg() -> AdaptiveConfig {
        AdaptiveConfig {
            target_zone_rows: 64,
            min_zone_rows: 8,
            max_zone_rows: 512,
            ..AdaptiveConfig::default()
        }
    }

    /// Inline-protocol one query against one lane: prune, scan `data`
    /// (shard-local), observe.
    fn run_query(lane: &mut AdaptiveZonemap<i64>, data: &[i64], lo: i64, hi: i64) {
        let pred = RangePredicate::between(lo, hi);
        let outcome = SkippingIndex::prune(lane, &pred);
        let mut ranges = Vec::new();
        for unit in &outcome.units {
            let r = unit.range;
            let (q, min, max) =
                ads_storage::scan::count_in_range_with_minmax(&data[r.start..r.end], lo, hi);
            ranges.push(RangeObservation::new(r, q, min, max));
        }
        lane.observe(&ScanObservation {
            predicate: pred,
            ranges,
            walk: outcome,
        });
    }

    #[test]
    fn lanes_are_independent() {
        let data: Vec<i64> = (0..1000).collect();
        let mut zm = ShardedZonemap::new(&[500, 500], cfg());
        let before = zm.mutation_epochs();

        // Query only shard 0's lane; shard 1's lane must not move.
        run_query(zm.lane_mut(0), &data[..500], 10, 50);
        let after = zm.mutation_epochs();
        assert!(after[0] > before[0], "lane 0 built metadata");
        assert_eq!(after[1], before[1], "lane 1 untouched");
        assert_eq!(zm.lane(1).index_stats().queries, 0);
    }

    #[test]
    fn zone_snapshot_offsets_to_global_rows() {
        let zm: ShardedZonemap<i64> = ShardedZonemap::new(&[100, 60, 0], cfg());
        let snap = zm.zone_snapshot();
        // Lane 0: [0,64) [64,100); lane 1: [100,164); lane 2 empty.
        let ranges: Vec<(usize, usize)> = snap.iter().map(|(r, _, _)| (r.start, r.end)).collect();
        assert_eq!(ranges, vec![(0, 64), (64, 100), (100, 160)]);
        assert!(snap.iter().all(|(_, label, _)| *label == "unbuilt"));
        assert_eq!(zm.len(), 160);
        assert_eq!(zm.start(2), 160);
    }

    #[test]
    fn append_routes_to_tail_lane() {
        let mut zm: ShardedZonemap<i64> = ShardedZonemap::new(&[100, 100], cfg());
        let tail_after: Vec<i64> = (0..130).collect();
        zm.on_append_tail(&tail_after[100..], &tail_after);
        assert_eq!(zm.lane(0).len(), 100);
        assert_eq!(zm.lane(1).len(), 130);
        assert_eq!(zm.len(), 230);
    }

    #[test]
    fn replace_lane_swaps_metadata_and_shifts_downstream_starts() {
        let mut zm: ShardedZonemap<i64> = ShardedZonemap::new(&[100, 100, 100], cfg());
        assert_eq!((zm.start(1), zm.start(2)), (100, 200));
        // Compaction shrank shard 1 from 100 to 60 rows.
        zm.replace_lane(1, AdaptiveZonemap::new(60, cfg()), &[100, 60, 100]);
        assert_eq!(zm.lane(1).len(), 60);
        assert_eq!((zm.start(0), zm.start(1), zm.start(2)), (0, 100, 160));
        assert_eq!(zm.len(), 260);
    }

    #[test]
    #[should_panic(expected = "must cover exactly")]
    fn replace_lane_rejects_mismatched_length() {
        let mut zm: ShardedZonemap<i64> = ShardedZonemap::new(&[100, 100], cfg());
        zm.replace_lane(0, AdaptiveZonemap::new(50, cfg()), &[100, 100]);
    }

    #[test]
    fn epoch_ignores_pure_prunes_but_counts_builds() {
        let data: Vec<i64> = (0..256).collect();
        let mut zm = ShardedZonemap::new(&[256], cfg());
        run_query(zm.lane_mut(0), &data, 0, 10);
        let built = zm.mutation_epochs()[0];
        assert!(built > 0, "building zones must bump the epoch");

        // The first query built every zone, so a predicate above the
        // data is excluded by bounds alone: nothing to scan, every probe
        // a skip — and prune-side stat drift must not bump the epoch.
        let pred = RangePredicate::between(300, 400); // matches nothing
        for _ in 0..3 {
            let out = zm.lane_mut(0).prune_shared(&pred);
            assert!(out.units.is_empty());
            assert_eq!(out.zones_skipped, out.zones_probed);
        }
        assert_eq!(
            zm.mutation_epochs()[0],
            built,
            "prune_shared mutated the epoch"
        );
    }
}
