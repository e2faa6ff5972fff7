//! Static zonemaps: fixed-width `(min, max)` metadata built eagerly.
//!
//! This is the classic structure (Moerkotte's small materialized aggregates;
//! the zone maps of Netezza / ORC / Parquet): one metadata entry per
//! `zone_rows` consecutive rows, built up front, never reorganised. It is
//! the paper's primary comparison point — excellent on sorted or clustered
//! data, and a net loss on random data because every query pays the probe
//! cost with no skips to show for it.

use crate::index::SkippingIndex;
use crate::outcome::PruneOutcome;
use crate::predicate::RangePredicate;
use crate::stats::PruneStats;
use ads_storage::{scan, DataValue, RangeSet, RowRange};

/// A fixed-granularity, eagerly-built zonemap.
///
/// ```
/// use ads_core::{StaticZonemap, SkippingIndex, RangePredicate};
/// let data: Vec<i64> = (0..10_000).collect();
/// let mut zm = StaticZonemap::build(&data, 1000);
/// let out = zm.prune(&RangePredicate::between(2500, 2600));
/// assert_eq!(out.zones_skipped, 9); // sorted data: one candidate zone
/// assert_eq!(out.unit_set().covered_rows(), 1000);
/// ```
#[derive(Debug, Clone)]
pub struct StaticZonemap<T: DataValue> {
    zone_rows: usize,
    /// Zone minima, structure-of-arrays: zone `z` covers rows
    /// `[z * zone_rows, min((z+1) * zone_rows, len))`. Keeping the bounds
    /// in two dense arrays (rather than `Vec<(T, T)>`) streams the probe
    /// loop over exactly the bytes it compares.
    mins: Vec<T>,
    /// Zone maxima, parallel to `mins`.
    maxs: Vec<T>,
    len: usize,
    /// Lifetime zone probes, for planner skip-rate estimates. The static
    /// structure never adapts on these; they only summarise history.
    total_probes: u64,
    /// Lifetime zones skipped.
    total_skips: u64,
    /// Queries served.
    queries: u64,
}

impl<T: DataValue> StaticZonemap<T> {
    /// Builds the full zonemap over `data` with `zone_rows`-row zones.
    ///
    /// # Panics
    /// Panics if `zone_rows == 0`.
    pub fn build(data: &[T], zone_rows: usize) -> Self {
        assert!(zone_rows > 0, "zone_rows must be positive");
        let mut zm = StaticZonemap {
            zone_rows,
            mins: Vec::with_capacity(data.len().div_ceil(zone_rows)),
            maxs: Vec::with_capacity(data.len().div_ceil(zone_rows)),
            len: data.len(),
            total_probes: 0,
            total_skips: 0,
            queries: 0,
        };
        for c in data.chunks(zone_rows) {
            // invariant: chunks() never yields an empty slice.
            // live: zone bounds built over all rows (tombstones
            // included) are conservatively wide — sound for skipping.
            let (min, max) = scan::min_max(c).expect("chunks are non-empty");
            zm.mins.push(min);
            zm.maxs.push(max);
        }
        zm
    }

    /// Rows per zone.
    pub fn zone_rows(&self) -> usize {
        self.zone_rows
    }

    /// Number of zones.
    pub fn num_zones(&self) -> usize {
        self.mins.len()
    }

    /// Row range of zone `z`.
    fn zone_span(&self, z: usize) -> (usize, usize) {
        let start = z * self.zone_rows;
        (start, (start + self.zone_rows).min(self.len))
    }
}

impl<T: DataValue> SkippingIndex<T> for StaticZonemap<T> {
    fn name(&self) -> String {
        format!("static-zonemap({})", self.zone_rows)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn prune(&mut self, pred: &RangePredicate<T>) -> PruneOutcome {
        self.prune_within(pred, &RangeSet::full(self.len))
    }

    fn prune_stats(&self) -> Option<PruneStats> {
        // Optimistic before any history: a never-probed map estimates 1.0
        // so planners will try it at least once.
        let est = if self.total_probes == 0 {
            1.0
        } else {
            self.total_skips as f64 / self.total_probes as f64
        };
        Some(PruneStats {
            probe_entries: self.mins.len(),
            est_skip_fraction: est,
            queries_observed: self.queries,
        })
    }

    fn prune_within(&mut self, pred: &RangePredicate<T>, alive: &RangeSet) -> PruneOutcome {
        let mut out = PruneOutcome::for_prune();
        if self.mins.is_empty() {
            self.queries += 1;
            return out;
        }
        let mut prev_zone = usize::MAX;
        for ar in alive.ranges() {
            let first = ar.start / self.zone_rows;
            let last = (ar.end - 1) / self.zone_rows;
            for z in first..=last.min(self.mins.len().saturating_sub(1)) {
                let (zs, ze) = self.zone_span(z);
                let frag_start = zs.max(ar.start);
                let frag_end = ze.min(ar.end);
                let fresh = z != prev_zone;
                prev_zone = z;
                if fresh {
                    out.zones_probed += 1;
                }
                let (min, max) = (self.mins[z], self.maxs[z]);
                if !pred.overlaps(min, max) {
                    if fresh {
                        out.zones_skipped += 1;
                    }
                    out.record_decision(RowRange::new(frag_start, frag_end), "skip:bounds");
                } else if pred.contains_zone(min, max) {
                    out.full_match.push_span(frag_start, frag_end);
                    out.record_decision(RowRange::new(frag_start, frag_end), "full:bounds");
                } else {
                    out.push_scan(frag_start, frag_end);
                    out.record_decision(RowRange::new(frag_start, frag_end), "scan");
                }
            }
        }
        self.queries += 1;
        self.total_probes += out.zones_probed as u64;
        self.total_skips += out.zones_skipped as u64;
        out
    }

    fn on_append(&mut self, _appended: &[T], base: &[T]) {
        // The last zone may have been partial; rebuild it from the base
        // column, then extend with zones over the genuinely new rows.
        if !self.len.is_multiple_of(self.zone_rows) {
            let last = self.mins.len() - 1;
            let start = last * self.zone_rows;
            let end = (start + self.zone_rows).min(base.len());
            // invariant: start < base.len() here, so the partial zone
            // slice is non-empty.
            // live: bounds over all rows (tombstones included) are
            // conservatively wide — sound for skipping.
            let (min, max) = scan::min_max(&base[start..end]).expect("partial zone is non-empty");
            self.mins[last] = min;
            self.maxs[last] = max;
        }
        let covered = self.mins.len() * self.zone_rows;
        if base.len() > covered {
            for c in base[covered..].chunks(self.zone_rows) {
                // invariant: chunks() never yields an empty slice.
                // live: same conservative tombstone-inclusive bounds.
                let (min, max) = scan::min_max(c).expect("chunks are non-empty");
                self.mins.push(min);
                self.maxs.push(max);
            }
        }
        self.len = base.len();
    }

    fn metadata_bytes(&self) -> usize {
        (self.mins.capacity() + self.maxs.capacity()) * std::mem::size_of::<T>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_data(n: usize) -> Vec<i64> {
        (0..n as i64).collect()
    }

    #[test]
    fn build_zone_metadata_is_exact() {
        let data = sorted_data(100);
        let zm = StaticZonemap::build(&data, 32);
        assert_eq!(zm.num_zones(), 4);
        assert_eq!((zm.mins[0], zm.maxs[0]), (0, 31));
        assert_eq!((zm.mins[3], zm.maxs[3]), (96, 99)); // partial last zone
    }

    #[test]
    #[should_panic(expected = "zone_rows must be positive")]
    fn zero_zone_rows_rejected() {
        StaticZonemap::build(&[1i64], 0);
    }

    #[test]
    fn prune_sorted_skips_nonoverlapping() {
        let data = sorted_data(1000);
        let mut zm = StaticZonemap::build(&data, 100);
        let out = zm.prune(&RangePredicate::between(250, 260));
        assert_eq!(out.zones_probed, 10);
        assert_eq!(out.zones_skipped, 9);
        assert_eq!(out.unit_set().covered_rows(), 100);
        assert!(out.unit_set().contains(255));
    }

    #[test]
    fn prune_detects_full_match_zones() {
        let data = sorted_data(1000);
        let mut zm = StaticZonemap::build(&data, 100);
        // Predicate fully contains zones [200,300) and [300,400), and
        // partially overlaps zones [100,200) and [400,500).
        let out = zm.prune(&RangePredicate::between(150, 450));
        assert_eq!(out.rows_full_match(), 200);
        assert_eq!(out.unit_set().covered_rows(), 200);
        assert_eq!(out.zones_skipped, 6);
    }

    #[test]
    fn prune_random_data_skips_nothing() {
        // Values alternate across the whole domain: every zone spans it.
        let data: Vec<i64> = (0..1000)
            .map(|i| if i % 2 == 0 { 0 } else { 999 })
            .collect();
        let mut zm = StaticZonemap::build(&data, 100);
        let out = zm.prune(&RangePredicate::between(400, 500));
        assert_eq!(out.zones_skipped, 0);
        assert_eq!(out.unit_set().covered_rows(), 1000);
        assert_eq!(out.zones_probed, 10);
    }

    #[test]
    fn prune_soundness_on_clustered_data() {
        let mut data = vec![5i64; 300];
        data.extend(vec![50i64; 300]);
        data.extend(vec![500i64; 400]);
        let mut zm = StaticZonemap::build(&data, 128);
        let pred = RangePredicate::between(40, 60);
        let out = zm.prune(&pred);
        let scanned = out.unit_set();
        for (i, &v) in data.iter().enumerate() {
            if pred.matches(v) {
                assert!(
                    scanned.contains(i) || out.full_match.contains(i),
                    "row {i} lost"
                );
            }
        }
    }

    #[test]
    fn append_extends_and_fixes_partial_zone() {
        let mut data = sorted_data(150);
        let mut zm = StaticZonemap::build(&data, 100);
        assert_eq!(zm.num_zones(), 2);
        let appended: Vec<i64> = (150..320).collect();
        data.extend_from_slice(&appended);
        zm.on_append(&appended, &data);
        assert_eq!(zm.num_zones(), 4);
        assert_eq!((zm.mins[1], zm.maxs[1]), (100, 199)); // partial zone repaired
        assert_eq!((zm.mins[3], zm.maxs[3]), (300, 319));
        // Soundness after append.
        let pred = RangePredicate::between(190, 210);
        let out = zm.prune(&pred);
        let scanned = out.unit_set();
        for (i, &v) in data.iter().enumerate() {
            if pred.matches(v) {
                assert!(scanned.contains(i) || out.full_match.contains(i));
            }
        }
    }

    #[test]
    fn append_aligned_boundary() {
        let mut data = sorted_data(200);
        let mut zm = StaticZonemap::build(&data, 100);
        let appended: Vec<i64> = (200..250).collect();
        data.extend_from_slice(&appended);
        zm.on_append(&appended, &data);
        assert_eq!(zm.num_zones(), 3);
        assert_eq!((zm.mins[2], zm.maxs[2]), (200, 249));
    }

    #[test]
    fn metadata_bytes_scales_with_zone_count() {
        let data = sorted_data(10_000);
        let coarse = StaticZonemap::build(&data, 1000);
        let fine = StaticZonemap::build(&data, 10);
        assert!(fine.metadata_bytes() > coarse.metadata_bytes());
    }

    #[test]
    fn name_includes_granularity() {
        let zm = StaticZonemap::build(&sorted_data(10), 4);
        assert_eq!(SkippingIndex::name(&zm), "static-zonemap(4)");
    }

    #[test]
    fn prune_stats_track_history() {
        let data = sorted_data(1000);
        let mut zm = StaticZonemap::build(&data, 100);
        let s = zm.prune_stats().expect("static maps report stats");
        assert_eq!(s.probe_entries, 10);
        assert_eq!(s.queries_observed, 0);
        assert_eq!(s.est_skip_fraction, 1.0); // optimistic prior
        zm.prune(&RangePredicate::between(250, 260)); // 9 of 10 skip
        let s = zm.prune_stats().expect("static maps report stats");
        assert_eq!(s.queries_observed, 1);
        assert!((s.est_skip_fraction - 0.9).abs() < 1e-12);
    }

    #[test]
    fn prune_within_matches_restricted_full_prune() {
        let data = sorted_data(1000);
        let mut zm = StaticZonemap::build(&data, 100);
        let pred = RangePredicate::between(150, 750);
        let mut alive = RangeSet::new();
        alive.push_span(50, 320);
        alive.push_span(610, 900);
        let restricted = zm.prune_within(&pred, &alive);
        let full = zm.prune(&pred).restrict_to(&alive);
        assert_eq!(restricted.units, full.units);
        assert_eq!(restricted.full_match, full.full_match);
        // Only zones overlapping `alive` were examined.
        assert_eq!(restricted.zones_probed, 7);
        assert!(restricted.zones_probed < full.zones_probed);
    }

    #[test]
    fn prune_within_probes_spanning_zone_once() {
        let data = sorted_data(1000);
        let mut zm = StaticZonemap::build(&data, 500);
        let mut alive = RangeSet::new();
        alive.push_span(0, 100);
        alive.push_span(200, 300); // same zone as the first range
        let out = zm.prune_within(&RangePredicate::all(), &alive);
        assert_eq!(out.zones_probed, 1);
        assert_eq!(out.rows_full_match(), 200);
    }

    #[test]
    fn empty_column() {
        let mut zm = StaticZonemap::build(&[] as &[i64], 64);
        assert_eq!(zm.num_zones(), 0);
        let out = zm.prune(&RangePredicate::all());
        assert!(out.units.is_empty());
    }

    #[test]
    fn static_zones_coalesce_where_adaptive_zones_keep_one_unit_each() {
        // Four 100-row zones: 0, 1 and 3 span the predicate without
        // falling inside it, zone 2 lies above it.
        let data: Vec<i64> = (0..400)
            .map(|i| {
                if (200..300).contains(&i) {
                    5_000 + i
                } else {
                    (i * 37) % 1000
                }
            })
            .collect();
        let pred = RangePredicate::between(500, 510);
        let ranges = |out: &PruneOutcome| out.units.iter().map(|u| u.range).collect::<Vec<_>>();

        // Adjacent scanned zones leave the static map as one unit: a SUM
        // folds one running f64 per unit, so this is part of its answer.
        let out = StaticZonemap::build(&data, 100).prune(&pred);
        assert_eq!(
            ranges(&out),
            [RowRange::new(0, 200), RowRange::new(300, 400)]
        );

        // The adaptive map with the same zones, built by one scan, keeps
        // one unit per zone: each zone learns from its own observation.
        let config = crate::adaptive::AdaptiveConfig {
            target_zone_rows: 100,
            min_zone_rows: 100,
            max_zone_rows: 100,
            ..crate::adaptive::AdaptiveConfig::lazy_only()
        };
        let mut zm = crate::adaptive::AdaptiveZonemap::new(data.len(), config);
        let all = RangePredicate::all();
        let ranges_built = zm
            .prune(&all)
            .units
            .iter()
            .map(|u| {
                let zone = &data[u.range.start..u.range.end];
                let (min, max) = scan::min_max(zone).expect("zones are non-empty");
                crate::RangeObservation::new(u.range, zone.len(), min, max)
            })
            .collect();
        zm.observe(&crate::ScanObservation {
            predicate: all,
            ranges: ranges_built,
            walk: crate::PruneOutcome::default(),
        });
        let out = zm.prune(&pred);
        assert_eq!(
            ranges(&out),
            [
                RowRange::new(0, 100),
                RowRange::new(100, 200),
                RowRange::new(300, 400)
            ]
        );
    }
}
