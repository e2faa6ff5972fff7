//! Per-zone and whole-index statistics driving adaptation decisions.

/// Counters for one zone of an adaptive zonemap.
///
/// Probes and skips are derived, not tallied: every unrestricted walk of
/// the map probes every built zone, so a zone's probes are the map's probe
/// clock since `since` plus its restricted `visits`, and its skips are
/// those probes minus its `overlaps`. A probe the bounds exclude writes
/// nothing.
///
/// The counts saturate: a hot zone is probed ~100 k times a second, so a
/// `u32` fills in hours, and the rates adaptation divides by must degrade
/// to "stuck at the ceiling", never wrap to garbage (or panic in debug).
#[derive(Debug, Clone, Copy)]
pub struct ZoneStats {
    /// Probe-clock reading when the zone's probe history started: when
    /// it was built, split off or merged. `u64::MAX` while the zone is
    /// unbuilt or dead, which no walk probes.
    pub since: u64,
    /// Probes by restricted walks.
    pub visits: u32,
    /// Probes that could not skip the zone: its bounds overlapped the
    /// predicate and neither its mask nor its tier excluded it.
    pub overlaps: u32,
    /// Scans through the zone (probe overlapped, zone was read).
    pub scans: u32,
    /// Scans that yielded a low qualifying fraction — evidence the zone's
    /// metadata is too coarse ("false-positive" scans that a finer zone
    /// might have skipped).
    pub wasted_scans: u32,
}

impl Default for ZoneStats {
    /// A zone no walk probes yet.
    fn default() -> Self {
        ZoneStats::starting_at(u64::MAX)
    }
}

impl ZoneStats {
    /// Fresh counters for a built zone whose probe history starts at
    /// probe clock `clock`.
    pub(crate) fn starting_at(clock: u64) -> Self {
        ZoneStats {
            since: clock,
            visits: 0,
            overlaps: 0,
            scans: 0,
            wasted_scans: 0,
        }
    }

    /// Metadata examinations at probe clock `clock`: every prune that
    /// considered this zone.
    pub(crate) fn probes(&self, clock: u64) -> u32 {
        let probes = clock
            .saturating_sub(self.since)
            .saturating_add(u64::from(self.visits));
        u32::try_from(probes).unwrap_or(u32::MAX)
    }

    /// Fraction of probes at probe clock `clock` that excluded the zone —
    /// by its bounds, its mask or its tier; 0.0 before any probe.
    pub(crate) fn skip_rate(&self, clock: u64) -> f64 {
        match self.probes(clock) {
            0 => 0.0,
            probes => f64::from(probes.saturating_sub(self.overlaps)) / f64::from(probes),
        }
    }

    /// Share of this zone's probes that ended in a low-yield scan: how
    /// often a query pays to read the zone for nothing, which is what a
    /// finer child could save. 0.0 before any scan. A scan implies a
    /// probe even where the probe went uncounted (an observation fed
    /// without its prune), so the rate never exceeds 1.
    pub(crate) fn waste_rate(&self, clock: u64) -> f64 {
        match self.probes(clock).max(self.wasted_scans) {
            0 => 0.0,
            probes => f64::from(self.wasted_scans) / f64::from(probes),
        }
    }

    /// Records a probe by a restricted walk.
    pub(crate) fn record_visit(&mut self) {
        self.visits = self.visits.saturating_add(1);
    }

    /// Records a probe that could not skip the zone.
    pub(crate) fn record_overlap(&mut self) {
        self.overlaps = self.overlaps.saturating_add(1);
    }

    /// Records a completed scan through the zone with the observed
    /// qualifying fraction; flags it wasted when below `low_yield`.
    pub fn record_scan(&mut self, qualifying_fraction: f64, low_yield: f64) {
        self.scans = self.scans.saturating_add(1);
        if qualifying_fraction < low_yield {
            self.wasted_scans = self.wasted_scans.saturating_add(1);
        } else {
            // A productive scan resets the waste streak: splitting helps
            // only when the zone *keeps* being read for nothing.
            self.wasted_scans = 0;
        }
    }
}

/// Summary an index exposes *before* a probe so a planner can decide
/// whether consulting its metadata is worth the cost.
///
/// `est_skip_fraction` is the index's own estimate of the fraction of rows
/// a typical probe excludes; indexes without history report optimistically
/// (1.0 for zones never probed) so cold structures still get probed and
/// can start learning.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PruneStats {
    /// Metadata entries a full probe examines (zone count).
    pub probe_entries: usize,
    /// Estimated fraction of rows a probe excludes, in `[0, 1]`.
    pub est_skip_fraction: f64,
    /// Queries this index has already served — 0 means the estimate is a
    /// pure prior.
    pub queries_observed: u64,
}

/// Whole-index counters reported by experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexStats {
    /// Total zone-metadata probes across all queries.
    pub total_probes: u64,
    /// Total zones skipped.
    pub total_skips: u64,
    /// Total rows the scans actually touched.
    pub rows_scanned: u64,
    /// Total rows answered from metadata alone (full-match zones).
    pub rows_full_match: u64,
    /// Queries processed.
    pub queries: u64,
}

impl IndexStats {
    /// Overall skip rate across all probes.
    pub fn skip_rate(&self) -> f64 {
        if self.total_probes == 0 {
            0.0
        } else {
            self.total_skips as f64 / self.total_probes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_stats_skip_rate() {
        let mut z = ZoneStats::starting_at(10);
        assert_eq!(z.skip_rate(10), 0.0);
        // Three walks since the zone was built, one of which overlapped.
        z.record_overlap();
        assert_eq!(z.probes(13), 3);
        assert!((z.skip_rate(13) - 2.0 / 3.0).abs() < 1e-12);
        // A restricted walk's visit is a probe too.
        z.record_visit();
        assert!((z.skip_rate(13) - 3.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn counters_saturate_at_the_ceiling_and_rates_stay_rates() {
        let mut z = ZoneStats {
            since: 0,
            visits: u32::MAX - 1,
            overlaps: u32::MAX - 1,
            scans: u32::MAX - 1,
            wasted_scans: u32::MAX - 1,
        };
        for _ in 0..3 {
            z.record_visit();
            z.record_overlap();
            z.record_scan(0.0, 0.05);
        }
        assert_eq!(
            (z.visits, z.overlaps, z.scans, z.wasted_scans),
            (u32::MAX, u32::MAX, u32::MAX, u32::MAX)
        );
        // The clock runs far more than `u32::MAX` past the stamp.
        let clock = 3 * u64::from(u32::MAX);
        assert_eq!((z.probes(clock), z.skip_rate(clock)), (u32::MAX, 0.0));
        for rate in [
            z.skip_rate(clock),
            z.waste_rate(clock),
            z.skip_rate(u64::MAX),
        ] {
            assert!((0.0..=1.0).contains(&rate), "rate {rate}");
        }
        assert_eq!(ZoneStats::starting_at(0).skip_rate(u64::MAX), 1.0);
    }

    #[test]
    fn waste_rate_is_wasted_scans_over_probes_and_guards_zero() {
        let mut z = ZoneStats::starting_at(0);
        assert_eq!(z.waste_rate(0), 0.0);
        // An observation that arrived without its prune: the scan stands
        // in for the probe it implies.
        z.record_scan(0.0, 0.05);
        assert_eq!(z.waste_rate(0), 1.0);
        z.record_scan(0.0, 0.05);
        assert!((z.waste_rate(3) - 2.0 / 3.0).abs() < 1e-12);
        // Skipping probes dilute the rate.
        assert!((z.waste_rate(8) - 2.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn wasted_scan_streak_resets_on_productive_scan() {
        let mut z = ZoneStats::default();
        z.record_scan(0.0, 0.05);
        z.record_scan(0.01, 0.05);
        assert_eq!(z.wasted_scans, 2);
        z.record_scan(0.5, 0.05);
        assert_eq!(z.wasted_scans, 0);
    }

    #[test]
    fn a_default_zone_is_probed_by_no_walk() {
        let mut z = ZoneStats::starting_at(0);
        z.record_visit();
        assert_eq!(z.probes(100), 101);
        z = ZoneStats::default();
        assert_eq!(z.probes(u64::MAX - 1), 0);
    }

    #[test]
    fn index_stats_skip_rate() {
        let s = IndexStats {
            total_probes: 10,
            total_skips: 4,
            ..Default::default()
        };
        assert!((s.skip_rate() - 0.4).abs() < 1e-12);
        assert_eq!(IndexStats::default().skip_rate(), 0.0);
    }
}
