//! Per-zone and whole-index statistics driving adaptation decisions.

/// Exponentially-weighted moving average with fixed smoothing factor.
///
/// Adaptation reacts to the *recent* workload; EWMA forgets old behaviour at
/// a controlled rate so a shifted workload re-trains the structure (E7).
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    value: f64,
    alpha: f64,
    primed: bool,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]`; larger
    /// alpha weights recent samples more.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        Ewma {
            value: 0.0,
            alpha,
            primed: false,
        }
    }

    /// Feeds a sample.
    pub fn update(&mut self, sample: f64) {
        if self.primed {
            self.value += self.alpha * (sample - self.value);
        } else {
            self.value = sample;
            self.primed = true;
        }
    }

    /// Current smoothed value; 0.0 before any sample.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// True once at least one sample has arrived.
    pub fn is_primed(&self) -> bool {
        self.primed
    }
}

/// Counters for one zone of an adaptive zonemap.
///
/// The counts saturate: a hot zone is probed ~100 k times a second, so a
/// `u32` fills in hours, and the rates adaptation divides by must degrade
/// to "stuck at the ceiling", never wrap to garbage (or panic in debug).
#[derive(Debug, Clone, Copy)]
pub struct ZoneStats {
    /// Metadata examinations (every prune that considered this zone).
    pub probes: u32,
    /// Probes that excluded the zone.
    pub skips: u32,
    /// Scans through the zone (probe overlapped, zone was read).
    pub scans: u32,
    /// Scans that yielded a low qualifying fraction — evidence the zone's
    /// metadata is too coarse ("false-positive" scans that a finer zone
    /// might have skipped).
    pub wasted_scans: u32,
    /// Recent qualifying fraction of scans through this zone.
    pub selectivity: Ewma,
}

impl ZoneStats {
    /// Fresh counters. `alpha` is the EWMA smoothing factor.
    pub fn new(alpha: f64) -> Self {
        ZoneStats {
            probes: 0,
            skips: 0,
            scans: 0,
            wasted_scans: 0,
            selectivity: Ewma::new(alpha),
        }
    }

    /// Fraction of probes that resulted in a skip; 0.0 before any probe.
    pub fn skip_rate(&self) -> f64 {
        self.skip_rate_with_pending(0)
    }

    /// Records a probe that skipped the zone.
    pub fn record_skip(&mut self) {
        self.record_skips(1);
    }

    /// Records `n` skipping probes at once — the bulk form used when the
    /// prune plane flushes deferred skip counts.
    pub fn record_skips(&mut self, n: u32) {
        self.probes = self.probes.saturating_add(n);
        self.skips = self.skips.saturating_add(n);
    }

    /// [`ZoneStats::skip_rate`] as if `pending` additional skipping probes
    /// had already been recorded — lets readers see through the prune
    /// plane's deferred skip counter without flushing it.
    pub fn skip_rate_with_pending(&self, pending: u32) -> f64 {
        let probes = self.probes.saturating_add(pending);
        if probes == 0 {
            0.0
        } else {
            self.skips.saturating_add(pending) as f64 / probes as f64
        }
    }

    /// Share of this zone's probes — `pending` deferred skipping probes
    /// included — that ended in a low-yield scan: how often a query pays
    /// to read the zone for nothing, which is what a finer child could
    /// save. 0.0 before any scan. A scan implies a probe even where the
    /// probe went uncounted (an observation fed without its prune), so
    /// the rate never exceeds 1.
    pub(crate) fn waste_rate_with_pending(&self, pending: u32) -> f64 {
        let probes = self.probes.saturating_add(pending).max(self.wasted_scans);
        if probes == 0 {
            0.0
        } else {
            self.wasted_scans as f64 / probes as f64
        }
    }

    /// Records a probe that could not skip the zone.
    pub fn record_no_skip(&mut self) {
        self.probes = self.probes.saturating_add(1);
    }

    /// Records a completed scan through the zone with the observed
    /// qualifying fraction; flags it wasted when below `low_yield`.
    pub fn record_scan(&mut self, qualifying_fraction: f64, low_yield: f64) {
        self.scans = self.scans.saturating_add(1);
        self.selectivity.update(qualifying_fraction);
        if qualifying_fraction < low_yield {
            self.wasted_scans = self.wasted_scans.saturating_add(1);
        } else {
            // A productive scan resets the waste streak: splitting helps
            // only when the zone *keeps* being read for nothing.
            self.wasted_scans = 0;
        }
    }

    /// Resets counters (after a structural change invalidates history).
    pub fn reset(&mut self) {
        let alpha = self.selectivity.alpha;
        *self = ZoneStats::new(alpha);
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
    fn ewma_first_sample_primes() {
        let mut e = Ewma::new(0.3);
        assert!(!e.is_primed());
        e.update(10.0);
        assert_eq!(e.value(), 10.0);
        assert!(e.is_primed());
    }

    #[test]
    fn ewma_converges_toward_samples() {
        let mut e = Ewma::new(0.5);
        e.update(0.0);
        for _ in 0..20 {
            e.update(1.0);
        }
        assert!(e.value() > 0.99);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1]")]
    fn ewma_rejects_bad_alpha() {
        Ewma::new(0.0);
    }

    #[test]
    fn zone_stats_skip_rate() {
        let mut z = ZoneStats::new(0.3);
        assert_eq!(z.skip_rate(), 0.0);
        z.record_skip();
        z.record_no_skip();
        z.record_skip();
        assert!((z.skip_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn counters_saturate_at_the_ceiling_and_rates_stay_rates() {
        let mut z = ZoneStats::new(0.3);
        z.probes = u32::MAX - 1;
        z.skips = u32::MAX - 1;
        z.scans = u32::MAX - 1;
        z.wasted_scans = u32::MAX - 1;
        for _ in 0..3 {
            z.record_skip();
            z.record_no_skip();
            z.record_skips(7);
            z.record_scan(0.0, 0.05);
        }
        assert_eq!(
            (z.probes, z.skips, z.scans, z.wasted_scans),
            (u32::MAX, u32::MAX, u32::MAX, u32::MAX)
        );
        for rate in [
            z.skip_rate(),
            z.skip_rate_with_pending(u32::MAX),
            z.waste_rate_with_pending(u32::MAX),
        ] {
            assert!((0.0..=1.0).contains(&rate), "rate {rate}");
        }
    }

    #[test]
    fn waste_rate_is_wasted_scans_over_probes_and_guards_zero() {
        let mut z = ZoneStats::new(0.3);
        assert_eq!(z.waste_rate_with_pending(0), 0.0);
        // An observation that arrived without its prune: the scan stands
        // in for the probe it implies.
        z.record_scan(0.0, 0.05);
        assert_eq!(z.waste_rate_with_pending(0), 1.0);
        for _ in 0..3 {
            z.record_no_skip();
        }
        z.record_scan(0.0, 0.05);
        assert!((z.waste_rate_with_pending(0) - 2.0 / 3.0).abs() < 1e-12);
        // Deferred skips are probes too.
        assert!((z.waste_rate_with_pending(5) - 2.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn wasted_scan_streak_resets_on_productive_scan() {
        let mut z = ZoneStats::new(0.3);
        z.record_scan(0.0, 0.05);
        z.record_scan(0.01, 0.05);
        assert_eq!(z.wasted_scans, 2);
        z.record_scan(0.5, 0.05);
        assert_eq!(z.wasted_scans, 0);
    }

    #[test]
    fn reset_clears_counters_keeps_alpha() {
        let mut z = ZoneStats::new(0.25);
        z.record_skip();
        z.record_scan(0.9, 0.05);
        z.reset();
        assert_eq!(z.probes, 0);
        assert_eq!(z.scans, 0);
        assert!(!z.selectivity.is_primed());
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
