//! The zone record of an adaptive zonemap.

use crate::adaptive::config::AdaptiveConfig;
use crate::outcome::MaskRequest;
use crate::stats::ZoneStats;
use ads_storage::{BloomSketch, DataValue, RowRange};

/// Secondary zone metadata: a 64-bin value-presence mask, used when a zone
/// can refine no further positionally (outliers pin its min/max wide) but
/// its *value* population is sparse. Earned, like all metadata here, as a
/// scan by-product.
#[derive(Debug, Clone, Copy)]
pub struct ZoneMask {
    /// The bin layout the mask was collected under.
    pub layout: MaskRequest,
    /// Bit `b` set when some row of the zone falls in bin `b`.
    pub bits: u64,
}

/// Lifecycle state of one adaptive zone.
#[derive(Debug, Clone, Copy)]
pub enum ZoneState<T: DataValue> {
    /// No metadata yet; the zone must be scanned, and the scan's
    /// by-product `(min, max)` will materialise it.
    Unbuilt,
    /// Metadata available. `exact` distinguishes bounds computed from this
    /// exact row range from conservative bounds inherited from a split
    /// parent (sound but possibly wider than the truth; tightened on the
    /// next scan through the zone).
    Built {
        /// Lower bound on the zone's values (exact or conservative).
        min: T,
        /// Upper bound on the zone's values (exact or conservative).
        max: T,
        /// Whether the bounds are exact for this row range.
        exact: bool,
    },
    /// Metadata retired: probing this region never paid off. Scans read it
    /// unconditionally, exactly as a store without skipping would.
    Dead {
        /// Query sequence number at deactivation, for revival backoff.
        since_query: u64,
    },
}

/// An optional secondary metadata tier attached to one zone: a value-set
/// sketch that excludes point probes the zone's bounds cannot. Earned
/// lazily (built by [`apply_tiers`] once the zone's scan volume amortises
/// the build pass) and dropped under the same observe/deactivate feedback
/// the zones themselves use. The zone record holds the sketch by value:
/// the sketch is a pointer to its `Arc`-shared words, so the walk reaches
/// the bits in one load from the record, and published zonemap snapshots
/// share them immutably.
///
/// [`apply_tiers`]: crate::adaptive::AdaptiveZonemap::apply_tiers
#[derive(Debug, Clone)]
pub enum ZoneTier {
    /// Word-packed bloom filter over the zone's value set; excludes point
    /// predicates that fall inside the zone's `[min, max]` but hit no
    /// actual value.
    Bloom(BloomSketch),
}

impl ZoneTier {
    /// Short kind label for snapshots and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            ZoneTier::Bloom(_) => "bloom",
        }
    }

    /// Heap bytes held by the tier payload.
    pub fn metadata_bytes(&self) -> usize {
        match self {
            ZoneTier::Bloom(s) => s.metadata_bytes(),
        }
    }
}

/// Per-zone tier bookkeeping: the probe/hit window driving the drop
/// policy and the rebuild floor. Lives outside [`ZoneStats`] because
/// its lifecycle follows the *tier*, not the zone's adaptation history.
/// The drop count the backoff grows with is the zone's
/// [`AdaptiveZone::tier_drops`], kept beside the record's other one-byte
/// counters: here it would pad this block from 12 bytes to 16 and the
/// record past 128.
#[derive(Debug, Clone, Copy, Default)]
pub struct TierTelemetry {
    /// Tier consultations in the current drop window.
    pub tier_probes: u32,
    /// Consultations that excluded the zone.
    pub tier_hits: u32,
    /// Scan count the zone must reach before the next (re)build attempt.
    pub next_build_scans: u32,
}

impl TierTelemetry {
    /// Resets the probe/hit drop window (kept across windows: the
    /// backoff state).
    pub fn reset_window(&mut self) {
        self.tier_probes = 0;
        self.tier_hits = 0;
    }
}

/// One zone: a row range plus its metadata state and statistics.
#[derive(Debug, Clone)]
pub struct AdaptiveZone<T: DataValue> {
    /// First row of the zone.
    pub start: usize,
    /// One past the last row of the zone.
    pub end: usize,
    /// Metadata lifecycle state.
    pub state: ZoneState<T>,
    /// Adaptation statistics.
    pub stats: ZoneStats,
    /// How many times this region has been deactivated; drives exponential
    /// revival backoff, whose shift stops growing at 21 deactivations.
    pub deactivations: u8,
    /// Hysteresis flag: set when this zone was produced by a coarsening
    /// merge. Such zones are never split again — a merge is the system
    /// concluding that finer metadata did not pay here, and re-splitting
    /// would ping-pong forever on random data. Revival (after
    /// deactivation backoff) is the sanctioned second chance.
    pub no_resplit: bool,
    /// How many split levels separate this zone from an originally
    /// materialised one. Splitting is speculative — on data with no
    /// positional value locality it can never help — so the wasted-scan
    /// threshold doubles per generation, damping runaway refinement while
    /// still letting genuinely clustered regions drill down.
    pub split_generation: u8,
    /// Optional secondary value mask (see [`ZoneMask`]). Dropped on any
    /// structural change to the zone's row range.
    pub mask: Option<ZoneMask>,
    /// Optional secondary metadata tier (see [`ZoneTier`]). Dropped on
    /// any structural change to the zone's row range and by the tier drop
    /// policy.
    pub tier: Option<ZoneTier>,
    /// Tier drop window and rebuild floor (see [`TierTelemetry`]).
    pub tier_stats: TierTelemetry,
    /// Times a tier was dropped here; drives exponential rebuild backoff.
    pub tier_drops: u8,
}

impl<T: DataValue> AdaptiveZone<T> {
    /// A fresh unbuilt zone.
    pub fn unbuilt(start: usize, end: usize) -> Self {
        AdaptiveZone {
            start,
            end,
            state: ZoneState::Unbuilt,
            stats: ZoneStats::default(),
            deactivations: 0,
            no_resplit: false,
            split_generation: 0,
            mask: None,
            tier: None,
            tier_stats: TierTelemetry::default(),
            tier_drops: 0,
        }
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the zone covers no rows (never valid inside a zonemap).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The zone's row range.
    pub fn range(&self) -> RowRange {
        RowRange::new(self.start, self.end)
    }

    /// True if metadata is currently usable for pruning.
    pub fn is_built(&self) -> bool {
        matches!(self.state, ZoneState::Built { .. })
    }

    /// True if the zone currently carries a metadata tier.
    pub fn has_tier(&self) -> bool {
        self.tier.is_some()
    }

    /// Whether a scan of this zone should also collect a value mask: it
    /// keeps being read for nothing, has no mask yet and can refine no
    /// further positionally (`min_split_rows` is the smallest zone a split
    /// may still divide).
    ///
    /// This is the one *statistic* a reader decides from — everything
    /// else its walk reads is structure (DESIGN.md "What a reader reads
    /// off a snapshot") — so the classifier and `observe`'s publication
    /// trigger both ask here, and a snapshot is stale exactly when this
    /// answer, or that structure, changed.
    pub(crate) fn wants_mask(&self, config: &AdaptiveConfig, min_split_rows: usize) -> bool {
        let can_split = config.enable_split && !self.no_resplit && self.len() >= min_split_rows;
        config.enable_mask
            && self.mask.is_none()
            && !can_split
            && self.stats.wasted_scans >= config.split_after_wasted
    }

    /// Drops the tier and its drop window, remembering the drop for
    /// rebuild backoff. No-op when no tier is attached.
    ///
    /// epoch: zone-level helper — the zonemap-level callers
    /// (`apply_tiers`' drop path, the lifecycle passes) own the bump;
    /// a zone cannot see the map's epoch counter from here.
    pub fn drop_tier(&mut self) {
        if self.tier.take().is_some() {
            self.tier_stats.reset_window();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_zone() {
        let z: AdaptiveZone<i64> = AdaptiveZone::unbuilt(10, 20);
        assert_eq!(z.len(), 10);
        assert!(!z.is_empty());
        assert!(matches!(z.state, ZoneState::Unbuilt));
        assert_eq!(z.range(), RowRange::new(10, 20));
        assert_eq!(z.deactivations, 0);
        assert!(!z.no_resplit);
    }

    #[test]
    fn state_predicates() {
        let mut z: AdaptiveZone<i64> = AdaptiveZone::unbuilt(0, 5);
        z.state = ZoneState::Built {
            min: 1,
            max: 4,
            exact: true,
        };
        assert!(z.is_built());
        z.state = ZoneState::Dead { since_query: 7 };
        assert!(matches!(z.state, ZoneState::Dead { .. }));
    }

    #[test]
    fn the_probe_clock_stamp_costs_no_record_bytes() {
        // Probe-clock stamps must not grow the record the walk skips past.
        assert!(std::mem::size_of::<AdaptiveZone<i64>>() <= 128);
    }
}
