//! The zone record of an adaptive zonemap.

use crate::adaptive::config::AdaptiveConfig;
use crate::outcome::MaskRequest;
use crate::stats::ZoneStats;
use ads_storage::{BloomSketch, DataValue, Imprints, ReorgZone, RowRange};
use std::sync::Arc;

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

/// Physical layout of one zone's rows.
///
/// `Flat` is the paper's world: the zone is a contiguous slice of the
/// base column and qualifying zones are scanned row by row.
/// `Reorganized` holds a [`ReorgZone`] payload — a sorted/cracked copy
/// of the zone with its rowid permutation — so range predicates resolve
/// positionally. The payload sits behind an `Arc`: published snapshots
/// share it immutably, and the owning (maintenance-side) zonemap cracks
/// it copy-on-write via `Arc::make_mut`, which is what makes a payload
/// immutable-until-republished.
#[derive(Debug, Clone, Default)]
pub enum ZoneLayout<T: DataValue> {
    /// Contiguous slice of the base column (the default).
    #[default]
    Flat,
    /// Sorted/cracked permuted copy; predicates resolve positionally.
    Reorganized {
        /// The shared payload (values + rowid permutation + pieces).
        payload: Arc<ReorgZone<T>>,
        /// Queries answered positionally since promotion.
        hits: u64,
        /// Consecutive probes that did not use the payload (the zone was
        /// skipped outright); drives demotion when the hotspot moves.
        idle: u32,
    },
}

/// An optional secondary metadata tier attached to one zone: a value-set
/// sketch for equality-heavy zones or a per-cache-line imprint for
/// wide-range zones. Both are earned lazily (built by [`apply_tiers`]
/// once the zone's scan volume amortises the build pass) and dropped
/// under the same observe/deactivate feedback the zones themselves use.
/// Payloads sit behind `Arc`s so published zonemap snapshots share them
/// immutably, exactly like reorganized-zone payloads.
///
/// [`apply_tiers`]: crate::adaptive::AdaptiveZonemap::apply_tiers
#[derive(Debug, Clone)]
pub enum ZoneTier<T: DataValue> {
    /// Word-packed bloom filter over the zone's value set; excludes point
    /// predicates that fall inside the zone's `[min, max]` but hit no
    /// actual value.
    Bloom(Arc<BloomSketch>),
    /// Column-imprint histogram sketch over the zone's rows; excludes or
    /// full-matches sub-zone line runs for range predicates.
    Imprint(Arc<Imprints<T>>),
}

impl<T: DataValue> ZoneTier<T> {
    /// Short kind label for snapshots and reports.
    pub fn kind(&self) -> &'static str {
        match self {
            ZoneTier::Bloom(_) => "bloom",
            ZoneTier::Imprint(_) => "imprint",
        }
    }

    /// Heap bytes held by the tier payload.
    pub fn metadata_bytes(&self) -> usize {
        match self {
            ZoneTier::Bloom(s) => s.metadata_bytes(),
            ZoneTier::Imprint(s) => s.metadata_bytes(),
        }
    }
}

/// Per-zone tier bookkeeping: predicate-shape telemetry feeding the tier
/// chooser, plus the probe/hit window driving the drop policy. Lives
/// outside [`ZoneStats`] because its lifecycle follows the *tier*, not
/// the zone's adaptation history.
#[derive(Debug, Clone, Copy, Default)]
pub struct TierTelemetry {
    /// Overlapping probes whose predicate was a point (`lo == hi`).
    pub point_preds: u32,
    /// Overlapping probes whose predicate was a proper range.
    pub range_preds: u32,
    /// Tier consultations in the current drop window.
    pub tier_probes: u32,
    /// Consultations that excluded rows (full skip or sub-zone skip).
    pub tier_hits: u32,
    /// Times a tier was dropped here; drives exponential rebuild backoff.
    pub drops: u8,
    /// Scan count the zone must reach before the next (re)build attempt.
    pub next_build_scans: u32,
}

impl TierTelemetry {
    /// Fraction of observed overlapping predicates that were points;
    /// `None` before any sample.
    pub fn point_fraction(&self) -> Option<f64> {
        let total = self.point_preds + self.range_preds;
        (total > 0).then(|| f64::from(self.point_preds) / f64::from(total))
    }

    /// Resets the probe/hit drop window (kept across windows: shape
    /// counters and backoff state).
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
    /// revival backoff.
    pub deactivations: u16,
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
    /// Physical layout of the zone's rows (see [`ZoneLayout`]).
    pub layout: ZoneLayout<T>,
    /// Optional secondary metadata tier (see [`ZoneTier`]). Dropped on
    /// any structural change to the zone's row range, on reorganization
    /// promotion, and by the tier drop policy.
    pub tier: Option<ZoneTier<T>>,
    /// Tier chooser/drop bookkeeping (see [`TierTelemetry`]).
    pub tier_stats: TierTelemetry,
}

impl<T: DataValue> AdaptiveZone<T> {
    /// A fresh unbuilt zone.
    pub fn unbuilt(start: usize, end: usize, ewma_alpha: f64) -> Self {
        AdaptiveZone {
            start,
            end,
            state: ZoneState::Unbuilt,
            stats: ZoneStats::new(ewma_alpha),
            deactivations: 0,
            no_resplit: false,
            split_generation: 0,
            mask: None,
            layout: ZoneLayout::Flat,
            tier: None,
            tier_stats: TierTelemetry::default(),
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

    /// True if the zone is retired.
    pub fn is_dead(&self) -> bool {
        matches!(self.state, ZoneState::Dead { .. })
    }

    /// True if the zone currently carries a reorganized payload.
    pub fn is_reorganized(&self) -> bool {
        matches!(self.layout, ZoneLayout::Reorganized { .. })
    }

    /// The reorganized payload, when present.
    pub fn reorg_payload(&self) -> Option<&Arc<ReorgZone<T>>> {
        match &self.layout {
            ZoneLayout::Reorganized { payload, .. } => Some(payload),
            ZoneLayout::Flat => None,
        }
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
        let z: AdaptiveZone<i64> = AdaptiveZone::unbuilt(10, 20, 0.25);
        assert_eq!(z.len(), 10);
        assert!(!z.is_empty());
        assert!(!z.is_built() && !z.is_dead());
        assert_eq!(z.range(), RowRange::new(10, 20));
        assert_eq!(z.deactivations, 0);
        assert!(!z.no_resplit);
    }

    #[test]
    fn state_predicates() {
        let mut z: AdaptiveZone<i64> = AdaptiveZone::unbuilt(0, 5, 0.25);
        z.state = ZoneState::Built {
            min: 1,
            max: 4,
            exact: true,
        };
        assert!(z.is_built());
        z.state = ZoneState::Dead { since_query: 7 };
        assert!(z.is_dead());
    }
}
