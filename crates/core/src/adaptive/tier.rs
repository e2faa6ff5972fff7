//! Per-zone metadata tier policy: build, choose, and drop.
//!
//! Min/max zone bounds are blind to two predicate shapes: a point probe
//! inside a wide `[min, max]` interval (the bounds overlap even when no
//! row holds the value) and a mid-selectivity range over a zone that
//! cannot refine positionally. Tiers close both gaps with per-zone
//! optional sketches — a [`BloomSketch`](ads_storage::BloomSketch) over
//! the zone's value set for the first, per-cache-line
//! [`Imprints`](ads_storage::Imprints) for the second — paid for and
//! retired under the same feedback discipline zones themselves use:
//!
//! * **build** lazily, once a zone's observed scan volume has amortised
//!   one build pass over its rows (`tier_after_scans`);
//! * **choose** per zone from the observed predicate shape: point-heavy
//!   zones get a bloom sketch, range-heavy ones imprints
//!   ([`TierMode::Adaptive`]); forced modes exist for the ablation grid;
//! * **drop** when a consultation window shows the tier almost never
//!   excludes anything (`tier_drop_after` probes at
//!   [`DROP_MIN_HIT_RATE`] or below), with exponential rebuild
//!   backoff so a hopeless zone stops re-paying the build.
//!
//! Like reorganization, tier changes run on the owner's side of the
//! publication protocol and reach readers only through the next epoch'd
//! snapshot swap; payloads are `Arc`-shared so a held snapshot keeps
//! answering after the owner drops or replaces a tier.

use crate::adaptive::config::TierMode;
use crate::adaptive::zone::{ZoneLayout, ZoneState, ZoneTier};
use crate::adaptive::zonemap::AdaptiveZonemap;
use crate::trace::AdaptEvent;
use ads_storage::{BloomSketch, DataValue, Imprints};
use std::sync::Arc;
use std::time::Instant;

/// Point-predicate fraction at or above which the [`TierMode::Adaptive`]
/// chooser picks a bloom sketch over imprints.
const BLOOM_POINT_FRACTION: f64 = 0.5;

/// Hit rate at or below which a judged tier is dropped (it is pure probe
/// overhead); above it the window simply resets.
const DROP_MIN_HIT_RATE: f64 = 0.05;

/// Bloom sizing: filter bits per zone row.
const BLOOM_BITS_PER_ROW: usize = 8;

/// Hard cap on any single tier payload's byte size.
const MAX_TIER_BYTES: usize = 1 << 16;

/// Lifetime tier counters of one zonemap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Bloom sketches built over zones.
    pub blooms_built: u64,
    /// Imprint sketches built over zones.
    pub imprints_built: u64,
    /// Tiers dropped by the feedback policy.
    pub tiers_dropped: u64,
    /// Tier consultations that excluded at least one row.
    pub tier_skips: u64,
    /// Rows excluded by tier probes (full zone skips plus skipped
    /// sub-zone line runs) that the `(min, max)` bounds could not.
    pub tier_rows_excluded: u64,
    /// Nanoseconds spent inside [`AdaptiveZonemap::apply_tiers`].
    pub build_ns: u64,
}

impl TierStats {
    /// Merges another stats block into this one (sharded aggregation).
    pub fn merge(&mut self, other: &TierStats) {
        self.blooms_built += other.blooms_built;
        self.imprints_built += other.imprints_built;
        self.tiers_dropped += other.tiers_dropped;
        self.tier_skips += other.tier_skips;
        self.tier_rows_excluded += other.tier_rows_excluded;
        self.build_ns += other.build_ns;
    }

    /// Tiers built of either kind.
    pub fn tiers_built(&self) -> u64 {
        self.blooms_built + self.imprints_built
    }
}

/// What one [`AdaptiveZonemap::apply_tiers`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierReport {
    /// Tiers built by this pass (blooms + imprints).
    pub built: u64,
    /// Tiers dropped by this pass.
    pub dropped: u64,
    /// Wall time of this pass in nanoseconds.
    pub build_ns: u64,
}

impl TierReport {
    /// True when the pass attached or dropped any tier.
    pub fn changed(&self) -> bool {
        self.built + self.dropped > 0
    }
}

impl<T: DataValue> AdaptiveZonemap<T> {
    /// One tier maintenance pass over `base` (the column this zonemap
    /// indexes): drops tiers whose consultation window shows no benefit,
    /// then builds tiers over built flat zones whose scan volume has
    /// amortised a build pass. No-op (and free) unless `tier_mode` is
    /// enabled.
    ///
    /// Runs on the owner's side of the publication protocol — inline via
    /// [`maintain`](crate::index::SkippingIndex::maintain) or on the
    /// server's maintenance thread — never on a shared snapshot.
    ///
    /// epoch: bumps once at the end under `report.changed()` — true
    /// exactly when a tier was built or dropped; a pass that only
    /// adjusted windows/backoff counters is reader-invisible.
    pub fn apply_tiers(&mut self, base: &[T]) -> TierReport {
        let mode = self.config.tier_mode;
        if !mode.enabled() {
            return TierReport::default();
        }
        debug_assert_eq!(base.len(), self.len(), "base column / zonemap mismatch");
        let t0 = Instant::now();
        let mut report = TierReport::default();
        let mut events: Vec<AdaptEvent> = Vec::new();
        for zone in &mut self.zones {
            // Drop policy first: judge a full consultation window.
            if zone.tier.is_some() && zone.tier_stats.tier_probes >= self.config.tier_drop_after {
                let hit_rate = f64::from(zone.tier_stats.tier_hits)
                    / f64::from(zone.tier_stats.tier_probes.max(1));
                if hit_rate <= DROP_MIN_HIT_RATE {
                    zone.drop_tier();
                    let drops = zone.tier_stats.drops.saturating_add(1);
                    zone.tier_stats.drops = drops;
                    // Exponential rebuild backoff, anchored at the
                    // current scan count so the zone must earn a fresh
                    // batch of scans before retrying. Quadrupling per
                    // drop: build cost dominates the tier overhead on
                    // hopeless zones (the imprint build resamples and
                    // re-bins the whole zone), so hopeless zones must
                    // go quiet after very few cycles.
                    zone.tier_stats.next_build_scans = zone.stats.scans.saturating_add(
                        self.config
                            .tier_after_scans
                            .saturating_mul(1 << (2 * drops).min(16)),
                    );
                    report.dropped += 1;
                    events.push(AdaptEvent::TierDropped {
                        range: zone.range(),
                    });
                    continue;
                }
                // The tier is paying: keep it and open a fresh window.
                zone.tier_stats.reset_window();
            }
            // Build policy: built flat zones only. Reorganized zones
            // resolve positionally (a tier is redundant); dead and
            // unbuilt zones have no metadata for a tier to refine.
            let eligible = zone.tier.is_none()
                && matches!(zone.state, ZoneState::Built { .. })
                && matches!(zone.layout, ZoneLayout::Flat);
            if !eligible {
                continue;
            }
            let floor = zone
                .tier_stats
                .next_build_scans
                .max(self.config.tier_after_scans);
            if zone.stats.scans < floor {
                continue;
            }
            let kind = match mode {
                TierMode::Bloom => TierMode::Bloom,
                TierMode::Imprint => TierMode::Imprint,
                TierMode::Adaptive => {
                    // Chooser: observed predicate shape decides. Every
                    // scan implies an overlapping probe, which bumped a
                    // shape counter, so samples exist by construction.
                    let Some(frac) = zone.tier_stats.point_fraction() else {
                        continue;
                    };
                    if frac >= BLOOM_POINT_FRACTION {
                        TierMode::Bloom
                    } else {
                        TierMode::Imprint
                    }
                }
                TierMode::Off => unreachable!("gated above"),
            };
            let rows = &base[zone.start..zone.end];
            let tier = match kind {
                TierMode::Bloom => {
                    report.built += 1;
                    self.tier_lifetime.blooms_built += 1;
                    ZoneTier::Bloom(Arc::new(BloomSketch::build(
                        rows,
                        BLOOM_BITS_PER_ROW,
                        MAX_TIER_BYTES,
                    )))
                }
                _ => {
                    report.built += 1;
                    self.tier_lifetime.imprints_built += 1;
                    ZoneTier::Imprint(Arc::new(Imprints::build(
                        rows,
                        self.config.tier_imprint_line_rows,
                        ads_storage::imprint::MAX_BINS,
                    )))
                }
            };
            events.push(AdaptEvent::TierBuilt {
                range: zone.range(),
                kind: tier.kind(),
            });
            zone.tier = Some(tier);
            zone.tier_stats.reset_window();
        }
        for ev in events {
            self.trace.record(self.query_seq, ev);
        }
        // narrowing: saturates at ~584 years of nanoseconds.
        report.build_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.tier_lifetime.tiers_dropped += report.dropped;
        self.tier_lifetime.build_ns += report.build_ns;
        if report.changed() {
            self.mutation_epoch += 1;
        }
        #[cfg(debug_assertions)]
        self.assert_invariants();
        report
    }

    /// Lifetime tier counters (builds, drops, skip benefit).
    pub fn tier_stats(&self) -> TierStats {
        self.tier_lifetime
    }

    /// Number of zones currently carrying a metadata tier.
    pub fn zones_tiered(&self) -> usize {
        self.zones.iter().filter(|z| z.has_tier()).count()
    }
}
