//! Per-zone metadata tier policy: build and drop.
//!
//! Min/max zone bounds are blind to a point probe inside a wide
//! `[min, max]` interval: the bounds overlap even when no row holds the
//! value. A tier closes that gap with an optional per-zone
//! [`BloomSketch`](ads_storage::BloomSketch) over the zone's value set,
//! paid for and retired under the same feedback discipline zones
//! themselves use:
//!
//! * **build** lazily, once a zone's observed scan volume has amortised
//!   one build pass over its rows (`tier_after_scans`);
//! * **drop** when a consultation window shows the tier almost never
//!   excludes anything (`tier_drop_after` probes at
//!   [`DROP_MIN_HIT_RATE`] or below), with exponential rebuild
//!   backoff so a hopeless zone stops re-paying the build. A zone that
//!   range predicates keep reading is such a zone: a value-set sketch
//!   answers only equality probes.
//!
//! Tier changes run on the owner's side of the publication protocol and
//! reach readers only through the next epoch'd snapshot swap. The zone
//! record holds the sketch by value, and the sketch is its bit words
//! behind an `Arc`: a held snapshot shares them
//! and keeps answering after the owner drops or replaces a tier, and a
//! probe reaches them in one load from the record.

use crate::adaptive::zone::{ZoneState, ZoneTier};
use crate::adaptive::zonemap::AdaptiveZonemap;
use crate::trace::AdaptEvent;
use ads_storage::{BloomSketch, DataValue};
use std::time::Instant;

/// Hit rate at or below which a judged tier is dropped (it is pure probe
/// overhead); above it the window simply resets.
const DROP_MIN_HIT_RATE: f64 = 0.05;

/// Bloom sizing: filter bits per zone row.
const BLOOM_BITS_PER_ROW: usize = 8;

/// Hard cap on any single tier payload's byte size.
const MAX_TIER_BYTES: usize = 1 << 16;

/// Lifetime tier counters of one zonemap. Builds and drops are the
/// trace's `tier_built` / `tier_dropped` totals, filled in by
/// [`AdaptiveZonemap::tier_stats`]; the map keeps the rest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Bloom sketches built over zones.
    pub blooms_built: u64,
    /// Tiers dropped by the feedback policy.
    pub tiers_dropped: u64,
    /// Tier consultations that excluded at least one row.
    pub tier_skips: u64,
    /// Rows excluded by tier probes that the `(min, max)` bounds could
    /// not.
    pub tier_rows_excluded: u64,
    /// Nanoseconds spent inside [`AdaptiveZonemap::apply_tiers`].
    pub build_ns: u64,
}

impl TierStats {
    /// Merges another stats block into this one (sharded aggregation).
    pub fn merge(&mut self, other: &TierStats) {
        self.blooms_built += other.blooms_built;
        self.tiers_dropped += other.tiers_dropped;
        self.tier_skips += other.tier_skips;
        self.tier_rows_excluded += other.tier_rows_excluded;
        self.build_ns += other.build_ns;
    }

    /// Tiers built.
    pub fn tiers_built(&self) -> u64 {
        self.blooms_built
    }
}

impl<T: DataValue> AdaptiveZonemap<T> {
    /// One tier maintenance pass over `base` (the column this zonemap
    /// indexes): drops tiers whose consultation window shows no benefit,
    /// then builds tiers over built zones whose scan volume has
    /// amortised a build pass. No-op (and free) unless `enable_tiers` is
    /// set. Each build and drop is one trace event.
    ///
    /// Runs on the owner's side of the publication protocol, scheduled by
    /// [`maintain`](crate::index::SkippingIndex::maintain) — after an
    /// inline query or in the server's maintenance round — never on a
    /// shared snapshot.
    ///
    /// epoch: bumps once at the end when the pass recorded an event —
    /// exactly when a tier was built or dropped; a pass that only
    /// adjusted windows/backoff counters is reader-invisible.
    pub fn apply_tiers(&mut self, base: &[T]) {
        if !self.config.enable_tiers {
            return;
        }
        debug_assert_eq!(base.len(), self.len(), "base column / zonemap mismatch");
        let t0 = Instant::now();
        let events_before = self.trace.total_events();
        for zone in &mut self.zones {
            // Drop policy first: judge a full consultation window.
            if zone.tier.is_some() && zone.tier_stats.tier_probes >= self.config.tier_drop_after {
                let hit_rate = f64::from(zone.tier_stats.tier_hits)
                    / f64::from(zone.tier_stats.tier_probes.max(1));
                if hit_rate <= DROP_MIN_HIT_RATE {
                    zone.drop_tier();
                    let drops = zone.tier_drops.saturating_add(1);
                    zone.tier_drops = drops;
                    // Exponential rebuild backoff, anchored at the
                    // current scan count so the zone must earn a fresh
                    // batch of scans before retrying. Quadrupling per
                    // drop: build cost dominates the tier overhead on
                    // hopeless zones (the build hashes the whole zone),
                    // so hopeless zones must go quiet after very few
                    // cycles. The shift is taken in `u32`: doubled in the
                    // counter's own `u8`, 128 drops would overflow.
                    zone.tier_stats.next_build_scans = zone.stats.scans.saturating_add(
                        self.config
                            .tier_after_scans
                            .saturating_mul(1 << (2 * u32::from(drops)).min(16)),
                    );
                    self.trace.record(
                        self.query_seq,
                        AdaptEvent::TierDropped {
                            range: zone.range(),
                        },
                    );
                    continue;
                }
                // The tier is paying: keep it and open a fresh window.
                zone.tier_stats.reset_window();
            }
            // Build policy: built zones only. Dead and unbuilt zones have
            // no metadata for a tier to refine.
            let eligible = zone.tier.is_none() && matches!(zone.state, ZoneState::Built { .. });
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
            let tier = ZoneTier::Bloom(BloomSketch::build(
                &base[zone.start..zone.end],
                BLOOM_BITS_PER_ROW,
                MAX_TIER_BYTES,
            ));
            self.trace.record(
                self.query_seq,
                AdaptEvent::TierBuilt {
                    range: zone.range(),
                    kind: tier.kind(),
                },
            );
            zone.tier = Some(tier);
            zone.tier_stats.reset_window();
        }
        // narrowing: saturates at ~584 years of nanoseconds.
        self.tier_lifetime.build_ns += t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if self.trace.total_events() != events_before {
            self.mutation_epoch += 1;
        }
        #[cfg(debug_assertions)]
        self.assert_invariants();
    }

    /// Lifetime tier counters: builds and drops off the trace's totals,
    /// skip benefit and pass time as the map counted them.
    pub fn tier_stats(&self) -> TierStats {
        let events = self.trace.totals();
        TierStats {
            blooms_built: events.tier_built,
            tiers_dropped: events.tier_dropped,
            ..self.tier_lifetime
        }
    }

    /// Number of zones currently carrying a metadata tier.
    pub fn zones_tiered(&self) -> usize {
        self.zones.iter().filter(|z| z.has_tier()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveConfig;

    #[test]
    fn rebuild_backoff_caps_instead_of_overflowing() {
        let data: Vec<i64> = (0..256).collect();
        let config = AdaptiveConfig {
            enable_tiers: true,
            target_zone_rows: 256,
            min_zone_rows: 16,
            ..AdaptiveConfig::default()
        };
        let mut zm = AdaptiveZonemap::new(data.len(), config.clone());
        // A tier at the end of a hit-less consultation window, on a zone
        // that has dropped one 127 times: doubled in the drop counter's
        // own width, the 128th drop would overflow.
        let bloom = BloomSketch::build(&data, BLOOM_BITS_PER_ROW, MAX_TIER_BYTES);
        let zone = &mut zm.zones[0];
        zone.state = ZoneState::Built {
            min: 0,
            max: 255,
            exact: true,
        };
        zone.tier = Some(ZoneTier::Bloom(bloom));
        zone.tier_drops = 127;
        zone.tier_stats.tier_probes = config.tier_drop_after;
        zone.stats.scans = 10;
        zm.plane.set_built(0, 0, 255);
        zm.apply_tiers(&data);
        assert_eq!(zm.trace().totals().tier_dropped, 1);
        let telemetry = zm.zones[0].tier_stats;
        assert_eq!(zm.zones[0].tier_drops, 128);
        assert_eq!(
            telemetry.next_build_scans,
            10 + (config.tier_after_scans << 16),
            "the backoff sits at its cap"
        );
    }
}
