//! Zone-local reorganization policy: promotion and demotion.
//!
//! The feedback loop that decides *where* physical reorganization pays.
//! Metadata adaptation (split/merge/deactivate) reshapes what the zonemap
//! knows; promotion goes one step further and reshapes the *data*: a zone
//! that keeps absorbing partial scans is copied into a sorted
//! [`ReorgZone`] payload so subsequent predicates resolve positionally
//! instead of rescanning the zone. Demotion unwinds the investment when
//! the hotspot moves and the payload sits idle.
//!
//! The policy is intentionally the same shape as the paper's other
//! adaptation decisions: promotion triggers on observed scan volume (each
//! partial scan already paid the zone's full read cost, so
//! `reorg_after_scans` scans amortize one build copy), demotion on
//! observed disuse (`reorg_demote_idle` consecutive outright skips,
//! counted off the probe clock: a skip writes nothing).

use crate::adaptive::zone::{AdaptiveZone, ZoneLayout, ZoneState};
use crate::adaptive::zonemap::AdaptiveZonemap;
use crate::trace::AdaptEvent;
use ads_storage::{DataValue, ReorgZone};
use std::sync::Arc;
use std::time::Instant;

/// Lifetime reorganization counters of one zonemap. Promotions and
/// demotions are the trace's `promoted` / `demoted` totals, filled in by
/// [`AdaptiveZonemap::reorg_stats`]; the map keeps the rest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReorgStats {
    /// Zones promoted to the reorganized layout.
    pub zones_promoted: u64,
    /// Zones demoted back to flat.
    pub zones_demoted: u64,
    /// Payload bytes copied or relocated by promotion builds (the copy
    /// and the sort); no other path moves data.
    pub bytes_moved: u64,
    /// Nanoseconds spent inside [`AdaptiveZonemap::apply_reorg`].
    pub reorg_ns: u64,
}

impl ReorgStats {
    /// Merges another stats block into this one (sharded aggregation).
    pub fn merge(&mut self, other: &ReorgStats) {
        self.zones_promoted += other.zones_promoted;
        self.zones_demoted += other.zones_demoted;
        self.bytes_moved += other.bytes_moved;
        self.reorg_ns += other.reorg_ns;
    }
}

impl<T: DataValue> AdaptiveZonemap<T> {
    /// One reorganization pass over `base` (the column this zonemap
    /// indexes): promotes hot flat zones whose scan volume has amortized
    /// a build copy, demotes reorganized zones whose payload has sat
    /// idle. No-op (and free) unless `enable_reorg` is set. Each
    /// promotion and demotion is one trace event.
    ///
    /// Runs on the owner's side of the publication protocol, scheduled by
    /// [`maintain`](crate::index::SkippingIndex::maintain) — after an
    /// inline query or in the server's maintenance round — never on a
    /// shared snapshot. Readers observe layout changes only through the
    /// next republication, as one atomic snapshot swap. The schedule runs
    /// one pass per round: the hot bar is the map-wide mean scan rate,
    /// which each promotion lowers (it resets the promoted zone's scans),
    /// so a second pass with no query in between would promote zones the
    /// first one judged cold.
    ///
    /// epoch: bumps once at the end when the pass recorded an event —
    /// exactly when a zone was promoted or demoted; a pass that only
    /// read counters is reader-invisible.
    pub fn apply_reorg(&mut self, base: &[T]) {
        if !self.config.enable_reorg {
            return;
        }
        debug_assert_eq!(base.len(), self.len(), "base column / zonemap mismatch");
        let t0 = Instant::now();
        let events_before = self.trace.total_events();
        let clock = self.probe_clock;
        // Relative-hotness gate on the zones' scan RATE (scans/probes,
        // bounded [0,1] and stable under split/merge stat resets): a
        // zone is promoted only when queries keep reading it while the
        // map is skipping elsewhere. On a uniform workload every probe
        // scans every zone, the mean rate sits near 1.0 and the bar
        // `hot_factor * mean` exceeds any achievable rate — promotion
        // correctly never triggers. On a hot-zone workload the mean is
        // dragged down by all the skipped zones, so the hotspot's rate
        // towers over the bar. Single-zone maps bypass the gate (no
        // population to compare against).
        let scan_rate = |z: &AdaptiveZone<T>| {
            // Build-time scans land in `scans` without a matching probe,
            // so the effective probe count is at least the scan count;
            // never-touched zones rate as fully hot (1.0) rather than
            // cold so they cannot drag the mean toward a zero bar.
            let probes = z.stats.probes(clock).max(z.stats.scans).max(1);
            f64::from(z.stats.scans.max(1)) / f64::from(probes)
        };
        let mean_rate =
            self.zones.iter().map(scan_rate).sum::<f64>() / self.zones.len().max(1) as f64;
        let hot_bar = self.config.reorg_hot_factor * mean_rate;
        let gated = self.zones.len() > 1;
        for (idx, zone) in self.zones.iter_mut().enumerate() {
            match &zone.layout {
                ZoneLayout::Flat => {
                    let promote = matches!(zone.state, ZoneState::Built { .. })
                        && zone.stats.scans >= self.config.reorg_after_scans
                        && (!gated || scan_rate(zone) >= hot_bar);
                    if !promote {
                        continue;
                    }
                    // narrowing: row ids are u32 by storage-wide contract
                    // (columns are bounded well below 2^32 rows).
                    let payload = ReorgZone::build(&base[zone.start..zone.end], zone.start as u32);
                    let (min, max) = payload.min_max();
                    self.reorg_lifetime.bytes_moved += payload.bytes_moved();
                    // The build pass saw every row: bounds become exact,
                    // and the value mask (an approximation earned for the
                    // flat layout) is superseded by positional resolution.
                    zone.state = ZoneState::Built {
                        min,
                        max,
                        exact: true,
                    };
                    zone.mask = None;
                    // A metadata tier is superseded the same way: the
                    // payload resolves predicates positionally.
                    zone.tier = None;
                    zone.tier_stats = Default::default();
                    zone.tier_drops = 0;
                    // Hysteresis: a demoted zone must re-earn promotion
                    // with fresh scans, not replay pre-promotion history.
                    zone.stats.scans = 0;
                    zone.layout = ZoneLayout::Reorganized {
                        payload: Arc::new(payload),
                        used_at: zone.stats.probe_count(clock),
                    };
                    self.plane.set_built(idx, min, max);
                    self.trace.record(
                        self.query_seq,
                        AdaptEvent::Promoted {
                            range: zone.range(),
                        },
                    );
                }
                ZoneLayout::Reorganized { used_at, .. } => {
                    let idle = zone.stats.probe_count(clock).saturating_sub(*used_at);
                    if idle < u64::from(self.config.reorg_demote_idle) {
                        continue;
                    }
                    zone.layout = ZoneLayout::Flat;
                    zone.stats.scans = 0;
                    self.trace.record(
                        self.query_seq,
                        AdaptEvent::Demoted {
                            range: zone.range(),
                        },
                    );
                }
            }
        }
        // narrowing: saturates at ~584 years of nanoseconds.
        self.reorg_lifetime.reorg_ns += t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if self.trace.total_events() != events_before {
            self.mutation_epoch += 1;
        }
        #[cfg(debug_assertions)]
        self.assert_invariants();
    }

    /// Lifetime reorganization counters: promotions and demotions off the
    /// trace's totals, bytes moved and pass time as the map counted them.
    /// Every byte they count was moved inside
    /// [`AdaptiveZonemap::apply_reorg`].
    pub fn reorg_stats(&self) -> ReorgStats {
        let events = self.trace.totals();
        ReorgStats {
            zones_promoted: events.promoted,
            zones_demoted: events.demoted,
            ..self.reorg_lifetime
        }
    }

    /// Number of zones currently in the reorganized layout.
    pub fn zones_reorganized(&self) -> usize {
        self.zones.iter().filter(|z| z.is_reorganized()).count()
    }
}
