//! Structural maintenance: coarsening, deactivation, and revival.
//!
//! These are the techniques that let adaptive zonemaps *back out* of
//! metadata that is not paying for itself — the half of the framework that
//! rescues the adversarial case (random data) the abstract highlights,
//! where static zonemaps "significantly decrease query performance".

use crate::adaptive::zone::{AdaptiveZone, ZoneState};
use crate::adaptive::zonemap::AdaptiveZonemap;
use crate::stats::ZoneStats;
use crate::trace::AdaptEvent;
use ads_storage::{DataValue, RowRange};

impl<T: DataValue> AdaptiveZonemap<T> {
    /// One maintenance pass: merge useless adjacent zones, deactivate
    /// hopeless maximal zones, and coalesce adjacent dead regions.
    pub(crate) fn run_maintenance(&mut self) {
        // Merge/deactivate leave trace events; coalescing dead zones does
        // not, but it changes the zone count — together the two signals
        // detect whether this pass mutated anything reader-visible.
        let events_before = self.trace.total_events();
        let zones_before = self.zones.len();
        if self.config.enable_merge {
            self.merge_pass();
        }
        if self.config.enable_deactivate {
            self.deactivate_pass();
        }
        // Adjacent dead regions always coalesce: a single entry per dead
        // extent is what makes bypassing them effectively free.
        self.coalesce_dead();
        // epoch: one conditional bump covers all structural passes — the
        // trace-event/zone-count diff is true exactly when a pass changed
        // anything reader-visible; a no-op maintenance tick must NOT bump,
        // or every tick would force a full lane republication. Nor does
        // it rewrite the plane: the passes above only read on such a
        // tick.
        if self.trace.total_events() != events_before || self.zones.len() != zones_before {
            // The passes may have renumbered or retired zones; one rebuild
            // restores the SoA prune plane's mirroring invariant.
            self.plane.rebuild(&self.zones);
            self.mutation_epoch += 1;
        }
    }

    /// Merges runs of adjacent Built zones whose metadata never causes
    /// skips, halving (or better) the probe bill for that region.
    ///
    /// epoch: the caller (`run_maintenance`) bumps once when any pass
    /// left trace events — every merge records one, so merges are never
    /// published without a bump.
    fn merge_pass(&mut self) {
        let cfg = &self.config;
        let clock = self.probe_clock;
        let mergeable = |z: &AdaptiveZone<T>| {
            z.is_built()
                && z.stats.probes(clock) >= cfg.merge_after_probes
                && z.stats.skip_rate(clock) <= cfg.merge_max_skip_rate
        };

        // The first merge of a pass joins two zones as they stand now, so
        // a pass with no mergeable adjacent pair changes nothing — the
        // usual tick, which then moves no zone record at all.
        if !self.zones.windows(2).any(|w| {
            mergeable(&w[0]) && mergeable(&w[1]) && w[0].len() + w[1].len() <= cfg.max_zone_rows
        }) {
            return;
        }

        let mut merged: Vec<AdaptiveZone<T>> = Vec::with_capacity(self.zones.len());
        let mut events: Vec<(RowRange, usize)> = Vec::new();
        for zone in self.zones.drain(..) {
            let can_extend = match merged.last() {
                Some(prev) => {
                    mergeable(prev)
                        && mergeable(&zone)
                        && prev.len() + zone.len() <= cfg.max_zone_rows
                }
                None => false,
            };
            if can_extend {
                // invariant: can_extend is only true when merged is non-
                // empty.
                let prev = merged.last_mut().expect("checked non-empty");
                let (pmin, pmax, pexact) = match prev.state {
                    ZoneState::Built { min, max, exact } => (min, max, exact),
                    _ => unreachable!("mergeable implies built"),
                };
                let (zmin, zmax, zexact) = match zone.state {
                    ZoneState::Built { min, max, exact } => (min, max, exact),
                    _ => unreachable!("mergeable implies built"),
                };
                let grown = match events.last_mut() {
                    // Extend the in-flight merge event if it is this one.
                    Some((range, parts)) if range.end == prev.end => {
                        range.end = zone.end;
                        *parts += 1;
                        true
                    }
                    _ => false,
                };
                if !grown {
                    events.push((RowRange::new(prev.start, zone.end), 2));
                }
                prev.end = zone.end;
                prev.state = ZoneState::Built {
                    min: pmin.min_total(zmin),
                    max: pmax.max_total(zmax),
                    // Exact bounds over exactly-adjacent ranges stay exact
                    // for the union.
                    exact: pexact && zexact,
                };
                prev.stats = ZoneStats::starting_at(clock);
                prev.deactivations = prev.deactivations.max(zone.deactivations);
                prev.no_resplit = true;
                // Masks describe a single zone's rows; the union needs a
                // fresh one (earned later if the merged zone still wastes
                // scans).
                prev.mask = None;
                // Likewise tiers: a sketch over the old row range would
                // be unsound for the union. The merged zone re-earns one.
                prev.tier = None;
                prev.tier_stats = Default::default();
                prev.tier_drops = 0;
            } else {
                merged.push(zone);
            }
        }
        self.zones = merged;
        for (range, parts) in events {
            self.trace
                .record(self.query_seq, AdaptEvent::Merged { range, parts });
        }
    }

    /// Retires Built zones that have grown to (near) the size ceiling and
    /// still never skip: their metadata is a strict loss.
    ///
    /// epoch: the caller (`run_maintenance`) bumps once when any pass
    /// left trace events — every deactivation records one.
    fn deactivate_pass(&mut self) {
        let cfg = &self.config;
        let threshold_rows = cfg.max_zone_rows / 2;
        let query_seq = self.query_seq;
        let clock = self.probe_clock;
        let mut deactivated: Vec<RowRange> = Vec::new();
        for zone in &mut self.zones {
            if zone.is_built()
                && zone.len() >= threshold_rows
                && zone.stats.probes(clock) >= cfg.deactivate_after_probes
                && zone.stats.skip_rate(clock) <= cfg.deactivate_max_skip_rate
            {
                zone.state = ZoneState::Dead {
                    since_query: query_seq,
                };
                zone.deactivations = zone.deactivations.saturating_add(1);
                zone.stats = ZoneStats::default();
                zone.mask = None;
                // A dead zone is never probed; its tier is dead weight.
                zone.tier = None;
                zone.tier_stats = Default::default();
                zone.tier_drops = 0;
                deactivated.push(zone.range());
            }
        }
        for range in deactivated {
            self.trace
                .record(self.query_seq, AdaptEvent::Deactivated { range });
        }
        self.refresh_revival_clock();
    }

    /// Coalesces adjacent dead zones into single entries.
    ///
    /// epoch: the caller (`run_maintenance`) bumps when the zone count
    /// changed — which is exactly when this pass removed an entry.
    ///
    /// lifecycle: only `Dead` zones are folded together, and
    /// `deactivate_pass` already cleared `tier`/`mask` when it killed
    /// them.
    fn coalesce_dead(&mut self) {
        // One pass: each dead zone folds into the dead zone kept before it.
        self.zones.dedup_by(|next, prev| {
            let (ZoneState::Dead { since_query: a }, ZoneState::Dead { since_query: b }) =
                (prev.state, next.state)
            else {
                return false;
            };
            prev.end = next.end;
            prev.deactivations = prev.deactivations.max(next.deactivations);
            prev.state = ZoneState::Dead {
                since_query: a.max(b),
            };
            true
        });
    }

    /// Replaces every dead zone whose backoff has elapsed by query
    /// `at_seq` with fresh unbuilt zones at target granularity, giving a
    /// shifted workload the chance to re-earn metadata there, and stamps
    /// the `Revived` events with `at_seq`. The clock tick passes the
    /// just-incremented `query_seq`; `poll_revival` — the owner's prune,
    /// and publication — passes `query_seq + 1`, the query the revived
    /// zones are first walked by. Returns `true` when any zone was
    /// revived; a no-op before the earliest due query.
    pub(crate) fn revive_zones_due_at(&mut self, at_seq: u64) -> bool {
        if at_seq < self.next_revival_check {
            return false;
        }
        let Some(base) = self.config.revival_base_queries else {
            self.next_revival_check = u64::MAX;
            return false;
        };
        let due = |z: &AdaptiveZone<T>| match z.state {
            ZoneState::Dead { since_query } => {
                at_seq >= since_query.saturating_add(revival_backoff(base, z.deactivations))
            }
            _ => false,
        };
        if !self.zones.iter().any(due) {
            self.refresh_revival_clock();
            return false;
        }
        let target = self.config.target_zone_rows;
        let mut rebuilt: Vec<AdaptiveZone<T>> = Vec::with_capacity(self.zones.len());
        let mut revived: Vec<RowRange> = Vec::new();
        for zone in self.zones.drain(..) {
            if due(&zone) {
                revived.push(zone.range());
                let mut start = zone.start;
                while start < zone.end {
                    let end = (start + target).min(zone.end);
                    let mut child = AdaptiveZone::unbuilt(start, end);
                    child.deactivations = zone.deactivations;
                    rebuilt.push(child);
                    start = end;
                }
            } else {
                rebuilt.push(zone);
            }
        }
        self.zones = rebuilt;
        self.plane.rebuild(&self.zones);
        for range in revived {
            self.trace.record(at_seq, AdaptEvent::Revived { range });
        }
        self.refresh_revival_clock();
        self.mutation_epoch += 1;
        true
    }

    /// Recomputes the earliest query at which a revival check is needed.
    fn refresh_revival_clock(&mut self) {
        let Some(base) = self.config.revival_base_queries else {
            self.next_revival_check = u64::MAX;
            return;
        };
        self.next_revival_check = self
            .zones
            .iter()
            .filter_map(|z| match z.state {
                ZoneState::Dead { since_query } => {
                    Some(since_query.saturating_add(revival_backoff(base, z.deactivations)))
                }
                _ => None,
            })
            .min()
            .unwrap_or(u64::MAX);
    }
}

/// Exponential backoff: `base << (deactivations - 1)`, saturating.
fn revival_backoff(base: u64, deactivations: u8) -> u64 {
    // narrowing: shift is clamped to <= 20, far below u32::MAX.
    let shift = deactivations.saturating_sub(1).min(20) as u32;
    base.saturating_mul(1u64 << shift)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_per_deactivation() {
        assert_eq!(revival_backoff(256, 0), 256);
        assert_eq!(revival_backoff(256, 1), 256);
        assert_eq!(revival_backoff(256, 2), 512);
        assert_eq!(revival_backoff(256, 3), 1024);
        // Saturates rather than overflowing.
        assert!(revival_backoff(u64::MAX / 2, 10) >= u64::MAX / 2);
    }
}
