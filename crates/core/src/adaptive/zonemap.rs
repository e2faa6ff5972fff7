//! The adaptive zonemap: zone metadata as a workload-driven investment.
//!
//! Where a static zonemap pays its full metadata cost up front and at one
//! fixed granularity, the adaptive zonemap:
//!
//! * starts with **unbuilt** zones and materialises `(min, max)` as a
//!   by-product of scans the queries had to run anyway (lazy build);
//! * **splits** zones that keep being scanned for little yield, raising
//!   skipping resolution exactly where the workload lands — and only while
//!   each child saves more scanning than the probe it adds to every query
//!   ([`CostModel::split_benefit`]);
//! * **merges** adjacent zones whose metadata never causes skips, cutting
//!   the per-query probe bill;
//! * **deactivates** regions where even maximal zones never skip, restoring
//!   plain-scan performance on adversarial (random) data — and optionally
//!   **revives** them with exponential backoff so a shifted workload can
//!   re-earn metadata.
//!
//! Structural operations live in `maintenance.rs`; this file holds the
//! container, the prune/observe protocol, and the append path.
//!
//! Every prune entry point is one zone walk: [`walk`] visits zones — all
//! of them, or those an alive set still touches — and [`probe_zone`]
//! reads each one's bounds, tests overlap, asks the one classifier about
//! what the bounds cannot exclude and writes the decision into the
//! [`PruneOutcome`]. Callers differ only in the [`Walker`] they bring:
//! the [`Owner`] records what a zone whose bounds overlapped taught it,
//! the [`Reader`] records nothing. A zone the bounds exclude is handled
//! identically by both and written by neither: the owner's walk advances
//! the map's probe clock once, and every built zone's probe and skip
//! counts follow from it ([`ZoneStats`]).

use crate::adaptive::config::AdaptiveConfig;
use crate::adaptive::plane::{PrunePlane, MIN_RUN};
use crate::adaptive::reorg::ReorgStats;
use crate::adaptive::tier::TierStats;
use crate::adaptive::zone::{
    AdaptiveZone, TierTelemetry, ZoneLayout, ZoneMask, ZoneState, ZoneTier,
};
use crate::cost::CostModel;
use crate::index::SkippingIndex;
use crate::outcome::{MaskRequest, PruneOutcome, ReorgUnit, ScanObservation, UnitRequest};
use crate::predicate::RangePredicate;
use crate::stats::{IndexStats, PruneStats, ZoneStats};
use crate::trace::{AdaptEvent, AdaptTrace};
use ads_storage::{DataValue, RangeSet, RowRange};
use std::sync::Arc;

/// Events retained in the adaptation trace ring.
const TRACE_CAPACITY: usize = 4096;

/// A scan that builds at least one zone in this many (and at least a
/// run's worth) re-derives the plane's runs.
const REDERIVE_SHARE: usize = 16;

/// Qualifying fraction below which a scan through a zone counts as
/// "wasted" (the zone was read for almost nothing — its metadata was too
/// coarse to exclude it).
const SPLIT_LOW_YIELD: f64 = 0.02;

/// Children a split of one `rows`-row zone produces: back to target
/// granularity in one step for a zone merging or revival left oversized
/// (at most 8 at a time), never below the row floor, at least 2.
fn split_parts(rows: usize, config: &AdaptiveConfig) -> usize {
    (rows / config.target_zone_rows)
        .clamp(2, 8)
        .min(rows / config.min_zone_rows.max(1))
        .max(2)
}

/// An adaptive zonemap over one column of `len` rows.
///
/// Construction is O(#zones) and touches no data: all metadata is earned
/// later through the [`SkippingIndex::observe`] feedback channel.
#[derive(Debug, Clone)]
pub struct AdaptiveZonemap<T: DataValue> {
    pub(crate) zones: Vec<AdaptiveZone<T>>,
    /// Dense SoA mirror of the probe-critical zone fields; see
    /// [`PrunePlane`] for the mirroring invariant.
    pub(crate) plane: PrunePlane<T>,
    pub(crate) config: AdaptiveConfig,
    pub(crate) cost: CostModel,
    pub(crate) trace: AdaptTrace,
    pub(crate) stats: IndexStats,
    pub(crate) query_seq: u64,
    /// Unrestricted owner walks so far: each probed every built zone, so
    /// a zone's probe count is this clock since its history started plus
    /// its restricted visits ([`ZoneStats`]).
    pub(crate) probe_clock: u64,
    pub(crate) len: usize,
    /// Earliest query number at which some dead zone is due a revival
    /// check; `u64::MAX` when none are dead or revival is disabled.
    pub(crate) next_revival_check: u64,
    /// Counts changes to what a reader's walk reads (DESIGN.md "What a
    /// reader reads off a snapshot"): zone bounds built or moved, masks
    /// and tiers attached or dropped, structural maintenance that changed
    /// something, revivals, appends, reorganization promotions/demotions,
    /// payload cracks — and the one statistic among them, a zone's
    /// [`AdaptiveZone::wants_mask`] answer flipping as a scan moves its
    /// `wasted_scans` across the threshold. Publication layers compare
    /// epochs to skip republishing unchanged state. Everything else a
    /// query leaves behind — probe/skip tallies, scan counts, a
    /// re-observation of bounds the zone already holds — does NOT bump
    /// it: a snapshot stale in those decides exactly as a fresh one.
    pub(crate) mutation_epoch: u64,
    /// Lifetime reorganization counters (promotions, demotions, bytes
    /// moved, time spent); see [`ReorgStats`].
    pub(crate) reorg_lifetime: ReorgStats,
    /// `query_seq` of the last reorganization pass (`u64::MAX` before the
    /// first): a second pass at the same query clock would see the hot
    /// bar its own promotions lowered, so it does nothing.
    pub(crate) reorg_at: u64,
    /// Lifetime metadata-tier counters (builds, drops, skip benefit);
    /// see [`TierStats`].
    pub(crate) tier_lifetime: TierStats,
}

impl<T: DataValue> AdaptiveZonemap<T> {
    /// Creates an adaptive zonemap for a column of `len` rows.
    ///
    /// # Panics
    /// Panics if `config` is inconsistent (see [`AdaptiveConfig::validate`]).
    pub fn new(len: usize, config: AdaptiveConfig) -> Self {
        Self::with_cost(len, config, CostModel::default())
    }

    /// As [`AdaptiveZonemap::new`] with an explicit cost model.
    ///
    /// epoch: constructor — starts at epoch 0 and is unreachable by
    /// readers until first published.
    pub fn with_cost(len: usize, config: AdaptiveConfig, cost: CostModel) -> Self {
        config.validate();
        let mut zones = Vec::with_capacity(len.div_ceil(config.target_zone_rows.max(1)));
        let mut start = 0;
        while start < len {
            let end = (start + config.target_zone_rows).min(len);
            zones.push(AdaptiveZone::unbuilt(start, end));
            start = end;
        }
        let trace = AdaptTrace::new(TRACE_CAPACITY);
        let plane = PrunePlane::from_zones(&zones);
        let zm = AdaptiveZonemap {
            zones,
            plane,
            config,
            cost,
            trace,
            stats: IndexStats::default(),
            query_seq: 0,
            probe_clock: 0,
            len,
            next_revival_check: u64::MAX,
            mutation_epoch: 0,
            reorg_lifetime: ReorgStats::default(),
            reorg_at: u64::MAX,
            tier_lifetime: TierStats::default(),
        };
        zm.assert_invariants();
        zm
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when covering zero rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current number of zone entries (probe cost per query is
    /// proportional to this).
    pub fn num_zones(&self) -> usize {
        self.zones.len()
    }

    /// The adaptation event trace.
    pub fn trace(&self) -> &AdaptTrace {
        &self.trace
    }

    /// Lifetime pruning statistics.
    pub fn index_stats(&self) -> IndexStats {
        self.stats
    }

    /// The active configuration.
    pub fn config(&self) -> &AdaptiveConfig {
        &self.config
    }

    /// The reader-visible mutation epoch: increments whenever zone
    /// metadata changes in a way a reader would decide differently from
    /// (build, tighten, mask, tier, split, merge, deactivate, coalesce,
    /// revive, promote, demote, crack, append, or a scan that makes a
    /// zone start or stop asking for a value mask). Two equal epochs mean
    /// a previously published clone of this zonemap still prunes
    /// identically — [`AdaptiveZonemap::prune_shared`] returns the same
    /// units, requests, full-match spans and skip count for every
    /// predicate (property-tested) — so republication can be skipped.
    pub fn mutation_epoch(&self) -> u64 {
        self.mutation_epoch
    }

    /// A structural snapshot: `(range, state label, skip rate)` per zone,
    /// for dashboards and the demo-style trace example.
    pub fn zone_snapshot(&self) -> Vec<(RowRange, &'static str, f64)> {
        self.zones
            .iter()
            .map(|z| {
                let label = match z.state {
                    // The layout lane outranks the exactness distinction:
                    // a reorganized zone is always Built with exact bounds.
                    ZoneState::Built { .. } if z.is_reorganized() => "reorg",
                    // A tier likewise outranks it — the tier is the
                    // zone's defining metadata investment.
                    ZoneState::Built { .. } if z.has_tier() => "built+bloom",
                    ZoneState::Unbuilt => "unbuilt",
                    ZoneState::Built { exact: true, .. } => "built",
                    ZoneState::Built { exact: false, .. } => "built~",
                    ZoneState::Dead { .. } => "dead",
                };
                (z.range(), label, z.stats.skip_rate(self.probe_clock))
            })
            .collect()
    }

    /// Zones by state: `(unbuilt, built, dead)`.
    pub fn state_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for z in &self.zones {
            match z.state {
                ZoneState::Unbuilt => counts.0 += 1,
                ZoneState::Built { .. } => counts.1 += 1,
                ZoneState::Dead { .. } => counts.2 += 1,
            }
        }
        counts
    }

    /// The smallest zone a split may still divide: two children at the row
    /// floor, each big enough to pay for its own probe. Below it a zone
    /// that keeps wasting scans asks for a value mask instead
    /// ([`AdaptiveZone::wants_mask`]).
    fn min_split_rows(&self) -> usize {
        (2 * self.config.min_zone_rows).max(2 * self.cost.min_profitable_zone_rows())
    }

    /// Verifies the zone partition invariant: contiguous, non-empty zones
    /// covering exactly `[0, len)`. Cheap enough to run after every
    /// structural change in debug builds; tests call it directly.
    pub fn assert_invariants(&self) {
        if self.len == 0 {
            assert!(self.zones.is_empty(), "zones over empty column");
            return;
        }
        assert_eq!(self.zones.first().map(|z| z.start), Some(0), "gap at front");
        assert_eq!(
            self.zones.last().map(|z| z.end),
            Some(self.len),
            "gap at back"
        );
        for w in self.zones.windows(2) {
            assert_eq!(w[0].end, w[1].start, "zones not contiguous");
        }
        assert!(
            self.zones.iter().all(|z| !z.is_empty()),
            "empty zone present"
        );
        assert!(
            self.plane.mirrors(&self.zones),
            "prune plane out of sync with zones"
        );
    }
}

impl<T: DataValue> SkippingIndex<T> for AdaptiveZonemap<T> {
    fn name(&self) -> String {
        let mut flags = String::new();
        if self.config.enable_split {
            flags.push('s');
        }
        if self.config.enable_merge {
            flags.push('m');
        }
        if self.config.enable_deactivate {
            flags.push('d');
        }
        if self.config.enable_mask {
            flags.push('v'); // value masks
        }
        if self.config.enable_reorg {
            flags.push('r'); // zone-local reorganization
        }
        if self.config.enable_tiers {
            flags.push('t'); // per-zone metadata tiers
        }
        if flags.is_empty() {
            flags.push_str("lazy");
        }
        format!(
            "adaptive-zonemap({}, {})",
            self.config.target_zone_rows, flags
        )
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn prune(&mut self, pred: &RangePredicate<T>) -> PruneOutcome {
        self.prune_owned::<true>(pred, None)
    }

    // epoch: every write a reader's walk would read differently — a mask
    // attached, bounds built or moved, a split queued, the zone's
    // `wants_mask` answer flipped by the scan just recorded — sets
    // `mutated` at its site and is covered by one bump at the end. What
    // remains is stat drift no reader decides from, so a scan that
    // re-observes what the zone already knows publishes nothing.
    fn observe(&mut self, obs: &ScanObservation<T>) {
        let mut split_queue: Vec<usize> = Vec::new();
        let mut mutated = false;
        let mut newly_built = 0;
        let min_split_rows = self.min_split_rows();

        for ro in &obs.ranges {
            self.stats.rows_scanned += ro.range.len() as u64;
            // An observation feeds adaptation only when it covers exactly
            // one zone: then its (min, max) is exact zone metadata and its
            // qualifying count an exact sample of the zone's yield.
            // (Composite ranges arise on the multi-column path, where
            // intersection breaks zone alignment; they are ignored here.)
            let idx = match self
                .zones
                .binary_search_by(|z| z.start.cmp(&ro.range.start))
            {
                Ok(i) if self.zones[i].end == ro.range.end => i,
                _ => continue,
            };
            let zone = &mut self.zones[idx];
            let frac = if zone.is_empty() {
                0.0
            } else {
                ro.qualifying as f64 / zone.len() as f64
            };
            let wanted_mask = zone.wants_mask(&self.config, min_split_rows);
            let was_built = match zone.state {
                ZoneState::Dead { .. } => continue,
                ZoneState::Unbuilt => false,
                ZoneState::Built { min, max, .. } => {
                    if let (Some(bits), None) = (ro.mask, zone.mask) {
                        // The layout is the zone's bounds as they were
                        // at prune time (the request we issued).
                        zone.mask = Some(ZoneMask {
                            layout: MaskRequest {
                                lo_f: min.to_f64(),
                                hi_f: max.to_f64(),
                            },
                            bits,
                        });
                        self.trace
                            .record(self.query_seq, AdaptEvent::MaskBuilt { range: ro.range });
                        mutated = true;
                    }
                    true
                }
            };
            // Build, or tighten to, the exact bounds just measured (a mask
            // keeps its own layout, which still covers all rows). A scan
            // that was not asked for bounds — the zone was exact or dead
            // in the snapshot it pruned — leaves the state alone: in
            // particular a zone revived to `Unbuilt` since then stays
            // unbuilt, never built from a fold identity.
            if let Some((min, max)) = ro.bounds {
                // Two stale readers may both have been asked for the same
                // bounds; the second teaches nothing and publishes nothing.
                let known = matches!(
                    zone.state,
                    ZoneState::Built { min: lo, max: hi, exact: true }
                        if lo.total_key() == min.total_key() && hi.total_key() == max.total_key()
                );
                if !known {
                    zone.state = ZoneState::Built {
                        min,
                        max,
                        exact: true,
                    };
                    self.plane.set_built(idx, min, max);
                    mutated = true;
                }
                if !was_built {
                    newly_built += 1;
                    // Every walk from now on probes the zone.
                    zone.stats.since = self.probe_clock;
                    self.trace
                        .record(self.query_seq, AdaptEvent::Built { range: ro.range });
                }
            }
            zone.stats.record_scan(frac, SPLIT_LOW_YIELD);
            if !was_built {
                continue;
            }
            // The scan moved `wasted_scans` across the mask threshold, in
            // either direction (a productive scan resets the streak): the
            // next reader of this zone would ask its scan for something
            // else than the last snapshot's reader did.
            mutated |= zone.wants_mask(&self.config, min_split_rows) != wanted_mask;
            // The wasted-scan threshold doubles per split generation: each
            // refinement level must earn the next with proportionally more
            // evidence, so data without positional locality stops
            // splitting after a couple of speculative levels instead of
            // racing to the floor. (There every scan of every zone is
            // wasted, the waste rate below reads 1.0, and the cost gate
            // passes — only this evidence of no skips gained says stop.)
            let waste_needed = self
                .config
                .split_after_wasted
                .saturating_mul(1 << zone.split_generation.min(16));
            if self.config.enable_split
                && !zone.no_resplit
                // A reorganized zone already resolves positionally inside
                // itself; splitting would discard the payload for a weaker
                // form of refinement.
                && !zone.is_reorganized()
                && zone.stats.wasted_scans >= waste_needed
                && zone.len() >= 2 * self.config.min_zone_rows
                // The split must pay for the probes it adds: each child
                // costs every query one probe, and saves its rows only
                // for the share of queries that read this zone for
                // nothing. A zone one point lookup in a thousand lands on
                // stays whole however many times it was "wasted".
                && self.cost.split_benefit(
                    zone.len(),
                    split_parts(zone.len(), &self.config),
                    zone.stats.waste_rate(self.probe_clock),
                ) >= 0.0
            {
                split_queue.push(idx);
                mutated = true;
            }
        }

        if !split_queue.is_empty() {
            // Ranges arrive one per scan unit, in row order; a caller that
            // broke that must not get a zone split twice or out of order.
            split_queue.sort_unstable();
            split_queue.dedup();
            // Rebuilds the plane, and so derives its runs.
            self.split_zones(&split_queue);
        } else if newly_built >= MIN_RUN && newly_built * REDERIVE_SHARE >= self.zones.len() {
            // A scan that built a good share of the zones at once — a cold
            // map's first, a compacted lane's rebuild — paid for more than
            // a pass over the bounds: runs form now, not at the next
            // structural change.
            self.plane.derive_runs();
        }
        if mutated {
            self.mutation_epoch += 1;
        }

        if self.query_seq.is_multiple_of(self.config.maintenance_every) {
            self.run_maintenance();
        }

        #[cfg(debug_assertions)]
        self.assert_invariants();
    }

    fn on_append(&mut self, appended: &[T], base: &[T]) {
        debug_assert_eq!(self.len + appended.len(), base.len());
        let new_len = base.len();
        let target = self.config.target_zone_rows;

        let mut start = self.len;
        // Extend a trailing unbuilt zone up to target size before opening
        // new zones, so trickle appends don't fragment the tail.
        if let Some(last) = self.zones.last_mut() {
            if matches!(last.state, ZoneState::Unbuilt) && last.len() < target {
                last.end = (last.start + target).min(new_len);
                start = last.end;
            }
        }
        while start < new_len {
            let end = (start + target).min(new_len);
            self.zones.push(AdaptiveZone::unbuilt(start, end));
            self.plane.push_unbuilt();
            start = end;
        }
        self.len = new_len;
        self.mutation_epoch += 1;

        #[cfg(debug_assertions)]
        self.assert_invariants();
    }

    fn metadata_bytes(&self) -> usize {
        self.zones.capacity() * std::mem::size_of::<AdaptiveZone<T>>()
            + self.plane.heap_bytes()
            + self
                .zones
                .iter()
                .filter_map(|z| z.tier.as_ref().map(ZoneTier::metadata_bytes))
                .sum::<usize>()
    }

    fn adapt_events(&self) -> u64 {
        self.trace.total_events()
    }

    fn prune_stats(&self) -> Option<PruneStats> {
        // Rows-weighted per-zone skip-rate estimate, optimistic for zones
        // with no probe history (unbuilt, or built but never probed): a
        // cold structure must look worth probing or it never gets the
        // probes that would train the estimate. Dead zones estimate 0 —
        // the map itself already concluded they cannot skip.
        let mut weighted = 0.0;
        for z in &self.zones {
            let rate = match z.state {
                ZoneState::Dead { .. } => 0.0,
                ZoneState::Unbuilt => 1.0,
                ZoneState::Built { .. } if z.stats.probes(self.probe_clock) == 0 => 1.0,
                ZoneState::Built { .. } => z.stats.skip_rate(self.probe_clock),
            };
            weighted += rate * z.len() as f64;
        }
        let est = if self.len == 0 {
            0.0
        } else {
            weighted / self.len as f64
        };
        // A tiered zone costs an extra metadata read per probe (the
        // sketch consultation), so it weighs as two probe entries in the
        // planner's probe-cost model.
        let tiered = self.zones.iter().filter(|z| z.has_tier()).count();
        Some(PruneStats {
            probe_entries: self.zones.len() + tiered,
            est_skip_fraction: est,
            queries_observed: self.stats.queries,
        })
    }

    fn prune_within(&mut self, pred: &RangePredicate<T>, alive: &RangeSet) -> PruneOutcome {
        self.prune_owned::<true>(pred, Some(alive))
    }

    fn maintain(&mut self, base: &[T]) {
        // Reorganization and tier maintenance ride the same amortization
        // clock as structural maintenance; when the features are off
        // this is two branches and out.
        if self.query_seq.is_multiple_of(self.config.maintenance_every) {
            if self.config.enable_reorg {
                let _ = self.apply_reorg(base);
            }
            if self.config.enable_tiers {
                let _ = self.apply_tiers(base);
            }
        }
    }
}

/// What pruning decided for a built zone whose `(min, max)` the predicate
/// overlaps.
enum OverlapAction {
    /// The predicate contains the zone's value range: every row qualifies.
    FullMatch,
    /// The secondary value mask excludes the zone despite overlapping
    /// bounds — the outlier case.
    MaskSkip,
    /// The zone's bloom tier excludes it despite overlapping bounds: the
    /// point predicate's value is in no row of the zone.
    TierSkip,
    /// The zone is reorganized: its sorted/cracked payload resolves the
    /// predicate positionally.
    Positional,
    /// The zone must be scanned, computing what the request names beside
    /// the answer.
    Scan(UnitRequest),
}

/// The probe decision for a built zone whose `(min, max)` the predicate
/// overlaps: full-match detection, positional resolution, value-mask and
/// tier secondary pruning, and the mask-request choice. Pure — reads the
/// zone, mutates nothing. [`probe_zone`] is its only caller, so every
/// prune entry point decides identically by construction.
fn classify_overlapping_zone<T: DataValue>(
    zone: &AdaptiveZone<T>,
    pred: &RangePredicate<T>,
    min: T,
    max: T,
    config: &AdaptiveConfig,
    min_split_rows: usize,
) -> OverlapAction {
    // Full matches deliberately come before the positional path: a plain
    // base-coordinate `full_match` span folds in the same order as the
    // flat layout, which keeps aggregate results bit-identical across
    // layouts.
    if pred.contains_zone(min, max) {
        return OverlapAction::FullMatch;
    }
    if zone.is_reorganized() {
        return OverlapAction::Positional;
    }
    if let Some(mask) = zone.mask {
        let bits = mask
            .layout
            .predicate_bits(pred.lo.to_f64(), pred.hi.to_f64());
        if mask.bits & bits == 0 {
            return OverlapAction::MaskSkip;
        }
    }
    // Metadata tier, consulted only when the cheap checks above could
    // not resolve the zone. The sketch is sound-but-conservative: it may
    // over-admit (scan a zone for nothing) but never exclude a row that
    // qualifies — deleted rows in particular are still present in the
    // base column the tier was built over, so delete churn can only make
    // a tier admit *more* than necessary. A value-set sketch answers only
    // equality probes; range predicates (and admitted points) scan.
    if let Some(ZoneTier::Bloom(sketch)) = &zone.tier {
        if pred.is_point() && !sketch.may_contain(pred.lo) {
            return OverlapAction::TierSkip;
        }
    }
    // Ask the scan to collect a mask for zones that keep wasting scans
    // but can refine no further positionally.
    let bins = zone
        .wants_mask(config, min_split_rows)
        .then_some(MaskRequest {
            lo_f: min.to_f64(),
            hi_f: max.to_f64(),
        });
    OverlapAction::Scan(scan_request(zone, bins))
}

/// What a scan of the whole of `zone` can still teach its metadata: the
/// exact bounds while they are missing or conservative, plus `bins` when
/// the classifier wants a value mask. A `Dead` zone discards whatever it
/// is told and an exact zone would be told what it knows, so neither
/// asks — which is what lets a scan nothing can be skipped in run at the
/// speed of a store without metadata.
fn scan_request<T: DataValue>(zone: &AdaptiveZone<T>, bins: Option<MaskRequest>) -> UnitRequest {
    UnitRequest {
        bounds: matches!(
            zone.state,
            ZoneState::Unbuilt | ZoneState::Built { exact: false, .. }
        ),
        bins,
    }
}

/// The one thing that differs between the callers of [`walk`]: what a
/// probe whose bounds overlap leaves behind in the map. The defaults
/// leave nothing; a probe the bounds exclude never reaches a walker.
trait Walker<T: DataValue> {
    /// The map being walked.
    fn map(&self) -> &AdaptiveZonemap<T>;

    /// `(min, max)` of zone `idx`, `None` unless the zone is built.
    fn bounds(&self, idx: usize) -> Option<(T, T)>;

    /// Zone `idx` overlaps the predicate and the classifier chose `action`.
    fn overlapped(&mut self, _idx: usize, _action: &OverlapAction) {}

    /// The ordered runs an unrestricted walk may binary-search: the
    /// plane's, for a walker that reads its bounds off the plane.
    fn runs(&self) -> &[(usize, usize)] {
        &[]
    }

    /// Reorganized zone `idx` is about to resolve `pred` against its
    /// payload as it stands.
    fn before_lookup(&mut self, _idx: usize, _pred: &RangePredicate<T>) {}
}

/// The concurrent reader ([`AdaptiveZonemap::prune_shared`]): decides from
/// shared state and leaves no trace. The owner catches up when the query's
/// feedback reaches [`AdaptiveZonemap::apply_feedback`].
struct Reader<'a, T: DataValue>(&'a AdaptiveZonemap<T>);

impl<T: DataValue> Walker<T> for Reader<'_, T> {
    fn map(&self) -> &AdaptiveZonemap<T> {
        self.0
    }

    fn bounds(&self, idx: usize) -> Option<(T, T)> {
        self.0.plane.bounds(idx)
    }

    fn runs(&self) -> &[(usize, usize)] {
        &self.0.plane.runs
    }
}

/// The map's owner: a probe whose bounds overlap leaves the stat trail
/// adaptation feeds on. With `PLANE` off, bounds are read from the full
/// zone records instead of the plane — the array-of-structs reference
/// ([`AdaptiveZonemap::prune_via_zones`]).
struct Owner<'a, T: DataValue, const PLANE: bool>(&'a mut AdaptiveZonemap<T>);

impl<T: DataValue, const PLANE: bool> Walker<T> for Owner<'_, T, PLANE> {
    fn map(&self) -> &AdaptiveZonemap<T> {
        self.0
    }

    fn bounds(&self, idx: usize) -> Option<(T, T)> {
        if PLANE {
            return self.0.plane.bounds(idx);
        }
        match self.0.zones[idx].state {
            ZoneState::Built { min, max, .. } => Some((min, max)),
            ZoneState::Unbuilt | ZoneState::Dead { .. } => None,
        }
    }

    fn runs(&self) -> &[(usize, usize)] {
        if PLANE {
            &self.0.plane.runs
        } else {
            &[]
        }
    }

    // epoch: overlap counts, the idle clock and the tier consultation
    // window are all stat drift; nothing a reader decides from changes
    // here.
    fn overlapped(&mut self, idx: usize, action: &OverlapAction) {
        let clock = self.0.probe_clock;
        let zone = &mut self.0.zones[idx];
        if let ZoneLayout::Reorganized { used_at, .. } = &mut zone.layout {
            *used_at = zone.stats.probe_count(clock);
        }
        // The tier was consulted unless a cheaper check resolved the zone
        // first (full-match containment or a mask skip).
        if zone.has_tier() && matches!(action, OverlapAction::TierSkip | OverlapAction::Scan(_)) {
            zone.tier_stats.tier_probes = zone.tier_stats.tier_probes.saturating_add(1);
        }
        let tier_life = &mut self.0.tier_lifetime;
        match action {
            OverlapAction::FullMatch | OverlapAction::Positional | OverlapAction::Scan(_) => {
                zone.stats.record_overlap();
            }
            OverlapAction::MaskSkip => {}
            OverlapAction::TierSkip => {
                zone.tier_stats.tier_hits = zone.tier_stats.tier_hits.saturating_add(1);
                tier_life.tier_skips += 1;
                tier_life.tier_rows_excluded += zone.len() as u64;
            }
        }
    }

    // epoch: the one reader-visible write of a prune — a crack that gave
    // the payload a new piece boundary, rows relocated or not (a bound at
    // a piece's edge moves none, and still turns a reader's edge scan
    // into a resolved span) — bumps, so publication layers pick it up.
    fn before_lookup(&mut self, idx: usize, pred: &RangePredicate<T>) {
        let map = &mut *self.0;
        let ZoneLayout::Reorganized { payload, .. } = &mut map.zones[idx].layout else {
            return;
        };
        // COW crack: if a published snapshot still shares this payload,
        // make_mut clones before partitioning — the snapshot's copy stays
        // immutable until the next republication swaps it out.
        let payload = Arc::make_mut(payload);
        let cracks = payload.cracks_done();
        map.reorg_lifetime.bytes_moved += payload.crack(pred.lo, pred.hi);
        if payload.cracks_done() != cracks {
            map.mutation_epoch += 1;
        }
    }
}

/// The zone walk every prune entry point runs: probes each zone of the
/// map in order — or, given `alive`, only the zones it touches, each
/// once — and assembles the outcome. Unrestricted over a map with ordered
/// runs, [`walk_runs`] takes it up to the end of the last run first.
fn walk<T: DataValue>(
    w: &mut impl Walker<T>,
    pred: &RangePredicate<T>,
    alive: Option<&RangeSet>,
) -> PruneOutcome {
    let mut out = PruneOutcome::for_prune();
    let map = w.map();
    let min_split_rows = map.min_split_rows();
    let everything = [RowRange::new(0, map.len)];
    let mut next = 0;
    if alive.is_none() && !w.runs().is_empty() {
        next = walk_runs(w, pred, min_split_rows, &mut out);
    }
    // The plain pass: every zone from `next` on, or those `alive` touches.
    for span in alive.map_or(&everything[..], RangeSet::ranges) {
        let zones = touched(&w.map().zones, *span, next);
        next = zones.end;
        for idx in zones {
            probe_zone(w, idx, pred, min_split_rows, &mut out);
        }
    }
    out
}

/// Walks the zones up to the end of the walker's last ordered run and
/// returns that end. Each run `[a, b)` is crossed with two binary
/// searches: the zones the predicate overlaps are the slice
/// `[first, last)` — below it every `max < lo`, above it every
/// `min > hi` — and only those are probed. The rest are bounds skips,
/// counted as the plain pass counts them, and like them write nothing.
/// Zones between runs are probed one by one.
///
/// Kept out of line, so that [`walk`]'s plain pass compiles as it does
/// for a map without runs.
#[inline(never)]
fn walk_runs<T: DataValue>(
    w: &mut impl Walker<T>,
    pred: &RangePredicate<T>,
    min_split_rows: usize,
    out: &mut PruneOutcome,
) -> usize {
    let mut next = 0;
    for r in 0..w.runs().len() {
        let (a, b) = w.runs()[r];
        for idx in next..a {
            probe_zone(w, idx, pred, min_split_rows, out);
        }
        let plane = &w.map().plane;
        let first = a + plane.maxs[a..b].partition_point(|max| max.lt_total(&pred.lo));
        let last = first + plane.mins[first..b].partition_point(|min| min.le_total(&pred.hi));
        let excluded = (b - a) - (last - first);
        out.zones_probed += excluded;
        out.zones_skipped += excluded;
        #[cfg(feature = "audit")]
        for idx in a..first {
            out.record_decision(w.map().zones[idx].range(), "skip:bounds");
        }
        for idx in first..last {
            probe_zone(w, idx, pred, min_split_rows, out);
        }
        #[cfg(feature = "audit")]
        for idx in last..b {
            out.record_decision(w.map().zones[idx].range(), "skip:bounds");
        }
        next = b;
    }
    next
}

/// The zones `span` touches, from `next` on. Zones partition `[0, len)`,
/// so they are contiguous; starting no earlier than where the previous
/// span's zones ended visits a zone two spans touch only once.
fn touched<T: DataValue>(
    zones: &[AdaptiveZone<T>],
    span: RowRange,
    next: usize,
) -> std::ops::Range<usize> {
    let first = zones.partition_point(|z| z.end <= span.start).max(next);
    first..zones.partition_point(|z| z.start < span.end).max(first)
}

/// Probes one zone: reads its bounds, tests overlap, classifies what the
/// bounds cannot exclude, and writes the decision into `out`. Inlined at
/// each of its three loops: left to the inliner, a function with more
/// than one caller became a call per zone, which slowed the plain pass by
/// about half.
#[inline(always)]
fn probe_zone<T: DataValue>(
    w: &mut impl Walker<T>,
    idx: usize,
    pred: &RangePredicate<T>,
    min_split_rows: usize,
    out: &mut PruneOutcome,
) {
    out.zones_probed += 1;
    let Some((min, max)) = w.bounds(idx) else {
        // Unbuilt and Dead zones scan identically; only the former can
        // learn from it.
        let zone = &w.map().zones[idx];
        out.push_unit(zone.range(), scan_request(zone, None));
        out.record_decision(zone.range(), "scan:unbuilt");
        return;
    };
    if !pred.overlaps(min, max) {
        out.zones_skipped += 1;
        // Gated here, not only inside `record_decision`: naming the zone
        // reads its record, and this path must stay on the plane.
        #[cfg(feature = "audit")]
        out.record_decision(w.map().zones[idx].range(), "skip:bounds");
        return;
    }
    let map = w.map();
    let action =
        classify_overlapping_zone(&map.zones[idx], pred, min, max, &map.config, min_split_rows);
    w.overlapped(idx, &action);
    let zone = &w.map().zones[idx];
    let range = zone.range();
    let label = match action {
        OverlapAction::FullMatch => {
            out.full_match.push_span(range.start, range.end);
            "full:bounds"
        }
        OverlapAction::MaskSkip => {
            out.zones_skipped += 1;
            "skip:mask"
        }
        // Sound under an alive restriction too: no *base* row of the
        // zone qualifies, so no alive subset does either.
        OverlapAction::TierSkip => {
            out.zones_skipped += 1;
            "skip:bloom"
        }
        OverlapAction::Positional => {
            w.before_lookup(idx, pred);
            let zone = &w.map().zones[idx];
            // invariant: only a zone that carries a payload classifies
            // as positional, and a crack keeps it.
            let payload = zone.reorg_payload().expect("positional, no payload");
            // Bounds the payload's pieces do not cover surface as edge
            // pieces the executor predicate-tests.
            let spans = payload.lookup(pred.lo, pred.hi);
            let as_range = |r: &std::ops::Range<usize>| RowRange::new(r.start, r.end);
            out.reorg_units.push(ReorgUnit {
                zone: range,
                full: as_range(&spans.full),
                edges: [
                    spans.edges[0].as_ref().map(as_range),
                    spans.edges[1].as_ref().map(as_range),
                ],
                payload: Arc::clone(payload) as Arc<dyn std::any::Any + Send + Sync>,
            });
            "positional"
        }
        OverlapAction::Scan(request) => {
            out.push_unit(range, request);
            "scan"
        }
    };
    out.record_decision(range, label);
}

impl<T: DataValue> AdaptiveZonemap<T> {
    /// The owner's prune: advance the query clock, revive dead zones that
    /// are due, count the probes, walk — every zone, or those `alive`
    /// touches, restricting the outcome to it — and fold the tallies into
    /// the lifetime statistics.
    ///
    /// epoch: the probe clock and visit counts are stat drift.
    fn prune_owned<const PLANE: bool>(
        &mut self,
        pred: &RangePredicate<T>,
        alive: Option<&RangeSet>,
    ) -> PruneOutcome {
        self.query_seq += 1;
        self.stats.queries += 1;
        if self.query_seq >= self.next_revival_check {
            self.revive_due_zones();
        }
        // Counted before the walk, so a probe that overlaps a
        // reorganized zone stamps its idle clock at this probe.
        match alive {
            None => self.probe_clock += 1,
            Some(alive) => {
                let mut next = 0;
                for span in alive.ranges() {
                    let zones = touched(&self.zones, *span, next);
                    next = zones.end;
                    for zone in &mut self.zones[zones] {
                        if zone.is_built() {
                            zone.stats.record_visit();
                        }
                    }
                }
            }
        }
        let walked = walk(&mut Owner::<T, PLANE>(self), pred, alive);
        let out = match alive {
            Some(alive) => walked.restrict_to(alive),
            None => walked,
        };
        self.stats.total_probes += out.zones_probed as u64;
        self.stats.total_skips += out.zones_skipped as u64;
        self.stats.rows_full_match += out.rows_full_match() as u64;
        out
    }

    /// Read-only prune: converts `pred` into candidate ranges against the
    /// current metadata **without mutating anything** — no query-clock
    /// tick, no stat updates, no revival check, no payload crack.
    ///
    /// This is the concurrent-reader entry point: N threads may call it on
    /// a shared (or snapshot-cloned) zonemap simultaneously. Given the same
    /// zone state, the returned outcome is identical to what the mutable
    /// [`SkippingIndex::prune`] would produce (both are the same walk;
    /// property-tested). The bookkeeping the mutable path performs inline
    /// is applied later, centrally, when the executed query's feedback
    /// reaches [`AdaptiveZonemap::apply_feedback`].
    pub fn prune_shared(&self, pred: &RangePredicate<T>) -> PruneOutcome {
        walk(&mut Reader(self), pred, None)
    }

    /// A clone for publication to readers: everything
    /// [`AdaptiveZonemap::prune_shared`] and the counting accessors read,
    /// without the retained adaptation events (up to 4,096 of them,
    /// comparable in bytes to the zone metadata itself) that only the
    /// owner's [`AdaptiveZonemap::trace`] is ever asked for. Event totals
    /// carry over.
    pub fn clone_for_readers(&self) -> Self {
        AdaptiveZonemap {
            zones: self.zones.clone(),
            plane: self.plane.clone(),
            config: self.config.clone(),
            cost: self.cost,
            trace: self.trace.without_events(),
            stats: self.stats,
            query_seq: self.query_seq,
            probe_clock: self.probe_clock,
            len: self.len,
            next_revival_check: self.next_revival_check,
            mutation_epoch: self.mutation_epoch,
            reorg_lifetime: self.reorg_lifetime,
            reorg_at: self.reorg_at,
            tier_lifetime: self.tier_lifetime,
        }
    }

    /// The array-of-structs reference prune: the same walk as
    /// [`SkippingIndex::prune`], with state and bounds read from each full
    /// zone record instead of the dense plane.
    ///
    /// Decision-identical to [`SkippingIndex::prune`] (property-tested),
    /// including every stat and trace side effect — it is a drop-in
    /// reference, kept as the baseline the kernel benchmark
    /// (`kernels_json`) gates the SoA plane against and as the oracle for
    /// the plane's equivalence tests.
    pub fn prune_via_zones(&mut self, pred: &RangePredicate<T>) -> PruneOutcome {
        self.prune_owned::<false>(pred, None)
    }

    /// Applies one deferred query's worth of adaptation, exactly as if the
    /// query had executed inline against this zonemap.
    ///
    /// The inline path is `prune(pred)` → scan → `observe(obs)`; a reader
    /// that executed against a snapshot via [`AdaptiveZonemap::prune_shared`]
    /// skipped all of prune's bookkeeping, so this replays the mutable
    /// prune here (a metadata-only walk — no data is touched) for its side
    /// effects (query and probe clocks, overlap counts, revival check) and then
    /// feeds the reader's scan observations through [`observe`].
    ///
    /// Observations whose ranges no longer align with a current zone
    /// (because the reader's snapshot was stale across a structural change)
    /// are ignored by `observe`'s existing alignment check — staleness can
    /// only slow adaptation, never corrupt it.
    ///
    /// [`observe`]: SkippingIndex::observe
    pub fn apply_feedback(&mut self, obs: &ScanObservation<T>) {
        let _ = SkippingIndex::prune(self, &obs.predicate);
        self.observe(obs);
    }

    /// Runs the revival check the *next* query's prune would run, so a
    /// snapshot published now already reflects it.
    ///
    /// The mutable prune revives due zones at the top of every query; a
    /// snapshot reader cannot (its prune is read-only), so the publisher
    /// calls this before cloning state out. Returns `true` when any zone
    /// was revived. Idempotent: re-running prune afterwards (as
    /// [`AdaptiveZonemap::apply_feedback`] does) finds nothing newly due.
    pub fn poll_revival(&mut self) -> bool {
        if self.next_revival_check == u64::MAX || self.query_seq + 1 < self.next_revival_check {
            return false;
        }
        self.revive_zones_due_at(self.query_seq + 1)
    }

    /// Splits each zone of `queue` (non-empty, ascending indices of zones
    /// of at least twice the row floor) into parts,
    /// inheriting the parent's bounds as conservative (non-exact) metadata
    /// so skipping keeps working until the next scan tightens each part.
    /// One pass: the zone vector grows in place, zones move back to front
    /// to their final slots, and the plane is rebuilt once.
    ///
    /// epoch: the only caller (`observe`) sets `mutated` for every queued
    /// split and bumps once at its end.
    ///
    /// lifecycle: children are constructed with `mask: None`,
    /// `layout: Flat`, `tier: None` below — the parent's metadata
    /// covered a different row range and must not survive the split.
    fn split_zones(&mut self, queue: &[usize]) {
        debug_assert!(
            queue.windows(2).all(|w| w[0] < w[1]),
            "split queue out of order"
        );
        let part_rows =
            |zone: &AdaptiveZone<T>| zone.len().div_ceil(split_parts(zone.len(), &self.config));
        let added: usize = queue
            .iter()
            .map(|&idx| self.zones[idx].len().div_ceil(part_rows(&self.zones[idx])) - 1)
            .sum();
        let old_len = self.zones.len();
        // Grown by `realloc`: a second vector beside the first would
        // hold both at once.
        self.zones.reserve_exact(added);
        self.zones
            .resize_with(old_len + added, || AdaptiveZone::unbuilt(0, 0));
        let mut to = old_len + added;
        let mut queued = queue.iter().rev().peekable();
        for idx in (0..old_len).rev() {
            if queued.next_if_eq(&&idx).is_none() {
                to -= 1;
                self.zones.swap(idx, to);
                continue;
            }
            let zone = std::mem::replace(&mut self.zones[idx], AdaptiveZone::unbuilt(0, 0));
            let inherited = match zone.state {
                ZoneState::Built { min, max, .. } => ZoneState::Built {
                    min,
                    max,
                    exact: false,
                },
                other => other,
            };
            let part_rows = part_rows(&zone);
            let parts = zone.len().div_ceil(part_rows);
            to -= parts;
            for (k, child) in self.zones[to..to + parts].iter_mut().enumerate() {
                let start = zone.start + k * part_rows;
                *child = AdaptiveZone {
                    start,
                    end: (start + part_rows).min(zone.end),
                    state: inherited,
                    stats: ZoneStats::starting_at(self.probe_clock),
                    deactivations: zone.deactivations,
                    no_resplit: false,
                    split_generation: zone.split_generation.saturating_add(1),
                    // The parent's mask covered a different row range.
                    mask: None,
                    // Reorganized zones are never queued for splitting;
                    // any parent reaching here is flat.
                    layout: ZoneLayout::Flat,
                    // Likewise the parent's tier: built over different
                    // rows, so children re-earn their own.
                    tier: None,
                    tier_stats: TierTelemetry::default(),
                };
            }
            // Back to front, as the splits are applied.
            self.trace.record(
                self.query_seq,
                AdaptEvent::Split {
                    range: zone.range(),
                    parts,
                },
            );
        }
        debug_assert_eq!(to, 0, "split children left a gap");
        // `metadata_bytes` counts capacity: return any slack a merge or
        // revival left.
        self.zones.shrink_to_fit();
        self.plane.rebuild(&self.zones);
    }
}
